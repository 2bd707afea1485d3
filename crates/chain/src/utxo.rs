//! The unspent-transaction-output (UTXO) set.
//!
//! Section 2.2 of the paper: "the storage layer stores the ownership
//! information of assets in the system" — an asset is owned by the identity
//! its latest output is linked to, assets are created by mining, and
//! transactions merge or split assets (Figures 2 and 3). This module tracks
//! exactly that ownership state and enforces the two miner-side validation
//! rules the paper calls out: users can only transact on assets they own,
//! and no asset can be spent twice.

use crate::transaction::{Transaction, TxKind, TxOutput};
use crate::types::{Address, Amount, OutPoint, TxId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Errors raised while applying transactions to the UTXO set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UtxoError {
    /// The referenced output does not exist (never created or already spent).
    MissingInput(OutPoint),
    /// The signer does not own the referenced output.
    NotOwner {
        /// The offending outpoint.
        outpoint: OutPoint,
        /// The actual owner.
        owner: Address,
        /// The address that attempted to spend it.
        spender: Address,
    },
    /// Output value exceeds input value (attempted asset inflation).
    ValueMismatch {
        /// Total value consumed.
        inputs: Amount,
        /// Total value produced plus fee plus locked value.
        outputs: Amount,
    },
    /// The same outpoint appears twice in one transaction.
    DuplicateInput(OutPoint),
    /// A transaction with inputs has no sender to authorise them.
    MissingSender,
}

impl fmt::Display for UtxoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UtxoError::MissingInput(op) => write!(f, "missing or already-spent input {op}"),
            UtxoError::NotOwner { outpoint, owner, spender } => {
                write!(f, "{spender} does not own {outpoint} (owner {owner})")
            }
            UtxoError::ValueMismatch { inputs, outputs } => {
                write!(f, "outputs+fee {outputs} exceed inputs {inputs}")
            }
            UtxoError::DuplicateInput(op) => write!(f, "duplicate input {op}"),
            UtxoError::MissingSender => write!(f, "transaction with inputs has no sender"),
        }
    }
}

impl std::error::Error for UtxoError {}

/// The set of unspent outputs of one chain.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UtxoSet {
    /// Unspent outputs keyed by outpoint. A `BTreeMap` keeps iteration
    /// deterministic, which keeps simulations reproducible.
    utxos: BTreeMap<OutPoint, TxOutput>,
}

impl UtxoSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of unspent outputs.
    pub fn len(&self) -> usize {
        self.utxos.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.utxos.is_empty()
    }

    /// Look up an unspent output.
    pub fn get(&self, outpoint: &OutPoint) -> Option<&TxOutput> {
        self.utxos.get(outpoint)
    }

    /// Whether `outpoint` is currently unspent.
    pub fn contains(&self, outpoint: &OutPoint) -> bool {
        self.utxos.contains_key(outpoint)
    }

    /// Total value owned by `address`.
    pub fn balance_of(&self, address: &Address) -> Amount {
        self.utxos.values().filter(|o| o.owner == *address).map(|o| o.value).sum()
    }

    /// All unspent outpoints owned by `address`, in deterministic order.
    pub fn outputs_of(&self, address: &Address) -> Vec<(OutPoint, TxOutput)> {
        self.utxos.iter().filter(|(_, o)| o.owner == *address).map(|(k, v)| (*k, *v)).collect()
    }

    /// Select outputs owned by `address` covering at least `amount`.
    /// Returns the selected outpoints and their total value, or `None` if
    /// the balance is insufficient.
    pub fn select_inputs(
        &self,
        address: &Address,
        amount: Amount,
    ) -> Option<(Vec<OutPoint>, Amount)> {
        let mut selected = Vec::new();
        let mut total: Amount = 0;
        for (op, out) in self.utxos.iter() {
            if out.owner == *address {
                selected.push(*op);
                total += out.value;
                if total >= amount {
                    return Some((selected, total));
                }
            }
        }
        None
    }

    /// Credit an output directly (used for genesis allocations and contract
    /// payouts materialised by the chain).
    pub fn credit(&mut self, outpoint: OutPoint, output: TxOutput) {
        self.utxos.insert(outpoint, output);
    }

    /// Validate `tx` against the current set without mutating it.
    ///
    /// Checks the paper's two storage-layer rules (ownership and no double
    /// spending) plus value conservation: inputs must cover outputs + fee +
    /// any value locked into a deployed contract. Coinbase and contract-call
    /// transactions consume no inputs and are validated elsewhere.
    pub fn validate(&self, tx: &Transaction) -> Result<(), UtxoError> {
        let inputs = tx.consumed_inputs();
        if inputs.is_empty() {
            return Ok(());
        }
        let sender = tx.sender.ok_or(UtxoError::MissingSender)?;

        let mut seen = std::collections::BTreeSet::new();
        let mut input_value: Amount = 0;
        for op in inputs {
            if !seen.insert(*op) {
                return Err(UtxoError::DuplicateInput(*op));
            }
            let out = self.get(op).ok_or(UtxoError::MissingInput(*op))?;
            if out.owner != sender {
                return Err(UtxoError::NotOwner {
                    outpoint: *op,
                    owner: out.owner,
                    spender: sender,
                });
            }
            input_value += out.value;
        }

        let locked = match &tx.kind {
            TxKind::Deploy { locked_value, .. } => *locked_value,
            _ => 0,
        };
        let output_value: Amount =
            tx.created_outputs().iter().map(|o| o.value).sum::<Amount>() + tx.fee + locked;
        if output_value > input_value {
            return Err(UtxoError::ValueMismatch { inputs: input_value, outputs: output_value });
        }
        Ok(())
    }

    /// Apply a validated transaction: spend its inputs and create its
    /// outputs. Callers must have called [`UtxoSet::validate`] first (the
    /// chain's block application does).
    pub fn apply(&mut self, tx: &Transaction) -> Result<(), UtxoError> {
        self.validate(tx)?;
        for op in tx.consumed_inputs() {
            self.utxos.remove(op);
        }
        let txid = tx.id();
        for (i, out) in tx.created_outputs().iter().enumerate() {
            self.credit(OutPoint::new(txid, i as u32), *out);
        }
        Ok(())
    }

    /// Credit a payout produced by a contract call (redeem/refund). The
    /// outpoint is derived from the calling transaction so it is unique and
    /// reproducible.
    pub fn credit_contract_payout(
        &mut self,
        call_txid: TxId,
        seq: u32,
        to: Address,
        value: Amount,
    ) {
        // Contract payouts use high output indices so they can never collide
        // with outputs created directly by the transaction.
        self.credit(OutPoint::new(call_txid, 0x8000_0000 + seq), TxOutput::new(to, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{coinbase, TxBuilder};
    use ac3_crypto::{Hash256, KeyPair};
    use proptest::prelude::*;

    fn addr(seed: &[u8]) -> Address {
        Address::from(KeyPair::from_seed(seed).public())
    }

    fn builder(seed: &[u8]) -> TxBuilder {
        TxBuilder::new(KeyPair::from_seed(seed), 0)
    }

    /// Total value of every unspent output (the "money supply").
    fn total_value(set: &UtxoSet) -> Amount {
        set.utxos.values().map(|o| o.value).sum()
    }

    /// Give `owner` a single UTXO of `value` and return its outpoint.
    fn fund(set: &mut UtxoSet, owner: Address, value: Amount, tag: u8) -> OutPoint {
        let op = OutPoint::new(TxId(Hash256::digest(&[tag])), 0);
        set.credit(op, TxOutput::new(owner, value));
        op
    }

    #[test]
    fn coinbase_credits_miner() {
        let mut set = UtxoSet::new();
        let miner = addr(b"miner");
        set.apply(&coinbase(miner, 50, 0)).unwrap();
        assert_eq!(set.balance_of(&miner), 50);
        assert_eq!(total_value(&set), 50);
    }

    #[test]
    fn merge_transaction_like_figure2_tx1() {
        // Alice merges three assets (1, 0.5, 0.3 scaled to integers) into one
        // owned by Bob — the paper's TX1.
        let mut set = UtxoSet::new();
        let alice = addr(b"alice");
        let bob = addr(b"bob");
        let i1 = fund(&mut set, alice, 10, 1);
        let i2 = fund(&mut set, alice, 5, 2);
        let i3 = fund(&mut set, alice, 3, 3);

        let mut b = builder(b"alice");
        let tx = b.transfer(vec![i1, i2, i3], vec![TxOutput::new(bob, 18)], 0);
        set.apply(&tx).unwrap();
        assert_eq!(set.balance_of(&alice), 0);
        assert_eq!(set.balance_of(&bob), 18);
    }

    #[test]
    fn split_transaction_like_figure2_tx2() {
        // Bob splits one asset into two outputs of different values — TX2.
        let mut set = UtxoSet::new();
        let alice = addr(b"alice");
        let bob = addr(b"bob");
        let input = fund(&mut set, bob, 18, 1);
        let mut b = builder(b"bob");
        let tx = b.transfer(vec![input], vec![TxOutput::new(alice, 3), TxOutput::new(bob, 15)], 0);
        set.apply(&tx).unwrap();
        assert_eq!(set.balance_of(&alice), 3);
        assert_eq!(set.balance_of(&bob), 15);
    }

    #[test]
    fn double_spend_rejected() {
        let mut set = UtxoSet::new();
        let alice = addr(b"alice");
        let bob = addr(b"bob");
        let input = fund(&mut set, alice, 10, 1);
        let mut b = builder(b"alice");
        let tx1 = b.transfer(vec![input], vec![TxOutput::new(bob, 10)], 0);
        let tx2 = b.transfer(vec![input], vec![TxOutput::new(bob, 10)], 0);
        set.apply(&tx1).unwrap();
        assert_eq!(set.validate(&tx2).unwrap_err(), UtxoError::MissingInput(input));
    }

    #[test]
    fn duplicate_input_in_one_tx_rejected() {
        let mut set = UtxoSet::new();
        let alice = addr(b"alice");
        let input = fund(&mut set, alice, 10, 1);
        let mut b = builder(b"alice");
        let tx = b.transfer(vec![input, input], vec![TxOutput::new(alice, 20)], 0);
        assert_eq!(set.validate(&tx).unwrap_err(), UtxoError::DuplicateInput(input));
    }

    #[test]
    fn spending_someone_elses_asset_rejected() {
        let mut set = UtxoSet::new();
        let alice = addr(b"alice");
        let input = fund(&mut set, alice, 10, 1);
        let mut mallory = builder(b"mallory");
        let tx = mallory.transfer(vec![input], vec![TxOutput::new(mallory.address(), 10)], 0);
        match set.validate(&tx).unwrap_err() {
            UtxoError::NotOwner { owner, spender, .. } => {
                assert_eq!(owner, alice);
                assert_eq!(spender, mallory.address());
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn inflation_rejected() {
        let mut set = UtxoSet::new();
        let alice = addr(b"alice");
        let input = fund(&mut set, alice, 10, 1);
        let mut b = builder(b"alice");
        let tx = b.transfer(vec![input], vec![TxOutput::new(alice, 11)], 0);
        assert!(matches!(set.validate(&tx).unwrap_err(), UtxoError::ValueMismatch { .. }));
    }

    #[test]
    fn deploy_locking_more_than_inputs_rejected() {
        let mut set = UtxoSet::new();
        let alice = addr(b"alice");
        let input = fund(&mut set, alice, 10, 1);
        let mut b = builder(b"alice");
        let tx = b.deploy(vec![input], 11, vec![], b"ctor".to_vec(), 0);
        assert!(matches!(set.validate(&tx).unwrap_err(), UtxoError::ValueMismatch { .. }));
        let ok = b.deploy(vec![input], 8, vec![TxOutput::new(alice, 1)], b"ctor".to_vec(), 1);
        assert!(set.validate(&ok).is_ok());
    }

    #[test]
    fn select_inputs_covers_amount_or_none() {
        let mut set = UtxoSet::new();
        let alice = addr(b"alice");
        fund(&mut set, alice, 5, 1);
        fund(&mut set, alice, 7, 2);
        let (inputs, total) = set.select_inputs(&alice, 10).unwrap();
        assert!(total >= 10);
        assert!(!inputs.is_empty());
        assert!(set.select_inputs(&alice, 13).is_none());
    }

    #[test]
    fn contract_payout_outpoints_do_not_collide() {
        let mut set = UtxoSet::new();
        let alice = addr(b"alice");
        let txid = TxId(Hash256::digest(b"call"));
        set.credit_contract_payout(txid, 0, alice, 10);
        set.credit_contract_payout(txid, 1, alice, 11);
        assert_eq!(set.balance_of(&alice), 21);
        assert_eq!(set.len(), 2);
    }

    proptest! {
        /// Value conservation: applying any sequence of random valid
        /// merge/split transfers never changes the total supply (fees are 0
        /// in this property).
        #[test]
        fn prop_value_conserved_under_merge_split(splits in proptest::collection::vec(1u64..5, 1..12)) {
            let mut set = UtxoSet::new();
            let alice = addr(b"alice");
            let mut b = builder(b"alice");
            fund(&mut set, alice, 1_000, 1);
            let supply = total_value(&set);

            for parts in splits {
                // Spend everything Alice owns into `parts` equal-ish outputs.
                let outs = set.outputs_of(&alice);
                let total: Amount = outs.iter().map(|(_, o)| o.value).sum();
                let inputs: Vec<OutPoint> = outs.iter().map(|(op, _)| *op).collect();
                let share = total / parts;
                let mut outputs: Vec<TxOutput> =
                    (0..parts - 1).map(|_| TxOutput::new(alice, share)).collect();
                outputs.push(TxOutput::new(alice, total - share * (parts - 1)));
                let tx = b.transfer(inputs, outputs, 0);
                set.apply(&tx).unwrap();
                prop_assert_eq!(total_value(&set), supply);
            }
        }

        /// Balances are never negative and never exceed the supply.
        #[test]
        fn prop_balance_bounded_by_supply(amounts in proptest::collection::vec(1u64..1000, 1..10)) {
            let mut set = UtxoSet::new();
            let alice = addr(b"alice");
            for (i, a) in amounts.iter().enumerate() {
                fund(&mut set, alice, *a, i as u8);
            }
            prop_assert!(set.balance_of(&alice) <= total_value(&set));
            prop_assert_eq!(set.balance_of(&alice), amounts.iter().sum::<u64>());
        }
    }
}
