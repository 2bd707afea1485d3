//! The mempool: pending transactions waiting to be mined.
//!
//! End users "multicast their transaction messages to mining nodes" (Section
//! 2.1); the mempool is where those messages wait. Miners drain it in fee
//! order (highest first, FIFO within equal fees) up to the per-block
//! transaction budget derived from the chain's tps cap.
//!
//! The pool is a bounded fee market, not an infinite queue:
//!
//! * **Capacity** is finite ([`Mempool::with_capacity`]). A submission to a
//!   full pool must outbid the cheapest *evictable* pending transaction or
//!   it is rejected with [`MempoolError::FeeTooLow`].
//! * **Base fee** ([`Mempool::base_fee`]): the chain's dynamic per-block
//!   base fee (pushed in by the owning `Blockchain` on every canonical
//!   block) is the first gate of the admission price — bids below it are
//!   rejected even while the pool has room, and
//!   [`Mempool::fee_floor`] reports `max(base fee, eviction floor)`.
//! * **Eviction** never drops a transaction that another pending
//!   transaction depends on — one whose output is spent by a pending input,
//!   or whose deployed contract is the target of a pending call (a swap
//!   redemption must not be orphaned by its own contract's deployment being
//!   priced out). Such parents are *protected*.
//! * **Replace-by-fee** ([`Mempool::replace`]) lets a submitter re-bid a
//!   stuck transaction. The replacement must pay a strictly higher fee and
//!   the replaced transaction must not have pending dependents.
//! * **Observability** ([`Mempool::min_fee`], [`Mempool::fee_floor`],
//!   [`Mempool::position_within`]) exposes queue depth and the going price of
//!   block space, so rational submitters can decide when to outbid.
//!
//! Admission runs its checks cheapest first, as Bitcoin Core runs its
//! policy `PreChecks` before any script check: the gates that need no
//! hashing (coinbase, base fee, outbidding the eviction candidate of a full
//! pool) come before the txid and duplicate check, the input conflicts and,
//! last, the signature. A submission refused on price is therefore neither
//! hashed nor verified — under a mempool flood most submissions are exactly
//! such doomed bids. Every transaction is admitted or refused as it would
//! be in any other order; only the reported reason of a transaction failing
//! several checks depends on it (a badly signed bid below the base fee is
//! `FeeTooLow`).

use crate::transaction::Transaction;
use crate::types::{Amount, OutPoint, TxId};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Reasons a transaction is refused admission to the mempool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MempoolError {
    /// The transaction's signature is missing or invalid.
    InvalidSignature(TxId),
    /// The same transaction is already pending.
    AlreadyPending(TxId),
    /// Another pending transaction already spends one of the same inputs.
    ConflictingInput(OutPoint),
    /// Coinbase transactions cannot be submitted by users.
    CoinbaseNotAllowed,
    /// The fee is below the admission price: under the chain's dynamic base
    /// fee, or — in a full pool — not beating the cheapest evictable
    /// pending transaction.
    FeeTooLow {
        /// The fee the rejected transaction offered.
        offered: Amount,
        /// The smallest fee that would currently buy a slot.
        floor: Amount,
    },
    /// The pool is full and every pending transaction is protected from
    /// eviction.
    Full,
    /// Replace-by-fee: the referenced original is not pending.
    NotPending(TxId),
    /// Replace-by-fee: the replacement's fee is not strictly higher than
    /// the original's.
    ReplacementFeeTooLow {
        /// The fee the replacement offered.
        offered: Amount,
        /// The fee of the transaction it tried to replace.
        current: Amount,
    },
    /// The transaction cannot be replaced or evicted because other pending
    /// transactions depend on it.
    ProtectedParent(TxId),
    /// Replace-by-fee: the replacement was not signed by the original's
    /// submitter (only the owner of a pending transaction may out-bid it).
    ReplacementSubmitterMismatch(TxId),
}

impl std::fmt::Display for MempoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MempoolError::InvalidSignature(id) => write!(f, "invalid signature on {id}"),
            MempoolError::AlreadyPending(id) => write!(f, "{id} already pending"),
            MempoolError::ConflictingInput(op) => {
                write!(f, "input {op} already spent by a pending tx")
            }
            MempoolError::CoinbaseNotAllowed => {
                write!(f, "coinbase transactions cannot be submitted")
            }
            MempoolError::FeeTooLow { offered, floor } => {
                write!(f, "fee {offered} below the admission floor {floor}")
            }
            MempoolError::Full => write!(f, "pool full and every pending tx is protected"),
            MempoolError::NotPending(id) => write!(f, "{id} is not pending"),
            MempoolError::ReplacementFeeTooLow { offered, current } => {
                write!(f, "replacement fee {offered} not strictly above the current {current}")
            }
            MempoolError::ProtectedParent(id) => {
                write!(f, "{id} has pending dependents and cannot be displaced")
            }
            MempoolError::ReplacementSubmitterMismatch(id) => {
                write!(f, "only {id}'s own submitter may replace it")
            }
        }
    }
}

impl std::error::Error for MempoolError {}

/// Priority key: higher fee first, then submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PriorityKey {
    /// Negative fee so that the natural ascending order of the BTreeSet
    /// yields the highest fee first.
    neg_fee: i128,
    seq: u64,
}

/// A pool of pending transactions.
#[derive(Debug)]
pub struct Mempool {
    txs: HashMap<TxId, Transaction>,
    order: BTreeSet<(PriorityKey, TxId)>,
    keys: HashMap<TxId, PriorityKey>,
    /// Inputs claimed by pending transactions, to reject obvious
    /// double-spends before they reach a block.
    claimed_inputs: HashSet<OutPoint>,
    /// Parent transaction id → number of pending transactions referencing
    /// it (spending one of its outputs, or calling the contract its
    /// deployment creates). Counted for every reference — whether or not
    /// the parent is itself pending — so the refcounts survive any
    /// admission order. A positive count protects a *pending* parent from
    /// eviction and replacement.
    dependents: HashMap<TxId, u32>,
    capacity: usize,
    /// The chain's current dynamic base fee (see
    /// [`crate::params::BaseFeeSchedule`]): the minimum fee admitted even
    /// while the pool has room. Pushed in by the owning `Blockchain` on
    /// every canonical state change; 0 under a disabled schedule.
    base_fee: Amount,
    next_seq: u64,
    /// Monotonic mutation counter: bumped on every insert, removal, and
    /// base-fee change. Lets observers (the sim layer's congestion cache)
    /// memoise derived views and invalidate them precisely when the pool
    /// actually changed, instead of re-walking the priority order on every
    /// probe.
    revision: u64,
}

impl Default for Mempool {
    fn default() -> Self {
        Self::with_capacity(usize::MAX)
    }
}

impl Mempool {
    /// An unbounded mempool (capacity `usize::MAX`).
    pub fn new() -> Self {
        Self::default()
    }

    /// A mempool holding at most `capacity` pending transactions.
    pub fn with_capacity(capacity: usize) -> Self {
        Mempool {
            txs: HashMap::new(),
            order: BTreeSet::new(),
            keys: HashMap::new(),
            claimed_inputs: HashSet::new(),
            dependents: HashMap::new(),
            capacity,
            base_fee: 0,
            next_seq: 0,
            revision: 0,
        }
    }

    /// Monotonic counter of pool mutations (admissions, removals,
    /// base-fee updates). Two equal revisions on the same pool bracket a
    /// window in which every derived view (depth, floor, ranks) was
    /// unchanged.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The current dynamic base fee gating admission.
    pub fn base_fee(&self) -> Amount {
        self.base_fee
    }

    /// Update the dynamic base fee (called by the owning chain whenever an
    /// accepted canonical block moves it). Already-pending transactions are
    /// not retroactively dropped: a bid below a risen base fee simply cannot
    /// be mined until the fee decays, and stays exposed to eviction.
    pub fn set_base_fee(&mut self, base_fee: Amount) {
        if self.base_fee != base_fee {
            self.revision += 1;
        }
        self.base_fee = base_fee;
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Maximum number of pending transactions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Whether `txid` is pending.
    pub fn contains(&self, txid: &TxId) -> bool {
        self.txs.contains_key(txid)
    }

    /// The smallest fee among pending transactions.
    pub fn min_fee(&self) -> Option<Amount> {
        self.order.iter().next_back().map(|(key, _)| (-key.neg_fee) as Amount)
    }

    /// The smallest fee that would currently buy a slot: the dynamic base
    /// fee while the pool has room, the larger of the base fee and one
    /// above the cheapest evictable transaction when it is full, and
    /// `Amount::MAX` when full of protected transactions. A user (not
    /// coinbase) submission bidding below this floor is always refused, with
    /// [`MempoolError::FeeTooLow`] or [`MempoolError::Full`]: bidders rely
    /// on that to skip building a doomed bid. A submission bidding exactly
    /// this floor clears the price gates (unless the floor is
    /// `Amount::MAX`), save for the caveat below — under-reporting it would
    /// make rational bidders open with a bid the pool immediately rejects.
    ///
    /// One caller-specific caveat the aggregate quote cannot see: a
    /// submission never evicts its *own* pending parents, so when the
    /// pool-wide eviction candidate happens to be the submitter's parent,
    /// that submission's true floor is one above the next-cheapest victim
    /// (the rejection's [`MempoolError::FeeTooLow::floor`] reports the
    /// caller-specific price).
    pub fn fee_floor(&self) -> Amount {
        if self.txs.len() < self.capacity {
            return self.base_fee;
        }
        match self.eviction_candidate() {
            Some((_, fee)) => fee.saturating_add(1).max(self.base_fee),
            None => Amount::MAX,
        }
    }

    /// The fee of the pending transaction at `rank` in miner priority order
    /// (0 = mined first), or `None` when the queue is shallower. O(rank).
    pub fn fee_at_rank(&self, rank: usize) -> Option<Amount> {
        self.order.iter().nth(rank).map(|(key, _)| (-key.neg_fee) as Amount)
    }

    /// Whether a pending transaction ranks within the first `limit` slots
    /// of miner priority order — the "will it make the next block?" probe,
    /// early-exiting at O(limit) instead of O(queue depth). `None` if not
    /// pending.
    pub fn position_within(&self, txid: &TxId, limit: usize) -> Option<bool> {
        let key = self.keys.get(txid)?;
        Some(self.order.range(..(*key, *txid)).take(limit).count() < limit)
    }

    /// Whether other pending transactions reference `txid` as a parent
    /// (making it — while pending — ineligible for eviction and
    /// replacement).
    pub fn is_protected(&self, txid: &TxId) -> bool {
        self.dependents.get(txid).copied().unwrap_or(0) > 0
    }

    /// The lowest-priority unprotected pending transaction and its fee.
    fn eviction_candidate(&self) -> Option<(TxId, Amount)> {
        self.eviction_candidate_excluding(&[])
    }

    /// Like [`Mempool::eviction_candidate`], but never picks a transaction
    /// in `exclude` — used to keep a submission from evicting its *own*
    /// pending parents (which would orphan it on arrival).
    fn eviction_candidate_excluding(&self, exclude: &[TxId]) -> Option<(TxId, Amount)> {
        self.order
            .iter()
            .rev()
            .map(|(key, txid)| (*txid, (-key.neg_fee) as Amount))
            .find(|(txid, _)| !self.is_protected(txid) && !exclude.contains(txid))
    }

    /// The price gates of admission, which need no hashing: coinbase
    /// transactions are refused, and so is a bid below the dynamic base
    /// fee.
    fn check_price(&self, tx: &Transaction) -> Result<(), MempoolError> {
        if tx.is_coinbase() {
            return Err(MempoolError::CoinbaseNotAllowed);
        }
        if tx.fee < self.base_fee {
            // The dynamic base fee is the first gate of the admission
            // price; miners skip sub-base bids, so admitting one would
            // strand it.
            return Err(MempoolError::FeeTooLow { offered: tx.fee, floor: self.fee_floor() });
        }
        Ok(())
    }

    /// The admission checks that hash, run only once the price gates have
    /// passed: the txid and duplicate check, input conflicts, and last the
    /// signature. `exempt_inputs` names inputs whose claims are being
    /// released by the same operation (the replaced transaction's own
    /// inputs).
    ///
    /// The id and verdict build on the transaction's memoized digest, which
    /// `TxBuilder` set when it signed. Debug builds re-derive the digest
    /// from the fields, so a transaction mutated after that fails here
    /// instead of being judged by stale identity values.
    fn check_identity(
        &self,
        tx: &Transaction,
        exempt_inputs: &[OutPoint],
    ) -> Result<TxId, MempoolError> {
        debug_assert_eq!(
            tx.digest(),
            ac3_crypto::Hash256::digest(&tx.signing_bytes()),
            "transaction mutated after its digest was memoized"
        );
        let txid = tx.id();
        if self.txs.contains_key(&txid) {
            return Err(MempoolError::AlreadyPending(txid));
        }
        for input in tx.consumed_inputs() {
            if self.claimed_inputs.contains(input) && !exempt_inputs.contains(input) {
                return Err(MempoolError::ConflictingInput(*input));
            }
        }
        if !tx.signature_valid() {
            return Err(MempoolError::InvalidSignature(txid));
        }
        Ok(txid)
    }

    /// Transaction ids the transaction references as parents: the sources
    /// of its inputs, plus — for a contract call — the deployment of the
    /// called contract (deployments derive the contract id from their own
    /// transaction id). Deliberately *not* filtered by pending status: the
    /// refcounts stay symmetric across insert/remove regardless of the
    /// order parents and children enter the pool, so a parent is protected
    /// even when its dependent was admitted first.
    fn parent_refs(tx: &Transaction) -> Vec<TxId> {
        let mut parents: Vec<TxId> = tx.consumed_inputs().iter().map(|op| op.txid).collect();
        if let crate::transaction::TxKind::Call { contract, .. } = &tx.kind {
            parents.push(TxId(contract.0));
        }
        parents.sort();
        parents.dedup();
        parents
    }

    /// Insert a pre-checked transaction, wiring up claims and dependency
    /// protection.
    fn insert(&mut self, txid: TxId, tx: Transaction) {
        for parent in Self::parent_refs(&tx) {
            *self.dependents.entry(parent).or_default() += 1;
        }
        for input in tx.consumed_inputs() {
            self.claimed_inputs.insert(*input);
        }
        let key = PriorityKey { neg_fee: -(tx.fee as i128), seq: self.next_seq };
        self.next_seq += 1;
        self.revision += 1;
        self.order.insert((key, txid));
        self.keys.insert(txid, key);
        self.txs.insert(txid, tx);
    }

    /// Submit a transaction to the pool. When the pool is full the
    /// submission must outbid (strictly) the cheapest unprotected pending
    /// transaction, which is evicted to make room.
    pub fn submit(&mut self, tx: Transaction) -> Result<TxId, MempoolError> {
        self.submit_with_evictions(tx).map(|(txid, _)| txid)
    }

    /// Like [`Mempool::submit`], also returning the transactions evicted to
    /// make room (so callers can undo side effects of their admission,
    /// e.g. fee accounting).
    ///
    /// Checks run cheapest first (see the module docs): the coinbase gate,
    /// the base-fee gate, and in a full pool the bid against the eviction
    /// candidate; only then the txid and duplicate check, input conflicts
    /// and the signature, right before the eviction or the insert.
    pub fn submit_with_evictions(
        &mut self,
        tx: Transaction,
    ) -> Result<(TxId, Vec<Transaction>), MempoolError> {
        self.check_price(&tx)?;
        let victim = if self.txs.len() >= self.capacity {
            // The incoming transaction's own pending parents are off
            // limits: evicting one to admit its child would orphan the
            // child on arrival.
            let parents = Self::parent_refs(&tx);
            let (victim, victim_fee) =
                self.eviction_candidate_excluding(&parents).ok_or(MempoolError::Full)?;
            if tx.fee <= victim_fee {
                return Err(MempoolError::FeeTooLow {
                    offered: tx.fee,
                    floor: victim_fee.saturating_add(1).max(self.base_fee),
                });
            }
            Some(victim)
        } else {
            None
        };
        let txid = self.check_identity(&tx, &[])?;
        let evicted =
            victim.into_iter().map(|v| self.remove(&v).expect("candidate is pending")).collect();
        self.insert(txid, tx);
        Ok((txid, evicted))
    }

    /// Replace-by-fee: atomically swap a pending transaction for a
    /// higher-fee replacement from the same submitter. Returns the new id
    /// and the replaced transaction.
    ///
    /// Rejected when the original is not pending, when the replacement's
    /// fee is not *strictly* higher, or when pending transactions depend on
    /// the original (replacing a deployment would orphan the calls bound to
    /// its contract id). Those gates run first; then the admission checks
    /// of [`Mempool::submit_with_evictions`] in the same cheapest-first
    /// order, the signature last, before the original is removed.
    pub fn replace(
        &mut self,
        old: &TxId,
        tx: Transaction,
    ) -> Result<(TxId, Transaction), MempoolError> {
        let Some(old_tx) = self.txs.get(old) else {
            return Err(MempoolError::NotPending(*old));
        };
        if tx.fee <= old_tx.fee {
            return Err(MempoolError::ReplacementFeeTooLow {
                offered: tx.fee,
                current: old_tx.fee,
            });
        }
        if tx.sender != old_tx.sender {
            return Err(MempoolError::ReplacementSubmitterMismatch(*old));
        }
        if self.is_protected(old) {
            return Err(MempoolError::ProtectedParent(*old));
        }
        self.check_price(&tx)?;
        let txid = self.check_identity(&tx, old_tx.consumed_inputs())?;
        let replaced = self.remove(old).expect("checked pending above");
        self.insert(txid, tx);
        Ok((txid, replaced))
    }

    /// Remove a transaction (because it was mined or became invalid).
    pub fn remove(&mut self, txid: &TxId) -> Option<Transaction> {
        let tx = self.txs.remove(txid)?;
        self.revision += 1;
        if let Some(key) = self.keys.remove(txid) {
            self.order.remove(&(key, *txid));
        }
        for input in tx.consumed_inputs() {
            self.claimed_inputs.remove(input);
        }
        for parent in Self::parent_refs(&tx) {
            if let Some(count) = self.dependents.get_mut(&parent) {
                *count -= 1;
                if *count == 0 {
                    self.dependents.remove(&parent);
                }
            }
        }
        Some(tx)
    }

    /// Remove every transaction whose id appears in `mined` (the single
    /// bulk-removal path; block acceptance already holds the ids, so there
    /// is no by-transaction variant to keep consistent with this one).
    pub fn remove_ids<'a, I: IntoIterator<Item = &'a TxId>>(&mut self, mined: I) {
        for txid in mined {
            self.remove(txid);
        }
    }

    /// The highest-priority `limit` transactions, without removing them.
    /// Borrowed, not cloned: these are the pool's own instances, carrying
    /// the id and signature verdict admission memoized.
    pub fn select(&self, limit: usize) -> Vec<&Transaction> {
        self.order.iter().take(limit).map(|(_, txid)| &self.txs[txid]).collect()
    }

    /// Iterate all pending transactions in priority order.
    pub fn iter(&self) -> impl Iterator<Item = &Transaction> {
        self.order.iter().map(move |(_, txid)| &self.txs[txid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{coinbase, TxBuilder, TxOutput};
    use crate::types::{Address, ContractId, OutPoint, TxId};
    use ac3_crypto::{Hash256, KeyPair};
    use ac3_seeded::check;

    fn builder(seed: &[u8]) -> TxBuilder {
        TxBuilder::new(KeyPair::from_seed(seed), 0)
    }

    fn outpoint(tag: u8) -> OutPoint {
        OutPoint::new(TxId(Hash256::digest(&[tag])), 0)
    }

    #[test]
    fn submit_and_select_by_fee() {
        let mut pool = Mempool::new();
        let mut alice = builder(b"alice");
        let bob = builder(b"bob").address();
        let low = alice.transfer(vec![outpoint(1)], vec![TxOutput::new(bob, 1)], 1);
        let high = alice.transfer(vec![outpoint(2)], vec![TxOutput::new(bob, 1)], 10);
        let mid = alice.transfer(vec![outpoint(3)], vec![TxOutput::new(bob, 1)], 5);
        pool.submit(low.clone()).unwrap();
        pool.submit(high.clone()).unwrap();
        pool.submit(mid.clone()).unwrap();

        let selected = pool.select(2);
        assert_eq!(selected[0].id(), high.id());
        assert_eq!(selected[1].id(), mid.id());
        assert_eq!(pool.len(), 3, "select does not remove");
    }

    #[test]
    fn equal_fee_is_fifo() {
        let mut pool = Mempool::new();
        let mut alice = builder(b"alice");
        let first = alice.transfer(vec![outpoint(1)], vec![], 2);
        let second = alice.transfer(vec![outpoint(2)], vec![], 2);
        pool.submit(first.clone()).unwrap();
        pool.submit(second.clone()).unwrap();
        let selected = pool.select(10);
        assert_eq!(selected[0].id(), first.id());
        assert_eq!(selected[1].id(), second.id());
    }

    #[test]
    fn duplicate_submission_rejected() {
        let mut pool = Mempool::new();
        let mut alice = builder(b"alice");
        let tx = alice.transfer(vec![outpoint(1)], vec![], 1);
        pool.submit(tx.clone()).unwrap();
        assert_eq!(pool.submit(tx.clone()).unwrap_err(), MempoolError::AlreadyPending(tx.id()));
    }

    #[test]
    fn conflicting_input_rejected() {
        let mut pool = Mempool::new();
        let mut alice = builder(b"alice");
        let tx1 = alice.transfer(vec![outpoint(1)], vec![], 1);
        let tx2 = alice.transfer(vec![outpoint(1)], vec![], 9);
        pool.submit(tx1).unwrap();
        assert_eq!(pool.submit(tx2).unwrap_err(), MempoolError::ConflictingInput(outpoint(1)));
    }

    #[test]
    fn invalid_signature_rejected() {
        let mut pool = Mempool::new();
        let mut alice = builder(b"alice");
        // Tamper a cold copy: the builder memoized the original's digest.
        let mut tx = alice.transfer(vec![outpoint(1)], vec![], 1).clone();
        tx.fee = 99; // breaks the signature
        assert!(matches!(pool.submit(tx).unwrap_err(), MempoolError::InvalidSignature(_)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "transaction mutated after its digest was memoized")]
    fn a_built_transaction_mutated_in_place_trips_the_admission_cross_check() {
        let mut pool = Mempool::new();
        let mut alice = builder(b"alice");
        let mut tx = alice.transfer(vec![outpoint(1)], vec![], 1);
        tx.fee = 99; // the builder's memoized digest is now stale
        let _ = pool.submit(tx);
    }

    #[test]
    fn coinbase_rejected() {
        let mut pool = Mempool::new();
        let miner = Address::from(KeyPair::from_seed(b"miner").public());
        assert_eq!(
            pool.submit(coinbase(miner, 50, 0)).unwrap_err(),
            MempoolError::CoinbaseNotAllowed
        );
    }

    #[test]
    fn remove_frees_claimed_inputs() {
        let mut pool = Mempool::new();
        let mut alice = builder(b"alice");
        let tx1 = alice.transfer(vec![outpoint(1)], vec![], 1);
        let id1 = pool.submit(tx1.clone()).unwrap();
        pool.remove(&id1).unwrap();
        assert!(pool.is_empty());
        // The input is free again.
        let tx2 = alice.transfer(vec![outpoint(1)], vec![], 1);
        assert!(pool.submit(tx2).is_ok());
    }

    #[test]
    fn remove_ids_clears_mined_transactions() {
        let mut pool = Mempool::new();
        let mut alice = builder(b"alice");
        let tx1 = alice.transfer(vec![outpoint(1)], vec![], 1);
        let tx2 = alice.transfer(vec![outpoint(2)], vec![], 1);
        pool.submit(tx1.clone()).unwrap();
        pool.submit(tx2.clone()).unwrap();
        pool.remove_ids([&tx1.id()]);
        assert_eq!(pool.len(), 1);
        assert!(pool.contains(&tx2.id()));
    }

    // ------------------------------------------------------------------
    // Bounded capacity and fee-based eviction
    // ------------------------------------------------------------------

    #[test]
    fn full_pool_evicts_the_cheapest_pending_tx() {
        let mut pool = Mempool::with_capacity(2);
        let mut alice = builder(b"alice");
        let cheap = alice.transfer(vec![outpoint(1)], vec![], 1);
        let mid = alice.transfer(vec![outpoint(2)], vec![], 5);
        pool.submit(cheap.clone()).unwrap();
        pool.submit(mid.clone()).unwrap();

        let rich = alice.transfer(vec![outpoint(3)], vec![], 9);
        let (txid, evicted) = pool.submit_with_evictions(rich.clone()).unwrap();
        assert_eq!(txid, rich.id());
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].id(), cheap.id());
        assert!(!pool.contains(&cheap.id()));
        assert_eq!(pool.len(), 2);
        // The evicted transaction's input claim is released.
        let again = alice.transfer(vec![outpoint(1)], vec![], 9);
        pool.submit(again).unwrap();
    }

    #[test]
    fn full_pool_rejects_fees_at_or_below_the_floor() {
        let mut pool = Mempool::with_capacity(1);
        let mut alice = builder(b"alice");
        pool.submit(alice.transfer(vec![outpoint(1)], vec![], 5)).unwrap();
        assert_eq!(pool.fee_floor(), 6);

        // Equal fee does not displace (no churn among equal bids).
        let equal = alice.transfer(vec![outpoint(2)], vec![], 5);
        assert_eq!(
            pool.submit(equal).unwrap_err(),
            MempoolError::FeeTooLow { offered: 5, floor: 6 }
        );
        let low = alice.transfer(vec![outpoint(3)], vec![], 1);
        assert!(matches!(pool.submit(low).unwrap_err(), MempoolError::FeeTooLow { .. }));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn eviction_never_drops_a_deploy_with_a_pending_redemption() {
        // Regression: a pending contract call must protect the pending
        // deployment it targets — evicting the deployment would orphan the
        // swap redemption bound to its contract id.
        let mut pool = Mempool::with_capacity(2);
        let mut alice = builder(b"alice");
        let deploy = alice.deploy(vec![outpoint(1)], 10, vec![], b"ctor".to_vec(), 1);
        let redeem = alice.call(ContractId(deploy.id().0), b"redeem".to_vec(), 2);
        pool.submit(deploy.clone()).unwrap();
        pool.submit(redeem.clone()).unwrap();
        assert!(pool.is_protected(&deploy.id()));

        // The deploy is the cheapest tx, but the call depending on it makes
        // it untouchable — the call itself is the eviction candidate.
        let rich = alice.transfer(vec![outpoint(2)], vec![], 50);
        let (_, evicted) = pool.submit_with_evictions(rich).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].id(), redeem.id(), "the dependent call is evictable");
        assert!(pool.contains(&deploy.id()), "the protected deploy survives");
        // With the call gone the deploy loses its protection.
        assert!(!pool.is_protected(&deploy.id()));
    }

    #[test]
    fn eviction_never_drops_a_parent_of_a_pending_spend() {
        // UTXO flavour of the same invariant: a pending transaction spending
        // another pending transaction's output protects the parent.
        let mut pool = Mempool::with_capacity(2);
        let mut alice = builder(b"alice");
        let parent = alice.transfer(vec![outpoint(1)], vec![TxOutput::new(alice.address(), 5)], 1);
        let child = alice.transfer(vec![OutPoint::new(parent.id(), 0)], vec![], 3);
        pool.submit(parent.clone()).unwrap();
        pool.submit(child.clone()).unwrap();

        let rich = alice.transfer(vec![outpoint(2)], vec![], 50);
        let (_, evicted) = pool.submit_with_evictions(rich).unwrap();
        assert_eq!(evicted[0].id(), child.id());
        assert!(pool.contains(&parent.id()));
    }

    #[test]
    fn dependency_chain_evicts_only_its_unprotected_tail() {
        // parent ← child ← deploy: the inner links of a dependency chain
        // are protected; eviction can only take the tail.
        let mut alice = builder(b"alice");
        let parent = alice.transfer(vec![outpoint(1)], vec![TxOutput::new(alice.address(), 5)], 4);
        let child = alice.transfer(
            vec![OutPoint::new(parent.id(), 0)],
            vec![TxOutput::new(alice.address(), 5)],
            4,
        );
        let deploy = alice.deploy(vec![OutPoint::new(child.id(), 0)], 1, vec![], b"c".to_vec(), 4);
        let mut pool = Mempool::with_capacity(3);
        pool.submit(parent.clone()).unwrap();
        pool.submit(child.clone()).unwrap();
        pool.submit(deploy.clone()).unwrap();
        assert!(pool.is_protected(&parent.id()));
        assert!(pool.is_protected(&child.id()));
        assert!(!pool.is_protected(&deploy.id()));

        let rich = alice.transfer(vec![outpoint(9)], vec![], 50);
        let (_, evicted) = pool.submit_with_evictions(rich).unwrap();
        assert_eq!(evicted[0].id(), deploy.id(), "only the chain's tail is evictable");
        assert!(pool.contains(&parent.id()));
        assert!(pool.contains(&child.id()));
    }

    #[test]
    fn submission_never_evicts_its_own_pending_parent() {
        // Regression: the eviction victim used to be chosen before the
        // incoming transaction's parent references were counted, so a
        // high-fee child could evict the very parent it spends — orphaning
        // itself on arrival.
        let mut pool = Mempool::with_capacity(2);
        let mut alice = builder(b"alice");
        let parent = alice.transfer(vec![outpoint(1)], vec![TxOutput::new(alice.address(), 5)], 1);
        let unrelated = alice.transfer(vec![outpoint(2)], vec![], 2);
        pool.submit(parent.clone()).unwrap();
        pool.submit(unrelated.clone()).unwrap();

        // The parent (fee 1) is the cheapest tx, but the child spends it:
        // the unrelated tx (fee 2) must be the victim instead.
        let child = alice.transfer(vec![OutPoint::new(parent.id(), 0)], vec![], 10);
        let (_, evicted) = pool.submit_with_evictions(child.clone()).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].id(), unrelated.id());
        assert!(pool.contains(&parent.id()), "the child's parent survives");
        assert!(pool.contains(&child.id()));
        assert!(pool.is_protected(&parent.id()));
    }

    #[test]
    fn protection_survives_any_parent_child_admission_order() {
        // Regression: refcounts used to be computed against the parents
        // *pending at insert time* but decremented against the parents
        // pending at removal time — a call admitted before its deployment
        // could strip the deployment's protection when a sibling call was
        // later removed.
        let mut pool = Mempool::new();
        let mut alice = builder(b"alice");
        let deploy = alice.deploy(vec![outpoint(1)], 10, vec![], b"ctor".to_vec(), 1);
        let call_a = alice.call(ContractId(deploy.id().0), b"redeem-a".to_vec(), 2);
        let call_b = alice.call(ContractId(deploy.id().0), b"redeem-b".to_vec(), 2);

        // Child first, then the parent, then a second child.
        pool.submit(call_a.clone()).unwrap();
        pool.submit(deploy.clone()).unwrap();
        pool.submit(call_b.clone()).unwrap();
        assert!(pool.is_protected(&deploy.id()), "parent admitted after its dependent");

        // Removing one call must not strip the protection the other still
        // provides.
        pool.remove(&call_a.id()).unwrap();
        assert!(pool.is_protected(&deploy.id()));
        pool.remove(&call_b.id()).unwrap();
        assert!(!pool.is_protected(&deploy.id()), "last dependent gone");
    }

    // ------------------------------------------------------------------
    // Replace-by-fee
    // ------------------------------------------------------------------

    #[test]
    fn replace_by_fee_swaps_in_the_higher_bid() {
        let mut pool = Mempool::new();
        let mut alice = builder(b"alice");
        let original = alice.transfer(vec![outpoint(1)], vec![], 2);
        pool.submit(original.clone()).unwrap();

        // The replacement reuses the same input at a higher fee: allowed.
        let rebid = alice.transfer(vec![outpoint(1)], vec![], 5);
        let (new_id, replaced) = pool.replace(&original.id(), rebid.clone()).unwrap();
        assert_eq!(new_id, rebid.id());
        assert_eq!(replaced.id(), original.id());
        assert_eq!(pool.len(), 1);
        assert!(pool.contains(&rebid.id()));
        assert!(!pool.contains(&original.id()));
    }

    #[test]
    fn replace_by_fee_rejects_non_increasing_fees() {
        // Regression: a replacement must pay *strictly* more — equal fees
        // would allow free queue-position churn.
        let mut pool = Mempool::new();
        let mut alice = builder(b"alice");
        let original = alice.transfer(vec![outpoint(1)], vec![], 3);
        pool.submit(original.clone()).unwrap();

        let equal = alice.transfer(vec![outpoint(1)], vec![], 3);
        assert_eq!(
            pool.replace(&original.id(), equal).unwrap_err(),
            MempoolError::ReplacementFeeTooLow { offered: 3, current: 3 }
        );
        // A different submitter cannot out-bid someone else's transaction.
        let mut eve = builder(b"eve");
        let hijack = eve.transfer(vec![outpoint(9)], vec![], 9);
        assert_eq!(
            pool.replace(&original.id(), hijack).unwrap_err(),
            MempoolError::ReplacementSubmitterMismatch(original.id())
        );
        let lower = alice.transfer(vec![outpoint(1)], vec![], 1);
        assert_eq!(
            pool.replace(&original.id(), lower).unwrap_err(),
            MempoolError::ReplacementFeeTooLow { offered: 1, current: 3 }
        );
        // The original is untouched by the failed replacements.
        assert!(pool.contains(&original.id()));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn replace_rejects_missing_original_and_protected_parent() {
        let mut pool = Mempool::new();
        let mut alice = builder(b"alice");
        let ghost = TxId(Hash256::digest(b"ghost"));
        let some_tx = alice.transfer(vec![outpoint(1)], vec![], 9);
        assert_eq!(pool.replace(&ghost, some_tx).unwrap_err(), MempoolError::NotPending(ghost));

        // A deployment with a pending call cannot be replaced out from
        // under its redemption.
        let deploy = alice.deploy(vec![outpoint(2)], 10, vec![], b"ctor".to_vec(), 1);
        let redeem = alice.call(ContractId(deploy.id().0), b"redeem".to_vec(), 2);
        pool.submit(deploy.clone()).unwrap();
        pool.submit(redeem).unwrap();
        let rebid = alice.deploy(vec![outpoint(2)], 10, vec![], b"ctor".to_vec(), 7);
        assert_eq!(
            pool.replace(&deploy.id(), rebid).unwrap_err(),
            MempoolError::ProtectedParent(deploy.id())
        );
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    #[test]
    fn queue_depth_and_fee_observability() {
        let mut pool = Mempool::with_capacity(3);
        assert_eq!(pool.fee_floor(), 0, "room left: anything gets in");
        assert_eq!(pool.min_fee(), None);

        let mut alice = builder(b"alice");
        let t1 = alice.transfer(vec![outpoint(1)], vec![], 2);
        let t2 = alice.transfer(vec![outpoint(2)], vec![], 8);
        let t3 = alice.transfer(vec![outpoint(3)], vec![], 5);
        pool.submit(t1.clone()).unwrap();
        pool.submit(t2.clone()).unwrap();
        pool.submit(t3.clone()).unwrap();

        assert_eq!(pool.len(), 3);
        assert_eq!(pool.capacity(), 3);
        assert_eq!(pool.min_fee(), Some(2));
        assert_eq!(pool.fee_floor(), 3, "must beat the cheapest pending tx");
        assert_eq!(pool.position_within(&t2.id(), 1), Some(true));
        assert_eq!(pool.position_within(&t3.id(), 1), Some(false));
        assert_eq!(pool.position_within(&t3.id(), 2), Some(true));
        assert_eq!(pool.position_within(&t1.id(), 2), Some(false));
        assert_eq!(pool.position_within(&t1.id(), 3), Some(true));
        assert_eq!(pool.position_within(&TxId(Hash256::digest(b"ghost")), 3), None);
    }

    #[test]
    fn fee_at_rank_walks_priority_order() {
        let mut pool = Mempool::new();
        let mut alice = builder(b"alice");
        pool.submit(alice.transfer(vec![outpoint(1)], vec![], 2)).unwrap();
        pool.submit(alice.transfer(vec![outpoint(2)], vec![], 8)).unwrap();
        pool.submit(alice.transfer(vec![outpoint(3)], vec![], 5)).unwrap();
        assert_eq!(pool.fee_at_rank(0), Some(8));
        assert_eq!(pool.fee_at_rank(1), Some(5));
        assert_eq!(pool.fee_at_rank(2), Some(2));
        assert_eq!(pool.fee_at_rank(3), None, "queue is only three deep");
    }

    // ------------------------------------------------------------------
    // Dynamic base fee
    // ------------------------------------------------------------------

    #[test]
    fn base_fee_gates_admission_even_with_room() {
        let mut pool = Mempool::with_capacity(10);
        pool.set_base_fee(5);
        assert_eq!(pool.base_fee(), 5);
        assert_eq!(pool.fee_floor(), 5, "room left: the floor is the base fee");

        let mut alice = builder(b"alice");
        let cheap = alice.transfer(vec![outpoint(1)], vec![], 4);
        assert_eq!(
            pool.submit(cheap).unwrap_err(),
            MempoolError::FeeTooLow { offered: 4, floor: 5 }
        );
        assert!(pool.is_empty());
        // A bid at exactly the floor is admitted.
        pool.submit(alice.transfer(vec![outpoint(2)], vec![], 5)).unwrap();
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn fee_floor_is_max_of_base_fee_and_eviction_floor() {
        // Regression: `fee_floor` used to return 0 whenever the pool had
        // room, under-reporting the admission price once a base fee exists —
        // an adaptive bidder opening at the reported floor would be
        // immediately rejected.
        let mut pool = Mempool::with_capacity(2);
        let mut alice = builder(b"alice");
        pool.set_base_fee(3);
        pool.submit(alice.transfer(vec![outpoint(1)], vec![], 4)).unwrap();
        pool.submit(alice.transfer(vec![outpoint(2)], vec![], 6)).unwrap();
        // Full pool, eviction floor 5 > base fee 3.
        assert_eq!(pool.fee_floor(), 5);
        // Base fee above the eviction floor dominates.
        pool.set_base_fee(9);
        assert_eq!(pool.fee_floor(), 9);
        assert_eq!(
            pool.submit(alice.transfer(vec![outpoint(3)], vec![], 8)).unwrap_err(),
            MempoolError::FeeTooLow { offered: 8, floor: 9 }
        );
    }

    #[test]
    fn a_bid_at_the_reported_floor_is_always_admitted() {
        // The floor is an honest quote across every regime: room +
        // base fee, full + eviction floor, full + dominating base fee.
        for base_fee in [0u64, 2, 7, 11] {
            let mut pool = Mempool::with_capacity(2);
            pool.set_base_fee(base_fee);
            let mut alice = builder(b"alice");
            for round in 0..4u8 {
                let floor = pool.fee_floor();
                let tx = alice.transfer(vec![outpoint(round * 4 + 1)], vec![], floor);
                pool.submit(tx).unwrap_or_else(|e| {
                    panic!("base={base_fee} round={round}: floor bid rejected: {e}")
                });
            }
        }
    }

    #[test]
    fn a_bid_below_the_reported_floor_is_always_refused() {
        // The direction of the floor quote that bidders rely on to skip
        // building a doomed bid. Random pools — with room, full, or full of
        // transactions protected against the probe (its own parents), at
        // several base fees — are probed with every transaction shape a
        // bidder submits: a fresh transfer, a call to each deployment seen
        // (pending ones may be the pool-wide eviction candidate), a child
        // of each transaction seen, and a double-spend. Every bid under
        // `fee_floor()` is refused on price and leaves the pool untouched.
        let mut next_tag = 0u32;
        let mut fresh = || {
            next_tag += 1;
            OutPoint::new(TxId(Hash256::digest(&next_tag.to_le_bytes())), 0)
        };
        check("mempool::below_floor_refused", 48, |g| {
            let case = g.case();
            let base_fee = [0, 3, 9][case % 3];
            let mut pool = Mempool::with_capacity(1 + g.below(4) as usize);
            pool.set_base_fee(base_fee);
            let mut alice = builder(b"alice");
            let mut seen: Vec<Transaction> = Vec::new();
            let mut vout = 1u32;
            for _ in 0..g.below(9) {
                let fee = base_fee + g.below(8);
                let tx = match (g.below(4), seen.len()) {
                    (0, _) | (_, 0) => alice.transfer(vec![fresh()], vec![], fee),
                    (1, _) => alice.deploy(vec![fresh()], 1, vec![], b"c".to_vec(), fee),
                    (2, n) => {
                        let target = ContractId(seen[g.below(n as u64) as usize].id().0);
                        alice.call(target, b"redeem".to_vec(), fee)
                    }
                    (_, n) => {
                        vout += 1;
                        let parent = seen[g.below(n as u64) as usize].id();
                        alice.transfer(vec![OutPoint::new(parent, vout)], vec![], fee)
                    }
                };
                // A full pool refuses some of these; they are still
                // potential parents of a probe.
                let _ = pool.submit(tx.clone());
                seen.push(tx);
            }
            let floor = pool.fee_floor();
            let claimed = seen.iter().flat_map(|t| t.consumed_inputs().first().copied()).next();
            for fee in (0..floor).take(24) {
                let mut probes = vec![alice.transfer(vec![fresh()], vec![], fee)];
                for parent in &seen {
                    vout += 1;
                    let input = OutPoint::new(parent.id(), vout);
                    probes.push(alice.transfer(vec![input], vec![], fee));
                    if matches!(parent.kind, crate::transaction::TxKind::Deploy { .. }) {
                        let target = ContractId(parent.id().0);
                        probes.push(alice.call(target, b"redeem".to_vec(), fee));
                    }
                }
                probes.extend(claimed.map(|input| alice.transfer(vec![input], vec![], fee)));
                for probe in probes {
                    let (len, revision) = (pool.len(), pool.revision());
                    let refusal = pool.submit(probe).expect_err("a bid below the floor");
                    assert!(
                        matches!(refusal, MempoolError::FeeTooLow { .. } | MempoolError::Full),
                        "case {case}: fee {fee} < floor {floor} refused with {refusal:?}"
                    );
                    assert_eq!((pool.len(), pool.revision()), (len, revision), "case {case}");
                }
            }
        });

        // The pinned instance of the caveat: the cheapest pending
        // transaction is the deployment the probe calls, so the quote is
        // one above it, yet the call's own price is one above the next
        // victim. Below the quote is refused; at it, still refused.
        let mut alice = builder(b"alice");
        let mut pool = Mempool::with_capacity(2);
        let deploy = alice.deploy(vec![outpoint(1)], 1, vec![], b"c".to_vec(), 1);
        pool.submit(deploy.clone()).unwrap();
        pool.submit(alice.transfer(vec![outpoint(2)], vec![], 5)).unwrap();
        assert_eq!(pool.fee_floor(), 2);
        for fee in [1, 2] {
            let call = alice.call(ContractId(deploy.id().0), b"redeem".to_vec(), fee);
            assert_eq!(
                pool.submit(call).unwrap_err(),
                MempoolError::FeeTooLow { offered: fee, floor: 6 }
            );
        }

        // A pool with no slot at all quotes `Amount::MAX` and is `Full`.
        let mut pool = Mempool::with_capacity(0);
        assert_eq!(pool.fee_floor(), Amount::MAX);
        let tx = alice.transfer(vec![outpoint(3)], vec![], 1_000);
        assert_eq!(pool.submit(tx).unwrap_err(), MempoolError::Full);
    }

    #[test]
    fn replacement_must_also_clear_the_base_fee() {
        let mut pool = Mempool::new();
        let mut alice = builder(b"alice");
        let original = alice.transfer(vec![outpoint(1)], vec![], 5);
        pool.submit(original.clone()).unwrap();
        // The base fee rises past the original's fee; a re-bid that beats
        // the original but not the base fee is still unmineable.
        pool.set_base_fee(8);
        let weak = alice.transfer(vec![outpoint(1)], vec![], 6);
        assert_eq!(
            pool.replace(&original.id(), weak).unwrap_err(),
            MempoolError::FeeTooLow { offered: 6, floor: 8 }
        );
        let strong = alice.transfer(vec![outpoint(1)], vec![], 8);
        pool.replace(&original.id(), strong.clone()).unwrap();
        assert!(pool.contains(&strong.id()));
    }

    // ------------------------------------------------------------------
    // Admission order: price gates first, signature last
    // ------------------------------------------------------------------

    /// A transfer whose signature does not match it: signed at another fee,
    /// then re-priced to `fee` in a cold copy (the builder memoized the
    /// original's digest).
    fn badly_signed(b: &mut TxBuilder, input: OutPoint, fee: Amount) -> Transaction {
        let mut tx = b.transfer(vec![input], vec![], fee + 1).clone();
        tx.fee = fee;
        tx
    }

    #[test]
    fn a_bad_signature_is_refused_before_anything_is_displaced() {
        // `invalid_signature_rejected` covers a pool with room; here the
        // forgery passes every other gate on the two paths that displace
        // a pending transaction.
        let mut alice = builder(b"alice");

        // A full pool the forgery outbids: nothing is evicted for it.
        let mut pool = Mempool::with_capacity(1);
        let pending = alice.transfer(vec![outpoint(2)], vec![], 2);
        pool.submit(pending.clone()).unwrap();
        let forged = badly_signed(&mut alice, outpoint(3), 9);
        let id = forged.id();
        assert_eq!(
            pool.submit_with_evictions(forged).unwrap_err(),
            MempoolError::InvalidSignature(id)
        );
        assert!(pool.contains(&pending.id()), "the eviction candidate is still pending");
        assert_eq!(pool.len(), 1);

        // Replace-by-fee: the original is not removed for it.
        let mut pool = Mempool::new();
        let original = alice.transfer(vec![outpoint(4)], vec![], 2);
        pool.submit(original.clone()).unwrap();
        let forged = badly_signed(&mut alice, outpoint(4), 5);
        let id = forged.id();
        assert_eq!(
            pool.replace(&original.id(), forged).unwrap_err(),
            MempoolError::InvalidSignature(id)
        );
        assert!(pool.contains(&original.id()), "the original is still pending");
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn a_badly_signed_bid_refused_on_price_reports_the_price() {
        // Cheap policy checks run before the signature check, so a
        // submission that fails both is refused for its fee.
        let mut alice = builder(b"alice");
        let mut pool = Mempool::with_capacity(1);
        pool.set_base_fee(5);
        assert_eq!(
            pool.submit(badly_signed(&mut alice, outpoint(1), 4)).unwrap_err(),
            MempoolError::FeeTooLow { offered: 4, floor: 5 }
        );

        // Full pool: failing to outbid the eviction candidate is a price
        // refusal too.
        pool.submit(alice.transfer(vec![outpoint(2)], vec![], 7)).unwrap();
        assert_eq!(
            pool.submit(badly_signed(&mut alice, outpoint(3), 6)).unwrap_err(),
            MempoolError::FeeTooLow { offered: 6, floor: 8 }
        );
        assert_eq!(pool.len(), 1);
    }
}
