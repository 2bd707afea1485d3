//! The transaction model (Section 2.3 of the paper).
//!
//! A transaction is "a digital signature that transfers the ownership of
//! assets from one identity to another". We implement the UTXO model the
//! paper illustrates in Figures 2 and 3 (merge and split transactions) plus
//! the two smart-contract message kinds the paper needs: contract deployment
//! (which may lock assets, `msg.value`) and contract function calls.

use crate::types::{Address, Amount, OutPoint, TxId};
use ac3_crypto::{merkle, Hash256, KeyPair, Signature};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// A transaction output: an asset of some value owned by an identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxOutput {
    /// The identity that owns the new asset.
    pub owner: Address,
    /// The asset value.
    pub value: Amount,
}

impl TxOutput {
    /// Construct an output.
    pub fn new(owner: Address, value: Amount) -> Self {
        TxOutput { owner, value }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.owner.to_bytes());
        out.extend_from_slice(&self.value.to_be_bytes());
    }
}

/// The three kinds of state transition end-users can submit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxKind {
    /// Transfer / merge / split assets (Figures 2 and 3).
    Transfer {
        /// The consumed outputs; all must be owned by the signer.
        inputs: Vec<OutPoint>,
        /// The newly created outputs.
        outputs: Vec<TxOutput>,
    },
    /// Deploy a smart contract, optionally locking assets in it
    /// (`msg.value`, Section 2.3).
    Deploy {
        /// Outputs consumed to fund the locked value plus the fee.
        inputs: Vec<OutPoint>,
        /// The asset value locked in the contract.
        locked_value: Amount,
        /// Change returned to the deployer (inputs - locked_value - fee).
        change: Vec<TxOutput>,
        /// Opaque constructor payload, decoded by the chain's contract VM.
        payload: Vec<u8>,
    },
    /// Invoke a function on a deployed smart contract.
    Call {
        /// The contract being called.
        contract: crate::types::ContractId,
        /// Opaque call payload, decoded by the chain's contract VM.
        payload: Vec<u8>,
    },
    /// A mining reward output created by the miner of a block. Carries no
    /// inputs and no signature; at most one per block.
    Coinbase {
        /// The reward outputs.
        outputs: Vec<TxOutput>,
    },
}

/// Lazily computed identity of a transaction: the digest of its body (the
/// one pass over the full encoding), the id and Merkle leaf hash of its
/// short canonical bytes, and the verdict of its signature check. All four
/// are derived purely from the transaction's other fields, so the cache is
/// invisible to equality, ordering and serialization, and it is
/// deliberately *not* carried across `clone()` — a clone may be mutated
/// before use (tests do this to model tampering), and a stale cached digest,
/// id or verdict would silently mask the mutation.
///
/// Treat a transaction as immutable once any of these has been observed:
/// mutating fields afterwards yields stale cached values. [`TxBuilder`]
/// observes the digest when it signs, so a built transaction is immutable
/// from the start; debug builds check at mempool admission that the memoized
/// digest still matches the fields.
#[derive(Debug, Default)]
pub struct TxIdentityCache {
    digest: OnceLock<Hash256>,
    id: OnceLock<TxId>,
    leaf: OnceLock<Hash256>,
    signature_valid: OnceLock<bool>,
}

impl Clone for TxIdentityCache {
    fn clone(&self) -> Self {
        TxIdentityCache::default()
    }
}

impl PartialEq for TxIdentityCache {
    fn eq(&self, _other: &Self) -> bool {
        true // derived data participates in no comparison
    }
}

impl Eq for TxIdentityCache {}

/// A signed transaction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    /// Who authored (and signed) the transaction; `None` only for coinbase.
    pub sender: Option<Address>,
    /// The state transition.
    pub kind: TxKind,
    /// The fee paid to the miner. The paper's cost analysis (Section 6.2)
    /// distinguishes deployment fees `fd` from function-call fees `ffc`.
    pub fee: Amount,
    /// A nonce so that otherwise-identical transactions get distinct ids.
    pub nonce: u64,
    /// The sender's signature over the body digest
    /// ([`Transaction::digest`]); `None` only for coinbase transactions.
    pub signature: Option<Signature>,
    /// Memoized body digest, id, leaf hash and signature verdict (see
    /// [`TxIdentityCache`]).
    #[serde(skip)]
    pub cache: TxIdentityCache,
}

impl Transaction {
    /// Canonical encoding of everything except the signature: the body,
    /// hashed once into [`Transaction::digest`].
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(b"ac3wn/tx/v1");
        match &self.sender {
            Some(addr) => {
                out.push(1);
                out.extend_from_slice(&addr.to_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&self.fee.to_be_bytes());
        out.extend_from_slice(&self.nonce.to_be_bytes());
        match &self.kind {
            TxKind::Transfer { inputs, outputs } => {
                out.push(0x01);
                out.extend_from_slice(&(inputs.len() as u32).to_be_bytes());
                for i in inputs {
                    out.extend_from_slice(&i.to_bytes());
                }
                out.extend_from_slice(&(outputs.len() as u32).to_be_bytes());
                for o in outputs {
                    o.encode(&mut out);
                }
            }
            TxKind::Deploy { inputs, locked_value, change, payload } => {
                out.push(0x02);
                out.extend_from_slice(&(inputs.len() as u32).to_be_bytes());
                for i in inputs {
                    out.extend_from_slice(&i.to_bytes());
                }
                out.extend_from_slice(&locked_value.to_be_bytes());
                out.extend_from_slice(&(change.len() as u32).to_be_bytes());
                for o in change {
                    o.encode(&mut out);
                }
                out.extend_from_slice(&(payload.len() as u64).to_be_bytes());
                out.extend_from_slice(payload);
            }
            TxKind::Call { contract, payload } => {
                out.push(0x03);
                out.extend_from_slice(contract.0.as_bytes());
                out.extend_from_slice(&(payload.len() as u64).to_be_bytes());
                out.extend_from_slice(payload);
            }
            TxKind::Coinbase { outputs } => {
                out.push(0x04);
                out.extend_from_slice(&(outputs.len() as u32).to_be_bytes());
                for o in outputs {
                    o.encode(&mut out);
                }
            }
        }
        out
    }

    /// SHA-256 of [`Transaction::signing_bytes`], computed once per
    /// transaction instance. It is the message the sender signs and the
    /// prefix of the canonical bytes, so a transaction's body, however large
    /// its payload, is hashed once per instance and every other identity
    /// value hashes at most 49 bytes.
    pub fn digest(&self) -> Hash256 {
        *self.cache.digest.get_or_init(|| Hash256::digest(&self.signing_bytes()))
    }

    /// Canonical encoding: the body digest, then a signature flag and the
    /// signature (49 bytes signed, 33 unsigned). Hashed to obtain the
    /// transaction id and used as the Merkle leaf.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(49);
        out.extend_from_slice(self.digest().as_bytes());
        match &self.signature {
            Some(sig) => {
                out.push(1);
                out.extend_from_slice(&sig.to_bytes());
            }
            None => out.push(0),
        }
        out
    }

    /// The transaction id, computed once per transaction instance. UTXO
    /// validation, mempool admission, Merkle-root construction and inclusion
    /// proofs all ask for the id repeatedly.
    pub fn id(&self) -> TxId {
        *self.cache.id.get_or_init(|| TxId(Hash256::digest(&self.canonical_bytes())))
    }

    /// The Merkle leaf hash of the canonical encoding, computed once per
    /// transaction instance. Block roots, root validation and inclusion
    /// proofs all build from it.
    pub fn leaf_hash(&self) -> Hash256 {
        *self.cache.leaf.get_or_init(|| merkle::leaf_hash(&self.canonical_bytes()))
    }

    /// Whether the embedded signature is valid for the sender over the body
    /// digest. Coinbase transactions are vacuously authorised. The verdict
    /// is computed once per transaction instance: mempool admission
    /// verifies the pool's instance, and mining that instance reuses the
    /// verdict (a per-instance signature cache).
    pub fn signature_valid(&self) -> bool {
        *self.cache.signature_valid.get_or_init(|| match (&self.sender, &self.signature) {
            (None, None) => matches!(self.kind, TxKind::Coinbase { .. }),
            (Some(sender), Some(sig)) => {
                sender.public_key().verifies(self.digest().as_bytes(), sig)
            }
            _ => false,
        })
    }

    /// A copy that keeps this instance's memoized values, unlike `clone()`.
    /// Only the mining path uses it, to move transactions the mempool owns
    /// (and never mutates) into a block without hashing them again.
    pub(crate) fn clone_warm(&self) -> Transaction {
        let cache = &self.cache;
        Transaction {
            cache: TxIdentityCache {
                digest: cache.digest.clone(),
                id: cache.id.clone(),
                leaf: cache.leaf.clone(),
                signature_valid: cache.signature_valid.clone(),
            },
            ..self.clone()
        }
    }

    /// The outputs this transaction creates directly (excluding contract
    /// payouts, which are materialised by the executing chain).
    pub fn created_outputs(&self) -> &[TxOutput] {
        match &self.kind {
            TxKind::Transfer { outputs, .. } => outputs,
            TxKind::Deploy { change, .. } => change,
            TxKind::Coinbase { outputs } => outputs,
            TxKind::Call { .. } => &[],
        }
    }

    /// The outpoints this transaction consumes.
    pub fn consumed_inputs(&self) -> &[OutPoint] {
        match &self.kind {
            TxKind::Transfer { inputs, .. } => inputs,
            TxKind::Deploy { inputs, .. } => inputs,
            TxKind::Call { .. } | TxKind::Coinbase { .. } => &[],
        }
    }

    /// Is this a coinbase transaction?
    pub fn is_coinbase(&self) -> bool {
        matches!(self.kind, TxKind::Coinbase { .. })
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &self.kind {
            TxKind::Transfer { .. } => "transfer",
            TxKind::Deploy { .. } => "deploy",
            TxKind::Call { .. } => "call",
            TxKind::Coinbase { .. } => "coinbase",
        };
        write!(f, "{} {}", kind, self.id())
    }
}

/// Builder for signed transactions; keeps the signing step in one place so
/// simulation actors cannot forget to sign.
#[derive(Debug, Clone)]
pub struct TxBuilder {
    keypair: KeyPair,
    nonce: u64,
}

impl TxBuilder {
    /// Create a builder for the given signer. `nonce_seed` lets callers make
    /// ids unique across otherwise identical transactions.
    pub fn new(keypair: KeyPair, nonce_seed: u64) -> Self {
        TxBuilder { keypair, nonce: nonce_seed }
    }

    /// The signer's chain address.
    pub fn address(&self) -> Address {
        Address::from(self.keypair.public())
    }

    fn next_nonce(&mut self) -> u64 {
        let n = self.nonce;
        self.nonce = self.nonce.wrapping_add(1);
        n
    }

    /// Consume the nonce the next build would take, building and signing
    /// nothing: a bidder that knows the pool refuses a transaction skips
    /// it, and every later id stays where the refused build would have
    /// left it.
    pub fn skip(&mut self) {
        self.next_nonce();
    }

    fn finish(&mut self, kind: TxKind, fee: Amount) -> Transaction {
        let mut tx = Transaction {
            sender: Some(self.address()),
            kind,
            fee,
            nonce: self.next_nonce(),
            signature: None,
            cache: TxIdentityCache::default(),
        };
        // Sign the memoized digest, so the body is hashed once per built
        // transaction. Setting the signature afterwards leaves the memo
        // fresh: the digest excludes it. The transaction is treated as
        // immutable from here on; a test that tampers mutates a `clone()`.
        tx.signature = Some(self.keypair.sign(tx.digest().as_bytes()));
        tx
    }

    /// Build a transfer (merge/split) transaction.
    pub fn transfer(
        &mut self,
        inputs: Vec<OutPoint>,
        outputs: Vec<TxOutput>,
        fee: Amount,
    ) -> Transaction {
        self.finish(TxKind::Transfer { inputs, outputs }, fee)
    }

    /// Build a contract deployment locking `locked_value` in the contract.
    pub fn deploy(
        &mut self,
        inputs: Vec<OutPoint>,
        locked_value: Amount,
        change: Vec<TxOutput>,
        payload: Vec<u8>,
        fee: Amount,
    ) -> Transaction {
        self.finish(TxKind::Deploy { inputs, locked_value, change, payload }, fee)
    }

    /// Build a contract function call.
    pub fn call(
        &mut self,
        contract: crate::types::ContractId,
        payload: Vec<u8>,
        fee: Amount,
    ) -> Transaction {
        self.finish(TxKind::Call { contract, payload }, fee)
    }
}

/// Construct the (unsigned) coinbase transaction for a block.
pub fn coinbase(recipient: Address, reward: Amount, height: u64) -> Transaction {
    Transaction {
        sender: None,
        kind: TxKind::Coinbase { outputs: vec![TxOutput::new(recipient, reward)] },
        fee: 0,
        // Use the height as the nonce so every block's coinbase id is unique.
        nonce: height,
        signature: None,
        cache: TxIdentityCache::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::types::ContractId;
    use ac3_crypto::{KeyPair, MerkleTree};

    fn builder(seed: &[u8]) -> TxBuilder {
        TxBuilder::new(KeyPair::from_seed(seed), 0)
    }

    fn dummy_outpoint(tag: u8) -> OutPoint {
        OutPoint::new(TxId(Hash256::digest(&[tag])), 0)
    }

    #[test]
    fn signed_transfer_verifies() {
        let mut alice = builder(b"alice");
        let bob = builder(b"bob").address();
        let tx = alice.transfer(vec![dummy_outpoint(1)], vec![TxOutput::new(bob, 50)], 1);
        assert!(tx.signature_valid());
        assert_eq!(tx.consumed_inputs().len(), 1);
        assert_eq!(tx.created_outputs().len(), 1);
    }

    #[test]
    fn tampering_with_outputs_invalidates_signature() {
        let mut alice = builder(b"alice");
        let bob = builder(b"bob").address();
        let eve = builder(b"eve").address();
        // Tamper a cold copy: the builder memoized the original's digest.
        let mut tx =
            alice.transfer(vec![dummy_outpoint(1)], vec![TxOutput::new(bob, 50)], 1).clone();
        if let TxKind::Transfer { outputs, .. } = &mut tx.kind {
            outputs[0] = TxOutput::new(eve, 50);
        }
        assert!(!tx.signature_valid());
    }

    #[test]
    fn unsigned_non_coinbase_is_invalid() {
        let mut alice = builder(b"alice");
        let mut tx = alice.transfer(vec![dummy_outpoint(1)], vec![], 0);
        tx.signature = None;
        assert!(!tx.signature_valid());
    }

    #[test]
    fn coinbase_is_valid_without_signature() {
        let miner = builder(b"miner").address();
        let cb = coinbase(miner, 100, 7);
        assert!(cb.signature_valid());
        assert!(cb.is_coinbase());
        assert!(cb.consumed_inputs().is_empty());
    }

    #[test]
    fn coinbase_ids_differ_by_height() {
        let miner = builder(b"miner").address();
        assert_ne!(coinbase(miner, 100, 1).id(), coinbase(miner, 100, 2).id());
    }

    #[test]
    fn nonce_makes_identical_payments_distinct() {
        let mut alice = builder(b"alice");
        let bob = builder(b"bob").address();
        let t1 = alice.transfer(vec![dummy_outpoint(1)], vec![TxOutput::new(bob, 5)], 1);
        let t2 = alice.transfer(vec![dummy_outpoint(1)], vec![TxOutput::new(bob, 5)], 1);
        assert_ne!(t1.id(), t2.id());
    }

    #[test]
    fn deploy_and_call_round_trip() {
        let mut alice = builder(b"alice");
        let deploy = alice.deploy(vec![dummy_outpoint(2)], 75, vec![], b"ctor".to_vec(), 2);
        assert!(deploy.signature_valid());
        match &deploy.kind {
            TxKind::Deploy { locked_value, payload, .. } => {
                assert_eq!(*locked_value, 75);
                assert_eq!(payload, b"ctor");
            }
            _ => panic!("expected deploy"),
        }

        let call = alice.call(ContractId(Hash256::digest(b"sc")), b"redeem".to_vec(), 1);
        assert!(call.signature_valid());
        assert!(call.consumed_inputs().is_empty());
    }

    #[test]
    fn canonical_bytes_include_signature() {
        let mut alice = builder(b"alice");
        let tx = alice.transfer(vec![dummy_outpoint(1)], vec![], 0);
        let mut unsigned = tx.clone();
        unsigned.signature = None;
        assert_ne!(tx.canonical_bytes(), unsigned.canonical_bytes());
        assert_ne!(tx.id(), unsigned.id());
    }

    #[test]
    fn display_names_kind() {
        let mut alice = builder(b"alice");
        let tx = alice.transfer(vec![], vec![], 0);
        assert!(tx.to_string().starts_with("transfer"));
    }

    #[test]
    fn id_is_memoized_and_stable() {
        let mut alice = builder(b"alice");
        let tx = alice.transfer(vec![dummy_outpoint(1)], vec![], 1);
        assert_eq!(
            tx.cache.digest.get(),
            Some(&Hash256::digest(&tx.signing_bytes())),
            "the builder memoizes the digest it signs"
        );
        assert!(tx.cache.id.get().is_none());
        let first = tx.id();
        assert_eq!(tx.id(), first);
        assert_eq!(first, TxId(Hash256::digest(&tx.canonical_bytes())));
    }

    #[test]
    fn canonical_bytes_are_the_digest_and_the_signature() {
        let mut alice = builder(b"alice");
        let tx = alice.deploy(vec![dummy_outpoint(2)], 75, vec![], vec![7; 4096], 2);
        let bytes = tx.canonical_bytes();
        assert_eq!(bytes.len(), 49);
        assert_eq!(&bytes[..32], tx.digest().as_bytes());
        assert_eq!(bytes[32], 1);
        assert_eq!(bytes[33..], tx.signature.unwrap().to_bytes());
        // The signature is over the digest, not over the body.
        assert!(alice
            .address()
            .public_key()
            .verifies(tx.digest().as_bytes(), &tx.signature.unwrap()));
        assert_eq!(coinbase(alice.address(), 1, 0).canonical_bytes().len(), 33);
    }

    #[test]
    fn clone_does_not_inherit_stale_cache() {
        // The root of a one-transaction block is that transaction's leaf.
        let leaf_of = |tx: &Transaction| Block::compute_tx_root(std::slice::from_ref(tx));
        let mut alice = builder(b"alice");
        let tx = alice.transfer(vec![dummy_outpoint(1)], vec![], 1);
        // Warm every memoized value on the original.
        let (id, leaf) = (tx.id(), leaf_of(&tx));
        assert!(tx.signature_valid());
        let mut tampered = tx.clone();
        tampered.fee = 99;
        // The clone must recompute from its own (mutated) fields.
        assert_ne!(tampered.id(), id);
        assert_ne!(tampered.canonical_bytes(), tx.canonical_bytes());
        assert_ne!(leaf_of(&tampered), leaf);
        assert_eq!(
            leaf_of(&tampered),
            MerkleTree::from_leaves([tampered.canonical_bytes()]).root(),
            "the clone's leaf hashes its own bytes"
        );
        assert!(!tampered.signature_valid(), "the clone re-verifies its own fields");
        // The original keeps reporting its own values.
        assert_eq!((tx.id(), leaf_of(&tx)), (id, leaf));
        assert!(tx.signature_valid());
    }

    #[test]
    fn warm_copy_keeps_the_memo_and_clone_drops_it() {
        let mut alice = builder(b"alice");
        let tx = alice.transfer(vec![dummy_outpoint(1)], vec![], 1);
        let (id, leaf) = (tx.id(), tx.leaf_hash());
        assert!(tx.signature_valid());
        assert_eq!(leaf, merkle::leaf_hash(&tx.canonical_bytes()));

        let warm = tx.clone_warm();
        assert_eq!(warm, tx);
        assert_eq!(warm.cache.digest.get(), Some(&tx.digest()));
        assert_eq!(warm.cache.id.get(), Some(&id));
        assert_eq!(warm.cache.leaf.get(), Some(&leaf));
        assert_eq!(warm.cache.signature_valid.get(), Some(&true));

        let cold = tx.clone();
        assert!(cold.cache.digest.get().is_none());
        assert!(cold.cache.id.get().is_none());
        assert!(cold.cache.leaf.get().is_none());
        assert!(cold.cache.signature_valid.get().is_none());
    }

    #[test]
    fn cache_is_invisible_to_equality() {
        let mut alice = builder(b"alice");
        let tx = alice.transfer(vec![dummy_outpoint(1)], vec![], 1);
        let fresh = tx.clone(); // clone has a cold cache
        let _ = tx.id(); // warm only the original
        assert_eq!(tx, fresh);
    }
}
