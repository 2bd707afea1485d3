//! Commitment schemes (Section 3 of the paper).
//!
//! An atomic cross-chain commitment protocol equips every smart contract in
//! an AC2T with two *mutually exclusive* commitment-scheme instances: a
//! redemption instance and a refund instance. A contract's `redeem` function
//! only fires when the redemption secret is presented, `refund` only when the
//! refund secret is presented, and the protocol guarantees that at most one
//! of the two secrets can ever be produced.
//!
//! The paper instantiates the abstraction three ways, all implemented here:
//!
//! * [`Hashlock`] — `h = H(s)`, the classic construction used by Nolan's and
//!   Herlihy's protocols (and by our HTLC baseline contracts);
//! * [`SignatureLock`] — the AC3TW construction: the lock is the pair
//!   `(ms(D), PK_Trent)` and the secret is Trent's signature over
//!   `(ms(D), RD)` or `(ms(D), RF)`;
//! * [`StateLock`] — the AC3WN construction: the lock names the witness
//!   contract and a minimum burial depth `d`; the "secret" is evidence that
//!   the witness contract reached `RDauth` (or `RFauth`) in a block buried
//!   under at least `d` blocks. The evidence itself is chain data, so the
//!   full verification lives in `ac3-contracts::evidence`; this type captures
//!   the lock parameters and the pure state/depth predicate.

use crate::hash::Hash256;
use crate::schnorr::{PublicKey, Signature};
use crate::sha256::Sha256;
use serde::{Deserialize, Serialize};

/// A commitment scheme: a lock that can be opened by exactly one secret.
pub trait CommitmentScheme {
    /// The type of the opening secret.
    type Secret;

    /// Does `secret` open this lock?
    fn verify(&self, secret: &Self::Secret) -> bool;
}

// ---------------------------------------------------------------------------
// Hashlock
// ---------------------------------------------------------------------------

/// A hashlock `h = H(s)`: the lock is the hash, the secret is the preimage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Hashlock {
    /// The published lock value `h`.
    pub lock: Hash256,
}

impl Hashlock {
    /// Create a hashlock from a secret preimage (the swap leader's step 1 in
    /// Nolan's protocol: "Alice creates a secret s and a hashlock h = H(s)").
    pub fn from_secret(secret: &[u8]) -> Self {
        Hashlock { lock: Self::commit(secret) }
    }

    /// Wrap an already-computed lock value.
    pub fn from_lock(lock: Hash256) -> Self {
        Hashlock { lock }
    }

    /// The commitment function `H(s)` (domain separated).
    pub fn commit(secret: &[u8]) -> Hash256 {
        let mut h = Sha256::new();
        h.update(b"ac3wn/hashlock/v1");
        h.update(secret);
        Hash256::from(h.finalize())
    }
}

impl CommitmentScheme for Hashlock {
    type Secret = Vec<u8>;

    fn verify(&self, secret: &Self::Secret) -> bool {
        Self::commit(secret) == self.lock
    }
}

// ---------------------------------------------------------------------------
// SignatureLock (AC3TW)
// ---------------------------------------------------------------------------

/// The decision a trusted-witness signature attests to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WitnessDecision {
    /// The AC2T is committed: all contracts may be redeemed.
    Redeem,
    /// The AC2T is aborted: all contracts may be refunded.
    Refund,
}

impl WitnessDecision {
    /// Canonical single-byte encoding used inside signed messages.
    pub fn tag(&self) -> u8 {
        match self {
            WitnessDecision::Redeem => 0x52, // 'R' for RD
            WitnessDecision::Refund => 0x46, // 'F' for RF
        }
    }
}

/// The AC3TW commitment scheme instance `(ms(D), PK_T)` for a particular
/// decision: the secret is Trent's signature over `(ms(D), decision)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignatureLock {
    /// Digest of the multisigned transaction graph `ms(D)`.
    pub graph_digest: Hash256,
    /// The trusted witness's public key `PK_T`.
    pub witness_key: PublicKey,
    /// Which decision this lock guards (redeem or refund).
    pub decision: WitnessDecision,
}

impl SignatureLock {
    /// Build the lock.
    pub fn new(graph_digest: Hash256, witness_key: PublicKey, decision: WitnessDecision) -> Self {
        SignatureLock { graph_digest, witness_key, decision }
    }

    /// The canonical message Trent signs: `(ms(D), decision)`.
    pub fn signed_message(graph_digest: &Hash256, decision: WitnessDecision) -> Vec<u8> {
        let mut msg = Vec::with_capacity(32 + 16 + 1);
        msg.extend_from_slice(b"ac3wn/ac3tw/decision/v1");
        msg.extend_from_slice(graph_digest.as_bytes());
        msg.push(decision.tag());
        msg
    }
}

impl CommitmentScheme for SignatureLock {
    type Secret = Signature;

    fn verify(&self, secret: &Self::Secret) -> bool {
        let msg = Self::signed_message(&self.graph_digest, self.decision);
        self.witness_key.verifies(&msg, secret)
    }
}

// ---------------------------------------------------------------------------
// StateLock (AC3WN)
// ---------------------------------------------------------------------------

/// The observable state of the witness contract `SC_w` (Algorithm 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WitnessState {
    /// Published: the AC2T graph is registered, no decision yet.
    Published,
    /// Redeem authorised — the commit decision.
    RedeemAuthorized,
    /// Refund authorised — the abort decision.
    RefundAuthorized,
}

/// The AC3WN commitment scheme instance: a reference to the witness contract
/// plus the minimum burial depth `d` at which its state may be trusted
/// (Algorithm 4, `this.rd = this.rf = (SC_w, d)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StateLock {
    /// Identifier of the witness chain the contract lives on.
    pub witness_chain: u32,
    /// Identifier of the witness contract `SC_w` on that chain.
    pub witness_contract: Hash256,
    /// The state that opens this lock (`RDauth` for redeem, `RFauth` for
    /// refund).
    pub required_state: WitnessState,
    /// Minimum number of blocks the state-changing block must be buried
    /// under before it is accepted as evidence (fork safety, Section 6.3).
    pub min_depth: u64,
}

/// A claim about the witness contract extracted from submitted evidence;
/// the full chain-level validation of the claim lives in `ac3-contracts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObservedWitnessState {
    /// The state the evidence shows the witness contract to be in.
    pub state: WitnessState,
    /// How many blocks bury the block containing the state change.
    pub depth: u64,
}

impl StateLock {
    /// Build a state lock.
    pub fn new(
        witness_chain: u32,
        witness_contract: Hash256,
        required_state: WitnessState,
        min_depth: u64,
    ) -> Self {
        StateLock { witness_chain, witness_contract, required_state, min_depth }
    }
}

impl CommitmentScheme for StateLock {
    type Secret = ObservedWitnessState;

    fn verify(&self, secret: &Self::Secret) -> bool {
        secret.state == self.required_state && secret.depth >= self.min_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schnorr::KeyPair;
    use ac3_seeded::check;

    #[test]
    fn hashlock_opens_with_correct_secret_only() {
        let lock = Hashlock::from_secret(b"alice-secret");
        assert!(lock.verify(&b"alice-secret".to_vec()));
        assert!(!lock.verify(&b"bob-guess".to_vec()));
    }

    #[test]
    fn hashlock_from_lock_roundtrip() {
        let lock = Hashlock::from_secret(b"s");
        let copy = Hashlock::from_lock(lock.lock);
        assert!(copy.verify(&b"s".to_vec()));
    }

    #[test]
    fn signature_lock_accepts_trent_only() {
        let trent = KeyPair::from_seed(b"trent");
        let mallory = KeyPair::from_seed(b"mallory");
        let graph = Hash256::digest(b"ms(D)");

        let rd_lock = SignatureLock::new(graph, trent.public(), WitnessDecision::Redeem);
        let msg = SignatureLock::signed_message(&graph, WitnessDecision::Redeem);
        assert!(rd_lock.verify(&trent.sign(&msg)));
        assert!(!rd_lock.verify(&mallory.sign(&msg)));
    }

    #[test]
    fn signature_lock_decisions_are_mutually_exclusive() {
        let trent = KeyPair::from_seed(b"trent");
        let graph = Hash256::digest(b"ms(D)");
        let rd_lock = SignatureLock::new(graph, trent.public(), WitnessDecision::Redeem);
        let rf_lock = SignatureLock::new(graph, trent.public(), WitnessDecision::Refund);

        let rd_sig = trent.sign(&SignatureLock::signed_message(&graph, WitnessDecision::Redeem));
        let rf_sig = trent.sign(&SignatureLock::signed_message(&graph, WitnessDecision::Refund));

        assert!(rd_lock.verify(&rd_sig));
        assert!(!rd_lock.verify(&rf_sig));
        assert!(rf_lock.verify(&rf_sig));
        assert!(!rf_lock.verify(&rd_sig));
    }

    #[test]
    fn signature_lock_is_graph_specific() {
        let trent = KeyPair::from_seed(b"trent");
        let g1 = Hash256::digest(b"graph-1");
        let g2 = Hash256::digest(b"graph-2");
        let lock = SignatureLock::new(g1, trent.public(), WitnessDecision::Redeem);
        let sig_for_other =
            trent.sign(&SignatureLock::signed_message(&g2, WitnessDecision::Redeem));
        assert!(!lock.verify(&sig_for_other));
    }

    #[test]
    fn state_lock_requires_state_and_depth() {
        let lock = StateLock::new(0, Hash256::digest(b"scw"), WitnessState::RedeemAuthorized, 6);
        let good = ObservedWitnessState { state: WitnessState::RedeemAuthorized, depth: 6 };
        let shallow = ObservedWitnessState { state: WitnessState::RedeemAuthorized, depth: 5 };
        let wrong_state = ObservedWitnessState { state: WitnessState::RefundAuthorized, depth: 10 };
        assert!(lock.verify(&good));
        assert!(!lock.verify(&shallow));
        assert!(!lock.verify(&wrong_state));
    }

    #[test]
    fn witness_decision_tags_differ() {
        assert_ne!(WitnessDecision::Redeem.tag(), WitnessDecision::Refund.tag());
    }

    #[test]
    fn prop_hashlock_rejects_non_preimages() {
        check("ac3_crypto::commitment::tests::prop_hashlock_rejects_non_preimages", 96, |g| {
            let secret: Vec<u8> = (0..g.below(64)).map(|_| g.next_u64() as u8).collect();
            let other: Vec<u8> = (0..g.below(64)).map(|_| g.next_u64() as u8).collect();
            let lock = Hashlock::from_secret(&secret);
            assert!(lock.verify(&secret));
            if other != secret {
                assert!(!lock.verify(&other));
            }
        });
    }

    #[test]
    fn prop_state_lock_depth_monotone() {
        check("ac3_crypto::commitment::tests::prop_state_lock_depth_monotone", 96, |g| {
            let (min_depth, depth) = (g.below(100), g.below(200));
            let lock = StateLock::new(0, Hash256::ZERO, WitnessState::RedeemAuthorized, min_depth);
            let obs = ObservedWitnessState { state: WitnessState::RedeemAuthorized, depth };
            assert_eq!(lock.verify(&obs), depth >= min_depth);
        });
    }
}
