//! # ac3-crypto
//!
//! Cryptographic substrate for the AC3WN reproduction ("Atomic Commitment
//! Across Blockchains", Zakhary et al., VLDB 2020).
//!
//! The protocols in the paper rely on a small set of cryptographic
//! primitives:
//!
//! * a one-way hash function, used for hashlocks (`h = H(s)`), block links,
//!   Merkle roots and transaction/contract identifiers — implemented from
//!   scratch as [`mod@sha256`];
//! * digital signatures, used to authorise asset transfers, to build the
//!   graph multisignature `ms(D)` of Equation 1 and to implement the trusted
//!   witness secrets of the AC3TW protocol — implemented as Schnorr
//!   signatures over a small prime-order group in [`schnorr`];
//! * Merkle trees and inclusion proofs, the substrate for the light-client /
//!   SPV evidence of Section 4.3 — implemented in [`merkle`];
//! * commitment schemes (Section 3): the hashlock, the signature lock used by
//!   AC3TW and the witness-contract state lock used by AC3WN — implemented in
//!   [`commitment`];
//! * the order-independent graph multisignature `ms(D)` — implemented in
//!   [`multisig`].
//!
//! ## Security disclaimer
//!
//! The signature scheme uses a 61-bit prime-order group so that all modular
//! arithmetic fits in `u128` without an external big-integer dependency. It
//! is structurally a real Schnorr scheme (discrete-log based, deterministic
//! nonces, Fiat–Shamir challenge) but it is **not** cryptographically strong.
//! The protocols reproduced here only depend on the *semantics* of
//! `verify(pk, m, sign(sk, m)) == true` and on tampered messages failing
//! verification, which this scheme provides for honest-but-curious
//! simulation purposes. See DESIGN.md §1 for the substitution rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commitment;
pub mod hash;
pub mod hex;
pub mod merkle;
pub mod multisig;
pub mod schnorr;
pub mod sha256;

pub use commitment::{
    CommitmentScheme, Hashlock, ObservedWitnessState, SignatureLock, StateLock, WitnessDecision,
    WitnessState,
};
pub use hash::Hash256;
pub use merkle::{MerkleProof, MerkleTree};
pub use multisig::{GraphMultisig, MultisigError};
pub use schnorr::{KeyPair, PublicKey, SecretKey, Signature, SignatureError};
pub use sha256::{sha256, Sha256};

/// Convenience function: hash arbitrary bytes and return a [`Hash256`].
pub fn hash_bytes(data: &[u8]) -> Hash256 {
    Hash256::from(sha256(data))
}

/// Hash the concatenation of two hashes (used for Merkle interior nodes and
/// block links).
pub fn hash_pair(left: &Hash256, right: &Hash256) -> Hash256 {
    let mut h = Sha256::new();
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    Hash256::from(h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_bytes_matches_sha256() {
        assert_eq!(hash_bytes(b"abc").as_bytes(), &sha256(b"abc"));
    }

    #[test]
    fn hash_pair_is_order_sensitive() {
        let a = hash_bytes(b"a");
        let b = hash_bytes(b"b");
        assert_ne!(hash_pair(&a, &b), hash_pair(&b, &a));
    }
}
