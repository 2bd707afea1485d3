//! The graph multisignature `ms(D)` (Equation 1 of the paper).
//!
//! Every participant of an AC2T signs the canonical encoding of the pair
//! `(D, t)` — the transaction graph and an agreement timestamp. The paper
//! notes that "the order of participant signatures in ms(D) is not
//! important": any complete set of signatures indicates unanimous agreement
//! on the graph. We therefore model `ms(D)` as an unordered map from public
//! key to signature over the same message, and verification requires one
//! valid signature from *every* expected participant.

use crate::hash::Hash256;
use crate::schnorr::{KeyPair, PublicKey, Signature};
use crate::sha256::Sha256;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Errors produced while assembling or verifying a graph multisignature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultisigError {
    /// A participant attempted to sign twice with conflicting signatures.
    ConflictingSignature(PublicKey),
    /// A presented signature does not verify for the signer's key.
    InvalidSignature(PublicKey),
    /// Verification failed because a required participant has not signed.
    MissingSigner(PublicKey),
    /// Verification was asked for an empty participant set.
    NoParticipants,
}

impl fmt::Display for MultisigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultisigError::ConflictingSignature(pk) => {
                write!(f, "conflicting signature from {pk:?}")
            }
            MultisigError::InvalidSignature(pk) => write!(f, "invalid signature from {pk:?}"),
            MultisigError::MissingSigner(pk) => write!(f, "missing signature from {pk:?}"),
            MultisigError::NoParticipants => write!(f, "no participants"),
        }
    }
}

impl std::error::Error for MultisigError {}

/// An (in-progress or complete) multisignature over a fixed message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphMultisig {
    /// The message every participant signs: the canonical encoding of
    /// `(D, t)` produced by `ac3-core::graph`.
    message: Vec<u8>,
    /// Collected signatures keyed by signer. `BTreeMap` keeps the digest
    /// deterministic regardless of insertion order.
    signatures: BTreeMap<PublicKey, Signature>,
}

impl GraphMultisig {
    /// Start collecting signatures over `message`.
    pub fn new(message: Vec<u8>) -> Self {
        GraphMultisig { message, signatures: BTreeMap::new() }
    }

    /// The signed message.
    pub fn message(&self) -> &[u8] {
        &self.message
    }

    /// Sign with `keypair` and record the signature.
    pub fn sign_with(&mut self, keypair: &KeyPair) -> Result<(), MultisigError> {
        let sig = keypair.sign(&self.message);
        self.add_signature(keypair.public(), sig)
    }

    /// Record an externally produced signature. The signature is checked
    /// immediately so a malformed contribution is rejected at the door.
    pub fn add_signature(
        &mut self,
        signer: PublicKey,
        sig: Signature,
    ) -> Result<(), MultisigError> {
        if !signer.verifies(&self.message, &sig) {
            return Err(MultisigError::InvalidSignature(signer));
        }
        if let Some(existing) = self.signatures.get(&signer) {
            if *existing != sig {
                return Err(MultisigError::ConflictingSignature(signer));
            }
            return Ok(());
        }
        self.signatures.insert(signer, sig);
        Ok(())
    }

    /// The participants that have signed so far.
    pub fn signers(&self) -> impl Iterator<Item = &PublicKey> {
        self.signatures.keys()
    }

    /// Number of collected signatures.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// Whether no signatures have been collected yet.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// Verify that every participant in `expected` has contributed a valid
    /// signature over the message (order-independent, per the paper).
    pub fn verify(&self, expected: &[PublicKey]) -> Result<(), MultisigError> {
        if expected.is_empty() {
            return Err(MultisigError::NoParticipants);
        }
        for pk in expected {
            match self.signatures.get(pk) {
                None => return Err(MultisigError::MissingSigner(*pk)),
                Some(sig) => {
                    if !pk.verifies(&self.message, sig) {
                        return Err(MultisigError::InvalidSignature(*pk));
                    }
                }
            }
        }
        Ok(())
    }

    /// A digest committing to the message and every collected signature.
    /// This is the value registered with the witness (`ms(D)` used as a
    /// key in Trent's key/value store, or stored in `SC_w`).
    pub fn digest(&self) -> Hash256 {
        let mut h = Sha256::new();
        h.update(b"ac3wn/multisig/v1");
        h.update(&(self.message.len() as u64).to_be_bytes());
        h.update(&self.message);
        for (pk, sig) in &self.signatures {
            h.update(&pk.to_bytes());
            h.update(&sig.to_bytes());
        }
        Hash256::from(h.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn keys(n: usize) -> Vec<KeyPair> {
        (0..n).map(|i| KeyPair::from_seed(format!("p{i}").as_bytes())).collect()
    }

    #[test]
    fn complete_multisig_verifies() {
        let parts = keys(3);
        let expected: Vec<PublicKey> = parts.iter().map(|k| k.public()).collect();
        let mut ms = GraphMultisig::new(b"(D, t)".to_vec());
        for p in &parts {
            ms.sign_with(p).unwrap();
        }
        assert!(ms.verify(&expected).is_ok());
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn missing_signer_detected() {
        let parts = keys(3);
        let expected: Vec<PublicKey> = parts.iter().map(|k| k.public()).collect();
        let mut ms = GraphMultisig::new(b"(D, t)".to_vec());
        ms.sign_with(&parts[0]).unwrap();
        ms.sign_with(&parts[2]).unwrap();
        assert_eq!(
            ms.verify(&expected).unwrap_err(),
            MultisigError::MissingSigner(parts[1].public())
        );
    }

    #[test]
    fn signature_over_wrong_message_rejected() {
        let alice = KeyPair::from_seed(b"alice");
        let mut ms = GraphMultisig::new(b"the real graph".to_vec());
        let sig = alice.sign(b"a different graph");
        assert_eq!(
            ms.add_signature(alice.public(), sig).unwrap_err(),
            MultisigError::InvalidSignature(alice.public())
        );
    }

    #[test]
    fn duplicate_identical_signature_is_idempotent() {
        let alice = KeyPair::from_seed(b"alice");
        let mut ms = GraphMultisig::new(b"(D, t)".to_vec());
        ms.sign_with(&alice).unwrap();
        ms.sign_with(&alice).unwrap();
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn order_independence_of_digest_and_verification() {
        let parts = keys(4);
        let expected: Vec<PublicKey> = parts.iter().map(|k| k.public()).collect();

        let mut forward = GraphMultisig::new(b"(D, t)".to_vec());
        for p in &parts {
            forward.sign_with(p).unwrap();
        }
        let mut backward = GraphMultisig::new(b"(D, t)".to_vec());
        for p in parts.iter().rev() {
            backward.sign_with(p).unwrap();
        }
        assert_eq!(forward.digest(), backward.digest());
        assert!(forward.verify(&expected).is_ok());
        assert!(backward.verify(&expected).is_ok());
    }

    #[test]
    fn digest_depends_on_message_and_signers() {
        let parts = keys(2);
        let mut a = GraphMultisig::new(b"graph-A".to_vec());
        let mut b = GraphMultisig::new(b"graph-B".to_vec());
        for p in &parts {
            a.sign_with(p).unwrap();
            b.sign_with(p).unwrap();
        }
        assert_ne!(a.digest(), b.digest());

        let mut partial = GraphMultisig::new(b"graph-A".to_vec());
        partial.sign_with(&parts[0]).unwrap();
        assert_ne!(a.digest(), partial.digest());
    }

    #[test]
    fn empty_participant_set_is_an_error() {
        let ms = GraphMultisig::new(b"(D, t)".to_vec());
        assert_eq!(ms.verify(&[]).unwrap_err(), MultisigError::NoParticipants);
        assert!(ms.is_empty());
    }

    #[test]
    fn extra_signers_do_not_invalidate() {
        // A signature from someone outside the expected set is harmless: the
        // paper only requires that all *participants* agreed.
        let parts = keys(2);
        let outsider = KeyPair::from_seed(b"outsider");
        let expected: Vec<PublicKey> = parts.iter().map(|k| k.public()).collect();
        let mut ms = GraphMultisig::new(b"(D, t)".to_vec());
        for p in &parts {
            ms.sign_with(p).unwrap();
        }
        ms.sign_with(&outsider).unwrap();
        assert!(ms.verify(&expected).is_ok());
    }

    proptest! {
        #[test]
        fn prop_verification_requires_all_participants(n in 1usize..8, missing in 0usize..8) {
            let parts = keys(n);
            let expected: Vec<PublicKey> = parts.iter().map(|k| k.public()).collect();
            let mut ms = GraphMultisig::new(b"(D, t)".to_vec());
            for (i, p) in parts.iter().enumerate() {
                if i != missing % n {
                    ms.sign_with(p).unwrap();
                }
            }
            // With one participant skipped, verification must fail; with all
            // present it must succeed.
            prop_assert!(ms.verify(&expected).is_err());
            ms.sign_with(&parts[missing % n]).unwrap();
            prop_assert!(ms.verify(&expected).is_ok());
        }
    }
}
