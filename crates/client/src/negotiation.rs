//! Off-chain negotiation of an AC2T: proposing the graph `D = (V, E)` and
//! collecting every participant's signature until the multisignature
//! `ms(D)` of Equation 1 is complete.
//!
//! The paper treats the construction of `ms(D)` as a given ("all the
//! participants construct the directed graph D at some timestamp t and
//! multisign it"). This module models the message flow an application needs
//! to make that happen: one participant creates a [`SwapProposal`], each
//! participant returns a [`SignatureShare`] (produced by their
//! [`crate::Wallet`]), and the [`Negotiation`] assembles them into a
//! [`SignedSwap`] whose multisignature verifies against every participant's
//! public key — the object the witness contract registration consumes.

use crate::error::ClientError;
use ac3_core::graph::SwapGraph;
use ac3_crypto::{GraphMultisig, PublicKey, Signature};
use serde::{Deserialize, Serialize};

/// A proposed AC2T, circulated to all participants for signing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwapProposal {
    graph: SwapGraph,
}

impl SwapProposal {
    /// Wrap a graph as a proposal.
    pub fn new(graph: SwapGraph) -> Self {
        SwapProposal { graph }
    }

    /// The canonical bytes of `(D, t)` every participant signs.
    pub fn message(&self) -> Vec<u8> {
        self.graph.canonical_bytes()
    }

    /// The public keys expected to sign.
    pub fn expected_signers(&self) -> Vec<PublicKey> {
        self.graph.participant_keys()
    }
}

/// One participant's contribution to `ms(D)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignatureShare {
    /// The signer's public key.
    pub signer: PublicKey,
    /// The signature over the proposal's canonical bytes.
    pub signature: Signature,
}

/// A fully signed AC2T, ready to be registered with a witness network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignedSwap {
    /// The agreed graph.
    pub graph: SwapGraph,
    /// The complete multisignature `ms(D)`.
    pub multisig: GraphMultisig,
}

/// The in-progress collection of signature shares over one proposal.
#[derive(Debug, Clone)]
pub struct Negotiation {
    proposal: SwapProposal,
    multisig: GraphMultisig,
}

impl Negotiation {
    /// Start a negotiation over `graph`.
    pub fn new(graph: SwapGraph) -> Self {
        let multisig = graph.start_multisig();
        Negotiation { proposal: SwapProposal::new(graph), multisig }
    }

    /// The proposal to circulate to participants.
    pub fn proposal(&self) -> &SwapProposal {
        &self.proposal
    }

    /// Record one participant's signature share. Invalid signatures and
    /// signatures from keys outside the participant set are rejected.
    pub fn submit(&mut self, share: SignatureShare) -> Result<(), ClientError> {
        if !self.proposal.expected_signers().contains(&share.signer) {
            return Err(ClientError::Multisig(ac3_crypto::MultisigError::InvalidSignature(
                share.signer,
            )));
        }
        self.multisig.add_signature(share.signer, share.signature)?;
        Ok(())
    }

    /// The participants that have not signed yet.
    pub fn missing_signers(&self) -> Vec<PublicKey> {
        let signed: Vec<PublicKey> = self.multisig.signers().copied().collect();
        self.proposal.expected_signers().into_iter().filter(|pk| !signed.contains(pk)).collect()
    }

    /// Verify the assembled multisignature and produce the [`SignedSwap`].
    pub fn finalize(self) -> Result<SignedSwap, ClientError> {
        self.multisig.verify(&self.proposal.expected_signers())?;
        Ok(SignedSwap { graph: self.proposal.graph, multisig: self.multisig })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wallet::Wallet;
    use ac3_chain::ChainId;
    use ac3_core::graph::SwapEdge;
    use ac3_crypto::MultisigError;

    fn two_party_graph() -> SwapGraph {
        let alice = Wallet::new("alice");
        let bob = Wallet::new("bob");
        SwapGraph::two_party(alice.address(), bob.address(), 50, ChainId(0), 80, ChainId(1), 42)
            .unwrap()
    }

    #[test]
    fn full_negotiation_round_trip() {
        let graph = two_party_graph();
        let alice = Wallet::new("alice");
        let bob = Wallet::new("bob");
        let mut negotiation = Negotiation::new(graph.clone());
        assert!(!negotiation.missing_signers().is_empty());
        assert_eq!(negotiation.missing_signers().len(), 2);

        negotiation.submit(alice.sign_proposal(negotiation.proposal())).unwrap();
        assert_eq!(negotiation.missing_signers().len(), 1);
        negotiation.submit(bob.sign_proposal(negotiation.proposal())).unwrap();
        assert!(negotiation.missing_signers().is_empty());

        let signed = negotiation.finalize().unwrap();
        assert_eq!(signed.graph, graph);
        signed.multisig.verify(&graph.participant_keys()).unwrap();
    }

    #[test]
    fn finalize_without_all_signatures_fails() {
        let graph = two_party_graph();
        let alice = Wallet::new("alice");
        let mut negotiation = Negotiation::new(graph);
        negotiation.submit(alice.sign_proposal(negotiation.proposal())).unwrap();
        let err = negotiation.finalize().unwrap_err();
        assert!(matches!(err, ClientError::Multisig(MultisigError::MissingSigner(_))));
    }

    #[test]
    fn a_stranger_cannot_contribute_a_share() {
        let graph = two_party_graph();
        let mallory = Wallet::from_seed("mallory", b"mallory");
        let mut negotiation = Negotiation::new(graph);
        let share = mallory.sign_proposal(negotiation.proposal());
        let err = negotiation.submit(share).unwrap_err();
        assert!(matches!(err, ClientError::Multisig(MultisigError::InvalidSignature(_))));
    }

    #[test]
    fn a_share_over_a_different_graph_is_rejected() {
        let graph = two_party_graph();
        let alice = Wallet::new("alice");
        let bob = Wallet::new("bob");
        // Bob signs a *different* proposal (different amounts) and replays
        // the share into this negotiation.
        let other = SwapGraph::two_party(
            alice.address(),
            bob.address(),
            999,
            ChainId(0),
            1,
            ChainId(1),
            42,
        )
        .unwrap();
        let foreign_share = bob.sign_proposal(&SwapProposal::new(other));
        let mut negotiation = Negotiation::new(graph);
        let err = negotiation.submit(foreign_share).unwrap_err();
        assert!(matches!(err, ClientError::Multisig(MultisigError::InvalidSignature(_))));
    }

    #[test]
    fn duplicate_shares_are_idempotent() {
        let graph = two_party_graph();
        let alice = Wallet::new("alice");
        let mut negotiation = Negotiation::new(graph);
        let share = alice.sign_proposal(negotiation.proposal());
        negotiation.submit(share.clone()).unwrap();
        negotiation.submit(share).unwrap();
        assert_eq!(negotiation.missing_signers().len(), 1);
    }

    #[test]
    fn multi_party_negotiation_over_a_ring() {
        // Five participants, each signing the same proposal.
        let wallets: Vec<Wallet> = (0..5).map(|i| Wallet::new(&format!("p{i}"))).collect();
        let edges: Vec<SwapEdge> = (0..5)
            .map(|i| SwapEdge {
                from: wallets[i].address(),
                to: wallets[(i + 1) % 5].address(),
                amount: 10,
                chain: ChainId(i as u32),
            })
            .collect();
        let graph = SwapGraph::new(edges, 7).unwrap();
        let mut negotiation = Negotiation::new(graph.clone());
        for w in &wallets {
            negotiation.submit(w.sign_proposal(negotiation.proposal())).unwrap();
        }
        let signed = negotiation.finalize().unwrap();
        assert_eq!(signed.graph.participants().len(), 5);
    }
}
