//! The AC3TW asset contract (Algorithm 2): redemption and refund are guarded
//! by the *trusted witness's* signatures.
//!
//! Both commitment-scheme instances are the pair `(ms(D), PK_T)`. The
//! redemption secret is Trent's signature over `(ms(D), RD)` and the refund
//! secret is Trent's signature over `(ms(D), RF)`. Trent's key/value store
//! (implemented in `ac3-core::ac3tw`) guarantees that at most one of the two
//! signatures is ever issued, which is what makes the scheme's two instances
//! mutually exclusive.

use crate::swap::SwapCore;
use ac3_chain::{Address, Amount, Payout, VmError};
use ac3_crypto::{CommitmentScheme, Hash256, PublicKey, Signature, SignatureLock, WitnessDecision};
use serde::{Deserialize, Serialize};

/// Constructor payload for a centralized (AC3TW) swap contract.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CentralizedSpec {
    /// The recipient `r`.
    pub recipient: Address,
    /// Digest of the multisigned AC2T graph `ms(D)`.
    pub graph_digest: Hash256,
    /// Trent's public key `PK_T`.
    pub witness_key: PublicKey,
}

/// Function-call payloads accepted by a centralized swap contract.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CentralizedCall {
    /// Redeem with Trent's signature over `(ms(D), RD)`.
    Redeem {
        /// Trent's redemption signature.
        signature: Signature,
    },
    /// Refund with Trent's signature over `(ms(D), RF)`.
    Refund {
        /// Trent's refund signature.
        signature: Signature,
    },
}

/// The on-chain state of a centralized swap contract.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CentralizedState {
    /// Shared template fields.
    pub core: SwapCore,
    /// The redemption commitment scheme instance (Algorithm 2, line 2).
    pub rd: SignatureLock,
    /// The refund commitment scheme instance (Algorithm 2, line 2).
    pub rf: SignatureLock,
}

impl CentralizedState {
    /// Deploy: both instances are `(ms(D), PK_T)`, differing only in the
    /// decision they attest to.
    pub fn publish(sender: Address, amount: Amount, spec: &CentralizedSpec) -> Self {
        CentralizedState {
            core: SwapCore::publish(sender, spec.recipient, amount),
            rd: SignatureLock::new(spec.graph_digest, spec.witness_key, WitnessDecision::Redeem),
            rf: SignatureLock::new(spec.graph_digest, spec.witness_key, WitnessDecision::Refund),
        }
    }

    /// `IsRedeemable` (Algorithm 2, lines 5–7): verify Trent's signature
    /// over `(ms(D), RD)`.
    pub fn is_redeemable(&self, signature: &Signature) -> bool {
        self.rd.verify(signature)
    }

    /// `IsRefundable` (Algorithm 2, lines 8–10): verify Trent's signature
    /// over `(ms(D), RF)`.
    pub fn is_refundable(&self, signature: &Signature) -> bool {
        self.rf.verify(signature)
    }

    /// Execute a redeem call. Anyone may submit it (the paper's AC3TW does
    /// not restrict who presents the witness signature), but the payout
    /// always goes to the recipient recorded at deployment.
    pub fn redeem(&mut self, signature: &Signature) -> Result<Payout, VmError> {
        let ok = self.is_redeemable(signature);
        self.core.redeem(ok)
    }

    /// Execute a refund call; the payout goes back to the sender.
    pub fn refund(&mut self, signature: &Signature) -> Result<Payout, VmError> {
        let ok = self.is_refundable(signature);
        self.core.refund(ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swap::SwapPhase;
    use ac3_crypto::KeyPair;

    fn addr(seed: &[u8]) -> Address {
        Address::from(KeyPair::from_seed(seed).public())
    }

    fn setup() -> (CentralizedState, KeyPair, Hash256) {
        let trent = KeyPair::from_seed(b"trent");
        let graph = Hash256::digest(b"ms(D)");
        let spec = CentralizedSpec {
            recipient: addr(b"bob"),
            graph_digest: graph,
            witness_key: trent.public(),
        };
        (CentralizedState::publish(addr(b"alice"), 100, &spec), trent, graph)
    }

    fn decision_sig(trent: &KeyPair, graph: &Hash256, decision: WitnessDecision) -> Signature {
        trent.sign(&SignatureLock::signed_message(graph, decision))
    }

    #[test]
    fn redeem_with_trents_rd_signature() {
        let (mut sc, trent, graph) = setup();
        let sig = decision_sig(&trent, &graph, WitnessDecision::Redeem);
        let payout = sc.redeem(&sig).unwrap();
        assert_eq!(payout.to, addr(b"bob"));
        assert_eq!(sc.core.phase, SwapPhase::Redeemed);
    }

    #[test]
    fn refund_with_trents_rf_signature() {
        let (mut sc, trent, graph) = setup();
        let sig = decision_sig(&trent, &graph, WitnessDecision::Refund);
        let payout = sc.refund(&sig).unwrap();
        assert_eq!(payout.to, addr(b"alice"));
        assert_eq!(sc.core.phase, SwapPhase::Refunded);
    }

    #[test]
    fn rd_signature_cannot_refund_and_vice_versa() {
        let (mut sc, trent, graph) = setup();
        let rd = decision_sig(&trent, &graph, WitnessDecision::Redeem);
        let rf = decision_sig(&trent, &graph, WitnessDecision::Refund);
        assert!(sc.refund(&rd).is_err());
        assert!(sc.redeem(&rf).is_err());
        assert_eq!(sc.core.phase, SwapPhase::Published);
    }

    #[test]
    fn forged_signature_rejected() {
        let (mut sc, _trent, graph) = setup();
        let mallory = KeyPair::from_seed(b"mallory");
        let sig = decision_sig(&mallory, &graph, WitnessDecision::Redeem);
        assert!(sc.redeem(&sig).is_err());
    }

    #[test]
    fn signature_for_other_graph_rejected() {
        let (mut sc, trent, _graph) = setup();
        let other = Hash256::digest(b"another swap");
        let sig = decision_sig(&trent, &other, WitnessDecision::Redeem);
        assert!(sc.redeem(&sig).is_err());
    }

    #[test]
    fn redeem_is_final() {
        let (mut sc, trent, graph) = setup();
        let rd = decision_sig(&trent, &graph, WitnessDecision::Redeem);
        let rf = decision_sig(&trent, &graph, WitnessDecision::Refund);
        sc.redeem(&rd).unwrap();
        assert!(sc.refund(&rf).is_err());
        assert!(sc.redeem(&rd).is_err());
    }
}
