//! Cross-chain evidence payloads exchanged between contracts (Section 4.3).
//!
//! Two evidence shapes appear in the AC3WN protocol:
//!
//! * [`TxInclusionEvidence`] — "transaction T happened on chain C": the
//!   transaction itself, the headers of C following a known stable anchor
//!   block, and a Merkle proof of T's inclusion in one of those blocks,
//!   buried under at least `d` of them. Builders cut the headers at T's
//!   block plus `d` ([`TxInclusionEvidence::cut_at_depth`]), so the evidence
//!   stops growing once T is buried. Used by the witness
//!   contract to check that every asset contract in the AC2T was deployed
//!   (Algorithm 3's `VerifyContracts`).
//! * [`WitnessStateEvidence`] — "the witness contract `SC_w` reached state
//!   RDauth/RFauth at depth ≥ d": a [`TxInclusionEvidence`] whose included
//!   transaction is the `AuthorizeRedeem` / `AuthorizeRefund` call, plus the
//!   claimed resulting state. Used by the asset contracts' `IsRedeemable` /
//!   `IsRefundable` (Algorithm 4).
//!
//! Both are *self-contained*: a contract verifies them using only data it
//! stored at deployment time (the anchor), never by consulting another
//! chain — this is the paper's proposed in-contract validation technique.

use crate::codec;
use crate::runtime::{ContractCall, ContractSpec};
use crate::witness::WitnessCall;
use ac3_chain::{
    Address, Amount, BlockHash, BlockHeader, ChainId, ContractId, Transaction, TxKind, VmError,
};
use ac3_crypto::{
    Hash256, KeyPair, MerkleProof, PublicKey, Signature, SignatureLock, WitnessDecision,
    WitnessState,
};
use serde::{Deserialize, Serialize};

/// A stable block of some chain, stored inside a validator contract at
/// deployment time ("a smart contract in the validator blockchain ... stores
/// the header of a stable block in the validated blockchain").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainAnchor {
    /// The validated chain.
    pub chain: ChainId,
    /// Hash of the stable block.
    pub hash: BlockHash,
    /// Height of the stable block.
    pub height: u64,
}

/// Self-contained proof that a transaction occurred on another chain and is
/// buried under a minimum number of blocks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxInclusionEvidence {
    /// The transaction of interest (its canonical bytes are the Merkle
    /// leaf, so the verifier recomputes them rather than trusting a hash).
    pub tx: Transaction,
    /// Height of the block containing the transaction.
    pub tx_height: u64,
    /// Headers following the anchor, oldest first: up to the validated
    /// chain's tip at evidence-construction time, or up to `tx_height + d`
    /// once cut with [`TxInclusionEvidence::cut_at_depth`].
    pub headers: Vec<BlockHeader>,
    /// Merkle inclusion proof of the transaction in the block at
    /// `tx_height`.
    pub proof: MerkleProof,
}

impl TxInclusionEvidence {
    /// Verify against `anchor`, requiring the transaction's block to be
    /// buried under at least `min_depth` of the supplied headers.
    pub fn verify(&self, anchor: &ChainAnchor, min_depth: u64) -> Result<(), VmError> {
        if self.headers.is_empty() {
            return Err(VmError::RequirementFailed("evidence contains no headers".to_string()));
        }
        if self.headers[0].parent != anchor.hash {
            return Err(VmError::RequirementFailed(format!(
                "evidence does not extend the stored stable block {}",
                anchor.hash
            )));
        }
        verify_header_chain(anchor, &self.headers)?;

        let first_height = self.headers[0].height;
        let idx =
            self.tx_height.checked_sub(first_height).ok_or_else(|| {
                VmError::RequirementFailed("tx height precedes evidence".to_string())
            })? as usize;
        let header = self.headers.get(idx).ok_or_else(|| {
            VmError::RequirementFailed("tx height beyond evidence headers".to_string())
        })?;
        if !self.proof.verify_hash(&header.tx_root, &self.tx.leaf_hash()) {
            return Err(VmError::RequirementFailed("inclusion proof invalid".to_string()));
        }
        if !self.tx.signature_valid() {
            return Err(VmError::RequirementFailed(
                "included transaction not authorised".to_string(),
            ));
        }
        let tip = self.headers.last().expect("non-empty").height;
        let depth = tip.saturating_sub(self.tx_height);
        if depth < min_depth {
            return Err(VmError::RequirementFailed(format!(
                "transaction buried under {depth} blocks, {min_depth} required"
            )));
        }
        Ok(())
    }

    /// Drop the headers above height `tx_height + depth` — everything a
    /// verifier demanding `depth` does not need. Evidence with fewer headers
    /// above the transaction (or none at its height) is returned unchanged,
    /// so it fails [`TxInclusionEvidence::verify`] exactly as before. Once
    /// the transaction is `depth` deep, the cut evidence no longer changes
    /// as the chain grows.
    pub fn cut_at_depth(mut self, depth: u64) -> Self {
        let first_height = self.headers.first().map_or(u64::MAX, |h| h.height);
        if let Some(idx) = self.tx_height.checked_sub(first_height) {
            let keep = idx.saturating_add(depth).saturating_add(1);
            self.headers.truncate(usize::try_from(keep).unwrap_or(usize::MAX));
        }
        self
    }

    /// The chain the evidence headers belong to (all headers share one
    /// chain id; validated by [`TxInclusionEvidence::verify`]).
    pub fn chain(&self) -> Option<ChainId> {
        self.headers.first().map(|h| h.chain)
    }
}

/// Check that `headers` extend `anchor`: same chain, heights consecutive,
/// each linked to the previous and satisfying its own proof-of-work target.
fn verify_header_chain(anchor: &ChainAnchor, headers: &[BlockHeader]) -> Result<(), VmError> {
    let invalid =
        |why: String| Err(VmError::RequirementFailed(format!("header chain invalid: {why}")));
    let mut prev_hash = anchor.hash;
    let mut prev_height = anchor.height;
    for header in headers {
        if header.chain != anchor.chain {
            return invalid(format!("header from {}, expected {}", header.chain, anchor.chain));
        }
        if header.parent != prev_hash {
            return invalid(format!("broken header link at height {}", header.height));
        }
        // The anchor height is deployer-chosen: no height follows
        // `u64::MAX`, so no header can extend an anchor there.
        let expected = prev_height.checked_add(1);
        if expected != Some(header.height) {
            return invalid(format!(
                "non-consecutive height: expected {}, got {}",
                expected.unwrap_or(u64::MAX),
                header.height
            ));
        }
        // Hash once per header: the same digest answers the proof-of-work
        // check and becomes the next link target.
        let hash = header.hash();
        if !hash.0.meets_target(&header.target) {
            return invalid(format!("invalid proof of work in {hash}"));
        }
        prev_hash = hash;
        prev_height = header.height;
    }
    Ok(())
}

/// What the witness contract expects each asset contract's deployment to
/// look like — derived from one edge `e = (u, v)` of the AC2T graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpectedContract {
    /// The blockchain `e.BC` the asset contract must be deployed on.
    pub chain: ChainId,
    /// The source participant `u` (the contract's sender).
    pub sender: Address,
    /// The recipient participant `v`.
    pub recipient: Address,
    /// The asset value `e.a` that must be locked.
    pub amount: Amount,
    /// Stable anchor of `chain`, stored when the witness contract is
    /// deployed, against which deployment evidence is verified.
    pub anchor: ChainAnchor,
    /// Minimum burial depth the deployment must have before the witness
    /// accepts it.
    pub required_depth: u64,
}

/// Check that a single deployment evidence entry matches its expected
/// contract description (the per-edge check of `VerifyContracts`,
/// Algorithm 3 lines 18–23).
pub fn verify_deployment(
    expected: &ExpectedContract,
    evidence: &TxInclusionEvidence,
    witness_chain: ChainId,
    witness_contract: ContractId,
) -> Result<(), VmError> {
    evidence.verify(&expected.anchor, expected.required_depth)?;
    if evidence.chain() != Some(expected.chain) {
        return Err(VmError::RequirementFailed(format!(
            "evidence is for {:?}, expected {:?}",
            evidence.chain(),
            expected.chain
        )));
    }
    // The included transaction must be the deployment of a permissionless
    // swap contract matching the edge description.
    let TxKind::Deploy { locked_value, payload, .. } = &evidence.tx.kind else {
        return Err(VmError::RequirementFailed(
            "evidence tx is not a contract deployment".to_string(),
        ));
    };
    if evidence.tx.sender != Some(expected.sender) {
        return Err(VmError::RequirementFailed(
            "deployment sender does not match edge source".to_string(),
        ));
    }
    if *locked_value != expected.amount {
        return Err(VmError::RequirementFailed(format!(
            "locked value {locked_value} does not match edge asset {}",
            expected.amount
        )));
    }
    let spec: ContractSpec = codec::decode(payload)?;
    let ContractSpec::Permissionless(spec) = spec else {
        return Err(VmError::RequirementFailed(
            "deployed contract is not a permissionless swap contract".to_string(),
        ));
    };
    if spec.recipient != expected.recipient {
        return Err(VmError::RequirementFailed("recipient does not match edge target".to_string()));
    }
    if spec.witness_chain != witness_chain || spec.witness_contract != witness_contract {
        return Err(VmError::RequirementFailed(
            "contract is not conditioned on this witness contract".to_string(),
        ));
    }
    Ok(())
}

/// Self-contained proof of the witness contract's decision, submitted to an
/// asset contract's redeem or refund function (Algorithm 4).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WitnessStateEvidence {
    /// The state the submitter claims `SC_w` reached.
    pub claimed: WitnessState,
    /// Inclusion evidence for the `AuthorizeRedeem` / `AuthorizeRefund`
    /// call transaction on the witness chain.
    pub inclusion: TxInclusionEvidence,
}

impl WitnessStateEvidence {
    /// Verify the evidence: the authorize call must be included on the
    /// witness chain, extend the stored anchor, be buried under `min_depth`
    /// blocks, target `witness_contract`, and its payload must match the
    /// claimed state.
    ///
    /// Because the witness contract only permits the transitions
    /// `P → RDauth` and `P → RFauth` (and miners never include failing
    /// calls), an included authorize call is proof of the resulting state.
    pub fn verify(
        &self,
        anchor: &ChainAnchor,
        witness_contract: ContractId,
        min_depth: u64,
    ) -> Result<WitnessState, VmError> {
        self.inclusion.verify(anchor, min_depth)?;
        let TxKind::Call { contract, payload } = &self.inclusion.tx.kind else {
            return Err(VmError::RequirementFailed(
                "evidence tx is not a contract call".to_string(),
            ));
        };
        if *contract != witness_contract {
            return Err(VmError::RequirementFailed(
                "evidence call targets a different witness contract".to_string(),
            ));
        }
        let call: ContractCall = codec::decode(payload)?;
        let actual = match call {
            ContractCall::Witness(WitnessCall::AuthorizeRedeem { .. }) => {
                WitnessState::RedeemAuthorized
            }
            ContractCall::Witness(WitnessCall::AuthorizeRefund) => WitnessState::RefundAuthorized,
            _ => {
                return Err(VmError::RequirementFailed(
                    "evidence call is not an authorize call".to_string(),
                ))
            }
        };
        if actual != self.claimed {
            return Err(VmError::RequirementFailed(format!(
                "claimed state {:?} does not match authorize call ({:?})",
                self.claimed, actual
            )));
        }
        Ok(actual)
    }
}

/// A witness-network operator's signed attestation of an AC2T decision —
/// the testimony object of the Byzantine fault model.
///
/// The message signed is exactly [`SignatureLock::signed_message`], the
/// same domain-separated payload an AC3TW trusted witness signs to release
/// a commitment, so one proof format covers both the centralized witness
/// and a witness-network operator attesting its network's decision
/// off-chain. The attestation is *self-incriminating by pairing*: two
/// valid [`SignedDecision`]s by the same key over the same graph with
/// different decisions form an [`EquivocationProof`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignedDecision {
    /// The attesting operator's public key.
    pub witness: PublicKey,
    /// The multisigned-graph digest `ms(D)` the decision is about.
    pub graph_digest: Hash256,
    /// The attested decision.
    pub decision: WitnessDecision,
    /// Schnorr signature over [`SignatureLock::signed_message`].
    pub signature: Signature,
}

impl SignedDecision {
    /// Sign a decision with the operator's key.
    pub fn sign(operator: &KeyPair, graph_digest: Hash256, decision: WitnessDecision) -> Self {
        let msg = SignatureLock::signed_message(&graph_digest, decision);
        SignedDecision {
            witness: operator.public(),
            graph_digest,
            decision,
            signature: operator.sign(&msg),
        }
    }

    /// Verify the signature against the embedded key, digest and decision.
    pub fn verify(&self) -> Result<(), VmError> {
        let msg = SignatureLock::signed_message(&self.graph_digest, self.decision);
        if !self.witness.verifies(&msg, &self.signature) {
            return Err(VmError::RequirementFailed(
                "decision signature does not verify".to_string(),
            ));
        }
        Ok(())
    }

    /// Whether `other` contradicts this attestation: same key, same graph,
    /// opposite decision. (Signatures are checked separately by
    /// [`EquivocationProof::verify`].)
    pub fn conflicts_with(&self, other: &SignedDecision) -> bool {
        self.witness == other.witness
            && self.graph_digest == other.graph_digest
            && self.decision != other.decision
    }
}

/// Fraud proof of witness equivocation: two validly signed, conflicting
/// decisions by the same operator over the same graph. Submitted on-chain
/// via `WitnessCall::ReportEquivocation`, it forfeits the operator's stake
/// to the reporter (the slashing flow of DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EquivocationProof {
    /// One signed decision.
    pub first: SignedDecision,
    /// The conflicting signed decision.
    pub second: SignedDecision,
}

impl EquivocationProof {
    /// Verify the proof against the contract's registered operator key and
    /// graph digest: both attestations must be validly signed by exactly
    /// that key over exactly that graph, and contradict each other.
    pub fn verify(&self, operator: &PublicKey, graph_digest: &Hash256) -> Result<(), VmError> {
        if self.first.witness != *operator || self.second.witness != *operator {
            return Err(VmError::RequirementFailed(
                "attestation key is not the registered operator".to_string(),
            ));
        }
        if self.first.graph_digest != *graph_digest || self.second.graph_digest != *graph_digest {
            return Err(VmError::RequirementFailed(
                "attestation is about a different graph".to_string(),
            ));
        }
        if !self.first.conflicts_with(&self.second) {
            return Err(VmError::RequirementFailed(
                "attestations do not contradict each other".to_string(),
            ));
        }
        self.first.verify()?;
        self.second.verify()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac3_chain::{TxBuilder, TxOutput};
    use ac3_crypto::MerkleTree;

    fn addr(seed: &[u8]) -> Address {
        Address::from(KeyPair::from_seed(seed).public())
    }

    /// Build a tiny fake header chain containing `tx` at height 1 with
    /// `extra` empty blocks above it, anchored at a synthetic genesis.
    fn fabricate_evidence(tx: Transaction, extra: u64) -> (ChainAnchor, TxInclusionEvidence) {
        let chain = ChainId(5);
        let anchor_header = BlockHeader {
            chain,
            parent: BlockHash::GENESIS_PARENT,
            tx_root: Hash256::ZERO,
            height: 0,
            timestamp: 0,
            target: Hash256::MAX,
            nonce: 0,
        };
        let anchor = ChainAnchor { chain, hash: anchor_header.hash(), height: 0 };

        let leaves = vec![tx.canonical_bytes()];
        let tree = MerkleTree::from_leaves(&leaves);
        let mut headers = vec![BlockHeader {
            chain,
            parent: anchor_header.hash(),
            tx_root: tree.root(),
            height: 1,
            timestamp: 1,
            target: Hash256::MAX,
            nonce: 1,
        }];
        for i in 0..extra {
            let prev = *headers.last().unwrap();
            headers.push(BlockHeader {
                chain,
                parent: prev.hash(),
                tx_root: Hash256::digest(&[i as u8]),
                height: prev.height + 1,
                timestamp: prev.timestamp + 1,
                target: Hash256::MAX,
                nonce: 0,
            });
        }
        let evidence =
            TxInclusionEvidence { tx, tx_height: 1, headers, proof: tree.prove(0).unwrap() };
        (anchor, evidence)
    }

    fn sample_transfer() -> Transaction {
        let mut b = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        b.transfer(vec![], vec![TxOutput::new(addr(b"bob"), 5)], 1)
    }

    #[test]
    fn fabricated_inclusion_evidence_verifies() {
        let (anchor, ev) = fabricate_evidence(sample_transfer(), 6);
        ev.verify(&anchor, 6).unwrap();
        assert_eq!(ev.chain(), Some(ChainId(5)));
    }

    #[test]
    fn insufficient_depth_rejected() {
        let (anchor, ev) = fabricate_evidence(sample_transfer(), 3);
        assert!(ev.verify(&anchor, 6).is_err());
        ev.verify(&anchor, 3).unwrap();
    }

    #[test]
    fn evidence_cut_at_depth_verifies_at_exactly_that_depth() {
        let (anchor, ev) = fabricate_evidence(sample_transfer(), 6);
        let cut = ev.cut_at_depth(3);
        assert_eq!(cut.headers.len(), 4, "the tx block plus three above it");
        cut.verify(&anchor, 3).unwrap();
        assert_eq!(
            cut.verify(&anchor, 4),
            Err(VmError::RequirementFailed(
                "transaction buried under 3 blocks, 4 required".to_string()
            ))
        );
        // Once the transaction is buried, a longer chain cuts to the same
        // evidence.
        let (_, longer) = fabricate_evidence(sample_transfer(), 9);
        assert_eq!(longer.cut_at_depth(3), cut);
    }

    #[test]
    fn cutting_too_shallow_evidence_is_a_no_op() {
        // The fork-attack short branch: fewer than `d` headers above the
        // transaction. The cut leaves the evidence, and its failure, alone.
        let (anchor, ev) = fabricate_evidence(sample_transfer(), 3);
        let before = ev.verify(&anchor, 6).unwrap_err();
        let cut = ev.clone().cut_at_depth(6);
        assert_eq!(cut, ev);
        assert_eq!(cut.verify(&anchor, 6), Err(before));
        // So is evidence with no headers at all.
        let mut headless = ev;
        headless.headers.clear();
        assert_eq!(headless.clone().cut_at_depth(0), headless);
    }

    #[test]
    fn wrong_anchor_rejected() {
        let (_, ev) = fabricate_evidence(sample_transfer(), 6);
        let bogus =
            ChainAnchor { chain: ChainId(5), hash: BlockHash(Hash256::digest(b"x")), height: 0 };
        assert!(ev.verify(&bogus, 0).is_err());
    }

    #[test]
    fn tampered_tx_rejected() {
        let (anchor, mut ev) = fabricate_evidence(sample_transfer(), 6);
        // Tamper a cold copy: building the evidence observed `ev.tx`, and a
        // transaction mutated after that keeps its memoized identity. The
        // copy's leaf no longer matches the proof, which must catch it.
        let mut tx = ev.tx.clone();
        tx.fee += 1;
        ev.tx = tx;
        assert_eq!(
            ev.verify(&anchor, 0),
            Err(VmError::RequirementFailed("inclusion proof invalid".to_string()))
        );
    }

    #[test]
    fn broken_header_chain_rejected() {
        let (anchor, mut ev) = fabricate_evidence(sample_transfer(), 6);
        ev.headers.remove(3);
        assert!(ev.verify(&anchor, 0).is_err());
    }

    #[test]
    fn foreign_chain_headers_rejected() {
        // Well-linked headers from another chain than the anchor names
        // prove nothing about the anchored chain.
        let (anchor, ev) = fabricate_evidence(sample_transfer(), 6);
        let foreign = ChainAnchor { chain: ChainId(42), ..anchor };
        let want = format!(
            "header chain invalid: header from {}, expected {}",
            anchor.chain, foreign.chain
        );
        assert_eq!(ev.verify(&foreign, 6), Err(VmError::RequirementFailed(want)));
        ev.verify(&anchor, 6).unwrap();
    }

    /// A real chain with a funded Alice, a payment to Bob mined at height 1
    /// and `extra` empty blocks on top; returns its genesis as the anchor
    /// and the payment's inclusion evidence since then.
    fn real_chain_with_payment(extra: u64) -> (ChainAnchor, TxInclusionEvidence) {
        use ac3_chain::{Blockchain, ChainParams, EchoVm};
        let alice = addr(b"alice");
        let miner = addr(b"miner");
        let mut chain = Blockchain::new(
            ChainId(0),
            ChainParams::test("validated"),
            std::sync::Arc::new(EchoVm),
            &[(alice, 100)],
        );
        let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let (inputs, outputs) = chain.plan_payment(&alice, &addr(b"bob"), 10, 1).unwrap();
        let tx = builder.transfer(inputs, outputs, 1);
        chain.submit(tx.clone()).unwrap();
        for i in 0..=extra {
            chain.mine_block(miner, 1_000 + i).unwrap();
        }
        let genesis = chain.store().canonical_block_at_height(0).unwrap();
        let inclusion = chain.tx_inclusion(&tx.id()).unwrap();
        let evidence = TxInclusionEvidence {
            tx,
            tx_height: inclusion.header.height,
            headers: chain.headers_since(&genesis).unwrap(),
            proof: inclusion.proof,
        };
        (ChainAnchor { chain: chain.id(), hash: genesis, height: 0 }, evidence)
    }

    /// The error `TxInclusionEvidence::verify` reports for a header chain
    /// that does not extend its anchor.
    fn header_chain_invalid(why: &str) -> Result<(), VmError> {
        Err(VmError::RequirementFailed(format!("header chain invalid: {why}")))
    }

    #[test]
    fn header_evidence_verifies_end_to_end() {
        let (anchor, ev) = real_chain_with_payment(6);
        assert_eq!(ev.headers.len(), 7);
        verify_header_chain(&anchor, &ev.headers).unwrap();
        ev.verify(&anchor, 6).unwrap();
        // Demanding more depth than the chain has fails.
        assert_eq!(
            ev.verify(&anchor, 7),
            Err(VmError::RequirementFailed(
                "transaction buried under 6 blocks, 7 required".to_string()
            ))
        );
    }

    #[test]
    fn header_evidence_rejects_wrong_anchor() {
        let (anchor, ev) = real_chain_with_payment(3);
        let bogus = ChainAnchor { hash: BlockHash(Hash256::digest(b"other")), ..anchor };
        assert_eq!(
            verify_header_chain(&bogus, &ev.headers),
            header_chain_invalid("broken header link at height 1")
        );
        // A gap in the run breaks the link at the header after it.
        let mut gapped = ev.headers;
        gapped.remove(1);
        assert_eq!(
            verify_header_chain(&anchor, &gapped),
            header_chain_invalid("broken header link at height 3")
        );
    }

    #[test]
    fn a_header_that_misses_its_target_is_invalid_work() {
        let (anchor, mut ev) = fabricate_evidence(sample_transfer(), 2);
        // No hash meets the zero target; the header still links and counts.
        ev.headers[0].target = Hash256::ZERO;
        let hash = ev.headers[0].hash();
        let want = header_chain_invalid(&format!("invalid proof of work in {hash}"));
        assert_eq!(verify_header_chain(&anchor, &ev.headers), want);
        assert_eq!(ev.verify(&anchor, 0), want);
    }

    #[test]
    fn an_anchor_at_the_last_height_has_no_successor() {
        // A deployer-chosen anchor height: the next height must neither
        // overflow (debug builds panic) nor wrap to 0 (release builds).
        let (anchor, ev) = fabricate_evidence(sample_transfer(), 0);
        let anchor = ChainAnchor { height: u64::MAX, ..anchor };
        let mut header = ev.headers[0];
        for height in [0, 1, u64::MAX] {
            header.height = height;
            assert_eq!(
                verify_header_chain(&anchor, &[header]),
                header_chain_invalid(&format!(
                    "non-consecutive height: expected {}, got {height}",
                    u64::MAX
                ))
            );
        }
    }

    #[test]
    fn empty_headers_rejected() {
        let (anchor, mut ev) = fabricate_evidence(sample_transfer(), 2);
        ev.headers.clear();
        assert!(ev.verify(&anchor, 0).is_err());
    }

    #[test]
    fn signed_decision_round_trip() {
        let op = KeyPair::from_seed(b"operator");
        let digest = Hash256::digest(b"ms(D)");
        let d = SignedDecision::sign(&op, digest, WitnessDecision::Redeem);
        d.verify().unwrap();
        // Tampering with any field breaks the signature.
        let mut forged = d;
        forged.decision = WitnessDecision::Refund;
        assert!(forged.verify().is_err());
        let mut forged = d;
        forged.graph_digest = Hash256::digest(b"other");
        assert!(forged.verify().is_err());
        let mut forged = d;
        forged.witness = KeyPair::from_seed(b"mallory").public();
        assert!(forged.verify().is_err());
    }

    #[test]
    fn conflicting_decisions_form_a_valid_equivocation_proof() {
        let op = KeyPair::from_seed(b"operator");
        let digest = Hash256::digest(b"ms(D)");
        let rd = SignedDecision::sign(&op, digest, WitnessDecision::Redeem);
        let rf = SignedDecision::sign(&op, digest, WitnessDecision::Refund);
        assert!(rd.conflicts_with(&rf));
        EquivocationProof { first: rd, second: rf }.verify(&op.public(), &digest).unwrap();
        // Order does not matter.
        EquivocationProof { first: rf, second: rd }.verify(&op.public(), &digest).unwrap();
    }

    #[test]
    fn equivocation_proof_rejects_non_conflicts_and_wrong_bindings() {
        let op = KeyPair::from_seed(b"operator");
        let digest = Hash256::digest(b"ms(D)");
        let rd = SignedDecision::sign(&op, digest, WitnessDecision::Redeem);
        let rf = SignedDecision::sign(&op, digest, WitnessDecision::Refund);

        // Two copies of the same decision are not an equivocation.
        assert!(EquivocationProof { first: rd, second: rd }.verify(&op.public(), &digest).is_err());
        // A proof about a different graph digest does not slash this contract.
        assert!(EquivocationProof { first: rd, second: rf }
            .verify(&op.public(), &Hash256::digest(b"other"))
            .is_err());
        // A proof signed by a different key does not slash this operator.
        let mallory = KeyPair::from_seed(b"mallory");
        assert!(EquivocationProof { first: rd, second: rf }
            .verify(&mallory.public(), &digest)
            .is_err());
        // A forged (unsigned) conflict is rejected even though it "conflicts".
        let mut forged = rf;
        forged.signature = mallory.sign(b"junk");
        assert!(EquivocationProof { first: rd, second: forged }
            .verify(&op.public(), &digest)
            .is_err());
    }
}
