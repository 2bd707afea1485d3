//! The three cross-chain evidence validation strategies of Section 4.3,
//! implemented side by side so they can be compared (experiment E8's
//! ablation and the discussion in the paper):
//!
//! 1. **Full replication** — every validator keeps a complete copy of the
//!    validated chain and simply looks the transaction up. Trivial to
//!    verify, but the storage/processing cost grows with the whole chain.
//! 2. **Light nodes** — validators keep only the header chain and verify an
//!    SPV inclusion proof. Cheaper, but still requires following every
//!    other blockchain continuously.
//! 3. **In-contract validation (the paper's proposal)** — the validator
//!    stores a single stable anchor header and verifies a self-contained
//!    evidence payload (headers since the anchor + inclusion proof). No
//!    continuous following at all; the cost is proportional to the evidence
//!    length only.

use ac3_chain::{Blockchain, ChainId, ContractId, LightClient, TxId};
use ac3_contracts::{ChainAnchor, EquivocationProof, SignedDecision, TxInclusionEvidence};
use ac3_crypto::WitnessDecision;
use ac3_sim::{ChainApi, World, WorldError};
use serde::{Deserialize, Serialize};

/// Which validation strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValidationStrategy {
    /// Maintain a full copy of the validated chain.
    FullReplication,
    /// Maintain a light (header-only) node of the validated chain.
    LightNode,
    /// Verify self-contained evidence inside the validator contract.
    ContractBased,
}

impl ValidationStrategy {
    /// All strategies, for sweeps.
    pub fn all() -> [ValidationStrategy; 3] {
        [
            ValidationStrategy::FullReplication,
            ValidationStrategy::LightNode,
            ValidationStrategy::ContractBased,
        ]
    }
}

impl std::fmt::Display for ValidationStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ValidationStrategy::FullReplication => "full-replication",
            ValidationStrategy::LightNode => "light-node",
            ValidationStrategy::ContractBased => "contract-based",
        };
        write!(f, "{s}")
    }
}

/// The resource cost of one validation, in the units the paper argues about.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidationCost {
    /// Blocks the validator must store persistently.
    pub blocks_stored: u64,
    /// Headers transferred/verified for this validation.
    pub headers_verified: u64,
    /// Full transactions the validator had to inspect.
    pub transactions_inspected: u64,
}

/// The result of validating "transaction `txid` is final on `chain`".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// The strategy used.
    pub strategy: ValidationStrategy,
    /// Whether the claim was accepted.
    pub valid: bool,
    /// What it cost.
    pub cost: ValidationCost,
}

/// Validate that `txid` is included and buried under `min_depth` blocks on
/// `chain`, using the requested strategy. The `anchor` is only used by the
/// contract-based strategy (it is what the validator contract stored at
/// deployment time).
pub fn validate_tx(
    world: &World,
    strategy: ValidationStrategy,
    chain: ChainId,
    txid: TxId,
    anchor: &ChainAnchor,
    min_depth: u64,
) -> Result<ValidationReport, WorldError> {
    let chain_ref: &Blockchain = world.chain(chain)?;
    match strategy {
        ValidationStrategy::FullReplication => {
            let valid = chain_ref.tx_depth(&txid).is_some_and(|d| d >= min_depth);
            let blocks = chain_ref.height() + 1;
            // A full replica inspects every transaction it stores.
            let txs: u64 =
                chain_ref.store().canonical_blocks().map(|b| b.transactions.len() as u64).sum();
            Ok(ValidationReport {
                strategy,
                valid,
                cost: ValidationCost {
                    blocks_stored: blocks,
                    headers_verified: blocks,
                    transactions_inspected: txs,
                },
            })
        }
        ValidationStrategy::LightNode => {
            // Build the light client from genesis (the cost a continuously
            // synchronised light node has paid over the chain's lifetime).
            let genesis_hash = chain_ref
                .store()
                .canonical_block_at_height(0)
                .ok_or_else(|| WorldError::EvidenceUnavailable("no genesis".to_string()))?;
            let genesis = chain_ref
                .store()
                .header(&genesis_hash)
                .ok_or_else(|| WorldError::EvidenceUnavailable("no genesis header".to_string()))?;
            let mut lc = LightClient::new(genesis)
                .map_err(|e| WorldError::EvidenceUnavailable(e.to_string()))?;
            let headers = chain_ref
                .headers_since(&genesis_hash)
                .ok_or_else(|| WorldError::EvidenceUnavailable("no headers".to_string()))?;
            lc.extend(&headers).map_err(|e| WorldError::EvidenceUnavailable(e.to_string()))?;

            let valid = match chain_ref.tx_inclusion(&txid) {
                Some(inclusion) => {
                    // Re-derive the transaction bytes from the block the
                    // inclusion points at.
                    let block_hash = chain_ref
                        .store()
                        .canonical_block_at_height(inclusion.header.height)
                        .ok_or_else(|| {
                            WorldError::EvidenceUnavailable("missing block".to_string())
                        })?;
                    let block = chain_ref.store().get(&block_hash).ok_or_else(|| {
                        WorldError::EvidenceUnavailable("missing block".to_string())
                    })?;
                    block
                        .find_tx(&txid)
                        .map(|idx| {
                            lc.verify_inclusion(
                                inclusion.header.height,
                                &inclusion.proof,
                                &block.transactions[idx].canonical_bytes(),
                                min_depth,
                            )
                            .is_ok()
                        })
                        .unwrap_or(false)
                }
                None => false,
            };
            Ok(ValidationReport {
                strategy,
                valid,
                cost: ValidationCost {
                    blocks_stored: 0,
                    headers_verified: lc.len() as u64,
                    transactions_inspected: 1,
                },
            })
        }
        ValidationStrategy::ContractBased => {
            let evidence: TxInclusionEvidence = match world.tx_evidence_since(chain, anchor, txid) {
                Ok(e) => e,
                Err(_) => {
                    return Ok(ValidationReport {
                        strategy,
                        valid: false,
                        cost: ValidationCost::default(),
                    })
                }
            };
            let valid = evidence.verify(anchor, min_depth).is_ok();
            Ok(ValidationReport {
                strategy,
                valid,
                cost: ValidationCost {
                    blocks_stored: 1, // the stored anchor
                    headers_verified: evidence.headers.len() as u64,
                    transactions_inspected: 1,
                },
            })
        }
    }
}

/// Validate with every strategy and return the three reports, to compare
/// their costs on identical claims.
pub fn validate_with_all(
    world: &World,
    chain: ChainId,
    txid: TxId,
    anchor: &ChainAnchor,
    min_depth: u64,
) -> Result<Vec<ValidationReport>, WorldError> {
    ValidationStrategy::all()
        .into_iter()
        .map(|s| validate_tx(world, s, chain, txid, anchor, min_depth))
        .collect()
}

/// An honest party's append-only log of witness-operator attestations —
/// the testimony side of the Byzantine fault model (DESIGN.md §12).
///
/// Watchdogs feed every [`SignedDecision`] they see (gossip, mempools,
/// bribed-operator side channels) into the log. The log discards forgeries,
/// and the moment two validly signed attestations by the same key over the
/// same graph contradict each other it hands back the
/// [`EquivocationProof`] ready for on-chain submission
/// (`WitnessCall::ReportEquivocation`). Attestations that merely contradict
/// *observed chain state* — a bribed operator signing a decision the
/// witness contract never reached — are not slashable (one signature is
/// not self-incriminating) but are surfaced by
/// [`TestimonyLog::unsupported_by`] so honest parties can refuse to act on
/// them.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TestimonyLog {
    decisions: Vec<SignedDecision>,
}

impl TestimonyLog {
    /// An empty log.
    pub fn new() -> Self {
        TestimonyLog::default()
    }

    /// Record an attestation. Forgeries (invalid signatures) are dropped.
    /// Returns a fraud proof the first time the attestation contradicts an
    /// earlier validly signed one.
    pub fn observe(&mut self, decision: SignedDecision) -> Option<EquivocationProof> {
        if decision.verify().is_err() {
            return None;
        }
        let conflict = self.decisions.iter().find(|prior| prior.conflicts_with(&decision)).copied();
        self.decisions.push(decision);
        conflict.map(|first| EquivocationProof { first, second: decision })
    }

    /// The validly signed attestations observed so far, in arrival order.
    pub fn decisions(&self) -> &[SignedDecision] {
        &self.decisions
    }

    /// Number of recorded attestations.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Attestations not supported by the on-chain state of the given
    /// witness contract: a `Redeem` attestation while the contract is not
    /// `RDauth`, or a `Refund` attestation while it is not `RFauth`. These
    /// are the bribed-witness testimonies — evidence of misbehavior an
    /// honest party records and refuses to act on, even though no stake can
    /// be slashed for them.
    pub fn unsupported_by(
        &self,
        world: &dyn ChainApi,
        chain: ChainId,
        contract: ContractId,
    ) -> Vec<SignedDecision> {
        let tag = world.contract_state(chain, contract).map(|(tag, _)| tag);
        self.decisions
            .iter()
            .filter(|d| {
                let required = match d.decision {
                    WitnessDecision::Redeem => "RDauth",
                    WitnessDecision::Refund => "RFauth",
                };
                tag.as_deref() != Some(required)
            })
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac3_chain::{Address, ChainParams, TxBuilder};
    use ac3_crypto::{Hash256, KeyPair};

    fn addr(seed: &[u8]) -> Address {
        Address::from(KeyPair::from_seed(seed).public())
    }

    /// A world with one chain, a payment from alice to bob mined and buried.
    fn world_with_payment(extra_blocks: u64) -> (World, ChainId, TxId, ChainAnchor) {
        let alice = addr(b"alice");
        let bob = addr(b"bob");
        let mut world = World::new();
        let mut params = ChainParams::test("validated");
        params.block_interval_ms = 1_000;
        params.stable_depth = 3;
        let chain = world.add_chain(params, &[(alice, 100)]);
        let anchor = world.anchor(chain).unwrap();

        let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let (inputs, outputs) =
            world.chain(chain).unwrap().plan_payment(&alice, &bob, 10, 1).unwrap();
        let txid = world.submit(chain, builder.transfer(inputs, outputs, 1)).unwrap();
        world.advance(1_000 * (extra_blocks + 1));
        (world, chain, txid, anchor)
    }

    #[test]
    fn all_strategies_accept_a_buried_transaction() {
        let (world, chain, txid, anchor) = world_with_payment(6);
        for report in validate_with_all(&world, chain, txid, &anchor, 3).unwrap() {
            assert!(report.valid, "{} rejected a valid claim", report.strategy);
        }
    }

    #[test]
    fn all_strategies_reject_a_missing_transaction() {
        let (world, chain, _txid, anchor) = world_with_payment(6);
        let missing = TxId(Hash256::digest(b"never happened"));
        for report in validate_with_all(&world, chain, missing, &anchor, 0).unwrap() {
            assert!(!report.valid, "{} accepted a bogus claim", report.strategy);
        }
    }

    #[test]
    fn all_strategies_enforce_depth() {
        let (world, chain, txid, anchor) = world_with_payment(1);
        for report in validate_with_all(&world, chain, txid, &anchor, 5).unwrap() {
            assert!(!report.valid, "{} ignored the depth requirement", report.strategy);
        }
    }

    #[test]
    fn contract_based_validation_is_cheapest_in_storage() {
        let (world, chain, txid, anchor) = world_with_payment(10);
        let reports = validate_with_all(&world, chain, txid, &anchor, 3).unwrap();
        let full = &reports[0];
        let light = &reports[1];
        let contract = &reports[2];
        assert!(full.cost.blocks_stored > light.cost.blocks_stored);
        assert!(light.cost.headers_verified >= contract.cost.headers_verified);
        assert_eq!(contract.cost.blocks_stored, 1);
        assert!(full.cost.transactions_inspected >= contract.cost.transactions_inspected);
    }

    #[test]
    fn testimony_log_detects_equivocation_and_discards_forgeries() {
        let op = KeyPair::from_seed(b"operator");
        let digest = Hash256::digest(b"ms(D)");
        let mut log = TestimonyLog::new();

        let rd = SignedDecision::sign(&op, digest, WitnessDecision::Redeem);
        assert!(log.observe(rd).is_none(), "a single decision is not a conflict");
        // A forged conflicting attestation is dropped, not treated as fraud.
        let mut forged = SignedDecision::sign(&op, digest, WitnessDecision::Refund);
        forged.signature = KeyPair::from_seed(b"mallory").sign(b"junk");
        assert!(log.observe(forged).is_none());
        assert_eq!(log.len(), 1);
        // A decision about a *different* graph does not conflict.
        let other = SignedDecision::sign(&op, Hash256::digest(b"other"), WitnessDecision::Refund);
        assert!(log.observe(other).is_none());

        // The genuine conflicting signature yields a verifying fraud proof.
        let rf = SignedDecision::sign(&op, digest, WitnessDecision::Refund);
        let proof = log.observe(rf).expect("conflict detected");
        proof.verify(&op.public(), &digest).unwrap();
    }

    #[test]
    fn testimony_log_flags_decisions_unsupported_by_chain_state() {
        use crate::actions::deploy_contract;
        use ac3_contracts::{ContractSpec, ExpectedContract, WitnessSpec};
        use ac3_sim::ParticipantSet;

        let mut participants = ParticipantSet::new();
        let alice = participants.add("alice");
        let mut world = World::new();
        let chain = world.add_chain(ChainParams::test("w"), &[(alice, 100)]);
        let anchor = world.anchor(chain).unwrap();
        let op = KeyPair::from_seed(b"operator");
        let digest = Hash256::digest(b"ms(D)");
        let spec = ContractSpec::Witness(WitnessSpec {
            participants: vec![alice],
            graph_digest: digest,
            expected_contracts: vec![ExpectedContract {
                chain,
                sender: alice,
                recipient: addr(b"bob"),
                amount: 10,
                anchor,
                required_depth: 0,
            }],
            operator: Some(op.public()),
            stake: 0,
        });
        let (_, contract) = deploy_contract(&mut world, &mut participants, &alice, chain, &spec, 0)
            .unwrap()
            .expect("alice is available");
        world.advance_blocks(chain, 2).unwrap();

        // The contract sits in P: *any* decision attestation is unsupported.
        let mut log = TestimonyLog::new();
        log.observe(SignedDecision::sign(&op, digest, WitnessDecision::Redeem));
        assert_eq!(log.unsupported_by(&world, chain, contract).len(), 1);
    }

    #[test]
    fn strategy_display_names() {
        assert_eq!(ValidationStrategy::FullReplication.to_string(), "full-replication");
        assert_eq!(ValidationStrategy::ContractBased.to_string(), "contract-based");
        assert_eq!(ValidationStrategy::all().len(), 3);
    }
}
