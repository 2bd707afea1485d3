//! The AC3WN protocol (Section 4.2): atomic cross-chain commitment
//! coordinated by a permissionless witness network.
//!
//! AC3WN is the AC3 commit sequence of [`crate::ac3`] with a witness
//! contract `SC_w` (Algorithm 3) as coordinator: one participant registers
//! `ms(D)` in `SC_w` on the witness chain, every asset contract
//! (Algorithm 4) is conditioned on `SC_w`, any participant submits
//! `AuthorizeRedeem` with deployment evidence (or `AuthorizeRefund` if
//! deployments are missing after a timeout), and once that call is buried
//! under `d` blocks every participant settles by presenting evidence of it.
//!
//! [`Ac3wn`] is the driver: [`Ac3wn::machine`] builds the resumable
//! [`Ac3Machine`] for a scheduler batch, [`Ac3wn::execute`] drives one to
//! completion. The free functions below are the only place the *contents*
//! of an AC3WN transaction are decided — the machine, the Section 6.3
//! attack script, the client's persistent session and the adversarial
//! tests all build their specs, calls and evidence here, so a change to
//! what AC3WN puts on chain is made once.

use crate::ac3::Ac3Machine;
use crate::driver::drive;
use crate::graph::{GraphError, SwapEdge, SwapGraph};
use crate::protocol::{ProtocolConfig, ProtocolError, SwapReport};
use crate::scenario::Scenario;
use ac3_chain::{Address, ChainId, ContractId, Timestamp, TxId};
use ac3_contracts::{
    ChainAnchor, ContractCall, ContractSpec, ExpectedContract, PermissionlessCall,
    PermissionlessSpec, WitnessCall, WitnessSpec, WitnessStateEvidence,
};
use ac3_crypto::{Hash256, WitnessState};
use ac3_sim::{ChainApi, ParticipantSet, WorldError};

impl From<GraphError> for ProtocolError {
    fn from(e: GraphError) -> Self {
        ProtocolError::UnsupportedGraph(e.to_string())
    }
}

/// The AC3WN protocol driver.
#[derive(Debug, Clone, Default)]
pub struct Ac3wn {
    /// Driver configuration (depths, timeouts).
    pub config: ProtocolConfig,
}

impl Ac3wn {
    /// Create a driver with the given configuration.
    pub fn new(config: ProtocolConfig) -> Self {
        Ac3wn { config }
    }

    /// Create a resumable state machine executing `graph` with `witness` as
    /// the witness chain (for use under a scheduler).
    pub fn machine(&self, graph: SwapGraph, witness: ChainId) -> Ac3Machine {
        Ac3Machine::with_witness(self.config.clone(), graph, witness)
    }

    /// Execute the AC2T described by the scenario's graph (single-swap
    /// wrapper around [`Ac3wn::machine`]).
    pub fn execute(&self, scenario: &mut Scenario) -> Result<SwapReport, ProtocolError> {
        let mut machine = self.machine(scenario.graph.clone(), scenario.witness_chain);
        drive(&mut machine, &mut scenario.world, &mut scenario.participants)
    }
}

/// The first participant of the graph that is available at `now` — the one
/// who registers `SC_w`.
pub fn first_available(
    graph: &SwapGraph,
    now: Timestamp,
    participants: &ParticipantSet,
) -> Option<Address> {
    graph
        .participants()
        .iter()
        .copied()
        .find(|a| participants.by_address(a).is_some_and(|p| p.is_available(now)))
}

/// The asset contracts `SC_w` will expect, one per edge, each anchored at
/// its chain's current stable block.
pub fn expected_contracts(
    world: &dyn ChainApi,
    graph: &SwapGraph,
    deployment_depth: u64,
) -> Result<Vec<ExpectedContract>, WorldError> {
    graph
        .edges()
        .iter()
        .map(|e| {
            Ok(ExpectedContract {
                chain: e.chain,
                sender: e.from,
                recipient: e.to,
                amount: e.amount,
                anchor: world.anchor(e.chain)?,
                required_depth: deployment_depth,
            })
        })
        .collect()
}

/// The witness contract `SC_w`: `graph_digest` (the digest of `ms(D)`)
/// binds it to the exact agreed graph, as in Algorithm 3's constructor.
pub fn witness_spec(
    graph: &SwapGraph,
    graph_digest: Hash256,
    expected: &[ExpectedContract],
) -> ContractSpec {
    ContractSpec::Witness(WitnessSpec {
        participants: graph.participants().to_vec(),
        graph_digest,
        expected_contracts: expected.to_vec(),
        operator: None,
        stake: 0,
    })
}

/// An asset contract (Algorithm 4) paying `recipient`, conditioned on the
/// state of `witness_contract` as proven from `witness_anchor` at depth
/// `min_depth`.
pub fn asset_spec(
    recipient: Address,
    witness_chain: ChainId,
    witness_contract: ContractId,
    witness_anchor: ChainAnchor,
    min_depth: u64,
) -> ContractSpec {
    ContractSpec::Permissionless(PermissionlessSpec {
        recipient,
        witness_chain,
        witness_contract,
        min_depth,
        witness_anchor,
    })
}

/// The state-change request sent to `SC_w`: `AuthorizeRedeem` carrying
/// inclusion evidence of every deployment since its expected anchor, cut
/// at the depth `SC_w` demands of it, or a bare `AuthorizeRefund`.
///
/// A commit needs a deployment for every expected contract;
/// [`WorldError::EvidenceUnavailable`] names the first edge without one.
pub fn authorize_call(
    world: &dyn ChainApi,
    commit: bool,
    expected: &[ExpectedContract],
    deployments: &[Option<(TxId, ContractId)>],
) -> Result<ContractCall, WorldError> {
    if !commit {
        return Ok(ContractCall::Witness(WitnessCall::AuthorizeRefund));
    }
    let deployments = expected
        .iter()
        .enumerate()
        .map(|(i, exp)| {
            let Some(&Some((txid, _))) = deployments.get(i) else {
                return Err(WorldError::EvidenceUnavailable(format!(
                    "edge {i} has no deployment to prove"
                )));
            };
            let evidence = world.tx_evidence_since(exp.chain, &exp.anchor, txid)?;
            Ok(evidence.cut_at_depth(exp.required_depth))
        })
        .collect::<Result<_, _>>()?;
    Ok(ContractCall::Witness(WitnessCall::AuthorizeRedeem { deployments }))
}

/// Evidence that `authorize_txid` moved `SC_w` to the decided state, built
/// from the witness anchor the asset contracts store and cut at the depth
/// `min_depth` they demand.
pub fn decision_evidence(
    world: &dyn ChainApi,
    witness_chain: ChainId,
    witness_anchor: &ChainAnchor,
    authorize_txid: TxId,
    commit: bool,
    min_depth: u64,
) -> Result<WitnessStateEvidence, WorldError> {
    let inclusion = world.tx_evidence_since(witness_chain, witness_anchor, authorize_txid)?;
    Ok(WitnessStateEvidence {
        claimed: if commit {
            WitnessState::RedeemAuthorized
        } else {
            WitnessState::RefundAuthorized
        },
        inclusion: inclusion.cut_at_depth(min_depth),
    })
}

/// The settlement call presenting `evidence`: `Redeem` on commit, `Refund`
/// on abort. It names no edge, so one call settles every edge of the swap.
pub fn settlement(commit: bool, evidence: WitnessStateEvidence) -> ContractCall {
    ContractCall::Permissionless(if commit {
        PermissionlessCall::Redeem { evidence }
    } else {
        PermissionlessCall::Refund { evidence }
    })
}

/// Who settles an edge and with which call: the recipient redeems on
/// commit, the sender refunds on abort.
pub fn settlement_call(
    commit: bool,
    edge: &SwapEdge,
    evidence: &WitnessStateEvidence,
) -> (Address, ContractCall) {
    let settler = if commit { edge.to } else { edge.from };
    (settler, settlement(commit, evidence.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{two_party_scenario, ScenarioConfig};

    #[test]
    fn a_commit_without_every_deployment_is_an_error_not_a_panic() {
        let s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let expected = expected_contracts(&s.world, &s.graph, 1).unwrap();
        let deployed = Some((TxId(Hash256::ZERO), ContractId(Hash256::ZERO)));
        for (deployments, edge) in [(vec![None, deployed], 0), (vec![], 0), (vec![None], 0)] {
            assert_eq!(
                authorize_call(&s.world, true, &expected, &deployments),
                Err(WorldError::EvidenceUnavailable(format!(
                    "edge {edge} has no deployment to prove"
                )))
            );
        }
        // An abort proves nothing, so it needs no deployment.
        assert_eq!(
            authorize_call(&s.world, false, &expected, &[]),
            Ok(ContractCall::Witness(WitnessCall::AuthorizeRefund))
        );
    }
}
