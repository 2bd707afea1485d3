//! The Section 6.3 adversary, executed rather than merely modelled: a
//! participant who rents majority hash power on the witness network and
//! tries to rewrite the commit decision of an already-settled AC2T.
//!
//! The attack against a two-party swap (Alice's `SC1` on chain A, Bob's
//! `SC2` on chain B, coordinated by `SC_w` on the witness chain) proceeds
//! exactly as the paper describes:
//!
//! 1. the swap runs honestly up to the commit decision (`SC_w → RDauth`)
//!    and the attacker (Bob) redeems `SC1`, collecting Alice's asset;
//! 2. before Alice redeems `SC2`, the attacker forks the witness chain from
//!    below the `AuthorizeRedeem` block and privately mines a competing
//!    branch in which `SC_w` instead transitions `P → RFauth`;
//! 3. if the attacker can afford a branch long enough to win the
//!    longest-chain rule **and** to bury the refund authorization under the
//!    asset contracts' required depth `d`, the refund evidence is accepted
//!    by `SC2` and the attacker recovers his own asset too — Alice ends up
//!    with nothing and all-or-nothing atomicity is violated;
//! 4. otherwise the fork never becomes usable evidence, Alice redeems `SC2`
//!    with the original `RDauth` evidence when she comes back, and the swap
//!    stays atomic.
//!
//! The number of blocks the attacker must mine grows linearly with the
//! depth `d` the asset contracts demand, which is precisely why the paper's
//! inequality `d > Va · dh / Ch` (reproduced in
//! [`crate::analysis::witness_choice`]) makes the attack uneconomical: the
//! bench harness combines this executor with that cost model.

use crate::ac3wn::{self, Ac3wn};
use crate::actions::{call_contract, edge_disposition};
use crate::audit::AtomicityVerdict;
use crate::driver::{drive_until, tx_at_depth};
use crate::protocol::{EdgeOutcome, ProtocolConfig, ProtocolError};
use crate::scenario::{two_party_scenario, ScenarioConfig};
use ac3_chain::Amount;
use ac3_contracts::{ContractCall, WitnessCall};
use ac3_sim::CrashWindow;
use serde::{Deserialize, Serialize};

/// Configuration of one fork-attack experiment.
#[derive(Debug, Clone)]
pub struct ForkAttackConfig {
    /// Protocol depths and timeouts for the honest portion of the run. The
    /// key knob is `witness_depth` — the `d` the asset contracts demand of
    /// witness-state evidence.
    pub protocol: ProtocolConfig,
    /// Scenario (chains, funding) for the honest portion of the run.
    pub scenario: ScenarioConfig,
    /// Asset Alice locks on chain A (the value the attacker steals if the
    /// attack succeeds).
    pub asset_x: Amount,
    /// Asset Bob locks on chain B (recovered by the attacker on success).
    pub asset_y: Amount,
    /// How many witness-chain blocks the attacker can afford to mine
    /// privately — the attack budget. The paper's Section 6.3 maps this to
    /// dollars via the hourly 51%-attack cost.
    pub attacker_budget_blocks: u64,
}

impl Default for ForkAttackConfig {
    fn default() -> Self {
        ForkAttackConfig {
            protocol: ProtocolConfig {
                witness_depth: 3,
                deployment_depth: 3,
                ..Default::default()
            },
            scenario: ScenarioConfig::default(),
            asset_x: 50,
            asset_y: 80,
            attacker_budget_blocks: 0,
        }
    }
}

/// What happened during a fork-attack experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForkAttackReport {
    /// The depth `d` the asset contracts demanded of witness evidence.
    pub witness_depth: u64,
    /// Blocks the attacker was allowed to mine.
    pub attacker_budget_blocks: u64,
    /// Blocks the attacker would have needed to both win the longest-chain
    /// race outright and bury the refund authorization under `d` blocks.
    /// When the race is the binding constraint, one block fewer ties the
    /// honest chain in height and the smaller tip hash wins the tie.
    pub required_branch_blocks: u64,
    /// Whether the commit decision was reached honestly before the attack.
    pub commit_decided: bool,
    /// Whether the attacker's competing branch became canonical.
    pub reorg_won: bool,
    /// Whether the attacker's refund of his own contract was accepted.
    pub refund_accepted: bool,
    /// Per-edge outcomes after the dust settles (victim recovery included).
    pub edges: Vec<EdgeOutcome>,
    /// The atomicity verdict over those outcomes.
    pub verdict: AtomicityVerdict,
}

impl ForkAttackReport {
    /// Whether the attack achieved its goal: the attacker holds both assets
    /// and all-or-nothing atomicity is violated.
    pub fn attack_succeeded(&self) -> bool {
        self.refund_accepted && !self.verdict.is_atomic()
    }
}

/// Execute one fork-attack experiment against a two-party AC3WN swap.
///
/// The honest prefix is the real [`Ac3wn`] machine, driven until its
/// authorize call is buried under `d` blocks and stopped *before* the poll
/// that would settle both edges. From there the experiment is an explicit
/// linear script that never resumes the machine, because the order of the
/// attacker's redeem, the fork, the refund attempt and the victim's late
/// redeem *is* the experiment.
pub fn execute_fork_attack(cfg: &ForkAttackConfig) -> Result<ForkAttackReport, ProtocolError> {
    let d = cfg.protocol.witness_depth;
    let mut s = two_party_scenario(cfg.asset_x, cfg.asset_y, &cfg.scenario);
    let wait_cap = s.world.delta_ms() * cfg.protocol.wait_cap_deltas;
    let alice = s.participants.get("alice").expect("scenario has alice").address();
    let bob = s.participants.get("bob").expect("scenario has bob").address();
    let witness_chain = s.witness_chain;
    let chain_a = s.asset_chains[0]; // hosts SC1: Alice → Bob, asset_x
    let chain_b = s.asset_chains[1]; // hosts SC2: Bob → Alice, asset_y

    // ---------------------------------------------------------------------
    // Honest protocol up to the buried commit decision.
    // ---------------------------------------------------------------------
    // Bob, the attacker, leaves the registration and its fee to Alice: he is
    // offline for the first instant, so the machine's first-available rule
    // names her. From then on he is the first participant able to act, and
    // submits the authorize call himself.
    s.participants
        .get_mut("bob")
        .expect("scenario has bob")
        .schedule_crash(CrashWindow { from: 0, until: 1 });
    let mut machine = Ac3wn::new(cfg.protocol.clone()).machine(s.graph.clone(), witness_chain);
    let ended_early = drive_until(&mut machine, &mut s.world, &mut s.participants, |m, world| {
        m.authorize_txid().is_some_and(|txid| tx_at_depth(world, witness_chain, &txid, d))
    })?;
    let (Some(scw), Some(witness_anchor), Some(authorize_txid), None) = (
        machine.witness_contract(),
        machine.witness_anchor(),
        machine.authorize_txid(),
        ended_early,
    ) else {
        return Err(ProtocolError::World("honest run ended before a buried decision".to_string()));
    };
    let edges = s.graph.edges().to_vec();
    let deploys: Vec<_> = machine.deployments().iter().flatten().copied().collect();
    let (sc1, sc2) = (deploys[0].1, deploys[1].1);
    let commit_decided =
        matches!(s.world.contract_state(witness_chain, scw), Some((tag, _)) if tag == "RDauth");
    let rd_evidence = ac3wn::decision_evidence(
        &s.world,
        witness_chain,
        &witness_anchor,
        authorize_txid,
        true,
        d,
    )?;

    // The attacker (Bob) redeems SC1, collecting Alice's asset. Alice has
    // not settled SC2 yet — this is the window the attack exploits.
    let (_, redeem_sc1) = ac3wn::settlement_call(true, &edges[0], &rd_evidence);
    let redeem_txid =
        call_contract(&mut s.world, &mut s.participants, &bob, chain_a, sc1, &redeem_sc1)?
            .expect("bob is available");
    s.world.wait_for_inclusion(chain_a, redeem_txid, wait_cap)?;

    // ---------------------------------------------------------------------
    // The attack: rewrite the witness chain below the commit decision.
    // ---------------------------------------------------------------------
    // The refund authorization is submitted first; it is invalid on the
    // canonical branch (SC_w is already RDauth there) so honest miners leave
    // it pending, but on the attacker's branch — which forks below the
    // AuthorizeRedeem block, where SC_w is still P — it executes and is
    // included in the first private block.
    let refund_auth_txid = call_contract(
        &mut s.world,
        &mut s.participants,
        &bob,
        witness_chain,
        scw,
        &ContractCall::Witness(WitnessCall::AuthorizeRefund),
    )?
    .expect("bob is available");

    // Fork geometry: the branch must start below the AuthorizeRedeem block
    // and outgrow the canonical chain.
    let (authorize_block, _) = s
        .world
        .chain(witness_chain)?
        .store()
        .find_canonical_tx(&authorize_txid)
        .ok_or_else(|| ProtocolError::World("authorize tx not canonical".to_string()))?;
    let authorize_height = s
        .world
        .chain(witness_chain)?
        .store()
        .header(&authorize_block)
        .ok_or_else(|| ProtocolError::World("authorize block missing".to_string()))?
        .height;
    let tip_height = s.world.chain(witness_chain)?.height();
    let fork_depth = tip_height - (authorize_height - 1);
    // Winning the longest-chain race needs fork_depth + 1 blocks; burying
    // the refund authorization (included in the first branch block) under d
    // blocks needs d + 1. The attacker needs the larger of the two.
    let required_branch_blocks = (fork_depth + 1).max(d + 1);

    let mut reorg_won = false;
    let mut refund_accepted = false;
    if cfg.attacker_budget_blocks > 0 {
        let branch_length = cfg.attacker_budget_blocks;
        s.world.inject_fork(witness_chain, fork_depth, branch_length)?;
        reorg_won = s.world.chain(witness_chain)?.tx_depth(&refund_auth_txid).is_some();

        if reorg_won {
            // The refund authorization is now canonical; try to use it.
            if let Ok(rf_evidence) = ac3wn::decision_evidence(
                &s.world,
                witness_chain,
                &witness_anchor,
                refund_auth_txid,
                false,
                d,
            ) {
                let (_, refund_sc2) = ac3wn::settlement_call(false, &edges[1], &rf_evidence);
                if let Some(txid) = call_contract(
                    &mut s.world,
                    &mut s.participants,
                    &bob,
                    chain_b,
                    sc2,
                    &refund_sc2,
                )? {
                    let _ = s.world.wait_for_inclusion(chain_b, txid, wait_cap);
                    refund_accepted = matches!(
                        s.world.contract_state(chain_b, sc2),
                        Some((tag, _)) if tag == "RF"
                    );
                }
            }
        }
    }

    // ---------------------------------------------------------------------
    // Victim recovery: Alice comes back and redeems SC2 with the original
    // RDauth evidence — the commitment property — unless the attacker
    // already refunded it out from under her.
    // ---------------------------------------------------------------------
    let (_, redeem_sc2) = ac3wn::settlement_call(true, &edges[1], &rd_evidence);
    if let Some(txid) =
        call_contract(&mut s.world, &mut s.participants, &alice, chain_b, sc2, &redeem_sc2)?
    {
        let _ = s.world.wait_for_inclusion(chain_b, txid, wait_cap);
    }

    let outcomes: Vec<EdgeOutcome> = edges
        .iter()
        .zip(&deploys)
        .map(|(e, (_, contract))| EdgeOutcome {
            edge: *e,
            contract: Some(*contract),
            disposition: edge_disposition(&s.world, e.chain, Some(*contract)),
        })
        .collect();
    let verdict = AtomicityVerdict::from_outcomes(&outcomes);

    Ok(ForkAttackReport {
        witness_depth: d,
        attacker_budget_blocks: cfg.attacker_budget_blocks,
        required_branch_blocks,
        commit_decided,
        reorg_won,
        refund_accepted,
        edges: outcomes,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_budget_means_no_attack_and_an_atomic_commit() {
        let report = execute_fork_attack(&ForkAttackConfig::default()).unwrap();
        assert!(report.commit_decided);
        assert!(!report.reorg_won);
        assert!(!report.refund_accepted);
        assert!(!report.attack_succeeded());
        assert_eq!(report.verdict, AtomicityVerdict::AllRedeemed, "{:?}", report.verdict);
    }

    #[test]
    fn affording_the_full_branch_violates_atomicity() {
        // Probe the geometry, then give the attacker exactly what it needs.
        let probe = execute_fork_attack(&ForkAttackConfig::default()).unwrap();
        let report = execute_fork_attack(&ForkAttackConfig {
            attacker_budget_blocks: probe.required_branch_blocks,
            ..Default::default()
        })
        .unwrap();
        assert!(report.reorg_won, "branch of {} blocks should win", report.attacker_budget_blocks);
        assert!(report.refund_accepted, "refund evidence should be deep enough");
        assert!(report.attack_succeeded());
        assert!(!report.verdict.is_atomic(), "verdict: {}", report.verdict);
    }

    #[test]
    fn an_underfunded_attack_fails_and_the_swap_stays_atomic() {
        let probe = execute_fork_attack(&ForkAttackConfig::default()).unwrap();
        // One block short of winning the longest-chain race.
        let short = probe.required_branch_blocks.saturating_sub(probe.witness_depth + 1).max(1);
        let report = execute_fork_attack(&ForkAttackConfig {
            attacker_budget_blocks: short,
            ..Default::default()
        })
        .unwrap();
        assert!(!report.reorg_won);
        assert!(!report.attack_succeeded());
        assert_eq!(report.verdict, AtomicityVerdict::AllRedeemed);
    }

    #[test]
    fn required_branch_length_grows_with_the_witness_depth() {
        let shallow = execute_fork_attack(&ForkAttackConfig {
            protocol: ProtocolConfig {
                witness_depth: 2,
                deployment_depth: 2,
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap();
        let deep = execute_fork_attack(&ForkAttackConfig {
            protocol: ProtocolConfig {
                witness_depth: 6,
                deployment_depth: 2,
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap();
        assert!(
            deep.required_branch_blocks > shallow.required_branch_blocks,
            "deeper confirmation requirement must force a longer (more expensive) fork: {} vs {}",
            deep.required_branch_blocks,
            shallow.required_branch_blocks
        );
    }
}
