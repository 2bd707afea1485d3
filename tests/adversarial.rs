//! Adversarial integration tests: participants who deviate from the AC3WN
//! protocol must not be able to break all-or-nothing atomicity or steal
//! locked assets.
//!
//! These tests run the real `Ac3wn` machine up to a stated point
//! (`drive_until`) and continue by hand, so a malicious step can be inserted
//! there: forged or mismatched witness evidence, settlement attempts before
//! any decision exists, decision requests with incomplete deployment
//! evidence, double redemption, a payload built to exhaust the decoder's
//! stack, and the rented-hash-power fork attack of Section 6.3. Honest
//! specs, calls and evidence come from the `ac3wn` builders; only what an
//! adversary forges is written out.

use ac3wn::chain::{coinbase, Block, BlockHeader, ChainError, VmError};
use ac3wn::contracts::{
    ContractCall, ExpectedContract, PermissionlessCall, WitnessCall, WitnessStateEvidence,
};
use ac3wn::core::ac3wn::{authorize_call, decision_evidence, settlement_call, witness_spec};
use ac3wn::core::actions::{call_contract, deploy_contract};
use ac3wn::core::attack::{execute_fork_attack, ForkAttackConfig};
use ac3wn::core::drive_until;
use ac3wn::crypto::WitnessState;
use ac3wn::prelude::*;

const WITNESS_DEPTH: u64 = 3;
const DEPLOY_DEPTH: u64 = 3;

/// A two-party swap world halted right after parallel deployment: both asset
/// contracts are published and stable, the witness contract is registered,
/// but no decision has been requested yet.
struct DeployedSwap {
    scenario: Scenario,
    alice: Address,
    bob: Address,
    witness_contract: ContractId,
    witness_registration_tx: TxId,
    witness_anchor: ac3wn::contracts::ChainAnchor,
    expected: Vec<ExpectedContract>,
    /// `(txid, contract)` per edge: edge 0 is Alice→Bob on chain A, edge 1
    /// is Bob→Alice on chain B.
    deployments: Vec<(TxId, ContractId)>,
}

fn deployed_two_party_swap() -> DeployedSwap {
    let mut scenario = two_party_scenario(50, 80, &ScenarioConfig::default());
    let alice = scenario.participants.get("alice").unwrap().address();
    let bob = scenario.participants.get("bob").unwrap().address();
    let edges = scenario.graph.edges().to_vec();

    // The honest machine, stopped before the poll that would see both
    // deployments deep and request the decision.
    let cfg = ProtocolConfig {
        witness_depth: WITNESS_DEPTH,
        deployment_depth: DEPLOY_DEPTH,
        ..Default::default()
    };
    let mut machine = Ac3wn::new(cfg).machine(scenario.graph.clone(), scenario.witness_chain);
    let finished =
        drive_until(&mut machine, &mut scenario.world, &mut scenario.participants, |m, world| {
            m.deployments().len() == edges.len()
                && m.deployments().iter().zip(&edges).all(|(deployed, e)| {
                    let depth =
                        deployed.and_then(|(txid, _)| world.chain(e.chain).ok()?.tx_depth(&txid));
                    depth.is_some_and(|got| got >= DEPLOY_DEPTH)
                })
        })
        .unwrap();
    assert!(finished.is_none(), "the swap must stop undecided");
    let witness_contract = machine.witness_contract().expect("SC_w is registered");

    DeployedSwap {
        scenario,
        alice,
        bob,
        witness_contract,
        // A contract's id is the id of the transaction that deployed it.
        witness_registration_tx: TxId(witness_contract.0),
        witness_anchor: machine.witness_anchor().expect("registration is buried"),
        expected: machine.expected_contracts().to_vec(),
        deployments: machine.deployments().iter().flatten().copied().collect(),
    }
}

fn contract_tag(scenario: &Scenario, chain: ChainId, contract: ContractId) -> String {
    scenario.world.contract_state(chain, contract).map(|(tag, _)| tag).unwrap_or_default()
}

/// A genesis-anchored [`ChainAnchor`] for `chain` — always canonical, so any
/// canonical transaction of that chain can be wrapped in (structurally
/// valid but semantically forged) evidence against it.
fn genesis_anchor(world: &World, chain: ChainId) -> ac3wn::contracts::ChainAnchor {
    let genesis = world
        .chain(chain)
        .unwrap()
        .store()
        .canonical_block_at_height(0)
        .expect("every chain has a genesis block");
    ac3wn::contracts::ChainAnchor { chain, hash: genesis, height: 0 }
}

#[test]
fn settlement_before_any_decision_is_rejected() {
    // Bob tries to redeem Alice's contract using "evidence" that is merely
    // the witness contract's *registration* transaction — no authorize call
    // has happened, so there is nothing to prove.
    let mut swap = deployed_two_party_swap();
    let chain_a = swap.scenario.asset_chains[0];
    let (_, sc1) = swap.deployments[0];

    // The "evidence" wraps the witness contract's *registration* transaction
    // (anchored at the witness chain's genesis so it is structurally
    // well-formed) — but no authorize call has happened, so there is nothing
    // it can prove.
    let registration_evidence = {
        let anchor = genesis_anchor(&swap.scenario.world, swap.scenario.witness_chain);
        swap.scenario
            .world
            .tx_evidence_since(swap.scenario.witness_chain, &anchor, swap.witness_registration_tx)
            .expect("registration is canonical")
    };
    let bogus = WitnessStateEvidence {
        claimed: WitnessState::RedeemAuthorized,
        inclusion: registration_evidence,
    };
    let call = ContractCall::Permissionless(PermissionlessCall::Redeem { evidence: bogus });
    let txid = call_contract(
        &mut swap.scenario.world,
        &mut swap.scenario.participants,
        &swap.bob,
        chain_a,
        sc1,
        &call,
    )
    .unwrap()
    .expect("bob can submit the call");
    // The call is submitted but never included: miners reject it because the
    // evidence does not prove an authorize call.
    swap.scenario.world.advance(swap.scenario.world.delta_ms() * 2);
    assert_eq!(swap.scenario.world.chain(chain_a).unwrap().tx_depth(&txid), None);
    assert_eq!(contract_tag(&swap.scenario, chain_a, sc1), "P", "asset must stay locked");
}

#[test]
fn evidence_from_a_different_witness_contract_is_rejected() {
    // Mallory registers her own witness contract, immediately authorizes a
    // refund on it, and tries to use that RFauth evidence to pull Alice's
    // asset contract (which is conditioned on the real SC_w) back to Alice.
    let mut swap = deployed_two_party_swap();
    let witness_chain = swap.scenario.witness_chain;
    let chain_a = swap.scenario.asset_chains[0];
    let (_, sc1) = swap.deployments[0];
    let wait_cap = swap.scenario.world.delta_ms() * 12;

    let rogue_spec =
        witness_spec(&swap.scenario.graph, Hash256::digest(b"a different graph"), &swap.expected);
    let (rogue_reg, rogue_scw) = deploy_contract(
        &mut swap.scenario.world,
        &mut swap.scenario.participants,
        &swap.alice,
        witness_chain,
        &rogue_spec,
        0,
    )
    .unwrap()
    .expect("rogue witness contract deploys");
    swap.scenario.world.wait_for_depth(witness_chain, rogue_reg, WITNESS_DEPTH, wait_cap).unwrap();

    let rogue_refund = call_contract(
        &mut swap.scenario.world,
        &mut swap.scenario.participants,
        &swap.alice,
        witness_chain,
        rogue_scw,
        &ContractCall::Witness(WitnessCall::AuthorizeRefund),
    )
    .unwrap()
    .expect("authorize refund on the rogue contract");
    swap.scenario
        .world
        .wait_for_depth(witness_chain, rogue_refund, WITNESS_DEPTH, wait_cap)
        .unwrap();

    // Honestly built evidence — of the wrong contract's decision.
    let rogue_evidence = decision_evidence(
        &swap.scenario.world,
        witness_chain,
        &swap.witness_anchor,
        rogue_refund,
        false,
        WITNESS_DEPTH,
    )
    .expect("rogue refund is canonical");
    let (_, refund_call) = settlement_call(false, &swap.scenario.graph.edges()[0], &rogue_evidence);
    let txid = call_contract(
        &mut swap.scenario.world,
        &mut swap.scenario.participants,
        &swap.alice,
        chain_a,
        sc1,
        &refund_call,
    )
    .unwrap()
    .expect("alice can submit the refund attempt");
    swap.scenario.world.advance(swap.scenario.world.delta_ms() * 2);
    assert_eq!(
        swap.scenario.world.chain(chain_a).unwrap().tx_depth(&txid),
        None,
        "a refund justified by a different witness contract must never be mined"
    );
    assert_eq!(contract_tag(&swap.scenario, chain_a, sc1), "P");
}

#[test]
fn claimed_state_must_match_the_authorize_call() {
    // A real AuthorizeRedeem is recorded, but the adversary claims it proves
    // RFauth and submits it to the refund path of her own contract — trying
    // to get her asset back after the swap committed.
    let mut swap = deployed_two_party_swap();
    let witness_chain = swap.scenario.witness_chain;
    let chain_a = swap.scenario.asset_chains[0];
    let (_, sc1) = swap.deployments[0];
    let wait_cap = swap.scenario.world.delta_ms() * 12;

    let deployments: Vec<_> = swap.deployments.iter().copied().map(Some).collect();
    let authorize_redeem =
        authorize_call(&swap.scenario.world, true, &swap.expected, &deployments).unwrap();
    let authorize = call_contract(
        &mut swap.scenario.world,
        &mut swap.scenario.participants,
        &swap.bob,
        witness_chain,
        swap.witness_contract,
        &authorize_redeem,
    )
    .unwrap()
    .expect("authorize redeem");
    swap.scenario.world.wait_for_depth(witness_chain, authorize, WITNESS_DEPTH, wait_cap).unwrap();

    let lying_evidence = WitnessStateEvidence {
        claimed: WitnessState::RefundAuthorized,
        inclusion: swap
            .scenario
            .world
            .tx_evidence_since(witness_chain, &swap.witness_anchor, authorize)
            .unwrap(),
    };
    let refund_call =
        ContractCall::Permissionless(PermissionlessCall::Refund { evidence: lying_evidence });
    let txid = call_contract(
        &mut swap.scenario.world,
        &mut swap.scenario.participants,
        &swap.alice,
        chain_a,
        sc1,
        &refund_call,
    )
    .unwrap()
    .expect("alice can submit the lying refund");
    swap.scenario.world.advance(swap.scenario.world.delta_ms() * 2);
    assert_eq!(swap.scenario.world.chain(chain_a).unwrap().tx_depth(&txid), None);
    assert_eq!(contract_tag(&swap.scenario, chain_a, sc1), "P");
}

#[test]
fn authorize_redeem_requires_evidence_for_every_contract() {
    // Only one of the two expected asset contracts is backed by evidence in
    // the state-change request: the witness network must refuse to commit.
    let mut swap = deployed_two_party_swap();
    let witness_chain = swap.scenario.witness_chain;
    let wait_cap = swap.scenario.world.delta_ms() * 6;

    let partial_evidence = vec![swap
        .scenario
        .world
        .tx_evidence_since(swap.expected[0].chain, &swap.expected[0].anchor, swap.deployments[0].0)
        .unwrap()];
    let authorize = call_contract(
        &mut swap.scenario.world,
        &mut swap.scenario.participants,
        &swap.bob,
        witness_chain,
        swap.witness_contract,
        &ContractCall::Witness(WitnessCall::AuthorizeRedeem { deployments: partial_evidence }),
    )
    .unwrap()
    .expect("submit the under-evidenced authorize");
    // The call never makes it into a block; SC_w stays undecided.
    assert!(swap.scenario.world.wait_for_depth(witness_chain, authorize, 0, wait_cap).is_err());
    assert_eq!(contract_tag(&swap.scenario, witness_chain, swap.witness_contract), "P");
}

#[test]
fn a_payload_nested_a_million_deep_is_rejected_and_the_chain_mines_on() {
    // The codec's version byte followed by a megabyte of `[`: a decoder that
    // recursed once per bracket would overflow its stack and take the
    // process down. It has to be an ordinary malformed payload instead.
    let mut swap = deployed_two_party_swap();
    let witness_chain = swap.scenario.witness_chain;
    let now = swap.scenario.world.now();
    let mut payload = vec![1u8];
    payload.resize(1 + (1 << 20), b'[');
    let bomb = swap.scenario.participants.get_mut("bob").unwrap().builder(witness_chain).call(
        swap.witness_contract,
        payload,
        2,
    );
    let refund = swap.scenario.participants.get_mut("alice").unwrap().builder(witness_chain).call(
        swap.witness_contract,
        ContractCall::Witness(WitnessCall::AuthorizeRefund).to_payload(),
        2,
    );
    let chain = swap.scenario.world.chain_mut(witness_chain).unwrap();

    // The miner is the first to decode it, and leaves it out of the block.
    chain.submit(bomb.clone()).unwrap();
    let mined = chain.mine_block(swap.bob, now).unwrap();
    assert_eq!(mined.find_tx(&bomb.id()), None);
    assert!(chain.mempool_contains(&bomb.id()));

    // A block that carries it anyway is refused by every validator.
    let height = chain.height() + 1;
    let transactions = vec![coinbase(swap.bob, chain.params().block_reward, height), bomb.clone()];
    let header = BlockHeader {
        chain: witness_chain,
        parent: chain.tip(),
        tx_root: Block::compute_tx_root(&transactions),
        height,
        timestamp: now,
        target: chain.params().target(),
        nonce: 0,
    };
    let refused = chain.accept_block(Block { header, transactions }).unwrap_err();
    assert!(matches!(refused, ChainError::Vm(VmError::MalformedPayload(_))), "{refused:?}");
    assert_eq!(chain.height(), height - 1);

    // With the bomb still pending, well-formed calls keep getting mined.
    chain.submit(refund.clone()).unwrap();
    let mined = chain.mine_block(swap.bob, now).unwrap();
    assert!(mined.find_tx(&refund.id()).is_some());
    assert_eq!(mined.find_tx(&bomb.id()), None);
    assert_eq!(contract_tag(&swap.scenario, witness_chain, swap.witness_contract), "RFauth");
}

#[test]
fn committed_contracts_cannot_be_redeemed_twice() {
    // Run the full honest protocol, then replay the recipient's redeem call:
    // the contract must stay in RD and no second payout may be minted.
    let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
    let bob = s.participants.get("bob").unwrap().address();
    let chain_a = s.asset_chains[0];
    let cfg = ProtocolConfig {
        witness_depth: WITNESS_DEPTH,
        deployment_depth: DEPLOY_DEPTH,
        ..Default::default()
    };
    let report = Ac3wn::new(cfg).execute(&mut s).unwrap();
    assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);

    let sc1 = report.edges[0].contract.unwrap();
    let balance_after_swap = s.world.chain(chain_a).unwrap().balance_of(&bob);

    // Replay: any further redeem call (even with valid-looking evidence) is
    // rejected because the contract is no longer in state P. We reuse the
    // simplest possible payload — the call is refused before evidence
    // inspection matters.
    let replay = ContractCall::Permissionless(PermissionlessCall::Redeem {
        evidence: WitnessStateEvidence {
            claimed: WitnessState::RedeemAuthorized,
            inclusion: {
                let anchor = genesis_anchor(&s.world, chain_a);
                s.world
                    .tx_evidence_since(chain_a, &anchor, TxId(sc1.0))
                    .expect("SC1's deployment is canonical")
            },
        },
    });
    let txid = call_contract(&mut s.world, &mut s.participants, &bob, chain_a, sc1, &replay)
        .unwrap()
        .expect("bob can submit the replay");
    s.world.advance(s.world.delta_ms() * 2);
    assert_eq!(s.world.chain(chain_a).unwrap().tx_depth(&txid), None, "replay is never mined");
    assert_eq!(
        s.world.chain(chain_a).unwrap().balance_of(&bob),
        balance_after_swap,
        "no second payout"
    );
    assert_eq!(
        s.world.contract_state(chain_a, sc1).unwrap().0,
        "RD",
        "contract stays redeemed exactly once"
    );
}

#[test]
fn fork_attack_needs_a_budget_larger_than_the_confirmation_depth() {
    // End-to-end sanity of the Section 6.3 experiment from the integration
    // level: an attacker who cannot afford to out-mine the confirmation
    // depth cannot break atomicity; one who can, does — which is why d must
    // be chosen so that the required budget costs more than the assets.
    let underfunded =
        execute_fork_attack(&ForkAttackConfig { attacker_budget_blocks: 2, ..Default::default() })
            .unwrap();
    assert!(!underfunded.attack_succeeded());
    assert!(underfunded.verdict.is_atomic());

    let probe_required = underfunded.required_branch_blocks;
    let funded = execute_fork_attack(&ForkAttackConfig {
        attacker_budget_blocks: probe_required,
        ..Default::default()
    })
    .unwrap();
    assert!(funded.attack_succeeded());
    assert!(!funded.verdict.is_atomic());
    assert!(
        funded.attacker_budget_blocks > underfunded.witness_depth,
        "a successful rewrite always costs more blocks than the confirmation depth"
    );
}
