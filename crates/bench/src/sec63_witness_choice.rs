//! Section 6.3: choosing the witness network. For a sweep of asset values
//! `Va`, compute the minimum burial depth `d` that makes a 51% attack on
//! the witness network uneconomical (`d > Va · dh / Ch`), using the paper's
//! constants for Bitcoin (Ch ≈ $300K/hour, dh = 6 blocks/hour), and
//! additionally demonstrate on the simulator that a fork shorter than `d`
//! cannot flip an already-accepted decision. The paper's worked example
//! (Va = $1M ⇒ d = 21) is asserted.

use crate::{f2, print_table, Record};
use ac3_core::actions::edge_disposition;
use ac3_core::analysis::witness_choice;
use ac3_core::scenario::{two_party_scenario, ScenarioConfig};
use ac3_core::{drive, Ac3wn, AtomicityVerdict, EdgeOutcome, ProtocolConfig};

fn fork_resilience_demo() {
    // Run a swap to completion, then inject a fork on the witness chain
    // shallower than the configured depth d, let it win, and re-audit the
    // decision and the settled assets on the forked chains.
    let cfg = ScenarioConfig::default();
    let mut s = two_party_scenario(50, 80, &cfg);
    let protocol_cfg =
        ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() };
    let mut machine = Ac3wn::new(protocol_cfg).machine(s.graph.clone(), s.witness_chain);
    let report = drive(&mut machine, &mut s.world, &mut s.participants).expect("swap");
    assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
    let witness = s.witness_chain;
    let scw = machine.witness_contract().expect("AC3WN deploys SC_w");
    let before = s.world.chain(witness).unwrap().height();

    // A 3-block adversarial branch off the block 2 below the tip (a fork
    // 2 deep, < d = 3 confirmations the contracts demanded) outgrows the
    // honest tip and becomes canonical.
    let branch = s.world.inject_fork(witness, 2, 3).expect("fork injection");
    let chain = s.world.chain(witness).unwrap();
    assert_eq!(chain.tip(), *branch.last().unwrap(), "the attacker's branch is canonical");
    assert_eq!(chain.height(), before + 1);
    let (scw_state, _) = s.world.contract_state(witness, scw).expect("SC_w survives the fork");
    assert_eq!(scw_state, "RDauth", "the decision predates the fork point");
    s.world.assert_state_integrity();

    let edges: Vec<EdgeOutcome> = report
        .edges
        .iter()
        .map(|e| EdgeOutcome {
            disposition: edge_disposition(&s.world, e.edge.chain, e.contract),
            ..*e
        })
        .collect();
    let after_verdict = AtomicityVerdict::from_outcomes(&edges);
    assert_eq!(after_verdict, AtomicityVerdict::AllRedeemed);
    println!(
        "\nFork-resilience demo: witness chain forked 2 blocks below height {before} and a \
         3-block branch won; SC_w still reads {scw_state} and the re-audited swap verdict is \
         '{after_verdict}', because both asset contracts only accepted evidence buried ≥ d blocks."
    );
}

/// Tabulate the required depth and run the fork-resilience demo.
pub fn run() -> Vec<Record> {
    let hourly_cost = 300_000.0; // the paper's Bitcoin figure
    let blocks_per_hour = 6.0;
    let asset_values =
        [10_000.0, 50_000.0, 100_000.0, 500_000.0, 1_000_000.0, 5_000_000.0, 10_000_000.0];

    let table: Vec<Vec<String>> = asset_values
        .iter()
        .map(|va| {
            let d = witness_choice::required_depth(*va, hourly_cost, blocks_per_hour);
            let cost = witness_choice::attack_cost(d, hourly_cost, blocks_per_hour);
            vec![format!("${va}"), d.to_string(), format!("${}", f2(cost))]
        })
        .collect();
    print_table(
        "Section 6.3: required decision depth d vs value at risk (Bitcoin witness: Ch=$300K/h, dh=6)",
        &["asset value Va", "required depth d", "attack cost at d"],
        &table,
    );
    let worked = witness_choice::required_depth(1_000_000.0, hourly_cost, blocks_per_hour);
    println!(
        "\nPaper's worked example: Va = $1M ⇒ d > (1M·6)/300K = 20, i.e. d = {worked} — matches the row above."
    );
    assert_eq!(worked, 21, "the paper's worked example: d > 20");

    fork_resilience_demo();
    Vec::new()
}
