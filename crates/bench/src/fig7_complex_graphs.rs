//! Experiment E7 (Figure 7, Section 5.3): complex AC2T graphs.
//!
//! Herlihy's single-leader protocol cannot execute disconnected graphs (and
//! fails on cyclic graphs that stay cyclic after removing every candidate
//! leader); Herlihy's multi-leader variant recovers the cyclic cases but
//! still cannot express disconnected graphs; AC3WN executes any graph shape
//! because the commit decision does not depend on a participant ordering.
//! All three statements are asserted on every graph of the table.

use crate::{f2, print_table, Record};
use ac3_chain::ChainParams;
use ac3_core::scenario::{
    concurrent_custom_swaps, custom_scenario, figure7a_scenario, figure7b_scenario, ScenarioConfig,
};
use ac3_core::{
    Ac3wn, Herlihy, HerlihyMulti, ProtocolConfig, ProtocolError, Scheduler, SwapMachine,
};
use ac3_sim::SwapId;
struct GraphRow {
    graph: String,
    shape: String,
    herlihy: String,
    herlihy_multi: String,
    ac3wn: String,
}

fn run_case(name: &str, build: impl Fn() -> ac3_core::Scenario) -> GraphRow {
    let protocol_cfg =
        ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() };

    let mut herlihy_scenario = build();
    let shape = format!("{:?}", herlihy_scenario.graph.shape());
    let herlihy = match Herlihy::new(protocol_cfg.clone()).execute(&mut herlihy_scenario) {
        Ok(report) => format!("{}", report.verdict()),
        Err(ProtocolError::UnsupportedGraph(_)) => "UNSUPPORTED".to_string(),
        Err(e) => format!("error: {e}"),
    };

    let mut multi_scenario = build();
    let herlihy_multi = match HerlihyMulti::new(protocol_cfg.clone()).execute(&mut multi_scenario) {
        Ok(report) => format!("{}", report.verdict()),
        Err(ProtocolError::UnsupportedGraph(_)) => "UNSUPPORTED".to_string(),
        Err(e) => format!("error: {e}"),
    };

    let mut ac3wn_scenario = build();
    let ac3wn = match Ac3wn::new(protocol_cfg).execute(&mut ac3wn_scenario) {
        Ok(report) => format!("{}", report.verdict()),
        Err(e) => format!("error: {e}"),
    };

    GraphRow { graph: name.to_string(), shape, herlihy, herlihy_multi, ac3wn }
}

/// Run every graph under every protocol, then the mixed batch.
pub fn run() -> Vec<Record> {
    let cfg = ScenarioConfig::default();
    let rows = [
        run_case("two-party swap (Figure 4)", || {
            custom_scenario(&["alice", "bob"], &[(0, 1, 50), (1, 0, 80)], &cfg)
        }),
        run_case("cyclic 3-party ring (Figure 7a)", || figure7a_scenario(&cfg)),
        run_case("disconnected 2×2 swap (Figure 7b)", || figure7b_scenario(&cfg)),
        run_case("two independent cycles (no valid leader)", || {
            custom_scenario(
                &["a", "b", "c", "d"],
                &[(0, 1, 1), (1, 0, 2), (2, 3, 3), (3, 2, 4)],
                &cfg,
            )
        }),
        run_case("bridged double cycle (no single leader, connected)", || {
            custom_scenario(
                &["a", "b", "c", "d"],
                &[(0, 1, 10), (1, 0, 20), (2, 3, 30), (3, 2, 40), (1, 2, 50)],
                &cfg,
            )
        }),
        run_case("five-party supply-chain ring", || {
            custom_scenario(
                &["manufacturer", "shipper", "retailer", "insurer", "bank"],
                &[(0, 1, 40), (1, 2, 40), (2, 3, 15), (3, 4, 10), (4, 0, 90)],
                &cfg,
            )
        }),
    ];

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.graph.clone(),
                r.shape.clone(),
                r.herlihy.clone(),
                r.herlihy_multi.clone(),
                r.ac3wn.clone(),
            ]
        })
        .collect();
    print_table(
        "Figure 7 / Section 5.3: protocol support for complex AC2T graphs",
        &["graph", "shape", "Herlihy (single leader)", "Herlihy (multi-leader)", "AC3WN"],
        &table,
    );
    println!(
        "\nExpected shape: the single-leader baseline cannot execute disconnected graphs or cyclic \
         graphs without a valid leader; the multi-leader variant recovers connected cyclic graphs \
         but still rejects disconnected ones; AC3WN commits every graph atomically."
    );
    let committed = "all-redeemed (committed)";
    for r in &rows {
        let disconnected = r.shape == "Disconnected";
        assert_eq!(r.ac3wn, committed, "{}: AC3WN commits every graph", r.graph);
        let multi = if disconnected { "UNSUPPORTED" } else { committed };
        assert_eq!(r.herlihy_multi, multi, "{}: multi-leader rejects only disconnected", r.graph);
        if disconnected || r.herlihy != committed {
            assert_eq!(r.herlihy, "UNSUPPORTED", "{}: single leader rejects, never fails", r.graph);
        }
    }
    // ------------------------------------------------------------------
    // Bonus: the complex graphs above do not need a private world each —
    // every protocol is a step/poll machine, so a multi-leader bridged
    // double cycle, a single-leader cycle and an AC3WN two-party swap all
    // interleave under one scheduler over shared chains.
    // ------------------------------------------------------------------
    let protocol_cfg =
        ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() };
    let graphs = vec![
        vec![(0, 1, 50), (1, 0, 80)], // AC3WN
        vec![(0, 1, 10), (1, 0, 20), (2, 3, 30), (3, 2, 40), (1, 2, 50)], // Herlihy-multi
        vec![(0, 1, 10), (1, 2, 20), (2, 0, 30)], // Herlihy
    ];
    let asset_params = (0..5).map(|i| ChainParams::fast(&format!("asset-{i}"), 1_000)).collect();
    let mut s = concurrent_custom_swaps(
        &graphs,
        asset_params,
        vec![ChainParams::fast("witness", 1_000)],
        1_000,
    );
    let ac3wn = Ac3wn::new(protocol_cfg.clone());
    let multi = HerlihyMulti::new(protocol_cfg.clone());
    let single = Herlihy::new(protocol_cfg);
    let machines: Vec<(SwapId, Box<dyn SwapMachine>)> = vec![
        (s.swaps[0].id, Box::new(ac3wn.machine(s.swaps[0].graph.clone(), s.swaps[0].witness))),
        (s.swaps[1].id, Box::new(multi.machine(s.swaps[1].graph.clone()).expect("supported"))),
        (s.swaps[2].id, Box::new(single.machine(s.swaps[2].graph.clone()).expect("supported"))),
    ];
    let batch = Scheduler::default().run(&mut s.world, &mut s.participants, machines);
    assert_eq!(batch.failed(), 0, "mixed complex-graph batch must not error");
    assert!(batch.all_atomic(), "mixed complex-graph batch must stay atomic");
    let mixed: Vec<Vec<String>> = batch
        .reports()
        .map(|(id, r)| {
            vec![
                format!("{id}"),
                r.protocol.to_string(),
                format!("{}", r.verdict()),
                f2(r.latency_in_deltas()),
            ]
        })
        .collect();
    print_table(
        "Mixed-protocol scheduler batch (shared chains, one witness chain)",
        &["swap", "protocol", "verdict", "latency (Δ)"],
        &mixed,
    );
    Vec::new()
}
