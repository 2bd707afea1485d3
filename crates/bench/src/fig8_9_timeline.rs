//! Figures 8 and 9: per-phase timelines of one AC2T under Herlihy's
//! protocol (sequential deploy then sequential redeem — Figure 8) and under
//! AC3WN (four constant-length phases — Figure 9). Event times are printed
//! in Δ units relative to the start of the swap.
//!
//! The totals are asserted exactly: for the [`PARTICIPANTS`]-contract ring
//! (diameter 5) Herlihy's sequential waves take 2Δ·Diam = 10Δ and AC3WN's
//! four phases take 4Δ.

use crate::{f2, print_table, Record};
use ac3_core::scenario::{ring_scenario, ScenarioConfig};
use ac3_core::{Ac3wn, Herlihy, ProtocolConfig, SwapReport};
use ac3_sim::EventKind;

/// Contracts (and participants) in the ring.
pub const PARTICIPANTS: usize = 5;

fn describe(kind: &EventKind) -> String {
    match kind {
        EventKind::GraphSigned => "graph multisigned".to_string(),
        EventKind::WitnessRegistered => "witness contract SC_w registered".to_string(),
        EventKind::ContractSubmitted { chain, .. } => format!("contract submitted on {chain}"),
        EventKind::ContractPublished { chain, .. } => format!("contract published on {chain}"),
        EventKind::DecisionReached { commit } => {
            format!(
                "decision reached: {}",
                if *commit { "commit (RDauth)" } else { "abort (RFauth)" }
            )
        }
        EventKind::ContractRedeemed { chain, .. } => format!("contract redeemed on {chain}"),
        EventKind::ContractRefunded { chain, .. } => format!("contract refunded on {chain}"),
        EventKind::Note(n) => n.clone(),
    }
}

/// One table row per timeline event: protocol, time in Δ, event.
fn rows_for(report: &SwapReport, label: &str) -> Vec<Vec<String>> {
    report
        .timeline
        .events()
        .iter()
        .map(|e| {
            let at_delta = (e.at.saturating_sub(report.started_at)) as f64 / report.delta_ms as f64;
            vec![label.to_string(), f2(at_delta), describe(&e.kind)]
        })
        .collect()
}

/// Run both protocols on one ring and assert their total latencies.
pub fn run() -> Vec<Record> {
    let cfg = ScenarioConfig::default();
    let protocol_cfg =
        ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() };

    let mut herlihy_scenario = ring_scenario(PARTICIPANTS, 10, &cfg);
    let herlihy =
        Herlihy::new(protocol_cfg.clone()).execute(&mut herlihy_scenario).expect("herlihy");

    let mut ac3wn_scenario = ring_scenario(PARTICIPANTS, 10, &cfg);
    let ac3wn = Ac3wn::new(protocol_cfg).execute(&mut ac3wn_scenario).expect("ac3wn");

    let mut table = rows_for(&herlihy, "Herlihy (Figure 8)");
    table.extend(rows_for(&ac3wn, "AC3WN (Figure 9)"));
    print_table(
        &format!("Figures 8 & 9: phase timeline for a {PARTICIPANTS}-contract AC2T (times in Δ)"),
        &["protocol", "t (Δ)", "event"],
        &table,
    );
    println!(
        "\nHerlihy total: {:.2}Δ (sequential waves); AC3WN total: {:.2}Δ (four parallel phases).",
        herlihy.latency_in_deltas(),
        ac3wn.latency_in_deltas()
    );
    assert_eq!(herlihy.latency_in_deltas(), 10.0, "Herlihy takes 2Δ·Diam = 10Δ on the 5-ring");
    assert_eq!(ac3wn.latency_in_deltas(), 4.0, "AC3WN takes 4Δ");
    Vec::new()
}
