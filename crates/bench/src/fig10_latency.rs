//! Figure 10 (and Section 6.1): end-to-end AC2T latency, in Δ units, as the
//! transaction-graph diameter grows — Herlihy's single-leader protocol vs
//! AC3WN, both as the paper's analytical model and as measured against the
//! chain simulator.
//!
//! The measured columns must equal the model exactly: Herlihy takes
//! 2Δ·Diam and AC3WN 4Δ at every diameter from 2 to [`MAX_DIAMETER`].

use crate::{f2, print_table, Record};
use ac3_core::analysis::{latency, LatencyRow};
use ac3_core::scenario::{ring_scenario, ScenarioConfig};
use ac3_core::{Ac3wn, Herlihy, ProtocolConfig};

fn measure(diameter: usize) -> (f64, f64) {
    let cfg = ScenarioConfig::default();
    let protocol_cfg =
        ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() };

    let mut herlihy_scenario = ring_scenario(diameter, 10, &cfg);
    let herlihy_report =
        Herlihy::new(protocol_cfg.clone()).execute(&mut herlihy_scenario).expect("herlihy run");
    assert!(herlihy_report.is_atomic(), "herlihy run must stay atomic without faults");

    let mut ac3wn_scenario = ring_scenario(diameter, 10, &cfg);
    let ac3wn_report = Ac3wn::new(protocol_cfg).execute(&mut ac3wn_scenario).expect("ac3wn run");
    assert!(ac3wn_report.is_atomic(), "ac3wn run must stay atomic without faults");

    (herlihy_report.latency_in_deltas(), ac3wn_report.latency_in_deltas())
}

/// The largest graph diameter swept.
pub const MAX_DIAMETER: usize = 8;

/// Run the sweep and assert the measured latencies equal the model.
pub fn run() -> Vec<Record> {
    let mut rows = Vec::new();
    for diameter in 2..=MAX_DIAMETER {
        let (herlihy_measured, ac3wn_measured) = measure(diameter);
        assert_eq!(
            herlihy_measured,
            2.0 * diameter as f64,
            "Herlihy takes 2Δ·Diam at D={diameter}"
        );
        assert_eq!(ac3wn_measured, 4.0, "AC3WN takes a constant 4Δ at D={diameter}");
        rows.push(LatencyRow {
            diameter: diameter as u64,
            herlihy_model: latency::herlihy_deltas(diameter as u64),
            ac3wn_model: latency::ac3wn_deltas(diameter as u64),
            herlihy_measured,
            ac3wn_measured,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.diameter.to_string(),
                r.herlihy_model.to_string(),
                f2(r.herlihy_measured),
                r.ac3wn_model.to_string(),
                f2(r.ac3wn_measured),
            ]
        })
        .collect();
    print_table(
        "Figure 10: AC2T latency (Δ units) vs graph diameter",
        &["Diam(D)", "Herlihy model", "Herlihy measured", "AC3WN model", "AC3WN measured"],
        &table,
    );
    println!(
        "\nShape check: Herlihy grows linearly (2·Δ·Diam), AC3WN stays constant (~4·Δ); \
         they tie at Diam(D) = 2 and AC3WN wins beyond that."
    );
    Vec::new()
}
