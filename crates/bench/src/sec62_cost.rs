//! Section 6.2: the monetary cost overhead of AC3WN over Herlihy's protocol
//! as the number of contracts N in the AC2T grows. Both the closed-form
//! model (N vs N+1 contracts, each costing fd + ffc) and the fees actually
//! charged by the simulated chains are reported, plus the paper's dollar
//! estimate of the overhead at two ETH/USD rates.
//!
//! The measured fees must equal the model exactly: AC3WN pays Herlihy's fee
//! plus one contract deployment and one call, `fd + ffc` (6 units on the
//! default chains), at every N from 2 to [`MAX_CONTRACTS`].

use crate::{f2, print_table, Record};
use ac3_core::analysis::cost;
use ac3_core::scenario::{ring_scenario, ScenarioConfig};
use ac3_core::{Ac3wn, Herlihy, ProtocolConfig};

/// The largest number of contracts swept.
pub const MAX_CONTRACTS: usize = 8;

struct CostRow {
    contracts: u64,
    herlihy_model_fee: u64,
    herlihy_measured_fee: u64,
    ac3wn_model_fee: u64,
    ac3wn_measured_fee: u64,
    overhead_ratio: f64,
}

/// Run the sweep and assert the measured fees equal the model.
pub fn run() -> Vec<Record> {
    let cfg = ScenarioConfig::default();
    let deploy_fee = cfg.asset_chain_template.deploy_fee;
    let call_fee = cfg.asset_chain_template.call_fee;
    let protocol_cfg =
        ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() };

    let mut rows = Vec::new();
    for n in 2..=MAX_CONTRACTS {
        let mut herlihy_scenario = ring_scenario(n, 10, &cfg);
        let herlihy =
            Herlihy::new(protocol_cfg.clone()).execute(&mut herlihy_scenario).expect("herlihy");
        let mut ac3wn_scenario = ring_scenario(n, 10, &cfg);
        let ac3wn = Ac3wn::new(protocol_cfg.clone()).execute(&mut ac3wn_scenario).expect("ac3wn");

        rows.push(CostRow {
            contracts: n as u64,
            herlihy_model_fee: cost::herlihy_fee(n as u64, deploy_fee, call_fee),
            herlihy_measured_fee: herlihy.fees_paid,
            ac3wn_model_fee: cost::ac3wn_fee(n as u64, deploy_fee, call_fee),
            ac3wn_measured_fee: ac3wn.fees_paid,
            overhead_ratio: cost::overhead_ratio(n as u64),
        });
    }
    for r in &rows {
        let n = r.contracts;
        assert_eq!(r.herlihy_measured_fee, r.herlihy_model_fee, "Herlihy fee at N={n}");
        assert_eq!(r.ac3wn_measured_fee, r.ac3wn_model_fee, "AC3WN fee at N={n}");
        assert_eq!(
            r.ac3wn_measured_fee,
            r.herlihy_measured_fee + deploy_fee + call_fee,
            "AC3WN pays for exactly one extra contract and call at N={n}"
        );
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.contracts.to_string(),
                r.herlihy_model_fee.to_string(),
                r.herlihy_measured_fee.to_string(),
                r.ac3wn_model_fee.to_string(),
                r.ac3wn_measured_fee.to_string(),
                f2(r.overhead_ratio),
            ]
        })
        .collect();
    print_table(
        "Section 6.2: AC2T fees (asset units) vs number of contracts N",
        &[
            "N",
            "Herlihy model",
            "Herlihy measured",
            "AC3WN model",
            "AC3WN measured",
            "overhead 1/N",
        ],
        &table,
    );
    println!(
        "\nAC3WN always pays for exactly one extra contract (SC_w) and one extra call: \
         overhead = 1/N of Herlihy's fee."
    );
    println!(
        "Dollar estimate of the overhead (Section 6.2): ≈${} at $300/ETH, ≈${} at $140/ETH.",
        f2(cost::overhead_usd(300.0)),
        f2(cost::overhead_usd(140.0))
    );
    Vec::new()
}
