//! Experiment E6 (Section 1's "case against the current proposals" and the
//! Lemma 5.1 guarantee): atomicity of a two-party swap under crash
//! failures, for all four protocols.
//!
//! Scenarios:
//! * `no-fault` — everything is honest and available;
//! * `crash-before-deploy` — the counterparty crashes before publishing its
//!   contract and never returns during the run;
//! * `crash-before-redeem` — the counterparty crashes after the contracts
//!   are published but before redeeming, and recovers only long after every
//!   timelock has expired (the paper's motivating failure).
//!
//! Expected shape: the hashlock/timelock baselines (Nolan, Herlihy) lose
//! atomicity in the `crash-before-redeem` scenario — the crashed participant
//! ends up worse off — while AC3TW and AC3WN stay atomic in every scenario.
//! Asserted exactly: `crash-before-redeem` is VIOLATED for Nolan, Herlihy
//! and Herlihy-multi, and every other cell is atomic.

use crate::{print_table, Record};
use ac3_core::scenario::{two_party_scenario, ScenarioConfig};
use ac3_core::{
    Ac3tw, Ac3wn, Herlihy, HerlihyMulti, Nolan, ProtocolConfig, ProtocolKind, SwapReport,
};
use ac3_sim::CrashWindow;

#[derive(Clone, Copy, PartialEq)]
enum FaultScenario {
    NoFault,
    CrashBeforeDeploy,
    CrashBeforeRedeem,
}

impl FaultScenario {
    fn name(&self) -> &'static str {
        match self {
            FaultScenario::NoFault => "no-fault",
            FaultScenario::CrashBeforeDeploy => "crash-before-deploy",
            FaultScenario::CrashBeforeRedeem => "crash-before-redeem",
        }
    }

    fn crash_window(&self) -> Option<CrashWindow> {
        match self {
            FaultScenario::NoFault => None,
            // Crashed from the very start, for the entire run.
            FaultScenario::CrashBeforeDeploy => Some(CrashWindow { from: 0, until: 10_000_000 }),
            // Crashed after deployment (Δ = 4 s, deployments finish ~8 s in)
            // and until far past every timelock.
            FaultScenario::CrashBeforeRedeem => {
                Some(CrashWindow { from: 9_000, until: 10_000_000 })
            }
        }
    }
}

fn execute(protocol: ProtocolKind, scenario_kind: FaultScenario) -> SwapReport {
    let cfg = ScenarioConfig::default();
    let protocol_cfg =
        ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() };
    let mut s = two_party_scenario(50, 80, &cfg);
    let alice = s.participants.get("alice").unwrap().address();
    // The paper's motivating failure crashes the participant who redeems
    // *last* (the non-leader). Alice leads Nolan/Herlihy below, so Bob is
    // the crash target; the multi-leader variant derives its leader set from
    // the graph, so crash whichever participant is not a leader.
    let crash_target = if protocol == ProtocolKind::HerlihyMulti {
        let leaders = HerlihyMulti::supports_graph(&s.graph).expect("two-party graph supported");
        let bob_addr = s.participants.get("bob").unwrap().address();
        if leaders.contains(&bob_addr) {
            "alice"
        } else {
            "bob"
        }
    } else {
        "bob"
    };
    if let Some(window) = scenario_kind.crash_window() {
        s.participants.get_mut(crash_target).unwrap().schedule_crash(window);
    }
    match protocol {
        ProtocolKind::Nolan => Nolan::new(protocol_cfg).execute(&mut s).expect("nolan"),
        ProtocolKind::Herlihy => {
            let driver = Herlihy::with_leader(protocol_cfg, alice);
            driver.execute(&mut s).expect("herlihy")
        }
        ProtocolKind::HerlihyMulti => {
            HerlihyMulti::new(protocol_cfg).execute(&mut s).expect("herlihy-multi")
        }
        ProtocolKind::Ac3Tw => Ac3tw::new(protocol_cfg).execute(&mut s).expect("ac3tw"),
        ProtocolKind::Ac3Wn => Ac3wn::new(protocol_cfg).execute(&mut s).expect("ac3wn"),
    }
}

/// Run every protocol under every fault and assert which ones break.
pub fn run() -> Vec<Record> {
    let protocols = [
        ProtocolKind::Nolan,
        ProtocolKind::Herlihy,
        ProtocolKind::HerlihyMulti,
        ProtocolKind::Ac3Tw,
        ProtocolKind::Ac3Wn,
    ];
    let scenarios = [
        FaultScenario::NoFault,
        FaultScenario::CrashBeforeDeploy,
        FaultScenario::CrashBeforeRedeem,
    ];

    let mut table = Vec::new();
    for protocol in protocols {
        for scenario in scenarios {
            let report = execute(protocol, scenario);
            let verdict = report.verdict();
            let timelocked = !matches!(protocol, ProtocolKind::Ac3Tw | ProtocolKind::Ac3Wn);
            assert_eq!(
                verdict.is_atomic(),
                !(timelocked && scenario == FaultScenario::CrashBeforeRedeem),
                "{protocol} under {}: {verdict}",
                scenario.name()
            );
            table.push(vec![
                protocol.to_string(),
                scenario.name().to_string(),
                if verdict.is_atomic() { "yes" } else { "VIOLATED" }.to_string(),
                verdict.is_committed().to_string(),
                verdict.to_string(),
            ]);
        }
    }

    print_table(
        "E6: atomicity of a two-party swap under crash failures",
        &["protocol", "scenario", "atomic", "committed", "verdict"],
        &table,
    );
    println!(
        "\nExpected shape (paper, Section 1 + Lemma 5.1): Nolan and Herlihy violate all-or-nothing \
         when the redeemer crashes past its timelock; AC3TW and AC3WN never do."
    );
    Vec::new()
}
