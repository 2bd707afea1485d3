//! Integration tests of the concurrent swap scheduler: the step/poll
//! machines must (a) reproduce the legacy blocking drivers exactly at
//! N = 1, (b) keep every swap atomic under a random mix of committing,
//! aborting and crash-recovering swaps running concurrently, and (c) scale
//! to the acceptance workload (64 AC2Ts over 4 shared asset chains plus a
//! shared witness chain) with zero atomicity violations.

use ac3_chain::ChainParams;
use ac3_core::scenario::{
    concurrent_custom_swaps, concurrent_swaps_multi_witness, concurrent_swaps_scenario,
    custom_scenario, two_party_scenario, ScenarioConfig,
};
use ac3_core::{
    Ac3tw, Ac3wn, AtomicityVerdict, Herlihy, HerlihyMulti, MultiSwapScenario, ProtocolConfig,
    Scheduler, SwapMachine,
};
use ac3_sim::{CrashWindow, SwapId};
use proptest::Gen;

fn protocol_cfg() -> ProtocolConfig {
    ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() }
}

fn ac3wn_machines(s: &MultiSwapScenario, driver: &Ac3wn) -> Vec<(SwapId, Box<dyn SwapMachine>)> {
    s.machines_with(|swap| Box::new(driver.machine(swap.graph.clone(), swap.witness)))
}

/// The scheduler with a single machine must reproduce the legacy blocking
/// `execute` bit for bit: same decision, same counters, same timeline.
#[test]
fn n1_batch_is_equivalent_to_blocking_execute() {
    let cfg = ScenarioConfig::default();
    let driver = Ac3wn::new(protocol_cfg());

    let mut legacy = two_party_scenario(50, 80, &cfg);
    let legacy_report = driver.execute(&mut legacy).unwrap();

    let mut scheduled = two_party_scenario(50, 80, &cfg);
    let machine = driver.machine(scheduled.graph.clone(), scheduled.witness_chain);
    let batch = Scheduler::default().run(
        &mut scheduled.world,
        &mut scheduled.participants,
        vec![(SwapId(0), Box::new(machine))],
    );
    let scheduled_report = batch.report_for(SwapId(0)).expect("swap finished");

    assert_eq!(scheduled_report.decision, legacy_report.decision);
    assert_eq!(scheduled_report.verdict(), legacy_report.verdict());
    assert_eq!(scheduled_report.started_at, legacy_report.started_at);
    assert_eq!(scheduled_report.finished_at, legacy_report.finished_at);
    assert_eq!(scheduled_report.delta_ms, legacy_report.delta_ms);
    assert_eq!(scheduled_report.deployments, legacy_report.deployments);
    assert_eq!(scheduled_report.calls, legacy_report.calls);
    assert_eq!(scheduled_report.fees_paid, legacy_report.fees_paid);
    assert_eq!(
        scheduled_report.timeline.events(),
        legacy_report.timeline.events(),
        "per-swap timeline must match the blocking driver's world timeline"
    );
    for (a, b) in scheduled_report.edges.iter().zip(&legacy_report.edges) {
        assert_eq!(a.disposition, b.disposition);
    }
    // Same simulated end time and same fee totals in the two worlds.
    assert_eq!(scheduled.world.fees.total_fees(), legacy.world.fees.total_fees());
}

/// What a randomly drawn swap does during the property test.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    /// Everyone stays up: the swap must commit.
    Fine,
    /// The first sender crashes permanently before deploying: the swap must
    /// abort with every published contract refunded.
    CrashedSender,
    /// A recipient crashes around settlement time and recovers later: the
    /// decision must still be commit and atomicity must hold (AC3WN has no
    /// timelock to race).
    LateRecipient,
}

/// Concurrent-scheduler property test: a random mix of committing, aborting
/// and crash-recovering swaps runs concurrently; every swap must pass the
/// atomicity audit and the incremental chain state must survive intact.
/// Uses the deterministic proptest generator directly so the number of
/// simulated batches stays bounded.
#[test]
fn property_random_fate_mix_stays_atomic() {
    let mut gen = Gen::deterministic("scheduler::property_random_fate_mix_stays_atomic");
    for case in 0..12 {
        let swaps = 2 + gen.below(5) as usize; // 2..=6
        let chains = 2 + gen.below(3) as usize; // 2..=4
        let fates: Vec<Fate> = (0..swaps)
            .map(|_| match gen.below(3) {
                0 => Fate::Fine,
                1 => Fate::CrashedSender,
                _ => Fate::LateRecipient,
            })
            .collect();

        let mut s = concurrent_swaps_scenario(swaps, chains, &ScenarioConfig::default());
        for (i, fate) in fates.iter().enumerate() {
            match fate {
                Fate::Fine => {}
                Fate::CrashedSender => {
                    s.participants
                        .get_mut(&format!("s{i}a"))
                        .unwrap()
                        .schedule_crash(CrashWindow::permanent(0));
                }
                Fate::LateRecipient => {
                    s.participants
                        .get_mut(&format!("s{i}b"))
                        .unwrap()
                        .schedule_crash(CrashWindow { from: 14_000, until: 44_000 });
                }
            }
        }

        let driver = Ac3wn::new(protocol_cfg());
        let machines = ac3wn_machines(&s, &driver);
        let batch = Scheduler::default().run(&mut s.world, &mut s.participants, machines);

        assert_eq!(batch.failed(), 0, "case {case} ({fates:?}): no swap may error");
        assert!(batch.all_atomic(), "case {case} ({fates:?}): atomicity audit failed");
        for (i, fate) in fates.iter().enumerate() {
            let report = batch.report_for(SwapId(i as u64)).unwrap();
            match fate {
                Fate::Fine => assert_eq!(
                    report.decision,
                    Some(true),
                    "case {case}: healthy swap {i} must commit"
                ),
                Fate::CrashedSender => {
                    assert_eq!(
                        report.decision,
                        Some(false),
                        "case {case}: swap {i} with a crashed sender must abort"
                    );
                    assert!(
                        report.verdict() == AtomicityVerdict::AllRefunded
                            || report.verdict().is_atomic()
                    );
                }
                Fate::LateRecipient => assert!(
                    report.is_atomic(),
                    "case {case}: late-recipient swap {i} violated atomicity: {}",
                    report.verdict()
                ),
            }
        }
        s.world.assert_state_integrity();
    }
}

/// The acceptance workload: 64 concurrent AC2Ts over 4 shared asset chains
/// plus one shared witness chain complete with zero atomicity violations,
/// and actually interleave (the batch makespan is far below the sum of the
/// individual latencies).
#[test]
fn sixty_four_concurrent_swaps_over_four_chains_stay_atomic() {
    let mut s = concurrent_swaps_scenario(64, 4, &ScenarioConfig::default());
    let driver = Ac3wn::new(protocol_cfg());
    let machines = ac3wn_machines(&s, &driver);
    let batch = Scheduler::default().run(&mut s.world, &mut s.participants, machines);

    assert_eq!(batch.failed(), 0, "no swap may error");
    assert_eq!(batch.committed(), 64, "all 64 swaps commit");
    assert!(batch.all_atomic(), "zero atomicity violations");

    let latency_sum: u64 = batch.reports().map(|(_, r)| r.latency_ms()).sum();
    assert!(
        batch.makespan_ms() * 4 < latency_sum,
        "makespan {} ms should be far below the serial sum {} ms",
        batch.makespan_ms(),
        latency_sum
    );

    // Every swap paid fees and the attribution covers the full ledger.
    let attributed: u64 = s.swaps.iter().map(|swap| s.world.fees.fees_for_swap(swap.id)).sum();
    assert_eq!(attributed, s.world.fees.total_fees());
    assert!(s.swaps.iter().all(|swap| s.world.fees.fees_for_swap(swap.id) > 0));

    s.world.assert_state_integrity();
}

/// A mixed-protocol batch: AC3WN, AC3TW, Herlihy and Herlihy-multi machines
/// all interleave under one scheduler over one shared world.
#[test]
fn mixed_protocol_batch_interleaves() {
    let mut s = concurrent_swaps_scenario(8, 4, &ScenarioConfig::default());
    let ac3wn = Ac3wn::new(protocol_cfg());
    let ac3tw = Ac3tw::new(protocol_cfg());
    let herlihy = Herlihy::new(protocol_cfg());
    let herlihy_multi = HerlihyMulti::new(protocol_cfg());

    let mut machines: Vec<(SwapId, Box<dyn SwapMachine>)> = Vec::new();
    for (i, swap) in s.swaps.iter().enumerate() {
        let machine: Box<dyn SwapMachine> = match i % 4 {
            0 => Box::new(ac3wn.machine(swap.graph.clone(), swap.witness)),
            1 => Box::new(ac3tw.machine(swap.graph.clone())),
            2 => Box::new(herlihy.machine(swap.graph.clone()).unwrap()),
            _ => Box::new(herlihy_multi.machine(swap.graph.clone()).unwrap()),
        };
        machines.push((swap.id, machine));
    }
    let batch = Scheduler::default().run(&mut s.world, &mut s.participants, machines);

    assert_eq!(batch.failed(), 0);
    assert!(batch.all_atomic());
    for (id, report) in batch.reports() {
        assert!(
            report.verdict().is_committed(),
            "{id} under {} should commit: {}",
            report.protocol,
            report.verdict()
        );
    }
    s.world.assert_state_integrity();
}

/// The scheduler at N = 1 must reproduce `HerlihyMulti::execute` (the
/// `drive()` wrapper) bit for bit: same counters, same timeline events.
#[test]
fn herlihy_multi_n1_batch_is_equivalent_to_blocking_execute() {
    let cfg = ScenarioConfig::default();
    let driver = HerlihyMulti::new(protocol_cfg());
    // The bridged double cycle: multi-leader territory (no single leader).
    let names = ["a", "b", "c", "d"];
    let edges = [(0usize, 1usize, 10u64), (1, 0, 20), (2, 3, 30), (3, 2, 40), (1, 2, 50)];

    let mut legacy = custom_scenario(&names, &edges, &cfg);
    let legacy_report = driver.execute(&mut legacy).unwrap();

    let mut scheduled = custom_scenario(&names, &edges, &cfg);
    let machine = driver.machine(scheduled.graph.clone()).unwrap();
    let batch = Scheduler::default().run(
        &mut scheduled.world,
        &mut scheduled.participants,
        vec![(SwapId(0), Box::new(machine))],
    );
    let scheduled_report = batch.report_for(SwapId(0)).expect("swap finished");

    assert_eq!(scheduled_report.verdict(), legacy_report.verdict());
    assert_eq!(scheduled_report.started_at, legacy_report.started_at);
    assert_eq!(scheduled_report.finished_at, legacy_report.finished_at);
    assert_eq!(scheduled_report.deployments, legacy_report.deployments);
    assert_eq!(scheduled_report.calls, legacy_report.calls);
    assert_eq!(scheduled_report.fees_paid, legacy_report.fees_paid);
    assert_eq!(
        scheduled_report.timeline.events(),
        legacy_report.timeline.events(),
        "per-swap timeline must match the blocking driver's"
    );
    for (a, b) in scheduled_report.edges.iter().zip(&legacy_report.edges) {
        assert_eq!(a.disposition, b.disposition);
    }
    assert_eq!(scheduled.world.fees.total_fees(), legacy.world.fees.total_fees());
}

/// A mixed-protocol batch where one swap is a multi-leader *complex-graph*
/// AC2T (the bridged double cycle — no single leader exists): it must
/// commit under the scheduler with the same fate rules as the blocking
/// driver, while two-party AC3WN/AC3TW swaps interleave around it.
#[test]
fn mixed_batch_with_multi_leader_complex_graph_commits() {
    let graphs = vec![
        vec![(0, 1, 50), (1, 0, 80)], // AC3WN two-party
        vec![(0, 1, 10), (1, 0, 20), (2, 3, 30), (3, 2, 40), (1, 2, 50)], // bridged double cycle
        vec![(0, 1, 40), (1, 2, 40), (2, 0, 90)], // 3-cycle, AC3TW
    ];
    let asset_params = (0..5).map(|i| ChainParams::fast(&format!("asset-{i}"), 1_000)).collect();
    let mut s = concurrent_custom_swaps(
        &graphs,
        asset_params,
        vec![ChainParams::fast("witness", 1_000)],
        1_000,
    );

    let ac3wn = Ac3wn::new(protocol_cfg());
    let ac3tw = Ac3tw::new(protocol_cfg());
    let herlihy_multi = HerlihyMulti::new(protocol_cfg());
    let machines: Vec<(SwapId, Box<dyn SwapMachine>)> = vec![
        (s.swaps[0].id, Box::new(ac3wn.machine(s.swaps[0].graph.clone(), s.swaps[0].witness))),
        (s.swaps[1].id, Box::new(herlihy_multi.machine(s.swaps[1].graph.clone()).unwrap())),
        (s.swaps[2].id, Box::new(ac3tw.machine(s.swaps[2].graph.clone()))),
    ];
    let batch = Scheduler::default().run(&mut s.world, &mut s.participants, machines);

    assert_eq!(batch.failed(), 0);
    assert!(batch.all_atomic());
    let multi = batch.report_for(SwapId(1)).expect("multi-leader swap finished");
    assert_eq!(multi.protocol, ac3_core::ProtocolKind::HerlihyMulti);
    assert!(
        multi.verdict().is_committed(),
        "multi-leader complex graph must commit under the scheduler: {}",
        multi.verdict()
    );
    assert_eq!(multi.edges.len(), 5);
    // Fee attribution covers all three swaps.
    let attributed: u64 = s.swaps.iter().map(|swap| s.world.fees.fees_for_swap(swap.id)).sum();
    assert_eq!(attributed, s.world.fees.total_fees());
    s.world.assert_state_integrity();
}

/// B swaps spread over k real shared witness chains (the Section 5.2
/// workload): everything commits atomically, every witness chain actually
/// coordinates its share, and fees stay fully attributed.
#[test]
fn multi_witness_batch_spreads_coordination() {
    let asset_params = (0..4).map(|i| ChainParams::fast(&format!("asset-{i}"), 1_000)).collect();
    let witness_params =
        (0..3).map(|i| ChainParams::fast(&format!("witness-{i}"), 1_000)).collect();
    let mut s = concurrent_swaps_multi_witness(6, asset_params, witness_params, 1_000);
    assert_eq!(s.witness_chains.len(), 3);

    let driver = Ac3wn::new(protocol_cfg());
    let machines = ac3wn_machines(&s, &driver);
    let batch = Scheduler::default().run(&mut s.world, &mut s.participants, machines);

    assert_eq!(batch.failed(), 0);
    assert_eq!(batch.committed(), 6);
    assert!(batch.all_atomic());
    // Round-robin: each of the 3 witness chains coordinated 2 swaps, so each
    // carries 2 registrations + 2 authorizations beyond its genesis block.
    for w in &s.witness_chains {
        let txs: usize = s
            .world
            .chain(*w)
            .unwrap()
            .store()
            .canonical_blocks()
            .map(|b| b.transactions.len())
            .sum();
        assert!(txs >= 4, "witness chain {w} saw only {txs} transactions");
    }
    let attributed: u64 = s.swaps.iter().map(|swap| s.world.fees.fees_for_swap(swap.id)).sum();
    assert_eq!(attributed, s.world.fees.total_fees());
    s.world.assert_state_integrity();
}
