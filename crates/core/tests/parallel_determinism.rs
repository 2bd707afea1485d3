//! Determinism contract of the parallel sharded scheduler: the same batch,
//! run serially and with any number of worker threads, must produce
//! identical swap reports, fee ledgers, tick counts, and final chain
//! state. Within a shard the parallel scheduler replays the serial
//! instruction stream verbatim; across shards there is no shared state —
//! so these tests compare *bitwise*, not approximately.

use ac3_core::scenario::{clustered_swaps_scenario, MultiSwapScenario, ScenarioConfig};
use ac3_core::{Ac3tw, Ac3wn, Herlihy, HerlihyMulti, ProtocolConfig, Scheduler, SwapMachine};
use ac3_sim::SwapId;
use serde::Serialize;

fn protocol_cfg() -> ProtocolConfig {
    ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() }
}

/// The mixed-protocol machine mix of the scale workload: swap `i` runs
/// under protocol `i mod 4`.
fn mixed_machines(s: &MultiSwapScenario) -> Vec<(SwapId, Box<dyn SwapMachine>)> {
    let ac3wn = Ac3wn::new(protocol_cfg());
    let ac3tw = Ac3tw::new(protocol_cfg());
    let herlihy = Herlihy::new(protocol_cfg());
    let herlihy_multi = HerlihyMulti::new(protocol_cfg());
    s.swaps
        .iter()
        .enumerate()
        .map(|(i, swap)| {
            let machine: Box<dyn SwapMachine> = match i % 4 {
                0 => Box::new(ac3wn.machine(swap.graph.clone(), swap.witness)),
                1 => Box::new(ac3tw.machine(swap.graph.clone())),
                2 => Box::new(herlihy.machine(swap.graph.clone()).expect("two-party has a leader")),
                _ => Box::new(herlihy_multi.machine(swap.graph.clone()).expect("valid graph")),
            };
            (swap.id, machine)
        })
        .collect()
}

/// Everything the batch observably produced, serialized for bitwise
/// comparison: outcomes in submission order, scheduler counters, the fee
/// ledger, per-chain final state, and the global timeline (canonicalized —
/// see [`fingerprint`]).
#[derive(Serialize)]
struct Fingerprint {
    outcomes: Vec<(u64, String)>,
    ticks: u64,
    started_at: u64,
    finished_at: u64,
    fees: String,
    chains: Vec<String>,
    timeline: Vec<String>,
}

/// Run the standard clustered mixed-protocol batch with `workers` threads
/// and fingerprint the result. Returns the canonical fingerprint plus the
/// raw (uncanonicalized) global timeline.
fn fingerprint(workers: usize) -> (String, Vec<String>) {
    // 5 clusters × 4 swaps × 2 chains: enough components that 2, 4 and 8
    // workers all stripe differently, with real contention inside each.
    let mut s = clustered_swaps_scenario(5, 4, 2, &ScenarioConfig::default());
    let machines = mixed_machines(&s);
    let batch =
        Scheduler::default().with_workers(workers).run(&mut s.world, &mut s.participants, machines);

    assert_eq!(batch.failed(), 0, "workers={workers}: no swap may error");
    assert!(batch.all_atomic(), "workers={workers}: atomicity audit failed");
    s.world.assert_state_integrity();

    let outcomes = batch
        .outcomes
        .iter()
        .map(|o| {
            let result = match &o.result {
                Ok(report) => serde_json::to_string(report).unwrap(),
                Err(e) => format!("{e:?}"),
            };
            (o.id.0, result)
        })
        .collect();
    let chains = s
        .world
        .chain_ids()
        .into_iter()
        .map(|id| {
            let c = s.world.chain(id).unwrap();
            format!(
                "{id}: tip={:?} height={} mempool={} base_fee={}",
                c.tip(),
                c.height(),
                c.mempool_len(),
                c.base_fee()
            )
        })
        .collect();
    let raw_timeline: Vec<String> =
        s.world.timeline.events().iter().map(|e| serde_json::to_string(e).unwrap()).collect();
    // The one permitted serial/parallel difference is the relative order of
    // same-timestamp events from *unrelated* shards in the global timeline;
    // canonicalize by sorting serialized events (each embeds its `at`).
    let mut timeline = raw_timeline.clone();
    timeline.sort();
    let fp = Fingerprint {
        outcomes,
        ticks: batch.ticks,
        started_at: batch.started_at,
        finished_at: batch.finished_at,
        fees: serde_json::to_string(&s.world.fees).unwrap(),
        chains,
        timeline,
    };
    (serde_json::to_string(&fp).unwrap(), raw_timeline)
}

/// The tentpole acceptance test: the same seeded batch run serially and at
/// 2/4/8 worker threads yields bitwise-identical swap
/// timelines, fee ledgers, chain state and `BatchReport`s.
#[test]
fn same_batch_is_bitwise_identical_at_every_worker_count() {
    let (reference, _) = fingerprint(1);
    let mut parallel_raw: Option<(usize, Vec<String>)> = None;
    for w in [2, 4, 8] {
        let (fp, raw) = fingerprint(w);
        assert_eq!(fp, reference, "workers={w} diverged from workers=1 on the same batch");
        // Among *parallel* runs even the raw global timeline is identical:
        // shards are always absorbed in first-machine order, regardless of
        // which thread finished first.
        if let Some((w0, ref raw0)) = parallel_raw {
            assert_eq!(&raw, raw0, "raw timelines of workers={w} and workers={w0} diverged");
        } else {
            parallel_raw = Some((w, raw));
        }
    }
}

/// More workers than shards, and more workers than machines: the stripe
/// logic must degrade gracefully and stay identical to serial.
#[test]
fn worker_surplus_changes_nothing() {
    let run = |workers: usize| {
        let mut s = clustered_swaps_scenario(2, 1, 1, &ScenarioConfig::default());
        let machines = mixed_machines(&s);
        let batch = Scheduler::default().with_workers(workers).run(
            &mut s.world,
            &mut s.participants,
            machines,
        );
        assert_eq!(batch.failed(), 0);
        (
            batch.ticks,
            batch.finished_at,
            batch
                .outcomes
                .iter()
                .map(|o| serde_json::to_string(o.result.as_ref().unwrap()).unwrap())
                .collect::<Vec<_>>(),
        )
    };
    let serial = run(1);
    for workers in [2, 7, 64] {
        assert_eq!(run(workers), serial, "workers={workers}");
    }
}

/// The parallel path must enforce the simulated-time budget with the same
/// error text and the same cutoff as the unsplit run.
#[test]
fn parallel_budget_exhaustion_matches_serial() {
    let run = |workers: usize| {
        let mut s = clustered_swaps_scenario(3, 2, 2, &ScenarioConfig::default());
        let machines = mixed_machines(&s);
        // A 1 ms budget cannot even finish registration.
        let batch = Scheduler::new(1).with_workers(workers).run(
            &mut s.world,
            &mut s.participants,
            machines,
        );
        batch.outcomes.iter().map(|o| format!("{:?}", o.result.as_ref().err())).collect::<Vec<_>>()
    };
    let serial = run(1);
    assert!(serial.iter().all(|e| e.contains("budget of 1 ms exhausted")));
    assert_eq!(run(4), serial);
}

/// Differential determinism under adversity: a fixed Byzantine + griefing
/// campaign — crashes, partitions, forks, an equivocating witness, a
/// bribed attestation, a mempool flood and a base-fee spike, all injected
/// mid-batch through the scheduler — fingerprints bitwise-identically at
/// 1, 2 and 4 workers. The campaign fingerprint folds in
/// the slash count and final chain state on top of the batch observables,
/// and CI re-runs this test under both `AC3_STORE_BACKEND` values.
#[test]
fn adversarial_campaign_is_bitwise_identical_at_every_worker_count() {
    use ac3_core::CampaignConfig;

    let run = |workers: usize| {
        let mut cfg = CampaignConfig::new(0xD1FF);
        cfg.swaps = 6;
        cfg.workers = workers;
        let report = ac3_core::run_campaign(&cfg).expect("campaign executes");
        assert_eq!(report.failed, 0, "workers={workers}: honest swap failed");
        assert_eq!(report.adversary_failures, 0, "workers={workers}: adversary errored");
        assert!(report.atomic, "workers={workers}: atomicity audit failed");
        assert_eq!(
            report.slashes_accepted, report.equivocations,
            "workers={workers}: slash count diverged from the plan's equivocations"
        );
        report.fingerprint
    };
    let reference = run(1);
    for w in [2, 4] {
        assert_eq!(run(w), reference, "workers={w} diverged from workers=1 on the same campaign");
    }
}

/// A footprint naming a chain the world does not hold must run the batch
/// as one unsplit shard and surface per-machine errors rather than
/// panicking.
#[test]
fn unknown_footprint_chain_falls_back_to_serial() {
    use ac3_chain::ChainId;
    use ac3_core::scenario::{two_party_scenario, ScenarioConfig};

    let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
    let driver = Ac3wn::new(protocol_cfg());
    // Point the machine at a witness chain that does not exist.
    let machine = driver.machine(s.graph.clone(), ChainId(9_999));
    let batch = Scheduler::default().with_workers(4).run(
        &mut s.world,
        &mut s.participants,
        vec![(SwapId(0), Box::new(machine))],
    );
    // The serial fallback runs the machine to its graceful give-up (the
    // witness registration can never land, so nobody ever commits) instead
    // of panicking inside `split_shard`.
    assert_eq!(batch.outcomes.len(), 1);
    let report = batch.report_for(SwapId(0)).expect("machine gives up cleanly");
    assert_ne!(report.decision, Some(true), "no commit without a witness chain");
}
