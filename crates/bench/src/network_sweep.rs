//! Network experiment: the message-level client→chain layer swept over
//! latency × loss profiles.
//!
//! Every profile runs the same seeded clustered mixed-protocol batch
//! (AC3WN / AC3TW / Herlihy / Herlihy-multi, swap `i` under protocol
//! `i mod 4`) with every submission, replace-by-fee and congestion probe
//! routed through per-chain links ([`ac3_sim::NetworkProfile`]). The sweep
//! measures what the network layer costs the protocols: makespan
//! stretches with latency, commits convert to aborts as drops eat
//! deployments, and fees rise as machines re-bid transactions the network
//! lost — while atomicity holds in every cell.
//!
//! The experiment asserts, in-process:
//!
//! 1. **Equivalence** — the zero-latency / zero-loss profile produces
//!    exactly the outcomes of the direct (no network) run: `World`'s
//!    [`ac3_sim::ChainApi`] impl applies zero-delay sends inline, so the
//!    instruction streams are identical.
//! 2. **Determinism** — the harshest cell replayed at 1, 2 and 4
//!    scheduler workers produces bitwise-identical outcomes and delivery
//!    counters: link RNG state shards with its chain, so a lossy run is
//!    reproducible at any worker count.
//! 3. **Atomicity** — no profile, however harsh, makes a swap fail the
//!    atomicity audit; loss delays or aborts swaps, it never splits them.
//!
//! The sweep is recorded in `BENCH_network.json` ([`CLUSTERS`] clusters ×
//! [`SWAPS_PER_CLUSTER`] swaps, seed [`SEED`]); its `ratchet` object sums
//! the delivery/drop counters per profile and counts the determinism
//! agreements.

use crate::{f2, mixed_machines, print_table, Record};
use ac3_core::scenario::{clustered_swaps_scenario, ScenarioConfig};
use ac3_core::{ProtocolConfig, Scheduler};
use ac3_sim::NetworkProfile;
use serde::Serialize;

/// Sweep seed: fixed so the committed `BENCH_network.json` is reproducible
/// on any machine (the network layer is pure seeded simulation).
pub const SEED: u64 = 0xAC3_0006;
/// Disjoint swap clusters in the batch.
pub const CLUSTERS: usize = 4;
/// Two-party swaps per cluster.
pub const SWAPS_PER_CLUSTER: usize = 4;

fn protocol_cfg() -> ProtocolConfig {
    ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() }
}

/// One cell of the sweep: a named network profile (`None` = direct API).
struct Cell {
    name: &'static str,
    profile: Option<NetworkProfile>,
}

fn cells(seed: u64) -> Vec<Cell> {
    let p = |latency_min_ms, latency_max_ms, drop_per_mille| NetworkProfile {
        seed,
        latency_min_ms,
        latency_max_ms,
        drop_per_mille,
    };
    vec![
        Cell { name: "direct", profile: None },
        Cell { name: "zero", profile: Some(NetworkProfile::zero(seed)) },
        Cell { name: "lan", profile: Some(p(1, 20, 0)) },
        Cell { name: "wan", profile: Some(p(20, 250, 5)) },
        Cell { name: "lossy", profile: Some(p(20, 400, 40)) },
        Cell { name: "harsh", profile: Some(p(50, 900, 100)) },
    ]
}

/// Everything one run observably produced, for the in-process asserts.
struct RunResult {
    outcomes: String,
    committed: usize,
    aborted: usize,
    makespan_ms: u64,
    ticks: u64,
    fees_paid: u64,
    stats: ac3_sim::LinkStats,
}

fn run_batch(
    clusters: usize,
    per_cluster: usize,
    profile: Option<NetworkProfile>,
    workers: usize,
) -> RunResult {
    let mut s = clustered_swaps_scenario(clusters, per_cluster, 2, &ScenarioConfig::default());
    let machines = mixed_machines(&s, protocol_cfg());
    let mut scheduler = Scheduler::default().with_workers(workers);
    if let Some(profile) = profile {
        scheduler = scheduler.with_network(profile);
    }
    let batch = scheduler.run(&mut s.world, &mut s.participants, machines);
    assert_eq!(batch.failed(), 0, "no swap may error under any network profile");
    assert!(batch.all_atomic(), "atomicity audit failed under a network profile");
    s.world.assert_state_integrity();
    let outcomes: Vec<(u64, String)> = batch
        .outcomes
        .iter()
        .map(|o| (o.id.0, serde_json::to_string(o.result.as_ref().unwrap()).unwrap()))
        .collect();
    RunResult {
        outcomes: serde_json::to_string(&outcomes).unwrap(),
        committed: batch.committed(),
        aborted: batch.outcomes.len() - batch.committed(),
        makespan_ms: batch.makespan_ms(),
        ticks: batch.ticks,
        fees_paid: s.world.fees.total_fees(),
        stats: s.world.network_stats(),
    }
}

#[derive(Serialize)]
struct CellRow {
    profile: String,
    latency_ms: String,
    drop_per_mille: u32,
    committed: usize,
    aborted: usize,
    makespan_ms: u64,
    ticks: u64,
    fees_paid: u64,
    submits: u64,
    replaces: u64,
    probes: u64,
    delivered: u64,
    dropped: u64,
    nacked: u64,
}

#[derive(Serialize)]
struct NetworkRecord {
    experiment: &'static str,
    seed: u64,
    clusters: usize,
    swaps_per_cluster: usize,
    cells: Vec<CellRow>,
    determinism_workers: Vec<usize>,
    ratchet: Vec<(String, f64)>,
}

/// Run the sweep and its equivalence, determinism and atomicity asserts.
pub fn run() -> Vec<Record> {
    let (clusters, per_cluster, seed) = (CLUSTERS, SWAPS_PER_CLUSTER, SEED);

    let swaps = clusters * per_cluster;
    println!(
        "Network sweep: {swaps} mixed-protocol swaps ({clusters} clusters × {per_cluster}) per \
         profile (seed {seed:#x})"
    );

    let mut rows: Vec<CellRow> = Vec::new();
    let mut direct_outcomes = String::new();
    for cell in &cells(seed) {
        let r = run_batch(clusters, per_cluster, cell.profile, 1);
        match cell.name {
            // Bench assert 1: zero profile ≡ direct, outcome for outcome.
            "direct" => direct_outcomes = r.outcomes.clone(),
            "zero" => assert_eq!(
                r.outcomes, direct_outcomes,
                "zero-profile networked outcomes diverged from the direct API"
            ),
            _ => {}
        }
        let (lat_min, lat_max, drop) = cell
            .profile
            .map(|p| (p.latency_min_ms, p.latency_max_ms, p.drop_per_mille))
            .unwrap_or((0, 0, 0));
        rows.push(CellRow {
            profile: cell.name.to_string(),
            latency_ms: format!("{lat_min}-{lat_max}"),
            drop_per_mille: drop,
            committed: r.committed,
            aborted: r.aborted,
            makespan_ms: r.makespan_ms,
            ticks: r.ticks,
            fees_paid: r.fees_paid,
            submits: r.stats.submits,
            replaces: r.stats.replaces,
            probes: r.stats.probes,
            delivered: r.stats.delivered,
            dropped: r.stats.dropped,
            nacked: r.stats.nacked,
        });
    }

    // Bench assert 2: the harshest cell is bitwise-reproducible at any
    // worker count, delivery counters included.
    let determinism_workers = vec![1usize, 2, 4];
    let harsh = cells(seed).pop().expect("cells non-empty");
    let reference = run_batch(clusters, per_cluster, harsh.profile, determinism_workers[0]);
    for &workers in &determinism_workers[1..] {
        let replay = run_batch(clusters, per_cluster, harsh.profile, workers);
        assert_eq!(
            replay.outcomes, reference.outcomes,
            "lossy outcomes diverged at {workers} workers"
        );
        assert_eq!(
            replay.stats, reference.stats,
            "delivery counters diverged at {workers} workers"
        );
    }

    print_table(
        "Network sweep: batch outcome per latency/loss profile",
        &[
            "profile",
            "latency ms",
            "drop ‰",
            "committed",
            "aborted",
            "makespan ms",
            "fees",
            "submits",
            "delivered",
            "dropped",
            "nacked",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.profile.clone(),
                    r.latency_ms.clone(),
                    r.drop_per_mille.to_string(),
                    r.committed.to_string(),
                    r.aborted.to_string(),
                    r.makespan_ms.to_string(),
                    r.fees_paid.to_string(),
                    r.submits.to_string(),
                    r.delivered.to_string(),
                    r.dropped.to_string(),
                    r.nacked.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // Ratchet: deterministic counters only — the whole sweep is seeded
    // simulation, so delivery totals are machine-independent.
    let total = |f: &dyn Fn(&CellRow) -> u64| rows.iter().map(f).sum::<u64>() as f64;
    let mut ratchet: Vec<(String, f64)> = vec![
        ("atomicity_rate".to_string(), 1.0),
        ("committed_count".to_string(), total(&|r| r.committed as u64)),
        ("delivered_count".to_string(), total(&|r| r.delivered)),
        ("dropped_count".to_string(), total(&|r| r.dropped)),
        ("nacked_count".to_string(), total(&|r| r.nacked)),
        ("rebid_submits_count".to_string(), total(&|r| r.replaces)),
        ("determinism_agreement_count".to_string(), determinism_workers.len() as f64),
    ];
    for r in &rows {
        ratchet.push((format!("{}/delivered_count", r.profile), r.delivered as f64));
        ratchet.push((format!("{}/dropped_count", r.profile), r.dropped as f64));
    }

    let record = NetworkRecord {
        experiment: "network_sweep",
        seed,
        clusters,
        swaps_per_cluster: per_cluster,
        cells: rows,
        determinism_workers,
        ratchet,
    };
    let harsh_row = record.cells.last().expect("cells non-empty");
    println!(
        "harsh profile: {} of {} swaps committed, {} messages dropped, makespan {} ms ({}× direct)",
        harsh_row.committed,
        swaps,
        harsh_row.dropped,
        harsh_row.makespan_ms,
        f2(harsh_row.makespan_ms as f64 / record.cells[0].makespan_ms.max(1) as f64),
    );
    vec![Record::new("BENCH_network.json", &record)]
}
