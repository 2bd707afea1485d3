//! Experiment E9 (Section 5.2 at scale): the parallel sharded scheduler
//! driving hundreds of tps-constrained witness chains and thousands of
//! mixed-protocol swaps in one world.
//!
//! The workload is `clusters` mutually disjoint swap clusters
//! ([`ac3_core::scenario::clustered_swaps_scenario`]): each cluster owns
//! two generous asset chains plus one **tps-constrained** witness chain
//! (2 tps), and runs `swaps_per_cluster` two-party swaps under a
//! round-robin protocol mix — AC3WN, AC3TW, Herlihy, Herlihy-multi. The
//! witnessed protocols queue their registrations and authorizations in the
//! starved witness mempools, so contention is measured, not modelled.
//!
//! The batch is scheduled at several worker counts over the same seeded
//! world. The experiment asserts, in-process:
//!
//! 1. **Determinism** — committed count, tick count, makespan and total
//!    fees are identical at every worker count (the sharded scheduler's
//!    bitwise-reproducibility contract).
//! 2. **Atomicity at scale** — every swap commits, every swap passes the
//!    audit, chain-state integrity holds.
//! 3. **Timelock safety under contention** — every committed swap finished
//!    inside its protocol wait cap: `latency < wait_cap_deltas · Δ`, with
//!    the minimum margin reported per protocol.
//! 4. **Contention shape** — the witnessed protocols (which share the
//!    starved witness chains) show p95 latency at least as high as the
//!    witness-free Herlihy baselines.
//!
//! The run summary (per-worker wall-clock throughput of the scheduler loop
//! plus per-protocol latency distributions) is the record
//! `BENCH_parallel_scale.json`. [`run`] sweeps the paper size,
//! [`PAPER_SIZE`]: 10,000 swaps over 250 witness + 500 asset chains at up
//! to 4 workers. [`sweep`] takes any size, for tests. The wall-clock
//! columns are informational: only the simulated outcome is checked.

use crate::{f2, mixed_machines, print_table, Record};
use ac3_chain::ChainParams;
use ac3_core::scenario::{clustered_swaps_scenario, MultiSwapScenario, ScenarioConfig};
use ac3_core::{ProtocolConfig, ProtocolKind, Scheduler};
use ac3_sim::LatencyStats;
use serde::Serialize;
use std::time::Instant;

/// Protocol wait cap: queueing on a 2 tps witness chain must read as
/// delay, not failure, even with dozens of clustermates.
const WAIT_CAP_DELTAS: u64 = 64;

/// `(clusters, swaps_per_cluster, max_workers)` of the recorded sweep.
pub const PAPER_SIZE: (usize, usize, usize) = (250, 40, 4);

fn protocol_cfg() -> ProtocolConfig {
    ProtocolConfig {
        witness_depth: 3,
        deployment_depth: 3,
        wait_cap_deltas: WAIT_CAP_DELTAS,
        ..Default::default()
    }
}

fn build_scenario(clusters: usize, swaps_per_cluster: usize) -> MultiSwapScenario {
    let cfg = ScenarioConfig {
        asset_chain_template: ChainParams::fast("asset", 1_000),
        // 2 tps: each committed witnessed swap needs two witness-chain
        // transactions, so a cluster's witnessed swaps genuinely queue.
        witness_chain_template: ChainParams::fast("witness", 2),
        funding: 1_000,
    };
    clustered_swaps_scenario(clusters, swaps_per_cluster, 2, &cfg)
}

#[derive(Serialize)]
struct WorkerRow {
    workers: usize,
    wall_ms: u64,
    /// Wall-clock scheduler throughput: swaps driven to completion per
    /// real second.
    swaps_per_wall_sec: f64,
    speedup_vs_serial: f64,
    makespan_ms: u64,
    ticks: u64,
    committed: usize,
}

#[derive(Serialize)]
struct ProtocolRow {
    protocol: String,
    swaps: usize,
    mean_latency_deltas: f64,
    p50_latency_deltas: f64,
    p95_latency_deltas: f64,
    max_latency_deltas: f64,
    /// Worst-case timelock-safety margin: `wait_cap − latency/Δ` over the
    /// protocol's swaps. Positive means every swap finished inside its
    /// protocol timelock budget despite the witness-chain queueing.
    min_margin_deltas: f64,
}

/// One scheduled run of the full batch at `workers` threads; returns the
/// wall time and the per-protocol latency stats (in Δ units).
fn run_once(
    clusters: usize,
    swaps_per_cluster: usize,
    workers: usize,
) -> (WorkerRow, Vec<ProtocolRow>) {
    let swaps = clusters * swaps_per_cluster;
    let mut s = build_scenario(clusters, swaps_per_cluster);
    let machines = mixed_machines(&s, protocol_cfg());

    let t0 = Instant::now();
    let batch =
        Scheduler::default().with_workers(workers).run(&mut s.world, &mut s.participants, machines);
    let wall = t0.elapsed();

    assert_eq!(batch.failed(), 0, "workers={workers}: queueing must delay swaps, not fail them");
    // The Herlihy baselines carry no witness decision (`decision: None`),
    // so count commits by the atomicity verdict, which covers all four
    // protocols uniformly.
    let committed = batch.reports().filter(|(_, r)| r.verdict().is_committed()).count();
    assert_eq!(committed, swaps, "workers={workers}: every swap must commit");
    assert!(batch.all_atomic(), "workers={workers}: atomicity audit failed at scale");
    s.world.assert_state_integrity();

    // Per-protocol latency distributions and timelock-safety margins.
    let mut stats: Vec<(ProtocolKind, LatencyStats, f64)> = Vec::new();
    for (_, r) in batch.reports() {
        let entry = match stats.iter_mut().find(|(k, _, _)| *k == r.protocol) {
            Some(entry) => entry,
            None => {
                stats.push((r.protocol, LatencyStats::new(), f64::INFINITY));
                stats.last_mut().expect("just pushed")
            }
        };
        entry.1.record(r.latency_ms());
        let margin = WAIT_CAP_DELTAS as f64 - r.latency_ms() as f64 / r.delta_ms as f64;
        entry.2 = entry.2.min(margin);
    }
    let delta = 4_000.0; // 1 s blocks, stable depth 3 ⇒ Δ = 4 s everywhere
    let protocols: Vec<ProtocolRow> = stats
        .iter()
        .map(|(kind, lat, min_margin)| ProtocolRow {
            protocol: format!("{kind:?}"),
            swaps: lat.len(),
            mean_latency_deltas: lat.mean().unwrap_or(0.0) / delta,
            p50_latency_deltas: lat.percentile(50.0).unwrap_or(0) as f64 / delta,
            p95_latency_deltas: lat.percentile(95.0).unwrap_or(0) as f64 / delta,
            max_latency_deltas: lat.max().unwrap_or(0) as f64 / delta,
            min_margin_deltas: *min_margin,
        })
        .collect();

    let wall_ms = wall.as_millis() as u64;
    let row = WorkerRow {
        workers,
        wall_ms,
        swaps_per_wall_sec: swaps as f64 * 1_000.0 / (wall.as_secs_f64() * 1_000.0).max(1e-9),
        speedup_vs_serial: 0.0, // filled in by the sweep
        makespan_ms: batch.makespan_ms(),
        ticks: batch.ticks,
        committed,
    };
    (row, protocols)
}

#[derive(Serialize)]
struct ScaleRecord {
    experiment: &'static str,
    clusters: usize,
    swaps: usize,
    witness_chains: usize,
    asset_chains: usize,
    witness_tps: u64,
    wait_cap_deltas: u64,
    runs: Vec<WorkerRow>,
    protocols: Vec<ProtocolRow>,
}

/// The sweep at [`PAPER_SIZE`].
pub fn run() -> Vec<Record> {
    let (clusters, swaps_per_cluster, max_workers) = PAPER_SIZE;
    vec![sweep(clusters, swaps_per_cluster, max_workers)]
}

/// Schedule `clusters × swaps_per_cluster` swaps at 1, 2, 4 and
/// `max_workers` workers (those up to `max_workers`), assert the four
/// claims above and return the record.
pub fn sweep(clusters: usize, swaps_per_cluster: usize, max_workers: usize) -> Record {
    let swaps = clusters * swaps_per_cluster;

    let mut worker_counts = vec![1usize, 2, 4, max_workers];
    worker_counts.retain(|w| *w <= max_workers.max(1));
    worker_counts.sort();
    worker_counts.dedup();

    println!(
        "Scale workload: {clusters} clusters × {swaps_per_cluster} swaps = {swaps} swaps \
         (protocol mix AC3WN/AC3TW/Herlihy/Herlihy-multi) over {} asset chains and \
         {clusters} witness chains at 2 tps; workers swept: {worker_counts:?}",
        clusters * 2,
    );

    let mut runs: Vec<WorkerRow> = Vec::new();
    let mut protocols: Vec<ProtocolRow> = Vec::new();
    for &workers in &worker_counts {
        let (mut row, prot) = run_once(clusters, swaps_per_cluster, workers);
        row.speedup_vs_serial = if let Some(serial) = runs.first() {
            serial.wall_ms as f64 / row.wall_ms.max(1) as f64
        } else {
            1.0
        };
        if let Some(serial) = runs.first() {
            // Determinism contract: the simulated outcome must not depend
            // on the worker count.
            assert_eq!(row.committed, serial.committed, "workers={workers}: committed diverged");
            assert_eq!(row.ticks, serial.ticks, "workers={workers}: tick count diverged");
            assert_eq!(row.makespan_ms, serial.makespan_ms, "workers={workers}: makespan diverged");
        } else {
            protocols = prot;
        }
        runs.push(row);
    }

    // Timelock safety under contention: every protocol's worst swap still
    // finished inside its wait cap.
    for p in &protocols {
        assert!(
            p.min_margin_deltas > 0.0,
            "{}: a swap exceeded its timelock budget (margin {}Δ)",
            p.protocol,
            p.min_margin_deltas
        );
    }
    // Contention shape: the witnessed protocols queue on the starved
    // witness chains; the witness-free Herlihy baselines do not.
    let p95 = |name: &str| {
        protocols.iter().find(|p| p.protocol == name).map(|p| p.p95_latency_deltas).unwrap_or(0.0)
    };
    if swaps >= 8 {
        assert!(
            p95("Ac3Wn") >= p95("Herlihy"),
            "witnessed swaps must feel the witness-chain contention ({} vs {})",
            p95("Ac3Wn"),
            p95("Herlihy")
        );
    }

    print_table(
        "Section 5.2 at scale: one seeded batch, swept over scheduler worker threads",
        &["workers", "wall ms", "swaps/wall-s", "speedup", "sim makespan ms", "ticks", "committed"],
        &runs
            .iter()
            .map(|r| {
                vec![
                    r.workers.to_string(),
                    r.wall_ms.to_string(),
                    f2(r.swaps_per_wall_sec),
                    f2(r.speedup_vs_serial),
                    r.makespan_ms.to_string(),
                    r.ticks.to_string(),
                    r.committed.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        "Per-protocol latency distribution and timelock-safety margin (Δ units)",
        &["protocol", "swaps", "mean", "p50", "p95", "max", "min margin"],
        &protocols
            .iter()
            .map(|p| {
                vec![
                    p.protocol.clone(),
                    p.swaps.to_string(),
                    f2(p.mean_latency_deltas),
                    f2(p.p50_latency_deltas),
                    f2(p.p95_latency_deltas),
                    f2(p.max_latency_deltas),
                    f2(p.min_margin_deltas),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let record = ScaleRecord {
        experiment: "sec52_scale",
        clusters,
        swaps,
        witness_chains: clusters,
        asset_chains: clusters * 2,
        witness_tps: 2,
        wait_cap_deltas: WAIT_CAP_DELTAS,
        runs,
        protocols,
    };
    Record::new("BENCH_parallel_scale.json", &record)
}
