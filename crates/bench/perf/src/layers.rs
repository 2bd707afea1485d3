//! The traced pass: one rep per workload that attributes host time to the
//! layers that spent it.
//!
//! It never enters `Scheduler::run`: the batch is driven by the bench-side
//! tick loop in [`crate::trace`], whose outcome fingerprint must equal the
//! untraced run's. Layers the loop cannot bracket are timed by
//! [`crate::replay`] on the traced run's own data, and the partitioner and
//! shard surgery by calling them on one more generated batch.

use crate::gen::{Batch, Protocol};
use crate::measure::{self, Finished, Rep};
use crate::metrics::{self, Value};
use crate::replay::{self, Replay};
use crate::trace::{self, Op, TracedRun};
use crate::workloads::Workload;
use ac3_chain::StoreStats;
use ac3_core::{partition_batch, MachineFootprint, Shard};
use ac3_sim::{LinkStats, SwapId, World};
use serde::Serialize;
use std::time::Instant;

/// Everything the traced pass learned.
pub struct Traced {
    pub metrics: Vec<Value>,
    /// The untraced reference rep and the traced loop's rep.
    pub untraced: Rep,
    pub traced: Rep,
    pub finished: Finished,
    pub store: StoreStats,
    pub network: LinkStats,
    pub replay: Replay,
    pub shards: usize,
    /// Share of AC3WN polls that started in `retry-authorize`.
    pub retry_authorize_share: f64,
    /// Share of the traced loop's wall time its spans account for.
    pub coverage: f64,
    /// `core.machine.ac3wn.self_s + sim.api.tx_evidence_since.s` over the
    /// traced loop's wall time.
    pub evidence_share: f64,
    pub trace_file: TraceFile,
}

#[derive(Serialize)]
pub struct AggregateRow {
    pub layer: &'static str,
    pub op: &'static str,
    pub protocol: Option<&'static str>,
    pub phase: &'static str,
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

#[derive(Serialize)]
pub struct NoopRow {
    pub protocol: &'static str,
    pub phase: &'static str,
    pub noop_polls: u64,
}

/// What `target/perf/trace_<workload>.json` holds.
#[derive(Serialize)]
pub struct TraceFile {
    pub workload: &'static str,
    pub seed: u64,
    pub traced_wall_s: f64,
    pub untraced_run_s: f64,
    pub total_spans: u64,
    pub sampled_spans: usize,
    pub coverage: f64,
    pub aggregates: Vec<AggregateRow>,
    pub noop_polls: Vec<NoopRow>,
    pub spans: Vec<trace::Span>,
}

struct PartitionStage {
    partition_s: f64,
    split_s: f64,
    absorb_s: f64,
    shards: Vec<Shard>,
    machines: usize,
}

/// Time the partitioner and the shard surgery by calling them, as
/// `run_parallel` does, on a generated batch.
fn partition_stage(batch: Batch) -> PartitionStage {
    let Batch { mut world, machines, .. } = batch;
    let footprints: Vec<MachineFootprint> = machines.iter().map(|(_, m)| m.footprint()).collect();
    let t = Instant::now();
    let shards = std::hint::black_box(partition_batch(&footprints));
    let partition_s = t.elapsed().as_secs_f64();

    let swaps: Vec<Vec<SwapId>> =
        shards.iter().map(|s| s.machines.iter().map(|&i| machines[i].0).collect()).collect();
    let t = Instant::now();
    let split: Vec<World> = shards
        .iter()
        .zip(&swaps)
        .map(|(shard, swaps)| {
            world.split_shard(&shard.chains, swaps).expect("footprint chains exist")
        })
        .collect();
    let split_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for shard in split {
        world.absorb_shard(shard);
    }
    let absorb_s = t.elapsed().as_secs_f64();
    PartitionStage { partition_s, split_s, absorb_s, shards, machines: machines.len() }
}

/// The slowest stripe's share of the traced poll time, times the worker
/// count: 1.0 is a perfect split, `workers` is one stripe doing everything.
/// Stripes are cut exactly as `Scheduler::run_parallel` cuts them.
fn stripe_imbalance(shards: &[Shard], run: &TracedRun, workers: usize) -> f64 {
    let work: Vec<u64> =
        shards.iter().map(|s| s.machines.iter().map(|&i| run.machines[i].poll_ns).sum()).collect();
    let total: u64 = work.iter().sum();
    if total == 0 || work.is_empty() {
        return 1.0;
    }
    let stripe = work.len().div_ceil(workers.max(1).min(work.len()));
    let slowest = work.chunks(stripe).map(|c| c.iter().sum::<u64>()).max().unwrap_or(0);
    slowest as f64 / total as f64 * workers as f64
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Run the traced pass of `workload` at `seed`.
pub fn run(workload: &'static Workload, seed: u64) -> Traced {
    // The untraced reference: its wall time anchors the overhead figures
    // and its fingerprint is what the traced loop must reproduce.
    let (untraced, reference) = measure::run_rep(workload, seed);
    drop(reference);

    let (batch, setup_s) = measure::generate(workload, seed);
    let Batch { mut world, mut participants, machines, protocols, swaps, priced_out_lane, .. } =
        batch;
    let max_ms = workload.scheduler(seed).max_ms;
    let cpu_before = crate::stats::process_cpu_s();
    let run = trace::run_traced(
        &mut world,
        &mut participants,
        machines,
        &protocols,
        workload.network(seed),
        max_ms,
    );
    let cpu_s = crate::stats::process_cpu_s() - cpu_before;
    let traced = measure::finish_rep(setup_s, run.wall_s, cpu_s, swaps, &run.report, &world);

    // Counters first: the replay below reads bodies back through the store.
    let store = replay::store_stats(&world);
    let network = world.network_stats();
    let replayed = replay::replay(&world, &participants, &run.stream);
    let partition = partition_stage((workload.generate)(seed));

    let recorder = &run.recorder;
    let mut out: Vec<Value> = Vec::new();
    let mut push = |name: &str, value: f64| {
        out.push(Value { name: name.to_string(), value, unit: "" });
    };

    let (mut polls, mut noops) = (0u64, 0u64);
    let mut machine_self_ns = 0u64;
    for p in Protocol::ALL {
        let spans = recorder.sum(|op, protocol, _| op == Op::Poll && protocol == Some(p));
        let noop: u64 =
            run.noop_by_phase.iter().filter(|((q, _), _)| *q == p).map(|(_, n)| n).sum();
        polls += spans.count;
        noops += noop;
        machine_self_ns += spans.self_ns;
        push(&format!("core.machine.{}.polls", p.label()), spans.count as f64);
        push(&format!("core.machine.{}.noop_polls", p.label()), noop as f64);
        push(&format!("core.machine.{}.self_s", p.label()), secs(spans.self_ns));
    }
    push("core.machine.noop_poll_ratio", noops as f64 / polls.max(1) as f64);

    let mut api_ns = 0u64;
    for api in Op::API {
        let spans = recorder.sum(|op, _, _| op == api);
        api_ns += spans.total_ns;
        push(&format!("sim.api.{}.calls", api.name()), spans.count as f64);
        push(&format!("sim.api.{}.s", api.name()), secs(spans.total_ns));
    }

    let advance = recorder.sum(|op, _, _| op == Op::Advance);
    let poll_total = recorder.sum(|op, _, _| op == Op::Poll);
    push("sim.advance.s", secs(advance.total_ns));
    push("sim.advance.blocks", replayed.blocks_mined as f64);
    push(
        "sim.advance.us_per_block",
        advance.total_ns as f64 / 1e3 / replayed.blocks_mined.max(1) as f64,
    );

    push("sim.network.sent", (network.submits + network.replaces) as f64);
    push("sim.network.delivered", network.delivered as f64);
    push("sim.network.dropped", network.dropped as f64);
    push("sim.network.nacked", network.nacked as f64);

    push("core.scheduler.run_s", untraced.run_s);
    push("core.scheduler.ticks", untraced.sim.ticks as f64);
    push(
        "core.scheduler.overhead_s",
        untraced.run_s - secs(poll_total.total_ns) - secs(advance.total_ns),
    );
    push(
        "core.scheduler.stripe_imbalance",
        stripe_imbalance(&partition.shards, &run, workload.workers),
    );

    let largest = partition.shards.iter().map(|s| s.machines.len()).max().unwrap_or(0);
    push("core.partition.partition_s", partition.partition_s);
    push("core.partition.shards", partition.shards.len() as f64);
    push("core.partition.largest_shard_share", largest as f64 / partition.machines.max(1) as f64);
    push("sim.world.split_shard_s", partition.split_s);
    push("sim.world.absorb_shard_s", partition.absorb_s);

    push("chain.accept_block.s", replayed.accept_s);
    push("chain.accept_block.blocks", replayed.accept_blocks as f64);
    push("chain.accept_block.txs", replayed.accept_txs as f64);
    push("chain.mine_block.s", replayed.mine_s);
    push("chain.mine_block.blocks", replayed.mine_blocks as f64);
    push("chain.replay_state.s", replayed.replay_state_s);
    push("chain.mempool.submit.s", replayed.mempool_submit_s);
    push("chain.mempool.submit.txs", replayed.mempool_submit_txs as f64);
    push("chain.mempool.select.s", replayed.mempool_select_s);
    push("chain.mempool.select.calls", replayed.mempool_select_calls as f64);
    push("chain.mempool.replace.s", replayed.mempool_replace_s);
    push("chain.mempool.replace.calls", replayed.mempool_replace_calls as f64);
    push("chain.mempool.evictions", replayed.mempool_evictions as f64);
    push("core.fee.rebids", traced.sim.rebids as f64);

    push("chain.store.insert.s", replayed.store_insert_s);
    push("chain.store.insert.blocks", replayed.store_insert_blocks as f64);
    push("chain.store.get.s", replayed.store_get_s);
    push("chain.store.get.reads", replayed.store_get_reads as f64);
    push("chain.store.hits", store.hits as f64);
    push("chain.store.misses", store.misses as f64);
    push("chain.store.evictions", store.evictions as f64);
    push("chain.store.write_backs", store.write_backs as f64);
    push("chain.store.hit_rate", store.hit_rate());

    push("crypto.verify.s", replayed.verify_s);
    push("crypto.verify.sigs", replayed.verify_sigs as f64);
    push("crypto.sign.s", replayed.sign_s);
    push("crypto.sign.sigs", replayed.sign_sigs as f64);
    push("crypto.hash.s", replayed.hash_s);
    push("crypto.hash.bytes", replayed.hash_bytes as f64);
    push("crypto.merkle.s", replayed.merkle_s);
    push("crypto.merkle.leaves", replayed.merkle_leaves as f64);

    push("core.audit.all_atomic_s", traced.all_atomic_s);
    push("sim.world.integrity_s", traced.integrity_s);
    push("bench.trace_overhead_ratio", run.wall_s / untraced.run_s);
    push("bench.trace_spans", recorder.total_spans() as f64);

    // Units come from the catalogue, which is also the order of the report.
    let catalogue = metrics::per_layer();
    let metrics: Vec<Value> = catalogue
        .iter()
        .map(|def| {
            let found = out.iter().find(|v| v.name == def.name);
            let value = found.unwrap_or_else(|| panic!("{} was never measured", def.name)).value;
            Value { name: def.name.clone(), value, unit: def.unit }
        })
        .collect();
    assert_eq!(metrics.len(), out.len(), "a measured metric is missing from the catalogue");

    let ac3wn = recorder.sum(|op, p, _| op == Op::Poll && p == Some(Protocol::Ac3wn));
    let retrying = recorder.sum(|op, p, phase| {
        op == Op::Poll && p == Some(Protocol::Ac3wn) && phase == "retry-authorize"
    });
    let evidence = recorder.sum(|op, _, _| op == Op::TxEvidenceSince);
    let wall_ns = (run.wall_s * 1e9).max(1.0);
    let coverage = (machine_self_ns + api_ns + advance.total_ns) as f64 / wall_ns;

    let trace_file = TraceFile {
        workload: workload.name,
        seed,
        traced_wall_s: run.wall_s,
        untraced_run_s: untraced.run_s,
        total_spans: recorder.total_spans(),
        sampled_spans: recorder.sample().len(),
        coverage,
        aggregates: recorder
            .aggregates()
            .into_iter()
            .map(|((op, protocol, phase), a)| AggregateRow {
                layer: op.layer(),
                op: op.name(),
                protocol: protocol.map(Protocol::label),
                phase,
                count: a.count,
                total_s: secs(a.total_ns),
                self_s: secs(a.self_ns),
            })
            .collect(),
        noop_polls: run
            .noop_by_phase
            .iter()
            .map(|((p, phase), n)| NoopRow { protocol: p.label(), phase, noop_polls: *n })
            .collect(),
        spans: recorder.sample().to_vec(),
    };

    Traced {
        metrics,
        untraced,
        traced,
        store,
        network,
        shards: partition.shards.len(),
        retry_authorize_share: retrying.count as f64 / ac3wn.count.max(1) as f64,
        coverage,
        evidence_share: (ac3wn.self_ns + evidence.total_ns) as f64 / wall_ns,
        replay: replayed,
        finished: Finished { world, report: run.report, priced_out_lane },
        trace_file,
    }
}
