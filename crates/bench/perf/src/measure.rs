//! One repetition of a workload: generate, run, audit, fingerprint.
//!
//! Load is a closed batch: every swap is handed to `Scheduler::run` at
//! t = 0 and the timed region ends when the last one is terminal.
//! Generation and the audit are timed on their own, outside that region.

use crate::calibrate::host_speed;
use crate::gen::{Batch, ADVERSARY_ID_BASE};
use crate::stats;
use crate::workloads::Workload;
use ac3_core::{BatchReport, SwapOutcome};
use ac3_crypto::Hash256;
use ac3_sim::{SwapId, World};
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Simulated-side results of one rep — the paper's own axes. They are a
/// pure function of the seed, so every rep of a run must agree on them.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimMetrics {
    pub latency_p50_delta: f64,
    pub latency_tail_delta: f64,
    /// The percentile `latency_tail_delta` was read at, and from how many
    /// terminal swaps.
    pub latency_tail_percentile: f64,
    pub latency_n: usize,
    pub fee_inflation: f64,
    pub commit_share: f64,
    pub committed: usize,
    pub rebids: u64,
    pub ticks: u64,
}

/// Everything measured in one rep.
#[derive(Debug, Clone, Serialize)]
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub cpu_s: f64,
    pub all_atomic_s: f64,
    pub integrity_s: f64,
    /// `VmHWM` over the timed region and the audit, the generated batch
    /// resident.
    pub peak_rss_mib: f64,
    /// Mean of the two [`host_speed`] readings that bracket the timed
    /// region; 1.0 where none were taken.
    pub host_speed: f64,
    pub fingerprint: String,
    pub sim: SimMetrics,
    /// Swaps attempted (adversary machines excluded).
    pub attempted: usize,
    /// Swaps that ended in a `ProtocolError`; every swap when the audit
    /// failed.
    pub failed: usize,
    pub audit_ok: bool,
}

impl Rep {
    pub fn audit_s(&self) -> f64 {
        self.all_atomic_s + self.integrity_s
    }
}

/// The finished world of a rep, for counters read where the work happened.
pub struct Finished {
    pub world: World,
    pub report: BatchReport,
    pub priced_out_lane: Vec<SwapId>,
}

fn honest(outcome: &SwapOutcome) -> bool {
    outcome.id.0 < ADVERSARY_ID_BASE
}

/// Digest of everything the batch observably produced: every outcome in
/// submission order, the tick count and clock, the fee ledger, and each
/// chain's tip, height, pending depth and base fee. (The world's global
/// timeline is left out: the parallel scheduler is allowed to order
/// same-instant events of unrelated shards differently.)
pub fn fingerprint(report: &BatchReport, world: &World) -> String {
    let mut text = String::new();
    for outcome in &report.outcomes {
        let result = match &outcome.result {
            Ok(r) => serde_json::to_string(r).expect("reports serialize"),
            Err(e) => format!("{e:?}"),
        };
        text.push_str(&format!("{}={result}\n", outcome.id.0));
    }
    text.push_str(&format!(
        "ticks={} started={} finished={}\n",
        report.ticks, report.started_at, report.finished_at
    ));
    text.push_str(&serde_json::to_string(&world.fees).expect("ledger serializes"));
    for id in world.chain_ids() {
        let c = world.chain(id).expect("listed chain exists");
        text.push_str(&format!(
            "\n{id}: tip={:?} height={} mempool={} base_fee={}",
            c.tip(),
            c.height(),
            c.mempool_len(),
            c.base_fee()
        ));
    }
    Hash256::digest(text.as_bytes()).to_hex()
}

/// The simulated-side metrics of a finished batch.
pub fn sim_metrics(report: &BatchReport, attempted: usize) -> SimMetrics {
    let honest_reports: Vec<_> = report
        .outcomes
        .iter()
        .filter(|o| honest(o))
        .filter_map(|o| o.result.as_ref().ok())
        .collect();
    let latencies: Vec<f64> = honest_reports.iter().map(|r| r.latency_in_deltas()).collect();
    let (p50, tail) = if latencies.is_empty() {
        (0.0, stats::Tail { value: 0.0, percentile: 100.0, n: 0 })
    } else {
        (stats::median(&latencies), stats::tail(&latencies))
    };
    let paid: u64 = honest_reports.iter().map(|r| r.fees_paid).sum();
    let scheduled: u64 = honest_reports.iter().map(|r| r.fees_scheduled).sum();
    let committed = honest_reports.iter().filter(|r| r.verdict().is_committed()).count();
    SimMetrics {
        latency_p50_delta: p50,
        latency_tail_delta: tail.value,
        latency_tail_percentile: tail.percentile,
        latency_n: tail.n,
        fee_inflation: if scheduled == 0 { 1.0 } else { paid as f64 / scheduled as f64 },
        commit_share: committed as f64 / attempted.max(1) as f64,
        committed,
        rebids: honest_reports.iter().map(|r| r.fee_rebids).sum(),
        ticks: report.ticks,
    }
}

/// Short operations are repeated until this much time has been measured,
/// and reported as the mean of one: a 1 ms audit read once is timer and
/// scheduler noise, the same audit read for a quarter of a second is not.
const STEADY_S: f64 = 0.25;
const STEADY_MAX_REPEATS: u32 = 10_000;

/// Time the audit every test and paper binary pays after a batch —
/// `BatchReport::all_atomic` plus `World::assert_state_integrity` — as the
/// mean of one audit, and fold a panicking integrity check into a failed
/// (not aborted) rep. Both checks only read, so repeating them is sound.
pub fn audit(report: &BatchReport, world: &World) -> (f64, f64, bool) {
    let (mut all_atomic_s, mut integrity_s, mut ok, mut repeats) = (0.0, 0.0, true, 0u32);
    while repeats == 0
        || (ok && all_atomic_s + integrity_s < STEADY_S && repeats < STEADY_MAX_REPEATS)
    {
        let t = Instant::now();
        let atomic = std::hint::black_box(report).all_atomic();
        all_atomic_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let intact = catch_unwind(AssertUnwindSafe(|| world.assert_state_integrity())).is_ok();
        integrity_s += t.elapsed().as_secs_f64();
        ok = atomic && intact;
        repeats += 1;
    }
    (all_atomic_s / repeats as f64, integrity_s / repeats as f64, ok)
}

/// Finish a rep from a run the caller already timed.
pub fn finish_rep(
    setup_s: f64,
    run_s: f64,
    cpu_s: f64,
    attempted: usize,
    report: &BatchReport,
    world: &World,
) -> Rep {
    let (all_atomic_s, integrity_s, audit_ok) = audit(report, world);
    let errored = report.outcomes.iter().filter(|o| honest(o) && o.result.is_err()).count();
    Rep {
        setup_s,
        run_s,
        cpu_s,
        all_atomic_s,
        integrity_s,
        peak_rss_mib: stats::process_peak_rss_mib(),
        host_speed: 1.0,
        fingerprint: fingerprint(report, world),
        sim: sim_metrics(report, attempted),
        attempted,
        failed: if audit_ok { errored } else { attempted },
        audit_ok,
    }
}

/// Generate the workload's batch and time set-up — world, cast and machine
/// construction — as the mean of one generation (see [`STEADY_S`]); the
/// extra batches are dropped.
pub fn generate(workload: &Workload, seed: u64) -> (Batch, f64) {
    let t = Instant::now();
    let batch = (workload.generate)(seed);
    let mut total_s = t.elapsed().as_secs_f64();
    let mut repeats = 1u32;
    while total_s < STEADY_S && repeats < STEADY_MAX_REPEATS {
        let t = Instant::now();
        let extra = std::hint::black_box((workload.generate)(seed));
        total_s += t.elapsed().as_secs_f64();
        repeats += 1;
        drop(extra);
    }
    (batch, total_s / repeats as f64)
}

/// One untraced rep through `Scheduler::run`.
pub fn run_rep(workload: &Workload, seed: u64) -> (Rep, Finished) {
    let (batch, setup_s) = generate(workload, seed);
    let Batch { mut world, mut participants, machines, swaps, priced_out_lane, .. } = batch;
    let scheduler = workload.scheduler(seed);

    let before = host_speed();
    stats::reset_peak_rss();
    let cpu_before = stats::process_cpu_s();
    let t = Instant::now();
    let report = scheduler.run(&mut world, &mut participants, machines);
    let run_s = t.elapsed().as_secs_f64();
    let cpu_s = stats::process_cpu_s() - cpu_before;
    let run_peak = stats::process_peak_rss_mib();

    // The calibration kernel's arena must not pass for the workload's
    // memory: the watermark restarts after it and the two peaks are joined.
    let after = host_speed();
    stats::reset_peak_rss();
    let mut rep = finish_rep(setup_s, run_s, cpu_s, swaps, &report, &world);
    rep.peak_rss_mib = rep.peak_rss_mib.max(run_peak);
    rep.host_speed = (before + after) / 2.0;
    (rep, Finished { world, report, priced_out_lane })
}
