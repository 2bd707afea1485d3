//! `ac3-perf` — the repository's benchmark.
//!
//! ```text
//! ac3-perf [--workload <name>] [--seed N] [--seconds S] [--trace 0|1]
//! ac3-perf compare <a/result.json> <b/result.json>
//! ac3-perf manifest            # prints BENCHMARK.json from the catalogue
//! ac3-perf calibrate           # fastest readings of the host-speed kernel
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both the
//! untraced pass (end-to-end metrics) and the traced pass (per-layer
//! metrics) run. Each workload's pass runs in a child process of its own, so
//! `peak_rss_mb` is that workload's alone and the store backend can be
//! selected through the environment `StoreConfig::from_env` already reads.
//! Every metric is printed as `workload/metric value unit`; the last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Results land in `target/perf/result.json`, traces in
//! `target/perf/trace_<workload>.json`.

#![forbid(unsafe_code)]

mod calibrate;
mod compare;
mod flooder;
mod gen;
mod layers;
mod measure;
mod metrics;
mod replay;
mod stats;
mod trace;
mod workloads;

use measure::{Finished, Rep};
use metrics::END_TO_END;
use serde_json::{Map, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Workload, WORKLOADS};

/// Every workload repeats its timed region at least this often; more reps
/// follow while they fit in `--seconds`.
const MIN_REPS: usize = 3;
const DEFAULT_SECONDS: f64 = 15.0;
const OUT_DIR: &str = "target/perf";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("calibrate") => {
            // Fastest of many readings: the reference constants of calibrate.rs.
            let readings: Vec<(f64, f64)> = (0..200).map(|_| calibrate::kernel_times()).collect();
            let fastest =
                |of: fn(&(f64, f64)) -> f64| readings.iter().map(of).fold(f64::INFINITY, f64::min);
            println!("compute {:.4} s, memory {:.4} s", fastest(|r| r.0), fastest(|r| r.1));
            Ok(())
        }
        Some("manifest") => {
            println!("{}", manifest());
            Ok(())
        }
        Some("child") => Options::parse(&args[1..]).and_then(|o| child(&o)),
        _ => Options::parse(&args).and_then(|o| parent(&o)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ac3-perf: {message}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: both passes.
    trace: Option<bool>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut options =
            Options { workload: None, seed: 1, seconds: DEFAULT_SECONDS, trace: None };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    options.workload = Some(
                        workloads::find(value).ok_or_else(|| format!("no workload {value:?}"))?,
                    )
                }
                "--seed" => {
                    options.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?
                }
                "--seconds" => {
                    options.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?
                }
                "--trace" => {
                    options.trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(options)
    }
}

// ---------------------------------------------------------------------------
// JSON helpers (the vendored serde renders maps as pair arrays, so objects
// with computed keys are built by hand)
// ---------------------------------------------------------------------------

fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    let mut map = Map::new();
    for (key, value) in entries {
        map.insert(key, value);
    }
    Value::Object(map)
}

fn number(x: f64) -> Value {
    Value::F64(x)
}

fn count(n: usize) -> Value {
    Value::U64(n as u64)
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn metric_object(values: &[metrics::Value]) -> Value {
    object(
        values.iter().map(|v| {
            (v.name.clone(), object([("value", number(v.value)), ("unit", text(v.unit))]))
        }),
    )
}

// ---------------------------------------------------------------------------
// The child: one pass of one workload
// ---------------------------------------------------------------------------

/// One "mechanism engaged" or correctness check.
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

fn check(checks: &mut Vec<Check>, name: &'static str, ok: bool, detail: String) {
    checks.push(Check { name, ok, detail });
}

/// Checks that read only a finished world and its reps: they hold in both
/// passes.
fn common_checks(workload: &Workload, reps: &[&Rep], finished: &Finished) -> Vec<Check> {
    let mut checks = Vec::new();
    let first = reps[0];
    check(
        &mut checks,
        "audit",
        reps.iter().all(|r| r.audit_ok),
        "all_atomic() and assert_state_integrity() on every rep".to_string(),
    );
    check(
        &mut checks,
        "fingerprints_agree",
        reps.iter().all(|r| r.fingerprint == first.fingerprint && r.sim == first.sim),
        format!("{} reps, first {}", reps.len(), &first.fingerprint[..16]),
    );
    match workload.name {
        "clustered_lossy" => {
            let net = finished.world.network_stats();
            check(
                &mut checks,
                "links_drop_and_deliver",
                net.dropped > 0 && net.delivered > 0,
                format!("dropped={} delivered={}", net.dropped, net.delivered),
            );
        }
        "market" | "market_paged" => {
            check(
                &mut checks,
                "bidders_rebid",
                first.sim.rebids > 0,
                format!("rebids={}", first.sim.rebids),
            );
        }
        "priced_out" => {
            let lane = &finished.priced_out_lane;
            let outcomes = || finished.report.outcomes.iter().filter(|o| lane.contains(&o.id));
            let committed = outcomes()
                .filter(|o| o.result.as_ref().is_ok_and(|r| r.verdict().is_committed()))
                .count();
            let failed = outcomes().filter(|o| o.result.is_err()).count();
            check(
                &mut checks,
                "fixed_lane_priced_out",
                !lane.is_empty() && committed == 0 && failed == 0,
                format!("lane={} committed={committed} failed={failed}", lane.len()),
            );
        }
        _ => {}
    }
    if workload.name == "market_paged" {
        let store = replay::store_stats(&finished.world);
        check(
            &mut checks,
            "paged_store_faults",
            store.backend == "paged" && store.misses > 0 && store.evictions > 0,
            format!(
                "backend={} misses={} evictions={}",
                store.backend, store.misses, store.evictions
            ),
        );
    }
    checks
}

fn checks_value(checks: &[Check]) -> Value {
    Value::Array(
        checks
            .iter()
            .map(|c| {
                object([
                    ("name", text(c.name)),
                    ("ok", Value::Bool(c.ok)),
                    ("detail", text(&c.detail)),
                ])
            })
            .collect(),
    )
}

fn samples(reps: &[Rep], of: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(of).collect()
}

/// The untraced pass: at least [`MIN_REPS`] reps, each on a freshly
/// generated world, more while they fit in `seconds`.
fn untraced_pass(workload: &'static Workload, options: &Options) -> Value {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut last: Option<Finished> = None;
    // One more batch, never run and dropped before the first rep: its draws
    // go into the record, its footprints tell how the batch partitions.
    let (draws, shards) = {
        let probe = (workload.generate)(options.seed);
        let footprints: Vec<_> = probe.machines.iter().map(|(_, m)| m.footprint()).collect();
        (probe.draws, ac3_core::partition_batch(&footprints).len())
    };
    loop {
        // Drop the previous world before the next rep builds its own.
        drop(last.take());
        let (rep, finished) = measure::run_rep(workload, options.seed);
        reps.push(rep);
        last = Some(finished);
        let elapsed = started.elapsed().as_secs_f64();
        let per_rep = elapsed / reps.len() as f64;
        if reps.len() >= MIN_REPS && elapsed + per_rep > options.seconds {
            break;
        }
    }
    let finished = last.expect("at least one rep ran");
    let rep_refs: Vec<&Rep> = reps.iter().collect();
    let mut checks = common_checks(workload, &rep_refs, &finished);
    if workload.name == "clustered_parallel" {
        check(&mut checks, "batch_partitions", shards >= 4, format!("shards={shards}"));
    }

    let attempted = reps[0].attempted;
    // Host times are reported in reference seconds: measured seconds times
    // the host's speed while they were measured (see calibrate.rs). The raw
    // readings follow in `raw`.
    let run_s = samples(&reps, |r| r.run_s * r.host_speed);
    let throughput = samples(&reps, |r| r.attempted as f64 / (r.run_s * r.host_speed));
    let audit_s = samples(&reps, |r| r.audit_s() * r.host_speed);
    let setup_s = samples(&reps, |r| r.setup_s * r.host_speed);
    let cpu_s = samples(&reps, |r| r.cpu_s * r.host_speed);
    let peak_rss = samples(&reps, |r| r.peak_rss_mib);
    let sim = &reps[0].sim;
    let values: Vec<(f64, Vec<f64>)> = vec![
        (stats::median(&throughput), throughput),
        // The CPU the median rep burned, not the median CPU: wall gains
        // bought with extra CPU must show on the same rep.
        (cpu_s[stats::median_index(&run_s)], cpu_s),
        (stats::median(&setup_s), setup_s),
        (stats::median(&peak_rss), peak_rss),
        (sim.latency_p50_delta, vec![sim.latency_p50_delta]),
        (sim.latency_tail_delta, vec![sim.latency_tail_delta]),
        (sim.fee_inflation, vec![sim.fee_inflation]),
        (sim.commit_share, vec![sim.commit_share]),
    ];
    let end_to_end: Vec<metrics::Value> = END_TO_END
        .iter()
        .zip(&values)
        .map(|(def, (value, _))| metrics::Value {
            name: def.name.to_string(),
            value: *value,
            unit: def.unit,
        })
        .collect();
    let failed: usize = reps.iter().map(|r| r.failed).sum();
    object([
        ("workload", text(workload.name)),
        ("seed", Value::U64(options.seed)),
        ("correct", Value::Bool(checks.iter().all(|c| c.ok))),
        ("attempted", count(attempted * reps.len())),
        ("failed", count(failed)),
        ("failed_share", number(failed as f64 / (attempted * reps.len()) as f64)),
        ("metrics", metric_object(&end_to_end)),
        ("n", count(reps.len())),
        (
            "samples",
            object(END_TO_END.iter().zip(&values).map(|(def, (_, samples))| {
                (def.name, Value::Array(samples.iter().map(|x| number(*x)).collect()))
            })),
        ),
        ("run_s", Value::Array(run_s.iter().map(|x| number(*x)).collect())),
        // Timed on every rep but not an end-to-end metric: three or four
        // sub-second audits a run spread by 0.10-0.25 from run to run on the
        // reference host, adjusted or not. The traced pass reports its two
        // halves per layer.
        ("audit_s", Value::Array(audit_s.iter().map(|x| number(*x)).collect())),
        ("raw", serde_json::to_value(&reps).expect("reps serialize")),
        ("fingerprint", text(&reps[0].fingerprint)),
        ("sim", serde_json::to_value(sim).expect("sim metrics serialize")),
        ("input", serde_json::to_value(&draws).expect("draws serialize")),
        ("checks", checks_value(&checks)),
    ])
}

/// The traced pass: one untraced reference rep, one traced rep, the replay
/// stages and the partition stage.
fn traced_pass(workload: &'static Workload, options: &Options) -> Result<Value, String> {
    let traced = layers::run(workload, options.seed);
    let mut checks = common_checks(workload, &[&traced.untraced, &traced.traced], &traced.finished);
    check(
        &mut checks,
        "replay_reproduces_tips",
        traced.replay.tips_reproduced,
        "accept_block over every canonical block reaches the run's tips".to_string(),
    );
    match workload.name {
        "clustered_parallel" => check(
            &mut checks,
            "batch_partitions",
            traced.shards >= 4,
            format!("shards={}", traced.shards),
        ),
        "market" | "market_paged" => check(
            &mut checks,
            "mempools_evict",
            traced.replay.mempool_evictions > 0,
            format!("evictions={}", traced.replay.mempool_evictions),
        ),
        "priced_out" => check(
            &mut checks,
            "ac3wn_polls_retry_authorize",
            traced.retry_authorize_share >= 0.9,
            format!("share={:.4}", traced.retry_authorize_share),
        ),
        _ => {}
    }

    let path = Path::new(OUT_DIR).join(format!("trace_{}.json", workload.name));
    let body = serde_json::to_string(&traced.trace_file).expect("trace serializes");
    std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let attempted = traced.untraced.attempted + traced.traced.attempted;
    let failed = traced.untraced.failed + traced.traced.failed;
    Ok(object([
        ("workload", text(workload.name)),
        ("seed", Value::U64(options.seed)),
        ("correct", Value::Bool(checks.iter().all(|c| c.ok))),
        ("attempted", count(attempted)),
        ("failed", count(failed)),
        ("metrics", metric_object(&traced.metrics)),
        ("fingerprint", text(&traced.traced.fingerprint)),
        ("trace_coverage", number(traced.coverage)),
        ("trace_evidence_share", number(traced.evidence_share)),
        ("network", text(&format!("{:?}", traced.network))),
        ("store", text(&format!("{:?}", traced.store))),
        ("checks", checks_value(&checks)),
    ]))
}

fn child(options: &Options) -> Result<(), String> {
    let workload = options.workload.ok_or("child needs --workload")?;
    let traced = options.trace.ok_or("child needs --trace")?;
    let record =
        if traced { traced_pass(workload, options)? } else { untraced_pass(workload, options) };
    println!("{}", serde_json::to_string(&record).expect("record serializes"));
    Ok(())
}

// ---------------------------------------------------------------------------
// The parent: spawn one child per workload and pass, collect, report
// ---------------------------------------------------------------------------

fn spawn_child(
    workload: &Workload,
    options: &Options,
    traced: bool,
    scratch: &Path,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["child", "--workload", workload.name])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .envs(workload.env.iter().copied())
        // Two malloc arenas, one per generator thread. Left to itself glibc
        // opens a third whenever a tick's worker thread starts before the
        // last tick's has let go of its arena, and `clustered_parallel`'s
        // resident set then reads 170 or 220 MiB by the luck of that race.
        .env("MALLOC_ARENA_MAX", "2")
        // The paged store's scratch file goes under the checkout.
        .env("TMPDIR", scratch)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", workload.name))?;
    if !output.status.success() {
        return Err(format!("the {} child failed: {}", workload.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("the child printed nothing")?;
    serde_json::from_str(line).map_err(|e| format!("the child's record does not parse: {e}"))
}

fn field<'a>(record: &'a Value, key: &str) -> Result<&'a Value, String> {
    record.as_object().and_then(|o| o.get(key)).ok_or_else(|| format!("record lacks {key:?}"))
}

fn parent(options: &Options) -> Result<(), String> {
    let selected: Vec<&'static Workload> = match options.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let passes: &[bool] = match options.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let scratch: PathBuf = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(OUT_DIR)
        .join("tmp");
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;

    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut flat = Map::new();
    let mut per_workload = Map::new();
    let mut fingerprints: Vec<(&str, String)> = Vec::new();
    for workload in &selected {
        let mut entry = Map::new();
        for &traced in passes {
            let record = spawn_child(workload, options, traced, &scratch)?;
            correct &= field(&record, "correct")?.as_bool() == Some(true);
            attempted += field(&record, "attempted")?.as_u64().unwrap_or(0);
            failed += field(&record, "failed")?.as_u64().unwrap_or(0);
            let metrics = field(&record, "metrics")?.as_object().ok_or("metrics is no object")?;
            for (name, metric) in metrics.iter() {
                let value = field(metric, "value")?.as_f64().ok_or("value is no number")?;
                let unit = field(metric, "unit")?.as_str().unwrap_or("");
                println!("{}/{name} {value} {unit}", workload.name);
                let key = if selected.len() == 1 {
                    name.clone()
                } else {
                    format!("{}/{name}", workload.name)
                };
                flat.insert(key, metric.clone());
            }
            for c in field(&record, "checks")?.as_array().into_iter().flatten() {
                if field(c, "ok")?.as_bool() != Some(true) {
                    eprintln!(
                        "ac3-perf: {} check {} FAILED: {}",
                        workload.name,
                        field(c, "name")?.as_str().unwrap_or("?"),
                        field(c, "detail")?.as_str().unwrap_or("")
                    );
                }
            }
            if let Some(fp) = field(&record, "fingerprint")?.as_str() {
                fingerprints.push((workload.name, fp.to_string()));
            }
            entry.insert(if traced { "traced" } else { "untraced" }, record);
        }
        per_workload.insert(workload.name, Value::Object(entry));
    }

    // The determinism contract, checked where it is cheapest: the same
    // input must fingerprint identically at one worker and at two.
    let of = |name: &str| fingerprints.iter().find(|(w, _)| *w == name).map(|(_, fp)| fp);
    if let (Some(serial), Some(parallel)) = (of("clustered_serial"), of("clustered_parallel")) {
        if serial != parallel {
            eprintln!("ac3-perf: clustered_serial and clustered_parallel fingerprints differ");
            correct = false;
        }
    }

    let result = object([
        ("seed", Value::U64(options.seed)),
        ("seconds", number(options.seconds)),
        (
            "available_parallelism",
            count(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)),
        ),
        ("correct", Value::Bool(correct)),
        ("workloads", Value::Object(per_workload)),
    ]);
    let path = Path::new(OUT_DIR).join("result.json");
    let body = serde_json::to_string_pretty(&result).expect("result serializes");
    std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let _ = std::fs::remove_dir(&scratch);

    let summary = object([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted.max(1))),
        ("failed", Value::U64(failed)),
        ("metrics", Value::Object(flat)),
    ]);
    println!("{}", serde_json::to_string(&summary).expect("summary serializes"));
    Ok(())
}

// ---------------------------------------------------------------------------
// BENCHMARK.json
// ---------------------------------------------------------------------------

fn manifest() -> String {
    let manifest = object([
        (
            "command",
            Value::Array(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "crates/bench/perf/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(text)
                .collect(),
            ),
        ),
        ("paths", Value::Array(vec![text("crates/bench/perf")])),
        ("run_seconds", Value::U64(DEFAULT_SECONDS as u64)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
                        object([("name", text(w.name)), ("why", text(&why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.label())),
                            ("bound", number(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                metrics::per_layer()
                    .iter()
                    .map(|m| {
                        object([
                            ("name", text(&m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&manifest).expect("manifest serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac3_core::Scheduler;
    use ac3_sim::DirectApi;

    #[test]
    fn manifest_fits_the_contract() {
        let text = manifest();
        assert!(text.len() < 64 * 1024);
        let parsed: Value = serde_json::from_str(&text).unwrap();
        let keys: Vec<&String> = parsed.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        for w in field(&parsed, "workloads").unwrap().as_array().unwrap() {
            let why = field(w, "why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "why too long: {}", why.len());
        }
    }

    #[test]
    fn seeds_change_the_input_and_repeat_it() {
        for generate in [gen::clustered, gen::market, gen::priced_out] {
            let (a, b, c) = (generate(1), generate(1), generate(2));
            assert_eq!(a.draws.swaps, c.draws.swaps, "sizes do not depend on the seed");
            assert_eq!(a.draws.amount_total, b.draws.amount_total);
            assert_ne!(
                (a.draws.amount_total, &a.protocols),
                (c.draws.amount_total, &c.protocols),
                "two seeds drew the same input"
            );
        }
    }

    /// A four-swap mixed-protocol batch small enough for a unit test: the
    /// first four swaps of `priced_out`, without its flooder.
    fn tiny() -> gen::Batch {
        let mut batch = gen::priced_out(3);
        batch.machines.truncate(4);
        batch.protocols.truncate(4);
        batch.swaps = 4;
        batch
    }

    #[test]
    fn timed_api_is_pass_through() {
        // Direct: the scheduler's own serial loop.
        let mut direct = tiny();
        let report = Scheduler::default().run(
            &mut direct.world,
            &mut direct.participants,
            std::mem::take(&mut direct.machines),
        );
        let expected = measure::fingerprint(&report, &direct.world);

        // Wrapped: the bench-side loop polling through TimedApi.
        let mut wrapped = tiny();
        let run = trace::run_traced(
            &mut wrapped.world,
            &mut wrapped.participants,
            std::mem::take(&mut wrapped.machines),
            &wrapped.protocols,
            None,
            Scheduler::default().max_ms,
        );
        assert_eq!(measure::fingerprint(&run.report, &wrapped.world), expected);
        assert!(run.recorder.total_spans() > 0 && !run.stream.is_empty());

        // And a bare DirectApi poll equals a TimedApi poll, call for call.
        let (mut a, mut b) = (tiny(), tiny());
        let recorder = std::cell::RefCell::new(trace::Recorder::default());
        let stream = std::cell::RefCell::new(Vec::new());
        for i in 0..4 {
            let plain =
                a.machines[i].1.poll(&mut DirectApi::new(&mut a.world), &mut a.participants);
            let mut inner = DirectApi::new(&mut b.world);
            let mut api = trace::TimedApi::new(&mut inner, &recorder, &stream);
            let timed = b.machines[i].1.poll(&mut api, &mut b.participants);
            assert_eq!(format!("{plain:?}"), format!("{timed:?}"));
        }
    }
}
