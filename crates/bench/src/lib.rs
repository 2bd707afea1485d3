//! # ac3-bench
//!
//! The evaluation harness: one registry of the paper's experiments and one
//! binary that runs them, `repro`:
//!
//! ```text
//! cargo run --release -p ac3-bench --bin repro [-- <name>... [--write]]
//! ```
//!
//! Each experiment runs at the paper's size, prints its tables, asserts the
//! paper's claim in-process and returns its records. A record is compared
//! exactly with the committed `BENCH_*.json` file at the workspace root;
//! only the host-time fields named in [`HOST_TIME_FIELDS`] are skipped.
//! `--write` rewrites the files instead of checking them.
//!
//! | Experiment | Reproduces | Record |
//! |---|---|---|
//! | `fig7_complex_graphs` | Figure 7 / Section 5.3: cyclic & disconnected graphs (E7) | — |
//! | `fig8_9_timeline` | Figures 8 & 9: per-phase timelines, 10Δ against 4Δ | — |
//! | `fig10_latency` | Figure 10: latency vs diameter, 2Δ·Diam against 4Δ | — |
//! | `sec52_scale` | Section 5.2 at 10k swaps: the sharded scheduler swept over workers (E9) | `BENCH_parallel_scale.json` |
//! | `sec62_cost` | Section 6.2: N+1 contracts against N | — |
//! | `sec63_witness_choice` | Section 6.3: required burial depth vs asset value | — |
//! | `sec63_attack` | Section 6.3: the 51% fork attack, executed | — |
//! | `sec63_campaigns` | Section 6.3 extended: Byzantine and griefing campaigns (E10) | `BENCH_attack_campaigns.json` |
//! | `table1_throughput` | Table 1 + Section 6.4: throughput is `min(tps)` | — |
//! | `sec64_contention` | Section 6.4 under contention, the fee market and the base fee | `BENCH_fee_market.json`, `BENCH_base_fee.json` |
//! | `atomicity_failures` | Section 1 / Lemma 5.1: atomicity under crash faults (E6) | — |
//! | `network_sweep` | Section 2: the network layer over latency × loss profiles | `BENCH_network.json` |
//! | `buffer_pool` | The paged store's buffer pool: pool × policy × access pattern | `BENCH_buffer_pool.json` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atomicity_failures;
mod buffer_pool;
mod fig10_latency;
mod fig7_complex_graphs;
mod fig8_9_timeline;
mod network_sweep;
pub mod sec52_scale;
mod sec62_cost;
mod sec63_attack;
mod sec63_campaigns;
mod sec63_witness_choice;
mod sec64_contention;
mod table1_throughput;

use ac3_core::scenario::MultiSwapScenario;
use ac3_core::{Ac3tw, Ac3wn, Herlihy, HerlihyMulti, ProtocolConfig, SwapMachine};
use ac3_sim::SwapId;
use serde::Serialize;
use serde_json::Value;
use std::path::PathBuf;

/// One experiment: its name on the `repro` command line and the function
/// that runs it at the paper's size, asserts its claims and returns its
/// records (none for most).
pub struct Experiment {
    /// The name `repro` selects it by.
    pub name: &'static str,
    /// Run it, printing its tables.
    pub run: fn() -> Vec<Record>,
}

/// Every experiment, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "fig7_complex_graphs", run: fig7_complex_graphs::run },
    Experiment { name: "fig8_9_timeline", run: fig8_9_timeline::run },
    Experiment { name: "fig10_latency", run: fig10_latency::run },
    Experiment { name: "sec52_scale", run: sec52_scale::run },
    Experiment { name: "sec62_cost", run: sec62_cost::run },
    Experiment { name: "sec63_witness_choice", run: sec63_witness_choice::run },
    Experiment { name: "sec63_attack", run: sec63_attack::run },
    Experiment { name: "sec63_campaigns", run: sec63_campaigns::run },
    Experiment { name: "table1_throughput", run: table1_throughput::run },
    Experiment { name: "sec64_contention", run: sec64_contention::run },
    Experiment { name: "atomicity_failures", run: atomicity_failures::run },
    Experiment { name: "network_sweep", run: network_sweep::run },
    Experiment { name: "buffer_pool", run: buffer_pool::run },
];

/// Record members that hold host time. They differ from run to run, so the
/// record check skips them wherever they appear; every other member must
/// match the committed file exactly.
pub const HOST_TIME_FIELDS: &[&str] = &[
    "timings_informational_us",
    "cold_pass_us",
    "wall_ms",
    "swaps_per_wall_sec",
    "speedup_vs_serial",
];

/// One experiment's output record: the `BENCH_*.json` file it belongs in
/// and its JSON text.
#[derive(Debug)]
pub struct Record {
    /// File name at the workspace root.
    pub file: &'static str,
    /// Compact JSON, newline-terminated, exactly as the file holds it.
    pub json: String,
}

impl Record {
    /// Serialize `value` as the record for `file`.
    pub fn new<T: Serialize>(file: &'static str, value: &T) -> Record {
        let json = serde_json::to_string(value).expect("records serialize");
        Record { file, json: format!("{json}\n") }
    }

    /// Where the committed copy lives: the workspace root, whatever the
    /// working directory.
    pub fn path(&self) -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(self.file)
    }

    /// Compare with the committed copy, skipping [`HOST_TIME_FIELDS`].
    /// The error lists every member that differs.
    pub fn check(&self) -> Result<(), String> {
        let committed = std::fs::read_to_string(self.path())
            .map_err(|e| format!("{}: cannot read the committed record: {e}", self.file))?;
        let parse = |text: &str| {
            serde_json::from_str::<Value>(text).map_err(|e| format!("{}: {e}", self.file))
        };
        let mut drift = Vec::new();
        diff(self.file, &parse(&self.json)?, &parse(&committed)?, &mut drift);
        if drift.is_empty() {
            Ok(())
        } else {
            Err(drift.join("\n"))
        }
    }

    /// Overwrite the committed copy with this record.
    pub fn write(&self) -> std::io::Result<()> {
        std::fs::write(self.path(), &self.json)
    }
}

/// Push one line per member of `fresh` that differs from `committed`.
fn diff(path: &str, fresh: &Value, committed: &Value, drift: &mut Vec<String>) {
    let text = |v: Option<&Value>| {
        v.map_or("(absent)".to_string(), |v| serde_json::to_string(v).expect("values serialize"))
    };
    match (fresh, committed) {
        (Value::Object(f), Value::Object(c)) => {
            let mut seen: Vec<&String> = Vec::new();
            for (key, _) in f.iter().chain(c.iter()) {
                if seen.contains(&key) || HOST_TIME_FIELDS.contains(&key.as_str()) {
                    continue;
                }
                seen.push(key);
                let at = format!("{path}.{key}");
                match (f.get(key), c.get(key)) {
                    (Some(f), Some(c)) => diff(&at, f, c, drift),
                    (f, c) => drift.push(format!("{at}: committed {}, fresh {}", text(c), text(f))),
                }
            }
        }
        (Value::Array(f), Value::Array(c)) if f.len() != c.len() => {
            drift.push(format!("{path}: committed {} items, fresh {}", c.len(), f.len()))
        }
        (Value::Array(f), Value::Array(c)) => {
            for (i, (f, c)) in f.iter().zip(c).enumerate() {
                diff(&format!("{path}[{i}]"), f, c, drift);
            }
        }
        _ if fresh == committed => {}
        _ => drift.push(format!(
            "{path}: committed {}, fresh {}",
            text(Some(committed)),
            text(Some(fresh))
        )),
    }
}

/// The registry entries `names` select, in registry order; all of them when
/// `names` is empty. An unknown name is returned as the error.
pub fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if let Some(unknown) = names.iter().find(|n| !EXPERIMENTS.iter().any(|e| e.name == *n)) {
        return Err(unknown.clone());
    }
    Ok(EXPERIMENTS
        .iter()
        .filter(|e| names.is_empty() || names.contains(&e.name.to_string()))
        .collect())
}

/// Print a row-oriented text table with a title and aligned columns.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:<width$}", width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// The mixed-protocol workloads' machines: swap `i` runs under protocol
/// `i mod 4` (AC3WN, AC3TW, Herlihy, Herlihy-multi), each under `cfg`.
fn mixed_machines(
    s: &MultiSwapScenario,
    cfg: ProtocolConfig,
) -> Vec<(SwapId, Box<dyn SwapMachine>)> {
    let ac3wn = Ac3wn::new(cfg.clone());
    let ac3tw = Ac3tw::new(cfg.clone());
    let herlihy = Herlihy::new(cfg.clone());
    let herlihy_multi = HerlihyMulti::new(cfg);
    s.machines_with(|swap| match swap.id.0 % 4 {
        0 => Box::new(ac3wn.machine(swap.graph.clone(), swap.witness)),
        1 => Box::new(ac3tw.machine(swap.graph.clone())),
        2 => Box::new(herlihy.machine(swap.graph.clone()).expect("two-party has a leader")),
        _ => Box::new(herlihy_multi.machine(swap.graph.clone()).expect("valid graph")),
    })
}

/// Format a float with two decimals (keeps tables tidy).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_printing_does_not_panic() {
        print_table("t", &["col1", "c2"], &[vec!["1".into(), "long cell".into()]]);
    }

    #[test]
    fn f2_formats_two_decimals() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f2(4.0), "4.00");
    }

    fn drift_of(fresh: &str, committed: &str) -> Vec<String> {
        let mut drift = Vec::new();
        let parse = |t: &str| serde_json::from_str::<Value>(t).unwrap();
        diff("r", &parse(fresh), &parse(committed), &mut drift);
        drift
    }

    #[test]
    fn record_diff_is_exact_except_host_time() {
        let committed =
            r#"{"a":1,"rows":[{"wall_ms":5,"x":0.5}],"timings_informational_us":[["k",3]]}"#;
        assert!(drift_of(committed, committed).is_empty());
        let host_only = r#"{"a":1,"rows":[{"wall_ms":9,"x":0.5}],"timings_informational_us":[]}"#;
        assert!(drift_of(host_only, committed).is_empty());
        let moved = r#"{"a":1,"rows":[{"wall_ms":5,"x":0.5000001}],"timings_informational_us":[]}"#;
        assert_eq!(drift_of(moved, committed), ["r.rows[0].x: committed 0.5, fresh 0.5000001"]);
        let dropped = r#"{"rows":[{"wall_ms":5,"x":0.5}]}"#;
        assert_eq!(drift_of(dropped, committed), ["r.a: committed 1, fresh (absent)"]);
        let shorter = r#"{"a":1,"rows":[],"timings_informational_us":[]}"#;
        assert_eq!(drift_of(shorter, committed), ["r.rows: committed 1 items, fresh 0"]);
    }

    #[test]
    fn select_keeps_registry_order_and_rejects_unknown_names() {
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(select(&[]).unwrap().len(), EXPERIMENTS.len());
        let picked = select(&names(&["buffer_pool", "fig10_latency"])).unwrap();
        assert_eq!(
            picked.iter().map(|e| e.name).collect::<Vec<_>>(),
            ["fig10_latency", "buffer_pool"]
        );
        assert_eq!(select(&names(&["fig11"])).err().as_deref(), Some("fig11"));
    }
}
