//! The metric catalogue: every name the benchmark reports, with its unit,
//! direction and (for end-to-end metrics) regression bound. `BENCHMARK.json`
//! is printed from this table (`ac3-perf manifest`), `compare` applies its
//! bounds, and a unit test holds the emitted metrics to it.

use crate::gen::Protocol;
use crate::trace::Op;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How `compare` judges a change in an end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Host time or memory: the median may worsen by `bound` of the
    /// baseline (or by `floor` in absolute terms, whichever is larger).
    Relative { floor: f64 },
    /// Simulated behaviour: a pure function of the seed, so two runs of one
    /// seed must agree exactly.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen — across
    /// seeds, which is how the driver measures it.
    pub bound: f64,
    pub rule: Rule,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "swaps_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        rule: Rule::Relative { floor: 0.0 },
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        rule: Rule::Relative { floor: 0.0 },
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        rule: Rule::Relative { floor: 0.02 },
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.12,
        rule: Rule::Relative { floor: 0.0 },
    },
    EndToEnd {
        name: "sim_latency_p50_delta",
        unit: "delta",
        better: Better::Lower,
        bound: 0.05,
        rule: Rule::Exact,
    },
    EndToEnd {
        name: "sim_latency_tail_delta",
        unit: "delta",
        better: Better::Lower,
        bound: 0.05,
        rule: Rule::Exact,
    },
    EndToEnd {
        name: "sim_fee_inflation",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
        rule: Rule::Exact,
    },
    EndToEnd {
        name: "sim_commit_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.05,
        rule: Rule::Exact,
    },
];

#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn layer(name: impl Into<String>, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name: name.into(), unit, better }
}

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut all = Vec::new();
    for p in Protocol::ALL {
        let base = format!("core.machine.{}", p.label());
        all.push(layer(format!("{base}.polls"), "count", Lower));
        all.push(layer(format!("{base}.noop_polls"), "count", Lower));
        all.push(layer(format!("{base}.self_s"), "s", Lower));
    }
    all.push(layer("core.machine.noop_poll_ratio", "ratio", Lower));
    for op in Op::API {
        all.push(layer(format!("sim.api.{}.calls", op.name()), "count", Lower));
        all.push(layer(format!("sim.api.{}.s", op.name()), "s", Lower));
    }
    for (name, unit, better) in [
        ("sim.advance.s", "s", Lower),
        ("sim.advance.blocks", "count", Lower),
        ("sim.advance.us_per_block", "us", Lower),
        ("sim.network.sent", "count", Lower),
        ("sim.network.delivered", "count", Higher),
        ("sim.network.dropped", "count", Lower),
        ("sim.network.nacked", "count", Lower),
        ("core.scheduler.run_s", "s", Lower),
        ("core.scheduler.ticks", "count", Lower),
        ("core.scheduler.overhead_s", "s", Lower),
        ("core.scheduler.stripe_imbalance", "ratio", Lower),
        ("core.partition.partition_s", "s", Lower),
        ("core.partition.shards", "count", Higher),
        ("core.partition.largest_shard_share", "ratio", Lower),
        ("sim.world.split_shard_s", "s", Lower),
        ("sim.world.absorb_shard_s", "s", Lower),
        ("chain.accept_block.s", "s", Lower),
        ("chain.accept_block.blocks", "count", Lower),
        ("chain.accept_block.txs", "count", Lower),
        ("chain.mine_block.s", "s", Lower),
        ("chain.mine_block.blocks", "count", Lower),
        ("chain.replay_state.s", "s", Lower),
        ("chain.mempool.submit.s", "s", Lower),
        ("chain.mempool.submit.txs", "count", Lower),
        ("chain.mempool.select.s", "s", Lower),
        ("chain.mempool.select.calls", "count", Lower),
        ("chain.mempool.replace.s", "s", Lower),
        ("chain.mempool.replace.calls", "count", Lower),
        ("chain.mempool.evictions", "count", Lower),
        ("core.fee.rebids", "count", Lower),
        ("chain.store.insert.s", "s", Lower),
        ("chain.store.insert.blocks", "count", Lower),
        ("chain.store.get.s", "s", Lower),
        ("chain.store.get.reads", "count", Lower),
        ("chain.store.hits", "count", Higher),
        ("chain.store.misses", "count", Lower),
        ("chain.store.evictions", "count", Lower),
        ("chain.store.write_backs", "count", Lower),
        ("chain.store.hit_rate", "ratio", Higher),
        ("crypto.verify.s", "s", Lower),
        ("crypto.verify.sigs", "count", Lower),
        ("crypto.sign.s", "s", Lower),
        ("crypto.sign.sigs", "count", Lower),
        ("crypto.hash.s", "s", Lower),
        ("crypto.hash.bytes", "bytes", Lower),
        ("crypto.merkle.s", "s", Lower),
        ("crypto.merkle.leaves", "count", Lower),
        ("core.audit.all_atomic_s", "s", Lower),
        ("sim.world.integrity_s", "s", Lower),
        ("bench.trace_overhead_ratio", "ratio", Lower),
        ("bench.trace_spans", "count", Lower),
    ] {
        all.push(layer(name, unit, better));
    }
    all
}

/// One reported value.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_fits_the_benchmark_contract() {
        let layers = per_layer();
        assert_eq!(layers.len(), 87);
        assert!(layers.len() <= 128 && END_TO_END.len() <= 16);
        let mut names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        assert!(names.iter().all(|n| well_formed(n)), "a name breaks the contract's alphabet");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }
}
