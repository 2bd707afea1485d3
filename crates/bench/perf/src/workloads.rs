//! The six workloads: which generator, which scheduler, which child
//! environment, and why each exists.

use crate::gen::{self, Batch};
use ac3_core::Scheduler;
use ac3_sim::NetworkProfile;

pub struct Workload {
    pub name: &'static str,
    /// One line: the layer this workload puts on the blocking path and the
    /// layers it bypasses (copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub generate: fn(u64) -> Batch,
    pub workers: usize,
    /// Route every client→chain interaction through seeded lossy links.
    pub lossy: bool,
    /// Environment the workload's child process runs under (the store
    /// backend is selected through `StoreConfig::from_env`).
    pub env: &'static [(&'static str, &'static str)],
}

impl Workload {
    pub fn network(&self, seed: u64) -> Option<NetworkProfile> {
        self.lossy.then_some(NetworkProfile {
            seed,
            latency_min_ms: 20,
            latency_max_ms: 400,
            drop_per_mille: 40,
        })
    }

    pub fn scheduler(&self, seed: u64) -> Scheduler {
        Scheduler { network: self.network(seed), ..Scheduler::default() }.with_workers(self.workers)
    }
}

const PAGED_ENV: &[(&str, &str)] =
    &[("AC3_STORE_BACKEND", "paged"), ("AC3_STORE_POOL_PAGES", "8"), ("AC3_STORE_POLICY", "lru")];

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "clustered_serial",
        why: "128 disjoint clusters, 1 worker, direct API, memory store: scheduler loop, machine \
              polls and ChainApi dispatch do the work; mempool, store and links do almost none",
        generate: gen::clustered,
        workers: 1,
        lossy: false,
        env: &[],
    },
    Workload {
        name: "clustered_parallel",
        why: "same input at 2 workers: partitioner, split/absorb_shard, per-tick thread scope \
              and merge barrier; a one-loop scheduler change must show here and in serial at once",
        generate: gen::clustered,
        workers: 2,
        lossy: false,
        env: &[],
    },
    Workload {
        name: "clustered_lossy",
        why: "same input over 20-400 ms links dropping 40 per mille: NetworkedApi, link queues, \
              delivery inside advance and re-bid after loss; the other five bypass links",
        generate: gen::clustered,
        workers: 1,
        lossy: true,
        env: &[],
    },
    Workload {
        name: "market",
        why: "one shard of shared chains, bounded fee-market witness mempools, adaptive bidders: \
              mempool admit/evict/rank, fee re-bids and congestion probes dominate; no parallelism",
        generate: gen::market,
        workers: 1,
        lossy: false,
        env: &[],
    },
    Workload {
        name: "market_paged",
        why: "same input on the paged store with an 8-page pool: every body read faults and \
              decodes, so market_paged minus market is the block-store cost; memory workloads skip it",
        generate: gen::market,
        workers: 1,
        lossy: false,
        env: PAGED_ENV,
    },
    Workload {
        name: "priced_out",
        why: "six fixed-fee swaps vs a mempool flooder: few machines, ~200 ticks, AC3WN \
              retry-authorize rebuilding evidence over a growing header range; clustered shows none",
        generate: gen::priced_out,
        workers: 1,
        lossy: false,
        env: &[],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
