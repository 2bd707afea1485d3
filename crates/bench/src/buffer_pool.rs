//! The paged block store's buffer pool: pool size × replacement policy ×
//! access pattern.
//!
//! A chain of `CHAIN_BLOCKS` blocks (coinbase + a payment every other
//! block) is built on the paged backend with deliberately small pages, then
//! read back under three access patterns:
//!
//! * **sequential** — a full canonical scan, genesis → tip (the
//!   `replay_state_from_genesis` shape): one cold pass over every page;
//! * **deep_reorg** — repeated backward walks over the 48-block suffix
//!   below the tip (the reorg reindex/replay shape): a working set larger
//!   than the small pools, read in the pathological reverse order;
//! * **hot_tip** — round-robin reads of the last 8 blocks (the fork-mining
//!   / evidence-building shape): a working set that fits any pool.
//!
//! For every configuration the experiment records the *deterministic* hit
//! rate of one cold pass (build + pattern replay is a fixed sequence, so
//! hits and misses are machine-independent) and the pass's wall time. It
//! also times one chain build per backend, memory versus paged, as the
//! per-block accept cost.
//!
//! Results go to `BENCH_buffer_pool.json`. The `ratchet` object holds the
//! hit rates; the record check holds them, like every other deterministic
//! member, to the committed values exactly, which pins the replacement
//! policies' quality (an accidental LRU→FIFO regression shows up as a
//! hit-rate change on `deep_reorg`/`hot_tip`). The wall times sit in
//! `cold_pass_us` and `timings_informational_us`, which the check skips.

use crate::{f2, print_table, Record};
use ac3_chain::{
    Address, Amount, Blockchain, ChainId, ChainParams, EchoVm, PolicyKind, StoreConfig, TxBuilder,
};
use ac3_crypto::KeyPair;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Chain length: with 512-byte pages this is far larger than every pool.
const CHAIN_BLOCKS: u64 = 300;
/// Small pages so pool pressure is real at bench scale.
const PAGE_SIZE: usize = 512;
/// Pool sweep, in pages: starved, mid, comfortable.
const POOLS: [usize; 3] = [8, 32, 128];
/// Blocks in the deep-reorg working set.
const REORG_DEPTH: usize = 48;
/// Blocks in the hot-tip working set.
const HOT_SET: usize = 8;

const PATTERNS: [&str; 3] = ["sequential", "deep_reorg", "hot_tip"];

fn addr(seed: &[u8]) -> Address {
    Address::from(KeyPair::from_seed(seed).public())
}

/// Build the bench chain on the given storage backend.
fn build_chain(config: StoreConfig) -> Blockchain {
    let alice = addr(b"bench-alice");
    let bob = addr(b"bench-bob");
    let miner = addr(b"bench-miner");
    let allocs: [(Address, Amount); 2] = [(alice, 1_000_000), (bob, 1_000)];
    let mut chain = Blockchain::with_store_config(
        ChainId(0),
        ChainParams::test("buffer-pool"),
        Arc::new(EchoVm),
        &allocs,
        config,
    );
    let mut builder = TxBuilder::new(KeyPair::from_seed(b"bench-alice"), 0);
    for i in 0..CHAIN_BLOCKS {
        if i % 2 == 0 {
            if let Some((inputs, outputs)) = chain.plan_payment(&alice, &bob, 5 + i % 20, 1) {
                chain.submit(builder.transfer(inputs, outputs, 1)).unwrap();
            }
        }
        chain.mine_block(miner, 1_000 * (i + 1)).unwrap();
    }
    assert_eq!(chain.height(), CHAIN_BLOCKS);
    chain
}

/// Run one access pattern against the chain's store (read-only).
fn run_pattern(chain: &Blockchain, pattern: &str) {
    let store = chain.store();
    let canonical = store.canonical_hashes();
    match pattern {
        "sequential" => {
            for hash in canonical {
                std::hint::black_box(store.get(hash).expect("canonical block"));
            }
        }
        "deep_reorg" => {
            let start = canonical.len() - REORG_DEPTH;
            for _ in 0..8 {
                for hash in canonical[start..].iter().rev() {
                    std::hint::black_box(store.get(hash).expect("canonical block"));
                }
            }
        }
        "hot_tip" => {
            let start = canonical.len() - HOT_SET;
            for round in 0..100 {
                let hash = &canonical[start + round % HOT_SET];
                std::hint::black_box(store.get(hash).expect("canonical block"));
            }
        }
        other => panic!("unknown pattern {other}"),
    }
}

#[derive(Serialize)]
struct ConfigResult {
    pattern: String,
    policy: &'static str,
    pool_pages: usize,
    hit_rate: f64,
    hits: u64,
    misses: u64,
    evictions: u64,
    cold_pass_us: u64,
}

#[derive(Serialize)]
struct BufferPoolRecord {
    experiment: &'static str,
    chain_blocks: u64,
    page_size: usize,
    bytes_stored: u64,
    configs: Vec<ConfigResult>,
    /// Deterministic metrics only: hit rates of fixed access sequences.
    ratchet: BTreeMap<String, f64>,
    /// Wall-clock context for humans; the record check skips it.
    timings_informational_us: BTreeMap<String, u64>,
}

/// Run the sweep and the accept-cost timings; returns the record.
pub fn run() -> Vec<Record> {
    // --- Deterministic sweep: hit rate of one cold pass per config. ---
    let mut configs: Vec<ConfigResult> = Vec::new();
    let mut ratchet = BTreeMap::new();
    let mut timings = BTreeMap::new();
    let mut bytes_stored = 0;
    for pattern in PATTERNS {
        for policy in PolicyKind::all() {
            for pool_pages in POOLS {
                let chain =
                    build_chain(StoreConfig::Paged { pool_pages, page_size: PAGE_SIZE, policy });
                bytes_stored = chain.store_stats().bytes_stored;
                let before = chain.store_stats();
                let t0 = Instant::now();
                run_pattern(&chain, pattern);
                let cold_pass_us = t0.elapsed().as_micros() as u64;
                let after = chain.store_stats();
                let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
                let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
                let key = format!("hit_rate/{pattern}/{}/{pool_pages}p", policy.name());
                ratchet.insert(key.clone(), hit_rate);
                timings.insert(key, cold_pass_us);
                configs.push(ConfigResult {
                    pattern: pattern.to_string(),
                    policy: policy.name(),
                    pool_pages,
                    hit_rate,
                    hits,
                    misses,
                    evictions: after.evictions - before.evictions,
                    cold_pass_us,
                });
            }
        }
    }
    // The chain must dwarf the smallest pool, which must evict under
    // every pattern.
    assert!(
        bytes_stored > 10 * (POOLS[0] * PAGE_SIZE) as u64,
        "bench chain must be ≥ 10× the smallest pool"
    );
    assert!(
        configs.iter().all(|r| r.pool_pages != POOLS[0] || r.evictions > 0),
        "smallest pool must evict under every pattern"
    );
    print_table(
        &format!(
            "Buffer pool: one cold pass over a {CHAIN_BLOCKS}-block chain \
             ({bytes_stored} bytes in {PAGE_SIZE}-byte pages)"
        ),
        &["pattern", "policy", "pool pages", "hits", "misses", "evictions", "hit rate"],
        &configs
            .iter()
            .map(|r| {
                vec![
                    r.pattern.clone(),
                    r.policy.to_string(),
                    r.pool_pages.to_string(),
                    r.hits.to_string(),
                    r.misses.to_string(),
                    r.evictions.to_string(),
                    f2(r.hit_rate),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // --- Per-block accept cost: memory vs paged backends (host time). ---
    let backends: Vec<(String, StoreConfig)> =
        std::iter::once(("memory".to_string(), StoreConfig::Memory))
            .chain(PolicyKind::all().into_iter().map(|p| {
                (
                    format!("paged_{}", p.name()),
                    StoreConfig::Paged { pool_pages: POOLS[1], page_size: PAGE_SIZE, policy: p },
                )
            }))
            .collect();
    let mut accept_rows = Vec::new();
    for (name, config) in &backends {
        let t0 = Instant::now();
        let chain = build_chain(*config);
        let per_block_us = t0.elapsed().as_micros() as u64 / CHAIN_BLOCKS;
        drop(chain);
        timings.insert(format!("accept_per_block/{name}"), per_block_us);
        accept_rows.push(vec![name.clone(), per_block_us.to_string()]);
    }
    print_table(
        &format!("Accept cost per block, memory vs paged ({} pages; host time)", POOLS[1]),
        &["backend", "us/block"],
        &accept_rows,
    );

    let record = BufferPoolRecord {
        experiment: "buffer_pool",
        chain_blocks: CHAIN_BLOCKS,
        page_size: PAGE_SIZE,
        bytes_stored,
        configs,
        ratchet,
        timings_informational_us: timings,
    };
    vec![Record::new("BENCH_buffer_pool.json", &record)]
}
