//! Determinism contract of the message-level network layer.
//!
//! Two guarantees, both bitwise:
//!
//! 1. **Zero-profile equivalence** — a batch whose submissions `World`'s
//!    [`ac3_sim::ChainApi`] impl routes through links under a zero-latency
//!    / zero-loss [`ac3_sim::NetworkProfile`] produces exactly the
//!    fingerprint of the same batch with no network attached (zero-delay
//!    sends are applied inline, so the instruction stream is identical), at
//!    every worker count.
//! 2. **Seeded-loss determinism** — a batch under a lossy, high-latency
//!    profile fingerprints identically at 1, 2 and 4 workers: link RNG
//!    state moves with its chain slot when the world is sharded, so
//!    per-message sampling replays the serial stream verbatim.

use ac3_core::scenario::{clustered_swaps_scenario, MultiSwapScenario, ScenarioConfig};
use ac3_core::{Ac3tw, Ac3wn, Herlihy, HerlihyMulti, ProtocolConfig, Scheduler, SwapMachine};
use ac3_sim::{NetworkProfile, SwapId};
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
/// comparison (the shape of `parallel_determinism`'s fingerprint, plus the
/// network delivery counters).
#[derive(Serialize)]
struct Fingerprint {
    outcomes: Vec<(u64, String)>,
    ticks: u64,
    started_at: u64,
    finished_at: u64,
    fees: String,
    chains: Vec<String>,
    timeline: Vec<String>,
    network: String,
}

/// Run the standard clustered mixed-protocol batch with `workers` threads,
/// optionally routing every submission through a network profile, and
/// fingerprint the result.
fn fingerprint(workers: usize, network: Option<NetworkProfile>) -> String {
    let mut s = clustered_swaps_scenario(5, 4, 2, &ScenarioConfig::default());
    let machines = mixed_machines(&s);
    let mut scheduler = Scheduler::default().with_workers(workers);
    if let Some(profile) = network {
        scheduler = scheduler.with_network(profile);
    }
    let batch = scheduler.run(&mut s.world, &mut s.participants, machines);

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
    // Same-timestamp events from unrelated shards may interleave
    // differently serial vs parallel; canonicalize by sorting serialized
    // events (each embeds its `at`) exactly as parallel_determinism does.
    let mut timeline: Vec<String> =
        s.world.timeline.events().iter().map(|e| serde_json::to_string(e).unwrap()).collect();
    timeline.sort();
    let fp = Fingerprint {
        outcomes,
        ticks: batch.ticks,
        started_at: batch.started_at,
        finished_at: batch.finished_at,
        fees: serde_json::to_string(&s.world.fees).unwrap(),
        chains,
        timeline,
        network: serde_json::to_string(&s.world.network_stats()).unwrap(),
    };
    serde_json::to_string(&fp).unwrap()
}

/// The embedded `LinkStats` JSON of a fingerprint.
fn network_counters(fp: &str) -> serde_json::Value {
    let v: serde_json::Value = serde_json::from_str(fp).unwrap();
    let stats = v
        .as_object()
        .and_then(|o| o.get("network"))
        .and_then(|n| n.as_str())
        .expect("fingerprint embeds stats");
    serde_json::from_str(stats).unwrap()
}

fn counter(stats: &serde_json::Value, key: &str) -> u64 {
    stats.as_object().and_then(|o| o.get(key)).and_then(|v| v.as_u64()).expect("counter present")
}

/// The API-redesign acceptance test, part 1: a batch routed through links
/// under a zero profile is not merely equivalent to one with no network —
/// it is bitwise identical, timeline, ledger and chain state included, at
/// every worker count. Zero-delay sends are applied inline at send time, so
/// both runs execute the same instruction stream against the world.
#[test]
fn zero_profile_networked_batch_matches_direct_bitwise() {
    // The fingerprint embeds the network delivery counters, which a direct
    // run (no links) necessarily reports as all-zero; strip that one field
    // before comparing and check the counters separately.
    let strip = |fp: &str| {
        let v: serde_json::Value = serde_json::from_str(fp).unwrap();
        let mut kept = serde::Map::new();
        for (key, value) in v.as_object().unwrap().iter() {
            if key != "network" {
                kept.insert(key.clone(), value.clone());
            }
        }
        serde_json::to_string(&serde_json::Value::Object(kept)).unwrap()
    };
    let direct = strip(&fingerprint(1, None));
    for w in [1, 2, 4] {
        let networked = fingerprint(w, Some(NetworkProfile::zero(0xAC3)));
        assert_eq!(
            strip(&networked),
            direct,
            "workers={w}: zero-profile networked run diverged from the direct run"
        );
        let stats = network_counters(&networked);
        assert!(counter(&stats, "submits") > 0, "submissions did route through links");
        assert_eq!(counter(&stats, "dropped"), 0, "a zero profile never drops");
    }
}

/// The API-redesign acceptance test, part 2: a seeded lossy, high-latency
/// batch fingerprints bitwise-identically at 1, 2 and 4 workers — network
/// counters included — and the profile demonstrably did something
/// (messages were delayed and dropped).
#[test]
fn seeded_lossy_batch_is_bitwise_identical_at_every_worker_count() {
    let profile = NetworkProfile {
        seed: 0xAC3_0005,
        latency_min_ms: 20,
        latency_max_ms: 400,
        drop_per_mille: 60,
    };
    let reference = fingerprint(1, Some(profile));
    for w in [2, 4] {
        assert_eq!(
            fingerprint(w, Some(profile)),
            reference,
            "workers={w} diverged from workers=1 under the lossy profile"
        );
    }
    let stats = network_counters(&reference);
    assert!(counter(&stats, "submits") > 0, "no submissions routed through links");
    assert!(counter(&stats, "dropped") > 0, "a 6% loss profile dropped nothing");
    assert!(counter(&stats, "delivered") > 0, "no message was ever delivered");
}

/// The same lossy batch also fingerprints identically run-to-run (the
/// profile is the only source of randomness, and it is seeded).
#[test]
fn seeded_lossy_batch_is_reproducible_run_to_run() {
    let profile =
        NetworkProfile { seed: 7, latency_min_ms: 0, latency_max_ms: 900, drop_per_mille: 25 };
    assert_eq!(fingerprint(1, Some(profile)), fingerprint(1, Some(profile)));
}
