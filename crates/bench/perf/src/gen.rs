//! The seeded workload generator.
//!
//! Every input of the benchmark is a pure function of `--seed`: the same
//! seed yields byte-identical worlds, casts and machines (pinned by the
//! outcome fingerprint agreeing across reps), and two seeds yield different
//! draws. Worlds are assembled from the program's public parts only —
//! [`World::add_chain`], [`ParticipantSet::add`], [`SwapGraph::new`] and the
//! four protocol drivers' `machine` constructors.
//!
//! Sizes are constants of this file, not options: the seed moves *which*
//! swap gets which protocol, shape, amounts and placement, never how much
//! work a workload is. Batch totals (swaps, chains, clusters) are therefore
//! identical across seeds, which is what keeps host-time metrics comparable
//! from one seed to the next.

use crate::flooder::Flooder;
use ac3_chain::{Address, Amount, BaseFeeSchedule, ChainId, ChainParams};
use ac3_core::fee::FeePolicy;
use ac3_core::graph::{SwapEdge, SwapGraph};
use ac3_core::{Ac3tw, Ac3wn, Herlihy, HerlihyMulti, ProtocolConfig, SwapMachine};
use ac3_sim::{OutageWindow, ParticipantSet, SwapId, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Which machine drives a slot of the batch — the `protocol` attribute of
/// every poll span and the `core.machine.<label>.*` metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Protocol {
    Ac3wn,
    Ac3tw,
    Herlihy,
    HerlihyMulti,
    Flooder,
}

impl Protocol {
    /// Every protocol, in metric order.
    pub const ALL: [Protocol; 5] = [
        Protocol::Ac3wn,
        Protocol::Ac3tw,
        Protocol::Herlihy,
        Protocol::HerlihyMulti,
        Protocol::Flooder,
    ];

    /// The metric-name segment for this protocol.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Ac3wn => "ac3wn",
            Protocol::Ac3tw => "ac3tw",
            Protocol::Herlihy => "herlihy",
            Protocol::HerlihyMulti => "herlihy_multi",
            Protocol::Flooder => "flooder",
        }
    }
}

/// What the seed drew, recorded in `result.json` so two runs can be told
/// apart (and a repeated seed recognised) without re-deriving the input.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Draws {
    pub swaps: usize,
    pub chains: usize,
    pub participants: usize,
    pub ac3wn: usize,
    pub ac3tw: usize,
    pub herlihy: usize,
    pub herlihy_multi: usize,
    pub three_party_rings: usize,
    pub amount_total: u64,
    /// Workload-specific draws (cluster size extremes, flood window, ...).
    pub notes: String,
}

/// One generated closed batch: everything `Scheduler::run` consumes.
pub struct Batch {
    pub world: World,
    pub participants: ParticipantSet,
    pub machines: Vec<(SwapId, Box<dyn SwapMachine>)>,
    /// The driver of each machine, in submission order.
    pub protocols: Vec<Protocol>,
    /// Honest swaps attempted (adversary machines excluded) — the
    /// denominator of every share and of `swaps_per_s`.
    pub swaps: usize,
    /// Swaps the workload prices out by design (`priced_out`'s fixed-fee
    /// AC3WN lane); empty elsewhere.
    pub priced_out_lane: Vec<SwapId>,
    pub draws: Draws,
}

/// Ids at and above this belong to bench-side adversary machines.
pub const ADVERSARY_ID_BASE: u64 = 1_000_000;

/// The shape of one swap as the seed drew it, before chains exist.
struct SwapShape {
    protocol: Protocol,
    /// Edge amounts; 2 edges = two-party, 3 = a three-party ring.
    amounts: Vec<Amount>,
}

fn stream(seed: u64, workload: u64) -> StdRng {
    // Distinct streams per generator so `market` at seed s shares no draws
    // with `clustered` at seed s.
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ workload)
}

/// A seeded Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i as u64 + 1) as usize);
    }
}

/// `n` values cycling through `0..kinds`, in a seeded order: every kind
/// appears `n / kinds` times (±1), whatever the seed.
fn deck(rng: &mut StdRng, n: usize, kinds: usize) -> Vec<usize> {
    let mut cards: Vec<usize> = (0..n).map(|i| i % kinds).collect();
    shuffle(rng, &mut cards);
    cards
}

/// The standard mix of `n` swaps as (driver, parties): a quarter under each
/// of the four drivers, and one in five of each driver's swaps a
/// three-party ring.
fn standard_mix(n: usize) -> Vec<(Protocol, usize)> {
    (0..n).map(|i| (Protocol::ALL[i % 4], if (i / 4) % 5 == 0 { 3 } else { 2 })).collect()
}

/// Deal `mix` in a seeded order with seeded amounts (uniform in 10..=100).
/// The mix itself is the caller's constant: the seed decides which swap
/// gets which shape, never how many of each exist.
fn draw_shapes(rng: &mut StdRng, mut mix: Vec<(Protocol, usize)>) -> Vec<SwapShape> {
    shuffle(rng, &mut mix);
    mix.into_iter()
        .map(|(protocol, parties)| SwapShape {
            protocol,
            amounts: (0..parties).map(|_| rng.gen_range(10..101)).collect(),
        })
        .collect()
}

fn tally(draws: &mut Draws, shape: &SwapShape) {
    draws.swaps += 1;
    match shape.protocol {
        Protocol::Ac3wn => draws.ac3wn += 1,
        Protocol::Ac3tw => draws.ac3tw += 1,
        Protocol::Herlihy => draws.herlihy += 1,
        Protocol::HerlihyMulti => draws.herlihy_multi += 1,
        Protocol::Flooder => {}
    }
    if shape.amounts.len() == 3 {
        draws.three_party_rings += 1;
    }
    draws.amount_total += shape.amounts.iter().sum::<Amount>();
}

/// Ring edges `p0 → p1 → … → p0`, edge `e` on `chains[e]`.
fn ring_edges(cast: &[Address], amounts: &[Amount], chains: &[ChainId]) -> Vec<SwapEdge> {
    (0..cast.len())
        .map(|e| SwapEdge {
            from: cast[e],
            to: cast[(e + 1) % cast.len()],
            amount: amounts[e],
            chain: chains[e],
        })
        .collect()
}

fn build_machine(
    protocol: Protocol,
    cfg: &ProtocolConfig,
    graph: SwapGraph,
    witness: ChainId,
) -> Box<dyn SwapMachine> {
    match protocol {
        Protocol::Ac3wn => Box::new(Ac3wn::new(cfg.clone()).machine(graph, witness)),
        Protocol::Ac3tw => Box::new(Ac3tw::new(cfg.clone()).machine(graph)),
        Protocol::Herlihy => {
            Box::new(Herlihy::new(cfg.clone()).machine(graph).expect("rings have a leader"))
        }
        Protocol::HerlihyMulti => {
            Box::new(HerlihyMulti::new(cfg.clone()).machine(graph).expect("rings are connected"))
        }
        Protocol::Flooder => unreachable!("the flooder is built by its workload"),
    }
}

// ---------------------------------------------------------------------------
// clustered_serial / clustered_parallel / clustered_lossy
// ---------------------------------------------------------------------------

/// Disjoint clusters in the clustered batch.
pub const CLUSTERS: usize = 128;
/// Cluster sizes are drawn in `CLUSTER_MIN..=CLUSTER_MAX` and then nudged,
/// by seeded single steps, until they sum to `CLUSTERS * CLUSTER_MEAN`.
pub const CLUSTER_MIN: usize = 4;
pub const CLUSTER_MAX: usize = 12;
pub const CLUSTER_MEAN: usize = 8;

fn draw_cluster_sizes(rng: &mut StdRng) -> Vec<usize> {
    let mut sizes: Vec<usize> = (0..CLUSTERS)
        .map(|_| rng.gen_range(CLUSTER_MIN as u64..CLUSTER_MAX as u64 + 1) as usize)
        .collect();
    let target = CLUSTERS * CLUSTER_MEAN;
    let mut total: usize = sizes.iter().sum();
    while total != target {
        let i = rng.gen_range(0..CLUSTERS as u64) as usize;
        if total > target && sizes[i] > CLUSTER_MIN {
            sizes[i] -= 1;
            total -= 1;
        } else if total < target && sizes[i] < CLUSTER_MAX {
            sizes[i] += 1;
            total += 1;
        }
    }
    sizes
}

/// The clustered mixed-protocol batch: [`CLUSTERS`] data-disjoint clusters
/// of skewed size, each owning two asset chains (1000 tps) and one witness
/// chain (2 tps), funded only with the cluster's own cast.
pub fn clustered(seed: u64) -> Batch {
    let mut rng = stream(seed, 0xC1);
    let sizes = draw_cluster_sizes(&mut rng);
    let cfg = ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() };
    let funding: Amount = 1_000;

    let mut world = World::new();
    let mut participants = ParticipantSet::new();
    let mut machines: Vec<(SwapId, Box<dyn SwapMachine>)> = Vec::new();
    let mut protocols = Vec::new();
    let mut draws = Draws::default();
    let mut next_id = 0u64;
    let mut all_shapes = draw_shapes(&mut rng, standard_mix(CLUSTERS * CLUSTER_MEAN)).into_iter();
    for (c, &size) in sizes.iter().enumerate() {
        let shapes: Vec<SwapShape> = all_shapes.by_ref().take(size).collect();
        let casts: Vec<Vec<Address>> = shapes
            .iter()
            .enumerate()
            .map(|(j, shape)| {
                (0..shape.amounts.len())
                    .map(|k| participants.add(&format!("c{c}s{j}p{k}")))
                    .collect()
            })
            .collect();
        // Cluster-local genesis keeps chain state O(cluster), not O(batch).
        let genesis: Vec<(Address, Amount)> =
            casts.iter().flatten().map(|a| (*a, funding)).collect();
        let assets: Vec<ChainId> = (0..2)
            .map(|i| {
                world.add_chain(ChainParams::fast(&format!("asset-c{c}-{i}"), 1_000), &genesis)
            })
            .collect();
        let witness = world.add_chain(ChainParams::fast(&format!("witness-c{c}"), 2), &genesis);
        for (j, (shape, cast)) in shapes.iter().zip(&casts).enumerate() {
            let chains: Vec<ChainId> = (0..cast.len()).map(|e| assets[(j + e) % 2]).collect();
            let graph = SwapGraph::new(ring_edges(cast, &shape.amounts, &chains), next_id + 1)
                .expect("ring graphs are valid");
            machines.push((SwapId(next_id), build_machine(shape.protocol, &cfg, graph, witness)));
            protocols.push(shape.protocol);
            tally(&mut draws, shape);
            next_id += 1;
        }
    }
    draws.chains = world.chain_ids().len();
    draws.participants = participants.len();
    draws.notes = format!(
        "clusters={CLUSTERS} smallest={} largest={}",
        sizes.iter().min().expect("clusters exist"),
        sizes.iter().max().expect("clusters exist"),
    );
    let swaps = draws.swaps;
    Batch { world, participants, machines, protocols, swaps, priced_out_lane: Vec::new(), draws }
}

// ---------------------------------------------------------------------------
// market / market_paged
// ---------------------------------------------------------------------------

/// Swaps in the shared-chain fee-market batch.
pub const MARKET_SWAPS: usize = 448;
pub const MARKET_ASSET_CHAINS: usize = 4;
pub const MARKET_WITNESS_CHAINS: usize = 2;
/// Bounded witness mempools: small enough that the batch's registrations
/// overflow them and fee-based eviction runs.
pub const MARKET_WITNESS_MEMPOOL: usize = 32;

/// One contended shard: every swap shares four asset chains and two
/// fee-market witness chains with bounded mempools; adaptive bidders
/// re-bid their way through the queue.
pub fn market(seed: u64) -> Batch {
    let mut rng = stream(seed, 0x3A);
    let cfg = ProtocolConfig {
        witness_depth: 3,
        deployment_depth: 3,
        wait_cap_deltas: 4_096,
        fee_policy: FeePolicy::Adaptive { margin: 1, cap: 4_096 },
        ..Default::default()
    };
    let funding: Amount = 1 << 20;

    let mut participants = ParticipantSet::new();
    let mut draws = Draws::default();
    struct Placed {
        shape: SwapShape,
        cast: Vec<Address>,
        first_asset: usize,
        witness: usize,
    }
    // Placement is balanced like the mix: every asset chain hosts the same
    // number of first edges, and the witnessed swaps split evenly over the
    // witness chains (the k-th AC3WN swap goes to chain k mod 2).
    let first_assets = deck(&mut rng, MARKET_SWAPS, MARKET_ASSET_CHAINS);
    let mut witnessed = 0usize;
    let placed: Vec<Placed> = draw_shapes(&mut rng, standard_mix(MARKET_SWAPS))
        .into_iter()
        .zip(first_assets)
        .enumerate()
        .map(|(i, (shape, first_asset))| {
            let cast =
                (0..shape.amounts.len()).map(|k| participants.add(&format!("s{i}p{k}"))).collect();
            let witness = witnessed % MARKET_WITNESS_CHAINS;
            if shape.protocol == Protocol::Ac3wn {
                witnessed += 1;
            }
            tally(&mut draws, &shape);
            Placed { shape, cast, first_asset, witness }
        })
        .collect();
    let genesis: Vec<(Address, Amount)> =
        participants.addresses().into_iter().map(|a| (a, funding)).collect();

    let mut world = World::new();
    let assets: Vec<ChainId> = (0..MARKET_ASSET_CHAINS)
        .map(|i| world.add_chain(ChainParams::fast(&format!("asset-{i}"), 1_000), &genesis))
        .collect();
    let witnesses: Vec<ChainId> = (0..MARKET_WITNESS_CHAINS)
        .map(|i| {
            let mut params = ChainParams::fast(&format!("witness-{i}"), 4)
                .with_base_fee(BaseFeeSchedule::eip1559_like());
            params.mempool_capacity = MARKET_WITNESS_MEMPOOL;
            world.add_chain(params, &genesis)
        })
        .collect();

    let mut machines: Vec<(SwapId, Box<dyn SwapMachine>)> = Vec::new();
    let mut protocols = Vec::new();
    for (i, p) in placed.iter().enumerate() {
        let chains: Vec<ChainId> =
            (0..p.cast.len()).map(|e| assets[(p.first_asset + e) % MARKET_ASSET_CHAINS]).collect();
        let graph = SwapGraph::new(ring_edges(&p.cast, &p.shape.amounts, &chains), i as u64 + 1)
            .expect("ring graphs are valid");
        machines.push((
            SwapId(i as u64),
            build_machine(p.shape.protocol, &cfg, graph, witnesses[p.witness]),
        ));
        protocols.push(p.shape.protocol);
    }
    draws.chains = world.chain_ids().len();
    draws.participants = participants.len();
    draws.notes =
        format!("first_ac3wn_swap={:?}", protocols.iter().position(|p| *p == Protocol::Ac3wn));
    let swaps = draws.swaps;
    Batch { world, participants, machines, protocols, swaps, priced_out_lane: Vec::new(), draws }
}

// ---------------------------------------------------------------------------
// priced_out
// ---------------------------------------------------------------------------

/// How long (in Δ) a fixed-fee machine retries before giving up — the
/// calibration knob that sets the batch's tick count (≈ 4 ticks per Δ).
pub const PRICED_OUT_WAIT_CAP_DELTAS: u64 = 40;
pub const PRICED_OUT_WITNESS_MEMPOOL: usize = 32;

/// The tier-1 griefing pathology rebuilt from public parts: six fixed-fee
/// swaps over small chains, with a [`Flooder`] keeping the AC3WN lane's
/// witness mempool full of higher-fee unmineable junk from shortly after
/// registration until after the lane's wait cap has run out.
pub fn priced_out(seed: u64) -> Batch {
    let mut rng = stream(seed, 0xF1);
    let cfg = ProtocolConfig {
        witness_depth: 2,
        deployment_depth: 1,
        wait_cap_deltas: PRICED_OUT_WAIT_CAP_DELTAS,
        fee_policy: FeePolicy::Fixed,
        ..Default::default()
    };
    let funding: Amount = 1 << 20;

    // The campaign's lane mix (swap i under protocol i mod 4 over six
    // swaps) with one ring per witnessed protocol, in a seeded order.
    let lanes = vec![
        (Protocol::Ac3wn, 2),
        (Protocol::Ac3tw, 2),
        (Protocol::Herlihy, 2),
        (Protocol::HerlihyMulti, 3),
        (Protocol::Ac3wn, 3),
        (Protocol::Ac3tw, 3),
    ];

    let mut participants = ParticipantSet::new();
    let mut draws = Draws::default();
    let shapes = draw_shapes(&mut rng, lanes);
    let casts: Vec<Vec<Address>> = shapes
        .iter()
        .enumerate()
        .map(|(i, shape)| {
            tally(&mut draws, shape);
            (0..shape.amounts.len()).map(|k| participants.add(&format!("s{i}p{k}"))).collect()
        })
        .collect();
    let flooder_name = "flooder";
    let flooder_addr = participants.add(flooder_name);
    let genesis: Vec<(Address, Amount)> =
        participants.addresses().into_iter().map(|a| (a, funding)).collect();

    let mut world = World::new();
    let assets: Vec<ChainId> = (0..2)
        .map(|i| world.add_chain(ChainParams::fast(&format!("asset-{i}"), 16), &genesis))
        .collect();
    let witnesses: Vec<ChainId> = (0..2)
        .map(|i| {
            let mut params = ChainParams::fast(&format!("witness-{i}"), 16)
                .with_base_fee(BaseFeeSchedule::eip1559_like());
            params.mempool_capacity = PRICED_OUT_WITNESS_MEMPOOL;
            world.add_chain(params, &genesis)
        })
        .collect();
    // The whole AC3WN lane coordinates on the chain the flooder targets.
    let flooded = witnesses[rng.gen_range(0..2) as usize];

    let mut machines: Vec<(SwapId, Box<dyn SwapMachine>)> = Vec::new();
    let mut protocols = Vec::new();
    let mut priced_out_lane = Vec::new();
    for (i, (shape, cast)) in shapes.iter().zip(&casts).enumerate() {
        let first = rng.gen_range(0..2) as usize;
        let chains: Vec<ChainId> = (0..cast.len()).map(|e| assets[(first + e) % 2]).collect();
        let graph = SwapGraph::new(ring_edges(cast, &shape.amounts, &chains), i as u64 + 1)
            .expect("ring graphs are valid");
        if shape.protocol == Protocol::Ac3wn {
            priced_out_lane.push(SwapId(i as u64));
        }
        machines.push((SwapId(i as u64), build_machine(shape.protocol, &cfg, graph, flooded)));
        protocols.push(shape.protocol);
    }

    // The window opens after SC_w registrations are mined (block 1) and
    // before any authorize call can be due, and outlasts the lane's wait
    // cap so no late commit sneaks in.
    let delta = world.delta_ms();
    let from = 2_000 + 1_000 * rng.gen_range(0..3);
    let until = from + (PRICED_OUT_WAIT_CAP_DELTAS + 8 + rng.gen_range(0..4)) * delta;
    let window = OutageWindow { from, until };
    machines.push((
        SwapId(ADVERSARY_ID_BASE),
        Box::new(Flooder::new(flooder_name.to_string(), flooder_addr, flooded, window)),
    ));
    protocols.push(Protocol::Flooder);

    draws.chains = world.chain_ids().len();
    draws.participants = participants.len();
    draws.notes = format!("flooded={flooded} window={from}..{until}");
    let swaps = draws.swaps;
    Batch { world, participants, machines, protocols, swaps, priced_out_lane, draws }
}
