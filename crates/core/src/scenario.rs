//! Scenario builders: assemble a simulated world, a cast of participants and
//! an AC2T graph in one call, so examples, tests and benchmarks share the
//! same setup code.

use crate::graph::{ring_graph, SwapEdge, SwapGraph};
use ac3_chain::{Address, Amount, ChainId, ChainParams};
use ac3_sim::{ParticipantSet, SwapId, World};

/// Configuration of a scenario's chains and funding.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Template for every asset chain (the name gets an index suffix).
    pub asset_chain_template: ChainParams,
    /// Parameters of the witness chain.
    pub witness_chain_template: ChainParams,
    /// Genesis balance granted to every participant on every chain
    /// (assets to swap plus fee budget).
    pub funding: Amount,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        // Fast chains so unit tests and examples complete in milliseconds of
        // wall-clock time: 1-second blocks, stability after 3 confirmations.
        let mut asset = ChainParams::test("asset");
        asset.block_interval_ms = 1_000;
        asset.stable_depth = 3;
        let mut witness = ChainParams::test("witness");
        witness.block_interval_ms = 1_000;
        witness.stable_depth = 3;
        ScenarioConfig {
            asset_chain_template: asset,
            witness_chain_template: witness,
            funding: 1_000,
        }
    }
}

impl ScenarioConfig {
    /// A configuration using the paper's Table 1 chains for the asset
    /// chains that exist (Bitcoin, Ethereum, Litecoin, Bitcoin Cash, then
    /// repeating) and Bitcoin-like parameters for the witness chain.
    /// Intended for the throughput experiment, not for fast unit tests.
    pub fn table1() -> Self {
        ScenarioConfig {
            asset_chain_template: ChainParams::bitcoin_like(),
            witness_chain_template: ChainParams::bitcoin_like(),
            funding: 100_000,
        }
    }
}

/// A fully assembled scenario.
pub struct Scenario {
    /// The simulated multi-chain world (asset chains + witness chain).
    pub world: World,
    /// The cast of participants.
    pub participants: ParticipantSet,
    /// The AC2T graph to execute.
    pub graph: SwapGraph,
    /// The witness chain's id.
    pub witness_chain: ChainId,
    /// The asset chains, in edge order (edge `i` lives on
    /// `asset_chains[i]`).
    pub asset_chains: Vec<ChainId>,
}

impl Scenario {
    /// The world's Δ (see [`World::delta_ms`]).
    pub fn delta_ms(&self) -> u64 {
        self.world.delta_ms()
    }
}

/// Build a scenario whose graph is given as `(from_index, to_index, amount)`
/// triples over `names`; each edge is assigned its own asset chain.
pub fn custom_scenario(
    names: &[&str],
    edge_specs: &[(usize, usize, Amount)],
    cfg: &ScenarioConfig,
) -> Scenario {
    assert!(!names.is_empty(), "a scenario needs participants");
    assert!(!edge_specs.is_empty(), "a scenario needs at least one edge");

    let mut participants = ParticipantSet::new();
    let addresses: Vec<Address> = names.iter().map(|n| participants.add(n)).collect();
    // `ParticipantSet::add` returns addresses, but `addresses()` is ordered
    // by name; keep the caller's order here.
    let genesis: Vec<(Address, Amount)> = addresses.iter().map(|a| (*a, cfg.funding)).collect();

    let mut world = World::new();
    let mut asset_chains = Vec::with_capacity(edge_specs.len());
    for i in 0..edge_specs.len() {
        let mut params = cfg.asset_chain_template.clone();
        params.name = format!("{}-{i}", cfg.asset_chain_template.name);
        asset_chains.push(world.add_chain(params, &genesis));
    }
    let mut witness_params = cfg.witness_chain_template.clone();
    witness_params.name = format!("{}-witness", cfg.witness_chain_template.name);
    let witness_chain = world.add_chain(witness_params, &genesis);

    let edges: Vec<SwapEdge> = edge_specs
        .iter()
        .enumerate()
        .map(|(i, (from, to, amount))| SwapEdge {
            from: addresses[*from],
            to: addresses[*to],
            amount: *amount,
            chain: asset_chains[i],
        })
        .collect();
    let graph = SwapGraph::new(edges, 1).expect("edge specs produce a valid graph");

    Scenario { world, participants, graph, witness_chain, asset_chains }
}

/// One AC2T of a concurrent batch: its id (used for fee attribution), its
/// graph over the batch's shared chains, and its coordinating witness chain.
#[derive(Debug, Clone)]
pub struct SwapSpec {
    /// The swap's id within the batch.
    pub id: SwapId,
    /// The AC2T graph, over the scenario's shared chains.
    pub graph: SwapGraph,
    /// The witness chain coordinating this swap (one of the scenario's
    /// [`MultiSwapScenario::witness_chains`]; only meaningful for witnessed
    /// protocols — baseline machines ignore it).
    pub witness: ChainId,
}

/// A batch of AC2Ts sharing a set of asset chains and one or more witness
/// chains — the contention workloads of Sections 5.2 and 6.4: swaps compete
/// for block space in the shared mempools instead of each owning a private
/// world.
pub struct MultiSwapScenario {
    /// The shared multi-chain world.
    pub world: World,
    /// Every participant of every swap (fresh participants per swap).
    pub participants: ParticipantSet,
    /// The batch, in id order.
    pub swaps: Vec<SwapSpec>,
    /// The shared witness chains; each swap is assigned one (round-robin)
    /// in its [`SwapSpec::witness`]. The Section 6.4 workload uses a single
    /// witness chain, the Section 5.2 scalability workload uses k of them.
    pub witness_chains: Vec<ChainId>,
    /// The shared asset chains.
    pub asset_chains: Vec<ChainId>,
}

impl MultiSwapScenario {
    /// Build the scheduler input from a per-swap machine constructor — the
    /// one adapter from the batch to `Scheduler::run`, shared by tests,
    /// benches and binaries.
    pub fn machines_with<F>(
        &self,
        mut make: F,
    ) -> Vec<(SwapId, Box<dyn crate::driver::SwapMachine>)>
    where
        F: FnMut(&SwapSpec) -> Box<dyn crate::driver::SwapMachine>,
    {
        self.swaps.iter().map(|swap| (swap.id, make(swap))).collect()
    }

    /// Build deferred machine seeds for
    /// [`crate::scheduler::Scheduler::run_assigned`]: the scheduler picks
    /// each swap's witness chain at launch time (ignoring the static
    /// round-robin pre-assignment in [`SwapSpec::witness`]) and hands it to
    /// `make`.
    // lint: api-ok(the input of `Scheduler::run_assigned`, shared by its tests)
    pub fn seeds_with<F>(&self, make: F) -> Vec<(SwapId, crate::scheduler::MachineSeed)>
    where
        F: Fn(&SwapSpec, ChainId) -> Box<dyn crate::driver::SwapMachine> + 'static,
    {
        let make = std::rc::Rc::new(make);
        self.swaps
            .iter()
            .map(|swap| {
                let spec = swap.clone();
                let make = make.clone();
                let seed: crate::scheduler::MachineSeed =
                    Box::new(move |witness: ChainId| make(&spec, witness));
                (swap.id, seed)
            })
            .collect()
    }
}

/// Build a batch of `swaps` two-party AC2Ts over `chains` shared asset
/// chains (templates from `cfg`) plus one shared witness chain. Swap `i`
/// runs between its own pair of participants; its two edges land on chains
/// `i % chains` and `(i + 1) % chains` (round-robin), so neighbouring swaps
/// contend for the same block space.
pub fn concurrent_swaps_scenario(
    swaps: usize,
    chains: usize,
    cfg: &ScenarioConfig,
) -> MultiSwapScenario {
    let asset_params = (0..chains)
        .map(|i| {
            let mut p = cfg.asset_chain_template.clone();
            p.name = format!("{}-{i}", cfg.asset_chain_template.name);
            p
        })
        .collect();
    let mut witness_params = cfg.witness_chain_template.clone();
    witness_params.name = format!("{}-witness", cfg.witness_chain_template.name);
    concurrent_swaps_over_chains(swaps, asset_params, witness_params, cfg.funding)
}

/// Like [`concurrent_swaps_scenario`], but with explicit per-chain
/// parameters — the contention-throughput experiment uses this to make one
/// involved chain the tps bottleneck.
pub fn concurrent_swaps_over_chains(
    swaps: usize,
    asset_params: Vec<ChainParams>,
    witness_params: ChainParams,
    funding: Amount,
) -> MultiSwapScenario {
    concurrent_swaps_multi_witness(swaps, asset_params, vec![witness_params], funding)
}

/// Like [`concurrent_swaps_over_chains`], but with k real shared witness
/// chains in the one world — the Section 5.2 scalability workload. Swap `i`
/// is coordinated by witness chain `i % k` (round-robin), so the
/// coordination load of B swaps splits across k witness mempools and the
/// serialization cost of a shared witness layer is *measured* (genuine
/// block-space queueing under the scheduler) rather than modelled by
/// throttling a private chain.
pub fn concurrent_swaps_multi_witness(
    swaps: usize,
    asset_params: Vec<ChainParams>,
    witness_params: Vec<ChainParams>,
    funding: Amount,
) -> MultiSwapScenario {
    assert!(swaps >= 1, "a batch needs at least one swap");
    assert!(!asset_params.is_empty(), "a batch needs at least one asset chain");
    assert!(!witness_params.is_empty(), "a batch needs at least one witness chain");

    let mut participants = ParticipantSet::new();
    let pairs: Vec<(Address, Address)> = (0..swaps)
        .map(|i| (participants.add(&format!("s{i}a")), participants.add(&format!("s{i}b"))))
        .collect();
    let genesis: Vec<(Address, Amount)> =
        participants.addresses().into_iter().map(|a| (a, funding)).collect();

    let mut world = World::new();
    let asset_chains: Vec<ChainId> =
        asset_params.into_iter().map(|p| world.add_chain(p, &genesis)).collect();
    let witness_chains: Vec<ChainId> =
        witness_params.into_iter().map(|p| world.add_chain(p, &genesis)).collect();

    let m = asset_chains.len();
    let k = witness_chains.len();
    let specs = pairs
        .iter()
        .enumerate()
        .map(|(i, (a, b))| {
            let edges = vec![
                SwapEdge { from: *a, to: *b, amount: 50, chain: asset_chains[i % m] },
                SwapEdge { from: *b, to: *a, amount: 80, chain: asset_chains[(i + 1) % m] },
            ];
            SwapSpec {
                id: SwapId(i as u64),
                graph: SwapGraph::new(edges, i as u64 + 1).expect("two-party graphs are valid"),
                witness: witness_chains[i % k],
            }
        })
        .collect();

    MultiSwapScenario { world, participants, swaps: specs, witness_chains, asset_chains }
}

/// A concurrent batch of AC2Ts with *arbitrary* per-swap graphs — the
/// mixed-protocol workload: complex multi-party graphs (rings, bridged
/// cycles) interleave with plain two-party swaps over shared chains.
///
/// `graph_specs[i]` describes swap `i` as `(from, to, amount)` triples over
/// that swap's own participants (indices are per-swap; participant `j` of
/// swap `i` is named `s{i}p{j}`). Edge `j` of swap `i` is placed on asset
/// chain `(i + j) % m` and the swap is coordinated by witness chain
/// `i % k`, so neighbouring swaps contend for the same block space.
pub fn concurrent_custom_swaps(
    graph_specs: &[Vec<(usize, usize, Amount)>],
    asset_params: Vec<ChainParams>,
    witness_params: Vec<ChainParams>,
    funding: Amount,
) -> MultiSwapScenario {
    assert!(!graph_specs.is_empty(), "a batch needs at least one swap");
    assert!(!asset_params.is_empty(), "a batch needs at least one asset chain");
    assert!(!witness_params.is_empty(), "a batch needs at least one witness chain");

    let mut participants = ParticipantSet::new();
    let cast: Vec<Vec<Address>> = graph_specs
        .iter()
        .enumerate()
        .map(|(i, edges)| {
            assert!(!edges.is_empty(), "swap {i} needs at least one edge");
            let n = edges.iter().map(|(f, t, _)| f.max(t) + 1).max().unwrap();
            (0..n).map(|j| participants.add(&format!("s{i}p{j}"))).collect()
        })
        .collect();
    let genesis: Vec<(Address, Amount)> =
        participants.addresses().into_iter().map(|a| (a, funding)).collect();

    let mut world = World::new();
    let asset_chains: Vec<ChainId> =
        asset_params.into_iter().map(|p| world.add_chain(p, &genesis)).collect();
    let witness_chains: Vec<ChainId> =
        witness_params.into_iter().map(|p| world.add_chain(p, &genesis)).collect();

    let m = asset_chains.len();
    let k = witness_chains.len();
    let specs = graph_specs
        .iter()
        .enumerate()
        .map(|(i, edge_specs)| {
            let edges: Vec<SwapEdge> = edge_specs
                .iter()
                .enumerate()
                .map(|(j, (from, to, amount))| SwapEdge {
                    from: cast[i][*from],
                    to: cast[i][*to],
                    amount: *amount,
                    chain: asset_chains[(i + j) % m],
                })
                .collect();
            SwapSpec {
                id: SwapId(i as u64),
                graph: SwapGraph::new(edges, i as u64 + 1)
                    .expect("edge specs produce valid graphs"),
                witness: witness_chains[i % k],
            }
        })
        .collect();

    MultiSwapScenario { world, participants, swaps: specs, witness_chains, asset_chains }
}

/// A batch of two-party AC2Ts grouped into mutually *disjoint* clusters —
/// the sharded scale workload of the parallel scheduler. Each cluster owns
/// `chains_per_cluster` asset chains plus one witness chain, and those
/// chains are genesis-funded **only** with that cluster's participants:
/// genesis size stays `O(swaps_per_cluster)` per chain instead of
/// `O(total swaps)`, which is what makes worlds with hundreds of chains
/// and 10k+ swaps buildable at all. Because no chain or participant is
/// shared across clusters, [`crate::partition::partition_batch`] splits
/// the batch into exactly one data-disjoint shard per cluster.
///
/// Within a cluster the wiring matches [`concurrent_swaps_scenario`]:
/// swap `j`'s two edges land on the cluster's chains `j % m` and
/// `(j + 1) % m`, so clustermates genuinely contend for block space.
/// Swap ids are global (`cluster * swaps_per_cluster + j`) and specs come
/// back in id order.
pub fn clustered_swaps_scenario(
    clusters: usize,
    swaps_per_cluster: usize,
    chains_per_cluster: usize,
    cfg: &ScenarioConfig,
) -> MultiSwapScenario {
    assert!(clusters >= 1, "a clustered batch needs at least one cluster");
    assert!(swaps_per_cluster >= 1, "each cluster needs at least one swap");
    assert!(chains_per_cluster >= 1, "each cluster needs at least one asset chain");

    let mut world = World::new();
    let mut participants = ParticipantSet::new();
    let mut specs = Vec::with_capacity(clusters * swaps_per_cluster);
    let mut witness_chains = Vec::with_capacity(clusters);
    let mut asset_chains = Vec::with_capacity(clusters * chains_per_cluster);
    for c in 0..clusters {
        let pairs: Vec<(Address, Address)> = (0..swaps_per_cluster)
            .map(|j| {
                (participants.add(&format!("c{c}s{j}a")), participants.add(&format!("c{c}s{j}b")))
            })
            .collect();
        // Cluster-local genesis: only this cluster's cast holds balances on
        // this cluster's chains.
        let genesis: Vec<(Address, Amount)> =
            pairs.iter().flat_map(|(a, b)| [(*a, cfg.funding), (*b, cfg.funding)]).collect();

        let cluster_chains: Vec<ChainId> = (0..chains_per_cluster)
            .map(|i| {
                let mut p = cfg.asset_chain_template.clone();
                p.name = format!("{}-c{c}-{i}", cfg.asset_chain_template.name);
                world.add_chain(p, &genesis)
            })
            .collect();
        let mut witness_params = cfg.witness_chain_template.clone();
        witness_params.name = format!("{}-c{c}-witness", cfg.witness_chain_template.name);
        let witness = world.add_chain(witness_params, &genesis);

        let m = cluster_chains.len();
        for (j, (a, b)) in pairs.iter().enumerate() {
            let id = SwapId((c * swaps_per_cluster + j) as u64);
            let edges = vec![
                SwapEdge { from: *a, to: *b, amount: 50, chain: cluster_chains[j % m] },
                SwapEdge { from: *b, to: *a, amount: 80, chain: cluster_chains[(j + 1) % m] },
            ];
            specs.push(SwapSpec {
                id,
                graph: SwapGraph::new(edges, id.0 + 1).expect("two-party graphs are valid"),
                witness,
            });
        }
        witness_chains.push(witness);
        asset_chains.extend(cluster_chains);
    }

    MultiSwapScenario { world, participants, swaps: specs, witness_chains, asset_chains }
}

/// The paper's running example (Figure 4): Alice swaps `x` for Bob's `y`,
/// each asset on its own chain.
pub fn two_party_scenario(x: Amount, y: Amount, cfg: &ScenarioConfig) -> Scenario {
    custom_scenario(&["alice", "bob"], &[(0, 1, x), (1, 0, y)], cfg)
}

/// A ring of `n` participants (P0 → P1 → ... → P0), one chain per edge —
/// the diameter-sweep workload of the Figure 10 reproduction.
pub fn ring_scenario(n: usize, amount: Amount, cfg: &ScenarioConfig) -> Scenario {
    assert!(n >= 2, "a ring needs at least two participants");
    let names: Vec<String> = (0..n).map(|i| format!("p{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();

    let mut participants = ParticipantSet::new();
    let addresses: Vec<Address> = name_refs.iter().map(|n| participants.add(n)).collect();
    let genesis: Vec<(Address, Amount)> = addresses.iter().map(|a| (*a, cfg.funding)).collect();

    let mut world = World::new();
    let mut asset_chains = Vec::with_capacity(n);
    for i in 0..n {
        let mut params = cfg.asset_chain_template.clone();
        params.name = format!("{}-{i}", cfg.asset_chain_template.name);
        asset_chains.push(world.add_chain(params, &genesis));
    }
    let mut witness_params = cfg.witness_chain_template.clone();
    witness_params.name = format!("{}-witness", cfg.witness_chain_template.name);
    let witness_chain = world.add_chain(witness_params, &genesis);

    let graph = ring_graph(&addresses, &asset_chains, amount);
    Scenario { world, participants, graph, witness_chain, asset_chains }
}

/// The cyclic graph of Figure 7a as a runnable scenario.
pub fn figure7a_scenario(cfg: &ScenarioConfig) -> Scenario {
    custom_scenario(&["a", "b", "c"], &[(0, 1, 10), (1, 2, 20), (2, 0, 30)], cfg)
}

/// The disconnected graph of Figure 7b as a runnable scenario.
pub fn figure7b_scenario(cfg: &ScenarioConfig) -> Scenario {
    custom_scenario(&["a", "b", "c", "d"], &[(0, 1, 10), (1, 0, 20), (2, 3, 30), (3, 2, 40)], cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphShape;

    #[test]
    fn two_party_scenario_is_wired_up() {
        let s = two_party_scenario(50, 80, &ScenarioConfig::default());
        assert_eq!(s.graph.contract_count(), 2);
        assert_eq!(s.asset_chains.len(), 2);
        assert_eq!(s.participants.len(), 2);
        // Every participant is funded on every chain.
        let alice = s.participants.get("alice").unwrap().address();
        for chain in s.asset_chains.iter().chain([&s.witness_chain]) {
            assert_eq!(s.world.chain(*chain).unwrap().balance_of(&alice), 1_000);
        }
        // Edges map to distinct chains, none of which is the witness chain.
        assert!(!s.asset_chains.contains(&s.witness_chain));
    }

    #[test]
    fn ring_scenario_diameter_matches_n() {
        for n in 2..6 {
            let s = ring_scenario(n, 10, &ScenarioConfig::default());
            assert_eq!(s.graph.diameter(), n as u64);
            assert_eq!(s.asset_chains.len(), n);
            assert_eq!(s.participants.len(), n);
        }
    }

    #[test]
    fn figure7_scenarios_have_expected_shapes() {
        let a = figure7a_scenario(&ScenarioConfig::default());
        assert_eq!(a.graph.shape(), GraphShape::Cyclic);
        assert_eq!(a.graph.contract_count(), 3);
        let b = figure7b_scenario(&ScenarioConfig::default());
        assert_eq!(b.graph.shape(), GraphShape::Disconnected);
        assert_eq!(b.graph.contract_count(), 4);
    }

    #[test]
    fn clustered_scenario_funds_only_clustermates() {
        let s = clustered_swaps_scenario(3, 2, 2, &ScenarioConfig::default());
        assert_eq!(s.swaps.len(), 6);
        assert_eq!(s.witness_chains.len(), 3);
        assert_eq!(s.asset_chains.len(), 6);
        assert_eq!(s.participants.len(), 12);
        // Ids are global and in order.
        for (i, swap) in s.swaps.iter().enumerate() {
            assert_eq!(swap.id, SwapId(i as u64));
        }
        // Cluster 0's first sender is funded on cluster 0's chains only.
        let a0 = s.participants.get("c0s0a").unwrap().address();
        assert_eq!(s.world.chain(s.asset_chains[0]).unwrap().balance_of(&a0), 1_000);
        assert_eq!(s.world.chain(s.witness_chains[0]).unwrap().balance_of(&a0), 1_000);
        assert_eq!(s.world.chain(s.asset_chains[2]).unwrap().balance_of(&a0), 0);
        assert_eq!(s.world.chain(s.witness_chains[1]).unwrap().balance_of(&a0), 0);
        // Swaps never cross clusters: each swap's chains and witness belong
        // to its own cluster.
        for (i, swap) in s.swaps.iter().enumerate() {
            let c = i / 2;
            assert_eq!(swap.witness, s.witness_chains[c]);
            for edge in swap.graph.edges() {
                assert!(s.asset_chains[c * 2..(c + 1) * 2].contains(&edge.chain));
            }
        }
    }

    #[test]
    fn delta_reflects_chain_parameters() {
        let s = two_party_scenario(1, 1, &ScenarioConfig::default());
        // 1-second blocks, stable depth 3 => Δ = 4 seconds.
        assert_eq!(s.delta_ms(), 4_000);
    }

    #[test]
    fn table1_config_uses_paper_throughputs() {
        let cfg = ScenarioConfig::table1();
        assert_eq!(cfg.asset_chain_template.tps, 7);
    }
}
