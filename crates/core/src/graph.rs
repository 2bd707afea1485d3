//! The atomic cross-chain transaction graph `D = (V, E)` (Section 3).
//!
//! Vertices are participants, and a directed edge `e = (u, v)` is a
//! sub-transaction transferring asset `e.a` from `u` to `v` on blockchain
//! `e.BC`. The graph is what all participants multisign (`ms(D)`,
//! Equation 1) and what the witness contract stores. Its *diameter* governs
//! the latency of Herlihy's protocol (Section 6.1), and its shape —
//! cyclic or even disconnected (Figure 7) — determines whether the
//! baseline protocols can execute it at all (Section 5.3).

use ac3_chain::{Address, Amount, ChainId};
use ac3_crypto::{GraphMultisig, Hash256, KeyPair, MultisigError, PublicKey, Sha256};
use serde::de::Decoder;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// One sub-transaction: transfer `amount` from `from` to `to` on `chain`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwapEdge {
    /// The source participant `u` (who locks the asset).
    pub from: Address,
    /// The recipient participant `v`.
    pub to: Address,
    /// The asset value `e.a`.
    pub amount: Amount,
    /// The blockchain `e.BC` the asset lives on.
    pub chain: ChainId,
}

/// Errors raised while constructing or signing a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph has no edges.
    Empty,
    /// A stored participant set is not the one the edges define.
    ParticipantsMismatch,
    /// An edge transfers a zero-valued asset.
    ZeroAmount,
    /// A self-loop (a participant transferring to itself).
    SelfLoop(Address),
    /// Multisignature assembly/verification failed.
    Multisig(MultisigError),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "graph has no edges"),
            GraphError::ParticipantsMismatch => {
                write!(f, "stored participants differ from the edges' participants")
            }
            GraphError::ZeroAmount => write!(f, "edge transfers a zero-valued asset"),
            GraphError::SelfLoop(a) => write!(f, "self-loop at {a}"),
            GraphError::Multisig(e) => write!(f, "multisignature error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<MultisigError> for GraphError {
    fn from(e: MultisigError) -> Self {
        GraphError::Multisig(e)
    }
}

/// Structural classification of a graph (Figure 7 taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GraphShape {
    /// Weakly connected and acyclic.
    Acyclic,
    /// Weakly connected and containing a directed cycle (Figure 7a).
    Cyclic,
    /// Not even weakly connected (Figure 7b).
    Disconnected,
}

/// The AC2T graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SwapGraph {
    /// The participants `V`, in deterministic order.
    participants: Vec<Address>,
    /// The sub-transactions `E`.
    edges: Vec<SwapEdge>,
    /// The agreement timestamp `t` that distinguishes otherwise-identical
    /// AC2Ts among the same participants (Equation 1).
    timestamp: u64,
}

/// A [`SwapGraph`] as encoded, before [`SwapGraph::new`] validates it.
#[derive(Deserialize)]
struct EncodedSwapGraph {
    participants: Vec<Address>,
    edges: Vec<SwapEdge>,
    timestamp: u64,
}

/// Decoding rebuilds the graph through [`SwapGraph::new`], so a decoded
/// graph holds the same invariants as a constructed one.
impl Deserialize for SwapGraph {
    fn deserialize(d: &mut Decoder<'_>) -> Result<Self, serde::Error> {
        let encoded = EncodedSwapGraph::deserialize(d)?;
        let invalid = |e: GraphError| serde::Error::custom(e.to_string());
        let graph = SwapGraph::new(encoded.edges, encoded.timestamp).map_err(invalid)?;
        if graph.participants != encoded.participants {
            return Err(invalid(GraphError::ParticipantsMismatch));
        }
        Ok(graph)
    }
}

impl SwapGraph {
    /// Build and validate a graph. The participant set is derived from the
    /// edges; `timestamp` is the agreement time `t`.
    pub fn new(edges: Vec<SwapEdge>, timestamp: u64) -> Result<Self, GraphError> {
        if edges.is_empty() {
            return Err(GraphError::Empty);
        }
        let mut participants = BTreeSet::new();
        for e in &edges {
            if e.amount == 0 {
                return Err(GraphError::ZeroAmount);
            }
            if e.from == e.to {
                return Err(GraphError::SelfLoop(e.from));
            }
            participants.insert(e.from);
            participants.insert(e.to);
        }
        Ok(SwapGraph { participants: participants.into_iter().collect(), edges, timestamp })
    }

    /// The paper's running example (Figure 4): Alice swaps `x` on `chain_a`
    /// for Bob's `y` on `chain_b`.
    // lint: api-ok(the two-party graph many suites start from)
    pub fn two_party(
        alice: Address,
        bob: Address,
        x: Amount,
        chain_a: ChainId,
        y: Amount,
        chain_b: ChainId,
        timestamp: u64,
    ) -> Result<Self, GraphError> {
        SwapGraph::new(
            vec![
                SwapEdge { from: alice, to: bob, amount: x, chain: chain_a },
                SwapEdge { from: bob, to: alice, amount: y, chain: chain_b },
            ],
            timestamp,
        )
    }

    /// The participants, in deterministic order.
    pub fn participants(&self) -> &[Address] {
        &self.participants
    }

    /// The participants' public keys (for multisignature verification).
    pub fn participant_keys(&self) -> Vec<PublicKey> {
        self.participants.iter().map(|a| a.public_key()).collect()
    }

    /// The edges.
    pub fn edges(&self) -> &[SwapEdge] {
        &self.edges
    }

    /// Number of edges `N = |E|` (the number of smart contracts to deploy).
    pub fn contract_count(&self) -> usize {
        self.edges.len()
    }

    /// The distinct chains the AC2T spans.
    pub fn chains(&self) -> Vec<ChainId> {
        let set: BTreeSet<ChainId> = self.edges.iter().map(|e| e.chain).collect();
        set.into_iter().collect()
    }

    /// Canonical byte encoding of `(D, t)` — the message every participant
    /// signs.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.edges.len() * 32);
        out.extend_from_slice(b"ac3wn/graph/v1");
        out.extend_from_slice(&self.timestamp.to_be_bytes());
        out.extend_from_slice(&(self.participants.len() as u32).to_be_bytes());
        for p in &self.participants {
            out.extend_from_slice(&p.to_bytes());
        }
        out.extend_from_slice(&(self.edges.len() as u32).to_be_bytes());
        for e in &self.edges {
            out.extend_from_slice(&e.from.to_bytes());
            out.extend_from_slice(&e.to.to_bytes());
            out.extend_from_slice(&e.amount.to_be_bytes());
            out.extend_from_slice(&e.chain.as_u32().to_be_bytes());
        }
        out
    }

    /// Digest of the canonical encoding — a compact identifier for the
    /// graph, used before signatures are collected.
    pub fn digest(&self) -> Hash256 {
        let mut h = Sha256::new();
        h.update(&self.canonical_bytes());
        Hash256::from(h.finalize())
    }

    /// Start a multisignature over `(D, t)`.
    pub fn start_multisig(&self) -> GraphMultisig {
        GraphMultisig::new(self.canonical_bytes())
    }

    /// Convenience: have every provided key pair sign, producing a complete
    /// `ms(D)`. Fails if the key set does not cover all participants.
    pub fn multisign(&self, keypairs: &[KeyPair]) -> Result<GraphMultisig, GraphError> {
        let mut ms = self.start_multisig();
        for kp in keypairs {
            ms.sign_with(kp)?;
        }
        ms.verify(&self.participant_keys())?;
        Ok(ms)
    }

    // ------------------------------------------------------------------
    // Structure
    // ------------------------------------------------------------------

    fn index_of(&self, a: &Address) -> usize {
        self.participants.binary_search(a).expect("participants derived from edges")
    }

    /// Adjacency list over participant indices (directed).
    fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.participants.len()];
        for e in &self.edges {
            adj[self.index_of(&e.from)].push(self.index_of(&e.to));
        }
        adj
    }

    /// The diameter of `D`: the length of the longest shortest directed path
    /// between any pair of mutually reachable vertices (the quantity in the
    /// Section 6.1 latency formulas). A single-edge graph has diameter 1;
    /// the paper's smallest two-party swap (Figure 4) has diameter 2? No —
    /// the paper plots diameters starting at 2 for the two-node, two-edge
    /// graph, which is the longest path A→B→A.
    pub fn diameter(&self) -> u64 {
        let adj = self.adjacency();
        let n = self.participants.len();
        let mut best = 0u64;
        for start in 0..n {
            // BFS from `start`.
            let mut dist = vec![None; n];
            dist[start] = Some(0u64);
            let mut queue = VecDeque::from([start]);
            while let Some(u) = queue.pop_front() {
                let du = dist[u].expect("visited");
                for &v in &adj[u] {
                    if dist[v].is_none() {
                        dist[v] = Some(du + 1);
                        queue.push_back(v);
                    } else if v == start {
                        // Returning to the start closes a cycle; the path
                        // length counts (longest path "to any other vertex
                        // ... including itself").
                    }
                }
                // Handle the "including itself" case: a directed edge back
                // to start means the round-trip distance is du + 1.
                if adj[u].contains(&start) {
                    best = best.max(du + 1);
                }
            }
            best = best.max(dist.iter().flatten().copied().max().unwrap_or(0));
        }
        best
    }

    /// Whether the directed graph contains a cycle.
    pub fn is_cyclic(&self) -> bool {
        let adj = self.adjacency();
        let n = self.participants.len();
        // 0 = unvisited, 1 = on stack, 2 = done.
        let mut colour = vec![0u8; n];
        fn dfs(u: usize, adj: &[Vec<usize>], colour: &mut [u8]) -> bool {
            colour[u] = 1;
            for &v in &adj[u] {
                if colour[v] == 1 {
                    return true;
                }
                if colour[v] == 0 && dfs(v, adj, colour) {
                    return true;
                }
            }
            colour[u] = 2;
            false
        }
        (0..n).any(|u| colour[u] == 0 && dfs(u, &adj, &mut colour))
    }

    /// Whether the graph is weakly connected (ignoring edge direction).
    pub fn is_connected(&self) -> bool {
        let n = self.participants.len();
        if n == 0 {
            return true;
        }
        let mut undirected = vec![BTreeSet::new(); n];
        for e in &self.edges {
            let u = self.index_of(&e.from);
            let v = self.index_of(&e.to);
            undirected[u].insert(v);
            undirected[v].insert(u);
        }
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([0usize]);
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for &v in &undirected[u] {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count == n
    }

    /// Classify the graph shape (Figure 7 taxonomy).
    pub fn shape(&self) -> GraphShape {
        if !self.is_connected() {
            GraphShape::Disconnected
        } else if self.is_cyclic() {
            GraphShape::Cyclic
        } else {
            GraphShape::Acyclic
        }
    }

    /// The residual graph once `removed` and every edge touching them are
    /// deleted, or `None` when no edge survives.
    fn without(&self, removed: &[Address]) -> Option<SwapGraph> {
        let edges: Vec<SwapEdge> = self
            .edges
            .iter()
            .filter(|e| !removed.contains(&e.from) && !removed.contains(&e.to))
            .copied()
            .collect();
        SwapGraph::new(edges, self.timestamp).ok()
    }

    /// Whether removing `leaders` leaves an acyclic graph — the feasibility
    /// condition for the leader-based Nolan/Herlihy protocols
    /// (Section 5.3: "require the AC2T graph to be acyclic once the leader
    /// node is removed").
    pub fn acyclic_without(&self, leaders: &[Address]) -> bool {
        self.without(leaders).is_none_or(|residual| !residual.is_cyclic())
    }

    /// A feedback vertex set of the directed graph: a set of participants
    /// whose removal leaves the graph acyclic. Herlihy's *multi-leader*
    /// protocol (the cyclic-graph variant of \[16\] referenced in Section
    /// 5.3) uses such a set as its leader set — every leader contributes a
    /// hashlock secret and every contract is locked behind all of them.
    ///
    /// The computation is a greedy heuristic (repeatedly remove the vertex
    /// on the most cycles); minimality is not required for correctness, only
    /// that the residual graph is acyclic.
    pub fn feedback_vertex_set(&self) -> Vec<Address> {
        let mut removed: Vec<Address> = Vec::new();
        while let Some(residual) = self.without(&removed).filter(SwapGraph::is_cyclic) {
            // Greedy choice: the vertex with the highest degree in the
            // residual graph (ties broken by address order for determinism).
            let mut degree: BTreeMap<Address, usize> = BTreeMap::new();
            for e in residual.edges() {
                *degree.entry(e.from).or_default() += 1;
                *degree.entry(e.to).or_default() += 1;
            }
            let victim = degree
                .iter()
                .max_by_key(|(addr, d)| (**d, std::cmp::Reverse(**addr)))
                .map(|(a, _)| *a)
                .expect("cyclic residual has vertices");
            removed.push(victim);
        }
        removed.sort();
        removed
    }

    /// Sequential deployment waves from a set of leaders: wave `k` contains
    /// the edges whose source is at directed distance `k` from the nearest
    /// leader (multi-source BFS; a single leader is a one-element set).
    /// Edges whose source no leader reaches appear in no wave, so a leader
    /// set covers the graph iff the waves hold every edge. This drives the
    /// sequential phases of the Herlihy baselines.
    pub fn waves_from_set(&self, leaders: &[Address]) -> Vec<Vec<SwapEdge>> {
        let adj = self.adjacency();
        let n = self.participants.len();
        let mut dist = vec![None; n];
        let mut queue = VecDeque::new();
        for leader in leaders {
            if let Ok(i) = self.participants.binary_search(leader) {
                if dist[i].is_none() {
                    dist[i] = Some(0u64);
                    queue.push_back(i);
                }
            }
        }
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("visited");
            for &v in &adj[u] {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        let mut by_wave: BTreeMap<u64, Vec<SwapEdge>> = BTreeMap::new();
        for e in &self.edges {
            if let Some(d) = dist[self.index_of(&e.from)] {
                by_wave.entry(d).or_default().push(*e);
            }
        }
        by_wave.into_values().collect()
    }
}

/// Build a ring graph of `n` participants (P0 → P1 → ... → Pn-1 → P0), each
/// edge on its own chain — the workload used to sweep the graph diameter in
/// the Figure 10 reproduction.
pub fn ring_graph(participants: &[Address], chains: &[ChainId], amount: Amount) -> SwapGraph {
    assert!(participants.len() >= 2, "a ring needs at least two participants");
    assert!(chains.len() >= participants.len(), "need one chain per edge");
    let edges = (0..participants.len())
        .map(|i| SwapEdge {
            from: participants[i],
            to: participants[(i + 1) % participants.len()],
            amount,
            chain: chains[i],
        })
        .collect();
    SwapGraph::new(edges, 1).expect("valid ring")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn addr(seed: &[u8]) -> Address {
        Address::from(KeyPair::from_seed(seed).public())
    }

    /// Construct the cyclic three-party example of Figure 7a:
    /// A → B → C → A, each edge on its own chain.
    fn figure7_cyclic(a: Address, b: Address, c: Address, chains: [ChainId; 3]) -> SwapGraph {
        SwapGraph::new(
            vec![
                SwapEdge { from: a, to: b, amount: 10, chain: chains[0] },
                SwapEdge { from: b, to: c, amount: 20, chain: chains[1] },
                SwapEdge { from: c, to: a, amount: 30, chain: chains[2] },
            ],
            1,
        )
        .expect("valid graph")
    }

    /// Construct the disconnected example of Figure 7b: two independent pairs
    /// (A ⇄ B and C ⇄ D) committed as one atomic transaction.
    fn figure7_disconnected(
        a: Address,
        b: Address,
        c: Address,
        d: Address,
        chains: [ChainId; 4],
    ) -> SwapGraph {
        SwapGraph::new(
            vec![
                SwapEdge { from: a, to: b, amount: 10, chain: chains[0] },
                SwapEdge { from: b, to: a, amount: 20, chain: chains[1] },
                SwapEdge { from: c, to: d, amount: 30, chain: chains[2] },
                SwapEdge { from: d, to: c, amount: 40, chain: chains[3] },
            ],
            1,
        )
        .expect("valid graph")
    }

    fn names(n: usize) -> Vec<Address> {
        (0..n).map(|i| addr(format!("p{i}").as_bytes())).collect()
    }

    #[test]
    fn two_party_swap_shape() {
        let g =
            SwapGraph::two_party(addr(b"alice"), addr(b"bob"), 10, ChainId(0), 20, ChainId(1), 7)
                .unwrap();
        assert_eq!(g.participants().len(), 2);
        assert_eq!(g.contract_count(), 2);
        assert_eq!(g.diameter(), 2);
        assert_eq!(g.shape(), GraphShape::Cyclic);
        assert_eq!(g.chains(), vec![ChainId(0), ChainId(1)]);
    }

    #[test]
    fn a_decoded_graph_is_validated_like_a_constructed_one() {
        let s = crate::scenario::ring_scenario(3, 10, &crate::scenario::ScenarioConfig::default());
        let json = serde_json::to_string(&s.graph).unwrap();
        assert_eq!(serde_json::from_str::<SwapGraph>(&json).unwrap(), s.graph);

        // A stored participant list missing one the edges name.
        let all = serde_json::to_string(&s.graph.participants().to_vec()).unwrap();
        let fewer = serde_json::to_string(&s.graph.participants()[1..].to_vec()).unwrap();
        let lacking = json.replacen(&all, &fewer, 1);
        assert_ne!(lacking, json);
        assert_eq!(
            serde_json::from_str::<SwapGraph>(&lacking).unwrap_err(),
            serde::Error::custom(GraphError::ParticipantsMismatch.to_string())
        );

        // An edge `new` refuses.
        let mut zero = s.graph.clone();
        zero.edges[0].amount = 0;
        let json = serde_json::to_string(&zero).unwrap();
        assert_eq!(
            serde_json::from_str::<SwapGraph>(&json).unwrap_err(),
            serde::Error::custom(GraphError::ZeroAmount.to_string())
        );
    }

    #[test]
    fn invalid_graphs_rejected() {
        assert_eq!(SwapGraph::new(vec![], 1).unwrap_err(), GraphError::Empty);
        let a = addr(b"a");
        let b = addr(b"b");
        assert_eq!(
            SwapGraph::new(vec![SwapEdge { from: a, to: b, amount: 0, chain: ChainId(0) }], 1)
                .unwrap_err(),
            GraphError::ZeroAmount
        );
        assert_eq!(
            SwapGraph::new(vec![SwapEdge { from: a, to: a, amount: 5, chain: ChainId(0) }], 1)
                .unwrap_err(),
            GraphError::SelfLoop(a)
        );
    }

    #[test]
    fn canonical_bytes_distinguish_timestamp_and_edges() {
        let a = addr(b"a");
        let b = addr(b"b");
        let g1 = SwapGraph::two_party(a, b, 10, ChainId(0), 20, ChainId(1), 1).unwrap();
        let g2 = SwapGraph::two_party(a, b, 10, ChainId(0), 20, ChainId(1), 2).unwrap();
        let g3 = SwapGraph::two_party(a, b, 11, ChainId(0), 20, ChainId(1), 1).unwrap();
        assert_ne!(g1.digest(), g2.digest());
        assert_ne!(g1.digest(), g3.digest());
        assert_eq!(g1.digest(), g1.clone().digest());
    }

    #[test]
    fn multisign_requires_all_participants() {
        let alice = KeyPair::from_seed(b"alice");
        let bob = KeyPair::from_seed(b"bob");
        let g = SwapGraph::two_party(
            Address::from(alice.public()),
            Address::from(bob.public()),
            10,
            ChainId(0),
            20,
            ChainId(1),
            1,
        )
        .unwrap();
        assert!(g.multisign(&[alice, bob]).is_ok());
        assert!(matches!(
            g.multisign(&[alice]).unwrap_err(),
            GraphError::Multisig(MultisigError::MissingSigner(_))
        ));
    }

    #[test]
    fn figure7_cyclic_classification() {
        let g = figure7_cyclic(
            addr(b"a"),
            addr(b"b"),
            addr(b"c"),
            [ChainId(0), ChainId(1), ChainId(2)],
        );
        assert_eq!(g.shape(), GraphShape::Cyclic);
        assert!(g.is_cyclic());
        assert!(g.is_connected());
        // Removing any single vertex still leaves ... actually removing a
        // vertex from a 3-cycle leaves a path, which is acyclic; the paper's
        // Figure 7a is a more complex multi-cycle graph. What matters for
        // our reproduction: the full cycle exists.
        assert_eq!(g.diameter(), 3);
    }

    #[test]
    fn figure7_disconnected_classification() {
        let g = figure7_disconnected(
            addr(b"a"),
            addr(b"b"),
            addr(b"c"),
            addr(b"d"),
            [ChainId(0), ChainId(1), ChainId(2), ChainId(3)],
        );
        assert_eq!(g.shape(), GraphShape::Disconnected);
        assert!(!g.is_connected());
        assert_eq!(g.contract_count(), 4);
    }

    #[test]
    fn ring_diameter_equals_participant_count() {
        for n in 2..8usize {
            let ps = names(n);
            let chains: Vec<ChainId> = (0..n as u32).map(ChainId).collect();
            let g = ring_graph(&ps, &chains, 5);
            assert_eq!(g.diameter(), n as u64, "ring of {n}");
            assert_eq!(g.shape(), GraphShape::Cyclic);
        }
    }

    #[test]
    fn acyclic_chain_graph() {
        // A -> B -> C is acyclic with diameter 2.
        let ps = names(3);
        let g = SwapGraph::new(
            vec![
                SwapEdge { from: ps[0], to: ps[1], amount: 1, chain: ChainId(0) },
                SwapEdge { from: ps[1], to: ps[2], amount: 1, chain: ChainId(1) },
            ],
            1,
        )
        .unwrap();
        assert_eq!(g.shape(), GraphShape::Acyclic);
        assert_eq!(g.diameter(), 2);
        assert!(g.acyclic_without(&ps[..1]));
    }

    #[test]
    fn acyclic_without_leader_detects_residual_cycles() {
        // Two-party swap: removing either participant removes all edges.
        let g =
            SwapGraph::two_party(addr(b"a"), addr(b"b"), 1, ChainId(0), 2, ChainId(1), 1).unwrap();
        assert!(g.acyclic_without(&[addr(b"a")]));
        // A 4-cycle with an extra 2-cycle not touching the leader stays
        // cyclic after removing the leader.
        let ps = names(4);
        let g = SwapGraph::new(
            vec![
                SwapEdge { from: ps[0], to: ps[1], amount: 1, chain: ChainId(0) },
                SwapEdge { from: ps[1], to: ps[2], amount: 1, chain: ChainId(1) },
                SwapEdge { from: ps[2], to: ps[1], amount: 1, chain: ChainId(2) },
                SwapEdge { from: ps[2], to: ps[3], amount: 1, chain: ChainId(3) },
            ],
            1,
        )
        .unwrap();
        assert!(!g.acyclic_without(&ps[..1]), "B⇄C cycle survives removing A");
        assert!(g.acyclic_without(&ps[1..2]), "removing B breaks it");
    }

    #[test]
    fn feedback_vertex_set_breaks_every_cycle() {
        // A 3-cycle needs at least one removal.
        let g = figure7_cyclic(
            addr(b"a"),
            addr(b"b"),
            addr(b"c"),
            [ChainId(0), ChainId(1), ChainId(2)],
        );
        let fvs = g.feedback_vertex_set();
        assert!(!fvs.is_empty());
        let residual: Vec<SwapEdge> = g
            .edges()
            .iter()
            .filter(|e| !fvs.contains(&e.from) && !fvs.contains(&e.to))
            .copied()
            .collect();
        if !residual.is_empty() {
            assert!(!SwapGraph::new(residual, 1).unwrap().is_cyclic());
        }
        // An acyclic chain needs no removals.
        let ps = names(3);
        let acyclic = SwapGraph::new(
            vec![
                SwapEdge { from: ps[0], to: ps[1], amount: 1, chain: ChainId(0) },
                SwapEdge { from: ps[1], to: ps[2], amount: 1, chain: ChainId(1) },
            ],
            1,
        )
        .unwrap();
        assert!(acyclic.feedback_vertex_set().is_empty());
    }

    #[test]
    fn feedback_vertex_set_handles_disconnected_multi_cycle_graphs() {
        // Two disjoint 2-cycles: one removal per component.
        let g = figure7_disconnected(
            addr(b"a"),
            addr(b"b"),
            addr(b"c"),
            addr(b"d"),
            [ChainId(0), ChainId(1), ChainId(2), ChainId(3)],
        );
        let fvs = g.feedback_vertex_set();
        assert_eq!(fvs.len(), 2, "one leader per 2-cycle: {fvs:?}");
    }

    #[test]
    fn waves_from_set_cover_all_edges_of_a_ring() {
        let ps = names(5);
        let chains: Vec<ChainId> = (0..5).map(ChainId).collect();
        let g = ring_graph(&ps, &chains, 5);
        let leaders = g.feedback_vertex_set();
        let waves = g.waves_from_set(&leaders);
        let total: usize = waves.iter().map(|w| w.len()).sum();
        assert_eq!(total, g.contract_count());
        // The first wave contains exactly the leaders' outgoing edges.
        assert!(waves[0].iter().all(|e| leaders.contains(&e.from)));
    }

    #[test]
    fn waves_from_set_omit_unreachable_edges() {
        // Two disjoint 2-cycles with leaders from only one component.
        let g = figure7_disconnected(
            addr(b"a"),
            addr(b"b"),
            addr(b"c"),
            addr(b"d"),
            [ChainId(0), ChainId(1), ChainId(2), ChainId(3)],
        );
        let waves = g.waves_from_set(&[addr(b"a")]);
        // The other component's edges are unreachable and land in no wave.
        let placed: Vec<SwapEdge> = waves.into_iter().flatten().collect();
        assert_eq!(placed.len(), 2);
        assert!(placed.iter().all(|e| e.from != addr(b"c") && e.from != addr(b"d")));
    }

    #[test]
    fn waves_partition_all_edges() {
        let ps = names(4);
        let chains: Vec<ChainId> = (0..4).map(ChainId).collect();
        let g = ring_graph(&ps, &chains, 5);
        let waves = g.waves_from_set(&ps[..1]);
        let total: usize = waves.iter().map(|w| w.len()).sum();
        assert_eq!(total, g.contract_count());
        // The first wave contains exactly the leader's outgoing edge.
        assert_eq!(waves[0].len(), 1);
        assert_eq!(waves[0][0].from, ps[0]);
    }

    proptest! {
        #[test]
        fn prop_ring_graphs_are_valid_and_cyclic(n in 2usize..10) {
            let ps = names(n);
            let chains: Vec<ChainId> = (0..n as u32).map(ChainId).collect();
            let g = ring_graph(&ps, &chains, 1);
            prop_assert_eq!(g.contract_count(), n);
            prop_assert!(g.is_cyclic());
            prop_assert!(g.is_connected());
            prop_assert_eq!(g.diameter(), n as u64);
            // Every participant appears exactly once as a source.
            let sources: BTreeSet<Address> = g.edges().iter().map(|e| e.from).collect();
            prop_assert_eq!(sources.len(), n);
        }

        #[test]
        fn prop_digest_is_stable_under_reconstruction(n in 2usize..8, ts in 0u64..1000) {
            let ps = names(n);
            let chains: Vec<ChainId> = (0..n as u32).map(ChainId).collect();
            let edges: Vec<SwapEdge> = (0..n).map(|i| SwapEdge {
                from: ps[i],
                to: ps[(i + 1) % n],
                amount: (i + 1) as u64,
                chain: chains[i],
            }).collect();
            let g1 = SwapGraph::new(edges.clone(), ts).unwrap();
            let g2 = SwapGraph::new(edges, ts).unwrap();
            prop_assert_eq!(g1.digest(), g2.digest());
        }
    }
}
