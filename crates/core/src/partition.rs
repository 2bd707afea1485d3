//! Connected-component partitioning of a swap batch.
//!
//! Two machines can race only through shared world state: a chain both
//! submit to (one mempool, one fee market, one block budget) or a
//! participant both sign for (one per-chain nonce sequence). Build a graph
//! whose vertices are the batch's machines and whose edges connect
//! machines with overlapping [`MachineFootprint`]s, and every connected
//! component is a *data-disjoint* unit: no chain, mempool, contract,
//! balance, or nonce is visible from more than one component. The parallel
//! scheduler splits the world along these components
//! ([`ac3_sim::World::split_shard`]) and runs each shard on a worker
//! thread; within a shard, machines poll in submission order exactly as
//! the unsplit run would, so the parallel run is not merely
//! *equivalent* to the unsplit one — per shard it is the *same
//! computation*, which is what makes the scheduler's output bitwise
//! reproducible at any worker count.
//!
//! The partition is computed once, up front: footprints are declared for a
//! machine's whole lifetime (a swap graph never grows mid-flight), so
//! components never need to merge while the batch runs.

use crate::driver::MachineFootprint;
use ac3_chain::{Address, ChainId};
use std::collections::BTreeMap;

/// One data-disjoint shard of a batch.
#[derive(Debug, Clone, Default)]
pub struct Shard {
    /// Indices (into the batch's submission order) of the machines in this
    /// shard, ascending — polling them in this order reproduces the serial
    /// scheduler's interleaving for every pair that could ever interact.
    pub machines: Vec<usize>,
    /// Union of the member footprints' chains, sorted and deduplicated.
    pub chains: Vec<ChainId>,
    /// Union of the member footprints' actors, sorted and deduplicated.
    pub actors: Vec<Address>,
}

/// Union-find over machine indices, with path halving and union by
/// attaching to the smaller root index — the smaller index wins so that a
/// component's root is also its first machine in submission order.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect() }
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Group a batch's machines into connected components of footprint
/// overlap. Shards come back ordered by their first machine's submission
/// index, with member lists ascending — fully deterministic in the input
/// order, independent of worker count or thread scheduling.
pub fn partition_batch(footprints: &[MachineFootprint]) -> Vec<Shard> {
    let mut uf = UnionFind::new(footprints.len());
    let mut chain_owner: BTreeMap<ChainId, usize> = BTreeMap::new();
    let mut actor_owner: BTreeMap<Address, usize> = BTreeMap::new();
    for (i, fp) in footprints.iter().enumerate() {
        for chain in &fp.chains {
            match chain_owner.get(chain) {
                Some(&owner) => uf.union(i, owner),
                None => {
                    chain_owner.insert(*chain, i);
                }
            }
        }
        for actor in &fp.actors {
            match actor_owner.get(actor) {
                Some(&owner) => uf.union(i, owner),
                None => {
                    actor_owner.insert(*actor, i);
                }
            }
        }
    }

    // Roots are minimal member indices (union keeps the smaller index), so
    // iterating a BTreeMap keyed by root yields shards already ordered by
    // first machine.
    let mut shards: BTreeMap<usize, Shard> = BTreeMap::new();
    for (i, fp) in footprints.iter().enumerate() {
        let root = uf.find(i);
        let shard = shards.entry(root).or_default();
        shard.machines.push(i);
        shard.chains.extend(fp.chains.iter().copied());
        shard.actors.extend(fp.actors.iter().copied());
    }
    let mut out: Vec<Shard> = shards.into_values().collect();
    for shard in &mut out {
        shard.chains.sort();
        shard.chains.dedup();
        shard.actors.sort();
        shard.actors.dedup();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac3_crypto::KeyPair;

    fn addr(seed: &[u8]) -> Address {
        Address::from(KeyPair::from_seed(seed).public())
    }

    fn fp(chains: &[u32], actors: &[&[u8]]) -> MachineFootprint {
        MachineFootprint {
            chains: chains.iter().map(|c| ChainId(*c)).collect(),
            actors: actors.iter().map(|a| addr(a)).collect(),
        }
    }

    #[test]
    fn disjoint_footprints_stay_separate() {
        let shards = partition_batch(&[
            fp(&[0, 1], &[b"a", b"b"]),
            fp(&[2, 3], &[b"c", b"d"]),
            fp(&[4], &[b"e"]),
        ]);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0].machines, vec![0]);
        assert_eq!(shards[1].machines, vec![1]);
        assert_eq!(shards[2].machines, vec![2]);
        assert_eq!(shards[0].chains, vec![ChainId(0), ChainId(1)]);
    }

    #[test]
    fn shared_chain_merges_components() {
        // 0 and 2 share chain 1 (a common witness); 1 is independent.
        let shards =
            partition_batch(&[fp(&[0, 1], &[b"a"]), fp(&[5, 6], &[b"b"]), fp(&[1, 3], &[b"c"])]);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].machines, vec![0, 2], "chain 1 links machines 0 and 2");
        assert_eq!(shards[0].chains, vec![ChainId(0), ChainId(1), ChainId(3)]);
        assert_eq!(shards[1].machines, vec![1]);
    }

    #[test]
    fn shared_actor_merges_components_even_across_disjoint_chains() {
        // Same signer on unrelated chains: the nonce sequence aliases, so
        // the machines must co-schedule.
        let shards = partition_batch(&[fp(&[0], &[b"alice"]), fp(&[1], &[b"alice"])]);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].machines, vec![0, 1]);
        assert_eq!(shards[0].actors.len(), 1);
    }

    #[test]
    fn transitive_overlap_forms_one_component() {
        // 0–1 share a chain, 1–2 share an actor: all three fuse.
        let shards = partition_batch(&[
            fp(&[0], &[b"a"]),
            fp(&[0], &[b"b"]),
            fp(&[9], &[b"b"]),
            fp(&[7], &[b"z"]),
        ]);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].machines, vec![0, 1, 2]);
        assert_eq!(shards[1].machines, vec![3]);
    }

    #[test]
    fn empty_footprints_are_singleton_shards() {
        let shards = partition_batch(&[fp(&[], &[]), fp(&[], &[])]);
        assert_eq!(shards.len(), 2, "no shared resources, no merging");
        assert!(shards[0].chains.is_empty());
    }

    #[test]
    fn shards_are_ordered_by_first_machine_and_members_ascend() {
        // Deliberately interleave: 0 and 3 form one component, 1 and 2
        // another. Order must follow first members (0 then 1), not chain
        // ids (component {1,2} uses the *smaller* chain id).
        let shards = partition_batch(&[fp(&[9], &[]), fp(&[1], &[]), fp(&[1], &[]), fp(&[9], &[])]);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].machines, vec![0, 3]);
        assert_eq!(shards[1].machines, vec![1, 2]);
    }
}
