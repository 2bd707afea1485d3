//! Merkle trees and inclusion proofs.
//!
//! Section 4.3 of the paper describes how miners of a *validator* blockchain
//! verify that a transaction occurred on a *validated* blockchain without
//! holding a copy of it: evidence consists of block headers (proof-of-work
//! links) plus proof that the transaction of interest is included in one of
//! those blocks. The inclusion half of that evidence is a Merkle proof
//! against the block header's transaction Merkle root — exactly what this
//! module provides.

use crate::hash::Hash256;
use crate::sha256::Sha256;
use serde::{Deserialize, Serialize};

/// Domain-separation prefixes so that leaves can never be confused with
/// interior nodes (second-preimage hardening, as in RFC 6962).
const LEAF_PREFIX: &[u8] = b"\x00ac3wn/merkle/leaf";
const NODE_PREFIX: &[u8] = b"\x01ac3wn/merkle/node";

/// The hash of one serialized leaf under the leaf domain — what
/// [`MerkleTree::from_leaves`] computes per leaf, exposed so callers that
/// memoize leaf hashes can build the same tree with
/// [`MerkleTree::from_leaf_hashes`].
pub fn leaf_hash(data: &[u8]) -> Hash256 {
    let mut h = Sha256::new();
    h.update(LEAF_PREFIX);
    h.update(data);
    Hash256::from(h.finalize())
}

fn node_hash(left: &Hash256, right: &Hash256) -> Hash256 {
    let mut h = Sha256::new();
    h.update(NODE_PREFIX);
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    Hash256::from(h.finalize())
}

/// A Merkle tree over an ordered list of byte strings (typically serialized
/// transactions of a block).
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// `levels[0]` holds the leaf hashes, the last level holds the root.
    levels: Vec<Vec<Hash256>>,
}

impl MerkleTree {
    /// Build a tree from serialized leaves. An empty leaf set produces the
    /// conventional "empty root" (hash of the empty string under the leaf
    /// domain), so that an empty block still has a well-defined root.
    // lint: api-ok(the reference tree the memoized-leaf tests compare against)
    pub fn from_leaves<I, T>(leaves: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[u8]>,
    {
        let leaf_hashes: Vec<Hash256> = leaves.into_iter().map(|l| leaf_hash(l.as_ref())).collect();
        Self::from_leaf_hashes(leaf_hashes)
    }

    /// Build a tree from already-hashed leaves.
    pub fn from_leaf_hashes(leaf_hashes: Vec<Hash256>) -> Self {
        let mut levels = Vec::new();
        if leaf_hashes.is_empty() {
            levels.push(vec![leaf_hash(b"")]);
            return MerkleTree { levels };
        }
        levels.push(leaf_hashes);
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let left = &pair[0];
                // Odd node: duplicate the last hash (Bitcoin-style padding).
                let right = pair.get(1).unwrap_or(left);
                next.push(node_hash(left, right));
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The Merkle root.
    pub fn root(&self) -> Hash256 {
        *self.levels.last().and_then(|l| l.first()).expect("tree always has a root")
    }

    /// Number of leaves in the tree (0 for the empty tree).
    pub fn leaf_count(&self) -> usize {
        if self.levels.len() == 1
            && self.levels[0].len() == 1
            && self.levels[0][0] == leaf_hash(b"")
        {
            0
        } else {
            self.levels[0].len()
        }
    }

    /// Produce an inclusion proof for the leaf at `index`, or `None` if out
    /// of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.leaf_count() {
            return None;
        }
        let mut siblings = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = idx ^ 1;
            let sibling = *level.get(sibling_idx).unwrap_or(&level[idx]);
            siblings.push(sibling);
            idx /= 2;
        }
        Some(MerkleProof { leaf_index: index, siblings })
    }
}

/// An inclusion proof: the sibling hashes from leaf to root.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MerkleProof {
    /// The index of the proven leaf within the block.
    pub leaf_index: usize,
    /// Sibling hashes, bottom-up.
    pub siblings: Vec<Hash256>,
}

impl MerkleProof {
    /// Verify that `leaf_data` is included under `root` at the proof's index.
    pub fn verify(&self, root: &Hash256, leaf_data: &[u8]) -> bool {
        self.verify_hash(root, &leaf_hash(leaf_data))
    }

    /// Verify against an already-hashed leaf.
    pub fn verify_hash(&self, root: &Hash256, leaf: &Hash256) -> bool {
        let mut acc = *leaf;
        let mut idx = self.leaf_index;
        for sibling in &self.siblings {
            acc = if idx.is_multiple_of(2) {
                node_hash(&acc, sibling)
            } else {
                node_hash(sibling, &acc)
            };
            idx /= 2;
        }
        acc == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("tx-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let tree = MerkleTree::from_leaves([b"only".as_slice()]);
        assert_eq!(tree.root(), leaf_hash(b"only"));
        assert_eq!(tree.leaf_count(), 1);
    }

    #[test]
    fn empty_tree_has_stable_root() {
        let a = MerkleTree::from_leaves(Vec::<Vec<u8>>::new());
        let b = MerkleTree::from_leaves(Vec::<Vec<u8>>::new());
        assert_eq!(a.root(), b.root());
        assert_eq!(a.leaf_count(), 0);
        assert!(a.prove(0).is_none());
    }

    #[test]
    fn proofs_verify_for_all_leaves() {
        for n in 1..=17 {
            let data = leaves(n);
            let tree = MerkleTree::from_leaves(&data);
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.prove(i).expect("in range");
                assert!(proof.verify(&tree.root(), leaf), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn proof_fails_for_wrong_leaf_or_root() {
        let data = leaves(8);
        let tree = MerkleTree::from_leaves(&data);
        let proof = tree.prove(3).unwrap();
        assert!(!proof.verify(&tree.root(), b"not-a-tx"));
        let other = MerkleTree::from_leaves(leaves(9));
        assert!(!proof.verify(&other.root(), &data[3]));
    }

    #[test]
    fn proof_fails_for_wrong_index() {
        let data = leaves(8);
        let tree = MerkleTree::from_leaves(&data);
        let mut proof = tree.prove(3).unwrap();
        proof.leaf_index = 4;
        assert!(!proof.verify(&tree.root(), &data[3]));
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let tree = MerkleTree::from_leaves(leaves(4));
        assert!(tree.prove(4).is_none());
    }

    #[test]
    fn leaves_and_nodes_are_domain_separated() {
        // A tree whose single leaf equals an interior-node encoding of
        // another tree must not produce the same root.
        let data = leaves(2);
        let tree = MerkleTree::from_leaves(&data);
        let forged = MerkleTree::from_leaves([tree.root().as_bytes().as_slice()]);
        assert_ne!(tree.root(), forged.root());
    }

    #[test]
    fn order_matters() {
        let a = MerkleTree::from_leaves([b"a".as_slice(), b"b".as_slice()]);
        let b = MerkleTree::from_leaves([b"b".as_slice(), b"a".as_slice()]);
        assert_ne!(a.root(), b.root());
    }

    proptest! {
        #[test]
        fn prop_all_proofs_verify(n in 1usize..40, seed in any::<u64>()) {
            let data: Vec<Vec<u8>> = (0..n)
                .map(|i| format!("leaf-{seed}-{i}").into_bytes())
                .collect();
            let tree = MerkleTree::from_leaves(&data);
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.prove(i).unwrap();
                prop_assert!(proof.verify(&tree.root(), leaf));
            }
        }

        #[test]
        fn prop_cross_leaf_proofs_fail(n in 2usize..24) {
            let data = leaves(n);
            let tree = MerkleTree::from_leaves(&data);
            let proof = tree.prove(0).unwrap();
            // Proof for leaf 0 must not validate leaf 1.
            prop_assert!(!proof.verify(&tree.root(), &data[1]));
        }

        #[test]
        fn prop_root_changes_when_any_leaf_changes(n in 1usize..24, idx in 0usize..24) {
            let idx = idx % n;
            let mut data = leaves(n);
            let before = MerkleTree::from_leaves(&data).root();
            data[idx] = b"mutated".to_vec();
            let after = MerkleTree::from_leaves(&data).root();
            prop_assert_ne!(before, after);
        }
    }
}
