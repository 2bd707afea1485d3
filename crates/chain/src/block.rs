//! Blocks and block headers.
//!
//! A block header carries the parent link, the Merkle root of its
//! transactions, its height, a timestamp, the proof-of-work difficulty
//! target and a nonce — the minimum a light client (Section 4.3) needs to
//! verify chain continuity and transaction inclusion.

use crate::transaction::Transaction;
use crate::types::{BlockHash, BlockHeight, ChainId, Timestamp};
use ac3_crypto::{Hash256, MerkleTree, Sha256};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A block header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockHeader {
    /// The chain this block belongs to. Including the chain id in the header
    /// prevents replaying headers of one simulated chain as evidence about
    /// another.
    pub chain: ChainId,
    /// Hash of the parent block header (all-zero for genesis).
    pub parent: BlockHash,
    /// Merkle root over the block's transactions.
    pub tx_root: Hash256,
    /// Height of this block (genesis = 0).
    pub height: BlockHeight,
    /// Simulated time at which the block was mined (milliseconds).
    pub timestamp: Timestamp,
    /// The proof-of-work target: the header hash must be numerically below
    /// or equal to this value.
    pub target: Hash256,
    /// The proof-of-work nonce.
    pub nonce: u64,
}

impl BlockHeader {
    /// Canonical encoding used for hashing and proof-of-work.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(b"ac3wn/header/v1");
        out.extend_from_slice(&self.chain.0.to_be_bytes());
        out.extend_from_slice(self.parent.0.as_bytes());
        out.extend_from_slice(self.tx_root.as_bytes());
        out.extend_from_slice(&self.height.to_be_bytes());
        out.extend_from_slice(&self.timestamp.to_be_bytes());
        out.extend_from_slice(self.target.as_bytes());
        out.extend_from_slice(&self.nonce.to_be_bytes());
        out
    }

    /// The block hash (hash of the header).
    pub fn hash(&self) -> BlockHash {
        let mut h = Sha256::new();
        h.update(&self.canonical_bytes());
        BlockHash(Hash256::from(h.finalize()))
    }

    /// Whether the header hash satisfies its own difficulty target.
    pub fn meets_target(&self) -> bool {
        self.hash().0.meets_target(&self.target)
    }

    /// Whether this is a genesis header.
    pub fn is_genesis(&self) -> bool {
        self.height == 0 && self.parent == BlockHash::GENESIS_PARENT
    }
}

impl fmt::Display for BlockHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} h={} {}", self.chain, self.height, self.hash())
    }
}

/// A full block: header plus ordered transactions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// The transactions, in execution order. By convention the first
    /// transaction (if any) may be a coinbase.
    pub transactions: Vec<Transaction>,
}

impl Block {
    /// The block hash.
    pub fn hash(&self) -> BlockHash {
        self.header.hash()
    }

    /// Compute the Merkle root over a transaction list. Leaves are the
    /// memoized leaf hashes, so each transaction instance is hashed into a
    /// leaf at most once across root computation, root validation and
    /// proof generation.
    pub fn compute_tx_root(transactions: &[Transaction]) -> Hash256 {
        Self::tree_of(transactions).root()
    }

    /// The Merkle tree over this block's transactions (used to produce SPV
    /// inclusion proofs).
    pub fn tx_tree(&self) -> MerkleTree {
        Self::tree_of(&self.transactions)
    }

    fn tree_of(transactions: &[Transaction]) -> MerkleTree {
        MerkleTree::from_leaf_hashes(transactions.iter().map(Transaction::leaf_hash).collect())
    }

    /// Whether the header's Merkle root matches the transactions.
    pub fn tx_root_valid(&self) -> bool {
        Self::compute_tx_root(&self.transactions) == self.header.tx_root
    }

    /// Locate a transaction by id and return its index.
    pub fn find_tx(&self, txid: &crate::types::TxId) -> Option<usize> {
        self.transactions.iter().position(|t| t.id() == *txid)
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} txs)", self.header, self.transactions.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{coinbase, TxBuilder};
    use crate::types::Address;
    use ac3_crypto::KeyPair;

    fn sample_block(n_txs: usize) -> Block {
        let miner = Address::from(KeyPair::from_seed(b"miner").public());
        let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let mut txs = vec![coinbase(miner, 50, 1)];
        for _ in 0..n_txs {
            txs.push(builder.transfer(vec![], vec![], 1));
        }
        let header = BlockHeader {
            chain: ChainId(0),
            parent: BlockHash::GENESIS_PARENT,
            tx_root: Block::compute_tx_root(&txs),
            height: 0,
            timestamp: 0,
            target: Hash256::MAX,
            nonce: 0,
        };
        Block { header, transactions: txs }
    }

    #[test]
    fn header_hash_changes_with_nonce() {
        let block = sample_block(2);
        let mut other = block.header;
        other.nonce += 1;
        assert_ne!(block.header.hash(), other.hash());
    }

    #[test]
    fn header_hash_changes_with_chain_id() {
        let block = sample_block(0);
        let mut other = block.header;
        other.chain = ChainId(9);
        assert_ne!(block.header.hash(), other.hash());
    }

    #[test]
    fn tx_root_validation() {
        let mut block = sample_block(3);
        assert!(block.tx_root_valid());
        block.transactions.pop();
        assert!(!block.tx_root_valid());
    }

    #[test]
    fn max_target_always_met() {
        let block = sample_block(1);
        assert!(block.header.meets_target());
    }

    #[test]
    fn zero_target_never_met() {
        let mut block = sample_block(1);
        block.header.target = Hash256::ZERO;
        assert!(!block.header.meets_target());
    }

    #[test]
    fn genesis_detection() {
        let block = sample_block(0);
        assert!(block.header.is_genesis());
        let mut non_genesis = block.header;
        non_genesis.height = 1;
        assert!(!non_genesis.is_genesis());
    }

    #[test]
    fn find_tx_locates_inclusion_index() {
        let block = sample_block(3);
        let target = block.transactions[2].id();
        assert_eq!(block.find_tx(&target), Some(2));
        let missing = crate::types::TxId(Hash256::digest(b"missing"));
        assert_eq!(block.find_tx(&missing), None);
    }

    #[test]
    fn inclusion_proofs_verify_against_header_root() {
        let block = sample_block(4);
        let tree = block.tx_tree();
        for (i, tx) in block.transactions.iter().enumerate() {
            let proof = tree.prove(i).unwrap();
            assert!(proof.verify(&block.header.tx_root, &tx.canonical_bytes()));
        }
    }
}
