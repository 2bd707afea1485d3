//! The block store: a tree of blocks with longest-chain fork choice.
//!
//! Permissionless chains fork; the paper's correctness argument (Lemma 5.3)
//! and the depth parameter `d` both hinge on how forks are created and
//! resolved. The store therefore keeps *every* block it has seen — not just
//! the canonical chain — tracks all tips, and resolves forks with the
//! longest-chain rule (ties broken by lowest hash, deterministically).
//!
//! Storage is split in two (DESIGN.md §11):
//!
//! * **metadata** — headers, chain lengths, the child/tip sets and the
//!   canonical indexes — lives in memory, always. It is small and touched
//!   on every fork-choice decision and every header query, so header-only
//!   paths ([`BlockStore::header`], [`BlockStore::headers_since`]) never
//!   materialize a block body;
//! * **bodies** — the transaction payloads — go through the pluggable
//!   [`Store`] trait: the in-memory map by default, or the paged
//!   file-backed backend ([`crate::storage::PagedStore`]) whose buffer
//!   pool bounds resident memory regardless of chain length.

use crate::block::{Block, BlockHeader};
use crate::storage::{Store, StoreConfig, StoreStats};
use crate::types::{BlockHash, BlockHeight, TxId};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// Errors raised when inserting blocks into the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The parent of the inserted block is unknown.
    UnknownParent(BlockHash),
    /// The block's height is not parent height + 1.
    BadHeight {
        /// The height carried by the block.
        got: BlockHeight,
        /// The height it should have had.
        expected: BlockHeight,
    },
    /// A different block with the same hash is already stored.
    DuplicateBlock(BlockHash),
    /// The block's Merkle root does not match its transactions.
    BadTxRoot(BlockHash),
    /// The block header does not satisfy its proof-of-work target.
    InsufficientWork(BlockHash),
    /// A genesis block was inserted into a store that already has one.
    DuplicateGenesis,
    /// The body backend failed to persist or retrieve a block (file-backed
    /// backends only; the in-memory backend never raises this).
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownParent(h) => write!(f, "unknown parent {h}"),
            StoreError::BadHeight { got, expected } => {
                write!(f, "bad height {got}, expected {expected}")
            }
            StoreError::DuplicateBlock(h) => write!(f, "duplicate block {h}"),
            StoreError::BadTxRoot(h) => write!(f, "bad tx root in {h}"),
            StoreError::InsufficientWork(h) => write!(f, "insufficient proof of work in {h}"),
            StoreError::DuplicateGenesis => write!(f, "store already has a genesis block"),
            StoreError::Io(e) => write!(f, "block storage io error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// In-memory metadata of one stored block: everything fork choice and
/// header queries need, without the body.
#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    header: BlockHeader,
    /// Cumulative chain length (number of blocks from genesis, inclusive).
    chain_len: u64,
}

/// A tree of blocks with longest-chain fork choice.
///
/// Beyond the raw fork tree, the store maintains two indexes that are
/// updated incrementally whenever the canonical tip changes (see
/// `DESIGN.md`):
///
/// * a height → canonical-hash vector, making [`BlockStore::canonical_block_at_height`],
///   [`BlockStore::is_canonical`], [`BlockStore::depth_of`] and
///   [`BlockStore::headers_since`] O(1)/O(result) instead of walking parent
///   pointers from the tip on every call;
/// * a txid → (canonical block, index) map, making
///   [`BlockStore::find_canonical_tx`] O(1) instead of scanning the whole
///   canonical chain.
///
/// On a reorg only the divergent suffix of the canonical chain is reindexed.
///
/// Block *bodies* are held by a pluggable [`Store`] backend — see the
/// module docs and [`BlockStore::with_config`].
#[derive(Debug)]
pub struct BlockStore {
    meta: HashMap<BlockHash, BlockMeta>,
    bodies: Box<dyn Store>,
    /// Children of each block, used to enumerate forks.
    children: HashMap<BlockHash, Vec<BlockHash>>,
    /// All current tips (blocks without children), kept sorted for
    /// deterministic iteration.
    tips: BTreeMap<BlockHash, ()>,
    genesis: Option<BlockHash>,
    /// The current canonical tip under the fork-choice rule.
    best_tip: Option<BlockHash>,
    /// Canonical chain indexed by height (`canonical[h]` is the canonical
    /// block at height `h`), maintained incrementally on best-tip changes.
    canonical: Vec<BlockHash>,
    /// Canonical transaction locations: txid → (containing block, index in
    /// block), covering exactly the blocks in `canonical`.
    canonical_txs: HashMap<TxId, (BlockHash, usize)>,
}

impl Default for BlockStore {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockStore {
    /// An empty store on the backend selected by the environment
    /// ([`StoreConfig::from_env`]; the in-memory map unless
    /// `AC3_STORE_BACKEND=paged`).
    pub fn new() -> Self {
        Self::with_config(StoreConfig::from_env())
    }

    /// An empty store on an explicit body backend.
    pub fn with_config(config: StoreConfig) -> Self {
        BlockStore {
            meta: HashMap::new(),
            bodies: config.build(),
            children: HashMap::new(),
            tips: BTreeMap::new(),
            genesis: None,
            best_tip: None,
            canonical: Vec::new(),
            canonical_txs: HashMap::new(),
        }
    }

    /// Number of blocks stored (across all forks).
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// The genesis block hash, if a genesis has been inserted.
    pub fn genesis(&self) -> Option<BlockHash> {
        self.genesis
    }

    /// The canonical tip.
    pub fn best_tip(&self) -> Option<BlockHash> {
        self.best_tip
    }

    /// Height of the canonical tip.
    pub fn best_height(&self) -> Option<BlockHeight> {
        self.best_tip.and_then(|h| self.meta.get(&h)).map(|m| m.header.height)
    }

    /// All current tips (canonical and fork tips).
    pub fn tips(&self) -> Vec<BlockHash> {
        self.tips.keys().copied().collect()
    }

    /// Fetch a block by hash. On the paged backend this faults the block's
    /// page(s) into the buffer pool; the returned block is shared, not
    /// copied, on the in-memory backend.
    pub fn get(&self, hash: &BlockHash) -> Option<Arc<Block>> {
        // The metadata map is the source of truth for membership; the body
        // backend must agree.
        if !self.meta.contains_key(hash) {
            return None;
        }
        self.bodies.body(hash)
    }

    /// Fetch a header by hash. Served from in-memory metadata: never
    /// materializes a body, regardless of backend.
    pub fn header(&self, hash: &BlockHash) -> Option<BlockHeader> {
        self.meta.get(hash).map(|m| m.header)
    }

    /// Whether `hash` is stored.
    pub fn contains(&self, hash: &BlockHash) -> bool {
        self.meta.contains_key(hash)
    }

    /// Counters and shape of the body backend (all-zero counters on the
    /// in-memory backend).
    pub fn stats(&self) -> StoreStats {
        self.bodies.stats()
    }

    /// The body backend's name: `"memory"` or `"paged"`.
    pub fn backend(&self) -> &'static str {
        self.bodies.stats().backend
    }

    /// Write any buffered dirty pages back to the backing file.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.bodies.flush().map_err(|e| StoreError::Io(e.to_string()))
    }

    /// The body of a block that is known to be stored.
    fn body(&self, hash: &BlockHash) -> Arc<Block> {
        self.bodies.body(hash).expect("indexed block has a stored body")
    }

    /// Insert a block, performing structural validation (parent link,
    /// height, Merkle root, proof of work). Stateful validation (UTXO and
    /// contract execution) is the responsibility of
    /// [`crate::chain::Blockchain`].
    pub fn insert(&mut self, block: Block) -> Result<BlockHash, StoreError> {
        let hash = block.hash();
        if self.meta.contains_key(&hash) {
            if *self.body(&hash) == block {
                return Ok(hash); // idempotent re-insert
            }
            return Err(StoreError::DuplicateBlock(hash));
        }
        if !block.tx_root_valid() {
            return Err(StoreError::BadTxRoot(hash));
        }
        // The header hash is in hand: check the target against it rather
        // than hashing the header again.
        if !hash.0.meets_target(&block.header.target) {
            return Err(StoreError::InsufficientWork(hash));
        }

        let chain_len = if block.header.is_genesis() {
            if self.genesis.is_some() {
                return Err(StoreError::DuplicateGenesis);
            }
            1
        } else {
            let parent = self
                .meta
                .get(&block.header.parent)
                .ok_or(StoreError::UnknownParent(block.header.parent))?;
            let expected = parent.header.height + 1;
            if block.header.height != expected {
                return Err(StoreError::BadHeight { got: block.header.height, expected });
            }
            parent.chain_len + 1
        };

        if block.header.is_genesis() {
            self.genesis = Some(hash);
        } else {
            self.children.entry(block.header.parent).or_default().push(hash);
            self.tips.remove(&block.header.parent);
        }
        self.tips.insert(hash, ());
        self.meta.insert(hash, BlockMeta { header: block.header, chain_len });
        self.bodies.insert_body(hash, block).map_err(|e| StoreError::Io(e.to_string()))?;
        self.update_best_tip();
        Ok(hash)
    }

    /// Recompute the canonical tip: longest chain wins, ties broken by the
    /// numerically smallest tip hash so every node converges on the same
    /// choice. When the tip changes, the canonical indexes are repaired
    /// incrementally: only the suffix past the fork point is reindexed.
    fn update_best_tip(&mut self) {
        let old_best = self.best_tip;
        self.best_tip = self
            .tips
            .keys()
            .max_by(|a, b| {
                let la = self.meta[*a].chain_len;
                let lb = self.meta[*b].chain_len;
                // Longest first; on equal length prefer the smaller hash
                // (max_by keeps the "greater", so invert the hash ordering).
                la.cmp(&lb).then_with(|| b.cmp(a))
            })
            .copied();
        if self.best_tip != old_best {
            self.reindex_canonical();
        }
    }

    /// Repair `canonical` and `canonical_txs` after a best-tip change.
    /// Walks back from the new tip only until it rejoins the previously
    /// indexed chain, so extending the tip is O(1) and a reorg is
    /// O(divergent suffix), never O(chain length). The fork walk itself
    /// uses only in-memory metadata; bodies are read just for the blocks
    /// whose transactions are (un)indexed.
    fn reindex_canonical(&mut self) {
        let Some(tip) = self.best_tip else {
            self.canonical.clear();
            self.canonical_txs.clear();
            return;
        };
        // Collect the new-branch blocks (descending) until we meet a block
        // that is already canonical at its height.
        let mut fresh: Vec<BlockHash> = Vec::new();
        let mut cursor = tip;
        let fork_height = loop {
            let meta = &self.meta[&cursor];
            let height = meta.header.height as usize;
            if self.canonical.get(height) == Some(&cursor) {
                break height as u64;
            }
            fresh.push(cursor);
            if meta.header.is_genesis() {
                break 0;
            }
            cursor = meta.header.parent;
        };
        // Un-index the abandoned suffix (strictly above the fork point, or
        // the whole chain when the new branch roots at a fresh genesis).
        let keep = if fresh.last().map(|h| self.meta[h].header.is_genesis()) == Some(true) {
            0
        } else {
            fork_height as usize + 1
        };
        let abandoned: Vec<BlockHash> = self.canonical.drain(keep..).collect();
        for hash in abandoned {
            let block = self.body(&hash);
            for tx in &block.transactions {
                // Remove only entries still pointing at the abandoned block;
                // a duplicate txid re-indexed by the new branch must stay.
                if let Some((owner, _)) = self.canonical_txs.get(&tx.id()) {
                    if *owner == hash {
                        self.canonical_txs.remove(&tx.id());
                    }
                }
            }
        }
        // Index the new suffix in ascending height order.
        for hash in fresh.into_iter().rev() {
            let block = self.body(&hash);
            debug_assert_eq!(block.header.height as usize, self.canonical.len());
            for (idx, tx) in block.transactions.iter().enumerate() {
                self.canonical_txs.insert(tx.id(), (hash, idx));
            }
            self.canonical.push(hash);
        }
    }

    /// The canonical chain from genesis to the best tip (inclusive), as a
    /// borrowed slice — the allocation-free accessor; prefer it over
    /// [`BlockStore::canonical_chain`].
    pub fn canonical_hashes(&self) -> &[BlockHash] {
        &self.canonical
    }

    /// The canonical chain from genesis to the best tip (inclusive),
    /// cloned into a fresh `Vec`. Callers that only iterate should use
    /// [`BlockStore::canonical_hashes`].
    pub fn canonical_chain(&self) -> Vec<BlockHash> {
        self.canonical.clone()
    }

    /// Whether `hash` lies on the canonical chain. O(1) via the height
    /// index.
    pub fn is_canonical(&self, hash: &BlockHash) -> bool {
        let Some(meta) = self.meta.get(hash) else { return false };
        self.canonical.get(meta.header.height as usize) == Some(hash)
    }

    /// The canonical block at a given height, if the chain is that long.
    /// O(1) via the height index.
    pub fn canonical_block_at_height(&self, height: BlockHeight) -> Option<BlockHash> {
        self.canonical.get(height as usize).copied()
    }

    /// Number of blocks burying `hash` on the canonical chain: 0 for the
    /// tip, `None` if the block is not canonical.
    ///
    /// This is the paper's depth `d`: a block "buried under d blocks".
    pub fn depth_of(&self, hash: &BlockHash) -> Option<u64> {
        if !self.is_canonical(hash) {
            return None;
        }
        let height = self.meta.get(hash)?.header.height;
        Some(self.best_height()? - height)
    }

    /// Locate the canonical block containing `txid`, returning the block
    /// hash and the transaction's index within the block. O(1) via the
    /// canonical transaction index.
    pub fn find_canonical_tx(&self, txid: &TxId) -> Option<(BlockHash, usize)> {
        self.canonical_txs.get(txid).copied()
    }

    /// The canonical headers from (and excluding) `from` up to the tip, in
    /// ascending height order. Returns `None` if `from` is not canonical.
    /// This is the evidence payload of Section 4.3: "the headers of all the
    /// blocks that follow the stored stable block".
    ///
    /// Served entirely from in-memory metadata: no block body is
    /// materialized on any backend (the header-only read path).
    pub fn headers_since(&self, from: &BlockHash) -> Option<Vec<BlockHeader>> {
        if !self.is_canonical(from) {
            return None;
        }
        let from_height = self.meta.get(from)?.header.height as usize;
        Some(self.canonical[from_height + 1..].iter().map(|h| self.meta[h].header).collect())
    }

    /// Iterate canonical blocks in ascending height order. Each step
    /// fetches one body through the backend (a sequential page scan on the
    /// paged backend).
    pub fn canonical_blocks(&self) -> impl Iterator<Item = Arc<Block>> + '_ {
        self.canonical.iter().map(move |h| self.body(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockHeader};
    use crate::storage::PolicyKind;
    use crate::transaction::{coinbase, Transaction};
    use crate::types::{Address, ChainId};
    use ac3_crypto::{Hash256, KeyPair};

    fn miner() -> Address {
        Address::from(KeyPair::from_seed(b"miner").public())
    }

    fn make_block(parent: Option<&Block>, tag: u64, txs: Vec<Transaction>) -> Block {
        let (parent_hash, height) = match parent {
            Some(p) => (p.hash(), p.header.height + 1),
            None => (BlockHash::GENESIS_PARENT, 0),
        };
        let mut transactions = vec![coinbase(miner(), 50, tag)];
        transactions.extend(txs);
        let header = BlockHeader {
            chain: ChainId(0),
            parent: parent_hash,
            tx_root: Block::compute_tx_root(&transactions),
            height,
            timestamp: tag,
            target: Hash256::MAX,
            nonce: tag,
        };
        Block { header, transactions }
    }

    fn chain_of(len: usize) -> (BlockStore, Vec<Block>) {
        let mut store = BlockStore::new();
        let mut blocks = Vec::new();
        for i in 0..len {
            let block = make_block(blocks.last(), i as u64, vec![]);
            store.insert(block.clone()).unwrap();
            blocks.push(block);
        }
        (store, blocks)
    }

    #[test]
    fn linear_chain_is_canonical() {
        let (store, blocks) = chain_of(5);
        assert_eq!(store.best_height(), Some(4));
        assert_eq!(store.canonical_hashes().len(), 5);
        for b in &blocks {
            assert!(store.is_canonical(&b.hash()));
        }
        assert_eq!(store.depth_of(&blocks[0].hash()), Some(4));
        assert_eq!(store.depth_of(&blocks[4].hash()), Some(0));
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut store = BlockStore::new();
        let genesis = make_block(None, 0, vec![]);
        let orphan = make_block(Some(&genesis), 1, vec![]);
        assert_eq!(store.insert(orphan).unwrap_err(), StoreError::UnknownParent(genesis.hash()));
    }

    #[test]
    fn bad_height_rejected() {
        let (mut store, blocks) = chain_of(2);
        let mut bad = make_block(Some(&blocks[1]), 99, vec![]);
        bad.header.height = 7;
        bad.header.tx_root = Block::compute_tx_root(&bad.transactions);
        assert_eq!(store.insert(bad).unwrap_err(), StoreError::BadHeight { got: 7, expected: 2 });
    }

    #[test]
    fn bad_tx_root_rejected() {
        let (mut store, blocks) = chain_of(1);
        let mut bad = make_block(Some(&blocks[0]), 1, vec![]);
        bad.header.tx_root = Hash256::digest(b"wrong");
        assert_eq!(store.insert(bad.clone()).unwrap_err(), StoreError::BadTxRoot(bad.hash()));
    }

    #[test]
    fn second_genesis_rejected() {
        let (mut store, _) = chain_of(1);
        let other_genesis = make_block(None, 42, vec![]);
        assert_eq!(store.insert(other_genesis).unwrap_err(), StoreError::DuplicateGenesis);
    }

    #[test]
    fn reinsert_is_idempotent() {
        let (mut store, blocks) = chain_of(3);
        let len = store.len();
        store.insert(blocks[1].clone()).unwrap();
        assert_eq!(store.len(), len);
    }

    #[test]
    fn longest_fork_wins() {
        let (mut store, blocks) = chain_of(3);
        // Fork from height 1: build a longer competing branch.
        let f2 = make_block(Some(&blocks[1]), 100, vec![]);
        let f3 = make_block(Some(&f2), 101, vec![]);
        let f4 = make_block(Some(&f3), 102, vec![]);
        store.insert(f2.clone()).unwrap();
        assert_eq!(store.best_tip(), Some(blocks[2].hash()), "tie keeps deterministic choice");
        store.insert(f3.clone()).unwrap();
        store.insert(f4.clone()).unwrap();
        assert_eq!(store.best_tip(), Some(f4.hash()));
        assert!(store.is_canonical(&f2.hash()));
        assert!(!store.is_canonical(&blocks[2].hash()));
        // The abandoned block is no longer canonical so it has no depth.
        assert_eq!(store.depth_of(&blocks[2].hash()), None);
    }

    #[test]
    fn equal_length_fork_resolves_deterministically() {
        let (mut store, blocks) = chain_of(2);
        let a = make_block(Some(&blocks[1]), 7, vec![]);
        let b = make_block(Some(&blocks[1]), 8, vec![]);
        store.insert(a.clone()).unwrap();
        store.insert(b.clone()).unwrap();
        let expected = if a.hash() < b.hash() { a.hash() } else { b.hash() };
        assert_eq!(store.best_tip(), Some(expected));
        assert_eq!(store.tips().len(), 2);
    }

    #[test]
    fn canonical_block_at_height_walks_best_branch() {
        let (mut store, blocks) = chain_of(3);
        let f2 = make_block(Some(&blocks[1]), 100, vec![]);
        let f3 = make_block(Some(&f2), 101, vec![]);
        store.insert(f2.clone()).unwrap();
        store.insert(f3.clone()).unwrap();
        assert_eq!(store.canonical_block_at_height(2), Some(f2.hash()));
        assert_eq!(store.canonical_block_at_height(3), Some(f3.hash()));
        assert_eq!(store.canonical_block_at_height(9), None);
    }

    #[test]
    fn headers_since_returns_suffix() {
        let (store, blocks) = chain_of(5);
        let headers = store.headers_since(&blocks[1].hash()).unwrap();
        assert_eq!(headers.len(), 3);
        assert_eq!(headers[0].height, 2);
        assert_eq!(headers[2].height, 4);
        // Non-canonical / unknown start -> None.
        assert!(store.headers_since(&BlockHash(Hash256::digest(b"nope"))).is_none());
    }

    #[test]
    fn find_canonical_tx_locates_transactions() {
        let (store, blocks) = chain_of(4);
        let target = blocks[2].transactions[0].id();
        let (hash, idx) = store.find_canonical_tx(&target).unwrap();
        assert_eq!(hash, blocks[2].hash());
        assert_eq!(idx, 0);
    }

    #[test]
    fn insufficient_work_rejected() {
        let mut store = BlockStore::new();
        let mut genesis = make_block(None, 0, vec![]);
        genesis.header.target = Hash256::ZERO;
        assert!(matches!(store.insert(genesis).unwrap_err(), StoreError::InsufficientWork(_)));
    }

    /// The full store test-surface above runs on whatever backend the
    /// environment selects (the CI backend matrix sets
    /// `AC3_STORE_BACKEND=paged`); this test pins the paged backend
    /// explicitly, with a pool an order of magnitude smaller than the
    /// chain, and checks the fork-choice surface plus the counters.
    #[test]
    fn paged_backend_with_tiny_pool_serves_a_much_larger_chain() {
        let config =
            StoreConfig::Paged { pool_pages: 4, page_size: 512, policy: PolicyKind::Sieve };
        let mut store = BlockStore::with_config(config);
        let mut blocks = Vec::new();
        for i in 0..200 {
            let block = make_block(blocks.last(), i as u64, vec![]);
            store.insert(block.clone()).unwrap();
            blocks.push(block);
        }
        let stats = store.stats();
        assert_eq!(stats.backend, "paged");
        assert_eq!(stats.blocks, 200);
        assert!(
            stats.bytes_stored > 10 * 4 * 512,
            "chain must be ≥ 10× the pool, got {} bytes",
            stats.bytes_stored
        );
        assert!(stats.evictions > 0, "eviction must actually be exercised");
        assert!(stats.misses > 0);
        // Every block — resident or spilled — reads back intact.
        for b in &blocks {
            assert_eq!(*store.get(&b.hash()).unwrap(), *b);
        }
        // Header-only paths do not touch the pool.
        let pins_before = store.stats();
        let headers = store.headers_since(&blocks[0].hash()).unwrap();
        assert_eq!(headers.len(), 199);
        let pins_after = store.stats();
        assert_eq!(pins_after.hits, pins_before.hits, "headers_since reads no pages");
        assert_eq!(pins_after.misses, pins_before.misses);
    }
}
