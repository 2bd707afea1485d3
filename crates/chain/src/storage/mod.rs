//! Pluggable block-body storage: the `Store` trait and its backends.
//!
//! [`crate::store::BlockStore`] keeps the fork tree *metadata* — headers,
//! chain lengths, children, tips, the canonical height index and the
//! canonical transaction index — in memory, always; those structures are
//! what fork choice and the hot accept path touch on every block, and they
//! are small. Block *bodies* (the transaction lists) are the bulk, and they
//! go through the [`Store`] trait:
//!
//! * [`MemoryStore`] — the original in-memory map. Zero behavior change,
//!   zero IO; the default backend.
//! * [`PagedStore`] — serialized bodies in fixed-size pages of a scratch
//!   file behind a [`BufferPool`] with a pluggable
//!   [`ReplacementPolicy`] (LRU, Clock, SIEVE), pin/unpin semantics and
//!   lazy dirty-page write-back. Simulated history is no longer capped by
//!   RAM, and the storage hot path becomes measurable and optimizable
//!   (the `buffer_pool` experiment of `ac3-bench`).
//!
//! Both backends return identical bytes for every lookup, so *every*
//! simulation result — fork choice, state derivation, fingerprint suites —
//! is bitwise identical across backends, pool sizes and policies. The
//! cross-backend differential suite (`crates/chain/tests/store_backends.rs`)
//! and the parallel-determinism CI matrix pin this down.
//!
//! Backend selection: explicit via [`StoreConfig`]
//! ([`crate::chain::Blockchain::with_store_config`]), or process-wide via
//! environment variables read by [`StoreConfig::from_env`]:
//! `AC3_STORE_BACKEND=memory|paged`, `AC3_STORE_POOL_PAGES=<frames>`,
//! `AC3_STORE_POLICY=lru|clock|sieve`.

mod paged;
mod pool;
mod replacement;

pub use paged::PagedStore;
pub use pool::{BufferPool, PoolStats};
pub use replacement::{ClockPolicy, LruPolicy, PolicyKind, ReplacementPolicy, SievePolicy};

use crate::block::Block;
use crate::types::BlockHash;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::Arc;

/// Default page size of the paged backend, in bytes.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Default buffer-pool size of the paged backend, in pages.
pub const DEFAULT_POOL_PAGES: usize = 64;

/// Block-body storage: where the transaction payload of each block lives.
///
/// Implementations must behave as an immutable hash → body map: after
/// `insert_body(h, b)`, `body(&h)` returns a block equal to `b`, forever.
/// How (and where) the bytes are kept is the backend's business.
pub trait Store: fmt::Debug + Send + Sync {
    /// Store the body of block `hash`. Idempotent: re-inserting a stored
    /// hash is a no-op. Errors surface real IO failures of file-backed
    /// backends.
    fn insert_body(&mut self, hash: BlockHash, block: Block) -> io::Result<()>;
    /// Fetch the body of block `hash`, or `None` if it was never stored.
    fn body(&self, hash: &BlockHash) -> Option<Arc<Block>>;
    /// Whether a body is stored for `hash`.
    fn contains_body(&self, hash: &BlockHash) -> bool;
    /// Number of stored bodies.
    fn body_count(&self) -> usize;
    /// Push any buffered dirty state to the backing file (no-op for
    /// memory backends).
    fn flush(&mut self) -> io::Result<()>;
    /// A snapshot of the backend's counters.
    fn stats(&self) -> StoreStats;
}

/// Counters and shape of a block-body store, for observability, tests and
/// the `buffer_pool` bench. Memory backends report only `backend`,
/// `blocks` and `bytes_stored`; the paged backend fills everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Backend name: `"memory"` or `"paged"`.
    pub backend: &'static str,
    /// Stored block bodies.
    pub blocks: u64,
    /// Total serialized body bytes (memory backends estimate with the
    /// in-memory footprint proxy of 0 — they never serialize).
    pub bytes_stored: u64,
    /// Pages allocated in the backing file.
    pub pages: u64,
    /// Buffer-pool capacity in pages (0 for memory).
    pub pool_pages: usize,
    /// Page size in bytes (0 for memory).
    pub page_size: usize,
    /// Buffer-pool hits.
    pub hits: u64,
    /// Buffer-pool misses (file reads).
    pub misses: u64,
    /// Buffer-pool evictions.
    pub evictions: u64,
    /// Dirty pages written back to the file.
    pub write_backs: u64,
}

impl StoreStats {
    /// Hit fraction of all pins, in [0, 1]; 1.0 when nothing was pinned.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl Default for StoreStats {
    fn default() -> Self {
        StoreStats {
            backend: "memory",
            blocks: 0,
            bytes_stored: 0,
            pages: 0,
            pool_pages: 0,
            page_size: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            write_backs: 0,
        }
    }
}

/// Which [`Store`] backend a chain's block store uses, and how the paged
/// backend is shaped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreConfig {
    /// The in-memory map (default).
    #[default]
    Memory,
    /// Fixed-size pages in a scratch file behind a buffer pool.
    Paged {
        /// Buffer-pool capacity in pages (min 2).
        pool_pages: usize,
        /// Page size in bytes.
        page_size: usize,
        /// Replacement policy.
        policy: PolicyKind,
    },
}

impl StoreConfig {
    /// The paged backend with default page size and pool.
    // lint: api-ok(the paged backend's default shape, shared by the store suites)
    pub fn paged() -> Self {
        StoreConfig::Paged {
            pool_pages: DEFAULT_POOL_PAGES,
            page_size: DEFAULT_PAGE_SIZE,
            policy: PolicyKind::Lru,
        }
    }

    /// Read the process-wide backend selection from the environment:
    /// `AC3_STORE_BACKEND` (`memory`, the default, or `paged`),
    /// `AC3_STORE_POOL_PAGES`, `AC3_STORE_POLICY`. Unknown or malformed
    /// values fall back to the defaults — a simulation must not change
    /// behavior because of a typo, and results are backend-independent
    /// anyway.
    pub fn from_env() -> Self {
        match std::env::var("AC3_STORE_BACKEND").as_deref() {
            Ok("paged") => {
                let pool_pages = std::env::var("AC3_STORE_POOL_PAGES")
                    .ok()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(DEFAULT_POOL_PAGES)
                    .max(2);
                let policy = std::env::var("AC3_STORE_POLICY")
                    .ok()
                    .and_then(|v| PolicyKind::parse(&v))
                    .unwrap_or_default();
                StoreConfig::Paged { pool_pages, page_size: DEFAULT_PAGE_SIZE, policy }
            }
            _ => StoreConfig::Memory,
        }
    }

    /// Instantiate the backend.
    pub fn build(self) -> Box<dyn Store> {
        match self {
            StoreConfig::Memory => Box::new(MemoryStore::default()),
            StoreConfig::Paged { pool_pages, page_size, policy } => {
                Box::new(PagedStore::new(pool_pages, page_size, policy))
            }
        }
    }
}

/// The original in-memory body map: every block lives on the heap behind
/// an [`Arc`], so lookups are a map probe and an `Arc` clone. No IO, no
/// eviction, no counters.
#[derive(Debug, Default)]
pub struct MemoryStore {
    bodies: HashMap<BlockHash, Arc<Block>>,
}

impl Store for MemoryStore {
    fn insert_body(&mut self, hash: BlockHash, block: Block) -> io::Result<()> {
        self.bodies.entry(hash).or_insert_with(|| Arc::new(block));
        Ok(())
    }

    fn body(&self, hash: &BlockHash) -> Option<Arc<Block>> {
        self.bodies.get(hash).cloned()
    }

    fn contains_body(&self, hash: &BlockHash) -> bool {
        self.bodies.contains_key(hash)
    }

    fn body_count(&self) -> usize {
        self.bodies.len()
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        StoreStats { blocks: self.bodies.len() as u64, ..StoreStats::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_from_env_defaults_to_memory() {
        // The test environment does not set AC3_STORE_BACKEND globally for
        // unit tests; both unset and garbage must yield Memory.
        if std::env::var("AC3_STORE_BACKEND").is_err() {
            assert_eq!(StoreConfig::from_env(), StoreConfig::Memory);
        }
    }

    #[test]
    fn memory_store_is_an_arc_map() {
        let mut store = MemoryStore::default();
        let block = Block {
            header: crate::block::BlockHeader {
                chain: crate::types::ChainId(0),
                parent: BlockHash::GENESIS_PARENT,
                tx_root: Block::compute_tx_root(&[]),
                height: 0,
                timestamp: 0,
                target: ac3_crypto::Hash256::MAX,
                nonce: 0,
            },
            transactions: vec![],
        };
        let hash = block.hash();
        store.insert_body(hash, block.clone()).unwrap();
        let a = store.body(&hash).unwrap();
        let b = store.body(&hash).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "lookups share one allocation");
        assert_eq!(*a, block);
        assert_eq!(store.stats().backend, "memory");
        assert_eq!(store.stats().blocks, 1);
    }
}
