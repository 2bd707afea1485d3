//! The paged, file-backed block-body store.
//!
//! Block bodies are serialized (canonical JSON via the workspace serde) and
//! appended into fixed-size pages managed by a [`BufferPool`]; an in-memory
//! directory maps each block hash to its `(first page, offset, length)`
//! slot. Small blocks pack into the shared append tail page; a body larger
//! than one page spans a dedicated run of consecutive pages ("jumbo"),
//! read back chunk by chunk with only one page pinned at a time — so any
//! pool of ≥ 2 frames can serve any block.
//!
//! Reads deserialize the stored bytes on every call: the pool caches
//! *pages*, not decoded blocks, exactly like a database buffer manager.
//! A hit therefore costs a deserialization; a miss additionally costs the
//! file read (and possibly a dirty write-back). Both are visible in
//! [`StoreStats`] and swept by the `buffer_pool` experiment of `ac3-bench`.
//!
//! Determinism: serialization round-trips bit-exactly (asserted in tests
//! and by the cross-backend differential suite), and eviction only decides
//! *where* bytes are read from, never what they contain — so every
//! simulation result is identical to the in-memory backend at any pool
//! size and replacement policy.

use super::pool::BufferPool;
use super::replacement::PolicyKind;
use super::{Store, StoreStats};
use crate::block::Block;
use crate::types::BlockHash;
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};

/// Where a serialized block body lives in the page file.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// First (or only) page of the body.
    first_page: u64,
    /// Byte offset within the first page (0 for jumbo bodies).
    offset: u32,
    /// Serialized length in bytes.
    len: u32,
}

#[derive(Debug)]
struct Inner {
    pool: BufferPool,
    directory: HashMap<BlockHash, Slot>,
    /// The shared append target for bodies that fit in one page:
    /// `(page, bytes used)`. `None` until the first small body arrives.
    tail: Option<(u64, usize)>,
    /// Total serialized bytes stored (the "chain size" the pool is
    /// measured against).
    bytes_stored: u64,
}

/// A block-body store spilling serialized blocks to fixed-size pages in a
/// scratch file behind a [`BufferPool`]. See the module docs.
#[derive(Debug)]
pub struct PagedStore {
    inner: Mutex<Inner>,
}

impl PagedStore {
    /// A paged store with `pool_pages` buffer frames of `page_size` bytes
    /// and the given replacement policy.
    ///
    /// # Panics
    /// If the scratch file cannot be created — storage is load-bearing;
    /// there is nothing sensible to degrade to.
    pub fn new(pool_pages: usize, page_size: usize, policy: PolicyKind) -> Self {
        let pool = BufferPool::new(pool_pages, page_size, policy)
            .expect("paged block store: cannot create scratch file");
        PagedStore {
            inner: Mutex::new(Inner {
                pool,
                directory: HashMap::new(),
                tail: None,
                bytes_stored: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("paged store lock poisoned")
    }
}

impl Inner {
    /// Copy `bytes` into pages, returning the slot. Single-page bodies
    /// append to the shared tail; larger ones get a dedicated page run.
    fn write_body(&mut self, bytes: &[u8]) -> io::Result<Slot> {
        let page_size = self.pool.page_size();
        if bytes.len() <= page_size {
            let (page, offset) = match self.tail {
                Some((page, used)) if used + bytes.len() <= page_size => (page, used),
                _ => (self.pool.allocate(), 0),
            };
            let frame = self.pool.pin(page)?;
            self.pool.frame_mut(frame)[offset..offset + bytes.len()].copy_from_slice(bytes);
            self.pool.unpin(frame, true);
            self.tail = Some((page, offset + bytes.len()));
            return Ok(Slot { first_page: page, offset: offset as u32, len: bytes.len() as u32 });
        }
        // Jumbo body: a dedicated run of consecutive pages, one pinned at
        // a time. The shared tail is left as-is for the next small body.
        let first_page = self.pool.allocate();
        for (i, chunk) in bytes.chunks(page_size).enumerate() {
            let page = if i == 0 { first_page } else { self.pool.allocate() };
            debug_assert_eq!(page, first_page + i as u64, "jumbo pages are consecutive");
            let frame = self.pool.pin(page)?;
            self.pool.frame_mut(frame)[..chunk.len()].copy_from_slice(chunk);
            self.pool.unpin(frame, true);
        }
        Ok(Slot { first_page, offset: 0, len: bytes.len() as u32 })
    }

    /// Read a slot's bytes back out of the pool.
    fn read_body(&mut self, slot: Slot) -> io::Result<Vec<u8>> {
        let page_size = self.pool.page_size();
        let len = slot.len as usize;
        let mut bytes = Vec::with_capacity(len);
        if slot.offset as usize + len <= page_size {
            let frame = self.pool.pin(slot.first_page)?;
            bytes.extend_from_slice(
                &self.pool.frame(frame)[slot.offset as usize..slot.offset as usize + len],
            );
            self.pool.unpin(frame, false);
        } else {
            let pages = len.div_ceil(page_size) as u64;
            for i in 0..pages {
                let take = (len - bytes.len()).min(page_size);
                let frame = self.pool.pin(slot.first_page + i)?;
                bytes.extend_from_slice(&self.pool.frame(frame)[..take]);
                self.pool.unpin(frame, false);
            }
        }
        Ok(bytes)
    }
}

impl Store for PagedStore {
    fn insert_body(&mut self, hash: BlockHash, block: Block) -> io::Result<()> {
        let bytes = serde_json::to_vec(&block)
            .map_err(|e| io::Error::other(format!("block serialization failed: {e}")))?;
        let mut inner = self.lock();
        if inner.directory.contains_key(&hash) {
            return Ok(()); // idempotent: bodies are immutable
        }
        let slot = inner.write_body(&bytes)?;
        inner.bytes_stored += bytes.len() as u64;
        inner.directory.insert(hash, slot);
        Ok(())
    }

    fn body(&self, hash: &BlockHash) -> Option<Arc<Block>> {
        let mut inner = self.lock();
        let slot = *inner.directory.get(hash)?;
        // IO failures here are unrecoverable scratch-file corruption;
        // returning None would silently report a stored block as missing
        // and corrupt the simulation, so fail loudly instead.
        let bytes = inner.read_body(slot).expect("paged block store: page read failed");
        drop(inner); // deserialization needs no pool state
        let block: Block =
            serde_json::from_slice(&bytes).expect("paged block store: stored body undecodable");
        debug_assert_eq!(block.hash(), *hash, "stored body hashes to its directory key");
        Some(Arc::new(block))
    }

    fn contains_body(&self, hash: &BlockHash) -> bool {
        self.lock().directory.contains_key(hash)
    }

    fn body_count(&self) -> usize {
        self.lock().directory.len()
    }

    fn flush(&mut self) -> io::Result<()> {
        self.lock().pool.flush()
    }

    fn stats(&self) -> StoreStats {
        let inner = self.lock();
        let pool = inner.pool.stats();
        StoreStats {
            backend: "paged",
            blocks: inner.directory.len() as u64,
            bytes_stored: inner.bytes_stored,
            pages: inner.pool.allocated_pages(),
            pool_pages: inner.pool.capacity(),
            page_size: inner.pool.page_size(),
            hits: pool.hits,
            misses: pool.misses,
            evictions: pool.evictions,
            write_backs: pool.write_backs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockHeader;
    use crate::transaction::coinbase;
    use crate::types::{Address, ChainId};
    use ac3_crypto::{Hash256, KeyPair};

    fn block_with_txs(height: u64, txs: usize) -> Block {
        let miner = Address::from(KeyPair::from_seed(b"paged-miner").public());
        let transactions: Vec<_> =
            (0..txs as u64).map(|i| coinbase(miner, 50 + i, height * 1_000 + i)).collect();
        let header = BlockHeader {
            chain: ChainId(0),
            parent: BlockHash(Hash256::digest(&height.to_be_bytes())),
            tx_root: Block::compute_tx_root(&transactions),
            height,
            timestamp: height,
            target: Hash256::MAX,
            nonce: height,
        };
        Block { header, transactions }
    }

    #[test]
    fn bodies_round_trip_bit_exactly() {
        let mut store = PagedStore::new(4, 4096, PolicyKind::Lru);
        let block = block_with_txs(1, 3);
        let hash = block.hash();
        store.insert_body(hash, block.clone()).unwrap();
        let back = store.body(&hash).expect("stored");
        assert_eq!(*back, block);
        assert_eq!(back.hash(), hash);
    }

    #[test]
    fn eviction_pressure_loses_no_blocks() {
        // 4 frames × 512 bytes ≈ 2 KiB of pool; store far more than that.
        let mut store = PagedStore::new(4, 512, PolicyKind::Clock);
        let blocks: Vec<Block> = (0..64).map(|h| block_with_txs(h, 2)).collect();
        for b in &blocks {
            store.insert_body(b.hash(), b.clone()).unwrap();
        }
        let stats = store.stats();
        assert!(stats.evictions > 0, "pool must have spilled: {stats:?}");
        assert!(stats.bytes_stored > 4 * 512, "chain larger than the pool");
        for b in &blocks {
            assert_eq!(*store.body(&b.hash()).expect("resident or spilled"), *b);
        }
    }

    #[test]
    fn jumbo_bodies_span_pages() {
        // A block whose serialization dwarfs the 512-byte page.
        let mut store = PagedStore::new(4, 512, PolicyKind::Sieve);
        let jumbo = block_with_txs(7, 40);
        let small = block_with_txs(8, 1);
        store.insert_body(jumbo.hash(), jumbo.clone()).unwrap();
        store.insert_body(small.hash(), small.clone()).unwrap();
        let stats = store.stats();
        assert!(stats.pages > 3, "jumbo body must occupy a page run: {stats:?}");
        assert_eq!(*store.body(&jumbo.hash()).unwrap(), jumbo);
        assert_eq!(*store.body(&small.hash()).unwrap(), small);
    }

    #[test]
    fn reinsert_is_idempotent() {
        let mut store = PagedStore::new(4, 4096, PolicyKind::Lru);
        let block = block_with_txs(3, 2);
        store.insert_body(block.hash(), block.clone()).unwrap();
        let bytes = store.stats().bytes_stored;
        store.insert_body(block.hash(), block.clone()).unwrap();
        assert_eq!(store.stats().bytes_stored, bytes, "no duplicate slot");
        assert_eq!(store.body_count(), 1);
    }

    #[test]
    fn hit_and_miss_counters_move() {
        // One body fits one page, and 8 bodies overflow the 2-frame pool.
        let mut store = PagedStore::new(2, 1024, PolicyKind::Lru);
        let blocks: Vec<Block> = (0..8).map(|h| block_with_txs(h, 1)).collect();
        for b in &blocks {
            store.insert_body(b.hash(), b.clone()).unwrap();
        }
        let before = store.stats();
        // Re-reading the oldest block must miss (its pages were evicted).
        store.body(&blocks[0].hash()).unwrap();
        let after = store.stats();
        assert!(after.misses > before.misses, "evicted read must miss: {after:?}");
        // Reading it again immediately must hit without further misses.
        store.body(&blocks[0].hash()).unwrap();
        let again = store.stats();
        assert!(again.hits > after.hits, "resident read must hit: {again:?}");
        assert_eq!(again.misses, after.misses);
    }
}
