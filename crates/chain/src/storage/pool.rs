//! A buffer pool of fixed-size pages over a scratch file.
//!
//! The pool owns the backing [`File`] and a bounded set of in-memory
//! frames. Callers address *pages* (fixed-size byte ranges of the file,
//! page `p` at byte offset `p × page_size`) and interact through classic
//! pin/unpin semantics:
//!
//! 1. [`BufferPool::pin`] makes the page resident (a hit if it already
//!    is; otherwise a miss that may evict an unpinned victim, writing it
//!    back first if dirty) and protects it from eviction;
//! 2. the caller reads or writes the frame bytes via
//!    [`BufferPool::frame`] / [`BufferPool::frame_mut`];
//! 3. [`BufferPool::unpin`] releases the frame, marking it dirty if it
//!    was written. Dirty frames reach the file on eviction or
//!    [`BufferPool::flush`], never synchronously on write.
//!
//! Which victim an eviction picks is delegated to the configured
//! [`ReplacementPolicy`](super::replacement::ReplacementPolicy). Hit, miss,
//! eviction and write-back counts are tracked for
//! [`crate::storage::StoreStats`].
//!
//! The file is a spill area, not a database: it is created in the
//! system temp directory and deleted eagerly (unlinked at creation on
//! Unix, removed on drop elsewhere), so a crashed process leaks nothing.

use super::replacement::{PolicyKind, ReplacementPolicy};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes scratch files of concurrent stores within one process.
static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Raw hit/miss/eviction counters of one buffer pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pins satisfied from a resident frame.
    pub hits: u64,
    /// Pins that had to read the page from the file (or zero-fill a fresh
    /// page).
    pub misses: u64,
    /// Resident pages pushed out to make room.
    pub evictions: u64,
    /// Dirty pages written back to the file (on eviction or flush).
    pub write_backs: u64,
}

/// One resident page.
#[derive(Debug)]
struct Frame {
    page: u64,
    data: Vec<u8>,
    dirty: bool,
    pins: u32,
}

/// A bounded cache of file pages with pluggable replacement. See the
/// module docs for the pin/unpin protocol.
#[derive(Debug)]
pub struct BufferPool {
    file: File,
    /// Path of the scratch file, kept only where eager unlinking is
    /// unavailable so `Drop` can remove it.
    scratch_path: Option<PathBuf>,
    page_size: usize,
    capacity: usize,
    frames: Vec<Frame>,
    /// page id → frame index, for resident pages.
    resident: std::collections::HashMap<u64, usize>,
    policy: Box<dyn ReplacementPolicy>,
    /// Number of pages allocated so far (file-logical, not resident).
    allocated: u64,
    stats: PoolStats,
}

impl BufferPool {
    /// A pool of `capacity` frames of `page_size` bytes over a fresh
    /// scratch file, using `policy` for eviction.
    pub fn new(capacity: usize, page_size: usize, policy: PolicyKind) -> io::Result<Self> {
        assert!(capacity >= 2, "a buffer pool needs at least 2 frames");
        assert!(page_size >= 64, "pages below 64 bytes are degenerate");
        let path = std::env::temp_dir().join(format!(
            "ac3-block-store-{}-{}.pages",
            std::process::id(),
            SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let file = OpenOptions::new().read(true).write(true).create_new(true).open(&path)?;
        // On Unix an open file survives unlinking, so the scratch space
        // cannot leak even if the process is killed. Elsewhere, Drop
        // removes it.
        let scratch_path = if cfg!(unix) {
            let _ = std::fs::remove_file(&path);
            None
        } else {
            Some(path)
        };
        Ok(BufferPool {
            file,
            scratch_path,
            page_size,
            capacity,
            frames: Vec::with_capacity(capacity),
            resident: std::collections::HashMap::new(),
            policy: policy.build(capacity),
            allocated: 0,
            stats: PoolStats::default(),
        })
    }

    /// The page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages allocated so far (resident or spilled).
    pub fn allocated_pages(&self) -> u64 {
        self.allocated
    }

    /// Counters snapshot.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Allocate a fresh page id. The page materializes in the file only
    /// when its frame is first written back.
    pub fn allocate(&mut self) -> u64 {
        let page = self.allocated;
        self.allocated += 1;
        page
    }

    /// Make `page` resident and pin it, returning its frame index.
    ///
    /// Errors only on real file IO failures (or when every frame is
    /// pinned, which the store's access discipline — at most one page
    /// pinned at a time — rules out for any pool of ≥ 2 frames).
    pub fn pin(&mut self, page: u64) -> io::Result<usize> {
        assert!(page < self.allocated, "pin of unallocated page {page}");
        if let Some(&idx) = self.resident.get(&page) {
            self.stats.hits += 1;
            self.frames[idx].pins += 1;
            self.policy.on_access(idx);
            return Ok(idx);
        }
        self.stats.misses += 1;
        let idx = if self.frames.len() < self.capacity {
            // Free frame available: no eviction needed.
            self.frames.push(Frame { page, data: vec![0; self.page_size], dirty: false, pins: 0 });
            self.frames.len() - 1
        } else {
            let pinned: Vec<bool> = self.frames.iter().map(|f| f.pins > 0).collect();
            let victim = self
                .policy
                .evict(&pinned)
                .ok_or_else(|| io::Error::other("buffer pool exhausted: all frames pinned"))?;
            self.evict_frame(victim)?;
            victim
        };
        self.read_page(page, idx)?;
        self.frames[idx].page = page;
        self.frames[idx].dirty = false;
        self.frames[idx].pins = 1;
        self.resident.insert(page, idx);
        self.policy.on_admit(idx);
        Ok(idx)
    }

    /// Release one pin on `frame`; `dirty` records whether the caller
    /// wrote to it. A write is a reference: a dirty unpin reports an
    /// access to the replacement policy, so a page just written ranks as
    /// recently used (SIEVE sets its visited bit) rather than as a
    /// one-shot admission (DESIGN.md §11).
    pub fn unpin(&mut self, frame: usize, dirty: bool) {
        let f = &mut self.frames[frame];
        assert!(f.pins > 0, "unpin of unpinned frame {frame}");
        f.pins -= 1;
        f.dirty |= dirty;
        if dirty {
            self.policy.on_access(frame);
        }
    }

    /// The bytes of a pinned frame.
    pub fn frame(&self, frame: usize) -> &[u8] {
        debug_assert!(self.frames[frame].pins > 0, "frame access without pin");
        &self.frames[frame].data
    }

    /// The bytes of a pinned frame, writable. The caller must pass
    /// `dirty = true` to the matching [`BufferPool::unpin`].
    pub fn frame_mut(&mut self, frame: usize) -> &mut [u8] {
        debug_assert!(self.frames[frame].pins > 0, "frame access without pin");
        &mut self.frames[frame].data
    }

    /// Write every dirty frame back to the file.
    pub fn flush(&mut self) -> io::Result<()> {
        for idx in 0..self.frames.len() {
            if self.frames[idx].dirty {
                self.write_back(idx)?;
            }
        }
        Ok(())
    }

    /// Push the (unpinned) occupant of `frame` out, writing it back first
    /// if dirty.
    fn evict_frame(&mut self, frame: usize) -> io::Result<()> {
        debug_assert_eq!(self.frames[frame].pins, 0, "evicting a pinned frame");
        if self.frames[frame].dirty {
            self.write_back(frame)?;
        }
        self.resident.remove(&self.frames[frame].page);
        self.stats.evictions += 1;
        Ok(())
    }

    fn write_back(&mut self, frame: usize) -> io::Result<()> {
        let offset = self.frames[frame].page * self.page_size as u64;
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(&self.frames[frame].data)?;
        self.frames[frame].dirty = false;
        self.stats.write_backs += 1;
        Ok(())
    }

    /// Fill `frame` with the file contents of `page`. Short reads
    /// zero-fill: a page allocated but never written back has no bytes in
    /// the file yet, and its content is by definition all-zero scratch.
    fn read_page(&mut self, page: u64, frame: usize) -> io::Result<()> {
        let offset = page * self.page_size as u64;
        self.file.seek(SeekFrom::Start(offset))?;
        let data = &mut self.frames[frame].data;
        data.fill(0);
        let mut filled = 0;
        while filled < data.len() {
            match self.file.read(&mut data[filled..]) {
                Ok(0) => break, // EOF: rest stays zero
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        if let Some(path) = self.scratch_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(frames, 128, PolicyKind::Lru).expect("scratch file")
    }

    fn write_page(pool: &mut BufferPool, page: u64, byte: u8) {
        let idx = pool.pin(page).unwrap();
        pool.frame_mut(idx).fill(byte);
        pool.unpin(idx, true);
    }

    fn read_first_byte(pool: &mut BufferPool, page: u64) -> u8 {
        let idx = pool.pin(page).unwrap();
        let b = pool.frame(idx)[0];
        pool.unpin(idx, false);
        b
    }

    #[test]
    fn pages_survive_eviction_round_trips() {
        let mut pool = pool(2);
        for p in 0..6 {
            let page = pool.allocate();
            write_page(&mut pool, page, p as u8 + 1);
        }
        // Only 2 of 6 pages are resident; the rest were written back.
        assert!(pool.stats().evictions >= 4);
        assert!(pool.stats().write_backs >= 4);
        for p in 0..6u64 {
            assert_eq!(read_first_byte(&mut pool, p), p as u8 + 1, "page {p}");
        }
    }

    #[test]
    fn hits_do_not_touch_the_file() {
        let mut pool = pool(4);
        let page = pool.allocate();
        write_page(&mut pool, page, 7);
        let before = pool.stats();
        for _ in 0..10 {
            assert_eq!(read_first_byte(&mut pool, page), 7);
        }
        let after = pool.stats();
        assert_eq!(after.hits, before.hits + 10);
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.write_backs, before.write_backs);
    }

    #[test]
    fn pinned_pages_are_never_evicted() {
        let mut pool = pool(2);
        let hot = pool.allocate();
        let idx = pool.pin(hot).unwrap();
        pool.frame_mut(idx).fill(9);
        // Churn through other pages; the pinned frame must survive.
        for _ in 0..5 {
            let p = pool.allocate();
            write_page(&mut pool, p, 1);
        }
        assert_eq!(pool.frame(idx)[0], 9);
        pool.unpin(idx, true);
        assert_eq!(read_first_byte(&mut pool, hot), 9);
    }

    #[test]
    fn all_frames_pinned_errors() {
        let mut pool = pool(2);
        let a = pool.allocate();
        let b = pool.allocate();
        let c = pool.allocate();
        let _ia = pool.pin(a).unwrap();
        let _ib = pool.pin(b).unwrap();
        assert!(pool.pin(c).is_err());
    }

    #[test]
    fn a_written_page_outlives_an_unvisited_one_under_sieve() {
        let mut pool = BufferPool::new(2, 128, PolicyKind::Sieve).expect("scratch file");
        let written = pool.allocate();
        let read = pool.allocate();
        write_page(&mut pool, written, 5);
        read_first_byte(&mut pool, read);
        // SIEVE's hand starts at the tail, the older `written` page. The
        // write counted as a reference, so the hand spares it and takes
        // the newer page that was only admitted.
        let third = pool.allocate();
        write_page(&mut pool, third, 6);
        let before = pool.stats();
        assert_eq!(read_first_byte(&mut pool, written), 5);
        assert_eq!(pool.stats().hits, before.hits + 1, "the written page stayed resident");
        read_first_byte(&mut pool, read);
        assert_eq!(pool.stats().misses, before.misses + 1, "the unvisited page was evicted");
    }

    #[test]
    fn flush_writes_all_dirty_frames() {
        let mut pool = pool(4);
        for p in 0..3 {
            let page = pool.allocate();
            write_page(&mut pool, page, p as u8 + 1);
        }
        assert_eq!(pool.stats().write_backs, 0, "write-back is lazy");
        pool.flush().unwrap();
        assert_eq!(pool.stats().write_backs, 3);
        pool.flush().unwrap();
        assert_eq!(pool.stats().write_backs, 3, "clean frames are not rewritten");
    }
}
