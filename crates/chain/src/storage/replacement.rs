//! Pluggable buffer-pool replacement policies.
//!
//! A [`ReplacementPolicy`] decides which resident frame a
//! [`crate::storage::BufferPool`] evicts when it needs room for a page that
//! is not resident. Three classic policies are provided:
//!
//! * [`LruPolicy`] — evict the least-recently-used frame (exact, via a
//!   monotonic access stamp per frame);
//! * [`ClockPolicy`] — the second-chance approximation of LRU: a hand
//!   sweeps the frames, clearing reference bits, and evicts the first frame
//!   found with its bit already clear;
//! * [`SievePolicy`] — SIEVE (NSDI '24): a FIFO queue with lazy promotion.
//!   Hits only set a visited bit; the eviction hand walks from the queue
//!   tail towards the head, clearing visited bits, and evicts the first
//!   unvisited frame. The hand does **not** reset after an eviction, which
//!   is what makes SIEVE scan-resistant at FIFO cost.
//!
//! All three are deterministic: given the same sequence of
//! `on_admit`/`on_access` calls and the same pin states they evict the same
//! frames. This matters for the committed hit-rate baselines
//! (`BENCH_buffer_pool.json`) — but note that *simulation results* never
//! depend on the policy at all: eviction only changes which page reads hit
//! the file, never the bytes a read returns.

use std::fmt;

/// Chooses eviction victims for a buffer pool of a fixed number of frames.
///
/// The pool calls [`ReplacementPolicy::on_admit`] when a page is loaded
/// into a frame, [`ReplacementPolicy::on_access`] on every hit, and
/// [`ReplacementPolicy::evict`] when it needs a victim. Pinned frames
/// (`pinned[frame] == true`) must never be chosen.
pub trait ReplacementPolicy: fmt::Debug + Send + Sync {
    /// A page was loaded into `frame` (after any previous occupant was
    /// evicted, i.e. the frame is "new" to the policy).
    fn on_admit(&mut self, frame: usize);
    /// The page in `frame` was accessed while resident (a hit).
    fn on_access(&mut self, frame: usize);
    /// Choose an unpinned victim frame and forget it, or `None` if every
    /// frame is pinned.
    fn evict(&mut self, pinned: &[bool]) -> Option<usize>;
}

/// Which replacement policy a paged store's buffer pool uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// Exact least-recently-used.
    #[default]
    Lru,
    /// Clock (second chance).
    Clock,
    /// SIEVE (FIFO with lazy promotion).
    Sieve,
}

impl PolicyKind {
    /// Instantiate the policy for a pool of `frames` frames.
    pub fn build(self, frames: usize) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Lru => Box::new(LruPolicy::new(frames)),
            PolicyKind::Clock => Box::new(ClockPolicy::new(frames)),
            PolicyKind::Sieve => Box::new(SievePolicy::new(frames)),
        }
    }

    /// The policy's lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Clock => "clock",
            PolicyKind::Sieve => "sieve",
        }
    }

    /// Parse a lowercase policy name (as accepted by `AC3_STORE_POLICY`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lru" => Some(PolicyKind::Lru),
            "clock" => Some(PolicyKind::Clock),
            "sieve" => Some(PolicyKind::Sieve),
            _ => None,
        }
    }

    /// All policies, for benchmark sweeps.
    pub fn all() -> [PolicyKind; 3] {
        [PolicyKind::Lru, PolicyKind::Clock, PolicyKind::Sieve]
    }
}

/// Exact LRU: each frame carries the monotonic stamp of its last access;
/// the eviction victim is the unpinned frame with the smallest stamp.
/// Eviction is O(frames) — pools are small (tens to hundreds of frames),
/// so an ordered structure would cost more than it saves.
#[derive(Debug)]
pub struct LruPolicy {
    clock: u64,
    last_used: Vec<u64>,
}

impl LruPolicy {
    /// A policy for `frames` frames.
    pub fn new(frames: usize) -> Self {
        LruPolicy { clock: 0, last_used: vec![0; frames] }
    }

    fn touch(&mut self, frame: usize) {
        self.clock += 1;
        self.last_used[frame] = self.clock;
    }
}

impl ReplacementPolicy for LruPolicy {
    fn on_admit(&mut self, frame: usize) {
        self.touch(frame);
    }

    fn on_access(&mut self, frame: usize) {
        self.touch(frame);
    }

    fn evict(&mut self, pinned: &[bool]) -> Option<usize> {
        self.last_used
            .iter()
            .enumerate()
            .filter(|(f, _)| !pinned[*f])
            .min_by_key(|(_, stamp)| **stamp)
            .map(|(f, _)| f)
    }
}

/// Clock (second chance): a reference bit per frame and a sweeping hand.
/// A hit sets the bit; the hand clears set bits as it passes and evicts
/// the first unpinned frame whose bit is already clear.
#[derive(Debug)]
pub struct ClockPolicy {
    referenced: Vec<bool>,
    hand: usize,
}

impl ClockPolicy {
    /// A policy for `frames` frames.
    pub fn new(frames: usize) -> Self {
        ClockPolicy { referenced: vec![false; frames], hand: 0 }
    }
}

impl ReplacementPolicy for ClockPolicy {
    fn on_admit(&mut self, frame: usize) {
        self.referenced[frame] = true;
    }

    fn on_access(&mut self, frame: usize) {
        self.referenced[frame] = true;
    }

    fn evict(&mut self, pinned: &[bool]) -> Option<usize> {
        let n = self.referenced.len();
        if (0..n).all(|f| pinned[f]) {
            return None;
        }
        // At most two sweeps: the first clears reference bits, the second
        // must then find a clear unpinned frame (one exists).
        for _ in 0..2 * n {
            let f = self.hand;
            self.hand = (self.hand + 1) % n;
            if pinned[f] {
                continue;
            }
            if self.referenced[f] {
                self.referenced[f] = false;
            } else {
                return Some(f);
            }
        }
        unreachable!("an unpinned frame exists, so two sweeps find a victim")
    }
}

/// SIEVE: frames live in a FIFO queue (newest at the head). A hit sets a
/// visited bit without moving the frame. The eviction hand starts at the
/// tail and walks towards the head, clearing visited bits; the first
/// unvisited, unpinned frame is evicted and the hand stays where it was —
/// it does not reset — so one-shot scans are drained from the tail while
/// repeatedly-hit frames survive near the head.
#[derive(Debug)]
pub struct SievePolicy {
    /// Queue of frames, index 0 = head (newest admission).
    queue: Vec<usize>,
    visited: Vec<bool>,
    /// Queue *position* the hand examines next, or `None` for "tail".
    hand: Option<usize>,
}

impl SievePolicy {
    /// A policy for `frames` frames.
    pub fn new(frames: usize) -> Self {
        SievePolicy { queue: Vec::with_capacity(frames), visited: vec![false; frames], hand: None }
    }
}

impl ReplacementPolicy for SievePolicy {
    fn on_admit(&mut self, frame: usize) {
        // The pool only re-admits a frame after evicting it, so it is not
        // in the queue. New objects enter at the head, unvisited.
        debug_assert!(!self.queue.contains(&frame));
        self.queue.insert(0, frame);
        self.visited[frame] = false;
        // Head insertion shifts every queue position up by one.
        if let Some(pos) = self.hand.as_mut() {
            *pos += 1;
        }
    }

    fn on_access(&mut self, frame: usize) {
        self.visited[frame] = true;
    }

    fn evict(&mut self, pinned: &[bool]) -> Option<usize> {
        if self.queue.iter().all(|f| pinned[*f]) {
            return None;
        }
        let mut pos = match self.hand {
            Some(p) if p < self.queue.len() => p,
            _ => self.queue.len() - 1,
        };
        // Two passes over the queue suffice: the first clears visited
        // bits, the second must find an unvisited unpinned frame.
        for _ in 0..2 * self.queue.len() {
            let frame = self.queue[pos];
            if pinned[frame] {
                // Skip without clearing: a pinned page keeps its history.
            } else if self.visited[frame] {
                self.visited[frame] = false;
            } else {
                self.queue.remove(pos);
                self.hand = if pos == 0 { None } else { Some(pos - 1) };
                return Some(frame);
            }
            pos = if pos == 0 { self.queue.len() - 1 } else { pos - 1 };
        }
        unreachable!("an unpinned frame exists, so two passes find a victim")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_pins(n: usize) -> Vec<bool> {
        vec![false; n]
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = LruPolicy::new(3);
        for f in 0..3 {
            lru.on_admit(f);
        }
        lru.on_access(0); // order now 1 < 2 < 0
        assert_eq!(lru.evict(&no_pins(3)), Some(1));
        lru.on_admit(1);
        lru.on_access(2);
        assert_eq!(lru.evict(&no_pins(3)), Some(0));
    }

    #[test]
    fn lru_skips_pinned_frames() {
        let mut lru = LruPolicy::new(2);
        lru.on_admit(0);
        lru.on_admit(1);
        assert_eq!(lru.evict(&[true, false]), Some(1));
        assert_eq!(lru.evict(&[true, true]), None);
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut clock = ClockPolicy::new(3);
        for f in 0..3 {
            clock.on_admit(f);
        }
        // All referenced: the first sweep clears 0,1,2 then evicts 0.
        assert_eq!(clock.evict(&no_pins(3)), Some(0));
        clock.on_admit(0);
        clock.on_access(1); // re-reference 1
                            // Hand is at 1: clears 1, evicts 2.
        assert_eq!(clock.evict(&no_pins(3)), Some(2));
    }

    #[test]
    fn clock_all_pinned_returns_none() {
        let mut clock = ClockPolicy::new(2);
        clock.on_admit(0);
        clock.on_admit(1);
        assert_eq!(clock.evict(&[true, true]), None);
    }

    #[test]
    fn sieve_evicts_unvisited_from_the_tail() {
        let mut sieve = SievePolicy::new(3);
        for f in 0..3 {
            sieve.on_admit(f); // queue head→tail: 2, 1, 0
        }
        sieve.on_access(0); // tail is visited
                            // Hand starts at the tail: clears 0's bit, then evicts 1.
        assert_eq!(sieve.evict(&no_pins(3)), Some(1));
        // The hand does not reset: it continues towards the head and takes
        // the unvisited 2; the once-visited 0 outlives it.
        assert_eq!(sieve.evict(&no_pins(3)), Some(2));
        assert_eq!(sieve.evict(&no_pins(3)), Some(0));
    }

    #[test]
    fn sieve_hand_survives_admissions() {
        let mut sieve = SievePolicy::new(4);
        for f in 0..4 {
            sieve.on_admit(f);
        }
        sieve.on_access(0);
        assert_eq!(sieve.evict(&no_pins(4)), Some(1));
        sieve.on_admit(1); // new head; the hand position must shift with it
                           // The hand still points between the old frames — it picks up at
                           // frame 2, not at the re-admitted head and not back at the tail
                           // (where the cleared 0 now sits unvisited).
        assert_eq!(sieve.evict(&no_pins(4)), Some(2));
        assert_eq!(sieve.evict(&no_pins(4)), Some(3));
    }

    #[test]
    fn sieve_all_pinned_returns_none() {
        let mut sieve = SievePolicy::new(2);
        sieve.on_admit(0);
        sieve.on_admit(1);
        assert_eq!(sieve.evict(&[true, true]), None);
    }

    #[test]
    fn policy_kind_parses_names() {
        for kind in PolicyKind::all() {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("mru"), None);
    }
}
