//! Seeded randomness for the whole workspace, and the property harness
//! every randomized test runs under.
//!
//! [`Seeded`] is the one pseudo-random generator: SplitMix64, tiny and fully
//! determined by its `u64` seed. The simulator's network links and the
//! Byzantine campaign plans draw from it, so a run is reproducible from its
//! seeds alone. It is not cryptographic.
//!
//! [`check`] runs a property over a number of cases drawn from one named
//! stream, recording every draw a case makes. When a case panics, the
//! recorded draws are shrunk and the property re-run on each candidate:
//! delete spans of draws, zero them, halve them, keeping any candidate that
//! still fails. This is Hypothesis's choice-sequence reduction (MacIver &
//! Donaldson, "Test-Case Reduction via Test-Case Generation", ECOOP 2020):
//! a property is its own generator, so no type needs a shrinker of its own.

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};

/// The SplitMix64 increment (2^64 / φ).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Re-runs a failing property may spend on shrinking its draws.
const SHRINK_RUNS: usize = 256;

/// A SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Seeded(u64);

impl Seeded {
    /// A generator whose state starts at `seed`.
    pub const fn new(seed: u64) -> Self {
        Seeded(seed)
    }

    /// A generator seeded from a string (a test's name), by an FNV-style
    /// fold of its bytes.
    pub fn from_name(name: &str) -> Self {
        Seeded(
            name.bytes()
                .fold(GAMMA, |s, b| s.wrapping_mul(0x100_0000_01b3).wrapping_add(u64::from(b))),
        )
    }

    /// The next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `[0, bound)`; 0, without a draw, when `bound` is 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// What a [`check`] property draws from: the property's named stream while
/// cases run, or a recorded draw sequence while a failure shrinks. Every
/// value handed out is recorded.
#[derive(Debug)]
pub struct Gen {
    live: Seeded,
    /// The draws being replayed; past their end every draw is 0.
    replay: Option<std::vec::IntoIter<u64>>,
    drawn: Vec<u64>,
    case: usize,
}

impl Gen {
    fn draw(&mut self, reduce: impl FnOnce(u64) -> u64) -> u64 {
        let raw = match &mut self.replay {
            Some(choices) => choices.next().unwrap_or(0),
            None => self.live.next_u64(),
        };
        let value = reduce(raw);
        self.drawn.push(value);
        value
    }

    /// The next 64 bits, as [`Seeded::next_u64`].
    pub fn next_u64(&mut self) -> u64 {
        self.draw(|raw| raw)
    }

    /// A value in `[0, bound)`, as [`Seeded::below`]. The value itself is
    /// recorded, so shrinking it shrinks what the property sees.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.draw(|raw| raw % bound)
        }
    }

    /// The index of the case being run (or shrunk).
    // lint: api-ok(properties whose cases cycle through fixed settings read it)
    pub fn case(&self) -> usize {
        self.case
    }
}

/// Run `property` on `cases` cases drawn in turn from the stream
/// [`Seeded::from_name`]`(name)`. If a case panics, shrink its draws and
/// panic with the property's name, the case, the shrunk draws, and the
/// messages of the shrunk and the original failure.
// lint: api-ok(the property harness; its callers are test suites)
pub fn check(name: &str, cases: usize, mut property: impl FnMut(&mut Gen)) {
    let mut g = Gen { live: Seeded::from_name(name), replay: None, drawn: Vec::new(), case: 0 };
    for case in 0..cases {
        g.case = case;
        g.drawn.clear();
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
            let original = message(panic);
            let mut shrinker = Shrinker {
                case,
                best: trimmed(std::mem::take(&mut g.drawn)),
                failure: original.clone(),
                runs: 0,
                property: &mut property,
            };
            shrinker.shrink();
            panic!(
                "property `{name}` failed at case {case}\n  shrunk draws: {:?}\n  \
                 shrunk failure: {}\n  original failure: {original}",
                shrinker.best, shrinker.failure
            );
        }
    }
}

/// A draw sequence without its trailing zeros, which a replay past the end
/// reads anyway.
fn trimmed(mut draws: Vec<u64>) -> Vec<u64> {
    while draws.last() == Some(&0) {
        draws.pop();
    }
    draws
}

fn message(panic: Box<dyn std::any::Any + Send>) -> String {
    match panic.downcast::<String>() {
        Ok(text) => *text,
        Err(panic) => panic.downcast_ref::<&str>().map_or("(non-text panic)", |s| s).to_string(),
    }
}

/// Greedy reduction of one failing case's draws.
///
/// A candidate is shortlex-smaller than `best` (shorter, or as long and
/// smaller at its first difference), and what a replay of it records is no
/// larger: a replay reads a prefix of the candidate, each value reduced by
/// its bound, then zeros. So every accepted candidate makes `best` strictly
/// smaller and the search ends, at the latest after [`SHRINK_RUNS`] re-runs.
struct Shrinker<'a, P> {
    case: usize,
    best: Vec<u64>,
    failure: String,
    runs: usize,
    property: &'a mut P,
}

impl<P: FnMut(&mut Gen)> Shrinker<'_, P> {
    fn shrink(&mut self) {
        let mut improved = true;
        while improved && self.runs < SHRINK_RUNS {
            improved = false;
            for span in [8, 4, 2, 1] {
                let mut at = 0;
                while at + span <= self.best.len() {
                    let mut candidate = self.best.clone();
                    candidate.drain(at..at + span);
                    if self.fails(candidate) {
                        improved = true;
                    } else {
                        at += 1;
                    }
                }
            }
            let reductions: [fn(u64) -> u64; 2] = [|_| 0, |v| v / 2];
            for reduce in reductions {
                let mut at = 0;
                while at < self.best.len() {
                    let mut candidate = self.best.clone();
                    candidate[at] = reduce(candidate[at]);
                    if candidate[at] != self.best[at] && self.fails(candidate) {
                        improved = true;
                    }
                    at += 1;
                }
            }
        }
    }

    /// Re-run the property on `candidate`; keep it if the property still
    /// fails.
    fn fails(&mut self, candidate: Vec<u64>) -> bool {
        if self.runs >= SHRINK_RUNS {
            return false;
        }
        self.runs += 1;
        let mut g = Gen {
            live: Seeded::new(0),
            replay: Some(candidate.into_iter()),
            drawn: Vec::new(),
            case: self.case,
        };
        let property = &mut *self.property;
        match catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
            Ok(()) => false,
            Err(panic) => {
                self.failure = message(panic);
                self.best = trimmed(g.drawn);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every campaign plan, link and property stream hangs off these
    /// values: an edit to the mixer or the name hash moves them all.
    #[test]
    fn streams_are_pinned() {
        let first = |mut rng: Seeded| [rng.next_u64(), rng.next_u64(), rng.next_u64()];
        assert_eq!(
            first(Seeded::new(0)),
            [0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4, 0x06c4_5d18_8009_454f]
        );
        assert_eq!(
            first(Seeded::new(u64::MAX)),
            [0xe4d9_7177_1b65_2c20, 0xe99f_f867_dbf6_82c9, 0x382f_f84c_b272_81e9]
        );
        assert_eq!(
            first(Seeded::from_name("x")),
            [0xccd9_8712_7c3f_836c, 0x0ac1_57cf_1aed_0fb2, 0x1993_d70f_8b16_0174]
        );
    }

    #[test]
    fn seeded_is_deterministic_and_bounded() {
        let draws = |seed| {
            let mut rng = Seeded::new(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(42), draws(42));
        assert_ne!(draws(42), draws(43));
        let mut rng = Seeded::new(7);
        for _ in 0..100 {
            assert!(rng.below(13) < 13);
        }
        let mut rng = Seeded::new(9);
        assert_eq!(rng.below(0), 0);
        assert_eq!(rng.next_u64(), Seeded::new(9).next_u64(), "below(0) draws nothing");
    }

    #[test]
    fn cases_draw_one_named_stream_in_turn() {
        let mut drawn = Vec::new();
        check("x", 3, |g| {
            drawn.push((g.case(), g.next_u64()));
            assert_eq!(g.below(0), 0);
        });
        let mut rng = Seeded::from_name("x");
        let expected: Vec<_> = (0..3).map(|case| (case, rng.next_u64())).collect();
        assert_eq!(drawn, expected);
    }

    /// A property that fails once two drawn values are non-zero shrinks to
    /// the shortest, smallest draws that still fail: a length of 2 and two
    /// ones.
    #[test]
    fn a_failure_shrinks_to_its_smallest_draws() {
        let panic = catch_unwind(|| {
            check("shrinks", 96, |g| {
                let xs: Vec<u64> = (0..g.below(8)).map(|_| g.below(100)).collect();
                assert!(
                    xs.iter().filter(|&&x| x != 0).count() < 2,
                    "two non-zero values in {xs:?}"
                );
            })
        })
        .expect_err("the property fails on some case");
        let text = message(panic);
        assert!(text.starts_with("property `shrinks` failed at case "), "{text}");
        assert!(text.contains("shrunk draws: [2, 1, 1]\n"), "{text}");
        assert!(text.contains("shrunk failure: two non-zero values in [1, 1]\n"), "{text}");
    }
}
