//! The atomicity auditor: classifies the outcome of an AC2T run.
//!
//! The paper's correctness property (Section 3) is *all-or-nothing*: either
//! every sub-transaction's asset transfer takes place (every contract
//! redeemed) or none does (every published contract refunded, unpublished
//! contracts moot). The auditor inspects the terminal per-edge dispositions
//! and decides whether the property held — this is what experiment E6 counts
//! across fault scenarios.

use crate::protocol::{EdgeDisposition, EdgeOutcome};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The atomicity classification of a completed run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AtomicityVerdict {
    /// Every edge's contract was redeemed: the AC2T committed atomically.
    AllRedeemed,
    /// Every published contract was refunded (and none redeemed): the AC2T
    /// aborted atomically.
    AllRefunded,
    /// Nothing was redeemed, but the abort has not fully settled either:
    /// some contracts are still locked in `P` (or were never published).
    /// Not a violation — no asset ended up on the "wrong" side — but not a
    /// completed swap either.
    Incomplete {
        /// Number of edges already refunded.
        refunded: usize,
        /// Number of edges still locked in state `P`.
        locked: usize,
        /// Number of edges never published.
        unpublished: usize,
    },
    /// The commit decision has taken effect on some edges while others are
    /// still locked (their recipients are crashed or partitioned away).
    /// Because AC3WN and AC3TW have no timelock, the locked assets remain
    /// redeemable by their rightful recipients — nothing is lost, so the
    /// all-or-nothing property still holds; the swap just has not finished.
    CommitPending {
        /// Number of edges already redeemed.
        redeemed: usize,
        /// Number of edges still locked in state `P`.
        locked: usize,
        /// Number of edges never published.
        unpublished: usize,
    },
    /// Conflicting terminal outcomes exist: some assets were redeemed while
    /// others were refunded — the all-or-nothing property was violated
    /// (somebody's asset ended up on the wrong side for good).
    Violated {
        /// Indices of redeemed edges.
        redeemed: Vec<usize>,
        /// Indices of refunded edges.
        refunded: Vec<usize>,
        /// Indices of edges still locked in `P`.
        locked: Vec<usize>,
        /// Indices of edges never published.
        unpublished: Vec<usize>,
    },
}

impl AtomicityVerdict {
    /// Classify a set of per-edge outcomes.
    pub fn from_outcomes(outcomes: &[EdgeOutcome]) -> Self {
        let mut redeemed = Vec::new();
        let mut refunded = Vec::new();
        let mut locked = Vec::new();
        let mut unpublished = Vec::new();
        for (i, o) in outcomes.iter().enumerate() {
            match o.disposition {
                EdgeDisposition::Redeemed => redeemed.push(i),
                EdgeDisposition::Refunded => refunded.push(i),
                EdgeDisposition::Locked => locked.push(i),
                EdgeDisposition::Unpublished => unpublished.push(i),
            }
        }
        let n = outcomes.len();
        if n > 0 && redeemed.len() == n {
            AtomicityVerdict::AllRedeemed
        } else if redeemed.is_empty() && !refunded.is_empty() && locked.is_empty() {
            // Every published contract was refunded; unpublished edges never
            // locked anything so nothing is lost.
            AtomicityVerdict::AllRefunded
        } else if redeemed.is_empty() {
            // Nothing redeemed: no asset can be on the wrong side, so this
            // is at worst an unfinished abort, never a violation.
            AtomicityVerdict::Incomplete {
                refunded: refunded.len(),
                locked: locked.len(),
                unpublished: unpublished.len(),
            }
        } else if refunded.is_empty() {
            // Something redeemed, nothing refunded: the remaining assets are
            // still locked and redeemable — a commit in progress.
            AtomicityVerdict::CommitPending {
                redeemed: redeemed.len(),
                locked: locked.len(),
                unpublished: unpublished.len(),
            }
        } else {
            AtomicityVerdict::Violated { redeemed, refunded, locked, unpublished }
        }
    }

    /// Whether the all-or-nothing property held. `Incomplete` counts as
    /// atomic (nothing irreversible happened), a `Violated` verdict does
    /// not.
    pub fn is_atomic(&self) -> bool {
        !matches!(self, AtomicityVerdict::Violated { .. })
    }

    /// Whether the swap actually completed (all assets changed hands).
    pub fn is_committed(&self) -> bool {
        matches!(self, AtomicityVerdict::AllRedeemed)
    }
}

impl fmt::Display for AtomicityVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtomicityVerdict::AllRedeemed => write!(f, "all-redeemed (committed)"),
            AtomicityVerdict::AllRefunded => write!(f, "all-refunded (aborted)"),
            AtomicityVerdict::Incomplete { refunded, locked, unpublished } => {
                write!(f, "incomplete ({refunded} refunded, {locked} locked, {unpublished} unpublished)")
            }
            AtomicityVerdict::CommitPending { redeemed, locked, unpublished } => write!(
                f,
                "commit pending ({redeemed} redeemed, {locked} still locked, {unpublished} unpublished)"
            ),
            AtomicityVerdict::Violated { redeemed, refunded, locked, unpublished } => write!(
                f,
                "ATOMICITY VIOLATED ({} redeemed, {} refunded, {} locked, {} unpublished)",
                redeemed.len(),
                refunded.len(),
                locked.len(),
                unpublished.len()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SwapEdge;
    use ac3_chain::{Address, ChainId};
    use ac3_crypto::KeyPair;
    use ac3_seeded::check;

    fn outcome(d: EdgeDisposition) -> EdgeOutcome {
        let a = Address::from(KeyPair::from_seed(b"a").public());
        let b = Address::from(KeyPair::from_seed(b"b").public());
        EdgeOutcome {
            edge: SwapEdge { from: a, to: b, amount: 1, chain: ChainId(0) },
            contract: None,
            disposition: d,
        }
    }

    #[test]
    fn all_redeemed_is_committed() {
        let v = AtomicityVerdict::from_outcomes(&[
            outcome(EdgeDisposition::Redeemed),
            outcome(EdgeDisposition::Redeemed),
        ]);
        assert_eq!(v, AtomicityVerdict::AllRedeemed);
        assert!(v.is_atomic());
        assert!(v.is_committed());
        assert_ne!(v, AtomicityVerdict::AllRefunded);
    }

    #[test]
    fn all_refunded_is_aborted_even_with_unpublished() {
        let v = AtomicityVerdict::from_outcomes(&[
            outcome(EdgeDisposition::Refunded),
            outcome(EdgeDisposition::Unpublished),
        ]);
        assert_eq!(v, AtomicityVerdict::AllRefunded);
        assert!(v.is_atomic());
        assert_eq!(v, AtomicityVerdict::AllRefunded);
    }

    #[test]
    fn mixed_redeem_refund_is_violation() {
        let v = AtomicityVerdict::from_outcomes(&[
            outcome(EdgeDisposition::Redeemed),
            outcome(EdgeDisposition::Refunded),
        ]);
        assert!(!v.is_atomic());
        assert!(v.to_string().contains("VIOLATED"));
    }

    #[test]
    fn redeem_plus_locked_is_a_pending_commit_not_a_violation() {
        // One asset moved while another is still locked: nothing is on the
        // wrong side — the locked asset is still redeemable by its rightful
        // recipient (AC3WN has no timelock), so atomicity holds.
        let v = AtomicityVerdict::from_outcomes(&[
            outcome(EdgeDisposition::Redeemed),
            outcome(EdgeDisposition::Locked),
        ]);
        assert_eq!(v, AtomicityVerdict::CommitPending { redeemed: 1, locked: 1, unpublished: 0 });
        assert!(v.is_atomic());
        assert!(!v.is_committed());
        assert!(v.to_string().contains("commit pending"));
    }

    #[test]
    fn nothing_terminal_is_incomplete() {
        let v = AtomicityVerdict::from_outcomes(&[
            outcome(EdgeDisposition::Locked),
            outcome(EdgeDisposition::Unpublished),
        ]);
        assert_eq!(v, AtomicityVerdict::Incomplete { refunded: 0, locked: 1, unpublished: 1 });
        assert!(v.is_atomic());
        assert!(!v.is_committed());
    }

    #[test]
    fn partial_abort_is_incomplete_not_violated() {
        // A refund decision that has not yet reached every contract: no
        // asset moved to the wrong side, so atomicity still holds.
        let v = AtomicityVerdict::from_outcomes(&[
            outcome(EdgeDisposition::Refunded),
            outcome(EdgeDisposition::Locked),
        ]);
        assert_eq!(v, AtomicityVerdict::Incomplete { refunded: 1, locked: 1, unpublished: 0 });
        assert!(v.is_atomic());
        assert_ne!(v, AtomicityVerdict::AllRefunded);
    }

    #[test]
    fn empty_outcome_list_is_incomplete() {
        let v = AtomicityVerdict::from_outcomes(&[]);
        assert_eq!(v, AtomicityVerdict::Incomplete { refunded: 0, locked: 0, unpublished: 0 });
    }

    #[test]
    fn prop_verdict_is_atomic_iff_not_mixed() {
        check("ac3_core::audit::tests::prop_verdict_is_atomic_iff_not_mixed", 96, |g| {
            let dispositions: Vec<u64> = (0..1 + g.below(11)).map(|_| g.below(4)).collect();
            let outcomes: Vec<EdgeOutcome> = dispositions
                .iter()
                .map(|d| {
                    outcome(match d {
                        0 => EdgeDisposition::Unpublished,
                        1 => EdgeDisposition::Locked,
                        2 => EdgeDisposition::Redeemed,
                        _ => EdgeDisposition::Refunded,
                    })
                })
                .collect();
            let redeemed = dispositions.iter().filter(|d| **d == 2).count();
            let refunded = dispositions.iter().filter(|d| **d == 3).count();
            let v = AtomicityVerdict::from_outcomes(&outcomes);
            // A violation is exactly the coexistence of conflicting terminal
            // outcomes: something redeemed AND something refunded.
            let expected_atomic = redeemed == 0 || refunded == 0;
            assert_eq!(v.is_atomic(), expected_atomic);
        });
    }
}
