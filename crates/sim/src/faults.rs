//! Fault models: the failure modes the paper's protocols must survive.
//!
//! * **Crash failures** of participants — [`crate::participant::CrashWindow`]
//!   attached to a [`crate::participant::Participant`].
//! * **Network partitions** — [`OutageWindow`]s attached to a chain in the
//!   [`crate::world::World`]: while an outage covers the current time,
//!   submissions to that chain fail (the participant "cannot reach" its
//!   blockchain).
//! * **Forks / 51% attacks** — [`crate::world::World::inject_fork`] mines a
//!   competing branch, modelling the adversary of Section 6.3.
//!
//! A [`Fault`] names one of these, or a Byzantine or fee-market adversary,
//! declaratively; `ac3-core`'s campaigns schedule faults and apply them
//! mid-batch.

use crate::participant::CrashWindow;
use ac3_chain::{Amount, ChainId, Timestamp};
use serde::{Deserialize, Serialize};

/// A half-open interval `[from, until)` of simulated time during which a
/// chain is unreachable: the chain is down at `from` and reachable again at
/// `until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageWindow {
    /// Outage start (inclusive).
    pub from: Timestamp,
    /// Outage end (exclusive).
    pub until: Timestamp,
}

impl OutageWindow {
    /// Whether the outage covers `now`.
    pub fn covers(&self, now: Timestamp) -> bool {
        now >= self.from && now < self.until
    }
}

/// One declarative fault.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// Crash a participant for a window of time.
    Crash {
        /// The participant's name.
        participant: String,
        /// The crash window.
        window: CrashWindow,
    },
    /// Partition a chain away from all participants for a window of time.
    Partition {
        /// The partitioned chain.
        chain: ChainId,
        /// The outage window.
        window: OutageWindow,
    },
    /// Mine an adversarial fork on a chain at a given simulated time.
    Fork {
        /// The attacked chain.
        chain: ChainId,
        /// How many blocks below the tip to fork from.
        fork_depth: u64,
        /// Length of the adversarial branch.
        length: u64,
    },
    /// A Byzantine witness network equivocates: its operator signs *both*
    /// the commit and the abort decision for the same graph. Behavioral —
    /// deferred to a campaign machine that emits the conflicting
    /// attestations and lets honest watchdogs assemble the fraud proof.
    Equivocate {
        /// The witness chain whose operator misbehaves.
        witness_chain: ChainId,
    },
    /// A bribed witness operator signs one decision *against* observed
    /// evidence (commit without deployments, or abort despite them).
    /// A single signature is not self-incriminating, so this is detectable
    /// (testimony vs. on-chain state) but not slashable.
    Bribe {
        /// The witness chain whose operator is bribed.
        witness_chain: ChainId,
        /// `true`: attest commit against evidence; `false`: attest abort.
        commit: bool,
    },
    /// An eviction-flooder keeps a chain's bounded mempool full of
    /// just-above-floor bids for the duration of the window, forcing
    /// honest bidders to outbid it or be delayed.
    FloodMempool {
        /// The flooded chain.
        chain: ChainId,
        /// When the flooding runs.
        window: OutageWindow,
        /// Maximum total fees the flooder may spend.
        budget: Amount,
    },
    /// A base-fee spiker fills every block of a chain during the window,
    /// driving the EIP-1559-style base fee up under the victims' feet.
    SpikeBaseFee {
        /// The spiked chain.
        chain: ChainId,
        /// When the spiking runs.
        window: OutageWindow,
        /// Maximum total fees the spiker may spend.
        budget: Amount,
    },
}

impl Fault {
    /// The chain this fault touches, if any — campaign machines use this to
    /// declare scheduler footprints.
    pub fn chain(&self) -> Option<ChainId> {
        match self {
            Fault::Crash { .. } => None,
            Fault::Partition { chain, .. }
            | Fault::Fork { chain, .. }
            | Fault::FloodMempool { chain, .. }
            | Fault::SpikeBaseFee { chain, .. } => Some(*chain),
            Fault::Equivocate { witness_chain } | Fault::Bribe { witness_chain, .. } => {
                Some(*witness_chain)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_window_coverage() {
        // Half-open `[from, until)`: down at `from`, back at `until`.
        let w = OutageWindow { from: 10, until: 20 };
        assert!(!w.covers(9));
        assert!(w.covers(10));
        assert!(w.covers(19));
        assert!(!w.covers(20));
        // Degenerate boundaries: an empty window covers nothing.
        let empty = OutageWindow { from: 10, until: 10 };
        assert!(!empty.covers(9));
        assert!(!empty.covers(10));
        assert!(!empty.covers(11));
        let instant = OutageWindow { from: 10, until: 11 };
        assert!(instant.covers(10));
        assert!(!instant.covers(11));
    }

    #[test]
    fn fault_chain_names_the_touched_chain() {
        let chain = ChainId(3);
        let window = OutageWindow { from: 5_000, until: 9_000 };
        for fault in [
            Fault::Partition { chain, window },
            Fault::Fork { chain, fork_depth: 2, length: 3 },
            Fault::Equivocate { witness_chain: chain },
            Fault::Bribe { witness_chain: chain, commit: true },
            Fault::FloodMempool { chain, window, budget: 500 },
            Fault::SpikeBaseFee { chain, window, budget: 500 },
        ] {
            assert_eq!(fault.chain(), Some(chain), "{fault:?}");
        }
        let crash = Fault::Crash {
            participant: "alice".to_string(),
            window: CrashWindow { from: 0, until: 1 },
        };
        assert_eq!(crash.chain(), None);
    }
}
