//! Common types shared by every atomic cross-chain commitment protocol
//! driver: per-edge outcomes, the execution report, and the protocol
//! configuration knobs.

use crate::audit::AtomicityVerdict;
use crate::graph::SwapEdge;
use ac3_chain::{Amount, ChainId, ContractId, Timestamp};
use ac3_sim::Timeline;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The terminal disposition of one sub-transaction (edge) after a protocol
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeDisposition {
    /// The contract was never published (participant declined or crashed
    /// before deployment).
    Unpublished,
    /// The contract is still in state `P` (asset locked, no outcome yet).
    Locked,
    /// The contract was redeemed: the asset moved to the recipient.
    Redeemed,
    /// The contract was refunded: the asset returned to the sender.
    Refunded,
}

impl EdgeDisposition {
    /// Parse a contract state tag ("P", "RD", "RF").
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "P" => Some(EdgeDisposition::Locked),
            "RD" => Some(EdgeDisposition::Redeemed),
            "RF" => Some(EdgeDisposition::Refunded),
            _ => None,
        }
    }
}

impl fmt::Display for EdgeDisposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EdgeDisposition::Unpublished => "unpublished",
            EdgeDisposition::Locked => "locked (P)",
            EdgeDisposition::Redeemed => "redeemed (RD)",
            EdgeDisposition::Refunded => "refunded (RF)",
        };
        write!(f, "{s}")
    }
}

/// The outcome of one edge of the AC2T graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeOutcome {
    /// The edge this outcome describes.
    pub edge: SwapEdge,
    /// The deployed contract, if any.
    pub contract: Option<ContractId>,
    /// Its terminal disposition.
    pub disposition: EdgeDisposition,
}

/// Which protocol produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Nolan's two-party hashlock/timelock swap.
    Nolan,
    /// Herlihy's multi-party single-leader swap.
    Herlihy,
    /// Herlihy's multi-leader swap (cyclic-graph variant).
    HerlihyMulti,
    /// AC3TW: centralized trusted witness.
    Ac3Tw,
    /// AC3WN: permissionless witness network.
    Ac3Wn,
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtocolKind::Nolan => "Nolan",
            ProtocolKind::Herlihy => "Herlihy",
            ProtocolKind::HerlihyMulti => "Herlihy-multi",
            ProtocolKind::Ac3Tw => "AC3TW",
            ProtocolKind::Ac3Wn => "AC3WN",
        };
        write!(f, "{s}")
    }
}

/// The result of executing an AC2T under some protocol.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwapReport {
    /// The protocol that ran.
    pub protocol: ProtocolKind,
    /// Whether the protocol reached a commit decision (`true`), an abort
    /// decision (`false`), or no decision (`None` — e.g. a baseline
    /// protocol that has no explicit decision step).
    pub decision: Option<bool>,
    /// Per-edge outcomes.
    pub edges: Vec<EdgeOutcome>,
    /// Simulated time at which the swap started (graph agreement).
    pub started_at: Timestamp,
    /// Simulated time at which the last asset transfer completed (or the
    /// run gave up).
    pub finished_at: Timestamp,
    /// The world's Δ at execution time, for normalising latency.
    pub delta_ms: u64,
    /// Number of contract deployments performed (including the witness
    /// contract for AC3WN / the registration for AC3TW when applicable).
    pub deployments: u64,
    /// Number of contract function calls performed.
    pub calls: u64,
    /// Total fees paid, in asset units. Under an escalating
    /// [`crate::fee::FeePolicy`] this includes every re-bid surcharge; only
    /// the final bid of a replaced transaction counts.
    pub fees_paid: Amount,
    /// Fees the static fd/ffc schedule (Section 6.2) prices the same
    /// operations at — the fee-market baseline. `fees_paid /
    /// fees_scheduled` is the swap's fee inflation under contention.
    pub fees_scheduled: Amount,
    /// Number of replace-by-fee escalations (and eviction re-submissions)
    /// the swap's participants performed.
    pub fee_rebids: u64,
    /// The protocol-level event timeline.
    pub timeline: Timeline,
}

impl SwapReport {
    /// End-to-end latency in simulated milliseconds.
    pub fn latency_ms(&self) -> u64 {
        self.finished_at.saturating_sub(self.started_at)
    }

    /// End-to-end latency in Δ units (the unit of the paper's Figure 10).
    pub fn latency_in_deltas(&self) -> f64 {
        if self.delta_ms == 0 {
            return 0.0;
        }
        self.latency_ms() as f64 / self.delta_ms as f64
    }

    /// The atomicity verdict over the per-edge outcomes.
    pub fn verdict(&self) -> AtomicityVerdict {
        AtomicityVerdict::from_outcomes(&self.edges)
    }

    /// Whether the run preserved all-or-nothing atomicity.
    pub fn is_atomic(&self) -> bool {
        self.verdict().is_atomic()
    }

    /// Fee inflation under contention: `fees_paid / fees_scheduled`
    /// (1.0 when every bid cleared at the static schedule price).
    pub fn fee_inflation(&self) -> f64 {
        if self.fees_scheduled == 0 {
            return 1.0;
        }
        self.fees_paid as f64 / self.fees_scheduled as f64
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} edges, decision={:?}, verdict={}, latency={:.2}Δ ({} ms), {} deployments, {} calls, fees={} ({} rebids)",
            self.protocol,
            self.edges.len(),
            self.decision,
            self.verdict(),
            self.latency_in_deltas(),
            self.latency_ms(),
            self.deployments,
            self.calls,
            self.fees_paid,
            self.fee_rebids,
        )
    }
}

/// Configuration knobs shared by the protocol drivers.
///
/// The AC3 recovery pass is not among them: it always runs. Once a
/// decision settles, edges left locked (a participant crashed through
/// settlement) are re-settled in rounds of Δ, for at most
/// `wait_cap_deltas` rounds — the *commitment* property, a decision
/// eventually takes effect.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Burial depth `d` required of witness-chain decisions before asset
    /// contracts accept them (AC3WN; Section 4.2).
    pub witness_depth: u64,
    /// Burial depth required of asset-contract deployments before the
    /// witness authorizes redemption.
    pub deployment_depth: u64,
    /// How long (in Δ units) a protocol waits for missing deployments
    /// before requesting an abort.
    pub abort_after_deltas: u64,
    /// Upper bound, in Δ units, on any single awaited condition inside a
    /// machine (the deadline attached to each waiting phase) — protects
    /// tests from livelock if a condition can never become true. Raise it
    /// for contended scheduler batches, where submissions can queue many
    /// blocks behind other swaps' transactions.
    pub wait_cap_deltas: u64,
    /// How participants bid for block space when their submissions queue
    /// (see [`crate::fee::FeePolicy`]). The default
    /// [`Fixed`](crate::fee::FeePolicy::Fixed) policy reproduces the
    /// paper's static fee schedule exactly;
    /// [`Adaptive`](crate::fee::FeePolicy::Adaptive) reads the chain's
    /// congestion snapshot (dynamic base fee, marginal next-block price)
    /// instead of climbing a blind escalation ladder.
    pub fee_policy: crate::fee::FeePolicy,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            witness_depth: 3,
            deployment_depth: 1,
            abort_after_deltas: 4,
            wait_cap_deltas: 12,
            fee_policy: crate::fee::FeePolicy::Fixed,
        }
    }
}

/// Errors surfaced by protocol drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The graph cannot be executed by this protocol (e.g. disconnected
    /// graph under Herlihy's single-leader protocol).
    UnsupportedGraph(String),
    /// A required participant is unknown to the scenario.
    UnknownParticipant(String),
    /// A participant lacks the balance to lock its asset or pay fees.
    InsufficientFunds {
        /// The participant.
        who: String,
        /// The chain on which funds are missing.
        chain: ChainId,
    },
    /// An interaction with the simulated world failed.
    World(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::UnsupportedGraph(m) => write!(f, "unsupported graph: {m}"),
            ProtocolError::UnknownParticipant(m) => write!(f, "unknown participant: {m}"),
            ProtocolError::InsufficientFunds { who, chain } => {
                write!(f, "{who} has insufficient funds on {chain}")
            }
            ProtocolError::World(m) => write!(f, "world error: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<ac3_sim::WorldError> for ProtocolError {
    fn from(e: ac3_sim::WorldError) -> Self {
        ProtocolError::World(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac3_chain::Address;
    use ac3_crypto::KeyPair;

    fn addr(seed: &[u8]) -> Address {
        Address::from(KeyPair::from_seed(seed).public())
    }

    fn edge() -> SwapEdge {
        SwapEdge { from: addr(b"a"), to: addr(b"b"), amount: 5, chain: ChainId(0) }
    }

    fn report_with(dispositions: &[EdgeDisposition]) -> SwapReport {
        SwapReport {
            protocol: ProtocolKind::Ac3Wn,
            decision: Some(true),
            edges: dispositions
                .iter()
                .map(|d| EdgeOutcome { edge: edge(), contract: None, disposition: *d })
                .collect(),
            started_at: 1_000,
            finished_at: 9_000,
            delta_ms: 2_000,
            deployments: 3,
            calls: 3,
            fees_paid: 18,
            fees_scheduled: 18,
            fee_rebids: 0,
            timeline: Timeline::new(),
        }
    }

    #[test]
    fn latency_conversions() {
        let r = report_with(&[EdgeDisposition::Redeemed]);
        assert_eq!(r.latency_ms(), 8_000);
        assert!((r.latency_in_deltas() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn disposition_parsing() {
        assert_eq!(EdgeDisposition::from_tag("P"), Some(EdgeDisposition::Locked));
        assert_eq!(EdgeDisposition::from_tag("RD"), Some(EdgeDisposition::Redeemed));
        assert_eq!(EdgeDisposition::from_tag("RF"), Some(EdgeDisposition::Refunded));
        assert_eq!(EdgeDisposition::from_tag("RDauth"), None);
    }

    #[test]
    fn atomic_and_violated_reports() {
        assert!(report_with(&[EdgeDisposition::Redeemed, EdgeDisposition::Redeemed]).is_atomic());
        assert!(report_with(&[EdgeDisposition::Refunded, EdgeDisposition::Refunded]).is_atomic());
        assert!(!report_with(&[EdgeDisposition::Redeemed, EdgeDisposition::Refunded]).is_atomic());
    }

    #[test]
    fn summary_mentions_protocol_and_verdict() {
        let s = report_with(&[EdgeDisposition::Redeemed]).summary();
        assert!(s.contains("AC3WN"));
        assert!(s.contains("deployments"));
    }

    #[test]
    fn default_config_is_sane() {
        let c = ProtocolConfig::default();
        assert!(c.witness_depth >= 1);
        assert!(c.wait_cap_deltas > c.abort_after_deltas);
    }

    #[test]
    fn zero_delta_latency_is_zero() {
        let mut r = report_with(&[EdgeDisposition::Redeemed]);
        r.delta_ms = 0;
        assert_eq!(r.latency_in_deltas(), 0.0);
    }
}
