//! Nolan's original two-party atomic cross-chain swap \[23\] — the protocol
//! the paper's Section 1 walkthrough describes (Alice's X bitcoins for Bob's
//! Y ethers, hashlocks `h = H(s)` and timelocks `t1 > t2`).
//!
//! Nolan's protocol is the two-party special case of Herlihy's
//! generalisation, so the driver runs on the same
//! [`crate::herlihy::HerlihyMachine`] through the single-leader [`Herlihy`]
//! driver and only adds the two-party restriction plus the protocol label. The
//! behaviour reproduced is identical to the paper's description: sequential
//! contract publication, secret revelation on redemption, timelocked
//! refunds, and the resulting vulnerability to crash failures.

use crate::graph::SwapGraph;
use crate::herlihy::Herlihy;
use crate::protocol::{ProtocolConfig, ProtocolError, ProtocolKind, SwapReport};
use crate::scenario::Scenario;

/// The Nolan two-party swap driver.
#[derive(Debug, Clone, Default)]
pub struct Nolan {
    /// Driver configuration.
    pub config: ProtocolConfig,
}

impl Nolan {
    /// Create a driver with the given configuration.
    pub fn new(config: ProtocolConfig) -> Self {
        Nolan { config }
    }

    /// Check the two-party restriction.
    pub fn supports_graph(graph: &SwapGraph) -> Result<(), ProtocolError> {
        if graph.participants().len() != 2 || graph.contract_count() != 2 {
            return Err(ProtocolError::UnsupportedGraph(
                "Nolan's protocol only supports two-party, two-contract swaps".to_string(),
            ));
        }
        Herlihy::supports_graph(graph).map(|_| ())
    }

    /// Execute the two-party swap. The source of the first edge acts as the
    /// leader (Alice in the paper's walkthrough: she creates `s` and
    /// publishes SC1 first).
    pub fn execute(&self, scenario: &mut Scenario) -> Result<SwapReport, ProtocolError> {
        Self::supports_graph(&scenario.graph)?;
        let leader = scenario.graph.edges()[0].from;
        let mut inner = Herlihy::with_leader(self.config.clone(), leader);
        inner.kind = Some(ProtocolKind::Nolan);
        inner.execute(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AtomicityVerdict;
    use crate::scenario::{ring_scenario, two_party_scenario, ScenarioConfig};
    use ac3_sim::CrashWindow;

    #[test]
    fn two_party_swap_commits() {
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let report = Nolan::new(ProtocolConfig::default()).execute(&mut s).unwrap();
        assert_eq!(report.protocol, ProtocolKind::Nolan);
        assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
        // Latency ≈ 2·Δ·Diam = 4Δ for the two-party swap.
        assert!(
            report.latency_in_deltas() >= 3.0 && report.latency_in_deltas() <= 6.0,
            "latency {}Δ",
            report.latency_in_deltas()
        );
    }

    #[test]
    fn more_than_two_parties_rejected() {
        let mut s = ring_scenario(3, 10, &ScenarioConfig::default());
        let err = Nolan::new(ProtocolConfig::default()).execute(&mut s).unwrap_err();
        assert!(matches!(err, ProtocolError::UnsupportedGraph(_)));
    }

    #[test]
    fn crash_failure_causes_asset_loss() {
        // The case against the current proposals (Section 1): Bob crashes
        // before redeeming and loses his asset once t1 expires.
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        s.participants
            .get_mut("bob")
            .unwrap()
            .schedule_crash(CrashWindow { from: 9_000, until: 600_000 });
        let config = ProtocolConfig { deployment_depth: 3, ..Default::default() };
        let report = Nolan::new(config).execute(&mut s).unwrap();
        assert!(!report.is_atomic(), "{}", report.summary());
    }
}
