//! Persistent, resumable AC3WN swap sessions.
//!
//! A [`SwapSession`] is the [`Ac3Machine`] that [`Ac3wn`] builds for a
//! verified [`SignedSwap`], and nothing else: the session runs the same
//! commit sequence as every other AC3WN swap in the workspace (fee bidding,
//! the `retry-authorize` wait and the recovery pass included), and its JSON
//! is the machine's JSON.
//!
//! That persistence is what makes the paper's *commitment* guarantee usable
//! from a client: a participant that crashes after the decision can reload
//! the session from disk and settle, reading everything else from the
//! public chains — there is no timelock racing against the recovery, unlike
//! the Nolan/Herlihy baselines.

use crate::error::ClientError;
use crate::negotiation::SignedSwap;
use ac3_chain::ChainId;
use ac3_core::{drive, drive_until, Ac3Machine, Ac3wn, ProtocolConfig, SwapReport};
use ac3_sim::{ParticipantSet, World};
use serde::{Deserialize, Serialize};

/// A persistent AC3WN swap session: an [`Ac3Machine`] that serialises to
/// JSON ([`SwapSession::to_json`]) at any point between two polls and
/// continues from there once reloaded.
#[derive(Debug, Serialize, Deserialize)]
pub struct SwapSession {
    machine: Ac3Machine,
}

impl SwapSession {
    /// Create a session from a fully signed swap. The multisignature is
    /// re-verified so a session can never be created over a graph some
    /// participant did not agree to.
    pub fn new(
        signed: SignedSwap,
        witness_chain: ChainId,
        config: ProtocolConfig,
    ) -> Result<Self, ClientError> {
        signed.multisig.verify(&signed.graph.participant_keys())?;
        Ok(SwapSession { machine: Ac3wn::new(config).machine(signed.graph, witness_chain) })
    }

    /// The machine executing the swap, for its read-only accessors.
    pub fn machine(&self) -> &Ac3Machine {
        &self.machine
    }

    /// Serialise the session to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("session state serialises")
    }

    /// Restore a session from JSON produced by [`SwapSession::to_json`].
    pub fn from_json(json: &str) -> Result<Self, ClientError> {
        serde_json::from_str(json).map_err(|e| ClientError::Persistence(e.to_string()))
    }

    /// Run the swap until `stop` holds before a poll (see
    /// [`ac3_core::drive_until`]): `Ok(None)` leaves the session resumable,
    /// `Ok(Some(report))` means the swap finished first.
    pub fn run_until(
        &mut self,
        world: &mut World,
        participants: &mut ParticipantSet,
        stop: impl FnMut(&Ac3Machine, &World) -> bool,
    ) -> Result<Option<SwapReport>, ClientError> {
        Ok(drive_until(&mut self.machine, world, participants, stop)?)
    }

    /// Run the swap to its end and return its report.
    pub fn run_to_completion(
        &mut self,
        world: &mut World,
        participants: &mut ParticipantSet,
    ) -> Result<SwapReport, ClientError> {
        Ok(drive(&mut self.machine, world, participants)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::negotiation::Negotiation;
    use crate::wallet::Wallet;
    use ac3_core::scenario::{custom_scenario, two_party_scenario, Scenario, ScenarioConfig};
    use ac3_core::{AtomicityVerdict, SwapMachine};
    use ac3_crypto::KeyPair;
    use ac3_sim::CrashWindow;

    const SUPPLY_CHAIN: [&str; 3] = ["manufacturer", "shipper", "retailer"];

    fn supply_chain_scenario() -> Scenario {
        custom_scenario(&SUPPLY_CHAIN, &[(0, 1, 40), (1, 2, 25), (2, 0, 60)], &Default::default())
    }

    fn sign_scenario_graph(scenario: &Scenario, names: &[&str]) -> SignedSwap {
        let mut negotiation = Negotiation::new(scenario.graph.clone());
        for name in names {
            let wallet = Wallet::new(name);
            negotiation.submit(wallet.sign_proposal(negotiation.proposal())).unwrap();
        }
        negotiation.finalize().unwrap()
    }

    fn config() -> ProtocolConfig {
        ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() }
    }

    fn session(scenario: &Scenario, names: &[&str]) -> SwapSession {
        let signed = sign_scenario_graph(scenario, names);
        SwapSession::new(signed, scenario.witness_chain, config()).unwrap()
    }

    #[test]
    fn happy_path_commits() {
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let mut session = session(&s, &["alice", "bob"]);
        let report = session.run_to_completion(&mut s.world, &mut s.participants).unwrap();
        assert_eq!(report.decision, Some(true));
        assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
        assert!(report.fees_paid > 0);
        assert_eq!(session.machine().phase_name(), "finished");
    }

    #[test]
    fn missing_deployment_leads_to_an_atomic_abort() {
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        s.participants.get_mut("bob").unwrap().schedule_crash(CrashWindow::permanent(0));
        let mut session = session(&s, &["alice", "bob"]);
        let report = session.run_to_completion(&mut s.world, &mut s.participants).unwrap();
        assert_eq!(report.decision, Some(false));
        assert_eq!(report.verdict(), AtomicityVerdict::AllRefunded);
    }

    #[test]
    fn session_survives_a_crash_via_json_round_trip() {
        // Drive the session until the decision is buried, persist it, drop
        // it, reload it, and settle from the reloaded copy — the
        // client-level crash recovery story.
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let (witness, d) = (s.witness_chain, config().witness_depth);
        let mut session = session(&s, &["alice", "bob"]);
        let decided = session
            .run_until(&mut s.world, &mut s.participants, |m, w| {
                m.authorize_txid().is_some_and(|txid| {
                    w.chain(witness).unwrap().tx_depth(&txid).is_some_and(|depth| depth >= d)
                })
            })
            .unwrap();
        assert!(decided.is_none(), "stopped before settling");
        assert_eq!(session.machine().phase_name(), "await-decision");

        let snapshot = session.to_json();
        drop(session);
        // Simulated downtime: the world keeps producing blocks meanwhile.
        s.world.advance(20_000);

        let mut recovered = SwapSession::from_json(&snapshot).unwrap();
        assert_eq!(recovered.to_json(), snapshot);
        let report = recovered.run_to_completion(&mut s.world, &mut s.participants).unwrap();
        assert_eq!(report.decision, Some(true));
        assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
    }

    #[test]
    fn settlement_retries_until_a_crashed_recipient_recovers() {
        // Alice is down across the instant the settlement calls go out
        // (12 s) and long after; she redeems in the recovery pass.
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let down = CrashWindow { from: 11_000, until: 41_000 };
        s.participants.get_mut("alice").unwrap().schedule_crash(down);
        let mut session = session(&s, &["alice", "bob"]);
        let report = session.run_to_completion(&mut s.world, &mut s.participants).unwrap();
        assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
        assert!(s.world.now() >= down.until, "recovery waited for alice");
    }

    #[test]
    fn session_rejects_an_incomplete_multisignature() {
        let s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let alice = Wallet::new("alice");
        // Bypass finalize() to simulate a client handed a half-signed swap.
        let graph = s.graph.clone();
        let mut multisig = graph.start_multisig();
        multisig.sign_with(&alice.keypair()).unwrap();
        let err = SwapSession::new(SignedSwap { graph, multisig }, s.witness_chain, config())
            .unwrap_err();
        assert!(matches!(err, ClientError::Multisig(_)));
    }

    #[test]
    fn corrupted_persisted_state_is_reported() {
        assert!(matches!(
            SwapSession::from_json("{not json").unwrap_err(),
            ClientError::Persistence(_)
        ));
    }

    #[test]
    fn multi_party_supply_chain_session_commits() {
        let mut s = supply_chain_scenario();
        let mut session = session(&s, &SUPPLY_CHAIN);
        let report = session.run_to_completion(&mut s.world, &mut s.participants).unwrap();
        assert_eq!(report.decision, Some(true));
        assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
        assert_eq!(report.edges.len(), 3);
    }

    #[test]
    fn the_machine_signs_the_negotiated_multisignature() {
        // The machine multisigns the graph itself at `Start`, with the
        // scenario participants' keys; that `ms(D)` is the one the wallets
        // negotiated.
        let two_party = two_party_scenario(50, 80, &ScenarioConfig::default());
        let graphs = [(two_party, &["alice", "bob"][..]), (supply_chain_scenario(), &SUPPLY_CHAIN)];
        for (s, names) in graphs {
            let keys: Vec<KeyPair> = s
                .graph
                .participants()
                .iter()
                .map(|a| s.participants.by_address(a).unwrap().keypair())
                .collect();
            let signed = sign_scenario_graph(&s, names);
            assert_eq!(signed.multisig.digest(), s.graph.multisign(&keys).unwrap().digest());
        }
    }
}
