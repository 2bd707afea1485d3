//! Persistent, resumable AC3WN swap sessions.
//!
//! A [`SwapSession`] walks the four AC3WN phases of Section 4.2 — register
//! the witness contract `SC_w`, deploy every asset contract in parallel,
//! change `SC_w`'s state (the commit/abort decision), settle every asset
//! contract — one [`SwapSession::step`] at a time, recording everything it
//! needs to continue (contract ids, transaction ids, the stored witness
//! anchor, the decision) in a serialisable state.
//!
//! That persistence is what makes the paper's *commitment* guarantee usable
//! from a client: a participant that crashes after the decision can reload
//! the session from disk, reconstruct the witness-state evidence from the
//! public chains, and settle — there is no timelock racing against the
//! recovery, unlike the Nolan/Herlihy baselines.

use crate::error::ClientError;
use crate::negotiation::SignedSwap;
use ac3_chain::{Amount, ChainId, ContractId, TxId};
use ac3_contracts::{ChainAnchor, ExpectedContract};
use ac3_core::ac3wn;
use ac3_core::actions::{call_contract, deploy_contract, edge_disposition};
use ac3_core::audit::AtomicityVerdict;
use ac3_core::graph::SwapGraph;
use ac3_core::protocol::{EdgeDisposition, EdgeOutcome, ProtocolConfig};
use ac3_core::ProtocolError;
use ac3_sim::{ParticipantSet, World};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Where a session is in the AC3WN lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionPhase {
    /// The graph is signed; nothing is on any chain yet.
    Created,
    /// `SC_w` is registered on the witness chain and publicly recognised.
    WitnessRegistered,
    /// Every available participant has deployed their asset contract.
    ContractsDeployed,
    /// The witness network recorded the commit or abort decision.
    Decided,
    /// Every deployed contract has been redeemed or refunded.
    Settled,
}

impl fmt::Display for SessionPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SessionPhase::Created => "Created",
            SessionPhase::WitnessRegistered => "WitnessRegistered",
            SessionPhase::ContractsDeployed => "ContractsDeployed",
            SessionPhase::Decided => "Decided",
            SessionPhase::Settled => "Settled",
        };
        write!(f, "{s}")
    }
}

/// A persistent AC3WN swap session.
///
/// The entire struct serialises to JSON ([`SwapSession::to_json`]); a
/// reloaded session continues from the phase it was saved in, reading
/// everything else it needs from the public chains.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwapSession {
    graph: SwapGraph,
    multisig: ac3_crypto::GraphMultisig,
    config: ProtocolConfig,
    witness_chain: ChainId,
    phase: SessionPhase,
    /// Expected asset contracts (one per edge), fixed at registration time.
    expected: Vec<ExpectedContract>,
    witness_contract: Option<ContractId>,
    witness_registration_tx: Option<TxId>,
    witness_anchor: Option<ChainAnchor>,
    /// Deployment per edge: `None` until attempted / if the sender was down.
    deployments: Vec<Option<(TxId, ContractId)>>,
    decision: Option<bool>,
    authorize_tx: Option<TxId>,
    fees_paid: Amount,
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
        let edge_count = signed.graph.contract_count();
        Ok(SwapSession {
            graph: signed.graph,
            multisig: signed.multisig,
            config,
            witness_chain,
            phase: SessionPhase::Created,
            expected: Vec::new(),
            witness_contract: None,
            witness_registration_tx: None,
            witness_anchor: None,
            deployments: vec![None; edge_count],
            decision: None,
            authorize_tx: None,
            fees_paid: 0,
        })
    }

    /// The session's current phase.
    pub fn phase(&self) -> SessionPhase {
        self.phase
    }

    /// The agreed swap graph.
    pub fn graph(&self) -> &SwapGraph {
        &self.graph
    }

    /// The commit/abort decision, once reached.
    pub fn decision(&self) -> Option<bool> {
        self.decision
    }

    /// Total fees the session has paid so far (deployments + calls).
    pub fn fees_paid(&self) -> Amount {
        self.fees_paid
    }

    /// The witness contract, once registered.
    pub fn witness_contract(&self) -> Option<ContractId> {
        self.witness_contract
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Serialise the session to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("session state serialises")
    }

    /// Restore a session from JSON produced by [`SwapSession::to_json`].
    pub fn from_json(json: &str) -> Result<Self, ClientError> {
        serde_json::from_str(json).map_err(|e| ClientError::Persistence(e.to_string()))
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Perform the next phase of the protocol and return the phase the
    /// session is in afterwards. Calling `step` on a settled session is an
    /// error.
    pub fn step(
        &mut self,
        world: &mut World,
        participants: &mut ParticipantSet,
    ) -> Result<SessionPhase, ClientError> {
        match self.phase {
            SessionPhase::Created => self.register_witness(world, participants),
            SessionPhase::WitnessRegistered => self.deploy_contracts(world, participants),
            SessionPhase::ContractsDeployed => self.decide(world, participants),
            SessionPhase::Decided => self.settle(world, participants),
            SessionPhase::Settled => Err(ClientError::InvalidPhase {
                action: "step".to_string(),
                phase: self.phase.to_string(),
            }),
        }
    }

    /// Run phases until the session settles (or `max_steps` are exhausted;
    /// settlement can take several attempts when participants are crashed).
    pub fn run_to_completion(
        &mut self,
        world: &mut World,
        participants: &mut ParticipantSet,
    ) -> Result<SessionPhase, ClientError> {
        let max_steps = 4 + self.config.wait_cap_deltas as usize;
        for _ in 0..max_steps {
            if self.phase == SessionPhase::Settled {
                break;
            }
            let before = self.phase;
            self.step(world, participants)?;
            if self.phase == before {
                // Settlement is waiting on a crashed participant; give the
                // world a Δ and try again.
                world.advance(world.delta_ms());
            }
        }
        Ok(self.phase)
    }

    /// The outcome of every edge, read from the chains.
    pub fn outcomes(&self, world: &World) -> Vec<EdgeOutcome> {
        self.graph
            .edges()
            .iter()
            .zip(&self.deployments)
            .map(|(e, d)| {
                let contract = d.map(|(_, c)| c);
                EdgeOutcome {
                    edge: *e,
                    contract,
                    disposition: edge_disposition(world, e.chain, contract),
                }
            })
            .collect()
    }

    /// The atomicity verdict over the current on-chain outcomes.
    pub fn verdict(&self, world: &World) -> AtomicityVerdict {
        AtomicityVerdict::from_outcomes(&self.outcomes(world))
    }

    // ------------------------------------------------------------------
    // Phase implementations
    // ------------------------------------------------------------------

    fn wait_cap(&self, world: &World) -> u64 {
        world.delta_ms() * self.config.wait_cap_deltas
    }

    fn register_witness(
        &mut self,
        world: &mut World,
        participants: &mut ParticipantSet,
    ) -> Result<SessionPhase, ClientError> {
        let expected = ac3wn::expected_contracts(world, &self.graph, self.config.deployment_depth)?;
        let spec = ac3wn::witness_spec(&self.graph, self.multisig.digest(), &expected);
        let registrant = ac3wn::first_available(&self.graph, world.now(), participants)
            .ok_or_else(|| {
                ClientError::Protocol(ProtocolError::World("no participant available".into()))
            })?;
        let Some((txid, contract)) =
            deploy_contract(world, participants, &registrant, self.witness_chain, &spec, 0)?
        else {
            return Err(ClientError::Protocol(ProtocolError::World(
                "registrant became unavailable".into(),
            )));
        };
        self.fees_paid += world.chain(self.witness_chain)?.params().deploy_fee;
        let cap = self.wait_cap(world);
        world.wait_for_depth(self.witness_chain, txid, self.config.witness_depth, cap)?;

        self.expected = expected;
        self.witness_contract = Some(contract);
        self.witness_registration_tx = Some(txid);
        self.witness_anchor = Some(world.anchor(self.witness_chain)?);
        self.phase = SessionPhase::WitnessRegistered;
        Ok(self.phase)
    }

    fn deploy_contracts(
        &mut self,
        world: &mut World,
        participants: &mut ParticipantSet,
    ) -> Result<SessionPhase, ClientError> {
        let scw = self.witness_contract.expect("phase invariant: witness registered");
        let anchor = self.witness_anchor.expect("phase invariant: witness registered");
        let edges: Vec<_> = self.graph.edges().to_vec();
        for (i, e) in edges.iter().enumerate() {
            if self.deployments[i].is_some() {
                continue;
            }
            let spec =
                ac3wn::asset_spec(e.to, self.witness_chain, scw, anchor, self.config.witness_depth);
            if let Some(deployed) =
                deploy_contract(world, participants, &e.from, e.chain, &spec, e.amount)?
            {
                self.fees_paid += world.chain(e.chain)?.params().deploy_fee;
                self.deployments[i] = Some(deployed);
            }
        }
        // Wait for whatever was submitted to reach the deployment depth.
        let pending: Vec<(ChainId, TxId)> = edges
            .iter()
            .zip(&self.deployments)
            .filter_map(|(e, d)| d.map(|(txid, _)| (e.chain, txid)))
            .collect();
        if !pending.is_empty() {
            let depth = self.config.deployment_depth;
            let cap = self.wait_cap(world);
            let wait_list = pending.clone();
            let _ = world.advance_until("client deployments to stabilise", cap, move |w| {
                wait_list.iter().all(|(chain, txid)| {
                    w.chain(*chain).ok().and_then(|c| c.tx_depth(txid)).is_some_and(|d| d >= depth)
                })
            });
        }
        self.phase = SessionPhase::ContractsDeployed;
        Ok(self.phase)
    }

    fn decide(
        &mut self,
        world: &mut World,
        participants: &mut ParticipantSet,
    ) -> Result<SessionPhase, ClientError> {
        let scw = self.witness_contract.expect("phase invariant: witness registered");
        let all_deployed = self.deployments.iter().all(Option::is_some);
        let commit = all_deployed
            && self.deployments.iter().zip(self.graph.edges()).all(|(d, e)| {
                d.is_some_and(|(txid, _)| {
                    world
                        .chain(e.chain)
                        .ok()
                        .and_then(|c| c.tx_depth(&txid))
                        .is_some_and(|depth| depth >= self.config.deployment_depth)
                })
            });

        let call = ac3wn::authorize_call(world, commit, &self.expected, &self.deployments)?;

        // Any available participant submits the decision request.
        let mut authorize_tx = None;
        for addr in self.graph.participants().to_vec() {
            if let Some(txid) =
                call_contract(world, participants, &addr, self.witness_chain, scw, &call)?
            {
                self.fees_paid += world.chain(self.witness_chain)?.params().call_fee;
                authorize_tx = Some(txid);
                break;
            }
        }
        let Some(txid) = authorize_tx else {
            // Nobody could reach the witness chain; stay in this phase so a
            // later step retries.
            return Ok(self.phase);
        };
        let cap = self.wait_cap(world);
        world.wait_for_depth(self.witness_chain, txid, self.config.witness_depth, cap)?;
        self.authorize_tx = Some(txid);
        self.decision = Some(commit);
        self.phase = SessionPhase::Decided;
        Ok(self.phase)
    }

    fn settle(
        &mut self,
        world: &mut World,
        participants: &mut ParticipantSet,
    ) -> Result<SessionPhase, ClientError> {
        let commit = self.decision.expect("phase invariant: decided");
        let anchor = self.witness_anchor.expect("phase invariant: witness registered");
        let authorize_tx = self.authorize_tx.expect("phase invariant: decided");
        let evidence = ac3wn::decision_evidence(
            world,
            self.witness_chain,
            &anchor,
            authorize_tx,
            commit,
            self.config.witness_depth,
        )?;

        let edges: Vec<_> = self.graph.edges().to_vec();
        for (i, e) in edges.iter().enumerate() {
            let Some((_, contract)) = self.deployments[i] else { continue };
            if edge_disposition(world, e.chain, Some(contract)) != EdgeDisposition::Locked {
                continue;
            }
            let (actor, call) = ac3wn::settlement_call(commit, e, &evidence);
            if let Some(txid) =
                call_contract(world, participants, &actor, e.chain, contract, &call)?
            {
                self.fees_paid += world.chain(e.chain)?.params().call_fee;
                let _ = world.wait_for_inclusion(e.chain, txid, world.delta_ms() * 2);
            }
        }

        let all_settled = edges.iter().zip(&self.deployments).all(|(e, d)| match d {
            None => true,
            Some((_, contract)) => {
                edge_disposition(world, e.chain, Some(*contract)) != EdgeDisposition::Locked
            }
        });
        if all_settled {
            self.phase = SessionPhase::Settled;
        }
        Ok(self.phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::negotiation::Negotiation;
    use crate::wallet::Wallet;
    use ac3_core::scenario::{custom_scenario, two_party_scenario, Scenario, ScenarioConfig};
    use ac3_sim::CrashWindow;

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

    #[test]
    fn happy_path_walks_every_phase_and_commits() {
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let signed = sign_scenario_graph(&s, &["alice", "bob"]);
        let mut session = SwapSession::new(signed, s.witness_chain, config()).unwrap();
        assert_eq!(session.phase(), SessionPhase::Created);

        assert_eq!(
            session.step(&mut s.world, &mut s.participants).unwrap(),
            SessionPhase::WitnessRegistered
        );
        assert_eq!(
            session.step(&mut s.world, &mut s.participants).unwrap(),
            SessionPhase::ContractsDeployed
        );
        assert_eq!(session.step(&mut s.world, &mut s.participants).unwrap(), SessionPhase::Decided);
        assert_eq!(session.decision(), Some(true));
        assert_eq!(session.step(&mut s.world, &mut s.participants).unwrap(), SessionPhase::Settled);

        assert_eq!(session.verdict(&s.world), AtomicityVerdict::AllRedeemed);
        assert!(session.fees_paid() > 0);
        // Stepping a settled session is a usage error.
        assert!(matches!(
            session.step(&mut s.world, &mut s.participants).unwrap_err(),
            ClientError::InvalidPhase { .. }
        ));
    }

    #[test]
    fn missing_deployment_leads_to_an_atomic_abort() {
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        s.participants.get_mut("bob").unwrap().schedule_crash(CrashWindow::permanent(0));
        let signed = sign_scenario_graph(&s, &["alice", "bob"]);
        let mut session = SwapSession::new(signed, s.witness_chain, config()).unwrap();
        session.run_to_completion(&mut s.world, &mut s.participants).unwrap();
        assert_eq!(session.decision(), Some(false));
        assert!(session.verdict(&s.world).is_atomic());
        assert_eq!(session.verdict(&s.world), AtomicityVerdict::AllRefunded);
    }

    #[test]
    fn session_survives_a_crash_via_json_round_trip() {
        // Drive the session up to the decision, persist it, drop it, reload
        // it, and settle from the reloaded copy — the client-level crash
        // recovery story.
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let signed = sign_scenario_graph(&s, &["alice", "bob"]);
        let mut session = SwapSession::new(signed, s.witness_chain, config()).unwrap();
        session.step(&mut s.world, &mut s.participants).unwrap();
        session.step(&mut s.world, &mut s.participants).unwrap();
        session.step(&mut s.world, &mut s.participants).unwrap();
        assert_eq!(session.phase(), SessionPhase::Decided);

        let snapshot = session.to_json();
        drop(session);
        // Simulated downtime: the world keeps producing blocks meanwhile.
        s.world.advance(20_000);

        let mut recovered = SwapSession::from_json(&snapshot).unwrap();
        assert_eq!(recovered.phase(), SessionPhase::Decided);
        assert_eq!(recovered.decision(), Some(true));
        recovered.run_to_completion(&mut s.world, &mut s.participants).unwrap();
        assert_eq!(recovered.phase(), SessionPhase::Settled);
        assert_eq!(recovered.verdict(&s.world), AtomicityVerdict::AllRedeemed);
    }

    #[test]
    fn settlement_retries_until_a_crashed_recipient_recovers() {
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        // Alice is down during the first settlement attempt but recovers.
        s.participants
            .get_mut("alice")
            .unwrap()
            .schedule_crash(CrashWindow { from: 20_000, until: 60_000 });
        let signed = sign_scenario_graph(&s, &["alice", "bob"]);
        let mut session = SwapSession::new(signed, s.witness_chain, config()).unwrap();
        let phase = session.run_to_completion(&mut s.world, &mut s.participants).unwrap();
        assert_eq!(phase, SessionPhase::Settled);
        assert_eq!(session.verdict(&s.world), AtomicityVerdict::AllRedeemed);
    }

    #[test]
    fn session_rejects_an_incomplete_multisignature() {
        let s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let mut negotiation = Negotiation::new(s.graph.clone());
        let alice = Wallet::new("alice");
        negotiation.submit(alice.sign_proposal(negotiation.proposal())).unwrap();
        // Bypass finalize() to simulate a client handed a half-signed swap.
        let graph = s.graph.clone();
        let multisig = {
            let mut ms = graph.start_multisig();
            ms.sign_with(&alice.keypair()).unwrap();
            ms
        };
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
        let names = ["manufacturer", "shipper", "retailer"];
        let mut s = custom_scenario(
            &names,
            &[(0, 1, 40), (1, 2, 25), (2, 0, 60)],
            &ScenarioConfig::default(),
        );
        let signed = sign_scenario_graph(&s, &names);
        let mut session = SwapSession::new(signed, s.witness_chain, config()).unwrap();
        session.run_to_completion(&mut s.world, &mut s.participants).unwrap();
        assert_eq!(session.phase(), SessionPhase::Settled);
        assert_eq!(session.decision(), Some(true));
        assert_eq!(session.verdict(&s.world), AtomicityVerdict::AllRedeemed);
        assert_eq!(session.outcomes(&s.world).len(), 3);
    }
}
