//! The AC3 commit sequence (Sections 4.1 and 4.2) as one resumable state
//! machine.
//!
//! The paper derives AC3WN from AC3TW by replacing one thing — who issues
//! the single commit/abort decision — and keeps the rest of the sequence:
//!
//! 1. all participants multisign the AC2T graph `(D, t)`;
//! 2. the graph is registered with the coordinator;
//! 3. **all participants deploy their asset contracts in parallel** — the
//!    key difference from the sequential hashlock baselines;
//! 4. once every deployment is stable (or some are missing after a
//!    timeout) the coordinator is asked for the commit (or abort) decision;
//! 5. all participants redeem (or refund) in parallel, presenting the
//!    decision;
//! 6. a *recovery pass* lets participants who were crashed during step 5
//!    settle later — the commitment property: once decided, the outcome
//!    eventually takes effect, with no timelock to race against.
//!
//! [`Ac3Machine`] is the only implementation of that sequence. What the two
//! protocols do differently lives in the private `Coordinator` enum: a
//! witness contract `SC_w` on a permissionless witness chain
//! ([`crate::Ac3wn`], whose transaction contents are built in
//! [`crate::ac3wn`]) or the centralized [`Trent`] ([`crate::Ac3tw`]).
//!
//! The two protocols also differ observably in a few ways that are
//! historical rather than essential. Every one is preserved here, carried
//! by the coordinator, and pinned by `tests/golden_fingerprints.rs`:
//!
//! * under Trent `WitnessRegistered` is recorded at start (registration is
//!   an immediate off-chain call), and `ContractPublished` /
//!   `ContractRedeemed` / `ContractRefunded` are never recorded;
//! * under Trent `finished_at` is stamped when the decision is requested,
//!   even if none is issued;
//! * Trent is asked to redeem only if every contract is in state `P` on
//!   its chain, on top of the deployments being stable;
//! * an unreachable witness chain is retried until the wait cap
//!   (`retry-authorize`); an unavailable Trent ends the run at once with
//!   every asset locked.

use crate::ac3tw::Trent;
use crate::ac3wn;
use crate::actions::edge_disposition;
use crate::driver::{tx_at_depth, tx_stable, wait_timeout, MachineFootprint, Step, SwapMachine};
use crate::fee::{BidBook, BidChange};
use crate::graph::{SwapEdge, SwapGraph};
use crate::protocol::{
    EdgeDisposition, EdgeOutcome, ProtocolConfig, ProtocolError, ProtocolKind, SwapReport,
};
use ac3_chain::{Address, ChainId, ContractId, Timestamp, TxId};
use ac3_contracts::{
    CentralizedCall, CentralizedSpec, ChainAnchor, ContractCall, ContractSpec, ExpectedContract,
};
use ac3_crypto::{Hash256, KeyPair, Signature};
use ac3_sim::{ChainApi, EventKind, ParticipantSet, Timeline};
use std::borrow::Cow;

/// Who issues the single commit/abort decision — everything AC3WN and
/// AC3TW do differently.
#[derive(Debug)]
enum Coordinator {
    /// AC3WN: a witness contract on a permissionless witness chain.
    Witness(Box<WitnessContract>),
    /// AC3TW: the centralized trusted witness, embedded in the machine.
    Trent {
        trent: Trent,
        /// Whether Trent accepted the registration (he refuses when down).
        registered: bool,
        graph_digest: Hash256,
        /// The decision signature, once issued.
        signature: Option<Signature>,
    },
}

/// What the machine knows about `SC_w` as the run progresses.
#[derive(Debug)]
struct WitnessContract {
    chain: ChainId,
    /// Expected asset contracts (one per edge), fixed at registration.
    expected: Vec<ExpectedContract>,
    scw: Option<ContractId>,
    /// The stable witness-chain block every asset contract stores as its
    /// evidence anchor. It precedes the authorize call by construction.
    anchor: Option<ChainAnchor>,
    /// The authorize call nobody could submit yet, with its encoded
    /// payload: the next retry re-encodes only if the rebuilt call differs.
    /// Dropped once the call is in flight (its bid keeps the payload).
    authorize: Option<(ContractCall, Vec<u8>)>,
    authorize_txid: Option<TxId>,
    /// The settlement call presenting the evidence of the buried decision,
    /// encoded once when the decision is reached: it names no edge, so every
    /// settlement and every recovery round submits these same bytes.
    settlement: Option<Vec<u8>>,
}

impl Coordinator {
    fn kind(&self) -> ProtocolKind {
        match self {
            Coordinator::Witness(_) => ProtocolKind::Ac3Wn,
            Coordinator::Trent { .. } => ProtocolKind::Ac3Tw,
        }
    }

    fn witness(&self) -> Option<&WitnessContract> {
        match self {
            Coordinator::Witness(w) => Some(w.as_ref()),
            Coordinator::Trent { .. } => None,
        }
    }

    /// The witness contract behind the phases only AC3WN enters
    /// (`AwaitRegistration`, `RetryAuthorize`, `AwaitDecision`).
    fn witness_mut(&mut self) -> &mut WitnessContract {
        match self {
            Coordinator::Witness(w) => w,
            Coordinator::Trent { .. } => unreachable!("Trent never waits on a witness chain"),
        }
    }

    /// The asset contract an edge deploys (step 3).
    fn asset_spec(&self, recipient: Address, witness_depth: u64) -> ContractSpec {
        match self {
            Coordinator::Witness(w) => ac3wn::asset_spec(
                recipient,
                w.chain,
                w.scw.expect("witness contract registered before deployments"),
                w.anchor.expect("anchor fixed before deployments"),
                witness_depth,
            ),
            Coordinator::Trent { trent, graph_digest, .. } => {
                ContractSpec::Centralized(CentralizedSpec {
                    recipient,
                    graph_digest: *graph_digest,
                    witness_key: trent.public_key(),
                })
            }
        }
    }

    /// The encoded settlement call every edge presents (step 5): `Redeem`
    /// on commit, `Refund` on abort.
    fn settlement_payload(&self, commit: bool) -> Cow<'_, [u8]> {
        match self {
            Coordinator::Witness(w) => {
                Cow::Borrowed(w.settlement.as_deref().expect("settlement follows a decision"))
            }
            Coordinator::Trent { signature, .. } => {
                let signature = signature.expect("settlement follows a decision");
                let call = if commit {
                    CentralizedCall::Redeem { signature }
                } else {
                    CentralizedCall::Refund { signature }
                };
                Cow::Owned(ContractCall::Centralized(call).to_payload())
            }
        }
    }

    /// Follow a replace-by-fee rewrite of the coordinator's own
    /// transactions.
    fn apply_bid_change(&mut self, change: &BidChange) {
        let Coordinator::Witness(w) = self else { return };
        if change.deploy && w.scw == Some(change.old_contract()) {
            w.scw = Some(change.new_contract());
        }
        if let Some(txid) = &mut w.authorize_txid {
            change.rewrite_txid(txid);
        }
    }
}

/// Phase of the machine. Waits carry the deadline computed when the phase
/// was entered, reproducing the blocking drivers' capped waits.
#[derive(Debug)]
enum Phase {
    /// Nothing has happened yet; the first poll signs the graph and
    /// registers it with the coordinator.
    Start,
    /// `SC_w` submitted; waiting for the registration to be buried.
    AwaitRegistration { reg_txid: TxId, deadline: Timestamp },
    /// All asset contracts submitted; waiting for every deployment to reach
    /// the required depth.
    AwaitDeployments { deadline: Timestamp },
    /// Some participant failed to publish; idling through the configured
    /// grace period before requesting an abort.
    AbortGrace { until: Timestamp },
    /// Nobody could reach the witness chain to submit the authorize call;
    /// retrying once per block interval until the wait cap. A partition
    /// that heals inside the cap converts what used to be a parked swap
    /// into a late decision instead.
    RetryAuthorize { commit: bool, deadline: Timestamp },
    /// Authorize call submitted; waiting for the decision to be buried.
    AwaitDecision { deadline: Timestamp },
    /// Settlement calls submitted; waiting for them to stabilise.
    AwaitSettlements { deadline: Timestamp },
    /// Recovery pass: idling one Δ before re-attempting unsettled edges.
    RecoveryIdle { rounds_left: u64, until: Timestamp },
    /// Recovery pass: waiting for re-attempted settlements to be included.
    AwaitRecoveryInclusion { rounds_left: u64, pending: Vec<(ChainId, TxId)>, deadline: Timestamp },
    /// Terminal.
    Finished,
}

/// The AC3 commit sequence as a resumable state machine (see
/// [`crate::driver`]), built by [`crate::Ac3wn::machine`] or
/// [`crate::Ac3tw::machine`]: each [`SwapMachine::poll`] does as much work
/// as the current simulated instant allows and reports when polling again
/// is useful, so many AC2Ts can interleave over shared chains under the
/// [`crate::scheduler::Scheduler`].
#[derive(Debug)]
pub struct Ac3Machine {
    config: ProtocolConfig,
    graph: SwapGraph,
    coordinator: Coordinator,
    phase: Phase,
    timeline: Timeline,
    // Fixed at the first poll.
    started_at: Timestamp,
    delta: u64,
    wait_cap: u64,
    // Accumulated metrics.
    deployments: u64,
    calls: u64,
    fees: u64,
    fees_scheduled: u64,
    fee_rebids: u64,
    /// Live fee bids (one per submitted transaction), escalated each poll
    /// under the configured [`crate::fee::FeePolicy`].
    bids: BidBook,
    // Data carried across phases.
    edges: Vec<SwapEdge>,
    edge_deploys: Vec<Option<(TxId, ContractId)>>,
    commit: Option<bool>,
    settlements: Vec<Option<(ChainId, TxId)>>,
    finished_at: Option<Timestamp>,
    report: Option<SwapReport>,
}

impl Ac3Machine {
    /// A machine coordinated by a witness contract on `witness_chain`.
    pub(crate) fn with_witness(
        config: ProtocolConfig,
        graph: SwapGraph,
        witness_chain: ChainId,
    ) -> Self {
        let witness = WitnessContract {
            chain: witness_chain,
            expected: Vec::new(),
            scw: None,
            anchor: None,
            authorize: None,
            authorize_txid: None,
            settlement: None,
        };
        Self::new(config, graph, Coordinator::Witness(Box::new(witness)))
    }

    /// A machine coordinated by its own [`Trent`] instance.
    pub(crate) fn with_trent(config: ProtocolConfig, graph: SwapGraph, trent: Trent) -> Self {
        let coordinator = Coordinator::Trent {
            trent,
            registered: false,
            graph_digest: Hash256::default(),
            signature: None,
        };
        Self::new(config, graph, coordinator)
    }

    fn new(config: ProtocolConfig, graph: SwapGraph, coordinator: Coordinator) -> Self {
        let edges = graph.edges().to_vec();
        let n = edges.len();
        let bids = BidBook::new(config.fee_policy);
        Ac3Machine {
            config,
            graph,
            coordinator,
            phase: Phase::Start,
            timeline: Timeline::new(),
            started_at: 0,
            delta: 0,
            wait_cap: 0,
            deployments: 0,
            calls: 0,
            fees: 0,
            fees_scheduled: 0,
            fee_rebids: 0,
            bids,
            edges,
            edge_deploys: Vec::new(),
            commit: None,
            settlements: vec![None; n],
            finished_at: None,
            report: None,
        }
    }

    /// The witness contract `SC_w`, once submitted (AC3WN only).
    pub fn witness_contract(&self) -> Option<ContractId> {
        self.coordinator.witness()?.scw
    }

    /// The witness-chain anchor every asset contract stores, once the
    /// registration is buried (AC3WN only).
    pub fn witness_anchor(&self) -> Option<ChainAnchor> {
        self.coordinator.witness()?.anchor
    }

    /// The asset contracts `SC_w` expects, one per edge, once registration
    /// was attempted (empty under AC3TW).
    pub fn expected_contracts(&self) -> &[ExpectedContract] {
        self.coordinator.witness().map_or(&[], |w| w.expected.as_slice())
    }

    /// The deployment of each edge, once attempted: `None` where the sender
    /// could not publish. Empty until step 3.
    pub fn deployments(&self) -> &[Option<(TxId, ContractId)>] {
        &self.edge_deploys
    }

    /// The authorize call in flight or buried on the witness chain (AC3WN
    /// only).
    pub fn authorize_txid(&self) -> Option<TxId> {
        self.coordinator.witness()?.authorize_txid
    }

    fn record(&mut self, world: &mut dyn ChainApi, at: Timestamp, kind: EventKind) {
        self.timeline.record(at, kind.clone());
        world.record(at, kind);
    }

    fn poll_step(&self, world: &dyn ChainApi) -> Step {
        Step::Waiting { not_before: world.now() + world.min_block_interval_ms() }
    }

    /// Rewrite every stored copy of a transaction/contract id that a
    /// replace-by-fee escalation superseded.
    fn apply_bid_change(&mut self, change: &BidChange) {
        change.apply_accounting(&mut self.fees, &mut self.fee_rebids);
        self.coordinator.apply_bid_change(change);
        if change.deploy {
            for deploy in self.edge_deploys.iter_mut().flatten() {
                if deploy.0 == change.old_txid {
                    *deploy = (change.new_txid, change.new_contract());
                }
            }
        }
        for settlement in self.settlements.iter_mut().flatten() {
            change.rewrite_txid(&mut settlement.1);
        }
        match &mut self.phase {
            Phase::AwaitRegistration { reg_txid, .. } => change.rewrite_txid(reg_txid),
            Phase::AwaitRecoveryInclusion { pending, .. } => {
                for entry in pending.iter_mut() {
                    change.rewrite_txid(&mut entry.1);
                }
            }
            _ => {}
        }
    }

    /// Indices of deployed edges whose contract is still locked in `P` —
    /// the candidates of a recovery pass.
    fn unsettled(&self, world: &dyn ChainApi) -> Vec<usize> {
        (0..self.edges.len())
            .filter(|&i| {
                self.edge_deploys.get(i).copied().flatten().is_some_and(|(_, contract)| {
                    edge_disposition(world, self.edges[i].chain, Some(contract))
                        == EdgeDisposition::Locked
                })
            })
            .collect()
    }

    fn finish(&mut self, world: &dyn ChainApi, decision: Option<bool>) -> Step {
        let outcomes = self
            .edges
            .iter()
            .zip(&self.edge_deploys)
            .map(|(e, d)| {
                let contract = d.map(|(_, c)| c);
                EdgeOutcome {
                    edge: *e,
                    contract,
                    disposition: edge_disposition(world, e.chain, contract),
                }
            })
            .collect();
        let report = SwapReport {
            protocol: self.coordinator.kind(),
            decision,
            edges: outcomes,
            started_at: self.started_at,
            finished_at: self.finished_at.unwrap_or_else(|| world.now()),
            delta_ms: self.delta,
            deployments: self.deployments,
            calls: self.calls,
            fees_paid: self.fees,
            fees_scheduled: self.fees_scheduled,
            fee_rebids: self.fee_rebids,
            timeline: self.timeline.clone(),
        };
        self.report = Some(report.clone());
        self.phase = Phase::Finished;
        Step::Done(Box::new(report))
    }

    /// Register the signed graph with the coordinator (step 2) and move
    /// on: the witness contract is deployed on chain and awaited, Trent
    /// answers at once so the deployments follow in the same poll.
    /// `Ok(false)` means nobody could reach the witness chain.
    fn register(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
        graph_digest: Hash256,
    ) -> Result<bool, ProtocolError> {
        let now = world.now();
        match &mut self.coordinator {
            Coordinator::Witness(w) => {
                w.expected =
                    ac3wn::expected_contracts(world, &self.graph, self.config.deployment_depth)?;
                let spec = ac3wn::witness_spec(&self.graph, graph_digest, &w.expected);
                let Some(registrant) = ac3wn::first_available(&self.graph, now, participants)
                else {
                    return Ok(false);
                };
                let Some((reg_txid, scw, fee)) =
                    self.bids.submit_deploy(world, participants, &registrant, w.chain, &spec, 0)?
                else {
                    return Ok(false);
                };
                self.deployments += 1;
                self.fees += fee;
                self.fees_scheduled += world.chain(w.chain)?.params().deploy_fee;
                w.scw = Some(scw);
                self.phase = Phase::AwaitRegistration { reg_txid, deadline: now + self.wait_cap };
            }
            Coordinator::Trent { trent, registered, graph_digest: digest, .. } => {
                *digest = graph_digest;
                *registered = trent.register(graph_digest).is_ok();
                if *registered {
                    self.record(world, now, EventKind::WitnessRegistered);
                }
                self.submit_deployments(world, participants)?;
            }
        }
        Ok(true)
    }

    /// Submit every asset-contract deployment (step 3), then pick the wait
    /// that follows: stabilisation when everyone published, the abort grace
    /// period otherwise.
    fn submit_deployments(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
    ) -> Result<(), ProtocolError> {
        for i in 0..self.edges.len() {
            let e = self.edges[i];
            let spec = self.coordinator.asset_spec(e.to, self.config.witness_depth);
            let deployed =
                self.bids.submit_deploy(world, participants, &e.from, e.chain, &spec, e.amount)?;
            let deployed = deployed.map(|(txid, contract, fee)| {
                self.deployments += 1;
                self.fees += fee;
                (txid, contract)
            });
            if let Some((_, contract)) = deployed {
                self.fees_scheduled += world.chain(e.chain)?.params().deploy_fee;
                let now = world.now();
                self.record(world, now, EventKind::ContractSubmitted { chain: e.chain, contract });
            }
            self.edge_deploys.push(deployed);
        }
        let now = world.now();
        self.phase = if self.edge_deploys.iter().all(Option::is_some) {
            Phase::AwaitDeployments { deadline: now + self.wait_cap }
        } else {
            Phase::AbortGrace { until: now + self.config.abort_after_deltas * self.delta }
        };
        Ok(())
    }

    /// Ask the coordinator for the decision (step 4); `stable` says whether
    /// every deployment reached its depth. The witness contract is sent an
    /// authorize call, whose burial is the decision — when nobody can reach
    /// the witness chain the swap does not park, it enters
    /// [`Phase::RetryAuthorize`] until the wait cap expires. Trent verifies
    /// the deployments himself, as a trusted observer of all chains, and
    /// answers at once or not at all.
    fn request_decision(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
        stable: bool,
    ) -> Result<(), ProtocolError> {
        let now = world.now();
        let Coordinator::Trent { trent, registered, graph_digest, signature } =
            &mut self.coordinator
        else {
            self.commit = Some(stable);
            for i in 0..self.edges.len() {
                if let Some((_, contract)) = self.edge_deploys[i] {
                    let chain = self.edges[i].chain;
                    self.record(world, now, EventKind::ContractPublished { chain, contract });
                }
            }
            if !self.try_submit_authorize(world, participants, stable)? {
                self.phase =
                    Phase::RetryAuthorize { commit: stable, deadline: now + self.wait_cap };
            }
            return Ok(());
        };
        let all_published = stable
            && self.edge_deploys.iter().zip(&self.edges).all(|(d, e)| {
                d.is_some_and(|(_, contract)| {
                    world.contract_state(e.chain, contract).is_some_and(|(tag, _)| tag == "P")
                })
            });
        *signature = if !*registered {
            None
        } else if all_published {
            trent.request_redeem(*graph_digest, true).ok()
        } else {
            trent.request_refund(*graph_digest).ok()
        };
        self.commit = signature.map(|_| all_published);
        self.finished_at = Some(now);
        match self.commit {
            Some(commit) => self.submit_settlements(world, participants, commit),
            None => {
                // No decision could be produced (unregistered graph or an
                // unavailable Trent): every asset stays locked.
                self.phase = Phase::Finished;
                Ok(())
            }
        }
    }

    /// One attempt at submitting the authorize call from whichever
    /// participant is first able to. `Ok(true)` means the call is in flight
    /// and the machine moved to [`Phase::AwaitDecision`]; `Ok(false)` means
    /// no participant could reach the witness chain right now (crashed, or
    /// the chain is partitioned) — the caller decides whether to retry.
    fn try_submit_authorize(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
        commit: bool,
    ) -> Result<bool, ProtocolError> {
        let w = self.coordinator.witness_mut();
        let scw = w.scw.expect("witness contract registered before authorize");
        let call = ac3wn::authorize_call(world, commit, &w.expected, &self.edge_deploys)?;
        let (call, payload) = match w.authorize.take() {
            Some(last) if last.0 == call => last,
            _ => {
                let payload = call.to_payload();
                (call, payload)
            }
        };
        for addr in self.graph.participants() {
            let Some((txid, fee)) =
                self.bids.submit_encoded_call(world, participants, addr, w.chain, scw, &payload)?
            else {
                continue;
            };
            self.calls += 1;
            self.fees += fee;
            self.fees_scheduled += world.chain(w.chain)?.params().call_fee;
            w.authorize_txid = Some(txid);
            self.phase = Phase::AwaitDecision { deadline: world.now() + self.wait_cap };
            return Ok(true);
        }
        w.authorize = Some((call, payload));
        Ok(false)
    }

    /// The decision is known: record it and submit every settlement call
    /// (step 5).
    fn submit_settlements(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
        commit: bool,
    ) -> Result<(), ProtocolError> {
        let now = world.now();
        self.record(world, now, EventKind::DecisionReached { commit });
        if let Coordinator::Witness(w) = &mut self.coordinator {
            let evidence = ac3wn::decision_evidence(
                world,
                w.chain,
                &w.anchor.expect("anchor fixed before settlement"),
                w.authorize_txid.expect("decision reached before settlement"),
                commit,
                self.config.witness_depth,
            )?;
            w.settlement = Some(ac3wn::settlement(commit, evidence).to_payload());
        }
        for i in 0..self.edges.len() {
            if let Some(txid) = self.submit_settlement(world, participants, commit, i)? {
                self.settlements[i] = Some((self.edges[i].chain, txid));
            }
        }
        self.phase = Phase::AwaitSettlements { deadline: world.now() + self.wait_cap };
        Ok(())
    }

    /// Submit the settlement call of edge `i`, if it was deployed and its
    /// settling participant can act: the recipient redeems on commit, the
    /// sender refunds on abort.
    fn submit_settlement(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
        commit: bool,
        i: usize,
    ) -> Result<Option<TxId>, ProtocolError> {
        let e = self.edges[i];
        let Some((_, contract)) = self.edge_deploys[i] else { return Ok(None) };
        let actor = if commit { e.to } else { e.from };
        let payload = self.coordinator.settlement_payload(commit);
        let Some((txid, fee)) = self.bids.submit_encoded_call(
            world,
            participants,
            &actor,
            e.chain,
            contract,
            &payload,
        )?
        else {
            return Ok(None);
        };
        self.calls += 1;
        self.fees += fee;
        self.fees_scheduled += world.chain(e.chain)?.params().call_fee;
        Ok(Some(txid))
    }

    /// Record what every edge with a settlement call in flight became.
    fn record_settlements(&mut self, world: &mut dyn ChainApi, now: Timestamp, commit: bool) {
        for i in 0..self.edges.len() {
            if let (Some((_, contract)), Some(_)) = (self.edge_deploys[i], self.settlements[i]) {
                let chain = self.edges[i].chain;
                let kind = if commit {
                    EventKind::ContractRedeemed { chain, contract }
                } else {
                    EventKind::ContractRefunded { chain, contract }
                };
                self.record(world, now, kind);
            }
        }
    }

    /// Re-attempt settlement of the still-locked edges (recovery pass): the
    /// decision has no expiry, so recovered participants settle late
    /// without losing assets.
    fn attempt_recovery(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
        rounds_left: u64,
    ) -> Result<(), ProtocolError> {
        let commit = self.commit.expect("recovery follows a decision");
        let mut pending = Vec::new();
        for i in self.unsettled(world) {
            if let Some(txid) = self.submit_settlement(world, participants, commit, i)? {
                pending.push((self.edges[i].chain, txid));
            }
        }
        self.phase = if pending.is_empty() {
            self.next_recovery_phase(world, rounds_left)
        } else {
            Phase::AwaitRecoveryInclusion {
                rounds_left,
                pending,
                deadline: world.now() + self.delta * 2,
            }
        };
        Ok(())
    }

    /// Decide whether another recovery round is warranted.
    fn next_recovery_phase(&self, world: &dyn ChainApi, rounds_left: u64) -> Phase {
        if rounds_left == 0 || self.unsettled(world).is_empty() {
            Phase::Finished
        } else {
            Phase::RecoveryIdle { rounds_left, until: world.now() + self.delta }
        }
    }
}

impl SwapMachine for Ac3Machine {
    fn footprint(&self) -> MachineFootprint {
        // Asset chains from the graph plus the witness chain — Trent is
        // embedded in the machine, not a world resource; every graph
        // participant may sign (deploys, redeems, recovery).
        let mut chains = self.graph.chains();
        let witness_chain = self.coordinator.witness().map(|w| w.chain);
        chains.extend(witness_chain.filter(|c| !chains.contains(c)));
        MachineFootprint { chains, actors: self.graph.participants().to_vec() }
    }

    fn poll(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
    ) -> Result<Step, ProtocolError> {
        if !matches!(self.phase, Phase::Finished) {
            // Fee market: re-bid any submission stuck behind higher bids
            // before doing phase work against possibly-stale ids.
            for change in self.bids.poll(world, participants)? {
                self.apply_bid_change(&change);
            }
        }
        loop {
            match &self.phase {
                Phase::Start => {
                    let now = world.now();
                    self.started_at = now;
                    self.delta = world.delta_ms();
                    self.wait_cap = self.delta * self.config.wait_cap_deltas;

                    // Step 1: multisign the graph.
                    let keypairs: Vec<KeyPair> = self
                        .graph
                        .participants()
                        .iter()
                        .filter_map(|a| participants.by_address(a).map(|p| p.keypair()))
                        .collect();
                    let ms = self.graph.multisign(&keypairs)?;
                    self.record(world, now, EventKind::GraphSigned);

                    if !self.register(world, participants, ms.digest())? {
                        return Ok(self.finish(world, None));
                    }
                }
                Phase::AwaitRegistration { reg_txid, deadline } => {
                    let (reg_txid, deadline) = (*reg_txid, *deadline);
                    let chain = self.coordinator.witness_mut().chain;
                    if tx_at_depth(world, chain, &reg_txid, self.config.witness_depth) {
                        let now = world.now();
                        self.record(world, now, EventKind::WitnessRegistered);
                        self.coordinator.witness_mut().anchor = Some(world.anchor(chain)?);
                        self.submit_deployments(world, participants)?;
                    } else if world.now() >= deadline {
                        return Err(wait_timeout(
                            &format!("tx {reg_txid} at depth {}", self.config.witness_depth),
                            world.now(),
                        ));
                    } else {
                        return Ok(self.poll_step(world));
                    }
                }
                Phase::AwaitDeployments { deadline } => {
                    let deadline = *deadline;
                    let all_deep = self.edge_deploys.iter().zip(&self.edges).all(|(d, e)| {
                        d.as_ref().is_some_and(|(txid, _)| {
                            tx_at_depth(world, e.chain, txid, self.config.deployment_depth)
                        })
                    });
                    if all_deep {
                        self.request_decision(world, participants, true)?;
                    } else if world.now() >= deadline {
                        // The deployments never stabilised within the cap:
                        // request an abort rather than fail the run.
                        self.request_decision(world, participants, false)?;
                    } else {
                        return Ok(self.poll_step(world));
                    }
                }
                Phase::AbortGrace { until } => {
                    let until = *until;
                    if world.now() >= until {
                        self.request_decision(world, participants, false)?;
                    } else {
                        return Ok(Step::Waiting { not_before: until });
                    }
                }
                Phase::RetryAuthorize { commit, deadline } => {
                    let (commit, deadline) = (*commit, *deadline);
                    if self.try_submit_authorize(world, participants, commit)? {
                        continue; // now awaiting the decision
                    }
                    if world.now() >= deadline {
                        // The witness chain stayed unreachable for the whole
                        // wait cap; the swap stays locked (assets recoverable
                        // once someone can submit a refund authorization
                        // later — outside this run).
                        return Ok(self.finish(world, None));
                    }
                    return Ok(self.poll_step(world));
                }
                Phase::AwaitDecision { deadline } => {
                    let deadline = *deadline;
                    let w = self.coordinator.witness_mut();
                    let (chain, txid) = (w.chain, w.authorize_txid.expect("authorize submitted"));
                    if tx_at_depth(world, chain, &txid, self.config.witness_depth) {
                        let commit = self.commit.expect("decision chosen at authorize");
                        self.submit_settlements(world, participants, commit)?;
                    } else if world.now() >= deadline {
                        return Err(wait_timeout(
                            &format!("tx {txid} at depth {}", self.config.witness_depth),
                            world.now(),
                        ));
                    } else {
                        return Ok(self.poll_step(world));
                    }
                }
                Phase::AwaitSettlements { deadline } => {
                    let deadline = *deadline;
                    let all_stable = self
                        .settlements
                        .iter()
                        .flatten()
                        .all(|(chain, txid)| tx_stable(world, *chain, txid));
                    // Failures (e.g. evidence rejected after a fork attack)
                    // simply leave the edge locked and are reflected in the
                    // outcome audit — the wait gives up at the deadline.
                    if all_stable || world.now() >= deadline {
                        let commit = self.commit.expect("settlement follows a decision");
                        let now = world.now();
                        // Per-contract events are AC3WN's alone (a preserved
                        // asymmetry, see the module docs).
                        if self.coordinator.witness().is_some() {
                            self.record_settlements(world, now, commit);
                        }
                        self.finished_at = Some(now);
                        self.phase = if self.config.allow_recovery_redemption {
                            self.next_recovery_phase(world, self.config.wait_cap_deltas)
                        } else {
                            Phase::Finished
                        };
                    } else {
                        return Ok(self.poll_step(world));
                    }
                }
                Phase::RecoveryIdle { rounds_left, until } => {
                    let (rounds_left, until) = (*rounds_left, *until);
                    if world.now() >= until {
                        self.attempt_recovery(world, participants, rounds_left - 1)?;
                    } else {
                        return Ok(Step::Waiting { not_before: until });
                    }
                }
                Phase::AwaitRecoveryInclusion { rounds_left, pending, deadline } => {
                    let (rounds_left, deadline) = (*rounds_left, *deadline);
                    let all_included =
                        pending.iter().all(|(chain, txid)| tx_at_depth(world, *chain, txid, 0));
                    if all_included || world.now() >= deadline {
                        self.phase = self.next_recovery_phase(world, rounds_left);
                    } else {
                        return Ok(self.poll_step(world));
                    }
                }
                Phase::Finished => {
                    if let Some(report) = &self.report {
                        return Ok(Step::Done(Box::new(report.clone())));
                    }
                    let decision = self.commit;
                    return Ok(self.finish(world, decision));
                }
            }
        }
    }

    fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Start => "start",
            Phase::AwaitRegistration { .. } => "await-registration",
            Phase::AwaitDeployments { .. } => "await-deployments",
            Phase::AbortGrace { .. } => "abort-grace",
            Phase::RetryAuthorize { .. } => "retry-authorize",
            Phase::AwaitDecision { .. } => "await-decision",
            Phase::AwaitSettlements { .. } => "await-settlements",
            Phase::RecoveryIdle { .. } => "recovery-idle",
            Phase::AwaitRecoveryInclusion { .. } => "recovery-inclusion",
            Phase::Finished => "finished",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AtomicityVerdict;
    use crate::scenario::{
        figure7a_scenario, figure7b_scenario, ring_scenario, two_party_scenario, Scenario,
        ScenarioConfig,
    };
    use crate::{Ac3tw, Ac3wn};
    use ac3_chain::{Amount, BlockHash, Blockchain, Transaction, TxKind};
    use ac3_contracts::TxInclusionEvidence;
    use ac3_sim::{ChainCongestion, CrashWindow, OutageWindow, World, WorldError};
    use proptest::prelude::*;

    type Execute = fn(&mut Scenario) -> Result<SwapReport, ProtocolError>;

    fn wn() -> Ac3wn {
        Ac3wn::new(ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() })
    }

    fn tw() -> Ac3tw {
        Ac3tw::new(ProtocolConfig::default())
    }

    /// Both drivers, with what the coordinator adds to each on-chain count
    /// (`SC_w`'s deployment and the authorize call; Trent is off chain) and
    /// the simulated time of the two-party decision.
    fn both() -> [(ProtocolKind, Execute, u64, Timestamp); 2] {
        [
            (ProtocolKind::Ac3Wn, |s| wn().execute(s), 1, 12_000),
            (ProtocolKind::Ac3Tw, |s| tw().execute(s), 0, 2_000),
        ]
    }

    #[test]
    fn two_party_swap_commits_atomically() {
        for (kind, execute, coordinator_txs, _) in both() {
            let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
            let alice = s.participants.get("alice").unwrap().address();
            let bob = s.participants.get("bob").unwrap().address();
            let chain_a = s.asset_chains[0];
            let chain_b = s.asset_chains[1];

            let report = execute(&mut s).unwrap();
            assert_eq!(report.protocol, kind);
            assert_eq!(report.decision, Some(true));
            assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
            // Assets changed hands: Bob received 50 on chain A, Alice 80 on B.
            assert!(s.world.chain(chain_a).unwrap().balance_of(&bob) >= 1_000 + 50 - 10);
            assert!(s.world.chain(chain_b).unwrap().balance_of(&alice) >= 1_000 + 80 - 10);
            // N asset contracts and N redeems, plus the coordinator's own.
            assert_eq!(report.deployments, 2 + coordinator_txs, "{kind}");
            assert_eq!(report.calls, 2 + coordinator_txs, "{kind}");
            assert!(report.is_atomic());
        }
    }

    #[test]
    fn declined_deployment_leads_to_atomic_abort() {
        for (kind, execute, ..) in both() {
            let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
            // Bob crashes before deploying and never recovers.
            s.participants.get_mut("bob").unwrap().schedule_crash(CrashWindow::permanent(0));
            let report = execute(&mut s).unwrap();
            assert_eq!(report.decision, Some(false), "{kind}");
            // Alice's contract is refunded, Bob's was never published: atomic.
            assert!(report.is_atomic());
            assert_eq!(report.verdict(), AtomicityVerdict::AllRefunded, "{kind}");
        }
    }

    #[test]
    fn crash_during_redemption_does_not_violate_atomicity() {
        // The paper's motivating failure: the redeemer is down when the
        // decision lands. There is no timelock to race; Bob redeems in the
        // recovery pass after he returns — a still-locked edge would make
        // the verdict `Incomplete`.
        for (kind, execute, _, decided_at) in both() {
            let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
            s.participants.get_mut("bob").unwrap().schedule_crash(CrashWindow {
                from: decided_at - 1_000,
                until: decided_at + 30_000,
            });
            let report = execute(&mut s).unwrap();
            assert_eq!(report.decision, Some(true), "{kind}");
            assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed, "{kind}");
            assert!(s.world.now() >= decided_at + 30_000, "{kind}: recovery waited for Bob");
        }
    }

    #[test]
    fn complex_graphs_commit() {
        type Build = fn(&ScenarioConfig) -> Scenario;
        let scenarios: [(Build, u64); 2] = [(figure7a_scenario, 3), (figure7b_scenario, 4)];
        for (kind, execute, coordinator_txs, _) in both() {
            for (scenario, edges) in scenarios {
                let mut s = scenario(&ScenarioConfig::default());
                let report = execute(&mut s).unwrap();
                assert_eq!(report.decision, Some(true), "{kind}");
                assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed, "{kind}");
                assert_eq!(report.deployments, edges + coordinator_txs, "{kind}");
            }
        }
    }

    #[test]
    fn latency_is_independent_of_graph_diameter() {
        // The headline claim: latency stays ~4Δ as the diameter grows.
        let mut latencies = Vec::new();
        for n in [2usize, 4, 6] {
            let mut s = ring_scenario(n, 10, &ScenarioConfig::default());
            let report = wn().execute(&mut s).unwrap();
            assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed, "ring of {n}");
            latencies.push(report.latency_in_deltas());
        }
        let min = latencies.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = latencies.iter().cloned().fold(0.0f64, f64::max);
        assert!(max - min <= 1.0, "latency grew with diameter: {latencies:?}");
        assert!(max <= 6.0, "latency should stay near 4Δ, got {latencies:?}");
    }

    #[test]
    fn machine_reports_phase_progression() {
        // The machine is observable mid-flight: phases advance monotonically
        // through the protocol steps while the caller owns the clock.
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let mut machine = wn().machine(s.graph.clone(), s.witness_chain);
        assert_eq!(machine.phase_name(), "start");
        let mut seen = vec![machine.phase_name()];
        let report = loop {
            match machine.poll(&mut s.world, &mut s.participants).unwrap() {
                Step::Done(report) => break report,
                Step::Waiting { not_before } => {
                    if *seen.last().unwrap() != machine.phase_name() {
                        seen.push(machine.phase_name());
                    }
                    let dt = not_before.saturating_sub(s.world.now()).max(1);
                    s.world.advance(dt);
                }
            }
        };
        assert_eq!(report.decision, Some(true));
        assert!(seen.contains(&"await-registration"), "saw phases {seen:?}");
        assert!(seen.contains(&"await-deployments"), "saw phases {seen:?}");
        assert!(seen.contains(&"await-decision"), "saw phases {seen:?}");
        assert_eq!(machine.phase_name(), "finished");
        // Terminal polls are idempotent.
        match machine.poll(&mut s.world, &mut s.participants).unwrap() {
            Step::Done(again) => assert_eq!(again.finished_at, report.finished_at),
            Step::Waiting { .. } => panic!("terminal machine must stay done"),
        }
    }

    /// A witness chain whose partition the participants cannot see: every
    /// submission to it inside `lost` goes out and is lost on the way (the
    /// sender gets `ChainUnreachable`). Every call sent to the witness
    /// chain is logged with the machine phase its poll started in.
    struct LossyWitnessLink<'a> {
        world: &'a mut World,
        witness: ChainId,
        lost: OutageWindow,
        phase: &'static str,
        sent: &'a mut Vec<(&'static str, Vec<u8>)>,
    }

    impl ChainApi for LossyWitnessLink<'_> {
        fn now(&self) -> Timestamp {
            self.world.now()
        }

        fn delta_ms(&self) -> u64 {
            self.world.delta_ms()
        }

        fn min_block_interval_ms(&self) -> u64 {
            self.world.min_block_interval_ms()
        }

        fn is_reachable(&self, chain: ChainId) -> bool {
            self.world.is_reachable(chain)
        }

        fn chain(&self, chain: ChainId) -> Result<&Blockchain, WorldError> {
            self.world.chain(chain)
        }

        fn anchor(&self, chain: ChainId) -> Result<ChainAnchor, WorldError> {
            self.world.anchor(chain)
        }

        fn tx_evidence_since(
            &self,
            chain: ChainId,
            anchor: &ChainAnchor,
            txid: TxId,
        ) -> Result<TxInclusionEvidence, WorldError> {
            self.world.tx_evidence_since(chain, anchor, txid)
        }

        fn contract_state(&self, chain: ChainId, contract: ContractId) -> Option<(String, u64)> {
            self.world.contract_state(chain, contract)
        }

        fn is_billed(&self, txid: &TxId) -> bool {
            self.world.fees.is_billed(txid)
        }

        fn congestion(&mut self, chain: ChainId) -> Result<ChainCongestion, WorldError> {
            self.world.congestion(chain)
        }

        fn marginal_fee(&mut self, chain: ChainId) -> Result<Option<Amount>, WorldError> {
            self.world.marginal_fee(chain)
        }

        fn submit(&mut self, chain: ChainId, tx: Transaction) -> Result<TxId, WorldError> {
            if chain == self.witness {
                if let TxKind::Call { payload, .. } = &tx.kind {
                    self.sent.push((self.phase, payload.clone()));
                }
                if self.lost.covers(self.world.now()) {
                    return Err(WorldError::ChainUnreachable(chain));
                }
            }
            self.world.submit(chain, tx)
        }

        fn replace_tx(
            &mut self,
            chain: ChainId,
            old: TxId,
            tx: Transaction,
        ) -> Result<TxId, WorldError> {
            self.world.replace_tx(chain, old, tx)
        }

        fn record(&mut self, at: Timestamp, kind: EventKind) {
            self.world.timeline.record(at, kind);
        }

        fn schedule_outage(
            &mut self,
            chain: ChainId,
            window: OutageWindow,
        ) -> Result<(), WorldError> {
            self.world.schedule_outage(chain, window)
        }

        fn inject_fork(
            &mut self,
            chain: ChainId,
            fork_depth: u64,
            length: u64,
        ) -> Result<Vec<BlockHash>, WorldError> {
            self.world.inject_fork(chain, fork_depth, length)
        }
    }

    #[test]
    fn retried_authorize_calls_resubmit_identical_bytes() {
        // The healing witness partition of the golden runs, with every
        // retry actually sent: the asset chains keep mining under the
        // deployments, but a buried deployment's evidence stops at the
        // depth the witness contract demands, so each retry carries the
        // same bytes.
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let witness = s.witness_chain;
        let cfg = ProtocolConfig { deployment_depth: 3, wait_cap_deltas: 64, ..Default::default() };
        let mut machine = Ac3wn::new(cfg).machine(s.graph.clone(), witness);
        let lost = OutageWindow { from: 6_000, until: 60_000 };
        let mut sent = Vec::new();
        let report = loop {
            let mut api = LossyWitnessLink {
                world: &mut s.world,
                witness,
                lost,
                phase: machine.phase_name(),
                sent: &mut sent,
            };
            match machine.poll(&mut api, &mut s.participants).unwrap() {
                Step::Done(report) => break report,
                Step::Waiting { not_before } => {
                    let dt = not_before.saturating_sub(s.world.now()).max(1);
                    s.world.advance(dt);
                }
            }
        };
        assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
        assert!(report.finished_at >= lost.until, "{}", report.summary());
        let retries: Vec<&[u8]> = sent
            .iter()
            .filter(|(phase, _)| *phase == "retry-authorize")
            .map(|(_, payload)| payload.as_slice())
            .collect();
        assert!(retries.len() > 10, "only {} authorize submissions retried", retries.len());
        let differing = retries.iter().filter(|p| **p != retries[0]).count();
        assert_eq!(differing, 0, "{differing} of {} retries changed the payload", retries.len());
    }

    #[test]
    fn unavailable_trent_blocks_the_swap_entirely() {
        // The centralized witness's weakness: if Trent is down, no decision
        // can ever be produced and all assets stay locked (no violation,
        // but no progress either).
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let mut driver = tw();
        driver.trent_available = false;
        let report = driver.execute(&mut s).unwrap();
        assert_eq!(report.decision, None);
        assert!(matches!(report.verdict(), AtomicityVerdict::Incomplete { .. }));
    }

    proptest! {
        /// The differential oracle the fold makes cheap: over every ring
        /// size and every set of participants down from `t = 0`, the two
        /// coordinators reach the same decision and leave every edge in the
        /// same disposition, atomically. The one divergence is by
        /// construction: with *everyone* down nobody can register `SC_w`,
        /// so AC3WN ends at once, undecided and with no edge outcomes,
        /// where Trent — who needs no participant to be registered with —
        /// waits out the grace period and issues an abort over nothing.
        #[test]
        fn prop_coordinators_agree_under_permanent_crashes(n in 2usize..6, crashed in 0u32..32) {
            let crashed = crashed & ((1 << n) - 1);
            let [wn, tw] = both().map(|(_, execute, ..)| {
                let mut s = ring_scenario(n, 10, &ScenarioConfig::default());
                for i in (0..n).filter(|i| crashed & (1 << i) != 0) {
                    s.participants
                        .get_mut(&format!("p{i}"))
                        .unwrap()
                        .schedule_crash(CrashWindow::permanent(0));
                }
                execute(&mut s).unwrap()
            });
            prop_assert!(wn.is_atomic() && tw.is_atomic());
            let dispositions = |r: &SwapReport| -> Vec<_> {
                r.edges.iter().map(|e| e.disposition).collect()
            };
            if crashed == (1 << n) - 1 {
                prop_assert_eq!((wn.decision, tw.decision), (None, Some(false)));
                prop_assert!(wn.edges.is_empty());
                prop_assert_eq!(dispositions(&tw), vec![EdgeDisposition::Unpublished; n]);
            } else {
                prop_assert_eq!(wn.decision, Some(crashed == 0));
                prop_assert_eq!(wn.decision, tw.decision);
                prop_assert_eq!(dispositions(&wn), dispositions(&tw));
            }
        }
    }
}
