//! The AC3WN protocol (Section 4.2): atomic cross-chain commitment
//! coordinated by a permissionless witness network.
//!
//! The driver executes the paper's protocol steps over a simulated world:
//!
//! 1. all participants multisign the AC2T graph `(D, t)`;
//! 2. one participant registers `ms(D)` in a witness contract `SC_w`
//!    (Algorithm 3) on the witness chain and waits for the registration to
//!    be publicly recognised;
//! 3. **all participants deploy their asset contracts in parallel**
//!    (Algorithm 4 contracts conditioned on `SC_w`) — the key difference
//!    from the sequential baselines;
//! 4. once every deployment is stable, any participant submits
//!    `AuthorizeRedeem` with deployment evidence (or `AuthorizeRefund` if
//!    deployments are missing after a timeout) and waits until the decision
//!    block is buried under `d` blocks;
//! 5. all participants redeem (or refund) in parallel, presenting evidence
//!    of the witness decision.
//!
//! A final *recovery pass* lets participants who were crashed during step 5
//! complete their redemption later — the commitment property: once decided,
//! the outcome eventually takes effect, with no timelock to race against.
//!
//! The protocol logic lives in [`Ac3wnMachine`], a resumable step/poll
//! state machine (see [`crate::driver`]): each [`Ac3wnMachine::poll`] does
//! as much work as the current simulated instant allows and reports when
//! polling again is useful, so many AC2Ts can interleave over shared chains
//! under the [`crate::scheduler::Scheduler`]. [`Ac3wn::execute`] is the
//! single-swap wrapper that drives one machine to completion.

use crate::actions::edge_disposition;
use crate::driver::{drive, tx_at_depth, tx_stable, wait_timeout, Step, SwapMachine};
use crate::fee::{BidBook, BidChange};
use crate::graph::{GraphError, SwapEdge, SwapGraph};
use crate::protocol::{EdgeOutcome, ProtocolConfig, ProtocolError, ProtocolKind, SwapReport};
use crate::scenario::Scenario;
use ac3_chain::{Address, ChainId, ContractId, Timestamp, TxId};
use ac3_contracts::{
    ChainAnchor, ContractCall, ContractSpec, ExpectedContract, PermissionlessCall,
    PermissionlessSpec, WitnessCall, WitnessSpec, WitnessStateEvidence,
};
use ac3_crypto::{KeyPair, WitnessState};
use ac3_sim::{ChainApi, EventKind, ParticipantSet, Timeline};

impl From<GraphError> for ProtocolError {
    fn from(e: GraphError) -> Self {
        ProtocolError::UnsupportedGraph(e.to_string())
    }
}

/// The AC3WN protocol driver.
#[derive(Debug, Clone, Default)]
pub struct Ac3wn {
    /// Driver configuration (depths, timeouts).
    pub config: ProtocolConfig,
}

impl Ac3wn {
    /// Create a driver with the given configuration.
    pub fn new(config: ProtocolConfig) -> Self {
        Ac3wn { config }
    }

    /// Create a resumable state machine executing `graph` with `witness` as
    /// the witness chain (for use under a scheduler).
    pub fn machine(&self, graph: SwapGraph, witness: ChainId) -> Ac3wnMachine {
        Ac3wnMachine::new(self.config.clone(), graph, witness)
    }

    /// Execute the AC2T described by the scenario's graph (single-swap
    /// wrapper around [`Ac3wnMachine`]).
    pub fn execute(&self, scenario: &mut Scenario) -> Result<SwapReport, ProtocolError> {
        let mut machine = self.machine(scenario.graph.clone(), scenario.witness_chain);
        drive(&mut machine, &mut scenario.world, &mut scenario.participants)
    }
}

/// Phase of the AC3WN state machine. Waits carry the deadline computed when
/// the phase was entered, reproducing the blocking driver's capped waits.
#[derive(Debug)]
enum Phase {
    /// Nothing has happened yet; the first poll signs the graph and
    /// registers `SC_w`.
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

/// The AC3WN protocol as a resumable state machine (see [`crate::driver`]).
#[derive(Debug)]
pub struct Ac3wnMachine {
    config: ProtocolConfig,
    graph: SwapGraph,
    witness_chain: ChainId,
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
    expected: Vec<ExpectedContract>,
    scw: Option<ContractId>,
    witness_anchor: Option<ChainAnchor>,
    edge_deploys: Vec<Option<(TxId, ContractId)>>,
    commit: Option<bool>,
    authorize_txid: Option<TxId>,
    witness_evidence: Option<WitnessStateEvidence>,
    settlements: Vec<Option<(ChainId, TxId)>>,
    finished_at: Option<Timestamp>,
    report: Option<SwapReport>,
}

impl Ac3wnMachine {
    /// Create a machine executing `graph` with `witness_chain` as witness.
    pub fn new(config: ProtocolConfig, graph: SwapGraph, witness_chain: ChainId) -> Self {
        let edges = graph.edges().to_vec();
        let n = edges.len();
        let bids = BidBook::new(config.fee_policy);
        Ac3wnMachine {
            config,
            graph,
            witness_chain,
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
            expected: Vec::new(),
            scw: None,
            witness_anchor: None,
            edge_deploys: Vec::new(),
            commit: None,
            authorize_txid: None,
            witness_evidence: None,
            settlements: vec![None; n],
            finished_at: None,
            report: None,
        }
    }

    fn record(&mut self, world: &mut dyn ChainApi, at: Timestamp, kind: EventKind) {
        self.timeline.record(at, kind.clone());
        world.record(at, kind);
    }

    fn poll_step(&self, world: &dyn ChainApi) -> Step {
        Step::Waiting { not_before: world.now() + world.min_block_interval_ms() }
    }

    /// Choose the settlement action for one edge: the recipient redeems on
    /// commit, the sender refunds on abort.
    fn settlement_action(
        commit: bool,
        sender: Address,
        recipient: Address,
        evidence: &WitnessStateEvidence,
    ) -> (Address, ContractCall) {
        if commit {
            (
                recipient,
                ContractCall::Permissionless(PermissionlessCall::Redeem {
                    evidence: evidence.clone(),
                }),
            )
        } else {
            (
                sender,
                ContractCall::Permissionless(PermissionlessCall::Refund {
                    evidence: evidence.clone(),
                }),
            )
        }
    }

    /// The first participant of the graph that is currently available.
    fn first_available(
        &self,
        world: &dyn ChainApi,
        participants: &ParticipantSet,
    ) -> Option<Address> {
        let now = world.now();
        self.graph
            .participants()
            .iter()
            .copied()
            .find(|a| participants.by_address(a).is_some_and(|p| p.is_available(now)))
    }

    /// Submit a call from whichever participant is first able to do so,
    /// opening a fee bid for it. Returns the txid and the opening fee.
    fn submit_from_any(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
        chain: ChainId,
        contract: ContractId,
        call: &ContractCall,
    ) -> Result<Option<(TxId, u64)>, ProtocolError> {
        let payload = call.to_payload();
        for addr in self.graph.participants().to_vec() {
            if let Some(submitted) = self.bids.submit_encoded_call(
                world,
                participants,
                &addr,
                chain,
                contract,
                &payload,
            )? {
                return Ok(Some(submitted));
            }
        }
        Ok(None)
    }

    /// Escalate stuck bids (replace-by-fee) and rewrite every stored copy
    /// of a superseded transaction/contract id.
    fn poll_bids(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
    ) -> Result<(), ProtocolError> {
        let changes = self.bids.poll(world, participants)?;
        for change in changes {
            self.apply_bid_change(&change);
        }
        Ok(())
    }

    fn apply_bid_change(&mut self, change: &BidChange) {
        change.apply_accounting(&mut self.fees, &mut self.fee_rebids);
        let (old, new) = (change.old_txid, change.new_txid);
        if change.deploy {
            if self.scw == Some(change.old_contract()) {
                self.scw = Some(change.new_contract());
            }
            for deploy in self.edge_deploys.iter_mut().flatten() {
                if deploy.0 == old {
                    *deploy = (new, change.new_contract());
                }
            }
        }
        if self.authorize_txid == Some(old) {
            self.authorize_txid = Some(new);
        }
        for settlement in self.settlements.iter_mut().flatten() {
            change.rewrite_txid(&mut settlement.1);
        }
        match &mut self.phase {
            Phase::AwaitRegistration { reg_txid, .. } if *reg_txid == old => *reg_txid = new,
            Phase::AwaitRecoveryInclusion { pending, .. } => {
                for entry in pending.iter_mut() {
                    change.rewrite_txid(&mut entry.1);
                }
            }
            _ => {}
        }
    }

    fn collect_outcomes(&self, world: &dyn ChainApi) -> Vec<EdgeOutcome> {
        self.edges
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
            .collect()
    }

    /// Indices of deployed edges whose contract is still locked in `P`.
    fn unsettled(&self, world: &dyn ChainApi) -> Vec<usize> {
        crate::driver::unsettled_edges(world, &self.edges, &self.edge_deploys)
    }

    fn finish(&mut self, world: &dyn ChainApi, decision: Option<bool>) -> Step {
        let outcomes = self.collect_outcomes(world);
        let finished_at = self.finished_at.unwrap_or_else(|| world.now());
        let report = SwapReport {
            protocol: ProtocolKind::Ac3Wn,
            decision,
            edges: outcomes,
            started_at: self.started_at,
            finished_at,
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

    /// Submit every asset-contract deployment (step 3), then pick the wait
    /// that follows: stabilisation when everyone published, the abort grace
    /// period otherwise.
    fn submit_deployments(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
    ) -> Result<(), ProtocolError> {
        let scw = self.scw.expect("witness contract registered before deployments");
        let witness_anchor = self.witness_anchor.expect("anchor fixed before deployments");
        for i in 0..self.edges.len() {
            let e = self.edges[i];
            let spec = ContractSpec::Permissionless(PermissionlessSpec {
                recipient: e.to,
                witness_chain: self.witness_chain,
                witness_contract: scw,
                min_depth: self.config.witness_depth,
                witness_anchor,
            });
            let deployed =
                self.bids.submit_deploy(world, participants, &e.from, e.chain, &spec, e.amount)?;
            let deployed = deployed.map(|(txid, contract, fee)| {
                self.deployments += 1;
                self.fees += fee;
                (txid, contract)
            });
            if let Some((_, contract)) = &deployed {
                self.fees_scheduled += world.chain(e.chain)?.params().deploy_fee;
                let now = world.now();
                self.record(
                    world,
                    now,
                    EventKind::ContractSubmitted { chain: e.chain, contract: *contract },
                );
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

    /// Record the publication events and submit the authorize call (step 4).
    /// When nobody can reach the witness chain, the swap does not park:
    /// it enters [`Phase::RetryAuthorize`] and re-attempts the submission
    /// until the wait cap expires.
    fn submit_authorize(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
        commit: bool,
    ) -> Result<(), ProtocolError> {
        self.commit = Some(commit);
        let now = world.now();
        for i in 0..self.edges.len() {
            if let Some((_, contract)) = self.edge_deploys[i] {
                let chain = self.edges[i].chain;
                self.record(world, now, EventKind::ContractPublished { chain, contract });
            }
        }
        if !self.try_submit_authorize(world, participants, commit)? {
            self.phase = Phase::RetryAuthorize { commit, deadline: now + self.wait_cap };
        }
        Ok(())
    }

    /// One attempt at submitting the authorize call. `Ok(true)` means the
    /// call is in flight and the machine moved to [`Phase::AwaitDecision`];
    /// `Ok(false)` means no participant could reach the witness chain right
    /// now (crashed, or the chain is partitioned) — the caller decides
    /// whether to retry.
    fn try_submit_authorize(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
        commit: bool,
    ) -> Result<bool, ProtocolError> {
        let authorize_call = if commit {
            let mut evidence = Vec::with_capacity(self.edges.len());
            for (i, e) in self.edges.iter().enumerate() {
                let (txid, _) = self.edge_deploys[i].expect("commit implies all deployed");
                evidence.push(world.tx_evidence_since(e.chain, &self.expected[i].anchor, txid)?);
            }
            ContractCall::Witness(WitnessCall::AuthorizeRedeem { deployments: evidence })
        } else {
            ContractCall::Witness(WitnessCall::AuthorizeRefund)
        };

        let scw = self.scw.expect("witness contract registered before authorize");
        let authorize =
            self.submit_from_any(world, participants, self.witness_chain, scw, &authorize_call)?;
        let Some((authorize_txid, fee)) = authorize else {
            return Ok(false);
        };
        self.calls += 1;
        self.fees += fee;
        self.fees_scheduled += world.chain(self.witness_chain)?.params().call_fee;
        self.authorize_txid = Some(authorize_txid);
        self.phase = Phase::AwaitDecision { deadline: world.now() + self.wait_cap };
        Ok(true)
    }

    /// Build the witness-state evidence and submit every settlement call
    /// (step 5).
    fn submit_settlements(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
    ) -> Result<(), ProtocolError> {
        let commit = self.commit.expect("decision reached before settlement");
        let authorize_txid = self.authorize_txid.expect("decision reached before settlement");
        let witness_anchor = self.witness_anchor.expect("anchor fixed before settlement");
        let evidence = WitnessStateEvidence {
            claimed: if commit {
                WitnessState::RedeemAuthorized
            } else {
                WitnessState::RefundAuthorized
            },
            inclusion: world.tx_evidence_since(
                self.witness_chain,
                &witness_anchor,
                authorize_txid,
            )?,
        };
        for i in 0..self.edges.len() {
            let e = self.edges[i];
            let Some((_, contract)) = self.edge_deploys[i] else { continue };
            let (actor, call) = Self::settlement_action(commit, e.from, e.to, &evidence);
            if let Some((txid, fee)) =
                self.bids.submit_call(world, participants, &actor, e.chain, contract, &call)?
            {
                self.calls += 1;
                self.fees += fee;
                self.fees_scheduled += world.chain(e.chain)?.params().call_fee;
                self.settlements[i] = Some((e.chain, txid));
            }
        }
        self.witness_evidence = Some(evidence);
        self.phase = Phase::AwaitSettlements { deadline: world.now() + self.wait_cap };
        Ok(())
    }

    /// Re-attempt settlement of the still-locked edges (recovery pass).
    fn attempt_recovery(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
        rounds_left: u64,
    ) -> Result<(), ProtocolError> {
        let commit = self.commit.expect("recovery follows a decision");
        let evidence = self.witness_evidence.clone().expect("recovery follows a decision");
        let mut pending = Vec::new();
        for i in self.unsettled(world) {
            let e = self.edges[i];
            let Some((_, contract)) = self.edge_deploys[i] else { continue };
            let (actor, call) = Self::settlement_action(commit, e.from, e.to, &evidence);
            if let Some((txid, fee)) =
                self.bids.submit_call(world, participants, &actor, e.chain, contract, &call)?
            {
                self.calls += 1;
                self.fees += fee;
                self.fees_scheduled += world.chain(e.chain)?.params().call_fee;
                pending.push((e.chain, txid));
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

impl SwapMachine for Ac3wnMachine {
    fn footprint(&self) -> crate::driver::MachineFootprint {
        // Asset chains from the graph plus the coordinating witness chain;
        // every graph participant may sign (deploys, redeems, recovery).
        let mut chains = self.graph.chains();
        if !chains.contains(&self.witness_chain) {
            chains.push(self.witness_chain);
        }
        crate::driver::MachineFootprint { chains, actors: self.graph.participants().to_vec() }
    }

    fn poll(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
    ) -> Result<Step, ProtocolError> {
        if !matches!(self.phase, Phase::Finished) {
            // Fee market: re-bid any submission stuck behind higher bids
            // before doing phase work against possibly-stale ids.
            self.poll_bids(world, participants)?;
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

                    // Step 2: register ms(D) in SC_w on the witness chain.
                    let mut expected = Vec::with_capacity(self.graph.contract_count());
                    for e in &self.edges {
                        expected.push(ExpectedContract {
                            chain: e.chain,
                            sender: e.from,
                            recipient: e.to,
                            amount: e.amount,
                            anchor: world.anchor(e.chain)?,
                            required_depth: self.config.deployment_depth,
                        });
                    }
                    self.expected = expected;
                    let witness_spec = ContractSpec::Witness(WitnessSpec {
                        participants: self.graph.participants().to_vec(),
                        graph_digest: ms.digest(),
                        expected_contracts: self.expected.clone(),
                        operator: None,
                        stake: 0,
                    });

                    let Some(registrant) = self.first_available(world, participants) else {
                        return Ok(self.finish(world, None));
                    };
                    let Some((reg_txid, scw, fee)) = self.bids.submit_deploy(
                        world,
                        participants,
                        &registrant,
                        self.witness_chain,
                        &witness_spec,
                        0,
                    )?
                    else {
                        return Ok(self.finish(world, None));
                    };
                    self.deployments += 1;
                    self.fees += fee;
                    self.fees_scheduled += world.chain(self.witness_chain)?.params().deploy_fee;
                    self.scw = Some(scw);
                    self.phase =
                        Phase::AwaitRegistration { reg_txid, deadline: now + self.wait_cap };
                }
                Phase::AwaitRegistration { reg_txid, deadline } => {
                    let (reg_txid, deadline) = (*reg_txid, *deadline);
                    if tx_at_depth(world, self.witness_chain, &reg_txid, self.config.witness_depth)
                    {
                        let now = world.now();
                        self.record(world, now, EventKind::WitnessRegistered);
                        // The stable witness-chain block every asset contract
                        // stores as its evidence anchor. It precedes the
                        // authorize call by construction.
                        self.witness_anchor = Some(world.anchor(self.witness_chain)?);
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
                        self.submit_authorize(world, participants, true)?;
                    } else if world.now() >= deadline {
                        // The deployments never stabilised within the cap:
                        // request an abort rather than fail the run.
                        self.submit_authorize(world, participants, false)?;
                    } else {
                        return Ok(self.poll_step(world));
                    }
                }
                Phase::AbortGrace { until } => {
                    let until = *until;
                    if world.now() >= until {
                        self.submit_authorize(world, participants, false)?;
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
                    let txid = self.authorize_txid.expect("authorize submitted");
                    if tx_at_depth(world, self.witness_chain, &txid, self.config.witness_depth) {
                        let now = world.now();
                        let commit = self.commit.expect("decision chosen at authorize");
                        self.record(world, now, EventKind::DecisionReached { commit });
                        self.submit_settlements(world, participants)?;
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
                        for i in 0..self.edges.len() {
                            let chain = self.edges[i].chain;
                            if let Some((_, contract)) = self.edge_deploys[i] {
                                if self.settlements[i].is_some() {
                                    let kind = if commit {
                                        EventKind::ContractRedeemed { chain, contract }
                                    } else {
                                        EventKind::ContractRefunded { chain, contract }
                                    };
                                    self.record(world, now, kind);
                                }
                            }
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
        figure7a_scenario, figure7b_scenario, ring_scenario, two_party_scenario, ScenarioConfig,
    };
    use ac3_sim::CrashWindow;

    fn default_driver() -> Ac3wn {
        Ac3wn::new(ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() })
    }

    #[test]
    fn two_party_swap_commits_atomically() {
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let alice = s.participants.get("alice").unwrap().address();
        let bob = s.participants.get("bob").unwrap().address();
        let chain_a = s.asset_chains[0];
        let chain_b = s.asset_chains[1];

        let report = default_driver().execute(&mut s).unwrap();
        assert_eq!(report.decision, Some(true));
        assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
        // Assets changed hands: Bob received 50 on chain A, Alice 80 on B.
        assert!(s.world.chain(chain_a).unwrap().balance_of(&bob) >= 1_000 + 50 - 10);
        assert!(s.world.chain(chain_b).unwrap().balance_of(&alice) >= 1_000 + 80 - 10);
        // N+1 deployments (2 asset contracts + SC_w), N+1 calls (2 redeems +
        // authorize).
        assert_eq!(report.deployments, 3);
        assert_eq!(report.calls, 3);
        assert!(report.is_atomic());
    }

    #[test]
    fn declined_deployment_leads_to_atomic_abort() {
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        // Bob crashes before deploying and never recovers.
        s.participants.get_mut("bob").unwrap().schedule_crash(CrashWindow::permanent(0));
        // Only the available participants matter for signing in this driver,
        // but the multisign helper requires all keypairs, which it has.
        let report = default_driver().execute(&mut s).unwrap();
        assert_eq!(report.decision, Some(false));
        // Alice's contract is refunded, Bob's was never published: atomic.
        assert!(report.is_atomic());
        assert_eq!(report.verdict(), AtomicityVerdict::AllRefunded);
    }

    #[test]
    fn crash_during_redemption_does_not_violate_atomicity() {
        // The paper's motivating failure: the redeemer crashes after the
        // decision. Under AC3WN there is no timelock to race; Bob redeems
        // after recovery.
        let cfg = ScenarioConfig::default();
        let mut s = two_party_scenario(50, 80, &cfg);
        // Crash Bob from just before the decision until well afterwards.
        s.participants
            .get_mut("bob")
            .unwrap()
            .schedule_crash(CrashWindow { from: 20_000, until: 90_000 });
        let report = default_driver().execute(&mut s).unwrap();
        assert_eq!(report.decision, Some(true));
        assert!(report.is_atomic(), "verdict: {}", report.verdict());
        assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
    }

    #[test]
    fn cyclic_graph_commits() {
        let mut s = figure7a_scenario(&ScenarioConfig::default());
        let report = default_driver().execute(&mut s).unwrap();
        assert_eq!(report.decision, Some(true));
        assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
        assert_eq!(report.deployments, 4); // 3 edges + SC_w
    }

    #[test]
    fn disconnected_graph_commits() {
        let mut s = figure7b_scenario(&ScenarioConfig::default());
        let report = default_driver().execute(&mut s).unwrap();
        assert_eq!(report.decision, Some(true));
        assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
        assert_eq!(report.deployments, 5); // 4 edges + SC_w
    }

    #[test]
    fn latency_is_independent_of_graph_diameter() {
        // The headline claim: latency stays ~4Δ as the diameter grows.
        let mut latencies = Vec::new();
        for n in [2usize, 4, 6] {
            let mut s = ring_scenario(n, 10, &ScenarioConfig::default());
            let report = default_driver().execute(&mut s).unwrap();
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
        let driver = default_driver();
        let mut machine = driver.machine(s.graph.clone(), s.witness_chain);
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
}
