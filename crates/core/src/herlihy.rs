//! Herlihy's atomic cross-chain swap protocols \[16\] — the state-of-the-art
//! hashlock/timelock baselines the paper compares against — in both the
//! single-leader form and the *multi-leader* form that Section 5.3 credits
//! with handling **cyclic** AC2T graphs.
//!
//! The protocol family uses hashlocked, timelocked contracts (HTLCs):
//!
//! * a set of swap **leaders** `L` — one participant, or a *feedback vertex
//!   set* of the graph — whose removal leaves the graph acyclic; every
//!   leader creates a secret `s_l` and the hashlock `h_l = H(s_l)`, and
//!   every contract is locked behind **all** the leaders' hashlocks;
//! * contracts are deployed **sequentially** in waves of increasing
//!   directed distance from the leader set (a contract is only published
//!   once the contracts that protect its sender are already public), each
//!   wave taking Δ;
//! * redemption also proceeds **sequentially** in the reverse order — the
//!   leaders redeem first (revealing the secrets on chain), and the
//!   revealed secrets let the remaining participants redeem wave by wave;
//! * each contract carries a timelock; earlier-deployed contracts carry
//!   *later* timelocks (`t1 > t2` in the paper's two-party walkthrough) so
//!   every participant nominally has time to redeem after learning the
//!   secrets.
//!
//! The sequential phases make the end-to-end latency `2·Δ·Diam(D)`
//! (Section 6.1, Figure 8), and the timelocks couple safety to liveness:
//! a participant who cannot redeem before their counterparty's timelock
//! expires loses their asset (experiment E6 reproduces this violation).
//! Disconnected graphs (Figure 7b) are not executable at all, under either
//! form: no leader set can order contracts across unrelated components.
//!
//! **Modelling note.** In Herlihy's multi-leader construction the leaders
//! coordinate the release of their secrets through an extra leader-level
//! exchange. We model that exchange as an off-chain step at the start of
//! the redemption phase: if every leader is available (not crashed) the
//! secret set becomes known to all leaders; the first on-chain redemption
//! then reveals every preimage to the remaining participants, as in the
//! single-leader protocol. If any leader is unavailable the exchange fails,
//! redemption stalls, and the timelock/refund path takes over. This
//! preserves the properties the paper measures (latency shape, graph
//! coverage, crash-failure behaviour) without reproducing the full
//! leader-subprotocol message flow.
//!
//! The protocol logic lives in one resumable step/poll state machine,
//! [`HerlihyMachine`] (see [`crate::driver`]), which never advances the
//! simulated clock and so joins mixed-protocol
//! [`crate::scheduler::Scheduler`] batches. [`Herlihy`], [`HerlihyMulti`]
//! and [`crate::nolan::Nolan`] are thin drivers that pick the leader set
//! and the lock flavour; their `execute` methods are single-swap [`drive`]
//! wrappers.

use crate::actions::edge_disposition;
use crate::driver::{drive, tx_at_depth, Step, SwapMachine};
use crate::fee::{BidBook, BidChange};
use crate::graph::{SwapEdge, SwapGraph};
use crate::protocol::{
    EdgeDisposition, EdgeOutcome, ProtocolConfig, ProtocolError, ProtocolKind, SwapReport,
};
use crate::scenario::Scenario;
use ac3_chain::{Address, ChainId, ContractId, Timestamp, TxId};
use ac3_contracts::{ContractCall, ContractSpec, HtlcCall, HtlcSpec, MultiHtlcCall, MultiHtlcSpec};
use ac3_crypto::{Hash256, Hashlock, Sha256};
use ac3_sim::{ChainApi, EventKind, ParticipantSet, Timeline};

/// The Herlihy single-leader protocol driver.
#[derive(Debug, Clone, Default)]
pub struct Herlihy {
    /// Driver configuration.
    pub config: ProtocolConfig,
    /// Report the run under this protocol name (lets the Nolan wrapper
    /// reuse the driver).
    pub kind: Option<ProtocolKind>,
    /// Preferred swap leader. When unset the driver picks the first
    /// participant that satisfies the leader conditions.
    pub leader: Option<Address>,
}

/// The Herlihy multi-leader protocol driver.
#[derive(Debug, Clone, Default)]
pub struct HerlihyMulti {
    /// Driver configuration.
    pub config: ProtocolConfig,
}

/// Check that `leaders` can lead a wave-based hashlock swap over `graph`
/// (Section 5.3): the graph is weakly connected, every edge's source is at
/// finite directed distance from the leader set (otherwise no wave protects
/// its sender), and removing the leaders leaves an acyclic graph.
fn validate_leaders(graph: &SwapGraph, leaders: &[Address]) -> Result<(), ProtocolError> {
    if let Some(stranger) = leaders.iter().find(|l| !graph.participants().contains(l)) {
        return Err(ProtocolError::UnknownParticipant(format!("{stranger}")));
    }
    let unsupported = |why: &str| Err(ProtocolError::UnsupportedGraph(why.to_string()));
    if !graph.is_connected() {
        return unsupported("leader-based swaps cannot execute disconnected graphs (Figure 7b)");
    }
    let covered: usize = graph.waves_from_set(leaders).iter().map(Vec::len).sum();
    if covered != graph.contract_count() {
        return unsupported("some edges are unreachable from the leader set");
    }
    if !graph.acyclic_without(leaders) {
        return unsupported("the graph stays cyclic once the leader set is removed");
    }
    Ok(())
}

impl Herlihy {
    /// Create a driver with the given configuration.
    pub fn new(config: ProtocolConfig) -> Self {
        Herlihy { config, kind: None, leader: None }
    }

    /// Create a driver with an explicit swap leader.
    pub fn with_leader(config: ProtocolConfig, leader: Address) -> Self {
        Herlihy { config, kind: None, leader: Some(leader) }
    }

    /// Check whether this protocol can execute `graph` and pick the swap
    /// leader: the graph must be weakly connected, every edge must be
    /// reachable from the leader, and removing the leader must leave an
    /// acyclic graph (Section 5.3).
    pub fn supports_graph(graph: &SwapGraph) -> Result<Address, ProtocolError> {
        graph
            .participants()
            .iter()
            .copied()
            .find(|candidate| validate_leaders(graph, &[*candidate]).is_ok())
            .ok_or_else(|| {
                ProtocolError::UnsupportedGraph(
                    "no participant qualifies as the single leader (the graph must be connected, \
                     reachable from the leader and acyclic without it)"
                        .to_string(),
                )
            })
    }

    /// Create a resumable state machine executing `graph` (for use under a
    /// scheduler). Fails when the graph is unsupported or the configured
    /// leader does not satisfy the leader conditions.
    pub fn machine(&self, graph: SwapGraph) -> Result<HerlihyMachine, ProtocolError> {
        let leader = match self.leader {
            Some(leader) => {
                validate_leaders(&graph, &[leader])?;
                leader
            }
            None => Self::supports_graph(&graph)?,
        };
        let locks = Locks::single(&graph);
        let kind = self.kind.unwrap_or(ProtocolKind::Herlihy);
        Ok(HerlihyMachine::new(self.config.clone(), graph, vec![leader], locks, kind))
    }

    /// Execute the AC2T described by the scenario's graph (single-swap
    /// wrapper around [`HerlihyMachine`]).
    pub fn execute(&self, scenario: &mut Scenario) -> Result<SwapReport, ProtocolError> {
        let mut machine = self.machine(scenario.graph.clone())?;
        drive(&mut machine, &mut scenario.world, &mut scenario.participants)
    }
}

impl HerlihyMulti {
    /// Create a driver with the given configuration.
    pub fn new(config: ProtocolConfig) -> Self {
        HerlihyMulti { config }
    }

    /// Check whether the multi-leader protocol can execute `graph` and
    /// return the leader set (a feedback vertex set). Cyclic graphs are
    /// fine (that is the point of the variant); disconnected graphs are
    /// still rejected because no leader set can order contracts across
    /// unrelated components.
    pub fn supports_graph(graph: &SwapGraph) -> Result<Vec<Address>, ProtocolError> {
        let mut leaders = graph.feedback_vertex_set();
        if leaders.is_empty() {
            // Acyclic graph: degenerate to a single leader — the source of
            // the first edge, for determinism.
            leaders.push(graph.edges()[0].from);
        }
        validate_leaders(graph, &leaders)?;
        Ok(leaders)
    }

    /// Create a resumable state machine executing `graph` (for use under a
    /// scheduler). Fails when the graph is unsupported (disconnected, or
    /// with edges unreachable from the feedback vertex set).
    pub fn machine(&self, graph: SwapGraph) -> Result<HerlihyMachine, ProtocolError> {
        let leaders = Self::supports_graph(&graph)?;
        let locks = Locks::multi(&graph, &leaders);
        Ok(HerlihyMachine::new(
            self.config.clone(),
            graph,
            leaders,
            locks,
            ProtocolKind::HerlihyMulti,
        ))
    }

    /// Execute the AC2T described by the scenario's graph (single-swap
    /// wrapper around [`HerlihyMachine`]).
    pub fn execute(&self, scenario: &mut Scenario) -> Result<SwapReport, ProtocolError> {
        let mut machine = self.machine(scenario.graph.clone())?;
        drive(&mut machine, &mut scenario.world, &mut scenario.participants)
    }
}

/// How a run's contracts are locked and who can open them before any
/// preimage is public — everything the single- and multi-leader variants
/// do differently. Secrets are deterministic per graph (and leader) so
/// runs are reproducible.
#[derive(Debug)]
enum Locks {
    /// One leader, one secret, plain [`HtlcSpec`] contracts. The leader
    /// knows the secret from the start.
    Single { secret: Vec<u8>, hashlock: Hash256 },
    /// One secret per leader; every contract is a [`MultiHtlcSpec`] behind
    /// all of them. The leaders know the full set iff the off-chain
    /// exchange (evaluated once, when phase A completes) succeeded.
    Multi { secrets: Vec<Vec<u8>>, hashlocks: Vec<Hash256>, exchanged: bool },
}

impl Locks {
    fn single(graph: &SwapGraph) -> Self {
        let mut h = Sha256::new();
        h.update(b"herlihy/leader-secret");
        h.update(graph.digest().as_bytes());
        let secret = h.finalize().to_vec();
        let hashlock = Hashlock::from_secret(&secret).lock;
        Locks::Single { secret, hashlock }
    }

    fn multi(graph: &SwapGraph, leaders: &[Address]) -> Self {
        let digest = graph.digest();
        let secrets: Vec<Vec<u8>> = leaders
            .iter()
            .map(|leader| {
                let mut h = Sha256::new();
                h.update(b"herlihy-multi/leader-secret");
                h.update(digest.as_bytes());
                h.update(&leader.to_bytes());
                h.finalize().to_vec()
            })
            .collect();
        let hashlocks = secrets.iter().map(|s| Hashlock::from_secret(s).lock).collect();
        Locks::Multi { secrets, hashlocks, exchanged: false }
    }

    fn spec(&self, recipient: Address, timelock: Timestamp) -> ContractSpec {
        match self {
            Locks::Single { hashlock, .. } => {
                ContractSpec::Htlc(HtlcSpec { recipient, hashlock: *hashlock, timelock })
            }
            Locks::Multi { hashlocks, .. } => ContractSpec::MultiHtlc(MultiHtlcSpec {
                recipient,
                hashlocks: hashlocks.clone(),
                timelock,
            }),
        }
    }

    fn redeem(&self) -> ContractCall {
        match self {
            Locks::Single { secret, .. } => {
                ContractCall::Htlc(HtlcCall::Redeem { preimage: secret.clone() })
            }
            Locks::Multi { secrets, .. } => {
                ContractCall::MultiHtlc(MultiHtlcCall::Redeem { preimages: secrets.clone() })
            }
        }
    }

    fn refund(&self) -> ContractCall {
        match self {
            Locks::Single { .. } => ContractCall::Htlc(HtlcCall::Refund),
            Locks::Multi { .. } => ContractCall::MultiHtlc(MultiHtlcCall::Refund),
        }
    }

    /// Whether the leaders can present every preimage off chain.
    fn leaders_know(&self) -> bool {
        match self {
            Locks::Single { .. } => true,
            Locks::Multi { exchanged, .. } => *exchanged,
        }
    }
}

/// Per-edge bookkeeping during a run.
#[derive(Debug, Clone)]
struct EdgeSlot {
    edge: SwapEdge,
    wave: usize,
    timelock: Timestamp,
    deploy: Option<(TxId, ContractId)>,
}

/// A submitted transaction a phase waits on: `(chain, txid, depth)` — it
/// counts once buried under `depth` canonical blocks (0 = included).
type Pending = (ChainId, TxId, u64);

fn all_buried(world: &dyn ChainApi, pending: &[Pending]) -> bool {
    pending.iter().all(|(chain, txid, depth)| tx_at_depth(world, *chain, txid, *depth))
}

/// Phase of the Herlihy state machine.
#[derive(Debug)]
enum Phase {
    /// Nothing has happened yet; the first poll derives the wave structure
    /// and the timelocks.
    Start,
    /// Phase A: submit the deployments of wave `k`.
    DeployWave { k: usize },
    /// Phase A: wait for wave `k`'s deployments to reach the required depth.
    AwaitWaveDeploys { k: usize, pending: Vec<Pending>, deadline: Timestamp },
    /// Phase B: submit the redemptions of wave `k` (reverse order).
    RedeemWave { k: usize },
    /// Phase B: wait for wave `k`'s settlements.
    AwaitWaveRedeems { k: usize, pending: Vec<Pending>, deadline: Timestamp },
    /// Phase B: nobody in wave `k` could redeem; give them one Δ.
    WaveGap { k: usize, until: Timestamp },
    /// Phase C: one round of timelock cleanup (recovered redeemers redeem,
    /// expired contracts are refunded).
    CleanupRound,
    /// Phase C: idle one Δ between cleanup rounds.
    CleanupWait { until: Timestamp },
    /// Phase C: wait for settlements submitted during cleanup to be
    /// included, so terminal dispositions are on-chain.
    AwaitCleanupInclusion { pending: Vec<Pending>, deadline: Timestamp },
    /// Terminal.
    Finished,
}

/// The Herlihy protocol family — single-leader (and its two-party Nolan
/// restriction) and multi-leader — as one resumable state machine (see
/// [`crate::driver`]). The variants share the wave structure, the phases
/// and the timelock cleanup; they differ only in the leader set and in the
/// private lock flavour the drivers pick (one hashlock or one per leader,
/// and whether the leaders must first exchange secrets off chain).
#[derive(Debug)]
pub struct HerlihyMachine {
    config: ProtocolConfig,
    graph: SwapGraph,
    leaders: Vec<Address>,
    locks: Locks,
    kind: ProtocolKind,
    phase: Phase,
    timeline: Timeline,
    started_at: Timestamp,
    delta: u64,
    wait_cap: u64,
    deployments: u64,
    calls: u64,
    fees: u64,
    fees_scheduled: u64,
    fee_rebids: u64,
    /// Live fee bids, escalated each poll under the configured policy.
    bids: BidBook,
    slots: Vec<EdgeSlot>,
    waves_len: usize,
    /// Whether some on-chain redemption has published every preimage.
    secrets_public: bool,
    deployment_failed: bool,
    cleanup_deadline: Timestamp,
    cleanup_pending: Vec<Pending>,
    finished_at: Option<Timestamp>,
    report: Option<SwapReport>,
}

impl HerlihyMachine {
    fn new(
        config: ProtocolConfig,
        graph: SwapGraph,
        leaders: Vec<Address>,
        locks: Locks,
        kind: ProtocolKind,
    ) -> Self {
        let bids = BidBook::new(config.fee_policy);
        HerlihyMachine {
            config,
            graph,
            leaders,
            locks,
            kind,
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
            slots: Vec::new(),
            waves_len: 0,
            secrets_public: false,
            deployment_failed: false,
            cleanup_deadline: 0,
            cleanup_pending: Vec::new(),
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

    /// The off-chain leader secret exchange, evaluated once when phase A
    /// completes: it succeeds iff every leader is currently available. A
    /// single leader has nobody to exchange with.
    fn exchange_secrets(&mut self, world: &dyn ChainApi, participants: &ParticipantSet) {
        if let Locks::Multi { exchanged, .. } = &mut self.locks {
            let now = world.now();
            *exchanged = self
                .leaders
                .iter()
                .all(|l| participants.by_address(l).is_some_and(|p| p.is_available(now)));
        }
    }

    /// Whether `who` can present every preimage: a leader that knows them
    /// off chain, or anyone once the preimages are public on some chain
    /// (`public` is the caller's snapshot of [`Self::secrets_public`]).
    fn knows_secrets(&self, who: &Address, public: bool) -> bool {
        (self.locks.leaders_know() && self.leaders.contains(who)) || public
    }

    /// Book a replace-by-fee escalation and rewrite every stored copy of
    /// the superseded transaction/contract id.
    fn apply_bid_change(&mut self, change: &BidChange) {
        change.apply_accounting(&mut self.fees, &mut self.fee_rebids);
        if change.deploy {
            for slot in &mut self.slots {
                if let Some(deploy) = &mut slot.deploy {
                    if deploy.0 == change.old_txid {
                        *deploy = (change.new_txid, change.new_contract());
                    }
                }
            }
        }
        for entry in &mut self.cleanup_pending {
            change.rewrite_txid(&mut entry.1);
        }
        if let Phase::AwaitWaveDeploys { pending, .. }
        | Phase::AwaitWaveRedeems { pending, .. }
        | Phase::AwaitCleanupInclusion { pending, .. } = &mut self.phase
        {
            for entry in pending {
                change.rewrite_txid(&mut entry.1);
            }
        }
    }

    /// Record the publication events for every deployed contract (once, at
    /// the end of phase A — successful or not).
    fn record_published(&mut self, world: &mut dyn ChainApi) {
        let now = world.now();
        for i in 0..self.slots.len() {
            let slot = self.slots[i].clone();
            if let Some((_, contract)) = slot.deploy {
                self.record(
                    world,
                    now,
                    EventKind::ContractPublished { chain: slot.edge.chain, contract },
                );
            }
        }
    }

    /// Phase A failed (a participant declined, or a wave never got deep
    /// enough): publish what exists and let the timelocks unwind it.
    fn abort_deployment(&mut self, world: &mut dyn ChainApi) {
        self.deployment_failed = true;
        self.record_published(world);
        self.enter_cleanup();
    }

    /// Enter phase C: the cleanup loop runs until every contract is settled
    /// or two Δ past the last timelock.
    fn enter_cleanup(&mut self) {
        self.cleanup_deadline =
            self.slots.iter().map(|s| s.timelock).max().unwrap_or(self.started_at) + 2 * self.delta;
        self.phase = Phase::CleanupRound;
    }

    fn is_locked(world: &dyn ChainApi, slot: &EdgeSlot) -> bool {
        edge_disposition(world, slot.edge.chain, slot.deploy.map(|(_, c)| c))
            == EdgeDisposition::Locked
    }

    /// Submit a settlement `call` on `slot`'s contract signed by `who`,
    /// book it and record `event`. `None` when `who` is unavailable.
    fn settle(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
        who: &Address,
        (chain, contract): (ChainId, ContractId),
        call: &ContractCall,
        event: EventKind,
    ) -> Result<Option<Pending>, ProtocolError> {
        let Some((txid, fee)) =
            self.bids.submit_call(world, participants, who, chain, contract, call)?
        else {
            return Ok(None);
        };
        self.calls += 1;
        self.fees += fee;
        self.fees_scheduled += world.chain(chain)?.params().call_fee;
        let now = world.now();
        self.record(world, now, event);
        Ok(Some((chain, txid, 0)))
    }

    /// Submit redemption attempts for `wave` (phase B) or every recoverable
    /// contract (`wave == None`, phase C).
    ///
    /// During phase B the secrets count as public only once a *previous*
    /// wave's redemption published them — recipients within one wave cannot
    /// learn them from each other mid-wave. During cleanup any on-chain
    /// revelation (including one made earlier in the same pass) suffices.
    fn attempt_redeems(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
        wave: Option<usize>,
    ) -> Result<Vec<Pending>, ProtocolError> {
        let public_at_entry = self.secrets_public;
        let call = self.locks.redeem();
        let mut submitted = Vec::new();
        for i in 0..self.slots.len() {
            let slot = self.slots[i].clone();
            if wave.is_some_and(|k| slot.wave != k) {
                continue;
            }
            let Some((_, contract)) = slot.deploy else { continue };
            if wave.is_none() && !Self::is_locked(world, &slot) {
                continue;
            }
            let public = if wave.is_some() { public_at_entry } else { self.secrets_public };
            if !self.knows_secrets(&slot.edge.to, public) {
                continue;
            }
            if world.now() >= slot.timelock {
                continue; // too late to redeem safely
            }
            let chain = slot.edge.chain;
            let event = EventKind::ContractRedeemed { chain, contract };
            let sent =
                self.settle(world, participants, &slot.edge.to, (chain, contract), &call, event)?;
            if let Some(pending) = sent {
                self.secrets_public = true;
                submitted.push(pending);
            }
        }
        Ok(submitted)
    }

    /// Refund every published contract whose timelock has expired, on behalf
    /// of whichever senders are currently available.
    fn refund_expired(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
    ) -> Result<Vec<Pending>, ProtocolError> {
        let now = world.now();
        let call = self.locks.refund();
        let mut submitted = Vec::new();
        for i in 0..self.slots.len() {
            let slot = self.slots[i].clone();
            let Some((_, contract)) = slot.deploy else { continue };
            if now < slot.timelock || !Self::is_locked(world, &slot) {
                continue;
            }
            let chain = slot.edge.chain;
            let event = EventKind::ContractRefunded { chain, contract };
            submitted.extend(self.settle(
                world,
                participants,
                &slot.edge.from,
                (chain, contract),
                &call,
                event,
            )?);
        }
        Ok(submitted)
    }

    /// Move to the next (lower) redemption wave, or into cleanup after the
    /// last one.
    fn next_redeem_phase(&mut self, world: &dyn ChainApi, k: usize) {
        if k == 0 {
            self.finished_at = Some(world.now());
            self.enter_cleanup();
        } else {
            self.phase = Phase::RedeemWave { k: k - 1 };
        }
    }

    fn finish(&mut self, world: &dyn ChainApi) -> Step {
        let outcomes: Vec<EdgeOutcome> = self
            .slots
            .iter()
            .map(|s| {
                let contract = s.deploy.map(|(_, c)| c);
                EdgeOutcome {
                    edge: s.edge,
                    contract,
                    disposition: edge_disposition(world, s.edge.chain, contract),
                }
            })
            .collect();
        let finished_at = match self.finished_at {
            Some(at) if !self.deployment_failed => at,
            _ => world.now(),
        };
        let report = SwapReport {
            protocol: self.kind,
            decision: None,
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
}

impl SwapMachine for HerlihyMachine {
    fn footprint(&self) -> crate::driver::MachineFootprint {
        // Pure HTLC protocol: the leader set is a subset of the graph's
        // participants, so the graph alone bounds every chain and actor
        // the machine touches.
        crate::driver::MachineFootprint {
            chains: self.graph.chains(),
            actors: self.graph.participants().to_vec(),
        }
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
                    self.record(world, now, EventKind::GraphSigned);

                    // Wave structure and timelocks: wave k deploys at ~k·Δ
                    // and is redeemed at ~(2W - k)·Δ; its timelock is set two
                    // Δ after that, so earlier waves get strictly later
                    // timelocks (t1 > t2).
                    let waves = self.graph.waves_from_set(&self.leaders);
                    let wave_count = waves.len() as u64;
                    self.waves_len = waves.len();
                    let mut slots = Vec::with_capacity(self.graph.contract_count());
                    for (k, wave) in waves.iter().enumerate() {
                        for e in wave {
                            slots.push(EdgeSlot {
                                edge: *e,
                                wave: k,
                                timelock: now + self.delta * (2 * wave_count - k as u64 + 2),
                                deploy: None,
                            });
                        }
                    }
                    self.slots = slots;
                    self.phase = Phase::DeployWave { k: 0 };
                }
                Phase::DeployWave { k } => {
                    let k = *k;
                    let mut pending = Vec::new();
                    let mut failed = false;
                    for i in 0..self.slots.len() {
                        if self.slots[i].wave != k {
                            continue;
                        }
                        let slot = self.slots[i].clone();
                        let spec = self.locks.spec(slot.edge.to, slot.timelock);
                        match self.bids.submit_deploy(
                            world,
                            participants,
                            &slot.edge.from,
                            slot.edge.chain,
                            &spec,
                            slot.edge.amount,
                        )? {
                            Some((txid, contract, fee)) => {
                                self.slots[i].deploy = Some((txid, contract));
                                self.deployments += 1;
                                self.fees += fee;
                                self.fees_scheduled +=
                                    world.chain(slot.edge.chain)?.params().deploy_fee;
                                pending.push((slot.edge.chain, txid, self.config.deployment_depth));
                                let now = world.now();
                                self.record(
                                    world,
                                    now,
                                    EventKind::ContractSubmitted {
                                        chain: slot.edge.chain,
                                        contract,
                                    },
                                );
                            }
                            None => {
                                // A participant declined or crashed: later
                                // waves do not deploy (their senders are no
                                // longer protected).
                                failed = true;
                                break;
                            }
                        }
                    }
                    if failed {
                        self.abort_deployment(world);
                    } else {
                        // Sequentiality: the next wave only starts once this
                        // one is publicly recognised.
                        self.phase = Phase::AwaitWaveDeploys {
                            k,
                            pending,
                            deadline: world.now() + self.wait_cap,
                        };
                    }
                }
                Phase::AwaitWaveDeploys { k, pending, deadline } => {
                    let (k, deadline) = (*k, *deadline);
                    if all_buried(world, pending) {
                        if k + 1 < self.waves_len {
                            self.phase = Phase::DeployWave { k: k + 1 };
                        } else {
                            self.record_published(world);
                            self.exchange_secrets(world, participants);
                            self.finished_at = Some(world.now());
                            self.phase = Phase::RedeemWave { k: self.waves_len - 1 };
                        }
                    } else if world.now() >= deadline {
                        self.abort_deployment(world);
                    } else {
                        return Ok(self.poll_step(world));
                    }
                }
                Phase::RedeemWave { k } => {
                    let k = *k;
                    // Settle any contract whose timelock has already expired
                    // (rational senders refund as soon as they can).
                    let refunds = self.refund_expired(world, participants)?;
                    let mut pending = self.attempt_redeems(world, participants, Some(k))?;
                    if !pending.is_empty() {
                        // Redemptions must be buried to their chain's stable
                        // depth; refunds only need inclusion.
                        for (chain, _, depth) in pending.iter_mut() {
                            *depth = world.chain(*chain)?.params().stable_depth;
                        }
                        pending.extend(refunds);
                        self.phase = Phase::AwaitWaveRedeems {
                            k,
                            pending,
                            deadline: world.now() + self.wait_cap,
                        };
                    } else if self.slots.iter().any(|s| s.wave == k && s.deploy.is_some()) {
                        // Nobody in this wave could redeem (crashed or the
                        // secrets are not yet public); give them one Δ
                        // before moving on.
                        self.phase = Phase::WaveGap { k, until: world.now() + self.delta };
                    } else {
                        self.next_redeem_phase(world, k);
                    }
                }
                Phase::AwaitWaveRedeems { k, pending, deadline } => {
                    let (k, deadline) = (*k, *deadline);
                    if all_buried(world, pending) || world.now() >= deadline {
                        self.next_redeem_phase(world, k);
                    } else {
                        return Ok(self.poll_step(world));
                    }
                }
                Phase::WaveGap { k, until } => {
                    let (k, until) = (*k, *until);
                    if world.now() >= until {
                        self.next_redeem_phase(world, k);
                    } else {
                        return Ok(Step::Waiting { not_before: until });
                    }
                }
                Phase::CleanupRound => {
                    // Phase C: timelock cleanup. Crashed redeemers may
                    // recover in time; once a timelock expires the sender
                    // refunds — this is where the atomicity violation of the
                    // baselines materialises.
                    let all_settled = self.slots.iter().all(|s| !Self::is_locked(world, s));
                    if all_settled || world.now() >= self.cleanup_deadline {
                        let pending: Vec<Pending> = self
                            .cleanup_pending
                            .iter()
                            .filter(|(chain, txid, _)| !tx_at_depth(world, *chain, txid, 0))
                            .copied()
                            .collect();
                        if pending.is_empty() {
                            return Ok(self.finish(world));
                        }
                        self.phase = Phase::AwaitCleanupInclusion {
                            pending,
                            deadline: world.now() + 2 * self.delta,
                        };
                    } else {
                        // Recovered redeemers still within their window
                        // redeem, and expired contracts get refunded by
                        // their senders.
                        let redeems = self.attempt_redeems(world, participants, None)?;
                        let refunds = self.refund_expired(world, participants)?;
                        self.cleanup_pending.extend(redeems);
                        self.cleanup_pending.extend(refunds);
                        self.phase = Phase::CleanupWait { until: world.now() + self.delta };
                    }
                }
                Phase::CleanupWait { until } => {
                    let until = *until;
                    if world.now() >= until {
                        self.phase = Phase::CleanupRound;
                    } else {
                        return Ok(Step::Waiting { not_before: until });
                    }
                }
                Phase::AwaitCleanupInclusion { pending, deadline } => {
                    if all_buried(world, pending) || world.now() >= *deadline {
                        return Ok(self.finish(world));
                    }
                    return Ok(self.poll_step(world));
                }
                Phase::Finished => {
                    if let Some(report) = &self.report {
                        return Ok(Step::Done(Box::new(report.clone())));
                    }
                    return Ok(self.finish(world));
                }
            }
        }
    }

    fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Start => "start",
            Phase::DeployWave { .. } => "deploy-wave",
            Phase::AwaitWaveDeploys { .. } => "await-wave-deploys",
            Phase::RedeemWave { .. } => "redeem-wave",
            Phase::AwaitWaveRedeems { .. } => "await-wave-redeems",
            Phase::WaveGap { .. } => "wave-gap",
            Phase::CleanupRound => "cleanup-round",
            Phase::CleanupWait { .. } => "cleanup-wait",
            Phase::AwaitCleanupInclusion { .. } => "cleanup-inclusion",
            Phase::Finished => "finished",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AtomicityVerdict;
    use crate::scenario::{
        custom_scenario, figure7a_scenario, figure7b_scenario, ring_scenario, two_party_scenario,
        ScenarioConfig,
    };
    use ac3_sim::CrashWindow;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig { deployment_depth: 3, ..Default::default() }
    }

    fn driver() -> Herlihy {
        Herlihy::new(cfg())
    }

    fn multi() -> HerlihyMulti {
        HerlihyMulti::new(cfg())
    }

    type Execute = fn(&mut Scenario) -> Result<SwapReport, ProtocolError>;

    /// Both drivers of the one machine, for the behaviours they share.
    fn both() -> [(ProtocolKind, Execute); 2] {
        [
            (ProtocolKind::Herlihy, |s| driver().execute(s)),
            (ProtocolKind::HerlihyMulti, |s| multi().execute(s)),
        ]
    }

    /// The two-party participant outside the multi-leader set.
    fn non_leader_name(s: &Scenario) -> &'static str {
        let leaders = HerlihyMulti::supports_graph(&s.graph).unwrap();
        ["alice", "bob"]
            .into_iter()
            .find(|n| !leaders.contains(&s.participants.get(n).unwrap().address()))
            .expect("a two-party swap has one leader")
    }

    #[test]
    fn two_party_swap_commits() {
        for (kind, execute) in both() {
            let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
            let report = execute(&mut s).unwrap();
            assert_eq!(report.protocol, kind);
            assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed, "{}", report.summary());
            assert_eq!(report.deployments, 2);
            assert_eq!(report.calls, 2);
        }
    }

    /// Commit a ring of `n` and return its latency in Δ.
    fn ring_latency(execute: Execute, n: usize) -> f64 {
        let mut s = ring_scenario(n, 10, &ScenarioConfig::default());
        let report = execute(&mut s).unwrap();
        assert_eq!(
            report.verdict(),
            AtomicityVerdict::AllRedeemed,
            "ring {n}: {}",
            report.summary()
        );
        report.latency_in_deltas()
    }

    #[test]
    fn ring_of_four_commits_but_latency_grows_with_diameter() {
        let (_, single) = both()[0];
        let (lat2, lat4) = (ring_latency(single, 2), ring_latency(single, 4));
        assert!(
            lat4 > lat2 + 1.0,
            "Herlihy latency should grow with diameter (2: {lat2}, 4: {lat4})"
        );
    }

    #[test]
    fn multi_leader_latency_grows_with_ring_size() {
        let (_, multi) = both()[1];
        assert!(
            ring_latency(multi, 5) > ring_latency(multi, 2),
            "multi-leader latency should grow with the wave depth"
        );
    }

    #[test]
    fn disconnected_graph_is_unsupported() {
        for (_, execute) in both() {
            let mut s = figure7b_scenario(&ScenarioConfig::default());
            let err = execute(&mut s).unwrap_err();
            assert!(matches!(err, ProtocolError::UnsupportedGraph(_)));
        }
        // The machine constructors reject the graph the same way.
        let s = figure7b_scenario(&ScenarioConfig::default());
        assert!(driver().machine(s.graph.clone()).is_err());
        assert!(multi().machine(s.graph.clone()).is_err());
    }

    #[test]
    fn cyclic_figure7a_commits_under_multi_leader() {
        // The single-leader protocol can also execute a plain 3-cycle, but
        // the multi-leader variant is the one the paper credits with cyclic
        // graphs in general; check it works here.
        let mut s = figure7a_scenario(&ScenarioConfig::default());
        let report = multi().execute(&mut s).unwrap();
        assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed, "{}", report.summary());
    }

    #[test]
    fn cyclic_graph_without_single_leader_commits() {
        // A graph where removing any single vertex leaves a residual cycle —
        // the single-leader protocol rejects it, the multi-leader one
        // executes it. Two vertex-disjoint 2-cycles joined by a bridge edge:
        // A⇄B, C⇄D, plus B→C to connect them.
        let names = ["a", "b", "c", "d"];
        let edges = [(0, 1, 10), (1, 0, 20), (2, 3, 30), (3, 2, 40), (1, 2, 50)];
        let mut s = custom_scenario(&names, &edges, &ScenarioConfig::default());
        assert!(Herlihy::supports_graph(&s.graph).is_err(), "single-leader should reject this");
        let report = multi().execute(&mut s).unwrap();
        assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed, "{}", report.summary());
        assert_eq!(report.edges.len(), 5);
    }

    #[test]
    fn leader_selection_rejects_graphs_without_valid_leader() {
        // Two disjoint 2-cycles (Figure 7b) — already covered — plus a graph
        // where every removal leaves a cycle.
        let names = ["a", "b", "c", "d"];
        let mut s = custom_scenario(
            &names,
            &[(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1)],
            &ScenarioConfig::default(),
        );
        assert!(Herlihy::supports_graph(&s.graph).is_err());
        let err = driver().execute(&mut s).unwrap_err();
        assert!(matches!(err, ProtocolError::UnsupportedGraph(_)));
    }

    #[test]
    fn edges_no_leader_reaches_make_the_graph_unsupported() {
        // A→B, C→B is weakly connected and acyclic, but whoever leads, one
        // sender's contract sits in no wave: nothing would protect it.
        for (kind, execute) in both() {
            let mut s = custom_scenario(
                &["a", "b", "c"],
                &[(0, 1, 1), (2, 1, 1)],
                &ScenarioConfig::default(),
            );
            let err = execute(&mut s).unwrap_err();
            assert!(matches!(err, ProtocolError::UnsupportedGraph(_)), "{kind}: {err}");
        }
    }

    #[test]
    fn explicit_leader_must_satisfy_the_leader_conditions() {
        // A⇄B, B⇄C: B is a valid leader (nothing survives its removal), but
        // removing A leaves the B⇄C cycle.
        let s = custom_scenario(
            &["a", "b", "c"],
            &[(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)],
            &ScenarioConfig::default(),
        );
        let [a, b] = ["a", "b"].map(|n| s.participants.get(n).unwrap().address());
        assert_eq!(Herlihy::supports_graph(&s.graph).unwrap(), b);
        assert!(Herlihy::with_leader(cfg(), b).machine(s.graph.clone()).is_ok());
        let err = Herlihy::with_leader(cfg(), a).machine(s.graph.clone()).unwrap_err();
        assert!(matches!(err, ProtocolError::UnsupportedGraph(_)), "{err}");
        // A leader outside the graph is named as such.
        let stranger = ac3_crypto::KeyPair::from_seed(b"stranger").public().into();
        let err = Herlihy::with_leader(cfg(), stranger).machine(s.graph.clone()).unwrap_err();
        assert!(matches!(err, ProtocolError::UnknownParticipant(_)), "{err}");
    }

    #[test]
    fn missing_counterparty_leads_to_refund_not_loss() {
        // Bob never deploys (crashed from the start): Alice's contract is
        // eventually refunded once its timelock expires — atomic abort.
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let alice = s.participants.get("alice").unwrap().address();
        s.participants.get_mut("bob").unwrap().schedule_crash(CrashWindow::permanent(0));
        let report = Herlihy::with_leader(cfg(), alice).execute(&mut s).unwrap();
        assert!(report.is_atomic(), "{}", report.verdict());
        assert_eq!(report.verdict(), AtomicityVerdict::AllRefunded);
    }

    #[test]
    fn missing_counterparty_leads_to_refund_not_loss_under_multi_leader() {
        // Whoever is not in the leader set crashes before deploying.
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let name = non_leader_name(&s);
        s.participants.get_mut(name).unwrap().schedule_crash(CrashWindow::permanent(0));
        let report = multi().execute(&mut s).unwrap();
        assert!(report.is_atomic(), "{}", report.verdict());
    }

    #[test]
    fn crash_past_timelock_violates_atomicity() {
        // The paper's motivating failure, reproduced: the leader redeems the
        // counterparty's contract (revealing s), the counterparty crashes
        // until after its own contract's timelock, and the leader refunds it
        // — the crashed participant ends up losing its asset.
        let cfg = ScenarioConfig::default();
        let mut s = two_party_scenario(50, 80, &cfg);
        let alice = s.participants.get("alice").unwrap().address();
        // Δ = 4s; with two waves the timelocks are at 2·Δ·2 + ... ≈ tens of
        // seconds. Crash Bob (who must redeem last) from just after the
        // leader's redemption until far past every timelock.
        s.participants
            .get_mut("bob")
            .unwrap()
            .schedule_crash(CrashWindow { from: 9_000, until: 600_000 });
        let mut d = driver();
        d.leader = Some(alice);
        let report = d.execute(&mut s).unwrap();
        assert!(
            !report.is_atomic(),
            "expected an atomicity violation, got {} ({})",
            report.verdict(),
            report.summary()
        );
        // Specifically: Alice redeemed Bob's contract while Bob's entitled
        // redemption never happened (his asset was refunded to Alice).
        assert!(matches!(report.verdict(), AtomicityVerdict::Violated { .. }));
    }

    #[test]
    fn crash_past_timelock_still_violates_atomicity_under_multi_leader() {
        // The multi-leader variant inherits the timelock flaw: a redeemer
        // crashed past its timelock loses the asset. Crash the non-leader
        // from just after the leaders' redemption until far past every
        // timelock.
        let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
        let name = non_leader_name(&s);
        s.participants
            .get_mut(name)
            .unwrap()
            .schedule_crash(CrashWindow { from: 9_000, until: 600_000 });
        let report = multi().execute(&mut s).unwrap();
        assert!(
            !report.is_atomic(),
            "expected an atomicity violation, got {} ({})",
            report.verdict(),
            report.summary()
        );
    }

    #[test]
    fn crashed_leader_fails_the_exchange_and_aborts() {
        // If a leader is unavailable when phase A completes, the off-chain
        // secret exchange fails: nobody can redeem, every contract times out
        // and refunds — an atomic abort, not a loss.
        let mut s = figure7a_scenario(&ScenarioConfig::default());
        let leaders = HerlihyMulti::supports_graph(&s.graph).unwrap();
        let leader_name = ["a", "b", "c"]
            .iter()
            .find(|n| leaders.contains(&s.participants.get(n).unwrap().address()))
            .copied()
            .expect("a 3-cycle has at least one leader");
        // Crash the leader after its wave-0 deployment (t = 0) but across the
        // instant phase A completes (~3 waves × ~4Δ = 12 s), so the exchange
        // fails; recover before the leader's own timelock (8Δ = 32 s) so its
        // contract refunds cleanly instead of staying locked.
        s.participants
            .get_mut(leader_name)
            .unwrap()
            .schedule_crash(CrashWindow { from: 1_000, until: 25_000 });
        let report = multi().execute(&mut s).unwrap();
        assert!(report.is_atomic(), "{}: {}", report.verdict(), report.summary());
        assert!(
            report.edges.iter().all(|e| e.disposition != EdgeDisposition::Redeemed),
            "no contract may be redeemed when the exchange fails: {}",
            report.summary()
        );
    }
}
