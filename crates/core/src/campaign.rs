//! Byzantine fault-injection and economic-attack campaigns (Section 6.3
//! extended): randomized, seeded sequences of crashes, partitions, forks,
//! Byzantine witness conduct and fee-market griefing, injected *mid-batch*
//! through the concurrent [`Scheduler`](crate::scheduler::Scheduler) rather
//! than pre-planned against a blocking driver.
//!
//! This module is lint-bound to the [`ChainApi`] seam (`ac3-lint`'s
//! `chainapi-seam` rule): nothing here may name `ac3_sim::World`. The
//! harness half — world construction, bond staking, the batch runner and
//! the damage accounting — lives in [`crate::campaign_run`].
//!
//! The paper's adversary model stops at crash failures and the 51% fork
//! attack of Section 6.3. This module adds the two adversary classes the
//! permissionless deployment actually faces:
//!
//! * **Byzantine witness operators.** A witness-network operator posts a
//!   stake in a [`WitnessSpec`](ac3_contracts::WitnessSpec)-bonded contract. An *equivocating* operator
//!   signs **both** the commit and the abort decision for the same graph
//!   digest ([`ac3_contracts::SignedDecision`]); two conflicting signatures
//!   assemble into a self-contained [`ac3_contracts::EquivocationProof`]
//!   that any watchdog can submit via
//!   [`ac3_contracts::WitnessCall::ReportEquivocation`] to slash the full
//!   stake — exactly once; the contract rejects duplicates. A *bribed*
//!   operator signs a single decision *against* observed chain state; one
//!   signature is not self-incriminating, so it is detectable (testimony
//!   vs. on-chain state, [`TestimonyLog::unsupported_by`]) but not
//!   slashable.
//! * **Economic griefers.** An *eviction-flooder* keeps a bounded mempool
//!   full of just-above-floor bids for a window, forcing honest bidders to
//!   out-bid it or wait; a *base-fee spiker* fills every block of a chain
//!   during the window, driving the EIP-1559-style base fee up under the
//!   victims' feet. Both are modelled as scheduler participants with their
//!   own funded identities, so the [`ac3_sim::FeeLedger`] attributes every
//!   unit of adversary spend.
//!
//! **Determinism.** A campaign is a pure function of its seed. The plan is
//! drawn from a [`Seeded`] stream at the campaign's seed; every adversary is a
//! [`SwapMachine`] polled by the scheduler in submission order with a
//! conservative [`MachineFootprint`], so the parallel scheduler's shard
//! merge barrier serializes an injected fault with every machine that could
//! observe it. The resulting [`CampaignReport::fingerprint`] is therefore
//! bitwise identical at any worker count and across store backends.

use crate::driver::{MachineFootprint, Step, SwapMachine};
use crate::fee::{is_soft_submit_error, BidBook, FeePolicy};
use crate::protocol::{ProtocolConfig, ProtocolError, ProtocolKind, SwapReport};
use crate::scenario::MultiSwapScenario;
use crate::{Ac3tw, Ac3wn, Herlihy, HerlihyMulti};
use ac3_chain::{Address, Amount, ChainId, ContractId, OutPoint, Timestamp, TxId, TxOutput};
use ac3_contracts::{ContractCall, EquivocationProof, SignedDecision, WitnessCall};
use ac3_crypto::{Hash256, KeyPair, WitnessDecision};
use ac3_seeded::Seeded;
use ac3_sim::{
    ChainApi, CrashWindow, EventKind, Fault, NetworkProfile, OutageWindow, ParticipantSet, SwapId,
    Timeline,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Honest swaps use ids `0..swaps`; adversary machines are offset far above
/// them so fee attribution never collides.
pub(crate) const ADVERSARY_ID_BASE: u64 = 10_000;

/// Simulated milliseconds an adversary machine waits between retries of a
/// condition that changes at block granularity (campaign chains are built
/// with [`ChainParams::fast`]'s one-second blocks).
const RETRY_MS: u64 = 1_000;

/// Hard cap on how long an equivocator waits for its fraud proof to be
/// included before declaring the campaign world broken.
const SLASH_INCLUSION_CAP_MS: u64 = 600_000;

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

/// One scheduled fault: *what* happens (a [`Fault`]) and *when* the
/// adversary initiates it. Faults that are themselves windows (partitions,
/// griefing bursts) carry their windows inside the fault; `at` is when the
/// injecting machine first acts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignEvent {
    /// Simulated time at which the adversary initiates the fault.
    pub at: Timestamp,
    /// The fault.
    pub fault: Fault,
}

/// The sampling space a random [`CampaignPlan`] is drawn from: how many
/// faults of each class, over what horizon, with what window lengths and
/// griefing budgets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignSpace {
    /// Fault initiation times are drawn from `[0, horizon_ms)` relative to
    /// the batch start.
    pub horizon_ms: u64,
    /// Minimum crash/partition/griefing window length.
    pub min_window_ms: u64,
    /// Maximum crash/partition/griefing window length.
    pub max_window_ms: u64,
    /// Number of participant crash windows.
    pub crashes: usize,
    /// Number of chain partitions.
    pub partitions: usize,
    /// Number of adversarial forks (Section 6.3's 51% attacker).
    pub forks: usize,
    /// Number of equivocating witness operators (at most one per witness
    /// chain — a bond slashes once).
    pub equivocations: usize,
    /// Number of bribed single-decision attestations.
    pub bribes: usize,
    /// Number of eviction-flooding bursts.
    pub floods: usize,
    /// Number of base-fee-spiking bursts.
    pub spikes: usize,
    /// Fee budget per griefing burst.
    pub griefing_budget: Amount,
}

impl Default for CampaignSpace {
    fn default() -> Self {
        CampaignSpace {
            horizon_ms: 40_000,
            min_window_ms: 3_000,
            max_window_ms: 8_000,
            crashes: 2,
            partitions: 1,
            forks: 1,
            equivocations: 1,
            bribes: 1,
            floods: 1,
            spikes: 1,
            griefing_budget: 4_000,
        }
    }
}

impl CampaignSpace {
    /// A space with no faults at all (the baseline campaign).
    // lint: api-ok(the fault-free baseline the campaign tests build on)
    pub fn quiet() -> Self {
        CampaignSpace {
            crashes: 0,
            partitions: 0,
            forks: 0,
            equivocations: 0,
            bribes: 0,
            floods: 0,
            spikes: 0,
            ..Default::default()
        }
    }

    /// Upper bound on griefing machines a plan from this space can need —
    /// the campaign scenario funds one adversary identity per burst.
    pub fn griefing_slots(&self) -> usize {
        self.floods + self.spikes
    }
}

/// A named, seeded sequence of campaign events.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignPlan {
    /// The seed the plan was drawn from.
    pub seed: u64,
    /// Human-readable name.
    pub name: String,
    /// The events, in generation order (each machine re-sorts its own
    /// subset by initiation time).
    pub events: Vec<CampaignEvent>,
}

impl CampaignPlan {
    /// An empty plan.
    // lint: api-ok(the fault-free baseline the campaign tests build on)
    pub fn quiet(seed: u64) -> Self {
        CampaignPlan { seed, name: format!("campaign-{seed:#018x}-quiet"), events: Vec::new() }
    }

    /// Draw a random plan. `start` anchors all event times (the batch's
    /// first poll happens at or after it); `crash_candidates` are the only
    /// participants that may be crashed — adversary and watchdog identities
    /// must never appear in it.
    pub fn random(
        seed: u64,
        space: &CampaignSpace,
        start: Timestamp,
        asset_chains: &[ChainId],
        witness_chains: &[ChainId],
        crash_candidates: &[String],
    ) -> Self {
        let mut rng = Seeded::new(seed);
        let mut events = Vec::new();
        let window = |rng: &mut Seeded, from: Timestamp| {
            let spread = space.max_window_ms.saturating_sub(space.min_window_ms);
            OutageWindow { from, until: from + space.min_window_ms + rng.below(spread) }
        };
        let all_chains: Vec<ChainId> =
            asset_chains.iter().chain(witness_chains.iter()).copied().collect();

        for _ in 0..space.crashes {
            if crash_candidates.is_empty() {
                break;
            }
            let who = &crash_candidates[rng.below(crash_candidates.len() as u64) as usize];
            let from = start + rng.below(space.horizon_ms);
            let w = window(&mut rng, from);
            events.push(CampaignEvent {
                at: from,
                fault: Fault::Crash {
                    participant: who.clone(),
                    window: CrashWindow { from: w.from, until: w.until },
                },
            });
        }
        for _ in 0..space.partitions {
            let chain = all_chains[rng.below(all_chains.len() as u64) as usize];
            let from = start + rng.below(space.horizon_ms);
            events.push(CampaignEvent {
                at: from,
                fault: Fault::Partition { chain, window: window(&mut rng, from) },
            });
        }
        for _ in 0..space.forks {
            // Fork late enough that the chain has height to fork under.
            let at = start + space.horizon_ms / 4 + rng.below(space.horizon_ms / 2);
            let chain = all_chains[rng.below(all_chains.len() as u64) as usize];
            let fork_depth = 1 + rng.below(2);
            events.push(CampaignEvent {
                at,
                fault: Fault::Fork { chain, fork_depth, length: fork_depth + 1 + rng.below(2) },
            });
        }
        // At most one equivocation per witness chain: a bond slashes once.
        let mut eq_chains: Vec<ChainId> = witness_chains.to_vec();
        for _ in 0..space.equivocations.min(witness_chains.len()) {
            let idx = rng.below(eq_chains.len() as u64) as usize;
            let witness_chain = eq_chains.swap_remove(idx);
            events.push(CampaignEvent {
                at: start + rng.below(space.horizon_ms / 2),
                fault: Fault::Equivocate { witness_chain },
            });
        }
        for _ in 0..space.bribes {
            let witness_chain = witness_chains[rng.below(witness_chains.len() as u64) as usize];
            events.push(CampaignEvent {
                at: start + rng.below(space.horizon_ms),
                fault: Fault::Bribe { witness_chain, commit: rng.below(2) == 1 },
            });
        }
        // Griefing bursts run longer as the budget grows (half a
        // millisecond of extra window per budgeted fee unit, capped at the
        // horizon): a richer adversary sustains the attack, it does not
        // merely bid into the same short window.
        let grief_window = |rng: &mut Seeded, from: Timestamp| {
            let w = window(rng, from);
            let stretch = (space.griefing_budget / 2).min(space.horizon_ms);
            OutageWindow { from: w.from, until: w.until + stretch }
        };
        for _ in 0..space.floods {
            let chain = witness_chains[rng.below(witness_chains.len() as u64) as usize];
            let from = start + rng.below(space.horizon_ms);
            events.push(CampaignEvent {
                at: from,
                fault: Fault::FloodMempool {
                    chain,
                    window: grief_window(&mut rng, from),
                    budget: space.griefing_budget,
                },
            });
        }
        for _ in 0..space.spikes {
            let chain = witness_chains[rng.below(witness_chains.len() as u64) as usize];
            let from = start + rng.below(space.horizon_ms);
            events.push(CampaignEvent {
                at: from,
                fault: Fault::SpikeBaseFee {
                    chain,
                    window: grief_window(&mut rng, from),
                    budget: space.griefing_budget,
                },
            });
        }

        CampaignPlan { seed, name: format!("campaign-{seed:#018x}"), events }
    }

    /// Count events matching `predicate`.
    pub fn count<F: Fn(&Fault) -> bool>(&self, predicate: F) -> usize {
        self.events.iter().filter(|e| predicate(&e.fault)).count()
    }
}

// ---------------------------------------------------------------------------
// Campaign configuration
// ---------------------------------------------------------------------------

/// Everything a campaign run needs. A campaign is a pure function of this
/// configuration: same config, same [`CampaignReport::fingerprint`], at any
/// worker count.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The plan seed.
    pub seed: u64,
    /// The fault sampling space.
    pub space: CampaignSpace,
    /// Number of honest two-party swaps (protocols assigned round-robin:
    /// AC3WN, AC3TW, Herlihy, Herlihy-multi).
    pub swaps: usize,
    /// Number of shared asset chains.
    pub asset_chains: usize,
    /// Number of shared witness chains (each carries one staked
    /// witness-network bond).
    pub witness_chains: usize,
    /// Protocol depths, timeouts and fee policy for the honest machines.
    pub protocol: ProtocolConfig,
    /// Stake each witness-network operator bonds (slashed on equivocation).
    pub stake: Amount,
    /// Genesis funding per participant per chain.
    pub funding: Amount,
    /// Mempool capacity of the witness chains — small enough that
    /// eviction-flooding is affordable.
    pub witness_mempool_capacity: usize,
    /// Scheduler worker threads.
    pub workers: usize,
    /// Scheduler time budget.
    pub max_ms: u64,
    /// Message-level network conditions for every client→chain
    /// interaction, or `None` for synchronous (direct) submission.
    pub network: Option<NetworkProfile>,
}

impl CampaignConfig {
    /// The default campaign at `seed`: 8 mixed-protocol swaps over 2 asset
    /// chains and 2 bonded witness chains, adaptive honest bidding, one
    /// fault of every class.
    pub fn new(seed: u64) -> Self {
        CampaignConfig {
            seed,
            space: CampaignSpace::default(),
            swaps: 8,
            asset_chains: 2,
            witness_chains: 2,
            protocol: ProtocolConfig {
                witness_depth: 2,
                deployment_depth: 1,
                wait_cap_deltas: 256,
                fee_policy: FeePolicy::Adaptive { margin: 1, cap: 64 },
                ..Default::default()
            },
            stake: 500,
            funding: 1 << 20,
            witness_mempool_capacity: 32,
            workers: 1,
            max_ms: 1_200_000,
            network: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Per-protocol outcome and fee aggregates of the honest lanes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolLane {
    /// Swaps run under this protocol.
    pub swaps: usize,
    /// Committed swaps.
    pub committed: usize,
    /// Cleanly aborted swaps.
    pub aborted: usize,
    /// Swaps that ended in a protocol error.
    pub failed: usize,
    /// Total fees actually paid.
    pub fees_paid: Amount,
    /// Total fees the static Section 6.2 schedule would have charged.
    pub fees_scheduled: Amount,
}

/// What a campaign produced, with enough detail for the attack-economics
/// bench and the adversarial property tests.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// The plan that ran.
    pub plan: CampaignPlan,
    /// Honest swap count.
    pub swaps: usize,
    /// Honest commits.
    pub committed: usize,
    /// Honest clean aborts.
    pub aborted: usize,
    /// Honest protocol errors.
    pub failed: usize,
    /// Adversary machines that ended in a protocol error (must be 0 in a
    /// healthy campaign — adversaries never give up, they run out of
    /// budget or window).
    pub adversary_failures: usize,
    /// Whether every honest swap settled atomically (all-or-nothing per
    /// the per-report audit).
    pub atomic: bool,
    /// Scheduler ticks.
    pub ticks: u64,
    /// Batch makespan in simulated ms.
    pub makespan_ms: u64,
    /// Equivocation events in the plan.
    pub equivocations: usize,
    /// Slash reports accepted on-chain (canonical
    /// [`WitnessCall::ReportEquivocation`] calls against the bonds).
    pub slashes_accepted: usize,
    /// Bonds whose final decoded state is `slashed`.
    pub bonds_slashed: usize,
    /// Duplicate slash reports submitted and *not* mined.
    pub duplicate_slash_reports_rejected: usize,
    /// Bribed single-decision attestations in the plan.
    pub bribes: usize,
    /// Bribed attestations a watchdog flagged as unsupported by chain
    /// state.
    pub bribes_detected: usize,
    /// Honest fees actually paid.
    pub honest_fees_paid: Amount,
    /// Honest fees under the static schedule.
    pub honest_fees_scheduled: Amount,
    /// Net adversary fee spend, from the fee ledger's per-swap attribution
    /// (evicted flood transactions are refunded by the ledger, so this is
    /// money the adversary actually parted with).
    pub adversary_fees: Amount,
    /// Stake posted across all witness bonds.
    pub stake_posted: Amount,
    /// Stake forfeited to watchdogs.
    pub stake_slashed: Amount,
    /// Honest outcomes and fee ledger per protocol.
    pub per_protocol: BTreeMap<String, ProtocolLane>,
    /// Every machine (honest or adversary) whose driver returned an error:
    /// `(swap id, error message)`. Diagnostics for the failure counters
    /// above.
    pub failures: Vec<(u64, String)>,
    /// Hex digest over every deterministic observable of the run: outcomes
    /// in submission order, scheduler counters, the fee ledger, final
    /// chain state, and the (canonicalized) global timeline.
    pub fingerprint: String,
}

// ---------------------------------------------------------------------------
// Adversary machines
// ---------------------------------------------------------------------------

/// A terminal report for a non-protocol (adversary) machine: no decision,
/// no edges — everything interesting rides in the timeline notes.
fn adversary_report(started_at: Timestamp, finished_at: Timestamp, timeline: Timeline) -> Step {
    Step::Done(Box::new(SwapReport {
        protocol: ProtocolKind::Ac3Wn,
        decision: None,
        edges: Vec::new(),
        started_at,
        finished_at,
        delta_ms: 1,
        deployments: 0,
        calls: 0,
        fees_paid: 0,
        fees_scheduled: 0,
        fee_rebids: 0,
        timeline,
    }))
}

/// Applies the plan's world-mutating faults (crashes, partitions, forks)
/// mid-batch, at their scheduled initiation times, from *inside* the
/// scheduler loop. Its footprint names every chain it forks or partitions
/// and every participant it crashes, so the shard partitioner serializes it
/// with every machine that could observe the fault.
struct FaultInjector {
    events: Vec<CampaignEvent>,
    victims: Vec<Address>,
    idx: usize,
    started_at: Option<Timestamp>,
    timeline: Timeline,
}

impl FaultInjector {
    /// Build from the plan's non-behavioral events plus forks. `victims`
    /// must hold the address of every crash target (resolved before the
    /// batch so the footprint is complete).
    fn new(mut events: Vec<CampaignEvent>, victims: Vec<Address>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultInjector { events, victims, idx: 0, started_at: None, timeline: Timeline::new() }
    }
}

impl SwapMachine for FaultInjector {
    fn poll(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
    ) -> Result<Step, ProtocolError> {
        let now = world.now();
        let started = *self.started_at.get_or_insert(now);
        while self.idx < self.events.len() && self.events[self.idx].at <= now {
            let event = &self.events[self.idx];
            match &event.fault {
                Fault::Crash { participant, window } => {
                    if let Some(p) = participants.get_mut(participant) {
                        p.schedule_crash(*window);
                    }
                    self.timeline.record(
                        now,
                        EventKind::Note(format!(
                            "fault: crash {participant} [{}, {})",
                            window.from, window.until
                        )),
                    );
                }
                Fault::Partition { chain, window } => {
                    world.schedule_outage(*chain, *window)?;
                    self.timeline.record(
                        now,
                        EventKind::Note(format!(
                            "fault: partition {chain} [{}, {})",
                            window.from, window.until
                        )),
                    );
                }
                Fault::Fork { chain, fork_depth, length } => {
                    let note = match world.inject_fork(*chain, *fork_depth, *length) {
                        Ok(branch) => format!(
                            "fault: fork {chain} depth {fork_depth} length {} mined",
                            branch.len()
                        ),
                        // A fork below genesis (chain still too short) is a
                        // failed attack, not a broken campaign.
                        Err(e) => format!("fault: fork {chain} failed: {e}"),
                    };
                    self.timeline.record(now, EventKind::Note(note));
                }
                behavioral => {
                    return Err(ProtocolError::World(format!(
                        "behavioral fault {behavioral:?} routed to the fault injector"
                    )))
                }
            }
            self.idx += 1;
        }
        if self.idx >= self.events.len() {
            return Ok(adversary_report(started, now, std::mem::take(&mut self.timeline)));
        }
        Ok(Step::Waiting { not_before: self.events[self.idx].at })
    }

    fn phase_name(&self) -> &'static str {
        "fault-injection"
    }

    fn footprint(&self) -> MachineFootprint {
        let mut chains: Vec<ChainId> = self.events.iter().filter_map(|e| e.fault.chain()).collect();
        chains.sort();
        chains.dedup();
        MachineFootprint { chains, actors: self.victims.clone() }
    }
}

/// An honest party's append-only log of witness-operator attestations —
/// the testimony side of the Byzantine fault model (DESIGN.md §12).
///
/// Watchdogs feed every [`SignedDecision`] they see (gossip, mempools,
/// bribed-operator side channels) into the log. The log discards forgeries,
/// and the moment two validly signed attestations by the same key over the
/// same graph contradict each other it hands back the
/// [`EquivocationProof`] ready for on-chain submission
/// (`WitnessCall::ReportEquivocation`). Attestations that merely contradict
/// *observed chain state* — a bribed operator signing a decision the
/// witness contract never reached — are not slashable (one signature is
/// not self-incriminating) but are surfaced by
/// [`TestimonyLog::unsupported_by`] so honest parties can refuse to act on
/// them.
#[derive(Debug, Default)]
pub struct TestimonyLog {
    decisions: Vec<SignedDecision>,
}

impl TestimonyLog {
    /// An empty log.
    pub fn new() -> Self {
        TestimonyLog::default()
    }

    /// Record an attestation. Forgeries (invalid signatures) are dropped.
    /// Returns a fraud proof the first time the attestation contradicts an
    /// earlier validly signed one.
    pub fn observe(&mut self, decision: SignedDecision) -> Option<EquivocationProof> {
        if decision.verify().is_err() {
            return None;
        }
        let conflict = self.decisions.iter().find(|prior| prior.conflicts_with(&decision)).copied();
        self.decisions.push(decision);
        conflict.map(|first| EquivocationProof { first, second: decision })
    }

    /// Attestations not supported by the on-chain state of the given
    /// witness contract: a `Redeem` attestation while the contract is not
    /// `RDauth`, or a `Refund` attestation while it is not `RFauth`. These
    /// are the bribed-witness testimonies — evidence of misbehavior an
    /// honest party records and refuses to act on, even though no stake can
    /// be slashed for them.
    pub fn unsupported_by(
        &self,
        world: &dyn ChainApi,
        chain: ChainId,
        contract: ContractId,
    ) -> Vec<SignedDecision> {
        let tag = world.contract_state(chain, contract).map(|(tag, _)| tag);
        self.decisions
            .iter()
            .filter(|d| {
                let required = match d.decision {
                    WitnessDecision::Redeem => "RDauth",
                    WitnessDecision::Refund => "RFauth",
                };
                tag.as_deref() != Some(required)
            })
            .copied()
            .collect()
    }
}

enum EquivocatorPhase {
    Armed,
    AwaitInclusion,
    AwaitDuplicate,
}

/// A Byzantine witness operator that signs *both* decisions for its bond's
/// graph digest, and the honest watchdog that catches it: the watchdog's
/// [`TestimonyLog`] assembles the [`EquivocationProof`], submits it, waits
/// for canonical inclusion (the accepted slash), then submits a duplicate
/// report to demonstrate the contract slashes exactly once.
struct Equivocator {
    at: Timestamp,
    witness_chain: ChainId,
    operator: KeyPair,
    bond: ContractId,
    graph_digest: Hash256,
    watchdog: Address,
    phase: EquivocatorPhase,
    /// The watchdog's escalating bid book: a slasher stands to win the
    /// bond's stake, so it rationally outbids any griefing floor up to
    /// that prize — a fixed-fee report could be priced out forever by a
    /// mempool flood.
    book: BidBook,
    proof: Option<EquivocationProof>,
    report_tx: Option<TxId>,
    dup_tx: Option<TxId>,
    dup_deadline: Timestamp,
    started_at: Option<Timestamp>,
    timeline: Timeline,
}

impl Equivocator {
    #[allow(clippy::too_many_arguments)]
    fn new(
        at: Timestamp,
        witness_chain: ChainId,
        operator: KeyPair,
        bond: ContractId,
        graph_digest: Hash256,
        watchdog: Address,
        stake: Amount,
    ) -> Self {
        Equivocator {
            at,
            witness_chain,
            operator,
            bond,
            graph_digest,
            watchdog,
            phase: EquivocatorPhase::Armed,
            book: BidBook::new(FeePolicy::Adaptive { margin: 1, cap: stake }),
            proof: None,
            report_tx: None,
            dup_tx: None,
            dup_deadline: 0,
            started_at: None,
            timeline: Timeline::new(),
        }
    }

    fn submit_report(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
    ) -> Result<Option<TxId>, ProtocolError> {
        let proof = self.proof.expect("proof assembled before submission");
        Ok(self
            .book
            .submit_call(
                world,
                participants,
                &self.watchdog,
                self.witness_chain,
                self.bond,
                &ContractCall::Witness(WitnessCall::ReportEquivocation { proof }),
            )?
            .map(|(txid, _)| txid))
    }
}

impl SwapMachine for Equivocator {
    fn poll(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
    ) -> Result<Step, ProtocolError> {
        let now = world.now();
        let started = *self.started_at.get_or_insert(now);
        match self.phase {
            EquivocatorPhase::Armed => {
                if now < self.at {
                    return Ok(Step::Waiting { not_before: self.at });
                }
                if self.proof.is_none() {
                    // The Byzantine act: one key, one digest, two decisions.
                    let mut log = TestimonyLog::new();
                    let redeem = SignedDecision::sign(
                        &self.operator,
                        self.graph_digest,
                        WitnessDecision::Redeem,
                    );
                    let refund = SignedDecision::sign(
                        &self.operator,
                        self.graph_digest,
                        WitnessDecision::Refund,
                    );
                    assert!(log.observe(redeem).is_none());
                    let proof = log
                        .observe(refund)
                        .expect("conflicting decisions assemble an equivocation proof");
                    self.timeline.record(
                        now,
                        EventKind::Note(format!(
                            "equivocation: operator on {} signed both decisions",
                            self.witness_chain
                        )),
                    );
                    self.proof = Some(proof);
                }
                // The watchdog may itself be unreachable or priced out for a
                // while (`Ok(None)`); the proof does not expire — retry.
                match self.submit_report(world, participants)? {
                    Some(txid) => {
                        self.report_tx = Some(txid);
                        self.phase = EquivocatorPhase::AwaitInclusion;
                        self.timeline
                            .record(now, EventKind::Note("fraud proof submitted".to_string()));
                        Ok(Step::Waiting { not_before: now + RETRY_MS })
                    }
                    None => Ok(Step::Waiting { not_before: now + RETRY_MS }),
                }
            }
            EquivocatorPhase::AwaitInclusion => {
                let txid = self.report_tx.expect("report submitted");
                if world.chain(self.witness_chain)?.tx_depth(&txid).is_some() {
                    self.timeline
                        .record(now, EventKind::Note("slash accepted on-chain".to_string()));
                    match self.submit_report(world, participants)? {
                        Some(dup) => {
                            self.dup_tx = Some(dup);
                            self.dup_deadline = now + 4 * RETRY_MS;
                            self.phase = EquivocatorPhase::AwaitDuplicate;
                            Ok(Step::Waiting { not_before: self.dup_deadline })
                        }
                        None => Ok(Step::Waiting { not_before: now + RETRY_MS }),
                    }
                } else if now > self.at + SLASH_INCLUSION_CAP_MS {
                    Err(ProtocolError::World(format!(
                        "slash report on {} not included within {SLASH_INCLUSION_CAP_MS} ms",
                        self.witness_chain
                    )))
                } else {
                    // Re-bid a stuck report over whatever floor the
                    // griefers have raised, and follow the replace-by-fee
                    // id rewrites — the superseded transaction will never
                    // confirm.
                    for change in self.book.poll(world, participants)? {
                        if let Some(tx) = self.report_tx.as_mut() {
                            change.rewrite_txid(tx);
                        }
                    }
                    Ok(Step::Waiting { not_before: now + RETRY_MS })
                }
            }
            EquivocatorPhase::AwaitDuplicate => {
                if now < self.dup_deadline {
                    // Give the duplicate fair admission — escalate it like
                    // any honest bid (rewriting its id on replace-by-fee),
                    // so its rejection below is the contract refusing a
                    // second slash, not the mempool refusing the fee.
                    for change in self.book.poll(world, participants)? {
                        if let Some(tx) = self.dup_tx.as_mut() {
                            change.rewrite_txid(tx);
                        }
                    }
                    return Ok(Step::Waiting { not_before: now + RETRY_MS });
                }
                let dup = self.dup_tx.expect("duplicate submitted");
                // An already-slashed bond makes the duplicate call fail at
                // execution, so miners never include it: it must still be
                // non-canonical after the deadline's worth of blocks.
                let note = if world.chain(self.witness_chain)?.tx_depth(&dup).is_none() {
                    "duplicate slash report rejected"
                } else {
                    "duplicate slash report accepted (double slash!)"
                };
                self.timeline.record(now, EventKind::Note(note.to_string()));
                Ok(adversary_report(started, now, std::mem::take(&mut self.timeline)))
            }
        }
    }

    fn phase_name(&self) -> &'static str {
        match self.phase {
            EquivocatorPhase::Armed => "equivocate",
            EquivocatorPhase::AwaitInclusion => "await-slash",
            EquivocatorPhase::AwaitDuplicate => "await-duplicate",
        }
    }

    fn footprint(&self) -> MachineFootprint {
        MachineFootprint { chains: vec![self.witness_chain], actors: vec![self.watchdog] }
    }
}

/// A bribed witness operator signs a single decision against observed
/// evidence; the watchdog's testimony log flags it as unsupported by chain
/// state. One signature is not self-incriminating: detectable, not
/// slashable.
struct Briber {
    at: Timestamp,
    witness_chain: ChainId,
    commit: bool,
    operator: KeyPair,
    bond: ContractId,
    graph_digest: Hash256,
    started_at: Option<Timestamp>,
    timeline: Timeline,
}

impl SwapMachine for Briber {
    fn poll(
        &mut self,
        world: &mut dyn ChainApi,
        _participants: &mut ParticipantSet,
    ) -> Result<Step, ProtocolError> {
        let now = world.now();
        let started = *self.started_at.get_or_insert(now);
        if now < self.at {
            return Ok(Step::Waiting { not_before: self.at });
        }
        let decision = if self.commit { WitnessDecision::Redeem } else { WitnessDecision::Refund };
        let attestation = SignedDecision::sign(&self.operator, self.graph_digest, decision);
        self.timeline.record(
            now,
            EventKind::Note(format!(
                "bribe: operator on {} attested {decision:?} off-chain",
                self.witness_chain
            )),
        );
        let mut log = TestimonyLog::new();
        assert!(log.observe(attestation).is_none(), "a single decision is not equivocation");
        // The bond sits in "P": *any* decision attestation is unsupported.
        let unsupported = log.unsupported_by(world, self.witness_chain, self.bond);
        if !unsupported.is_empty() {
            self.timeline.record(
                now,
                EventKind::Note(
                    "bribed attestation detected: unsupported by chain state".to_string(),
                ),
            );
        }
        Ok(adversary_report(started, now, std::mem::take(&mut self.timeline)))
    }

    fn phase_name(&self) -> &'static str {
        "bribe"
    }

    fn footprint(&self) -> MachineFootprint {
        MachineFootprint { chains: vec![self.witness_chain], actors: Vec::new() }
    }
}

/// Which griefing campaign a [`Griefer`] wages.
enum GriefMode {
    /// Keep the bounded mempool full of just-above-floor bids.
    Flood,
    /// Fill every block to drive the dynamic base fee up.
    Spike { split_tx: Option<TxId>, chunks: Vec<OutPoint>, next_chunk: usize },
}

/// Value of each pre-split UTXO a base-fee spiker burns per transaction —
/// generous headroom over any base fee the short spike window can reach.
const SPIKE_CHUNK_VALUE: Amount = 64;
/// How many chunk UTXOs the spiker pre-splits. Spending pre-split chunks
/// (rather than re-planning inputs every block) keeps every spike
/// transaction conflict-free and the whole burst deterministic.
const SPIKE_CHUNKS: u32 = 192;

/// A fee-market griefer: a funded adversary identity waging one
/// eviction-flooding or base-fee-spiking burst against one chain. Both
/// modes spend through the scheduler's fee-attribution bracket, so the
/// ledger pins every unit of adversary spend to this machine's [`SwapId`].
struct Griefer {
    name: String,
    addr: Address,
    chain: ChainId,
    window: OutageWindow,
    budget: Amount,
    spent: Amount,
    txs: u64,
    seq: u64,
    mode: GriefMode,
    started_at: Option<Timestamp>,
    timeline: Timeline,
}

impl Griefer {
    fn flood(
        name: String,
        addr: Address,
        chain: ChainId,
        window: OutageWindow,
        budget: Amount,
    ) -> Self {
        Griefer {
            name,
            addr,
            chain,
            window,
            budget,
            spent: 0,
            txs: 0,
            seq: 0,
            mode: GriefMode::Flood,
            started_at: None,
            timeline: Timeline::new(),
        }
    }

    fn spike(
        name: String,
        addr: Address,
        chain: ChainId,
        window: OutageWindow,
        budget: Amount,
    ) -> Self {
        Griefer {
            name,
            addr,
            chain,
            window,
            budget,
            spent: 0,
            txs: 0,
            seq: 0,
            mode: GriefMode::Spike { split_tx: None, chunks: Vec::new(), next_chunk: 0 },
            started_at: None,
            timeline: Timeline::new(),
        }
    }

    /// A unique, deterministic phantom outpoint for flood transaction
    /// `seq`. Phantom inputs are admitted to the mempool (admission is
    /// fee-based) but never execute, so flood transactions hold their slots
    /// until evicted by a higher bid — exactly the attack.
    fn phantom(&self, seq: u64) -> OutPoint {
        let mut bytes = self.addr.to_bytes().to_vec();
        bytes.extend_from_slice(&seq.to_le_bytes());
        bytes.extend_from_slice(b"ac3wn/campaign/flood");
        OutPoint::new(TxId(Hash256::digest(&bytes)), 0)
    }

    fn finish(&mut self, now: Timestamp, started: Timestamp, what: &str) -> Step {
        self.timeline.record(
            now,
            EventKind::Note(format!(
                "{what} burst on {} done: {} fee units over {} txs",
                self.chain, self.spent, self.txs
            )),
        );
        adversary_report(started, now, std::mem::take(&mut self.timeline))
    }
}

impl SwapMachine for Griefer {
    fn poll(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
    ) -> Result<Step, ProtocolError> {
        let now = world.now();
        let started = *self.started_at.get_or_insert(now);
        if now < self.window.from {
            return Ok(Step::Waiting { not_before: self.window.from });
        }
        match &mut self.mode {
            GriefMode::Flood => {
                if now >= self.window.until || self.spent >= self.budget {
                    return Ok(self.finish(now, started, "flood"));
                }
                let cong = match world.congestion(self.chain) {
                    Ok(c) => c,
                    // The chain may itself be partitioned; wait it out.
                    Err(_) => return Ok(Step::Waiting { not_before: now + RETRY_MS }),
                };
                // Above the guaranteed-admission price, with a budget-scaled
                // overbid: a richer adversary bids higher per slot, not just
                // longer, so the floor it leaves under honest opening bids
                // rises with the griefing budget.
                let overbid = self.budget / (cong.capacity.max(1) as Amount * 16);
                let fee = cong.fee_floor + 1 + overbid;
                // Fill whatever room is left plus a couple of evictions.
                let want = cong.capacity.saturating_sub(cong.depth) + 2;
                for _ in 0..want {
                    if self.spent + fee > self.budget {
                        break;
                    }
                    let seq = self.seq;
                    let phantom = self.phantom(seq);
                    let tx = match participants.get_mut(&self.name) {
                        Some(p) => p.builder(self.chain).transfer(vec![phantom], vec![], fee),
                        None => break,
                    };
                    match world.submit(self.chain, tx) {
                        Ok(_) => {
                            self.spent += fee;
                            self.txs += 1;
                            self.seq += 1;
                        }
                        Err(e) if is_soft_submit_error(&e) => break,
                        Err(e) => return Err(e.into()),
                    }
                }
                Ok(Step::Waiting { not_before: now + RETRY_MS })
            }
            GriefMode::Spike { split_tx, chunks, next_chunk } => {
                if now >= self.window.until || self.spent >= self.budget {
                    return Ok(self.finish(now, started, "spike"));
                }
                let cong = match world.congestion(self.chain) {
                    Ok(c) => c,
                    Err(_) => return Ok(Step::Waiting { not_before: now + RETRY_MS }),
                };
                match split_tx {
                    None => {
                        // Pre-split funding into independent chunk UTXOs so
                        // every spike transaction spends a distinct input.
                        let amount = SPIKE_CHUNK_VALUE * SPIKE_CHUNKS as Amount;
                        let fee = cong.fee_floor + 1;
                        let Some((inputs, mut outputs)) = world
                            .chain(self.chain)?
                            .plan_payment(&self.addr, &self.addr, amount, fee)
                        else {
                            self.timeline.record(
                                now,
                                EventKind::Note("spike unfunded: split not plannable".to_string()),
                            );
                            return Ok(self.finish(now, started, "spike"));
                        };
                        // Replace the single self-payment with the chunks,
                        // keeping any change outputs behind them.
                        outputs.remove(0);
                        let mut split_outputs: Vec<TxOutput> = (0..SPIKE_CHUNKS)
                            .map(|_| TxOutput::new(self.addr, SPIKE_CHUNK_VALUE))
                            .collect();
                        split_outputs.append(&mut outputs);
                        let tx = match participants.get_mut(&self.name) {
                            Some(p) => p.builder(self.chain).transfer(inputs, split_outputs, fee),
                            None => return Ok(Step::Waiting { not_before: now + RETRY_MS }),
                        };
                        match world.submit(self.chain, tx) {
                            Ok(txid) => {
                                self.spent += fee;
                                *split_tx = Some(txid);
                                *chunks =
                                    (0..SPIKE_CHUNKS).map(|j| OutPoint::new(txid, j)).collect();
                            }
                            Err(e) if is_soft_submit_error(&e) => {}
                            Err(e) => return Err(e.into()),
                        }
                        Ok(Step::Waiting { not_before: now + RETRY_MS })
                    }
                    Some(txid) => {
                        if world.chain(self.chain)?.tx_depth(txid).is_none() {
                            // Split not yet canonical; nothing to spend.
                            return Ok(Step::Waiting { not_before: now + RETRY_MS });
                        }
                        // Fill the next block: one transaction per budget
                        // slot, priced above the current admission fee plus a
                        // budget-scaled overbid, so a richer spiker burns more
                        // per mined chunk and drags the admission price honest
                        // bidders observe up with it.
                        let overbid = self.budget / SPIKE_CHUNKS as Amount;
                        let fee = cong
                            .base_fee
                            .max(cong.fee_floor)
                            .max(1)
                            .saturating_add(1 + overbid)
                            .min(SPIKE_CHUNK_VALUE - 1);
                        for _ in 0..cong.block_budget {
                            if self.spent + fee > self.budget || *next_chunk >= chunks.len() {
                                break;
                            }
                            let input = chunks[*next_chunk];
                            let outputs = vec![TxOutput::new(self.addr, SPIKE_CHUNK_VALUE - fee)];
                            let tx = match participants.get_mut(&self.name) {
                                Some(p) => {
                                    p.builder(self.chain).transfer(vec![input], outputs, fee)
                                }
                                None => break,
                            };
                            match world.submit(self.chain, tx) {
                                Ok(_) => {
                                    self.spent += fee;
                                    self.txs += 1;
                                    *next_chunk += 1;
                                }
                                Err(e) if is_soft_submit_error(&e) => break,
                                Err(e) => return Err(e.into()),
                            }
                        }
                        if *next_chunk >= chunks.len() {
                            return Ok(self.finish(now, started, "spike"));
                        }
                        Ok(Step::Waiting { not_before: now + RETRY_MS })
                    }
                }
            }
        }
    }

    fn phase_name(&self) -> &'static str {
        match self.mode {
            GriefMode::Flood => "flood",
            GriefMode::Spike { .. } => "spike",
        }
    }

    fn footprint(&self) -> MachineFootprint {
        MachineFootprint { chains: vec![self.chain], actors: vec![self.addr] }
    }
}

// ---------------------------------------------------------------------------
// The campaign scenario and runner
// ---------------------------------------------------------------------------

/// One witness-network bond: the operator's attestation keypair and its
/// staked on-chain contract.
pub struct WitnessBond {
    /// The witness chain the bond lives on.
    pub chain: ChainId,
    /// The operator's off-chain attestation keypair (deterministic from the
    /// chain index, so campaigns are seed-reproducible).
    pub operator: KeyPair,
    /// The graph digest the bond covers.
    pub graph_digest: Hash256,
    /// The deployed, staked contract.
    pub contract: ContractId,
}

/// A fully built campaign: the shared world and cast, the honest batch, the
/// staked bonds, and the plan.
pub struct Campaign {
    /// The honest scenario (world, participants, swaps, chains).
    pub scenario: MultiSwapScenario,
    /// The watchdog identity that reports fraud proofs.
    pub watchdog: Address,
    /// One staked bond per witness chain.
    pub bonds: Vec<WitnessBond>,
    /// The griefing identities, one per potential burst.
    pub griefers: Vec<(String, Address)>,
    /// The drawn plan.
    pub plan: CampaignPlan,
}

/// The honest machine mix: swap `i` runs under protocol `i mod 4`
/// (AC3WN, AC3TW, Herlihy, Herlihy-multi), as in the determinism suite.
pub(crate) fn honest_machines(
    cfg: &CampaignConfig,
    scenario: &MultiSwapScenario,
) -> Vec<(SwapId, Box<dyn SwapMachine>)> {
    let ac3wn = Ac3wn::new(cfg.protocol.clone());
    let ac3tw = Ac3tw::new(cfg.protocol.clone());
    let herlihy = Herlihy::new(cfg.protocol.clone());
    let herlihy_multi = HerlihyMulti::new(cfg.protocol.clone());
    scenario
        .swaps
        .iter()
        .enumerate()
        .map(|(i, swap)| {
            let machine: Box<dyn SwapMachine> = match i % 4 {
                0 => Box::new(ac3wn.machine(swap.graph.clone(), swap.witness)),
                1 => Box::new(ac3tw.machine(swap.graph.clone())),
                2 => Box::new(herlihy.machine(swap.graph.clone()).expect("two-party has a leader")),
                _ => Box::new(herlihy_multi.machine(swap.graph.clone()).expect("valid graph")),
            };
            (swap.id, machine)
        })
        .collect()
}

/// Build the adversary machines a plan calls for, with ids above
/// [`ADVERSARY_ID_BASE`].
pub(crate) fn adversary_machines(
    campaign: &Campaign,
    stake: Amount,
) -> Vec<(SwapId, Box<dyn SwapMachine>)> {
    let mut machines: Vec<(SwapId, Box<dyn SwapMachine>)> = Vec::new();
    let mut next_id = ADVERSARY_ID_BASE;
    let mut id = || {
        let id = SwapId(next_id);
        next_id += 1;
        id
    };
    let bond_on = |chain: ChainId| {
        campaign
            .bonds
            .iter()
            .find(|b| b.chain == chain)
            .expect("plans only target bonded witness chains")
    };

    // World-mutating faults ride in one injector.
    let injected: Vec<CampaignEvent> = campaign
        .plan
        .events
        .iter()
        .filter(|e| {
            matches!(e.fault, Fault::Crash { .. } | Fault::Partition { .. } | Fault::Fork { .. })
        })
        .cloned()
        .collect();
    if !injected.is_empty() {
        let victims: Vec<Address> = injected
            .iter()
            .filter_map(|e| match &e.fault {
                Fault::Crash { participant, .. } => {
                    campaign.scenario.participants.get(participant).map(|p| p.address())
                }
                _ => None,
            })
            .collect();
        machines.push((id(), Box::new(FaultInjector::new(injected, victims))));
    }

    let mut griefer_slot = 0usize;
    for event in &campaign.plan.events {
        match &event.fault {
            Fault::Equivocate { witness_chain } => {
                let bond = bond_on(*witness_chain);
                machines.push((
                    id(),
                    Box::new(Equivocator::new(
                        event.at,
                        *witness_chain,
                        bond.operator,
                        bond.contract,
                        bond.graph_digest,
                        campaign.watchdog,
                        stake,
                    )),
                ));
            }
            Fault::Bribe { witness_chain, commit } => {
                let bond = bond_on(*witness_chain);
                machines.push((
                    id(),
                    Box::new(Briber {
                        at: event.at,
                        witness_chain: *witness_chain,
                        commit: *commit,
                        operator: bond.operator,
                        bond: bond.contract,
                        graph_digest: bond.graph_digest,
                        started_at: None,
                        timeline: Timeline::new(),
                    }),
                ));
            }
            Fault::FloodMempool { chain, window, budget } => {
                let (name, addr) = campaign.griefers[griefer_slot].clone();
                griefer_slot += 1;
                machines
                    .push((id(), Box::new(Griefer::flood(name, addr, *chain, *window, *budget))));
            }
            Fault::SpikeBaseFee { chain, window, budget } => {
                let (name, addr) = campaign.griefers[griefer_slot].clone();
                griefer_slot += 1;
                machines
                    .push((id(), Box::new(Griefer::spike(name, addr, *chain, *window, *budget))));
            }
            _ => {}
        }
    }
    machines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_seed_deterministic() {
        let chains = [ChainId(0), ChainId(1)];
        let witnesses = [ChainId(2)];
        let names = ["s0a".to_string(), "s0b".to_string()];
        let space = CampaignSpace::default();
        let a = CampaignPlan::random(99, &space, 10_000, &chains, &witnesses, &names);
        let b = CampaignPlan::random(99, &space, 10_000, &chains, &witnesses, &names);
        let c = CampaignPlan::random(100, &space, 10_000, &chains, &witnesses, &names);
        assert_eq!(a, b);
        assert_ne!(a.events, c.events);
        // Every fault class the space requested is present.
        assert_eq!(a.count(|f| matches!(f, Fault::Crash { .. })), space.crashes);
        assert_eq!(a.count(|f| matches!(f, Fault::Partition { .. })), space.partitions);
        assert_eq!(a.count(|f| matches!(f, Fault::Fork { .. })), space.forks);
        // Only one witness chain, so at most one equivocation.
        assert_eq!(a.count(|f| matches!(f, Fault::Equivocate { .. })), 1);
        assert_eq!(a.count(|f| matches!(f, Fault::FloodMempool { .. })), space.floods);
        assert_eq!(a.count(|f| matches!(f, Fault::SpikeBaseFee { .. })), space.spikes);
    }

    #[test]
    fn equivocations_land_on_distinct_witness_chains() {
        let witnesses = [ChainId(5), ChainId(6), ChainId(7)];
        let space = CampaignSpace { equivocations: 3, ..CampaignSpace::quiet() };
        let plan = CampaignPlan::random(3, &space, 0, &[], &witnesses, &[]);
        let mut chains: Vec<ChainId> = plan
            .events
            .iter()
            .filter_map(|e| match e.fault {
                Fault::Equivocate { witness_chain } => Some(witness_chain),
                _ => None,
            })
            .collect();
        assert_eq!(chains.len(), 3);
        chains.sort();
        chains.dedup();
        assert_eq!(chains.len(), 3, "each equivocation targets its own bond");
    }

    #[test]
    fn testimony_log_detects_equivocation_and_discards_forgeries() {
        let op = KeyPair::from_seed(b"operator");
        let digest = Hash256::digest(b"ms(D)");
        let mut log = TestimonyLog::new();

        let rd = SignedDecision::sign(&op, digest, WitnessDecision::Redeem);
        assert!(log.observe(rd).is_none(), "a single decision is not a conflict");
        // A forged conflicting attestation is dropped, not treated as fraud.
        let mut forged = SignedDecision::sign(&op, digest, WitnessDecision::Refund);
        forged.signature = KeyPair::from_seed(b"mallory").sign(b"junk");
        assert!(log.observe(forged).is_none());
        assert_eq!(log.decisions.len(), 1);
        // A decision about a *different* graph does not conflict.
        let other = SignedDecision::sign(&op, Hash256::digest(b"other"), WitnessDecision::Refund);
        assert!(log.observe(other).is_none());

        // The genuine conflicting signature yields a verifying fraud proof.
        let rf = SignedDecision::sign(&op, digest, WitnessDecision::Refund);
        let proof = log.observe(rf).expect("conflict detected");
        proof.verify(&op.public(), &digest).unwrap();
    }

    #[test]
    fn testimony_log_flags_decisions_unsupported_by_chain_state() {
        use crate::actions::deploy_contract;
        use ac3_chain::ChainParams;
        use ac3_contracts::{ContractSpec, ExpectedContract, WitnessSpec};
        use ac3_sim::World;

        let mut participants = ParticipantSet::new();
        let alice = participants.add("alice");
        let mut world = World::new();
        let chain = world.add_chain(ChainParams::test("w"), &[(alice, 100)]);
        let anchor = world.anchor(chain).unwrap();
        let op = KeyPair::from_seed(b"operator");
        let digest = Hash256::digest(b"ms(D)");
        let spec = ContractSpec::Witness(WitnessSpec {
            participants: vec![alice],
            graph_digest: digest,
            expected_contracts: vec![ExpectedContract {
                chain,
                sender: alice,
                recipient: Address::from(KeyPair::from_seed(b"bob").public()),
                amount: 10,
                anchor,
                required_depth: 0,
            }],
            operator: Some(op.public()),
            stake: 0,
        });
        let (_, contract) = deploy_contract(&mut world, &mut participants, &alice, chain, &spec, 0)
            .unwrap()
            .expect("alice is available");
        world.advance(2 * world.chain(chain).unwrap().params().block_interval_ms);

        // The contract sits in P: *any* decision attestation is unsupported.
        let mut log = TestimonyLog::new();
        log.observe(SignedDecision::sign(&op, digest, WitnessDecision::Redeem));
        assert_eq!(log.unsupported_by(&world, chain, contract).len(), 1);
    }
}
