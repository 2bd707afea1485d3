//! The concurrent swap scheduler: N AC2Ts in flight over one shared world.
//!
//! The paper's throughput claim (Section 6.4 / Table 1) is about *many*
//! AC2Ts running at once — aggregate commitment throughput bounded by
//! `min(tps)` over the involved chains. The blocking drivers could never
//! exercise that claim because each `execute` call monopolised simulated
//! time. The [`Scheduler`] drives a batch of [`SwapMachine`]s instead: it
//! advances world time **once per tick** and polls every in-flight machine
//! at each tick, so hundreds of swaps share block space, mempools and the
//! witness chain(s) rather than each owning the clock. The Section 5.2
//! scalability experiment builds on this: k real witness chains in one
//! world, with swaps assigned round-robin
//! (see [`crate::scenario::concurrent_swaps_multi_witness`]).
//!
//! Per-swap attribution: each machine keeps its own timeline (part of its
//! [`SwapReport`]), and the scheduler brackets every poll with
//! [`World::set_fee_attribution`] so the world's [`ac3_sim::FeeLedger`]
//! records which swap paid which fees.
//!
//! # Example: two machines through one scheduler
//!
//! Any [`SwapMachine`] can join a batch — the AC3 protocols and the
//! Nolan/Herlihy baselines (single- and multi-leader, all on
//! [`crate::herlihy::HerlihyMachine`]) decompose into machines:
//!
//! ```
//! use ac3_core::scenario::{concurrent_swaps_scenario, ScenarioConfig};
//! use ac3_core::{Ac3wn, ProtocolConfig, Scheduler, SwapMachine};
//!
//! // Two two-party AC2Ts over two shared asset chains + a shared witness.
//! let mut s = concurrent_swaps_scenario(2, 2, &ScenarioConfig::default());
//! let driver = Ac3wn::new(ProtocolConfig::default());
//! let machines = s.machines_with(|swap| {
//!     Box::new(driver.machine(swap.graph.clone(), swap.witness)) as Box<dyn SwapMachine>
//! });
//!
//! let batch = Scheduler::default().run(&mut s.world, &mut s.participants, machines);
//! assert_eq!(batch.committed(), 2);
//! assert!(batch.all_atomic());
//! // Fees were billed per swap while the machines shared one world.
//! assert!(s.swaps.iter().all(|swap| s.world.fees.fees_for_swap(swap.id) > 0));
//! ```

use crate::driver::{MachineFootprint, Step, SwapMachine};
use crate::partition::partition_batch;
use crate::protocol::{ProtocolError, SwapReport};
use ac3_chain::{Amount, ChainId, Timestamp};
use ac3_sim::{NetworkProfile, ParticipantSet, SwapId, World};
use std::collections::BTreeMap;

/// Drives a batch of swap state machines over one shared world.
#[derive(Debug, Clone)]
pub struct Scheduler {
    /// Upper bound on simulated time spent after the batch starts; swaps
    /// still unfinished when it is exhausted fail with a timeout error
    /// (protects callers from a livelocked machine).
    pub max_ms: u64,
    /// Worker threads for [`Scheduler::run`]: 1 polls every machine on the
    /// calling thread (the serial reference loop); above 1 the batch is
    /// partitioned into data-disjoint shards (see [`crate::partition`])
    /// polled concurrently, with results bitwise identical to the serial
    /// loop at any worker count.
    pub workers: usize,
    /// Message-level network conditions attached to the world before the
    /// batch starts (see [`ac3_sim::World::attach_network`]): every machine
    /// submission routes through a per-chain link with seeded delivery
    /// delay and loss. `None` (the default) polls machines through the
    /// synchronous [`ac3_sim::DirectApi`]. Results remain bitwise
    /// deterministic at any worker count either way.
    pub network: Option<NetworkProfile>,
    /// Run every machine poll behind the footprint-audit sanitizer
    /// ([`ac3_sim::AuditApi`]): touching a chain or actor outside the
    /// machine's declared [`MachineFootprint`] panics with the machine id,
    /// phase and offending resource instead of silently aliasing state the
    /// serial path happens to have in reach. Defaults to the
    /// `AC3_FOOTPRINT_AUDIT` environment variable
    /// ([`crate::driver::footprint_audit_enabled`]); audited runs that
    /// don't panic are bitwise identical to unaudited ones.
    pub audit: bool,
}

impl Default for Scheduler {
    fn default() -> Self {
        // One simulated day — far beyond any protocol wait cap, so the
        // budget only triggers on genuine livelock.
        Scheduler {
            max_ms: 86_400_000,
            workers: 1,
            network: None,
            audit: crate::driver::footprint_audit_enabled(),
        }
    }
}

/// How the scheduler assigns a witness chain to each swap of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WitnessAssignment {
    /// Swap `i` is coordinated by witness chain `i mod k` — the static
    /// split the Section 5.2 experiment uses.
    #[default]
    RoundRobin,
    /// Each swap is assigned, at launch time, to the witness chain with
    /// the lowest *predicted cost of coordination*: the chain's dynamic
    /// base fee (floored at 1 so fee-free chains still rank by queue)
    /// times its mempool depth (plus one, so an empty queue still prices
    /// the base fee in). Ties break by fewest assignments so far, then
    /// chain order. Routes new swaps away from witness networks that are
    /// *expensive* — deep-queued, base-fee-spiked, or both — not merely
    /// deep ones.
    LeastLoaded,
}

/// Deferred machine construction: called with the assigned witness chain
/// when the swap is launched (see [`Scheduler::run_assigned`]).
pub type MachineSeed = Box<dyn FnOnce(ChainId) -> Box<dyn SwapMachine>>;

/// The terminal result of one swap in a scheduled batch.
#[derive(Debug)]
pub struct SwapOutcome {
    /// The swap's id (also the key for fee attribution in the world
    /// ledger).
    pub id: SwapId,
    /// The witness chain the scheduler assigned (only for batches run via
    /// [`Scheduler::run_assigned`]).
    pub witness: Option<ChainId>,
    /// The swap's report, or the protocol error that ended it.
    pub result: Result<SwapReport, ProtocolError>,
}

/// The result of scheduling a batch of concurrent swaps.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-swap outcomes, in submission order.
    pub outcomes: Vec<SwapOutcome>,
    /// Simulated time at which the batch started.
    pub started_at: Timestamp,
    /// Simulated time at which the last swap finished (or the budget ran
    /// out).
    pub finished_at: Timestamp,
    /// Number of scheduler ticks (time advances) taken.
    pub ticks: u64,
}

impl BatchReport {
    /// Reports of the swaps that finished without a protocol error.
    pub fn reports(&self) -> impl Iterator<Item = (&SwapId, &SwapReport)> {
        self.outcomes.iter().filter_map(|o| o.result.as_ref().ok().map(|r| (&o.id, r)))
    }

    /// The report of one swap, if it finished without error.
    pub fn report_for(&self, id: SwapId) -> Option<&SwapReport> {
        self.outcomes.iter().find(|o| o.id == id).and_then(|o| o.result.as_ref().ok())
    }

    /// Number of swaps that committed (decision `Some(true)`).
    pub fn committed(&self) -> usize {
        self.reports().filter(|(_, r)| r.decision == Some(true)).count()
    }

    /// Number of swaps that aborted cleanly (decision `Some(false)`).
    pub fn aborted(&self) -> usize {
        self.reports().filter(|(_, r)| r.decision == Some(false)).count()
    }

    /// Number of swaps that ended in a protocol error.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_err()).count()
    }

    /// Whether every finished swap preserved all-or-nothing atomicity.
    pub fn all_atomic(&self) -> bool {
        self.reports().all(|(_, r)| r.is_atomic())
    }

    /// Wall-to-wall simulated duration of the batch.
    pub fn makespan_ms(&self) -> u64 {
        self.finished_at.saturating_sub(self.started_at)
    }

    /// Aggregate commitment throughput: committed AC2Ts per simulated
    /// second over the whole batch.
    pub fn commits_per_sec(&self) -> f64 {
        let ms = self.makespan_ms();
        if ms == 0 {
            return 0.0;
        }
        self.committed() as f64 * 1_000.0 / ms as f64
    }

    /// Per-swap fee-inflation statistics over the finished swaps — what
    /// the batch actually paid for block space versus the paper's static
    /// Section 6.2 schedule.
    pub fn fee_stats(&self) -> FeeMarketStats {
        let mut stats = FeeMarketStats::default();
        let mut inflation_sum = 0.0;
        let mut txs = 0u64;
        for (_, r) in self.reports() {
            stats.swaps += 1;
            stats.fees_paid += r.fees_paid;
            stats.fees_scheduled += r.fees_scheduled;
            stats.rebids += r.fee_rebids;
            txs += r.deployments + r.calls;
            let inflation = r.fee_inflation();
            inflation_sum += inflation;
            if inflation > stats.max_inflation {
                stats.max_inflation = inflation;
            }
        }
        if stats.swaps > 0 {
            stats.mean_inflation = inflation_sum / stats.swaps as f64;
        }
        if txs > 0 {
            stats.mean_fee_per_tx = stats.fees_paid as f64 / txs as f64;
        }
        stats
    }

    /// Witness chains assigned by [`Scheduler::run_assigned`], with how
    /// many swaps each received.
    pub fn witness_assignments(&self) -> BTreeMap<ChainId, usize> {
        let mut counts = BTreeMap::new();
        for outcome in &self.outcomes {
            if let Some(witness) = outcome.witness {
                *counts.entry(witness).or_insert(0) += 1;
            }
        }
        counts
    }
}

/// Aggregate fee-market statistics of a scheduled batch (see
/// [`BatchReport::fee_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FeeMarketStats {
    /// Number of finished swaps the stats cover.
    pub swaps: usize,
    /// Total fees actually paid (final bids of every accepted transaction).
    pub fees_paid: Amount,
    /// What the static fd/ffc schedule prices the same operations at.
    pub fees_scheduled: Amount,
    /// Total replace-by-fee escalations across the batch.
    pub rebids: u64,
    /// Mean per-swap `fees_paid / fees_scheduled`.
    pub mean_inflation: f64,
    /// Worst per-swap fee inflation.
    pub max_inflation: f64,
    /// Mean fee per accepted transaction (deployments + calls).
    pub mean_fee_per_tx: f64,
}

/// One swap of a batch, in either path: the serial loop holds every slot
/// against the whole world, the parallel path hands each shard its own.
struct Slot {
    /// Index in the batch's submission order: names the deferred seed to
    /// launch from, and restores outcome order after shards complete out
    /// of order.
    index: usize,
    id: SwapId,
    /// `None` until launched (see [`Scheduler::run_assigned`]): the seed
    /// runs with the assigned witness chain at the first poll, so the
    /// assignment can observe the mempool depths left by the swaps launched
    /// before it.
    machine: Option<Box<dyn SwapMachine>>,
    witness: Option<ChainId>,
    not_before: Timestamp,
    done: Option<Result<SwapReport, ProtocolError>>,
}

/// Builds the machine of the deferred slot at a batch index, on the witness
/// chain it picks from the world as it stands.
type Launch<'a> = dyn FnMut(&World, usize) -> (ChainId, Box<dyn SwapMachine>) + 'a;

impl Slot {
    fn new(
        index: usize,
        id: SwapId,
        machine: Option<Box<dyn SwapMachine>>,
        not_before: Timestamp,
    ) -> Self {
        Slot { index, id, machine, witness: None, not_before, done: None }
    }

    fn phase_name(&self) -> &'static str {
        self.machine.as_ref().map_or("unlaunched", |machine| machine.phase_name())
    }

    fn into_outcome(self) -> SwapOutcome {
        SwapOutcome {
            id: self.id,
            witness: self.witness,
            result: self.done.expect("loop ran to completion"),
        }
    }
}

/// The poll pass both paths share: every unfinished slot whose wake-up
/// time has come is polled once, in submission order, with its fees
/// attributed to its swap. A deferred slot is launched first — after the
/// polls of the slots ahead of it, so `launch` sees what they just
/// submitted.
fn poll_due(
    slots: &mut [Slot],
    world: &mut World,
    participants: &mut ParticipantSet,
    audit: bool,
    launch: &mut Launch,
) {
    let now = world.now();
    for slot in slots.iter_mut().filter(|s| s.done.is_none() && now >= s.not_before) {
        let machine = match &mut slot.machine {
            Some(machine) => machine,
            None => {
                let (witness, machine) = launch(world, slot.index);
                slot.witness = Some(witness);
                slot.machine.insert(machine)
            }
        };
        world.set_fee_attribution(Some(slot.id));
        match crate::driver::poll_machine_audited(
            machine.as_mut(),
            world,
            participants,
            audit,
            Some(slot.id.0),
        ) {
            Ok(Step::Done(report)) => slot.done = Some(Ok(*report)),
            Ok(Step::Waiting { not_before }) => slot.not_before = not_before,
            Err(e) => slot.done = Some(Err(e)),
        }
        world.set_fee_attribution(None);
    }
}

/// The earliest instant any unfinished slot asked to be polled again;
/// `None` once the whole batch is done.
fn next_wake<'a>(slots: impl Iterator<Item = &'a Slot>) -> Option<Timestamp> {
    slots.filter(|s| s.done.is_none()).map(|s| s.not_before).min()
}

impl Scheduler {
    /// A scheduler with the given simulated-time budget.
    pub fn new(max_ms: u64) -> Self {
        Scheduler { max_ms, ..Scheduler::default() }
    }

    /// This scheduler with its worker-thread count set (see
    /// [`Scheduler::workers`]).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// This scheduler with a network profile set (see
    /// [`Scheduler::network`]).
    pub fn with_network(mut self, profile: NetworkProfile) -> Self {
        self.network = Some(profile);
        self
    }

    /// This scheduler with the footprint-audit sanitizer forced on or off
    /// (see [`Scheduler::audit`]), overriding the environment default.
    pub fn with_footprint_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// Attach the configured network profile to the world, once, before
    /// the first poll — so both batch entry points and the parallel path's
    /// shard splitting all see the links in place.
    fn attach_network(&self, world: &mut World) {
        if let Some(profile) = self.network {
            if !world.network_attached() {
                world.attach_network(profile);
            }
        }
    }

    /// Run `machines` to completion over the shared `world`, interleaving
    /// their polls tick by tick.
    ///
    /// Each tick polls every in-flight machine whose `not_before` has
    /// passed, then advances world time to the earliest instant any machine
    /// asked to be polled again. Machines submit transactions into shared
    /// mempools; block production happens inside [`World::advance`] exactly
    /// as it does for a single swap, so an N = 1 batch reproduces
    /// [`crate::driver::drive`] tick for tick.
    ///
    /// With [`Scheduler::workers`] above 1 the batch runs through
    /// [`Scheduler::run_parallel`] instead; swap outcomes, fee ledgers and
    /// tick counts are identical either way.
    pub fn run(
        &self,
        world: &mut World,
        participants: &mut ParticipantSet,
        machines: Vec<(SwapId, Box<dyn SwapMachine>)>,
    ) -> BatchReport {
        self.attach_network(world);
        if self.workers > 1 {
            return self.run_parallel(world, participants, machines, self.workers);
        }
        let slots = machines
            .into_iter()
            .enumerate()
            .map(|(i, (id, machine))| Slot::new(i, id, Some(machine), world.now()))
            .collect();
        self.run_slots(world, participants, slots, &mut |_, _| {
            unreachable!("every machine of the batch is already built")
        })
    }

    /// Like [`Scheduler::run`], but the scheduler itself assigns each swap
    /// a witness chain at launch time according to `strategy`, then builds
    /// the machine from its seed. Under
    /// [`WitnessAssignment::LeastLoaded`] each launch observes the witness
    /// mempool depths left by every previously launched swap, so a batch
    /// self-balances across the k witness networks instead of splitting
    /// statically.
    ///
    /// Always runs the serial loop: [`Scheduler::workers`] is ignored,
    /// because a launch-time assignment needs the global view of every
    /// witness mempool that sharding takes away.
    pub fn run_assigned(
        &self,
        world: &mut World,
        participants: &mut ParticipantSet,
        witness_chains: &[ChainId],
        strategy: WitnessAssignment,
        seeds: Vec<(SwapId, MachineSeed)>,
    ) -> BatchReport {
        assert!(!witness_chains.is_empty(), "witness assignment needs at least one witness chain");
        self.attach_network(world);
        let (slots, mut seeds): (Vec<Slot>, Vec<Option<MachineSeed>>) = seeds
            .into_iter()
            .enumerate()
            .map(|(i, (id, seed))| (Slot::new(i, id, None, world.now()), Some(seed)))
            .unzip();
        let mut launched = 0usize;
        let mut assigned: BTreeMap<ChainId, usize> = BTreeMap::new();
        self.run_slots(world, participants, slots, &mut |world, index| {
            let witness = Self::pick_witness(world, witness_chains, strategy, launched, &assigned);
            launched += 1;
            *assigned.entry(witness).or_insert(0) += 1;
            let seed = seeds[index].take().expect("deferred seed consumed once");
            (witness, seed(witness))
        })
    }

    /// Pick the witness chain for the `index`-th launched swap.
    fn pick_witness(
        world: &World,
        witness_chains: &[ChainId],
        strategy: WitnessAssignment,
        index: usize,
        assigned: &BTreeMap<ChainId, usize>,
    ) -> ChainId {
        match strategy {
            WitnessAssignment::RoundRobin => witness_chains[index % witness_chains.len()],
            WitnessAssignment::LeastLoaded => witness_chains
                .iter()
                .copied()
                .min_by_key(|c| {
                    // Predicted coordination cost: base fee × queue depth.
                    // A deep queue on a cheap chain and a shallow queue on
                    // an expensive one both price worse than a shallow
                    // cheap one.
                    let cost = world
                        .chain(*c)
                        .map(|chain| {
                            let depth = chain.mempool_len() as u128 + 1;
                            let base_fee = (chain.base_fee() as u128).max(1);
                            base_fee.saturating_mul(depth)
                        })
                        .unwrap_or(u128::MAX);
                    (cost, assigned.get(c).copied().unwrap_or(0))
                })
                .expect("witness chain list is non-empty"),
        }
    }

    /// The serial reference loop: the whole world, never split.
    fn run_slots(
        &self,
        world: &mut World,
        participants: &mut ParticipantSet,
        mut slots: Vec<Slot>,
        launch: &mut Launch,
    ) -> BatchReport {
        let started_at = world.now();
        let mut ticks = 0u64;

        loop {
            poll_due(&mut slots, world, participants, self.audit, launch);
            let Some(next) = next_wake(slots.iter()) else { break };
            if self.budget_exhausted(world, started_at) {
                self.fail_unfinished(slots.iter_mut());
                break;
            }
            // One tick: advance to the earliest instant any pending machine
            // wants to be polled again.
            world.advance(next.saturating_sub(world.now()).max(1));
            ticks += 1;
        }

        BatchReport {
            outcomes: slots.into_iter().map(Slot::into_outcome).collect(),
            started_at,
            finished_at: world.now(),
            ticks,
        }
    }

    fn budget_exhausted(&self, world: &World, started_at: Timestamp) -> bool {
        world.now().saturating_sub(started_at) >= self.max_ms
    }

    /// The simulated-time budget ran out: every swap still in flight fails.
    fn fail_unfinished<'a>(&self, slots: impl Iterator<Item = &'a mut Slot>) {
        for slot in slots.filter(|s| s.done.is_none()) {
            slot.done = Some(Err(ProtocolError::World(format!(
                "scheduler budget of {} ms exhausted in phase {}",
                self.max_ms,
                slot.phase_name()
            ))));
        }
    }

    /// Run a batch across `workers` threads by splitting it into
    /// data-disjoint shards.
    ///
    /// Machines are grouped into connected components of footprint overlap
    /// ([`crate::partition::partition_batch`]); each component's chains,
    /// actors, and fee-ledger slices are *moved* out of the world
    /// ([`World::split_shard`]) into a shard a worker owns outright. Every
    /// tick has two phases in lockstep:
    ///
    /// 1. **Parallel phase** — each worker advances its shards' clocks by
    ///    the batch-wide `dt` (mining, base-fee updates, and mempool
    ///    maintenance run concurrently across shards, and chains that no
    ///    machine touches mine on the scheduler thread), then polls its
    ///    shards' due machines in submission order.
    /// 2. **Merge barrier** — the scheduler thread joins the scope, folds
    ///    the per-shard done flags and wake-up times, and picks the next
    ///    batch-wide `dt` exactly as the serial loop does.
    ///
    /// **Determinism.** Within a shard, machines poll in submission order
    /// against state only they can reach — the same instruction stream the
    /// serial loop would execute for those machines. Across shards there
    /// is no shared state at all, so thread interleaving has nothing to
    /// observe. Swap reports, fee ledgers, tick counts, and outcome order
    /// are therefore bitwise identical at *any* worker count, and identical
    /// to [`Scheduler::run`]'s serial loop; the one permitted difference
    /// from the serial loop is the relative order of *same-timestamp*
    /// events from unrelated shards in the world's global timeline (shards
    /// are absorbed in first-machine order, not poll-interleaving order).
    ///
    /// A footprint naming a chain the world does not hold falls back to
    /// the serial loop, which surfaces the error per machine.
    pub fn run_parallel(
        &self,
        world: &mut World,
        participants: &mut ParticipantSet,
        machines: Vec<(SwapId, Box<dyn SwapMachine>)>,
        workers: usize,
    ) -> BatchReport {
        let footprints: Vec<MachineFootprint> =
            machines.iter().map(|(_, m)| m.footprint()).collect();
        if footprints.iter().flat_map(|f| f.chains.iter()).any(|c| world.chain(*c).is_err()) {
            let serial = Scheduler { workers: 1, ..self.clone() };
            return serial.run(world, participants, machines);
        }
        let components = partition_batch(&footprints);

        // Carve one shard task per component out of the world.
        let mut machines: Vec<Option<(SwapId, Box<dyn SwapMachine>)>> =
            machines.into_iter().map(Some).collect();
        let started_at = world.now();
        let mut tasks: Vec<ShardTask> = Vec::with_capacity(components.len());
        for component in &components {
            let swaps: Vec<SwapId> = component
                .machines
                .iter()
                .map(|&i| machines[i].as_ref().expect("each machine joins one shard").0)
                .collect();
            let shard_world = world
                .split_shard(&component.chains, &swaps)
                .expect("footprint chains verified above");
            let shard_participants = participants.split_off(&component.actors);
            let slots = component
                .machines
                .iter()
                .map(|&i| {
                    let (id, machine) = machines[i].take().expect("each machine joins one shard");
                    Slot::new(i, id, Some(machine), started_at)
                })
                .collect();
            tasks.push(ShardTask {
                world: shard_world,
                participants: shard_participants,
                slots,
                audit: self.audit,
            });
        }

        let mut ticks = 0u64;
        let mut dt = 0u64;
        loop {
            // Parallel phase: advance every shard by the batch-wide dt,
            // then poll due machines — shard-local serial order inside,
            // no shared state across.
            let stripe = tasks.len().div_ceil(workers.max(1).min(tasks.len().max(1)));
            std::thread::scope(|scope| {
                let mut chunks = tasks.chunks_mut(stripe.max(1));
                // Run the first stripe on the scheduler thread (alongside
                // the residual, machine-free chains) instead of parking it
                // at the join barrier.
                let local = chunks.next();
                for chunk in chunks {
                    scope.spawn(move || {
                        for task in chunk {
                            task.step(dt);
                        }
                    });
                }
                if dt > 0 {
                    world.advance(dt);
                }
                if let Some(chunk) = local {
                    for task in chunk {
                        task.step(dt);
                    }
                }
            });
            if dt > 0 {
                ticks += 1;
            }

            // Merge barrier: fold shard summaries, decide the next dt —
            // the same decisions, in the same order, as the serial loop.
            let Some(next) = next_wake(tasks.iter().flat_map(|t| t.slots.iter())) else { break };
            if self.budget_exhausted(world, started_at) {
                self.fail_unfinished(tasks.iter_mut().flat_map(|t| t.slots.iter_mut()));
                break;
            }
            dt = next.saturating_sub(world.now()).max(1);
        }

        // Reassemble: absorb shards in deterministic component order and
        // restore the original outcome order.
        let finished_at = world.now();
        let mut outcomes: Vec<Option<SwapOutcome>> = Vec::new();
        outcomes.resize_with(machines.len(), || None);
        for task in tasks {
            world.absorb_shard(task.world);
            participants.absorb(task.participants);
            for slot in task.slots {
                let index = slot.index;
                outcomes[index] = Some(slot.into_outcome());
            }
        }
        BatchReport {
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("every machine joined exactly one shard"))
                .collect(),
            started_at,
            finished_at,
            ticks,
        }
    }
}

/// One worker-owned shard: a split-off world, the participants its
/// machines sign for, and the machines themselves. `Send` because every
/// constituent is (`World` and `ParticipantSet` own their data; machines
/// carry the `SwapMachine: Send` supertrait bound).
struct ShardTask {
    world: World,
    participants: ParticipantSet,
    slots: Vec<Slot>,
    /// Whether polls run behind the footprint-audit sanitizer (see
    /// [`Scheduler::audit`]).
    audit: bool,
}

impl ShardTask {
    /// One lockstep tick of this shard: advance the shard clock by the
    /// batch-wide `dt`, then run the poll pass restricted to this shard.
    /// Shards never hold deferred seeds — witness assignment is a global
    /// decision only the serial launcher makes (see
    /// [`Scheduler::run_assigned`]).
    fn step(&mut self, dt: u64) {
        if dt > 0 {
            self.world.advance(dt);
        }
        poll_due(
            &mut self.slots,
            &mut self.world,
            &mut self.participants,
            self.audit,
            &mut |_, _| unreachable!("shards hold launched machines only"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{concurrent_swaps_scenario, ScenarioConfig};
    use crate::{Ac3wn, ProtocolConfig};

    fn protocol_cfg() -> ProtocolConfig {
        ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() }
    }

    #[test]
    fn small_batch_commits_concurrently() {
        let mut s = concurrent_swaps_scenario(4, 2, &ScenarioConfig::default());
        let driver = Ac3wn::new(protocol_cfg());
        let machines =
            s.machines_with(|swap| Box::new(driver.machine(swap.graph.clone(), swap.witness)));
        let batch = Scheduler::default().run(&mut s.world, &mut s.participants, machines);
        assert_eq!(batch.committed(), 4, "all four swaps commit");
        assert_eq!(batch.failed(), 0);
        assert!(batch.all_atomic());
        // Concurrency: four swaps of ~4Δ each complete in far less than
        // 4 × the single-swap latency.
        let single = batch.report_for(s.swaps[0].id).unwrap().latency_ms();
        assert!(
            batch.makespan_ms() < single * 3,
            "batch of 4 took {} ms vs single latency {} ms — swaps did not interleave",
            batch.makespan_ms(),
            single
        );
        // Fees were attributed per swap and sum to the world ledger total.
        let attributed: u64 = s.swaps.iter().map(|swap| s.world.fees.fees_for_swap(swap.id)).sum();
        assert_eq!(attributed, s.world.fees.total_fees());
        s.world.assert_state_integrity();
    }

    #[test]
    fn uncontended_batch_pays_exactly_the_static_schedule() {
        let mut s = concurrent_swaps_scenario(3, 3, &ScenarioConfig::default());
        let driver = Ac3wn::new(ProtocolConfig {
            fee_policy: crate::fee::FeePolicy::Exponential { cap: 64 },
            ..protocol_cfg()
        });
        let machines =
            s.machines_with(|swap| Box::new(driver.machine(swap.graph.clone(), swap.witness)));
        let batch = Scheduler::default().run(&mut s.world, &mut s.participants, machines);
        assert_eq!(batch.committed(), 3);
        let stats = batch.fee_stats();
        // Generous throughput: nothing queues, so even an aggressive
        // policy never re-bids and the Section 6.2 schedule is exact.
        assert_eq!(stats.rebids, 0);
        assert_eq!(stats.fees_paid, stats.fees_scheduled);
        assert!((stats.mean_inflation - 1.0).abs() < 1e-9);
        assert!((stats.max_inflation - 1.0).abs() < 1e-9);
    }

    #[test]
    fn contended_witness_chain_forces_fee_escalation() {
        use ac3_chain::ChainParams;
        // Eight swaps share ONE tps-starved witness chain: their SC_w
        // registrations and authorize calls queue many blocks deep, so an
        // escalating policy must re-bid — and every swap still commits.
        let asset_params =
            (0..2).map(|i| ChainParams::fast(&format!("asset-{i}"), 1_000)).collect();
        let witness_params = ChainParams::fast("witness", 1);
        let mut s =
            crate::scenario::concurrent_swaps_over_chains(8, asset_params, witness_params, 1_000);
        let cap = 64;
        let driver = Ac3wn::new(ProtocolConfig {
            wait_cap_deltas: 64,
            fee_policy: crate::fee::FeePolicy::Exponential { cap },
            ..protocol_cfg()
        });
        let machines =
            s.machines_with(|swap| Box::new(driver.machine(swap.graph.clone(), swap.witness)));
        let batch = Scheduler::default().run(&mut s.world, &mut s.participants, machines);
        assert_eq!(batch.failed(), 0, "queueing must delay swaps, not fail them");
        assert_eq!(batch.committed(), 8);
        assert!(batch.all_atomic());
        let stats = batch.fee_stats();
        assert!(stats.rebids > 0, "a starved witness chain must force re-bids");
        assert!(
            stats.fees_paid > stats.fees_scheduled,
            "re-bidding must show up as fee inflation ({} paid vs {} scheduled)",
            stats.fees_paid,
            stats.fees_scheduled
        );
        // The policy cap is a hard per-transaction ceiling: no canonical
        // transaction on any chain ever paid more than the cap.
        for chain in s.world.chain_ids() {
            let c = s.world.chain(chain).unwrap();
            for block in c.store().canonical_blocks() {
                for tx in &block.transactions {
                    if !tx.is_coinbase() {
                        assert!(tx.fee <= cap, "tx paid {} above the cap {cap}", tx.fee);
                    }
                }
            }
        }
        s.world.assert_state_integrity();
    }

    #[test]
    fn least_loaded_assignment_routes_around_congestion() {
        use ac3_chain::{ChainParams, TxBuilder};
        use ac3_crypto::KeyPair;

        fn scenario() -> crate::scenario::MultiSwapScenario {
            let asset_params =
                (0..2).map(|i| ChainParams::fast(&format!("asset-{i}"), 1_000)).collect();
            let witness_params =
                (0..2).map(|i| ChainParams::fast(&format!("witness-{i}"), 1_000)).collect();
            crate::scenario::concurrent_swaps_multi_witness(4, asset_params, witness_params, 1_000)
        }

        fn congest_first_witness(s: &mut crate::scenario::MultiSwapScenario) {
            // Pile junk (never-mineable, unfunded-input) transactions into
            // witness 0's mempool; their fee of 0 never outbids real
            // protocol traffic, but they keep the queue deep.
            let mut junk = TxBuilder::new(KeyPair::from_seed(b"spammer"), 1 << 40);
            for i in 0..50u8 {
                let input = ac3_chain::OutPoint::new(
                    ac3_chain::TxId(ac3_crypto::Hash256::digest(&[i, 0xaa])),
                    0,
                );
                let tx = junk.transfer(vec![input], vec![], 0);
                s.world.submit(s.witness_chains[0], tx).unwrap();
            }
        }

        // Round-robin ignores congestion and splits 2/2.
        let mut rr = scenario();
        congest_first_witness(&mut rr);
        let driver = Ac3wn::new(protocol_cfg());
        let d = driver.clone();
        let seeds =
            rr.seeds_with(move |swap, witness| Box::new(d.machine(swap.graph.clone(), witness)));
        let witness_chains = rr.witness_chains.clone();
        let batch = Scheduler::default().run_assigned(
            &mut rr.world,
            &mut rr.participants,
            &witness_chains,
            WitnessAssignment::RoundRobin,
            seeds,
        );
        assert_eq!(batch.committed(), 4);
        let counts = batch.witness_assignments();
        assert_eq!(counts.get(&witness_chains[0]), Some(&2));
        assert_eq!(counts.get(&witness_chains[1]), Some(&2));

        // Least-loaded sees witness 0's deep mempool and routes everything
        // to witness 1.
        let mut ll = scenario();
        congest_first_witness(&mut ll);
        let d = driver.clone();
        let seeds =
            ll.seeds_with(move |swap, witness| Box::new(d.machine(swap.graph.clone(), witness)));
        let witness_chains = ll.witness_chains.clone();
        let batch = Scheduler::default().run_assigned(
            &mut ll.world,
            &mut ll.participants,
            &witness_chains,
            WitnessAssignment::LeastLoaded,
            seeds,
        );
        assert_eq!(batch.committed(), 4);
        let counts = batch.witness_assignments();
        assert_eq!(counts.get(&witness_chains[0]), None, "congested witness receives nothing");
        assert_eq!(counts.get(&witness_chains[1]), Some(&4));
        for outcome in &batch.outcomes {
            assert_eq!(outcome.witness, Some(witness_chains[1]));
        }
    }

    #[test]
    fn least_loaded_avoids_a_base_fee_spiked_witness() {
        use ac3_chain::{BaseFeeSchedule, ChainParams};

        // Witness 0 runs an EIP-1559-like fee market; sustained full blocks
        // spike its base fee while its mempool fully drains. A depth-only
        // ranking would see two idle queues and split the batch — the
        // predicted-cost ranking must see the spiked base fee and send
        // every swap to witness 1.
        let asset_params =
            (0..2).map(|i| ChainParams::fast(&format!("asset-{i}"), 1_000)).collect();
        let witness_params = vec![
            ChainParams::fast("witness-0", 2).with_base_fee(BaseFeeSchedule::eip1559_like()),
            ChainParams::fast("witness-1", 1_000),
        ];
        let mut s =
            crate::scenario::concurrent_swaps_multi_witness(4, asset_params, witness_params, 5_000);
        let w0 = s.witness_chains[0];

        // Fill witness 0's two-transaction blocks for a dozen intervals:
        // the base fee climbs ~13% (min +1) per full block, and every
        // spammed transaction is mined, so the queue ends empty.
        for _ in 0..12 {
            for name in ["s0a", "s0b"] {
                let addr = s.participants.get(name).unwrap().address();
                let chain = s.world.chain(w0).unwrap();
                let fee = chain.base_fee().max(chain.mempool_fee_floor());
                let (inputs, outputs) = chain.plan_payment(&addr, &addr, 1, fee).unwrap();
                let tx = s
                    .participants
                    .get_mut(name)
                    .unwrap()
                    .builder(w0)
                    .transfer(inputs, outputs, fee);
                s.world.submit(w0, tx).unwrap();
            }
            s.world.advance(1_000);
        }
        let spiked = s.world.chain(w0).unwrap();
        assert!(spiked.base_fee() > 1, "sustained full blocks must spike the base fee");
        assert_eq!(spiked.mempool_len(), 0, "the spike is pure price, not queue depth");

        let driver = Ac3wn::new(protocol_cfg());
        let seeds = s
            .seeds_with(move |swap, witness| Box::new(driver.machine(swap.graph.clone(), witness)));
        let witness_chains = s.witness_chains.clone();
        let batch = Scheduler::default().run_assigned(
            &mut s.world,
            &mut s.participants,
            &witness_chains,
            WitnessAssignment::LeastLoaded,
            seeds,
        );
        assert_eq!(batch.committed(), 4);
        let counts = batch.witness_assignments();
        assert_eq!(counts.get(&w0), None, "base-fee-spiked witness receives zero swaps");
        assert_eq!(counts.get(&witness_chains[1]), Some(&4));
    }

    #[test]
    fn least_loaded_balances_an_idle_witness_set() {
        use ac3_chain::ChainParams;
        // With no pre-existing congestion the tie-breaks (fewest
        // assignments, then chain order) spread the batch evenly — least
        // loaded degrades to a balanced split, never to a pile-up.
        let asset_params =
            (0..2).map(|i| ChainParams::fast(&format!("asset-{i}"), 1_000)).collect();
        let witness_params =
            (0..2).map(|i| ChainParams::fast(&format!("witness-{i}"), 1_000)).collect();
        let mut s =
            crate::scenario::concurrent_swaps_multi_witness(4, asset_params, witness_params, 1_000);
        let driver = Ac3wn::new(protocol_cfg());
        let seeds = s
            .seeds_with(move |swap, witness| Box::new(driver.machine(swap.graph.clone(), witness)));
        let witness_chains = s.witness_chains.clone();
        let batch = Scheduler::default().run_assigned(
            &mut s.world,
            &mut s.participants,
            &witness_chains,
            WitnessAssignment::LeastLoaded,
            seeds,
        );
        assert_eq!(batch.committed(), 4);
        let counts = batch.witness_assignments();
        assert_eq!(counts.get(&witness_chains[0]), Some(&2));
        assert_eq!(counts.get(&witness_chains[1]), Some(&2));
    }

    #[test]
    fn budget_exhaustion_fails_remaining_swaps() {
        let mut s = concurrent_swaps_scenario(2, 2, &ScenarioConfig::default());
        let driver = Ac3wn::new(protocol_cfg());
        let machines =
            s.machines_with(|swap| Box::new(driver.machine(swap.graph.clone(), swap.witness)));
        // A 1 ms budget cannot even finish registration.
        let batch = Scheduler::new(1).run(&mut s.world, &mut s.participants, machines);
        assert_eq!(batch.failed(), 2);
        assert!(!batch.outcomes.iter().any(|o| o.result.is_ok()), "nothing can finish in 1 ms");
    }
}
