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
use crate::partition::{partition_batch, Shard as Component};
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
    /// Worker threads for [`Scheduler::run`]: 1 runs the batch as one
    /// unsplit shard over the whole world on the calling thread (the
    /// reference run); above 1 the batch is partitioned into data-disjoint
    /// shards (see [`crate::partition`]) polled concurrently by the same
    /// tick loop, with results bitwise identical to the unsplit run at any
    /// worker count. [`Scheduler::run_assigned`] always runs unsplit.
    pub workers: usize,
    /// Message-level network conditions attached to the world before the
    /// batch starts (see [`ac3_sim::World::attach_network`]): every machine
    /// submission routes through a per-chain link with seeded delivery
    /// delay and loss. `None` (the default) attaches no links, so machine
    /// submissions apply at once. Results remain bitwise deterministic at
    /// any worker count either way.
    pub network: Option<NetworkProfile>,
    /// Hold an [`ac3_sim::AuditScope`] on the world and the participant
    /// set during every poll: touching a chain or actor outside the
    /// machine's declared [`MachineFootprint`] panics with the machine id,
    /// phase and offending resource instead of silently aliasing state the
    /// unsplit run happens to have in reach. Defaults to the
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
    // lint: api-ok(per-swap lookup shared by the scheduler, determinism and fault suites)
    pub fn report_for(&self, id: SwapId) -> Option<&SwapReport> {
        self.outcomes.iter().find(|o| o.id == id).and_then(|o| o.result.as_ref().ok())
    }

    /// Number of swaps that committed (decision `Some(true)`).
    pub fn committed(&self) -> usize {
        self.reports().filter(|(_, r)| r.decision == Some(true)).count()
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
    // lint: api-ok(what `Scheduler::run_assigned` chose; the fee-market tests read it)
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

/// One swap of a batch. Every slot belongs to exactly one [`Shard`].
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

/// A set of slots plus the world and participants they poll against:
/// either the caller's own, for a batch run as one unsplit shard, or a
/// component moved out of them ([`World::split_shard`],
/// [`ParticipantSet::split_off`]) that a worker owns outright. `Send`
/// because every constituent is (`World` and `ParticipantSet` own their
/// data; machines carry the `SwapMachine: Send` supertrait bound).
struct Shard<'a> {
    world: &'a mut World,
    participants: &'a mut ParticipantSet,
    slots: Vec<Slot>,
}

impl Shard<'_> {
    /// One tick of this shard: advance its clock by the batch-wide `dt`,
    /// then poll every unfinished slot whose wake-up time has come, once,
    /// in submission order, with its fees attributed to its swap. A
    /// deferred slot is launched first — after the polls of the slots
    /// ahead of it, so `launch` sees what they just submitted.
    fn tick(&mut self, dt: u64, audit: bool, launch: &mut Launch) {
        if dt > 0 {
            self.world.advance(dt);
        }
        let now = self.world.now();
        for slot in self.slots.iter_mut().filter(|s| s.done.is_none() && now >= s.not_before) {
            let machine = match &mut slot.machine {
                Some(machine) => machine,
                None => {
                    let (witness, machine) = launch(self.world, slot.index);
                    slot.witness = Some(witness);
                    slot.machine.insert(machine)
                }
            };
            self.world.set_fee_attribution(Some(slot.id));
            match crate::driver::poll_machine_audited(
                machine.as_mut(),
                self.world,
                self.participants,
                audit,
                Some(slot.id.0),
            ) {
                Ok(Step::Done(report)) => slot.done = Some(Ok(*report)),
                Ok(Step::Waiting { not_before }) => slot.not_before = not_before,
                Err(e) => slot.done = Some(Err(e)),
            }
            self.world.set_fee_attribution(None);
        }
    }
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
    // lint: api-ok(the footprint audit's switch, DESIGN.md §14)
    pub fn with_footprint_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// Attach the configured network profile to the world, once, before
    /// the first poll — so a split shard carries its links with it.
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
    /// With [`Scheduler::workers`] above 1 the batch is split into one
    /// shard per data-disjoint component and the shards are polled across
    /// the workers in lockstep. Within a shard machines poll in submission
    /// order against state only they can reach, and across shards there is
    /// no shared state, so swap outcomes, fee ledgers and tick counts are
    /// bitwise identical at any worker count. The one permitted difference
    /// from the unsplit run is the relative order of same-timestamp events
    /// from unrelated shards in the world's global timeline: shards are
    /// absorbed in first-machine order, not poll-interleaving order.
    pub fn run(
        &self,
        world: &mut World,
        participants: &mut ParticipantSet,
        machines: Vec<(SwapId, Box<dyn SwapMachine>)>,
    ) -> BatchReport {
        self.attach_network(world);
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
    /// Always runs as one unsplit shard on the calling thread, whatever
    /// [`Scheduler::workers`] says: a launch-time assignment needs the
    /// global view of every witness mempool that splitting takes away.
    // lint: api-ok(fee-aware witness assignment, DESIGN.md §8)
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

    /// The batch's data-disjoint components ([`crate::partition`]), one
    /// shard each, or `None` to run the batch as one unsplit shard over
    /// the caller's world. The batch stays unsplit at one worker, while a
    /// slot is still a deferred seed, and when a footprint names a chain
    /// the world does not hold (the unsplit run then surfaces that error
    /// per machine).
    ///
    /// One worker is never split: the unsplit run is the reference that
    /// split runs are compared against, and the footprint audit relies on
    /// it (a split shard holds only its own chains and actors, so an
    /// under-declared footprint fails there for lack of state, not with
    /// the audit's attribution).
    fn components(&self, world: &World, slots: &[Slot]) -> Option<Vec<Component>> {
        if self.workers <= 1 {
            return None;
        }
        let footprints = slots
            .iter()
            .map(|slot| slot.machine.as_ref().map(|machine| machine.footprint()))
            .collect::<Option<Vec<MachineFootprint>>>()?;
        if footprints.iter().flat_map(|f| &f.chains).any(|c| world.chain(*c).is_err()) {
            return None;
        }
        Some(partition_batch(&footprints))
    }

    /// Run `slots` as shards, then reassemble: absorb split shards in
    /// component order and restore the submission order of outcomes.
    fn run_slots(
        &self,
        world: &mut World,
        participants: &mut ParticipantSet,
        slots: Vec<Slot>,
        launch: &mut Launch,
    ) -> BatchReport {
        let started_at = world.now();
        let mut split: Vec<(World, ParticipantSet, Vec<Slot>)> = Vec::new();
        let (residual, mut shards) = match self.components(world, &slots) {
            None => {
                (None, vec![Shard { world: &mut *world, participants: &mut *participants, slots }])
            }
            Some(components) => {
                let mut slots: Vec<Option<Slot>> = slots.into_iter().map(Some).collect();
                split = components
                    .iter()
                    .map(|component| {
                        let take = |&i: &usize| slots[i].take().expect("each slot joins one shard");
                        let slots: Vec<Slot> = component.machines.iter().map(take).collect();
                        let swaps: Vec<SwapId> = slots.iter().map(|slot| slot.id).collect();
                        let shard_world = world
                            .split_shard(&component.chains, &swaps)
                            .expect("components checked every footprint chain");
                        (shard_world, participants.split_off(&component.actors), slots)
                    })
                    .collect();
                let shards = split
                    .iter_mut()
                    .map(|(world, participants, slots)| Shard {
                        world,
                        participants,
                        slots: std::mem::take(slots),
                    })
                    .collect();
                (Some(&mut *world), shards)
            }
        };
        let ticks = self.tick_loop(residual, &mut shards, launch, started_at);
        let mut slots: Vec<Slot> = shards.into_iter().flat_map(|shard| shard.slots).collect();
        for (shard_world, shard_participants, _) in split {
            world.absorb_shard(shard_world);
            participants.absorb(shard_participants);
        }
        slots.sort_by_key(|slot| slot.index);
        BatchReport {
            outcomes: slots.into_iter().map(Slot::into_outcome).collect(),
            started_at,
            finished_at: world.now(),
            ticks,
        }
    }

    /// The one tick loop, for one shard or many; returns the number of
    /// ticks that advanced the clock. Each iteration:
    ///
    /// 1. **Parallel phase** — the shards are cut into contiguous stripes,
    ///    one per worker. Every shard advances its clock by the batch-wide
    ///    `dt` (mining, base-fee updates and mempool maintenance run
    ///    concurrently across shards), then polls its due machines. The
    ///    first stripe runs on the calling thread instead of parking at the
    ///    join, together with the advance of `residual` — the machine-free
    ///    chains a split leaves in the caller's world — and with `launch`,
    ///    which only an unsplit shard calls.
    /// 2. **Merge barrier** — the scope joins; the scheduler folds the
    ///    slots' done flags and wake-up times, applies the simulated-time
    ///    budget, and picks the next `dt`: the earliest instant any pending
    ///    machine asked to be polled again.
    ///
    /// The first iteration has `dt = 0`, so it only polls.
    fn tick_loop(
        &self,
        mut residual: Option<&mut World>,
        shards: &mut [Shard],
        launch: &mut Launch,
        started_at: Timestamp,
    ) -> u64 {
        let stripe = shards.len().div_ceil(self.workers.max(1).min(shards.len().max(1))).max(1);
        let audit = self.audit;
        let (mut now, mut dt, mut ticks) = (started_at, 0u64, 0u64);
        loop {
            std::thread::scope(|scope| {
                let mut stripes = shards.chunks_mut(stripe);
                let local = stripes.next();
                for stripe in stripes {
                    scope.spawn(move || {
                        for shard in stripe {
                            shard.tick(dt, audit, &mut |_, _| {
                                unreachable!("only an unsplit shard holds deferred seeds")
                            });
                        }
                    });
                }
                if let Some(world) = residual.as_deref_mut().filter(|_| dt > 0) {
                    world.advance(dt);
                }
                for shard in local.into_iter().flatten() {
                    shard.tick(dt, audit, launch);
                }
            });
            if dt > 0 {
                now += dt;
                ticks += 1;
            }

            let pending = shards.iter().flat_map(|shard| &shard.slots).filter(|s| s.done.is_none());
            let Some(next) = pending.map(|slot| slot.not_before).min() else { break };
            if now.saturating_sub(started_at) >= self.max_ms {
                let pending = shards.iter_mut().flat_map(|shard| &mut shard.slots);
                for slot in pending.filter(|s| s.done.is_none()) {
                    slot.done = Some(Err(ProtocolError::World(format!(
                        "scheduler budget of {} ms exhausted in phase {}",
                        self.max_ms,
                        slot.phase_name()
                    ))));
                }
                break;
            }
            dt = next.saturating_sub(now).max(1);
        }
        ticks
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
        // loaded degrades to a balanced split, never to a pile-up. Deferred
        // seeds keep the batch one unsplit shard, so four workers must
        // reproduce the one-worker run exactly.
        let run = |workers: usize| {
            let asset_params =
                (0..2).map(|i| ChainParams::fast(&format!("asset-{i}"), 1_000)).collect();
            let witness_params =
                (0..2).map(|i| ChainParams::fast(&format!("witness-{i}"), 1_000)).collect();
            let mut s = crate::scenario::concurrent_swaps_multi_witness(
                4,
                asset_params,
                witness_params,
                1_000,
            );
            let driver = Ac3wn::new(protocol_cfg());
            let seeds = s.seeds_with(move |swap, witness| {
                Box::new(driver.machine(swap.graph.clone(), witness))
            });
            let witness_chains = s.witness_chains.clone();
            let batch = Scheduler::default().with_workers(workers).run_assigned(
                &mut s.world,
                &mut s.participants,
                &witness_chains,
                WitnessAssignment::LeastLoaded,
                seeds,
            );
            assert_eq!(batch.committed(), 4);
            let reports: Vec<String> = batch
                .outcomes
                .iter()
                .map(|o| serde_json::to_string(o.result.as_ref().unwrap()).unwrap())
                .collect();
            (witness_chains, batch.witness_assignments(), batch.ticks, batch.finished_at, reports)
        };
        let serial = run(1);
        let (witness_chains, counts, ..) = &serial;
        assert_eq!(counts.get(&witness_chains[0]), Some(&2));
        assert_eq!(counts.get(&witness_chains[1]), Some(&2));
        assert_eq!(run(4), serial);
    }

    #[test]
    fn empty_batch_takes_no_ticks() {
        for workers in [1, 4] {
            let mut s = concurrent_swaps_scenario(1, 2, &ScenarioConfig::default());
            let before = s.world.now();
            let batch = Scheduler::default().with_workers(workers).run(
                &mut s.world,
                &mut s.participants,
                Vec::new(),
            );
            assert!(batch.outcomes.is_empty());
            assert_eq!(batch.ticks, 0);
            assert_eq!(batch.started_at, before);
            assert_eq!(batch.finished_at, batch.started_at);
            assert_eq!(s.world.now(), before, "{workers} workers moved the clock");
        }
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
