//! The outside-in trace: spans recorded from the benchmark's own files
//! around every call into a layer.
//!
//! Three kinds of span exist. A **poll** span brackets one
//! [`SwapMachine::poll`]; **API** spans bracket each [`ChainApi`] call the
//! machine makes through [`TimedApi`] and are children of that poll; an
//! **advance** span brackets one [`World::advance`]. A span's *self time* is
//! its duration minus the interval its children cover, so a poll's self time
//! is the machine's own work (phase logic, signing, evidence assembly on
//! borrowed chains) with the simulator's share taken out.
//!
//! Every span is folded into a per-(op, protocol, phase) aggregate when it
//! closes; the first [`SAMPLE_CAP`] spans are also kept verbatim, with their
//! parent links, for the trace file.

use crate::gen::Protocol;
use ac3_chain::{Amount, BlockHash, Blockchain, ChainId, ContractId, Timestamp, Transaction, TxId};
use ac3_contracts::{ChainAnchor, TxInclusionEvidence};
use ac3_core::{BatchReport, ProtocolError, Step, SwapMachine, SwapOutcome, SwapReport};
use ac3_sim::{
    ChainApi, ChainCongestion, DirectApi, EventKind, NetworkProfile, NetworkedApi, OutageWindow,
    ParticipantSet, SwapId, World, WorldError,
};
use serde::Serialize;
use std::cell::RefCell;
use std::time::Instant;

/// Spans kept verbatim in the trace file.
pub const SAMPLE_CAP: usize = 20_000;

/// What a span brackets. The first two are layers of their own; the rest
/// are the `sim.api` layer's operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Poll,
    Advance,
    Submit,
    ReplaceTx,
    Congestion,
    MarginalFee,
    TxEvidenceSince,
    ContractState,
    Anchor,
    Chain,
    TxInFlight,
    Record,
    /// The benchmark's own bookkeeping inside a poll (cloning a submitted
    /// transaction for the mempool replay), bracketed so it is not billed
    /// to the machine.
    BenchCopy,
}

impl Op {
    /// The `sim.api` operations, in metric order.
    pub const API: [Op; 10] = [
        Op::Submit,
        Op::ReplaceTx,
        Op::Congestion,
        Op::MarginalFee,
        Op::TxEvidenceSince,
        Op::ContractState,
        Op::Anchor,
        Op::Chain,
        Op::TxInFlight,
        Op::Record,
    ];

    pub fn layer(self) -> &'static str {
        match self {
            Op::Poll => "core.machine",
            Op::Advance => "sim.advance",
            Op::BenchCopy => "bench",
            _ => "sim.api",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Op::Poll => "poll",
            Op::Advance => "advance",
            Op::Submit => "submit",
            Op::ReplaceTx => "replace_tx",
            Op::Congestion => "congestion",
            Op::MarginalFee => "marginal_fee",
            Op::TxEvidenceSince => "tx_evidence_since",
            Op::ContractState => "contract_state",
            Op::Anchor => "anchor",
            Op::Chain => "chain",
            Op::TxInFlight => "tx_in_flight",
            Op::Record => "record",
            Op::BenchCopy => "copy",
        }
    }
}

/// One recorded span, as written to the trace file.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub layer: &'static str,
    pub op: &'static str,
    pub protocol: Option<&'static str>,
    pub phase: &'static str,
    pub swap: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index, in the sample, of the span that caused this one.
    pub parent: Option<u32>,
}

/// Totals of every span sharing an (op, protocol, phase).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// What an aggregate is keyed by: the operation, the protocol of the machine
/// it ran under and that machine's phase when the poll started.
pub type Key = (Op, Option<Protocol>, &'static str);

/// The attribution a span inherits from the poll it runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Context {
    pub protocol: Option<Protocol>,
    pub phase: &'static str,
    pub swap: Option<u64>,
}

impl Context {
    /// Outside any machine: the scheduler loop itself.
    pub const NONE: Context = Context { protocol: None, phase: "", swap: None };
}

struct Open {
    op: Op,
    context: Context,
    start_ns: u64,
    child_ns: u64,
    sample_index: Option<u32>,
}

/// The in-memory span store.
pub struct Recorder {
    origin: Instant,
    stack: Vec<Open>,
    /// Aggregates keyed by (op, protocol, phase); a short vector searched
    /// linearly from the back, because consecutive spans nearly always share
    /// a key with a recent one.
    aggregates: Vec<(Key, Aggregate)>,
    sample: Vec<Span>,
    total_spans: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            stack: Vec::new(),
            aggregates: Vec::new(),
            sample: Vec::new(),
            total_spans: 0,
        }
    }
}

impl Recorder {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span at `at_ns`, nested under whatever span is open.
    pub fn open_at(&mut self, op: Op, context: Context, at_ns: u64) {
        self.stack.push(Open { op, context, start_ns: at_ns, child_ns: 0, sample_index: None });
    }

    /// Close the innermost span at `at_ns`; returns (duration, self time).
    pub fn close_at(&mut self, at_ns: u64) -> (u64, u64) {
        let open = self.stack.pop().expect("close without a matching open");
        let duration = at_ns.saturating_sub(open.start_ns);
        let self_ns = duration.saturating_sub(open.child_ns);
        let parent_index = self.stack.last().and_then(|p| p.sample_index);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        let key = (open.op, open.context.protocol, open.context.phase);
        let slot = match self.aggregates.iter().rposition(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                self.aggregates.push((key, Aggregate::default()));
                self.aggregates.len() - 1
            }
        };
        let aggregate = &mut self.aggregates[slot].1;
        aggregate.count += 1;
        aggregate.total_ns += duration;
        aggregate.self_ns += self_ns;
        self.total_spans += 1;
        if let Some(index) = open.sample_index {
            self.sample[index as usize].end_ns = at_ns;
            self.sample[index as usize].parent = parent_index;
        }
        (duration, self_ns)
    }

    /// Open a span now. The clock is read last, so the bookkeeping above it
    /// falls outside the span.
    pub fn open(&mut self, op: Op, context: Context) {
        self.open_at(op, context, 0);
        let open = self.stack.last_mut().expect("just pushed");
        if self.sample.len() < SAMPLE_CAP {
            open.sample_index = Some(self.sample.len() as u32);
            self.sample.push(Span {
                layer: op.layer(),
                op: op.name(),
                protocol: context.protocol.map(Protocol::label),
                phase: context.phase,
                swap: context.swap,
                start_ns: 0,
                end_ns: 0,
                parent: None,
            });
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        open.start_ns = now;
        if let Some(index) = open.sample_index {
            self.sample[index as usize].start_ns = now;
        }
    }

    /// Close the innermost span now. The clock is read first.
    pub fn close(&mut self) -> (u64, u64) {
        let now = self.now_ns();
        self.close_at(now)
    }

    /// The context of the innermost open span (API spans inherit the
    /// poll's).
    pub fn context(&self) -> Context {
        self.stack.last().map(|o| o.context).unwrap_or(Context::NONE)
    }

    pub fn total_spans(&self) -> u64 {
        self.total_spans
    }

    pub fn sample(&self) -> &[Span] {
        &self.sample
    }

    /// Every aggregate, sorted by key.
    pub fn aggregates(&self) -> Vec<(Key, Aggregate)> {
        let mut all = self.aggregates.clone();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Sum the aggregates `select` accepts.
    pub fn sum(&self, select: impl Fn(Op, Option<Protocol>, &'static str) -> bool) -> Aggregate {
        let mut sum = Aggregate::default();
        for ((op, protocol, phase), a) in &self.aggregates {
            if select(*op, *protocol, phase) {
                sum.count += a.count;
                sum.total_ns += a.total_ns;
                sum.self_ns += a.self_ns;
            }
        }
        sum
    }
}

/// One mempool mutation a machine asked for, kept for the mempool replay.
pub enum StreamEvent {
    Submit { at: Timestamp, chain: ChainId, tx: Transaction },
    Replace { at: Timestamp, chain: ChainId, old: TxId, tx: Transaction },
}

/// A pass-through [`ChainApi`] that brackets every call with a span (the
/// `AuditApi` pattern: no state that reaches the simulation, every call
/// forwarded verbatim, so a traced run is bitwise identical to an untraced
/// one).
pub struct TimedApi<'a> {
    inner: &'a mut dyn ChainApi,
    recorder: &'a RefCell<Recorder>,
    stream: &'a RefCell<Vec<StreamEvent>>,
    /// Calls that change the world (submit, replace, record, faults): a
    /// poll that returns `Waiting` having made none was a no-op.
    effects: u32,
}

impl<'a> TimedApi<'a> {
    pub fn new(
        inner: &'a mut dyn ChainApi,
        recorder: &'a RefCell<Recorder>,
        stream: &'a RefCell<Vec<StreamEvent>>,
    ) -> Self {
        TimedApi { inner, recorder, stream, effects: 0 }
    }

    pub fn effects(&self) -> u32 {
        self.effects
    }

    fn span<T>(&self, op: Op, call: impl FnOnce() -> T) -> T {
        span_mut(self.recorder, op, call)
    }
}

impl ChainApi for TimedApi<'_> {
    fn now(&self) -> Timestamp {
        self.inner.now()
    }

    fn delta_ms(&self) -> u64 {
        self.inner.delta_ms()
    }

    fn min_block_interval_ms(&self) -> u64 {
        self.inner.min_block_interval_ms()
    }

    fn is_reachable(&self, chain: ChainId) -> bool {
        self.inner.is_reachable(chain)
    }

    fn chain(&self, chain: ChainId) -> Result<&Blockchain, WorldError> {
        self.span(Op::Chain, || self.inner.chain(chain))
    }

    fn anchor(&self, chain: ChainId) -> Result<ChainAnchor, WorldError> {
        self.span(Op::Anchor, || self.inner.anchor(chain))
    }

    fn tx_evidence_since(
        &self,
        chain: ChainId,
        anchor: &ChainAnchor,
        txid: TxId,
    ) -> Result<TxInclusionEvidence, WorldError> {
        self.span(Op::TxEvidenceSince, || self.inner.tx_evidence_since(chain, anchor, txid))
    }

    fn contract_state(&self, chain: ChainId, contract: ContractId) -> Option<(String, u64)> {
        self.span(Op::ContractState, || self.inner.contract_state(chain, contract))
    }

    fn is_billed(&self, txid: &TxId) -> bool {
        self.inner.is_billed(txid)
    }

    fn tx_in_flight(&self, chain: ChainId, txid: &TxId) -> bool {
        self.span(Op::TxInFlight, || self.inner.tx_in_flight(chain, txid))
    }

    fn congestion(&mut self, chain: ChainId) -> Result<ChainCongestion, WorldError> {
        let inner = &mut *self.inner;
        span_mut(self.recorder, Op::Congestion, || inner.congestion(chain))
    }

    fn marginal_fee(&mut self, chain: ChainId) -> Result<Option<Amount>, WorldError> {
        let inner = &mut *self.inner;
        span_mut(self.recorder, Op::MarginalFee, || inner.marginal_fee(chain))
    }

    fn submit(&mut self, chain: ChainId, tx: Transaction) -> Result<TxId, WorldError> {
        self.effects += 1;
        let at = self.inner.now();
        let copy = self.span(Op::BenchCopy, || tx.clone());
        self.stream.borrow_mut().push(StreamEvent::Submit { at, chain, tx: copy });
        let inner = &mut *self.inner;
        span_mut(self.recorder, Op::Submit, || inner.submit(chain, tx))
    }

    fn replace_tx(
        &mut self,
        chain: ChainId,
        old: TxId,
        tx: Transaction,
    ) -> Result<TxId, WorldError> {
        self.effects += 1;
        let at = self.inner.now();
        let copy = self.span(Op::BenchCopy, || tx.clone());
        self.stream.borrow_mut().push(StreamEvent::Replace { at, chain, old, tx: copy });
        let inner = &mut *self.inner;
        span_mut(self.recorder, Op::ReplaceTx, || inner.replace_tx(chain, old, tx))
    }

    fn record(&mut self, at: Timestamp, kind: EventKind) {
        self.effects += 1;
        let inner = &mut *self.inner;
        span_mut(self.recorder, Op::Record, || inner.record(at, kind))
    }

    fn schedule_outage(&mut self, chain: ChainId, window: OutageWindow) -> Result<(), WorldError> {
        self.effects += 1;
        self.inner.schedule_outage(chain, window)
    }

    fn inject_fork(
        &mut self,
        chain: ChainId,
        fork_depth: u64,
        length: u64,
    ) -> Result<Vec<BlockHash>, WorldError> {
        self.effects += 1;
        self.inner.inject_fork(chain, fork_depth, length)
    }
}

fn span_mut<T>(recorder: &RefCell<Recorder>, op: Op, call: impl FnOnce() -> T) -> T {
    {
        let mut recorder = recorder.borrow_mut();
        let context = recorder.context();
        recorder.open(op, context);
    }
    let result = call();
    recorder.borrow_mut().close();
    result
}

/// Per-machine totals of the traced loop, in submission order.
#[derive(Debug, Clone, Copy, Default)]
pub struct MachineTotals {
    pub polls: u64,
    pub poll_ns: u64,
}

/// Everything the traced loop produced.
pub struct TracedRun {
    pub report: BatchReport,
    pub recorder: Recorder,
    pub stream: Vec<StreamEvent>,
    pub machines: Vec<MachineTotals>,
    /// Polls per (protocol, phase-at-poll-start) that were no-ops.
    pub noop_by_phase: Vec<((Protocol, &'static str), u64)>,
    pub wall_s: f64,
}

struct Slot {
    id: SwapId,
    protocol: Protocol,
    machine: Box<dyn SwapMachine>,
    not_before: Timestamp,
    done: Option<Result<SwapReport, ProtocolError>>,
}

/// Drive `machines` to completion with the benchmark's own serial tick
/// loop: the scheduler's serial loop re-expressed in public calls
/// (`set_fee_attribution`, `poll` through the API the world's network state
/// selects, `advance` to the earliest wake-up), with every poll, API call
/// and advance bracketed by a span. It never enters `Scheduler::run`, and
/// must reproduce its outcome fingerprint exactly.
pub fn run_traced(
    world: &mut World,
    participants: &mut ParticipantSet,
    machines: Vec<(SwapId, Box<dyn SwapMachine>)>,
    protocols: &[Protocol],
    network: Option<NetworkProfile>,
    max_ms: u64,
) -> TracedRun {
    if let Some(profile) = network {
        if !world.network_attached() {
            world.attach_network(profile);
        }
    }
    let started_at = world.now();
    let mut slots: Vec<Slot> = machines
        .into_iter()
        .zip(protocols)
        .map(|((id, machine), protocol)| Slot {
            id,
            protocol: *protocol,
            machine,
            not_before: started_at,
            done: None,
        })
        .collect();
    let mut totals = vec![MachineTotals::default(); slots.len()];
    let mut noop_by_phase: Vec<((Protocol, &'static str), u64)> = Vec::new();
    let recorder = RefCell::new(Recorder::default());
    let stream = RefCell::new(Vec::new());
    let mut ticks = 0u64;

    let wall = Instant::now();
    loop {
        let now = world.now();
        for (slot, total) in slots.iter_mut().zip(&mut totals).filter(|(s, _)| s.done.is_none()) {
            if now < slot.not_before {
                continue;
            }
            world.set_fee_attribution(Some(slot.id));
            let phase = slot.machine.phase_name();
            let context = Context { protocol: Some(slot.protocol), phase, swap: Some(slot.id.0) };
            recorder.borrow_mut().open(Op::Poll, context);
            let (result, effects) = if world.network_attached() {
                let mut inner = NetworkedApi::new(world);
                let mut api = TimedApi::new(&mut inner, &recorder, &stream);
                (slot.machine.poll(&mut api, participants), api.effects())
            } else {
                let mut inner = DirectApi::new(world);
                let mut api = TimedApi::new(&mut inner, &recorder, &stream);
                (slot.machine.poll(&mut api, participants), api.effects())
            };
            let (duration, _) = recorder.borrow_mut().close();
            world.set_fee_attribution(None);
            total.polls += 1;
            total.poll_ns += duration;
            match result {
                Ok(Step::Done(report)) => slot.done = Some(Ok(*report)),
                Ok(Step::Waiting { not_before }) => {
                    slot.not_before = not_before;
                    if effects == 0 {
                        let key = (slot.protocol, phase);
                        match noop_by_phase.iter_mut().find(|(k, _)| *k == key) {
                            Some((_, n)) => *n += 1,
                            None => noop_by_phase.push((key, 1)),
                        }
                    }
                }
                Err(e) => slot.done = Some(Err(e)),
            }
        }

        if slots.iter().all(|s| s.done.is_some()) {
            break;
        }
        if world.now().saturating_sub(started_at) >= max_ms {
            for slot in slots.iter_mut().filter(|s| s.done.is_none()) {
                slot.done = Some(Err(ProtocolError::World(format!(
                    "scheduler budget of {max_ms} ms exhausted in phase {}",
                    slot.machine.phase_name()
                ))));
            }
            break;
        }
        let next = slots
            .iter()
            .filter(|s| s.done.is_none())
            .map(|s| s.not_before)
            .min()
            .expect("pending slots exist");
        let dt = next.saturating_sub(world.now()).max(1);
        recorder.borrow_mut().open(Op::Advance, Context::NONE);
        world.advance(dt);
        recorder.borrow_mut().close();
        ticks += 1;
    }
    let wall_s = wall.elapsed().as_secs_f64();

    let report = BatchReport {
        outcomes: slots
            .into_iter()
            .map(|s| SwapOutcome {
                id: s.id,
                witness: None,
                result: s.done.expect("loop ran to completion"),
            })
            .collect(),
        started_at,
        finished_at: world.now(),
        ticks,
    };
    TracedRun {
        report,
        recorder: recorder.into_inner(),
        stream: stream.into_inner(),
        machines: totals,
        noop_by_phase,
        wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(phase: &'static str) -> Context {
        Context { protocol: Some(Protocol::Ac3wn), phase, swap: Some(7) }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut r = Recorder::default();
        // poll [0, 100) with children submit [10, 30) and chain [40, 45);
        // submit itself has a nested copy [12, 20).
        r.open_at(Op::Poll, ctx("start"), 0);
        r.open_at(Op::Submit, ctx("start"), 10);
        r.open_at(Op::BenchCopy, ctx("start"), 12);
        assert_eq!(r.close_at(20), (8, 8));
        assert_eq!(r.close_at(30), (20, 12));
        r.open_at(Op::Chain, ctx("start"), 40);
        assert_eq!(r.close_at(45), (5, 5));
        // Siblings cover 20 + 5 of the poll's 100; the grandchild is
        // already inside its parent's 20 and is not subtracted twice.
        assert_eq!(r.close_at(100), (100, 75));

        let poll = r.sum(|op, _, _| op == Op::Poll);
        assert_eq!(poll, Aggregate { count: 1, total_ns: 100, self_ns: 75 });
        let everything = r.sum(|_, _, _| true);
        assert_eq!(everything.self_ns, 100, "self times partition the root span");
        assert_eq!(r.total_spans(), 4);
    }

    #[test]
    fn aggregates_split_by_phase_and_top_level_spans_do_not_nest() {
        let mut r = Recorder::default();
        r.open_at(Op::Poll, ctx("start"), 0);
        r.close_at(10);
        r.open_at(Op::Advance, Context::NONE, 10);
        r.close_at(25);
        r.open_at(Op::Poll, ctx("retry-authorize"), 25);
        r.close_at(30);
        r.open_at(Op::Poll, ctx("retry-authorize"), 30);
        r.close_at(37);
        let retry = r.sum(|op, _, phase| op == Op::Poll && phase == "retry-authorize");
        assert_eq!(retry, Aggregate { count: 2, total_ns: 12, self_ns: 12 });
        let advance = r.sum(|op, _, _| op == Op::Advance);
        assert_eq!(advance, Aggregate { count: 1, total_ns: 15, self_ns: 15 });
        assert_eq!(r.aggregates().len(), 3);
    }

    #[test]
    fn sampled_spans_link_to_their_parent() {
        let mut r = Recorder::default();
        r.open(Op::Poll, ctx("start"));
        r.open(Op::Submit, ctx("start"));
        r.close();
        r.close();
        let sample = r.sample();
        assert_eq!(sample.len(), 2);
        assert_eq!((sample[0].op, sample[0].parent), ("poll", None));
        assert_eq!((sample[1].op, sample[1].parent), ("submit", Some(0)));
        assert!(sample[0].start_ns <= sample[1].start_ns);
        assert!(sample[1].end_ns <= sample[0].end_ns);
        assert_eq!(sample[1].swap, Some(7));
    }
}
