//! The step/poll driver architecture: protocol drivers as resumable state
//! machines.
//!
//! Historically every protocol driver was a blocking one-shot function that
//! owned the simulated clock: `execute(&mut Scenario)` advanced world time
//! inside its waits, so only one swap could ever be in flight. The machines
//! in [`crate::ac3`] and [`crate::herlihy`] invert that control flow: a
//! machine never advances time — [`SwapMachine::poll`] does as much
//! protocol work as is possible *at the world's current instant*
//! (submitting transactions, reading chain state, transitioning phases) and
//! then returns a [`Step`] telling the caller when polling again could
//! observe progress. Whoever owns the clock — the single-swap
//! [`drive_until`] loop ([`drive`] when it never stops early) or the
//! concurrent [`crate::scheduler::Scheduler`] — advances time between
//! polls, so N machines can interleave over one shared world.
//!
//! Timeouts are implemented inside the machines as deadlines checked at
//! poll time, which reproduces the blocking drivers' `advance_until`
//! semantics exactly: the condition is always re-checked once at or after
//! the deadline before the wait is declared failed.

use crate::protocol::{ProtocolError, SwapReport};
use ac3_chain::{Address, ChainId, Timestamp, TxId};
use ac3_sim::{
    AuditApi, AuditScope, ChainApi, DirectApi, NetworkedApi, ParticipantSet, World, WorldError,
};
use std::sync::OnceLock;

/// The observable state of an in-flight swap after one [`SwapMachine::poll`].
#[derive(Debug)]
pub enum Step {
    /// The machine is waiting on an on-chain condition or a protocol timer.
    /// Polling again before `not_before` cannot observe progress (nothing
    /// changes between blocks); polling later than `not_before` is always
    /// safe — deadlines are measured against world time, not poll counts.
    Waiting {
        /// Earliest simulated time at which polling again is useful.
        not_before: Timestamp,
    },
    /// The swap reached a terminal state and produced its report.
    Done(Box<SwapReport>),
}

/// The complete set of world resources a machine may ever touch: the
/// chains it submits to or reads from, and the participant addresses it
/// signs on behalf of. Declared up front (it is derivable from the swap
/// graph before the first poll) so the parallel scheduler can partition a
/// batch into data-disjoint shards — two machines whose footprints share
/// no chain and no actor can run on different threads with no possibility
/// of observing each other.
#[derive(Debug, Clone, Default)]
pub struct MachineFootprint {
    /// Every chain the machine submits transactions to or reads state
    /// from, over its whole lifetime (including recovery paths).
    pub chains: Vec<ChainId>,
    /// Every participant address the machine looks up in the
    /// [`ParticipantSet`] (to sign, or to check crash availability).
    pub actors: Vec<Address>,
}

/// A protocol driver decomposed into a resumable state machine.
///
/// Implementations must never advance the world clock; they may submit
/// transactions, read chain state and record timeline events. After a
/// machine has returned [`Step::Done`] or an error, further polls must
/// return the same terminal result (or a cheap copy of it) without side
/// effects.
///
/// Machines are `Send` (the supertrait bound): the parallel scheduler
/// moves them to worker threads, each of which polls its shard of the
/// batch against a shard of the world. They are never *shared* between
/// threads mid-poll, so `Sync` is not required.
///
/// Every protocol in the reproduction implements this trait —
/// [`crate::ac3::Ac3Machine`] (AC3WN and AC3TW) and
/// [`crate::herlihy::HerlihyMachine`] (Nolan and both Herlihy variants) —
/// so heterogeneous protocol mixes can share one
/// [`crate::scheduler::Scheduler`] batch; see the scheduler module docs for
/// a two-machine example.
pub trait SwapMachine: Send {
    /// Advance the machine as far as possible at the world's current time.
    ///
    /// Machines observe and mutate chains exclusively through the
    /// [`ChainApi`] seam — never `&mut World` — so the same machine runs
    /// unchanged against the synchronous [`DirectApi`], the message-routed
    /// [`NetworkedApi`], or (in tests, via coercion) a bare `&mut World`.
    fn poll(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
    ) -> Result<Step, ProtocolError>;

    /// A short label of the machine's current phase, for diagnostics.
    fn phase_name(&self) -> &'static str {
        "unknown"
    }

    /// The chains and actors this machine may ever touch (see
    /// [`MachineFootprint`]). Must be stable across the machine's lifetime
    /// and conservative: declaring too much merely costs parallelism;
    /// declaring too little would let the partitioner co-schedule machines
    /// that actually alias, which the shard split turns into a hard
    /// `UnknownChain` error rather than a silent race.
    fn footprint(&self) -> MachineFootprint;
}

/// Drive a single machine to completion, advancing the world clock between
/// polls — the legacy blocking `execute` behaviour, expressed as the N = 1
/// special case of scheduling.
pub fn drive<M: SwapMachine + ?Sized>(
    machine: &mut M,
    world: &mut World,
    participants: &mut ParticipantSet,
) -> Result<SwapReport, ProtocolError> {
    let report = drive_until(machine, world, participants, |_, _| false)?;
    Ok(report.expect("a machine that is never stopped runs to completion"))
}

/// [`drive`] with an early exit: `stop` sees the concrete machine and the
/// world *before* each poll, and the first `true` returns `Ok(None)` with
/// that poll not made — the machine stays resumable, the world stays at
/// the instant the condition first held. An experiment that runs the honest
/// protocol up to some point and then takes over by hand (the Section 6.3
/// fork attack, the adversarial tests) states that point as a predicate
/// over the machine's read-only accessors instead of re-implementing the
/// protocol prefix.
pub fn drive_until<M: SwapMachine + ?Sized>(
    machine: &mut M,
    world: &mut World,
    participants: &mut ParticipantSet,
    mut stop: impl FnMut(&M, &World) -> bool,
) -> Result<Option<SwapReport>, ProtocolError> {
    loop {
        if stop(machine, world) {
            return Ok(None);
        }
        match poll_machine(machine, world, participants)? {
            Step::Done(report) => return Ok(Some(*report)),
            Step::Waiting { not_before } => {
                let dt = not_before.saturating_sub(world.now()).max(1);
                world.advance(dt);
            }
        }
    }
}

/// Whether the `AC3_FOOTPRINT_AUDIT` environment variable asks for the
/// footprint-audit sanitizer (see [`ac3_sim::audit`]): any value other
/// than empty or `0` enables it. Read once per process — the scheduler
/// captures it at construction, so a test can still force either setting
/// through `Scheduler::with_footprint_audit`.
pub fn footprint_audit_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        std::env::var("AC3_FOOTPRINT_AUDIT").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
    })
}

/// Poll a machine against `world` through the appropriate [`ChainApi`]
/// implementation: the message-routed [`NetworkedApi`] when a network
/// profile is attached ([`World::attach_network`]), the synchronous
/// [`DirectApi`] otherwise. Every driver loop — [`drive_until`] and the
/// scheduler's poll pass — polls through here, so attaching a network
/// reroutes an entire batch without touching machine code. Audits the poll
/// when the `AC3_FOOTPRINT_AUDIT` environment variable is set.
pub fn poll_machine<M: SwapMachine + ?Sized>(
    machine: &mut M,
    world: &mut World,
    participants: &mut ParticipantSet,
) -> Result<Step, ProtocolError> {
    poll_machine_audited(machine, world, participants, footprint_audit_enabled(), None)
}

/// [`poll_machine`] with the footprint-audit sanitizer made explicit.
///
/// With `audit` set, the poll runs behind an [`AuditApi`] scoped to the
/// machine's declared [`SwapMachine::footprint`], and the participant set
/// audits actor lookups for the duration of the poll: touching any chain
/// or actor outside the footprint panics with the machine's identity
/// (`id`, when the caller knows it), its current phase, and the offending
/// chain or actor. The wrapper is stateless pass-through otherwise, so an
/// audited poll that does not panic is bitwise identical to an unaudited
/// one.
pub fn poll_machine_audited<M: SwapMachine + ?Sized>(
    machine: &mut M,
    world: &mut World,
    participants: &mut ParticipantSet,
    audit: bool,
    id: Option<u64>,
) -> Result<Step, ProtocolError> {
    if !audit {
        return if world.network_attached() {
            machine.poll(&mut NetworkedApi::new(world), participants)
        } else {
            machine.poll(&mut DirectApi::new(world), participants)
        };
    }
    let footprint = machine.footprint();
    let label = match id {
        Some(id) => format!("machine {id}"),
        None => "machine".to_string(),
    };
    let scope = AuditScope::new(
        label,
        machine.phase_name().to_string(),
        &footprint.chains,
        &footprint.actors,
    );
    participants.begin_audit(scope.clone());
    let result = if world.network_attached() {
        machine.poll(&mut AuditApi::new(&mut NetworkedApi::new(world), &scope), participants)
    } else {
        machine.poll(&mut AuditApi::new(&mut DirectApi::new(world), &scope), participants)
    };
    participants.end_audit();
    result
}

/// Whether a transaction is buried under at least `depth` canonical blocks.
pub(crate) fn tx_at_depth(world: &dyn ChainApi, chain: ChainId, txid: &TxId, depth: u64) -> bool {
    world.chain(chain).ok().and_then(|c| c.tx_depth(txid)).is_some_and(|d| d >= depth)
}

/// Whether a transaction has reached its chain's configured stable depth.
pub(crate) fn tx_stable(world: &dyn ChainApi, chain: ChainId, txid: &TxId) -> bool {
    let Ok(c) = world.chain(chain) else { return false };
    tx_at_depth(world, chain, txid, c.params().stable_depth)
}

/// The timeout error the blocking drivers produced from `advance_until`,
/// reproduced for deadline expiry inside machines.
pub(crate) fn wait_timeout(what: &str, at: Timestamp) -> ProtocolError {
    ProtocolError::from(WorldError::Timeout { what: what.to_string(), at })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac3_chain::ChainParams;

    /// A machine that waits a fixed number of polls, then finishes.
    struct Countdown {
        polls_left: u32,
        finished_at: Option<Timestamp>,
    }

    impl SwapMachine for Countdown {
        fn poll(
            &mut self,
            world: &mut dyn ChainApi,
            _participants: &mut ParticipantSet,
        ) -> Result<Step, ProtocolError> {
            if self.polls_left == 0 {
                let at = *self.finished_at.get_or_insert(world.now());
                let report = crate::SwapReport {
                    protocol: crate::ProtocolKind::Ac3Wn,
                    decision: None,
                    edges: Vec::new(),
                    started_at: 0,
                    finished_at: at,
                    delta_ms: 1,
                    deployments: 0,
                    calls: 0,
                    fees_paid: 0,
                    fees_scheduled: 0,
                    fee_rebids: 0,
                    timeline: ac3_sim::Timeline::new(),
                };
                return Ok(Step::Done(Box::new(report)));
            }
            self.polls_left -= 1;
            Ok(Step::Waiting { not_before: world.now() + world.min_block_interval_ms() })
        }

        fn footprint(&self) -> crate::driver::MachineFootprint {
            // Touches no chain and signs for no one — schedulable anywhere.
            crate::driver::MachineFootprint::default()
        }
    }

    #[test]
    fn drive_advances_time_between_polls() {
        let mut world = World::new();
        world.add_chain(ChainParams::test("c"), &[]);
        let mut participants = ParticipantSet::new();
        let mut machine = Countdown { polls_left: 3, finished_at: None };
        let report = drive(&mut machine, &mut world, &mut participants).unwrap();
        // Three waits of one block interval each.
        assert_eq!(report.finished_at, 3_000);
        assert_eq!(world.now(), 3_000);
    }

    #[test]
    fn depth_helpers_track_canonical_burial() {
        let alice = ac3_chain::Address::from(ac3_crypto::KeyPair::from_seed(b"alice").public());
        let mut world = World::new();
        let mut params = ChainParams::test("c");
        params.stable_depth = 2;
        let chain = world.add_chain(params, &[(alice, 100)]);
        let mut kp = ac3_chain::TxBuilder::new(ac3_crypto::KeyPair::from_seed(b"alice"), 0);
        let (inputs, outputs) =
            world.chain(chain).unwrap().plan_payment(&alice, &alice, 1, 1).unwrap();
        let txid = world.submit(chain, kp.transfer(inputs, outputs, 1)).unwrap();
        assert!(!tx_at_depth(&world, chain, &txid, 0));
        world.advance(1_000);
        assert!(tx_at_depth(&world, chain, &txid, 0));
        assert!(!tx_stable(&world, chain, &txid));
        world.advance(2_000);
        assert!(tx_stable(&world, chain, &txid));
    }
}
