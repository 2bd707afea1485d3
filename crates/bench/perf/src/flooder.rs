//! A bench-side mempool flooder: the griefing adversary of
//! `tests/fee_market.rs::adaptive_bidding_out_survives_fixed_under_a_griefing_spike`
//! rebuilt as an ordinary [`SwapMachine`] from public parts (the campaign
//! harness keeps its own `Griefer` private).
//!
//! While its window is open the flooder tops one chain's bounded mempool up
//! with transfers that spend phantom outpoints: admission is fee-based, so
//! they take slots, but they can never execute, so miners skip them and the
//! pool stays full. Every slot is bid at [`FLOOD_FEE`], above anything a
//! fixed-fee bidder offers — the pool's admission floor sits above the
//! static schedule for as long as the window lasts.

use ac3_chain::{Address, Amount, ChainId, OutPoint, Timestamp, TxId};
use ac3_core::{MachineFootprint, ProtocolError, ProtocolKind, Step, SwapMachine, SwapReport};
use ac3_crypto::Hash256;
use ac3_sim::{ChainApi, EventKind, OutageWindow, ParticipantSet, Timeline};

/// The flooder's per-slot bid: several times the static schedule's largest
/// fee (`fd = 4`), so no fixed-fee submission can buy a slot.
pub const FLOOD_FEE: Amount = 32;

/// How often the flooder re-checks the pool.
const RETRY_MS: u64 = 1_000;

pub struct Flooder {
    name: String,
    addr: Address,
    chain: ChainId,
    window: OutageWindow,
    seq: u64,
    started_at: Option<Timestamp>,
}

impl Flooder {
    pub fn new(name: String, addr: Address, chain: ChainId, window: OutageWindow) -> Self {
        Flooder { name, addr, chain, window, seq: 0, started_at: None }
    }

    /// A unique, deterministic phantom outpoint per flood transaction.
    fn phantom(&self, seq: u64) -> OutPoint {
        let mut bytes = self.addr.to_bytes().to_vec();
        bytes.extend_from_slice(&seq.to_le_bytes());
        bytes.extend_from_slice(b"ac3-perf/flood");
        OutPoint::new(TxId(Hash256::digest(&bytes)), 0)
    }
}

impl SwapMachine for Flooder {
    fn poll(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
    ) -> Result<Step, ProtocolError> {
        let now = world.now();
        let started_at = *self.started_at.get_or_insert(now);
        if now < self.window.from {
            return Ok(Step::Waiting { not_before: self.window.from });
        }
        if now >= self.window.until {
            let mut timeline = Timeline::new();
            timeline.record(
                now,
                EventKind::Note(format!("flood of {} done: {} txs", self.chain, self.seq)),
            );
            // A non-protocol machine's terminal report: no decision, no
            // edges (the campaign harness reports its adversaries the same
            // way).
            return Ok(Step::Done(Box::new(SwapReport {
                protocol: ProtocolKind::Ac3Wn,
                decision: None,
                edges: Vec::new(),
                started_at,
                finished_at: now,
                delta_ms: 1,
                deployments: 0,
                calls: 0,
                fees_paid: 0,
                fees_scheduled: 0,
                fee_rebids: 0,
                timeline,
            })));
        }
        let congestion = world.congestion(self.chain)?;
        for _ in congestion.depth..congestion.capacity {
            let phantom = self.phantom(self.seq);
            let Some(flooder) = participants.get_mut(&self.name) else {
                return Err(ProtocolError::UnknownParticipant(self.name.clone()));
            };
            let tx = flooder.builder(self.chain).transfer(vec![phantom], vec![], FLOOD_FEE);
            world.submit(self.chain, tx)?;
            self.seq += 1;
        }
        Ok(Step::Waiting { not_before: now + RETRY_MS })
    }

    fn phase_name(&self) -> &'static str {
        "flood"
    }

    fn footprint(&self) -> MachineFootprint {
        MachineFootprint { chains: vec![self.chain], actors: vec![self.addr] }
    }
}
