//! The message-level network layer between clients and chains.
//!
//! Every client→chain interaction that mutates a mempool — a submission or
//! a replace-by-fee — can be routed through a per-chain `Link` as an
//! explicit `Message` instead of being applied synchronously. A link
//! carries a seeded deterministic RNG that samples, *at send time*, a
//! delivery delay and a drop decision for each message; undropped messages
//! queue on the link and are applied to the chain when simulated time
//! reaches their delivery instant, interleaved deterministically with block
//! production (see `World::advance`). Partition windows live on the link
//! too, so fault-injected outages and modeled network loss share one
//! mechanism.
//!
//! Determinism is the hard contract: the RNG state is part of the link, the
//! link moves with its chain slot when a world is sharded, and per-message
//! sampling happens in submission order — so a seeded lossy run produces
//! bitwise-identical results at any worker count.

use crate::faults::OutageWindow;
use crate::metrics::{FeeKind, SwapId};
use ac3_chain::{Amount, ChainId, Timestamp, Transaction, TxId};
use ac3_seeded::Seeded;
use serde::{Deserialize, Serialize};

/// A seeded description of one world's network conditions: every link
/// derives its RNG from `seed` and its chain id, and samples each message's
/// delivery delay uniformly from `[latency_min_ms, latency_max_ms]` and its
/// drop decision at `drop_per_mille` ‰.
///
/// All-integer so profiles hash, compare, and serialize exactly; a
/// [`NetworkProfile::zero`] profile (no latency, no loss) makes a routed
/// run bitwise-identical to one with no network attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkProfile {
    /// Seed for the per-link RNGs (mixed with each chain id).
    pub seed: u64,
    /// Minimum message delivery delay in simulated milliseconds.
    pub latency_min_ms: u64,
    /// Maximum message delivery delay in simulated milliseconds.
    pub latency_max_ms: u64,
    /// Probability, in thousandths, that a message is silently dropped.
    pub drop_per_mille: u32,
}

impl NetworkProfile {
    /// A profile with zero latency and zero loss: messages are applied
    /// inline at send time, so a run under this profile is bitwise
    /// identical to one with no network attached.
    pub fn zero(seed: u64) -> Self {
        NetworkProfile { seed, latency_min_ms: 0, latency_max_ms: 0, drop_per_mille: 0 }
    }
}

/// What a message asks the chain to do when it arrives.
#[derive(Debug, Clone)]
pub(crate) enum Payload {
    /// Admit a transaction to the mempool.
    Submit { tx: Transaction },
    /// Replace a pending transaction with a higher-fee re-bid.
    Replace { old: TxId, tx: Transaction },
}

/// One in-flight client→chain message.
#[derive(Debug, Clone)]
pub(crate) struct Message {
    /// Send-order sequence number on this link (tiebreak for equal
    /// delivery instants: FIFO among simultaneous arrivals).
    pub seq: u64,
    /// Simulated instant the message will reach the chain.
    pub deliver_at: Timestamp,
    /// The swap billed for the message's fees, captured at send time.
    pub attribution: Option<SwapId>,
    /// The requested mempool operation.
    pub payload: Payload,
}

/// Aggregate delivery counters of one link (or, summed, of a whole world —
/// see `World::network_stats`). All counters are exact and deterministic
/// for a given seed, which is what lets CI ratchet them bitwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LinkStats {
    /// Submit messages sent (delivered, dropped, or still in flight).
    pub submits: u64,
    /// Replace-by-fee messages sent.
    pub replaces: u64,
    /// Congestion probes served.
    pub probes: u64,
    /// Messages applied to the chain (including inline zero-delay sends).
    pub delivered: u64,
    /// Messages the network silently dropped at send time.
    pub dropped: u64,
    /// Messages that arrived but were rejected by mempool admission.
    pub nacked: u64,
}

impl LinkStats {
    /// Fold another link's counters into this one.
    pub fn absorb(&mut self, other: &LinkStats) {
        self.submits += other.submits;
        self.replaces += other.replaces;
        self.probes += other.probes;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.nacked += other.nacked;
    }
}

/// A fee-ledger mutation produced by a message delivery. Deliveries run
/// inside per-chain advancement (possibly on a worker thread that owns only
/// the chain slot), so they cannot touch the world's ledger directly;
/// instead each link collects its deliveries' billing here and the world
/// drains every link's outbox in chain-id order after advancing — the same
/// order serially and in parallel, keeping the ledger deterministic.
#[derive(Debug, Clone)]
pub(crate) enum FeeEvent {
    /// A delivered submission was admitted: bill its fee.
    Bill {
        txid: TxId,
        kind: Option<FeeKind>,
        fee: Amount,
        swap: Option<SwapId>,
        evicted: Vec<TxId>,
    },
    /// A delivered replace-by-fee succeeded: reprice the original bill.
    Reprice { old: TxId, new: TxId, fee: Amount },
}

/// The network path to one chain: an RNG for per-message sampling, the
/// queue of in-flight messages, partition windows, and delivery counters.
///
/// The link is part of the chain's slot, so `World::split_shard` moves it —
/// RNG state and queue included — to whichever worker owns the chain, and
/// message sampling continues exactly where the serial run would have.
#[derive(Debug)]
pub(crate) struct Link {
    /// Seeded from the profile seed mixed with the chain id so sibling
    /// chains draw independent streams.
    rng: Seeded,
    /// Next send-order sequence number.
    seq: u64,
    /// In-flight messages, kept sorted by `(deliver_at, seq)`.
    pub queue: Vec<Message>,
    /// Partition windows: while one covers "now", sends fail with
    /// `ChainUnreachable` (the link-level form of a scheduled outage).
    pub partitions: Vec<OutageWindow>,
    /// Delivery counters.
    pub stats: LinkStats,
    /// Fee-ledger mutations pending drain (see [`FeeEvent`]).
    pub outbox: Vec<FeeEvent>,
}

impl Link {
    /// A fresh link to `chain` under `profile`.
    pub fn new(profile: &NetworkProfile, chain: ChainId) -> Self {
        // Decorrelate per-chain streams: hash the chain id into the seed
        // with the SplitMix64 increment so chain 0 does not replay the raw
        // profile seed.
        let rng = Seeded::new(
            profile.seed.wrapping_add((chain.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        Link {
            rng,
            seq: 0,
            queue: Vec::new(),
            partitions: Vec::new(),
            stats: LinkStats::default(),
            outbox: Vec::new(),
        }
    }

    /// Sample one message's fate at send time: `(delay_ms, dropped)`.
    /// Draws once for the drop and, unless the latency range is a single
    /// value, once for the delay.
    pub fn sample(&mut self, profile: &NetworkProfile) -> (u64, bool) {
        let span = profile.latency_max_ms.saturating_sub(profile.latency_min_ms);
        let delay =
            profile.latency_min_ms + if span == 0 { 0 } else { self.rng.next_u64() % (span + 1) };
        let dropped = (self.rng.next_u64() % 1_000) < profile.drop_per_mille as u64;
        (delay, dropped)
    }

    /// Whether a partition window covers `now`.
    pub fn is_partitioned(&self, now: Timestamp) -> bool {
        self.partitions.iter().any(|w| w.covers(now))
    }

    /// Queue a message for delivery at `deliver_at`, preserving the
    /// `(deliver_at, seq)` order.
    pub fn enqueue(
        &mut self,
        deliver_at: Timestamp,
        attribution: Option<SwapId>,
        payload: Payload,
    ) {
        let seq = self.seq;
        self.seq += 1;
        let msg = Message { seq, deliver_at, attribution, payload };
        let at = self.queue.partition_point(|m| (m.deliver_at, m.seq) <= (msg.deliver_at, msg.seq));
        self.queue.insert(at, msg);
    }

    /// The delivery instant of the earliest in-flight message, if any.
    pub fn next_delivery_at(&self) -> Option<Timestamp> {
        self.queue.first().map(|m| m.deliver_at)
    }

    /// Pop the earliest in-flight message, if it is due at or before `at`.
    pub fn pop_due(&mut self, at: Timestamp) -> Option<Message> {
        if self.queue.first().is_some_and(|m| m.deliver_at <= at) {
            Some(self.queue.remove(0))
        } else {
            None
        }
    }

    /// Whether a message carrying `txid` is still in flight.
    pub fn tx_in_flight(&self, txid: &TxId) -> bool {
        self.queue.iter().any(|m| match &m.payload {
            Payload::Submit { tx } | Payload::Replace { tx, .. } => tx.id() == *txid,
        })
    }
}

// Links ride inside `ChainSlot`s across scoped worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Link>();
    assert_send_sync::<NetworkProfile>();
    assert_send_sync::<LinkStats>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_per_seed_and_chain() {
        let profile =
            NetworkProfile { seed: 7, latency_min_ms: 10, latency_max_ms: 50, drop_per_mille: 100 };
        let draw = |chain: u32| {
            let mut link = Link::new(&profile, ChainId(chain));
            (0..32).map(|_| link.sample(&profile)).collect::<Vec<_>>()
        };
        assert_eq!(draw(0), draw(0), "same seed, same chain: same stream");
        assert_ne!(draw(0), draw(1), "sibling chains draw independent streams");
        for (delay, _) in draw(0) {
            assert!((10..=50).contains(&delay), "delay {delay} outside the profile bounds");
        }
    }

    #[test]
    fn zero_profile_never_delays_or_drops() {
        let profile = NetworkProfile::zero(123);
        let mut link = Link::new(&profile, ChainId(0));
        for _ in 0..100 {
            assert_eq!(link.sample(&profile), (0, false));
        }
    }

    #[test]
    fn queue_orders_by_delivery_then_seq() {
        let profile = NetworkProfile::zero(1);
        let mut link = Link::new(&profile, ChainId(0));
        let addr = ac3_chain::Address::from(ac3_crypto::KeyPair::from_seed(b"net").public());
        let tx = move |n: u64| ac3_chain::coinbase(addr, n, n);
        link.enqueue(30, None, Payload::Submit { tx: tx(0) });
        link.enqueue(10, None, Payload::Submit { tx: tx(1) });
        link.enqueue(10, None, Payload::Submit { tx: tx(2) });
        assert_eq!(link.next_delivery_at(), Some(10));
        assert!(link.pop_due(5).is_none(), "nothing due yet");
        let first = link.pop_due(10).expect("due");
        let second = link.pop_due(10).expect("due");
        assert!(first.seq < second.seq, "same instant delivers in send order");
        assert_eq!(link.next_delivery_at(), Some(30));
        assert!(link.tx_in_flight(&tx(0).id()));
        assert!(!link.tx_in_flight(&tx(1).id()));
    }
}
