//! Metrics collected during simulations: event timelines, fee accounting and
//! latency summaries — the raw material for the reproduction of the paper's
//! evaluation section.

use ac3_chain::{Amount, ChainId, ContractId, Timestamp, TxId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of one AC2T within a batch of concurrently executing swaps.
/// Allocated by whoever builds the batch (scenario builder or scheduler);
/// used to attribute fees and timelines to individual swaps.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SwapId(pub u64);

impl fmt::Display for SwapId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "swap-{}", self.0)
    }
}

/// The kinds of protocol-level events recorded on a timeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// The participants agreed on and multisigned the AC2T graph.
    GraphSigned,
    /// The witness contract (or Trent registration) was submitted.
    WitnessRegistered,
    /// An asset swap contract was submitted for deployment.
    ContractSubmitted {
        /// The hosting chain.
        chain: ChainId,
        /// The deployed contract.
        contract: ContractId,
    },
    /// An asset swap contract's deployment became visible/stable.
    ContractPublished {
        /// The hosting chain.
        chain: ChainId,
        /// The deployed contract.
        contract: ContractId,
    },
    /// The commit/abort decision was reached (witness state change or
    /// Trent signature issued).
    DecisionReached {
        /// `true` for commit (redeem authorised), `false` for abort.
        commit: bool,
    },
    /// A contract was redeemed.
    ContractRedeemed {
        /// The hosting chain.
        chain: ChainId,
        /// The contract.
        contract: ContractId,
    },
    /// A contract was refunded.
    ContractRefunded {
        /// The hosting chain.
        chain: ChainId,
        /// The contract.
        contract: ContractId,
    },
    /// A free-form annotation.
    Note(String),
}

/// One timestamped event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelineEvent {
    /// Simulated time of the event (milliseconds).
    pub at: Timestamp,
    /// What happened.
    pub kind: EventKind,
}

/// An ordered record of protocol events — used to reproduce the phase
/// timelines of Figures 8 and 9.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Timeline {
    events: Vec<TimelineEvent>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an event.
    pub fn record(&mut self, at: Timestamp, kind: EventKind) {
        self.events.push(TimelineEvent { at, kind });
    }

    /// All events in insertion order.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Time of the first event, if any.
    pub fn start(&self) -> Option<Timestamp> {
        self.events.iter().map(|e| e.at).min()
    }

    /// Time of the last event, if any.
    pub fn end(&self) -> Option<Timestamp> {
        self.events.iter().map(|e| e.at).max()
    }

    /// End-to-end duration (last minus first event), or 0 if fewer than two
    /// events were recorded.
    pub fn span(&self) -> Timestamp {
        match (self.start(), self.end()) {
            (Some(s), Some(e)) => e - s,
            _ => 0,
        }
    }

    /// The first event matching `predicate`.
    pub fn find<F: Fn(&EventKind) -> bool>(&self, predicate: F) -> Option<&TimelineEvent> {
        self.events.iter().find(|e| predicate(&e.kind))
    }

    /// Count events matching `predicate`.
    pub fn count<F: Fn(&EventKind) -> bool>(&self, predicate: F) -> usize {
        self.events.iter().filter(|e| predicate(&e.kind)).count()
    }

    /// Merge another timeline's events into this one (keeping order by
    /// timestamp).
    pub fn merge(&mut self, other: &Timeline) {
        self.events.extend(other.events.iter().cloned());
        self.events.sort_by_key(|e| e.at);
    }
}

/// The fee category of a billed transaction — the paper's Section 6.2 cost
/// model distinguishes deployment fees `fd` from function-call fees `ffc`
/// (plain transfers are the third, cheaper kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeeKind {
    /// Smart-contract deployment (`fd`).
    Deploy,
    /// Smart-contract function call (`ffc`).
    Call,
    /// Plain asset transfer.
    Transfer,
}

/// The live billing record of one pending transaction, kept so replacement
/// (replace-by-fee) and eviction can correct the ledger: only the fee of
/// the transaction that ultimately occupies the slot is owed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxBill {
    /// The chain the transaction was submitted to.
    pub chain: ChainId,
    /// The fee category.
    pub kind: FeeKind,
    /// The billed fee.
    pub fee: Amount,
    /// The swap attributed with the fee, if attribution was active.
    pub swap: Option<SwapId>,
}

/// Per-chain fee accounting, mirroring the paper's Section 6.2 cost model:
/// every contract deployment costs `fd` and every function call costs `ffc`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FeeLedger {
    deployments: BTreeMap<ChainId, u64>,
    calls: BTreeMap<ChainId, u64>,
    transfers: BTreeMap<ChainId, u64>,
    fees_paid: BTreeMap<ChainId, Amount>,
    /// Fees attributed to individual swaps of a concurrent batch (a second
    /// axis over the same payments, not an addition to the totals).
    by_swap: BTreeMap<SwapId, Amount>,
    /// Billing records keyed by transaction id, so replace-by-fee and
    /// eviction can reprice or refund exactly what was billed. Entries for
    /// mined transactions are retained but inert (a canonical transaction
    /// can no longer be replaced or evicted, and `reprice`/`refund` are
    /// only reachable through mempool operations that verify membership);
    /// growth is bounded by the total transactions billed in the world's
    /// lifetime.
    #[serde(skip)]
    pending: BTreeMap<TxId, TxBill>,
}

impl FeeLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a contract deployment with its fee.
    pub fn record_deployment(&mut self, chain: ChainId, fee: Amount) {
        *self.deployments.entry(chain).or_default() += 1;
        *self.fees_paid.entry(chain).or_default() += fee;
    }

    /// Record a contract function call with its fee.
    pub fn record_call(&mut self, chain: ChainId, fee: Amount) {
        *self.calls.entry(chain).or_default() += 1;
        *self.fees_paid.entry(chain).or_default() += fee;
    }

    /// Record a plain transfer with its fee.
    pub fn record_transfer(&mut self, chain: ChainId, fee: Amount) {
        *self.transfers.entry(chain).or_default() += 1;
        *self.fees_paid.entry(chain).or_default() += fee;
    }

    /// Attribute an already-recorded fee to a swap (per-swap view of the
    /// same payments the per-chain maps hold).
    pub fn attribute(&mut self, swap: SwapId, fee: Amount) {
        *self.by_swap.entry(swap).or_default() += fee;
    }

    /// Bill one submitted transaction: record its kind count, its fee on
    /// the chain, optionally its swap attribution, and remember the bill so
    /// a later replacement or eviction can correct the ledger.
    pub fn bill(
        &mut self,
        chain: ChainId,
        txid: TxId,
        kind: FeeKind,
        fee: Amount,
        swap: Option<SwapId>,
    ) {
        match kind {
            FeeKind::Deploy => self.record_deployment(chain, fee),
            FeeKind::Call => self.record_call(chain, fee),
            FeeKind::Transfer => self.record_transfer(chain, fee),
        }
        if let Some(swap) = swap {
            self.attribute(swap, fee);
        }
        self.pending.insert(txid, TxBill { chain, kind, fee, swap });
    }

    /// Replace-by-fee repricing: the old transaction will never pay; the
    /// replacement's (strictly higher) fee is owed instead. The billing
    /// record moves to the new id. Returns the superseded bill.
    pub fn reprice(&mut self, old: &TxId, new_txid: TxId, new_fee: Amount) -> Option<TxBill> {
        let bill = self.pending.remove(old)?;
        let paid = self.fees_paid.entry(bill.chain).or_default();
        *paid = paid.saturating_sub(bill.fee) + new_fee;
        if let Some(swap) = bill.swap {
            let attributed = self.by_swap.entry(swap).or_default();
            *attributed = attributed.saturating_sub(bill.fee) + new_fee;
        }
        self.pending.insert(new_txid, TxBill { fee: new_fee, ..bill });
        Some(bill)
    }

    /// Whether a billing record for `txid` is still held. Distinguishes a
    /// transaction the ledger still charges for (pending in a mempool, or
    /// mined — possibly onto a since-reorged-out branch) from one whose
    /// fee was refunded on eviction.
    pub fn is_billed(&self, txid: &TxId) -> bool {
        self.pending.contains_key(txid)
    }

    /// Refund an evicted (never-mined) transaction: its fee and its kind
    /// count are rolled back. Returns the refunded bill.
    pub fn refund(&mut self, txid: &TxId) -> Option<TxBill> {
        let bill = self.pending.remove(txid)?;
        let count = match bill.kind {
            FeeKind::Deploy => self.deployments.entry(bill.chain).or_default(),
            FeeKind::Call => self.calls.entry(bill.chain).or_default(),
            FeeKind::Transfer => self.transfers.entry(bill.chain).or_default(),
        };
        *count = count.saturating_sub(1);
        let paid = self.fees_paid.entry(bill.chain).or_default();
        *paid = paid.saturating_sub(bill.fee);
        if let Some(swap) = bill.swap {
            let attributed = self.by_swap.entry(swap).or_default();
            *attributed = attributed.saturating_sub(bill.fee);
        }
        Some(bill)
    }

    /// Split out the slices belonging to `chains` and `swaps`: the
    /// per-chain counters and payments of the named chains, the per-swap
    /// attributions of the named swaps, and every live billing record on
    /// one of the named chains. The moved slices leave this ledger, so a
    /// shard world (see `World::split_shard`) can bill, reprice, and
    /// refund against real records — an eviction-refund or reorg-
    /// abandonment probe (`is_billed`) inside the shard must see exactly
    /// the history the full world saw.
    pub fn split_off(&mut self, chains: &[ChainId], swaps: &[SwapId]) -> FeeLedger {
        let mut out = FeeLedger::new();
        for chain in chains {
            if let Some(v) = self.deployments.remove(chain) {
                out.deployments.insert(*chain, v);
            }
            if let Some(v) = self.calls.remove(chain) {
                out.calls.insert(*chain, v);
            }
            if let Some(v) = self.transfers.remove(chain) {
                out.transfers.insert(*chain, v);
            }
            if let Some(v) = self.fees_paid.remove(chain) {
                out.fees_paid.insert(*chain, v);
            }
        }
        for swap in swaps {
            if let Some(v) = self.by_swap.remove(swap) {
                out.by_swap.insert(*swap, v);
            }
        }
        let chain_set: std::collections::BTreeSet<ChainId> = chains.iter().copied().collect();
        let (moved, kept) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|(_, bill)| chain_set.contains(&bill.chain));
        out.pending = moved;
        self.pending = kept;
        out
    }

    /// Fold a split-off slice back in. Every map is keyed (by chain, swap,
    /// or transaction id), so absorption is additive merging — the result
    /// is independent of the order shards are absorbed in.
    pub fn absorb(&mut self, other: FeeLedger) {
        for (chain, v) in other.deployments {
            *self.deployments.entry(chain).or_default() += v;
        }
        for (chain, v) in other.calls {
            *self.calls.entry(chain).or_default() += v;
        }
        for (chain, v) in other.transfers {
            *self.transfers.entry(chain).or_default() += v;
        }
        for (chain, v) in other.fees_paid {
            *self.fees_paid.entry(chain).or_default() += v;
        }
        for (swap, v) in other.by_swap {
            *self.by_swap.entry(swap).or_default() += v;
        }
        self.pending.extend(other.pending);
    }

    /// Fees attributed to one swap of a concurrent batch.
    pub fn fees_for_swap(&self, swap: SwapId) -> Amount {
        self.by_swap.get(&swap).copied().unwrap_or(0)
    }

    /// Total number of contract deployments across chains.
    pub fn total_deployments(&self) -> u64 {
        self.deployments.values().sum()
    }

    /// Total number of contract calls across chains.
    pub fn total_calls(&self) -> u64 {
        self.calls.values().sum()
    }

    /// Total fees paid across chains.
    pub fn total_fees(&self) -> Amount {
        self.fees_paid.values().sum()
    }

    /// Fees paid on one chain.
    pub fn fees_on(&self, chain: ChainId) -> Amount {
        self.fees_paid.get(&chain).copied().unwrap_or(0)
    }

    /// Deployments on one chain.
    pub fn deployments_on(&self, chain: ChainId) -> u64 {
        self.deployments.get(&chain).copied().unwrap_or(0)
    }

    /// Calls on one chain.
    pub fn calls_on(&self, chain: ChainId) -> u64 {
        self.calls.get(&chain).copied().unwrap_or(0)
    }
}

impl fmt::Display for FeeLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} deployments, {} calls, {} total fees",
            self.total_deployments(),
            self.total_calls(),
            self.total_fees()
        )
    }
}

/// A simple latency summary over repeated trials.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    samples: Vec<u64>,
}

impl LatencyStats {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sample (milliseconds or Δ units; caller's choice, be
    /// consistent).
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<u64> {
        self.samples.iter().min().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().max().copied()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64)
    }

    /// The p-th percentile (0–100) using the nearest-rank method: the
    /// smallest sample such that at least `⌈p/100·N⌉` samples are ≤ it
    /// (p = 0 maps to the minimum).
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        sorted.get(rank.saturating_sub(1).min(n - 1)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_span_and_lookup() {
        let mut t = Timeline::new();
        t.record(100, EventKind::GraphSigned);
        t.record(400, EventKind::DecisionReached { commit: true });
        t.record(900, EventKind::Note("done".to_string()));
        assert_eq!(t.span(), 800);
        assert_eq!(t.start(), Some(100));
        assert_eq!(t.end(), Some(900));
        assert!(t.find(|k| matches!(k, EventKind::DecisionReached { commit: true })).is_some());
        assert_eq!(t.count(|k| matches!(k, EventKind::Note(_))), 1);
    }

    #[test]
    fn empty_timeline_has_zero_span() {
        let t = Timeline::new();
        assert_eq!(t.span(), 0);
        assert_eq!(t.start(), None);
    }

    #[test]
    fn timelines_merge_in_time_order() {
        let mut a = Timeline::new();
        a.record(300, EventKind::Note("a".to_string()));
        let mut b = Timeline::new();
        b.record(100, EventKind::Note("b".to_string()));
        a.merge(&b);
        assert_eq!(a.events()[0].at, 100);
        assert_eq!(a.events().len(), 2);
    }

    #[test]
    fn fee_ledger_totals() {
        let mut ledger = FeeLedger::new();
        let c0 = ChainId(0);
        let c1 = ChainId(1);
        ledger.record_deployment(c0, 4);
        ledger.record_deployment(c1, 4);
        ledger.record_call(c0, 2);
        ledger.record_transfer(c1, 1);
        assert_eq!(ledger.total_deployments(), 2);
        assert_eq!(ledger.total_calls(), 1);
        assert_eq!(ledger.total_fees(), 11);
        assert_eq!(ledger.fees_on(c0), 6);
        assert_eq!(ledger.deployments_on(c1), 1);
        assert_eq!(ledger.calls_on(c1), 0);
        assert!(ledger.to_string().contains("2 deployments"));
    }

    #[test]
    fn latency_stats_summary() {
        let mut stats = LatencyStats::new();
        for v in [10u64, 20, 30, 40, 50] {
            stats.record(v);
        }
        assert_eq!(stats.len(), 5);
        assert_eq!(stats.min(), Some(10));
        assert_eq!(stats.max(), Some(50));
        assert_eq!(stats.mean(), Some(30.0));
        assert_eq!(stats.percentile(50.0), Some(30));
        assert_eq!(stats.percentile(100.0), Some(50));
    }

    #[test]
    fn percentile_is_true_nearest_rank() {
        // Nearest-rank on an even-length sample, where the old rounded
        // linear index diverged: p25 of four samples is the 1st order
        // statistic (⌈0.25·4⌉ = 1), not the 2nd.
        let mut stats = LatencyStats::new();
        for v in [1u64, 2, 3, 4] {
            stats.record(v);
        }
        assert_eq!(stats.percentile(0.0), Some(1), "p0 is the minimum");
        assert_eq!(stats.percentile(25.0), Some(1));
        assert_eq!(stats.percentile(50.0), Some(2));
        assert_eq!(stats.percentile(75.0), Some(3));
        assert_eq!(stats.percentile(100.0), Some(4));

        let mut single = LatencyStats::new();
        single.record(42);
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(single.percentile(p), Some(42));
        }
    }

    #[test]
    fn fee_attribution_per_swap() {
        let mut ledger = FeeLedger::new();
        ledger.record_call(ChainId(0), 2);
        ledger.attribute(SwapId(1), 2);
        ledger.record_call(ChainId(0), 4);
        ledger.attribute(SwapId(2), 4);
        ledger.record_call(ChainId(1), 1);
        ledger.attribute(SwapId(1), 1);
        assert_eq!(ledger.fees_for_swap(SwapId(1)), 3);
        assert_eq!(ledger.fees_for_swap(SwapId(2)), 4);
        assert_eq!(ledger.fees_for_swap(SwapId(3)), 0);
        // Attribution is a second axis over the same payments.
        assert_eq!(ledger.total_fees(), 7);
        assert_eq!(SwapId(1).to_string(), "swap-1");
    }

    #[test]
    fn latency_stats_empty() {
        let stats = LatencyStats::new();
        assert!(stats.is_empty());
        assert_eq!(stats.mean(), None);
        assert_eq!(stats.percentile(50.0), None);
    }
}
