//! The discrete-event multi-chain world.
//!
//! A [`World`] owns a set of simulated blockchains (asset chains plus one or
//! more witness chains), a simulated clock, and the fault machinery the
//! paper's failure scenarios need (chain outages modelling network
//! partitions, and deliberate fork injection modelling the 51% attacks of
//! Section 6.3). The protocol state machines in `ac3-core` submit
//! transactions and read all their measurements from the world but never
//! advance its clock; time is advanced between machine polls by whoever
//! owns the loop — `ac3_core::driver::drive` for a single swap, the
//! `ac3_core::scheduler::Scheduler` for a concurrent batch (the batch's
//! machines then contend for block space in the shared mempools).

use crate::audit::AuditScope;
use crate::faults::OutageWindow;
use crate::metrics::{FeeKind, FeeLedger, SwapId, Timeline};
use crate::network::{FeeEvent, Link, LinkStats, NetworkProfile, Payload};
use ac3_chain::{
    Address, Amount, BlockHash, Blockchain, ChainError, ChainId, ChainParams, ContractId,
    Timestamp, Transaction, TxId, TxKind,
};
use ac3_contracts::{ChainAnchor, SwapVm, TxInclusionEvidence};
use ac3_crypto::KeyPair;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors surfaced by world operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldError {
    /// The referenced chain does not exist.
    UnknownChain(ChainId),
    /// The chain exists but is unreachable due to an injected outage.
    ChainUnreachable(ChainId),
    /// A block the operation depends on is missing from the chain's store
    /// (e.g. the fork base of an injected fork).
    MissingBlock {
        /// The chain whose store was probed.
        chain: ChainId,
        /// The height at which no canonical block was found.
        height: u64,
    },
    /// A chain-level error.
    Chain(ChainError),
    /// A wait timed out before its condition became true.
    Timeout {
        /// What was being waited for.
        what: String,
        /// The simulated time at which the wait gave up.
        at: Timestamp,
    },
    /// Evidence could not be constructed (transaction not canonical, anchor
    /// not canonical, ...).
    EvidenceUnavailable(String),
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::UnknownChain(id) => write!(f, "unknown chain {id}"),
            WorldError::ChainUnreachable(id) => write!(f, "{id} unreachable (network partition)"),
            WorldError::MissingBlock { chain, height } => {
                write!(f, "no canonical block at height {height} on {chain}")
            }
            WorldError::Chain(e) => write!(f, "chain error: {e}"),
            WorldError::Timeout { what, at } => write!(f, "timed out at {at} waiting for {what}"),
            WorldError::EvidenceUnavailable(m) => write!(f, "evidence unavailable: {m}"),
        }
    }
}

impl std::error::Error for WorldError {}

impl From<ChainError> for WorldError {
    fn from(e: ChainError) -> Self {
        WorldError::Chain(e)
    }
}

struct ChainSlot {
    chain: Blockchain,
    miner: Address,
    next_block_at: Timestamp,
    outages: Vec<OutageWindow>,
    /// The message link to this chain; `Some` once a network profile is
    /// attached to the world. Moves with the slot across shard splits, so
    /// its RNG stream and in-flight queue stay with whichever worker owns
    /// the chain.
    link: Option<Link>,
}

/// Memoised congestion view of one chain, keyed by the (clock, mempool
/// revision) pair it was derived at. At 10k concurrent machines the
/// stuck-bid escalation path probes congestion once per poll; within one
/// scheduler tick the clock is frozen and most mempools are untouched, so
/// the snapshot — and the O(block budget) marginal-price walk — can be
/// derived once per (chain, tick) and replayed from here.
struct CongestionCacheEntry {
    now: Timestamp,
    revision: u64,
    snapshot: ChainCongestion,
    /// The marginal price of next-block inclusion (the fee at mempool rank
    /// `block_budget - 1`), computed lazily on the first probe at this
    /// (clock, revision) — non-Adaptive pollers never pay for it.
    marginal: Option<Option<Amount>>,
}

/// Snapshot of one chain's mempool congestion — the demand side of the fee
/// market, read by protocol machines deciding whether to out-bid their own
/// stuck submissions and by witness-assignment strategies routing new swaps
/// to the least-loaded witness network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainCongestion {
    /// The observed chain.
    pub chain: ChainId,
    /// Number of pending transactions.
    pub depth: usize,
    /// Mempool capacity.
    pub capacity: usize,
    /// Smallest fee among pending transactions (`None` when empty).
    pub min_fee: Option<Amount>,
    /// Smallest fee that would currently buy a mempool slot: the chain's
    /// dynamic base fee while there is room, otherwise the larger of the
    /// base fee and the eviction floor ([`ac3_chain::Mempool::fee_floor`]).
    /// A bid below it is always refused (`FeeTooLow` or `Full`). A bid at
    /// it is admitted unless the pool-wide eviction candidate is the
    /// bidder's own pending parent, which a submission never evicts.
    pub fee_floor: Amount,
    /// The chain's dynamic per-block base fee
    /// ([`ac3_chain::BaseFeeSchedule`]): the admission price driven by
    /// sustained block utilisation rather than pool fullness. 0 under a
    /// disabled schedule.
    pub base_fee: Amount,
    /// Per-block transaction budget derived from the chain's tps cap — a
    /// pending transaction ranked at or beyond this will not make the next
    /// block. The *marginal price* of next-block inclusion (the fee at
    /// rank `block_budget - 1`) is deliberately not part of the snapshot:
    /// it costs an O(budget) mempool walk, so callers that need it probe
    /// [`ac3_chain::Blockchain::mempool_fee_at_rank`] explicitly.
    pub block_budget: usize,
    /// Whether a submission made now is priced against this very snapshot:
    /// true when no network is attached, so a bid below `fee_floor` is a
    /// certain refusal. With a network attached admission happens at
    /// delivery, against whatever the pool holds by then.
    pub binding: bool,
}

/// The simulated multi-chain world.
pub struct World {
    now: Timestamp,
    chains: BTreeMap<ChainId, ChainSlot>,
    next_chain_id: u32,
    /// Timeline of protocol-level events (filled by protocol drivers).
    pub timeline: Timeline,
    /// Fee accounting (filled by protocol drivers).
    pub fees: FeeLedger,
    /// The swap currently charged for submitted fees (set by the scheduler
    /// around each machine poll so concurrent AC2Ts get separate bills).
    fee_attribution: Option<SwapId>,
    /// Per-chain congestion snapshots memoised by (clock, mempool
    /// revision); see [`World::congestion`].
    congestion_cache: BTreeMap<ChainId, CongestionCacheEntry>,
    /// Pinned Δ (see [`World::pin_timing`]): a shard world split off a
    /// larger world must keep using the full world's Δ — timelocks are
    /// commitments against global publication time, not against whichever
    /// chains happen to share the shard.
    delta_override: Option<u64>,
    /// Pinned minimum block interval (see [`World::pin_timing`]).
    min_interval_override: Option<u64>,
    /// The attached network profile, if any (see
    /// [`World::attach_network`]): every chain slot then carries a
    /// [`Link`] that machine submissions route through.
    network: Option<NetworkProfile>,
    /// Active footprint-audit scope (see [`World::begin_audit`]); not part
    /// of the world's value, so shards split off start unaudited.
    audit: Option<AuditScope>,
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("chains", &self.chains.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Default for World {
    fn default() -> Self {
        Self::new()
    }
}

impl World {
    /// An empty world at time 0.
    pub fn new() -> Self {
        World {
            now: 0,
            chains: BTreeMap::new(),
            next_chain_id: 0,
            timeline: Timeline::new(),
            fees: FeeLedger::new(),
            fee_attribution: None,
            congestion_cache: BTreeMap::new(),
            delta_override: None,
            min_interval_override: None,
            network: None,
            audit: None,
        }
    }

    /// Route fees of subsequently submitted transactions to `swap` (in
    /// addition to the per-chain ledger); `None` stops attribution.
    pub fn set_fee_attribution(&mut self, swap: Option<SwapId>) {
        self.fee_attribution = swap;
    }

    /// The swap currently charged for submitted fees, if any.
    pub fn fee_attribution(&self) -> Option<SwapId> {
        self.fee_attribution
    }

    /// Current simulated time in milliseconds.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Add a blockchain running the [`SwapVm`] with the given parameters and
    /// genesis balances. Returns its chain id.
    pub fn add_chain(&mut self, params: ChainParams, genesis: &[(Address, Amount)]) -> ChainId {
        let id = ChainId(self.next_chain_id);
        self.next_chain_id += 1;
        let miner =
            Address::from(KeyPair::from_seed(format!("miner-{}", params.name).as_bytes()).public());
        let interval = params.block_interval_ms;
        let chain = Blockchain::new(id, params, Arc::new(SwapVm::new()), genesis);
        let link = self.network.as_ref().map(|profile| Link::new(profile, id));
        self.chains.insert(
            id,
            ChainSlot {
                chain,
                miner,
                next_block_at: self.now + interval,
                outages: Vec::new(),
                link,
            },
        );
        id
    }

    /// Ids of all chains, in creation order.
    pub fn chain_ids(&self) -> Vec<ChainId> {
        self.chains.keys().copied().collect()
    }

    /// Borrow a chain.
    pub fn chain(&self, id: ChainId) -> Result<&Blockchain, WorldError> {
        self.chains.get(&id).map(|s| &s.chain).ok_or(WorldError::UnknownChain(id))
    }

    /// Mutably borrow a chain (bypasses outage checks; used by tests and
    /// fault injection, not by protocol drivers).
    pub fn chain_mut(&mut self, id: ChainId) -> Result<&mut Blockchain, WorldError> {
        self.chains.get_mut(&id).map(|s| &mut s.chain).ok_or(WorldError::UnknownChain(id))
    }

    /// The paper's Δ for this world: enough simulated time for any
    /// participant to publish a smart contract on any chain *and for the
    /// publication to be publicly recognised* (i.e. buried under the chain's
    /// stable depth). We take the maximum over all chains.
    pub fn delta_ms(&self) -> u64 {
        if let Some(delta) = self.delta_override {
            return delta;
        }
        self.chains
            .values()
            .map(|s| s.chain.params().block_interval_ms * (s.chain.params().stable_depth + 1))
            .max()
            .unwrap_or(1_000)
    }

    /// The smallest block interval across chains — the natural polling step
    /// for waits on on-chain conditions (nothing can change between blocks).
    pub fn min_block_interval_ms(&self) -> u64 {
        if let Some(interval) = self.min_interval_override {
            return interval;
        }
        self.chains.values().map(|s| s.chain.params().block_interval_ms).min().unwrap_or(1_000)
    }

    /// Pin Δ and the minimum block interval to explicit values, overriding
    /// the per-chain derivations. A shard world split off a larger world
    /// (see [`World::split_shard`]) holds only its own chains, but the
    /// machines it runs negotiated their timelocks against the *full*
    /// world's Δ — deriving a smaller Δ from the shard's chains would
    /// silently shrink every safety margin.
    pub fn pin_timing(&mut self, delta_ms: u64, min_block_interval_ms: u64) {
        self.delta_override = Some(delta_ms);
        self.min_interval_override = Some(min_block_interval_ms);
    }

    // ------------------------------------------------------------------
    // Network
    // ------------------------------------------------------------------

    /// Attach a network profile: every chain (existing and future) gets a
    /// message `Link` seeded from the profile, through which the
    /// [`ChainApi`](crate::ChainApi) impl (not the inherent methods) routes
    /// submissions and re-bids as delayed, droppable messages. Re-attaching
    /// replaces the links (fresh RNG streams, empty queues). Congestion
    /// snapshots taken before stop being binding, so the memo is dropped.
    pub fn attach_network(&mut self, profile: NetworkProfile) {
        self.network = Some(profile);
        self.congestion_cache.clear();
        for (id, slot) in self.chains.iter_mut() {
            slot.link = Some(Link::new(&profile, *id));
        }
    }

    /// Whether a network profile is attached (links exist).
    pub fn network_attached(&self) -> bool {
        self.network.is_some()
    }

    /// The attached network profile, if any.
    pub fn network_profile(&self) -> Option<&NetworkProfile> {
        self.network.as_ref()
    }

    /// Aggregate delivery counters over every chain's link, folded in
    /// chain-id order. Zero when no network is attached.
    pub fn network_stats(&self) -> LinkStats {
        let mut stats = LinkStats::default();
        for slot in self.chains.values() {
            if let Some(link) = &slot.link {
                stats.absorb(&link.stats);
            }
        }
        stats
    }

    /// Mutable access to a chain's link (the routed send path).
    pub(crate) fn link_mut(&mut self, chain: ChainId) -> Option<&mut Link> {
        self.chains.get_mut(&chain).and_then(|s| s.link.as_mut())
    }

    /// Whether a message carrying `txid` is still in flight to `chain`.
    pub fn tx_in_flight(&self, chain: ChainId, txid: &TxId) -> bool {
        self.chains.get(&chain).and_then(|s| s.link.as_ref()).is_some_and(|l| l.tx_in_flight(txid))
    }

    // ------------------------------------------------------------------
    // Footprint audit
    // ------------------------------------------------------------------

    /// Start auditing against `scope` (see [`AuditScope`]): until
    /// [`World::end_audit`], every chain-addressed
    /// [`ChainApi`](crate::ChainApi) call on a chain outside the scope
    /// panics. Inherent methods are never audited.
    pub fn begin_audit(&mut self, scope: AuditScope) {
        self.audit = Some(scope);
    }

    /// Stop auditing.
    pub fn end_audit(&mut self) {
        self.audit = None;
    }

    /// Panic if the audit scope is active and does not declare `chain`.
    pub(crate) fn check_audit(&self, chain: ChainId) {
        if let Some(scope) = &self.audit {
            scope.check_chain(chain);
        }
    }

    // ------------------------------------------------------------------
    // Faults
    // ------------------------------------------------------------------

    /// Make a chain unreachable (network partition) during a window of
    /// simulated time: submissions during the window fail. With a network
    /// attached the window lives on the chain's `Link` — fault-injected
    /// partitions and modeled message loss share the one mechanism — and
    /// on the slot's own outage list otherwise.
    pub fn schedule_outage(
        &mut self,
        chain: ChainId,
        window: OutageWindow,
    ) -> Result<(), WorldError> {
        let slot = self.chains.get_mut(&chain).ok_or(WorldError::UnknownChain(chain))?;
        match slot.link.as_mut() {
            Some(link) => link.partitions.push(window),
            None => slot.outages.push(window),
        }
        Ok(())
    }

    /// Whether a chain is reachable right now. Checks both the slot's
    /// outage windows and, when a network is attached, the link's
    /// partition windows. Messages already in flight still deliver during
    /// a partition — the gate is at send time, like the paper's model of a
    /// partitioned *submitter*.
    pub fn is_reachable(&self, chain: ChainId) -> bool {
        self.chains
            .get(&chain)
            .map(|s| {
                !s.outages.iter().any(|o| o.covers(self.now))
                    && !s.link.as_ref().is_some_and(|l| l.is_partitioned(self.now))
            })
            .unwrap_or(false)
    }

    /// Deliberately mine a competing branch of `length` blocks, forking off
    /// the canonical block `fork_depth` blocks below the current tip. This
    /// is the attacker of Section 6.3 attempting to rewrite the witness
    /// chain's decision. Returns the hashes of the branch blocks.
    pub fn inject_fork(
        &mut self,
        chain: ChainId,
        fork_depth: u64,
        length: u64,
    ) -> Result<Vec<BlockHash>, WorldError> {
        let now = self.now;
        let slot = self.chains.get_mut(&chain).ok_or(WorldError::UnknownChain(chain))?;
        let tip_height = slot.chain.height();
        let base_height = tip_height.saturating_sub(fork_depth);
        let mut parent = slot
            .chain
            .store()
            .canonical_block_at_height(base_height)
            .ok_or(WorldError::MissingBlock { chain, height: base_height })?;
        let attacker = Address::from(KeyPair::from_seed(b"attacker-51pct").public());
        let mut branch = Vec::with_capacity(length as usize);
        for i in 0..length {
            let block = slot.chain.mine_block_on(parent, attacker, now + i)?;
            parent = block.hash();
            branch.push(parent);
        }
        Ok(branch)
    }

    // ------------------------------------------------------------------
    // Time
    // ------------------------------------------------------------------

    /// Advance simulated time by `ms`, mining blocks on every chain
    /// whenever its block interval elapses and delivering due network
    /// messages in between.
    ///
    /// Chains are advanced one at a time with the per-chain event loop of
    /// `World::advance_slot`; cross-chain interleaving is unobservable
    /// (mining or delivering on one chain never reads or writes another),
    /// so this is bitwise identical to a global time-ordered event loop.
    /// The sharded scheduler leans on the same commutativity when it
    /// advances shards on separate threads; `parallel_determinism` in
    /// `ac3-core` pins it bitwise at every worker count.
    pub fn advance(&mut self, ms: u64) {
        let target = self.now + ms;
        for slot in self.chains.values_mut() {
            Self::advance_slot(slot, target);
        }
        self.now = target;
        self.drain_network_outboxes();
    }

    /// Run one chain's event loop up to `target`: block production at the
    /// chain's interval, interleaved in time order with the delivery of
    /// the link's due messages. A message and a block due at the same
    /// instant deliver the message first — a submission arriving "as the
    /// block is mined" can still make that block, matching the synchronous
    /// path where the submit call precedes the advance.
    ///
    /// Mining ignores outages: the chain's own miners are not partitioned
    /// from themselves, only submitters may be. In-flight messages deliver
    /// during partitions too — the reachability gate is at send time.
    fn advance_slot(slot: &mut ChainSlot, target: Timestamp) {
        loop {
            let next_block = (slot.next_block_at <= target).then_some(slot.next_block_at);
            let next_msg =
                slot.link.as_ref().and_then(|l| l.next_delivery_at()).filter(|at| *at <= target);
            match (next_msg, next_block) {
                (Some(m), Some(b)) if m <= b => Self::deliver_one(slot, m),
                (Some(m), None) => Self::deliver_one(slot, m),
                (_, Some(at)) => {
                    let miner = slot.miner;
                    let _ = slot.chain.mine_block(miner, at);
                    slot.next_block_at = at + slot.chain.params().block_interval_ms;
                }
                (None, None) => break,
            }
        }
    }

    /// Apply the earliest due message on `slot`'s link to its chain,
    /// recording admission results as stats and fee-ledger events on the
    /// link (the world drains them after the advance — see
    /// [`World::drain_network_outboxes`]).
    fn deliver_one(slot: &mut ChainSlot, at: Timestamp) {
        let link = slot.link.as_mut().expect("deliver_one only runs with a link");
        let msg = link.pop_due(at).expect("caller checked a message is due");
        match apply(&mut slot.chain, msg.payload, msg.attribution) {
            Ok((_, event)) => {
                link.stats.delivered += 1;
                link.outbox.push(event);
            }
            Err(_) => link.stats.nacked += 1,
        }
    }

    /// Fold every link's pending fee events into the world ledger, in
    /// chain-id order. Deliveries run inside per-chain advancement —
    /// possibly on a worker thread that owns only the slot — so they
    /// cannot bill the shared ledger directly; draining here, in the same
    /// deterministic order serially and in parallel, keeps the ledger
    /// bitwise identical at any thread count.
    fn drain_network_outboxes(&mut self) {
        if self.network.is_none() {
            return;
        }
        let mut events: Vec<(ChainId, FeeEvent)> = Vec::new();
        for (id, slot) in self.chains.iter_mut() {
            if let Some(link) = slot.link.as_mut() {
                events.extend(link.outbox.drain(..).map(|e| (*id, e)));
            }
        }
        for (chain, event) in events {
            self.book(chain, event);
        }
    }

    /// Book one fee event in the world ledger.
    fn book(&mut self, chain: ChainId, event: FeeEvent) {
        match event {
            FeeEvent::Bill { txid, kind, fee, swap, evicted } => {
                for dropped in &evicted {
                    self.fees.refund(dropped);
                }
                if let Some(kind) = kind {
                    self.fees.bill(chain, txid, kind, fee, swap);
                }
            }
            FeeEvent::Reprice { old, new, fee } => {
                self.fees.reprice(&old, new, fee);
            }
        }
    }

    /// Advance in steps of one block interval until `pred` is true or
    /// `max_ms` have elapsed. Returns the elapsed time on success.
    pub fn advance_until<F>(
        &mut self,
        what: &str,
        max_ms: u64,
        mut pred: F,
    ) -> Result<u64, WorldError>
    where
        F: FnMut(&World) -> bool,
    {
        let start = self.now;
        if pred(self) {
            return Ok(0);
        }
        let step = self.min_block_interval_ms();
        while self.now < start + max_ms {
            self.advance(step);
            if pred(self) {
                return Ok(self.now - start);
            }
        }
        Err(WorldError::Timeout { what: what.to_string(), at: self.now })
    }

    /// Advance until the chain has mined `n` additional blocks.
    pub fn advance_blocks(&mut self, chain: ChainId, n: u64) -> Result<(), WorldError> {
        let start = self.chain(chain)?.height();
        let interval = self.chain(chain)?.params().block_interval_ms;
        self.advance_until("blocks to be mined", interval * (n + 2) * 2, |w| {
            w.chain(chain).map(|c| c.height() >= start + n).unwrap_or(false)
        })?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Submit a transaction to a chain, respecting injected outages. Fees
    /// are recorded in the world ledger by transaction kind — but only for
    /// transactions the chain actually admits: a rejected submission (bad
    /// signature, mempool conflict, partitioned or unknown chain) costs
    /// nothing, and a pending transaction priced out of a full mempool by a
    /// higher bid gets its fee refunded.
    pub fn submit(&mut self, chain: ChainId, tx: Transaction) -> Result<TxId, WorldError> {
        self.apply_now(chain, Payload::Submit { tx })
    }

    /// Replace-by-fee: swap a pending transaction for a strictly
    /// higher-fee replacement (the client side of the fee market — a
    /// submitter out-bidding its own stuck transaction). The ledger is
    /// repriced: only the replacement's fee is owed, attributed to whatever
    /// swap the original was billed to.
    pub fn replace_tx(
        &mut self,
        chain: ChainId,
        old: TxId,
        tx: Transaction,
    ) -> Result<TxId, WorldError> {
        self.apply_now(chain, Payload::Replace { old, tx })
    }

    /// Apply a mempool operation to `chain` at once and book its fee
    /// event, respecting injected outages.
    pub(crate) fn apply_now(
        &mut self,
        chain: ChainId,
        payload: Payload,
    ) -> Result<TxId, WorldError> {
        // An unknown chain is a caller bug, not a network partition; only
        // chains that exist can be unreachable.
        if !self.chains.contains_key(&chain) {
            return Err(WorldError::UnknownChain(chain));
        }
        if !self.is_reachable(chain) {
            return Err(WorldError::ChainUnreachable(chain));
        }
        let slot = self.chains.get_mut(&chain).expect("checked above");
        let (txid, event) = apply(&mut slot.chain, payload, self.fee_attribution)?;
        self.book(chain, event);
        Ok(txid)
    }

    /// Derive one chain's congestion snapshot from scratch (no memo).
    fn congestion_uncached(&self, chain: ChainId) -> Result<ChainCongestion, WorldError> {
        let c = self.chain(chain)?;
        if !self.is_reachable(chain) {
            return Err(WorldError::ChainUnreachable(chain));
        }
        Ok(ChainCongestion {
            chain,
            depth: c.mempool_len(),
            capacity: c.mempool_capacity(),
            min_fee: c.mempool_min_fee(),
            fee_floor: c.mempool_fee_floor(),
            base_fee: c.base_fee(),
            block_budget: c.params().max_txs_per_block(),
            binding: self.network.is_none(),
        })
    }

    /// Observe one chain's mempool congestion (queue depth, base fee, fee
    /// floor, block budget), memoised per chain by (clock, mempool
    /// revision): within one scheduler tick the clock is frozen, so every
    /// poller after the first reads the cached snapshot instead of
    /// re-deriving depth, floor, and base fee. Any mempool mutation
    /// (admission, eviction, mining, base-fee move) bumps the revision and
    /// transparently invalidates the entry — there is no explicit flush.
    ///
    /// Respects injected outages exactly like [`World::submit`]: a
    /// partitioned chain's mempool cannot be observed, so the call fails
    /// with [`WorldError::ChainUnreachable`] for the duration of the
    /// outage window (and [`WorldError::UnknownChain`] for chains that do
    /// not exist — an unknown chain is a caller bug, not a partition).
    pub fn congestion(&mut self, chain: ChainId) -> Result<ChainCongestion, WorldError> {
        let revision = self.chain(chain)?.mempool_revision();
        if !self.is_reachable(chain) {
            return Err(WorldError::ChainUnreachable(chain));
        }
        if let Some(entry) = self.congestion_cache.get(&chain) {
            if entry.now == self.now && entry.revision == revision {
                return Ok(entry.snapshot);
            }
        }
        let snapshot = self.congestion_uncached(chain)?;
        self.congestion_cache.insert(
            chain,
            CongestionCacheEntry { now: self.now, revision, snapshot, marginal: None },
        );
        Ok(snapshot)
    }

    /// The marginal price of next-block inclusion on `chain`: the fee bid
    /// by the pending transaction at the last in-budget mempool rank
    /// (`None` when the queue is shallower than a block). The underlying
    /// probe is an O(block budget) walk of the priority order, so the
    /// result is memoised alongside [`World::congestion`] and recomputed
    /// only when the clock or the mempool revision moves.
    pub fn marginal_fee(&mut self, chain: ChainId) -> Result<Option<Amount>, WorldError> {
        let snapshot = self.congestion(chain)?;
        if let Some(entry) = self.congestion_cache.get(&chain) {
            if let Some(marginal) = entry.marginal {
                return Ok(marginal);
            }
        }
        let rank = snapshot.block_budget.saturating_sub(1);
        let marginal = self.chain(chain)?.mempool_fee_at_rank(rank);
        if let Some(entry) = self.congestion_cache.get_mut(&chain) {
            entry.marginal = Some(marginal);
        }
        Ok(marginal)
    }

    /// Wait until a transaction is buried under `depth` blocks on the
    /// canonical chain (or time out after `max_ms`); depth 0 is inclusion in
    /// any canonical block.
    pub fn wait_for_depth(
        &mut self,
        chain: ChainId,
        txid: TxId,
        depth: u64,
        max_ms: u64,
    ) -> Result<u64, WorldError> {
        self.advance_until(&format!("tx {txid} at depth {depth}"), max_ms, |w| {
            w.chain(chain).ok().and_then(|c| c.tx_depth(&txid)).is_some_and(|d| d >= depth)
        })
    }

    // ------------------------------------------------------------------
    // Evidence construction (Section 4.3)
    // ------------------------------------------------------------------

    /// A stable anchor for `chain`: the canonical block currently buried
    /// under the chain's stable depth.
    pub fn anchor(&self, chain: ChainId) -> Result<ChainAnchor, WorldError> {
        let c = self.chain(chain)?;
        let hash = c.stable_block_hash();
        let header = c
            .store()
            .header(&hash)
            .ok_or_else(|| WorldError::EvidenceUnavailable("stable block missing".to_string()))?;
        Ok(ChainAnchor { chain, hash, height: header.height })
    }

    /// Build self-contained inclusion evidence for `txid` relative to
    /// `anchor` (header chain since the anchor + Merkle proof + the full
    /// transaction). Headers and proof come from block metadata; the body
    /// is read only to copy out the embedded transaction.
    pub fn tx_evidence_since(
        &self,
        chain: ChainId,
        anchor: &ChainAnchor,
        txid: TxId,
    ) -> Result<TxInclusionEvidence, WorldError> {
        let c = self.chain(chain)?;
        let (block_hash, index) = c
            .store()
            .find_canonical_tx(&txid)
            .ok_or_else(|| WorldError::EvidenceUnavailable(format!("{txid} not canonical")))?;
        let block = c
            .store()
            .get(&block_hash)
            .ok_or_else(|| WorldError::EvidenceUnavailable("block missing".to_string()))?;
        let tx = block.transactions[index].clone();
        let proof = c.store().tx_proof(&block_hash, index).ok_or_else(|| {
            WorldError::EvidenceUnavailable("proof construction failed".to_string())
        })?;
        let headers = c
            .headers_since(&anchor.hash)
            .ok_or_else(|| WorldError::EvidenceUnavailable("anchor not canonical".to_string()))?;
        Ok(TxInclusionEvidence { tx, tx_height: block.header.height, headers, proof })
    }

    /// Look up the state tag and burial depth of a contract.
    pub fn contract_state(&self, chain: ChainId, contract: ContractId) -> Option<(String, u64)> {
        self.chain(chain).ok()?.contract_state_with_depth(&contract)
    }

    // ------------------------------------------------------------------
    // Sharding (parallel scheduler support)
    // ------------------------------------------------------------------

    /// Split the named chains — and the fee-ledger slices of the named
    /// swaps — out of this world into a self-contained shard world sharing
    /// the same clock. The chains *move* (blocks, mempools, outage
    /// schedules, miner state and all), so a shard can be handed to a
    /// worker thread and run exactly as the full world would have run it;
    /// there is no cross-shard aliasing to synchronise. Δ and the minimum
    /// block interval are pinned to the full world's values on both sides
    /// (see [`World::pin_timing`]).
    ///
    /// The shard's timeline starts empty and its fee ledger holds exactly
    /// the moved slices; [`World::absorb_shard`] folds both back.
    pub fn split_shard(
        &mut self,
        chains: &[ChainId],
        swaps: &[SwapId],
    ) -> Result<World, WorldError> {
        let delta = self.delta_ms();
        let min_interval = self.min_block_interval_ms();
        self.pin_timing(delta, min_interval);
        let mut shard = World::new();
        shard.now = self.now;
        shard.next_chain_id = self.next_chain_id;
        shard.network = self.network;
        shard.pin_timing(delta, min_interval);
        for id in chains {
            let slot = self.chains.remove(id).ok_or(WorldError::UnknownChain(*id))?;
            self.congestion_cache.remove(id);
            shard.chains.insert(*id, slot);
        }
        shard.fees = self.fees.split_off(chains, swaps);
        Ok(shard)
    }

    /// Fold a shard world back in: its chains return with their advanced
    /// state, its timeline events are merged (timestamp order), and its
    /// fee-ledger slices are added back. The shard must have rejoined at
    /// the same clock it is absorbed at.
    pub fn absorb_shard(&mut self, shard: World) {
        assert_eq!(self.now, shard.now, "shards must rejoin at the same clock");
        for (id, slot) in shard.chains {
            self.chains.insert(id, slot);
        }
        self.timeline.merge(&shard.timeline);
        self.fees.absorb(shard.fees);
    }

    // ------------------------------------------------------------------
    // Diagnostics
    // ------------------------------------------------------------------

    /// Differential integrity check of the incremental state engine: every
    /// chain's materialized canonical state must equal a full from-genesis
    /// replay. Panics (with the offending chain id) on divergence.
    ///
    /// Intended for tests and fault experiments after reorg-heavy scenarios
    /// (fork injection, 51% attacks); it is O(total blocks), so production
    /// drivers should not call it on the hot path.
    pub fn assert_state_integrity(&self) {
        for (id, slot) in &self.chains {
            let oracle = slot.chain.replay_state_from_genesis();
            assert!(
                slot.chain.state() == &oracle,
                "incremental state of {id} diverged from the replay oracle"
            );
        }
    }
}

/// Apply one mempool operation to `chain`, returning the admitted id and
/// the fee-ledger event it owes. The one definition of billing: the
/// inherent path books the event at once, link delivery queues it on the
/// link's outbox. Coinbases are never billed.
fn apply(
    chain: &mut Blockchain,
    payload: Payload,
    swap: Option<SwapId>,
) -> Result<(TxId, FeeEvent), ChainError> {
    match payload {
        Payload::Submit { tx } => {
            let fee = tx.fee;
            let kind = match &tx.kind {
                TxKind::Deploy { .. } => Some(FeeKind::Deploy),
                TxKind::Call { .. } => Some(FeeKind::Call),
                TxKind::Transfer { .. } => Some(FeeKind::Transfer),
                TxKind::Coinbase { .. } => None,
            };
            let (txid, evicted) = chain.submit_with_evictions(tx)?;
            let evicted = evicted.iter().map(|t| t.id()).collect();
            Ok((txid, FeeEvent::Bill { txid, kind, fee, swap, evicted }))
        }
        Payload::Replace { old, tx } => {
            let fee = tx.fee;
            let (new, _replaced) = chain.replace(&old, tx)?;
            Ok((new, FeeEvent::Reprice { old, new, fee }))
        }
    }
}

// The parallel scheduler moves whole worlds (shards) and `&mut ChainSlot`s
// across scoped threads; keep the thread-safety of the simulation core a
// compile-time fact rather than an accident of field types.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<World>();
    assert_send_sync::<Blockchain>();
    assert_send_sync::<ChainCongestion>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use ac3_chain::TxOutput;
    use ac3_crypto::KeyPair;

    fn addr(seed: &[u8]) -> Address {
        Address::from(KeyPair::from_seed(seed).public())
    }

    fn fast_params(name: &str) -> ChainParams {
        let mut p = ChainParams::test(name);
        p.block_interval_ms = 1_000;
        p.stable_depth = 3;
        p
    }

    #[test]
    fn chains_mine_at_their_intervals() {
        let mut world = World::new();
        let fast = world.add_chain(fast_params("fast"), &[]);
        let mut slow_params = fast_params("slow");
        slow_params.block_interval_ms = 5_000;
        let slow = world.add_chain(slow_params, &[]);

        world.advance(10_000);
        assert_eq!(world.chain(fast).unwrap().height(), 10);
        assert_eq!(world.chain(slow).unwrap().height(), 2);
        assert_eq!(world.now(), 10_000);
    }

    #[test]
    fn delta_is_driven_by_the_slowest_chain() {
        let mut world = World::new();
        world.add_chain(fast_params("fast"), &[]);
        let mut slow = fast_params("slow");
        slow.block_interval_ms = 10_000;
        slow.stable_depth = 5;
        world.add_chain(slow, &[]);
        assert_eq!(world.delta_ms(), 10_000 * 6);
    }

    #[test]
    fn submit_wait_and_evidence_round_trip() {
        let alice = addr(b"alice");
        let bob = addr(b"bob");
        let mut world = World::new();
        let chain = world.add_chain(fast_params("c"), &[(alice, 100)]);
        let anchor = world.anchor(chain).unwrap();

        let mut kp = ac3_chain::TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let (inputs, outputs) =
            world.chain(chain).unwrap().plan_payment(&alice, &bob, 10, 1).unwrap();
        let txid = world.submit(chain, kp.transfer(inputs, outputs, 1)).unwrap();

        world.wait_for_depth(chain, txid, 3, 60_000).unwrap();
        assert!(world.chain(chain).unwrap().tx_is_stable(&txid));

        let evidence = world.tx_evidence_since(chain, &anchor, txid).unwrap();
        evidence.verify(&anchor, 3).unwrap();
    }

    #[test]
    fn outage_blocks_submissions_until_it_lifts() {
        let alice = addr(b"alice");
        let mut world = World::new();
        let chain = world.add_chain(fast_params("c"), &[(alice, 100)]);
        world.schedule_outage(chain, OutageWindow { from: 0, until: 5_000 }).unwrap();

        let mut kp = ac3_chain::TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let tx = kp.transfer(vec![], vec![TxOutput::new(alice, 0)], 0);
        assert!(matches!(
            world.submit(chain, tx.clone()).unwrap_err(),
            WorldError::ChainUnreachable(_)
        ));
        world.advance(5_000);
        assert!(world.is_reachable(chain));
        world.submit(chain, tx).unwrap();
    }

    #[test]
    fn advance_until_times_out() {
        let mut world = World::new();
        let chain = world.add_chain(fast_params("c"), &[]);
        let err = world
            .advance_until("the impossible", 3_000, |w| w.chain(chain).unwrap().height() > 1_000)
            .unwrap_err();
        assert!(matches!(err, WorldError::Timeout { .. }));
    }

    #[test]
    fn fork_injection_creates_competing_branch() {
        let mut world = World::new();
        let chain = world.add_chain(fast_params("c"), &[]);
        world.advance(6_000); // height 6
        let tip_before = world.chain(chain).unwrap().tip();
        // Fork 3 below the tip with a branch long enough to win.
        let branch = world.inject_fork(chain, 3, 5).unwrap();
        assert_eq!(branch.len(), 5);
        let tip_after = world.chain(chain).unwrap().tip();
        assert_ne!(tip_before, tip_after, "attacker branch becomes canonical");
        assert_eq!(world.chain(chain).unwrap().height(), 8);
        // The reorg must leave every chain's incremental state identical to
        // a full replay.
        world.assert_state_integrity();
    }

    #[test]
    fn advance_blocks_waits_for_exactly_n() {
        let mut world = World::new();
        let chain = world.add_chain(fast_params("c"), &[]);
        world.advance_blocks(chain, 4).unwrap();
        assert!(world.chain(chain).unwrap().height() >= 4);
    }

    #[test]
    fn rejected_submissions_pay_no_fees() {
        // Regression: fees used to be recorded before `chain.submit` could
        // fail, so transactions the mempool rejected still inflated the
        // ledger.
        let alice = addr(b"alice");
        let mut world = World::new();
        let chain = world.add_chain(fast_params("c"), &[(alice, 100)]);
        let mut kp = ac3_chain::TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let (inputs, outputs) =
            world.chain(chain).unwrap().plan_payment(&alice, &alice, 1, 5).unwrap();
        let good = kp.transfer(inputs, outputs, 5);

        // Invalid signature: tampering with the fee of a cold copy after
        // signing (the builder memoized the original's digest).
        let mut tx = good.clone();
        tx.fee = 7;
        assert!(world.submit(chain, tx).is_err());
        assert_eq!(world.fees.total_fees(), 0, "rejected tx must not be billed");

        // A valid submission is billed exactly once, and resubmitting the
        // same transaction (mempool duplicate) adds nothing.
        world.submit(chain, good.clone()).unwrap();
        assert_eq!(world.fees.total_fees(), 5);
        assert!(world.submit(chain, good).is_err());
        assert_eq!(world.fees.total_fees(), 5, "duplicate tx must not be billed twice");
    }

    #[test]
    fn unknown_chain_is_not_a_network_partition() {
        // Regression: submitting to a nonexistent chain used to surface as
        // `ChainUnreachable` because `is_reachable` returns false for
        // unknown ids.
        let mut world = World::new();
        let ghost = ChainId(99);
        let mut kp = ac3_chain::TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let tx = kp.transfer(vec![], vec![], 0);
        assert_eq!(world.submit(ghost, tx).unwrap_err(), WorldError::UnknownChain(ghost));
        assert_eq!(world.inject_fork(ghost, 1, 1).unwrap_err(), WorldError::UnknownChain(ghost));
        assert!(!world.is_reachable(ghost), "unknown chains are still not reachable");
    }

    #[test]
    fn fee_attribution_routes_fees_to_the_active_swap() {
        let alice = addr(b"alice");
        let mut world = World::new();
        let chain = world.add_chain(fast_params("c"), &[(alice, 100)]);
        let mut kp = ac3_chain::TxBuilder::new(KeyPair::from_seed(b"alice"), 0);

        world.set_fee_attribution(Some(SwapId(7)));
        let (inputs, outputs) =
            world.chain(chain).unwrap().plan_payment(&alice, &alice, 1, 3).unwrap();
        world.submit(chain, kp.transfer(inputs, outputs, 3)).unwrap();
        world.set_fee_attribution(None);
        world.advance(1_000);
        let (inputs, outputs) =
            world.chain(chain).unwrap().plan_payment(&alice, &alice, 1, 2).unwrap();
        world.submit(chain, kp.transfer(inputs, outputs, 2)).unwrap();

        assert_eq!(world.fees.fees_for_swap(SwapId(7)), 3);
        assert_eq!(world.fees.fees_for_swap(SwapId(8)), 0);
        assert_eq!(world.fees.total_fees(), 5, "attribution never double-counts totals");
    }

    #[test]
    fn replace_by_fee_reprices_the_ledger() {
        let alice = addr(b"alice");
        let mut world = World::new();
        let chain = world.add_chain(fast_params("c"), &[(alice, 100)]);
        let mut kp = ac3_chain::TxBuilder::new(KeyPair::from_seed(b"alice"), 0);

        world.set_fee_attribution(Some(SwapId(3)));
        let (inputs, outputs) =
            world.chain(chain).unwrap().plan_payment(&alice, &alice, 1, 2).unwrap();
        let old = world.submit(chain, kp.transfer(inputs.clone(), outputs, 2)).unwrap();
        assert_eq!(world.fees.total_fees(), 2);

        // Re-bid the same payment at a higher fee: only the new fee is
        // owed, attributed to the same swap.
        let rebid = kp.transfer(inputs, vec![ac3_chain::TxOutput::new(alice, 1)], 5);
        let new = world.replace_tx(chain, old, rebid).unwrap();
        assert_ne!(new, old);
        assert_eq!(world.fees.total_fees(), 5, "old fee refunded, new fee billed");
        assert_eq!(world.fees.fees_for_swap(SwapId(3)), 5);
        assert!(!world.chain(chain).unwrap().mempool_contains(&old));
        assert!(world.chain(chain).unwrap().mempool_contains(&new));

        // A non-increasing re-bid is rejected and the ledger untouched.
        let lower = kp.transfer(vec![], vec![], 1);
        assert!(world.replace_tx(chain, new, lower).is_err());
        assert_eq!(world.fees.total_fees(), 5);
    }

    #[test]
    fn eviction_refunds_the_priced_out_transaction() {
        let alice = addr(b"alice");
        let mut world = World::new();
        let mut params = fast_params("c");
        params.mempool_capacity = 1;
        let chain = world.add_chain(params, &[(alice, 100)]);
        let mut kp = ac3_chain::TxBuilder::new(KeyPair::from_seed(b"alice"), 0);

        world.set_fee_attribution(Some(SwapId(1)));
        let (inputs, outputs) =
            world.chain(chain).unwrap().plan_payment(&alice, &alice, 1, 2).unwrap();
        world.submit(chain, kp.transfer(inputs, outputs, 2)).unwrap();
        world.set_fee_attribution(Some(SwapId(2)));
        // A different (unfunded-input) transfer with a higher fee evicts
        // swap 1's transaction from the single-slot pool.
        let rich = kp.transfer(
            vec![ac3_chain::OutPoint::new(TxId(ac3_crypto::Hash256::digest(b"x")), 0)],
            vec![],
            9,
        );
        world.submit(chain, rich).unwrap();
        world.set_fee_attribution(None);

        assert_eq!(world.fees.fees_for_swap(SwapId(1)), 0, "evicted fee refunded");
        assert_eq!(world.fees.fees_for_swap(SwapId(2)), 9);
        assert_eq!(world.fees.total_fees(), 9);
    }

    #[test]
    fn congestion_snapshot_reports_queue_state() {
        let alice = addr(b"alice");
        let mut world = World::new();
        let mut params = fast_params("c");
        params.mempool_capacity = 2;
        params.tps = 1;
        let chain = world.add_chain(params, &[(alice, 100)]);

        let empty = world.congestion(chain).unwrap();
        assert_eq!(empty.depth, 0);
        assert_eq!(empty.capacity, 2);
        assert_eq!(empty.fee_floor, 0);
        assert_eq!(empty.min_fee, None);
        assert_eq!(empty.block_budget, 1, "1 tps × 1 s blocks");

        let mut kp = ac3_chain::TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let (inputs, outputs) =
            world.chain(chain).unwrap().plan_payment(&alice, &alice, 1, 3).unwrap();
        world.submit(chain, kp.transfer(inputs, outputs, 3)).unwrap();
        // A second pending tx on a distinct (synthetic) input — the mempool
        // checks double-claims, not UTXO existence.
        let other_input =
            vec![ac3_chain::OutPoint::new(TxId(ac3_crypto::Hash256::digest(b"other")), 0)];
        world.submit(chain, kp.transfer(other_input, vec![], 7)).unwrap();

        let full = world.congestion(chain).unwrap();
        assert_eq!(full.depth, 2);
        assert_eq!(full.min_fee, Some(3));
        assert_eq!(full.fee_floor, 4, "must out-bid the cheapest pending tx");
        assert_eq!(full.base_fee, 0, "static schedule: no base fee");
        assert_eq!(
            world.chain(chain).unwrap().mempool_fee_at_rank(full.block_budget - 1),
            Some(7),
            "1-slot blocks: the top bid is the marginal price of inclusion"
        );
        assert_eq!(
            world.congestion(ChainId(99)).unwrap_err(),
            WorldError::UnknownChain(ChainId(99))
        );
    }

    #[test]
    fn congestion_is_unobservable_during_an_outage_window() {
        // Pinned semantics: observing a partitioned chain's mempool fails
        // with `ChainUnreachable` exactly like `submit` does, over exactly
        // the half-open window [from, until).
        let mut world = World::new();
        let chain = world.add_chain(fast_params("c"), &[]);
        world.schedule_outage(chain, OutageWindow { from: 2_000, until: 5_000 }).unwrap();

        assert!(world.congestion(chain).is_ok(), "before the window");
        world.advance(2_000);
        assert_eq!(
            world.congestion(chain).unwrap_err(),
            WorldError::ChainUnreachable(chain),
            "window start is inclusive"
        );
        world.advance(2_999);
        assert!(world.congestion(chain).is_err(), "last covered instant");
        world.advance(1);
        assert!(world.congestion(chain).is_ok(), "window end is exclusive");
    }

    #[test]
    fn congestion_surfaces_the_dynamic_base_fee() {
        let alice = addr(b"alice");
        let mut world = World::new();
        let mut params = fast_params("c");
        params.tps = 4;
        params.base_fee_schedule = ac3_chain::BaseFeeSchedule::eip1559_like();
        let chain = world.add_chain(params, &vec![(alice, 100); 16]);
        assert_eq!(world.congestion(chain).unwrap().base_fee, 1, "schedule floor");
        assert_eq!(world.congestion(chain).unwrap().fee_floor, 1, "floor folds in the base fee");

        // Four full blocks of demand push the base fee off the floor. Each
        // transfer spends its own genesis coinbase so the pending demand
        // never conflicts in the mempool.
        let mut kp = ac3_chain::TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let mut spent = 0u64;
        for _ in 0..4 {
            for _ in 0..4 {
                let input =
                    ac3_chain::OutPoint::new(ac3_chain::coinbase(alice, 100, spent).id(), 0);
                spent += 1;
                let fee = world.congestion(chain).unwrap().fee_floor;
                let change = vec![ac3_chain::TxOutput::new(alice, 100 - fee)];
                world.submit(chain, kp.transfer(vec![input], change, fee)).unwrap();
            }
            world.advance(1_000);
        }
        let snapshot = world.congestion(chain).unwrap();
        assert!(snapshot.base_fee > 1, "sustained full blocks raised the base fee");
        assert_eq!(snapshot.fee_floor, snapshot.base_fee);
    }

    #[test]
    fn congestion_cache_tracks_clock_and_mempool_revision() {
        let alice = addr(b"alice");
        let mut world = World::new();
        let chain = world.add_chain(fast_params("c"), &[(alice, 100)]);

        let empty = world.congestion(chain).unwrap();
        assert_eq!(
            empty,
            world.congestion_uncached(chain).unwrap(),
            "cache agrees with the derivation"
        );
        assert_eq!(world.marginal_fee(chain).unwrap(), None);

        // A submission at the same clock must invalidate via the revision.
        let mut kp = ac3_chain::TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let (inputs, outputs) =
            world.chain(chain).unwrap().plan_payment(&alice, &alice, 1, 3).unwrap();
        world.submit(chain, kp.transfer(inputs, outputs, 3)).unwrap();
        let after_submit = world.congestion(chain).unwrap();
        assert_eq!(after_submit.depth, 1, "stale snapshot would still say empty");
        assert_eq!(after_submit, world.congestion_uncached(chain).unwrap());

        // Mining drains the pool; the clock moved, so the cache refreshes.
        world.advance(1_000);
        let after_block = world.congestion(chain).unwrap();
        assert_eq!(after_block.depth, 0);
        assert_eq!(after_block, world.congestion_uncached(chain).unwrap());
    }

    #[test]
    fn congestion_binds_only_without_a_network() {
        // Without links a submission is priced against the snapshot just
        // read; with a network it is priced at delivery, so the snapshot
        // stops binding — including one memoised before the attach.
        let mut world = World::new();
        let chain = world.add_chain(fast_params("c"), &[]);
        assert!(world.congestion(chain).unwrap().binding);
        world.attach_network(NetworkProfile::zero(7));
        assert!(!world.congestion(chain).unwrap().binding);
        assert!(!crate::ChainApi::congestion(&mut world, chain).unwrap().binding);
    }

    #[test]
    fn marginal_fee_cache_reports_the_last_in_budget_rank() {
        let alice = addr(b"alice");
        let mut world = World::new();
        let mut params = fast_params("c");
        params.tps = 2; // block budget 2 at 1 s blocks
        let chain = world.add_chain(params, &[(alice, 100)]);
        let mut kp = ac3_chain::TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        for (tag, fee) in [(1u8, 9u64), (2, 7), (3, 2)] {
            let input =
                vec![ac3_chain::OutPoint::new(TxId(ac3_crypto::Hash256::digest(&[tag])), 0)];
            world.submit(chain, kp.transfer(input, vec![], fee)).unwrap();
        }
        assert_eq!(world.marginal_fee(chain).unwrap(), Some(7));
        // Cached replay at the same (clock, revision).
        assert_eq!(world.marginal_fee(chain).unwrap(), Some(7));
        // A higher bid displaces the marginal rank; the revision refreshes
        // the memo.
        let input = vec![ac3_chain::OutPoint::new(TxId(ac3_crypto::Hash256::digest(&[4u8])), 0)];
        world.submit(chain, kp.transfer(input, vec![], 8)).unwrap();
        assert_eq!(world.marginal_fee(chain).unwrap(), Some(8));
    }

    #[test]
    fn shard_split_and_absorb_round_trips_state() {
        let alice = addr(b"alice");
        let bob = addr(b"bob");
        let mut world = World::new();
        let c0 = world.add_chain(fast_params("c0"), &[(alice, 100)]);
        let mut slow = fast_params("c1");
        slow.block_interval_ms = 10_000;
        slow.stable_depth = 5;
        let c1 = world.add_chain(slow, &[(bob, 100)]);
        let full_delta = world.delta_ms();
        let full_interval = world.min_block_interval_ms();

        world.set_fee_attribution(Some(SwapId(1)));
        let mut kp = ac3_chain::TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let (inputs, outputs) =
            world.chain(c0).unwrap().plan_payment(&alice, &alice, 1, 4).unwrap();
        let billed = world.submit(c0, kp.transfer(inputs, outputs, 4)).unwrap();
        world.set_fee_attribution(None);

        let mut shard = world.split_shard(&[c0], &[SwapId(1)]).unwrap();
        // The fast chain moved, yet both sides keep the full world's timing.
        assert_eq!(shard.delta_ms(), full_delta, "shard pins the full world's Δ");
        assert_eq!(world.delta_ms(), full_delta, "residual master pins Δ too");
        assert_eq!(shard.min_block_interval_ms(), full_interval);
        assert!(world.chain(c0).is_err(), "the chain moved out");
        assert!(shard.chain(c1).is_err(), "only the named chains moved");
        // The billing record moved with the chain: the shard can refund it.
        assert!(shard.fees.is_billed(&billed));
        assert!(!world.fees.is_billed(&billed));
        assert_eq!(shard.fees.fees_for_swap(SwapId(1)), 4);
        assert_eq!(world.fees.total_fees(), 0);

        // Both halves advance in lockstep; the shard mines its chain.
        shard.advance(3_000);
        world.advance(3_000);
        let height = shard.chain(c0).unwrap().height();
        assert_eq!(height, 3);

        world.absorb_shard(shard);
        assert_eq!(world.chain(c0).unwrap().height(), height, "advanced state returned");
        assert_eq!(world.fees.fees_for_swap(SwapId(1)), 4);
        assert_eq!(world.fees.total_fees(), 4);
        assert!(world.fees.is_billed(&billed));
        assert_eq!(world.chain_ids(), vec![c0, c1]);
    }

    #[test]
    #[should_panic(expected = "same clock")]
    fn absorbing_a_shard_at_a_different_clock_panics() {
        let mut world = World::new();
        let c0 = world.add_chain(fast_params("c0"), &[]);
        world.add_chain(fast_params("c1"), &[]);
        let mut shard = world.split_shard(&[c0], &[]).unwrap();
        shard.advance(1_000);
        world.absorb_shard(shard);
    }

    #[test]
    fn fee_ledger_tracks_submissions() {
        let alice = addr(b"alice");
        let mut world = World::new();
        let chain = world.add_chain(fast_params("c"), &[(alice, 100)]);
        let mut kp = ac3_chain::TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let (inputs, outputs) =
            world.chain(chain).unwrap().plan_payment(&alice, &alice, 1, 1).unwrap();
        world.submit(chain, kp.transfer(inputs, outputs, 1)).unwrap();
        assert_eq!(world.fees.total_fees(), 1);
    }
}
