//! The narrowed machine-facing chain API.
//!
//! Protocol state machines used to poke the simulator directly through
//! `&mut World`; [`ChainApi`] is the explicit seam instead: everything a
//! swap machine may do to a chain — submit, replace-by-fee, probe
//! congestion, observe tips and evidence, record timeline events, and (for
//! adversary machines) inject faults — and nothing else. No clock
//! advancement, no shard surgery, no direct ledger or mempool access.
//!
//! [`World`]'s impl is the one implementation that does any work:
//!
//! * with a network profile attached ([`World::attach_network`]),
//!   `submit` and `replace_tx` travel as messages on the chain's link and
//!   may be mid-flight when the machine next polls
//!   ([`ChainApi::tx_in_flight`]); a zero profile applies them inline;
//! * between [`World::begin_audit`] and [`World::end_audit`], every
//!   chain-addressed call panics if its chain lies outside the
//!   [`AuditScope`](crate::audit::AuditScope).
//!
//! The inherent methods of the same names, for scenario setup, tests and
//! attack scripts, are neither routed nor audited. Reads stay synchronous:
//! they model a local light-client view the machine already holds.
//! [`DirectApi`] and its alias [`NetworkedApi`] are the names the
//! benchmark polls through; both forward to [`World`]'s impl.

use crate::faults::OutageWindow;
use crate::metrics::EventKind;
use crate::network::Payload;
use crate::world::{ChainCongestion, World, WorldError};
use ac3_chain::{Amount, BlockHash, Blockchain, ChainId, ContractId, Timestamp, Transaction, TxId};
use ac3_contracts::{ChainAnchor, TxInclusionEvidence};

/// Everything a swap machine may ask of the chains it coordinates.
///
/// Semantics are pinned by [`World`]'s inherent methods of the same names;
/// see each one for details. The contract every implementation upholds:
/// *machines never advance the clock*, and a seeded run is deterministic —
/// two polls at the same instant against the same state return the same
/// answers.
pub trait ChainApi {
    /// Current simulated time in milliseconds.
    fn now(&self) -> Timestamp;

    /// The paper's Δ: the time to publish on any chain and have the
    /// publication publicly recognised.
    fn delta_ms(&self) -> u64;

    /// The smallest block interval across chains — the natural polling
    /// step for waits on on-chain conditions.
    fn min_block_interval_ms(&self) -> u64;

    /// Whether a chain is reachable right now (no partition window covers
    /// the current instant).
    fn is_reachable(&self, chain: ChainId) -> bool;

    /// Borrow a chain for reading (tip, heights, balances, mempool
    /// introspection).
    fn chain(&self, chain: ChainId) -> Result<&Blockchain, WorldError>;

    /// A stable anchor for `chain` (the canonical block at stable depth).
    fn anchor(&self, chain: ChainId) -> Result<ChainAnchor, WorldError>;

    /// Self-contained inclusion evidence for `txid` relative to `anchor`.
    fn tx_evidence_since(
        &self,
        chain: ChainId,
        anchor: &ChainAnchor,
        txid: TxId,
    ) -> Result<TxInclusionEvidence, WorldError>;

    /// The state tag and burial depth of a contract.
    fn contract_state(&self, chain: ChainId, contract: ContractId) -> Option<(String, u64)>;

    /// Whether the world's fee ledger currently bills `txid`.
    fn is_billed(&self, txid: &TxId) -> bool;

    /// Whether a message carrying `txid` is still in flight to `chain`.
    /// Always false for synchronous implementations.
    fn tx_in_flight(&self, _chain: ChainId, _txid: &TxId) -> bool {
        false
    }

    /// Observe one chain's mempool congestion, memoised per (clock,
    /// mempool revision).
    fn congestion(&mut self, chain: ChainId) -> Result<ChainCongestion, WorldError>;

    /// The marginal price of next-block inclusion on `chain`, memoised
    /// alongside [`ChainApi::congestion`].
    fn marginal_fee(&mut self, chain: ChainId) -> Result<Option<Amount>, WorldError>;

    /// Submit a transaction. Synchronous implementations return the
    /// admission result; networked ones return the (client-computable)
    /// transaction id optimistically once the message is in flight.
    fn submit(&mut self, chain: ChainId, tx: Transaction) -> Result<TxId, WorldError>;

    /// Replace-by-fee: out-bid a pending transaction with a strictly
    /// higher-fee replacement.
    fn replace_tx(
        &mut self,
        chain: ChainId,
        old: TxId,
        tx: Transaction,
    ) -> Result<TxId, WorldError>;

    /// Record a protocol-level event on the world's global timeline.
    fn record(&mut self, at: Timestamp, kind: EventKind);

    /// Make a chain unreachable during a window of simulated time
    /// (adversary machines; routed through the link layer when a network
    /// is attached).
    fn schedule_outage(&mut self, chain: ChainId, window: OutageWindow) -> Result<(), WorldError>;

    /// Mine a competing branch forking `fork_depth` below the tip
    /// (adversary machines; the Section 6.3 attacker).
    fn inject_fork(
        &mut self,
        chain: ChainId,
        fork_depth: u64,
        length: u64,
    ) -> Result<Vec<BlockHash>, WorldError>;
}

impl World {
    /// Route a machine's submit or replace: at once with no network, else
    /// as a message on `chain`'s link, its delay and drop sampled now. A
    /// zero-delay message is applied inline; a delayed one is delivered in
    /// [`World::advance`] (a rejection there is a nack), a dropped one only
    /// counted, and both return the id optimistically.
    fn send(&mut self, chain: ChainId, payload: Payload) -> Result<TxId, WorldError> {
        let Some(profile) = self.network_profile().copied() else {
            return self.apply_now(chain, payload);
        };
        if self.chain(chain).is_err() {
            return Err(WorldError::UnknownChain(chain));
        }
        if !self.is_reachable(chain) {
            return Err(WorldError::ChainUnreachable(chain));
        }
        let now = self.now();
        let attribution = self.fee_attribution();
        let link = self.link_mut(chain).expect("an attached network links every chain");
        let (delay, dropped) = link.sample(&profile);
        let (Payload::Submit { tx } | Payload::Replace { tx, .. }) = &payload;
        let txid = tx.id();
        match &payload {
            Payload::Submit { .. } => link.stats.submits += 1,
            Payload::Replace { .. } => link.stats.replaces += 1,
        }
        if dropped {
            link.stats.dropped += 1;
            return Ok(txid);
        }
        if delay > 0 {
            link.enqueue(now + delay, attribution, payload);
            return Ok(txid);
        }
        // Inline, so a zero profile is bitwise identical to no network.
        let result = self.apply_now(chain, payload);
        let link = self.link_mut(chain).expect("an attached network links every chain");
        match &result {
            Ok(_) => link.stats.delivered += 1,
            Err(_) => link.stats.nacked += 1,
        }
        result
    }
}

impl ChainApi for World {
    fn now(&self) -> Timestamp {
        World::now(self)
    }

    fn delta_ms(&self) -> u64 {
        World::delta_ms(self)
    }

    fn min_block_interval_ms(&self) -> u64 {
        World::min_block_interval_ms(self)
    }

    fn is_reachable(&self, chain: ChainId) -> bool {
        self.check_audit(chain);
        World::is_reachable(self, chain)
    }

    fn chain(&self, chain: ChainId) -> Result<&Blockchain, WorldError> {
        self.check_audit(chain);
        World::chain(self, chain)
    }

    fn anchor(&self, chain: ChainId) -> Result<ChainAnchor, WorldError> {
        self.check_audit(chain);
        World::anchor(self, chain)
    }

    fn tx_evidence_since(
        &self,
        chain: ChainId,
        anchor: &ChainAnchor,
        txid: TxId,
    ) -> Result<TxInclusionEvidence, WorldError> {
        self.check_audit(chain);
        World::tx_evidence_since(self, chain, anchor, txid)
    }

    fn contract_state(&self, chain: ChainId, contract: ContractId) -> Option<(String, u64)> {
        self.check_audit(chain);
        World::contract_state(self, chain, contract)
    }

    fn is_billed(&self, txid: &TxId) -> bool {
        self.fees.is_billed(txid)
    }

    fn tx_in_flight(&self, chain: ChainId, txid: &TxId) -> bool {
        self.check_audit(chain);
        World::tx_in_flight(self, chain, txid)
    }

    fn congestion(&mut self, chain: ChainId) -> Result<ChainCongestion, WorldError> {
        self.check_audit(chain);
        if let Some(link) = self.link_mut(chain) {
            link.stats.probes += 1;
        }
        World::congestion(self, chain)
    }

    fn marginal_fee(&mut self, chain: ChainId) -> Result<Option<Amount>, WorldError> {
        self.check_audit(chain);
        World::marginal_fee(self, chain)
    }

    fn submit(&mut self, chain: ChainId, tx: Transaction) -> Result<TxId, WorldError> {
        self.check_audit(chain);
        self.send(chain, Payload::Submit { tx })
    }

    fn replace_tx(
        &mut self,
        chain: ChainId,
        old: TxId,
        tx: Transaction,
    ) -> Result<TxId, WorldError> {
        self.check_audit(chain);
        self.send(chain, Payload::Replace { old, tx })
    }

    fn record(&mut self, at: Timestamp, kind: EventKind) {
        self.timeline.record(at, kind);
    }

    fn schedule_outage(&mut self, chain: ChainId, window: OutageWindow) -> Result<(), WorldError> {
        self.check_audit(chain);
        World::schedule_outage(self, chain, window)
    }

    fn inject_fork(
        &mut self,
        chain: ChainId,
        fork_depth: u64,
        length: u64,
    ) -> Result<Vec<BlockHash>, WorldError> {
        self.check_audit(chain);
        World::inject_fork(self, chain, fork_depth, length)
    }
}

/// The benchmark's (`crates/bench/perf`) name for [`World`]'s [`ChainApi`]
/// impl: every call forwards to it unchanged, links and audit included.
pub struct DirectApi<'a> {
    world: &'a mut World,
}

/// The benchmark's name for a poll over a networked world: the same
/// forwarder, since [`World`]'s impl routes whenever a profile is attached.
pub type NetworkedApi<'a> = DirectApi<'a>;

impl<'a> DirectApi<'a> {
    /// Wrap a world.
    pub fn new(world: &'a mut World) -> Self {
        DirectApi { world }
    }
}

impl ChainApi for DirectApi<'_> {
    fn now(&self) -> Timestamp {
        ChainApi::now(self.world)
    }

    fn delta_ms(&self) -> u64 {
        ChainApi::delta_ms(self.world)
    }

    fn min_block_interval_ms(&self) -> u64 {
        ChainApi::min_block_interval_ms(self.world)
    }

    fn is_reachable(&self, chain: ChainId) -> bool {
        ChainApi::is_reachable(self.world, chain)
    }

    fn chain(&self, chain: ChainId) -> Result<&Blockchain, WorldError> {
        ChainApi::chain(self.world, chain)
    }

    fn anchor(&self, chain: ChainId) -> Result<ChainAnchor, WorldError> {
        ChainApi::anchor(self.world, chain)
    }

    fn tx_evidence_since(
        &self,
        chain: ChainId,
        anchor: &ChainAnchor,
        txid: TxId,
    ) -> Result<TxInclusionEvidence, WorldError> {
        ChainApi::tx_evidence_since(self.world, chain, anchor, txid)
    }

    fn contract_state(&self, chain: ChainId, contract: ContractId) -> Option<(String, u64)> {
        ChainApi::contract_state(self.world, chain, contract)
    }

    fn is_billed(&self, txid: &TxId) -> bool {
        ChainApi::is_billed(self.world, txid)
    }

    fn tx_in_flight(&self, chain: ChainId, txid: &TxId) -> bool {
        ChainApi::tx_in_flight(self.world, chain, txid)
    }

    fn congestion(&mut self, chain: ChainId) -> Result<ChainCongestion, WorldError> {
        ChainApi::congestion(self.world, chain)
    }

    fn marginal_fee(&mut self, chain: ChainId) -> Result<Option<Amount>, WorldError> {
        ChainApi::marginal_fee(self.world, chain)
    }

    fn submit(&mut self, chain: ChainId, tx: Transaction) -> Result<TxId, WorldError> {
        ChainApi::submit(self.world, chain, tx)
    }

    fn replace_tx(
        &mut self,
        chain: ChainId,
        old: TxId,
        tx: Transaction,
    ) -> Result<TxId, WorldError> {
        ChainApi::replace_tx(self.world, chain, old, tx)
    }

    fn record(&mut self, at: Timestamp, kind: EventKind) {
        ChainApi::record(self.world, at, kind)
    }

    fn schedule_outage(&mut self, chain: ChainId, window: OutageWindow) -> Result<(), WorldError> {
        ChainApi::schedule_outage(self.world, chain, window)
    }

    fn inject_fork(
        &mut self,
        chain: ChainId,
        fork_depth: u64,
        length: u64,
    ) -> Result<Vec<BlockHash>, WorldError> {
        ChainApi::inject_fork(self.world, chain, fork_depth, length)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkProfile;
    use ac3_chain::{ChainParams, OutPoint, TxBuilder};
    use ac3_crypto::{Hash256, KeyPair};

    /// A transfer spending a synthetic input: the mempool checks
    /// double-claims, not UTXO existence, so each tag admits on its own.
    fn transfer(builder: &mut TxBuilder, tag: &[u8]) -> Transaction {
        builder.transfer(vec![OutPoint::new(TxId(Hash256::digest(tag)), 0)], vec![], 1)
    }

    #[test]
    fn trait_submit_routes_through_the_link_and_inherent_submit_does_not() {
        let mut world = World::new();
        let chain = world.add_chain(ChainParams::test("c"), &[]);
        world.attach_network(NetworkProfile {
            seed: 1,
            latency_min_ms: 500,
            latency_max_ms: 500,
            drop_per_mille: 0,
        });
        let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);

        let routed = transfer(&mut builder, b"routed");
        let txid = routed.id();
        let api: &mut dyn ChainApi = &mut world;
        assert_eq!(api.submit(chain, routed), Ok(txid), "optimistic reply");
        assert_eq!(world.network_stats().submits, 1);
        assert!(!world.chain(chain).unwrap().mempool_contains(&txid));
        world.advance(499);
        assert!(ChainApi::tx_in_flight(&world, chain, &txid), "due at 500 ms");
        world.advance(1);
        assert!(!ChainApi::tx_in_flight(&world, chain, &txid));
        assert!(world.chain(chain).unwrap().mempool_contains(&txid), "delivered");

        let direct = world.submit(chain, transfer(&mut builder, b"direct")).unwrap();
        assert!(world.chain(chain).unwrap().mempool_contains(&direct), "admitted at once");
        assert_eq!(world.network_stats().submits, 1, "the inherent submit counts nothing");

        // The benchmark's names forward to the routed impl.
        let named = NetworkedApi::new(&mut world).submit(chain, transfer(&mut builder, b"named"));
        assert!(ChainApi::tx_in_flight(&world, chain, &named.unwrap()));
        assert_eq!(world.network_stats().submits, 2);
    }
}
