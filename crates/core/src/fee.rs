//! Fee-market bidding: pluggable fee policies and the replace-by-fee bid
//! lifecycle shared by every protocol machine.
//!
//! The paper's Section 6.2 cost model prices a swap at fixed fees (`fd` per
//! deployment, `ffc` per call). Under real block-space contention that is
//! only the *opening bid*: when many AC2Ts share a mempool, a rational
//! participant whose submission is stuck behind a queue of higher bids must
//! out-bid it or wait. A [`FeePolicy`] decides how aggressively to re-bid;
//! a [`Bid`] remembers enough about one submitted transaction to rebuild it
//! at a higher fee; the per-machine [`BidBook`] polls every live bid once
//! per machine poll, escalating stuck submissions through
//! [`ac3_sim::World::replace_tx`] (replace-by-fee) and re-submitting bids
//! that were priced out of a bounded mempool entirely. Every escalation
//! decision consults the chain's [`ChainCongestion`] snapshot: schedule
//! policies use it to skip re-bids the dynamic base fee would refuse, and
//! [`FeePolicy::Adaptive`] uses it as the schedule itself — opening at the
//! observed floor plus a margin and escalating to the observed marginal
//! price of next-block inclusion instead of a blind doubling ladder. An
//! opening bid or eviction re-entry below the floor of a binding snapshot
//! ([`ChainCongestion::binding`]) is certain to be refused, so it is never
//! built or signed; it only consumes the builder nonce it would have used,
//! which keeps every later transaction id where it was.
//!
//! Machines apply the returned [`BidChange`]s to whatever copies of the
//! transaction (and, for deployments, contract) ids they hold — a replaced
//! deployment derives a *new* contract id from the replacement transaction.

use crate::protocol::ProtocolError;
use ac3_chain::{
    Address, Amount, ChainError, ChainId, ContractId, MempoolError, OutPoint, Timestamp, TxId,
    TxOutput,
};
use ac3_contracts::{ContractCall, ContractSpec};
use ac3_sim::{ChainApi, ChainCongestion, ParticipantSet, WorldError};
use serde::{Deserialize, Serialize};

/// How a participant bids for block space when its submissions queue.
///
/// Attempt 0 is the initial submission; every policy opens at the chain's
/// scheduled fee (`fd`/`ffc`), so under an uncontended mempool all policies
/// cost exactly the paper's Section 6.2 prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FeePolicy {
    /// Never re-bid: pay the scheduled fee and wait out the queue (the
    /// paper's fixed-fee cost model). Congestion shows up as latency.
    #[default]
    Fixed,
    /// Double the fee on every re-bid up to `cap` — exponential
    /// backoff-style bidding that wins a slot in O(log contention) re-bids.
    Exponential {
        /// Hard per-transaction fee ceiling (never exceeded).
        cap: Amount,
    },
    /// Congestion-adaptive bidding: read the chain's
    /// [`ChainCongestion`] snapshot instead of climbing a blind
    /// escalation ladder. The opening bid is the observed admission floor
    /// (which includes the dynamic base fee) plus `margin`; a stuck bid
    /// escalates to one above the observed marginal price of next-block
    /// inclusion (the fee at the last in-budget mempool rank, probed via
    /// `Blockchain::mempool_fee_at_rank`), not to double its own fee — it
    /// pays what the market asks, nothing more.
    Adaptive {
        /// Paid on top of the observed floor when opening under congestion
        /// (an uncongested chain is bid at exactly the scheduled fee).
        margin: Amount,
        /// Hard per-transaction fee ceiling (never exceeded).
        cap: Amount,
    },
}

impl FeePolicy {
    /// The fee bid on `attempt` (0 = initial submission) for a transaction
    /// whose scheduled fee is `base`.
    ///
    /// Escalation from a zero scheduled fee starts at 1: a free-schedule
    /// chain still has a working fee market (a re-bid of 0 could never
    /// out-bid a positive floor). [`FeePolicy::Adaptive`] has no attempt
    /// schedule — all of its movement comes from escalation-time
    /// congestion reads — so it reports the scheduled fee for every
    /// attempt.
    pub fn fee_for_attempt(&self, base: Amount, attempt: u32) -> Amount {
        match self {
            FeePolicy::Fixed | FeePolicy::Adaptive { .. } => base,
            FeePolicy::Exponential { .. } => {
                let fee = if base == 0 {
                    if attempt == 0 {
                        0
                    } else {
                        // 1, 2, 4, ... — the doubling ladder grounded at 1.
                        1u64.checked_shl(attempt - 1).unwrap_or(Amount::MAX)
                    }
                } else {
                    let factor = 1u64.checked_shl(attempt).unwrap_or(Amount::MAX);
                    base.saturating_mul(factor)
                };
                fee.min(self.cap(base))
            }
        }
    }

    /// The most this policy will ever pay for one transaction with
    /// scheduled fee `base` (at least `base`: the opening bid is always
    /// affordable).
    pub fn cap(&self, base: Amount) -> Amount {
        match self {
            FeePolicy::Fixed => base,
            FeePolicy::Exponential { cap } | FeePolicy::Adaptive { cap, .. } => (*cap).max(base),
        }
    }

    /// Whether this policy ever raises its bid.
    pub fn escalates(&self) -> bool {
        !matches!(self, FeePolicy::Fixed)
    }
}

/// What a bid needs to rebuild its transaction at a higher fee.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum BidKind {
    /// A contract deployment: same inputs, same locked value; the change
    /// output shrinks as the fee grows.
    Deploy { inputs: Vec<OutPoint>, locked_value: Amount, input_total: Amount, payload: Vec<u8> },
    /// A contract call: same target contract, same payload.
    Call { contract: ContractId, payload: Vec<u8> },
}

/// One fee-bid lifecycle: a submitted transaction a machine is waiting on,
/// with enough kept around to re-bid it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bid {
    chain: ChainId,
    actor: Address,
    txid: TxId,
    fee: Amount,
    base_fee: Amount,
    attempt: u32,
    last_bid_at: Timestamp,
    settled: bool,
    /// Whether the current transaction occupies (or occupied) a mempool
    /// slot the owner is on the hook for. Cleared when an eviction is
    /// observed and no re-entry succeeded (the ledger refunded the fee —
    /// the machine's tally must drop it too); set again on re-entry.
    billed: bool,
    kind: BidKind,
}

impl Bid {
    /// The current fee this bid offers.
    pub fn fee(&self) -> Amount {
        self.fee
    }

    /// The scheduled (attempt-0) fee.
    pub fn base_fee(&self) -> Amount {
        self.base_fee
    }

    /// Build the replacement transaction at `fee`. `None` when a deploy's
    /// reserved inputs can no longer cover the raised fee, or when the pool
    /// is known to refuse the bid (`refused`): then nothing is built or
    /// signed, but the builder nonce the transaction would have taken is
    /// consumed, so every later id stays where it was.
    fn build(
        &self,
        participants: &mut ParticipantSet,
        fee: Amount,
        refused: bool,
    ) -> Result<Option<ac3_chain::Transaction>, ProtocolError> {
        let Some(participant) = participants.by_address_mut(&self.actor) else {
            return Err(ProtocolError::UnknownParticipant(format!("{}", self.actor)));
        };
        let builder = participant.builder(self.chain);
        let tx = match &self.kind {
            BidKind::Deploy { inputs, locked_value, input_total, payload } => {
                let Some(spendable) = input_total.checked_sub(locked_value + fee) else {
                    return Ok(None);
                };
                if refused {
                    builder.skip();
                    return Ok(None);
                }
                let change = if spendable > 0 {
                    vec![TxOutput::new(self.actor, spendable)]
                } else {
                    Vec::new()
                };
                builder.deploy(inputs.clone(), *locked_value, change, payload.clone(), fee)
            }
            BidKind::Call { .. } if refused => {
                builder.skip();
                return Ok(None);
            }
            BidKind::Call { contract, payload } => builder.call(*contract, payload.clone(), fee),
        };
        Ok(Some(tx))
    }
}

/// One applied bid event, reported so the owning machine can rewrite every
/// copy of the superseded transaction (and contract) id it holds and keep
/// its fee tally in sync with the world ledger. Three shapes:
///
/// * replace-by-fee escalation — new id, positive `fee_delta`, `rebid`;
/// * eviction re-entry — new id, `fee_delta` covers refund + new bid,
///   `rebid`;
/// * eviction hold (could not re-enter yet) — ids equal, negative
///   `fee_delta` (the ledger refunded the evicted fee), not a `rebid`.
#[derive(Debug, Clone, Copy)]
pub struct BidChange {
    /// The chain the bid lives on.
    pub chain: ChainId,
    /// The transaction id the event superseded.
    pub old_txid: TxId,
    /// The transaction id now in flight (equal to `old_txid` for an
    /// eviction hold).
    pub new_txid: TxId,
    /// Signed correction to the owner's fee tally (mirrors exactly what
    /// the world ledger did).
    pub fee_delta: i64,
    /// Whether a new transaction was actually bid (escalation or
    /// re-entry).
    pub rebid: bool,
    /// Whether the bid is a contract deployment — if so, the deployed
    /// contract id changed with the transaction id.
    pub deploy: bool,
}

impl BidChange {
    /// The contract id the superseded deployment would have created.
    pub fn old_contract(&self) -> ContractId {
        ContractId(self.old_txid.0)
    }

    /// The contract id the replacement deployment creates.
    pub fn new_contract(&self) -> ContractId {
        ContractId(self.new_txid.0)
    }

    /// Fold this event into a machine's fee tally and re-bid counter —
    /// the accounting half of applying a change (the machine handles the
    /// id rewriting, which depends on its own state layout).
    pub fn apply_accounting(&self, fees: &mut Amount, rebids: &mut u64) {
        *fees = fees.saturating_add_signed(self.fee_delta);
        if self.rebid {
            *rebids += 1;
        }
    }

    /// Rewrite one stored transaction id if this event superseded it.
    pub fn rewrite_txid(&self, txid: &mut TxId) {
        if *txid == self.old_txid {
            *txid = self.new_txid;
        }
    }
}

/// Whether a world submission failed for fee-market reasons (pool full,
/// out-bid) or transient reachability — soft failures a bidder retries
/// later rather than errors that fail the protocol.
pub(crate) fn is_soft_submit_error(e: &WorldError) -> bool {
    matches!(
        e,
        WorldError::ChainUnreachable(_)
            | WorldError::Chain(ChainError::Mempool(
                MempoolError::FeeTooLow { .. } | MempoolError::Full
            ))
    )
}

/// The set of live bids owned by one protocol machine.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BidBook {
    policy: FeePolicy,
    bids: Vec<Bid>,
}

impl BidBook {
    /// An empty book bidding under `policy`.
    pub fn new(policy: FeePolicy) -> Self {
        BidBook { policy, bids: Vec::new() }
    }

    /// Total fees currently bid across every transaction the book is on
    /// the hook for (superseded bids excluded — replace-by-fee means only
    /// the final bid pays; evicted-and-not-yet-re-entered bids excluded —
    /// the ledger refunded them).
    pub fn total_fees(&self) -> Amount {
        self.bids.iter().filter(|b| b.billed).map(|b| b.fee).sum()
    }

    /// Submit a contract deployment as `owner`, opening a bid at the
    /// chain's scheduled deployment fee (raised to the mempool's admission
    /// floor when the pool is full, never beyond the policy cap).
    ///
    /// Returns `Ok(None)` when the owner is crashed, the chain is
    /// unreachable, or the pool's floor is above what the policy will pay —
    /// the caller decides what a missing publication means for the
    /// protocol. A bid below the floor of a binding congestion snapshot
    /// ([`ChainCongestion::binding`]) is neither encoded nor signed.
    pub fn submit_deploy(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
        owner: &Address,
        chain: ChainId,
        spec: &ContractSpec,
        lock: Amount,
    ) -> Result<Option<(TxId, ContractId, Amount)>, ProtocolError> {
        let now = world.now();
        let Some(participant) = participants.by_address_mut(owner) else {
            return Err(ProtocolError::UnknownParticipant(format!("{owner}")));
        };
        if !participant.is_available(now) || !world.is_reachable(chain) {
            return Ok(None);
        }
        let base = world.chain(chain)?.params().deploy_fee;
        let (fee, refused) = self.opening_fee(world, chain, base)?;
        let Some((inputs, change)) = world.chain(chain)?.plan_deploy(owner, lock, fee) else {
            return Err(ProtocolError::InsufficientFunds { who: participant.name.clone(), chain });
        };
        if refused {
            participant.builder(chain).skip();
            return Ok(None);
        }
        let input_total = lock + fee + change.iter().map(|o| o.value).sum::<Amount>();
        let payload = spec.to_payload();
        let tx =
            participant.builder(chain).deploy(inputs.clone(), lock, change, payload.clone(), fee);
        // The txid comes back from the submission: a bid the pool refuses
        // on price is never hashed.
        let txid = match world.submit(chain, tx) {
            Ok(txid) => txid,
            Err(e) if is_soft_submit_error(&e) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        self.bids.push(Bid {
            chain,
            actor: *owner,
            txid,
            fee,
            base_fee: base,
            attempt: 0,
            last_bid_at: now,
            settled: false,
            billed: true,
            kind: BidKind::Deploy { inputs, locked_value: lock, input_total, payload },
        });
        Ok(Some((txid, ContractId(txid.0), fee)))
    }

    /// Submit a contract call as `caller`, opening a bid at the chain's
    /// scheduled call fee (raised to the admission floor when the pool is
    /// full, never beyond the policy cap). Returns `Ok(None)` under the
    /// same conditions as [`BidBook::submit_deploy`].
    pub fn submit_call(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
        caller: &Address,
        chain: ChainId,
        contract: ContractId,
        call: &ContractCall,
    ) -> Result<Option<(TxId, Amount)>, ProtocolError> {
        self.submit_encoded_call(world, participants, caller, chain, contract, &call.to_payload())
    }

    /// [`BidBook::submit_call`] for a call already encoded with
    /// [`ContractCall::to_payload`] — for a caller that offers the same call
    /// to several participants and should encode it once.
    pub fn submit_encoded_call(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
        caller: &Address,
        chain: ChainId,
        contract: ContractId,
        payload: &[u8],
    ) -> Result<Option<(TxId, Amount)>, ProtocolError> {
        let now = world.now();
        let Some(participant) = participants.by_address_mut(caller) else {
            return Err(ProtocolError::UnknownParticipant(format!("{caller}")));
        };
        if !participant.is_available(now) || !world.is_reachable(chain) {
            return Ok(None);
        }
        let base = world.chain(chain)?.params().call_fee;
        let (fee, refused) = self.opening_fee(world, chain, base)?;
        if refused {
            participant.builder(chain).skip();
            return Ok(None);
        }
        let tx = participant.builder(chain).call(contract, payload.to_vec(), fee);
        // The txid comes back from the submission: a bid the pool refuses
        // on price is never hashed.
        let txid = match world.submit(chain, tx) {
            Ok(txid) => txid,
            Err(e) if is_soft_submit_error(&e) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        self.bids.push(Bid {
            chain,
            actor: *caller,
            txid,
            fee,
            base_fee: base,
            attempt: 0,
            last_bid_at: now,
            settled: false,
            billed: true,
            kind: BidKind::Call { contract, payload: payload.to_vec() },
        });
        Ok(Some((txid, fee)))
    }

    /// The policy's next bid *strictly above* the bid's current fee
    /// (replace-by-fee requires it), with the attempt counter it lands on.
    /// Consults the escalation-time `congestion` snapshot:
    ///
    /// * [`FeePolicy::Adaptive`] bids one above `marginal` — the observed
    ///   price of next-block inclusion, probed from the mempool by the
    ///   caller (stuck bids only: the probe is O(block budget)) — raised
    ///   to the admission floor; the observed market *is* its schedule;
    /// * schedule policies walk their ladder forward past the current fee
    ///   (which can sit above the schedule after a floor-raised opening
    ///   bid or an eviction re-entry) *and* past the chain's dynamic base
    ///   fee — a re-bid below the base fee would be refused admission, so
    ///   stopping there would stall the escalation.
    ///
    /// `None` when the policy has no headroom left.
    fn next_escalation(
        &self,
        bid: &Bid,
        congestion: &ChainCongestion,
        marginal: Option<Amount>,
    ) -> Option<(u32, Amount)> {
        let cap = self.policy.cap(bid.base_fee);
        if !self.policy.escalates() || bid.fee >= cap {
            return None;
        }
        if matches!(self.policy, FeePolicy::Adaptive { .. }) {
            let observed = marginal
                .map(|f| f.saturating_add(1))
                .unwrap_or(0)
                .max(congestion.fee_floor)
                .max(bid.fee.saturating_add(1))
                .min(cap);
            if observed < congestion.base_fee {
                // The cap clamped the re-bid under the chain's admission
                // price: the replacement would be refused, so go quiet
                // (the next poll re-reads the snapshot — escalation
                // resumes if the base fee decays back under the cap).
                return None;
            }
            return (observed > bid.fee).then_some((bid.attempt + 1, observed));
        }
        // The doubling ladder grows strictly until it reaches the cap, so
        // the walk ends within 64 steps.
        let mut attempt = bid.attempt + 1;
        loop {
            let next = self.policy.fee_for_attempt(bid.base_fee, attempt);
            if next > bid.fee && next >= congestion.base_fee {
                return Some((attempt, next));
            }
            if next >= cap {
                return None;
            }
            attempt += 1;
        }
    }

    /// The opening bid: the scheduled fee, raised to the chain's admission
    /// floor (dynamic base fee, or a full pool's eviction floor) when the
    /// policy allows it. [`FeePolicy::Adaptive`] additionally pays its
    /// configured margin on top of a non-zero floor, buying next-block
    /// headroom up front instead of discovering the price by re-bidding.
    ///
    /// Also returns whether the pool is certain to refuse that bid: it is
    /// below the floor of a binding snapshot
    /// ([`ChainCongestion::binding`]), which a submission made now is
    /// priced against. The caller then builds nothing, but consumes the
    /// builder nonce the refused transaction would have taken.
    fn opening_fee(
        &self,
        world: &mut dyn ChainApi,
        chain: ChainId,
        base: Amount,
    ) -> Result<(Amount, bool), ProtocolError> {
        let congestion = world.congestion(chain)?;
        let floor = congestion.fee_floor;
        let fee = match self.policy {
            FeePolicy::Adaptive { margin, .. } if floor > 0 => {
                base.max(floor.saturating_add(margin)).min(self.policy.cap(base))
            }
            _ if floor > base && floor <= self.policy.cap(base) => floor,
            _ => base,
        };
        Ok((fee, congestion.binding && fee < floor))
    }

    /// Poll every live bid once: settle bids whose transaction reached the
    /// canonical chain, escalate (replace-by-fee) bids stuck behind more
    /// than a block's worth of higher bids, and re-submit bids whose
    /// transaction was evicted from a full pool. Returns the applied
    /// changes so the owning machine can rewrite its stored ids.
    pub fn poll(
        &mut self,
        world: &mut dyn ChainApi,
        participants: &mut ParticipantSet,
    ) -> Result<Vec<BidChange>, ProtocolError> {
        let mut changes = Vec::new();
        let now = world.now();
        for i in 0..self.bids.len() {
            let (chain, txid, actor) = (self.bids[i].chain, self.bids[i].txid, self.bids[i].actor);
            if self.bids[i].settled {
                continue;
            }
            let Ok(c) = world.chain(chain) else { continue };
            if c.tx_depth(&txid).is_some() {
                self.bids[i].settled = true;
                continue;
            }
            let available = participants.by_address(&actor).is_some_and(|p| p.is_available(now));
            if !available || !world.is_reachable(chain) {
                continue;
            }
            let c = world.chain(chain)?;
            let interval = c.params().block_interval_ms;
            if now < self.bids[i].last_bid_at + interval {
                // Give every bid at least one block-production opportunity.
                continue;
            }
            let budget = c.params().max_txs_per_block();
            let in_pool = c.mempool_contains(&txid);
            if in_pool {
                // Stuck if it would miss the next block (O(budget) probe,
                // not an O(depth) rank scan) — or if the chain's base fee
                // has risen past its bid (O(1) probe), which miners skip
                // outright.
                let below_base = self.bids[i].fee < c.base_fee();
                let deep = !c.mempool_position_within(&txid, budget).unwrap_or(true);
                if !below_base && !deep {
                    continue;
                }
                // The escalation-time congestion read. Reachability was
                // checked above, and only genuinely stuck Adaptive bids
                // pay the O(budget) marginal-price probe — settled and
                // on-schedule bids stay on the cheap path. Both reads are
                // memoised per (chain, tick): with thousands of machines
                // stuck behind the same congested mempool, only the first
                // poller of a tick derives the snapshot and walks the
                // priority order for the marginal price.
                let congestion = world.congestion(chain)?;
                let marginal = if matches!(self.policy, FeePolicy::Adaptive { .. }) {
                    world.marginal_fee(chain)?
                } else {
                    None
                };
                let bid = &self.bids[i];
                let Some((attempt, next)) = self.next_escalation(bid, &congestion, marginal) else {
                    continue; // fixed policy, or the cap is reached
                };
                let Some(tx) = bid.build(participants, next, false)? else { continue };
                let new_txid = match world.replace_tx(chain, txid, tx) {
                    Ok(id) => id,
                    Err(WorldError::Chain(ChainError::Mempool(_)))
                    | Err(WorldError::ChainUnreachable(_)) => continue,
                    Err(e) => return Err(e.into()),
                };
                let bid = &mut self.bids[i];
                let delta = (next - bid.fee) as i64;
                bid.txid = new_txid;
                bid.fee = next;
                bid.attempt = attempt;
                bid.last_bid_at = now;
                changes.push(BidChange {
                    chain,
                    old_txid: txid,
                    new_txid,
                    fee_delta: delta,
                    rebid: true,
                    deploy: matches!(bid.kind, BidKind::Deploy { .. }),
                });
            } else {
                if world.tx_in_flight(chain, &txid) {
                    // The submission (or its latest re-bid) is still riding
                    // the network link — absent from both the mempool and
                    // the canonical chain only because it has not arrived
                    // yet. Re-submitting now would double-spend the bid's
                    // inputs against its own in-flight copy.
                    continue;
                }
                if self.bids[i].billed && world.is_billed(&txid) {
                    // Neither pending nor canonical, yet the ledger still
                    // charges for it: the transaction was mined onto a
                    // branch that has since been reorged out (the sim does
                    // not resubmit reorged-out transactions — DESIGN.md
                    // §2). That is NOT an eviction: no refund was issued,
                    // so emitting one (or re-bidding a duplicate) would
                    // desynchronise the machine's tally from the ledger.
                    // Mirror the sim's abandonment semantics and retire
                    // the bid.
                    self.bids[i].settled = true;
                    continue;
                }
                // Priced out of a bounded pool: the ledger refunded the
                // evicted fee. Re-enter at an escalated bid that beats the
                // current admission floor (which includes the dynamic base
                // fee), if the policy affords it; otherwise surrender the
                // refund to the owner's tally and hold the bid for a later
                // retry.
                let congestion = world.congestion(chain)?;
                let bid = &self.bids[i];
                let floor = congestion.fee_floor;
                let was_billed = bid.billed;
                let old_fee = bid.fee;
                // Bid the escalation schedule's next step, raised to the
                // admission floor, clamped to the cap — but never below
                // the fee already offered (that final bound is the
                // load-bearing one after the cap clamp).
                let next = self
                    .policy
                    .fee_for_attempt(bid.base_fee, bid.attempt + 1)
                    .max(floor)
                    .min(self.policy.cap(bid.base_fee))
                    .max(bid.fee);
                let held = |bids: &mut Vec<Bid>, changes: &mut Vec<BidChange>| {
                    bids[i].last_bid_at = now;
                    if was_billed {
                        bids[i].billed = false;
                        changes.push(BidChange {
                            chain,
                            old_txid: txid,
                            new_txid: txid,
                            fee_delta: -(old_fee as i64),
                            rebid: false,
                            deploy: matches!(bids[i].kind, BidKind::Deploy { .. }),
                        });
                    }
                };
                // Below a binding floor the pool is certain to refuse the
                // re-entry: build nothing and hold, as a refusal would.
                let refused = congestion.binding && next < floor;
                let Some(tx) = bid.build(participants, next, refused)? else {
                    held(&mut self.bids, &mut changes);
                    continue;
                };
                let new_txid = match world.submit(chain, tx) {
                    Ok(id) => id,
                    Err(WorldError::Chain(ChainError::Mempool(_)))
                    | Err(WorldError::ChainUnreachable(_)) => {
                        // Cannot re-enter yet — the slot is unaffordable,
                        // or the evicted transaction's released inputs were
                        // claimed by someone else in the meantime
                        // (ConflictingInput). Hold the bid and retry rather
                        // than failing the swap, mirroring the escalation
                        // branch.
                        held(&mut self.bids, &mut changes);
                        continue;
                    }
                    Err(e) => return Err(e.into()),
                };
                let bid = &mut self.bids[i];
                // The evicted fee was refunded (now or at an earlier hold);
                // the owner owes exactly the new bid on top of whatever is
                // still billed.
                let delta = if was_billed { next as i64 - old_fee as i64 } else { next as i64 };
                bid.txid = new_txid;
                bid.fee = next;
                bid.attempt += 1;
                bid.last_bid_at = now;
                bid.billed = true;
                changes.push(BidChange {
                    chain,
                    old_txid: txid,
                    new_txid,
                    fee_delta: delta,
                    rebid: true,
                    deploy: matches!(bid.kind, BidKind::Deploy { .. }),
                });
            }
        }
        Ok(changes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac3_sim::World;

    #[test]
    fn fixed_policy_never_escalates() {
        let p = FeePolicy::Fixed;
        for attempt in 0..10 {
            assert_eq!(p.fee_for_attempt(4, attempt), 4);
        }
        assert_eq!(p.cap(4), 4);
        assert!(!p.escalates());
    }

    #[test]
    fn exponential_policy_doubles_to_its_cap() {
        let p = FeePolicy::Exponential { cap: 30 };
        assert_eq!(p.fee_for_attempt(4, 0), 4);
        assert_eq!(p.fee_for_attempt(4, 1), 8);
        assert_eq!(p.fee_for_attempt(4, 2), 16);
        assert_eq!(p.fee_for_attempt(4, 3), 30, "clamped at the cap");
        assert_eq!(p.fee_for_attempt(4, 63), 30, "huge attempts saturate safely");
    }

    #[test]
    fn cap_is_never_below_the_base_fee() {
        // A cap below the scheduled fee cannot block the opening bid.
        let p = FeePolicy::Exponential { cap: 1 };
        assert_eq!(p.cap(4), 4);
        assert_eq!(p.fee_for_attempt(4, 5), 4);
    }

    #[test]
    fn exponential_escalation_from_a_zero_base_starts_at_one() {
        // Regression: `base.saturating_mul(2^attempt)` with base = 0
        // re-bids 0 forever — a zero-schedule bid could never out-bid a
        // positive floor. The ladder must ground itself at 1.
        let p = FeePolicy::Exponential { cap: 30 };
        assert_eq!(p.fee_for_attempt(0, 0), 0, "the opening bid stays at the schedule");
        assert_eq!(p.fee_for_attempt(0, 1), 1);
        assert_eq!(p.fee_for_attempt(0, 2), 2);
        assert_eq!(p.fee_for_attempt(0, 3), 4);
        assert_eq!(p.fee_for_attempt(0, 5), 16);
        assert_eq!(p.fee_for_attempt(0, 6), 30, "clamped at the cap");
        assert_eq!(p.fee_for_attempt(0, 63), 30, "huge attempts saturate safely");
    }

    #[test]
    fn exponential_escalation_climbs_past_the_base_fee_and_stops_at_the_cap() {
        let book = BidBook::new(FeePolicy::Exponential { cap: 30 });
        let bid = |base_fee, fee| Bid {
            chain: ChainId(0),
            actor: Address::from(ac3_crypto::KeyPair::from_seed(b"alice").public()),
            txid: TxId(ac3_crypto::Hash256::digest(b"tx")),
            fee,
            base_fee,
            attempt: 0,
            last_bid_at: 0,
            settled: false,
            billed: true,
            kind: BidKind::Call {
                contract: ContractId(ac3_crypto::Hash256::digest(b"sc")),
                payload: Vec::new(),
            },
        };
        let congestion = |base_fee| ChainCongestion {
            chain: ChainId(0),
            depth: 0,
            capacity: 10,
            min_fee: None,
            fee_floor: base_fee,
            base_fee,
            block_budget: 1,
            binding: true,
        };
        // Re-bid a zero-schedule bid until the ladder runs out; returns the
        // last fee reached.
        let walk = |mut bid: Bid, chain_base_fee| {
            let snapshot = congestion(chain_base_fee);
            while let Some((attempt, fee)) = book.next_escalation(&bid, &snapshot, None) {
                assert!(fee > bid.fee, "re-bid {fee} must beat {}", bid.fee);
                assert!(fee >= chain_base_fee, "re-bid {fee} under base fee {chain_base_fee}");
                (bid.attempt, bid.fee) = (attempt, fee);
            }
            bid.fee
        };
        assert_eq!(walk(bid(0, 0), 0), 30, "from a zero base the ladder climbs to the cap");
        assert_eq!(walk(bid(0, 0), 5), 30, "re-bids skip the rungs under the chain's base fee");
        assert_eq!(walk(bid(0, 0), 31), 0, "a base fee above the cap leaves nothing to bid");
        // A cap below the scheduled fee leaves no headroom above it.
        let below = BidBook::new(FeePolicy::Exponential { cap: 1 });
        assert_eq!(below.next_escalation(&bid(4, 4), &congestion(0), None), None);
        assert_eq!(book.next_escalation(&bid(0, 30), &congestion(0), None), None, "at the cap");
    }

    #[test]
    fn zero_base_bid_escalates_past_a_positive_queue() {
        // End-to-end regression for the zero-base stall: a bid whose
        // scheduled fee is 0 enters a pool, gets out-ranked by paid
        // traffic deeper than the block budget, and must start the doubling
        // ladder at 1 instead of re-bidding 0 forever.
        use ac3_chain::{ChainParams, TxBuilder};
        use ac3_contracts::MultiHtlcCall;
        use ac3_crypto::{Hash256, KeyPair};

        let mut world = World::new();
        let mut params = ChainParams::fast("freebie", 1); // 1 tx per block
        params.call_fee = 0; // the zero-base schedule
        params.mempool_capacity = 4; // the bid plus the junk fill the pool
        let mut participants = ParticipantSet::new();
        let alice = participants.add("alice");
        let chain = world.add_chain(params, &[(alice, 1_000)]);

        let mut book = BidBook::new(FeePolicy::Exponential { cap: 8 });
        let phantom = ContractId(Hash256::digest(b"phantom"));
        let call = ContractCall::MultiHtlc(MultiHtlcCall::Refund);
        let (txid, fee) = book
            .submit_call(&mut world, &mut participants, &alice, chain, phantom, &call)
            .unwrap()
            .expect("empty pool admits the zero bid");
        assert_eq!(fee, 0);

        // Paid junk out-ranks the free bid far beyond the 1-tx budget and
        // fills the pool to capacity — escalation must work replace-by-fee
        // against a full pool.
        let mut junk = TxBuilder::new(KeyPair::from_seed(b"spammer"), 1 << 40);
        for i in 0..3u8 {
            let phantom_input =
                vec![ac3_chain::OutPoint::new(ac3_chain::TxId(Hash256::digest(&[i, 0x99])), 0)];
            world.submit(chain, junk.transfer(phantom_input, vec![], 5)).unwrap();
        }
        assert_eq!(world.congestion(chain).unwrap().depth, 4, "pool is full");

        // 0 -> 1 -> 2 -> 4 -> 8 (cap): every poll escalates, none re-bids 0.
        let mut last = 0;
        for expected in [1u64, 2, 4, 8] {
            world.advance(1_000);
            let changes = book.poll(&mut world, &mut participants).unwrap();
            assert_eq!(changes.len(), 1, "bid at {last} must escalate");
            assert!(changes[0].rebid);
            assert_eq!(changes[0].fee_delta, (expected - last) as i64);
            last = expected;
        }
        assert_eq!(book.total_fees(), 8);
        // At the cap the ladder ends.
        world.advance(1_000);
        assert!(book.poll(&mut world, &mut participants).unwrap().is_empty());
        // A txid commits to its fee: the zero bid is gone, not repriced.
        assert!(
            !world.chain(chain).unwrap().mempool_contains(&txid),
            "the original zero bid was superseded"
        );
    }

    #[test]
    fn adaptive_opens_at_the_floor_plus_margin_and_escalates_to_the_observed_price() {
        // Adaptive reads the congestion snapshot instead of doubling: the
        // opening bid is floor + margin, and a stuck bid re-bids to one
        // above the marginal price of next-block inclusion.
        use ac3_chain::{ChainParams, TxBuilder};
        use ac3_contracts::MultiHtlcCall;
        use ac3_crypto::{Hash256, KeyPair};

        let mut world = World::new();
        let mut params = ChainParams::fast("adaptive", 1); // 1 tx per block
        params.mempool_capacity = 4;
        let mut participants = ParticipantSet::new();
        let alice = participants.add("alice");
        let chain = world.add_chain(params, &[(alice, 1_000)]);

        // Fill the pool: fees 9/9/9/3 → eviction floor 4.
        let mut junk = TxBuilder::new(KeyPair::from_seed(b"spammer"), 1 << 40);
        for (i, fee) in [(0u8, 9u64), (1, 9), (2, 9), (3, 3)] {
            let phantom =
                vec![ac3_chain::OutPoint::new(ac3_chain::TxId(Hash256::digest(&[i, 0x44])), 0)];
            world.submit(chain, junk.transfer(phantom, vec![], fee)).unwrap();
        }
        assert_eq!(world.congestion(chain).unwrap().fee_floor, 4);

        let mut book = BidBook::new(FeePolicy::Adaptive { margin: 1, cap: 64 });
        let phantom_contract = ContractId(Hash256::digest(b"phantom"));
        let call = ContractCall::MultiHtlc(MultiHtlcCall::Refund);
        let (_, fee) = book
            .submit_call(&mut world, &mut participants, &alice, chain, phantom_contract, &call)
            .unwrap()
            .expect("the floor bid plus margin buys the slot");
        assert_eq!(fee, 5, "opened at floor 4 + margin 1 (evicting the fee-3 junk)");

        // Still ranked behind three fee-9 transactions (budget 1): the
        // escalation consults the snapshot — marginal next-block price is
        // 9 — and bids exactly 10, not 2 × 5.
        world.advance(1_000);
        let changes = book.poll(&mut world, &mut participants).unwrap();
        assert_eq!(changes.len(), 1);
        assert!(changes[0].rebid);
        assert_eq!(changes[0].fee_delta, 5, "5 -> 10: one above the observed price");
        assert_eq!(book.total_fees(), 10);

        // Now at the head of the queue: no further escalation, and the bid
        // mines at the adaptive price.
        world.advance(1_000);
        assert!(book.poll(&mut world, &mut participants).unwrap().is_empty());
        world.advance(1_000);
        assert!(book.poll(&mut world, &mut participants).unwrap().is_empty());
        assert_eq!(book.total_fees(), 10);
    }

    #[test]
    fn escalation_resumes_above_a_floor_raised_opening_bid() {
        // Regression: a bid whose opening fee was raised to a full pool's
        // admission floor sits *above* its attempt schedule; escalation
        // used to read the schedule at attempt+1, find it below the
        // current fee and stall forever. It must instead walk the schedule
        // past the current fee.
        use ac3_chain::{ChainParams, TxBuilder};
        use ac3_contracts::MultiHtlcCall;
        use ac3_crypto::{Hash256, KeyPair};

        let mut world = World::new();
        let mut params = ChainParams::fast("floor", 1); // 1 tx per block
        params.mempool_capacity = 3;
        let mut participants = ParticipantSet::new();
        let alice = participants.add("alice");
        let chain = world.add_chain(params, &[(alice, 1_000)]);

        // Fill the pool with junk at fee 19: the admission floor is 20.
        let mut junk = TxBuilder::new(KeyPair::from_seed(b"spammer"), 1 << 40);
        for i in 0..3u8 {
            let phantom =
                vec![ac3_chain::OutPoint::new(ac3_chain::TxId(Hash256::digest(&[i, 0x77])), 0)];
            world.submit(chain, junk.transfer(phantom, vec![], 19)).unwrap();
        }
        assert_eq!(world.congestion(chain).unwrap().fee_floor, 20);

        // Base call fee 2, exponential schedule 4/8/16/32/64: the opening
        // bid is floor-raised to 20, between schedule steps.
        let mut book = BidBook::new(FeePolicy::Exponential { cap: 64 });
        let phantom_contract = ContractId(Hash256::digest(b"phantom"));
        let call = ContractCall::MultiHtlc(MultiHtlcCall::Refund);
        let (_, fee) = book
            .submit_call(&mut world, &mut participants, &alice, chain, phantom_contract, &call)
            .unwrap()
            .expect("floor 20 is within the cap");
        assert_eq!(fee, 20, "opening bid raised to the admission floor");

        // Out-bid the remaining junk so the bid ranks behind two fee-50
        // transactions (deeper than the 1-tx block budget).
        for i in 0..2u8 {
            let phantom =
                vec![ac3_chain::OutPoint::new(ac3_chain::TxId(Hash256::digest(&[i, 0x88])), 0)];
            world.submit(chain, junk.transfer(phantom, vec![], 50)).unwrap();
        }

        // The stuck bid must escalate to 32 — the first schedule step
        // strictly above 20 — not stall at fee_for_attempt(1) = 4.
        world.advance(1_000);
        let changes = book.poll(&mut world, &mut participants).unwrap();
        assert_eq!(changes.len(), 1);
        assert!(changes[0].rebid);
        assert_eq!(changes[0].fee_delta, 12, "20 → 32");
        assert_eq!(book.total_fees(), 32);

        // Still out-ranked: the next re-bid reaches the cap.
        world.advance(1_000);
        let changes = book.poll(&mut world, &mut participants).unwrap();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].fee_delta, 32, "32 → 64 (cap)");
        assert_eq!(book.total_fees(), 64);

        // At the cap there is no headroom left: no further re-bids.
        world.advance(1_000);
        assert!(book.poll(&mut world, &mut participants).unwrap().is_empty());
    }

    #[test]
    fn adaptive_goes_quiet_when_the_base_fee_exceeds_its_cap_and_resumes_on_decay() {
        // Regression: when the chain's base fee rises above an Adaptive
        // bid's cap, the clamped re-bid would be refused admission — the
        // book must stop attempting the doomed replace-by-fee (no change,
        // no churn) and resume escalating once the base fee decays back
        // under the cap.
        use ac3_chain::{coinbase, BaseFeeSchedule, ChainParams, OutPoint, TxBuilder, TxOutput};
        use ac3_contracts::MultiHtlcCall;
        use ac3_crypto::{Hash256, KeyPair};

        let mut world = World::new();
        let mut params = ChainParams::fast("pricey", 2); // budget 2, target 1
        params.base_fee_schedule = BaseFeeSchedule::eip1559_like();
        let mut participants = ParticipantSet::new();
        let alice = participants.add("alice");
        let funder = ac3_chain::Address::from(KeyPair::from_seed(b"funder").public());
        let mut genesis = vec![(alice, 1_000)];
        genesis.extend(std::iter::repeat_n((funder, 100), 8));
        let chain = world.add_chain(params, &genesis);

        // Open an Adaptive bid with a tight cap of 3 (floor 1 + margin 1 = 2).
        let mut book = BidBook::new(FeePolicy::Adaptive { margin: 1, cap: 3 });
        let phantom = ContractId(Hash256::digest(b"phantom"));
        let call = ContractCall::MultiHtlc(MultiHtlcCall::Refund);
        let (txid, fee) = book
            .submit_call(&mut world, &mut participants, &alice, chain, phantom, &call)
            .unwrap()
            .expect("floor 1 + margin 1 is under the cap");
        assert_eq!(fee, 2);

        // Full blocks of funded demand push the base fee past the cap.
        let mut spam = TxBuilder::new(KeyPair::from_seed(b"funder"), 0);
        for block in 0..3u64 {
            for i in 0..2u64 {
                let input = OutPoint::new(coinbase(funder, 100, 1 + block * 2 + i).id(), 0);
                world
                    .submit(chain, spam.transfer(vec![input], vec![TxOutput::new(funder, 95)], 5))
                    .unwrap();
            }
            world.advance(1_000);
        }
        assert!(world.congestion(chain).unwrap().base_fee > 3, "base fee rose past the cap");

        // The bid is stuck below the base fee, but the cap makes any
        // re-bid inadmissible: the book must go quiet, not churn.
        let changes = book.poll(&mut world, &mut participants).unwrap();
        assert!(changes.is_empty(), "no doomed replace-by-fee attempts");
        assert!(world.chain(chain).unwrap().mempool_contains(&txid), "bid untouched");
        assert_eq!(book.total_fees(), 2);

        // Demand gone, the base fee decays back under the cap: escalation
        // resumes at the cap and the bid becomes mineable again.
        world
            .advance_until("base fee decays under the cap", 20_000, |w| {
                w.chain(chain).map(|c| c.base_fee() <= 3).unwrap_or(false)
            })
            .unwrap();
        let changes = book.poll(&mut world, &mut participants).unwrap();
        assert_eq!(changes.len(), 1, "escalation resumed");
        assert!(changes[0].rebid);
        assert_eq!(book.total_fees(), 3, "re-bid at the cap");
    }

    #[test]
    fn reorged_out_bid_is_abandoned_not_mistaken_for_evicted() {
        // Regression: a transaction mined onto a branch that is later
        // reorged out is neither pending nor canonical — exactly like an
        // evicted one. But the ledger never refunded it, so the bid must
        // be retired (the sim abandons reorged-out transactions), not
        // refunded or re-bid.
        use ac3_chain::ChainParams;
        use ac3_contracts::{ContractSpec, MultiHtlcSpec};
        use ac3_crypto::Hashlock;

        let mut world = World::new();
        let mut params = ChainParams::fast("forky", 1_000);
        params.stable_depth = 3;
        let mut participants = ParticipantSet::new();
        let alice = participants.add("alice");
        let bob = participants.add("bob");
        let chain = world.add_chain(params, &[(alice, 100), (bob, 100)]);

        let mut book = BidBook::new(FeePolicy::Exponential { cap: 64 });
        let spec = ContractSpec::MultiHtlc(MultiHtlcSpec {
            recipient: bob,
            hashlocks: vec![Hashlock::from_secret(b"s").lock],
            timelock: 1_000_000,
        });
        let (txid, _, fee) = book
            .submit_deploy(&mut world, &mut participants, &alice, chain, &spec, 10)
            .unwrap()
            .expect("alice is available");
        assert_eq!(fee, 4);

        // The deploy mines, then a deeper attacker branch reorgs it out
        // before the machine ever polls again.
        world.advance(1_000);
        assert!(world.chain(chain).unwrap().tx_depth(&txid).is_some());
        world.inject_fork(chain, 1, 3).unwrap();
        assert!(world.chain(chain).unwrap().tx_depth(&txid).is_none(), "reorged out");
        assert!(!world.chain(chain).unwrap().mempool_contains(&txid), "not resubmitted");

        let ledger_before = world.fees.total_fees();
        let changes = book.poll(&mut world, &mut participants).unwrap();
        assert!(changes.is_empty(), "no phantom refund, no duplicate re-bid");
        assert_eq!(world.fees.total_fees(), ledger_before);
        assert_eq!(book.total_fees(), 4, "the fee stays paid on both ledgers");
        assert!(!world.chain(chain).unwrap().mempool_contains(&txid));

        // The bid is retired: later polls stay silent too.
        world.advance(2_000);
        assert!(book.poll(&mut world, &mut participants).unwrap().is_empty());
    }

    #[test]
    fn evicted_bid_is_refunded_while_held_and_rebilled_on_reentry() {
        // Regression: when a bid's transaction is priced out of a bounded
        // pool and the policy cannot afford to re-enter, the world ledger
        // has refunded the fee — the owner's tally must drop it too
        // (negative `fee_delta`, no rebid), then re-bill when the bid
        // re-enters later. Without this the SwapReport's fees diverge from
        // `FeeLedger::fees_for_swap`.
        //
        // The held re-entry is refused on price, so without a network the
        // bidder builds nothing for it; under a zero-latency network the
        // snapshot does not bind and every bid is sent. The skipped build
        // still consumes its nonce, so the later re-entry gets the same id.
        use ac3_chain::{ChainParams, TxBuilder};
        use ac3_contracts::MultiHtlcCall;
        use ac3_crypto::{Hash256, KeyPair};
        use ac3_sim::NetworkProfile;

        let reentry_id = |network: Option<NetworkProfile>| {
            let mut world = World::new();
            let mut params = ChainParams::fast("tight", 1_000);
            params.mempool_capacity = 1;
            let mut participants = ParticipantSet::new();
            let alice = participants.add("alice");
            let chain = world.add_chain(params, &[(alice, 100)]);
            if let Some(profile) = network {
                world.attach_network(profile);
            }

            // A Fixed-policy bid: opening fee = call_fee = 2, cap = 2.
            let mut book = BidBook::new(FeePolicy::Fixed);
            let phantom = ContractId(Hash256::digest(b"phantom-contract"));
            let call = ContractCall::MultiHtlc(MultiHtlcCall::Refund);
            let (txid, fee) = book
                .submit_call(&mut world, &mut participants, &alice, chain, phantom, &call)
                .unwrap()
                .expect("pool has room");
            assert_eq!(fee, 2);
            assert_eq!(book.total_fees(), 2);
            assert_eq!(world.fees.total_fees(), 2);

            // An unfunded-input junk tx out-bids the call; the single-slot pool
            // evicts it and the ledger refunds its fee.
            let mut junk = TxBuilder::new(KeyPair::from_seed(b"spammer"), 1 << 40);
            let phantom_input =
                vec![ac3_chain::OutPoint::new(ac3_chain::TxId(Hash256::digest(b"nowhere")), 0)];
            world.submit(chain, junk.transfer(phantom_input, vec![], 9)).unwrap();
            assert_eq!(world.fees.total_fees(), 9, "the evicted call's 2 was refunded");

            // The junk never mines (invalid inputs), so the pool stays full and
            // Fixed cannot afford the floor of 10: the bid is held and the
            // owner's tally gives the refund back.
            world.advance(1_000);
            let changes = book.poll(&mut world, &mut participants).unwrap();
            assert_eq!(changes.len(), 1);
            let held = &changes[0];
            assert_eq!(held.fee_delta, -2);
            assert!(!held.rebid);
            assert_eq!(held.old_txid, held.new_txid, "no new transaction was bid");
            let (mut fees, mut rebids) = (2u64, 0u64);
            held.apply_accounting(&mut fees, &mut rebids);
            assert_eq!((fees, rebids), (0, 0));
            assert_eq!(book.total_fees(), 0, "held bid is not billed");

            // A *funded* high bid displaces the junk and gets mined, freeing
            // the slot; the held bid re-enters at its fee and is re-billed.
            let (inputs, outputs) =
                world.chain(chain).unwrap().plan_payment(&alice, &alice, 1, 15).unwrap();
            let mut kp = TxBuilder::new(KeyPair::from_seed(b"alice"), 1 << 50);
            world.submit(chain, kp.transfer(inputs, outputs, 15)).unwrap();
            world.advance(1_000);

            let changes = book.poll(&mut world, &mut participants).unwrap();
            assert_eq!(changes.len(), 1);
            let reentry = &changes[0];
            assert_eq!(reentry.fee_delta, 2);
            assert!(reentry.rebid);
            assert_ne!(reentry.new_txid, txid, "re-entry is a fresh transaction");
            reentry.apply_accounting(&mut fees, &mut rebids);
            assert_eq!((fees, rebids), (2, 1));
            assert_eq!(book.total_fees(), 2);
            assert!(world.chain(chain).unwrap().mempool_contains(&reentry.new_txid));
            reentry.new_txid
        };
        assert_eq!(reentry_id(None), reentry_id(Some(NetworkProfile::zero(1))));
    }
}
