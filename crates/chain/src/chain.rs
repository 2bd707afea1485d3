//! The `Blockchain` façade: one simulated permissionless blockchain.
//!
//! Ties together the block store (fork tree + longest-chain rule), the
//! mempool, the UTXO set, the contract VM and the chain parameters. Mining a
//! block drains the mempool (up to the tps-derived budget), executes the
//! transactions, seals the block and appends it; receiving a block from the
//! network validates and inserts it, updating the canonical state if the
//! fork choice changed.
//!
//! State derivation is **incremental** (see `DESIGN.md` for the full
//! design):
//!
//! * The canonical [`ChainState`] is kept materialized at the tip. A block
//!   that extends the tip reuses the scratch state its own validation just
//!   produced — accepting block `N` never re-executes blocks `0..N-1`, so a
//!   simulation run is O(n) in chain length instead of the former O(n²)
//!   replay-from-genesis-per-block design.
//! * A bounded cache of [`ChainState`] snapshots keyed by block hash serves
//!   `state_at(parent)` for fork mining and fork validation in O(new
//!   blocks).
//! * On a reorg, the state is rebuilt from the nearest cached snapshot on
//!   the winning branch (worst case: genesis), and a `debug_assert`
//!   differential check compares the result against a full from-genesis
//!   replay. The replay path survives as [`Blockchain::replay_state_from_genesis`],
//!   the test/debug oracle.

use crate::block::{Block, BlockHeader};
use crate::contracts::{CallContext, ContractRecord, DeployContext, VmError, VmHandle};
use crate::mempool::{Mempool, MempoolError};
use crate::params::{ChainParams, SealPolicy};
use crate::storage::{StoreConfig, StoreStats};
use crate::store::{BlockStore, StoreError};
use crate::transaction::{coinbase, Transaction, TxKind, TxOutput};
use crate::types::{
    Address, Amount, BlockHash, BlockHeight, ChainId, ContractId, OutPoint, Timestamp, TxId,
};
use crate::utxo::{UtxoError, UtxoSet};
use ac3_crypto::{Hash256, MerkleProof};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

/// Errors produced by chain operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// UTXO-level validation failed.
    Utxo(UtxoError),
    /// Contract execution failed.
    Vm(VmError),
    /// Structural block validation failed.
    Store(StoreError),
    /// Mempool admission failed.
    Mempool(MempoolError),
    /// A contract call tried to pay out more than the contract holds.
    OverdrawnContract {
        /// The offending contract.
        contract: ContractId,
        /// Value still locked.
        locked: Amount,
        /// Value the call attempted to release.
        requested: Amount,
    },
    /// The referenced parent block is unknown (for fork mining).
    UnknownBlock(BlockHash),
    /// Proof-of-work sealing gave up before finding a valid nonce.
    SealFailed,
    /// The block references the wrong chain id.
    WrongChain {
        /// Expected chain id.
        expected: ChainId,
        /// Chain id found in the block.
        got: ChainId,
    },
    /// The block's proof-of-work target is not the one the chain's seal
    /// policy demands, so meeting it proves none of the chain's work.
    WrongTarget {
        /// The chain's target.
        expected: Hash256,
        /// The target in the block header.
        got: Hash256,
    },
    /// A block carried a transaction paying less than the base fee in
    /// force for that block (derived from the parent block's fullness).
    FeeBelowBase {
        /// The offending transaction.
        txid: TxId,
        /// The fee it offered.
        offered: Amount,
        /// The base fee the block was priced at.
        base_fee: Amount,
    },
    /// A block carried more non-coinbase transactions than the chain's
    /// tps-derived per-block budget allows. Block fullness drives the base
    /// fee, so the budget is consensus-enforced, not merely mining policy.
    BlockOverBudget {
        /// Non-coinbase transactions in the block.
        txs: usize,
        /// The per-block budget.
        budget: usize,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::Utxo(e) => write!(f, "utxo error: {e}"),
            ChainError::Vm(e) => write!(f, "vm error: {e}"),
            ChainError::Store(e) => write!(f, "store error: {e}"),
            ChainError::Mempool(e) => write!(f, "mempool error: {e}"),
            ChainError::OverdrawnContract { contract, locked, requested } => {
                write!(f, "contract {contract} overdrawn: locked {locked}, requested {requested}")
            }
            ChainError::UnknownBlock(h) => write!(f, "unknown block {h}"),
            ChainError::SealFailed => write!(f, "failed to seal block"),
            ChainError::WrongChain { expected, got } => {
                write!(f, "block for {got} submitted to {expected}")
            }
            ChainError::WrongTarget { expected, got } => {
                write!(f, "block target {got} is not the chain's target {expected}")
            }
            ChainError::FeeBelowBase { txid, offered, base_fee } => {
                write!(f, "{txid} pays {offered}, below the block's base fee {base_fee}")
            }
            ChainError::BlockOverBudget { txs, budget } => {
                write!(f, "block carries {txs} transactions, over the per-block budget {budget}")
            }
        }
    }
}

impl std::error::Error for ChainError {}

impl From<UtxoError> for ChainError {
    fn from(e: UtxoError) -> Self {
        ChainError::Utxo(e)
    }
}
impl From<VmError> for ChainError {
    fn from(e: VmError) -> Self {
        ChainError::Vm(e)
    }
}
impl From<StoreError> for ChainError {
    fn from(e: StoreError) -> Self {
        ChainError::Store(e)
    }
}
impl From<MempoolError> for ChainError {
    fn from(e: MempoolError) -> Self {
        ChainError::Mempool(e)
    }
}

/// The state derived from executing the canonical chain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChainState {
    /// The unspent output set.
    pub utxos: UtxoSet,
    /// All deployed contracts.
    pub contracts: BTreeMap<ContractId, ContractRecord>,
    /// Total fees collected by miners so far.
    pub fees_collected: Amount,
    /// The dynamic base fee of the *next* block, derived from this chain's
    /// block fullness history under
    /// [`crate::params::BaseFeeSchedule`]. Living in the derived state
    /// means it is maintained incrementally, snapshot-cached, and replayed
    /// correctly from the fork point across reorgs — exactly like the UTXO
    /// set. 0 under a disabled schedule.
    pub base_fee: Amount,
}

/// Maximum number of post-block state snapshots retained for fork
/// validation. Bounds memory; forks deeper than the cache fall back to the
/// from-genesis replay oracle. Chains keep forks shallow relative to their
/// stable depth (6-ish), so a few dozen snapshots cover every realistic
/// reorg including the Section 6.3 attack experiments.
const SNAPSHOT_CAPACITY: usize = 48;

/// On plain tip extensions, only every `SNAPSHOT_STRIDE`-th outgoing tip
/// state is kept. Retained memory drops by the same factor; the cost is at
/// most `SNAPSHOT_STRIDE - 1` extra block replays when a fork roots between
/// snapshots.
const SNAPSHOT_STRIDE: u64 = 4;

/// A bounded FIFO cache of `ChainState` snapshots keyed by the hash of the
/// block whose execution produced them ("state as of and including block
/// `h`").
#[derive(Debug, Default)]
struct SnapshotCache {
    states: HashMap<BlockHash, ChainState>,
    order: VecDeque<BlockHash>,
}

impl SnapshotCache {
    fn get(&self, hash: &BlockHash) -> Option<&ChainState> {
        self.states.get(hash)
    }

    fn insert(&mut self, hash: BlockHash, state: ChainState) {
        if self.states.insert(hash, state).is_none() {
            self.order.push_back(hash);
            while self.order.len() > SNAPSHOT_CAPACITY {
                if let Some(evicted) = self.order.pop_front() {
                    self.states.remove(&evicted);
                }
            }
        }
    }
}

/// Evidence that a transaction is included in a specific block: the header
/// plus a Merkle inclusion proof — the raw material of the Section 4.3
/// light-client evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxInclusion {
    /// Header of the block containing the transaction.
    pub header: BlockHeader,
    /// Merkle proof of the transaction's canonical bytes under
    /// `header.tx_root`.
    pub proof: MerkleProof,
    /// How deep the block is buried under the current canonical tip.
    pub depth: u64,
}

/// One simulated permissionless blockchain.
pub struct Blockchain {
    id: ChainId,
    params: ChainParams,
    vm: VmHandle,
    store: BlockStore,
    mempool: Mempool,
    /// Materialized state of the canonical chain, maintained incrementally.
    state: ChainState,
    /// Recent post-block states for fork-tip validation (see module docs).
    snapshots: SnapshotCache,
}

impl fmt::Debug for Blockchain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Blockchain")
            .field("id", &self.id)
            .field("name", &self.params.name)
            .field("height", &self.store.best_height())
            .field("mempool", &self.mempool.len())
            .finish()
    }
}

impl Blockchain {
    /// Create a chain with a genesis block containing the given initial
    /// asset allocations ("new bitcoins are generated and registered in the
    /// blockchain through mining"; genesis allocations model pre-existing
    /// balances).
    /// The block-body storage backend is selected by the environment
    /// ([`StoreConfig::from_env`]): the in-memory map unless
    /// `AC3_STORE_BACKEND=paged`. Use [`Blockchain::with_store_config`]
    /// to pin a backend explicitly.
    pub fn new(
        id: ChainId,
        params: ChainParams,
        vm: VmHandle,
        genesis_allocations: &[(Address, Amount)],
    ) -> Self {
        Self::with_store_config(id, params, vm, genesis_allocations, StoreConfig::from_env())
    }

    /// [`Blockchain::new`] with an explicit block-body storage backend.
    /// Simulation results are bitwise identical across backends; the choice
    /// affects only memory footprint and storage counters.
    pub fn with_store_config(
        id: ChainId,
        params: ChainParams,
        vm: VmHandle,
        genesis_allocations: &[(Address, Amount)],
        store_config: StoreConfig,
    ) -> Self {
        let genesis_txs: Vec<Transaction> = genesis_allocations
            .iter()
            .enumerate()
            .map(|(i, (addr, amount))| coinbase(*addr, *amount, i as u64))
            .collect();
        let header = BlockHeader {
            chain: id,
            parent: BlockHash::GENESIS_PARENT,
            tx_root: Block::compute_tx_root(&genesis_txs),
            height: 0,
            timestamp: 0,
            target: params.target(),
            nonce: 0,
        };
        let genesis = Block { header, transactions: genesis_txs };
        let mempool = Mempool::with_capacity(params.mempool_capacity);
        let mut chain = Blockchain {
            id,
            params,
            vm,
            store: BlockStore::with_config(store_config),
            mempool,
            state: ChainState::default(),
            snapshots: SnapshotCache::default(),
        };
        let sealed = chain.seal(genesis).expect("genesis seals");
        // Execute the genesis block in hand rather than replaying it from
        // the store: the paged backend would decode a cold copy and hash
        // every coinbase again.
        let genesis_run =
            Self::execute_block(&chain.vm, id, &chain.params, &mut chain.state, &sealed);
        debug_assert!(genesis_run.is_ok(), "genesis execution failed: {genesis_run:?}");
        let hash = chain.store.insert(sealed).expect("genesis inserts");
        chain.mempool.set_base_fee(chain.state.base_fee);
        chain.snapshots.insert(hash, chain.state.clone());
        chain
    }

    /// The chain id.
    pub fn id(&self) -> ChainId {
        self.id
    }

    /// The chain parameters.
    pub fn params(&self) -> &ChainParams {
        &self.params
    }

    /// Height of the canonical tip.
    pub fn height(&self) -> BlockHeight {
        self.store.best_height().unwrap_or(0)
    }

    /// Hash of the canonical tip.
    pub fn tip(&self) -> BlockHash {
        self.store.best_tip().expect("chain always has a genesis")
    }

    /// The underlying block store (read-only).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Counters and shape of the block-body storage backend (buffer-pool
    /// hits/misses/evictions on the paged backend; all-zero counters on
    /// the in-memory backend).
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// The currently derived canonical state (read-only).
    pub fn state(&self) -> &ChainState {
        &self.state
    }

    /// Number of pending transactions.
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// Maximum number of pending transactions the mempool holds.
    pub fn mempool_capacity(&self) -> usize {
        self.mempool.capacity()
    }

    /// Whether `txid` is waiting in the mempool.
    pub fn mempool_contains(&self, txid: &TxId) -> bool {
        self.mempool.contains(txid)
    }

    /// Whether a pending transaction ranks within the first `limit` slots
    /// of miner priority order (O(limit), not O(queue depth)).
    pub fn mempool_position_within(&self, txid: &TxId, limit: usize) -> Option<bool> {
        self.mempool.position_within(txid, limit)
    }

    /// The smallest fee among pending transactions.
    pub fn mempool_min_fee(&self) -> Option<Amount> {
        self.mempool.min_fee()
    }

    /// The smallest fee that would currently buy a mempool slot (see
    /// [`Mempool::fee_floor`]; includes the dynamic base fee).
    pub fn mempool_fee_floor(&self) -> Amount {
        self.mempool.fee_floor()
    }

    /// The fee of the pending transaction ranked `rank` in miner priority
    /// order (see [`Mempool::fee_at_rank`]).
    pub fn mempool_fee_at_rank(&self, rank: usize) -> Option<Amount> {
        self.mempool.fee_at_rank(rank)
    }

    /// The dynamic base fee the next block will be priced at (0 under a
    /// disabled [`crate::params::BaseFeeSchedule`]).
    pub fn base_fee(&self) -> Amount {
        self.state.base_fee
    }

    /// Monotonic counter of mempool mutations (see [`Mempool::revision`]):
    /// unchanged revision ⇒ every mempool-derived view is unchanged.
    pub fn mempool_revision(&self) -> u64 {
        self.mempool.revision()
    }

    /// Balance of an address on the canonical chain.
    pub fn balance_of(&self, address: &Address) -> Amount {
        self.state.utxos.balance_of(address)
    }

    /// Select unspent outputs of `address` covering `amount`.
    pub fn select_inputs(
        &self,
        address: &Address,
        amount: Amount,
    ) -> Option<(Vec<OutPoint>, Amount)> {
        self.state.utxos.select_inputs(address, amount)
    }

    /// Submit a transaction to the mempool.
    pub fn submit(&mut self, tx: Transaction) -> Result<TxId, ChainError> {
        Ok(self.mempool.submit(tx)?)
    }

    /// Submit a transaction, also returning any pending transactions that
    /// were evicted to make room (fee-based eviction in a full pool), so
    /// callers can undo side effects of their admission.
    pub fn submit_with_evictions(
        &mut self,
        tx: Transaction,
    ) -> Result<(TxId, Vec<Transaction>), ChainError> {
        Ok(self.mempool.submit_with_evictions(tx)?)
    }

    /// Replace-by-fee: swap the pending `old` for a strictly-higher-fee
    /// replacement. Returns the new id and the replaced transaction.
    pub fn replace(
        &mut self,
        old: &TxId,
        tx: Transaction,
    ) -> Result<(TxId, Transaction), ChainError> {
        Ok(self.mempool.replace(old, tx)?)
    }

    /// Look up a deployed contract on the canonical chain.
    pub fn contract(&self, id: &ContractId) -> Option<&ContractRecord> {
        self.state.contracts.get(id)
    }

    /// The VM state tag of a contract plus the burial depth of its last
    /// state change — exactly what [`ac3_crypto::StateLock`] verification
    /// needs.
    pub fn contract_state_with_depth(&self, id: &ContractId) -> Option<(String, u64)> {
        let record = self.contract(id)?;
        let tag = self.vm.state_tag(&record.state)?;
        let depth = self.height().saturating_sub(record.last_update);
        Some((tag, depth))
    }

    /// Confirmations of a transaction: depth of its containing block, or
    /// `None` if it is not on the canonical chain.
    pub fn tx_depth(&self, txid: &TxId) -> Option<u64> {
        let (block_hash, _) = self.store.find_canonical_tx(txid)?;
        self.store.depth_of(&block_hash)
    }

    /// Produce SPV inclusion evidence for a canonical transaction. Served
    /// from block metadata (header and Merkle leaves): no body is read.
    // lint: api-ok(SPV inclusion; the chain, store and evidence suites check proofs with it)
    pub fn tx_inclusion(&self, txid: &TxId) -> Option<TxInclusion> {
        let (block_hash, index) = self.store.find_canonical_tx(txid)?;
        let header = self.store.header(&block_hash)?;
        let proof = self.store.tx_proof(&block_hash, index)?;
        let depth = self.store.depth_of(&block_hash)?;
        Some(TxInclusion { header, proof, depth })
    }

    /// Canonical headers strictly after the given block, oldest first
    /// (Section 4.3 header-relay evidence).
    pub fn headers_since(&self, from: &BlockHash) -> Option<Vec<BlockHeader>> {
        self.store.headers_since(from)
    }

    /// The canonical block currently buried under at least the chain's
    /// stable depth (the "stable block" a validator contract stores,
    /// Section 4.3).
    pub fn stable_block_hash(&self) -> BlockHash {
        let height = self.height().saturating_sub(self.params.stable_depth);
        self.store.canonical_block_at_height(height).expect("stable height always exists")
    }

    // ------------------------------------------------------------------
    // Mining
    // ------------------------------------------------------------------

    /// Mine a block on the canonical tip at simulated time `now`, draining
    /// the mempool up to the per-block budget. Invalid pending transactions
    /// are dropped silently (as real miners do).
    pub fn mine_block(&mut self, miner: Address, now: Timestamp) -> Result<Block, ChainError> {
        let tip = self.tip();
        self.mine_block_on(tip, miner, now)
    }

    /// Mine a block on an explicit parent — used to create forks
    /// deliberately (fault injection, Section 6.3 attack experiments).
    ///
    /// The scratch state built while filtering mempool candidates *is* the
    /// post-block state, so the mined block is committed directly instead of
    /// being re-validated from scratch by [`Blockchain::accept_block`]
    /// (debug builds still cross-check the two paths).
    pub fn mine_block_on(
        &mut self,
        parent: BlockHash,
        miner: Address,
        now: Timestamp,
    ) -> Result<Block, ChainError> {
        let parent_header = self.store.header(&parent).ok_or(ChainError::UnknownBlock(parent))?;
        let height = parent_header.height + 1;

        // Execute candidate transactions against the state as of `parent`.
        let mut scratch = self.state_at(&parent)?;
        // The base fee this block is priced at: the parent state's. Bids
        // below it are skipped (but stay pending — they become mineable
        // again if the base fee decays).
        let block_base_fee = scratch.base_fee;
        let budget = self.params.max_txs_per_block();
        let mut included = Vec::new();
        let mut fees: Amount = 0;
        for tx in self.mempool.select(budget * 2) {
            if included.len() >= budget {
                break;
            }
            if tx.fee < block_base_fee {
                continue;
            }
            match Self::execute_tx(&self.vm, self.id, &mut scratch, tx, height, now) {
                Ok(()) => {
                    fees += tx.fee;
                    included.push(tx);
                }
                Err(_) => {
                    // Leave it in the mempool: it may become valid later
                    // (e.g. the funding transaction has not been mined yet).
                }
            }
        }

        let mut transactions = vec![coinbase(miner, self.params.block_reward + fees, height)];
        // The pool's instances were verified at admission and never mutate;
        // warm copies carry that work into the block the store keeps.
        transactions.extend(included.into_iter().map(Transaction::clone_warm));

        // Fold the coinbase into the scratch state. It executes first in
        // block order, but no included candidate can reference its outputs
        // (they were validated without it), so the resulting state is
        // identical.
        Self::execute_tx(&self.vm, self.id, &mut scratch, &transactions[0], height, now)?;
        // The mined block's fullness moves the base fee of its successor.
        scratch.base_fee =
            self.params.base_fee_schedule.next(block_base_fee, transactions.len() - 1, budget);

        let header = BlockHeader {
            chain: self.id,
            parent,
            tx_root: Block::compute_tx_root(&transactions),
            height,
            timestamp: now,
            target: self.params.target(),
            nonce: 0,
        };
        let block = self.seal(Block { header, transactions })?;
        #[cfg(debug_assertions)]
        {
            // The mining fast path must stay equivalent to full network
            // validation (including the base-fee check and update).
            let mut revalidated = self.state_at(&parent)?;
            Self::execute_block(&self.vm, self.id, &self.params, &mut revalidated, &block)
                .expect("mined block re-validates");
            debug_assert_eq!(revalidated, scratch, "mining scratch diverged from validation");
        }
        // The store keeps the warm instance; the caller gets a cold copy,
        // which any chain it is sent to verifies from scratch.
        let mined = block.clone();
        self.commit_block(block, scratch)?;
        Ok(mined)
    }

    /// Seal a block according to the chain's seal policy.
    fn seal(&self, mut block: Block) -> Result<Block, ChainError> {
        match self.params.seal {
            SealPolicy::Instant => Ok(block),
            SealPolicy::ProofOfWork { .. } => {
                // Bounded nonce search; difficulties used in tests/benches
                // are small enough that this always succeeds quickly.
                const MAX_ITERS: u64 = 50_000_000;
                for nonce in 0..MAX_ITERS {
                    block.header.nonce = nonce;
                    if block.header.meets_target() {
                        return Ok(block);
                    }
                }
                Err(ChainError::SealFailed)
            }
        }
    }

    /// Accept a block produced locally or received from the network:
    /// validate it statefully, insert it and update the canonical state.
    ///
    /// The state produced by validating the block against its parent is
    /// *reused*: if the block becomes the canonical tip it becomes the
    /// canonical state directly (no replay), otherwise it is cached as a
    /// fork-tip snapshot so a later extension of that fork is O(new blocks).
    pub fn accept_block(&mut self, block: Block) -> Result<BlockHash, ChainError> {
        if block.header.chain != self.id {
            return Err(ChainError::WrongChain { expected: self.id, got: block.header.chain });
        }
        let target = self.params.target();
        if block.header.target != target {
            return Err(ChainError::WrongTarget { expected: target, got: block.header.target });
        }
        // Stateful validation against the parent's state; genesis blocks are
        // only produced by the constructor.
        let mut scratch = self.state_at(&block.header.parent)?;
        Self::execute_block(&self.vm, self.id, &self.params, &mut scratch, &block)?;
        self.commit_block(block, scratch)
    }

    /// Insert a fully validated block whose post-block state is `post_state`
    /// and update the canonical state and snapshot cache.
    ///
    /// On a tip extension the outgoing tip state is *moved* into the
    /// snapshot cache (no clone) and `post_state` becomes the canonical
    /// state directly — the only per-block O(state) cost left on the hot
    /// path is the single validation-scratch clone in `state_at`.
    fn commit_block(
        &mut self,
        block: Block,
        post_state: ChainState,
    ) -> Result<BlockHash, ChainError> {
        let parent = block.header.parent;
        let mined_ids: Vec<TxId> = block.transactions.iter().map(Transaction::id).collect();
        let old_tip = self.store.best_tip();
        let hash = self.store.insert(block)?;
        if old_tip == Some(hash) {
            // Idempotent re-accept of the current tip (duplicate network
            // delivery): the store ignored it and the state is already
            // correct — in particular, do not misread `parent != old_tip`
            // below as a reorg.
            return Ok(hash);
        }

        if self.store.best_tip() == Some(hash) {
            // Transactions leave the mempool only on *canonical* inclusion —
            // a block stranded on a losing side branch must not silently
            // swallow pending transactions.
            self.mempool.remove_ids(&mined_ids);
            // The block is the new canonical tip; `post_state` is by
            // construction the state of the chain ending in it.
            if old_tip != Some(parent) {
                // Reorg: earlier blocks of the winning branch were accepted
                // as side-branch blocks, so their transactions may still be
                // pending; drop everything the new canonical chain now
                // contains. (Transactions of the abandoned branch are *not*
                // resubmitted — a documented simplification, DESIGN.md §2.)
                let now_canonical: Vec<TxId> = self
                    .mempool
                    .iter()
                    .map(Transaction::id)
                    .filter(|id| self.store.find_canonical_tx(id).is_some())
                    .collect();
                self.mempool.remove_ids(&now_canonical);
                // In debug builds cross-check the incrementally derived
                // state against the from-genesis replay oracle.
                debug_assert_eq!(
                    post_state,
                    self.replay_state_from_genesis(),
                    "incremental reorg state diverged from full replay"
                );
            }
            let prev = std::mem::replace(&mut self.state, post_state);
            // The accepted block's fullness moved the base fee; the mempool
            // gates admission on it (correct across reorgs too: the new
            // canonical state's base fee is a from-fork-point replay).
            self.mempool.set_base_fee(self.state.base_fee);
            if let Some(tip) = old_tip {
                // The outgoing tip state serves later forks off that block.
                // On plain extensions only every SNAPSHOT_STRIDE-th state is
                // retained (a fork off an unsnapshotted block replays at
                // most STRIDE-1 extra blocks), bounding resident memory at
                // ~CAPACITY/STRIDE full states; a reorged-out tip is always
                // retained, since reorging straight back is the common
                // attack pattern.
                let reorged_out = old_tip != Some(parent);
                let on_stride = self
                    .store
                    .header(&tip)
                    .is_some_and(|h| h.height.is_multiple_of(SNAPSHOT_STRIDE));
                if reorged_out || on_stride {
                    self.snapshots.insert(tip, prev);
                }
            }
        } else {
            // Side-branch block: canonical state is untouched; remember the
            // fork-tip state so extending this fork stays cheap.
            self.snapshots.insert(hash, post_state);
        }
        Ok(hash)
    }

    // ------------------------------------------------------------------
    // State derivation
    // ------------------------------------------------------------------

    /// Replay the canonical chain from genesis into a fresh state. This is
    /// the slow-path oracle the incremental engine is checked against (in
    /// `debug_assert`s on reorgs and in the differential property tests);
    /// production paths never call it.
    pub fn replay_state_from_genesis(&self) -> ChainState {
        let mut state = ChainState::default();
        for block in self.store.canonical_blocks() {
            // Canonical blocks were validated on acceptance; execution
            // here cannot fail. If it somehow does, the chain state is
            // the replay prefix — an internal invariant violation we
            // surface loudly in debug builds.
            let result = Self::execute_block(&self.vm, self.id, &self.params, &mut state, &block);
            debug_assert!(result.is_ok(), "canonical replay failed: {result:?}");
        }
        state
    }

    /// Derive the state as of (and including) the block `at`.
    ///
    /// Fast paths, in order: the canonical tip (clone of the materialized
    /// state), a cached snapshot (clone), otherwise walk ancestors until one
    /// of those is hit — or genesis, the full-replay fallback — and execute
    /// only the uncovered suffix. Cost is O(blocks past the nearest
    /// snapshot), not O(chain length).
    fn state_at(&self, at: &BlockHash) -> Result<ChainState, ChainError> {
        if self.store.best_tip() == Some(*at) {
            return Ok(self.state.clone());
        }
        if let Some(snapshot) = self.snapshots.get(at) {
            return Ok(snapshot.clone());
        }
        // Walk back until a covered ancestor (or genesis) is found; the
        // uncovered blocks collect in `suffix`, newest first.
        let mut suffix: Vec<std::sync::Arc<Block>> = Vec::new();
        let mut cursor = *at;
        let mut state = loop {
            let block = self.store.get(&cursor).ok_or(ChainError::UnknownBlock(cursor))?;
            let header = block.header;
            suffix.push(block);
            if header.is_genesis() {
                break ChainState::default();
            }
            let parent = header.parent;
            if self.store.best_tip() == Some(parent) {
                break self.state.clone();
            }
            if let Some(snapshot) = self.snapshots.get(&parent) {
                break snapshot.clone();
            }
            cursor = parent;
        };
        for block in suffix.iter().rev() {
            Self::execute_block(&self.vm, self.id, &self.params, &mut state, block)?;
        }
        Ok(state)
    }

    /// Execute a whole block against `state`: enforce the per-block
    /// transaction budget and the base fee in force for the block (the
    /// parent state's `base_fee`) on every non-coinbase transaction,
    /// execute the transactions, then move the base fee according to the
    /// block's fullness. Every path that derives state from blocks funnels
    /// through here, so the base-fee trajectory is identical across
    /// acceptance, fork validation, reorg replay and the from-genesis
    /// oracle — and an oversized block no honest miner could produce is
    /// rejected rather than fed into the fee schedule.
    fn execute_block(
        vm: &VmHandle,
        chain: ChainId,
        params: &ChainParams,
        state: &mut ChainState,
        block: &Block,
    ) -> Result<(), ChainError> {
        let base_fee = state.base_fee;
        let budget = params.max_txs_per_block();
        let txs = block.transactions.iter().filter(|tx| !tx.is_coinbase()).count();
        if txs > budget {
            return Err(ChainError::BlockOverBudget { txs, budget });
        }
        let mut used = 0usize;
        for tx in &block.transactions {
            if !tx.is_coinbase() {
                if tx.fee < base_fee {
                    return Err(ChainError::FeeBelowBase {
                        txid: tx.id(),
                        offered: tx.fee,
                        base_fee,
                    });
                }
                used += 1;
            }
            Self::execute_tx(vm, chain, state, tx, block.header.height, block.header.timestamp)?;
        }
        state.base_fee = params.base_fee_schedule.next(base_fee, used, budget);
        Ok(())
    }

    /// Execute one transaction against `state`.
    fn execute_tx(
        vm: &VmHandle,
        chain: ChainId,
        state: &mut ChainState,
        tx: &Transaction,
        height: BlockHeight,
        now: Timestamp,
    ) -> Result<(), ChainError> {
        if !tx.signature_valid() {
            return Err(ChainError::Utxo(UtxoError::MissingSender));
        }
        match &tx.kind {
            TxKind::Transfer { .. } | TxKind::Coinbase { .. } => {
                state.utxos.apply(tx)?;
            }
            TxKind::Deploy { locked_value, payload, .. } => {
                state.utxos.apply(tx)?;
                let sender = tx.sender.expect("deploy has sender");
                let contract_id = ContractId(tx.id().0);
                let ctx = DeployContext {
                    chain,
                    sender,
                    value: *locked_value,
                    contract: contract_id,
                    height,
                    now,
                };
                let initial_state = vm.deploy(&ctx, payload)?;
                state.contracts.insert(
                    contract_id,
                    ContractRecord {
                        id: contract_id,
                        owner: sender,
                        state: initial_state,
                        locked_value: *locked_value,
                        deployed_at: height,
                        last_update: height,
                    },
                );
            }
            TxKind::Call { contract, payload } => {
                state.utxos.apply(tx)?;
                let sender = tx.sender.expect("call has sender");
                let record = state
                    .contracts
                    .get(contract)
                    .ok_or(ChainError::Vm(VmError::UnknownContract(*contract)))?
                    .clone();
                let ctx = CallContext { chain, sender, contract: *contract, height, now };
                let outcome = vm.call(&ctx, &record.state, payload)?;

                let requested: Amount = outcome.payouts.iter().map(|p| p.amount).sum();
                if requested > record.locked_value {
                    return Err(ChainError::OverdrawnContract {
                        contract: *contract,
                        locked: record.locked_value,
                        requested,
                    });
                }
                let call_txid = tx.id();
                for (seq, payout) in outcome.payouts.iter().enumerate() {
                    state.utxos.credit_contract_payout(
                        call_txid,
                        seq as u32,
                        payout.to,
                        payout.amount,
                    );
                }
                let updated = ContractRecord {
                    state: outcome.new_state,
                    locked_value: record.locked_value - requested,
                    last_update: height,
                    ..record
                };
                state.contracts.insert(*contract, updated);
            }
        }
        state.fees_collected += tx.fee;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Convenience transaction constructors used by the simulation layer
    // ------------------------------------------------------------------

    /// Build the outputs of a simple payment of `amount` from funds owned by
    /// `from`, returning `(inputs, outputs)` including change, or `None` if
    /// the balance is insufficient to also cover `fee`.
    pub fn plan_payment(
        &self,
        from: &Address,
        to: &Address,
        amount: Amount,
        fee: Amount,
    ) -> Option<(Vec<OutPoint>, Vec<TxOutput>)> {
        let (inputs, total) = self.state.utxos.select_inputs(from, amount + fee)?;
        let mut outputs = vec![TxOutput::new(*to, amount)];
        let change = total - amount - fee;
        if change > 0 {
            outputs.push(TxOutput::new(*from, change));
        }
        Some((inputs, outputs))
    }

    /// Plan the funding side of a contract deployment that locks
    /// `locked_value`, returning `(inputs, change_outputs)`.
    pub fn plan_deploy(
        &self,
        from: &Address,
        locked_value: Amount,
        fee: Amount,
    ) -> Option<(Vec<OutPoint>, Vec<TxOutput>)> {
        let (inputs, total) = self.state.utxos.select_inputs(from, locked_value + fee)?;
        let change = total - locked_value - fee;
        let change_outputs =
            if change > 0 { vec![TxOutput::new(*from, change)] } else { Vec::new() };
        Some((inputs, change_outputs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contracts::EchoVm;
    use crate::transaction::TxBuilder;
    use ac3_crypto::{merkle, KeyPair};
    use std::sync::Arc;

    fn addr(seed: &[u8]) -> Address {
        Address::from(KeyPair::from_seed(seed).public())
    }

    fn test_chain(allocs: &[(Address, Amount)]) -> Blockchain {
        Blockchain::new(ChainId(0), ChainParams::test("test"), Arc::new(EchoVm), allocs)
    }

    #[test]
    fn genesis_allocations_are_spendable() {
        let alice = addr(b"alice");
        let chain = test_chain(&[(alice, 100)]);
        assert_eq!(chain.balance_of(&alice), 100);
        assert_eq!(chain.height(), 0);
    }

    #[test]
    fn mine_transfer_and_check_balances() {
        let alice = addr(b"alice");
        let bob = addr(b"bob");
        let miner = addr(b"miner");
        let mut chain = test_chain(&[(alice, 100)]);

        let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let (inputs, outputs) = chain.plan_payment(&alice, &bob, 40, 1).unwrap();
        chain.submit(builder.transfer(inputs, outputs, 1)).unwrap();
        chain.mine_block(miner, 1_000).unwrap();

        assert_eq!(chain.balance_of(&bob), 40);
        assert_eq!(chain.balance_of(&alice), 59);
        // Miner gets the block reward plus the fee.
        assert_eq!(chain.balance_of(&miner), chain.params().block_reward + 1);
        assert_eq!(chain.height(), 1);
        assert_eq!(chain.mempool_len(), 0);
    }

    #[test]
    fn insufficiently_funded_tx_stays_pending() {
        let alice = addr(b"alice");
        let bob = addr(b"bob");
        let miner = addr(b"miner");
        let mut chain = test_chain(&[(alice, 10)]);
        let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        // Manually craft a transfer spending an output that does not exist.
        let fake_input = OutPoint::new(TxId(ac3_crypto::Hash256::digest(b"nope")), 0);
        let tx = builder.transfer(vec![fake_input], vec![TxOutput::new(bob, 5)], 0);
        chain.submit(tx).unwrap();
        chain.mine_block(miner, 1_000).unwrap();
        assert_eq!(chain.balance_of(&bob), 0);
        assert_eq!(chain.mempool_len(), 1, "invalid tx left pending");
    }

    #[test]
    fn deploy_and_call_contract_with_payout() {
        let alice = addr(b"alice");
        let bob = addr(b"bob");
        let miner = addr(b"miner");
        let mut chain = test_chain(&[(alice, 100), (bob, 10)]);
        let mut alice_b = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let mut bob_b = TxBuilder::new(KeyPair::from_seed(b"bob"), 0);

        // Alice deploys a contract locking 60.
        let (inputs, change) = chain.plan_deploy(&alice, 60, 2).unwrap();
        let deploy = alice_b.deploy(inputs, 60, change, b"locked".to_vec(), 2);
        let contract_id = ContractId(deploy.id().0);
        chain.submit(deploy).unwrap();
        chain.mine_block(miner, 1_000).unwrap();

        let record = chain.contract(&contract_id).expect("deployed");
        assert_eq!(record.locked_value, 60);
        assert_eq!(chain.balance_of(&alice), 100 - 60 - 2);
        assert_eq!(chain.contract_state_with_depth(&contract_id).unwrap().0, "locked");

        // Bob calls the contract to receive the payout.
        let call = bob_b.call(contract_id, b"payout:60".to_vec(), 1);
        chain.submit(call).unwrap();
        chain.mine_block(miner, 2_000).unwrap();

        // Contract-call transactions consume no UTXO inputs, so their fee is
        // notional (tracked for the Section 6.2 cost model, not deducted
        // from the caller's balance).
        assert_eq!(chain.balance_of(&bob), 10 + 60);
        assert_eq!(chain.contract(&contract_id).unwrap().locked_value, 0);
        let (tag, depth) = chain.contract_state_with_depth(&contract_id).unwrap();
        assert_eq!(tag, "spent");
        assert_eq!(depth, 0);
    }

    #[test]
    fn contract_overdraw_is_rejected_and_tx_not_mined() {
        let alice = addr(b"alice");
        let miner = addr(b"miner");
        let mut chain = test_chain(&[(alice, 100)]);
        let mut alice_b = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);

        let (inputs, change) = chain.plan_deploy(&alice, 10, 2).unwrap();
        let deploy = alice_b.deploy(inputs, 10, change, b"locked".to_vec(), 2);
        let contract_id = ContractId(deploy.id().0);
        chain.submit(deploy).unwrap();
        chain.mine_block(miner, 1_000).unwrap();

        let call = alice_b.call(contract_id, b"payout:999".to_vec(), 1);
        chain.submit(call).unwrap();
        chain.mine_block(miner, 2_000).unwrap();
        // The overdrawn call is not included; contract unchanged.
        assert_eq!(chain.contract(&contract_id).unwrap().locked_value, 10);
    }

    #[test]
    fn contract_depth_grows_with_blocks() {
        let alice = addr(b"alice");
        let miner = addr(b"miner");
        let mut chain = test_chain(&[(alice, 100)]);
        let mut alice_b = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let (inputs, change) = chain.plan_deploy(&alice, 5, 2).unwrap();
        let deploy = alice_b.deploy(inputs, 5, change, b"state0".to_vec(), 2);
        let contract_id = ContractId(deploy.id().0);
        chain.submit(deploy).unwrap();
        chain.mine_block(miner, 1_000).unwrap();
        for i in 0..4 {
            chain.mine_block(miner, 2_000 + i).unwrap();
        }
        let (_, depth) = chain.contract_state_with_depth(&contract_id).unwrap();
        assert_eq!(depth, 4);
    }

    #[test]
    fn tx_inclusion_proof_verifies() {
        let alice = addr(b"alice");
        let bob = addr(b"bob");
        let miner = addr(b"miner");
        let mut chain = test_chain(&[(alice, 100)]);
        let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let (inputs, outputs) = chain.plan_payment(&alice, &bob, 10, 1).unwrap();
        let tx = builder.transfer(inputs, outputs, 1);
        let txid = tx.id();
        chain.submit(tx.clone()).unwrap();
        chain.mine_block(miner, 1_000).unwrap();
        chain.mine_block(miner, 2_000).unwrap();

        let inclusion = chain.tx_inclusion(&txid).unwrap();
        assert!(inclusion
            .proof
            .verify_hash(&inclusion.header.tx_root, &merkle::leaf_hash(&tx.canonical_bytes())));
        assert_eq!(inclusion.depth, 1);
        assert_eq!(chain.tx_depth(&txid), Some(1));
        assert!(chain.tx_depth(&txid) < Some(chain.params().stable_depth), "needs 6 confirmations");
    }

    #[test]
    fn fork_and_reorg_switch_canonical_state() {
        let alice = addr(b"alice");
        let bob = addr(b"bob");
        let miner = addr(b"miner");
        let mut chain = test_chain(&[(alice, 100)]);
        let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);

        // Height 1 on the main branch contains Alice's payment to Bob.
        let (inputs, outputs) = chain.plan_payment(&alice, &bob, 30, 1).unwrap();
        chain.submit(builder.transfer(inputs, outputs, 1)).unwrap();
        let genesis = chain.tip();
        chain.mine_block(miner, 1_000).unwrap();
        assert_eq!(chain.balance_of(&bob), 30);

        // Build a longer empty fork from genesis: the payment is reorged out.
        chain.mine_block_on(genesis, miner, 1_500).unwrap();
        let fork_tip = chain.store().header(&chain.tip()).unwrap();
        // The fork of equal length may or may not win the tie; extend it so
        // it is strictly longer and must win.
        let fork_hash = if chain.balance_of(&bob) == 30 {
            // main branch still canonical; find the fork tip among tips
            chain
                .store()
                .tips()
                .into_iter()
                .find(|t| *t != chain.tip())
                .unwrap_or_else(|| fork_tip.hash())
        } else {
            chain.tip()
        };
        chain.mine_block_on(fork_hash, miner, 2_000).unwrap();
        assert_eq!(chain.height(), 2);
        assert_eq!(chain.balance_of(&bob), 0, "payment reorged out");
        assert_eq!(chain.balance_of(&alice), 100);
    }

    #[test]
    fn wrong_chain_block_rejected() {
        let alice = addr(b"alice");
        let mut chain_a = test_chain(&[(alice, 100)]);
        let chain_b = Blockchain::new(
            ChainId(1),
            ChainParams::test("other"),
            Arc::new(EchoVm),
            &[(alice, 100)],
        );
        let foreign_genesis = (*chain_b.store().get(&chain_b.tip()).unwrap()).clone();
        assert!(matches!(
            chain_a.accept_block(foreign_genesis).unwrap_err(),
            ChainError::WrongChain { .. }
        ));
    }

    #[test]
    fn a_proof_of_work_chain_refuses_a_block_with_no_work() {
        let alice = addr(b"alice");
        let miner = addr(b"miner");
        let mut params = ChainParams::test("pow");
        params.seal = SealPolicy::ProofOfWork { difficulty_bits: 20 };
        let mut chain = Blockchain::new(ChainId(3), params, Arc::new(EchoVm), &[(alice, 10)]);
        let genesis = chain.tip();
        // A coinbase-only block that claims the easiest target: its hash
        // meets that target with no search at all.
        let transactions = vec![coinbase(miner, chain.params().block_reward, 1)];
        let header = BlockHeader {
            chain: chain.id(),
            parent: genesis,
            tx_root: Block::compute_tx_root(&transactions),
            height: 1,
            timestamp: 1_000,
            target: Hash256::MAX,
            nonce: 0,
        };
        assert!(header.meets_target());
        assert_eq!(
            chain.accept_block(Block { header, transactions }).unwrap_err(),
            ChainError::WrongTarget { expected: chain.params().target(), got: Hash256::MAX }
        );
        assert_eq!((chain.tip(), chain.height()), (genesis, 0));
    }

    #[test]
    fn headers_since_and_stable_block() {
        let alice = addr(b"alice");
        let miner = addr(b"miner");
        let mut chain = test_chain(&[(alice, 100)]);
        let genesis = chain.tip();
        for i in 0..10u64 {
            chain.mine_block(miner, 1_000 * (i + 1)).unwrap();
        }
        let headers = chain.headers_since(&genesis).unwrap();
        assert_eq!(headers.len(), 10);
        assert_eq!(headers.first().unwrap().height, 1);
        // Stable block is 6 (stable_depth) behind the tip at height 10.
        let stable = chain.stable_block_hash();
        assert_eq!(chain.store().get(&stable).unwrap().header.height, 4);
    }

    // ------------------------------------------------------------------
    // Dynamic base fee
    // ------------------------------------------------------------------

    use crate::params::BaseFeeSchedule;

    /// A chain with a dynamic base fee (floor 1, 50% target, 13%/block),
    /// 4 transactions per block, and `outputs` genesis coinbases of
    /// `value` each for alice — independent outputs so demand transactions
    /// never conflict in the mempool.
    fn base_fee_chain(outputs: usize, value: Amount) -> (Blockchain, Address) {
        let alice = addr(b"alice");
        let mut params = ChainParams::test("base-fee");
        params.tps = 4;
        params.block_interval_ms = 1_000;
        params.base_fee_schedule = BaseFeeSchedule::eip1559_like();
        let allocs = vec![(alice, value); outputs];
        (Blockchain::new(ChainId(0), params, Arc::new(EchoVm), &allocs), alice)
    }

    /// The outpoint of the `i`-th genesis coinbase (they are constructed
    /// deterministically by `Blockchain::new`).
    fn genesis_outpoint(owner: Address, value: Amount, i: usize) -> OutPoint {
        OutPoint::new(crate::transaction::coinbase(owner, value, i as u64).id(), 0)
    }

    #[test]
    fn sustained_full_blocks_raise_the_base_fee_and_idle_blocks_decay_it() {
        let (mut chain, alice) = base_fee_chain(64, 100);
        let miner = addr(b"miner");
        let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        assert_eq!(chain.base_fee(), 1, "starts at the floor");

        // Demand phase: keep every block full (4 txs against a target of
        // 2) — the base fee must rise monotonically, block over block.
        let mut spent = 0usize;
        let mut prev = chain.base_fee();
        for b in 0..8u64 {
            for _ in 0..4 {
                let input = genesis_outpoint(alice, 100, spent);
                spent += 1;
                let fee = chain.base_fee().max(chain.mempool_fee_floor());
                let change = vec![TxOutput::new(alice, 100 - fee)];
                chain.submit(builder.transfer(vec![input], change, fee)).unwrap();
            }
            chain.mine_block(miner, 1_000 * (b + 1)).unwrap();
            let now = chain.base_fee();
            assert!(now > prev, "block {b}: full block must raise the base fee ({prev} -> {now})");
            prev = now;
        }
        let peak = chain.base_fee();
        assert!(peak > 1 + 7, "eight full blocks move the fee well off the floor, got {peak}");

        // Idle phase: empty blocks decay the fee back to the floor.
        for b in 0..20u64 {
            chain.mine_block(miner, 100_000 + 1_000 * b).unwrap();
            let now = chain.base_fee();
            assert!(now <= prev, "block {b}: empty block must not raise the base fee");
            prev = now;
        }
        assert_eq!(chain.base_fee(), 1, "demand gone: the base fee is back at the floor");
        // The mempool's admission gate tracked every move.
        assert_eq!(chain.mempool_fee_floor(), 1);
    }

    #[test]
    fn miners_skip_bids_below_the_base_fee_and_blocks_reject_them() {
        let (mut chain, alice) = base_fee_chain(40, 100);
        let miner = addr(b"miner");
        let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);

        // Raise the base fee with a few full blocks.
        let mut spent = 0usize;
        for b in 0..6u64 {
            for _ in 0..4 {
                let input = genesis_outpoint(alice, 100, spent);
                spent += 1;
                let fee = chain.base_fee();
                chain
                    .submit(builder.transfer(
                        vec![input],
                        vec![TxOutput::new(alice, 100 - fee)],
                        fee,
                    ))
                    .unwrap();
            }
            chain.mine_block(miner, 1_000 * (b + 1)).unwrap();
        }
        let base = chain.base_fee();
        assert!(base > 2);

        // A bid below the base fee is refused admission outright...
        let cheap_input = genesis_outpoint(alice, 100, spent);
        let cheap = builder.transfer(vec![cheap_input], vec![TxOutput::new(alice, 99)], 1);
        assert!(matches!(
            chain.submit(cheap.clone()).unwrap_err(),
            ChainError::Mempool(MempoolError::FeeTooLow { .. })
        ));
        // ...and a block smuggling one in is rejected by validation.
        let height = chain.height() + 1;
        let parent = chain.tip();
        let transactions = vec![coinbase(miner, chain.params().block_reward, height), cheap];
        let header = BlockHeader {
            chain: chain.id(),
            parent,
            tx_root: Block::compute_tx_root(&transactions),
            height,
            timestamp: 50_000,
            target: chain.params().target(),
            nonce: 0,
        };
        let err = chain.accept_block(Block { header, transactions }).unwrap_err();
        assert!(matches!(err, ChainError::FeeBelowBase { offered: 1, .. }), "got {err}");
    }

    #[test]
    fn oversized_blocks_are_rejected_by_validation() {
        // Block fullness drives the base fee, so the tps-derived budget is
        // consensus-enforced: a block no honest miner could produce (more
        // non-coinbase txs than the budget) must be rejected even though
        // every transaction in it is individually valid.
        let alice = addr(b"alice");
        let miner = addr(b"miner");
        let mut params = ChainParams::test("tight");
        params.tps = 2; // budget 2
        params.block_interval_ms = 1_000;
        let allocs = vec![(alice, 100); 3];
        let mut chain = Blockchain::new(ChainId(0), params, Arc::new(EchoVm), &allocs);
        let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);

        let height = chain.height() + 1;
        let parent = chain.tip();
        let mut transactions = vec![coinbase(miner, chain.params().block_reward, height)];
        for i in 0..3u64 {
            let input = OutPoint::new(coinbase(alice, 100, i).id(), 0);
            transactions.push(builder.transfer(vec![input], vec![TxOutput::new(alice, 99)], 1));
        }
        let header = BlockHeader {
            chain: chain.id(),
            parent,
            tx_root: Block::compute_tx_root(&transactions),
            height,
            timestamp: 1_000,
            target: chain.params().target(),
            nonce: 0,
        };
        let err = chain.accept_block(Block { header, transactions }).unwrap_err();
        assert!(matches!(err, ChainError::BlockOverBudget { txs: 3, budget: 2 }), "got {err}");
        assert_eq!(chain.height(), 0, "the oversized block was not accepted");
    }

    #[test]
    fn base_fee_replays_identically_across_a_reorg() {
        // Grow a demand-heavy canonical chain, then reorg onto an idle
        // branch rooted below the demand: the materialized base fee must
        // equal the from-fork-point replay (checked against the oracle).
        let (mut chain, alice) = base_fee_chain(40, 100);
        let miner = addr(b"miner");
        let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let mut spent = 0usize;
        for b in 0..5u64 {
            for _ in 0..4 {
                let input = genesis_outpoint(alice, 100, spent);
                spent += 1;
                let fee = chain.base_fee();
                chain
                    .submit(builder.transfer(
                        vec![input],
                        vec![TxOutput::new(alice, 100 - fee)],
                        fee,
                    ))
                    .unwrap();
            }
            chain.mine_block(miner, 1_000 * (b + 1)).unwrap();
        }
        let elevated = chain.base_fee();
        assert!(elevated > 2);

        // Empty attacker branch from height 2 outgrows the demand branch.
        let fork_base = chain.store().canonical_block_at_height(2).unwrap();
        let mut parent = fork_base;
        for i in 0..6u64 {
            let block = chain.mine_block_on(parent, miner, 50_000 + i).unwrap();
            parent = block.hash();
        }
        assert_eq!(chain.height(), 8, "fork won");
        let oracle = chain.replay_state_from_genesis();
        assert_eq!(chain.state(), &oracle, "reorged state equals from-genesis replay");
        assert!(
            chain.base_fee() < elevated,
            "the idle branch must not inherit the demand branch's base fee"
        );
        assert_eq!(chain.mempool_fee_floor().max(chain.base_fee()), chain.base_fee());
    }

    #[test]
    fn pow_sealing_produces_valid_blocks() {
        let alice = addr(b"alice");
        let miner = addr(b"miner");
        let mut params = ChainParams::test("pow");
        params.seal = SealPolicy::ProofOfWork { difficulty_bits: 8 };
        let mut chain = Blockchain::new(ChainId(3), params, Arc::new(EchoVm), &[(alice, 10)]);
        let block = chain.mine_block(miner, 1_000).unwrap();
        assert!(block.header.meets_target());
        assert_eq!(block.hash().0.as_bytes()[0], 0, "8 leading zero bits");
    }
}
