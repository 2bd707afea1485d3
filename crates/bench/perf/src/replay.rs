//! Replay stages: host time of the layers below [`World::advance`].
//!
//! Mining, validation, mempool maintenance, body storage and crypto all run
//! inside `advance` (or inside a machine's own self time) and cannot be
//! bracketed from outside the program. Each stage here drives one layer's
//! public functions over the traced run's own data — the canonical blocks
//! the run produced and the submit/replace stream its machines emitted — so
//! the layer's cost is measured on exactly the work the run did, on fresh
//! instances that leave the finished world untouched.

use crate::trace::StreamEvent;
use ac3_chain::{
    Address, Amount, Block, BlockStore, Blockchain, ChainId, Mempool, StoreConfig, StoreStats,
    Timestamp, Transaction, TxId, TxKind,
};
use ac3_contracts::SwapVm;
use ac3_crypto::{Hash256, KeyPair};
use ac3_sim::{ParticipantSet, World};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Seconds and counts per stage; field names mirror the metric names.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub accept_s: f64,
    pub accept_blocks: u64,
    pub accept_txs: u64,
    pub mine_s: f64,
    pub mine_blocks: u64,
    pub replay_state_s: f64,
    pub mempool_submit_s: f64,
    pub mempool_submit_txs: u64,
    pub mempool_select_s: f64,
    pub mempool_select_calls: u64,
    pub mempool_replace_s: f64,
    pub mempool_replace_calls: u64,
    pub mempool_evictions: u64,
    pub store_insert_s: f64,
    pub store_insert_blocks: u64,
    pub store_get_s: f64,
    pub store_get_reads: u64,
    pub verify_s: f64,
    pub verify_sigs: u64,
    pub sign_s: f64,
    pub sign_sigs: u64,
    pub hash_s: f64,
    pub hash_bytes: u64,
    pub merkle_s: f64,
    pub merkle_leaves: u64,
    /// Blocks mined across the run (every chain's final height).
    pub blocks_mined: u64,
    /// Whether re-validation reproduced every chain's tip.
    pub tips_reproduced: bool,
}

fn timed<T>(total: &mut f64, work: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = black_box(work());
    *total += t.elapsed().as_secs_f64();
    out
}

/// The genesis allocations a chain was created with, read back from its
/// genesis block (one coinbase per allocation, in order).
fn genesis_allocations(genesis: &Block) -> Vec<(Address, Amount)> {
    genesis
        .transactions
        .iter()
        .filter_map(|tx| match &tx.kind {
            TxKind::Coinbase { outputs } => outputs.first().map(|o| (o.owner, o.value)),
            _ => None,
        })
        .collect()
}

fn fresh_chain(original: &Blockchain, genesis: &Block) -> Blockchain {
    Blockchain::new(
        original.id(),
        original.params().clone(),
        Arc::new(SwapVm::new()),
        &genesis_allocations(genesis),
    )
}

fn miner_of(block: &Block) -> Address {
    match &block.transactions[0].kind {
        TxKind::Coinbase { outputs } => outputs[0].owner,
        _ => unreachable!("every block leads with its coinbase"),
    }
}

/// Sum the paged-store counters of every chain. Call before any replay
/// stage reads bodies back, so the counts are the run's own.
pub fn store_stats(world: &World) -> StoreStats {
    let mut sum = StoreStats::default();
    for id in world.chain_ids() {
        let s = world.chain(id).expect("listed chain exists").store_stats();
        sum.backend = s.backend;
        sum.blocks += s.blocks;
        sum.hits += s.hits;
        sum.misses += s.misses;
        sum.evictions += s.evictions;
        sum.write_backs += s.write_backs;
    }
    sum
}

/// Run every replay stage over the finished traced world.
pub fn replay(world: &World, participants: &ParticipantSet, stream: &[StreamEvent]) -> Replay {
    let mut r = Replay { tips_reproduced: true, ..Replay::default() };

    let keys: BTreeMap<Address, KeyPair> = participants
        .names()
        .iter()
        .filter_map(|name| participants.get(name))
        .map(|p| (p.address(), p.keypair()))
        .collect();

    let mut by_chain: BTreeMap<ChainId, Vec<&StreamEvent>> = BTreeMap::new();
    for event in stream {
        let chain = match event {
            StreamEvent::Submit { chain, .. } | StreamEvent::Replace { chain, .. } => *chain,
        };
        by_chain.entry(chain).or_default().push(event);
    }

    for id in world.chain_ids() {
        let chain = world.chain(id).expect("listed chain exists");
        let blocks: Vec<Arc<Block>> = chain.store().canonical_blocks().collect();
        r.blocks_mined += chain.height();

        // chain: re-validate every canonical block into a fresh chain.
        let mut validator = fresh_chain(chain, &blocks[0]);
        for block in &blocks[1..] {
            let copy = Block::clone(block);
            r.accept_blocks += 1;
            r.accept_txs += copy.transactions.len() as u64;
            if timed(&mut r.accept_s, || validator.accept_block(copy)).is_err() {
                r.tips_reproduced = false;
            }
        }
        r.tips_reproduced &= validator.tip() == chain.tip();

        // chain: the replay oracle the integrity audit runs.
        timed(&mut r.replay_state_s, || chain.replay_state_from_genesis());

        // chain: re-mine every block from a pool refilled with its body.
        let mut miner = fresh_chain(chain, &blocks[0]);
        for block in &blocks[1..] {
            for tx in &block.transactions[1..] {
                let _ = miner.submit(tx.clone());
            }
            let (who, at) = (miner_of(block), block.header.timestamp);
            r.mine_blocks += 1;
            let _ = timed(&mut r.mine_s, || miner.mine_block(who, at));
        }

        // mempool: re-admit the recorded stream into a pool of the same
        // capacity, draining each canonical block at its own timestamp.
        if let Some(events) = by_chain.get(&id) {
            replay_mempool(&mut r, chain, &blocks, events);
        }

        // store: re-insert every body, then read each back, newest first.
        let mut store = BlockStore::with_config(StoreConfig::from_env());
        for block in &blocks {
            let copy = Block::clone(block);
            r.store_insert_blocks += 1;
            timed(&mut r.store_insert_s, || store.insert(copy)).expect("canonical blocks chain");
        }
        for block in blocks.iter().rev() {
            let hash = block.hash();
            r.store_get_reads += 1;
            timed(&mut r.store_get_s, || store.get(&hash)).expect("inserted above");
        }

        // crypto: every signature, every byte, every Merkle root.
        for block in &blocks {
            let txs: Vec<Transaction> = block.transactions.clone();
            r.merkle_leaves += txs.len() as u64;
            timed(&mut r.merkle_s, || Block::compute_tx_root(&txs));
            let header = block.header.canonical_bytes();
            r.hash_bytes += header.len() as u64;
            timed(&mut r.hash_s, || Hash256::digest(&header));
            for tx in &txs {
                let bytes = tx.canonical_bytes();
                r.hash_bytes += bytes.len() as u64;
                timed(&mut r.hash_s, || Hash256::digest(&bytes));
                let Some(sender) = tx.sender else { continue };
                r.verify_sigs += 1;
                timed(&mut r.verify_s, || tx.signature_valid());
                if let Some(keypair) = keys.get(&sender) {
                    r.sign_sigs += 1;
                    timed(&mut r.sign_s, || keypair.sign(&tx.signing_bytes()));
                }
            }
        }
    }
    r
}

fn replay_mempool(
    r: &mut Replay,
    chain: &Blockchain,
    blocks: &[Arc<Block>],
    events: &[&StreamEvent],
) {
    let params = chain.params();
    let budget = params.max_txs_per_block();
    let mut pool = Mempool::with_capacity(params.mempool_capacity);
    let mut base_fee = params.base_fee_schedule.floor;
    pool.set_base_fee(base_fee);

    let mut next_block = 1usize;
    let mut drain_until = |pool: &mut Mempool, r: &mut Replay, now: Option<Timestamp>| {
        while next_block < blocks.len()
            && now.is_none_or(|now| blocks[next_block].header.timestamp <= now)
        {
            let block = &blocks[next_block];
            let mined: Vec<TxId> = block.transactions[1..].iter().map(|tx| tx.id()).collect();
            r.mempool_select_calls += 1;
            // What mining pays per block: rank the candidates, then drop
            // what the block took.
            timed(&mut r.mempool_select_s, || {
                black_box(pool.select(budget * 2));
                pool.remove_ids(mined.iter());
            });
            base_fee = params.base_fee_schedule.next(base_fee, mined.len(), budget);
            pool.set_base_fee(base_fee);
            next_block += 1;
        }
    };

    for event in events {
        match event {
            StreamEvent::Submit { at, tx, .. } => {
                drain_until(&mut pool, r, Some(*at));
                let copy = tx.clone();
                r.mempool_submit_txs += 1;
                if let Ok((_, evicted)) =
                    timed(&mut r.mempool_submit_s, || pool.submit_with_evictions(copy))
                {
                    r.mempool_evictions += evicted.len() as u64;
                }
            }
            StreamEvent::Replace { at, old, tx, .. } => {
                drain_until(&mut pool, r, Some(*at));
                let copy = tx.clone();
                r.mempool_replace_calls += 1;
                let _ = timed(&mut r.mempool_replace_s, || pool.replace(old, copy));
            }
        }
    }
    drain_until(&mut pool, r, None);
}
