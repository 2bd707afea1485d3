//! Differential tests of the incremental chain-state engine.
//!
//! The canonical state is maintained incrementally (tip extension reuses the
//! validation scratch state; reorgs restore from snapshots and replay only
//! the divergent suffix). These tests drive arbitrary interleavings of tip
//! extensions, fork mining and reorgs — with payments and contract activity
//! mixed in — and after every step compare the incremental state against the
//! from-genesis replay oracle [`Blockchain::replay_state_from_genesis`]. The
//! two must be *equal in full*: UTXO set, contract records and collected
//! fees.

use ac3_chain::{
    Address, Amount, BlockHash, Blockchain, ChainId, ChainParams, ContractId, EchoVm, TxBuilder,
};
use ac3_crypto::KeyPair;
use ac3_seeded::Seeded;
use std::sync::Arc;

fn addr(seed: &[u8]) -> Address {
    Address::from(KeyPair::from_seed(seed).public())
}

fn test_chain(allocs: &[(Address, Amount)]) -> Blockchain {
    Blockchain::new(ChainId(0), ChainParams::test("diff"), Arc::new(EchoVm), allocs)
}

/// The highest tip off the canonical chain, if the store holds a fork.
fn longest_fork_tip(chain: &Blockchain) -> Option<BlockHash> {
    let store = chain.store();
    store
        .tips()
        .into_iter()
        .filter(|t| *t != chain.tip())
        .max_by_key(|t| store.header(t).expect("a tip is stored").height)
}

fn assert_matches_oracle(chain: &Blockchain, context: &str) {
    let oracle = chain.replay_state_from_genesis();
    assert_eq!(chain.state(), &oracle, "incremental state diverged from full replay ({context})");
}

#[test]
fn extending_the_tip_matches_full_replay() {
    let alice = addr(b"alice");
    let bob = addr(b"bob");
    let miner = addr(b"miner");
    let mut chain = test_chain(&[(alice, 10_000)]);
    let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);

    for i in 0..40u64 {
        if i % 3 == 0 {
            if let Some((inputs, outputs)) = chain.plan_payment(&alice, &bob, 5 + i, 1) {
                chain.submit(builder.transfer(inputs, outputs, 1)).unwrap();
            }
        }
        chain.mine_block(miner, 1_000 * (i + 1)).unwrap();
        assert_matches_oracle(&chain, &format!("extend #{i}"));
    }
    assert_eq!(chain.height(), 40);
}

#[test]
fn random_interleaving_of_extends_and_reorgs_matches_oracle() {
    let alice = addr(b"alice");
    let bob = addr(b"bob");
    let miner = addr(b"miner");
    let mut chain = test_chain(&[(alice, 100_000), (bob, 50_000)]);
    let mut alice_b = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
    let mut rng = Seeded::new(0xac3);
    let mut reorgs_seen = 0u32;

    for step in 0..120u64 {
        let now = 1_000 * (step + 1);
        let roll = rng.below(10);
        if roll < 6 {
            // Extend the canonical tip, sometimes with a payment.
            if roll < 3 {
                if let Some((inputs, outputs)) =
                    chain.plan_payment(&alice, &bob, 1 + rng.below(50), 1)
                {
                    chain.submit(alice_b.transfer(inputs, outputs, 1)).unwrap();
                }
            }
            chain.mine_block(miner, now).unwrap();
        } else {
            // Mine on an ancestor (depth 1..=6 below the current tip), or
            // grow the longest competing fork until it overtakes the
            // canonical tip: a tie never reorgs under first-seen fork choice.
            let tip_before = chain.tip();
            if roll == 9 {
                let mut parent = longest_fork_tip(&chain).unwrap_or(tip_before);
                loop {
                    parent = chain.mine_block_on(parent, miner, now).unwrap().hash();
                    if chain.tip() == parent {
                        break;
                    }
                }
            } else {
                let depth = 1 + rng.below(6);
                let height = chain.height().saturating_sub(depth);
                let parent = chain.store().canonical_block_at_height(height).unwrap();
                chain.mine_block_on(parent, miner, now).unwrap();
            }
            reorgs_seen += u32::from(!chain.store().is_canonical(&tip_before));
        }
        assert_matches_oracle(&chain, &format!("step {step}"));
    }
    assert!(reorgs_seen > 0, "interleaving never produced a reorg — test lost its teeth");
}

#[test]
fn contract_lifecycle_survives_reorgs_identically() {
    let alice = addr(b"alice");
    let miner = addr(b"miner");
    let mut chain = test_chain(&[(alice, 10_000)]);
    let mut alice_b = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);

    // Deploy, bury it a little, then call it.
    let (inputs, change) = chain.plan_deploy(&alice, 500, 2).unwrap();
    let deploy = alice_b.deploy(inputs, 500, change, b"locked".to_vec(), 2);
    let contract_id = ContractId(deploy.id().0);
    chain.submit(deploy).unwrap();
    chain.mine_block(miner, 1_000).unwrap();
    chain.mine_block(miner, 2_000).unwrap();
    let call = alice_b.call(contract_id, b"payout:250".to_vec(), 1);
    chain.submit(call).unwrap();
    chain.mine_block(miner, 3_000).unwrap();
    assert_matches_oracle(&chain, "after deploy+call");
    assert_eq!(chain.contract(&contract_id).unwrap().locked_value, 250);

    // Reorg the call (but not the deploy) out: fork from the block after the
    // deploy and outgrow the main branch.
    let fork_base = chain.store().canonical_block_at_height(2).unwrap();
    let mut parent = fork_base;
    for i in 0..3u64 {
        let block = chain.mine_block_on(parent, miner, 4_000 + i).unwrap();
        parent = block.hash();
    }
    assert_eq!(chain.height(), 5);
    assert_matches_oracle(&chain, "after reorging the call out");
    // The deploy survived the reorg; the call did not.
    assert_eq!(chain.contract(&contract_id).unwrap().locked_value, 500);
}

#[test]
fn deep_reorg_past_snapshot_capacity_matches_oracle() {
    // Build a canonical chain far longer than the snapshot cache, then win
    // with a fork rooted near genesis: state restoration must fall back to
    // the from-genesis replay and still agree with the oracle.
    let alice = addr(b"alice");
    let miner = addr(b"miner");
    let fork_miner = addr(b"fork-miner");
    let mut chain = test_chain(&[(alice, 1_000)]);

    for i in 0..60u64 {
        chain.mine_block(miner, 1_000 + i).unwrap();
    }
    let main_tip = chain.tip();
    assert_eq!(chain.height(), 60);

    let fork_base = chain.store().canonical_block_at_height(1).unwrap();
    let mut parent = fork_base;
    for i in 0..60u64 {
        let block = chain.mine_block_on(parent, fork_miner, 100_000 + i).unwrap();
        parent = block.hash();
    }
    assert_eq!(chain.height(), 61, "fork outgrew the main branch");
    assert!(!chain.store().is_canonical(&main_tip), "old tip abandoned");
    assert_matches_oracle(&chain, "after 59-deep reorg");
    // The fork miner now owns the rewards of the canonical suffix.
    assert_eq!(chain.balance_of(&fork_miner), 60 * chain.params().block_reward);
}

#[test]
fn duplicate_tip_delivery_is_a_cheap_noop() {
    let alice = addr(b"alice");
    let miner = addr(b"miner");
    let mut chain = test_chain(&[(alice, 1_000)]);
    let block = chain.mine_block(miner, 1_000).unwrap();

    let state_before = chain.state().clone();
    // Re-deliver the current tip (duplicate network delivery): accepted
    // idempotently, no state change, not misread as a reorg.
    let hash = chain.accept_block(block.clone()).unwrap();
    assert_eq!(hash, block.hash());
    assert_eq!(chain.tip(), block.hash());
    assert_eq!(chain.state(), &state_before);
    assert_matches_oracle(&chain, "after duplicate tip delivery");
}

#[test]
fn side_branch_inclusion_does_not_swallow_pending_txs() {
    let alice = addr(b"alice");
    let bob = addr(b"bob");
    let miner = addr(b"miner");
    let mut chain = test_chain(&[(alice, 1_000)]);
    let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
    let genesis = chain.tip();

    // Grow the canonical chain so the genesis fork below stays a side branch.
    chain.mine_block(miner, 1_000).unwrap();
    chain.mine_block(miner, 2_000).unwrap();

    // Submit a payment, then mine it into a *losing* fork off genesis.
    let (inputs, outputs) = chain.plan_payment(&alice, &bob, 40, 1).unwrap();
    let tx = builder.transfer(inputs, outputs, 1);
    let txid = tx.id();
    chain.submit(tx).unwrap();
    let fork_block = chain.mine_block_on(genesis, miner, 3_000).unwrap();
    assert!(!chain.store().is_canonical(&fork_block.hash()), "fork must lose");
    assert!(fork_block.find_tx(&txid).is_some(), "fork block carried the tx");

    // The payment must still be pending and must land canonically later.
    assert_eq!(chain.mempool_len(), 1, "side-branch inclusion kept the tx pending");
    chain.mine_block(miner, 4_000).unwrap();
    assert_eq!(chain.mempool_len(), 0);
    assert!(chain.store().find_canonical_tx(&txid).is_some(), "tx reached the canonical chain");
    assert_eq!(chain.balance_of(&bob), 40);
    assert_matches_oracle(&chain, "after side-branch then canonical inclusion");
}

#[test]
fn winning_fork_flushes_its_txs_from_the_mempool() {
    let alice = addr(b"alice");
    let bob = addr(b"bob");
    let miner = addr(b"miner");
    let mut chain = test_chain(&[(alice, 1_000)]);
    let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
    let genesis = chain.tip();
    chain.mine_block(miner, 1_000).unwrap();
    chain.mine_block(miner, 1_500).unwrap();

    // Mine the payment into a fork off genesis, then extend the fork until
    // it strictly outgrows the main branch. The first fork block is a side
    // branch at height 1 vs a height-2 chain (unambiguously losing, no
    // tie-break involved), so the tx stays pending; the reorg must then
    // flush it.
    let (inputs, outputs) = chain.plan_payment(&alice, &bob, 25, 1).unwrap();
    let tx = builder.transfer(inputs, outputs, 1);
    let txid = tx.id();
    chain.submit(tx).unwrap();
    let f1 = chain.mine_block_on(genesis, miner, 2_000).unwrap();
    assert_eq!(chain.mempool_len(), 1, "tx pending while the fork is losing");
    let f2 = chain.mine_block_on(f1.hash(), miner, 3_000).unwrap();
    chain.mine_block_on(f2.hash(), miner, 4_000).unwrap();

    assert!(chain.store().is_canonical(&f1.hash()), "fork won the reorg");
    assert_eq!(chain.mempool_len(), 0, "reorg flushed the now-canonical tx");
    assert_eq!(chain.store().find_canonical_tx(&txid).map(|(h, _)| h), Some(f1.hash()));
    assert_eq!(chain.balance_of(&bob), 25);
    assert_matches_oracle(&chain, "after winning fork flush");
}

#[test]
fn canonical_indexes_agree_with_parent_walk() {
    // The height and tx indexes must agree with first-principles parent-link
    // walks after heavy forking.
    let alice = addr(b"alice");
    let bob = addr(b"bob");
    let miner = addr(b"miner");
    let mut chain = test_chain(&[(alice, 50_000)]);
    let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
    let mut rng = Seeded::new(7);
    let mut submitted = Vec::new();

    for step in 0..60u64 {
        let now = 1_000 * (step + 1);
        if rng.below(2) == 0 {
            if let Some((inputs, outputs)) = chain.plan_payment(&alice, &bob, 3, 1) {
                let tx = builder.transfer(inputs, outputs, 1);
                submitted.push(tx.id());
                chain.submit(tx).unwrap();
            }
            chain.mine_block(miner, now).unwrap();
        } else {
            let depth = rng.below(4);
            let height = chain.height().saturating_sub(depth);
            let parent = chain.store().canonical_block_at_height(height).unwrap();
            chain.mine_block_on(parent, miner, now).unwrap();
        }
    }

    let store = chain.store();
    // Walk the canonical chain by parent links and compare every answer.
    let mut by_walk = Vec::new();
    let mut cursor = chain.tip();
    loop {
        by_walk.push(cursor);
        let header = store.header(&cursor).unwrap();
        if header.is_genesis() {
            break;
        }
        cursor = header.parent;
    }
    by_walk.reverse();
    assert_eq!(store.canonical_hashes(), by_walk.as_slice());
    for (height, hash) in by_walk.iter().enumerate() {
        assert_eq!(store.canonical_block_at_height(height as u64), Some(*hash));
        assert!(store.is_canonical(hash));
        assert_eq!(store.depth_of(hash), Some((by_walk.len() - 1 - height) as u64));
    }
    // Every canonical tx the index reports must really be in that block at
    // that position; every submitted tx found canonically must match a scan.
    for txid in &submitted {
        let indexed = store.find_canonical_tx(txid);
        let scanned =
            by_walk.iter().find_map(|h| store.get(h).unwrap().find_tx(txid).map(|idx| (*h, idx)));
        assert_eq!(indexed, scanned, "tx index diverged for {txid}");
    }
}
