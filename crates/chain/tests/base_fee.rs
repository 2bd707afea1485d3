//! Differential and property tests of the dynamic per-block base fee.
//!
//! The base fee lives in the derived [`ChainState`] and is updated by every
//! accepted canonical block from the parent block's fullness, so it must
//! obey three invariants whatever the workload:
//!
//! 1. **Bounded movement** — between consecutive canonical states the base
//!    fee never moves by more than the schedule's max per-block adjustment
//!    (`max(1, current · max_change_pct / 100)`).
//! 2. **Floor** — it never drops below the schedule's floor.
//! 3. **Reorg determinism** — after any reorg the materialized base fee
//!    equals a from-fork-point replay, checked here against the
//!    from-genesis oracle [`Blockchain::replay_state_from_genesis`] (the
//!    same differential pattern as `incremental_state.rs`).

use ac3_chain::{
    coinbase, Address, Amount, BaseFeeSchedule, Blockchain, ChainId, ChainParams, EchoVm, OutPoint,
    TxBuilder, TxOutput,
};
use ac3_crypto::KeyPair;
use ac3_seeded::check;
use std::sync::Arc;

fn addr(seed: &[u8]) -> Address {
    Address::from(KeyPair::from_seed(seed).public())
}

// Generous enough that the admission floor stays affordable even after the
// worst-case geometric base-fee climb a test can produce.
const OUTPUT_VALUE: Amount = 1_000_000;

/// A chain whose blocks hold `budget` transactions, priced by `schedule`,
/// with `outputs` independent genesis coinbases so random demand never
/// conflicts in the mempool.
fn chain_with(schedule: BaseFeeSchedule, budget: u64, outputs: usize) -> (Blockchain, Address) {
    let alice = addr(b"alice");
    let mut params = ChainParams::test("base-fee-prop");
    params.block_interval_ms = 1_000;
    params.tps = budget;
    params.base_fee_schedule = schedule;
    let allocs = vec![(alice, OUTPUT_VALUE); outputs];
    (Blockchain::new(ChainId(0), params, Arc::new(EchoVm), &allocs), alice)
}

/// Submit `count` single-input transfers at the current admission floor,
/// each spending its own genesis coinbase (`spent` advances the cursor).
fn submit_demand(
    chain: &mut Blockchain,
    builder: &mut TxBuilder,
    alice: Address,
    spent: &mut u64,
    count: u64,
) {
    for _ in 0..count {
        let input = OutPoint::new(coinbase(alice, OUTPUT_VALUE, *spent).id(), 0);
        *spent += 1;
        let fee = chain.mempool_fee_floor();
        let change = vec![TxOutput::new(alice, OUTPUT_VALUE - fee)];
        chain.submit(builder.transfer(vec![input], change, fee)).unwrap();
    }
}

#[test]
fn base_fee_moves_within_bounds_under_random_demand() {
    // Random schedules × random per-block demand: the per-block movement
    // bound and the floor hold at every canonical extension.
    check("base_fee::bounds", 8, |g| {
        let case = g.case();
        let schedule = BaseFeeSchedule {
            floor: g.below(4),
            target_utilisation_pct: 25 + 25 * g.below(3) as u32, // 25/50/75
            max_change_pct: g.below(30) as u32,                  // 0 disables
        };
        let budget = 2 + g.below(5); // 2..=6 txs per block
        let (mut chain, alice) = chain_with(schedule, budget, 512);
        let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let miner = addr(b"miner");
        let mut spent = 0u64;

        for block in 0..40u64 {
            let before = chain.base_fee();
            let demand = g.below(budget + 2); // sometimes overfull, sometimes idle
            submit_demand(&mut chain, &mut builder, alice, &mut spent, demand);
            chain.mine_block(miner, 1_000 * (block + 1)).unwrap();
            let after = chain.base_fee();
            let ctx = format!("case {case} block {block}: {before} -> {after} ({schedule:?})");
            assert!(after >= schedule.floor, "floor violated: {ctx}");
            if schedule.max_change_pct == 0 {
                assert_eq!(after, before, "static schedule moved: {ctx}");
            } else {
                assert!(
                    after.abs_diff(before) <= schedule.max_step(before),
                    "max per-block adjustment violated: {ctx}"
                );
            }
        }
        // The mempool's admission gate always mirrors the canonical state.
        assert_eq!(chain.mempool_fee_floor().max(chain.base_fee()), chain.mempool_fee_floor());
        assert_eq!(chain.state(), &chain.replay_state_from_genesis(), "case {case}: oracle");
    });
}

#[test]
fn random_reorgs_replay_the_base_fee_from_the_fork_point() {
    // The incremental_state.rs differential pattern with the base fee in
    // play: random interleavings of demand-heavy tip extensions and fork
    // mining (which reorgs onto emptier branches), comparing the full
    // materialized state — base fee included — against the from-genesis
    // replay oracle after every step.
    check("base_fee::reorgs", 1, |g| {
        let schedule = BaseFeeSchedule::eip1559_like();
        let (mut chain, alice) = chain_with(schedule, 4, 1024);
        let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
        let miner = addr(b"miner");
        let mut spent = 0u64;
        let mut reorgs_seen = 0u32;

        for step in 0..120u64 {
            let now = 1_000 * (step + 1);
            let roll = g.below(10);
            if roll < 5 {
                // Extend the tip with random demand (often full blocks, so the
                // base fee climbs and the branches genuinely disagree on it).
                submit_demand(&mut chain, &mut builder, alice, &mut spent, g.below(6));
                chain.mine_block(miner, now).unwrap();
            } else {
                // Mine on an ancestor or — more often than not — a competing
                // fork tip, so side branches grow long enough to win: the
                // winning branch carries different fullness history, and its
                // base fee must be re-derived from the fork point.
                let tip_before = chain.tip();
                let parent = if roll >= 7 {
                    chain
                        .store()
                        .tips()
                        .into_iter()
                        .find(|t| *t != tip_before)
                        .unwrap_or(tip_before)
                } else {
                    let depth = 1 + g.below(4);
                    let height = chain.height().saturating_sub(depth);
                    chain.store().canonical_block_at_height(height).unwrap()
                };
                chain.mine_block_on(parent, miner, now).unwrap();
                if chain.tip() != tip_before && !chain.store().is_canonical(&tip_before) {
                    reorgs_seen += 1;
                }
            }
            let oracle = chain.replay_state_from_genesis();
            assert_eq!(
                chain.state(),
                &oracle,
                "step {step}: incremental state (incl. base fee) diverged from full replay"
            );
            assert_eq!(chain.base_fee(), oracle.base_fee, "step {step}: base fee diverged");
        }
        assert!(reorgs_seen > 0, "interleaving never produced a reorg — test lost its teeth");
        assert!(chain.base_fee() >= schedule.floor);
    });
}

#[test]
fn deep_reorg_past_snapshot_capacity_rederives_the_base_fee() {
    // A fork rooted near genesis outgrows a demand-heavy main branch: the
    // replayed base fee must match the oracle even when state restoration
    // falls back past the snapshot cache, and the emptier branch must not
    // inherit the demand branch's elevated fee.
    let schedule = BaseFeeSchedule::eip1559_like();
    let (mut chain, alice) = chain_with(schedule, 4, 1024);
    let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);
    let miner = addr(b"miner");
    let fork_miner = addr(b"fork-miner");
    let mut spent = 0u64;

    for i in 0..40u64 {
        submit_demand(&mut chain, &mut builder, alice, &mut spent, 4);
        chain.mine_block(miner, 1_000 * (i + 1)).unwrap();
    }
    let elevated = chain.base_fee();
    assert!(elevated > schedule.floor + 10, "sustained demand raised the fee (got {elevated})");

    let fork_base = chain.store().canonical_block_at_height(1).unwrap();
    let mut parent = fork_base;
    for i in 0..60u64 {
        let block = chain.mine_block_on(parent, fork_miner, 100_000 + i).unwrap();
        parent = block.hash();
    }
    assert_eq!(chain.height(), 61, "fork outgrew the main branch");
    let oracle = chain.replay_state_from_genesis();
    assert_eq!(chain.state(), &oracle, "deep reorg: state equals from-genesis replay");
    assert!(
        chain.base_fee() < elevated,
        "the empty branch decayed the fee ({} vs {elevated})",
        chain.base_fee()
    );
    assert_eq!(chain.base_fee(), schedule.floor, "59 empty blocks reach the floor");
}
