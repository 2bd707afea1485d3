//! Fee-market integration tests: bounded mempools, replace-by-fee bidding
//! and witness assignment under contention, exercised through the whole
//! stack (chain → sim → core scheduler).
//!
//! The load-bearing property: under *any* contention level, an
//! escalating-policy batch (a) never pays more than the policy cap for any
//! single accepted transaction and (b) preserves commit-or-refund-all
//! atomicity for every swap.

use ac3_seeded::check;
use ac3wn::prelude::*;

fn protocol_cfg(policy: FeePolicy) -> ProtocolConfig {
    ProtocolConfig {
        witness_depth: 3,
        deployment_depth: 3,
        // Contended witness chains queue submissions many blocks deep.
        wait_cap_deltas: 256,
        fee_policy: policy,
        ..Default::default()
    }
}

fn machines(s: &MultiSwapScenario, driver: &Ac3wn) -> Vec<(SwapId, Box<dyn SwapMachine>)> {
    s.machines_with(|swap| Box::new(driver.machine(swap.graph.clone(), swap.witness)))
}

/// Property: random batch size × witness-chain count × witness tps ×
/// base-fee schedule × escalation policy — accepted fees never exceed the
/// policy cap and every swap ends atomically (commit-or-refund-all), with
/// the dynamic base fee moving the admission floor under the batch's feet.
///
/// Runs 10 cases so the number of simulated batches stays bounded.
#[test]
fn property_escalating_fees_respect_the_cap_and_atomicity() {
    check("fee_market::cap_and_atomicity", 10, |gen| {
        let case = gen.case();
        let swaps = 2 + gen.below(7) as usize; // 2..=8
        let witnesses = 1 + gen.below(3) as usize; // 1..=3
        let witness_tps = 1 + gen.below(4); // 1..=4 — the contention level

        // Caps stay far above any base fee the bounded schedules below can
        // reach, so the contention delays swaps instead of failing them.
        let cap = 48 + gen.below(80); // 48..=127
        let policy = match gen.below(2) {
            0 => FeePolicy::Exponential { cap },
            _ => FeePolicy::Adaptive { margin: gen.below(4), cap },
        };
        // Random miner-side schedule: the base fee may be pinned at zero
        // (disabled), pinned at a positive floor, or fully dynamic.
        let schedule = BaseFeeSchedule {
            floor: gen.below(3),
            target_utilisation_pct: 25 + (25 * gen.below(3)) as u32,
            max_change_pct: gen.below(16) as u32,
        };

        let asset_params: Vec<ChainParams> =
            (0..2).map(|i| ChainParams::fast(&format!("asset-{i}"), 1_000)).collect();
        let witness_params: Vec<ChainParams> = (0..witnesses)
            .map(|i| {
                ChainParams::fast(&format!("witness-{i}"), witness_tps).with_base_fee(schedule)
            })
            .collect();
        let mut s = concurrent_swaps_multi_witness(swaps, asset_params, witness_params, 10_000);
        let driver = Ac3wn::new(protocol_cfg(policy));
        let ms = machines(&s, &driver);
        let batch = Scheduler::default().run(&mut s.world, &mut s.participants, ms);

        let ctx = format!(
            "case {case}: swaps={swaps} witnesses={witnesses} tps={witness_tps} {policy:?} {schedule:?}"
        );
        assert_eq!(batch.failed(), 0, "{ctx}: contention must delay, not fail");
        assert!(batch.all_atomic(), "{ctx}: atomicity (commit-or-refund-all) violated");
        assert_eq!(batch.committed(), swaps, "{ctx}: healthy swaps all commit");

        // No accepted (canonical) transaction on any chain ever paid more
        // than the policy cap — the cap is a hard per-transaction ceiling.
        for chain in s.world.chain_ids() {
            let c = s.world.chain(chain).unwrap();
            for block in c.store().canonical_blocks() {
                for tx in &block.transactions {
                    if !tx.is_coinbase() {
                        assert!(
                            tx.fee <= cap,
                            "{ctx}: accepted tx paid {} above the cap {cap}",
                            tx.fee
                        );
                    }
                }
            }
        }
        // Per-swap bills are bounded by cap × transactions, and attribution
        // still adds up to the world ledger.
        for (id, report) in batch.reports() {
            let txs = report.deployments + report.calls;
            assert!(
                report.fees_paid <= cap * txs,
                "{ctx}: swap {id} paid {} over {txs} txs with cap {cap}",
                report.fees_paid
            );
            assert!(report.fees_paid >= report.fees_scheduled, "{ctx}: paid below schedule");
            assert_eq!(
                s.world.fees.fees_for_swap(*id),
                report.fees_paid,
                "{ctx}: ledger attribution disagrees with the swap's own tally"
            );
        }
        s.world.assert_state_integrity();
    });
}

/// The fee market is observable end to end: a starved shared witness chain
/// forces re-bids under an escalating policy, the extra fees show up in
/// both the per-swap reports and the world ledger, and a fixed-fee batch
/// on the identical workload pays exactly the Section 6.2 schedule.
#[test]
fn escalation_is_visible_in_reports_and_ledger() {
    let build = || {
        let asset_params: Vec<ChainParams> =
            (0..2).map(|i| ChainParams::fast(&format!("asset-{i}"), 1_000)).collect();
        let witness_params = vec![ChainParams::fast("witness", 1)];
        concurrent_swaps_multi_witness(8, asset_params, witness_params, 10_000)
    };

    let mut fixed = build();
    let fixed_driver = Ac3wn::new(protocol_cfg(FeePolicy::Fixed));
    let fixed_ms = machines(&fixed, &fixed_driver);
    let fixed_batch = Scheduler::default().run(&mut fixed.world, &mut fixed.participants, fixed_ms);
    let fixed_stats = fixed_batch.fee_stats();
    assert_eq!(fixed_batch.committed(), 8);
    assert_eq!(fixed_stats.rebids, 0);
    assert_eq!(fixed_stats.fees_paid, fixed_stats.fees_scheduled);

    let mut market = build();
    let market_driver = Ac3wn::new(protocol_cfg(FeePolicy::Exponential { cap: 64 }));
    let market_ms = machines(&market, &market_driver);
    let market_batch =
        Scheduler::default().run(&mut market.world, &mut market.participants, market_ms);
    let market_stats = market_batch.fee_stats();
    assert_eq!(market_batch.committed(), 8);
    assert!(market_stats.rebids > 0, "starved witness chain must force re-bids");
    assert!(market_stats.fees_paid > market_stats.fees_scheduled);
    assert!(market_stats.mean_inflation > 1.0);
    // Identical scheduled work on both runs: the market only changes the
    // price of the same operations.
    assert_eq!(market_stats.fees_scheduled, fixed_stats.fees_scheduled);
}

/// Griefing economics at the ledger level: to displace honest
/// transactions from a bounded mempool the flooder must strictly outbid
/// every resident it evicts, and evicted victims are refunded by the fee
/// ledger — so a full displacement costs the attacker strictly more than
/// the fee mass it displaced, and the victims end up paying nothing.
#[test]
fn mempool_flooding_costs_more_than_the_fees_it_displaces() {
    const VICTIMS: SwapId = SwapId(1);
    const FLOODER: SwapId = SwapId(2);

    let mut world = World::new();
    let mut params = ChainParams::fast("griefed", 1_000);
    params.mempool_capacity = 6;
    // Nothing mines during the exchange: the pool is the battleground.
    params.block_interval_ms = 1_000_000;
    let chain = world.add_chain(params, &[]);

    // Six honest bidders at fees 2..=7 fill the pool.
    let mut honest = ac3wn::chain::TxBuilder::new(KeyPair::from_seed(b"honest"), 0);
    world.set_fee_attribution(Some(VICTIMS));
    let mut victim_fees: Amount = 0;
    let mut victim_txs = Vec::new();
    for i in 0..6u8 {
        let phantom = ac3wn::chain::OutPoint::new(TxId(Hash256::digest(&[i, 0xAA])), 0);
        let fee = 2 + Amount::from(i);
        victim_fees += fee;
        victim_txs.push(world.submit(chain, honest.transfer(vec![phantom], vec![], fee)).unwrap());
    }
    assert_eq!(world.fees.fees_for_swap(VICTIMS), victim_fees);

    // Matching the cheapest resident's fee is not enough: admission into a
    // full pool demands strictly more than the eviction candidate.
    let mut flooder = ac3wn::chain::TxBuilder::new(KeyPair::from_seed(b"flooder"), 1 << 40);
    world.set_fee_attribution(Some(FLOODER));
    let tie = ac3wn::chain::OutPoint::new(TxId(Hash256::digest(b"tie")), 0);
    assert!(world.submit(chain, flooder.transfer(vec![tie], vec![], 2)).is_err());
    assert_eq!(world.fees.fees_for_swap(FLOODER), 0, "a rejected bid is never billed");

    // Displace the whole pool: each flood transaction outbids the highest
    // victim fee, so all six evictions hit victims (never the flooder's
    // own earlier bids).
    let flood_fee = 8;
    for i in 0..6u8 {
        let phantom = ac3wn::chain::OutPoint::new(TxId(Hash256::digest(&[i, 0xBB])), 0);
        world.submit(chain, flooder.transfer(vec![phantom], vec![], flood_fee)).unwrap();
    }
    world.set_fee_attribution(None);

    let pool = world.chain(chain).unwrap();
    assert_eq!(pool.mempool_len(), 6);
    for tx in &victim_txs {
        assert!(!pool.mempool_contains(tx), "every victim was displaced");
    }
    // The attack's economics, straight from the attributed ledger: the
    // victims were refunded in full, and the flooder's net spend strictly
    // exceeds the displaced fee mass (each eviction outbids its victim).
    assert_eq!(world.fees.fees_for_swap(VICTIMS), 0, "evicted victims are refunded");
    let flood_cost = world.fees.fees_for_swap(FLOODER);
    assert_eq!(flood_cost, 6 * flood_fee);
    assert!(
        flood_cost > victim_fees,
        "displacing {victim_fees} in honest fees cost the flooder only {flood_cost}"
    );
}

/// The escalation policy buys liveness under a griefing campaign: the
/// *same* seeded flood + base-fee-spike attack, run once under `Fixed`
/// bidding and once under `Adaptive`, leaves the fixed AC3WN lane priced
/// out (zero commits — every swap falls back to refund-all when its
/// witness traffic can't get mined) while the adaptive lane commits every
/// swap, paying a measurable fee premium for it. Safety holds in both
/// worlds; only the escalating bidder keeps liveness.
///
/// Seed 23 is pinned because its griefing windows overlap the witness
/// traffic of both AC3WN swaps in the mixed batch (probed over 0..30).
#[test]
fn adaptive_bidding_out_survives_fixed_under_a_griefing_spike() {
    let run = |policy: FeePolicy| {
        let mut cfg = CampaignConfig::new(23);
        cfg.swaps = 6;
        cfg.space = CampaignSpace { floods: 1, spikes: 1, ..CampaignSpace::quiet() };
        cfg.space.griefing_budget = 4_000;
        cfg.protocol.fee_policy = policy;
        run_campaign(&cfg).expect("campaign executes")
    };
    let fixed = run(FeePolicy::Fixed);
    let adaptive = run(FeePolicy::Adaptive { margin: 1, cap: 64 });

    // Safety is policy-independent: both runs settle every honest swap
    // atomically with no protocol errors.
    for (name, r) in [("fixed", &fixed), ("adaptive", &adaptive)] {
        assert_eq!(r.failed, 0, "{name}: honest machine errored: {:?}", r.failures);
        assert_eq!(r.adversary_failures, 0, "{name}: adversary errored: {:?}", r.failures);
        assert!(r.atomic, "{name}: atomicity audit failed");
    }

    // Liveness is not: the fixed AC3WN lane is priced out of its witness
    // chain and refunds everything, the adaptive lane commits everything.
    fn lane(r: &CampaignReport) -> &ProtocolLane {
        r.per_protocol.get("Ac3Wn").expect("AC3WN lane present")
    }
    assert_eq!(lane(&fixed).committed, 0, "fixed bidders must be priced out under the spike");
    let survived = lane(&adaptive);
    assert_eq!(survived.committed, survived.swaps, "every adaptive AC3WN swap commits");

    // And the premium the adaptive batch paid for that liveness is visible
    // in the ledger: paid above schedule, while the priced-out fixed batch
    // paid nothing beyond it.
    assert!(
        adaptive.honest_fees_paid > adaptive.honest_fees_scheduled,
        "escalation premium must be visible ({} paid vs {} scheduled)",
        adaptive.honest_fees_paid,
        adaptive.honest_fees_scheduled
    );
    assert!(
        fixed.honest_fees_paid <= fixed.honest_fees_scheduled,
        "a fixed-fee batch never pays above schedule"
    );
    assert!(
        adaptive.honest_fees_paid > fixed.honest_fees_paid,
        "liveness under the spike is bought, not free"
    );
}

/// Least-loaded witness assignment beats static round-robin when one
/// witness network is congested: the scheduler observes mempool depths at
/// launch and routes every swap to the healthy chain.
#[test]
fn least_loaded_assignment_avoids_a_congested_witness_network() {
    let asset_params: Vec<ChainParams> =
        (0..2).map(|i| ChainParams::fast(&format!("asset-{i}"), 1_000)).collect();
    let witness_params: Vec<ChainParams> =
        (0..2).map(|i| ChainParams::fast(&format!("witness-{i}"), 1_000)).collect();
    let mut s = concurrent_swaps_multi_witness(6, asset_params, witness_params, 10_000);

    // Congest witness 0 with junk that never mines but keeps the queue deep.
    let mut spammer = ac3wn::chain::TxBuilder::new(KeyPair::from_seed(b"spammer"), 1 << 40);
    for i in 0..40u8 {
        let phantom = ac3wn::chain::OutPoint::new(TxId(Hash256::digest(&[i, 0x55])), 0);
        s.world.submit(s.witness_chains[0], spammer.transfer(vec![phantom], vec![], 0)).unwrap();
    }

    let driver = Ac3wn::new(protocol_cfg(FeePolicy::Fixed));
    let seeds =
        s.seeds_with(move |swap, witness| Box::new(driver.machine(swap.graph.clone(), witness)));
    let witness_chains = s.witness_chains.clone();
    let batch = Scheduler::default().run_assigned(
        &mut s.world,
        &mut s.participants,
        &witness_chains,
        WitnessAssignment::LeastLoaded,
        seeds,
    );
    assert_eq!(batch.committed(), 6);
    assert!(batch.all_atomic());
    let counts = batch.witness_assignments();
    assert_eq!(counts.get(&witness_chains[0]), None, "congested witness gets no swaps");
    assert_eq!(counts.get(&witness_chains[1]), Some(&6));
}
