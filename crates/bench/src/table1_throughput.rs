//! Table 1 and Section 6.4: AC2T throughput.
//!
//! The analytical claim: the throughput of AC2Ts spanning a fixed set of
//! chains, witnessed by a fixed chain, is `min(tps)` over all involved
//! chains including the witness. We print Table 1 itself, the paper's
//! worked example (Ethereum + Litecoin witnessed by Bitcoin = 7 tps), and a
//! measured cross-check: tps-capped simulated chains processing a backlog
//! of transfer transactions, confirming each chain sustains its Table 1
//! rate and the combination is bounded by the slowest member.
//!
//! Both are asserted exactly: each simulated chain sustains exactly its
//! Table 1 rate (7/25/56/61 tps), and each Section 6.4 combination's AC2T
//! throughput is the minimum of the measured rates of the chains involved,
//! the witness included.

use crate::{f2, print_table, Record};
use ac3_chain::{Address, ChainParams, TxBuilder, TxOutput};
use ac3_core::analysis::throughput;
use ac3_crypto::KeyPair;
use ac3_sim::World;

/// Measure the sustained transaction throughput of one simulated chain by
/// flooding it with simple transfers for `seconds` of simulated time.
fn measured_tps(params: ChainParams, seconds: u64) -> f64 {
    let alice = Address::from(KeyPair::from_seed(b"alice").public());
    let mut world = World::new();
    // Fund alice generously so input selection never runs dry.
    let chain = world.add_chain(params, &[(alice, 1_000_000_000)]);
    let mut builder = TxBuilder::new(KeyPair::from_seed(b"alice"), 0);

    // Submit a large backlog of self-payments (keeps the mempool saturated).
    let backlog = 4_000u64;
    let per_tx = 10u64;
    let mut outpoints = Vec::new();
    {
        let c = world.chain(chain).unwrap();
        let outs = c.state().utxos.outputs_of(&alice);
        outpoints.extend(outs.into_iter().map(|(op, _)| op));
    }
    // Split the single genesis output into many spendable outputs first.
    let split_outputs: Vec<TxOutput> = (0..backlog).map(|_| TxOutput::new(alice, per_tx)).collect();
    let split = builder.transfer(outpoints, split_outputs, 0);
    world.submit(chain, split).unwrap();
    world.advance(world.chain(chain).unwrap().params().block_interval_ms);

    // Now one self-transfer per UTXO.
    let outs = world.chain(chain).unwrap().state().utxos.outputs_of(&alice);
    for (op, out) in outs.into_iter().take(backlog as usize) {
        let tx = builder.transfer(vec![op], vec![TxOutput::new(alice, out.value)], 0);
        let _ = world.submit(chain, tx);
    }

    let start_height = world.chain(chain).unwrap().height();
    let start_time = world.now();
    world.advance(seconds * 1_000);
    let c = world.chain(chain).unwrap();
    // Count non-coinbase transactions mined after start_height.
    let mined: u64 = c
        .store()
        .canonical_blocks()
        .filter(|b| b.header.height > start_height)
        .map(|b| b.transactions.iter().filter(|t| !t.is_coinbase()).count() as u64)
        .sum();
    mined as f64 / ((world.now() - start_time) as f64 / 1000.0)
}

/// Measure the Table 1 chains and assert the `min(tps)` bound.
pub fn run() -> Vec<Record> {
    // Table 1 itself.
    let t1 = throughput::table1();
    let table1_rows: Vec<Vec<String>> =
        t1.iter().map(|c| vec![c.name.to_string(), c.tps.to_string()]).collect();
    print_table(
        "Table 1: throughput of the top-4 permissionless cryptocurrencies",
        &["Blockchain", "tps"],
        &table1_rows,
    );

    // Measured per-chain throughput of the simulated equivalents.
    // Scale the simulation: use 10-second blocks (rather than full 10-minute
    // Bitcoin blocks) while keeping each chain's Table 1 tps cap, so the
    // measurement completes quickly; the per-block budget is what matters.
    // 60 s × 61 tps ≈ 3.7k transactions — comfortably inside the 4k backlog,
    // so the measurement is capped by the chain's tps budget, not the
    // workload.
    let sim_seconds = 60;
    let mut measured = Vec::new();
    let mut measured_rows = Vec::new();
    for (base, row) in ChainParams::table1().into_iter().zip(&t1) {
        let mut p = base.clone();
        p.block_interval_ms = 10_000;
        let tps = measured_tps(p, sim_seconds);
        assert_eq!(tps, row.tps as f64, "{} sustains exactly its Table 1 rate", row.name);
        measured_rows.push(vec![base.name.clone(), base.tps.to_string(), f2(tps)]);
        measured.push(tps);
    }
    print_table(
        "Measured sustained tps of the simulated chains (tps-capped blocks)",
        &["Chain", "Table 1 tps", "measured tps"],
        &measured_rows,
    );

    // Section 6.4 combinations, as indices into Table 1: the asset chains
    // and the witness.
    let combos: [(&str, &[usize], usize); 5] = [
        ("Ethereum + Litecoin", &[1, 2], 0),
        ("Ethereum + Litecoin", &[1, 2], 1),
        ("Bitcoin + Ethereum", &[0, 1], 0),
        ("Litecoin + Bitcoin Cash", &[2, 3], 2),
        ("All four", &[0, 1, 2, 3], 3),
    ];
    let mut combo_table = Vec::new();
    for (chains, assets, witness) in combos {
        let tps: Vec<u64> = assets.iter().map(|&i| t1[i].tps).collect();
        let model = throughput::ac2t_throughput(&tps, t1[witness].tps);
        let bottleneck =
            assets.iter().chain([&witness]).map(|&i| measured[i]).fold(f64::MAX, f64::min);
        assert_eq!(
            model as f64, bottleneck,
            "{chains} witnessed by {}: AC2T tps is min(tps)",
            t1[witness].name
        );
        combo_table.push(vec![chains.to_string(), t1[witness].name.to_string(), model.to_string()]);
    }
    print_table(
        "Section 6.4: AC2T throughput = min(tps) over involved chains + witness",
        &["asset chains", "witness", "AC2T tps"],
        &combo_table,
    );
    let (btc, eth) = throughput::section64_example();
    println!(
        "\nPaper's example: Ethereum+Litecoin witnessed by Bitcoin ⇒ {btc} tps; choosing the witness \
         among the involved chains (Ethereum) lifts it to {eth} tps."
    );
    Vec::new()
}
