//! The paper's introduction, as a runnable comparison: exchanging tokens
//! through a trusted centralized exchange versus a peer-to-peer atomic
//! cross-chain transaction under AC3WN.
//!
//! Alice owns 50 units on chain A and wants Bob's 80 units on chain B.
//!
//! * **Centralized exchange (Trent)** — both sides first transfer their
//!   assets to Trent, then Trent pays each of them out on the other chain:
//!   four on-chain transactions, four transfer fees, and complete trust in
//!   Trent. Nothing forces Trent (or the counterparty) to complete the
//!   second half — the example also runs the abscond case, where Alice and
//!   Bob simply lose their deposits.
//! * **AC3WN** — one witness contract plus one asset contract per edge,
//!   executed atomically with no trusted intermediary; the only overhead
//!   over the hashlock baselines is the witness contract and its single
//!   state-change call (Section 6.2).
//!
//! Run with: `cargo run --example exchange_vs_p2p`

use ac3wn::prelude::*;

/// Submit a plain transfer of `amount` from `from` to `to` on `chain`.
fn transfer(
    scenario: &mut Scenario,
    from: &str,
    to: &str,
    chain: ChainId,
    amount: Amount,
) -> Result<TxId, String> {
    let fee = scenario.world.chain(chain).unwrap().params().transfer_fee;
    let from_addr = scenario.participants.get(from).unwrap().address();
    let to_addr = scenario.participants.get(to).unwrap().address();
    let (inputs, outputs) = scenario
        .world
        .chain(chain)
        .unwrap()
        .plan_payment(&from_addr, &to_addr, amount, fee)
        .ok_or_else(|| format!("{from} cannot fund the transfer"))?;
    let tx =
        scenario.participants.get_mut(from).unwrap().builder(chain).transfer(inputs, outputs, fee);
    let txid = scenario.world.submit(chain, tx).map_err(|e| e.to_string())?;
    scenario.world.wait_for_depth(chain, txid, 0, 60_000).map_err(|e| e.to_string())?;
    Ok(txid)
}

fn balances(scenario: &Scenario, who: &str) -> (Amount, Amount) {
    let addr = scenario.participants.get(who).unwrap().address();
    let a = scenario.world.chain(scenario.asset_chains[0]).unwrap().balance_of(&addr);
    let b = scenario.world.chain(scenario.asset_chains[1]).unwrap().balance_of(&addr);
    (a, b)
}

fn print_balances(scenario: &Scenario, label: &str) {
    println!("  {label}");
    for who in ["alice", "bob", "trent"] {
        if scenario.participants.get(who).is_none() {
            continue;
        }
        let (a, b) = balances(scenario, who);
        println!("    {who:<6} chain A: {a:>5}   chain B: {b:>5}");
    }
}

/// Both legs of the exchange settle honestly: 4 transactions, 4 fees, and
/// the whole flow hinges on Trent behaving.
fn exchange_honest() {
    println!("\n=== Route 1: centralized exchange, Trent behaves ===");
    let mut s = custom_scenario(
        &["alice", "bob", "trent"],
        &[(0, 1, 50), (1, 0, 80)],
        &ScenarioConfig::default(),
    );
    print_balances(&s, "before:");
    let (chain_a, chain_b) = (s.asset_chains[0], s.asset_chains[1]);
    let mut txs = 0;
    txs += transfer(&mut s, "alice", "trent", chain_a, 50).map(|_| 1).unwrap_or(0);
    txs += transfer(&mut s, "bob", "trent", chain_b, 80).map(|_| 1).unwrap_or(0);
    txs += transfer(&mut s, "trent", "alice", chain_b, 80).map(|_| 1).unwrap_or(0);
    txs += transfer(&mut s, "trent", "bob", chain_a, 50).map(|_| 1).unwrap_or(0);
    print_balances(&s, "after:");
    println!("  on-chain transactions: {txs} (paper: four transactions when fiat or deposits are involved)");
    println!("  trust required: full custody of both assets by Trent");
}

/// Trent takes the deposits and never pays out — the trust failure the
/// paper's introduction warns about. No protocol rule is violated; the
/// participants simply lose.
fn exchange_abscond() {
    println!("\n=== Route 2: centralized exchange, Trent absconds ===");
    let mut s = custom_scenario(
        &["alice", "bob", "trent"],
        &[(0, 1, 50), (1, 0, 80)],
        &ScenarioConfig::default(),
    );
    print_balances(&s, "before:");
    let (chain_a, chain_b) = (s.asset_chains[0], s.asset_chains[1]);
    transfer(&mut s, "alice", "trent", chain_a, 50).unwrap();
    transfer(&mut s, "bob", "trent", chain_b, 80).unwrap();
    // Trent simply stops responding.
    print_balances(&s, "after (Trent keeps both deposits):");
    let (alice_a, alice_b) = balances(&s, "alice");
    let (bob_a, bob_b) = balances(&s, "bob");
    println!(
        "  alice lost {} on chain A and received nothing on chain B; bob lost {} on chain B",
        1_000 - alice_a,
        1_000 - bob_b
    );
    debug_assert!(alice_b == 1_000 && bob_a == 1_000);
}

/// The peer-to-peer route: AC3WN commits the swap atomically with no
/// intermediary at all.
fn p2p_ac3wn() {
    println!("\n=== Route 3: peer-to-peer AC3WN ===");
    let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
    print_balances(&s, "before:");
    let cfg = ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() };
    let report = Ac3wn::new(cfg).execute(&mut s).expect("swap executes");
    print_balances(&s, "after:");
    println!("  {}", report.summary());
    println!(
        "  contracts deployed: {} (N + 1: one per edge plus the witness contract SC_w)",
        report.deployments
    );
    println!(
        "  contract calls:     {} (N + 1: one settlement per edge plus SC_w's state change)",
        report.calls
    );
    println!(
        "  trust required: none — the witness network is permissionless, like the asset chains"
    );
    assert!(report.is_atomic());
}

fn main() {
    println!("Exchanging 50 units on chain A for 80 units on chain B (the paper's introduction).");
    exchange_honest();
    exchange_abscond();
    p2p_ac3wn();
    println!(
        "\nSummary: the centralized routes need a trusted custodian and give no atomicity — the \
         abscond run shows both participants simply losing their deposits — while AC3WN commits \
         the same exchange atomically for one extra contract and one extra call."
    );
}
