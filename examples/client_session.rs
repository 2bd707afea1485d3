//! A downstream application's view of an atomic swap: wallets, off-chain
//! negotiation of `ms(D)`, and a persistent swap session that survives a
//! client crash between the commit decision and settlement.
//!
//! The flow mirrors what a real wallet integration would do:
//!
//! 1. Alice and Bob each hold a [`Wallet`]; Alice proposes the swap graph
//!    and both contribute signature shares until `ms(D)` is complete.
//! 2. A [`SwapSession`] runs the AC3WN machine until the witness network's
//!    commit decision is buried `d` blocks deep — just before the poll that
//!    would settle — and persists itself to a JSON file.
//! 3. The client process "crashes" there (we drop the session object). The
//!    world keeps mining blocks meanwhile.
//! 4. A fresh process reloads the session from the JSON file and settles the
//!    swap — possible precisely because AC3WN has no timelock racing against
//!    the recovery (the paper's commitment property).
//!
//! Run with: `cargo run --example client_session`

use ac3wn::client::{Negotiation, SwapSession, Wallet};
use ac3wn::prelude::*;

fn main() {
    let scenario_cfg = ScenarioConfig::default();
    let mut scenario = two_party_scenario(50, 80, &scenario_cfg);
    let protocol_cfg =
        ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() };

    // ---------------------------------------------------------------------
    // 1. Wallets and off-chain negotiation.
    // ---------------------------------------------------------------------
    let alice = Wallet::new("alice");
    let bob = Wallet::new("bob");
    println!("Alice's address: {}", alice.address());
    println!("Bob's   address: {}", bob.address());
    println!(
        "Funding before the swap — alice: {} total, bob: {} total",
        alice.total_balance(&scenario.world),
        bob.total_balance(&scenario.world)
    );

    let mut negotiation = Negotiation::new(scenario.graph.clone());
    negotiation.submit(alice.sign_proposal(negotiation.proposal())).expect("alice signs");
    println!(
        "\nAlice signed; still waiting on {} participant(s)",
        negotiation.missing_signers().len()
    );
    negotiation.submit(bob.sign_proposal(negotiation.proposal())).expect("bob signs");
    let signed = negotiation.finalize().expect("ms(D) verifies");
    println!("ms(D) complete: {} participants signed the graph", signed.graph.participants().len());

    // ---------------------------------------------------------------------
    // 2. Run the swap until the decision is buried, then persist it.
    // ---------------------------------------------------------------------
    let state_file = std::env::temp_dir().join("ac3wn-client-session.json");
    let (witness, d) = (scenario.witness_chain, protocol_cfg.witness_depth);
    let mut session = SwapSession::new(signed, witness, protocol_cfg).expect("session starts");
    let finished = session
        .run_until(&mut scenario.world, &mut scenario.participants, |machine, world| {
            machine.authorize_txid().is_some_and(|txid| {
                world.chain(witness).unwrap().tx_depth(&txid).is_some_and(|depth| depth >= d)
            })
        })
        .expect("protocol runs");
    assert!(finished.is_none(), "the swap stops before it settles");
    let scw = session.machine().witness_contract().expect("SC_w registered");
    let (state, _) = scenario.world.contract_state(witness, scw).expect("SC_w on chain");
    println!(
        "\nSC_w is in state {state}, {d} blocks deep (phase {})",
        session.machine().phase_name()
    );
    std::fs::write(&state_file, session.to_json()).expect("persist session state");
    println!("session persisted to {}", state_file.display());

    // ---------------------------------------------------------------------
    // 3. The client crashes before settling. Time passes.
    // ---------------------------------------------------------------------
    drop(session);
    println!("client crashed before settlement; the chains keep producing blocks...");
    scenario.world.advance(30_000);

    // ---------------------------------------------------------------------
    // 4. A new process reloads the session and settles the swap.
    // ---------------------------------------------------------------------
    let snapshot = std::fs::read_to_string(&state_file).expect("read persisted session");
    let mut recovered = SwapSession::from_json(&snapshot).expect("session state decodes");
    println!("recovered session in phase {}", recovered.machine().phase_name());
    let report = recovered
        .run_to_completion(&mut scenario.world, &mut scenario.participants)
        .expect("settlement completes");
    println!("decision:    {:?}", report.decision);
    println!("verdict:     {}", report.verdict());
    println!(
        "Funding after the swap — alice: {} total, bob: {} total (fees paid: {})",
        alice.total_balance(&scenario.world),
        bob.total_balance(&scenario.world),
        report.fees_paid
    );
    assert!(report.is_atomic());
    let _ = std::fs::remove_file(&state_file);
}
