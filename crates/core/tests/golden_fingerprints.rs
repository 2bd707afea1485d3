//! Golden fingerprints of the hashlock-swap family (Nolan, Herlihy
//! single- and multi-leader): a SHA-256 over the serialized [`SwapReport`]
//! (timeline included) plus every chain's tip and height, committed as
//! constants. The simulation is seeded and host-independent, so these
//! digests pin on-chain bytes (contract ids, tx ids, fees), timelines and
//! reports across refactors of the machines — "unchanged" is a test, not a
//! claim. A digest may only be edited by a change that *means* to alter
//! protocol behaviour, and must say so.

use ac3_core::scenario::{
    clustered_swaps_scenario, custom_scenario, figure7a_scenario, ring_scenario,
    two_party_scenario, Scenario, ScenarioConfig,
};
use ac3_core::{
    Ac3tw, Ac3wn, AtomicityVerdict, EdgeDisposition, Herlihy, HerlihyMulti, Nolan, ProtocolConfig,
    Scheduler, SwapMachine, SwapReport,
};
use ac3_crypto::Hash256;
use ac3_sim::{CrashWindow, World};

fn depth3() -> ProtocolConfig {
    ProtocolConfig { deployment_depth: 3, ..Default::default() }
}

fn chain_lines(world: &World) -> Vec<String> {
    world
        .chain_ids()
        .into_iter()
        .map(|id| {
            let c = world.chain(id).unwrap();
            format!("{id}: tip={:?} height={}", c.tip(), c.height())
        })
        .collect()
}

/// SHA-256 over the serialized report and the final per-chain tip/height.
fn digest(report: &SwapReport, s: &Scenario) -> String {
    let mut bytes = serde_json::to_string(report).unwrap();
    for line in chain_lines(&s.world) {
        bytes.push('\n');
        bytes.push_str(&line);
    }
    Hash256::digest(bytes.as_bytes()).to_hex()
}

fn addr(s: &Scenario, name: &str) -> ac3_chain::Address {
    s.participants.get(name).unwrap().address()
}

#[test]
fn nolan_two_party() {
    let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
    let report = Nolan::new(ProtocolConfig::default()).execute(&mut s).unwrap();
    assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
    assert_eq!(
        digest(&report, &s),
        "d4bcca688ebbd470c99955bccb51390751449006271d627433e0df16988a2481"
    );
}

#[test]
fn herlihy_ring_of_four() {
    let mut s = ring_scenario(4, 10, &ScenarioConfig::default());
    let report = Herlihy::new(depth3()).execute(&mut s).unwrap();
    assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
    assert_eq!(
        digest(&report, &s),
        "be8e18c7dadcdb9bd659fc1782d0712537540aa62617fcb9b2fd7c7e1faf2f8f"
    );
}

#[test]
fn herlihy_explicit_leader() {
    // A ring accepts any participant as leader; name the one the automatic
    // search (first qualifying participant) would not pick.
    let mut s = ring_scenario(3, 10, &ScenarioConfig::default());
    let leader = *s.graph.participants().last().unwrap();
    assert_ne!(Herlihy::supports_graph(&s.graph).unwrap(), leader);
    let report = Herlihy::with_leader(depth3(), leader).execute(&mut s).unwrap();
    assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
    assert_eq!(
        digest(&report, &s),
        "6ffc5a4cd99ddce8b715f178a0531b8ff991ba2bf3de2b365c01bfa9bb2f2ab7"
    );
}

#[test]
fn herlihy_crash_past_timelock_violation() {
    // The Section 1 violation: Bob crashes after the leader's redemption
    // revealed the secret and stays down past his timelock.
    let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
    let alice = addr(&s, "alice");
    s.participants
        .get_mut("bob")
        .unwrap()
        .schedule_crash(CrashWindow { from: 9_000, until: 600_000 });
    let report = Herlihy::with_leader(depth3(), alice).execute(&mut s).unwrap();
    assert!(matches!(report.verdict(), AtomicityVerdict::Violated { .. }));
    assert_eq!(
        digest(&report, &s),
        "e0fe603bf88f65ee4496243a7e80bdaef1b95691eb03077d1d3875f4b7816270"
    );
}

#[test]
fn herlihy_declined_deployment_refunds() {
    // Bob never deploys: phase A fails and Alice's contract refunds.
    let mut s = two_party_scenario(50, 80, &ScenarioConfig::default());
    let alice = addr(&s, "alice");
    s.participants.get_mut("bob").unwrap().schedule_crash(CrashWindow::permanent(0));
    let report = Herlihy::with_leader(depth3(), alice).execute(&mut s).unwrap();
    assert_eq!(report.verdict(), AtomicityVerdict::AllRefunded);
    assert_eq!(
        digest(&report, &s),
        "b0b9fd36866b5396f0fda20a62f23e8b09bf838c7dd51b7f3282315a64a539f3"
    );
}

#[test]
fn herlihy_multi_figure7a() {
    let mut s = figure7a_scenario(&ScenarioConfig::default());
    let report = HerlihyMulti::new(depth3()).execute(&mut s).unwrap();
    assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
    assert_eq!(
        digest(&report, &s),
        "ab3417336ea7875feddcf1ef8dac011c55ab7e160c7b621c588036bac17e7675"
    );
}

#[test]
fn herlihy_multi_two_leaders_bridged_double_cycle() {
    // A⇄B, C⇄D bridged by B→C: no single leader exists, so every contract
    // carries two hashlocks and every redemption two preimages.
    let names = ["a", "b", "c", "d"];
    let edges = [(0, 1, 10), (1, 0, 20), (2, 3, 30), (3, 2, 40), (1, 2, 50)];
    let mut s = custom_scenario(&names, &edges, &ScenarioConfig::default());
    assert_eq!(HerlihyMulti::supports_graph(&s.graph).unwrap().len(), 2);
    let report = HerlihyMulti::new(depth3()).execute(&mut s).unwrap();
    assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
    assert_eq!(
        digest(&report, &s),
        "e4b03b3eecdf02bd15105f86ff7984ef8e1f78beac3f96d074215b44ce3933d4"
    );
}

#[test]
fn herlihy_multi_crashed_leader_fails_the_exchange() {
    // The leader is down across the instant phase A completes, so the
    // off-chain exchange fails and every contract times out and refunds.
    let mut s = figure7a_scenario(&ScenarioConfig::default());
    let leaders = HerlihyMulti::supports_graph(&s.graph).unwrap();
    let leader_name = ["a", "b", "c"].into_iter().find(|n| leaders.contains(&addr(&s, n))).unwrap();
    s.participants
        .get_mut(leader_name)
        .unwrap()
        .schedule_crash(CrashWindow { from: 1_000, until: 25_000 });
    let report = HerlihyMulti::new(depth3()).execute(&mut s).unwrap();
    assert!(report.is_atomic());
    assert!(report.edges.iter().all(|e| e.disposition != EdgeDisposition::Redeemed));
    assert_eq!(
        digest(&report, &s),
        "67c003fdd82be6c920badd5ae457aa7d75de4bef887c05b4834f56ef5aad7586"
    );
}

/// The clustered mixed four-protocol batch of `parallel_determinism.rs`
/// (swap `i` runs under protocol `i mod 4`) at one worker: every swap
/// report, the scheduler counters, the fee ledger, per-chain final state
/// and the global timeline.
#[test]
fn mixed_four_protocol_batch_at_one_worker() {
    let cfg = ProtocolConfig { witness_depth: 3, deployment_depth: 3, ..Default::default() };
    let mut s = clustered_swaps_scenario(5, 4, 2, &ScenarioConfig::default());
    let machines = s
        .swaps
        .iter()
        .enumerate()
        .map(|(i, swap)| {
            let graph = swap.graph.clone();
            let machine: Box<dyn SwapMachine> = match i % 4 {
                0 => Box::new(Ac3wn::new(cfg.clone()).machine(graph, swap.witness)),
                1 => Box::new(Ac3tw::new(cfg.clone()).machine(graph)),
                2 => Box::new(Herlihy::new(cfg.clone()).machine(graph).unwrap()),
                _ => Box::new(HerlihyMulti::new(cfg.clone()).machine(graph).unwrap()),
            };
            (swap.id, machine)
        })
        .collect();
    let batch =
        Scheduler::default().with_workers(1).run(&mut s.world, &mut s.participants, machines);
    assert_eq!(batch.failed(), 0);
    assert!(batch.all_atomic());

    let mut lines: Vec<String> = batch
        .outcomes
        .iter()
        .map(|o| {
            format!("{}: {}", o.id.0, serde_json::to_string(o.result.as_ref().unwrap()).unwrap())
        })
        .collect();
    lines.push(format!("ticks={} {}..{}", batch.ticks, batch.started_at, batch.finished_at));
    lines.push(serde_json::to_string(&s.world.fees).unwrap());
    lines.extend(chain_lines(&s.world));
    lines.extend(s.world.timeline.events().iter().map(|e| serde_json::to_string(e).unwrap()));
    assert_eq!(
        Hash256::digest(lines.join("\n").as_bytes()).to_hex(),
        "f06c1efbefd74812be699dd6103f4330e2d61d785345df00b3612423456c8f36"
    );
}
