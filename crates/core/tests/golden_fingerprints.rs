//! Golden fingerprints of every protocol family — the hashlock swaps
//! (Nolan, Herlihy single- and multi-leader), the AC3 commitment protocols
//! (AC3WN, AC3TW) and the executed Section 6.3 fork attack: a SHA-256 over
//! the serialized [`SwapReport`] (timeline included) plus every chain's tip
//! and height — or over the serialized `ForkAttackReport` — committed as
//! constants. The simulation is seeded and host-independent, so these
//! digests pin on-chain bytes (contract ids, tx ids, fees), timelines and
//! reports across refactors of the machines — "unchanged" is a test, not a
//! claim. A digest may only be edited by a change that *means* to alter
//! protocol behaviour, and must say so.

use ac3_core::analysis::witness_choice;
use ac3_core::scenario::{
    clustered_swaps_scenario, custom_scenario, figure7a_scenario, figure7b_scenario, ring_scenario,
    two_party_scenario, Scenario, ScenarioConfig,
};
use ac3_core::{
    execute_fork_attack, Ac3tw, Ac3wn, AtomicityVerdict, EdgeDisposition, ForkAttackConfig,
    Herlihy, HerlihyMulti, Nolan, ProtocolConfig, ProtocolError, Scheduler, SwapMachine,
    SwapReport,
};
use ac3_crypto::Hash256;
use ac3_sim::{CrashWindow, OutageWindow, World};

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

/// One pinned single-swap run of an AC3 protocol.
struct Ac3Case {
    label: &'static str,
    scenario: fn() -> Scenario,
    decision: Option<bool>,
    verdict: fn(&AtomicityVerdict) -> bool,
    digest: &'static str,
}

fn two_party() -> Scenario {
    two_party_scenario(50, 80, &ScenarioConfig::default())
}

/// Bob never deploys: the swap aborts and Alice's contract refunds.
fn bob_declines() -> Scenario {
    let mut s = two_party();
    s.participants.get_mut("bob").unwrap().schedule_crash(CrashWindow::permanent(0));
    s
}

/// Bob is down across the instant the settlement calls go out (pass the
/// protocol's decision time as seen in its timeline), so his redeem can
/// only come from the recovery pass after he returns.
fn bob_crashed(from: u64, until: u64) -> Scenario {
    let mut s = two_party();
    s.participants.get_mut("bob").unwrap().schedule_crash(CrashWindow { from, until });
    s
}

fn all_redeemed(v: &AtomicityVerdict) -> bool {
    *v == AtomicityVerdict::AllRedeemed
}

fn all_refunded(v: &AtomicityVerdict) -> bool {
    *v == AtomicityVerdict::AllRefunded
}

fn incomplete(v: &AtomicityVerdict) -> bool {
    matches!(v, AtomicityVerdict::Incomplete { .. })
}

/// Run every case, check decision and verdict, and compare all digests at
/// once (so a deliberate re-capture reads every new value off one failure).
fn check_ac3_cases(
    cases: &[Ac3Case],
    execute: impl Fn(&Ac3Case, &mut Scenario) -> Result<SwapReport, ProtocolError>,
) -> Vec<SwapReport> {
    let mut got = Vec::new();
    let mut reports = Vec::new();
    for case in cases {
        let mut s = (case.scenario)();
        let report = execute(case, &mut s).unwrap();
        assert_eq!(report.decision, case.decision, "{}", case.label);
        assert!((case.verdict)(&report.verdict()), "{}: {}", case.label, report.verdict());
        got.push((case.label, digest(&report, &s)));
        reports.push(report);
    }
    let want: Vec<_> = cases.iter().map(|c| (c.label, c.digest.to_string())).collect();
    assert_eq!(got, want);
    reports
}

/// A witness-chain partition opening before the decision request and
/// healing inside the wait cap: `retry-authorize`, then a late commit.
const WITNESS_OUTAGE: OutageWindow = OutageWindow { from: 6_000, until: 60_000 };

#[test]
fn ac3wn_single_runs() {
    let cases = [
        Ac3Case {
            label: "two-party commit",
            scenario: two_party,
            decision: Some(true),
            verdict: all_redeemed,
            digest: "505128937cf66f31ea21ab808753fcb1d5dfdac87a9f08a726ba4b3b7aaf40e7",
        },
        Ac3Case {
            label: "figure 7a",
            scenario: || figure7a_scenario(&ScenarioConfig::default()),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "8fcf3bff808170fafd34ad8285661f5cac1e2545e2bb2a772abb9991a160c16a",
        },
        Ac3Case {
            label: "figure 7b",
            scenario: || figure7b_scenario(&ScenarioConfig::default()),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "65a6520f83285600f03f30346b14741b2154bcbabc11774b23d62e773776c648",
        },
        Ac3Case {
            label: "ring of four",
            scenario: || ring_scenario(4, 10, &ScenarioConfig::default()),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "f8b10b34b6c65b92d4be61649163d29e91e2529177f3a0b80946d76080a6af6b",
        },
        Ac3Case {
            label: "declined deployment",
            scenario: bob_declines,
            decision: Some(false),
            verdict: all_refunded,
            digest: "f070e8d1dbac9ac6cced41a93ac931387e78bc2831d4d33d520e3c9c8e6e8e68",
        },
        Ac3Case {
            label: "crash during redemption",
            scenario: || bob_crashed(10_000, 40_000),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "8a0ecf8524cc84504c7687b6f7394f8bd9fd98cf2865fbf51321c0b616664b1a",
        },
        Ac3Case {
            label: "witness partition heals inside the wait cap",
            scenario: || {
                let mut s = two_party();
                s.world.schedule_outage(s.witness_chain, WITNESS_OUTAGE).unwrap();
                s
            },
            decision: Some(true),
            verdict: all_redeemed,
            digest: "2a407760212eb83a2565320fec5fb580e897a8720c6d6ff14379b560d1957108",
        },
    ];
    let cfg = ProtocolConfig { wait_cap_deltas: 64, ..depth3() };
    let reports = check_ac3_cases(&cases, |_, s| Ac3wn::new(cfg.clone()).execute(s));
    // The decision cannot predate the partition healing.
    assert!(reports[6].finished_at >= WITNESS_OUTAGE.until, "{}", reports[6].summary());
}

#[test]
fn ac3tw_single_runs() {
    let cases = [
        Ac3Case {
            label: "two-party commit",
            scenario: two_party,
            decision: Some(true),
            verdict: all_redeemed,
            digest: "f7f1c2a6a137c89d987e863a724bd10c000fc906485a946ad771f7c810d554ca",
        },
        Ac3Case {
            label: "figure 7a",
            scenario: || figure7a_scenario(&ScenarioConfig::default()),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "05f44a352a99eef7ad189478f0d4df8088102bf488ba3d9199ae604e77242f7c",
        },
        Ac3Case {
            label: "figure 7b",
            scenario: || figure7b_scenario(&ScenarioConfig::default()),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "c68581cbeef3f9f90c67930119ab95dd4de49da1fd44fc36c19f2eff1246c2c3",
        },
        Ac3Case {
            label: "ring of four",
            scenario: || ring_scenario(4, 10, &ScenarioConfig::default()),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "46fde4abd2388c5db7d001975efe31040b5fbff43c406302da0c444a601a38ab",
        },
        Ac3Case {
            label: "declined deployment",
            scenario: bob_declines,
            decision: Some(false),
            verdict: all_refunded,
            digest: "bd5873219ec942463c817d5412afa8c9aaf6dc414295f2a3b1919deaf3a8bbf0",
        },
        Ac3Case {
            label: "crash during redemption",
            scenario: || bob_crashed(3_000, 30_000),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "412711e8b1393ce273668515b932bc6a60714d6550ea20c2e1f0557bdd05650e",
        },
        Ac3Case {
            label: "trent unavailable",
            scenario: two_party,
            decision: None,
            verdict: incomplete,
            digest: "ddbdb80a287948f2b6d42a9637f2875039ddb4f18a472ccc2eed273a95c0c7c7",
        },
    ];
    check_ac3_cases(&cases, |case, s| {
        let mut driver = Ac3tw::new(depth3());
        driver.trent_available = case.label != "trent unavailable";
        driver.execute(s)
    });
}

fn attack_digest(cfg: &ForkAttackConfig) -> (u64, String) {
    let report = execute_fork_attack(cfg).unwrap();
    let json = serde_json::to_string(&report).unwrap();
    (report.required_branch_blocks, Hash256::digest(json.as_bytes()).to_hex())
}

/// The Section 6.3 experiment at `d = 3`: no budget, an underfunded fork,
/// and exactly the branch the geometry requires.
#[test]
fn fork_attack_reports_at_depth_three() {
    let with_budget =
        |blocks| ForkAttackConfig { attacker_budget_blocks: blocks, ..Default::default() };
    let (required, idle) = attack_digest(&with_budget(0));
    let got = [idle, attack_digest(&with_budget(2)).1, attack_digest(&with_budget(required)).1];
    assert_eq!(required, 6);
    assert_eq!(
        got,
        [
            "aadd68962e2b89887e78eefa3c6bbd40a4db7e4c1b872930ebe37576a0d8971b",
            "dba5985ee7c1d70ef75e2086a8b5152abcfe29f61ba0ebb63ba7dce8b48eb68f",
            "e78b0bb97f41a64b830b58278eddcf9e33383a909db3e9586a54b5472c6b4431",
        ]
    );
}

/// The depth sweep `sec63_attack` prints for its default arguments
/// (`Va = $250K`, `Ch = $300K/h`, `dh = 6` blocks/h).
#[test]
fn fork_attack_depth_sweep_of_sec63_attack() {
    let (value_at_risk, hourly_cost, blocks_per_hour) = (250_000.0_f64, 300_000.0, 6.0);
    let affordable_blocks = (value_at_risk * blocks_per_hour / hourly_cost).floor() as u64;
    let paper_required_depth =
        witness_choice::required_depth(value_at_risk, hourly_cost, blocks_per_hour);
    let got: Vec<String> = (1..=paper_required_depth + 2)
        .map(|d| {
            attack_digest(&ForkAttackConfig {
                protocol: ProtocolConfig {
                    witness_depth: d,
                    deployment_depth: 2,
                    ..Default::default()
                },
                attacker_budget_blocks: affordable_blocks,
                ..Default::default()
            })
            .1
        })
        .collect();
    assert_eq!(
        got,
        [
            "72babcffec0d90425e83a8a0fe7d35d226090a1023935f7bd16056706d22f6b6",
            "94b020d59d1e1c86b2357f1ff7b7fdd43ad6fa76d14bc7691b726e5f3e403bb7",
            "280354814a7e26663d2821eb6a367ef1b0787eff43c50b9c8c4cfb6ba0332489",
            "a256133f8c5bf4d20519f423f40ca4032934f162fa71db181d76111fe3010b2c",
            "4d7a2471cea6b8157723c5f1f2e8290e525a5c8fd0a3495a347b3d0abae02454",
            "4d97b65e6053ebee3e580d5b6a89a3396ac3ac14d0d44d6962336e4181eeb95d",
            "c250937292867fa2730da8e761c3a98d76094f1452cc7d82132b004657505d71",
            "1dfb1a7ce692bd270368bde215b23b1df63910b0c86ac4cc55cacb9fd08e1712",
        ]
    );
}
