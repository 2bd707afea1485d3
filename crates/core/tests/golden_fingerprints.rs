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
//!
//! Every case pins two digests. The *byte* digest moves with any change to
//! the bytes ids are hashed from, the codec included. The *id-blind* digest
//! is taken over the `Debug` text of the report(s) with every
//! `Hash256(<hex>)` replaced by the ordinal of its first appearance, plus
//! per-chain heights (not tips), and for the mixed batch the fee ledger as
//! per-swap totals (not its txid-keyed map, whose order follows the txid
//! values). It moves only when behaviour does: who did what, when, for what
//! fee, with which outcome. A change that re-encodes ids without changing
//! behaviour re-captures byte digests and leaves every id-blind one alone.

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
use std::collections::BTreeMap;
use std::fmt::Write;

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

fn height_lines(world: &World) -> Vec<String> {
    world
        .chain_ids()
        .into_iter()
        .map(|id| format!("{id}: height={}", world.chain(id).unwrap().height()))
        .collect()
}

/// SHA-256 of `text` after replacing every `Hash256(<hex>)` by `#<n>`, the
/// ordinal of that hash's first appearance.
fn id_blind_digest(text: &str) -> String {
    let mut ordinals: BTreeMap<&str, usize> = BTreeMap::new();
    let mut pieces = text.split("Hash256(");
    let mut blind = pieces.next().unwrap_or_default().to_string();
    for piece in pieces {
        let (hex, rest) = piece.split_at(64);
        let next = ordinals.len();
        write!(blind, "#{}{rest}", ordinals.entry(hex).or_insert(next)).unwrap();
    }
    Hash256::digest(blind.as_bytes()).to_hex()
}

/// The byte digest (SHA-256 over the serialized report and the final
/// per-chain tip/height) and the id-blind digest of one run.
fn digests(report: &SwapReport, s: &Scenario) -> [String; 2] {
    let mut bytes = serde_json::to_string(report).unwrap();
    for line in chain_lines(&s.world) {
        bytes.push('\n');
        bytes.push_str(&line);
    }
    let mut text = format!("{report:?}");
    for line in height_lines(&s.world) {
        text.push('\n');
        text.push_str(&line);
    }
    [Hash256::digest(bytes.as_bytes()).to_hex(), id_blind_digest(&text)]
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
        digests(&report, &s),
        [
            "c5d62f19ddc60e3728a6a16086111196c0f5446eca709e891fb2d9207fe15d86",
            "9edf9063b6fb313fee5261793d153039384563bf567cc42933a7d8fdab36285a",
        ]
    );
}

#[test]
fn herlihy_ring_of_four() {
    let mut s = ring_scenario(4, 10, &ScenarioConfig::default());
    let report = Herlihy::new(depth3()).execute(&mut s).unwrap();
    assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
    assert_eq!(
        digests(&report, &s),
        [
            "ce966bcb7598c87d1b060137330a04e304786a42ad268e142f33e10073dd4231",
            "0f4588b62cb2e9f096914f34e320cd16640cdcc50176088e78930886c1a08ef0",
        ]
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
        digests(&report, &s),
        [
            "8cf25d69d222b43a0adec62d19334de1a515f7b148c893c55f59a4aed37115ea",
            "5df439d7fbd55f7602cdda318a4c21cf01e1909eb347be6a6ad1599113b697e0",
        ]
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
        digests(&report, &s),
        [
            "87212175e8057bb7bbc623450e022df0b97465cc14541ca8269634784c7dafbe",
            "3801409f2336ade34742de2d3f9a99f97a8b5398114e17eeb70d95b9eb199a48",
        ]
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
        digests(&report, &s),
        [
            "cf9271d07ca50e832c7820b6e99df754a1e2d500e9751ca39d60f15d641166c1",
            "43f431034490d97b9ed113f167fb8d08f5462c53cb6d6f020b4f8ca3f443a5ac",
        ]
    );
}

#[test]
fn herlihy_multi_figure7a() {
    let mut s = figure7a_scenario(&ScenarioConfig::default());
    let report = HerlihyMulti::new(depth3()).execute(&mut s).unwrap();
    assert_eq!(report.verdict(), AtomicityVerdict::AllRedeemed);
    assert_eq!(
        digests(&report, &s),
        [
            "f52f2b437bb280570c8c084938d128d6936b14bab7ad8e8e2537a88f7e24e730",
            "610add1be69e574060d9c47c9601e4c57cee51a0e1f2e14caaffb35d322112d9",
        ]
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
        digests(&report, &s),
        [
            "c5db53827c13b8abf07efc4014e95c738c1c8940d294a6bdb2501e06a8e5787a",
            "04071488b667145cf0e2c08652bd09b3a2c6fa8d0e78876c9cc3edce0130489f",
        ]
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
        digests(&report, &s),
        [
            "bba010d4a6dcba8273aca2e8b4a87654b421f923391e070bbb191c1e68368d11",
            "455cb020682c287b271ec2f5539ce09e3dd72d1d63e6396e88560a006d348ae9",
        ]
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

    let mut blind: Vec<String> =
        batch.outcomes.iter().map(|o| format!("{:?}: {:?}", o.id, o.result)).collect();
    blind.push(format!("ticks={} {}..{}", batch.ticks, batch.started_at, batch.finished_at));
    blind.extend(
        s.swaps.iter().map(|w| format!("{:?} fees={}", w.id, s.world.fees.fees_for_swap(w.id))),
    );
    blind.extend(height_lines(&s.world));
    blind.extend(s.world.timeline.events().iter().map(|e| format!("{e:?}")));
    assert_eq!(
        [Hash256::digest(lines.join("\n").as_bytes()).to_hex(), id_blind_digest(&blind.join("\n"))],
        [
            "8ee4c849269f74008c100359bce355ff52496d20520117128b0c496af792d3a7",
            "977003ce2ddf521bce00f4221920184525f7b7716f44d217087a467b8da3b6d0",
        ]
    );
}

/// One pinned single-swap run of an AC3 protocol.
struct Ac3Case {
    label: &'static str,
    scenario: fn() -> Scenario,
    decision: Option<bool>,
    verdict: fn(&AtomicityVerdict) -> bool,
    digest: &'static str,
    id_blind: &'static str,
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
        got.push((case.label, digests(&report, &s)));
        reports.push(report);
    }
    let want: Vec<_> =
        cases.iter().map(|c| (c.label, [c.digest.to_string(), c.id_blind.to_string()])).collect();
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
            digest: "7844584b1ebfa1ba92b1fa0cfb251c40586c4e8fabf3764ab36e261ae5bbdedd",
            id_blind: "f7772ed995ad68cd64474ba423b4df50ccb8fdd044ae7589b08e24b9a6a78967",
        },
        Ac3Case {
            label: "figure 7a",
            scenario: || figure7a_scenario(&ScenarioConfig::default()),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "725feab9b1b4c990d974e90726191e141f0d20787f11fad21d4a4996b0a33d16",
            id_blind: "b212ee726d93271a4572080895e201b0b6d634b0a0a83d4738300e5a0f0f2317",
        },
        Ac3Case {
            label: "figure 7b",
            scenario: || figure7b_scenario(&ScenarioConfig::default()),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "dbd311c166fab3eb39d2f1f2da4c046b5460b01ceddaf1c674c5a43861a4ab79",
            id_blind: "252e93b4f730cfbee4f620f55dbee8a583ebbab0a23d3cabd0755c7abc203131",
        },
        Ac3Case {
            label: "ring of four",
            scenario: || ring_scenario(4, 10, &ScenarioConfig::default()),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "9aba54d72282574747ee96fbc857b1851b26c9cbbe2d3066803f4a87e0092941",
            id_blind: "c0393cc9866edd883e9de5997dd2f36fa7455a422c45d24bcba2a073e32b6f24",
        },
        Ac3Case {
            label: "declined deployment",
            scenario: bob_declines,
            decision: Some(false),
            verdict: all_refunded,
            digest: "d8e848b26314b65514feebeddac1e088d87d03fce662e49f6114b8fe071dd64a",
            id_blind: "3bb46b494e5cab6668d64a289116b4b312d472560f7491d76dd26f7c53129ffb",
        },
        Ac3Case {
            label: "crash during redemption",
            scenario: || bob_crashed(10_000, 40_000),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "c1737b0d52e343acb41fdbe89dcda32c1b0b3ade72334a461e3a47ac36b3cf88",
            id_blind: "5c2caed9f237f1d9617e83480141f95ceae018b20b2ed3253d5c7dab1de985b8",
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
            digest: "0da536adb9ee0c7f4dd8df3cdaa8835a99055590819a2492fd86f77b8ae09e01",
            id_blind: "a16c15862518869fae7ccfca76f31964d438ad71156d67a4052a0a2f996321b4",
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
            digest: "b4c2b741bdc277a4dacf13319952ead7c27a9c13b4adf0d7c9a8fcd09d2533d8",
            id_blind: "fac028889c26be79528ce277fb9515188b93e96d1ecb69b2dd4da6f32ad3fa40",
        },
        Ac3Case {
            label: "figure 7a",
            scenario: || figure7a_scenario(&ScenarioConfig::default()),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "8273c13b2216614c458c17b057510905447be2b66c2bf72cdb400155298f1d76",
            id_blind: "7de5c96f3b65b2000ce521a1b16dbd4fd45d282fe98e0d6b989835718cad5019",
        },
        Ac3Case {
            label: "figure 7b",
            scenario: || figure7b_scenario(&ScenarioConfig::default()),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "61e8e7280b7b8fe76dd1211eb1972842380b2b4bf517fa50f3f4ae764f532722",
            id_blind: "3df897c8a2acae3892e0abc40182522b5ebeecf27e6d56fe15986dcba4947250",
        },
        Ac3Case {
            label: "ring of four",
            scenario: || ring_scenario(4, 10, &ScenarioConfig::default()),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "807f7e9cd55046f41487fdaf07407fdc916954475849a64d90ad2680fc2b98ce",
            id_blind: "8e7b078412ff68ce1584ca08140d2ad6607eae63d0c7c3fc63007218c82e9b48",
        },
        Ac3Case {
            label: "declined deployment",
            scenario: bob_declines,
            decision: Some(false),
            verdict: all_refunded,
            digest: "3f07e837bd049961d56af3dafad7deac5ca2f9caacb19088c40ecf7965ad1918",
            id_blind: "b2edfd8d8b4e1f96e2fd78767d84ffd3eeccab6661ed5afd992c128f1148feb5",
        },
        Ac3Case {
            label: "crash during redemption",
            scenario: || bob_crashed(3_000, 30_000),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "d07d1fb7425c98ad7055c58155c5c5cc71753907ac950af0684b1e5bd081c0b0",
            id_blind: "75ffd23b2363ece68a4686fd0b965f50312c33cca5b40b9dcdfda19eb3b53f4c",
        },
        Ac3Case {
            label: "trent unavailable",
            scenario: two_party,
            decision: None,
            verdict: incomplete,
            digest: "e778d83cd5fe7beb2929f1c692738b7ea163a0d91924ff8007103836b9fc230d",
            id_blind: "d6925ad3416b6302453250f9ba173e1237b6f1ec1e196dd8a5a43cf791427aa4",
        },
    ];
    check_ac3_cases(&cases, |case, s| {
        let mut driver = Ac3tw::new(depth3());
        driver.trent_available = case.label != "trent unavailable";
        driver.execute(s)
    });
}

/// The byte digest (over the serialized `ForkAttackReport`) and the
/// id-blind digest (over its `Debug` text) of one attack.
fn attack_digests(cfg: &ForkAttackConfig) -> (u64, [String; 2]) {
    let report = execute_fork_attack(cfg).unwrap();
    let json = serde_json::to_string(&report).unwrap();
    let blind = id_blind_digest(&format!("{report:?}"));
    (report.required_branch_blocks, [Hash256::digest(json.as_bytes()).to_hex(), blind])
}

/// The Section 6.3 experiment at `d = 3`: no budget, an underfunded fork,
/// and exactly the branch the geometry requires.
#[test]
fn fork_attack_reports_at_depth_three() {
    let with_budget =
        |blocks| ForkAttackConfig { attacker_budget_blocks: blocks, ..Default::default() };
    let (required, idle) = attack_digests(&with_budget(0));
    let got = [idle, attack_digests(&with_budget(2)).1, attack_digests(&with_budget(required)).1];
    assert_eq!(required, 6);
    assert_eq!(
        got,
        [
            [
                "59d628c01920fd936fcfb8c9aa46fd724b2ade1f8bcdabb4c42c2c8e0140ce26",
                "63822ca499f71091671944e5be7f76840deb3d8073fc89b0e6a88ef619b10703"
            ],
            [
                "0e8a5fc625f64d24c9272cd6dc7bd623fdca17ab3c72fdb9389cc477b98cadba",
                "0048b2a07fbfa56c0586904e9b7a34cdc4db096ed6278a28670af66b9c8cdc6a"
            ],
            [
                "767c8c508a42b0d1c75cfca9953461fea9e71d0cf6b5205d9a1207c92bb476d8",
                "f77c69b0f7d97e323e96e70aaf56980cd5e122034168a3b6d4dd4695afe23b9a"
            ],
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
    let got: Vec<[String; 2]> = (1..=paper_required_depth + 2)
        .map(|d| {
            attack_digests(&ForkAttackConfig {
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
            [
                "ac92548c42d83a063b0560821427de81b3ebbbea9faf80f7cc43f7fd0b5d0225",
                "ee0bf64f4e060a06cb9830f99c47a1dc277a6eecf66493108331f14ff55cf0f6"
            ],
            [
                "21a9682c00cbce998467005b1821e6d0684dc5f88a74f0c78f5e4f8c9c7dd019",
                "eb8b6a20dd56953c27b98ec919a6fc3f156bb38b9b9e81a6cc1d3908660ac165"
            ],
            // d = 3: the attacker affords exactly the fork depth (5 blocks,
            // one short of `required_branch_blocks`), so its branch ties
            // the honest chain in height and the smaller tip hash wins.
            // This entry is decided by block hashes, so it is not id-blind:
            // base64 byte strings flipped the tie to the attacker.
            [
                "d9dee11a2d593215db5c2db18609768575cfb0b28392457022e0532416b373cd",
                "8ab7704982c0d9bfbc14a6797371c11f0056c468fb737bdc47e4399b0f3f4ed2"
            ],
            [
                "82589a281fc5ee1a211b39d36941dbcec745379cff66f918a86be727d266aa7e",
                "d82264cf472559a0bd2e8efdf11526eebcce049c8cb07fb860600b29578b8705"
            ],
            [
                "266a114fe281f998d9ea5fdd77f8e78db20a077040e40ba861cb4469d0576b39",
                "67b19227f7160cc0b5394f8460d68237b3e32266a89333cb3644d40797f04e5d"
            ],
            [
                "b04be0acbd508029631c2163c154ad5fad93e702cf4064ebed0a2469e0cb34f0",
                "931a3f1b79ab2da8706f05f245ef232dbbbb73ce040bad9d1299f04a8fa8ee25"
            ],
            [
                "74ea524e09fa8026170ccb8f099e9f51242ff0764c21d2f8dae1d3b6d7692818",
                "93117a7df02ca4f55c231b2cb394519b4225648b9afcfc1277adfc6fb2ee5591"
            ],
            [
                "684245d7bd9a33c3ba4261d137e198d99b3e4edf772a4305e9dfd849b594f263",
                "f03aa377cebae0c336bf287769e842a47056d0337a7c9432e237a3d9747fda72"
            ],
        ]
    );
}
