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
//!
//! Every AC3 case is also the resume oracle: it runs a second time with the
//! machine replaced by its own JSON round-trip before every poll, and must
//! reach the same two digests.

use ac3_core::analysis::witness_choice;
use ac3_core::scenario::{
    clustered_swaps_scenario, custom_scenario, figure7a_scenario, figure7b_scenario, ring_scenario,
    two_party_scenario, Scenario, ScenarioConfig,
};
use ac3_core::{
    drive, drive_until, execute_fork_attack, Ac3Machine, Ac3tw, Ac3wn, AtomicityVerdict,
    EdgeDisposition, ForkAttackConfig, Herlihy, HerlihyMulti, Nolan, ProtocolConfig, ProtocolError,
    Scheduler, SwapMachine, SwapReport,
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
            "2eb19846ddb474e80c6cd10b3fb0f26e562cbc55019d5254acfaa2970d5f9bbe",
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
            "d04b74fce5db8b6c63bcff84e4203be695a25acbe00981a9a112ea00c0b67eeb",
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
            "318544570fa8501a25eca324b638ae67cd2f3c85e0c0e8c8f9b277c2bab2ac32",
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
            "035dde832baa640d25592416d2bb967fbf263933d819ef15642c4acc3d628f1a",
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
            "5134aa5aed9863fcaccf8f37436f8c62ca7fbcaed81c2dc018b55f379c233c7c",
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
            "5c753f05198c02c35e2e1a9dbfed17aa42d3d6501b36f8a34ee053cc06f363e0",
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
            "8016f91b9455cec3ccb259b0e45756dcaa44ea3456080a2af83a177ff2c16bc4",
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
            "f45680c52134c148ec1b09d93826c160c900ed1e98fef49e23ec23293a2ccaf9",
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
            "a608d103452ce257f31299b5962927e75137fc9332097566ac511df1ddcbca38",
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

/// [`drive`], with the machine replaced by its own JSON round-trip before
/// every poll. Re-encoding the decoded machine must give the same JSON.
fn drive_persisted(
    machine: &mut Ac3Machine,
    s: &mut Scenario,
) -> Result<SwapReport, ProtocolError> {
    loop {
        let json = serde_json::to_string(&*machine).unwrap();
        *machine = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&*machine).unwrap(), json);
        let mut polled = false;
        let stop = |_: &Ac3Machine, _: &World| std::mem::replace(&mut polled, true);
        if let Some(report) = drive_until(machine, &mut s.world, &mut s.participants, stop)? {
            return Ok(report);
        }
    }
}

/// Run every case twice — straight through and persisted after every poll —
/// check decision and verdict, and compare all digests at once (so a
/// deliberate re-capture reads every new value off one failure). Returns
/// the straight-through reports; the persisted ones have the same digests.
fn check_ac3_cases(
    cases: &[Ac3Case],
    machine: impl Fn(&Ac3Case, &Scenario) -> Ac3Machine,
) -> Vec<SwapReport> {
    type Run = fn(&mut Ac3Machine, &mut Scenario) -> Result<SwapReport, ProtocolError>;
    let runs: [(&str, Run); 2] = [
        ("", |m, s| drive(m, &mut s.world, &mut s.participants)),
        (" (persisted)", drive_persisted),
    ];
    let mut got = Vec::new();
    let mut want = Vec::new();
    let mut reports = Vec::new();
    for case in cases {
        for (suffix, run) in runs {
            let label = format!("{}{suffix}", case.label);
            let mut s = (case.scenario)();
            let report = run(&mut machine(case, &s), &mut s).unwrap();
            assert_eq!(report.decision, case.decision, "{label}");
            assert!((case.verdict)(&report.verdict()), "{label}: {}", report.verdict());
            got.push((label.clone(), digests(&report, &s)));
            want.push((label, [case.digest.to_string(), case.id_blind.to_string()]));
            if suffix.is_empty() {
                reports.push(report);
            }
        }
    }
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
            digest: "ca41c699b07bde0d9eb3745b22d6ac7ff5b80d531ff58528a7f4be65d89dc1d0",
            id_blind: "f7772ed995ad68cd64474ba423b4df50ccb8fdd044ae7589b08e24b9a6a78967",
        },
        Ac3Case {
            label: "figure 7a",
            scenario: || figure7a_scenario(&ScenarioConfig::default()),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "3925cabe316c39ff94942c32110bc98241277ac116284975a29c0bf30f0102d5",
            id_blind: "b212ee726d93271a4572080895e201b0b6d634b0a0a83d4738300e5a0f0f2317",
        },
        Ac3Case {
            label: "figure 7b",
            scenario: || figure7b_scenario(&ScenarioConfig::default()),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "d7637b68c4be2bf6f97d411182de1bfce3106eb78f8215d618bb9079b485c50f",
            id_blind: "252e93b4f730cfbee4f620f55dbee8a583ebbab0a23d3cabd0755c7abc203131",
        },
        Ac3Case {
            label: "ring of four",
            scenario: || ring_scenario(4, 10, &ScenarioConfig::default()),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "720848b64938252899ed3092830804ba4061519121ecfb61d47a79b6a652ff34",
            id_blind: "c0393cc9866edd883e9de5997dd2f36fa7455a422c45d24bcba2a073e32b6f24",
        },
        Ac3Case {
            label: "declined deployment",
            scenario: bob_declines,
            decision: Some(false),
            verdict: all_refunded,
            digest: "1bed27ed644587468eb90890569fc5cb0c0c169ec9e3fe2f1d413998bd4bf04b",
            id_blind: "3bb46b494e5cab6668d64a289116b4b312d472560f7491d76dd26f7c53129ffb",
        },
        Ac3Case {
            label: "crash during redemption",
            scenario: || bob_crashed(10_000, 40_000),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "ed71922fae55366d247ee50466b59aad826d78fb96cb82f689af169e9c544d1b",
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
            digest: "1e5281dd95c62c3eca9b271a7b211cb550fddca913056b868ba91c2d0d5182aa",
            id_blind: "a16c15862518869fae7ccfca76f31964d438ad71156d67a4052a0a2f996321b4",
        },
    ];
    let cfg = ProtocolConfig { wait_cap_deltas: 64, ..depth3() };
    let reports = check_ac3_cases(&cases, |_, s| {
        Ac3wn::new(cfg.clone()).machine(s.graph.clone(), s.witness_chain)
    });
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
            digest: "555ab8b51756fd48e80f3d3f2b61571ff698c3da4cc9cf05e095b70337bc3d90",
            id_blind: "fac028889c26be79528ce277fb9515188b93e96d1ecb69b2dd4da6f32ad3fa40",
        },
        Ac3Case {
            label: "figure 7a",
            scenario: || figure7a_scenario(&ScenarioConfig::default()),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "8ca00c5c6c96c7fe6efb634bc7c92bb9ea5cfcb9657f8ff9ed155750f0768092",
            id_blind: "7de5c96f3b65b2000ce521a1b16dbd4fd45d282fe98e0d6b989835718cad5019",
        },
        Ac3Case {
            label: "figure 7b",
            scenario: || figure7b_scenario(&ScenarioConfig::default()),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "4f0bc9e35d947f6fcf16cadd6576c0aaf1babef7c8db5204c9746f1f8c75209a",
            id_blind: "3df897c8a2acae3892e0abc40182522b5ebeecf27e6d56fe15986dcba4947250",
        },
        Ac3Case {
            label: "ring of four",
            scenario: || ring_scenario(4, 10, &ScenarioConfig::default()),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "a13b7fa98470b4fe1a1f7446c2233d790cae8c5ffdb92a4653b7e3dfbb138537",
            id_blind: "8e7b078412ff68ce1584ca08140d2ad6607eae63d0c7c3fc63007218c82e9b48",
        },
        Ac3Case {
            label: "declined deployment",
            scenario: bob_declines,
            decision: Some(false),
            verdict: all_refunded,
            digest: "64e5793166678fc31db1426c01dcaa495252f410a44915e14b6a841f1771e8a8",
            id_blind: "b2edfd8d8b4e1f96e2fd78767d84ffd3eeccab6661ed5afd992c128f1148feb5",
        },
        Ac3Case {
            label: "crash during redemption",
            scenario: || bob_crashed(3_000, 30_000),
            decision: Some(true),
            verdict: all_redeemed,
            digest: "a9237c19720d33d11ee92eef82d15fd7029010b82ba4ed7809628cfc7b1da45a",
            id_blind: "75ffd23b2363ece68a4686fd0b965f50312c33cca5b40b9dcdfda19eb3b53f4c",
        },
        Ac3Case {
            label: "trent unavailable",
            scenario: two_party,
            decision: None,
            verdict: incomplete,
            digest: "cba97bbeb93dcec2b6e4be6d99f9053fbc6902e7d45db52cfb2a246fe091d131",
            id_blind: "d6925ad3416b6302453250f9ba173e1237b6f1ec1e196dd8a5a43cf791427aa4",
        },
    ];
    check_ac3_cases(&cases, |case, s| {
        let mut driver = Ac3tw::new(depth3());
        driver.trent_available = case.label != "trent unavailable";
        driver.machine(s.graph.clone())
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
                "1f71e498463e8e1c249cdc187888c1ad16f8ef59d6826b9ba833f2f219abd349",
                "63822ca499f71091671944e5be7f76840deb3d8073fc89b0e6a88ef619b10703"
            ],
            [
                "89d5f31786c025497d375f56763e7d80ff59ea999d39d3e103f01d81336f0546",
                "0048b2a07fbfa56c0586904e9b7a34cdc4db096ed6278a28670af66b9c8cdc6a"
            ],
            [
                "02179d2d72f82888b9225ab66efdfa8c3a3560ad1cb643d51326f2608e6305c3",
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
                "b4feceea2946f2ddd375ce871d99530a4cb4cf80399870a49b335ad0c369c202",
                "ee0bf64f4e060a06cb9830f99c47a1dc277a6eecf66493108331f14ff55cf0f6"
            ],
            [
                "9f7f6da5eb4d9ff220b2b3b19443d281f45a4af0a6e174707c63fc0107b515d1",
                "eb8b6a20dd56953c27b98ec919a6fc3f156bb38b9b9e81a6cc1d3908660ac165"
            ],
            // d = 3: the attacker affords exactly the fork depth (5 blocks,
            // one short of `required_branch_blocks`), so its branch only
            // ties the honest chain in height. Under first-seen fork choice
            // the honest tip, seen first, keeps the lead, so the swap stays
            // atomic whatever the block hashes are.
            [
                "f89fc520694753d1af557e88d089eb9810845b73a7d9fc6e81cd0e1c2e9a1b55",
                "1fd91b382e736426d87c8987694af014eb42f1904931f8a744b4074d2eca6bcd"
            ],
            [
                "7a74625dfc2d187b9b2b9aec2c47fdfb0a8044bb46311e5d6ae91fe41f6f1350",
                "d82264cf472559a0bd2e8efdf11526eebcce049c8cb07fb860600b29578b8705"
            ],
            [
                "d45eee0fb6a518777f863d48d5014c6381c7c2fc8658cca792e6a34d2dd0a61a",
                "67b19227f7160cc0b5394f8460d68237b3e32266a89333cb3644d40797f04e5d"
            ],
            [
                "358bb52cdb82f2b6e8d9866d105aa177a041af7364eeb92eec2dc70997cca414",
                "931a3f1b79ab2da8706f05f245ef232dbbbb73ce040bad9d1299f04a8fa8ee25"
            ],
            [
                "b520d030418d57ea347608d5bd71ff998548cbe48934f9dcca813b890e748539",
                "93117a7df02ca4f55c231b2cb394519b4225648b9afcfc1277adfc6fb2ee5591"
            ],
            [
                "a0458b9a639ab25ade99bf3e95f53899d4865e6c67d0f20c0a3e37c2c0eeece1",
                "f03aa377cebae0c336bf287769e842a47056d0337a7c9432e237a3d9747fda72"
            ],
        ]
    );
}
