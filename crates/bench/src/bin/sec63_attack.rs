//! Section 6.3, executed: a 51% fork attack against the witness chain.
//!
//! The companion binary `sec63_witness_choice` reproduces the paper's
//! *analytical* inequality `d > Va · dh / Ch`. This binary runs the attack
//! itself on the simulator for a sweep of confirmation depths `d`:
//!
//! * the attack is attempted with a budget derived from the value at risk
//!   (`Va`): the attacker can afford `⌊Va · dh / Ch⌋` privately mined
//!   blocks;
//! * for each depth the simulator reports whether the fork both wins the
//!   longest-chain race and buries the forged `RFauth` deep enough to be
//!   accepted by the asset contracts — i.e. whether all-or-nothing
//!   atomicity is actually violated;
//! * the expected shape: the attack succeeds for every `d` below the
//!   paper's required depth and fails at and above it.

use ac3_bench::{f2, print_json_rows, print_table};
use ac3_core::analysis::witness_choice;
use ac3_core::attack::{execute_fork_attack, ForkAttackConfig};
use ac3_core::scenario::ScenarioConfig;
use ac3_core::ProtocolConfig;
use serde::Serialize;

#[derive(Serialize)]
struct AttackRow {
    witness_depth: u64,
    affordable_blocks: u64,
    required_blocks: u64,
    attack_cost_usd: f64,
    reorg_won: bool,
    refund_accepted: bool,
    atomicity_violated: bool,
    verdict: String,
}

fn main() {
    // The paper's Bitcoin witness figures and worked example.
    let hourly_cost = 300_000.0;
    let blocks_per_hour = 6.0;
    let value_at_risk =
        std::env::args().nth(1).and_then(|v| v.parse::<f64>().ok()).unwrap_or(250_000.0);

    // How many blocks the attacker can afford to mine before the attack
    // stops being profitable.
    let affordable_blocks = (value_at_risk * blocks_per_hour / hourly_cost).floor() as u64;
    let paper_required_depth =
        witness_choice::required_depth(value_at_risk, hourly_cost, blocks_per_hour);

    let depths: Vec<u64> = (1..=paper_required_depth + 2).collect();
    let mut rows = Vec::with_capacity(depths.len());
    for d in depths {
        let cfg = ForkAttackConfig {
            protocol: ProtocolConfig {
                witness_depth: d,
                deployment_depth: 2,
                ..Default::default()
            },
            scenario: ScenarioConfig::default(),
            attacker_budget_blocks: affordable_blocks,
            ..Default::default()
        };
        let report = execute_fork_attack(&cfg).expect("attack experiment runs");
        rows.push(AttackRow {
            witness_depth: d,
            affordable_blocks,
            required_blocks: report.required_branch_blocks,
            attack_cost_usd: witness_choice::attack_cost(
                report.required_branch_blocks,
                hourly_cost,
                blocks_per_hour,
            ),
            reorg_won: report.reorg_won,
            refund_accepted: report.refund_accepted,
            atomicity_violated: !report.verdict.is_atomic(),
            verdict: report.verdict.to_string(),
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.witness_depth.to_string(),
                r.required_blocks.to_string(),
                format!("${}", f2(r.attack_cost_usd)),
                r.affordable_blocks.to_string(),
                if r.atomicity_violated { "VIOLATED".to_string() } else { "atomic".to_string() },
            ]
        })
        .collect();
    print_table(
        &format!(
            "Section 6.3 (executed): fork attack on the witness chain, Va = ${value_at_risk}, \
             Ch = $300K/h, dh = 6 blocks/h"
        ),
        &[
            "depth d",
            "blocks attacker needs",
            "cost of those blocks",
            "blocks attacker affords",
            "outcome",
        ],
        &table,
    );
    println!(
        "\nPaper's analytical rule for this Va: d ≥ {paper_required_depth} (the attacker affords \
         {affordable_blocks} blocks). Expected shape: every depth whose required branch fits in \
         the budget is VIOLATED; the first depth whose required branch exceeds the budget — and \
         every deeper one — stays atomic. A budget exactly one block short of winning the race \
         only ties the honest chain in height, and first-seen fork choice keeps the honest tip, \
         so that depth stays atomic too: the threshold is exact. The measured crossover sits at \
         or below the analytical bound because the executed attack also has to out-mine the \
         blocks the honest network produced while the attacker was redeeming, so the paper's \
         inequality is conservative."
    );
    print_json_rows("sec63_attack", &rows);
}
