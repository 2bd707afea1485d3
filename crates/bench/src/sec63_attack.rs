//! Section 6.3, executed: a 51% fork attack against the witness chain.
//!
//! The companion experiment `sec63_witness_choice` reproduces the paper's
//! *analytical* inequality `d > Va · dh / Ch`. This one runs the attack
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
//!
//! The threshold is asserted exactly: a depth is VIOLATED if and only if
//! the branch it requires fits in the attacker's budget, which at
//! [`VALUE_AT_RISK`] is exactly d = 1 and d = 2.

use crate::{f2, print_table, Record};
use ac3_core::analysis::witness_choice;
use ac3_core::attack::{execute_fork_attack, ForkAttackConfig};
use ac3_core::scenario::ScenarioConfig;
use ac3_core::ProtocolConfig;

/// The value at risk, in dollars, that prices the attacker's budget.
pub const VALUE_AT_RISK: f64 = 250_000.0;

struct AttackRow {
    witness_depth: u64,
    affordable_blocks: u64,
    required_blocks: u64,
    attack_cost_usd: f64,
    atomicity_violated: bool,
}

/// Run the attack at every depth and assert where atomicity breaks.
pub fn run() -> Vec<Record> {
    // The paper's Bitcoin witness figures and worked example.
    let hourly_cost = 300_000.0;
    let blocks_per_hour = 6.0;
    let value_at_risk = VALUE_AT_RISK;

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
            atomicity_violated: !report.verdict.is_atomic(),
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
    for r in &rows {
        assert_eq!(
            r.atomicity_violated,
            r.required_blocks <= r.affordable_blocks,
            "d={}: the attack succeeds exactly when its branch fits the budget",
            r.witness_depth
        );
    }
    let violated: Vec<u64> =
        rows.iter().filter(|r| r.atomicity_violated).map(|r| r.witness_depth).collect();
    assert_eq!(violated, [1, 2], "atomicity breaks at exactly d = 1, 2 for Va = $250K");
    Vec::new()
}
