//! Byzantine campaign property tests: under any seeded random campaign of
//! crashes, partitions, 51% forks, equivocating witnesses, bribed
//! attestations and fee-market griefing, no honest participant loses
//! principal within its timelock margin — every honest machine reaches
//! commit-or-refund-all (the atomicity audit passes and nobody times out
//! past its wait cap), and every slashable Byzantine act leaves exactly one
//! accepted on-chain evidence object.
//!
//! Trials are drawn through `ac3_seeded::check`, so a failure shrinks: the
//! harness deletes, zeroes and halves the trial's recorded draws while the
//! property still fails, and panics with the minimal failing
//! `(seed, swaps, space)` trial.

use ac3_seeded::{check, Gen};
use ac3wn::prelude::*;

/// One sampled campaign: everything needed to reproduce a failure.
#[derive(Debug)]
struct Trial {
    seed: u64,
    swaps: usize,
    space: CampaignSpace,
}

impl Trial {
    fn config(&self) -> CampaignConfig {
        let mut cfg = CampaignConfig::new(self.seed);
        cfg.swaps = self.swaps;
        cfg.space = self.space.clone();
        cfg
    }
}

/// Sample a campaign from the generator: a mixed-protocol batch under the
/// default (adaptive-fee) posture, with every fault class drawn
/// independently.
fn sample_trial(gen: &mut Gen) -> Trial {
    // Field order matters: each field is one draw from the generator.
    let space = CampaignSpace {
        crashes: gen.below(3) as usize,
        partitions: gen.below(2) as usize,
        forks: gen.below(2) as usize,
        equivocations: gen.below(3) as usize,
        bribes: gen.below(2) as usize,
        floods: gen.below(2) as usize,
        spikes: gen.below(2) as usize,
        griefing_budget: [0, 500, 1_000, 2_000][gen.below(4) as usize],
        ..CampaignSpace::default()
    };
    Trial { seed: gen.next_u64(), swaps: 4 + gen.below(5) as usize, space }
}

/// The property. `Err` carries a diagnosis; the campaign report's failure
/// list names the machine and error for honest losses.
fn holds(trial: &Trial) -> Result<(), String> {
    let report = run_campaign(&trial.config()).map_err(|e| format!("campaign errored: {e}"))?;
    if report.failed > 0 {
        return Err(format!(
            "{} honest machine(s) lost liveness past the timelock margin: {:?}",
            report.failed, report.failures
        ));
    }
    if report.adversary_failures > 0 {
        return Err(format!("adversary machine errored: {:?}", report.failures));
    }
    if !report.atomic {
        return Err("commit-or-refund-all violated: atomicity audit failed".to_string());
    }
    if report.slashes_accepted != report.equivocations {
        return Err(format!(
            "equivocations {} but accepted slashes {}: a Byzantine witness escaped \
             without a slashable evidence object",
            report.equivocations, report.slashes_accepted
        ));
    }
    if report.bonds_slashed != report.equivocations {
        return Err(format!(
            "equivocations {} but slashed bonds {}",
            report.equivocations, report.bonds_slashed
        ));
    }
    if report.duplicate_slash_reports_rejected != report.equivocations {
        return Err(format!(
            "equivocations {} but duplicate reports rejected {}: a bond was slashed twice",
            report.equivocations, report.duplicate_slash_reports_rejected
        ));
    }
    if report.bribes_detected != report.bribes {
        return Err(format!(
            "bribed attestations {} but detected {}",
            report.bribes, report.bribes_detected
        ));
    }
    if report.equivocations > 0 && report.stake_slashed == 0 {
        return Err("a slashed equivocation must forfeit stake".to_string());
    }
    Ok(())
}

/// The tentpole property: 20 independently sampled campaigns, all holding
/// principal-safety and exactly-once slashing. On failure, the panic
/// message is the *shrunk* minimal reproduction.
#[test]
fn no_honest_principal_lost_under_any_seeded_campaign() {
    check("byzantine-campaigns-v1", 20, |g| {
        let trial = sample_trial(g);
        if let Err(diagnosis) = holds(&trial) {
            panic!("{diagnosis}\n  repro: {trial:?}");
        }
    });
}

/// A campaign with every fault class active at once (the kitchen sink)
/// still commits its unharassed lanes and slashes exactly once per
/// equivocation.
#[test]
fn kitchen_sink_campaign_holds_every_invariant() {
    let trial = Trial {
        seed: 0xB12A,
        swaps: 8,
        space: CampaignSpace {
            crashes: 2,
            partitions: 1,
            forks: 1,
            equivocations: 2,
            bribes: 1,
            floods: 1,
            spikes: 1,
            griefing_budget: 2_000,
            ..CampaignSpace::default()
        },
    };
    holds(&trial).expect("kitchen-sink campaign holds");
    let report = run_campaign(&trial.config()).expect("campaign executes");
    assert_eq!(report.equivocations, 2, "two equivocations planned");
    assert_eq!(report.slashes_accepted, 2, "both slashed exactly once");
    assert!(report.adversary_fees > 0, "griefing spend is attributed to the adversary");
}

/// Shrinking through the harness: against a synthetic predicate that fails
/// exactly when floods and spikes are both present, a failing sampled trial
/// shrinks to the smallest one — every other fault class, the griefing
/// budget and the seed at zero, the batch at its floor.
#[test]
fn plan_shrinking_strips_irrelevant_fault_classes() {
    let panic = std::panic::catch_unwind(|| {
        check("byzantine-shrinking", 20, |g| {
            let trial = sample_trial(g);
            let interact = trial.space.floods > 0 && trial.space.spikes > 0;
            assert!(!interact, "synthetic: floods × spikes interact in {trial:?}");
        })
    })
    .expect_err("some sampled trial floods and spikes at once");
    let message = panic.downcast::<String>().expect("the harness panics with text");
    let minimal = Trial {
        seed: 0,
        swaps: 4,
        space: CampaignSpace {
            crashes: 0,
            partitions: 0,
            forks: 0,
            equivocations: 0,
            bribes: 0,
            floods: 1,
            spikes: 1,
            griefing_budget: 0,
            ..CampaignSpace::default()
        },
    };
    let expected = format!("shrunk failure: synthetic: floods × spikes interact in {minimal:?}\n");
    assert!(message.contains(&expected), "{message}");
}
