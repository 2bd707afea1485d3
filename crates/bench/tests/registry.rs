//! Every experiment of the registry, run in-process, one thread each. Each
//! asserts its paper claims inside itself, and each record it returns must
//! match the committed `BENCH_*.json` file exactly, host-time fields aside.
//!
//! `sec52_scale` is the exception: at its paper size (10k swaps) it is a
//! release-build job for `repro`, so here it runs at 8 clusters × 4 swaps
//! with all its asserts, and its record is not compared.

use ac3_bench::{sec52_scale, EXPERIMENTS};

#[test]
fn every_experiment_holds_its_claims_and_reproduces_its_record() {
    let failures: Vec<String> = std::thread::scope(|scope| {
        let runs: Vec<_> = EXPERIMENTS
            .iter()
            .map(|e| {
                let run = scope.spawn(move || {
                    if e.name == "sec52_scale" {
                        sec52_scale::sweep(8, 4, 4);
                        return Ok(());
                    }
                    (e.run)().iter().try_for_each(|record| record.check())
                });
                (e.name, run)
            })
            .collect();
        runs.into_iter()
            .filter_map(|(name, run)| match run.join() {
                Ok(Ok(())) => None,
                Ok(Err(drift)) => Some(format!("{name}: record drift\n{drift}")),
                Err(_) => Some(format!("{name}: panicked (its message is above)")),
            })
            .collect()
    });
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
