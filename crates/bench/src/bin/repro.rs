//! Reproduce the paper's experiments.
//!
//! `repro [<name>...] [--write]` runs the named experiments of
//! [`ac3_bench::EXPERIMENTS`], or all of them when no name is given, each
//! at the paper's size. Every record an experiment returns is compared
//! exactly with the committed `BENCH_*.json` file, host-time fields aside;
//! any drift exits non-zero. `--write` rewrites the files instead.

use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    let write = match flags.as_slice() {
        [] => false,
        [flag] if flag == "--write" => true,
        _ => return usage(&format!("unknown option {flags:?}")),
    };
    let experiments = match ac3_bench::select(&names) {
        Ok(experiments) => experiments,
        Err(unknown) => return usage(&format!("unknown experiment {unknown:?}")),
    };

    let mut drifted = Vec::new();
    for experiment in experiments {
        println!("\n######## {} ########", experiment.name);
        let t0 = Instant::now();
        let records = (experiment.run)();
        let secs = t0.elapsed().as_secs_f64();
        for record in &records {
            if write {
                record.write().unwrap_or_else(|e| panic!("{}: {e}", record.file));
                println!("\n{}: wrote {}", experiment.name, record.file);
            } else if let Err(drift) = record.check() {
                eprintln!(
                    "\n{}: {} drifted from the committed record:\n{drift}",
                    experiment.name, record.file
                );
                drifted.push(record.file);
            } else {
                println!("\n{}: {} matches the committed record", experiment.name, record.file);
            }
        }
        println!("{}: done in {secs:.2} s", experiment.name);
    }
    if drifted.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\nrepro: {} record(s) drifted: {drifted:?} (rerun with --write to accept)",
            drifted.len()
        );
        ExitCode::FAILURE
    }
}

fn usage(error: &str) -> ExitCode {
    let names: Vec<&str> = ac3_bench::EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!(
        "repro: {error}\nusage: repro [<name>...] [--write]\nexperiments: {}",
        names.join(" ")
    );
    ExitCode::from(2)
}
