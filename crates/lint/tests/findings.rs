//! Fixture-corpus tests: every rule is exercised against a violating and a
//! clean fixture, and the exact `(rule, file, line)` attributions are pinned.
//!
//! The fixtures live under `tests/fixtures/` (outside any `src/` root, so the
//! committed `lint.toml` never scans them) and the configuration here is
//! built programmatically so the corpus is independent of the workspace's
//! real rule scope.

use ac3_lint::config::Section;
use ac3_lint::{run, Config};
use std::path::Path;

/// A config whose five rules all point at the fixture corpus.
fn fixture_config() -> Config {
    let mut config = Config::default();

    let mut wall_clock = Section::default();
    wall_clock.set_array("crates", vec!["tests/fixtures"]);
    wall_clock.set_array("banned-modules", vec!["std::time"]);
    config.set_section("wall-clock", wall_clock);

    let mut entropy = Section::default();
    entropy.set_array("crates", vec!["tests/fixtures"]);
    entropy.set_array("banned-idents", vec!["thread_rng", "OsRng", "from_entropy"]);
    entropy.set_array("allow-in-fns", vec!["from_seed"]);
    config.set_section("ambient-entropy", entropy);

    let mut seam = Section::default();
    seam.set_array("crates", vec!["tests/fixtures"]);
    seam.set_string("banned-type", "World");
    seam.set_array("from-crates", vec!["ac3_sim"]);
    config.set_section("chainapi-seam", seam);

    let mut iteration = Section::default();
    iteration.set_array("crates", vec!["tests/fixtures"]);
    config.set_section("unordered-iteration", iteration);

    let mut no_unsafe = Section::default();
    no_unsafe.set_array("crates", vec!["tests/fixtures"]);
    no_unsafe.set_array("require-forbid", vec!["tests/fixtures/no_unsafe_violation.rs"]);
    config.set_section("no-unsafe", no_unsafe);

    config
}

#[test]
fn fixture_corpus_produces_exact_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = run(root, &fixture_config()).expect("lint run succeeds");

    let got: Vec<(&str, &str, u32)> =
        report.findings.iter().map(|f| (f.rule.as_str(), f.file.as_str(), f.line)).collect();

    // Sorted by (file, line): the linter's output order is part of its
    // contract (stable JSON artifacts, diffable CI logs).
    let expected: Vec<(&str, &str, u32)> = vec![
        ("ambient-entropy", "tests/fixtures/ambient_entropy_violation.rs", 4),
        ("ambient-entropy", "tests/fixtures/ambient_entropy_violation.rs", 9),
        ("chainapi-seam", "tests/fixtures/chainapi_seam_violation.rs", 3),
        ("chainapi-seam", "tests/fixtures/chainapi_seam_violation.rs", 5),
        ("no-unsafe", "tests/fixtures/no_unsafe_violation.rs", 1),
        ("no-unsafe", "tests/fixtures/no_unsafe_violation.rs", 4),
        ("unordered-iteration", "tests/fixtures/unordered_iteration_violation.rs", 12),
        ("unordered-iteration", "tests/fixtures/unordered_iteration_violation.rs", 22),
        ("wall-clock", "tests/fixtures/wall_clock_violation.rs", 3),
        ("wall-clock", "tests/fixtures/wall_clock_violation.rs", 6),
    ];
    assert_eq!(got, expected, "findings:\n{:#?}", report.findings);

    // No clean fixture contributes a finding.
    for f in &report.findings {
        assert!(!f.file.ends_with("_clean.rs"), "clean fixture flagged: {f}");
    }
    assert_eq!(report.files_scanned, 10);
    assert_eq!(report.rules_run.len(), 5);
}

#[test]
fn waiver_requires_reason() {
    // The clean iteration fixture relies on a waiver WITH a reason; the same
    // file minus the reason must be flagged. Rather than duplicating the
    // fixture, assert the violating fixture's unjustified loops are the only
    // iteration findings — the waivered loop in the clean fixture iterates an
    // identically-tainted HashMap field.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = run(root, &fixture_config()).expect("lint run succeeds");
    let iteration: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "unordered-iteration")
        .map(|f| f.file.as_str())
        .collect();
    assert_eq!(
        iteration,
        vec![
            "tests/fixtures/unordered_iteration_violation.rs",
            "tests/fixtures/unordered_iteration_violation.rs"
        ]
    );
}

#[test]
fn json_report_round_trips_fixture_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = run(root, &fixture_config()).expect("lint run succeeds");
    let json = report.to_json();
    assert!(json.contains("\"finding_count\": 10"));
    assert!(json.contains("\"files_scanned\": 10"));
    assert!(json.contains("\"rule\": \"chainapi-seam\""));
    assert!(json.contains("\"file\": \"tests/fixtures/wall_clock_violation.rs\""));
}
