//! Fixture-corpus tests: every rule is exercised against a violating and a
//! clean fixture, and the exact `(rule, file, line)` attributions are pinned.
//!
//! The fixtures live under `tests/fixtures/` (outside any `src/` root, so the
//! committed `lint.toml` never scans them) and the configuration here is
//! built programmatically so the corpus is independent of the workspace's
//! real rule scope.

use ac3_lint::{run, Config};
use std::path::Path;

/// A config whose six rules all point at the fixture corpus.
fn fixture_config() -> Config {
    Config::parse(
        r#"
        [wall-clock]
        crates = ["tests/fixtures"]
        banned-modules = ["std::time"]

        [ambient-entropy]
        crates = ["tests/fixtures"]
        banned-idents = ["thread_rng", "OsRng", "from_entropy"]
        allow-in-fns = ["from_seed"]

        [chainapi-seam]
        crates = ["tests/fixtures"]
        banned-type = "World"
        from-crates = ["ac3_sim"]

        [unordered-iteration]
        crates = ["tests/fixtures"]

        [no-unsafe]
        crates = ["tests/fixtures"]
        require-forbid = ["tests/fixtures/no_unsafe_violation.rs"]

        # Every other fixture's public items have no callers by design.
        [test-only-pub]
        crates = [
            "tests/fixtures/test_only_pub_clean.rs",
            "tests/fixtures/test_only_pub_violation.rs",
        ]
        "#,
    )
    .expect("the fixture config parses")
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
        ("test-only-pub", "tests/fixtures/test_only_pub_violation.rs", 3),
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
    assert_eq!(report.files_scanned, 12);
    assert_eq!(report.rules_run.len(), 6);
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
    assert!(json.contains("\"finding_count\": 11"));
    assert!(json.contains("\"files_scanned\": 12"));
    assert!(json.contains("\"rule\": \"chainapi-seam\""));
    assert!(json.contains("\"file\": \"tests/fixtures/wall_clock_violation.rs\""));
}
