//! The committed `lint.toml` must hold against the workspace it ships with.
//!
//! This is the same check CI's `lint` job runs via the binary; keeping it as
//! a test means `cargo test` alone catches a reintroduced violation.

use ac3_lint::{run, validate_config, Config};
use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
}

#[test]
fn committed_config_parses_and_validates() {
    let text = std::fs::read_to_string(workspace_root().join("lint.toml"))
        .expect("lint.toml exists at the workspace root");
    let config = Config::parse(&text).expect("lint.toml parses");
    validate_config(&config).expect("lint.toml names only known rules and keys");
    // All six rules must be configured — dropping a section silently
    // disables the rule, and that must be a deliberate, reviewed change.
    for rule in ac3_lint::RULE_NAMES {
        assert!(config.section(rule).is_some(), "rule [{rule}] missing from lint.toml");
    }
}

#[test]
fn workspace_is_clean_under_committed_config() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml exists");
    let config = Config::parse(&text).expect("lint.toml parses");
    let report = run(root, &config).expect("lint run succeeds");
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{}",
        report.findings.iter().map(|f| format!("  {f}")).collect::<Vec<_>>().join("\n")
    );
    // Sanity: the run actually covered the first-party source tree.
    assert!(report.files_scanned > 50, "only {} files scanned", report.files_scanned);
}
