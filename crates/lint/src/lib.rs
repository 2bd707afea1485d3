//! # ac3-lint
//!
//! The workspace invariant linter: a self-contained, dependency-free
//! static-analysis engine that machine-checks the source-level invariants
//! every determinism claim in this repository rests on. The rules (see
//! DESIGN.md §14 for the catalogue and semantics):
//!
//! * **wall-clock** — `std::time` (`Instant::now`, `SystemTime`, …) is
//!   banned in simulated code; time flows only through `ChainApi::now`.
//! * **ambient-entropy** — `thread_rng`/`OsRng`/`from_entropy` are banned
//!   outside allow-listed seeded constructors; all randomness flows from
//!   explicit seeds.
//! * **chainapi-seam** — protocol machine modules (every file that
//!   implements `SwapMachine` outside its tests) must not name
//!   `ac3_sim::World`; machines speak the `ChainApi` trait only.
//! * **unordered-iteration** — iterating a `HashMap`/`HashSet` in a
//!   fingerprint-relevant crate requires an inline
//!   `// lint: ordered-ok(<why>)` justification.
//! * **no-unsafe** — the `unsafe` keyword is banned workspace-wide, and
//!   listed crate roots must carry `#![forbid(unsafe_code)]`.
//! * **test-only-pub** — a `pub` item that no non-test code names needs an
//!   inline `// lint: api-ok(<why>)` justification; otherwise delete it.
//!
//! There is no `syn` in `vendor/`, so the linter ships its own
//! comment/string/raw-string-aware lexer ([`lexer`]) and a
//! path-resolution-lite rule engine ([`rules`]) that builds per-file import
//! maps from `use` declarations — enough to tell `ac3_sim::World` from
//! `ProtocolError::World` and `std::time::Instant` from the chain's
//! `SealPolicy::Instant` without a type checker. `#[cfg(test)]` items are
//! stripped before rules run: the invariants bind shipped code, while test
//! harnesses legitimately build `World`s directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;

pub use config::Config;
pub use report::{Finding, Report};

use rules::FileCtx;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The rule names the engine understands, in execution order.
pub const RULE_NAMES: [&str; 6] = [
    "wall-clock",
    "ambient-entropy",
    "chainapi-seam",
    "unordered-iteration",
    "no-unsafe",
    "test-only-pub",
];

/// Code that calls into the `test-only-pub` scope without being checked by
/// it: the examples, and the benchmark, which is a binary of its own. A
/// root missing from the scanned tree is skipped.
const CALLER_ONLY_ROOTS: [&str; 2] = ["examples", "crates/bench/perf/src"];

/// Keys each rule section accepts (anything else is a config error).
fn allowed_keys(rule: &str) -> &'static [&'static str] {
    match rule {
        "wall-clock" => &["crates", "banned-modules"],
        "ambient-entropy" => &["crates", "banned-idents", "allow-in-fns"],
        "chainapi-seam" => &["crates", "banned-type", "from-crates"],
        "unordered-iteration" => &["crates", "iter-methods"],
        "no-unsafe" => &["crates", "require-forbid"],
        "test-only-pub" => &["crates"],
        _ => &[],
    }
}

/// Validate a parsed config against the known rules and keys.
pub fn validate_config(config: &Config) -> Result<(), String> {
    for name in config.section_names() {
        if !RULE_NAMES.contains(&name) {
            return Err(format!("unknown rule section [{name}]"));
        }
        let allowed = allowed_keys(name);
        for key in config.section(name).expect("section exists").keys() {
            if !allowed.contains(&key) {
                return Err(format!("unknown key `{key}` in [{name}]"));
            }
        }
    }
    Ok(())
}

/// One lexed file ready for the rules.
struct PreparedFile {
    rel_path: String,
    tokens: Vec<lexer::Spanned>,
    waivers: Vec<lexer::Waiver>,
    imports: Vec<rules::Import>,
}

impl PreparedFile {
    fn ctx(&self) -> FileCtx<'_> {
        FileCtx {
            path: &self.rel_path,
            tokens: &self.tokens,
            waivers: &self.waivers,
            imports: &self.imports,
        }
    }
}

/// Run every configured rule over the workspace rooted at `root`.
pub fn run(root: &Path, config: &Config) -> Result<Report, String> {
    validate_config(config)?;
    let mut report = Report::default();
    // Lex each file once, shared across rules.
    let mut cache: BTreeMap<String, PreparedFile> = BTreeMap::new();

    let prepare_paths = |paths: &[PathBuf],
                         cache: &mut BTreeMap<String, PreparedFile>|
     -> Result<Vec<String>, String> {
        let mut rels = Vec::new();
        for path in paths {
            let rel = rel_path(root, path);
            if !cache.contains_key(&rel) {
                let source = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let lexed = lexer::lex(&source);
                let (tokens, waivers, imports) = rules::prepare(lexed);
                cache.insert(
                    rel.clone(),
                    PreparedFile { rel_path: rel.clone(), tokens, waivers, imports },
                );
            }
            rels.push(rel);
        }
        Ok(rels)
    };

    for rule in RULE_NAMES {
        let Some(section) = config.section(rule) else { continue };
        report.rules_run.push(rule.to_string());
        let mut files = Vec::new();
        for crate_root in section.array("crates") {
            collect_rs_files(&root.join(crate_root), &mut files)?;
        }
        files.sort();
        let rels = prepare_paths(&files, &mut cache)?;
        // Every name the non-test code in scope, or calling into it, uses.
        let mut callers = rules::Callers::default();
        if rule == "test-only-pub" {
            let mut caller_files = Vec::new();
            for caller_root in CALLER_ONLY_ROOTS.iter().map(|r| root.join(r)) {
                if caller_root.exists() {
                    collect_rs_files(&caller_root, &mut caller_files)?;
                }
            }
            let caller_rels = prepare_paths(&caller_files, &mut cache)?;
            for rel in rels.iter().chain(&caller_rels) {
                callers.collect(&cache.get(rel).expect("prepared above").tokens);
            }
        }
        for rel in &rels {
            let file = cache.get(rel).expect("prepared above");
            let ctx = file.ctx();
            // The seam is worked out, not listed: a file is in it because
            // it implements a machine, so a new one cannot be left out.
            if rule == "chainapi-seam" && !rules::implements_machine(&ctx) {
                continue;
            }
            let findings = match rule {
                "wall-clock" => {
                    let banned: Vec<Vec<String>> = section
                        .array("banned-modules")
                        .iter()
                        .map(|m| m.split("::").map(str::to_string).collect())
                        .collect();
                    rules::wall_clock(&ctx, &banned)
                }
                "ambient-entropy" => rules::ambient_entropy(
                    &ctx,
                    section.array("banned-idents"),
                    section.array("allow-in-fns"),
                ),
                "chainapi-seam" => rules::chainapi_seam(
                    &ctx,
                    section.string("banned-type").unwrap_or("World"),
                    section.array("from-crates"),
                ),
                "unordered-iteration" => {
                    let default_methods: Vec<String> = [
                        "iter",
                        "iter_mut",
                        "keys",
                        "values",
                        "values_mut",
                        "drain",
                        "retain",
                        "into_iter",
                        "into_keys",
                        "into_values",
                    ]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                    let methods = if section.array("iter-methods").is_empty() {
                        default_methods
                    } else {
                        section.array("iter-methods").to_vec()
                    };
                    rules::unordered_iteration(&ctx, &methods)
                }
                "no-unsafe" => {
                    let require = section.array("require-forbid").iter().any(|f| f == rel.as_str());
                    rules::no_unsafe(&ctx, require)
                }
                "test-only-pub" => rules::test_only_pub(&ctx, &callers),
                _ => unreachable!("validated above"),
            };
            report.findings.extend(findings);
        }
        // `require-forbid` entries that no crate root in scope covered are
        // themselves checked (a missing lib.rs must not pass silently).
        if rule == "no-unsafe" {
            for required in section.array("require-forbid") {
                if !cache.contains_key(required) {
                    let path = root.join(required);
                    if path.is_file() {
                        let rels = prepare_paths(&[path], &mut cache)?;
                        let file = cache.get(&rels[0]).expect("prepared above");
                        report.findings.extend(rules::no_unsafe(&file.ctx(), true));
                    } else {
                        report.findings.push(Finding::new(
                            "no-unsafe",
                            required,
                            1,
                            "crate root listed in `require-forbid` does not exist".to_string(),
                        ));
                    }
                }
            }
        }
    }

    report.files_scanned = cache.len();
    report.findings.sort();
    report.findings.dedup();
    Ok(report)
}

/// Repo-relative path with `/` separators (stable across platforms for
/// JSON output and fixture tests).
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// Recursively collect `.rs` files under `dir`, sorted by path.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if dir.is_file() {
        out.push(dir.to_path_buf());
        return Ok(());
    }
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
