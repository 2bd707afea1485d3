//! The rule engine: path-resolution-lite static checks over token streams.
//!
//! Rules never see raw text — they see the [`crate::lexer`] token stream
//! (comments and literal contents already stripped, `#[cfg(test)]` items
//! removed) plus a per-file *import map* built from `use` declarations. That
//! is enough path resolution to tell `ac3_sim::World` from
//! `ProtocolError::World` and `std::time::Instant` from the chain's
//! `SealPolicy::Instant` without a type checker.

use crate::lexer::{Lexed, Spanned, Tok, Waiver};
use crate::report::Finding;
use std::collections::BTreeMap;

/// One parsed `use` import: the full path and the name it binds locally
/// (the leaf segment, an `as` rename, or `*` for a glob).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Import {
    /// Full path segments, e.g. `["std", "time", "Instant"]`.
    pub path: Vec<String>,
    /// The locally bound name (`Instant`, a rename, or `*`).
    pub alias: String,
    /// 1-indexed line of the binding.
    pub line: u32,
}

/// Everything the rules need to know about one file.
pub struct FileCtx<'a> {
    /// Repo-relative path with `/` separators.
    pub path: &'a str,
    /// Token stream with `#[cfg(test)]` items stripped.
    pub tokens: &'a [Spanned],
    /// Inline waivers from line comments.
    pub waivers: &'a [Waiver],
    /// Imports parsed from `use` declarations.
    pub imports: &'a [Import],
}

impl FileCtx<'_> {
    /// Whether a waiver with `tag` (and a non-empty reason) covers `line` —
    /// i.e. sits on the line itself or the line immediately above.
    pub fn waived(&self, tag: &str, line: u32) -> Option<&Waiver> {
        self.waivers.iter().find(|w| {
            w.tag == tag && !w.reason.is_empty() && (w.line == line || w.line + 1 == line)
        })
    }

    /// The import binding `name`, if any.
    pub fn import_of(&self, name: &str) -> Option<&Import> {
        self.imports.iter().find(|i| i.alias == name)
    }
}

/// Parse every `use` declaration in a token stream into flat imports.
pub fn parse_imports(tokens: &[Spanned]) -> Vec<Import> {
    let mut imports = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if let Tok::Ident(id) = &tokens[i].tok {
            // `use` at item position: not part of a path or a field access.
            let prev = i.checked_sub(1).map(|p| &tokens[p].tok);
            let is_item =
                id == "use" && !matches!(prev, Some(Tok::PathSep) | Some(Tok::Punct('.')));
            if is_item {
                let line = tokens[i].line;
                let end = tokens[i + 1..]
                    .iter()
                    .position(|s| s.tok == Tok::Punct(';'))
                    .map(|p| i + 1 + p)
                    .unwrap_or(tokens.len());
                let mut cursor = i + 1;
                parse_use_tree(tokens, &mut cursor, end, &mut Vec::new(), line, &mut imports);
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    imports
}

/// Recursive descent over one `use` tree between `cursor` and `end`.
fn parse_use_tree(
    tokens: &[Spanned],
    cursor: &mut usize,
    end: usize,
    prefix: &mut Vec<String>,
    line: u32,
    out: &mut Vec<Import>,
) {
    let depth_at_entry = prefix.len();
    let mut last: Option<String> = None;
    while *cursor < end {
        match &tokens[*cursor].tok {
            Tok::Ident(id) if id == "as" => {
                // Rename: `path as Name`.
                *cursor += 1;
                if let Some(Tok::Ident(alias)) = tokens.get(*cursor).map(|s| &s.tok) {
                    if let Some(leaf) = last.take() {
                        prefix.push(leaf);
                        out.push(Import { path: prefix.clone(), alias: alias.clone(), line });
                        prefix.pop();
                    }
                    *cursor += 1;
                }
            }
            Tok::Ident(id) => {
                if let Some(leaf) = last.replace(id.clone()) {
                    // Two idents without `::` should not happen; keep the
                    // newer one but emit the older as a leaf for safety.
                    prefix.push(leaf.clone());
                    out.push(Import { path: prefix.clone(), alias: leaf, line });
                    prefix.pop();
                }
                *cursor += 1;
            }
            Tok::PathSep => {
                if let Some(seg) = last.take() {
                    prefix.push(seg);
                }
                *cursor += 1;
            }
            Tok::Punct('*') => {
                out.push(Import {
                    path: {
                        let mut p = prefix.clone();
                        p.push("*".to_string());
                        p
                    },
                    alias: "*".to_string(),
                    line,
                });
                *cursor += 1;
            }
            Tok::Punct('{') => {
                *cursor += 1;
                parse_use_tree(tokens, cursor, end, prefix, line, out);
            }
            Tok::Punct('}') => {
                if let Some(leaf) = last.take() {
                    prefix.push(leaf.clone());
                    out.push(Import { path: prefix.clone(), alias: leaf, line });
                    prefix.pop();
                }
                prefix.truncate(depth_at_entry);
                *cursor += 1;
                return;
            }
            Tok::Punct(',') => {
                if let Some(leaf) = last.take() {
                    prefix.push(leaf.clone());
                    out.push(Import { path: prefix.clone(), alias: leaf, line });
                    prefix.pop();
                }
                prefix.truncate(depth_at_entry);
                *cursor += 1;
            }
            _ => {
                *cursor += 1;
            }
        }
    }
    if let Some(leaf) = last.take() {
        prefix.push(leaf.clone());
        out.push(Import { path: prefix.clone(), alias: leaf, line });
        prefix.pop();
    }
    prefix.truncate(depth_at_entry);
}

/// Walk back from a `Name` preceded by `::` to the head segment of its
/// path: for `a::b::Name` at index `i` of `Name`, returns `Some("a")`.
fn path_head(tokens: &[Spanned], i: usize) -> Option<&str> {
    let mut head: Option<&str> = None;
    let mut j = i;
    while j >= 2 && tokens[j - 1].tok == Tok::PathSep {
        match &tokens[j - 2].tok {
            Tok::Ident(seg) => {
                head = Some(seg);
                j -= 2;
            }
            // `<T as Trait>::name` and similar — opaque, give up.
            _ => return None,
        }
    }
    head
}

/// The `wall-clock` rule: no `std::time` in simulated code — neither
/// imported nor named inline. Time flows only through `ChainApi::now`.
pub fn wall_clock(ctx: &FileCtx, banned_modules: &[Vec<String>]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for import in ctx.imports {
        for banned in banned_modules {
            if import.path.len() >= banned.len() && import.path[..banned.len()] == banned[..] {
                findings.push(Finding::new(
                    "wall-clock",
                    ctx.path,
                    import.line,
                    format!(
                        "`{}` imported in simulated code; time flows only through `ChainApi::now`",
                        import.path.join("::")
                    ),
                ));
            }
        }
    }
    // Inline qualified paths: `std::time::…` without an import.
    for (i, s) in ctx.tokens.iter().enumerate() {
        let Tok::Ident(id) = &s.tok else { continue };
        for banned in banned_modules {
            if *id != banned[0] {
                continue;
            }
            // Must start a path (`std::`), not terminate one (`x::std`).
            if i > 0 && ctx.tokens[i - 1].tok == Tok::PathSep {
                continue;
            }
            let mut matched = true;
            for (k, seg) in banned.iter().enumerate().skip(1) {
                let sep = ctx.tokens.get(i + 2 * k - 1).map(|s| &s.tok);
                let ident = ctx.tokens.get(i + 2 * k).map(|s| &s.tok);
                if sep != Some(&Tok::PathSep) || !matches!(ident, Some(Tok::Ident(t)) if t == seg) {
                    matched = false;
                    break;
                }
            }
            if matched && !ctx.imports.iter().any(|imp| imp.line == s.line) {
                findings.push(Finding::new(
                    "wall-clock",
                    ctx.path,
                    s.line,
                    format!(
                        "`{}` named in simulated code; time flows only through `ChainApi::now`",
                        banned.join("::")
                    ),
                ));
            }
        }
    }
    findings
}

/// The `ambient-entropy` rule: seeded determinism means no OS randomness —
/// the listed identifiers may appear only inside allow-listed constructor
/// functions (e.g. a `from_seed` that documents its seeding).
pub fn ambient_entropy(ctx: &FileCtx, banned: &[String], allow_in_fns: &[String]) -> Vec<Finding> {
    let enclosing = enclosing_fns(ctx.tokens);
    let mut findings = Vec::new();
    for (i, s) in ctx.tokens.iter().enumerate() {
        let Tok::Ident(id) = &s.tok else { continue };
        if !banned.iter().any(|b| b == id) {
            continue;
        }
        if let Some(fn_name) = &enclosing[i] {
            if allow_in_fns.iter().any(|a| a == fn_name) {
                continue;
            }
        }
        if ctx.waived("entropy", s.line).is_some() {
            continue;
        }
        findings.push(Finding::new(
            "ambient-entropy",
            ctx.path,
            s.line,
            format!("`{id}` is ambient entropy; all randomness must flow from an explicit seed"),
        ));
    }
    findings
}

/// For each token index, the name of the innermost enclosing `fn`, if any.
fn enclosing_fns(tokens: &[Spanned]) -> Vec<Option<String>> {
    let mut out = vec![None; tokens.len()];
    // Stack of (fn name, brace depth at which its body opened).
    let mut stack: Vec<(String, usize)> = Vec::new();
    let mut pending: Option<String> = None;
    let mut depth = 0usize;
    for (i, s) in tokens.iter().enumerate() {
        match &s.tok {
            Tok::Ident(id) if id == "fn" => {
                if let Some(Tok::Ident(name)) = tokens.get(i + 1).map(|t| &t.tok) {
                    pending = Some(name.clone());
                }
            }
            Tok::Punct(';') => {
                // Trait method declaration without a body.
                pending = None;
            }
            Tok::Punct('{') => {
                depth += 1;
                if let Some(name) = pending.take() {
                    stack.push((name, depth));
                }
            }
            Tok::Punct('}') => {
                if let Some((_, d)) = stack.last() {
                    if *d == depth {
                        stack.pop();
                    }
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
        out[i] = stack.last().map(|(name, _)| name.clone());
    }
    out
}

/// The trait whose implementors are protocol machines.
const MACHINE_TRAIT: &str = "SwapMachine";

/// Whether the file implements a protocol machine outside its tests (an
/// `impl … SwapMachine for …` header; `#[cfg(test)]` items are already
/// stripped) — the membership test of the `chainapi-seam` rule.
pub fn implements_machine(ctx: &FileCtx) -> bool {
    ctx.tokens.windows(2).any(|pair| {
        matches!(
            (&pair[0].tok, &pair[1].tok),
            (Tok::Ident(name), Tok::Ident(kw)) if name == MACHINE_TRAIT && kw == "for"
        )
    })
}

/// The `chainapi-seam` rule: protocol modules must not name the banned
/// type (`World`) from the banned crates (`ac3_sim`) — machines speak
/// `ChainApi` only. Applied to every file that [`implements_machine`].
pub fn chainapi_seam(ctx: &FileCtx, banned_type: &str, from_crates: &[String]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for import in ctx.imports {
        let leaf_is_banned = import.path.last().map(String::as_str) == Some(banned_type)
            || import.alias == banned_type;
        let head_banned = import.path.first().is_some_and(|h| from_crates.iter().any(|c| c == h));
        let glob_of_banned_crate = import.alias == "*" && head_banned;
        if (leaf_is_banned && head_banned) || glob_of_banned_crate {
            findings.push(Finding::new(
                "chainapi-seam",
                ctx.path,
                import.line,
                format!(
                    "protocol module imports `{}`; machines must speak `ChainApi`, never `{banned_type}`",
                    import.path.join("::")
                ),
            ));
        }
    }
    for (i, s) in ctx.tokens.iter().enumerate() {
        let Tok::Ident(id) = &s.tok else { continue };
        if id != banned_type {
            continue;
        }
        // Import lines are already reported once, above.
        if ctx.imports.iter().any(|imp| imp.line == s.line) {
            continue;
        }
        let qualified = i > 0 && ctx.tokens[i - 1].tok == Tok::PathSep;
        let flagged = if qualified {
            // `head::…::World` — banned only when the path head is a
            // banned crate (so `ProtocolError::World` stays legal).
            path_head(ctx.tokens, i).is_some_and(|h| from_crates.iter().any(|c| c == h))
        } else {
            // Bare `World` — banned when an import binds it to a banned
            // crate.
            ctx.import_of(banned_type).is_some_and(|imp| {
                imp.path.first().is_some_and(|h| from_crates.iter().any(|c| c == h))
            })
        };
        if flagged {
            findings.push(Finding::new(
                "chainapi-seam",
                ctx.path,
                s.line,
                format!("protocol module names `{banned_type}`; machines must speak `ChainApi`"),
            ));
        }
    }
    findings
}

/// The `unordered-iteration` rule: iterating a `HashMap`/`HashSet` in a
/// fingerprint-relevant crate is banned unless justified inline with
/// `// lint: ordered-ok(<why>)`. Names are resolved resolution-lite: a
/// binding or field whose declared type (or constructor) names
/// `HashMap`/`HashSet` taints that identifier for the rest of the file.
pub fn unordered_iteration(ctx: &FileCtx, iter_methods: &[String]) -> Vec<Finding> {
    let hash_names = hash_typed_names(ctx.tokens);
    let mut findings = Vec::new();
    for (i, s) in ctx.tokens.iter().enumerate() {
        let Tok::Ident(id) = &s.tok else { continue };
        // `recv.method(` where method is an iteration adapter.
        if iter_methods.iter().any(|m| m == id)
            && i >= 2
            && ctx.tokens[i - 1].tok == Tok::Punct('.')
            && ctx.tokens.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct('('))
        {
            if let Tok::Ident(recv) = &ctx.tokens[i - 2].tok {
                let direct_ctor = (recv == "HashMap" || recv == "HashSet")
                    || path_head(ctx.tokens, i - 2) == Some("HashMap")
                    || path_head(ctx.tokens, i - 2) == Some("HashSet");
                if hash_names.contains_key(recv.as_str()) || direct_ctor {
                    push_unordered(ctx, &mut findings, s.line, recv, id);
                }
            }
        }
        // `for x in name {` / `for x in &name {` / `for x in &mut self.name {`
        if id == "for" {
            if let Some((recv, line)) = for_loop_hash_target(ctx.tokens, i, &hash_names) {
                push_unordered(ctx, &mut findings, line, &recv, "for-in");
            }
        }
    }
    findings
}

fn push_unordered(ctx: &FileCtx, findings: &mut Vec<Finding>, line: u32, recv: &str, how: &str) {
    if ctx.waived("ordered", line).is_some() {
        return;
    }
    let hint = if ctx.waivers.iter().any(|w| {
        w.tag == "ordered" && w.reason.is_empty() && (w.line == line || w.line + 1 == line)
    }) {
        "; the `ordered-ok()` waiver needs a non-empty justification"
    } else {
        ""
    };
    findings.push(Finding::new(
        "unordered-iteration",
        ctx.path,
        line,
        format!(
            "`{recv}` is a hash container; `{how}` iterates it in nondeterministic order — \
             justify with `// lint: ordered-ok(<why>)` or switch to an ordered structure{hint}"
        ),
    ));
}

/// Names declared with a `HashMap`/`HashSet` type or constructor, mapped to
/// the declaration line.
fn hash_typed_names(tokens: &[Spanned]) -> BTreeMap<String, u32> {
    let mut names = BTreeMap::new();
    for (i, s) in tokens.iter().enumerate() {
        let Tok::Ident(id) = &s.tok else { continue };
        if id != "HashMap" && id != "HashSet" {
            continue;
        }
        // Walk back over the qualifying path (`std::collections::HashMap`).
        let mut j = i;
        while j >= 2 && tokens[j - 1].tok == Tok::PathSep {
            if matches!(tokens[j - 2].tok, Tok::Ident(_)) {
                j -= 2;
            } else {
                break;
            }
        }
        // `name : [path::]HashMap<…>` (field or typed let) or
        // `name = [path::]HashMap::new()` (inferred let).
        if j >= 2 && matches!(tokens[j - 1].tok, Tok::Punct(':') | Tok::Punct('=')) {
            if let Tok::Ident(name) = &tokens[j - 2].tok {
                names.insert(name.clone(), s.line);
            }
        }
    }
    names
}

/// If the `for` loop starting at index `i` iterates a hash-typed name
/// directly (`for x in [&[mut]] [self.]name {`), return that name.
fn for_loop_hash_target(
    tokens: &[Spanned],
    i: usize,
    hash_names: &BTreeMap<String, u32>,
) -> Option<(String, u32)> {
    // Find `in` before the loop body opens.
    let mut j = i + 1;
    let mut guard = 0;
    loop {
        match tokens.get(j).map(|s| &s.tok) {
            Some(Tok::Ident(id)) if id == "in" => break,
            Some(Tok::Punct('{')) | None => return None,
            _ => {
                j += 1;
                guard += 1;
                if guard > 64 {
                    return None;
                }
            }
        }
    }
    j += 1;
    while matches!(tokens.get(j).map(|s| &s.tok), Some(Tok::Punct('&')))
        || matches!(tokens.get(j).map(|s| &s.tok), Some(Tok::Ident(id)) if id == "mut")
    {
        j += 1;
    }
    if matches!(tokens.get(j).map(|s| &s.tok), Some(Tok::Ident(id)) if id == "self")
        && tokens.get(j + 1).map(|s| &s.tok) == Some(&Tok::Punct('.'))
    {
        j += 2;
    }
    let Some(Spanned { tok: Tok::Ident(name), line }) = tokens.get(j) else { return None };
    // Direct iteration only: the next token must open the body (method
    // chains are handled by the adapter check).
    if tokens.get(j + 1).map(|s| &s.tok) != Some(&Tok::Punct('{')) {
        return None;
    }
    if hash_names.contains_key(name.as_str()) {
        Some((name.clone(), *line))
    } else {
        None
    }
}

/// The `no-unsafe` rule: the `unsafe` keyword may not appear at all, and
/// crate roots listed in `require_forbid` must carry
/// `#![forbid(unsafe_code)]`.
pub fn no_unsafe(ctx: &FileCtx, require_forbid: bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    for s in ctx.tokens {
        if matches!(&s.tok, Tok::Ident(id) if id == "unsafe") {
            findings.push(Finding::new(
                "no-unsafe",
                ctx.path,
                s.line,
                "`unsafe` is banned workspace-wide (determinism and shard-safety proofs assume \
                 no aliasing escape hatches)"
                    .to_string(),
            ));
        }
    }
    if require_forbid {
        let has_forbid = ctx.tokens.windows(4).any(|w| {
            matches!(
                (&w[0].tok, &w[1].tok, &w[2].tok, &w[3].tok),
                (Tok::Ident(f), Tok::Punct('('), Tok::Ident(u), Tok::Punct(')'))
                    if f == "forbid" && u == "unsafe_code"
            )
        });
        if !has_forbid {
            findings.push(Finding::new(
                "no-unsafe",
                ctx.path,
                1,
                "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            ));
        }
    }
    findings
}

/// Build a [`FileCtx`]-ready bundle from lexed source.
pub fn prepare(lexed: Lexed) -> (Vec<Spanned>, Vec<Waiver>, Vec<Import>) {
    let tokens = crate::lexer::strip_cfg_test(lexed.tokens);
    let imports = parse_imports(&tokens);
    (tokens, lexed.waivers, imports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx_of<'a>(
        path: &'a str,
        tokens: &'a [Spanned],
        waivers: &'a [Waiver],
        imports: &'a [Import],
    ) -> FileCtx<'a> {
        FileCtx { path, tokens, waivers, imports }
    }

    #[test]
    fn nested_use_groups_flatten() {
        let (tokens, _, imports) = prepare(lex("use a::{b::{c, d as e}, f};"));
        let _ = tokens;
        let paths: Vec<(String, String)> =
            imports.iter().map(|i| (i.path.join("::"), i.alias.clone())).collect();
        assert_eq!(
            paths,
            vec![
                ("a::b::c".into(), "c".into()),
                ("a::b::d".into(), "e".into()),
                ("a::f".into(), "f".into()),
            ]
        );
    }

    #[test]
    fn seal_policy_instant_is_not_wall_clock() {
        let (tokens, waivers, imports) =
            prepare(lex("fn f() { let s = SealPolicy::Instant; s.target() }"));
        let ctx = ctx_of("x.rs", &tokens, &waivers, &imports);
        assert!(wall_clock(&ctx, &[vec!["std".into(), "time".into()]]).is_empty());
    }

    #[test]
    fn std_time_import_and_inline_path_are_flagged() {
        let (tokens, waivers, imports) = prepare(lex(
            "use std::time::Instant;\nfn f() { let t = std::time::SystemTime::now(); }",
        ));
        let ctx = ctx_of("x.rs", &tokens, &waivers, &imports);
        let f = wall_clock(&ctx, &[vec!["std".into(), "time".into()]]);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn protocol_error_world_is_not_a_seam_violation() {
        let (tokens, waivers, imports) =
            prepare(lex("fn f() -> ProtocolError { ProtocolError::World(\"x\".into()) }"));
        let ctx = ctx_of("x.rs", &tokens, &waivers, &imports);
        assert!(chainapi_seam(&ctx, "World", &["ac3_sim".into()]).is_empty());
    }

    #[test]
    fn imported_world_is_flagged_at_import_and_use() {
        let (tokens, waivers, imports) =
            prepare(lex("use ac3_sim::World;\nfn f(w: &mut World) {}"));
        let ctx = ctx_of("x.rs", &tokens, &waivers, &imports);
        let f = chainapi_seam(&ctx, "World", &["ac3_sim".into()]);
        assert_eq!(f.len(), 2);
        assert_eq!((f[0].line, f[1].line), (1, 2));
    }

    #[test]
    fn a_machine_file_is_in_the_seam_without_being_listed() {
        let machine = "use ac3_sim::World;\nstruct M;\nimpl crate::driver::SwapMachine for M {\n fn poll(&mut self, w: &mut World) {}\n}";
        let (tokens, waivers, imports) = prepare(lex(machine));
        let ctx = ctx_of("crates/core/src/brand_new_machine.rs", &tokens, &waivers, &imports);
        assert!(implements_machine(&ctx));
        let f = chainapi_seam(&ctx, "World", &["ac3_sim".into()]);
        assert_eq!(f.iter().map(|f| f.line).collect::<Vec<_>>(), [1, 4]);

        // A harness that drives machines, or a machine that only exists in
        // the file's tests, is outside it.
        for outside in [
            "use ac3_sim::World;\nfn drive(m: &mut dyn SwapMachine, w: &mut World) {}",
            "#[cfg(test)]\nmod tests {\n struct T;\n impl SwapMachine for T {}\n}",
        ] {
            let (tokens, waivers, imports) = prepare(lex(outside));
            assert!(!implements_machine(&ctx_of("x.rs", &tokens, &waivers, &imports)));
        }
    }

    #[test]
    fn entropy_allowed_inside_listed_constructor() {
        let src =
            "fn from_seed(s: u64) { let r = thread_rng(); }\nfn f() { let r = thread_rng(); }";
        let (tokens, waivers, imports) = prepare(lex(src));
        let ctx = ctx_of("x.rs", &tokens, &waivers, &imports);
        let f = ambient_entropy(&ctx, &["thread_rng".into()], &["from_seed".into()]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn hash_iteration_needs_justification() {
        let src = "struct S { m: HashMap<u32, u32> }\nimpl S {\n fn f(&self) { for x in self.m.values() { } } }";
        let (tokens, waivers, imports) = prepare(lex(src));
        let ctx = ctx_of("x.rs", &tokens, &waivers, &imports);
        let methods = vec!["values".to_string()];
        let f = unordered_iteration(&ctx, &methods);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn ordered_ok_waiver_suppresses_with_reason_only() {
        let src = "fn f() {\n let m = HashMap::new();\n // lint: ordered-ok(results are re-sorted)\n for x in m { }\n // lint: ordered-ok()\n for y in m { }\n}";
        let (tokens, waivers, imports) = prepare(lex(src));
        let ctx = ctx_of("x.rs", &tokens, &waivers, &imports);
        let f = unordered_iteration(&ctx, &[]);
        assert_eq!(f.len(), 1, "empty-reason waiver does not suppress");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn unsafe_and_missing_forbid_are_flagged() {
        let (tokens, waivers, imports) = prepare(lex("fn f() { unsafe { } }"));
        let ctx = ctx_of("x.rs", &tokens, &waivers, &imports);
        let f = no_unsafe(&ctx, true);
        assert_eq!(f.len(), 2);
        let (tokens, waivers, imports) = prepare(lex("#![forbid(unsafe_code)]\nfn f() {}"));
        let ctx = ctx_of("x.rs", &tokens, &waivers, &imports);
        assert!(no_unsafe(&ctx, true).is_empty());
    }
}
