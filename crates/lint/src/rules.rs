//! The rule set: what each invariant is, and how it is detected.
//!
//! Every source rule works on the token stream produced by
//! [`crate::lexer`], so rule-triggering text inside comments, doc comments
//! and string literals never false-positives. Rules that bind production
//! code only (R10, R12) additionally skip `#[cfg(test)]`-gated regions
//! and test files (`tests/`, `benches/`). Checks that rustc and clippy
//! run type-aware — hashers, wall clocks, `unwrap`, stub macros,
//! narrowing casts, `unsafe` and missing docs — are configured in the
//! root `Cargo.toml` and `clippy.toml` instead (DESIGN.md §9).

use crate::lexer::{lex, Token, TokenKind};

/// Where a scanned file lives in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// `crates/<name>/…` — first-party simulator code.
    FirstParty,
    /// `vendor/<name>/…` — vendored offline dependency stand-ins.
    Vendor,
    /// Top-level `tests/…` — cross-crate integration tests.
    TopTests,
    /// Top-level `examples/…` — user-facing example programs.
    Examples,
}

/// Everything the rules need to know about a file besides its tokens.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Owning crate directory name (`core`, `planaria-hash`, …), or the
    /// top-level directory name for `tests/` / `examples/` files.
    pub crate_name: String,
    /// Which part of the workspace the file belongs to.
    pub origin: Origin,
    /// True for files under any `tests/` or `benches/` directory.
    pub is_test_file: bool,
}

impl FileMeta {
    /// Classifies a workspace-relative path (`/`-separated).
    ///
    /// Returns `None` for files no rule applies to (e.g. paths outside
    /// the known top-level directories).
    pub fn for_path(rel: &str) -> Option<FileMeta> {
        let parts: Vec<&str> = rel.split('/').collect();
        let (origin, crate_name) = match parts.first().copied() {
            Some("crates") => (Origin::FirstParty, (*parts.get(1)?).to_string()),
            Some("vendor") => (Origin::Vendor, (*parts.get(1)?).to_string()),
            Some("tests") => (Origin::TopTests, "tests".to_string()),
            Some("examples") => (Origin::Examples, "examples".to_string()),
            Some("benches") => (Origin::TopTests, "benches".to_string()),
            _ => return None,
        };
        let is_test_file = match origin {
            Origin::TopTests => true,
            Origin::FirstParty | Origin::Vendor => {
                parts.get(2).is_some_and(|p| *p == "tests" || *p == "benches")
            }
            Origin::Examples => false,
        };
        Some(FileMeta { path: rel.to_string(), crate_name, origin, is_test_file })
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The offending source line, trimmed and capped.
    pub snippet: String,
    /// Human-readable explanation with the sanctioned fix.
    pub message: String,
}

/// Static description of one rule, used by `--list-rules`, `--explain`
/// and the report.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable id. Ids of rules handed to rustc/clippy are retired, never
    /// reused, so old baseline entries and docs keep their meaning.
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line summary of the invariant.
    pub summary: &'static str,
    /// Why the invariant exists (shown by `--explain`).
    pub rationale: &'static str,
    /// A minimal example that fires the rule.
    pub fires: &'static str,
    /// The sanctioned counterpart that does not fire.
    pub clean: &'static str,
}

/// All rules, in id order. R1–R3, R5, R7 and R11 were handed to
/// rustc/clippy (R5 folded into R10); see DESIGN.md §9 for the map.
pub const RULES: [RuleInfo; 6] = [
    RuleInfo {
        id: "R4",
        name: "workspace-lints",
        summary: "every crates/* and vendor/* member manifest opts into the workspace lint \
                  tables with `[lints] workspace = true`",
        rationale: "unsafe_code = \"forbid\", missing_docs and the clippy policy live once, in \
                    the root [workspace.lints.*] tables; a member that does not inherit them \
                    silently escapes all of it.",
        fires: "[package]\nname = \"demo\"\n\n[dependencies]",
        clean: "[package]\nname = \"demo\"\n\n[lints]\nworkspace = true",
    },
    RuleInfo {
        id: "R6",
        name: "shared-json",
        summary: "JSON emitters route through planaria_common::json helpers",
        rationale: "hand-rolled writers drift: key order, float formatting and escaping all \
                    become schema hazards. One shared writer keeps equal reports byte-identical.",
        fires: "fn escape_json(s: &str) -> String { /* local copy */ String::new() }",
        clean: "use planaria_common::json::Writer;\nlet mut w = Writer::pretty();",
    },
    RuleInfo {
        id: "R8",
        name: "vendored-deps-only",
        summary: "imports and manifests may only name workspace or vendored crates",
        rationale: "the build environment has no registry access; a crates.io dependency \
                    compiles on the author's machine and breaks everywhere else.",
        fires: "[dependencies]\nserde = \"1.0\"",
        clean: "[dependencies]\nserde = { path = \"../../vendor/serde\" }",
    },
    RuleInfo {
        id: "R9",
        name: "no-transitive-wall-clock",
        summary: "no function may *reach* a wall-clock/entropy source through calls (call-graph \
                  upgrade of clippy's disallowed_methods)",
        rationale: "clippy's disallowed_methods only sees the literal call site; hiding \
                    Instant::now() one helper away defeats it. R9 walks the workspace call graph \
                    backwards from every direct read, so the taint is caught wherever it enters \
                    simulated code. Files opening with #![allow(clippy::disallowed_methods)] are \
                    barriers: their fns are the sanctioned timing API.",
        fires: "fn stamp() -> u64 { /* Instant::now() here */ 0 }\n\
                fn decide(&mut self) { let _ = stamp(); } // R9: reaches the clock",
        clean: "fn decide(&mut self, now: Cycle) { /* timestamps arrive as data */ }",
    },
    RuleInfo {
        id: "R10",
        name: "no-map-order-sinks",
        summary: "no hash-map iteration flowing into ordered sinks (Vec pushes, JSON writers, \
                  float accumulators and float sum/product/fold chains) without a sort",
        rationale: "any order-sensitive sink fed from hash iteration — a Vec that is never \
                    sorted, a JSON writer, a float += or .sum::<f64>() (float addition is not \
                    associative) — bakes the hasher's whim into output bytes.",
        fires: "for v in map.values() { out.push(v); } // `out` never sorted\n\
                let total: f64 = map.values().sum::<f64>();",
        clean: "let mut items: Vec<_> = map.iter().collect();\nitems.sort_by_key(|(k, _)| *k);\n\
                for (_, v) in items { out.push(v); }",
    },
    RuleInfo {
        id: "R12",
        name: "concurrency-hygiene",
        summary: "no unbounded channels anywhere; no Rc/RefCell in Send device state",
        rationale: "an unbounded channel is an OOM with extra steps under load; Rc/RefCell in \
                    serving state blocks Send and hides aliasing.",
        fires: "let (tx, rx) = std::sync::mpsc::channel();",
        clean: "let (tx, rx) = std::sync::mpsc::sync_channel(MAILBOX_BOUND);",
    },
];

/// The rule ids, comma-separated (`R4, R6, …`), for error messages.
pub fn known_ids() -> String {
    RULES.iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
}

/// Scan configuration: which top-level crate names imports may resolve
/// to, and which crates hold `Send` device state.
#[derive(Debug, Clone)]
pub struct Config {
    /// Top-level identifiers `use` declarations may start with, beyond
    /// the built-ins (`std`, `core`, `alloc`, `crate`, `self`, `super`,
    /// `proc_macro`). Populated from the workspace member directories.
    pub crate_idents: Vec<String>,
    /// Crate directory names whose device state must stay `Send`: no
    /// `Rc`/`RefCell` (rule R12).
    pub send_state_crates: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config { crate_idents: Vec::new(), send_state_crates: vec!["serve".to_string()] }
    }
}

/// Lints one Rust source file in isolation; returns its violations in
/// line order.
///
/// Runs every per-file rule **plus** a single-file call-graph pass, so
/// the flow-aware rules (R9) fire on intra-file taint. Cross-file taint
/// needs the whole workspace — use [`crate::lint_files`] for that.
pub fn lint_source(meta: &FileMeta, source: &str, config: &Config) -> Vec<Violation> {
    let files = [crate::SourceFile { meta: meta.clone(), text: source.to_string() }];
    crate::lint_files(&files, config).violations
}

/// The token-level half of [`lint_source`]: rules R6, R8, R10 and R12,
/// which need only this one file's tokens.
pub(crate) fn lint_source_tokens(meta: &FileMeta, source: &str, config: &Config) -> Vec<Violation> {
    let tokens = lex(source);
    let in_test = test_regions(&tokens);
    let lines: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();

    let ctx = Ctx { meta, tokens: &tokens, in_test: &in_test, lines: &lines, config };
    rule_shared_json(&ctx, &mut out);
    rule_vendored_imports(&ctx, &mut out);
    rule_map_order_sinks(&ctx, &mut out);
    rule_concurrency_hygiene(&ctx, &mut out);

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Lints one `Cargo.toml`: rule R8 (no registry/git dependencies) and,
/// for a `crates/*` or `vendor/*` member manifest, rule R4 (the member
/// inherits the workspace lint tables).
pub fn lint_manifest(rel_path: &str, source: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut in_dep_section = false;
    let mut in_lints = false;
    let mut inherits_lints = false;
    let mut package = (1, String::new());
    // `[dependencies.name]` multi-line tables: remember the header until
    // the section closes, then require a path/workspace key inside.
    let mut pending_table: Option<(u32, String)> = None;
    let mut pending_ok = false;

    let flush_pending =
        |pending: &mut Option<(u32, String)>, ok: bool, out: &mut Vec<Violation>| {
            if let Some((line, snippet)) = pending.take() {
                if !ok {
                    out.push(Violation {
                        rule: "R8",
                        file: rel_path.to_string(),
                        line,
                        snippet,
                        message: "dependency table without `path` or `workspace = true` implies \
                                  a registry dependency; vendor it instead"
                            .to_string(),
                    });
                }
            }
        };

    for (idx, raw) in source.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            flush_pending(&mut pending_table, pending_ok, &mut out);
            pending_ok = false;
            let section = line.trim_matches(['[', ']']);
            in_lints = section == "lints";
            if section == "package" {
                package = (line_no, snippet_of(raw));
            }
            let is_dep_table = section.ends_with("dependencies");
            in_dep_section = is_dep_table;
            if !is_dep_table {
                if let Some((table, _name)) = section.rsplit_once('.') {
                    if table.ends_with("dependencies") {
                        pending_table = Some((line_no, snippet_of(raw)));
                    }
                }
            }
            continue;
        }
        if in_lints && line == "workspace = true" {
            inherits_lints = true;
        }
        if pending_table.is_some() {
            if line.starts_with("path") || line == "workspace = true" {
                pending_ok = true;
            }
            if line.starts_with("git") || line.starts_with("version") {
                // Tracked by the table-level check; a `git` key is its own
                // violation even when a path is also present.
                if line.starts_with("git") {
                    out.push(manifest_violation(rel_path, line_no, raw));
                }
            }
            continue;
        }
        if !in_dep_section {
            continue;
        }
        // One dependency per line: `name = "1.0"` or `name = { … }`.
        let Some((_name, value)) = line.split_once('=') else { continue };
        let value = value.trim();
        let registry_like = value.starts_with('"')
            || value.contains("git =")
            || value.contains("git=")
            || (value.starts_with('{')
                && !value.contains("path")
                && !value.contains("workspace = true"));
        if registry_like {
            out.push(manifest_violation(rel_path, line_no, raw));
        }
    }
    flush_pending(&mut pending_table, pending_ok, &mut out);

    let parts: Vec<&str> = rel_path.split('/').collect();
    let member = matches!(parts.as_slice(), ["crates" | "vendor", _, "Cargo.toml"]);
    if member && !inherits_lints {
        out.push(Violation {
            rule: "R4",
            file: rel_path.to_string(),
            line: package.0,
            snippet: package.1,
            message: "member manifest lacks `[lints] workspace = true`; without it the root \
                      [workspace.lints.*] tables (unsafe_code, missing_docs, the clippy policy) \
                      do not apply to this crate"
                .to_string(),
        });
    }
    out
}

fn manifest_violation(rel_path: &str, line: u32, raw: &str) -> Violation {
    Violation {
        rule: "R8",
        file: rel_path.to_string(),
        line,
        snippet: snippet_of(raw),
        message: "dependency does not resolve to a workspace path; the build environment has \
                  no registry access — vendor the crate under vendor/ instead"
            .to_string(),
    }
}

struct Ctx<'a> {
    meta: &'a FileMeta,
    tokens: &'a [Token],
    in_test: &'a [bool],
    lines: &'a [&'a str],
    config: &'a Config,
}

impl Ctx<'_> {
    fn snippet(&self, line: u32) -> String {
        self.lines.get(line as usize - 1).map(|l| snippet_of(l)).unwrap_or_default()
    }

    fn emit(&self, out: &mut Vec<Violation>, rule: &'static str, line: u32, message: String) {
        out.push(Violation {
            rule,
            file: self.meta.path.clone(),
            line,
            snippet: self.snippet(line),
            message,
        });
    }

    /// Non-test production code: not a test file, token not in a
    /// `#[cfg(test)]` region.
    fn is_prod(&self, i: usize) -> bool {
        !self.meta.is_test_file && !self.in_test[i]
    }

    fn first_party_prod(&self) -> bool {
        matches!(self.meta.origin, Origin::FirstParty | Origin::Examples) && !self.meta.is_test_file
    }
}

pub(crate) fn snippet_of(line: &str) -> String {
    let t = line.trim();
    if t.len() > 120 {
        let mut end = 117;
        while !t.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}...", &t[..end])
    } else {
        t.to_string()
    }
}

/// Marks tokens inside `#[cfg(test)]`-gated items (and `#[test]` fns).
///
/// An attribute containing the `cfg` and `test` identifiers gates the
/// following item; the gated region runs to the item's closing brace (or
/// terminating semicolon for brace-less items like `use`).
pub(crate) fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            // Scan the attribute body for `cfg … test` or a bare `test`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut saw_cfg = false;
            let mut saw_test = false;
            let mut bare_test = None;
            while j < tokens.len() && depth > 0 {
                let t = &tokens[j];
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                } else if t.is_ident("cfg") {
                    saw_cfg = true;
                } else if t.is_ident("not") {
                    // `#[cfg(not(test))]` gates *production* code.
                    saw_cfg = false;
                } else if t.is_ident("test") {
                    saw_test = true;
                    if j == i + 2 {
                        bare_test = Some(());
                    }
                }
                j += 1;
            }
            let gates_test = (saw_cfg && saw_test) || bare_test.is_some();
            if gates_test {
                // `j` is just past the closing ']'. Skip further
                // attributes, then mark the item through its `{…}` or `;`.
                let mut k = j;
                while k + 1 < tokens.len() && tokens[k].is_punct('#') && tokens[k + 1].is_punct('[')
                {
                    let mut d = 1usize;
                    k += 2;
                    while k < tokens.len() && d > 0 {
                        if tokens[k].is_punct('[') {
                            d += 1;
                        } else if tokens[k].is_punct(']') {
                            d -= 1;
                        }
                        k += 1;
                    }
                }
                let start = i;
                while k < tokens.len() {
                    if tokens[k].is_punct(';') {
                        k += 1;
                        break;
                    }
                    if tokens[k].is_punct('{') {
                        let mut d = 1usize;
                        k += 1;
                        while k < tokens.len() && d > 0 {
                            if tokens[k].is_punct('{') {
                                d += 1;
                            } else if tokens[k].is_punct('}') {
                                d -= 1;
                            }
                            k += 1;
                        }
                        break;
                    }
                    k += 1;
                }
                for slot in in_test.iter_mut().take(k).skip(start) {
                    *slot = true;
                }
                i = k;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    in_test
}

/// R6 — JSON emitters route through `planaria_common::json`.
fn rule_shared_json(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    if ctx.meta.origin != Origin::FirstParty {
        return;
    }
    let toks = ctx.tokens;
    let in_common_json = ctx.meta.path == "crates/common/src/json.rs";

    // (a) Local JSON-escape helper definitions.
    if !in_common_json {
        for i in 0..toks.len() {
            if toks[i].is_ident("fn")
                && matches!(
                    toks.get(i + 1),
                    Some(n) if n.is_ident("escape_json") || n.is_ident("json_escape")
                )
            {
                ctx.emit(
                    out,
                    "R6",
                    toks[i].line,
                    "local JSON escape helper duplicates planaria_common::json::escape; use \
                     the shared helper"
                        .to_string(),
                );
            }
        }
    }

    // (b) Schema emitters (a full `planaria-*-v1` schema-id string
    // literal) must reference the shared json module somewhere.
    if in_common_json {
        return;
    }
    let schema_lit = toks.iter().find(|t| {
        t.kind == TokenKind::StrLit && t.text.starts_with("planaria-") && t.text.ends_with("-v1")
    });
    if let Some(lit) = schema_lit {
        let uses_shared = toks.iter().any(|t| t.is_ident("json"));
        if !uses_shared {
            ctx.emit(
                out,
                "R6",
                lit.line,
                format!(
                    "file emits the `{}` schema but never references the planaria_common::json \
                     helpers; hand-rolled writers drift out of sync",
                    lit.text
                ),
            );
        }
    }
}

/// R8 (source half) — `use` declarations may only name known crates.
fn rule_vendored_imports(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    const BUILTIN: [&str; 7] = ["std", "core", "alloc", "crate", "self", "super", "proc_macro"];
    // Edition-2021 uniform paths also resolve `use foo::…` against items of
    // the *current module*; collect every ident this file declares (module,
    // type, `as` rename) so sibling-module re-exports are not flagged.
    const DECL_KEYWORDS: [&str; 9] =
        ["mod", "struct", "enum", "trait", "type", "fn", "union", "as", "macro_rules"];
    let toks = ctx.tokens;
    let mut local: Vec<&str> = Vec::new();
    for w in toks.windows(2) {
        if w[0].kind == TokenKind::Ident
            && w[1].kind == TokenKind::Ident
            && DECL_KEYWORDS.contains(&w[0].text.as_str())
        {
            local.push(w[1].text.as_str());
        }
    }
    for i in 0..toks.len() {
        if !toks[i].is_ident("use") {
            continue;
        }
        // Item position: start of file or after `;`, `}`, `{`, or an
        // attribute's closing `]` / visibility `pub`/`)`. Expression uses
        // of the word (none in practice — `use` is a keyword) are fine.
        let mut j = i + 1;
        // Skip leading `::` of `use ::foo` paths.
        while j < toks.len() && toks[j].is_punct(':') {
            j += 1;
        }
        let Some(first) = toks.get(j) else { continue };
        if first.kind != TokenKind::Ident {
            continue;
        }
        // Only flag single-segment-rooted paths: `use foo::…` / `use foo;`
        // (grouped imports `use {a, b}` start with '{' and are not used
        // in this workspace).
        let seg = first.text.as_str();
        if BUILTIN.contains(&seg)
            || ctx.config.crate_idents.iter().any(|c| c == seg)
            || local.contains(&seg)
        {
            continue;
        }
        ctx.emit(
            out,
            "R8",
            toks[i].line,
            format!(
                "`use {seg}::…` does not resolve to a workspace or vendored crate; the build \
                 environment has no registry access"
            ),
        );
    }
}

/// Hash-map container type names rule R10 tracks.
const MAP_TYPES: [&str; 4] = ["HashMap", "HashSet", "FastHashMap", "FastHashSet"];

/// Iterator-producing methods whose order is the hasher's.
const MAP_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// R10 — hash-map iteration flowing into ordered sinks.
///
/// Tracks, per file: identifiers *declared* as hash maps (`x: FastHashMap<…>`
/// or `x = HashMap::new()`), identifiers declared as float accumulators,
/// and identifiers that are sorted somewhere (`x.sort*`). A `for` loop
/// whose header iterates a map identifier is then scanned for ordered
/// sinks in its body: `vec.push(…)` where `vec` is never sorted, a JSON
/// writer `.key(…)`, `push_str`/`write!`, or `float += …`. Outside `for`
/// headers only one chain shape is tracked: a map's iterator feeding a
/// float `sum::<f64>`/`product::<f64>`/`fold(<float literal>, …)` in the
/// same statement. Other chains are a documented false negative.
fn rule_map_order_sinks(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    if !ctx.first_party_prod() {
        return;
    }
    let toks = ctx.tokens;

    // Pass 1: classify identifiers by their declarations.
    let mut map_idents: Vec<&str> = Vec::new();
    let mut float_idents: Vec<&str> = Vec::new();
    let mut sorted_idents: Vec<&str> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `name: [& mut 'a]* MapType` / `name: f64` — a single colon
        // (both neighbors must not be ':', or this is a `::` path).
        let single_colon = matches!(toks.get(i + 1), Some(p) if p.is_punct(':'))
            && !matches!(toks.get(i + 2), Some(p) if p.is_punct(':'))
            && !(i > 0 && toks[i - 1].is_punct(':'));
        if single_colon {
            let mut j = i + 2;
            while matches!(
                toks.get(j),
                Some(t) if t.is_punct('&') || t.is_ident("mut") || t.kind == TokenKind::Lifetime
            ) {
                j += 1;
            }
            if let Some(ty) = toks.get(j) {
                if MAP_TYPES.iter().any(|m| ty.is_ident(m)) {
                    map_idents.push(t.text.as_str());
                } else if ty.is_ident("f64") || ty.is_ident("f32") {
                    float_idents.push(t.text.as_str());
                }
            }
        }
        // `name = MapType::…` / `name = 0.0` (plain assignment, not ==).
        let plain_assign = matches!(toks.get(i + 1), Some(p) if p.is_punct('='))
            && !matches!(toks.get(i + 2), Some(p) if p.is_punct('='))
            && !(i > 0 && toks[i - 1].is_punct('='));
        if plain_assign {
            match toks.get(i + 2) {
                Some(ty)
                    if MAP_TYPES.iter().any(|m| ty.is_ident(m))
                        && matches!(toks.get(i + 3), Some(p) if p.is_punct(':')) =>
                {
                    map_idents.push(t.text.as_str());
                }
                Some(n)
                    if n.kind == TokenKind::NumLit
                        && (n.text.contains('.')
                            || n.text.ends_with("f64")
                            || n.text.ends_with("f32")) =>
                {
                    float_idents.push(t.text.as_str());
                }
                _ => {}
            }
        }
        // `name.sort…(…)` anywhere absolves later pushes into `name`.
        if matches!(toks.get(i + 1), Some(p) if p.is_punct('.'))
            && matches!(toks.get(i + 2), Some(m) if m.kind == TokenKind::Ident
                && m.text.starts_with("sort"))
        {
            sorted_idents.push(t.text.as_str());
        }
    }
    if map_idents.is_empty() {
        return;
    }

    // Pass 2: `for` loops whose header iterates a map identifier.
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("for") || !ctx.is_prod(i) {
            i += 1;
            continue;
        }
        // `impl Trait for Type` / HRTB `for<'a>`: not loops.
        if i > 0 && (toks[i - 1].kind == TokenKind::Ident || toks[i - 1].is_punct('>')) {
            i += 1;
            continue;
        }
        if matches!(toks.get(i + 1), Some(p) if p.is_punct('<')) {
            i += 1;
            continue;
        }
        // Locate `in` at bracket depth 0, then the body `{`.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut in_pos = None;
        while j < toks.len() && j < i + 60 {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_ident("in") {
                in_pos = Some(j);
                break;
            }
            j += 1;
        }
        let Some(in_pos) = in_pos else {
            i += 1;
            continue;
        };
        let mut depth = 0usize;
        let mut k = in_pos + 1;
        let mut brace = None;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct('{') {
                brace = Some(k);
                break;
            }
            k += 1;
        }
        let Some(brace) = brace else {
            i += 1;
            continue;
        };

        // Does the header iterate a tracked map?
        let header = &toks[in_pos + 1..brace];
        let mut iterated: Option<&str> = None;
        for (h, t) in header.iter().enumerate() {
            if t.kind != TokenKind::Ident || !map_idents.contains(&t.text.as_str()) {
                continue;
            }
            let via_method = matches!(header.get(h + 1), Some(p) if p.is_punct('.'))
                && matches!(header.get(h + 2), Some(m) if MAP_ITER_METHODS
                    .iter()
                    .any(|im| m.is_ident(im)));
            // `for x in &map` / `for x in map`: header is only the map
            // ident plus reference sigils.
            let bare = header.iter().all(|u| {
                u.is_punct('&')
                    || u.is_ident("mut")
                    || (u.kind == TokenKind::Ident && u.text == t.text)
            });
            if via_method || bare {
                iterated = Some(t.text.as_str());
                break;
            }
        }
        let Some(map_name) = iterated else {
            i = brace + 1;
            continue;
        };

        // Scan the body for ordered sinks.
        let mut depth = 1usize;
        let mut b = brace + 1;
        let mut sink: Option<(u32, String)> = None;
        while b < toks.len() && depth > 0 {
            let t = &toks[b];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
            } else if ctx.is_prod(b) && t.kind == TokenKind::Ident && sink.is_none() {
                // `x.push(` with `x` never sorted.
                if matches!(toks.get(b + 1), Some(p) if p.is_punct('.'))
                    && matches!(toks.get(b + 2), Some(m) if m.is_ident("push"))
                    && matches!(toks.get(b + 3), Some(p) if p.is_punct('('))
                    && !sorted_idents.contains(&t.text.as_str())
                {
                    sink = Some((t.line, format!("`{}.push(…)` (never sorted)", t.text)));
                }
                // JSON writer `.key(` / `.push_str(`.
                if (t.is_ident("key") || t.is_ident("push_str"))
                    && b > 0
                    && toks[b - 1].is_punct('.')
                    && matches!(toks.get(b + 1), Some(p) if p.is_punct('('))
                {
                    sink = Some((t.line, format!("`.{}(…)`", t.text)));
                }
                // `write!`/`writeln!`.
                if (t.is_ident("write") || t.is_ident("writeln"))
                    && matches!(toks.get(b + 1), Some(p) if p.is_punct('!'))
                {
                    sink = Some((t.line, format!("`{}!`", t.text)));
                }
                // Float accumulation `acc += …`.
                if float_idents.contains(&t.text.as_str())
                    && matches!(toks.get(b + 1), Some(p) if p.is_punct('+'))
                    && matches!(toks.get(b + 2), Some(p) if p.is_punct('='))
                {
                    sink = Some((t.line, format!("float accumulator `{} += …`", t.text)));
                }
            }
            b += 1;
        }
        if let Some((_, what)) = sink {
            ctx.emit(
                out,
                "R10",
                toks[i].line,
                format!(
                    "loop iterates hash map `{map_name}` and feeds {what}, an order-sensitive \
                     sink; hash iteration order varies — collect and sort before the loop, or \
                     use an order-independent reduction"
                ),
            );
        }
        i = brace + 1;
    }

    // Pass 3: `map.values().sum::<f64>()`-style chains. Float addition is
    // not associative, so the total depends on the hash order.
    for i in 0..toks.len() {
        let t = &toks[i];
        let chained = t.kind == TokenKind::Ident
            && map_idents.contains(&t.text.as_str())
            && matches!(toks.get(i + 1), Some(p) if p.is_punct('.'))
            && matches!(toks.get(i + 2), Some(m) if MAP_ITER_METHODS.iter().any(|im| m.is_ident(im)))
            && matches!(toks.get(i + 3), Some(p) if p.is_punct('('))
            && matches!(toks.get(i + 4), Some(p) if p.is_punct(')'));
        if !chained || !ctx.is_prod(i) {
            continue;
        }
        if let Some(reduction) = float_reduction(&toks[i + 5..]) {
            let (map, method) = (&t.text, &toks[i + 2].text);
            ctx.emit(
                out,
                "R10",
                t.line,
                format!(
                    "hash map `{map}.{method}()` feeds {reduction} in hash order; float addition \
                     is not associative, so the result varies — accumulate integers, or \
                     collect and sort first"
                ),
            );
        }
    }
}

/// The float reduction an iterator chain feeds before its statement ends:
/// `sum::<f64>`/`product::<f32>` or `fold` seeded with a float literal.
fn float_reduction(toks: &[Token]) -> Option<String> {
    for (j, u) in toks.iter().enumerate().take(60) {
        if u.is_punct(';') {
            break;
        }
        let at = |k: usize| toks.get(j + k);
        if (u.is_ident("sum") || u.is_ident("product"))
            && at(1).is_some_and(|p| p.is_punct(':'))
            && at(2).is_some_and(|p| p.is_punct(':'))
            && at(3).is_some_and(|p| p.is_punct('<'))
            && at(4).is_some_and(|f| f.is_ident("f64") || f.is_ident("f32"))
        {
            return Some(format!("`{}::<{}>`", u.text, toks[j + 4].text));
        }
        if u.is_ident("fold")
            && at(1).is_some_and(|p| p.is_punct('('))
            && at(2).is_some_and(|n| {
                n.kind == TokenKind::NumLit
                    && (n.text.contains('.') || n.text.ends_with("f64") || n.text.ends_with("f32"))
            })
        {
            return Some("a float-seeded `fold`".to_string());
        }
    }
    None
}

/// R12 — concurrency hygiene: unbounded channels and non-`Send` interior
/// mutability in device state. (Hot-crate locks are clippy's
/// `disallowed_types`, denied at the hot crate roots.)
fn rule_concurrency_hygiene(ctx: &Ctx<'_>, out: &mut Vec<Violation>) {
    if !ctx.first_party_prod() {
        return;
    }
    let toks = ctx.tokens;
    let send_state = ctx.config.send_state_crates.contains(&ctx.meta.crate_name);
    for i in 0..toks.len() {
        if !ctx.is_prod(i) {
            continue;
        }
        let t = &toks[i];
        // (a) Unbounded channels — everywhere in first-party prod code.
        let mpsc_channel = t.is_ident("mpsc")
            && matches!(toks.get(i + 1), Some(p) if p.is_punct(':'))
            && matches!(toks.get(i + 2), Some(p) if p.is_punct(':'))
            && matches!(toks.get(i + 3), Some(n) if n.is_ident("channel"));
        let unbounded_call = (t.is_ident("unbounded") || t.is_ident("unbounded_channel"))
            && matches!(toks.get(i + 1), Some(p) if p.is_punct('('));
        if mpsc_channel || unbounded_call {
            ctx.emit(
                out,
                "R12",
                t.line,
                "unbounded channel: under load this is an OOM with extra steps — use a \
                 bounded channel (sync_channel) sized like the serve mailbox"
                    .to_string(),
            );
            continue;
        }
        // (b) `Rc`/`RefCell` in crates whose device state must be Send.
        if send_state && (t.is_ident("Rc") || t.is_ident("RefCell")) {
            ctx.emit(
                out,
                "R12",
                t.line,
                format!(
                    "{} is !Send (or hides aliasing) — served device state migrates across \
                     worker threads; use owned state or Arc with explicit sharing",
                    t.text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(path: &str) -> FileMeta {
        FileMeta::for_path(path).expect("classifiable path")
    }

    fn cfg() -> Config {
        Config {
            crate_idents: ["planaria_common", "planaria_hash", "rand", "serde"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            ..Config::default()
        }
    }

    fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
        let mut ids: Vec<&'static str> =
            lint_source(&meta(path), src, &cfg()).into_iter().map(|v| v.rule).collect();
        ids.dedup();
        ids
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let body = "pub fn t() { let (_tx, _rx) = std::sync::mpsc::channel::<u8>(); }";
        assert_eq!(rules_fired("crates/core/src/x.rs", body), ["R12"]);
        let gated = format!("pub fn prod() {{}}\n#[cfg(test)]\nmod tests {{\n    {body}\n}}\n");
        assert!(rules_fired("crates/core/src/x.rs", &gated).is_empty());
    }

    #[test]
    fn hot_crate_hashmap_fires_outside_tests() {
        // Naming the type is clippy's (`disallowed_types` at the hot crate
        // roots); iterating it into an ordered sink is R10's, outside tests.
        let body = "pub fn f(m: &HashMap<u64, u64>) -> Vec<u64> {\n\
                    let mut out = Vec::new();\nfor k in m.keys() { out.push(*k); }\nout\n}\n";
        let prod = format!("use std::collections::HashMap;\n{body}");
        assert_eq!(rules_fired("crates/cache/src/x.rs", &prod), ["R10"]);
        let gated =
            format!("#[cfg(test)]\nmod tests {{\nuse std::collections::HashMap;\n{body}}}\n");
        assert!(rules_fired("crates/cache/src/x.rs", &gated).is_empty());
    }

    #[test]
    fn approved_hot_path_containers_do_not_fire() {
        // The planaria_hash containers are the sanctioned replacements for
        // std maps in hot crates (which deny clippy::disallowed_types):
        // FastHashMap/FastHashSet for general maps, FixedIndex for the
        // fixed-capacity page→slot tables on the SLP/TLP per-access paths.
        let src = "
            use planaria_hash::{FastHashMap, FastHashSet, FixedIndex};
            pub fn f() -> (FastHashMap<u64, u64>, FastHashSet<u64>, FixedIndex) {
                (FastHashMap::default(), FastHashSet::default(), FixedIndex::with_capacity(128))
            }
        ";
        assert!(rules_fired("crates/core/src/x.rs", src).is_empty());
        assert!(rules_fired("crates/sim/src/x.rs", src).is_empty());
    }

    /// Member-manifest tail that keeps R4 quiet.
    const LINTS: &str = "\n[lints]\nworkspace = true\n";

    #[test]
    fn manifest_registry_dep_is_flagged() {
        let bad =
            format!("[dependencies]\nserde = \"1.0\"\nrand = {{ path = \"../rand\" }}\n{LINTS}");
        let v = lint_manifest("crates/x/Cargo.toml", &bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        let good = format!(
            "[dependencies]\nrand = {{ workspace = true }}\n\n[dev-dependencies]\n\
             proptest = {{ path = \"../../vendor/proptest\" }}\n{LINTS}"
        );
        assert!(lint_manifest("crates/x/Cargo.toml", &good).is_empty());
    }

    #[test]
    fn manifest_git_dep_is_flagged() {
        let bad = format!("[dependencies]\nfoo = {{ git = \"https://example.com/foo\" }}\n{LINTS}");
        assert_eq!(lint_manifest("crates/x/Cargo.toml", &bad).len(), 1);
    }
}
