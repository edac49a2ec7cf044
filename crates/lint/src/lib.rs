//! `planaria-lint` — workspace-wide static analysis for the simulator's
//! determinism, hot-path and API-hygiene invariants.
//!
//! The repository's value proposition — bit-identical simulation results
//! at any thread count and under any hasher — used to rest on runtime
//! tests alone. This crate and the workspace's clippy policy machine-check
//! the invariants at the source level, so a future change cannot quietly
//! reintroduce a wall-clock read hidden behind a helper, hash-ordered
//! output, or a registry dependency the offline build cannot fetch.
//!
//! The analyzer is deliberately dependency-free: a hand-rolled
//! comment/string-aware [`lexer`] (no `syn` — consistent with the
//! no-registry vendoring policy) feeds a brace-matched item-tree parser
//! ([`syntax`]), a workspace call-graph approximation ([`callgraph`])
//! and six [`rules`] — the checks that need project knowledge or a call
//! graph:
//!
//! | id  | invariant |
//! |-----|-----------|
//! | R4  | every `crates/*`/`vendor/*` member manifest has `[lints] workspace = true` |
//! | R6  | JSON emitters route through `planaria_common::json` |
//! | R8  | imports and manifests resolve only to workspace/vendored crates |
//! | R9  | no function may transitively *reach* a wall clock through calls |
//! | R10 | no hash-map iteration flowing into ordered sinks or float folds without a sort |
//! | R12 | no unbounded channels, no `Rc`/`RefCell` in `Send` device state |
//!
//! Everything rustc and clippy check type-aware lives in the root
//! `Cargo.toml` `[workspace.lints.*]` tables and `clippy.toml`: std
//! hashers and locks in hot crates, direct wall-clock/env reads,
//! `unwrap`, stub macros, narrowing casts in the parsing modules,
//! `unsafe` and missing docs. The retired ids R1–R3, R5, R7 and R11 are
//! never reused.
//!
//! Violations can be grandfathered in a committed [`baseline`] file
//! (schema `planaria-lint-baseline-v2`), each entry carrying a required
//! justification; the shipped baseline is empty. Results are emitted as a
//! fixed-key-order `planaria-lint-v2` JSON [`report`] that also carries
//! the call-graph size, and `ci.sh` runs `planaria-lint --check` on every
//! gate. See `DESIGN.md` §9 (rules and the rule → enforcer map) and §11
//! (structural analysis) for the full rationale and workflow.
//!
//! # Examples
//!
//! ```
//! use planaria_lint::rules::{lint_source, Config, FileMeta};
//!
//! let meta = FileMeta::for_path("crates/core/src/demo.rs").expect("classifiable");
//! let bad = "pub fn f() { let (_tx, _rx) = std::sync::mpsc::channel::<u8>(); }";
//! let violations = lint_source(&meta, bad, &Config::default());
//! assert_eq!(violations.len(), 1);
//! assert_eq!(violations[0].rule, "R12");
//! ```

pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod syntax;

use std::fs;
use std::path::{Path, PathBuf};

use baseline::Baseline;
use report::Outcome;
use rules::{lint_manifest, Config, FileMeta, Violation};

/// One classified source file queued for a [`lint_files`] run.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// File classification (path, crate, origin).
    pub meta: FileMeta,
    /// Full source text.
    pub text: String,
}

/// The result of linting a set of files together: per-file rule
/// violations plus the workspace call-graph pass, and the graph's size
/// (reported for analyzer-cost visibility).
#[derive(Debug, Clone, Default)]
pub struct LintRun {
    /// All violations, sorted by `(file, line, rule)`.
    pub violations: Vec<Violation>,
    /// Function nodes in the call graph.
    pub functions: usize,
    /// Resolved call edges.
    pub call_edges: usize,
}

/// Lints `files` as one unit: every token-level rule per file, then the
/// call-graph pass (rule R9) across all of them. This is the engine
/// behind [`run_workspace`]; tests can call it with in-memory files to
/// exercise cross-file taint without touching disk.
pub fn lint_files(files: &[SourceFile], config: &Config) -> LintRun {
    let mut violations = Vec::new();
    let mut irs = Vec::with_capacity(files.len());
    for f in files {
        violations.extend(rules::lint_source_tokens(&f.meta, &f.text, config));
        irs.push(callgraph::FileIr::build(f.meta.clone(), &f.text));
    }
    let graph = callgraph::CallGraph::build(&irs);
    violations.extend(graph.wall_clock_taint(&irs));
    violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    LintRun { violations, functions: graph.nodes.len(), call_edges: graph.edges.len() }
}

/// Top-level directories the workspace scan covers.
const SCAN_ROOTS: [&str; 5] = ["crates", "vendor", "tests", "examples", "benches"];

/// Directory names that are never descended into.
///
/// `fixtures` holds the lint's own deliberately-bad test inputs — they
/// must not count as workspace sources.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "fixtures"];

/// Builds the scan [`Config`] for a workspace: the default rule
/// parameters plus the crate identifiers found in member manifests
/// (consulted by rule R8's import check).
///
/// # Errors
///
/// Fails only on unreadable member directories.
pub fn workspace_config(root: &Path) -> Result<Config, String> {
    let mut config = Config::default();
    for dir in ["crates", "vendor"] {
        let base = root.join(dir);
        if !base.is_dir() {
            continue;
        }
        for member in sorted_entries(&base)? {
            let manifest = member.join("Cargo.toml");
            let Ok(text) = fs::read_to_string(&manifest) else { continue };
            if let Some(name) = package_name(&text) {
                config.crate_idents.push(name.replace('-', "_"));
            }
        }
    }
    Ok(config)
}

/// Extracts `name = "…"` from a manifest's `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if !in_package {
            continue;
        }
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(value) = rest.strip_prefix('=') {
                return Some(value.trim().trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Lints the whole workspace under `root` against `baseline`.
///
/// Scans every member crate's sources, the top-level `tests/` and
/// `examples/` trees and all `Cargo.toml` manifests; applies the
/// baseline; returns the aggregated, deterministically-ordered outcome.
///
/// # Errors
///
/// Fails on I/O errors (unreadable directories or files).
pub fn run_workspace(root: &Path, baseline: &Baseline) -> Result<Outcome, String> {
    let config = workspace_config(root)?;
    let mut violations = Vec::new();
    let mut files_scanned = 0usize;

    // Root manifest (workspace dependency declarations).
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        let text = read(&root_manifest)?;
        violations.extend(lint_manifest("Cargo.toml", &text));
        files_scanned += 1;
    }

    // Phase 1: walk the tree, linting manifests inline and collecting
    // every Rust source — the call-graph pass needs all files at once.
    let mut sources: Vec<SourceFile> = Vec::new();
    for top in SCAN_ROOTS {
        let base = root.join(top);
        if !base.is_dir() {
            continue;
        }
        let mut stack = vec![base];
        while let Some(dir) = stack.pop() {
            for entry in sorted_entries(&dir)? {
                let name =
                    entry.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
                if entry.is_dir() {
                    if !SKIP_DIRS.contains(&name.as_str()) {
                        stack.push(entry);
                    }
                    continue;
                }
                let rel = relative_label(root, &entry);
                if name == "Cargo.toml" {
                    violations.extend(lint_manifest(&rel, &read(&entry)?));
                    files_scanned += 1;
                } else if name.ends_with(".rs") {
                    if let Some(meta) = FileMeta::for_path(&rel) {
                        sources.push(SourceFile { meta, text: read(&entry)? });
                        files_scanned += 1;
                    }
                }
            }
        }
    }

    // Phase 2: rules + call graph over the collected set.
    let run = lint_files(&sources, &config);
    violations.extend(run.violations);
    violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));

    let mut used = vec![false; baseline.entries.len()];
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    for v in violations {
        if baseline.matches(&v, &mut used) {
            suppressed.push(v);
        } else {
            kept.push(v);
        }
    }
    let stale_entries =
        baseline.entries.iter().zip(&used).filter(|(_, u)| !**u).map(|(e, _)| e.clone()).collect();

    Ok(Outcome {
        files_scanned,
        functions: run.functions,
        call_edges: run.call_edges,
        violations: kept,
        suppressed,
        stale_entries,
    })
}

/// Loads the baseline at `path`; a missing file is an empty baseline.
///
/// # Errors
///
/// Propagates parse/validation errors ([`Baseline::parse`]).
pub fn load_baseline(path: &Path) -> Result<Baseline, String> {
    match fs::read_to_string(path) {
        Ok(text) => Baseline::parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Deterministic directory listing (sorted by file name).
fn sorted_entries(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    Ok(entries)
}

/// Workspace-relative `/`-separated label for a path under `root`.
fn relative_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
