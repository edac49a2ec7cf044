//! Workspace policy that rustc and clippy cannot see on their own: the
//! shape of the manifests and lockfiles, the two JSON-writer rules, and
//! the exact places that opt out of or tighten the clippy bans in
//! `clippy.toml`. Growing any pinned list below is a reviewed decision.
//! The bans themselves are pinned with their fixtures in
//! `crates/sim/tests/fixtures.rs`.
//!
//! The fixtures under `tests/clippy_negative/` break the policy on
//! purpose (`ci.sh` feeds them to clippy), so every scan skips them.

use std::path::{Path, PathBuf};

/// The files that may read the wall clock and argv: the bench harness,
/// its timing bins, the trace CLI and the parallel runner.
const METHOD_OPT_OUTS: [&str; 7] = [
    "crates/bench/src/bin/contention.rs",
    "crates/bench/src/bin/replay.rs",
    "crates/bench/src/bin/serve_load.rs",
    "crates/bench/src/bin/telemetry_export.rs",
    "crates/bench/src/lib.rs",
    "crates/sim/src/runner.rs",
    "crates/trace/src/bin/trace_pack.rs",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A workspace file, read relative to the repository root.
fn repo_file(rel: &str) -> String {
    std::fs::read_to_string(repo_root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// `(path, text)` of every `.rs` file under `crates/`, `vendor/`,
/// `tests/` and `examples/`, sorted by workspace-relative path.
fn sources() -> Vec<(String, String)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            let rel = path.strip_prefix(root).expect("under root").display().to_string();
            if path.is_dir() {
                if rel != "tests/clippy_negative" {
                    walk(root, &path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push((rel, std::fs::read_to_string(&path).expect("readable source")));
            }
        }
    }
    let root = repo_root();
    let mut out = Vec::new();
    for top in ["crates", "vendor", "tests", "examples"] {
        walk(&root, &root.join(top), &mut out);
    }
    out.sort();
    out
}

/// Sorted paths of the sources carrying `attr` on a line of its own.
fn files_with(attr: &str) -> Vec<String> {
    sources()
        .into_iter()
        .filter(|(_, text)| text.lines().any(|l| l == attr))
        .map(|(path, _)| path)
        .collect()
}

#[test]
fn member_manifests_inherit_the_workspace_lints() {
    let root = repo_root();
    for top in ["crates", "vendor"] {
        for entry in std::fs::read_dir(root.join(top)).expect("readable dir") {
            let manifest = entry.expect("dir entry").path().join("Cargo.toml");
            let text = std::fs::read_to_string(&manifest).expect("member manifest");
            let lints = text.split("\n[").find(|section| section.starts_with("lints]"));
            assert!(
                lints.is_some_and(|s| s.lines().any(|l| l.trim() == "workspace = true")),
                "{} lacks `[lints] workspace = true`",
                manifest.display()
            );
        }
    }
}

#[test]
fn workspace_lint_levels_hold() {
    // The two rustc levels; clippy's levels and bans are pinned next to
    // their negative-control fixtures in `crates/sim/tests/fixtures.rs`.
    let manifest = repo_file("Cargo.toml");
    for line in ["unsafe_code = \"forbid\"", "missing_docs = \"warn\""] {
        assert!(manifest.lines().any(|l| l == line), "root Cargo.toml lost `{line}`");
    }
}

#[test]
fn method_opt_outs_are_the_reviewed_files() {
    assert_eq!(files_with("#![allow(clippy::disallowed_methods)]"), METHOD_OPT_OUTS);
}

#[test]
fn the_one_other_method_allow_is_reset_metrics() {
    // Outside the file-level opt-outs, one statement-level allow: the
    // loop in `MemorySystem::reset_metrics` that clears every in-flight
    // entry, where visit order cannot matter.
    let mentions: Vec<(String, usize)> = sources()
        .into_iter()
        .filter(|(path, _)| {
            !METHOD_OPT_OUTS.contains(&path.as_str()) && path != "tests/workspace_policy.rs"
        })
        .map(|(path, text)| {
            let n = text.matches("clippy::disallowed_methods").count();
            (path, n)
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    assert_eq!(mentions, [("crates/sim/src/system.rs".to_string(), 1)]);
    let system = repo_file("crates/sim/src/system.rs");
    let body = &system[system.find("fn reset_metrics").expect("reset_metrics exists")..];
    let body = &body[..body.find("\n    }\n").expect("fn closes")];
    assert!(body.contains("clippy::disallowed_methods"), "the allow sits in reset_metrics");
}

#[test]
fn opt_out_files_open_no_unbounded_channel() {
    // The file-level opt-outs escape clippy's `mpsc::channel` ban too.
    for path in METHOD_OPT_OUTS {
        assert!(!repo_file(path).contains("mpsc::channel"), "{path} opens an unbounded channel");
    }
}

#[test]
fn hot_crate_roots_and_serve_deny_disallowed_types() {
    assert_eq!(
        files_with("#![deny(clippy::disallowed_types)]"),
        ["cache", "core", "dram", "serve", "sim", "trace"]
            .map(|c| format!("crates/{c}/src/lib.rs"))
    );
}

#[test]
fn parsing_modules_deny_narrowing_casts() {
    assert_eq!(
        files_with("#![deny(clippy::cast_possible_truncation)]"),
        ["crates/serve/src/snapshot.rs", "crates/trace/src/io.rs"]
    );
}

#[test]
fn json_goes_through_the_shared_writer() {
    for (path, text) in sources() {
        if !path.starts_with("crates/") || path == "crates/common/src/json.rs" {
            continue;
        }
        for helper in ["fn escape_json", "fn json_escape"] {
            assert!(
                !text.contains(helper),
                "{path}: `{helper}` duplicates planaria_common::json::escape"
            );
        }
        // A file naming a `planaria-…-v1` schema must use the shared writer.
        for (at, _) in text.match_indices("\"planaria-") {
            let id: String = text[at + 1..]
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-')
                .collect();
            let closed = text[at + 1 + id.len()..].starts_with('"');
            if closed && id.ends_with("-v1") {
                assert!(text.contains("json"), "{path} emits `{id}` without planaria_common::json");
            }
        }
    }
}

#[test]
fn lockfiles_name_no_registry_or_git_source() {
    // A registry or git dependency always writes `source = …` into the
    // lockfile; a path dependency (workspace or vendor/) never does.
    for lock in ["Cargo.lock", "perfbench/Cargo.lock"] {
        let text = repo_file(lock);
        assert!(text.contains("[[package]]"), "{lock} parses as a lockfile");
        let sourced: Vec<&str> = text.lines().filter(|l| l.starts_with("source =")).collect();
        assert!(sourced.is_empty(), "{lock} pulls from outside the workspace: {sourced:?}");
    }
}
