//! Per-rule fixture tests: every bad fixture trips exactly its own rule,
//! the clean fixtures trip nothing, and trigger text hidden in strings
//! or comments stays invisible. The fixtures of the retired rules (R1–R3,
//! R7, R11) are inputs of `ci.sh`'s clippy negative control; their tests
//! here pin where the workspace denies each clippy lint, and that the
//! slim tool leaves those fixtures to clippy (one enforcer per policy).

use std::path::Path;

use planaria_lint::rules::{lint_manifest, lint_source, Config, FileMeta, Violation};

fn config() -> Config {
    Config {
        crate_idents: ["planaria_common", "planaria_hash", "planaria_core"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        ..Config::default()
    }
}

fn lint(path: &str, source: &str) -> Vec<Violation> {
    let meta = FileMeta::for_path(path).expect("classifiable fixture path");
    lint_source(&meta, source, &config())
}

/// Distinct rule ids fired, in order.
fn rules_fired(path: &str, source: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = lint(path, source).into_iter().map(|v| v.rule).collect();
    rules.dedup();
    rules
}

fn repo_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A workspace file, read relative to the repository root.
fn repo_file(rel: &str) -> String {
    std::fs::read_to_string(repo_root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Workspace-relative paths, sorted, of every `crates/`/`vendor/` source
/// file carrying the attribute `attr` on a line of its own.
fn files_with(attr: &str) -> Vec<String> {
    fn walk(root: &Path, dir: &Path, attr: &str, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() && !path.ends_with("fixtures") {
                walk(root, &path, attr, out);
            } else if path.extension().is_some_and(|e| e == "rs")
                && std::fs::read_to_string(&path).expect("readable").lines().any(|l| l == attr)
            {
                out.push(path.strip_prefix(root).expect("under root").display().to_string());
            }
        }
    }
    let root = repo_root();
    let mut out = Vec::new();
    for top in ["crates", "vendor"] {
        walk(&root, &root.join(top), attr, &mut out);
    }
    out.sort();
    out
}

#[test]
fn r1_default_hasher_map_in_hot_crate() {
    let clippy = repo_file("clippy.toml");
    for ty in ["collections::HashMap", "collections::HashSet", "sync::Mutex", "sync::RwLock"] {
        assert!(clippy.contains(&format!("path = \"std::{ty}\"")), "clippy.toml must ban {ty}");
    }
    assert_eq!(
        files_with("#![deny(clippy::disallowed_types)]"),
        ["cache", "core", "dram", "sim", "trace"].map(|c| format!("crates/{c}/src/lib.rs")),
        "exactly the hot-path crate roots deny std maps and locks"
    );
    let vs = lint("crates/core/src/fixture.rs", include_str!("fixtures/bad_r1.rs"));
    assert!(vs.is_empty(), "clippy's alone: {vs:?}");
}

#[test]
fn r1_is_silent_outside_hot_crate_roots() {
    // Only the hot crate roots deny the lint; the workspace level allows it.
    assert!(repo_file("Cargo.toml").contains("disallowed_types = \"allow\""));
    let vs = lint("crates/telemetry/src/fixture.rs", include_str!("fixtures/bad_r1.rs"));
    assert!(vs.is_empty(), "telemetry is not a hot crate: {vs:?}");
}

#[test]
fn r2_wall_clock_in_simulated_code() {
    let clippy = repo_file("clippy.toml");
    for m in ["time::Instant::now", "time::SystemTime::now", "env::args", "env::var", "env::vars"] {
        assert!(clippy.contains(&format!("path = \"std::{m}\"")), "clippy.toml must ban {m}");
    }
    // The direct read is clippy's; R9 reports only reads reached by calls.
    let vs = lint("crates/core/src/fixture.rs", include_str!("fixtures/bad_r2.rs"));
    assert!(vs.is_empty(), "clippy's alone: {vs:?}");
}

#[test]
fn r2_is_silent_on_the_allowlist() {
    // The reviewed opt-outs from the wall-clock/env ban, which R9 also
    // treats as taint barriers. Growing this list is a reviewed decision.
    assert_eq!(
        files_with("#![allow(clippy::disallowed_methods)]"),
        [
            "crates/bench/src/bin/contention.rs",
            "crates/bench/src/bin/export_csv.rs",
            "crates/bench/src/bin/replay.rs",
            "crates/bench/src/bin/serve_load.rs",
            "crates/bench/src/bin/telemetry_export.rs",
            "crates/bench/src/lib.rs",
            "crates/lint/src/main.rs",
            "crates/sim/src/runner.rs",
            "crates/trace/src/bin/trace_pack.rs",
        ]
    );
}

#[test]
fn r3_bare_unwrap_in_library_code() {
    assert!(repo_file("Cargo.toml").contains("unwrap_used = \"warn\""));
    assert!(repo_file("clippy.toml").contains("allow-unwrap-in-tests = true"));
    let vs = lint("crates/core/src/fixture.rs", include_str!("fixtures/bad_r3.rs"));
    assert!(vs.is_empty(), "clippy's alone: {vs:?}");
}

#[test]
fn r4_crate_root_missing_lint_attrs() {
    let vs = lint_manifest("crates/demo/Cargo.toml", include_str!("fixtures/bad_r4.toml"));
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!((vs[0].rule, vs[0].line, vs[0].snippet.as_str()), ("R4", 4, "[package]"));
}

#[test]
fn r4_only_applies_to_crate_roots() {
    // Only `crates/*` and `vendor/*` member manifests must inherit.
    let bad = include_str!("fixtures/bad_r4.toml");
    for path in ["Cargo.toml", "crates/demo/fuzz/Cargo.toml", "tests/Cargo.toml"] {
        let vs = lint_manifest(path, bad);
        assert!(vs.is_empty(), "{path} is not a member manifest: {vs:?}");
    }
    assert_eq!(lint_manifest("vendor/demo/Cargo.toml", bad).len(), 1);
}

#[test]
fn r5_float_sum_over_map_iteration() {
    let vs = lint("crates/analysis/src/fixture.rs", include_str!("fixtures/bad_r5.rs"));
    assert!(vs.iter().all(|v| v.rule == "R10"), "R10 absorbed R5: {vs:?}");
    assert_eq!(vs.len(), 2, "turbofish sum and float fold: {vs:?}");
}

#[test]
fn r6_handrolled_json_outside_shared_module() {
    let vs = lint("crates/telemetry/src/fixture.rs", include_str!("fixtures/bad_r6.rs"));
    assert!(vs.iter().all(|v| v.rule == "R6"), "{vs:?}");
    assert_eq!(vs.len(), 2, "escape helper and rogue schema emitter: {vs:?}");
}

#[test]
fn r7_stub_macros() {
    let manifest = repo_file("Cargo.toml");
    for name in ["todo", "dbg_macro", "unimplemented"] {
        assert!(manifest.contains(&format!("\n{name} = \"warn\"")), "{name} must be on");
    }
    let vs = lint("crates/common/src/fixture.rs", include_str!("fixtures/bad_r7.rs"));
    assert!(vs.is_empty(), "clippy's alone: {vs:?}");
}

#[test]
fn r8_unknown_crate_import() {
    assert_eq!(
        rules_fired("crates/core/src/fixture.rs", include_str!("fixtures/bad_r8.rs")),
        ["R8"]
    );
}

#[test]
fn r9_transitive_wall_clock_within_one_file() {
    let vs = lint("crates/core/src/fixture.rs", include_str!("fixtures/bad_r9.rs"));
    assert_eq!(vs.len(), 1, "only `entry` is indirectly tainted: {vs:?}");
    assert_eq!(vs[0].rule, "R9");
    assert!(vs[0].message.contains("entry"), "{:?}", vs[0].message);
    assert!(vs[0].message.contains("transitively"), "{:?}", vs[0].message);
}

#[test]
fn r9_is_silent_on_the_allowlist() {
    // The file-level opt-out from clippy's ban is the barrier, not the path.
    let opted_out =
        format!("#![allow(clippy::disallowed_methods)]\n{}", include_str!("fixtures/bad_r9.rs"));
    let vs = lint("crates/core/src/fixture.rs", &opted_out);
    assert!(vs.is_empty(), "a sanctioned timing file may time things: {vs:?}");
}

#[test]
fn r9_taints_across_files_and_crates() {
    use planaria_lint::{lint_files, SourceFile};
    let source = |path: &str, text: &str| SourceFile {
        meta: FileMeta::for_path(path).expect("classifiable fixture path"),
        text: text.to_string(),
    };
    let clock = source(
        "crates/trace/src/clock.rs",
        "//! Clock.\n\n/// Direct wall-clock read.\npub fn read_clock() -> u64 {\n    \
         let _ = std::time::SystemTime::now();\n    0\n}\n",
    );
    let driver = source(
        "crates/core/src/driver.rs",
        "//! Driver.\n\n/// Reaches the clock only through another crate.\n\
         pub fn drive() -> u64 {\n    planaria_trace::clock::read_clock()\n}\n",
    );
    let run = lint_files(&[clock, driver], &config());
    let r9: Vec<_> = run.violations.iter().filter(|v| v.rule == "R9").collect();
    assert_eq!(r9.len(), 1, "{:?}", run.violations);
    assert_eq!(r9[0].file, "crates/core/src/driver.rs");
    assert!(r9[0].message.contains("drive"), "{:?}", r9[0].message);
    assert_eq!(run.violations.len(), 1, "the direct site is clippy's");
    assert!(run.functions >= 2 && run.call_edges >= 1, "graph was built");
}

#[test]
fn r10_map_iteration_into_ordered_sink() {
    let vs = lint("crates/analysis/src/fixture.rs", include_str!("fixtures/bad_r10.rs"));
    assert!(vs.iter().all(|v| v.rule == "R10"), "{vs:?}");
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert!(vs[0].message.contains("by_page"), "{:?}", vs[0].message);
}

#[test]
fn r11_narrowing_cast_in_parsing_module() {
    assert_eq!(
        files_with("#![deny(clippy::cast_possible_truncation)]"),
        ["crates/serve/src/snapshot.rs", "crates/trace/src/io.rs"]
    );
    let vs = lint("crates/trace/src/io.rs", include_str!("fixtures/bad_r11.rs"));
    assert!(vs.is_empty(), "clippy's alone: {vs:?}");
}

#[test]
fn r11_is_silent_outside_parsing_modules() {
    // The pedantic cast lint is denied only in the two parsing modules.
    assert!(!repo_file("Cargo.toml").contains("cast_possible_truncation"));
}

#[test]
fn r12_checks_depend_on_the_crate() {
    // In serve: the unbounded channel and the `Rc` fire; serve is not a
    // hot crate, so the Mutex passes.
    let vs = lint("crates/serve/src/fixture.rs", include_str!("fixtures/bad_r12.rs"));
    assert!(vs.iter().all(|v| v.rule == "R12"), "{vs:?}");
    assert_eq!(vs.len(), 3, "channel + two Rc mentions: {vs:?}");
    assert!(vs.iter().any(|v| v.message.contains("unbounded channel")), "{vs:?}");
    assert!(vs.iter().any(|v| v.message.contains("!Send")), "{vs:?}");

    // In core: only the channel fires. Core holds no Send device state, so
    // the Rc passes, and its Mutex is clippy's (`disallowed_types`).
    let vs = lint("crates/core/src/fixture.rs", include_str!("fixtures/bad_r12.rs"));
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert!(vs[0].rule == "R12" && vs[0].message.contains("unbounded channel"), "{vs:?}");
}

#[test]
fn clean_flow_fixture_passes_the_flow_rules_where_they_all_apply() {
    // `crates/trace/src/io.rs` is first-party production code in a hot
    // crate, so every flow rule is live against this fixture.
    let vs = lint("crates/trace/src/io.rs", include_str!("fixtures/clean_flow.rs"));
    assert!(vs.is_empty(), "sanctioned flow forms must not fire: {vs:?}");
}

#[test]
fn structural_parser_handles_tricky_shapes() {
    use planaria_lint::syntax::ItemTree;
    let tree = ItemTree::parse_source(include_str!("fixtures/tricky_structure.rs"));
    let fns = tree.fns();
    let names: Vec<&str> = fns.iter().map(|f| f.item.name.as_str()).collect();
    assert!(names.contains(&"outer"), "{names:?}");
    assert!(names.contains(&"inner"), "impl-in-fn / fn-in-fn bodies are parsed: {names:?}");
    assert!(names.contains(&"match"), "raw idents lex to their bare name: {names:?}");
    let find = |name: &str| fns.iter().find(|f| f.item.name == name).expect("fn present");
    assert!(find("helper").item.cfg_test, "doubly-nested cfg(test) is test code");
    assert!(find("works").item.cfg_test, "#[test] fns are test code");
    assert!(!find("outer").item.cfg_test);
    assert!(!find("inner").item.cfg_test);
}

#[test]
fn clean_fixture_passes_every_rule_as_a_hot_crate_root() {
    let vs = lint("crates/core/src/lib.rs", include_str!("fixtures/clean.rs"));
    assert!(vs.is_empty(), "sanctioned forms must not fire: {vs:?}");
}

#[test]
fn tricky_strings_and_comments_never_fire() {
    let vs = lint("crates/core/src/fixture.rs", include_str!("fixtures/tricky.rs"));
    assert!(vs.is_empty(), "triggers in strings/comments are data: {vs:?}");
}

#[test]
fn bad_manifest_fires_r8_per_registry_dependency() {
    let vs = lint_manifest("crates/rogue/Cargo.toml", include_str!("fixtures/bad_manifest.toml"));
    assert!(vs.iter().all(|v| v.rule == "R8"), "{vs:?}");
    assert_eq!(vs.len(), 3, "rayon, reqwest table, quickcheck git: {vs:?}");
}

#[test]
fn clean_manifest_is_silent() {
    let vs = lint_manifest("crates/tidy/Cargo.toml", include_str!("fixtures/clean_manifest.toml"));
    assert!(vs.is_empty(), "workspace/path deps are sanctioned: {vs:?}");
}
