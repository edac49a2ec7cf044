//! The shipped workspace must lint clean against its committed —
//! deliberately empty — baseline. This is the acceptance gate `ci.sh`
//! replays from the command line.

use std::path::Path;

use planaria_lint::report::validate_report;
use planaria_lint::{load_baseline, run_workspace, workspace_config};

fn repo_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn shipped_workspace_is_lint_clean_with_an_empty_baseline() {
    let root = repo_root();
    let baseline = load_baseline(&root.join("lint-baseline.json")).expect("baseline parses");
    assert!(baseline.entries.is_empty(), "the shipped baseline must stay empty");

    let outcome = run_workspace(&root, &baseline).expect("scan succeeds");
    assert!(
        outcome.violations.is_empty(),
        "workspace must be lint-clean:\n{}",
        outcome.render_text()
    );
    assert!(outcome.stale_entries.is_empty());
    assert!(outcome.is_clean());
    assert!(
        outcome.files_scanned > 100,
        "walker should cover the whole workspace, saw {}",
        outcome.files_scanned
    );

    let report = outcome.render("workspace");
    validate_report(&report).expect("report validates against planaria-lint-v2");
}

#[test]
fn streaming_trace_modules_lint_clean_under_the_workspace_config() {
    // The streaming engine additions (pull-based streams, the chunked
    // planaria-trace-v1 codec, and the trace_pack bin) must classify and
    // lint like any other workspace source: R8 accepts their imports
    // because every named crate is a workspace member. A misclassification
    // would silently exempt the new module from the gate, so pin it here.
    use planaria_lint::rules::{lint_source, FileMeta};
    let root = repo_root();
    let config = workspace_config(&root).expect("config builds");
    for rel in [
        "crates/trace/src/stream.rs",
        "crates/trace/src/io.rs",
        "crates/trace/src/bin/trace_pack.rs",
    ] {
        let meta = FileMeta::for_path(rel).expect("streaming sources classify");
        let source = std::fs::read_to_string(root.join(rel)).expect("streaming source readable");
        let vs = lint_source(&meta, &source, &config);
        assert!(vs.is_empty(), "{rel} must lint clean: {vs:?}");
    }
}

#[test]
fn serve_crate_lints_clean_under_the_workspace_config() {
    // planaria-serve multiplexes wall-clock-free device state machines;
    // no serve file opts out of clippy's wall-clock ban (only the
    // serve_load bench harness does), so none is an R9 barrier, and R8
    // vets its imports. Pin that the shipped sources fire nothing.
    use planaria_lint::rules::{lint_source, FileMeta};
    let root = repo_root();
    let config = workspace_config(&root).expect("config builds");
    for rel in [
        "crates/serve/src/lib.rs",
        "crates/serve/src/device.rs",
        "crates/serve/src/service.rs",
        "crates/serve/src/shard.rs",
        "crates/serve/src/snapshot.rs",
    ] {
        let meta = FileMeta::for_path(rel).expect("serve sources classify");
        let source = std::fs::read_to_string(root.join(rel)).expect("serve source readable");
        assert!(!source.contains("disallowed_methods"), "{rel} must stay under the clock ban");
        let vs = lint_source(&meta, &source, &config);
        assert!(vs.is_empty(), "{rel} must lint clean: {vs:?}");
    }
}

#[test]
fn wall_clock_in_a_serve_path_fires_r9() {
    // Negative control for the test above: the exact violation the serve
    // crate is most likely to grow — measuring a pump turn with
    // Instant::now inside the library instead of through a ShardObserver
    // — hidden one helper away from clippy's call-site check, must be
    // caught by R9 under the workspace config.
    use planaria_lint::rules::{lint_source, FileMeta};
    let config = workspace_config(&repo_root()).expect("config builds");
    let meta = FileMeta::for_path("crates/serve/src/service.rs").expect("classifies");
    let seeded = "//! Docs.\n\
                  /// Reads the clock.\n\
                  fn stamp() -> std::time::Instant {\n\
                  \x20   std::time::Instant::now()\n\
                  }\n\
                  /// Times one pump turn.\n\
                  pub fn timed_pump() -> u128 {\n\
                  \x20   stamp().elapsed().as_nanos()\n\
                  }\n";
    let vs = lint_source(&meta, seeded, &config);
    assert!(
        vs.iter().any(|v| v.rule == "R9"
            && v.message.contains("`timed_pump`")
            && v.message.contains("Instant::now")),
        "seeded wall-clock read must fire R9, got: {vs:?}"
    );
}

#[test]
fn workspace_config_learns_member_crate_idents() {
    let config = workspace_config(&repo_root()).expect("config builds");
    for ident in ["planaria_common", "planaria_hash", "planaria_lint", "proptest", "rand"] {
        assert!(
            config.crate_idents.iter().any(|c| c == ident),
            "missing {ident} in {:?}",
            config.crate_idents
        );
    }
}
