//! Negative-path tests on a synthetic mini-workspace: a seeded violation
//! must dirty the outcome, a baseline entry with a justification must
//! suppress it, and entries that match nothing must be flagged stale.

use std::fs;
use std::path::{Path, PathBuf};

use planaria_lint::baseline::{Baseline, BASELINE_SCHEMA};
use planaria_lint::run_workspace;

/// Builds `<tmp>/<name>` containing a one-crate workspace whose member
/// inherits the workspace lints and whose lib.rs seeds one R12 violation.
fn mini_workspace(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("reset tmp workspace");
    }
    fs::create_dir_all(root.join("crates/demo/src")).expect("mkdir");
    fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/demo\"]\n")
        .expect("root manifest");
    fs::write(
        root.join("crates/demo/Cargo.toml"),
        "[package]\nname = \"demo\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n\
         [lints]\nworkspace = true\n",
    )
    .expect("member manifest");
    fs::write(
        root.join("crates/demo/src/lib.rs"),
        "//! Demo crate.\n\n/// Unbounded.\npub fn queue() {\n    \
         let (_tx, _rx) = std::sync::mpsc::channel::<u8>();\n}\n",
    )
    .expect("seeded source");
    root
}

fn baseline(entries_json: &str) -> Baseline {
    let text = format!("{{\"schema\": \"{BASELINE_SCHEMA}\", \"entries\": [{entries_json}]}}");
    Baseline::parse(&text).expect("baseline parses")
}

#[test]
fn seeded_violation_dirties_the_outcome() {
    let root = mini_workspace("lint_negative_dirty");
    let outcome = run_workspace(&root, &Baseline::default()).expect("scan succeeds");
    assert!(!outcome.is_clean());
    assert_eq!(outcome.violations.len(), 1, "{:?}", outcome.violations);
    assert_eq!(outcome.violations[0].rule, "R12");
    assert_eq!(outcome.violations[0].file, "crates/demo/src/lib.rs");
    assert_eq!(outcome.files_scanned, 3, "root manifest, member manifest, lib.rs");
}

#[test]
fn justified_baseline_entry_suppresses_the_violation() {
    let root = mini_workspace("lint_negative_suppressed");
    let b = baseline(
        "{\"rule\": \"R12\", \"file\": \"crates/demo/src/lib.rs\", \"pattern\": \"channel\", \
         \"justification\": \"demo stub, tracked in ROADMAP\"}",
    );
    let outcome = run_workspace(&root, &b).expect("scan succeeds");
    assert!(outcome.is_clean(), "{:?}", outcome.violations);
    assert!(outcome.violations.is_empty());
    assert_eq!(outcome.suppressed.len(), 1);
    assert!(outcome.stale_entries.is_empty());
}

#[test]
fn non_matching_baseline_entry_is_stale_and_fails_check() {
    let root = mini_workspace("lint_negative_stale");
    let b = baseline(
        "{\"rule\": \"R12\", \"file\": \"crates/demo/src/gone.rs\", \"pattern\": \"channel\", \
         \"justification\": \"site was deleted long ago\"}",
    );
    let outcome = run_workspace(&root, &b).expect("scan succeeds");
    assert_eq!(outcome.stale_entries.len(), 1);
    assert!(!outcome.is_clean(), "stale entries must fail --check");
}
