//! The rule ids are sparse (retired ids are never reused), so the CLI
//! must list the ids it actually has rather than a range.

use std::process::{Command, Output};

const KEPT: [&str; 6] = ["R4", "R6", "R8", "R9", "R10", "R12"];

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_planaria-lint")).args(args).output().expect("binary runs")
}

#[test]
fn list_rules_prints_exactly_the_kept_ids() {
    let out = lint(&["--list-rules"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let ids: Vec<&str> = stdout.lines().filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(ids, KEPT);
}

#[test]
fn explain_rejects_a_retired_id_and_names_the_kept_ones() {
    let out = lint(&["--explain", "R3"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(stderr.contains("known: R4, R6, R8, R9, R10, R12"), "{stderr}");
}

#[test]
fn explain_accepts_a_kept_id() {
    let out = lint(&["--explain", "R9"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("R9 — no-transitive-wall-clock"));
}
