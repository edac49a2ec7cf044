//! `figures` end to end: entry lookup, option errors and `--help`, driven
//! through the built binary.

use std::process::{Command, Output};

use planaria_bench::figures::FIGURES;

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("binary runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Asserts a usage error: exit 2, `error: {msg}` and the usage on stderr,
/// nothing on stdout.
fn assert_usage_error(out: &Output, msg: &str) {
    let err = text(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.starts_with(&format!("error: {msg}\nusage: figures NAME ")), "{err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn unknown_names_and_apps_are_usage_errors() {
    assert_usage_error(&figures(&["fig8"]), r#"unknown figure "fig8""#);
    assert_usage_error(&figures(&[]), "missing figure name");
    assert_usage_error(
        &figures(&["fig8_amat", "--apps", "WAT"]),
        r#"unknown app abbreviation "WAT""#,
    );
    assert_usage_error(&figures(&["fig8_amat", "--threads", "0"]), "--threads must be at least 1");
}

#[test]
fn help_lists_every_entry() {
    let out = figures(&["--help"]);
    assert!(out.status.success());
    let help = text(&out.stdout);
    assert!(help.starts_with("usage: figures NAME "), "{help}");
    let listed: Vec<&str> = help
        .lines()
        .skip_while(|l| !l.starts_with("NAME"))
        .skip(1)
        .map(|l| l.split_whitespace().next().unwrap_or(""))
        .collect();
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(listed, names);
    assert_eq!(names.len(), 19);
    assert_eq!(text(&figures(&["fig8_amat", "-h"]).stdout), help);
}

#[test]
fn an_entry_prints_its_table_on_stdout() {
    let out = figures(&["table2_workloads", "--len", "2000", "--apps", "hok"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let table = text(&out.stdout);
    assert!(table.starts_with("Table 2: the targeted representative applications\n"), "{table}");
    assert!(table.contains("Honor of Kings") && !table.contains("Fortnite"), "{table}");
}
