//! `planaria-lint` command-line interface.
//!
//! ```text
//! planaria-lint [--root DIR] [--baseline FILE] [--out FILE] [--check]
//! planaria-lint --validate FILE
//! planaria-lint --list-rules
//! planaria-lint --explain R9
//! ```
//!
//! Default mode lints the workspace at `--root` (default `.`) against the
//! baseline (default `<root>/lint-baseline.json`; a missing file counts
//! as empty), writes the `planaria-lint-v2` JSON report to `--out` (or
//! stdout) and prints a text summary to stderr. With `--check` the exit
//! status is nonzero when any unsuppressed violation or stale baseline
//! entry exists. `--validate FILE` checks a previously written report
//! for schema conformance. `--explain R<n>` prints one rule's rationale
//! with a firing and a non-firing example; an unknown rule id exits 2.

#![allow(clippy::disallowed_methods)]

use std::path::PathBuf;
use std::process::ExitCode;

use planaria_lint::report::validate_report;
use planaria_lint::rules::{known_ids, RULES};
use planaria_lint::{load_baseline, run_workspace};

struct Options {
    root: PathBuf,
    baseline: Option<PathBuf>,
    out: Option<PathBuf>,
    check: bool,
    validate: Option<PathBuf>,
    list_rules: bool,
    explain: Option<String>,
}

const USAGE: &str = "usage: planaria-lint [--root DIR] [--baseline FILE] [--out FILE] \
                     [--check] | --validate FILE | --list-rules | --explain R<n>";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        baseline: None,
        out: None,
        check: false,
        validate: None,
        list_rules: false,
        explain: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().map(PathBuf::from).ok_or(format!("{flag} requires a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--root" => opts.root = value("--root")?,
            "--baseline" => opts.baseline = Some(value("--baseline")?),
            "--out" => opts.out = Some(value("--out")?),
            "--check" => opts.check = true,
            "--validate" => opts.validate = Some(value("--validate")?),
            "--list-rules" => opts.list_rules = true,
            "--explain" => {
                opts.explain = Some(value("--explain")?.to_string_lossy().into_owned());
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Exit code for an unknown rule id passed to `--explain`.
const EXIT_USAGE: u8 = 2;

fn explain(id: &str) -> Result<(), String> {
    let Some(rule) = RULES.iter().find(|r| r.id.eq_ignore_ascii_case(id)) else {
        return Err(format!("unknown rule id {id:?} (known: {})\n{USAGE}", known_ids()));
    };
    println!("{} — {}", rule.id, rule.name);
    println!("\n{}", rule.summary);
    println!("\nWhy:\n  {}", rule.rationale);
    println!("\nFires:");
    for line in rule.fires.lines() {
        println!("  {line}");
    }
    println!("\nClean:");
    for line in rule.clean.lines() {
        println!("  {line}");
    }
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let opts = parse_args()?;

    if opts.list_rules {
        for rule in RULES {
            println!("{:<4} {:<26} {}", rule.id, rule.name, rule.summary);
        }
        return Ok(true);
    }

    if let Some(id) = &opts.explain {
        return match explain(id) {
            Ok(()) => Ok(true),
            Err(msg) => {
                eprintln!("planaria-lint: {msg}");
                std::process::exit(i32::from(EXIT_USAGE));
            }
        };
    }

    if let Some(path) = &opts.validate {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        validate_report(&text)?;
        println!("{}: valid {} report", path.display(), planaria_lint::report::REPORT_SCHEMA);
        return Ok(true);
    }

    let baseline_path =
        opts.baseline.clone().unwrap_or_else(|| opts.root.join("lint-baseline.json"));
    let baseline = load_baseline(&baseline_path)?;
    let outcome = run_workspace(&opts.root, &baseline)?;

    let report = outcome.render(&opts.root.display().to_string());
    match &opts.out {
        Some(path) => std::fs::write(path, &report)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?,
        None => print!("{report}"),
    }
    eprint!("{}", outcome.render_text());

    Ok(!opts.check || outcome.is_clean())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("planaria-lint: {msg}");
            ExitCode::FAILURE
        }
    }
}
