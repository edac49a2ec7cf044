//! Shared helpers for the figure-harness binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper.
//! They share a tiny command-line convention:
//!
//! * `--len <N>` — accesses per application trace (default 1,000,000;
//!   large enough for several training rounds of every app's working set);
//! * `--full` — use the paper's full Table 2 lengths (~67–71 M accesses
//!   per app; slow but exact);
//! * `--apps CFM,HoK,...` — restrict to a subset of applications;
//! * `--threads <N>` — worker threads for the experiment grid (default:
//!   all available cores);
//! * `--progress` — live per-cell progress lines (interim hit rate) on
//!   stderr;
//! * `--telemetry` — after each grid, print the batch's merged decision
//!   and lifecycle counters (see `planaria_telemetry`) on stderr.
//!
//! Output is an aligned text table (one row per app plus an average row) —
//! the faithful terminal rendering of the paper's bar charts. Grids run on
//! `planaria-sim`'s parallel [`Runner`]; a wall-clock summary (slowest
//! cell, simulated-cycle throughput) lands on stderr after each grid.

#![allow(clippy::disallowed_methods)]

use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::runner::{Job, RunReport, Runner};
use planaria_sim::SimResult;
use planaria_trace::apps::AppId;

/// Default per-app trace length for figure regeneration.
pub const DEFAULT_LEN: usize = 1_000_000;

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Accesses per application trace (`None` = the paper's full length).
    pub len: Option<usize>,
    /// Applications to run.
    pub apps: Vec<AppId>,
    /// Worker threads (`None` = all available cores).
    pub threads: Option<usize>,
    /// Emit live per-cell progress lines on stderr.
    pub progress: bool,
    /// Print the merged telemetry counter table after each grid.
    pub telemetry: bool,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            len: Some(DEFAULT_LEN),
            apps: AppId::ALL.to_vec(),
            threads: None,
            progress: false,
            telemetry: false,
        }
    }
}

impl HarnessArgs {
    /// Parses `std::env::args()`-style arguments.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments (these are
    /// developer-facing harnesses, not a user CLI).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--len" => {
                    let v = it.next().expect("--len needs a value");
                    out.len = Some(v.replace('_', "").parse().expect("--len must be an integer"));
                }
                "--full" => out.len = None,
                "--apps" => {
                    let v = it.next().expect("--apps needs a comma-separated list");
                    out.apps = v
                        .split(',')
                        .map(|abbr| {
                            AppId::ALL
                                .into_iter()
                                .find(|a| a.abbr().eq_ignore_ascii_case(abbr.trim()))
                                .unwrap_or_else(|| panic!("unknown app abbreviation {abbr:?}"))
                        })
                        .collect();
                }
                "--threads" => {
                    let v = it.next().expect("--threads needs a value");
                    let n: usize = v.parse().expect("--threads must be an integer");
                    assert!(n > 0, "--threads must be positive");
                    out.threads = Some(n);
                }
                "--progress" => out.progress = true,
                "--telemetry" => out.telemetry = true,
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--len N | --full] [--apps CFM,HoK,...] [--threads N] \
                         [--progress] [--telemetry]"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown argument {other:?} (try --help)"),
            }
        }
        out
    }

    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// The effective trace length for `app`.
    pub fn len_for(&self, app: AppId) -> usize {
        self.len.unwrap_or_else(|| (app.paper_length_m() * 1_000_000.0) as usize)
    }

    /// A [`Runner`] configured from `--threads` / `--progress`.
    pub fn runner(&self) -> Runner {
        let runner = match self.threads {
            Some(n) => Runner::new(n),
            None => Runner::auto(),
        };
        if self.progress {
            runner.with_progress(|e| {
                eprintln!(
                    "  [{}/{}] {}: {:.0}% (hit rate {:.3})",
                    e.job + 1,
                    e.total,
                    e.label,
                    e.done as f64 / e.trace_len.max(1) as f64 * 100.0,
                    e.hit_rate,
                )
            })
        } else {
            runner
        }
    }

    /// Runs every `kind` over each selected app on the parallel engine,
    /// printing the batch summary on stderr. Rows are per app in `kinds`
    /// order.
    pub fn grid(&self, kinds: &[PrefetcherKind]) -> Vec<Vec<SimResult>> {
        let jobs: Vec<Job> = self
            .apps
            .iter()
            .flat_map(|&app| kinds.iter().map(move |&k| Job::grid_cell(app, k, self.len_for(app))))
            .collect();
        let report = self.runner().run(jobs);
        eprintln!("  {}", report.summary());
        self.maybe_print_telemetry(&report);
        report.into_rows(kinds.len())
    }

    /// Runs a caller-assembled job batch on this harness's runner and
    /// prints the batch summary on stderr (the ablation harnesses' path).
    pub fn run_jobs(&self, jobs: Vec<Job>) -> Vec<SimResult> {
        let report = self.runner().run(jobs);
        eprintln!("  {}", report.summary());
        self.maybe_print_telemetry(&report);
        report.into_results()
    }

    /// Prints the batch's merged telemetry counters on stderr when
    /// `--telemetry` was given.
    fn maybe_print_telemetry(&self, report: &RunReport) {
        if self.telemetry {
            eprintln!("  telemetry (merged over the batch):");
            for line in report.telemetry().summary_table().lines() {
                eprintln!("    {line}");
            }
        }
    }
}

/// Graceful command-line error handling for the measurement binaries.
///
/// The figure harnesses go through [`HarnessArgs`] and may panic on bad
/// input (developer-facing, documented). The *measurement* binaries
/// (`replay`, `contention`) are run from CI and scripts, where a
/// panic with a backtrace hint buries the actual mistake; they report
/// `error: …` plus their usage line on stderr and exit with status 2
/// (the conventional "usage error" code, distinct from a failed check's
/// exit 1).
pub mod cli {
    use std::fmt::Display;

    /// Prints `error: {msg}`, the usage line, and exits with status 2.
    pub fn usage_error(usage: &str, msg: impl Display) -> ! {
        eprintln!("error: {msg}");
        eprintln!("{usage}");
        std::process::exit(2);
    }

    /// The value following a flag, or a "needs a value" error.
    pub fn value_of(flag: &str, v: Option<String>) -> Result<String, String> {
        v.ok_or_else(|| format!("{flag} needs a value"))
    }

    /// Parses a flag's value as a positive integer (underscores allowed,
    /// so `--len 200_000` reads like the source constants).
    pub fn positive_count(flag: &str, v: Option<String>) -> Result<usize, String> {
        let v = value_of(flag, v)?;
        let n: usize = v
            .replace('_', "")
            .parse()
            .map_err(|_| format!("{flag} must be an integer (got {v:?})"))?;
        if n == 0 {
            return Err(format!("{flag} must be at least 1"));
        }
        Ok(n)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn positive_count_parses_with_underscores() {
            assert_eq!(positive_count("--len", Some("200_000".into())), Ok(200_000));
            assert_eq!(positive_count("--repeats", Some("5".into())), Ok(5));
        }

        #[test]
        fn positive_count_rejects_garbage_zero_and_missing() {
            assert!(positive_count("--len", Some("fast".into()))
                .is_err_and(|e| e.contains("--len") && e.contains("integer")));
            assert!(positive_count("--repeats", Some("0".into()))
                .is_err_and(|e| e.contains("at least 1")));
            assert!(value_of("--out", None).is_err_and(|e| e.contains("needs a value")));
        }
    }
}

/// Renders a unit-interval value as a crude horizontal bar (figure flavour).
pub fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0)) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), "·".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults() {
        let a = HarnessArgs::parse(Vec::<String>::new());
        assert_eq!(a.len, Some(DEFAULT_LEN));
        assert_eq!(a.apps.len(), 10);
        assert_eq!(a.threads, None);
        assert!(!a.progress);
    }

    #[test]
    fn parse_len_and_apps() {
        let a = HarnessArgs::parse(["--len", "50_000", "--apps", "CFM,fort"].map(String::from));
        assert_eq!(a.len, Some(50_000));
        assert_eq!(a.apps, vec![AppId::Cfm, AppId::Fort]);
    }

    #[test]
    fn parse_threads_and_progress() {
        let a = HarnessArgs::parse(["--threads", "4", "--progress"].map(String::from));
        assert_eq!(a.threads, Some(4));
        assert!(a.progress);
        assert_eq!(a.runner().threads(), 4);
    }

    #[test]
    fn parse_telemetry_flag() {
        assert!(!HarnessArgs::parse(Vec::<String>::new()).telemetry);
        assert!(HarnessArgs::parse(["--telemetry"].map(String::from)).telemetry);
    }

    #[test]
    fn parse_full_uses_paper_lengths() {
        let a = HarnessArgs::parse(["--full"].map(String::from));
        assert_eq!(a.len, None);
        assert_eq!(a.len_for(AppId::Cfm), 67_480_000);
    }

    #[test]
    #[should_panic(expected = "unknown app")]
    fn parse_rejects_unknown_app() {
        let _ = HarnessArgs::parse(["--apps", "WAT"].map(String::from));
    }

    #[test]
    #[should_panic(expected = "--threads must be positive")]
    fn parse_rejects_zero_threads() {
        let _ = HarnessArgs::parse(["--threads", "0"].map(String::from));
    }

    #[test]
    fn grid_runs_on_runner() {
        let a = HarnessArgs {
            len: Some(2_000),
            apps: vec![AppId::Cfm, AppId::Hi3],
            threads: Some(2),
            progress: false,
            telemetry: false,
        };
        let rows = a.grid(&[PrefetcherKind::None, PrefetcherKind::NextLine]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 2);
        assert_eq!(rows[0][0].workload, "CFM");
        assert_eq!(rows[1][1].prefetcher, "NextLine");
    }

    #[test]
    fn bar_renders() {
        assert_eq!(bar(0.5, 10), "#####·····");
        assert_eq!(bar(0.0, 4), "····");
        assert_eq!(bar(1.5, 4), "####");
    }
}
