//! Shared harness for the `planaria-bench` binaries.
//!
//! [`figures::FIGURES`] holds every table, figure and ablation of the
//! paper's evaluation, one entry each, and the `figures` binary runs one by
//! name. Every entry takes the same options ([`HarnessArgs`]):
//!
//! * `--len <N>` — accesses per application trace (default 1,000,000;
//!   large enough for several training rounds of every app's working set);
//! * `--full` — use the paper's full Table 2 lengths (~67–71 M accesses
//!   per app; slow but exact);
//! * `--apps CFM,HoK,...` — the applications to run (default: all ten, or
//!   the entry's own subset for the multi-variant ablations);
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
//! cell, simulated-cycle throughput, peak resident set) lands on stderr
//! after each grid.

#![allow(clippy::disallowed_methods)]

pub mod figures;

use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::runner::{Job, Runner};
use planaria_sim::SimResult;
use planaria_trace::apps::{profile, AppId};
use planaria_trace::WorkloadSpec;

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

impl HarnessArgs {
    /// The options [`HarnessArgs::parse`] takes.
    pub(crate) const USAGE: &str =
        "[--len N | --full] [--apps CFM,HoK,...] [--threads N] [--progress] [--telemetry]";

    /// Parses `std::env::args()`-style arguments. `default_apps` are the
    /// applications run when `--apps` is absent.
    ///
    /// # Errors
    ///
    /// An unknown flag, a missing or malformed value, an unknown app or a
    /// zero count.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        default_apps: &[AppId],
    ) -> Result<Self, String> {
        let mut out = Self {
            len: Some(DEFAULT_LEN),
            apps: default_apps.to_vec(),
            threads: None,
            progress: false,
            telemetry: false,
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--len" => out.len = Some(cli::positive_count("--len", it.next())?),
                "--full" => out.len = None,
                "--apps" => {
                    out.apps = cli::value_of("--apps", it.next())?
                        .split(',')
                        .map(|abbr| {
                            AppId::from_abbr(abbr)
                                .ok_or(format!("unknown app abbreviation {abbr:?}"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--threads" => out.threads = Some(cli::positive_count("--threads", it.next())?),
                "--progress" => out.progress = true,
                "--telemetry" => out.telemetry = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(out)
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

    /// `app`'s workload at the harness length.
    pub fn workload(&self, app: AppId) -> WorkloadSpec {
        profile(app).scaled(self.len_for(app))
    }

    /// Runs one cell per (selected app × variant) on the parallel engine,
    /// built by `job(app, workload, variant)` over the app's workload, and
    /// prints the batch summary with the process's peak resident set (and,
    /// with `--telemetry`, the merged counters) on stderr. Returns one row
    /// per app, in `variants` order.
    pub fn sweep<V: Copy>(
        &self,
        variants: &[V],
        job: impl Fn(AppId, WorkloadSpec, V) -> Job,
    ) -> Vec<Vec<SimResult>> {
        let jobs = self
            .apps
            .iter()
            .flat_map(|&app| variants.iter().map(move |&v| (app, v)))
            .map(|(app, v)| job(app, self.workload(app), v))
            .collect();
        let report = self.runner().run(jobs);
        let peak = proc_status_kb("VmHWM").map_or("unknown".into(), |kb| format!("{kb} kB"));
        eprintln!("  {}; peak RSS {peak}", report.summary());
        if self.telemetry {
            eprintln!("  telemetry (merged over the batch):");
            for line in report.telemetry().summary_table().lines() {
                eprintln!("    {line}");
            }
        }
        report.into_rows(variants.len())
    }

    /// [`HarnessArgs::sweep`] over prefetcher kinds with Table 1 defaults.
    pub fn grid(&self, kinds: &[PrefetcherKind]) -> Vec<Vec<SimResult>> {
        self.sweep(kinds, |app, workload, k| Job::new(format!("{}/{k}", app.abbr()), workload, k))
    }
}

/// Reads a field like `VmRSS` or `VmHWM` from `/proc/self/status`, in kB
/// (`None` off Linux).
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Graceful command-line error handling for every bench binary.
///
/// A bad argument never panics: the binaries report `error: …` plus their
/// usage on stderr and exit with status 2 (the conventional "usage error"
/// code, distinct from a failed check's exit 1), so the mistake is not
/// buried under a backtrace hint.
pub mod cli {
    use std::fmt::Display;

    use planaria_common::json::{self, Value};

    /// Prints `error: {msg}`, the usage, and exits with status 2.
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

    /// A bin's `--check` predicate: a one-line summary of a sound
    /// document, or what is wrong with it.
    pub type CheckDoc = fn(&str) -> Result<String, String>;

    /// Runs `check_doc` on the document at `path`: prints
    /// `{path}: {summary}` when it holds, or `{path}: {error}` on stderr
    /// and exits with status 1 when it does not or the file cannot be read.
    pub fn check_file(path: &str, check_doc: CheckDoc) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"));
        match text.and_then(|text| check_doc(&text)) {
            Ok(summary) => println!("{path}: {summary}"),
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            }
        }
    }

    /// Parses `text` as JSON and requires its top-level `schema` to be
    /// `want` — the first step of every `--check` predicate.
    ///
    /// # Errors
    ///
    /// Malformed JSON, or a missing or different top-level `schema`.
    pub fn parse_schema(text: &str, want: &str) -> Result<Value, String> {
        let doc = json::parse(text).map_err(|e| format!("malformed JSON: {e}"))?;
        match doc.get("schema").and_then(|v| v.as_str()) {
            Some(schema) if schema == want => Ok(doc),
            Some(other) => Err(format!("unexpected schema {other:?} (want {want})")),
            None => Err("missing \"schema\" key".into()),
        }
    }

    /// Feeds `check_doc` a freshly rendered `doc`, then every truncation
    /// and every single-bit flip of it. A panic in `check_doc` fails the
    /// caller; otherwise each mutant may pass or fail, except that a
    /// truncation cutting into the closing brace must fail. Returns the
    /// number of rejected bit flips.
    ///
    /// # Errors
    ///
    /// The untouched document fails, or a truncated one passes.
    pub fn sweep_mutants(doc: &str, check_doc: CheckDoc) -> Result<usize, String> {
        check_doc(doc).map_err(|e| format!("the untouched document fails: {e}"))?;
        let (bytes, complete) = (doc.as_bytes(), doc.trim_end().len());
        for cut in 0..bytes.len() {
            let passed = check_doc(&String::from_utf8_lossy(&bytes[..cut])).is_ok();
            if passed && cut < complete {
                return Err(format!("the first {cut} bytes pass"));
            }
        }
        let mut flipped = bytes.to_vec();
        let mut rejected = 0;
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            rejected += usize::from(check_doc(&String::from_utf8_lossy(&flipped)).is_err());
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        Ok(rejected)
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

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse(args.iter().map(|a| a.to_string()), &AppId::ALL)
    }

    #[test]
    fn parse_defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.len, Some(DEFAULT_LEN));
        assert_eq!(a.apps.len(), 10);
        assert_eq!(a.threads, None);
        assert!(!a.progress);
    }

    #[test]
    fn parse_len_and_apps() {
        let a = parse(&["--len", "50_000", "--apps", "CFM,fort"]).unwrap();
        assert_eq!(a.len, Some(50_000));
        assert_eq!(a.apps, vec![AppId::Cfm, AppId::Fort]);
    }

    #[test]
    fn parse_threads_and_progress() {
        let a = parse(&["--threads", "4", "--progress"]).unwrap();
        assert_eq!(a.threads, Some(4));
        assert!(a.progress);
        assert_eq!(a.runner().threads(), 4);
    }

    #[test]
    fn parse_telemetry_flag() {
        assert!(!parse(&[]).unwrap().telemetry);
        assert!(parse(&["--telemetry"]).unwrap().telemetry);
    }

    #[test]
    fn parse_full_uses_paper_lengths() {
        let a = parse(&["--full"]).unwrap();
        assert_eq!(a.len, None);
        assert_eq!(a.len_for(AppId::Cfm), 67_480_000);
    }

    #[test]
    fn parse_rejects_unknown_app() {
        assert_eq!(parse(&["--apps", "HoK,WAT"]).unwrap_err(), r#"unknown app abbreviation "WAT""#);
    }

    #[test]
    fn parse_rejects_zero_threads() {
        assert!(
            parse(&["--threads", "0"]).is_err_and(|e| e.contains("--threads must be at least 1"))
        );
    }

    #[test]
    fn parse_rejects_unknown_flags_and_missing_values() {
        assert_eq!(parse(&["--fast"]).unwrap_err(), r#"unknown argument "--fast""#);
        assert!(parse(&["--len"]).is_err_and(|e| e.contains("--len needs a value")));
        assert!(parse(&["--len", "lots"]).is_err_and(|e| e.contains("integer")));
    }

    #[test]
    fn default_apps_apply_only_without_the_apps_flag() {
        let degree = figures::find("ablation_degree").expect("entry exists").apps;
        assert_eq!(degree, [AppId::Cfm, AppId::HoK]);
        let all = AppId::ALL.map(AppId::abbr).join(",");
        assert_eq!(HarnessArgs::parse(["--apps".into(), all], degree).unwrap().apps, AppId::ALL);
        assert_eq!(HarnessArgs::parse([], degree).unwrap().apps, degree);
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
    #[cfg(target_os = "linux")]
    fn proc_status_reads_resident_set_fields() {
        // Read the current size first: the high-water mark read after it
        // can only be at least as large.
        let rss = proc_status_kb("VmRSS").expect("Linux reports VmRSS");
        let hwm = proc_status_kb("VmHWM").expect("Linux reports VmHWM");
        assert!(rss > 0 && hwm >= rss, "VmRSS {rss} kB, VmHWM {hwm} kB");
        assert_eq!(proc_status_kb("VmNoSuchField"), None);
    }

    #[test]
    fn bar_renders() {
        assert_eq!(bar(0.5, 10), "#####·····");
        assert_eq!(bar(0.0, 4), "····");
        assert_eq!(bar(1.5, 4), "####");
    }
}
