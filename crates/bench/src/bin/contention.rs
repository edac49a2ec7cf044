//! Closed-loop contention sweep — per-device slowdown and fairness.
//!
//! Replays each selected application once open-loop (the figure pipeline's
//! default) and once closed-loop per `--windows` entry, with every device
//! limited to that many outstanding requests. Emits a
//! `planaria-contention-v1` JSON document with per-device slowdown and the
//! max/min unfairness metric per (app, window), plus a human-readable
//! table on stderr.
//!
//! ```sh
//! cargo run --release -p planaria-bench --bin contention -- \
//!     [--len N] [--apps CFM,HoK,...] [--threads N] [--windows 2,8,32] [--out FILE]
//! cargo run --release -p planaria-bench --bin contention -- --check FILE
//! ```

#![allow(clippy::disallowed_methods)]

use planaria_bench::cli;
use planaria_common::json;
use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::{Cell, Job, Runner, TrafficConfig};
use planaria_trace::apps::AppId;

/// One-line usage summary (stderr on `--help` and on argument errors).
const USAGE: &str = "usage: contention [--len N] [--apps CFM,HoK,...] [--threads N] \
                     [--windows 2,8,32] [--out FILE] | --check FILE";

/// Reports a usage error and exits 2 (never returns).
fn fail(msg: String) -> ! {
    cli::usage_error(USAGE, msg)
}

/// Default accesses per application trace (kept small enough for CI).
const DEFAULT_LEN: usize = 30_000;

/// Default window sweep: near-serial, moderate, near-open-loop.
const DEFAULT_WINDOWS: [usize; 3] = [2, 8, 32];

fn main() {
    let mut len = DEFAULT_LEN;
    let mut apps: Vec<AppId> = AppId::ALL.to_vec();
    let mut threads: Option<usize> = None;
    let mut windows: Vec<usize> = DEFAULT_WINDOWS.to_vec();
    let mut out_path = String::from("target/contention.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--len" => {
                len = cli::positive_count("--len", args.next()).unwrap_or_else(|e| fail(e));
            }
            "--apps" => {
                let v = cli::value_of("--apps", args.next()).unwrap_or_else(|e| fail(e));
                apps = v
                    .split(',')
                    .map(|abbr| {
                        AppId::from_abbr(abbr)
                            .unwrap_or_else(|| fail(format!("unknown app abbreviation {abbr:?}")))
                    })
                    .collect();
            }
            "--threads" => {
                threads =
                    Some(cli::positive_count("--threads", args.next()).unwrap_or_else(|e| fail(e)));
            }
            "--windows" => {
                let v = cli::value_of("--windows", args.next()).unwrap_or_else(|e| fail(e));
                windows = v
                    .split(',')
                    .map(|w| match w.trim().parse::<usize>() {
                        Ok(n) if n > 0 => n,
                        _ => fail(format!("--windows entries must be positive integers: {w:?}")),
                    })
                    .collect();
                if windows.is_empty() {
                    fail("--windows needs at least one entry".into());
                }
            }
            "--out" => {
                out_path = cli::value_of("--out", args.next()).unwrap_or_else(|e| fail(e));
            }
            "--check" => {
                let path = cli::value_of("--check", args.next()).unwrap_or_else(|e| fail(e));
                cli::check_file(&path, check_doc);
                return;
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other => fail(format!("unknown argument {other:?}")),
        }
    }

    let kind = PrefetcherKind::Planaria;
    eprintln!(
        "contention: {} apps x (open loop + {} windows), {len} accesses/app",
        apps.len(),
        windows.len()
    );

    let jobs = jobs(kind, &apps, &windows, len);
    let runner = match threads {
        Some(n) => Runner::new(n),
        None => Runner::auto(),
    };
    let report = runner.run(jobs);
    eprintln!("  {}", report.summary());

    let per_app = windows.len() + 1;
    assert!(report.cells.len().is_multiple_of(per_app));
    let rows: Vec<(&AppId, &[Cell])> = apps.iter().zip(report.cells.chunks(per_app)).collect();

    for (app, cells) in &rows {
        let open = &cells[0];
        eprintln!("  {:<5} open-loop AMAT {:>8.1}", app.abbr(), open.result.amat_cycles);
        for cell in &cells[1..] {
            let cl = cell.closed_loop.as_ref().expect("closed-loop cell");
            let worst = cl
                .devices
                .iter()
                .max_by(|a, b| a.slowdown.total_cmp(&b.slowdown))
                .expect("at least one device");
            eprintln!(
                "    window {:>3}  AMAT {:>8.1}  unfairness {:>6.3}  worst {} x{:.3}",
                cl.window, cell.result.amat_cycles, cl.unfairness, worst.device, worst.slowdown
            );
        }
    }

    let doc = render(len, &windows, &rows);
    json::validate(&doc).expect("contention emitted malformed JSON");
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &doc).expect("write contention JSON");
    eprintln!("wrote {out_path}");
}

/// The sweep's cells: per app, one open-loop reference cell, then one
/// closed-loop cell per window. Cells are independent, so the parallel
/// runner fans them out.
fn jobs(kind: PrefetcherKind, apps: &[AppId], windows: &[usize], len: usize) -> Vec<Job> {
    apps.iter()
        .flat_map(|&app| {
            std::iter::once(Job::grid_cell(app, kind, len)).chain(
                windows
                    .iter()
                    .map(move |&w| Job::grid_cell(app, kind, len).traffic(TrafficConfig::new(w))),
            )
        })
        .collect()
}

/// The `--check` predicate: the document must be well-formed JSON whose
/// top-level `schema` is `planaria-contention-v1`, with `windows` and
/// `apps` arrays.
fn check_doc(text: &str) -> Result<String, String> {
    let doc = cli::parse_schema(text, "planaria-contention-v1")?;
    let array =
        |key: &str| doc.get(key).and_then(|v| v.as_array()).ok_or(format!("missing {key:?} array"));
    let (windows, apps) = (array("windows")?, array("apps")?);
    Ok(format!(
        "well-formed planaria-contention-v1 JSON ({} apps x {} windows)",
        apps.len(),
        windows.len()
    ))
}

/// Renders the sweep document (fixed key order, so diffs are clean).
fn render(len: usize, windows: &[usize], rows: &[(&AppId, &[Cell])]) -> String {
    let mut w = json::Writer::pretty();
    w.begin_object();
    w.key("schema");
    w.string("planaria-contention-v1");
    w.key("len_per_app");
    w.u64(len as u64);
    w.key("windows");
    w.begin_array();
    for &win in windows {
        w.u64(win as u64);
    }
    w.end_array();
    w.key("apps");
    w.begin_array();
    for (app, cells) in rows {
        let open = &cells[0];
        w.begin_object();
        w.key("app");
        w.string(app.abbr());
        w.key("open_loop");
        w.begin_object();
        w.key("amat_cycles");
        w.f64(open.result.amat_cycles, 3);
        w.key("hit_rate");
        w.f64(open.result.hit_rate, 6);
        w.end_object();
        w.key("closed_loop");
        w.begin_array();
        for cell in &cells[1..] {
            let cl = cell.closed_loop.as_ref().expect("closed-loop cell");
            w.begin_object();
            w.key("window");
            w.u64(cl.window as u64);
            w.key("amat_cycles");
            w.f64(cell.result.amat_cycles, 3);
            w.key("unfairness");
            w.f64(cl.unfairness, 6);
            w.key("devices");
            w.begin_array();
            for d in &cl.devices {
                w.begin_inline_object();
                w.key("device");
                w.string(&d.device.to_string());
                w.key("accesses");
                w.u64(d.accesses);
                w.key("open_loop_finish");
                w.u64(d.open_loop_finish);
                w.key("derived_finish");
                w.u64(d.derived_finish);
                w.key("slowdown");
                w.f64(d.slowdown, 6);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_requires_the_top_level_schema() {
        let nested =
            r#"{"schema": "planaria-serve-v1", "apps": [{"schema": "planaria-contention-v1"}]}"#;
        assert!(check_doc(nested).expect_err("nested schema").contains("unexpected schema"));
        let no_arrays = r#"{"schema": "planaria-contention-v1", "windows": 2}"#;
        assert!(check_doc(no_arrays).expect_err("windows not an array").contains("windows"));
    }

    #[test]
    fn check_accepts_a_compact_document() {
        let compact =
            r#"{"schema":"planaria-contention-v1","len_per_app":400,"windows":[2],"apps":[]}"#;
        let summary = check_doc(compact).expect("a compact document is well-formed");
        assert!(summary.contains("0 apps x 1 windows"), "{summary}");
    }

    #[test]
    fn check_survives_every_bit_flip_and_truncation() {
        let (app, windows, len) = (AppId::HoK, [2], 400);
        let report = Runner::new(1).run(jobs(PrefetcherKind::Planaria, &[app], &windows, len));
        let doc = render(len, &windows, &[(&app, &report.cells[..])]);
        let rejected = cli::sweep_mutants(&doc, check_doc).expect("sweep");
        assert!(rejected > 0, "no bit flip was rejected");
    }
}
