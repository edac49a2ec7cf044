//! Performance baseline — single-thread simulation throughput.
//!
//! Runs the Figure 8 grid (all Table 2 apps × the figure prefetcher set)
//! serially, reports accesses/second per prefetcher kind, and writes the
//! measurement to `BENCH_perf.json` so every PR extends the repository's
//! performance trajectory. The recorded pre-optimization reference
//! (`BASELINE_*` below) was measured on this machine at the commit named
//! in the JSON; the emitted file carries both numbers.
//!
//! ```sh
//! cargo run --release -p planaria-bench --bin perf_baseline [--len N] [--repeats N] [--out F]
//! cargo run --release -p planaria-bench --bin perf_baseline -- --check F
//! ```
//!
//! Trace synthesis is excluded from the timings: every trace is built
//! before its cells are measured, exactly like the parallel runner's
//! shared trace cache. The whole grid is timed in `--repeats` interleaved
//! rounds and each (kind, app) cell keeps its **minimum** — on a shared
//! machine the min over spread-out samples estimates the noise floor
//! (what the code costs), while a single sample measures whatever else
//! the host happened to be doing.

#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use planaria_bench::cli;
use planaria_common::json::{self, Value};
use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::{MemorySystem, SimResult, SystemConfig};
use planaria_trace::apps::{profile, AppId};
use planaria_trace::io::ChunkedTraceReader;

/// One-line usage summary (stderr on `--help` and on argument errors).
const USAGE: &str = "usage: perf_baseline [--len N] [--repeats N] [--out FILE] \
                     | --stream [--len N] [--trace FILE] [--verify] [--out FILE] | --check FILE";

/// Reports a usage error and exits 2 (never returns).
fn fail(msg: String) -> ! {
    cli::usage_error(USAGE, msg)
}

/// Default accesses per application trace (kept small enough for CI).
const DEFAULT_LEN: usize = 200_000;

/// Default timing repeats per cell (minimum kept).
const DEFAULT_REPEATS: usize = 5;

/// Commit of the recorded pre-optimization reference measurement.
const BASELINE_COMMIT: &str = "3191706";

/// `--len` the reference measurement was taken at.
const BASELINE_LEN: usize = 200_000;

/// Pre-optimization accesses/second per kind (single thread, this
/// machine, commit [`BASELINE_COMMIT`]), plus the all-kinds total.
const BASELINE_APS: [(&str, f64); 5] = [
    ("None", 1_518_535.0),
    ("BOP", 1_474_618.0),
    ("SPP", 1_318_307.0),
    ("Planaria", 1_014_356.0),
    ("total", 1_298_252.0),
];

fn main() {
    let mut len = DEFAULT_LEN;
    let mut repeats = DEFAULT_REPEATS;
    let mut out_path: Option<String> = None;
    let mut stream = false;
    let mut trace_path: Option<String> = None;
    let mut verify = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--len" => {
                len = cli::positive_count("--len", args.next()).unwrap_or_else(|e| fail(e));
            }
            "--repeats" => {
                repeats = cli::positive_count("--repeats", args.next()).unwrap_or_else(|e| fail(e));
            }
            "--out" => {
                out_path = Some(cli::value_of("--out", args.next()).unwrap_or_else(|e| fail(e)));
            }
            "--stream" => stream = true,
            "--trace" => {
                trace_path =
                    Some(cli::value_of("--trace", args.next()).unwrap_or_else(|e| fail(e)));
            }
            "--verify" => verify = true,
            "--check" => {
                let path = cli::value_of("--check", args.next()).unwrap_or_else(|e| fail(e));
                check(&path);
                return;
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other => fail(format!("unknown argument {other:?}")),
        }
    }
    if stream {
        let out = out_path.unwrap_or_else(|| String::from("BENCH_perf_stream.json"));
        stream_mode(len, trace_path.as_deref(), verify, &out);
        return;
    }
    if trace_path.is_some() || verify {
        fail("--trace/--verify only apply to --stream mode".into());
    }
    let out_path = out_path.unwrap_or_else(|| String::from("BENCH_perf.json"));

    let kinds = PrefetcherKind::FIGURE_SET;
    let apps = AppId::ALL;
    eprintln!(
        "perf_baseline: {} apps x {} kinds, {len} accesses/app, 1 thread, min of {repeats}",
        apps.len(),
        4
    );

    let traces: Vec<_> = apps.iter().map(|&a| profile(a).scaled(len).build()).collect();
    // One untimed warm-up cell so lazy init (page faults, allocator pools)
    // doesn't land in the first measured kind.
    MemorySystem::new(SystemConfig::default(), kinds[0].build())
        .run_stream(&mut traces[0].stream());

    // Repeats are interleaved as whole-grid rounds (not back-to-back per
    // cell): a multi-second load burst on a shared host then has to recur
    // in *every* round to bias a cell's minimum, instead of swallowing all
    // of one cell's samples at once.
    let mut cell_secs = vec![f64::INFINITY; kinds.len() * traces.len()];
    let mut cell_accesses = vec![0u64; kinds.len() * traces.len()];
    for _round in 0..repeats {
        for (ki, kind) in kinds.iter().enumerate() {
            for (ti, trace) in traces.iter().enumerate() {
                let sys = MemorySystem::new(SystemConfig::default(), kind.build());
                let t0 = Instant::now();
                let r = sys.run_stream(&mut trace.stream());
                let secs = t0.elapsed().as_secs_f64();
                let cell = ki * traces.len() + ti;
                cell_secs[cell] = cell_secs[cell].min(secs);
                cell_accesses[cell] = r.accesses;
            }
        }
    }

    let mut rows: Vec<(&str, u64, f64)> = Vec::new();
    let mut total_accesses = 0u64;
    let mut total_secs = 0.0f64;
    for (ki, kind) in kinds.iter().enumerate() {
        let cells = ki * traces.len()..(ki + 1) * traces.len();
        let accesses: u64 = cell_accesses[cells.clone()].iter().sum();
        let secs: f64 = cell_secs[cells].iter().sum();
        eprintln!(
            "  {:<10} {:>9.0} accesses/s  ({secs:.2}s)",
            kind.label(),
            accesses as f64 / secs
        );
        rows.push((kind.label(), accesses, secs));
        total_accesses += accesses;
        total_secs += secs;
    }
    let total_aps = total_accesses as f64 / total_secs;
    eprintln!("  {:<10} {:>9.0} accesses/s  ({total_secs:.2}s)", "total", total_aps);

    let doc = render(len, &rows, total_accesses, total_secs);
    json::validate(&doc).expect("perf_baseline emitted malformed JSON");
    std::fs::write(&out_path, &doc).expect("write BENCH_perf.json");
    eprintln!("wrote {out_path}");
    let baseline_total = BASELINE_APS.iter().find(|(k, _)| *k == "total").map(|(_, v)| *v);
    if let Some(b) = baseline_total.filter(|&b| b > 0.0 && len == BASELINE_LEN) {
        eprintln!("speedup vs {BASELINE_COMMIT} baseline: {:.2}x", total_aps / b);
    }
}

/// One measured streamed run.
struct StreamRow {
    name: String,
    accesses: u64,
    secs: f64,
    fingerprint: u64,
    /// Resident set size (kB) sampled right after the run.
    rss_kb: Option<u64>,
}

/// Reads a field like `VmRSS` or `VmHWM` from `/proc/self/status`, in kB
/// (`None` off Linux).
fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Opens a packed `planaria-trace-v1` file as a replay stream.
fn open_packed(path: &str) -> ChunkedTraceReader<std::io::BufReader<std::fs::File>> {
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("--trace: cannot open {path}: {e}");
        std::process::exit(1);
    });
    ChunkedTraceReader::new(std::io::BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("--trace: {path}: {e}");
        std::process::exit(1);
    })
}

/// `--stream` mode: run the Planaria prefetcher through the streamed
/// engine — synthesizing every Table 2 app at `--len` chunk-at-a-time, or
/// replaying a packed `--trace` file — and record throughput, result
/// fingerprints and the resident-set size per row. No full-trace `Vec` is
/// ever built on this path, so steady-state memory is flat no matter how
/// large `--len` is; the recorded `rss_kb` per row is the evidence.
///
/// `--verify` additionally runs each workload through the materialized
/// engine (this *does* build the trace in memory — use a small `--len`)
/// and exits non-zero unless the two results are bit-identical.
fn stream_mode(len: usize, trace_path: Option<&str>, verify: bool, out_path: &str) {
    let kind = PrefetcherKind::Planaria;
    let sys = || MemorySystem::new(SystemConfig::default(), kind.build());
    let verify_against = |streamed: &SimResult, materialized: &SimResult| {
        if streamed != materialized {
            eprintln!(
                "--verify FAILED for {}: streamed fingerprint {:#018x} != materialized {:#018x}",
                streamed.workload,
                streamed.fingerprint(),
                materialized.fingerprint()
            );
            std::process::exit(1);
        }
        eprintln!("  {:<6} verified: streamed == materialized", streamed.workload);
    };

    let mut rows: Vec<StreamRow> = Vec::new();
    match trace_path {
        Some(path) => {
            eprintln!("perf_baseline --stream: replaying {path} (Planaria, 1 thread)");
            let mut reader = open_packed(path);
            let t0 = Instant::now();
            let r = sys().run_stream(&mut reader);
            let secs = t0.elapsed().as_secs_f64();
            if verify {
                let trace = planaria_trace::io::read_chunked(std::io::BufReader::new(
                    std::fs::File::open(path).expect("re-open packed trace"),
                ))
                .unwrap_or_else(|e| {
                    eprintln!("--verify: {path}: {e}");
                    std::process::exit(1);
                });
                verify_against(&r, &sys().run_stream(&mut trace.stream()));
            }
            rows.push(StreamRow {
                name: r.workload.clone(),
                accesses: r.accesses,
                secs,
                fingerprint: r.fingerprint(),
                rss_kb: proc_status_kb("VmRSS"),
            });
        }
        None => {
            eprintln!(
                "perf_baseline --stream: {} apps x Planaria, {len} accesses/app, 1 thread",
                AppId::ALL.len()
            );
            for app in AppId::ALL {
                let spec = profile(app).scaled(len);
                let t0 = Instant::now();
                let r = sys().run_stream(&mut spec.stream());
                let secs = t0.elapsed().as_secs_f64();
                if verify {
                    verify_against(&r, &sys().run_stream(&mut spec.build().stream()));
                }
                rows.push(StreamRow {
                    name: r.workload.clone(),
                    accesses: r.accesses,
                    secs,
                    fingerprint: r.fingerprint(),
                    rss_kb: proc_status_kb("VmRSS"),
                });
            }
        }
    }

    for row in &rows {
        eprintln!(
            "  {:<6} {:>9.0} accesses/s  fingerprint {:#018x}  rss {}",
            row.name,
            row.accesses as f64 / row.secs,
            row.fingerprint,
            row.rss_kb.map_or_else(|| "n/a".into(), |kb| format!("{:.1} MB", kb as f64 / 1024.0)),
        );
    }

    let doc = render_stream(len, trace_path, &rows, verify.then_some(true));
    json::validate(&doc).expect("perf_baseline emitted malformed JSON");
    std::fs::write(out_path, &doc).expect("write stream measurement");
    eprintln!("wrote {out_path}");
}

/// Renders the `--stream` measurement document (fixed key order).
fn render_stream(
    len: usize,
    trace_path: Option<&str>,
    rows: &[StreamRow],
    verified: Option<bool>,
) -> String {
    let mut w = json::Writer::pretty();
    w.begin_object();
    w.key("schema");
    w.string("planaria-perf-stream-v1");
    w.key("prefetcher");
    w.string(PrefetcherKind::Planaria.label());
    w.key("mode");
    w.string(if trace_path.is_some() { "replay" } else { "synth" });
    w.key("len_per_app");
    match trace_path {
        Some(_) => w.null(),
        None => w.u64(len as u64),
    }
    w.key("trace");
    match trace_path {
        Some(p) => w.string(p),
        None => w.null(),
    }
    w.key("rows");
    w.begin_object();
    for row in rows {
        w.key(&row.name);
        w.begin_object();
        w.key("accesses");
        w.u64(row.accesses);
        w.key("seconds");
        w.f64(row.secs, 3);
        w.key("accesses_per_sec");
        w.f64(row.accesses as f64 / row.secs, 0);
        w.key("fingerprint");
        w.string(&format!("{:#018x}", row.fingerprint));
        w.key("rss_kb");
        match row.rss_kb {
            Some(kb) => w.u64(kb),
            None => w.null(),
        }
        w.end_object();
    }
    w.end_object();
    w.key("verified");
    match verified {
        Some(v) => w.bool(v),
        None => w.null(),
    }
    w.key("vm_hwm_kb");
    match proc_status_kb("VmHWM") {
        Some(kb) => w.u64(kb),
        None => w.null(),
    }
    w.end_object();
    w.finish()
}

/// Validates a previously written file; exits non-zero on bad JSON or an
/// internally inconsistent measurement.
fn check(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("--check: cannot read {path}: {e}");
        std::process::exit(1);
    });
    match check_doc(&text) {
        Ok(summary) => println!("{path}: {summary}"),
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}

/// The `--check` predicate: the document must be well-formed
/// `planaria-perf-v1` JSON, and — whenever a baseline block is recorded —
/// the measurement's `len_per_app` must match the baseline's, because the
/// emitted `speedup_total` compares the two directly and a `--len`
/// mismatch silently turns it into a fiction (shorter traces spend
/// proportionally more time in warmup-phase table misses).
fn check_doc(text: &str) -> Result<String, String> {
    let doc = json::parse(text).map_err(|e| format!("malformed JSON: {e}"))?;
    match doc.get("schema").and_then(|v| v.as_str()) {
        Some("planaria-perf-v1") => check_perf_doc(&doc),
        Some("planaria-perf-stream-v1") => check_stream_doc(&doc),
        Some(other) => Err(format!(
            "unexpected schema {other:?} (want planaria-perf-v1 or planaria-perf-stream-v1)"
        )),
        None => Err("missing \"schema\" key".into()),
    }
}

/// `planaria-perf-v1` branch of [`check_doc`].
fn check_perf_doc(doc: &Value) -> Result<String, String> {
    let len =
        doc.get("len_per_app").and_then(|v| v.as_f64()).ok_or("missing numeric \"len_per_app\"")?;
    let baseline = doc.get("baseline").ok_or("missing \"baseline\" key")?;
    if let Some(base_len) = baseline.get("len_per_app").and_then(|v| v.as_f64()) {
        if base_len != len {
            return Err(format!(
                "len_per_app mismatch: measurement ran --len {len:.0} but the recorded \
                 baseline was taken at --len {base_len:.0}; the speedup comparison is \
                 invalid (re-run without --len, or at --len {base_len:.0})"
            ));
        }
    }
    Ok(format!("well-formed planaria-perf-v1 measurement (len_per_app {len:.0})"))
}

/// `planaria-perf-stream-v1` branch of [`check_doc`]: every row must carry
/// a numeric access count and a parseable 64-bit fingerprint, and a run
/// that recorded `"verified": false` is rejected outright — it means the
/// streamed result diverged from the materialized oracle.
fn check_stream_doc(doc: &Value) -> Result<String, String> {
    let rows = doc.get("rows").and_then(|v| v.as_object()).ok_or("missing \"rows\" object")?;
    if rows.is_empty() {
        return Err("\"rows\" is empty: no workload was measured".into());
    }
    for (name, row) in rows {
        row.get("accesses")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("row {name:?}: missing numeric \"accesses\""))?;
        let fp = row
            .get("fingerprint")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("row {name:?}: missing \"fingerprint\" string"))?;
        let hex = fp
            .strip_prefix("0x")
            .filter(|h| h.len() == 16)
            .ok_or_else(|| format!("row {name:?}: fingerprint {fp:?} is not 0x + 16 hex digits"))?;
        u64::from_str_radix(hex, 16)
            .map_err(|_| format!("row {name:?}: fingerprint {fp:?} is not valid hex"))?;
    }
    if matches!(doc.get("verified"), Some(Value::Bool(false))) {
        return Err("\"verified\" is false: streamed run diverged from materialized".into());
    }
    Ok(format!("well-formed planaria-perf-stream-v1 measurement ({} rows)", rows.len()))
}

/// Renders the measurement document (fixed key order, so diffs are clean).
fn render(len: usize, rows: &[(&str, u64, f64)], total_accesses: u64, total_secs: f64) -> String {
    let mut w = json::Writer::pretty();
    w.begin_object();
    w.key("schema");
    w.string("planaria-perf-v1");
    w.key("grid");
    w.string("fig8");
    w.key("threads");
    w.u64(1);
    w.key("len_per_app");
    w.u64(len as u64);
    w.key("apps");
    w.u64(AppId::ALL.len() as u64);

    w.key("baseline");
    if BASELINE_APS.iter().all(|(_, v)| *v > 0.0) {
        w.begin_object();
        w.key("commit");
        w.string(BASELINE_COMMIT);
        w.key("len_per_app");
        w.u64(BASELINE_LEN as u64);
        w.key("accesses_per_sec");
        w.begin_object();
        for (kind, aps) in BASELINE_APS {
            w.key(kind);
            w.f64(aps, 0);
        }
        w.end_object();
        w.end_object();
    } else {
        w.null();
    }

    let total_aps = total_accesses as f64 / total_secs;
    w.key("current");
    w.begin_object();
    w.key("accesses_per_sec");
    w.begin_object();
    for (kind, accesses, secs) in rows {
        w.key(kind);
        w.f64(*accesses as f64 / secs, 0);
    }
    w.key("total");
    w.f64(total_aps, 0);
    w.end_object();
    w.key("total_accesses");
    w.u64(total_accesses);
    w.key("total_seconds");
    w.f64(total_secs, 3);
    w.end_object();

    w.key("speedup_total");
    let baseline_total = BASELINE_APS.iter().find(|(k, _)| *k == "total").map(|(_, v)| *v);
    match baseline_total.filter(|&b| b > 0.0 && len == BASELINE_LEN) {
        Some(b) => w.f64(total_aps / b, 3),
        None => w.null(),
    }
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<(&'static str, u64, f64)> {
        vec![("None", 1000, 0.5), ("Planaria", 1000, 1.0)]
    }

    #[test]
    fn rendered_doc_at_baseline_len_passes_check() {
        let doc = render(BASELINE_LEN, &rows(), 2000, 1.5);
        let msg = check_doc(&doc).expect("fresh measurement must pass its own check");
        assert!(msg.contains("planaria-perf-v1"), "{msg}");
    }

    #[test]
    fn check_rejects_len_mismatch_against_recorded_baseline() {
        // A measurement taken at a different --len than the committed
        // baseline must fail --check with an actionable message, not slip
        // through as a bogus speedup.
        let doc = render(BASELINE_LEN / 2, &rows(), 2000, 1.5);
        let err = check_doc(&doc).expect_err("len mismatch must fail");
        assert!(err.contains("len_per_app mismatch"), "{err}");
        assert!(err.contains("re-run"), "message must say how to fix it: {err}");
    }

    #[test]
    fn check_rejects_malformed_and_misschemaed_documents() {
        assert!(check_doc("{").expect_err("truncated").contains("malformed"));
        assert!(check_doc("{\"schema\": \"planaria-contention-v1\"}")
            .expect_err("wrong schema")
            .contains("unexpected schema"));
        assert!(check_doc("{\"x\": 1}").expect_err("no schema").contains("missing"));
    }

    fn stream_rows() -> Vec<StreamRow> {
        vec![
            StreamRow {
                name: "HoK".into(),
                accesses: 200_000,
                secs: 0.25,
                fingerprint: 0x0123_4567_89ab_cdef,
                rss_kb: Some(10_240),
            },
            StreamRow {
                name: "Cfm".into(),
                accesses: 200_000,
                secs: 0.30,
                fingerprint: 0xfeed_face_cafe_f00d,
                rss_kb: None,
            },
        ]
    }

    #[test]
    fn rendered_stream_doc_passes_check() {
        let doc = render_stream(200_000, None, &stream_rows(), Some(true));
        json::validate(&doc).expect("stream doc must be well-formed JSON");
        let msg = check_doc(&doc).expect("fresh stream measurement must pass its own check");
        assert!(msg.contains("planaria-perf-stream-v1"), "{msg}");
        assert!(msg.contains("2 rows"), "{msg}");
    }

    #[test]
    fn stream_check_rejects_bad_fingerprints_and_failed_verification() {
        let good = render_stream(200_000, None, &stream_rows(), Some(true));
        // A fingerprint that is not 0x + 16 hex digits must fail.
        let bad_fp = good.replace("0x0123456789abcdef", "0xnot-a-fingerprint");
        assert!(check_doc(&bad_fp).expect_err("bad fingerprint").contains("fingerprint"));
        // A run that recorded a streamed/materialized divergence must fail.
        let unverified = render_stream(200_000, None, &stream_rows(), Some(false));
        assert!(check_doc(&unverified).expect_err("verified: false").contains("diverged"));
        // No rows measured at all must fail.
        assert!(check_doc("{\"schema\": \"planaria-perf-stream-v1\", \"rows\": {}}")
            .expect_err("empty rows")
            .contains("empty"));
    }
}
