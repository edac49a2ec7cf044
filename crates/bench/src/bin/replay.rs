//! `replay` — run Planaria through the streamed engine and record what
//! it cost.
//!
//! Synthesizes every Table 2 app at `--len` accesses chunk-at-a-time, or
//! replays one packed `planaria-trace-v1` file (`--trace`, see
//! `TRACE_FORMAT.md`), on a single thread, and writes a
//! `planaria-perf-stream-v1` document: throughput, result fingerprint and
//! resident-set size per row, plus the process's peak RSS. No full-trace
//! `Vec` is built on this path, so memory stays flat however long the
//! input is; `--check` validates a written document. Throughput across
//! code changes is measured by the `perfbench/` benchmark, not here.
//!
//! ```sh
//! cargo run --release -p planaria-bench --bin replay -- [--len N | --trace F] [--verify] [--out F]
//! cargo run --release -p planaria-bench --bin replay -- --check F
//! ```

#![allow(clippy::disallowed_methods)]

use std::fs::File;
use std::io::BufReader;
use std::time::Instant;

use planaria_bench::{cli, proc_status_kb};
use planaria_common::json::{self, Value};
use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::{MemorySystem, SimResult, SystemConfig};
use planaria_trace::apps::{profile, AppId};
use planaria_trace::io::{read_chunked, ChunkedTraceReader};

/// One-line usage summary (stderr on `--help` and on argument errors).
const USAGE: &str = "usage: replay [--len N | --trace FILE] [--verify] [--out FILE] | --check FILE";

/// Reports a usage error and exits 2 (never returns).
fn fail(msg: String) -> ! {
    cli::usage_error(USAGE, msg)
}

/// Reports a failed run or check and exits 1 (never returns).
fn die(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Default accesses per synthesized application.
const DEFAULT_LEN: usize = 200_000;

/// Default output document.
const DEFAULT_OUT: &str = "target/replay.json";

fn main() {
    let mut len = None;
    let mut trace_path: Option<String> = None;
    let mut verify = false;
    let mut out_path = String::from(DEFAULT_OUT);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--len" => {
                len = Some(cli::positive_count("--len", args.next()).unwrap_or_else(|e| fail(e)));
            }
            "--trace" => {
                trace_path =
                    Some(cli::value_of("--trace", args.next()).unwrap_or_else(|e| fail(e)));
            }
            "--verify" => verify = true,
            "--out" => out_path = cli::value_of("--out", args.next()).unwrap_or_else(|e| fail(e)),
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
    if len.is_some() && trace_path.is_some() {
        fail("--len and --trace are mutually exclusive".into());
    }
    replay(len.unwrap_or(DEFAULT_LEN), trace_path.as_deref(), verify, &out_path);
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

/// Opens the packed `--trace` file.
fn open_packed(path: &str) -> BufReader<File> {
    BufReader::new(File::open(path).unwrap_or_else(|e| die(format!("--trace: open {path}: {e}"))))
}

/// Runs the Planaria prefetcher through the streamed engine —
/// synthesizing every Table 2 app at `len` chunk-at-a-time, or replaying
/// a packed `trace_path` file — and records throughput, result
/// fingerprints and the resident-set size per row. The recorded `rss_kb`
/// per row and the document's `vm_hwm_kb` are the evidence that memory
/// stayed flat.
///
/// `verify` additionally runs each workload through the materialized
/// engine (this *does* build the trace in memory — use a small `--len`)
/// and exits non-zero unless the two results are bit-identical.
fn replay(len: usize, trace_path: Option<&str>, verify: bool, out_path: &str) {
    let kind = PrefetcherKind::Planaria;
    let sys = || MemorySystem::new(SystemConfig::default(), kind.build());
    let verify_against = |streamed: &SimResult, materialized: &SimResult| {
        if streamed != materialized {
            die(format!(
                "--verify FAILED for {}: streamed fingerprint {:#018x} != materialized {:#018x}",
                streamed.workload,
                streamed.fingerprint(),
                materialized.fingerprint()
            ));
        }
        eprintln!("  {:<6} verified: streamed == materialized", streamed.workload);
    };
    let row = |r: &SimResult, secs| StreamRow {
        name: r.workload.clone(),
        accesses: r.accesses,
        secs,
        fingerprint: r.fingerprint(),
        rss_kb: proc_status_kb("VmRSS"),
    };

    let mut rows: Vec<StreamRow> = Vec::new();
    match trace_path {
        Some(path) => {
            eprintln!("replay: {path} (Planaria, 1 thread)");
            let mut reader = ChunkedTraceReader::new(open_packed(path))
                .unwrap_or_else(|e| die(format!("--trace: {path}: {e}")));
            let t0 = Instant::now();
            let r = sys().run_stream(&mut reader);
            let secs = t0.elapsed().as_secs_f64();
            if verify {
                let trace = read_chunked(open_packed(path))
                    .unwrap_or_else(|e| die(format!("--verify: {path}: {e}")));
                verify_against(&r, &sys().run_stream(&mut trace.stream()));
            }
            rows.push(row(&r, secs));
        }
        None => {
            eprintln!("replay: {} apps x Planaria, {len} accesses/app, 1 thread", AppId::ALL.len());
            for app in AppId::ALL {
                let spec = profile(app).scaled(len);
                let t0 = Instant::now();
                let r = sys().run_stream(&mut spec.stream());
                let secs = t0.elapsed().as_secs_f64();
                if verify {
                    verify_against(&r, &sys().run_stream(&mut spec.build().stream()));
                }
                rows.push(row(&r, secs));
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
    json::validate(&doc).expect("replay emitted malformed JSON");
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        std::fs::create_dir_all(dir).expect("create the output directory");
    }
    std::fs::write(out_path, &doc).expect("write stream measurement");
    eprintln!("wrote {out_path}");
}

/// Renders the measurement document (fixed key order, so diffs are clean).
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
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(format!("--check: cannot read {path}: {e}")));
    match check_doc(&text) {
        Ok(summary) => println!("{path}: {summary}"),
        Err(e) => die(format!("{path}: {e}")),
    }
}

/// The `--check` predicate: the document must be well-formed
/// `planaria-perf-stream-v1` JSON, every row must carry a numeric access
/// count and a parseable 64-bit fingerprint, and a run that recorded
/// `"verified": false` is rejected outright — it means the streamed result
/// diverged from the materialized oracle.
fn check_doc(text: &str) -> Result<String, String> {
    let doc = json::parse(text).map_err(|e| format!("malformed JSON: {e}"))?;
    match doc.get("schema").and_then(|v| v.as_str()) {
        Some("planaria-perf-stream-v1") => {}
        Some(other) => {
            return Err(format!("unexpected schema {other:?} (want planaria-perf-stream-v1)"))
        }
        None => return Err("missing \"schema\" key".into()),
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_rejects_malformed_and_misschemaed_documents() {
        assert!(check_doc("{").expect_err("truncated").contains("malformed"));
        assert!(check_doc("{\"schema\": \"planaria-contention-v1\"}")
            .expect_err("wrong schema")
            .contains("unexpected schema"));
        assert!(check_doc("{\"x\": 1}").expect_err("no schema").contains("missing"));
    }

    fn stream_rows() -> Vec<StreamRow> {
        let row = |name: &str, secs, fingerprint, rss_kb| StreamRow {
            name: name.into(),
            accesses: 200_000,
            secs,
            fingerprint,
            rss_kb,
        };
        vec![
            row("HoK", 0.25, 0x0123_4567_89ab_cdef, Some(10_240)),
            row("Cfm", 0.30, 0xfeed_face_cafe_f00d, None),
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
