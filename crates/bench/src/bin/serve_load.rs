//! Service load harness — many concurrent device sessions through
//! `planaria-serve`.
//!
//! Spins up `--devices` snapshottable device state machines (Table 2
//! apps round-robin, per-device seeds), serves them to completion over
//! the sharded round scheduler, and reports sustained decisions/sec plus
//! p50/p99 per-decision wall-clock latency in a `planaria-serve-v1` JSON
//! document. The serving library itself never reads a clock (invariant
//! R2); all timing here rides the [`ShardObserver`] hooks from outside.
//!
//! ```sh
//! cargo run --release -p planaria-bench --bin serve_load -- \
//!     [--devices N] [--len N] [--shards N] [--workers N] [--quantum N] [--out FILE]
//! cargo run --release -p planaria-bench --bin serve_load -- --check FILE
//! ```
//!
//! `--quantum` is the pump quantum: driver iterations per device turn
//! (`ServeConfig::pump_quantum`, default 4096). Each turn pulls at most
//! one chunk of the device's `mailbox` (256) accesses either way.

#![allow(clippy::disallowed_methods)]

use std::sync::{Arc, Mutex};
use std::time::Instant;

use planaria_bench::{cli, proc_status_kb};
use planaria_cache::CacheConfig;
use planaria_common::json;
use planaria_serve::{DeviceSpec, ServeConfig, ServedDevice, Service, ShardObserver};
use planaria_sim::{PrefetcherKind, SystemConfig};
use planaria_trace::apps::AppId;

/// One-line usage summary (stderr on `--help` and on argument errors).
const USAGE: &str = "usage: serve_load [--devices N] [--len N] [--shards N] [--workers N] \
                     [--quantum N (pump iterations per device turn)] [--kind LABEL] \
                     [--out FILE] | --check FILE";

/// Reports a usage error and exits 2 (never returns).
fn fail(msg: String) -> ! {
    cli::usage_error(USAGE, msg)
}

/// Defaults sized so the CI gate (`--devices 100000`) finishes on one
/// core while still holding every session live at once.
const DEFAULT_DEVICES: usize = 100_000;
const DEFAULT_LEN: usize = 100;

/// Wall-clock latency of serving decisions, folded into power-of-two
/// buckets of nanoseconds-per-injected-access. Each pump turn with `n`
/// injections contributes `n` samples to the bucket of its mean
/// per-decision latency, so percentiles are over *decisions*, not turns.
#[derive(Debug, Clone)]
struct Histogram {
    buckets: [u64; 64],
}

impl Histogram {
    fn new() -> Self {
        Self { buckets: [0; 64] }
    }

    fn record(&mut self, ns_per_decision: u64, weight: u64) {
        let bucket = (64 - ns_per_decision.leading_zeros()).min(63) as usize;
        self.buckets[bucket] += weight;
    }

    fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets) {
            *a += b;
        }
    }

    /// Upper bound (ns) of the bucket holding the q-quantile decision.
    fn quantile_ns(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << 63
    }
}

/// Per-shard observer: times each device's pump turn and banks the
/// per-decision latency; merges into the shared histogram when the shard
/// finishes (observers are per-shard, so the mutex is uncontended).
struct LatencyObserver {
    local: Histogram,
    started: Option<Instant>,
    shared: Arc<Mutex<Histogram>>,
}

impl ShardObserver for LatencyObserver {
    fn pump_started(&mut self, _device: u64) {
        self.started = Some(Instant::now());
    }

    fn pump_finished(&mut self, _device: u64, injected: u64) {
        let Some(t0) = self.started.take() else { return };
        if injected == 0 {
            return;
        }
        let ns = t0.elapsed().as_nanos() as u64;
        self.local.record((ns / injected).max(1), injected);
    }
}

impl Drop for LatencyObserver {
    fn drop(&mut self) {
        self.shared.lock().expect("histogram mutex").merge(&self.local);
    }
}

/// Lean per-device memory system: a 64 KiB / 8-way SC instead of the
/// paper's 8 MiB, so 100k+ concurrent devices fit comfortably in memory.
/// Everything else (DRAM model, latencies, Planaria prefetcher) is the
/// paper configuration.
fn lean_system() -> SystemConfig {
    let mut sys = SystemConfig::default();
    sys.cache = CacheConfig { size_bytes: 64 * 1024, ..sys.cache };
    sys
}

fn main() {
    let mut devices = DEFAULT_DEVICES;
    let mut len = DEFAULT_LEN;
    let mut shards = 64usize;
    let mut workers = 1usize;
    let mut quantum = 4_096usize;
    // Fleet-scale default: the same SLP+TLP+coordinator pipeline with
    // 52x less metadata storage (6,760 B vs 353,344 B), so 100k+
    // concurrent devices fit in memory (to match the 64 KiB SC).
    let mut kind = PrefetcherKind::PlanariaLean;
    let mut out_path = String::from("target/serve_load.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--devices" => {
                devices = cli::positive_count("--devices", args.next()).unwrap_or_else(|e| fail(e));
            }
            "--len" => {
                len = cli::positive_count("--len", args.next()).unwrap_or_else(|e| fail(e));
            }
            "--shards" => {
                shards = cli::positive_count("--shards", args.next()).unwrap_or_else(|e| fail(e));
            }
            "--workers" => {
                workers = cli::positive_count("--workers", args.next()).unwrap_or_else(|e| fail(e));
            }
            "--quantum" => {
                quantum = cli::positive_count("--quantum", args.next()).unwrap_or_else(|e| fail(e));
            }
            "--kind" => {
                let label = cli::value_of("--kind", args.next()).unwrap_or_else(|e| fail(e));
                kind = PrefetcherKind::from_label(&label)
                    .unwrap_or_else(|| fail(format!("unknown prefetcher label {label:?}")));
            }
            "--out" => {
                out_path = cli::value_of("--out", args.next()).unwrap_or_else(|e| fail(e));
            }
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

    eprintln!(
        "serve_load: {devices} devices x {len} accesses ({}), {shards} shards, {workers} worker(s)",
        kind.label()
    );

    // Build the whole fleet up front — the point of the harness is that
    // every session is live concurrently, not batched.
    let system = lean_system();
    let build0 = Instant::now();
    let fleet: Vec<ServedDevice> = (0..devices as u64)
        .map(|id| {
            let app = AppId::ALL[(id % AppId::ALL.len() as u64) as usize];
            let mut spec = DeviceSpec::new(id, app).scaled(len);
            spec.system = system;
            spec.kind = kind;
            // Short sessions revisit only a handful of pool pages; the
            // profiles' 6-10k-page pools exist for 30M-access traces.
            spec.pool_cap = Some(64);
            ServedDevice::from_spec(spec)
        })
        .collect();
    let build_secs = build0.elapsed().as_secs_f64();
    let rss_after_build = proc_status_kb("VmRSS");
    eprintln!(
        "  fleet built in {build_secs:.1}s, RSS {:.1} MiB",
        rss_after_build.unwrap_or(0) as f64 / 1024.0
    );

    let cfg = ServeConfig { shards, workers, pump_quantum: quantum, keep_device_reports: false };
    let shared = Arc::new(Mutex::new(Histogram::new()));
    let observer_source = Arc::clone(&shared);
    let t0 = Instant::now();
    let report = Service::new(cfg).run_observed(fleet, move |_shard| {
        Box::new(LatencyObserver {
            local: Histogram::new(),
            started: None,
            shared: Arc::clone(&observer_source),
        })
    });
    let wall_secs = t0.elapsed().as_secs_f64();

    let accesses = report.total_accesses();
    let decisions_per_sec = accesses as f64 / wall_secs.max(1e-9);
    let hist = shared.lock().expect("histogram mutex").clone();
    let p50 = hist.quantile_ns(0.50);
    let p99 = hist.quantile_ns(0.99);
    let rounds: u64 = report.shards.iter().map(|s| s.rounds).sum();
    let max_slowdown = report.shards.iter().map(|s| s.max_slowdown).fold(0.0f64, f64::max);
    let rss_kb = proc_status_kb("VmHWM").or(rss_after_build);

    assert_eq!(report.devices(), devices as u64, "every session must finish");
    assert_eq!(accesses, (devices * len) as u64, "every access must inject");

    eprintln!(
        "  {accesses} decisions in {wall_secs:.1}s = {decisions_per_sec:.0}/s, \
         p50 {p50} ns, p99 {p99} ns, peak RSS {:.1} MiB",
        rss_kb.unwrap_or(0) as f64 / 1024.0
    );

    let doc = render(
        devices,
        len,
        shards,
        workers,
        quantum,
        kind,
        accesses,
        build_secs,
        wall_secs,
        decisions_per_sec,
        p50,
        p99,
        rounds,
        max_slowdown,
        rss_kb,
    );
    json::validate(&doc).expect("serve_load emitted malformed JSON");
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &doc).expect("write serve_load JSON");
    eprintln!("wrote {out_path}");
}

/// Validates a previously written file; exits non-zero on bad JSON or a
/// structurally incomplete report.
fn check(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("--check: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let doc = match json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{path}: malformed JSON: {e}");
            std::process::exit(1);
        }
    };
    if doc.get("schema").and_then(|v| v.as_str()) != Some("planaria-serve-v1") {
        eprintln!("{path}: missing planaria-serve-v1 schema marker");
        std::process::exit(1);
    }
    for key in ["devices", "len", "shards", "workers", "accesses", "wall_secs", "decisions_per_sec"]
    {
        if doc.get(key).and_then(|v| v.as_f64()).is_none() {
            eprintln!("{path}: missing numeric field {key:?}");
            std::process::exit(1);
        }
    }
    let devices = doc.get("devices").and_then(|v| v.as_f64()).unwrap_or(0.0);
    let len = doc.get("len").and_then(|v| v.as_f64()).unwrap_or(0.0);
    let accesses = doc.get("accesses").and_then(|v| v.as_f64()).unwrap_or(0.0);
    if accesses != devices * len {
        eprintln!("{path}: accesses {accesses} != devices {devices} x len {len}");
        std::process::exit(1);
    }
    if doc.get("latency_ns").and_then(|v| v.get("p99")).and_then(|v| v.as_f64()).is_none() {
        eprintln!("{path}: missing latency_ns.p99");
        std::process::exit(1);
    }
    println!("{path}: well-formed planaria-serve-v1 JSON ({devices} devices)");
}

/// Renders the report document (fixed key order, so diffs are clean).
#[allow(clippy::too_many_arguments)]
fn render(
    devices: usize,
    len: usize,
    shards: usize,
    workers: usize,
    quantum: usize,
    kind: PrefetcherKind,
    accesses: u64,
    build_secs: f64,
    wall_secs: f64,
    decisions_per_sec: f64,
    p50: u64,
    p99: u64,
    rounds: u64,
    max_slowdown: f64,
    rss_kb: Option<u64>,
) -> String {
    let mut w = json::Writer::pretty();
    w.begin_object();
    w.key("schema");
    w.string("planaria-serve-v1");
    w.key("devices");
    w.u64(devices as u64);
    w.key("len");
    w.u64(len as u64);
    w.key("shards");
    w.u64(shards as u64);
    w.key("workers");
    w.u64(workers as u64);
    w.key("quantum");
    w.u64(quantum as u64);
    w.key("prefetcher");
    w.string(kind.label());
    w.key("accesses");
    w.u64(accesses);
    w.key("rounds");
    w.u64(rounds);
    w.key("build_secs");
    w.f64(build_secs, 3);
    w.key("wall_secs");
    w.f64(wall_secs, 3);
    w.key("decisions_per_sec");
    w.f64(decisions_per_sec, 1);
    w.key("latency_ns");
    w.begin_inline_object();
    w.key("p50");
    w.u64(p50);
    w.key("p99");
    w.u64(p99);
    w.end_object();
    w.key("max_slowdown");
    w.f64(max_slowdown, 6);
    w.key("peak_rss_kb");
    match rss_kb {
        Some(kb) => w.u64(kb),
        None => w.null(),
    }
    w.end_object();
    w.finish()
}
