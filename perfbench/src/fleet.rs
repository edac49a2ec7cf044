//! The `served-fleet` workload: thousands of lean Planaria devices served
//! closed-loop through `Service` with one worker.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use planaria_serve::{DeviceSpec, ServeConfig, ServeReport, ServedDevice, Service, ShardObserver};
use planaria_sim::{
    ClosedLoopDriver, ClosedLoopReport, MemorySystem, Pump, SimResult, TrafficConfig,
};
use planaria_trace::stream::AccessStream;

use crate::expected::{self, Checker};
use crate::layers::{LayerTotals, ServeTotals};
use crate::report::Outcome;
use crate::stats::{elapsed_ns, median, median_by_name, thread_cpu_ns, Digest, Span, Stopwatch};
use crate::workload::{self, guarded, proc_status_kb, Clock, Samples, DEFAULT_SEED, FLEET_SHARDS};
use crate::wrap::{TracedPrefetcher, TracedStream};

/// Digest of one session: its result fingerprint and closed-loop report.
fn session_digest(result: &SimResult, closed_loop: &ClosedLoopReport) -> u64 {
    let mut d = Digest::default();
    d.word(result.fingerprint());
    d.word(closed_loop.window as u64);
    d.word(closed_loop.unfairness.to_bits());
    for o in &closed_loop.devices {
        d.word(o.accesses);
        d.word(o.open_loop_finish);
        d.word(o.derived_finish);
        d.word(o.slowdown.to_bits());
    }
    d.0
}

/// The fleet digest: `(id, session digest)` folded in id order.
fn fleet_digest(sessions: &[u64]) -> u64 {
    let mut d = Digest::default();
    for (id, s) in sessions.iter().enumerate() {
        d.word(id as u64);
        d.word(*s);
    }
    d.0
}

fn config() -> ServeConfig {
    ServeConfig {
        shards: FLEET_SHARDS,
        workers: 1,
        keep_device_reports: true,
        ..Default::default()
    }
}

fn build(specs: &[DeviceSpec]) -> Vec<ServedDevice> {
    specs.iter().cloned().map(ServedDevice::from_spec).collect()
}

/// Per-turn wall time, recorded through the service's observer hooks.
struct TurnObserver {
    started: Option<Instant>,
    turns: Vec<(u64, u64)>,
    shared: Arc<Mutex<Vec<(u64, u64)>>>,
}

impl ShardObserver for TurnObserver {
    fn pump_started(&mut self, _device: u64) {
        self.started = Some(Instant::now());
    }

    fn pump_finished(&mut self, _device: u64, injected: u64) {
        if let Some(t0) = self.started.take() {
            self.turns.push((elapsed_ns(t0), injected));
        }
    }
}

/// The untraced pass's observer. Like the `NullObserver` that
/// `Service::run` uses, it does nothing per turn; it only reads the CPU
/// clock of the worker thread that owns the shard when it is built and
/// when it is dropped (both on that thread), and adds the difference into
/// `total_ns`, which becomes `None` if a reading fails.
struct CpuObserver {
    start_ns: u64,
    total_ns: Arc<Mutex<Option<u64>>>,
}

impl CpuObserver {
    fn new(total_ns: Arc<Mutex<Option<u64>>>) -> Self {
        let start_ns = thread_cpu_ns().expect("/proc/thread-self/schedstat is readable");
        Self { start_ns, total_ns }
    }
}

impl ShardObserver for CpuObserver {}

impl Drop for CpuObserver {
    fn drop(&mut self) {
        let spent = thread_cpu_ns().map(|now| now.saturating_sub(self.start_ns));
        if let Ok(mut total) = self.total_ns.lock() {
            *total = total.zip(spent).map(|(a, b)| a + b);
        }
    }
}

impl Drop for TurnObserver {
    fn drop(&mut self) {
        if let Ok(mut shared) = self.shared.lock() {
            shared.append(&mut self.turns);
        }
    }
}

/// Checks one served pass; returns the sessions' digests (id order) and
/// their mean AMAT.
fn check_served(
    report: Result<&ServeReport, &String>,
    checker: &mut Checker,
    fleet: &mut Option<u64>,
    pinned: Option<u64>,
    what: &str,
    out: &mut Outcome,
) -> f64 {
    let n = workload::FLEET_DEVICES;
    let report = match report {
        Ok(r) if r.device_reports.len() as u64 == n => r,
        Ok(r) => {
            let got = r.device_reports.len();
            out.count(n, n, || format!("{what} pass returned {got} of {n} sessions"));
            return 0.0;
        }
        Err(e) => {
            out.count(n, n, || format!("{what} pass panicked: {e}"));
            return 0.0;
        }
    };
    let mut digests = Vec::with_capacity(report.device_reports.len());
    let mut bad = Vec::new();
    for (i, d) in report.device_reports.iter().enumerate() {
        let digest = session_digest(&d.result, &d.closed_loop);
        digests.push(digest);
        let verdict = if d.id != i as u64 || d.result.accesses != workload::SESSION_LEN as u64 {
            Err(format!("{what} session {}: {} accesses", d.id, d.result.accesses))
        } else {
            checker.check(i, digest, what)
        };
        if let Err(e) = verdict {
            bad.push(e);
        }
    }
    let digest = fleet_digest(&digests);
    *fleet = Some(digest);
    if let Some(p) = pinned.filter(|&p| p != digest) {
        out.count(n, n, || {
            format!(
                "{what} fleet digest {} != pinned {} ({} sessions differ from the run's first)",
                crate::stats::hex(digest),
                crate::stats::hex(p),
                bad.len()
            )
        });
    } else {
        out.count(n, bad.len() as u64, || bad.join("; "));
    }
    let amat: f64 = report.device_reports.iter().map(|d| d.result.amat_cycles).sum();
    amat / n as f64
}

/// Runs one session outside the service: its stream through a fresh
/// memory system and closed-loop driver, as `ServedDevice` does.
fn drive(
    spec: &DeviceSpec,
    mut sys: MemorySystem,
    stream: &mut dyn AccessStream,
    sim: &mut Span,
    finish: &mut Span,
) -> (SimResult, ClosedLoopReport) {
    let mut driver = ClosedLoopDriver::new(TrafficConfig::new(spec.window));
    let mut chunk = Vec::new();
    loop {
        let t0 = Instant::now();
        let state = driver.pump(&mut sys, usize::MAX);
        sim.close(t0);
        match state {
            Pump::NeedInput => {
                if stream.next_chunk(spec.mailbox, &mut chunk) == 0 {
                    driver.close();
                }
                for a in &chunk {
                    driver.offer(a);
                }
            }
            Pump::Budget => {}
            Pump::Drained => break,
        }
    }
    if let Some(e) = stream.error() {
        panic!("device {} stream failed: {e}", spec.id);
    }
    let name = stream.name().to_string();
    let t0 = Instant::now();
    let (result, closed_loop, _) = driver.finish(sys, &name);
    finish.close(t0);
    (result, closed_loop)
}

/// Sessions re-run outside the service in an untraced run (1 in this
/// many), which must match their served digests.
const VERIFY_EVERY: usize = 50;

/// Runs `served-fleet` and returns its outcome.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let specs = workload::fleet_specs(seed);
    let labels = specs.iter().map(|s| format!("session-{}", s.id)).collect();
    let mut checker = Checker::new(labels, None);
    let pinned = (seed == DEFAULT_SEED).then_some(expected::FLEET);
    let mut fleet = None;
    let mut out = Outcome::default();
    let mut samples = Samples::default();
    let (mut traced_secs, mut layer_runs) = (Vec::new(), Vec::new());
    let mut amat = 0.0;
    let mut totals = LayerTotals::default();
    let mut rss_kb_per_device = None;

    let mut clock = Clock::new(seconds, traced);
    while clock.more() {
        let rss0 = proc_status_kb("VmRSS");
        let watch = Stopwatch::start();
        let devices = build(&specs);
        let setup_time = watch.stop();
        if rss_kb_per_device.is_none() {
            // Only the first build grows the heap; later ones reuse it.
            let grown = proc_status_kb("VmRSS").zip(rss0).map(|(a, b)| a.saturating_sub(b));
            rss_kb_per_device = Some(grown.unwrap_or(0) as f64 / specs.len() as f64);
        }
        // The pass's CPU time is the main thread's (routing, spawning and
        // joining the worker, merging reports) plus the worker's.
        let worker_ns = Arc::new(Mutex::new(Some(0)));
        let sink = Arc::clone(&worker_ns);
        let watch = Stopwatch::start();
        let report = guarded(|| {
            Service::new(config())
                .run_observed(devices, move |_| Box::new(CpuObserver::new(Arc::clone(&sink))))
        });
        let worker = *worker_ns.lock().expect("observers never panic holding the lock");
        let time = watch.stop_with(worker.expect("the worker's CPU clock is readable"));
        amat = check_served(report.as_ref(), &mut checker, &mut fleet, pinned, "served", &mut out);
        if let Ok(r) = &report {
            samples.record(setup_time, time, r.total_accesses());
        }
        clock.pass(time.wall_s);
        if !traced {
            continue;
        }

        let t0 = Instant::now();
        let devices = build(&specs);
        let build_ns = elapsed_ns(t0);
        let shared = Arc::new(Mutex::new(Vec::new()));
        let source = Arc::clone(&shared);
        let t0 = Instant::now();
        let report = guarded(|| {
            Service::new(config()).run_observed(devices, move |_| {
                Box::new(TurnObserver {
                    started: None,
                    turns: Vec::new(),
                    shared: Arc::clone(&source),
                })
            })
        });
        let wall_ns = elapsed_ns(t0);
        clock.pass(wall_ns as f64 / 1e9);
        traced_secs.push(wall_ns as f64 / 1e9);
        check_served(report.as_ref(), &mut checker, &mut fleet, pinned, "observed", &mut out);
        let serve = ServeTotals {
            wall_ns,
            accesses: report.as_ref().map_or(0, ServeReport::total_accesses),
            turns: shared.lock().map(|t| t.clone()).unwrap_or_default(),
            rounds: report.as_ref().map_or(0, |r| r.shards.iter().map(|s| s.rounds).sum()),
            build_ns,
            devices: specs.len() as u64,
        };
        drop(report);

        totals = layer_pass(&specs, &mut checker, &mut out);
        let mut m = BTreeMap::new();
        totals.metrics(&mut m);
        serve.metrics(totals.trace.ns, rss_kb_per_device.unwrap_or(0.0), &mut m);
        layer_runs.push(m);
    }

    if !traced {
        verify_sample(&specs, &mut checker, &mut out);
    }
    if let Some(d) = fleet {
        out.fingerprints.push(("fleet".into(), d));
    }
    if traced {
        for (name, v) in median_by_name(&layer_runs) {
            out.set(name, v);
        }
        out.set("traced.overhead_frac", median(&traced_secs) / samples.pass_wall_s() - 1.0);
        out.replay_hashes = totals.replay_hashes();
    } else {
        out.set("accesses_per_s", samples.rate());
        out.set("setup_s", samples.setup_s());
        out.set("sim_amat_cycles", amat);
    }
    out
}

/// The traced layer pass: every session re-run outside the service with a
/// traced stream and prefetcher, checked against its served digest, and
/// replayed layer by layer.
fn layer_pass(specs: &[DeviceSpec], checker: &mut Checker, out: &mut Outcome) -> LayerTotals {
    let mut totals = LayerTotals::default();
    let mut bad = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let (pf, slot) = TracedPrefetcher::new(spec.kind.build());
        let sys = MemorySystem::new(spec.system, Box::new(pf));
        let verdict = guarded(|| {
            let mut inner = spec.workload().stream();
            let mut stream = TracedStream::new(&mut inner);
            let (mut sim, mut finish) = (Span::default(), Span::default());
            let (result, cl) = drive(spec, sys, &mut stream, &mut sim, &mut finish);
            (result, cl, stream.span, sim, finish)
        })
        .map_err(|e| format!("layer pass session {i} panicked: {e}"))
        .and_then(|(result, cl, trace, sim, finish)| {
            checker.check(i, session_digest(&result, &cl), "layer-pass")?;
            totals.trace.absorb(trace);
            totals.sim.absorb(sim);
            totals.finish.absorb(finish);
            totals.add_run(&result, &slot, spec.kind, &spec.system)
        });
        if let Err(e) = verdict {
            bad.push(e);
        }
    }
    out.count(specs.len() as u64, bad.len() as u64, || bad.join("; "));
    totals
}

/// Re-runs every [`VERIFY_EVERY`]-th session outside the service; each
/// must match its served digest.
fn verify_sample(specs: &[DeviceSpec], checker: &mut Checker, out: &mut Outcome) {
    for (i, spec) in specs.iter().enumerate().step_by(VERIFY_EVERY) {
        let verdict = guarded(|| {
            let sys = MemorySystem::new(spec.system, spec.kind.build());
            let (mut sim, mut finish) = (Span::default(), Span::default());
            drive(spec, sys, &mut spec.workload().stream(), &mut sim, &mut finish)
        })
        .map_err(|e| format!("standalone session {i} panicked: {e}"))
        .and_then(|(r, cl)| checker.check(i, session_digest(&r, &cl), "standalone"));
        out.count(1, u64::from(verdict.is_err()), || verdict.err().unwrap_or_default());
    }
}
