//! The open-loop workloads: `open-planaria` (synthesized streams) and
//! `open-bop-packed` (packed `planaria-trace-v1` replays).

use std::collections::BTreeMap;
use std::time::Instant;

use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::{MemorySystem, SimResult, SystemConfig, STREAM_CHUNK};
use planaria_trace::io::{ChunkedTraceReader, ChunkedTraceWriter};
use planaria_trace::stream::AccessStream;
use planaria_trace::WorkloadSpec;

use crate::expected::{self, Checker};
use crate::layers::{LayerTotals, ServeTotals};
use crate::report::Outcome;
use crate::stats::{median, median_by_name, Span, Stopwatch, Timed};
use crate::workload::{self, guarded, Clock, Samples, Workload, DEFAULT_SEED};
use crate::wrap::{CoreSlot, TracedPrefetcher, TracedStream};

fn kind(w: Workload) -> PrefetcherKind {
    if w == Workload::OpenBopPacked {
        PrefetcherKind::Bop
    } else {
        PrefetcherKind::Planaria
    }
}

/// Packs one cell to `planaria-trace-v1` bytes, synthesizing it
/// chunk-at-a-time.
fn pack(spec: &WorkloadSpec) -> Vec<u8> {
    let mut stream = spec.stream();
    let mut w = ChunkedTraceWriter::new(Vec::new(), &spec.abbr, spec.length as u64)
        .expect("abbreviations fit the header");
    let mut chunk = Vec::new();
    while stream.next_chunk(STREAM_CHUNK, &mut chunk) > 0 {
        w.write_chunk(&chunk).expect("writes to memory succeed");
    }
    w.finish().expect("the declared length was written")
}

/// What one pass consumes, built in set-up.
struct Inputs {
    systems: Vec<MemorySystem>,
    /// Traced passes only: where each wrapped prefetcher leaves its record.
    slots: Vec<CoreSlot>,
    /// `open-bop-packed` only: each cell's packed bytes.
    packed: Option<Vec<Vec<u8>>>,
}

fn setup(w: Workload, cells: &[WorkloadSpec], traced: bool) -> Inputs {
    let packed = (w == Workload::OpenBopPacked).then(|| cells.iter().map(pack).collect());
    let mut slots = Vec::new();
    let systems = cells
        .iter()
        .map(|_| {
            let pf = kind(w).build();
            if traced {
                let (pf, slot) = TracedPrefetcher::new(pf);
                slots.push(slot);
                MemorySystem::new(SystemConfig::default(), Box::new(pf))
            } else {
                MemorySystem::new(SystemConfig::default(), pf)
            }
        })
        .collect();
    Inputs { systems, slots, packed }
}

/// Calls `f` with cell `i`'s stream: decoded from its packed bytes when
/// there are any, synthesized otherwise.
fn with_stream<T>(
    cells: &[WorkloadSpec],
    packed: Option<&[Vec<u8>]>,
    i: usize,
    f: impl FnOnce(&mut dyn AccessStream) -> T,
) -> T {
    match packed {
        Some(p) => {
            f(&mut ChunkedTraceReader::new(p[i].as_slice()).expect("packed header is valid"))
        }
        None => f(&mut cells[i].stream()),
    }
}

/// One untraced pass: every cell through `MemorySystem::run_stream`.
fn pass(cells: &[WorkloadSpec], inputs: Inputs) -> (Timed, Vec<Result<SimResult, String>>) {
    let packed = inputs.packed.as_deref();
    let watch = Stopwatch::start();
    let results = inputs
        .systems
        .into_iter()
        .enumerate()
        .map(|(i, sys)| guarded(|| with_stream(cells, packed, i, |s| sys.run_stream(s))))
        .collect();
    (watch.stop(), results)
}

/// One traced cell's in-run spans.
struct CellSpans {
    trace: Span,
    sim: Span,
    finish: Span,
}

/// A traced cell's result and spans, or why it panicked.
type TracedCell = Result<(SimResult, CellSpans), String>;

/// One traced pass: the same loop `run_stream` runs, driven here so that
/// `next_chunk`, `process_batch` and `finish` each get a span.
fn traced_pass(cells: &[WorkloadSpec], inputs: Inputs) -> (f64, Vec<TracedCell>) {
    let packed = inputs.packed.as_deref();
    let t0 = Instant::now();
    let results = inputs
        .systems
        .into_iter()
        .enumerate()
        .map(|(i, mut sys)| {
            guarded(|| {
                with_stream(cells, packed, i, |inner| {
                    let mut stream = TracedStream::new(inner);
                    let name = stream.name().to_string();
                    let (mut sim, mut finish) = (Span::default(), Span::default());
                    let mut chunk = Vec::new();
                    while stream.next_chunk(STREAM_CHUNK, &mut chunk) > 0 {
                        let t = Instant::now();
                        sys.process_batch(&chunk);
                        sim.close(t);
                    }
                    if let Some(e) = stream.error() {
                        panic!("trace stream {name:?} failed: {e}");
                    }
                    let t = Instant::now();
                    let r = sys.finish(&name);
                    finish.close(t);
                    (r, CellSpans { trace: stream.span, sim, finish })
                })
            })
        })
        .collect();
    (t0.elapsed().as_secs_f64(), results)
}

/// Checks one pass's results; returns the accesses simulated and the mean
/// AMAT of the cells that ran.
fn check_pass<'a>(
    checker: &mut Checker,
    results: impl Iterator<Item = Result<&'a SimResult, &'a String>>,
    len: usize,
    what: &str,
    out: &mut Outcome,
) -> (u64, f64) {
    let (mut accesses, mut amat, mut ran) = (0u64, 0.0f64, 0u32);
    for (i, r) in results.enumerate() {
        let verdict = match r {
            Err(e) => Err(format!("{what} cell {i} panicked: {e}")),
            Ok(r) if r.accesses != len as u64 => {
                Err(format!("{what} {}: {} accesses, want {len}", r.workload, r.accesses))
            }
            Ok(r) => checker.check(i, r.fingerprint(), what),
        };
        if let Ok(r) = r {
            accesses += r.accesses;
            amat += r.amat_cycles;
            ran += 1;
        }
        out.count(1, u64::from(verdict.is_err()), || verdict.err().unwrap_or_default());
    }
    (accesses, amat / f64::from(ran.max(1)))
}

/// Runs an `open-*` workload and returns its outcome.
pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let len = if w == Workload::OpenBopPacked {
        workload::BOP_CELL_LEN
    } else {
        workload::PLANARIA_CELL_LEN
    };
    let cells = workload::cells(seed, len);
    let pinned: &[(&str, u64)] = if w == Workload::OpenBopPacked {
        &expected::OPEN_BOP_PACKED
    } else {
        &expected::OPEN_PLANARIA
    };
    let labels = cells.iter().map(|c| c.abbr.clone()).collect();
    let mut checker = Checker::new(labels, (seed == DEFAULT_SEED).then_some(pinned));
    let mut out = Outcome::default();
    let mut samples = Samples::default();
    let (mut traced_secs, mut layer_runs) = (Vec::new(), Vec::new());
    let mut amat = 0.0;
    let mut totals = LayerTotals::default();

    let mut clock = Clock::new(seconds, traced);
    while clock.more() {
        let watch = Stopwatch::start();
        let inputs = setup(w, &cells, false);
        let setup_time = watch.stop();
        let (time, results) = pass(&cells, inputs);
        let (accesses, mean_amat) =
            check_pass(&mut checker, results.iter().map(Result::as_ref), len, "untraced", &mut out);
        samples.record(setup_time, time, accesses);
        amat = mean_amat;
        clock.pass(time.wall_s);
        if !traced {
            continue;
        }

        let inputs = setup(w, &cells, true);
        let slots = inputs.slots.clone();
        let (secs, results) = traced_pass(&cells, inputs);
        clock.pass(secs);
        traced_secs.push(secs);
        totals = LayerTotals::default();
        for (i, (r, slot)) in results.iter().zip(&slots).enumerate() {
            let verdict = match r {
                Err(e) => Err(format!("traced cell {i} panicked: {e}")),
                Ok((r, spans)) => checker.check(i, r.fingerprint(), "traced").and_then(|()| {
                    totals.trace.absorb(spans.trace);
                    totals.sim.absorb(spans.sim);
                    totals.finish.absorb(spans.finish);
                    totals.add_run(r, slot, kind(w), &SystemConfig::default())
                }),
            };
            out.count(1, u64::from(verdict.is_err()), || verdict.err().unwrap_or_default());
        }
        let mut m = BTreeMap::new();
        totals.metrics(&mut m);
        layer_runs.push(m);
    }

    if w == Workload::OpenBopPacked {
        verify_against_synthesis(&cells, &mut checker, &mut out);
    }
    out.fingerprints = checker.fingerprints();
    if traced {
        for (name, v) in median_by_name(&layer_runs) {
            out.set(name, v);
        }
        ServeTotals::absent(&mut out.metrics);
        out.set("traced.overhead_frac", median(&traced_secs) / samples.pass_wall_s() - 1.0);
        out.replay_hashes = totals.replay_hashes();
    } else {
        out.set("accesses_per_s", samples.rate());
        out.set("setup_s", samples.setup_s());
        out.set("sim_amat_cycles", amat);
    }
    out
}

/// `open-bop-packed` replays must equal the same cells rendered by
/// synthesis; each cell is one more operation. The cells run one at a
/// time, each system dropped before the next is built, so the check never
/// holds more memory than a timed pass and never sets the peak RSS.
fn verify_against_synthesis(cells: &[WorkloadSpec], checker: &mut Checker, out: &mut Outcome) {
    let results: Vec<_> = cells
        .iter()
        .map(|spec| {
            guarded(|| {
                let sys = MemorySystem::new(SystemConfig::default(), PrefetcherKind::Bop.build());
                sys.run_stream(&mut spec.stream())
            })
        })
        .collect();
    check_pass(checker, results.iter().map(Result::as_ref), cells[0].length, "synthesized", out);
}
