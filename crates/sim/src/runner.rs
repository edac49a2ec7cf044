//! The parallel experiment engine.
//!
//! Every figure in the paper is a grid of independent simulations
//! (application × prefetcher × configuration), and each cell is a pure
//! function of its inputs — so the grid fans out across OS threads with
//! no change in results. This module provides:
//!
//! * [`Job`] — one simulation cell: a [`WorkloadSpec`], a prefetcher
//!   factory and a [`SystemConfig`], run open or closed loop.
//! * [`Runner`] — executes a batch of jobs on `std::thread::scope`
//!   workers (no external thread-pool dependency). Each cell renders its
//!   own workload chunk-at-a-time ([`WorkloadSpec::stream`]), so a batch
//!   holds no trace in memory.
//! * [`RunReport`] — per-cell wall-clock timings plus batch-level
//!   observability: slowest cell, total simulated cycles, simulation
//!   throughput.
//!
//! Determinism: workers claim jobs from an atomic counter, so the
//! *schedule* varies run to run, but each cell simulates in isolation on
//! an identical rendering of its workload and the finished cells are put
//! back in job order — the output is bit-identical to a serial run
//! regardless of thread count (`tests/parallel_engine.rs` asserts this).

#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use planaria_core::Prefetcher;
use planaria_telemetry::TelemetryReport;
use planaria_trace::apps::{self, AppId};
use planaria_trace::WorkloadSpec;

use crate::traffic::{ClosedLoopReport, TrafficConfig, TrafficModel};
use crate::{MemorySystem, PrefetcherKind, SimResult, SystemConfig};

/// Builds a fresh prefetcher instance inside a worker thread.
pub type PrefetcherFactory = Box<dyn Fn() -> Box<dyn Prefetcher> + Send + Sync>;

/// One simulation cell of an experiment grid.
pub struct Job {
    /// Display label (progress lines, [`Cell::label`], slowest-cell report).
    pub label: String,
    /// The workload the cell renders and runs.
    pub workload: WorkloadSpec,
    /// Full-system configuration.
    pub config: SystemConfig,
    /// `Some` switches the cell to closed-loop injection via
    /// [`TrafficModel`]; `None` (the default) replays open-loop.
    pub traffic: Option<TrafficConfig>,
    factory: PrefetcherFactory,
}

impl Job {
    /// A job running `kind` over `app`'s workload with Table 1 defaults.
    pub fn grid_cell(app: AppId, kind: PrefetcherKind, length: usize) -> Self {
        let workload = apps::profile(app).scaled(length);
        Self::new(format!("{}/{}", workload.abbr, kind.label()), workload, kind)
    }

    /// A job with an explicit label and workload.
    pub fn new(label: impl Into<String>, workload: WorkloadSpec, kind: PrefetcherKind) -> Self {
        Self::with_factory(label, workload, Box::new(move || kind.build()))
    }

    /// A job with a custom prefetcher factory (ablations with non-default
    /// prefetcher configurations).
    pub fn with_factory(
        label: impl Into<String>,
        workload: WorkloadSpec,
        factory: PrefetcherFactory,
    ) -> Self {
        Self {
            label: label.into(),
            workload,
            config: SystemConfig::default(),
            traffic: None,
            factory,
        }
    }

    /// Replaces the system configuration.
    pub fn config(mut self, cfg: SystemConfig) -> Self {
        self.config = cfg;
        self
    }

    /// Switches the cell to closed-loop injection with `cfg`.
    pub fn traffic(mut self, cfg: TrafficConfig) -> Self {
        self.traffic = Some(cfg);
        self
    }
}

/// A progress sample from a running cell.
#[derive(Debug, Clone, Copy)]
pub struct ProgressEvent<'a> {
    /// Index of the job within the batch.
    pub job: usize,
    /// Number of jobs in the batch.
    pub total: usize,
    /// The job's label.
    pub label: &'a str,
    /// Accesses simulated so far in this cell.
    pub done: usize,
    /// Total accesses in this cell's workload ([`WorkloadSpec::length`]).
    pub trace_len: usize,
    /// Cumulative SC demand hit rate so far
    /// ([`MemorySystem::interim_hit_rate`]).
    pub hit_rate: f64,
}

type ProgressFn = Arc<dyn Fn(ProgressEvent<'_>) + Send + Sync>;

/// One finished cell of a [`RunReport`].
#[derive(Debug, Clone)]
pub struct Cell {
    /// The job's label.
    pub label: String,
    /// Wall-clock time this cell took, rendering its workload included.
    pub wall: Duration,
    /// The simulation result.
    pub result: SimResult,
    /// The cell's decision/lifecycle telemetry (counters always populated;
    /// events only when the job's config enabled event capture).
    pub telemetry: TelemetryReport,
    /// Per-device slowdown/fairness outcomes, populated only for
    /// closed-loop jobs ([`Job::traffic`]).
    pub closed_loop: Option<ClosedLoopReport>,
}

/// Results plus batch observability, cells in job-submission order.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Finished cells, in the order jobs were submitted (independent of
    /// worker scheduling).
    pub cells: Vec<Cell>,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
    /// Worker threads used.
    pub threads: usize,
}

impl RunReport {
    /// The cell that took the longest wall-clock time.
    pub fn slowest(&self) -> Option<&Cell> {
        self.cells.iter().max_by_key(|c| c.wall)
    }

    /// Total simulated memory-system cycles across all cells.
    pub fn total_sim_cycles(&self) -> u64 {
        self.cells.iter().map(|c| c.result.duration_cycles).sum()
    }

    /// Simulation throughput: simulated cycles per wall-clock second.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.total_sim_cycles() as f64 / secs
        } else {
            0.0
        }
    }

    /// A one-paragraph summary for harness stderr output.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} cells on {} thread{} in {:.2?} ({:.1}M sim-cycles/s)",
            self.cells.len(),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.wall,
            self.sim_cycles_per_sec() / 1e6,
        );
        if let Some(slow) = self.slowest() {
            s.push_str(&format!("; slowest cell {} at {:.2?}", slow.label, slow.wall));
        }
        s
    }

    /// Consumes the report into bare results, job order preserved.
    pub fn into_results(self) -> Vec<SimResult> {
        self.cells.into_iter().map(|c| c.result).collect()
    }

    /// The batch's merged telemetry: per-cell counters absorbed in
    /// submission order (so the merge is identical at any thread count).
    /// Per-cell event streams stay on the cells; only counters aggregate.
    ///
    /// # Examples
    ///
    /// ```
    /// use planaria_sim::experiment::PrefetcherKind;
    /// use planaria_sim::runner::{Job, Runner};
    /// use planaria_trace::apps::AppId;
    ///
    /// let report = Runner::new(2).run(vec![
    ///     Job::grid_cell(AppId::Cfm, PrefetcherKind::Planaria, 3_000),
    ///     Job::grid_cell(AppId::Cfm, PrefetcherKind::NextLine, 3_000),
    /// ]);
    /// let merged = report.telemetry();
    /// let per_cell: u64 = report.cells.iter().map(|c| c.telemetry.total_issued()).sum();
    /// assert_eq!(merged.total_issued(), per_cell);
    /// ```
    pub fn telemetry(&self) -> TelemetryReport {
        let mut merged = TelemetryReport::new();
        for cell in &self.cells {
            merged.absorb(&cell.telemetry);
        }
        merged
    }

    /// Consumes the report into rows of `width` results — the
    /// per-app grouping every figure harness consumes.
    ///
    /// # Panics
    ///
    /// Panics if the cell count is not a multiple of `width`.
    pub fn into_rows(self, width: usize) -> Vec<Vec<SimResult>> {
        assert!(width > 0 && self.cells.len().is_multiple_of(width), "cells must tile into rows");
        let mut rows = Vec::with_capacity(self.cells.len() / width);
        let mut iter = self.cells.into_iter().map(|c| c.result);
        while let Some(first) = iter.next() {
            let mut row = Vec::with_capacity(width);
            row.push(first);
            for _ in 1..width {
                row.push(iter.next().expect("length checked"));
            }
            rows.push(row);
        }
        rows
    }
}

/// Executes batches of [`Job`]s across worker threads.
pub struct Runner {
    threads: usize,
    progress: Option<ProgressFn>,
    progress_every: usize,
}

impl Runner {
    /// A runner with an explicit worker count (`0` is clamped to 1).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1), progress: None, progress_every: 50_000 }
    }

    /// A single-threaded runner (what the serial `experiment::*`
    /// wrappers use).
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// A runner sized to the machine's available parallelism.
    pub fn auto() -> Self {
        let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::new(n)
    }

    /// The worker count this runner will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Installs a progress callback, invoked from worker threads every
    /// [`Runner::progress_every`] simulated accesses of each cell.
    pub fn with_progress(mut self, f: impl Fn(ProgressEvent<'_>) + Send + Sync + 'static) -> Self {
        self.progress = Some(Arc::new(f));
        self
    }

    /// Sets the progress sampling interval in accesses.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn progress_every(mut self, every: usize) -> Self {
        assert!(every > 0, "progress interval must be positive");
        self.progress_every = every;
        self
    }

    /// Runs a batch of jobs; the report's cells are in submission order
    /// regardless of which worker finished which cell when.
    pub fn run(&self, jobs: Vec<Job>) -> RunReport {
        let started = Instant::now();
        let total = jobs.len();
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(total.max(1));

        // Each worker claims the next unclaimed job until none is left and
        // returns the cells it ran, tagged with their job index.
        let work = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { return done };
                done.push((i, self.run_cell(i, total, job)));
            }
        };
        let mut done: Vec<(usize, Cell)> = if workers <= 1 {
            work()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                    .collect()
            })
        };
        done.sort_unstable_by_key(|&(i, _)| i);

        RunReport {
            cells: done.into_iter().map(|(_, cell)| cell).collect(),
            wall: started.elapsed(),
            threads: workers,
        }
    }

    /// Runs job `i` of a `total`-job batch over a fresh rendering of its
    /// workload.
    fn run_cell(&self, i: usize, total: usize, job: &Job) -> Cell {
        let t0 = Instant::now();
        let mut stream = job.workload.stream();
        let sys = MemorySystem::new(job.config, (job.factory)());
        let (result, telemetry, closed_loop) = match job.traffic {
            // Closed-loop cells derive their own injection schedule;
            // progress sampling does not apply.
            Some(traffic) => {
                let (result, closed, telemetry) =
                    TrafficModel::new(traffic).run_stream_telemetry(sys, &mut stream);
                (result, telemetry, Some(closed))
            }
            None => {
                let (result, _, telemetry) = match &self.progress {
                    Some(cb) => sys.run_stream_core(
                        &mut stream,
                        0.0,
                        self.progress_every,
                        Some(&mut |done, hit_rate| {
                            cb(ProgressEvent {
                                job: i,
                                total,
                                label: &job.label,
                                done,
                                trace_len: job.workload.length,
                                hit_rate,
                            })
                        }),
                    ),
                    None => sys.run_stream_core(&mut stream, 0.0, usize::MAX, None),
                };
                (result, telemetry, None)
            }
        };
        Cell { label: job.label.clone(), wall: t0.elapsed(), result, telemetry, closed_loop }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_rows_and_helpers() {
        let runner = Runner::serial();
        let kinds = [PrefetcherKind::None, PrefetcherKind::NextLine];
        let report = runner.run(vec![
            Job::grid_cell(AppId::Cfm, kinds[0], 2_000),
            Job::grid_cell(AppId::Cfm, kinds[1], 2_000),
        ]);
        assert_eq!(report.threads, 1);
        assert_eq!(report.cells[0].label, "CFM/None");
        assert!(report.slowest().is_some());
        assert!(report.total_sim_cycles() > 0);
        assert!(report.summary().contains("2 cells"));
        let rows = report.into_rows(2);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].prefetcher, "None");
    }

    #[test]
    #[allow(clippy::disallowed_types, reason = "test-only sink shared with the progress hook")]
    fn progress_callback_fires_in_order_per_cell() {
        let samples = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&samples);
        let runner = Runner::serial().progress_every(500).with_progress(move |e| {
            sink.lock().unwrap().push((e.job, e.done, e.hit_rate));
        });
        let report = runner.run(vec![Job::grid_cell(AppId::Qsm, PrefetcherKind::None, 2_000)]);
        assert_eq!(report.cells.len(), 1);
        let samples = samples.lock().unwrap();
        assert_eq!(samples.len(), 4, "2000 accesses / every 500");
        assert!(samples.windows(2).all(|w| w[0].1 < w[1].1), "monotone progress");
        assert!(samples.iter().all(|s| (0.0..=1.0).contains(&s.2)));
    }

    #[test]
    fn observed_run_matches_unobserved() {
        let job = || Job::grid_cell(AppId::Fort, PrefetcherKind::Planaria, 3_000);
        let quiet = Runner::serial().run(vec![job()]);
        let observed = Runner::serial().progress_every(100).with_progress(|_| {}).run(vec![job()]);
        assert_eq!(quiet.cells[0].result, observed.cells[0].result);
    }
}
