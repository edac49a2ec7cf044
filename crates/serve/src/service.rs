//! Round-based multiplexing of many devices over a worker pool.

use planaria_telemetry::TelemetryReport;

use crate::device::{DevicePump, DeviceReport, ServedDevice};
use crate::shard::shard_of;

/// Sizing knobs for a [`Service`] run.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Independent scheduling domains; devices map to shards by
    /// [`shard_of`] over their home page. Results depend on the shard
    /// count only through routing, never through timing.
    pub shards: usize,
    /// OS threads multiplexing the shards. Worker `w` owns shards
    /// `w, w + workers, w + 2·workers, …` — shards never split across
    /// workers, so any worker count produces identical results.
    pub workers: usize,
    /// Driver iterations granted to one device per turn (each turn also
    /// pulls at most [`DeviceSpec::mailbox`](crate::DeviceSpec::mailbox)
    /// accesses from the device's stream).
    pub pump_quantum: usize,
    /// Keep every finished [`DeviceReport`] in the [`ServeReport`].
    /// Defaults off: at 100k+ devices the per-device reports dominate
    /// memory, and the per-shard summaries already conserve the totals.
    pub keep_device_reports: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { shards: 16, workers: 1, pump_quantum: 4_096, keep_device_reports: false }
    }
}

/// Hooks around each device's turn in the round loop.
///
/// The serving library itself never reads a wall clock (invariant R2);
/// an observer is how a harness such as `serve_load` measures real-time
/// behaviour from the outside. One observer instance exists per shard,
/// owned by the worker running that shard, so implementations need
/// `Send` but no interior locking.
pub trait ShardObserver: Send {
    /// A device's turn is about to start: its pump call, which also
    /// pulls from the device's stream.
    fn pump_started(&mut self, _device: u64) {}
    /// The device's turn ended after injecting `injected` accesses.
    fn pump_finished(&mut self, _device: u64, _injected: u64) {}
}

/// The do-nothing observer [`Service::run`] uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl ShardObserver for NullObserver {}

/// What one shard did over a whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// Shard index in `0..config.shards`.
    pub shard: usize,
    /// Devices routed to this shard.
    pub devices: u64,
    /// Demand accesses injected across the shard's devices.
    pub accesses: u64,
    /// Scheduling rounds until every device finished.
    pub rounds: u64,
    /// Worst per-requestor slowdown observed on the shard.
    pub max_slowdown: f64,
    /// Prefetch-lifecycle counters absorbed over the shard's devices in
    /// device-id order.
    pub telemetry: TelemetryReport,
}

/// Results of a [`Service::run`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-shard summaries, in shard-index order (deterministic for any
    /// worker count).
    pub shards: Vec<ShardSummary>,
    /// Per-device reports in device-id order, if
    /// [`ServeConfig::keep_device_reports`] was set.
    pub device_reports: Vec<DeviceReport>,
}

impl ServeReport {
    /// Devices served across all shards.
    pub fn devices(&self) -> u64 {
        self.shards.iter().map(|s| s.devices).sum()
    }

    /// Demand accesses injected across all shards.
    pub fn total_accesses(&self) -> u64 {
        self.shards.iter().map(|s| s.accesses).sum()
    }

    /// All shard telemetry absorbed into one report, in shard-index
    /// order.
    pub fn merged_telemetry(&self) -> TelemetryReport {
        let mut merged = TelemetryReport::default();
        for shard in &self.shards {
            merged.absorb(&shard.telemetry);
        }
        merged
    }
}

/// Multiplexes [`ServedDevice`] state machines over a worker pool with
/// deterministic round-based scheduling.
///
/// Within a shard, each round visits the live devices in ascending
/// device-id order and gives each one turn: one [`ServedDevice::pump`]
/// call with the pump quantum.
/// All scheduling is in virtual (simulated) time; two runs over the same
/// devices and config produce identical reports regardless of worker
/// count or host load.
#[derive(Debug, Clone)]
pub struct Service {
    cfg: ServeConfig,
}

impl Service {
    /// Creates a service with the given sizing.
    ///
    /// # Panics
    ///
    /// Panics if `shards`, `workers` or `pump_quantum` is zero.
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.workers > 0, "need at least one worker");
        assert!(cfg.pump_quantum > 0, "pump quantum must be positive");
        Self { cfg }
    }

    /// Serves the devices to completion with no observation hooks.
    pub fn run(&self, devices: Vec<ServedDevice>) -> ServeReport {
        self.run_observed(devices, |_shard| Box::new(NullObserver))
    }

    /// Serves the devices to completion, building one observer per shard
    /// through `make_observer` (called with the shard index, from the
    /// worker thread that owns the shard).
    pub fn run_observed<F>(&self, devices: Vec<ServedDevice>, make_observer: F) -> ServeReport
    where
        F: Fn(usize) -> Box<dyn ShardObserver> + Sync,
    {
        // Route: shard buckets, each sorted by device id so the round
        // order is a pure function of the device set.
        let mut buckets: Vec<Vec<ServedDevice>> =
            (0..self.cfg.shards).map(|_| Vec::new()).collect();
        for dev in devices {
            let shard = shard_of(dev.home_page(), self.cfg.shards);
            buckets[shard].push(dev);
        }
        for bucket in &mut buckets {
            bucket.sort_by_key(ServedDevice::id);
        }

        let cfg = self.cfg;

        // Interleaved shard → worker assignment; each worker returns its
        // shards' outcomes tagged with the shard index so the merge below
        // can restore shard order independent of completion order.
        let mut tagged: Vec<(usize, ShardSummary, Vec<DeviceReport>)> =
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(cfg.workers);
                let make_observer = &make_observer;
                let mut per_worker: Vec<Vec<(usize, Vec<ServedDevice>)>> =
                    (0..cfg.workers).map(|_| Vec::new()).collect();
                for (shard, bucket) in buckets.into_iter().enumerate() {
                    per_worker[shard % cfg.workers].push((shard, bucket));
                }
                for own in per_worker {
                    handles.push(scope.spawn(move || {
                        own.into_iter()
                            .map(|(shard, bucket)| {
                                let mut obs = make_observer(shard);
                                let (summary, reports) =
                                    run_shard(shard, bucket, &cfg, obs.as_mut());
                                (shard, summary, reports)
                            })
                            .collect::<Vec<_>>()
                    }));
                }
                handles.into_iter().flat_map(|h| h.join().expect("serve worker panicked")).collect()
            });

        tagged.sort_by_key(|(shard, ..)| *shard);
        let mut shards = Vec::with_capacity(tagged.len());
        let mut device_reports = Vec::new();
        for (_, summary, reports) in tagged {
            shards.push(summary);
            device_reports.extend(reports);
        }
        device_reports.sort_by_key(|r| r.id);
        ServeReport { shards, device_reports }
    }
}

/// Runs one shard's round loop to completion over `devices`, which are
/// in device-id order.
fn run_shard(
    shard: usize,
    mut devices: Vec<ServedDevice>,
    cfg: &ServeConfig,
    obs: &mut dyn ShardObserver,
) -> (ShardSummary, Vec<DeviceReport>) {
    let total = devices.len() as u64;
    let mut rounds = 0u64;
    let mut live = devices.len();
    while live > 0 {
        rounds += 1;
        for dev in &mut devices {
            if dev.is_done() {
                continue;
            }
            let before = dev.injected();
            obs.pump_started(dev.id());
            let state = dev.pump(cfg.pump_quantum);
            obs.pump_finished(dev.id(), dev.injected() - before);
            if state == DevicePump::Done {
                live -= 1;
            }
        }
    }

    let mut accesses = 0u64;
    let mut max_slowdown = 0.0f64;
    let mut telemetry = TelemetryReport::default();
    let mut reports = Vec::new();
    // Absorb in device-id order, so the summary is independent of round
    // interleaving.
    for report in devices.into_iter().map(ServedDevice::into_report) {
        accesses += report.result.accesses;
        for outcome in &report.closed_loop.devices {
            max_slowdown = max_slowdown.max(outcome.slowdown);
        }
        telemetry.absorb(&report.telemetry);
        if cfg.keep_device_reports {
            reports.push(report);
        }
    }
    (ShardSummary { shard, devices: total, accesses, rounds, max_slowdown, telemetry }, reports)
}
