//! The benchmark's workloads, their inputs, and the pass loop they share.
//!
//! Every workload is one host client on one thread that starts the next
//! cell or session only after the previous one completed (a closed loop on
//! the host). A *pass* runs the workload's whole input once; a run repeats
//! set-up and pass until `--seconds` of pass wall time has run, and reports
//! order statistics of its passes after a warm-up pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use planaria_cache::CacheConfig;
use planaria_serve::{mix64, DeviceSpec};
use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::SystemConfig;
use planaria_trace::apps::{profile, AppId};
use planaria_trace::WorkloadSpec;

use crate::stats::{median, quantile, Timed};

/// The seed that reproduces the Table 2 profile seeds and the per-id
/// `DeviceSpec` seeds; the pinned fingerprints hold for it.
pub const DEFAULT_SEED: u64 = 0;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Planaria × the ten Table 2 apps, synthesized chunk-at-a-time.
    OpenPlanaria,
    /// BOP × the ten apps, replayed from packed `planaria-trace-v1` bytes.
    OpenBopPacked,
    /// Thousands of lean Planaria devices served through `Service`.
    ServedFleet,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists `open-planaria` and
    /// `served-fleet`; `open-bop-packed` runs when named.
    pub const ALL: [Workload; 3] =
        [Workload::OpenPlanaria, Workload::OpenBopPacked, Workload::ServedFleet];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OpenPlanaria => "open-planaria",
            Workload::OpenBopPacked => "open-bop-packed",
            Workload::ServedFleet => "served-fleet",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Accesses per `open-planaria` cell: one pass (10 cells) takes 0.5 to
/// 1.3 seconds on a 2-vCPU Xeon VM, so a 50-second run has 40 to 100
/// passes.
pub const PLANARIA_CELL_LEN: usize = 100_000;

/// Accesses per `open-bop-packed` cell (BOP runs about 1.5× as fast, and
/// set-up packs every cell).
pub const BOP_CELL_LEN: usize = 200_000;

/// Devices in the served fleet. At about 200 KB of live state each
/// (system, prefetcher, mailbox) the fleet spans ~600 MB, well past the
/// host's last-level cache.
pub const FLEET_DEVICES: u64 = 3_000;

/// Accesses per served session: three mailbox lengths, so every device
/// is visited in several scheduling rounds.
pub const SESSION_LEN: usize = 768;

/// The one shard every device lands in: with one worker, shards run one
/// after another, so a single shard is what makes all devices interleave.
pub const FLEET_SHARDS: usize = 1;

/// Perturbs a base seed by the workload seed; the default seed leaves it
/// unchanged.
pub fn perturb(base: u64, seed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        base
    } else {
        base ^ mix64(seed)
    }
}

/// The ten `open-*` cells: every Table 2 profile at `len` accesses.
pub fn cells(seed: u64, len: usize) -> Vec<WorkloadSpec> {
    AppId::ALL
        .iter()
        .map(|&app| {
            let mut spec = profile(app).scaled(len);
            spec.seed = perturb(spec.seed, seed);
            spec
        })
        .collect()
}

/// The per-device memory system of the fleet: a 64 KiB SC, everything
/// else Table 1.
pub fn lean_system() -> SystemConfig {
    let mut sys = SystemConfig::default();
    sys.cache = CacheConfig { size_bytes: 64 * 1024, ..sys.cache };
    sys
}

/// The fleet's device specs: apps round-robin by id, lean Planaria,
/// page pools capped for short sessions.
pub fn fleet_specs(seed: u64) -> Vec<DeviceSpec> {
    (0..FLEET_DEVICES)
        .map(|id| {
            let app = AppId::ALL[(id % AppId::ALL.len() as u64) as usize];
            let mut spec = DeviceSpec::new(id, app).scaled(SESSION_LEN);
            spec.seed = perturb(spec.seed, seed);
            spec.system = lean_system();
            spec.kind = PrefetcherKind::PlanariaLean;
            spec.pool_cap = Some(64);
            spec
        })
        .collect()
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

/// Passes at the start of an untraced run that are checked but not
/// measured: the first pass pays page faults and cold caches that later
/// passes do not.
pub const WARMUP_PASSES: usize = 1;

/// Passes an untraced run makes at least: the warm-up pass plus three
/// measured ones, so set-up time and throughput have a median.
const MIN_PASSES: u32 = 4;

/// No pass starts after this much wall time, so a run on a slow host
/// still ends well within three minutes.
const WALL_CAP_S: f64 = 100.0;

/// Decides when a run has measured enough: `--seconds` is a budget of
/// pass wall time, so a run lasts about as long on a busy host as on an
/// idle one.
#[derive(Debug)]
pub struct Clock {
    start: Instant,
    seconds: f64,
    min_passes: u32,
    timed: f64,
    passes: u32,
}

impl Clock {
    /// A run that measures `seconds` of pass time; traced runs need only
    /// one (untraced, traced) pair.
    pub fn new(seconds: f64, traced: bool) -> Self {
        let min_passes = if traced { 1 } else { MIN_PASSES };
        Self { start: Instant::now(), seconds, min_passes, timed: 0.0, passes: 0 }
    }

    /// Whether another pass should run.
    pub fn more(&self) -> bool {
        if self.passes == 0 {
            return true;
        }
        let wanted = self.timed < self.seconds || self.passes < self.min_passes;
        wanted && self.start.elapsed().as_secs_f64() < WALL_CAP_S
    }

    /// Records a pass of `secs` wall seconds.
    pub fn pass(&mut self, secs: f64) {
        self.timed += secs;
        self.passes += 1;
    }
}

/// The quantile of the measured passes' rates that a run reports as its
/// throughput: the lower quartile, the rate three passes in four reach.
///
/// On a shared host other guests' load slows passes in episodes of several
/// seconds, by up to half. The lower quartile settles on the slowed level
/// whenever a quarter of the run's passes are slowed, while the median
/// jumps between the two levels as their shares cross one half. Over ten
/// 30-second runs on a 2-vCPU VM, the lower quartile spread 8 to 11% from
/// run to run where the median spread 9 to 20%.
pub const RATE_QUANTILE: f64 = 0.25;

/// The untraced passes of a run: set-up and pass times, and the work
/// (accesses or decisions) each pass did.
///
/// Throughput and set-up time are taken on the CPU clock of the threads
/// that do the work ([`Stopwatch`](crate::stats::Stopwatch)), so time the
/// host gives to other processes or other guests does not count against
/// the program. Both skip the warm-up pass.
#[derive(Debug, Default)]
pub struct Samples {
    setup_cpu_s: Vec<f64>,
    rates: Vec<f64>,
    pass_wall_s: Vec<f64>,
}

impl Samples {
    /// Records one pass and prints a progress line to standard error.
    pub fn record(&mut self, setup: Timed, pass: Timed, work: u64) {
        let (cpu_rate, wall_rate) = (work as f64 / pass.cpu_s, work as f64 / pass.wall_s);
        eprintln!(
            "pass {}: set-up {:.4} s cpu ({:.4} s wall), {cpu_rate:.0}/s cpu ({wall_rate:.0}/s wall)",
            self.rates.len() + 1,
            setup.cpu_s,
            setup.wall_s,
        );
        self.setup_cpu_s.push(setup.cpu_s);
        self.rates.push(cpu_rate);
        self.pass_wall_s.push(pass.wall_s);
    }

    /// The passes after the warm-up, or every pass if there are no more.
    fn measured(values: &[f64]) -> &[f64] {
        values.get(WARMUP_PASSES..).filter(|v| !v.is_empty()).unwrap_or(values)
    }

    /// Work per CPU second: the [`RATE_QUANTILE`] of the measured passes.
    pub fn rate(&self) -> f64 {
        quantile(Self::measured(&self.rates), RATE_QUANTILE)
    }

    /// Median set-up CPU seconds.
    pub fn setup_s(&self) -> f64 {
        median(Self::measured(&self.setup_cpu_s))
    }

    /// Median pass wall seconds over every pass (traced runs compare it
    /// with their traced passes, warm-up included on both sides).
    pub fn pass_wall_s(&self) -> f64 {
        median(&self.pass_wall_s)
    }
}

/// Reads a `kB` field such as `VmRSS` or `VmHWM` from `/proc/self/status`.
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_the_profile_and_device_seeds() {
        for (spec, app) in cells(DEFAULT_SEED, 10).iter().zip(AppId::ALL) {
            assert_eq!(spec.seed, profile(app).seed);
        }
        let fleet = fleet_specs(DEFAULT_SEED);
        assert_eq!(fleet.len() as u64, FLEET_DEVICES);
        for spec in fleet.iter().take(20) {
            assert_eq!(spec.seed, DeviceSpec::new(spec.id, spec.app).seed);
        }
    }

    #[test]
    fn other_seeds_perturb_every_seed() {
        for seed in [1, 2, 12345] {
            for (spec, app) in cells(seed, 10).iter().zip(AppId::ALL) {
                assert_ne!(spec.seed, profile(app).seed);
            }
            let spec = &fleet_specs(seed)[7];
            assert_ne!(spec.seed, DeviceSpec::new(7, spec.app).seed);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    fn timed(cpu_s: f64) -> Timed {
        Timed { wall_s: cpu_s * 2.0, cpu_s }
    }

    #[test]
    fn samples_skip_the_warm_up_pass_and_use_cpu_time() {
        let mut s = Samples::default();
        // A slow cold first pass, then three passes of 100 units.
        s.record(timed(9.0), timed(10.0), 100);
        for (setup, secs) in [(1.0, 1.0), (3.0, 2.0), (2.0, 4.0)] {
            s.record(timed(setup), timed(secs), 100);
        }
        assert_eq!(s.rate(), 37.5, "lower quartile of 100, 50 and 25 per CPU second");
        assert_eq!(s.setup_s(), 2.0);
        assert_eq!(s.pass_wall_s(), 6.0, "wall median over every pass");
        // A single (traced-run) pass is its own measurement.
        let mut one = Samples::default();
        one.record(timed(1.0), timed(4.0), 100);
        assert_eq!((one.rate(), one.setup_s()), (25.0, 1.0));
    }

    #[test]
    fn guarded_reports_panics() {
        assert_eq!(guarded(|| 3), Ok(3));
        let err = guarded(|| -> u32 { panic!("boom {}", 1) }).expect_err("panicked");
        assert_eq!(err, "boom 1");
    }
}
