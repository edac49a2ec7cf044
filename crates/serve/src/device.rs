//! One served device: its own workload stream → resumable closed-loop
//! driver → private memory system.

use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::{
    ClosedLoopDriver, ClosedLoopReport, MemorySystem, Pump, SimResult, SystemConfig, TrafficConfig,
};
use planaria_telemetry::TelemetryReport;
use planaria_trace::apps::{profile, AppId};
use planaria_trace::stream::{AccessStream, WorkloadStream};
use planaria_trace::{ComponentSpec, WorkloadSpec};

use crate::shard::mix64;

/// The most accesses one pull may take: the largest chunk frame a
/// `planaria-trace-v1` file may declare. A pull reserves room for all of
/// them before it renders any.
pub(crate) const MAX_MAILBOX: usize = planaria_trace::io::MAX_CHUNK_RECORDS as usize;

/// Identity and sizing of one served device session.
///
/// A spec is everything needed to (re)create the device deterministically:
/// the workload identity (`app`, `length`, `seed`) regenerates its demand
/// stream, and the remaining fields size the state machine. The snapshot
/// format serialises exactly these fields plus the stream position.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Unique session id (round scheduling order within a shard).
    pub id: u64,
    /// Page key for shard routing (see [`crate::shard_of`]). Defaults to
    /// the id so distinct devices spread across shards.
    pub home_page: u64,
    /// Which Table 2 application profile renders the demand traffic.
    pub app: AppId,
    /// Accesses the device's session replays.
    pub length: usize,
    /// Master seed of the device's private workload stream. The default
    /// perturbs the app profile's seed with [`mix64`]`(id)` so a fleet of
    /// same-app devices still renders distinct traffic.
    pub seed: u64,
    /// Closed-loop outstanding-request window per requestor.
    pub window: usize,
    /// Accesses pulled per turn: the most one [`ServedDevice::pump`]
    /// call takes from the device's stream (at least 1, at most
    /// [`MAX_CHUNK_RECORDS`](planaria_trace::io::MAX_CHUNK_RECORDS)). The
    /// name is the v1 snapshot key.
    pub mailbox: usize,
    /// Cap on any footprint component's revisited page pool in the
    /// derived workload. The Table 2 profiles size their pools (6–10k
    /// pages) for 30M-access batch traces; a served session of a few
    /// hundred accesses revisits only a handful, yet every device pays
    /// the pool's generator state up front. `None` keeps the profile
    /// exactly; `Some(cap)` bounds per-device memory for dense fleets.
    pub pool_cap: Option<usize>,
    /// Memory-system sizing (cache geometry, DRAM model, latencies).
    pub system: SystemConfig,
    /// Which prefetcher the device runs.
    pub kind: PrefetcherKind,
}

impl DeviceSpec {
    /// A spec with serving defaults: 2 000 accesses, window 8, pulls of
    /// 256 accesses, the paper's Table 1 system, the full Planaria
    /// prefetcher, and a per-device seed derived from the app profile.
    pub fn new(id: u64, app: AppId) -> Self {
        Self {
            id,
            home_page: id,
            app,
            length: 2_000,
            seed: profile(app).seed ^ mix64(id),
            window: 8,
            mailbox: 256,
            pool_cap: None,
            system: SystemConfig::default(),
            kind: PrefetcherKind::Planaria,
        }
    }

    /// Returns the spec with a different session length.
    #[must_use]
    pub fn scaled(mut self, length: usize) -> Self {
        self.length = length;
        self
    }

    /// The seeded workload this device replays.
    pub fn workload(&self) -> WorkloadSpec {
        let mut spec = profile(self.app).scaled(self.length);
        spec.seed = self.seed;
        if let Some(cap) = self.pool_cap {
            for wc in &mut spec.components {
                if let ComponentSpec::Footprint(f) = &mut wc.spec {
                    f.pages = f.pages.min(cap.max(1));
                }
            }
        }
        spec
    }
}

/// Why [`ServedDevice::pump`] returned control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevicePump {
    /// The iteration budget ran out; more simulation work remains.
    Working,
    /// The driver asked for input again after the turn's one pull: the
    /// turn is over (this is the quiescent point snapshots are taken at).
    Starved,
    /// The session is complete; [`ServedDevice::report`] is available.
    Done,
}

/// Everything a finished session produced.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// The session id ([`DeviceSpec::id`]).
    pub id: u64,
    /// Headline simulation metrics (hit rate, AMAT, traffic, energy).
    pub result: SimResult,
    /// Per-requestor closed-loop outcomes (slowdown, fairness).
    pub closed_loop: ClosedLoopReport,
    /// Prefetch-lifecycle and decision counters.
    pub telemetry: TelemetryReport,
}

/// One simulated phone as a compact, snapshottable state machine: its
/// own seeded workload stream, the resumable closed-loop driver, and a
/// private [`MemorySystem`].
///
/// The device pulls from its stream only inside [`ServedDevice::pump`],
/// only when the driver reports `NeedInput`, and at most one chunk of
/// [`DeviceSpec::mailbox`] accesses per call — the same lazy-pull
/// discipline the batch [`TrafficModel`](planaria_sim::TrafficModel)
/// uses, through the same
/// [`ClosedLoopDriver::refill`](planaria_sim::ClosedLoopDriver::refill).
/// A served run is therefore bit-identical to the batch closed loop over
/// the same accesses, whatever the pull size or pump budget.
///
/// # Examples
///
/// One pull per turn; an empty pull ends the session in the same call:
///
/// ```
/// use planaria_serve::{DevicePump, DeviceSpec, ServedDevice};
/// use planaria_trace::apps::AppId;
///
/// let mut spec = DeviceSpec::new(0, AppId::TikT).scaled(100);
/// spec.mailbox = 40;
/// let mut dev = ServedDevice::from_spec(spec);
///
/// assert_eq!(dev.pump(usize::MAX), DevicePump::Starved);
/// assert_eq!(dev.consumed(), 40, "one pull of at most `mailbox` accesses");
/// dev.pump(usize::MAX);
/// dev.pump(usize::MAX);
/// assert_eq!(dev.consumed(), 100, "the third pull is the partial tail");
/// assert_eq!(dev.pump(usize::MAX), DevicePump::Done, "an empty pull closes and drains");
/// assert_eq!(dev.report().unwrap().result.accesses, 100);
/// ```
pub struct ServedDevice {
    pub(crate) spec: DeviceSpec,
    /// The device's demand traffic, rendered on demand from the spec; its
    /// name (the workload abbreviation) labels the result.
    stream: WorkloadStream,
    /// Accesses offered to the driver so far (= the replay position).
    pub(crate) consumed: u64,
    /// The memory system and its driver, until the session finishes.
    live: Option<(MemorySystem, ClosedLoopDriver)>,
    report: Option<DeviceReport>,
}

impl std::fmt::Debug for ServedDevice {
    // The driver and memory system are deep state machines; summarize
    // progress instead of dumping them.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedDevice")
            .field("id", &self.spec.id)
            .field("app", &self.spec.app)
            .field("consumed", &self.consumed)
            .field("injected", &self.injected())
            .field("done", &self.is_done())
            .finish_non_exhaustive()
    }
}

impl ServedDevice {
    /// A device that renders its own demand traffic from
    /// [`DeviceSpec::workload`].
    ///
    /// # Panics
    ///
    /// Panics if `spec.window` or `spec.mailbox` is zero, or
    /// `spec.mailbox` is above
    /// [`MAX_CHUNK_RECORDS`](planaria_trace::io::MAX_CHUNK_RECORDS).
    pub fn from_spec(spec: DeviceSpec) -> Self {
        assert!(
            (1..=MAX_MAILBOX).contains(&spec.mailbox),
            "mailbox (accesses pulled per turn) must be in 1..={MAX_MAILBOX}, not {}",
            spec.mailbox
        );
        let sys = MemorySystem::new(spec.system, spec.kind.build());
        let driver = ClosedLoopDriver::new(TrafficConfig::new(spec.window));
        Self {
            stream: spec.workload().stream(),
            spec,
            consumed: 0,
            live: Some((sys, driver)),
            report: None,
        }
    }

    /// The session id.
    pub fn id(&self) -> u64 {
        self.spec.id
    }

    /// The page key shards route on.
    pub fn home_page(&self) -> u64 {
        self.spec.home_page
    }

    /// Accesses offered to the driver so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Accesses injected into the memory system so far.
    pub fn injected(&self) -> u64 {
        match (&self.live, &self.report) {
            (Some((_, driver)), _) => driver.injected(),
            (None, Some(r)) => r.result.accesses,
            (None, None) => 0,
        }
    }

    /// Whether the session has finished ([`DevicePump::Done`]).
    pub fn is_done(&self) -> bool {
        self.report.is_some()
    }

    /// The finished session's report, once done.
    pub fn report(&self) -> Option<&DeviceReport> {
        self.report.as_ref()
    }

    /// Consumes the device, returning its report.
    ///
    /// # Panics
    ///
    /// Panics if the session has not finished.
    pub fn into_report(self) -> DeviceReport {
        self.report.expect("into_report requires a finished session")
    }

    /// Runs one turn: advances the simulation by at most `budget` driver
    /// iterations, answering the driver's first `NeedInput` with one pull
    /// of at most [`DeviceSpec::mailbox`] accesses from the device's
    /// stream. A second `NeedInput` ends the turn
    /// ([`DevicePump::Starved`]). An empty pull closes the driver and the
    /// session drains in the same call, computing
    /// [`ServedDevice::report`].
    pub fn pump(&mut self, budget: usize) -> DevicePump {
        self.advance(budget, self.spec.mailbox)
    }

    /// Pumps without pulling until the driver waits for input or the
    /// session is done: the quiescent point snapshots require.
    pub(crate) fn quiesce(&mut self) -> DevicePump {
        self.advance(usize::MAX, 0)
    }

    /// [`ServedDevice::pump`] with the turn's pull bounded by `pull`
    /// accesses; `0` pulls nothing. Restore replays through this with
    /// pulls that end exactly at a snapshot's position.
    pub(crate) fn advance(&mut self, budget: usize, mut pull: usize) -> DevicePump {
        let Some((sys, driver)) = self.live.as_mut() else {
            return DevicePump::Done;
        };
        loop {
            match driver.pump(sys, budget) {
                Pump::Budget => return DevicePump::Working,
                Pump::NeedInput if pull > 0 => {
                    // Turn-local: no pull buffer outlives the turn.
                    let mut chunk = Vec::new();
                    self.consumed += driver.refill(&mut self.stream, pull, &mut chunk) as u64;
                    pull = 0;
                }
                Pump::NeedInput => return DevicePump::Starved,
                Pump::Drained => break,
            }
        }
        let (sys, driver) = self.live.take().expect("a drained session is still live");
        let (result, closed_loop, telemetry) = driver.finish(sys, self.stream.name());
        self.report = Some(DeviceReport { id: self.spec.id, result, closed_loop, telemetry });
        DevicePump::Done
    }
}
