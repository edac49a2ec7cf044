//! Closed-loop multi-requestor traffic model.
//!
//! Open-loop trace replay injects every demand at its recorded arrival
//! cycle, no matter how congested the memory system is — fine for cache
//! contents and hit rates, but it cannot show *slowdown*: a requestor that
//! stalls on a slow memory system would, in reality, issue its next request
//! later. This module closes the loop: the source [`AccessStream`] is
//! demuxed into per-device request queues on the fly and each device gets
//! a bounded window of outstanding requests. A device only injects its
//! next access once a completion frees a slot, so arrival times are
//! *derived from* memory-system behaviour instead of replayed verbatim.
//! The original inter-access gaps within each stream are kept as think
//! time, so an uncontended device reproduces its recorded schedule
//! exactly. [`TrafficModel::run_stream_telemetry`] accepts any stream
//! (synthetic renderers, packed-file replay, or a materialized trace via
//! [`planaria_trace::Trace::stream`]) without holding the trace in memory.
//!
//! With an effectively infinite window no device ever stalls, every access
//! is injected at its original cycle in the original order, and the run is
//! bit-identical to the open-loop simulator — the regression tests pin
//! this, which is what keeps the default open-loop figures trustworthy.
//!
//! # Batch vs. incremental driving
//!
//! [`TrafficModel`] is the batch entry point: it owns the whole run from
//! stream to finished report. Underneath it sits [`ClosedLoopDriver`], a
//! *resumable* form of the same state machine: callers [`offer`] accesses,
//! [`pump`] the simulation forward under an iteration budget, and are told
//! via [`Pump::NeedInput`] exactly when more input could change the next
//! injection. Because the driver only ever consumes input at those
//! explicit boundaries — the same lazy pull-horizon rule the batch loop
//! uses — a run produces bit-identical results no matter how its input is
//! chunked or how often pumping pauses. `planaria-serve` builds on this to
//! multiplex many independent device sessions over a worker pool.
//!
//! [`offer`]: ClosedLoopDriver::offer
//! [`pump`]: ClosedLoopDriver::pump
//!
//! # Examples
//!
//! ```
//! use planaria_sim::experiment::PrefetcherKind;
//! use planaria_sim::{MemorySystem, SystemConfig, TrafficConfig, TrafficModel};
//! use planaria_trace::apps::{profile, AppId};
//!
//! let spec = profile(AppId::HoK).scaled(3_000);
//! let sys = MemorySystem::new(SystemConfig::default(), PrefetcherKind::Planaria.build());
//! let (result, report, _telemetry) =
//!     TrafficModel::new(TrafficConfig::new(4)).run_stream_telemetry(sys, &mut spec.stream());
//!
//! assert_eq!(result.accesses, 3_000);
//! assert!(!report.devices.is_empty());
//! assert!(report.unfairness >= 1.0);
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use planaria_common::{Cycle, DeviceId, MemAccess};
use planaria_telemetry::TelemetryReport;
use planaria_trace::stream::AccessStream;

use crate::metrics::SimResult;
use crate::system::MemorySystem;

/// How far the clock advances per step while every eligible device is
/// stalled (matches the DRAM back-pressure step in the open-loop path).
const TIME_STEP: u64 = 500;

/// Accesses pulled from the source stream per demux refill.
const PULL_CHUNK: usize = 4096;

/// Closed-loop injection parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficConfig {
    /// Maximum outstanding requests per device (its MSHR/queue budget).
    /// Higher values approach open-loop behaviour; `usize::MAX` reproduces
    /// it exactly.
    pub window: usize,
}

impl TrafficConfig {
    /// A closed-loop configuration with the given per-device window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero (a device could never inject anything).
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "closed-loop window must be at least 1");
        Self { window }
    }
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self { window: 8 }
    }
}

/// What the closed loop derived for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceOutcome {
    /// Device label ([`planaria_common::DeviceId::label`]).
    pub device: String,
    /// Accesses the device injected.
    pub accesses: u64,
    /// Cycle of the device's last access in the *recorded* (open-loop)
    /// trace.
    pub open_loop_finish: u64,
    /// Cycle at which the device's last request *completed* in the closed
    /// loop — under contention this exceeds `open_loop_finish` because
    /// injections were delayed by the window.
    pub derived_finish: u64,
    /// Recorded span: last arrival plus the SC hit latency, minus first
    /// arrival (the fastest conceivable completion schedule).
    pub open_loop_span: u64,
    /// Derived span: last completion minus first recorded arrival.
    pub derived_span: u64,
    /// `derived_span / open_loop_span` — 1.0 means the memory system kept
    /// up with the recorded schedule perfectly.
    pub slowdown: f64,
}

/// Per-device outcomes of one closed-loop run plus the headline fairness
/// number.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopReport {
    /// The window the run used.
    pub window: usize,
    /// One outcome per device present in the trace, in
    /// [`planaria_common::DeviceId::ALL`] order.
    pub devices: Vec<DeviceOutcome>,
    /// Max slowdown divided by min slowdown across devices (1.0 when fewer
    /// than two devices injected anything). The standard unfairness
    /// metric: 1.0 is perfectly fair, larger means some requestor is
    /// disproportionately throttled.
    pub unfairness: f64,
}

/// Per-device injection state during a closed-loop run.
///
/// One slot exists per [`DeviceId`]; slots whose device never appears in
/// the source stream stay inert (`first_arrival` remains `None`).
#[derive(Debug)]
struct DevState {
    /// Demuxed-but-not-yet-injected accesses, as `(stream position,
    /// access)` — the position is the tiebreak that reproduces the
    /// recorded trace order.
    buf: VecDeque<(u64, MemAccess)>,
    /// Requests injected but not yet completed.
    outstanding: usize,
    /// Earliest cycle the next access may inject (first arrival, then
    /// previous injection plus the recorded think-time gap). Only valid
    /// while `need_gap` is false.
    next_ready: Cycle,
    /// The head-of-buffer think-time gap has not been applied yet (the
    /// successor access may not even be demuxed yet, so the gap is
    /// resolved lazily once it is visible).
    need_gap: bool,
    /// Clock at which the previous access was injected.
    last_inject: Cycle,
    /// Recorded cycle of the previous injected access.
    last_recorded: Cycle,
    /// Completion cycle of the latest retired request.
    last_completion: Cycle,
    /// First recorded arrival (span baseline); `None` until the device
    /// first appears.
    first_arrival: Option<Cycle>,
    /// Last recorded arrival seen so far (open-loop finish baseline).
    last_arrival: Cycle,
    /// Total accesses demuxed to this device.
    seen: u64,
}

impl DevState {
    fn new() -> Self {
        Self {
            buf: VecDeque::new(),
            outstanding: 0,
            next_ready: Cycle::ZERO,
            need_gap: false,
            last_inject: Cycle::ZERO,
            last_recorded: Cycle::ZERO,
            last_completion: Cycle::ZERO,
            first_arrival: None,
            last_arrival: Cycle::ZERO,
            seen: 0,
        }
    }

    /// Retires one outstanding request that completed at `finish`.
    fn retire(&mut self, finish: Cycle) {
        self.outstanding -= 1;
        self.last_completion = self.last_completion.max(finish);
    }
}

/// Why [`ClosedLoopDriver::pump`] returned control to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pump {
    /// More input could change the next injection: every buffered access
    /// near the horizon has been considered, the source is not closed, and
    /// the selection cannot be finalised until either more accesses are
    /// [`offer`]ed or the driver is [`close`]d.
    ///
    /// [`offer`]: ClosedLoopDriver::offer
    /// [`close`]: ClosedLoopDriver::close
    NeedInput,
    /// The iteration budget ran out mid-run. Pump again to continue;
    /// pausing here never changes results.
    Budget,
    /// The driver is closed and every buffered access has been injected.
    /// The session is ready for [`ClosedLoopDriver::finish`].
    Drained,
}

/// Resumable core of the closed-loop traffic model.
///
/// The driver demuxes a cycle-sorted access sequence into per-device
/// bounded windows and injects into a [`MemorySystem`] under virtual time,
/// exactly like [`TrafficModel`] — but input arrives by [`offer`] and the
/// simulation advances by [`pump`] under an explicit iteration budget, so
/// a caller can interleave many independent sessions (the `planaria-serve`
/// use case) or feed from any source.
///
/// # Determinism
///
/// The driver consumes buffered input only when pumping reports
/// [`Pump::NeedInput`], and selection re-runs from scratch after every
/// refill, so the final run is a pure function of the offered access
/// sequence: chunk sizes, budget pauses, and offer/pump interleavings are
/// all invisible. [`TrafficModel`] is a thin wrapper over this driver, and
/// the streaming regression tests pin the equivalence.
///
/// [`offer`]: ClosedLoopDriver::offer
/// [`pump`]: ClosedLoopDriver::pump
///
/// # Examples
///
/// ```
/// use planaria_core::NullPrefetcher;
/// use planaria_sim::{ClosedLoopDriver, MemorySystem, Pump, SystemConfig, TrafficConfig};
/// use planaria_trace::apps::{profile, AppId};
///
/// let trace = profile(AppId::HoK).scaled(500).build();
/// let mut sys = MemorySystem::new(SystemConfig::default(), Box::new(NullPrefetcher::new()));
/// let mut driver = ClosedLoopDriver::new(TrafficConfig::new(4));
///
/// for access in trace.accesses() {
///     driver.offer(access);
/// }
/// driver.close();
/// while driver.pump(&mut sys, 64) != Pump::Drained {}
/// let (result, report, _telemetry) = driver.finish(sys, "hok");
///
/// assert_eq!(result.accesses, trace.len() as u64);
/// assert_eq!(report.window, 4);
/// ```
#[derive(Debug)]
pub struct ClosedLoopDriver {
    cfg: TrafficConfig,
    devs: Vec<DevState>,
    /// SC hits complete after the fixed lookup latency. Misses need no
    /// list here: the memory system's in-flight entry holds each miss as
    /// a waiter and logs its device when the fill retires it.
    hit_heap: BinaryHeap<Reverse<(u64, usize)>>,
    clock: Cycle,
    /// Stream position of the next offered access (injection tiebreak).
    seq: u64,
    /// Recorded cycle of the last offered access; every not-yet-offered
    /// access arrives at or after this (sources are cycle-sorted), which
    /// is what makes the bounded pull horizon sound.
    last_cycle: Cycle,
    /// No further input will arrive ([`ClosedLoopDriver::close`]).
    closed: bool,
    /// The clock has been initialised from the first arrival.
    primed: bool,
    /// The memory system's completion log has been enabled.
    enabled: bool,
    /// Offered-but-not-yet-injected accesses across all devices.
    buffered: usize,
    /// Total accesses injected so far.
    injected: u64,
}

impl ClosedLoopDriver {
    /// A fresh driver with the given closed-loop configuration.
    pub fn new(cfg: TrafficConfig) -> Self {
        Self {
            cfg,
            devs: (0..DeviceId::COUNT).map(|_| DevState::new()).collect(),
            hit_heap: BinaryHeap::new(),
            clock: Cycle::ZERO,
            seq: 0,
            last_cycle: Cycle::ZERO,
            closed: false,
            primed: false,
            enabled: false,
            buffered: 0,
            injected: 0,
        }
    }

    /// Queues one access for injection, demuxing it to its device's
    /// buffer. Accesses must be offered in stream order (cycle-sorted;
    /// equal cycles keep their offer order), and offering after
    /// [`close`](ClosedLoopDriver::close) is a bug.
    ///
    /// # Panics
    ///
    /// Panics if the driver is already closed.
    pub fn offer(&mut self, a: &MemAccess) {
        assert!(!self.closed, "offer after close");
        debug_assert!(a.cycle >= self.last_cycle, "accesses must be offered cycle-sorted");
        let d = &mut self.devs[a.device.index()];
        if d.first_arrival.is_none() {
            d.first_arrival = Some(a.cycle);
            d.next_ready = a.cycle;
        }
        d.last_arrival = a.cycle;
        d.seen += 1;
        d.buf.push_back((self.seq, *a));
        self.seq += 1;
        self.last_cycle = a.cycle;
        self.buffered += 1;
    }

    /// Declares end-of-input: no further [`offer`](ClosedLoopDriver::offer)
    /// calls will arrive. Idempotent. Pumping after close drains every
    /// buffered access and then reports [`Pump::Drained`].
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Answers a [`Pump::NeedInput`] from `stream`: pulls at most `max`
    /// accesses into `chunk` and offers them in order. An empty pull is
    /// the end of the stream and closes the driver. Returns how many
    /// accesses were offered.
    ///
    /// This is the one feed step of every closed loop: the batch
    /// [`TrafficModel`] and each `planaria-serve` device refill through it.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero, if the driver is already closed, or if
    /// the stream ends with a latched
    /// [`planaria_trace::io::ParseTraceError`] — a truncated replay must
    /// not be reported as a short, successful run.
    pub fn refill(
        &mut self,
        stream: &mut dyn AccessStream,
        max: usize,
        chunk: &mut Vec<MemAccess>,
    ) -> usize {
        assert!(max > 0, "refill needs room for at least one access");
        assert!(!self.closed, "refill after close");
        let n = stream.next_chunk(max, chunk);
        if n == 0 {
            if let Some(e) = stream.error() {
                panic!("trace stream {:?} failed after {} accesses: {e}", stream.name(), self.seq);
            }
            self.close();
        }
        for a in chunk.iter() {
            self.offer(a);
        }
        n
    }

    /// Offered-but-not-yet-injected accesses across all devices.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Total accesses injected into the memory system so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The driver's virtual clock (the cycle of the most recent injection
    /// or stall step). Purely simulated time — the driver never reads a
    /// wall clock.
    pub fn now(&self) -> Cycle {
        self.clock
    }

    /// Advances the simulation by at most `budget` iterations (an
    /// iteration is one injection or one stall step of the virtual
    /// clock). Returns why control came back; see [`Pump`]. Re-pumping
    /// after [`Pump::NeedInput`] or [`Pump::Budget`] resumes exactly
    /// where the run left off.
    pub fn pump(&mut self, sys: &mut MemorySystem, mut budget: usize) -> Pump {
        if !self.enabled {
            sys.enable_completion_log();
            self.enabled = true;
        }
        if !self.primed {
            // Prime the clock from the first recorded arrival, exactly
            // like the batch model does after its first demux pull.
            if self.buffered == 0 {
                if !self.closed {
                    return Pump::NeedInput;
                }
                self.primed = true;
                return Pump::Drained;
            }
            self.clock =
                self.devs.iter().filter_map(|d| d.first_arrival).min().unwrap_or(Cycle::ZERO);
            self.primed = true;
        }
        let sc_hit_latency = sys.sc_hit_latency();

        loop {
            if budget == 0 {
                return Pump::Budget;
            }
            // Retire everything the memory system completed up to `clock`.
            // Re-entering after a pause re-runs this as a no-op (no time
            // passed, nothing new completed).
            sys.drain_completion_log(|slot, finish| self.devs[slot].retire(finish));
            while let Some(&Reverse((finish, slot))) = self.hit_heap.peek() {
                if finish > self.clock.as_u64() {
                    break;
                }
                self.hit_heap.pop();
                self.devs[slot].retire(Cycle::new(finish));
            }

            // The next injection: among devices with a buffered access and
            // a free window slot, the earliest (ready time, stream
            // position) — the tiebreak reproduces the trace's stable sort
            // order, so an infinite window degenerates to exact open-loop
            // replay. The selection is only final once no not-yet-offered
            // access could beat the candidate: a device never injects
            // before its recorded arrival, unseen arrivals are at or after
            // `last_cycle`, and ties go to the lower stream position, so
            // the caller must refill until `last_cycle` passes the
            // candidate's injection time (or close). Selection is a pure
            // function of buffered state, so it simply re-runs after every
            // refill.
            let mut candidate: Option<(Cycle, u64, usize)> = None;
            let mut any_stalled = false;
            for (slot, d) in self.devs.iter_mut().enumerate() {
                let Some(&(seq, front)) = d.buf.front() else {
                    // Empty buffer: if the device is window-full it may
                    // still have unseen input left, so treat it as
                    // stalled; otherwise any unseen access of its loses
                    // the selection anyway (it arrives at or after
                    // `last_cycle`, past the pull horizon).
                    if !self.closed && d.outstanding >= self.cfg.window {
                        any_stalled = true;
                    }
                    continue;
                };
                if d.outstanding >= self.cfg.window {
                    any_stalled = true;
                    continue;
                }
                if d.need_gap {
                    // Preserve the recorded think time to this access.
                    d.next_ready = d.last_inject + front.cycle.since(d.last_recorded);
                    d.need_gap = false;
                }
                let t = d.next_ready.max(self.clock);
                if candidate.is_none_or(|c| (c.0, c.1) > (t, seq)) {
                    candidate = Some((t, seq, slot));
                }
            }
            let bound = match candidate {
                Some((t, _, _)) => t,
                None => self.clock + TIME_STEP,
            };
            if !self.closed && self.last_cycle <= bound {
                return Pump::NeedInput;
            }

            let Some((t, _, slot)) = candidate else {
                if self.closed && self.buffered == 0 {
                    return Pump::Drained; // fully injected; tail drains in finish
                }
                // Every remaining device is window-stalled: let time pass
                // until completions free a slot.
                self.clock += TIME_STEP;
                sys.advance(self.clock);
                budget -= 1;
                continue;
            };

            if t > self.clock {
                if any_stalled {
                    // A stalled device freed by an earlier completion could
                    // preempt this candidate, so approach `t` in bounded
                    // steps, retiring completions along the way.
                    self.clock = t.min(self.clock + TIME_STEP);
                    sys.advance(self.clock);
                    budget -= 1;
                    continue;
                }
                // Nobody is stalled, so no completion can change the
                // candidate: jump straight to the injection time. The
                // system is *not* advanced here — `process` pumps the DRAM
                // at the access cycle itself, exactly as open loop does.
                self.clock = t;
            }

            let (_, recorded) = self.devs[slot].buf.pop_front().expect("candidate head present");
            self.buffered -= 1;
            let access = MemAccess { cycle: self.clock, ..recorded };
            let hit = sys.process_tracked(&access);
            let d = &mut self.devs[slot];
            d.outstanding += 1;
            d.last_inject = self.clock;
            d.last_recorded = recorded.cycle;
            d.need_gap = true;
            if hit {
                self.hit_heap.push(Reverse((self.clock.as_u64() + sc_hit_latency, slot)));
            }
            self.injected += 1;
            budget -= 1;
        }
    }

    /// Finalises a drained session: settles in-flight requests, tears the
    /// memory system down, and derives the per-device closed-loop report.
    ///
    /// # Panics
    ///
    /// Panics unless the driver was closed and pumped to
    /// [`Pump::Drained`] first.
    pub fn finish(
        mut self,
        sys: MemorySystem,
        workload: &str,
    ) -> (SimResult, ClosedLoopReport, TelemetryReport) {
        assert!(
            self.closed && self.buffered == 0,
            "finish requires a closed driver pumped to Drained"
        );
        let sc_hit_latency = sys.sc_hit_latency();
        // Settle what is still in flight: hits complete unconditionally,
        // misses at whatever completion time the final DRAM drain reports.
        while let Some(Reverse((finish, slot))) = self.hit_heap.pop() {
            self.devs[slot].retire(Cycle::new(finish));
        }
        let (result, _, telemetry, tail) = sys.finish_parts_logged(workload);
        for (slot, finish) in tail {
            self.devs[slot].retire(finish);
        }
        debug_assert!(self.devs.iter().all(|d| d.outstanding == 0), "all requests must retire");

        let outcomes: Vec<DeviceOutcome> = self
            .devs
            .iter()
            .enumerate()
            .filter_map(|(slot, d)| {
                let first_arrival = d.first_arrival?;
                let open_loop_span = (d.last_arrival + sc_hit_latency).since(first_arrival).max(1);
                let derived_span = d.last_completion.since(first_arrival).max(1);
                Some(DeviceOutcome {
                    device: DeviceId::from_index(slot).label().to_string(),
                    accesses: d.seen,
                    open_loop_finish: d.last_arrival.as_u64(),
                    derived_finish: d.last_completion.as_u64(),
                    open_loop_span,
                    derived_span,
                    slowdown: derived_span as f64 / open_loop_span as f64,
                })
            })
            .collect();
        let unfairness = {
            let max = outcomes.iter().map(|o| o.slowdown).fold(f64::MIN, f64::max);
            let min = outcomes.iter().map(|o| o.slowdown).fold(f64::MAX, f64::min);
            if outcomes.len() < 2 || min <= 0.0 {
                1.0
            } else {
                max / min
            }
        };
        let report = ClosedLoopReport { window: self.cfg.window, devices: outcomes, unfairness };
        (result, report, telemetry)
    }
}

/// Drives a [`MemorySystem`] with closed-loop, per-device injection.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrafficModel {
    cfg: TrafficConfig,
}

impl TrafficModel {
    /// A model injecting with the given configuration.
    pub fn new(cfg: TrafficConfig) -> Self {
        Self { cfg }
    }

    /// Runs a stream closed-loop to exhaustion and finalises the result,
    /// the per-device report and the merged [`TelemetryReport`]. The
    /// closed loop demuxes the stream into per-device windows on the fly,
    /// so runs of any length need only the accesses near the current
    /// injection horizon in memory.
    ///
    /// # Panics
    ///
    /// Panics if the stream ends with a latched
    /// [`planaria_trace::io::ParseTraceError`].
    pub fn run_stream_telemetry(
        self,
        mut sys: MemorySystem,
        stream: &mut dyn AccessStream,
    ) -> (SimResult, ClosedLoopReport, TelemetryReport) {
        let name = stream.name().to_string();
        let mut driver = ClosedLoopDriver::new(self.cfg);
        let mut chunk = Vec::new();
        loop {
            match driver.pump(&mut sys, usize::MAX) {
                Pump::NeedInput => {
                    driver.refill(stream, PULL_CHUNK, &mut chunk);
                }
                Pump::Budget => {}
                Pump::Drained => break,
            }
        }
        driver.finish(sys, &name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use planaria_cache::{CacheConfig, ReplacementKind};
    use planaria_common::{AccessKind, PhysAddr};
    use planaria_core::NullPrefetcher;
    use planaria_trace::apps::{profile, AppId};
    use planaria_trace::Trace;

    /// A read of `block` by core `cpu` recorded at `cycle`.
    fn read(cpu: u8, block: u64, cycle: u64) -> MemAccess {
        MemAccess::new(
            PhysAddr::new(block * 64),
            AccessKind::Read,
            DeviceId::Cpu(cpu),
            Cycle::new(cycle),
        )
    }

    fn small_trace() -> Trace {
        profile(AppId::HoK).scaled(2_000).build()
    }

    fn null_system() -> MemorySystem {
        MemorySystem::new(SystemConfig::default(), Box::new(NullPrefetcher::new()))
    }

    fn closed_loop(window: usize, stream: &mut dyn AccessStream) -> (SimResult, ClosedLoopReport) {
        let (result, report, _) =
            TrafficModel::new(TrafficConfig { window }).run_stream_telemetry(null_system(), stream);
        (result, report)
    }

    #[test]
    fn infinite_window_matches_open_loop() {
        let trace = small_trace();
        let open = null_system().run_stream(&mut trace.stream());
        let (closed, report) = closed_loop(usize::MAX, &mut trace.stream());
        assert_eq!(open, closed, "infinite window must reproduce open loop bit-for-bit");
        assert_eq!(report.window, usize::MAX);
    }

    #[test]
    fn small_window_throttles_injection() {
        let trace = small_trace();
        let (r, report) = closed_loop(1, &mut trace.stream());
        assert_eq!(r.accesses, trace.len() as u64, "every access still injects");
        assert!(
            report.devices.iter().any(|d| d.derived_finish > d.open_loop_finish),
            "window=1 must delay at least one device past its recorded schedule"
        );
        assert!(report.unfairness >= 1.0);
    }

    #[test]
    fn a_miss_retires_at_its_own_fill_not_an_earlier_one() {
        // A 2-set direct-mapped SC: blocks 0 and 2 share set 0. While cpu2's
        // injection pumps DRAM up to cycle 10,000, block 0 fills and block
        // 2's fill then evicts it, so cpu2 misses on block 0 again. It must
        // complete at that second fill, not at the first one, which landed
        // before cpu2 was even injected.
        let cfg = SystemConfig {
            cache: CacheConfig { size_bytes: 128, ways: 1, replacement: ReplacementKind::Lru },
            ..SystemConfig::default()
        };
        let sys = MemorySystem::new(cfg, Box::new(NullPrefetcher::new()));
        let trace = Trace::new("refetch", vec![read(0, 0, 0), read(1, 2, 1), read(2, 0, 10_000)]);
        let (r, report, _) =
            TrafficModel::new(TrafficConfig::new(8)).run_stream_telemetry(sys, &mut trace.stream());
        assert_eq!(r.traffic.demand_reads, 3, "block 0 is fetched twice");
        // No device stalls at window 8, so each injects at its recorded
        // arrival (`open_loop_finish`) and must complete after it.
        for d in &report.devices {
            assert!(d.derived_finish >= d.open_loop_finish, "{} finished early: {d:?}", d.device);
        }
        let cpu2 = report.devices.iter().find(|d| d.device == "cpu2").expect("cpu2 ran");
        assert!(cpu2.slowdown >= 1.0, "cpu2 retired at the earlier fill: {cpu2:?}");
    }

    #[test]
    fn merge_storm_retires_every_waiter_at_the_fill() {
        // Four requestors miss on one block within its fill latency: two
        // waiters sit inline in the in-flight entry and two spill, and all
        // four must be logged and retired at that one fill.
        let misses: Vec<MemAccess> = (0..4).map(|cpu| read(cpu, 0, u64::from(cpu))).collect();
        let (r, report) =
            closed_loop(usize::MAX, &mut Trace::new("storm", misses.clone()).stream());
        assert_eq!(r.traffic.demand_reads, 1, "one fill, four waiters");
        let fill = report.devices[0].derived_finish;
        assert_eq!(report.devices.len(), 4);
        assert!(report.devices.iter().all(|d| d.derived_finish == fill), "{:?}", report.devices);

        // With window 1, each requestor's next access (a hit on the filled
        // block) waits for its slot, so it injects only once the fill lands.
        let mut accesses = misses;
        accesses.extend((0..4).map(|cpu| read(cpu, 0, 4 + u64::from(cpu))));
        let (r, report) = closed_loop(1, &mut Trace::new("storm", accesses).stream());
        assert_eq!((r.accesses, r.hit_rate), (8, 0.5), "four merged misses, then four hits");
        let hit_latency = SystemConfig::default().sc_hit_latency;
        for d in &report.devices {
            let injected = d.derived_finish - hit_latency;
            assert!(
                injected >= fill,
                "{} injected at {injected}, before the fill at {fill}",
                d.device
            );
        }
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_rejected() {
        let _ = TrafficConfig::new(0);
    }

    #[test]
    fn streamed_closed_loop_matches_materialized() {
        // A tight window (heavy contention) through a WorkloadStream must
        // reproduce the materialized closed loop bit-for-bit.
        let spec = profile(AppId::HoK).scaled(2_000);
        let (mat, mat_report) = closed_loop(2, &mut spec.build().stream());
        let (str_r, str_report) = closed_loop(2, &mut spec.stream());
        assert_eq!(mat, str_r, "closed-loop result diverged between streamed and materialized");
        assert_eq!(mat_report, str_report);
    }

    #[test]
    fn driver_is_chunking_and_budget_invariant() {
        // The resumable driver must produce the batch model's result no
        // matter how its input is chunked or how tightly pumping is
        // budgeted — that independence is what makes served sessions and
        // snapshot replay bit-identical to uninterrupted runs.
        let trace = small_trace();
        let (batch, batch_report) = closed_loop(2, &mut trace.stream());

        for (chunk, budget) in [(1usize, 1usize), (7, 3), (4096, usize::MAX)] {
            let mut sys = null_system();
            let mut driver = ClosedLoopDriver::new(TrafficConfig::new(2));
            let (mut stream, mut buf) = (trace.stream(), Vec::new());
            loop {
                match driver.pump(&mut sys, budget) {
                    Pump::NeedInput => {
                        driver.refill(&mut stream, chunk, &mut buf);
                    }
                    Pump::Budget => {}
                    Pump::Drained => break,
                }
            }
            let (r, report, _) = driver.finish(sys, trace.name());
            assert_eq!(batch, r, "driver diverged at chunk={chunk} budget={budget}");
            assert_eq!(batch_report, report, "report diverged at chunk={chunk} budget={budget}");
        }
    }
}
