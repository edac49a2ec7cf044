//! The memory-system event loop.

use planaria_cache::{AccessResult, CacheConfig, PrefetchQueue, SetAssocCache};
use planaria_common::{Cycle, DeviceId, MemAccess, PhysAddr, PrefetchOrigin, PrefetchRequest};
use planaria_core::Prefetcher;
use planaria_dram::{Completion, DramConfig, MemoryController, Priority};
use planaria_hash::FastHashMap;
use planaria_telemetry::{EventKind, Telemetry, TelemetryConfig, TelemetryReport};
use planaria_trace::stream::AccessStream;

use crate::metrics::{DeviceStat, SimResult, TrafficBreakdown};

/// Accesses pulled per [`AccessStream::next_chunk`] call on the streamed
/// run paths — large enough to amortise per-chunk overhead, small enough
/// that the engine's working buffer stays cache-resident and steady-state
/// memory is flat regardless of trace length.
pub const STREAM_CHUNK: usize = 8192;

/// Feedback-directed prefetch throttling (Srinath et al., HPCA 2007
/// style): the controller samples prefetch accuracy over fixed intervals
/// and gates the prefetcher's requests while accuracy is poor.
///
/// Orthogonal to the prefetcher: a governor can tame an inaccurate
/// prefetcher's traffic (at the cost of its remaining coverage), while an
/// accurate one never trips it — which is exactly the comparison the
/// `ablation_governor` harness runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorConfig {
    /// Demand accesses per sampling interval.
    pub interval: u64,
    /// Accuracy below which prefetching is gated for the next interval.
    pub low_accuracy: f64,
    /// Minimum prefetch fills in an interval before the verdict counts
    /// (avoids gating on noise).
    pub min_samples: u64,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        Self { interval: 10_000, low_accuracy: 0.4, min_samples: 64 }
    }
}

/// Full-system configuration (Table 1 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// System-cache geometry.
    pub cache: CacheConfig,
    /// LPDDR4 controller configuration.
    pub dram: DramConfig,
    /// SC lookup/hit latency in cycles.
    pub sc_hit_latency: u64,
    /// Prefetch-queue capacity (Figure 1's staging queue).
    pub prefetch_queue_cap: usize,
    /// Energy of one SC data access (pJ) — demand hits and all fills.
    pub sc_access_pj: f64,
    /// Energy of one prefetcher metadata-table access (pJ).
    pub table_access_pj: f64,
    /// Memory-controller clock (Hz), for absolute power reporting.
    pub clock_hz: f64,
    /// Optional feedback-directed prefetch throttling.
    pub governor: Option<GovernorConfig>,
    /// Decision tracing (counting always on; `events` opts into full
    /// event capture).
    pub telemetry: TelemetryConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            cache: CacheConfig::system_cache(),
            dram: DramConfig::lpddr4(),
            sc_hit_latency: 30,
            prefetch_queue_cap: 64,
            sc_access_pj: 500.0,
            table_access_pj: 15.0,
            clock_hz: 1.6e9,
            governor: None,
            telemetry: TelemetryConfig::counting(),
        }
    }
}

/// Demand accesses waiting on one in-flight fill: each entry is the
/// demand's arrival cycle plus its device index (for per-device latency
/// attribution, and for the closed loop's completion log). It is the one
/// list of outstanding misses: the closed-loop driver keeps no copy.
///
/// Almost every fill has zero or one waiter, so the first two live inline
/// and the steady-state miss path never heap-allocates; only pathological
/// merge storms touch the spill vector.
#[derive(Debug, Clone)]
struct WaiterList {
    inline: [(Cycle, u8); 2],
    len: u8,
    spill: Vec<(Cycle, u8)>,
}

impl Default for WaiterList {
    fn default() -> Self {
        Self { inline: [(Cycle::ZERO, 0); 2], len: 0, spill: Vec::new() }
    }
}

impl WaiterList {
    fn one(first: Cycle, device: u8) -> Self {
        Self { inline: [(first, device), (Cycle::ZERO, 0)], len: 1, spill: Vec::new() }
    }

    fn push(&mut self, cycle: Cycle, device: u8) {
        if (self.len as usize) < self.inline.len() {
            self.inline[self.len as usize] = (cycle, device);
            self.len += 1;
        } else {
            self.spill.push((cycle, device));
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn iter(&self) -> impl Iterator<Item = (Cycle, u8)> + '_ {
        self.inline[..self.len as usize].iter().copied().chain(self.spill.iter().copied())
    }

    fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }
}

#[derive(Debug, Clone)]
struct Inflight {
    /// `Some(origin)` while the outstanding fill is still speculative.
    origin: Option<PrefetchOrigin>,
    /// Demand accesses (arrival cycle, device index) waiting on this fill.
    waiters: WaiterList,
    /// A waiting demand was a write: the fill must land dirty
    /// (write-allocate semantics).
    wrote: bool,
    /// Device index of the requester that caused the fill (the missing
    /// demand's device, or the prefetch trigger's device).
    device: u8,
}

/// The trace-driven memory system: SC + prefetcher + LPDDR4.
pub struct MemorySystem {
    cfg: SystemConfig,
    sc: SetAssocCache,
    dram: MemoryController,
    prefetcher: Box<dyn Prefetcher>,
    queue: PrefetchQueue,
    /// Outstanding fills keyed by block number.
    inflight: FastHashMap<u64, Inflight>,
    scratch: Vec<PrefetchRequest>,
    /// Reusable DRAM-completion buffer (see [`MemorySystem::pump_dram`]).
    completions: Vec<Completion>,
    /// System-side lifecycle telemetry (issued/filled/used/evicted/late/
    /// filtered): the one ledger of prefetch outcomes, which the governor
    /// samples and [`SimResult`]'s prefetch fields are read from. The
    /// prefetcher carries its own handle for decision events.
    tel: Telemetry,
    // --- accumulated metrics ---
    latency_sum: f64,
    demand_count: u64,
    writebacks_dropped: u64,
    /// Demand latency accumulated per device (always integer-valued, so
    /// the per-device sums reproduce `latency_sum` exactly).
    device_lat: [f64; DeviceId::COUNT],
    /// When `Some`, every demand waiter a DRAM fill retires is logged as
    /// `(device index, finish)`, in completion order and then waiter
    /// order, for the closed-loop traffic model to drain; `None` (the
    /// open-loop default) costs nothing.
    completion_log: Option<Vec<(usize, Cycle)>>,
    /// Governor state: (interval-start useful, interval-start fills,
    /// accesses into interval, currently gated).
    governor_state: GovernorState,
    first_cycle: Option<Cycle>,
    last_cycle: Cycle,
}

#[derive(Debug, Clone, Copy, Default)]
struct GovernorState {
    interval_accesses: u64,
    useful_at_start: u64,
    fills_at_start: u64,
    gated: bool,
    /// Round-robin probe counter: while gated, one request in
    /// [`GOVERNOR_PROBE_PERIOD`] still goes out so accuracy keeps being
    /// sampled (otherwise a gated prefetcher could never redeem itself).
    probe: u64,
}

/// While gated, 1 in this many requests is let through as a probe.
const GOVERNOR_PROBE_PERIOD: u64 = 8;

impl MemorySystem {
    /// Builds a system around a prefetcher, handing it the configured
    /// telemetry (instrumented prefetchers start tracing immediately).
    pub fn new(cfg: SystemConfig, mut prefetcher: Box<dyn Prefetcher>) -> Self {
        prefetcher.configure_telemetry(&cfg.telemetry);
        Self {
            sc: SetAssocCache::new(cfg.cache),
            dram: MemoryController::new(cfg.dram),
            prefetcher,
            queue: PrefetchQueue::new(cfg.prefetch_queue_cap),
            inflight: FastHashMap::default(),
            scratch: Vec::new(),
            completions: Vec::new(),
            tel: Telemetry::from_config(&cfg.telemetry),
            latency_sum: 0.0,
            demand_count: 0,
            writebacks_dropped: 0,
            device_lat: [0.0; DeviceId::COUNT],
            completion_log: None,
            governor_state: GovernorState::default(),
            first_cycle: None,
            last_cycle: Cycle::ZERO,
            cfg,
        }
    }

    /// The cumulative SC demand hit rate so far (for live progress views;
    /// the authoritative numbers come from [`MemorySystem::finish`]).
    pub fn interim_hit_rate(&self) -> f64 {
        self.sc.stats().hit_rate()
    }

    /// Advances the governor's interval clock; returns whether prefetch
    /// requests are currently gated.
    fn governor_tick(&mut self) -> bool {
        let Some(gov) = self.cfg.governor else { return false };
        let g = &mut self.governor_state;
        g.interval_accesses += 1;
        if g.interval_accesses >= gov.interval {
            let filled = self.tel.counting.count_of(EventKind::PrefetchFilled);
            let used = self.tel.counting.count_of(EventKind::PrefetchUsed);
            let fills = filled - g.fills_at_start;
            let useful = used - g.useful_at_start;
            if fills >= gov.min_samples {
                let accuracy = useful as f64 / fills as f64;
                g.gated = accuracy < gov.low_accuracy;
            }
            // Too few samples: keep the previous verdict (the probe stream
            // keeps feeding samples while gated).
            g.interval_accesses = 0;
            g.fills_at_start = filled;
            g.useful_at_start = used;
        }
        g.gated
    }

    fn handle_completion(&mut self, c: Completion) {
        if c.is_write {
            return; // writeback retired; nothing waits on it
        }
        let Some(entry) = self.inflight.remove(&c.addr.block_number()) else {
            return;
        };
        // Waiting demands pay the residual memory latency, each charged to
        // the device that issued the waiting demand.
        for (w, dev) in entry.waiters.iter() {
            let lat = (self.cfg.sc_hit_latency + c.finish.since(w)) as f64;
            self.latency_sum += lat;
            self.device_lat[dev as usize] += lat;
            if let Some(log) = &mut self.completion_log {
                log.push((dev as usize, c.finish));
            }
        }
        // A prefetch nobody consumed fills speculatively; anything a demand
        // waited on fills as a demand line.
        let origin = if entry.waiters.is_empty() { entry.origin } else { None };
        let filler = DeviceId::from_index(entry.device as usize);
        let evicted = self.sc.fill_by(c.addr, origin, filler);
        if let Some(o) = origin {
            self.tel.lifecycle_for(EventKind::PrefetchFilled, o, filler, c.addr.as_u64(), c.finish);
        }
        if entry.wrote {
            self.sc.mark_dirty(c.addr);
        }
        if let Some(e) = evicted {
            if e.was_unused_prefetch {
                if let Some(o) = e.origin {
                    self.tel.lifecycle_for(
                        EventKind::PrefetchEvictedUnused,
                        o,
                        e.device,
                        e.addr.as_u64(),
                        c.finish,
                    );
                }
            }
            if e.dirty {
                self.enqueue_writeback(e.addr, c.finish);
            }
        }
    }

    /// Advances wall-clock time without injecting an access: DRAM services
    /// whatever it holds up to `now` and completions retire. The
    /// closed-loop traffic model uses this to let time pass while every
    /// requestor's window is full; open-loop runs never need it.
    ///
    /// Deliberately leaves `last_cycle` (the last *demand arrival*) alone,
    /// so the end-of-run drain in [`MemorySystem::finish`] behaves
    /// identically whether or not the clock was advanced past the final
    /// access.
    pub(crate) fn advance(&mut self, now: Cycle) {
        self.pump_dram(now);
    }

    /// Starts recording `(device index, finish)` for every demand waiter
    /// a DRAM fill retires (closed-loop mode only; the log is off by
    /// default).
    pub(crate) fn enable_completion_log(&mut self) {
        self.completion_log = Some(Vec::new());
    }

    /// Hands every logged retirement to `retire` in log order, leaving
    /// the log empty.
    pub(crate) fn drain_completion_log(&mut self, mut retire: impl FnMut(usize, Cycle)) {
        if let Some(log) = &mut self.completion_log {
            for (device, finish) in log.drain(..) {
                retire(device, finish);
            }
        }
    }

    /// The configured SC lookup/hit latency (closed-loop completion time
    /// of a demand hit).
    pub(crate) fn sc_hit_latency(&self) -> u64 {
        self.cfg.sc_hit_latency
    }

    /// [`MemorySystem::pump_dram`] with the completion buffer supplied by
    /// the caller, so batch processing moves it out of `self` once per
    /// chunk instead of once per access.
    fn pump_dram_into(&mut self, now: Cycle, buf: &mut Vec<Completion>) {
        self.dram.advance_to(now, buf);
        for c in buf.drain(..) {
            self.handle_completion(c);
        }
    }

    fn pump_dram(&mut self, now: Cycle) {
        // The buffer is moved out of `self` for the duration of the loop so
        // `handle_completion(&mut self)` can run; it is handed back (still
        // holding its capacity) afterwards, so steady state never allocates.
        let mut buf = std::mem::take(&mut self.completions);
        self.pump_dram_into(now, &mut buf);
        self.completions = buf;
    }

    /// Forces queue room for a must-issue request by servicing the DRAM
    /// forward in bounded steps (models controller backpressure).
    fn make_room(&mut self, addr: PhysAddr, mut now: Cycle, buf: &mut Vec<Completion>) -> Cycle {
        while !self.dram.has_room_for(addr) {
            now += 500;
            self.pump_dram_into(now, buf);
        }
        now
    }

    fn enqueue_writeback(&mut self, addr: PhysAddr, now: Cycle) {
        if !self.dram.has_room_for(addr) {
            // Writebacks are fire-and-forget; under extreme pressure we
            // drop rather than deadlock the trace loop, and count it.
            self.writebacks_dropped += 1;
            return;
        }
        self.dram.try_enqueue(addr, true, Priority::Writeback, now).expect("room checked");
    }

    /// Feeds a chunk of demand accesses through the system.
    ///
    /// Behaviourally identical to feeding the accesses one at a time, so
    /// results do not depend on how a stream is cut into chunks — the
    /// per-access feedback loop (prefetches fill the cache and change later
    /// hit/miss outcomes) rules out any coarser dispatch — but the reusable
    /// completion/scratch buffers move out of `self` once per chunk instead
    /// of once per access, so the per-access overhead is amortised across
    /// the batch.
    pub fn process_batch(&mut self, batch: &[MemAccess]) {
        let mut buf = std::mem::take(&mut self.completions);
        let mut scratch = std::mem::take(&mut self.scratch);
        for access in batch {
            self.step_access(access, &mut buf, &mut scratch);
        }
        self.completions = buf;
        self.scratch = scratch;
    }

    /// Feeds one demand access through the system, reporting whether it
    /// hit in the SC (`true`) or must wait on a DRAM fill (`false`). The
    /// closed-loop traffic model needs the distinction to decide when the
    /// requestor's window slot frees.
    pub(crate) fn process_tracked(&mut self, access: &MemAccess) -> bool {
        let mut buf = std::mem::take(&mut self.completions);
        let mut scratch = std::mem::take(&mut self.scratch);
        let was_hit = self.step_access(access, &mut buf, &mut scratch);
        self.completions = buf;
        self.scratch = scratch;
        was_hit
    }

    /// One demand access against caller-held scratch buffers (the batched
    /// dispatch hoists the buffer handoff out of the access loop).
    fn step_access(
        &mut self,
        access: &MemAccess,
        buf: &mut Vec<Completion>,
        scratch: &mut Vec<PrefetchRequest>,
    ) -> bool {
        let now = access.cycle;
        let device = access.device;
        let dev_idx = device.index() as u8;
        self.first_cycle.get_or_insert(now);
        self.last_cycle = self.last_cycle.max(now);
        self.pump_dram_into(now, buf);
        self.demand_count += 1;

        let block_addr = access.addr.block_base();
        let result = self.sc.access_by(access.addr, access.kind, device);
        // The first demand touch of a prefetched line re-triggers the
        // prefetcher exactly like a miss would (the standard
        // "prefetched hit" trigger) — without it, a chain of next-line
        // prefetches would stall after every successful step.
        let covered_hit = matches!(result, AccessResult::Hit { first_use_of_prefetch: None });
        let was_hit = result.is_hit();
        match result {
            AccessResult::Hit { first_use_of_prefetch } => {
                self.latency_sum += self.cfg.sc_hit_latency as f64;
                self.device_lat[device.index()] += self.cfg.sc_hit_latency as f64;
                if let Some(o) = first_use_of_prefetch {
                    self.tel.lifecycle_for(
                        EventKind::PrefetchUsed,
                        o,
                        device,
                        block_addr.as_u64(),
                        now,
                    );
                }
            }
            AccessResult::Miss => {
                if let Some(entry) = self.inflight.get_mut(&block_addr.block_number()) {
                    // Merge into the outstanding fill; a speculative fill
                    // becomes a (late) demand fill.
                    if let Some(o) = entry.origin.take() {
                        self.tel.lifecycle_for(
                            EventKind::PrefetchLate,
                            o,
                            device,
                            block_addr.as_u64(),
                            now,
                        );
                    }
                    entry.waiters.push(now, dev_idx);
                    entry.wrote |= access.kind.is_write();
                } else {
                    // A queued-but-unissued prefetch is superseded.
                    self.queue.cancel(block_addr);
                    let now = self.make_room(block_addr, now, buf);
                    self.dram
                        .try_enqueue(block_addr, false, Priority::Demand, now)
                        .expect("room was made");
                    self.inflight.insert(
                        block_addr.block_number(),
                        Inflight {
                            origin: None,
                            waiters: WaiterList::one(access.cycle, dev_idx),
                            wrote: access.kind.is_write(),
                            device: dev_idx,
                        },
                    );
                }
            }
        }

        // Prefetcher: learning on every access, issuing per its own rules.
        // (Learning always runs; the governor only gates the requests.)
        let gated = self.governor_tick();
        scratch.clear();
        self.prefetcher.on_access(access, covered_hit, scratch);
        // Prefetches are attributed to the device whose demand triggered
        // them, regardless of which sub-prefetcher produced the request.
        for req in scratch.iter_mut() {
            req.device = device;
        }
        if gated {
            // Keep one probe in GOVERNOR_PROBE_PERIOD; drop the rest.
            let g = &mut self.governor_state;
            scratch.retain(|_| {
                g.probe += 1;
                g.probe.is_multiple_of(GOVERNOR_PROBE_PERIOD)
            });
        }
        for req in scratch.drain(..) {
            if self.sc.contains(req.addr)
                || self.inflight.contains_key(&req.addr.block_number())
                || self.queue.contains_block(req.addr)
            {
                self.tel.lifecycle_for(
                    EventKind::PrefetchFiltered,
                    req.origin,
                    req.device,
                    req.addr.as_u64(),
                    now,
                );
                continue;
            }
            self.queue.push(req);
        }

        self.issue_staged(now);
        was_hit
    }

    /// Drains staged prefetches into whatever channel room exists,
    /// enqueueing them at `now`.
    fn issue_staged(&mut self, now: Cycle) {
        while let Some(req) = self.next_issuable() {
            self.dram.try_enqueue(req.addr, false, Priority::Prefetch, now).expect("room checked");
            self.inflight.insert(
                req.addr.block_number(),
                Inflight {
                    origin: Some(req.origin),
                    waiters: WaiterList::default(),
                    wrote: false,
                    device: req.device.index() as u8,
                },
            );
            self.tel.lifecycle_for(
                EventKind::PrefetchIssued,
                req.origin,
                req.device,
                req.addr.as_u64(),
                now,
            );
        }
    }

    /// Pops the next prefetch that should actually go to DRAM. Entries that
    /// became stale while queued (block filled meanwhile) are discarded;
    /// a full target channel stops draining (FIFO head-of-line — the
    /// speculative stream must not starve any channel of queue slots).
    fn next_issuable(&mut self) -> Option<PrefetchRequest> {
        loop {
            let head = *self.queue.peek()?;
            if self.sc.contains(head.addr) || self.inflight.contains_key(&head.addr.block_number())
            {
                self.queue.pop(); // stale: already present or being fetched
                continue;
            }
            if !self.dram.has_room_for(head.addr) {
                // Head keeps its place (it was only peeked, so the dedup
                // set and FIFO order are untouched).
                return None;
            }
            return self.queue.pop();
        }
    }

    /// Runs a stream to exhaustion and finalises the result:
    /// [`MemorySystem::run_stream_telemetry`] without warmup, keeping only
    /// the result.
    ///
    /// # Panics
    ///
    /// As [`MemorySystem::run_stream_telemetry`].
    ///
    /// # Examples
    ///
    /// ```
    /// use planaria_sim::experiment::PrefetcherKind;
    /// use planaria_sim::{MemorySystem, SystemConfig};
    /// use planaria_trace::apps::{profile, AppId};
    ///
    /// let spec = profile(AppId::HoK).scaled(5_000);
    /// let sys = |k: PrefetcherKind| MemorySystem::new(SystemConfig::default(), k.build());
    ///
    /// // A materialized trace replays through its stream adapter.
    /// let materialized = sys(PrefetcherKind::Planaria).run_stream(&mut spec.build().stream());
    /// let streamed = sys(PrefetcherKind::Planaria).run_stream(&mut spec.stream());
    /// assert_eq!(streamed, materialized);
    /// ```
    pub fn run_stream(self, stream: &mut dyn AccessStream) -> SimResult {
        self.run_stream_telemetry(stream, 0.0).0
    }

    /// Runs a stream to exhaustion, discarding metrics accumulated during
    /// the leading `warmup` fraction (`0.0..1.0`) of accesses, and returns
    /// the result with the merged [`TelemetryReport`] — prefetcher
    /// decision events plus system-side prefetch-lifecycle events,
    /// stable-sorted by cycle.
    ///
    /// At the warmup boundary cache contents, prefetcher state and DRAM
    /// protocol state carry over — only the counters reset — so
    /// steady-state behaviour is measured. Memory use is flat in the
    /// stream length: the engine holds one [`STREAM_CHUNK`]-bounded
    /// working buffer, never the whole trace. A materialized trace runs
    /// through [`planaria_trace::Trace::stream`].
    ///
    /// # Panics
    ///
    /// Panics if `warmup` is not within `0.0..1.0`, if `warmup` is
    /// positive and the stream does not know its
    /// [`AccessStream::total_len`] (the boundary would be a guess), or if
    /// the stream ends with a latched
    /// [`planaria_trace::io::ParseTraceError`] — a truncated replay must
    /// not be reported as a short, successful run.
    ///
    /// # Examples
    ///
    /// ```
    /// use planaria_sim::experiment::PrefetcherKind;
    /// use planaria_sim::{EventKind, MemorySystem, SystemConfig, TelemetryConfig};
    /// use planaria_trace::apps::{profile, AppId};
    ///
    /// let trace = profile(AppId::HoK).scaled(5_000).build();
    /// let cfg = SystemConfig { telemetry: TelemetryConfig::events(), ..Default::default() };
    /// let sys = MemorySystem::new(cfg, PrefetcherKind::Planaria.build());
    /// let (result, report) = sys.run_stream_telemetry(&mut trace.stream(), 0.0);
    ///
    /// // The issue count at enqueue matches the DRAM reads it executed.
    /// assert_eq!(report.count(EventKind::PrefetchIssued), result.traffic.prefetch_reads);
    /// // Full event capture was on, so the decision trace is populated.
    /// assert!(!report.events.is_empty());
    /// ```
    pub fn run_stream_telemetry(
        self,
        stream: &mut dyn AccessStream,
        warmup: f64,
    ) -> (SimResult, TelemetryReport) {
        let (result, _, telemetry) = self.run_stream_core(stream, warmup, usize::MAX, None);
        (result, telemetry)
    }

    /// The streamed loop behind [`MemorySystem::run_stream_telemetry`],
    /// additionally invoking `observe` with `(accesses_processed,
    /// interim_hit_rate)` every `every` accesses — the runner's live
    /// progress hook — and returning the final DRAM command counters.
    /// Observation never perturbs the simulation.
    pub(crate) fn run_stream_core(
        mut self,
        stream: &mut dyn AccessStream,
        warmup: f64,
        every: usize,
        mut observe: Option<&mut dyn FnMut(usize, f64)>,
    ) -> (SimResult, planaria_dram::DramStats, TelemetryReport) {
        assert!((0.0..1.0).contains(&warmup), "warmup fraction must be in [0, 1)");
        let skip = if warmup > 0.0 {
            let total =
                stream.total_len().expect("warmup fraction needs a stream with a known length");
            (total as f64 * warmup) as usize
        } else {
            0
        };
        let name = stream.name().to_string();
        // Pull in chunks clipped at the warmup boundary and the observation
        // interval — the only two places the loop must stop — so everything
        // in between runs through the batched path.
        let mut done = 0usize;
        let mut chunk = Vec::new();
        loop {
            if done == skip && skip > 0 {
                self.reset_metrics();
            }
            let mut max = STREAM_CHUNK;
            if done < skip {
                max = max.min(skip - done);
            }
            let next_stop = (done / every).saturating_add(1).saturating_mul(every);
            max = max.min(next_stop - done);
            let n = stream.next_chunk(max, &mut chunk);
            if n == 0 {
                break;
            }
            self.process_batch(&chunk);
            done += n;
            if let Some(cb) = observe.as_deref_mut() {
                if done.is_multiple_of(every) {
                    cb(done, self.interim_hit_rate());
                }
            }
        }
        if let Some(e) = stream.error() {
            panic!("trace stream {name:?} failed after {done} accesses: {e}");
        }
        let (result, dram, telemetry, _) = self.finish_parts_logged(&name);
        (result, dram, telemetry)
    }

    /// Zeroes every accumulated metric while keeping microarchitectural
    /// state (cache contents, prefetcher tables, DRAM bank state).
    fn reset_metrics(&mut self) {
        self.sc.reset_stats();
        self.dram.reset_stats();
        // Demand waiters from before the boundary must not pay their
        // residual fill latency into the post-boundary `latency_sum` —
        // their arrivals were discarded with `demand_count`, so charging
        // the latency alone would inflate steady-state AMAT. The fills
        // themselves still land correctly: merged demand entries already
        // carry `origin: None` and keep their `wrote` flag. The closed loop
        // retires its misses from these waiters, so it must never warm up.
        debug_assert!(self.completion_log.is_none(), "the closed loop has no warmup");
        #[allow(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "clears every entry the same way, so visit order cannot matter"
        )]
        for entry in self.inflight.values_mut() {
            entry.waiters.clear();
        }
        self.latency_sum = 0.0;
        self.demand_count = 0;
        self.writebacks_dropped = 0;
        self.device_lat = [0.0; DeviceId::COUNT];
        self.governor_state = GovernorState::default();
        self.first_cycle = None;
        // Telemetry restarts with the other metrics: the system handle
        // resets in place, the prefetcher gets a fresh handle.
        self.tel.reset();
        self.prefetcher.configure_telemetry(&self.cfg.telemetry);
    }

    /// Drains all outstanding work and produces the result record.
    pub fn finish(self, workload: &str) -> SimResult {
        self.finish_parts_logged(workload).0
    }

    /// Drains all outstanding work and returns the result record, the
    /// final DRAM command counters, the merged telemetry, and the
    /// retirements logged since the last
    /// [`MemorySystem::drain_completion_log`] — including those of the
    /// final drain, which the closed-loop traffic model needs to settle
    /// its remaining outstanding requests.
    pub(crate) fn finish_parts_logged(
        mut self,
        workload: &str,
    ) -> (SimResult, planaria_dram::DramStats, TelemetryReport, Vec<(usize, Cycle)>) {
        // Issue whatever prefetches still fit, then let DRAM finish.
        self.issue_staged(self.last_cycle);
        let mut buf = std::mem::take(&mut self.completions);
        self.dram.drain(&mut buf);
        for c in buf.drain(..) {
            self.handle_completion(c);
        }
        self.completions = buf;
        let tail_log = self.completion_log.take().unwrap_or_default();

        let mut telemetry = self.prefetcher.telemetry_report().unwrap_or_default();
        let cache = *self.sc.stats();
        let dram = self.dram.stats();
        let duration = dram
            .last_finish
            .max(self.last_cycle)
            .since(self.first_cycle.unwrap_or(Cycle::ZERO))
            .max(1);
        // The DRAM channels split `n_rd` by request priority at command
        // execution, so the breakdown is exact even when requests straddle
        // a warmup stats reset.
        debug_assert_eq!(dram.n_rd, dram.n_rd_demand + dram.n_rd_prefetch);
        let demand_reads = dram.n_rd_demand;
        let dram_energy = self.dram.energy_pj(duration);
        let sc_energy = (cache.demand_accesses() + cache.fills) as f64 * self.cfg.sc_access_pj;
        let pf_energy = self.prefetcher.table_accesses() as f64 * self.cfg.table_access_pj;
        let total_energy = dram_energy + sc_energy + pf_energy;
        let amat =
            if self.demand_count == 0 { 0.0 } else { self.latency_sum / self.demand_count as f64 };
        // Every prefetch outcome is read from the system's lifecycle ledger,
        // the one place it was counted.
        let ledger = self.tel.report();
        let used = ledger.count(EventKind::PrefetchUsed);
        let filled = ledger.count(EventKind::PrefetchFilled);
        let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };

        let result = SimResult {
            workload: workload.to_string(),
            prefetcher: self.prefetcher.name().to_string(),
            accesses: self.demand_count,
            hit_rate: cache.hit_rate(),
            amat_cycles: amat,
            traffic: TrafficBreakdown {
                demand_reads,
                prefetch_reads: dram.n_rd_prefetch,
                writebacks: dram.n_wr,
            },
            useful_prefetches: used,
            useful_slp: ledger.by_origin(EventKind::PrefetchUsed, PrefetchOrigin::Slp),
            useful_tlp: ledger.by_origin(EventKind::PrefetchUsed, PrefetchOrigin::Tlp),
            late_prefetches: ledger.count(EventKind::PrefetchLate),
            polluting_prefetches: ledger.count(EventKind::PrefetchEvictedUnused),
            prefetch_accuracy: ratio(used, filled),
            prefetch_coverage: ratio(used, used + cache.demand_misses),
            prefetches_filtered: ledger.count(EventKind::PrefetchFiltered),
            writebacks_dropped: self.writebacks_dropped,
            duration_cycles: duration,
            dram_energy_pj: dram_energy,
            sc_energy_pj: sc_energy,
            prefetcher_energy_pj: pf_energy,
            total_energy_pj: total_energy,
            power_mw: total_energy / duration as f64 * self.cfg.clock_hz / 1e9,
            dram_row_hit_rate: dram.row_hit_rate(),
            storage_bits: self.prefetcher.storage_bits(),
            device_stats: {
                let rows = *self.sc.device_stats();
                DeviceId::ALL
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| rows[*i].demand_accesses() > 0)
                    .map(|(i, d)| DeviceStat {
                        device: d.label().to_string(),
                        accesses: rows[i].demand_accesses(),
                        hits: rows[i].demand_hits,
                        amat_cycles: self.device_lat[i] / rows[i].demand_accesses() as f64,
                    })
                    .collect()
            },
        };

        // Merge prefetcher decision telemetry with the system's lifecycle
        // telemetry: counters add; event streams interleave by cycle (the
        // sort is stable and the simulation single-threaded, so the merged
        // stream is deterministic).
        telemetry.absorb(&ledger);
        if !ledger.events.is_empty() {
            telemetry.events.extend(ledger.events);
            telemetry.events.sort_by_key(|e| e.cycle);
        }
        (result, dram, telemetry, tail_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::PrefetcherKind;
    use planaria_core::NullPrefetcher;
    use planaria_trace::apps::{profile, AppId};
    use planaria_trace::Trace;

    fn read(addr: u64, cycle: u64) -> MemAccess {
        MemAccess::read(PhysAddr::new(addr), Cycle::new(cycle))
    }

    #[test]
    fn cold_misses_have_memory_latency() {
        let sys = MemorySystem::new(SystemConfig::default(), Box::new(NullPrefetcher::new()));
        let trace = Trace::new("t", vec![read(0x0000, 0), read(0x4000, 1000)]);
        let r = sys.run_stream(&mut trace.stream());
        assert_eq!(r.accesses, 2);
        assert_eq!(r.hit_rate, 0.0);
        // Both misses: AMAT far above the hit latency.
        assert!(r.amat_cycles > 40.0, "amat {}", r.amat_cycles);
        assert_eq!(r.traffic.demand_reads, 2);
        assert_eq!(r.traffic.prefetch_reads, 0);
    }

    #[test]
    fn repeated_block_hits_after_fill() {
        let sys = MemorySystem::new(SystemConfig::default(), Box::new(NullPrefetcher::new()));
        // Revisit the same block after the fill completed.
        let trace = Trace::new("t", vec![read(0x0000, 0), read(0x0000, 10_000)]);
        let r = sys.run_stream(&mut trace.stream());
        assert!((r.hit_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_in_flight_misses_merge() {
        let sys = MemorySystem::new(SystemConfig::default(), Box::new(NullPrefetcher::new()));
        // Second access arrives 1 cycle later: fill not complete -> merge.
        let trace = Trace::new("t", vec![read(0x0000, 0), read(0x0000, 1)]);
        let r = sys.run_stream(&mut trace.stream());
        assert_eq!(r.traffic.demand_reads, 1, "one DRAM read, two waiters");
        assert_eq!(r.accesses, 2);
    }

    #[test]
    fn merge_storm_spills_past_inline_waiters() {
        // Four demands on one in-flight fill: two waiters fit inline, the
        // rest spill — all four must still be charged residual latency.
        let sys = MemorySystem::new(SystemConfig::default(), Box::new(NullPrefetcher::new()));
        let trace = Trace::new("t", vec![read(0, 0), read(0, 1), read(0, 2), read(0, 3)]);
        let r = sys.run_stream(&mut trace.stream());
        assert_eq!(r.traffic.demand_reads, 1, "one DRAM read, four waiters");
        assert_eq!(r.accesses, 4);
        assert!(r.amat_cycles > 40.0, "all waiters paid memory latency: {}", r.amat_cycles);
    }

    #[test]
    fn writes_cause_writebacks_only_on_dirty_eviction() {
        let cfg = SystemConfig {
            cache: CacheConfig { size_bytes: 512, ways: 2, ..CacheConfig::system_cache() },
            ..SystemConfig::default()
        };
        let sys = MemorySystem::new(cfg, Box::new(NullPrefetcher::new()));
        // Fill set 0 (4 sets of 64B blocks, 2 ways): blocks 0, 4, 8 map to
        // set 0 (block_number % 4). Write block 0, then evict it twice over.
        let trace = Trace::new(
            "t",
            vec![
                MemAccess::write(PhysAddr::new(0), Cycle::new(0)),
                read(4 * 64, 5_000),
                read(8 * 64, 10_000),
                read(12 * 64, 15_000),
            ],
        );
        let r = sys.run_stream(&mut trace.stream());
        assert_eq!(r.traffic.writebacks, 1, "exactly the dirty line writes back");
    }

    #[test]
    fn null_prefetcher_issues_nothing() {
        let sys = MemorySystem::new(SystemConfig::default(), Box::new(NullPrefetcher::new()));
        let accesses: Vec<MemAccess> = (0..100).map(|i| read(i * 64, i * 200)).collect();
        let r = sys.run_stream(&mut Trace::new("t", accesses).stream());
        assert_eq!(r.traffic.prefetch_reads, 0);
        assert_eq!(r.useful_prefetches, 0);
        assert!(r.power_mw > 0.0);
        assert!(r.duration_cycles > 0);
    }

    #[test]
    fn next_line_converts_stream_misses_into_hits() {
        let mk = |pf: Box<dyn Prefetcher>| {
            let sys = MemorySystem::new(SystemConfig::default(), pf);
            let accesses: Vec<MemAccess> = (0..2000u64).map(|i| read(i * 64, i * 300)).collect();
            sys.run_stream(&mut Trace::new("stream", accesses).stream())
        };
        let none = mk(Box::new(NullPrefetcher::new()));
        let nl = mk(Box::new(planaria_baselines::NextLine::new()));
        assert!(nl.hit_rate > none.hit_rate + 0.5, "nl {} vs none {}", nl.hit_rate, none.hit_rate);
        assert!(nl.amat_cycles < none.amat_cycles);
        assert!(nl.prefetch_accuracy > 0.9, "accuracy {}", nl.prefetch_accuracy);
    }

    #[test]
    fn governor_gates_inaccurate_prefetchers() {
        // Next-line on uniform random traffic: near-zero accuracy. The
        // governor must slash its traffic; coverage was ~zero anyway.
        let trace = {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(3);
            let accesses: Vec<MemAccess> =
                (0..60_000u64).map(|i| read(rng.gen_range(0..1u64 << 22) * 64, i * 100)).collect();
            Trace::new("rand", accesses)
        };
        let free = MemorySystem::new(
            SystemConfig::default(),
            Box::new(planaria_baselines::NextLine::new()),
        )
        .run_stream(&mut trace.stream());
        let cfg = SystemConfig {
            governor: Some(GovernorConfig { interval: 2_000, ..GovernorConfig::default() }),
            ..SystemConfig::default()
        };
        let governed = MemorySystem::new(cfg, Box::new(planaria_baselines::NextLine::new()))
            .run_stream(&mut trace.stream());
        assert!(
            governed.traffic.prefetch_reads * 3 < free.traffic.prefetch_reads,
            "governor barely helped: {} vs {}",
            governed.traffic.prefetch_reads,
            free.traffic.prefetch_reads
        );
        assert!(governed.hit_rate >= free.hit_rate - 0.02, "coverage was ~zero anyway");
    }

    #[test]
    fn governor_leaves_accurate_prefetchers_alone() {
        // A sequential stream: next-line accuracy ~1.0; the governor must
        // never gate it.
        let accesses: Vec<MemAccess> = (0..50_000u64).map(|i| read(i * 64, i * 200)).collect();
        let trace = Trace::new("stream", accesses);
        let cfg = SystemConfig {
            governor: Some(GovernorConfig { interval: 2_000, ..GovernorConfig::default() }),
            ..SystemConfig::default()
        };
        let free = MemorySystem::new(
            SystemConfig::default(),
            Box::new(planaria_baselines::NextLine::new()),
        )
        .run_stream(&mut trace.stream());
        let governed = MemorySystem::new(cfg, Box::new(planaria_baselines::NextLine::new()))
            .run_stream(&mut trace.stream());
        assert!((governed.hit_rate - free.hit_rate).abs() < 0.01);
        assert_eq!(governed.traffic.prefetch_reads, free.traffic.prefetch_reads);
    }

    #[test]
    fn warmup_discards_cold_misses() {
        let accesses: Vec<MemAccess> =
            (0..200u64).map(|i| read((i % 100) * 64, i * 5_000)).collect();
        let trace = Trace::new("w", accesses);
        let cold = MemorySystem::new(SystemConfig::default(), Box::new(NullPrefetcher::new()))
            .run_stream(&mut trace.stream());
        let warm = MemorySystem::new(SystemConfig::default(), Box::new(NullPrefetcher::new()))
            .run_stream_telemetry(&mut trace.stream(), 0.5)
            .0;
        // First half is all cold misses; the measured half is all hits.
        assert!((cold.hit_rate - 0.5).abs() < 1e-9, "cold {}", cold.hit_rate);
        assert!((warm.hit_rate - 1.0).abs() < 1e-9, "warm {}", warm.hit_rate);
        assert_eq!(warm.accesses, 100);
    }

    #[test]
    fn warmup_boundary_does_not_leak_waiter_latency() {
        // Two reads of one block, the second while the fill is still in
        // flight, with the warmup boundary between them. The pre-boundary
        // waiter's residual latency must not be charged to the single
        // post-boundary access: before the fix its ~memory-latency charge
        // landed in `latency_sum` while `demand_count` had been reset,
        // roughly doubling the measured AMAT.
        let trace = Trace::new("t", vec![read(0x0000, 0), read(0x0000, 1)]);
        let cold = MemorySystem::new(SystemConfig::default(), Box::new(NullPrefetcher::new()))
            .run_stream(&mut trace.stream());
        let warm = MemorySystem::new(SystemConfig::default(), Box::new(NullPrefetcher::new()))
            .run_stream_telemetry(&mut trace.stream(), 0.5)
            .0;
        assert_eq!(warm.accesses, 1);
        assert!(
            warm.amat_cycles < 1.5 * cold.amat_cycles,
            "residual warmup latency leaked: warm {} vs cold {}",
            warm.amat_cycles,
            cold.amat_cycles
        );
    }

    #[test]
    fn read_traffic_partitions_exactly() {
        // demand_reads + prefetch_reads must equal the DRAM read-command
        // count exactly — with and without a warmup reset, and with a
        // prefetcher generating speculative traffic that straddles the
        // boundary.
        let accesses: Vec<MemAccess> = (0..5_000u64).map(|i| read(i * 64, i * 120)).collect();
        let trace = Trace::new("stream", accesses);
        for warmup in [0.0, 0.4] {
            let sys = MemorySystem::new(
                SystemConfig::default(),
                Box::new(planaria_baselines::NextLine::new()),
            );
            let (r, dram, _) = sys.run_stream_core(&mut trace.stream(), warmup, usize::MAX, None);
            assert_eq!(
                r.traffic.demand_reads + r.traffic.prefetch_reads,
                dram.n_rd,
                "read split must partition n_rd (warmup {warmup})"
            );
            assert!(r.traffic.prefetch_reads > 0, "prefetcher was active");
            assert_eq!(r.traffic.writebacks, dram.n_wr);
        }
    }

    #[test]
    #[should_panic(expected = "warmup fraction")]
    fn warmup_rejects_out_of_range() {
        let sys = MemorySystem::new(SystemConfig::default(), Box::new(NullPrefetcher::new()));
        let _ = sys.run_stream_telemetry(&mut Trace::empty("e").stream(), 1.5);
    }

    #[test]
    fn unbounded_queues_grow_on_demand() {
        // `usize::MAX` spells "unbounded" for both queue bounds; neither
        // may be allocated up front.
        let mut cfg = SystemConfig { prefetch_queue_cap: usize::MAX, ..SystemConfig::default() };
        cfg.dram.queue_depth = usize::MAX;
        cfg.dram.validate().expect("an unbounded DRAM queue is a valid configuration");
        let sys = MemorySystem::new(cfg, PrefetcherKind::Planaria.build());
        let r = sys.run_stream(&mut profile(AppId::HoK).scaled(5_000).stream());
        assert_eq!(r.accesses, 5_000);
        assert!(r.traffic.prefetch_reads > 0, "prefetches flowed through the queue");
    }

    #[test]
    fn empty_trace_is_safe() {
        let sys = MemorySystem::new(SystemConfig::default(), Box::new(NullPrefetcher::new()));
        let r = sys.run_stream(&mut Trace::empty("empty").stream());
        assert_eq!(r.accesses, 0);
        assert_eq!(r.amat_cycles, 0.0);
    }
}
