//! Sinks that consume events, and the [`Telemetry`] handle components own.

use std::collections::VecDeque;

use planaria_common::{Cycle, DeviceId, PrefetchOrigin};

use crate::event::{origin_index, Event, EventData, EventKind, LIFECYCLE, ORIGINS};
use crate::report::TelemetryReport;

/// Always-on aggregation sink and the one ledger of prefetch outcomes: a
/// fire count per [`EventKind`], plus each lifecycle stage counted per
/// origin and per device. Costs a few integer increments per decision.
///
/// The two tables have one row per stage, in [`LIFECYCLE`] order. Each
/// stage is attributed to a device: *issued* and *late* to the device
/// whose demand access triggered the decision, *used* to the device whose
/// demand hit consumed the line, *filled* and *evicted-unused* to the
/// device that triggered the original prefetch. Every stage step bumps one
/// cell of each table, so a row summed over origins, a row summed over
/// devices and the stage's kind count are always equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountingSink {
    /// Fire count per [`EventKind`], indexed by [`EventKind::index`].
    pub kinds: [u64; EventKind::COUNT],
    /// Lifecycle counts per stage and origin (SLP, TLP, baseline).
    pub by_origin: [[u64; ORIGINS.len()]; LIFECYCLE.len()],
    /// Lifecycle counts per stage and device, indexed by
    /// [`DeviceId::index`].
    pub by_device: [[u64; DeviceId::COUNT]; LIFECYCLE.len()],
}

impl CountingSink {
    /// A sink with all counters at zero.
    pub const fn new() -> Self {
        CountingSink {
            kinds: [0; EventKind::COUNT],
            by_origin: [[0; ORIGINS.len()]; LIFECYCLE.len()],
            by_device: [[0; DeviceId::COUNT]; LIFECYCLE.len()],
        }
    }

    /// Counts one firing of the decision point `kind`.
    #[inline]
    pub fn count(&mut self, kind: EventKind) {
        self.kinds[kind.index()] += 1;
    }

    /// Fire count of `kind`.
    pub fn count_of(&self, kind: EventKind) -> u64 {
        self.kinds[kind.index()]
    }

    /// Counts `kind` and, for a lifecycle stage, its origin and device
    /// cells.
    #[inline]
    fn count_step(&mut self, kind: EventKind, origin: PrefetchOrigin, device: DeviceId) {
        self.count(kind);
        if let Some(row) = kind.stage() {
            self.by_origin[row][origin_index(origin)] += 1;
            self.by_device[row][device.index()] += 1;
        }
    }

    /// Every counter in a fixed order: `kinds`, then the `by_origin` rows,
    /// then the `by_device` rows.
    pub fn words(&self) -> impl Iterator<Item = u64> + '_ {
        let (origin, device) = (self.by_origin.as_flattened(), self.by_device.as_flattened());
        self.kinds.iter().chain(origin).chain(device).copied()
    }

    /// Adds every counter of `other` into `self` (deterministic merge).
    pub fn absorb(&mut self, other: &CountingSink) {
        let (origin, device) =
            (self.by_origin.as_flattened_mut(), self.by_device.as_flattened_mut());
        for (a, b) in self.kinds.iter_mut().chain(origin).chain(device).zip(other.words()) {
            *a += b;
        }
    }
}

impl Default for CountingSink {
    fn default() -> Self {
        CountingSink::new()
    }
}

/// Bounded event buffer: keeps the most recent `capacity` events, counting
/// (not silently losing) anything older it had to drop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingBufferSink {
    buf: VecDeque<Event>,
    capacity: usize,
    /// Events evicted because the buffer was full.
    pub dropped: u64,
}

impl RingBufferSink {
    /// An empty buffer holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink { buf: VecDeque::new(), capacity: capacity.max(1), dropped: 0 }
    }

    /// Buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends `event`, dropping the oldest one when the buffer is full.
    pub fn record(&mut self, event: &Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(*event);
    }

    /// Moves the buffered events out, oldest first.
    pub fn drain(&mut self) -> Vec<Event> {
        self.buf.drain(..).collect()
    }
}

/// Telemetry settings, embeddable in a simulation config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Capture full [`Event`] records into a ring buffer (counting is
    /// always on regardless).
    pub events: bool,
    /// Ring-buffer capacity in events, per instrumented component.
    pub capacity: usize,
}

impl TelemetryConfig {
    /// Default ring capacity when event capture is on.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Counting only — the zero-configuration default.
    pub const fn counting() -> Self {
        TelemetryConfig { events: false, capacity: Self::DEFAULT_CAPACITY }
    }

    /// Counting plus full event capture at the default ring capacity.
    pub const fn events() -> Self {
        TelemetryConfig { events: true, capacity: Self::DEFAULT_CAPACITY }
    }

    /// Counting plus full event capture with an explicit ring capacity.
    pub const fn events_with_capacity(capacity: usize) -> Self {
        TelemetryConfig { events: true, capacity }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::counting()
    }
}

/// The handle instrumented components own: an always-on [`CountingSink`]
/// plus an optional [`RingBufferSink`] for full event capture.
///
/// The two-tier design keeps the disabled path nearly free: [`Telemetry::emit`]
/// takes the event payload as a closure that is only invoked when event
/// capture is enabled, so the counting-only configuration pays one array
/// increment and one branch per decision point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Telemetry {
    /// Always-on aggregate counters.
    pub counting: CountingSink,
    events: Option<RingBufferSink>,
}

impl Telemetry {
    /// Counting-only telemetry (the default for every component).
    pub const fn counting_only() -> Self {
        Telemetry { counting: CountingSink::new(), events: None }
    }

    /// Telemetry configured per `cfg` (counting always on; ring buffer
    /// only when `cfg.events`).
    pub fn from_config(cfg: &TelemetryConfig) -> Self {
        Telemetry {
            counting: CountingSink::new(),
            events: cfg.events.then(|| RingBufferSink::new(cfg.capacity)),
        }
    }

    /// Counts a decision point without materialising a payload.
    #[inline]
    pub fn count(&mut self, kind: EventKind) {
        self.counting.count(kind);
    }

    /// Counts `kind` and, only if event capture is on, materialises the
    /// payload via `data` and records the full event.
    #[inline]
    pub fn emit(
        &mut self,
        kind: EventKind,
        cycle: Cycle,
        channel: u8,
        data: impl FnOnce() -> EventData,
    ) {
        self.counting.count(kind);
        if let Some(ring) = &mut self.events {
            let event = Event { cycle, channel, data: data() };
            debug_assert_eq!(event.kind(), kind);
            ring.record(&event);
        }
    }

    /// Records a prefetch-lifecycle step attributed to `device`: bumps the
    /// kind counter, and for the five [`LIFECYCLE`] stages the per-origin
    /// and per-device cells too; when event capture is on, also records a
    /// [`EventData::Lifecycle`] event.
    ///
    /// # Examples
    ///
    /// ```
    /// use planaria_common::{Cycle, DeviceId, PrefetchOrigin};
    /// use planaria_telemetry::{EventKind, Telemetry};
    ///
    /// let mut tel = Telemetry::counting_only();
    /// tel.lifecycle_for(
    ///     EventKind::PrefetchIssued,
    ///     PrefetchOrigin::Slp,
    ///     DeviceId::Gpu,
    ///     0x4000,
    ///     Cycle::new(7),
    /// );
    /// let report = tel.report();
    /// assert_eq!(report.by_device(EventKind::PrefetchIssued, DeviceId::Gpu), 1);
    /// assert_eq!(report.by_origin(EventKind::PrefetchIssued, PrefetchOrigin::Slp), 1);
    /// assert_eq!(report.count(EventKind::PrefetchIssued), 1);
    /// ```
    #[inline]
    pub fn lifecycle_for(
        &mut self,
        kind: EventKind,
        origin: PrefetchOrigin,
        device: DeviceId,
        addr: u64,
        cycle: Cycle,
    ) {
        self.counting.count_step(kind, origin, device);
        if let Some(ring) = &mut self.events {
            let channel = planaria_common::PhysAddr::new(addr).channel().as_usize() as u8;
            ring.record(&Event {
                cycle,
                channel,
                data: EventData::Lifecycle { kind, origin, addr },
            });
        }
    }

    /// Read access to the captured event buffer, if event capture is on.
    pub fn ring(&self) -> Option<&RingBufferSink> {
        self.events.as_ref()
    }

    /// Condenses the handle into a [`TelemetryReport`], draining any
    /// captured events.
    pub fn report(&mut self) -> TelemetryReport {
        let (events, dropped) = match &mut self.events {
            Some(ring) => {
                let dropped = ring.dropped;
                (ring.drain(), dropped)
            }
            None => (Vec::new(), 0),
        };
        TelemetryReport { counters: self.counting.clone(), events, events_dropped: dropped }
    }

    /// Resets counters and empties the event buffer, keeping the
    /// configuration (used at the warmup boundary).
    pub fn reset(&mut self) {
        self.counting = CountingSink::new();
        if let Some(ring) = &mut self.events {
            let capacity = ring.capacity;
            *ring = RingBufferSink::new(capacity);
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::counting_only()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_only_skips_payload_closure() {
        let mut tel = Telemetry::counting_only();
        let mut built = false;
        tel.emit(EventKind::SlpIssue, Cycle::new(1), 0, || {
            built = true;
            EventData::SlpIssue { page: 1, pattern: 3, issued: 2 }
        });
        assert!(!built, "payload must not be materialised when events are off");
        assert_eq!(tel.counting.count_of(EventKind::SlpIssue), 1);
        assert!(tel.report().events.is_empty());
    }

    #[test]
    fn event_capture_materialises_payloads() {
        let mut tel = Telemetry::from_config(&TelemetryConfig::events());
        tel.emit(EventKind::TlpTransferReject, Cycle::new(5), 1, || EventData::TlpTransferReject {
            page: 9,
            reason: crate::TransferReject::NoEntry,
        });
        let report = tel.report();
        assert_eq!(report.count(EventKind::TlpTransferReject), 1);
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].channel, 1);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut ring = RingBufferSink::new(2);
        for i in 0..5u64 {
            ring.record(&Event {
                cycle: Cycle::new(i),
                channel: 0,
                data: EventData::SlpFtAllocate { page: i },
            });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped, 3);
        let kept: Vec<u64> = ring.events().map(|e| e.cycle.as_u64()).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn lifecycle_bumps_origin_counters() {
        let mut tel = Telemetry::counting_only();
        let cpu = DeviceId::default();
        tel.lifecycle_for(EventKind::PrefetchIssued, PrefetchOrigin::Slp, cpu, 0x40, Cycle::new(1));
        tel.lifecycle_for(EventKind::PrefetchIssued, PrefetchOrigin::Tlp, cpu, 0x80, Cycle::new(2));
        tel.lifecycle_for(EventKind::PrefetchUsed, PrefetchOrigin::Slp, cpu, 0x40, Cycle::new(3));
        tel.lifecycle_for(EventKind::PrefetchFiltered, PrefetchOrigin::Slp, cpu, 0, Cycle::new(4));
        let report = tel.report();
        assert_eq!(report.by_origin(EventKind::PrefetchIssued, PrefetchOrigin::Slp), 1);
        assert_eq!(report.by_origin(EventKind::PrefetchIssued, PrefetchOrigin::Tlp), 1);
        assert_eq!(report.by_origin(EventKind::PrefetchUsed, PrefetchOrigin::Slp), 1);
        assert_eq!(report.by_origin(EventKind::PrefetchUsed, PrefetchOrigin::Tlp), 0);
        assert_eq!(report.by_device(EventKind::PrefetchIssued, cpu), 2);
        // Filtering is a kind count only: no lifecycle row holds it.
        assert_eq!(report.count(EventKind::PrefetchFiltered), 1);
        assert_eq!(report.by_origin(EventKind::PrefetchFiltered, PrefetchOrigin::Slp), 0);
        assert_eq!(report.counters.by_origin.as_flattened().iter().sum::<u64>(), 3);
    }

    #[test]
    fn reset_keeps_configuration() {
        let mut tel = Telemetry::from_config(&TelemetryConfig::events_with_capacity(4));
        tel.count(EventKind::TlpLookup);
        tel.reset();
        assert!(tel.ring().is_some());
        assert_eq!(tel.counting.count_of(EventKind::TlpLookup), 0);
    }
}
