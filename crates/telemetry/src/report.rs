//! End-of-run condensation of a [`Telemetry`](crate::Telemetry) handle.

use core::fmt::Write as _;

use planaria_common::json;
use planaria_common::{DeviceId, PrefetchOrigin};

use crate::event::{origin_index, origin_label, Event, EventKind, LIFECYCLE, ORIGINS};
use crate::sink::CountingSink;

/// Aggregated telemetry for one simulation (or a deterministic merge of
/// several): the full counter set, plus any captured events.
///
/// Reports merge with [`TelemetryReport::absorb`]; the parallel `Runner`
/// absorbs per-cell reports in submission order, so the merged counters are
/// identical at any thread count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetryReport {
    /// Aggregate counters (always populated).
    pub counters: CountingSink,
    /// Captured events, oldest first (empty unless event capture was on).
    pub events: Vec<Event>,
    /// Events the ring buffer had to drop (0 unless capture overflowed).
    pub events_dropped: u64,
}

impl TelemetryReport {
    /// An empty report (all counters zero, no events).
    pub fn new() -> Self {
        TelemetryReport::default()
    }

    /// Fire count of `kind`.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counters.count_of(kind)
    }

    /// Count of the lifecycle stage `kind` for prefetches from `origin`
    /// (0 for a kind outside [`LIFECYCLE`]).
    pub fn by_origin(&self, kind: EventKind, origin: PrefetchOrigin) -> u64 {
        kind.stage().map_or(0, |row| self.counters.by_origin[row][origin_index(origin)])
    }

    /// Count of the lifecycle stage `kind` attributed to `device` (0 for a
    /// kind outside [`LIFECYCLE`]; see [`CountingSink`] for which device a
    /// stage is charged to).
    ///
    /// Summing over [`DeviceId::ALL`] reproduces [`Self::count`] exactly:
    /// every stage step is attributed to exactly one device.
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
    ///     PrefetchOrigin::Tlp,
    ///     DeviceId::Npu,
    ///     0x8000,
    ///     Cycle::new(3),
    /// );
    /// let report = tel.report();
    /// let issued = EventKind::PrefetchIssued;
    /// assert_eq!(report.by_device(issued, DeviceId::Npu), 1);
    /// assert_eq!(report.by_device(issued, DeviceId::Gpu), 0);
    /// let split: u64 = DeviceId::ALL.iter().map(|&d| report.by_device(issued, d)).sum();
    /// assert_eq!(split, report.count(issued));
    /// ```
    pub fn by_device(&self, kind: EventKind, device: DeviceId) -> u64 {
        kind.stage().map_or(0, |row| self.counters.by_device[row][device.index()])
    }

    /// Merges another report's counters into this one (events are left
    /// untouched — per-cell event streams stay per-cell).
    ///
    /// Addition is commutative, but callers merge in a fixed (submission)
    /// order anyway so `events_dropped` and any future non-commutative
    /// fields stay deterministic.
    pub fn absorb(&mut self, other: &TelemetryReport) {
        self.counters.absorb(&other.counters);
        self.events_dropped += other.events_dropped;
    }

    /// Serialises the report as JSON Lines: one `meta` line, one line per
    /// captured event, then one `summary` line with the complete counter
    /// set.
    ///
    /// The summary carries every counter, so aggregate numbers (e.g. the
    /// SLP/TLP issue split) survive even when the ring buffer truncated the
    /// event stream. Key order is fixed, making equal reports serialise to
    /// byte-identical output.
    ///
    /// # Examples
    ///
    /// ```
    /// use planaria_common::{Cycle, DeviceId, PrefetchOrigin};
    /// use planaria_telemetry::{EventKind, Telemetry, TelemetryConfig};
    ///
    /// let mut tel = Telemetry::from_config(&TelemetryConfig::events());
    /// let (slp, cpu) = (PrefetchOrigin::Slp, DeviceId::default());
    /// tel.lifecycle_for(EventKind::PrefetchIssued, slp, cpu, 0x4000, Cycle::new(7));
    /// let report = tel.report();
    ///
    /// let jsonl = report.to_jsonl("demo");
    /// assert_eq!(jsonl.lines().count(), 3, "meta + one event + summary");
    /// assert!(jsonl.contains("\"kind\":\"prefetch_issued\""));
    /// ```
    pub fn to_jsonl(&self, label: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"label\":\"{}\",\"events\":{},\"events_dropped\":{}}}",
            json::escape(label),
            self.events.len(),
            self.events_dropped
        );
        for (seq, ev) in self.events.iter().enumerate() {
            ev.write_jsonl(seq as u64, &mut out);
            out.push('\n');
        }
        out.push_str("{\"type\":\"summary\",\"counters\":{");
        let mut first = true;
        for kind in EventKind::ALL {
            let n = self.count(kind);
            if n == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{n}", kind.label());
        }
        out.push('}');
        for (kind, row) in LIFECYCLE.iter().zip(&self.counters.by_origin) {
            let _ = write!(out, ",\"{}\":{{", kind.stage_name());
            for (i, (origin, n)) in ORIGINS.iter().zip(row).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{n}", origin_label(*origin));
            }
            out.push('}');
        }
        out.push_str(",\"by_device\":{");
        let mut first_dev = true;
        for device in DeviceId::ALL {
            let i = device.index();
            if self.counters.by_device.iter().all(|row| row[i] == 0) {
                continue;
            }
            if !first_dev {
                out.push(',');
            }
            first_dev = false;
            let _ = write!(out, "\"{}\":{{", device.label());
            for (j, (kind, row)) in LIFECYCLE.iter().zip(&self.counters.by_device).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", kind.stage_name(), row[i]);
            }
            out.push('}');
        }
        out.push('}');
        out.push_str("}\n");
        out
    }

    /// Serialises the counter set as CSV (`counter,value`, one row per
    /// non-zero counter: kinds, then lifecycle stages suffixed with the
    /// origin, then with the device).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("counter,value\n");
        for kind in EventKind::ALL {
            let n = self.count(kind);
            if n != 0 {
                let _ = writeln!(out, "{},{n}", kind.label());
            }
        }
        for (kind, row) in LIFECYCLE.iter().zip(&self.counters.by_origin) {
            for (origin, n) in ORIGINS.iter().zip(row) {
                if *n != 0 {
                    let _ = writeln!(out, "{}_{},{n}", kind.stage_name(), origin_label(*origin));
                }
            }
        }
        for device in DeviceId::ALL {
            for (kind, row) in LIFECYCLE.iter().zip(&self.counters.by_device) {
                let n = row[device.index()];
                if n != 0 {
                    let _ = writeln!(out, "{}_{},{n}", kind.stage_name(), device.label());
                }
            }
        }
        if self.events_dropped != 0 {
            let _ = writeln!(out, "events_dropped,{}", self.events_dropped);
        }
        out
    }

    /// Human-readable multi-line summary (what the `--telemetry` flag
    /// prints after a grid).
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<28} {:>12} {:>12} {:>12}", "lifecycle", "slp", "tlp", "baseline");
        for (kind, [slp, tlp, baseline]) in LIFECYCLE.iter().zip(&self.counters.by_origin) {
            let name = kind.stage_name();
            let _ = writeln!(out, "{name:<28} {slp:>12} {tlp:>12} {baseline:>12}");
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "{:<28} {:>12}", "decision counters", "count");
        for kind in EventKind::ALL {
            let n = self.count(kind);
            if n != 0 {
                let _ = writeln!(out, "{:<28} {:>12}", kind.label(), n);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventData;
    use crate::{Telemetry, TelemetryConfig};
    use planaria_common::Cycle;

    fn sample_report() -> TelemetryReport {
        let mut tel = Telemetry::from_config(&TelemetryConfig::events());
        tel.emit(EventKind::SlpFtAllocate, Cycle::new(3), 1, || EventData::SlpFtAllocate {
            page: 42,
        });
        let cpu = DeviceId::default();
        tel.lifecycle_for(
            EventKind::PrefetchIssued,
            PrefetchOrigin::Slp,
            cpu,
            0x1040,
            Cycle::new(4),
        );
        tel.lifecycle_for(
            EventKind::PrefetchIssued,
            PrefetchOrigin::Tlp,
            cpu,
            0x2040,
            Cycle::new(5),
        );
        tel.report()
    }

    #[test]
    fn jsonl_has_meta_events_and_summary() {
        let report = sample_report();
        let jsonl = report.to_jsonl("gups");
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2 + report.events.len());
        assert!(lines[0].starts_with("{\"type\":\"meta\",\"label\":\"gups\""), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"type\":\"event\",\"seq\":0"), "{}", lines[1]);
        let summary = lines.last().unwrap();
        assert!(summary.starts_with("{\"type\":\"summary\""), "{summary}");
        assert!(summary.contains("\"issued\":{\"slp\":1,\"tlp\":1,\"baseline\":0}"), "{summary}");
    }

    #[test]
    fn jsonl_is_deterministic() {
        assert_eq!(sample_report().to_jsonl("x"), sample_report().to_jsonl("x"));
    }

    #[test]
    fn absorb_sums_counters_and_keeps_own_events() {
        let mut a = sample_report();
        let b = sample_report();
        let events_before = a.events.len();
        a.absorb(&b);
        assert_eq!(a.by_origin(EventKind::PrefetchIssued, PrefetchOrigin::Slp), 2);
        assert_eq!(a.by_device(EventKind::PrefetchIssued, DeviceId::default()), 4);
        assert_eq!(a.count(EventKind::SlpFtAllocate), 2);
        assert_eq!(a.events.len(), events_before);
    }

    #[test]
    fn csv_lists_nonzero_counters() {
        let csv = sample_report().to_csv();
        assert!(csv.starts_with("counter,value\n"));
        assert!(csv.contains("slp_ft_allocate,1\n"), "{csv}");
        assert!(csv.contains("issued_slp,1\n"), "{csv}");
        assert!(!csv.contains("tlp_lookup"), "{csv}");
    }

    #[test]
    fn summary_table_mentions_all_lifecycle_rows() {
        let table = sample_report().summary_table();
        for row in ["issued", "filled", "used", "evicted_unused", "late"] {
            assert!(table.contains(row), "{table}");
        }
    }

    #[test]
    fn jsonl_escapes_labels_through_shared_helper() {
        let jsonl = sample_report().to_jsonl("a\"b\\c");
        assert!(jsonl.starts_with("{\"type\":\"meta\",\"label\":\"a\\\"b\\\\c\""), "{jsonl}");
    }
}
