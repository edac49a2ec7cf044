//! End-of-run condensation of a [`Telemetry`](crate::Telemetry) handle.

use core::fmt::Write as _;

use planaria_common::json;
use planaria_common::{DeviceId, PrefetchOrigin};

use crate::event::{origin_index, origin_label, Event, EventKind};
use crate::sink::CountingSink;

/// Per-origin labels in export order (SLP, TLP, baseline).
const ORIGIN_ORDER: [PrefetchOrigin; 3] =
    [PrefetchOrigin::Slp, PrefetchOrigin::Tlp, PrefetchOrigin::Baseline];

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

    /// Prefetches issued by `origin`.
    pub fn issued(&self, origin: PrefetchOrigin) -> u64 {
        self.counters.issued[origin_index(origin)]
    }

    /// Speculative fills that landed in the cache for `origin`.
    pub fn filled(&self, origin: PrefetchOrigin) -> u64 {
        self.counters.filled[origin_index(origin)]
    }

    /// First demand uses of a prefetched line for `origin`.
    pub fn used(&self, origin: PrefetchOrigin) -> u64 {
        self.counters.used[origin_index(origin)]
    }

    /// Prefetched lines evicted without any demand use for `origin`.
    pub fn evicted_unused(&self, origin: PrefetchOrigin) -> u64 {
        self.counters.evicted_unused[origin_index(origin)]
    }

    /// Demand misses that merged into an in-flight prefetch for `origin`.
    pub fn late(&self, origin: PrefetchOrigin) -> u64 {
        self.counters.late[origin_index(origin)]
    }

    /// Prefetches issued across all origins.
    pub fn total_issued(&self) -> u64 {
        self.counters.issued.iter().sum()
    }

    /// Prefetches issued on behalf of `device` (the device whose demand
    /// access triggered them).
    ///
    /// Summing over [`DeviceId::ALL`] reproduces [`Self::total_issued`]
    /// exactly — every issue is attributed to exactly one device.
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
    /// assert_eq!(report.issued_by(DeviceId::Npu), 1);
    /// assert_eq!(report.issued_by(DeviceId::Gpu), 0);
    /// let split: u64 = DeviceId::ALL.iter().map(|&d| report.issued_by(d)).sum();
    /// assert_eq!(split, report.total_issued());
    /// ```
    pub fn issued_by(&self, device: DeviceId) -> u64 {
        self.counters.per_device.issued[device.index()]
    }

    /// First demand uses of prefetched lines consumed by `device`.
    pub fn used_by(&self, device: DeviceId) -> u64 {
        self.counters.per_device.used[device.index()]
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
    /// use planaria_common::{Cycle, PrefetchOrigin};
    /// use planaria_telemetry::{EventKind, Telemetry, TelemetryConfig};
    ///
    /// let mut tel = Telemetry::from_config(&TelemetryConfig::events());
    /// tel.lifecycle(EventKind::PrefetchIssued, PrefetchOrigin::Slp, 0x4000, Cycle::new(7));
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
        for (name, row) in self.lifecycle_rows() {
            let _ = write!(out, ",\"{name}\":{{");
            for (i, origin) in ORIGIN_ORDER.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", origin_label(*origin), row[origin_index(*origin)]);
            }
            out.push('}');
        }
        out.push_str(",\"by_device\":{");
        let mut first_dev = true;
        for device in DeviceId::ALL {
            let i = device.index();
            let pd = &self.counters.per_device;
            let cols = [
                ("issued", pd.issued[i]),
                ("filled", pd.filled[i]),
                ("used", pd.used[i]),
                ("evicted_unused", pd.evicted_unused[i]),
                ("late", pd.late[i]),
            ];
            if cols.iter().all(|(_, n)| *n == 0) {
                continue;
            }
            if !first_dev {
                out.push(',');
            }
            first_dev = false;
            let _ = write!(out, "\"{}\":{{", device.label());
            for (j, (name, n)) in cols.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{name}\":{n}");
            }
            out.push('}');
        }
        out.push('}');
        out.push_str("}\n");
        out
    }

    /// Serialises the counter set as CSV (`counter,value`, one row per
    /// non-zero counter, lifecycle rows suffixed with the origin).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("counter,value\n");
        for kind in EventKind::ALL {
            let n = self.count(kind);
            if n != 0 {
                let _ = writeln!(out, "{},{n}", kind.label());
            }
        }
        for (name, row) in self.lifecycle_rows() {
            for origin in ORIGIN_ORDER {
                let n = row[origin_index(origin)];
                if n != 0 {
                    let _ = writeln!(out, "{name}_{},{n}", origin_label(origin));
                }
            }
        }
        for device in DeviceId::ALL {
            let i = device.index();
            let pd = &self.counters.per_device;
            for (name, n) in [
                ("issued", pd.issued[i]),
                ("filled", pd.filled[i]),
                ("used", pd.used[i]),
                ("evicted_unused", pd.evicted_unused[i]),
                ("late", pd.late[i]),
            ] {
                if n != 0 {
                    let _ = writeln!(out, "{name}_{},{n}", device.label());
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
        for (name, row) in self.lifecycle_rows() {
            let _ = writeln!(
                out,
                "{:<28} {:>12} {:>12} {:>12}",
                name,
                row[origin_index(PrefetchOrigin::Slp)],
                row[origin_index(PrefetchOrigin::Tlp)],
                row[origin_index(PrefetchOrigin::Baseline)]
            );
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

    fn lifecycle_rows(&self) -> [(&'static str, &[u64; 3]); 5] {
        [
            ("issued", &self.counters.issued),
            ("filled", &self.counters.filled),
            ("used", &self.counters.used),
            ("evicted_unused", &self.counters.evicted_unused),
            ("late", &self.counters.late),
        ]
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
        tel.lifecycle(EventKind::PrefetchIssued, PrefetchOrigin::Slp, 0x1040, Cycle::new(4));
        tel.lifecycle(EventKind::PrefetchIssued, PrefetchOrigin::Tlp, 0x2040, Cycle::new(5));
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
        assert_eq!(a.issued(PrefetchOrigin::Slp), 2);
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
