//! Typed events emitted at every decision point of the pipeline.

use core::fmt;
use core::fmt::Write as _;

use planaria_common::{Cycle, PrefetchOrigin};

/// The kind of a telemetry event — the unit the always-on counting sink
/// counts by.
///
/// The taxonomy follows the pipeline: SLP learning transitions, TLP
/// lookups/transfers, coordinator arbitration, and the per-prefetch
/// lifecycle observed by the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// SLP: a page entered the Filter Table.
    SlpFtAllocate,
    /// SLP: an existing Filter Table entry observed another access.
    SlpFtRecord,
    /// SLP: a Filter Table entry reached three distinct offsets and was
    /// promoted into the Accumulation Table.
    SlpFtPromote,
    /// SLP: an Accumulation Table entry accumulated one more block bit.
    SlpAtAccumulate,
    /// SLP: an Accumulation Table entry timed out — its bitmap was captured
    /// into the Pattern History Table as a complete snapshot.
    SlpSnapshotCapture,
    /// SLP: a capacity eviction spilled a partial Accumulation Table
    /// snapshot into the Pattern History Table early.
    SlpAtSpill,
    /// SLP: a learned pattern was replayed on a demand-miss trigger.
    SlpIssue,
    /// TLP: a page was allocated a Recent Page Table entry.
    TlpRptAllocate,
    /// TLP: an issue-phase RPT lookup scanned the page's neighbours.
    TlpLookup,
    /// TLP: a neighbour's pattern was transferred to the trigger page.
    TlpTransferAccept,
    /// TLP: no pattern was transferred (see [`TransferReject`]).
    TlpTransferReject,
    /// Coordinator: SLP won the issue slot for a trigger.
    ArbitrationSlp,
    /// Coordinator: TLP won the issue slot (SLP had no metadata).
    ArbitrationTlp,
    /// Coordinator: both sub-prefetchers issued (parallel-coordinator
    /// ablation).
    ArbitrationBoth,
    /// Coordinator: no sub-prefetcher was allowed to issue.
    ArbitrationNone,
    /// Lifecycle: a prefetch request was sent to the DRAM controller.
    PrefetchIssued,
    /// Lifecycle: a speculative fill landed in the system cache.
    PrefetchFilled,
    /// Lifecycle: the first demand touch of a prefetched line (useful).
    PrefetchUsed,
    /// Lifecycle: a prefetched line was evicted without any demand use
    /// (pollution).
    PrefetchEvictedUnused,
    /// Lifecycle: a demand miss merged into a still-in-flight prefetch
    /// (late prefetch — issued, but not timely).
    PrefetchLate,
    /// Lifecycle: a request was dropped by the cache/in-flight/queue
    /// dedup filter before reaching DRAM.
    PrefetchFiltered,
}

impl EventKind {
    /// Number of distinct kinds (the counting sink's array width).
    pub const COUNT: usize = 21;

    /// Every kind, in counter order.
    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::SlpFtAllocate,
        EventKind::SlpFtRecord,
        EventKind::SlpFtPromote,
        EventKind::SlpAtAccumulate,
        EventKind::SlpSnapshotCapture,
        EventKind::SlpAtSpill,
        EventKind::SlpIssue,
        EventKind::TlpRptAllocate,
        EventKind::TlpLookup,
        EventKind::TlpTransferAccept,
        EventKind::TlpTransferReject,
        EventKind::ArbitrationSlp,
        EventKind::ArbitrationTlp,
        EventKind::ArbitrationBoth,
        EventKind::ArbitrationNone,
        EventKind::PrefetchIssued,
        EventKind::PrefetchFilled,
        EventKind::PrefetchUsed,
        EventKind::PrefetchEvictedUnused,
        EventKind::PrefetchLate,
        EventKind::PrefetchFiltered,
    ];

    /// The counter-array slot of this kind.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// This kind's row in [`LIFECYCLE`], or `None` for a kind that is not
    /// a lifecycle stage.
    pub(crate) const fn stage(self) -> Option<usize> {
        let row = self.index().wrapping_sub(EventKind::PrefetchIssued.index());
        if row < LIFECYCLE.len() {
            Some(row)
        } else {
            None
        }
    }

    /// A lifecycle stage's export name: its label without `prefetch_`.
    pub(crate) fn stage_name(self) -> &'static str {
        let label = self.label();
        label.strip_prefix("prefetch_").unwrap_or(label)
    }

    /// Stable snake_case label (used in JSONL/CSV exports).
    pub const fn label(self) -> &'static str {
        match self {
            EventKind::SlpFtAllocate => "slp_ft_allocate",
            EventKind::SlpFtRecord => "slp_ft_record",
            EventKind::SlpFtPromote => "slp_ft_promote",
            EventKind::SlpAtAccumulate => "slp_at_accumulate",
            EventKind::SlpSnapshotCapture => "slp_snapshot_capture",
            EventKind::SlpAtSpill => "slp_at_spill",
            EventKind::SlpIssue => "slp_issue",
            EventKind::TlpRptAllocate => "tlp_rpt_allocate",
            EventKind::TlpLookup => "tlp_lookup",
            EventKind::TlpTransferAccept => "tlp_transfer_accept",
            EventKind::TlpTransferReject => "tlp_transfer_reject",
            EventKind::ArbitrationSlp => "arbitration_slp",
            EventKind::ArbitrationTlp => "arbitration_tlp",
            EventKind::ArbitrationBoth => "arbitration_both",
            EventKind::ArbitrationNone => "arbitration_none",
            EventKind::PrefetchIssued => "prefetch_issued",
            EventKind::PrefetchFilled => "prefetch_filled",
            EventKind::PrefetchUsed => "prefetch_used",
            EventKind::PrefetchEvictedUnused => "prefetch_evicted_unused",
            EventKind::PrefetchLate => "prefetch_late",
            EventKind::PrefetchFiltered => "prefetch_filtered",
        }
    }
}

/// The prefetch-lifecycle stages, in the row order of
/// [`CountingSink`](crate::CountingSink)'s per-origin and per-device
/// tables, which is also their JSONL and CSV order. Each stage also has a
/// plain [`EventKind`] count; [`EventKind::PrefetchFiltered`] has only
/// that.
pub const LIFECYCLE: [EventKind; 5] = [
    EventKind::PrefetchIssued,
    EventKind::PrefetchFilled,
    EventKind::PrefetchUsed,
    EventKind::PrefetchEvictedUnused,
    EventKind::PrefetchLate,
];

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why TLP declined to transfer a pattern on a trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferReject {
    /// The trigger page has no Recent Page Table entry.
    NoEntry,
    /// The page's entry has no address-space neighbours in the RPT.
    NoNeighbour,
    /// No neighbour shared at least `min_common_bits` set bits.
    LowSimilarity,
    /// The best neighbour's pattern adds no blocks beyond those already
    /// touched on the trigger page.
    NothingNew,
}

impl TransferReject {
    /// Stable snake_case label used in exports.
    pub const fn label(self) -> &'static str {
        match self {
            TransferReject::NoEntry => "no_entry",
            TransferReject::NoNeighbour => "no_neighbour",
            TransferReject::LowSimilarity => "low_similarity",
            TransferReject::NothingNew => "nothing_new",
        }
    }
}

/// Which issuer the coordinator selected for a demand-miss trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArbitrationWinner {
    /// SLP issues (it holds a pattern for the page).
    Slp,
    /// TLP issues (SLP has no metadata — the serial fallback).
    Tlp,
    /// Both issue (the parallel-coordinator ablation).
    Both,
    /// Neither issues (issuing disabled for the eligible side).
    None,
}

impl ArbitrationWinner {
    /// Stable snake_case label used in exports.
    pub const fn label(self) -> &'static str {
        match self {
            ArbitrationWinner::Slp => "slp",
            ArbitrationWinner::Tlp => "tlp",
            ArbitrationWinner::Both => "both",
            ArbitrationWinner::None => "none",
        }
    }
}

/// Kind-specific payload of an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventData {
    /// A page entered the Filter Table.
    SlpFtAllocate {
        /// Page number.
        page: u64,
    },
    /// A Filter Table entry reached the promotion threshold.
    SlpFtPromote {
        /// Page number.
        page: u64,
        /// The three-offset bitmap carried into the Accumulation Table.
        bits: u16,
    },
    /// An Accumulation Table timeout captured a complete snapshot.
    SlpSnapshotCapture {
        /// Page number.
        page: u64,
        /// The captured footprint bitmap.
        bits: u16,
    },
    /// A capacity eviction spilled a partial snapshot into the PHT.
    SlpAtSpill {
        /// Page number of the victim.
        page: u64,
        /// The partial bitmap spilled.
        bits: u16,
    },
    /// SLP replayed a learned pattern on a trigger.
    SlpIssue {
        /// Trigger page number.
        page: u64,
        /// The learned pattern bitmap.
        pattern: u16,
        /// Blocks actually requested (pattern minus already-observed).
        issued: u16,
    },
    /// A page was allocated a Recent Page Table entry.
    TlpRptAllocate {
        /// Page number of the newcomer.
        page: u64,
        /// Whether a valid entry was evicted to make room.
        evicted: bool,
    },
    /// An issue-phase RPT lookup scanned the page's neighbours.
    TlpLookup {
        /// Trigger page number.
        page: u64,
        /// Ref-flagged neighbours scanned.
        neighbours: u8,
        /// Best shared-set-bit count found (0 when no neighbour). Bounded
        /// by the 16-bit segment bitmaps today; `u16` so wider footprint
        /// bitmaps never silently saturate the score.
        best_similarity: u16,
    },
    /// A neighbour's pattern was transferred.
    TlpTransferAccept {
        /// Trigger page number.
        page: u64,
        /// The donating neighbour's page number.
        donor: u64,
        /// Shared set bits between trigger and donor bitmaps. Bounded by
        /// the 16-bit segment bitmaps today; `u16` so wider footprint
        /// bitmaps never silently saturate the score.
        similarity: u16,
        /// Blocks requested on the trigger page.
        issued: u16,
    },
    /// No pattern was transferred.
    TlpTransferReject {
        /// Trigger page number.
        page: u64,
        /// Why the transfer was declined.
        reason: TransferReject,
    },
    /// The coordinator selected an issuer for a demand-miss trigger.
    Arbitration {
        /// Trigger page number.
        page: u64,
        /// The selected issuer.
        winner: ArbitrationWinner,
        /// Whether SLP held a pattern for the page (the selection input).
        slp_has_pattern: bool,
    },
    /// A prefetch lifecycle step, tagged with the originating
    /// sub-prefetcher.
    Lifecycle {
        /// Which lifecycle step (one of the `Prefetch*` kinds).
        kind: EventKind,
        /// The originating (sub-)prefetcher.
        origin: PrefetchOrigin,
        /// Block-aligned physical address of the prefetched line.
        addr: u64,
    },
}

impl EventData {
    /// The [`EventKind`] this payload belongs to.
    pub const fn kind(&self) -> EventKind {
        match self {
            EventData::SlpFtAllocate { .. } => EventKind::SlpFtAllocate,
            EventData::SlpFtPromote { .. } => EventKind::SlpFtPromote,
            EventData::SlpSnapshotCapture { .. } => EventKind::SlpSnapshotCapture,
            EventData::SlpAtSpill { .. } => EventKind::SlpAtSpill,
            EventData::SlpIssue { .. } => EventKind::SlpIssue,
            EventData::TlpRptAllocate { .. } => EventKind::TlpRptAllocate,
            EventData::TlpLookup { .. } => EventKind::TlpLookup,
            EventData::TlpTransferAccept { .. } => EventKind::TlpTransferAccept,
            EventData::TlpTransferReject { .. } => EventKind::TlpTransferReject,
            EventData::Arbitration { winner, .. } => match winner {
                ArbitrationWinner::Slp => EventKind::ArbitrationSlp,
                ArbitrationWinner::Tlp => EventKind::ArbitrationTlp,
                ArbitrationWinner::Both => EventKind::ArbitrationBoth,
                ArbitrationWinner::None => EventKind::ArbitrationNone,
            },
            EventData::Lifecycle { kind, .. } => *kind,
        }
    }
}

/// One fully materialised telemetry event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Cycle of the demand access that produced the event.
    pub cycle: Cycle,
    /// DRAM channel / page segment the event belongs to.
    pub channel: u8,
    /// Kind-specific payload.
    pub data: EventData,
}

impl Event {
    /// The event's kind.
    pub const fn kind(&self) -> EventKind {
        self.data.kind()
    }

    /// Appends this event as one JSON line (stable key order, no trailing
    /// newline) — the format `telemetry_export` emits.
    pub fn write_jsonl(&self, seq: u64, out: &mut String) {
        let _ = write!(
            out,
            "{{\"type\":\"event\",\"seq\":{seq},\"cycle\":{},\"ch\":{},\"kind\":\"{}\"",
            self.cycle.as_u64(),
            self.channel,
            self.kind().label()
        );
        match self.data {
            EventData::SlpFtAllocate { page } => {
                let _ = write!(out, ",\"page\":{page}");
            }
            EventData::SlpFtPromote { page, bits }
            | EventData::SlpSnapshotCapture { page, bits }
            | EventData::SlpAtSpill { page, bits } => {
                let _ = write!(out, ",\"page\":{page},\"bits\":{bits}");
            }
            EventData::SlpIssue { page, pattern, issued } => {
                let _ = write!(out, ",\"page\":{page},\"pattern\":{pattern},\"issued\":{issued}");
            }
            EventData::TlpRptAllocate { page, evicted } => {
                let _ = write!(out, ",\"page\":{page},\"evicted\":{evicted}");
            }
            EventData::TlpLookup { page, neighbours, best_similarity } => {
                let _ = write!(
                    out,
                    ",\"page\":{page},\"neighbours\":{neighbours},\"best_similarity\":{best_similarity}"
                );
            }
            EventData::TlpTransferAccept { page, donor, similarity, issued } => {
                let _ = write!(
                    out,
                    ",\"page\":{page},\"donor\":{donor},\"similarity\":{similarity},\"issued\":{issued}"
                );
            }
            EventData::TlpTransferReject { page, reason } => {
                let _ = write!(out, ",\"page\":{page},\"reason\":\"{}\"", reason.label());
            }
            EventData::Arbitration { page, winner, slp_has_pattern } => {
                let _ = write!(
                    out,
                    ",\"page\":{page},\"winner\":\"{}\",\"slp_has_pattern\":{slp_has_pattern}",
                    winner.label()
                );
            }
            EventData::Lifecycle { origin, addr, .. } => {
                let _ = write!(out, ",\"origin\":\"{}\",\"addr\":{addr}", origin_label(origin));
            }
        }
        out.push('}');
    }
}

/// Stable snake_case label for a prefetch origin (exports and reports).
pub(crate) const fn origin_label(origin: PrefetchOrigin) -> &'static str {
    match origin {
        PrefetchOrigin::Slp => "slp",
        PrefetchOrigin::Tlp => "tlp",
        PrefetchOrigin::Baseline => "baseline",
    }
}

/// Counter-array slot for a prefetch origin.
pub(crate) const fn origin_index(origin: PrefetchOrigin) -> usize {
    match origin {
        PrefetchOrigin::Slp => 0,
        PrefetchOrigin::Tlp => 1,
        PrefetchOrigin::Baseline => 2,
    }
}

/// Every prefetch origin, in counter-slot order (also the export order).
pub(crate) const ORIGINS: [PrefetchOrigin; 3] =
    [PrefetchOrigin::Slp, PrefetchOrigin::Tlp, PrefetchOrigin::Baseline];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_index_matches_all_order() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
    }

    #[test]
    fn labels_are_unique_and_snake_case() {
        let labels: std::collections::BTreeSet<_> =
            EventKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), EventKind::COUNT);
        for l in labels {
            assert!(l.chars().all(|c| c.is_ascii_lowercase() || c == '_'), "{l}");
        }
    }

    #[test]
    fn lifecycle_rows_and_origin_slots_follow_export_order() {
        for (row, kind) in LIFECYCLE.iter().enumerate() {
            assert_eq!(kind.stage(), Some(row), "{kind:?}");
        }
        let stages = EventKind::ALL.iter().filter(|k| k.stage().is_some()).count();
        assert_eq!(stages, LIFECYCLE.len());
        assert_eq!(EventKind::PrefetchFiltered.stage(), None);
        let names = LIFECYCLE.map(EventKind::stage_name);
        assert_eq!(names, ["issued", "filled", "used", "evicted_unused", "late"]);
        for (slot, origin) in ORIGINS.iter().enumerate() {
            assert_eq!(origin_index(*origin), slot, "{origin:?}");
        }
    }

    #[test]
    fn data_kind_mapping_covers_arbitration_winners() {
        for (winner, kind) in [
            (ArbitrationWinner::Slp, EventKind::ArbitrationSlp),
            (ArbitrationWinner::Tlp, EventKind::ArbitrationTlp),
            (ArbitrationWinner::Both, EventKind::ArbitrationBoth),
            (ArbitrationWinner::None, EventKind::ArbitrationNone),
        ] {
            let data = EventData::Arbitration { page: 1, winner, slp_has_pattern: false };
            assert_eq!(data.kind(), kind);
        }
    }

    #[test]
    fn jsonl_is_stable_and_valid_shaped() {
        let ev = Event {
            cycle: Cycle::new(42),
            channel: 2,
            data: EventData::TlpTransferAccept { page: 7, donor: 6, similarity: 4, issued: 3 },
        };
        let mut s = String::new();
        ev.write_jsonl(9, &mut s);
        assert_eq!(
            s,
            "{\"type\":\"event\",\"seq\":9,\"cycle\":42,\"ch\":2,\"kind\":\"tlp_transfer_accept\",\
             \"page\":7,\"donor\":6,\"similarity\":4,\"issued\":3}"
        );
    }

    #[test]
    fn lifecycle_jsonl_tags_origin() {
        let ev = Event {
            cycle: Cycle::new(1),
            channel: 0,
            data: EventData::Lifecycle {
                kind: EventKind::PrefetchUsed,
                origin: PrefetchOrigin::Tlp,
                addr: 0x4040,
            },
        };
        let mut s = String::new();
        ev.write_jsonl(0, &mut s);
        assert!(s.contains("\"kind\":\"prefetch_used\""), "{s}");
        assert!(s.contains("\"origin\":\"tlp\""), "{s}");
    }
}
