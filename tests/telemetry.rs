//! The observability layer's contract: capture must not perturb the
//! simulation, the exported event stream must be deterministic at any
//! worker-thread count and byte-identical to a pinned export, and the
//! lifecycle ledger must reconcile exactly with DRAM's own count of
//! prefetch reads and split identically by origin and by device.

use planaria_common::{DeviceId, PrefetchOrigin};
use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::runner::{Job, Runner};
use planaria_sim::{EventKind, MemorySystem, SystemConfig, TelemetryConfig};
use planaria_trace::apps::{profile, AppId};

const LEN: usize = 40_000;

fn events_cfg() -> SystemConfig {
    SystemConfig { telemetry: TelemetryConfig::events(), ..SystemConfig::default() }
}

fn event_jobs() -> Vec<Job> {
    [AppId::Cfm, AppId::Hi3]
        .iter()
        .flat_map(|&app| {
            [PrefetcherKind::Planaria, PrefetcherKind::Spp]
                .map(|k| Job::grid_cell(app, k, LEN).config(events_cfg()))
        })
        .collect()
}

#[test]
fn jsonl_export_is_byte_identical_across_thread_counts() {
    let serial = Runner::new(1).run(event_jobs());
    let parallel = Runner::new(8).run(event_jobs());
    for (s, p) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(s.label, p.label, "cells must come back in submission order");
        let s_jsonl = s.telemetry.to_jsonl(&s.label);
        let p_jsonl = p.telemetry.to_jsonl(&p.label);
        assert!(s_jsonl == p_jsonl, "JSONL for {} drifted across thread counts", s.label);
        assert!(!s.telemetry.events.is_empty(), "{}: event capture was on", s.label);
    }
}

#[test]
fn event_capture_does_not_perturb_results() {
    let quiet: Vec<Job> =
        [AppId::Cfm, AppId::Hi3].map(|a| Job::grid_cell(a, PrefetcherKind::Planaria, LEN)).into();
    let observed: Vec<Job> = [AppId::Cfm, AppId::Hi3]
        .map(|a| Job::grid_cell(a, PrefetcherKind::Planaria, LEN).config(events_cfg()))
        .into();
    assert_eq!(
        Runner::new(2).run(quiet).into_results(),
        Runner::new(2).run(observed).into_results(),
        "turning on event capture must not change a single metric"
    );
}

#[test]
fn issued_counters_sum_to_global_prefetch_count() {
    let trace = profile(AppId::HoK).scaled(LEN).build();
    let sys = MemorySystem::new(SystemConfig::default(), PrefetcherKind::Planaria.build());
    let (result, report) = sys.run_stream_telemetry(&mut trace.stream(), 0.0);

    // Every enqueue bumps the per-origin counter, DRAM counts the read when
    // it executes, and the final drain retires everything, so the
    // reconciliation is exact — no tolerance.
    let per_origin: u64 = [PrefetchOrigin::Slp, PrefetchOrigin::Tlp, PrefetchOrigin::Baseline]
        .iter()
        .map(|&o| report.by_origin(EventKind::PrefetchIssued, o))
        .sum();
    assert_eq!(per_origin, report.count(EventKind::PrefetchIssued));
    assert_eq!(per_origin, result.traffic.prefetch_reads, "issued events vs DRAM prefetch reads");
    assert!(per_origin > 0, "Planaria must prefetch on this workload");
}

#[test]
fn per_device_lifecycle_rows_conserve_origin_totals() {
    let trace = profile(AppId::HoK).scaled(LEN).build();
    let sys = MemorySystem::new(events_cfg(), PrefetcherKind::Planaria.build());
    let (_, report) = sys.run_stream_telemetry(&mut trace.stream(), 0.0);

    // Every lifecycle bump lands in exactly one device cell and one origin
    // cell of its stage's row, so both splits sum to the stage's count.
    let c = &report.counters;
    for (stage, kind) in planaria_telemetry::LIFECYCLE.iter().enumerate() {
        let total = report.count(*kind);
        assert_eq!(c.by_device[stage].iter().sum::<u64>(), total, "{kind} device split");
        assert_eq!(c.by_origin[stage].iter().sum::<u64>(), total, "{kind} origin split");
    }
    // HoK traces span several devices; attribution must not collapse onto
    // one row.
    let issued = EventKind::PrefetchIssued;
    let active = DeviceId::ALL.iter().filter(|&&d| report.by_device(issued, d) > 0).count();
    assert!(active > 1, "issued prefetches attributed to {active} device(s)");
    // The JSONL summary carries the by_device block, rows in canonical
    // device order with the full five-counter column set.
    let jsonl = report.to_jsonl("hok");
    let summary = jsonl.lines().last().unwrap();
    let start = summary.find("\"by_device\":{\"").expect("summary has a by_device block");
    assert!(summary[start..].contains("{\"issued\":"), "{summary}");
}

#[test]
fn counters_stay_on_when_events_are_off() {
    let trace = profile(AppId::Qsm).scaled(LEN).build();
    let sys = MemorySystem::new(SystemConfig::default(), PrefetcherKind::Planaria.build());
    let (_, report) = sys.run_stream_telemetry(&mut trace.stream(), 0.0);
    assert!(report.events.is_empty(), "default config captures no events");
    assert_eq!(report.events_dropped, 0);
    assert!(report.count(EventKind::PrefetchIssued) > 0, "counting sink is always on");
    assert!(report.count(EventKind::TlpLookup) > 0);
}

#[test]
fn hi3_exports_are_pinned_byte_for_byte() {
    // The Figure 9 HI3 cell, with a ring small enough to overflow so the
    // drop count is pinned too. All three renderers are compared with
    // output recorded from a known-good build: the CSV and the summary
    // table in full, the multi-megabyte JSONL by its 64-bit FNV-1a digest.
    let trace = profile(AppId::Hi3).scaled(150_000).build();
    let cfg = SystemConfig {
        telemetry: TelemetryConfig::events_with_capacity(4096),
        ..SystemConfig::default()
    };
    let sys = MemorySystem::new(cfg, PrefetcherKind::Planaria.build());
    let (result, report) = sys.run_stream_telemetry(&mut trace.stream(), 0.0);

    assert!(result.useful_slp > 0 && result.useful_tlp > 0, "both origins active on HI3");
    assert!(report.events_dropped > 0, "the 4096-event ring must overflow");
    assert!(report.events.windows(2).all(|w| w[0].cycle <= w[1].cycle), "events sorted by cycle");
    assert_eq!(report.to_csv(), PINNED_CSV);
    assert_eq!(report.summary_table(), PINNED_SUMMARY);
    let jsonl = report.to_jsonl("hi3");
    assert_eq!(fnv1a64(jsonl.as_bytes()), PINNED_JSONL_FNV1A, "JSONL bytes moved");
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// `to_jsonl("hi3")` of the pinned cell, by [`fnv1a64`].
const PINNED_JSONL_FNV1A: u64 = 0x7860_7243_31f4_ad60;

/// `to_csv()` of the pinned cell.
const PINNED_CSV: &str = "\
counter,value
slp_ft_allocate,49194
slp_ft_record,30133
slp_ft_promote,26751
slp_at_accumulate,43922
slp_snapshot_capture,26730
slp_issue,4826
tlp_rpt_allocate,49138
tlp_lookup,140615
tlp_transfer_accept,14922
tlp_transfer_reject,125693
arbitration_slp,4826
arbitration_tlp,140615
prefetch_issued,18428
prefetch_filled,17853
prefetch_used,17016
prefetch_evicted_unused,441
prefetch_late,575
prefetch_filtered,62192
issued_slp,3511
issued_tlp,14917
filled_slp,3144
filled_tlp,14709
used_slp,3018
used_tlp,13998
evicted_unused_tlp,441
late_slp,367
late_tlp,208
issued_cpu0,3511
filled_cpu0,3144
used_cpu0,3018
late_cpu0,367
issued_cpu2,3327
filled_cpu2,3133
used_cpu2,2430
evicted_unused_cpu2,441
late_cpu2,194
issued_gpu,7840
filled_gpu,7833
used_gpu,7825
late_gpu,7
issued_dsp,3750
filled_dsp,3743
used_dsp,3743
late_dsp,7
events_dropped,691623
";

/// `summary_table()` of the pinned cell.
const PINNED_SUMMARY: &str = "\
lifecycle                             slp          tlp     baseline
issued                               3511        14917            0
filled                               3144        14709            0
used                                 3018        13998            0
evicted_unused                          0          441            0
late                                  367          208            0

decision counters                   count
slp_ft_allocate                     49194
slp_ft_record                       30133
slp_ft_promote                      26751
slp_at_accumulate                   43922
slp_snapshot_capture                26730
slp_issue                            4826
tlp_rpt_allocate                    49138
tlp_lookup                         140615
tlp_transfer_accept                 14922
tlp_transfer_reject                125693
arbitration_slp                      4826
arbitration_tlp                    140615
prefetch_issued                     18428
prefetch_filled                     17853
prefetch_used                       17016
prefetch_evicted_unused               441
prefetch_late                         575
prefetch_filtered                   62192
";
