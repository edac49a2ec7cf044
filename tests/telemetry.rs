//! The observability layer's contract: capture must not perturb the
//! simulation, the exported event stream must be deterministic at any
//! worker-thread count, and the lifecycle counters must reconcile exactly
//! with the simulator's own metrics (the Figure 9 split in particular).

use planaria_common::PrefetchOrigin;
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

    // Every enqueue site bumps both the metric and the per-origin counter,
    // and the final drain retires everything, so the reconciliation is
    // exact — no tolerance.
    let per_origin = report.issued(PrefetchOrigin::Slp)
        + report.issued(PrefetchOrigin::Tlp)
        + report.issued(PrefetchOrigin::Baseline);
    assert_eq!(per_origin, report.total_issued());
    assert_eq!(per_origin, report.count(EventKind::PrefetchIssued));
    assert_eq!(per_origin, result.traffic.prefetch_reads, "issued events vs DRAM prefetch reads");
    assert!(per_origin > 0, "Planaria must prefetch on this workload");
}

#[test]
fn used_counters_reproduce_fig9_split_exactly() {
    let trace = profile(AppId::Hi3).scaled(150_000).build();
    let sys = MemorySystem::new(events_cfg(), PrefetcherKind::Planaria.build());
    let (result, report) = sys.run_stream_telemetry(&mut trace.stream(), 0.0);

    assert_eq!(report.used(PrefetchOrigin::Slp), result.useful_slp, "SLP useful split");
    assert_eq!(report.used(PrefetchOrigin::Tlp), result.useful_tlp, "TLP useful split");
    assert!(result.useful_slp > 0 && result.useful_tlp > 0, "both origins active on HI3");
    assert!(!report.events.is_empty());
    assert!(report.events.windows(2).all(|w| w[0].cycle <= w[1].cycle), "events sorted by cycle");
}

#[test]
fn per_device_lifecycle_rows_conserve_origin_totals() {
    use planaria_common::DeviceId;
    let trace = profile(AppId::HoK).scaled(LEN).build();
    let sys = MemorySystem::new(events_cfg(), PrefetcherKind::Planaria.build());
    let (_, report) = sys.run_stream_telemetry(&mut trace.stream(), 0.0);

    // Every lifecycle bump lands in exactly one device row and one origin
    // row, so the two splits always sum to the same totals.
    let pd = &report.counters.per_device;
    for (name, rows, origin_total) in [
        ("issued", &pd.issued, report.total_issued()),
        ("used", &pd.used, report.count(EventKind::PrefetchUsed)),
        ("filled", &pd.filled, report.count(EventKind::PrefetchFilled)),
        ("evicted_unused", &pd.evicted_unused, report.count(EventKind::PrefetchEvictedUnused)),
        ("late", &pd.late, report.count(EventKind::PrefetchLate)),
    ] {
        assert_eq!(rows.iter().sum::<u64>(), origin_total, "{name} split must conserve");
    }
    // HoK traces span several devices; attribution must not collapse onto
    // one row.
    let active = DeviceId::ALL.iter().filter(|d| report.issued_by(**d) > 0).count();
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
    assert!(report.total_issued() > 0, "counting sink is always on");
    assert!(report.count(EventKind::TlpLookup) > 0);
}
