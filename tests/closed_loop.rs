//! The closed-loop traffic model's contract: an unbounded window is
//! *exactly* the open-loop simulator (so the default figure pipeline is
//! untouched), a small window visibly delays contended requestors, and
//! every per-device attribution row conserves the aggregate it splits.

use planaria_common::{DeviceId, PrefetchOrigin};
use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::runner::{Job, Runner};
use planaria_sim::{
    ClosedLoopReport, EventKind, MemorySystem, SimResult, SystemConfig, TelemetryConfig,
    TelemetryReport, TrafficConfig, TrafficModel,
};
use planaria_trace::apps::{profile, AppId};
use planaria_trace::Trace;

const LEN: usize = 30_000;

fn system() -> MemorySystem {
    MemorySystem::new(SystemConfig::default(), PrefetcherKind::Planaria.build())
}

fn closed_loop(window: usize, trace: &Trace) -> (SimResult, ClosedLoopReport, TelemetryReport) {
    TrafficModel::new(TrafficConfig { window }).run_stream_telemetry(system(), &mut trace.stream())
}

#[test]
fn unbounded_window_is_bit_identical_to_open_loop() {
    for app in [AppId::HoK, AppId::Cfm] {
        let trace = profile(app).scaled(LEN).build();
        let open = system().run_stream(&mut trace.stream());
        let (closed, report, _) = closed_loop(usize::MAX, &trace);
        assert_eq!(open, closed, "{app:?}: unbounded closed loop must equal open loop");
        // With no stall anywhere, every device keeps its recorded schedule.
        assert!(
            report.devices.iter().all(|d| d.derived_finish >= d.open_loop_finish),
            "completions can only come after arrivals"
        );
    }
}

#[test]
fn small_window_delays_a_contended_device() {
    let trace = profile(AppId::HoK).scaled(LEN).build();
    let (result, report, _) = closed_loop(1, &trace);
    assert_eq!(result.accesses, trace.len() as u64, "closed loop drops no accesses");
    // The acceptance bar: under DRAM contention with a tiny window, at
    // least one device's derived completion time measurably exceeds its
    // recorded (open-loop) finish time.
    let delayed =
        report.devices.iter().filter(|d| d.derived_finish > d.open_loop_finish + 1_000).count();
    assert!(delayed >= 1, "window=1 must measurably delay a device: {:#?}", report.devices);
    assert!(report.unfairness > 1.0, "contended devices slow down unevenly");
}

#[test]
fn wider_windows_monotonically_approach_open_loop() {
    let trace = profile(AppId::HoK).scaled(LEN).build();
    let spans: Vec<u64> = [1usize, 8, usize::MAX]
        .iter()
        .map(|&w| {
            let (_, report, _) = closed_loop(w, &trace);
            report.devices.iter().map(|d| d.derived_finish).max().unwrap()
        })
        .collect();
    assert!(spans[0] >= spans[1] && spans[1] >= spans[2], "finish times {spans:?}");
}

#[test]
fn per_device_cache_rows_conserve_aggregates() {
    let trace = profile(AppId::Hi3).scaled(LEN).build();
    let (result, _closed, report) = closed_loop(4, &trace);

    // Hits/accesses: summing the per-device rows reproduces the headline
    // hit rate exactly.
    let accesses: u64 = result.device_stats.iter().map(|d| d.accesses).sum();
    let hits: u64 = result.device_stats.iter().map(|d| d.hits).sum();
    assert_eq!(accesses, result.accesses);
    assert!((hits as f64 / accesses as f64 - result.hit_rate).abs() < 1e-12);

    // Issued prefetches: per-device telemetry rows sum to the per-origin
    // sum, which equals DRAM prefetch reads (the fig9 accounting).
    let origins = [PrefetchOrigin::Slp, PrefetchOrigin::Tlp, PrefetchOrigin::Baseline];
    let split = |kind: EventKind| -> (u64, u64) {
        let by_device = DeviceId::ALL.iter().map(|&d| report.by_device(kind, d)).sum();
        let by_origin = origins.iter().map(|&o| report.by_origin(kind, o)).sum();
        (by_device, by_origin)
    };
    let (by_device, by_origin) = split(EventKind::PrefetchIssued);
    assert_eq!(by_device, by_origin, "issued: device split vs origin split");
    assert_eq!(by_device, result.traffic.prefetch_reads);
    assert!(by_device > 0, "Planaria must prefetch on HI3");

    // Used prefetches: the device split conserves the fig9 SLP/TLP split.
    let (used_by_device, used_by_origin) = split(EventKind::PrefetchUsed);
    assert_eq!(used_by_device, used_by_origin, "used: device split vs origin split");
    assert_eq!(used_by_device, result.useful_prefetches);
}

#[test]
fn open_loop_per_device_rows_also_conserve() {
    // The attribution layer is always on; conservation must hold for the
    // default open-loop path too (including the per-device AMAT sums).
    let trace = profile(AppId::Fort).scaled(LEN).build();
    let result = system().run_stream(&mut trace.stream());
    let accesses: u64 = result.device_stats.iter().map(|d| d.accesses).sum();
    let hits: u64 = result.device_stats.iter().map(|d| d.hits).sum();
    assert_eq!(accesses, result.accesses);
    assert!((hits as f64 / accesses as f64 - result.hit_rate).abs() < 1e-12);
    let weighted_amat: f64 =
        result.device_stats.iter().map(|d| d.amat_cycles * d.accesses as f64).sum::<f64>()
            / accesses as f64;
    assert!(
        (weighted_amat - result.amat_cycles).abs() < 1e-9,
        "per-device AMAT must reaggregate: {} vs {}",
        weighted_amat,
        result.amat_cycles
    );
    assert!(result.device_stats.len() > 1, "Fort exercises several devices");
}

#[test]
fn closed_loop_is_deterministic_across_threads_and_hashers() {
    use planaria_hash::{set_global_hasher, HasherKind};
    let jobs = || -> Vec<Job> {
        [AppId::HoK, AppId::Cfm]
            .iter()
            .map(|&app| {
                Job::grid_cell(app, PrefetcherKind::Planaria, LEN)
                    .config(SystemConfig {
                        telemetry: TelemetryConfig::events(),
                        ..SystemConfig::default()
                    })
                    .traffic(TrafficConfig::new(2))
            })
            .collect()
    };
    set_global_hasher(HasherKind::Std);
    let serial = Runner::new(1).run(jobs());
    set_global_hasher(HasherKind::Fx);
    let parallel = Runner::new(8).run(jobs());
    for (s, p) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(s.result, p.result, "{}: closed-loop results drifted", s.label);
        assert_eq!(s.closed_loop, p.closed_loop, "{}: slowdown report drifted", s.label);
        assert_eq!(
            s.telemetry.to_jsonl(&s.label),
            p.telemetry.to_jsonl(&p.label),
            "{}: closed-loop telemetry JSONL drifted",
            s.label
        );
    }
}

#[test]
fn open_loop_results_unchanged_when_traffic_model_disabled() {
    // A Job without `.traffic(..)` must take the plain open-loop path —
    // byte-identical to driving MemorySystem::run_stream directly.
    let trace = profile(AppId::Qsm).scaled(LEN).build();
    let direct = system().run_stream(&mut trace.stream());
    let via_runner = Runner::new(1)
        .run(vec![Job::grid_cell(AppId::Qsm, PrefetcherKind::Planaria, LEN)])
        .into_results()
        .remove(0);
    assert_eq!(direct, via_runner);
}
