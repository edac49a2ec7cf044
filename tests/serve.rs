//! Integration tests for `planaria-serve`: the served execution model is
//! bit-identical to the batch closed loop, snapshots restore with exact
//! continuations, and results are independent of worker count.

use planaria_common::json;
use planaria_serve::{DeviceSpec, ServeConfig, ServedDevice, Service, SNAPSHOT_SCHEMA};
use planaria_sim::{EventKind, MemorySystem, PrefetcherKind, TrafficConfig, TrafficModel};
use planaria_trace::apps::AppId;

/// A small spec that exercises the full Planaria stack quickly.
fn spec(id: u64, app: AppId, length: usize) -> DeviceSpec {
    DeviceSpec::new(id, app).scaled(length)
}

/// Runs a device to completion the way the service does: one turn of
/// `budget` driver iterations at a time.
fn serve_to_completion(dev: &mut ServedDevice, budget: usize) {
    while !dev.is_done() {
        dev.pump(budget);
    }
}

#[test]
fn served_device_matches_batch_closed_loop_bit_identically() {
    let spec = spec(3, AppId::HoK, 4_000);

    // Batch: the existing TrafficModel closed loop over the same stream.
    let sys = MemorySystem::new(spec.system, spec.kind.build());
    let batch = TrafficModel::new(TrafficConfig::new(spec.window))
        .run_stream_telemetry(sys, &mut spec.workload().stream());

    // Served: same accesses in small awkward pulls and pump budgets; a
    // pull of 4 makes nearly every turn end starved.
    for pull in [4, 37] {
        let mut dev = ServedDevice::from_spec(DeviceSpec { mailbox: pull, ..spec.clone() });
        serve_to_completion(&mut dev, 113);
        let served = dev.into_report();

        assert_eq!(batch.0, served.result, "SimResult must be bit-identical at pull {pull}");
        assert_eq!(batch.1, served.closed_loop, "closed-loop outcomes differ at pull {pull}");
        assert_eq!(batch.2, served.telemetry, "telemetry differs at pull {pull}");
    }
}

#[test]
fn snapshot_restore_continues_bit_identically() {
    let spec = spec(11, AppId::Qsm, 3_000);

    // Reference: an uninterrupted served run.
    let mut uninterrupted = ServedDevice::from_spec(spec.clone());
    serve_to_completion(&mut uninterrupted, 4_096);
    let reference = uninterrupted.into_report();

    // Interrupted: run six turns (1,536 of 3,000 accesses), snapshot,
    // restore, finish.
    let mut original = ServedDevice::from_spec(spec.clone());
    for _ in 0..6 {
        original.pump(usize::MAX);
    }
    let doc = original.snapshot().expect("mid-session snapshot");
    assert!(doc.contains(SNAPSHOT_SCHEMA));

    let parsed = json::parse(&doc).expect("snapshot is valid JSON");
    let mut restored = ServedDevice::restore(&parsed, spec.system).expect("snapshot restores");
    assert_eq!(restored.consumed(), original.consumed(), "replay position restored");
    assert_eq!(restored.injected(), original.injected(), "simulated progress restored");

    serve_to_completion(&mut restored, 4_096);
    let continued = restored.into_report();
    assert_eq!(reference, continued, "restored continuation must be bit-identical");

    // The interrupted original, continued in place, agrees too.
    serve_to_completion(&mut original, 4_096);
    assert_eq!(&reference, original.report().unwrap());
}

#[test]
fn snapshot_at_every_turn_restores_bit_identically() {
    // 500 accesses in pulls of 64: seven full pulls and a partial one of
    // 52 give eight snapshot points; the ninth turn's empty pull ends the
    // session.
    let spec = DeviceSpec { mailbox: 64, ..spec(5, AppId::Pm, 500) };
    let mut uninterrupted = ServedDevice::from_spec(spec.clone());
    serve_to_completion(&mut uninterrupted, usize::MAX);
    let reference = uninterrupted.into_report();

    let mut dev = ServedDevice::from_spec(spec.clone());
    let mut snapshots = Vec::new();
    while !dev.is_done() {
        dev.pump(usize::MAX);
        if !dev.is_done() {
            snapshots.push((dev.consumed(), dev.snapshot().expect("snapshot between turns")));
        }
    }
    assert_eq!(reference, dev.into_report(), "snapshotting must not perturb the session");
    let points: Vec<u64> = snapshots.iter().map(|(consumed, _)| *consumed).collect();
    assert_eq!(points, [64, 128, 192, 256, 320, 384, 448, 500]);

    for (consumed, doc) in snapshots {
        assert!(doc.contains("\"eof\": false"), "{doc}");
        let parsed = json::parse(&doc).expect("snapshot is valid JSON");
        let mut restored = ServedDevice::restore(&parsed, spec.system).expect("snapshot restores");
        assert_eq!(restored.consumed(), consumed);
        serve_to_completion(&mut restored, usize::MAX);
        assert_eq!(&reference, restored.report().unwrap(), "diverged after {consumed}");
    }
}

#[test]
fn worker_count_does_not_change_results() {
    let devices = |n: u64| -> Vec<ServedDevice> {
        (0..n)
            .map(|id| {
                let app = AppId::ALL[(id % AppId::ALL.len() as u64) as usize];
                let mut s = spec(id, app, 600);
                s.kind = PrefetcherKind::Planaria;
                ServedDevice::from_spec(s)
            })
            .collect()
    };

    let run = |workers: usize| {
        let cfg = ServeConfig { workers, keep_device_reports: true, ..ServeConfig::default() };
        Service::new(cfg).run(devices(24))
    };

    let one = run(1);
    let eight = run(8);
    assert_eq!(one.shards, eight.shards, "per-shard summaries must not depend on workers");
    assert_eq!(
        one.device_reports, eight.device_reports,
        "per-device reports must not depend on workers"
    );
    assert_eq!(one.devices(), 24);
    assert_eq!(one.total_accesses(), 24 * 600);
}

#[test]
fn shard_telemetry_merge_conserves_lifecycle_counters() {
    let devices: Vec<ServedDevice> = (0..12)
        .map(|id| {
            let app = AppId::ALL[(id % AppId::ALL.len() as u64) as usize];
            ServedDevice::from_spec(spec(id, app, 800))
        })
        .collect();
    let cfg = ServeConfig { keep_device_reports: true, ..ServeConfig::default() };
    let report = Service::new(cfg).run(devices);
    assert_eq!(report.device_reports.len(), 12);

    // Summing any lifecycle counter over per-device reports must equal
    // the same counter in the shard-merged telemetry: merging conserves,
    // it never double-counts or loses.
    let merged = report.merged_telemetry();
    let mut summed: Vec<u64> = merged.counters.words().map(|_| 0).collect();
    for r in &report.device_reports {
        for (total, n) in summed.iter_mut().zip(r.telemetry.counters.words()) {
            *total += n;
        }
    }
    assert!(merged.counters.words().eq(summed), "merged counters must sum the devices'");
    assert!(
        merged.count(EventKind::PrefetchIssued) > 0,
        "Planaria devices must actually issue prefetches in this workload"
    );
}
