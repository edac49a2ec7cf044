//! The parallel experiment engine's contract: fan a grid across worker
//! threads and get *exactly* the serial answer — same results, same order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::runner::{Job, Runner};
use planaria_sim::{GovernorConfig, SystemConfig};
use planaria_trace::apps::{profile, AppId};

const LEN: usize = 30_000;
const APPS: [AppId; 2] = [AppId::Cfm, AppId::Fort];

fn grid_jobs() -> Vec<Job> {
    APPS.iter()
        .flat_map(|&app| PrefetcherKind::FIGURE_SET.map(|k| Job::grid_cell(app, k, LEN)))
        .collect()
}

#[test]
fn parallel_results_are_bit_identical_to_serial() {
    let serial = Runner::new(1).run(grid_jobs());
    let parallel = Runner::new(4).run(grid_jobs());
    assert_eq!(parallel.threads, 4.min(grid_jobs().len()));
    // SimResult derives PartialEq over every metric field (floats
    // included), so this is bit-level equality of the whole grid.
    assert_eq!(
        serial.clone().into_results(),
        parallel.clone().into_results(),
        "thread fan-out must not perturb simulation results"
    );
    // Cells come back in submission order, not completion order.
    let labels: Vec<&str> = parallel.cells.iter().map(|c| c.label.as_str()).collect();
    assert_eq!(labels[0], "CFM/None");
    assert_eq!(labels[4], "Fort/None");
    assert_eq!(labels[7], "Fort/Planaria");
}

#[test]
fn thread_count_sweep_is_deterministic() {
    let reference = Runner::new(1).run(grid_jobs()).into_results();
    for threads in [2, 3, 8, 16] {
        let results = Runner::new(threads).run(grid_jobs()).into_results();
        assert_eq!(results, reference, "results drifted at {threads} threads");
    }
}

#[test]
fn engine_honours_per_job_config() {
    // Two cells differing only in governor config must match the direct
    // MemorySystem paths exactly.
    let spec = profile(AppId::HoK).scaled(LEN);
    let governed_cfg =
        SystemConfig { governor: Some(GovernorConfig::default()), ..SystemConfig::default() };
    let report = Runner::new(2).run(vec![
        Job::new("plain", spec.clone(), PrefetcherKind::Bop),
        Job::new("gov", spec.clone(), PrefetcherKind::Bop).config(governed_cfg),
    ]);
    let results = report.into_results();

    let direct = |cfg| {
        planaria_sim::MemorySystem::new(cfg, PrefetcherKind::Bop.build())
            .run_stream(&mut spec.build().stream())
    };
    assert_eq!(results[0], direct(SystemConfig::default()));
    assert_eq!(results[1], direct(governed_cfg));
    assert_ne!(results[0], results[1], "governor config must reach the cell");
}

#[test]
fn progress_observation_does_not_perturb_results() {
    let quiet = Runner::new(2).run(grid_jobs()).into_results();
    let ticks = Arc::new(AtomicUsize::new(0));
    let sink = Arc::clone(&ticks);
    let observed = Runner::new(2)
        .progress_every(5_000)
        .with_progress(move |e| {
            assert_eq!(e.trace_len, LEN);
            assert!(e.done <= e.trace_len);
            assert!((0.0..=1.0).contains(&e.hit_rate));
            assert!(e.job < e.total);
            sink.fetch_add(1, Ordering::Relaxed);
        })
        .run(grid_jobs())
        .into_results();
    assert_eq!(quiet, observed);
    // 8 cells × (30_000 / 5_000) samples each.
    assert_eq!(ticks.load(Ordering::Relaxed), 8 * 6);
}

#[test]
fn report_observability_is_consistent() {
    let report = Runner::new(2).run(grid_jobs());
    let slowest = report.slowest().expect("nonempty batch");
    assert!(report.cells.iter().all(|c| c.wall <= slowest.wall));
    assert_eq!(
        report.total_sim_cycles(),
        report.cells.iter().map(|c| c.result.duration_cycles).sum::<u64>()
    );
    assert!(report.sim_cycles_per_sec() > 0.0);
    let summary = report.summary();
    assert!(summary.contains("8 cells"), "summary was: {summary}");
    assert!(summary.contains("slowest cell"), "summary was: {summary}");
}
