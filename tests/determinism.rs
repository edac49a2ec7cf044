//! Determinism: identical configurations must produce bit-identical
//! results — the property that makes every figure in this repository
//! regenerable.

use planaria_sim::experiment::{run_app, PrefetcherKind};
use planaria_trace::apps::{profile, AppId};

#[test]
fn trace_generation_is_deterministic() {
    let a = profile(AppId::TikT).scaled(30_000).build();
    let b = profile(AppId::TikT).scaled(30_000).build();
    assert_eq!(a.accesses(), b.accesses());
}

#[test]
fn full_simulation_is_deterministic() {
    for kind in [PrefetcherKind::Planaria, PrefetcherKind::Bop, PrefetcherKind::Spp] {
        let r1 = run_app(AppId::Fort, kind, 25_000);
        let r2 = run_app(AppId::Fort, kind, 25_000);
        assert_eq!(r1, r2, "{kind} run diverged");
    }
}

#[test]
fn results_are_hasher_independent() {
    use planaria_hash::{set_global_hasher, HasherKind};
    // Any decision that leaks hash-map iteration order into the simulation
    // (e.g. a victim scan tie-broken by whichever entry the map yields
    // first) would show up here as a result diff between hashers. Maps
    // capture the global kind at construction, so each run below is
    // internally consistent even though other tests share the process.
    set_global_hasher(HasherKind::Std);
    let under_std = run_app(AppId::HoK, PrefetcherKind::Planaria, 25_000);
    set_global_hasher(HasherKind::Fx);
    let under_fx = run_app(AppId::HoK, PrefetcherKind::Planaria, 25_000);
    assert_eq!(under_std, under_fx, "results must not depend on hash-map iteration order");
}

#[test]
fn thread_count_does_not_change_results() {
    use planaria_sim::runner::{Job, Runner};
    // The rewritten hot path (SoA tables, derived Ref rows, batched
    // dispatch) must stay bit-identical whether the grid runs serially or
    // fanned out over workers: every SimResult field, including the f64
    // bit patterns inside, compares equal across thread counts.
    let jobs = || -> Vec<Job> {
        [AppId::Cfm, AppId::HoK, AppId::Fort]
            .iter()
            .flat_map(|&app| {
                [PrefetcherKind::Planaria, PrefetcherKind::Bop, PrefetcherKind::Spp]
                    .iter()
                    .map(move |&kind| Job::grid_cell(app, kind, 15_000))
            })
            .collect()
    };
    let serial = Runner::new(1).run(jobs()).into_results();
    let fanned = Runner::new(8).run(jobs()).into_results();
    assert_eq!(serial, fanned, "results must not depend on worker thread count");
}

#[test]
fn closed_loop_simulation_is_deterministic() {
    use planaria_sim::{MemorySystem, SystemConfig, TrafficConfig, TrafficModel};
    let run = || {
        let trace = profile(AppId::Fort).scaled(20_000).build();
        let sys = MemorySystem::new(SystemConfig::default(), PrefetcherKind::Planaria.build());
        TrafficModel::new(TrafficConfig::new(2)).run_stream_telemetry(sys, &mut trace.stream())
    };
    let (r1, c1, _) = run();
    let (r2, c2, _) = run();
    assert_eq!(r1, r2, "closed-loop result diverged");
    assert_eq!(c1, c2, "closed-loop slowdown report diverged");
}

#[test]
fn scaling_controls_length_and_extends_coverage() {
    // (Exact prefix preservation does not hold: the per-component shares
    // change with the target length, so the merge boundary shifts.)
    let short = profile(AppId::Cfm).scaled(10_000).build();
    let long = profile(AppId::Cfm).scaled(20_000).build();
    assert_eq!(short.len(), 10_000);
    assert_eq!(long.len(), 20_000);
    assert!(long.unique_pages() >= short.unique_pages());
    assert!(long.duration() >= short.duration());
}

#[test]
fn distinct_seeds_change_results() {
    let base = profile(AppId::Cfm).scaled(10_000);
    let mut reseeded = base.clone();
    reseeded.seed ^= 0xDEAD_BEEF;
    assert_ne!(base.build().accesses(), reseeded.build().accesses());
}
