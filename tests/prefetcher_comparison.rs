//! Cross-prefetcher behavioural contrasts on targeted synthetic traffic:
//! each traffic class has a known "right" prefetcher, and the simulator
//! must rank them accordingly.

use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::runner::{Job, Runner};
use planaria_sim::SimResult;
use planaria_trace::synth::{FootprintSpec, RandomSpec, StreamSpec, StrideSpec};
use planaria_trace::{ComponentSpec, WorkloadSpec};

const LEN: usize = 350_000;

fn single(name: &str, spec: ComponentSpec) -> WorkloadSpec {
    WorkloadSpec::new(name, name, 11, LEN).with(1.0, spec)
}

/// Runs every kind over one workload on the parallel engine, results in
/// `kinds` order.
fn run_all(workload: WorkloadSpec, kinds: &[PrefetcherKind]) -> Vec<SimResult> {
    let jobs = kinds.iter().map(|&k| Job::new(k.label(), workload.clone(), k)).collect();
    Runner::auto().run(jobs).into_results()
}

/// A footprint pool in the paper's regime: working set (~6 MB) beyond the
/// 4 MB SC, allocator-scattered pages, tight visit bursts.
fn paper_footprint() -> FootprintSpec {
    FootprintSpec { pages: 6144, page_spread: 7, intra_gap: 20, ..FootprintSpec::default() }
}

#[test]
fn streaming_favours_delta_prefetchers() {
    let workload = single("stream", ComponentSpec::Stream(StreamSpec::default()));
    let [none, nl, bop] =
        &run_all(workload, &[PrefetcherKind::None, PrefetcherKind::NextLine, PrefetcherKind::Bop])
            [..]
    else {
        unreachable!("three kinds in, three results out")
    };
    assert!(nl.hit_rate > none.hit_rate + 0.3, "next-line on stream: {:.3}", nl.hit_rate);
    assert!(bop.hit_rate > none.hit_rate + 0.3, "BOP on stream: {:.3}", bop.hit_rate);
    assert!(nl.prefetch_accuracy > 0.85);
}

#[test]
fn strided_traffic_favours_bop_over_next_line() {
    let workload = single(
        "stride4",
        ComponentSpec::Stride(StrideSpec { stride_blocks: 4, ..StrideSpec::default() }),
    );
    let [nl, bop] = &run_all(workload, &[PrefetcherKind::NextLine, PrefetcherKind::Bop])[..] else {
        unreachable!("two kinds in, two results out")
    };
    // Next-line prefetches X+1, which a stride-4 walk never touches.
    assert!(
        bop.hit_rate > nl.hit_rate + 0.2,
        "BOP {:.3} vs next-line {:.3} on stride-4",
        bop.hit_rate,
        nl.hit_rate
    );
    assert!(nl.prefetch_accuracy < 0.2, "next-line must waste traffic here");
}

#[test]
fn shuffled_footprints_defeat_delta_prefetchers_but_not_planaria() {
    let workload = single("fp", ComponentSpec::Footprint(paper_footprint()));
    let [none, bop, spp, planaria] = &run_all(workload, &PrefetcherKind::FIGURE_SET)[..] else {
        unreachable!("four kinds in, four results out")
    };
    // Planaria converts revisits into hits; the delta engines mostly can't.
    assert!(
        planaria.hit_rate > bop.hit_rate + 0.15,
        "planaria {:.3} vs bop {:.3}",
        planaria.hit_rate,
        bop.hit_rate
    );
    assert!(
        planaria.hit_rate > spp.hit_rate + 0.15,
        "planaria {:.3} vs spp {:.3}",
        planaria.hit_rate,
        spp.hit_rate
    );
    assert!(planaria.amat_cycles < none.amat_cycles);
    // And with far better accuracy than BOP's blind offset traffic.
    assert!(planaria.prefetch_accuracy > bop.prefetch_accuracy);
}

#[test]
fn random_traffic_punishes_aggressive_prefetchers() {
    let workload = single("rand", ComponentSpec::Random(RandomSpec::default()));
    let [none, nl, planaria] = &run_all(
        workload,
        &[PrefetcherKind::None, PrefetcherKind::NextLine, PrefetcherKind::Planaria],
    )[..] else {
        unreachable!("three kinds in, three results out")
    };
    // Next-line fires on every miss with near-zero accuracy: pure traffic.
    assert!(nl.traffic_delta(none) > 0.5, "next-line traffic {:+.3}", nl.traffic_delta(none));
    assert!(nl.prefetch_accuracy < 0.1);
    // Planaria stays quiet: no stable footprints, no similar neighbours.
    assert!(
        planaria.traffic_delta(none) < 0.1,
        "planaria traffic {:+.3} on random",
        planaria.traffic_delta(none)
    );
}

#[test]
fn planaria_outperforms_its_halves_on_mixed_traffic() {
    let workload = WorkloadSpec::new("mix", "mix", 17, LEN)
        .with(0.6, ComponentSpec::Footprint(paper_footprint()))
        .with(0.4, ComponentSpec::Neighbor(planaria_trace::synth::NeighborSpec::default()));
    let [slp, tlp, both] = &run_all(
        workload,
        &[PrefetcherKind::SlpOnly, PrefetcherKind::TlpOnly, PrefetcherKind::Planaria],
    )[..] else {
        unreachable!("three kinds in, three results out")
    };
    assert!(
        both.hit_rate >= slp.hit_rate - 1e-9,
        "composite {:.3} vs SLP {:.3}",
        both.hit_rate,
        slp.hit_rate
    );
    assert!(
        both.hit_rate >= tlp.hit_rate - 1e-9,
        "composite {:.3} vs TLP {:.3}",
        both.hit_rate,
        tlp.hit_rate
    );
    // Each half contributes usefully on this mix.
    assert!(both.useful_slp > 0 && both.useful_tlp > 0);
}
