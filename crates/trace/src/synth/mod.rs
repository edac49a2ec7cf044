//! Synthetic workload synthesis.
//!
//! A [`WorkloadSpec`] describes a workload as a weighted mixture of traffic
//! *components*, each modelling one traffic class the paper's system cache
//! observes:
//!
//! * [`FootprintSpec`] — revisited pages with stable footprint snapshots
//!   (Observation 1; the regularity SLP exploits).
//! * [`NeighborSpec`] — clusters of address-adjacent pages with similar
//!   footprints, touched (mostly) once (Observation 2; what TLP exploits).
//! * [`StreamSpec`] — sequential block streaming (GPU framebuffer/texture
//!   scans; what next-line/BOP-style prefetchers exploit).
//! * [`StrideSpec`] — constant-stride runs (DMA engines; BOP's home turf).
//! * [`RandomSpec`] — irregular pointer-chase-like traffic that no
//!   memory-side prefetcher can predict (it punishes aggressive ones).
//!
//! All generation is deterministic for a given spec (seeded `StdRng`s), so
//! every figure in the repository regenerates bit-identically.

mod footprint;
mod neighbor;
mod simple;

pub use footprint::FootprintSpec;
pub use neighbor::NeighborSpec;
pub use simple::{RandomSpec, StreamSpec, StrideSpec};

use planaria_common::{AccessKind, Bitmap64, Cycle, DeviceId, MemAccess, PageNum, BLOCKS_PER_PAGE};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::Trace;

/// Pages reserved per component region so components never alias.
const REGION_PAGES: u64 = 1 << 24;

/// One traffic class with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ComponentSpec {
    /// Stable revisited intra-page footprints (SLP-friendly).
    Footprint(FootprintSpec),
    /// Clusters of similar neighbouring pages (TLP-friendly).
    Neighbor(NeighborSpec),
    /// Sequential streaming.
    Stream(StreamSpec),
    /// Constant-stride runs.
    Stride(StrideSpec),
    /// Irregular traffic.
    Random(RandomSpec),
}

impl ComponentSpec {
    fn generate(&self, seed: u64, count: usize, region_base: PageNum, out: &mut Vec<MemAccess>) {
        match self {
            ComponentSpec::Footprint(s) => s.generate(seed, count, region_base, out),
            ComponentSpec::Neighbor(s) => s.generate(seed, count, region_base, out),
            ComponentSpec::Stream(s) => s.generate(seed, count, region_base, out),
            ComponentSpec::Stride(s) => s.generate(seed, count, region_base, out),
            ComponentSpec::Random(s) => s.generate(seed, count, region_base, out),
        }
    }

    /// Returns a resumable generator for this component's access sequence.
    ///
    /// The generator emits exactly the sequence `generate` would produce,
    /// one access per call, which is what lets the streaming layer render
    /// a workload chunk-at-a-time without any change in output.
    pub(crate) fn generator(&self, seed: u64, region_base: PageNum) -> ComponentGen {
        match self {
            ComponentSpec::Footprint(s) => ComponentGen::Footprint(s.generator(seed, region_base)),
            ComponentSpec::Neighbor(s) => ComponentGen::Neighbor(s.generator(seed, region_base)),
            ComponentSpec::Stream(s) => ComponentGen::Stream(s.generator(seed, region_base)),
            ComponentSpec::Stride(s) => ComponentGen::Stride(s.generator(seed, region_base)),
            ComponentSpec::Random(s) => ComponentGen::Random(s.generator(seed, region_base)),
        }
    }
}

/// A resumable per-component access generator (see [`ComponentSpec::generator`]).
///
/// Every variant owns its RNG and timeline state, so a prefix of calls to
/// [`ComponentGen::next_access`] is bit-identical to the same prefix of a
/// bulk `generate` — the property the streaming determinism tests pin.
pub(crate) enum ComponentGen {
    /// Footprint-snapshot traffic.
    Footprint(footprint::FootprintGen),
    /// Neighbouring-cluster traffic.
    Neighbor(neighbor::NeighborGen),
    /// Sequential streaming traffic.
    Stream(simple::StreamGen),
    /// Constant-stride traffic.
    Stride(simple::StrideGen),
    /// Irregular traffic.
    Random(simple::RandomGen),
}

impl ComponentGen {
    /// Emits the next access of the component's infinite sequence.
    pub(crate) fn next_access(&mut self) -> MemAccess {
        match self {
            ComponentGen::Footprint(g) => g.next_access(),
            ComponentGen::Neighbor(g) => g.next_access(),
            ComponentGen::Stream(g) => g.next_access(),
            ComponentGen::Stride(g) => g.next_access(),
            ComponentGen::Random(g) => g.next_access(),
        }
    }
}

/// A component together with its share of the workload's accesses.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedComponent {
    /// Relative weight (normalised over the spec's components).
    pub weight: f64,
    /// The traffic class.
    pub spec: ComponentSpec,
}

/// A deterministic description of a synthetic workload.
///
/// # Examples
///
/// ```
/// use planaria_trace::{ComponentSpec, WeightedComponent, WorkloadSpec};
/// use planaria_trace::synth::FootprintSpec;
///
/// let spec = WorkloadSpec::new("demo", "demo", 42, 5_000)
///     .with(1.0, ComponentSpec::Footprint(FootprintSpec::default()));
/// let trace = spec.build();
/// assert_eq!(trace.len(), 5_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Full workload name (e.g. "Honor of Kings").
    pub name: String,
    /// Short label used in figures (e.g. "HoK").
    pub abbr: String,
    /// Master seed; all component RNGs derive from it.
    pub seed: u64,
    /// Number of accesses to synthesise.
    pub length: usize,
    /// The weighted traffic mix.
    pub components: Vec<WeightedComponent>,
}

impl WorkloadSpec {
    /// Creates an empty spec; add components with [`WorkloadSpec::with`].
    pub fn new(name: impl Into<String>, abbr: impl Into<String>, seed: u64, length: usize) -> Self {
        Self { name: name.into(), abbr: abbr.into(), seed, length, components: Vec::new() }
    }

    /// Adds a weighted component (builder style).
    #[must_use]
    pub fn with(mut self, weight: f64, spec: ComponentSpec) -> Self {
        assert!(weight > 0.0, "component weight must be positive");
        self.components.push(WeightedComponent { weight, spec });
        self
    }

    /// Returns a copy with a different target length.
    #[must_use]
    pub fn scaled(mut self, length: usize) -> Self {
        self.length = length;
        self
    }

    /// Renders the spec into a trace.
    ///
    /// Each component generates its share of accesses in a private address
    /// region on its own timeline; the mixer then merges all events in
    /// arrival order and truncates to the requested length.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no components.
    pub fn build(&self) -> Trace {
        let mut events = Vec::with_capacity(self.length + self.length / 8);
        for plan in self.plans() {
            plan.spec.generate(plan.seed, plan.share, plan.region_base, &mut events);
        }
        events.sort_by_key(|a| a.cycle);
        events.truncate(self.length);
        Trace::new(self.abbr.clone(), events)
    }

    /// Returns a pull-based stream rendering the same accesses as
    /// [`WorkloadSpec::build`], chunk-at-a-time, in O(components) memory.
    ///
    /// # Examples
    ///
    /// ```
    /// use planaria_trace::stream::AccessStream;
    /// use planaria_trace::{ComponentSpec, WorkloadSpec};
    /// use planaria_trace::synth::StreamSpec;
    ///
    /// let spec = WorkloadSpec::new("demo", "demo", 42, 1_000)
    ///     .with(1.0, ComponentSpec::Stream(StreamSpec::default()));
    /// let mut stream = spec.stream();
    /// let mut chunk = Vec::new();
    /// let n = stream.next_chunk(256, &mut chunk);
    /// assert_eq!(n, 256);
    /// assert_eq!(chunk, spec.build().accesses()[..256]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the spec has no components.
    pub fn stream(&self) -> crate::stream::WorkloadStream {
        crate::stream::WorkloadStream::new(self)
    }

    /// Per-component generation plan shared by [`WorkloadSpec::build`] and
    /// [`WorkloadSpec::stream`]: the share overshoot, derived seed and
    /// private address region of each component. Keeping this in one place
    /// is what guarantees the two render paths agree bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no components.
    pub(crate) fn plans(&self) -> Vec<ComponentPlan<'_>> {
        assert!(!self.components.is_empty(), "workload spec has no components");
        let total_weight: f64 = self.components.iter().map(|c| c.weight).sum();
        self.components
            .iter()
            .enumerate()
            .map(|(i, wc)| ComponentPlan {
                spec: &wc.spec,
                // Overshoot each component slightly so truncation to
                // `length` after merging never under-fills the trace.
                share: (wc.weight / total_weight * self.length as f64).ceil() as usize + 16,
                seed: self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64),
                region_base: PageNum::new((i as u64 + 1) * REGION_PAGES),
            })
            .collect()
    }
}

/// One component's slice of a [`WorkloadSpec`] render (see `plans`).
pub(crate) struct ComponentPlan<'a> {
    /// The component to render.
    pub(crate) spec: &'a ComponentSpec,
    /// Number of accesses the component contributes before the merge.
    pub(crate) share: usize,
    /// Derived RNG seed.
    pub(crate) seed: u64,
    /// Base page of the component's private address region.
    pub(crate) region_base: PageNum,
}

/// Shared per-access envelope: device, read ratio and timing gaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Issuing device recorded in the trace.
    pub device: DeviceId,
    /// Probability that an access is a read.
    pub read_ratio: f64,
}

impl Default for Envelope {
    fn default() -> Self {
        Self { device: DeviceId::Cpu(0), read_ratio: 0.8 }
    }
}

impl Envelope {
    pub(crate) fn kind(&self, rng: &mut StdRng) -> AccessKind {
        if rng.gen_bool(self.read_ratio.clamp(0.0, 1.0)) {
            AccessKind::Read
        } else {
            AccessKind::Write
        }
    }
}

/// Samples a gap uniformly in `[mean/2, 3*mean/2]`, at least 1 cycle.
pub(crate) fn sample_gap(rng: &mut StdRng, mean: u64) -> u64 {
    let mean = mean.max(1);
    let lo = (mean / 2).max(1);
    let hi = mean + mean / 2;
    rng.gen_range(lo..=hi.max(lo))
}

pub(crate) fn rng_for(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// Draws `blocks` distinct block indices as a bitmap.
pub(crate) fn random_footprint(rng: &mut StdRng, blocks: usize) -> Bitmap64 {
    let mut idx: [usize; BLOCKS_PER_PAGE] = core::array::from_fn(|i| i);
    idx.shuffle(rng);
    idx.into_iter().take(blocks).collect()
}

/// Returns `fp` with up to `bits` set blocks swapped for unset ones, each
/// pair drawn uniformly; the footprint size is kept. Stops early on an
/// empty or full bitmap.
pub(crate) fn swap_blocks(rng: &mut StdRng, mut fp: Bitmap64, bits: usize) -> Bitmap64 {
    for _ in 0..bits {
        let set = fp.count();
        if set == 0 || set == BLOCKS_PER_PAGE {
            break;
        }
        let drop = fp.iter_set().nth(rng.gen_range(0..set));
        let add = Bitmap64::FULL.minus(fp).iter_set().nth(rng.gen_range(0..BLOCKS_PER_PAGE - set));
        let (Some(drop), Some(add)) = (drop, add) else { unreachable!("ranks below the counts") };
        fp.clear(drop);
        fp.set(add);
    }
    fp
}

/// Builds one access at the current clock and advances the component clock.
pub(crate) fn emit_one(
    rng: &mut StdRng,
    env: &Envelope,
    addr: planaria_common::PhysAddr,
    clock: &mut Cycle,
    mean_gap: u64,
) -> MemAccess {
    let access = MemAccess::new(addr, env.kind(rng), env.device, *clock);
    *clock += sample_gap(rng, mean_gap);
    access
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec::new("test", "t", 7, 2_000)
            .with(2.0, ComponentSpec::Footprint(FootprintSpec::default()))
            .with(1.0, ComponentSpec::Stream(StreamSpec::default()))
            .with(0.5, ComponentSpec::Random(RandomSpec::default()))
    }

    #[test]
    fn build_produces_exact_length() {
        let t = small_spec().build();
        assert_eq!(t.len(), 2_000);
    }

    #[test]
    fn build_is_deterministic() {
        let a = small_spec().build();
        let b = small_spec().build();
        assert_eq!(a.accesses(), b.accesses());
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_spec().build();
        let mut spec = small_spec();
        spec.seed = 8;
        let b = spec.build();
        assert_ne!(a.accesses(), b.accesses());
    }

    #[test]
    fn components_use_disjoint_regions() {
        let t = small_spec().build();
        // Every page must fall in exactly one component region.
        for a in t.iter() {
            let region = a.addr.page().as_u64() / REGION_PAGES;
            assert!((1..=3).contains(&region), "page in unexpected region {region}");
        }
    }

    #[test]
    fn accesses_sorted_by_cycle() {
        let t = small_spec().build();
        assert!(t.accesses().windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }

    #[test]
    #[should_panic(expected = "no components")]
    fn build_rejects_empty_spec() {
        let _ = WorkloadSpec::new("x", "x", 1, 10).build();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn with_rejects_zero_weight() {
        let _ = WorkloadSpec::new("x", "x", 1, 10)
            .with(0.0, ComponentSpec::Random(RandomSpec::default()));
    }

    #[test]
    fn footprint_helpers_draw_like_the_collecting_versions() {
        // The helpers the footprint and neighbour components used to carry,
        // which collected block lists into vectors on every call.
        fn random_vec(rng: &mut StdRng, blocks: usize) -> Bitmap64 {
            let mut idx: Vec<usize> = (0..BLOCKS_PER_PAGE).collect();
            idx.shuffle(rng);
            idx.into_iter().take(blocks).collect()
        }
        fn swap_vec(rng: &mut StdRng, mut fp: Bitmap64, bits: usize) -> Bitmap64 {
            for _ in 0..bits {
                let set: Vec<usize> = fp.iter_set().collect();
                let unset: Vec<usize> = (0..BLOCKS_PER_PAGE).filter(|&i| !fp.get(i)).collect();
                if set.is_empty() || unset.is_empty() {
                    break;
                }
                let drop = set[rng.gen_range(0..set.len())];
                let add = unset[rng.gen_range(0..unset.len())];
                fp.clear(drop);
                fp.set(add);
            }
            fp
        }
        for seed in 0..260 {
            let (mut a, mut b) = (rng_for(seed, 1), rng_for(seed, 1));
            let (blocks, bits) = ((seed % 65) as usize, (seed % 7) as usize);
            let fp = random_footprint(&mut a, blocks);
            assert_eq!(fp, random_vec(&mut b, blocks));
            assert_eq!(fp.count(), blocks);
            let swapped = swap_blocks(&mut a, fp, bits);
            assert_eq!(swapped, swap_vec(&mut b, fp, bits));
            assert_eq!(swapped.count(), blocks);
            // Equal draw counts keep the two streams in step.
            assert_eq!(a.gen_range(0..u64::MAX), b.gen_range(0..u64::MAX));
        }
    }

    #[test]
    fn sample_gap_within_bounds() {
        let mut rng = rng_for(1, 2);
        for mean in [1u64, 2, 10, 1000] {
            for _ in 0..100 {
                let g = sample_gap(&mut rng, mean);
                assert!(g >= 1 && g <= mean + mean / 2 + 1, "gap {g} for mean {mean}");
            }
        }
    }
}
