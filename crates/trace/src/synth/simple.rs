//! Streaming, strided and irregular traffic components.
//!
//! These model the background traffic classes that a memory-side system
//! cache observes from the GPU, DMA engines and pointer-heavy CPU code.
//! They are what the delta-based baselines (BOP, SPP, next-line) are built
//! for — and what irregular traffic punishes them with.

use planaria_common::{
    Cycle, MemAccess, PageNum, PhysAddr, BLOCKS_PER_PAGE, BLOCK_SIZE, PAGE_SIZE,
};
use rand::rngs::StdRng;
use rand::Rng;

use super::{emit_one, rng_for, sample_gap, Envelope};

/// Sequential block streaming (e.g. GPU framebuffer scans).
///
/// Emits runs of consecutive blocks, then jumps to a fresh area. BOP learns
/// offset +1 and next-line prefetchers shine here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// Blocks per sequential run.
    pub run_blocks: usize,
    /// Mean cycles between consecutive blocks.
    pub gap: u64,
    /// Mean cycles between runs.
    pub run_gap: u64,
    /// Device / read-ratio envelope.
    pub envelope: Envelope,
}

impl Default for StreamSpec {
    fn default() -> Self {
        Self {
            run_blocks: 256,
            gap: 40,
            run_gap: 400,
            envelope: Envelope { device: planaria_common::DeviceId::Gpu, read_ratio: 0.7 },
        }
    }
}

impl StreamSpec {
    pub(crate) fn generate(
        &self,
        seed: u64,
        count: usize,
        region_base: PageNum,
        out: &mut Vec<MemAccess>,
    ) {
        let mut gen = self.generator(seed, region_base);
        out.reserve(count);
        for _ in 0..count {
            out.push(gen.next_access());
        }
    }

    pub(crate) fn generator(&self, seed: u64, region_base: PageNum) -> StreamGen {
        assert!(self.run_blocks > 0, "run_blocks must be positive");
        StreamGen {
            spec: *self,
            rng: rng_for(seed, 0x57EA),
            clock: Cycle::ZERO,
            run_idx: 0,
            block: 0,
            // Runs are spread across the region; each run gets its own page span.
            pages_per_run: (self.run_blocks as u64 / BLOCKS_PER_PAGE as u64) + 2,
            region_base,
        }
    }
}

/// Resumable [`StreamSpec`] generator.
pub(crate) struct StreamGen {
    spec: StreamSpec,
    rng: StdRng,
    clock: Cycle,
    run_idx: u64,
    block: usize,
    pages_per_run: u64,
    region_base: PageNum,
}

impl StreamGen {
    pub(crate) fn next_access(&mut self) -> MemAccess {
        let start =
            self.region_base.as_u64() * PAGE_SIZE + self.run_idx * self.pages_per_run * PAGE_SIZE;
        let addr = PhysAddr::new(start + self.block as u64 * BLOCK_SIZE);
        let access =
            emit_one(&mut self.rng, &self.spec.envelope, addr, &mut self.clock, self.spec.gap);
        self.block += 1;
        if self.block == self.spec.run_blocks {
            self.block = 0;
            self.run_idx += 1;
            self.clock += sample_gap(&mut self.rng, self.spec.run_gap);
        }
        access
    }
}

/// Constant-stride runs (e.g. DMA or matrix-walk traffic).
///
/// BOP's offset learning locks onto `stride_blocks`; next-line prefetchers
/// mostly miss when the stride exceeds one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrideSpec {
    /// Stride between accesses, in 64 B blocks.
    pub stride_blocks: usize,
    /// Accesses per run.
    pub run_len: usize,
    /// Mean cycles between accesses.
    pub gap: u64,
    /// Mean cycles between runs.
    pub run_gap: u64,
    /// Device / read-ratio envelope.
    pub envelope: Envelope,
}

impl Default for StrideSpec {
    fn default() -> Self {
        Self {
            stride_blocks: 4,
            run_len: 128,
            gap: 60,
            run_gap: 500,
            envelope: Envelope { device: planaria_common::DeviceId::Dsp, read_ratio: 0.85 },
        }
    }
}

impl StrideSpec {
    pub(crate) fn generate(
        &self,
        seed: u64,
        count: usize,
        region_base: PageNum,
        out: &mut Vec<MemAccess>,
    ) {
        let mut gen = self.generator(seed, region_base);
        out.reserve(count);
        for _ in 0..count {
            out.push(gen.next_access());
        }
    }

    pub(crate) fn generator(&self, seed: u64, region_base: PageNum) -> StrideGen {
        assert!(self.stride_blocks > 0, "stride_blocks must be positive");
        assert!(self.run_len > 0, "run_len must be positive");
        let span_bytes = (self.stride_blocks * self.run_len) as u64 * BLOCK_SIZE;
        StrideGen {
            spec: *self,
            rng: rng_for(seed, 0x57D1),
            clock: Cycle::ZERO,
            run_idx: 0,
            pos: 0,
            pages_per_run: span_bytes / PAGE_SIZE + 2,
            region_base,
        }
    }
}

/// Resumable [`StrideSpec`] generator.
pub(crate) struct StrideGen {
    spec: StrideSpec,
    rng: StdRng,
    clock: Cycle,
    run_idx: u64,
    pos: usize,
    pages_per_run: u64,
    region_base: PageNum,
}

impl StrideGen {
    pub(crate) fn next_access(&mut self) -> MemAccess {
        let start =
            self.region_base.as_u64() * PAGE_SIZE + self.run_idx * self.pages_per_run * PAGE_SIZE;
        let addr = PhysAddr::new(start + (self.pos * self.spec.stride_blocks) as u64 * BLOCK_SIZE);
        let access =
            emit_one(&mut self.rng, &self.spec.envelope, addr, &mut self.clock, self.spec.gap);
        self.pos += 1;
        if self.pos == self.spec.run_len {
            self.pos = 0;
            self.run_idx += 1;
            self.clock += sample_gap(&mut self.rng, self.spec.run_gap);
        }
        access
    }
}

/// Irregular traffic: uniform random blocks over a large page pool.
///
/// No memory-side prefetcher can predict it; aggressive prefetchers that
/// fire anyway pay for it in traffic and pollution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomSpec {
    /// Pool size in pages.
    pub pages: usize,
    /// Mean cycles between accesses.
    pub gap: u64,
    /// Page-number spacing between pool pages (1 = contiguous). Irregular
    /// heaps are allocator-scattered; spacing the pool keeps sparse random
    /// bitmaps from forming accidental "learnable neighbour" pairs.
    pub page_spread: u64,
    /// Device / read-ratio envelope.
    pub envelope: Envelope,
}

impl Default for RandomSpec {
    fn default() -> Self {
        Self {
            pages: 1 << 16,
            gap: 200,
            page_spread: 1,
            envelope: Envelope { device: planaria_common::DeviceId::Cpu(1), read_ratio: 0.75 },
        }
    }
}

impl RandomSpec {
    pub(crate) fn generate(
        &self,
        seed: u64,
        count: usize,
        region_base: PageNum,
        out: &mut Vec<MemAccess>,
    ) {
        let mut gen = self.generator(seed, region_base);
        out.reserve(count);
        for _ in 0..count {
            out.push(gen.next_access());
        }
    }

    pub(crate) fn generator(&self, seed: u64, region_base: PageNum) -> RandomGen {
        assert!(self.pages > 0, "pool must be non-empty");
        assert!(self.page_spread > 0, "page_spread must be positive");
        RandomGen { spec: *self, rng: rng_for(seed, 0x4A4D), clock: Cycle::ZERO, region_base }
    }
}

/// Resumable [`RandomSpec`] generator.
pub(crate) struct RandomGen {
    spec: RandomSpec,
    rng: StdRng,
    clock: Cycle,
    region_base: PageNum,
}

impl RandomGen {
    pub(crate) fn next_access(&mut self) -> MemAccess {
        let page = self.region_base.as_u64()
            + self.rng.gen_range(0..self.spec.pages as u64) * self.spec.page_spread;
        let block = self.rng.gen_range(0..BLOCKS_PER_PAGE as u64);
        let addr = PhysAddr::new(page * PAGE_SIZE + block * BLOCK_SIZE);
        emit_one(&mut self.rng, &self.spec.envelope, addr, &mut self.clock, self.spec.gap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_sequential_within_runs() {
        let spec = StreamSpec { run_blocks: 64, ..StreamSpec::default() };
        let mut out = Vec::new();
        spec.generate(1, 64, PageNum::new(1 << 24), &mut out);
        assert_eq!(out.len(), 64);
        for w in out.windows(2) {
            assert_eq!(w[1].addr.as_u64() - w[0].addr.as_u64(), BLOCK_SIZE);
        }
    }

    #[test]
    fn stream_runs_do_not_overlap() {
        let spec = StreamSpec { run_blocks: 10, ..StreamSpec::default() };
        let mut out = Vec::new();
        spec.generate(1, 50, PageNum::new(1 << 24), &mut out);
        let unique: std::collections::BTreeSet<u64> = out.iter().map(|a| a.addr.as_u64()).collect();
        assert_eq!(unique.len(), 50, "runs reused addresses");
    }

    #[test]
    fn stride_spacing_matches() {
        let spec = StrideSpec { stride_blocks: 4, run_len: 32, ..StrideSpec::default() };
        let mut out = Vec::new();
        spec.generate(1, 32, PageNum::new(1 << 24), &mut out);
        for w in out.windows(2) {
            assert_eq!(w[1].addr.as_u64() - w[0].addr.as_u64(), 4 * BLOCK_SIZE);
        }
    }

    #[test]
    fn random_stays_in_pool() {
        let spec = RandomSpec { pages: 16, ..RandomSpec::default() };
        let mut out = Vec::new();
        spec.generate(1, 500, PageNum::new(1 << 24), &mut out);
        for a in &out {
            let p = a.addr.page().as_u64();
            assert!((1 << 24..(1 << 24) + 16).contains(&p));
        }
    }

    #[test]
    fn random_is_block_aligned() {
        let spec = RandomSpec::default();
        let mut out = Vec::new();
        spec.generate(1, 100, PageNum::new(1 << 24), &mut out);
        for a in &out {
            assert_eq!(a.addr.as_u64() % BLOCK_SIZE, 0);
        }
    }

    #[test]
    fn all_components_monotonic_in_time() {
        let mut out = Vec::new();
        StreamSpec::default().generate(1, 200, PageNum::new(1 << 24), &mut out);
        StrideSpec::default().generate(1, 200, PageNum::new(2 << 24), &mut out);
        // (separate timelines; check each half individually)
        assert!(out[..200].windows(2).all(|w| w[0].cycle <= w[1].cycle));
        assert!(out[200..].windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn stride_rejects_zero() {
        let spec = StrideSpec { stride_blocks: 0, ..StrideSpec::default() };
        let mut out = Vec::new();
        spec.generate(1, 10, PageNum::new(1 << 24), &mut out);
    }
}
