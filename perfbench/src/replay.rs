//! Standalone layer replays: each layer's public API driven alone from the
//! tapes a traced run recorded, timed, with its outputs hashed.
//!
//! The `core` replay is exact: a fresh prefetcher fed the recorded
//! `(access, hit)` tape must emit the recorded requests, and the caller
//! checks that it does. The `cache` and `dram` replays approximate the
//! in-run sequences: the cache replay fills every miss and every
//! non-resident prefetch instantly, and the DRAM replay enqueues what the
//! cache replay sends it at the triggering access's cycle. Their hashes
//! pin the replay outputs, so the exact in-program tapes of a later change
//! can be compared against them.

use std::time::Instant;

use planaria_cache::{AccessResult, CacheConfig, SetAssocCache};
use planaria_common::{Cycle, MemAccess, PhysAddr, PrefetchRequest};
use planaria_core::Prefetcher;
use planaria_dram::{Completion, DramConfig, MemoryController, Priority};
use planaria_sim::STREAM_CHUNK;
use planaria_telemetry::TelemetryConfig;

use crate::stats::{elapsed_ns, Digest};
use crate::wrap::request_words;

/// Outcome of replaying a prefetcher's input tape alone.
#[derive(Debug, Clone, Copy)]
pub struct CoreReplay {
    /// Time inside `on_batch`.
    pub ns: u64,
    /// Requests emitted.
    pub requests: u64,
    /// Digest of the emitted requests in order.
    pub digest: Digest,
}

/// Feeds `tape` through a fresh prefetcher in [`STREAM_CHUNK`] batches,
/// configured with `telemetry` as the memory system configures its own.
pub fn core(
    mut pf: Box<dyn Prefetcher>,
    telemetry: &TelemetryConfig,
    tape: &[(MemAccess, bool)],
) -> CoreReplay {
    pf.configure_telemetry(telemetry);
    let mut out: Vec<PrefetchRequest> = Vec::new();
    let mut ns = 0u64;
    let mut requests = 0u64;
    let mut digest = Digest::default();
    for batch in tape.chunks(STREAM_CHUNK) {
        out.clear();
        let t0 = Instant::now();
        pf.on_batch(batch, &mut out);
        ns += elapsed_ns(t0);
        requests += out.len() as u64;
        for req in &out {
            for w in request_words(req) {
                digest.word(w);
            }
        }
    }
    CoreReplay { ns, requests, digest }
}

/// One request the cache replay sends to DRAM.
#[derive(Debug, Clone, Copy)]
pub struct DramOp {
    /// Cycle of the demand access that caused it.
    pub cycle: Cycle,
    /// Block address.
    pub addr: PhysAddr,
    /// Scheduling class (writebacks are the writes).
    pub priority: Priority,
}

/// Outcome of replaying the demand stream through a fresh cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheReplay {
    /// Time inside the replay loop.
    pub ns: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Digest over hits, misses and evicted addresses in order.
    pub digest: Digest,
}

/// Replays the demand tape through `access_by`, `fill_by` and `contains`
/// on a fresh cache: every demand miss fills at once (dirty for a write),
/// and every emitted prefetch whose block is not resident fills as a
/// prefetch of its trigger's device. Returns the replay and the DRAM
/// requests it implies (misses, non-resident prefetches, dirty victims).
pub fn cache(
    cfg: CacheConfig,
    tape: &[(MemAccess, bool)],
    emitted: &[(usize, PrefetchRequest)],
) -> (CacheReplay, Vec<DramOp>) {
    let mut sc = SetAssocCache::new(cfg);
    let mut ops = Vec::with_capacity(tape.len() * 2);
    let mut r = CacheReplay::default();
    let mut next_req = 0usize;
    let t0 = Instant::now();
    for (i, (a, _)) in tape.iter().enumerate() {
        let hit = !matches!(sc.access_by(a.addr, a.kind, a.device), AccessResult::Miss);
        r.digest.word(u64::from(hit));
        if hit {
            r.hits += 1;
        } else {
            r.misses += 1;
            ops.push(DramOp {
                cycle: a.cycle,
                addr: a.addr.block_base(),
                priority: Priority::Demand,
            });
            let evicted = sc.fill_by(a.addr, None, a.device);
            if a.kind.is_write() {
                sc.mark_dirty(a.addr);
            }
            evict(&mut r, &mut ops, evicted, a.cycle);
        }
        while let Some(&(_, req)) = emitted.get(next_req).filter(|(at, _)| *at == i) {
            next_req += 1;
            if sc.contains(req.addr) {
                continue;
            }
            ops.push(DramOp { cycle: a.cycle, addr: req.addr, priority: Priority::Prefetch });
            let evicted = sc.fill_by(req.addr, Some(req.origin), a.device);
            evict(&mut r, &mut ops, evicted, a.cycle);
        }
    }
    r.ns = elapsed_ns(t0);
    (r, ops)
}

fn evict(
    r: &mut CacheReplay,
    ops: &mut Vec<DramOp>,
    evicted: Option<planaria_cache::EvictedLine>,
    cycle: Cycle,
) {
    let Some(e) = evicted else { return };
    r.digest.word(e.addr.as_u64());
    if e.dirty {
        ops.push(DramOp { cycle, addr: e.addr, priority: Priority::Writeback });
    }
}

/// Outcome of replaying the cache replay's DRAM requests alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct DramReplay {
    /// Time inside the replay loop.
    pub ns: u64,
    /// Requests enqueued.
    pub requests: u64,
    /// Prefetches and writebacks dropped for lack of queue room.
    pub dropped: u64,
    /// Digest over `(addr, finish)` of every completion in order.
    pub digest: Digest,
}

/// Cycles the replay advances per step while a demand waits for queue
/// room (the memory system's own backpressure step).
const ROOM_STEP: u64 = 500;

/// Replays `ops` through `try_enqueue`, `advance_to`, `has_room_for` and
/// `drain` on a fresh controller. Demands wait for room as the memory
/// system does; prefetches and writebacks that find no room are dropped.
pub fn dram(cfg: DramConfig, ops: &[DramOp]) -> DramReplay {
    let mut mc = MemoryController::new(cfg);
    let mut buf: Vec<Completion> = Vec::new();
    let mut r = DramReplay::default();
    let mut now = Cycle::ZERO;
    let hash = |r: &mut DramReplay, buf: &[Completion]| {
        for c in buf {
            r.digest.word(c.addr.as_u64());
            r.digest.word(c.finish.as_u64());
        }
    };
    let t0 = Instant::now();
    for op in ops {
        now = now.max(op.cycle);
        mc.advance_to(now, &mut buf);
        hash(&mut r, &buf);
        if op.priority == Priority::Demand {
            while !mc.has_room_for(op.addr) {
                now += ROOM_STEP;
                mc.advance_to(now, &mut buf);
                hash(&mut r, &buf);
            }
        } else if !mc.has_room_for(op.addr) {
            r.dropped += 1;
            continue;
        }
        let is_write = op.priority == Priority::Writeback;
        mc.try_enqueue(op.addr, is_write, op.priority, now).expect("room checked");
        r.requests += 1;
    }
    mc.drain(&mut buf);
    hash(&mut r, &buf);
    r.ns = elapsed_ns(t0);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_sim::experiment::PrefetcherKind;
    use planaria_trace::apps::{profile, AppId};

    fn tape(n: usize) -> Vec<(MemAccess, bool)> {
        profile(AppId::Cfm).scaled(n).build().accesses().iter().map(|a| (*a, false)).collect()
    }

    #[test]
    fn core_replay_matches_per_access_calls() {
        let tape = tape(5_000);
        let mut pf = PrefetcherKind::Planaria.build();
        pf.configure_telemetry(&TelemetryConfig::counting());
        let mut out = Vec::new();
        let mut digest = Digest::default();
        for (a, hit) in &tape {
            out.clear();
            pf.on_access(a, *hit, &mut out);
            for req in &out {
                for w in request_words(req) {
                    digest.word(w);
                }
            }
        }
        let r = core(PrefetcherKind::Planaria.build(), &TelemetryConfig::counting(), &tape);
        assert_eq!(r.digest, digest);
        assert!(r.requests > 0);
    }

    #[test]
    fn cache_and_dram_replays_conserve_and_repeat() {
        let tape = tape(20_000);
        let cfg = CacheConfig { size_bytes: 64 * 1024, ..CacheConfig::system_cache() };
        let (a, ops) = cache(cfg, &tape, &[]);
        assert_eq!(a.hits + a.misses, 20_000);
        let demands = ops.iter().filter(|o| o.priority == Priority::Demand).count() as u64;
        assert_eq!(demands, a.misses);
        let (b, _) = cache(cfg, &tape, &[]);
        assert_eq!(a.digest, b.digest, "replay is deterministic");

        let d1 = dram(DramConfig::lpddr4(), &ops);
        let d2 = dram(DramConfig::lpddr4(), &ops);
        assert_eq!(d1.digest, d2.digest);
        assert_eq!(d1.requests + d1.dropped, ops.len() as u64);
        assert!(d1.requests >= demands, "demands are never dropped");
    }
}
