//! Per-layer accounting for traced runs: in-run spans and counters, the
//! standalone replays of each traced cell or session, and the derived
//! per-layer metrics.

use std::collections::BTreeMap;

use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::{SimResult, SystemConfig};

use crate::replay;
use crate::stats::{weighted_quantile, Digest, Span};
use crate::wrap::{take_record, CoreSlot};

/// Layer totals accumulated over the cells or sessions of one traced pass.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Demand accesses simulated.
    pub accesses: u64,
    /// Spans around `AccessStream::next_chunk`.
    pub trace: Span,
    /// Spans around the prefetcher calls (in-run).
    pub core: Span,
    /// Spans around `process_batch` (open loop) or `ClosedLoopDriver::pump`.
    pub sim: Span,
    /// Spans around the run's final `finish`.
    pub finish: Span,
    core_alone_ns: u64,
    triggers: u64,
    requests: u64,
    table_accesses: u64,
    late: u64,
    useful: u64,
    hits: u64,
    filtered: u64,
    polluting: u64,
    demand_reads: u64,
    prefetch_reads: u64,
    writebacks: u64,
    writebacks_dropped: u64,
    /// Row-buffer hit rate weighted by each run's DRAM requests.
    row_hits_weighted: f64,
    cache_alone_ns: u64,
    dram_alone_ns: u64,
    dram_alone_requests: u64,
    /// Replay output digests, folded over runs in order.
    pub core_digest: Digest,
    /// See [`LayerTotals::core_digest`].
    pub cache_digest: Digest,
    /// See [`LayerTotals::core_digest`].
    pub dram_digest: Digest,
}

impl LayerTotals {
    /// Adds one traced run: its in-run counters, its prefetcher record and
    /// the three standalone replays built from that record. Fails when the
    /// record is missing or the tape replay disagrees with the in-run
    /// requests.
    pub fn add_run(
        &mut self,
        result: &SimResult,
        slot: &CoreSlot,
        kind: PrefetcherKind,
        cfg: &SystemConfig,
    ) -> Result<(), String> {
        let rec = take_record(slot).ok_or("prefetcher record missing")?;
        let core = replay::core(kind.build(), &cfg.telemetry, &rec.tape);
        if core.requests != rec.requests || core.digest != rec.request_digest {
            return Err(format!(
                "{}: in-run core.requests {} (digest {}) != tape replay {} (digest {})",
                result.workload,
                rec.requests,
                rec.request_digest.hex(),
                core.requests,
                core.digest.hex()
            ));
        }
        let (cache, ops) = replay::cache(cfg.cache, &rec.tape, &rec.emitted);
        let dram = replay::dram(cfg.dram, &ops);

        self.accesses += result.accesses;
        self.core.absorb(rec.span);
        self.triggers += rec.triggers;
        self.requests += rec.requests;
        self.table_accesses += rec.table_accesses;
        self.late += result.late_prefetches;
        self.useful += result.useful_prefetches;
        self.hits += result.device_stats.iter().map(|d| d.hits).sum::<u64>();
        self.filtered += result.prefetches_filtered;
        self.polluting += result.polluting_prefetches;
        self.demand_reads += result.traffic.demand_reads;
        self.prefetch_reads += result.traffic.prefetch_reads;
        self.writebacks += result.traffic.writebacks;
        self.writebacks_dropped += result.writebacks_dropped;
        self.row_hits_weighted += result.dram_row_hit_rate * result.traffic.total() as f64;

        self.core_alone_ns += core.ns;
        self.cache_alone_ns += cache.ns;
        self.dram_alone_ns += dram.ns;
        self.dram_alone_requests += dram.requests;
        self.core_digest.word(core.digest.0);
        self.cache_digest.word(cache.digest.0);
        self.dram_digest.word(dram.digest.0);
        Ok(())
    }

    /// The `trace`, `core`, `sim`, `cache` and `dram` metrics.
    pub fn metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let acc = self.accesses.max(1) as f64;
        let per_access = |ns: u64| ns as f64 / acc;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let misses = self.accesses - self.hits;
        let dram_total = self.demand_reads + self.prefetch_reads + self.writebacks;
        let sim_self = self.sim.ns.saturating_sub(self.core.ns);

        out.insert("trace.ns_per_access", per_access(self.trace.ns));
        out.insert("trace.chunks", self.trace.calls as f64);

        out.insert("core.ns_per_access", per_access(self.core.ns));
        out.insert("core.alone_ns_per_access", per_access(self.core_alone_ns));
        out.insert("core.calls", self.core.calls as f64);
        out.insert("core.triggers", self.triggers as f64);
        out.insert("core.requests", self.requests as f64);
        out.insert("core.table_accesses", self.table_accesses as f64);
        out.insert("core.late", self.late as f64);
        out.insert("core.accuracy", ratio(self.useful, self.prefetch_reads));
        out.insert("core.coverage", ratio(self.useful, self.useful + misses));
        out.insert("core.filtered_frac", ratio(self.filtered, self.requests));

        out.insert("sim.ns_per_access", per_access(self.sim.ns));
        out.insert("sim.self_ns_per_access", per_access(sim_self));
        out.insert("sim.finish_ms", self.finish.ns as f64 / 1e6 / self.finish.calls.max(1) as f64);
        // Signed: the replays run without the in-run interleaving, so on a
        // cold host cache they can exceed the in-run self time.
        let glue = sim_self as f64 - self.cache_alone_ns as f64 - self.dram_alone_ns as f64;
        out.insert("sim.glue_ns_per_access", glue / acc);

        out.insert("cache.alone_ns_per_access", per_access(self.cache_alone_ns));
        out.insert("cache.hit_rate", ratio(self.hits, self.accesses));
        out.insert("cache.misses", misses as f64);
        out.insert("cache.polluting", self.polluting as f64);

        out.insert(
            "dram.alone_ns_per_request",
            ratio(self.dram_alone_ns, self.dram_alone_requests),
        );
        out.insert("dram.requests_per_access", ratio(dram_total, self.accesses));
        out.insert("dram.demand_reads", self.demand_reads as f64);
        out.insert("dram.prefetch_reads", self.prefetch_reads as f64);
        out.insert("dram.writebacks", self.writebacks as f64);
        out.insert("dram.writebacks_dropped", self.writebacks_dropped as f64);
        out.insert(
            "dram.row_hit_rate",
            if dram_total == 0 { 0.0 } else { self.row_hits_weighted / dram_total as f64 },
        );
    }

    /// The replay digests as reported.
    pub fn replay_hashes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("core.requests", self.core_digest.0),
            ("cache.outcomes", self.cache_digest.0),
            ("dram.completions", self.dram_digest.0),
        ]
    }
}

/// What a [`crate::fleet`] serve pass observed through its shard
/// observers.
#[derive(Debug, Default, Clone)]
pub struct ServeTotals {
    /// Wall time of the whole serve call.
    pub wall_ns: u64,
    /// Decisions (injected accesses) served.
    pub accesses: u64,
    /// One `(ns, injected)` per pump turn.
    pub turns: Vec<(u64, u64)>,
    /// Scheduling rounds summed over shards.
    pub rounds: u64,
    /// Fleet build time of the pass.
    pub build_ns: u64,
    /// Devices built.
    pub devices: u64,
}

impl ServeTotals {
    /// The `serve` metrics; `render_ns` is the standalone render time of
    /// the same device streams, `rss_kb_per_device` the fleet's measured
    /// resident-set growth.
    pub fn metrics(
        &self,
        render_ns: u64,
        rss_kb_per_device: f64,
        out: &mut BTreeMap<&'static str, f64>,
    ) {
        let acc = self.accesses.max(1) as f64;
        let pump_ns: u64 = self.turns.iter().map(|&(ns, _)| ns).sum();
        let samples: Vec<(f64, u64)> = self
            .turns
            .iter()
            .filter(|&&(_, n)| n > 0)
            .map(|&(ns, n)| (ns as f64 / n as f64, n))
            .collect();
        let loop_ns = self.wall_ns as f64 - pump_ns as f64 - render_ns as f64;
        out.insert("serve.pump_ns_per_access", pump_ns as f64 / acc);
        out.insert("serve.loop_ns_per_access", loop_ns / acc);
        out.insert("serve.turn_p50_ns", weighted_quantile(&samples, 0.50).unwrap_or(0.0));
        out.insert("serve.turn_p99_ns", weighted_quantile(&samples, 0.99).unwrap_or(0.0));
        out.insert("serve.turns", self.turns.len() as f64);
        out.insert("serve.idle_turns", self.turns.iter().filter(|&&(_, n)| n == 0).count() as f64);
        out.insert("serve.rounds", self.rounds as f64);
        out.insert(
            "serve.build_us_per_device",
            self.build_ns as f64 / 1e3 / self.devices.max(1) as f64,
        );
        out.insert("serve.rss_kb_per_device", rss_kb_per_device);
    }

    /// The `serve` metrics of a workload that has no serving layer.
    pub fn absent(out: &mut BTreeMap<&'static str, f64>) {
        for d in crate::report::PER_LAYER.iter().filter(|d| d.name.starts_with("serve.")) {
            out.insert(d.name, 0.0);
        }
    }
}
