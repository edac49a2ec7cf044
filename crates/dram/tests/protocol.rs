//! Protocol tests over every scheduler path.
//!
//! * Property tests: the command log of a random request mix never
//!   violates the JEDEC-style inter-command constraints of Table 1, and
//!   every request completes exactly once, under each DRAM variant.
//! * Pinned schedules: one digest per variant over a fixed request mix,
//!   recorded from a known-good build, so a scheduler refactor that moves
//!   any completion or command counter fails here.

use planaria_common::{Cycle, PhysAddr, BLOCK_SIZE, PAGE_SIZE};
use planaria_dram::{
    CommandKind, Completion, DramConfig, MemoryController, PagePolicy, Priority, SchedulerKind,
    Timing,
};
use proptest::prelude::*;

/// The DRAM variants: `ablation_dram`'s four (FR-FCFS open page with
/// power-down, FCFS, closed page, power-down off), then FCFS with closed
/// page.
const VARIANTS: [(SchedulerKind, PagePolicy, bool); 5] = [
    (SchedulerKind::FrFcfs, PagePolicy::Open, true),
    (SchedulerKind::Fcfs, PagePolicy::Open, true),
    (SchedulerKind::FrFcfs, PagePolicy::Closed, true),
    (SchedulerKind::FrFcfs, PagePolicy::Open, false),
    (SchedulerKind::Fcfs, PagePolicy::Closed, true),
];

fn variant(i: usize) -> DramConfig {
    let (scheduler, page_policy, powerdown) = VARIANTS[i];
    let mut cfg = DramConfig::lpddr4().with_scheduler(scheduler).with_page_policy(page_policy);
    cfg.powerdown = powerdown;
    cfg
}

#[derive(Debug, Clone, Copy)]
struct Req {
    addr: u64,
    is_write: bool,
    at: u64,
}

fn arb_req() -> impl Strategy<Value = Req> {
    // Small page range so banks/rows collide often.
    (0u64..2048, any::<bool>(), 0u64..50_000).prop_map(|(block, is_write, at)| Req {
        addr: block * BLOCK_SIZE,
        is_write,
        at,
    })
}

fn run(cfg: DramConfig, reqs: Vec<Req>) -> MemoryController {
    let mut reqs = reqs;
    reqs.sort_by_key(|r| r.at);
    let mut mc = MemoryController::new(cfg.with_log());
    for r in reqs {
        let now = Cycle::new(r.at);
        mc.advance_collect(now);
        let prio = if r.is_write { Priority::Writeback } else { Priority::Demand };
        // Drop politely if the queue is full — the sim does the same for
        // prefetches; protocol invariants must hold regardless.
        let _ = mc.try_enqueue(PhysAddr::new(r.addr), r.is_write, prio, now);
    }
    mc.drain_collect();
    mc
}

/// SplitMix64: the fixed request-mix generator of the pinned schedules.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Folds `x` into a 64-bit FNV-1a digest.
fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Folds each completion's `(id, addr, finish, priority)` into `h`.
fn fold(h: &mut u64, done: &[Completion]) {
    for c in done {
        for x in [c.id.as_u64(), c.addr.as_u64(), c.finish.as_u64(), c.priority as u64] {
            fnv(h, x);
        }
    }
}

/// Requests in the pinned mix.
const MIX_LEN: usize = 6_000;

/// Drives one controller over the fixed mix and digests its schedule:
/// every completion's `(id, addr, finish, priority)` in delivery order,
/// then the final [`planaria_dram::DramStats`]. Also returns how many
/// enqueues were rejected and the deepest queue seen.
fn schedule_digest(cfg: DramConfig) -> (u64, usize, usize) {
    let mut mc = MemoryController::new(cfg);
    let mut rng = SplitMix(0x5eed);
    let mut h = 0xcbf2_9ce4_8422_2325;
    let (mut now, mut rejected, mut deepest) = (0u64, 0, 0);
    let mut out = Vec::new();
    for _ in 0..MIX_LEN {
        let r = rng.next();
        // Dense bursts (0-2 cycles apart) fill the queues; one arrival in
        // 512 follows an idle gap long enough for power-down and refresh.
        now += if r.is_multiple_of(512) { 2_000 + (r >> 8) % 7_000 } else { (r >> 8) % 3 };
        mc.advance_to(Cycle::new(now), &mut out);
        fold(&mut h, &out);
        // 48 pages: 24 rows over 8 banks, so rows and banks collide.
        let addr = PhysAddr::new((r >> 16) % 48 * PAGE_SIZE + (r >> 24) % 64 * BLOCK_SIZE);
        let (is_write, prio) = match (r >> 32) % 8 {
            0..=3 => (false, Priority::Demand),
            4 | 5 => (false, Priority::Prefetch),
            _ => (true, Priority::Writeback),
        };
        match mc.try_enqueue(addr, is_write, prio, Cycle::new(now)) {
            Ok(_) => deepest = deepest.max(mc.queue_len(addr.channel().as_usize())),
            Err(_) => rejected += 1,
        }
    }
    mc.drain(&mut out);
    fold(&mut h, &out);
    let s = mc.stats();
    for x in [
        s.n_act,
        s.n_pre,
        s.n_rd,
        s.n_rd_demand,
        s.n_rd_prefetch,
        s.n_wr,
        s.n_ref,
        s.powerdown_cycles,
        s.n_wakeups,
        s.last_finish.as_u64(),
    ] {
        fnv(&mut h, x);
    }
    (h, rejected, deepest)
}

/// Schedule digests recorded from a known-good build, in [`VARIANTS`]
/// order.
const PINNED_SCHEDULES: [u64; 5] = [
    0x93c4_cad2_76aa_0c03,
    0x12c6_a05b_685c_e378,
    0x0e6c_116b_393d_dc77,
    0x6a13_9cbd_8f12_53b0,
    0x58e0_a305_174d_a96a,
];

#[test]
fn every_variant_keeps_its_pinned_schedule() {
    let depth = DramConfig::lpddr4().queue_depth;
    let got: Vec<u64> = (0..VARIANTS.len())
        .map(|i| {
            let (digest, rejected, deepest) = schedule_digest(variant(i));
            assert!(rejected > 0, "variant {i}: the mix never filled a queue");
            assert_eq!(deepest, depth, "variant {i}: no queue reached its depth");
            digest
        })
        .collect();
    assert_eq!(got, PINNED_SCHEDULES, "schedule digests moved: {got:#018x?}");
}

#[test]
fn bank_indices_past_255_keep_their_own_state() {
    // With 512 banks, pages 2k and 2k+1 share row k / 512 of bank k % 512:
    // pages 600 and 1624 are two rows of bank 300, pages 88 and 1112 two
    // rows of bank 44 (= 300 mod 256).
    let mut cfg = DramConfig::lpddr4();
    cfg.map.banks = 512;
    let mut mc = MemoryController::new(cfg);
    let mut ids = Vec::new();
    let mut banks = Vec::new();
    for (i, page) in [600u64, 88, 601, 1112, 1624, 89].into_iter().enumerate() {
        for blk in [0u64, 5, 17, 40, 63] {
            let addr = PhysAddr::new(page * PAGE_SIZE + blk * BLOCK_SIZE);
            banks.push(cfg.map.locate(addr).0);
            let now = Cycle::new(i as u64 * 3);
            ids.push(mc.try_enqueue(addr, blk == 5, Priority::Demand, now).expect("room"));
        }
    }
    assert!(banks.contains(&300) && banks.contains(&44));
    let mut got: Vec<_> = mc.drain_collect().iter().map(|c| c.id).collect();
    got.sort();
    assert_eq!(got, ids, "every request retires exactly once");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn protocol_invariants_hold(
        reqs in proptest::collection::vec(arb_req(), 1..200),
        v in 0..VARIANTS.len(),
    ) {
        let t = Timing::lpddr4();
        let mc = run(variant(v), reqs);
        for ch in 0..4 {
            let log = mc.command_log(ch);
            // Per-bank constraint checks.
            for bank in 0..8 {
                let cmds: Vec<_> = log
                    .iter()
                    .filter(|c| c.bank == bank || c.kind == CommandKind::Refresh)
                    .collect();
                let mut last_act: Option<u64> = None;
                let mut last_pre_or_ref_end: Option<u64> = None;
                for c in &cmds {
                    match c.kind {
                        CommandKind::Activate => {
                            if let Some(a) = last_act {
                                prop_assert!(
                                    c.cycle.as_u64() >= a + t.t_rc,
                                    "ch{ch} bank{bank}: ACT at {} after ACT at {a} violates tRC",
                                    c.cycle.as_u64()
                                );
                            }
                            if let Some(p) = last_pre_or_ref_end {
                                prop_assert!(
                                    c.cycle.as_u64() >= p,
                                    "ch{ch} bank{bank}: ACT at {} inside PRE/REF window ending {p}",
                                    c.cycle.as_u64()
                                );
                            }
                            last_act = Some(c.cycle.as_u64());
                        }
                        CommandKind::Precharge => {
                            if let Some(a) = last_act {
                                prop_assert!(
                                    c.cycle.as_u64() >= a + t.t_ras,
                                    "ch{ch} bank{bank}: PRE violates tRAS"
                                );
                            }
                            last_pre_or_ref_end = Some(c.cycle.as_u64() + t.t_rp);
                        }
                        CommandKind::Read | CommandKind::Write => {
                            if let Some(a) = last_act {
                                prop_assert!(
                                    c.cycle.as_u64() >= a + t.t_rcd,
                                    "ch{ch} bank{bank}: column command violates tRCD"
                                );
                            }
                        }
                        CommandKind::Refresh => {
                            last_pre_or_ref_end = Some(c.cycle.as_u64() + t.t_rfc);
                        }
                    }
                }
            }
            // Channel-level: column commands at least tCCD apart; at most
            // 4 ACTs in any tFAW window.
            let cols: Vec<u64> = log
                .iter()
                .filter(|c| matches!(c.kind, CommandKind::Read | CommandKind::Write))
                .map(|c| c.cycle.as_u64())
                .collect();
            for w in cols.windows(2) {
                prop_assert!(w[1] >= w[0] + t.t_ccd, "ch{ch}: column commands violate tCCD");
            }
            let acts: Vec<u64> = log
                .iter()
                .filter(|c| c.kind == CommandKind::Activate)
                .map(|c| c.cycle.as_u64())
                .collect();
            for w in acts.windows(5) {
                prop_assert!(
                    w[4] >= w[0] + t.t_faw,
                    "ch{ch}: five ACTs within tFAW window"
                );
            }
        }
    }

    #[test]
    fn every_request_completes_exactly_once(
        reqs in proptest::collection::vec(arb_req(), 1..100),
        v in 0..VARIANTS.len(),
    ) {
        let mut reqs = reqs;
        reqs.sort_by_key(|r| r.at);
        let mut mc = MemoryController::new(variant(v));
        let mut expected = Vec::new();
        for r in &reqs {
            let now = Cycle::new(r.at);
            let mut done = mc.advance_collect(now);
            expected.retain(|id| !done.iter().any(|c| c.id == *id));
            done.clear();
            if let Ok(id) = mc.try_enqueue(
                PhysAddr::new(r.addr),
                r.is_write,
                Priority::Demand,
                now,
            ) {
                expected.push(id);
            }
        }
        let done = mc.drain_collect();
        let mut got: Vec<_> = done.iter().map(|c| c.id).collect();
        got.sort();
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn completions_never_precede_enqueue_plus_min_latency(
        reqs in proptest::collection::vec(arb_req(), 1..100)
    ) {
        let t = Timing::lpddr4();
        let mc_done = {
            let mut reqs = reqs;
            reqs.sort_by_key(|r| r.at);
            let mut mc = MemoryController::new(DramConfig::lpddr4());
            let mut all = Vec::new();
            for r in reqs {
                let now = Cycle::new(r.at);
                all.extend(mc.advance_collect(now));
                let _ = mc.try_enqueue(PhysAddr::new(r.addr), r.is_write, Priority::Demand, now);
            }
            all.extend(mc.drain_collect());
            all
        };
        for c in &mc_done {
            let min = if c.is_write { t.t_cwl + t.t_burst() } else { t.t_cl + t.t_burst() };
            prop_assert!(
                c.finish.as_u64() >= c.enqueued.as_u64() + min,
                "completion faster than physically possible"
            );
        }
    }
}
