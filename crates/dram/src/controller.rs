//! The multi-channel memory controller facade: routes each request to
//! its channel and walks the channels on every [`MemoryController::advance_to`].

use core::fmt;

use planaria_common::{Cycle, PhysAddr};

use crate::channel::Channel;
use crate::config::DramConfig;
use crate::power::DramStats;
use crate::request::{Command, Completion, Priority, RequestId};

/// Error returned when a channel queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The channel whose queue rejected the request.
    pub channel: usize,
}

impl fmt::Display for QueueFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dram channel {} queue is full", self.channel)
    }
}

impl std::error::Error for QueueFull {}

/// A 4-channel LPDDR4 memory controller (see the crate docs for the model).
#[derive(Debug, Clone)]
pub struct MemoryController {
    cfg: DramConfig,
    channels: Vec<Channel>,
    next_id: u64,
}

impl MemoryController {
    /// Creates a controller from a configuration.
    ///
    /// # Panics
    ///
    /// Panics, naming the offending field, if [`DramConfig::validate`]
    /// rejects `cfg`: a controller built from it would hang or divide by
    /// zero mid-run instead.
    pub fn new(cfg: DramConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        Self { channels: (0..cfg.channels).map(|_| Channel::new(cfg)).collect(), next_id: 0, cfg }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Attempts to enqueue a 64 B request at time `now`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the target channel's queue is at its
    /// configured depth; the caller decides whether to stall (demand) or
    /// drop (prefetch).
    pub fn try_enqueue(
        &mut self,
        addr: PhysAddr,
        is_write: bool,
        priority: Priority,
        now: Cycle,
    ) -> Result<RequestId, QueueFull> {
        let ch = addr.channel().as_usize();
        if !self.channels[ch].has_room() {
            return Err(QueueFull { channel: ch });
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.channels[ch].enqueue(id, addr.block_base(), is_write, priority, now);
        Ok(id)
    }

    /// Number of queued requests in `channel`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn queue_len(&self, channel: usize) -> usize {
        self.channels[channel].queue_len()
    }

    /// Returns `true` if `addr`'s channel can accept another request.
    pub fn has_room_for(&self, addr: PhysAddr) -> bool {
        self.channels[addr.channel().as_usize()].has_room()
    }

    /// Issues every command that can legally issue at or before `now` on
    /// every channel, filling `out` (cleared first) with completions
    /// sorted by finish time.
    ///
    /// The caller owns and reuses the buffer: the simulator calls this
    /// once per demand access, so a returned `Vec` here would be a heap
    /// allocation on the steady-state hot path. Every call walks all
    /// channels; a channel with nothing due answers from its memoised
    /// scheduler decision without rescanning its queue.
    pub fn advance_to(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        out.clear();
        for ch in &mut self.channels {
            ch.advance_to(now, out);
        }
        out.sort_by_key(|c| (c.finish, c.id));
    }

    /// Services every outstanding request, filling `out` (cleared first)
    /// with completions sorted by finish time.
    pub fn drain(&mut self, out: &mut Vec<Completion>) {
        out.clear();
        for ch in &mut self.channels {
            ch.drain(out);
        }
        out.sort_by_key(|c| (c.finish, c.id));
    }

    /// [`MemoryController::advance_to`] into a freshly allocated buffer —
    /// a convenience for tests and examples off the hot path.
    pub fn advance_collect(&mut self, now: Cycle) -> Vec<Completion> {
        let mut out = Vec::new();
        self.advance_to(now, &mut out);
        out
    }

    /// [`MemoryController::drain`] into a freshly allocated buffer — a
    /// convenience for tests and examples off the hot path.
    pub fn drain_collect(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        self.drain(&mut out);
        out
    }

    /// Aggregated command counters over all channels.
    pub fn stats(&self) -> DramStats {
        let mut s = DramStats::default();
        for ch in &self.channels {
            s.merge(&ch.stats);
        }
        s
    }

    /// Total DRAM energy over `duration_cycles`, summed per channel so
    /// each channel's background and power-down windows are charged
    /// correctly.
    pub fn energy_pj(&self, duration_cycles: u64) -> f64 {
        self.channels.iter().map(|ch| ch.stats.energy_pj(&self.cfg.energy, duration_cycles)).sum()
    }

    /// Clears accumulated command counters on every channel (e.g. after a
    /// warm-up phase); in-flight protocol state is untouched.
    pub fn reset_stats(&mut self) {
        for ch in &mut self.channels {
            ch.stats = DramStats::default();
        }
    }

    /// The recorded command log of `channel` (empty unless
    /// [`DramConfig::record_log`] is set).
    pub fn command_log(&self, channel: usize) -> &[Command] {
        &self.channels[channel].log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Timing;
    use crate::request::CommandKind;
    use planaria_common::{BLOCK_SIZE, PAGE_SIZE};

    fn mc_logged() -> MemoryController {
        MemoryController::new(DramConfig::lpddr4().with_log())
    }

    /// A read to a closed bank with nothing in its way:
    /// `tRCD + tCL + tBURST`.
    fn closed_bank_read(t: &Timing) -> u64 {
        t.t_rcd + t.t_cl + t.t_burst()
    }

    #[test]
    fn single_read_latency_is_closed_bank() {
        let t = Timing::lpddr4();
        let mut mc = mc_logged();
        mc.try_enqueue(PhysAddr::new(0), false, Priority::Demand, Cycle::ZERO).expect("room");
        let done = mc.drain_collect();
        assert_eq!(done.len(), 1);
        // Cold bank: ACT at 0 is gated only by the command bus, then
        // RD at tRCD, data at +tCL+tBURST.
        assert_eq!(done[0].finish.as_u64(), closed_bank_read(&t));
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let t = Timing::lpddr4();
        // Two reads to the same row.
        let mut mc = mc_logged();
        mc.try_enqueue(PhysAddr::new(0), false, Priority::Demand, Cycle::ZERO).expect("room");
        mc.try_enqueue(PhysAddr::new(BLOCK_SIZE), false, Priority::Demand, Cycle::ZERO)
            .expect("room");
        let done = mc.drain_collect();
        let hit_gap = done[1].finish - done[0].finish;
        assert_eq!(hit_gap, t.t_ccd, "row hit should be tCCD apart");

        // Two reads to different rows of the same bank (conflict).
        // Same channel+bank, different row: rows interleave across 8 banks
        // every 32 blocks, so add 8*32 blocks within the channel = 16 pages.
        let mut mc = mc_logged();
        mc.try_enqueue(PhysAddr::new(0), false, Priority::Demand, Cycle::ZERO).expect("room");
        mc.try_enqueue(PhysAddr::new(16 * PAGE_SIZE), false, Priority::Demand, Cycle::ZERO)
            .expect("room");
        let done = mc.drain_collect();
        let conflict_gap = done[1].finish - done[0].finish;
        assert!(
            conflict_gap > hit_gap,
            "conflict gap {conflict_gap} should exceed hit gap {hit_gap}"
        );
    }

    #[test]
    fn channels_are_independent() {
        let mut mc = mc_logged();
        // Block 0 -> channel 0; block 16 -> channel 1.
        let a = PhysAddr::new(0);
        let b = PhysAddr::new(16 * BLOCK_SIZE);
        assert_ne!(a.channel(), b.channel());
        mc.try_enqueue(a, false, Priority::Demand, Cycle::ZERO).expect("room");
        mc.try_enqueue(b, false, Priority::Demand, Cycle::ZERO).expect("room");
        let done = mc.drain_collect();
        // Both finish at the cold-bank latency: no shared-bus interference.
        assert_eq!(done[0].finish, done[1].finish);
    }

    #[test]
    fn queue_depth_is_enforced() {
        let mut cfg = DramConfig::lpddr4();
        cfg.queue_depth = 2;
        let mut mc = MemoryController::new(cfg);
        let a = PhysAddr::new(0);
        assert!(mc.try_enqueue(a, false, Priority::Demand, Cycle::ZERO).is_ok());
        assert!(mc
            .try_enqueue(PhysAddr::new(BLOCK_SIZE), false, Priority::Demand, Cycle::ZERO)
            .is_ok());
        let err = mc
            .try_enqueue(PhysAddr::new(2 * BLOCK_SIZE), false, Priority::Demand, Cycle::ZERO)
            .unwrap_err();
        assert_eq!(err.channel, 0);
        assert!(!err.to_string().is_empty());
        assert!(!mc.has_room_for(a));
    }

    #[test]
    #[should_panic(expected = "queue_depth")]
    fn empty_queue_is_rejected_instead_of_hanging() {
        let mut cfg = DramConfig::lpddr4();
        cfg.queue_depth = 0;
        MemoryController::new(cfg);
    }

    #[test]
    fn advance_to_only_issues_due_commands() {
        let mut mc = mc_logged();
        mc.try_enqueue(PhysAddr::new(0), false, Priority::Demand, Cycle::ZERO).expect("room");
        assert!(mc.advance_collect(Cycle::new(1)).is_empty(), "data cannot be ready yet");
        let t = Timing::lpddr4();
        let done = mc.advance_collect(Cycle::new(closed_bank_read(&t) + 10));
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn refresh_happens_periodically() {
        let t = Timing::lpddr4();
        let mut mc = mc_logged();
        // Idle for three refresh intervals.
        mc.advance_collect(Cycle::new(3 * t.t_refi + 1));
        let s = mc.stats();
        assert_eq!(s.n_ref, 3 * 4, "3 refreshes x 4 channels");
    }

    #[test]
    fn writes_complete_and_count() {
        let mut mc = mc_logged();
        mc.try_enqueue(PhysAddr::new(0), true, Priority::Writeback, Cycle::ZERO).expect("room");
        let done = mc.drain_collect();
        assert_eq!(done.len(), 1);
        assert!(done[0].is_write);
        assert_eq!(mc.stats().n_wr, 1);
    }

    #[test]
    fn demand_wins_ties_over_prefetch() {
        let mut mc = mc_logged();
        // Same bank, same row, enqueued same cycle: prefetch first in queue.
        mc.try_enqueue(PhysAddr::new(0), false, Priority::Prefetch, Cycle::ZERO).expect("room");
        mc.try_enqueue(PhysAddr::new(BLOCK_SIZE), false, Priority::Demand, Cycle::ZERO)
            .expect("room");
        let done = mc.drain_collect();
        // The ACT is triggered by whichever is scheduled first; both target
        // the same row so the column commands tie — demand must go first.
        assert_eq!(done[0].priority, Priority::Demand);
    }

    #[test]
    fn command_log_respects_trcd() {
        let t = Timing::lpddr4();
        let mut mc = mc_logged();
        mc.try_enqueue(PhysAddr::new(0), false, Priority::Demand, Cycle::ZERO).expect("room");
        mc.drain_collect();
        let log = mc.command_log(0);
        let act = log.iter().find(|c| c.kind == CommandKind::Activate).expect("ACT");
        let rd = log.iter().find(|c| c.kind == CommandKind::Read).expect("RD");
        assert!(rd.cycle.as_u64() >= act.cycle.as_u64() + t.t_rcd);
    }

    #[test]
    fn fcfs_services_strictly_in_order() {
        use crate::config::SchedulerKind;
        // Interleave row-conflict and row-hit requests: FR-FCFS reorders,
        // FCFS must not.
        let addrs = [
            PhysAddr::new(0),
            PhysAddr::new(16 * PAGE_SIZE), // same bank, different row
            PhysAddr::new(BLOCK_SIZE),     // row hit with the first
            PhysAddr::new(17 * PAGE_SIZE),
        ];
        let run = |sched| {
            let mut mc = MemoryController::new(DramConfig::lpddr4().with_scheduler(sched));
            let ids: Vec<RequestId> = addrs
                .iter()
                .map(|&a| mc.try_enqueue(a, false, Priority::Demand, Cycle::ZERO).expect("room"))
                .collect();
            let done = mc.drain_collect();
            let order: Vec<RequestId> = done.iter().map(|c| c.id).collect();
            (ids, order, done.last().expect("nonempty").finish)
        };
        let (ids, order, fcfs_finish) = run(SchedulerKind::Fcfs);
        assert_eq!(order, ids, "FCFS must preserve arrival order");
        let (_, frfcfs_order, frfcfs_finish) = run(SchedulerKind::FrFcfs);
        assert_ne!(frfcfs_order, order, "FR-FCFS should reorder for the row hit");
        assert!(frfcfs_finish <= fcfs_finish, "FR-FCFS must not be slower overall");
    }

    #[test]
    fn idle_rank_powers_down_and_pays_wakeup() {
        let t = Timing::lpddr4();
        let mut mc = MemoryController::new(DramConfig::lpddr4());
        // Long idle gap before the first request (shorter than tREFI so no
        // refresh interferes with the arithmetic).
        let now = Cycle::new(5000);
        mc.advance_collect(now);
        mc.try_enqueue(PhysAddr::new(0), false, Priority::Demand, now).expect("room");
        let done = mc.drain_collect();
        // The wake adds tXP before the first command.
        assert_eq!(
            done[0].finish.as_u64(),
            5000 + t.t_xp + closed_bank_read(&t),
            "wake-up penalty missing"
        );
        let s = mc.stats();
        assert_eq!(s.n_wakeups, 1);
        assert_eq!(s.powerdown_cycles, 5000 - t.t_cke);
    }

    #[test]
    fn powerdown_can_be_disabled() {
        let mut cfg = DramConfig::lpddr4();
        cfg.powerdown = false;
        let mut mc = MemoryController::new(cfg);
        let now = Cycle::new(5000);
        mc.advance_collect(now);
        mc.try_enqueue(PhysAddr::new(0), false, Priority::Demand, now).expect("room");
        let done = mc.drain_collect();
        let t = Timing::lpddr4();
        assert_eq!(done[0].finish.as_u64(), 5000 + closed_bank_read(&t));
        assert_eq!(mc.stats().powerdown_cycles, 0);
    }

    #[test]
    fn closed_page_precharges_when_no_row_hit_waits() {
        use crate::config::PagePolicy;
        // Single read, closed-page: the row is auto-precharged after the
        // column command (one PRE in the log with no second request).
        let mut mc = MemoryController::new(
            DramConfig::lpddr4().with_page_policy(PagePolicy::Closed).with_log(),
        );
        mc.try_enqueue(PhysAddr::new(0), false, Priority::Demand, Cycle::ZERO).expect("room");
        mc.drain_collect();
        assert_eq!(mc.stats().n_pre, 1, "auto-precharge missing");

        // Two same-row reads enqueued together: the first column command
        // sees the second hit waiting and keeps the row open.
        let mut mc = MemoryController::new(
            DramConfig::lpddr4().with_page_policy(PagePolicy::Closed).with_log(),
        );
        mc.try_enqueue(PhysAddr::new(0), false, Priority::Demand, Cycle::ZERO).expect("room");
        mc.try_enqueue(PhysAddr::new(BLOCK_SIZE), false, Priority::Demand, Cycle::ZERO)
            .expect("room");
        let done = mc.drain_collect();
        let t = Timing::lpddr4();
        assert_eq!(done[1].finish - done[0].finish, t.t_ccd, "second read stays a row hit");
        assert_eq!(mc.stats().n_pre, 1, "only the final auto-precharge");
    }

    #[test]
    fn closed_page_speeds_up_pure_conflicts() {
        use crate::config::PagePolicy;
        // Alternating rows in the same bank: closed-page saves the PRE
        // from the critical path of every second access.
        let run = |policy| {
            let mut mc = MemoryController::new(DramConfig::lpddr4().with_page_policy(policy));
            for i in 0..8u64 {
                // Rows alternate: 0, 16 pages apart (same bank, diff row).
                let addr = PhysAddr::new((i % 2) * 16 * PAGE_SIZE + (i / 2) * BLOCK_SIZE);
                mc.try_enqueue(addr, false, Priority::Demand, Cycle::new(i * 500)).expect("room");
                mc.advance_collect(Cycle::new(i * 500));
            }
            mc.drain_collect().last().expect("nonempty").finish
        };
        let open = run(PagePolicy::Open);
        let closed = run(PagePolicy::Closed);
        assert!(
            closed <= open,
            "closed-page must not lose on a pure conflict pattern: {closed:?} vs {open:?}"
        );
    }

    #[test]
    fn reads_split_by_priority() {
        let mut mc = MemoryController::new(DramConfig::lpddr4());
        for i in 0..12u64 {
            let prio = if i % 3 == 0 { Priority::Demand } else { Priority::Prefetch };
            mc.try_enqueue(PhysAddr::new(i * BLOCK_SIZE), false, prio, Cycle::new(i * 50))
                .expect("room");
        }
        mc.try_enqueue(PhysAddr::new(13 * BLOCK_SIZE), true, Priority::Writeback, Cycle::ZERO)
            .expect("room");
        mc.drain_collect();
        let s = mc.stats();
        assert_eq!(s.n_rd, 12);
        assert_eq!(s.n_rd_demand, 4);
        assert_eq!(s.n_rd_prefetch, 8);
        assert_eq!(s.n_rd_demand + s.n_rd_prefetch, s.n_rd, "split partitions reads");
        assert_eq!(s.n_wr, 1, "writebacks are writes, never in the read split");
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut mc = MemoryController::new(DramConfig::lpddr4());
        mc.try_enqueue(PhysAddr::new(0), false, Priority::Demand, Cycle::ZERO).expect("room");
        mc.drain_collect();
        assert!(mc.stats().n_rd > 0);
        mc.reset_stats();
        assert_eq!(mc.stats(), DramStats::default());
    }

    #[test]
    fn energy_accounts_all_channels() {
        let mc = MemoryController::new(DramConfig::lpddr4());
        // Idle controller: pure background on four channels.
        let e = mc.energy_pj(1000);
        let per_channel = DramConfig::lpddr4().energy.background_pj_per_cycle * 1000.0;
        assert!((e - 4.0 * per_channel).abs() < 1e-6);
    }

    #[test]
    fn completion_ids_match_enqueue_order_of_single_stream() {
        let mut mc = mc_logged();
        let mut ids = Vec::new();
        for i in 0..10u64 {
            ids.push(
                mc.try_enqueue(PhysAddr::new(i * BLOCK_SIZE), false, Priority::Demand, Cycle::ZERO)
                    .expect("room"),
            );
        }
        let done = mc.drain_collect();
        assert_eq!(done.len(), 10);
        let mut got: Vec<RequestId> = done.iter().map(|c| c.id).collect();
        got.sort();
        assert_eq!(got, ids);
    }
}
