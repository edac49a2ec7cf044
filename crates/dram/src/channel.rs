//! One channel's controller: queue, scheduler, banks, refresh.
//!
//! The scheduler is one queue scan and one memo. [`Channel::scan_queue`]
//! derives every queued request's next command from current bank and bus
//! state and picks the winner; [`Channel::best_candidate`] keeps that
//! winner until the queue or the timing state changes (enqueue, issue,
//! refresh). The queues hold about one request per scan on the
//! benchmark's traffic, so nothing finer-grained pays for itself
//! (DESIGN.md §8).

use std::collections::VecDeque;

use planaria_common::{Cycle, PhysAddr};

use crate::bank::Bank;
use crate::config::{DramConfig, PagePolicy, SchedulerKind};
use crate::power::DramStats;
use crate::request::{Command, CommandKind, Completion, Priority, RequestId};

#[derive(Debug, Clone, Copy)]
struct Pending {
    id: RequestId,
    addr: PhysAddr,
    bank: usize,
    row: u64,
    is_write: bool,
    priority: Priority,
    enqueued: Cycle,
    seq: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    queue_idx: usize,
    issue: Cycle,
    kind: CommandKind,
}

/// Per-channel memory controller with FR-FCFS scheduling.
#[derive(Debug, Clone)]
pub(crate) struct Channel {
    cfg: DramConfig,
    banks: Vec<Bank>,
    /// Queued requests. The vector grows to what it holds; `has_room`
    /// enforces `queue_depth`.
    queue: Vec<Pending>,
    /// Command-bus gate: one command per `t_cmd`.
    next_cmd: Cycle,
    /// Earliest next column read (bus occupancy + write-to-read turnaround).
    next_rd: Cycle,
    /// Earliest next column write.
    next_wr: Cycle,
    /// Issue cycles of recent ACTs (bounded by 4 for the tFAW window).
    act_history: VecDeque<Cycle>,
    next_ref: Cycle,
    /// Issue time of the most recent command (power-down bookkeeping).
    last_activity: Cycle,
    seq: u64,
    /// The scheduler's one memo: the winner of the last
    /// [`Channel::scan_queue`]. The queue and the timing state the scan
    /// reads change only in `enqueue`, `issue` and `do_refresh`, each of
    /// which resets this to `None` (stale); `Some(best)` is served without
    /// rescanning — about half of all queries, since `advance_to` re-asks
    /// on every simulated demand access. `Some(None)` memoises an empty
    /// queue.
    cached_candidate: Option<Option<Candidate>>,
    pub(crate) stats: DramStats,
    pub(crate) log: Vec<Command>,
}

impl Channel {
    pub(crate) fn new(cfg: DramConfig) -> Self {
        Self {
            banks: (0..cfg.map.banks).map(|_| Bank::new()).collect(),
            queue: Vec::new(),
            next_cmd: Cycle::ZERO,
            next_rd: Cycle::ZERO,
            next_wr: Cycle::ZERO,
            act_history: VecDeque::with_capacity(4),
            next_ref: Cycle::new(cfg.timing.t_refi),
            last_activity: Cycle::ZERO,
            seq: 0,
            cached_candidate: Some(None),
            stats: DramStats::default(),
            log: Vec::new(),
            cfg,
        }
    }

    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn has_room(&self) -> bool {
        self.queue.len() < self.cfg.queue_depth
    }

    pub(crate) fn enqueue(
        &mut self,
        id: RequestId,
        addr: PhysAddr,
        is_write: bool,
        priority: Priority,
        now: Cycle,
    ) {
        debug_assert!(self.has_room(), "enqueue on full channel queue");
        // CKE power-down: a rank idle past t_cke dropped its clock enable;
        // this arrival wakes it, paying t_xp before the next command.
        if self.cfg.powerdown && self.queue.is_empty() {
            let idle = now.since(self.last_activity);
            if idle > self.cfg.timing.t_cke {
                self.stats.powerdown_cycles += idle - self.cfg.timing.t_cke;
                self.stats.n_wakeups += 1;
                self.next_cmd = self.next_cmd.max(now + self.cfg.timing.t_xp);
            }
        }
        let (bank, row) = self.cfg.map.locate(addr);
        self.cached_candidate = None;
        let p = Pending { id, addr, bank, row, is_write, priority, enqueued: now, seq: self.seq };
        self.queue.push(p);
        self.seq += 1;
    }

    /// Earliest cycle the next command of `p` could issue, and its kind.
    fn next_command(&self, p: &Pending) -> (CommandKind, Cycle) {
        let t = &self.cfg.timing;
        let b = &self.banks[p.bank];
        let (kind, ready) = match b.open_row {
            Some(r) if r == p.row => {
                let bus = if p.is_write { self.next_wr } else { self.next_rd };
                let kind = if p.is_write { CommandKind::Write } else { CommandKind::Read };
                (kind, b.next_col.max(bus))
            }
            Some(_) => (CommandKind::Precharge, b.next_pre),
            None => {
                let mut ready = b.next_act;
                if let Some(&last) = self.act_history.back() {
                    ready = ready.max(last + t.t_rrd);
                }
                if self.act_history.len() >= 4 {
                    ready = ready.max(self.act_history[self.act_history.len() - 4] + t.t_faw);
                }
                (CommandKind::Activate, ready)
            }
        };
        (kind, ready.max(p.enqueued).max(self.next_cmd))
    }

    /// The scheduler's decision: the memoised winner while it is fresh,
    /// otherwise a [`Channel::scan_queue`] whose result is memoised. In
    /// debug builds every memo hit is checked against a fresh scan.
    fn best_candidate(&mut self) -> Option<Candidate> {
        if let Some(cached) = self.cached_candidate {
            debug_assert_eq!(
                cached,
                self.scan_queue(),
                "stale scheduler memo: a mutation path forgot to invalidate"
            );
            return cached;
        }
        let best = self.scan_queue();
        self.cached_candidate = Some(best);
        best
    }

    /// The scheduler's one queue scan: every entry derives its next
    /// command and issue cycle directly from bank and bus state
    /// ([`Channel::next_command`]), and the winner is picked by policy.
    /// FCFS considers only the oldest request; FR-FCFS (default):
    /// earliest-issuable command wins; ties prefer column commands (row
    /// hits), then demand over prefetch over writeback, then age. `seq` is
    /// unique, so the FR-FCFS key never ties.
    fn scan_queue(&self) -> Option<Candidate> {
        let candidate = |(queue_idx, p): (usize, &Pending)| {
            let (kind, issue) = self.next_command(p);
            Candidate { queue_idx, issue, kind }
        };
        let entries = self.queue.iter().enumerate();
        match self.cfg.scheduler {
            SchedulerKind::Fcfs => entries.min_by_key(|(_, p)| p.seq).map(candidate),
            SchedulerKind::FrFcfs => entries
                .map(|(i, p)| {
                    let c = candidate((i, p));
                    let row_miss = !matches!(c.kind, CommandKind::Read | CommandKind::Write);
                    ((c.issue, row_miss, p.priority, p.seq), c)
                })
                .min_by_key(|&(key, _)| key)
                .map(|(_, c)| c),
        }
    }

    fn record(&mut self, cycle: Cycle, kind: CommandKind, bank: usize, row: u64) {
        if self.cfg.record_log {
            self.log.push(Command { cycle, kind, bank, row });
        }
    }

    fn do_refresh(&mut self) {
        // Bank timing state and `next_cmd` change: the memo is stale.
        self.cached_candidate = None;
        let t = self.cfg.timing;
        // All banks must be precharged before REF; take the latest legal
        // moment across open banks (implicit precharges).
        let mut start = self.next_ref.max(self.next_cmd);
        for b in &self.banks {
            if b.open_row.is_some() {
                start = start.max(b.next_pre);
            }
        }
        let open_banks = self.banks.iter().filter(|b| b.open_row.is_some()).count() as u64;
        self.stats.n_pre += open_banks;
        let ready = start + t.t_rfc;
        for b in &mut self.banks {
            b.refresh_reset(ready);
        }
        self.stats.n_ref += 1;
        self.record(start, CommandKind::Refresh, 0, 0);
        self.next_cmd = self.next_cmd.max(start + t.t_cmd);
        self.last_activity = self.last_activity.max(ready);
        self.next_ref += t.t_refi;
    }

    fn issue(&mut self, cand: Candidate, out: &mut Vec<Completion>) {
        // Every arm mutates bank/bus timing (and column commands retire
        // their request): the memoised scheduler decision is stale.
        self.cached_candidate = None;
        let t = self.cfg.timing;
        let p = self.queue[cand.queue_idx];
        let at = cand.issue;
        self.next_cmd = at + t.t_cmd;
        self.last_activity = self.last_activity.max(at);
        match cand.kind {
            CommandKind::Activate => {
                self.banks[p.bank].activate(at, p.row, &t);
                if self.act_history.len() == 4 {
                    self.act_history.pop_front();
                }
                self.act_history.push_back(at);
                self.stats.n_act += 1;
                self.record(at, CommandKind::Activate, p.bank, p.row);
            }
            CommandKind::Precharge => {
                self.banks[p.bank].precharge(at, &t);
                self.stats.n_pre += 1;
                self.record(at, CommandKind::Precharge, p.bank, 0);
            }
            CommandKind::Read => {
                self.banks[p.bank].read(at, &t);
                self.maybe_auto_precharge(p.bank, p.row, cand.queue_idx);
                self.next_rd = at + t.t_ccd;
                // Read-to-write turnaround on the shared data bus.
                let rd_data_end = at + t.t_cl + t.t_burst();
                self.next_wr = self
                    .next_wr
                    .max(Cycle::new((rd_data_end + t.t_rtrs).as_u64().saturating_sub(t.t_cwl)));
                self.stats.n_rd += 1;
                match p.priority {
                    Priority::Demand => self.stats.n_rd_demand += 1,
                    Priority::Prefetch => self.stats.n_rd_prefetch += 1,
                    Priority::Writeback => {}
                }
                self.record(at, CommandKind::Read, p.bank, p.row);
                let finish = at + t.t_cl + t.t_burst();
                self.finish_request(cand.queue_idx, finish, out);
            }
            CommandKind::Write => {
                self.banks[p.bank].write(at, &t);
                self.maybe_auto_precharge(p.bank, p.row, cand.queue_idx);
                self.next_wr = at + t.t_ccd;
                // Write-to-read turnaround.
                self.next_rd = self.next_rd.max(at + t.t_cwl + t.t_burst() + t.t_wtr);
                self.stats.n_wr += 1;
                self.record(at, CommandKind::Write, p.bank, p.row);
                let finish = at + t.t_cwl + t.t_burst();
                self.finish_request(cand.queue_idx, finish, out);
            }
            CommandKind::Refresh => unreachable!("refresh is not a per-request command"),
        }
    }

    /// Closed-page policy: auto-precharge after a column command unless
    /// another queued request (other than the one being retired at
    /// `retiring_idx`) still wants this row.
    fn maybe_auto_precharge(&mut self, bank: usize, row: u64, retiring_idx: usize) {
        if self.cfg.page_policy != PagePolicy::Closed {
            return;
        }
        let another_hit = self
            .queue
            .iter()
            .enumerate()
            .any(|(i, q)| i != retiring_idx && q.bank == bank && q.row == row);
        if another_hit {
            return;
        }
        // The earliest legal precharge moment (tRAS from ACT, tRTP/tWR from
        // the column command just issued).
        let b = &mut self.banks[bank];
        let pre_at = b.next_pre;
        b.precharge(pre_at, &self.cfg.timing);
        self.stats.n_pre += 1;
        if self.cfg.record_log {
            self.log.push(Command { cycle: pre_at, kind: CommandKind::Precharge, bank, row: 0 });
        }
    }

    fn finish_request(&mut self, idx: usize, finish: Cycle, out: &mut Vec<Completion>) {
        let p = self.queue.swap_remove(idx);
        self.stats.last_finish = self.stats.last_finish.max(finish);
        out.push(Completion {
            id: p.id,
            addr: p.addr,
            is_write: p.is_write,
            priority: p.priority,
            enqueued: p.enqueued,
            finish,
        });
    }

    /// Issues every command that can legally issue at or before `t`.
    pub(crate) fn advance_to(&mut self, t: Cycle, out: &mut Vec<Completion>) {
        loop {
            let cand = self.best_candidate();
            let next_issue = cand.map(|c| c.issue);
            let ref_due = self.next_ref <= t && next_issue.is_none_or(|i| self.next_ref <= i);
            if ref_due {
                self.do_refresh();
                continue;
            }
            match cand {
                Some(c) if c.issue <= t => self.issue(c, out),
                _ => break,
            }
        }
    }

    /// Issues until the queue is empty, servicing refreshes as they come due.
    pub(crate) fn drain(&mut self, out: &mut Vec<Completion>) {
        while let Some(cand) = self.best_candidate() {
            if self.next_ref <= cand.issue {
                self.do_refresh();
                continue;
            }
            self.issue(cand, out);
        }
    }
}
