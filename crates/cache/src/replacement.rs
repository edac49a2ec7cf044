//! Per-set replacement policies.
//!
//! The paper notes that "neither state-of-the-art cache replacement policies
//! nor increasing cache size significantly improve SC performance"; the
//! replacement ablation reproduces that claim, so a representative palette
//! of policies is provided behind one enum — including the RRIP family
//! (SRRIP, BRRIP and set-dueling DRRIP) that was the state of the art for
//! thrash- and scan-resistant last-level caches.

use core::fmt;

/// Selects the replacement policy of a [`crate::SetAssocCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementKind {
    /// Least-recently-used (the baseline system's policy).
    #[default]
    Lru,
    /// First-in-first-out.
    Fifo,
    /// 2-bit static re-reference interval prediction (SRRIP).
    Srrip,
    /// Bimodal RRIP: distant insertion with occasional long insertion —
    /// thrash-resistant.
    Brrip,
    /// Dynamic RRIP: set-dueling between SRRIP and BRRIP leaders with a
    /// PSEL counter steering the follower sets.
    Drrip,
    /// Deterministic pseudo-random (xorshift64), seeded per cache.
    Random,
}

impl fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReplacementKind::Lru => "LRU",
            ReplacementKind::Fifo => "FIFO",
            ReplacementKind::Srrip => "SRRIP",
            ReplacementKind::Brrip => "BRRIP",
            ReplacementKind::Drrip => "DRRIP",
            ReplacementKind::Random => "Random",
        })
    }
}

impl ReplacementKind {
    /// All provided policies, for ablation sweeps.
    pub const ALL: [ReplacementKind; 6] = [
        ReplacementKind::Lru,
        ReplacementKind::Fifo,
        ReplacementKind::Srrip,
        ReplacementKind::Brrip,
        ReplacementKind::Drrip,
        ReplacementKind::Random,
    ];

    /// Whether the policy uses RRPV state (the RRIP family).
    pub(crate) fn is_rrip(self) -> bool {
        matches!(self, ReplacementKind::Srrip | ReplacementKind::Brrip | ReplacementKind::Drrip)
    }
}

/// SRRIP re-reference prediction value on insertion ("long" interval).
pub(crate) const SRRIP_INSERT_RRPV: u8 = 2;
/// Maximum RRPV for a 2-bit counter ("distant" interval).
pub(crate) const SRRIP_MAX_RRPV: u8 = 3;
/// BRRIP inserts "long" once out of this many fills, "distant" otherwise.
pub(crate) const BRRIP_LONG_PERIOD: u64 = 32;

/// DRRIP set-dueling constellation: which policy a set's misses vote for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DuelRole {
    /// A dedicated SRRIP leader set.
    SrripLeader,
    /// A dedicated BRRIP leader set.
    BrripLeader,
    /// A follower set steered by the PSEL counter.
    Follower,
}

/// Maps a set index to its dueling role (one leader of each kind per 64
/// sets, offset so the leaders interleave).
pub(crate) fn duel_role(set: usize) -> DuelRole {
    match set % 64 {
        0 => DuelRole::SrripLeader,
        33 => DuelRole::BrripLeader,
        _ => DuelRole::Follower,
    }
}

/// 10-bit PSEL midpoint: PSEL at or above this picks BRRIP in followers.
pub(crate) const PSEL_MID: u16 = 512;
/// PSEL saturation bound.
pub(crate) const PSEL_MAX: u16 = 1023;

/// Replacement state for the whole cache, flattened struct-of-arrays
/// style: one contiguous stamp (or RRPV) array indexed by
/// `set * ways + way`, instead of one boxed `Vec` per set. The per-set
/// enum-of-`Vec` layout cost a pointer chase plus a scattered heap line on
/// every replacement-state touch — on the simulator's hot path that was a
/// measurable share of each access.
#[derive(Debug, Clone)]
pub(crate) enum ReplTable {
    /// Per-way stamps: last touch for LRU (`update_on_hit`), insertion
    /// order for FIFO.
    Stamps {
        /// LRU refreshes the stamp on hits; FIFO does not.
        update_on_hit: bool,
        /// `sets * ways` stamps.
        stamps: Vec<u64>,
    },
    /// Per-way 2-bit RRPVs (shared by the whole RRIP family).
    Rrip(Vec<u8>),
    /// No per-way state; victims come from the shared RNG.
    Random,
}

impl ReplTable {
    pub(crate) fn new(kind: ReplacementKind, sets: usize, ways: usize) -> Self {
        match kind {
            ReplacementKind::Lru => {
                ReplTable::Stamps { update_on_hit: true, stamps: vec![0; sets * ways] }
            }
            ReplacementKind::Fifo => {
                ReplTable::Stamps { update_on_hit: false, stamps: vec![0; sets * ways] }
            }
            k if k.is_rrip() => ReplTable::Rrip(vec![SRRIP_MAX_RRPV; sets * ways]),
            _ => ReplTable::Random,
        }
    }

    /// Records a hit on `way` of the set starting at line index `base`.
    pub(crate) fn on_hit(&mut self, base: usize, way: usize, tick: u64) {
        match self {
            ReplTable::Stamps { update_on_hit: true, stamps } => stamps[base + way] = tick,
            ReplTable::Stamps { .. } => {}
            ReplTable::Rrip(rrpv) => rrpv[base + way] = 0,
            ReplTable::Random => {}
        }
    }

    /// Records a fill into `way` of the set at `base`; `insert_rrpv` is
    /// the RRIP insertion value chosen by the cache (ignored elsewhere).
    pub(crate) fn on_fill(&mut self, base: usize, way: usize, tick: u64, insert_rrpv: u8) {
        match self {
            ReplTable::Stamps { stamps, .. } => stamps[base + way] = tick,
            ReplTable::Rrip(rrpv) => rrpv[base + way] = insert_rrpv,
            ReplTable::Random => {}
        }
    }

    /// Chooses a victim among the `ways` lines of the set at `base` (the
    /// cache prefers invalid ways before consulting the policy). `rng` is
    /// the cache-level xorshift state used by the random policy.
    pub(crate) fn victim(&mut self, base: usize, ways: usize, rng: &mut u64) -> usize {
        match self {
            ReplTable::Stamps { stamps, .. } => stamps[base..base + ways]
                .iter()
                .enumerate()
                .min_by_key(|(_, &t)| t)
                .map(|(w, _)| w)
                .expect("non-empty set"),
            ReplTable::Rrip(rrpv) => {
                let set = &mut rrpv[base..base + ways];
                loop {
                    if let Some(w) = set.iter().position(|&r| r >= SRRIP_MAX_RRPV) {
                        break w;
                    }
                    for r in set.iter_mut() {
                        *r += 1;
                    }
                }
            }
            ReplTable::Random => {
                // xorshift64: deterministic, cheap, uniform enough.
                let mut x = *rng;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *rng = x;
                (x % ways as u64) as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut s = ReplTable::new(ReplacementKind::Lru, 1, 4);
        for (w, t) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            s.on_fill(0, w, t, SRRIP_INSERT_RRPV);
        }
        s.on_hit(0, 0, 5); // way 0 becomes most recent; way 1 is oldest
        let mut rng = 1;
        assert_eq!(s.victim(0, 4, &mut rng), 1);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut s = ReplTable::new(ReplacementKind::Fifo, 1, 4);
        for (w, t) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            s.on_fill(0, w, t, SRRIP_INSERT_RRPV);
        }
        s.on_hit(0, 0, 100); // FIFO does not promote on hit
        let mut rng = 1;
        assert_eq!(s.victim(0, 4, &mut rng), 0);
    }

    #[test]
    fn srrip_promotes_on_hit_and_ages() {
        let mut s = ReplTable::new(ReplacementKind::Srrip, 1, 2);
        s.on_fill(0, 0, 0, SRRIP_INSERT_RRPV);
        s.on_fill(0, 1, 0, SRRIP_INSERT_RRPV);
        s.on_hit(0, 0, 0); // rrpv 0
        let mut rng = 1;
        // Way 1 has higher RRPV after ageing, so it is the victim.
        assert_eq!(s.victim(0, 2, &mut rng), 1);
    }

    #[test]
    fn distant_insertion_is_evicted_before_long() {
        let mut s = ReplTable::new(ReplacementKind::Brrip, 1, 2);
        s.on_fill(0, 0, 0, SRRIP_INSERT_RRPV); // "long" (rrpv 2)
        s.on_fill(0, 1, 0, SRRIP_MAX_RRPV); // "distant" (rrpv 3)
        let mut rng = 1;
        assert_eq!(s.victim(0, 2, &mut rng), 1, "distant line goes first");
    }

    #[test]
    fn second_set_state_is_independent() {
        // Two sets sharing one flattened table: victims must not leak
        // across the set boundary.
        let mut s = ReplTable::new(ReplacementKind::Lru, 2, 2);
        s.on_fill(0, 0, 10, SRRIP_INSERT_RRPV);
        s.on_fill(0, 1, 20, SRRIP_INSERT_RRPV);
        s.on_fill(2, 0, 5, SRRIP_INSERT_RRPV);
        s.on_fill(2, 1, 30, SRRIP_INSERT_RRPV);
        let mut rng = 1;
        assert_eq!(s.victim(0, 2, &mut rng), 0, "set 0 oldest is way 0");
        assert_eq!(s.victim(2, 2, &mut rng), 0, "set 1 oldest is its own way 0");
    }

    #[test]
    fn duel_roles_partition_sets() {
        assert_eq!(duel_role(0), DuelRole::SrripLeader);
        assert_eq!(duel_role(33), DuelRole::BrripLeader);
        assert_eq!(duel_role(1), DuelRole::Follower);
        assert_eq!(duel_role(64), DuelRole::SrripLeader);
        assert_eq!(duel_role(97), DuelRole::BrripLeader);
        // Followers dominate.
        let followers = (0..4096).filter(|&s| duel_role(s) == DuelRole::Follower).count();
        assert_eq!(followers, 4096 - 2 * 64);
    }

    #[test]
    fn random_is_deterministic_for_seed() {
        let mut s = ReplTable::new(ReplacementKind::Random, 1, 8);
        let mut rng_a = 42u64;
        let mut rng_b = 42u64;
        let a: Vec<usize> = (0..16).map(|_| s.victim(0, 8, &mut rng_a)).collect();
        let b: Vec<usize> = (0..16).map(|_| s.victim(0, 8, &mut rng_b)).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&w| w < 8));
    }

    #[test]
    fn display_and_all() {
        assert_eq!(ReplacementKind::ALL.len(), 6);
        for k in ReplacementKind::ALL {
            assert!(!k.to_string().is_empty());
        }
        assert!(ReplacementKind::Drrip.is_rrip());
        assert!(!ReplacementKind::Lru.is_rrip());
    }
}
