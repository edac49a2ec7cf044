//! The Figure 5 learnable-neighbour experiment.
//!
//! A page is a *learnable neighbour* when some other page sits within a
//! page-number distance threshold **and** the two pages' footprint bitmaps
//! differ by at most [`BITMAP_DIFF_THRESHOLD`] bits. The fraction of such
//! pages bounds TLP's opportunity: those are exactly the pages that could
//! skip their own warm-up by borrowing a neighbour's pattern.

use std::collections::HashMap;

use planaria_common::Bitmap64;
use planaria_trace::Trace;

/// Maximum bitmap Hamming distance for two pages to "look alike" (paper: 4).
pub const BITMAP_DIFF_THRESHOLD: usize = 4;

/// Result of the neighbour analysis at one distance threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborReport {
    /// Workload name.
    pub workload: String,
    /// Page-number distance threshold used.
    pub distance_threshold: u64,
    /// Fraction of pages with at least one learnable neighbour.
    pub learnable_fraction: f64,
    /// Total distinct pages in the trace.
    pub total_pages: usize,
    /// Pages with a learnable neighbour.
    pub learnable_pages: usize,
}

/// Runs the Figure 5 experiment at `distance_threshold`.
///
/// Footprint bitmaps are accumulated over the whole trace (as in the
/// paper's bitmap-per-page representation); the scan over neighbour
/// candidates is windowed over the sorted page list, so the whole analysis
/// is `O(pages × candidates-within-threshold)`.
pub fn learnable_fraction(trace: &Trace, distance_threshold: u64) -> NeighborReport {
    let mut bitmaps: HashMap<u64, Bitmap64> = HashMap::new();
    for a in trace.iter() {
        bitmaps
            .entry(a.addr.page().as_u64())
            .or_insert(Bitmap64::EMPTY)
            .set(a.addr.block_index().as_usize());
    }
    let mut pages: Vec<(u64, Bitmap64)> = bitmaps.into_iter().collect();
    pages.sort_by_key(|(p, _)| *p);

    let mut learnable = 0usize;
    for (i, &(p, bm)) in pages.iter().enumerate() {
        // Scan forward while within the distance threshold; matches are
        // symmetric, so count both endpoints the first time we see a pair.
        let mut is_learnable = false;
        // Backward window.
        for j in (0..i).rev() {
            let (q, qbm) = pages[j];
            if p - q > distance_threshold {
                break;
            }
            if bm.hamming_distance(qbm) <= BITMAP_DIFF_THRESHOLD {
                is_learnable = true;
                break;
            }
        }
        if !is_learnable {
            for &(q, qbm) in pages.iter().skip(i + 1) {
                if q - p > distance_threshold {
                    break;
                }
                if bm.hamming_distance(qbm) <= BITMAP_DIFF_THRESHOLD {
                    is_learnable = true;
                    break;
                }
            }
        }
        if is_learnable {
            learnable += 1;
        }
    }

    NeighborReport {
        workload: trace.name().to_string(),
        distance_threshold,
        learnable_fraction: if pages.is_empty() {
            0.0
        } else {
            learnable as f64 / pages.len() as f64
        },
        total_pages: pages.len(),
        learnable_pages: learnable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_common::{BlockIndex, Cycle, MemAccess, PageNum, PhysAddr};

    fn trace_of(pages: &[(u64, &[usize])]) -> Trace {
        let mut accesses = Vec::new();
        let mut t = 0u64;
        for (page, blocks) in pages {
            for &b in *blocks {
                accesses.push(MemAccess::read(
                    PhysAddr::from_parts(PageNum::new(*page), BlockIndex::new(b)),
                    Cycle::new(t),
                ));
                t += 10;
            }
        }
        Trace::new("test", accesses)
    }

    #[test]
    fn identical_adjacent_pages_are_learnable() {
        let t = trace_of(&[(10, &[0, 2, 4]), (11, &[0, 2, 4])]);
        let r = learnable_fraction(&t, 4);
        assert_eq!(r.total_pages, 2);
        assert_eq!(r.learnable_pages, 2);
        assert!((r.learnable_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distance_threshold_gates_matches() {
        let t = trace_of(&[(10, &[0, 2, 4]), (80, &[0, 2, 4])]);
        assert_eq!(learnable_fraction(&t, 4).learnable_pages, 0);
        assert_eq!(learnable_fraction(&t, 70).learnable_pages, 2);
    }

    #[test]
    fn distance_is_inclusive() {
        let t = trace_of(&[(10, &[0, 2, 4]), (14, &[0, 2, 4])]);
        assert_eq!(learnable_fraction(&t, 4).learnable_pages, 2);
        assert_eq!(learnable_fraction(&t, 3).learnable_pages, 0);
    }

    #[test]
    fn bitmap_difference_gates_matches() {
        // Bitmaps differ by 6 bits: {0,2,4} vs {1,3,5}.
        let t = trace_of(&[(10, &[0, 2, 4]), (11, &[1, 3, 5])]);
        assert_eq!(learnable_fraction(&t, 4).learnable_pages, 0);
        // Differ by exactly 4 bits: {0,2,4} vs {0,2,6,8} -> distance 3? No:
        // {0,2,4} ^ {0,2,6} = {4,6} = 2 bits -> learnable.
        let t = trace_of(&[(10, &[0, 2, 4]), (11, &[0, 2, 6])]);
        assert_eq!(learnable_fraction(&t, 4).learnable_pages, 2);
    }

    #[test]
    fn fraction_grows_with_distance() {
        use planaria_trace::apps::{profile, AppId};
        let trace = profile(AppId::HoK).scaled(40_000).build();
        let near = learnable_fraction(&trace, 4).learnable_fraction;
        let far = learnable_fraction(&trace, 64).learnable_fraction;
        assert!(far >= near, "far {far} must not be below near {near}");
        assert!(far > 0.0, "HoK has neighbour clusters");
    }

    #[test]
    fn empty_trace_is_safe() {
        let r = learnable_fraction(&Trace::empty("e"), 64);
        assert_eq!(r.total_pages, 0);
        assert_eq!(r.learnable_fraction, 0.0);
    }
}
