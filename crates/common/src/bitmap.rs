//! Fixed-width footprint bitmaps.
//!
//! Planaria represents the set of accessed blocks in a page (its *footprint
//! snapshot*) as a bitmap: bit *i* is set when block *i* has been accessed.
//! Because a 4 KB page is channel-sliced into four 16-block segments, the
//! per-channel hardware tables store [`Bitmap16`]; whole-page analyses (the
//! Figure 4/5 experiments) use [`Bitmap64`].
//!
//! # Examples
//!
//! ```
//! use planaria_common::Bitmap16;
//!
//! // A footprint snapshot: blocks 0, 2 and 5 of the segment were touched.
//! let snapshot: Bitmap16 = [0usize, 2, 5].into_iter().collect();
//! assert_eq!(snapshot.count(), 3);
//!
//! // On replay, blocks already covered by the current access are pruned
//! // with set subtraction; `iter_set` yields what is left to prefetch.
//! let already_seen = Bitmap16::EMPTY.with(2);
//! let todo = snapshot.minus(already_seen);
//! assert_eq!(todo.iter_set().collect::<Vec<_>>(), vec![0, 5]);
//!
//! // TLP's similarity test is bit overlap between two snapshots.
//! assert_eq!(snapshot.overlap(already_seen), 1);
//! ```

use core::fmt;

macro_rules! impl_bitmap {
    ($name:ident, $repr:ty, $bits:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name($repr);

        impl $name {
            /// Number of bits in the bitmap.
            pub const BITS: usize = $bits;

            /// The empty bitmap.
            pub const EMPTY: $name = $name(0);

            /// The full bitmap (every block accessed).
            pub const FULL: $name = $name(<$repr>::MAX);

            /// Creates a bitmap from its raw bits.
            pub const fn from_bits(bits: $repr) -> Self {
                Self(bits)
            }

            /// Returns the raw bits.
            pub const fn bits(self) -> $repr {
                self.0
            }

            /// Returns `true` if no bit is set.
            pub const fn is_empty(self) -> bool {
                self.0 == 0
            }

            /// Returns the number of set bits (footprint size).
            pub const fn count(self) -> usize {
                self.0.count_ones() as usize
            }

            /// Returns whether bit `idx` is set.
            ///
            /// # Panics
            ///
            /// Panics if `idx >= Self::BITS`.
            pub fn get(self, idx: usize) -> bool {
                assert!(idx < Self::BITS, "bit {idx} out of range 0..{}", Self::BITS);
                self.0 & (1 << idx) != 0
            }

            /// Sets bit `idx`, returning the new bitmap.
            ///
            /// # Panics
            ///
            /// Panics if `idx >= Self::BITS`.
            #[must_use]
            pub fn with(self, idx: usize) -> Self {
                assert!(idx < Self::BITS, "bit {idx} out of range 0..{}", Self::BITS);
                Self(self.0 | (1 << idx))
            }

            /// Sets bit `idx` in place.
            ///
            /// # Panics
            ///
            /// Panics if `idx >= Self::BITS`.
            pub fn set(&mut self, idx: usize) {
                *self = self.with(idx);
            }

            /// Clears bit `idx` in place.
            ///
            /// # Panics
            ///
            /// Panics if `idx >= Self::BITS`.
            pub fn clear(&mut self, idx: usize) {
                assert!(idx < Self::BITS, "bit {idx} out of range 0..{}", Self::BITS);
                self.0 &= !(1 << idx);
            }

            /// Bitwise intersection (blocks present in both footprints).
            pub const fn and(self, other: Self) -> Self {
                Self(self.0 & other.0)
            }

            /// Bitwise union.
            pub const fn or(self, other: Self) -> Self {
                Self(self.0 | other.0)
            }

            /// Bits set in `self` but not in `other`.
            pub const fn minus(self, other: Self) -> Self {
                Self(self.0 & !other.0)
            }

            /// Hamming distance: number of differing bits.
            ///
            /// TLP's neighbour test declares two pages "learnable neighbours"
            /// when this distance is at most a small threshold (4 bits in
            /// the paper's Figure 5 experiment).
            pub const fn hamming_distance(self, other: Self) -> usize {
                (self.0 ^ other.0).count_ones() as usize
            }

            /// Number of bits set in both bitmaps (common-pattern size).
            ///
            /// TLP picks the candidate neighbour maximising this overlap.
            pub const fn overlap(self, other: Self) -> usize {
                (self.0 & other.0).count_ones() as usize
            }

            /// Overlap rate of `self` relative to `current` as defined for
            /// the paper's Figure 4: `|self ∩ current| / |current|`.
            ///
            /// Returns `None` when `current` is empty.
            pub fn overlap_rate(self, current: Self) -> Option<f64> {
                if current.is_empty() {
                    None
                } else {
                    Some(self.overlap(current) as f64 / current.count() as f64)
                }
            }

            /// Iterates over the indices of set bits in ascending order.
            pub fn iter_set(self) -> IterSet<$repr> {
                IterSet { bits: self.0 }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:0width$b}", self.0, width = Self::BITS)
            }
        }

        impl fmt::Binary for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Binary::fmt(&self.0, f)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl From<$repr> for $name {
            fn from(bits: $repr) -> Self {
                Self(bits)
            }
        }

        impl From<$name> for $repr {
            fn from(b: $name) -> $repr {
                b.0
            }
        }

        impl FromIterator<usize> for $name {
            fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
                let mut b = Self::EMPTY;
                for idx in iter {
                    b.set(idx);
                }
                b
            }
        }
    };
}

impl_bitmap!(
    Bitmap16,
    u16,
    16,
    "A 16-bit footprint bitmap for one page segment (one DRAM channel's share of a page)."
);
impl_bitmap!(
    Bitmap64,
    u64,
    64,
    "A 64-bit footprint bitmap covering a whole 4 KB page (64 blocks)."
);

/// Iterator over set-bit indices, produced by `iter_set`.
#[derive(Debug, Clone)]
pub struct IterSet<R> {
    bits: R,
}

macro_rules! impl_iter_set {
    ($repr:ty) => {
        impl Iterator for IterSet<$repr> {
            type Item = usize;

            fn next(&mut self) -> Option<usize> {
                if self.bits == 0 {
                    None
                } else {
                    let idx = self.bits.trailing_zeros() as usize;
                    self.bits &= self.bits - 1;
                    Some(idx)
                }
            }

            fn size_hint(&self) -> (usize, Option<usize>) {
                let n = self.bits.count_ones() as usize;
                (n, Some(n))
            }
        }

        impl ExactSizeIterator for IterSet<$repr> {}
    };
}

impl_iter_set!(u16);
impl_iter_set!(u64);

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap16::EMPTY;
        assert!(b.is_empty());
        b.set(3);
        b.set(15);
        assert!(b.get(3) && b.get(15) && !b.get(4));
        assert_eq!(b.count(), 2);
        b.clear(3);
        assert!(!b.get(3));
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn iter_set_ascending() {
        let b: Bitmap64 = [0usize, 5, 63].into_iter().collect();
        let got: Vec<usize> = b.iter_set().collect();
        assert_eq!(got, vec![0, 5, 63]);
        assert_eq!(b.iter_set().len(), 3);
    }

    #[test]
    fn set_ops() {
        let a = Bitmap16::from_bits(0b1100);
        let b = Bitmap16::from_bits(0b1010);
        assert_eq!(a.and(b).bits(), 0b1000);
        assert_eq!(a.or(b).bits(), 0b1110);
        assert_eq!(a.minus(b).bits(), 0b0100);
        assert_eq!(a.hamming_distance(b), 2);
        assert_eq!(a.overlap(b), 1);
    }

    #[test]
    fn overlap_rate_matches_figure4_definition() {
        // prev window {0,1,2,3}, current window {2,3,4,5}:
        // |prev ∩ cur| / |cur| = 2/4.
        let prev: Bitmap64 = [0usize, 1, 2, 3].into_iter().collect();
        let cur: Bitmap64 = [2usize, 3, 4, 5].into_iter().collect();
        assert_eq!(prev.overlap_rate(cur), Some(0.5));
        assert_eq!(prev.overlap_rate(Bitmap64::EMPTY), None);
    }

    #[test]
    fn display_is_fixed_width() {
        assert_eq!(format!("{}", Bitmap16::from_bits(0b101)).len(), 16);
        assert_eq!(format!("{}", Bitmap64::EMPTY).len(), 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_rejects_out_of_range() {
        let _ = Bitmap16::EMPTY.get(16);
    }

    proptest! {
        #[test]
        fn prop_count_equals_iter_len(bits: u64) {
            let b = Bitmap64::from_bits(bits);
            prop_assert_eq!(b.count(), b.iter_set().count());
        }

        #[test]
        fn prop_hamming_triangle_inequality(a: u16, b: u16, c: u16) {
            let (a, b, c) = (Bitmap16::from_bits(a), Bitmap16::from_bits(b), Bitmap16::from_bits(c));
            prop_assert!(a.hamming_distance(c) <= a.hamming_distance(b) + b.hamming_distance(c));
        }

        #[test]
        fn prop_minus_disjoint_from_other(a: u16, b: u16) {
            let (a, b) = (Bitmap16::from_bits(a), Bitmap16::from_bits(b));
            prop_assert_eq!(a.minus(b).and(b), Bitmap16::EMPTY);
            prop_assert_eq!(a.minus(b).or(a.and(b)), a);
        }
    }
}
