//! Trace-characterisation analyses from the paper's motivation sections.
//!
//! Two quantitative experiments justify Planaria's design; both operate on
//! raw traces (no simulator in the loop):
//!
//! * [`overlap`] — the Figure 3/4 methodology: per-page time windows of
//!   accessed blocks, overlap rate between consecutive windows. The paper
//!   measures >80% average overlap on every app, which is what licenses
//!   using the page number alone (no PC) as the snapshot signature.
//! * [`neighbors`] — the Figure 5 experiment: the fraction of pages that
//!   have a *learnable neighbour* (page-number distance within a threshold
//!   and footprint-bitmap difference of at most 4 bits). The paper reports
//!   ≈27% at distance 4 rising to ≈39% at distance 64, which is what
//!   licenses TLP's cross-page pattern transfer.
//! * [`reuse`] — block reuse-distance histograms quantifying Observation
//!   1's "long reuse distance / limited temporal locality" claim (and why
//!   neither replacement tweaks nor modest capacity growth rescue the SC).

pub mod neighbors;
pub mod overlap;
pub mod reuse;

pub use neighbors::{learnable_fraction, NeighborReport};
pub use overlap::{overlap_rate, OverlapReport};
pub use reuse::{reuse_histogram, ReuseReport};
