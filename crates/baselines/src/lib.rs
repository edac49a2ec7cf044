//! Baseline prefetchers the paper compares Planaria against.
//!
//! The paper evaluates two state-of-the-art delta-based prefetchers on the
//! system cache — both are PC-free and therefore *can* run on the memory
//! side, which is why they are the natural competition:
//!
//! * [`Bop`] — Best-Offset Prefetching (Michaud, HPCA 2016): learns one
//!   global best block offset through scored test rounds against a recent-
//!   requests table.
//! * [`Spp`] — Signature Path Prefetcher (Kim et al., MICRO 2016): hashes
//!   each page's recent delta history into a signature, learns
//!   per-signature delta distributions, and walks the signature path with
//!   multiplicative confidence for lookahead prefetching.
//!
//! plus two classics for calibration and ablation:
//!
//! * [`NextLine`] — prefetch block X+1 on every miss.
//! * [`StridePf`] — per-page PC-free stride detection.
//!
//! All implement [`planaria_core::Prefetcher`], so every harness and the
//! memory-system simulator treat them interchangeably with Planaria.

mod bop;
mod simple;
mod sms;
mod spp;

pub use bop::{Bop, BopConfig};
pub use simple::{NextLine, StrideConfig, StridePf};
pub use sms::{Sms, SmsConfig};
pub use spp::{Spp, SppConfig};
