//! Footprint, captures/survivals, and footprint growth
//! (paper §V-C, §V-D, Eqs. 3–4).
//!
//! Footprint `F` is the amount of *unique* data accessed by a series of
//! operations, measured in blocks of a configurable size. *Captures* `C`
//! are addresses with reuse inside the window, *survivals* `S` addresses
//! without; `F = C + S`. The estimated footprint `F̂` for a sampled
//! population scales by the sample ratio ρ for inter-window analysis
//! (Eq. 3), and footprint growth is footprint per (decompressed) access:
//! `ΔF̂(σ) = F(σ) / (κ(σ)·A(σ))` (Eq. 4).

use crate::kernel;
use memgaze_model::{Access, BlockSize};
use serde::{Deserialize, Serialize};

/// Captures and survivals of one access window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapturesSurvivals {
    /// Unique blocks accessed two or more times (addresses *with* reuse).
    pub captures: u64,
    /// Unique blocks accessed exactly once (addresses *without* reuse).
    pub survivals: u64,
}

impl CapturesSurvivals {
    /// Observed footprint `F = C + S` in blocks.
    pub fn footprint(&self) -> u64 {
        self.captures + self.survivals
    }
}

/// Count unique blocks in a window.
pub fn footprint(accesses: &[Access], bs: BlockSize) -> u64 {
    captures_survivals(accesses, bs).footprint()
}

/// Count captures and survivals in a window.
pub fn captures_survivals(accesses: &[Access], bs: BlockSize) -> CapturesSurvivals {
    kernel::with_workspace(|ws| {
        ws.reuse_pass(accesses.iter().map(|a| (a.addr.block(bs), 0)));
        let blocks = ws.rows().len() as u64;
        let captures = ws.rows().iter().filter(|r| r.accesses >= 2).count() as u64;
        CapturesSurvivals {
            captures,
            survivals: blocks - captures,
        }
    })
}

/// Which of Eq. 3's two cases applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowKind {
    /// Intra-window: the window lies inside one sample; metrics are exact.
    Intra,
    /// Inter-window: the window spans unsampled gaps; scale by ρ.
    Inter,
}

/// Estimated footprint `F̂` (Eq. 3): exact intra-window, `ρ·(C+S)`
/// inter-window.
pub fn estimated_footprint(cs: CapturesSurvivals, rho: f64, kind: WindowKind) -> f64 {
    match kind {
        WindowKind::Intra => cs.footprint() as f64,
        WindowKind::Inter => rho * cs.footprint() as f64,
    }
}

/// Footprint growth `ΔF̂ = F / (κ·A)` (Eq. 4): average new footprint per
/// decompressed access. `observed` is `A(σ)`.
pub fn footprint_growth(footprint_blocks: u64, observed: u64, kappa: f64) -> f64 {
    let denom = kappa * observed as f64;
    if denom <= 0.0 {
        0.0
    } else {
        footprint_blocks as f64 / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::Access;

    fn acc(addr: u64, t: u64) -> Access {
        Access::new(0x400u64, addr, t)
    }

    #[test]
    fn footprint_counts_unique_blocks() {
        let bs = BlockSize::CACHE_LINE;
        let accesses = vec![acc(0, 0), acc(8, 1), acc(63, 2), acc(64, 3), acc(128, 4)];
        // Blocks: {0, 1, 2}.
        assert_eq!(footprint(&accesses, bs), 3);
        // At byte granularity every distinct address counts.
        assert_eq!(footprint(&accesses, BlockSize::BYTE), 5);
        assert_eq!(footprint(&[], bs), 0);
    }

    #[test]
    fn captures_vs_survivals() {
        let bs = BlockSize::CACHE_LINE;
        // Block 0 twice (capture), block 1 once, block 2 once (survivals).
        let accesses = vec![acc(0, 0), acc(32, 1), acc(64, 2), acc(130, 3)];
        let cs = captures_survivals(&accesses, bs);
        assert_eq!(cs.captures, 1);
        assert_eq!(cs.survivals, 2);
        assert_eq!(cs.footprint(), footprint(&accesses, bs));
    }

    #[test]
    fn eq3_intra_vs_inter() {
        let cs = CapturesSurvivals {
            captures: 10,
            survivals: 30,
        };
        assert_eq!(estimated_footprint(cs, 50.0, WindowKind::Intra), 40.0);
        assert_eq!(estimated_footprint(cs, 50.0, WindowKind::Inter), 2000.0);
    }

    #[test]
    fn eq4_footprint_growth() {
        // 100 unique blocks over 500 observed accesses at κ=2:
        // ΔF = 100/(2·500) = 0.1.
        assert!((footprint_growth(100, 500, 2.0) - 0.1).abs() < 1e-12);
        assert_eq!(footprint_growth(100, 0, 2.0), 0.0);
    }

    #[test]
    fn footprint_subadditive_under_concatenation() {
        let bs = BlockSize::CACHE_LINE;
        let w1: Vec<Access> = (0..50).map(|i| acc(i * 64, i)).collect();
        let w2: Vec<Access> = (25..75).map(|i| acc(i * 64, i)).collect();
        let mut joined = w1.clone();
        joined.extend(w2.iter().copied());
        let f = footprint(&joined, bs);
        assert!(f <= footprint(&w1, bs) + footprint(&w2, bs));
        assert!(f >= footprint(&w1, bs).max(footprint(&w2, bs)));
    }
}
