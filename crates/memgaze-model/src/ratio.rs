//! Sample-ratio and compression-ratio algebra (paper §III-C, Eqs. 1–2).
//!
//! With compression, the *observed* accesses `A` differ from the accesses
//! `𝒜` directly implied by the observation. The **sample ratio**
//! `ρ = 𝒜̂(σ)/𝒜(σ)` scales sample statistics to the population, and the
//! **compression ratio** `κ(σ)` relates observed to implied accesses:
//!
//! ```text
//! κ(σ) = 1 + A_const(σ)/A(σ)                            (Eq. 2)
//! ρ    = |σ|(w+z) / (κ(σ)·A(σ))                         (Eq. 1)
//! ```
//!
//! where `|σ|(w+z)` *is* the executed loads the samples covered: a
//! sample stands for the loads since the previous trigger. That count
//! is what [`sample_ratio`] takes — for a whole trace the container
//! trailer's `total_loads`, for a live window the span of its trigger
//! times — so a period retuned mid-run, or a flushed partial sample at
//! the end, scales by the loads that really ran.

use crate::annot::AuxAnnotations;
use crate::sample::SampledTrace;
use serde::{Deserialize, Serialize};

/// Compression ratio `κ = 1 + A_const/A` (Eq. 2).
///
/// `observed` is `A(σ)` (recorded accesses) and `implied_const` is
/// `A_const(σ)` (Constant loads represented by proxies). Returns 1.0 when
/// nothing was observed.
pub fn compression_ratio(observed: u64, implied_const: u64) -> f64 {
    if observed == 0 {
        1.0
    } else {
        1.0 + implied_const as f64 / observed as f64
    }
}

/// Sample ratio `ρ = |σ|(w+z) / (κ·A)` (Eq. 1).
///
/// `loads` is `|σ|(w+z)`, the executed loads the samples covered,
/// `observed` is `A(σ)`, and `kappa` the compression ratio. Returns 1.0
/// for degenerate inputs (no loads or no observations) so scaling
/// becomes the identity.
pub fn sample_ratio(loads: u64, observed: u64, kappa: f64) -> f64 {
    let implied = kappa * observed as f64;
    if loads == 0 || implied <= 0.0 {
        return 1.0;
    }
    loads as f64 / implied
}

/// Everything needed to decompress and re-scale a sampled trace's
/// statistics: the loads covered, `A(σ)`, `A_const(σ)`, and the derived
/// κ and ρ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecompressionInfo {
    /// Executed loads the samples covered, `|σ|(w+z)`.
    pub loads: u64,
    /// Observed accesses `A(σ)`.
    pub observed: u64,
    /// Implied Constant accesses `A_const(σ)`.
    pub implied_const: u64,
}

impl DecompressionInfo {
    /// Derive the decompression info from a trace (its trailer's
    /// `total_loads`) and its annotations.
    pub fn from_trace(trace: &SampledTrace, annots: &AuxAnnotations) -> DecompressionInfo {
        DecompressionInfo {
            loads: trace.meta.total_loads,
            observed: trace.observed_accesses(),
            implied_const: annots.implied_const_accesses(trace),
        }
    }

    /// Compression ratio κ (Eq. 2).
    pub fn kappa(&self) -> f64 {
        compression_ratio(self.observed, self.implied_const)
    }

    /// Sample ratio ρ (Eq. 1).
    pub fn rho(&self) -> f64 {
        sample_ratio(self.loads, self.observed, self.kappa())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;
    use crate::annot::IpAnnot;
    use crate::sample::{Sample, TraceMeta};
    use crate::symbols::FunctionId;
    use crate::{Ip, LoadClass};

    #[test]
    fn kappa_matches_eq2() {
        // κ = 1 + A_const/A
        assert_eq!(compression_ratio(100, 0), 1.0);
        assert!((compression_ratio(100, 100) - 2.0).abs() < 1e-12);
        assert!((compression_ratio(100, 20) - 1.2).abs() < 1e-12);
        // Degenerate: no observations.
        assert_eq!(compression_ratio(0, 5), 1.0);
    }

    #[test]
    fn rho_without_compression_is_period_over_window() {
        // ρ reduces to (w+z)/w for non-selective instrumentation.
        let rho = sample_ratio(10 * 10_000, 10 * 500, 1.0);
        assert!((rho - 20.0).abs() < 1e-12);
    }

    #[test]
    fn rho_accounts_for_compression() {
        // With κ=2, each observed access stands for two, halving ρ.
        let rho = sample_ratio(10 * 10_000, 10 * 500, 2.0);
        assert!((rho - 10.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_rho_is_identity() {
        assert_eq!(sample_ratio(0, 100, 1.0), 1.0);
        assert_eq!(sample_ratio(10_000, 0, 1.0), 1.0);
    }

    #[test]
    fn info_from_trace() {
        let mut ax = AuxAnnotations::new();
        let mut proxy = IpAnnot::of_class(LoadClass::Strided, FunctionId(0));
        proxy.implied_const = 1;
        ax.insert(Ip(0x10), proxy);

        let mut t = SampledTrace::new(TraceMeta::new("t", 1000, 8192));
        t.push_sample(Sample::new(
            (0..10)
                .map(|i| Access::new(Ip(0x10), 0x1000u64 + i * 64, i))
                .collect(),
            10,
        ))
        .unwrap();
        t.meta.total_loads = 1000;

        let info = DecompressionInfo::from_trace(&t, &ax);
        assert_eq!(info.loads, 1000);
        assert_eq!(info.observed, 10);
        assert_eq!(info.implied_const, 10);
        assert!((info.kappa() - 2.0).abs() < 1e-12);
        // 𝒜 = κA = 20; ρ = 1000/20 = 50.
        assert!((info.rho() - 50.0).abs() < 1e-12);
    }
}
