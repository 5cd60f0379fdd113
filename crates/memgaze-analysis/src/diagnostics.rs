//! Footprint access diagnostics (paper §V-E).
//!
//! Decomposes footprint into strided (prefetchable) and irregular
//! (non-prefetchable) components using the statically assigned load
//! classes — "constant time per operation, without any pattern analysis".
//! Metrics: `F_str`, `F_irr`, their growth rates, the fraction of
//! footprint growth due to each, and the fraction of Constant accesses
//! `A_const%`.

use crate::footprint::footprint_growth;
use crate::kernel::{self, AnnotMemo, ClassCounts};
use memgaze_model::{Access, AuxAnnotations, BlockSize};
use serde::{Deserialize, Serialize};

/// The footprint access diagnostics of one window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FootprintDiagnostics {
    /// Observed accesses `A` in the window.
    pub observed: u64,
    /// Implied Constant accesses `A_const`.
    pub implied_const: u64,
    /// Footprint in blocks.
    pub footprint: u64,
    /// Footprint of blocks touched by Strided accesses.
    pub f_str: u64,
    /// Footprint of blocks touched by Irregular accesses.
    pub f_irr: u64,
    /// Compression ratio κ of the window.
    pub kappa: f64,
}

impl FootprintDiagnostics {
    /// Compute the diagnostics of a window given the annotation file.
    pub fn compute(accesses: &[Access], annots: &AuxAnnotations, bs: BlockSize) -> Self {
        let mut memo = AnnotMemo::new(annots);
        let counts = kernel::with_workspace(|ws| {
            ws.class_pass(accesses.iter().map(|a| {
                let (class, implied) = memo.get(a.ip);
                (a.addr.block(bs), class, implied)
            }))
        });
        FootprintDiagnostics::from_counts(accesses.len() as u64, counts)
    }

    /// The diagnostics of a window of `observed` accesses from its
    /// kernel counts.
    pub(crate) fn from_counts(observed: u64, c: ClassCounts) -> Self {
        FootprintDiagnostics {
            observed,
            implied_const: c.implied_const,
            footprint: c.footprint,
            f_str: c.f_str,
            f_irr: c.f_irr,
            kappa: memgaze_model::compression_ratio(observed, c.implied_const),
        }
    }

    /// Footprint growth `ΔF̂` (Eq. 4).
    pub fn delta_f(&self) -> f64 {
        footprint_growth(self.footprint, self.observed, self.kappa)
    }

    /// Strided footprint growth.
    pub fn delta_f_str(&self) -> f64 {
        footprint_growth(self.f_str, self.observed, self.kappa)
    }

    /// Irregular footprint growth.
    pub fn delta_f_irr(&self) -> f64 {
        footprint_growth(self.f_irr, self.observed, self.kappa)
    }

    /// Percentage of footprint with strided access (`F_str%`).
    pub fn f_str_pct(&self) -> f64 {
        if self.footprint == 0 {
            0.0
        } else {
            100.0 * self.f_str as f64 / self.footprint as f64
        }
    }

    /// Percentage of footprint with irregular access (`F_irr%`).
    pub fn f_irr_pct(&self) -> f64 {
        if self.footprint == 0 {
            0.0
        } else {
            100.0 * self.f_irr as f64 / self.footprint as f64
        }
    }

    /// Fraction of footprint growth due to strided accesses
    /// (`ΔF_str%`), normalized over the classified components.
    pub fn delta_f_str_pct(&self) -> f64 {
        let denom = (self.f_str + self.f_irr) as f64;
        if denom == 0.0 {
            0.0
        } else {
            100.0 * self.f_str as f64 / denom
        }
    }

    /// Fraction of footprint growth due to irregular accesses
    /// (`ΔF_irr%`).
    pub fn delta_f_irr_pct(&self) -> f64 {
        let denom = (self.f_str + self.f_irr) as f64;
        if denom == 0.0 {
            0.0
        } else {
            100.0 * self.f_irr as f64 / denom
        }
    }

    /// Fraction of accesses to constant-sized data (`A_const%`).
    pub fn a_const_pct(&self) -> f64 {
        let total = self.observed + self.implied_const;
        if total == 0 {
            0.0
        } else {
            100.0 * self.implied_const as f64 / total as f64
        }
    }

    /// Merge another window's diagnostics (aggregation over samples;
    /// footprints add — an over-estimate the paper acknowledges as
    /// "quantitative overestimates rather than qualitative", §VI-A).
    pub fn merge(&mut self, other: &FootprintDiagnostics) {
        self.observed += other.observed;
        self.implied_const += other.implied_const;
        self.footprint += other.footprint;
        self.f_str += other.f_str;
        self.f_irr += other.f_irr;
        self.kappa = memgaze_model::compression_ratio(self.observed, self.implied_const);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::{Access, FunctionId, Ip, IpAnnot, LoadClass};

    /// Annotations: 0x10 strided (1 implied const), 0x20 irregular.
    fn annots() -> AuxAnnotations {
        let mut ax = AuxAnnotations::new();
        let mut s = IpAnnot::of_class(LoadClass::Strided, FunctionId(0));
        s.implied_const = 1;
        ax.insert(Ip(0x10), s);
        ax.insert(
            Ip(0x20),
            IpAnnot::of_class(LoadClass::Irregular, FunctionId(0)),
        );
        ax
    }

    fn acc(ip: u64, block: u64, t: u64) -> Access {
        Access::new(ip, block * 64, t)
    }

    #[test]
    fn decomposition_by_class() {
        let ax = annots();
        // Strided loads hit blocks 0..4; irregular hit blocks 4, 10.
        let mut w = Vec::new();
        for (t, b) in [0u64, 1, 2, 3].iter().enumerate() {
            w.push(acc(0x10, *b, t as u64));
        }
        w.push(acc(0x20, 4, 4));
        w.push(acc(0x20, 10, 5));
        w.push(acc(0x10, 4, 6)); // overlap block 4 touched by both

        let d = FootprintDiagnostics::compute(&w, &ax, BlockSize::CACHE_LINE);
        assert_eq!(d.footprint, 6);
        assert_eq!(d.f_str, 5);
        assert_eq!(d.f_irr, 2);
        assert_eq!(d.observed, 7);
        // 5 strided hits × 1 implied const each.
        assert_eq!(d.implied_const, 5);
        assert!((d.kappa - (1.0 + 5.0 / 7.0)).abs() < 1e-12);
        // ΔF = 6/(κ·7) = 6/12 = 0.5.
        assert!((d.delta_f() - 0.5).abs() < 1e-12);
        assert!((d.f_str_pct() - 100.0 * 5.0 / 6.0).abs() < 1e-9);
        assert!((d.delta_f_str_pct() - 100.0 * 5.0 / 7.0).abs() < 1e-9);
        assert!((d.a_const_pct() - 100.0 * 5.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_ips_default_to_irregular() {
        let ax = AuxAnnotations::new();
        let w = vec![acc(0x99, 0, 0), acc(0x99, 1, 1)];
        let d = FootprintDiagnostics::compute(&w, &ax, BlockSize::CACHE_LINE);
        assert_eq!(d.f_irr, 2);
        assert_eq!(d.f_str, 0);
        assert_eq!(d.delta_f_irr_pct(), 100.0);
    }

    #[test]
    fn empty_window_is_all_zero() {
        let d = FootprintDiagnostics::compute(&[], &annots(), BlockSize::CACHE_LINE);
        assert_eq!(d.footprint, 0);
        assert_eq!(d.delta_f(), 0.0);
        assert_eq!(d.f_str_pct(), 0.0);
        assert_eq!(d.a_const_pct(), 0.0);
    }

    #[test]
    fn merge_accumulates_and_rescales_kappa() {
        let ax = annots();
        let w1 = vec![acc(0x10, 0, 0), acc(0x10, 1, 1)];
        let w2 = vec![acc(0x20, 5, 2), acc(0x20, 6, 3)];
        let mut d = FootprintDiagnostics::compute(&w1, &ax, BlockSize::CACHE_LINE);
        d.merge(&FootprintDiagnostics::compute(
            &w2,
            &ax,
            BlockSize::CACHE_LINE,
        ));
        assert_eq!(d.observed, 4);
        assert_eq!(d.footprint, 4);
        assert_eq!(d.f_str, 2);
        assert_eq!(d.f_irr, 2);
        assert_eq!(d.implied_const, 2);
        assert!((d.kappa - 1.5).abs() < 1e-12);
        assert_eq!(d.delta_f_str_pct(), 50.0);
    }
}
