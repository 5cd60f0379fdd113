//! Address × time heatmaps (paper Fig. 8).
//!
//! "The heatmaps show the distributions of access frequencies and reuse
//! distances (D), where darker is higher" — a matrix whose rows bin a hot
//! memory region's addresses and whose columns bin logical time; one
//! variant accumulates access counts, the other mean reuse distance.

use crate::kernel;
use crate::reuse::ReuseAnalysis;
use memgaze_model::SampledTrace;
use serde::{Deserialize, Serialize};

/// A dense 2-D accumulation grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Heatmap {
    /// Address bins (rows).
    pub rows: usize,
    /// Time bins (columns).
    pub cols: usize,
    /// Row-major cell values.
    pub data: Vec<f64>,
    /// Address range covered `[lo, hi)`.
    pub addr_range: (u64, u64),
    /// Time range covered `[lo, hi)`.
    pub time_range: (u64, u64),
}

impl Heatmap {
    fn new(rows: usize, cols: usize, addr_range: (u64, u64), time_range: (u64, u64)) -> Heatmap {
        Heatmap {
            rows,
            cols,
            data: vec![0.0; rows * cols],
            addr_range,
            time_range,
        }
    }

    fn bin(&self, addr: u64, time: u64) -> Option<(usize, usize)> {
        let r = cell(self.addr_range, addr, self.rows)?;
        let c = cell(self.time_range, time, self.cols)?;
        Some((r, c))
    }

    /// Cell value at `(row, col)`.
    pub fn at(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.cols + col]
    }

    /// Maximum cell value (the "darkest" cell).
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }

    /// Sum of all cells.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Number of cells above `frac` of the maximum — a compact "dark
    /// band" measure used to compare distributions (paper: "cc has fewer
    /// and smaller dark bands").
    pub fn dark_cells(&self, frac: f64) -> usize {
        let cut = self.max() * frac;
        if cut <= 0.0 {
            return 0;
        }
        self.data.iter().filter(|&&v| v >= cut).count()
    }

    /// Render as a compact ASCII shade map (one char per cell) for
    /// reports.
    pub fn render_ascii(&self) -> String {
        const SHADES: &[u8] = b" .:-=+*#%@";
        let max = self.max();
        let mut s = String::with_capacity(self.rows * (self.cols + 1));
        for r in 0..self.rows {
            for c in 0..self.cols {
                let v = self.at(r, c);
                let idx = if max <= 0.0 {
                    0
                } else {
                    ((v / max) * (SHADES.len() - 1) as f64).round() as usize
                };
                s.push(SHADES[idx.min(SHADES.len() - 1)] as char);
            }
            s.push('\n');
        }
        s
    }
}

/// The bin of `x` among `bins` equal cuts of `[lo, hi)`, `None` outside
/// it. A range that ends at `u64::MAX` holds `u64::MAX` too
/// ([`kernel::span`]). It divides in `u64` while `(x − lo) · bins` fits.
fn cell((lo, hi): (u64, u64), x: u64, bins: usize) -> Option<usize> {
    if hi <= lo || x < lo || (x >= hi && hi != u64::MAX) {
        return None;
    }
    let (offset, span) = (x - lo, hi - lo);
    let i = (offset.checked_mul(bins as u64).map(|scaled| scaled / span))
        .unwrap_or_else(|| (offset as u128 * bins as u128 / span as u128) as u64);
    Some((i as usize).min(bins - 1))
}

/// `[first, last + 1)` over the access times of `trace`, `(0, 1)`
/// without accesses. A full pass over the trace; [`crate::Analyzer`]
/// makes it once for all its heatmaps.
pub(crate) fn time_range(trace: &SampledTrace) -> (u64, u64) {
    kernel::span(trace.accesses().map(|a| a.time)).unwrap_or((0, 1))
}

/// Build the access-frequency and reuse-distance heatmaps of a region:
/// `(access_counts, mean_reuse_distance)` with the same shape, whose
/// columns cut `time_range` — the trace's whole time range, `[first,
/// last + 1)`. Cells of the reuse heatmap with no reuse events are zero.
///
/// `analyses` are the per-sample reuse analyses in sample order, events
/// in access order — the analyzer shares its cached ones across heatmaps.
pub fn region_heatmaps_from(
    trace: &SampledTrace,
    analyses: &[ReuseAnalysis],
    time_range: (u64, u64),
    region: (u64, u64),
    rows: usize,
    cols: usize,
) -> (Heatmap, Heatmap) {
    assert!(rows > 0 && cols > 0, "heatmap shape must be nonzero");
    assert_eq!(
        analyses.len(),
        trace.samples.len(),
        "one analysis per sample"
    );
    let mut acc_map = Heatmap::new(rows, cols, region, time_range);
    let mut d_mean = Heatmap::new(rows, cols, region, time_range);
    let mut d_cnt = vec![0.0f64; rows * cols];
    for (s, analysis) in trace.samples.iter().zip(analyses) {
        let mut events = analysis.events.iter().peekable();
        for (pos, a) in s.accesses.iter().enumerate() {
            let event = events.next_if(|e| e.pos as usize == pos);
            if let Some((r, c)) = acc_map.bin(a.addr.raw(), a.time) {
                let i = r * cols + c;
                acc_map.data[i] += 1.0;
                if let Some(e) = event {
                    d_mean.data[i] += e.distance as f64;
                    d_cnt[i] += 1.0;
                }
            }
        }
        debug_assert!(events.next().is_none(), "events in access order");
    }

    // Convert sums to means.
    for (d, &n) in d_mean.data.iter_mut().zip(&d_cnt) {
        if n > 0.0 {
            *d /= n;
        }
    }
    (acc_map, d_mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reuse::analyze_window;
    use memgaze_model::{Access, BlockSize, Sample, TraceMeta};

    /// Both heatmaps of `region` at cache-line reuse.
    fn region_heatmaps(
        t: &SampledTrace,
        region: (u64, u64),
        rows: usize,
        cols: usize,
    ) -> (Heatmap, Heatmap) {
        let analyses: Vec<_> = t
            .samples
            .iter()
            .map(|s| analyze_window(&s.accesses, BlockSize::CACHE_LINE))
            .collect();
        region_heatmaps_from(t, &analyses, time_range(t), region, rows, cols)
    }

    fn trace() -> SampledTrace {
        let mut t = SampledTrace::new(TraceMeta::new("t", 1000, 8192));
        let mut acc = Vec::new();
        // Phase 1 (t 0..100): hammer block at 0x1000.
        for i in 0..100u64 {
            acc.push(Access::new(0x400u64, 0x1000u64, i));
        }
        // Phase 2 (t 100..200): stream 0x2000..0x2000+100*64.
        for i in 0..100u64 {
            acc.push(Access::new(0x400u64, 0x2000 + i * 64, 100 + i));
        }
        t.push_sample(Sample::new(acc, 200)).unwrap();
        t
    }

    #[test]
    fn access_heatmap_localizes_phases() {
        let t = trace();
        let (acc, _) = region_heatmaps(&t, (0x1000, 0x4000), 4, 2);
        assert_eq!(acc.total(), 200.0);
        // Phase 1: row 0 (0x1000..0x1c00), col 0. All 100 accesses in one
        // cell.
        assert_eq!(acc.at(0, 0), 100.0);
        assert_eq!(acc.at(0, 1), 0.0);
        // Phase 2 lands in later rows, col 1.
        let col1: f64 = (0..4).map(|r| acc.at(r, 1)).sum();
        assert_eq!(col1, 100.0);
    }

    #[test]
    fn reuse_heatmap_mean_distance() {
        let t = trace();
        let (_, d) = region_heatmaps(&t, (0x1000, 0x4000), 4, 2);
        // The hammered block reuses back-to-back: mean D = 0 everywhere,
        // and streaming has no reuse → all zeros.
        assert_eq!(d.max(), 0.0);
    }

    #[test]
    fn dark_cells_measure() {
        let t = trace();
        let (acc, _) = region_heatmaps(&t, (0x1000, 0x4000), 4, 2);
        // Only one cell holds 100 accesses; at 90% of max only it counts.
        assert_eq!(acc.dark_cells(0.9), 1);
        assert!(acc.dark_cells(0.01) >= 2);
    }

    #[test]
    fn out_of_region_accesses_ignored() {
        let t = trace();
        let (acc, _) = region_heatmaps(&t, (0x1000, 0x1400), 2, 2);
        assert_eq!(acc.total(), 100.0); // streaming phase excluded
    }

    #[test]
    fn cells_divide_in_u64_while_the_product_fits_and_in_u128_past_it() {
        let by_u128 = |(lo, hi): (u64, u64), x: u64, bins: usize| {
            ((x - lo) as u128 * bins as u128 / (hi - lo) as u128).min(bins as u128 - 1) as usize
        };
        for range in [
            (0, u64::MAX),
            (7, u64::MAX - 3),
            (1 << 63, u64::MAX),
            (0, 1 << 40),
        ] {
            let last = range.1 - range.0 - 1;
            for bins in [1usize, 2, 3, 5, 16, 32, 1 << 20] {
                // The largest offset whose product with `bins` fits in
                // a `u64`, the first that does not, and the ends.
                let fits = u64::MAX / bins as u64;
                for offset in [0, 1, fits, fits.saturating_add(1), last / 2, last] {
                    let x = range.0 + offset.min(last);
                    let want = Some(by_u128(range, x, bins));
                    assert_eq!(cell(range, x, bins), want, "{range:x?} {x:#x} {bins}");
                }
            }
        }
        // A region spanning the address space: 2⁶³ · 3 overflows.
        let mut t = SampledTrace::new(TraceMeta::new("top", 1000, 8192));
        let acc = [0, 1 << 63, u64::MAX]
            .into_iter()
            .zip(0u64..)
            .map(|(addr, i)| Access::new(0x400u64, addr, i))
            .collect();
        t.push_sample(Sample::new(acc, 3)).unwrap();
        let (acc, _) = region_heatmaps(&t, (0, u64::MAX), 3, 1);
        assert_eq!([acc.at(0, 0), acc.at(1, 0), acc.at(2, 0)], [1.0; 3]);
    }

    #[test]
    fn ascii_rendering_shape() {
        let t = trace();
        let (acc, _) = region_heatmaps(&t, (0x1000, 0x4000), 3, 5);
        let s = acc.render_ascii();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.chars().count() == 5));
        assert!(s.contains('@'), "hottest cell must render dark");
    }
}
