//! Histograms and locality-vs-interval series.
//!
//! Supports the paper's histogram plots: reuse-distance distributions,
//! and Fig. 9's "data locality of hot access intervals (intra-sample)" —
//! average locality metrics as a function of access-interval size.

use crate::kernel::{self, AnnotMemo};
use crate::reuse::ReuseAnalysis;
use memgaze_model::{AuxAnnotations, BlockSize, Sample, SampledTrace};
use serde::{Deserialize, Serialize};

/// A log₂-binned histogram of nonnegative values.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Log2Histogram {
    /// `bins[k]` counts values in `[2^(k-1), 2^k)`; `bins[0]` counts 0.
    bins: Vec<u64>,
    /// Total count.
    count: u64,
    /// Sum of raw values (for the mean). Kept as an integer so merging
    /// histograms is exactly associative regardless of shard grouping.
    sum: u64,
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Log2Histogram {
        Log2Histogram::default()
    }

    /// Insert a value.
    pub fn insert(&mut self, v: u64) {
        let bin = if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        };
        if self.bins.len() <= bin {
            self.bins.resize(bin + 1, 0);
        }
        self.bins[bin] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Fold another histogram's mass into this one (for merging
    /// per-sample partial histograms).
    pub fn merge(&mut self, other: &Log2Histogram) {
        if self.bins.len() < other.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (b, &c) in self.bins.iter_mut().zip(&other.bins) {
            *b += c;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Number of inserted values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of inserted values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw `(bins, count, sum)` for the fan-out wire codec.
    pub(crate) fn raw_parts(&self) -> (&[u64], u64, u64) {
        (&self.bins, self.count, self.sum)
    }

    /// Rebuild from raw parts (fan-out wire codec).
    pub(crate) fn from_raw_parts(bins: Vec<u64>, count: u64, sum: u64) -> Log2Histogram {
        Log2Histogram { bins, count, sum }
    }

    /// `(bin upper bound, count)` pairs for populated bins.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|&(_k, &c)| c > 0)
            .map(|(k, &c)| (if k == 0 { 0 } else { 1u64 << (k - 1) }, c))
    }

    /// Value below which `q` of the mass lies (approximate, by bin upper
    /// bound).
    pub fn quantile(&self, q: f64) -> u64 {
        let target = (self.count as f64 * q).ceil() as u64;
        let mut seen = 0;
        for (k, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if k == 0 { 0 } else { 1u64 << (k - 1) };
            }
        }
        0
    }
}

/// One point of the locality-vs-interval-size series (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalityPoint {
    /// Access-interval size in observed accesses.
    pub interval: u64,
    /// Mean spatio-temporal reuse distance D within intervals of this
    /// size.
    pub mean_d: f64,
    /// Mean footprint growth within the intervals.
    pub mean_delta_f: f64,
    /// Mean footprint within the intervals, in blocks.
    pub mean_f: f64,
    /// Intervals measured.
    pub windows: u64,
}

/// Intra-sample locality as a function of access-interval size: chop each
/// sample into intervals of each requested size and average D and ΔF.
/// Every size is split out of one reuse pass per sample — the streaming
/// analyzer's, so both agree bit for bit — and the per-sample sums fold
/// in sample order, identical for every thread count.
pub fn locality_vs_interval_with(
    trace: &SampledTrace,
    annots: &AuxAnnotations,
    reuse_block: BlockSize,
    sizes: &[u64],
    threads: usize,
) -> Vec<LocalityPoint> {
    // Per size: windows, Σ mean D, Σ ΔF, Σ F.
    let mut sums = vec![(0u64, 0.0, 0.0, 0.0); sizes.len()];
    let sample_rows = |s: &Sample, group: &[u64]| {
        let mut memo = AnnotMemo::new(annots);
        kernel::with_workspace(|ws| {
            let items = s.accesses.iter();
            ws.reuse_pass(items.map(|a| (a.addr.block(reuse_block), memo.get(a.ip).1)));
            std::array::from_fn(|k| {
                let split = |&size: &u64| ws.locality_split(size.max(1) as usize);
                group.get(k).map_or((0, 0.0, 0.0, 0.0), split)
            })
        })
    };
    let fold = |k: usize, (n, d, g, f): (u64, f64, f64, f64)| {
        let sum = &mut sums[k];
        *sum = (sum.0 + n, sum.1 + d, sum.2 + g, sum.3 + f);
    };
    kernel::rows_per_size(&trace.samples, sizes, threads, sample_rows, fold);
    (sizes.iter().zip(sums))
        .filter(|(_, (n, ..))| *n > 0)
        .map(|(&interval, (n, d, g, f))| LocalityPoint {
            interval,
            mean_d: d / n as f64,
            mean_delta_f: g / n as f64,
            mean_f: f / n as f64,
            windows: n,
        })
        .collect()
}

/// Reuse-distance histogram from precomputed per-sample analyses.
pub fn reuse_histogram_from(analyses: &[ReuseAnalysis]) -> Log2Histogram {
    let mut h = Log2Histogram::new();
    for r in analyses {
        for e in &r.events {
            h.insert(e.distance);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reuse;
    use memgaze_model::{Access, TraceMeta};

    #[test]
    fn log2_bins() {
        let mut h = Log2Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1000] {
            h.insert(v);
        }
        assert_eq!(h.count(), 8);
        let bins: Vec<(u64, u64)> = h.iter().collect();
        // 0 → bin 0; 1 → bin[1] (ub 1); 2,3 → bin[2] (ub 2); 4,7 → bin[3]
        // (ub 4); 8 → bin[4] (ub 8); 1000 → bin[10] (ub 512).
        assert_eq!(bins[0], (0, 1));
        assert_eq!(bins[1], (1, 1));
        assert_eq!(bins[2], (2, 2));
        assert_eq!(bins[3], (4, 2));
        assert_eq!(bins[4], (8, 1));
        assert_eq!(bins[5], (512, 1));
        assert!((h.mean() - 1025.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles() {
        let mut h = Log2Histogram::new();
        for v in 0..100u64 {
            h.insert(v);
        }
        assert!(h.quantile(0.5) <= 64);
        assert!(h.quantile(1.0) >= 64);
        assert_eq!(Log2Histogram::new().quantile(0.5), 0);
    }

    fn mk_trace(block_cycle: u64, w: usize) -> SampledTrace {
        let mut t = SampledTrace::new(TraceMeta::new("t", 1000, 8192));
        let accesses = (0..w)
            .map(|i| Access::new(0x400u64, (i as u64 % block_cycle) * 64, i as u64))
            .collect();
        t.push_sample(Sample::new(accesses, w as u64)).unwrap();
        t
    }

    #[test]
    fn locality_series_grows_with_interval() {
        // Cycling over 32 blocks: D within a window of ≥32 accesses is 31;
        // smaller windows see smaller distances (only first-touches).
        let t = mk_trace(32, 256);
        let annots = AuxAnnotations::new();
        let pts = locality_vs_interval_with(&t, &annots, BlockSize::CACHE_LINE, &[8, 64, 128], 1);
        assert_eq!(pts.len(), 3);
        // Interval 8 < cycle: no reuse at all.
        assert_eq!(pts[0].mean_d, 0.0);
        // Interval 64 and 128: reuse at distance 31.
        assert!((pts[1].mean_d - 31.0).abs() < 1e-9, "{:?}", pts[1]);
        assert!((pts[2].mean_d - 31.0).abs() < 1e-9);
        // ΔF falls as windows grow (same 32 blocks, more accesses).
        assert!(pts[2].mean_delta_f < pts[0].mean_delta_f);
    }

    #[test]
    fn merge_sums_bins_and_mass() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut whole = Log2Histogram::new();
        for v in [0u64, 1, 5, 9] {
            a.insert(v);
            whole.insert(v);
        }
        for v in [2u64, 1000, 3] {
            b.insert(v);
            whole.insert(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        a.merge(&Log2Histogram::new());
        assert_eq!(a, whole);
    }

    #[test]
    fn locality_series_threads_invariant() {
        let mut t = SampledTrace::new(TraceMeta::new("t", 1000, 8192));
        for s in 0..120u64 {
            let n = 8 + (s * 11) % 120;
            let acc: Vec<Access> = (0..n)
                .map(|i| Access::new(0x400u64, ((s * 17 + i * 3) % 256) * 64, s * 1000 + i))
                .collect();
            t.push_sample(Sample::new(acc, s * 1000 + n)).unwrap();
        }
        let annots = AuxAnnotations::new();
        let sizes = [8u64, 32, 64];
        let one = locality_vs_interval_with(&t, &annots, BlockSize::CACHE_LINE, &sizes, 1);
        for threads in [2, 4] {
            let many =
                locality_vs_interval_with(&t, &annots, BlockSize::CACHE_LINE, &sizes, threads);
            assert_eq!(one, many, "threads {threads}");
        }
    }

    /// One sample's `(windows, Σ mean D, Σ ΔF, Σ F)` written out as the
    /// composition the chunk split replaces: per interval, a reuse
    /// analysis and the diagnostics.
    fn locality_by_composition(
        accesses: &[Access],
        annots: &AuxAnnotations,
        bs: BlockSize,
        chunk: usize,
    ) -> (u64, f64, f64, f64) {
        let mut n = 0u64;
        let (mut sum_d, mut sum_g, mut sum_f) = (0.0, 0.0, 0.0);
        for w in accesses.chunks(chunk) {
            if w.len() < chunk.div_ceil(2) {
                continue;
            }
            let r = reuse::analyze_window_naive(w, bs);
            let d = crate::FootprintDiagnostics::compute(w, annots, bs);
            n += 1;
            sum_d += r.mean_distance();
            sum_g += d.delta_f();
            sum_f += d.footprint as f64;
        }
        (n, sum_d, sum_g, sum_f)
    }

    #[test]
    fn locality_partial_is_the_chunked_composition_bit_for_bit() {
        use memgaze_model::{FunctionId, Ip, IpAnnot, LoadClass};
        let mut annots = AuxAnnotations::new();
        for (k, class) in [
            LoadClass::Strided,
            LoadClass::Constant,
            LoadClass::Irregular,
        ]
        .into_iter()
        .enumerate()
        {
            let mut an = IpAnnot::of_class(class, FunctionId(0));
            an.implied_const = k as u32 * 2 + 1;
            annots.insert(Ip(0x400 + k as u64 * 4), an);
        }
        let bs = BlockSize::CACHE_LINE;
        let mut t = SampledTrace::new(TraceMeta::new("t", 1000, 8192));
        for (s, len) in (0u64..).zip([0u64, 1, 63, 64, 65, 500]) {
            // ips 0x400..0x410: three annotated, one not.
            let accesses: Vec<Access> = (0..len)
                .map(|i| Access::new(0x400 + (i * 5 % 4) * 4, (i * i % 89 + s) * 24, s * 1000 + i))
                .collect();
            t.push_sample(Sample::new(accesses, s * 1000 + len))
                .unwrap();
        }
        // Every size split out of one reuse pass per sample, more sizes
        // than one pass serves, against the composition per interval.
        let chunks = [1u64, 15, 16, 17, 63, 64, 65, 200, 1000];
        let want: Vec<LocalityPoint> = (chunks.iter())
            .filter_map(|&chunk| {
                let mut sum = (0u64, 0.0, 0.0, 0.0);
                for s in &t.samples {
                    let (n, d, g, f) =
                        locality_by_composition(&s.accesses, &annots, bs, chunk as usize);
                    sum = (sum.0 + n, sum.1 + d, sum.2 + g, sum.3 + f);
                }
                let (n, d, g, f) = sum;
                (n > 0).then(|| LocalityPoint {
                    interval: chunk,
                    mean_d: d / n as f64,
                    mean_delta_f: g / n as f64,
                    mean_f: f / n as f64,
                    windows: n,
                })
            })
            .collect();
        assert_eq!(locality_vs_interval_with(&t, &annots, bs, &chunks, 1), want);
    }

    #[test]
    fn reuse_histogram_of_cyclic_trace() {
        let t = mk_trace(16, 64);
        let r = reuse::analyze_window(&t.samples[0].accesses, BlockSize::CACHE_LINE);
        let h = reuse_histogram_from(&[r]);
        // 64 accesses cycling over 16 blocks → 48 reuses at distance 15.
        assert_eq!(h.count(), 48);
        assert!((h.mean() - 15.0).abs() < 1e-9);
    }
}
