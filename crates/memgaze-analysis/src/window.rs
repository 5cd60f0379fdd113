//! Trace windows and code windows (paper §IV-B, §VI-A).
//!
//! *Trace windows* chop the sampled access stream into fixed-size
//! (power-of-2) windows and report metric histograms over window size —
//! the Fig. 6 validation series. Windows smaller than a sample are exact
//! intra-sample chunks; larger windows aggregate consecutive samples and
//! scale estimates by ρ (Eq. 3, inter-window case).
//!
//! *Code windows* aggregate access runs by function over many samples,
//! which "reduces blind spots and statistical error" — the second Fig. 6
//! series. [`CodeWindows`] materialises that view for callers that want
//! the accesses themselves; the per-function hot-spot table folds the
//! same grouping shard by shard without copying an access
//! ([`streaming`](crate::streaming)).

use crate::diagnostics::FootprintDiagnostics;
use crate::footprint::WindowKind;
use crate::kernel::{self, AnnotMemo, IpResolver};
use memgaze_model::{
    Access, AuxAnnotations, BlockSize, DecompressionInfo, Sample, SampledTrace, SymbolTable,
};
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// One point of a metric-vs-window-size series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowPoint {
    /// Requested window size in decompressed accesses.
    pub target_size: u64,
    /// Mean decompressed accesses actually covered per window.
    pub effective_size: f64,
    /// Number of windows measured.
    pub windows: u64,
    /// Mean (estimated) footprint in blocks.
    pub f: f64,
    /// Mean (estimated) strided footprint.
    pub f_str: f64,
    /// Mean (estimated) irregular footprint.
    pub f_irr: f64,
    /// Mean footprint growth.
    pub delta_f: f64,
    /// Whether the windows were intra- or inter-sample.
    pub kind: WindowKind,
}

/// Power-of-two window sizes from `2^lo` to `2^hi` inclusive.
pub fn pow2_sizes(lo: u32, hi: u32) -> Vec<u64> {
    (lo..=hi).map(|k| 1u64 << k).collect()
}

/// Windows, and sums over them of `[F, F_str, F_irr, ΔF, decompressed
/// accesses]`: what a series point averages.
type Sums = (u64, [f64; 5]);

/// Add `terms` (one window's, or the sums of a run of windows) to `sums`.
fn add(sums: &mut Sums, (n, terms): Sums) {
    sums.0 += n;
    for (s, t) in sums.1.iter_mut().zip(terms) {
        *s += t;
    }
}

/// One window's terms, its footprints scaled by `scale`.
fn terms(d: &FootprintDiagnostics, scale: f64, decompressed: f64) -> Sums {
    let f = [d.footprint, d.f_str, d.f_irr].map(|f| scale * f as f64);
    (1, [f[0], f[1], f[2], d.delta_f(), decompressed])
}

/// The point of `target` from its sums; none without a window.
fn point(target: u64, (n, sum): Sums, kind: WindowKind) -> Option<WindowPoint> {
    (n > 0).then(|| WindowPoint {
        target_size: target,
        effective_size: sum[4] / n as f64,
        windows: n,
        f: sum[0] / n as f64,
        f_str: sum[1] / n as f64,
        f_irr: sum[2] / n as f64,
        delta_f: sum[3] / n as f64,
        kind,
    })
}

/// One inter-sample series point: group `k` consecutive samples, merge
/// their diagnostics, and scale footprints by ρ.
fn inter_point(
    diags: &[FootprintDiagnostics],
    target: u64,
    rho: f64,
    k: usize,
    period: u64,
) -> Option<WindowPoint> {
    let mut sums = (0, [0.0; 5]);
    for group in diags.chunks(k) {
        let mut d = group[0];
        for other in &group[1..] {
            d.merge(other);
        }
        if d.observed > 0 {
            add(
                &mut sums,
                terms(&d, rho, group.len() as f64 * period as f64),
            );
        }
    }
    point(target, sums, WindowKind::Inter)
}

/// Metric-vs-window-size series over the given decompressed window sizes.
pub fn window_series(
    trace: &SampledTrace,
    annots: &AuxAnnotations,
    bs: BlockSize,
    sizes: &[u64],
) -> Vec<WindowPoint> {
    let info = DecompressionInfo::from_trace(trace, annots);
    window_series_with(trace, annots, bs, sizes, &info)
}

/// [`window_series`] with precomputed decompression facts — the
/// analyzer passes its cached ρ/κ here so the series does not re-derive
/// them per call.
pub(crate) fn window_series_with(
    trace: &SampledTrace,
    annots: &AuxAnnotations,
    bs: BlockSize,
    sizes: &[u64],
    info: &DecompressionInfo,
) -> Vec<WindowPoint> {
    // ρ scales by the loads the samples covered; the header period is
    // only the time axis that groups samples into inter-sample windows.
    let (kappa, rho, period) = (info.kappa(), info.rho(), trace.meta.period);
    // A window fits inside a sample while its decompressed size is below
    // the mean decompressed sample window; a full trace viewed as one
    // sample (no period) keeps chunking it.
    let mean_window_decomp = trace.mean_window() * kappa;
    let intra = |target: u64| (target as f64) <= mean_window_decomp.max(1.0) || period == 0;
    let chunks: Vec<usize> = (sizes.iter().filter(|&&t| intra(t)))
        .map(|&t| ((t as f64 / kappa).round() as usize).max(1))
        .collect();
    // Intra-sample windows: every size split out of one column pass per
    // sample.
    let mut intra_sums = vec![(0, [0.0; 5]); chunks.len()];
    let sample_rows = |s: &Sample, group: &[usize]| {
        let mut memo = AnnotMemo::new(annots);
        kernel::with_workspace(|ws| {
            let len = s.accesses.len();
            ws.class_columns(s.accesses.iter().map(|a| {
                let (class, implied) = memo.get(a.ip);
                (a.addr.block(bs), class, implied)
            }));
            std::array::from_fn(|k| {
                let mut row = (0, [0.0; 5]);
                for (lo, hi) in group
                    .get(k)
                    .into_iter()
                    .flat_map(|&chunk| kernel::intervals(len, chunk))
                {
                    let counts = ws.class_counts(lo, hi);
                    let d = FootprintDiagnostics::from_counts((hi - lo) as u64, counts);
                    add(&mut row, terms(&d, 1.0, d.kappa * d.observed as f64));
                }
                row
            })
        })
    };
    kernel::rows_per_size(&trace.samples, &chunks, sample_rows, |k, row| {
        add(&mut intra_sums[k], row)
    });
    // Inter-sample windows: whole samples' diagnostics, grouped.
    let diags = OnceCell::new();
    let whole_samples = || -> Vec<FootprintDiagnostics> {
        (trace.samples.iter())
            .map(|s| FootprintDiagnostics::compute(&s.accesses, annots, bs))
            .collect()
    };
    let mut intra_sums = intra_sums.into_iter();
    sizes
        .iter()
        .filter_map(|&target| {
            if intra(target) {
                point(target, intra_sums.next()?, WindowKind::Intra)
            } else if target >= period {
                let k = ((target as f64) / period as f64).round().max(1.0) as usize;
                inter_point(diags.get_or_init(whole_samples), target, rho, k, period)
            } else {
                // The R2 blind spot (paper §IV-A): window sizes between
                // the sample window w and the period w+z cannot be
                // observed — neither a sample nor a sample group covers
                // them.
                None
            }
        })
        .collect()
}

/// One function's code window: concatenated accesses plus structure.
#[derive(Debug, Clone, Default)]
struct FuncWindow {
    name: String,
    /// The function's accesses across all samples, in time order.
    accesses: Vec<Access>,
    /// Number of contiguous access runs.
    runs: u64,
}

/// Access runs grouped by function — code windows.
#[derive(Debug, Clone, Default)]
pub struct CodeWindows {
    per_func: BTreeMap<u32, FuncWindow>,
}

impl CodeWindows {
    /// Group a trace's accesses into code windows via the symbol table.
    /// Accesses outside any known function are grouped under
    /// `"<unknown>"` with id `u32::MAX`.
    pub fn build(trace: &SampledTrace, symbols: &SymbolTable) -> CodeWindows {
        // Code windows need only the function of an ip.
        let no_annots = AuxAnnotations::new();
        let mut resolver = IpResolver::new(symbols, &no_annots);
        // Windows by resolver slot; keyed by function id at the end.
        let mut windows: Vec<(u32, FuncWindow)> = Vec::new();
        for s in &trace.samples {
            let mut prev: Option<u32> = None;
            for a in &s.accesses {
                let slot = resolver.resolve(a.ip).slot;
                if slot as usize == windows.len() {
                    let (id, name) = resolver.function(slot);
                    windows.push((
                        id,
                        FuncWindow {
                            name: name.to_string(),
                            ..FuncWindow::default()
                        },
                    ));
                }
                let entry = &mut windows[slot as usize].1;
                entry.accesses.push(*a);
                if prev != Some(slot) {
                    entry.runs += 1; // a new run begins
                }
                prev = Some(slot);
            }
        }
        CodeWindows {
            per_func: windows.into_iter().collect(),
        }
    }

    /// The accesses attributed to the named function.
    pub fn function(&self, name: &str) -> Option<&[Access]> {
        self.per_func
            .values()
            .find(|f| f.name == name)
            .map(|f| f.accesses.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::{Ip, Sample, TraceMeta};

    fn trace_with_samples(nsamples: usize, w: usize, period: u64) -> SampledTrace {
        let mut t = SampledTrace::new(TraceMeta::new("t", period, 8192));
        t.meta.total_loads = nsamples as u64 * period;
        for s in 0..nsamples {
            let base = s as u64 * period;
            let accesses = (0..w)
                .map(|i| Access::new(0x400u64, (s * w + i) as u64 * 64, base + i as u64))
                .collect();
            t.push_sample(Sample::new(accesses, base + w as u64))
                .unwrap();
        }
        t
    }

    #[test]
    fn pow2_sizes_cover_range() {
        assert_eq!(pow2_sizes(4, 7), vec![16, 32, 64, 128]);
    }

    #[test]
    fn intra_windows_of_streaming_trace_have_full_footprint() {
        // Every access in the synthetic trace touches a fresh block, so a
        // window of W accesses has footprint W and ΔF = 1.
        let t = trace_with_samples(4, 256, 10_000);
        let annots = AuxAnnotations::new();
        let pts = window_series(&t, &annots, BlockSize::CACHE_LINE, &[16, 64]);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert_eq!(p.kind, WindowKind::Intra);
            assert!((p.f - p.target_size as f64).abs() < 1e-9, "{p:?}");
            assert!((p.delta_f - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn inter_windows_scale_by_rho() {
        let t = trace_with_samples(8, 100, 10_000);
        let annots = AuxAnnotations::new();
        // ρ = 8·10000 / 800 = 100. One-sample inter window: F̂ = 100·100.
        let pts = window_series(&t, &annots, BlockSize::CACHE_LINE, &[10_000]);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].kind, WindowKind::Inter);
        assert!((pts[0].f - 10_000.0).abs() < 1e-6, "{:?}", pts[0]);
        assert_eq!(pts[0].windows, 8);
    }

    #[test]
    fn windows_partition_accesses() {
        let t = trace_with_samples(2, 128, 1000);
        let annots = AuxAnnotations::new();
        let pts = window_series(&t, &annots, BlockSize::CACHE_LINE, &[32]);
        // 2 samples × 128/32 windows each.
        assert_eq!(pts[0].windows, 8);
        assert!((pts[0].effective_size - 32.0).abs() < 1e-9);
    }

    #[test]
    fn code_windows_group_by_function() {
        let mut symbols = SymbolTable::new();
        symbols.add_function("a", Ip(0x100), Ip(0x200), "a.c");
        symbols.add_function("b", Ip(0x200), Ip(0x300), "a.c");
        let mut t = SampledTrace::new(TraceMeta::new("t", 100, 8192));
        // Runs: a a | b b | a — 3 runs, 2 functions + unknown.
        let accesses = vec![
            Access::new(Ip(0x100), 0u64, 0),
            Access::new(Ip(0x110), 64u64, 1),
            Access::new(Ip(0x210), 128u64, 2),
            Access::new(Ip(0x220), 192u64, 3),
            Access::new(Ip(0x120), 0u64, 4),
            Access::new(Ip(0x999), 999u64, 5),
        ];
        t.push_sample(Sample::new(accesses, 6)).unwrap();
        let cw = CodeWindows::build(&t, &symbols);
        assert_eq!(cw.per_func.len(), 3);
        assert_eq!(cw.function("a").unwrap().len(), 3);
        assert_eq!(cw.function("b").unwrap().len(), 2);
        assert_eq!(cw.function("<unknown>").unwrap().len(), 1);
        let a_runs = cw.per_func.values().find(|f| f.name == "a").unwrap().runs;
        assert_eq!(a_runs, 2);
    }

    #[test]
    fn empty_trace_yields_no_points() {
        let t = SampledTrace::new(TraceMeta::new("t", 100, 8192));
        let pts = window_series(&t, &AuxAnnotations::new(), BlockSize::CACHE_LINE, &[16]);
        assert!(pts.is_empty());
        assert!(CodeWindows::build(&t, &SymbolTable::new())
            .per_func
            .is_empty());
    }
}
