//! The high-level analyzer: one façade over the multi-resolution analyses
//! (paper §IV–§V), producing the paper's table shapes.
//!
//! * [`Analyzer::function_table`] — data locality of hot function
//!   accesses (Tables IV and VI): `F̂`, `ΔF`, `F_str%`, `𝒜` per function.
//! * [`Analyzer::region_rows`] — spatio-temporal reuse of hot memory
//!   (Tables V, VII, IX): `D`, `Max D`, `#blocks`, `A`, `A/block` per hot
//!   region from the location zoom.
//! * [`Analyzer::interval_rows`] — data locality over time of hot access
//!   intervals (Table VIII): `F̂`, `ΔF`, `D`, `𝒜` per time interval.
//! * [`Analyzer::window_series`] / [`Analyzer::locality_series`] — the
//!   Fig. 6 and Fig. 9 series; [`Analyzer::heatmaps`] — Fig. 8.
//!
//! Every expensive artifact (ρ/κ facts, the flattened access stream,
//! per-sample reuse analyses and diagnostics, the merged [`BlockReuse`],
//! the zoom tree, code windows, and the function table) is memoized in an
//! interior-mutability [`ArtifactCache`], so rendering several tables
//! from one `Analyzer` computes each artifact exactly once. The cache is
//! keyed implicitly by `(trace, config)`: the trace is borrowed
//! immutably, and [`Analyzer::with_config`] resets the cache.

use crate::confidence::Confidence;
use crate::diagnostics::FootprintDiagnostics;
use crate::heatmap::{region_heatmaps_from, Heatmap};
use crate::histogram::{locality_vs_interval_with, LocalityPoint};
use crate::interval_tree::IntervalTree;
use crate::par;
use crate::report::{fmt_f3, fmt_pct, fmt_si, Table};
use crate::reuse::{self, BlockReuse, ReuseAnalysis};
use crate::window::{window_series_with, CodeWindows, WindowPoint};
use crate::zoom::{LocationZoom, ZoomConfig, ZoomRegion};
use memgaze_model::{
    Access, AuxAnnotations, BlockSize, DecompressionInfo, Sample, SampledTrace, SymbolTable,
};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Analyzer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Block size for footprint metrics (default: 8-byte word — a
    /// `ptwrite` payload's granularity).
    pub footprint_block: BlockSize,
    /// Block size for spatio-temporal reuse distance (default: 64-byte
    /// cache line).
    pub reuse_block: BlockSize,
    /// Location-zoom parameters.
    pub zoom: ZoomConfig,
    /// Worker threads for per-sample analysis.
    pub threads: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            footprint_block: BlockSize::WORD,
            reuse_block: BlockSize::CACHE_LINE,
            zoom: ZoomConfig::default(),
            threads: par::default_threads(),
        }
    }
}

/// One row of the hot-function locality table (Tables IV / VI).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionRow {
    /// Function name.
    pub name: String,
    /// Estimated footprint `F̂` in bytes (ρ-scaled).
    pub f_hat_bytes: f64,
    /// Footprint growth `ΔF` (blocks per decompressed access).
    pub delta_f: f64,
    /// Strided percentage of footprint (`F_str%`).
    pub f_str_pct: f64,
    /// Decompressed accesses `𝒜` attributed to the function (κ·A).
    pub accesses_decompressed: f64,
    /// Observed accesses `A`.
    pub observed: u64,
    /// Mean intra-run reuse distance.
    pub mean_d: f64,
    /// Confidence of the per-sample footprint estimate.
    pub confidence: Confidence,
}

/// One row of the hot-memory reuse table (Tables V / VII / IX).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionRow {
    /// Region address range `[lo, hi)`.
    pub range: (u64, u64),
    /// Mean spatio-temporal reuse distance `D`.
    pub reuse_d: f64,
    /// Maximum reuse distance.
    pub max_d: u64,
    /// Distinct blocks touched.
    pub blocks: u64,
    /// Observed accesses into the region.
    pub accesses: u64,
    /// Percent of total accesses.
    pub pct_of_total: f64,
    /// Attributed code (function names), hottest first.
    pub code: Vec<String>,
}

impl RegionRow {
    /// Accesses per block.
    pub fn accesses_per_block(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.accesses as f64 / self.blocks as f64
        }
    }
}

/// One row of the locality-over-time table (Table VIII).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalRow {
    /// Interval index (0-based).
    pub interval: usize,
    /// Estimated footprint `F̂` in bytes.
    pub f_hat_bytes: f64,
    /// Footprint growth.
    pub delta_f: f64,
    /// Mean intra-sample reuse distance.
    pub mean_d: f64,
    /// Decompressed accesses in the interval.
    pub accesses_decompressed: f64,
}

/// How many times each memoized artifact was actually *computed*
/// (not served from the cache). Exposed so perf tests can assert that
/// rendering every table computes each artifact exactly once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// ρ/κ decompression facts.
    pub decompression: u64,
    /// Flattened access stream.
    pub accesses: u64,
    /// Per-sample reuse analyses (at the reuse block size).
    pub sample_reuse: u64,
    /// Per-sample footprint diagnostics (at the footprint block size).
    pub sample_diags: u64,
    /// Merged trace-wide [`BlockReuse`].
    pub block_reuse: u64,
    /// Location-zoom tree.
    pub zoom: u64,
    /// Per-function code windows.
    pub code_windows: u64,
    /// Sorted function-table rows.
    pub function_rows: u64,
}

/// Interior-mutability memoization of the analyzer's artifacts.
///
/// Each slot is a `OnceLock` so a `&Analyzer` can lazily fill it; the
/// paired counters record how many times the compute closure actually
/// ran, which the throughput tests assert on.
#[derive(Default)]
struct ArtifactCache {
    decompression: OnceLock<DecompressionInfo>,
    accesses: OnceLock<Vec<Access>>,
    sample_reuse: OnceLock<Vec<ReuseAnalysis>>,
    sample_diags: OnceLock<Vec<FootprintDiagnostics>>,
    block_reuse: OnceLock<BlockReuse>,
    zoom: OnceLock<Option<ZoomRegion>>,
    code_windows: OnceLock<CodeWindows>,
    function_rows: OnceLock<Vec<FunctionRow>>,
    computes: Counters,
}

#[derive(Default)]
struct Counters {
    decompression: AtomicU64,
    accesses: AtomicU64,
    sample_reuse: AtomicU64,
    sample_diags: AtomicU64,
    block_reuse: AtomicU64,
    zoom: AtomicU64,
    code_windows: AtomicU64,
    function_rows: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// The analyzer façade.
pub struct Analyzer<'a> {
    trace: &'a SampledTrace,
    annots: &'a AuxAnnotations,
    symbols: &'a SymbolTable,
    cfg: AnalysisConfig,
    cache: ArtifactCache,
}

impl<'a> Analyzer<'a> {
    /// An analyzer with default configuration.
    pub fn new(
        trace: &'a SampledTrace,
        annots: &'a AuxAnnotations,
        symbols: &'a SymbolTable,
    ) -> Analyzer<'a> {
        Analyzer {
            trace,
            annots,
            symbols,
            cfg: AnalysisConfig::default(),
            cache: ArtifactCache::default(),
        }
    }

    /// Replace the configuration. Resets the artifact cache — cached
    /// artifacts are only valid for the `(trace, config)` pair they were
    /// computed under.
    pub fn with_config(mut self, cfg: AnalysisConfig) -> Analyzer<'a> {
        self.cfg = cfg;
        self.cache = ArtifactCache::default();
        self
    }

    /// The sampled trace under analysis.
    pub fn trace(&self) -> &SampledTrace {
        self.trace
    }

    /// The auxiliary annotation file.
    pub fn annots(&self) -> &AuxAnnotations {
        self.annots
    }

    /// Symbols of the original module.
    pub fn symbols(&self) -> &SymbolTable {
        self.symbols
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// Compute counts of the memoized artifacts so far.
    pub fn cache_stats(&self) -> CacheStats {
        let c = &self.cache.computes;
        CacheStats {
            decompression: c.decompression.load(Ordering::Relaxed),
            accesses: c.accesses.load(Ordering::Relaxed),
            sample_reuse: c.sample_reuse.load(Ordering::Relaxed),
            sample_diags: c.sample_diags.load(Ordering::Relaxed),
            block_reuse: c.block_reuse.load(Ordering::Relaxed),
            zoom: c.zoom.load(Ordering::Relaxed),
            code_windows: c.code_windows.load(Ordering::Relaxed),
            function_rows: c.function_rows.load(Ordering::Relaxed),
        }
    }

    /// ρ/κ decompression facts of the trace.
    pub fn decompression(&self) -> DecompressionInfo {
        *self.cache.decompression.get_or_init(|| {
            Counters::bump(&self.cache.computes.decompression);
            DecompressionInfo::from_trace(self.trace, self.annots)
        })
    }

    /// All sampled accesses, flattened and memoized (feeds the zoom and
    /// any custom analysis).
    pub fn all_accesses(&self) -> &[Access] {
        self.cache.accesses.get_or_init(|| {
            Counters::bump(&self.cache.computes.accesses);
            self.trace.accesses().copied().collect()
        })
    }

    /// Per-sample reuse analyses at the configured reuse block size,
    /// computed in parallel and memoized.
    pub fn sample_reuse(&self) -> &[ReuseAnalysis] {
        self.cache.sample_reuse.get_or_init(|| {
            Counters::bump(&self.cache.computes.sample_reuse);
            let rb = self.cfg.reuse_block;
            par::par_map(&self.trace.samples, self.cfg.threads, |s| {
                reuse::analyze_window(&s.accesses, rb)
            })
        })
    }

    /// Per-sample footprint diagnostics at the configured footprint
    /// block size, computed in parallel and memoized.
    pub fn sample_diagnostics(&self) -> &[FootprintDiagnostics] {
        self.cache.sample_diags.get_or_init(|| {
            Counters::bump(&self.cache.computes.sample_diags);
            let fb = self.cfg.footprint_block;
            par::par_map(&self.trace.samples, self.cfg.threads, |s| {
                FootprintDiagnostics::compute(&s.accesses, self.annots, fb)
            })
        })
    }

    /// Per-function code windows, memoized.
    pub fn code_windows(&self) -> &CodeWindows {
        self.cache.code_windows.get_or_init(|| {
            Counters::bump(&self.cache.computes.code_windows);
            CodeWindows::build(self.trace, self.symbols)
        })
    }

    /// Per-function locality rows, sorted by decompressed accesses
    /// (hottest first). Computed once per analyzer; per-function work
    /// runs in parallel.
    pub fn function_table(&self) -> &[FunctionRow] {
        self.cache.function_rows.get_or_init(|| {
            Counters::bump(&self.cache.computes.function_rows);
            let rho = self.decompression().rho();
            let cw = self.code_windows();
            let fb = self.cfg.footprint_block;
            let rb = self.cfg.reuse_block;
            let funcs: Vec<(&str, &[Access], &[usize])> = cw
                .iter_with_samples()
                .map(|(name, accesses, _runs, ends)| (name, accesses, ends))
                .collect();
            let mut rows = par::par_map(&funcs, self.cfg.threads, |&(name, accesses, ends)| {
                let diag = FootprintDiagnostics::compute(accesses, self.annots, fb);
                let r = reuse::analyze_window(accesses, rb);
                // Per-sample footprint observations for the confidence
                // interval: slice the function's accesses at the sample
                // boundaries the code windows recorded.
                let mut obs = Vec::with_capacity(ends.len());
                let mut start = 0usize;
                for &end in ends {
                    obs.push(crate::footprint::footprint(&accesses[start..end], fb) as f64);
                    start = end;
                }
                FunctionRow {
                    name: name.to_string(),
                    f_hat_bytes: rho * diag.footprint as f64 * fb.bytes() as f64,
                    delta_f: diag.delta_f(),
                    f_str_pct: diag.delta_f_str_pct(),
                    accesses_decompressed: diag.kappa * diag.observed as f64,
                    observed: diag.observed,
                    mean_d: r.mean_distance(),
                    confidence: Confidence::from_observations(&obs),
                }
            });
            rows.sort_by(|a, b| b.accesses_decompressed.total_cmp(&a.accesses_decompressed));
            rows
        })
    }

    /// Render the function table in the paper's Table IV shape.
    pub fn function_table_rendered(&self, title: &str) -> Table {
        let mut t = Table::new(title, &["Function", "F", "dF", "Fstr%", "A"]);
        for row in self.function_table() {
            t.push_row(vec![
                row.name.clone(),
                fmt_si(row.f_hat_bytes),
                fmt_f3(row.delta_f),
                fmt_pct(row.f_str_pct),
                fmt_si(row.accesses_decompressed),
            ]);
        }
        t
    }

    /// Merged per-block reuse over all samples (location analyses).
    /// Per-sample summaries are built in parallel from the cached
    /// per-sample reuse analyses, then coalesced with a single index
    /// rebuild; the merged summary is memoized.
    pub fn block_reuse(&self) -> &BlockReuse {
        self.cache.block_reuse.get_or_init(|| {
            Counters::bump(&self.cache.computes.block_reuse);
            let rb = self.cfg.reuse_block;
            let analyses = self.sample_reuse();
            let pairs: Vec<(&Sample, &ReuseAnalysis)> =
                self.trace.samples.iter().zip(analyses).collect();
            let parts = par::par_map(&pairs, self.cfg.threads, |&(s, r)| {
                BlockReuse::from_analysis(&s.accesses, rb, r)
            });
            BlockReuse::from_parts(parts)
        })
    }

    /// The location zoom tree (Fig. 5), with source-line attribution
    /// from the annotation file. Memoized; shares the cached
    /// [`Analyzer::block_reuse`] when the zoom's access block matches
    /// the reuse block (the default).
    pub fn zoom(&self) -> Option<&ZoomRegion> {
        self.cache
            .zoom
            .get_or_init(|| {
                Counters::bump(&self.cache.computes.zoom);
                let accesses = self.all_accesses();
                if accesses.is_empty() {
                    return None;
                }
                let zcfg = self.cfg.zoom;
                let run = |summary: &BlockReuse| {
                    LocationZoom::new(accesses, summary, self.symbols, zcfg)
                        .with_annotations(self.annots)
                        .run()
                };
                if zcfg.access_block == self.cfg.reuse_block {
                    run(self.block_reuse())
                } else {
                    // The zoom wants a different block granularity; build
                    // a dedicated summary at that size.
                    let parts = par::par_map(&self.trace.samples, self.cfg.threads, |s| {
                        let r = reuse::analyze_window(&s.accesses, zcfg.access_block);
                        BlockReuse::from_analysis(&s.accesses, zcfg.access_block, &r)
                    });
                    run(&BlockReuse::from_parts(parts))
                }
            })
            .as_ref()
    }

    /// Hot-memory reuse rows from the zoom's leaves, hottest first
    /// (Tables V / VII / IX).
    pub fn region_rows(&self) -> Vec<RegionRow> {
        let rb = self.cfg.reuse_block;
        let root = match self.zoom() {
            Some(r) => r,
            None => return Vec::new(),
        };
        let summary = self.block_reuse();
        let mut rows: Vec<RegionRow> = root
            .leaves()
            .into_iter()
            .map(|leaf| {
                let lo_b = leaf.lo >> rb.log2();
                let hi_b = (leaf.hi + rb.bytes() - 1) >> rb.log2();
                RegionRow {
                    range: (leaf.lo, leaf.hi),
                    reuse_d: leaf.reuse_d,
                    max_d: summary.region_max_distance(lo_b, hi_b),
                    blocks: leaf.blocks,
                    accesses: leaf.accesses,
                    pct_of_total: leaf.pct_of_total,
                    code: leaf.code.iter().map(|c| c.function.clone()).collect(),
                }
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.accesses));
        rows
    }

    /// Reuse row for one explicit address range (when the caller knows
    /// the object, e.g. Table V's named objects).
    pub fn region_row_for(&self, lo: u64, hi: u64) -> RegionRow {
        let summary = self.block_reuse();
        let rb = self.cfg.reuse_block;
        let lo_b = lo >> rb.log2();
        let hi_b = (hi + rb.bytes() - 1) >> rb.log2();
        let accesses = summary.region_accesses(lo_b, hi_b);
        let total = self.trace.observed_accesses();
        RegionRow {
            range: (lo, hi),
            reuse_d: summary.region_mean_distance(lo_b, hi_b),
            max_d: summary.region_max_distance(lo_b, hi_b),
            blocks: summary.region_blocks(lo_b, hi_b),
            accesses,
            pct_of_total: if total == 0 {
                0.0
            } else {
                100.0 * accesses as f64 / total as f64
            },
            code: Vec::new(),
        }
    }

    /// Locality over time: split the samples into `n` equal time
    /// intervals and report per-interval metrics (Table VIII). Consumes
    /// the cached per-sample diagnostics and reuse analyses, so repeat
    /// calls (and other tables) share the per-sample passes.
    pub fn interval_rows(&self, n: usize) -> Vec<IntervalRow> {
        if self.trace.samples.is_empty() || n == 0 {
            return Vec::new();
        }
        let rho = self.decompression().rho();
        let fb = self.cfg.footprint_block;
        let diags = self.sample_diagnostics();
        let reuses = self.sample_reuse();
        let per_interval = self.trace.samples.len().div_ceil(n);
        diags
            .chunks(per_interval)
            .zip(reuses.chunks(per_interval))
            .enumerate()
            .map(|(i, (dgroup, rgroup))| {
                let mut diag: Option<FootprintDiagnostics> = None;
                for d in dgroup {
                    match &mut diag {
                        Some(m) => m.merge(d),
                        None => diag = Some(*d),
                    }
                }
                let mut d_sum = 0.0;
                let mut d_n = 0u64;
                for r in rgroup {
                    if !r.events.is_empty() {
                        d_sum += r.mean_distance() * r.events.len() as f64;
                        d_n += r.events.len() as u64;
                    }
                }
                let diag = diag.unwrap_or_default();
                IntervalRow {
                    interval: i,
                    f_hat_bytes: rho * diag.footprint as f64 * fb.bytes() as f64,
                    delta_f: diag.delta_f(),
                    mean_d: if d_n == 0 { 0.0 } else { d_sum / d_n as f64 },
                    accesses_decompressed: diag.kappa * diag.observed as f64,
                }
            })
            .collect()
    }

    /// Footprint-metric histograms over power-of-2 windows (Fig. 6).
    pub fn window_series(&self, sizes: &[u64]) -> Vec<WindowPoint> {
        let info = self.decompression();
        window_series_with(
            self.trace,
            self.annots,
            self.cfg.footprint_block,
            sizes,
            &info,
            self.cfg.threads,
        )
    }

    /// Locality vs. interval size (Fig. 9).
    pub fn locality_series(&self, sizes: &[u64]) -> Vec<LocalityPoint> {
        locality_vs_interval_with(
            self.trace,
            self.annots,
            self.cfg.reuse_block,
            sizes,
            self.cfg.threads,
        )
    }

    /// Access-frequency and reuse-distance heatmaps of a region (Fig. 8).
    /// Shares the cached per-sample reuse analyses.
    pub fn heatmaps(&self, region: (u64, u64), rows: usize, cols: usize) -> (Heatmap, Heatmap) {
        region_heatmaps_from(
            self.trace,
            self.sample_reuse(),
            region,
            rows,
            cols,
            self.cfg.threads,
        )
    }

    /// The execution interval tree (Fig. 4).
    pub fn interval_tree(&self) -> IntervalTree {
        IntervalTree::build_par(
            self.trace,
            self.annots,
            self.symbols,
            self.cfg.footprint_block,
            self.decompression().rho(),
            self.cfg.threads,
        )
    }

    /// Working-set analysis at OS-page granularity with inter-sample
    /// reuse (paper §V-B).
    pub fn working_set(&self) -> crate::workingset::WorkingSet {
        crate::workingset::working_set(self.trace, self.annots, memgaze_model::BlockSize::OS_PAGE)
    }

    /// Undersampling detection (paper §VI-A: "One could flag regions
    /// with insufficient samples"): functions whose per-window footprint
    /// estimate has too few samples or too wide a confidence interval.
    pub fn undersampled_functions(
        &self,
        min_samples: u64,
        max_relative_ci: f64,
    ) -> Vec<(String, Confidence)> {
        self.function_table()
            .iter()
            .filter(|r| r.confidence.is_undersampled(min_samples, max_relative_ci))
            .map(|r| (r.name.clone(), r.confidence.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::{FunctionId, Ip, IpAnnot, LoadClass, Sample, TraceMeta};

    /// A trace with a hot streaming function and a cold reusing one, plus
    /// matching annotations and symbols.
    fn setup() -> (SampledTrace, AuxAnnotations, SymbolTable) {
        let mut symbols = SymbolTable::new();
        symbols.add_function("stream", Ip(0x100), Ip(0x200), "w.c");
        symbols.add_function("reuse", Ip(0x200), Ip(0x300), "w.c");
        let mut annots = AuxAnnotations::new();
        annots.insert(
            Ip(0x110),
            IpAnnot::of_class(LoadClass::Strided, FunctionId(0)),
        );
        annots.insert(
            Ip(0x210),
            IpAnnot::of_class(LoadClass::Irregular, FunctionId(1)),
        );

        let mut t = SampledTrace::new(TraceMeta::new("t", 1000, 8192));
        t.meta.total_loads = 16_000;
        for s in 0..16u64 {
            let base = s * 1000;
            let mut acc = Vec::new();
            for i in 0..96u64 {
                // Streaming: fresh 8-byte word each access at 1 MiB.
                acc.push(Access::new(
                    Ip(0x110),
                    (1u64 << 20) + (s * 96 + i) * 8,
                    base + i,
                ));
            }
            for i in 96..128u64 {
                // Reusing: cycle 4 blocks at 16 MiB.
                acc.push(Access::new(
                    Ip(0x210),
                    (16u64 << 20) + (i % 4) * 64,
                    base + i,
                ));
            }
            t.push_sample(Sample::new(acc, base + 128)).unwrap();
        }
        (t, annots, symbols)
    }

    #[test]
    fn function_table_identifies_hotspot() {
        let (t, annots, symbols) = setup();
        let a = Analyzer::new(&t, &annots, &symbols);
        let rows = a.function_table();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "stream");
        // Streaming function: ΔF ≈ 1 block/access, 100% strided.
        assert!(rows[0].delta_f > 0.9, "{:?}", rows[0]);
        assert!((rows[0].f_str_pct - 100.0).abs() < 1e-9);
        // Reusing function: tiny footprint growth, 0% strided.
        assert!(rows[1].delta_f < 0.2);
        assert_eq!(rows[1].f_str_pct, 0.0);
        // F̂ scales by ρ = 16·1000/2048.
        let rho = 16_000.0 / 2048.0;
        let expect = rho * (16.0 * 96.0) * 8.0; // all distinct words × 8 B
        assert!((rows[0].f_hat_bytes - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn rendered_table_shape() {
        let (t, annots, symbols) = setup();
        let a = Analyzer::new(&t, &annots, &symbols);
        let table = a.function_table_rendered("demo");
        let s = table.render();
        assert!(s.contains("stream"));
        assert!(s.contains("reuse"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn region_rows_find_two_objects() {
        let (t, annots, symbols) = setup();
        let a = Analyzer::new(&t, &annots, &symbols);
        let rows = a.region_rows();
        assert!(!rows.is_empty());
        // The hottest region is the streamed 1-MiB object, attributed to
        // "stream".
        assert!(rows[0].range.0 < (2 << 20));
        assert!(rows[0].code.contains(&"stream".to_string()));
        // Reusing object: few blocks, many accesses per block.
        let reuse_row = a.region_row_for(16 << 20, (16 << 20) + 4 * 64);
        assert_eq!(reuse_row.blocks, 4);
        assert!(reuse_row.accesses_per_block() > 50.0);
        assert!(reuse_row.reuse_d <= 4.0);
        assert!(reuse_row.max_d <= 4);
    }

    #[test]
    fn interval_rows_cover_all_samples() {
        let (t, annots, symbols) = setup();
        let a = Analyzer::new(&t, &annots, &symbols);
        let rows = a.interval_rows(8);
        assert_eq!(rows.len(), 8);
        let total_acc: f64 = rows.iter().map(|r| r.accesses_decompressed).sum();
        assert!((total_acc - 16.0 * 128.0).abs() < 1e-6);
        // Streaming dominates footprint: every interval's ΔF is similar.
        for r in &rows {
            assert!(r.delta_f > 0.5 && r.delta_f <= 1.0, "{r:?}");
        }
    }

    #[test]
    fn series_and_tree_available() {
        let (t, annots, symbols) = setup();
        let a = Analyzer::new(&t, &annots, &symbols);
        assert!(!a.window_series(&[16, 64]).is_empty());
        assert!(!a.locality_series(&[16, 64]).is_empty());
        let tree = a.interval_tree();
        assert_eq!(tree.sample_nodes().len(), 16);
        let (acc, _d) = a.heatmaps((1 << 20, (1 << 20) + 16 * 96 * 8), 8, 8);
        assert_eq!(acc.total(), 16.0 * 96.0);
    }

    #[test]
    fn undersampling_flags_rare_functions() {
        let (t, annots, symbols) = setup();
        let a = Analyzer::new(&t, &annots, &symbols);
        // With a strict CI requirement everything is flagged; with a lax
        // one, the stable streaming/reuse functions pass.
        let strict = a.undersampled_functions(1_000_000, 0.0);
        assert_eq!(strict.len(), 2, "all functions flagged under strict bounds");
        let lax = a.undersampled_functions(2, 0.5);
        assert!(
            lax.len() < 2,
            "stable metrics should pass lax bounds: {lax:?}"
        );
    }

    #[test]
    fn empty_trace_degenerates_gracefully() {
        let t = SampledTrace::new(TraceMeta::new("t", 1000, 8192));
        let annots = AuxAnnotations::new();
        let symbols = SymbolTable::new();
        let a = Analyzer::new(&t, &annots, &symbols);
        assert!(a.function_table().is_empty());
        assert!(a.region_rows().is_empty());
        assert!(a.interval_rows(4).is_empty());
        assert!(a.zoom().is_none());
    }

    #[test]
    fn report_path_computes_each_artifact_once() {
        // The ISSUE's acceptance criterion: region_rows() followed by
        // region_row_for() performs exactly one block_reuse and one zoom
        // computation; the rest of the multi-table report path keeps
        // every counter at one.
        let (t, annots, symbols) = setup();
        let a = Analyzer::new(&t, &annots, &symbols);
        let rows = a.region_rows();
        assert!(!rows.is_empty());
        let _row = a.region_row_for(16 << 20, (16 << 20) + 4 * 64);
        let stats = a.cache_stats();
        assert_eq!(stats.block_reuse, 1, "{stats:?}");
        assert_eq!(stats.zoom, 1, "{stats:?}");
        assert_eq!(stats.sample_reuse, 1, "{stats:?}");

        // Pile on the rest of the report; artifacts must not recompute.
        let _ = a.function_table();
        let _ = a.function_table_rendered("again");
        let _ = a.interval_rows(8);
        let _ = a.interval_rows(4);
        let _ = a.region_rows();
        let _ = a.heatmaps((1 << 20, 2 << 20), 4, 4);
        let _ = a.window_series(&[16, 64]);
        let stats = a.cache_stats();
        assert_eq!(stats.block_reuse, 1, "{stats:?}");
        assert_eq!(stats.zoom, 1, "{stats:?}");
        assert_eq!(stats.sample_reuse, 1, "{stats:?}");
        assert_eq!(stats.sample_diags, 1, "{stats:?}");
        assert_eq!(stats.decompression, 1, "{stats:?}");
        assert_eq!(stats.code_windows, 1, "{stats:?}");
        assert_eq!(stats.function_rows, 1, "{stats:?}");
    }

    #[test]
    fn with_config_resets_cache() {
        let (t, annots, symbols) = setup();
        let a = Analyzer::new(&t, &annots, &symbols);
        let _ = a.block_reuse();
        assert_eq!(a.cache_stats().block_reuse, 1);
        let a = a.with_config(AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::default()
        });
        assert_eq!(a.cache_stats().block_reuse, 0, "cache must reset");
        let _ = a.block_reuse();
        assert_eq!(a.cache_stats().block_reuse, 1);
    }

    #[test]
    fn cached_results_match_fresh_analyzer() {
        let (t, annots, symbols) = setup();
        let cached = Analyzer::new(&t, &annots, &symbols);
        // Warm every artifact, then ask again.
        let first_regions = cached.region_rows();
        let first_functions = cached.function_table().to_vec();
        let fresh = Analyzer::new(&t, &annots, &symbols);
        assert_eq!(first_regions, fresh.region_rows());
        assert_eq!(first_functions, fresh.function_table());
        assert_eq!(cached.region_rows(), fresh.region_rows());
        assert_eq!(cached.interval_rows(8), fresh.interval_rows(8));
        assert_eq!(cached.block_reuse(), fresh.block_reuse());
        assert_eq!(cached.zoom(), fresh.zoom());
    }
}
