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
//! The analyzer computes no report of its own: it feeds `trace.samples`
//! to the streaming fold ([`crate::StreamingAnalyzer`]) once and reads
//! the [`StreamingReport`] back, so the resident tables are the tables
//! `store`, `serve` and `watch` produce. The same fold keeps each
//! sample's reuse *event list* off its own reuse pass, so the resident
//! path runs one reuse pass per sample: the heatmaps and the histogram
//! bin those lists, and the locality series splits them. What the
//! analyzer adds is what needs the resident trace — the location zoom,
//! the heatmaps, the window and locality series, the interval tree, the
//! working set — and three memo slots for what a multi-table report
//! re-reads: the report with the event lists, the zoom, and the time
//! range every heatmap's columns cut. The slots are keyed implicitly by
//! `(trace, config)`: the trace is borrowed immutably, and
//! [`Analyzer::with_config`] empties them.

use crate::confidence::Confidence;
use crate::heatmap::{self, region_heatmaps_from, Heatmap};
use crate::histogram::{locality_series_from, LocalityPoint};
use crate::interval_tree::IntervalTree;
use crate::report::{fmt_f3, fmt_pct, fmt_si, Table};
use crate::reuse::{BlockReuse, ReuseAnalysis};
use crate::streaming::{stream_resident_trace_keeping_events, StreamingReport};
use crate::window::{window_series_with, WindowPoint};
use crate::zoom::{zoom_trace_with, ZoomConfig, ZoomRegion};
use memgaze_model::{AuxAnnotations, BlockSize, DecompressionInfo, SampledTrace, SymbolTable};
use serde::{Deserialize, Serialize};
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
    /// Ignored; kept until `benchmark/` thaws, which sets it (ROADMAP,
    /// "Thaw the benchmark once (a)"). Every pass runs on the calling
    /// thread.
    pub threads: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            footprint_block: BlockSize::WORD,
            reuse_block: BlockSize::CACHE_LINE,
            zoom: ZoomConfig::default(),
            threads: 1,
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

/// Which memoized artifacts exist so far: each field is 1 when the slot
/// its artifact lives in is filled and 0 when it is empty. A slot is a
/// `OnceLock`, which cannot compute twice, so occupancy is the compute
/// count. The eight fields date from an analyzer with eight slots and
/// stay because `benchmark/` sums them (ROADMAP, "Thaw the benchmark
/// once (a)"); two slots hold these artifacts now — the report with the
/// event lists, and the zoom — beside the heatmaps' time range.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// ρ/κ decompression facts — the report slot.
    pub decompression: u64,
    /// The zoom's attribution pass over the accesses, in place — the
    /// zoom slot.
    pub accesses: u64,
    /// Per-sample reuse analyses (at the reuse block size), kept by the
    /// fold — the report slot.
    pub sample_reuse: u64,
    /// Per-sample footprint diagnostics — the report slot.
    pub sample_diags: u64,
    /// Merged trace-wide [`BlockReuse`] — the report slot.
    pub block_reuse: u64,
    /// Location-zoom tree — the zoom slot.
    pub zoom: u64,
    /// Always 0: nothing builds code windows for a report.
    pub code_windows: u64,
    /// Sorted function-table rows — the report slot.
    pub function_rows: u64,
}

/// Samples per shard the resident pass feeds the fold. Any value gives
/// the same report; this one keeps the fold's per-shard buffers (the
/// resolved column, the samples' kernel rows) small beside the trace
/// and its per-shard block-summary sort few.
const RESIDENT_SHARD_SAMPLES: usize = 64;

/// The analyzer façade.
pub struct Analyzer<'a> {
    trace: &'a SampledTrace,
    annots: &'a AuxAnnotations,
    symbols: &'a SymbolTable,
    cfg: AnalysisConfig,
    /// The fold's report, re-read by the function table, `region_rows`,
    /// every `region_row_for` and `interval_rows`; and the per-sample
    /// reuse event lists its reuse pass kept, re-read by every heatmap,
    /// the histogram and the locality series.
    fold: OnceLock<(StreamingReport, Vec<ReuseAnalysis>)>,
    /// The zoom tree: re-read by every `region_rows`.
    zoom: OnceLock<Option<ZoomRegion>>,
    /// The trace's time range, a full pass to find: re-read by every
    /// heatmap.
    time_range: OnceLock<(u64, u64)>,
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
            fold: OnceLock::new(),
            zoom: OnceLock::new(),
            time_range: OnceLock::new(),
        }
    }

    /// Replace the configuration. Empties the memo slots — an artifact
    /// is only valid for the `(trace, config)` pair it was computed
    /// under.
    pub fn with_config(self, cfg: AnalysisConfig) -> Analyzer<'a> {
        Analyzer {
            cfg,
            ..Analyzer::new(self.trace, self.annots, self.symbols)
        }
    }

    /// The sampled trace under analysis.
    pub fn trace(&self) -> &SampledTrace {
        self.trace
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// Occupancy of the memo slots so far.
    pub fn cache_stats(&self) -> CacheStats {
        let report = u64::from(self.fold.get().is_some());
        let zoom = u64::from(self.zoom.get().is_some());
        CacheStats {
            decompression: report,
            accesses: zoom,
            sample_reuse: report,
            sample_diags: report,
            block_reuse: report,
            zoom,
            code_windows: 0,
            function_rows: report,
        }
    }

    /// The streaming fold over the whole trace, memoized: its report and
    /// the event lists of its reuse pass.
    fn fold(&self) -> &(StreamingReport, Vec<ReuseAnalysis>) {
        self.fold.get_or_init(|| {
            stream_resident_trace_keeping_events(
                self.trace,
                self.annots,
                self.symbols,
                self.cfg,
                RESIDENT_SHARD_SAMPLES,
            )
        })
    }

    /// The streaming fold's report over the whole trace, memoized.
    fn report(&self) -> &StreamingReport {
        &self.fold().0
    }

    /// ρ/κ decompression facts of the trace: the report's once a table
    /// has been asked for, the model's one-pass definition (which the
    /// spec holds the report's copy equal to) for callers that never ask
    /// for one.
    pub fn decompression(&self) -> DecompressionInfo {
        match self.fold.get() {
            Some((report, _)) => report.decompression,
            None => DecompressionInfo::from_trace(self.trace, self.annots),
        }
    }

    /// Per-sample reuse analyses — the event lists heatmaps and the
    /// histogram bin and the locality series splits — at the configured
    /// reuse block size: what `reuse::analyze_window` gives per sample,
    /// kept by the fold's reuse pass, so they fill with the report.
    pub fn sample_reuse(&self) -> &[ReuseAnalysis] {
        &self.fold().1
    }

    /// Per-function locality rows, sorted by decompressed accesses
    /// (hottest first).
    pub fn function_table(&self) -> &[FunctionRow] {
        &self.report().function_rows
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
    pub fn block_reuse(&self) -> &BlockReuse {
        &self.report().block_reuse
    }

    /// The location zoom tree (Fig. 5), with source-line attribution
    /// from the annotation file. Memoized; runs on the report's
    /// [`Analyzer::block_reuse`] when the zoom's access block matches
    /// the reuse block (the default).
    pub fn zoom(&self) -> Option<&ZoomRegion> {
        self.zoom
            .get_or_init(|| {
                let zcfg = self.cfg.zoom;
                let dedicated;
                let summary = if zcfg.access_block == self.cfg.reuse_block {
                    self.block_reuse()
                } else {
                    dedicated = BlockReuse::from_samples(&self.trace.samples, zcfg.access_block);
                    &dedicated
                };
                zoom_trace_with(self.trace, summary, self.symbols, Some(self.annots), zcfg)
            })
            .as_ref()
    }

    /// Hot-memory reuse rows from the zoom's leaves, hottest first
    /// (Tables V / VII / IX).
    pub fn region_rows(&self) -> Vec<RegionRow> {
        let root = match self.zoom() {
            Some(r) => r,
            None => return Vec::new(),
        };
        let summary = self.block_reuse();
        let mut rows: Vec<RegionRow> = root
            .leaves()
            .into_iter()
            .map(|leaf| {
                let (lo_b, hi_b) = self.cfg.reuse_block.block_range(leaf.lo, leaf.hi);
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
        self.report().region_row_for(lo, hi)
    }

    /// Locality over time: split the samples into `n` equal time
    /// intervals and report per-interval metrics (Table VIII).
    pub fn interval_rows(&self, n: usize) -> Vec<IntervalRow> {
        self.report().interval_rows(n)
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
        )
    }

    /// Locality vs. interval size (Fig. 9), split out of the fold's
    /// event lists; equal to `locality_vs_interval_with` bit for bit.
    pub fn locality_series(&self, sizes: &[u64]) -> Vec<LocalityPoint> {
        locality_series_from(self.trace, self.annots, self.sample_reuse(), sizes)
    }

    /// Access-frequency and reuse-distance heatmaps of a region (Fig. 8).
    /// Shares the cached per-sample reuse analyses and the trace's time
    /// range.
    pub fn heatmaps(&self, region: (u64, u64), rows: usize, cols: usize) -> (Heatmap, Heatmap) {
        region_heatmaps_from(
            self.trace,
            self.sample_reuse(),
            *self
                .time_range
                .get_or_init(|| heatmap::time_range(self.trace)),
            region,
            rows,
            cols,
        )
    }

    /// The execution interval tree (Fig. 4).
    pub fn interval_tree(&self) -> IntervalTree {
        IntervalTree::build(
            self.trace,
            self.annots,
            self.symbols,
            self.cfg.footprint_block,
            self.decompression().rho(),
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
    #[cfg_attr(
        not(test),
        expect(
            dead_code,
            reason = "ROADMAP: the error bars flag undersampled functions"
        )
    )]
    pub(crate) fn undersampled_functions(
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
    use memgaze_model::{Access, FunctionId, Ip, IpAnnot, LoadClass, Sample, TraceMeta};

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
    fn report_path_fills_each_slot_once() {
        let (t, annots, symbols) = setup();
        let a = Analyzer::new(&t, &annots, &symbols);
        assert_eq!(a.cache_stats(), CacheStats::default());
        // Series and the tree need ρ/κ but no table: no slot fills.
        let _ = a.window_series(&[16, 64]);
        let _ = a.interval_tree();
        assert_eq!(a.cache_stats(), CacheStats::default());

        // region_rows() then region_row_for(): the report and the zoom.
        // The event lists are the fold's, so they fill with the report.
        let rows = a.region_rows();
        assert!(!rows.is_empty());
        let _row = a.region_row_for(16 << 20, (16 << 20) + 4 * 64);
        let report_and_zoom = CacheStats {
            decompression: 1,
            accesses: 1,
            sample_reuse: 1,
            sample_diags: 1,
            block_reuse: 1,
            zoom: 1,
            code_windows: 0,
            function_rows: 1,
        };
        assert_eq!(a.cache_stats(), report_and_zoom);

        // Pile on the rest of the report: the heatmaps, the histogram and
        // the locality series read the lists already there, and nothing
        // ever builds code windows.
        let _ = a.function_table();
        let _ = a.function_table_rendered("again");
        let _ = a.interval_rows(8);
        let _ = a.interval_rows(4);
        let _ = a.region_rows();
        let _ = a.heatmaps((1 << 20, 2 << 20), 4, 4);
        let _ = a.heatmaps((1 << 20, 2 << 20), 8, 8);
        let _ = crate::reuse_histogram_from(a.sample_reuse());
        let _ = a.locality_series(&[16, 64]);
        assert_eq!(a.cache_stats(), report_and_zoom);
        // The report's ρ/κ facts are the model's one-pass definition.
        assert_eq!(
            a.decompression(),
            DecompressionInfo::from_trace(&t, &annots)
        );
    }

    #[test]
    fn with_config_empties_the_slots() {
        let (t, annots, symbols) = setup();
        let a = Analyzer::new(&t, &annots, &symbols);
        // The event lists alone fill the report slot they share.
        let _ = a.sample_reuse();
        assert_eq!(a.cache_stats().block_reuse, 1);
        let _ = a.region_rows();
        assert_eq!(a.cache_stats().zoom, 1);
        let a = a.with_config(AnalysisConfig {
            reuse_block: BlockSize::OS_PAGE,
            ..AnalysisConfig::default()
        });
        assert_eq!(a.cache_stats(), CacheStats::default(), "slots must empty");
        // … and refill under the new configuration: 4 lines of one page.
        assert_eq!(a.region_row_for(16 << 20, (16 << 20) + 4 * 64).blocks, 1);
        assert_eq!(a.cache_stats().block_reuse, 1);
        assert_eq!(a.cache_stats().sample_reuse, 1);
    }

    /// `setup`'s two functions over samples of 1 to 300 accesses, each
    /// load a proxy for Constant ones (2 per Strided access, 1 per
    /// Irregular one), so every interval's κ reads the implied prefix.
    fn setup_with_constants() -> (SampledTrace, AuxAnnotations, SymbolTable) {
        let (_, _, symbols) = setup();
        let mut annots = AuxAnnotations::new();
        for (ip, class, f, implied) in [
            (0x110, LoadClass::Strided, 0, 2),
            (0x210, LoadClass::Irregular, 1, 1),
        ] {
            let mut an = IpAnnot::of_class(class, FunctionId(f));
            an.implied_const = implied;
            annots.insert(Ip(ip), an);
        }
        let lens = [1u64, 40, 64, 65, 128, 300];
        let mut t = SampledTrace::new(TraceMeta::new("c", 1000, 8192));
        t.meta.total_loads = 1000 * lens.len() as u64;
        for (s, &len) in (0u64..).zip(&lens) {
            let base = s * 1000;
            let acc = (0..len).map(|i| match i % 3 {
                0 => Access::new(Ip(0x210), (16u64 << 20) + (i % 5) * 64, base + i),
                _ => Access::new(Ip(0x110), (1u64 << 20) + (s * 300 + i) * 8, base + i),
            });
            t.push_sample(Sample::new(acc.collect(), base + len))
                .unwrap();
        }
        (t, annots, symbols)
    }

    /// The default configuration, then whole pages as the reuse block.
    fn both_reuse_blocks() -> [AnalysisConfig; 2] {
        [
            AnalysisConfig::default(),
            AnalysisConfig {
                reuse_block: BlockSize::OS_PAGE,
                ..AnalysisConfig::default()
            },
        ]
    }

    #[test]
    fn locality_series_splits_the_folds_lists_bit_for_bit() {
        let (t, annots, symbols) = setup_with_constants();
        // 400 is longer than every sample, yet the 300-access one holds
        // one interval of it (a tail of at least half counts); no sample
        // holds one of 10 000.
        let sizes = [1, 7, 64, 65, 400, 10_000];
        let bits = |points: &[LocalityPoint]| -> Vec<[u64; 5]> {
            (points.iter())
                .map(|p| {
                    let [d, g, f] = [p.mean_d, p.mean_delta_f, p.mean_f].map(f64::to_bits);
                    [p.interval, p.windows, d, g, f]
                })
                .collect()
        };
        for cfg in both_reuse_blocks() {
            let a = Analyzer::new(&t, &annots, &symbols).with_config(cfg);
            let want = crate::locality_vs_interval_with(&t, &annots, cfg.reuse_block, &sizes, 1);
            assert_eq!(want.len(), 5, "{want:?}");
            assert!(want.iter().any(|p| p.mean_d > 0.0), "{want:?}");
            assert_eq!(bits(&a.locality_series(&sizes)), bits(&want), "{cfg:?}");
            // Asked again, off the same kept lists.
            assert_eq!(bits(&a.locality_series(&sizes)), bits(&want), "{cfg:?}");
        }
    }

    #[test]
    fn sample_reuse_is_analyze_window_per_sample() {
        let (t, annots, symbols) = setup_with_constants();
        for cfg in both_reuse_blocks() {
            let want: Vec<ReuseAnalysis> = (t.samples.iter())
                .map(|s| crate::analyze_window(&s.accesses, cfg.reuse_block))
                .collect();
            // Before any table, then after one.
            let first = Analyzer::new(&t, &annots, &symbols).with_config(cfg);
            assert_eq!(first.sample_reuse(), &want[..], "{cfg:?}");
            assert!(!first.function_table().is_empty());
            assert_eq!(first.sample_reuse(), &want[..], "{cfg:?}");
            let after = Analyzer::new(&t, &annots, &symbols).with_config(cfg);
            assert!(!after.function_table().is_empty());
            assert_eq!(after.sample_reuse(), &want[..], "{cfg:?}");
        }
    }

    #[test]
    fn zoom_at_its_own_block_size_builds_a_dedicated_summary() {
        // reuse_block ≠ zoom.access_block: the zoom's D and #blocks are
        // at cache-line granularity whatever the report's summary is.
        let (t, annots, symbols) = setup();
        let lines = Analyzer::new(&t, &annots, &symbols);
        let pages = Analyzer::new(&t, &annots, &symbols).with_config(AnalysisConfig {
            reuse_block: BlockSize::OS_PAGE,
            ..AnalysisConfig::default()
        });
        assert_eq!(lines.zoom(), pages.zoom());
        assert_ne!(lines.block_reuse(), pages.block_reuse());
    }

    #[test]
    fn region_at_the_top_of_the_address_space_keeps_its_access() {
        // `(hi + block − 1) >> log2` overflowed here: a panic in debug
        // builds, an empty block range (0 accesses) in release.
        let mut t = SampledTrace::new(TraceMeta::new("top", 1000, 8192));
        t.meta.total_loads = 1000;
        t.push_sample(Sample::new(
            vec![Access::new(Ip(0x110), u64::MAX - 7, 0)],
            1,
        ))
        .unwrap();
        let (annots, symbols) = (AuxAnnotations::new(), SymbolTable::new());
        let a = Analyzer::new(&t, &annots, &symbols);
        let row = a.region_row_for(0, u64::MAX);
        assert_eq!((row.accesses, row.blocks), (1, 1));
        assert_eq!(row.pct_of_total, 100.0);
        // The zoom describes the same region through the same helper.
        let rows = a.region_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].accesses, rows[0].blocks), (1, 1));
        // An empty or reversed range holds nothing.
        assert_eq!(a.region_row_for(u64::MAX, u64::MAX).accesses, 0);
        assert_eq!(a.region_row_for(u64::MAX, 0).accesses, 0);
    }

    #[test]
    fn last_address_and_last_tick_are_kept() {
        // `max + 1` overflowed on both axes: a panic in debug builds; in
        // release a zoom root of `(u64::MAX − 7, 0)` with no block, and
        // a heatmap whose last column dropped the last access.
        let mut t = SampledTrace::new(TraceMeta::new("top", 1000, 8192));
        t.meta.total_loads = 1000;
        let accesses = vec![
            Access::new(Ip(0x110), u64::MAX - 7, 0),
            Access::new(Ip(0x110), u64::MAX, u64::MAX),
        ];
        t.push_sample(Sample::new(accesses, u64::MAX)).unwrap();
        let (annots, symbols) = (AuxAnnotations::new(), SymbolTable::new());
        let a = Analyzer::new(&t, &annots, &symbols);
        let root = a.zoom().expect("two accesses");
        assert_eq!((root.lo, root.hi), (u64::MAX - 7, u64::MAX));
        assert_eq!((root.accesses, root.blocks), (2, 1));
        assert_eq!(root.code[0].accesses, 2);
        let rows = a.region_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].range, rows[0].accesses), ((root.lo, root.hi), 2));
        // The last tick falls in the last column.
        let (acc, _) = a.heatmaps(rows[0].range, 2, 4);
        assert_eq!(acc.total(), 2.0);
        assert_eq!(acc.at(1, 3), 1.0);
    }

    #[test]
    fn memoized_results_match_fresh_analyzer() {
        let (t, annots, symbols) = setup();
        let cached = Analyzer::new(&t, &annots, &symbols);
        // Warm every slot, then ask again.
        let first_regions = cached.region_rows();
        let first_events = cached.sample_reuse().to_vec();
        let fresh = Analyzer::new(&t, &annots, &symbols);
        assert_eq!(first_regions, fresh.region_rows());
        assert_eq!(cached.region_rows(), fresh.region_rows());
        assert_eq!(first_events, fresh.sample_reuse());
        assert_eq!(cached.zoom(), fresh.zoom());
    }
}
