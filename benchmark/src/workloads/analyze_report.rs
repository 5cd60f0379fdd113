//! `analyze_report`: the resident, multi-table report. A round builds a
//! fresh `Analyzer` per trace and drills everything the CLI and the
//! case-study tables ask of it — many tables off one trace, the path
//! the memoizing `ArtifactCache` exists for. ROADMAP keeps that cache
//! only if this path is shown to need it; `analysis.cache_computes` and
//! this workload's `round_s` are that evidence.

use super::analyze_stream::check_against_resident;
use super::{digest_of, RoundOutcome, Workload};
use crate::inputs::{self, Container, Scale, LOCALITY_SIZES};
use crate::metrics::Metrics;
use crate::render;
use crate::span::{Layer, Recorder};
use crate::timing::median;
use memgaze_analysis::{reuse_histogram_from, Analyzer, CacheStats};
use memgaze_model::SampledTrace;

/// Window sizes of the footprint series (Fig. 6's axis, shortened).
const WINDOW_SIZES: [u64; 3] = [16, 64, 256];
/// Heatmap shape (Fig. 8).
const HEATMAP: (usize, usize) = (16, 32);

pub struct AnalyzeReport {
    traces: Vec<(SampledTrace, Container)>,
    /// Per trace, the digest the streaming path gave for the same rows.
    refs: Vec<u64>,
    /// Compute counters of the last round's analyzers.
    last: Vec<CacheStats>,
}

/// The full report off one fresh analyzer. Returns the digest of the
/// rows the streaming path also produces, and the compute counters.
fn report(trace: &SampledTrace, c: &Container, rec: &mut Recorder) -> (u64, CacheStats) {
    let a = Analyzer::new(trace, &c.annots, &c.symbols);
    let functions = rec.span(Layer::Analysis, "function_table", |_| a.function_table());
    let regions = rec.span(Layer::Analysis, "region_rows", |_| {
        let mut rows = a.region_rows();
        let explicit: Vec<_> = rows
            .iter()
            .map(|r| a.region_row_for(r.range.0, r.range.1))
            .collect();
        rows.extend(explicit);
        rows
    });
    let intervals = rec.span(Layer::Analysis, "interval_rows", |_| a.interval_rows(8));
    let maps = rec.span(Layer::Analysis, "heatmaps", |_| {
        regions
            .iter()
            .take(regions.len() / 2)
            .map(|r| a.heatmaps(r.range, HEATMAP.0, HEATMAP.1))
            .collect::<Vec<_>>()
    });
    let histogram = rec.span(Layer::Analysis, "histogram", |_| {
        reuse_histogram_from(a.sample_reuse())
    });
    let (windows, locality) = rec.span(Layer::Analysis, "series", |_| {
        (
            a.window_series(&WINDOW_SIZES),
            a.locality_series(&LOCALITY_SIZES),
        )
    });
    rec.span(Layer::Analysis, "render", |_| {
        std::hint::black_box((
            render::function_table(functions),
            render::region_table(&regions),
            render::interval_table(&intervals),
            render::heatmaps(&maps),
            render::histogram_table(&histogram),
            render::window_table(&windows),
            render::locality_table(&locality),
        ));
    });
    (digest_of(&(functions, &intervals)), a.cache_stats())
}

impl AnalyzeReport {
    pub fn setup(seed: u64, scale: Scale) -> Result<AnalyzeReport, String> {
        let traces = inputs::dense_traces(seed, &scale.sizes());
        let refs = traces
            .iter()
            .map(|(trace, c)| check_against_resident(trace, c))
            .collect::<Result<_, _>>()?;
        Ok(AnalyzeReport {
            traces,
            refs,
            last: Vec::new(),
        })
    }
}

impl Workload for AnalyzeReport {
    fn round(&mut self, rec: &mut Recorder) -> RoundOutcome {
        let mut out = RoundOutcome::default();
        self.last.clear();
        for ((trace, c), want) in self.traces.iter().zip(&self.refs) {
            let (digest, stats) = out.op(|| report(trace, c, rec));
            out.verify(digest == *want);
            self.last.push(stats);
        }
        out
    }

    fn loads_per_round(&self) -> u64 {
        self.traces.iter().map(|(_, c)| c.loads).sum()
    }

    fn trace_bytes_per_round(&self) -> u64 {
        self.traces.iter().map(|(_, c)| c.bytes.len() as u64).sum()
    }

    fn digest(&self) -> u64 {
        digest_of(&self.refs)
    }

    fn layer_metrics(&self, rec: &Recorder, m: &mut Metrics) {
        for (metric, span) in [
            ("analysis.first_table_s", "function_table"),
            ("analysis.region_rows_s", "region_rows"),
            ("analysis.interval_rows_s", "interval_rows"),
            ("analysis.heatmap_s", "heatmaps"),
            ("analysis.histogram_s", "histogram"),
            ("analysis.series_s", "series"),
            ("analysis.render_s", "render"),
        ] {
            m.set(metric, median(&rec.per_round(span)));
        }
        // Eight memoized artifacts per analyzer; 1.0 means each was
        // computed once however many tables asked for it.
        let computes: u64 = self
            .last
            .iter()
            .map(|s| {
                s.decompression
                    + s.accesses
                    + s.sample_reuse
                    + s.sample_diags
                    + s.block_reuse
                    + s.zoom
                    + s.code_windows
                    + s.function_rows
            })
            .sum();
        m.set(
            "analysis.cache_computes",
            computes as f64 / (8 * self.last.len().max(1)) as f64,
        );
    }
}
