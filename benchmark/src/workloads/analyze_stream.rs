//! `analyze_stream`: the `memgaze analyze` story on stored traces
//! (Table II, Analysis/1+2). A round decodes each container one shard
//! at a time into a `StreamingAnalyzer`, finishes it and renders the
//! function and interval tables. No collection happens in a round.

use super::{digest_of, ensure, RoundOutcome, Workload};
use crate::inputs::{self, Container, Scale, LOCALITY_SIZES, SHARD_SAMPLES};
use crate::metrics::Metrics;
use crate::render;
use crate::span::{Layer, Recorder};
use crate::timing::median;
use memgaze_analysis::{
    locality_vs_interval_with, reuse_histogram_from, stream_resident_trace, AnalysisConfig,
    Analyzer, IngestStats, IntervalRow, StreamingAnalyzer, StreamingReport,
};
use memgaze_core::{run_fanout, FanoutBackend, FanoutConfig};
use memgaze_model::{decode_sharded, encode_sharded, SampledTrace, ShardReader};

pub struct AnalyzeStream {
    containers: Vec<Container>,
    /// Per container, the digest of the resident analyzer's rows.
    refs: Vec<u64>,
    /// Ingest accounting of the last round, per container.
    last: Vec<IngestStats>,
}

/// Streaming report == resident `Analyzer`, field for field, and the
/// container round-trips. Returns the reference digest.
pub fn check_against_resident(trace: &SampledTrace, c: &Container) -> Result<u64, String> {
    ensure(
        matches!(decode_sharded(&c.bytes), Ok(t) if &t == trace),
        "decode_sharded(encode_sharded(t)) == t",
    )?;
    let cfg = AnalysisConfig::default();
    let resident = Analyzer::new(trace, &c.annots, &c.symbols);
    let streamed = stream_resident_trace(
        trace,
        &c.annots,
        &c.symbols,
        cfg,
        &LOCALITY_SIZES,
        SHARD_SAMPLES,
    );
    let locality = locality_vs_interval_with(
        trace,
        &c.annots,
        cfg.reuse_block,
        &LOCALITY_SIZES,
        cfg.threads,
    );
    ensure(
        streamed.decompression == resident.decompression()
            && streamed.function_rows == resident.function_table()
            && &streamed.block_reuse == resident.block_reuse()
            && streamed.reuse_histogram == reuse_histogram_from(resident.sample_reuse())
            && streamed.locality_series == locality
            && streamed.interval_rows(8) == resident.interval_rows(8),
        "streaming report == resident analyzer, field for field",
    )?;
    Ok(digest_of(&(
        resident.function_table(),
        resident.interval_rows(8),
    )))
}

/// One container through the streaming path, shard by shard.
fn analyze(
    c: &Container,
    rec: &mut Recorder,
) -> Result<(StreamingReport, Vec<IntervalRow>), String> {
    let mut reader = ShardReader::new(&c.bytes[..]).map_err(|e| e.to_string())?;
    let mut analyzer = StreamingAnalyzer::new(&c.annots, &c.symbols, AnalysisConfig::default())
        .with_locality_sizes(&LOCALITY_SIZES);
    while let Some(shard) = rec.span(Layer::Model, "read_shard", |_| reader.next()) {
        let shard = shard.map_err(|e| e.to_string())?;
        rec.span(Layer::Analysis, "ingest_shard", |_| {
            analyzer.ingest_shard(&shard.samples)
        });
    }
    let meta = reader.meta().clone();
    let report = rec.span(Layer::Analysis, "finish", |_| analyzer.finish(&meta));
    let intervals = rec.span(Layer::Analysis, "render", |_| {
        let intervals = report.interval_rows(8);
        std::hint::black_box(render::function_table(&report.function_rows));
        std::hint::black_box(render::interval_table(&intervals));
        intervals
    });
    Ok((report, intervals))
}

impl AnalyzeStream {
    pub fn setup(seed: u64, scale: Scale) -> Result<AnalyzeStream, String> {
        let mut containers = Vec::new();
        let mut refs = Vec::new();
        for (trace, c) in inputs::dense_traces(seed, &scale.sizes()) {
            refs.push(check_against_resident(&trace, &c)?);
            // The resident trace is dropped here: a round holds one
            // shard at a time, and the heap metric should say so.
            containers.push(c);
        }
        Ok(AnalyzeStream {
            containers,
            refs,
            last: Vec::new(),
        })
    }

    fn accesses(&self) -> u64 {
        self.containers.iter().map(|c| c.accesses).sum()
    }
}

impl Workload for AnalyzeStream {
    fn round(&mut self, rec: &mut Recorder) -> RoundOutcome {
        let mut out = RoundOutcome::default();
        self.last.clear();
        for (c, want) in self.containers.iter().zip(&self.refs) {
            match out.op(|| analyze(c, rec)) {
                Ok((report, intervals)) => {
                    out.verify(digest_of(&(&report.function_rows, &intervals)) == *want);
                    self.last.push(report.ingest);
                }
                Err(_) => out.verify(false),
            }
        }
        out
    }

    fn loads_per_round(&self) -> u64 {
        self.containers.iter().map(|c| c.loads).sum()
    }

    fn trace_bytes_per_round(&self) -> u64 {
        self.containers.iter().map(|c| c.bytes.len() as u64).sum()
    }

    fn digest(&self) -> u64 {
        digest_of(&self.refs)
    }

    fn probe(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let pinned = AnalysisConfig::default();
        let single = AnalysisConfig {
            threads: 1,
            ..pinned
        };
        let fanout_cfg = FanoutConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            locality_sizes: LOCALITY_SIZES.to_vec(),
            ..FanoutConfig::default()
        };
        for c in &self.containers {
            let trace = rec
                .span(Layer::Model, "decode_sharded", |_| decode_sharded(&c.bytes))
                .map_err(|e| e.to_string())?;
            let encoded = rec.span(Layer::Model, "encode_sharded", |_| {
                encode_sharded(&trace, SHARD_SAMPLES)
            });
            ensure(encoded == c.bytes, "re-encoded container is byte-identical")?;
            let stream = |cfg| {
                stream_resident_trace(
                    &trace,
                    &c.annots,
                    &c.symbols,
                    cfg,
                    &LOCALITY_SIZES,
                    SHARD_SAMPLES,
                )
            };
            let at_one = rec.span(Layer::Analysis, "stream_1_thread", |_| stream(single));
            let at_pinned = rec.span(Layer::Analysis, "stream_pinned_threads", |_| stream(pinned));
            ensure(at_one == at_pinned, "report independent of thread count")?;
            let fanned = rec
                .span(Layer::Core, "run_fanout", |_| {
                    run_fanout(
                        &c.bytes,
                        &c.index,
                        &c.annots,
                        &c.symbols,
                        pinned,
                        &fanout_cfg,
                        &FanoutBackend::InProcess,
                    )
                })
                .map_err(|e| e.to_string())?;
            // Ingest accounting differs by construction (ranges, not
            // one pass); everything a user reads must not.
            ensure(
                fanned.report.function_rows == at_pinned.function_rows
                    && fanned.report.block_reuse == at_pinned.block_reuse
                    && fanned.report.reuse_histogram == at_pinned.reuse_histogram
                    && fanned.report.locality_series == at_pinned.locality_series
                    && fanned.report.interval_rows(8) == at_pinned.interval_rows(8),
                "fan-out report == streaming report",
            )?;
        }
        Ok(())
    }

    fn layer_metrics(&self, rec: &Recorder, m: &mut Metrics) {
        let bytes = self.trace_bytes_per_round() as f64;
        let accesses = self.accesses() as f64;
        let rounds = rec.per_round("read_shard").len().max(1) as f64;
        let decode = median(&rec.per_round("read_shard"));
        let encode = median(&rec.per_round("encode_sharded"));
        m.set("model.decode_s", decode);
        m.set("model.decode_mb_per_s", bytes / 1e6 / decode);
        m.set("model.encode_s", encode);
        m.set("model.encode_mb_per_s", bytes / 1e6 / encode);
        m.set("model.container_bytes", bytes);
        m.set("model.bytes_per_access", bytes / accesses);
        m.set(
            "model.frames",
            self.containers
                .iter()
                .map(|c| c.index.entries.len())
                .sum::<usize>() as f64,
        );
        m.set(
            "model.decode_allocs_per_kaccess",
            rec.allocs_in("read_shard") as f64 / rounds / (accesses / 1e3),
        );

        let ingest = median(&rec.per_round("ingest_shard"));
        let finish = median(&rec.per_round("finish"));
        m.set("analysis.ingest_s", ingest);
        m.set("analysis.finish_s", finish);
        m.set("analysis.accesses_per_s", accesses / (ingest + finish));
        m.set(
            "analysis.merge_events",
            self.last.iter().map(|s| s.merge_events).sum::<u64>() as f64,
        );
        m.set(
            "analysis.peak_shard_bytes",
            self.last
                .iter()
                .map(|s| s.peak_shard_bytes)
                .max()
                .unwrap_or(0) as f64,
        );
        m.set(
            "analysis.allocs_per_kaccess",
            (rec.allocs_in("ingest_shard") + rec.allocs_in("finish")) as f64
                / rounds
                / (accesses / 1e3),
        );
        let pinned = median(&rec.per_round("stream_pinned_threads"));
        m.set(
            "analysis.par_speedup",
            median(&rec.per_round("stream_1_thread")) / pinned,
        );
        let fanout = median(&rec.per_round("run_fanout"));
        m.set("core.fanout_s", fanout);
        m.set("core.fanout_vs_stream", fanout / pinned);
    }
}
