//! The end-to-end pipeline drivers.

use crate::recorders::{SamplerRecorder, StreamingRecorder};
use memgaze_analysis::{AnalysisConfig, Analyzer, StreamingAnalyzer, StreamingReport};
use memgaze_instrument::{InstrumentConfig, Instrumented, Instrumenter};
use memgaze_model::{
    AuxAnnotations, FrameIndex, FullTrace, ModelError, SampledTrace, ShardReader, SymbolTable,
    TraceMeta,
};
use memgaze_ptsim::{
    BandwidthModel, OverheadModel, RunStats, SamplerConfig, StreamFull, StreamSampler, StreamStats,
};
use memgaze_workloads::ubench::MicroBench;
use memgaze_workloads::{Allocation, NullRecorder, Phase, TracedSpace};
use serde::{Deserialize, Serialize};

/// Pipeline configuration: collection, instrumentation, analysis, and
/// overhead-model parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Processor-Tracing collection parameters.
    pub sampler: SamplerConfig,
    /// Instrumentor configuration (ROI, compression).
    pub instrument: InstrumentConfig,
    /// Analysis parameters.
    pub analysis: AnalysisConfig,
    /// Overhead-model constants.
    pub overhead: OverheadModel,
}

impl PipelineConfig {
    /// The paper's microbenchmark setup: 10-K-load period, 16-KiB buffer.
    pub fn microbench() -> PipelineConfig {
        PipelineConfig {
            sampler: SamplerConfig::microbench(),
            instrument: InstrumentConfig::default(),
            analysis: AnalysisConfig::default(),
            overhead: OverheadModel::default(),
        }
    }

    /// The paper's application setup: large period, 8-KiB buffer.
    pub fn application(period: u64) -> PipelineConfig {
        PipelineConfig {
            sampler: SamplerConfig::application(period),
            instrument: InstrumentConfig::default(),
            analysis: AnalysisConfig::default(),
            overhead: OverheadModel::default(),
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::microbench()
    }
}

/// Result of tracing an IR microbenchmark.
pub struct MicroReport {
    /// The decoded sampled trace.
    pub trace: SampledTrace,
    /// Instrumentation side tables (annotations keyed by original ip).
    pub instrumented: Instrumented,
    /// Run statistics (exec + packets).
    pub run: RunStats,
}

impl MicroReport {
    /// An analyzer over this report.
    pub fn analyzer(&self, cfg: AnalysisConfig) -> Analyzer<'_> {
        Analyzer::new(
            &self.trace,
            &self.instrumented.annots,
            &self.instrumented.orig_symbols,
        )
        .with_config(cfg)
    }
}

/// Result of tracing a native workload.
pub struct WorkloadReport {
    /// The sampled trace.
    pub trace: SampledTrace,
    /// Annotation file from the site registry.
    pub annots: AuxAnnotations,
    /// Symbols from the site registry.
    pub symbols: SymbolTable,
    /// Per-phase execution counters.
    pub phases: Vec<Phase>,
    /// Collection statistics.
    pub stream: StreamStats,
    /// Simulated allocations (object → address range).
    pub allocations: Vec<Allocation>,
}

impl WorkloadReport {
    /// An analyzer over this report.
    pub fn analyzer(&self, cfg: AnalysisConfig) -> Analyzer<'_> {
        Analyzer::new(&self.trace, &self.annots, &self.symbols).with_config(cfg)
    }

    /// Address range of the most recent allocation with `label`.
    pub fn object_range(&self, label: &str) -> Option<(u64, u64)> {
        self.allocations
            .iter()
            .rev()
            .find(|a| a.label == label)
            .map(|a| (a.base, a.base + a.bytes))
    }

    /// Address range covering *all* allocations with `label`.
    pub fn label_range(&self, label: &str) -> Option<(u64, u64)> {
        let mut lo = u64::MAX;
        let mut hi = 0;
        for a in self.allocations.iter().filter(|a| a.label == label) {
            lo = lo.min(a.base);
            hi = hi.max(a.base + a.bytes);
        }
        (lo < hi).then_some((lo, hi))
    }
}

/// Result of full-trace collection over a workload.
pub struct FullWorkloadReport {
    /// The full trace ('Rec' when a bandwidth model dropped packets,
    /// 'All' otherwise).
    pub trace: FullTrace,
    /// Annotation file.
    pub annots: AuxAnnotations,
    /// Symbols.
    pub symbols: SymbolTable,
    /// Per-phase counters.
    pub phases: Vec<Phase>,
    /// Allocations.
    pub allocations: Vec<Allocation>,
}

/// Interpreter step budget for profiling and collection runs.
pub(crate) const MAX_INSTRS: u64 = 2_000_000_000;

/// The pipeline façade.
pub struct MemGaze {
    cfg: PipelineConfig,
}

impl MemGaze {
    /// A pipeline with the given configuration.
    pub fn new(cfg: PipelineConfig) -> MemGaze {
        MemGaze { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Run a microbenchmark end-to-end on the IR path: generate,
    /// instrument (`ptwrite` insertion), execute, collect, decode.
    pub fn run_microbench(
        &self,
        bench: &MicroBench,
    ) -> Result<MicroReport, Box<dyn std::error::Error>> {
        let _run_span = memgaze_obs::span("pipeline.run_microbench");
        let module = bench.module();
        // Opt-in verification gate: with MEMGAZE_VERIFY=1, the module is
        // linted (IR verifier + differential classification + plan
        // checker) and the run aborts on any error-severity diagnostic.
        // The run then goes on with the rewrite the linter checked, so
        // the module is classified and rewritten once either way.
        let inst = if std::env::var("MEMGAZE_VERIFY").is_ok_and(|v| v == "1") {
            let _span = memgaze_obs::span("pipeline.verify");
            let (report, artifacts) =
                memgaze_instrument::lint_and_instrument(&module, &self.cfg.instrument);
            match artifacts {
                Some(artifacts) if !report.has_errors() => artifacts.instrumented,
                _ => {
                    let msgs: Vec<String> = report
                        .diagnostics
                        .iter()
                        .filter(|d| d.severity == memgaze_isa::Severity::Error)
                        .map(|d| d.to_string())
                        .collect();
                    return Err(format!(
                        "MEMGAZE_VERIFY: {} lint error(s) in module '{}':\n{}",
                        msgs.len(),
                        module.name,
                        msgs.join("\n")
                    )
                    .into());
                }
            }
        } else {
            let _span = memgaze_obs::span("pipeline.instrument");
            Instrumenter::new(self.cfg.instrument.clone()).instrument(&module)
        };
        let main = inst
            .module
            .find_proc("main")
            .ok_or("generated module lacks a main procedure")?;
        let (trace, run, _outcome) = {
            let _span = memgaze_obs::span("pipeline.collect");
            memgaze_ptsim::collect_sampled(&inst, main, self.cfg.sampler.clone(), &bench.name())?
        };
        Ok(MicroReport {
            trace,
            instrumented: inst,
            run,
        })
    }

    /// Ground-truth full trace of a microbenchmark (validation baseline).
    pub fn microbench_ground_truth(
        &self,
        bench: &MicroBench,
    ) -> Result<FullTrace, Box<dyn std::error::Error>> {
        let module = bench.module();
        let main = module
            .find_proc("main")
            .ok_or("generated module lacks a main procedure")?;
        let (trace, _stats) = memgaze_ptsim::ground_truth(&module, main, &bench.name())?;
        Ok(trace)
    }
}

/// Trace a native workload through the sampled collector. The closure
/// receives the traced space and performs the workload; its return value
/// is passed through.
pub fn trace_workload<T>(
    name: &str,
    cfg: &SamplerConfig,
    run: impl FnOnce(&mut TracedSpace<SamplerRecorder>) -> T,
) -> (WorkloadReport, T) {
    let recorder = SamplerRecorder::new(StreamSampler::new(cfg.clone()));
    let mut space = TracedSpace::new(recorder);
    let value = {
        let mut span = memgaze_obs::span("pipeline.collect");
        if span.is_active() {
            span.set_label(name.to_string());
        }
        run(&mut space)
    };
    let annots = space.annotations();
    let symbols = space.symbols();
    let phases = space.phases().to_vec();
    let allocations = space.allocations().to_vec();
    let recorder = space.into_recorder();
    let (trace, stream) = recorder.sampler.finish(name);
    (
        WorkloadReport {
            trace,
            annots,
            symbols,
            phases,
            stream,
            allocations,
        },
        value,
    )
}

/// A typed failure of the streaming pipeline. The streaming path decodes
/// container bytes it wrote moments earlier, but "we just wrote it" is
/// not a proof — a recorder bug, a torn buffer, or future persistence of
/// containers across runs all make decode failures reachable, so they
/// surface as errors rather than panics.
#[derive(Debug)]
pub enum PipelineError {
    /// A container operation failed.
    Container {
        /// Which pipeline stage was running.
        stage: &'static str,
        /// The underlying model error.
        source: ModelError,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Container { stage, source } => {
                write!(f, "streaming pipeline failed at {stage}: {source}")
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Container { source, .. } => Some(source),
        }
    }
}

/// Result of the streaming workload path: a finished incremental analysis
/// plus the sharded container it was computed from. Unlike
/// [`WorkloadReport`] there is no resident [`SampledTrace`] — the trace
/// only ever existed one shard at a time.
pub struct StreamingWorkloadReport {
    /// The finished incremental analysis (bit-identical to the resident
    /// analyzer over the same trace).
    pub report: StreamingReport,
    /// Final trace metadata (trailer-patched totals).
    pub meta: TraceMeta,
    /// Annotation file from the site registry.
    pub annots: AuxAnnotations,
    /// Symbols from the site registry.
    pub symbols: SymbolTable,
    /// Per-phase execution counters.
    pub phases: Vec<Phase>,
    /// Collection statistics.
    pub stream: StreamStats,
    /// Simulated allocations (object → address range).
    pub allocations: Vec<Allocation>,
    /// The sharded v2 container the analysis consumed; kept so callers
    /// can persist it or re-run other analyses shard by shard.
    pub container: Vec<u8>,
    /// Frame index sidecar for `container`, enabling seek-based fan-out
    /// without rescanning the container.
    pub index: FrameIndex,
}

impl StreamingWorkloadReport {
    /// Persist the sharded container into a content-addressed
    /// [`TraceStore`](memgaze_store::TraceStore) under `id` — the
    /// pipeline-side ingestion hook. Frames already stored (from any
    /// trace) deduplicate to the existing blobs; the trace can then be
    /// re-analyzed, fanned out, or queried without the resident bytes.
    pub fn put_into(
        &self,
        store: &memgaze_store::TraceStore,
        id: &str,
    ) -> Result<memgaze_store::PutReceipt, memgaze_store::StoreError> {
        store.put(id, &self.container, &self.index, &self.symbols)
    }
}

/// Run a [`StreamingAnalyzer`] over every frame of a sharded container.
/// This is the resident-side analysis step of
/// [`trace_workload_streaming`], split out so callers holding persisted
/// container bytes can analyze them too. Corrupt or truncated containers
/// yield a typed [`PipelineError`], never a panic.
pub fn analyze_shard_container(
    container: &[u8],
    annots: &AuxAnnotations,
    symbols: &SymbolTable,
    analysis: AnalysisConfig,
    locality_sizes: &[u64],
) -> Result<(StreamingReport, TraceMeta), PipelineError> {
    let mut span = memgaze_obs::span("pipeline.analyze");
    if span.is_active() {
        span.set_label(format!("{} container bytes", container.len()));
    }
    let mut reader = ShardReader::new(container).map_err(|source| PipelineError::Container {
        stage: "container header decode",
        source,
    })?;
    let mut analyzer = StreamingAnalyzer::new(annots, symbols, analysis);
    if !locality_sizes.is_empty() {
        analyzer = analyzer.with_locality_sizes(locality_sizes);
    }
    for shard in reader.by_ref() {
        let shard = shard.map_err(|source| PipelineError::Container {
            stage: "shard frame decode",
            source,
        })?;
        analyzer.ingest_shard(&shard.samples);
    }
    let meta = reader.meta().clone();
    let report = analyzer.finish(&meta);
    Ok((report, meta))
}

/// Trace a native workload through the streaming path: completed samples
/// are encoded into sharded container frames as the workload runs, then
/// decoded one shard at a time into a [`StreamingAnalyzer`], so the full
/// trace is never materialized. The analysis runs after the workload
/// because annotations and symbols only exist once the run completes.
pub fn trace_workload_streaming<T>(
    name: &str,
    cfg: &SamplerConfig,
    shard_samples: usize,
    analysis: AnalysisConfig,
    locality_sizes: &[u64],
    run: impl FnOnce(&mut TracedSpace<StreamingRecorder>) -> T,
) -> Result<(StreamingWorkloadReport, T), PipelineError> {
    // The header carries the knobs the sampler runs, not the ones asked
    // for: a zero period or buffer is raised at construction.
    let sampler = StreamSampler::new(cfg.clone());
    let provisional = TraceMeta::new(name, sampler.config().period, sampler.config().buffer_bytes);
    let recorder = StreamingRecorder::new(sampler, &provisional, shard_samples);
    let mut space = TracedSpace::new(recorder);
    let value = {
        let mut span = memgaze_obs::span("pipeline.collect");
        if span.is_active() {
            span.set_label(name.to_string());
        }
        run(&mut space)
    };
    let annots = space.annotations();
    let symbols = space.symbols();
    let phases = space.phases().to_vec();
    let allocations = space.allocations().to_vec();
    let (container, index, _meta, stream) = {
        let _span = memgaze_obs::span("pipeline.seal");
        space
            .into_recorder()
            .finish(name)
            .map_err(|source| PipelineError::Container {
                stage: "container seal",
                source,
            })?
    };

    let (report, meta) =
        analyze_shard_container(&container, &annots, &symbols, analysis, locality_sizes)?;
    Ok((
        StreamingWorkloadReport {
            report,
            meta,
            annots,
            symbols,
            phases,
            stream,
            allocations,
            container,
            index,
        },
        value,
    ))
}

/// Collect a full trace of a native workload ('Rec' with a bandwidth
/// model, 'All' with `None`).
pub fn full_trace_workload<T>(
    name: &str,
    bw: Option<BandwidthModel>,
    compress: bool,
    run: impl FnOnce(&mut TracedSpace<crate::recorders::FullRecorder>) -> T,
) -> (FullWorkloadReport, T) {
    let full = match bw {
        Some(b) => StreamFull::new(b),
        None => StreamFull::unlimited(),
    };
    let mut space = TracedSpace::new(crate::recorders::FullRecorder::new(full));
    space.set_compress(compress);
    let value = run(&mut space);
    let annots = space.annotations();
    let symbols = space.symbols();
    let phases = space.phases().to_vec();
    let allocations = space.allocations().to_vec();
    let trace = space.into_recorder().full.finish(name);
    (
        FullWorkloadReport {
            trace,
            annots,
            symbols,
            phases,
            allocations,
        },
        value,
    )
}

/// Count a workload's loads without collecting anything (used to size
/// sampling periods).
pub fn dry_run_loads<T>(run: impl FnOnce(&mut TracedSpace<NullRecorder>) -> T) -> (u64, T) {
    let mut space = TracedSpace::new(NullRecorder);
    let value = run(&mut space);
    (space.counters().loads, value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_workloads::minivite::{self, MapVariant, MiniViteConfig};
    use memgaze_workloads::ubench::{MicroBench, OptLevel};

    #[test]
    fn microbench_pipeline_end_to_end() {
        let bench = MicroBench::parse("str2|irr", 1024, 10, OptLevel::O3).unwrap();
        let mut cfg = PipelineConfig::microbench();
        cfg.sampler.period = 2000;
        let report = MemGaze::new(cfg.clone()).run_microbench(&bench).unwrap();
        assert!(report.trace.num_samples() > 1);
        assert!(report.run.exec.ptwrites > 0);

        let analyzer = report.analyzer(cfg.analysis);
        let rows = analyzer.function_table();
        assert!(rows.iter().any(|r| r.name == "kernel"));
        // The kernel mixes strided and irregular loads.
        let kernel = rows.iter().find(|r| r.name == "kernel").unwrap();
        assert!(kernel.f_str_pct > 0.0 && kernel.f_str_pct < 100.0);
    }

    #[test]
    fn workload_pipeline_end_to_end() {
        let mut cfg = SamplerConfig::application(20_000);
        cfg.seed = 9;
        let mv = MiniViteConfig {
            scale: 7,
            degree: 6,
            iterations: 1,
            variant: MapVariant::V2,
            seed: 3,
            v2_default_capacity: 64,
        };
        let (report, result) =
            trace_workload("miniVite-v2", &cfg, |space| minivite::run(space, &mv));
        assert!(!result.communities.is_empty());
        assert!(report.trace.num_samples() > 0);
        assert!(report.stream.total_loads > 20_000);
        assert_eq!(report.phases.len(), 3);
        assert!(report.label_range("map").is_some());

        let analyzer = report.analyzer(AnalysisConfig::default());
        let rows = analyzer.function_table();
        assert!(
            rows.iter().any(|r| r.name == "map.insert"),
            "hot functions: {:?}",
            rows.iter().map(|r| r.name.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn streaming_workload_matches_resident_pipeline() {
        let mut cfg = SamplerConfig::application(20_000);
        cfg.seed = 9;
        let mv = MiniViteConfig {
            scale: 7,
            degree: 6,
            iterations: 1,
            variant: MapVariant::V2,
            seed: 3,
            v2_default_capacity: 64,
        };
        let sizes = [16u64, 64];
        let (resident, _) = trace_workload("miniVite-v2", &cfg, |space| minivite::run(space, &mv));
        let (streamed, result) = trace_workload_streaming(
            "miniVite-v2",
            &cfg,
            2,
            AnalysisConfig::default(),
            &sizes,
            |space| minivite::run(space, &mv),
        )
        .unwrap();
        assert!(!result.communities.is_empty());
        streamed.index.validate(&streamed.container).unwrap();
        // Deterministic workload + same seed → identical trace, so the
        // container decodes back to the resident trace exactly.
        let decoded = memgaze_model::decode_sharded(&streamed.container).unwrap();
        assert_eq!(decoded, resident.trace);
        assert_eq!(streamed.meta, resident.trace.meta);
        assert_eq!(streamed.phases, resident.phases);
        assert_eq!(streamed.stream.total_loads, resident.stream.total_loads);

        // And the incremental analysis matches the resident analyzer bit
        // for bit.
        let analyzer = resident.analyzer(AnalysisConfig::default());
        assert_eq!(streamed.report.decompression, analyzer.decompression());
        assert_eq!(streamed.report.function_rows, analyzer.function_table());
        assert_eq!(&streamed.report.block_reuse, analyzer.block_reuse());
        assert_eq!(
            streamed.report.locality_series,
            memgaze_analysis::locality_vs_interval_with(
                &resident.trace,
                &resident.annots,
                AnalysisConfig::default().reuse_block,
                &sizes,
                1,
            )
        );
        assert_eq!(streamed.report.interval_rows(8), analyzer.interval_rows(8));
        let n = resident.trace.num_samples() as u64;
        assert_eq!(streamed.report.ingest.shards, n.div_ceil(2));
        assert_eq!(streamed.report.ingest.samples, n);
    }

    #[test]
    fn corrupt_container_is_a_typed_error_not_a_panic() {
        let annots = AuxAnnotations::new();
        let symbols = SymbolTable::new();
        let cfg = AnalysisConfig::default();
        // Garbage bytes: header decode fails.
        let err =
            analyze_shard_container(b"not a container", &annots, &symbols, cfg, &[]).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Container {
                stage: "container header decode",
                ..
            }
        ));
        // A valid container truncated mid-frame: frame decode fails.
        let mut trace = SampledTrace::new(TraceMeta::new("t", 100, 8192));
        for s in 0..6u64 {
            let acc = (0..40)
                .map(|i| memgaze_model::Access::new(0x400u64, (s * 64 + i) * 64, s * 100 + i))
                .collect();
            trace
                .push_sample(memgaze_model::Sample::new(acc, s * 100 + 40))
                .unwrap();
        }
        trace.meta.total_loads = 600;
        let container = memgaze_model::encode_sharded(&trace, 2);
        let truncated = &container[..container.len() - 10];
        let err = analyze_shard_container(truncated, &annots, &symbols, cfg, &[]).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Container {
                stage: "shard frame decode",
                ..
            }
        ));
        assert!(err.to_string().contains("shard frame decode"), "{err}");
    }

    #[test]
    fn full_and_sampled_see_same_stream() {
        let mv = MiniViteConfig {
            scale: 6,
            degree: 4,
            iterations: 1,
            variant: MapVariant::V1,
            seed: 3,
            v2_default_capacity: 64,
        };
        let (full, _) = full_trace_workload("mv", None, true, |s| minivite::run(s, &mv));
        let (loads, _) = dry_run_loads(|s| minivite::run(s, &mv));
        assert_eq!(full.trace.meta.total_loads, loads);
        assert!(full.trace.accesses.len() as u64 <= loads);
        assert_eq!(full.trace.dropped, 0);
    }

    #[test]
    fn uncompressed_full_trace_is_larger() {
        let mv = MiniViteConfig {
            scale: 6,
            degree: 4,
            iterations: 1,
            variant: MapVariant::V1,
            seed: 3,
            v2_default_capacity: 64,
        };
        let (comp, _) = full_trace_workload("mv", None, true, |s| minivite::run(s, &mv));
        let (unc, _) = full_trace_workload("mv", None, false, |s| minivite::run(s, &mv));
        // miniVite's sites are all non-constant here, so the counts can
        // tie; the uncompressed trace must never be smaller.
        assert!(unc.trace.accesses.len() >= comp.trace.accesses.len());
    }
}
