//! `run_fanout`: one pass over an indexed container, kept under the name
//! and signature the frozen benchmark's `analyze_stream` probe calls.
//!
//! There is no fan-out behind it. Splitting a trace's frames across
//! threads measured 0.91× at two workers against one (DESIGN.md §12),
//! so the coordinator was deleted and a trace is analyzed in one fold.
//! The shim, [`FanoutConfig::workers`] and [`FanoutBackend`] go when the
//! benchmark thaws (ROADMAP).

use memgaze_analysis::{analyze_frames, AnalysisConfig, StreamingReport};
use memgaze_model::{AuxAnnotations, FrameIndex, ModelError, ShardReader, SymbolTable, TraceMeta};

/// What [`run_fanout`] reads.
#[derive(Debug, Clone, Default)]
pub struct FanoutConfig {
    /// Read by nothing: the analysis runs on the calling thread. Kept
    /// because the benchmark sets it.
    pub workers: usize,
    /// Locality-vs-interval sizes to accumulate.
    pub locality_sizes: Vec<u64>,
}

/// A one-variant enum that changes nothing, kept because the benchmark
/// names it.
#[derive(Debug, Clone)]
pub enum FanoutBackend {
    /// The calling thread.
    InProcess,
}

/// A [`run_fanout`] result.
#[derive(Debug)]
pub struct FanoutRunReport {
    /// The report, bit-identical to the resident streaming analyzer's.
    pub report: StreamingReport,
    /// Trace metadata with trailer-patched totals.
    pub meta: TraceMeta,
}

/// Analyze every frame of an indexed container in one fold. A stale
/// index is [`ModelError::StaleIndex`] before any frame is read; every
/// frame is read through the index and checked against its checksum, so
/// a damaged frame is a typed error, never a panic. `backend` has one
/// value and changes nothing.
pub fn run_fanout(
    container: &[u8],
    index: &FrameIndex,
    annots: &AuxAnnotations,
    symbols: &SymbolTable,
    analysis: AnalysisConfig,
    cfg: &FanoutConfig,
    _backend: &FanoutBackend,
) -> Result<FanoutRunReport, ModelError> {
    index.validate(container)?;
    let mut meta = ShardReader::new(container)?.meta().clone();
    meta.total_loads = index.total_loads;
    meta.total_instrumented_loads = index.total_instrumented_loads;
    let frames = 0..index.entries.len();
    let partial = analyze_frames(
        container,
        index,
        frames,
        annots,
        symbols,
        analysis,
        &cfg.locality_sizes,
    )?;
    Ok(FanoutRunReport {
        report: partial.finish(&meta),
        meta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::{encode_sharded_indexed, Access, Sample, SampledTrace};

    #[test]
    fn one_fold_matches_resident_streaming() {
        let mut t = SampledTrace::new(TraceMeta::new("fanout-core", 1000, 8192));
        for s in 0..10u64 {
            let n = 30 + (s * 7) % 40;
            let acc: Vec<Access> = (0..n)
                .map(|i| {
                    Access::new(
                        0x400 + (i % 4) * 4,
                        ((s * 31 + i * 3) % 512) * 64,
                        s * 1000 + i,
                    )
                })
                .collect();
            t.push_sample(Sample::new(acc, s * 1000 + n)).unwrap();
        }
        t.meta.total_loads = 10_000;
        let (container, index) = encode_sharded_indexed(&t, 2);
        let (annots, symbols) = (AuxAnnotations::new(), SymbolTable::new());
        let analysis = AnalysisConfig::default();
        let sizes = vec![8u64, 32];
        let resident =
            memgaze_analysis::stream_resident_trace(&t, &annots, &symbols, analysis, &sizes, 2);
        let cfg = FanoutConfig {
            workers: 3,
            locality_sizes: sizes,
        };
        let run = run_fanout(
            &container,
            &index,
            &annots,
            &symbols,
            analysis,
            &cfg,
            &FanoutBackend::InProcess,
        )
        .unwrap();
        assert_eq!(run.meta, t.meta);
        assert_eq!(run.report, resident);
    }
}
