//! Fan-out coordinator: partition a trace's frames into contiguous
//! ranges balanced by sample count, analyze the ranges on coordinator
//! threads, retry a range whose attempt failed, and fold the partial
//! reports in range order into a [`StreamingReport`] that is
//! bit-identical to the resident analyzer.
//!
//! The frames come from one source: an indexed sharded container, or a
//! trace in a [`TraceStore`] whose ranges are analyzed from the catalog
//! and only the blobs they reference (per-frame result cache first), so
//! a retried range re-reads a few blobs rather than the whole container.
//! Both give the same per-frame sample counts, so the partition, merge
//! order and merged report do not depend on the source.
//!
//! The coordinator never panics on a range's behalf: a panic inside an
//! attempt is caught and routed through the same retry path as a typed
//! failure (a failed blob read, a corrupt frame), and the mutexes a
//! panicking slot thread poisoned are recovered (the protected data is
//! only ever mutated under short, non-panicking critical sections). No
//! production path fails on purpose; the unit tests below pass the
//! coordinator loop an attempt that panics once.
//!
//! With observability on (`MEMGAZE_OBS`), the run records a
//! `fanout.run` span over per-range `fanout.range`/`fanout.attempt`
//! spans, and a `fanout.retry` mark under the range for every retry.

use memgaze_analysis::{
    analyze_frames, partition_by_samples, AnalysisConfig, PartialError, PartialReport,
    StreamingReport,
};
use memgaze_model::{AuxAnnotations, FrameIndex, ModelError, ShardReader, SymbolTable, TraceMeta};
use memgaze_store::{Catalog, StoreError, TraceStore};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Recover a possibly-poisoned fan-out mutex. Poisoning here means a
/// slot thread panicked; the coordinator's critical sections only do
/// plain pushes/stores, so the data is still consistent and the run
/// must keep going rather than cascade the panic.
fn lock_live<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fan-out run parameters.
#[derive(Debug, Clone)]
pub struct FanoutConfig {
    /// Slot threads (and the target number of frame ranges).
    pub workers: usize,
    /// Attempts per range before the run fails.
    pub max_attempts: u32,
    /// Locality-vs-interval sizes to accumulate.
    pub locality_sizes: Vec<u64>,
}

impl Default for FanoutConfig {
    fn default() -> Self {
        FanoutConfig {
            workers: 4,
            max_attempts: 3,
            locality_sizes: Vec::new(),
        }
    }
}

/// Where ranges execute. There is one backend, coordinator threads;
/// the enum is a shim kept for the frozen benchmark, which names it.
#[derive(Debug, Clone)]
pub enum FanoutBackend {
    /// Coordinator threads calling [`analyze_frames`] directly.
    InProcess,
}

/// One failed attempt (the run may still succeed via retry).
#[derive(Debug, Clone)]
pub struct WorkerFailure {
    /// The frame range the attempt was assigned.
    pub range: (usize, usize),
    /// 1-based attempt number.
    pub attempt: u32,
    /// What went wrong.
    pub detail: String,
}

/// A fan-out run's result: the merged report plus scheduling facts.
#[derive(Debug)]
pub struct FanoutRunReport {
    /// The merged analysis, bit-identical to the resident analyzer.
    pub report: StreamingReport,
    /// Trace metadata with trailer-patched totals.
    pub meta: TraceMeta,
    /// The frame ranges that were dispatched.
    pub ranges: Vec<Range<usize>>,
    /// Attempts beyond the first, summed over ranges.
    pub retries: u32,
    /// Every failed attempt, in completion order.
    pub failures: Vec<WorkerFailure>,
}

/// Fan-out failures.
#[derive(Debug)]
pub enum FanoutError {
    /// Container or index rejected by the model layer.
    Model(ModelError),
    /// A partial report failed to merge.
    Partial(PartialError),
    /// A store-backed run failed to read the store.
    Store(StoreError),
    /// A frame range failed every attempt.
    RangeFailed {
        /// Range start (frame index).
        lo: usize,
        /// Range end (exclusive).
        hi: usize,
        /// Attempts made.
        attempts: u32,
        /// The last attempt's failure.
        last: String,
    },
    /// A range outside the source, or a range that produced no partial.
    Protocol {
        /// What was malformed.
        detail: String,
    },
}

impl std::fmt::Display for FanoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FanoutError::Model(e) => write!(f, "fan-out model error: {e}"),
            FanoutError::Partial(e) => write!(f, "fan-out partial-report error: {e}"),
            FanoutError::Store(e) => write!(f, "fan-out store error: {e}"),
            FanoutError::RangeFailed {
                lo,
                hi,
                attempts,
                last,
            } => write!(
                f,
                "frame range {lo}..{hi} failed all {attempts} attempts; last error: {last}"
            ),
            FanoutError::Protocol { detail } => write!(f, "fan-out protocol error: {detail}"),
        }
    }
}

impl std::error::Error for FanoutError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FanoutError::Model(e) => Some(e),
            FanoutError::Partial(e) => Some(e),
            FanoutError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for FanoutError {
    fn from(e: StoreError) -> Self {
        FanoutError::Store(e)
    }
}

impl From<ModelError> for FanoutError {
    fn from(e: ModelError) -> Self {
        FanoutError::Model(e)
    }
}

impl From<PartialError> for FanoutError {
    fn from(e: PartialError) -> Self {
        FanoutError::Partial(e)
    }
}

/// The frames a fan-out analyzes.
enum FrameSource<'a> {
    /// An indexed sharded container and its [`FrameIndex`] sidecar.
    Container {
        container: &'a [u8],
        index: &'a FrameIndex,
    },
    /// A trace in a [`TraceStore`]: each range fetches only the blobs
    /// it references.
    Store {
        store: &'a TraceStore,
        /// The trace's catalog, loaded once.
        catalog: Catalog,
    },
}

impl FrameSource<'_> {
    /// Reject stale input before anything is dispatched: a container
    /// must be the one its index describes. (A catalog decode is
    /// already FNV-checksummed, and every blob read self-verifies
    /// against its content hash.)
    fn validate(&self) -> Result<(), FanoutError> {
        match self {
            FrameSource::Container { container, index } => Ok(index.validate(container)?),
            FrameSource::Store { .. } => Ok(()),
        }
    }

    /// Trace metadata with trailer-final totals.
    fn meta(&self) -> Result<TraceMeta, FanoutError> {
        match self {
            FrameSource::Container { container, index } => {
                let mut meta = ShardReader::new(*container)?.meta().clone();
                meta.total_loads = index.total_loads;
                meta.total_instrumented_loads = index.total_instrumented_loads;
                Ok(meta)
            }
            FrameSource::Store { catalog, .. } => Ok(catalog.meta()?),
        }
    }

    /// Samples per frame: the weights the partition balances.
    fn sample_weights(&self) -> Vec<u64> {
        match self {
            FrameSource::Container { index, .. } => {
                index.entries.iter().map(|e| e.samples).collect()
            }
            FrameSource::Store { catalog, .. } => catalog.sample_weights(),
        }
    }

    fn frame_count(&self) -> usize {
        match self {
            FrameSource::Container { index, .. } => index.entries.len(),
            FrameSource::Store { catalog, .. } => catalog.frames.len(),
        }
    }

    /// Analyze `frames`. A range that is reversed or runs past the last
    /// frame is a [`FanoutError::Protocol`], raised before any analysis.
    fn analyze(
        &self,
        frames: Range<usize>,
        annots: &AuxAnnotations,
        symbols: &SymbolTable,
        cfg: AnalysisConfig,
        locality_sizes: &[u64],
    ) -> Result<PartialReport, FanoutError> {
        let count = self.frame_count();
        if frames.start > frames.end || frames.end > count {
            return Err(FanoutError::Protocol {
                detail: format!(
                    "frame range {}..{} out of bounds for {count} frames",
                    frames.start, frames.end
                ),
            });
        }
        match self {
            FrameSource::Container { container, index } => Ok(analyze_frames(
                container,
                index,
                frames,
                annots,
                symbols,
                cfg,
                locality_sizes,
            )?),
            FrameSource::Store { store, catalog } => Ok(store
                .analyze_frames(catalog, frames, annots, symbols, cfg, locality_sizes)?
                .0),
        }
    }
}

/// Saturating `u64 → u32` narrowing for report counters. A plain
/// `as u32` wraps — `(1 << 32) + 5` would report as 5 retries — so
/// counters beyond `u32::MAX` pin at the ceiling instead of lying low.
fn saturate_u32(n: u64) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Analyze an indexed container by fanning its frame ranges out across
/// `cfg.workers` threads. The partials are merged **in range order**,
/// so the returned report is bit-identical to the resident
/// [`StreamingAnalyzer`](memgaze_analysis::StreamingAnalyzer) — and
/// hence to the resident `Analyzer` — for every worker count and shard
/// size. `backend` has one value and changes nothing.
pub fn run_fanout(
    container: &[u8],
    index: &FrameIndex,
    annots: &AuxAnnotations,
    symbols: &SymbolTable,
    analysis: AnalysisConfig,
    cfg: &FanoutConfig,
    _backend: &FanoutBackend,
) -> Result<FanoutRunReport, FanoutError> {
    let source = FrameSource::Container { container, index };
    run_source(&source, annots, symbols, analysis, cfg)
}

/// [`run_fanout`] over the trace `trace_id` in a [`TraceStore`]: the
/// same partition, merge order and report, with every range analyzed
/// from the catalog and the blobs it references.
pub fn run_fanout_store(
    store: &TraceStore,
    trace_id: &str,
    annots: &AuxAnnotations,
    symbols: &SymbolTable,
    analysis: AnalysisConfig,
    cfg: &FanoutConfig,
    _backend: &FanoutBackend,
) -> Result<FanoutRunReport, FanoutError> {
    let catalog = store.catalog(trace_id)?;
    let source = FrameSource::Store { store, catalog };
    run_source(&source, annots, symbols, analysis, cfg)
}

fn run_source(
    source: &FrameSource<'_>,
    annots: &AuxAnnotations,
    symbols: &SymbolTable,
    analysis: AnalysisConfig,
    cfg: &FanoutConfig,
) -> Result<FanoutRunReport, FanoutError> {
    coordinate(source, analysis, cfg, |range| {
        source
            .analyze(
                range.clone(),
                annots,
                symbols,
                analysis,
                &cfg.locality_sizes,
            )
            .map_err(|e| e.to_string())
    })
}

/// The coordinator loop: partition `source`, drain the ranges on up to
/// `cfg.workers` slots, retry each failed attempt, and fold the
/// partials in range order with [`PartialReport::merge_many`].
/// `attempt` analyzes one range. A panic inside it is caught and
/// retried like a typed failure — `std::thread::scope` would otherwise
/// re-raise it at join and take the whole coordinator down.
fn coordinate(
    source: &FrameSource<'_>,
    analysis: AnalysisConfig,
    cfg: &FanoutConfig,
    attempt: impl Fn(&Range<usize>) -> Result<PartialReport, String> + Sync,
) -> Result<FanoutRunReport, FanoutError> {
    // Reject a stale index before dispatching anything: every downstream
    // read depends on it describing exactly these bytes.
    source.validate()?;
    let meta = source.meta()?;
    let ranges = partition_by_samples(&source.sample_weights(), cfg.workers);

    let queue: Mutex<Vec<(usize, Range<usize>)>> =
        Mutex::new(ranges.iter().cloned().enumerate().collect());
    let results: Mutex<Vec<Option<PartialReport>>> = Mutex::new(vec![None; ranges.len()]);
    let failures: Mutex<Vec<WorkerFailure>> = Mutex::new(Vec::new());
    let retries = AtomicU64::new(0);
    let fatal: Mutex<Option<FanoutError>> = Mutex::new(None);
    let slots = cfg.workers.clamp(1, ranges.len().max(1));

    let mut run_span = memgaze_obs::span("fanout.run");
    if run_span.is_active() {
        run_span.set_label(format!(
            "{} frames, {} ranges, {} slots",
            source.frame_count(),
            ranges.len(),
            slots
        ));
    }
    let run_ctx = run_span.ctx();

    // Each slot drains ranges off the shared queue.
    let slot_loop = || loop {
        if lock_live(&fatal).is_some() {
            break;
        }
        let Some((idx, range)) = lock_live(&queue).pop() else {
            break;
        };
        let mut range_span = memgaze_obs::span_under("fanout.range", run_ctx);
        if range_span.is_active() {
            range_span.set_label(format!("frames {}..{}", range.start, range.end));
        }
        let mut tries = 0u32;
        let outcome = loop {
            tries += 1;
            memgaze_obs::counter!("fanout.attempts").add(1);
            let run = {
                let _attempt_span = memgaze_obs::span("fanout.attempt");
                catch_unwind(AssertUnwindSafe(|| attempt(&range))).unwrap_or_else(|payload| {
                    Err(format!(
                        "worker for frames {}..{} panicked: {}",
                        range.start,
                        range.end,
                        panic_message(payload.as_ref())
                    ))
                })
            };
            match run {
                Ok(p) => break Ok(p),
                Err(detail) => {
                    lock_live(&failures).push(WorkerFailure {
                        range: (range.start, range.end),
                        attempt: tries,
                        detail: detail.clone(),
                    });
                    if tries >= cfg.max_attempts.max(1) {
                        break Err(detail);
                    }
                    memgaze_obs::mark(
                        "fanout.retry",
                        &[
                            ("range", format!("{}..{}", range.start, range.end)),
                            ("attempt", tries.to_string()),
                            ("detail", truncate_detail(&detail)),
                        ],
                    );
                    retries.fetch_add(1, Ordering::Relaxed);
                }
            }
        };
        match outcome {
            Ok(p) => {
                if let Some(slot) = lock_live(&results).get_mut(idx) {
                    *slot = Some(p);
                }
            }
            Err(last) => {
                let mut f = lock_live(&fatal);
                if f.is_none() {
                    *f = Some(FanoutError::RangeFailed {
                        lo: range.start,
                        hi: range.end,
                        attempts: tries,
                        last,
                    });
                }
                break;
            }
        }
    };
    if slots == 1 {
        // Single slot: run inline — a scoped thread would only add a
        // spawn/join and an extra wakeup hop to every run.
        slot_loop();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..slots {
                scope.spawn(slot_loop);
            }
        });
    }

    if let Some(err) = fatal.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(err);
    }
    let parts = results
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.ok_or_else(|| FanoutError::Protocol {
                detail: format!("range {i} produced no partial report"),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let merged = PartialReport::merge_many(
        parts,
        analysis.footprint_block,
        analysis.reuse_block,
        &cfg.locality_sizes,
    )?;
    Ok(FanoutRunReport {
        report: merged.finish(&meta),
        meta,
        ranges,
        retries: saturate_u32(retries.into_inner()),
        failures: failures.into_inner().unwrap_or_else(|e| e.into_inner()),
    })
}

/// Clamp a failure detail for span marks, so event payloads stay
/// bounded whatever a panic message or an error chain carries.
fn truncate_detail(detail: &str) -> String {
    const MAX: usize = 200;
    if detail.len() <= MAX {
        return detail.to_string();
    }
    let mut cut = MAX;
    while !detail.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}… ({} bytes)", &detail[..cut], detail.len())
}

/// Extract a panic payload's message, if it carries one.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::{encode_sharded_indexed, Access, Sample, SampledTrace};
    use memgaze_store::StoreConfig;
    use std::path::PathBuf;

    fn mk_indexed_trace() -> (SampledTrace, Vec<u8>, FrameIndex) {
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
        (t, container, index)
    }

    /// A fresh store under the temp dir holding `container` as "fan".
    fn temp_store(tag: &str, container: &[u8], index: &FrameIndex) -> (PathBuf, TraceStore) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let root = std::env::temp_dir().join(format!(
            "memgaze-fanout-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = TraceStore::open(StoreConfig::new(&root)).unwrap();
        store
            .put("fan", container, index, &SymbolTable::new())
            .unwrap();
        (root, store)
    }

    fn store_source<'a>(store: &'a TraceStore) -> FrameSource<'a> {
        FrameSource::Store {
            store,
            catalog: store.catalog("fan").unwrap(),
        }
    }

    /// The coordinator over `source`, with an attempt that panics on
    /// its first call however many slots race for it.
    fn run_panicking_once(
        source: &FrameSource<'_>,
        analysis: AnalysisConfig,
        cfg: &FanoutConfig,
    ) -> FanoutRunReport {
        let (annots, symbols) = (AuxAnnotations::new(), SymbolTable::new());
        let armed = std::sync::atomic::AtomicBool::new(true);
        coordinate(source, analysis, cfg, |range| {
            if armed.swap(false, Ordering::Relaxed) {
                panic!("injected worker panic");
            }
            source
                .analyze(
                    range.clone(),
                    &annots,
                    &symbols,
                    analysis,
                    &cfg.locality_sizes,
                )
                .map_err(|e| e.to_string())
        })
        .unwrap()
    }

    #[test]
    fn counter_narrowing_saturates_instead_of_wrapping() {
        // `(1 << 32) + 5 as u32` wraps to 5 — the pre-fix lie. The
        // saturating conversion pins at the ceiling.
        assert_eq!(saturate_u32(0), 0);
        assert_eq!(saturate_u32(41), 41);
        assert_eq!(saturate_u32(u64::from(u32::MAX)), u32::MAX);
        assert_eq!(saturate_u32((1 << 32) + 5), u32::MAX);
        assert_eq!(saturate_u32(u64::MAX), u32::MAX);
    }

    #[test]
    fn in_process_fanout_matches_resident_streaming() {
        let (t, container, index) = mk_indexed_trace();
        let annots = AuxAnnotations::new();
        let symbols = SymbolTable::new();
        let analysis = AnalysisConfig::default();
        let sizes = vec![8u64, 32];
        let resident =
            memgaze_analysis::stream_resident_trace(&t, &annots, &symbols, analysis, &sizes, 2);
        for workers in [1usize, 2, 3, 8] {
            let cfg = FanoutConfig {
                workers,
                locality_sizes: sizes.clone(),
                ..FanoutConfig::default()
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
            assert_eq!(run.report.decompression, resident.decompression);
            assert_eq!(run.report.function_rows, resident.function_rows);
            assert_eq!(run.report.block_reuse, resident.block_reuse);
            assert_eq!(run.report.reuse_histogram, resident.reuse_histogram);
            assert_eq!(run.report.locality_series, resident.locality_series);
            assert_eq!(run.report.interval_rows(4), resident.interval_rows(4));
            assert_eq!(run.retries, 0);
            assert!(run.failures.is_empty());
        }
    }

    #[test]
    fn store_backed_fanout_matches_container_backed() {
        let (t, container, index) = mk_indexed_trace();
        let annots = AuxAnnotations::new();
        let symbols = SymbolTable::new();
        let analysis = AnalysisConfig::default();
        let sizes = vec![8u64, 32];
        let (root, store) = temp_store("store-unit", &container, &index);
        let resident =
            memgaze_analysis::stream_resident_trace(&t, &annots, &symbols, analysis, &sizes, 2);
        for workers in [1usize, 3, 8] {
            let cfg = FanoutConfig {
                workers,
                locality_sizes: sizes.clone(),
                ..FanoutConfig::default()
            };
            let container_run = run_fanout(
                &container,
                &index,
                &annots,
                &symbols,
                analysis,
                &cfg,
                &FanoutBackend::InProcess,
            )
            .unwrap();
            let store_run = run_fanout_store(
                &store,
                "fan",
                &annots,
                &symbols,
                analysis,
                &cfg,
                &FanoutBackend::InProcess,
            )
            .unwrap();
            // Identical partition and a report bit-identical to both
            // the container-backed fan-out and the resident analyzer.
            assert_eq!(store_run.ranges, container_run.ranges);
            assert_eq!(store_run.meta, t.meta);
            assert_eq!(store_run.report, container_run.report);
            assert_eq!(store_run.report, resident);
            assert_eq!(store_run.retries, 0);
        }
        // A missing trace is a typed store error, not a panic.
        let err = run_fanout_store(
            &store,
            "absent",
            &annots,
            &symbols,
            analysis,
            &FanoutConfig::default(),
            &FanoutBackend::InProcess,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            FanoutError::Store(memgaze_store::StoreError::MissingTrace { .. })
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn store_backed_fanout_recovers_from_panicking_worker() {
        let (t, container, index) = mk_indexed_trace();
        let analysis = AnalysisConfig::default();
        let (root, store) = temp_store("store-panic", &container, &index);
        // Four slots reach the first attempt together: exactly one fires.
        let cfg = FanoutConfig {
            workers: 4,
            ..FanoutConfig::default()
        };
        let run = run_panicking_once(&store_source(&store), analysis, &cfg);
        // The panic costs one retry; the retried range only re-reads its
        // own blobs, and the merged report still matches the resident
        // analyzer.
        assert_eq!(run.retries, 1);
        assert_eq!(run.failures.len(), 1);
        assert!(run.failures[0].detail.contains("panicked"));
        let resident = memgaze_analysis::stream_resident_trace(
            &t,
            &AuxAnnotations::new(),
            &SymbolTable::new(),
            analysis,
            &cfg.locality_sizes,
            2,
        );
        assert_eq!(run.report, resident);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn panicking_in_process_worker_still_yields_complete_report() {
        let (t, container, index) = mk_indexed_trace();
        let analysis = AnalysisConfig::default();
        let sizes = vec![8u64, 32];
        let resident = memgaze_analysis::stream_resident_trace(
            &t,
            &AuxAnnotations::new(),
            &SymbolTable::new(),
            analysis,
            &sizes,
            2,
        );
        // An attempt panics on its first call. The coordinator must
        // catch the unwind (not die at scope join), recover any mutex
        // the panicking thread poisoned, record the failure, retry, and
        // still produce the identical report.
        let cfg = FanoutConfig {
            workers: 2,
            locality_sizes: sizes,
            ..FanoutConfig::default()
        };
        let source = FrameSource::Container {
            container: &container,
            index: &index,
        };
        let run = run_panicking_once(&source, analysis, &cfg);
        assert!(run.retries >= 1, "the injected panic must cost a retry");
        assert!(
            run.failures.iter().any(|f| f.detail.contains("panicked")),
            "{:?}",
            run.failures
        );
        assert_eq!(run.report, resident);
    }

    #[test]
    fn retried_panic_leaves_one_retry_mark_under_its_range() {
        use memgaze_obs::{Event, ObsConfig};

        let (_, container, index) = mk_indexed_trace();
        let source = FrameSource::Container {
            container: &container,
            index: &index,
        };
        let cfg = FanoutConfig {
            workers: 2,
            ..FanoutConfig::default()
        };
        memgaze_obs::configure(ObsConfig {
            capture: true,
            ..ObsConfig::disabled()
        });
        // Other tests may run fan-outs meanwhile: this run's events are
        // the tree under a span of its own.
        let outer = memgaze_obs::span("test.fanout_with_obs");
        let outer_id = outer.ctx().map(|c| c.id);
        let run = run_panicking_once(&source, AnalysisConfig::default(), &cfg);
        drop(outer);
        let events = memgaze_obs::take_capture();
        memgaze_obs::configure(ObsConfig::disabled());
        assert_eq!(run.retries, 1);

        let spans_named = |want: &str, parents: &[u64]| -> Vec<u64> {
            events
                .iter()
                .filter_map(|e| match e {
                    Event::Span {
                        id, parent, name, ..
                    } if name == want && parents.contains(parent) => Some(*id),
                    _ => None,
                })
                .collect()
        };
        let runs = spans_named("fanout.run", &[outer_id.unwrap()]);
        assert_eq!(runs.len(), 1, "one fanout.run under the test span");
        let ranges = spans_named("fanout.range", &runs);
        assert_eq!(ranges.len(), run.ranges.len());
        let retries: Vec<(u64, &[(String, String)])> = events
            .iter()
            .filter_map(|e| match e {
                Event::Mark {
                    parent,
                    name,
                    fields,
                    ..
                } if name == "fanout.retry" && ranges.contains(parent) => {
                    Some((*parent, fields.as_slice()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(retries.len(), 1, "one retry mark under a fanout.range");
        let (_, fields) = retries[0];
        assert!(fields
            .iter()
            .any(|(k, v)| k == "detail" && v.contains("panicked")));
        // The failed and the retried attempt both sit under that range.
        assert_eq!(spans_named("fanout.attempt", &[retries[0].0]).len(), 2);
    }

    #[test]
    fn frame_source_analyzes_in_bounds_ranges_of_either_source() {
        let (_, container, index) = mk_indexed_trace();
        let (root, store) = temp_store("source", &container, &index);
        let (annots, symbols) = (AuxAnnotations::new(), SymbolTable::new());
        let cfg = AnalysisConfig::default();
        let sizes = [8u64, 32];
        let frames = index.entries.len();
        let sources = [
            FrameSource::Container {
                container: &container,
                index: &index,
            },
            store_source(&store),
        ];
        for source in &sources {
            for r in [0..2, 2..frames, 0..frames] {
                let want = analyze_frames(
                    &container,
                    &index,
                    r.clone(),
                    &annots,
                    &symbols,
                    cfg,
                    &sizes,
                )
                .unwrap();
                let got = source.analyze(r, &annots, &symbols, cfg, &sizes).unwrap();
                assert_eq!(got, want);
            }
            // Analyzed, a reversed range would answer an empty partial
            // and one past the last frame a model or store error: the
            // typed protocol error shows the bounds check ran first.
            let reversed = Range { start: 3, end: 1 };
            for bad in [reversed, 0..frames + 1] {
                let err = source
                    .analyze(bad, &annots, &symbols, cfg, &sizes)
                    .unwrap_err();
                assert!(matches!(err, FanoutError::Protocol { .. }), "{err}");
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stale_index_is_rejected_before_dispatch() {
        let (_, container, _) = mk_indexed_trace();
        let mut t2 = SampledTrace::new(TraceMeta::new("other", 1000, 8192));
        let acc = vec![Access::new(0x400u64, 64, 0)];
        t2.push_sample(Sample::new(acc, 1)).unwrap();
        t2.meta.total_loads = 1000;
        let (_, stale) = encode_sharded_indexed(&t2, 1);
        let err = run_fanout(
            &container,
            &stale,
            &AuxAnnotations::new(),
            &SymbolTable::new(),
            AnalysisConfig::default(),
            &FanoutConfig::default(),
            &FanoutBackend::InProcess,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            FanoutError::Model(ModelError::StaleIndex { .. })
        ));
    }
}
