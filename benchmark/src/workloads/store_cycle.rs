//! `store_cycle`: writes beside reads on the `store` layer. A round, in
//! a fresh directory: open; `put` the four largest dense containers and
//! one of them again under a second id; cold `analyze` on a fresh
//! handle; LRU-warm `analyze` with the result cache wiped; cached
//! `analyze`; catalog queries; `get_container`; `gc`. Timing `put`
//! against the three `analyze` tiers is what lets a read-side gain
//! bought with write-side cost (or the LRU tier's removal) show.

use super::{digest_of, ensure, RoundOutcome, Workload};
use crate::inputs::{self, Container, Scale, Sizes, LOCALITY_SIZES};
use crate::metrics::Metrics;
use crate::span::{Layer, Recorder};
use crate::timing::median;
use memgaze_analysis::{AnalysisConfig, PartialReport, StreamingAnalyzer, StreamingReport};
use memgaze_core::analyze_shard_container;
use memgaze_model::{ShardReader, TraceMeta};
use memgaze_store::{PutReceipt, QueryEngine, StoreAnalysis, StoreConfig, TraceStore};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Containers stored per round.
const STORED: usize = 4;

pub struct StoreCycle {
    sizes: Sizes,
    traces: Vec<Container>,
    /// Per trace, the direct streaming report of the same container.
    refs: Vec<StreamingReport>,
    /// Facts of the last round, for the layer metrics.
    last: LastRound,
    /// Encoded bytes of the per-shard partials the last probe built.
    partial_bytes: usize,
}

#[derive(Default)]
struct LastRound {
    raw_bytes: u64,
    stored_bytes: u64,
    frames_put: usize,
    dedup_blobs: usize,
    cached_hits: usize,
    cached_misses: usize,
    lru_hits: u64,
    lru_misses: u64,
    query_frames_decoded: u64,
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A directory of this process's own under the benchmark's results.
fn fresh_dir() -> PathBuf {
    crate::results_dir().join("tmp").join(format!(
        "store-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn open(root: &Path) -> Result<TraceStore, String> {
    TraceStore::open(StoreConfig::new(root)).map_err(|e| e.to_string())
}

impl StoreCycle {
    pub fn setup(seed: u64, scale: Scale) -> Result<StoreCycle, String> {
        let sizes = scale.sizes();
        let mut traces: Vec<Container> = inputs::dense_traces(seed, &sizes)
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        traces.sort_by_key(|c| std::cmp::Reverse(c.bytes.len()));
        traces.truncate(STORED);
        let refs = traces
            .iter()
            .map(|c| {
                analyze_shard_container(
                    &c.bytes,
                    &c.annots,
                    &c.symbols,
                    AnalysisConfig::default(),
                    &LOCALITY_SIZES,
                )
                .map(|(report, _)| report)
                .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(StoreCycle {
            sizes,
            traces,
            refs,
            last: LastRound::default(),
            partial_bytes: 0,
        })
    }

    /// `analyze` every stored trace on `store`; each must equal the
    /// direct report and be served by the cache tier the phase names.
    /// Returns the result-cache hits and misses seen.
    fn analyze(
        &self,
        store: &TraceStore,
        phase: &'static str,
        rec: &mut Recorder,
        out: &mut RoundOutcome,
    ) -> (usize, usize) {
        let want_hits = phase == "analyze_cached";
        let (mut hits, mut misses) = (0, 0);
        for (c, want) in self.traces.iter().zip(&self.refs) {
            let run = out.op(|| {
                rec.span(Layer::Store, phase, |_| {
                    store.analyze(
                        &c.name,
                        &c.annots,
                        &c.symbols,
                        AnalysisConfig::default(),
                        &LOCALITY_SIZES,
                    )
                })
            });
            out.verify(run.as_ref().is_ok_and(|r: &StoreAnalysis| {
                let served_right = if want_hits {
                    r.result_misses == 0
                } else {
                    r.result_hits == 0
                };
                &r.report == want && served_right
            }));
            if let Ok(r) = run {
                hits += r.result_hits;
                misses += r.result_misses;
            }
        }
        (hits, misses)
    }
}

impl Workload for StoreCycle {
    fn round(&mut self, rec: &mut Recorder) -> RoundOutcome {
        let mut out = RoundOutcome::default();
        let root = fresh_dir();
        let mut last = LastRound::default();
        let opened = out.timed(|| rec.span(Layer::Store, "open", |_| open(&root)));
        let Ok(store) = opened else {
            out.attempted += 1;
            out.failed += 1;
            return out;
        };

        let mut put = |id: &str, c: &Container, out: &mut RoundOutcome| -> Option<PutReceipt> {
            let receipt = out
                .op(|| {
                    rec.span(Layer::Store, "put", |_| {
                        store.put(id, &c.bytes, &c.index, &c.symbols)
                    })
                })
                .ok();
            // A second id for frames already stored must write nothing.
            out.verify(receipt.is_some_and(|r| {
                r.frames == c.index.entries.len() && (id == c.name || r.new_blobs == 0)
            }));
            receipt
        };
        for c in &self.traces {
            if let Some(r) = put(&c.name, c, &mut out) {
                last.raw_bytes += r.raw_bytes;
                last.stored_bytes += r.stored_bytes;
                last.frames_put += r.frames;
                last.dedup_blobs += r.dedup_blobs;
            }
        }
        if let Some(r) = put("again", &self.traces[0], &mut out) {
            last.frames_put += r.frames;
            last.dedup_blobs += r.dedup_blobs;
        }

        // Cold: a fresh handle (empty LRU), no cached results.
        let Ok(fresh) = out.timed(|| rec.span(Layer::Store, "open", |_| open(&root))) else {
            out.failed += 1;
            return out;
        };
        self.analyze(&fresh, "analyze_cold", rec, &mut out);
        // LRU-warm: blobs resident in the handle, results wiped.
        let _ = std::fs::remove_dir_all(root.join("results"));
        self.analyze(&fresh, "analyze_lru_warm", rec, &mut out);
        // Cached: the pass above persisted every partial.
        (last.cached_hits, last.cached_misses) =
            self.analyze(&fresh, "analyze_cached", rec, &mut out);
        let lru = fresh.cache_stats();
        last.lru_hits = lru.hits;
        last.lru_misses = lru.misses;

        // Catalog-only queries: no frame may be decoded to answer them.
        let decoded_before = memgaze_obs::counter("model.frames_decoded").value();
        let per_trace = self.sizes.queries / self.traces.len();
        for c in &self.traces {
            let answered = out.timed(|| {
                rec.span(Layer::Store, "query", |_| -> Result<u64, String> {
                    let catalog = fresh.catalog(&c.name).map_err(|e| e.to_string())?;
                    let engine = QueryEngine::new(&catalog).map_err(|e| e.to_string())?;
                    let (lo, hi) = catalog
                        .frames
                        .iter()
                        .filter_map(|f| f.addr_range)
                        .fold((u64::MAX, 0), |(lo, hi), (a, b)| (lo.min(a), hi.max(b)));
                    let step = ((hi - lo) / per_trace as u64).max(1);
                    let names = &catalog.func_names;
                    let mut seen = 0;
                    for q in 0..per_trace as u64 {
                        seen += match q % 3 {
                            0 => engine.region(lo + q * step, lo + (q + 1) * step).accesses,
                            1 => engine.time_range(q * 1000, u64::MAX).loads,
                            _ => engine
                                .function(&names[q as usize % names.len()])
                                .map_or(0, |f| f.loads),
                        };
                    }
                    Ok(seen)
                })
            });
            out.attempted += 1;
            out.verify(answered.is_ok_and(|seen| seen > 0));
        }
        last.query_frames_decoded =
            memgaze_obs::counter("model.frames_decoded").value() - decoded_before;

        for c in &self.traces {
            let bytes = out.op(|| {
                rec.span(Layer::Store, "get_container", |_| {
                    fresh.get_container(&c.name)
                })
            });
            out.verify(bytes.is_ok_and(|b| b == c.bytes));
        }
        let collected = out.timed(|| rec.span(Layer::Store, "gc", |_| fresh.gc()));
        out.attempted += 1;
        out.verify(collected.is_ok_and(|g| g.blobs_removed == 0));

        let _ = std::fs::remove_dir_all(&root);
        self.last = last;
        out
    }

    fn loads_per_round(&self) -> u64 {
        self.traces.iter().map(|c| c.loads).sum()
    }

    fn trace_bytes_per_round(&self) -> u64 {
        self.last.stored_bytes
    }

    fn digest(&self) -> u64 {
        let rows: Vec<_> = self
            .refs
            .iter()
            .map(|r| (&r.function_rows, r.interval_rows(8)))
            .collect();
        digest_of(&rows)
    }

    fn probe(&mut self, rec: &mut Recorder) -> Result<(), String> {
        // The mergeable-partial codec the result cache and the serve
        // seal path are built on: one partial per shard, encoded,
        // decoded, merged, finished — and equal to the one-pass report.
        let cfg = AnalysisConfig::default();
        let mut partial_bytes = 0;
        for (c, want) in self.traces.iter().zip(&self.refs) {
            let mut reader = ShardReader::new(&c.bytes[..]).map_err(|e| e.to_string())?;
            let mut partials = Vec::new();
            for shard in reader.by_ref() {
                let shard = shard.map_err(|e| e.to_string())?;
                let mut sa = StreamingAnalyzer::new(&c.annots, &c.symbols, cfg)
                    .with_locality_sizes(&LOCALITY_SIZES);
                sa.ingest_shard(&shard.samples);
                partials.push(sa.into_partial());
            }
            let meta: TraceMeta = reader.meta().clone();
            let encoded: Vec<Vec<u8>> = rec.span(Layer::Analysis, "partial_encode", |_| {
                partials.iter().map(PartialReport::encode).collect()
            });
            partial_bytes += encoded.iter().map(Vec::len).sum::<usize>();
            let decoded = rec
                .span(Layer::Analysis, "partial_decode", |_| {
                    encoded
                        .iter()
                        .map(|e| PartialReport::decode(e))
                        .collect::<Result<Vec<_>, _>>()
                })
                .map_err(|e| e.to_string())?;
            let merged = rec
                .span(Layer::Analysis, "merge_many", |_| {
                    PartialReport::merge_many(
                        decoded,
                        cfg.footprint_block,
                        cfg.reuse_block,
                        &LOCALITY_SIZES,
                    )
                })
                .map_err(|e| e.to_string())?;
            ensure(
                &merged.finish(&meta) == want,
                "merged per-shard partials == one-pass streaming report",
            )?;
        }
        self.partial_bytes = partial_bytes;
        Ok(())
    }

    fn layer_metrics(&self, rec: &Recorder, m: &mut Metrics) {
        let l = &self.last;
        let put = median(&rec.per_round("put"));
        m.set("store.put_s", put);
        m.set("store.put_mb_per_s", l.raw_bytes as f64 / 1e6 / put);
        m.set("store.stored_bytes", l.stored_bytes as f64);
        m.set(
            "store.compression_ratio",
            l.raw_bytes as f64 / l.stored_bytes.max(1) as f64,
        );
        m.set(
            "store.dedup_share",
            l.dedup_blobs as f64 / l.frames_put.max(1) as f64,
        );
        m.set(
            "store.cold_analyze_s",
            median(&rec.per_round("analyze_cold")),
        );
        m.set(
            "store.lru_warm_analyze_s",
            median(&rec.per_round("analyze_lru_warm")),
        );
        m.set(
            "store.cached_analyze_s",
            median(&rec.per_round("analyze_cached")),
        );
        m.set(
            "store.result_hit_share",
            l.cached_hits as f64 / (l.cached_hits + l.cached_misses).max(1) as f64,
        );
        m.set(
            "store.lru_hit_share",
            l.lru_hits as f64 / (l.lru_hits + l.lru_misses).max(1) as f64,
        );
        m.set(
            "store.query_us",
            median(&rec.per_round("query")) * 1e6 / self.sizes.queries as f64,
        );
        m.set("store.query_frames_decoded", l.query_frames_decoded as f64);
        m.set(
            "store.reassemble_s",
            median(&rec.per_round("get_container")),
        );
        m.set("store.gc_s", median(&rec.per_round("gc")));

        m.set(
            "analysis.partial_encode_s",
            median(&rec.per_round("partial_encode")),
        );
        m.set(
            "analysis.partial_decode_s",
            median(&rec.per_round("partial_decode")),
        );
        m.set("analysis.partial_bytes", self.partial_bytes as f64);
        m.set(
            "analysis.merge_many_s",
            median(&rec.per_round("merge_many")),
        );
    }
}
