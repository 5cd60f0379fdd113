//! The content-addressed trace store.
//!
//! On-disk layout under one root directory:
//!
//! ```text
//! root/
//!   blobs/aa/aabbcc...16hex.blob      compressed frame payloads (MGZB)
//!   catalog/<trace-id>.mgzc           per-trace catalogs (MGZC)
//!   results/<cfg-16hex>/<frame-16hex>.mgzp   cached per-frame partials
//! ```
//!
//! Two tiers answer reads, cheapest first:
//!
//! 1. the **result cache** — per-frame [`PartialReport`]s keyed by
//!    (frame content hash, analyzer config hash), so re-analysis of an
//!    unchanged frame under an unchanged configuration is a file read
//!    and a decode, no sample ever touched;
//! 2. the **blob tier** — checksummed, block-compressed files fetched
//!    by content hash. Keeping hot blobs in memory is the page cache's
//!    job: an in-process LRU over decoded payloads measured 1.10x on a
//!    re-analysis the result cache answers 27x faster (DESIGN.md §15).
//!
//! Content addressing makes `put` deduplicating (identical frames in
//! any trace share one blob) and makes every read self-verifying: bytes
//! that do not hash to their address are a typed [`StoreError`], never
//! returned data. All writes are atomic (temp file + rename), so a
//! crashed `put` leaves either the old object or the new one, never a
//! torn file.

use crate::blob::{decode_blob, encode_blob};
use crate::catalog::Catalog;
use crate::error::{io_err, StoreError};
use memgaze_analysis::streaming::StreamingReport;
use memgaze_analysis::{AnalysisConfig, PartialReport, StreamingAnalyzer, WorkerSpec};
use memgaze_model::annot::AuxAnnotations;
use memgaze_model::stream::decode_frame_payload;
use memgaze_model::wire::{grow_toward, put_varint, varint_len};
use memgaze_model::{fnv1a64, BlockSize, FrameIndex, SymbolTable, TraceMeta};
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration for opening a [`TraceStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Root directory; created (with parents) on open.
    pub root: PathBuf,
    /// Block size for catalog reuse summaries.
    pub summary_block: BlockSize,
}

impl StoreConfig {
    /// Defaults for a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            root: root.into(),
            summary_block: BlockSize::CACHE_LINE,
        }
    }
}

/// What one `put` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutReceipt {
    /// Frames in the trace.
    pub frames: usize,
    /// Blobs written by this put.
    pub new_blobs: usize,
    /// Frames whose blob already existed (deduplicated).
    pub dedup_blobs: usize,
    /// Uncompressed payload bytes across all frames.
    pub raw_bytes: u64,
    /// On-disk bytes of the unique blobs referenced by this trace.
    pub stored_bytes: u64,
}

impl PutReceipt {
    /// Uncompressed-to-stored ratio (> 1 means the store saved space).
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.stored_bytes as f64
        }
    }
}

/// One row of [`TraceStore::ls`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Trace id.
    pub id: String,
    /// Frame count.
    pub frames: usize,
    /// Total samples.
    pub samples: u64,
    /// Total uncompressed payload bytes.
    pub payload_bytes: u64,
    /// Workload label from the trace meta.
    pub workload: String,
}

/// What a `gc` pass reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Unreferenced blobs removed.
    pub blobs_removed: usize,
    /// Blob bytes reclaimed.
    pub blob_bytes_reclaimed: u64,
    /// Cached results removed (frames no longer referenced).
    pub results_removed: usize,
}

/// Outcome of a store-backed analysis pass.
#[derive(Debug, Clone)]
pub struct StoreAnalysis {
    /// The merged report — bit-identical to a resident streaming pass
    /// over the same container and configuration.
    pub report: StreamingReport,
    /// Trace metadata with trailer-final totals.
    pub meta: TraceMeta,
    /// Frames served from the result cache.
    pub result_hits: usize,
    /// Frames analyzed from blobs.
    pub result_misses: usize,
}

/// What [`TraceStore::cache_stats`] returns: both fields always zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
}

/// A content-addressed store of trace shards with a per-frame result
/// cache.
pub struct TraceStore {
    config: StoreConfig,
}

impl TraceStore {
    /// Open (creating directories as needed) a store at `config.root`.
    pub fn open(config: StoreConfig) -> Result<TraceStore, StoreError> {
        for sub in ["blobs", "catalog", "results"] {
            let dir = config.root.join(sub);
            fs::create_dir_all(&dir)
                .map_err(|e| io_err(format!("creating {}", dir.display()), e))?;
        }
        Ok(TraceStore { config })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.config.root
    }

    /// Block size catalog reuse summaries are computed at.
    pub fn summary_block(&self) -> BlockSize {
        self.config.summary_block
    }

    /// A shim, always zero: the in-memory hot-shard LRU this reported
    /// on is gone, and `benchmark/` (frozen while a change is measured)
    /// still reads `hits` and `misses` for its `store.lru_hit_share`.
    /// Goes with that metric in the next change to the benchmark.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    fn blob_path(&self, hash: u64) -> PathBuf {
        let hex = format!("{hash:016x}");
        self.config
            .root
            .join("blobs")
            .join(&hex[..2])
            .join(format!("{hex}.blob"))
    }

    fn catalog_path(&self, id: &str) -> Result<PathBuf, StoreError> {
        validate_trace_id(id)?;
        Ok(self.config.root.join("catalog").join(format!("{id}.mgzc")))
    }

    fn result_path(&self, config_hash: u64, frame_hash: u64) -> PathBuf {
        self.config
            .root
            .join("results")
            .join(format!("{config_hash:016x}"))
            .join(format!("{frame_hash:016x}.mgzp"))
    }

    /// Merged-range cache entry: the exact fold of a frame range's
    /// partials, keyed by the sequence of frame content hashes (the
    /// `.mgzr` extension keeps it apart from per-frame `.mgzp`
    /// entries in the same config directory).
    fn range_result_path(&self, config_hash: u64, range_hash: u64) -> PathBuf {
        self.config
            .root
            .join("results")
            .join(format!("{config_hash:016x}"))
            .join(format!("{range_hash:016x}.mgzr"))
    }

    /// Store a container under `id`: scan it into a [`Catalog`], write
    /// every frame payload as a content-addressed blob (skipping blobs
    /// that already exist), and persist the catalog. Re-putting the
    /// same trace is idempotent; putting a different trace under an
    /// existing id replaces the catalog but shares any common blobs.
    pub fn put(
        &self,
        id: &str,
        container: &[u8],
        index: &FrameIndex,
        symbols: &SymbolTable,
    ) -> Result<PutReceipt, StoreError> {
        let mut span = memgaze_obs::span("store.put");
        if span.is_active() {
            span.set_label(format!("{id} ({} frames)", index.entries.len()));
        }
        let catalog_path = self.catalog_path(id)?;
        let catalog = Catalog::scan(id, container, index, symbols, self.config.summary_block)?;
        let mut receipt = PutReceipt {
            frames: catalog.frames.len(),
            new_blobs: 0,
            dedup_blobs: 0,
            raw_bytes: 0,
            stored_bytes: 0,
        };
        let mut seen = std::collections::BTreeSet::new();
        for (e, f) in index.entries.iter().zip(&catalog.frames) {
            receipt.raw_bytes += f.len;
            if !seen.insert(f.hash) {
                continue;
            }
            let path = self.blob_path(f.hash);
            let stored = match fs::metadata(&path) {
                Ok(m) => {
                    receipt.dedup_blobs += 1;
                    memgaze_obs::counter!("store.put_dedup").add(1);
                    m.len()
                }
                Err(_) => {
                    let payload = &container[e.offset as usize..(e.offset + e.len) as usize];
                    let framed = encode_blob(payload);
                    write_atomic(&path, &framed)?;
                    receipt.new_blobs += 1;
                    memgaze_obs::counter!("store.put_blobs").add(1);
                    framed.len() as u64
                }
            };
            receipt.stored_bytes += stored;
        }
        write_atomic(&catalog_path, &catalog.encode())?;
        Ok(receipt)
    }

    /// Load the catalog for `id`.
    pub fn catalog(&self, id: &str) -> Result<Catalog, StoreError> {
        let path = self.catalog_path(id)?;
        let data = match fs::read(&path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::MissingTrace { id: id.to_string() })
            }
            Err(e) => return Err(io_err(format!("reading {}", path.display()), e)),
        };
        Catalog::decode(id, &data)
    }

    /// Fetch a frame payload by content hash. The returned bytes are
    /// verified (blob checksum, then content-hash recheck).
    pub fn get_blob(&self, hash: u64) -> Result<Vec<u8>, StoreError> {
        let path = self.blob_path(hash);
        let data = match fs::read(&path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::MissingBlob { hash })
            }
            Err(e) => return Err(io_err(format!("reading {}", path.display()), e)),
        };
        decode_blob(hash, &data)
    }

    /// Reassemble the byte-identical original container for `id` from
    /// its catalog and blobs, verifying total length and whole-container
    /// checksum — any catalog/blob drift is [`StoreError::StaleCatalog`].
    pub fn get_container(&self, id: &str) -> Result<Vec<u8>, StoreError> {
        let catalog = self.catalog(id)?;
        self.reassemble(&catalog)
    }

    /// [`get_container`](Self::get_container) from an already-loaded
    /// catalog.
    pub fn reassemble(&self, catalog: &Catalog) -> Result<Vec<u8>, StoreError> {
        let _span = memgaze_obs::span("store.reassemble");
        // The catalog's length is checked below, not trusted with an
        // allocation: the buffer grows toward it as blobs arrive.
        let declared = usize::try_from(catalog.container_len).unwrap_or(usize::MAX);
        let mut out = catalog.header_bytes.clone();
        for f in &catalog.frames {
            let payload = self.get_blob(f.hash)?;
            if payload.len() as u64 != f.len {
                return Err(StoreError::StaleCatalog {
                    detail: format!(
                        "frame {:#018x} is {} bytes, catalog records {}",
                        f.hash,
                        payload.len(),
                        f.len
                    ),
                });
            }
            grow_toward(&mut out, varint_len(f.len) + payload.len(), declared);
            put_varint(&mut out, f.len);
            out.extend_from_slice(&payload);
        }
        grow_toward(&mut out, catalog.trailer_bytes.len(), declared);
        out.extend_from_slice(&catalog.trailer_bytes);
        if out.len() as u64 != catalog.container_len {
            return Err(StoreError::StaleCatalog {
                detail: format!(
                    "reassembled {} bytes, catalog records {}",
                    out.len(),
                    catalog.container_len
                ),
            });
        }
        let got = fnv1a64(&out);
        if got != catalog.container_checksum {
            return Err(StoreError::StaleCatalog {
                detail: format!(
                    "reassembled checksum {got:#018x} != recorded {:#018x}",
                    catalog.container_checksum
                ),
            });
        }
        Ok(out)
    }

    /// List stored traces, sorted by id.
    pub fn ls(&self) -> Result<Vec<TraceEntry>, StoreError> {
        let dir = self.config.root.join("catalog");
        let mut out = Vec::new();
        for entry in
            fs::read_dir(&dir).map_err(|e| io_err(format!("listing {}", dir.display()), e))?
        {
            let entry = entry.map_err(|e| io_err("reading catalog dir entry", e))?;
            let name = entry.file_name();
            let Some(id) = name.to_str().and_then(|n| n.strip_suffix(".mgzc")) else {
                continue;
            };
            let catalog = self.catalog(id)?;
            out.push(TraceEntry {
                id: id.to_string(),
                frames: catalog.frames.len(),
                samples: catalog.total_samples(),
                payload_bytes: catalog.payload_bytes(),
                workload: catalog.meta().map(|m| m.workload).unwrap_or_default(),
            });
        }
        out.sort_by(|a, b| a.id.cmp(&b.id));
        Ok(out)
    }

    /// Remove blobs no catalog references, and cached results for
    /// frames no catalog references.
    pub fn gc(&self) -> Result<GcReport, StoreError> {
        let _span = memgaze_obs::span("store.gc");
        let mut live = std::collections::BTreeSet::new();
        for entry in self.ls()? {
            for f in self.catalog(&entry.id)?.frames {
                live.insert(f.hash);
            }
        }
        let mut report = GcReport::default();
        let blobs = self.config.root.join("blobs");
        for shard_dir in read_dir_sorted(&blobs)? {
            if !shard_dir.is_dir() {
                continue;
            }
            for path in read_dir_sorted(&shard_dir)? {
                let Some(hash) = hash_from_path(&path, ".blob") else {
                    continue;
                };
                if live.contains(&hash) {
                    continue;
                }
                let size = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                fs::remove_file(&path)
                    .map_err(|e| io_err(format!("removing {}", path.display()), e))?;
                report.blobs_removed += 1;
                report.blob_bytes_reclaimed += size;
            }
        }
        let results = self.config.root.join("results");
        for cfg_dir in read_dir_sorted(&results)? {
            if !cfg_dir.is_dir() {
                continue;
            }
            for path in read_dir_sorted(&cfg_dir)? {
                let Some(hash) = hash_from_path(&path, ".mgzp") else {
                    // Merged-range entries are keyed by frame-hash
                    // sequences gc cannot trace to live catalogs;
                    // they are pure derived caches, so gc drops them
                    // and the next analyze rebuilds what it needs.
                    if path.extension().is_some_and(|e| e == "mgzr") {
                        fs::remove_file(&path)
                            .map_err(|e| io_err(format!("removing {}", path.display()), e))?;
                        report.results_removed += 1;
                    }
                    continue;
                };
                if live.contains(&hash) {
                    continue;
                }
                fs::remove_file(&path)
                    .map_err(|e| io_err(format!("removing {}", path.display()), e))?;
                report.results_removed += 1;
            }
        }
        Ok(report)
    }

    /// Hash of everything that determines an analysis *result* for a
    /// frame: block sizes, locality sizes, annotations, symbols. The
    /// thread count is deliberately pinned to 1 before hashing —
    /// results are thread-invariant, so runs at different parallelism
    /// share one cache namespace.
    pub fn config_hash(
        analysis: &AnalysisConfig,
        locality_sizes: &[u64],
        annots: &AuxAnnotations,
        symbols: &SymbolTable,
    ) -> u64 {
        let spec = WorkerSpec {
            footprint_block: analysis.footprint_block,
            reuse_block: analysis.reuse_block,
            threads: 1,
            locality_sizes: locality_sizes.to_vec(),
            annots: annots.clone(),
            symbols: symbols.clone(),
        };
        fnv1a64(&spec.encode())
    }

    /// Analyze a contiguous frame range of a stored trace into a
    /// mergeable [`PartialReport`], result caches first: the
    /// merged-range tier (the exact fold of this frame-hash sequence,
    /// what a repeat analysis or a retried fan-out range asks for),
    /// then the per-frame tier for whatever overlaps. This is the unit
    /// the store-backed fan-out workers run; returns the partial plus
    /// (cache hits, misses).
    pub fn analyze_frames(
        &self,
        catalog: &Catalog,
        frames: Range<usize>,
        annots: &AuxAnnotations,
        symbols: &SymbolTable,
        analysis: AnalysisConfig,
        locality_sizes: &[u64],
    ) -> Result<(PartialReport, usize, usize), StoreError> {
        let mut span = memgaze_obs::span("store.analyze_frames");
        if span.is_active() {
            span.set_label(format!(
                "{} frames {}..{}",
                catalog.trace_id, frames.start, frames.end
            ));
        }
        let cfg_hash = Self::config_hash(&analysis, locality_sizes, annots, symbols);
        // Merged-range tier first: the exact fold of this frame-hash
        // sequence may already be cached (a re-analysis of an unchanged
        // trace, or a retried fan-out range), skipping both the
        // per-frame reads and the fold itself. The key is the hash
        // sequence, not the indices, so identical content anywhere in
        // any trace shares the entry.
        let range_hash = frames
            .end
            .checked_sub(frames.start)
            .filter(|&n| n > 1)
            .and_then(|_| {
                let fs = catalog.frames.get(frames.clone())?;
                let mut key = Vec::with_capacity(fs.len() * 8);
                for f in fs {
                    key.extend_from_slice(&f.hash.to_le_bytes());
                }
                Some(fnv1a64(&key))
            });
        if let Some(rh) = range_hash {
            let cached = fs::read(self.range_result_path(cfg_hash, rh))
                .ok()
                .and_then(|d| PartialReport::decode(&d).ok());
            if let Some(p) = cached {
                let n = frames.end - frames.start;
                memgaze_obs::counter!("store.result_hits").add(n as u64);
                return Ok((p, n, 0));
            }
        }
        let mut parts: Vec<PartialReport> = Vec::with_capacity(frames.len());
        let mut hits = 0usize;
        let mut misses = 0usize;
        for i in frames {
            let Some(f) = catalog.frames.get(i) else {
                return Err(StoreError::StaleCatalog {
                    detail: format!(
                        "frame {i} out of range ({} cataloged)",
                        catalog.frames.len()
                    ),
                });
            };
            let path = self.result_path(cfg_hash, f.hash);
            // A cached result that fails to decode is treated as a miss
            // and overwritten — the cache can never wedge an analysis.
            let cached = fs::read(&path)
                .ok()
                .and_then(|d| PartialReport::decode(&d).ok());
            let partial = match cached {
                Some(p) => {
                    hits += 1;
                    memgaze_obs::counter!("store.result_hits").add(1);
                    p
                }
                None => {
                    misses += 1;
                    memgaze_obs::counter!("store.result_misses").add(1);
                    let payload = self.get_blob(f.hash)?;
                    let samples = decode_frame_payload(&payload)?;
                    let mut sa = StreamingAnalyzer::new(annots, symbols, analysis)
                        .with_locality_sizes(locality_sizes);
                    sa.ingest_shard(&samples);
                    let p = sa.into_partial();
                    write_atomic(&path, &p.encode())?;
                    p
                }
            };
            parts.push(partial);
        }
        // One partial per frame makes a sequential fold quadratic in
        // the per-merge index rebuilds; merge_many folds them exactly
        // with one rebuild.
        let merged = PartialReport::merge_many(
            parts,
            analysis.footprint_block,
            analysis.reuse_block,
            locality_sizes,
        )?;
        if let Some(rh) = range_hash {
            write_atomic(&self.range_result_path(cfg_hash, rh), &merged.encode())?;
        }
        Ok((merged, hits, misses))
    }

    /// Analyze a whole stored trace. The report is bit-identical to a
    /// resident streaming pass over the original container with the
    /// same configuration, whichever mix of caches served it.
    pub fn analyze(
        &self,
        id: &str,
        annots: &AuxAnnotations,
        symbols: &SymbolTable,
        analysis: AnalysisConfig,
        locality_sizes: &[u64],
    ) -> Result<StoreAnalysis, StoreError> {
        let catalog = self.catalog(id)?;
        let meta = catalog.meta()?;
        let n = catalog.frames.len();
        let (merged, result_hits, result_misses) =
            self.analyze_frames(&catalog, 0..n, annots, symbols, analysis, locality_sizes)?;
        Ok(StoreAnalysis {
            report: merged.finish(&meta),
            meta,
            result_hits,
            result_misses,
        })
    }
}

/// Trace ids become file names; restrict them to a safe alphabet.
pub fn validate_trace_id(id: &str) -> Result<(), StoreError> {
    let ok = !id.is_empty()
        && id.len() <= 128
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
        && !id.starts_with('.');
    if ok {
        Ok(())
    } else {
        Err(StoreError::InvalidTraceId { id: id.to_string() })
    }
}

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write-then-rename so concurrent readers (and crashed writers) never
/// see a torn object.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let parent = path.parent().expect("store object paths have parents");
    fs::create_dir_all(parent).map_err(|e| io_err(format!("creating {}", parent.display()), e))?;
    let tmp = parent.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, bytes).map_err(|e| io_err(format!("writing {}", tmp.display()), e))?;
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        io_err(format!("renaming into {}", path.display()), e)
    })
}

/// Directory entries in sorted order; a missing directory is empty.
fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let rd = match fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(format!("listing {}", dir.display()), e)),
    };
    let mut out = Vec::new();
    for entry in rd {
        out.push(entry.map_err(|e| io_err("reading dir entry", e))?.path());
    }
    out.sort();
    Ok(out)
}

/// Parse `<16 hex>.ext` back into the hash it names.
fn hash_from_path(path: &Path, ext: &str) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let hex = name.strip_suffix(ext)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::{encode_sharded_indexed, Access, Sample, SampledTrace};

    fn mk_trace(samples: usize, w: usize, salt: u64) -> SampledTrace {
        let mut t = SampledTrace::new(TraceMeta::new("store-unit", 10_000, 16 << 10));
        t.meta.total_loads = (samples * 10_000) as u64;
        t.meta.total_instrumented_loads = (samples * 100) as u64;
        for s in 0..samples {
            let base = (s as u64) * 10_000;
            let accesses = (0..w)
                .map(|i| {
                    Access::new(
                        0x400u64 + (i as u64 % 5) * 4,
                        0x10_0000u64 + ((i as u64 + salt) % 13) * 64,
                        base + i as u64,
                    )
                })
                .collect();
            t.push_sample(Sample::new(accesses, base + w as u64))
                .unwrap();
        }
        t
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "memgaze-store-unit-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_roundtrip_and_dedup() {
        let root = tmp_root("roundtrip");
        let store = TraceStore::open(StoreConfig::new(&root)).unwrap();
        let t = mk_trace(10, 17, 0);
        let (container, index) = encode_sharded_indexed(&t, 3);
        let sy = SymbolTable::new();
        let receipt = store.put("alpha", &container, &index, &sy).unwrap();
        assert_eq!(receipt.frames, 4);
        assert_eq!(receipt.new_blobs, 4);
        assert_eq!(receipt.dedup_blobs, 0);
        assert!(receipt.compression_ratio() > 0.0);
        // Byte-identical reassembly.
        assert_eq!(store.get_container("alpha").unwrap(), container);
        // Re-put is pure dedup.
        let again = store.put("alpha", &container, &index, &sy).unwrap();
        assert_eq!(again.new_blobs, 0);
        assert_eq!(again.dedup_blobs, 4);
        // Same trace under another id shares every blob.
        let twin = store.put("beta", &container, &index, &sy).unwrap();
        assert_eq!(twin.new_blobs, 0);
        let ids: Vec<String> = store.ls().unwrap().into_iter().map(|e| e.id).collect();
        assert_eq!(ids, vec!["alpha".to_string(), "beta".to_string()]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_and_invalid_ids_are_typed() {
        let root = tmp_root("ids");
        let store = TraceStore::open(StoreConfig::new(&root)).unwrap();
        assert!(matches!(
            store.catalog("nope"),
            Err(StoreError::MissingTrace { .. })
        ));
        for bad in ["", "a/b", "..", ".hidden", "x y"] {
            assert!(
                matches!(store.catalog(bad), Err(StoreError::InvalidTraceId { .. })),
                "{bad:?} must be invalid"
            );
        }
        assert!(matches!(
            store.get_blob(0xdead_beef),
            Err(StoreError::MissingBlob { .. })
        ));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn gc_reclaims_unreferenced_objects() {
        let root = tmp_root("gc");
        let store = TraceStore::open(StoreConfig::new(&root)).unwrap();
        let sy = SymbolTable::new();
        let a = mk_trace(6, 9, 0);
        let b = mk_trace(6, 9, 7); // different addresses ⇒ different blobs
        let (ca, ia) = encode_sharded_indexed(&a, 2);
        let (cb, ib) = encode_sharded_indexed(&b, 2);
        store.put("a", &ca, &ia, &sy).unwrap();
        store.put("b", &cb, &ib, &sy).unwrap();
        // Analyze "b" so it has cached results, then drop its catalog.
        store
            .analyze(
                "b",
                &AuxAnnotations::new(),
                &sy,
                AnalysisConfig::default(),
                &[64],
            )
            .unwrap();
        fs::remove_file(root.join("catalog/b.mgzc")).unwrap();
        let report = store.gc().unwrap();
        assert_eq!(report.blobs_removed, 3);
        assert!(report.blob_bytes_reclaimed > 0);
        // "b"'s three per-frame results plus the merged-range entry its
        // analyze persisted (range entries are always dropped by gc).
        assert_eq!(report.results_removed, 4);
        // "a" is untouched and still reassembles.
        assert_eq!(store.get_container("a").unwrap(), ca);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn analyze_is_cached_and_stable() {
        let root = tmp_root("analyze");
        let store = TraceStore::open(StoreConfig::new(&root)).unwrap();
        let t = mk_trace(8, 21, 3);
        let (container, index) = encode_sharded_indexed(&t, 2);
        let sy = SymbolTable::new();
        let annots = AuxAnnotations::new();
        store.put("tr", &container, &index, &sy).unwrap();
        let cfg = AnalysisConfig::default();
        let sizes = [16u64, 64, 256];
        let cold = store.analyze("tr", &annots, &sy, cfg, &sizes).unwrap();
        assert_eq!((cold.result_hits, cold.result_misses), (0, 4));
        let warm = store.analyze("tr", &annots, &sy, cfg, &sizes).unwrap();
        assert_eq!((warm.result_hits, warm.result_misses), (4, 0));
        assert_eq!(cold.report, warm.report);
        // Bit-identical to the resident streaming pass.
        let resident = memgaze_analysis::stream_resident_trace(&t, &annots, &sy, cfg, &sizes, 2);
        assert_eq!(cold.report, resident);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_blob_read_is_typed_and_stale_catalog_detected() {
        let root = tmp_root("corrupt");
        let store = TraceStore::open(StoreConfig::new(&root)).unwrap();
        let t = mk_trace(4, 12, 0);
        let (container, index) = encode_sharded_indexed(&t, 2);
        let sy = SymbolTable::new();
        store.put("tr", &container, &index, &sy).unwrap();
        let catalog = store.catalog("tr").unwrap();
        let victim = store.blob_path(catalog.frames[1].hash);
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&victim, &bytes).unwrap();
        assert!(matches!(
            store.get_blob(catalog.frames[1].hash),
            Err(StoreError::CorruptBlob { .. })
        ));
        assert!(matches!(
            store.get_container("tr"),
            Err(StoreError::CorruptBlob { .. })
        ));
        fs::remove_dir_all(&root).unwrap();
    }
}
