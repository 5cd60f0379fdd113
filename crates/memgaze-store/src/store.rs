//! The content-addressed trace store.
//!
//! On-disk layout under one root directory:
//!
//! ```text
//! root/
//!   blobs/aa/aabbcc...16hex.blob      compressed frame payloads (MGZB)
//!   catalog/<trace-id>.mgzc           per-trace catalogs (MGZC)
//!   results/<cfg-16hex>/<key-16hex>.mgzr   one cached fold per trace
//! ```
//!
//! Two tiers answer reads, cheapest first:
//!
//! 1. the **result cache** — one [`PartialReport`] per trace, the fold
//!    of all its frames, keyed by (analyzer config hash, hash of the
//!    trace's frame content hashes in order), so re-analysis of an
//!    unchanged trace under an unchanged configuration is a file read
//!    and a decode, no sample ever touched;
//! 2. the **blob tier** — checksummed, block-compressed files fetched
//!    by content hash, which a miss folds through one analyzer. Keeping
//!    hot blobs in memory is the page cache's job: an in-process LRU
//!    over decoded payloads measured 1.10x on a re-analysis the result
//!    cache answers 27x faster (DESIGN.md §15).
//!
//! Content addressing makes `put` deduplicating (identical frames in
//! any trace share one blob) and makes every read self-verifying: bytes
//! that do not hash to their address are a typed [`StoreError`], never
//! returned data. All writes are atomic (temp file + rename), so a
//! crashed `put` leaves either the old object or the new one, never a
//! torn file.

use crate::blob::{decode_blob, encode_blob};
use crate::catalog::{frame_payload, Catalog, FrameSummary};
use crate::error::{io_err, StoreError};
use memgaze_analysis::streaming::StreamingReport;
use memgaze_analysis::{AnalysisConfig, PartialReport, StreamingAnalyzer};
use memgaze_model::annot::AuxAnnotations;
use memgaze_model::stream::decode_frame_payload;
use memgaze_model::wire::{self, grow_toward, put_str, put_u64_le, put_varint, varint_len, zigzag};
use memgaze_model::{fnv1a64, BlockSize, FrameIndex, LoadClass, SymbolTable};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The canonical encoding [`TraceStore::config_hash`] hashes: the
/// block sizes, the locality sizes, every annotation and every symbol,
/// in the frame the fan-out worker spec (`MGZS` v3) once used, FNV-1a
/// trailer included. Nothing decodes it; it keeps those bytes exactly
/// so result caches written under the spec keep their keys (pinned in
/// `tests/wire_golden.rs`).
fn config_bytes(
    analysis: &AnalysisConfig,
    locality_sizes: &[u64],
    annots: &AuxAnnotations,
    symbols: &SymbolTable,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    wire::put_header(&mut buf, b"MGZS", 3);
    buf.push(analysis.footprint_block.log2());
    buf.push(analysis.reuse_block.log2());
    put_u64_runs(&mut buf, locality_sizes);
    put_varint(&mut buf, annots.len() as u64);
    for (ip, an) in annots.iter() {
        put_varint(&mut buf, ip.raw());
        buf.push(match an.class {
            LoadClass::Constant => 0,
            LoadClass::Strided => 1,
            LoadClass::Irregular => 2,
        });
        put_varint(&mut buf, u64::from(an.implied_const));
        buf.push(an.scale);
        put_varint(&mut buf, zigzag(an.offset));
        buf.push(u8::from(an.two_source));
        put_varint(&mut buf, u64::from(an.func.0));
        put_varint(&mut buf, u64::from(an.src_line));
    }
    put_varint(&mut buf, symbols.len() as u64);
    for f in symbols.functions() {
        put_str(&mut buf, &f.name);
        put_varint(&mut buf, f.lo.raw());
        put_varint(&mut buf, f.hi.raw());
        put_str(&mut buf, &f.src_file);
    }
    let trailer = fnv1a64(&buf);
    put_u64_le(&mut buf, trailer);
    buf
}

/// A `u64` list as its length, its first element, then each maximal run
/// of equal wrapping deltas: four or more as `0, zigzag(d), count`,
/// shorter ones as one `zigzag(d) + 1` per element — the `MGZP` list
/// codec's layout.
fn put_u64_runs(buf: &mut Vec<u8>, vs: &[u64]) {
    put_varint(buf, vs.len() as u64);
    let Some(&first) = vs.first() else {
        return;
    };
    put_varint(buf, first);
    let mut deltas = vs
        .iter()
        .zip(vs.iter().skip(1))
        .map(|(a, b)| b.wrapping_sub(*a))
        .peekable();
    while let Some(delta) = deltas.next() {
        let mut run = 1u64;
        while deltas.next_if_eq(&delta).is_some() {
            run += 1;
        }
        let token = zigzag(delta as i64);
        if run >= 4 {
            put_varint(buf, 0);
            put_varint(buf, token);
            put_varint(buf, run);
        } else {
            for _ in 0..run {
                put_varint(buf, token.wrapping_add(1));
            }
        }
    }
}

/// Configuration for opening a [`TraceStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Root directory; created (with parents) on open.
    root: PathBuf,
    /// Block size for catalog reuse summaries.
    summary_block: BlockSize,
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
    /// Cached results removed (traces no longer stored).
    pub results_removed: usize,
}

/// Outcome of a store-backed analysis pass.
#[derive(Debug, Clone)]
pub struct StoreAnalysis {
    /// The report — bit-identical to a resident streaming pass
    /// over the same container and configuration.
    pub report: StreamingReport,
    /// Frames served from the result cache: all of them or none.
    pub result_hits: usize,
    /// Frames analyzed from blobs: all of them or none.
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

/// A content-addressed store of trace shards with a per-trace result
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

    /// `blobs/<top byte, 2 hex>/<hash, 16 hex>.blob`.
    fn blob_path(&self, hash: u64) -> PathBuf {
        self.config
            .root
            .join("blobs")
            .join(format!("{:02x}", hash >> 56))
            .join(format!("{hash:016x}.blob"))
    }

    fn catalog_path(&self, id: &str) -> Result<PathBuf, StoreError> {
        validate_trace_id(id)?;
        Ok(self.config.root.join("catalog").join(format!("{id}.mgzc")))
    }

    /// `results/<config, 16 hex>/<trace key, 16 hex>.mgzr`: the fold of
    /// a whole trace under one analyzer configuration.
    fn result_path(&self, config_hash: u64, trace_key: u64) -> PathBuf {
        self.config
            .root
            .join("results")
            .join(format!("{config_hash:016x}"))
            .join(format!("{trace_key:016x}.mgzr"))
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
        for (i, (e, f)) in index.entries.iter().zip(&catalog.frames).enumerate() {
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
                    let framed = encode_blob(frame_payload(container, e, i)?);
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
        Catalog::decode(id, &self.catalog_bytes(id)?)
    }

    /// The catalog for `id` without its frames' summaries
    /// ([`Catalog::decode_without_summaries`]): what reassembly, `ls`,
    /// `gc` and a whole-trace analyze read.
    fn catalog_frames(&self, id: &str) -> Result<Catalog, StoreError> {
        Catalog::decode_without_summaries(id, &self.catalog_bytes(id)?)
    }

    /// The stored bytes of `id`'s catalog.
    fn catalog_bytes(&self, id: &str) -> Result<Vec<u8>, StoreError> {
        let path = self.catalog_path(id)?;
        fs::read(&path).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => StoreError::MissingTrace { id: id.to_string() },
            _ => io_err(format!("reading {}", path.display()), e),
        })
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
        let catalog = self.catalog_frames(id)?;
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
        let got = catalog.sum.of(&out);
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
        let mut out = Vec::new();
        self.each_catalog(|id, catalog| {
            out.push(TraceEntry {
                id: id.to_string(),
                frames: catalog.frames.len(),
                samples: catalog.total_samples(),
                payload_bytes: catalog.payload_bytes(),
                workload: catalog.meta().map(|m| m.workload).unwrap_or_default(),
            })
        })?;
        out.sort_by(|a, b| a.id.cmp(&b.id));
        Ok(out)
    }

    /// Decode every stored catalog once, in directory order and without
    /// its frames' summaries, and hand it to `f` with its trace id.
    fn each_catalog(&self, mut f: impl FnMut(&str, &Catalog)) -> Result<(), StoreError> {
        let dir = self.config.root.join("catalog");
        for entry in
            fs::read_dir(&dir).map_err(|e| io_err(format!("listing {}", dir.display()), e))?
        {
            let entry = entry.map_err(|e| io_err("reading catalog dir entry", e))?;
            let name = entry.file_name();
            let Some(id) = name.to_str().and_then(|n| n.strip_suffix(".mgzc")) else {
                continue;
            };
            f(id, &self.catalog_frames(id)?);
        }
        Ok(())
    }

    /// Remove blobs no catalog references, and cached results no
    /// catalog's frame-hash sequence keys.
    pub fn gc(&self) -> Result<GcReport, StoreError> {
        let _span = memgaze_obs::span("store.gc");
        let mut live = std::collections::BTreeSet::new();
        let mut live_keys = std::collections::BTreeSet::new();
        self.each_catalog(|_, catalog| {
            live_keys.insert(trace_key(&catalog.frames));
            live.extend(catalog.frames.iter().map(|f| f.hash));
        })?;
        let root = &self.config.root;
        let (blobs_removed, blob_bytes_reclaimed) = sweep(&root.join("blobs"), |path| {
            hash_from_path(path, ".blob").is_some_and(|hash| !live.contains(&hash))
        })?;
        // The config half of a key needs the annotations and symbols
        // only an analyze is given, so an entry of a live trace survives
        // under every configuration. Per-frame `.mgzp` entries are what
        // an older store cached; nothing reads them.
        let (results_removed, _) = sweep(&root.join("results"), |path| {
            match hash_from_path(path, ".mgzr") {
                Some(key) => !live_keys.contains(&key),
                None => path.extension().is_some_and(|e| e == "mgzp"),
            }
        })?;
        Ok(GcReport {
            blobs_removed,
            blob_bytes_reclaimed,
            results_removed,
        })
    }

    /// Hash of everything that determines an analysis *result* for a
    /// frame: block sizes, locality sizes, annotations, symbols. It is
    /// the FNV-1a-64 of their canonical encoding (`config_bytes`).
    pub fn config_hash(
        analysis: &AnalysisConfig,
        locality_sizes: &[u64],
        annots: &AuxAnnotations,
        symbols: &SymbolTable,
    ) -> u64 {
        fnv1a64(&config_bytes(analysis, locality_sizes, annots, symbols))
    }

    /// Analyze a whole stored trace: every frame into one
    /// [`PartialReport`], finished with the catalog's meta. The result
    /// cache holds the fold of the trace's frame-hash sequence (a repeat
    /// analysis of an unchanged trace); on a miss one analyzer ingests
    /// every frame's verified blob and the fold is cached. The report is
    /// bit-identical to a resident streaming pass over the original
    /// container with the same configuration, whichever tier served it.
    pub fn analyze(
        &self,
        id: &str,
        annots: &AuxAnnotations,
        symbols: &SymbolTable,
        analysis: AnalysisConfig,
        locality_sizes: &[u64],
    ) -> Result<StoreAnalysis, StoreError> {
        let catalog = self.catalog_frames(id)?;
        let meta = catalog.meta()?;
        let n = catalog.frames.len();
        let mut span = memgaze_obs::span("store.analyze_frames");
        if span.is_active() {
            span.set_label(format!("{id} ({n} frames)"));
        }
        let cfg_hash = Self::config_hash(&analysis, locality_sizes, annots, symbols);
        let path = self.result_path(cfg_hash, trace_key(&catalog.frames));
        // A cached result that fails to decode is treated as a miss and
        // overwritten — the cache can never wedge an analysis.
        let cached = fs::read(&path)
            .ok()
            .and_then(|d| PartialReport::decode(&d).ok());
        let (partial, result_hits, result_misses) = match cached {
            Some(p) => {
                memgaze_obs::counter!("store.result_hits").add(n as u64);
                (p, n, 0)
            }
            None => {
                memgaze_obs::counter!("store.result_misses").add(n as u64);
                let mut sa = StreamingAnalyzer::new(annots, symbols, analysis)
                    .with_locality_sizes(locality_sizes);
                for f in &catalog.frames {
                    sa.ingest_shard(&decode_frame_payload(&self.get_blob(f.hash)?)?);
                }
                let p = sa.into_partial();
                write_atomic(&path, &p.encode())?;
                (p, 0, n)
            }
        };
        Ok(StoreAnalysis {
            report: partial.finish(&meta),
            result_hits,
            result_misses,
        })
    }
}

/// A trace's result-cache key: the FNV-1a-64 of its frame content
/// hashes in order, so identical content under any id shares an entry.
fn trace_key(frames: &[FrameSummary]) -> u64 {
    let mut key = Vec::with_capacity(frames.len() * 8);
    for f in frames {
        key.extend_from_slice(&f.hash.to_le_bytes());
    }
    fnv1a64(&key)
}

/// Trace ids become file names; restrict them to a safe alphabet.
fn validate_trace_id(id: &str) -> Result<(), StoreError> {
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
    write_atomic_with(path, |tmp| fs::write(tmp, bytes))
}

/// [`write_atomic`] with the write of the temporary file given: `write`
/// fills the file it is handed, which is then renamed onto `path`.
fn write_atomic_with(
    path: &Path,
    write: impl FnOnce(&Path) -> std::io::Result<()>,
) -> Result<(), StoreError> {
    let parent = path.parent().ok_or_else(|| {
        io_err(
            format!("writing {}", path.display()),
            std::io::ErrorKind::InvalidInput.into(),
        )
    })?;
    fs::create_dir_all(parent).map_err(|e| io_err(format!("creating {}", parent.display()), e))?;
    let tmp = parent.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    // A failed write (ENOSPC, EIO) can leave a partial file, which no
    // sweep matches: remove it whichever step failed.
    write(&tmp)
        .map_err(|e| io_err(format!("writing {}", tmp.display()), e))
        .and_then(|()| {
            fs::rename(&tmp, path)
                .map_err(|e| io_err(format!("renaming into {}", path.display()), e))
        })
        .inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
}

/// Remove every file one directory below `top` that `dead` picks;
/// returns the files and bytes removed.
fn sweep(top: &Path, dead: impl Fn(&Path) -> bool) -> Result<(usize, u64), StoreError> {
    let mut removed = (0, 0);
    for dir in read_dir_sorted(top)? {
        if !dir.is_dir() {
            continue;
        }
        for path in read_dir_sorted(&dir)?.into_iter().filter(|p| dead(p)) {
            let size = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            fs::remove_file(&path)
                .map_err(|e| io_err(format!("removing {}", path.display()), e))?;
            removed = (removed.0 + 1, removed.1 + size);
        }
    }
    Ok(removed)
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
    use memgaze_model::{encode_sharded_indexed, Access, Sample, SampledTrace, TraceMeta};

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
        // Analyze both so each has a cached result, then drop "b"'s
        // catalog.
        let analyze = |id: &str| {
            let r = store
                .analyze(
                    id,
                    &AuxAnnotations::new(),
                    &sy,
                    AnalysisConfig::default(),
                    &[64],
                )
                .unwrap();
            (r.result_hits, r.result_misses)
        };
        assert_eq!(analyze("a"), (0, 3));
        assert_eq!(analyze("b"), (0, 3));
        fs::remove_file(root.join("catalog/b.mgzc")).unwrap();
        let report = store.gc().unwrap();
        assert_eq!(report.blobs_removed, 3);
        assert!(report.blob_bytes_reclaimed > 0);
        // "b"'s one entry goes; "a"'s survives and serves its next analyze.
        assert_eq!(report.results_removed, 1);
        assert_eq!(analyze("a"), (3, 0));
        // A per-frame entry an older store left is dead weight.
        let cfg_dir = read_dir_sorted(&root.join("results")).unwrap().remove(0);
        fs::write(cfg_dir.join(format!("{:016x}.mgzp", 7)), b"old").unwrap();
        assert_eq!(store.gc().unwrap().results_removed, 1);
        assert_eq!(analyze("a"), (3, 0));
        // "a" is untouched and still reassembles.
        assert_eq!(store.get_container("a").unwrap(), ca);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn one_cached_fold_per_trace() {
        let root = tmp_root("one-fold");
        let store = TraceStore::open(StoreConfig::new(&root)).unwrap();
        let sy = SymbolTable::new();
        let annots = AuxAnnotations::new();
        let cfg = AnalysisConfig::default();
        // One frame and three frames.
        for (id, samples, salt) in [("one", 2, 0), ("three", 6, 5)] {
            let (container, index) = encode_sharded_indexed(&mk_trace(samples, 11, salt), 2);
            store.put(id, &container, &index, &sy).unwrap();
        }
        let counts = |id: &str| {
            let r = store.analyze(id, &annots, &sy, cfg, &[64]).unwrap();
            (r.result_hits, r.result_misses)
        };
        assert_eq!(counts("one"), (0, 1));
        assert_eq!(counts("three"), (0, 3));
        let cfg_dirs = read_dir_sorted(&root.join("results")).unwrap();
        assert_eq!(cfg_dirs.len(), 1);
        let entries = read_dir_sorted(&cfg_dirs[0]).unwrap();
        let with_ext = |ext: &str| {
            entries
                .iter()
                .filter(|p| p.extension().is_some_and(|e| e == ext))
                .count()
        };
        assert_eq!((with_ext("mgzr"), with_ext("mgzp")), (2, 0));
        assert_eq!(entries.len(), 2);
        assert_eq!(counts("one"), (1, 0));
        assert_eq!(counts("three"), (3, 0));
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

    #[test]
    fn a_failed_write_leaves_no_temporary_file() {
        let root = tmp_root("failed-write");
        let dir = root.join("objects");
        let files = |dir: &Path| read_dir_sorted(dir).unwrap();
        // The write fails after some bytes reached the file, as a full
        // disk fails it.
        let err = write_atomic_with(&dir.join("a.blob"), |tmp| {
            fs::write(tmp, b"partial")?;
            Err(std::io::Error::other("no space left on device"))
        });
        assert!(matches!(err, Err(StoreError::Io { .. })), "{err:?}");
        assert_eq!(files(&dir), Vec::<PathBuf>::new());
        // The rename fails: the target is a directory that is not empty.
        let target = dir.join("b.blob");
        fs::create_dir_all(target.join("inside")).unwrap();
        assert!(write_atomic(&target, b"whole").is_err());
        write_atomic(&dir.join("c.blob"), b"whole").unwrap();
        assert_eq!(fs::read(dir.join("c.blob")).unwrap(), b"whole");
        assert_eq!(files(&dir), [target, dir.join("c.blob")]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn u64_lists_encode_as_delta_runs() {
        let encode = |vs: &[u64]| {
            let mut buf = Vec::new();
            put_u64_runs(&mut buf, vs);
            buf
        };
        assert_eq!(encode(&[]), [0]);
        assert_eq!(encode(&[5]), [1, 5]);
        // Deltas +2 and -1: one `zigzag + 1` token each.
        assert_eq!(encode(&[1, 3, 2]), [3, 1, 5, 2]);
        // Three equal deltas stay tokens; four collapse into an escape.
        assert_eq!(encode(&[0, 8, 16, 24]), [4, 0, 17, 17, 17]);
        assert_eq!(encode(&[0, 8, 16, 24, 32, 33]), [6, 0, 0, 16, 4, 3]);
    }
}
