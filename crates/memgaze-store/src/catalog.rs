//! Persistent per-trace catalog (MGZC v1).
//!
//! The catalog is the store's promotion of the in-memory
//! [`FrameIndex`] sidecar to a durable, queryable record: for each
//! trace it holds the ordered list of frame content hashes (the blob
//! addresses) plus per-frame *summaries* — sample/load counts, time
//! range, address range, per-block reuse rows at a fixed summary block
//! size, and per-function load counts. Region, time-range and
//! per-function queries are answered from these summaries alone; the
//! blobs are only touched when samples themselves are needed.
//!
//! Byte-identical reassembly is part of the contract: the catalog
//! stores the original container's header and trailer bytes verbatim,
//! together with the container's total length and whole-container
//! checksum, so `header || (varint len || payload)* || trailer` can be
//! re-emitted and *verified* — any drift between catalog and blobs
//! surfaces as [`StoreError::StaleCatalog`], never as silently wrong
//! bytes.
//!
//! ```text
//! magic "MGZC" | version u16 = 1
//! | trace_id string | summary_block log2 u8
//! | header_bytes blob | trailer_bytes blob
//! | container_len varint | container_checksum u64 LE
//! | total_loads varint | total_instrumented_loads varint
//! | func_names: count varint, then strings
//! | frames: count varint, then per frame:
//! |   content_hash u64 LE | len varint | samples varint | loads varint
//! |   time flag u8 [lo varint, span varint]
//! |   addr flag u8 [lo varint, span varint]
//! |   reuse rows: count varint, then delta-coded block + 4 stat varints
//! |   func loads: count varint, then (name index varint, loads varint)
//! | fnv1a64(all preceding bytes) u64 LE
//! ```

use crate::blob::content_hash;
use crate::error::StoreError;
use memgaze_analysis::BlockReuse;
use memgaze_model::stream::decode_frame_payload;
use memgaze_model::wire::{
    self, add_delta, put_bytes, put_str, put_u64_le, put_varint, Reader, WireError,
};
use memgaze_model::{
    fnv1a64, BlockSize, FrameIndex, FrameIndexEntry, FunctionSym, Ip, ModelError, SymbolTable,
    TraceMeta,
};
use std::collections::BTreeMap;

const CATALOG_MAGIC: &[u8; 4] = b"MGZC";
const CATALOG_VERSION: u16 = 1;

/// Summary of one stored frame — everything the query engine can know
/// about the frame without fetching its blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSummary {
    /// Content address of the frame's payload blob.
    pub hash: u64,
    /// Payload length in bytes (uncompressed).
    pub len: u64,
    /// Samples in the frame.
    pub samples: u64,
    /// Recorded accesses (observed loads) in the frame.
    pub loads: u64,
    /// Inclusive logical-time range of the frame's accesses, `None`
    /// for a frame with no accesses.
    pub time_range: Option<(u64, u64)>,
    /// Inclusive data-address range touched by the frame.
    pub addr_range: Option<(u64, u64)>,
    /// Per-block reuse rows at the catalog's summary block size —
    /// [`BlockReuse::raw_rows`] interchange form, blocks strictly
    /// increasing.
    pub reuse_rows: Vec<(u64, [u64; 4])>,
    /// Loads attributed to functions, as (index into
    /// [`Catalog::func_names`], load count) pairs. Accesses whose ip
    /// resolves to no symbol are not listed.
    pub func_loads: Vec<(u32, u64)>,
}

impl FrameSummary {
    /// Whether the frame's time range intersects `[lo, hi)`.
    pub fn overlaps_time(&self, lo: u64, hi: u64) -> bool {
        self.time_range
            .is_some_and(|(tlo, thi)| tlo < hi && thi >= lo)
    }

    /// Whether the frame's address range intersects `[lo, hi)`.
    pub fn overlaps_addr(&self, lo: u64, hi: u64) -> bool {
        self.addr_range
            .is_some_and(|(alo, ahi)| alo < hi && ahi >= lo)
    }
}

/// Durable record of one stored trace: identity, reassembly material,
/// and the per-frame summary table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Catalog {
    /// The trace's store id.
    pub trace_id: String,
    /// Block size the per-frame reuse rows were summarized at.
    pub summary_block: BlockSize,
    /// The original container's header + provisional meta, verbatim.
    pub header_bytes: Vec<u8>,
    /// The original container's terminator + trailer, verbatim.
    pub trailer_bytes: Vec<u8>,
    /// Total container length in bytes.
    pub container_len: u64,
    /// FNV-1a checksum of the whole original container.
    pub container_checksum: u64,
    /// Trailer `total_loads`.
    pub total_loads: u64,
    /// Trailer `total_instrumented_loads`.
    pub total_instrumented_loads: u64,
    /// Function name table referenced by [`FrameSummary::func_loads`].
    pub func_names: Vec<String>,
    /// Frame summaries in container order.
    pub frames: Vec<FrameSummary>,
}

impl Catalog {
    /// Build a catalog by scanning a container/index pair — the same
    /// construction `put` runs, exposed so a catalog can always be
    /// rebuilt from first principles (and so tests can assert rebuild
    /// == stored).
    pub fn scan(
        trace_id: &str,
        container: &[u8],
        index: &FrameIndex,
        symbols: &SymbolTable,
        summary_block: BlockSize,
    ) -> Result<Catalog, StoreError> {
        index.validate(container)?;
        let body_end = index
            .entries
            .last()
            .map_or(Some(index.header_len), |e| e.offset.checked_add(e.len));
        let stale = |detail: &str| ModelError::StaleIndex {
            detail: detail.to_string(),
        };
        let header_bytes = usize::try_from(index.header_len)
            .ok()
            .and_then(|hdr| container.get(..hdr))
            .ok_or_else(|| stale("header length exceeds the container"))?
            .to_vec();
        let trailer_bytes = body_end
            .and_then(|end| usize::try_from(end).ok())
            .and_then(|end| container.get(end..))
            .ok_or_else(|| stale("frames end past the container"))?
            .to_vec();
        let mut funcs = FuncCounter::new(symbols);
        let mut frames = Vec::with_capacity(index.entries.len());
        for (i, e) in index.entries.iter().enumerate() {
            let payload = frame_payload(container, e, i)?;
            let samples = decode_frame_payload(payload).map_err(|err| ModelError::InShard {
                shard: i as u64,
                source: Box::new(err),
            })?;
            let mut loads = 0u64;
            let (mut tlo, mut thi) = (u64::MAX, 0u64);
            let (mut alo, mut ahi) = (u64::MAX, 0u64);
            for s in &samples {
                loads += s.accesses.len() as u64;
                for a in &s.accesses {
                    (tlo, thi) = (tlo.min(a.time), thi.max(a.time));
                    (alo, ahi) = (alo.min(a.addr.0), ahi.max(a.addr.0));
                    funcs.count(a.ip);
                }
            }
            frames.push(FrameSummary {
                hash: content_hash(payload),
                len: e.len,
                samples: e.samples,
                loads,
                time_range: (loads > 0).then_some((tlo, thi)),
                addr_range: (loads > 0).then_some((alo, ahi)),
                // Intra-sample reuse, matching the streaming analyzer's
                // window semantics, over the frame's samples.
                reuse_rows: BlockReuse::sample_rows(&samples, summary_block),
                func_loads: funcs.take_frame(),
            });
        }
        Ok(Catalog {
            trace_id: trace_id.to_string(),
            summary_block,
            header_bytes,
            trailer_bytes,
            container_len: container.len() as u64,
            container_checksum: fnv1a64(container),
            total_loads: index.total_loads,
            total_instrumented_loads: index.total_instrumented_loads,
            func_names: funcs.names,
            frames,
        })
    }

    /// The trace's metadata, with the trailer-final load totals already
    /// patched in (the header's copy is provisional by design).
    pub fn meta(&self) -> Result<TraceMeta, StoreError> {
        let reader =
            memgaze_model::ShardReader::new(self.header_bytes.as_slice()).map_err(|e| {
                StoreError::CorruptCatalog {
                    id: self.trace_id.clone(),
                    detail: format!("stored header bytes do not parse: {e}"),
                }
            })?;
        let mut meta = reader.meta().clone();
        meta.total_loads = self.total_loads;
        meta.total_instrumented_loads = self.total_instrumented_loads;
        Ok(meta)
    }

    /// Total samples across all frames.
    pub fn total_samples(&self) -> u64 {
        self.frames.iter().map(|f| f.samples).sum()
    }

    /// Total uncompressed payload bytes across all frames.
    pub fn payload_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.len).sum()
    }

    /// Serialize (MGZC framing, FNV-checksummed).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256 + self.frames.len() * 64);
        wire::put_header(&mut buf, CATALOG_MAGIC, CATALOG_VERSION);
        put_str(&mut buf, &self.trace_id);
        buf.push(self.summary_block.log2());
        put_bytes(&mut buf, &self.header_bytes);
        put_bytes(&mut buf, &self.trailer_bytes);
        put_varint(&mut buf, self.container_len);
        put_u64_le(&mut buf, self.container_checksum);
        put_varint(&mut buf, self.total_loads);
        put_varint(&mut buf, self.total_instrumented_loads);
        put_varint(&mut buf, self.func_names.len() as u64);
        for name in &self.func_names {
            put_str(&mut buf, name);
        }
        put_varint(&mut buf, self.frames.len() as u64);
        for f in &self.frames {
            put_u64_le(&mut buf, f.hash);
            put_varint(&mut buf, f.len);
            put_varint(&mut buf, f.samples);
            put_varint(&mut buf, f.loads);
            put_range(&mut buf, f.time_range);
            put_range(&mut buf, f.addr_range);
            put_varint(&mut buf, f.reuse_rows.len() as u64);
            let mut prev_block = 0u64;
            for &(block, stats) in &f.reuse_rows {
                // Blocks are strictly increasing: delta-code them.
                put_varint(&mut buf, block - prev_block);
                prev_block = block;
                for s in stats {
                    put_varint(&mut buf, s);
                }
            }
            put_varint(&mut buf, f.func_loads.len() as u64);
            for &(id, loads) in &f.func_loads {
                put_varint(&mut buf, u64::from(id));
                put_varint(&mut buf, loads);
            }
        }
        wire::seal(&mut buf, 0);
        buf
    }

    /// Decode a serialized catalog for trace `id`, rejecting truncation
    /// and corruption with [`StoreError::CorruptCatalog`].
    pub fn decode(id: &str, data: &[u8]) -> Result<Catalog, StoreError> {
        decode_catalog(data).map_err(|e| StoreError::CorruptCatalog {
            id: id.to_string(),
            detail: e.to_string(),
        })
    }
}

fn decode_catalog(data: &[u8]) -> Result<Catalog, WireError> {
    let mut r = wire::open(data, CATALOG_MAGIC, CATALOG_VERSION, "catalog")?;
    let trace_id = r.string("trace id")?;
    let summary_block = r.u8("summary block")?;
    if summary_block >= 64 {
        return Err(WireError::Malformed {
            detail: format!("summary block log2 {summary_block} out of range"),
        });
    }
    let header_bytes = r.bytes("header bytes")?.to_vec();
    let trailer_bytes = r.bytes("trailer bytes")?.to_vec();
    let container_len = r.varint("container length")?;
    let container_checksum = r.u64_le("container checksum")?;
    let total_loads = r.varint("total loads")?;
    let total_instrumented_loads = r.varint("instrumented loads")?;
    let nfuncs = r.count(1, "function count")?;
    let mut func_names = Vec::with_capacity(nfuncs);
    for _ in 0..nfuncs {
        func_names.push(r.string("function name")?);
    }
    // Each frame is at least 14 encoded bytes; bound the allocation.
    let nframes = r.count(14, "frame count")?;
    let mut frames = Vec::with_capacity(nframes);
    for _ in 0..nframes {
        let hash = r.u64_le("frame hash")?;
        let len = r.varint("frame length")?;
        let samples = r.varint("frame sample count")?;
        let loads = r.varint("frame load count")?;
        let time_range = get_range(&mut r, "frame time range")?;
        let addr_range = get_range(&mut r, "frame address range")?;
        let nrows = r.count(5, "frame reuse row count")?;
        let mut reuse_rows = Vec::with_capacity(nrows);
        let mut block = 0u64;
        for _ in 0..nrows {
            block = add_delta(block, r.varint("frame reuse block")?, "frame reuse block")?;
            let mut stats = [0u64; 4];
            for s in &mut stats {
                *s = r.varint("frame reuse stat")?;
            }
            reuse_rows.push((block, stats));
        }
        let nfl = r.count(2, "frame function load count")?;
        let mut func_loads = Vec::with_capacity(nfl);
        for _ in 0..nfl {
            let id = r.u32("frame function id")?;
            if id as usize >= func_names.len() {
                return Err(WireError::Malformed {
                    detail: format!("frame function id {id} names no function"),
                });
            }
            func_loads.push((id, r.varint("frame function loads")?));
        }
        frames.push(FrameSummary {
            hash,
            len,
            samples,
            loads,
            time_range,
            addr_range,
            reuse_rows,
            func_loads,
        });
    }
    r.finish("catalog")?;
    Ok(Catalog {
        trace_id,
        summary_block: BlockSize::from_log2(summary_block),
        header_bytes,
        trailer_bytes,
        container_len,
        container_checksum,
        total_loads,
        total_instrumented_loads,
        func_names,
        frames,
    })
}

/// Attributes [`Catalog::scan`]'s accesses to function names: ids in
/// first-seen order, one per name however many symbols carry it. A
/// symbol's name id is resolved on its first access, and an access in
/// the last function's `[lo, hi)` skips the symbol search.
struct FuncCounter<'s> {
    functions: &'s [FunctionSym],
    name_ids: BTreeMap<&'s str, u32>,
    /// Per symbol (table position), its name id once seen.
    sym_ids: Vec<Option<u32>>,
    names: Vec<String>,
    /// The current frame's loads per name id.
    counts: Vec<u64>,
    last: Option<(Ip, Ip, u32)>,
}

impl<'s> FuncCounter<'s> {
    fn new(symbols: &'s SymbolTable) -> FuncCounter<'s> {
        FuncCounter {
            functions: symbols.functions(),
            name_ids: BTreeMap::new(),
            sym_ids: vec![None; symbols.len()],
            names: Vec::new(),
            counts: Vec::new(),
            last: None,
        }
    }

    /// Count one access at `ip`; an ip no symbol covers is not counted.
    fn count(&mut self, ip: Ip) {
        if !self.last.is_some_and(|(lo, hi, _)| lo <= ip && ip < hi) {
            // `SymbolTable::lookup`'s search, keeping the position; an ip
            // below every symbol wraps to a position that gets nothing.
            let pos = self
                .functions
                .partition_point(|f| f.lo <= ip)
                .wrapping_sub(1);
            let (Some(f), Some(slot)) = (self.functions.get(pos), self.sym_ids.get_mut(pos)) else {
                return;
            };
            if ip >= f.hi {
                return;
            }
            let id = *slot.get_or_insert_with(|| {
                *self.name_ids.entry(f.name.as_str()).or_insert_with(|| {
                    self.names.push(f.name.clone());
                    self.counts.push(0);
                    (self.names.len() - 1) as u32
                })
            });
            self.last = Some((f.lo, f.hi, id));
        }
        if let Some(c) = self
            .last
            .and_then(|(_, _, id)| self.counts.get_mut(id as usize))
        {
            *c += 1;
        }
    }

    /// The current frame's `(name id, loads)` pairs in id order, and a
    /// zeroed count for the next frame.
    fn take_frame(&mut self) -> Vec<(u32, u64)> {
        self.counts
            .iter_mut()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(id, c)| (id as u32, std::mem::take(c)))
            .collect()
    }
}

/// Frame `i`'s payload bytes in `container`, or the
/// [`ModelError::StaleIndex`] an entry reaching past the container earns.
pub(crate) fn frame_payload<'c>(
    container: &'c [u8],
    e: &FrameIndexEntry,
    i: usize,
) -> Result<&'c [u8], ModelError> {
    let lo = usize::try_from(e.offset).ok();
    let hi = e
        .offset
        .checked_add(e.len)
        .and_then(|hi| usize::try_from(hi).ok());
    lo.zip(hi)
        .and_then(|(lo, hi)| container.get(lo..hi))
        .ok_or_else(|| ModelError::StaleIndex {
            detail: format!("frame {i} spans past the container end"),
        })
}

/// Optional inclusive range: presence flag, then lo + span.
fn put_range(buf: &mut Vec<u8>, range: Option<(u64, u64)>) {
    match range {
        None => buf.push(0),
        Some((lo, hi)) => {
            buf.push(1);
            put_varint(buf, lo);
            put_varint(buf, hi - lo);
        }
    }
}

fn get_range(r: &mut Reader<'_>, context: &'static str) -> Result<Option<(u64, u64)>, WireError> {
    match r.u8(context)? {
        0 => Ok(None),
        1 => {
            let lo = r.varint(context)?;
            let hi = add_delta(lo, r.varint(context)?, context)?;
            Ok(Some((lo, hi)))
        }
        flag => Err(WireError::Malformed {
            detail: format!("{context} flag {flag}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::{encode_sharded_indexed, Access, Ip, Sample, SampledTrace, TraceMeta};

    fn mk_trace(samples: usize, w: usize) -> SampledTrace {
        let mut t = SampledTrace::new(TraceMeta::new("catalog-unit", 10_000, 16 << 10));
        t.meta.total_loads = (samples * 10_000) as u64;
        t.meta.total_instrumented_loads = (samples * 100) as u64;
        for s in 0..samples {
            let base = (s as u64) * 10_000;
            let accesses = (0..w)
                .map(|i| {
                    Access::new(
                        0x400u64 + (i as u64 % 7) * 4,
                        0x10_0000u64 + (i as u64 % 11) * 64,
                        base + i as u64,
                    )
                })
                .collect();
            t.push_sample(Sample::new(accesses, base + w as u64))
                .unwrap();
        }
        t
    }

    fn mk_symbols() -> SymbolTable {
        let mut sy = SymbolTable::new();
        sy.add_function("hot_loop", Ip(0x400), Ip(0x410), "hot.c");
        sy.add_function("cold_path", Ip(0x410), Ip(0x420), "cold.c");
        sy
    }

    #[test]
    fn scan_summarizes_and_roundtrips() {
        let t = mk_trace(9, 23);
        let (container, index) = encode_sharded_indexed(&t, 4);
        let sy = mk_symbols();
        let cat =
            Catalog::scan("unit-trace", &container, &index, &sy, BlockSize::CACHE_LINE).unwrap();
        assert_eq!(cat.frames.len(), 3);
        assert_eq!(cat.total_samples(), 9);
        assert_eq!(
            cat.frames.iter().map(|f| f.loads).sum::<u64>(),
            (9 * 23) as u64
        );
        // Every frame saw ips in both functions.
        assert_eq!(cat.func_names.len(), 2);
        for f in &cat.frames {
            assert!(f.time_range.is_some() && f.addr_range.is_some());
            assert!(!f.reuse_rows.is_empty());
            assert!(f.reuse_rows.windows(2).all(|w| w[0].0 < w[1].0));
        }
        // Meta parses from the stored header with final totals.
        let meta = cat.meta().unwrap();
        assert_eq!(meta.workload, "catalog-unit");
        assert_eq!(meta.total_loads, t.meta.total_loads);
        // Codec roundtrip is exact.
        let encoded = cat.encode();
        let back = Catalog::decode("unit-trace", &encoded).unwrap();
        assert_eq!(cat, back);
    }

    #[test]
    fn functions_are_attributed_per_access() {
        let mut sy = SymbolTable::new();
        sy.add_function("f", Ip(0x100), Ip(0x110), "a.c");
        sy.add_function("g", Ip(0x110), Ip(0x120), "a.c");
        sy.add_function("f", Ip(0x200), Ip(0x210), "b.c");
        sy.add_function("h", Ip(0x300), Ip(0x310), "c.c");
        // One sample per frame. Frame 0 opens on an unmapped ip and
        // interleaves `g`, both `f`s and misses; frame 1 opens on a miss,
        // returns to the second `f` across a miss, and touches `h`'s
        // exclusive end; frame 2 is all misses.
        let frames: [&[u64]; 3] = [
            &[0x150, 0x114, 0x104, 0x204, 0x118, 0x400, 0x108, 0x50],
            &[0x50, 0x300, 0x30c, 0x208, 0x150, 0x20c, 0x310],
            &[0x60, 0x1ff],
        ];
        let mut t = SampledTrace::new(TraceMeta::new("attribution", 1000, 4096));
        t.meta.total_loads = 3000;
        for (s, ips) in frames.iter().enumerate() {
            let base = s as u64 * 1000;
            let accesses = ips
                .iter()
                .enumerate()
                .map(|(i, &ip)| Access::new(ip, 0x1000 + i as u64 * 8, base + i as u64))
                .collect();
            t.push_sample(Sample::new(accesses, base + 100)).unwrap();
        }
        let (container, index) = encode_sharded_indexed(&t, 1);
        let cat = Catalog::scan("attr", &container, &index, &sy, BlockSize::WORD).unwrap();
        // Ids in first-seen order, one per name.
        assert_eq!(cat.func_names, ["g", "f", "h"]);
        let loads: Vec<_> = cat.frames.iter().map(|f| f.func_loads.clone()).collect();
        assert_eq!(loads, [vec![(0, 2), (1, 3)], vec![(1, 2), (2, 2)], vec![]]);
        assert_eq!(
            cat.frames.iter().map(|f| f.loads).collect::<Vec<_>>(),
            [8, 7, 2]
        );
    }

    #[test]
    fn corruption_and_truncation_are_typed() {
        let t = mk_trace(4, 8);
        let (container, index) = encode_sharded_indexed(&t, 2);
        let cat = Catalog::scan(
            "c",
            &container,
            &index,
            &SymbolTable::new(),
            BlockSize::WORD,
        )
        .unwrap();
        let encoded = cat.encode();
        for cut in [0usize, 3, 10, encoded.len() / 2, encoded.len() - 1] {
            assert!(matches!(
                Catalog::decode("c", &encoded[..cut]),
                Err(StoreError::CorruptCatalog { .. })
            ));
        }
        let mut flipped = encoded.clone();
        flipped[12] ^= 0x20;
        assert!(matches!(
            Catalog::decode("c", &flipped),
            Err(StoreError::CorruptCatalog { .. })
        ));
    }

    #[test]
    fn empty_trace_catalogs_cleanly() {
        let t = SampledTrace::new(TraceMeta::new("empty", 1000, 4096));
        let (container, index) = encode_sharded_indexed(&t, 8);
        let cat = Catalog::scan(
            "e",
            &container,
            &index,
            &SymbolTable::new(),
            BlockSize::WORD,
        )
        .unwrap();
        assert!(cat.frames.is_empty());
        assert_eq!(cat.container_len, container.len() as u64);
        let back = Catalog::decode("e", &cat.encode()).unwrap();
        assert_eq!(cat, back);
    }
}
