//! The trace container: the one layout every trace is written, stored
//! and scanned in.
//!
//! Real collectors (HMTT-style DMA windows, perf ring buffers) hand
//! data over in bounded chunks, so the container's payload is a
//! sequence of self-delimiting *shard frames*, each decodable on its
//! own with O(shard) memory. Header, meta and samples are
//! [`crate::io`]'s codec:
//!
//! ```text
//! magic "MGZT" | version u16 = 2 | kind u8 = 2 | meta | frames | trailer
//! frame   := frame_len varint (> 0) | payload
//! payload := nsamples varint | samples, trigger delta chain
//!            restarting at 0 for each frame
//! trailer := 0 varint | total_loads varint | total_instr varint
//! ```
//!
//! Version 2 is the only version: a header naming any other is a typed
//! [`ModelError::BadHeader`].
//!
//! The header's meta is provisional — a live collector does not know
//! the final load totals when it emits the header — and the trailer
//! patches `total_loads` / `total_instrumented_loads` once the stream
//! ends. A zero frame length is an unambiguous terminator because even
//! an empty frame's payload is at least one byte (its sample count).
//!
//! [`ShardWriter`] appends frames to any [`Write`] sink; [`ShardReader`]
//! iterates frames from any [`Read`] source, holding one decoded shard
//! at a time. [`encode_sharded`] / [`decode_sharded`] are in-memory
//! conveniences over the two.
//!
//! # Frame index
//!
//! Shard frames are self-delimiting but not self-locating: a reader
//! must still scan the container front to back to find frame `k`. For
//! seek-based reads — the store's `put`, an analysis of a frame range —
//! [`ShardWriter::finish_indexed`] additionally returns a [`FrameIndex`]
//! recording, per frame, the payload byte offset, payload length,
//! sample count, and an XXH64 checksum, plus enough container identity
//! (header checksum, total length, trailer totals) that
//! [`FrameIndex::validate`] can detect a stale or mismatched
//! index-vs-container pair before anything seeks with it. The index
//! lives in memory only; what the store persists per frame is its
//! `MGZC` catalog.

use crate::error::ModelError;
use crate::hash::xxh64;
use crate::io::{check_header, get_samples, put_header, put_meta, put_sample, read_meta};
use crate::sample::{Sample, SampledTrace, TraceMeta};
use crate::wire::{self, put_varint, read_varint, Reader};
use std::io::{Read, Write};

const VERSION_SHARDED: u16 = 2;
const KIND_SHARDED: u8 = 2;

/// Location and identity of one shard frame inside a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameIndexEntry {
    /// Byte offset of the frame's payload (past its length varint).
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Samples encoded in the frame.
    pub samples: u64,
    /// XXH64 of the payload bytes.
    checksum: u64,
}

/// Sidecar index over a v2 sharded container: per-frame seek table plus
/// enough container identity to reject a stale or mismatched pairing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameIndex {
    /// Byte length of the container header + provisional meta.
    pub header_len: u64,
    /// XXH64 of those header bytes.
    header_checksum: u64,
    /// Total container length in bytes, trailer included.
    container_len: u64,
    /// Trailer `total_loads`, duplicated so workers need not scan to
    /// the trailer.
    pub total_loads: u64,
    /// Trailer `total_instrumented_loads`.
    pub total_instrumented_loads: u64,
    /// One entry per frame, in container order.
    pub entries: Vec<FrameIndexEntry>,
}

impl FrameIndex {
    /// Total samples across all indexed frames.
    pub fn total_samples(&self) -> u64 {
        self.entries.iter().map(|e| e.samples).sum()
    }

    /// Check that this index describes `container`. Cheap — O(header) —
    /// and catches the common staleness modes: a container rewritten
    /// with different meta or different length, or an index presented
    /// with the wrong container entirely. Per-frame payload corruption
    /// is caught lazily by [`read_frame`](Self::read_frame).
    pub fn validate(&self, container: &[u8]) -> Result<(), ModelError> {
        if self.container_len != container.len() as u64 {
            return Err(ModelError::StaleIndex {
                detail: format!(
                    "container is {} bytes, index describes {}",
                    container.len(),
                    self.container_len
                ),
            });
        }
        // Narrow with a check, never `as`: a hostile header length
        // would wrap on 32-bit targets into a bogus small value.
        let header = usize::try_from(self.header_len)
            .ok()
            .and_then(|hdr| container.get(..hdr));
        let Some(header) = header else {
            return Err(ModelError::StaleIndex {
                detail: format!("header length {} exceeds container", self.header_len),
            });
        };
        let got = xxh64(header);
        if got != self.header_checksum {
            return Err(ModelError::StaleIndex {
                detail: format!(
                    "header checksum {got:#018x} != indexed {:#018x}",
                    self.header_checksum
                ),
            });
        }
        for (i, e) in self.entries.iter().enumerate() {
            if e.offset
                .checked_add(e.len)
                .is_none_or(|end| end > self.container_len)
            {
                return Err(ModelError::StaleIndex {
                    detail: format!("frame {i} spans past the container end"),
                });
            }
        }
        Ok(())
    }

    /// Seek to frame `i` of `container` and decode its samples,
    /// verifying the indexed checksum first. The container is not
    /// scanned: only the indexed payload bytes are touched.
    pub fn read_frame(&self, container: &[u8], i: usize) -> Result<Vec<Sample>, ModelError> {
        let entry = self.entries.get(i).ok_or_else(|| ModelError::StaleIndex {
            detail: format!("frame {i} out of range ({} indexed)", self.entries.len()),
        })?;
        // Add in u64 space and narrow with a check, never `as`: a
        // hostile offset/len can neither overflow nor wrap on 32-bit
        // targets.
        let payload = entry.offset.checked_add(entry.len).and_then(|end| {
            let lo = usize::try_from(entry.offset).ok()?;
            container.get(lo..usize::try_from(end).ok()?)
        });
        let Some(payload) = payload else {
            return Err(ModelError::StaleIndex {
                detail: format!("frame {i} spans past the container end"),
            });
        };
        let got = xxh64(payload);
        if got != entry.checksum {
            return Err(ModelError::StaleIndex {
                detail: format!(
                    "frame {i} checksum {got:#018x} != indexed {:#018x}",
                    entry.checksum
                ),
            });
        }
        memgaze_obs::counter!("model.frames_decoded").add(1);
        memgaze_obs::counter!("model.frame_bytes").add(payload.len() as u64);
        decode_frame_payload(payload).map_err(|e| ModelError::InShard {
            shard: i as u64,
            source: Box::new(e),
        })
    }
}

/// Incremental writer for the v2 sharded container.
pub struct ShardWriter<W: Write> {
    sink: W,
    shards: u64,
    samples: u64,
    scratch: Vec<u8>,
    /// Bytes written so far (header + frames).
    pos: u64,
    header_len: u64,
    header_checksum: u64,
    entries: Vec<FrameIndexEntry>,
}

impl<W: Write> ShardWriter<W> {
    /// Write the container header and provisional metadata. The load
    /// totals in `meta` are placeholders; [`finish`](Self::finish)
    /// writes the real values into the trailer.
    pub fn new(mut sink: W, meta: &TraceMeta) -> Result<ShardWriter<W>, ModelError> {
        let mut buf = Vec::with_capacity(64);
        put_header(&mut buf, VERSION_SHARDED, KIND_SHARDED);
        put_meta(&mut buf, meta);
        sink.write_all(&buf)?;
        Ok(ShardWriter {
            sink,
            shards: 0,
            samples: 0,
            scratch: Vec::new(),
            pos: buf.len() as u64,
            header_len: buf.len() as u64,
            header_checksum: xxh64(&buf),
            entries: Vec::new(),
        })
    }

    /// Append one shard frame holding `samples`, which must continue the
    /// container's global time order. Returns the frame's payload size
    /// in bytes.
    pub fn write_shard(&mut self, samples: &[Sample]) -> Result<usize, ModelError> {
        self.scratch.clear();
        put_varint(&mut self.scratch, samples.len() as u64);
        // The trigger delta chain restarts per frame so each frame is
        // decodable without its predecessors.
        let mut prev_trigger = 0u64;
        for s in samples {
            put_sample(&mut self.scratch, prev_trigger, s);
            prev_trigger = s.trigger_time;
        }
        let mut head = Vec::with_capacity(10);
        put_varint(&mut head, self.scratch.len() as u64);
        self.sink.write_all(&head)?;
        self.sink.write_all(&self.scratch)?;
        self.entries.push(FrameIndexEntry {
            offset: self.pos + head.len() as u64,
            len: self.scratch.len() as u64,
            samples: samples.len() as u64,
            checksum: xxh64(&self.scratch),
        });
        self.pos += (head.len() + self.scratch.len()) as u64;
        self.shards += 1;
        self.samples += samples.len() as u64;
        Ok(self.scratch.len())
    }

    /// Write the terminator and trailer (the final load totals) and
    /// return the sink.
    ///
    /// Totals are validated against what was actually streamed: every
    /// sample is triggered by at least one load, so a trailer claiming
    /// `total_loads < samples()` would seal a self-inconsistent
    /// container and is rejected with
    /// [`ModelError::InconsistentTotals`].
    pub fn finish(self, total_loads: u64, total_instrumented_loads: u64) -> Result<W, ModelError> {
        self.finish_indexed(total_loads, total_instrumented_loads)
            .map(|(sink, _)| sink)
    }

    /// Like [`finish`](Self::finish), but also return the
    /// [`FrameIndex`] sidecar accumulated while writing.
    pub fn finish_indexed(
        mut self,
        total_loads: u64,
        total_instrumented_loads: u64,
    ) -> Result<(W, FrameIndex), ModelError> {
        if total_loads < self.samples {
            return Err(ModelError::InconsistentTotals {
                total_loads,
                at_least: self.samples,
            });
        }
        let mut tail = Vec::with_capacity(24);
        put_varint(&mut tail, 0);
        put_varint(&mut tail, total_loads);
        put_varint(&mut tail, total_instrumented_loads);
        self.sink.write_all(&tail)?;
        self.sink.flush()?;
        let index = FrameIndex {
            header_len: self.header_len,
            header_checksum: self.header_checksum,
            container_len: self.pos + tail.len() as u64,
            total_loads,
            total_instrumented_loads,
            entries: self.entries,
        };
        Ok((self.sink, index))
    }

    /// Frames written so far.
    pub fn shards(&self) -> u64 {
        self.shards
    }
}

/// One decoded shard frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Shard {
    /// Zero-based frame index within the container.
    pub index: u64,
    /// The shard's samples, in trace time order.
    pub samples: Vec<Sample>,
    /// Encoded payload size of this frame in bytes.
    encoded_bytes: usize,
}

/// Iterator decoding one shard frame at a time from any [`Read`]
/// source, holding O(shard) memory. Reads byte-at-a-time for varints,
/// so wrap slow sources in a [`std::io::BufReader`].
///
/// After the iterator yields `None` for a well-formed container,
/// [`meta`](Self::meta) reflects the trailer-patched load totals.
/// Decode failures are wrapped in [`ModelError::InShard`] naming the
/// failing frame, and the iterator fuses (yields `None` afterwards).
pub struct ShardReader<R: Read> {
    src: R,
    meta: TraceMeta,
    next_index: u64,
    done: bool,
    /// Frame-payload scratch reused across frames, so a steady-state
    /// read decodes every frame into already-warm capacity.
    payload: Vec<u8>,
}

impl<R: Read> ShardReader<R> {
    /// Read and validate the container header and provisional metadata.
    pub fn new(mut src: R) -> Result<ShardReader<R>, ModelError> {
        let hdr = wire::read_array::<7>(&mut src, "header")?;
        check_header(&mut Reader::new(&hdr), VERSION_SHARDED, KIND_SHARDED)?;
        let meta = read_meta(&mut src)?;
        Ok(ShardReader {
            src,
            meta,
            next_index: 0,
            done: false,
            payload: Vec::new(),
        })
    }

    /// Container metadata. Load totals are provisional until the
    /// trailer has been read (i.e. the iterator returned `None`).
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    fn next_shard(&mut self) -> Result<Option<Shard>, ModelError> {
        let _span = memgaze_obs::span("model.decode_frame");
        let len = read_varint(&mut self.src, "frame length")?;
        if len == 0 {
            self.meta.total_loads = read_varint(&mut self.src, "trailer total_loads")?;
            self.meta.total_instrumented_loads =
                read_varint(&mut self.src, "trailer total_instrumented_loads")?;
            return Ok(None);
        }
        // A frame that cannot fit in this platform's address space is
        // rejected up front with a typed error — on 32-bit targets an
        // `as usize` narrowing here would wrap instead.
        let encoded_bytes = wire::to_usize(len, "frame length")?;
        // Read exactly `len` payload bytes into the reusable scratch,
        // which grows only as data actually arrives, so a corrupt length
        // on a truncated stream cannot trigger a giant allocation.
        self.payload.clear();
        wire::read_bounded(&mut self.src, len, &mut self.payload, "shard frame")?;
        let samples = decode_frame_payload(&self.payload)?;
        memgaze_obs::counter!("model.frames_decoded").add(1);
        memgaze_obs::counter!("model.frame_bytes").add(len);
        let index = self.next_index;
        self.next_index += 1;
        Ok(Some(Shard {
            index,
            samples,
            encoded_bytes,
        }))
    }
}

impl<R: Read> Iterator for ShardReader<R> {
    type Item = Result<Shard, ModelError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.next_shard() {
            Ok(Some(shard)) => Some(Ok(shard)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(ModelError::InShard {
                    shard: self.next_index,
                    source: Box::new(e),
                }))
            }
        }
    }
}

/// Decode one frame payload: sample count, then the per-frame delta
/// chain (trigger chain restarting at 0). Shared by the scanning
/// [`ShardReader`], the seeking [`FrameIndex::read_frame`], and the
/// `memgaze-store` blob path, which holds frame payloads outside any
/// container.
pub fn decode_frame_payload(buf: &[u8]) -> Result<Vec<Sample>, ModelError> {
    let mut r = Reader::new(buf);
    // Every encoded sample costs at least two bytes (two varints).
    let n = r.count(2, "shard samples")?;
    let mut samples = Vec::with_capacity(n);
    get_samples(&mut r, n, |s| {
        samples.push(s);
        Ok(())
    })?;
    r.finish("shard frame")?;
    Ok(samples)
}

/// Encode a resident trace as a v2 sharded container with
/// `shard_samples` samples per frame.
///
/// Panics if the trace's own meta totals are inconsistent with its
/// sample count (see [`ShardWriter::finish`]); a resident
/// [`SampledTrace`] carrying untruthful totals is a caller bug.
pub fn encode_sharded(trace: &SampledTrace, shard_samples: usize) -> Vec<u8> {
    encode_sharded_indexed(trace, shard_samples).0
}

/// Like [`encode_sharded`], but also return the [`FrameIndex`] sidecar.
// Writing to a Vec cannot fail; untruthful totals are the caller bug above.
#[allow(clippy::expect_used)]
pub fn encode_sharded_indexed(trace: &SampledTrace, shard_samples: usize) -> (Vec<u8>, FrameIndex) {
    let mut w = ShardWriter::new(Vec::new(), &trace.meta).expect("writing to a Vec cannot fail");
    for chunk in trace.samples.chunks(shard_samples.max(1)) {
        w.write_shard(chunk).expect("writing to a Vec cannot fail");
    }
    w.finish_indexed(trace.meta.total_loads, trace.meta.total_instrumented_loads)
        .expect("resident trace meta totals must be consistent with its samples")
}

/// Decode a v2 sharded container back into a resident trace.
pub fn decode_sharded(data: &[u8]) -> Result<SampledTrace, ModelError> {
    let mut reader = ShardReader::new(data)?;
    let mut samples = Vec::new();
    for shard in reader.by_ref() {
        samples.extend(shard?.samples);
    }
    let mut trace = SampledTrace::new(reader.meta().clone());
    for s in samples {
        trace.push_sample(s)?;
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;

    fn mk_trace(samples: usize, w: usize) -> SampledTrace {
        let mut t = SampledTrace::new(TraceMeta::new("stream-unit", 10_000, 16 << 10));
        t.meta.total_loads = (samples * 10_000) as u64;
        t.meta.total_instrumented_loads = (samples * 100) as u64;
        for s in 0..samples {
            let base = (s as u64) * 10_000;
            let accesses = (0..w)
                .map(|i| {
                    Access::new(
                        0x400u64 + (i as u64 % 7) * 4,
                        0x10_0000u64 + (i as u64) * 64,
                        base + i as u64,
                    )
                })
                .collect();
            t.push_sample(Sample::new(accesses, base + w as u64))
                .unwrap();
        }
        t
    }

    #[test]
    fn roundtrip_across_shard_sizes() {
        let t = mk_trace(13, 37);
        for shard in [1usize, 2, 5, 13, 100] {
            let bytes = encode_sharded(&t, shard);
            let back = decode_sharded(&bytes).unwrap();
            assert_eq!(t, back, "shard size {shard}");
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = SampledTrace::new(TraceMeta::new("empty", 1000, 4096));
        let bytes = encode_sharded(&t, 16);
        let back = decode_sharded(&bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn reader_yields_expected_shard_shapes() {
        let t = mk_trace(10, 8);
        let bytes = encode_sharded(&t, 4);
        let mut reader = ShardReader::new(&bytes[..]).unwrap();
        // Provisional meta is readable before any frame.
        assert_eq!(reader.meta().workload, "stream-unit");
        let shards: Vec<Shard> = reader.by_ref().map(|s| s.unwrap()).collect();
        assert_eq!(shards.len(), 3);
        assert_eq!(
            shards.iter().map(|s| s.samples.len()).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        assert_eq!(shards[2].index, 2);
        // Trailer patched the totals.
        assert_eq!(reader.meta().total_loads, t.meta.total_loads);
        assert_eq!(
            reader.meta().total_instrumented_loads,
            t.meta.total_instrumented_loads
        );
    }

    #[test]
    fn trailer_patches_provisional_totals() {
        // Simulate a live collector: provisional meta with zero totals,
        // real totals only in the trailer.
        let t = mk_trace(6, 5);
        let mut provisional = t.meta.clone();
        provisional.total_loads = 0;
        provisional.total_instrumented_loads = 0;
        let mut w = ShardWriter::new(Vec::new(), &provisional).unwrap();
        for chunk in t.samples.chunks(2) {
            w.write_shard(chunk).unwrap();
        }
        assert_eq!(w.shards(), 3);
        let bytes = w.finish(42_000, 777).unwrap();
        let mut r = ShardReader::new(&bytes[..]).unwrap();
        assert_eq!(r.meta().total_loads, 0);
        for s in r.by_ref() {
            s.unwrap();
        }
        assert_eq!(r.meta().total_loads, 42_000);
        assert_eq!(r.meta().total_instrumented_loads, 777);
    }

    #[test]
    fn truncated_frame_names_failing_shard() {
        let t = mk_trace(9, 20);
        let bytes = encode_sharded(&t, 3);
        let cut = &bytes[..bytes.len() - 30];
        let reader = ShardReader::new(cut).unwrap();
        let results: Vec<Result<Shard, ModelError>> = reader.collect();
        let last = results.last().unwrap();
        match last {
            Err(e) => {
                assert!(matches!(e, ModelError::InShard { shard: 2, .. }), "got {e}");
            }
            Ok(_) => panic!("truncated container must error"),
        }
        // Earlier shards still decoded.
        assert!(results[0].is_ok() && results[1].is_ok());
    }

    #[test]
    fn missing_terminator_is_an_error_not_silence() {
        let t = mk_trace(4, 10);
        let full = encode_sharded(&t, 2);
        // Drop the terminator + trailer entirely.
        let bytes = &full[..full.len() - 3];
        let reader = ShardReader::new(bytes).unwrap();
        let results: Vec<Result<Shard, ModelError>> = reader.collect();
        assert!(results.last().unwrap().is_err());
    }

    #[test]
    fn corrupt_frame_count_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        put_header(&mut buf, VERSION_SHARDED, KIND_SHARDED);
        put_meta(&mut buf, &TraceMeta::new("corrupt", 1000, 4096));
        // Frame of 3 bytes claiming an absurd sample count.
        let mut payload = Vec::new();
        put_varint(&mut payload, u64::MAX >> 1);
        put_varint(&mut buf, payload.len() as u64);
        buf.extend_from_slice(&payload);
        let reader = ShardReader::new(&buf[..]).unwrap();
        let results: Vec<Result<Shard, ModelError>> = reader.collect();
        match results.last().unwrap() {
            Err(e) => assert!(matches!(e, ModelError::InShard { shard: 0, .. })),
            Ok(_) => panic!("corrupt count must error"),
        }
    }

    #[test]
    fn hostile_lengths_are_typed_errors_not_wraps() {
        // Regression: decoded counts/lengths/offsets used to be narrowed
        // with `as usize`, which silently truncates on 32-bit targets
        // and lets a hostile length wrap into a small allocation. Every
        // site now routes through `usize::try_from` into the typed
        // decode-error chain, so each of these ends in a typed error on
        // every pointer width — never a wrap, never a panic.

        // A frame payload claiming u64::MAX samples is rejected before
        // any allocation (Oversize on 32-bit, count-vs-bytes bound here).
        let mut payload = Vec::new();
        put_varint(&mut payload, u64::MAX);
        match decode_frame_payload(&payload) {
            Err(ModelError::Truncated { .. } | ModelError::Oversize { .. }) => {}
            other => panic!("expected typed rejection, got {other:?}"),
        }

        // A meta string whose length varint claims u64::MAX bytes.
        let mut buf = Vec::new();
        put_header(&mut buf, VERSION_SHARDED, KIND_SHARDED);
        put_varint(&mut buf, u64::MAX); // meta.workload length
        buf.extend_from_slice(b"x");
        match ShardReader::new(&buf[..]) {
            Err(ModelError::Truncated { .. } | ModelError::Oversize { .. }) => {}
            Err(other) => panic!("expected typed rejection, got {other:?}"),
            Ok(_) => panic!("hostile meta length must not decode"),
        }

        // A varint that never terminates within 64 bits of shift.
        let overlong = [0xffu8; 11];
        match read_varint(&mut &overlong[..], "overlong").map_err(ModelError::from) {
            Err(ModelError::BadHeader { detail }) => assert!(detail.contains("varint overflow")),
            other => panic!("expected varint overflow, got {other:?}"),
        }

        // An index entry whose offset+len wraps u64 (or spans past the
        // container) fails validation and read_frame with typed errors.
        let t = mk_trace(3, 4);
        let (bytes, mut index) = encode_sharded_indexed(&t, 1);
        index.entries[0].offset = u64::MAX - 8;
        index.entries[0].len = 64;
        assert!(matches!(
            index.validate(&bytes),
            Err(ModelError::StaleIndex { .. })
        ));
        assert!(matches!(
            index.read_frame(&bytes, 0),
            Err(ModelError::StaleIndex { .. })
        ));

        // A header length larger than the container is a typed staleness
        // error even though it can no longer be compared post-wrap.
        let (bytes, mut index) = encode_sharded_indexed(&t, 1);
        index.header_len = u64::MAX;
        assert!(matches!(
            index.validate(&bytes),
            Err(ModelError::StaleIndex { .. })
        ));
    }

    #[test]
    fn v1_container_is_rejected_with_version_error() {
        // The retired monolithic layout opened "MGZT", version 1, kind 0,
        // then the same meta block.
        let mut v1 = b"MGZT\x01\x00\x00".to_vec();
        put_meta(&mut v1, &TraceMeta::new("v1", 10_000, 16 << 10));
        put_varint(&mut v1, 0);
        match ShardReader::new(v1.as_slice()) {
            Err(ModelError::BadHeader { detail }) => assert!(detail.contains("version 1")),
            Err(other) => panic!("expected BadHeader, got {other:?}"),
            Ok(_) => panic!("v1 container must be rejected"),
        }
    }

    /// `t`'s samples as one frame payload.
    fn frame_of(t: &SampledTrace) -> Vec<u8> {
        let mut w = ShardWriter::new(Vec::new(), &t.meta).unwrap();
        w.write_shard(&t.samples).unwrap();
        w.scratch
    }

    /// The sample a frame payload fails to decode in, and why.
    fn failing_sample(payload: &[u8]) -> (usize, ModelError) {
        match decode_frame_payload(payload) {
            Err(ModelError::InSample { index, source }) => (index, *source),
            other => panic!("expected InSample, got {other:?}"),
        }
    }

    #[test]
    fn truncation_mid_sample_names_the_sample() {
        let payload = frame_of(&mk_trace(3, 50));
        for cut in [0usize, 1, 3, payload.len() - 1] {
            assert!(decode_frame_payload(&payload[..cut]).is_err(), "cut {cut}");
        }
        // Cut into the last sample: the error must locate it.
        let (index, source) = failing_sample(&payload[..payload.len() - 10]);
        assert_eq!(index, 2);
        assert!(matches!(
            source,
            ModelError::Truncated { .. } | ModelError::BadHeader { .. }
        ));
    }

    #[test]
    fn corrupt_window_count_is_rejected_without_allocating() {
        let mut payload = Vec::new();
        // One sample, its trigger delta, then an absurd window length.
        for v in [1, 5, u64::MAX >> 1] {
            put_varint(&mut payload, v);
        }
        let failed = failing_sample(&payload);
        assert!(matches!(failed, (0, ModelError::Truncated { .. })));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // Eleven continuation bytes cannot encode a u64, whether as the
        // sample count or as the first sample's trigger delta.
        assert!(matches!(
            decode_frame_payload(&[0xff; 11]),
            Err(ModelError::BadHeader { .. })
        ));
        let failed = failing_sample(&[&[1u8][..], &[0xff; 11]].concat());
        assert!(matches!(failed, (0, ModelError::BadHeader { .. })));
    }

    #[test]
    fn delta_coding_compresses_regular_streams() {
        // A strided stream should cost only a few bytes per access.
        let per_access = crate::io::sampled_size_bytes(&mk_trace(1, 10_000)) as f64 / 1e4;
        assert!(
            per_access < 6.0,
            "{per_access} B/access for a strided stream"
        );
    }

    #[test]
    fn finish_rejects_inconsistent_totals() {
        // Regression: a trailer claiming fewer total loads than samples
        // written used to seal a self-inconsistent container silently.
        let t = mk_trace(6, 5);
        let mut w = ShardWriter::new(Vec::new(), &t.meta).unwrap();
        for chunk in t.samples.chunks(2) {
            w.write_shard(chunk).unwrap();
        }
        match w.finish(3, 100) {
            Err(ModelError::InconsistentTotals {
                total_loads,
                at_least,
            }) => {
                assert_eq!(total_loads, 3);
                assert_eq!(at_least, 6);
            }
            other => panic!("expected InconsistentTotals, got {other:?}"),
        }
        // Equal totals are the boundary case and are fine.
        let mut w = ShardWriter::new(Vec::new(), &t.meta).unwrap();
        w.write_shard(&t.samples).unwrap();
        assert!(w.finish(6, 6).is_ok());
    }

    #[test]
    fn frame_index_locates_every_frame() {
        let t = mk_trace(11, 9);
        for shard in [1usize, 3, 4, 11] {
            let (bytes, index) = encode_sharded_indexed(&t, shard);
            index.validate(&bytes).unwrap();
            assert_eq!(index.entries.len(), t.samples.len().div_ceil(shard));
            assert_eq!(index.total_samples(), t.samples.len() as u64);
            assert_eq!(index.total_loads, t.meta.total_loads);
            let mut all = Vec::new();
            for i in 0..index.entries.len() {
                all.extend(index.read_frame(&bytes, i).unwrap());
            }
            assert_eq!(all, t.samples, "shard size {shard}");
            // A frame past the last is a typed staleness error.
            assert!(matches!(
                index.read_frame(&bytes, index.entries.len()),
                Err(ModelError::StaleIndex { .. })
            ));
        }
    }

    #[test]
    fn stale_index_is_detected() {
        let a = mk_trace(6, 8);
        let mut b = mk_trace(6, 8);
        b.meta.workload = "other-workload".to_string();
        let (bytes_a, index_a) = encode_sharded_indexed(&a, 2);
        let (bytes_b, _) = encode_sharded_indexed(&b, 2);
        // Index from A does not validate against container B (different
        // meta ⇒ different header bytes and checksum).
        assert!(matches!(
            index_a.validate(&bytes_b),
            Err(ModelError::StaleIndex { .. })
        ));
        // A truncated container fails the length check.
        assert!(matches!(
            index_a.validate(&bytes_a[..bytes_a.len() - 1]),
            Err(ModelError::StaleIndex { .. })
        ));
        // Payload corruption is caught at read_frame via the checksum.
        let mut corrupt = bytes_a.clone();
        let off = index_a.entries[1].offset as usize;
        corrupt[off + 1] ^= 0xff;
        index_a.validate(&corrupt).unwrap();
        assert!(matches!(
            index_a.read_frame(&corrupt, 1),
            Err(ModelError::StaleIndex { .. })
        ));
        // Untouched frames still decode.
        assert!(index_a.read_frame(&corrupt, 0).is_ok());
    }

    #[test]
    fn reader_fuses_after_error() {
        let t = mk_trace(4, 10);
        let bytes = encode_sharded(&t, 2);
        let cut = &bytes[..bytes.len() - 20];
        let mut reader = ShardReader::new(cut).unwrap();
        let mut saw_err = false;
        for s in reader.by_ref() {
            if s.is_err() {
                saw_err = true;
            }
        }
        assert!(saw_err);
        assert!(reader.next().is_none());
        assert!(reader.next().is_none());
    }
}
