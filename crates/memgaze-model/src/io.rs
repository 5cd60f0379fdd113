//! Compact on-disk trace encoding.
//!
//! MemGaze trace sizes matter (paper §VI-C, Table III): the collector's
//! output is what gets copied from the pinned kernel buffer and stored.
//! This module provides a delta + LEB128-varint codec for sampled and full
//! traces; the encoded byte counts are what the Table III space-savings
//! experiment reports.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "MGZT" | version u16 | kind u8 | meta | payload
//! meta   := workload(len-prefixed utf8) | period | buffer_bytes
//!           | total_loads | total_instr        (all varint)
//! sampled payload := |σ| varint, then per sample:
//!           trigger_time Δvarint | w varint |
//!           per access: ip zigzag-Δ | addr zigzag-Δ | time Δ  (varints)
//! full payload := dropped varint | n varint | accesses as above
//! ```

use crate::access::Access;
use crate::error::ModelError;
use crate::sample::{FullTrace, Sample, SampledTrace, TraceMeta};
use crate::wire::{self, put_str, put_varint, read_string, read_varint, zigzag, Reader};
use bytes::Bytes;
use std::io::Read;

pub(crate) const MAGIC: &[u8; 4] = b"MGZT";
const VERSION: u16 = 1;
const KIND_SAMPLED: u8 = 0;
const KIND_FULL: u8 = 1;

pub(crate) fn put_meta(buf: &mut Vec<u8>, meta: &TraceMeta) {
    put_str(buf, &meta.workload);
    put_varint(buf, meta.period);
    put_varint(buf, meta.buffer_bytes);
    put_varint(buf, meta.total_loads);
    put_varint(buf, meta.total_instrumented_loads);
}

/// Read the metadata block from a stream (a slice cursor lends itself
/// as one through [`Reader::as_stream`]).
pub(crate) fn read_meta(src: &mut impl Read) -> Result<TraceMeta, ModelError> {
    Ok(TraceMeta {
        workload: read_string(src, "meta.workload")?,
        period: read_varint(src, "meta.period")?,
        buffer_bytes: read_varint(src, "meta.buffer_bytes")?,
        total_loads: read_varint(src, "meta.total_loads")?,
        total_instrumented_loads: read_varint(src, "meta.total_instr")?,
    })
}

/// Delta-encoding state for a run of accesses.
#[derive(Default)]
struct DeltaState {
    ip: u64,
    addr: u64,
    time: u64,
}

fn put_access(buf: &mut Vec<u8>, st: &mut DeltaState, a: &Access) {
    put_varint(buf, zigzag(a.ip.0.wrapping_sub(st.ip) as i64));
    put_varint(buf, zigzag(a.addr.0.wrapping_sub(st.addr) as i64));
    put_varint(buf, a.time.wrapping_sub(st.time));
    st.ip = a.ip.0;
    st.addr = a.addr.0;
    st.time = a.time;
}

#[inline]
fn get_access(r: &mut Reader<'_>, st: &mut DeltaState) -> Result<Access, ModelError> {
    let dip = r.zigzag("access.ip")?;
    let daddr = r.zigzag("access.addr")?;
    let dtime = r.varint("access.time")?;
    // The encoder's ip/addr deltas are signed wrapping differences, so
    // those sums wrap back by construction. Time only moves forward
    // within a sample (`Sample::new`'s invariant), so a sum that leaves
    // `u64` is corrupt input, not a wrapped difference.
    st.ip = st.ip.wrapping_add(dip as u64);
    st.addr = st.addr.wrapping_add(daddr as u64);
    st.time = wire::add_delta(st.time, dtime, "access.time")?;
    Ok(Access {
        ip: crate::Ip(st.ip),
        addr: crate::Addr(st.addr),
        time: st.time,
    })
}

/// The MGZT container header: magic, version, then the payload kind.
pub(crate) fn put_header(buf: &mut Vec<u8>, version: u16, kind: u8) {
    wire::put_header(buf, MAGIC, version);
    buf.push(kind);
}

/// Check a header written by [`put_header`].
pub(crate) fn check_header(r: &mut Reader<'_>, version: u16, kind: u8) -> Result<(), ModelError> {
    r.header(MAGIC, version, "header")?;
    let got = r.u8("header")?;
    if got != kind {
        return Err(ModelError::BadHeader {
            detail: format!("kind {got}, expected {kind}"),
        });
    }
    Ok(())
}

/// Append one sample: trigger delta from `prev_trigger`, window length,
/// then delta-coded accesses with a fresh [`DeltaState`]. Shared by the
/// v1 monolithic payload and the v2 shard frames.
pub(crate) fn put_sample(buf: &mut Vec<u8>, prev_trigger: u64, s: &Sample) {
    put_varint(buf, s.trigger_time.wrapping_sub(prev_trigger));
    put_varint(buf, s.accesses.len() as u64);
    let mut st = DeltaState::default();
    for a in &s.accesses {
        put_access(buf, &mut st, a);
    }
}

/// Decode one sample written by [`put_sample`]. The claimed window
/// length is validated against the remaining payload before any
/// allocation, so a corrupt count errors instead of reserving memory
/// for it.
pub(crate) fn get_sample(r: &mut Reader<'_>, prev_trigger: u64) -> Result<Sample, ModelError> {
    let trigger = prev_trigger.wrapping_add(r.varint("trigger_time")?);
    // Every encoded access costs at least three bytes (three varints).
    let w = r.count(3, "sample accesses")?;
    let mut st = DeltaState::default();
    let mut accesses = Vec::with_capacity(w);
    for _ in 0..w {
        accesses.push(get_access(r, &mut st)?);
    }
    Ok(Sample::new(accesses, trigger))
}

/// Decode `n` samples whose trigger chain starts at 0, naming the
/// failing sample on error. Shared by the v1 payload and v2 frames.
pub(crate) fn get_samples(
    r: &mut Reader<'_>,
    n: usize,
    mut push: impl FnMut(Sample) -> Result<(), ModelError>,
) -> Result<(), ModelError> {
    let mut trigger = 0u64;
    for index in 0..n {
        let s = get_sample(r, trigger).map_err(|e| ModelError::InSample {
            index,
            source: Box::new(e),
        })?;
        trigger = s.trigger_time;
        push(s)?;
    }
    Ok(())
}

/// Encode a sampled trace to its compact byte representation.
pub fn encode_sampled(trace: &SampledTrace) -> Bytes {
    let mut buf = Vec::with_capacity(64 + trace.observed_accesses() as usize * 4);
    put_header(&mut buf, VERSION, KIND_SAMPLED);
    put_meta(&mut buf, &trace.meta);
    put_varint(&mut buf, trace.samples.len() as u64);
    let mut prev_trigger = 0u64;
    for s in &trace.samples {
        put_sample(&mut buf, prev_trigger, s);
        prev_trigger = s.trigger_time;
    }
    Bytes::from(buf)
}

/// Decode a sampled trace previously produced by [`encode_sampled`].
pub fn decode_sampled(data: Bytes) -> Result<SampledTrace, ModelError> {
    let mut r = Reader::new(data.as_slice());
    check_header(&mut r, VERSION, KIND_SAMPLED)?;
    let meta = read_meta(r.as_stream())?;
    // Every encoded sample costs at least two bytes (two varints), so a
    // claimed count beyond that is corrupt; reject it before allocating.
    let n = r.count(2, "samples")?;
    let mut trace = SampledTrace::new(meta);
    get_samples(&mut r, n, |s| trace.push_sample(s))?;
    Ok(trace)
}

/// Encode a full trace.
pub fn encode_full(trace: &FullTrace) -> Bytes {
    let mut buf = Vec::with_capacity(64 + trace.accesses.len() * 4);
    put_header(&mut buf, VERSION, KIND_FULL);
    put_meta(&mut buf, &trace.meta);
    put_varint(&mut buf, trace.dropped);
    put_varint(&mut buf, trace.accesses.len() as u64);
    let mut st = DeltaState::default();
    for a in &trace.accesses {
        put_access(&mut buf, &mut st, a);
    }
    Bytes::from(buf)
}

/// Decode a full trace previously produced by [`encode_full`].
pub fn decode_full(data: Bytes) -> Result<FullTrace, ModelError> {
    let mut r = Reader::new(data.as_slice());
    check_header(&mut r, VERSION, KIND_FULL)?;
    let meta = read_meta(r.as_stream())?;
    let dropped = r.varint("dropped")?;
    let n = r.count(3, "accesses")?;
    let mut st = DeltaState::default();
    let mut accesses = Vec::with_capacity(n);
    for _ in 0..n {
        accesses.push(get_access(&mut r, &mut st)?);
    }
    Ok(FullTrace {
        meta,
        accesses,
        dropped,
    })
}

/// Encoded size in bytes of a sampled trace (what Table III reports as the
/// 'MemGaze' column).
pub fn sampled_size_bytes(trace: &SampledTrace) -> u64 {
    encode_sampled(trace).len() as u64
}

/// Encoded size in bytes of a full trace ('Rec'/'All' columns of Table III,
/// depending on whether drops occurred upstream).
pub fn full_size_bytes(trace: &FullTrace) -> u64 {
    encode_full(trace).len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;
    use crate::sample::{Sample, TraceMeta};

    fn mk_trace(samples: usize, w: usize) -> SampledTrace {
        let mut t = SampledTrace::new(TraceMeta::new("unit", 10_000, 16 << 10));
        t.meta.total_loads = (samples * 10_000) as u64;
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
    fn sampled_roundtrip() {
        let t = mk_trace(5, 100);
        let bytes = encode_sampled(&t);
        let back = decode_sampled(bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn full_roundtrip() {
        let mut f = FullTrace::new(TraceMeta::new("unit", 0, 0));
        f.dropped = 17;
        f.accesses = (0..1000)
            .map(|i| Access::new(0x400u64, 0x1000u64 + i * 8, i))
            .collect();
        let back = decode_full(encode_full(&f)).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn delta_coding_compresses_regular_streams() {
        // A strided stream should cost only a few bytes per access.
        let t = mk_trace(1, 10_000);
        let per_access = sampled_size_bytes(&t) as f64 / 10_000.0;
        assert!(
            per_access < 6.0,
            "expected < 6 B/access for strided stream, got {per_access}"
        );
    }

    #[test]
    fn truncated_input_is_rejected() {
        let t = mk_trace(2, 50);
        let bytes = encode_sampled(&t);
        for cut in [0usize, 3, 6, 10, bytes.len() - 1] {
            let sliced = bytes.slice(0..cut);
            assert!(decode_sampled(sliced).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn truncation_mid_sample_names_the_sample() {
        let t = mk_trace(3, 50);
        let bytes = encode_sampled(&t);
        // Cut deep into the payload: past the header, meta, and first
        // sample, but before the end — the error must locate a sample.
        let sliced = bytes.slice(0..bytes.len() - 10);
        match decode_sampled(sliced) {
            Err(ModelError::InSample { index, source }) => {
                assert_eq!(index, 2);
                assert!(matches!(
                    *source,
                    ModelError::Truncated { .. } | ModelError::BadHeader { .. }
                ));
            }
            other => panic!("expected InSample, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_sample_count_is_rejected_without_allocating() {
        // Header + meta, then a sample count far beyond the payload: the
        // decoder must refuse before reserving memory for it.
        let mut buf = Vec::new();
        put_header(&mut buf, VERSION, KIND_SAMPLED);
        put_meta(&mut buf, &TraceMeta::new("corrupt", 1000, 4096));
        put_varint(&mut buf, u64::MAX >> 1);
        assert!(matches!(
            decode_sampled(Bytes::from(buf)),
            Err(ModelError::Truncated { .. })
        ));
    }

    #[test]
    fn corrupt_window_count_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        put_header(&mut buf, VERSION, KIND_SAMPLED);
        put_meta(&mut buf, &TraceMeta::new("corrupt", 1000, 4096));
        put_varint(&mut buf, 1); // one sample
        put_varint(&mut buf, 5); // trigger delta
        put_varint(&mut buf, u64::MAX >> 1); // absurd window length
        match decode_sampled(Bytes::from(buf)) {
            Err(ModelError::InSample { index: 0, source }) => {
                assert!(matches!(*source, ModelError::Truncated { .. }));
            }
            other => panic!("expected InSample, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_full_count_is_rejected() {
        let mut buf = Vec::new();
        put_header(&mut buf, VERSION, KIND_FULL);
        put_meta(&mut buf, &TraceMeta::new("corrupt", 0, 0));
        put_varint(&mut buf, 0); // dropped
        put_varint(&mut buf, u64::MAX >> 1); // absurd access count
        assert!(matches!(
            decode_full(Bytes::from(buf)),
            Err(ModelError::Truncated { .. })
        ));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // Eleven continuation bytes cannot encode a u64.
        let mut buf = Vec::new();
        put_header(&mut buf, VERSION, KIND_SAMPLED);
        buf.extend_from_slice(&[0xff; 11]);
        assert!(matches!(
            decode_sampled(Bytes::from(buf)),
            Err(ModelError::BadHeader { .. })
        ));
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let t = mk_trace(1, 10);
        let bytes = encode_sampled(&t);
        assert!(matches!(
            decode_full(bytes),
            Err(ModelError::BadHeader { .. })
        ));
    }
}
