//! The per-sample trace codec, and Table III's byte meters over it.
//!
//! Every trace the system writes, stores or ships is a sharded
//! container ([`crate::stream`]); this module holds the pieces that
//! container is built from:
//!
//! ```text
//! header := magic "MGZT" | version u16 | kind u8
//! meta   := workload(len-prefixed utf8) | period | buffer_bytes
//!           | total_loads | total_instr        (all varint)
//! sample := trigger_time Δvarint | w varint |
//!           per access: ip zigzag-Δ | addr zigzag-Δ | time Δ  (varints)
//! ```
//!
//! MemGaze trace sizes matter (paper §VI-C, Table III): the collector's
//! output is what gets copied from the pinned kernel buffer and stored.
//! [`sampled_size_bytes`] and [`full_size_bytes`] count what this codec
//! writes for a whole trace, which is what the Table III space-savings
//! experiment reports.

use crate::access::Access;
use crate::error::ModelError;
use crate::sample::{FullTrace, Sample, SampledTrace, TraceMeta};
use crate::wire::{
    self, put_str, put_varint, read_string, read_varint, take_varint, unzigzag, zigzag, Reader,
};
use std::io::Read;

pub(crate) const MAGIC: &[u8; 4] = b"MGZT";

/// Bytes of a [`put_header`] header: magic, `u16` version, kind.
const HEADER_BYTES: u64 = 7;

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

/// One access off the front of `src` with no error path: `None` for
/// anything but three whole varints whose time delta keeps the chain
/// inside `u64`, and then neither `src` nor `st` has moved.
#[inline(always)]
fn next_access(src: &mut &[u8], st: &mut DeltaState) -> Option<Access> {
    let mut rest = *src;
    let dip = unzigzag(take_varint(&mut rest)?);
    let daddr = unzigzag(take_varint(&mut rest)?);
    let time = st.time.checked_add(take_varint(&mut rest)?)?;
    *src = rest;
    st.ip = st.ip.wrapping_add(dip as u64);
    st.addr = st.addr.wrapping_add(daddr as u64);
    st.time = time;
    Some(Access {
        ip: crate::Ip(st.ip),
        addr: crate::Addr(st.addr),
        time,
    })
}

/// One access through the checked reader: the typed error, with its
/// field's context, of whatever [`next_access`] declined.
#[cold]
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
/// then delta-coded accesses with a fresh [`DeltaState`].
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
/// for it. The accesses decode in one loop over the payload slice
/// ([`next_access`]); an access it declines is decoded again through
/// the checked [`Reader`], whose typed error is the one returned.
pub(crate) fn get_sample(r: &mut Reader<'_>, prev_trigger: u64) -> Result<Sample, ModelError> {
    let trigger = prev_trigger.wrapping_add(r.varint("trigger_time")?);
    // Every encoded access costs at least three bytes (three varints).
    let w = r.count(3, "sample accesses")?;
    let mut st = DeltaState::default();
    let mut accesses = Vec::with_capacity(w);
    for _ in 0..w {
        let a = match next_access(r.as_stream(), &mut st) {
            Some(a) => a,
            None => get_access(r, &mut st)?,
        };
        accesses.push(a);
    }
    Ok(Sample::new(accesses, trigger))
}

/// Decode `n` samples whose trigger chain starts at 0, naming the
/// failing sample on error.
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

/// Encoded size in bytes of a sampled trace: Table III's 'MemGaze'
/// column. These are the bytes Table III has always reported — a
/// 7-byte header, the meta block, the sample count, then the samples
/// as [`put_sample`] writes them, trigger chain from 0 — counted
/// through one scratch buffer cleared per sample, so the encoded trace
/// is never held.
pub fn sampled_size_bytes(trace: &SampledTrace) -> u64 {
    let mut scratch = Vec::new();
    put_meta(&mut scratch, &trace.meta);
    put_varint(&mut scratch, trace.samples.len() as u64);
    let mut total = HEADER_BYTES + scratch.len() as u64;
    let mut prev_trigger = 0u64;
    for s in &trace.samples {
        scratch.clear();
        put_sample(&mut scratch, prev_trigger, s);
        total += scratch.len() as u64;
        prev_trigger = s.trigger_time;
    }
    total
}

/// Encoded size in bytes of a full trace: Table III's 'Rec'/'All'
/// columns, depending on whether drops occurred upstream. A 7-byte
/// header, the meta block, the drop and access counts, then one delta
/// chain over every access as [`put_access`] writes it, counted
/// through one scratch buffer cleared per access.
pub fn full_size_bytes(trace: &FullTrace) -> u64 {
    let mut scratch = Vec::new();
    put_meta(&mut scratch, &trace.meta);
    put_varint(&mut scratch, trace.dropped);
    put_varint(&mut scratch, trace.accesses.len() as u64);
    let mut total = HEADER_BYTES + scratch.len() as u64;
    let mut st = DeltaState::default();
    for a in &trace.accesses {
        scratch.clear();
        put_access(&mut scratch, &mut st, a);
        total += scratch.len() as u64;
    }
    total
}
