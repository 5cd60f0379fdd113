//! The workspace's one wire kit.
//!
//! Every binary format in the workspace — the `MGZT` container, the
//! `MGZP` partial report, the `MGZB`/`MGZC` store objects — is built from the same few primitives: LEB128 varints, zigzag deltas, little-endian
//! scalars, length-prefixed bytes, and a `magic | version | body | sum`
//! frame. They live here once, together with the guards every decoder
//! of outside input needs:
//!
//! * a length or count is narrowed `u64 → usize` with a check, never
//!   `as` ([`to_usize`]);
//! * a count is accepted only if the remaining input can hold that many
//!   items ([`Reader::count`]), so nothing is reserved for more items
//!   than the input has bytes;
//! * a delta chain accumulates with overflow checks ([`add_delta`]);
//! * bytes framed by an untrusted length are read from a stream one
//!   bounded chunk at a time ([`read_bounded`]), and an output buffer
//!   with an untrusted declared size grows only as bytes are produced
//!   ([`grow_toward`]).
//!
//! Format-specific structure (field order, list layouts, LZ tokens)
//! stays with its format; this module only supplies the primitives, so
//! a fix to one of them is a fix to every format.
//! All failures are a [`WireError`], which each crate's error type
//! absorbs via `From`.

use crate::hash::{fnv1a64, fnv1a64_seeded, xxh64, xxh64_seeded};
use std::io::Read;

/// Bytes of framing around a sealed body: magic, `u16` version, and the
/// trailing 64-bit sum.
const FRAME_OVERHEAD: usize = 4 + 2 + 8;

/// Largest step [`read_bounded`] asks a stream for at once.
const READ_CHUNK: usize = 1 << 20;

/// What [`read_bounded`] reserves before any byte has arrived.
const FIRST_RESERVE: usize = 64 << 10;

/// Failure of a wire primitive.
#[derive(Debug)]
pub enum WireError {
    /// Input ended before the value did.
    Truncated {
        /// What was being decoded when input ran out.
        context: &'static str,
    },
    /// A count, length or offset that `usize` cannot hold.
    Oversize {
        /// What was being decoded when the value was rejected.
        context: &'static str,
        /// The offending value.
        value: u64,
    },
    /// Structurally invalid data: bad magic, version or checksum, an
    /// overlong varint, an overflowing delta chain, non-UTF-8 text,
    /// trailing bytes.
    Malformed {
        /// What was wrong.
        detail: String,
    },
    /// The underlying stream failed.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { context } => write!(f, "truncated while decoding {context}"),
            WireError::Oversize { context, value } => write!(
                f,
                "oversize value {value} while decoding {context}: not addressable on this platform"
            ),
            WireError::Malformed { detail } => f.write_str(detail),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

fn malformed(detail: String) -> WireError {
    WireError::Malformed { detail }
}

fn bad_magic(what: &'static str, got: [u8; 4]) -> WireError {
    malformed(format!("bad {what} magic {got:?}"))
}

#[cold]
fn varint_overflow(context: &'static str) -> WireError {
    malformed(format!("varint overflow in {context}"))
}

/// Append an unsigned LEB128 varint.
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Bytes [`put_varint`] writes for `v`.
#[inline]
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Zigzag-encode a signed delta so small magnitudes stay small.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a varint length followed by the bytes.
#[inline]
pub fn put_bytes(buf: &mut Vec<u8>, data: &[u8]) {
    put_varint(buf, data.len() as u64);
    buf.extend_from_slice(data);
}

/// Append a length-prefixed UTF-8 string.
#[inline]
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Append a `u64`, little-endian.
#[inline]
pub fn put_u64_le(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bits, little-endian (bit-exact).
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64_le(buf, v.to_bits());
}

/// Append a frame header: magic, then the version as `u16` LE.
#[inline]
pub fn put_header(buf: &mut Vec<u8>, magic: &[u8; 4], version: u16) {
    buf.extend_from_slice(magic);
    buf.extend_from_slice(&version.to_le_bytes());
}

/// The 64-bit sum a sealed frame carries, which its version names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sum {
    /// FNV-1a-64: the sum of the version-1 `MGZB` and `MGZC` objects,
    /// kept so stores written before XXH64 stay readable.
    Fnv1a,
    /// XXH64: what [`seal`] writes.
    Xxh64,
}

impl Sum {
    /// The sum of `data`: FNV-1a from its offset basis, XXH64 from seed 0.
    #[inline]
    pub fn of(self, data: &[u8]) -> u64 {
        match self {
            Sum::Fnv1a => fnv1a64(data),
            Sum::Xxh64 => xxh64(data),
        }
    }

    /// The sum of `data` under `seed`, a domain of its own.
    #[inline]
    pub fn seeded(self, seed: u64, data: &[u8]) -> u64 {
        match self {
            Sum::Fnv1a => fnv1a64_seeded(seed, data),
            Sum::Xxh64 => xxh64_seeded(seed, data),
        }
    }
}

/// Seal the frame that starts at `buf[start..]` by appending the
/// XXH64 of those bytes. Whatever precedes `start` (a pooled buffer's
/// earlier content) is not covered.
pub fn seal(buf: &mut Vec<u8>, start: usize) {
    let sum = xxh64(buf.get(start..).unwrap_or_default());
    put_u64_le(buf, sum);
}

/// Open a frame written by [`put_header`] … [`seal`]: check magic and
/// version, where `versions` lists each version the format reads with
/// the sum it was sealed with, then verify the trailing sum with that
/// version's, and return the sum with a reader over the body.
pub fn open<'a>(
    data: &'a [u8],
    magic: &[u8; 4],
    versions: &[(u16, Sum)],
    what: &'static str,
) -> Result<(Sum, Reader<'a>), WireError> {
    if data.len() < FRAME_OVERHEAD {
        return Err(WireError::Truncated { context: what });
    }
    let (body, sum_bytes) = data.split_at(data.len() - 8);
    let mut r = Reader::new(body);
    r.magic(magic, what)?;
    let ver = r.u16_le(what)?;
    let Some(&(_, sum)) = versions.iter().find(|(v, _)| *v == ver) else {
        let expected: Vec<String> = versions.iter().map(|(v, _)| v.to_string()).collect();
        return Err(malformed(format!(
            "{what} version {ver}, expected {}",
            expected.join(" or ")
        )));
    };
    let want = Reader::new(sum_bytes).u64_le(what)?;
    let got = sum.of(body);
    if got != want {
        return Err(malformed(format!(
            "{what} checksum mismatch: {got:#018x} != stored {want:#018x}"
        )));
    }
    Ok((sum, r))
}

/// Narrow a decoded count, length or offset to `usize`, rejecting what
/// the platform cannot address instead of letting `as usize` wrap it
/// into a small (hostile-length-aliasing) value.
#[inline]
pub(crate) fn to_usize(v: u64, context: &'static str) -> Result<usize, WireError> {
    usize::try_from(v).map_err(|_| WireError::Oversize { context, value: v })
}

/// One step of a delta chain of non-negative deltas: `acc + delta`, or
/// a typed error where the sum leaves `u64`.
#[inline]
pub fn add_delta(acc: u64, delta: u64, context: &'static str) -> Result<u64, WireError> {
    acc.checked_add(delta)
        .ok_or_else(|| malformed(format!("delta chain overflows u64 in {context}")))
}

/// Make room in `out` for `need` more bytes of an output whose declared
/// total is `declared_len`, without trusting that total: the buffer at
/// most doubles per call, and never passes the declared length, so it
/// only ever runs ahead of bytes actually produced by a factor of two
/// while an honest length still ends with an exactly sized buffer.
/// `need` itself must be backed by real bytes (input in hand, or output
/// already produced).
#[inline]
pub fn grow_toward(out: &mut Vec<u8>, need: usize, declared_len: usize) {
    if out.capacity() - out.len() < need {
        let doubled = out.capacity().saturating_mul(2).min(declared_len);
        let target = out.len().saturating_add(need).max(doubled);
        out.reserve_exact(target - out.len());
    }
}

/// Slice cursor over untrusted bytes. Every method either returns a
/// value and advances, or returns a [`WireError`]; none panics.
#[derive(Debug)]
pub struct Reader<'a> {
    src: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    #[inline]
    pub fn new(src: &'a [u8]) -> Reader<'a> {
        Reader { src }
    }

    /// Bytes not yet consumed.
    #[inline]
    fn remaining(&self) -> usize {
        self.src.len()
    }

    /// Whether all input has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Consume and return everything left.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.src)
    }

    /// The unread input as a byte stream, so a field sequence that must
    /// also be readable from a live stream (the container's metadata
    /// block) needs only its stream decoder. What the stream consumes,
    /// this reader has consumed.
    #[inline]
    pub(crate) fn as_stream(&mut self) -> &mut &'a [u8] {
        &mut self.src
    }

    /// Consume exactly `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        let (head, tail) = self
            .src
            .split_at_checked(n)
            .ok_or(WireError::Truncated { context })?;
        self.src = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], WireError> {
        let (head, tail) = self
            .src
            .split_first_chunk::<N>()
            .ok_or(WireError::Truncated { context })?;
        self.src = tail;
        Ok(*head)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        self.array::<1>(context).map(|[b]| b)
    }

    /// A `u16`, little-endian.
    #[inline]
    fn u16_le(&mut self, context: &'static str) -> Result<u16, WireError> {
        self.array(context).map(u16::from_le_bytes)
    }

    /// A `u64`, little-endian.
    #[inline]
    pub fn u64_le(&mut self, context: &'static str) -> Result<u64, WireError> {
        self.array(context).map(u64::from_le_bytes)
    }

    /// An `f64` from its IEEE-754 bits, little-endian.
    #[inline]
    pub fn f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        self.u64_le(context).map(f64::from_bits)
    }

    /// An unsigned LEB128 varint ([`take_varint`]): ten bytes that do
    /// not end it are an overflow, input that ends inside it is
    /// truncated.
    #[inline]
    pub fn varint(&mut self, context: &'static str) -> Result<u64, WireError> {
        take_varint(&mut self.src).ok_or_else(|| {
            if self.src.len() >= 10 {
                varint_overflow(context)
            } else {
                WireError::Truncated { context }
            }
        })
    }

    /// A zigzag-coded signed varint.
    #[inline]
    pub fn zigzag(&mut self, context: &'static str) -> Result<i64, WireError> {
        self.varint(context).map(unzigzag)
    }

    /// A varint narrowed to `usize` with a check.
    #[inline]
    pub fn usize(&mut self, context: &'static str) -> Result<usize, WireError> {
        to_usize(self.varint(context)?, context)
    }

    /// A varint narrowed to `u32`; a larger value is malformed.
    #[inline]
    pub fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let v = self.varint(context)?;
        u32::try_from(v).map_err(|_| malformed(format!("{context} {v} out of range")))
    }

    /// A count of items that each occupy at least `min_item_bytes` of
    /// the remaining input. A larger count cannot be honest, so it is
    /// rejected before anything is reserved for it.
    #[inline]
    pub fn count(
        &mut self,
        min_item_bytes: usize,
        context: &'static str,
    ) -> Result<usize, WireError> {
        let n = self.usize(context)?;
        if n > self.remaining() / min_item_bytes.max(1) {
            return Err(WireError::Truncated { context });
        }
        Ok(n)
    }

    /// Length-prefixed bytes.
    #[inline]
    pub fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], WireError> {
        let n = self.count(1, context)?;
        self.take(n, context)
    }

    /// Length-prefixed UTF-8 string.
    pub fn string(&mut self, context: &'static str) -> Result<String, WireError> {
        let raw = self.bytes(context)?;
        match std::str::from_utf8(raw) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => Err(malformed(format!("non-utf8 string in {context}"))),
        }
    }

    /// Check a frame's four magic bytes.
    fn magic(&mut self, magic: &[u8; 4], what: &'static str) -> Result<(), WireError> {
        let got = self.array::<4>(what)?;
        if &got != magic {
            return Err(bad_magic(what, got));
        }
        Ok(())
    }

    /// Check a [`put_header`] header: magic, then version.
    pub(crate) fn header(
        &mut self,
        magic: &[u8; 4],
        version: u16,
        what: &'static str,
    ) -> Result<(), WireError> {
        self.magic(magic, what)?;
        let ver = self.u16_le(what)?;
        if ver != version {
            return Err(malformed(format!(
                "{what} version {ver}, expected {version}"
            )));
        }
        Ok(())
    }

    /// Require that the input was consumed exactly.
    pub fn finish(&self, what: &'static str) -> Result<(), WireError> {
        if self.src.is_empty() {
            Ok(())
        } else {
            Err(malformed(format!(
                "{} trailing bytes in {what}",
                self.src.len()
            )))
        }
    }
}

/// An unsigned LEB128 varint off the front of `src`, with no error
/// path: a value below 128 in one byte and no loop, else at most ten
/// bytes, the bits of the tenth past the 64th dropped. `None` when
/// `src` ends inside the varint or ten bytes do not end it, and then
/// `src` has not moved. Every slice decoder reads its varints here,
/// [`Reader::varint`] and the trace's per-access loop alike.
#[inline(always)]
pub(crate) fn take_varint(src: &mut &[u8]) -> Option<u64> {
    match **src {
        [byte, ref rest @ ..] if byte < 0x80 => {
            *src = rest;
            Some(u64::from(byte))
        }
        _ => take_long_varint(src),
    }
}

/// [`take_varint`] past its one-byte case.
#[inline]
fn take_long_varint(src: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    for (i, &byte) in src.iter().take(10).enumerate() {
        v |= u64::from(byte & 0x7f) << (7 * i as u32);
        if byte < 0x80 {
            *src = src.get(i + 1..).unwrap_or_default();
            return Some(v);
        }
    }
    None
}

/// `N` bytes from a stream; an early end is [`WireError::Truncated`].
pub(crate) fn read_array<const N: usize>(
    src: &mut impl Read,
    context: &'static str,
) -> Result<[u8; N], WireError> {
    let mut buf = [0u8; N];
    match src.read_exact(&mut buf) {
        Ok(()) => Ok(buf),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            Err(WireError::Truncated { context })
        }
        Err(e) => Err(WireError::Io(e)),
    }
}

/// A varint read byte-at-a-time from a stream (wrap slow sources in a
/// [`std::io::BufReader`]), as [`Reader::varint`] reads one off a slice.
pub(crate) fn read_varint(src: &mut impl Read, context: &'static str) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let [byte] = read_array::<1>(src, context)?;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(varint_overflow(context));
        }
    }
}

/// A length-prefixed UTF-8 string from a stream.
pub(crate) fn read_string(src: &mut impl Read, context: &'static str) -> Result<String, WireError> {
    let len = read_varint(src, context)?;
    let mut raw = Vec::new();
    read_bounded(src, len, &mut raw, context)?;
    String::from_utf8(raw).map_err(|_| malformed(format!("non-utf8 string in {context}")))
}

/// Append exactly `len` bytes from `src` to `out`. The length is
/// untrusted until the bytes arrive: the stream is asked for at most
/// [`READ_CHUNK`] bytes at a time and space is reserved only for a
/// small first step or for as much again as has already arrived, so a
/// header framing gigabytes against a short stream costs kilobytes, not
/// `len`. On a short stream the bytes that did arrive stay in `out` and
/// the error is [`WireError::Truncated`].
pub(crate) fn read_bounded(
    src: &mut impl Read,
    len: u64,
    out: &mut Vec<u8>,
    context: &'static str,
) -> Result<(), WireError> {
    let mut remaining = len;
    while remaining > 0 {
        let step = remaining.min(READ_CHUNK as u64);
        // `take` keeps `read_to_end` from asking the stream for more
        // than the step; past the reservation it grows `out` itself.
        out.reserve((step as usize).min(out.len().max(FIRST_RESERVE)));
        let got = src
            .by_ref()
            .take(step)
            .read_to_end(out)
            .map_err(WireError::Io)?;
        if (got as u64) < step {
            return Err(WireError::Truncated { context });
        }
        remaining -= step;
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_inverts() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len());
            assert_eq!(Reader::new(&buf).varint("t").unwrap(), v);
            assert_eq!(read_varint(&mut buf.as_slice(), "t").unwrap(), v);
            // With ten bytes and more left past it, the same value.
            buf.extend_from_slice(&[0xff; 10]);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint("t").unwrap(), v);
            assert_eq!(r.remaining(), 10);
        }
    }

    #[test]
    fn overlong_varint_is_malformed_on_every_path() {
        let overlong = [0xffu8; 11];
        for r in [
            Reader::new(&overlong).varint("x"),
            Reader::new(&overlong[..10]).varint("x"),
            read_varint(&mut &overlong[..], "x"),
        ] {
            match r {
                Err(WireError::Malformed { detail }) => assert!(detail.contains("varint overflow")),
                other => panic!("expected overflow, got {other:?}"),
            }
        }
        assert!(matches!(
            Reader::new(&overlong[..3]).varint("x"),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn counts_are_bounded_by_remaining_input() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 4);
        buf.extend_from_slice(&[0; 11]);
        assert_eq!(Reader::new(&buf).count(2, "c").unwrap(), 4);
        assert!(matches!(
            Reader::new(&buf).count(3, "c"),
            Err(WireError::Truncated { .. })
        ));
        let mut huge = Vec::new();
        put_varint(&mut huge, u64::MAX);
        assert!(Reader::new(&huge).count(1, "c").is_err());
        assert!(Reader::new(&huge).bytes("b").is_err());
        assert!(add_delta(u64::MAX, 1, "d").is_err());
        assert_eq!(add_delta(3, 4, "d").unwrap(), 7);
    }

    #[test]
    fn sealed_frames_open_and_reject_damage() {
        let mut buf = vec![0xAA; 5];
        put_header(&mut buf, b"MGZ?", 3);
        put_str(&mut buf, "body");
        seal(&mut buf, 5);
        let frame = &buf[5..];
        let v3 = [(3, Sum::Xxh64)];
        let (sum, mut r) = open(frame, b"MGZ?", &v3, "test frame").unwrap();
        assert_eq!(sum, Sum::Xxh64);
        assert_eq!(r.string("s").unwrap(), "body");
        r.finish("test frame").unwrap();
        assert!(open(frame, b"MGZ!", &v3, "t").is_err());
        assert!(open(frame, b"MGZ?", &[(4, Sum::Xxh64)], "t").is_err());
        for cut in 0..frame.len() {
            assert!(open(&frame[..cut], b"MGZ?", &v3, "t").is_err());
        }
        let mut flipped = frame.to_vec();
        flipped[7] ^= 1;
        assert!(open(&flipped, b"MGZ?", &v3, "t").is_err());
    }

    #[test]
    fn each_version_verifies_with_its_own_sum() {
        let mut old = Vec::new();
        put_header(&mut old, b"MGZ?", 1);
        put_str(&mut old, "old body");
        let sum = fnv1a64(&old);
        put_u64_le(&mut old, sum);
        let mut new = Vec::new();
        put_header(&mut new, b"MGZ?", 2);
        put_str(&mut new, "new body");
        seal(&mut new, 0);
        let both = [(1, Sum::Fnv1a), (2, Sum::Xxh64)];
        let (sum, mut r) = open(&old, b"MGZ?", &both, "t").unwrap();
        assert_eq!(
            (sum, r.string("s").unwrap().as_str()),
            (Sum::Fnv1a, "old body")
        );
        let (sum, mut r) = open(&new, b"MGZ?", &both, "t").unwrap();
        assert_eq!(
            (sum, r.string("s").unwrap().as_str()),
            (Sum::Xxh64, "new body")
        );
        // A frame sealed with the other version's sum does not open.
        let swapped = [(1, Sum::Xxh64), (2, Sum::Fnv1a)];
        assert!(open(&old, b"MGZ?", &swapped, "t").is_err());
        assert!(open(&new, b"MGZ?", &swapped, "t").is_err());
        match open(&new, b"MGZ?", &[(1, Sum::Fnv1a)], "t") {
            Err(WireError::Malformed { detail }) => {
                assert_eq!(detail, "t version 2, expected 1")
            }
            other => panic!("expected a version error, got {other:?}"),
        }
    }

    #[test]
    fn bounded_reads_never_run_ahead_of_the_stream() {
        let data = [7u8; 16];
        let mut out = Vec::new();
        let err = read_bounded(&mut &data[..], 8 << 30, &mut out, "p").unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
        assert_eq!(out, data);
        assert!(out.capacity() <= 2 * FIRST_RESERVE);
        let mut out = Vec::new();
        read_bounded(&mut &data[..], 16, &mut out, "p").unwrap();
        assert_eq!(out, data);
    }
}
