//! The workspace's one wire kit.
//!
//! Every binary format in the workspace — the `MGZT` containers, the
//! `MGZX` index, the `MGZP`/`MGZS` fan-out frames, the `MGZB`/`MGZC`
//! store objects, the `MGZW`/`MGZQ` pipe protocol — is built from the
//! same few primitives: LEB128 varints, zigzag deltas, little-endian
//! scalars, length-prefixed bytes, and a `magic | version | body | FNV`
//! frame. They live here once, together with the guards every decoder
//! of outside input needs:
//!
//! * a length or count is narrowed `u64 → usize` with a check, never
//!   `as` ([`to_usize`]);
//! * a count is accepted only if the remaining input can hold that many
//!   items ([`Reader::count`]), and where items can be smaller than a
//!   byte (run-length lists) the up-front reservation is capped by the
//!   remaining input instead ([`Reader::reserve_hint`]);
//! * a delta chain accumulates with overflow checks ([`add_delta`]);
//! * bytes framed by an untrusted length are read from a stream one
//!   bounded chunk at a time ([`read_bounded`]), and an output buffer
//!   with an untrusted declared size grows only as bytes are produced
//!   ([`grow_toward`]).
//!
//! Format-specific structure (field order, run-length and pattern
//! escapes, LZ tokens) stays with its format; this module only supplies
//! the primitives, so a fix to one of them is a fix to every format.
//! All failures are a [`WireError`], which each crate's error type
//! absorbs via `From`.

use crate::hash::fnv1a64;
use std::io::Read;

/// Bytes of framing around a sealed body: magic, `u16` version, and the
/// trailing FNV-1a-64.
const FRAME_OVERHEAD: usize = 4 + 2 + 8;

/// Largest step [`read_bounded`] asks a stream for at once.
pub const READ_CHUNK: usize = 1 << 20;

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
pub fn unzigzag(v: u64) -> i64 {
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

/// Seal the frame that starts at `buf[start..]` by appending the
/// FNV-1a-64 of those bytes. Whatever precedes `start` (a pooled
/// buffer's earlier content) is not covered.
pub fn seal(buf: &mut Vec<u8>, start: usize) {
    let sum = fnv1a64(buf.get(start..).unwrap_or_default());
    put_u64_le(buf, sum);
}

/// Open a frame written by [`put_header`] … [`seal`]: verify the
/// trailing checksum, then magic and version, and return a reader over
/// the body between them.
pub fn open<'a>(
    data: &'a [u8],
    magic: &[u8; 4],
    version: u16,
    what: &'static str,
) -> Result<Reader<'a>, WireError> {
    if data.len() < FRAME_OVERHEAD {
        return Err(WireError::Truncated { context: what });
    }
    let (body, sum_bytes) = data.split_at(data.len() - 8);
    let want = Reader::new(sum_bytes).u64_le(what)?;
    let got = fnv1a64(body);
    if got != want {
        return Err(malformed(format!(
            "{what} checksum mismatch: {got:#018x} != stored {want:#018x}"
        )));
    }
    let mut r = Reader::new(body);
    r.header(magic, version, what)?;
    Ok(r)
}

/// Narrow a decoded count, length or offset to `usize`, rejecting what
/// the platform cannot address instead of letting `as usize` wrap it
/// into a small (hostile-length-aliasing) value.
#[inline]
pub fn to_usize(v: u64, context: &'static str) -> Result<usize, WireError> {
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
    pub fn as_stream(&mut self) -> &mut &'a [u8] {
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

    /// An unsigned LEB128 varint.
    #[inline]
    pub fn varint(&mut self, context: &'static str) -> Result<u64, WireError> {
        // Fast path: a u64 varint is at most 10 bytes, so when that many
        // remain the whole value decodes with a single bounds decision
        // instead of one per byte. The codecs decode hundreds of
        // thousands of these per report.
        if let Some((head, _)) = self.src.split_first_chunk::<10>() {
            let mut v: u64 = 0;
            for (i, &byte) in head.iter().enumerate() {
                v |= u64::from(byte & 0x7f) << (7 * i as u32);
                if byte & 0x80 == 0 {
                    self.src = self.src.get(i + 1..).unwrap_or_default();
                    return Ok(v);
                }
            }
            return Err(varint_overflow(context));
        }
        varint_bytewise(|| self.u8(context), context)
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

    /// How many of `n` declared items to reserve for up front when an
    /// item can be smaller than a byte (run-length lists, where
    /// [`count`](Self::count) does not apply): no more than the
    /// remaining input has bytes. The rest is grown as items are
    /// actually produced.
    #[inline]
    pub fn reserve_hint(&self, n: usize) -> usize {
        n.min(self.remaining())
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

    /// Check a [`put_header`] header: magic, then version.
    pub fn header(
        &mut self,
        magic: &[u8; 4],
        version: u16,
        what: &'static str,
    ) -> Result<(), WireError> {
        let got = self.array::<4>(what)?;
        if &got != magic {
            return Err(bad_magic(what, got));
        }
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

/// The varint loop over any byte source, shared by the slice reader's
/// short-input tail and the stream reader.
#[inline]
fn varint_bytewise(
    mut next: impl FnMut() -> Result<u8, WireError>,
    context: &'static str,
) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = next()?;
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

/// `N` bytes from a stream; an early end is [`WireError::Truncated`].
pub fn read_array<const N: usize>(
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

/// The magic that opens each frame of a pipe protocol. `Ok(false)` is a
/// clean end of stream at a frame boundary — the peer closed the pipe
/// between frames, which is how it says it is done; an end part-way
/// through the magic is [`WireError::Truncated`].
pub fn read_magic(
    src: &mut impl Read,
    magic: &[u8; 4],
    what: &'static str,
) -> Result<bool, WireError> {
    let mut got = [0u8; 4];
    let mut filled = 0usize;
    while let Some(space) = got.get_mut(filled..).filter(|s| !s.is_empty()) {
        match src.read(space) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(WireError::Truncated { context: what }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    if &got != magic {
        return Err(bad_magic(what, got));
    }
    Ok(true)
}

/// A varint read byte-at-a-time from a stream (wrap slow sources in a
/// [`std::io::BufReader`]).
pub fn read_varint(src: &mut impl Read, context: &'static str) -> Result<u64, WireError> {
    varint_bytewise(|| read_array::<1>(src, context).map(|[b]| b), context)
}

/// A length-prefixed UTF-8 string from a stream.
pub fn read_string(src: &mut impl Read, context: &'static str) -> Result<String, WireError> {
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
pub fn read_bounded(
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
            // The fast path (≥ 10 bytes left) agrees with the tail loop.
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
        assert_eq!(Reader::new(&buf).reserve_hint(1 << 40), buf.len());
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
        let mut r = open(frame, b"MGZ?", 3, "test frame").unwrap();
        assert_eq!(r.string("s").unwrap(), "body");
        r.finish("test frame").unwrap();
        assert!(open(frame, b"MGZ!", 3, "t").is_err());
        assert!(open(frame, b"MGZ?", 4, "t").is_err());
        for cut in 0..frame.len() {
            assert!(open(&frame[..cut], b"MGZ?", 3, "t").is_err());
        }
        let mut flipped = frame.to_vec();
        flipped[7] ^= 1;
        assert!(open(&flipped, b"MGZ?", 3, "t").is_err());
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
