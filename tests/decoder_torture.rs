//! Decoder torture: every wire format against systematically damaged
//! input.
//!
//! For a valid fixture of each format the suite decodes
//!
//! * every truncated prefix (which must be rejected),
//! * every single-bit flip,
//! * every position overwritten with a varint, a `u32` LE or a `u64` LE
//!   of `u32::MAX`, `2^40` and `u64::MAX` — a superset of "every length
//!   and count field inflated", without a per-format map of where the
//!   fields are,
//!
//! with the trailing checksum recomputed on checksummed frames so the
//! damage reaches the parser. Every decode must return — `Ok` or the
//! crate's typed error, never a panic — and a counting allocator holds
//! its peak allocation to `ALLOC_FACTOR × input + ALLOC_SLACK` bytes.
//! A partial report (`MGZP`, `.mgzr`, `MGZW`) that still decodes is then
//! merged with itself and finished, under the same two rules.
//! Inputs that broke the decoders before they shared `model::wire` are
//! kept as named rows.
//!
//! Run in the debug profile (CI's `decoder-torture` job): release builds
//! turn off the overflow checks that the arithmetic rows trip.

mod common;

use memgaze::analysis::{PartialReport, WorkerSpec};
use memgaze::core::fanout::{read_request, read_response_frame};
use memgaze::model::stream::decode_frame_payload;
use memgaze::model::{decode_sharded, fnv1a64, FrameIndex, TraceMeta};
use memgaze::store::blob::decode_blob;
use memgaze::store::{Catalog, StoreConfig, StoreError, TraceStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Peak bytes a decode may allocate per input byte: decoded structures
/// are wider than their encodings (a three-byte access becomes a 24-byte
/// `Access`, a two-byte JSON number a 32-byte `Value`), but only by a
/// constant.
const ALLOC_FACTOR: usize = 16;
/// Fixed allowance on top: error strings, and the 64 KiB first step a
/// stream reader reserves before any byte of a framed length arrives.
const ALLOC_SLACK: usize = 96 << 10;
/// The allocator refuses any single request above this, so a decoder
/// that trusts a hostile length aborts the run instead of reserving
/// terabytes of address space.
const ALLOC_REFUSE: usize = 1 << 32;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// Counts live and peak bytes per thread (the harness and other tests
/// allocate concurrently; a decode runs on one thread).
struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain
// thread-local cells without destructors and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > ALLOC_REFUSE {
            return std::ptr::null_mut();
        }
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > ALLOC_REFUSE {
            return std::ptr::null_mut();
        }
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        q
    }
}

fn grew(n: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + n);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrank(n: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(n)));
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `f` and return its result with the peak bytes it allocated on
/// this thread above what was live when it started.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, PEAK.with(Cell::get).saturating_sub(base))
}

/// A decoder under test: `Err` carries its typed error's message.
type Decode = Box<dyn Fn(&[u8]) -> Result<(), String>>;

/// One format under torture.
struct Format {
    name: &'static str,
    valid: Vec<u8>,
    /// Whether the last eight bytes are the FNV-1a-64 of the rest.
    sealed: bool,
    decode: Decode,
}

fn typed<T, E: std::error::Error>(r: Result<T, E>) -> Result<(), String> {
    r.map(drop).map_err(|e| e.to_string())
}

fn formats() -> Vec<Format> {
    let (container, _) = common::mgzt_v2();
    let index_container = container.clone();
    let (raw_hash, raw_blob) = common::mgzb(&common::raw_blob_payload());
    let (lz_hash, lz_blob) = common::mgzb(&common::lz_blob_payload());
    // A partial that decodes goes one step on, as the store's merged
    // range and every fan-out fold would take it: merged with itself
    // (every counter doubles, every list unions with itself, the reuse
    // replay crosses a boundary) and finished into a report.
    let partial = |data: &[u8]| {
        let p = PartialReport::decode(data).map_err(|e| e.to_string())?;
        let cfg = common::config();
        let merged = PartialReport::merge_many(
            vec![p.clone(), p],
            cfg.footprint_block,
            cfg.reuse_block,
            &common::LOCALITY_SIZES,
        )
        .map_err(|e| e.to_string())?;
        let report = merged.finish(&TraceMeta::new(common::TRACE_ID, 10_000, 16 << 10));
        std::hint::black_box(report.interval_rows(4));
        Ok(())
    };
    vec![
        Format {
            name: "MGZT v2 container",
            valid: container,
            sealed: false,
            decode: Box::new(|d| typed(decode_sharded(d))),
        },
        Format {
            name: "frame payload",
            valid: common::frame_payload(0),
            sealed: false,
            decode: Box::new(|d| typed(decode_frame_payload(d))),
        },
        Format {
            name: "MGZX",
            valid: common::mgzx(),
            sealed: true,
            // A decoded index is then used: validated against the real
            // container and every frame it names read through it.
            decode: Box::new(move |d| {
                let index = FrameIndex::decode(d).map_err(|e| e.to_string())?;
                index
                    .validate(&index_container)
                    .map_err(|e| e.to_string())?;
                for i in 0..index.entries.len() {
                    typed(index.read_frame(&index_container, i))?;
                }
                Ok(())
            }),
        },
        Format {
            name: "MGZP",
            valid: common::mgzp(),
            sealed: true,
            decode: Box::new(partial),
        },
        Format {
            name: ".mgzr",
            valid: common::mgzr(),
            sealed: true,
            decode: Box::new(partial),
        },
        Format {
            name: "MGZS",
            valid: common::mgzs(),
            sealed: true,
            decode: Box::new(|d| typed(WorkerSpec::decode(d))),
        },
        Format {
            name: "MGZB raw",
            valid: raw_blob,
            sealed: true,
            decode: Box::new(move |d| typed(decode_blob(raw_hash, d))),
        },
        Format {
            name: "MGZB lz",
            valid: lz_blob,
            sealed: true,
            decode: Box::new(move |d| typed(decode_blob(lz_hash, d))),
        },
        Format {
            name: "MGZC",
            valid: common::mgzc(),
            sealed: true,
            decode: Box::new(|d| {
                let catalog = Catalog::decode(common::TRACE_ID, d).map_err(|e| e.to_string())?;
                typed(catalog.meta())
            }),
        },
        Format {
            name: "MGZW",
            valid: common::mgzw(),
            sealed: false,
            decode: Box::new(move |d| match read_response_frame(&mut &d[..])? {
                Some(payload) => partial(&payload),
                None => Err("no frame".to_string()),
            }),
        },
        Format {
            name: "MGZQ",
            valid: common::mgzq(),
            sealed: false,
            decode: Box::new(|d| match read_request(&mut &d[..]) {
                Ok(Some(_)) => Ok(()),
                Ok(None) => Err("no request".to_string()),
                Err(e) => Err(e.to_string()),
            }),
        },
        Format {
            name: "json",
            valid: common::json().into_bytes(),
            sealed: false,
            // Callers hold JSON as `str`; bytes that are not UTF-8 never
            // reach the parser.
            decode: Box::new(|d| match std::str::from_utf8(d) {
                Ok(text) => memgaze::obs::parse_json(text).map(drop),
                Err(e) => Err(e.to_string()),
            }),
        },
    ]
}

/// Recompute a sealed frame's trailing checksum after damage.
fn reseal(bytes: &mut [u8]) {
    if let Some(body_len) = bytes.len().checked_sub(8) {
        let sum = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    }
}

/// The suite's own LEB128 writer: damage is built without the code
/// under test, and the file also builds against commits that predate
/// `model::wire`, where it must fail.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

/// Length of the varint that starts at `bytes[at]` (to the end of input
/// if it never terminates).
fn varint_span(bytes: &[u8], at: usize) -> usize {
    bytes[at..]
        .iter()
        .position(|b| b & 0x80 == 0)
        .map_or(bytes.len() - at, |p| p + 1)
}

/// Every damaged variant of `f.valid`, as `(what, bytes, must_fail)`.
fn damaged(f: &Format) -> Vec<(String, Vec<u8>, bool)> {
    let valid = &f.valid;
    let body_len = if f.sealed {
        valid.len() - 8
    } else {
        valid.len()
    };
    let mut out = Vec::new();
    for cut in 0..valid.len() {
        out.push((format!("truncated to {cut}"), valid[..cut].to_vec(), true));
    }
    if f.sealed {
        // Truncate the body under a fresh checksum too, so the parser
        // (not just the checksum) meets the short input.
        for cut in 0..body_len {
            let mut bytes = valid[..cut].to_vec();
            bytes.extend_from_slice(&[0; 8]);
            reseal(&mut bytes);
            out.push((format!("body truncated to {cut} and resealed"), bytes, true));
        }
    }
    for at in 0..body_len {
        for bit in 0..8 {
            let mut bytes = valid.clone();
            bytes[at] ^= 1 << bit;
            out.push((format!("bit {bit} of byte {at} flipped"), bytes, false));
        }
        for big in [u64::from(u32::MAX), 1 << 40, u64::MAX] {
            let mut spliced = valid[..at].to_vec();
            spliced.extend_from_slice(&varint(big));
            spliced.extend_from_slice(&valid[at + varint_span(&valid[..body_len], at)..]);
            out.push((format!("varint at {at} inflated to {big}"), spliced, false));
            let mut fixed = big.to_le_bytes().to_vec();
            if big == u64::from(u32::MAX) {
                fixed.truncate(4);
            }
            if at + fixed.len() <= body_len {
                let mut bytes = valid.clone();
                bytes[at..at + fixed.len()].copy_from_slice(&fixed);
                out.push((
                    format!("fixed-width field at {at} set to {big}"),
                    bytes,
                    false,
                ));
            }
        }
    }
    if f.sealed {
        for (_, bytes, must_fail) in &mut out {
            if !*must_fail {
                reseal(bytes);
            }
        }
    }
    out
}

/// Decode one input under the panic and allocation rules; `Err` is what
/// the row reports.
fn check(
    decode: &dyn Fn(&[u8]) -> Result<(), String>,
    input: &[u8],
    must_fail: bool,
) -> Result<(), String> {
    let (outcome, peak) = measured(|| catch_unwind(AssertUnwindSafe(|| decode(input))));
    let bound = ALLOC_FACTOR * input.len() + ALLOC_SLACK;
    match outcome {
        Err(payload) => Err(format!(
            "panicked: {}",
            payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(no message)")
        )),
        Ok(Ok(())) if must_fail => Err("decoded, but must be rejected".to_string()),
        Ok(Err(detail)) if detail.is_empty() => Err("rejected without a detail".to_string()),
        Ok(_) if peak > bound => Err(format!(
            "allocated {peak} bytes for {} input bytes (bound {bound})",
            input.len()
        )),
        Ok(_) => Ok(()),
    }
}

#[test]
fn every_format_survives_systematic_damage() {
    let mut failures = Vec::new();
    let mut cases = 0usize;
    for f in formats() {
        if let Err(e) = check(&*f.decode, &f.valid, false).and_then(|()| (f.decode)(&f.valid)) {
            failures.push(format!("{}: valid fixture: {e}", f.name));
        }
        for (what, bytes, must_fail) in damaged(&f) {
            cases += 1;
            if let Err(e) = check(&*f.decode, &bytes, must_fail) {
                failures.push(format!("{}: {what}: {e}", f.name));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {cases} damaged inputs broke a decoder; first 20:\n{}",
        failures.len(),
        failures[..failures.len().min(20)].join("\n")
    );
}

/// `magic | version | body`, sealed.
fn sealed(magic: &[u8; 4], version: u16, body: &[u8]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&[0; 8]);
    reseal(&mut out);
    out
}

/// The inputs that broke a decoder before the wire kit, by name. At
/// commit c59f616 the first three panic (debug overflow checks) and the
/// last, kept last for that reason, aborts the process on a reservation
/// driven by an unvalidated length.
#[test]
fn inputs_that_broke_the_old_decoders_are_rejected() {
    let rows: Vec<(&str, Vec<u8>, Decode)> = vec![
        (
            // `Dec::take` computed `pos + n` with n = u64::MAX.
            "MGZC whose trace-id length is u64::MAX",
            sealed(b"MGZC", 1, &varint(u64::MAX)),
            Box::new(|d| typed(Catalog::decode("x", d))),
        ),
        (
            // `offset += delta` over the entry table.
            "MGZX whose two entry offsets sum past u64",
            {
                let mut body = varint(7); // header_len
                body.extend_from_slice(&[0; 8]); // header_checksum
                for v in [100, 0, 0, 2] {
                    body.extend_from_slice(&varint(v)); // lengths, totals, 2 entries
                }
                for delta in [u64::MAX, 1] {
                    body.extend_from_slice(&varint(delta));
                    body.extend_from_slice(&varint(1)); // len
                    body.extend_from_slice(&varint(1)); // samples
                    body.extend_from_slice(&[0; 8]); // checksum
                }
                sealed(b"MGZX", 1, &body)
            },
            Box::new(|d| typed(FrameIndex::decode(d))),
        ),
        (
            // `v += delta` in the sorted-list decoder.
            "MGZP whose function footprint deltas sum past u64",
            {
                let mut body = vec![3u8, 6]; // footprint, reuse block log2
                body.extend_from_slice(&[0; 10]); // no locality sizes, counters, rows, histogram
                body.push(1); // one function
                body.extend_from_slice(&[0, 0]); // id 0, empty name
                body.push(2); // footprint list of two
                body.extend_from_slice(&varint(u64::MAX));
                body.push(1); // + 1
                sealed(b"MGZP", 2, &body)
            },
            Box::new(|d| typed(PartialReport::decode(d))),
        ),
        (
            // `Vec::with_capacity(raw_len)` ahead of any output.
            "27-byte MGZB lz blob declaring 2^40 raw bytes",
            {
                let mut body = vec![1u8]; // enc = lz
                body.extend_from_slice(&varint(1 << 40));
                body.extend_from_slice(&varint(1 << 40)); // the stream's own raw_len
                sealed(b"MGZB", 1, &body)
            },
            Box::new(|d| typed(decode_blob(0, d))),
        ),
    ];
    let failures: Vec<String> = rows
        .iter()
        .filter_map(|(name, input, decode)| {
            let e = check(&**decode, input, true).err()?;
            eprintln!("{name}: {e}");
            Some(format!("{name}: {e}"))
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A catalog's `container_len` is checked after reassembly; it must not
/// size the reassembly buffer before.
#[test]
fn reassembly_does_not_trust_the_cataloged_length() {
    let root = std::env::temp_dir().join(format!("memgaze-torture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = TraceStore::open(StoreConfig::new(&root)).unwrap();
    let (container, index) = common::mgzt_v2();
    store
        .put(common::TRACE_ID, &container, &index, &common::symbols())
        .unwrap();
    let mut catalog = store.catalog(common::TRACE_ID).unwrap();
    catalog.container_len = 1 << 40;
    let (outcome, peak) = measured(|| store.reassemble(&catalog));
    assert!(matches!(outcome, Err(StoreError::StaleCatalog { .. })));
    assert!(
        peak <= ALLOC_FACTOR * container.len() + ALLOC_SLACK,
        "reassembly allocated {peak} bytes for a {}-byte container",
        container.len()
    );
    std::fs::remove_dir_all(&root).unwrap();
}
