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
//! with the trailing checksum recomputed on checksummed frames, by the
//! sum their version is sealed with, so the damage reaches the parser.
//! The version-1 blobs and catalog c59f616 wrote, sealed with FNV-1a,
//! are tortured beside the current versions, sealed with XXH64. Every
//! decode must return — `Ok` or the crate's typed error, never a panic
//! — and a counting allocator holds its peak allocation to
//! `ALLOC_FACTOR × input + ALLOC_SLACK` bytes.
//! A partial report (`MGZP`, `.mgzr`) that still decodes is then
//! merged with itself and finished, and a catalog (`MGZC`) that still
//! decodes is queried through `QueryEngine`, under the same two rules.
//! Inputs that broke the decoders before they shared `model::wire` are
//! kept as named rows.
//!
//! Run in the debug profile (CI's `decoder-torture` job): release builds
//! turn off the overflow checks that the arithmetic rows trip.

mod common;

use memgaze::analysis::PartialReport;
use memgaze::model::stream::decode_frame_payload;
use memgaze::model::{decode_sharded, fnv1a64, fnv1a64_seeded, xxh64, TraceMeta};
use memgaze::store::blob::decode_blob;
use memgaze::store::blob::CONTENT_HASH_SEED;
use memgaze::store::{Catalog, QueryEngine, StoreConfig, StoreError, TraceStore};
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
    /// The sum the last eight bytes hold of the rest, if they hold one.
    sum: Option<fn(&[u8]) -> u64>,
    decode: Decode,
}

fn typed<T, E: std::error::Error>(r: Result<T, E>) -> Result<(), String> {
    r.map(drop).map_err(|e| e.to_string())
}

fn formats() -> Vec<Format> {
    let (container, _) = common::mgzt_v2();
    let (raw_hash, raw_blob) = common::mgzb(&common::raw_blob_payload());
    let (lz_hash, lz_blob) = common::mgzb(&common::lz_blob_payload());
    // The version-1 blobs are filed under FNV-1a content hashes.
    let v1_hash = |payload: Vec<u8>| fnv1a64_seeded(CONTENT_HASH_SEED, &payload);
    let v1_raw_hash = v1_hash(common::raw_blob_payload());
    let v1_lz_hash = v1_hash(common::lz_blob_payload());
    // A decoded catalog is then queried, as `memgaze query` does.
    let catalog = |d: &[u8]| {
        let catalog = Catalog::decode(common::TRACE_ID, d).map_err(|e| e.to_string())?;
        typed(catalog.meta())?;
        let engine = QueryEngine::new(&catalog).map_err(|e| e.to_string())?;
        std::hint::black_box((
            engine.region(0, u64::MAX),
            engine.time_range(0, u64::MAX),
            engine.functions(),
        ));
        Ok(())
    };
    // The read that keeps no frame summaries (reassembly, `gc`, a
    // whole-trace analyze) accepts what the full read accepts, with the
    // same error, and is that catalog with its summaries emptied.
    let catalog_frames = |d: &[u8]| {
        let lean = Catalog::decode_without_summaries(common::TRACE_ID, d);
        match (lean, Catalog::decode(common::TRACE_ID, d)) {
            (Ok(lean), Ok(mut full)) => {
                for f in &mut full.frames {
                    f.reuse_rows.clear();
                    f.func_loads.clear();
                }
                assert_eq!(lean, full);
                typed(lean.meta())
            }
            (Err(lean), Err(full)) => {
                assert_eq!(lean.to_string(), full.to_string());
                Err(lean.to_string())
            }
            (lean, full) => panic!("the two reads disagree: {lean:?} against {full:?}"),
        }
    };
    // A partial that decodes goes one step on, as a serve seal takes an
    // upload's, through the one fold: merged with itself
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
            sum: None,
            decode: Box::new(|d| typed(decode_sharded(d))),
        },
        Format {
            name: "frame payload",
            valid: common::frame_payload(0),
            sum: None,
            decode: Box::new(|d| typed(decode_frame_payload(d))),
        },
        Format {
            name: "MGZP",
            valid: common::mgzp(),
            sum: Some(xxh64),
            decode: Box::new(partial),
        },
        Format {
            name: ".mgzr",
            valid: common::mgzr(),
            sum: Some(xxh64),
            decode: Box::new(partial),
        },
        Format {
            name: "MGZB raw",
            valid: raw_blob,
            sum: Some(xxh64),
            decode: Box::new(move |d| typed(decode_blob(raw_hash, d))),
        },
        Format {
            name: "MGZB lz",
            valid: lz_blob,
            sum: Some(xxh64),
            decode: Box::new(move |d| typed(decode_blob(lz_hash, d))),
        },
        Format {
            name: "MGZC",
            valid: common::mgzc(),
            sum: Some(xxh64),
            decode: Box::new(catalog),
        },
        Format {
            name: "MGZC without summaries",
            valid: common::mgzc(),
            sum: Some(xxh64),
            decode: Box::new(catalog_frames),
        },
        Format {
            name: "MGZB v1 raw (c59f616)",
            valid: common::fixture("c59f616-raw.blob"),
            sum: Some(fnv1a64),
            decode: Box::new(move |d| typed(decode_blob(v1_raw_hash, d))),
        },
        Format {
            name: "MGZB v1 lz (c59f616)",
            valid: common::fixture("c59f616-lz.blob"),
            sum: Some(fnv1a64),
            decode: Box::new(move |d| typed(decode_blob(v1_lz_hash, d))),
        },
        Format {
            name: "MGZC v1 (c59f616)",
            valid: common::fixture("c59f616.mgzc"),
            sum: Some(fnv1a64),
            decode: Box::new(catalog),
        },
        Format {
            name: "MGZC v1 (c59f616) without summaries",
            valid: common::fixture("c59f616.mgzc"),
            sum: Some(fnv1a64),
            decode: Box::new(catalog_frames),
        },
        Format {
            name: "json",
            valid: common::json().into_bytes(),
            sum: None,
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
fn reseal(bytes: &mut [u8], sum: fn(&[u8]) -> u64) {
    if let Some(body_len) = bytes.len().checked_sub(8) {
        let sum = sum(&bytes[..body_len]);
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
    let body_len = if f.sum.is_some() {
        valid.len() - 8
    } else {
        valid.len()
    };
    let mut out = Vec::new();
    for cut in 0..valid.len() {
        out.push((format!("truncated to {cut}"), valid[..cut].to_vec(), true));
    }
    if let Some(sum) = f.sum {
        // Truncate the body under a fresh checksum too, so the parser
        // (not just the checksum) meets the short input.
        for cut in 0..body_len {
            let mut bytes = valid[..cut].to_vec();
            bytes.extend_from_slice(&[0; 8]);
            reseal(&mut bytes, sum);
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
    if let Some(sum) = f.sum {
        for (_, bytes, must_fail) in &mut out {
            if !*must_fail {
                reseal(bytes, sum);
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

/// `magic | version | body`, sealed with XXH64 as the current versions
/// are.
fn sealed(magic: &[u8; 4], version: u16, body: &[u8]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&[0; 8]);
    reseal(&mut out, xxh64);
    out
}

/// An `MGZP` v5 frame with no samples, no block rows and an empty
/// histogram, whose one function (id 0, no name) is `list`: the body up
/// to that function's footprint is fixed, so a row damages exactly the
/// list it names.
fn mgzp_v5(list: &[&[u8]]) -> Vec<u8> {
    let mut body = vec![3u8, 6]; // footprint, reuse block log2
    body.extend_from_slice(&[0; 10]); // no locality sizes, counters, rows, histogram
    body.push(1); // one function
    body.extend_from_slice(&[0, 0]); // id 0, empty name
    for part in list {
        body.extend_from_slice(part);
    }
    sealed(b"MGZP", 5, &body)
}

/// The rest of [`mgzp_v5`]'s function after its footprint, and the
/// ingest stats: all zero.
const MGZP_V5_TAIL: [u8; 12] = [0; 12];

/// The inputs that broke a decoder before the wire kit, by name, then
/// one count per kind of `MGZP` list (footprint, zigzag, block rows)
/// that the remaining input cannot hold, which must be rejected before
/// anything is reserved for it, and a footprint mask no load class
/// sets. At commit c59f616 the first two rows panic (debug overflow
/// checks) and the last, kept last for that reason, aborts the process
/// on a reservation driven by an unvalidated length.
#[test]
fn inputs_that_broke_the_old_decoders_are_rejected() {
    let rows: Vec<(&str, Vec<u8>, Decode)> = vec![
        (
            // `Dec::take` computed `pos + n` with n = u64::MAX.
            "MGZC whose trace-id length is u64::MAX",
            sealed(b"MGZC", 2, &varint(u64::MAX)),
            Box::new(|d| typed(Catalog::decode("x", d))),
        ),
        (
            // `v += delta` in the sorted-list decoder.
            "MGZP whose function footprint deltas sum past u64",
            mgzp_v5(&[&varint(2), &varint(u64::MAX), &[1, 1, 1]]),
            Box::new(|d| typed(PartialReport::decode(d))),
        ),
        (
            // An entry is a delta and a mask byte: the 16 bytes left
            // after the count hold 8 entries, not 9.
            "MGZP whose footprint counts more entries than bytes remain",
            mgzp_v5(&[&varint(9), &[1; 16]]),
            Box::new(|d| typed(PartialReport::decode(d))),
        ),
        (
            "MGZP whose footprint mask is 4",
            mgzp_v5(&[&[1, 5, 4], &MGZP_V5_TAIL]),
            Box::new(|d| typed(PartialReport::decode(d))),
        ),
        (
            "MGZP whose reuse order counts more entries than bytes remain",
            // An empty footprint, no accesses, then `firsts`.
            mgzp_v5(&[&[0, 0, 0], &varint(1 << 20), &[2; 8]]),
            Box::new(|d| typed(PartialReport::decode(d))),
        ),
        (
            "MGZP whose block rows count more rows than bytes remain",
            {
                let mut body = vec![3u8, 6]; // footprint, reuse block log2
                body.extend_from_slice(&[0; 6]); // no locality sizes, counters, rows
                body.extend_from_slice(&varint(1 << 20)); // block rows
                body.extend_from_slice(&[1; 24]);
                sealed(b"MGZP", 5, &body)
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
                sealed(b"MGZB", 2, &body)
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
    // The mask row's frame is whole: with a mask of both classes it
    // decodes.
    assert!(PartialReport::decode(&mgzp_v5(&[&[1, 5, 3], &MGZP_V5_TAIL])).is_ok());
}

/// A valid partial whose one function has 20 000 consecutive words,
/// each touched by a Strided and an Irregular load, built through the
/// public encoder. A decoder that gave each class a block list of its
/// own would allocate three 8-byte words per footprint entry, which
/// passes the bound where an entry's block takes one byte on the wire.
#[test]
fn a_footprint_both_classes_share_decodes_within_the_bound() {
    use memgaze::analysis::{AnalysisConfig, StreamingAnalyzer};
    use memgaze::model::{
        Access, AuxAnnotations, BlockSize, FunctionId, Ip, IpAnnot, LoadClass, Sample, SymbolTable,
    };
    let mut annots = AuxAnnotations::new();
    annots.insert(
        Ip(0x400),
        IpAnnot::of_class(LoadClass::Strided, FunctionId(0)),
    );
    annots.insert(
        Ip(0x404),
        IpAnnot::of_class(LoadClass::Irregular, FunctionId(0)),
    );
    let mut symbols = SymbolTable::new();
    symbols.add_function("shared", Ip(0x400), Ip(0x500), "shared.c");
    // Pages for reuse, so the reuse orders stay short beside the
    // footprint.
    let cfg = AnalysisConfig {
        reuse_block: BlockSize::OS_PAGE,
        ..AnalysisConfig::default()
    };
    let accesses: Vec<Access> = (0..40_000u64)
        .map(|i| Access::new(0x400 + (i % 2) * 4, 0x10_0000 + i / 2 * 8, i))
        .collect();
    let mut sa = StreamingAnalyzer::new(&annots, &symbols, cfg);
    sa.ingest_shard(&[Sample::new(accesses, 40_000)]);
    let frame = sa.into_partial().encode();
    let decode = |d: &[u8]| typed(PartialReport::decode(d));
    assert_eq!(check(&decode, &frame, false), Ok(()));
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

/// A frame payload of one sample: sample count 1, trigger delta 5, the
/// access count, then `accesses` as written.
fn one_sample_payload(count: u64, accesses: &[&[u8]]) -> Vec<u8> {
    let mut out = vec![1, 5];
    out.extend_from_slice(&varint(count));
    for a in accesses {
        out.extend_from_slice(a);
    }
    out
}

/// The sample decoder's errors, word for word, on fixed damaged frame
/// payloads: truncation inside each of an access's three varints (in
/// the short tail, where fewer than ten bytes remain), an 11-byte
/// varint in each field (where ten or more remain), an access-time
/// chain that passes `u64::MAX`, and an access count the remaining
/// bytes cannot hold. A whole access is `[2, 4, 1]`: ip +1, address +2,
/// time +1. Each message names the field and the sample it failed in.
#[test]
fn frame_payload_errors_read_as_they_did() {
    let whole: &[u8] = &[2, 4, 1];
    let eleven = [[0xffu8; 10].as_slice(), &[0x01]].concat();
    let past_max = varint(u64::MAX);
    let rows: Vec<(&str, Vec<u8>, &str)> = vec![
        (
            "truncated inside the ip varint",
            one_sample_payload(2, &[whole, &[0x80, 0x80, 0x80]]),
            "sample 0: truncated trace data while decoding access.ip",
        ),
        (
            "truncated inside the address varint",
            one_sample_payload(2, &[whole, &[2, 0x80, 0x80]]),
            "sample 0: truncated trace data while decoding access.addr",
        ),
        (
            "truncated inside the time varint",
            one_sample_payload(2, &[whole, &[2, 4, 0x80]]),
            "sample 0: truncated trace data while decoding access.time",
        ),
        (
            "an 11-byte ip varint",
            one_sample_payload(1, &[&eleven, &[4, 1]]),
            "sample 0: bad trace header: varint overflow in access.ip",
        ),
        (
            "an 11-byte address varint",
            one_sample_payload(2, &[whole, &[2], &eleven, &[1]]),
            "sample 0: bad trace header: varint overflow in access.addr",
        ),
        (
            "an 11-byte time varint",
            one_sample_payload(2, &[whole, &[2, 4], &eleven]),
            "sample 0: bad trace header: varint overflow in access.time",
        ),
        (
            "an access-time chain past u64::MAX",
            one_sample_payload(2, &[&[2, 4], &past_max, &[2, 4, 1]]),
            "sample 0: bad trace header: delta chain overflows u64 in access.time",
        ),
        (
            "more accesses than the remaining bytes can hold",
            one_sample_payload(3, &[whole, whole]),
            "sample 0: truncated trace data while decoding sample accesses",
        ),
        (
            "a second sample truncated inside its time varint",
            {
                let mut p = one_sample_payload(1, &[whole]);
                p[0] = 2;
                p.extend_from_slice(&[7, 1, 2, 4, 0x80]);
                p
            },
            "sample 1: truncated trace data while decoding access.time",
        ),
    ];
    for (name, payload, want) in rows {
        match decode_frame_payload(&payload) {
            Err(e) => assert_eq!(e.to_string(), want, "{name}"),
            Ok(samples) => panic!("{name}: decoded {samples:?}"),
        }
    }
    // Ten bytes are a whole varint: bits past the 64th are dropped, on
    // the ip's zigzag as anywhere, and the access decodes.
    let ten = [[0xffu8; 9].as_slice(), &[0x7f]].concat();
    let samples = decode_frame_payload(&one_sample_payload(1, &[&ten, &[4, 1]])).unwrap();
    let a = samples[0].accesses[0];
    assert_eq!((a.ip.0, a.addr.0, a.time), (1 << 63, 2, 1));
}
