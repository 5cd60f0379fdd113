//! Allocation and retention ratchet for the window kernels and the
//! static side.
//!
//! A counting allocator (per thread, as in `decoder_torture.rs`) holds
//! two bounds the kernels' thread-local workspace exists for: a warm
//! `StreamingAnalyzer::ingest_shard` allocates a few times per *sample*,
//! not three times per four *accesses*; and the buffers a
//! whole-function window grows are gone once a sample-sized window has
//! run after it. A third holds the store's `Catalog::scan`, which
//! summarises every frame `put` files, to allocations per frame and
//! sample, not per access; a fourth the location zoom's peak memory to
//! its accesses, not to the address span they cover; a fifth the window
//! and locality series to allocations per call, not per sample; a sixth
//! a cold store analyze to one fold per trace, not a partial per frame;
//! a seventh a serve upload to a feed of the session's one analyzer, not
//! a partial per frame or per upload, and a long session's bytes per
//! upload to a flat line; an eighth a finished report's block summary
//! and the resident analyzer's kept reuse lists to bytes near the data
//! they hold. The last holds the static side — lint and instrumentation of
//! a load module — to allocations per procedure, with each procedure's
//! CFG and loop forest built once, not once per pass.

use memgaze::analysis::{analyze_window, AnalysisConfig, Analyzer, StreamingAnalyzer};
use memgaze::model::{
    encode_sharded_indexed, Access, AuxAnnotations, BlockSize, FunctionId, Ip, IpAnnot, LoadClass,
    Sample, SampledTrace, SymbolTable, TraceMeta,
};
use memgaze::store::{Catalog, StoreConfig, TraceStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by every allocation and growth.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<usize> = const { Cell::new(0) };
    /// The highest `LIVE` since a test last reset it.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain
// thread-local cells without destructors and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
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
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        q
    }
}

fn grew(n: usize) {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + n as u64));
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

const SAMPLE_ACCESSES: u64 = 500;
const SHARD_SAMPLES: u64 = 16;

/// Shard `k` of a trace with a streaming function (fresh words, so the
/// per-function state keeps growing) and a cyclic one (reuse at every
/// distance up to 40 lines).
fn shard(k: u64) -> Vec<Sample> {
    (0..SHARD_SAMPLES)
        .map(|s| {
            let sample = k * SHARD_SAMPLES + s;
            let base = sample * 10_000;
            let accesses = (0..SAMPLE_ACCESSES)
                .map(|i| {
                    let (ip, addr) = if i % 3 == 0 {
                        (0x500 + (i % 4) * 4, 0x20_0000 + (i * 7 % 41) * 64)
                    } else {
                        (
                            0x400 + (i % 5) * 4,
                            0x10_0000 + (sample * SAMPLE_ACCESSES + i) * 8,
                        )
                    };
                    Access::new(ip, addr, base + i)
                })
                .collect();
            Sample::new(accesses, base + SAMPLE_ACCESSES)
        })
        .collect()
}

fn side_tables() -> (AuxAnnotations, SymbolTable) {
    let mut annots = AuxAnnotations::new();
    for k in 0..5u64 {
        let mut an = IpAnnot::of_class(LoadClass::Strided, FunctionId(0));
        an.implied_const = 2;
        annots.insert(Ip(0x400 + k * 4), an);
    }
    annots.insert(
        Ip(0x500),
        IpAnnot::of_class(LoadClass::Irregular, FunctionId(1)),
    );
    let mut symbols = SymbolTable::new();
    symbols.add_function("stream_fn", Ip(0x400), Ip(0x500), "a.c");
    symbols.add_function("cycle_fn", Ip(0x500), Ip(0x600), "a.c");
    (annots, symbols)
}

/// A warm analyzer allocates per sample, not per access: 128 samples of
/// 500 accesses over two functions, every sample holding both, read 62
/// allocations with the per-function state advanced once per access,
/// and 62 with it advanced once per sample window (66 while each
/// tracker kept a slot column of its own); 41 with one block-stat
/// table for the pass and a footprint map of 64-word chunks, where
/// each shard's rows were sorted into a summary of their own and each
/// footprint word had a map entry; 41 with the footprint counted off
/// the reuse pass (a bit column per class beside its rows) and no
/// distinct pass. The bound, 0.05 per access, is 3 200.
#[test]
fn warm_ingest_allocates_per_sample_not_per_access() {
    let (annots, symbols) = side_tables();
    let mut analyzer = StreamingAnalyzer::new(&annots, &symbols, AnalysisConfig::default())
        .with_locality_sizes(&[16, 64]);
    analyzer.ingest_shard(&shard(0));
    let shards: Vec<Vec<Sample>> = (1..9).map(shard).collect();
    let before = ALLOCS.with(Cell::get);
    for s in &shards {
        analyzer.ingest_shard(s);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    let accesses = shards.len() as u64 * SHARD_SAMPLES * SAMPLE_ACCESSES;
    let per_access = allocs as f64 / accesses as f64;
    assert!(
        per_access <= 0.05,
        "{allocs} allocations for {accesses} accesses ({per_access:.3} per access)"
    );
    // The report is still there to be had.
    assert_eq!(analyzer.stats().samples, 9 * SHARD_SAMPLES);
}

/// 64 samples of 128 fresh words each of one function, 64 words apart
/// (one footprint chunk per word); with `dense`, each sample also holds
/// 128 consecutive fresh words of a second function.
fn footprint_samples(dense: bool) -> Vec<Sample> {
    const WORDS: u64 = 128;
    (0..64u64)
        .map(|s| {
            let base = s * 10_000;
            let accesses: Vec<Access> = (0..WORDS)
                .flat_map(|i| {
                    let word = s * WORDS + i;
                    let sparse = Access::new(0x400, 0x1000_0000 + word * 64 * 8, base + 2 * i);
                    let next = Access::new(0x500, 0x4000_0000 + word * 8, base + 2 * i + 1);
                    std::iter::once(sparse).chain(dense.then_some(next))
                })
                .collect();
            Sample::new(accesses, base + 2 * WORDS)
        })
        .collect()
}

/// Peak live bytes per distinct word of a pass over `samples` in
/// 16-sample shards and the partial it is snapshotted into.
fn peak_bytes_per_word(samples: &[Sample]) -> u64 {
    let (annots, symbols) = side_tables();
    let words = samples.iter().map(|s| s.accesses.len() as u64).sum::<u64>();
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let mut analyzer = StreamingAnalyzer::new(&annots, &symbols, AnalysisConfig::default());
    for shard in samples.chunks(SHARD_SAMPLES as usize) {
        analyzer.ingest_shard(shard);
    }
    let partial = analyzer.into_partial();
    let per_word = (PEAK.with(Cell::get) - start) as u64 / words;
    drop(partial);
    per_word
}

/// A function's footprint is kept in chunks of 64 words, which cost
/// more than a word entry when they hold one word each. The peak live
/// bytes per distinct word, the analyzer's reuse trackers and
/// block-stat table included, of the sparse function beside a dense
/// one: 168 with one footprint map entry per word and the block rows
/// sorted per shard, 124 with the chunks in one map and one block-stat
/// table, and 124 with the footprint bits in the reuse pass's
/// workspace column. Most of that drop is the table's; the dense
/// function's chunks cost under a byte per word. The bound, 192, holds
/// both.
#[test]
fn a_sparse_footprint_stays_within_bytes_per_block() {
    let per_word = peak_bytes_per_word(&footprint_samples(true));
    assert!(
        per_word <= 192,
        "{per_word} bytes at the peak per distinct word"
    );
}

/// The sparse function alone, one chunk per word, so the chunks' own
/// cost shows: 267 peak live bytes per distinct word with one footprint
/// map entry per word and the block rows sorted per shard, 237 with the
/// chunks in one map and one block-stat table, 238 with the footprint
/// bits in a workspace column beside the reuse pass's rows (24 bytes a
/// line, kept with the thread's workspace). The chunks cost about 66
/// bytes per word here (a 32-byte map slot per chunk, in a table half
/// full) against 34 for the word entries; the table saves more than
/// that. The bound, 280, fails if the chunks' cost per
/// word doubles.
#[test]
fn a_footprint_of_one_word_per_chunk_stays_within_bytes_per_word() {
    let per_word = peak_bytes_per_word(&footprint_samples(false));
    assert!(
        per_word <= 280,
        "{per_word} bytes at the peak per distinct word"
    );
}

#[test]
fn interval_series_allocate_per_call_not_per_sample() {
    let (annots, symbols) = side_tables();
    // Intra-sample sizes (more than one pass over the samples serves)
    // and two past the 10 000-load period.
    let sizes = [1, 16, 64, 100, 256, 10_000, 40_000];
    let allocs = |shards: u64| -> u64 {
        let mut t = SampledTrace::new(TraceMeta::new("series", 10_000, 16 << 10));
        t.meta.total_loads = shards * SHARD_SAMPLES * 10_000;
        for s in (0..shards).flat_map(shard) {
            t.push_sample(s).unwrap();
        }
        let analyzer = Analyzer::new(&t, &annots, &symbols);
        let series = || {
            (
                analyzer.window_series(&sizes),
                analyzer.locality_series(&sizes),
            )
        };
        let warm = series();
        let before = ALLOCS.with(Cell::get);
        let again = series();
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(again, warm);
        assert!(warm.0.len() == sizes.len() && warm.1.len() == 5, "{warm:?}");
        allocs
    };
    let (few, many) = (allocs(2), allocs(8));
    assert_eq!(few, many, "32 samples: {few} allocations, 128: {many}");
}

#[test]
fn a_whole_function_window_does_not_stay_resident() {
    let window = |n: u64| -> Vec<Access> {
        (0..n)
            .map(|i| Access::new(0x400u64, (i * 2654435761 % (n / 2 + 1)) * 64, i))
            .collect()
    };
    let (big, small) = (window(200_000), window(SAMPLE_ACCESSES));
    let bs = BlockSize::CACHE_LINE;
    let start = LIVE.with(Cell::get);
    let events = analyze_window(&big, bs).events.len();
    assert!(events > 0);
    drop(analyze_window(&small, bs));
    let kept = LIVE.with(Cell::get).saturating_sub(start);
    assert!(
        kept <= 64 << 10,
        "{kept} bytes still live after a 200 k-access window and a {SAMPLE_ACCESSES}-access one"
    );
}

/// Live bytes of what `make` returns.
fn held<T>(make: impl FnOnce() -> T) -> u64 {
    let before = LIVE.with(Cell::get);
    let made = make();
    let bytes = LIVE.with(Cell::get) - before;
    drop(made);
    bytes as u64
}

/// A finished report's block summary and the resident analyzer's kept
/// reuse lists against the data they hold, over 65 536 distinct lines
/// (128 samples, each of 512 fresh lines read twice). The summary keeps
/// 40 bytes a block; its query index over 64-block chunks adds about
/// 1.5 (a copy reads 41.5 bytes a block), where a sparse table over
/// every block and three prefix-sum columns made it 184. The kept lists
/// hold a reuse in 12 bytes, the kernel's own row (32 with its block
/// and 64-bit fields). The bounds, 48 and 16, fail if either comes back.
#[test]
fn reuse_summaries_stay_near_the_size_of_their_data() {
    const LINES: u64 = 512;
    let (annots, symbols) = side_tables();
    let mut t = SampledTrace::new(TraceMeta::new("sizes", 10_000, 16 << 10));
    t.meta.total_loads = 128 * 10_000;
    for s in 0..128u64 {
        let base = s * 10_000;
        let accesses = (0..2 * LINES)
            .map(|i| {
                let line = s * LINES + i % LINES;
                Access::new(0x500u64, 0x4000_0000 + line * 64, base + i)
            })
            .collect();
        t.push_sample(Sample::new(accesses, base + 2 * LINES))
            .unwrap();
    }
    let a = Analyzer::new(&t, &annots, &symbols);
    let blocks = a.block_reuse().len() as u64;
    assert_eq!(blocks, 128 * LINES);
    let per_block = held(|| a.block_reuse().clone()) as f64 / blocks as f64;
    assert!(per_block <= 48.0, "{per_block:.2} bytes per block");
    let reuses: u64 = a.sample_reuse().iter().map(|r| r.events.len() as u64).sum();
    assert_eq!(reuses, 128 * LINES);
    let per_reuse = held(|| a.sample_reuse().to_vec()) as f64 / reuses as f64;
    assert!(per_reuse <= 16.0, "{per_reuse:.2} bytes per kept reuse");
}

#[test]
fn catalog_scan_allocates_per_frame_not_per_access() {
    // Two traces of 8 frames of 4 samples over the same 32 lines and
    // the same two functions; one has 16 times the accesses per sample.
    let (_, symbols) = side_tables();
    let scan_allocs = |per_sample: u64| -> (u64, u64) {
        let mut t = SampledTrace::new(TraceMeta::new("scan", 10_000, 16 << 10));
        t.meta.total_loads = 32 * 10_000;
        for s in 0..32u64 {
            let base = s * 10_000;
            let accesses = (0..per_sample)
                .map(|i| Access::new(0x400 + (i % 2) * 0x100, (i * 7 % 32) * 64, base + i))
                .collect();
            t.push_sample(Sample::new(accesses, base + per_sample))
                .unwrap();
        }
        let (container, index) = encode_sharded_indexed(&t, 4);
        let before = ALLOCS.with(Cell::get);
        let catalog =
            Catalog::scan("scan", &container, &index, &symbols, BlockSize::CACHE_LINE).unwrap();
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(catalog.frames.len(), 8);
        assert_eq!(catalog.func_names, ["stream_fn", "cycle_fn"]);
        (allocs, catalog.frames.iter().map(|f| f.loads).sum())
    };
    let (small, small_loads) = scan_allocs(64);
    let (big, big_loads) = scan_allocs(1024);
    assert_eq!(big_loads, 16 * small_loads);
    assert!(
        big <= small + small / 2,
        "{small} allocations for {small_loads} accesses, {big} for {big_loads}"
    );
}

#[test]
fn cold_store_analyze_allocates_per_trace_not_per_frame() {
    // 16 frames of 16 samples. A cold analyze folds them through one
    // analyzer into one cached entry and reads 44 allocations per frame
    // (709 in all; 711 with a distinct pass per window, 48 per frame
    // while each shard's block rows were sorted into a summary of their
    // own); an analyzer, a partial and a cached encoding per frame,
    // then a merge of the partials, read 236.
    let (annots, symbols) = side_tables();
    let mut t = SampledTrace::new(TraceMeta::new("cold", 10_000, 16 << 10));
    for k in 0..16 {
        for s in shard(k) {
            t.push_sample(s).unwrap();
        }
    }
    t.meta.total_loads = t.samples.len() as u64 * 10_000;
    let (container, index) = encode_sharded_indexed(&t, SHARD_SAMPLES as usize);
    let root = std::env::temp_dir().join(format!("memgaze-cold-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = TraceStore::open(StoreConfig::new(&root)).unwrap();
    store.put("cold", &container, &index, &symbols).unwrap();
    let before = ALLOCS.with(Cell::get);
    let cold = store
        .analyze(
            "cold",
            &annots,
            &symbols,
            AnalysisConfig::default(),
            &[16, 64],
        )
        .unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    std::fs::remove_dir_all(&root).unwrap();
    assert_eq!((cold.result_hits, cold.result_misses), (0, 16));
    let per_frame = allocs / 16;
    assert!(
        per_frame <= 100,
        "{allocs} allocations for 16 frames ({per_frame} per frame)"
    );
}

#[test]
fn zoom_memory_follows_the_accesses_not_the_address_span() {
    // Any 64-bit process: a heap and a stack 2^45 bytes apart, 64
    // accesses each. Page buckets sized by the span were 1.1 GiB of
    // empty vectors at the top level alone.
    let (heap, stack) = (0x5555_0000_0000u64, 0x7fff_ffff_0000u64);
    let (annots, symbols) = side_tables();
    let mut t = SampledTrace::new(TraceMeta::new("process", 10_000, 16 << 10));
    t.meta.total_loads = 2 * 10_000;
    for (s, base) in [heap, stack].into_iter().enumerate() {
        let time = s as u64 * 10_000;
        let accesses = (0..64u64)
            .map(|i| Access::new(0x400 + s as u64 * 0x100, base + i * 64, time + i))
            .collect();
        t.push_sample(Sample::new(accesses, time + 64)).unwrap();
    }
    let analyzer = Analyzer::new(&t, &annots, &symbols);
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let rows = analyzer.region_rows();
    let peak = PEAK.with(Cell::get) - start;
    let ranges: Vec<(u64, u64)> = rows.iter().map(|r| r.range).collect();
    assert_eq!(ranges, [(heap, heap + 4096), (stack, stack + 63 * 64 + 1)]);
    assert_eq!(rows[0].code, ["stream_fn"]);
    assert_eq!(rows[1].code, ["cycle_fn"]);
    let accesses = t.observed_accesses() as usize;
    assert!(
        peak <= accesses * 1024,
        "{peak} bytes at the peak for {accesses} accesses"
    );
}

/// The static side builds each module's layout, CFGs and loop forests
/// once and borrows them in every pass. On this 64-procedure module a
/// lint read 134.7 allocations per procedure and an instrumentation
/// 92.3 (85.0 eliding) when every pass built its own, a layout cost two
/// allocations per procedure and the side tables were trees; they read
/// 71.6 and 49.3 (45.6) with one set of facts, a flat layout and sorted
/// tables. The bounds sit between the two.
#[test]
fn static_side_allocates_per_procedure_not_per_fact() {
    use memgaze::instrument::{lint_module, InstrumentConfig, Instrumenter};
    let module = memgaze::workloads::modules::synthetic_module(64, 60);
    let per_proc = |run: &dyn Fn()| -> f64 {
        let before = ALLOCS.with(Cell::get);
        run();
        (ALLOCS.with(Cell::get) - before) as f64 / module.procs.len() as f64
    };
    let lint = per_proc(&|| {
        assert!(!lint_module(&module, &InstrumentConfig::default()).has_errors());
    });
    assert!(lint <= 100.0, "lint: {lint:.1} allocations per procedure");
    for config in [InstrumentConfig::default(), InstrumentConfig::eliding()] {
        let instrument = per_proc(&|| drop(Instrumenter::new(config.clone()).instrument(&module)));
        assert!(
            instrument <= 70.0,
            "instrument {config:?}: {instrument:.1} allocations per procedure"
        );
    }
}

/// A serve session feeds every upload to its one running analyzer. 8
/// uploads of 4 frames of 16 samples, fed and sealed, read 95
/// allocations per upload (765 in all). An analyzer and a partial per
/// upload, merged into binary-counter runs, read 215 (1 726; 268 with
/// the per-function state advanced once per access, 256 at `33e1708`);
/// an analyzer and a partial per frame, merged per window of 4 frames
/// and again at the seal, read 742. The bound sits between the first
/// two.
#[test]
fn a_serve_upload_allocates_per_upload_not_per_frame() {
    use memgaze::serve::{harness::container, Registry, ServeConfig};
    let cfg = ServeConfig::default();
    let registry = Registry::new(cfg.clone());
    let session = registry.create().unwrap();
    let bodies: Vec<Vec<u8>> = (0..8u64)
        .map(|u| {
            let frames: Vec<Vec<Sample>> = (0..4).map(|f| shard(u * 4 + f)).collect();
            let refs: Vec<&[Sample]> = frames.iter().map(Vec::as_slice).collect();
            container("serve-allocs", &refs)
        })
        .collect();
    let before = ALLOCS.with(Cell::get);
    for body in bodies {
        session.feed(body, &cfg).unwrap();
    }
    let sealed = session.seal(&cfg).unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(sealed.shards, 32);
    let per_upload = allocs / 8;
    assert!(
        per_upload <= 150,
        "{allocs} allocations for 8 uploads ({per_upload} per upload)"
    );
}

/// Bytes a serve session allocates per upload over `uploads` uploads of
/// one frame each, fed and sealed.
fn serve_bytes_per_upload(uploads: usize) -> u64 {
    use memgaze::serve::{harness::container, harness::synthetic_samples, Registry, ServeConfig};
    let cfg = ServeConfig::default();
    let registry = Registry::new(cfg.clone());
    let session = registry.create().unwrap();
    let samples = synthetic_samples(2 * uploads, 64, 1);
    let bodies: Vec<Vec<u8>> = samples
        .chunks(2)
        .map(|frame| container("serve-long", &[frame]))
        .collect();
    let before = BYTES.with(Cell::get);
    for body in bodies {
        session.feed(body, &cfg).unwrap();
    }
    session.seal(&cfg).unwrap();
    (BYTES.with(Cell::get) - before) / uploads as u64
}

/// A long serve session costs the same bytes per upload as a short
/// one: each upload is fed to the session's one analyzer, and nothing is
/// merged. Bytes allocated per upload of one 2-sample frame, fed and
/// sealed, read 37 864 over 16 uploads and 35 800 over 256. A partial
/// per upload merged into binary-counter runs read 105 098 and 150 829
/// (1.4×; 108 116 and 150 916 at `33e1708`); one running partial that
/// every upload merged into read 200 413 and 2 275 427 (11×); a partial
/// per frame, merged only per window and at the seal, read 135 643 and
/// 170 710.
#[test]
fn a_long_serve_session_allocates_flat_bytes_per_upload() {
    let (short, long) = (serve_bytes_per_upload(16), serve_bytes_per_upload(256));
    assert!(
        4 * long <= 5 * short,
        "{short} bytes per upload over 16 uploads, {long} over 256"
    );
}
