//! Allocation and retention ratchet for the window kernels.
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
//! and locality series to allocations per call, not per sample.

use memgaze::analysis::{analyze_window, AnalysisConfig, Analyzer, StreamingAnalyzer};
use memgaze::model::{
    encode_sharded_indexed, Access, AuxAnnotations, BlockSize, FunctionId, Ip, IpAnnot, LoadClass,
    Sample, SampledTrace, SymbolTable, TraceMeta,
};
use memgaze::store::Catalog;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
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
        // One thread, so that every allocation is this thread's.
        let analyzer = Analyzer::new(&t, &annots, &symbols).with_config(AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::default()
        });
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
    // One thread, so that every allocation is this thread's.
    let analyzer = Analyzer::new(&t, &annots, &symbols).with_config(AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    });
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
