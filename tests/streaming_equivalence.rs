//! Property-based equivalence of the streaming/sharded ingest path:
//! the sharded v2 container round-trips arbitrary traces; the streaming
//! fold — the one engine — equals the definitional spec
//! (`tests/common/spec.rs`) field for field, bit for bit, for any shard
//! size, thread count and block sizes; the location zoom equals the
//! spec's partition tree for tree, and the window series the spec's
//! point for point; and the fan-out's partial encode/decode/merge path
//! equals the fold.

#[path = "common/arb.rs"]
mod arb;
#[path = "common/spec.rs"]
mod spec;

use arb::{arb_trace, fixtures, traces_of, BLOCK_SIZES};
use memgaze::analysis::{
    stream_resident_trace, zoom_trace_with, AnalysisConfig, Analyzer, BlockReuse, ZoomConfig,
};
use memgaze::core::{run_fanout, FanoutBackend, FanoutConfig};
use memgaze::model::{
    decode_sharded, encode_sharded, encode_sharded_indexed, AuxAnnotations, BlockSize, ShardReader,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The sharded v2 container round-trips arbitrary traces at any
    /// shard size, and the shard iterator re-yields the exact samples.
    #[test]
    fn sharded_container_roundtrips(t in arb_trace(), shard in 1usize..40) {
        let bytes = encode_sharded(&t, shard);
        let back = decode_sharded(&bytes).unwrap();
        prop_assert_eq!(&back, &t);

        let mut reader = ShardReader::new(bytes.as_slice()).unwrap();
        let mut samples = Vec::new();
        for s in reader.by_ref() {
            samples.extend(s.unwrap().samples);
        }
        prop_assert_eq!(&samples, &t.samples);
        prop_assert_eq!(reader.meta(), &t.meta);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The fold equals the spec on every field of the report and every
    /// row derived from it, for random traces, shard sizes, worker
    /// counts and block sizes. (The name dates from the resident
    /// analyzer being a second implementation; it reads the fold's
    /// report now, and the reference is the spec.)
    #[test]
    fn streaming_report_matches_resident(
        t in arb_trace(),
        shard in 1usize..24,
        threads in 1usize..5,
        blocks in 0usize..3,
    ) {
        let (annots, symbols) = fixtures();
        let (footprint_block, reuse_block) = BLOCK_SIZES[blocks];
        let cfg = AnalysisConfig {
            footprint_block,
            reuse_block,
            threads,
            ..AnalysisConfig::default()
        };
        let sizes = [8u64, 32];
        let report = stream_resident_trace(&t, &annots, &symbols, cfg, &sizes, shard);
        let input = spec::Input {
            trace: &t,
            annots: &annots,
            symbols: &symbols,
            footprint_block,
            reuse_block,
        };
        if let Err(e) = spec::check_report(&report, &input, &sizes, shard) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// The location zoom equals its definition — the partition over the
    /// flattened accesses, level by level — tree for tree: shape, `D`,
    /// `#blocks`, and the attributed code with its order among equals;
    /// whether it reads the report's block summary (`access_block ==
    /// reuse_block`) or one of its own, down to page floors at, above
    /// and below the access block.
    #[test]
    fn zoom_matches_spec(
        t in arb_trace(),
        threshold in 0usize..3,
        pages in (0usize..3, 1u8..3, 0usize..2),
        access_block in 0usize..3,
        blocks in 0usize..3,
    ) {
        let (floor, shrink_log2, min_region) = pages;
        let (annots, symbols) = fixtures();
        let (footprint_block, reuse_block) = BLOCK_SIZES[blocks];
        let access_block =
            [BlockSize::WORD, BlockSize::CACHE_LINE, BlockSize::OS_PAGE][access_block];
        let zoom = ZoomConfig {
            access_block,
            min_page_log2: [6, 8, 12][floor],
            shrink_log2,
            hot_threshold_pct: [1.0, 10.0, 40.0][threshold],
            min_region_bytes: [256, 4096][min_region],
            max_depth: 12,
            ..ZoomConfig::default()
        };
        let cfg = AnalysisConfig {
            footprint_block,
            reuse_block,
            zoom,
            threads: 1,
        };
        let mut input = spec::Input {
            trace: &t,
            annots: &annots,
            symbols: &symbols,
            footprint_block,
            reuse_block,
        };
        let analyzer = Analyzer::new(&t, &annots, &symbols).with_config(cfg);
        prop_assert_eq!(analyzer.zoom().cloned(), spec::zoom(&input, zoom));

        // Without the annotation file every source line reads 0.
        let no_annots = AuxAnnotations::new();
        input.annots = &no_annots;
        let summary = BlockReuse::from_samples(&t.samples, access_block);
        prop_assert_eq!(
            zoom_trace_with(&t, &summary, &symbols, None, zoom),
            spec::zoom(&input, zoom)
        );
    }

    /// The window series equals its definition point for point: every
    /// intra-sample size split out of one pass per sample equals its
    /// intervals measured one by one, inter-sample runs are scaled by ρ,
    /// the R2 blind spot stays empty. Sample lengths straddle 1 and
    /// 63/64/65; sizes straddle 1, the half-interval tails, the sample
    /// and the period, with more of them than one pass serves — and
    /// without a period every size chops the samples, up to sizes
    /// longer than any sample.
    #[test]
    fn window_series_matches_spec(
        t in traces_of(straddling_window()),
        sizes in prop::collection::vec(
            prop_oneof![(0..SERIES_SIZES.len()).prop_map(|k| SERIES_SIZES[k]), 1u64..400],
            1..10,
        ),
        blocks in 0usize..3,
        threads in 1usize..4,
        no_period in 0u8..2,
    ) {
        let mut t = t;
        if no_period == 1 {
            t.meta.period = 0;
        }
        let (annots, symbols) = fixtures();
        let (footprint_block, reuse_block) = BLOCK_SIZES[blocks];
        let cfg = AnalysisConfig {
            footprint_block,
            reuse_block,
            threads,
            ..AnalysisConfig::default()
        };
        let input = spec::Input {
            trace: &t,
            annots: &annots,
            symbols: &symbols,
            footprint_block,
            reuse_block,
        };
        let analyzer = Analyzer::new(&t, &annots, &symbols).with_config(cfg);
        prop_assert_eq!(analyzer.window_series(&sizes), spec::window_series(&input, &sizes));
    }

}

/// Window sizes either side of 1, of small intervals and their halves,
/// of the sample lengths [`straddling_window`] draws, and of the period
/// (10 000) and its multiples.
const SERIES_SIZES: [u64; 20] = [
    1, 2, 3, 4, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1_000, 9_999, 10_000, 10_001, 14_999,
    15_000, 40_000,
];

/// A time-ordered window of 0, 1, 2, 31–33, 63–65 or 127–129 accesses.
fn straddling_window() -> impl Strategy<Value = Vec<memgaze::model::Access>> {
    const LENGTHS: [usize; 12] = [0, 1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129];
    let accesses = prop::collection::vec(arb::arb_access(), 129..130);
    (0..LENGTHS.len(), accesses).prop_map(|(k, mut w)| {
        w.truncate(LENGTHS[k]);
        w.sort_by_key(|a| a.time);
        w
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fan-out over an indexed container reproduces the resident
    /// streaming report field for field, for random traces, shard
    /// sizes, and worker counts.
    #[test]
    fn fanout_report_matches_resident(
        t in arb_trace(),
        shard in 1usize..24,
        workers in 1usize..7,
    ) {
        let (annots, symbols) = fixtures();
        let cfg = AnalysisConfig { threads: 1, ..AnalysisConfig::default() };
        let sizes = [8u64, 32];
        let resident = stream_resident_trace(&t, &annots, &symbols, cfg, &sizes, shard);
        let (container, index) = encode_sharded_indexed(&t, shard);
        let fan_cfg = FanoutConfig {
            workers,
            locality_sizes: sizes.to_vec(),
            ..FanoutConfig::default()
        };
        let run = run_fanout(
            &container,
            &index,
            &annots,
            &symbols,
            cfg,
            &fan_cfg,
            &FanoutBackend::InProcess,
        )
        .unwrap();
        prop_assert_eq!(&run.meta, &t.meta);
        prop_assert_eq!(run.report.decompression, resident.decompression);
        prop_assert_eq!(&run.report.function_rows, &resident.function_rows);
        prop_assert_eq!(&run.report.block_reuse, &resident.block_reuse);
        prop_assert_eq!(&run.report.reuse_histogram, &resident.reuse_histogram);
        prop_assert_eq!(&run.report.locality_series, &resident.locality_series);
        for n in [1usize, 4] {
            prop_assert_eq!(run.report.interval_rows(n), resident.interval_rows(n));
        }
    }

    /// Pooled-buffer encodes — `encode_into` appending to a dirty,
    /// pre-filled buffer, then reusing that buffer — are byte-identical
    /// to the unpooled seed `encode` for both the MGZP partial-report
    /// and MGZS worker-spec codecs, for random traces and dirty
    /// prefixes. (The MGZW response framing over a pooled buffer is
    /// covered by the fan-out coordinator's unit tests.)
    #[test]
    fn pooled_codec_encodes_match_unpooled(
        t in arb_trace(),
        shard in 1usize..16,
        prefix in prop::collection::vec(0u8..=255, 0..64),
    ) {
        use memgaze::analysis::{analyze_frames, WorkerSpec};

        let (annots, symbols) = fixtures();
        let cfg = AnalysisConfig { threads: 1, ..AnalysisConfig::default() };
        let (container, index) = encode_sharded_indexed(&t, shard);
        let partial = analyze_frames(
            &container,
            &index,
            0..index.entries.len(),
            &annots,
            &symbols,
            cfg,
            &[8, 32],
        )
        .unwrap();

        // MGZP: appending after arbitrary dirty contents yields the
        // same bytes (checksums cover only the appended frame) …
        let seed = partial.encode();
        let mut buf = prefix.clone();
        partial.encode_into(&mut buf);
        prop_assert_eq!(&buf[..prefix.len()], prefix.as_slice());
        prop_assert_eq!(&buf[prefix.len()..], seed.as_slice());
        // … and so does reusing the buffer's allocation for the next
        // encode, the pooling pattern the workers run.
        buf.clear();
        partial.encode_into(&mut buf);
        prop_assert_eq!(buf.as_slice(), seed.as_slice());

        // MGZS: same law for the worker-spec codec.
        let spec = WorkerSpec {
            footprint_block: cfg.footprint_block,
            reuse_block: cfg.reuse_block,
            threads: 1,
            locality_sizes: vec![8, 32],
            annots: annots.clone(),
            symbols: symbols.clone(),
        };
        let spec_seed = spec.encode();
        let mut sbuf = prefix.clone();
        spec.encode_into(&mut sbuf);
        prop_assert_eq!(&sbuf[prefix.len()..], spec_seed.as_slice());
        sbuf.clear();
        spec.encode_into(&mut sbuf);
        prop_assert_eq!(sbuf.as_slice(), spec_seed.as_slice());
    }
}
