//! Equivalence proof for the watch subsystem: a pinned-controller
//! watch run's per-window reports are **bit-identical** to a resident
//! analysis of the same window slices, replayed offline from the
//! container frames the run wrote — across window sizes — and the
//! anomaly marks it raises are deterministic.
//!
//! The replay side deliberately shares only [`window_meta`] with the
//! live driver: frames decode through the public [`FrameIndex`] seek
//! path and each window gets a fresh [`StreamingAnalyzer`], so the
//! proof covers the container encoding and the metadata derivation,
//! not just the in-memory fold.

use memgaze::analysis::{
    window_meta, AnalysisConfig, StreamingAnalyzer, StreamingReport, WindowStats,
};
use memgaze::core::{phase_shift_steps, watch_workload, ControllerMode, WatchConfig, WatchReport};
use memgaze::ptsim::SamplerConfig;
use proptest::prelude::*;

const LOCALITY: &[u64] = &[16, 64, 256];
const WORKLOAD: &str = "watch-eq";

/// One pinned-controller watch run over the phase-shift workload. The
/// controller observes but never retunes, so the container is a pure
/// function of the workload and the initial sampling knobs.
fn pinned_run(window_samples: usize, steps: usize) -> WatchReport {
    let sampler = SamplerConfig::application(2_000);
    let watch = WatchConfig {
        window_samples,
        mode: ControllerMode::Pinned,
        ..WatchConfig::default()
    };
    watch_workload(
        WORKLOAD,
        &sampler,
        &watch,
        AnalysisConfig::default(),
        LOCALITY,
        |space, step| phase_shift_steps(space, step, steps, 4_000),
    )
    .expect("pinned watch run")
}

/// The resident reference pass: decode every container frame through
/// the index, derive its metadata with the shared `window_meta`, and
/// analyze the slice with a fresh resident `StreamingAnalyzer`.
fn replay_windows(report: &WatchReport) -> Vec<StreamingReport> {
    report
        .index
        .validate(&report.container)
        .expect("watch index matches its container");
    (0..report.index.entries.len())
        .map(|i| {
            let samples = report
                .index
                .read_frame(&report.container, i)
                .expect("frame decodes");
            let meta = window_meta(
                WORKLOAD,
                report.initial_period,
                report.initial_buffer_bytes,
                &samples,
            );
            let mut sa =
                StreamingAnalyzer::new(&report.annots, &report.symbols, AnalysisConfig::default())
                    .with_locality_sizes(LOCALITY);
            sa.ingest_shard(&samples);
            sa.finish(&meta)
        })
        .collect()
}

/// Assert the live run and its offline replay agree field for field:
/// every window's drift stats, and — for the windows the ring still
/// holds — the full streaming report.
fn assert_replay_matches(run: &WatchReport) {
    let replayed = replay_windows(run);
    assert_eq!(
        run.windows.len(),
        replayed.len(),
        "one container frame per closed window"
    );
    for (i, resident) in replayed.iter().enumerate() {
        assert_eq!(
            run.windows[i],
            WindowStats::from_report(i, resident),
            "window {i} drift stats differ from the resident pass"
        );
    }
    for wr in run.ring.windows() {
        assert_eq!(
            wr.report, replayed[wr.stats.window],
            "ring window {} full report differs from the resident pass",
            wr.stats.window
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Across window sizes: pinned watch windows are bit-identical to
    /// resident analysis of the replayed frames.
    #[test]
    fn pinned_watch_replays_bit_identical(window in 2usize..7) {
        let run = pinned_run(window, 20);
        prop_assert!(run.retunes.is_empty(), "pinned controller must not retune");
        assert_replay_matches(&run);
    }
}

/// Repeating a run reproduces it exactly: windows, anomaly marks, and
/// the container artifact itself.
#[test]
fn watch_windows_and_marks_deterministic_across_threads() {
    let run = pinned_run(4, 20);
    let rerun = pinned_run(4, 20);
    assert_eq!(run.windows, rerun.windows, "windows must be deterministic");
    assert_eq!(
        run.anomalies, rerun.anomalies,
        "marks must be deterministic"
    );
    assert_eq!(run.container, rerun.container);
}
