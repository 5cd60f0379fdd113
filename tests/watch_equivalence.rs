//! Equivalence proof for the watch subsystem: a watch run's per-window
//! drift stats and anomaly marks are **bit-identical** to a replay of
//! the container frames the run wrote — pinned or adaptive, across
//! window sizes — and the marks are deterministic.
//!
//! The replay shares nothing with the live driver but the window
//! engine, [`WindowRing::close`]: frames decode through the public
//! [`FrameIndex`](memgaze::model::FrameIndex) seek path, each window
//! gets a fresh [`StreamingAnalyzer`], and the replay derives each
//! window's loads itself from the frames' trigger times. So the proof
//! covers the container encoding and the loads rule, including across
//! the adaptive controller's period retunes.

use memgaze::analysis::{AnalysisConfig, AnomalyMark, StreamingAnalyzer, WindowRing, WindowStats};
use memgaze::core::{
    phase_shift_steps, watch_workload, ControllerConfig, ControllerMode, WatchConfig, WatchReport,
};
use memgaze::model::ShardReader;
use memgaze::ptsim::SamplerConfig;
use proptest::prelude::*;

const LOCALITY: &[u64] = &[16, 64, 256];
const WORKLOAD: &str = "watch-eq";
const PERIOD: u64 = 2_000;

/// One watch run over the phase-shift workload.
fn watch_run(watch: WatchConfig, sampler: SamplerConfig, steps: usize) -> WatchReport {
    watch_workload(
        WORKLOAD,
        &sampler,
        &watch,
        AnalysisConfig::default(),
        LOCALITY,
        |space, step| phase_shift_steps(space, step, steps, 4_000),
    )
    .expect("watch run")
}

/// A pinned-controller run: the controller observes but never retunes,
/// so the container is a pure function of the workload and the initial
/// sampling knobs.
fn pinned_run(window_samples: usize, steps: usize) -> WatchReport {
    let watch = WatchConfig {
        window_samples,
        mode: ControllerMode::Pinned,
        ..WatchConfig::default()
    };
    watch_run(watch, SamplerConfig::application(PERIOD), steps)
}

/// An adaptive run whose buffer is clamped at its undersized start, so
/// the controller's only way to cut the drop rate is to shrink the
/// period (and then narrow the guards).
fn adaptive_run(window_samples: usize, steps: usize) -> WatchReport {
    let mut sampler = SamplerConfig::application(PERIOD);
    sampler.buffer_bytes = 1 << 10;
    let watch = WatchConfig {
        window_samples,
        mode: ControllerMode::Adaptive,
        controller: ControllerConfig {
            buffer_bounds: (1 << 10, 1 << 10),
            ..ControllerConfig::default()
        },
        ..WatchConfig::default()
    };
    watch_run(watch, sampler, steps)
}

/// The offline replay: decode every container frame through the index,
/// fold it with a fresh resident `StreamingAnalyzer`, and close it
/// through a fresh ring with the loads between the previous frame's
/// last trigger and its own. Returns each window's loads, its stats,
/// and every mark.
fn replay(report: &WatchReport) -> (Vec<u64>, Vec<WindowStats>, Vec<AnomalyMark>) {
    report
        .index
        .validate(&report.container)
        .expect("watch index matches its container");
    let mut ring = WindowRing::new(WatchConfig::default().anomaly_threshold);
    let mut last_trigger = 0;
    let (mut loads, mut stats) = (Vec::new(), Vec::new());
    for i in 0..report.index.entries.len() {
        let samples = report
            .index
            .read_frame(&report.container, i)
            .expect("frame decodes");
        let last = samples
            .last()
            .expect("a window holds a sample")
            .trigger_time;
        loads.push(last - last_trigger);
        last_trigger = last;
        let mut sa =
            StreamingAnalyzer::new(&report.annots, &report.symbols, AnalysisConfig::default())
                .with_locality_sizes(LOCALITY);
        sa.ingest_shard(&samples);
        stats.push(ring.close(&sa.into_partial(), *loads.last().unwrap()).0);
    }
    (loads, stats, ring.anomalies().to_vec())
}

/// Assert the live run and its offline replay agree field for field:
/// every window's drift stats and every mark. Returns the replayed
/// windows' loads.
fn assert_replay_matches(run: &WatchReport) -> Vec<u64> {
    let (loads, stats, marks) = replay(run);
    assert_eq!(
        run.windows.len(),
        stats.len(),
        "one container frame per closed window"
    );
    for (i, (live, replayed)) in run.windows.iter().zip(&stats).enumerate() {
        assert_eq!(
            live, replayed,
            "window {i} drift stats differ from the replay"
        );
    }
    assert_eq!(run.anomalies, marks, "marks differ from the replay");
    loads
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Across window sizes: pinned watch windows are bit-identical to
    /// the replayed frames, and each window covered exactly its samples
    /// × the period (the run's loads are a multiple of the period).
    #[test]
    fn pinned_watch_replays_bit_identical(window in 2usize..7) {
        let run = pinned_run(window, 20);
        prop_assert!(run.retunes.is_empty(), "pinned controller must not retune");
        let loads = assert_replay_matches(&run);
        for (w, l) in run.windows.iter().zip(loads) {
            prop_assert!(l == w.samples as u64 * PERIOD, "window {} covered {l} loads", w.window);
        }
    }

    /// Across window sizes: an adaptive run that retunes the period
    /// mid-run replays to the same windows and marks, with every
    /// window's loads taken from the frames' trigger times.
    #[test]
    fn adaptive_watch_replays_bit_identical(window in 2usize..7) {
        let run = adaptive_run(window, 40);
        prop_assert!(
            run.retunes.iter().any(|r| r.period != PERIOD),
            "the period never moved: {:?}", run.retunes
        );
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

/// Offline, a whole watch container scales by the loads its trailer
/// counts, and the replayed windows' trigger-time loads add up to that
/// count: the offline rule and the live one are the same rule. The
/// adaptive run retunes the period down from the header's, so samples ×
/// header period would over-count its loads.
#[test]
fn offline_container_scales_by_trailer_loads() {
    for (name, run) in [
        ("pinned", pinned_run(4, 64)),
        ("adaptive", adaptive_run(4, 64)),
    ] {
        let mut reader = ShardReader::new(&run.container[..]).expect("container header");
        let mut sa = StreamingAnalyzer::new(&run.annots, &run.symbols, AnalysisConfig::default())
            .with_locality_sizes(LOCALITY);
        let mut samples = 0u64;
        for shard in reader.by_ref() {
            let shard = shard.expect("frame decodes");
            samples += shard.samples.len() as u64;
            sa.ingest_shard(&shard.samples);
        }
        let meta = reader.meta().clone();
        let d = sa.finish(&meta).decompression;
        let want = meta.total_loads as f64 / (d.kappa() * d.observed as f64);
        assert_eq!(d.rho(), want, "{name}: ρ is not the trailer loads / κA");
        let (loads, _, _) = replay(&run);
        assert_eq!(
            loads.iter().sum::<u64>(),
            meta.total_loads,
            "{name}: windows' loads do not add up to the trailer's"
        );
        if name == "adaptive" {
            assert!(
                samples * meta.period > meta.total_loads,
                "the period never moved below the header's"
            );
        }
    }
}
