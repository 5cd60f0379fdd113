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
//! the adaptive controller's period retunes. `memgaze serve`, fed the
//! same frames, closes the same windows by the same rule.

use memgaze::analysis::{
    AnalysisConfig, AnomalyMark, StreamingAnalyzer, StreamingReport, WindowRing, WindowStats,
};
use memgaze::core::{
    phase_shift_steps, watch_workload, ControllerConfig, ControllerMode, WatchConfig, WatchReport,
};
use memgaze::model::{AuxAnnotations, Sample, ShardReader, ShardWriter, SymbolTable, TraceMeta};
use memgaze::obs::json::{self, Value};
use memgaze::ptsim::SamplerConfig;
use memgaze::serve::{Client, ServeConfig, Server};
use proptest::prelude::*;
use std::time::Duration;

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
/// fold it over `annots` with a fresh resident `StreamingAnalyzer`, and
/// close it through a fresh ring with the loads between the previous
/// frame's last trigger and its own. Returns each window's loads, its
/// stats, and every mark.
fn replay(
    report: &WatchReport,
    annots: &AuxAnnotations,
) -> (Vec<u64>, Vec<WindowStats>, Vec<AnomalyMark>) {
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
        let mut sa = StreamingAnalyzer::new(annots, &report.symbols, AnalysisConfig::default())
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
    let (loads, stats, marks) = replay(run, &run.annots);
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
        let (loads, _, _) = replay(&run, &run.annots);
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

/// Feed `uploads` to one session of a fresh server, which closes a
/// window per upload; return the session's `window` events and its
/// finished seal.
fn serve_windows(uploads: &[Vec<u8>]) -> (Vec<Value>, StreamingReport) {
    let cfg = ServeConfig {
        locality_sizes: LOCALITY.to_vec(),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg, 3).expect("bind");
    let http = Client::new(server.addr());
    let collector = http.watch_collect().expect("watch subscribe");
    let hub = server.registry().watch_hub();
    for _ in 0..1000 {
        if hub.subscriber_count() > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        hub.subscriber_count() > 0,
        "watch subscriber never registered"
    );
    let id = http.create_session().expect("create");
    for upload in uploads {
        let resp = http.feed(&id, upload, None).expect("feed");
        assert_eq!(resp.status, 202, "{}", resp.text());
    }
    let sealed = http.seal(&id).expect("seal").finish().expect("finish");
    server.drain();
    let windows = collector
        .collect()
        .into_iter()
        .filter(|(event, _)| event == "window")
        .map(|(_, data)| json::parse(&data).expect("window event JSON"))
        .collect();
    (windows, sealed)
}

/// A serve session closes one window per upload with the loads its
/// trailer counts, so it needs no period. Fed an adaptive run's
/// container whole, it closes one window with the trailer's loads and
/// every sample. Fed one frame per upload, with each header at the
/// period then in force, every window carries the watch window's loads
/// and prints the stats of the replay over empty annotations (serve
/// receives no annotation sidecar). Either way the seal is the resident
/// finish with the trailer's totals.
#[test]
fn serve_windows_match_watch_across_a_retune() {
    let run = adaptive_run(4, 64);
    assert!(
        run.retunes.iter().any(|r| r.period != PERIOD),
        "the period never moved: {:?}",
        run.retunes
    );
    let (loads, stats, _) = replay(&run, &AuxAnnotations::new());
    let run_loads: Vec<u64> = run.windows.iter().map(|w| w.loads).collect();
    assert_eq!(loads, run_loads, "the watch windows' loads");

    let mut reader = ShardReader::new(&run.container[..]).expect("container header");
    let (annots, symbols) = (AuxAnnotations::new(), SymbolTable::new());
    let mut sa = StreamingAnalyzer::new(&annots, &symbols, AnalysisConfig::default())
        .with_locality_sizes(LOCALITY);
    let mut frames: Vec<Vec<Sample>> = Vec::new();
    for shard in reader.by_ref() {
        let shard = shard.expect("frame decodes");
        sa.ingest_shard(&shard.samples);
        frames.push(shard.samples);
    }
    let meta = reader.meta().clone();
    let resident = sa.finish(&meta);

    // Each frame as an upload: its header carries the knobs the retunes
    // before it left in force, its trailer the loads it covered.
    let per_frame: Vec<Vec<u8>> = frames
        .iter()
        .zip(&loads)
        .enumerate()
        .map(|(k, (frame, &frame_loads))| {
            let (period, buffer) = run
                .retunes
                .iter()
                .rfind(|r| r.window < k)
                .map_or((meta.period, meta.buffer_bytes), |r| {
                    (r.period, r.buffer_bytes)
                });
            let header = TraceMeta::new(WORKLOAD, period, buffer);
            let mut w = ShardWriter::new(Vec::new(), &header).expect("header");
            w.write_shard(frame).expect("frame");
            let accesses = frame.iter().map(|s| s.accesses.len() as u64).sum();
            w.finish(frame_loads, accesses).expect("trailer")
        })
        .collect();

    let (windows, sealed) = serve_windows(std::slice::from_ref(&run.container));
    let int = |event: &Value, key: &str| event.get(key).and_then(Value::as_u64);
    assert_eq!(windows.len(), 1, "whole: one window per upload");
    assert_eq!(int(&windows[0], "window"), Some(0), "whole");
    assert_eq!(int(&windows[0], "loads"), Some(meta.total_loads), "whole");
    assert_eq!(
        int(&windows[0], "samples"),
        Some(frames.iter().map(|f| f.len() as u64).sum()),
        "whole"
    );
    assert_eq!(
        sealed, resident,
        "whole: the seal is not the resident finish"
    );

    let form = "per frame";
    let (windows, sealed) = serve_windows(&per_frame);
    assert_eq!(windows.len(), stats.len(), "{form}: one window per frame");
    for (i, (event, want)) in windows.iter().zip(&stats).enumerate() {
        let int = |key: &str| event.get(key).and_then(Value::as_u64);
        assert_eq!(int("window"), Some(i as u64), "{form}");
        assert_eq!(
            int("loads"),
            Some(run_loads[i]),
            "{form}: window {i}'s loads"
        );
        assert_eq!(
            int("samples"),
            Some(want.samples as u64),
            "{form}: window {i}"
        );
        assert_eq!(int("observed"), Some(want.observed), "{form}: window {i}");
        for (key, value, digits) in [
            ("f_hat_bytes", want.f_hat_bytes, 3),
            ("delta_f", want.delta_f, 6),
            ("df_irr_pct", want.delta_f_irr_pct, 3),
            ("a_const_pct", want.a_const_pct, 3),
            ("mean_d", want.mean_d, 3),
            ("kappa", want.kappa, 6),
        ] {
            let printed: f64 = format!("{value:.digits$}").parse().expect("a number");
            let got = match event.get(key) {
                Some(Value::Float(f)) => Some(*f),
                Some(Value::Int(n)) => Some(*n as f64),
                _ => None,
            };
            assert_eq!(got, Some(printed), "{form}: window {i}'s {key}");
        }
    }
    assert_eq!(
        sealed, resident,
        "{form}: the seal is not the resident finish"
    );
}
