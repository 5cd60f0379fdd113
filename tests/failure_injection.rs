//! Failure injection: corrupted packet streams, drop storms, degenerate
//! configurations, and empty inputs must degrade gracefully — never
//! panic, never fabricate data. Fan-out workers are made to crash, hang,
//! short-write or flood stderr from outside, through a wrapper
//! executable; the in-process worker panic is `memgaze-core`'s own unit
//! test, since it needs a seam inside the coordinator.

use memgaze::analysis::{stream_resident_trace, AnalysisConfig, Analyzer};
use memgaze::core::{
    full_trace_workload, run_fanout, trace_workload, FanoutBackend, FanoutConfig, FanoutError,
    MemGaze, PipelineConfig,
};
use memgaze::instrument::Instrumenter;
use memgaze::model::Ip;
use memgaze::model::{
    encode_sharded_indexed, Access, AuxAnnotations, FrameIndex, ModelError, Sample, SampledTrace,
    SymbolTable, TraceMeta,
};
use memgaze::ptsim::{decode_full, BandwidthModel, PtwPacket, SamplerConfig, StreamSampler};
use memgaze::workloads::gap::{self, GapConfig, GapKernel};
use memgaze::workloads::ubench::{MicroBench, OptLevel};

/// Run an instrumented microbenchmark and return its raw packets.
fn packets_of(bench: &MicroBench) -> (memgaze::instrument::Instrumented, Vec<PtwPacket>) {
    use memgaze::isa::interp::{EventSink, Machine};
    struct P(Vec<PtwPacket>);
    impl EventSink for P {
        fn on_ptwrite(&mut self, ip: Ip, payload: u64, load_time: u64) {
            self.0.push(PtwPacket {
                ip,
                payload,
                load_time,
            });
        }
    }
    let module = bench.module();
    let inst = Instrumenter::default().instrument(&module);
    let main = inst.module.find_proc("main").unwrap();
    let mut mach = Machine::new(&inst.module, P(Vec::new()));
    mach.run(main, 100_000_000).unwrap();
    let packets = mach.into_sink().0;
    (inst, packets)
}

#[test]
fn corrupted_packet_streams_decode_without_panicking() {
    let bench = MicroBench::parse("str1|irr", 512, 4, OptLevel::O3).unwrap();
    let (inst, packets) = packets_of(&bench);
    assert!(packets.len() > 100);

    // Corruption modes: drop every k-th packet, scramble ips, truncate.
    let meta = TraceMeta::new("corrupt", 0, 0);
    for k in [2usize, 3, 5] {
        let dropped: Vec<PtwPacket> = packets
            .iter()
            .enumerate()
            .filter(|(i, _)| i % k != 0)
            .map(|(_, p)| *p)
            .collect();
        let out = decode_full(&dropped, 0, 1000, &inst, meta.clone());
        // Decoding never yields more accesses than packets, and split
        // two-source groups are counted, not invented.
        assert!(out.trace.accesses.len() <= dropped.len());
    }

    let scrambled: Vec<PtwPacket> = packets
        .iter()
        .map(|p| PtwPacket {
            ip: Ip(p.ip.raw() ^ 0xffff_0000),
            ..*p
        })
        .collect();
    let out = decode_full(&scrambled, 0, 1000, &inst, meta.clone());
    assert_eq!(
        out.trace.accesses.len(),
        0,
        "unknown ips must decode to nothing"
    );
    assert_eq!(out.unknown_packets, scrambled.len() as u64);

    let reversed: Vec<PtwPacket> = packets.iter().rev().copied().collect();
    let _ = decode_full(&reversed, 0, 1000, &inst, meta);
}

#[test]
fn drop_storm_preserves_accounting() {
    // A bandwidth model that drops almost everything.
    let starved = BandwidthModel {
        bytes_per_load: 0.2,
        burst_bytes: 64.0,
    };
    let cfg = GapConfig {
        scale: 8,
        degree: 6,
        kernel: GapKernel::Pr,
        max_iters: 4,
        seed: 1,
    };
    let (report, _) = full_trace_workload("storm", Some(starved), true, |s| {
        gap::run(s, &cfg);
    });
    assert!(report.trace.drop_rate() > 0.9, "storm must drop nearly all");
    // Accounting still balances: kept + dropped == instrumented loads.
    assert_eq!(
        report.trace.accesses.len() as u64 + report.trace.dropped,
        report.trace.meta.total_instrumented_loads
    );
    // Whatever survived is still analyzable.
    let as_trace = report.trace.as_single_sample_trace();
    let analyzer = Analyzer::new(&as_trace, &report.annots, &report.symbols);
    let _ = analyzer.decompression();
}

#[test]
fn zero_period_like_configs_are_safe() {
    // Period of 1: a trigger on every load.
    let mut cfg = SamplerConfig::application(1);
    cfg.buffer_bytes = 64;
    let mut s = StreamSampler::new(cfg);
    for t in 0..1000u64 {
        s.on_load(Ip(0x400), t * 8, true, 1);
    }
    let (trace, stats) = s.finish("p1");
    assert_eq!(stats.total_loads, 1000);
    assert_eq!(trace.num_samples(), 1000);
    // Giant period: a single trailing flush.
    let cfg = SamplerConfig::application(u64::MAX / 2);
    let mut s = StreamSampler::new(cfg);
    for t in 0..1000u64 {
        s.on_load(Ip(0x400), t * 8, true, 1);
    }
    let (trace, _) = s.finish("phuge");
    assert_eq!(trace.num_samples(), 1);
}

#[test]
fn empty_and_tiny_workloads_analyze_cleanly() {
    // A workload that performs no loads at all.
    let cfg = SamplerConfig::application(1000);
    let (report, ()) = trace_workload("empty", &cfg, |_s| {});
    assert_eq!(report.stream.total_loads, 0);
    let analyzer = report.analyzer(AnalysisConfig::default());
    assert!(analyzer.function_table().is_empty());
    assert!(analyzer.region_rows().is_empty());
    assert!(analyzer.zoom().is_none());
    assert_eq!(analyzer.working_set().pages_observed, 0);

    // A degenerate graph (scale 0: one vertex).
    let gcfg = GapConfig {
        scale: 0,
        degree: 1,
        kernel: GapKernel::CcSv,
        max_iters: 2,
        seed: 1,
    };
    let (report, out) = trace_workload("tiny", &cfg, |s| gap::run(s, &gcfg));
    assert_eq!(out.values.len(), 1);
    let _ = report.analyzer(AnalysisConfig::default()).function_table();
}

#[test]
fn microbench_with_one_element_array() {
    let bench = MicroBench::parse("irr", 1, 2, OptLevel::O0).unwrap();
    let mut cfg = PipelineConfig::microbench();
    cfg.sampler.period = 2;
    let report = MemGaze::new(cfg).run_microbench(&bench).unwrap();
    // Almost nothing to sample, but nothing breaks.
    let _ = report.trace.mean_window();
}

/// A deterministic multi-sample trace with enough reuse structure that a
/// wrong merge would change the report, plus its indexed container.
fn fanout_fixture() -> (
    SampledTrace,
    Vec<u8>,
    FrameIndex,
    AuxAnnotations,
    SymbolTable,
) {
    let mut t = SampledTrace::new(TraceMeta::new("fanout-fi", 1000, 8192));
    for s in 0..14u64 {
        let n = 25 + (s * 11) % 60;
        let acc: Vec<Access> = (0..n)
            .map(|i| {
                Access::new(
                    0x400 + (i % 6) * 4,
                    ((s * 43 + i * 7) % 300) * 64,
                    s * 1000 + i,
                )
            })
            .collect();
        t.push_sample(Sample::new(acc, s * 1000 + n)).unwrap();
    }
    t.meta.total_loads = 14_000;
    let (container, index) = encode_sharded_indexed(&t, 3);
    let mut annots = AuxAnnotations::new();
    for k in 0..6u64 {
        let class = match k % 3 {
            0 => memgaze::model::LoadClass::Strided,
            1 => memgaze::model::LoadClass::Irregular,
            _ => memgaze::model::LoadClass::Constant,
        };
        let mut an = memgaze::model::IpAnnot::of_class(class, memgaze::model::FunctionId(0));
        an.implied_const = (k % 4) as u32;
        annots.insert(Ip(0x400 + k * 4), an);
    }
    let mut symbols = SymbolTable::new();
    symbols.add_function("hot", Ip(0x400), Ip(0x500), "hot.c");
    (t, container, index, annots, symbols)
}

fn assert_reports_identical(
    run: &memgaze::core::FanoutRunReport,
    resident: &memgaze::analysis::StreamingReport,
    what: &str,
) {
    assert_eq!(run.report.decompression, resident.decompression, "{what}");
    assert_eq!(run.report.function_rows, resident.function_rows, "{what}");
    assert_eq!(run.report.block_reuse, resident.block_reuse, "{what}");
    assert_eq!(
        run.report.reuse_histogram, resident.reuse_histogram,
        "{what}"
    );
    assert_eq!(
        run.report.locality_series, resident.locality_series,
        "{what}"
    );
    for n in [1usize, 4] {
        assert_eq!(
            run.report.interval_rows(n),
            resident.interval_rows(n),
            "{what}"
        );
    }
}

/// A fan-out backend whose first spawned worker misbehaves as `mode`
/// says (`crash`, `hang`, `short-write` or `stderr-flood`; see
/// `tests/fanout_wrapper.sh`) with its first range in flight, and whose
/// every other worker is the real one. The directory goes with it.
#[cfg(unix)]
struct MisbehavesOnce(std::path::PathBuf);

#[cfg(unix)]
impl MisbehavesOnce {
    fn new(mode: &str) -> MisbehavesOnce {
        use std::os::unix::fs::symlink;
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "memgaze-misbehave-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Links and a data file only: an executable this process had just
        // written could still be open for writing in another test
        // thread's fork, and exec would fail with ETXTBSY.
        let script = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fanout_wrapper.sh");
        symlink(script, dir.join("memgaze")).unwrap();
        symlink(env!("CARGO_BIN_EXE_memgaze"), dir.join("real")).unwrap();
        std::fs::write(dir.join("mode"), mode).unwrap();
        MisbehavesOnce(dir)
    }

    fn backend(&self) -> FanoutBackend {
        FanoutBackend::Subprocess {
            exe: self.0.join("memgaze"),
        }
    }
}

#[cfg(unix)]
impl Drop for MisbehavesOnce {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(unix)]
#[test]
fn killed_worker_is_reassigned_and_report_stays_identical() {
    let (t, container, index, annots, symbols) = fanout_fixture();
    let analysis = AnalysisConfig::default();
    let sizes = vec![8u64, 32];
    let resident = stream_resident_trace(&t, &annots, &symbols, analysis, &sizes, 3);
    // One worker crashes mid-run (garbage output + nonzero exit); the
    // coordinator must re-run its range and still produce the identical
    // report.
    let cfg = FanoutConfig {
        workers: 3,
        locality_sizes: sizes.clone(),
        ..FanoutConfig::default()
    };
    let backend = MisbehavesOnce::new("crash");
    let run = run_fanout(
        &container,
        &index,
        &annots,
        &symbols,
        analysis,
        &cfg,
        &backend.backend(),
    )
    .unwrap();
    assert!(run.retries >= 1, "the injected crash must cost a retry");
    assert!(!run.failures.is_empty());
    assert!(
        run.failures[0].detail.contains("exited"),
        "{:?}",
        run.failures
    );
    assert_reports_identical(&run, &resident, "crash-recovery run");
}

#[cfg(unix)]
#[test]
fn persistent_worker_killed_mid_range_is_respawned() {
    let (t, container, index, annots, symbols) = fanout_fixture();
    let analysis = AnalysisConfig::default();
    let sizes = vec![8u64, 32];
    let resident = stream_resident_trace(&t, &annots, &symbols, analysis, &sizes, 3);
    // One slot, one range, and a worker that dies with the range in
    // flight: the coordinator must respawn a fresh persistent worker
    // (exactly one extra spawn), retry the range on it, and produce the
    // identical report.
    let cfg = FanoutConfig {
        workers: 1,
        locality_sizes: sizes.clone(),
        ..FanoutConfig::default()
    };
    let backend = MisbehavesOnce::new("crash");
    let run = run_fanout(
        &container,
        &index,
        &annots,
        &symbols,
        analysis,
        &cfg,
        &backend.backend(),
    )
    .unwrap();
    assert_eq!(run.ranges.len(), 1);
    assert!(run.retries >= 1, "the mid-range death must cost a retry");
    assert_eq!(run.spawns, 2, "the dead worker plus exactly one respawn");
    assert_reports_identical(&run, &resident, "respawn-recovery run");
}

#[test]
fn warm_pool_reuses_workers_across_runs() {
    use memgaze::core::{FanoutPool, FrameSource};

    let (t, container, index, annots, symbols) = fanout_fixture();
    let analysis = AnalysisConfig::default();
    let sizes = vec![8u64, 32];
    let resident = stream_resident_trace(&t, &annots, &symbols, analysis, &sizes, 3);
    let exe = std::path::PathBuf::from(env!("CARGO_BIN_EXE_memgaze"));
    // Fewer workers than frames, as many, and more (the fixture has 5).
    for workers in [1usize, 2, 4, 8] {
        let cfg = FanoutConfig {
            workers,
            locality_sizes: sizes.clone(),
            ..FanoutConfig::default()
        };
        let source = FrameSource::container(&container, &index);
        let pool = FanoutPool::new(&exe, source, &annots, &symbols, analysis, cfg).unwrap();
        pool.prewarm().unwrap();
        assert_eq!(
            pool.spawn_count(),
            workers as u64,
            "prewarm spawns one worker per slot"
        );
        // Repeated runs are served entirely by the warm workers — no new
        // process spawns, no container reloads — and every run's report
        // is still bit-identical to the resident analyzer.
        for round in 0..3 {
            let run = pool.run().unwrap();
            assert_eq!(
                run.spawns, 0,
                "w{workers} round {round} must reuse warm workers"
            );
            assert_eq!(run.retries, 0, "w{workers} round {round}");
            assert_reports_identical(&run, &resident, "warm-pool run");
        }
        assert_eq!(
            pool.spawn_count(),
            workers as u64,
            "no extra spawns across runs"
        );
    }
}

#[cfg(unix)]
#[test]
fn hung_worker_is_killed_and_reassigned() {
    let (t, container, index, annots, symbols) = fanout_fixture();
    let analysis = AnalysisConfig::default();
    let resident = stream_resident_trace(&t, &annots, &symbols, analysis, &[], 3);
    let cfg = FanoutConfig {
        workers: 2,
        timeout: std::time::Duration::from_secs(1),
        ..FanoutConfig::default()
    };
    let backend = MisbehavesOnce::new("hang");
    let run = run_fanout(
        &container,
        &index,
        &annots,
        &symbols,
        analysis,
        &cfg,
        &backend.backend(),
    )
    .unwrap();
    assert!(run.retries >= 1);
    assert!(
        run.failures.iter().any(|f| f.detail.contains("timeout")),
        "{:?}",
        run.failures
    );
    assert_reports_identical(&run, &resident, "hang-recovery run");
}

#[cfg(unix)]
#[test]
fn short_write_worker_fails_typed_and_is_retried() {
    let (t, container, index, annots, symbols) = fanout_fixture();
    let analysis = AnalysisConfig::default();
    let resident = stream_resident_trace(&t, &annots, &symbols, analysis, &[], 3);
    // One worker writes a valid magic + a length header claiming 4096
    // payload bytes, then only a fragment, then exits 0 — so only the
    // coordinator's framing validation can catch it. That must surface
    // as a typed protocol failure and a clean retry, never a panic.
    let cfg = FanoutConfig {
        workers: 3,
        ..FanoutConfig::default()
    };
    let backend = MisbehavesOnce::new("short-write");
    let run = run_fanout(
        &container,
        &index,
        &annots,
        &symbols,
        analysis,
        &cfg,
        &backend.backend(),
    )
    .unwrap();
    assert!(run.retries >= 1, "the short write must cost a retry");
    assert!(
        run.failures
            .iter()
            .any(|f| f.detail.contains("payload length")),
        "{:?}",
        run.failures
    );
    assert_reports_identical(&run, &resident, "short-write-recovery run");
}

#[cfg(unix)]
#[test]
fn stderr_flooding_worker_is_drained_capped_and_retried() {
    let (t, container, index, annots, symbols) = fanout_fixture();
    let analysis = AnalysisConfig::default();
    let resident = stream_resident_trace(&t, &annots, &symbols, analysis, &[], 3);
    // One worker floods stderr with 4 MiB (far past the pipe buffer)
    // and exits nonzero. The coordinator must drain without deadlock,
    // keep only a bounded prefix in the failure detail (noting the
    // truncation), and recover via retry.
    let cfg = FanoutConfig {
        workers: 2,
        ..FanoutConfig::default()
    };
    let backend = MisbehavesOnce::new("stderr-flood");
    let run = run_fanout(
        &container,
        &index,
        &annots,
        &symbols,
        analysis,
        &cfg,
        &backend.backend(),
    )
    .unwrap();
    assert!(run.retries >= 1);
    let flood = run
        .failures
        .iter()
        .find(|f| f.detail.contains("stderr bytes truncated"))
        .unwrap_or_else(|| panic!("no truncation note in {:?}", run.failures));
    // Bounded: the 64 KiB keep cap plus a little framing, not 4 MiB.
    assert!(
        flood.detail.len() < 70_000,
        "failure detail not capped: {} bytes",
        flood.detail.len()
    );
    assert_reports_identical(&run, &resident, "stderr-flood-recovery run");
}

#[cfg(unix)]
#[test]
fn fanout_with_obs_produces_stitched_trace_with_retry() {
    use memgaze::obs::{self, Event, ObsConfig};

    let (_, container, index, annots, symbols) = fanout_fixture();
    let analysis = AnalysisConfig::default();
    // Capture-sink observability plus one worker crash: the run must
    // yield a single stitched trace holding the coordinator's spans, the
    // subprocess workers' spans (absorbed from their JSONL scratch files,
    // stitched via the remote-parent edge), and at least one retry mark.
    obs::configure(ObsConfig {
        capture: true,
        ..ObsConfig::disabled()
    });
    let cfg = FanoutConfig {
        workers: 2,
        ..FanoutConfig::default()
    };
    let backend = MisbehavesOnce::new("crash");
    let run = run_fanout(
        &container,
        &index,
        &annots,
        &symbols,
        analysis,
        &cfg,
        &backend.backend(),
    );
    let events = obs::take_capture();
    obs::configure(ObsConfig::disabled());
    let run = run.unwrap();
    assert!(run.retries >= 1);

    let me = obs::own_pid();
    assert!(
        events.iter().any(
            |e| matches!(e, Event::Span { pid, name, .. } if *pid == me && name == "fanout.run")
        ),
        "no coordinator fanout.run span among {} events",
        events.len()
    );
    // Worker spans carry a different pid and stitch to a coordinator
    // span through their remote-parent edge.
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::Span { pid, remote: Some(r), .. } if *pid != me && r.pid == me
        )),
        "no worker span stitched under a coordinator span"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::Mark { name, .. } if name == "fanout.retry")),
        "no fanout.retry mark recorded"
    );
}

#[test]
fn analyze_shard_takes_exactly_one_complete_source() {
    // Two sources, or half of one, is a usage error naming the flag at
    // fault — caught before any file is opened.
    let cases: [(&[&str], &str); 3] = [
        (
            &[
                "--container",
                "c",
                "--index",
                "i",
                "--store-root",
                "r",
                "--trace",
                "t",
            ],
            "--store-root",
        ),
        (&["--container", "c"], "--index"),
        (&["--trace", "t"], "--store-root"),
    ];
    for (flags, named) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_memgaze"))
            .args(["analyze-shard", "--spec", "s"])
            .args(flags)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(named), "{flags:?}: {stderr}");
    }
}

#[test]
fn stale_index_sidecar_is_a_typed_error() {
    let (_, container, _, annots, symbols) = fanout_fixture();
    // An index describing a *different* container must be rejected up
    // front — before any worker is dispatched.
    let mut other = SampledTrace::new(TraceMeta::new("other", 1000, 8192));
    other
        .push_sample(Sample::new(vec![Access::new(0x400u64, 64, 0)], 1))
        .unwrap();
    other.meta.total_loads = 1000;
    let (_, stale) = encode_sharded_indexed(&other, 1);
    let err = run_fanout(
        &container,
        &stale,
        &annots,
        &symbols,
        AnalysisConfig::default(),
        &FanoutConfig::default(),
        &FanoutBackend::InProcess,
    )
    .unwrap_err();
    assert!(
        matches!(err, FanoutError::Model(ModelError::StaleIndex { .. })),
        "{err}"
    );
}

#[test]
fn truncated_frame_mid_range_fails_typed_after_retries() {
    let (_, container, index, annots, symbols) = fanout_fixture();
    // Flip a byte inside the middle frame's payload: the header still
    // validates (so dispatch proceeds), but the per-frame checksum fails
    // in whichever worker owns that frame — a persistent error that
    // must exhaust retries and surface as RangeFailed, never a panic.
    let mut corrupt = container.clone();
    let victim = index.entries[index.entries.len() / 2];
    corrupt[victim.offset as usize + 1] ^= 0x40;
    let cfg = FanoutConfig {
        workers: 4,
        max_attempts: 2,
        ..FanoutConfig::default()
    };
    let err = run_fanout(
        &corrupt,
        &index,
        &annots,
        &symbols,
        AnalysisConfig::default(),
        &cfg,
        &FanoutBackend::InProcess,
    )
    .unwrap_err();
    match err {
        FanoutError::RangeFailed { attempts, last, .. } => {
            assert_eq!(attempts, 2);
            assert!(last.contains("stale frame index"), "{last}");
        }
        other => panic!("expected RangeFailed, got {other}"),
    }
}

#[test]
fn analyzer_tolerates_mismatched_side_tables() {
    // Symbols and annotations from a *different* run must not panic the
    // analyses (ips simply resolve to unknown).
    let mut trace = SampledTrace::new(TraceMeta::new("x", 100, 1024));
    trace
        .push_sample(memgaze::model::Sample::new(
            (0..50)
                .map(|i| memgaze::model::Access::new(Ip(0xdead_0000 + i * 4), 0x1000 + i * 64, i))
                .collect(),
            50,
        ))
        .unwrap();
    let annots = AuxAnnotations::new();
    let symbols = SymbolTable::new();
    let analyzer = Analyzer::new(&trace, &annots, &symbols);
    let rows = analyzer.function_table();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].name, "<unknown>");
    assert!(!analyzer.region_rows().is_empty());
    let _ = analyzer.interval_tree();
}
