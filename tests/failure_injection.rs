//! Failure injection: corrupted packet streams, drop storms, degenerate
//! configurations, empty inputs, and a stale index or a corrupt frame
//! under an indexed analysis must degrade gracefully — never panic,
//! never fabricate data.

use memgaze::analysis::{AnalysisConfig, Analyzer};
use memgaze::core::{
    full_trace_workload, run_fanout, trace_workload, FanoutBackend, FanoutConfig, MemGaze,
    PipelineConfig,
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

/// A deterministic multi-sample trace's indexed container, with side
/// tables that give its ips every load class.
fn indexed_fixture() -> (Vec<u8>, FrameIndex, AuxAnnotations, SymbolTable) {
    let mut t = SampledTrace::new(TraceMeta::new("indexed-fi", 1000, 8192));
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
    (container, index, annots, symbols)
}

#[test]
fn stale_index_sidecar_is_a_typed_error() {
    let (container, _, annots, symbols) = indexed_fixture();
    // An index describing a *different* container must be rejected up
    // front — before any frame is analyzed.
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
    assert!(matches!(err, ModelError::StaleIndex { .. }), "{err}");
}

#[test]
fn corrupt_middle_frame_is_a_typed_error() {
    let (container, index, annots, symbols) = indexed_fixture();
    // Flip a byte inside the middle frame's payload: the header still
    // validates, so the analysis starts, but that frame's checksum
    // fails when it is read — a typed error, never a panic.
    let mut corrupt = container.clone();
    let victim = index.entries[index.entries.len() / 2];
    corrupt[victim.offset as usize + 1] ^= 0x40;
    let err = run_fanout(
        &corrupt,
        &index,
        &annots,
        &symbols,
        AnalysisConfig::default(),
        &FanoutConfig::default(),
        &FanoutBackend::InProcess,
    )
    .unwrap_err();
    assert!(matches!(err, ModelError::StaleIndex { .. }), "{err}");
    assert!(err.to_string().contains("checksum"), "{err}");
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
