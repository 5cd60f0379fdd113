//! Table II: time overhead of binary instrumentation and analysis.
//!
//! Measures the three toolchain steps on our substrate: 'Instrument'
//! (classify + rewrite a load module; application binaries are emulated
//! by synthetic modules matched to the paper's binary sizes), 'Analysis/1'
//! (trace building: decoding raw packets / building the trace), and
//! 'Analysis/2' (trace analysis: function table, regions, intervals).
//! The binary sizes are the deterministic file; the three times go to
//! the timing file.

use crate::scales::{App, Scales};
use crate::{timed, Output};
use memgaze_analysis::{AnalysisConfig, Table};
use memgaze_core::MemGaze;
use memgaze_instrument::Instrumenter;
use memgaze_isa::LoadModule;
use memgaze_workloads::darknet::Network;
use memgaze_workloads::gap::GapKernel;
use memgaze_workloads::minivite::MapVariant;
use memgaze_workloads::modules::synthetic_module;
use memgaze_workloads::ubench::{MicroBench, OptLevel};
use serde::Serialize;

#[derive(Serialize)]
struct Table2Row {
    benchmark: String,
    binary_kb: f64,
}

#[derive(Serialize)]
struct Table2Timing {
    benchmark: String,
    instrument_ms: f64,
    analysis1_ms: f64,
    analysis2_ms: f64,
}

pub(crate) fn run(sc: &Scales) -> Output {
    let mut rows = Vec::new();
    let mut times = Vec::new();
    let mut push = |benchmark: &str,
                    module: &LoadModule,
                    [instrument_ms, analysis1_ms, analysis2_ms]: [f64; 3]| {
        rows.push(Table2Row {
            benchmark: benchmark.into(),
            binary_kb: module.binary_size_bytes() as f64 / 1024.0,
        });
        times.push(Table2Timing {
            benchmark: benchmark.into(),
            instrument_ms,
            analysis1_ms,
            analysis2_ms,
        });
    };

    // Microbenchmark: the real IR instrumentation path, all steps.
    let bench =
        MicroBench::parse("str2|irr", sc.micro_elems, sc.micro_reps, OptLevel::O3).expect("bench");
    let module = bench.module();
    let (instr_ms, _) = timed(|| Instrumenter::default().instrument(&module));
    let cfg = sc.micro_pipeline();
    // Analysis/1 on the IR path is collection+decode.
    let (a1_ms, report) = timed(|| MemGaze::new(cfg.clone()).run_microbench(&bench).unwrap());
    let (a2_ms, _) = timed(|| {
        let a = report.analyzer(cfg.analysis);
        let _ = a.function_table();
        let _ = a.region_rows();
    });
    push("ubenchmarks", &module, [instr_ms, a1_ms, a2_ms]);

    // Application binaries: instrumentation time on synthetic modules
    // matched to the paper's binary sizes; Analysis/1 and Analysis/2 on
    // the real workload traces.
    // Paper sizes: miniVite 1900 kB, GAP pr/cc ≈ 100 kB, Darknet 2700 kB.
    let apps = [
        (
            "miniVite-O3-v1",
            480,
            App::MiniVite(sc.minivite(MapVariant::V1)),
        ),
        ("GAP pr-O3", 24, App::Gap(sc.gap(GapKernel::Pr))),
        ("GAP cc-O3", 26, App::Gap(sc.gap(GapKernel::Cc))),
        ("Darknet-AlexNet", 680, App::Darknet(Network::AlexNet)),
        ("Darknet-ResNet", 680, App::Darknet(Network::ResNet152)),
    ];
    for (name, procs, app) in apps {
        let module = synthetic_module(procs, 60);
        let (instr_ms, _) = timed(|| Instrumenter::default().instrument(&module));
        let (a1_ms, report) = timed(|| app.trace(name, &sc.app_sampler()));
        let (a2_ms, _) = timed(|| {
            let a = report.analyzer(AnalysisConfig::default());
            let _ = a.function_table();
            let _ = a.region_rows();
            let _ = a.interval_rows(8);
        });
        push(name, &module, [instr_ms, a1_ms, a2_ms]);
    }

    let mut table = Table::new(
        "Table II: toolchain times (Instrument / Analysis-1 trace building / Analysis-2 analysis)",
        &[
            "Benchmark",
            "Binary kB",
            "Instrument ms",
            "Analysis/1 ms",
            "Analysis/2 ms",
        ],
    );
    for (r, t) in rows.iter().zip(&times) {
        table.push_row(vec![
            r.benchmark.clone(),
            format!("{:.0}", r.binary_kb),
            format!("{:.1}", t.instrument_ms),
            format!("{:.1}", t.analysis1_ms),
            format!("{:.1}", t.analysis2_ms),
        ]);
    }
    println!("{}", table.render());

    // Shape check: instrumentation time grows with binary size (rows 1
    // and 2 are miniVite and GAP pr).
    let (mv_kb, mv_ms) = (rows[1].binary_kb, times[1].instrument_ms);
    let (gap_kb, gap_ms) = (rows[2].binary_kb, times[2].instrument_ms);
    println!(
        "instrumentation scales with binary size: miniVite ({mv_kb:.0} kB) {mv_ms:.1} ms vs GAP ({gap_kb:.0} kB) {gap_ms:.1} ms"
    );
    Output::new(&rows).with_timing(&times)
}
