//! Table II: time overhead of binary instrumentation and analysis.
//!
//! Measures the three toolchain steps on our substrate: 'Instrument'
//! (classify + rewrite a load module; application binaries are emulated
//! by synthetic modules matched to the paper's binary sizes), 'Analysis/1'
//! (trace building: decoding raw packets / building the trace), and
//! 'Analysis/2' (trace analysis: function table, regions, intervals).

use memgaze_analysis::{AnalysisConfig, Table};
use memgaze_bench::{emit, scales, timed};
use memgaze_core::{trace_workload, MemGaze, PipelineConfig};
use memgaze_instrument::Instrumenter;
use memgaze_ptsim::SamplerConfig;
use memgaze_workloads::darknet::{self, Network};
use memgaze_workloads::gap::{self, GapConfig, GapKernel};
use memgaze_workloads::minivite::{self, MapVariant, MiniViteConfig};
use memgaze_workloads::modules::synthetic_module;
use memgaze_workloads::ubench::{MicroBench, OptLevel};
use serde::Serialize;

#[derive(Serialize)]
struct Table2Row {
    benchmark: String,
    binary_kb: f64,
    instrument_ms: f64,
    analysis1_ms: f64,
    analysis2_ms: f64,
}

fn analyze_ms(report: &memgaze_core::WorkloadReport) -> f64 {
    let (ms, _) = timed(|| {
        let a = report.analyzer(AnalysisConfig::default());
        let _ = a.function_table();
        let _ = a.region_rows();
        let _ = a.interval_rows(8);
    });
    ms
}

fn main() {
    let sc = scales::from_env();
    let mut rows = Vec::new();

    // Microbenchmark: the real IR instrumentation path, all steps.
    {
        let bench = MicroBench::parse("str2|irr", sc.micro_elems, sc.micro_reps, OptLevel::O3)
            .expect("bench");
        let module = bench.module();
        let (instr_ms, inst) = timed(|| Instrumenter::default().instrument(&module));
        let mut cfg = PipelineConfig::microbench();
        cfg.sampler.period = sc.micro_period;
        // Analysis/1 on the IR path is collection+decode.
        let (a1_ms, report) = timed(|| MemGaze::new(cfg.clone()).run_microbench(&bench).unwrap());
        let (a2_ms, _) = timed(|| {
            let a = report.analyzer(cfg.analysis);
            let _ = a.function_table();
            let _ = a.region_rows();
        });
        rows.push(Table2Row {
            benchmark: "ubenchmarks".into(),
            binary_kb: module.binary_size_bytes() as f64 / 1024.0,
            instrument_ms: instr_ms,
            analysis1_ms: a1_ms,
            analysis2_ms: a2_ms,
        });
        let _ = inst;
    }

    // Application binaries: instrumentation time on synthetic modules
    // matched to the paper's binary sizes; Analysis/1 and Analysis/2 on
    // the real workload traces.
    // Paper sizes: miniVite 1900 kB, GAP pr/cc ≈ 100 kB, Darknet 2700 kB.
    let shapes = [
        ("miniVite-O3-v1", 480usize, 60usize),
        ("GAP pr-O3", 24, 60),
        ("GAP cc-O3", 26, 60),
        ("Darknet-AlexNet", 680, 60),
        ("Darknet-ResNet", 680, 60),
    ];
    for (name, procs, loads) in shapes {
        let module = synthetic_module(procs, loads);
        let (instr_ms, _) = timed(|| Instrumenter::default().instrument(&module));

        let sampler = SamplerConfig::application(sc.app_period);
        let (a1_ms, report) = timed(|| match name {
            n if n.starts_with("miniVite") => {
                let mv = MiniViteConfig {
                    scale: sc.graph_scale,
                    degree: sc.degree,
                    iterations: sc.louvain_iters,
                    variant: MapVariant::V1,
                    seed: 42,
                    v2_default_capacity: 64,
                };
                trace_workload(name, &sampler, |s| {
                    minivite::run(s, &mv);
                })
                .0
            }
            n if n.starts_with("GAP") => {
                let kernel = if n.contains("pr") {
                    GapKernel::Pr
                } else {
                    GapKernel::Cc
                };
                let cfg = GapConfig {
                    scale: sc.graph_scale,
                    degree: sc.degree,
                    kernel,
                    max_iters: sc.pr_iters,
                    seed: 9,
                };
                trace_workload(name, &sampler, |s| {
                    gap::run(s, &cfg);
                })
                .0
            }
            _ => {
                let net = if name.contains("ResNet") {
                    Network::ResNet152
                } else {
                    Network::AlexNet
                };
                trace_workload(name, &sampler, |s| {
                    darknet::run(s, net);
                })
                .0
            }
        });
        let a2 = analyze_ms(&report);
        rows.push(Table2Row {
            benchmark: name.into(),
            binary_kb: module.binary_size_bytes() as f64 / 1024.0,
            instrument_ms: instr_ms,
            analysis1_ms: a1_ms,
            analysis2_ms: a2,
        });
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
    for r in &rows {
        table.push_row(vec![
            r.benchmark.clone(),
            format!("{:.0}", r.binary_kb),
            format!("{:.1}", r.instrument_ms),
            format!("{:.1}", r.analysis1_ms),
            format!("{:.1}", r.analysis2_ms),
        ]);
    }
    emit("table2_toolchain", &table, &rows);

    // Shape check: instrumentation time grows with binary size.
    let mv = rows
        .iter()
        .find(|r| r.benchmark.starts_with("miniVite"))
        .unwrap();
    let gap = rows
        .iter()
        .find(|r| r.benchmark.starts_with("GAP"))
        .unwrap();
    println!(
        "instrumentation scales with binary size: miniVite ({:.0} kB) {:.1} ms vs GAP ({:.0} kB) {:.1} ms",
        mv.binary_kb, mv.instrument_ms, gap.binary_kb, gap.instrument_ms
    );
}
