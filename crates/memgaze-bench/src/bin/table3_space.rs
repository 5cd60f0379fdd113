//! Table III: space savings of MemGaze's memory traces.
//!
//! Compares, per benchmark and optimization level: 'Rec' (compressed full
//! trace with bandwidth-pressure drops), 'All' (drop-corrected compressed
//! full trace), 'All⁺' (uncompressed full trace), and the MemGaze sampled
//! trace, with ratios as percentages. The paper's headline: sampled
//! traces are ≈1% of full ones; compression adds 1.2× (O3) / 2× (O0).
//!
//! Microbenchmarks run on the IR path (true Rec/All/All⁺ collections);
//! applications run on the stream path, where All⁺ is recovered from the
//! annotations' implied-Constant counts (exactly what the decoder would
//! reconstruct), and O0 is emulated with one implied frame load per
//! instrumented load.

use memgaze_analysis::Table;
use memgaze_bench::{emit, scales};
use memgaze_core::{full_trace_workload, trace_workload, MemGaze, PipelineConfig};
use memgaze_instrument::{InstrumentConfig, Instrumenter, ModuleClassification};
use memgaze_model::{io, DecompressionInfo};
use memgaze_ptsim::{collect_full, BandwidthModel, SamplerConfig};
use memgaze_workloads::darknet::{self, Network};
use memgaze_workloads::gap::{self, GapConfig, GapKernel};
use memgaze_workloads::minivite::{self, MapVariant, MiniViteConfig};
use memgaze_workloads::ubench::{MicroBench, OptLevel};
use memgaze_workloads::{LoadRecorder, TracedSpace};
use serde::Serialize;

#[derive(Serialize)]
struct Table3Row {
    benchmark: String,
    rec_bytes: u64,
    all_bytes: u64,
    all_plus_bytes: u64,
    memgaze_bytes: u64,
    ratio_rec_pct: f64,
    ratio_all_pct: f64,
    ratio_all_plus_pct: f64,
    kappa: f64,
}

fn pct(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        100.0 * a as f64 / b as f64
    }
}

/// A workload runnable under any recorder.
trait Runner: Copy {
    fn exec<R: LoadRecorder>(&self, space: &mut TracedSpace<R>);
}

#[derive(Clone, Copy)]
struct Mv(MiniViteConfig);
impl Runner for Mv {
    fn exec<R: LoadRecorder>(&self, space: &mut TracedSpace<R>) {
        minivite::run(space, &self.0);
    }
}

#[derive(Clone, Copy)]
struct Gap(GapConfig);
impl Runner for Gap {
    fn exec<R: LoadRecorder>(&self, space: &mut TracedSpace<R>) {
        gap::run(space, &self.0);
    }
}

#[derive(Clone, Copy)]
struct Dark(Network);
impl Runner for Dark {
    fn exec<R: LoadRecorder>(&self, space: &mut TracedSpace<R>) {
        darknet::run(space, self.0);
    }
}

/// Four trace sizes of one workload; `o0_extra > 0` emulates O0.
fn workload_row(name: &str, period: u64, o0_extra: u32, runner: impl Runner) -> Table3Row {
    let (rec, _) = full_trace_workload(name, Some(BandwidthModel::default()), true, |s| {
        s.set_o0_extra(o0_extra);
        runner.exec(s)
    });
    let (all, _) = full_trace_workload(name, None, true, |s| {
        s.set_o0_extra(o0_extra);
        runner.exec(s)
    });
    let sampler = SamplerConfig::application(period);
    let (sampled, _) = trace_workload(name, &sampler, |s| {
        s.set_o0_extra(o0_extra);
        runner.exec(s)
    });

    let rec_bytes = io::full_size_bytes(&rec.trace);
    let all_bytes = io::full_size_bytes(&all.trace);
    let kappa = DecompressionInfo::from_trace(&sampled.trace, &sampled.annots).kappa();
    let all_plus_bytes = (all_bytes as f64 * kappa) as u64;
    let memgaze_bytes = io::sampled_size_bytes(&sampled.trace);
    Table3Row {
        benchmark: name.to_string(),
        rec_bytes,
        all_bytes,
        all_plus_bytes,
        memgaze_bytes,
        ratio_rec_pct: pct(memgaze_bytes, rec_bytes),
        ratio_all_pct: pct(memgaze_bytes, all_bytes),
        ratio_all_plus_pct: pct(memgaze_bytes, all_plus_bytes),
        kappa,
    }
}

/// Microbenchmark sizes on the IR path: real Rec/All/All⁺ collections.
fn micro_row(name: &str, opt: OptLevel, elems: u32, reps: u32, period: u64) -> Table3Row {
    let bench = MicroBench::parse(name, elems, reps, opt).expect("bench");
    let module = bench.module();
    let main = module.find_proc("main").unwrap();

    // One classification serves both configurations.
    let classification = ModuleClassification::analyze(&module);
    let comp = Instrumenter::default().instrument_classified(&module, &classification);
    let unc = Instrumenter::new(InstrumentConfig::uncompressed())
        .instrument_classified(&module, &classification);

    // Microbenchmarks barely drop in the paper (their 'Rec' equals
    // 'All'): the IR kernels are small enough that copies keep up. Use a
    // bandwidth model with just mild pressure.
    let micro_bw = BandwidthModel {
        bytes_per_load: 18.0,
        burst_bytes: 64.0 * 1024.0,
    };
    let (rec, _) = collect_full(&comp, main, Some(micro_bw), name).unwrap();
    let (all, _) = collect_full(&comp, main, None, name).unwrap();
    let (all_plus, _) = collect_full(&unc, main, None, name).unwrap();

    let mut cfg = PipelineConfig::microbench();
    cfg.sampler.period = period;
    let report = MemGaze::new(cfg).run_microbench(&bench).unwrap();

    let rec_bytes = io::full_size_bytes(&rec);
    let all_bytes = io::full_size_bytes(&all);
    let all_plus_bytes = io::full_size_bytes(&all_plus);
    let memgaze_bytes = io::sampled_size_bytes(&report.trace);
    let kappa = DecompressionInfo::from_trace(&report.trace, &report.instrumented.annots).kappa();
    Table3Row {
        benchmark: format!("{}-{}", name, opt.suffix()),
        rec_bytes,
        all_bytes,
        all_plus_bytes,
        memgaze_bytes,
        ratio_rec_pct: pct(memgaze_bytes, rec_bytes),
        ratio_all_pct: pct(memgaze_bytes, all_bytes),
        ratio_all_plus_pct: pct(memgaze_bytes, all_plus_bytes),
        kappa,
    }
}

fn main() {
    let sc = scales::from_env();
    let mut rows = Vec::new();

    for opt in [OptLevel::O0, OptLevel::O3] {
        rows.push(micro_row(
            "str2|irr",
            opt,
            sc.micro_elems,
            sc.micro_reps,
            sc.micro_period,
        ));
    }

    for (variant, o0) in [
        (MapVariant::V1, 0u32),
        (MapVariant::V1, 1),
        (MapVariant::V2, 0),
        (MapVariant::V3, 0),
    ] {
        let mv = MiniViteConfig {
            scale: sc.graph_scale,
            degree: sc.degree,
            iterations: sc.louvain_iters,
            variant,
            seed: 42,
            v2_default_capacity: 64,
        };
        let label = format!(
            "miniVite-{}-{}",
            if o0 > 0 { "O0" } else { "O3" },
            variant.label()
        );
        rows.push(workload_row(&label, sc.app_period, o0, Mv(mv)));
    }

    for kernel in [
        GapKernel::Cc,
        GapKernel::CcSv,
        GapKernel::Pr,
        GapKernel::PrSpmv,
    ] {
        let cfg = GapConfig {
            scale: sc.graph_scale,
            degree: sc.degree,
            kernel,
            max_iters: sc.pr_iters,
            seed: 9,
        };
        for o0 in [1u32, 0] {
            let label = format!(
                "GAP-{}-{}",
                kernel.label(),
                if o0 > 0 { "O0" } else { "O3" }
            );
            rows.push(workload_row(&label, sc.app_period, o0, Gap(cfg)));
        }
    }

    for net in [Network::AlexNet, Network::ResNet152] {
        rows.push(workload_row(
            &format!("Darknet-{}", net.label()),
            sc.app_period,
            0,
            Dark(net),
        ));
    }

    let mut table = Table::new(
        "Table III: trace sizes — Rec / All / All+ (bytes) vs MemGaze, ratios in %",
        &[
            "Benchmark",
            "Rec",
            "All",
            "All+",
            "MemGaze",
            "%Rec",
            "%All",
            "%All+",
            "kappa",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.benchmark.clone(),
            r.rec_bytes.to_string(),
            r.all_bytes.to_string(),
            r.all_plus_bytes.to_string(),
            r.memgaze_bytes.to_string(),
            format!("{:.2}", r.ratio_rec_pct),
            format!("{:.2}", r.ratio_all_pct),
            format!("{:.2}", r.ratio_all_plus_pct),
            format!("{:.2}", r.kappa),
        ]);
    }
    emit("table3_space", &table, &rows);

    let o0 = rows.iter().find(|r| r.benchmark.contains("O0-v1")).unwrap();
    let o3 = rows.iter().find(|r| r.benchmark.contains("O3-v1")).unwrap();
    println!(
        "compression: O0 kappa {:.2} (paper ≈2), O3 kappa {:.2} (paper ≈1.2); sampled/All ratios {:.2}% / {:.2}%",
        o0.kappa, o3.kappa, o0.ratio_all_pct, o3.ratio_all_pct
    );
}
