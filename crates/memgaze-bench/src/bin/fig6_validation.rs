//! Figure 6: validating sampled footprint access diagnostics.
//!
//! For every microbenchmark, compare metric histograms (F, F_str, F_irr
//! over power-of-2 windows) between sampled and full traces — the paper
//! reports trace-window MAPE < 25% and code-window error < 5%. For the
//! graph benchmarks, validate against 10×-denser sampling, as the paper
//! does (full traces of the graph benchmarks were infeasible).

use memgaze_analysis::{
    compare_window_series, fmt_pct, footprint, pct_error, pow2_sizes, window_series, CodeWindows,
    Table,
};
use memgaze_model::Access;

/// Code-window comparison: mean footprint of fixed-size chunks of a
/// function's accesses, sampled vs. baseline (both measured the same
/// way, so the aggregation over many samples is what reduces the error —
/// paper §IV-B).
fn chunked_footprint(accesses: &[Access], chunk: usize, fb: BlockSize) -> f64 {
    let chunk = chunk.max(4);
    let mut n = 0u64;
    let mut sum = 0.0;
    for c in accesses.chunks(chunk) {
        if c.len() < chunk / 2 {
            continue;
        }
        sum += footprint(c, fb) as f64;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}
use memgaze_bench::{emit, scales};
use memgaze_core::{trace_workload, MemGaze, PipelineConfig};
use memgaze_model::BlockSize;
use memgaze_ptsim::SamplerConfig;
use memgaze_workloads::gap::{self, GapConfig, GapKernel};
use memgaze_workloads::minivite::{self, MapVariant, MiniViteConfig};
use memgaze_workloads::ubench::{suite, MicroBench, OptLevel, UKernelSpec};
use serde::Serialize;

#[derive(Serialize)]
struct Fig6Row {
    bench: String,
    trace_mape_f: f64,
    trace_mape_fstr: f64,
    trace_mape_firr: f64,
    code_err_f: f64,
    windows_compared: u64,
}

/// Microbenchmark validation: sampled vs. perfect full trace.
fn micro_row(bench: &MicroBench, period: u64) -> Fig6Row {
    let mut cfg = PipelineConfig::microbench();
    cfg.sampler.period = period;
    let mg = MemGaze::new(cfg.clone());
    let report = mg.run_microbench(bench).expect("pipeline");
    let truth = mg.microbench_ground_truth(bench).expect("ground truth");

    let sizes = pow2_sizes(4, 9);
    let fb = cfg.analysis.footprint_block;
    let sampled = window_series(&report.trace, &report.instrumented.annots, fb, &sizes);
    let full_trace = truth.as_single_sample_trace();
    let full = window_series(&full_trace, &report.instrumented.annots, fb, &sizes);
    let mape = compare_window_series(&full, &sampled);

    // Code windows: aggregate the kernel's accesses over all samples and
    // compare the mean per-window footprint against the full trace at
    // the same window size.
    let cw_s = CodeWindows::build(&report.trace, &report.instrumented.orig_symbols);
    let cw_f = CodeWindows::build(&full_trace, &report.instrumented.orig_symbols);
    let chunk = report.trace.mean_window().max(8.0) as usize;
    let code_err = match (cw_s.function("kernel"), cw_f.function("kernel")) {
        (Some(s), Some(f)) => pct_error(
            chunked_footprint(f, chunk, fb),
            chunked_footprint(s, chunk, fb),
        ),
        _ => f64::NAN,
    };

    Fig6Row {
        bench: bench.name(),
        trace_mape_f: mape.f,
        trace_mape_fstr: mape.f_str,
        trace_mape_firr: mape.f_irr,
        code_err_f: code_err,
        windows_compared: mape.points,
    }
}

/// Graph-benchmark validation: sampled vs. 10×-denser sampling.
fn graph_row(
    name: &str,
    period: u64,
    run: impl Fn(&mut memgaze_workloads::TracedSpace<memgaze_core::SamplerRecorder>),
) -> Fig6Row {
    let sparse_cfg = SamplerConfig::application(period);
    let mut dense_cfg = SamplerConfig::application(period / 10);
    dense_cfg.seed = sparse_cfg.seed + 1;

    let (sparse, _) = trace_workload(name, &sparse_cfg, |s| run(s));
    let (dense, _) = trace_workload(name, &dense_cfg, |s| run(s));

    let sizes = pow2_sizes(4, 8);
    let fb = BlockSize::WORD;
    let s_series = window_series(&sparse.trace, &sparse.annots, fb, &sizes);
    let d_series = window_series(&dense.trace, &dense.annots, fb, &sizes);
    let mape = compare_window_series(&d_series, &s_series);

    // Code windows: compare the hottest function's mean per-window
    // footprint between densities at a matched window size.
    let code_err = {
        let cw_s = CodeWindows::build(&sparse.trace, &sparse.symbols);
        let cw_d = CodeWindows::build(&dense.trace, &dense.symbols);
        let chunk = sparse.trace.mean_window().max(8.0) as usize;
        let hottest = {
            let a_s = sparse.analyzer(Default::default());
            a_s.function_table().first().map(|r| r.name.clone())
        };
        match hottest.and_then(|h| Some((cw_s.function(&h)?, cw_d.function(&h)?))) {
            Some((s, d)) => pct_error(
                chunked_footprint(d, chunk, fb),
                chunked_footprint(s, chunk, fb),
            ),
            None => f64::NAN,
        }
    };

    Fig6Row {
        bench: name.to_string(),
        trace_mape_f: mape.f,
        trace_mape_fstr: mape.f_str,
        trace_mape_firr: mape.f_irr,
        code_err_f: code_err,
        windows_compared: mape.points,
    }
}

fn main() {
    let sc = scales::from_env();
    let mut rows = Vec::new();

    // Microbenchmarks (suite at O3, as Fig. 6's bulk).
    for bench in suite(OptLevel::O3) {
        let bench = MicroBench::new(UKernelSpec {
            elems: sc.micro_elems,
            reps: sc.micro_reps,
            ..bench.spec
        });
        rows.push(micro_row(&bench, sc.micro_period));
    }

    // Graph benchmarks, validated against 10× denser sampling.
    let mv = MiniViteConfig {
        scale: sc.graph_scale,
        degree: sc.degree,
        iterations: sc.louvain_iters,
        variant: MapVariant::V1,
        seed: 42,
        v2_default_capacity: 64,
    };
    rows.push(graph_row("miniVite-O3-v1", sc.app_period, move |s| {
        minivite::run(s, &mv);
    }));
    for kernel in [GapKernel::Pr, GapKernel::Cc] {
        let cfg = GapConfig {
            scale: sc.graph_scale,
            degree: sc.degree,
            kernel,
            max_iters: sc.pr_iters,
            seed: 9,
        };
        rows.push(graph_row(
            &format!("GAP-{}-O3", kernel.label()),
            sc.app_period,
            move |s| {
                gap::run(s, &cfg);
            },
        ));
    }

    let mut table = Table::new(
        "Fig. 6: MAPE of sampled footprint access diagnostics (trace windows) and code-window error",
        &["Benchmark", "MAPE F%", "MAPE Fstr%", "MAPE Firr%", "Code err F%", "Windows"],
    );
    for r in &rows {
        table.push_row(vec![
            r.bench.clone(),
            fmt_pct(r.trace_mape_f),
            fmt_pct(r.trace_mape_fstr),
            fmt_pct(r.trace_mape_firr),
            fmt_pct(r.code_err_f),
            r.windows_compared.to_string(),
        ]);
    }
    emit("fig6_validation", &table, &rows);

    let worst = rows.iter().map(|r| r.trace_mape_f).fold(0.0f64, f64::max);
    println!(
        "worst trace-window footprint MAPE: {:.1}% (paper band: 1–25%)",
        worst
    );
}
