//! Figure 6: validating sampled footprint access diagnostics.
//!
//! For every microbenchmark, compare metric histograms (F, F_str, F_irr
//! over power-of-2 windows) between sampled and full traces — the paper
//! reports trace-window MAPE < 25% and code-window error < 5%. For the
//! graph benchmarks, validate against 10×-denser sampling, as the paper
//! does (full traces of the graph benchmarks were infeasible).

use crate::scales::{App, Scales};
use crate::Output;
use memgaze_analysis::{
    compare_window_series, fmt_pct, footprint, pct_error, pow2_sizes, window_series, CodeWindows,
    MapeReport, Table,
};
use memgaze_core::{MemGaze, MicroReport, PipelineConfig};
use memgaze_model::{Access, BlockSize, SampledTrace, SymbolTable};
use memgaze_ptsim::SamplerConfig;
use memgaze_workloads::gap::GapKernel;
use memgaze_workloads::minivite::MapVariant;
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

/// Run `bench` under `cfg` and compare its sampled window series with
/// the full trace's over window `sizes`: the sampled report, the full
/// trace as one sample, and the MAPE of the sampled series.
pub(crate) fn sampled_vs_full(
    cfg: &PipelineConfig,
    bench: &MicroBench,
    sizes: &[u64],
) -> (MicroReport, SampledTrace, MapeReport) {
    let mg = MemGaze::new(cfg.clone());
    let report = mg.run_microbench(bench).expect("pipeline");
    let full = mg
        .microbench_ground_truth(bench)
        .expect("ground truth")
        .as_single_sample_trace();
    let fb = cfg.analysis.footprint_block;
    let annots = &report.instrumented.annots;
    let mape = compare_window_series(
        &window_series(&full, annots, fb, sizes),
        &window_series(&report.trace, annots, fb, sizes),
    );
    (report, full, mape)
}

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

impl Fig6Row {
    fn new(bench: String, mape: MapeReport, code_err_f: f64) -> Fig6Row {
        Fig6Row {
            bench,
            trace_mape_f: mape.f,
            trace_mape_fstr: mape.f_str,
            trace_mape_firr: mape.f_irr,
            code_err_f,
            windows_compared: mape.points,
        }
    }
}

/// Code-window error of `function`: the mean per-window footprint of its
/// accesses in `sampled` against `base`, both chunked at `sampled`'s
/// mean window size.
fn code_err(
    sampled: (&SampledTrace, &SymbolTable),
    base: (&SampledTrace, &SymbolTable),
    function: &str,
    fb: BlockSize,
) -> f64 {
    let chunk = sampled.0.mean_window().max(8.0) as usize;
    let cw_s = CodeWindows::build(sampled.0, sampled.1);
    let cw_b = CodeWindows::build(base.0, base.1);
    match (cw_s.function(function), cw_b.function(function)) {
        (Some(s), Some(b)) => pct_error(
            chunked_footprint(b, chunk, fb),
            chunked_footprint(s, chunk, fb),
        ),
        _ => f64::NAN,
    }
}

/// Microbenchmark validation: sampled vs. perfect full trace. Code
/// windows aggregate the kernel's accesses over all samples.
fn micro_row(bench: &MicroBench, cfg: &PipelineConfig) -> Fig6Row {
    let (report, full_trace, mape) = sampled_vs_full(cfg, bench, &pow2_sizes(4, 9));
    let symbols = &report.instrumented.orig_symbols;
    let fb = cfg.analysis.footprint_block;
    let code_err = code_err(
        (&report.trace, symbols),
        (&full_trace, symbols),
        "kernel",
        fb,
    );
    Fig6Row::new(bench.name(), mape, code_err)
}

/// Graph-benchmark validation: sampled vs. 10×-denser sampling. Code
/// windows compare the hottest function at a matched window size.
fn graph_row(name: &str, period: u64, app: App) -> Fig6Row {
    let sparse_cfg = SamplerConfig::application(period);
    let mut dense_cfg = SamplerConfig::application(period / 10);
    dense_cfg.seed = sparse_cfg.seed + 1;
    let sparse = app.trace(name, &sparse_cfg);
    let dense = app.trace(name, &dense_cfg);

    let sizes = pow2_sizes(4, 8);
    let fb = BlockSize::WORD;
    let s_series = window_series(&sparse.trace, &sparse.annots, fb, &sizes);
    let d_series = window_series(&dense.trace, &dense.annots, fb, &sizes);
    let mape = compare_window_series(&d_series, &s_series);

    let sparse_analyzer = sparse.analyzer(Default::default());
    let code_err = sparse_analyzer
        .function_table()
        .first()
        .map_or(f64::NAN, |hottest| {
            code_err(
                (&sparse.trace, &sparse.symbols),
                (&dense.trace, &dense.symbols),
                &hottest.name,
                fb,
            )
        });
    Fig6Row::new(name.to_string(), mape, code_err)
}

pub(crate) fn run(sc: &Scales) -> Output {
    let mut rows = Vec::new();

    // Microbenchmarks (suite at O3, as Fig. 6's bulk).
    let cfg = sc.micro_pipeline();
    for bench in suite(OptLevel::O3) {
        let bench = MicroBench::new(UKernelSpec {
            elems: sc.micro_elems,
            reps: sc.micro_reps,
            ..bench.spec
        });
        rows.push(micro_row(&bench, &cfg));
    }

    // Graph benchmarks, validated against 10× denser sampling.
    let mv = App::MiniVite(sc.minivite(MapVariant::V1));
    rows.push(graph_row("miniVite-O3-v1", sc.app_period, mv));
    for kernel in [GapKernel::Pr, GapKernel::Cc] {
        let name = format!("GAP-{}-O3", kernel.label());
        rows.push(graph_row(&name, sc.app_period, App::Gap(sc.gap(kernel))));
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
    println!("{}", table.render());

    let worst = rows.iter().map(|r| r.trace_mape_f).fold(0.0f64, f64::max);
    println!(
        "worst trace-window footprint MAPE: {:.1}% (paper band: 1–25%)",
        worst
    );
    Output::new(&rows)
}
