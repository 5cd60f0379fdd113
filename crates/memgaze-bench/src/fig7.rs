//! Figure 7: time overhead for memory tracing.
//!
//! Per-phase overhead of MemGaze (continuous PT, "suboptimal kernel
//! support") vs. MemGaze-opt (PT enabled only during samples), plus the
//! ptwrite-to-instruction ratio series that predicts the overhead. The
//! paper's bands: continuous typically 10–95% (Darknet 5×–7× from its
//! store rate); opt 10–35%, tracking the ptwrite execution rate.

use crate::scales::{App, Scales, KERNELS, NETWORKS, VARIANTS};
use crate::Output;
use memgaze_analysis::{fmt_pct, Table};
use memgaze_core::phase_profiles;
use memgaze_ptsim::{OverheadModel, PtMode, SamplerConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Fig7Row {
    benchmark: String,
    phase: String,
    continuous_overhead_pct: f64,
    opt_overhead_pct: f64,
    ptwrite_ratio: f64,
    loads: u64,
}

fn collect(name: &str, period: u64, app: App) -> Vec<Fig7Row> {
    // Opt-mode collection measures the true enabled fraction.
    let mut cfg = SamplerConfig::application(period);
    cfg.mode = PtMode::SampleOnly;
    let report = app.trace(name, &cfg);
    let enabled_frac = if report.stream.ptwrites_executed == 0 {
        0.0
    } else {
        report.stream.ptwrites_enabled as f64 / report.stream.ptwrites_executed as f64
    };

    let model = OverheadModel::default();
    let cont = phase_profiles(&report.phases, &model, PtMode::Continuous, 1.0);
    let opt = phase_profiles(&report.phases, &model, PtMode::SampleOnly, enabled_frac);

    cont.iter()
        .zip(&opt)
        .map(|(c, o)| Fig7Row {
            benchmark: name.to_string(),
            phase: c.phase.clone(),
            continuous_overhead_pct: 100.0 * c.overhead,
            opt_overhead_pct: 100.0 * o.overhead,
            ptwrite_ratio: c.ptwrite_ratio,
            loads: c.loads,
        })
        .collect()
}

pub(crate) fn run(sc: &Scales) -> Output {
    let mut rows: Vec<Fig7Row> = Vec::new();

    let apps = VARIANTS
        .map(|v| {
            (
                format!("miniVite-{}", v.label()),
                App::MiniVite(sc.minivite(v)),
            )
        })
        .into_iter()
        .chain(KERNELS.map(|k| (format!("GAP-{}", k.label()), App::Gap(sc.gap(k)))))
        .chain(NETWORKS.map(|n| (format!("Darknet-{}", n.label()), App::Darknet(n))));
    for (name, app) in apps {
        rows.extend(collect(&name, sc.app_period, app));
    }

    let mut table = Table::new(
        "Fig. 7: per-phase tracing overhead — MemGaze (continuous) vs. MemGaze-opt",
        &[
            "Benchmark",
            "Phase",
            "Cont. %",
            "Opt %",
            "ptw ratio",
            "Loads",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.benchmark.clone(),
            r.phase.clone(),
            fmt_pct(r.continuous_overhead_pct),
            fmt_pct(r.opt_overhead_pct),
            format!("{:.3}", r.ptwrite_ratio),
            r.loads.to_string(),
        ]);
    }
    println!("{}", table.render());

    // Shape summary.
    let worst = |darknet: bool| {
        rows.iter()
            .filter(|r| r.benchmark.starts_with("Darknet") == darknet)
            .map(|r| r.continuous_overhead_pct)
            .fold(0.0f64, f64::max)
    };
    println!(
        "continuous: graph benchmarks worst {:.0}% (paper: typically 10–95%); Darknet worst {:.0}% (paper: 5×–7× = 400–600%)",
        worst(false),
        worst(true)
    );
    let opt_max = rows
        .iter()
        .map(|r| r.opt_overhead_pct)
        .fold(0.0f64, f64::max);
    println!("opt: worst {:.0}% (paper: 10–35%)", opt_max);
    Output::new(&rows)
}
