//! Table IX, Fig. 8 & Fig. 9: the GAP case study — spatio-temporal reuse
//! of hot memory for PageRank (pr vs. pr-spmv) and Connected Components
//! (cc vs. cc-sv), heatmap distributions, and locality of hot access
//! intervals.
//!
//! Paper shapes: pr's D on `o-score` beats pr-spmv's; cc has *higher*
//! average D than cc-sv (outlier-driven) yet runs much faster; the Fig. 8
//! heatmaps show cc with fewer/smaller dark access bands; Fig. 9 plots
//! intra-sample locality vs. interval size.

use crate::scales::{Scales, KERNELS};
use crate::Output;
use memgaze_analysis::{fmt_f3, fmt_si, AnalysisConfig, Table};
use memgaze_core::trace_workload;
use memgaze_ptsim::SamplerConfig;
use memgaze_workloads::gap::{self, GapKernel};
use serde::Serialize;

#[derive(Serialize)]
struct Table9Row {
    object: String,
    algorithm: String,
    reuse_d: f64,
    max_d: u64,
    accesses: u64,
    accesses_per_block: f64,
    time_cost: u64,
}

#[derive(Serialize)]
struct Fig8Out {
    algorithm: String,
    access_dark_cells_50: usize,
    reuse_dark_cells_50: usize,
    access_total: f64,
}

#[derive(Serialize)]
struct Fig9Point {
    algorithm: String,
    interval: u64,
    mean_d: f64,
    mean_delta_f: f64,
}

#[derive(Serialize, Default)]
struct Out {
    table9: Vec<Table9Row>,
    fig8: Vec<Fig8Out>,
    fig9: Vec<Fig9Point>,
}

pub(crate) fn run(sc: &Scales) -> Output {
    let mut out = Out::default();

    for kernel in KERNELS {
        let cfg = sc.gap(kernel);
        let sampler = SamplerConfig::application(sc.app_period / 4);
        let (report, result) = trace_workload(&format!("GAP-{}", kernel.label()), &sampler, |s| {
            gap::run(s, &cfg)
        });
        let analyzer = report.analyzer(AnalysisConfig::default());

        let object = match kernel {
            GapKernel::Pr | GapKernel::PrSpmv => "o-score",
            GapKernel::Cc | GapKernel::CcSv => "cc",
        };
        if let Some((lo, hi)) = report.label_range(object) {
            let row = analyzer.region_row_for(lo, hi);
            out.table9.push(Table9Row {
                object: object.into(),
                algorithm: kernel.label().into(),
                reuse_d: row.reuse_d,
                max_d: row.max_d,
                accesses: row.accesses,
                accesses_per_block: row.accesses_per_block(),
                time_cost: result.abstract_cost,
            });

            // Fig. 8: heatmaps of the hot object for the CC variants.
            if matches!(kernel, GapKernel::Cc | GapKernel::CcSv) {
                let (acc, d) = analyzer.heatmaps((lo, hi), 24, 48);
                println!("Fig. 8 — {} access heatmap:", kernel.label());
                print!("{}", acc.render_ascii());
                out.fig8.push(Fig8Out {
                    algorithm: kernel.label().into(),
                    access_dark_cells_50: acc.dark_cells(0.5),
                    reuse_dark_cells_50: d.dark_cells(0.5),
                    access_total: acc.total(),
                });
            }
        }

        // Fig. 9: intra-sample locality vs. interval size.
        for p in analyzer.locality_series(&[16, 32, 64, 128, 256]) {
            out.fig9.push(Fig9Point {
                algorithm: kernel.label().into(),
                interval: p.interval,
                mean_d: p.mean_d,
                mean_delta_f: p.mean_delta_f,
            });
        }
    }

    let mut t9 = Table::new(
        "Table IX: GAP spatio-temporal reuse of hot memory (64 B block)",
        &[
            "Object",
            "Algorithm",
            "Reuse (D)",
            "Max D",
            "A",
            "A/block",
            "Time",
        ],
    );
    for r in &out.table9 {
        t9.push_row(vec![
            r.object.clone(),
            r.algorithm.clone(),
            fmt_f3(r.reuse_d),
            r.max_d.to_string(),
            fmt_si(r.accesses as f64),
            fmt_f3(r.accesses_per_block),
            fmt_si(r.time_cost as f64),
        ]);
    }
    let mut t_fig9 = Table::new(
        "Fig. 9: data locality of hot access intervals (intra-sample)",
        &["Algorithm", "Interval", "mean D", "mean dF"],
    );
    for p in &out.fig9 {
        t_fig9.push_row(vec![
            p.algorithm.clone(),
            p.interval.to_string(),
            fmt_f3(p.mean_d),
            fmt_f3(p.mean_delta_f),
        ]);
    }
    println!("{}", t_fig9.render());
    println!("{}", t9.render());

    // Shape summaries.
    let row = |alg: &str| out.table9.iter().find(|r| r.algorithm == alg);
    if let (Some(pr), Some(spmv)) = (row("pr"), row("pr-spmv")) {
        let (pr, spmv) = (pr.reuse_d, spmv.reuse_d);
        println!(
            "pr D {pr:.2} < pr-spmv D {spmv:.2}: {} (paper: 1.13 < 2.41)",
            pr < spmv
        );
    }
    if let (Some(cc), Some(sv)) = (row("cc"), row("cc-sv")) {
        let (cc, sv) = (cc.time_cost, sv.time_cost);
        println!(
            "cc time {cc} << cc-sv time {sv}: {} (paper: 2.7 s vs 45.5 s)",
            cc < sv
        );
    }
    if out.fig8.len() == 2 {
        println!(
            "Fig. 8: cc dark access cells {} vs cc-sv {} (paper: cc has fewer/smaller dark bands)",
            out.fig8[0].access_dark_cells_50, out.fig8[1].access_dark_cells_50
        );
    }
    Output::new(&out)
}
