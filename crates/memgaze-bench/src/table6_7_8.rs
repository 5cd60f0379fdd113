//! Tables VI, VII & VIII: the Darknet case study — gemm/im2col locality,
//! reuse of the hot matrices, and locality over time.
//!
//! Paper shapes: gemm dominates footprint (>90%) with F_str% = 100;
//! ResNet-152's footprint dwarfs AlexNet's; reuse distance D rises over
//! time as gemm's N shrinks; ResNet's ΔF declines over time while
//! AlexNet's varies with its heterogeneous layers.

use crate::scales::{App, Scales, NETWORKS};
use crate::Output;
use memgaze_analysis::{fmt_f3, fmt_pct, fmt_si, AnalysisConfig, Table};
use memgaze_ptsim::SamplerConfig;
use serde::Serialize;

#[derive(Serialize, Default)]
struct Out {
    table6: Vec<(String, String, f64, f64, f64, f64)>,
    table7: Vec<(String, String, f64, u64, u64, f64)>,
    table8: Vec<(usize, String, f64, f64, f64, f64)>,
}

/// Darknet runs at its own sampler setting, whatever the scale.
pub(crate) fn run(_: &Scales) -> Output {
    let mut out = Out::default();

    for net in NETWORKS {
        let mut sampler = SamplerConfig::application(20_000);
        sampler.seed = 11;
        let report = App::Darknet(net).trace(&format!("Darknet-{}", net.label()), &sampler);
        let analyzer = report.analyzer(AnalysisConfig::default());

        for row in analyzer.function_table() {
            if ["gemm", "im2col"].contains(&row.name.as_str()) {
                out.table6.push((
                    row.name.clone(),
                    net.label().into(),
                    row.f_hat_bytes,
                    row.delta_f,
                    row.f_str_pct,
                    row.accesses_decompressed,
                ));
            }
        }

        // Table VII: reuse of the hot matrices (gemm's A/B/C regions and
        // im2col's input region).
        for (label, object) in [
            ("gemm-B", "gemm's B"),
            ("gemm-A", "gemm's A"),
            ("gemm-C", "gemm's C"),
            ("image", "hot region in im2col"),
        ] {
            if let Some((lo, hi)) = report.label_range(label) {
                let row = analyzer.region_row_for(lo, hi);
                if row.accesses > 0 {
                    out.table7.push((
                        object.into(),
                        net.label().into(),
                        row.reuse_d,
                        row.blocks,
                        row.accesses,
                        row.accesses_per_block(),
                    ));
                }
            }
        }

        for row in analyzer.interval_rows(8) {
            out.table8.push((
                row.interval,
                net.label().into(),
                row.f_hat_bytes,
                row.delta_f,
                row.mean_d,
                row.accesses_decompressed,
            ));
        }
    }

    let mut t6 = Table::new(
        "Table VI: Darknet data locality of hot function accesses",
        &["Function", "Model", "F", "dF", "Fstr%", "A"],
    );
    for (f, m, fh, df, fs, a) in &out.table6 {
        t6.push_row(vec![
            f.clone(),
            m.clone(),
            fmt_si(*fh),
            fmt_f3(*df),
            fmt_pct(*fs),
            fmt_si(*a),
        ]);
    }
    let mut t7 = Table::new(
        "Table VII: Darknet spatio-temporal reuse of hot memory (64 B block)",
        &["Object", "Model", "Reuse (D)", "#blocks", "A", "A/block"],
    );
    for (o, m, d, b, a, apb) in &out.table7 {
        t7.push_row(vec![
            o.clone(),
            m.clone(),
            fmt_f3(*d),
            b.to_string(),
            fmt_si(*a as f64),
            fmt_f3(*apb),
        ]);
    }
    let mut t8 = Table::new(
        "Table VIII: Darknet/gemm data locality over time (8 access intervals)",
        &["Interval", "Model", "F", "dF", "D", "A"],
    );
    for (i, m, f, df, d, a) in &out.table8 {
        t8.push_row(vec![
            i.to_string(),
            m.clone(),
            fmt_si(*f),
            fmt_f3(*df),
            fmt_f3(*d),
            fmt_si(*a),
        ]);
    }
    println!("{}", t6.render());
    println!("{}", t7.render());
    println!("{}", t8.render());

    // Shape summaries.
    let gemm_all_strided = out
        .table6
        .iter()
        .filter(|r| r.0 == "gemm")
        .all(|r| (r.4 - 100.0).abs() < 1e-9);
    println!("gemm F_str% = 100 for both models: {gemm_all_strided}");
    let d_trend = |model: &str| -> (f64, f64) {
        let rows: Vec<&(usize, String, f64, f64, f64, f64)> =
            out.table8.iter().filter(|r| r.1 == model).collect();
        let first: f64 = rows[..4].iter().map(|r| r.4).sum();
        let last: f64 = rows[4..].iter().map(|r| r.4).sum();
        (first, last)
    };
    for m in ["AlexNet", "ResNet152"] {
        let (a, b) = d_trend(m);
        println!(
            "{m}: D rises over time: {:.2} → {:.2} ({})",
            a / 4.0,
            b / 4.0,
            b > a
        );
    }
    Output::new(&out)
}
