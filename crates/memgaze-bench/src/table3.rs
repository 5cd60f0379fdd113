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

use crate::scales::{App, Scales, NETWORKS};
use crate::Output;
use memgaze_analysis::Table;
use memgaze_core::{full_trace_workload, trace_workload, MemGaze};
use memgaze_instrument::{InstrumentConfig, Instrumenter, ModuleClassification};
use memgaze_model::{io, DecompressionInfo};
use memgaze_ptsim::{collect_full, BandwidthModel};
use memgaze_workloads::gap::GapKernel;
use memgaze_workloads::minivite::MapVariant;
use memgaze_workloads::ubench::{MicroBench, OptLevel};
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

impl Table3Row {
    fn new(benchmark: String, sizes: [u64; 4], kappa: f64) -> Table3Row {
        let [rec_bytes, all_bytes, all_plus_bytes, memgaze_bytes] = sizes;
        let pct = |of: u64| {
            if of == 0 {
                0.0
            } else {
                100.0 * memgaze_bytes as f64 / of as f64
            }
        };
        Table3Row {
            benchmark,
            rec_bytes,
            all_bytes,
            all_plus_bytes,
            memgaze_bytes,
            ratio_rec_pct: pct(rec_bytes),
            ratio_all_pct: pct(all_bytes),
            ratio_all_plus_pct: pct(all_plus_bytes),
            kappa,
        }
    }
}

/// Four trace sizes of one workload; `o0_extra > 0` emulates O0.
fn workload_row(name: &str, sc: &Scales, o0_extra: u32, app: App) -> Table3Row {
    let (rec, _) = full_trace_workload(name, Some(BandwidthModel::default()), true, |s| {
        s.set_o0_extra(o0_extra);
        app.run(s)
    });
    let (all, _) = full_trace_workload(name, None, true, |s| {
        s.set_o0_extra(o0_extra);
        app.run(s)
    });
    let (sampled, _) = trace_workload(name, &sc.app_sampler(), |s| {
        s.set_o0_extra(o0_extra);
        app.run(s)
    });

    let all_bytes = io::full_size_bytes(&all.trace);
    let kappa = DecompressionInfo::from_trace(&sampled.trace, &sampled.annots).kappa();
    let sizes = [
        io::full_size_bytes(&rec.trace),
        all_bytes,
        (all_bytes as f64 * kappa) as u64,
        io::sampled_size_bytes(&sampled.trace),
    ];
    Table3Row::new(name.to_string(), sizes, kappa)
}

/// Microbenchmark sizes on the IR path: real Rec/All/All⁺ collections.
fn micro_row(name: &str, opt: OptLevel, sc: &Scales) -> Table3Row {
    let bench = MicroBench::parse(name, sc.micro_elems, sc.micro_reps, opt).expect("bench");
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

    let report = MemGaze::new(sc.micro_pipeline())
        .run_microbench(&bench)
        .unwrap();
    let sizes = [
        io::full_size_bytes(&rec),
        io::full_size_bytes(&all),
        io::full_size_bytes(&all_plus),
        io::sampled_size_bytes(&report.trace),
    ];
    let kappa = DecompressionInfo::from_trace(&report.trace, &report.instrumented.annots).kappa();
    Table3Row::new(format!("{}-{}", name, opt.suffix()), sizes, kappa)
}

pub(crate) fn run(sc: &Scales) -> Output {
    let mut rows = Vec::new();

    for opt in [OptLevel::O0, OptLevel::O3] {
        rows.push(micro_row("str2|irr", opt, sc));
    }

    for (variant, o0) in [
        (MapVariant::V1, 0u32),
        (MapVariant::V1, 1),
        (MapVariant::V2, 0),
        (MapVariant::V3, 0),
    ] {
        let label = format!(
            "miniVite-{}-{}",
            if o0 > 0 { "O0" } else { "O3" },
            variant.label()
        );
        rows.push(workload_row(
            &label,
            sc,
            o0,
            App::MiniVite(sc.minivite(variant)),
        ));
    }

    for kernel in [
        GapKernel::Cc,
        GapKernel::CcSv,
        GapKernel::Pr,
        GapKernel::PrSpmv,
    ] {
        for o0 in [1u32, 0] {
            let label = format!(
                "GAP-{}-{}",
                kernel.label(),
                if o0 > 0 { "O0" } else { "O3" }
            );
            rows.push(workload_row(&label, sc, o0, App::Gap(sc.gap(kernel))));
        }
    }

    for net in NETWORKS {
        let label = format!("Darknet-{}", net.label());
        rows.push(workload_row(&label, sc, 0, App::Darknet(net)));
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
    println!("{}", table.render());

    let o0 = rows.iter().find(|r| r.benchmark.contains("O0-v1")).unwrap();
    let o3 = rows.iter().find(|r| r.benchmark.contains("O3-v1")).unwrap();
    println!(
        "compression: O0 kappa {:.2} (paper ≈2), O3 kappa {:.2} (paper ≈1.2); sampled/All ratios {:.2}% / {:.2}%",
        o0.kappa, o3.kappa, o0.ratio_all_pct, o3.ratio_all_pct
    );
    Output::new(&rows)
}
