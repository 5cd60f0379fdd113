//! Ablations of MemGaze's design choices.
//!
//! 1. **Buffer yield factor** (the kernel async-fill artifact, §VI):
//!    how snapshot yield changes sample windows and footprint-MAPE.
//! 2. **Compact 32-bit PTW payloads** (§VI-B1 future work): trace bytes
//!    and estimated overhead vs. full 64-bit payloads.
//! 3. **Load-based vs. time-based trigger** (§III-C footnote): sampling
//!    bias on a two-phase stream whose load rate changes.
//! 4. **Strided `ptwrite` suppression** (§VI-B1: "additional compression
//!    that reduces ptwrites for Strided loads"): overhead saved by
//!    emitting one packet per four strided loads.
//! 5. **Zoom hot threshold `t%`** (§IV-C2: "The stopping threshold is
//!    also important"): leaf count and hot coverage across thresholds.

use crate::fig6::sampled_vs_full;
use crate::scales::{App, Scales};
use crate::Output;
use memgaze_analysis::{pow2_sizes, AnalysisConfig, Table, ZoomConfig};
use memgaze_core::WorkloadReport;
use memgaze_model::Ip;
use memgaze_ptsim::{OverheadModel, RunProfile, SamplerConfig, StreamSampler, TimeStreamSampler};
use memgaze_workloads::minivite::{MapVariant, MiniViteConfig};
use memgaze_workloads::ubench::{MicroBench, OptLevel};
use serde::Serialize;

#[derive(Serialize, Default)]
struct Out {
    yield_factor: Vec<(f64, f64, f64)>, // (yield, mean window, MAPE F)
    payload: Vec<(String, u64, f64)>,   // (mode, bytes, overhead)
    trigger_bias: Vec<(String, f64)>,   // (trigger, slow-phase fraction)
    strided_suppression: Vec<(String, f64)>, // (mode, overhead)
    zoom_threshold: Vec<(f64, usize, f64)>, // (t%, leaves, top-leaf pct)
}

fn ablate_yield(out: &mut Out, sc: &Scales) {
    let bench = MicroBench::parse("str2|irr", sc.micro_elems, 20, OptLevel::O3).unwrap();
    let sizes = pow2_sizes(4, 8);
    for yf in [0.25, 0.55, 1.0] {
        let mut cfg = sc.micro_pipeline();
        cfg.sampler.yield_factor = yf;
        let (report, _, mape) = sampled_vs_full(&cfg, &bench, &sizes);
        out.yield_factor
            .push((yf, report.trace.mean_window(), mape.f));
    }
}

/// miniVite with one Louvain iteration, traced under `sampler`.
fn minivite_once(sc: &Scales, variant: MapVariant, sampler: &SamplerConfig) -> WorkloadReport {
    let cfg = MiniViteConfig {
        iterations: 1,
        ..sc.minivite(variant)
    };
    App::MiniVite(cfg).trace("mv", sampler)
}

fn ablate_payload(out: &mut Out, sc: &Scales) {
    for (label, compact) in [("64-bit", false), ("32-bit", true)] {
        let mut cfg = sc.app_sampler();
        cfg.compact_payloads = compact;
        let report = minivite_once(sc, MapVariant::V1, &cfg);
        let bytes = report.stream.packets.generated_bytes(compact);
        // Overhead: copy term scales with bytes.
        let prof = RunProfile {
            instrs: report.phases.iter().map(|p| p.counters.instrs).sum(),
            loads: report.stream.total_loads,
            stores: report.phases.iter().map(|p| p.counters.stores).sum(),
            ptwrites_executed: report.stream.ptwrites_executed,
            ptwrites_enabled: report.stream.ptwrites_enabled,
            bytes_generated: bytes,
        };
        out.payload.push((
            label.to_string(),
            bytes,
            OverheadModel::default().estimate(&prof).overhead(),
        ));
    }
}

fn ablate_trigger(out: &mut Out) {
    // Two-phase stream: dense (1 cycle/load, region A) then sparse
    // (10 cycles/load, region B), equal load counts.
    let n = 200_000u64;
    let feed = |f: &mut dyn FnMut(Ip, u64, u64)| {
        for t in 0..n {
            f(Ip(0x400), 0x10_0000 + (t % 512) * 64, 1);
        }
        for t in 0..n {
            f(Ip(0x404), 0x80_0000 + (t % 512) * 64, 10);
        }
    };
    let frac_slow = |trace: &memgaze_model::SampledTrace| {
        let total = trace.observed_accesses().max(1);
        let b = trace
            .accesses()
            .filter(|a| a.addr.raw() >= 0x80_0000)
            .count() as u64;
        b as f64 / total as f64
    };

    let mut cfg = SamplerConfig::application(20_000);
    cfg.buffer_bytes = 2 << 10;
    let mut tt = TimeStreamSampler::new(cfg.clone());
    let mut lt = StreamSampler::new(SamplerConfig {
        period: 20_000 * 2 / 11,
        ..cfg
    });
    feed(&mut |ip, a, c| tt.on_load(ip, a, true, 1, c));
    feed(&mut |ip, a, _| lt.on_load(ip, a, true, 1));
    let (t_trace, _) = tt.finish("time");
    let (l_trace, _) = lt.finish("loads");
    out.trigger_bias
        .push(("load-based".into(), frac_slow(&l_trace)));
    out.trigger_bias
        .push(("time-based".into(), frac_slow(&t_trace)));
}

fn ablate_strided_suppression(out: &mut Out, sc: &Scales) {
    // Measure a strided-heavy workload, then estimate the overhead with
    // 3 of every 4 strided ptwrites suppressed (reconstructable from the
    // stride annotation).
    // Hopscotch (v3): strided probes dominate.
    let report = minivite_once(sc, MapVariant::V3, &sc.app_sampler());
    let strided_frac = {
        let total = report.trace.observed_accesses().max(1);
        let strided = report
            .trace
            .accesses()
            .filter(|a| report.annots.class_of(a.ip) == memgaze_model::LoadClass::Strided)
            .count() as u64;
        strided as f64 / total as f64
    };
    let base_prof = RunProfile {
        instrs: report.phases.iter().map(|p| p.counters.instrs).sum(),
        loads: report.stream.total_loads,
        stores: report.phases.iter().map(|p| p.counters.stores).sum(),
        ptwrites_executed: report.stream.ptwrites_executed,
        ptwrites_enabled: report.stream.ptwrites_executed,
        bytes_generated: report.stream.ptwrites_executed * 10,
    };
    let model = OverheadModel::default();
    out.strided_suppression
        .push(("full".into(), model.estimate(&base_prof).overhead()));
    // Suppress 75% of strided ptwrites (and their bytes).
    let kept = |n: u64| -> u64 {
        let strided = (n as f64 * strided_frac) as u64;
        n - strided * 3 / 4
    };
    let mut supp = base_prof;
    supp.ptwrites_executed = kept(base_prof.ptwrites_executed);
    supp.ptwrites_enabled = supp.ptwrites_executed;
    supp.bytes_generated = supp.ptwrites_executed * 10;
    supp.instrs = base_prof.base_instrs() + supp.ptwrites_executed;
    out.strided_suppression
        .push(("strided/4".into(), model.estimate(&supp).overhead()));
}

fn ablate_zoom_threshold(out: &mut Out, sc: &Scales) {
    let report = minivite_once(sc, MapVariant::V2, &sc.app_sampler());
    for t in [2.0, 10.0, 40.0] {
        let acfg = AnalysisConfig {
            zoom: ZoomConfig {
                hot_threshold_pct: t,
                ..ZoomConfig::default()
            },
            ..AnalysisConfig::default()
        };
        let analyzer = report.analyzer(acfg);
        let rows = analyzer.region_rows();
        let top_pct = rows.first().map(|r| r.pct_of_total).unwrap_or(0.0);
        out.zoom_threshold.push((t, rows.len(), top_pct));
    }
}

pub(crate) fn run(sc: &Scales) -> Output {
    let mut out = Out::default();
    ablate_yield(&mut out, sc);
    ablate_payload(&mut out, sc);
    ablate_trigger(&mut out);
    ablate_strided_suppression(&mut out, sc);
    ablate_zoom_threshold(&mut out, sc);

    let mut t = Table::new("Ablations", &["Knob", "Setting", "Result"]);
    for (yf, w, m) in &out.yield_factor {
        t.push_row(vec![
            "buffer yield".into(),
            format!("{yf:.2}"),
            format!("window {w:.0}, MAPE F {m:.1}%"),
        ]);
    }
    for (mode, bytes, ov) in &out.payload {
        t.push_row(vec![
            "PTW payload".into(),
            mode.clone(),
            format!("{bytes} B generated, overhead {:.0}%", ov * 100.0),
        ]);
    }
    for (mode, frac) in &out.trigger_bias {
        t.push_row(vec![
            "trigger".into(),
            mode.clone(),
            format!("slow-phase sample fraction {frac:.2} (stream is 0.50)"),
        ]);
    }
    for (mode, ov) in &out.strided_suppression {
        t.push_row(vec![
            "strided ptwrites".into(),
            mode.clone(),
            format!("overhead {:.0}%", ov * 100.0),
        ]);
    }
    for (th, leaves, top) in &out.zoom_threshold {
        t.push_row(vec![
            "zoom t%".into(),
            format!("{th:.0}"),
            format!("{leaves} leaves, hottest covers {top:.1}%"),
        ]);
    }
    println!("{}", t.render());
    Output::new(&out)
}
