//! BENCH_lint: static verification + differential classification check
//! over every generated module.
//!
//! Runs the lint pass (IR verifier, abstract-interpretation differential
//! against the fused classifier, instrumentation-plan checker) on the
//! full O0/O3 microbenchmark suites, a set of synthetic
//! application-shaped modules, and four absint showcase workloads
//! (spilled IV, nested loops, interprocedural summaries, masked index).
//! Records the oracle agreement rate and — the acceptance bars — that
//! there are zero unsound disagreements, zero error-severity
//! diagnostics, and that eliding proven-strided loads measurably
//! shrinks the instrumentation plan; per-module lint times go to the
//! timing file.

use crate::scales::Scales;
use crate::{timed, Output};
use memgaze_analysis::Table;
use memgaze_instrument::{
    lint_and_instrument, InstrPlan, InstrumentConfig, LintArtifacts, ModuleClassification,
};
use memgaze_isa::codegen::{self, OptLevel};
use memgaze_isa::{LoadModule, Severity};
use memgaze_workloads::modules::{
    call_graph_module, masked_index_module, nested_loop_module, spilled_iv_module, synthetic_module,
};
use serde::Serialize;

#[derive(Serialize)]
struct LintRow {
    module: String,
    loads: u64,
    agree: u64,
    absint_unknown: u64,
    upgraded: u64,
    lost_compression: u64,
    unsound: u64,
    errors: usize,
    warnings: usize,
}

#[derive(Serialize)]
struct LintTiming {
    module: String,
    lint_ms: f64,
}

/// Differential totals plus the headline ratio CI gates on.
#[derive(Serialize)]
struct TotalSummary {
    loads: u64,
    agree: u64,
    absint_unknown: u64,
    upgraded: u64,
    lost_compression: u64,
    unsound: u64,
    /// `agree / loads` — the precision ratchet.
    agreement: f64,
}

/// Instrumentation-plan impact of the proven-stride elision, summed over
/// every module: how many loads the baseline plan instruments, how many
/// survive with elision on, and the estimated trace-byte saving (each
/// `ptwrite` packet costs 9 bytes, one per source register).
#[derive(Serialize, Default)]
struct InstrImpact {
    base_instrumented: u64,
    elision_instrumented: u64,
    elided: u64,
    base_trace_bytes: u64,
    elision_trace_bytes: u64,
    /// Fractional trace-byte reduction from elision.
    reduction: f64,
}

#[derive(Serialize)]
struct Payload {
    rows: Vec<LintRow>,
    total: TotalSummary,
    instr: InstrImpact,
    total_errors: usize,
    total_warnings: usize,
}

fn modules(sc: &Scales) -> Vec<(String, LoadModule)> {
    let mut out = Vec::new();
    for opt in [OptLevel::O0, OptLevel::O3] {
        for spec in codegen::standard_suite(opt, sc.micro_elems, sc.micro_reps) {
            let m = codegen::generate(&spec);
            out.push((m.name.clone(), m));
        }
    }
    for (procs, loads) in [(4usize, 9usize), (16, 12), (64, 9), (256, 12)] {
        let m = synthetic_module(procs, loads);
        out.push((m.name.clone(), m));
    }
    for m in [
        spilled_iv_module(sc.micro_elems),
        nested_loop_module(64, sc.micro_elems / 64),
        call_graph_module(sc.micro_elems),
        masked_index_module(sc.micro_elems.next_power_of_two()),
    ] {
        out.push((m.name.clone(), m));
    }
    out
}

/// Estimated trace bytes for one plan: 9 bytes per inserted `ptwrite`
/// packet, one packet per source register of each instrumented load.
fn trace_bytes(classification: &ModuleClassification, plan: &InstrPlan) -> u64 {
    plan.iter()
        .filter(|(_, d)| d.instrument)
        .map(|(ip, _)| {
            let cl = classification.get(*ip).expect("classified");
            cl.num_sources as u64 * 9
        })
        .sum()
}

pub(crate) fn run(sc: &Scales) -> Output {
    let config = InstrumentConfig::default();
    let mut rows = Vec::new();
    let mut times = Vec::new();
    let mut total = memgaze_instrument::DiffSummary::default();
    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    let mut instr = InstrImpact::default();

    for (name, module) in modules(sc) {
        let (lint_ms, (report, artifacts)) = timed(|| lint_and_instrument(&module, &config));
        let errors = report.count(Severity::Error);
        let warnings = report.count(Severity::Warning);
        for d in &report.diagnostics {
            eprintln!("{d}");
        }
        total.merge(&report.differential);
        total_errors += errors;
        total_warnings += warnings;

        // The lint pass classified and planned the module (unless it is
        // structurally broken, which the assertion below reports); the
        // eliding plan is the one thing it did not build.
        if let Some(LintArtifacts {
            classification,
            plan: base,
            ..
        }) = artifacts
        {
            let elide = InstrPlan::build(&module, &classification, &InstrumentConfig::eliding());
            instr.base_instrumented += base.num_instrumented();
            instr.elision_instrumented += elide.num_instrumented();
            instr.elided += elide.num_elided();
            instr.base_trace_bytes += trace_bytes(&classification, &base);
            instr.elision_trace_bytes += trace_bytes(&classification, &elide);
        }

        let d = report.differential;
        times.push(LintTiming {
            module: name.clone(),
            lint_ms,
        });
        rows.push(LintRow {
            module: name,
            loads: d.loads,
            agree: d.agree,
            absint_unknown: d.absint_unknown,
            upgraded: d.upgraded,
            lost_compression: d.lost_compression,
            unsound: d.unsound,
            errors,
            warnings,
        });
    }
    instr.reduction = if instr.base_trace_bytes == 0 {
        0.0
    } else {
        1.0 - instr.elision_trace_bytes as f64 / instr.base_trace_bytes as f64
    };

    let mut table = Table::new(
        "BENCH_lint: verifier + differential classification check",
        &[
            "Module", "loads", "agree", "unknown", "upgr", "lost", "unsound", "err", "warn", "ms",
        ],
    );
    for (r, t) in rows.iter().zip(&times) {
        table.push_row(vec![
            r.module.clone(),
            r.loads.to_string(),
            r.agree.to_string(),
            r.absint_unknown.to_string(),
            r.upgraded.to_string(),
            r.lost_compression.to_string(),
            r.unsound.to_string(),
            r.errors.to_string(),
            r.warnings.to_string(),
            format!("{:.2}", t.lint_ms),
        ]);
    }

    let payload = Payload {
        total: TotalSummary {
            loads: total.loads,
            agree: total.agree,
            absint_unknown: total.absint_unknown,
            upgraded: total.upgraded,
            lost_compression: total.lost_compression,
            unsound: total.unsound,
            agreement: total.agreement_rate(),
        },
        instr,
        total_errors,
        total_warnings,
        rows,
    };
    println!("{}", table.render());
    println!(
        "agreement {:.3} over {} loads ({} upgraded); {} unsound, {} errors; \
         elision drops instrumented {} → {} ({:.1}% trace bytes)",
        payload.total.agreement,
        payload.total.loads,
        payload.total.upgraded,
        payload.total.unsound,
        total_errors,
        payload.instr.base_instrumented,
        payload.instr.elision_instrumented,
        payload.instr.reduction * 100.0
    );
    assert_eq!(
        payload.total.unsound, 0,
        "unsound differential disagreement"
    );
    assert_eq!(total_errors, 0, "error-severity lint diagnostics");
    Output::new(&payload).with_timing(&times)
}
