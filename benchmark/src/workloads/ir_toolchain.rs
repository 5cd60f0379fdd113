//! `ir_toolchain`: the only workload where `isa`, `instrument` and the
//! `ptsim` packet/decoder path do the work (Table II's Instrument
//! column, and the microbenchmark validation path). A round builds,
//! lints and instruments two synthetic load modules — a GAP-size and a
//! miniVite-size binary — under the default and the eliding planner,
//! then runs the microbenchmark suite at O0 and O3 through
//! `MemGaze::run_microbench` and analyzes each trace.

use super::{digest_of, ensure, self_time_by_layer, RoundOutcome, Workload};
use crate::inputs::{self, derive_seed, Scale};
use crate::metrics::Metrics;
use crate::span::{Layer, Recorder};
use crate::timing::median;
use memgaze_core::{MemGaze, MicroReport, PipelineConfig};
use memgaze_instrument::{
    lint_module, InstrStats, InstrumentConfig, Instrumenter, ModuleClassification,
};
use memgaze_isa::interp::{Machine, NullSink};
use memgaze_isa::{AddrKind, LoadModule};
use memgaze_model::LoadClass;
use memgaze_workloads::ubench::{self, Compose, MicroBench, OptLevel, Pattern, UKernelSpec};
use std::collections::{BTreeMap, HashSet};

/// Interpreter step budget of the probe's bare run.
const MAX_INSTRS: u64 = 2_000_000_000;

struct ModuleRef {
    procs: usize,
    seed: u64,
    default: InstrStats,
    eliding: InstrStats,
}

struct BenchRef {
    bench: MicroBench,
    /// Loads the original module executes, from the ground-truth run.
    loads: u64,
    /// Digest of the function table and region rows.
    digest: u64,
}

pub struct IrToolchain {
    pipeline: MemGaze,
    modules: Vec<ModuleRef>,
    benches: Vec<BenchRef>,
    /// `ptwrite` packets the last round's collections generated.
    last_packets: u64,
    /// Bytes of the modules instrumented in one round, and instructions
    /// the probe's bare interpreter runs execute.
    module_bytes: u64,
    probe_instrs: u64,
}

fn instrument(module: &LoadModule, eliding: bool) -> InstrStats {
    let cfg = if eliding {
        InstrumentConfig::eliding()
    } else {
        InstrumentConfig::default()
    };
    Instrumenter::new(cfg).instrument(module).stats
}

fn report_digest(report: &MicroReport, pipeline: &MemGaze, rec: &mut Recorder) -> u64 {
    let analyzer = report.analyzer(pipeline.config().analysis);
    let functions = rec.span(Layer::Analysis, "function_table", |_| {
        analyzer.function_table()
    });
    let regions = rec.span(Layer::Analysis, "region_rows", |_| analyzer.region_rows());
    digest_of(&(functions, regions))
}

/// `str*` kernels must classify Strided only, `irr` ones must have an
/// Irregular load: the spec is the oracle for the classifier.
fn classified_as_spec(report: &MicroReport, spec: &UKernelSpec) -> bool {
    let patterns: Vec<Pattern> = match &spec.compose {
        Compose::Single(p) => vec![*p],
        Compose::Serial(ps) => ps.clone(),
        Compose::Conditional { first, second, .. } => vec![*first, *second],
    };
    let wants_irregular = patterns.contains(&Pattern::Irregular);
    let Some(kernel) = report.instrumented.orig_symbols.find_by_name("kernel") else {
        return false;
    };
    let classes: Vec<LoadClass> = report
        .instrumented
        .annots
        .iter()
        .filter(|(_, a)| a.func == kernel)
        .map(|(_, a)| a.class)
        .collect();
    classes.contains(&LoadClass::Strided)
        && classes.contains(&LoadClass::Irregular) == wants_irregular
}

impl IrToolchain {
    pub fn setup(seed: u64, scale: Scale) -> Result<IrToolchain, String> {
        let sizes = scale.sizes();
        let mut cfg = PipelineConfig::microbench();
        cfg.sampler.seed = derive_seed(seed, 8);
        let pipeline = MemGaze::new(cfg);

        let mut modules = Vec::new();
        let mut module_bytes = 0;
        for (i, &procs) in sizes.module_procs.iter().enumerate() {
            let seed = derive_seed(seed, 9 + i as u64);
            let module = inputs::synthetic_module(procs, seed);
            module_bytes += module.binary_size_bytes();
            ensure(
                !lint_module(&module, &InstrumentConfig::default()).has_errors(),
                "synthetic module lints clean",
            )?;
            let default = instrument(&module, false);
            // The classifier, asked directly, must count what the
            // instrumentor's statistics say it saw.
            let mut counts = [0u64; 3];
            for load in ModuleClassification::analyze(&module).loads() {
                counts[match load.kind {
                    AddrKind::Constant => 0,
                    AddrKind::Strided { .. } => 1,
                    AddrKind::Irregular => 2,
                }] += 1;
            }
            ensure(
                counts
                    == [
                        default.constant_loads,
                        default.strided_loads,
                        default.irregular_loads,
                    ]
                    && default.total_loads() == module.num_loads() as u64,
                "instrumentor statistics == classifier counts",
            )?;
            modules.push(ModuleRef {
                procs,
                seed,
                default,
                eliding: instrument(&module, true),
            });
        }

        let mut benches = Vec::new();
        let mut rec = Recorder::new(false);
        for opt in [OptLevel::O0, OptLevel::O3] {
            for base in ubench::suite(opt) {
                let bench = MicroBench::new(UKernelSpec {
                    elems: sizes.ubench_elems,
                    reps: sizes.ubench_reps,
                    ..base.spec
                });
                let report = pipeline.run_microbench(&bench).map_err(|e| e.to_string())?;
                let truth = pipeline
                    .microbench_ground_truth(&bench)
                    .map_err(|e| e.to_string())?;
                let executed: HashSet<(u64, u64, u64)> = truth
                    .accesses
                    .iter()
                    .map(|a| (a.time, a.ip.raw(), a.addr.raw()))
                    .collect();
                ensure(
                    report.trace.meta.total_loads == truth.meta.total_loads
                        && report.trace.observed_accesses() > 0
                        && report
                            .trace
                            .accesses()
                            .all(|a| executed.contains(&(a.time, a.ip.raw(), a.addr.raw()))),
                    "sampled accesses are a subset of the ground-truth trace",
                )?;
                ensure(
                    classified_as_spec(&report, &bench.spec),
                    "microbenchmark kernel classified as its spec says",
                )?;
                benches.push(BenchRef {
                    loads: truth.meta.total_loads,
                    digest: report_digest(&report, &pipeline, &mut rec),
                    bench,
                });
            }
        }
        Ok(IrToolchain {
            pipeline,
            modules,
            benches,
            last_packets: 0,
            module_bytes,
            probe_instrs: 0,
        })
    }
}

impl Workload for IrToolchain {
    fn round(&mut self, rec: &mut Recorder) -> RoundOutcome {
        let mut out = RoundOutcome::default();
        for m in &self.modules {
            let (lint_errors, default, eliding) = out.op(|| {
                let module = rec.span(Layer::Isa, "build_module", |_| {
                    inputs::synthetic_module(m.procs, m.seed)
                });
                let lint = rec.span(Layer::Instrument, "lint_module", |_| {
                    lint_module(&module, &InstrumentConfig::default())
                });
                let default = rec.span(Layer::Instrument, "instrument", |_| {
                    instrument(&module, false)
                });
                let eliding = rec.span(Layer::Instrument, "instrument", |_| {
                    instrument(&module, true)
                });
                (lint.has_errors(), default, eliding)
            });
            out.verify(!lint_errors && default == m.default && eliding == m.eliding);
        }
        let mut packets = 0;
        for b in &self.benches {
            let digest = out.op(|| {
                let report = rec.span(Layer::Core, "run_microbench", |_| {
                    self.pipeline.run_microbench(&b.bench)
                });
                report.ok().map(|r| {
                    packets += r.run.packets.ptw_packets;
                    (
                        r.trace.meta.total_loads,
                        report_digest(&r, &self.pipeline, rec),
                    )
                })
            });
            out.verify(digest == Some((b.loads, b.digest)));
        }
        self.last_packets = packets;
        out
    }

    fn loads_per_round(&self) -> u64 {
        self.benches.iter().map(|b| b.loads).sum()
    }

    fn trace_bytes_per_round(&self) -> u64 {
        // The IR path's trace is its packet stream: 8-byte payloads.
        self.last_packets * 8
    }

    fn digest(&self) -> u64 {
        digest_of(&self.benches.iter().map(|b| b.digest).collect::<Vec<_>>())
    }

    fn probe(&mut self, rec: &mut Recorder) -> Result<(), String> {
        // `run_microbench` taken apart: the same four steps, one span
        // each, plus a bare interpreter run to separate the interpreter
        // from the packet path it feeds.
        self.probe_instrs = 0;
        let sampler = &self.pipeline.config().sampler;
        for b in &self.benches {
            let module = rec.span(Layer::Isa, "codegen", |_| b.bench.module());
            let inst = rec.span(Layer::Instrument, "instrument_ubench", |_| {
                Instrumenter::default().instrument(&module)
            });
            let main = inst.module.find_proc("main").ok_or("no main procedure")?;
            let exec = rec
                .span(Layer::Isa, "interp_bare", |_| {
                    Machine::new(&inst.module, NullSink).run(main, MAX_INSTRS)
                })
                .map_err(|e| e.to_string())?;
            self.probe_instrs += exec.instrs;
            rec.span(Layer::Ptsim, "collect_sampled", |_| {
                memgaze_ptsim::collect_sampled(&inst, main, sampler.clone(), &b.bench.name())
                    .map(|(trace, _, _)| trace.num_samples())
            })
            .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn attribute(&self, rec: &Recorder) -> BTreeMap<Layer, f64> {
        // Split the `run_microbench` calls the way the probe's four
        // steps split: codegen and the bare interpreter are `isa`,
        // collection beyond the bare interpreter is `ptsim`.
        let mut by_layer = self_time_by_layer(rec);
        let sum = |name| rec.per_round(name).iter().sum::<f64>();
        let (codegen, instr, interp, collect) = (
            sum("codegen"),
            sum("instrument_ubench"),
            sum("interp_bare"),
            sum("collect_sampled"),
        );
        let whole = codegen + instr + collect;
        if whole > 0.0 {
            let composite = by_layer.insert(Layer::Core, 0.0).unwrap_or(0.0);
            let packet_path = (collect - interp).max(0.0);
            for (layer, part) in [
                (Layer::Isa, codegen + interp.min(collect)),
                (Layer::Instrument, instr),
                (Layer::Ptsim, packet_path),
            ] {
                *by_layer.entry(layer).or_insert(0.0) += composite * part / whole;
            }
        }
        by_layer
    }

    fn layer_metrics(&self, rec: &Recorder, m: &mut Metrics) {
        let instrument_s = median(&rec.per_round("instrument"));
        m.set("isa.build_s", median(&rec.per_round("build_module")));
        m.set("instrument.lint_s", median(&rec.per_round("lint_module")));
        m.set("instrument.instrument_s", instrument_s);
        // Each module is instrumented twice a round (default, eliding).
        m.set(
            "instrument.kb_per_s",
            2.0 * self.module_bytes as f64 / 1024.0 / instrument_s,
        );
        let total: u64 = self.modules.iter().map(|r| r.default.total_loads()).sum();
        let sum = |f: fn(&ModuleRef) -> u64| self.modules.iter().map(f).sum::<u64>() as f64;
        m.set("instrument.loads_classified", total as f64);
        m.set(
            "instrument.ptwrites_inserted",
            sum(|r| r.default.ptwrites_inserted),
        );
        m.set(
            "instrument.instrumented_share",
            sum(|r| r.default.instrumented_loads) / total as f64,
        );
        m.set(
            "instrument.elided_share",
            sum(|r| r.eliding.elided_loads) / total as f64,
        );

        let interp = median(&rec.per_round("interp_bare"));
        m.set("isa.codegen_s", median(&rec.per_round("codegen")));
        m.set("isa.interp_s", interp);
        m.set("isa.instrs_per_s", self.probe_instrs as f64 / interp);
        m.set(
            "ptsim.collect_sampled_s",
            median(&rec.per_round("collect_sampled")),
        );
        m.set("ptsim.packets", self.last_packets as f64);
    }
}
