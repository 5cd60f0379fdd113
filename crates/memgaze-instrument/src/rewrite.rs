//! Binary rewriting: `ptwrite` insertion and map/annotation emission.
//!
//! For each load the plan marks, a `ptwrite` per source register is
//! inserted *before* the load ("ptwrites should precede loads, because the
//! source address can be overwritten when r_d = r_s", paper §III-A). The
//! rewritten instruction stream is no longer aligned with the original
//! source mapping, so a [`SourceMap`] records, for every new instruction,
//! the original address and line (§III-D); a `ptw_map` additionally ties
//! each inserted `ptwrite` to the load it instruments so the decoder can
//! reconstruct effective addresses from payloads plus annotation literals.

use crate::classify::ModuleClassification;
use crate::plan::InstrPlan;
use crate::{InstrStats, InstrumentConfig};
use memgaze_isa::{AddrKind, Instr, LoadModule, Procedure};
use memgaze_model::symbols::{SourceLoc, SourceMap};
use memgaze_model::{AuxAnnotations, FunctionId, Ip, IpAnnot, IpTable, SymbolTable};
use serde::{Deserialize, Serialize};

/// Role of one `ptwrite` within its load's address reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PtwRole {
    /// Payload is the base register value.
    Base,
    /// Payload is the (unscaled) index register value.
    Index,
}

/// Decoder-facing record for one inserted `ptwrite`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PtwInfo {
    /// Original address of the instrumented load.
    pub load_ip: Ip,
    /// Which address component the payload carries.
    pub role: PtwRole,
    /// Whether this is the final `ptwrite` of the load's group (the
    /// decoder completes the effective address on it).
    pub last: bool,
}

/// Output of instrumentation: the new executable plus its side tables.
#[derive(Debug, Clone)]
pub struct Instrumented {
    /// The rewritten load module.
    pub module: LoadModule,
    /// Auxiliary annotations, keyed by *original* load address.
    pub annots: AuxAnnotations,
    /// New-instruction → original address/line mapping.
    pub source_map: SourceMap,
    /// New `ptwrite` address → reconstruction info, in address order.
    pub ptw_map: IpTable<PtwInfo>,
    /// Static statistics.
    pub stats: InstrStats,
    /// Symbol table of the *original* module (analyses attribute to
    /// original code).
    pub orig_symbols: SymbolTable,
}

impl Instrumented {
    /// `module` as it is, with empty side tables: no load is
    /// instrumented, and each counts as an irregular one. What
    /// [`Instrumenter::instrument`](crate::Instrumenter::instrument)
    /// answers for a module the structural pass rejects.
    pub(crate) fn unrewritten(module: &LoadModule) -> Instrumented {
        let stats = InstrStats {
            irregular_loads: module.num_loads() as u64,
            blocks: module.procs.iter().map(|p| p.blocks.len() as u64).sum(),
            ..InstrStats::default()
        };
        Instrumented {
            module: module.clone(),
            annots: AuxAnnotations::new(),
            source_map: SourceMap::new(),
            ptw_map: IpTable::new(),
            stats,
            orig_symbols: SymbolTable::new(),
        }
    }
}

/// Apply `plan` to `module`, producing the instrumented module and maps.
///
/// The walk meets the loads in address order, the order `classification`
/// and `plan` table them in, so load `k` of the walk reads entry `k` of
/// both; the side tables come out in address order too and are built in
/// one pass each.
///
/// # Panics
/// Panics if `classification` or `plan` was not built from `module`.
pub(crate) fn apply(
    module: &LoadModule,
    classification: &ModuleClassification,
    plan: &InstrPlan,
    config: &InstrumentConfig,
) -> Instrumented {
    let _span = memgaze_obs::span("pipeline.rewrite");
    let (classified, planned) = (classification.as_slice(), plan.as_slice());
    assert!(
        classified.len() == module.num_loads() && planned.len() == classified.len(),
        "tables of another module: {} classified and {} planned loads, module has {}",
        classified.len(),
        planned.len(),
        module.num_loads()
    );
    let orig_layout = module.layout();
    let mut stats = InstrStats::default();

    let mut new_module = LoadModule::new(module.name.clone());
    new_module.data = module.data.clone();
    new_module.base_ip = module.base_ip;
    new_module.data_break = module.data_break;

    let inserted: usize = classified
        .iter()
        .zip(planned)
        .filter(|(_, (_, decision))| decision.instrument)
        .map(|(cl, _)| cl.num_sources)
        .sum();
    // One row per emitted instruction, in emission order: where it came
    // from. The new addresses are resolved once the new layout exists.
    let mut emitted: Vec<SourceLoc> = Vec::with_capacity(module.num_instrs() + inserted);
    // Inserted `ptwrite`s: row number in `emitted`, and what they carry.
    let mut ptws: Vec<(usize, PtwInfo)> = Vec::with_capacity(inserted);
    let mut annots: Vec<(Ip, IpAnnot)> = Vec::with_capacity(classified.len());
    let mut next_load = classified.iter().zip(planned);

    for proc in &module.procs {
        let in_roi = config.in_roi(&proc.name);
        let mut blocks = Vec::with_capacity(proc.blocks.len());
        stats.blocks += proc.blocks.len() as u64;

        for block in &proc.blocks {
            // Room for the block's instructions and the `ptwrite`s its
            // loads get.
            let loads = block.instrs.iter().filter(|ins| ins.is_load()).count();
            let ptwrites: usize = next_load
                .clone()
                .take(loads)
                .filter(|(_, (_, decision))| decision.instrument)
                .map(|(cl, _)| cl.num_sources)
                .sum();
            let mut instrs = Vec::with_capacity(block.instrs.len() + ptwrites);
            let line = block.src_line;

            for (idx, ins) in block.instrs.iter().enumerate() {
                let orig_ip = orig_layout.ip_of(proc.id, block.id, idx);
                if let Instr::Load { addr, .. } = ins {
                    let (cl, (_, decision)) = next_load.next().expect("length checked above");
                    debug_assert_eq!(cl.ip, orig_ip, "tables are in walk order");
                    if in_roi {
                        match cl.kind {
                            AddrKind::Constant => stats.constant_loads += 1,
                            AddrKind::Strided { .. } => stats.strided_loads += 1,
                            AddrKind::Irregular => stats.irregular_loads += 1,
                        }
                    }
                    // Record the annotation for every load (observed or
                    // implied) so analyses know classes and literals.
                    let mut a = IpAnnot::of_class(cl.class(), FunctionId(proc.id.0));
                    a.implied_const = decision.implied_const;
                    a.scale = cl.scale;
                    a.offset = cl.disp;
                    a.two_source = cl.num_sources == 2;
                    a.src_line = cl.src_line;
                    annots.push((orig_ip, a));

                    stats.elided_loads += u64::from(decision.elided);
                    if decision.instrument {
                        stats.instrumented_loads += 1;
                        let sources = [(addr.base, PtwRole::Base), (addr.index, PtwRole::Index)];
                        let mut left = addr.num_sources();
                        for (src, role) in sources {
                            let Some(src) = src else { continue };
                            left -= 1;
                            let info = PtwInfo {
                                load_ip: orig_ip,
                                role,
                                last: left == 0,
                            };
                            ptws.push((emitted.len(), info));
                            instrs.push(Instr::Ptwrite { src });
                            emitted.push(SourceLoc { orig_ip, line });
                        }
                    }
                }
                instrs.push(*ins);
                emitted.push(SourceLoc { orig_ip, line });
            }
            // Terminator keeps its original mapping.
            emitted.push(SourceLoc {
                orig_ip: orig_layout.ip_of(proc.id, block.id, block.instrs.len()),
                line,
            });

            blocks.push(memgaze_isa::BasicBlock {
                id: block.id,
                instrs,
                term: block.term,
                src_line: block.src_line,
            });
        }

        new_module.add_proc(Procedure {
            id: proc.id,
            name: proc.name.clone(),
            blocks,
            entry: proc.entry,
            src_file: proc.src_file.clone(),
        });
    }
    stats.ptwrites_inserted = ptws.len() as u64;

    // Resolve new addresses: row `r` of `emitted` is the `r`-th
    // instruction of the new layout.
    let new_ips: Vec<Ip> = new_module.layout().instr_ips().collect();
    debug_assert_eq!(new_ips.len(), emitted.len());
    let ptw_map = ptws
        .into_iter()
        .map(|(row, info)| (new_ips[row], info))
        .collect();
    let source_map = new_ips.into_iter().zip(emitted).collect();

    Instrumented {
        module: new_module,
        annots: annots.into_iter().collect(),
        source_map,
        ptw_map,
        stats,
        orig_symbols: orig_layout.symbol_table(module),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instrumenter;
    use memgaze_isa::codegen::{self, Compose, OptLevel, Pattern, UKernelSpec};
    use memgaze_isa::interp::{Machine, NullSink, VecSink};

    fn spec(compose: Compose, opt: OptLevel) -> UKernelSpec {
        UKernelSpec {
            compose,
            elems: 64,
            reps: 2,
            opt,
        }
    }

    #[test]
    fn instrumented_module_preserves_semantics() {
        let m = codegen::generate(&spec(Compose::Single(Pattern::Irregular), OptLevel::O0));
        let out = Instrumenter::default().instrument(&m);
        let main = m.find_proc("main").unwrap();

        let mut orig = Machine::new(&m, VecSink::default());
        orig.run(main, 10_000_000).unwrap();
        let mut inst = Machine::new(&out.module, VecSink::default());
        inst.run(main, 10_000_000).unwrap();

        // Same load stream (ips differ; addresses and count equal).
        let a: Vec<u64> = orig.into_sink().loads.iter().map(|l| l.1).collect();
        let b: Vec<u64> = inst.into_sink().loads.iter().map(|l| l.1).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn ptwrites_precede_their_loads() {
        let m = codegen::generate(&spec(Compose::Single(Pattern::strided(2)), OptLevel::O3));
        let out = Instrumenter::default().instrument(&m);
        // Every ptwrite's following non-ptwrite instruction in its block
        // is the instrumented load.
        for p in &out.module.procs {
            for b in &p.blocks {
                for (i, ins) in b.instrs.iter().enumerate() {
                    if ins.is_ptwrite() {
                        let next_load = b.instrs[i + 1..]
                            .iter()
                            .find(|x| !x.is_ptwrite())
                            .expect("ptwrite must be followed by its load");
                        assert!(next_load.is_load());
                    }
                }
            }
        }
    }

    #[test]
    fn source_map_covers_all_new_instructions() {
        let m = codegen::generate(&spec(Compose::Single(Pattern::strided(1)), OptLevel::O0));
        let out = Instrumenter::default().instrument(&m);
        let layout = out.module.layout();
        let orig_layout = m.layout();
        for p in &out.module.procs {
            for b in &p.blocks {
                for idx in 0..b.len() {
                    let ip = layout.ip_of(p.id, b.id, idx);
                    let loc = out.source_map.resolve(ip).expect("mapped");
                    // The original ip must exist in the original module.
                    assert!(orig_layout.locate(loc.orig_ip).is_some());
                }
            }
        }
    }

    #[test]
    fn ptw_map_grouping_is_consistent() {
        let m = codegen::generate(&spec(Compose::Single(Pattern::Irregular), OptLevel::O3));
        let out = Instrumenter::default().instrument(&m);
        // For each load, exactly one `last` ptwrite; Base comes before
        // Index in address order within a group.
        let mut by_load: std::collections::HashMap<Ip, Vec<(Ip, PtwInfo)>> =
            std::collections::HashMap::new();
        for (ip, info) in out.ptw_map.iter() {
            by_load.entry(info.load_ip).or_default().push((*ip, *info));
        }
        for (load_ip, group) in by_load {
            let lasts = group.iter().filter(|(_, i)| i.last).count();
            assert_eq!(lasts, 1, "load {load_ip} has {lasts} last ptwrites");
            if group.len() == 2 {
                assert_eq!(group[0].1.role, PtwRole::Base);
                assert_eq!(group[1].1.role, PtwRole::Index);
                assert!(group[1].1.last);
            }
        }
    }

    #[test]
    fn annotations_cover_every_load() {
        let m = codegen::generate(&spec(
            Compose::Conditional {
                first: Pattern::strided(1),
                second: Pattern::Irregular,
                likelihood: 50,
            },
            OptLevel::O0,
        ));
        let out = Instrumenter::default().instrument(&m);
        let classification = ModuleClassification::analyze(&m);
        assert_eq!(out.annots.len(), classification.len());
        for cl in classification.loads() {
            let a = out.annots.get(cl.ip).expect("annotated");
            assert_eq!(a.class, cl.class());
            assert_eq!(a.scale, cl.scale);
            assert_eq!(a.offset, cl.disp);
        }
    }

    #[test]
    fn o0_compresses_about_2x_statically() {
        let m = codegen::generate(&spec(Compose::Single(Pattern::strided(1)), OptLevel::O0));
        let out = Instrumenter::default().instrument(&m);
        let k = out.stats.static_kappa();
        assert!((1.5..=2.5).contains(&k), "O0 static κ = {k}");

        let m3 = codegen::generate(&spec(Compose::Single(Pattern::strided(1)), OptLevel::O3));
        let out3 = Instrumenter::default().instrument(&m3);
        let k3 = out3.stats.static_kappa();
        assert!((1.0..=1.4).contains(&k3), "O3 static κ = {k3}");
        assert!(k > k3, "O0 must compress more than O3");
    }

    #[test]
    fn roi_limits_ptwrites_to_kernel() {
        let m = codegen::generate(&spec(Compose::Single(Pattern::strided(1)), OptLevel::O0));
        let out = Instrumenter::new(InstrumentConfig::with_roi(["kernel"])).instrument(&m);
        let layout = out.module.layout();
        let kernel = out.module.find_proc("kernel").unwrap();
        for ip in out.ptw_map.keys() {
            let (p, _, _) = layout.locate(*ip).unwrap();
            assert_eq!(p, kernel, "ptwrite outside ROI at {ip}");
        }
        // The instrumented module still runs.
        let main = out.module.find_proc("main").unwrap();
        let mut mach = Machine::new(&out.module, NullSink);
        mach.run(main, 10_000_000).unwrap();
    }

    #[test]
    fn uncompressed_emits_more_ptwrites() {
        let m = codegen::generate(&spec(Compose::Single(Pattern::strided(1)), OptLevel::O0));
        let comp = Instrumenter::default().instrument(&m);
        let unc = Instrumenter::new(InstrumentConfig::uncompressed()).instrument(&m);
        assert!(unc.stats.ptwrites_inserted > comp.stats.ptwrites_inserted);
        assert!(unc.stats.instrumented_loads >= comp.stats.instrumented_loads);
    }
}
