//! Module-wide load classification.
//!
//! Runs the per-procedure data-dependence analysis of `memgaze-isa` over
//! every procedure of a load module and tables the result in instruction-
//! address order, attaching the addressing-mode literals the annotation file
//! needs (paper §III-A: "The literals are extracted, keyed by instruction
//! address, and placed in the auxiliary annotation file").

use memgaze_isa::module::{INSTR_BYTES, PROC_ALIGN};
use memgaze_isa::verify::check_structure;
use memgaze_isa::{
    AbsInterp, AbsResult, AddrKind, BlockId, DataflowAnalysis, Instr, LoadModule, ModuleAbsInterp,
    ModuleFacts, ProcId,
};
use memgaze_model::{Ip, LoadClass};

/// Classification and addressing facts for one static load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassifiedLoad {
    /// Original instruction address.
    pub ip: Ip,
    /// Which procedure/block/index it lives at.
    pub proc: memgaze_isa::ProcId,
    /// Containing basic block.
    pub block: memgaze_isa::BlockId,
    /// Instruction index within the block body.
    pub idx: usize,
    /// Final static class: the dataflow answer, upgraded where the
    /// abstract interpreter proved something strictly more regular.
    pub kind: AddrKind,
    /// Raw data-dependence classification, before any upgrade.
    pub dataflow_kind: AddrKind,
    /// What the abstract interpreter proved about the address.
    pub absint: AbsResult,
    /// The absint proof collapsed to a load class (`None` = no proof).
    pub absint_class: Option<LoadClass>,
    /// Literal scale factor `k`.
    pub scale: u8,
    /// Literal displacement `o`.
    pub disp: i64,
    /// Number of source registers (1 or 2; 0 for globals).
    pub num_sources: usize,
    /// Source line of the containing block.
    pub src_line: u32,
}

impl ClassifiedLoad {
    /// The trace-model load class.
    pub fn class(&self) -> LoadClass {
        self.kind.to_load_class()
    }

    /// True when the absint proof upgraded the dataflow classification.
    pub fn upgraded(&self) -> bool {
        self.kind != self.dataflow_kind
    }
}

/// Regularity rank: higher classes compress better and may be elided or
/// implied rather than traced.
pub(crate) fn regularity(c: LoadClass) -> u8 {
    match c {
        LoadClass::Constant => 2,
        LoadClass::Strided => 1,
        LoadClass::Irregular => 0,
    }
}

/// Fuse the two oracles: take the absint class only when it is strictly
/// more regular than the dataflow answer. Both analyses are sound, so a
/// *more* regular proof subsumes a conservative "irregular"; a *less*
/// regular absint verdict (e.g. `ProvenIrregular` against a dataflow
/// `Strided`) would indicate a bug and is surfaced by the differential
/// lint pass instead of silently downgrading here.
fn fuse(dataflow: AddrKind, absint: AbsResult, absint_class: Option<LoadClass>) -> AddrKind {
    let Some(ac) = absint_class else {
        return dataflow;
    };
    if regularity(ac) <= regularity(dataflow.to_load_class()) {
        return dataflow;
    }
    match ac {
        LoadClass::Constant => AddrKind::Constant,
        LoadClass::Strided => AddrKind::Strided {
            // `Strided` absint class only arises from a nonzero proven
            // stride, so this is always present.
            stride: absint.stride().unwrap_or(0),
        },
        LoadClass::Irregular => dataflow,
    }
}

/// Classification of every load in a module, in address order.
///
/// The analysis visits procedures, blocks and instructions in layout
/// order, which is address order, so the table is sorted by `ip` as
/// built: the `k`-th entry is the `k`-th load a walk over the module
/// meets. The planner, the rewriter and the checker read it by that
/// position; [`get`](Self::get) is a binary search.
#[derive(Debug, Clone, Default)]
pub struct ModuleClassification {
    loads: Vec<ClassifiedLoad>,
}

impl ModuleClassification {
    /// Analyze all procedures of `module`: interprocedural summaries
    /// first, then per-procedure dataflow and abstract interpretation,
    /// fused per load. A module the structural pass rejects
    /// ([`check_structure`]) has no CFGs or layout to analyze over: it
    /// is classified without proofs, every load Irregular.
    pub fn analyze(module: &LoadModule) -> ModuleClassification {
        if check_structure(module).is_err() {
            return Self::unproven(module);
        }
        Self::analyze_with(module, &ModuleFacts::build(module))
    }

    /// Every load of `module` Irregular, with no proof, at the address a
    /// walk of the procedures and blocks in table order lays it out at;
    /// `proc` and `block` are those table positions. Reads nothing the
    /// structural pass checks, so any module classifies.
    fn unproven(module: &LoadModule) -> ModuleClassification {
        let mut loads = Vec::with_capacity(module.num_loads());
        let mut base = module.base_ip;
        for (p, proc) in module.procs.iter().enumerate() {
            base = base.next_multiple_of(PROC_ALIGN);
            for (b, block) in proc.blocks.iter().enumerate() {
                for (idx, ins) in block.instrs.iter().enumerate() {
                    if let Instr::Load { addr, .. } = ins {
                        loads.push(ClassifiedLoad {
                            ip: Ip(base + idx as u64 * INSTR_BYTES),
                            proc: ProcId(p as u32),
                            block: BlockId(b as u32),
                            idx,
                            kind: AddrKind::Irregular,
                            dataflow_kind: AddrKind::Irregular,
                            absint: AbsResult::Unknown,
                            absint_class: None,
                            scale: addr.scale,
                            disp: addr.disp,
                            num_sources: addr.num_sources(),
                            src_line: block.src_line,
                        });
                    }
                }
                base += block.len() as u64 * INSTR_BYTES;
            }
        }
        ModuleClassification { loads }
    }

    /// [`analyze`](Self::analyze) over facts the caller already built
    /// from `module`.
    pub(crate) fn analyze_with(module: &LoadModule, facts: &ModuleFacts) -> ModuleClassification {
        let _span = memgaze_obs::span("pipeline.classify");
        let layout = facts.layout();
        let mai = ModuleAbsInterp::analyze(module, facts);
        let mut loads = Vec::with_capacity(module.num_loads());
        for proc in &module.procs {
            let df = DataflowAnalysis::analyze_in(proc, facts.forest(proc.id), mai.summaries());
            let ai = mai.proc(proc.id);
            for block in &proc.blocks {
                for (idx, ins) in block.instrs.iter().enumerate() {
                    if let Instr::Load { addr, .. } = ins {
                        let dataflow_kind = df
                            .load_kind(block.id, idx)
                            .expect("load must have a classification");
                        let absint = ai
                            .load_result(block.id, idx)
                            .expect("load must have an absint result");
                        let absint_class = AbsInterp::proven_class(absint, addr);
                        loads.push(ClassifiedLoad {
                            ip: layout.ip_of(proc.id, block.id, idx),
                            proc: proc.id,
                            block: block.id,
                            idx,
                            kind: fuse(dataflow_kind, absint, absint_class),
                            dataflow_kind,
                            absint,
                            absint_class,
                            scale: addr.scale,
                            disp: addr.disp,
                            num_sources: addr.num_sources(),
                            src_line: block.src_line,
                        });
                    }
                }
            }
        }
        ModuleClassification { loads }
    }

    /// The classification of the load at `ip`; `None` for any address
    /// that is not a load's (another instruction, a terminator, padding,
    /// unaligned or outside the module).
    pub fn get(&self, ip: Ip) -> Option<&ClassifiedLoad> {
        let at = self.loads.binary_search_by_key(&ip, |l| l.ip).ok()?;
        self.loads.get(at)
    }

    /// All classified loads in address order.
    pub fn loads(&self) -> impl Iterator<Item = &ClassifiedLoad> + '_ {
        self.loads.iter()
    }

    /// The same, as the table the planner, rewriter and checker index
    /// by load position.
    pub(crate) fn as_slice(&self) -> &[ClassifiedLoad] {
        &self.loads
    }

    /// Number of static loads.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// True if the module has no loads.
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_isa::codegen::{self, Compose, OptLevel, Pattern, UKernelSpec};

    #[test]
    fn classifies_generated_kernel() {
        let m = codegen::generate(&UKernelSpec {
            compose: Compose::Single(Pattern::Irregular),
            elems: 32,
            reps: 1,
            opt: OptLevel::O0,
        });
        let c = ModuleClassification::analyze(&m);
        assert!(!c.is_empty());
        let mut constant = 0;
        let mut strided = 0;
        let mut irregular = 0;
        for l in c.loads() {
            match l.kind {
                AddrKind::Constant => constant += 1,
                AddrKind::Strided { .. } => strided += 1,
                AddrKind::Irregular => irregular += 1,
            }
        }
        // O0 irregular kernel: index load (strided), data load (irregular),
        // plus frame reloads (constant).
        assert!(constant >= 1, "constants: {constant}");
        assert!(strided >= 1, "strided: {strided}");
        assert!(irregular >= 1, "irregular: {irregular}");
    }

    #[test]
    fn two_source_loads_flagged() {
        let m = codegen::generate(&UKernelSpec {
            compose: Compose::Single(Pattern::strided(1)),
            elems: 16,
            reps: 1,
            opt: OptLevel::O3,
        });
        let c = ModuleClassification::analyze(&m);
        // Strided loads use base+index addressing: two sources.
        let strided: Vec<_> = c
            .loads()
            .filter(|l| matches!(l.kind, AddrKind::Strided { .. }))
            .collect();
        assert!(!strided.is_empty());
        assert!(strided.iter().all(|l| l.num_sources == 2));
        assert!(strided.iter().all(|l| l.scale == 8));
    }

    #[test]
    fn lookup_by_ip_matches_layout() {
        let m = codegen::generate(&UKernelSpec {
            compose: Compose::Single(Pattern::strided(2)),
            elems: 16,
            reps: 1,
            opt: OptLevel::O3,
        });
        let c = ModuleClassification::analyze(&m);
        let layout = m.layout();
        for l in c.loads() {
            assert_eq!(layout.locate(l.ip), Some((l.proc, l.block, l.idx)));
        }
    }
}
