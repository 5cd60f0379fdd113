//! IR/module verifier with structured diagnostics.
//!
//! The trace-compression story (paper §III-B, κ in Table III) hinges on
//! the *correctness* of static load classification and rewriting: a load
//! misclassified as Constant is silently dropped from the trace and
//! corrupts every downstream metric. This module is the independent
//! correctness layer: a set of verification passes over [`LoadModule`]s
//! producing typed [`Diagnostic`]s instead of stringly errors —
//!
//! * **structural** — proc/block id density, entry range, terminator and
//!   call targets (the old `validate()` checks, now typed), and the
//!   alignment of the module's `base_ip`;
//! * **CFG well-formedness** — succ/pred symmetry of the built
//!   [`Cfg`](crate::cfg::Cfg), entry reachability (orphan blocks);
//! * **def-before-use** — a forward must-be-defined dataflow pass over
//!   registers (arguments `r0..r5`, `fp`, and `sp` are defined at entry);
//! * **layout** — `ip_of`↔`locate` round-trip for every instruction,
//!   rejection of inter-procedure padding-gap and unaligned addresses;
//! * **data/symbols** — data-region overlap, code/data range overlap,
//!   `data_break` consistency, symbol-range sanity.
//!
//! Every pass after the structural one borrows one [`ModuleFacts`], built
//! once the structural pass found no error. The instrumentation-plan and
//! differential-classification lints build on these ids from
//! `memgaze-instrument::lint`.

use crate::facts::ModuleFacts;
use crate::instr::Instr;
use crate::module::{LoadModule, ModuleLayout, INSTR_BYTES, PROC_ALIGN};
use crate::proc::{BlockId, ProcId, Procedure};
use crate::reg::{Reg, NUM_REGS};
use memgaze_model::Ip;
use serde::{Deserialize, Serialize};

/// Every lint the verifier, differential pass, and plan checker can emit.
///
/// Ids are stable: mutation tests and CI gates key on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LintId {
    // --- structural (V0xx) ---
    /// A procedure's id does not equal its index in the module.
    ProcIdMismatch,
    /// A block's id does not equal its index in the procedure.
    BlockIdMismatch,
    /// The entry block id is out of range.
    EntryOutOfRange,
    /// A terminator targets a block id out of range.
    TermTargetOutOfRange,
    /// A call names a procedure the module does not contain.
    CallTargetMissing,
    // --- CFG (C1xx) ---
    /// A block is unreachable from the procedure entry.
    UnreachableBlock,
    /// Successor/predecessor lists of the built CFG disagree.
    CfgAsymmetry,
    /// A register is read on a path where it was never written.
    UseBeforeDef,
    // --- layout (L2xx) ---
    /// `locate(ip_of(site))` did not return the site.
    LocateRoundTrip,
    /// `locate` resolved an inter-procedure padding-gap address.
    GapAttribution,
    /// `locate` resolved an address not aligned to an instruction.
    UnalignedResolved,
    /// A procedure base is not aligned to `PROC_ALIGN`.
    ProcBaseUnaligned,
    // --- data/symbols (D3xx) ---
    /// Two initialized data regions overlap.
    DataOverlap,
    /// A data region overlaps the module's code address range.
    CodeDataOverlap,
    /// `data_break` lies below the end of an allocated region.
    DataBreakBehind,
    /// Symbol ranges overlap or fail to cover their procedure.
    SymbolRangeBad,
    // --- differential classification (A4xx) ---
    /// Classified Constant, but abstract interpretation proves a nonzero
    /// per-iteration address stride (unsound compression).
    UnsoundConstant,
    /// Classified Strided, but abstract interpretation proves the address
    /// does not follow that class (unsound classification).
    UnsoundStrided,
    /// Both oracles prove a definite stride and the values disagree.
    StrideMismatch,
    /// Abstract interpretation proves a strictly more regular class than
    /// the classifier assigned (lost compression).
    LostCompression,
    // --- instrumentation plan / rewrite (P5xx) ---
    /// A planned load has fewer `ptwrite`s than its source-register count.
    MissingPtwrite,
    /// A load has more `ptwrite`s than its source-register count, or a
    /// non-instrumented load has any.
    DuplicatePtwrite,
    /// A `ptw_map` entry does not point at a `ptwrite` instruction, or a
    /// `ptwrite` instruction has no `ptw_map` entry.
    OrphanPtwrite,
    /// A `ptwrite` group has a bad Base/Index order or `last` marking.
    PtwriteGroupOrder,
    /// Two new instructions map back to the same original instruction.
    RemapNotInjective,
    /// Original-address order is not preserved by the rewrite mapping.
    RemapOrderViolation,
    /// A new instruction has no source-map entry.
    SourceMapMissing,
    /// A source-map entry points at an address outside the original module.
    SourceMapDangling,
    /// Per-block implied-Constant accounting does not reconcile with the
    /// block's load count.
    ImpliedCountMismatch,
    /// An annotation is missing or disagrees with the classification.
    AnnotationMismatch,
    /// `InstrStats` counters disagree with the classification or plan.
    StatsMismatch,
}

impl LintId {
    /// Stable short code, grouped by pass family.
    pub fn code(self) -> &'static str {
        match self {
            LintId::ProcIdMismatch => "V001",
            LintId::BlockIdMismatch => "V002",
            LintId::EntryOutOfRange => "V003",
            LintId::TermTargetOutOfRange => "V004",
            LintId::CallTargetMissing => "V005",
            LintId::UnreachableBlock => "C101",
            LintId::CfgAsymmetry => "C102",
            LintId::UseBeforeDef => "C103",
            LintId::LocateRoundTrip => "L201",
            LintId::GapAttribution => "L202",
            LintId::UnalignedResolved => "L203",
            LintId::ProcBaseUnaligned => "L204",
            LintId::DataOverlap => "D301",
            LintId::CodeDataOverlap => "D302",
            LintId::DataBreakBehind => "D303",
            LintId::SymbolRangeBad => "D304",
            LintId::UnsoundConstant => "A401",
            LintId::UnsoundStrided => "A402",
            LintId::StrideMismatch => "A403",
            LintId::LostCompression => "A404",
            LintId::MissingPtwrite => "P501",
            LintId::DuplicatePtwrite => "P502",
            LintId::OrphanPtwrite => "P503",
            LintId::PtwriteGroupOrder => "P504",
            LintId::RemapNotInjective => "P505",
            LintId::RemapOrderViolation => "P506",
            LintId::SourceMapMissing => "P507",
            LintId::SourceMapDangling => "P508",
            LintId::ImpliedCountMismatch => "P509",
            LintId::AnnotationMismatch => "P510",
            LintId::StatsMismatch => "P511",
        }
    }
}

impl std::fmt::Display for LintId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// Diagnostic severity. Errors fail the lint gate; warnings do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Advisory: suspicious but not correctness-breaking.
    Warning,
    /// Correctness violation.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Where a diagnostic points: module plus optional proc/block/instr/ip.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Site {
    /// Module name.
    pub module: String,
    /// Procedure, when the diagnostic is proc-scoped.
    pub proc: Option<ProcId>,
    /// Basic block within the procedure.
    pub block: Option<BlockId>,
    /// Instruction index within the block body.
    pub instr: Option<usize>,
    /// Instruction address, when one is known.
    pub ip: Option<Ip>,
}

impl Site {
    /// A module-scoped site.
    pub fn module(name: &str) -> Site {
        Site {
            module: name.to_string(),
            ..Site::default()
        }
    }

    /// A procedure-scoped site.
    fn proc(name: &str, proc: ProcId) -> Site {
        Site {
            proc: Some(proc),
            ..Site::module(name)
        }
    }

    /// An instruction-scoped site.
    pub fn instr(name: &str, proc: ProcId, block: BlockId, instr: usize, ip: Option<Ip>) -> Site {
        Site {
            proc: Some(proc),
            block: Some(block),
            instr: Some(instr),
            ip,
            ..Site::module(name)
        }
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.module)?;
        if let Some(p) = self.proc {
            write!(f, ":{p}")?;
        }
        if let Some(b) = self.block {
            write!(f, ":{b}")?;
        }
        if let Some(i) = self.instr {
            write!(f, "#{i}")?;
        }
        if let Some(ip) = self.ip {
            write!(f, "@{ip}")?;
        }
        Ok(())
    }
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: LintId,
    /// Error or warning.
    pub severity: Severity,
    /// Where.
    pub site: Site,
    /// Human-readable detail.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(lint: LintId, site: Site, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            lint,
            severity: Severity::Error,
            site,
            message: message.into(),
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(lint: LintId, site: Site, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            lint,
            severity: Severity::Warning,
            site,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.lint, self.site, self.message
        )
    }
}

/// Typed verification failure: the first error-severity diagnostic found.
///
/// Replaces the old `Result<(), String>` contract of
/// [`LoadModule::validate`] / [`Procedure::validate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerifyError(pub Diagnostic);

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for VerifyError {}

/// Run the structural pass only and fail on the first error — the typed
/// successor of the old `validate()`.
pub fn check_structure(module: &LoadModule) -> Result<(), VerifyError> {
    let mut diags = Vec::new();
    structural_pass(module, &mut diags);
    match diags.into_iter().find(|d| d.severity == Severity::Error) {
        Some(d) => Err(VerifyError(d)),
        None => Ok(()),
    }
}

/// Structural pass for one procedure (used by [`Procedure::validate`]).
pub(crate) fn check_procedure(proc: &Procedure, module_name: &str) -> Result<(), VerifyError> {
    let mut diags = Vec::new();
    proc_structural_pass(proc, module_name, &mut diags);
    match diags.into_iter().find(|d| d.severity == Severity::Error) {
        Some(d) => Err(VerifyError(d)),
        None => Ok(()),
    }
}

/// Run every verifier pass over `module` and collect all diagnostics.
///
/// Structural errors make later passes unsafe (indices may be out of
/// range), so when any structural error is present only the structural
/// diagnostics are returned.
pub fn verify_module(module: &LoadModule) -> Vec<Diagnostic> {
    verify_module_facts(module).0
}

/// [`verify_module`], handing back the [`ModuleFacts`] its passes
/// borrowed, for a caller that goes on to analyze the module. `None`
/// when a structural error stopped the verifier before they were built.
pub fn verify_module_facts(module: &LoadModule) -> (Vec<Diagnostic>, Option<ModuleFacts>) {
    let mut diags = Vec::new();
    structural_pass(module, &mut diags);
    if diags.iter().any(|d| d.severity == Severity::Error) {
        return (diags, None);
    }
    let facts = ModuleFacts::build(module);
    cfg_pass(module, &facts, &mut diags);
    def_before_use_pass(module, &facts, &mut diags);
    layout_pass(module, facts.layout(), &mut diags);
    data_pass(module, facts.layout(), &mut diags);
    (diags, Some(facts))
}

fn proc_structural_pass(p: &Procedure, module: &str, out: &mut Vec<Diagnostic>) {
    if p.entry.index() >= p.blocks.len() {
        out.push(Diagnostic::error(
            LintId::EntryOutOfRange,
            Site::proc(module, p.id),
            format!("{}: entry {} out of range", p.name, p.entry),
        ));
    }
    for (i, b) in p.blocks.iter().enumerate() {
        if b.id.index() != i {
            out.push(Diagnostic::error(
                LintId::BlockIdMismatch,
                Site::proc(module, p.id),
                format!("{}: block {i} has id {}", p.name, b.id),
            ));
        }
        for s in b.term.successors() {
            if s.index() >= p.blocks.len() {
                out.push(Diagnostic::error(
                    LintId::TermTargetOutOfRange,
                    Site::instr(module, p.id, b.id, b.instrs.len(), None),
                    format!("{}: {} targets missing {}", p.name, b.id, s),
                ));
            }
        }
    }
}

fn structural_pass(module: &LoadModule, out: &mut Vec<Diagnostic>) {
    // Procedure bases are laid out from `base_ip`: check it before any
    // layout exists.
    let base = module.base_ip;
    if !base.is_multiple_of(PROC_ALIGN) {
        out.push(Diagnostic::error(
            LintId::ProcBaseUnaligned,
            Site::module(&module.name),
            format!("base_ip {base:#x} not {PROC_ALIGN}-byte aligned"),
        ));
    }
    for (i, p) in module.procs.iter().enumerate() {
        if p.id.index() != i {
            out.push(Diagnostic::error(
                LintId::ProcIdMismatch,
                Site::module(&module.name),
                format!("proc {i} has id {}", p.id),
            ));
        }
        proc_structural_pass(p, &module.name, out);
        for b in &p.blocks {
            for (idx, ins) in b.instrs.iter().enumerate() {
                if let Instr::Call { proc } = ins {
                    if proc.index() >= module.procs.len() {
                        out.push(Diagnostic::error(
                            LintId::CallTargetMissing,
                            Site::instr(&module.name, p.id, b.id, idx, None),
                            format!("{}: call to missing {proc}", p.name),
                        ));
                    }
                }
            }
        }
    }
}

fn cfg_pass(module: &LoadModule, facts: &ModuleFacts, out: &mut Vec<Diagnostic>) {
    for p in &module.procs {
        let cfg = facts.cfg(p.id);
        for b in &p.blocks {
            if !cfg.is_reachable(b.id) {
                out.push(Diagnostic::warning(
                    LintId::UnreachableBlock,
                    Site::proc(&module.name, p.id),
                    format!("{}: {} is unreachable from {}", p.name, b.id, p.entry),
                ));
            }
            // Succ/pred symmetry: every successor edge must appear as the
            // mirror predecessor edge and vice versa. The CFG derives
            // preds from succs, so this is defense in depth against
            // future CFG refactors.
            for &s in cfg.succs(b.id) {
                if !cfg.preds(s).contains(&b.id) {
                    out.push(Diagnostic::error(
                        LintId::CfgAsymmetry,
                        Site::proc(&module.name, p.id),
                        format!("{}: edge {} → {s} missing from preds", p.name, b.id),
                    ));
                }
            }
            for &pr in cfg.preds(b.id) {
                if !cfg.succs(pr).contains(&b.id) {
                    out.push(Diagnostic::error(
                        LintId::CfgAsymmetry,
                        Site::proc(&module.name, p.id),
                        format!("{}: edge {pr} → {} missing from succs", p.name, b.id),
                    ));
                }
            }
        }
    }
}

/// The argument/scratch registers `r0..r5`, which a call also writes.
const CALL_DEFINED: u32 = 0b11_1111;

/// Registers defined at procedure entry: `r0..r5` plus the frame and
/// stack pointers (the calling convention the interpreter and
/// `dataflow.rs` assume).
const ENTRY_DEFINED: u32 = CALL_DEFINED | 1 << Reg::FP.0 | 1 << Reg::SP.0;

fn def_before_use_pass(module: &LoadModule, facts: &ModuleFacts, out: &mut Vec<Diagnostic>) {
    let layout = facts.layout();
    for p in &module.procs {
        let cfg = facts.cfg(p.id);
        let n = p.blocks.len();
        // Forward must-be-defined analysis: bitset per block of registers
        // definitely written on every path from entry to block entry.
        let all: u32 = if NUM_REGS == 32 {
            u32::MAX
        } else {
            (1u32 << NUM_REGS) - 1
        };
        let mut in_set = vec![all; n];
        let mut out_set = vec![all; n];
        in_set[p.entry.index()] = ENTRY_DEFINED;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo() {
                let mut inn = if b == p.entry {
                    ENTRY_DEFINED
                } else {
                    let mut acc = all;
                    for &pr in cfg.preds(b) {
                        if cfg.is_reachable(pr) {
                            acc &= out_set[pr.index()];
                        }
                    }
                    acc
                };
                if inn != in_set[b.index()] {
                    in_set[b.index()] = inn;
                    changed = true;
                }
                for ins in &p.blocks[b.index()].instrs {
                    if let Some(d) = ins.def() {
                        inn |= 1 << d.0;
                    }
                    if matches!(ins, Instr::Call { .. }) {
                        inn |= CALL_DEFINED;
                    }
                }
                if inn != out_set[b.index()] {
                    out_set[b.index()] = inn;
                    changed = true;
                }
            }
        }
        // Report uses not covered by a definition.
        for b in &p.blocks {
            if !cfg.is_reachable(b.id) {
                continue;
            }
            let mut defined = in_set[b.id.index()];
            for (idx, ins) in b.instrs.iter().enumerate() {
                for u in ins.uses() {
                    if defined & (1 << u.0) == 0 {
                        out.push(Diagnostic::warning(
                            LintId::UseBeforeDef,
                            Site::instr(
                                &module.name,
                                p.id,
                                b.id,
                                idx,
                                Some(layout.ip_of(p.id, b.id, idx)),
                            ),
                            format!("{}: {u} read before any write reaches it", p.name),
                        ));
                    }
                }
                if let Some(d) = ins.def() {
                    defined |= 1 << d.0;
                }
                if matches!(ins, Instr::Call { .. }) {
                    defined |= CALL_DEFINED;
                }
            }
            if let crate::instr::Terminator::Br { lhs, rhs, .. } = b.term {
                for u in [Some(lhs), rhs.as_reg()].into_iter().flatten() {
                    if defined & (1 << u.0) == 0 {
                        out.push(Diagnostic::warning(
                            LintId::UseBeforeDef,
                            Site::instr(
                                &module.name,
                                p.id,
                                b.id,
                                b.instrs.len(),
                                Some(layout.ip_of(p.id, b.id, b.instrs.len())),
                            ),
                            format!("{}: {u} read by terminator before any write", p.name),
                        ));
                    }
                }
            }
        }
    }
}

fn layout_pass(module: &LoadModule, layout: &ModuleLayout, out: &mut Vec<Diagnostic>) {
    for p in &module.procs {
        for b in &p.blocks {
            for idx in 0..b.len() {
                let ip = layout.ip_of(p.id, b.id, idx);
                let located = layout.locate(ip);
                if located != Some((p.id, b.id, idx)) {
                    out.push(Diagnostic::error(
                        LintId::LocateRoundTrip,
                        Site::instr(&module.name, p.id, b.id, idx, Some(ip)),
                        format!(
                            "{}: locate({ip}) = {located:?}, expected ({}, {}, {idx})",
                            p.name, p.id, b.id
                        ),
                    ));
                }
                // Off-by-one-byte addresses must not resolve.
                let off = Ip(ip.raw() + 1);
                if layout.locate(off).is_some() {
                    out.push(Diagnostic::error(
                        LintId::UnalignedResolved,
                        Site::instr(&module.name, p.id, b.id, idx, Some(off)),
                        format!("{}: unaligned {off} resolved", p.name),
                    ));
                }
            }
        }
        // Padding-gap addresses between this proc's code end and the next
        // proc's base must resolve to nothing.
        let code_end = layout.proc_end(p.id).raw();
        let next_base = if p.id.index() + 1 < module.procs.len() {
            layout.proc_base(ProcId(p.id.0 + 1)).raw()
        } else {
            code_end
        };
        let mut gap = code_end;
        while gap < next_base {
            if let Some(hit) = layout.locate(Ip(gap)) {
                out.push(Diagnostic::error(
                    LintId::GapAttribution,
                    Site::proc(&module.name, p.id),
                    format!(
                        "padding address {:#x} after {} attributed to {hit:?}",
                        gap, p.name
                    ),
                ));
            }
            gap += INSTR_BYTES;
        }
    }
}

fn data_pass(module: &LoadModule, layout: &ModuleLayout, out: &mut Vec<Diagnostic>) {
    // The code runs from the first procedure's base, not from `base_ip`.
    let code_lo = module
        .procs
        .first()
        .map_or(module.base_ip, |p| layout.proc_base(p.id).raw());
    let code_hi = code_lo + layout.code_bytes();
    // Sort regions by base to find overlaps in one sweep.
    let mut regions: Vec<(u64, u64, &str)> = module
        .data
        .iter()
        .map(|d| (d.base, d.base + d.words.len() as u64 * 8, d.label.as_str()))
        .collect();
    regions.sort_by_key(|r| r.0);
    for w in regions.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if a.1 > b.0 {
            out.push(Diagnostic::error(
                LintId::DataOverlap,
                Site::module(&module.name),
                format!(
                    "data region '{}' [{:#x},{:#x}) overlaps '{}' [{:#x},{:#x})",
                    a.2, a.0, a.1, b.2, b.0, b.1
                ),
            ));
        }
    }
    for (lo, hi, label) in &regions {
        if *lo < code_hi && code_lo < *hi {
            out.push(Diagnostic::error(
                LintId::CodeDataOverlap,
                Site::module(&module.name),
                format!(
                    "data region '{label}' [{lo:#x},{hi:#x}) overlaps code [{code_lo:#x},{code_hi:#x})"
                ),
            ));
        }
        if *hi > module.data_break {
            out.push(Diagnostic::error(
                LintId::DataBreakBehind,
                Site::module(&module.name),
                format!(
                    "data_break {:#x} below end {hi:#x} of region '{label}'",
                    module.data_break
                ),
            ));
        }
    }
    // Symbol ranges: procedure code ranges must be non-empty, sorted, and
    // mutually disjoint (this is what SymbolTable::add_function asserts;
    // the verifier reports instead of panicking).
    let mut prev_hi = 0u64;
    for p in &module.procs {
        let lo = layout.proc_base(p.id).raw();
        let hi = layout.proc_end(p.id).raw();
        if lo >= hi {
            out.push(Diagnostic::error(
                LintId::SymbolRangeBad,
                Site::proc(&module.name, p.id),
                format!("{}: empty code range [{lo:#x},{hi:#x})", p.name),
            ));
        } else if lo < prev_hi {
            out.push(Diagnostic::error(
                LintId::SymbolRangeBad,
                Site::proc(&module.name, p.id),
                format!("{}: range [{lo:#x},{hi:#x}) overlaps previous", p.name),
            ));
        }
        prev_hi = hi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ModuleBuilder, ProcBuilder};
    use crate::instr::{AddrMode, CmpOp, Operand, Terminator};
    use crate::module::DataInit;

    fn clean_module() -> LoadModule {
        let mut mb = ModuleBuilder::new("m");
        let mut pb = ProcBuilder::new("f", "f.c");
        let body = pb.new_block();
        let exit = pb.new_block();
        let (i, x) = (Reg::gp(6), Reg::gp(7));
        pb.mov_imm(i, 0);
        pb.jmp(body);
        pb.switch_to(body);
        pb.load(x, AddrMode::base_disp(Reg::FP, -8));
        pb.add_imm(i, 1);
        pb.br(i, CmpOp::Lt, Operand::Imm(4), body, exit);
        pb.switch_to(exit);
        pb.ret();
        mb.add(pb);
        mb.finish()
    }

    #[test]
    fn clean_module_verifies() {
        let m = clean_module();
        let diags = verify_module(&m);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(check_structure(&m).is_ok());
    }

    #[test]
    fn unreachable_block_is_warned() {
        let mut m = clean_module();
        let p = &mut m.procs[0];
        let orphan = BlockId(p.blocks.len() as u32);
        p.blocks.push(crate::proc::BasicBlock {
            id: orphan,
            instrs: vec![],
            term: Terminator::Ret,
            src_line: 9,
        });
        let diags = verify_module(&m);
        assert!(diags
            .iter()
            .any(|d| d.lint == LintId::UnreachableBlock && d.severity == Severity::Warning));
        // Warnings alone keep the structural contract intact.
        assert!(check_structure(&m).is_ok());
    }

    #[test]
    fn use_before_def_is_flagged() {
        let mut m = clean_module();
        // Read a callee-saved register nothing ever writes.
        m.procs[0].blocks[0].instrs.insert(
            0,
            Instr::Load {
                dst: Reg::gp(8),
                addr: AddrMode::base_disp(Reg::gp(13), 0),
            },
        );
        let diags = verify_module(&m);
        let hit = diags.iter().find(|d| d.lint == LintId::UseBeforeDef);
        assert!(hit.is_some(), "{diags:?}");
        assert!(hit.unwrap().message.contains("r13"));
    }

    #[test]
    fn args_are_defined_at_entry() {
        // Reading r0..r5 at entry models argument passing and is clean.
        let mut mb = ModuleBuilder::new("m");
        let mut pb = ProcBuilder::new("f", "f.c");
        pb.load(Reg::gp(6), AddrMode::base_disp(Reg::gp(0), 0));
        pb.ret();
        mb.add(pb);
        let m = mb.finish();
        assert!(verify_module(&m)
            .iter()
            .all(|d| d.lint != LintId::UseBeforeDef));
    }

    #[test]
    fn data_overlap_detected() {
        let mut m = clean_module();
        m.data.push(DataInit {
            label: "a".into(),
            base: 0x10_0000_0000,
            words: vec![0; 8],
        });
        m.data.push(DataInit {
            label: "b".into(),
            base: 0x10_0000_0020,
            words: vec![0; 8],
        });
        m.data_break = 0x10_0000_1000;
        let diags = verify_module(&m);
        assert!(diags.iter().any(|d| d.lint == LintId::DataOverlap));
    }

    #[test]
    fn code_data_overlap_detected() {
        let mut m = clean_module();
        m.data.push(DataInit {
            label: "bad".into(),
            base: m.base_ip,
            words: vec![0; 2],
        });
        m.data_break = m.base_ip + 0x1000;
        let diags = verify_module(&m);
        assert!(diags.iter().any(|d| d.lint == LintId::CodeDataOverlap));
    }

    #[test]
    fn typed_error_renders() {
        let mut m = clean_module();
        m.procs[0].entry = BlockId(99);
        let err = check_structure(&m).unwrap_err();
        assert_eq!(err.0.lint, LintId::EntryOutOfRange);
        let s = err.to_string();
        assert!(s.contains("V003") && s.contains("entry"), "{s}");
    }
}
