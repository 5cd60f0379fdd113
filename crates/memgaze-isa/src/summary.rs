//! Interprocedural procedure summaries (DESIGN.md §16).
//!
//! Two layers of facts, both conservative may-analyses over the call
//! graph:
//!
//! * **clobbers / may_store** — the set of general-purpose registers a
//!   call to the procedure may modify (including everything its
//!   transitive callees may modify), and whether any store can execute
//!   under it. Computed as a least fixpoint: start from each
//!   procedure's direct effects and propagate along call edges until
//!   stable. Recursion is handled for free — the iteration simply stops
//!   growing. `FP`/`SP` are excluded because the [`Machine`]
//!   (crate::interp) restores both on `Ret`. A callee the module does
//!   not define counts as [`ProcSummary::CONVENTIONAL`].
//! * **argument facts** — for each procedure, the constant value of each
//!   argument register `r0..r5` if *every* call site in the module
//!   passes that same constant (proved by running
//!   [`RangeAnalysis`](crate::ranges) in each caller and reading the
//!   point range at the call instruction). The sites are evaluated in
//!   rounds, each under the facts the previous round published, and
//!   every observation stays joined in: joins only move a fact *up* the
//!   three-level lattice (unset → constant → ⊤). Round one evaluates
//!   every caller with the ⊤ entry of a procedure that has no facts yet,
//!   so a register a caller only passes on reaches its callee as ⊤: a
//!   constant crosses one call, never two. Recursive cycles degrade
//!   naturally: a self-call whose argument differs from the outer call
//!   sites joins to ⊤.
//!
//! Procedures that no instruction calls (entry points) keep ⊤ argument
//! facts — the harness may invoke them with anything.

use crate::cfg::Cfg;
use crate::facts::ModuleFacts;
use crate::instr::Instr;
use crate::module::LoadModule;
use crate::proc::{ProcId, Procedure};
use crate::ranges::{self, top_ranges, Interval, RangeAnalysis, RegRanges};
use crate::reg::Reg;

/// Number of conventional argument registers (`r0..r5`).
const NUM_ARG_REGS: usize = 6;

/// What a call to one procedure may do to the caller's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcSummary {
    /// Bit `r` set ⇒ the call may modify general-purpose register `r`
    /// (transitively). `FP`/`SP` are never included: `Ret` restores them.
    pub(crate) clobbers: u16,
    /// Whether the procedure (or any transitive callee) may execute a
    /// `Store` — if so, callers must kill all tracked stack slots.
    pub(crate) may_store: bool,
    /// Per argument register `r0..r5`: `Some(c)` iff every call site in
    /// the module passes exactly the constant `c`.
    pub args: [Option<i64>; NUM_ARG_REGS],
}

impl ProcSummary {
    /// A callee the module does not define: it may clobber the six
    /// argument/scratch registers and may store anywhere.
    const CONVENTIONAL: ProcSummary = ProcSummary {
        clobbers: 0b11_1111,
        may_store: true,
        args: [None; NUM_ARG_REGS],
    };

    /// Whether a call may modify `r`.
    pub(crate) fn clobbers_reg(&self, r: Reg) -> bool {
        !r.is_fp() && !r.is_sp() && self.clobbers & (1 << r.index()) != 0
    }
}

/// Three-level lattice for one argument fact during the site sweep.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fact {
    /// No call site seen yet.
    Unset,
    /// Every site so far passed this constant.
    Const(i64),
    /// Sites disagree or a site's value is unbounded.
    Top,
}

impl Fact {
    fn join(self, other: Fact) -> Fact {
        match (self, other) {
            (Fact::Unset, x) | (x, Fact::Unset) => x,
            (Fact::Const(a), Fact::Const(b)) if a == b => self,
            _ => Fact::Top,
        }
    }
}

/// Per-procedure summaries for a whole module, indexed by [`ProcId`].
/// The empty table (`default`) describes a procedure analyzed on its
/// own: every callee is [`ProcSummary::CONVENTIONAL`].
#[derive(Debug, Clone, Default)]
pub struct ProcSummaries {
    sums: Vec<ProcSummary>,
}

impl ProcSummaries {
    /// Compute summaries for every procedure in `module`, reading the
    /// callers' CFGs from its `module_facts`. Beside the table comes,
    /// per procedure that calls, its range analysis under its final
    /// argument facts (`None` for a procedure that calls nothing).
    pub(crate) fn compute(
        module: &LoadModule,
        module_facts: &ModuleFacts,
    ) -> (ProcSummaries, Vec<Option<RangeAnalysis>>) {
        let n = module.procs.len();

        // --- Layer 1: clobbers + may_store, least fixpoint over the
        // call graph (direct effects first, then callee propagation).
        let (sums, callees): (Vec<ProcSummary>, Vec<Vec<ProcId>>) = module
            .procs
            .iter()
            .map(|p| {
                let mut sum = ProcSummary {
                    clobbers: 0,
                    may_store: false,
                    args: [None; NUM_ARG_REGS],
                };
                let mut callees = Vec::new();
                for ins in p.blocks.iter().flat_map(|b| &b.instrs) {
                    match *ins {
                        Instr::Store { .. } => sum.may_store = true,
                        Instr::Call { proc } => callees.push(proc),
                        _ => {}
                    }
                    if let Some(d) = ins.def().filter(|d| !d.is_fp() && !d.is_sp()) {
                        sum.clobbers |= 1 << d.index();
                    }
                }
                (sum, callees)
            })
            .unzip();
        let mut out = ProcSummaries { sums };

        let mut changed = true;
        while changed {
            changed = false;
            for (i, cs) in callees.iter().enumerate() {
                for &c in cs {
                    let callee = *out.get(c);
                    let sum = &mut out.sums[i];
                    let grown = sum.clobbers | callee.clobbers;
                    let store = sum.may_store || callee.may_store;
                    if grown != sum.clobbers || store != sum.may_store {
                        sum.clobbers = grown;
                        sum.may_store = store;
                        changed = true;
                    }
                }
            }
        }

        // --- Layer 2: argument constants, in rounds. A round evaluates
        // call sites under the facts the previous round published and
        // joins what it sees into the table. A caller's site ranges
        // depend only on its own facts (its entry state) and on the
        // clobbers, which layer 1 fixed, so a round re-runs only the
        // callers whose own facts the previous round moved; the others
        // would repeat observations already joined in. The rounds end
        // when no caller's facts moved, so each caller's last range
        // analysis ran under its final facts. They terminate: a round
        // runs only after one that raised a fact, and each of the 6·n
        // facts rises at most twice (unset → constant → ⊤), so there
        // are at most 12·n + 1 rounds.
        let mut facts: Vec<[Fact; NUM_ARG_REGS]> = vec![[Fact::Unset; NUM_ARG_REGS]; n];
        let mut ranges: Vec<Option<RangeAnalysis>> = (0..n).map(|_| None).collect();
        let mut work: Vec<usize> = (0..n).filter(|&i| !callees[i].is_empty()).collect();
        while !work.is_empty() {
            let mut moved = vec![false; n];
            for &i in &work {
                let cfg = module_facts.cfg(ProcId(i as u32));
                let ra = out.eval_sites(&module.procs[i], cfg, &mut facts, &mut moved);
                ranges[i] = Some(ra);
            }
            out.apply_facts(&facts);
            work = (0..n)
                .filter(|&i| moved[i] && !callees[i].is_empty())
                .collect();
        }
        (out, ranges)
    }

    /// Run the range analysis of the caller `proc` under the published
    /// fact table and join the argument-register ranges at each of its
    /// call sites into `facts`, flagging in `moved` each callee whose
    /// fact rose. Returns the caller's range analysis.
    fn eval_sites(
        &self,
        proc: &Procedure,
        cfg: &Cfg,
        facts: &mut [[Fact; NUM_ARG_REGS]],
        moved: &mut [bool],
    ) -> RangeAnalysis {
        let ra = RangeAnalysis::analyze(proc, cfg, self.entry_ranges(proc.id), self);
        for b in &proc.blocks {
            let mut st = *ra.block_entry(b.id);
            for ins in &b.instrs {
                if let Instr::Call { proc: callee } = *ins {
                    if let Some(tgt) = facts.get_mut(callee.index()) {
                        for (t, r) in tgt.iter_mut().zip(&st) {
                            let joined = t.join(r.as_point().map_or(Fact::Top, Fact::Const));
                            if joined != *t {
                                *t = joined;
                                moved[callee.index()] = true;
                            }
                        }
                    }
                }
                ranges::step(ins, &mut st, self);
            }
        }
        ra
    }

    fn apply_facts(&mut self, facts: &[[Fact; NUM_ARG_REGS]]) {
        for (s, f) in self.sums.iter_mut().zip(facts.iter()) {
            for (slot, fact) in s.args.iter_mut().zip(f.iter()) {
                *slot = match fact {
                    Fact::Const(v) => Some(*v),
                    _ => None,
                };
            }
        }
    }

    /// Summary for one procedure; [`ProcSummary::CONVENTIONAL`] for one
    /// the module does not define.
    pub fn get(&self, id: ProcId) -> &ProcSummary {
        self.sums
            .get(id.index())
            .unwrap_or(&ProcSummary::CONVENTIONAL)
    }

    /// Entry-block register ranges implied by a procedure's argument
    /// facts (⊤ everywhere else).
    pub(crate) fn entry_ranges(&self, id: ProcId) -> RegRanges {
        let mut st = top_ranges();
        for (a, fact) in self.get(id).args.iter().enumerate() {
            if let Some(v) = fact {
                st[a] = Interval::point(*v);
            }
        }
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ModuleBuilder, ProcBuilder};
    use crate::instr::{AddrMode, CmpOp, Operand};

    /// main calls leaf twice: `leaf(r0 = base)` then `leaf(r0 =
    /// second(base))`; leaf only reads. Returns the module and `base`.
    fn two_proc_module(second: impl Fn(i64) -> i64) -> (LoadModule, i64) {
        let mut mb = ModuleBuilder::new("m");
        let base = mb.alloc_global("data", 64) as i64;
        let leaf_id = mb.next_proc_id();

        let mut leaf = ProcBuilder::new("leaf", "t.c");
        let body = leaf.new_block();
        let exit = leaf.new_block();
        leaf.mov_imm(Reg::gp(6), 0);
        leaf.jmp(body);
        leaf.switch_to(body);
        leaf.load(
            Reg::gp(7),
            AddrMode::base_index(Reg::gp(0), Reg::gp(6), 8, 0),
        );
        leaf.add_imm(Reg::gp(6), 1);
        leaf.br(Reg::gp(6), CmpOp::Lt, Operand::Imm(8), body, exit);
        leaf.switch_to(exit);
        leaf.ret();
        let leaf_id2 = mb.add(leaf);
        assert_eq!(leaf_id, leaf_id2);

        let mut main = ProcBuilder::new("main", "t.c");
        main.mov_imm(Reg::gp(0), base);
        main.call(leaf_id);
        main.mov_imm(Reg::gp(0), second(base));
        main.call(leaf_id);
        main.ret();
        mb.add(main);
        (mb.finish(), base)
    }

    #[test]
    fn agreeing_sites_yield_const_arg_fact() {
        let (m, base) = two_proc_module(|b| b);
        let (sums, _) = ProcSummaries::compute(&m, &ModuleFacts::build(&m));
        let leaf = sums.get(ProcId(0));
        assert_eq!(leaf.args[0], Some(base));
        assert!(!leaf.may_store, "leaf never stores");
        // leaf clobbers r6 and r7 but not, say, r13.
        assert!(leaf.clobbers_reg(Reg::gp(6)));
        assert!(leaf.clobbers_reg(Reg::gp(7)));
        assert!(!leaf.clobbers_reg(Reg::gp(13)));
    }

    #[test]
    fn disagreeing_sites_degrade_to_top() {
        let (m, _) = two_proc_module(|b| b + 0x40);
        let (sums, _) = ProcSummaries::compute(&m, &ModuleFacts::build(&m));
        assert_eq!(sums.get(ProcId(0)).args[0], None);
    }

    #[test]
    fn clobbers_propagate_transitively_and_recursion_terminates() {
        let mut mb = ModuleBuilder::new("rec");
        let a_id = mb.next_proc_id();
        // a: stores, writes r9, calls itself (recursion).
        let mut a = ProcBuilder::new("a", "t.c");
        a.mov_imm(Reg::gp(9), 1);
        a.store(Reg::gp(9), AddrMode::base_disp(Reg::FP, -8));
        a.call(a_id);
        a.ret();
        mb.add(a);
        // b: calls a, itself writes only r3.
        let mut b = ProcBuilder::new("b", "t.c");
        b.mov_imm(Reg::gp(3), 0);
        b.call(a_id);
        b.ret();
        mb.add(b);
        let m = mb.finish();
        let (sums, _) = ProcSummaries::compute(&m, &ModuleFacts::build(&m));
        let b_sum = sums.get(ProcId(1));
        assert!(b_sum.may_store, "store in callee must propagate");
        assert!(b_sum.clobbers_reg(Reg::gp(9)), "callee clobber propagates");
        assert!(b_sum.clobbers_reg(Reg::gp(3)));
    }
}
