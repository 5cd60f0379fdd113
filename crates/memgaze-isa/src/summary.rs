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
//!   (crate::interp) restores both on `Ret`.
//! * **argument facts** — for each procedure, the constant value of each
//!   argument register `r0..r5` if *every* call site in the module
//!   passes that same constant (proved by running
//!   [`RangeAnalysis`](crate::ranges) in each caller and reading the
//!   point range at the call instruction). Facts feed back into the
//!   per-caller range analyses, so the loop re-evaluates until the fact
//!   table stops changing; joins only ever move a fact *up* the
//!   three-level lattice (unset → constant → ⊤), which bounds the
//!   iteration. Recursive cycles degrade naturally: a self-call whose
//!   argument differs from the outer call sites joins to ⊤.
//!
//! Procedures that no instruction calls (entry points) keep ⊤ argument
//! facts — the harness may invoke them with anything.

use crate::cfg::Cfg;
use crate::instr::Instr;
use crate::module::LoadModule;
use crate::proc::ProcId;
use crate::ranges::{top_ranges, Interval, RangeAnalysis, RegRanges};
use crate::reg::Reg;

/// Number of conventional argument registers (`r0..r5`).
pub const NUM_ARG_REGS: usize = 6;

/// What a call to one procedure may do to the caller's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcSummary {
    /// Bit `r` set ⇒ the call may modify general-purpose register `r`
    /// (transitively). `FP`/`SP` are never included: `Ret` restores them.
    pub clobbers: u16,
    /// Whether the procedure (or any transitive callee) may execute a
    /// `Store` — if so, callers must kill all tracked stack slots.
    pub may_store: bool,
    /// Per argument register `r0..r5`: `Some(c)` iff every call site in
    /// the module passes exactly the constant `c`.
    pub args: [Option<i64>; NUM_ARG_REGS],
}

impl ProcSummary {
    /// The assumption the analyses made before summaries existed: a call
    /// may clobber all six argument/scratch registers and may store
    /// anywhere. Used as the fallback for single-procedure analyses.
    pub fn conventional() -> ProcSummary {
        ProcSummary {
            clobbers: 0b11_1111,
            may_store: true,
            args: [None; NUM_ARG_REGS],
        }
    }

    /// Whether a call may modify `r`.
    pub fn clobbers_reg(&self, r: Reg) -> bool {
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
#[derive(Debug, Clone)]
pub struct ProcSummaries {
    sums: Vec<ProcSummary>,
}

impl ProcSummaries {
    /// Compute summaries for every procedure in `module`.
    pub fn compute(module: &LoadModule) -> ProcSummaries {
        let n = module.procs.len();

        // --- Layer 1: clobbers + may_store, least fixpoint over the
        // call graph (direct effects first, then callee propagation).
        let mut sums: Vec<ProcSummary> = module
            .procs
            .iter()
            .map(|p| {
                let mut clobbers = 0u16;
                let mut may_store = false;
                for b in &p.blocks {
                    for ins in &b.instrs {
                        if matches!(ins, Instr::Store { .. }) {
                            may_store = true;
                        }
                        if let Some(d) = ins.def() {
                            if !d.is_fp() && !d.is_sp() {
                                clobbers |= 1 << d.index();
                            }
                        }
                    }
                }
                ProcSummary {
                    clobbers,
                    may_store,
                    args: [None; NUM_ARG_REGS],
                }
            })
            .collect();

        let callees: Vec<Vec<ProcId>> = module
            .procs
            .iter()
            .map(|p| {
                let mut cs = Vec::new();
                for b in &p.blocks {
                    for ins in &b.instrs {
                        if let Instr::Call { proc } = *ins {
                            if proc.index() < n {
                                cs.push(proc);
                            }
                        }
                    }
                }
                cs
            })
            .collect();

        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                for &c in &callees[i] {
                    let callee = sums[c.index()];
                    let grown = sums[i].clobbers | callee.clobbers;
                    let store = sums[i].may_store || callee.may_store;
                    if grown != sums[i].clobbers || store != sums[i].may_store {
                        sums[i].clobbers = grown;
                        sums[i].may_store = store;
                        changed = true;
                    }
                }
            }
        }

        let mut out = ProcSummaries { sums };

        // --- Layer 2: argument constants. Evaluate all call sites under
        // the current fact table and accumulate upward (unset → const →
        // ⊤) until stable. Because facts only ever rise, the loop
        // terminates in at most 2·NUM_ARG_REGS·n joins; the cap is a
        // backstop, and any residual instability degrades to ⊤.
        // Only a procedure that calls has sites to evaluate.
        let callers: Vec<(usize, Cfg)> = (0..n)
            .filter(|&i| !callees[i].is_empty())
            .map(|i| (i, Cfg::build(&module.procs[i])))
            .collect();
        let mut facts: Vec<[Fact; NUM_ARG_REGS]> = vec![[Fact::Unset; NUM_ARG_REGS]; n];
        let max_rounds = 2 * NUM_ARG_REGS * n + 2;
        let mut stable = false;
        for _ in 0..max_rounds {
            let next = out.eval_sites(module, &callers, &facts);
            let mut grew = false;
            for (cur, new) in facts.iter_mut().zip(next.iter()) {
                for (c, v) in cur.iter_mut().zip(new.iter()) {
                    let joined = c.join(*v);
                    if joined != *c {
                        *c = joined;
                        grew = true;
                    }
                }
            }
            out.apply_facts(&facts);
            if !grew {
                stable = true;
                break;
            }
        }

        // A round that moved nothing evaluated every site under the facts
        // it left published, so they absorb it. If the cap cut the loop
        // short instead, they must absorb one more evaluation round;
        // anything that would still move goes to ⊤.
        if !stable {
            let check = out.eval_sites(module, &callers, &facts);
            for (cur, new) in facts.iter_mut().zip(check.iter()) {
                for (c, v) in cur.iter_mut().zip(new.iter()) {
                    if c.join(*v) != *c {
                        *c = Fact::Top;
                    }
                }
            }
            out.apply_facts(&facts);
        }
        out
    }

    /// Evaluate every call site under the current fact table: run the
    /// range analysis in each caller (`callers`: procedure index and CFG;
    /// entry seeded from the caller's own facts) and collect the
    /// argument-register ranges at each `Call`.
    fn eval_sites(
        &self,
        module: &LoadModule,
        callers: &[(usize, Cfg)],
        facts: &[[Fact; NUM_ARG_REGS]],
    ) -> Vec<[Fact; NUM_ARG_REGS]> {
        let n = module.procs.len();
        let mut seen: Vec<[Fact; NUM_ARG_REGS]> = vec![[Fact::Unset; NUM_ARG_REGS]; n];
        for (pi, cfg) in callers {
            let proc = &module.procs[*pi];
            let entry = entry_from_facts(&facts[*pi]);
            let ra = RangeAnalysis::analyze(proc, cfg, entry, Some(self));
            for b in &proc.blocks {
                let mut st = *ra.block_entry(b.id);
                for ins in &b.instrs {
                    if let Instr::Call { proc: callee } = *ins {
                        if callee.index() < n {
                            let tgt = &mut seen[callee.index()];
                            for (a, t) in tgt.iter_mut().enumerate() {
                                let f = match st[a].as_point() {
                                    Some(v) => Fact::Const(v),
                                    None => Fact::Top,
                                };
                                *t = t.join(f);
                            }
                        }
                    }
                    crate::ranges::step(ins, &mut st, Some(self));
                }
            }
        }
        seen
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

    /// Summary for one procedure.
    pub fn get(&self, id: ProcId) -> &ProcSummary {
        &self.sums[id.index()]
    }

    /// Entry-block register ranges implied by a procedure's argument
    /// facts (⊤ everywhere else).
    pub fn entry_ranges(&self, id: ProcId) -> RegRanges {
        let mut st = top_ranges();
        for (a, fact) in self.sums[id.index()].args.iter().enumerate() {
            if let Some(v) = fact {
                st[a] = Interval::point(*v);
            }
        }
        st
    }
}

fn entry_from_facts(facts: &[Fact; NUM_ARG_REGS]) -> RegRanges {
    let mut st = top_ranges();
    for (a, f) in facts.iter().enumerate() {
        if let Fact::Const(v) = f {
            st[a] = Interval::point(*v);
        }
    }
    st
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
        let sums = ProcSummaries::compute(&m);
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
        let sums = ProcSummaries::compute(&m);
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
        let sums = ProcSummaries::compute(&m);
        let b_sum = sums.get(ProcId(1));
        assert!(b_sum.may_store, "store in callee must propagate");
        assert!(b_sum.clobbers_reg(Reg::gp(9)), "callee clobber propagates");
        assert!(b_sum.clobbers_reg(Reg::gp(3)));
    }
}
