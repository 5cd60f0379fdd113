//! Value-range (interval) analysis over procedure registers.
//!
//! A whole-procedure forward dataflow pass that tracks, per register, a
//! signed interval `[lo, hi]` guaranteed to contain the register's
//! concrete value at every execution reaching that program point. The
//! intervals power three consumers in the abstract interpreter
//! (DESIGN.md §16):
//!
//! * **masking identities** — `and r, m` / `rem r, n` leave an affine
//!   value unchanged when the proven range already fits the mask, so
//!   wrapped index arithmetic stops decaying to ⊤;
//! * **constant-address instantiation** — a loop-invariant address whose
//!   contributing registers all have point ranges at the loop header can
//!   be resolved to a concrete data address (`const_addr`);
//! * **procedure argument facts** — [`crate::summary::ProcSummaries`]
//!   joins point ranges of `r0..r5` across call sites to seed callee
//!   entry states.
//!
//! Soundness under wrapping arithmetic: the [`Machine`](crate::interp)
//! wraps on overflow, while naive interval arithmetic assumes unbounded
//! integers. Every arithmetic transfer therefore uses *checked* bound
//! computation and widens to ⊤ the moment any bound would overflow — if
//! the interval endpoints stay representable, no in-range concrete value
//! can wrap, so the wrapping execution agrees with the mathematical one.
//!
//! Branch refinement is the other subtlety: [`CmpOp`] evaluates
//! **unsigned** (over `u64`), so an edge constraint like `x <u c` only
//! translates to the signed interval `[0, c-1]` when `c >= 0` — unsigned
//! `<` of a non-negative bound pins the value below `2^63`. Constraints
//! whose unsigned solution set is not a signed interval (e.g. `x >u c`,
//! which includes every negative value) refine nothing.

use crate::cfg::Cfg;
use crate::instr::{BinOp, CmpOp, Instr, Operand, Terminator};
use crate::proc::{BlockId, Procedure};
use crate::reg::{Reg, NUM_REGS};
use crate::summary::ProcSummaries;

/// A signed interval `[lo, hi]`, never empty; `TOP` is `[i64::MIN, i64::MAX]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    lo: i64,
    hi: i64,
}

impl Interval {
    /// The full range — no information.
    const TOP: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// The single-value interval `[v, v]`.
    pub(crate) fn point(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// `Some(v)` iff this interval holds exactly one value.
    pub(crate) fn as_point(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Whether `self` is entirely contained in `[lo, hi]`.
    pub(crate) fn within(self, lo: i64, hi: i64) -> bool {
        self.lo >= lo && self.hi <= hi
    }

    fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Widen `self` toward `next`: any bound that moved jumps to ±∞.
    fn widen(self, next: Interval) -> Interval {
        Interval {
            lo: if next.lo < self.lo { i64::MIN } else { self.lo },
            hi: if next.hi > self.hi { i64::MAX } else { self.hi },
        }
    }

    /// Intersection; `None` if the result would be empty (dead edge).
    fn meet(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Checked addition: ⊤ on any bound overflow (wrapping safety).
    fn add(self, other: Interval) -> Interval {
        match (self.lo.checked_add(other.lo), self.hi.checked_add(other.hi)) {
            (Some(lo), Some(hi)) => Interval { lo, hi },
            _ => Interval::TOP,
        }
    }

    fn sub(self, other: Interval) -> Interval {
        match (self.lo.checked_sub(other.hi), self.hi.checked_sub(other.lo)) {
            (Some(lo), Some(hi)) => Interval { lo, hi },
            _ => Interval::TOP,
        }
    }

    /// Checked multiplication via the four corner products.
    fn mul(self, other: Interval) -> Interval {
        let corners = [
            self.lo.checked_mul(other.lo),
            self.lo.checked_mul(other.hi),
            self.hi.checked_mul(other.lo),
            self.hi.checked_mul(other.hi),
        ];
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for c in corners {
            match c {
                Some(v) => {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                None => return Interval::TOP,
            }
        }
        Interval { lo, hi }
    }

    /// Refine by the branch constraint `x op c` (unsigned compare) being
    /// `taken`. Returns the constraint interval to meet with, or `None`
    /// when the unsigned solution set is not a signed interval.
    fn constraint(op: CmpOp, c: i64, taken: bool) -> Option<Interval> {
        match (op, taken) {
            // x ==u c — exact either way round.
            (CmpOp::Eq, true) | (CmpOp::Ne, false) => Some(Interval::point(c)),
            // x <u c with c >= 0: unsigned-below a non-negative bound
            // means the value is in [0, c-1] as a signed integer too.
            (CmpOp::Lt, true) | (CmpOp::Ge, false) if c > 0 => Some(Interval { lo: 0, hi: c - 1 }),
            // x <=u c, c >= 0.
            (CmpOp::Le, true) | (CmpOp::Gt, false) if c >= 0 => Some(Interval { lo: 0, hi: c }),
            // x >u c / x >=u c include every negative signed value
            // (top-bit-set u64s), so they refine nothing. Likewise
            // `!=` on the taken side.
            _ => None,
        }
    }
}

/// Per-register intervals at one program point.
pub(crate) type RegRanges = [Interval; NUM_REGS];

/// All-⊤ entry state (nothing known about any register).
pub(crate) fn top_ranges() -> RegRanges {
    [Interval::TOP; NUM_REGS]
}

fn join_ranges(a: &RegRanges, b: &RegRanges) -> RegRanges {
    let mut out = *a;
    for (o, r) in out.iter_mut().zip(b.iter()) {
        *o = o.join(*r);
    }
    out
}

/// Number of joins a block absorbs before its state is widened.
const WIDEN_AFTER: u32 = 2;

/// Whole-procedure interval analysis results (block-entry states).
pub(crate) struct RangeAnalysis {
    ins: Vec<RegRanges>,
}

impl RangeAnalysis {
    /// Run the analysis. `entry` seeds the procedure entry block (use
    /// [`top_ranges`] or summary-derived argument facts); a `Call`
    /// clobbers the callee's clobber set in `summaries`.
    pub(crate) fn analyze(
        proc: &Procedure,
        cfg: &Cfg,
        entry: RegRanges,
        summaries: &ProcSummaries,
    ) -> RangeAnalysis {
        let n = proc.blocks.len();
        let mut ins: Vec<RegRanges> = vec![top_ranges(); n];
        let mut outs: Vec<Option<RegRanges>> = vec![None; n];
        ins[cfg.entry().index()] = entry;

        // Sweep in reverse postorder until nothing is pending. Every
        // block runs once to begin with; after that a block is pending
        // when a predecessor's out-state moved since it last ran. A block
        // none of whose inputs moved would recompute the in-state it
        // already computed: equal to its stored one, or (past
        // `WIDEN_AFTER` joins) widened back onto it. Either way nothing
        // moves, so skipping it leaves every sweep what a full sweep
        // gives. Likewise a block whose in-state stands keeps its out.
        // Per block: joins absorbed, and whether it is pending.
        let mut sched: Vec<(u32, bool)> = vec![(0, true); n];
        let mut progressed = true;
        while progressed {
            progressed = false;
            for &b in cfg.rpo() {
                let bi = b.index();
                if !std::mem::take(&mut sched[bi].1) {
                    continue;
                }
                progressed = true;
                let mut inn: Option<RegRanges> = if b == cfg.entry() { Some(entry) } else { None };
                for &p in cfg.preds(b) {
                    let Some(out) = &outs[p.index()] else {
                        continue;
                    };
                    let refined = refine_edge(out, &proc.block(p).term, b);
                    inn = Some(match inn {
                        Some(cur) => join_ranges(&cur, &refined),
                        None => refined,
                    });
                }
                let mut inn = inn.unwrap_or_else(top_ranges);
                let mut moved = false;
                if inn != ins[bi] {
                    sched[bi].0 += 1;
                    if sched[bi].0 > WIDEN_AFTER {
                        for (cur, prev) in inn.iter_mut().zip(ins[bi].iter()) {
                            *cur = prev.widen(*cur);
                        }
                    }
                    // Widening may have landed back on the stored state;
                    // only a real move re-arms the fixpoint.
                    if inn != ins[bi] {
                        ins[bi] = inn;
                        moved = true;
                    }
                }
                if !moved && outs[bi].is_some() {
                    continue;
                }
                let mut st = ins[bi];
                for instr in &proc.block(b).instrs {
                    step(instr, &mut st, summaries);
                }
                if outs[bi].as_ref() != Some(&st) {
                    outs[bi] = Some(st);
                    for &succ in cfg.succs(b) {
                        sched[succ.index()].1 = true;
                    }
                }
            }
        }

        // One descending (narrowing) sweep: recompute each block entry
        // from the stabilized predecessor outs without widening. Every
        // equation still over-approximates the concrete states, so this
        // only sharpens bounds that widening overshot.
        for &b in cfg.rpo() {
            if b == cfg.entry() {
                continue;
            }
            let bi = b.index();
            let mut inn: Option<RegRanges> = None;
            for &p in cfg.preds(b) {
                let Some(out) = &outs[p.index()] else {
                    continue;
                };
                let refined = refine_edge(out, &proc.block(p).term, b);
                inn = Some(match inn {
                    Some(cur) => join_ranges(&cur, &refined),
                    None => refined,
                });
            }
            if let Some(inn) = inn {
                ins[bi] = inn;
                let mut st = inn;
                for instr in &proc.block(b).instrs {
                    step(instr, &mut st, summaries);
                }
                outs[bi] = Some(st);
            }
        }

        RangeAnalysis { ins }
    }

    /// Block-entry intervals for `b`.
    pub(crate) fn block_entry(&self, b: BlockId) -> &RegRanges {
        &self.ins[b.index()]
    }
}

/// Apply the edge constraint of `term` (from a predecessor) for the
/// edge landing on `target`.
fn refine_edge(out: &RegRanges, term: &Terminator, target: BlockId) -> RegRanges {
    let mut st = *out;
    if let Terminator::Br {
        lhs,
        op,
        rhs: Operand::Imm(c),
        taken,
        not_taken,
    } = *term
    {
        // Both edges to the same block: the condition proves nothing.
        if taken == not_taken {
            return st;
        }
        let constraint = if target == taken {
            Interval::constraint(op, c, true)
        } else if target == not_taken {
            Interval::constraint(op, c, false)
        } else {
            None
        };
        if let Some(con) = constraint {
            let r = lhs.index();
            // An empty meet means the edge is dead; keep the
            // unrefined state rather than inventing ⊥.
            if let Some(m) = st[r].meet(con) {
                st[r] = m;
            }
        }
    }
    st
}

/// One-instruction transfer; public so the abstract interpreter can walk
/// a block in lockstep with its affine state.
pub(crate) fn step(instr: &Instr, st: &mut RegRanges, summaries: &ProcSummaries) {
    let val = |st: &RegRanges, op: Operand| match op {
        Operand::Reg(r) => st[r.index()],
        Operand::Imm(v) => Interval::point(v),
    };
    match *instr {
        Instr::Load { dst, .. } => st[dst.index()] = Interval::TOP,
        Instr::MovImm { dst, imm } => st[dst.index()] = Interval::point(imm),
        Instr::Mov { dst, src } => st[dst.index()] = st[src.index()],
        Instr::Lea { dst, addr } => {
            let mut v = Interval::point(addr.disp);
            if let Some(b) = addr.base {
                v = v.add(st[b.index()]);
            }
            if let Some(ix) = addr.index {
                v = v.add(st[ix.index()].mul(Interval::point(i64::from(addr.scale))));
            }
            st[dst.index()] = v;
        }
        Instr::Bin { op, dst, rhs } => {
            let l = st[dst.index()];
            let r = val(st, rhs);
            st[dst.index()] = match op {
                BinOp::Add => l.add(r),
                BinOp::Sub => l.sub(r),
                BinOp::Mul => l.mul(r),
                BinOp::And => match rhs {
                    // x & m with m >= 0 lands in [0, m]; if x is already
                    // non-negative the result cannot exceed x either.
                    Operand::Imm(m) if m >= 0 => {
                        let hi = if l.lo >= 0 { m.min(l.hi) } else { m };
                        Interval { lo: 0, hi }
                    }
                    _ => Interval::TOP,
                },
                BinOp::Shl => match r.as_point() {
                    // 1 << 63 is not representable as a positive i64, so
                    // only shifts up to 62 become checked multiplies.
                    Some(k) if (0..=62).contains(&k) => l.mul(Interval::point(1i64 << k)),
                    _ => Interval::TOP,
                },
                BinOp::Shr => match r.as_point() {
                    // Logical shift of a non-negative value matches the
                    // arithmetic shift on its signed bounds.
                    Some(k) if (0..64).contains(&k) && l.lo >= 0 => Interval {
                        lo: l.lo >> k,
                        hi: l.hi >> k,
                    },
                    Some(k) if k >= 64 => Interval::point(0),
                    _ => Interval::TOP,
                },
                BinOp::Rem => match r.as_point() {
                    // Machine semantics: rem by 0 yields 0; the compare
                    // is unsigned, so a positive divisor bounds the
                    // result in [0, n-1] for every operand value.
                    Some(0) => Interval::point(0),
                    Some(n) if n > 0 => {
                        if l.within(0, n - 1) {
                            l
                        } else {
                            Interval { lo: 0, hi: n - 1 }
                        }
                    }
                    _ => Interval::TOP,
                },
                BinOp::Or | BinOp::Xor => Interval::TOP,
            };
        }
        Instr::Call { proc } => {
            let clobbers = summaries.get(proc).clobbers;
            for (r, iv) in st.iter_mut().enumerate().take(14) {
                if clobbers & (1 << r) != 0 {
                    *iv = Interval::TOP;
                }
            }
        }
        Instr::Store { .. } | Instr::Ptwrite { .. } | Instr::Nop => {}
    }
    // FP/SP hold machine frame addresses we never bound.
    st[Reg::FP.index()] = Interval::TOP;
    st[Reg::SP.index()] = Interval::TOP;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcBuilder;
    use crate::proc::ProcId;

    fn counted_loop() -> Procedure {
        // r0 = 0; do { r1 = r0 & 7; r0 += 1 } while (r0 < 100)
        let mut pb = ProcBuilder::new("p", "t.c");
        let body = pb.new_block();
        let exit = pb.new_block();
        pb.mov_imm(Reg::gp(0), 0);
        pb.jmp(body);
        pb.switch_to(body);
        pb.mov(Reg::gp(1), Reg::gp(0));
        pb.bin(BinOp::And, Reg::gp(1), Operand::Imm(7));
        pb.add_imm(Reg::gp(0), 1);
        pb.br(Reg::gp(0), CmpOp::Lt, Operand::Imm(100), body, exit);
        pb.switch_to(exit);
        pb.ret();
        pb.finish(ProcId(0))
    }

    #[test]
    fn loop_counter_is_bounded_by_branch_refinement() {
        let p = counted_loop();
        let cfg = Cfg::build(&p);
        let ra = RangeAnalysis::analyze(&p, &cfg, top_ranges(), &ProcSummaries::default());
        let body = ra.block_entry(crate::proc::BlockId(1));
        // Entry to the body: either 0 (preheader) or a back edge where
        // r0 < 100 held, so r0 in [0, 99].
        assert!(body[0].within(0, 99), "r0 at body entry: {:?}", body[0]);
    }

    #[test]
    fn and_mask_bounds_result() {
        let p = counted_loop();
        let cfg = Cfg::build(&p);
        let ra = RangeAnalysis::analyze(&p, &cfg, top_ranges(), &ProcSummaries::default());
        let exit = ra.block_entry(crate::proc::BlockId(2));
        // r1 = r0 & 7 in the body.
        assert!(exit[1].within(0, 7), "r1 at exit: {:?}", exit[1]);
    }

    #[test]
    fn unsigned_greater_refines_nothing() {
        // r0 unconstrained; br r0 > 5 — the taken side includes huge
        // unsigned values that are negative signed, so no refinement.
        let mut pb = ProcBuilder::new("p", "t.c");
        let yes = pb.new_block();
        let no = pb.new_block();
        pb.mov(Reg::gp(1), Reg::gp(0));
        pb.br(Reg::gp(0), CmpOp::Gt, Operand::Imm(5), yes, no);
        pb.switch_to(yes);
        pb.ret();
        pb.switch_to(no);
        pb.ret();
        let p = pb.finish(ProcId(0));
        let cfg = Cfg::build(&p);
        let ra = RangeAnalysis::analyze(&p, &cfg, top_ranges(), &ProcSummaries::default());
        assert_eq!(ra.block_entry(BlockId(1))[0], Interval::TOP);
        // The not-taken side (r0 <=u 5) is a clean signed interval.
        assert!(ra.block_entry(BlockId(2))[0].within(0, 5));
    }

    #[test]
    fn overflowing_add_widens_to_top() {
        let mut pb = ProcBuilder::new("p", "t.c");
        pb.mov_imm(Reg::gp(0), i64::MAX - 1);
        pb.add_imm(Reg::gp(0), 5);
        pb.ret();
        let p = pb.finish(ProcId(0));
        let cfg = Cfg::build(&p);
        let ra = RangeAnalysis::analyze(&p, &cfg, top_ranges(), &ProcSummaries::default());
        let mut st = *ra.block_entry(BlockId(0));
        for i in &p.block(BlockId(0)).instrs {
            step(i, &mut st, &ProcSummaries::default());
        }
        assert_eq!(st[0], Interval::TOP);
    }
}
