//! Data-dependence analysis for load classification (paper §III-B).
//!
//! "To analyze access patterns, the instrumentor analyzes data
//! dependencies for each procedure's object code. From data dependencies,
//! the instrumentor classifies each load" into three classes:
//!
//! * **Constant** — scalar loads relative to a frame pointer or global
//!   section;
//! * **Strided** — relative to a loop induction variable with constant
//!   stride;
//! * **Irregular** — all other loads (typically indirect through pointers).
//!
//! This module finds basic and (one level of) derived induction variables
//! per natural loop, determines loop invariance from def sites, and
//! classifies every load's effective address.

use crate::instr::{AddrMode, BinOp, Instr};
use crate::loops::LoopForest;
use crate::proc::{BlockId, Procedure};
use crate::reg::{Reg, NUM_REGS};
use crate::summary::ProcSummaries;
use serde::{Deserialize, Serialize};

/// Static kind of a load's effective address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AddrKind {
    /// Scalar frame-pointer- or global-relative address.
    Constant,
    /// Affine in a loop induction variable.
    Strided {
        /// Address step per loop iteration, in bytes.
        stride: i64,
    },
    /// Anything else (pointer-dependent, multiple variant sources, …).
    Irregular,
}

impl AddrKind {
    /// Collapse to the trace-model load class.
    pub fn to_load_class(self) -> memgaze_model::LoadClass {
        match self {
            AddrKind::Constant => memgaze_model::LoadClass::Constant,
            AddrKind::Strided { .. } => memgaze_model::LoadClass::Strided,
            AddrKind::Irregular => memgaze_model::LoadClass::Irregular,
        }
    }
}

/// How a register behaves with respect to a given loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Component {
    /// Induction variable with the given per-iteration step.
    Iv(i64),
    /// Not redefined inside the loop.
    Invariant,
    /// Redefined in a way we cannot summarize.
    Varying,
}

/// Per-procedure classification of every load.
#[derive(Debug, Clone)]
pub struct DataflowAnalysis {
    /// `kinds[block][instr]` is `Some(kind)` iff that instruction is a load.
    kinds: Vec<Vec<Option<AddrKind>>>,
}

/// Where a register is defined within a loop body, as far as the
/// induction patterns care: nowhere, at exactly one site, or at several.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DefSites {
    /// Not redefined inside the loop.
    None,
    /// One def site: `(block, instruction index)`.
    One(BlockId, usize),
    /// Two or more.
    Many,
}

impl DefSites {
    fn add(&mut self, block: BlockId, idx: usize) {
        *self = match self {
            DefSites::None => DefSites::One(block, idx),
            _ => DefSites::Many,
        };
    }
}

type Defs = [DefSites; NUM_REGS];

/// Per register, the per-iteration step of the induction variable it is
/// in a loop (`None`: not one).
type Ivs = [Option<i64>; NUM_REGS];

/// Def sites of each register within a region of blocks.
///
/// A call pseudo-defines the registers its summary says the callee
/// (transitively) writes.
fn def_sites(
    proc: &Procedure,
    body: impl Iterator<Item = BlockId>,
    summaries: &ProcSummaries,
) -> Defs {
    let mut defs = [DefSites::None; NUM_REGS];
    for b in body {
        let blk = proc.block(b);
        for (i, ins) in blk.instrs.iter().enumerate() {
            if let Some(d) = ins.def() {
                defs[d.index()].add(b, i);
            }
            if let Instr::Call { proc: callee } = ins {
                let sum = summaries.get(*callee);
                for (r, d) in defs.iter_mut().enumerate() {
                    if sum.clobbers_reg(Reg(r as u8)) {
                        d.add(b, i);
                    }
                }
            }
        }
    }
    defs
}

/// Find basic induction variables of a loop: registers whose only def in
/// the loop body is `r ← r ± imm`.
fn basic_ivs(proc: &Procedure, defs: &Defs) -> Ivs {
    let mut ivs = [None; NUM_REGS];
    for (r, sites) in defs.iter().enumerate() {
        let DefSites::One(b, i) = *sites else {
            continue;
        };
        if let Instr::Bin { op, dst, rhs } = proc.block(b).instrs[i] {
            if dst.index() == r {
                let step = match (op, rhs) {
                    (BinOp::Add, crate::instr::Operand::Imm(c)) => Some(c),
                    (BinOp::Sub, crate::instr::Operand::Imm(c)) => Some(-c),
                    _ => None,
                };
                ivs[r] = step.filter(|&s| s != 0);
            }
        }
    }
    ivs
}

/// Extend basic IVs with one level of derived IVs: `j ← mov i` or
/// `j ← lea [inv + i*k + d]` where `i` is a basic IV.
fn derived_ivs(proc: &Procedure, defs: &Defs, basic: &Ivs) -> Ivs {
    let mut all = *basic;
    for (r, sites) in defs.iter().enumerate() {
        let DefSites::One(b, i) = *sites else {
            continue;
        };
        if basic[r].is_some() {
            continue;
        }
        match proc.block(b).instrs[i] {
            Instr::Mov { dst, src } if dst.index() == r => all[r] = basic[src.index()],
            Instr::Lea { dst, addr } if dst.index() == r => {
                let base_ok = addr.base.is_none_or(|br| {
                    defs[br.index()] == DefSites::None && basic[br.index()].is_none()
                });
                if let Some(idx) = addr.index {
                    if base_ok {
                        all[r] = basic[idx.index()].map(|s| s * addr.scale as i64);
                    }
                } else if let Some(br) = addr.base {
                    all[r] = basic[br.index()];
                }
            }
            _ => {}
        }
    }
    all
}

/// Classify one register against a loop.
fn component(reg: Reg, ivs: &Ivs, defs: &Defs) -> Component {
    if let Some(s) = ivs[reg.index()] {
        return Component::Iv(s);
    }
    if defs[reg.index()] == DefSites::None {
        return Component::Invariant;
    }
    Component::Varying
}

/// Classify an address mode within a loop.
fn classify_in_loop(addr: &AddrMode, ivs: &Ivs, defs: &Defs) -> AddrKind {
    let base = addr.base.map(|r| component(r, ivs, defs));
    let index = addr.index.map(|r| component(r, ivs, defs));
    if matches!(base, Some(Component::Varying)) || matches!(index, Some(Component::Varying)) {
        return AddrKind::Irregular;
    }
    let mut stride = 0i64;
    if let Some(Component::Iv(s)) = base {
        stride += s;
    }
    if let Some(Component::Iv(s)) = index {
        stride += s * addr.scale as i64;
    }
    if stride != 0 {
        return AddrKind::Strided { stride };
    }
    // Fully loop-invariant address: Constant only for scalar frame/global
    // addressing (the paper's rule); other invariant derefs stay Irregular.
    if addr.is_scalar_frame_or_global() {
        AddrKind::Constant
    } else {
        AddrKind::Irregular
    }
}

impl DataflowAnalysis {
    /// Classify every load of `proc`, whose loop forest is `forest`.
    /// Calls clobber only the registers `summaries` says the callee
    /// writes, so values live across calls to non-clobbering callees
    /// stay loop-invariant.
    pub fn analyze_in(
        proc: &Procedure,
        forest: &LoopForest,
        summaries: &ProcSummaries,
    ) -> DataflowAnalysis {
        // Per-loop IV steps and def sites, indexed like `forest.loops`.
        let loop_info: Vec<(Ivs, Defs)> = forest
            .loops
            .iter()
            .map(|l| {
                let defs = def_sites(proc, l.body.iter().copied(), summaries);
                let basic = basic_ivs(proc, &defs);
                (derived_ivs(proc, &defs, &basic), defs)
            })
            .collect();

        let mut kinds = Vec::with_capacity(proc.blocks.len());
        for blk in &proc.blocks {
            let mut row = Vec::with_capacity(blk.instrs.len());
            let enclosing = forest.innermost_index(blk.id).map(|li| &loop_info[li]);
            for ins in &blk.instrs {
                let kind = match ins {
                    Instr::Load { addr, .. } => Some(match enclosing {
                        Some((ivs, defs)) => classify_in_loop(addr, ivs, defs),
                        None => {
                            if addr.is_scalar_frame_or_global() {
                                AddrKind::Constant
                            } else {
                                AddrKind::Irregular
                            }
                        }
                    }),
                    _ => None,
                };
                row.push(kind);
            }
            kinds.push(row);
        }
        DataflowAnalysis { kinds }
    }

    /// The kind of the load at `(block, idx)`, or `None` if that
    /// instruction is not a load.
    pub fn load_kind(&self, block: BlockId, idx: usize) -> Option<AddrKind> {
        self.kinds
            .get(block.index())
            .and_then(|row| row.get(idx))
            .copied()
            .flatten()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cfg::Cfg;

    /// Loads per class across the procedure: `[constant, strided,
    /// irregular]`.
    pub(crate) fn class_counts(df: &DataflowAnalysis) -> [u64; 3] {
        let mut c = [0; 3];
        for k in df.kinds.iter().flatten().flatten() {
            c[match k {
                AddrKind::Constant => 0,
                AddrKind::Strided { .. } => 1,
                AddrKind::Irregular => 2,
            }] += 1;
        }
        c
    }

    /// One procedure on its own, under the empty summary table: calls
    /// clobber the conventional registers.
    pub(crate) fn analyze(proc: &Procedure) -> DataflowAnalysis {
        let cfg = Cfg::build(proc);
        let forest = LoopForest::build(proc, &cfg);
        DataflowAnalysis::analyze_in(proc, &forest, &ProcSummaries::default())
    }
    use crate::instr::{CmpOp, Operand, Terminator};
    use crate::proc::{BasicBlock, ProcId};

    /// for(i=0; i<n; i++) { x = A[i]; y = *x; s = fp[-8]; }
    fn loop_proc() -> Procedure {
        let i = Reg::gp(0);
        let a = Reg::gp(1); // base of A, set before loop
        let x = Reg::gp(2);
        let y = Reg::gp(3);
        let s = Reg::gp(4);
        let n = Reg::gp(5);
        Procedure {
            id: ProcId(0),
            name: "k".into(),
            blocks: vec![
                BasicBlock {
                    id: BlockId(0),
                    instrs: vec![
                        Instr::MovImm { dst: i, imm: 0 },
                        Instr::MovImm {
                            dst: a,
                            imm: 0x1000,
                        },
                        Instr::MovImm { dst: n, imm: 100 },
                    ],
                    term: Terminator::Jmp(BlockId(1)),
                    src_line: 1,
                },
                BasicBlock {
                    id: BlockId(1),
                    instrs: vec![
                        // strided: A[i] (index IV, scale 8)
                        Instr::Load {
                            dst: x,
                            addr: AddrMode::base_index(a, i, 8, 0),
                        },
                        // irregular: *x (x defined by a load in the loop)
                        Instr::Load {
                            dst: y,
                            addr: AddrMode::base_disp(x, 0),
                        },
                        // constant: fp[-8]
                        Instr::Load {
                            dst: s,
                            addr: AddrMode::base_disp(Reg::FP, -8),
                        },
                        Instr::Bin {
                            op: BinOp::Add,
                            dst: i,
                            rhs: Operand::Imm(1),
                        },
                    ],
                    term: Terminator::Br {
                        lhs: i,
                        op: CmpOp::Lt,
                        rhs: Operand::Reg(n),
                        taken: BlockId(1),
                        not_taken: BlockId(2),
                    },
                    src_line: 2,
                },
                BasicBlock {
                    id: BlockId(2),
                    instrs: vec![],
                    term: Terminator::Ret,
                    src_line: 3,
                },
            ],
            entry: BlockId(0),
            src_file: "k.c".into(),
        }
    }

    #[test]
    fn classifies_three_classes() {
        let p = loop_proc();
        let df = analyze(&p);
        assert_eq!(
            df.load_kind(BlockId(1), 0),
            Some(AddrKind::Strided { stride: 8 })
        );
        assert_eq!(df.load_kind(BlockId(1), 1), Some(AddrKind::Irregular));
        assert_eq!(df.load_kind(BlockId(1), 2), Some(AddrKind::Constant));
        assert_eq!(df.load_kind(BlockId(1), 3), None); // the Bin
        assert_eq!(class_counts(&df), [1, 1, 1]);
    }

    #[test]
    fn base_register_iv_strides() {
        // p += 16 each iteration; load [p] is strided by 16.
        let p_reg = Reg::gp(0);
        let x = Reg::gp(1);
        let proc = Procedure {
            id: ProcId(0),
            name: "k".into(),
            blocks: vec![
                BasicBlock {
                    id: BlockId(0),
                    instrs: vec![Instr::MovImm {
                        dst: p_reg,
                        imm: 0x1000,
                    }],
                    term: Terminator::Jmp(BlockId(1)),
                    src_line: 1,
                },
                BasicBlock {
                    id: BlockId(1),
                    instrs: vec![
                        Instr::Load {
                            dst: x,
                            addr: AddrMode::base_disp(p_reg, 0),
                        },
                        Instr::Bin {
                            op: BinOp::Add,
                            dst: p_reg,
                            rhs: Operand::Imm(16),
                        },
                    ],
                    term: Terminator::Br {
                        lhs: p_reg,
                        op: CmpOp::Lt,
                        rhs: Operand::Imm(0x2000),
                        taken: BlockId(1),
                        not_taken: BlockId(2),
                    },
                    src_line: 2,
                },
                BasicBlock {
                    id: BlockId(2),
                    instrs: vec![],
                    term: Terminator::Ret,
                    src_line: 3,
                },
            ],
            entry: BlockId(0),
            src_file: "k.c".into(),
        };
        let df = analyze(&proc);
        assert_eq!(
            df.load_kind(BlockId(1), 0),
            Some(AddrKind::Strided { stride: 16 })
        );
    }

    #[test]
    fn decrementing_iv_gives_negative_stride() {
        let i = Reg::gp(0);
        let a = Reg::gp(1);
        let x = Reg::gp(2);
        let proc = Procedure {
            id: ProcId(0),
            name: "k".into(),
            blocks: vec![
                BasicBlock {
                    id: BlockId(0),
                    instrs: vec![
                        Instr::MovImm { dst: i, imm: 100 },
                        Instr::MovImm {
                            dst: a,
                            imm: 0x1000,
                        },
                    ],
                    term: Terminator::Jmp(BlockId(1)),
                    src_line: 1,
                },
                BasicBlock {
                    id: BlockId(1),
                    instrs: vec![
                        Instr::Load {
                            dst: x,
                            addr: AddrMode::base_index(a, i, 4, 0),
                        },
                        Instr::Bin {
                            op: BinOp::Sub,
                            dst: i,
                            rhs: Operand::Imm(1),
                        },
                    ],
                    term: Terminator::Br {
                        lhs: i,
                        op: CmpOp::Gt,
                        rhs: Operand::Imm(0),
                        taken: BlockId(1),
                        not_taken: BlockId(2),
                    },
                    src_line: 2,
                },
                BasicBlock {
                    id: BlockId(2),
                    instrs: vec![],
                    term: Terminator::Ret,
                    src_line: 3,
                },
            ],
            entry: BlockId(0),
            src_file: "k.c".into(),
        };
        let df = analyze(&proc);
        assert_eq!(
            df.load_kind(BlockId(1), 0),
            Some(AddrKind::Strided { stride: -4 })
        );
    }

    #[test]
    fn outside_loop_constants_and_irregulars() {
        let proc = Procedure {
            id: ProcId(0),
            name: "straight".into(),
            blocks: vec![BasicBlock {
                id: BlockId(0),
                instrs: vec![
                    Instr::Load {
                        dst: Reg::gp(0),
                        addr: AddrMode::base_disp(Reg::FP, -16),
                    },
                    Instr::Load {
                        dst: Reg::gp(1),
                        addr: AddrMode::global(0x6000),
                    },
                    Instr::Load {
                        dst: Reg::gp(2),
                        addr: AddrMode::base_disp(Reg::gp(0), 8),
                    },
                ],
                term: Terminator::Ret,
                src_line: 1,
            }],
            entry: BlockId(0),
            src_file: "s.c".into(),
        };
        let df = analyze(&proc);
        assert_eq!(df.load_kind(BlockId(0), 0), Some(AddrKind::Constant));
        assert_eq!(df.load_kind(BlockId(0), 1), Some(AddrKind::Constant));
        assert_eq!(df.load_kind(BlockId(0), 2), Some(AddrKind::Irregular));
    }

    #[test]
    fn call_clobbers_scratch_invariance() {
        // A load through r0 in a loop that also calls: r0 is clobbered by
        // the call, so the load cannot be treated as loop-invariant.
        let proc = Procedure {
            id: ProcId(0),
            name: "k".into(),
            blocks: vec![
                BasicBlock {
                    id: BlockId(0),
                    instrs: vec![Instr::MovImm {
                        dst: Reg::gp(7),
                        imm: 0,
                    }],
                    term: Terminator::Jmp(BlockId(1)),
                    src_line: 1,
                },
                BasicBlock {
                    id: BlockId(1),
                    instrs: vec![
                        Instr::Call { proc: ProcId(0) },
                        Instr::Load {
                            dst: Reg::gp(8),
                            addr: AddrMode::base_disp(Reg::gp(0), 0),
                        },
                        Instr::Bin {
                            op: BinOp::Add,
                            dst: Reg::gp(7),
                            rhs: Operand::Imm(1),
                        },
                    ],
                    term: Terminator::Br {
                        lhs: Reg::gp(7),
                        op: CmpOp::Lt,
                        rhs: Operand::Imm(4),
                        taken: BlockId(1),
                        not_taken: BlockId(2),
                    },
                    src_line: 2,
                },
                BasicBlock {
                    id: BlockId(2),
                    instrs: vec![],
                    term: Terminator::Ret,
                    src_line: 3,
                },
            ],
            entry: BlockId(0),
            src_file: "k.c".into(),
        };
        let df = analyze(&proc);
        assert_eq!(df.load_kind(BlockId(1), 1), Some(AddrKind::Irregular));
    }
}
