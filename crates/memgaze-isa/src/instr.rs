//! Instructions, addressing modes, and block terminators.
//!
//! The two addressing-mode shapes the paper's instrumentor distinguishes
//! (§III-A) are both expressible by [`AddrMode`]:
//!
//! ```text
//! load r_d ← [r_s] + o                 (base + displacement)
//! load r_d ← [r_s1 + r_s2·k] + o       (base + scaled index + displacement)
//! ```
//!
//! `ptwrite`s are inserted for *source registers* (dynamic information);
//! the literals `k` and `o` go to the auxiliary annotation file.

use crate::proc::{BlockId, ProcId};
use crate::reg::Reg;
use serde::{Deserialize, Serialize};

/// A memory addressing mode: `[base + index*scale] + disp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AddrMode {
    /// Base register, if any. Absolute (global) addressing has none.
    pub base: Option<Reg>,
    /// Scaled index register, if any.
    pub index: Option<Reg>,
    /// Scale factor applied to the index register (1, 2, 4, or 8).
    pub scale: u8,
    /// Literal displacement.
    pub disp: i64,
}

impl AddrMode {
    /// `[base] + disp`
    pub fn base_disp(base: Reg, disp: i64) -> AddrMode {
        AddrMode {
            base: Some(base),
            index: None,
            scale: 1,
            disp,
        }
    }

    /// `[base + index*scale] + disp`
    pub fn base_index(base: Reg, index: Reg, scale: u8, disp: i64) -> AddrMode {
        assert!(matches!(scale, 1 | 2 | 4 | 8), "invalid scale {scale}");
        AddrMode {
            base: Some(base),
            index: Some(index),
            scale,
            disp,
        }
    }

    /// Absolute addressing of a global: `[disp]`.
    pub fn global(disp: i64) -> AddrMode {
        AddrMode {
            base: None,
            index: None,
            scale: 1,
            disp,
        }
    }

    /// Registers this mode reads (the `ptwrite` sources).
    pub fn source_regs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.base.into_iter().chain(self.index)
    }

    /// Number of source registers (1-source loads cost one `ptwrite`,
    /// 2-source loads two — paper §III-A and Table III).
    pub fn num_sources(&self) -> usize {
        self.base.is_some() as usize + self.index.is_some() as usize
    }

    /// Whether this is scalar frame or global addressing — the *structural*
    /// precondition of the Constant class (paper §III-B): offset-only
    /// addressing relative to the frame pointer or to a global section.
    pub fn is_scalar_frame_or_global(&self) -> bool {
        match (self.base, self.index) {
            (Some(b), None) => b.is_fp() || b.is_sp(),
            (None, None) => true,
            _ => false,
        }
    }
}

impl std::fmt::Display for AddrMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("[")?;
        let mut first = true;
        if let Some(b) = self.base {
            write!(f, "{b}")?;
            first = false;
        }
        if let Some(i) = self.index {
            if !first {
                f.write_str(" + ")?;
            }
            write!(f, "{i}*{}", self.scale)?;
            first = false;
        }
        if self.disp != 0 || first {
            if !first {
                f.write_str(" + ")?;
            }
            write!(f, "{:#x}", self.disp)?;
        }
        f.write_str("]")
    }
}

/// A register-or-immediate operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// A register source.
    Reg(Reg),
    /// An immediate literal.
    Imm(i64),
}

impl Operand {
    /// The register, if this operand is one.
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }

    /// The immediate, if this operand is one.
    pub fn as_imm(self) -> Option<i64> {
        match self {
            Operand::Imm(i) => Some(i),
            Operand::Reg(_) => None,
        }
    }
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "{i:#x}"),
        }
    }
}

/// Binary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Unsigned remainder (0 divisor yields 0, keeping the interpreter total).
    Rem,
}

/// Comparison predicates for compare-and-branch terminators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    Lt,
    /// Unsigned less-or-equal.
    Le,
    /// Unsigned greater-than.
    Gt,
    /// Unsigned greater-or-equal.
    Ge,
}

impl CmpOp {
    /// Evaluate the predicate on unsigned operands.
    #[inline]
    pub fn eval(self, lhs: u64, rhs: u64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

/// A straight-line (non-terminator) instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Instr {
    /// `dst ← [addr]` — a memory load (8-byte word).
    Load {
        /// Destination register.
        dst: Reg,
        /// Effective-address expression.
        addr: AddrMode,
    },
    /// `[addr] ← src` — a memory store (8-byte word).
    Store {
        /// Source register.
        src: Reg,
        /// Effective-address expression.
        addr: AddrMode,
    },
    /// `dst ← imm`.
    MovImm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// `dst ← src` register move.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst ← dst op rhs`.
    Bin {
        /// Operation.
        op: BinOp,
        /// Destination (and left) register.
        dst: Reg,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst ← effective_address(addr)` without touching memory.
    Lea {
        /// Destination register.
        dst: Reg,
        /// Address expression whose value is computed.
        addr: AddrMode,
    },
    /// Call a procedure (arguments/results pass through registers by
    /// convention).
    Call {
        /// Callee.
        proc: ProcId,
    },
    /// `ptwrite src` — emit the register value as a Processor Tracing
    /// packet. Inserted by the instrumentor; a single instruction with no
    /// architectural side effects, so hardware can mask it entirely.
    Ptwrite {
        /// Register whose value is written to the trace buffer.
        src: Reg,
    },
    /// No operation (padding from rewriting).
    Nop,
}

impl Instr {
    /// The memory addressing mode, if this instruction has one.
    pub fn addr_mode(&self) -> Option<&AddrMode> {
        match self {
            Instr::Load { addr, .. } | Instr::Store { addr, .. } | Instr::Lea { addr, .. } => {
                Some(addr)
            }
            _ => None,
        }
    }

    /// Whether this is a load.
    pub fn is_load(&self) -> bool {
        matches!(self, Instr::Load { .. })
    }

    /// Whether this is a `ptwrite`.
    pub fn is_ptwrite(&self) -> bool {
        matches!(self, Instr::Ptwrite { .. })
    }

    /// Registers read by this instruction, address sources first.
    pub fn uses(&self) -> impl Iterator<Item = Reg> {
        let regs: [Option<Reg>; 3] = match *self {
            Instr::Load { addr, .. } | Instr::Lea { addr, .. } => [addr.base, addr.index, None],
            Instr::Store { src, addr } => [addr.base, addr.index, Some(src)],
            Instr::Mov { src, .. } | Instr::Ptwrite { src } => [Some(src), None, None],
            Instr::Bin { dst, rhs, .. } => [Some(dst), rhs.as_reg(), None],
            Instr::MovImm { .. } | Instr::Call { .. } | Instr::Nop => [None; 3],
        };
        regs.into_iter().flatten()
    }

    /// The register written by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Instr::Load { dst, .. }
            | Instr::MovImm { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Lea { dst, .. } => Some(*dst),
            _ => None,
        }
    }
}

/// A basic-block terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional jump.
    Jmp(BlockId),
    /// Compare-and-branch: `if lhs op rhs goto taken else goto not_taken`.
    Br {
        /// Left comparison operand (register).
        lhs: Reg,
        /// Predicate.
        op: CmpOp,
        /// Right comparison operand.
        rhs: Operand,
        /// Target when the predicate holds.
        taken: BlockId,
        /// Target otherwise.
        not_taken: BlockId,
    },
    /// Return from the procedure.
    Ret,
}

impl Terminator {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jmp(b) => vec![*b],
            Terminator::Br {
                taken, not_taken, ..
            } => {
                if taken == not_taken {
                    vec![*taken]
                } else {
                    vec![*taken, *not_taken]
                }
            }
            Terminator::Ret => vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_mode_sources() {
        let m = AddrMode::base_index(Reg::gp(1), Reg::gp(2), 8, 16);
        assert_eq!(m.num_sources(), 2);
        let srcs: Vec<Reg> = m.source_regs().collect();
        assert_eq!(srcs, vec![Reg::gp(1), Reg::gp(2)]);
        assert!(!m.is_scalar_frame_or_global());

        assert!(AddrMode::base_disp(Reg::FP, -8).is_scalar_frame_or_global());
        assert!(AddrMode::global(0x6000).is_scalar_frame_or_global());
        assert!(!AddrMode::base_disp(Reg::gp(0), 0).is_scalar_frame_or_global());
        assert_eq!(AddrMode::global(0x6000).num_sources(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid scale")]
    fn bad_scale_rejected() {
        AddrMode::base_index(Reg::gp(0), Reg::gp(1), 3, 0);
    }

    #[test]
    fn instr_use_def() {
        let ld = Instr::Load {
            dst: Reg::gp(0),
            addr: AddrMode::base_disp(Reg::gp(1), 0),
        };
        assert_eq!(ld.def(), Some(Reg::gp(0)));
        assert_eq!(ld.uses().collect::<Vec<_>>(), vec![Reg::gp(1)]);
        assert!(ld.is_load());

        let bin = Instr::Bin {
            op: BinOp::Add,
            dst: Reg::gp(2),
            rhs: Operand::Reg(Reg::gp(3)),
        };
        assert_eq!(bin.def(), Some(Reg::gp(2)));
        assert_eq!(bin.uses().collect::<Vec<_>>(), vec![Reg::gp(2), Reg::gp(3)]);

        let ptw = Instr::Ptwrite { src: Reg::gp(5) };
        assert!(ptw.is_ptwrite());
        assert_eq!(ptw.def(), None);
        assert_eq!(ptw.uses().collect::<Vec<_>>(), vec![Reg::gp(5)]);
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Jmp(BlockId(3)).successors(), vec![BlockId(3)]);
        assert_eq!(Terminator::Ret.successors(), vec![]);
        let br = Terminator::Br {
            lhs: Reg::gp(0),
            op: CmpOp::Lt,
            rhs: Operand::Imm(10),
            taken: BlockId(1),
            not_taken: BlockId(2),
        };
        assert_eq!(br.successors(), vec![BlockId(1), BlockId(2)]);
        let self_br = Terminator::Br {
            lhs: Reg::gp(0),
            op: CmpOp::Lt,
            rhs: Operand::Imm(10),
            taken: BlockId(1),
            not_taken: BlockId(1),
        };
        assert_eq!(self_br.successors(), vec![BlockId(1)]);
    }

    #[test]
    fn cmp_eval() {
        assert!(CmpOp::Lt.eval(1, 2));
        assert!(!CmpOp::Lt.eval(2, 2));
        assert!(CmpOp::Le.eval(2, 2));
        assert!(CmpOp::Ge.eval(2, 2));
        assert!(CmpOp::Gt.eval(3, 2));
        assert!(CmpOp::Eq.eval(7, 7));
        assert!(CmpOp::Ne.eval(7, 8));
    }

    #[test]
    fn display_addr_mode() {
        let m = AddrMode::base_index(Reg::gp(1), Reg::gp(2), 8, 16);
        assert_eq!(m.to_string(), "[r1 + r2*8 + 0x10]");
        assert_eq!(AddrMode::global(0x60).to_string(), "[0x60]");
        assert_eq!(AddrMode::base_disp(Reg::FP, 0).to_string(), "[fp]");
    }
}
