//! Procedures and basic blocks.
//!
//! Basic blocks divide code into straight-line sequences such that an
//! instruction is executed if and only if any other in the block is
//! (paper §III-B) — the property the instrumentor's proxy selection relies
//! on.

use crate::instr::{Instr, Terminator};
use serde::{Deserialize, Serialize};

/// Index of a basic block within its procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Index into the procedure's block vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Index of a procedure within its load module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcId(pub u32);

impl ProcId {
    /// Index into the module's procedure vector.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "proc{}", self.0)
    }
}

/// A straight-line instruction sequence ending in one terminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasicBlock {
    /// This block's id within the procedure.
    pub id: BlockId,
    /// Straight-line body.
    pub instrs: Vec<Instr>,
    /// Control transfer out of the block.
    pub term: Terminator,
    /// Source line of the block's first instruction (for attribution).
    pub src_line: u32,
}

impl BasicBlock {
    /// Number of instructions including the terminator.
    pub fn len(&self) -> usize {
        self.instrs.len() + 1
    }

    /// True when the body is empty (the block is just a jump).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Indices of load instructions within the body.
    pub fn load_positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.instrs
            .iter()
            .enumerate()
            .filter(|(_, i)| i.is_load())
            .map(|(p, _)| p)
    }
}

/// A procedure: an entry block and a set of basic blocks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Procedure {
    /// This procedure's id within the module.
    pub id: ProcId,
    /// Demangled name.
    pub name: String,
    /// Basic blocks; `blocks[i].id == BlockId(i)`.
    pub blocks: Vec<BasicBlock>,
    /// Entry block (conventionally `BlockId(0)`).
    pub entry: BlockId,
    /// Source file for attribution.
    pub src_file: String,
}

impl Procedure {
    /// The block with the given id.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Total instruction count (bodies + terminators).
    pub(crate) fn num_instrs(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }

    /// Total number of loads.
    pub(crate) fn num_loads(&self) -> usize {
        self.blocks.iter().map(|b| b.load_positions().count()).sum()
    }

    /// Verify structural invariants (ids dense, terminator targets valid).
    /// Returns the first violation as a typed diagnostic.
    pub(crate) fn validate(&self) -> Result<(), crate::verify::VerifyError> {
        crate::verify::check_procedure(self, "<proc>")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AddrMode, Instr, Terminator};
    use crate::reg::Reg;

    fn simple_proc() -> Procedure {
        Procedure {
            id: ProcId(0),
            name: "f".into(),
            blocks: vec![BasicBlock {
                id: BlockId(0),
                instrs: vec![
                    Instr::MovImm {
                        dst: Reg::gp(0),
                        imm: 1,
                    },
                    Instr::Load {
                        dst: Reg::gp(1),
                        addr: AddrMode::base_disp(Reg::gp(0), 0),
                    },
                ],
                term: Terminator::Ret,
                src_line: 1,
            }],
            entry: BlockId(0),
            src_file: "f.c".into(),
        }
    }

    #[test]
    fn counts() {
        let p = simple_proc();
        assert_eq!(p.num_instrs(), 3);
        assert_eq!(p.num_loads(), 1);
        assert_eq!(
            p.block(BlockId(0)).load_positions().collect::<Vec<_>>(),
            vec![1]
        );
        p.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_target() {
        let mut p = simple_proc();
        p.blocks[0].term = Terminator::Jmp(BlockId(9));
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_entry() {
        let mut p = simple_proc();
        p.entry = BlockId(5);
        assert!(p.validate().is_err());
    }
}
