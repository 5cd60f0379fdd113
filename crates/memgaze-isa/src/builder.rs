//! Ergonomic IR construction.
//!
//! [`ProcBuilder`] assembles basic blocks with forward-referenced labels;
//! [`ModuleBuilder`] collects procedures and data into a [`LoadModule`].

use crate::instr::{AddrMode, BinOp, CmpOp, Instr, Operand, Terminator};
use crate::module::LoadModule;
use crate::proc::{BasicBlock, BlockId, ProcId, Procedure};
use crate::reg::Reg;

/// Builder for one procedure.
#[derive(Debug)]
pub struct ProcBuilder {
    name: String,
    src_file: String,
    blocks: Vec<PendingBlock>,
    current: usize,
    line: u32,
}

#[derive(Debug)]
struct PendingBlock {
    instrs: Vec<Instr>,
    term: Option<Terminator>,
    src_line: u32,
}

impl ProcBuilder {
    /// Start a procedure; an entry block is created and selected.
    pub fn new(name: impl Into<String>, src_file: impl Into<String>) -> ProcBuilder {
        ProcBuilder {
            name: name.into(),
            src_file: src_file.into(),
            blocks: vec![PendingBlock {
                instrs: Vec::new(),
                term: None,
                src_line: 0,
            }],
            current: 0,
            line: 0,
        }
    }

    /// Create a new (empty) block without switching to it.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(PendingBlock {
            instrs: Vec::new(),
            term: None,
            src_line: self.line,
        });
        BlockId((self.blocks.len() - 1) as u32)
    }

    /// Select the block that subsequent emissions append to.
    pub fn switch_to(&mut self, b: BlockId) {
        assert!(b.index() < self.blocks.len(), "no such block {b}");
        self.current = b.index();
    }

    /// Set the source line attributed to subsequently emitted code.
    pub(crate) fn at_line(&mut self, line: u32) -> &mut Self {
        self.line = line;
        if self.blocks[self.current].instrs.is_empty() {
            self.blocks[self.current].src_line = line;
        }
        self
    }

    fn emit(&mut self, i: Instr) -> &mut Self {
        let blk = &mut self.blocks[self.current];
        assert!(blk.term.is_none(), "emitting into terminated block");
        blk.instrs.push(i);
        self
    }

    /// `dst ← imm`.
    pub fn mov_imm(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.emit(Instr::MovImm { dst, imm })
    }

    /// `dst ← src`.
    pub fn mov(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.emit(Instr::Mov { dst, src })
    }

    /// `dst ← [addr]`.
    pub fn load(&mut self, dst: Reg, addr: AddrMode) -> &mut Self {
        self.emit(Instr::Load { dst, addr })
    }

    /// `[addr] ← src`.
    pub fn store(&mut self, src: Reg, addr: AddrMode) -> &mut Self {
        self.emit(Instr::Store { src, addr })
    }

    /// `dst ← dst op rhs`.
    pub fn bin(&mut self, op: BinOp, dst: Reg, rhs: Operand) -> &mut Self {
        self.emit(Instr::Bin { op, dst, rhs })
    }

    /// `dst ← dst + imm`.
    pub fn add_imm(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.bin(BinOp::Add, dst, Operand::Imm(imm))
    }

    /// `dst ← ea(addr)`.
    pub fn lea(&mut self, dst: Reg, addr: AddrMode) -> &mut Self {
        self.emit(Instr::Lea { dst, addr })
    }

    /// Call a procedure.
    pub fn call(&mut self, proc: ProcId) -> &mut Self {
        self.emit(Instr::Call { proc })
    }

    /// Terminate the current block with an unconditional jump.
    pub fn jmp(&mut self, target: BlockId) {
        self.terminate(Terminator::Jmp(target));
    }

    /// Terminate with compare-and-branch.
    pub fn br(&mut self, lhs: Reg, op: CmpOp, rhs: Operand, taken: BlockId, not_taken: BlockId) {
        self.terminate(Terminator::Br {
            lhs,
            op,
            rhs,
            taken,
            not_taken,
        });
    }

    /// Terminate with return.
    pub fn ret(&mut self) {
        self.terminate(Terminator::Ret);
    }

    fn terminate(&mut self, t: Terminator) {
        let blk = &mut self.blocks[self.current];
        assert!(blk.term.is_none(), "block already terminated");
        blk.term = Some(t);
    }

    /// Finish, assigning the procedure id.
    ///
    /// # Panics
    /// Panics if any block lacks a terminator.
    pub(crate) fn finish(self, id: ProcId) -> Procedure {
        let blocks = self
            .blocks
            .into_iter()
            .enumerate()
            .map(|(i, b)| BasicBlock {
                id: BlockId(i as u32),
                instrs: b.instrs,
                term: b
                    .term
                    .unwrap_or_else(|| panic!("{}: block {i} not terminated", self.name)),
                src_line: b.src_line,
            })
            .collect();
        let p = Procedure {
            id,
            name: self.name,
            blocks,
            entry: BlockId(0),
            src_file: self.src_file,
        };
        p.validate().expect("builder produced invalid procedure");
        p
    }
}

/// Builder for a load module.
#[derive(Debug)]
pub struct ModuleBuilder {
    module: LoadModule,
}

impl ModuleBuilder {
    /// Start an empty module.
    pub fn new(name: impl Into<String>) -> ModuleBuilder {
        ModuleBuilder {
            module: LoadModule::new(name),
        }
    }

    /// The id the next added procedure will receive.
    pub(crate) fn next_proc_id(&self) -> ProcId {
        ProcId(self.module.procs.len() as u32)
    }

    /// Finish a [`ProcBuilder`] and add it.
    pub fn add(&mut self, pb: ProcBuilder) -> ProcId {
        let id = self.next_proc_id();
        self.module.add_proc(pb.finish(id))
    }

    /// Allocate zeroed global words; returns the base address.
    pub fn alloc_global(&mut self, label: impl Into<String>, words: usize) -> u64 {
        self.module.alloc_global(label, words)
    }

    /// Initialize a previously allocated region.
    pub(crate) fn init_global(&mut self, base: u64, words: &[u64]) {
        self.module.init_global(base, words)
    }

    /// Finish and validate the module.
    pub fn finish(self) -> LoadModule {
        self.module.validate().expect("invalid module");
        self.module
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_counting_loop() {
        let i = Reg::gp(0);
        let mut pb = ProcBuilder::new("count", "c.c");
        let body = pb.new_block();
        let exit = pb.new_block();
        pb.at_line(1).mov_imm(i, 0);
        pb.jmp(body);
        pb.switch_to(body);
        pb.at_line(2).add_imm(i, 1);
        pb.br(i, CmpOp::Lt, Operand::Imm(10), body, exit);
        pb.switch_to(exit);
        pb.ret();

        let mut mb = ModuleBuilder::new("m");
        let id = mb.add(pb);
        let m = mb.finish();
        assert_eq!(id, ProcId(0));
        assert_eq!(m.proc(id).blocks.len(), 3);
        assert_eq!(m.proc(id).blocks[1].src_line, 2);
    }

    #[test]
    #[should_panic(expected = "not terminated")]
    fn unterminated_block_panics() {
        let pb = ProcBuilder::new("bad", "b.c");
        pb.finish(ProcId(0));
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminate_panics() {
        let mut pb = ProcBuilder::new("bad", "b.c");
        pb.ret();
        pb.ret();
    }

    #[test]
    #[should_panic(expected = "terminated block")]
    fn emit_after_terminate_panics() {
        let mut pb = ProcBuilder::new("bad", "b.c");
        pb.ret();
        pb.mov_imm(Reg::gp(0), 1);
    }
}
