//! Interpreter for load modules.
//!
//! Executes a module on a small machine — 16 registers, sparse paged
//! memory, an implicit call stack — and streams events to an
//! [`EventSink`]: one event per executed load (ip, effective address,
//! load-counter time) and one per executed `ptwrite` (ip, register
//! payload). The Processor-Tracing model consumes the `ptwrite` stream;
//! full-trace validation baselines consume the load stream.

use crate::instr::{AddrMode, BinOp, Instr, Operand, Terminator};
use crate::module::{LoadModule, INSTR_BYTES};
use crate::proc::{BlockId, ProcId};
use crate::reg::{Reg, NUM_REGS};
use memgaze_model::Ip;
use std::cell::Cell;
use std::collections::HashMap;

const PAGE_BYTES: u64 = 4096;
const STACK_TOP: u64 = 0x7fff_ffff_f000;
const FRAME_BYTES: u64 = 256;

/// Observer of the executed instruction stream.
pub trait EventSink {
    /// An executed load: instruction address, effective data address, and
    /// the zero-based index of this load in the executed load stream.
    fn on_load(&mut self, ip: Ip, addr: u64, load_time: u64) {
        let _ = (ip, addr, load_time);
    }
    /// An executed `ptwrite`: instruction address, register payload, and
    /// the current load-counter time (loads executed so far).
    fn on_ptwrite(&mut self, ip: Ip, payload: u64, load_time: u64) {
        let _ = (ip, payload, load_time);
    }
    /// An executed store (counted, never traced — MemGaze is load-level).
    fn on_store(&mut self, ip: Ip, addr: u64, load_time: u64) {
        let _ = (ip, addr, load_time);
    }
}

/// Sink that ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;
impl EventSink for NullSink {}

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions executed (terminators included).
    pub instrs: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// `ptwrite`s executed.
    pub ptwrites: u64,
}

impl ExecStats {
    /// Ratio of executed `ptwrite`s to non-`ptwrite` instructions — the
    /// overhead predictor of paper Fig. 7 (fourth series).
    pub fn ptwrite_ratio(&self) -> f64 {
        let non_ptw = self.instrs.saturating_sub(self.ptwrites);
        if non_ptw == 0 {
            0.0
        } else {
            self.ptwrites as f64 / non_ptw as f64
        }
    }
}

type Page = [u8; PAGE_BYTES as usize];

/// Entries of the direct-mapped page memo.
const MEMO_SLOTS: usize = 64;
/// Memo tag no page number can equal (page numbers are below 2^52).
const MEMO_EMPTY: u64 = u64::MAX;
/// Memoised answer "this page is not resident".
const UNMAPPED: u32 = u32::MAX;

/// Sparse paged memory.
///
/// Pages live in a `Vec` in first-touch order; `index` maps a page
/// number to its position. In front of the index sits a direct-mapped
/// memo keyed on the low bits of the page number, so a repeated page —
/// nearly every access of a loop over a few arrays and one stack frame —
/// is found by one compare, without hashing. The memo also remembers
/// that a page is *not* resident; mapping a page overwrites the memo
/// entry it would be found through, so the memo never disagrees with
/// the index.
///
/// A word that lies inside one page is read or written with one page
/// lookup; a word that straddles a page boundary (including the wrap at
/// `u64::MAX`) takes the byte-wise path. Both give the bytes the
/// byte-wise path alone would.
#[derive(Debug)]
pub struct Memory {
    pages: Vec<Box<Page>>,
    index: HashMap<u64, u32>,
    /// `(page number, position in pages | UNMAPPED)`.
    memo: [Cell<(u64, u32)>; MEMO_SLOTS],
}

impl Default for Memory {
    fn default() -> Memory {
        Memory::new()
    }
}

impl Memory {
    /// Empty memory.
    pub fn new() -> Memory {
        Memory {
            pages: Vec::new(),
            index: HashMap::new(),
            memo: std::array::from_fn(|_| Cell::new((MEMO_EMPTY, UNMAPPED))),
        }
    }

    /// Position of page `page_no` in `pages`, or `UNMAPPED`.
    #[inline]
    fn lookup(&self, page_no: u64) -> u32 {
        let memo = &self.memo[page_no as usize % MEMO_SLOTS];
        let (tag, pos) = memo.get();
        if tag == page_no {
            return pos;
        }
        let pos = self.index.get(&page_no).copied().unwrap_or(UNMAPPED);
        memo.set((page_no, pos));
        pos
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&Page> {
        self.pages
            .get(self.lookup(addr / PAGE_BYTES) as usize)
            .map(|p| &**p)
    }

    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut Page {
        let page_no = addr / PAGE_BYTES;
        let mut pos = self.lookup(page_no);
        if pos == UNMAPPED {
            pos = u32::try_from(self.pages.len()).expect("fewer than 2^32 resident pages");
            self.pages.push(Box::new([0; PAGE_BYTES as usize]));
            self.index.insert(page_no, pos);
            self.memo[page_no as usize % MEMO_SLOTS].set((page_no, pos));
        }
        &mut self.pages[pos as usize]
    }

    /// Read one byte (unmapped memory reads as zero).
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr % PAGE_BYTES) as usize],
            None => 0,
        }
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.page_mut(addr)[(addr % PAGE_BYTES) as usize] = v;
    }

    /// Read a little-endian u64 (alignment not required; unmapped
    /// memory reads as zero).
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr % PAGE_BYTES) as usize;
        if off + 8 > PAGE_BYTES as usize {
            return self.read_straddling(addr);
        }
        match self.page(addr) {
            Some(p) => u64::from_le_bytes(p[off..off + 8].try_into().expect("8-byte slice")),
            None => 0,
        }
    }

    /// Write a little-endian u64.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        let off = (addr % PAGE_BYTES) as usize;
        if off + 8 <= PAGE_BYTES as usize {
            self.page_mut(addr)[off..off + 8].copy_from_slice(&v.to_le_bytes());
        } else {
            self.write_straddling(addr, v);
        }
    }

    #[cold]
    fn read_straddling(&self, addr: u64) -> u64 {
        let mut v = 0u64;
        for i in 0..8 {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    #[cold]
    fn write_straddling(&mut self, addr: u64, v: u64) {
        for i in 0..8 {
            self.write_u8(addr.wrapping_add(i), (v >> (8 * i)) as u8);
        }
    }

    /// Store `words` from `base` up, a page at a time. A page none of
    /// whose words is nonzero is not made resident.
    fn load_image(&mut self, base: u64, words: &[u64]) {
        if !base.is_multiple_of(8) {
            // Words may straddle pages: one at a time.
            for (i, &w) in words.iter().enumerate() {
                if w != 0 {
                    self.write_u64(base.wrapping_add(i as u64 * 8), w);
                }
            }
            return;
        }
        let mut addr = base;
        let mut rest = words;
        while !rest.is_empty() {
            let off = (addr % PAGE_BYTES) as usize;
            let n = rest.len().min((PAGE_BYTES as usize - off) / 8);
            let (chunk, tail) = rest.split_at(n);
            if chunk.iter().any(|&w| w != 0) {
                let bytes = &mut self.page_mut(addr)[off..off + n * 8];
                for (dst, w) in bytes.chunks_exact_mut(8).zip(chunk) {
                    dst.copy_from_slice(&w.to_le_bytes());
                }
            }
            addr = addr.wrapping_add(n as u64 * 8);
            rest = tail;
        }
    }

    /// Number of resident pages (for memory accounting in tests).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

/// One call-stack frame: the return continuation.
#[derive(Debug, Clone, Copy)]
struct Frame {
    proc: ProcId,
    block: BlockId,
    /// Index of the *next* instruction to execute on return.
    idx: usize,
    saved_fp: u64,
    saved_sp: u64,
}

/// The interpreter.
pub struct Machine<'m, S: EventSink> {
    module: &'m LoadModule,
    layout: crate::module::ModuleLayout,
    /// Architectural registers.
    pub regs: [u64; NUM_REGS],
    /// Data memory.
    pub mem: Memory,
    sink: S,
    stats: ExecStats,
    call_stack: Vec<Frame>,
}

/// Error from a bounded run.
#[derive(Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The step budget was exhausted before the entry procedure returned.
    StepBudgetExhausted {
        /// Instructions executed when the budget ran out.
        executed: u64,
    },
    /// Call stack exceeded the depth limit.
    StackOverflow,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::StepBudgetExhausted { executed } => {
                write!(f, "step budget exhausted after {executed} instructions")
            }
            ExecError::StackOverflow => f.write_str("call stack overflow"),
        }
    }
}

impl std::error::Error for ExecError {}

const MAX_CALL_DEPTH: usize = 1024;

impl<'m, S: EventSink> Machine<'m, S> {
    /// A machine over `module`, with the data image loaded and the stack
    /// set up.
    pub fn new(module: &'m LoadModule, sink: S) -> Machine<'m, S> {
        let mut mem = Memory::new();
        for d in &module.data {
            mem.load_image(d.base, &d.words);
        }
        let mut regs = [0u64; NUM_REGS];
        regs[Reg::SP.index()] = STACK_TOP;
        regs[Reg::FP.index()] = STACK_TOP;
        Machine {
            layout: module.layout(),
            module,
            regs,
            mem,
            sink,
            stats: ExecStats::default(),
            call_stack: Vec::new(),
        }
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Consume the machine, returning the sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    #[inline]
    fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    #[inline]
    fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.index()] = v;
    }

    #[inline]
    fn operand(&self, o: Operand) -> u64 {
        match o {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(i) => i as u64,
        }
    }

    #[inline]
    fn effective_addr(&self, m: &AddrMode) -> u64 {
        let mut a = m.disp as u64;
        if let Some(b) = m.base {
            a = a.wrapping_add(self.reg(b));
        }
        if let Some(i) = m.index {
            a = a.wrapping_add(self.reg(i).wrapping_mul(m.scale as u64));
        }
        a
    }

    /// Open a frame: all arithmetic wraps, as everywhere in the machine.
    fn enter_proc(&mut self) {
        let sp = self.reg(Reg::SP);
        self.set_reg(Reg::FP, sp);
        self.set_reg(Reg::SP, sp.wrapping_sub(FRAME_BYTES));
    }

    /// Run `entry` to completion (its `Ret` at depth 0) under a step
    /// budget.
    pub fn run(&mut self, entry: ProcId, max_instrs: u64) -> Result<ExecStats, ExecError> {
        let module = self.module;
        let outer_fp = self.reg(Reg::FP);
        let outer_sp = self.reg(Reg::SP);
        self.enter_proc();

        // The position: procedure and block, plus the block's body,
        // terminator and base address, re-read only when the block
        // changes.
        let mut proc = entry;
        let mut block = module.proc(proc).entry;
        let mut idx = 0usize;
        loop {
            let blk = &module.procs[proc.index()].blocks[block.index()];
            let base_ip = self.layout.ip_of(proc, block, 0).raw();
            let ip_at = |idx: usize| Ip(base_ip + idx as u64 * INSTR_BYTES);
            let mut call = None;
            for (i, ins) in blk.instrs.iter().enumerate().skip(idx) {
                if self.stats.instrs >= max_instrs {
                    return Err(ExecError::StepBudgetExhausted {
                        executed: self.stats.instrs,
                    });
                }
                self.stats.instrs += 1;
                match *ins {
                    Instr::Load { dst, addr } => {
                        let ea = self.effective_addr(&addr);
                        self.sink.on_load(ip_at(i), ea, self.stats.loads);
                        self.stats.loads += 1;
                        let v = self.mem.read_u64(ea);
                        self.set_reg(dst, v);
                    }
                    Instr::Store { src, addr } => {
                        let ea = self.effective_addr(&addr);
                        self.sink.on_store(ip_at(i), ea, self.stats.loads);
                        self.stats.stores += 1;
                        let v = self.reg(src);
                        self.mem.write_u64(ea, v);
                    }
                    Instr::MovImm { dst, imm } => self.set_reg(dst, imm as u64),
                    Instr::Mov { dst, src } => {
                        let v = self.reg(src);
                        self.set_reg(dst, v)
                    }
                    Instr::Bin { op, dst, rhs } => {
                        let a = self.reg(dst);
                        let b = self.operand(rhs);
                        let v = match op {
                            BinOp::Add => a.wrapping_add(b),
                            BinOp::Sub => a.wrapping_sub(b),
                            BinOp::Mul => a.wrapping_mul(b),
                            BinOp::And => a & b,
                            BinOp::Or => a | b,
                            BinOp::Xor => a ^ b,
                            BinOp::Shl => a.wrapping_shl(b as u32),
                            BinOp::Shr => a.wrapping_shr(b as u32),
                            BinOp::Rem => {
                                if b == 0 {
                                    0
                                } else {
                                    a % b
                                }
                            }
                        };
                        self.set_reg(dst, v);
                    }
                    Instr::Lea { dst, addr } => {
                        let ea = self.effective_addr(&addr);
                        self.set_reg(dst, ea);
                    }
                    Instr::Call { proc: callee } => {
                        call = Some((callee, i + 1));
                        break;
                    }
                    Instr::Ptwrite { src } => {
                        let v = self.reg(src);
                        self.stats.ptwrites += 1;
                        self.sink.on_ptwrite(ip_at(i), v, self.stats.loads);
                    }
                    Instr::Nop => {}
                }
            }
            if let Some((callee, resume)) = call {
                if self.call_stack.len() >= MAX_CALL_DEPTH {
                    return Err(ExecError::StackOverflow);
                }
                self.call_stack.push(Frame {
                    proc,
                    block,
                    idx: resume,
                    saved_fp: self.reg(Reg::FP),
                    saved_sp: self.reg(Reg::SP),
                });
                self.enter_proc();
                proc = callee;
                block = module.proc(callee).entry;
                idx = 0;
                continue;
            }

            if self.stats.instrs >= max_instrs {
                return Err(ExecError::StepBudgetExhausted {
                    executed: self.stats.instrs,
                });
            }
            self.stats.instrs += 1;
            idx = 0;
            match blk.term {
                Terminator::Jmp(t) => block = t,
                Terminator::Br {
                    lhs,
                    op,
                    rhs,
                    taken,
                    not_taken,
                } => {
                    let l = self.reg(lhs);
                    let r = self.operand(rhs);
                    block = if op.eval(l, r) { taken } else { not_taken };
                }
                Terminator::Ret => match self.call_stack.pop() {
                    Some(f) => {
                        self.set_reg(Reg::FP, f.saved_fp);
                        self.set_reg(Reg::SP, f.saved_sp);
                        proc = f.proc;
                        block = f.block;
                        idx = f.idx;
                    }
                    None => {
                        self.set_reg(Reg::FP, outer_fp);
                        self.set_reg(Reg::SP, outer_sp);
                        return Ok(self.stats);
                    }
                },
            }
        }
    }
}

/// Sink recording every load (used by tests and the full-trace baseline).
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    /// Recorded `(ip, effective address, load time)` triples.
    pub loads: Vec<(Ip, u64, u64)>,
    /// Recorded `(ip, payload, load time)` ptwrite triples.
    pub ptwrites: Vec<(Ip, u64, u64)>,
}

impl EventSink for VecSink {
    fn on_load(&mut self, ip: Ip, addr: u64, load_time: u64) {
        self.loads.push((ip, addr, load_time));
    }
    fn on_ptwrite(&mut self, ip: Ip, payload: u64, load_time: u64) {
        self.ptwrites.push((ip, payload, load_time));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ModuleBuilder, ProcBuilder};
    use crate::instr::{AddrMode, CmpOp, Operand};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// sum = Σ A[i] for i in 0..n; returns module and the A base.
    fn sum_module(n: i64) -> (LoadModule, u64) {
        let mut mb = ModuleBuilder::new("sum");
        let a = mb.alloc_global("A", n as usize);
        mb.init_global(a, &(1..=n as u64).collect::<Vec<_>>());

        let (i, base, x, acc) = (Reg::gp(0), Reg::gp(1), Reg::gp(2), Reg::gp(3));
        let mut pb = ProcBuilder::new("sum", "sum.c");
        let body = pb.new_block();
        let exit = pb.new_block();
        pb.mov_imm(i, 0).mov_imm(base, a as i64).mov_imm(acc, 0);
        pb.jmp(body);
        pb.switch_to(body);
        pb.load(x, AddrMode::base_index(base, i, 8, 0));
        pb.bin(BinOp::Add, acc, Operand::Reg(x));
        pb.add_imm(i, 1);
        pb.br(i, CmpOp::Lt, Operand::Imm(n), body, exit);
        pb.switch_to(exit);
        pb.ret();
        mb.add(pb);
        (mb.finish(), a)
    }

    #[test]
    fn sums_an_array() {
        let (m, _a) = sum_module(10);
        let mut mach = Machine::new(&m, VecSink::default());
        let stats = mach.run(ProcId(0), 10_000).unwrap();
        assert_eq!(mach.regs[Reg::gp(3).index()], 55);
        assert_eq!(stats.loads, 10);
        let sink = mach.into_sink();
        assert_eq!(sink.loads.len(), 10);
        // Load times are 0..10 and addresses are strided by 8.
        for (k, (_, addr, t)) in sink.loads.iter().enumerate() {
            assert_eq!(*t, k as u64);
            if k > 0 {
                assert_eq!(addr - sink.loads[k - 1].1, 8);
            }
        }
    }

    #[test]
    fn step_budget_enforced() {
        let (m, _) = sum_module(1000);
        let mut mach = Machine::new(&m, NullSink);
        let err = mach.run(ProcId(0), 100).unwrap_err();
        assert!(matches!(err, ExecError::StepBudgetExhausted { .. }));
    }

    #[test]
    fn calls_and_frames() {
        // leaf: writes fp-8 then reads it back (a Constant load).
        let mut mb = ModuleBuilder::new("calls");
        let v = Reg::gp(0);
        let mut leaf = ProcBuilder::new("leaf", "c.c");
        leaf.mov_imm(v, 7);
        leaf.store(v, AddrMode::base_disp(Reg::FP, -8));
        leaf.load(v, AddrMode::base_disp(Reg::FP, -8));
        leaf.ret();
        let leaf_id = mb.add(leaf);

        let mut main = ProcBuilder::new("main", "c.c");
        main.call(leaf_id);
        main.call(leaf_id);
        main.ret();
        let main_id = mb.add(main);

        let m = mb.finish();
        let mut mach = Machine::new(&m, VecSink::default());
        let stats = mach.run(main_id, 1000).unwrap();
        assert_eq!(stats.loads, 2);
        assert_eq!(stats.stores, 2);
        assert_eq!(mach.regs[Reg::gp(0).index()], 7);
        // FP restored after calls.
        assert_eq!(mach.regs[Reg::FP.index()], STACK_TOP);
        // Both frame accesses hit the same frame slot (same fp both calls).
        let sink = mach.into_sink();
        assert_eq!(sink.loads[0].1, sink.loads[1].1);
    }

    #[test]
    fn ptwrite_events_carry_register_payload() {
        let mut mb = ModuleBuilder::new("ptw");
        let r = Reg::gp(0);
        let mut pb = ProcBuilder::new("f", "f.c");
        pb.mov_imm(r, 0xabcd);
        pb.ptwrite(r);
        pb.ret();
        let id = mb.add(pb);
        let m = mb.finish();
        let mut mach = Machine::new(&m, VecSink::default());
        let stats = mach.run(id, 100).unwrap();
        assert_eq!(stats.ptwrites, 1);
        let sink = mach.into_sink();
        assert_eq!(sink.ptwrites.len(), 1);
        assert_eq!(sink.ptwrites[0].1, 0xabcd);
    }

    #[test]
    fn memory_read_write_roundtrip() {
        let mut mem = Memory::new();
        mem.write_u64(0x1000, 0xdead_beef_cafe_babe);
        assert_eq!(mem.read_u64(0x1000), 0xdead_beef_cafe_babe);
        // Unaligned, page-crossing access.
        mem.write_u64(0x1ffd, 0x0123_4567_89ab_cdef);
        assert_eq!(mem.read_u64(0x1ffd), 0x0123_4567_89ab_cdef);
        // Unmapped reads as zero.
        assert_eq!(mem.read_u64(0x99_0000), 0);
        assert!(mem.resident_pages() >= 2);
    }

    /// The word path against the byte path it replaced: one memory is
    /// driven through `read_u64`/`write_u64`, the other through eight
    /// `read_u8`/`write_u8` calls, over aligned, unaligned,
    /// page-straddling and address-space-wrapping words, reads and writes
    /// interleaved. More pages than memo entries are touched, several of
    /// them sharing a memo entry, so evicted and negative entries are
    /// exercised too.
    #[test]
    fn word_path_equals_byte_path() {
        let byte_read = |m: &Memory, addr: u64| {
            (0..8).fold(0u64, |v, i| {
                v | (m.read_u8(addr.wrapping_add(i)) as u64) << (8 * i)
            })
        };
        let byte_write = |m: &mut Memory, addr: u64, v: u64| {
            for i in 0..8 {
                m.write_u8(addr.wrapping_add(i), (v >> (8 * i)) as u8);
            }
        };
        let pages: Vec<u64> = (0..3 * MEMO_SLOTS as u64)
            .map(|p| p * 37 % (2 * MEMO_SLOTS as u64) * PAGE_BYTES + 0x10_0000)
            .chain([0, STACK_TOP - PAGE_BYTES, u64::MAX - PAGE_BYTES + 1])
            .collect();
        let offsets = [
            0,
            8,
            0x7f8,
            3,
            0x801,
            PAGE_BYTES - 8,
            PAGE_BYTES - 7,
            PAGE_BYTES - 4,
            PAGE_BYTES - 1,
        ];
        let (mut words, mut bytes) = (Memory::new(), Memory::new());
        let mut rng = SmallRng::seed_from_u64(19);
        for _ in 0..20_000 {
            let page = pages[rng.gen_range(0..pages.len())];
            let addr = page.wrapping_add(offsets[rng.gen_range(0..offsets.len())]);
            if rng.gen_range(0..4u32) == 0 {
                let v = rng.gen::<u64>();
                words.write_u64(addr, v);
                byte_write(&mut bytes, addr, v);
            }
            assert_eq!(words.read_u64(addr), byte_read(&bytes, addr), "{addr:#x}");
            assert_eq!(words.resident_pages(), bytes.resident_pages());
        }
        // The wrap at the top of the address space, and the reverse
        // direction: what the byte path wrote, the word path reads.
        let top = u64::MAX - 3;
        words.write_u64(top, 0x0123_4567_89ab_cdef);
        byte_write(&mut bytes, top, 0x0123_4567_89ab_cdef);
        for addr in [top, top.wrapping_add(4), 0, u64::MAX - 7] {
            assert_eq!(words.read_u64(addr), byte_read(&bytes, addr), "{addr:#x}");
            assert_eq!(bytes.read_u64(addr), byte_read(&words, addr), "{addr:#x}");
        }
        assert_eq!(words.read_u64(0) as u32, 0x0123_4567);
        assert_eq!(words.resident_pages(), bytes.resident_pages());
        // Unmapped reads are zero and map nothing.
        let before = words.resident_pages();
        assert_eq!(words.read_u64(0x5555_0000_0ff9), 0);
        assert_eq!(words.read_u64(0x5555_0000_0000), 0);
        assert_eq!(words.resident_pages(), before);
    }

    /// The data image lands where the word-at-a-time load put it, and an
    /// all-zero page of it stays unmapped.
    #[test]
    fn image_load_equals_word_writes() {
        for base in [0x10_0000u64, 0x10_0ff8, 0x10_0ffb, u64::MAX - 15] {
            let mut image: Vec<u64> = (1..=1500u64).collect();
            image[600..1300].fill(0);
            let mut m = LoadModule::new("image");
            m.data.push(crate::module::DataInit {
                label: "d".into(),
                base,
                words: image.clone(),
            });
            let mach = Machine::new(&m, NullSink);
            let mut want = Memory::new();
            for (i, &w) in image.iter().enumerate() {
                if w != 0 {
                    want.write_u64(base.wrapping_add(i as u64 * 8), w);
                }
            }
            for i in 0..image.len() as u64 + 2 {
                let addr = base.wrapping_add(i * 8);
                assert_eq!(mach.mem.read_u64(addr), want.read_u64(addr), "{addr:#x}");
            }
            assert_eq!(
                mach.mem.resident_pages(),
                want.resident_pages(),
                "{base:#x}"
            );
        }
    }

    /// A call below the bottom of the address space wraps like every
    /// other operation of the machine (it used to panic the debug build).
    #[test]
    fn frame_below_zero_wraps() {
        let mut mb = ModuleBuilder::new("low");
        let mut leaf = ProcBuilder::new("leaf", "l.c");
        leaf.mov(Reg::gp(1), Reg::SP);
        leaf.ret();
        let leaf_id = mb.add(leaf);
        let mut main = ProcBuilder::new("main", "l.c");
        main.mov_imm(Reg::SP, 16);
        main.call(leaf_id);
        main.ret();
        let main_id = mb.add(main);
        let m = mb.finish();
        let mut mach = Machine::new(&m, NullSink);
        mach.run(main_id, 100).unwrap();
        assert_eq!(
            mach.regs[Reg::gp(1).index()],
            16u64.wrapping_sub(FRAME_BYTES)
        );
        assert_eq!(mach.regs[Reg::SP.index()], STACK_TOP);
    }

    /// The budget is exact at every position: a run allowed `k`
    /// instructions executes `k`, whether it stops in a block body, at a
    /// terminator or across a call.
    #[test]
    fn step_budget_is_exact() {
        let (m, _) = sum_module(8);
        let total = Machine::new(&m, NullSink).run(ProcId(0), 1_000).unwrap();
        for k in 0..total.instrs {
            let mut mach = Machine::new(&m, NullSink);
            assert_eq!(
                mach.run(ProcId(0), k),
                Err(ExecError::StepBudgetExhausted { executed: k })
            );
            assert_eq!(mach.stats().instrs, k);
        }
        assert_eq!(
            Machine::new(&m, NullSink).run(ProcId(0), total.instrs),
            Ok(total)
        );
    }

    #[test]
    fn ptwrite_ratio() {
        let s = ExecStats {
            instrs: 110,
            loads: 50,
            stores: 0,
            ptwrites: 10,
        };
        assert!((s.ptwrite_ratio() - 0.1).abs() < 1e-12);
        assert_eq!(ExecStats::default().ptwrite_ratio(), 0.0);
    }
}
