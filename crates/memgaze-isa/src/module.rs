//! Load modules: procedures plus data, laid out with instruction
//! addresses.
//!
//! A load module is the unit the instrumentor consumes and produces (an
//! executable or library, paper §III-A). Instructions occupy 4 "bytes"
//! each in a flat address space so every instruction has a unique,
//! monotone [`Ip`]; rewriting a module and re-laying it out yields the new
//! instruction stream whose alignment with source the source map recovers.

use crate::proc::{BlockId, ProcId, Procedure};
use memgaze_model::{Ip, SymbolTable};
use serde::{Deserialize, Serialize};

/// Bytes occupied by one instruction in the synthetic layout.
pub const INSTR_BYTES: u64 = 4;

/// Alignment of each procedure's base address. Real linkers align
/// function entries, so consecutive procedures are separated by padding
/// whenever code size is not a multiple of this; those padding addresses
/// belong to no instruction and must not resolve.
pub const PROC_ALIGN: u64 = 16;

/// Initial contents for a region of the module's data space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataInit {
    /// Human label (object name) for attribution.
    pub label: String,
    /// Base data address.
    pub base: u64,
    /// 8-byte words stored from `base`.
    pub words: Vec<u64>,
}

/// An executable load module: procedures, data image, and layout base.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadModule {
    /// Module name (e.g. the benchmark binary's name).
    pub name: String,
    /// Procedures; `procs[i].id == ProcId(i)`.
    pub procs: Vec<Procedure>,
    /// Initialized data regions.
    pub data: Vec<DataInit>,
    /// Address of the first instruction.
    pub base_ip: u64,
    /// Next free data address (grows upward as globals are allocated).
    pub data_break: u64,
}

/// Precomputed instruction-address layout of a module, as flat tables:
/// every block of the module in address order, and per procedure the
/// index of its first block in them.
#[derive(Debug, Clone)]
pub struct ModuleLayout {
    /// Base ip of every block, procedure by procedure.
    block_base: Vec<u64>,
    /// Instruction count of every block, indexed like `block_base`.
    block_len: Vec<u64>,
    /// Procedure `p`'s blocks are `first_block[p]..first_block[p + 1]`
    /// of `block_base`; one entry more than there are procedures.
    first_block: Vec<usize>,
    /// Per procedure, its base ip and one past its last instruction (the
    /// code end excludes the alignment padding that may follow before
    /// the next procedure's base).
    proc_span: Vec<(u64, u64)>,
    /// One past the last instruction address.
    end_ip: u64,
}

impl ModuleLayout {
    /// Address of instruction `idx` in `(proc, block)`. The terminator is
    /// at `idx == body_len`.
    pub fn ip_of(&self, proc: ProcId, block: BlockId, idx: usize) -> Ip {
        let base = self.block_base[self.first_block[proc.index()] + block.index()];
        Ip(base + idx as u64 * INSTR_BYTES)
    }

    /// First instruction address of a procedure.
    pub fn proc_base(&self, proc: ProcId) -> Ip {
        Ip(self.proc_span[proc.index()].0)
    }

    /// One past the last instruction of a procedure.
    ///
    /// This is the procedure's *code* end, not the next procedure's base:
    /// with aligned procedure bases the two differ by up to
    /// `PROC_ALIGN - INSTR_BYTES` bytes of padding, and attributing that
    /// padding to the preceding procedure would corrupt symbol ranges and
    /// `locate`.
    pub fn proc_end(&self, proc: ProcId) -> Ip {
        Ip(self.proc_span[proc.index()].1)
    }

    /// Locate an instruction address: `(proc, block, index)`.
    pub fn locate(&self, ip: Ip) -> Option<(ProcId, BlockId, usize)> {
        let raw = ip.raw();
        // Procedure bases are `PROC_ALIGN`-aligned addresses, so every
        // instruction address is a multiple of the instruction size.
        if raw >= self.end_ip || !raw.is_multiple_of(INSTR_BYTES) {
            return None;
        }
        let p = self.proc_span.partition_point(|s| s.0 <= raw);
        if p == 0 {
            return None;
        }
        let proc = p - 1;
        // Inter-procedure padding: addresses past the proc's last
        // instruction but before the next proc's base belong to nothing.
        if raw >= self.proc_span[proc].1 {
            return None;
        }
        let first = self.first_block[proc];
        let blocks = &self.block_base[first..self.first_block[proc + 1]];
        let b = blocks.partition_point(|&bb| bb <= raw);
        if b == 0 {
            return None;
        }
        let block = b - 1;
        let idx = ((raw - blocks[block]) / INSTR_BYTES) as usize;
        if (idx as u64) >= self.block_len[first + block] {
            return None;
        }
        Some((ProcId(proc as u32), BlockId(block as u32), idx))
    }

    /// Every instruction address of the module — block bodies and
    /// terminators, padding excluded — in address order, which is the
    /// order a walk over procedures, blocks and instruction indices
    /// visits them in.
    pub fn instr_ips(&self) -> impl Iterator<Item = Ip> + '_ {
        self.block_base
            .iter()
            .zip(&self.block_len)
            .flat_map(|(&base, &len)| (0..len).map(move |i| Ip(base + i * INSTR_BYTES)))
    }

    /// Total code size in (synthetic) bytes.
    pub fn code_bytes(&self) -> u64 {
        self.end_ip - self.proc_span.first().map_or(self.end_ip, |s| s.0)
    }

    /// The symbol table of `module`, which this layout was computed
    /// from: one function per procedure over its code range.
    pub fn symbol_table(&self, module: &LoadModule) -> SymbolTable {
        let mut t = SymbolTable::new();
        for p in &module.procs {
            t.add_function(
                p.name.clone(),
                self.proc_base(p.id),
                self.proc_end(p.id),
                p.src_file.clone(),
            );
        }
        t
    }
}

impl LoadModule {
    /// Default code base address.
    pub const DEFAULT_BASE_IP: u64 = 0x40_0000;
    /// Default data base address (globals/heap image).
    pub const DEFAULT_DATA_BASE: u64 = 0x10_0000_0000;

    /// An empty module with default layout bases.
    pub fn new(name: impl Into<String>) -> LoadModule {
        LoadModule {
            name: name.into(),
            procs: Vec::new(),
            data: Vec::new(),
            base_ip: Self::DEFAULT_BASE_IP,
            data_break: Self::DEFAULT_DATA_BASE,
        }
    }

    /// Add a procedure; its id must equal its index.
    pub fn add_proc(&mut self, proc: Procedure) -> ProcId {
        assert_eq!(
            proc.id.index(),
            self.procs.len(),
            "procedure id must be its index"
        );
        let id = proc.id;
        self.procs.push(proc);
        id
    }

    /// The procedure with the given id.
    pub fn proc(&self, id: ProcId) -> &Procedure {
        &self.procs[id.index()]
    }

    /// Find a procedure by name.
    pub fn find_proc(&self, name: &str) -> Option<ProcId> {
        self.procs.iter().find(|p| p.name == name).map(|p| p.id)
    }

    /// Allocate `words` 8-byte words of zeroed global data; returns the
    /// base address.
    pub fn alloc_global(&mut self, label: impl Into<String>, words: usize) -> u64 {
        let base = self.data_break;
        self.data.push(DataInit {
            label: label.into(),
            base,
            words: vec![0; words],
        });
        // 64-byte align the next region so objects don't share cache lines.
        self.data_break += ((words as u64 * 8) + 63) & !63;
        base
    }

    /// The address span `[lo, hi)` of the allocated data segment, or
    /// `None` when no globals exist. Used by the abstract interpreter to
    /// accept range-instantiated constant addresses only when they point
    /// at real data.
    pub fn data_range(&self) -> Option<(u64, u64)> {
        let lo = self
            .data
            .iter()
            .map(|d| d.base)
            .min()
            .unwrap_or(Self::DEFAULT_DATA_BASE);
        (self.data_break > lo).then_some((lo, self.data_break))
    }

    /// Set the initial contents of a previously allocated region.
    ///
    /// # Panics
    /// Panics if no region with `base` exists or `words` exceeds it.
    pub fn init_global(&mut self, base: u64, words: &[u64]) {
        let region = self
            .data
            .iter_mut()
            .find(|d| d.base == base)
            .expect("init_global: unknown region");
        assert!(words.len() <= region.words.len(), "init exceeds region");
        region.words[..words.len()].copy_from_slice(words);
    }

    /// Compute the instruction-address layout. Procedure bases are aligned
    /// to [`PROC_ALIGN`]; the padding between a procedure's code end and
    /// the next base maps to no instruction.
    pub fn layout(&self) -> ModuleLayout {
        let blocks: usize = self.procs.iter().map(|p| p.blocks.len()).sum();
        let mut block_base = Vec::with_capacity(blocks);
        let mut block_len = Vec::with_capacity(blocks);
        let mut first_block = Vec::with_capacity(self.procs.len() + 1);
        let mut proc_span = Vec::with_capacity(self.procs.len());
        debug_assert!(self.base_ip.is_multiple_of(PROC_ALIGN));
        let mut cur = self.base_ip;
        for p in &self.procs {
            cur = cur.next_multiple_of(PROC_ALIGN);
            first_block.push(block_base.len());
            let base = cur;
            for b in &p.blocks {
                block_base.push(cur);
                block_len.push(b.len() as u64);
                cur += b.len() as u64 * INSTR_BYTES;
            }
            proc_span.push((base, cur));
        }
        first_block.push(block_base.len());
        ModuleLayout {
            block_base,
            block_len,
            first_block,
            proc_span,
            end_ip: cur,
        }
    }

    /// Build the symbol table matching [`LoadModule::layout`].
    pub fn symbol_table(&self) -> SymbolTable {
        self.layout().symbol_table(self)
    }

    /// Total instruction count over all procedures.
    pub fn num_instrs(&self) -> usize {
        self.procs.iter().map(|p| p.num_instrs()).sum()
    }

    /// Total load count over all procedures.
    pub fn num_loads(&self) -> usize {
        self.procs.iter().map(|p| p.num_loads()).sum()
    }

    /// Synthetic binary size in bytes (code + data image), the paper's
    /// Table II 'Binary Size' analogue.
    pub fn binary_size_bytes(&self) -> u64 {
        let code = self.num_instrs() as u64 * INSTR_BYTES;
        let data: u64 = self.data.iter().map(|d| d.words.len() as u64 * 8).sum();
        code + data
    }

    /// Validate module structure (proc id density, per-proc structure,
    /// call targets). Returns the first error as a typed diagnostic; the
    /// full multi-pass verifier is [`crate::verify::verify_module`].
    pub fn validate(&self) -> Result<(), crate::verify::VerifyError> {
        crate::verify::check_structure(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AddrMode, Instr, Terminator};
    use crate::proc::BasicBlock;
    use crate::reg::Reg;

    fn two_proc_module() -> LoadModule {
        let mut m = LoadModule::new("m");
        for (i, name) in ["f", "g"].iter().enumerate() {
            m.add_proc(Procedure {
                id: ProcId(i as u32),
                name: (*name).into(),
                blocks: vec![
                    BasicBlock {
                        id: BlockId(0),
                        instrs: vec![Instr::MovImm {
                            dst: Reg::gp(0),
                            imm: 0,
                        }],
                        term: Terminator::Jmp(BlockId(1)),
                        src_line: 1,
                    },
                    BasicBlock {
                        id: BlockId(1),
                        instrs: vec![Instr::Load {
                            dst: Reg::gp(1),
                            addr: AddrMode::base_disp(Reg::gp(0), 0),
                        }],
                        term: Terminator::Ret,
                        src_line: 2,
                    },
                ],
                entry: BlockId(0),
                src_file: "m.c".into(),
            });
        }
        m
    }

    #[test]
    fn layout_roundtrip() {
        let m = two_proc_module();
        m.validate().unwrap();
        let l = m.layout();
        let mut ips = l.instr_ips();
        for p in &m.procs {
            for b in &p.blocks {
                for idx in 0..b.len() {
                    let ip = l.ip_of(p.id, b.id, idx);
                    assert_eq!(l.locate(ip), Some((p.id, b.id, idx)), "ip {ip}");
                    assert_eq!(ips.next(), Some(ip), "walk order is address order");
                }
            }
        }
        assert_eq!(ips.next(), None);
        // Unaligned and out-of-range addresses resolve to nothing.
        assert_eq!(l.locate(Ip(m.base_ip + 1)), None);
        assert_eq!(l.locate(Ip(0)), None);
        assert_eq!(l.locate(Ip(m.base_ip + l.code_bytes())), None);
    }

    /// Procs whose code size is not a multiple of `PROC_ALIGN` leave
    /// padding gaps; gap addresses must resolve to no instruction and no
    /// symbol (regression: `locate`/`proc_end` used to attribute the gap
    /// to the preceding procedure).
    #[test]
    fn padding_gap_is_rejected() {
        let mut m = LoadModule::new("m");
        for (i, name) in ["f", "g"].iter().enumerate() {
            // 2 instrs + terminator = 3 instructions = 12 bytes → 4-byte
            // gap before the next 16-aligned proc base.
            m.add_proc(Procedure {
                id: ProcId(i as u32),
                name: (*name).into(),
                blocks: vec![BasicBlock {
                    id: BlockId(0),
                    instrs: vec![
                        Instr::MovImm {
                            dst: Reg::gp(0),
                            imm: 0,
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
                src_file: "m.c".into(),
            });
        }
        let l = m.layout();
        let f_end = l.proc_end(ProcId(0)).raw();
        let g_base = l.proc_base(ProcId(1)).raw();
        assert_eq!(f_end, m.base_ip + 3 * INSTR_BYTES);
        assert_eq!(g_base, m.base_ip + PROC_ALIGN);
        assert!(f_end < g_base, "expected a padding gap");
        // Every gap address (aligned or not) resolves to nothing.
        for gap in f_end..g_base {
            assert_eq!(l.locate(Ip(gap)), None, "gap ip {gap:#x}");
        }
        // And the symbol table does not claim the gap for `f`.
        let t = m.symbol_table();
        assert_eq!(t.lookup(Ip(f_end)), None);
        assert_eq!(t.lookup(Ip(f_end - INSTR_BYTES)).unwrap().name, "f");
        assert_eq!(t.lookup(Ip(g_base)).unwrap().name, "g");
    }

    #[test]
    fn symbol_table_covers_procs() {
        let m = two_proc_module();
        let t = m.symbol_table();
        let l = m.layout();
        assert_eq!(t.len(), 2);
        let f = t.lookup(l.ip_of(ProcId(0), BlockId(1), 0)).unwrap();
        assert_eq!(f.name, "f");
        let g = t.lookup(l.ip_of(ProcId(1), BlockId(0), 0)).unwrap();
        assert_eq!(g.name, "g");
    }

    #[test]
    fn global_allocation() {
        let mut m = LoadModule::new("m");
        let a = m.alloc_global("a", 10);
        let b = m.alloc_global("b", 4);
        assert!(b >= a + 80);
        assert_eq!(b % 64, 0);
        m.init_global(a, &[1, 2, 3]);
        assert_eq!(m.data[0].words[..3], [1, 2, 3]);
        assert_eq!(m.data[0].words[3], 0);
    }

    #[test]
    fn counts_and_size() {
        let m = two_proc_module();
        assert_eq!(m.num_instrs(), 8);
        assert_eq!(m.num_loads(), 2);
        assert_eq!(m.binary_size_bytes(), 8 * INSTR_BYTES);
    }
}
