//! Disassembly: human-readable listings of load modules.
//!
//! Used to inspect what the instrumentor did — the listing shows each
//! instruction with its address, so a rewritten module's inserted
//! `ptwrite`s and shifted layout are directly visible.

use crate::instr::{BinOp, Instr, Terminator};
use crate::module::LoadModule;
use crate::proc::ProcId;
use std::fmt::Write as _;

fn op_mnemonic(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::And => "and",
        BinOp::Or => "or",
        BinOp::Xor => "xor",
        BinOp::Shl => "shl",
        BinOp::Shr => "shr",
        BinOp::Rem => "rem",
    }
}

/// Render one instruction.
pub(crate) fn disasm_instr(i: &Instr) -> String {
    match i {
        Instr::Load { dst, addr } => format!("load    {dst} <- {addr}"),
        Instr::Store { src, addr } => format!("store   {addr} <- {src}"),
        Instr::MovImm { dst, imm } => format!("mov     {dst}, {imm:#x}"),
        Instr::Mov { dst, src } => format!("mov     {dst}, {src}"),
        Instr::Bin { op, dst, rhs } => format!("{:<7} {dst}, {rhs}", op_mnemonic(*op)),
        Instr::Lea { dst, addr } => format!("lea     {dst}, {addr}"),
        Instr::Call { proc } => format!("call    {proc}"),
        Instr::Ptwrite { src } => format!("ptwrite {src}"),
        Instr::Nop => "nop".to_string(),
    }
}

/// Render a terminator.
pub(crate) fn disasm_term(t: &Terminator) -> String {
    match t {
        Terminator::Jmp(b) => format!("jmp     {b}"),
        Terminator::Br {
            lhs,
            op,
            rhs,
            taken,
            not_taken,
        } => {
            let pred = match op {
                crate::instr::CmpOp::Eq => "eq",
                crate::instr::CmpOp::Ne => "ne",
                crate::instr::CmpOp::Lt => "lt",
                crate::instr::CmpOp::Le => "le",
                crate::instr::CmpOp::Gt => "gt",
                crate::instr::CmpOp::Ge => "ge",
            };
            format!("br.{pred}   {lhs}, {rhs} -> {taken} | {not_taken}")
        }
        Terminator::Ret => "ret".to_string(),
    }
}

/// Render one procedure with instruction addresses.
pub(crate) fn disasm_proc(module: &LoadModule, proc: ProcId) -> String {
    let layout = module.layout();
    let p = module.proc(proc);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} <{}> [{}..{}):",
        p.name,
        p.src_file,
        layout.proc_base(proc),
        layout.proc_end(proc)
    );
    for b in &p.blocks {
        let _ = writeln!(out, "  {}:  ; line {}", b.id, b.src_line);
        for (idx, ins) in b.instrs.iter().enumerate() {
            let ip = layout.ip_of(proc, b.id, idx);
            let _ = writeln!(
                out,
                "    {:>10}  {}",
                format!("{:#x}", ip.raw()),
                disasm_instr(ins)
            );
        }
        let term_ip = layout.ip_of(proc, b.id, b.instrs.len());
        let _ = writeln!(
            out,
            "    {:>10}  {}",
            format!("{:#x}", term_ip.raw()),
            disasm_term(&b.term)
        );
    }
    out
}

/// Render the whole module.
#[cfg_attr(
    not(test),
    expect(dead_code, reason = "ROADMAP: an `explain` verb prints the listing")
)]
pub(crate) fn disasm_module(module: &LoadModule) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "; module {} — {} procs, {} instrs, {} loads, {} B",
        module.name,
        module.procs.len(),
        module.num_instrs(),
        module.num_loads(),
        module.binary_size_bytes()
    );
    for d in &module.data {
        let _ = writeln!(
            out,
            "; data {:>10}  {} ({} words)",
            format!("{:#x}", d.base),
            d.label,
            d.words.len()
        );
    }
    for p in &module.procs {
        out.push('\n');
        out.push_str(&disasm_proc(module, p.id));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ModuleBuilder, ProcBuilder};
    use crate::instr::{AddrMode, CmpOp, Operand};
    use crate::reg::Reg;

    fn demo_module() -> LoadModule {
        let mut mb = ModuleBuilder::new("demo");
        let a = mb.alloc_global("A", 8);
        let (i, b, x) = (Reg::gp(0), Reg::gp(1), Reg::gp(2));
        let mut pb = ProcBuilder::new("loop", "demo.c");
        let body = pb.new_block();
        let exit = pb.new_block();
        pb.at_line(3).mov_imm(i, 0).mov_imm(b, a as i64);
        pb.jmp(body);
        pb.switch_to(body);
        pb.at_line(4)
            .load(x, AddrMode::base_index(b, i, 8, 0))
            .add_imm(i, 1);
        pb.br(i, CmpOp::Lt, Operand::Imm(8), body, exit);
        pb.switch_to(exit);
        pb.ret();
        mb.add(pb);
        mb.finish()
    }

    #[test]
    fn listing_contains_addresses_and_mnemonics() {
        let m = demo_module();
        let s = disasm_module(&m);
        assert!(s.contains("module demo"));
        assert!(s.contains("loop <demo.c>"));
        assert!(s.contains("load    r2 <- [r1 + r0*8]"));
        assert!(s.contains("br.lt"));
        assert!(s.contains("ret"));
        assert!(s.contains("0x400000"), "base address visible:\n{s}");
        assert!(s.contains("; data"));
    }

    #[test]
    fn instrumented_listing_shows_ptwrites_before_loads() {
        // Insert ptwrites before the load by hand to confirm listing
        // order (the real instrumentor lives in another crate; this test
        // only checks rendering).
        let mut m = demo_module();
        let body = &mut m.procs[0].blocks[1];
        let load_pos = body.load_positions().next().unwrap();
        body.instrs
            .insert(load_pos, Instr::Ptwrite { src: Reg::gp(1) });
        body.instrs
            .insert(load_pos + 1, Instr::Ptwrite { src: Reg::gp(0) });
        let s = disasm_proc(&m, ProcId(0));
        let ptw = s.find("ptwrite r1").expect("first ptwrite rendered");
        let ptw2 = s.find("ptwrite r0").expect("second ptwrite rendered");
        let load = s.find("load    r2").expect("load rendered");
        assert!(
            ptw < ptw2 && ptw2 < load,
            "ptwrites precede their load:\n{s}"
        );
    }

    #[test]
    fn every_instruction_kind_renders() {
        let cases = [
            (
                Instr::Store {
                    src: Reg::gp(1),
                    addr: AddrMode::base_disp(Reg::FP, -8),
                },
                "store",
            ),
            (
                Instr::Mov {
                    dst: Reg::gp(1),
                    src: Reg::gp(2),
                },
                "mov",
            ),
            (
                Instr::Lea {
                    dst: Reg::gp(1),
                    addr: AddrMode::global(0x60),
                },
                "lea",
            ),
            (Instr::Call { proc: ProcId(3) }, "call    proc3"),
            (Instr::Nop, "nop"),
            (
                Instr::Bin {
                    op: BinOp::Rem,
                    dst: Reg::gp(5),
                    rhs: Operand::Imm(100),
                },
                "rem",
            ),
        ];
        for (ins, want) in cases {
            assert!(
                disasm_instr(&ins).contains(want),
                "{ins:?} → {}",
                disasm_instr(&ins)
            );
        }
    }
}
