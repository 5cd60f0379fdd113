//! Generated IR load modules that are not microbenchmarks: the
//! application-sized module of Table II's instrumentation-time curve
//! and four small kernels, each built to need one layer of the
//! classifier's abstract interpreter.

use memgaze_isa::builder::{ModuleBuilder, ProcBuilder};
use memgaze_isa::{AddrMode, BinOp, CmpOp, LoadModule, Operand, Reg};

/// A synthetic load module with `procs` procedures of `loads_per_proc`
/// mixed-class loads each — used to reproduce Table II's
/// instrumentation-time-vs-binary-size behaviour at application binary
/// sizes (miniVite ≈ 1.9 MB vs GAP ≈ 100 kB).
pub fn synthetic_module(procs: usize, loads_per_proc: usize) -> LoadModule {
    let mut mb = ModuleBuilder::new(format!("synthetic-{procs}x{loads_per_proc}"));
    let base = mb.alloc_global("data", 512);
    for p in 0..procs {
        let mut pb = ProcBuilder::new(format!("f{p}"), "synth.c");
        let body = pb.new_block();
        let exit = pb.new_block();
        let (i, a, x) = (Reg::gp(0), Reg::gp(1), Reg::gp(2));
        pb.mov_imm(i, 0).mov_imm(a, base as i64);
        pb.jmp(body);
        pb.switch_to(body);
        for l in 0..loads_per_proc {
            match l % 3 {
                0 => {
                    // Strided.
                    pb.load(x, AddrMode::base_index(a, i, 8, (l as i64) * 8));
                }
                1 => {
                    // Irregular (through the loaded value).
                    pb.load(x, AddrMode::base_disp(x, 0));
                }
                _ => {
                    // Constant frame load.
                    pb.load(x, AddrMode::base_disp(Reg::FP, -8 - (l as i64)));
                }
            }
        }
        pb.add_imm(i, 1);
        pb.br(i, CmpOp::Lt, Operand::Imm(4), body, exit);
        pb.switch_to(exit);
        pb.ret();
        mb.add(pb);
    }
    mb.finish()
}

/// A loop whose induction variable lives in a stack slot (unoptimized
/// spill): `t ← load [FP-8]; load [a + t*8]; t += 1; store t, [FP-8]`.
/// Dataflow sees two defs of `t` and gives up; store→load forwarding in
/// the abstract interpreter proves the data load strides by 8.
pub fn spilled_iv_module(elems: u32) -> LoadModule {
    let mut mb = ModuleBuilder::new("spill-iv");
    let base = mb.alloc_global("arr", elems as usize);
    let mut pb = ProcBuilder::new("kernel", "spill.c");
    let body = pb.new_block();
    let exit = pb.new_block();
    let (a, t, x) = (Reg::gp(1), Reg::gp(5), Reg::gp(4));
    pb.mov_imm(a, base as i64).mov_imm(t, 0);
    pb.store(t, AddrMode::base_disp(Reg::FP, -8));
    pb.jmp(body);
    pb.switch_to(body);
    pb.load(t, AddrMode::base_disp(Reg::FP, -8));
    pb.load(x, AddrMode::base_index(a, t, 8, 0));
    pb.add_imm(t, 1);
    pb.store(t, AddrMode::base_disp(Reg::FP, -8));
    pb.br(t, CmpOp::Lt, Operand::Imm(elems as i64), body, exit);
    pb.switch_to(exit);
    pb.ret();
    mb.add(pb);
    mb.finish()
}

/// A row-major 2-D sweep: the outer loop recomputes the row base
/// `a = base + k·cols·8`, the inner loop strides through it. Exercises
/// the nest-aware proof (`outer_stride`) of the abstract interpreter.
pub fn nested_loop_module(rows: u32, cols: u32) -> LoadModule {
    let mut mb = ModuleBuilder::new("nest");
    let base = mb.alloc_global("grid", (rows * cols) as usize);
    let mut pb = ProcBuilder::new("kernel", "nest.c");
    let outer = pb.new_block();
    let inner = pb.new_block();
    let latch = pb.new_block();
    let exit = pb.new_block();
    let (k, j, a, x) = (Reg::gp(6), Reg::gp(7), Reg::gp(1), Reg::gp(4));
    pb.mov_imm(k, 0);
    pb.jmp(outer);
    pb.switch_to(outer);
    pb.mov(a, k);
    pb.bin(BinOp::Mul, a, Operand::Imm(cols as i64 * 8));
    pb.bin(BinOp::Add, a, Operand::Imm(base as i64));
    pb.mov_imm(j, 0);
    pb.jmp(inner);
    pb.switch_to(inner);
    pb.load(x, AddrMode::base_index(a, j, 8, 0));
    pb.add_imm(j, 1);
    pb.br(j, CmpOp::Lt, Operand::Imm(cols as i64), inner, latch);
    pb.switch_to(latch);
    pb.add_imm(k, 1);
    pb.br(k, CmpOp::Lt, Operand::Imm(rows as i64), outer, exit);
    pb.switch_to(exit);
    pb.ret();
    mb.add(pb);
    mb.finish()
}

/// A two-procedure module exercising interprocedural summaries: a pure
/// leaf dereferences an argument pointer in a loop (every call site
/// passes the same global scalar, so the address resolves to a data
/// Constant), and the caller keeps its array pointer in a scratch
/// register across the call — sound only because the summary proves the
/// leaf does not clobber it.
pub fn call_graph_module(elems: u32) -> LoadModule {
    let mut mb = ModuleBuilder::new("callsum");
    let scalar = mb.alloc_global("g", 1);
    let arr = mb.alloc_global("arr", elems as usize);

    let mut leaf = ProcBuilder::new("leaf", "call.c");
    let lbody = leaf.new_block();
    let lexit = leaf.new_block();
    let (lx, ln) = (Reg::gp(9), Reg::gp(10));
    leaf.mov_imm(ln, 0);
    leaf.jmp(lbody);
    leaf.switch_to(lbody);
    leaf.load(lx, AddrMode::base_disp(Reg::gp(0), 0));
    leaf.add_imm(ln, 1);
    leaf.br(ln, CmpOp::Lt, Operand::Imm(4), lbody, lexit);
    leaf.switch_to(lexit);
    leaf.ret();
    let leaf_id = mb.add(leaf);

    let mut main = ProcBuilder::new("main", "call.c");
    let body = main.new_block();
    let exit = main.new_block();
    let (i, a, x) = (Reg::gp(7), Reg::gp(2), Reg::gp(11));
    main.mov_imm(a, arr as i64).mov_imm(i, 0);
    main.jmp(body);
    main.switch_to(body);
    main.load(x, AddrMode::base_index(a, i, 8, 0));
    main.mov_imm(Reg::gp(0), scalar as i64);
    main.call(leaf_id);
    main.add_imm(i, 1);
    main.br(i, CmpOp::Lt, Operand::Imm(elems as i64), body, exit);
    main.switch_to(exit);
    main.mov_imm(Reg::gp(0), scalar as i64);
    main.call(leaf_id);
    main.ret();
    mb.add(main);
    mb.finish()
}

/// A power-of-two circular buffer walk: `t ← i & (elems-1)` then
/// `load [a + t*8]`. The mask redefinition defeats plain IV analysis;
/// value-range analysis proves `i` already fits the mask, so the
/// abstract interpreter keeps the address affine. `elems` must be a
/// power of two.
pub fn masked_index_module(elems: u32) -> LoadModule {
    assert!(elems.is_power_of_two(), "mask workload needs 2^k elems");
    let mut mb = ModuleBuilder::new("mask");
    let base = mb.alloc_global("ring", elems as usize);
    let mut pb = ProcBuilder::new("kernel", "mask.c");
    let body = pb.new_block();
    let exit = pb.new_block();
    let (i, a, t, x) = (Reg::gp(6), Reg::gp(1), Reg::gp(3), Reg::gp(4));
    pb.mov_imm(i, 0).mov_imm(a, base as i64);
    pb.jmp(body);
    pb.switch_to(body);
    pb.mov(t, i);
    pb.bin(BinOp::And, t, Operand::Imm(elems as i64 - 1));
    pb.load(x, AddrMode::base_index(a, t, 8, 0));
    pb.add_imm(i, 1);
    pb.br(i, CmpOp::Lt, Operand::Imm(elems as i64), body, exit);
    pb.switch_to(exit);
    pb.ret();
    mb.add(pb);
    mb.finish()
}
