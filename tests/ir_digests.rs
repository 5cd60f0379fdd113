//! Golden identity of the static toolchain's output.
//!
//! Each digest is the FNV-1a-64 of `format!("{:?}")` of what
//! `Instrumenter::instrument` and `lint_module` return, folded over a
//! group of modules, as produced at commit 5cdd8ac (the parent of the
//! change that moved classification, plan, rewrite and checker from
//! address-keyed trees to address-ordered tables). The rewritten module,
//! every annotation, source-map and `ptw_map` entry, the statistics and
//! every diagnostic are in those strings, so a digest moves only when
//! the toolchain's answer does.
//!
//! The fourth group, the abstract interpreter's four showcase modules at
//! the sizes `tables lint` builds them, was pinned later, at commit
//! 7aed35e. `call_graph_module` is the one module in which a procedure
//! passes constants to another procedure that has loops.
//!
//! The fifth group, modules whose address forms are wide, was pinned at
//! commit 65e624d, the last one whose abstract interpreter kept a dense
//! coefficient array in every value. Beside the two digests per
//! configuration it pins the classification table itself, whose rows
//! carry every proven stride, outer stride and constant address.

use memgaze::instrument::{lint_module, InstrumentConfig, Instrumenter, ModuleClassification};
use memgaze::isa::builder::{ModuleBuilder, ProcBuilder};
use memgaze::isa::codegen::OptLevel;
use memgaze::isa::{AddrMode, BinOp, CmpOp, LoadModule, Operand, Reg};
use memgaze::model::Fnv64;
use memgaze::workloads::modules::{
    call_graph_module, masked_index_module, nested_loop_module, spilled_iv_module, synthetic_module,
};
use memgaze::workloads::ubench;

fn groups() -> Vec<(&'static str, Vec<LoadModule>)> {
    let suite = |opt| ubench::suite(opt).iter().map(|b| b.module()).collect();
    vec![
        ("ubench O0", suite(OptLevel::O0)),
        ("ubench O3", suite(OptLevel::O3)),
        (
            "synthetic",
            [(4, 9), (16, 12), (64, 9)]
                .iter()
                .map(|&(procs, loads)| synthetic_module(procs, loads))
                .collect(),
        ),
        (
            "showcases",
            vec![
                spilled_iv_module(4096),
                nested_loop_module(64, 64),
                call_graph_module(4096),
                masked_index_module(4096),
            ],
        ),
    ]
}

fn configs() -> [(&'static str, InstrumentConfig); 4] {
    [
        ("default", InstrumentConfig::default()),
        ("eliding", InstrumentConfig::eliding()),
        ("uncompressed", InstrumentConfig::uncompressed()),
        ("roi kernel", InstrumentConfig::with_roi(["kernel"])),
    ]
}

/// `(group, config, instrument digest, lint digest)` at the parent.
const GOLDEN: [(&str, &str, u64, u64); 16] = [
    (
        "ubench O0",
        "default",
        0xd222_2c92_3c21_f255,
        0xdabc_603a_9379_441b,
    ),
    (
        "ubench O0",
        "eliding",
        0x6be4_2408_6cac_66f3,
        0xdabc_603a_9379_441b,
    ),
    (
        "ubench O0",
        "uncompressed",
        0x4d89_72da_fb03_e600,
        0xdabc_603a_9379_441b,
    ),
    (
        "ubench O0",
        "roi kernel",
        0xd222_2c92_3c21_f255,
        0xdabc_603a_9379_441b,
    ),
    (
        "ubench O3",
        "default",
        0xee1d_2fe8_c171_bdf3,
        0xf779_8e89_e9d0_a5d5,
    ),
    (
        "ubench O3",
        "eliding",
        0x2568_2433_e3c7_7794,
        0xf779_8e89_e9d0_a5d5,
    ),
    (
        "ubench O3",
        "uncompressed",
        0xee1d_2fe8_c171_bdf3,
        0xf779_8e89_e9d0_a5d5,
    ),
    (
        "ubench O3",
        "roi kernel",
        0xee1d_2fe8_c171_bdf3,
        0xf779_8e89_e9d0_a5d5,
    ),
    (
        "synthetic",
        "default",
        0x5001_55b2_4f3d_3c84,
        0x59ca_e026_2876_c368,
    ),
    (
        "synthetic",
        "eliding",
        0x13a5_87c5_dcda_686e,
        0x59ca_e026_2876_c368,
    ),
    (
        "synthetic",
        "uncompressed",
        0x429d_5998_2f65_7317,
        0x59ca_e026_2876_c368,
    ),
    (
        "synthetic",
        "roi kernel",
        0x52ce_aa51_ac83_df82,
        0x59ca_e026_2876_c368,
    ),
    (
        "showcases",
        "default",
        0xc818_bc05_843a_0b0d,
        0x985d_6e5f_6ffc_0d17,
    ),
    (
        "showcases",
        "eliding",
        0x012c_0fa9_760d_7e00,
        0x985d_6e5f_6ffc_0d17,
    ),
    (
        "showcases",
        "uncompressed",
        0x81b5_5f50_47cc_0c17,
        0x985d_6e5f_6ffc_0d17,
    ),
    (
        "showcases",
        "roi kernel",
        0x6f52_6893_16a3_3985,
        0x985d_6e5f_6ffc_0d17,
    ),
];

#[test]
fn toolchain_output_is_identical_to_the_parent_commit() {
    let mut got = Vec::new();
    for (group, modules) in groups() {
        for (name, config) in configs() {
            let mut instrumented = Fnv64::new();
            let mut linted = Fnv64::new();
            for module in &modules {
                let inst = Instrumenter::new(config.clone()).instrument(module);
                instrumented.update(format!("{inst:?}").as_bytes());
                let report = lint_module(module, &config);
                linted.update(format!("{report:?}").as_bytes());
            }
            got.push((group, name, instrumented.finish(), linted.finish()));
        }
    }
    for (g, w) in got.iter().zip(GOLDEN.iter()) {
        assert_eq!(
            g, w,
            "got {:#018x} / {:#018x}, want {:#018x} / {:#018x}",
            g.2, g.3, w.2, w.3
        );
    }
    assert_eq!(got.len(), GOLDEN.len());
}

/// One loop over `r0..r12`, each advancing by its own step (`r0` by 1,
/// the loop counter; `r3` and `r9` by 0), with `r13` summing all of them
/// with scales before every load: in ascending and descending order (one
/// form), through `mul`, `shl` and `sub` by several literals, and down
/// two arms of a branch that reach one form in different orders and
/// join before the load.
fn wide_sum_module() -> LoadModule {
    let mut mb = ModuleBuilder::new("wide-sum");
    let base = mb.alloc_global("arr", 4096);
    let mut pb = ProcBuilder::new("kernel", "wide.c");
    let body = pb.new_block();
    let left = pb.new_block();
    let right = pb.new_block();
    let join = pb.new_block();
    let exit = pb.new_block();
    let acc = Reg::gp(13);
    for r in 0..13u8 {
        pb.mov_imm(Reg::gp(r), i64::from(r) * 64);
    }
    pb.mov_imm(acc, base as i64);
    pb.jmp(body);
    pb.switch_to(body);
    let scales = [1u8, 2, 4, 8];
    pb.mov(acc, Reg::gp(12));
    for r in 0..12u8 {
        let addr = AddrMode::base_index(acc, Reg::gp(r), scales[r as usize % 4], 8);
        pb.lea(acc, addr);
    }
    pb.load(acc, AddrMode::base_disp(acc, 0));
    pb.mov(acc, Reg::gp(12));
    for r in (0..12u8).rev() {
        let addr = AddrMode::base_index(acc, Reg::gp(r), scales[r as usize % 4], 8);
        pb.lea(acc, addr);
    }
    pb.load(acc, AddrMode::base_disp(acc, 16));
    for (k, op) in [
        (3, BinOp::Mul),
        (5, BinOp::Mul),
        (-7, BinOp::Mul),
        (4, BinOp::Shl),
        (9, BinOp::Sub),
    ] {
        pb.mov(acc, Reg::gp(0));
        for r in 1..13u8 {
            pb.bin(BinOp::Add, acc, Operand::Reg(Reg::gp(r)));
        }
        pb.bin(op, acc, Operand::Imm(k));
        pb.load(acc, AddrMode::base_index(acc, Reg::gp(1), 8, k));
    }
    pb.mov(acc, Reg::gp(4));
    pb.bin(BinOp::Sub, acc, Operand::Reg(Reg::gp(5)));
    pb.bin(BinOp::Mul, acc, Operand::Imm(3));
    pb.load(acc, AddrMode::base_index(acc, Reg::gp(6), 2, 0));
    pb.load(acc, AddrMode::base_index(Reg::gp(3), Reg::gp(9), 8, 0));
    pb.br(acc, CmpOp::Eq, Operand::Imm(0), left, right);
    pb.switch_to(left);
    pb.mov(acc, Reg::gp(2));
    for r in [5u8, 7, 11] {
        pb.lea(acc, AddrMode::base_index(acc, Reg::gp(r), 4, 0));
    }
    pb.jmp(join);
    pb.switch_to(right);
    pb.mov(acc, Reg::gp(11));
    pb.bin(BinOp::Shl, acc, Operand::Imm(2));
    for r in [7u8, 2, 5] {
        pb.lea(
            acc,
            AddrMode::base_index(acc, Reg::gp(r), if r == 2 { 1 } else { 4 }, 0),
        );
    }
    pb.jmp(join);
    pb.switch_to(join);
    pb.load(acc, AddrMode::base_index(acc, Reg::gp(0), 8, 0));
    for r in 0..13u8 {
        if r != 3 && r != 9 {
            pb.add_imm(Reg::gp(r), i64::from(r) + 1);
        }
    }
    pb.br(Reg::gp(0), CmpOp::Lt, Operand::Imm(64), body, exit);
    pb.switch_to(exit);
    pb.ret();
    mb.add(pb);
    mb.finish()
}

/// Nine frame slots, each a spilled counter with its own step: the
/// first eight fill every tracked slot, the ninth is past the cap. One
/// address sums the eight tracked slots' values with scales, one adds
/// the ninth, one indexes by the last tracked slot alone.
fn all_slots_module() -> LoadModule {
    let mut mb = ModuleBuilder::new("all-slots");
    let base = mb.alloc_global("arr", 4096);
    let mut pb = ProcBuilder::new("kernel", "slots.c");
    let body = pb.new_block();
    let exit = pb.new_block();
    let (t, acc, a, n) = (Reg::gp(1), Reg::gp(2), Reg::gp(3), Reg::gp(4));
    let slot = |s: i64| AddrMode::base_disp(Reg::FP, -8 * s);
    pb.mov_imm(a, base as i64).mov_imm(t, 0).mov_imm(n, 0);
    for s in 1..=9 {
        pb.store(t, slot(s));
    }
    pb.jmp(body);
    pb.switch_to(body);
    for s in 1..=9 {
        pb.load(t, slot(s));
        pb.add_imm(t, s);
        pb.store(t, slot(s));
    }
    pb.mov(acc, a);
    for s in 1..=8 {
        pb.load(t, slot(s));
        pb.lea(
            acc,
            AddrMode::base_index(acc, t, [1, 2, 4, 8][s as usize % 4], s),
        );
    }
    pb.load(t, AddrMode::base_disp(acc, 0));
    pb.load(t, slot(9));
    pb.lea(acc, AddrMode::base_index(acc, t, 8, 0));
    pb.load(t, AddrMode::base_disp(acc, 0));
    pb.load(t, slot(8));
    pb.load(t, AddrMode::base_index(a, t, 8, 0));
    pb.add_imm(n, 1);
    pb.br(n, CmpOp::Lt, Operand::Imm(64), body, exit);
    pb.switch_to(exit);
    pb.ret();
    mb.add(pb);
    mb.finish()
}

/// A 2-D sweep whose inner index lives in a frame slot both loops track,
/// so the outer stride substitutes a register and a slot dimension; the
/// outer latch, after the inner loop, loads through a register the inner
/// loop advances, which settles only on a later fixpoint visit.
fn nested_wide_module() -> LoadModule {
    let mut mb = ModuleBuilder::new("nested-wide");
    let base = mb.alloc_global("grid", 64 * 64);
    let mut pb = ProcBuilder::new("kernel", "nestw.c");
    let outer = pb.new_block();
    let inner = pb.new_block();
    let latch = pb.new_block();
    let exit = pb.new_block();
    let (k, a, t, j, x, b) = (
        Reg::gp(0),
        Reg::gp(1),
        Reg::gp(2),
        Reg::gp(7),
        Reg::gp(9),
        Reg::gp(10),
    );
    pb.mov_imm(k, 0).mov_imm(b, base as i64).mov_imm(t, 0);
    pb.store(t, AddrMode::base_disp(Reg::FP, -8));
    pb.store(t, AddrMode::base_disp(Reg::FP, -16));
    pb.jmp(outer);
    pb.switch_to(outer);
    pb.mov(a, k);
    pb.bin(BinOp::Mul, a, Operand::Imm(512));
    pb.bin(BinOp::Add, a, Operand::Reg(b));
    pb.load(t, AddrMode::base_disp(Reg::FP, -8));
    pb.add_imm(t, 3);
    pb.store(t, AddrMode::base_disp(Reg::FP, -8));
    pb.mov_imm(t, 0);
    pb.store(t, AddrMode::base_disp(Reg::FP, -16));
    pb.mov_imm(j, 0);
    pb.jmp(inner);
    pb.switch_to(inner);
    pb.load(t, AddrMode::base_disp(Reg::FP, -16));
    pb.lea(x, AddrMode::base_index(a, t, 8, 0));
    pb.load(x, AddrMode::base_index(x, k, 4, 0));
    pb.load(x, AddrMode::base_disp(Reg::FP, -8));
    pb.store(x, AddrMode::base_disp(Reg::FP, -8));
    pb.lea(x, AddrMode::base_index(a, x, 2, 0));
    pb.load(x, AddrMode::base_index(x, t, 8, 0));
    pb.add_imm(t, 1);
    pb.store(t, AddrMode::base_disp(Reg::FP, -16));
    pb.add_imm(j, 1);
    pb.br(j, CmpOp::Lt, Operand::Imm(64), inner, latch);
    pb.switch_to(latch);
    pb.load(x, AddrMode::base_index(a, j, 8, 0));
    pb.load(x, AddrMode::base_index(b, k, 8, 0));
    pb.add_imm(k, 1);
    pb.br(k, CmpOp::Lt, Operand::Imm(64), outer, exit);
    pb.switch_to(exit);
    pb.ret();
    mb.add(pb);
    mb.finish()
}

/// `(config, instrument digest, lint digest)` of the wide-form group at
/// the parent.
const WIDE_GOLDEN: [(&str, u64, u64); 4] = [
    ("default", 0xa2cb_27ea_f525_8dc1, 0x083c_2e6d_7803_1976),
    ("eliding", 0x5577_901e_3836_b646, 0x083c_2e6d_7803_1976),
    ("uncompressed", 0x73f7_db87_f516_07ba, 0x083c_2e6d_7803_1976),
    ("roi kernel", 0xa2cb_27ea_f525_8dc1, 0x083c_2e6d_7803_1976),
];

/// Digest of the wide-form group's classification tables at the parent.
const WIDE_CLASSIFICATION: u64 = 0x00dd_a67c_5789_23ec;

#[test]
fn wide_address_forms_are_what_they_were_at_the_parent() {
    let modules = [wide_sum_module(), all_slots_module(), nested_wide_module()];
    let mut classified = Fnv64::new();
    for module in &modules {
        classified.update(format!("{:?}", ModuleClassification::analyze(module)).as_bytes());
    }
    let mut got = Vec::new();
    for (name, config) in configs() {
        let mut instrumented = Fnv64::new();
        let mut linted = Fnv64::new();
        for module in &modules {
            let inst = Instrumenter::new(config.clone()).instrument(module);
            instrumented.update(format!("{inst:?}").as_bytes());
            linted.update(format!("{:?}", lint_module(module, &config)).as_bytes());
        }
        got.push((name, instrumented.finish(), linted.finish()));
    }
    let classified = classified.finish();
    assert_eq!(classified, WIDE_CLASSIFICATION, "got {classified:#018x}");
    assert_eq!(got, WIDE_GOLDEN);
}
