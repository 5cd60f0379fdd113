//! Microbenchmark code generation (paper §VI, "Benchmarks").
//!
//! The paper's microbenchmarks "simulate accesses to both dense and sparse
//! data structures and vary access patterns, data reuse, access sparsity,
//! and access likelihood", are repeated 100 times, and are named by their
//! access patterns: `str<k>` (strided with stride step `k`) and `irr`
//! (irregular), composed conditionally (`/`) or in series (`|`).
//!
//! Kernels are generated at two optimization levels. `O0` keeps values in
//! the stack frame, producing roughly one Constant (frame) load per
//! pattern load (compression κ ≈ 2, paper §VI-C); `O3` unrolls ×4 and
//! keeps state in registers (κ ≈ 1.2).

use crate::builder::{ModuleBuilder, ProcBuilder};
use crate::instr::{AddrMode, BinOp, CmpOp, Operand};
use crate::module::LoadModule;

use crate::reg::Reg;
use serde::{Deserialize, Serialize};

/// One primitive access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pattern {
    /// `A[i·step]` — strided with stride `step` elements.
    Strided {
        /// Stride in 8-byte elements.
        step: u32,
    },
    /// `A[P[i]]` — gather through an index array (index load is strided,
    /// data load is irregular).
    Irregular,
}

impl Pattern {
    /// Strided pattern with the given element step.
    pub fn strided(step: u32) -> Pattern {
        assert!(step > 0, "stride step must be positive");
        Pattern::Strided { step }
    }

    /// Paper-style mnemonic: `str<k>` or `irr`.
    fn mnemonic(&self) -> String {
        match self {
            Pattern::Strided { step } => format!("str{step}"),
            Pattern::Irregular => "irr".to_string(),
        }
    }
}

/// How patterns are combined, mirroring the paper's naming.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Compose {
    /// A single pattern.
    Single(Pattern),
    /// Patterns executed one loop after another (`a|b`).
    Serial(Vec<Pattern>),
    /// Two patterns chosen per iteration by a data-dependent condition
    /// (`a/b`); `likelihood` is the percentage of iterations taking the
    /// first pattern.
    Conditional {
        /// Pattern taken with probability `likelihood`%.
        first: Pattern,
        /// Pattern taken otherwise.
        second: Pattern,
        /// Probability of `first`, in percent (0–100).
        likelihood: u8,
    },
}

impl Compose {
    /// Paper-style composed name, e.g. `"str2|irr"` or `"str1/irr"`.
    fn name(&self) -> String {
        match self {
            Compose::Single(p) => p.mnemonic(),
            Compose::Serial(ps) => ps
                .iter()
                .map(Pattern::mnemonic)
                .collect::<Vec<_>>()
                .join("|"),
            Compose::Conditional { first, second, .. } => {
                format!("{}/{}", first.mnemonic(), second.mnemonic())
            }
        }
    }
}

/// Codegen optimization level (paper varies O0 vs. O3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OptLevel {
    /// Unoptimized: per-iteration frame spills and reloads.
    O0,
    /// Optimized: ×4 unrolled, register-resident state.
    O3,
}

impl OptLevel {
    /// Suffix used in benchmark names ("-O0" / "-O3").
    pub fn suffix(self) -> &'static str {
        match self {
            OptLevel::O0 => "O0",
            OptLevel::O3 => "O3",
        }
    }
}

/// Specification of one microbenchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UKernelSpec {
    /// Pattern composition.
    pub compose: Compose,
    /// Data-array length in 8-byte elements.
    pub elems: u32,
    /// Outer repetitions (100 in the paper: "repeated 100 times").
    pub reps: u32,
    /// Optimization level.
    pub opt: OptLevel,
}

impl UKernelSpec {
    /// Benchmark name, e.g. `"str2|irr-O3"`.
    pub fn name(&self) -> String {
        format!("{}-{}", self.compose.name(), self.opt.suffix())
    }
}

/// Registers used by generated kernels (fixed allocation).
struct KRegs {
    /// Loop index.
    i: Reg,
    /// Data-array base.
    a: Reg,
    /// Index-array base.
    p: Reg,
    /// Loaded index / condition value.
    idx: Reg,
    /// Loaded data value.
    x: Reg,
    /// Scratch (Rem computation, frame traffic).
    t: Reg,
    /// Loop bound.
    n: Reg,
}

const KR: KRegs = KRegs {
    i: Reg(0),
    a: Reg(1),
    p: Reg(2),
    idx: Reg(3),
    x: Reg(4),
    t: Reg(5),
    n: Reg(6),
};

/// Deterministic pseudo-permutation of `0..n` (no `rand` dependency): a
/// multiplicative walk with an odd multiplier, fixed up to stay in range.
fn pseudo_perm(n: u32) -> Vec<u64> {
    let mult: u64 = 2_654_435_761; // Knuth's multiplicative constant (odd).
    (0..n as u64)
        .map(|i| (i.wrapping_mul(mult)) % n as u64)
        .collect()
}

/// Emit one inner loop that runs `pattern` for `iters` iterations.
///
/// `unroll` replicates the body loads (O3); `frame_traffic` adds one
/// Constant frame load per pattern load (O0).
#[allow(clippy::too_many_arguments)]
fn emit_pattern_loop(
    pb: &mut ProcBuilder,
    pattern: Pattern,
    a_base: u64,
    p_base: u64,
    elems: u32,
    unroll: u32,
    frame_traffic: bool,
    line: u32,
) {
    let body = pb.new_block();
    let exit = pb.new_block();
    pb.at_line(line);
    pb.mov_imm(KR.i, 0);
    pb.mov_imm(KR.a, a_base as i64);
    pb.mov_imm(KR.p, p_base as i64);
    // Keep the loop bound in the frame so O0 can reload it.
    pb.mov_imm(KR.n, i64::from(elems));
    if frame_traffic {
        pb.store(KR.n, AddrMode::base_disp(Reg::FP, -16));
    }
    pb.jmp(body);
    pb.switch_to(body);
    pb.at_line(line + 1);

    let (_step, iters) = match pattern {
        Pattern::Strided { step } => (step, elems / step.max(1)),
        Pattern::Irregular => (1, elems),
    };

    for u in 0..unroll {
        match pattern {
            Pattern::Strided { step } => {
                // A[(i + u)·step] — same induction variable, distinct
                // displacement per unrolled copy: all Strided.
                pb.load(
                    KR.x,
                    AddrMode {
                        base: Some(KR.a),
                        index: Some(KR.i),
                        scale: 8,
                        disp: i64::from(u) * i64::from(step) * 8,
                    },
                );
            }
            Pattern::Irregular => {
                // idx = P[i + u] (strided); x = A[idx] (irregular).
                pb.load(
                    KR.idx,
                    AddrMode {
                        base: Some(KR.p),
                        index: Some(KR.i),
                        scale: 8,
                        disp: i64::from(u) * 8,
                    },
                );
                pb.load(KR.x, AddrMode::base_index(KR.a, KR.idx, 8, 0));
            }
        }
        if frame_traffic {
            // O0-style spill/reload of the accumulator: one Constant load
            // per pattern load.
            pb.store(KR.x, AddrMode::base_disp(Reg::FP, -8));
            pb.load(KR.t, AddrMode::base_disp(Reg::FP, -8));
            if matches!(pattern, Pattern::Irregular) {
                // The gather also reloads the bound: two Constant loads
                // for its two pattern loads.
                pb.load(KR.t, AddrMode::base_disp(Reg::FP, -16));
            }
        }
    }

    // Advance the induction variable by unroll·(1 for irr, step for str).
    let iv_step = i64::from(unroll)
        * match pattern {
            Pattern::Strided { step } => i64::from(step),
            Pattern::Irregular => 1,
        };
    pb.add_imm(KR.i, iv_step);
    let bound = i64::from(iters)
        * match pattern {
            Pattern::Strided { step } => i64::from(step),
            Pattern::Irregular => 1,
        };
    pb.br(KR.i, CmpOp::Lt, Operand::Imm(bound), body, exit);
    pb.switch_to(exit);
}

/// Emit a conditional (`a/b`) loop: the choice is data-dependent on `P[i]`.
#[allow(clippy::too_many_arguments)]
fn emit_conditional_loop(
    pb: &mut ProcBuilder,
    first: Pattern,
    second: Pattern,
    a_base: u64,
    p_base: u64,
    elems: u32,
    likelihood: u8,
    frame_traffic: bool,
    line: u32,
) {
    let head = pb.new_block();
    let then_b = pb.new_block();
    let else_b = pb.new_block();
    let latch = pb.new_block();
    let exit = pb.new_block();

    pb.at_line(line);
    pb.mov_imm(KR.i, 0);
    pb.mov_imm(KR.a, a_base as i64);
    pb.mov_imm(KR.p, p_base as i64);
    pb.jmp(head);

    pb.switch_to(head);
    pb.at_line(line + 1);
    // c = P[i]; t = c % 100 — data-dependent condition ("access likelihood").
    pb.load(KR.idx, AddrMode::base_index(KR.p, KR.i, 8, 0));
    pb.mov(KR.t, KR.idx);
    pb.bin(BinOp::Rem, KR.t, Operand::Imm(100));
    pb.br(
        KR.t,
        CmpOp::Lt,
        Operand::Imm(i64::from(likelihood)),
        then_b,
        else_b,
    );

    for (blk, pat, l) in [(then_b, first, line + 2), (else_b, second, line + 3)] {
        pb.switch_to(blk);
        pb.at_line(l);
        match pat {
            Pattern::Strided { step } => {
                // Strided walk keyed to the loop index.
                pb.load(
                    KR.x,
                    AddrMode {
                        base: Some(KR.a),
                        index: Some(KR.i),
                        scale: 8,
                        disp: i64::from(step) * 8,
                    },
                );
            }
            Pattern::Irregular => {
                // Gather through the already-loaded index value.
                pb.load(KR.x, AddrMode::base_index(KR.a, KR.idx, 8, 0));
            }
        }
        if frame_traffic {
            pb.store(KR.x, AddrMode::base_disp(Reg::FP, -8));
            pb.load(KR.t, AddrMode::base_disp(Reg::FP, -8));
        }
        pb.jmp(latch);
    }

    pb.switch_to(latch);
    pb.add_imm(KR.i, 1);
    pb.br(KR.i, CmpOp::Lt, Operand::Imm(i64::from(elems)), head, exit);
    pb.switch_to(exit);
}

/// Generate a complete module for one microbenchmark: a `kernel`
/// procedure with the pattern loops and a `main` procedure repeating it
/// `spec.reps` times.
pub fn generate(spec: &UKernelSpec) -> LoadModule {
    let mut mb = ModuleBuilder::new(spec.name());
    let a_base = mb.alloc_global("A", spec.elems as usize);
    let p_base = mb.alloc_global("P", spec.elems as usize);
    mb.init_global(p_base, &pseudo_perm(spec.elems));

    let frame_traffic = spec.opt == OptLevel::O0;
    let unroll = match spec.opt {
        OptLevel::O0 => 1,
        OptLevel::O3 => 4,
    };

    let mut kb = ProcBuilder::new("kernel", "ubench.c");
    match &spec.compose {
        Compose::Single(p) => {
            emit_pattern_loop(
                &mut kb,
                *p,
                a_base,
                p_base,
                spec.elems,
                unroll,
                frame_traffic,
                10,
            );
        }
        Compose::Serial(ps) => {
            for (k, p) in ps.iter().enumerate() {
                emit_pattern_loop(
                    &mut kb,
                    *p,
                    a_base,
                    p_base,
                    spec.elems,
                    unroll,
                    frame_traffic,
                    10 + 10 * k as u32,
                );
            }
        }
        Compose::Conditional {
            first,
            second,
            likelihood,
        } => {
            emit_conditional_loop(
                &mut kb,
                *first,
                *second,
                a_base,
                p_base,
                spec.elems,
                *likelihood,
                frame_traffic,
                10,
            );
        }
    }
    kb.ret();
    let kernel = mb.add(kb);

    // main: repeat the kernel `reps` times (short-lived hotspots).
    let r = Reg(7);
    let mut main = ProcBuilder::new("main", "ubench.c");
    let body = main.new_block();
    let exit = main.new_block();
    main.at_line(1).mov_imm(r, 0);
    main.jmp(body);
    main.switch_to(body);
    main.call(kernel);
    main.add_imm(r, 1);
    main.br(r, CmpOp::Lt, Operand::Imm(i64::from(spec.reps)), body, exit);
    main.switch_to(exit);
    main.ret();
    mb.add(main);

    mb.finish()
}

/// The standard microbenchmark suite used throughout the evaluation:
/// single patterns, serial (`|`) and conditional (`/`) compositions.
pub fn standard_suite(opt: OptLevel, elems: u32, reps: u32) -> Vec<UKernelSpec> {
    let mk = |compose| UKernelSpec {
        compose,
        elems,
        reps,
        opt,
    };
    vec![
        mk(Compose::Single(Pattern::strided(1))),
        mk(Compose::Single(Pattern::strided(2))),
        mk(Compose::Single(Pattern::strided(8))),
        mk(Compose::Single(Pattern::Irregular)),
        mk(Compose::Serial(vec![
            Pattern::strided(1),
            Pattern::Irregular,
        ])),
        mk(Compose::Serial(vec![
            Pattern::strided(4),
            Pattern::strided(1),
        ])),
        mk(Compose::Conditional {
            first: Pattern::strided(1),
            second: Pattern::Irregular,
            likelihood: 50,
        }),
        mk(Compose::Conditional {
            first: Pattern::strided(2),
            second: Pattern::Irregular,
            likelihood: 90,
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Machine, VecSink};

    fn run(spec: &UKernelSpec) -> (LoadModule, crate::interp::ExecStats, VecSink) {
        let m = generate(spec);
        let main = m.find_proc("main").unwrap();
        let mut mach = Machine::new(&m, VecSink::default());
        let stats = mach.run(main, 50_000_000).unwrap();
        let sink = mach.into_sink();
        (m, stats, sink)
    }

    #[test]
    fn names_follow_paper_convention() {
        let s = UKernelSpec {
            compose: Compose::Serial(vec![Pattern::strided(2), Pattern::Irregular]),
            elems: 64,
            reps: 1,
            opt: OptLevel::O3,
        };
        assert_eq!(s.name(), "str2|irr-O3");
        let c = UKernelSpec {
            compose: Compose::Conditional {
                first: Pattern::strided(1),
                second: Pattern::Irregular,
                likelihood: 50,
            },
            elems: 64,
            reps: 1,
            opt: OptLevel::O0,
        };
        assert_eq!(c.name(), "str1/irr-O0");
    }

    #[test]
    fn strided_o3_loads_expected_count() {
        let spec = UKernelSpec {
            compose: Compose::Single(Pattern::strided(2)),
            elems: 256,
            reps: 3,
            opt: OptLevel::O3,
        };
        let (_, stats, sink) = run(&spec);
        // 256/2 = 128 accesses per rep × 3 reps.
        assert_eq!(stats.loads, 128 * 3);
        // Strided addresses step by 16 bytes within a rep.
        let step = sink.loads[1].1 as i64 - sink.loads[0].1 as i64;
        assert_eq!(step, 16);
    }

    #[test]
    fn irregular_hits_whole_array() {
        let spec = UKernelSpec {
            compose: Compose::Single(Pattern::Irregular),
            elems: 128,
            reps: 1,
            opt: OptLevel::O3,
        };
        let (m, stats, sink) = run(&spec);
        // Per element: one index load + one data load.
        assert_eq!(stats.loads, 2 * 128);
        // All data-load addresses fall within A.
        let a = m.data.iter().find(|d| d.label == "A").unwrap();
        let hi = a.base + a.words.len() as u64 * 8;
        let data_loads: Vec<u64> = sink
            .loads
            .iter()
            .map(|l| l.1)
            .filter(|&ad| ad >= a.base && ad < hi)
            .collect();
        assert_eq!(data_loads.len(), 128);
    }

    #[test]
    fn o0_adds_constant_frame_loads() {
        let spec = UKernelSpec {
            compose: Compose::Single(Pattern::strided(1)),
            elems: 64,
            reps: 1,
            opt: OptLevel::O0,
        };
        let (m, stats, _) = run(&spec);
        // One pattern load + one frame reload per iteration → 2×.
        assert_eq!(stats.loads, 2 * 64);
        // The classifier sees both classes.
        let kernel = m.find_proc("kernel").unwrap();
        let df = crate::dataflow::tests::analyze(m.proc(kernel));
        let [constant, strided, _] = crate::dataflow::tests::class_counts(&df);
        assert!(constant >= 1, "O0 kernel must contain constant loads");
        assert!(strided >= 1);
    }

    #[test]
    fn classifier_agrees_with_generated_patterns() {
        for (compose, want_str, want_irr) in [
            (Compose::Single(Pattern::strided(2)), true, false),
            (Compose::Single(Pattern::Irregular), true, true), // index load is strided
        ] {
            let spec = UKernelSpec {
                compose,
                elems: 64,
                reps: 1,
                opt: OptLevel::O3,
            };
            let m = generate(&spec);
            let kernel = m.find_proc("kernel").unwrap();
            let df = crate::dataflow::tests::analyze(m.proc(kernel));
            let [_, strided, irregular] = crate::dataflow::tests::class_counts(&df);
            assert_eq!(strided > 0, want_str, "{}", spec.name());
            assert_eq!(irregular > 0, want_irr, "{}", spec.name());
        }
    }

    #[test]
    fn conditional_splits_by_likelihood() {
        let spec = UKernelSpec {
            compose: Compose::Conditional {
                first: Pattern::strided(1),
                second: Pattern::Irregular,
                likelihood: 50,
            },
            elems: 1000,
            reps: 1,
            opt: OptLevel::O3,
        };
        let (m, stats, sink) = run(&spec);
        // One condition load per iteration plus one pattern load.
        assert_eq!(stats.loads, 2 * 1000);
        // Roughly half the pattern loads are gathers into A via idx: count
        // loads whose ip belongs to the else block. We approximate by
        // checking both branch blocks executed.
        let kernel = m.find_proc("kernel").unwrap();
        let layout = m.layout();
        let mut per_block = std::collections::HashMap::new();
        for (ip, _, _) in &sink.loads {
            if let Some((p, b, _)) = layout.locate(*ip) {
                if p == kernel {
                    *per_block.entry(b).or_insert(0u64) += 1;
                }
            }
        }
        assert!(per_block.len() >= 3, "head + both branches must load");
    }

    #[test]
    fn serial_composition_runs_both_phases() {
        let spec = UKernelSpec {
            compose: Compose::Serial(vec![Pattern::strided(1), Pattern::Irregular]),
            elems: 64,
            reps: 2,
            opt: OptLevel::O3,
        };
        let (_, stats, _) = run(&spec);
        // Per rep: 64 strided + 2·64 gather loads.
        assert_eq!(stats.loads, 2 * (64 + 128));
    }

    #[test]
    fn standard_suite_all_run() {
        for spec in standard_suite(OptLevel::O3, 128, 2) {
            let (_, stats, _) = run(&spec);
            assert!(stats.loads > 0, "{} executed no loads", spec.name());
        }
    }

    #[test]
    fn pseudo_perm_in_range() {
        let p = pseudo_perm(97);
        assert!(p.iter().all(|&v| v < 97));
        // Spread: at least half the values distinct.
        let distinct: std::collections::HashSet<_> = p.iter().collect();
        assert!(distinct.len() > 48);
    }
}
