//! Everything the workloads run on, generated from the seed: the native
//! kernels (the case-study workloads at the benchmark's sizes plus three
//! shape kernels written here), the dense traces the analysis, store
//! and serve workloads consume, and the synthetic load modules.
//!
//! Sizes are constants, never tuned at run time: a round must do the
//! same work on every host and every commit.

use memgaze_core::trace_workload;
use memgaze_isa::{AddrMode, CmpOp, LoadModule, ModuleBuilder, Operand, ProcBuilder, Reg};
use memgaze_model::{
    encode_sharded_indexed, AuxAnnotations, FrameIndex, LoadClass, SampledTrace, SymbolTable,
};
use memgaze_ptsim::SamplerConfig;
use memgaze_workloads::darknet::{self, Network};
use memgaze_workloads::gap::{self, GapConfig, GapKernel};
use memgaze_workloads::minivite::{self, MapVariant, MiniViteConfig};
use memgaze_workloads::{LoadRecorder, TVec, TracedSpace};

/// Samples per container frame, everywhere a trace is sharded.
pub const SHARD_SAMPLES: usize = 16;
/// Locality-vs-interval sizes of every streaming analysis.
pub const LOCALITY_SIZES: [u64; 2] = [16, 64];
/// Average degree of every generated graph.
const DEGREE: usize = 12;

/// `Full` is what the timed rounds run; `Small` is the oracle-only
/// `--check` and the filler rounds of layers a traced run does not own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// The input constants of one scale.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// log2 vertices of the graphs (miniVite, GAP).
    pub graph_scale: u32,
    /// Sparse-collection sampling period, in loads.
    pub sparse_period: u64,
    /// Dense-collection sampling period, in loads.
    pub dense_period: u64,
    /// CSR SpMV: rows, and sweeps over the matrix.
    pub spmv_rows: usize,
    pub spmv_sweeps: usize,
    /// 5-point stencil: grid side, and sweeps.
    pub stencil_side: usize,
    pub stencil_sweeps: usize,
    /// Pointer chase: nodes in the cycle, and steps taken.
    pub chase_nodes: usize,
    pub chase_steps: usize,
    /// Synthetic load modules: procedures of the small and the large one.
    pub module_procs: [usize; 2],
    /// Microbenchmark array elements and repetitions.
    pub ubench_elems: u32,
    pub ubench_reps: u32,
    /// Serve: sessions per round and samples per session.
    pub sessions: usize,
    pub session_samples: usize,
    /// Store: catalog queries per round.
    pub queries: usize,
    /// Load events replayed into the sampler by the `ptsim` probe.
    pub replay_events: usize,
}

impl Scale {
    pub fn sizes(self) -> Sizes {
        match self {
            Scale::Full => Sizes {
                graph_scale: 11,
                sparse_period: 250_000,
                dense_period: 10_000,
                spmv_rows: 1 << 13,
                spmv_sweeps: 2,
                stencil_side: 256,
                stencil_sweeps: 2,
                chase_nodes: 1 << 16,
                chase_steps: 1 << 19,
                module_procs: [24, 300],
                ubench_elems: 1024,
                ubench_reps: 16,
                sessions: 16,
                session_samples: 64,
                queries: 1000,
                replay_events: 10_000_000,
            },
            Scale::Small => Sizes {
                graph_scale: 8,
                sparse_period: 50_000,
                dense_period: 2_000,
                spmv_rows: 1 << 9,
                spmv_sweeps: 2,
                stencil_side: 48,
                stencil_sweeps: 2,
                chase_nodes: 1 << 10,
                chase_steps: 1 << 14,
                module_procs: [4, 24],
                ubench_elems: 128,
                ubench_reps: 4,
                sessions: 4,
                session_samples: 16,
                queries: 100,
                replay_events: 200_000,
            },
        }
    }
}

/// SplitMix64: derives every input seed from `--seed` and a tag, so the
/// inputs of one workload do not move when another's are changed.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Xorshift64 for input generation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One native kernel with its inputs fixed.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    MiniVite(MiniViteConfig),
    Gap(GapConfig),
    Darknet(Network),
    /// CSR sparse matrix-vector product: strided index and value
    /// streams, an irregular gather from `x`.
    Spmv {
        rows: usize,
        sweeps: usize,
        seed: u64,
    },
    /// 5-point stencil sweep over a square grid: all strided.
    Stencil {
        side: usize,
        sweeps: usize,
    },
    /// Pointer chase round a random cycle: all irregular.
    Chase {
        nodes: usize,
        steps: usize,
        seed: u64,
    },
}

impl Kernel {
    pub fn name(&self) -> String {
        match self {
            Kernel::MiniVite(c) => format!("miniVite-{}", c.variant.label()),
            Kernel::Gap(c) => format!("gap-{}", c.kernel.label()),
            Kernel::Darknet(n) => format!("darknet-{}", n.label()),
            Kernel::Spmv { .. } => "spmv".to_string(),
            Kernel::Stencil { .. } => "stencil".to_string(),
            Kernel::Chase { .. } => "chase".to_string(),
        }
    }

    pub fn run<R: LoadRecorder>(&self, space: &mut TracedSpace<R>) {
        match *self {
            Kernel::MiniVite(c) => {
                minivite::run(space, &c);
            }
            Kernel::Gap(c) => {
                gap::run(space, &c);
            }
            Kernel::Darknet(n) => {
                darknet::run(space, n);
            }
            Kernel::Spmv { rows, sweeps, seed } => spmv(space, rows, sweeps, seed),
            Kernel::Stencil { side, sweeps } => stencil(space, side, sweeps),
            Kernel::Chase { nodes, steps, seed } => chase(space, nodes, steps, seed),
        }
    }
}

fn minivite_kernel(seed: u64, sizes: &Sizes, variant: MapVariant) -> Kernel {
    Kernel::MiniVite(MiniViteConfig {
        scale: sizes.graph_scale,
        degree: DEGREE,
        iterations: 2,
        variant,
        seed: derive_seed(seed, 1),
        v2_default_capacity: 64,
    })
}

fn gap_kernel(seed: u64, sizes: &Sizes, kernel: GapKernel) -> Kernel {
    Kernel::Gap(GapConfig {
        scale: sizes.graph_scale,
        degree: DEGREE,
        kernel,
        max_iters: 12,
        seed: derive_seed(seed, 2),
    })
}

fn shape_kernels(seed: u64, sizes: &Sizes) -> [Kernel; 3] {
    [
        Kernel::Spmv {
            rows: sizes.spmv_rows,
            sweeps: sizes.spmv_sweeps,
            seed: derive_seed(seed, 3),
        },
        Kernel::Stencil {
            side: sizes.stencil_side,
            sweeps: sizes.stencil_sweeps,
        },
        Kernel::Chase {
            nodes: sizes.chase_nodes,
            steps: sizes.chase_steps,
            seed: derive_seed(seed, 4),
        },
    ]
}

/// The kernels `collect_sparse` traces: both miniVite map variants, two
/// GAP kernels, one Darknet network and the shape kernels.
pub fn sparse_kernels(seed: u64, sizes: &Sizes) -> Vec<Kernel> {
    let mut k = vec![
        minivite_kernel(seed, sizes, MapVariant::V1),
        minivite_kernel(seed, sizes, MapVariant::V3),
        gap_kernel(seed, sizes, GapKernel::Pr),
        gap_kernel(seed, sizes, GapKernel::Cc),
        Kernel::Darknet(Network::AlexNet),
    ];
    k.extend(shape_kernels(seed, sizes));
    k
}

/// The kernels whose dense traces the analysis, store and serve
/// workloads consume: irregular shapes (graph, chase) beside strided,
/// RLE-friendly ones (Darknet, stencil).
pub fn dense_kernels(seed: u64, sizes: &Sizes) -> Vec<Kernel> {
    let mut k = vec![
        minivite_kernel(seed, sizes, MapVariant::V1),
        gap_kernel(seed, sizes, GapKernel::Pr),
        Kernel::Darknet(Network::AlexNet),
    ];
    k.extend(shape_kernels(seed, sizes));
    k
}

/// The application sampler at `period`, jitter seeded from `--seed`.
pub fn sparse_sampler(seed: u64, sizes: &Sizes) -> SamplerConfig {
    let mut cfg = SamplerConfig::application(sizes.sparse_period);
    cfg.seed = derive_seed(seed, 5);
    cfg
}

fn spmv<R: LoadRecorder>(space: &mut TracedSpace<R>, rows: usize, sweeps: usize, seed: u64) {
    const PER_ROW: usize = 8;
    space.phase("spmv");
    let mut rng = Rng::new(seed);
    let cols: Vec<u32> = (0..rows * PER_ROW)
        .map(|_| rng.below(rows) as u32)
        .collect();
    let col_idx = TVec::from_vec(space, "col_idx", cols);
    let vals = TVec::new(space, "vals", rows * PER_ROW, 3u64);
    let x = TVec::new(space, "x", rows, 1u64);
    let mut y = TVec::new(space, "y", rows, 0u64);
    let s_col = space.site("spmv", "col_idx[k]", LoadClass::Strided, false, 10);
    let s_val = space.site("spmv", "vals[k]", LoadClass::Strided, false, 11);
    let s_x = space.site("spmv", "x[col]", LoadClass::Irregular, true, 12);
    for _ in 0..sweeps {
        for r in 0..rows {
            let mut acc = 0u64;
            for k in r * PER_ROW..(r + 1) * PER_ROW {
                let c = *col_idx.get(space, s_col, k) as usize;
                let v = *vals.get(space, s_val, k);
                acc = acc.wrapping_add(v.wrapping_mul(*x.get(space, s_x, c)));
            }
            y.set(space, r, acc);
        }
    }
}

fn stencil<R: LoadRecorder>(space: &mut TracedSpace<R>, side: usize, sweeps: usize) {
    space.phase("stencil");
    let grid = TVec::new(space, "grid", side * side, 1u64);
    let mut out = TVec::new(space, "out", side * side, 0u64);
    let sites = [
        space.site("stencil", "g[y][x]", LoadClass::Strided, false, 20),
        space.site("stencil", "g[y][x-1]", LoadClass::Strided, false, 21),
        space.site("stencil", "g[y][x+1]", LoadClass::Strided, false, 22),
        space.site("stencil", "g[y-1][x]", LoadClass::Strided, false, 23),
        space.site("stencil", "g[y+1][x]", LoadClass::Strided, false, 24),
    ];
    for _ in 0..sweeps {
        for y in 1..side - 1 {
            for x in 1..side - 1 {
                let c = y * side + x;
                let mut acc = 0u64;
                for (site, at) in sites.iter().zip([c, c - 1, c + 1, c - side, c + side]) {
                    acc = acc.wrapping_add(*grid.get(space, *site, at));
                }
                out.set(space, c, acc);
            }
        }
    }
}

fn chase<R: LoadRecorder>(space: &mut TracedSpace<R>, nodes: usize, steps: usize, seed: u64) {
    space.phase("chase");
    // Sattolo's shuffle: one cycle through every node.
    let mut rng = Rng::new(seed);
    let mut next: Vec<u32> = (0..nodes as u32).collect();
    for i in (1..nodes).rev() {
        next.swap(i, rng.below(i));
    }
    let next = TVec::from_vec(space, "nodes", next);
    let site = space.site("chase", "n->next", LoadClass::Irregular, false, 30);
    let mut cur = 0usize;
    for _ in 0..steps {
        cur = *next.get(space, site, cur) as usize;
    }
    std::hint::black_box(cur);
}

/// A trace in its stored form: the sharded container, its frame index
/// and the side tables an analysis needs.
pub struct Container {
    pub name: String,
    pub annots: AuxAnnotations,
    pub symbols: SymbolTable,
    pub bytes: Vec<u8>,
    pub index: FrameIndex,
    /// Program loads the trace stands for (`TraceMeta::total_loads`).
    pub loads: u64,
    /// Sampled accesses it holds.
    pub accesses: u64,
}

/// Collect the dense traces (16 KiB buffer, continuous PT) and encode
/// each as a sharded container.
pub fn dense_traces(seed: u64, sizes: &Sizes) -> Vec<(SampledTrace, Container)> {
    let mut cfg = SamplerConfig::microbench();
    cfg.period = sizes.dense_period;
    cfg.seed = derive_seed(seed, 6);
    dense_kernels(seed, sizes)
        .iter()
        .map(|k| {
            let name = k.name();
            let (report, ()) = trace_workload(&name, &cfg, |s| k.run(s));
            let (bytes, index) = encode_sharded_indexed(&report.trace, SHARD_SAMPLES);
            let container = Container {
                name,
                annots: report.annots,
                symbols: report.symbols,
                bytes,
                index,
                loads: report.trace.meta.total_loads,
                accesses: report.trace.observed_accesses(),
            };
            (report.trace, container)
        })
        .collect()
}

/// Loads per procedure of the synthetic modules (Table II's shape).
pub const MODULE_LOADS_PER_PROC: usize = 60;

/// A synthetic load module of `procs` procedures, each one loop of
/// [`MODULE_LOADS_PER_PROC`] loads, a third each strided, irregular
/// (through the value loaded before) and constant (frame). The seed
/// rotates the class order per procedure, so the class counts are the
/// same for every seed and only the layout moves.
pub fn synthetic_module(procs: usize, seed: u64) -> LoadModule {
    let mut rng = Rng::new(seed);
    let mut mb = ModuleBuilder::new(format!("synthetic-{procs}"));
    let base = mb.alloc_global("data", 512);
    for p in 0..procs {
        let mut pb = ProcBuilder::new(format!("f{p}"), "synth.c");
        let body = pb.new_block();
        let exit = pb.new_block();
        let (i, a, x) = (Reg::gp(0), Reg::gp(1), Reg::gp(2));
        pb.mov_imm(i, 0)
            .mov_imm(a, base as i64)
            .mov_imm(x, base as i64);
        pb.jmp(body);
        pb.switch_to(body);
        let rot = rng.below(3);
        for l in 0..MODULE_LOADS_PER_PROC {
            match (l + rot) % 3 {
                0 => pb.load(x, AddrMode::base_index(a, i, 8, (l as i64) * 8)),
                1 => pb.load(x, AddrMode::base_disp(x, 0)),
                _ => pb.load(x, AddrMode::base_disp(Reg::FP, -8 - (l as i64))),
            };
        }
        pb.add_imm(i, 1);
        pb.br(i, CmpOp::Lt, Operand::Imm(4), body, exit);
        pb.switch_to(exit);
        pb.ret();
        mb.add(pb);
    }
    mb.finish()
}
