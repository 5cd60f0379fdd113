//! Graphs in CSR form plus synthetic generators.
//!
//! The paper's graph benchmarks run on generated graphs (GAP uses a
//! Kronecker graph of 2²² vertices and 64 M edges; miniVite generates its
//! input too). We provide a uniform (Erdős–Rényi-style) generator and an
//! RMAT/Kronecker generator with the usual (0.57, 0.19, 0.19, 0.05)
//! partition probabilities, scaled down by default so full-trace
//! validation baselines stay tractable.

use crate::containers::TVec;
use crate::space::{LoadRecorder, SiteId, TracedSpace};
use memgaze_model::LoadClass;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// An undirected graph in CSR form, traced.
pub struct Graph {
    /// Number of vertices.
    pub n: usize,
    /// Offsets into `targets` (n+1 entries).
    pub offsets: TVec<u64>,
    /// Flattened adjacency lists.
    pub targets: TVec<u32>,
    /// Per-edge weights, parallel to `targets`.
    pub weights: TVec<u32>,
    sites: GraphSites,
}

struct GraphSites {
    offset: SiteId,
    target: SiteId,
    weight: SiteId,
}

/// Graph generator family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// Uniformly random endpoints.
    Uniform,
    /// RMAT/Kronecker with skewed degree distribution.
    Rmat,
}

impl Graph {
    /// Generate a graph with `2^scale` vertices and `degree·2^scale`
    /// undirected edges, building it through the traced space (the
    /// paper's distinct "graph generation" phase).
    pub fn generate<R: LoadRecorder>(
        space: &mut TracedSpace<R>,
        kind: GraphKind,
        scale: u32,
        degree: usize,
        seed: u64,
    ) -> Graph {
        let n = 1usize << scale;
        let m = n * degree;
        let mut rng = SmallRng::seed_from_u64(seed);

        // Edge list.
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m);
        for _ in 0..m {
            let (u, v) = match kind {
                GraphKind::Uniform => (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32),
                GraphKind::Rmat => rmat_edge(&mut rng, scale),
            };
            edges.push((u, v));
        }

        // Degree count + prefix sum (both directions: undirected). A
        // vertex's count lands two slots up, so after the sum `deg[u + 1]`
        // is where `u`'s edges start; the scatter advances it to where
        // they end, `offsets[u + 1]`, and no copy of the sums is needed.
        let mut deg = vec![0u64; n + 2];
        for &(u, v) in &edges {
            deg[u as usize + 2] += 1;
            deg[v as usize + 2] += 1;
        }
        for i in 2..=n + 1 {
            deg[i] += deg[i - 1];
        }
        let total = 2 * m;
        let mut targets_raw = vec![0u32; total];
        let mut weights_raw = vec![0u32; total];
        for &(u, v) in &edges {
            let w = rng.gen_range(1..16u32);
            let cu = deg[u as usize + 1] as usize;
            targets_raw[cu] = v;
            weights_raw[cu] = w;
            deg[u as usize + 1] += 1;
            let cv = deg[v as usize + 1] as usize;
            targets_raw[cv] = u;
            weights_raw[cv] = w;
            deg[v as usize + 1] += 1;
        }
        deg.truncate(n + 1);
        let offsets_raw = deg;

        let sites = GraphSites {
            offset: space.site("graph", "offset", LoadClass::Strided, true, 50),
            target: space.site("graph", "target", LoadClass::Strided, true, 51),
            weight: space.site("graph", "weight", LoadClass::Strided, true, 52),
        };
        // Touch the CSR while building it — the generation phase's
        // memory traffic (one pass of strided stores + loads).
        let offsets = TVec::from_vec(space, "csr-offsets", offsets_raw);
        let targets = TVec::from_vec(space, "csr-targets", targets_raw);
        let weights = TVec::from_vec(space, "csr-weights", weights_raw);
        for i in 0..n {
            space.load(sites.offset, offsets.addr(i));
            space.store(offsets.addr(i));
        }
        for i in 0..total {
            space.load(sites.target, targets.addr(i));
            space.store(targets.addr(i));
            // Edge generation does real compute (RNG, partitioning,
            // prefix sums): charge ALU work so the phase's ptwrite
            // density matches generator-like code.
            space.alu(24);
        }

        Graph {
            n,
            offsets,
            targets,
            weights,
            sites,
        }
    }

    /// Number of directed edges (2× the undirected count).
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Untraced degree of `u`.
    pub fn degree(&self, u: usize) -> usize {
        (self.offsets.raw()[u + 1] - self.offsets.raw()[u]) as usize
    }

    /// Traced adjacency access: the half-open range of `u`'s edges.
    /// Two strided offset loads (`offsets[u]`, `offsets[u+1]`).
    pub fn edge_range<R: LoadRecorder>(
        &self,
        space: &mut TracedSpace<R>,
        u: usize,
    ) -> (usize, usize) {
        let lo = *self.offsets.get(space, self.sites.offset, u);
        let hi = *self.offsets.get(space, self.sites.offset, u + 1);
        (lo as usize, hi as usize)
    }

    /// Traced edge target load (strided over the adjacency list).
    pub fn target<R: LoadRecorder>(&self, space: &mut TracedSpace<R>, e: usize) -> u32 {
        *self.targets.get(space, self.sites.target, e)
    }

    /// Traced edge weight load.
    pub fn weight<R: LoadRecorder>(&self, space: &mut TracedSpace<R>, e: usize) -> u32 {
        *self.weights.get(space, self.sites.weight, e)
    }
}

/// The RMAT partition probabilities `(a, b, c)`; `d = 1 − a − b − c`.
const RMAT_ABC: (f64, f64, f64) = (0.57, 0.19, 0.19);

/// `x · 2⁵³` as an integer, for `x` in `[0.5, 1)`: such an `f64` is an
/// integer multiple of 2⁻⁵³, so the product is exact.
const fn unit_to_k53(x: f64) -> u64 {
    assert!(x >= 0.5 && x < 1.0);
    (x * (1u64 << 53) as f64) as u64
}

/// The quadrant thresholds `a`, `a + b` and `a + b + c` (each sum
/// rounded as `f64` arithmetic rounds it) scaled by 2⁵³.
const RMAT_THRESHOLDS: [u64; 3] = {
    let (a, b, c) = RMAT_ABC;
    [unit_to_k53(a), unit_to_k53(a + b), unit_to_k53(a + b + c)]
};

/// One RMAT edge: recursively descend the adjacency-matrix quadrants.
///
/// Each level draws what `rng.gen::<f64>()` would, `r = k · 2⁻⁵³` with
/// `k = next_u64() >> 11`, and compares `k` with the thresholds instead:
/// `r < t ⇔ k < t · 2⁵³` exactly, since both sides are multiples of
/// 2⁻⁵³. Below `a` is the top-left quadrant; `[a, a+b)` sets the `v`
/// bit, `[a+b, a+b+c)` the `u` bit, and the rest both — so `u`'s bit is
/// `k ≥ a+b` and `v`'s is the parity of the three comparisons.
fn rmat_edge(rng: &mut SmallRng, scale: u32) -> (u32, u32) {
    let [t1, t2, t3] = RMAT_THRESHOLDS;
    let mut u = 0u32;
    let mut v = 0u32;
    for _ in 0..scale {
        let k = rng.next_u64() >> 11;
        let (ge1, ge2, ge3) = (u32::from(k >= t1), u32::from(k >= t2), u32::from(k >= t3));
        u = (u << 1) | ge2;
        v = (v << 1) | (ge1 ^ ge2 ^ ge3);
    }
    (u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::NullRecorder;

    #[test]
    fn csr_structure_consistent() {
        let mut space = TracedSpace::new(NullRecorder);
        let g = Graph::generate(&mut space, GraphKind::Uniform, 8, 4, 1);
        assert_eq!(g.n, 256);
        assert_eq!(g.num_edges(), 2 * 256 * 4);
        assert_eq!(g.offsets.raw()[0], 0);
        assert_eq!(*g.offsets.raw().last().unwrap() as usize, g.num_edges());
        // Offsets are monotone; targets are in range.
        assert!(g.offsets.raw().windows(2).all(|w| w[0] <= w[1]));
        assert!(g.targets.raw().iter().all(|&t| (t as usize) < g.n));
        // Degree sum matches.
        let total: usize = (0..g.n).map(|u| g.degree(u)).sum();
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn rmat_is_skewed() {
        let mut space = TracedSpace::new(NullRecorder);
        let g = Graph::generate(&mut space, GraphKind::Rmat, 10, 8, 7);
        let mut degs: Vec<usize> = (0..g.n).map(|u| g.degree(u)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        // Top 1% of vertices should hold far more than 1% of edges.
        let top: usize = degs[..g.n / 100].iter().sum();
        assert!(
            top as f64 > 0.10 * g.num_edges() as f64,
            "top-1% holds only {top} of {}",
            g.num_edges()
        );
        // Uniform graphs are not skewed like that.
        let gu = Graph::generate(&mut space, GraphKind::Uniform, 10, 8, 7);
        let mut du: Vec<usize> = (0..gu.n).map(|u| gu.degree(u)).collect();
        du.sort_unstable_by(|a, b| b.cmp(a));
        let top_u: usize = du[..gu.n / 100].iter().sum();
        assert!(top > 2 * top_u, "rmat {top} vs uniform {top_u}");
    }

    #[test]
    fn traced_traversal_emits_loads() {
        let mut space = TracedSpace::new(NullRecorder);
        let g = Graph::generate(&mut space, GraphKind::Uniform, 6, 4, 3);
        let before = space.counters().loads;
        let (lo, hi) = g.edge_range(&mut space, 0);
        for e in lo..hi {
            let t = g.target(&mut space, e);
            let w = g.weight(&mut space, e);
            assert!((t as usize) < g.n);
            assert!(w >= 1);
        }
        let after = space.counters().loads;
        assert_eq!(after - before, 2 + 2 * (hi - lo) as u64);
    }

    /// The float-compare descent the integer one replaced: the oracle.
    fn rmat_edge_float(rng: &mut SmallRng, scale: u32) -> (u32, u32) {
        let (a, b, c) = RMAT_ABC;
        let mut u = 0u32;
        let mut v = 0u32;
        for _ in 0..scale {
            u <<= 1;
            v <<= 1;
            let r: f64 = rng.gen();
            if r < a {
                // top-left
            } else if r < a + b {
                v |= 1;
            } else if r < a + b + c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        (u, v)
    }

    #[test]
    fn integer_descent_matches_the_float_one() {
        // 4 seeds × 12 500 edges × 21 levels: 1.05 M draws, every edge
        // and the generator state after it equal.
        for seed in [0, 1, 0x6a9, u64::MAX] {
            let mut int = SmallRng::seed_from_u64(seed);
            let mut float = SmallRng::seed_from_u64(seed);
            for e in 0..12_500 {
                assert_eq!(
                    rmat_edge(&mut int, 21),
                    rmat_edge_float(&mut float, 21),
                    "seed {seed} edge {e}"
                );
            }
            assert_eq!(int.next_u64(), float.next_u64(), "seed {seed}: draws");
        }
    }

    #[test]
    fn thresholds_sit_on_either_side_of_each_draw() {
        // The draws either side of every threshold fall where the float
        // compare puts them.
        let (a, b, c) = RMAT_ABC;
        let unit = 1.0 / (1u64 << 53) as f64;
        for (t, x) in RMAT_THRESHOLDS.into_iter().zip([a, a + b, a + b + c]) {
            assert!(((t - 1) as f64 * unit) < x);
            assert!((t as f64 * unit) >= x);
        }
    }

    /// FNV-1a-64 of a graph's CSR arrays and of the load stream its
    /// generation emits.
    fn generate_digest(kind: GraphKind, scale: u32, degree: usize, seed: u64) -> (u64, u64) {
        use memgaze_model::Fnv64;
        let mut stream = Fnv64::new();
        let csr = {
            let rec =
                crate::space::FnRecorder(|ip: memgaze_model::Ip, addr: u64, _: bool, _: u8| {
                    stream
                        .update(&ip.0.to_le_bytes())
                        .update(&addr.to_le_bytes());
                });
            let mut space = TracedSpace::new(rec);
            let g = Graph::generate(&mut space, kind, scale, degree, seed);
            let mut h = Fnv64::new();
            g.offsets.raw().iter().for_each(|o| {
                h.update(&o.to_le_bytes());
            });
            for (t, w) in g.targets.raw().iter().zip(g.weights.raw()) {
                h.update(&t.to_le_bytes()).update(&w.to_le_bytes());
            }
            h.finish()
        };
        (csr, stream.finish())
    }

    /// `(kind, scale, degree, seed, (CSR digest, generation-stream
    /// digest))`.
    type GoldenGraph = (GraphKind, u32, usize, u64, (u64, u64));

    const GOLDEN_GRAPHS: [GoldenGraph; 8] = [
        (
            GraphKind::Uniform,
            6,
            4,
            1,
            (0xc4de_5952_61b1_ec19, 0x1845_7549_f518_6f25),
        ),
        (
            GraphKind::Uniform,
            9,
            12,
            2,
            (0x1232_a2e9_f931_e21c, 0x6771_53ac_e9a5_2e25),
        ),
        (
            GraphKind::Uniform,
            8,
            8,
            0x6a9,
            (0x928c_1ba3_e7ba_70fe, 0x2614_dc4f_6ccd_9b25),
        ),
        (
            GraphKind::Uniform,
            11,
            3,
            77,
            (0x66e3_415f_99fd_98ac, 0xcf6a_e1f0_c64a_3925),
        ),
        (
            GraphKind::Rmat,
            6,
            4,
            1,
            (0xfebd_e24c_1c4c_9454, 0x1845_7549_f518_6f25),
        ),
        (
            GraphKind::Rmat,
            9,
            12,
            2,
            (0xfaaf_7a17_3b10_e7fc, 0x6771_53ac_e9a5_2e25),
        ),
        (
            GraphKind::Rmat,
            8,
            8,
            0x6a9,
            (0xad42_6985_2c6c_bab0, 0x2614_dc4f_6ccd_9b25),
        ),
        (
            GraphKind::Rmat,
            11,
            3,
            77,
            (0x1638_d54a_342e_8b84, 0xcf6a_e1f0_c64a_3925),
        ),
    ];

    /// Graphs over seeds × generator kinds, digests recorded at commit
    /// c8f3c79 (the float-compare RMAT descent, two copies of the
    /// degree prefix sums).
    #[test]
    fn generated_graphs_are_the_parent_commits() {
        for (kind, scale, degree, seed, want) in GOLDEN_GRAPHS {
            let got = generate_digest(kind, scale, degree, seed);
            assert_eq!(
                got, want,
                "{kind:?} scale {scale} degree {degree} seed {seed}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut s1 = TracedSpace::new(NullRecorder);
        let mut s2 = TracedSpace::new(NullRecorder);
        let g1 = Graph::generate(&mut s1, GraphKind::Rmat, 8, 4, 42);
        let g2 = Graph::generate(&mut s2, GraphKind::Rmat, 8, 4, 42);
        assert_eq!(g1.targets.raw(), g2.targets.raw());
        assert_eq!(g1.offsets.raw(), g2.offsets.raw());
    }
}
