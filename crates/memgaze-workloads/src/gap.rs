//! GAP benchmarks: PageRank and Connected Components (paper §VII-C).
//!
//! * `pr` — Gauss–Seidel PageRank: score updates are applied
//!   *immediately*, giving better reuse of the `o-score` object and fewer
//!   iterations.
//! * `pr-spmv` — Jacobi-style PageRank: contributions are saved to a
//!   separate array until the next iteration.
//! * `cc` — Afforest: neighbor sampling over the first `K` edges, then
//!   finalization that skips the largest intermediate component; more
//!   accesses but better locality structure.
//! * `cc-sv` — Shiloach–Vishkin: repeated hook/compress sweeps over every
//!   edge until quiescent.

use crate::containers::TVec;
use crate::graph::Graph;
use crate::space::{LoadRecorder, TracedSpace};
use memgaze_model::LoadClass;
use serde::{Deserialize, Serialize};

/// Which GAP kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GapKernel {
    /// Gauss–Seidel PageRank.
    Pr,
    /// Jacobi (SpMV-style) PageRank.
    PrSpmv,
    /// Afforest connected components.
    Cc,
    /// Shiloach–Vishkin connected components.
    CcSv,
}

impl GapKernel {
    /// Benchmark label ("pr", "pr-spmv", "cc", "cc-sv").
    pub fn label(self) -> &'static str {
        match self {
            GapKernel::Pr => "pr",
            GapKernel::PrSpmv => "pr-spmv",
            GapKernel::Cc => "cc",
            GapKernel::CcSv => "cc-sv",
        }
    }
}

/// GAP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GapConfig {
    /// Graph scale (the paper uses 2²²; scaled down by default).
    pub scale: u32,
    /// Average degree (the paper's graphs have 16 edges/vertex).
    pub degree: usize,
    /// Kernel to run.
    pub kernel: GapKernel,
    /// PageRank iteration cap.
    pub max_iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GapConfig {
    fn default() -> Self {
        GapConfig {
            scale: 11,
            degree: 8,
            kernel: GapKernel::Pr,
            max_iters: 12,
            seed: 0x6a9,
        }
    }
}

/// Result of a GAP run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GapResult {
    /// Iterations executed.
    pub iterations: usize,
    /// PageRank: final scores (scaled ×10⁶ integers); CC: component ids.
    pub values: Vec<u64>,
    /// Abstract work cost (for run-time comparisons; Table IX's Time).
    pub abstract_cost: u64,
}

const COST_IRREGULAR: u64 = 12;
const COST_STRIDED: u64 = 1;

/// Fixed-point scale for PageRank scores.
const FXP: u64 = 1 << 20;

/// Run the configured kernel: graph-generation phase, then the algorithm
/// phase ("rank" or "cc").
pub fn run<R: LoadRecorder>(space: &mut TracedSpace<R>, cfg: &GapConfig) -> GapResult {
    space.phase("graphgen");
    let g = Graph::generate(space, cfg.scale, cfg.degree, cfg.seed);
    match cfg.kernel {
        GapKernel::Pr => pagerank(space, &g, cfg, false),
        GapKernel::PrSpmv => pagerank(space, &g, cfg, true),
        GapKernel::Cc => afforest(space, &g),
        GapKernel::CcSv => shiloach_vishkin(space, &g),
    }
}

/// PageRank over the traced graph. `jacobi` selects pr-spmv.
fn pagerank<R: LoadRecorder>(
    space: &mut TracedSpace<R>,
    g: &Graph,
    cfg: &GapConfig,
    jacobi: bool,
) -> GapResult {
    space.phase("rank");
    let n = g.n;
    let score_site = space.site("pagerank", "o-score", LoadClass::Irregular, true, 70);
    let out_site = space.site("pagerank", "outgoing", LoadClass::Strided, true, 71);

    let mut scores: TVec<u64> = TVec::new(space, "o-score", n, FXP / n as u64);
    // Jacobi keeps a second array of next-iteration scores.
    let mut next: Option<TVec<u64>> = jacobi.then(|| TVec::new(space, "o-score-next", n, 0));
    let degrees: Vec<u64> = (0..n).map(|u| g.degree(u).max(1) as u64).collect();

    let damping_num = 85u64;
    let damping_den = 100u64;
    let base = (FXP / n as u64) * (damping_den - damping_num) / damping_den;

    let mut iterations = 0;
    let mut abstract_cost = 0u64;
    // Jacobi converges slower: it runs the full iteration budget, while
    // Gauss–Seidel stops at ~2/3 of it (modeling "pr requires fewer total
    // iterations").
    let iters = if jacobi {
        cfg.max_iters
    } else {
        (cfg.max_iters * 2).div_ceil(3)
    };

    for _ in 0..iters {
        iterations += 1;
        for u in 0..n {
            let (lo, hi) = g.edge_range(space, u);
            let mut sum = 0u64;
            for e in lo..hi {
                let v = g.target(space, e) as usize; // strided
                                                     // Pull the neighbor's current score — irregular gather.
                let sv = *scores.get(space, score_site, v);
                sum += sv / degrees[v];
                space.alu(8); // divide + accumulate + loop control
                abstract_cost += COST_IRREGULAR + COST_STRIDED;
            }
            let new_score = base + sum * damping_num / damping_den;
            space.load(out_site, scores.addr(u));
            match &mut next {
                Some(nx) => nx.set(space, u, new_score), // saved for next iter
                None => scores.set(space, u, new_score), // immediate update
            }
            abstract_cost += COST_STRIDED;
        }
        if let Some(nx) = &mut next {
            // Swap in the next-iteration scores (strided copy).
            for u in 0..n {
                let v = *nx.get(space, out_site, u);
                scores.set(space, u, v);
                abstract_cost += 2 * COST_STRIDED;
            }
        }
    }

    GapResult {
        iterations,
        values: scores.raw().to_vec(),
        abstract_cost,
    }
}

/// Union-find parent array with traced find/compress.
struct Components {
    comp: TVec<u32>,
    site: crate::space::SiteId,
}

impl Components {
    fn find<R: LoadRecorder>(&mut self, space: &mut TracedSpace<R>, mut x: usize) -> usize {
        // Pointer-chasing find with path halving — irregular loads.
        loop {
            space.alu(4); // compare + halve
            let p = *self.comp.get(space, self.site, x) as usize;
            if p == x {
                return x;
            }
            let gp = *self.comp.get(space, self.site, p) as usize;
            if gp == p {
                return p;
            }
            self.comp.set(space, x, gp as u32);
            x = gp;
        }
    }

    fn link<R: LoadRecorder>(&mut self, space: &mut TracedSpace<R>, u: usize, v: usize) -> bool {
        let ru = self.find(space, u);
        let rv = self.find(space, v);
        if ru == rv {
            return false;
        }
        let (hi, lo) = if ru < rv { (rv, ru) } else { (ru, rv) };
        self.comp.set(space, hi, lo as u32);
        true
    }
}

/// Afforest: subgraph-sampled link phase, then finalize skipping the
/// largest component.
fn afforest<R: LoadRecorder>(space: &mut TracedSpace<R>, g: &Graph) -> GapResult {
    space.phase("cc");
    let n = g.n;
    let site = space.site("afforest", "component", LoadClass::Irregular, true, 80);
    let mut c = Components {
        comp: TVec::from_vec(space, "cc", (0..n as u32).collect()),
        site,
    };
    let mut abstract_cost = 0u64;

    // Phase 1: link only the first K neighbors of each vertex (subgraph
    // sampling).
    const K: usize = 2;
    for u in 0..n {
        let (lo, hi) = g.edge_range(space, u);
        for e in lo..hi.min(lo + K) {
            let v = g.target(space, e) as usize;
            c.link(space, u, v);
            abstract_cost += COST_IRREGULAR;
        }
    }

    // Compress and identify the most frequent component.
    let mut freq = vec![0u32; n];
    for u in 0..n {
        let r = c.find(space, u);
        freq[r] += 1;
        abstract_cost += COST_IRREGULAR / 2;
    }
    let biggest = freq
        .iter()
        .enumerate()
        .max_by_key(|(_, f)| **f)
        .map(|(i, _)| i)
        .unwrap_or(0);

    // Phase 2: finalize — vertices already in the largest component skip
    // their remaining edges entirely.
    for u in 0..n {
        if c.find(space, u) == biggest {
            continue;
        }
        let (lo, hi) = g.edge_range(space, u);
        for e in (lo + K.min(hi - lo))..hi {
            let v = g.target(space, e) as usize;
            c.link(space, u, v);
            abstract_cost += COST_IRREGULAR;
        }
    }

    // Final flatten.
    let values: Vec<u64> = (0..n).map(|u| c.find(space, u) as u64).collect();
    GapResult {
        iterations: 2,
        values,
        abstract_cost,
    }
}

/// Shiloach–Vishkin: full-edge hook + pointer-jump sweeps to a fixpoint.
fn shiloach_vishkin<R: LoadRecorder>(space: &mut TracedSpace<R>, g: &Graph) -> GapResult {
    space.phase("cc");
    let n = g.n;
    let site = space.site(
        "shiloach-vishkin",
        "component",
        LoadClass::Irregular,
        true,
        90,
    );
    let mut comp: TVec<u32> = TVec::from_vec(space, "cc", (0..n as u32).collect());
    let mut abstract_cost = 0u64;
    let mut iterations = 0usize;

    loop {
        iterations += 1;
        let mut changed = false;
        // Hook: for every edge, point the larger root at the smaller.
        for u in 0..n {
            let (lo, hi) = g.edge_range(space, u);
            for e in lo..hi {
                let v = g.target(space, e) as usize;
                let cu = *comp.get(space, site, u) as usize;
                let cv = *comp.get(space, site, v) as usize;
                space.alu(6);
                abstract_cost += 2 * COST_IRREGULAR;
                if cv < cu && cu == *comp.get(space, site, cu) as usize {
                    comp.set(space, cu, cv as u32);
                    changed = true;
                }
            }
        }
        // Compress: pointer jumping.
        for u in 0..n {
            let cu = *comp.get(space, site, u) as usize;
            let ccu = *comp.get(space, site, cu);
            abstract_cost += 2 * COST_IRREGULAR;
            if ccu != comp.raw()[u] {
                comp.set(space, u, ccu);
            }
        }
        if !changed {
            break;
        }
        if iterations > 64 {
            break; // safety net
        }
    }

    let values: Vec<u64> = comp.raw().iter().map(|&c| c as u64).collect();
    GapResult {
        iterations,
        values,
        abstract_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::NullRecorder;

    fn cfg(kernel: GapKernel) -> GapConfig {
        GapConfig {
            scale: 8,
            degree: 6,
            kernel,
            max_iters: 9,
            seed: 5,
        }
    }

    /// Untraced reference CC via BFS.
    fn reference_components(g: &Graph) -> Vec<usize> {
        let n = g.n;
        let mut comp = vec![usize::MAX; n];
        let mut next = 0;
        for s in 0..n {
            if comp[s] != usize::MAX {
                continue;
            }
            let id = next;
            next += 1;
            let mut stack = vec![s];
            comp[s] = id;
            while let Some(u) = stack.pop() {
                let lo = g.offsets.raw()[u] as usize;
                let hi = g.offsets.raw()[u + 1] as usize;
                for e in lo..hi {
                    let v = g.targets.raw()[e] as usize;
                    if comp[v] == usize::MAX {
                        comp[v] = id;
                        stack.push(v);
                    }
                }
            }
        }
        comp
    }

    fn partitions_equal(a: &[u64], b: &[usize]) -> bool {
        use std::collections::HashMap;
        let mut map: HashMap<(u64, usize), ()> = HashMap::new();
        let mut fwd: HashMap<u64, usize> = HashMap::new();
        let mut bwd: HashMap<usize, u64> = HashMap::new();
        for (x, y) in a.iter().zip(b) {
            map.insert((*x, *y), ());
            if let Some(prev) = fwd.insert(*x, *y) {
                if prev != *y {
                    return false;
                }
            }
            if let Some(prev) = bwd.insert(*y, *x) {
                if prev != *x {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn both_cc_kernels_agree_with_bfs() {
        for kernel in [GapKernel::Cc, GapKernel::CcSv] {
            let mut space = TracedSpace::new(NullRecorder);
            let c = cfg(kernel);
            let g = Graph::generate(&mut space, c.scale, c.degree, c.seed);
            let reference = reference_components(&g);
            let result = match kernel {
                GapKernel::Cc => afforest(&mut space, &g),
                GapKernel::CcSv => shiloach_vishkin(&mut space, &g),
                _ => unreachable!(),
            };
            assert!(
                partitions_equal(&result.values, &reference),
                "{} disagrees with BFS",
                kernel.label()
            );
        }
    }

    #[test]
    fn pagerank_variants_converge_to_same_ranking() {
        let mut s1 = TracedSpace::new(NullRecorder);
        let r1 = run(&mut s1, &cfg(GapKernel::Pr));
        let mut s2 = TracedSpace::new(NullRecorder);
        let r2 = run(&mut s2, &cfg(GapKernel::PrSpmv));
        // Scores need not match exactly (different iteration structure),
        // but the top-10 vertices should largely agree.
        let top = |v: &[u64]| {
            let mut idx: Vec<usize> = (0..v.len()).collect();
            idx.sort_by_key(|&i| std::cmp::Reverse(v[i]));
            idx.truncate(10);
            idx
        };
        let t1 = top(&r1.values);
        let t2 = top(&r2.values);
        let overlap = t1.iter().filter(|i| t2.contains(i)).count();
        assert!(overlap >= 7, "top-10 overlap only {overlap}");
        // Gauss–Seidel takes fewer iterations.
        assert!(r1.iterations < r2.iterations);
    }

    #[test]
    fn pr_scores_sum_to_about_one() {
        let mut space = TracedSpace::new(NullRecorder);
        let r = run(&mut space, &cfg(GapKernel::Pr));
        let sum: u64 = r.values.iter().sum();
        let one = FXP as f64;
        assert!(
            (sum as f64 - one).abs() / one < 0.2,
            "score mass {} vs {}",
            sum,
            FXP
        );
    }

    #[test]
    fn cc_does_more_accesses_but_costs_less_time_than_sv() {
        // Paper Table IX: cc has more accesses (A) yet runs 2.7 s vs
        // 45.5 s for cc-sv.
        let mut sc = TracedSpace::new(NullRecorder);
        let rc = run(&mut sc, &cfg(GapKernel::Cc));
        let mut ss = TracedSpace::new(NullRecorder);
        let rs = run(&mut ss, &cfg(GapKernel::CcSv));
        assert!(
            rs.abstract_cost > rc.abstract_cost,
            "cc-sv must cost more: {} vs {}",
            rs.abstract_cost,
            rc.abstract_cost
        );
        assert!(rs.iterations > rc.iterations);
    }

    #[test]
    fn phases_recorded_for_fig7() {
        let mut space = TracedSpace::new(NullRecorder);
        run(&mut space, &cfg(GapKernel::Pr));
        let names: Vec<&str> = space.phases().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["main", "graphgen", "rank"]);
        assert!(space.phases()[1].counters.loads > 0);
        assert!(space.phases()[2].counters.loads > 0);
    }
}
