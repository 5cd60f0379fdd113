//! The execution interval tree (paper §IV-C1, Fig. 4).
//!
//! Built bottom-up from samples: sample nodes carry *exact* intra-sample
//! metrics; the binary levels above them aggregate consecutive intervals
//! and carry ρ-scaled *estimates*; below each sample, leaf function nodes
//! group access runs from the same function. Zooming descends from the
//! root towards hot intervals (many accesses) with poor reuse (large
//! footprint growth).

use crate::diagnostics::FootprintDiagnostics;
use crate::reuse;
use memgaze_model::{AuxAnnotations, BlockSize, Sample, SampledTrace, SymbolTable};
use serde::{Deserialize, Serialize};

/// What a tree node represents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeKind {
    /// The whole execution.
    Root,
    /// An aggregate of consecutive samples.
    Inter,
    /// One sample (exact intra-sample metrics).
    Sample,
    /// An intra-sample interval (a half of its parent's accesses) —
    /// "nodes below samples correspond to intra-sample intervals"
    /// (Fig. 4).
    Intra,
    /// An access run within one function, inside a sample.
    Function {
        /// Function name.
        name: String,
    },
}

/// One node of the interval tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalNode {
    /// Node kind.
    pub kind: NodeKind,
    /// Levels above the sample layer (samples are level 0; function nodes
    /// are level −1, encoded as 0 with kind Function).
    pub level: u32,
    /// Covered logical-time range `[start, end)` in loads.
    pub time_range: (u64, u64),
    /// Observed accesses under this node.
    pub accesses: u64,
    /// Footprint diagnostics (merged for aggregates).
    pub diag: FootprintDiagnostics,
    /// Estimated footprint: exact for sample/function nodes, ρ-scaled for
    /// inter/root nodes.
    pub f_hat: f64,
    /// Mean intra-window reuse distance (exact at sample level; accesses-
    /// weighted mean above).
    pub mean_d: f64,
    /// Child indices in the arena.
    pub children: Vec<usize>,
}

impl IntervalNode {
    /// Footprint growth of this node.
    pub fn delta_f(&self) -> f64 {
        self.diag.delta_f()
    }

    /// The zoom score: hot (many accesses) with poor reuse (large
    /// footprint growth).
    pub fn zoom_score(&self) -> f64 {
        self.accesses as f64 * self.delta_f()
    }
}

/// The interval tree arena.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IntervalTree {
    nodes: Vec<IntervalNode>,
    root: Option<usize>,
}

impl IntervalTree {
    /// Build the tree for a trace: each sample's subtree (function runs,
    /// intra halves, sample node) in time order, then the binary levels
    /// above the samples.
    pub fn build(
        trace: &SampledTrace,
        annots: &AuxAnnotations,
        symbols: &SymbolTable,
        bs: BlockSize,
        rho: f64,
    ) -> IntervalTree {
        let mut nodes: Vec<IntervalNode> = Vec::new();
        let mut level_nodes: Vec<usize> = Vec::new();
        for s in &trace.samples {
            sample_subtree(&mut nodes, s, annots, symbols, bs);
            // The sample node is the last one its subtree appends.
            level_nodes.push(nodes.len() - 1);
        }

        // Binary aggregation upward.
        let mut level = 1u32;
        while level_nodes.len() > 1 {
            let mut next = Vec::with_capacity(level_nodes.len().div_ceil(2));
            for pair in level_nodes.chunks(2) {
                if pair.len() == 1 {
                    next.push(pair[0]);
                    continue;
                }
                let (a, b) = (&nodes[pair[0]], &nodes[pair[1]]);
                let mut diag = a.diag;
                diag.merge(&b.diag);
                let accesses = a.accesses + b.accesses;
                let mean_d = if accesses == 0 {
                    0.0
                } else {
                    (a.mean_d * a.accesses as f64 + b.mean_d * b.accesses as f64) / accesses as f64
                };
                nodes.push(IntervalNode {
                    kind: NodeKind::Inter,
                    level,
                    time_range: (a.time_range.0, b.time_range.1),
                    accesses,
                    f_hat: rho * diag.footprint as f64,
                    mean_d,
                    diag,
                    children: vec![pair[0], pair[1]],
                });
                next.push(nodes.len() - 1);
            }
            level_nodes = next;
            level += 1;
        }

        let root = level_nodes.first().copied().inspect(|&r| {
            if let NodeKind::Inter = nodes[r].kind {
                nodes[r].kind = NodeKind::Root;
            }
        });
        IntervalTree { nodes, root }
    }

    /// The root index, if the trace was non-empty.
    pub fn root(&self) -> Option<usize> {
        self.root
    }

    /// A node by index.
    pub fn node(&self, i: usize) -> &IntervalNode {
        &self.nodes[i]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Zoom from the root to the hot interval with poor reuse: at each
    /// node descend into the child with the highest zoom score (the red
    /// path of Fig. 4). Returns node indices from root to leaf.
    pub fn zoom_hot_poor_reuse(&self) -> Vec<usize> {
        let mut path = Vec::new();
        let mut cur = match self.root {
            Some(r) => r,
            None => return path,
        };
        loop {
            path.push(cur);
            let node = &self.nodes[cur];
            match node.children.iter().max_by(|&&a, &&b| {
                self.nodes[a]
                    .zoom_score()
                    .total_cmp(&self.nodes[b].zoom_score())
            }) {
                Some(&next) => cur = next,
                None => return path,
            }
        }
    }

    /// All sample-level node indices, in time order.
    pub fn sample_nodes(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Sample))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Samples with at least this many accesses get intra-interval children
/// (two halves) between themselves and the function runs.
const INTRA_SPLIT_MIN: usize = 16;

/// Function-run leaf nodes for one access slice, appended to the arena;
/// returns their indices.
fn run_nodes(
    nodes: &mut Vec<IntervalNode>,
    accesses: &[memgaze_model::Access],
    annots: &AuxAnnotations,
    symbols: &SymbolTable,
    bs: BlockSize,
) -> Vec<usize> {
    let name_of = |ip| {
        symbols
            .lookup(ip)
            .map(|f| f.name.clone())
            .unwrap_or_else(|| "<unknown>".to_string())
    };
    let mut out = Vec::new();
    let mut run_start = 0usize;
    while run_start < accesses.len() {
        let name = name_of(accesses[run_start].ip);
        let mut run_end = run_start + 1;
        while run_end < accesses.len() && name_of(accesses[run_end].ip) == name {
            run_end += 1;
        }
        let run = &accesses[run_start..run_end];
        let diag = FootprintDiagnostics::compute(run, annots, bs);
        let r = reuse::analyze_window(run, bs);
        nodes.push(IntervalNode {
            kind: NodeKind::Function { name },
            level: 0,
            time_range: (run[0].time, run[run.len() - 1].time + 1),
            accesses: run.len() as u64,
            f_hat: diag.footprint as f64,
            mean_d: r.mean_distance(),
            diag,
            children: Vec::new(),
        });
        out.push(nodes.len() - 1);
        run_start = run_end;
    }
    out
}

/// One sample's subtree appended to the arena: function runs, optional
/// intra halves, then the sample node last.
fn sample_subtree(
    nodes: &mut Vec<IntervalNode>,
    s: &Sample,
    annots: &AuxAnnotations,
    symbols: &SymbolTable,
    bs: BlockSize,
) {
    let children = if s.accesses.len() >= INTRA_SPLIT_MIN {
        let mid = s.accesses.len() / 2;
        let mut halves = Vec::with_capacity(2);
        for half in [&s.accesses[..mid], &s.accesses[mid..]] {
            let fn_children = run_nodes(nodes, half, annots, symbols, bs);
            let diag = FootprintDiagnostics::compute(half, annots, bs);
            let r = reuse::analyze_window(half, bs);
            nodes.push(IntervalNode {
                kind: NodeKind::Intra,
                level: 0,
                time_range: (half[0].time, half[half.len() - 1].time + 1),
                accesses: half.len() as u64,
                f_hat: diag.footprint as f64,
                mean_d: r.mean_distance(),
                diag,
                children: fn_children,
            });
            halves.push(nodes.len() - 1);
        }
        halves
    } else {
        run_nodes(nodes, &s.accesses, annots, symbols, bs)
    };

    let diag = FootprintDiagnostics::compute(&s.accesses, annots, bs);
    let r = reuse::analyze_window(&s.accesses, bs);
    let start = s.start_time().unwrap_or(s.trigger_time);
    nodes.push(IntervalNode {
        kind: NodeKind::Sample,
        level: 0,
        time_range: (start, s.trigger_time),
        accesses: s.accesses.len() as u64,
        f_hat: diag.footprint as f64,
        mean_d: r.mean_distance(),
        diag,
        children,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::{Access, Ip, Sample, TraceMeta};

    fn trace(nsamples: usize) -> (SampledTrace, SymbolTable) {
        let mut symbols = SymbolTable::new();
        symbols.add_function("hot", Ip(0x100), Ip(0x200), "a.c");
        symbols.add_function("cold", Ip(0x200), Ip(0x300), "a.c");
        let mut t = SampledTrace::new(TraceMeta::new("t", 1000, 8192));
        t.meta.total_loads = nsamples as u64 * 1000;
        for s in 0..nsamples {
            let base = s as u64 * 1000;
            let mut acc = Vec::new();
            // A run in "hot" (streaming, poor reuse), then one in "cold"
            // (all the same block, great reuse).
            for i in 0..64u64 {
                acc.push(Access::new(Ip(0x110), (s as u64 * 64 + i) * 64, base + i));
            }
            for i in 64..96u64 {
                acc.push(Access::new(Ip(0x210), 0x8000u64, base + i));
            }
            t.push_sample(Sample::new(acc, base + 96)).unwrap();
        }
        (t, symbols)
    }

    #[test]
    fn builds_levels_bottom_up() {
        let (t, symbols) = trace(8);
        let tree = IntervalTree::build(
            &t,
            &AuxAnnotations::new(),
            &symbols,
            BlockSize::CACHE_LINE,
            10.0,
        );
        let root = tree.root().unwrap();
        assert!(matches!(tree.node(root).kind, NodeKind::Root));
        // 8 samples → 3 binary levels above the sample layer.
        assert_eq!(tree.node(root).level, 3);
        assert_eq!(tree.sample_nodes().len(), 8);
        // Root covers everything.
        assert_eq!(tree.node(root).accesses, 8 * 96);
    }

    #[test]
    fn sample_nodes_have_intra_and_function_children() {
        let (t, symbols) = trace(2);
        let tree = IntervalTree::build(
            &t,
            &AuxAnnotations::new(),
            &symbols,
            BlockSize::CACHE_LINE,
            1.0,
        );
        for i in tree.sample_nodes() {
            let n = tree.node(i);
            // 96-access samples split into two intra halves.
            assert_eq!(n.children.len(), 2);
            let mut names = Vec::new();
            for &half in &n.children {
                let h = tree.node(half);
                assert!(matches!(h.kind, NodeKind::Intra), "{:?}", h.kind);
                // Halves partition the sample's accesses.
                for &f in &h.children {
                    match &tree.node(f).kind {
                        NodeKind::Function { name } => names.push(name.clone()),
                        k => panic!("grandchild is {k:?}"),
                    }
                }
            }
            // First half is all "hot" (accesses 0..48); second half covers
            // the rest of "hot" plus "cold".
            assert_eq!(
                names,
                vec!["hot".to_string(), "hot".to_string(), "cold".to_string()]
            );
            let acc_sum: u64 = n.children.iter().map(|&c| tree.node(c).accesses).sum();
            assert_eq!(acc_sum, n.accesses);
        }
    }

    #[test]
    fn inter_nodes_scale_by_rho() {
        let (t, symbols) = trace(2);
        let rho = 7.0;
        let tree = IntervalTree::build(
            &t,
            &AuxAnnotations::new(),
            &symbols,
            BlockSize::CACHE_LINE,
            rho,
        );
        let root = tree.root().unwrap();
        let n = tree.node(root);
        assert!((n.f_hat - rho * n.diag.footprint as f64).abs() < 1e-9);
        // Sample nodes stay exact.
        for i in tree.sample_nodes() {
            let s = tree.node(i);
            assert!((s.f_hat - s.diag.footprint as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn zoom_descends_to_streaming_function() {
        let (t, symbols) = trace(8);
        let tree = IntervalTree::build(
            &t,
            &AuxAnnotations::new(),
            &symbols,
            BlockSize::CACHE_LINE,
            1.0,
        );
        let path = tree.zoom_hot_poor_reuse();
        assert!(path.len() >= 4, "path {path:?}");
        // The zoom leaf must be the "hot" streaming function run: many
        // accesses, ΔF = 1.
        let leaf = tree.node(*path.last().unwrap());
        match &leaf.kind {
            NodeKind::Function { name } => assert_eq!(name, "hot"),
            k => panic!("leaf is {k:?}"),
        }
        assert!((leaf.delta_f() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_builds_empty_tree() {
        let t = SampledTrace::new(TraceMeta::new("t", 1000, 8192));
        let tree = IntervalTree::build(
            &t,
            &AuxAnnotations::new(),
            &SymbolTable::new(),
            BlockSize::CACHE_LINE,
            1.0,
        );
        assert!(tree.is_empty());
        assert!(tree.root().is_none());
        assert!(tree.zoom_hot_poor_reuse().is_empty());
    }
}
