//! Location zooming (paper §IV-C2, Fig. 5).
//!
//! Finds memory regions with poor spatio-temporal locality top-down: a
//! region is divided into fixed-size pages; a *hot subregion* is a maximal
//! run of contiguous pages, each with at least one access, whose total is
//! at least `t`% of the region's accesses; the page size shrinks per
//! level and the zoom stops at a minimum region size. The *contiguous*
//! property matters: cold gaps inside a hot region are kept so the reuse
//! distance `D` reflects the locality of the *entire* object.
//!
//! A zoom costs O(blocks in hot regions + accesses): the partition is
//! computed on the trace's [`BlockReuse`] summary, and the trace itself
//! is read once, in place, to attribute code to the finished tree. The
//! definition it answers to — the same partition over the flattened
//! access stream, level by level — is `tests/common/spec.rs`.

use crate::kernel::{self, IpResolver};
use crate::reuse::BlockReuse;
use memgaze_model::{AuxAnnotations, BlockSize, SampledTrace, SymbolTable};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// Zoom parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZoomConfig {
    /// Access-block size for reuse distance `D` (default: cache line).
    pub access_block: BlockSize,
    /// Initial page size (log₂ bytes) used to find subregions.
    pub initial_page_log2: u8,
    /// Minimum page size; reaching it stops the recursion. A page finer
    /// than the access block cannot be described (`D` and `#blocks` are
    /// per block), so the floor in effect is
    /// `max(min_page_log2, access_block.log2())`.
    pub min_page_log2: u8,
    /// Page-size shrink per level, in log₂ steps.
    pub shrink_log2: u8,
    /// Hot-subregion threshold `t` as a percentage of the parent
    /// region's accesses.
    pub hot_threshold_pct: f64,
    /// Stop descending once a region is this small (bytes).
    pub min_region_bytes: u64,
    /// Hard recursion depth cap.
    pub max_depth: u32,
}

impl Default for ZoomConfig {
    fn default() -> Self {
        ZoomConfig {
            access_block: BlockSize::CACHE_LINE,
            initial_page_log2: 20, // 1 MiB pages at the top
            min_page_log2: 12,     // stop at 4-KiB pages
            shrink_log2: 2,        // ÷4 per level
            hot_threshold_pct: 10.0,
            min_region_bytes: 4096,
            max_depth: 8,
        }
    }
}

/// Code attributed to a region: function, line, and access count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionCode {
    /// Function name.
    pub function: String,
    /// Source line of the function's hottest access site in the region;
    /// the lowest line number among equally hot ones.
    pub line: u32,
    /// Accesses from this function into the region.
    pub accesses: u64,
}

/// A node of the location zoom tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZoomRegion {
    /// Region address range `[lo, hi)`.
    pub lo: u64,
    /// Exclusive upper address.
    pub hi: u64,
    /// Accesses into the region.
    pub accesses: u64,
    /// Percent of the *trace's* total accesses ("hotness").
    pub pct_of_total: f64,
    /// Mean spatio-temporal reuse distance `D` of accesses to the region.
    pub reuse_d: f64,
    /// Distinct access blocks touched in the region.
    pub blocks: u64,
    /// Zoom depth (0 = top-level region).
    pub depth: u32,
    /// Hot subregions (empty at the leaves).
    pub children: Vec<ZoomRegion>,
    /// Code attribution: the four hottest functions, accesses
    /// descending, equal counts in name order.
    pub code: Vec<RegionCode>,
}

impl ZoomRegion {
    /// Accesses per touched block — the paper's "A / block" hotness.
    pub fn accesses_per_block(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.accesses as f64 / self.blocks as f64
        }
    }

    /// Region size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.hi - self.lo
    }

    /// Depth-first iterator over leaf regions (final zoom results).
    pub fn leaves(&self) -> Vec<&ZoomRegion> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(r) = stack.pop() {
            if r.children.is_empty() {
                out.push(r);
            } else {
                stack.extend(r.children.iter());
            }
        }
        out.sort_by_key(|r| r.lo);
        out
    }
}

/// The zoom driver: every sampled access of `trace` against `summary`,
/// the trace's per-block reuse at `cfg.access_block`, with source-line
/// attribution when the annotation file is given. `None` for a trace
/// without accesses.
///
/// The tree's shape — page runs, the threshold test, each region's
/// `accesses`, `D` and `#blocks` — is read off the summary's sorted
/// blocks; the trace is walked once, for code attribution. Nothing is
/// sized by the address span.
pub fn zoom_trace_with(
    trace: &SampledTrace,
    summary: &BlockReuse,
    symbols: &SymbolTable,
    annots: Option<&AuxAnnotations>,
    cfg: ZoomConfig,
) -> Option<ZoomRegion> {
    let (lo, hi) = kernel::span(trace.accesses().map(|a| a.addr.raw()))?;
    let shape = Shape {
        summary,
        cfg,
        min_page_log2: cfg
            .min_page_log2
            .max(cfg.access_block.log2())
            .min(u64::BITS as u8 - 1),
        total: summary.totals()[0],
    };
    // The configured initial page size is clamped so the top level sees
    // at least four pages — a span smaller than one page would otherwise
    // never be divided.
    let span_log2 = (hi - lo).ilog2() as u8;
    let page_log2 = cfg
        .initial_page_log2
        .min(span_log2.saturating_sub(2))
        .max(shape.min_page_log2);
    let mut root = shape.zoom_region(lo, hi, page_log2, 0);
    let no_annots = AuxAnnotations::new();
    attribute_code(&mut root, trace, symbols, annots.unwrap_or(&no_annots));
    Some(root)
}

/// The tree's shape, from the block summary alone.
struct Shape<'a> {
    summary: &'a BlockReuse,
    cfg: ZoomConfig,
    /// The effective page floor (see [`ZoomConfig::min_page_log2`]).
    min_page_log2: u8,
    /// Accesses in the whole trace.
    total: u64,
}

impl Shape<'_> {
    /// The region `[lo, hi)` without children or code.
    fn describe(&self, lo: u64, hi: u64, depth: u32) -> ZoomRegion {
        let (lo_block, hi_block) = self.cfg.access_block.block_range(lo, hi);
        let accesses = self.summary.region_accesses(lo_block, hi_block);
        ZoomRegion {
            lo,
            hi,
            accesses,
            pct_of_total: 100.0 * accesses as f64 / self.total as f64,
            reuse_d: self.summary.region_mean_distance(lo_block, hi_block),
            blocks: self.summary.region_blocks(lo_block, hi_block),
            depth,
            children: Vec::new(),
            code: Vec::new(),
        }
    }

    /// The region `[lo, hi)` and, below it, its hot subregions at
    /// `page_log2`. A page is never smaller than an access block, so the
    /// page an access falls in is a property of its block: the runs come
    /// from the summary's blocks in `[lo, hi)`, in order.
    fn zoom_region(&self, lo: u64, hi: u64, page_log2: u8, depth: u32) -> ZoomRegion {
        let mut region = self.describe(lo, hi, depth);
        let page = 1u64 << page_log2;
        if depth >= self.cfg.max_depth || hi - lo <= self.cfg.min_region_bytes || hi - lo <= page {
            return region;
        }
        let threshold = (region.accesses as f64 * self.cfg.hot_threshold_pct / 100.0).ceil() as u64;
        let next_page_log2 = page_log2
            .saturating_sub(self.cfg.shrink_log2)
            .max(self.min_page_log2);

        // A hot run of pages `first..=last` becomes a child.
        let mut close = |(first, last, accesses): (u64, u64, u64)| {
            if accesses < threshold.max(1) {
                return; // not hot enough
            }
            let run_lo = (first << page_log2).max(lo);
            let run_hi = ((last << page_log2) | (page - 1)).saturating_add(1).min(hi);
            // A run identical to the parent at the minimum page size
            // cannot be divided further — the parent is the leaf.
            if run_lo == lo && run_hi == hi && next_page_log2 >= page_log2 {
                return;
            }
            region
                .children
                .push(self.zoom_region(run_lo, run_hi, next_page_log2, depth + 1));
        };

        // Maximal runs of contiguous touched pages.
        let block_log2 = self.cfg.access_block.log2();
        let (lo_block, hi_block) = self.cfg.access_block.block_range(lo, hi);
        let mut run: Option<(u64, u64, u64)> = None;
        for (block, accesses) in self.summary.block_accesses(lo_block, hi_block) {
            let p = block >> (page_log2 - block_log2);
            match &mut run {
                Some((_, last, sum)) if p - *last <= 1 => {
                    *last = p;
                    *sum += accesses;
                }
                _ => {
                    if let Some(done) = run.replace((p, p, accesses)) {
                        close(done);
                    }
                }
            }
        }
        if let Some(done) = run {
            close(done);
        }
        region
    }
}

/// The tree flattened for the attribution pass: regions numbered in
/// pre-order, and the address line cut into the intervals between region
/// bounds, each owned by the deepest region that holds it.
#[derive(Default)]
struct RegionIndex {
    /// Parent of each region; the root is its own.
    parent: Vec<u32>,
    /// Interval starts, ascending, closed by the root's `hi`.
    starts: Vec<u64>,
    /// Region owning `[starts[i], starts[i + 1])`.
    owner: Vec<u32>,
}

impl RegionIndex {
    fn of(root: &ZoomRegion) -> RegionIndex {
        let mut index = RegionIndex::default();
        index.walk(root, 0);
        index.starts.push(root.hi);
        index
    }

    fn walk(&mut self, region: &ZoomRegion, parent: u32) {
        let id = self.parent.len() as u32;
        self.parent.push(parent);
        // Children are disjoint and in address order; what lies between
        // them is the region's own.
        let mut at = region.lo;
        for child in &region.children {
            if at < child.lo {
                self.starts.push(at);
                self.owner.push(id);
            }
            self.walk(child, id);
            at = child.hi;
        }
        if at < region.hi {
            self.starts.push(at);
            self.owner.push(id);
        }
    }

    /// The interval holding `addr`, tried at `hint` first: a stream
    /// stays in one object for many accesses.
    #[inline]
    fn interval_of(&self, addr: u64, hint: usize) -> usize {
        if self.starts[hint] <= addr && addr < self.starts[hint + 1] {
            hint
        } else {
            self.starts.partition_point(|&s| s <= addr) - 1
        }
    }
}

/// Fill every region's `code` from one pass over the trace: an ip is
/// resolved to its function and source line on first sight, each access
/// bumps the counter of `(its ip, the deepest region holding its
/// address)`, and counts are then summed from children into parents.
fn attribute_code(
    root: &mut ZoomRegion,
    trace: &SampledTrace,
    symbols: &SymbolTable,
    annots: &AuxAnnotations,
) {
    let index = RegionIndex::of(root);
    let regions = index.parent.len();
    // Every address is below `root.hi` but `u64::MAX`, which a root
    // that ends there holds (`kernel::span`).
    let top = root.hi - 1;
    let mut resolver = IpResolver::new(symbols, annots);
    // `(function name, source line)` per site; `counts` is `[site ×
    // region]`.
    let mut sites: Vec<(&str, u32)> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    let mut interval = 0;
    for sample in &trace.samples {
        for a in &sample.accesses {
            let info = resolver.resolve(a.ip);
            let site = info.site as usize;
            if site == sites.len() {
                let line = annots.get(a.ip).map_or(0, |an| an.src_line);
                sites.push((resolver.function(info.slot).1, line));
                counts.resize(counts.len() + regions, 0);
            }
            interval = index.interval_of(a.addr.raw().min(top), interval);
            counts[site * regions + index.owner[interval] as usize] += 1;
        }
    }
    for row in counts.chunks_exact_mut(regions) {
        for region in (1..regions).rev() {
            row[index.parent[region] as usize] += row[region];
        }
    }

    // Attribution is by function *name*. Sites as `(name, line, site)`,
    // sorted: a name's sites are adjacent, its lines ascending.
    let mut order: Vec<(&str, u32, usize)> = sites
        .iter()
        .enumerate()
        .map(|(site, &(name, line))| (name, line, site))
        .collect();
    order.sort_unstable();

    let mut codes = (0..regions).map(|region| {
        let mut rows: Vec<(u64, &str, u32)> = Vec::new(); // accesses, name, line
        for function in order.chunk_by(|a, b| a.0 == b.0) {
            let (mut accesses, mut hottest, mut hottest_line) = (0, 0, 0);
            for line in function.chunk_by(|a, b| a.1 == b.1) {
                let n: u64 = line
                    .iter()
                    .map(|&(_, _, site)| counts[site * regions + region])
                    .sum();
                accesses += n;
                // Lines ascend: the lowest wins among equally hot ones.
                if n > hottest {
                    (hottest, hottest_line) = (n, line[0].1);
                }
            }
            if accesses > 0 {
                rows.push((accesses, function[0].0, hottest_line));
            }
        }
        // Hottest first; equal counts in name order.
        rows.sort_unstable_by_key(|&(accesses, name, _)| (Reverse(accesses), name));
        rows.truncate(4);
        rows.into_iter()
            .map(|(accesses, name, line)| RegionCode {
                function: name.to_string(),
                line,
                accesses,
            })
            .collect()
    });
    fill_code(root, &mut codes);
}

/// Set `code` on every region from `codes`, which yields them in the
/// pre-order that numbered the regions.
fn fill_code(region: &mut ZoomRegion, codes: &mut impl Iterator<Item = Vec<RegionCode>>) {
    region.code = codes.next().expect("one code list per region");
    for child in &mut region.children {
        fill_code(child, codes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::{Access, Ip, Sample, TraceMeta};

    /// Two hot objects far apart: object A at 1 MiB (streamed, poor
    /// locality), object B at 64 MiB (reused heavily).
    fn two_objects() -> Vec<Access> {
        let mut acc = Vec::new();
        let mut t = 0u64;
        let a_base = 1u64 << 20;
        let b_base = 64u64 << 20;
        for rep in 0..4u64 {
            for i in 0..256u64 {
                acc.push(Access::new(Ip(0x100), a_base + (rep * 256 + i) * 64, t));
                t += 1;
            }
            for i in 0..256u64 {
                acc.push(Access::new(Ip(0x200), b_base + (i % 8) * 64, t));
                t += 1;
            }
        }
        acc
    }

    /// `acc` as a one-sample trace.
    fn trace_of(acc: &[Access]) -> SampledTrace {
        let mut t = SampledTrace::new(TraceMeta::new("t", 1000, 8192));
        let trigger = acc.last().map_or(0, |a| a.time.saturating_add(1));
        t.push_sample(Sample::new(acc.to_vec(), trigger)).unwrap();
        t
    }

    fn zoom_with(
        acc: &[Access],
        symbols: &SymbolTable,
        annots: Option<&AuxAnnotations>,
        cfg: ZoomConfig,
    ) -> Option<ZoomRegion> {
        let t = trace_of(acc);
        let br = BlockReuse::from_samples(&t.samples, cfg.access_block);
        zoom_trace_with(&t, &br, symbols, annots, cfg)
    }

    fn zoom_over(acc: &[Access], cfg: ZoomConfig) -> ZoomRegion {
        zoom_with(acc, &SymbolTable::new(), None, cfg).unwrap()
    }

    #[test]
    fn finds_two_hot_subregions() {
        let acc = two_objects();
        let root = zoom_over(&acc, ZoomConfig::default());
        assert_eq!(root.accesses, acc.len() as u64);
        assert!((root.pct_of_total - 100.0).abs() < 1e-9);
        // Two separate hot objects must appear as distinct leaves.
        let leaves = root.leaves();
        assert!(leaves.len() >= 2, "leaves: {}", leaves.len());
        let a_leaf = leaves.iter().find(|r| r.lo < (2 << 20)).unwrap();
        let b_leaf = leaves.iter().find(|r| r.lo >= (63 << 20)).unwrap();
        // A is streamed (1024 distinct blocks, 1 access each); B is
        // reused (8 blocks, 128 accesses each).
        assert!(a_leaf.accesses_per_block() < 2.0);
        assert!(b_leaf.accesses_per_block() > 50.0);
        // B's reuse distance is small: cycling 8 blocks gives D = 7 for
        // most reuses, with a few large cross-phase distances pulling the
        // mean up slightly.
        assert!(b_leaf.reuse_d < 20.0, "D = {}", b_leaf.reuse_d);
    }

    #[test]
    fn threshold_filters_cold_runs() {
        // One hot object plus a single stray access far away: with a 10%
        // threshold the stray page is not a hot subregion.
        let mut acc = two_objects();
        acc.push(Access::new(Ip(0x300), 512u64 << 20, 99_999));
        let root = zoom_over(&acc, ZoomConfig::default());
        let leaves = root.leaves();
        assert!(
            leaves.iter().all(|r| r.accesses > 1),
            "stray access must not become a leaf"
        );
    }

    #[test]
    fn depth_and_page_floor_terminate() {
        let acc = two_objects();
        let cfg = ZoomConfig {
            max_depth: 2,
            ..Default::default()
        };
        let root = zoom_over(&acc, cfg);
        fn max_depth(r: &ZoomRegion) -> u32 {
            r.children.iter().map(max_depth).max().unwrap_or(r.depth)
        }
        assert!(max_depth(&root) <= 2);
    }

    #[test]
    fn children_nest_within_parents() {
        let acc = two_objects();
        let root = zoom_over(&acc, ZoomConfig::default());
        fn check(r: &ZoomRegion) {
            let sum: u64 = r.children.iter().map(|c| c.accesses).sum();
            assert!(sum <= r.accesses, "children exceed parent accesses");
            for c in &r.children {
                assert!(c.lo >= r.lo && c.hi <= r.hi, "child outside parent");
                assert_eq!(c.depth, r.depth + 1);
                check(c);
            }
        }
        check(&root);
    }

    #[test]
    fn annotations_attach_source_lines() {
        use memgaze_model::{AuxAnnotations, FunctionId, IpAnnot, LoadClass};
        let acc = two_objects();
        let mut symbols = SymbolTable::new();
        symbols.add_function("streamer", Ip(0x100), Ip(0x200), "w.c");
        symbols.add_function("reuser", Ip(0x200), Ip(0x300), "w.c");
        let mut annots = AuxAnnotations::new();
        let mut a1 = IpAnnot::of_class(LoadClass::Strided, FunctionId(0));
        a1.src_line = 42;
        annots.insert(Ip(0x100), a1);
        let mut a2 = IpAnnot::of_class(LoadClass::Irregular, FunctionId(1));
        a2.src_line = 77;
        annots.insert(Ip(0x200), a2);

        let root = zoom_with(&acc, &symbols, Some(&annots), ZoomConfig::default()).unwrap();
        let leaves = root.leaves();
        let a_leaf = leaves.iter().find(|r| r.lo < (2 << 20)).unwrap();
        let code = a_leaf
            .code
            .iter()
            .find(|c| c.function == "streamer")
            .unwrap();
        assert_eq!(code.line, 42);
        let b_leaf = leaves.iter().find(|r| r.lo >= (63 << 20)).unwrap();
        let code = b_leaf.code.iter().find(|c| c.function == "reuser").unwrap();
        assert_eq!(code.line, 77);
    }

    #[test]
    fn page_floor_is_never_finer_than_the_access_block() {
        // Every other line of eight, two words of each. Left to run, a
        // byte-sized floor would go on to cut each line into its words —
        // regions `D` and `#blocks` cannot describe.
        let base = 1u64 << 20;
        let acc: Vec<Access> = (0..64u64)
            .map(|i| {
                let (line, word) = (i % 4 * 2, i / 4 % 2 * 5);
                Access::new(Ip(0x100), base + line * 64 + word * 8, i)
            })
            .collect();
        let floor_at = |min_page_log2| ZoomConfig {
            min_page_log2,
            min_region_bytes: 0,
            ..Default::default()
        };
        let root = zoom_over(&acc, floor_at(0));
        assert_eq!(root, zoom_over(&acc, floor_at(6)));
        // At 128-byte pages every page is touched: nothing to cut.
        assert!(zoom_over(&acc, floor_at(7)).children.is_empty());
        let leaves = root.leaves();
        let starts: Vec<u64> = leaves.iter().map(|r| r.lo - base).collect();
        assert_eq!(starts, [0, 128, 256, 384]);
        assert!(leaves.iter().all(|r| r.blocks == 1 && r.accesses == 16));
    }

    #[test]
    fn empty_input_yields_none() {
        let symbols = SymbolTable::new();
        assert!(zoom_with(&[], &symbols, None, ZoomConfig::default()).is_none());
        // No sample at all, and no summary either.
        let t = SampledTrace::new(TraceMeta::new("t", 1000, 8192));
        let br = BlockReuse::default();
        assert!(zoom_trace_with(&t, &br, &symbols, None, ZoomConfig::default()).is_none());
    }
}
