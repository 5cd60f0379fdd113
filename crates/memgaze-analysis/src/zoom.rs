//! Location zooming (paper §IV-C2, Fig. 5).
//!
//! Finds memory regions with poor spatio-temporal locality top-down: a
//! region is divided into fixed-size pages; a *hot subregion* is a maximal
//! run of contiguous pages, each with at least one access, whose total is
//! at least `t`% of the region's accesses; the page size shrinks per
//! level and the zoom stops at a minimum region size. The *contiguous*
//! property matters: cold gaps inside a hot region are kept so the reuse
//! distance `D` reflects the locality of the *entire* object.

use crate::fxhash::FxHashMap;
use crate::reuse::BlockReuse;
use memgaze_model::{Access, AuxAnnotations, BlockSize, SampledTrace, SymbolTable};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// Zoom parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZoomConfig {
    /// Access-block size for reuse distance `D` (default: cache line).
    pub access_block: BlockSize,
    /// Initial page size (log₂ bytes) used to find subregions.
    pub initial_page_log2: u8,
    /// Minimum page size; reaching it stops the recursion.
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

/// The zoom analysis: accesses plus merged per-block reuse data.
pub struct LocationZoom<'a> {
    accesses: &'a [Access],
    reuse: &'a BlockReuse,
    symbols: &'a SymbolTable,
    annots: Option<&'a AuxAnnotations>,
    cfg: ZoomConfig,
    total_accesses: u64,
}

impl<'a> LocationZoom<'a> {
    /// Prepare a zoom over the given accesses (typically every sampled
    /// access, with `reuse` merged across samples).
    pub fn new(
        accesses: &'a [Access],
        reuse: &'a BlockReuse,
        symbols: &'a SymbolTable,
        cfg: ZoomConfig,
    ) -> LocationZoom<'a> {
        LocationZoom {
            accesses,
            reuse,
            symbols,
            annots: None,
            cfg,
            total_accesses: accesses.len() as u64,
        }
    }

    /// Attach the annotation file so region code attribution carries
    /// source lines (paper Fig. 5's "code (function, line)").
    pub fn with_annotations(mut self, annots: &'a AuxAnnotations) -> LocationZoom<'a> {
        self.annots = Some(annots);
        self
    }

    /// Run the zoom from the full address range; returns the root region
    /// (or `None` for an empty trace).
    ///
    /// The configured initial page size is clamped so the top level sees
    /// at least four pages — a span smaller than one page would otherwise
    /// never be divided.
    pub fn run(&self) -> Option<ZoomRegion> {
        let lo = self.accesses.iter().map(|a| a.addr.raw()).min()?;
        let hi = self.accesses.iter().map(|a| a.addr.raw()).max()? + 1;
        let span = hi - lo;
        let span_log2 = 63 - span.leading_zeros() as u8;
        let page_log2 = self
            .cfg
            .initial_page_log2
            .min(span_log2.saturating_sub(2))
            .max(self.cfg.min_page_log2);
        let idx: Vec<usize> = (0..self.accesses.len()).collect();
        Some(self.zoom_region(lo, hi, &idx, page_log2, 0))
    }

    fn describe(&self, lo: u64, hi: u64, members: &[usize], depth: u32) -> ZoomRegion {
        let (lo_block, hi_block) = self.cfg.access_block.block_range(lo, hi);
        let d = self.reuse.region_mean_distance(lo_block, hi_block);
        let blocks = self.reuse.region_blocks(lo_block, hi_block);

        // Code attribution: accesses per function, hottest line. Names
        // are borrowed from the symbol table until the final rows are
        // built — one allocation per emitted row, not per access.
        let mut per_fn: FxHashMap<&str, (u64, FxHashMap<u32, u64>)> = FxHashMap::default();
        for &i in members {
            let a = &self.accesses[i];
            let name = self
                .symbols
                .lookup(a.ip)
                .map(|f| f.name.as_str())
                .unwrap_or("<unknown>");
            let e = per_fn.entry(name).or_default();
            e.0 += 1;
            let line = self
                .annots
                .and_then(|ax| ax.get(a.ip))
                .map(|an| an.src_line)
                .unwrap_or(0);
            *e.1.entry(line).or_insert(0) += 1;
        }
        let mut code: Vec<RegionCode> = per_fn
            .into_iter()
            .map(|(function, (accesses, lines))| RegionCode {
                function: function.to_string(),
                // Hottest line; the lowest line number among equals.
                line: lines
                    .into_iter()
                    .max_by_key(|&(l, c)| (c, Reverse(l)))
                    .map(|(l, _)| l)
                    .unwrap_or(0),
                accesses,
            })
            .collect();
        // Hottest first; equal counts by name, not by hash order.
        code.sort_by(|a, b| {
            b.accesses
                .cmp(&a.accesses)
                .then_with(|| a.function.cmp(&b.function))
        });
        code.truncate(4);

        ZoomRegion {
            lo,
            hi,
            accesses: members.len() as u64,
            pct_of_total: if self.total_accesses == 0 {
                0.0
            } else {
                100.0 * members.len() as f64 / self.total_accesses as f64
            },
            reuse_d: d,
            blocks,
            depth,
            children: Vec::new(),
            code,
        }
    }

    fn zoom_region(
        &self,
        lo: u64,
        hi: u64,
        members: &[usize],
        page_log2: u8,
        depth: u32,
    ) -> ZoomRegion {
        let mut region = self.describe(lo, hi, members, depth);
        let page = 1u64 << page_log2;
        let stop = depth >= self.cfg.max_depth
            || page_log2 < self.cfg.min_page_log2
            || (hi - lo) <= self.cfg.min_region_bytes
            || (hi - lo) <= page;
        if stop || members.is_empty() {
            return region;
        }

        // Bucket member accesses into pages.
        let first_page = lo >> page_log2;
        let n_pages = ((hi - 1) >> page_log2) - first_page + 1;
        let mut page_members: Vec<Vec<usize>> = vec![Vec::new(); n_pages as usize];
        for &i in members {
            let p = (self.accesses[i].addr.raw() >> page_log2) - first_page;
            page_members[p as usize].push(i);
        }

        // Maximal runs of contiguous non-empty pages.
        let threshold = (members.len() as f64 * self.cfg.hot_threshold_pct / 100.0).ceil() as usize;
        let mut runs: Vec<(usize, usize)> = Vec::new(); // [start, end) page idx
        let mut run_start: Option<usize> = None;
        for (p, pm) in page_members.iter().enumerate() {
            if pm.is_empty() {
                if let Some(s) = run_start.take() {
                    runs.push((s, p));
                }
            } else if run_start.is_none() {
                run_start = Some(p);
            }
        }
        if let Some(s) = run_start {
            runs.push((s, page_members.len()));
        }

        let next_page_log2 = page_log2
            .saturating_sub(self.cfg.shrink_log2)
            .max(self.cfg.min_page_log2);
        for (s, e) in runs {
            let run_members: Vec<usize> = page_members[s..e].iter().flatten().copied().collect();
            if run_members.len() < threshold.max(1) {
                continue; // not hot enough
            }
            let run_lo = ((first_page + s as u64) << page_log2).max(lo);
            let run_hi = ((first_page + e as u64) << page_log2).min(hi);
            // A run identical to the parent at the minimum page size
            // cannot be divided further — the parent is the leaf.
            if run_lo == lo && run_hi == hi && next_page_log2 >= page_log2 {
                continue;
            }
            let child = self.zoom_region(run_lo, run_hi, &run_members, next_page_log2, depth + 1);
            region.children.push(child);
        }
        region
    }
}

/// Convenience: run the zoom over every sampled access of a trace.
pub fn zoom_trace(
    trace: &SampledTrace,
    symbols: &SymbolTable,
    cfg: ZoomConfig,
) -> Option<ZoomRegion> {
    let summary = BlockReuse::from_samples(&trace.samples, cfg.access_block);
    zoom_trace_with(trace, &summary, symbols, None, cfg)
}

/// The zoom driver: every sampled access of `trace` against `summary`,
/// the trace's per-block reuse at `cfg.access_block`, with source-line
/// attribution when the annotation file is given.
pub fn zoom_trace_with(
    trace: &SampledTrace,
    summary: &BlockReuse,
    symbols: &SymbolTable,
    annots: Option<&AuxAnnotations>,
    cfg: ZoomConfig,
) -> Option<ZoomRegion> {
    let accesses: Vec<Access> = trace.accesses().copied().collect();
    let zoom = LocationZoom::new(&accesses, summary, symbols, cfg);
    match annots {
        Some(ax) => zoom.with_annotations(ax).run(),
        None => zoom.run(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::{Access, Ip, Sample};

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

    /// The reuse summary of `acc` taken as one sample.
    fn summary(acc: &[Access], bs: BlockSize) -> BlockReuse {
        BlockReuse::from_samples(&[Sample::new(acc.to_vec(), 0)], bs)
    }

    fn zoom_over(acc: &[Access], cfg: ZoomConfig) -> ZoomRegion {
        let br = summary(acc, cfg.access_block);
        let symbols = SymbolTable::new();
        let z = LocationZoom::new(acc, &br, &symbols, cfg);
        z.run().unwrap()
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
        let br = summary(&acc, BlockSize::CACHE_LINE);
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

        let root = LocationZoom::new(&acc, &br, &symbols, ZoomConfig::default())
            .with_annotations(&annots)
            .run()
            .unwrap();
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
    fn empty_input_yields_none() {
        let br = BlockReuse::default();
        let symbols = SymbolTable::new();
        let z = LocationZoom::new(&[], &br, &symbols, ZoomConfig::default());
        assert!(z.run().is_none());
    }
}
