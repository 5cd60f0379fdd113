//! Index-backed query engine.
//!
//! A [`QueryEngine`] is built from a [`Catalog`] *alone* — it holds no
//! store handle, so it is incapable of decoding a shard by
//! construction. Region, time-range, and per-function questions are
//! answered entirely from the per-frame summaries `put` recorded:
//! the merged [`BlockReuse`] rows (prefix sums + sparse range-max give
//! O(log n) region statistics), the per-frame time/address ranges, and
//! the per-frame function load counts.
//!
//! The numbers are exact, not approximate: the catalog rows are the
//! same per-block aggregation a full streaming pass produces at the
//! store's summary block size, persisted at put time.

use crate::catalog::Catalog;
use crate::error::StoreError;
use memgaze_analysis::BlockReuse;
use memgaze_model::BlockSize;
use std::collections::BTreeMap;

/// Answer to a [`QueryEngine::region`] query over an address range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionAnswer {
    /// Accesses to blocks in the region.
    pub accesses: u64,
    /// Distinct summary blocks touched in the region.
    pub blocks: u64,
    /// Mean spatio-temporal reuse distance of the region's reuses.
    pub mean_distance: f64,
    /// Maximum reuse distance seen in the region.
    pub max_distance: u64,
    /// Frames whose address range overlaps the region — the shards a
    /// deep-dive would need to fetch.
    pub frames: usize,
}

/// Answer to a [`QueryEngine::time_range`] query over logical time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeAnswer {
    /// Frames whose time range overlaps the window.
    pub frames: usize,
    /// Samples in those frames.
    pub samples: u64,
    /// Observed loads in those frames.
    pub loads: u64,
    /// Mean reuse distance across those frames' summaries.
    pub mean_distance: f64,
}

/// Answer to a [`QueryEngine::function`] query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionAnswer {
    /// The function's name.
    pub name: String,
    /// Observed loads attributed to the function.
    pub loads: u64,
    /// Frames in which the function appears.
    pub frames: usize,
}

/// Catalog-only query engine over one stored trace.
pub struct QueryEngine {
    summary_block: BlockSize,
    /// All frames' reuse rows merged into one indexed summary.
    reuse: BlockReuse,
    /// (samples, loads, time range, addr range) per frame.
    frames: Vec<FrameFacts>,
    /// Function name → (total loads, frames appearing in).
    functions: BTreeMap<String, (u64, usize)>,
}

struct FrameFacts {
    samples: u64,
    loads: u64,
    time_range: Option<(u64, u64)>,
    addr_range: Option<(u64, u64)>,
    /// Σ dist_sum and Σ reuse_cnt over the frame's rows, precomputed
    /// for time-window mean-distance sums.
    dist_sum: u64,
    reuse_cnt: u64,
}

impl QueryEngine {
    /// Build the engine from a catalog. Fails only on corruption the
    /// codec checksum should have caught: a frame's reuse rows out of
    /// block order, or a total across frames — of samples, loads,
    /// accesses, distance sums, reuse counts or a function's loads —
    /// that leaves `u64`. Checking every total here is what lets the
    /// queries add without overflow.
    pub fn new(catalog: &Catalog) -> Result<QueryEngine, StoreError> {
        let _span = memgaze_obs::span("store.query_build");
        let corrupt = |detail: String| StoreError::CorruptCatalog {
            id: catalog.trace_id.clone(),
            detail,
        };
        let mut parts = Vec::with_capacity(catalog.frames.len());
        let mut frames = Vec::with_capacity(catalog.frames.len());
        let mut functions: BTreeMap<String, (u64, usize)> = BTreeMap::new();
        let mut totals = [0u64; 5];
        for (i, f) in catalog.frames.iter().enumerate() {
            let overflow = || corrupt(format!("frame {i}: totals overflow u64"));
            let br = BlockReuse::from_raw_rows(f.reuse_rows.clone())
                .ok_or_else(|| corrupt(format!("frame {i}: reuse rows out of block order")))?;
            parts.push(br);
            // One frame's row sums fit: `from_raw_rows` checked them.
            let [accesses, dist_sum, reuse_cnt] =
                f.reuse_rows.iter().fold([0u64; 3], |[a, d, c], (_, s)| {
                    [a + s[0], d + s[1], c + s[2]]
                });
            for (total, v) in totals
                .iter_mut()
                .zip([f.samples, f.loads, accesses, dist_sum, reuse_cnt])
            {
                *total = total.checked_add(v).ok_or_else(overflow)?;
            }
            frames.push(FrameFacts {
                samples: f.samples,
                loads: f.loads,
                time_range: f.time_range,
                addr_range: f.addr_range,
                dist_sum,
                reuse_cnt,
            });
            for &(id, loads) in &f.func_loads {
                let name = catalog
                    .func_names
                    .get(id as usize)
                    .ok_or_else(|| corrupt(format!("frame {i}: function id {id} out of table")))?;
                let slot = functions.entry(name.clone()).or_insert((0, 0));
                slot.0 = slot.0.checked_add(loads).ok_or_else(overflow)?;
                slot.1 += 1;
            }
        }
        Ok(QueryEngine {
            summary_block: catalog.summary_block,
            reuse: BlockReuse::from_parts(parts),
            frames,
            functions,
        })
    }

    /// The block size region statistics are granular to.
    pub fn summary_block(&self) -> BlockSize {
        self.summary_block
    }

    /// Statistics for the address region `[lo_addr, hi_addr)`.
    pub fn region(&self, lo_addr: u64, hi_addr: u64) -> RegionAnswer {
        if hi_addr <= lo_addr {
            return RegionAnswer {
                accesses: 0,
                blocks: 0,
                mean_distance: 0.0,
                max_distance: 0,
                frames: 0,
            };
        }
        let (lo_block, hi_block) = self.summary_block.block_range(lo_addr, hi_addr);
        let frames = self
            .frames
            .iter()
            .filter(|f| {
                f.addr_range
                    .is_some_and(|(alo, ahi)| alo < hi_addr && ahi >= lo_addr)
            })
            .count();
        RegionAnswer {
            accesses: self.reuse.region_accesses(lo_block, hi_block),
            blocks: self.reuse.region_blocks(lo_block, hi_block),
            mean_distance: self.reuse.region_mean_distance(lo_block, hi_block),
            max_distance: self.reuse.region_max_distance(lo_block, hi_block),
            frames,
        }
    }

    /// Statistics for the logical-time window `[lo, hi)`, at frame
    /// granularity (a frame counts when its time range overlaps).
    pub fn time_range(&self, lo: u64, hi: u64) -> TimeAnswer {
        let mut out = TimeAnswer {
            frames: 0,
            samples: 0,
            loads: 0,
            mean_distance: 0.0,
        };
        // `new` checked the totals over every frame, so no sum overflows.
        let (mut dist, mut cnt) = (0u64, 0u64);
        for f in &self.frames {
            let overlaps = f.time_range.is_some_and(|(tlo, thi)| tlo < hi && thi >= lo);
            if !overlaps {
                continue;
            }
            out.frames += 1;
            out.samples += f.samples;
            out.loads += f.loads;
            dist += f.dist_sum;
            cnt += f.reuse_cnt;
        }
        if cnt > 0 {
            out.mean_distance = dist as f64 / cnt as f64;
        }
        out
    }

    /// Loads attributed to function `name`, or `None` if it never
    /// appears in the trace.
    pub fn function(&self, name: &str) -> Option<FunctionAnswer> {
        self.functions
            .get(name)
            .map(|&(loads, frames)| FunctionAnswer {
                name: name.to_string(),
                loads,
                frames,
            })
    }

    /// All attributed functions, hottest first.
    pub fn functions(&self) -> Vec<FunctionAnswer> {
        let mut out: Vec<FunctionAnswer> = self
            .functions
            .iter()
            .map(|(name, &(loads, frames))| FunctionAnswer {
                name: name.clone(),
                loads,
                frames,
            })
            .collect();
        out.sort_by(|a, b| b.loads.cmp(&a.loads).then_with(|| a.name.cmp(&b.name)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::{
        encode_sharded_indexed, Access, Ip, Sample, SampledTrace, SymbolTable, TraceMeta,
    };

    fn mk_catalog() -> Catalog {
        let mut t = SampledTrace::new(TraceMeta::new("query-unit", 10_000, 16 << 10));
        t.meta.total_loads = 60_000;
        t.meta.total_instrumented_loads = 600;
        for s in 0..6u64 {
            let base = s * 10_000;
            // Two address neighborhoods: low for even samples, high for odd.
            let region = if s % 2 == 0 {
                0x10_0000u64
            } else {
                0x80_0000u64
            };
            let accesses = (0..10u64)
                .map(|i| Access::new(0x400 + (i % 3) * 4, region + (i % 4) * 64, base + i))
                .collect();
            t.push_sample(Sample::new(accesses, base + 10)).unwrap();
        }
        // One sample per frame so each frame's address range stays in
        // one neighborhood.
        let (container, index) = encode_sharded_indexed(&t, 1);
        let mut sy = SymbolTable::new();
        sy.add_function("walker", Ip(0x400), Ip(0x408), "w.c");
        Catalog::scan("q", &container, &index, &sy, BlockSize::CACHE_LINE).unwrap()
    }

    #[test]
    fn region_splits_neighborhoods() {
        let q = QueryEngine::new(&mk_catalog()).unwrap();
        let low = q.region(0x10_0000, 0x10_1000);
        let high = q.region(0x80_0000, 0x80_1000);
        let nothing = q.region(0x40_0000, 0x40_1000);
        // 30 accesses per neighborhood (3 samples × 10), 4 blocks each.
        assert_eq!(low.accesses, 30);
        assert_eq!(high.accesses, 30);
        assert_eq!(low.blocks, 4);
        assert_eq!(nothing.accesses, 0);
        assert_eq!(nothing.frames, 0);
        assert!(low.frames > 0);
        // Blocks repeat within a sample, so reuse was observed.
        assert!(low.mean_distance > 0.0);
        assert!(low.max_distance > 0);
        // Degenerate range.
        assert_eq!(q.region(10, 10).accesses, 0);
    }

    #[test]
    fn time_range_counts_overlapping_frames() {
        let q = QueryEngine::new(&mk_catalog()).unwrap();
        let all = q.time_range(0, u64::MAX);
        assert_eq!(all.frames, 6);
        assert_eq!(all.samples, 6);
        assert_eq!(all.loads, 60);
        assert!(all.mean_distance > 0.0);
        // First frame only: sample 0 occupies times < 10_000.
        let first = q.time_range(0, 10_000);
        assert_eq!(first.frames, 1);
        assert_eq!(first.samples, 1);
        let none = q.time_range(1_000_000, 2_000_000);
        assert_eq!(none.frames, 0);
        assert_eq!(none.loads, 0);
    }

    #[test]
    fn function_attribution() {
        let q = QueryEngine::new(&mk_catalog()).unwrap();
        // ips cycle 0x400/0x404/0x408; "walker" covers [0x400, 0x408).
        let w = q.function("walker").unwrap();
        assert_eq!(w.loads, 42); // 7 of 10 accesses per sample × 6 samples
        assert_eq!(w.frames, 6);
        assert!(q.function("missing").is_none());
        let table = q.functions();
        assert_eq!(table.len(), 1);
        assert_eq!(table[0].name, "walker");
    }
}
