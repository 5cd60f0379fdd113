//! Reuse interval and spatio-temporal reuse distance (paper §IV-A, §V-B).
//!
//! A *reuse interval* is the number of loads between two references to the
//! same (block) address; *reuse distance* (stack distance) is the number
//! of *unique* blocks in that interval. Reuse distance is computed
//! exactly by the crate's window kernel (`kernel::reuse_pass`): a marker at the
//! most recent position of each distinct block, counted over
//! `(last[b], now)` — a popcount of one `u64` for windows of up to 64
//! accesses; beyond, popcounts over a bit-vector of such words with a
//! Fenwick tree over the words for the long intervals
//! (`kernel::Markers`).

use crate::fxhash::FxHashMap;
use crate::kernel::{self, Row, Workspace};
use memgaze_model::{Access, BlockSize, Sample};
use serde::{Deserialize, Serialize};

/// One observed reuse, as the kernel's reuse pass records it: three
/// window positions' worth of `u32` (12 bytes). Windows are indexed in
/// `u32` by the kernel, so nothing is narrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReuseEvent {
    /// Index of the reusing access within the window.
    pub pos: u32,
    /// Index of the previous access to the same block.
    pub prev: u32,
    /// Unique blocks since the previous access to this block (reuse
    /// distance).
    pub distance: u32,
}

impl ReuseEvent {
    /// Loads since the previous access to this block (reuse interval).
    pub fn interval(&self) -> u64 {
        u64::from(self.pos - self.prev)
    }
}

/// Exact per-window reuse analysis.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReuseAnalysis {
    /// All reuse events in access order.
    pub events: Vec<ReuseEvent>,
    /// Accesses analyzed.
    pub accesses: usize,
    /// Unique blocks (the window footprint at this block size).
    pub unique_blocks: u64,
}

impl ReuseAnalysis {
    /// Mean reuse distance over all reuse events (first-touches excluded),
    /// or 0 when nothing is reused. The sum is taken in integers so the
    /// result is independent of how the events were grouped — the same
    /// invariant the streaming tracker and partial merges rely on.
    pub fn mean_distance(&self) -> f64 {
        kernel::mean_distance(
            self.events.iter().map(|e| u64::from(e.distance)).sum(),
            self.events.len() as u64,
        )
    }

    /// Maximum reuse distance (the paper's "Max D"), or 0.
    pub fn max_distance(&self) -> u64 {
        (self.events.iter())
            .map(|e| u64::from(e.distance))
            .max()
            .unwrap_or(0)
    }

    /// Mean reuse interval.
    pub fn mean_interval(&self) -> f64 {
        if self.events.is_empty() {
            0.0
        } else {
            self.events.iter().map(|e| e.interval() as f64).sum::<f64>() / self.events.len() as f64
        }
    }

    /// Fraction of accesses that reuse a previously seen block.
    pub fn reuse_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.events.len() as f64 / self.accesses as f64
        }
    }

    /// The analysis of the `accesses` accesses that the workspace's last
    /// reuse pass ran over — what [`analyze_window`] returns and what the
    /// resident fold keeps per sample: a copy of the pass's events.
    pub(crate) fn of_pass(ws: &Workspace, accesses: usize) -> ReuseAnalysis {
        ReuseAnalysis {
            events: ws.reuses().to_vec(),
            accesses,
            unique_blocks: ws.rows().len() as u64,
        }
    }
}

/// Analyze reuse within one window (typically one sample — the paper
/// prefers intra-sample calculation).
pub fn analyze_window(accesses: &[Access], bs: BlockSize) -> ReuseAnalysis {
    kernel::with_workspace(|ws| {
        ws.reuse_pass(accesses.iter().map(|a| (a.addr.block(bs), 0)));
        ReuseAnalysis::of_pass(ws, accesses.len())
    })
}

/// Per-block statistics tracked by [`BlockReuse`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct BlockStats {
    accesses: u64,
    dist_sum: u64,
    reuse_cnt: u64,
    max_dist: u64,
}

impl BlockStats {
    fn absorb(&mut self, other: &BlockStats) {
        self.accesses += other.accesses;
        self.dist_sum += other.dist_sum;
        self.reuse_cnt += other.reuse_cnt;
        self.max_dist = self.max_dist.max(other.max_dist);
    }
}

/// `block → [accesses, Σ distance, reuse count, max distance]`, absorbed
/// one window's kernel rows at a time and sorted once into a
/// [`BlockReuse`]: the streaming fold's one block-stat table.
#[derive(Default)]
pub(crate) struct BlockTable(FxHashMap<u64, BlockStats>);

impl BlockTable {
    /// Absorb the rows of one window's reuse pass.
    pub(crate) fn absorb_rows(&mut self, rows: &[Row]) {
        for row in rows {
            let s = self.0.entry(row.block).or_default();
            s.accesses += u64::from(row.accesses);
            s.dist_sum += row.dist_sum;
            s.reuse_cnt += u64::from(row.reuse_cnt);
            s.max_dist = s.max_dist.max(u64::from(row.max_dist));
        }
    }

    /// The summary of every row absorbed, its blocks sorted once.
    pub(crate) fn into_block_reuse(self) -> BlockReuse {
        let mut pairs: Vec<(u64, BlockStats)> = self.0.into_iter().collect();
        pairs.sort_unstable_by_key(|&(b, _)| b);
        BlockReuse::from_sorted(pairs.into_iter())
    }
}

/// Blocks per chunk of [`BlockReuse`]'s query index.
const CHUNK: usize = 64;

/// Per-block spatio-temporal reuse summary for location analysis
/// (paper §IV-C2): `D(b)` is the mean unique blocks between subsequent
/// accesses to block `b`.
///
/// Region tables (IV–IX) query the same summary for every region row,
/// so blocks are kept sorted beside an index over chunks of [`CHUNK`]
/// blocks: the sums of the summable stats before each chunk, and a
/// sparse table over the chunk maxima of the max distances. A `region_*`
/// query is two binary searches, O(1) lookups over its whole chunks and
/// a scan of at most two partial chunks. The index costs about 1–1.5
/// bytes per block beside the summary's 40, and builds in one pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockReuse {
    /// Block numbers, strictly increasing.
    blocks: Vec<u64>,
    /// Per-block stats, parallel to `blocks`.
    stats: Vec<BlockStats>,
    /// `chunk_sums[c]` = `[accesses, Σ distance, reuse count]` over
    /// `stats[..c · CHUNK]`, for every `c · CHUNK <= n`.
    chunk_sums: Vec<[u64; 3]>,
    /// Sparse table over the `m = n / CHUNK` whole chunks' max
    /// distances, levels concatenated: level `k` starts at
    /// [`level_start`]`(k, m)` and its `c`-th entry is the max over
    /// chunks `c..c + 2^k`. Level 0 is the chunk maxima.
    chunk_max: Vec<u64>,
}

/// Where level `k` of a sparse table over `m` entries starts: levels
/// `j < k` hold `m + 1 − 2^j` entries each.
fn level_start(k: usize, m: usize) -> usize {
    k * (m + 1) + 1 - (1 << k)
}

impl Default for BlockReuse {
    fn default() -> BlockReuse {
        BlockReuse::from_sorted(std::iter::empty())
    }
}

impl BlockReuse {
    /// The summary of `samples` at block size `bs`. Reuse is
    /// intra-sample (§IV-B): one kernel reuse pass per sample, its rows
    /// absorbed into one [`BlockTable`], sorted and indexed once.
    pub fn from_samples(samples: &[Sample], bs: BlockSize) -> BlockReuse {
        let mut table = BlockTable::default();
        kernel::with_workspace(|ws| {
            for s in samples {
                ws.reuse_pass(s.accesses.iter().map(|a| (a.addr.block(bs), 0)));
                table.absorb_rows(ws.rows());
            }
        });
        table.into_block_reuse()
    }

    /// [`from_samples`](Self::from_samples) as its
    /// [`raw_rows`](Self::raw_rows) — what the store catalog persists.
    pub fn sample_rows(samples: &[Sample], bs: BlockSize) -> Vec<(u64, [u64; 4])> {
        BlockReuse::from_samples(samples, bs).raw_rows().collect()
    }

    /// Coalesce many window summaries at once: concatenate the sorted
    /// columns, sort, absorb duplicate blocks, and build the index a
    /// single time. For `k` parts totalling `n` entries this is
    /// O(n log n) — versus O(k·n) when folding parts through
    /// [`BlockReuse::merge`] one by one.
    pub fn from_parts(parts: impl IntoIterator<Item = BlockReuse>) -> BlockReuse {
        let mut pairs: Vec<(u64, BlockStats)> = Vec::new();
        for p in parts {
            pairs.extend(p.blocks.into_iter().zip(p.stats));
        }
        // The stable sort detects runs: summaries arrive with strictly
        // increasing blocks, so their concatenation is a handful of
        // pre-sorted runs that merge in near-linear time.
        pairs.sort_by_key(|&(b, _)| b);
        BlockReuse::from_sorted(pairs.into_iter())
    }

    /// Absorb duplicate blocks of `(block, stats)` pairs in block order,
    /// then index. Order among equal blocks is irrelevant: `absorb` only
    /// sums and maxes.
    fn from_sorted(pairs: impl ExactSizeIterator<Item = (u64, BlockStats)>) -> BlockReuse {
        let mut blocks: Vec<u64> = Vec::with_capacity(pairs.len());
        let mut stats: Vec<BlockStats> = Vec::with_capacity(pairs.len());
        for (b, s) in pairs {
            if blocks.last() == Some(&b) {
                stats.last_mut().expect("parallel to blocks").absorb(&s);
            } else {
                blocks.push(b);
                stats.push(s);
            }
        }
        BlockReuse::indexed(blocks, stats)
    }

    /// The summary of `blocks` (strictly increasing) and their `stats`,
    /// with its index built: the chunk sums and chunk maxima in one pass
    /// over the stats, then the sparse table over the `n / CHUNK` maxima.
    fn indexed(blocks: Vec<u64>, stats: Vec<BlockStats>) -> BlockReuse {
        debug_assert!(blocks.windows(2).all(|w| w[0] < w[1]));
        let m = stats.len() / CHUNK;
        let mut chunk_sums = Vec::with_capacity(m + 1);
        chunk_sums.push([0u64; 3]);
        // ⌊log₂ m⌋ + 1 levels; none without a whole chunk.
        let levels = (usize::BITS - m.leading_zeros()) as usize;
        let mut chunk_max = Vec::with_capacity(level_start(levels, m));
        let mut sum = [0u64; 3];
        for chunk in stats.chunks_exact(CHUNK) {
            let mut max = 0;
            for s in chunk {
                sum = [
                    sum[0] + s.accesses,
                    sum[1] + s.dist_sum,
                    sum[2] + s.reuse_cnt,
                ];
                max = max.max(s.max_dist);
            }
            chunk_sums.push(sum);
            chunk_max.push(max);
        }
        for k in 1..levels {
            let (prev, half) = (level_start(k - 1, m), 1 << (k - 1));
            for c in 0..=m - (1 << k) {
                chunk_max.push(chunk_max[prev + c].max(chunk_max[prev + c + half]));
            }
        }
        BlockReuse {
            blocks,
            stats,
            chunk_sums,
            chunk_max,
        }
    }

    /// `[accesses, Σ distance, reuse count]` over `stats[..i]`: the sums
    /// before `i`'s chunk, then the at most `CHUNK − 1` stats of it
    /// before `i`.
    fn prefix(&self, i: usize) -> [u64; 3] {
        let c = i / CHUNK;
        let [mut a, mut d, mut r] = self.chunk_sums[c];
        for s in &self.stats[c * CHUNK..i] {
            a += s.accesses;
            d += s.dist_sum;
            r += s.reuse_cnt;
        }
        [a, d, r]
    }

    /// `[accesses, Σ distance, reuse count]` over `stats[l..r]`.
    fn sums(&self, l: usize, r: usize) -> [u64; 3] {
        let (hi, lo) = (self.prefix(r), self.prefix(l));
        [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]]
    }

    /// `[accesses, Σ distance, reuse count]` over every block.
    pub(crate) fn totals(&self) -> [u64; 3] {
        self.prefix(self.stats.len())
    }

    /// Raw `(block, [accesses, dist_sum, reuse_cnt, max_dist])` rows in
    /// block order — the summary's interchange form, consumed by the
    /// `MGZP` partial codec and persisted per frame in the
    /// `memgaze-store` catalog so region queries can rebuild a
    /// [`BlockReuse`] without decoding any shard.
    pub fn raw_rows(&self) -> impl Iterator<Item = (u64, [u64; 4])> + '_ {
        self.blocks
            .iter()
            .zip(&self.stats)
            .map(|(&b, s)| (b, [s.accesses, s.dist_sum, s.reuse_cnt, s.max_dist]))
    }

    /// Rebuild from [`raw_rows`](Self::raw_rows) output (`MGZP` partial
    /// codec, store catalog). Rows must be in strictly increasing block
    /// order with stat totals that fit `u64`; returns `None` otherwise.
    pub fn from_raw_rows(rows: Vec<(u64, [u64; 4])>) -> Option<BlockReuse> {
        if !rows.windows(2).all(|w| w[0].0 < w[1].0) {
            return None;
        }
        // The index keeps sums of the summable stats; rows whose totals
        // leave `u64` are not something an analyzer produced.
        rows.iter().try_fold([0u64; 3], |sums, &(_, stats)| {
            Some([
                sums[0].checked_add(stats[0])?,
                sums[1].checked_add(stats[1])?,
                sums[2].checked_add(stats[2])?,
            ])
        })?;
        let blocks = rows.iter().map(|&(b, _)| b).collect();
        let stats = rows
            .into_iter()
            .map(
                |(_, [accesses, dist_sum, reuse_cnt, max_dist])| BlockStats {
                    accesses,
                    dist_sum,
                    reuse_cnt,
                    max_dist,
                },
            )
            .collect();
        Some(BlockReuse::indexed(blocks, stats))
    }

    /// Merge another window's summary into this one (sample aggregation,
    /// §IV-B): a two-pointer merge of the sorted columns, then one pass
    /// to index them — O(n + m).
    pub fn merge(&mut self, other: &BlockReuse) {
        if other.blocks.is_empty() {
            return;
        }
        if self.blocks.is_empty() {
            *self = other.clone();
            return;
        }
        let mut blocks = Vec::with_capacity(self.blocks.len() + other.blocks.len());
        let mut stats = Vec::with_capacity(blocks.capacity());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.blocks.len() || j < other.blocks.len() {
            let take_self = j >= other.blocks.len()
                || (i < self.blocks.len() && self.blocks[i] <= other.blocks[j]);
            if take_self {
                let mut s = self.stats[i];
                if j < other.blocks.len() && other.blocks[j] == self.blocks[i] {
                    s.absorb(&other.stats[j]);
                    j += 1;
                }
                blocks.push(self.blocks[i]);
                stats.push(s);
                i += 1;
            } else {
                blocks.push(other.blocks[j]);
                stats.push(other.stats[j]);
                j += 1;
            }
        }
        *self = BlockReuse::indexed(blocks, stats);
    }

    /// Index range `[l, r)` covering blocks in `[lo_block, hi_block)`.
    fn index_range(&self, lo_block: u64, hi_block: u64) -> (usize, usize) {
        let l = self.blocks.partition_point(|&b| b < lo_block);
        let r = self.blocks.partition_point(|&b| b < hi_block);
        (l, r.max(l))
    }

    /// Mean reuse distance of accesses to blocks in `[lo_block, hi_block)`.
    pub fn region_mean_distance(&self, lo_block: u64, hi_block: u64) -> f64 {
        let (l, r) = self.index_range(lo_block, hi_block);
        let [_, dist_sum, n] = self.sums(l, r);
        if n == 0 {
            0.0
        } else {
            dist_sum as f64 / n as f64
        }
    }

    /// Accesses to blocks in `[lo_block, hi_block)`.
    pub fn region_accesses(&self, lo_block: u64, hi_block: u64) -> u64 {
        let (l, r) = self.index_range(lo_block, hi_block);
        self.sums(l, r)[0]
    }

    /// `(block, accesses)` of every touched block in `[lo_block,
    /// hi_block)`, in block order: what the location zoom walks to find
    /// its page runs.
    pub(crate) fn block_accesses(
        &self,
        lo_block: u64,
        hi_block: u64,
    ) -> impl Iterator<Item = (u64, u64)> + '_ {
        let (l, r) = self.index_range(lo_block, hi_block);
        self.blocks[l..r]
            .iter()
            .zip(&self.stats[l..r])
            .map(|(&b, s)| (b, s.accesses))
    }

    /// Maximum reuse distance observed in `[lo_block, hi_block)` — the
    /// paper's "Max D" column (Table IX): the whole chunks' max off the
    /// sparse table, and a scan of the partial chunk at each end (at
    /// most 126 stats where no chunk lies whole inside).
    pub fn region_max_distance(&self, lo_block: u64, hi_block: u64) -> u64 {
        let (l, r) = self.index_range(lo_block, hi_block);
        let scan = |from: usize, to: usize| {
            (self.stats[from..to].iter().map(|s| s.max_dist))
                .max()
                .unwrap_or(0)
        };
        // Whole chunks `[a, b)`.
        let (a, b) = (l.div_ceil(CHUNK), r / CHUNK);
        if a >= b {
            return scan(l, r);
        }
        let k = (b - a).ilog2() as usize;
        let level = level_start(k, self.stats.len() / CHUNK);
        let whole = self.chunk_max[level + a].max(self.chunk_max[level + b - (1 << k)]);
        whole.max(scan(l, a * CHUNK)).max(scan(b * CHUNK, r))
    }

    /// Distinct blocks touched in `[lo_block, hi_block)`.
    pub fn region_blocks(&self, lo_block: u64, hi_block: u64) -> u64 {
        let (l, r) = self.index_range(lo_block, hi_block);
        (r - l) as u64
    }

    /// Total distinct blocks in the summary.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the summary is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Iterate `(block, accesses, mean_distance)` entries in block order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, f64)> + '_ {
        self.blocks.iter().zip(&self.stats).map(|(&b, s)| {
            let d = if s.reuse_cnt == 0 {
                0.0
            } else {
                s.dist_sum as f64 / s.reuse_cnt as f64
            };
            (b, s.accesses, d)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::Access;

    fn seq(blocks: &[u64]) -> Vec<Access> {
        blocks
            .iter()
            .enumerate()
            .map(|(i, b)| Access::new(0x400u64, b * 64, i as u64))
            .collect()
    }

    /// The summary of one window of cache-line blocks.
    fn summary(blocks: &[u64]) -> BlockReuse {
        BlockReuse::from_samples(&[Sample::new(seq(blocks), 0)], BlockSize::CACHE_LINE)
    }

    #[test]
    fn simple_reuse_distances() {
        // a b c a: reuse of a at distance 2 (b, c), interval 3.
        let r = analyze_window(&seq(&[1, 2, 3, 1]), BlockSize::CACHE_LINE);
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.events[0].distance, 2);
        assert_eq!(r.events[0].interval(), 3);
        assert_eq!(r.unique_blocks, 3);
        assert_eq!(r.max_distance(), 2);
    }

    #[test]
    fn back_to_back_reuse_is_distance_zero() {
        let r = analyze_window(&seq(&[5, 5, 5]), BlockSize::CACHE_LINE);
        assert_eq!(r.events.len(), 2);
        assert!(r
            .events
            .iter()
            .all(|e| e.distance == 0 && e.interval() == 1));
        assert_eq!(r.mean_distance(), 0.0);
        assert_eq!(r.mean_interval(), 1.0);
    }

    #[test]
    fn stack_distance_counts_unique_not_total() {
        // a b b b a: interval 4 but only one distinct block between.
        let r = analyze_window(&seq(&[1, 2, 2, 2, 1]), BlockSize::CACHE_LINE);
        let a_reuse = r.events.iter().find(|e| e.pos == 4).unwrap();
        assert_eq!((a_reuse.prev, a_reuse.interval()), (0, 4));
        assert_eq!(a_reuse.distance, 1);
    }

    #[test]
    fn reuse_fraction() {
        let r = analyze_window(&seq(&[1, 2, 1, 2]), BlockSize::CACHE_LINE);
        assert!((r.reuse_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(
            analyze_window(&[], BlockSize::CACHE_LINE).reuse_fraction(),
            0.0
        );
    }

    #[test]
    fn block_reuse_region_queries() {
        let br = summary(&[10, 11, 10, 20, 20, 11]);
        assert_eq!(br.region_accesses(10, 12), 4);
        assert_eq!(br.region_accesses(20, 21), 2);
        assert_eq!(br.region_blocks(10, 21), 3);
        // Block 20's reuse is back-to-back: D=0.
        assert_eq!(br.region_mean_distance(20, 21), 0.0);
        // Block 10 reused at distance 1; block 11 at distance 2.
        let d = br.region_mean_distance(10, 12);
        assert!((d - 1.5).abs() < 1e-12, "d={d}");
    }

    #[test]
    fn indexed_queries_match_full_scan() {
        // Pseudo-random block stream with clustered regions; compare the
        // indexed queries against a straight scan over iter() plus an
        // independently tracked per-block max.
        let blocks: Vec<u64> = (0..500u64)
            .map(|i| (i.wrapping_mul(2654435761) % 97) + (i % 3) * 1000)
            .collect();
        let r = analyze_window(&seq(&blocks), BlockSize::CACHE_LINE);
        let br = summary(&blocks);

        let mut max_by_block: std::collections::HashMap<u64, u64> =
            std::collections::HashMap::new();
        let mut sums: std::collections::HashMap<u64, (u64, u64)> = std::collections::HashMap::new();
        for e in &r.events {
            let (block, d) = (blocks[e.pos as usize], u64::from(e.distance));
            let m = max_by_block.entry(block).or_insert(0);
            *m = (*m).max(d);
            let s = sums.entry(block).or_insert((0, 0));
            s.0 += d;
            s.1 += 1;
        }

        for (lo, hi) in [
            (0, 97),
            (1000, 1097),
            (50, 1050),
            (0, u64::MAX),
            (96, 97),
            (98, 99),
        ] {
            let scan_accesses: u64 = br
                .iter()
                .filter(|&(b, _, _)| b >= lo && b < hi)
                .map(|(_, a, _)| a)
                .sum();
            assert_eq!(
                br.region_accesses(lo, hi),
                scan_accesses,
                "accesses [{lo},{hi})"
            );

            let scan_blocks = br.iter().filter(|&(b, _, _)| b >= lo && b < hi).count() as u64;
            assert_eq!(br.region_blocks(lo, hi), scan_blocks, "blocks [{lo},{hi})");

            let scan_max = max_by_block
                .iter()
                .filter(|(b, _)| **b >= lo && **b < hi)
                .map(|(_, m)| *m)
                .max()
                .unwrap_or(0);
            assert_eq!(br.region_max_distance(lo, hi), scan_max, "max [{lo},{hi})");

            let (ds, dn) = sums
                .iter()
                .filter(|(b, _)| **b >= lo && **b < hi)
                .fold((0u64, 0u64), |(s, n), (_, (es, en))| (s + es, n + en));
            let scan_mean = if dn == 0 { 0.0 } else { ds as f64 / dn as f64 };
            let got = br.region_mean_distance(lo, hi);
            assert!(
                (got - scan_mean).abs() < 1e-12,
                "mean [{lo},{hi}): {got} vs {scan_mean}"
            );
        }
    }

    #[test]
    fn empty_block_reuse_queries_are_zero() {
        let br = BlockReuse::default();
        assert_eq!(br.region_accesses(0, u64::MAX), 0);
        assert_eq!(br.region_blocks(0, u64::MAX), 0);
        assert_eq!(br.region_max_distance(0, u64::MAX), 0);
        assert_eq!(br.region_mean_distance(0, u64::MAX), 0.0);
        assert!(br.is_empty());
    }

    #[test]
    fn from_parts_matches_pairwise_merge() {
        let windows: Vec<Vec<u64>> = vec![
            vec![1, 2, 1, 9],
            vec![1, 3, 1, 3, 3],
            vec![],
            (0..40).map(|i| i % 7).collect(),
        ];
        let parts: Vec<BlockReuse> = windows.iter().map(|w| summary(w)).collect();
        let mut folded = BlockReuse::default();
        for p in &parts {
            folded.merge(p);
        }
        let bulk = BlockReuse::from_parts(parts);
        assert_eq!(folded, bulk);
        // And both equal the one pass over the windows as samples.
        let samples: Vec<Sample> = windows.iter().map(|w| Sample::new(seq(w), 0)).collect();
        assert_eq!(
            bulk,
            BlockReuse::from_samples(&samples, BlockSize::CACHE_LINE)
        );
        assert_eq!(
            bulk.raw_rows().collect::<Vec<_>>(),
            BlockReuse::sample_rows(&samples, BlockSize::CACHE_LINE)
        );
    }

    /// The chunked index against a scan of the rows, at every pair of
    /// range ends on and beside the chunk edges (and at random ends),
    /// for summaries of 0 to 129 blocks and one of several chunks: whole
    /// chunks from the table, partial ones at either end, and ranges
    /// inside one chunk or empty.
    #[test]
    fn chunked_index_matches_scan_at_chunk_edges() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for n in [0usize, 1, 63, 64, 65, 127, 128, 129, 1000] {
            // Blocks 3i + 5, so a block range can also start or end
            // between two blocks.
            let rows: Vec<(u64, [u64; 4])> = (0..n as u64)
                .map(|i| {
                    let [a, d, c, m] = [next() % 9 + 1, next() % 1000, next() % 5, next() % 4096];
                    (3 * i + 5, [a, d, c, m])
                })
                .collect();
            let br = BlockReuse::from_raw_rows(rows.clone()).unwrap();
            let mut ends: Vec<usize> = [0, 1, 2, 62, 63, 64, 65, 126, 127, 128, 129, 130]
                .into_iter()
                .chain([n.saturating_sub(1), n])
                .chain((0..8).map(|_| next() as usize % (n + 1)))
                .filter(|&i| i <= n)
                .collect();
            ends.sort_unstable();
            ends.dedup();
            for &l in &ends {
                for &r in &ends {
                    // Index `i` is block 3i + 5; the range starts on or
                    // just before block l and ends just past block r − 1.
                    let (lo, hi) = (3 * l as u64 + 4, 3 * r as u64 + 3);
                    let inside = &rows[l..r.max(l)];
                    let sum = |k: usize| inside.iter().map(|(_, s)| s[k]).sum::<u64>();
                    let max = inside.iter().map(|(_, s)| s[3]).max().unwrap_or(0);
                    let at = format!("n {n} [{l}, {r})");
                    assert_eq!(br.region_accesses(lo, hi), sum(0), "{at}");
                    assert_eq!(br.region_blocks(lo, hi), inside.len() as u64, "{at}");
                    assert_eq!(br.region_max_distance(lo, hi), max, "{at}");
                    let mean = if sum(2) == 0 {
                        0.0
                    } else {
                        sum(1) as f64 / sum(2) as f64
                    };
                    assert_eq!(br.region_mean_distance(lo, hi), mean, "{at}");
                }
            }
            assert_eq!(
                br.totals(),
                [0, 1, 2].map(|k| rows.iter().map(|(_, s)| s[k]).sum())
            );
        }
    }

    #[test]
    fn block_reuse_merge_accumulates() {
        let mut b = summary(&[1, 2, 1]);
        b.merge(&summary(&[1, 3, 1]));
        assert_eq!(b.region_accesses(1, 2), 4);
        assert_eq!(b.region_blocks(0, 100), 3);
    }
}
