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

use crate::kernel::{self, Row};
use memgaze_model::{Access, BlockSize, Sample};
use serde::{Deserialize, Serialize};

/// One observed reuse: the access index, its block, interval, and distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReuseEvent {
    /// Index of the reusing access within the window.
    pub pos: usize,
    /// The reused block number.
    pub block: u64,
    /// Loads since the previous access to this block (reuse interval).
    pub interval: u64,
    /// Unique blocks since the previous access to this block (reuse
    /// distance).
    pub distance: u64,
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
            self.events.iter().map(|e| e.distance).sum(),
            self.events.len() as u64,
        )
    }

    /// Maximum reuse distance (the paper's "Max D"), or 0.
    pub fn max_distance(&self) -> u64 {
        self.events.iter().map(|e| e.distance).max().unwrap_or(0)
    }

    /// Mean reuse interval.
    pub fn mean_interval(&self) -> f64 {
        if self.events.is_empty() {
            0.0
        } else {
            self.events.iter().map(|e| e.interval as f64).sum::<f64>() / self.events.len() as f64
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
}

/// Analyze reuse within one window (typically one sample — the paper
/// prefers intra-sample calculation).
pub fn analyze_window(accesses: &[Access], bs: BlockSize) -> ReuseAnalysis {
    let (events, unique_blocks) = kernel::with_workspace(|ws| {
        let reuses = ws.reuse_pass(accesses.iter().map(|a| (a.addr.block(bs), 0)));
        let events = (reuses.iter())
            .map(|&[pos, prev, distance]| ReuseEvent {
                pos: pos as usize,
                block: accesses[pos as usize].addr.block(bs),
                interval: u64::from(pos - prev),
                distance: u64::from(distance),
            })
            .collect();
        (events, ws.rows().len() as u64)
    });
    ReuseAnalysis {
        events,
        accesses: accesses.len(),
        unique_blocks,
    }
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
    fn of_row(row: &Row) -> (u64, BlockStats) {
        (
            row.block,
            BlockStats {
                accesses: u64::from(row.accesses),
                dist_sum: row.dist_sum,
                reuse_cnt: u64::from(row.reuse_cnt),
                max_dist: u64::from(row.max_dist),
            },
        )
    }

    fn absorb(&mut self, other: &BlockStats) {
        self.accesses += other.accesses;
        self.dist_sum += other.dist_sum;
        self.reuse_cnt += other.reuse_cnt;
        self.max_dist = self.max_dist.max(other.max_dist);
    }
}

/// Per-block spatio-temporal reuse summary for location analysis
/// (paper §IV-C2): `D(b)` is the mean unique blocks between subsequent
/// accesses to block `b`.
///
/// Region tables (IV–IX) query the same summary for every region row,
/// so instead of a hash map that each query scans in full, blocks are
/// kept sorted with prefix sums of the summable stats and a sparse
/// table over the max distances. Every `region_*` query is then two
/// binary searches plus O(1) lookups — O(log n) total — independent of
/// how many region rows ask.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockReuse {
    /// Block numbers, strictly increasing.
    blocks: Vec<u64>,
    /// Per-block stats, parallel to `blocks`.
    stats: Vec<BlockStats>,
    /// `pre_*[i]` = sum of the stat over `stats[0..i]` (length n+1).
    pre_accesses: Vec<u64>,
    pre_dist_sum: Vec<u64>,
    pre_reuse_cnt: Vec<u64>,
    /// Sparse table for range-max over `max_dist`: `max_table[k][i]` =
    /// max over `stats[i..i + 2^k]`. Level 0 is the raw column.
    max_table: Vec<Vec<u64>>,
}

impl Default for BlockReuse {
    fn default() -> BlockReuse {
        let mut br = BlockReuse {
            blocks: Vec::new(),
            stats: Vec::new(),
            pre_accesses: Vec::new(),
            pre_dist_sum: Vec::new(),
            pre_reuse_cnt: Vec::new(),
            max_table: Vec::new(),
        };
        br.rebuild_index();
        br
    }
}

impl BlockReuse {
    /// The summary of `samples` at block size `bs` — the one place a
    /// `BlockReuse` is built from accesses. Reuse is intra-sample
    /// (§IV-B): one kernel reuse pass per sample, the per-block rows of
    /// all of them sorted once, the query index built once.
    pub fn from_samples(samples: &[Sample], bs: BlockSize) -> BlockReuse {
        let mut br = BlockReuse::from_samples_unindexed(samples, bs);
        br.rebuild_index();
        br
    }

    /// [`from_samples`](Self::from_samples) as its
    /// [`raw_rows`](Self::raw_rows), without building the query index —
    /// for a caller that only persists the rows (the store catalog).
    pub fn sample_rows(samples: &[Sample], bs: BlockSize) -> Vec<(u64, [u64; 4])> {
        BlockReuse::from_samples_unindexed(samples, bs)
            .raw_rows()
            .collect()
    }

    /// One kernel reuse pass per sample, the rows sorted once; no query
    /// index.
    fn from_samples_unindexed(samples: &[Sample], bs: BlockSize) -> BlockReuse {
        let mut pairs = Vec::new();
        kernel::with_workspace(|ws| {
            for s in samples {
                ws.reuse_pass(s.accesses.iter().map(|a| (a.addr.block(bs), 0)));
                pairs.extend(ws.rows().iter().map(BlockStats::of_row));
            }
        });
        BlockReuse::from_pairs_unindexed(pairs)
    }

    /// Coalesce many window summaries at once: concatenate the sorted
    /// columns, sort, absorb duplicate blocks, and rebuild the index a
    /// single time. For `k` parts totalling `n` entries this is
    /// O(n log n) — versus O(k·n) worth of index rebuilds when folding
    /// parts through [`BlockReuse::merge`] one by one.
    pub fn from_parts(parts: impl IntoIterator<Item = BlockReuse>) -> BlockReuse {
        let mut br = BlockReuse::from_parts_unindexed(parts);
        br.rebuild_index();
        br
    }

    /// [`from_parts`](Self::from_parts) without rebuilding the query
    /// index — for intermediate accumulator states that are only ever
    /// merged again (`from_parts` consumes just `blocks`/`stats`),
    /// never queried. Skipping the prefix sums and the O(n log n)
    /// sparse max-table on every geometric fold is what keeps streaming
    /// ingest's merge tax sublinear; a query against an unindexed state
    /// panics on the empty prefix arrays rather than answering wrong.
    pub(crate) fn from_parts_unindexed(parts: impl IntoIterator<Item = BlockReuse>) -> BlockReuse {
        let mut pairs: Vec<(u64, BlockStats)> = Vec::new();
        for p in parts {
            pairs.extend(p.blocks.into_iter().zip(p.stats));
        }
        BlockReuse::from_pairs_unindexed(pairs)
    }

    /// The unindexed summary of many windows' kernel rows, concatenated
    /// — a streaming shard's samples — sorted once, in place.
    pub(crate) fn from_rows_unindexed(rows: &mut [Row]) -> BlockReuse {
        // Rows arrive in first-touch order, so there are no runs for a
        // stable sort to find.
        rows.sort_unstable_by_key(|r| r.block);
        BlockReuse::from_sorted_unindexed(rows.iter().map(BlockStats::of_row))
    }

    /// Sort `(block, stats)` pairs and absorb duplicate blocks; no
    /// query index.
    fn from_pairs_unindexed(mut pairs: Vec<(u64, BlockStats)>) -> BlockReuse {
        // The stable sort detects runs: summaries arrive with strictly
        // increasing blocks, so their concatenation is a handful of
        // pre-sorted runs that merge in near-linear time.
        pairs.sort_by_key(|&(b, _)| b);
        BlockReuse::from_sorted_unindexed(pairs.into_iter())
    }

    /// Absorb duplicate blocks of `(block, stats)` pairs in block order;
    /// no query index. Order among equal blocks is irrelevant: `absorb`
    /// only sums and maxes.
    fn from_sorted_unindexed(
        pairs: impl ExactSizeIterator<Item = (u64, BlockStats)>,
    ) -> BlockReuse {
        let mut br = BlockReuse {
            blocks: Vec::with_capacity(pairs.len()),
            stats: Vec::with_capacity(pairs.len()),
            pre_accesses: Vec::new(),
            pre_dist_sum: Vec::new(),
            pre_reuse_cnt: Vec::new(),
            max_table: Vec::new(),
        };
        for (b, s) in pairs {
            if br.blocks.last() == Some(&b) {
                br.stats.last_mut().expect("parallel to blocks").absorb(&s);
            } else {
                br.blocks.push(b);
                br.stats.push(s);
            }
        }
        br
    }

    /// `[accesses, Σ distance, reuse count]` over every block of an
    /// indexed summary.
    pub(crate) fn totals(&self) -> [u64; 3] {
        [&self.pre_accesses, &self.pre_dist_sum, &self.pre_reuse_cnt]
            .map(|pre| *pre.last().expect("an indexed summary has prefix sums"))
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
        // The index keeps prefix sums of the summable stats; rows whose
        // totals leave `u64` are not something an analyzer produced.
        rows.iter().try_fold([0u64; 3], |sums, &(_, stats)| {
            Some([
                sums[0].checked_add(stats[0])?,
                sums[1].checked_add(stats[1])?,
                sums[2].checked_add(stats[2])?,
            ])
        })?;
        let mut br = BlockReuse {
            blocks: rows.iter().map(|&(b, _)| b).collect(),
            stats: rows
                .into_iter()
                .map(
                    |(_, [accesses, dist_sum, reuse_cnt, max_dist])| BlockStats {
                        accesses,
                        dist_sum,
                        reuse_cnt,
                        max_dist,
                    },
                )
                .collect(),
            pre_accesses: Vec::new(),
            pre_dist_sum: Vec::new(),
            pre_reuse_cnt: Vec::new(),
            max_table: Vec::new(),
        };
        br.rebuild_index();
        Some(br)
    }

    /// Merge another window's summary into this one (sample aggregation,
    /// §IV-B). A two-pointer merge of the sorted columns, then an index
    /// rebuild — O(n + m) plus O(n log n) for the max table.
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
        self.blocks = blocks;
        self.stats = stats;
        self.rebuild_index();
    }

    /// Recompute the prefix sums and the range-max sparse table from
    /// `blocks`/`stats`.
    fn rebuild_index(&mut self) {
        let n = self.blocks.len();
        debug_assert!(self.blocks.windows(2).all(|w| w[0] < w[1]));
        self.pre_accesses = Vec::with_capacity(n + 1);
        self.pre_dist_sum = Vec::with_capacity(n + 1);
        self.pre_reuse_cnt = Vec::with_capacity(n + 1);
        self.pre_accesses.push(0);
        self.pre_dist_sum.push(0);
        self.pre_reuse_cnt.push(0);
        for s in &self.stats {
            self.pre_accesses
                .push(self.pre_accesses.last().unwrap() + s.accesses);
            self.pre_dist_sum
                .push(self.pre_dist_sum.last().unwrap() + s.dist_sum);
            self.pre_reuse_cnt
                .push(self.pre_reuse_cnt.last().unwrap() + s.reuse_cnt);
        }
        self.max_table.clear();
        if n == 0 {
            return;
        }
        self.max_table
            .push(self.stats.iter().map(|s| s.max_dist).collect());
        let mut width = 1usize;
        while width * 2 <= n {
            let prev = self.max_table.last().unwrap();
            let next: Vec<u64> = (0..=n - width * 2)
                .map(|i| prev[i].max(prev[i + width]))
                .collect();
            self.max_table.push(next);
            width *= 2;
        }
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
        let n = self.pre_reuse_cnt[r] - self.pre_reuse_cnt[l];
        if n == 0 {
            0.0
        } else {
            (self.pre_dist_sum[r] - self.pre_dist_sum[l]) as f64 / n as f64
        }
    }

    /// Accesses to blocks in `[lo_block, hi_block)`.
    pub fn region_accesses(&self, lo_block: u64, hi_block: u64) -> u64 {
        let (l, r) = self.index_range(lo_block, hi_block);
        self.pre_accesses[r] - self.pre_accesses[l]
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
    /// paper's "Max D" column (Table IX).
    pub fn region_max_distance(&self, lo_block: u64, hi_block: u64) -> u64 {
        let (l, r) = self.index_range(lo_block, hi_block);
        if l >= r {
            return 0;
        }
        let k = (r - l).ilog2() as usize;
        let row = &self.max_table[k];
        row[l].max(row[r - (1 << k)])
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
        assert_eq!(r.events[0].interval, 3);
        assert_eq!(r.unique_blocks, 3);
        assert_eq!(r.max_distance(), 2);
    }

    #[test]
    fn back_to_back_reuse_is_distance_zero() {
        let r = analyze_window(&seq(&[5, 5, 5]), BlockSize::CACHE_LINE);
        assert_eq!(r.events.len(), 2);
        assert!(r.events.iter().all(|e| e.distance == 0 && e.interval == 1));
        assert_eq!(r.mean_distance(), 0.0);
        assert_eq!(r.mean_interval(), 1.0);
    }

    #[test]
    fn stack_distance_counts_unique_not_total() {
        // a b b b a: interval 4 but only one distinct block between.
        let r = analyze_window(&seq(&[1, 2, 2, 2, 1]), BlockSize::CACHE_LINE);
        let a_reuse = r.events.iter().find(|e| e.block == 1).unwrap();
        assert_eq!(a_reuse.interval, 4);
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
            let m = max_by_block.entry(e.block).or_insert(0);
            *m = (*m).max(e.distance);
            let s = sums.entry(e.block).or_insert((0, 0));
            s.0 += e.distance;
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

    #[test]
    fn block_reuse_merge_accumulates() {
        let mut b = summary(&[1, 2, 1]);
        b.merge(&summary(&[1, 3, 1]));
        assert_eq!(b.region_accesses(1, 2), 4);
        assert_eq!(b.region_blocks(0, 100), 3);
    }
}
