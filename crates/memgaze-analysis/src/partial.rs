//! Partial reports: the mergeable snapshot of a [`StreamingAnalyzer`]
//! over a run of frames, and its `MGZP` wire codec.
//!
//! Two users build a report out of pieces analyzed apart:
//!
//! * the trace store's **result cache** analyzes each frame once into a
//!   [`PartialReport`] ([`StreamingAnalyzer::into_partial`]), keeps it
//!   on disk, and on every later analysis folds the cached partials in
//!   frame order with [`PartialReport::merge_many`];
//! * `memgaze serve` **seals** a session by merging the partials its
//!   feeds produced and answers with the merged partial's bytes.
//!
//! Both end in [`PartialReport::finish`] — the *same* fold every other
//! consumer ends in, the resident [`Analyzer`](crate::Analyzer)
//! included — so a report merged from any contiguous split of the
//! frames is bit-identical to a single pass.
//!
//! The merge laws, per artifact:
//!
//! * integer counters, footprint set unions, histogram bins, and
//!   [`BlockReuse`] stats are associative — any grouping agrees;
//! * `f64` per-sample rows (diagnostics, reuse summaries, locality
//!   partials) are **concatenated**, never pre-summed, and folded once
//!   at finish in global sample order;
//! * cross-boundary exact reuse distances merge through
//!   [`ReusePartial`]: a segment is summarized by its distinct blocks
//!   in first-touch order and in last-access order plus its integer
//!   event/distance sums, which is exactly enough to replay the
//!   boundary events of two adjacent segments (see
//!   [`ReusePartial::absorb`]).
//!
//! A partial that leaves the process — the store's result cache, the
//! body `memgaze serve` answers a seal with — uses a hand-rolled,
//! length-prefixed, FNV-checksummed binary codec (varints + `f64` as
//! IEEE-754 bits), because serialization here must round-trip **bit
//! exactly** — JSON would not.

use crate::analyzer::{AnalysisConfig, FunctionRow};
use crate::confidence::Confidence;
use crate::diagnostics::FootprintDiagnostics;
use crate::fxhash::FxHashSet;
use crate::histogram::{LocalityPoint, Log2Histogram};
use crate::reuse::BlockReuse;
use crate::streaming::{
    IngestStats, ReuseTracker, SampleReuseSummary, StreamingAnalyzer, StreamingReport,
};
use memgaze_model::wire::{
    self, add_delta, put_f64, put_str, put_varint, unzigzag, zigzag, Reader, WireError,
};
use memgaze_model::{
    compression_ratio, AuxAnnotations, BlockSize, DecompressionInfo, FrameIndex, ModelError,
    SymbolTable, TraceMeta,
};
use std::collections::BTreeMap;
use std::ops::Range;

const PARTIAL_MAGIC: &[u8; 4] = b"MGZP";
const PARTIAL_VERSION: u16 = 2;

/// Errors of the partial-report algebra and its wire codec.
#[derive(Debug)]
pub enum PartialError {
    /// Wire data ended prematurely.
    Truncated {
        /// What was being decoded when input ran out.
        context: &'static str,
    },
    /// Wire data failed a checksum or structural validation.
    Corrupt {
        /// What was wrong.
        detail: String,
    },
    /// Two partials built under different analysis configurations.
    ConfigMismatch {
        /// What differed.
        detail: String,
    },
}

impl std::fmt::Display for PartialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartialError::Truncated { context } => {
                write!(f, "truncated partial report while decoding {context}")
            }
            PartialError::Corrupt { detail } => write!(f, "corrupt partial report: {detail}"),
            PartialError::ConfigMismatch { detail } => {
                write!(f, "partial-report config mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for PartialError {}

impl From<WireError> for PartialError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated { context } => PartialError::Truncated { context },
            other => PartialError::Corrupt {
                detail: other.to_string(),
            },
        }
    }
}

/// Exact-merge summary of a [`ReuseTracker`] over one stream segment.
///
/// `firsts` holds the segment's distinct blocks in first-touch order,
/// `lru` the same set in last-access order; `events`/`dist_sum` are the
/// segment-internal reuse totals. This is precisely the information
/// needed to merge two adjacent segments exactly — see
/// [`absorb`](Self::absorb).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReusePartial {
    pub(crate) firsts: Vec<u64>,
    pub(crate) lru: Vec<u64>,
    pub(crate) events: u64,
    pub(crate) dist_sum: u64,
}

impl ReusePartial {
    /// Snapshot a tracker's state.
    pub fn from_tracker(tracker: &ReuseTracker) -> ReusePartial {
        ReusePartial {
            firsts: tracker.first_touch_order().to_vec(),
            lru: tracker.lru_order(),
            events: tracker.events(),
            dist_sum: tracker.distance_sum(),
        }
    }

    /// Reuse events in the summarized stream.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Mean reuse distance, identical to
    /// [`ReuseTracker::mean_distance`] over the same stream.
    pub fn mean_distance(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.dist_sum as f64 / self.events as f64
        }
    }

    /// Merge the summary of the *immediately following* stream segment
    /// into this one, exactly.
    ///
    /// Boundary events — the first access in `other` to a block already
    /// seen in `self` — are replayed through a fresh tracker: feed
    /// `self.lru` (all distinct, so no events), then `other.firsts` in
    /// order. For such a block `b`, the distinct blocks between its two
    /// accesses in the concatenated stream are (a) the `self` blocks
    /// accessed after `b`'s last `self` access — exactly those behind
    /// it in `self.lru` — and (b) the `other` blocks first touched
    /// before `b` — exactly those fed earlier from `other.firsts`; the
    /// tracker's marker moves dedupe the union. Events wholly inside
    /// either segment are already counted in that segment's sums.
    ///
    /// The merged orderings are built structurally (the replay
    /// tracker's post-state does not see `other`'s internal
    /// reorderings): first-touch order is `self.firsts` then `other`'s
    /// new blocks; last-access order is `self.lru` minus `other`'s
    /// blocks, then `other.lru`.
    pub fn absorb(&mut self, other: &ReusePartial) {
        let mut replay = ReuseTracker::new();
        self.absorb_with(other, &mut replay)
            .expect("reuse totals of one stream fit u64");
    }

    /// [`absorb`](Self::absorb) with a caller-supplied replay tracker,
    /// so a fold over many functions reuses one set of marker
    /// allocations. The tracker is reset here; any prior state is
    /// discarded. Results are independent of the tracker's capacity
    /// (compaction preserves every distance), so scratch reuse cannot
    /// change the merge. Fails, before changing `self`, when the summed
    /// totals leave `u64` — which no analyzed stream's do, but a decoded
    /// partial's can.
    pub(crate) fn absorb_with(
        &mut self,
        other: &ReusePartial,
        replay: &mut ReuseTracker,
    ) -> Result<(), PartialError> {
        if other.firsts.is_empty() {
            return Ok(());
        }
        if self.firsts.is_empty() {
            *self = other.clone();
            return Ok(());
        }
        replay.reset();
        // The replay stream is `self.lru` then `other.firsts`; sizing the
        // slot window to cover both makes the whole replay
        // compaction-free, and the all-distinct LRU prefix loads in one
        // batch instead of n marker updates.
        replay.preload_distinct(&self.lru, other.firsts.len() + 1);
        debug_assert_eq!(replay.events(), 0, "lru blocks are distinct");
        for &b in &other.firsts {
            replay.feed(b);
        }
        let events = checked_sum([self.events, other.events, replay.events()], "reuse events")?;
        let dist_sum = checked_sum(
            [self.dist_sum, other.dist_sum, replay.distance_sum()],
            "reuse distance sum",
        )?;

        let self_blocks: FxHashSet<u64> = self.lru.iter().copied().collect();
        let other_blocks: FxHashSet<u64> = other.lru.iter().copied().collect();
        self.firsts.extend(
            other
                .firsts
                .iter()
                .copied()
                .filter(|b| !self_blocks.contains(b)),
        );
        let mut lru: Vec<u64> = self
            .lru
            .iter()
            .copied()
            .filter(|b| !other_blocks.contains(b))
            .collect();
        lru.extend_from_slice(&other.lru);
        self.lru = lru;
        self.events = events;
        self.dist_sum = dist_sum;
        Ok(())
    }
}

/// Per-function partial artifacts of one shard range.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncPartial {
    pub(crate) name: String,
    /// Footprint blocks touched, sorted.
    pub(crate) all: Vec<u64>,
    pub(crate) strided: Vec<u64>,
    pub(crate) irregular: Vec<u64>,
    pub(crate) observed: u64,
    pub(crate) implied_const: u64,
    pub(crate) reuse: ReusePartial,
    /// Per-sample footprint observations, in sample order.
    pub(crate) obs: Vec<f64>,
}

impl FuncPartial {
    /// Merge the partial of the immediately following shard range.
    /// `replay` is scratch for the reuse-summary merge, reused across
    /// the per-function fold.
    fn absorb(
        &mut self,
        other: FuncPartial,
        replay: &mut ReuseTracker,
    ) -> Result<(), PartialError> {
        let observed = checked_sum([self.observed, other.observed], "function accesses")?;
        let implied_const = checked_sum(
            [self.implied_const, other.implied_const],
            "function implied constants",
        )?;
        self.reuse.absorb_with(&other.reuse, replay)?;
        union_sorted(&mut self.all, &other.all);
        union_sorted(&mut self.strided, &other.strided);
        union_sorted(&mut self.irregular, &other.irregular);
        self.observed = observed;
        self.implied_const = implied_const;
        self.obs.extend(other.obs);
        Ok(())
    }
}

/// The sum of counters that came off the wire, or the typed error a
/// sum leaving `u64` earns: an analyzer's own counters count accesses
/// it held in memory, a decoded partial's are whatever the bytes said.
fn checked_sum(
    terms: impl IntoIterator<Item = u64>,
    what: &'static str,
) -> Result<u64, PartialError> {
    terms
        .into_iter()
        .try_fold(0u64, |sum, t| sum.checked_add(t))
        .ok_or_else(|| PartialError::Corrupt {
            detail: format!("{what} overflow u64 when merged"),
        })
}

/// Whether sorted, deduplicated `sub` is a subset of sorted `all`: one
/// walk over `all`, resumed for each element of `sub`.
fn is_sorted_subset(sub: &[u64], all: &[u64]) -> bool {
    let mut all = all.iter();
    sub.iter().all(|b| all.any(|a| a == b))
}

/// Union of two sorted, deduplicated block lists, by galloping
/// (exponential-search) merge: each side's next run is located with a
/// doubling probe plus a binary search and copied as a slice, so mostly
/// disjoint or mostly overlapping inputs cost O(runs · log) instead of
/// one comparison per element. Output is the sorted dedup union either
/// way — identical to a two-pointer merge.
pub(crate) fn union_sorted(a: &mut Vec<u64>, b: &[u64]) {
    if b.is_empty() {
        return;
    }
    if a.is_empty() {
        a.extend_from_slice(b);
        return;
    }
    if a[a.len() - 1] < b[0] {
        a.extend_from_slice(b);
        return;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            let run = gallop(&a[i..], b[j]);
            out.extend_from_slice(&a[i..i + run]);
            i += run;
        } else if b[j] < a[i] {
            let run = gallop(&b[j..], a[i]);
            out.extend_from_slice(&b[j..j + run]);
            j += run;
        } else {
            out.push(a[i]);
            i += 1;
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    *a = out;
}

/// First index in sorted `s` whose value is `>= key`, assuming
/// `s[0] < key`: double an upper probe until it crosses `key`, then
/// binary-search the last probed window.
fn gallop(s: &[u64], key: u64) -> usize {
    debug_assert!(!s.is_empty() && s[0] < key);
    let mut hi = 1usize;
    while hi < s.len() && s[hi] < key {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(s.len());
    lo + s[lo..hi].partition_point(|&x| x < key)
}

/// The mergeable snapshot of a [`StreamingAnalyzer`] over one shard
/// range: everything [`finish`](Self::finish) needs, in a form where
/// per-sample rows concatenate and aggregates fold associatively.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialReport {
    pub(crate) footprint_block: BlockSize,
    pub(crate) reuse_block: BlockSize,
    pub(crate) locality_sizes: Vec<u64>,
    pub(crate) num_samples: u64,
    pub(crate) observed: u64,
    pub(crate) implied_const: u64,
    pub(crate) per_sample_diags: Vec<FootprintDiagnostics>,
    pub(crate) per_sample_reuse: Vec<SampleReuseSummary>,
    /// Per locality size, one `(windows, Σd, Σg, Σf)` row per sample.
    pub(crate) locality: Vec<Vec<(u64, f64, f64, f64)>>,
    pub(crate) block_reuse: BlockReuse,
    pub(crate) histogram: Log2Histogram,
    pub(crate) funcs: BTreeMap<u32, FuncPartial>,
    pub(crate) stats: IngestStats,
}

impl PartialReport {
    /// The merge identity for a given configuration: merging any
    /// partial into it yields that partial.
    pub fn empty(
        footprint_block: BlockSize,
        reuse_block: BlockSize,
        locality_sizes: &[u64],
    ) -> PartialReport {
        PartialReport {
            footprint_block,
            reuse_block,
            locality_sizes: locality_sizes.to_vec(),
            num_samples: 0,
            observed: 0,
            implied_const: 0,
            per_sample_diags: Vec::new(),
            per_sample_reuse: Vec::new(),
            locality: vec![Vec::new(); locality_sizes.len()],
            block_reuse: BlockReuse::default(),
            histogram: Log2Histogram::new(),
            funcs: BTreeMap::new(),
            stats: IngestStats::default(),
        }
    }

    /// Samples summarized by this partial.
    pub fn num_samples(&self) -> u64 {
        self.num_samples
    }

    /// Ingest accounting of the pass that produced this partial
    /// (rolled up across merges: counters sum, peaks take the max).
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Merge the partial of the **immediately following** shard range
    /// into this one. Merging in any other order silently computes a
    /// different (wrong) trace, so callers fold partials in frame order.
    pub fn merge(&mut self, other: PartialReport) -> Result<(), PartialError> {
        let _span = memgaze_obs::span("partial.merge");
        self.check_config(
            other.footprint_block,
            other.reuse_block,
            &other.locality_sizes,
        )?;
        PartialReport::check_sums([&*self, &other].into_iter())?;
        self.num_samples += other.num_samples;
        self.observed += other.observed;
        self.implied_const += other.implied_const;
        self.per_sample_diags.extend(other.per_sample_diags);
        self.per_sample_reuse.extend(other.per_sample_reuse);
        for (rows, orows) in self.locality.iter_mut().zip(other.locality) {
            rows.extend(orows);
        }
        self.block_reuse.merge(&other.block_reuse);
        self.histogram.merge(&other.histogram);
        let mut replay = ReuseTracker::new();
        for (id, fp) in other.funcs {
            match self.funcs.entry(id) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().absorb(fp, &mut replay)?
                }
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(fp);
                }
            }
        }
        self.stats.merge(&other.stats);
        Ok(())
    }

    /// `ConfigMismatch` unless this partial was built for these block
    /// and locality sizes.
    fn check_config(
        &self,
        footprint_block: BlockSize,
        reuse_block: BlockSize,
        locality_sizes: &[u64],
    ) -> Result<(), PartialError> {
        if (self.footprint_block, self.reuse_block) != (footprint_block, reuse_block) {
            return Err(PartialError::ConfigMismatch {
                detail: format!(
                    "block sizes ({:?}/{:?}) vs ({footprint_block:?}/{reuse_block:?})",
                    self.footprint_block, self.reuse_block,
                ),
            });
        }
        if self.locality_sizes != locality_sizes {
            return Err(PartialError::ConfigMismatch {
                detail: format!(
                    "locality sizes {:?} vs {locality_sizes:?}",
                    self.locality_sizes
                ),
            });
        }
        Ok(())
    }

    /// Sum every trace-wide counter over `parts`, so that the `+=` of
    /// their merge (and the prefix sums of the merged [`BlockReuse`])
    /// cannot overflow afterwards.
    fn check_sums<'p>(
        parts: impl Iterator<Item = &'p PartialReport> + Clone,
    ) -> Result<(), PartialError> {
        let sum = |what, of: &dyn Fn(&PartialReport) -> u64| {
            checked_sum(parts.clone().map(of), what).map(drop)
        };
        sum("sample counts", &|p| p.num_samples)?;
        sum("access counts", &|p| p.observed)?;
        sum("implied constants", &|p| p.implied_const)?;
        sum("histogram counts", &|p| p.histogram.raw_parts().1)?;
        sum("histogram sums", &|p| p.histogram.raw_parts().2)?;
        sum("shard counts", &|p| p.stats.shards)?;
        sum("ingested samples", &|p| p.stats.samples)?;
        sum("merge events", &|p| p.stats.merge_events)?;
        sum("block accesses", &|p| p.block_reuse.totals()[0])?;
        sum("block distance sums", &|p| p.block_reuse.totals()[1])?;
        sum("block reuse counts", &|p| p.block_reuse.totals()[2])
    }

    /// Exact fold of `parts` in frame order, equivalent to a sequential
    /// left-to-right [`merge`](Self::merge) but built for many small
    /// partials (one per shard frame, as the trace store's result cache
    /// produces): the block-reuse summaries are k-way merged with a
    /// single index rebuild, and everything order-sensitive is folded
    /// as a balanced tree of adjacent pairs, which preserves segment
    /// order while keeping each element out of all but O(log k) merges.
    /// Every part must have been built for the given block and locality
    /// sizes (else `ConfigMismatch`); an empty `parts` folds to
    /// [`empty`](Self::empty) for them.
    pub fn merge_many(
        parts: Vec<PartialReport>,
        footprint_block: BlockSize,
        reuse_block: BlockSize,
        locality_sizes: &[u64],
    ) -> Result<PartialReport, PartialError> {
        let mut parts = parts;
        for p in &parts {
            p.check_config(footprint_block, reuse_block, locality_sizes)?;
        }
        // Up front: the summaries leave their partials next, so the
        // pairwise merges below would not see the block totals.
        PartialReport::check_sums(parts.iter())?;
        let mut reuses = Vec::with_capacity(parts.len());
        for p in &mut parts {
            reuses.push(std::mem::take(&mut p.block_reuse));
        }
        while parts.len() > 1 {
            let mut next = Vec::with_capacity(parts.len().div_ceil(2));
            let mut it = parts.into_iter();
            while let Some(mut a) = it.next() {
                if let Some(b) = it.next() {
                    a.merge(b)?;
                }
                next.push(a);
            }
            parts = next;
        }
        let mut merged = match parts.pop() {
            Some(p) => p,
            None => PartialReport::empty(footprint_block, reuse_block, locality_sizes),
        };
        merged.block_reuse = BlockReuse::from_parts(reuses);
        Ok(merged)
    }

    /// Fold into the final report — the single fold shared with
    /// [`StreamingAnalyzer::finish`], which is what makes merged
    /// reports bit-identical to a single pass by construction. ρ scales
    /// by `meta.total_loads`, the container trailer's count of the
    /// loads the samples covered.
    pub fn finish(self, meta: &TraceMeta) -> StreamingReport {
        let _span = memgaze_obs::span("partial.finish");
        let decompression = DecompressionInfo {
            loads: meta.total_loads,
            observed: self.observed,
            implied_const: self.implied_const,
        };
        let rho = decompression.rho();
        let fb = self.footprint_block;

        let mut function_rows: Vec<FunctionRow> = self
            .funcs
            .into_values()
            .map(|fp| {
                let kappa = compression_ratio(fp.observed, fp.implied_const);
                let diag = FootprintDiagnostics {
                    observed: fp.observed,
                    implied_const: fp.implied_const,
                    footprint: fp.all.len() as u64,
                    f_str: fp.strided.len() as u64,
                    f_irr: fp.irregular.len() as u64,
                    kappa,
                };
                FunctionRow {
                    name: fp.name,
                    f_hat_bytes: rho * diag.footprint as f64 * fb.bytes() as f64,
                    delta_f: diag.delta_f(),
                    f_str_pct: diag.delta_f_str_pct(),
                    accesses_decompressed: diag.kappa * diag.observed as f64,
                    observed: diag.observed,
                    mean_d: fp.reuse.mean_distance(),
                    confidence: Confidence::from_observations(&fp.obs),
                }
            })
            .collect();
        function_rows.sort_by(|a, b| b.accesses_decompressed.total_cmp(&a.accesses_decompressed));

        let locality_series: Vec<LocalityPoint> = self
            .locality_sizes
            .iter()
            .zip(&self.locality)
            .filter_map(|(&size, rows)| {
                let mut n = 0u64;
                let (mut sum_d, mut sum_g, mut sum_f) = (0.0, 0.0, 0.0);
                for &(pn, pd, pg, pf) in rows {
                    n += pn;
                    sum_d += pd;
                    sum_g += pg;
                    sum_f += pf;
                }
                (n > 0).then(|| LocalityPoint {
                    interval: size,
                    mean_d: sum_d / n as f64,
                    mean_delta_f: sum_g / n as f64,
                    mean_f: sum_f / n as f64,
                    windows: n,
                })
            })
            .collect();

        crate::streaming::StreamingReport {
            decompression,
            function_rows,
            block_reuse: self.block_reuse,
            reuse_histogram: self.histogram,
            locality_series,
            ingest: self.stats,
            footprint_block: fb,
            reuse_block: self.reuse_block,
            per_sample_diags: self.per_sample_diags,
            per_sample_reuse: self.per_sample_reuse,
        }
    }

    /// Serialize for the result cache and the serve seal (`MGZP`
    /// framing, FNV-checksummed, `f64` as IEEE-754 bits — bit-exact
    /// round trip).
    pub fn encode(&self) -> Vec<u8> {
        let _span = memgaze_obs::span("codec.encode_partial");
        let mut out = Vec::with_capacity(1024);
        let buf = &mut out;
        wire::put_header(buf, PARTIAL_MAGIC, PARTIAL_VERSION);
        buf.push(self.footprint_block.log2());
        buf.push(self.reuse_block.log2());
        put_u64s(buf, &self.locality_sizes);
        put_varint(buf, self.num_samples);
        put_varint(buf, self.observed);
        put_varint(buf, self.implied_const);
        put_varint(buf, self.per_sample_diags.len() as u64);
        for d in &self.per_sample_diags {
            put_varint(buf, d.observed);
            put_varint(buf, d.implied_const);
            put_varint(buf, d.footprint);
            put_varint(buf, d.f_str);
            put_varint(buf, d.f_irr);
            put_f64(buf, d.kappa);
        }
        put_varint(buf, self.per_sample_reuse.len() as u64);
        for r in &self.per_sample_reuse {
            put_varint(buf, r.events as u64);
            put_f64(buf, r.mean_d);
        }
        for rows in &self.locality {
            put_varint(buf, rows.len() as u64);
            for &(n, d, g, fval) in rows {
                put_varint(buf, n);
                put_f64(buf, d);
                put_f64(buf, g);
                put_f64(buf, fval);
            }
        }
        put_varint(buf, self.block_reuse.len() as u64);
        // The first row is verbatim (its block number may be 0, so its
        // delta may be too). After that, rows are strictly block-sorted
        // — deltas are positive — so 0 escapes a repeat: `0, k` stands
        // for `k` more rows with the previous row's delta *and* stats.
        // A uniformly streamed region yields thousands of equal-stat
        // rows one block apart, which all collapse into one escape.
        let mut prev_block = 0u64;
        let mut prev_delta = 0u64;
        let mut prev_stats = [u64::MAX; 4];
        let mut repeat = 0u64;
        let mut first = true;
        for (block, stats) in self.block_reuse.raw_rows() {
            let delta = block - prev_block;
            prev_block = block;
            if !first && delta == prev_delta && stats == prev_stats {
                repeat += 1;
                continue;
            }
            if repeat > 0 {
                put_varint(buf, 0);
                put_varint(buf, repeat);
                repeat = 0;
            }
            put_varint(buf, delta);
            for s in stats {
                put_varint(buf, s);
            }
            prev_delta = delta;
            prev_stats = stats;
            first = false;
        }
        if repeat > 0 {
            put_varint(buf, 0);
            put_varint(buf, repeat);
        }
        let (bins, count, sum) = self.histogram.raw_parts();
        put_u64s(buf, bins);
        put_varint(buf, count);
        put_varint(buf, sum);
        put_varint(buf, self.funcs.len() as u64);
        for (&id, fp) in &self.funcs {
            put_varint(buf, u64::from(id));
            put_str(buf, &fp.name);
            put_sorted(buf, &fp.all);
            // Class lists ride as a one-byte back-reference when they
            // equal `all` — functions dominated by a single load class
            // are the norm, and re-encoding (then re-decoding) the full
            // word-granular footprint list doubles the frame's weight
            // for no information.
            put_class_list(buf, &fp.strided, &fp.all);
            put_class_list(buf, &fp.irregular, &fp.all);
            put_varint(buf, fp.observed);
            put_varint(buf, fp.implied_const);
            put_u64s(buf, &fp.reuse.firsts);
            put_u64s(buf, &fp.reuse.lru);
            put_varint(buf, fp.reuse.events);
            put_varint(buf, fp.reuse.dist_sum);
            put_varint(buf, fp.obs.len() as u64);
            for &o in &fp.obs {
                put_f64(buf, o);
            }
        }
        put_varint(buf, self.stats.shards);
        put_varint(buf, self.stats.samples);
        put_varint(buf, self.stats.merge_events);
        put_varint(buf, self.stats.peak_shard_samples as u64);
        put_varint(buf, self.stats.peak_shard_bytes as u64);
        wire::seal(buf, 0);
        out
    }

    /// Decode a serialized partial, rejecting truncation, corruption,
    /// and structural inconsistencies — a damaged cache entry or upload
    /// must surface as a typed error, never a bad merge.
    pub fn decode(data: &[u8]) -> Result<PartialReport, PartialError> {
        let _span = memgaze_obs::span("codec.decode_partial");
        let mut r = wire::open(data, PARTIAL_MAGIC, PARTIAL_VERSION, "partial report")?;
        let footprint_block = get_block_size(&mut r, "partial footprint block")?;
        let reuse_block = get_block_size(&mut r, "partial reuse block")?;
        let locality_sizes = get_u64s(&mut r, "partial locality sizes")?;
        let num_samples = r.varint("partial num_samples")?;
        let observed = r.varint("partial observed")?;
        let implied_const = r.varint("partial implied_const")?;
        let n = r.count(13, "partial diag count")?;
        let mut per_sample_diags = Vec::with_capacity(n);
        for _ in 0..n {
            per_sample_diags.push(FootprintDiagnostics {
                observed: r.varint("diag observed")?,
                implied_const: r.varint("diag implied_const")?,
                footprint: r.varint("diag footprint")?,
                f_str: r.varint("diag f_str")?,
                f_irr: r.varint("diag f_irr")?,
                kappa: r.f64("diag kappa")?,
            });
        }
        let n = r.count(9, "partial reuse count")?;
        let mut per_sample_reuse = Vec::with_capacity(n);
        for _ in 0..n {
            per_sample_reuse.push(SampleReuseSummary {
                events: r.usize("reuse events")?,
                mean_d: r.f64("reuse mean_d")?,
            });
        }
        let mut locality = Vec::with_capacity(locality_sizes.len());
        for _ in 0..locality_sizes.len() {
            let n = r.count(25, "locality row count")?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push((
                    r.varint("locality windows")?,
                    r.f64("locality d")?,
                    r.f64("locality g")?,
                    r.f64("locality f")?,
                ));
            }
            locality.push(rows);
        }
        let n = get_count(&mut r, "block reuse count")?;
        let mut rows: Vec<(u64, [u64; 4])> = Vec::with_capacity(r.reserve_hint(n));
        let mut block = 0u64;
        let mut prev_delta = 0u64;
        while rows.len() < n {
            let delta = r.varint("block delta")?;
            if let (0, Some(&(_, stats))) = (delta, rows.last()) {
                // Repeat escape: `k` more rows with the previous delta
                // and stats (see the encoder).
                let k = r.usize("block repeat")?;
                if k == 0 || prev_delta == 0 || k > n - rows.len() {
                    return Err(PartialError::Corrupt {
                        detail: "bad block repeat run".to_string(),
                    });
                }
                rows.reserve(k);
                for _ in 0..k {
                    block = add_delta(block, prev_delta, "block repeat")?;
                    rows.push((block, stats));
                }
                continue;
            }
            block = add_delta(block, delta, "block delta")?;
            prev_delta = delta;
            let mut stats = [0u64; 4];
            for s in &mut stats {
                *s = r.varint("block stat")?;
            }
            rows.push((block, stats));
        }
        let block_reuse = BlockReuse::from_raw_rows(rows).ok_or_else(|| PartialError::Corrupt {
            detail: "block reuse rows out of order".to_string(),
        })?;
        let bins = get_u64s(&mut r, "histogram bins")?;
        let count = r.varint("histogram count")?;
        let sum = r.varint("histogram sum")?;
        let histogram = Log2Histogram::from_raw_parts(bins, count, sum);
        let n = r.count(12, "function count")?;
        let mut funcs = BTreeMap::new();
        for _ in 0..n {
            let id = r.u32("function id")?;
            let name = r.string("function name")?;
            let all = get_sorted(&mut r, "function footprint")?;
            let strided = get_class_list(&mut r, &all, "function strided")?;
            let irregular = get_class_list(&mut r, &all, "function irregular")?;
            let fp = FuncPartial {
                name,
                all,
                strided,
                irregular,
                observed: r.varint("function observed")?,
                implied_const: r.varint("function implied_const")?,
                reuse: ReusePartial {
                    firsts: get_u64s(&mut r, "function firsts")?,
                    lru: get_u64s(&mut r, "function lru")?,
                    events: r.varint("function events")?,
                    dist_sum: r.varint("function dist_sum")?,
                },
                obs: {
                    let n = r.count(8, "function obs count")?;
                    let mut obs = Vec::with_capacity(n);
                    for _ in 0..n {
                        obs.push(r.f64("function obs")?);
                    }
                    obs
                },
            };
            funcs.insert(id, fp);
        }
        let stats = IngestStats {
            shards: r.varint("stats shards")?,
            samples: r.varint("stats samples")?,
            merge_events: r.varint("stats merges")?,
            peak_shard_samples: r.usize("stats peak samples")?,
            peak_shard_bytes: r.usize("stats peak bytes")?,
        };
        r.finish("partial report")?;
        let partial = PartialReport {
            footprint_block,
            reuse_block,
            locality_sizes,
            num_samples,
            observed,
            implied_const,
            per_sample_diags,
            per_sample_reuse,
            locality,
            block_reuse,
            histogram,
            funcs,
            stats,
        };
        partial.validate()?;
        Ok(partial)
    }

    /// What [`into_partial`](StreamingAnalyzer::into_partial) guarantees
    /// and [`merge`](Self::merge), [`finish`](Self::finish) and
    /// [`StreamingReport::interval_rows`] add up without looking: one
    /// row per sample whose counters total the trace-wide ones, and
    /// per-function lists that are views of one footprint. A frame can
    /// pass its checksum and say otherwise.
    fn validate(&self) -> Result<(), PartialError> {
        let corrupt = |detail: &str| {
            Err(PartialError::Corrupt {
                detail: detail.to_string(),
            })
        };
        let rows = [self.per_sample_diags.len(), self.per_sample_reuse.len()];
        let rows = rows.into_iter().chain(self.locality.iter().map(Vec::len));
        if rows.into_iter().any(|n| n as u64 != self.num_samples) {
            return corrupt("per-sample rows disagree with the sample count");
        }
        let diags = &self.per_sample_diags;
        if checked_sum(diags.iter().map(|d| d.observed), "sample accesses")? != self.observed
            || checked_sum(diags.iter().map(|d| d.implied_const), "sample constants")?
                != self.implied_const
            || diags
                .iter()
                .any(|d| d.footprint > d.observed || d.f_str.max(d.f_irr) > d.footprint)
        {
            return corrupt("per-sample diagnostics disagree with the trace totals");
        }
        // A sample has at most one locality interval per access.
        let mut windows = self.locality.iter().flat_map(|rows| rows.iter().zip(diags));
        if windows.any(|(row, d)| row.0 > d.observed) {
            return corrupt("more locality intervals than accesses");
        }
        let (bins, count, _) = self.histogram.raw_parts();
        let events = self.per_sample_reuse.iter().map(|r| r.events as u64);
        if checked_sum(bins.iter().copied(), "histogram bins")? != count
            || checked_sum(events, "sample reuse events")? != count
        {
            return corrupt("reuse histogram disagrees with its count");
        }
        for fp in self.funcs.values() {
            if !is_sorted_subset(&fp.strided, &fp.all)
                || !is_sorted_subset(&fp.irregular, &fp.all)
                || fp.obs.len() as u64 > self.num_samples
            {
                return corrupt("function lists are not views of one footprint");
            }
        }
        Ok(())
    }
}

/// Run a [`StreamingAnalyzer`] over the contiguous frame range
/// `frames` of an indexed container into a [`PartialReport`]. Frames
/// are fetched by seek via the index and checked against its per-frame
/// checksums, never found by scanning.
pub fn analyze_frames(
    container: &[u8],
    index: &FrameIndex,
    frames: Range<usize>,
    annots: &AuxAnnotations,
    symbols: &SymbolTable,
    cfg: AnalysisConfig,
    locality_sizes: &[u64],
) -> Result<PartialReport, ModelError> {
    let mut span = memgaze_obs::span("partial.analyze_frames");
    if span.is_active() {
        span.set_label(format!("frames {}..{}", frames.start, frames.end));
    }
    let mut sa = StreamingAnalyzer::new(annots, symbols, cfg).with_locality_sizes(locality_sizes);
    for i in frames {
        let samples = index.read_frame(container, i)?;
        sa.ingest_shard(&samples);
    }
    Ok(sa.into_partial())
}

// ---- list codecs ----

/// Hard ceiling on entries in one run-length-encoded list. The
/// [`Reader::count`] remaining-bytes guard does not apply to RLE lists
/// — a run escape stores thousands of entries in three bytes — so this
/// bounds the memory a corrupt (checksum-colliding) count can make the
/// decoder commit.
const MAX_RLE_ENTRIES: usize = 1 << 26;

/// Length prefix of a run-length-encoded list; see [`MAX_RLE_ENTRIES`].
/// Callers reserve [`Reader::reserve_hint`] of it up front and grow as
/// runs are expanded.
fn get_count(r: &mut Reader<'_>, context: &'static str) -> Result<usize, PartialError> {
    let n = r.usize(context)?;
    if n > MAX_RLE_ENTRIES {
        return Err(PartialError::Corrupt {
            detail: format!("list of {n} entries exceeds decoder limit ({context})"),
        });
    }
    Ok(n)
}

/// Encode an arbitrary-order `u64` list as zigzag deltas with
/// run-length escapes: after a verbatim first element, each entry is
/// the token `zigzag(v[i] - v[i-1]) + 1`; token `0` escapes a run —
/// `0, zigzag(d), k` stands for `k` consecutive deltas of `d`. Block
/// lists in first-touch or LRU order are near-sequential for streamed
/// regions, so the dominant case is a handful of runs instead of one
/// 3-byte absolute varint per block.
fn put_u64s(buf: &mut Vec<u8>, vs: &[u64]) {
    put_varint(buf, vs.len() as u64);
    let Some((&first, rest)) = vs.split_first() else {
        return;
    };
    put_varint(buf, first);
    let mut prev = first;
    let mut i = 0;
    while i < rest.len() {
        let delta = rest[i].wrapping_sub(prev);
        let mut run = 1;
        while i + run < rest.len() && rest[i + run].wrapping_sub(rest[i + run - 1]) == delta {
            run += 1;
        }
        if run >= SORTED_RUN_MIN {
            put_varint(buf, 0);
            put_varint(buf, zigzag(delta as i64));
            put_varint(buf, run as u64);
        } else {
            let mut p = prev;
            for k in 0..run {
                put_varint(buf, zigzag(rest[i + k].wrapping_sub(p) as i64) + 1);
                p = rest[i + k];
            }
        }
        prev = rest[i + run - 1];
        i += run;
    }
}

fn get_u64s(r: &mut Reader<'_>, context: &'static str) -> Result<Vec<u64>, PartialError> {
    let n = get_count(r, context)?;
    let mut out = Vec::with_capacity(r.reserve_hint(n));
    if n == 0 {
        return Ok(out);
    }
    // The encoder's deltas are wrapping differences of an arbitrary-order
    // list, so the sums below wrap back by construction.
    let mut v = r.varint(context)?;
    out.push(v);
    while out.len() < n {
        let token = r.varint(context)?;
        if token == 0 {
            let d = r.zigzag(context)? as u64;
            let k = r.usize(context)?;
            if k == 0 || k > n - out.len() {
                return Err(PartialError::Corrupt {
                    detail: format!("bad run in u64 list ({context})"),
                });
            }
            out.reserve(k);
            for _ in 0..k {
                v = v.wrapping_add(d);
                out.push(v);
            }
        } else {
            v = v.wrapping_add(unzigzag(token - 1) as u64);
            out.push(v);
        }
    }
    Ok(out)
}

/// Sorted lists delta-encode; also validates order on decode.
/// Shortest run of equal deltas worth collapsing into an RLE escape
/// (marker + delta + count = 3 varints, so 4 is the break-even point
/// for one-byte deltas).
const SORTED_RUN_MIN: usize = 4;

/// Delta-encode a strictly sorted list with periodic-pattern escapes.
///
/// The first element is written verbatim (as its delta from zero).
/// After that, deltas are strictly positive — the list has no
/// duplicates — which frees `0` as an escape: `0, p, k, d1..dp` means
/// "the delta pattern `d1..dp` repeated `k` times". Block footprints
/// are dominated by short periodic stride patterns (a pure stream is
/// period 1; a stream with every j-th slot classified elsewhere has
/// period j-1), so this collapses the codec's largest lists from one
/// varint per block to a few bytes per pattern.
const SORTED_MAX_PERIOD: usize = 4;

fn put_sorted(buf: &mut Vec<u8>, vs: &[u64]) {
    put_varint(buf, vs.len() as u64);
    let Some((&first, rest)) = vs.split_first() else {
        return;
    };
    put_varint(buf, first);
    let mut prev = first;
    let mut i = 0;
    while i < rest.len() {
        // Longest periodic cover starting here, over short periods.
        let mut best_p = 0usize;
        let mut best_cover = 0usize;
        for p in 1..=SORTED_MAX_PERIOD.min(rest.len() - i) {
            let mut j = i + p;
            while j < rest.len()
                && rest[j] - if j == 0 { prev } else { rest[j - 1] }
                    == rest[j - p] - if j == p { prev } else { rest[j - p - 1] }
            {
                j += 1;
            }
            let cover = ((j - i) / p) * p;
            if cover > best_cover {
                best_cover = cover;
                best_p = p;
            }
        }
        if best_cover >= 2 * best_p && best_cover >= 8 {
            put_varint(buf, 0);
            put_varint(buf, best_p as u64);
            put_varint(buf, (best_cover / best_p) as u64);
            let mut p2 = prev;
            for k in 0..best_p {
                put_varint(buf, rest[i + k] - p2);
                p2 = rest[i + k];
            }
            prev = rest[i + best_cover - 1];
            i += best_cover;
        } else {
            put_varint(buf, rest[i] - prev);
            prev = rest[i];
            i += 1;
        }
    }
}

fn get_sorted(r: &mut Reader<'_>, context: &'static str) -> Result<Vec<u64>, PartialError> {
    let n = get_count(r, context)?;
    let mut out = Vec::with_capacity(r.reserve_hint(n));
    if n == 0 {
        return Ok(out);
    }
    let mut v = r.varint(context)?;
    out.push(v);
    while out.len() < n {
        let delta = r.varint(context)?;
        if delta == 0 {
            // Pattern escape: `k` repetitions of a `p`-delta pattern of
            // strictly positive deltas.
            let p = r.usize(context)?;
            let k = r.usize(context)?;
            let total = p.checked_mul(k).filter(|&t| t != 0 && t <= n - out.len());
            let Some(total) = total else {
                return Err(PartialError::Corrupt {
                    detail: format!("bad pattern run in sorted list ({context})"),
                });
            };
            let mut pat = [0u64; 16];
            if p > pat.len() {
                return Err(PartialError::Corrupt {
                    detail: format!("pattern period {p} too long ({context})"),
                });
            }
            for d in pat[..p].iter_mut() {
                *d = r.varint(context)?;
                if *d == 0 {
                    return Err(PartialError::Corrupt {
                        detail: format!("zero delta in sorted-list pattern ({context})"),
                    });
                }
            }
            out.reserve(total);
            for _ in 0..k {
                for &d in &pat[..p] {
                    v = add_delta(v, d, context)?;
                    out.push(v);
                }
            }
        } else {
            v = add_delta(v, delta, context)?;
            out.push(v);
        }
    }
    Ok(out)
}

/// Encode a class footprint list, back-referencing `all` when they are
/// equal: tag byte 0 means "same list as `all`" (nothing follows), tag
/// byte 1 means a [`put_sorted`] list follows. Equality is checked on
/// the full contents, so the compression never assumes the subset
/// invariant the analyzer happens to maintain.
fn put_class_list(buf: &mut Vec<u8>, vs: &[u64], all: &[u64]) {
    if vs == all {
        buf.push(0);
    } else {
        buf.push(1);
        put_sorted(buf, vs);
    }
}

fn get_class_list(
    r: &mut Reader<'_>,
    all: &[u64],
    context: &'static str,
) -> Result<Vec<u64>, PartialError> {
    match r.u8(context)? {
        0 => Ok(all.to_vec()),
        1 => get_sorted(r, context),
        tag => Err(PartialError::Corrupt {
            detail: format!("bad class-list tag {tag} ({context})"),
        }),
    }
}

fn get_block_size(r: &mut Reader<'_>, context: &'static str) -> Result<BlockSize, PartialError> {
    let log2 = r.u8(context)?;
    if log2 >= 64 {
        return Err(PartialError::Corrupt {
            detail: format!("block size log2 {log2} out of range ({context})"),
        });
    }
    Ok(BlockSize::from_log2(log2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::stream_resident_trace;
    use memgaze_model::{
        encode_sharded_indexed, Access, FunctionId, Ip, IpAnnot, LoadClass, Sample, SampledTrace,
    };

    fn mk_stream(seed: u64, n: usize) -> Vec<u64> {
        // Deterministic pseudo-random block stream with heavy reuse.
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % 37
            })
            .collect()
    }

    #[test]
    fn reuse_partial_merge_is_exact() {
        let stream = mk_stream(7, 400);
        for splits in [
            vec![400],
            vec![0, 400],
            vec![1, 399],
            vec![130, 270],
            vec![50, 50, 100, 200],
        ] {
            // Whole-stream reference.
            let mut whole = ReuseTracker::new();
            for &b in &stream {
                whole.feed(b);
            }
            // Segment trackers merged via ReusePartial.
            let mut merged = ReusePartial::default();
            let mut lo = 0usize;
            let mut segs = Vec::new();
            for &len in &splits {
                segs.push(&stream[lo..lo + len]);
                lo += len;
            }
            segs.push(&stream[lo..]);
            for seg in segs {
                let mut t = ReuseTracker::with_slot_capacity(8); // force compactions
                for &b in seg {
                    t.feed(b);
                }
                merged.absorb(&ReusePartial::from_tracker(&t));
            }
            assert_eq!(merged.events, whole.events(), "{splits:?}");
            assert_eq!(merged.dist_sum, whole.distance_sum(), "{splits:?}");
            assert_eq!(merged.firsts, whole.first_touch_order(), "{splits:?}");
            assert_eq!(merged.lru, whole.lru_order(), "{splits:?}");
        }
    }

    fn synthetic_trace() -> (SampledTrace, AuxAnnotations, SymbolTable) {
        let mut t = SampledTrace::new(TraceMeta::new("partial-test", 10_000, 16 << 10));
        t.meta.total_loads = 120_000;
        t.meta.total_instrumented_loads = 1200;
        for s in 0..12u64 {
            let base = s * 10_000;
            let mut accesses = Vec::new();
            for i in 0..(60 + (s * 13) % 50) {
                let (ip, addr) = if i % 3 == 0 {
                    (0x500 + (i % 2) * 4, 0x20_0000 + (i % 23) * 64)
                } else {
                    (0x400 + (i % 5) * 4, 0x10_0000 + (s * 100 + i) * 16)
                };
                accesses.push(Access::new(ip, addr, base + i));
            }
            let n = accesses.len() as u64;
            t.push_sample(Sample::new(accesses, base + n)).unwrap();
        }
        let mut annots = AuxAnnotations::new();
        for k in 0..5u64 {
            let mut an = IpAnnot::of_class(LoadClass::Strided, FunctionId(0));
            an.implied_const = 2;
            annots.insert(Ip(0x400 + k * 4), an);
        }
        annots.insert(
            Ip(0x500),
            IpAnnot::of_class(LoadClass::Irregular, FunctionId(1)),
        );
        let mut symbols = SymbolTable::new();
        symbols.add_function("alpha", Ip(0x400), Ip(0x500), "a.c");
        symbols.add_function("beta", Ip(0x500), Ip(0x600), "b.c");
        (t, annots, symbols)
    }

    #[test]
    fn merged_partials_match_single_pass_for_any_split() {
        let (t, annots, symbols) = synthetic_trace();
        let cfg = AnalysisConfig::default();
        let sizes = [8u64, 32];
        let (container, index) = encode_sharded_indexed(&t, 3);
        let whole = stream_resident_trace(&t, &annots, &symbols, cfg, &sizes, 3);
        let frames = index.entries.len();
        assert_eq!(frames, 4);
        for cuts in [vec![], vec![1], vec![2], vec![1, 3], vec![1, 2, 3]] {
            let bounds: Vec<usize> = [0].into_iter().chain(cuts).chain([frames]).collect();
            let mut merged = PartialReport::empty(cfg.footprint_block, cfg.reuse_block, &sizes);
            for r in bounds.windows(2) {
                let p = analyze_frames(
                    &container,
                    &index,
                    r[0]..r[1],
                    &annots,
                    &symbols,
                    cfg,
                    &sizes,
                )
                .unwrap();
                merged.merge(p).unwrap();
            }
            let report = merged.finish(&t.meta);
            assert_eq!(
                report.decompression, whole.decompression,
                "bounds {bounds:?}"
            );
            assert_eq!(
                report.function_rows, whole.function_rows,
                "bounds {bounds:?}"
            );
            assert_eq!(report.block_reuse, whole.block_reuse, "bounds {bounds:?}");
            assert_eq!(
                report.reuse_histogram, whole.reuse_histogram,
                "bounds {bounds:?}"
            );
            assert_eq!(
                report.locality_series, whole.locality_series,
                "bounds {bounds:?}"
            );
            for n in [1usize, 3, 5] {
                assert_eq!(
                    report.interval_rows(n),
                    whole.interval_rows(n),
                    "bounds {bounds:?}"
                );
            }
        }
    }

    #[test]
    fn list_codecs_roundtrip_at_scale() {
        // Shapes the bench workload produces: long sequential runs,
        // short-period stride patterns, reuse orders, and sparse lists.
        let seq: Vec<u64> = (0..16384u64).map(|i| 0x8000 + i).collect();
        let pattern: Vec<u64> = (0..98304u64).filter(|i| i % 4 != 0).collect();
        let rev: Vec<u64> = (0..4096u64).rev().map(|i| i * 3 + 7).collect();
        let dups: Vec<u64> = (0..1000u64).map(|i| i / 10).collect();
        let small: Vec<u64> = vec![5, 6, 9];
        for vs in [&seq, &pattern, &small, &Vec::new()] {
            let mut buf = Vec::new();
            put_sorted(&mut buf, vs);
            let mut src = Reader::new(&buf);
            assert_eq!(&get_sorted(&mut src, "t").unwrap(), vs);
            assert!(src.is_empty());
        }
        for vs in [&seq, &pattern, &rev, &dups, &small, &Vec::new()] {
            let mut buf = Vec::new();
            put_u64s(&mut buf, vs);
            let mut src = Reader::new(&buf);
            assert_eq!(&get_u64s(&mut src, "t").unwrap(), vs);
            assert!(src.is_empty());
        }
        // The run escapes actually engage: a 16K sequential list must
        // collapse to bytes, not one varint per entry.
        let mut buf = Vec::new();
        put_u64s(&mut buf, &seq);
        assert!(
            buf.len() < 32,
            "sequential list not run-compressed: {}",
            buf.len()
        );
    }

    #[test]
    fn partial_report_roundtrips_through_codec() {
        let (t, annots, symbols) = synthetic_trace();
        let cfg = AnalysisConfig::default();
        let (container, index) = encode_sharded_indexed(&t, 4);
        let p = analyze_frames(
            &container,
            &index,
            0..index.entries.len(),
            &annots,
            &symbols,
            cfg,
            &[16],
        )
        .unwrap();
        let wire = p.encode();
        let back = PartialReport::decode(&wire).unwrap();
        assert_eq!(p, back);
        // Truncation and corruption are typed errors.
        assert!(PartialReport::decode(&wire[..wire.len() - 3]).is_err());
        let mut flipped = wire.clone();
        flipped[20] ^= 0x10;
        assert!(PartialReport::decode(&flipped).is_err());
        assert!(PartialReport::decode(b"MGZP\x01\x00junk").is_err());
    }

    #[test]
    fn merge_rejects_mismatched_configs() {
        let a = PartialReport::empty(BlockSize::WORD, BlockSize::CACHE_LINE, &[8]);
        let mut b = PartialReport::empty(BlockSize::WORD, BlockSize::CACHE_LINE, &[16]);
        assert!(matches!(
            b.merge(a.clone()),
            Err(PartialError::ConfigMismatch { .. })
        ));
        let mut c = PartialReport::empty(BlockSize::OS_PAGE, BlockSize::CACHE_LINE, &[8]);
        assert!(matches!(
            c.merge(a.clone()),
            Err(PartialError::ConfigMismatch { .. })
        ));
        // `merge_many` holds even a lone part to the sizes it is given.
        for (fb, sizes) in [(BlockSize::WORD, [16u64]), (BlockSize::OS_PAGE, [8])] {
            assert!(matches!(
                PartialReport::merge_many(vec![a.clone()], fb, BlockSize::CACHE_LINE, &sizes),
                Err(PartialError::ConfigMismatch { .. })
            ));
        }
    }
}
