//! Partial reports: the mergeable snapshot of a [`StreamingAnalyzer`]
//! over a run of frames, and its `MGZP` wire codec.
//!
//! Two users keep a partial beyond the pass that built it:
//!
//! * the trace store's **result cache** holds one whole-trace partial
//!   per trace and configuration (a `.mgzr` entry), written by the
//!   analysis that missed and decoded by every later one;
//! * `memgaze serve` **seals** a session as the partial of its one
//!   running analyzer, and publishes each upload's own partial to the
//!   session's delta subscribers.
//!
//! Partials are folded one way, [`PartialReport::merge_many`]: it keeps
//! them as runs that pair up like the digits of a binary counter and
//! joins the runs in order. Every fold ends
//! in [`PartialReport::finish`] — the *same* fold every other consumer
//! ends in, the resident [`Analyzer`](crate::Analyzer) included — so a
//! report merged from any contiguous split of the frames is
//! bit-identical to a single pass.
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
//! A partial that leaves the process uses a hand-rolled,
//! length-prefixed, XXH64-sealed binary codec (varints + `f64` as
//! IEEE-754 bits), because serialization here must round-trip **bit
//! exactly** — JSON would not. Every list is a count followed by plain
//! deltas (a footprint entry's followed by its class-mask byte), and
//! every count passes [`Reader::count`] before anything is reserved for
//! it.

use crate::analyzer::{AnalysisConfig, FunctionRow};
use crate::confidence::Confidence;
use crate::diagnostics::FootprintDiagnostics;
use crate::fxhash::FxHashSet;
use crate::histogram::{add_row, LocalityPoint, Log2Histogram};
use crate::kernel::{ClassCounts, IRREGULAR, STRIDED};
use crate::reuse::BlockReuse;
use crate::streaming::{
    IngestStats, ReuseTracker, SampleReuseSummary, StreamingAnalyzer, StreamingReport,
};
use memgaze_model::wire::{
    self, add_delta, put_f64, put_str, put_varint, zigzag, Reader, Sum, WireError,
};
use memgaze_model::{
    AuxAnnotations, BlockSize, DecompressionInfo, FrameIndex, ModelError, SymbolTable, TraceMeta,
};
use std::collections::BTreeMap;
use std::ops::Range;

const PARTIAL_MAGIC: &[u8; 4] = b"MGZP";
/// Version 5 is version 4's body sealed with XXH64 where 4 had FNV-1a.
/// Only a result cache or a live session holds a partial, so no older
/// version is read: a cached one is a miss, and is overwritten.
const PARTIAL_VERSION: u16 = 5;

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
    /// Whether `firsts` and `lru` order one set of distinct blocks, as
    /// the merge's replay takes them to; the two buffers are scratch.
    fn is_one_distinct_set(&self, firsts: &mut Vec<u64>, lru: &mut Vec<u64>) -> bool {
        for (sorted, order) in [(&mut *firsts, &self.firsts), (&mut *lru, &self.lru)] {
            sorted.clear();
            sorted.extend_from_slice(order);
            sorted.sort_unstable();
        }
        firsts == lru && firsts.windows(2).all(|w| w[0] < w[1])
    }

    /// Snapshot a tracker's state.
    pub fn from_tracker(tracker: &ReuseTracker) -> ReusePartial {
        ReusePartial {
            firsts: tracker.first_touch_order(),
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
    /// seen in `self` — are replayed through a fresh tracker: load
    /// `self.lru` (all distinct, so no events), then feed `other.firsts`
    /// as one window of distinct blocks. For such a block `b`, the
    /// distinct blocks between its two accesses in the concatenated
    /// stream are (a) the `self` blocks accessed after `b`'s last `self`
    /// access — exactly those behind it in `self.lru` — and (b) the
    /// `other` blocks first touched before `b` — exactly those ahead of
    /// it in `other.firsts`; the tracker's marker moves dedupe the
    /// union. Events wholly inside either segment are already counted
    /// in that segment's sums.
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
        let n = other.firsts.len();
        replay.preload_distinct(&self.lru, n);
        debug_assert_eq!(replay.events(), 0, "lru blocks are distinct");
        replay.feed_window(n, other.firsts.iter().copied().zip(0u32..), 0, 0);
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
    /// Footprint blocks touched, strictly sorted, each with the OR of
    /// the class bits of the loads that touched it.
    pub(crate) footprint: Vec<(u64, u8)>,
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
        union_sorted(&mut self.footprint, &other.footprint);
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

/// Union of two strictly block-sorted footprints, ORing the class bits
/// of a block both hold. A `b` that starts past `a`'s last block is
/// appended as it is.
fn union_sorted(a: &mut Vec<(u64, u8)>, b: &[(u64, u8)]) {
    let Some(&(first, _)) = b.first() else {
        return;
    };
    if a.last().is_none_or(|&(last, _)| last < first) {
        a.extend_from_slice(b);
        return;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while let (Some(&(x, xm)), Some(&(y, ym))) = (a.get(i), b.get(j)) {
        out.push(match x.cmp(&y) {
            std::cmp::Ordering::Less => (x, xm),
            std::cmp::Ordering::Greater => (y, ym),
            std::cmp::Ordering::Equal => (x, xm | ym),
        });
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    *a = out;
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
    /// The merged block-reuse summary is left without its query index,
    /// which only [`finish`](Self::finish) needs: a fold of many merges
    /// builds it once.
    pub fn merge(&mut self, other: PartialReport) -> Result<(), PartialError> {
        let _span = memgaze_obs::span("partial.merge");
        self.check_config(
            other.footprint_block,
            other.reuse_block,
            &other.locality_sizes,
        )?;
        self.check_sums(&other)?;
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

    /// Sum every trace-wide counter of `self` and `other`, so that the
    /// `+=` of their merge (and the prefix sums of the merged
    /// [`BlockReuse`]) cannot overflow afterwards.
    fn check_sums(&self, other: &PartialReport) -> Result<(), PartialError> {
        let sum = |what, of: &dyn Fn(&PartialReport) -> u64| {
            checked_sum([of(self), of(other)], what).map(drop)
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

    /// Exact fold of `parts` in frame order, equal to a left-to-right
    /// [`merge`](Self::merge) of them: each part joins runs that pair up
    /// like the digits of a binary counter, so a sample takes part in
    /// O(log parts) merges, and the runs are joined in order at the
    /// end. Every part must have been built
    /// for the given block and locality sizes (else `ConfigMismatch`);
    /// an empty `parts` folds to [`empty`](Self::empty) for them.
    pub fn merge_many(
        parts: Vec<PartialReport>,
        footprint_block: BlockSize,
        reuse_block: BlockSize,
        locality_sizes: &[u64],
    ) -> Result<PartialReport, PartialError> {
        for p in &parts {
            p.check_config(footprint_block, reuse_block, locality_sizes)?;
        }
        let mut runs = Vec::new();
        for p in parts {
            PartialReport::push_run(&mut runs, p)?;
        }
        PartialReport::fold_runs(runs, footprint_block, reuse_block, locality_sizes)
    }

    /// Append `part`, the partial of the frames that follow every run's,
    /// to `runs` in frame order, merging it into the last run while that
    /// holds no more samples. Equal parts pair up like the digits of a
    /// binary counter: a sample takes part in O(log parts) merges, where
    /// one running fold would re-merge everything before it on each
    /// push. A failed merge loses the runs it had popped.
    fn push_run(
        runs: &mut Vec<PartialReport>,
        mut part: PartialReport,
    ) -> Result<(), PartialError> {
        while let Some(mut before) = runs.pop() {
            if before.num_samples > part.num_samples {
                runs.push(before);
                break;
            }
            before.merge(part)?;
            part = before;
        }
        runs.push(part);
        Ok(())
    }

    /// Join the runs [`push_run`](Self::push_run) built, in order, the
    /// smallest (last) first; no runs fold to [`empty`](Self::empty) for
    /// the given sizes.
    fn fold_runs(
        mut runs: Vec<PartialReport>,
        footprint_block: BlockSize,
        reuse_block: BlockSize,
        locality_sizes: &[u64],
    ) -> Result<PartialReport, PartialError> {
        let Some(mut folded) = runs.pop() else {
            return Ok(PartialReport::empty(
                footprint_block,
                reuse_block,
                locality_sizes,
            ));
        };
        while let Some(mut before) = runs.pop() {
            before.merge(folded)?;
            folded = before;
        }
        Ok(folded)
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
                let masks = fp.footprint.iter().map(|&(_, mask)| mask);
                let counts = ClassCounts::of_masks(masks, fp.implied_const);
                let diag = FootprintDiagnostics::from_counts(fp.observed, counts);
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
                let mut sum = (0u64, 0.0, 0.0, 0.0);
                rows.iter().for_each(|&row| add_row(&mut sum, row));
                LocalityPoint::from_sums(size, sum)
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
    /// framing, XXH64-sealed, `f64` as IEEE-754 bits — bit-exact
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
        // Rows are strictly block-sorted: each is its block's delta from
        // the row before (the first's from 0), then its stats.
        let mut prev_block = 0u64;
        for (block, stats) in self.block_reuse.raw_rows() {
            put_varint(buf, block - prev_block);
            prev_block = block;
            for s in stats {
                put_varint(buf, s);
            }
        }
        let (bins, count, sum) = self.histogram.raw_parts();
        put_u64s(buf, bins);
        put_varint(buf, count);
        put_varint(buf, sum);
        put_varint(buf, self.funcs.len() as u64);
        for (&id, fp) in &self.funcs {
            put_varint(buf, u64::from(id));
            put_str(buf, &fp.name);
            put_footprint(buf, &fp.footprint);
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
        let (_, mut r) = wire::open(
            data,
            PARTIAL_MAGIC,
            &[(PARTIAL_VERSION, Sum::Xxh64)],
            "partial report",
        )?;
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
        // A row is a delta and 4 stats: at least 5 bytes.
        let n = r.count(5, "block reuse count")?;
        let mut rows: Vec<(u64, [u64; 4])> = Vec::with_capacity(n);
        let mut block = 0u64;
        for _ in 0..n {
            block = add_delta(block, r.varint("block delta")?, "block delta")?;
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
            let fp = FuncPartial {
                name,
                footprint: get_footprint(&mut r, "function footprint")?,
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
    /// per-function reuse orders of one set of blocks. A frame can pass
    /// its checksum and say otherwise.
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
        let (mut firsts, mut lru) = (Vec::new(), Vec::new());
        for fp in self.funcs.values() {
            if fp.obs.len() as u64 > self.num_samples {
                return corrupt("a function observed more samples than there are");
            }
            if !fp.reuse.is_one_distinct_set(&mut firsts, &mut lru) {
                return corrupt("function reuse orders are not one set of distinct blocks");
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
//
// Every list is its count, then its entries, so a count passes
// `Reader::count` at an entry's least size before anything is reserved.

/// An arbitrary-order list (reuse orders, histogram bins, locality
/// sizes): each entry as the zigzag of its wrapping difference from the
/// entry before, the first's from 0.
fn put_u64s(buf: &mut Vec<u8>, vs: &[u64]) {
    put_varint(buf, vs.len() as u64);
    let mut prev = 0u64;
    for &v in vs {
        put_varint(buf, zigzag(v.wrapping_sub(prev) as i64));
        prev = v;
    }
}

fn get_u64s(r: &mut Reader<'_>, context: &'static str) -> Result<Vec<u64>, PartialError> {
    let n = r.count(1, context)?;
    let mut out = Vec::with_capacity(n);
    // The differences wrap, so their sum wraps back by construction.
    let mut v = 0u64;
    for _ in 0..n {
        v = v.wrapping_add(r.zigzag(context)? as u64);
        out.push(v);
    }
    Ok(out)
}

/// A footprint, strictly block-sorted: each entry as its block's
/// positive difference from the entry before (the first's from 0), then
/// its class mask byte.
fn put_footprint(buf: &mut Vec<u8>, entries: &[(u64, u8)]) {
    put_varint(buf, entries.len() as u64);
    let mut prev = 0u64;
    for &(block, mask) in entries {
        put_varint(buf, block - prev);
        buf.push(mask);
        prev = block;
    }
}

/// [`put_footprint`]'s list, rejecting any that is not strictly sorted
/// (a zero difference after the first entry repeats a block) or whose
/// mask holds a bit no load class sets.
fn get_footprint(
    r: &mut Reader<'_>,
    context: &'static str,
) -> Result<Vec<(u64, u8)>, PartialError> {
    let n = r.count(2, context)?;
    let mut out = Vec::with_capacity(n);
    let mut block = 0u64;
    for i in 0..n {
        let delta = r.varint(context)?;
        if delta == 0 && i > 0 {
            return Err(PartialError::Corrupt {
                detail: format!("repeated block in footprint ({context})"),
            });
        }
        block = add_delta(block, delta, context)?;
        let mask = r.u8(context)?;
        if mask > STRIDED | IRREGULAR {
            return Err(PartialError::Corrupt {
                detail: format!("class mask {mask} out of range ({context})"),
            });
        }
        out.push((block, mask));
    }
    Ok(out)
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
        // `beta`'s two ips share its 23 blocks, each block touched by one
        // ip first and, in the longer samples, by the other: a split can
        // leave a block one class on its left and both on its right.
        annots.insert(
            Ip(0x504),
            IpAnnot::of_class(LoadClass::Strided, FunctionId(1)),
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

    /// Equal parts pair up like the digits of a binary counter: after
    /// `n` one-sample parts the runs hold the powers of two that sum to
    /// `n`, largest first, so a sample takes part in O(log n) merges.
    /// One running fold, merging each part into everything before it,
    /// would hold a single run.
    #[test]
    fn push_run_keeps_the_binary_digits_of_the_part_count() {
        let (t, annots, symbols) = synthetic_trace();
        let cfg = AnalysisConfig::default();
        let mut runs = Vec::new();
        for n in 1..=40u64 {
            let mut sa = StreamingAnalyzer::new(&annots, &symbols, cfg);
            let sample = &t.samples[n as usize % t.samples.len()];
            sa.ingest_shard(std::slice::from_ref(sample));
            PartialReport::push_run(&mut runs, sa.into_partial()).unwrap();
            let held: Vec<u64> = runs.iter().map(PartialReport::num_samples).collect();
            let digits: Vec<u64> = (0..u64::BITS)
                .rev()
                .map(|b| 1 << b)
                .filter(|d| n & d != 0)
                .collect();
            assert_eq!(held, digits, "after {n} parts");
        }
    }

    /// An analyzer fed nothing snapshots to the merge identity, to the
    /// byte.
    #[test]
    fn an_unfed_analyzer_is_the_empty_partial() {
        let (annots, symbols) = (AuxAnnotations::new(), SymbolTable::new());
        let sizes = [8u64, 32];
        let page = AnalysisConfig {
            footprint_block: BlockSize::OS_PAGE,
            ..AnalysisConfig::default()
        };
        for cfg in [AnalysisConfig::default(), page] {
            let unfed = StreamingAnalyzer::new(&annots, &symbols, cfg)
                .with_locality_sizes(&sizes)
                .into_partial();
            let empty = PartialReport::empty(cfg.footprint_block, cfg.reuse_block, &sizes);
            assert_eq!(unfed.encode(), empty.encode());
            assert_eq!(unfed, empty);
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
        let wide: Vec<u64> = vec![u64::MAX, 0, 1 << 63, 5, u64::MAX - 1];
        let small: Vec<u64> = vec![5, 6, 9];
        // Footprints: every mask a load class can leave on a block.
        let masked =
            |vs: &[u64]| -> Vec<(u64, u8)> { vs.iter().map(|&b| (b, (b % 7 % 4) as u8)).collect() };
        for vs in [&seq, &pattern, &small, &vec![0, u64::MAX], &Vec::new()] {
            let entries = masked(vs);
            let mut buf = Vec::new();
            put_footprint(&mut buf, &entries);
            let mut src = Reader::new(&buf);
            assert_eq!(get_footprint(&mut src, "t").unwrap(), entries);
            assert!(src.is_empty());
        }
        for vs in [&seq, &pattern, &rev, &dups, &wide, &small, &Vec::new()] {
            let mut buf = Vec::new();
            put_u64s(&mut buf, vs);
            let mut src = Reader::new(&buf);
            assert_eq!(&get_u64s(&mut src, "t").unwrap(), vs);
            assert!(src.is_empty());
        }
        // Plain lists: a count, then one varint per entry — a step of one
        // block is one byte, and a footprint entry's mask one more.
        let mut buf = Vec::new();
        put_footprint(&mut buf, &masked(&seq));
        assert_eq!(buf.len(), 3 + (3 + 1) + 2 * (seq.len() - 1));
    }

    #[test]
    fn into_partial_sorts_the_footprint_at_every_block_size() {
        let (t, mut annots, symbols) = synthetic_trace();
        annots.insert(
            Ip(0x508),
            IpAnnot::of_class(LoadClass::Constant, FunctionId(1)),
        );
        for log2 in [0u8, 1, 2, 3, 12] {
            let footprint_block = BlockSize::from_log2(log2);
            // Two samples on the edges of the 64-block chunks a
            // function's footprint is kept in: blocks 63, 64 and 127,
            // the top block and the one below its chunk, a block no
            // class marks, and blocks 63 and 127 marked Irregular by one
            // window of `beta` and Strided by the other.
            let (top, at) = (u64::MAX >> log2, |block: u64| block << log2);
            let edges = [
                [(0x500, at(63)), (0x500, at(64)), (0x504, at(127))],
                [(0x504, at(63)), (0x500, at(127)), (0x508, at(128))],
                [(0x400, at(top)), (0x404, at(top - 64)), (0x408, at(64))],
            ];
            let mut t = t.clone();
            for (s, accesses) in (0u64..).zip(edges) {
                let base = 200_000 + s * 10_000;
                let accesses = (base..).zip(accesses);
                let accesses = accesses.map(|(time, (ip, addr))| Access::new(ip, addr, time));
                t.push_sample(Sample::new(accesses.collect(), base + 3))
                    .unwrap();
            }
            let cfg = AnalysisConfig {
                footprint_block,
                ..AnalysisConfig::default()
            };
            let mut want: BTreeMap<String, BTreeMap<u64, u8>> = BTreeMap::new();
            for a in t.samples.iter().flat_map(|s| &s.accesses) {
                let name = symbols.lookup(a.ip).unwrap().name.clone();
                let mask = want.entry(name).or_default();
                let bit = crate::kernel::class_bit(annots.class_of(a.ip));
                *mask.entry(a.addr.block(footprint_block)).or_insert(0) |= bit;
            }
            let mut sa = StreamingAnalyzer::new(&annots, &symbols, cfg);
            sa.ingest_shard(&t.samples);
            let got: BTreeMap<String, BTreeMap<u64, u8>> = (sa.into_partial().funcs.into_values())
                .map(|fp| {
                    assert!(fp.footprint.windows(2).all(|w| w[0].0 < w[1].0));
                    (fp.name, fp.footprint.into_iter().collect())
                })
                .collect();
            assert_eq!(got, want, "block log2 {log2}");
        }
    }

    #[test]
    fn a_footprint_list_that_repeats_a_block_is_corrupt() {
        let (t, annots, symbols) = synthetic_trace();
        let (container, index) = encode_sharded_indexed(&t, 4);
        let frames = 0..index.entries.len();
        let cfg = AnalysisConfig::default();
        let mut p =
            analyze_frames(&container, &index, frames, &annots, &symbols, cfg, &[16]).unwrap();
        let fp = (p.funcs.values_mut())
            .find(|fp| fp.footprint.len() > 1)
            .unwrap();
        // Nothing downstream re-checks the order: only the decoder sees
        // the repeat.
        fp.footprint[1].0 = fp.footprint[0].0;
        assert!(matches!(
            PartialReport::decode(&p.encode()),
            Err(PartialError::Corrupt { .. })
        ));
        // A lone first entry of 0 is a delta of 0 and stays legal.
        let mut buf = Vec::new();
        put_footprint(&mut buf, &[(0, STRIDED), (4, 0)]);
        let back = get_footprint(&mut Reader::new(&buf), "t").unwrap();
        assert_eq!(back, [(0, STRIDED), (4, 0)]);
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
    fn reuse_orders_that_are_not_one_distinct_set_are_corrupt() {
        let (t, annots, symbols) = synthetic_trace();
        let (container, index) = encode_sharded_indexed(&t, 4);
        let frames = 0..index.entries.len();
        let cfg = AnalysisConfig::default();
        let p = analyze_frames(&container, &index, frames, &annots, &symbols, cfg, &[16]).unwrap();
        let damaged: [fn(&mut ReusePartial); 3] = [
            |r| r.firsts[1] = r.firsts[0],
            |r| r.lru[1] = r.lru[0],
            |r| r.lru[0] = r.lru[0].wrapping_add(1 << 40),
        ];
        for damage in damaged {
            let mut q = p.clone();
            let fp = q
                .funcs
                .values_mut()
                .find(|fp| fp.reuse.firsts.len() > 1)
                .unwrap();
            damage(&mut fp.reuse);
            assert!(matches!(
                PartialReport::decode(&q.encode()),
                Err(PartialError::Corrupt { .. })
            ));
        }
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
