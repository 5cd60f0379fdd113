//! The analysis engine: an incremental fold over shards of samples.
//!
//! [`StreamingAnalyzer::ingest_shard`] → [`into_partial`] →
//! [`PartialReport::finish`] is the only code in the workspace that
//! computes a report. It consumes a trace one shard of samples at a
//! time — straight off a [`ShardReader`](memgaze_model::ShardReader),
//! out of the store's frames, from a `serve` upload, or from the
//! resident [`Analyzer`](crate::Analyzer), which feeds it
//! `trace.samples` and reads the [`StreamingReport`] back — holding one
//! decoded shard plus O(partials) state. A shard's samples are analyzed
//! one after another on the calling thread. The report is the same for
//! any shard size and any contiguous split of the shards; the reference
//! it answers to is the definitional spec in `tests/common/spec.rs`.
//!
//! The merge laws that make "any sharding == one shard" exact:
//!
//! * integer accumulations (access counts, footprint set unions,
//!   histogram bins) are associative, so any shard grouping agrees;
//! * every `f64` reduction folds *per-sample* terms in global sample
//!   order — never per-shard subtotals;
//! * [`BlockReuse::merge`] is the pairwise form of
//!   [`BlockReuse::from_parts`], and both only sum and max integers;
//! * per-function exact reuse distances cross shard boundaries via
//!   [`ReuseTracker`], an incremental engine whose event sequence (and
//!   thus integer distance sum) is that of the quadratic definition
//!   over the function's concatenated code window.
//!
//! The same laws extend across *passes*: a shard range's partials can be
//! snapshotted into a [`PartialReport`](crate::partial::PartialReport)
//! and merged in shard order later (the store's result cache, the serve
//! seal; see [`partial`](crate::partial)), with
//! [`finish`](StreamingAnalyzer::finish) itself implemented as
//! `into_partial().finish(..)` so every consumer shares one fold path.
//!
//! Artifacts that need the whole trace by construction (location zoom,
//! window series keyed on the global κ, time-range heatmaps) are out of
//! scope here; they stay on the resident [`Analyzer`](crate::Analyzer).
//!
//! [`into_partial`]: StreamingAnalyzer::into_partial
//! [`PartialReport::finish`]: crate::partial::PartialReport::finish

use crate::analyzer::{AnalysisConfig, FunctionRow, IntervalRow, RegionRow};
use crate::diagnostics::FootprintDiagnostics;
use crate::fxhash::FxHashMap;
use crate::histogram::{LocalityPoint, Log2Histogram};
use crate::kernel::{self, IpInfo, IpResolver, Markers, Row};
use crate::reuse::BlockReuse;
use memgaze_model::{
    AuxAnnotations, BlockSize, DecompressionInfo, Sample, SampledTrace, SymbolTable, TraceMeta,
};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;

/// Ingest accounting of a streaming pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestStats {
    /// Shards ingested.
    pub shards: u64,
    /// Samples ingested.
    pub samples: u64,
    /// Partial-artifact merge events (one per shard-level fold).
    pub merge_events: u64,
    /// Largest shard seen, in samples.
    pub peak_shard_samples: usize,
    /// Largest shard seen, in decoded access bytes — the peak trace
    /// memory a streaming consumer holds at once.
    pub peak_shard_bytes: usize,
}

impl IngestStats {
    /// Roll another pass's accounting into this one: counters add,
    /// peaks take the max — the rollup of a partial-report merge.
    pub fn merge(&mut self, other: &IngestStats) {
        self.shards += other.shards;
        self.samples += other.samples;
        self.merge_events += other.merge_events;
        self.peak_shard_samples = self.peak_shard_samples.max(other.peak_shard_samples);
        self.peak_shard_bytes = self.peak_shard_bytes.max(other.peak_shard_bytes);
    }
}

/// Per-sample reuse summary retained for interval rows: enough for
/// their `Σ mean·count / Σ count` fold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct SampleReuseSummary {
    pub(crate) events: usize,
    pub(crate) mean_d: f64,
}

/// Incremental exact reuse-distance tracker over an unbounded block
/// stream, O(distinct blocks) memory.
///
/// Feeding the concatenation of a function's accesses (one
/// [`feed`](Self::feed) per access, in order) produces the same event
/// count and the same integer distance sum as
/// [`reuse::analyze_window`](crate::reuse::analyze_window) over the whole slice, so
/// [`mean_distance`](Self::mean_distance) is bit-identical — including
/// across shard boundaries, which a windowed analysis cannot see.
///
/// Positions are slots of a [`Markers`] set, handed out by a
/// monotonically growing counter; when the slots fill up, live markers
/// (one per distinct block) are compacted order-preservingly, which
/// leaves every between-marker count — and hence every distance —
/// unchanged.
///
/// Beyond the running sums, the tracker records its blocks in
/// first-touch order ([`first_touch_order`](Self::first_touch_order))
/// and can report them in last-access order
/// ([`lru_order`](Self::lru_order)); together these summarize the
/// stream well enough that two trackers over adjacent stream segments
/// merge *exactly* — see
/// [`ReusePartial`](crate::partial::ReusePartial).
pub struct ReuseTracker {
    markers: Markers,
    last: FxHashMap<u64, usize>,
    next_slot: usize,
    cap: usize,
    /// The slot window a fresh tracker starts from.
    initial_cap: usize,
    events: u64,
    dist_sum: u64,
    firsts: Vec<u64>,
}

impl Default for ReuseTracker {
    fn default() -> Self {
        ReuseTracker::new()
    }
}

impl ReuseTracker {
    /// A tracker with the default slot capacity.
    pub fn new() -> ReuseTracker {
        ReuseTracker::with_slot_capacity(1024)
    }

    /// A tracker that compacts after `cap` slots — exposed so tests can
    /// force frequent compactions.
    pub fn with_slot_capacity(cap: usize) -> ReuseTracker {
        let cap = cap.max(2);
        let mut markers = Markers::default();
        markers.reset(cap, 0);
        ReuseTracker {
            markers,
            last: FxHashMap::default(),
            next_slot: 0,
            cap,
            initial_cap: cap,
            events: 0,
            dist_sum: 0,
            firsts: Vec::new(),
        }
    }

    /// Return to the fresh state — the initial slot window too, so a
    /// tracker that once replayed a large function does not clear that
    /// function's window for every small one after it — while keeping
    /// every allocation (markers, marker map), so one tracker can serve
    /// many replay rounds without churning the allocator.
    pub fn reset(&mut self) {
        self.cap = self.initial_cap;
        self.markers.reset(self.cap, 0);
        self.last.clear();
        self.next_slot = 0;
        self.events = 0;
        self.dist_sum = 0;
        self.firsts.clear();
    }

    /// Seed a fresh (or just-reset) tracker with blocks known to be
    /// pairwise distinct, in first-touch order, and grow its slot window
    /// so that `more` feeds after them run without compaction.
    /// Equivalent to feeding each block once, but the window is sized
    /// and its markers are written in one pass over its words instead
    /// of n point updates. The partial-merge replay uses this for its
    /// LRU prefix, which is distinct by construction. Capacity never
    /// changes results (compaction preserves every distance); the room
    /// only avoids the work.
    pub fn preload_distinct(&mut self, blocks: &[u64], more: usize) {
        debug_assert_eq!(self.next_slot, 0, "preload requires a fresh tracker");
        debug_assert_eq!(self.events, 0, "preload requires a fresh tracker");
        let n = blocks.len();
        while self.cap < n + more {
            self.cap *= 2;
        }
        self.markers.reset(self.cap, n);
        self.last.reserve(n);
        for (i, &b) in blocks.iter().enumerate() {
            self.last.insert(b, i);
        }
        self.firsts.extend_from_slice(blocks);
        self.next_slot = n;
    }

    /// Observe the next block in the stream.
    pub fn feed(&mut self, block: u64) {
        if self.next_slot == self.cap {
            self.compact();
        }
        let pos = self.next_slot;
        self.next_slot += 1;
        match self.last.entry(block) {
            Entry::Occupied(mut e) => {
                let prev = e.insert(pos);
                // Distinct blocks touched strictly between the previous
                // access to this block and now — same definition as
                // `analyze_window`, queried before the marker moves.
                let distance = if pos > prev + 1 {
                    self.markers.between(prev, pos)
                } else {
                    0
                };
                self.events += 1;
                self.dist_sum += distance;
                self.markers.shift(prev, pos);
            }
            Entry::Vacant(e) => {
                e.insert(pos);
                self.firsts.push(block);
                self.markers.set(pos);
            }
        }
    }

    /// Remap live markers onto consecutive slots, preserving order: a
    /// marker's new slot is its rank among the live markers. The
    /// markers are then rewritten in one pass as "slots 0..live".
    fn compact(&mut self) {
        let live = self.last.len();
        for slot in self.last.values_mut() {
            *slot = self.markers.rank(*slot) as usize - 1;
        }
        if live * 2 > self.cap {
            self.cap *= 2;
        }
        self.markers.reset(self.cap, live);
        self.next_slot = live;
    }

    /// Reuse events observed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Integer sum of all event distances so far.
    pub fn distance_sum(&self) -> u64 {
        self.dist_sum
    }

    /// Distinct blocks in the order they were first fed.
    pub fn first_touch_order(&self) -> &[u64] {
        &self.firsts
    }

    /// Distinct blocks in last-access order (least recently fed
    /// first). Compaction preserves relative slot order, so sorting the
    /// live markers by slot recovers the true last-access order even
    /// across any number of compactions.
    pub fn lru_order(&self) -> Vec<u64> {
        let mut live: Vec<(u64, usize)> = self.last.iter().map(|(&b, &s)| (b, s)).collect();
        live.sort_unstable_by_key(|&(_, slot)| slot);
        live.into_iter().map(|(b, _)| b).collect()
    }

    /// Mean reuse distance so far (0 when no reuse occurred), identical
    /// to `ReuseAnalysis::mean_distance` over the same stream.
    pub fn mean_distance(&self) -> f64 {
        kernel::mean_distance(self.dist_sum, self.events)
    }
}

/// Per-function accumulators: what the function table needs of a
/// code window (§IV-B), without the window.
struct FuncState {
    id: u32,
    name: String,
    /// Footprint block → `stamp << 2 | class mask`: the classes whose
    /// loads touched the block, and the 1-based global number of the
    /// last sample that did.
    blocks: FxHashMap<u64, u64>,
    observed: u64,
    implied_const: u64,
    tracker: ReuseTracker,
    /// Per-sample footprint observations, in sample order.
    obs: Vec<f64>,
    /// Distinct footprint blocks of the sample being ingested.
    cur: u64,
}

impl FuncState {
    fn new(id: u32, name: &str) -> FuncState {
        FuncState {
            id,
            name: name.to_string(),
            blocks: FxHashMap::default(),
            observed: 0,
            implied_const: 0,
            tracker: ReuseTracker::new(),
            obs: Vec::new(),
            cur: 0,
        }
    }
}

/// The fold: feed shards in trace order via
/// [`ingest_shard`](Self::ingest_shard), then [`finish`](Self::finish)
/// into a [`StreamingReport`].
pub struct StreamingAnalyzer<'a> {
    cfg: AnalysisConfig,
    locality_sizes: Vec<u64>,
    num_samples: u64,
    observed: u64,
    implied_const: u64,
    per_sample_diags: Vec<FootprintDiagnostics>,
    per_sample_reuse: Vec<SampleReuseSummary>,
    block_reuse: BlockReuse,
    histogram: Log2Histogram,
    /// Per locality size, one `(windows, Σd, Σg, Σf)` row *per sample*,
    /// retained (not pre-summed) so partial merges concatenate rows and
    /// the final fold runs once, in global sample order — `f64` sums of
    /// per-shard subtotals would not be associative.
    locality: Vec<Vec<(u64, f64, f64, f64)>>,
    /// Per-function accumulators, indexed by the resolver's slots
    /// (first-seen order). `into_partial` re-keys by function id into a
    /// `BTreeMap`, so this order never reaches the report.
    funcs: Vec<FuncState>,
    stats: IngestStats,
    /// Shard-level [`BlockReuse`] summaries not yet folded into
    /// `block_reuse`. Folding is deferred geometrically (see
    /// [`fold_pending_block_reuse`](Self::fold_pending_block_reuse)) so
    /// the O(n log n) index rebuild runs O(log shards) times instead of
    /// once per shard; `BlockReuse::from_parts` equals any pairwise
    /// merge order, so the report stays bit-identical.
    pending_block_reuse: Vec<BlockReuse>,
    /// Total entries across `pending_block_reuse`, driving the fold
    /// threshold.
    pending_blocks: usize,
    /// Per-ip memo of `(function slot, class bit, implied constants)`.
    resolver: IpResolver<'a>,
    /// The current shard's accesses, resolved: one entry per access in
    /// shard order, the buffer reused from shard to shard. (The block
    /// columns are the accesses' own `addr`, shifted where it is read.)
    resolved: Vec<IpInfo>,
    /// The current shard's per-block reuse rows, sample after sample;
    /// reused likewise.
    shard_rows: Vec<Row>,
}

impl<'a> StreamingAnalyzer<'a> {
    /// A streaming analyzer over the given annotations and symbols.
    pub fn new(
        annots: &'a AuxAnnotations,
        symbols: &'a SymbolTable,
        cfg: AnalysisConfig,
    ) -> StreamingAnalyzer<'a> {
        StreamingAnalyzer {
            cfg,
            locality_sizes: Vec::new(),
            num_samples: 0,
            observed: 0,
            implied_const: 0,
            per_sample_diags: Vec::new(),
            per_sample_reuse: Vec::new(),
            block_reuse: BlockReuse::default(),
            histogram: Log2Histogram::new(),
            locality: Vec::new(),
            funcs: Vec::new(),
            stats: IngestStats::default(),
            pending_block_reuse: Vec::new(),
            pending_blocks: 0,
            resolver: IpResolver::new(symbols, annots),
            resolved: Vec::new(),
            shard_rows: Vec::new(),
        }
    }

    /// Also accumulate the locality-vs-interval series for these sizes
    /// (must be set before the first shard).
    pub fn with_locality_sizes(mut self, sizes: &[u64]) -> StreamingAnalyzer<'a> {
        assert_eq!(self.stats.shards, 0, "set locality sizes before ingesting");
        self.locality_sizes = sizes.to_vec();
        self.locality = vec![Vec::new(); sizes.len()];
        self
    }

    /// Ingest the next shard of samples, which must continue the trace's
    /// global time order. Every access is resolved once into columns;
    /// then each sample's kernel passes and its function pass fold into
    /// the accumulators, in sample order.
    pub fn ingest_shard(&mut self, samples: &[Sample]) {
        let mut span = memgaze_obs::span("streaming.ingest_shard");
        if span.is_active() {
            span.set_label(format!(
                "shard {} ({} samples)",
                self.stats.shards,
                samples.len()
            ));
        }
        let resolved = self.resolve(samples);
        let shard_bytes = resolved.len() * std::mem::size_of::<memgaze_model::Access>();
        let mut rows = std::mem::take(&mut self.shard_rows);
        rows.clear();
        // Each sample with its slice of the resolved column.
        let mut rest = &resolved[..];
        for s in samples {
            let (infos, after) = rest.split_at(s.accesses.len());
            rest = after;
            self.fold_sample_passes(s, infos, &mut rows);
            self.fold_sample_functions(s, infos);
        }
        self.resolved = resolved;
        // One shard-level BlockReuse merge event, built from the
        // samples' concatenated rows in one sort: that equals folding
        // per-sample merges, and merging shard summaries equals
        // `from_parts` over everything (integer absorption is
        // associative). The shard summary is queued, never queried —
        // so no index — and folded geometrically in
        // `fold_pending_block_reuse`.
        if !samples.is_empty() {
            let shard_summary = BlockReuse::from_rows_unindexed(&mut rows);
            self.pending_blocks += shard_summary.len();
            self.pending_block_reuse.push(shard_summary);
            if self.pending_blocks > 4096.max(2 * self.block_reuse.len()) {
                self.fold_pending_block_reuse();
            }
            self.stats.merge_events += 1;
            memgaze_obs::counter!("streaming.merges").add(1);
        }
        self.shard_rows = rows;
        self.stats.shards += 1;
        self.stats.samples += samples.len() as u64;
        self.stats.peak_shard_samples = self.stats.peak_shard_samples.max(samples.len());
        self.stats.peak_shard_bytes = self.stats.peak_shard_bytes.max(shard_bytes);
        memgaze_obs::counter!("streaming.shards").add(1);
        memgaze_obs::counter!("streaming.samples").add(samples.len() as u64);
        memgaze_obs::gauge!("streaming.peak_shard_bytes").set_max(shard_bytes as u64);
    }

    /// Resolve every access of the shard, once, into the (reused)
    /// column buffer, creating the accumulator of each function on its
    /// first access.
    fn resolve(&mut self, samples: &[Sample]) -> Vec<IpInfo> {
        let mut resolved = std::mem::take(&mut self.resolved);
        resolved.clear();
        for a in samples.iter().flat_map(|s| &s.accesses) {
            let info = self.resolver.resolve(a.ip);
            if info.slot as usize == self.funcs.len() {
                let (id, name) = self.resolver.function(info.slot);
                self.funcs.push(FuncState::new(id, name));
            }
            resolved.push(info);
        }
        resolved
    }

    /// Fold every queued shard summary into the global `block_reuse` in
    /// one `from_parts` pass (one index rebuild). Grouping is free to
    /// vary: `from_parts` over any partition equals pairwise merges in
    /// any order, so deferring changes nothing in the final report.
    fn fold_pending_block_reuse(&mut self) {
        if self.pending_block_reuse.is_empty() {
            return;
        }
        let _span = memgaze_obs::span("streaming.fold_block_reuse");
        let mut parts = Vec::with_capacity(self.pending_block_reuse.len() + 1);
        if !self.block_reuse.is_empty() {
            parts.push(std::mem::take(&mut self.block_reuse));
        }
        parts.append(&mut self.pending_block_reuse);
        // Intermediate state: only ever re-merged by the next fold or
        // the final one in `into_partial`, so the query index waits.
        self.block_reuse = BlockReuse::from_parts_unindexed(parts);
        self.pending_blocks = 0;
    }

    /// The kernel passes over one sample and its resolved column, folded
    /// into the accumulators: reuse (histogram, summary, one locality
    /// row per size, and the per-block rows, appended to `rows`, all
    /// read before the class pass starts its own window), then the
    /// diagnostics.
    fn fold_sample_passes(&mut self, s: &Sample, infos: &[IpInfo], rows: &mut Vec<Row>) {
        let (rb, fb) = (self.cfg.reuse_block, self.cfg.footprint_block);
        let accesses = &s.accesses[..];
        kernel::with_workspace(|ws| {
            let reuses = ws.reuse_pass(
                (accesses.iter().zip(infos)).map(|(a, i)| (a.addr.block(rb), u64::from(i.implied))),
            );
            let (events, mut dist_sum) = (reuses.len() as u64, 0u64);
            for &[_, _, d] in reuses {
                self.histogram.insert(u64::from(d));
                dist_sum += u64::from(d);
            }
            self.per_sample_reuse.push(SampleReuseSummary {
                events: events as usize,
                mean_d: kernel::mean_distance(dist_sum, events),
            });
            rows.extend_from_slice(ws.rows());
            for (series, &size) in self.locality.iter_mut().zip(&self.locality_sizes) {
                series.push(ws.locality_split(size.max(1) as usize));
            }
            let counts = ws.class_pass(
                (accesses.iter().zip(infos))
                    .map(|(a, i)| (a.addr.block(fb), i.class, u64::from(i.implied))),
            );
            let diag = FootprintDiagnostics::from_counts(accesses.len() as u64, counts);
            self.num_samples += 1;
            self.observed += diag.observed;
            self.implied_const += diag.implied_const;
            self.per_sample_diags.push(diag);
        });
    }

    /// Sequential per-access function pass over one sample and its
    /// resolved column: the code-window grouping (§IV-B) and the
    /// per-function analyses over it, fused. One map probe per
    /// access records the block, its class and whether this sample has
    /// counted it; one more feeds the reuse tracker.
    fn fold_sample_functions(&mut self, s: &Sample, infos: &[IpInfo]) {
        let fb = self.cfg.footprint_block;
        let rb = self.cfg.reuse_block;
        // `num_samples` already counts this sample, so stamps are ≥ 1
        // and 62 bits of them outlast any trace.
        let stamp = self.num_samples;
        for (a, info) in s.accesses.iter().zip(infos) {
            let st = &mut self.funcs[info.slot as usize];
            let class = u64::from(info.class);
            match st.blocks.entry(a.addr.block(fb)) {
                Entry::Occupied(mut e) => {
                    let v = e.get_mut();
                    if *v >> 2 != stamp {
                        st.cur += 1;
                    }
                    // Two ips of different classes can hit the same
                    // block; each class must still record it.
                    *v = stamp << 2 | (*v & 3) | class;
                }
                Entry::Vacant(e) => {
                    e.insert(stamp << 2 | class);
                    st.cur += 1;
                }
            }
            st.implied_const += u64::from(info.implied);
            st.observed += 1;
            st.tracker.feed(a.addr.block(rb));
        }
        // A non-zero `cur` marks exactly the functions this sample
        // touched.
        for st in self.funcs.iter_mut() {
            if st.cur != 0 {
                st.obs.push(st.cur as f64);
                st.cur = 0;
            }
        }
    }

    /// Ingest accounting so far.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Snapshot everything accumulated so far into a mergeable
    /// [`PartialReport`](crate::partial::PartialReport): what the
    /// store's result cache keeps per frame.
    pub fn into_partial(mut self) -> crate::partial::PartialReport {
        let _span = memgaze_obs::span("streaming.into_partial");
        // Final fold, always through the *indexed* `from_parts`: every
        // earlier fold skipped the query index, so the last one must
        // (re)build it even when nothing is pending.
        {
            let mut parts = Vec::with_capacity(self.pending_block_reuse.len() + 1);
            if !self.block_reuse.is_empty() {
                parts.push(std::mem::take(&mut self.block_reuse));
            }
            parts.append(&mut self.pending_block_reuse);
            self.block_reuse = BlockReuse::from_parts(parts);
            self.pending_blocks = 0;
        }
        let funcs = self
            .funcs
            .into_iter()
            .map(|st| {
                // Bucket the footprint by class mask and sort each
                // bucket — word-sized keys, and for a function of one
                // class, one bucket. The buckets are disjoint, so each
                // list is the merge of the buckets whose mask has its
                // bit.
                let mut by_mask: [Vec<u64>; 4] = Default::default();
                for (block, v) in st.blocks {
                    by_mask[(v & 3) as usize].push(block);
                }
                for bucket in &mut by_mask {
                    bucket.sort_unstable();
                }
                let merged = |wanted: fn(u8) -> bool| {
                    let mut out = Vec::new();
                    for (mask, bucket) in by_mask.iter().enumerate() {
                        if wanted(mask as u8) {
                            crate::partial::union_sorted(&mut out, bucket);
                        }
                    }
                    out
                };
                (
                    st.id,
                    crate::partial::FuncPartial {
                        name: st.name,
                        all: merged(|_| true),
                        strided: merged(|mask| mask & kernel::STRIDED != 0),
                        irregular: merged(|mask| mask & kernel::IRREGULAR != 0),
                        observed: st.observed,
                        implied_const: st.implied_const,
                        reuse: crate::partial::ReusePartial::from_tracker(&st.tracker),
                        obs: st.obs,
                    },
                )
            })
            .collect();
        crate::partial::PartialReport {
            footprint_block: self.cfg.footprint_block,
            reuse_block: self.cfg.reuse_block,
            locality_sizes: self.locality_sizes,
            num_samples: self.num_samples,
            observed: self.observed,
            implied_const: self.implied_const,
            per_sample_diags: self.per_sample_diags,
            per_sample_reuse: self.per_sample_reuse,
            locality: self.locality,
            block_reuse: self.block_reuse,
            histogram: self.histogram,
            funcs,
            stats: self.stats,
        }
    }

    /// Fold the accumulated partials into the final report. `meta` is
    /// the trace metadata; its `total_loads` (the container trailer's)
    /// is the loads ρ scales by.
    ///
    /// Implemented as `into_partial().finish(meta)` so this path and
    /// the partial-merge path share one fold, keeping their reports
    /// bit-identical by construction.
    pub fn finish(self, meta: &TraceMeta) -> StreamingReport {
        self.into_partial().finish(meta)
    }
}

/// The report of a pass: what [`Analyzer`](crate::Analyzer)'s
/// `decompression`, `function_table`, `block_reuse`, `interval_rows`
/// and `region_row_for` read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingReport {
    /// ρ/κ decompression facts.
    pub decompression: DecompressionInfo,
    /// Function table, hottest first.
    pub function_rows: Vec<FunctionRow>,
    /// Trace-wide block reuse summary.
    pub block_reuse: BlockReuse,
    /// Reuse-distance histogram over samples (==
    /// `reuse_histogram_from(Analyzer::sample_reuse())`).
    pub reuse_histogram: Log2Histogram,
    /// Locality-vs-interval series (== `Analyzer::locality_series`) for
    /// the configured sizes.
    pub locality_series: Vec<LocalityPoint>,
    /// Ingest accounting (shards, merges, peak shard memory).
    pub ingest: IngestStats,
    pub(crate) footprint_block: BlockSize,
    pub(crate) reuse_block: BlockSize,
    pub(crate) per_sample_diags: Vec<FootprintDiagnostics>,
    pub(crate) per_sample_reuse: Vec<SampleReuseSummary>,
}

impl StreamingReport {
    /// Locality over time: split the samples into `n` equal time
    /// intervals and report per-interval metrics (Table VIII), folded
    /// from the retained per-sample summaries in sample order.
    pub fn interval_rows(&self, n: usize) -> Vec<IntervalRow> {
        if self.per_sample_diags.is_empty() || n == 0 {
            return Vec::new();
        }
        let rho = self.decompression.rho();
        let fb = self.footprint_block;
        let per_interval = self.per_sample_diags.len().div_ceil(n);
        self.per_sample_diags
            .chunks(per_interval)
            .zip(self.per_sample_reuse.chunks(per_interval))
            .enumerate()
            .map(|(i, (dgroup, rgroup))| {
                let mut diag: Option<FootprintDiagnostics> = None;
                for d in dgroup {
                    match &mut diag {
                        Some(m) => m.merge(d),
                        None => diag = Some(*d),
                    }
                }
                let mut d_sum = 0.0;
                let mut d_n = 0u64;
                for r in rgroup {
                    if r.events > 0 {
                        d_sum += r.mean_d * r.events as f64;
                        d_n += r.events as u64;
                    }
                }
                let diag = diag.unwrap_or_default();
                IntervalRow {
                    interval: i,
                    f_hat_bytes: rho * diag.footprint as f64 * fb.bytes() as f64,
                    delta_f: diag.delta_f(),
                    mean_d: if d_n == 0 { 0.0 } else { d_sum / d_n as f64 },
                    accesses_decompressed: diag.kappa * diag.observed as f64,
                }
            })
            .collect()
    }

    /// Reuse row for one explicit address range `[lo, hi)` (when the
    /// caller knows the object, e.g. Table V's named objects). No code
    /// attribution: that needs the resident access stream.
    pub fn region_row_for(&self, lo: u64, hi: u64) -> RegionRow {
        let (lo_b, hi_b) = self.reuse_block.block_range(lo, hi);
        let accesses = self.block_reuse.region_accesses(lo_b, hi_b);
        let total = self.decompression.observed;
        RegionRow {
            range: (lo, hi),
            reuse_d: self.block_reuse.region_mean_distance(lo_b, hi_b),
            max_d: self.block_reuse.region_max_distance(lo_b, hi_b),
            blocks: self.block_reuse.region_blocks(lo_b, hi_b),
            accesses,
            pct_of_total: if total == 0 {
                0.0
            } else {
                100.0 * accesses as f64 / total as f64
            },
            code: Vec::new(),
        }
    }
}

/// Stream a resident trace through a [`StreamingAnalyzer`] in
/// `shard_samples`-sized shards — what [`Analyzer`](crate::Analyzer)
/// does with its trace; streaming callers feed a
/// [`ShardReader`](memgaze_model::ShardReader) instead.
pub fn stream_resident_trace<'a>(
    trace: &SampledTrace,
    annots: &'a AuxAnnotations,
    symbols: &'a SymbolTable,
    cfg: AnalysisConfig,
    locality_sizes: &[u64],
    shard_samples: usize,
) -> StreamingReport {
    let mut sa = StreamingAnalyzer::new(annots, symbols, cfg).with_locality_sizes(locality_sizes);
    for shard in trace.samples.chunks(shard_samples.max(1)) {
        sa.ingest_shard(shard);
    }
    sa.finish(&trace.meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::{Access, FunctionId, Ip, IpAnnot, LoadClass};

    fn synthetic_setup() -> (SampledTrace, AuxAnnotations, SymbolTable) {
        let mut t = SampledTrace::new(TraceMeta::new("stream-test", 10_000, 16 << 10));
        t.meta.total_loads = 16 * 10_000;
        t.meta.total_instrumented_loads = 16 * 100;
        for s in 0..16u64 {
            let base = s * 10_000;
            let mut accesses = Vec::new();
            for i in 0..100u64 {
                // Two code regions: a streaming function and a cyclic one.
                let (ip, addr) = if i % 4 == 0 {
                    (0x500 + (i % 3) * 4, 0x20_0000 + (i % 16) * 64)
                } else {
                    (0x400 + (i % 5) * 4, 0x10_0000 + (s * 100 + i) * 8)
                };
                accesses.push(Access::new(ip, addr, base + i));
            }
            t.push_sample(Sample::new(accesses, base + 100)).unwrap();
        }
        let mut annots = AuxAnnotations::new();
        for k in 0..5u64 {
            let mut an = IpAnnot::of_class(LoadClass::Strided, FunctionId(0));
            an.implied_const = 3;
            annots.insert(Ip(0x400 + k * 4), an);
        }
        annots.insert(
            Ip(0x500),
            IpAnnot::of_class(LoadClass::Irregular, FunctionId(1)),
        );
        let mut constant = IpAnnot::of_class(LoadClass::Constant, FunctionId(1));
        constant.implied_const = 1;
        annots.insert(Ip(0x504), constant);
        let mut symbols = SymbolTable::new();
        symbols.add_function("stream_fn", Ip(0x400), Ip(0x500), "a.c");
        symbols.add_function("cycle_fn", Ip(0x500), Ip(0x600), "a.c");
        (t, annots, symbols)
    }

    #[test]
    fn tracker_matches_windowed_analysis() {
        // A stream with heavy reuse and a tiny slot capacity, forcing
        // many compactions; 63 to 129 land them in the middle of a
        // marker word.
        let accesses: Vec<Access> = (0..600u64)
            .map(|i| Access::new(0x400u64, ((i * 7 + i / 13) % 41) * 64, i))
            .collect();
        let bs = BlockSize::CACHE_LINE;
        let r = crate::reuse::analyze_window(&accesses, bs);
        for cap in [2usize, 8, 63, 64, 65, 129, 4096] {
            let mut tr = ReuseTracker::with_slot_capacity(cap);
            for a in &accesses {
                tr.feed(a.addr.block(bs));
            }
            assert_eq!(tr.events(), r.events.len() as u64, "cap {cap}");
            assert_eq!(tr.mean_distance(), r.mean_distance(), "cap {cap}");
        }
    }

    #[test]
    fn reset_returns_a_replay_tracker_to_its_initial_window() {
        use crate::partial::ReusePartial;
        let partial = |blocks: std::ops::Range<u64>| {
            let mut t = ReuseTracker::new();
            blocks.for_each(|b| t.feed(b));
            ReusePartial::from_tracker(&t)
        };
        // One function of 100 000 blocks through the replay tracker a
        // `PartialReport::merge` shares among its functions…
        let mut replay = ReuseTracker::new();
        let mut large = partial(0..100_000);
        large
            .absorb_with(&partial(50_000..150_000), &mut replay)
            .unwrap();
        assert!(replay.cap >= 200_000);
        // …then 200 of ten blocks: each runs on the window a fresh
        // tracker has, and merges as it would on a fresh tracker.
        for f in 0..200u64 {
            let (mut shared, mut fresh) = (partial(f..f + 10), partial(f..f + 10));
            let next = partial(f + 5..f + 15);
            shared.absorb_with(&next, &mut replay).unwrap();
            assert_eq!(replay.cap, 1024, "function {f}");
            fresh.absorb(&next);
            assert_eq!(shared, fresh, "function {f}");
        }
    }

    #[test]
    fn ingest_stats_track_shards_and_peaks() {
        let (t, annots, symbols) = synthetic_setup();
        let report =
            stream_resident_trace(&t, &annots, &symbols, AnalysisConfig::default(), &[], 5);
        assert_eq!(report.ingest.shards, 4); // 16 samples / 5 per shard
        assert_eq!(report.ingest.samples, 16);
        assert_eq!(report.ingest.merge_events, 4);
        assert_eq!(report.ingest.peak_shard_samples, 5);
        assert_eq!(
            report.ingest.peak_shard_bytes,
            5 * 100 * std::mem::size_of::<Access>()
        );
    }
}
