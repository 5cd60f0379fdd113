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
//!   [`BlockReuse::from_row_parts`], and both only sum and max integers;
//! * per-function exact reuse distances cross sample and shard
//!   boundaries via [`ReuseTracker`], fed one *window* per function per
//!   sample — the function's accesses in that sample, summarized by a
//!   reuse pass over them (the sample's own when the sample is one
//!   function's) — whose event count and integer distance sum are those
//!   of the quadratic definition over the function's concatenated code
//!   window.
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
use crate::kernel::{self, ClassCounts, IpInfo, IpResolver, LineSplit, Markers, Workspace};
use crate::kernel::{IRREGULAR, STRIDED};
use crate::reuse::{BlockReuse, BlockTable, ReuseAnalysis, ReuseEvent};
use memgaze_model::{
    Access, AuxAnnotations, BlockSize, DecompressionInfo, Sample, SampledTrace, SymbolTable,
    TraceMeta,
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
    /// Partial-artifact merge events: one per non-empty shard.
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
    pub(crate) fn merge(&mut self, other: &IngestStats) {
        self.shards += other.shards;
        self.samples += other.samples;
        self.merge_events += other.merge_events;
        self.peak_shard_samples = self.peak_shard_samples.max(other.peak_shard_samples);
        self.peak_shard_bytes = self.peak_shard_bytes.max(other.peak_shard_bytes);
    }
}

/// Per-sample reuse summary retained for interval rows and windows:
/// enough for their `Σ mean·count / Σ count` fold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleReuseSummary {
    pub(crate) events: usize,
    pub(crate) mean_d: f64,
}

/// Incremental exact reuse-distance tracker over an unbounded block
/// stream, O(distinct blocks) memory.
///
/// The stream arrives a window at a time
/// ([`feed_window`](Self::feed_window)): a window is summarized by its
/// distinct blocks in first-touch order with the position of each one's
/// last access, and by the count and distance sum of the reuses inside
/// it — what [`Workspace::reuse_pass`](crate::kernel::Workspace::reuse_pass)
/// leaves behind. Feeding a function's windows in order produces the
/// same event count and the same integer distance sum as
/// [`reuse::analyze_window`](crate::reuse::analyze_window) over their
/// concatenation, so the mean distance is bit-identical — including
/// across window and shard boundaries, which a windowed analysis cannot
/// see. The unit tests hold it to the definition fed one access at a
/// time.
///
/// Each distinct block has a dense id (its index in first-touch order)
/// and one marker in a [`Markers`] set, at the slot of its last access;
/// a window takes the next `len` slots. Only a window's *first* touch of
/// an earlier block crosses windows, so the tracker does one id probe,
/// one rank, one `clear` and one `set` per distinct block of a window.
/// When the slots fill up, each block's marker moves to its rank among
/// the live markers — one sweep over the marker words counts them —
/// which leaves every between-marker count, and hence every distance,
/// unchanged.
///
/// Beyond the running sums, the tracker records its blocks in
/// first-touch order ([`first_touch_order`](Self::first_touch_order))
/// and can report them in last-access order
/// ([`lru_order`](Self::lru_order)); together these summarize the
/// stream well enough that two trackers over adjacent stream segments
/// merge *exactly* — see
/// [`ReusePartial`](crate::partial::ReusePartial).
pub(crate) struct ReuseTracker {
    markers: Markers,
    /// Block → id.
    ids: FxHashMap<u64, u32>,
    /// Per id, in first-touch order: the block and the slot of its
    /// marker.
    firsts: Vec<(u64, u32)>,
    next_slot: usize,
    cap: usize,
    /// The slot window a fresh tracker starts from.
    initial_cap: usize,
    events: u64,
    dist_sum: u64,
}

impl Default for ReuseTracker {
    fn default() -> Self {
        ReuseTracker::new()
    }
}

impl ReuseTracker {
    /// A tracker with the default slot capacity.
    pub(crate) fn new() -> ReuseTracker {
        ReuseTracker::with_slot_capacity(1024)
    }

    /// A tracker that compacts after `cap` slots — exposed so tests can
    /// force frequent compactions.
    pub(crate) fn with_slot_capacity(cap: usize) -> ReuseTracker {
        let cap = cap.max(2);
        let mut markers = Markers::default();
        markers.reset(cap, 0);
        ReuseTracker {
            markers,
            ids: FxHashMap::default(),
            firsts: Vec::new(),
            next_slot: 0,
            cap,
            initial_cap: cap,
            events: 0,
            dist_sum: 0,
        }
    }

    /// Return to the fresh state — the initial slot window too, so a
    /// tracker that once replayed a large function does not clear that
    /// function's window for every small one after it — while keeping
    /// every allocation (markers, id map, first-touch list), so one
    /// tracker can serve many replay rounds without churning the
    /// allocator.
    pub(crate) fn reset(&mut self) {
        self.cap = self.initial_cap;
        self.markers.reset(self.cap, 0);
        self.ids.clear();
        self.firsts.clear();
        self.next_slot = 0;
        self.events = 0;
        self.dist_sum = 0;
    }

    /// Seed a fresh (or just-reset) tracker with blocks known to be
    /// pairwise distinct, in first-touch order, and grow its slot window
    /// so that windows of `more` accesses after them run without
    /// compaction. Equivalent to feeding each block once, but the window
    /// is sized and its markers are written in one pass over its words.
    /// The partial-merge replay uses this for its LRU prefix, which is
    /// distinct by construction. Capacity never changes results
    /// (compaction preserves every distance); the room only avoids the
    /// work.
    pub(crate) fn preload_distinct(&mut self, blocks: &[u64], more: usize) {
        debug_assert_eq!(self.next_slot, 0, "preload requires a fresh tracker");
        debug_assert_eq!(self.events, 0, "preload requires a fresh tracker");
        let n = blocks.len();
        let ids = 0..u32::try_from(n).expect("tracker ids fit u32");
        while self.cap < n + more {
            self.cap *= 2;
        }
        self.markers.reset(self.cap, n);
        self.ids.reserve(n);
        self.ids.extend(blocks.iter().copied().zip(ids.clone()));
        self.firsts.extend(blocks.iter().copied().zip(ids));
        self.next_slot = n;
    }

    /// Observe the next window of `len` accesses, given as its distinct
    /// blocks in first-touch order, each with the window position of its
    /// last access, and the `events` reuses inside the window with their
    /// distance sum.
    ///
    /// A reuse inside the window sees only window blocks, so the window
    /// has counted it. What is left is each earlier block's first touch
    /// here: the distinct blocks since its previous access are the
    /// earlier blocks whose markers still sit after it — the window's
    /// own earlier blocks have moved theirs into the window already —
    /// and the blocks this window first-touched before it.
    pub(crate) fn feed_window(
        &mut self,
        len: usize,
        distinct: impl IntoIterator<Item = (u64, u32)>,
        events: u64,
        dist_sum: u64,
    ) {
        if self.next_slot + len > self.cap {
            self.compact(len);
        }
        let base = u32::try_from(self.next_slot).expect("tracker slots fit u32");
        let end = u32::try_from(self.next_slot + len).expect("tracker slots fit u32");
        // Markers of earlier windows not yet moved into this one: they
        // all sit below `base`.
        let mut older = self.firsts.len() as u64;
        for (touched, (block, last)) in (0u64..).zip(distinct) {
            let slot = base + last;
            match self.ids.entry(block) {
                Entry::Occupied(e) => {
                    let first = &mut self.firsts[*e.get() as usize];
                    let prev = first.1 as usize;
                    first.1 = slot;
                    let distance = older - self.markers.rank(prev) + touched;
                    self.events += 1;
                    self.dist_sum += distance;
                    self.markers.clear(prev);
                    older -= 1;
                }
                Entry::Vacant(e) => {
                    e.insert(u32::try_from(self.firsts.len()).expect("tracker ids fit u32"));
                    self.firsts.push((block, slot));
                }
            }
            self.markers.set(slot as usize);
        }
        self.next_slot = end as usize;
        self.events += events;
        self.dist_sum += dist_sum;
    }

    /// Move the live markers onto slots `0..live`, preserving their
    /// order — a block's new slot is its marker's rank, read off one
    /// sweep over the marker words — then make room for a window of
    /// `room` accesses after them.
    fn compact(&mut self, room: usize) {
        let live = self.firsts.len();
        let ranks = std::mem::take(&mut self.markers).into_ranks();
        for first in &mut self.firsts {
            let rank = ranks.before(first.1 as usize);
            first.1 = u32::try_from(rank).expect("a rank is below the id count, which fits u32");
        }
        while self.cap < live + room || live * 2 > self.cap {
            self.cap *= 2;
        }
        self.markers = ranks.reset(self.cap, live);
        self.next_slot = live;
    }

    /// Reuse events observed so far.
    pub(crate) fn events(&self) -> u64 {
        self.events
    }

    /// Integer sum of all event distances so far.
    pub(crate) fn distance_sum(&self) -> u64 {
        self.dist_sum
    }

    /// Distinct blocks in the order they were first fed.
    pub(crate) fn first_touch_order(&self) -> Vec<u64> {
        self.firsts.iter().map(|&(block, _)| block).collect()
    }

    /// Distinct blocks in last-access order (least recently fed
    /// first): each block at its marker's rank, which compaction
    /// preserves.
    pub(crate) fn lru_order(&self) -> Vec<u64> {
        let ranks = self.markers.clone().into_ranks();
        let mut lru = vec![0; self.firsts.len()];
        for &(block, slot) in &self.firsts {
            lru[ranks.before(slot as usize) as usize] = block;
        }
        lru
    }
}

/// Per-function accumulators: what the function table needs of a
/// code window (§IV-B), without the window.
struct FuncState {
    id: u32,
    name: String,
    /// The footprint in chunks of 64 blocks: chunk key `block >> 6` →
    /// three bit columns over its blocks: touched, touched by a Strided
    /// load, touched by an Irregular one.
    chunks: FxHashMap<u64, [u64; 3]>,
    observed: u64,
    implied_const: u64,
    tracker: ReuseTracker,
    /// Per-sample footprint observations, in sample order.
    obs: Vec<f64>,
}

impl FuncState {
    fn new(id: u32, name: &str) -> FuncState {
        FuncState {
            id,
            name: name.to_string(),
            chunks: FxHashMap::default(),
            observed: 0,
            implied_const: 0,
            tracker: ReuseTracker::new(),
            obs: Vec::new(),
        }
    }

    /// Fold the footprint side of one window of `len` accesses: per
    /// distinct line of `2^k` footprint blocks (`k ≤ 6`) its three bit
    /// columns, and the window's counts. A line's blocks are
    /// `line << k ..`, inside one chunk, so each line is one upsert.
    fn add_footprint(
        &mut self,
        lines: impl Iterator<Item = (u64, [u64; 3])>,
        k: u32,
        counts: ClassCounts,
        len: usize,
    ) {
        for (line, bits) in lines {
            let first = line << k;
            let cols = self.chunks.entry(first >> 6).or_default();
            // Two ips of different classes can hit the same block, in
            // one window or in two; each class must still record it.
            for (col, b) in cols.iter_mut().zip(bits) {
                *col |= b << (first & 63);
            }
        }
        self.obs.push(counts.footprint as f64);
        self.observed += len as u64;
        self.implied_const += counts.implied_const;
    }

    /// The footprint as one block-sorted list of `(block, class mask)`
    /// entries: the chunks sorted by key, each one's blocks read off its
    /// set bits in order.
    fn footprint(&mut self) -> Vec<(u64, u8)> {
        let mut chunks: Vec<_> = std::mem::take(&mut self.chunks).into_iter().collect();
        chunks.sort_unstable_by_key(|c| c.0);
        let n = chunks.iter().map(|c| c.1[0].count_ones() as usize).sum();
        let mut entries = Vec::with_capacity(n);
        for (key, [mut touched, strided, irregular]) in chunks {
            while touched != 0 {
                let bit = touched.trailing_zeros();
                let has = |col: u64| u8::from(col >> bit & 1 == 1);
                let mask = has(strided) * STRIDED + has(irregular) * IRREGULAR;
                entries.push((key << 6 | u64::from(bit), mask));
                touched &= touched - 1;
            }
        }
        entries
    }
}

/// How the fold passes over a window: its block sizes, and whether the
/// footprint rides the reuse pass ([`LineSplit`]) or takes a distinct
/// pass of its own.
#[derive(Clone, Copy)]
struct Passes {
    reuse: BlockSize,
    footprint: BlockSize,
    lines: Option<LineSplit>,
}

impl Passes {
    fn new(cfg: &AnalysisConfig) -> Passes {
        Passes {
            reuse: cfg.reuse_block,
            footprint: cfg.footprint_block,
            lines: LineSplit::new(cfg.reuse_block, cfg.footprint_block),
        }
    }

    /// The window's reuse pass, keeping its lines' footprint bits when
    /// they fit.
    fn reuse_pass<'w, 'x>(
        self,
        ws: &'w mut Workspace,
        window: impl ExactSizeIterator<Item = (&'x Access, &'x IpInfo)>,
    ) -> &'w [ReuseEvent] {
        let rb = self.reuse;
        match self.lines {
            Some(split) => ws.masked_reuse_pass(window.map(|(a, i)| {
                let touch = split.touch(a.addr, i.class);
                (a.addr.block(rb), u64::from(i.implied), touch)
            })),
            None => ws.reuse_pass(window.map(|(a, i)| (a.addr.block(rb), u64::from(i.implied)))),
        }
    }

    /// The window's footprint counts, after its reuse pass: off the
    /// line bits, or a distinct pass over `window` at the footprint
    /// block.
    fn footprint_counts<'x>(
        self,
        ws: &mut Workspace,
        window: impl ExactSizeIterator<Item = (&'x Access, &'x IpInfo)>,
    ) -> ClassCounts {
        let fb = self.footprint;
        match self.lines {
            Some(_) => ws.line_counts(),
            None => ws.distinct_pass(
                window.map(|(a, i)| (a.addr.block(fb), i.class, u64::from(i.implied))),
            ),
        }
    }

    /// Fold the window's footprint, as the last two calls left it in
    /// `ws`, into its function: a distinct pass's blocks are lines of
    /// one block.
    fn add_footprint(self, st: &mut FuncState, ws: &Workspace, counts: ClassCounts, len: usize) {
        match self.lines {
            Some(split) => st.add_footprint(ws.lines(), split.k(), counts, len),
            None => {
                let blocks = ws.distinct().iter().map(|&(block, mask)| {
                    let has = |class: u8| u64::from(mask & class != 0);
                    (block, [1, has(STRIDED), has(IRREGULAR)])
                });
                st.add_footprint(blocks, 0, counts, len);
            }
        }
    }
}

/// Feed the window the workspace's last reuse pass ran over to a
/// tracker.
fn feed_reuse_pass(
    tracker: &mut ReuseTracker,
    ws: &Workspace,
    len: usize,
    events: u64,
    dist_sum: u64,
) {
    let distinct = ws.rows().iter().map(|r| (r.block, r.last));
    tracker.feed_window(len, distinct, events, dist_sum);
}

/// The fold: feed shards in trace order via
/// [`ingest_shard`](Self::ingest_shard), then [`finish`](Self::finish)
/// into a [`StreamingReport`].
pub struct StreamingAnalyzer<'a> {
    cfg: AnalysisConfig,
    passes: Passes,
    locality_sizes: Vec<u64>,
    num_samples: u64,
    observed: u64,
    implied_const: u64,
    per_sample_diags: Vec<FootprintDiagnostics>,
    per_sample_reuse: Vec<SampleReuseSummary>,
    histogram: Log2Histogram,
    /// Every sample's per-block reuse rows, absorbed as they come: one
    /// table for the whole pass, sorted once by `into_partial`.
    block_table: BlockTable,
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
    /// Per-ip memo of `(function slot, class bit, implied constants)`.
    resolver: IpResolver<'a>,
    /// The current shard's accesses, resolved: one entry per access in
    /// shard order, the buffer reused from shard to shard. (The block
    /// columns are the accesses' own `addr`, shifted where it is read.)
    resolved: Vec<IpInfo>,
    /// Each sample's reuse event list, as `reuse::analyze_window` gives
    /// it, read off the fold's own reuse pass — kept only for the
    /// resident [`Analyzer`](crate::Analyzer), whose heatmaps, histogram
    /// and locality series read them.
    sample_events: Option<Vec<ReuseAnalysis>>,
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
            passes: Passes::new(&cfg),
            locality_sizes: Vec::new(),
            num_samples: 0,
            observed: 0,
            implied_const: 0,
            per_sample_diags: Vec::new(),
            per_sample_reuse: Vec::new(),
            histogram: Log2Histogram::new(),
            block_table: BlockTable::default(),
            locality: Vec::new(),
            funcs: Vec::new(),
            stats: IngestStats::default(),
            resolver: IpResolver::new(symbols, annots),
            resolved: Vec::new(),
            sample_events: None,
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
    /// then each sample's kernel passes and its per-function windows fold
    /// into the accumulators, in sample order.
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
        let shard_bytes = resolved.len() * std::mem::size_of::<Access>();
        // Each sample with its slice of the resolved column.
        let mut rest = &resolved[..];
        for s in samples {
            let (infos, after) = rest.split_at(s.accesses.len());
            rest = after;
            self.fold_sample(s, infos);
        }
        self.resolved = resolved;
        if !samples.is_empty() {
            self.stats.merge_events += 1;
            memgaze_obs::counter!("streaming.merges").add(1);
        }
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

    /// The kernel pass over one sample and its resolved column, folded
    /// into the accumulators: reuse (histogram, summary, the kept event
    /// list, one locality row per size, and the per-block rows, absorbed
    /// into the block table) and the footprint counts (the diagnostics);
    /// and the sample's windows — one per function it touches (§IV-B) —
    /// into their functions. A sample of one function is that function's
    /// window, and its own pass is the window's.
    fn fold_sample(&mut self, s: &Sample, infos: &[IpInfo]) {
        let passes = self.passes;
        let accesses = &s.accesses[..];
        let one = (infos.first().map(|i| i.slot)).filter(|&f| infos.iter().all(|i| i.slot == f));
        kernel::with_workspace(|ws| {
            let reuses = passes.reuse_pass(ws, accesses.iter().zip(infos));
            let (events, mut dist_sum) = (reuses.len() as u64, 0u64);
            for r in reuses {
                self.histogram.insert(u64::from(r.distance));
                dist_sum += u64::from(r.distance);
            }
            self.per_sample_reuse.push(SampleReuseSummary {
                events: events as usize,
                mean_d: kernel::mean_distance(dist_sum, events),
            });
            if let Some(kept) = &mut self.sample_events {
                kept.push(ReuseAnalysis::of_pass(ws, accesses.len()));
            }
            self.block_table.absorb_rows(ws.rows());
            for (series, &size) in self.locality.iter_mut().zip(&self.locality_sizes) {
                series.push(ws.locality_split(size.max(1) as usize));
            }
            if let Some(f) = one {
                let tracker = &mut self.funcs[f as usize].tracker;
                feed_reuse_pass(tracker, ws, accesses.len(), events, dist_sum);
            }
            let counts = passes.footprint_counts(ws, accesses.iter().zip(infos));
            let diag = FootprintDiagnostics::from_counts(accesses.len() as u64, counts);
            self.num_samples += 1;
            self.observed += diag.observed;
            self.implied_const += diag.implied_const;
            self.per_sample_diags.push(diag);
            match one {
                Some(f) => {
                    passes.add_footprint(&mut self.funcs[f as usize], ws, counts, accesses.len())
                }
                None => self.fold_windows(ws, accesses, infos),
            }
        });
    }

    /// Cut a sample that touches several functions into one window per
    /// function — a counting sort by function slot into the workspace's
    /// split, access order kept within each — and fold each window's own
    /// pass into its function.
    fn fold_windows(&mut self, ws: &mut Workspace, accesses: &[Access], infos: &[IpInfo]) {
        let passes = self.passes;
        let mut split = std::mem::take(&mut ws.split);
        split.group(infos.iter().map(|i| i.slot));
        for (f, window) in split.stretches() {
            let st = &mut self.funcs[f as usize];
            let items = || {
                window
                    .iter()
                    .map(|&p| (&accesses[p as usize], &infos[p as usize]))
            };
            let reuses = passes.reuse_pass(ws, items());
            let events = reuses.len() as u64;
            let dist_sum = reuses.iter().map(|r| u64::from(r.distance)).sum();
            feed_reuse_pass(&mut st.tracker, ws, window.len(), events, dist_sum);
            let counts = passes.footprint_counts(ws, items());
            passes.add_footprint(st, ws, counts, window.len());
        }
        ws.split = split;
    }

    /// Ingest accounting so far.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// The per-sample rows of the samples ingested from the `from`-th
    /// on (none past the last), in ingest order: each sample's footprint
    /// diagnostics and reuse summary, what a partial carries. A sample's
    /// rows depend on that sample alone, so a window's rows read here
    /// are the rows of the window's own partial.
    pub fn sample_rows(&self, from: usize) -> (&[FootprintDiagnostics], &[SampleReuseSummary]) {
        let diags = self.per_sample_diags.get(from..).unwrap_or_default();
        (diags, self.per_sample_reuse.get(from..).unwrap_or_default())
    }

    /// Snapshot everything accumulated so far into a mergeable
    /// [`PartialReport`](crate::partial::PartialReport): what the
    /// store's result cache keeps per frame.
    pub fn into_partial(self) -> crate::partial::PartialReport {
        let _span = memgaze_obs::span("streaming.into_partial");
        let funcs = self
            .funcs
            .into_iter()
            .map(|mut st| {
                (
                    st.id,
                    crate::partial::FuncPartial {
                        footprint: st.footprint(),
                        name: st.name,
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
            // `finish` builds the query index; a partial that is only
            // merged or encoded never needs it.
            block_reuse: self.block_table.into_block_reuse(),
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
    let sa = StreamingAnalyzer::new(annots, symbols, cfg).with_locality_sizes(locality_sizes);
    fold_resident(sa, trace, shard_samples).0
}

/// [`stream_resident_trace`] with no locality sizes, also returning each
/// sample's reuse event list off the fold's own reuse pass: the
/// resident [`Analyzer`](crate::Analyzer)'s one pass over its trace.
pub(crate) fn stream_resident_trace_keeping_events(
    trace: &SampledTrace,
    annots: &AuxAnnotations,
    symbols: &SymbolTable,
    cfg: AnalysisConfig,
    shard_samples: usize,
) -> (StreamingReport, Vec<ReuseAnalysis>) {
    let mut sa = StreamingAnalyzer::new(annots, symbols, cfg);
    sa.sample_events = Some(Vec::with_capacity(trace.samples.len()));
    fold_resident(sa, trace, shard_samples)
}

/// Feed `trace` to `sa` in `shard_samples`-sized shards and finish it,
/// with the event lists it kept, if any.
fn fold_resident(
    mut sa: StreamingAnalyzer<'_>,
    trace: &SampledTrace,
    shard_samples: usize,
) -> (StreamingReport, Vec<ReuseAnalysis>) {
    for shard in trace.samples.chunks(shard_samples.max(1)) {
        sa.ingest_shard(shard);
    }
    let events = sa.sample_events.take().unwrap_or_default();
    (sa.finish(&trace.meta), events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_model::{Access, FunctionId, Ip, IpAnnot, LoadClass};

    /// The per-access definitions the windowed tracker is held to.
    impl ReuseTracker {
        /// Observe the next block in the stream: a window of one access.
        pub(crate) fn feed(&mut self, block: u64) {
            self.feed_window(1, [(block, 0)], 0, 0);
        }

        /// Mean reuse distance so far (0 when no reuse occurred), identical
        /// to `ReuseAnalysis::mean_distance` over the same stream.
        fn mean_distance(&self) -> f64 {
            kernel::mean_distance(self.dist_sum, self.events)
        }
    }

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
        // A stream with heavy reuse, fed per access and as windows cut
        // every 1, 7, 64, 65 and 600 accesses, at slot capacities that
        // force many compactions, inside what another cut feeds as one
        // window and between windows; 63 to 129 land them in the middle
        // of a marker word.
        let accesses: Vec<Access> = (0..600u64)
            .map(|i| Access::new(0x400u64, ((i * 7 + i / 13) % 41) * 64, i))
            .collect();
        let bs = BlockSize::CACHE_LINE;
        let blocks: Vec<u64> = accesses.iter().map(|a| a.addr.block(bs)).collect();
        // The definition: every reuse and its distance, the blocks in
        // first-touch order and in last-access order.
        let r = crate::reuse::analyze_window(&accesses, bs);
        let distance_sum: u64 = r.events.iter().map(|e| u64::from(e.distance)).sum();
        let distinct = |order: &mut dyn Iterator<Item = u64>| {
            let mut seen = std::collections::HashSet::new();
            order.filter(|&b| seen.insert(b)).collect::<Vec<u64>>()
        };
        let firsts = distinct(&mut blocks.iter().copied());
        let mut lru = distinct(&mut blocks.iter().rev().copied());
        lru.reverse();
        let want = (r.events.len() as u64, distance_sum, firsts, lru);
        for cap in [2usize, 8, 63, 64, 65, 129, 4096] {
            for cut in [None, Some(1), Some(7), Some(64), Some(65), Some(600)] {
                let mut tr = ReuseTracker::with_slot_capacity(cap);
                match cut {
                    None => blocks.iter().for_each(|&b| tr.feed(b)),
                    Some(cut) => {
                        for window in blocks.chunks(cut) {
                            kernel::with_workspace(|ws| {
                                let reuses = ws.reuse_pass(window.iter().map(|&b| (b, 0)));
                                let events = reuses.len() as u64;
                                let dist_sum = reuses.iter().map(|r| u64::from(r.distance)).sum();
                                feed_reuse_pass(&mut tr, ws, window.len(), events, dist_sum);
                            });
                        }
                    }
                }
                let got = (
                    tr.events(),
                    tr.distance_sum(),
                    tr.first_touch_order(),
                    tr.lru_order(),
                );
                assert_eq!(got, want, "cap {cap} cut {cut:?}");
                assert_eq!(
                    tr.mean_distance(),
                    r.mean_distance(),
                    "cap {cap} cut {cut:?}"
                );
            }
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
    fn block_table_equals_the_per_sample_summaries_merged() {
        // 700 samples of 40 accesses over 50 000 lines: reuse inside a
        // sample at short distances, on 35 lines that samples share, and
        // lines shared across samples without reuse inside one;
        // about 35 distinct lines a sample, so a 300-sample shard holds
        // more rows than the 4 096 an earlier fold let pile up.
        let (_, annots, symbols) = synthetic_setup();
        let mut t = SampledTrace::new(TraceMeta::new("block-table", 10_000, 16 << 10));
        t.meta.total_loads = 700 * 10_000;
        for s in 0..700u64 {
            let base = s * 10_000;
            let accesses = (0..40u64)
                .map(|i| {
                    let line = match i % 4 {
                        3 => s % 5 * 7 + i % 7,
                        _ => (s * 131 + i * 977) % 50_000,
                    };
                    Access::new(0x400 + (i % 2) * 0x100, line * 64, base + i)
                })
                .collect();
            t.push_sample(Sample::new(accesses, base + 40)).unwrap();
        }
        // Each sample's summary off the definition: accesses per line,
        // and each reuse event's distance summed, counted and maxed.
        let bs = AnalysisConfig::default().reuse_block;
        let summary = |s: &Sample| {
            let mut rows = std::collections::BTreeMap::<u64, [u64; 4]>::new();
            for a in &s.accesses {
                rows.entry(a.addr.block(bs)).or_default()[0] += 1;
            }
            for e in crate::reuse::analyze_window(&s.accesses, bs).events {
                let row = rows
                    .get_mut(&s.accesses[e.pos as usize].addr.block(bs))
                    .unwrap();
                let d = u64::from(e.distance);
                row[1] += d;
                row[2] += 1;
                row[3] = row[3].max(d);
            }
            rows.into_iter().collect::<Vec<_>>()
        };
        let rows: Vec<Vec<(u64, [u64; 4])>> = t.samples.iter().map(summary).collect();
        let (want, _) = BlockReuse::from_row_parts(rows.iter().map(Vec::as_slice)).unwrap();
        assert!(want.len() > 4096 && want.region_max_distance(0, u64::MAX) > 0);
        for shard in [1, 16, 300] {
            let cfg = AnalysisConfig::default();
            let got = stream_resident_trace(&t, &annots, &symbols, cfg, &[], shard).block_reuse;
            assert_eq!(got, want, "{shard}-sample shards");
            // `==` ignores the query index; the Debug form shows it.
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{shard}-sample shards"
            );
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
