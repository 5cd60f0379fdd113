//! The window kernels: the one place a window of accesses is turned
//! into reuse distances, footprints and class counts.
//!
//! Every public window function in this crate (`reuse::analyze_window`,
//! `FootprintDiagnostics::compute`, `footprint::footprint`,
//! `BlockReuse::from_samples`, the window and locality series) and the
//! per-sample passes of `StreamingAnalyzer::ingest_shard` run on the
//! [`Workspace`] here, so a sample and a whole-function code window
//! share one block table, one marker structure ([`Markers`], which the
//! streaming `ReuseTracker` runs on too) and one set of buffers, and a
//! window allocates nothing once its thread's workspace is warm. A pass
//! keeps what its chunk split needs to count any interval of it.
//!
//! The fold also reads what a window's pass leaves behind: the distinct
//! blocks in first-touch order with their last positions (a
//! `ReuseTracker`'s window summary), and the footprint. Where a reuse
//! block ("line") holds at most 64 footprint blocks ([`LineSplit`]) the
//! fold runs `masked_reuse_pass`, the one reuse-pass body that also
//! keeps a bit per footprint block of each line, by load class; else a
//! `distinct_pass` at the footprint block follows the reuse pass and
//! lists the distinct blocks with the class bits that touched them.
//! Either way the sample's diagnostics and a function's new footprint
//! blocks come from one place. A sample of one function is that
//! function's window; a sample of several is cut into one window per
//! function by the workspace's [`Split`], a counting sort, and each
//! runs its own pass.
//!
//! The workspace is thread-local (each `serve` pool thread owns one)
//! and what a thread keeps between calls is bounded: a window longer
//! than [`RETAIN_WINDOW`] accesses still runs here, but
//! [`with_workspace`] drops the buffers it grew before returning.
//!
//! Positions and row indices are `u32`. A window is a resident
//! `&[Access]` at 24 bytes per access, so 2³² accesses is a 96 GiB
//! slice; no caller builds one.

use crate::fxhash::FxHashMap;
use crate::reuse::ReuseEvent;
use memgaze_model::{Addr, AuxAnnotations, BlockSize, Ip, LoadClass, SymbolTable};
use std::cell::RefCell;

/// Longest window whose buffers a thread keeps for the next call. The
/// dense sampler's 16 KiB buffer holds 2048 accesses, so samples and
/// everything chopped out of them stay below it; a whole-function
/// code window or a full trace viewed as one sample (tens of thousands
/// of accesses and up) does not, and must not pin megabytes per thread.
pub(crate) const RETAIN_WINDOW: usize = 4096;

/// Windows up to this length keep their markers in one `u64`.
const BITSET_WINDOW: usize = 64;

/// Interval sizes one pass over a sample serves in the series: a
/// sample's row is an array of this many, so it allocates nothing.
const SIZES_PER_PASS: usize = 4;

/// `row(item, group)` of every item for every [`SIZES_PER_PASS`]
/// sizes: `fold(size index, row)` sees each size's rows in item order.
pub(crate) fn rows_per_size<T, S, R>(
    items: &[T],
    sizes: &[S],
    row: impl Fn(&T, &[S]) -> [R; SIZES_PER_PASS],
    mut fold: impl FnMut(usize, R),
) {
    for (pass, group) in sizes.chunks(SIZES_PER_PASS).enumerate() {
        for item in items {
            for (k, r) in row(item, group).into_iter().take(group.len()).enumerate() {
                fold(pass * SIZES_PER_PASS + k, r);
            }
        }
    }
}

/// Class bit of a Strided load in a block's class mask.
pub(crate) const STRIDED: u8 = 1;
/// Class bit of an Irregular load in a block's class mask.
pub(crate) const IRREGULAR: u8 = 2;

/// The class-mask bit of a load class. Constant accesses occupy "1 unit"
/// of space and are outside the strided/irregular decomposition.
pub(crate) fn class_bit(class: LoadClass) -> u8 {
    match class {
        LoadClass::Strided => STRIDED,
        LoadClass::Irregular => IRREGULAR,
        LoadClass::Constant => 0,
    }
}

/// Most whole words between two positions that [`Markers::between`]
/// popcounts one by one; past it the tree over the words is cheaper.
const DIRECT_WORDS: usize = 4;

/// The marker set under every reuse distance of the crate: a bit per
/// position and a Fenwick (binary indexed) tree over the popcounts of
/// the 64-position words. Window kernels keep theirs in the workspace,
/// `ReuseTracker` owns one that outlives any window. A reuse at short
/// interval lands in the word of the access it reuses and never reaches
/// the tree.
#[derive(Clone, Default)]
pub(crate) struct Markers {
    /// The `words` bit words, then the `words` tree nodes: node `i`
    /// (1-based, at `words + i - 1`) counts words `[i - lowbit(i), i)`.
    buf: Vec<u64>,
    words: usize,
}

/// The bits of a word at positions above `bit`.
#[inline]
fn above(bit: usize) -> u64 {
    !(!0u64 >> (63 - bit))
}

impl Markers {
    /// Size for `positions` positions, with markers at `0..prefix` and
    /// nowhere else, in one pass over the words; the allocation is kept.
    pub(crate) fn reset(&mut self, positions: usize, prefix: usize) {
        debug_assert!(prefix <= positions);
        self.words = positions.div_ceil(64);
        let bits = (0..self.words).map(|w| match prefix.saturating_sub(64 * w) {
            0 => 0,
            n if n < 64 => !above(n - 1),
            _ => !0,
        });
        let tree = (1..=self.words).map(|i| {
            let lo = i - (i & i.wrapping_neg());
            ((64 * i).min(prefix) - (64 * lo).min(prefix)) as u64
        });
        self.buf.clear();
        self.buf.extend(bits.chain(tree));
    }

    /// Add `delta` (modulo 2⁶⁴, so `u64::MAX` takes one away) to the
    /// count of `word`.
    #[inline]
    fn add(&mut self, word: usize, delta: u64) {
        let tree = &mut self.buf[self.words..];
        let mut i = word + 1;
        while i <= tree.len() {
            tree[i - 1] = tree[i - 1].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Markers in words `[lo, hi)`: the two prefix walks, each stopped
    /// where they meet.
    #[inline]
    fn in_words(&self, lo: usize, hi: usize) -> u64 {
        let tree = &self.buf[self.words..];
        let (mut i, mut j, mut sum) = (hi, lo, 0u64);
        while i > j {
            sum = sum.wrapping_add(tree[i - 1]);
            i -= i & i.wrapping_neg();
        }
        while j > i {
            sum = sum.wrapping_sub(tree[j - 1]);
            j -= j & j.wrapping_neg();
        }
        sum
    }

    /// Put a marker at `pos`, which has none.
    #[inline]
    pub(crate) fn set(&mut self, pos: usize) {
        debug_assert_eq!(self.buf[pos / 64] >> (pos % 64) & 1, 0);
        self.buf[pos / 64] |= 1 << (pos % 64);
        self.add(pos / 64, 1);
    }

    /// Take the marker at `pos` away.
    #[inline]
    pub(crate) fn clear(&mut self, pos: usize) {
        debug_assert_eq!(self.buf[pos / 64] >> (pos % 64) & 1, 1);
        self.buf[pos / 64] &= !(1 << (pos % 64));
        self.add(pos / 64, u64::MAX);
    }

    /// Move the marker at `from` to `to`, which has none: bit
    /// operations alone when both sit in one word.
    #[inline]
    pub(crate) fn shift(&mut self, from: usize, to: usize) {
        if from / 64 == to / 64 {
            debug_assert_eq!(self.buf[to / 64] >> (to % 64) & 1, 0);
            self.buf[to / 64] ^= 1 << (from % 64) | 1 << (to % 64);
        } else {
            self.clear(from);
            self.set(to);
        }
    }

    /// The set read as ranks, in one sweep over the words: each tree
    /// node becomes the count of markers in the words before its own.
    pub(crate) fn into_ranks(mut self) -> Ranks {
        let (bits, nodes) = self.buf.split_at_mut(self.words);
        let mut before = 0;
        for (word, node) in bits.iter().zip(nodes) {
            *node = before;
            before += u64::from(word.count_ones());
        }
        Ranks(self)
    }

    /// Markers at positions `[0, pos]`.
    pub(crate) fn rank(&self, pos: usize) -> u64 {
        let own = self.buf[pos / 64] & !above(pos % 64);
        self.in_words(0, pos / 64) + u64::from(own.count_ones())
    }

    /// Markers strictly between `prev` and `pos`.
    #[inline]
    pub(crate) fn between(&self, prev: usize, pos: usize) -> u64 {
        debug_assert!(prev < pos);
        let (first, last) = (prev / 64, pos / 64);
        let (head, tail) = (above(prev % 64), (1u64 << (pos % 64)) - 1);
        let bits = &self.buf[..self.words];
        if first == last {
            return u64::from((bits[first] & head & tail).count_ones());
        }
        let ends = (bits[first] & head).count_ones() + (bits[last] & tail).count_ones();
        let whole = if last - first - 1 <= DIRECT_WORDS {
            (bits[first + 1..last].iter())
                .map(|w| u64::from(w.count_ones()))
                .sum()
        } else {
            self.in_words(first + 1, last)
        };
        u64::from(ends) + whole
    }
}

/// A marker set read as ranks ([`Markers::into_ranks`]).
pub(crate) struct Ranks(Markers);

impl Ranks {
    /// Markers at positions below `pos`.
    #[inline]
    pub(crate) fn before(&self, pos: usize) -> u64 {
        let Markers { buf, words } = &self.0;
        let own = buf[pos / 64] & ((1u64 << (pos % 64)) - 1);
        buf[words + pos / 64] + u64::from(own.count_ones())
    }

    /// Back to a marker set, as [`Markers::reset`] leaves one; the
    /// allocation is kept.
    pub(crate) fn reset(self, positions: usize, prefix: usize) -> Markers {
        let mut markers = self.0;
        markers.reset(positions, prefix);
        markers
    }
}

// ---- the block table ----

#[derive(Clone, Copy, Default)]
struct Slot {
    key: u64,
    val: u32,
    /// Generation that wrote the slot; any other value means empty.
    stamp: u32,
}

/// Open-addressed `block → u32` map, cleared in O(1) by bumping a
/// generation stamp. A window of `n` accesses probes only the first
/// `2n` (rounded up to a power of two) slots, so a 16-access window
/// stays inside two kilobytes however large the table has grown.
#[derive(Default)]
struct BlockTable {
    slots: Vec<Slot>,
    generation: u32,
    /// `64 - log2(slots in use)`: the hash keeps its top bits.
    shift: u32,
}

impl BlockTable {
    fn begin(&mut self, n: usize) {
        let cap = (2 * n).next_power_of_two().max(2 * BITSET_WINDOW);
        if self.slots.len() < cap {
            self.slots = vec![Slot::default(); cap];
            self.generation = 0;
        }
        self.shift = 64 - cap.trailing_zeros();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // The stamp wrapped: slots written 2³² windows ago would
            // read as live.
            self.slots.fill(Slot::default());
            self.generation = 1;
        }
    }

    /// The value slot of `key`, and whether this call created it (then
    /// zero).
    #[inline]
    fn entry(&mut self, key: u64) -> (&mut u32, bool) {
        let mask = (1usize << (64 - self.shift)) - 1;
        // Fibonacci hashing: sequential block numbers spread over the
        // top bits.
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let slot = self.slots[i];
            if slot.stamp != self.generation {
                self.slots[i] = Slot {
                    key,
                    val: 0,
                    stamp: self.generation,
                };
                return (&mut self.slots[i].val, true);
            }
            if slot.key == key {
                return (&mut self.slots[i].val, false);
            }
            i = (i + 1) & mask;
        }
    }
}

// ---- footprint blocks inside a line ----

/// What a reuse pass keeps of an access beyond its block: nothing, or
/// a mark in its line's row of [`Workspace::line_bits`].
pub(crate) trait Touch: Copy {
    /// Mark row `row` of `lines`, a new line when `row == lines.len()`.
    fn mark(self, lines: &mut Vec<[u64; 3]>, row: usize);
}

impl Touch for () {
    #[inline(always)]
    fn mark(self, _: &mut Vec<[u64; 3]>, _: usize) {}
}

/// An access's footprint block as its bit in the line, and the class
/// bit of its load ([`LineSplit::touch`]).
#[derive(Clone, Copy)]
pub(crate) struct BlockInLine {
    bit: u64,
    class: u8,
}

impl Touch for BlockInLine {
    /// One OR per access: a line's columns are indexed by class bit, 0
    /// (Constant), [`STRIDED`] and [`IRREGULAR`].
    #[inline(always)]
    fn mark(self, lines: &mut Vec<[u64; 3]>, row: usize) {
        debug_assert!(self.class <= IRREGULAR, "a load has one class bit");
        if row == lines.len() {
            lines.push([0; 3]);
        }
        lines[row][usize::from(self.class)] |= self.bit;
    }
}

/// A reuse block ("line") cut into `2^k` footprint blocks, where
/// `k = log2(reuse block) − log2(footprint block)` lies in `0..=6`, so
/// one line's footprint blocks fit a `u64`: the pairs whose footprint
/// rides the reuse pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LineSplit {
    footprint_log2: u32,
    k: u32,
}

impl LineSplit {
    /// The split of `reuse` lines into `footprint` blocks, or `None`
    /// when a footprint block is larger than a line or a line holds
    /// more than 64 of them.
    pub(crate) fn new(reuse: BlockSize, footprint: BlockSize) -> Option<LineSplit> {
        let k = reuse.log2().checked_sub(footprint.log2())?;
        (k <= 6).then_some(LineSplit {
            footprint_log2: u32::from(footprint.log2()),
            k: u32::from(k),
        })
    }

    /// `log2` of the footprint blocks in a line.
    pub(crate) fn k(self) -> u32 {
        self.k
    }

    /// An access at `addr` by a load of class bit `class`, for a
    /// [`masked_reuse_pass`](Workspace::masked_reuse_pass).
    #[inline]
    pub(crate) fn touch(self, addr: Addr, class: u8) -> BlockInLine {
        let sub = (addr.0 >> self.footprint_log2) & ((1 << self.k) - 1);
        BlockInLine {
            bit: 1 << sub,
            class,
        }
    }
}

// ---- the workspace ----

/// Per-block statistics of one window, in first-touch order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Row {
    pub(crate) block: u64,
    pub(crate) dist_sum: u64,
    pub(crate) accesses: u32,
    pub(crate) reuse_cnt: u32,
    pub(crate) max_dist: u32,
    /// Position of the block's latest access.
    pub(crate) last: u32,
}

impl Row {
    fn new(block: u64) -> Row {
        Row {
            block,
            dist_sum: 0,
            accesses: 0,
            reuse_cnt: 0,
            max_dist: 0,
            last: 0,
        }
    }
}

/// Footprint totals of one window: a [`Workspace::distinct_pass`], or
/// the line popcounts of a masked reuse pass ([`Workspace::line_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ClassCounts {
    pub(crate) footprint: u64,
    pub(crate) f_str: u64,
    pub(crate) f_irr: u64,
    pub(crate) implied_const: u64,
}

impl ClassCounts {
    /// The counts of a set of distinct blocks given by their class masks,
    /// beside `implied_const` implied Constant loads: every block, and
    /// the blocks a Strided and an Irregular load touched.
    pub(crate) fn of_masks(
        masks: impl ExactSizeIterator<Item = u8>,
        implied_const: u64,
    ) -> ClassCounts {
        let mut c = ClassCounts {
            footprint: masks.len() as u64,
            implied_const,
            ..ClassCounts::default()
        };
        for mask in masks {
            c.f_str += u64::from(mask & STRIDED != 0);
            c.f_irr += u64::from(mask & IRREGULAR != 0);
        }
        c
    }
}

/// The `[s, e)` of a `len`-access window's `chunk`-sized intervals, a
/// tail shorter than half an interval skipped.
pub(crate) fn intervals(len: usize, chunk: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len)
        .step_by(chunk)
        .map(move |s| (s, len.min(s + chunk)))
        .filter(move |(s, e)| e - s >= chunk.div_ceil(2))
}

/// The positions of a window grouped by a key — a sample cut into one
/// window per function — by a counting sort: keys in first-seen order,
/// positions in order within each.
#[derive(Default)]
pub(crate) struct Split {
    /// The positions, key by key.
    order: Vec<u32>,
    /// `(key, start, end)` of each key's stretch of `order`.
    stretches: Vec<(u32, u32, u32)>,
    /// Per key, one more than its index in `stretches` while a split
    /// runs; 0 otherwise.
    index: Vec<u32>,
}

impl Split {
    /// Group positions `0..keys.len()` by their key.
    pub(crate) fn group(&mut self, keys: impl DoubleEndedIterator<Item = u32> + Clone) {
        self.stretches.clear();
        let mut n = 0usize;
        for key in keys.clone() {
            let k = key as usize;
            if k >= self.index.len() {
                self.index.resize(k + 1, 0);
            }
            if self.index[k] == 0 {
                self.stretches.push((key, 0, 0));
                self.index[k] = self.stretches.len() as u32;
            }
            self.stretches[self.index[k] as usize - 1].2 += 1;
            n += 1;
        }
        // Counts to ends, then each end walked back to its start while
        // the positions are placed last to first.
        let mut end = 0;
        for s in &mut self.stretches {
            end += s.2;
            (s.1, s.2) = (end, end);
        }
        self.order.resize(n, 0);
        for (pos, key) in (0..n as u32).rev().zip(keys.rev()) {
            let s = &mut self.stretches[self.index[key as usize] as usize - 1];
            s.1 -= 1;
            self.order[s.1 as usize] = pos;
        }
        for &(key, _, _) in &self.stretches {
            self.index[key as usize] = 0;
        }
    }

    /// Each key of the last [`group`](Self::group) with its positions.
    pub(crate) fn stretches(&self) -> impl Iterator<Item = (u32, &[u32])> {
        (self.stretches.iter()).map(|&(key, s, e)| (key, &self.order[s as usize..e as usize]))
    }
}

/// The buffers every window kernel runs on.
#[derive(Default)]
pub(crate) struct Workspace {
    table: BlockTable,
    markers: Markers,
    rows: Vec<Row>,
    /// Per row of the last [`masked_reuse_pass`](Workspace::masked_reuse_pass),
    /// the footprint blocks inside its line that a Constant, a Strided
    /// and an Irregular load touched: three columns, a bit per block.
    line_bits: Vec<[u64; 3]>,
    /// The distinct blocks of the last distinct pass, in first-touch
    /// order, each with the class bits of the loads that touched it.
    distinct: Vec<(u64, u8)>,
    /// A sample cut into windows, one per function; taken out while its
    /// windows run their passes.
    pub(crate) split: Split,
    /// Every reuse of the last reuse pass, in access order.
    reuses: Vec<ReuseEvent>,
    /// Per access of the last class columns, one more than the latest
    /// earlier position of its block by any load, by a Strided load and
    /// by an Irregular one (0 for none, `u32::MAX` in a class the access
    /// is not of); `lasts` the same per block, after its last access.
    firsts: Vec<[u32; 3]>,
    lasts: Vec<[u32; 3]>,
    /// `implied[i]`: implied constants of the last pass's first `i` accesses.
    implied: Vec<u64>,
    /// Longest window since the buffers were last released.
    longest: usize,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// Run `f` on this thread's workspace. Kernels do not nest: `f` must
/// not call back into a function that takes the workspace itself.
pub(crate) fn with_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    WORKSPACE.with(|cell| {
        let mut ws = cell.borrow_mut();
        let out = f(&mut ws);
        if ws.longest > RETAIN_WINDOW {
            *ws = Workspace::default();
        }
        out
    })
}

impl Workspace {
    /// Start a window of `n` accesses: empty table, no rows, no columns.
    fn begin(&mut self, n: usize) {
        debug_assert!(u32::try_from(n).is_ok(), "window positions are u32");
        self.longest = self.longest.max(n);
        self.table.begin(n);
        self.rows.clear();
        self.line_bits.clear();
        self.distinct.clear();
        self.reuses.clear();
        self.firsts.clear();
        self.lasts.clear();
        self.implied.resize(1, 0);
    }

    /// The rows of the last [`reuse_pass`](Self::reuse_pass), one per
    /// distinct block in first-touch order.
    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// What the last [`reuse_pass`](Self::reuse_pass) returned.
    pub(crate) fn reuses(&self) -> &[ReuseEvent] {
        &self.reuses
    }

    /// Exact reuse distances of one window of `(block, implied
    /// constants)`: returns the [`ReuseEvent`] of every access to a
    /// block seen before, in access order, and leaves per-block totals in
    /// [`rows`](Self::rows).
    ///
    /// A marker sits at the latest position of every distinct block;
    /// the distance of a reuse is the number of markers strictly
    /// between the block's previous access and this one. Windows of at
    /// most 64 accesses keep the markers in a `u64` in a register and
    /// count with a mask and a popcount; longer ones keep them in the
    /// workspace's [`Markers`].
    pub(crate) fn reuse_pass(
        &mut self,
        items: impl ExactSizeIterator<Item = (u64, u64)>,
    ) -> &[ReuseEvent] {
        self.pass(items.map(|(block, implied)| (block, implied, ())))
    }

    /// [`reuse_pass`](Self::reuse_pass) over `(line, implied constants,
    /// footprint block)`, each access's block from [`LineSplit::touch`],
    /// which also leaves per row the blocks of its line that the window
    /// touched, by class: [`lines`](Self::lines), counted by
    /// [`line_counts`](Self::line_counts). The fold's one pass over a
    /// window, in place of a reuse pass and a distinct pass.
    pub(crate) fn masked_reuse_pass(
        &mut self,
        items: impl ExactSizeIterator<Item = (u64, u64, BlockInLine)>,
    ) -> &[ReuseEvent] {
        self.pass(items)
    }

    /// The one reuse-pass body; `T` says what an access leaves in its
    /// row of [`line_bits`](Self::line_bits), if anything.
    #[inline]
    fn pass<T: Touch>(
        &mut self,
        items: impl ExactSizeIterator<Item = (u64, u64, T)>,
    ) -> &[ReuseEvent] {
        let n = items.len();
        self.begin(n);
        let bitset = n <= BITSET_WINDOW;
        let mut markers = 0u64;
        if !bitset {
            self.markers.reset(n, 0);
        }
        for (pos, (block, implied, touch)) in items.enumerate() {
            self.implied.push(self.implied[pos] + implied);
            let (slot, new) = self.table.entry(block);
            touch.mark(
                &mut self.line_bits,
                if new { self.rows.len() } else { *slot as usize },
            );
            if new {
                *slot = self.rows.len() as u32;
                self.rows.push(Row {
                    accesses: 1,
                    last: pos as u32,
                    ..Row::new(block)
                });
                if bitset {
                    markers |= 1u64 << pos;
                } else {
                    self.markers.set(pos);
                }
            } else {
                let row = &mut self.rows[*slot as usize];
                let prev = row.last as usize;
                // Distinct blocks in (prev, pos): 0 for back-to-back
                // reuse. Counted before the block's own marker moves.
                let distance = if pos == prev + 1 {
                    0
                } else if bitset {
                    let between = ((1u64 << pos) - 1) & !((2u64 << prev) - 1);
                    u64::from((markers & between).count_ones())
                } else {
                    self.markers.between(prev, pos)
                };
                row.accesses += 1;
                row.reuse_cnt += 1;
                row.dist_sum += distance;
                row.max_dist = row.max_dist.max(distance as u32);
                row.last = pos as u32;
                if bitset {
                    markers ^= 1u64 << prev | 1u64 << pos;
                } else {
                    self.markers.shift(prev, pos);
                }
                self.reuses.push(ReuseEvent {
                    pos: pos as u32,
                    prev: prev as u32,
                    distance: distance as u32,
                });
            }
        }
        &self.reuses
    }

    /// The distinct lines of the last
    /// [`masked_reuse_pass`](Self::masked_reuse_pass) in first-touch
    /// order, each with its footprint blocks as three bit columns:
    /// touched, touched by a Strided load, touched by an Irregular one.
    pub(crate) fn lines(&self) -> impl Iterator<Item = (u64, [u64; 3])> + '_ {
        let bits = self.line_bits.iter().map(|&[c, s, i]| [c | s | i, s, i]);
        self.rows.iter().map(|r| r.block).zip(bits)
    }

    /// What a [`distinct_pass`](Self::distinct_pass) at the footprint
    /// block returns, counted off the last
    /// [`masked_reuse_pass`](Self::masked_reuse_pass): its lines' bits
    /// partition the window's distinct footprint blocks.
    pub(crate) fn line_counts(&self) -> ClassCounts {
        let mut c = ClassCounts {
            implied_const: self.implied[self.implied.len() - 1],
            ..ClassCounts::default()
        };
        for (_, [touched, strided, irregular]) in self.lines() {
            c.footprint += u64::from(touched.count_ones());
            c.f_str += u64::from(strided.count_ones());
            c.f_irr += u64::from(irregular.count_ones());
        }
        c
    }

    /// The distinct blocks of one window, each with the class bits of
    /// the loads that touched it, left in [`distinct`](Self::distinct)
    /// in first-touch order; returns their footprint access diagnostics
    /// (paper §V-E): distinct blocks, distinct blocks touched by a
    /// Strided and by an Irregular load, and the implied Constant loads.
    /// `items` yields `(block, class bit, implied constants)` per access.
    pub(crate) fn distinct_pass(
        &mut self,
        items: impl ExactSizeIterator<Item = (u64, u8, u64)>,
    ) -> ClassCounts {
        self.begin(items.len());
        let mut implied_const = 0;
        for (block, bit, implied) in items {
            let (slot, new) = self.table.entry(block);
            if new {
                *slot = self.distinct.len() as u32;
                self.distinct.push((block, bit));
            } else {
                self.distinct[*slot as usize].1 |= bit;
            }
            implied_const += implied;
        }
        ClassCounts::of_masks(self.distinct.iter().map(|&(_, mask)| mask), implied_const)
    }

    /// The blocks of the last [`distinct_pass`](Self::distinct_pass) with
    /// their class bits, in first-touch order.
    pub(crate) fn distinct(&self) -> &[(u64, u8)] {
        &self.distinct
    }

    /// What [`class_counts`](Self::class_counts) reads of a window given
    /// as for [`distinct_pass`](Self::distinct_pass): per access, where its
    /// block was last touched before it, and the implied constants.
    pub(crate) fn class_columns(&mut self, items: impl ExactSizeIterator<Item = (u64, u8, u64)>) {
        self.begin(items.len());
        for (pos, (block, bit, implied)) in items.enumerate() {
            let (slot, new) = self.table.entry(block);
            if new {
                *slot = self.lasts.len() as u32;
                self.lasts.push([0; 3]);
            }
            let last = &mut self.lasts[*slot as usize];
            let mut first = *last;
            last[0] = pos as u32 + 1;
            for (k, class) in [(1, STRIDED), (2, IRREGULAR)] {
                if bit & class == 0 {
                    first[k] = u32::MAX;
                } else {
                    last[k] = pos as u32 + 1;
                }
            }
            self.firsts.push(first);
            self.implied.push(self.implied[pos] + implied);
        }
    }

    /// Class counts of `[s, e)` of the last class columns: an access is
    /// the first of its block in the interval, for a class, exactly when
    /// the previous access to it by a load of that class lies before `s`.
    pub(crate) fn class_counts(&self, s: usize, e: usize) -> ClassCounts {
        let mut c = ClassCounts {
            implied_const: self.implied[e] - self.implied[s],
            ..ClassCounts::default()
        };
        for p in &self.firsts[s..e] {
            let [all, strided, irregular] = p.map(|p| u64::from(p as usize <= s));
            c.footprint += all;
            c.f_str += strided;
            c.f_irr += irregular;
        }
        c
    }

    /// The columns a [`reuse_pass`](Self::reuse_pass) leaves for
    /// [`locality_split`](Self::locality_split), loaded from a window
    /// whose reuses an earlier pass found: its events in access order,
    /// and the implied constants of its accesses. The split then runs as
    /// over the pass itself, with no pass.
    pub(crate) fn load_reuses(
        &mut self,
        reuses: &[ReuseEvent],
        implied: impl ExactSizeIterator<Item = u64>,
    ) {
        self.begin(implied.len());
        self.reuses.extend_from_slice(reuses);
        for (pos, v) in implied.enumerate() {
            self.implied.push(self.implied[pos] + v);
        }
    }

    /// `(windows, Σ mean D, Σ ΔF, Σ F)` over the `chunk`-sized intervals
    /// of the last [`reuse_pass`](Self::reuse_pass)'s window, or of the
    /// window [`load_reuses`](Self::load_reuses) loaded: the one locality
    /// split, which the fold's rows, `locality_vs_interval_with` and the
    /// resident analyzer's event lists all run, so they agree bit for
    /// bit. A reuse belongs to the interval `[s, e)` exactly when its
    /// previous access does, at the same distance, and every other access
    /// of the interval is a first touch of it.
    pub(crate) fn locality_split(&self, chunk: usize) -> (u64, f64, f64, f64) {
        let mut reuses = self.reuses.iter().peekable();
        let mut out = (0u64, 0.0, 0.0, 0.0);
        for (s, e) in intervals(self.implied.len() - 1, chunk) {
            let (mut events, mut dist_sum) = (0u64, 0u64);
            while let Some(r) = reuses.next_if(|r| (r.pos as usize) < e) {
                if r.prev as usize >= s {
                    events += 1;
                    dist_sum += u64::from(r.distance);
                }
            }
            let observed = (e - s) as u64;
            let footprint = observed - events;
            let implied = self.implied[e] - self.implied[s];
            let kappa = memgaze_model::compression_ratio(observed, implied);
            out.0 += 1;
            out.1 += mean_distance(dist_sum, events);
            out.2 += crate::footprint::footprint_growth(footprint, observed, kappa);
            out.3 += footprint as f64;
        }
        out
    }
}

/// Mean reuse distance from the integer sums (0 when nothing is
/// reused) — the one expression every engine uses, so the means agree
/// bit for bit however the events were grouped.
pub(crate) fn mean_distance(dist_sum: u64, events: u64) -> f64 {
    if events == 0 {
        0.0
    } else {
        dist_sum as f64 / events as f64
    }
}

/// `[min, max + 1)` over `values` — the address range the zoom starts
/// from, the time range a heatmap's columns cut — or `None` without
/// values. Never empty: at the top of the scale `hi` saturates and `lo`
/// stays below it, and a range that ends at `u64::MAX` holds `u64::MAX`,
/// as in `BlockSize::block_range`.
pub(crate) fn span(values: impl Iterator<Item = u64>) -> Option<(u64, u64)> {
    let (min, max) = values.fold(None, |span, v| match span {
        None => Some((v, v)),
        Some((min, max)) => Some((v.min(min), v.max(max))),
    })?;
    let hi = max.saturating_add(1);
    Some((min.min(hi - 1), hi))
}

// ---- per-ip resolution ----

/// What the analyses need to know about an instruction, looked up once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IpInfo {
    /// Dense index of the enclosing function, in first-seen order.
    pub(crate) slot: u32,
    /// [`class_bit`] of the load's class.
    pub(crate) class: u8,
    /// Constant loads the instruction stands for as a proxy.
    pub(crate) implied: u32,
    /// Dense index of the instruction itself, in first-seen order.
    pub(crate) site: u32,
}

/// The annotation facts of an access stream, re-read only when the ip
/// changes from one access to the next.
pub(crate) struct AnnotMemo<'a> {
    annots: &'a AuxAnnotations,
    ip: Option<Ip>,
    class: u8,
    implied: u32,
}

impl<'a> AnnotMemo<'a> {
    pub(crate) fn new(annots: &'a AuxAnnotations) -> AnnotMemo<'a> {
        AnnotMemo {
            annots,
            ip: None,
            class: 0,
            implied: 0,
        }
    }

    /// `(class bit, implied constants)` of `ip`; an unannotated ip is
    /// Irregular and implies nothing, as in `AuxAnnotations::class_of`.
    #[inline]
    pub(crate) fn get(&mut self, ip: Ip) -> (u8, u64) {
        if self.ip != Some(ip) {
            self.ip = Some(ip);
            (self.class, self.implied) = annots_of(self.annots, ip);
        }
        (self.class, u64::from(self.implied))
    }
}

fn annots_of(annots: &AuxAnnotations, ip: Ip) -> (u8, u32) {
    annots
        .get(ip)
        .map_or((IRREGULAR, 0), |a| (class_bit(a.class), a.implied_const))
}

/// Memoised `ip → (function slot, class bit, implied constants, site)`:
/// one hash probe per access in place of a symbol-table binary search
/// and two annotation lookups. Functions get dense slots and ips dense
/// sites, both in first-seen order; accesses outside every function
/// share the slot of `("<unknown>", u32::MAX)`. Symbols and annotations
/// are borrowed for the resolver's lifetime, so an entry cannot go
/// stale.
pub(crate) struct IpResolver<'a> {
    symbols: &'a SymbolTable,
    annots: &'a AuxAnnotations,
    by_ip: FxHashMap<Ip, IpInfo>,
    slot_of_func: FxHashMap<u32, u32>,
    /// `(function id, name)` per slot.
    funcs: Vec<(u32, &'a str)>,
}

impl<'a> IpResolver<'a> {
    pub(crate) fn new(symbols: &'a SymbolTable, annots: &'a AuxAnnotations) -> IpResolver<'a> {
        IpResolver {
            symbols,
            annots,
            by_ip: FxHashMap::default(),
            slot_of_func: FxHashMap::default(),
            funcs: Vec::new(),
        }
    }

    /// Resolve `ip`. A returned slot equal to the number of slots the
    /// caller has seen so far is a new function:
    /// [`function`](Self::function) names it. Likewise a site equal to
    /// the number of sites seen so far is an ip's first sight.
    #[inline]
    pub(crate) fn resolve(&mut self, ip: Ip) -> IpInfo {
        match self.by_ip.get(&ip) {
            Some(&info) => info,
            None => self.resolve_slow(ip),
        }
    }

    #[cold]
    fn resolve_slow(&mut self, ip: Ip) -> IpInfo {
        let (id, name) = match self.symbols.lookup(ip) {
            Some(f) => (f.id.0, f.name.as_str()),
            None => (u32::MAX, "<unknown>"),
        };
        let next = self.funcs.len() as u32;
        let slot = *self.slot_of_func.entry(id).or_insert(next);
        if slot == next {
            self.funcs.push((id, name));
        }
        let (class, implied) = annots_of(self.annots, ip);
        let info = IpInfo {
            slot,
            class,
            implied,
            site: self.by_ip.len() as u32,
        };
        self.by_ip.insert(ip, info);
        info
    }

    /// `(function id, name)` of a slot.
    pub(crate) fn function(&self, slot: u32) -> (u32, &'a str) {
        self.funcs[slot as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reuse::analyze_window;
    use memgaze_model::{Access, BlockSize};
    use proptest::prelude::*;

    fn seq(blocks: impl IntoIterator<Item = u64>) -> Vec<Access> {
        blocks
            .into_iter()
            .enumerate()
            .map(|(i, b)| Access::new(0x400u64, b * 64, i as u64))
            .collect()
    }

    /// A stream with reuse at every distance up to `distinct`.
    fn mixed(n: usize, distinct: u64) -> Vec<Access> {
        seq((0..n as u64).map(|i| (i.wrapping_mul(2654435761) >> 7) % distinct))
    }

    #[test]
    fn fenwick_counts_ranges() {
        let mut m = Markers::default();
        m.reset(10, 0);
        for pos in [0, 3, 4, 9] {
            m.set(pos);
        }
        assert_eq!(m.rank(0), 1);
        assert_eq!(m.rank(3), 2);
        assert_eq!(m.rank(9), 4);
        m.clear(3);
        assert_eq!(m.between(0, 9), 1);
    }

    /// A position of a `cap`-position vector from a drawn `p`: the last
    /// one for `usize::MAX`, else `p` wrapped into range.
    fn pos_in(cap: usize, p: usize) -> usize {
        if p == usize::MAX {
            cap - 1
        } else {
            p % cap
        }
    }

    /// Positions either side of a word boundary — the first, the two
    /// where `between` from word 0 goes from counting directly to the
    /// tree, and 511/512/513 — the last position, and anywhere.
    fn arb_pos() -> impl Strategy<Value = usize> {
        let boundaries = [1, DIRECT_WORDS + 1, DIRECT_WORDS + 2, 8];
        prop_oneof![
            (0..boundaries.len(), 0usize..3).prop_map(move |(k, off)| 64 * boundaries[k] + off - 1),
            Just(usize::MAX),
            0usize..2048,
        ]
    }

    proptest! {
        /// Every operation against a `Vec<bool>`: op 0 toggles the
        /// marker at `a`, op 1 shifts it to `b` when it can, and every
        /// step reads a rank and a between back.
        #[test]
        fn markers_match_a_vec_of_bools(
            cap in prop_oneof![Just(65usize), Just(513), 66usize..2048],
            ops in prop::collection::vec((0u8..3, arb_pos(), arb_pos()), 1..300),
        ) {
            let mut m = Markers::default();
            m.reset(cap, 0);
            let mut model = vec![false; cap];
            let count = |bits: &[bool]| bits.iter().filter(|&&b| b).count() as u64;
            for &(op, a, b) in &ops {
                let (a, b) = (pos_in(cap, a), pos_in(cap, b));
                if op == 0 && model[a] {
                    m.clear(a);
                    model[a] = false;
                } else if op == 0 {
                    m.set(a);
                    model[a] = true;
                } else if op == 1 && model[a] && !model[b] {
                    m.shift(a, b);
                    model.swap(a, b);
                }
                prop_assert_eq!(m.rank(a), count(&model[..=a]));
                let (lo, hi) = (a.min(b), a.max(b));
                if lo < hi {
                    prop_assert_eq!(m.between(lo, hi), count(&model[lo + 1..hi]));
                }
            }
        }
    }

    #[test]
    fn prefix_fill_is_that_many_sets() {
        for cap in [129usize, 327, 1024] {
            for n in [0, 1, 63, 64, 65, cap] {
                let (mut filled, mut set) = (Markers::default(), Markers::default());
                // Over what an earlier, larger use left behind.
                filled.reset(2 * cap, 2 * cap);
                filled.reset(cap, n);
                set.reset(cap, 0);
                for pos in 0..n {
                    set.set(pos);
                }
                assert_eq!(filled.buf, set.buf, "cap {cap} n {n}");
                assert_eq!(filled.words, set.words);
            }
        }
    }

    #[test]
    fn retention_bound_holds_and_does_not_change_results() {
        // The answers themselves are held to the quadratic definition on
        // both sides of the bound by `tests/spec_equivalence.rs`.
        let bs = BlockSize::CACHE_LINE;
        let short = mixed(50, 7);
        let want = analyze_window(&short, bs);
        for n in [RETAIN_WINDOW - 1, RETAIN_WINDOW, RETAIN_WINDOW + 1] {
            let a = mixed(n, 97);
            assert_eq!(analyze_window(&a, bs).unique_blocks, 97);
            let kept = with_workspace(|ws| ws.table.slots.len());
            if n > RETAIN_WINDOW {
                assert_eq!(kept, 0, "buffers of an over-long window are released");
            } else {
                assert_eq!(kept, (2 * n).next_power_of_two());
            }
            // So are the per-access columns the chunk split reads.
            let columns = |ws: &mut Workspace| {
                let (r, f, l, i) = (&ws.reuses, &ws.firsts, &ws.lasts, &ws.implied);
                [r.capacity(), f.capacity(), l.capacity(), i.capacity()]
            };
            let after_reuse = with_workspace(columns);
            let counts = with_workspace(|ws| {
                ws.class_columns(a.iter().map(|x| (x.addr.block(bs), STRIDED, 1)));
                ws.class_counts(0, n)
            });
            let whole = ClassCounts {
                footprint: 97,
                f_str: 97,
                f_irr: 0,
                implied_const: n as u64,
            };
            assert_eq!(counts, whole, "n {n}");
            let after_class = with_workspace(columns);
            if n > RETAIN_WINDOW {
                assert_eq!(
                    [after_reuse, after_class],
                    [[0; 4]; 2],
                    "columns are released"
                );
            } else {
                assert!(after_reuse[0] >= n - 97 && after_reuse[3] > n, "n {n}");
                assert!(after_class[1] >= n && after_class[2] >= 97, "n {n}");
            }
        }
        // A short window after a released one starts from nothing and
        // answers as it did on the fresh workspace.
        assert_eq!(analyze_window(&short, bs), want);
    }

    #[test]
    fn generation_wrap_rezeroes_the_table() {
        let bs = BlockSize::CACHE_LINE;
        let a = mixed(40, 9);
        // What a fresh table answers.
        let want = analyze_window(&a, bs);
        // Leave live-looking slots behind, then wrap: generation 1 is
        // what the first window after a fresh table stamped.
        with_workspace(|ws| ws.table.generation = u32::MAX - 1);
        for round in 0..4 {
            assert_eq!(analyze_window(&a, bs), want, "round {round}");
        }
        assert!(with_workspace(|ws| ws.table.generation) < 8);
    }

    #[test]
    fn distinct_pass_matches_the_set_definition() {
        use std::collections::BTreeSet;
        let items: Vec<(u64, u8, u64)> = (0..500u64)
            .map(|i| {
                let block = (i * 7 + i / 11) % 61;
                let bit = [STRIDED, IRREGULAR, 0][(i % 3) as usize];
                (block, bit, i % 4)
            })
            .collect();
        let all: BTreeSet<u64> = items.iter().map(|t| t.0).collect();
        let with = |bit: u8| {
            items
                .iter()
                .filter(|t| t.1 == bit)
                .map(|t| t.0)
                .collect::<BTreeSet<u64>>()
                .len() as u64
        };
        let want = ClassCounts {
            footprint: all.len() as u64,
            f_str: with(STRIDED),
            f_irr: with(IRREGULAR),
            implied_const: items.iter().map(|t| t.2).sum(),
        };
        let (counts, distinct) = with_workspace(|ws| {
            let counts = ws.distinct_pass(items.iter().copied());
            (counts, ws.distinct().to_vec())
        });
        assert_eq!(counts, want);
        // One entry per block, in first-touch order, with every class
        // that touched it.
        let mut seen = BTreeSet::new();
        let order: Vec<u64> = (items.iter().map(|t| t.0))
            .filter(|&b| seen.insert(b))
            .collect();
        let masks = order.iter().map(|&b| {
            let mask = (items.iter().filter(|t| t.0 == b)).fold(0, |m, t| m | t.1);
            (b, mask)
        });
        assert_eq!(distinct, masks.collect::<Vec<_>>());
        // The columns answer the whole window, as the pass does.
        let columns = with_workspace(|ws| {
            ws.class_columns(items.iter().copied());
            ws.class_counts(0, items.len())
        });
        assert_eq!(columns, want);
    }

    /// The masked pass against the distinct pass over the same window,
    /// for every line of `2^k` words, `k` in `0..=6`: the same counts,
    /// and per line the bits of exactly the words the distinct pass
    /// found, with their classes. The window holds a word only Constant
    /// loads touch, a word a Strided and an Irregular load share, and
    /// the top line's last words, at lengths either side of
    /// [`BITSET_WINDOW`]; the reuse side equals the unmasked pass's.
    #[test]
    fn masked_pass_matches_the_distinct_pass_at_every_split() {
        use std::collections::BTreeMap;
        const CONSTANT_ONLY: u64 = 0x2000;
        const SHARED: u64 = 0x3008;
        let access = |i: u64| -> (Addr, u8, u64) {
            let class = [STRIDED, IRREGULAR, 0][(i % 3) as usize];
            match i % 5 {
                0 => (Addr(u64::MAX - 8 * (i % 3)), class, 1),
                1 => (Addr(CONSTANT_ONLY), 0, 2),
                2 => (Addr(SHARED), [STRIDED, IRREGULAR][(i / 5 % 2) as usize], 0),
                _ => (Addr(0x1_0000 + 8 * ((i * 13) % 97)), class, i % 4),
            }
        };
        let fb = BlockSize::WORD;
        for k in 0..=6u8 {
            let rb = BlockSize::from_log2(fb.log2() + k);
            let split = LineSplit::new(rb, fb).unwrap();
            assert_eq!(split.k(), u32::from(k));
            for n in [1, 3, 17, BITSET_WINDOW, BITSET_WINDOW + 1, 300] {
                let items: Vec<_> = (0..n as u64).map(access).collect();
                let (want, distinct) = with_workspace(|ws| {
                    let words = items.iter().map(|&(a, c, i)| (a.block(fb), c, i));
                    (ws.distinct_pass(words), ws.distinct().to_vec())
                });
                let plain = with_workspace(|ws| {
                    ws.reuse_pass(items.iter().map(|&(a, _, i)| (a.block(rb), i)));
                    (ws.reuses().to_vec(), ws.rows().to_vec())
                });
                let (counts, masked, lines) = with_workspace(|ws| {
                    ws.masked_reuse_pass(
                        (items.iter()).map(|&(a, c, i)| (a.block(rb), i, split.touch(a, c))),
                    );
                    let lines: Vec<(u64, [u64; 3])> = ws.lines().collect();
                    let masked = (ws.reuses().to_vec(), ws.rows().to_vec());
                    (ws.line_counts(), masked, lines)
                });
                let at = format!("k {k} n {n}");
                assert_eq!(counts, want, "{at}");
                assert_eq!(masked, plain, "{at}");
                let mut by_line = BTreeMap::<u64, [u64; 3]>::new();
                for &(word, mask) in &distinct {
                    let bit = 1u64 << (word & ((1 << k) - 1));
                    let cols = by_line.entry(word >> k).or_default();
                    cols[0] |= bit;
                    cols[1] |= bit * u64::from(mask & STRIDED != 0);
                    cols[2] |= bit * u64::from(mask & IRREGULAR != 0);
                }
                assert_eq!(lines.len(), by_line.len(), "{at}: one row per line");
                assert_eq!(
                    lines.into_iter().collect::<BTreeMap<_, _>>(),
                    by_line,
                    "{at}"
                );
                // The three kinds of word the window was built around.
                let word_bits = |addr: u64| {
                    let word = Addr(addr).block(fb);
                    let cols = by_line[&(word >> k)];
                    cols.map(|c| c >> (word & ((1 << k) - 1)) & 1)
                };
                assert_eq!(word_bits(u64::MAX)[0], 1, "{at}: the top word");
                if n > 2 {
                    assert_eq!(word_bits(CONSTANT_ONLY), [1, 0, 0], "{at}");
                    let both = if n > 7 { [1, 1, 1] } else { [1, 1, 0] };
                    assert_eq!(word_bits(SHARED), both, "{at}");
                }
            }
        }
    }

    #[test]
    fn footprint_blocks_ride_the_line_only_when_64_fit() {
        let split =
            |rb: u8, fb: u8| LineSplit::new(BlockSize::from_log2(rb), BlockSize::from_log2(fb));
        assert_eq!(split(6, 3).map(LineSplit::k), Some(3));
        assert_eq!(split(6, 6).map(LineSplit::k), Some(0));
        assert_eq!(split(6, 0).map(LineSplit::k), Some(6));
        assert_eq!(split(7, 0), None, "128 bytes a line");
        assert_eq!(split(12, 0), None, "a page of bytes");
        assert_eq!(split(6, 12), None, "a footprint block above the line");
    }

    #[test]
    fn split_groups_positions_by_key_in_order() {
        let mut split = Split::default();
        let group = |split: &mut Split, keys: &[u32]| {
            split.group(keys.iter().copied());
            (split.stretches())
                .map(|(key, positions)| (key, positions.to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            group(&mut split, &[3, 1, 3, 0, 1, 3]),
            [(3, vec![0, 2, 5]), (1, vec![1, 4]), (0, vec![3])]
        );
        // A second split starts from nothing: no key of the first one
        // stays grouped.
        assert_eq!(
            group(&mut split, &[0, 7, 0]),
            [(0, vec![0, 2]), (7, vec![1])]
        );
        assert_eq!(group(&mut split, &[]), []);
    }

    #[test]
    fn resolver_numbers_functions_in_first_seen_order() {
        use memgaze_model::{FunctionId, IpAnnot};
        let mut symbols = SymbolTable::new();
        symbols.add_function("a", Ip(0x100), Ip(0x200), "a.c");
        symbols.add_function("b", Ip(0x200), Ip(0x300), "a.c");
        let mut annots = AuxAnnotations::new();
        let mut an = IpAnnot::of_class(LoadClass::Strided, FunctionId(1));
        an.implied_const = 3;
        annots.insert(Ip(0x210), an);
        let mut r = IpResolver::new(&symbols, &annots);
        let b = r.resolve(Ip(0x210));
        assert_eq!((b.slot, b.class, b.implied, b.site), (0, STRIDED, 3, 0));
        assert_eq!(r.resolve(Ip(0x999)).slot, 1);
        let a = r.resolve(Ip(0x110));
        assert_eq!((a.slot, a.class, a.implied, a.site), (2, IRREGULAR, 0, 2));
        // A second ip of a known function: its slot, a site of its own.
        let b2 = r.resolve(Ip(0x220));
        assert_eq!((b2.slot, b2.site), (0, 3));
        assert_eq!(r.function(0), (1, "b"));
        assert_eq!(r.function(1), (u32::MAX, "<unknown>"));
        assert_eq!(r.function(2), (0, "a"));
        assert_eq!(r.resolve(Ip(0x210)), b);
    }
}
