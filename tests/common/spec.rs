//! The executable definitions the analysis engine answers to.
//!
//! One function per definition of PAPER.md §IV–V, written with sets,
//! maps and nested loops: no window kernel, no per-ip resolver, no
//! threads, no cache, quadratic where the definition is. The production
//! path (`StreamingAnalyzer::ingest_shard → into_partial →
//! PartialReport::finish`) is held equal to it field for field, bit for
//! bit, by [`check_report`]; the location zoom (`zoom_trace_with`) is
//! held equal to [`zoom`], the window series to [`window_series`]. It
//! imports nothing from `memgaze_analysis` but the result types it
//! fills, the zoom's parameters, `Confidence::from_observations` and the
//! quadratic reuse-distance definition `analyze_window_naive`.
//!
//! Integers are exact whatever the order. Every `f64` is either one
//! expression over integer totals, written here in the order the
//! equation reads, or a sum of per-window terms; those sums run in
//! trace order (windows of a sample, then samples), which is where
//! equality with the engine relies on order — `f64` addition is not
//! associative, and the engine promises this order for any sharding.
//!
//! Included by `#[path]` from the suites that use it; compiled into no
//! library.
#![allow(dead_code)]

use memgaze_analysis::{
    analyze_window_naive, Confidence, FunctionRow, IngestStats, IntervalRow, LocalityPoint,
    RegionCode, RegionRow, StreamingReport, WindowKind, WindowPoint, ZoomConfig, ZoomRegion,
};
use memgaze_model::{
    Access, AuxAnnotations, BlockSize, DecompressionInfo, LoadClass, SampledTrace, SymbolTable,
};
use std::collections::{BTreeMap, BTreeSet};

/// What a report is a function of.
pub struct Input<'a> {
    pub trace: &'a SampledTrace,
    pub annots: &'a AuxAnnotations,
    pub symbols: &'a SymbolTable,
    /// Block size of footprint metrics.
    pub footprint_block: BlockSize,
    /// Block size of reuse distance.
    pub reuse_block: BlockSize,
}

// ---- §III-C, §V: the scalar definitions ----

/// `κ(σ) = 1 + A_const(σ)/A(σ)` (Eq. 2); 1 when nothing was observed.
fn kappa(observed: u64, implied_const: u64) -> f64 {
    if observed == 0 {
        1.0
    } else {
        1.0 + implied_const as f64 / observed as f64
    }
}

/// `ρ = |σ|(w+z) / (κ(σ)·A(σ))` (Eq. 1); 1 (scaling is the identity)
/// without samples or observations.
fn rho(samples: u64, period: u64, observed: u64, kappa: f64) -> f64 {
    let implied = kappa * observed as f64;
    if samples == 0 || implied <= 0.0 {
        1.0
    } else {
        (samples as f64 * period as f64) / implied
    }
}

/// `ΔF(σ) = F(σ) / (κ(σ)·A(σ))` (Eq. 4); 0 for an empty window.
fn delta_f(footprint: u64, observed: u64, kappa: f64) -> f64 {
    let decompressed = kappa * observed as f64;
    if decompressed <= 0.0 {
        0.0
    } else {
        footprint as f64 / decompressed
    }
}

/// `F̂ = ρ·F` in bytes (Eq. 3, inter-window case).
fn f_hat_bytes(rho: f64, footprint: u64, bs: BlockSize) -> f64 {
    rho * footprint as f64 * bs.bytes() as f64
}

/// The footprint of a window: the set of blocks it touches (§V-C).
fn blocks(window: &[Access], bs: BlockSize) -> BTreeSet<u64> {
    window.iter().map(|a| a.addr.block(bs)).collect()
}

/// The blocks of a window touched by a load of `class` (§V-E). An ip
/// without an annotation is Irregular.
fn blocks_of_class(
    window: &[Access],
    annots: &AuxAnnotations,
    bs: BlockSize,
    class: LoadClass,
) -> BTreeSet<u64> {
    window
        .iter()
        .filter(|a| annots.class_of(a.ip) == class)
        .map(|a| a.addr.block(bs))
        .collect()
}

/// `A_const(σ)`: the Constant loads the window's loads stand proxy for.
fn implied_const(window: &[Access], annots: &AuxAnnotations) -> u64 {
    window.iter().map(|a| annots.implied_const_of(a.ip)).sum()
}

/// The footprint access diagnostics of one window (§V-E).
struct Diagnostics {
    observed: u64,
    implied_const: u64,
    footprint: u64,
    f_str: u64,
    f_irr: u64,
}

impl Diagnostics {
    fn of(window: &[Access], annots: &AuxAnnotations, bs: BlockSize) -> Diagnostics {
        Diagnostics {
            observed: window.len() as u64,
            implied_const: implied_const(window, annots),
            footprint: blocks(window, bs).len() as u64,
            f_str: blocks_of_class(window, annots, bs, LoadClass::Strided).len() as u64,
            f_irr: blocks_of_class(window, annots, bs, LoadClass::Irregular).len() as u64,
        }
    }

    fn kappa(&self) -> f64 {
        kappa(self.observed, self.implied_const)
    }
}

/// `(block, distance)` of every reuse in a window, by the quadratic
/// definition: the distinct other blocks between two consecutive
/// accesses to a block (§IV-A).
fn reuses(window: &[Access], bs: BlockSize) -> Vec<(u64, u64)> {
    analyze_window_naive(window, bs)
        .events
        .iter()
        .map(|e| (e.block, e.distance))
        .collect()
}

/// Mean reuse distance `D`: an integer sum over an integer count, 0
/// when nothing is reused.
fn mean_distance(reuses: &[(u64, u64)]) -> f64 {
    if reuses.is_empty() {
        0.0
    } else {
        reuses.iter().map(|&(_, d)| d).sum::<u64>() as f64 / reuses.len() as f64
    }
}

// ---- the report ----

/// `|σ|`, `w+z`, `A(σ)`, `A_const(σ)` of the whole trace.
pub fn decompression(i: &Input) -> DecompressionInfo {
    let mut observed = 0u64;
    let mut implied = 0u64;
    for s in &i.trace.samples {
        observed += s.accesses.len() as u64;
        implied += implied_const(&s.accesses, i.annots);
    }
    DecompressionInfo {
        num_samples: i.trace.samples.len() as u64,
        period: i.trace.meta.period,
        observed,
        implied_const: implied,
    }
}

/// The sample ratio of the whole trace.
fn trace_rho(i: &Input) -> f64 {
    let d = decompression(i);
    rho(
        d.num_samples,
        d.period,
        d.observed,
        kappa(d.observed, d.implied_const),
    )
}

/// `(id, name)` of the function an ip belongs to, by the symbol table;
/// ips outside every function share `<unknown>`.
fn function_of(symbols: &SymbolTable, a: &Access) -> (u32, String) {
    match symbols.lookup(a.ip) {
        Some(f) => (f.id.0, f.name.clone()),
        None => (u32::MAX, "<unknown>".to_string()),
    }
}

/// The hot-function table (Tables IV / VI): one row per function over
/// its code window — its accesses concatenated over samples (§IV-B) —
/// hottest first, ties in function-id order.
pub fn function_rows(i: &Input) -> Vec<FunctionRow> {
    let rho = trace_rho(i);
    let fb = i.footprint_block;
    // Per function: name, code window, and the footprint of its
    // accesses in each sample it appears in.
    let mut functions: BTreeMap<u32, (String, Vec<Access>, Vec<f64>)> = BTreeMap::new();
    for s in &i.trace.samples {
        let mut in_sample: BTreeMap<u32, Vec<Access>> = BTreeMap::new();
        for a in &s.accesses {
            let (id, name) = function_of(i.symbols, a);
            functions
                .entry(id)
                .or_insert((name, Vec::new(), Vec::new()));
            in_sample.entry(id).or_default().push(*a);
        }
        for (id, accesses) in in_sample {
            let f = functions.get_mut(&id).expect("entered above");
            f.2.push(blocks(&accesses, fb).len() as f64);
            f.1.extend(accesses);
        }
    }
    let mut rows: Vec<FunctionRow> = functions
        .into_values()
        .map(|(name, window, per_sample_footprints)| {
            let d = Diagnostics::of(&window, i.annots, fb);
            let classified = (d.f_str + d.f_irr) as f64;
            FunctionRow {
                name,
                f_hat_bytes: f_hat_bytes(rho, d.footprint, fb),
                delta_f: delta_f(d.footprint, d.observed, d.kappa()),
                f_str_pct: if classified == 0.0 {
                    0.0
                } else {
                    100.0 * d.f_str as f64 / classified
                },
                accesses_decompressed: d.kappa() * d.observed as f64,
                observed: d.observed,
                // Reuse over the whole code window: a block last touched
                // in an earlier sample is a reuse here.
                mean_d: mean_distance(&reuses(&window, i.reuse_block)),
                confidence: Confidence::from_observations(&per_sample_footprints),
            }
        })
        .collect();
    rows.sort_by(|a, b| b.accesses_decompressed.total_cmp(&a.accesses_decompressed));
    rows
}

/// Per-block reuse of the trace (§IV-C2), reuse taken inside each
/// sample: `(block, [accesses, Σ distance, reuses, max distance])` in
/// block order.
pub fn block_rows(i: &Input) -> Vec<(u64, [u64; 4])> {
    let mut rows: BTreeMap<u64, [u64; 4]> = BTreeMap::new();
    for s in &i.trace.samples {
        for a in &s.accesses {
            rows.entry(a.addr.block(i.reuse_block)).or_default()[0] += 1;
        }
        for (block, d) in reuses(&s.accesses, i.reuse_block) {
            let row = rows.entry(block).or_default();
            row[1] += d;
            row[2] += 1;
            row[3] = row[3].max(d);
        }
    }
    rows.into_iter().collect()
}

/// The reuse row of the address range `[lo, hi)`: a block is in it when
/// their byte ranges intersect.
pub fn region_row(i: &Input, lo: u64, hi: u64) -> RegionRow {
    region_row_over(
        &block_rows(i),
        decompression(i).observed,
        i.reuse_block,
        lo,
        hi,
    )
}

/// [`region_row`] over block rows already at hand.
fn region_row_over(
    block_rows: &[(u64, [u64; 4])],
    total: u64,
    bs: BlockSize,
    lo: u64,
    hi: u64,
) -> RegionRow {
    let k = bs.log2();
    let inside = |block: u64| {
        let (start, end) = ((block as u128) << k, (block as u128 + 1) << k);
        lo < hi && start < hi as u128 && end > lo as u128
    };
    let rows: Vec<[u64; 4]> = block_rows
        .iter()
        .filter(|&&(b, _)| inside(b))
        .map(|&(_, r)| r)
        .collect();
    let accesses: u64 = rows.iter().map(|r| r[0]).sum();
    let (dist, reuses): (u64, u64) = rows.iter().fold((0, 0), |(d, n), r| (d + r[1], n + r[2]));
    RegionRow {
        range: (lo, hi),
        reuse_d: if reuses == 0 {
            0.0
        } else {
            dist as f64 / reuses as f64
        },
        max_d: rows.iter().map(|r| r[3]).max().unwrap_or(0),
        blocks: rows.len() as u64,
        accesses,
        pct_of_total: if total == 0 {
            0.0
        } else {
            100.0 * accesses as f64 / total as f64
        },
        code: Vec::new(),
    }
}

/// The log2 histogram of every intra-sample reuse distance: `(lower
/// bound of the bin, count)` for populated bins — 0 has its own bin,
/// then `[1, 2)`, `[2, 4)`, `[4, 8)`, … — with the count and the sum of
/// the distances.
pub fn reuse_histogram(i: &Input) -> (Vec<(u64, u64)>, u64, u64) {
    let mut bins: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut count, mut sum) = (0u64, 0u64);
    for s in &i.trace.samples {
        for (_, d) in reuses(&s.accesses, i.reuse_block) {
            let lower = if d == 0 { 0 } else { 1u64 << d.ilog2() };
            *bins.entry(lower).or_default() += 1;
            count += 1;
            sum += d;
        }
    }
    (bins.into_iter().collect(), count, sum)
}

/// Intra-sample locality against interval size (Fig. 9): each sample
/// chopped into intervals of `size` accesses (a tail shorter than half
/// an interval is skipped), mean `D`, `ΔF` and `F` over the intervals.
/// A size no interval fits has no point. Sums run over a sample's
/// intervals, then over the samples' sums.
pub fn locality_series(i: &Input, sizes: &[u64]) -> Vec<LocalityPoint> {
    let bs = i.reuse_block;
    let mut out = Vec::new();
    for &size in sizes {
        let chunk = size.max(1) as usize;
        let mut n = 0u64;
        let (mut sum_d, mut sum_g, mut sum_f) = (0.0, 0.0, 0.0);
        for s in &i.trace.samples {
            let mut sample_n = 0u64;
            let (mut d, mut g, mut f) = (0.0, 0.0, 0.0);
            for w in s.accesses.chunks(chunk) {
                if w.len() < chunk.div_ceil(2) {
                    continue;
                }
                let footprint = blocks(w, bs).len() as u64;
                let observed = w.len() as u64;
                sample_n += 1;
                d += mean_distance(&reuses(w, bs));
                g += delta_f(
                    footprint,
                    observed,
                    kappa(observed, implied_const(w, i.annots)),
                );
                f += footprint as f64;
            }
            n += sample_n;
            sum_d += d;
            sum_g += g;
            sum_f += f;
        }
        if n > 0 {
            out.push(LocalityPoint {
                interval: size,
                mean_d: sum_d / n as f64,
                mean_delta_f: sum_g / n as f64,
                mean_f: sum_f / n as f64,
                windows: n,
            });
        }
    }
    out
}

/// Footprint metrics against window size (Fig. 6, §IV-B), sizes in
/// decompressed accesses. A size no larger than the mean decompressed
/// sample — any size, for a trace without a period — is intra-sample:
/// every sample chopped into intervals of `size / κ` observed accesses
/// (rounded, at least one; a tail shorter than half an interval
/// skipped), each measured exactly. A size of at least a period is
/// inter-sample: runs of `size / period` consecutive samples (rounded,
/// at least one), footprints added and scaled by ρ (Eq. 3), a run
/// standing for its samples' periods and skipped when it observed
/// nothing. A size between the two is the R2 blind spot (§IV-A) and has
/// no point; nor has a size without a window. Intra-sample sums run over
/// a sample's intervals, then over the samples' sums.
pub fn window_series(i: &Input, sizes: &[u64]) -> Vec<WindowPoint> {
    let d = decompression(i);
    let k = kappa(d.observed, d.implied_const);
    let rho = rho(d.num_samples, d.period, d.observed, k);
    let samples = &i.trace.samples;
    let mean_window = if samples.is_empty() {
        0.0
    } else {
        d.observed as f64 / samples.len() as f64
    };
    let add = |sum: &mut [f64; 5], terms: [f64; 5]| {
        for (s, t) in sum.iter_mut().zip(terms) {
            *s += t;
        }
    };
    let mut out = Vec::new();
    for &size in sizes {
        let (mut n, mut sum) = (0u64, [0.0f64; 5]);
        let kind = if size as f64 <= (mean_window * k).max(1.0) || d.period == 0 {
            let chunk = ((size as f64 / k).round() as usize).max(1);
            for s in samples {
                let mut sample_sum = [0.0f64; 5];
                for w in s.accesses.chunks(chunk) {
                    if w.len() < chunk.div_ceil(2) {
                        continue;
                    }
                    let wd = Diagnostics::of(w, i.annots, i.footprint_block);
                    let (f, wk) = (wd.footprint, wd.kappa());
                    n += 1;
                    add(
                        &mut sample_sum,
                        [
                            f as f64,
                            wd.f_str as f64,
                            wd.f_irr as f64,
                            delta_f(f, wd.observed, wk),
                            wk * wd.observed as f64,
                        ],
                    );
                }
                add(&mut sum, sample_sum);
            }
            WindowKind::Intra
        } else if size >= d.period {
            let per_run = ((size as f64 / d.period as f64).round() as usize).max(1);
            for run in samples.chunks(per_run) {
                let [mut observed, mut implied, mut f, mut f_str, mut f_irr] = [0u64; 5];
                for s in run {
                    let sd = Diagnostics::of(&s.accesses, i.annots, i.footprint_block);
                    observed += sd.observed;
                    implied += sd.implied_const;
                    f += sd.footprint;
                    f_str += sd.f_str;
                    f_irr += sd.f_irr;
                }
                if observed == 0 {
                    continue;
                }
                n += 1;
                add(
                    &mut sum,
                    [
                        rho * f as f64,
                        rho * f_str as f64,
                        rho * f_irr as f64,
                        delta_f(f, observed, kappa(observed, implied)),
                        run.len() as f64 * d.period as f64,
                    ],
                );
            }
            WindowKind::Inter
        } else {
            continue;
        };
        if n > 0 {
            let mean = |x: f64| x / n as f64;
            out.push(WindowPoint {
                target_size: size,
                effective_size: mean(sum[4]),
                windows: n,
                f: mean(sum[0]),
                f_str: mean(sum[1]),
                f_irr: mean(sum[2]),
                delta_f: mean(sum[3]),
                kind,
            });
        }
    }
    out
}

/// Locality over time (Table VIII): the samples split into `n` equal
/// runs (the last may be short). Per run, footprints of samples add —
/// the over-estimate §VI-A accepts — and `D` is the mean over the
/// run's reuses, summed sample by sample as `mean·count`.
pub fn interval_rows(i: &Input, n: usize) -> Vec<IntervalRow> {
    let samples = &i.trace.samples;
    if samples.is_empty() || n == 0 {
        return Vec::new();
    }
    let rho = trace_rho(i);
    let fb = i.footprint_block;
    samples
        .chunks(samples.len().div_ceil(n))
        .enumerate()
        .map(|(interval, run)| {
            let (mut observed, mut implied, mut footprint) = (0u64, 0u64, 0u64);
            let mut d_sum = 0.0;
            let mut d_n = 0u64;
            for s in run {
                let d = Diagnostics::of(&s.accesses, i.annots, fb);
                observed += d.observed;
                implied += d.implied_const;
                footprint += d.footprint;
                let r = reuses(&s.accesses, i.reuse_block);
                if !r.is_empty() {
                    d_sum += mean_distance(&r) * r.len() as f64;
                    d_n += r.len() as u64;
                }
            }
            let kappa = kappa(observed, implied);
            IntervalRow {
                interval,
                f_hat_bytes: f_hat_bytes(rho, footprint, fb),
                delta_f: delta_f(footprint, observed, kappa),
                mean_d: if d_n == 0 { 0.0 } else { d_sum / d_n as f64 },
                accesses_decompressed: kappa * observed as f64,
            }
        })
        .collect()
}

/// The ingest accounting of a pass over the trace in shards of
/// `shard_samples`: it describes the sharding, not the trace.
pub fn ingest(trace: &SampledTrace, shard_samples: usize) -> IngestStats {
    let mut stats = IngestStats::default();
    for shard in trace.samples.chunks(shard_samples.max(1)) {
        let accesses: usize = shard.iter().map(|s| s.accesses.len()).sum();
        stats.shards += 1;
        stats.samples += shard.len() as u64;
        stats.merge_events += 1;
        stats.peak_shard_samples = stats.peak_shard_samples.max(shard.len());
        stats.peak_shard_bytes = stats
            .peak_shard_bytes
            .max(accesses * std::mem::size_of::<Access>());
    }
    stats
}

// ---- §IV-C2: the location zoom ----

/// The location-zoom tree (Fig. 5) over the flattened access stream,
/// level by level. The root is `[min, max + 1)` of the addresses (`hi`
/// saturates at the top of the address space, and a range that ends
/// there holds the last address). A region is cut into pages; a maximal
/// run of contiguous touched pages holding at least `t`% of the region's
/// accesses is a hot subregion, zoomed in turn at a smaller page — down
/// to the page floor, which is never finer than the access block,
/// because `D` and `#blocks` are per block.
pub fn zoom(i: &Input, cfg: ZoomConfig) -> Option<ZoomRegion> {
    let accesses: Vec<Access> = i
        .trace
        .samples
        .iter()
        .flat_map(|s| &s.accesses)
        .copied()
        .collect();
    let hi = accesses
        .iter()
        .map(|a| a.addr.raw())
        .max()?
        .saturating_add(1);
    let lo = accesses.iter().map(|a| a.addr.raw()).min()?.min(hi - 1);
    let zoom = Zoom {
        input: i,
        cfg,
        floor: cfg.min_page_log2.max(cfg.access_block.log2()).min(63),
        block_rows: block_rows(&Input {
            reuse_block: cfg.access_block,
            ..*i
        }),
        total: accesses.len() as u64,
    };
    // At least four pages at the top: a span smaller than one page
    // would otherwise never be divided.
    let span_log2 = (hi - lo).ilog2() as u8;
    let page_log2 = cfg
        .initial_page_log2
        .min(span_log2.saturating_sub(2))
        .max(zoom.floor);
    Some(zoom.region(lo, hi, &accesses, page_log2, 0))
}

struct Zoom<'a> {
    input: &'a Input<'a>,
    cfg: ZoomConfig,
    /// The page floor in effect.
    floor: u8,
    /// Per-block reuse at the zoom's access block.
    block_rows: Vec<(u64, [u64; 4])>,
    /// Accesses in the trace.
    total: u64,
}

impl Zoom<'_> {
    /// The region `[lo, hi)` holding `members`, without children:
    /// accesses by counting, `D` and `#blocks` over the blocks its bytes
    /// intersect, and the four hottest functions by name — accesses
    /// descending, equal counts in name order — each with its hottest
    /// source line, the lowest among equally hot ones.
    fn describe(&self, lo: u64, hi: u64, members: &[Access], depth: u32) -> ZoomRegion {
        let row = region_row_over(&self.block_rows, self.total, self.cfg.access_block, lo, hi);
        let mut per_fn: BTreeMap<String, BTreeMap<u32, u64>> = BTreeMap::new();
        for a in members {
            let line = self.input.annots.get(a.ip).map_or(0, |an| an.src_line);
            let name = function_of(self.input.symbols, a).1;
            *per_fn.entry(name).or_default().entry(line).or_default() += 1;
        }
        let mut code: Vec<RegionCode> = per_fn
            .into_iter()
            .map(|(function, lines)| {
                // Lines ascend: a later line must be strictly hotter.
                let (mut hottest, mut hottest_line) = (0, 0);
                for (&line, &n) in &lines {
                    if n > hottest {
                        (hottest, hottest_line) = (n, line);
                    }
                }
                RegionCode {
                    function,
                    line: hottest_line,
                    accesses: lines.values().sum(),
                }
            })
            .collect();
        // Names ascend and the sort is stable.
        code.sort_by_key(|c| std::cmp::Reverse(c.accesses));
        code.truncate(4);
        ZoomRegion {
            lo,
            hi,
            accesses: members.len() as u64,
            pct_of_total: 100.0 * members.len() as f64 / self.total as f64,
            reuse_d: row.reuse_d,
            blocks: row.blocks,
            depth,
            children: Vec::new(),
            code,
        }
    }

    /// The region `[lo, hi)` and, below it, its hot subregions at pages
    /// of `1 << page_log2` bytes.
    fn region(
        &self,
        lo: u64,
        hi: u64,
        members: &[Access],
        page_log2: u8,
        depth: u32,
    ) -> ZoomRegion {
        let mut region = self.describe(lo, hi, members, depth);
        let cfg = &self.cfg;
        let size = hi - lo;
        if depth >= cfg.max_depth || size <= cfg.min_region_bytes || size <= 1 << page_log2 {
            return region;
        }
        let mut pages: BTreeMap<u64, Vec<Access>> = BTreeMap::new();
        for a in members {
            pages.entry(a.addr.raw() >> page_log2).or_default().push(*a);
        }
        // Maximal runs of contiguous touched pages: first page, last
        // page, members.
        let mut runs: Vec<(u64, u64, Vec<Access>)> = Vec::new();
        for (page, touched) in pages {
            match runs.last_mut() {
                Some((_, last, run)) if *last + 1 == page => {
                    *last = page;
                    run.extend(touched);
                }
                _ => runs.push((page, page, touched)),
            }
        }
        let threshold = (members.len() as f64 * cfg.hot_threshold_pct / 100.0).ceil() as usize;
        let next_page_log2 = page_log2.saturating_sub(cfg.shrink_log2).max(self.floor);
        for (first, last, run) in runs {
            if run.len() < threshold.max(1) {
                continue; // not hot enough
            }
            let run_lo = (first << page_log2).max(lo);
            let run_hi = ((last as u128 + 1) << page_log2).min(hi as u128) as u64;
            // A run that is its whole parent at a page that cannot
            // shrink would repeat for ever: the parent is the leaf.
            if (run_lo, run_hi) == (lo, hi) && next_page_log2 >= page_log2 {
                continue;
            }
            region
                .children
                .push(self.region(run_lo, run_hi, &run, next_page_log2, depth + 1));
        }
        region
    }
}

// ---- engine == spec ----

/// Address ranges worth asking a region row for: everything, nothing,
/// the top of the address space, and a few cuts through the touched
/// blocks, aligned and not.
fn probe_ranges(i: &Input) -> Vec<(u64, u64)> {
    let mut ranges = vec![
        (0, u64::MAX),
        (0, 0),
        (u64::MAX, u64::MAX),
        (1 << 40, 1 << 20),
    ];
    let touched: Vec<u64> = i
        .trace
        .samples
        .iter()
        .flat_map(|s| &s.accesses)
        .map(|a| a.addr.raw())
        .collect();
    if let (Some(&lo), Some(&hi)) = (touched.iter().min(), touched.iter().max()) {
        let mid = lo + (hi - lo) / 2;
        let block = i.reuse_block.bytes();
        ranges.extend([
            (lo, hi),
            (lo, hi.saturating_add(1)),
            (lo, mid),
            (mid, hi.saturating_add(1)),
            (
                mid & !(block - 1),
                (mid & !(block - 1)).saturating_add(block),
            ),
            (mid, mid.saturating_add(1)),
            (lo, lo),
        ]);
    }
    ranges
}

/// Everything a report is compared with, computed once per input: a
/// report depends on the sharding and the thread count only in its
/// ingest accounting.
pub struct Expected<'a> {
    trace: &'a SampledTrace,
    decompression: DecompressionInfo,
    function_rows: Vec<FunctionRow>,
    block_rows: Vec<(u64, [u64; 4])>,
    region_rows: Vec<RegionRow>,
    histogram: (Vec<(u64, u64)>, u64, u64),
    locality_series: Vec<LocalityPoint>,
    interval_rows: Vec<(usize, Vec<IntervalRow>)>,
}

impl<'a> Expected<'a> {
    /// The definitions over `input`, with `locality_sizes` configured.
    pub fn of(input: &Input<'a>, locality_sizes: &[u64]) -> Expected<'a> {
        let decompression = decompression(input);
        let block_rows = block_rows(input);
        let region_rows = probe_ranges(input)
            .into_iter()
            .map(|(lo, hi)| {
                region_row_over(
                    &block_rows,
                    decompression.observed,
                    input.reuse_block,
                    lo,
                    hi,
                )
            })
            .collect();
        Expected {
            trace: input.trace,
            decompression,
            function_rows: function_rows(input),
            block_rows,
            region_rows,
            histogram: reuse_histogram(input),
            locality_series: locality_series(input, locality_sizes),
            interval_rows: [0, 1, 3, 4, 8, input.trace.samples.len()]
                .into_iter()
                .map(|n| (n, interval_rows(input, n)))
                .collect(),
        }
    }

    /// Hold every field of `report` — and the rows it derives — equal
    /// to the definitions, for a pass that fed the trace in shards of
    /// `shard_samples`. The error names the first field that differs.
    pub fn check(&self, report: &StreamingReport, shard_samples: usize) -> Result<(), String> {
        fn same<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
            if got == want {
                Ok(())
            } else {
                Err(format!("{what}:\n  engine {got:?}\n  spec   {want:?}"))
            }
        }
        same("decompression", report.decompression, self.decompression)?;
        same("function_rows", &report.function_rows, &self.function_rows)?;
        same(
            "block_reuse rows",
            &report.block_reuse.raw_rows().collect::<Vec<_>>(),
            &self.block_rows,
        )?;
        for want in &self.region_rows {
            let (lo, hi) = want.range;
            same(
                &format!("region_row_for({lo:#x}, {hi:#x})"),
                &report.region_row_for(lo, hi),
                want,
            )?;
        }
        let (bins, count, sum) = &self.histogram;
        same(
            "reuse_histogram bins",
            &report.reuse_histogram.iter().collect::<Vec<_>>(),
            bins,
        )?;
        same(
            "reuse_histogram count",
            report.reuse_histogram.count(),
            *count,
        )?;
        same(
            "reuse_histogram mean",
            report.reuse_histogram.mean(),
            if *count == 0 {
                0.0
            } else {
                *sum as f64 / *count as f64
            },
        )?;
        same(
            "locality_series",
            &report.locality_series,
            &self.locality_series,
        )?;
        for (n, want) in &self.interval_rows {
            same(
                &format!("interval_rows({n})"),
                &report.interval_rows(*n),
                want,
            )?;
        }
        same("ingest", report.ingest, ingest(self.trace, shard_samples))
    }
}

/// [`Expected::of`] and [`Expected::check`] in one call.
pub fn check_report(
    report: &StreamingReport,
    input: &Input,
    locality_sizes: &[u64],
    shard_samples: usize,
) -> Result<(), String> {
    Expected::of(input, locality_sizes).check(report, shard_samples)
}
