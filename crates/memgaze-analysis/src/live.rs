//! Live rolling-window analysis: the one window engine `memgaze watch`
//! and `memgaze serve` share.
//!
//! Offline analysis sees the whole trace at once; live monitoring
//! (HMTT's online analyzer, BSC's live access-pattern tooling) sees an
//! unbounded stream and must answer "what changed?" window by window.
//! A closed window goes into [`WindowRing::close`] as its
//! [`PartialReport`] and the number of loads it covers, and comes out
//! as [`WindowStats`] — footprint growth, reuse-distance drift,
//! `A_const%` shift — plus deterministic [`AnomalyMark`]s when a metric
//! jumps past a threshold between consecutive windows ("ΔF_irr%
//! doubled in window N"). The ring keeps only the drift chain and the
//! marks.
//!
//! The loads are part of the window's data: Eq. 1 scales `F̂` by
//! `ρ = |σ|(w+z)/(κ·A)`, and `|σ|(w+z)` is exactly the loads the
//! window's samples covered, read off their trigger times (serve gives
//! an upload's first frame the rest of its trailer's `total_loads`), so
//! a window collected across a period retune is scaled by the loads it
//! really covered.
//!
//! Determinism is load-bearing: window stats derive from a partial's
//! per-sample diagnostics, whose merge laws make them bit-identical
//! across shard cuts; the drift tests are pure `f64` ratio comparisons.
//! Two runs over the same stream with the same config therefore mark
//! the same windows — the property `tests/watch_equivalence.rs` pins.

use crate::diagnostics::FootprintDiagnostics;
use crate::partial::PartialReport;
use crate::streaming::SampleReuseSummary;
use memgaze_model::{compression_ratio, sample_ratio, BlockSize};
use serde::{Deserialize, Serialize};

/// Ratio between consecutive windows at which a metric counts as
/// anomalous by default; `2.0` means "doubled". Every `serve` session
/// runs at it; `memgaze watch --anomaly-threshold` overrides it.
pub const ANOMALY_THRESHOLD: f64 = 2.0;

/// Windows with fewer observed accesses than this are too thin to
/// trust for drift — they update the chain but raise no marks.
const MIN_OBSERVED: u64 = 64;

/// Drift metrics of one closed window, folded from the window's
/// per-sample diagnostics and reuse rows — the fold
/// [`StreamingReport::interval_rows`](crate::StreamingReport::interval_rows)
/// runs, collapsed to one row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Window index (0-based, monotonically increasing).
    pub window: usize,
    /// Samples the window folded.
    pub samples: usize,
    /// Loads the window's samples covered, `|σ|(w+z)`: what ρ scales by.
    pub loads: u64,
    /// Observed accesses `A` across the window.
    pub observed: u64,
    /// Implied constant accesses `A_const` across the window.
    implied_const: u64,
    /// Estimated footprint `F̂` in bytes (`ρ · F · block`).
    pub f_hat_bytes: f64,
    /// Footprint growth `ΔF̂` of the merged window.
    pub delta_f: f64,
    /// Irregular share of footprint growth, `ΔF_irr%`.
    pub delta_f_irr_pct: f64,
    /// Constant-access share `A_const%`.
    pub a_const_pct: f64,
    /// Mean spatio-temporal reuse distance across the window's samples.
    pub mean_d: f64,
    /// Compression factor κ of the merged window.
    pub kappa: f64,
}

/// Which window metric drifted past the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnomalyKind {
    /// Estimated footprint `F̂` grew past the threshold ratio.
    FootprintGrowth,
    /// Mean reuse distance drifted up past the threshold ratio.
    ReuseDrift,
    /// `ΔF_irr%` (irregular-growth share) jumped past the threshold.
    IrregularShift,
    /// `A_const%` jumped past the threshold.
    ConstShift,
}

impl AnomalyKind {
    /// The metric's display name.
    pub fn metric(self) -> &'static str {
        match self {
            AnomalyKind::FootprintGrowth => "F_hat",
            AnomalyKind::ReuseDrift => "mean_d",
            AnomalyKind::IrregularShift => "dF_irr%",
            AnomalyKind::ConstShift => "A_const%",
        }
    }
}

/// One threshold crossing between consecutive windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnomalyMark {
    /// Window in which the jump was observed.
    pub window: usize,
    /// Which metric jumped.
    pub kind: AnomalyKind,
    /// `now / max(prev, floor)` — at least the configured threshold.
    pub ratio: f64,
    /// The metric's value in the previous window.
    prev: f64,
    /// The metric's value in this window.
    now: f64,
}

impl AnomalyMark {
    /// Human-readable description, e.g.
    /// `"dF_irr% x2.3 in window 7 (12.1 -> 27.8)"`.
    pub fn detail(&self) -> String {
        format!(
            "{} x{:.1} in window {} ({:.1} -> {:.1})",
            self.kind.metric(),
            self.ratio,
            self.window,
            self.prev,
            self.now
        )
    }
}

/// The drift chain of a stream of windows: each closed window is
/// tested against the previous one, and every mark is kept.
#[derive(Debug)]
pub struct WindowRing {
    anomaly_threshold: f64,
    prev: Option<WindowStats>,
    closed: usize,
    anomalies: Vec<AnomalyMark>,
}

/// Floor applied to a previous value before the ratio test, so a
/// near-zero baseline doesn't turn noise into an infinite ratio.
const DRIFT_FLOORS: [(AnomalyKind, f64); 4] = [
    (AnomalyKind::FootprintGrowth, 64.0),
    (AnomalyKind::ReuseDrift, 1.0),
    (AnomalyKind::IrregularShift, 1.0),
    (AnomalyKind::ConstShift, 1.0),
];

impl WindowRing {
    /// An empty ring marking jumps of at least `anomaly_threshold`.
    pub fn new(anomaly_threshold: f64) -> WindowRing {
        WindowRing {
            anomaly_threshold,
            prev: None,
            closed: 0,
            anomalies: Vec::new(),
        }
    }

    fn metric(kind: AnomalyKind, s: &WindowStats) -> f64 {
        match kind {
            AnomalyKind::FootprintGrowth => s.f_hat_bytes,
            AnomalyKind::ReuseDrift => s.mean_d,
            AnomalyKind::IrregularShift => s.delta_f_irr_pct,
            AnomalyKind::ConstShift => s.a_const_pct,
        }
    }

    /// Close a window: fold its partial's per-sample rows into stats
    /// with `ρ = loads / (κ·A)` (Eq. 1 with `|σ|(w+z)` = the `loads` the
    /// window covered), test drift against the previous window, and
    /// return the stats plus any new marks.
    pub fn close(
        &mut self,
        partial: &PartialReport,
        loads: u64,
    ) -> (WindowStats, Vec<AnomalyMark>) {
        let stats = self.next_stats(
            &partial.per_sample_diags,
            &partial.per_sample_reuse,
            partial.footprint_block,
            loads,
        );
        (stats, self.close_stats(stats))
    }

    /// The stats [`close`](Self::close) would give the next window,
    /// leaving the ring as it is. The window is its samples' rows: a
    /// partial's, or the ones a running
    /// [`StreamingAnalyzer`](crate::StreamingAnalyzer) added over the
    /// window ([`sample_rows`](crate::StreamingAnalyzer::sample_rows)),
    /// which are the same rows.
    pub fn next_stats(
        &self,
        diags: &[FootprintDiagnostics],
        reuse: &[SampleReuseSummary],
        footprint_block: BlockSize,
        loads: u64,
    ) -> WindowStats {
        let mut diag: Option<FootprintDiagnostics> = None;
        for d in diags {
            match &mut diag {
                Some(m) => m.merge(d),
                None => diag = Some(*d),
            }
        }
        let diag = diag.unwrap_or_default();
        let mut d_sum = 0.0;
        let mut d_n = 0u64;
        for r in reuse {
            if r.events > 0 {
                d_sum += r.mean_d * r.events as f64;
                d_n += r.events as u64;
            }
        }
        // A partial's `observed` and `implied_const` are its rows' sums.
        let kappa = compression_ratio(diag.observed, diag.implied_const);
        let rho = sample_ratio(loads, diag.observed, kappa);
        WindowStats {
            window: self.closed,
            samples: diags.len(),
            loads,
            observed: diag.observed,
            implied_const: diag.implied_const,
            f_hat_bytes: rho * diag.footprint as f64 * footprint_block.bytes() as f64,
            delta_f: diag.delta_f(),
            delta_f_irr_pct: diag.delta_f_irr_pct(),
            a_const_pct: diag.a_const_pct(),
            mean_d: if d_n == 0 { 0.0 } else { d_sum / d_n as f64 },
            kappa: diag.kappa,
        }
    }

    /// Close the window `stats` describes, as
    /// [`next_stats`](Self::next_stats) gave them: test drift against
    /// the previous window and return any new marks.
    pub fn close_stats(&mut self, stats: WindowStats) -> Vec<AnomalyMark> {
        debug_assert_eq!(stats.window, self.closed, "stats of the next window");
        self.closed += 1;
        let mut marks = Vec::new();
        if let Some(prev) = &self.prev {
            if prev.observed >= MIN_OBSERVED && stats.observed >= MIN_OBSERVED {
                for (kind, floor) in DRIFT_FLOORS {
                    let was = Self::metric(kind, prev).max(floor);
                    let now = Self::metric(kind, &stats);
                    let ratio = now / was;
                    if ratio >= self.anomaly_threshold {
                        marks.push(AnomalyMark {
                            window: stats.window,
                            kind,
                            ratio,
                            prev: Self::metric(kind, prev),
                            now,
                        });
                    }
                }
            }
        }
        self.prev = Some(stats);
        self.anomalies.extend(marks.iter().cloned());
        marks
    }

    /// Every mark raised since the ring was created.
    pub fn anomalies(&self) -> &[AnomalyMark] {
        &self.anomalies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::AnalysisConfig;
    use crate::streaming::StreamingAnalyzer;
    use memgaze_model::{
        Access, AuxAnnotations, FunctionId, Ip, IpAnnot, LoadClass, Sample, SymbolTable,
    };

    /// The period the hand-built samples are triggered at.
    const PERIOD: u64 = 1000;

    fn window_partial(samples: &[Sample]) -> PartialReport {
        let (annots, symbols) = side_tables();
        let mut sa = StreamingAnalyzer::new(&annots, &symbols, AnalysisConfig::default());
        sa.ingest_shard(samples);
        sa.into_partial()
    }

    fn side_tables() -> (AuxAnnotations, SymbolTable) {
        let mut annots = AuxAnnotations::new();
        annots.insert(
            Ip(0x400),
            IpAnnot {
                implied_const: 1,
                ..IpAnnot::of_class(LoadClass::Strided, FunctionId(0))
            },
        );
        annots.insert(
            Ip(0x404),
            IpAnnot::of_class(LoadClass::Irregular, FunctionId(0)),
        );
        (annots, SymbolTable::new())
    }

    /// Close a window whose samples each covered one full period.
    fn close(ring: &mut WindowRing, samples: &[Sample]) -> (WindowStats, Vec<AnomalyMark>) {
        ring.close(&window_partial(samples), samples.len() as u64 * PERIOD)
    }

    fn strided(samples: usize, base: u64) -> Vec<Sample> {
        (0..samples)
            .map(|s| {
                let accesses: Vec<Access> = (0..100u64)
                    .map(|i| Access::new(0x400, base + (s as u64 * 100 + i) * 64, i))
                    .collect();
                Sample::new(accesses, (s as u64 + 1) * PERIOD)
            })
            .collect()
    }

    fn scattered(samples: usize, spread: u64) -> Vec<Sample> {
        (0..samples)
            .map(|s| {
                let accesses: Vec<Access> = (0..100u64)
                    .map(|i| {
                        let x = s as u64 * 100 + i;
                        Access::new(0x404, 0x900_0000 + (x * x * 2654435761) % spread, i)
                    })
                    .collect();
                Sample::new(accesses, (s as u64 + 1) * PERIOD)
            })
            .collect()
    }

    /// A window's stats over the rows a running analyzer added for it
    /// equal the stats over the window's own partial, which is what a
    /// partial's `close` reads: a sample's rows depend on that sample
    /// alone, and `κ` and `ρ` read sums of them.
    #[test]
    fn next_stats_over_a_partial_equals_next_stats_over_its_rows() {
        let (annots, symbols) = side_tables();
        let cfg = AnalysisConfig::default();
        // Scattered over 64 lines, so the window's samples reuse.
        let (before, window) = (strided(3, 0), scattered(4, 1 << 12));
        let mut running = StreamingAnalyzer::new(&annots, &symbols, cfg);
        running.ingest_shard(&before);
        let from = running.stats().samples as usize;
        running.ingest_shard(&window);
        let partial = window_partial(&window);
        let (diags, reuse) = running.sample_rows(from);
        assert_eq!(diags, &partial.per_sample_diags[..]);
        assert_eq!(reuse, &partial.per_sample_reuse[..]);
        let sum = |of: fn(&FootprintDiagnostics) -> u64| diags.iter().map(of).sum::<u64>();
        assert_eq!(sum(|d| d.observed), partial.observed);
        assert_eq!(sum(|d| d.implied_const), partial.implied_const);
        let ring = WindowRing::new(ANOMALY_THRESHOLD);
        for loads in [0, 1, 4 * PERIOD, u64::MAX] {
            let rows = ring.next_stats(diags, reuse, cfg.footprint_block, loads);
            let (own, _) = WindowRing::new(ANOMALY_THRESHOLD).close(&partial, loads);
            assert_eq!(rows, own);
            assert!(rows.mean_d > 0.0, "{rows:?}");
        }
        // No rows are an empty window.
        let none = ring.next_stats(&[], &[], cfg.footprint_block, 4 * PERIOD);
        let empty = PartialReport::empty(cfg.footprint_block, cfg.reuse_block, &[]);
        let (own, _) = WindowRing::new(ANOMALY_THRESHOLD).close(&empty, 4 * PERIOD);
        assert_eq!(none, own);
    }

    #[test]
    fn steady_stream_raises_no_marks() {
        let mut ring = WindowRing::new(ANOMALY_THRESHOLD);
        for w in 0..6 {
            let (stats, marks) = close(&mut ring, &strided(4, w * 0x100_0000));
            assert_eq!(stats.window, w as usize);
            assert!(marks.is_empty(), "window {w} marked: {marks:?}");
        }
        assert!(ring.anomalies().is_empty());
    }

    #[test]
    fn phase_shift_marks_the_shifted_window() {
        let mut ring = WindowRing::new(ANOMALY_THRESHOLD);
        close(&mut ring, &strided(4, 0));
        close(&mut ring, &strided(4, 0));
        let (_stats, marks) = close(&mut ring, &scattered(4, 1 << 30));
        assert!(!marks.is_empty(), "phase shift must raise a mark");
        assert!(marks.iter().all(|m| m.window == 2));
        assert!(marks.iter().all(|m| m.ratio >= 2.0));
        for m in &marks {
            assert!(m.detail().contains("window 2"), "{}", m.detail());
        }
    }

    #[test]
    fn marks_are_deterministic_across_runs() {
        let run = || {
            let mut ring = WindowRing::new(ANOMALY_THRESHOLD);
            close(&mut ring, &strided(4, 0));
            close(&mut ring, &scattered(4, 1 << 28));
            close(&mut ring, &strided(4, 0));
            ring.anomalies().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn thin_windows_do_not_mark() {
        let mut ring = WindowRing::new(ANOMALY_THRESHOLD);
        close(&mut ring, &strided(4, 0));
        let mut thin = scattered(1, 1 << 30);
        thin[0].accesses.truncate(MIN_OBSERVED as usize - 1);
        let (stats, marks) = close(&mut ring, &thin);
        assert!(stats.observed < MIN_OBSERVED);
        assert!(marks.is_empty(), "{marks:?}");
    }

    /// The same samples, triggered every `p` and every `p/2` loads:
    /// the window covered half the loads, so `F̂` exactly halves, and
    /// nothing that does not scale by ρ moves.
    #[test]
    fn loads_scale_f_hat_alone() {
        let mixed: Vec<Sample> = strided(4, 0)
            .into_iter()
            .zip(scattered(4, 1 << 30))
            .map(|(a, b)| {
                // Plus a cycle over eight lines, so the window has reuse.
                let cycle = (0..32u64).map(|i| Access::new(0x400, 0x5000_0000 + (i % 8) * 64, 0));
                let accesses = a
                    .accesses
                    .into_iter()
                    .chain(b.accesses)
                    .chain(cycle)
                    .enumerate()
                    .map(|(t, x)| Access::new(x.ip, x.addr, t as u64))
                    .collect();
                Sample::new(accesses, a.trigger_time)
            })
            .collect();
        let retimed = |spacing: u64| -> (Vec<Sample>, u64) {
            let samples: Vec<Sample> = mixed
                .iter()
                .enumerate()
                .map(|(i, s)| Sample::new(s.accesses.clone(), (i as u64 + 1) * spacing))
                .collect();
            // The first window: its loads run from 0 to its last trigger.
            let loads = samples.last().map_or(0, |s| s.trigger_time);
            (samples, loads)
        };
        let (full, full_loads) = retimed(PERIOD);
        let (half, half_loads) = retimed(PERIOD / 2);
        let (a, _) = WindowRing::new(ANOMALY_THRESHOLD).close(&window_partial(&full), full_loads);
        let (b, _) = WindowRing::new(ANOMALY_THRESHOLD).close(&window_partial(&half), half_loads);
        assert!(a.f_hat_bytes > 0.0 && a.a_const_pct > 0.0 && a.delta_f_irr_pct > 0.0);
        assert!(a.mean_d > 0.0, "{a:?}");
        assert_eq!(b.f_hat_bytes, a.f_hat_bytes / 2.0);
        assert_eq!(b.delta_f_irr_pct, a.delta_f_irr_pct);
        assert_eq!(b.a_const_pct, a.a_const_pct);
        assert_eq!(b.mean_d, a.mean_d);
        assert_eq!(b.kappa, a.kappa);
    }
}
