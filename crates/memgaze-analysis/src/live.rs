//! Live rolling-window analysis: the `memgaze watch` engine.
//!
//! Offline analysis sees the whole trace at once; live monitoring
//! (HMTT's online analyzer, BSC's live access-pattern tooling) sees an
//! unbounded stream and must answer "what changed?" from a bounded
//! ring of recent windows. This module folds per-window
//! [`StreamingReport`]s into [`WindowStats`] — footprint growth,
//! reuse-distance drift, `A_const%` shift — and raises deterministic
//! [`AnomalyMark`]s when a metric jumps past a threshold between
//! consecutive windows ("ΔF_irr% doubled in window N").
//!
//! Determinism is load-bearing: window stats derive from the merged
//! per-sample diagnostics of a [`StreamingReport`], whose merge laws
//! make them bit-identical across shard sizes; the
//! drift tests are pure `f64` ratio comparisons. Two watch runs over
//! the same stream with the same config therefore mark the same
//! windows — the property `tests/watch_equivalence.rs` pins.

use crate::diagnostics::FootprintDiagnostics;
use crate::streaming::StreamingReport;
use memgaze_model::{Sample, TraceMeta};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration for the rolling-window engine.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// Windows retained in the ring; older windows are evicted (their
    /// stats survive in the drift chain, their reports do not).
    pub ring_capacity: usize,
    /// Ratio between consecutive windows at which a metric counts as
    /// anomalous; `2.0` means "doubled".
    pub anomaly_threshold: f64,
    /// Windows with fewer observed accesses than this are too thin to
    /// trust for drift — they update the chain but raise no marks.
    pub min_observed: u64,
}

impl Default for LiveConfig {
    fn default() -> LiveConfig {
        LiveConfig {
            ring_capacity: 32,
            anomaly_threshold: 2.0,
            min_observed: 64,
        }
    }
}

/// Drift metrics of one closed window, derived from the window's
/// [`StreamingReport`] by merging its per-sample diagnostics — the same
/// fold [`StreamingReport::interval_rows`] runs, collapsed to one row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Window index (0-based, monotonically increasing).
    pub window: usize,
    /// Samples the window folded.
    pub samples: usize,
    /// Observed accesses `A` across the window.
    pub observed: u64,
    /// Implied constant accesses `A_const` across the window.
    pub implied_const: u64,
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

impl WindowStats {
    /// Fold a window's report into its drift metrics.
    pub fn from_report(window: usize, report: &StreamingReport) -> WindowStats {
        let mut diag: Option<FootprintDiagnostics> = None;
        for d in &report.per_sample_diags {
            match &mut diag {
                Some(m) => m.merge(d),
                None => diag = Some(*d),
            }
        }
        let diag = diag.unwrap_or_default();
        let mut d_sum = 0.0;
        let mut d_n = 0u64;
        for r in &report.per_sample_reuse {
            if r.events > 0 {
                d_sum += r.mean_d * r.events as f64;
                d_n += r.events as u64;
            }
        }
        let rho = report.decompression.rho();
        WindowStats {
            window,
            samples: report.per_sample_diags.len(),
            observed: diag.observed,
            implied_const: diag.implied_const,
            f_hat_bytes: rho * diag.footprint as f64 * report.footprint_block.bytes() as f64,
            delta_f: diag.delta_f(),
            delta_f_irr_pct: diag.delta_f_irr_pct(),
            a_const_pct: diag.a_const_pct(),
            mean_d: if d_n == 0 { 0.0 } else { d_sum / d_n as f64 },
            kappa: diag.kappa,
        }
    }
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
    pub prev: f64,
    /// The metric's value in this window.
    pub now: f64,
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

/// One retained window: its drift stats plus the full per-window
/// report (for zooming into a marked window).
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// The window's drift metrics.
    pub stats: WindowStats,
    /// The window's full analysis.
    pub report: StreamingReport,
}

/// Bounded ring of recent windows with drift detection between
/// consecutive pushes. Eviction drops old reports but never the drift
/// chain: the previous window's stats are kept separately.
#[derive(Debug)]
pub struct WindowRing {
    cfg: LiveConfig,
    windows: VecDeque<WindowReport>,
    prev: Option<WindowStats>,
    pushed: usize,
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
    /// An empty ring.
    pub fn new(cfg: LiveConfig) -> WindowRing {
        WindowRing {
            cfg,
            windows: VecDeque::new(),
            prev: None,
            pushed: 0,
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

    /// Close a window: fold its report into stats, test drift against
    /// the previous window, retain it (evicting past capacity), and
    /// return the stats plus any new marks.
    pub fn push(&mut self, report: StreamingReport) -> (WindowStats, Vec<AnomalyMark>) {
        let stats = WindowStats::from_report(self.pushed, &report);
        self.pushed += 1;
        let mut marks = Vec::new();
        if let Some(prev) = &self.prev {
            let trusted =
                prev.observed >= self.cfg.min_observed && stats.observed >= self.cfg.min_observed;
            if trusted {
                for (kind, floor) in DRIFT_FLOORS {
                    let was = Self::metric(kind, prev).max(floor);
                    let now = Self::metric(kind, &stats);
                    let ratio = now / was;
                    if ratio >= self.cfg.anomaly_threshold {
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
        self.windows.push_back(WindowReport { stats, report });
        while self.windows.len() > self.cfg.ring_capacity.max(1) {
            self.windows.pop_front();
        }
        (stats, marks)
    }

    /// Windows currently retained (oldest first).
    pub fn windows(&self) -> impl Iterator<Item = &WindowReport> {
        self.windows.iter()
    }

    /// Total windows ever pushed (≥ retained count).
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// Every mark raised since the ring was created.
    pub fn anomalies(&self) -> &[AnomalyMark] {
        &self.anomalies
    }

    /// The most recently closed window's stats, if any.
    pub fn last_stats(&self) -> Option<&WindowStats> {
        self.prev.as_ref()
    }
}

/// Metadata for one watch window, derived deterministically from the
/// window's samples and the sampling configuration *at collection
/// start*. Both the live driver and the offline reference pass
/// (`tests/watch_equivalence.rs`) derive window metadata through this
/// one function, so their per-window reports can be compared
/// field-for-field.
pub fn window_meta(
    workload: &str,
    period: u64,
    buffer_bytes: u64,
    samples: &[Sample],
) -> TraceMeta {
    let mut meta = TraceMeta::new(workload, period, buffer_bytes);
    meta.total_loads = samples.len() as u64 * period;
    meta.total_instrumented_loads = samples.iter().map(|s| s.accesses.len() as u64).sum();
    meta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::AnalysisConfig;
    use crate::streaming::StreamingAnalyzer;
    use memgaze_model::{
        Access, AuxAnnotations, FunctionId, Ip, IpAnnot, LoadClass, Sample, SymbolTable,
    };

    fn window_report(samples: &[Sample]) -> StreamingReport {
        let mut annots = AuxAnnotations::new();
        annots.insert(
            Ip(0x400),
            IpAnnot::of_class(LoadClass::Strided, FunctionId(0)),
        );
        annots.insert(
            Ip(0x404),
            IpAnnot::of_class(LoadClass::Irregular, FunctionId(0)),
        );
        let symbols = SymbolTable::new();
        let mut sa = StreamingAnalyzer::new(&annots, &symbols, AnalysisConfig::default());
        sa.ingest_shard(samples);
        sa.finish(&window_meta("live-test", 1000, 8192, samples))
    }

    fn strided(samples: usize, base: u64) -> Vec<Sample> {
        (0..samples)
            .map(|s| {
                let accesses: Vec<Access> = (0..100u64)
                    .map(|i| Access::new(0x400, base + (s as u64 * 100 + i) * 64, i))
                    .collect();
                Sample::new(accesses, (s as u64 + 1) * 1000)
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
                Sample::new(accesses, (s as u64 + 1) * 1000)
            })
            .collect()
    }

    #[test]
    fn steady_stream_raises_no_marks() {
        let mut ring = WindowRing::new(LiveConfig::default());
        for w in 0..6 {
            let (_stats, marks) = ring.push(window_report(&strided(4, w * 0x100_0000)));
            assert!(marks.is_empty(), "window {w} marked: {marks:?}");
        }
        assert_eq!(ring.pushed(), 6);
        assert!(ring.anomalies().is_empty());
    }

    #[test]
    fn phase_shift_marks_the_shifted_window() {
        let mut ring = WindowRing::new(LiveConfig::default());
        ring.push(window_report(&strided(4, 0)));
        ring.push(window_report(&strided(4, 0)));
        let (_stats, marks) = ring.push(window_report(&scattered(4, 1 << 30)));
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
            let mut ring = WindowRing::new(LiveConfig::default());
            ring.push(window_report(&strided(4, 0)));
            ring.push(window_report(&scattered(4, 1 << 28)));
            ring.push(window_report(&strided(4, 0)));
            ring.anomalies().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ring_evicts_reports_but_keeps_the_drift_chain() {
        let cfg = LiveConfig {
            ring_capacity: 2,
            ..LiveConfig::default()
        };
        let mut ring = WindowRing::new(cfg);
        for w in 0..5 {
            ring.push(window_report(&strided(4, w * 0x10_0000)));
        }
        assert_eq!(ring.windows().count(), 2);
        assert_eq!(ring.pushed(), 5);
        assert_eq!(ring.last_stats().unwrap().window, 4);
    }

    #[test]
    fn thin_windows_do_not_mark() {
        let cfg = LiveConfig {
            min_observed: 1_000_000,
            ..LiveConfig::default()
        };
        let mut ring = WindowRing::new(cfg);
        ring.push(window_report(&strided(4, 0)));
        let (_s, marks) = ring.push(window_report(&scattered(4, 1 << 30)));
        assert!(marks.is_empty());
    }
}
