//! Multi-resolution memory and data-reuse analysis of sampled traces —
//! the analysis half of MemGaze (paper §IV–§V).
//!
//! The analyses characterize locations vs. operations, accesses vs.
//! spatio-temporal reuse, and reuse (distance, rate, volume) vs. access
//! patterns:
//!
//! * [`footprint`] — footprint `F`, captures/survivals `C`/`S`,
//!   estimated footprint `F̂` (Eq. 3) and growth `ΔF̂` (Eq. 4);
//! * [`diagnostics`] — footprint access diagnostics (`F_str`, `F_irr`,
//!   `ΔF_str%`, `A_const%`, §V-E);
//! * [`reuse`] — reuse interval and exact spatio-temporal reuse distance
//!   (a bit per position and a Fenwick tree over the 64-position
//!   words) plus per-block summaries;
//! * [`window`] — power-of-2 trace windows and per-function code windows
//!   (§IV-B);
//! * [`interval_tree`] — the execution interval tree (Fig. 4);
//! * [`zoom`] — location zooming to hot memory regions (Fig. 5);
//! * [`histogram`], [`heatmap`] — distribution views (Figs. 8–9);
//! * [`mape`] — the Fig. 6 validation machinery;
//! * [`confidence`] — undersampling detection (§VI-A's suggestion);
//! * [`streaming`] — the one engine that computes a report, shard by
//!   shard; [`fanout`] — its mergeable partials and their wire codec;
//! * [`analyzer`] — a façade producing the paper's table shapes from
//!   that report plus what needs the resident trace;
//! * [`report`] — table rendering; [`par`] — scoped-thread parallel helpers.

pub mod analyzer;
pub mod confidence;
pub mod diagnostics;
pub mod fanout;
pub mod footprint;
pub mod fxhash;
pub mod heatmap;
pub mod histogram;
pub mod interval_tree;
mod kernel;
pub mod live;
pub mod mape;
pub mod par;
pub mod report;
pub mod reuse;
pub mod streaming;
pub mod window;
pub mod workingset;
pub mod zoom;

pub use analyzer::{AnalysisConfig, Analyzer, CacheStats, FunctionRow, IntervalRow, RegionRow};
pub use confidence::Confidence;
pub use diagnostics::FootprintDiagnostics;
pub use fanout::{
    analyze_frames, partition_by_samples, partition_frames, FuncPartial, PartialError,
    PartialReport, ReusePartial, WorkerSpec,
};
pub use footprint::{
    captures_survivals, estimated_footprint, footprint, footprint_growth, CapturesSurvivals,
    WindowKind,
};
pub use fxhash::{FxHashMap, FxHashSet};
pub use heatmap::{region_heatmaps_from, Heatmap};
pub use histogram::{
    locality_vs_interval_with, reuse_histogram_from, LocalityPoint, Log2Histogram,
};
pub use interval_tree::{IntervalNode, IntervalTree, NodeKind};
pub use live::{
    window_meta, AnomalyKind, AnomalyMark, LiveConfig, WindowReport, WindowRing, WindowStats,
};
pub use mape::{compare_window_series, mape, pct_error, MapeReport};
pub use report::{fmt_f3, fmt_pct, fmt_si, Table};
pub use reuse::{analyze_window, analyze_window_naive, BlockReuse, ReuseAnalysis, ReuseEvent};
pub use streaming::{
    stream_resident_trace, IngestStats, ReuseTracker, StreamingAnalyzer, StreamingReport,
};
pub use window::{pow2_sizes, window_series, window_series_with, CodeWindows, WindowPoint};
pub use workingset::{working_set, WorkingSet};
pub use zoom::{zoom_trace_with, RegionCode, ZoomConfig, ZoomRegion};
