//! Static binary analysis and `ptwrite` instrumentation — the paper's
//! DynInst-based instrumentor (paper §III).
//!
//! The instrumentor takes a load module, classifies every load as
//! Constant / Strided / Irregular from data dependencies ([`classify`]),
//! selects per-basic-block proxies so Constant loads need no
//! instrumentation ([`plan`], paper Fig. 2), and rewrites the module with
//! `ptwrite` instructions inserted *before* each instrumented load
//! ([`rewrite`]) — one per source register, so a two-source load costs two
//! packets. It emits the auxiliary annotation file (classes, literal
//! scale/offset, implied Constant counts) and the recovered source mapping
//! (§III-D).
//!
//! ```
//! use memgaze_isa::codegen::{self, Compose, OptLevel, Pattern, UKernelSpec};
//! use memgaze_instrument::{InstrumentConfig, Instrumenter};
//!
//! let module = codegen::generate(&UKernelSpec {
//!     compose: Compose::Single(Pattern::strided(2)),
//!     elems: 64,
//!     reps: 1,
//!     opt: OptLevel::O3,
//! });
//! let out = Instrumenter::new(InstrumentConfig::default()).instrument(&module);
//! assert!(out.stats.instrumented_loads > 0);
//! assert!(out.stats.static_kappa() >= 1.0);
//! ```

pub mod classify;
pub mod lint;
pub mod plan;
pub mod rewrite;

pub use classify::{ClassifiedLoad, ModuleClassification};
pub use lint::{lint_and_instrument, lint_module, DiffSummary, LintArtifacts, LintReport};
pub use plan::{InstrPlan, PlannedLoad};
pub use rewrite::{Instrumented, PtwInfo, PtwRole};

use memgaze_isa::LoadModule;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Instrumentation configuration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InstrumentConfig {
    /// Region of interest: procedure names to instrument. `None`
    /// instruments every procedure. Mirrors the paper's selective
    /// instrumentation from hotspot analysis (§II).
    pub roi: Option<BTreeSet<String>>,
    /// When false, Constant loads are instrumented too (no compression) —
    /// used to produce the paper's uncompressed "All⁺" baselines.
    pub skip_constant_loads: Option<bool>,
    /// When true, loads whose stride the abstract interpreter *proved*
    /// (dataflow and absint agree on a nonzero stride) are elided from
    /// instrumentation: their address sequence is reconstructible from
    /// the annotation alone. Default off — the baseline pipeline is
    /// unchanged unless this is opted into.
    pub elide_proven_strided: Option<bool>,
}

impl InstrumentConfig {
    /// Compressing configuration limited to the given procedures.
    pub fn with_roi<I, S>(names: I) -> InstrumentConfig
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        InstrumentConfig {
            roi: Some(names.into_iter().map(Into::into).collect()),
            skip_constant_loads: None,
            elide_proven_strided: None,
        }
    }

    /// Uncompressed configuration (every load instrumented).
    pub fn uncompressed() -> InstrumentConfig {
        InstrumentConfig {
            roi: None,
            skip_constant_loads: Some(false),
            elide_proven_strided: None,
        }
    }

    /// Compressing configuration that also elides proven-strided loads.
    pub fn eliding() -> InstrumentConfig {
        InstrumentConfig {
            roi: None,
            skip_constant_loads: None,
            elide_proven_strided: Some(true),
        }
    }

    /// Whether Constant loads are compressed away (default true).
    pub fn compresses(&self) -> bool {
        self.skip_constant_loads.unwrap_or(true)
    }

    /// Whether proven-strided loads are elided (default false).
    pub fn elides(&self) -> bool {
        self.elide_proven_strided.unwrap_or(false)
    }

    /// Whether the procedure named `name` is inside the region of
    /// interest.
    pub fn in_roi(&self, name: &str) -> bool {
        self.roi.as_ref().is_none_or(|s| s.contains(name))
    }
}

/// Static instrumentation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct InstrStats {
    /// Static Constant loads in the (ROI part of the) module.
    pub constant_loads: u64,
    /// Static Strided loads.
    pub strided_loads: u64,
    /// Static Irregular loads.
    pub irregular_loads: u64,
    /// Loads that received `ptwrite` instrumentation.
    pub instrumented_loads: u64,
    /// Proven-strided loads elided from instrumentation entirely.
    pub elided_loads: u64,
    /// `ptwrite` instructions inserted (two-source loads get two).
    pub ptwrites_inserted: u64,
    /// Basic blocks examined.
    pub blocks: u64,
}

impl InstrStats {
    /// Total static loads.
    pub fn total_loads(&self) -> u64 {
        self.constant_loads + self.strided_loads + self.irregular_loads
    }

    /// Static compression ratio: total / instrumented loads (≥ 1). The
    /// *dynamic* κ of Eq. 2 depends on execution counts; this is its
    /// static analogue.
    pub fn static_kappa(&self) -> f64 {
        if self.instrumented_loads == 0 {
            1.0
        } else {
            self.total_loads() as f64 / self.instrumented_loads as f64
        }
    }
}

/// The instrumentor.
#[derive(Debug, Clone, Default)]
pub struct Instrumenter {
    config: InstrumentConfig,
}

impl Instrumenter {
    /// An instrumentor with the given configuration.
    pub fn new(config: InstrumentConfig) -> Instrumenter {
        Instrumenter { config }
    }

    /// Analyze and rewrite `module` (paper Fig. 1, Step 1): classify,
    /// plan, and insert `ptwrite`s, producing the new executable plus the
    /// auxiliary annotation file and source map.
    pub fn instrument(&self, module: &LoadModule) -> Instrumented {
        self.instrument_classified(module, &ModuleClassification::analyze(module))
    }

    /// Plan and rewrite `module` from a classification the caller already
    /// has. Classifying is the expensive step and does not depend on the
    /// configuration, so one [`ModuleClassification::analyze`] serves
    /// every configuration, the linter and the rewriter alike.
    ///
    /// # Panics
    /// Panics if `classification` was not built from `module`.
    pub fn instrument_classified(
        &self,
        module: &LoadModule,
        classification: &ModuleClassification,
    ) -> Instrumented {
        let plan = InstrPlan::build(module, classification, &self.config);
        rewrite::apply(module, classification, &plan, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roi_filtering() {
        let c = InstrumentConfig::with_roi(["kernel"]);
        assert!(c.in_roi("kernel"));
        assert!(!c.in_roi("main"));
        assert!(c.compresses());
        let all = InstrumentConfig::default();
        assert!(all.in_roi("anything"));
        assert!(!InstrumentConfig::uncompressed().compresses());
    }

    #[test]
    fn static_kappa_degenerate() {
        let s = InstrStats::default();
        assert_eq!(s.static_kappa(), 1.0);
        let s = InstrStats {
            constant_loads: 3,
            strided_loads: 1,
            irregular_loads: 0,
            instrumented_loads: 2,
            elided_loads: 0,
            ptwrites_inserted: 2,
            blocks: 1,
        };
        assert!((s.static_kappa() - 2.0).abs() < 1e-12);
        assert_eq!(s.total_loads(), 4);
    }
}
