//! Per-phase overhead estimation (paper Fig. 7).
//!
//! Converts the workloads' per-phase execution counters into the overhead
//! model's [`RunProfile`]s and evaluates both PT modes: continuous
//! ("suboptimal kernel support") and sample-only (MemGaze-opt).

use memgaze_ptsim::{OverheadModel, PtMode, RunProfile};
use memgaze_workloads::Phase;
use serde::{Deserialize, Serialize};

/// Overhead estimate of one phase under one PT mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseOverhead {
    /// Phase name.
    pub phase: String,
    /// Fractional overhead (0.4 = 40%).
    pub overhead: f64,
    /// Slowdown factor.
    slowdown: f64,
    /// The Fig. 7 predictor: ptwrites / non-ptwrite instructions.
    pub ptwrite_ratio: f64,
    /// Loads executed in the phase.
    pub loads: u64,
}

/// Build one [`RunProfile`] from a phase's counters. `enabled_fraction`
/// is the share of `ptwrite`s executed while PT was enabled (1.0 for
/// continuous mode; the collector's measured ratio for opt mode).
fn profile_of(phase: &Phase, enabled_fraction: f64, bytes_per_packet: u64) -> RunProfile {
    let c = &phase.counters;
    let enabled = (c.ptwrites as f64 * enabled_fraction).round() as u64;
    RunProfile {
        instrs: c.instrs,
        loads: c.loads,
        stores: c.stores,
        ptwrites_executed: c.ptwrites,
        ptwrites_enabled: enabled,
        bytes_generated: enabled * bytes_per_packet,
    }
}

/// Evaluate every phase (skipping empty ones) under the given mode.
pub fn phase_profiles(
    phases: &[Phase],
    model: &OverheadModel,
    mode: PtMode,
    measured_enabled_fraction: f64,
) -> Vec<PhaseOverhead> {
    let frac = match mode {
        PtMode::Continuous => 1.0,
        PtMode::SampleOnly => measured_enabled_fraction.clamp(0.0, 1.0),
    };
    phases
        .iter()
        .filter(|p| p.counters.loads > 0)
        .map(|p| {
            let prof = profile_of(p, frac, memgaze_ptsim::packet::PTW_BYTES);
            let est = model.estimate(&prof);
            PhaseOverhead {
                phase: p.name.clone(),
                overhead: est.overhead(),
                slowdown: est.slowdown(),
                ptwrite_ratio: prof.ptwrite_ratio(),
                loads: prof.loads,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_workloads::Counters;

    fn phase(name: &str, loads: u64, stores: u64) -> Phase {
        let ptw = loads / 2;
        Phase {
            name: name.to_string(),
            counters: Counters {
                loads,
                stores,
                instrs: loads * 3 + stores * 2 + ptw,
                ptwrites: ptw,
                instrumented_loads: ptw,
            },
        }
    }

    #[test]
    fn continuous_overhead_exceeds_opt() {
        let phases = vec![
            phase("graphgen", 1_000_000, 100_000),
            phase("rank", 2_000_000, 50_000),
        ];
        let model = OverheadModel::default();
        let cont = phase_profiles(&phases, &model, PtMode::Continuous, 1.0);
        let opt = phase_profiles(&phases, &model, PtMode::SampleOnly, 0.05);
        assert_eq!(cont.len(), 2);
        for (c, o) in cont.iter().zip(&opt) {
            assert!(
                c.overhead > o.overhead,
                "{}: {} vs {}",
                c.phase,
                c.overhead,
                o.overhead
            );
            // Opt overhead approaches the ptwrite execution rate.
            assert!((o.overhead - o.ptwrite_ratio).abs() < 0.15);
        }
    }

    #[test]
    fn empty_phases_skipped() {
        let phases = vec![
            Phase {
                name: "main".into(),
                counters: Counters::default(),
            },
            phase("work", 1000, 10),
        ];
        let out = phase_profiles(&phases, &OverheadModel::default(), PtMode::Continuous, 1.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].phase, "work");
    }

    #[test]
    fn ratio_tracks_instrumentation_density() {
        let p = phase("x", 1_000_000, 0);
        let prof = profile_of(&p, 1.0, 10);
        // ptw = 500k; non-ptw instrs = 3M → ratio ≈ 0.1667.
        assert!((prof.ptwrite_ratio() - 0.5 / 3.0).abs() < 1e-9);
        assert_eq!(prof.bytes_generated, 500_000 * 10);
    }
}
