//! Workload scales, and each paper workload configured once.
//!
//! `MEMGAZE_SCALE` is `small` (seconds-long smoke runs), `default`
//! (each table well under a minute; also what an unset variable means)
//! or `large`; any other value is an error.

use memgaze_core::{trace_workload, PipelineConfig, WorkloadReport};
use memgaze_ptsim::SamplerConfig;
use memgaze_workloads::darknet::{self, Network};
use memgaze_workloads::gap::{self, GapConfig, GapKernel};
use memgaze_workloads::minivite::{self, MapVariant, MiniViteConfig};
use memgaze_workloads::{LoadRecorder, TracedSpace};

/// The Darknet networks of Tables III, VI–VIII and Fig. 7.
pub(crate) const NETWORKS: [Network; 2] = [Network::AlexNet, Network::ResNet152];

/// The miniVite map variants of Tables IV–V and Fig. 7.
pub(crate) const VARIANTS: [MapVariant; 3] = [MapVariant::V1, MapVariant::V2, MapVariant::V3];

/// The GAP kernels of Table IX and Fig. 7, in their order.
pub(crate) const KERNELS: [GapKernel; 4] = [
    GapKernel::Pr,
    GapKernel::PrSpmv,
    GapKernel::Cc,
    GapKernel::CcSv,
];

/// One paper application, configured, runnable under any recorder.
#[derive(Debug, Clone, Copy)]
pub(crate) enum App {
    MiniVite(MiniViteConfig),
    Gap(GapConfig),
    Darknet(Network),
}

impl App {
    pub(crate) fn run<R: LoadRecorder>(self, space: &mut TracedSpace<R>) {
        match self {
            App::MiniVite(cfg) => {
                minivite::run(space, &cfg);
            }
            App::Gap(cfg) => {
                gap::run(space, &cfg);
            }
            App::Darknet(net) => {
                darknet::run(space, net);
            }
        }
    }

    /// Collect this application's sampled trace as `name`.
    pub(crate) fn trace(self, name: &str, sampler: &SamplerConfig) -> WorkloadReport {
        trace_workload(name, sampler, |s| self.run(s)).0
    }
}

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Scales {
    /// Microbenchmark array elements.
    pub(crate) micro_elems: u32,
    /// Microbenchmark repetitions.
    pub(crate) micro_reps: u32,
    /// Graph scale (2^scale vertices) for miniVite/GAP.
    graph_scale: u32,
    /// Graph average degree.
    degree: usize,
    /// miniVite Louvain iterations.
    louvain_iters: usize,
    /// PageRank iteration budget.
    pr_iters: usize,
    /// Application sampling period (loads).
    pub(crate) app_period: u64,
    /// Microbenchmark sampling period (loads).
    micro_period: u64,
}

impl Scales {
    /// The scale called `name`: `small`, `default` or `large`.
    fn named(name: &str) -> Result<Scales, String> {
        Ok(match name {
            "small" => Scales {
                micro_elems: 1024,
                micro_reps: 10,
                graph_scale: 8,
                degree: 6,
                louvain_iters: 1,
                pr_iters: 6,
                app_period: 10_000,
                micro_period: 5_000,
            },
            "default" => Scales {
                micro_elems: 4096,
                micro_reps: 50,
                graph_scale: 10,
                degree: 8,
                louvain_iters: 2,
                pr_iters: 9,
                app_period: 50_000,
                micro_period: 10_000,
            },
            "large" => Scales {
                micro_elems: 8192,
                micro_reps: 100,
                graph_scale: 13,
                degree: 12,
                louvain_iters: 3,
                pr_iters: 12,
                app_period: 200_000,
                micro_period: 10_000,
            },
            other => {
                return Err(format!(
                    "MEMGAZE_SCALE={other:?} is not a scale (small, default or large)"
                ))
            }
        })
    }

    /// miniVite at this scale.
    pub(crate) fn minivite(&self, variant: MapVariant) -> MiniViteConfig {
        MiniViteConfig {
            scale: self.graph_scale,
            degree: self.degree,
            iterations: self.louvain_iters,
            variant,
            seed: 42,
            v2_default_capacity: 64,
        }
    }

    /// A GAP kernel at this scale.
    pub(crate) fn gap(&self, kernel: GapKernel) -> GapConfig {
        GapConfig {
            scale: self.graph_scale,
            degree: self.degree,
            kernel,
            max_iters: self.pr_iters,
            seed: 9,
        }
    }

    /// The application sampler at this scale's period.
    pub(crate) fn app_sampler(&self) -> SamplerConfig {
        SamplerConfig::application(self.app_period)
    }

    /// The microbenchmark pipeline at this scale's period.
    pub(crate) fn micro_pipeline(&self) -> PipelineConfig {
        let mut cfg = PipelineConfig::microbench();
        cfg.sampler.period = self.micro_period;
        cfg
    }
}

/// Resolve from the `MEMGAZE_SCALE` environment variable.
pub fn from_env() -> Result<Scales, String> {
    match std::env::var_os("MEMGAZE_SCALE") {
        None => Scales::named("default"),
        Some(name) => Scales::named(&name.to_string_lossy()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_three_scales_resolve() {
        for name in ["small", "default", "large"] {
            let s = Scales::named(name).unwrap();
            assert!(s.micro_elems > 0 && s.graph_scale > 0, "{name}");
        }
    }

    #[test]
    fn an_unknown_scale_is_an_error_naming_the_three() {
        for name in ["medium", "", "Small"] {
            let err = Scales::named(name).unwrap_err();
            for known in ["small", "default", "large"] {
                assert!(err.contains(known), "{err}");
            }
        }
    }
}
