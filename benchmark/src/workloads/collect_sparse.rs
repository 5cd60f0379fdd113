//! `collect_sparse`: the paper's application regime (Fig. 7). Every
//! kernel runs once dry (`dry_run_loads`) and once through
//! `trace_workload_streaming` under the sparse application sampler.
//! Nearly all of the traced time is the per-load path — `TracedSpace::
//! load` → recorder → `StreamSampler::on_load` → frame encode — and the
//! decode and analysis at the end are a percent or two.

use super::{digest_of, ensure, self_time_by_layer, RoundOutcome, Workload};
use crate::inputs::{self, derive_seed, Kernel, Scale, Sizes, LOCALITY_SIZES, SHARD_SAMPLES};
use crate::metrics::Metrics;
use crate::span::{Layer, Recorder};
use crate::timing::median;
use memgaze_analysis::AnalysisConfig;
use memgaze_core::pipeline::dry_run_loads;
use memgaze_core::{
    analyze_shard_container, phase_shift_steps, trace_workload, trace_workload_streaming,
    ControllerMode, StreamingWorkloadReport, WatchConfig,
};
use memgaze_model::{decode_sharded, Ip};
use memgaze_ptsim::{SamplerConfig, StreamSampler};
use memgaze_workloads::{FnRecorder, TracedSpace};
use std::collections::BTreeMap;

/// Recorded load events the `ptsim` probe replays, and how many steps
/// the pinned watch run takes.
const REPLAY_VECTOR: usize = 1 << 20;
const WATCH_STEPS: usize = 64;

#[derive(Debug)]
struct Reference {
    /// Loads the kernel executes, from the dry run.
    loads: u64,
    /// Digest of the function table, from the resident analyzer.
    digest: u64,
}

pub struct CollectSparse {
    sizes: Sizes,
    kernels: Vec<Kernel>,
    sampler: SamplerConfig,
    refs: Vec<Reference>,
    /// The last round's reports: counts for the layer metrics, and the
    /// containers the probe decodes and analyzes again.
    last: Vec<StreamingWorkloadReport>,
    sites: u64,
    /// Load events recorded from the first kernel, for the replay probe.
    events: Vec<(Ip, u64, bool, u8)>,
    /// What the last probe did: load events replayed into the sampler,
    /// and windows the pinned watch run closed.
    replayed: usize,
    watch_windows: usize,
}

fn collect(k: &Kernel, sampler: &SamplerConfig) -> Result<StreamingWorkloadReport, String> {
    trace_workload_streaming(
        &k.name(),
        sampler,
        SHARD_SAMPLES,
        AnalysisConfig::default(),
        &LOCALITY_SIZES,
        |s| k.run(s),
    )
    .map(|(report, ())| report)
    .map_err(|e| e.to_string())
}

impl CollectSparse {
    pub fn setup(seed: u64, scale: Scale) -> Result<CollectSparse, String> {
        let sizes = scale.sizes();
        let kernels = inputs::sparse_kernels(seed, &sizes);
        let sampler = inputs::sparse_sampler(seed, &sizes);
        let mut refs = Vec::new();
        let mut sites = 0;
        for k in &kernels {
            // The reference goes the resident way: dry-run load count,
            // resident trace, resident analyzer.
            let (loads, ()) = dry_run_loads(|s| k.run(s));
            let (resident, ()) = trace_workload(&k.name(), &sampler, |s| k.run(s));
            ensure(
                resident.trace.meta.total_loads == loads,
                "traced total_loads == dry_run_loads count",
            )?;
            let analyzer = resident.analyzer(AnalysisConfig::default());
            sites += resident.annots.len() as u64;
            refs.push(Reference {
                loads,
                digest: digest_of(&analyzer.function_table()),
            });
            let streamed = collect(k, &sampler)?;
            ensure(
                matches!(decode_sharded(&streamed.container), Ok(t) if t == resident.trace),
                "streamed container decodes to the resident trace",
            )?;
            ensure(
                streamed.report.function_rows == analyzer.function_table()
                    && &streamed.report.block_reuse == analyzer.block_reuse()
                    && streamed.report.decompression == analyzer.decompression()
                    && streamed.report.interval_rows(8) == analyzer.interval_rows(8),
                "streaming report == resident analyzer",
            )?;
        }
        Ok(CollectSparse {
            sizes,
            kernels,
            sampler,
            refs,
            last: Vec::new(),
            sites,
            events: Vec::new(),
            replayed: 0,
            watch_windows: 0,
        })
    }
}

impl Workload for CollectSparse {
    fn round(&mut self, rec: &mut Recorder) -> RoundOutcome {
        let mut out = RoundOutcome::default();
        self.last.clear();
        for (k, r) in self.kernels.iter().zip(&self.refs) {
            let (loads, ()) = out
                .timed(|| rec.span(Layer::Workloads, "dry_run", |_| dry_run_loads(|s| k.run(s))));
            let traced = out.op(|| {
                rec.span(Layer::Core, "trace_workload_streaming", |_| {
                    collect(k, &self.sampler)
                })
            });
            match traced {
                Ok(t) => {
                    out.verify(
                        loads == r.loads
                            && t.meta.total_loads == r.loads
                            && digest_of(&t.report.function_rows) == r.digest,
                    );
                    self.last.push(t);
                }
                Err(_) => out.verify(false),
            }
        }
        out
    }

    fn loads_per_round(&self) -> u64 {
        self.refs.iter().map(|r| r.loads).sum()
    }

    fn trace_bytes_per_round(&self) -> u64 {
        self.last.iter().map(|t| t.container.len() as u64).sum()
    }

    fn digest(&self) -> u64 {
        digest_of(&self.refs)
    }

    fn probe(&mut self, rec: &mut Recorder) -> Result<(), String> {
        // What the decode and analysis at the end of the streaming
        // pipeline cost, on the containers the round just produced.
        for t in &self.last {
            rec.span(Layer::Model, "decode_sharded", |_| {
                decode_sharded(&t.container)
            })
            .map_err(|e| e.to_string())?;
            let (again, _) = rec
                .span(Layer::Core, "analyze_shard_container", |_| {
                    analyze_shard_container(
                        &t.container,
                        &t.annots,
                        &t.symbols,
                        AnalysisConfig::default(),
                        &LOCALITY_SIZES,
                    )
                })
                .map_err(|e| e.to_string())?;
            ensure(
                again == t.report,
                "re-analysis of the container == pipeline report",
            )?;
        }

        // The sampler alone: a recorded load vector replayed straight
        // into `on_load`, without the kernel that produced it.
        if self.events.is_empty() {
            let mut events = Vec::with_capacity(REPLAY_VECTOR);
            let mut space = TracedSpace::new(FnRecorder(|ip, addr, ins, pk| {
                if events.len() < REPLAY_VECTOR {
                    events.push((ip, addr, ins, pk));
                }
            }));
            self.kernels[0].run(&mut space);
            drop(space);
            self.events = events;
        }
        let events = &self.events;
        let passes = (self.sizes.replay_events / events.len().max(1)).max(1);
        self.replayed = passes * events.len();
        rec.span(Layer::Ptsim, "on_load_replay", |_| {
            let mut sampler = StreamSampler::new(self.sampler.clone());
            for _ in 0..passes {
                for &(ip, addr, ins, pk) in events {
                    sampler.on_load(ip, addr, ins, pk);
                }
            }
            sampler.finish("replay").0.num_samples()
        });

        // The live watch loop, controller pinned so the run is a pure
        // function of its knobs.
        let mut cfg = SamplerConfig::application(2_000);
        cfg.seed = derive_seed(self.sampler.seed, 7);
        let watch = WatchConfig {
            window_samples: 4,
            mode: ControllerMode::Pinned,
            ..WatchConfig::default()
        };
        let loads_per_step = self.sizes.replay_events / WATCH_STEPS / 40;
        let windows = rec.span(Layer::Core, "watch_workload", |_| {
            memgaze_core::watch_workload(
                "watch",
                &cfg,
                &watch,
                AnalysisConfig::default(),
                &LOCALITY_SIZES,
                |space, step| phase_shift_steps(space, step, WATCH_STEPS, loads_per_step),
            )
            .map(|r| r.windows.len())
        });
        self.watch_windows = windows.map_err(|e| e.to_string())?;
        Ok(())
    }

    fn attribute(&self, rec: &Recorder) -> BTreeMap<Layer, f64> {
        // The traced call is the kernel itself (what the dry run
        // costs), the per-load sampler path, and the decode + analysis
        // the probe timed on the same containers.
        let mut by_layer = self_time_by_layer(rec);
        let mean = |name| {
            let per_round = rec.per_round(name);
            per_round.iter().sum::<f64>() / per_round.len().max(1) as f64
        };
        let (traced, dry) = (mean("trace_workload_streaming"), mean("dry_run"));
        let (decode, analyze) = (mean("decode_sharded"), mean("analyze_shard_container"));
        let rounds = rec.per_round("dry_run").len() as f64;
        by_layer.values_mut().for_each(|t| *t /= rounds.max(1.0));
        by_layer.insert(Layer::Core, 0.0);
        *by_layer.entry(Layer::Workloads).or_insert(0.0) += dry.min(traced);
        by_layer.insert(Layer::Model, decode);
        by_layer.insert(Layer::Analysis, (analyze - decode).max(0.0));
        by_layer.insert(Layer::Ptsim, (traced - dry - analyze).max(0.0));
        by_layer
    }

    fn layer_metrics(&self, rec: &Recorder, m: &mut Metrics) {
        let dry = rec.per_round("dry_run");
        let traced = rec.per_round("trace_workload_streaming");
        let sampler: Vec<f64> = traced.iter().zip(&dry).map(|(t, d)| t - d).collect();
        let slowdown: Vec<f64> = traced.iter().zip(&dry).map(|(t, d)| t / d).collect();
        m.set("workloads.dry_run_s", median(&dry));
        m.set("workloads.loads", self.loads_per_round() as f64);
        m.set("workloads.sites", self.sites as f64);
        m.set("ptsim.sampler_s", median(&sampler));
        m.set("ptsim.collect_slowdown", median(&slowdown));
        m.set("core.pipeline_s", median(&traced));

        let samples: u64 = self.last.iter().map(|t| t.report.ingest.samples).sum();
        let recorded: u64 = self
            .last
            .iter()
            .map(|t| t.report.decompression.observed)
            .sum();
        let instrumented: u64 = self
            .last
            .iter()
            .flat_map(|t| &t.phases)
            .map(|p| p.counters.instrumented_loads)
            .sum();
        m.set("ptsim.samples", samples as f64);
        m.set("ptsim.accesses_recorded", recorded as f64);
        m.set(
            "ptsim.drop_share",
            1.0 - recorded as f64 / instrumented.max(1) as f64,
        );

        m.set(
            "ptsim.on_load_ns",
            median(&rec.per_round("on_load_replay")) * 1e9 / self.replayed.max(1) as f64,
        );
        m.set(
            "core.watch_window_ms",
            median(&rec.per_round("watch_workload")) * 1e3 / self.watch_windows.max(1) as f64,
        );
    }
}
