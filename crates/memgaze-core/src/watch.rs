//! `memgaze watch`: live rolling-window monitoring of a running
//! workload with an adaptive-sampling feedback controller.
//!
//! Every other collection path runs to completion before analysis
//! starts; the watch loop interleaves them. Between workload steps it
//! drains the sampler's completed samples, closes fixed-size windows,
//! analyzes each window with a fresh [`StreamingAnalyzer`], folds the
//! result into the bounded [`WindowRing`] (raising [`AnomalyMark`]s on
//! metric drift), and feeds the sampler's drop-rate/pressure
//! observation to a [`Controller`] that retunes the period (`w + z`),
//! buffer capacity, and hardware address-range guards at runtime — the
//! governor pattern: observe one interval, nudge one knob, clamp to
//! bounds, settle when the signal holds inside the target band.
//!
//! Every closed window is also written as one container frame, so a
//! pinned-controller run can be replayed offline frame by frame and
//! each window's report compared field-for-field against a resident
//! analysis of the same slice (`tests/watch_equivalence.rs`).

use memgaze_analysis::{
    window_meta, AnalysisConfig, AnomalyMark, LiveConfig, StreamingAnalyzer, WindowRing,
    WindowStats,
};
use memgaze_model::{
    AuxAnnotations, FrameIndex, LoadClass, Sample, ShardWriter, SymbolTable, TraceMeta,
};
use memgaze_ptsim::{IpGuards, SamplerConfig, SamplerObservation, StreamStats};
use memgaze_workloads::TracedSpace;

use crate::pipeline::PipelineError;
use crate::recorders::SamplerRecorder;

/// Whether the feedback controller may touch the sampling knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerMode {
    /// Observe only: knobs never change, so the collected stream is a
    /// pure function of the workload and the initial configuration —
    /// the mode the bit-identity proof runs in.
    Pinned,
    /// Retune period/buffer/guards from the observed drop rate.
    Adaptive,
}

impl std::str::FromStr for ControllerMode {
    type Err = String;
    fn from_str(s: &str) -> Result<ControllerMode, String> {
        match s {
            "pinned" => Ok(ControllerMode::Pinned),
            "adaptive" => Ok(ControllerMode::Adaptive),
            other => Err(format!("unknown controller mode {other:?}")),
        }
    }
}

/// Controller law parameters.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Drop-rate band `[lo, hi]` the controller steers into.
    pub target_drop: (f64, f64),
    /// Period clamp (loads per sample).
    pub period_bounds: (u64, u64),
    /// Buffer clamp (bytes).
    pub buffer_bounds: (u64, u64),
    /// Multiplicative step per retune.
    pub gain: f64,
    /// Consecutive in-band windows before the controller counts as
    /// converged.
    pub settle_windows: usize,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            target_drop: (0.0, 0.6),
            period_bounds: (500, 1 << 20),
            buffer_bounds: (512, 256 << 10),
            gain: 1.5,
            settle_windows: 3,
        }
    }
}

/// What a retune did to the guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardAction {
    /// Guards untouched.
    Keep,
    /// Narrowed to the hottest function's range.
    Narrow,
    /// Restored to the initial guards.
    Restore,
}

/// One controller decision, recorded per retuned window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Retune {
    /// Window whose observation triggered the retune.
    pub window: usize,
    /// Observed drop rate that interval.
    pub drop_rate: f64,
    /// Observed peak buffer pressure that interval.
    pub pressure: f64,
    /// Period in force after the retune.
    pub period: u64,
    /// Buffer capacity in force after the retune.
    pub buffer_bytes: u64,
    /// Guard change, if any.
    pub guard: GuardAction,
}

/// The feedback governor: one observation in, at most one knob out.
///
/// Escalation above the band: grow the buffer (cheapest — more trace
/// memory) until clamped, then shrink the period (snapshots drain the
/// buffer more often), then narrow the IP guards to the hottest
/// function (shed enabled packets). Below the band the steps unwind in
/// reverse. Inside the band nothing moves and the settle streak grows.
#[derive(Debug)]
pub struct Controller {
    cfg: ControllerConfig,
    mode: ControllerMode,
    period: u64,
    buffer_bytes: u64,
    narrowed: bool,
    streak: usize,
    converged_at: Option<usize>,
    trace: Vec<Retune>,
    last_drop: f64,
}

impl Controller {
    /// A controller starting from the sampler's initial knobs.
    pub fn new(mode: ControllerMode, cfg: ControllerConfig, sampler: &SamplerConfig) -> Controller {
        Controller {
            cfg,
            mode,
            period: sampler.period,
            buffer_bytes: sampler.buffer_bytes,
            narrowed: false,
            streak: 0,
            converged_at: None,
            trace: Vec::new(),
            last_drop: 0.0,
        }
    }

    /// Feed one interval's observation; returns the retune to apply,
    /// if any. Pinned mode observes (tracking convergence of the
    /// as-configured knobs) but never retunes.
    pub fn observe(&mut self, window: usize, obs: &SamplerObservation) -> Option<Retune> {
        let drop = obs.drop_rate();
        let pressure = obs.pressure();
        self.last_drop = drop;
        let (lo, hi) = self.cfg.target_drop;
        if drop >= lo && drop <= hi {
            self.streak += 1;
            if self.streak >= self.cfg.settle_windows && self.converged_at.is_none() {
                self.converged_at = Some(window);
            }
            return None;
        }
        self.streak = 0;
        if self.mode == ControllerMode::Pinned {
            return None;
        }
        let gain = self.cfg.gain.max(1.01);
        let guard = if drop > hi {
            // Too lossy: buffer, then period, then guards.
            let grown = ((self.buffer_bytes as f64 * gain) as u64).min(self.cfg.buffer_bounds.1);
            if grown > self.buffer_bytes {
                self.buffer_bytes = grown;
                GuardAction::Keep
            } else {
                let shrunk = ((self.period as f64 / gain) as u64).max(self.cfg.period_bounds.0);
                if shrunk < self.period {
                    self.period = shrunk;
                    GuardAction::Keep
                } else if !self.narrowed {
                    self.narrowed = true;
                    GuardAction::Narrow
                } else {
                    return None; // fully saturated: nothing left to move
                }
            }
        } else {
            // Below the band: unwind in reverse — restore guards, then
            // stretch the period back toward coverage.
            if self.narrowed {
                self.narrowed = false;
                GuardAction::Restore
            } else {
                let grown = ((self.period as f64 * gain) as u64).min(self.cfg.period_bounds.1);
                if grown > self.period {
                    self.period = grown;
                    GuardAction::Keep
                } else {
                    return None;
                }
            }
        };
        let r = Retune {
            window,
            drop_rate: drop,
            pressure,
            period: self.period,
            buffer_bytes: self.buffer_bytes,
            guard,
        };
        self.trace.push(r);
        Some(r)
    }

    /// Window at which the settle streak completed, if it has.
    pub fn converged_at(&self) -> Option<usize> {
        self.converged_at
    }

    /// Whether the drop rate has held in band for the settle window.
    pub fn converged(&self) -> bool {
        self.converged_at.is_some()
    }

    /// Every retune applied so far.
    pub fn trace(&self) -> &[Retune] {
        &self.trace
    }

    /// The most recent interval's drop rate.
    pub fn last_drop_rate(&self) -> f64 {
        self.last_drop
    }

    /// Knobs currently in force.
    pub fn knobs(&self) -> (u64, u64) {
        (self.period, self.buffer_bytes)
    }
}

/// Watch-loop configuration.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Samples per window.
    pub window_samples: usize,
    /// Rolling-ring and anomaly parameters.
    pub live: LiveConfig,
    /// Controller law.
    pub controller: ControllerConfig,
    /// Pinned or adaptive.
    pub mode: ControllerMode,
}

impl Default for WatchConfig {
    fn default() -> WatchConfig {
        WatchConfig {
            window_samples: 8,
            live: LiveConfig::default(),
            controller: ControllerConfig::default(),
            mode: ControllerMode::Adaptive,
        }
    }
}

/// Everything a watch run produced.
#[derive(Debug)]
pub struct WatchReport {
    /// Per-window drift stats, in window order (every window, not just
    /// those still in the ring).
    pub windows: Vec<WindowStats>,
    /// Every anomaly mark raised.
    pub anomalies: Vec<AnomalyMark>,
    /// The ring itself (recent windows' full reports).
    pub ring: WindowRing,
    /// Controller retune trace.
    pub retunes: Vec<Retune>,
    /// Window where the controller's settle streak completed.
    pub converged_at: Option<usize>,
    /// Drop rate of the final observed interval.
    pub final_drop_rate: f64,
    /// One container frame per closed window (the replay artifact).
    pub container: Vec<u8>,
    /// Frame index for `container`.
    pub index: FrameIndex,
    /// Final trace metadata.
    pub meta: TraceMeta,
    /// Site annotations at end of run.
    pub annots: AuxAnnotations,
    /// Symbols at end of run.
    pub symbols: SymbolTable,
    /// Collection statistics.
    pub stream: StreamStats,
    /// Sampling knobs at collection start — the values window metadata
    /// derives from on both the live and the replay side.
    pub initial_period: u64,
    /// Initial buffer capacity (see `initial_period`).
    pub initial_buffer_bytes: u64,
    /// Samples per window the run used.
    pub window_samples: usize,
}

/// Run a step-based workload under the watch loop. `step` is called
/// with the space and a 0-based step index until it returns `false`;
/// the loop drains samples, closes windows, and retunes between steps.
pub fn watch_workload(
    name: &str,
    sampler_cfg: &SamplerConfig,
    watch: &WatchConfig,
    analysis: AnalysisConfig,
    locality_sizes: &[u64],
    mut step: impl FnMut(&mut TracedSpace<SamplerRecorder>, usize) -> bool,
) -> Result<WatchReport, PipelineError> {
    // The knobs the sampler runs: a zero period or buffer is raised at
    // construction.
    let sampler = memgaze_ptsim::StreamSampler::new(sampler_cfg.clone());
    let initial_period = sampler.config().period;
    let initial_buffer = sampler.config().buffer_bytes;
    let initial_guards = sampler_cfg.guards.clone();
    let window_samples = watch.window_samples.max(1);

    let provisional = TraceMeta::new(name, initial_period, initial_buffer);
    let mut sink = WindowSink {
        name,
        initial_period,
        initial_buffer,
        analysis,
        locality_sizes,
        writer: ShardWriter::new(Vec::new(), &provisional)
            .expect("writing a container header to a Vec cannot fail"),
        ring: WindowRing::new(watch.live),
        windows: Vec::new(),
    };

    let mut controller = Controller::new(watch.mode, watch.controller, sampler.config());
    let mut space = TracedSpace::new(SamplerRecorder::new(sampler));
    let mut pending: Vec<Sample> = Vec::new();

    let mut i = 0usize;
    loop {
        let more = step(&mut space, i);
        i += 1;
        pending.extend(space.recorder_mut().sampler.take_completed());
        while pending.len() >= window_samples {
            let window_slice: Vec<Sample> = pending.drain(..window_samples).collect();
            let hottest = sink.close(&window_slice, &space.annotations(), &space.symbols());
            let obs = space.recorder_mut().sampler.take_observation();
            let window = sink.windows.len() - 1;
            if let Some(r) = controller.observe(window, &obs) {
                let guards = match r.guard {
                    GuardAction::Keep => space.recorder_mut().sampler.config().guards.clone(),
                    GuardAction::Narrow => match &hottest {
                        Some(name) => IpGuards::from_functions(&space.symbols(), [name.as_str()]),
                        None => initial_guards.clone(),
                    },
                    GuardAction::Restore => initial_guards.clone(),
                };
                space
                    .recorder_mut()
                    .sampler
                    .retune(r.period, r.buffer_bytes, guards);
            }
            publish_controller_gauges(&controller, &obs);
        }
        if !more {
            break;
        }
    }

    let annots = space.annotations();
    let symbols = space.symbols();
    let recorder = space.into_recorder();
    let (meta, tail, stream) = recorder.sampler.finish_parts(name);
    pending.extend(tail);
    // Close remaining windows, including a trailing partial one — the
    // live view should not silently drop the stream's tail.
    for window_slice in pending.chunks(window_samples) {
        sink.close(window_slice, &annots, &symbols);
    }

    let (container, index) = sink
        .writer
        .finish_indexed(meta.total_loads, meta.total_instrumented_loads)
        .map_err(|source| PipelineError::Container {
            stage: "watch-seal",
            source,
        })?;

    Ok(WatchReport {
        anomalies: sink.ring.anomalies().to_vec(),
        windows: sink.windows,
        retunes: controller.trace().to_vec(),
        converged_at: controller.converged_at(),
        final_drop_rate: controller.last_drop_rate(),
        ring: sink.ring,
        container,
        index,
        meta,
        annots,
        symbols,
        stream,
        initial_period,
        initial_buffer_bytes: initial_buffer,
        window_samples,
    })
}

/// Where a watch run's windows go: each closed window becomes one
/// container frame, one ring entry and one set of gauges.
struct WindowSink<'a> {
    name: &'a str,
    initial_period: u64,
    initial_buffer: u64,
    analysis: AnalysisConfig,
    locality_sizes: &'a [u64],
    writer: ShardWriter<Vec<u8>>,
    ring: WindowRing,
    windows: Vec<WindowStats>,
}

impl WindowSink<'_> {
    /// Close one window: write its frame, analyze it with a transient
    /// [`StreamingAnalyzer`] under the window metadata both the live and
    /// the replay side derive, push the report to the ring and publish
    /// the gauges. Returns the window's hottest function.
    fn close(
        &mut self,
        slice: &[Sample],
        annots: &AuxAnnotations,
        symbols: &SymbolTable,
    ) -> Option<String> {
        self.writer
            .write_shard(slice)
            .expect("writing a shard frame to a Vec cannot fail");
        let mut sa = StreamingAnalyzer::new(annots, symbols, self.analysis)
            .with_locality_sizes(self.locality_sizes);
        sa.ingest_shard(slice);
        let meta = window_meta(self.name, self.initial_period, self.initial_buffer, slice);
        let report = sa.finish(&meta);
        let hottest = report.function_rows.first().map(|r| r.name.clone());
        let (stats, marks) = self.ring.push(report);
        self.windows.push(stats);
        memgaze_obs::gauge!("watch.window").set(stats.window as u64);
        memgaze_obs::gauge!("watch.f_hat_bytes").set(stats.f_hat_bytes as u64);
        memgaze_obs::gauge!("watch.mean_d_milli").set((stats.mean_d * 1000.0) as u64);
        memgaze_obs::gauge!("watch.df_irr_pct").set(stats.delta_f_irr_pct as u64);
        memgaze_obs::gauge!("watch.a_const_pct").set(stats.a_const_pct as u64);
        if !marks.is_empty() {
            memgaze_obs::counter!("watch.anomalies").add(marks.len() as u64);
        }
        hottest
    }
}

fn publish_controller_gauges(controller: &Controller, obs: &SamplerObservation) {
    let (period, buffer) = controller.knobs();
    memgaze_obs::gauge!("watch.controller.period").set(period);
    memgaze_obs::gauge!("watch.controller.buffer_bytes").set(buffer);
    memgaze_obs::gauge!("watch.controller.drop_pct").set((obs.drop_rate() * 100.0) as u64);
    memgaze_obs::gauge!("watch.controller.pressure_pct").set((obs.pressure() * 100.0) as u64);
    memgaze_obs::gauge!("watch.controller.retunes").set(controller.trace().len() as u64);
    memgaze_obs::gauge!("watch.controller.converged").set(u64::from(controller.converged()));
}

/// The synthetic phase-shift workload the smoke run and the equivalence
/// tests drive: a strided streaming phase over a small array, then an
/// irregular two-source pointer-chase over a much larger region. The
/// shift raises footprint, reuse distance, and `ΔF_irr%` together —
/// and doubles the packet rate, pressing the circular buffer.
pub fn phase_shift_steps(
    space: &mut TracedSpace<SamplerRecorder>,
    step: usize,
    total_steps: usize,
    loads_per_step: usize,
) -> bool {
    if step == 0 {
        space.alloc("stream", 64 << 10);
        space.alloc("chase", 8 << 20);
        space.phase("strided");
    }
    let shift_at = total_steps / 2;
    if step == shift_at {
        space.phase("irregular");
    }
    if step < shift_at {
        let site = space.site("stream_sum", "a[i]", LoadClass::Strided, false, 10);
        let base = space.find_allocation("stream").expect("stream alloc").base;
        for l in 0..loads_per_step {
            let off = ((step * loads_per_step + l) as u64 * 64) % (64 << 10);
            space.load(site, base + off);
        }
    } else {
        let site = space.site("chase_walk", "n->next", LoadClass::Irregular, true, 20);
        let base = space.find_allocation("chase").expect("chase alloc").base;
        for l in 0..loads_per_step {
            let x = (step * loads_per_step + l) as u64;
            let off = (x.wrapping_mul(2654435761) ^ (x << 7)) % (8 << 20);
            space.load(site, base + (off & !7));
        }
    }
    step + 1 < total_steps
}

/// Scripted smoke: run the phase-shift workload under an adaptive
/// controller starting from a deliberately undersized buffer. Asserts
/// the run raised at least one anomaly mark and that the controller
/// converged (drop rate inside the target band for the settle streak).
/// Returns a human-readable summary, or the first failure.
pub fn watch_smoke() -> Result<String, String> {
    let (report, watch) = smoke_run(ControllerMode::Adaptive)?;
    if report.anomalies.is_empty() {
        return Err("smoke run raised no anomaly marks".to_string());
    }
    if report.converged_at.is_none() {
        return Err(format!(
            "controller failed to converge (final drop rate {:.2}, {} retunes)",
            report.final_drop_rate,
            report.retunes.len()
        ));
    }
    let (lo, hi) = watch.controller.target_drop;
    if report.final_drop_rate < lo || report.final_drop_rate > hi {
        return Err(format!(
            "final drop rate {:.2} outside band [{lo:.2}, {hi:.2}]",
            report.final_drop_rate
        ));
    }
    Ok(format!(
        "watch smoke: {} windows, {} anomaly marks (first: {}), controller converged at \
         window {} after {} retunes, final drop rate {:.2} in band [{lo:.2}, {hi:.2}]",
        report.windows.len(),
        report.anomalies.len(),
        report.anomalies[0].detail(),
        report.converged_at.unwrap_or(0),
        report.retunes.len(),
        report.final_drop_rate,
    ))
}

/// The smoke run itself: phase-shift workload, undersized initial
/// buffer, watch config tuned so the adaptive controller has room to
/// converge before the run ends.
fn smoke_run(mode: ControllerMode) -> Result<(WatchReport, WatchConfig), String> {
    let mut cfg = SamplerConfig::application(2_000);
    cfg.buffer_bytes = 1 << 10;
    let watch = WatchConfig {
        window_samples: 4,
        mode,
        ..WatchConfig::default()
    };
    let report = watch_workload(
        "watch-smoke",
        &cfg,
        &watch,
        AnalysisConfig::default(),
        &[16, 64, 256],
        |space, step| phase_shift_steps(space, step, 64, 4_000),
    )
    .map_err(|e| e.to_string())?;
    Ok((report, watch))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_watch_never_retunes_and_is_deterministic() {
        let (a, _) = smoke_run(ControllerMode::Pinned).unwrap();
        let (b, _) = smoke_run(ControllerMode::Pinned).unwrap();
        assert!(a.retunes.is_empty());
        assert_eq!(a.container, b.container);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.anomalies, b.anomalies);
    }

    #[test]
    fn smoke_raises_anomalies_and_converges() {
        let summary = watch_smoke().expect("smoke must pass");
        assert!(summary.contains("anomaly"), "{summary}");
        assert!(summary.contains("converged"), "{summary}");
    }

    #[test]
    fn controller_escalates_to_guard_narrowing_when_saturated() {
        let sampler = SamplerConfig {
            period: 1000,
            buffer_bytes: 512,
            ..SamplerConfig::application(1000)
        };
        let cfg = ControllerConfig {
            target_drop: (0.0, 0.01),
            period_bounds: (1000, 1000),
            buffer_bounds: (512, 512),
            ..ControllerConfig::default()
        };
        let mut c = Controller::new(ControllerMode::Adaptive, cfg, &sampler);
        let obs = SamplerObservation {
            enabled_packets: 1000,
            overwritten_packets: 900,
            peak_used_bytes: 512,
            buffer_bytes: 512,
        };
        let r = c.observe(0, &obs).expect("saturated knobs must narrow");
        assert_eq!(r.guard, GuardAction::Narrow);
        // Fully saturated and already narrowed: nothing left to move.
        assert!(c.observe(1, &obs).is_none());
    }

    #[test]
    fn controller_relaxes_below_band() {
        let sampler = SamplerConfig {
            period: 1000,
            buffer_bytes: 4096,
            ..SamplerConfig::application(1000)
        };
        let cfg = ControllerConfig {
            target_drop: (0.2, 0.6),
            period_bounds: (500, 4000),
            ..ControllerConfig::default()
        };
        let mut c = Controller::new(ControllerMode::Adaptive, cfg, &sampler);
        let idle = SamplerObservation {
            enabled_packets: 1000,
            overwritten_packets: 0,
            peak_used_bytes: 100,
            buffer_bytes: 4096,
        };
        let r = c.observe(0, &idle).expect("below band must stretch period");
        assert!(r.period > 1000);
        assert_eq!(r.guard, GuardAction::Keep);
    }
}
