//! Collection from pre-decoded load streams.
//!
//! The application workloads (miniVite, GAP, Darknet) run as native Rust
//! against a traced address space rather than through the IR interpreter;
//! they emit loads tagged with a static site ip and instrumentation
//! metadata. This module runs the *same* PT model over [`Access`]es: the
//! ring holds `buffer_bytes / packet_bytes` whole packets, an access
//! costs its packet count (two-source loads carry two).

use crate::buffer::CircBuffer;
use crate::packet::PacketStats;
use crate::pt::{FullCollector, Payload, Sampler, StreamStats};
use memgaze_model::{Access, FullTrace, Ip, Sample, SampledTrace, TraceMeta};

/// The load-triggered sampler over a decoded load stream.
pub type StreamSampler = Sampler<Access>;

/// The cycle-triggered sampler (paper §III-C, footnote 2: "Sampling in
/// time will decrease accuracy if the load rate changes over time"); its
/// period is in cycles.
pub type TimeStreamSampler = Sampler<Access, true>;

/// Full-trace collection over a decoded load stream ('Rec' traces, or
/// 'All' with `StreamFull::unlimited()`).
pub type StreamFull = FullCollector<Access>;

impl Payload for Access {
    type Sample = Sample;

    fn unit_bytes(packet_bytes: u64) -> u64 {
        packet_bytes
    }

    #[inline]
    fn cost(packets: u64, _packet_bytes: u64, _nth: u64) -> u64 {
        packets
    }

    fn held(ring: &CircBuffer<Access>) -> u64 {
        ring.used()
    }

    fn sample(accesses: Vec<Access>, trigger_time: u64) -> Sample {
        Sample::new(accesses, trigger_time)
    }
}

impl StreamSampler {
    /// Feed one executed load. `instrumented` marks loads that carry
    /// `ptwrite`s; `packets` is the number of source registers (1 or 2).
    #[inline]
    pub fn on_load(&mut self, ip: Ip, addr: u64, instrumented: bool, packets: u8) {
        if instrumented {
            self.record(ip, Access::new(ip, addr, self.loads), u64::from(packets));
        }
        self.advance(1);
    }

    /// Finish, returning the trace parts instead of an assembled trace:
    /// final metadata, any samples not yet drained (including the
    /// flushed trailing partial sample), and collection stats.
    pub fn finish_parts(self, workload: &str) -> (TraceMeta, Vec<Sample>, StreamStats) {
        let (cfg, samples, stats) = self.close();
        let mut meta = TraceMeta::new(workload, cfg.period, cfg.buffer_bytes);
        meta.total_loads = stats.total_loads;
        meta.total_instrumented_loads = stats.ptwrites_executed;
        (meta, samples, stats)
    }

    /// Finish: flush a trailing partial sample and build the trace.
    pub fn finish(self, workload: &str) -> (SampledTrace, StreamStats) {
        let (meta, samples, stats) = self.finish_parts(workload);
        // Snapshots are taken as the load count grows, so the samples
        // are in trigger order.
        (SampledTrace { meta, samples }, stats)
    }
}

impl TimeStreamSampler {
    /// Feed one executed load that took `cycles` cycles of program time
    /// (1 for back-to-back loads; larger in compute-heavy phases).
    pub fn on_load(&mut self, ip: Ip, addr: u64, instrumented: bool, packets: u8, cycles: u64) {
        if instrumented {
            self.record(ip, Access::new(ip, addr, self.loads), u64::from(packets));
        }
        self.advance(cycles.max(1));
    }

    /// Finish and build the trace. The meta's `period` field records the
    /// *average* loads per sample so ρ stays meaningful for downstream
    /// analysis (which is exactly the bias: it is only an average).
    pub fn finish(self, workload: &str) -> (SampledTrace, PacketStats) {
        let (cfg, samples, stats) = self.close();
        let avg_period = (stats.total_loads)
            .checked_div(samples.len() as u64)
            .unwrap_or(cfg.period);
        let mut meta = TraceMeta::new(workload, avg_period.max(1), cfg.buffer_bytes);
        meta.total_loads = stats.total_loads;
        meta.total_instrumented_loads = stats.ptwrites_executed;
        (SampledTrace { meta, samples }, stats.packets)
    }
}

impl StreamFull {
    /// Feed one executed load.
    pub fn on_load(&mut self, ip: Ip, addr: u64, instrumented: bool, packets: u8) {
        let time = self.loads;
        self.load();
        if instrumented {
            self.offer(Access::new(ip, addr, time), u64::from(packets));
        }
    }

    /// Finish and build the full trace.
    pub fn finish(self, workload: &str) -> FullTrace {
        let mut meta = TraceMeta::new(workload, 0, 0);
        meta.total_loads = self.loads;
        meta.total_instrumented_loads = self.kept.len() as u64 + self.dropped;
        let mut t = FullTrace::new(meta);
        t.accesses = self.kept;
        t.dropped = self.dropped;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{BandwidthModel, PtMode, SamplerConfig};
    use crate::guard::IpGuards;

    fn feed_n(s: &mut StreamSampler, n: u64) {
        for t in 0..n {
            s.on_load(Ip(0x400), 0x10_0000 + (t % 256) * 64, true, 1);
        }
    }

    #[test]
    fn degenerate_knobs_are_raised_at_construction_and_retune() {
        let mut cfg = SamplerConfig::microbench();
        cfg.period = 0;
        cfg.buffer_bytes = 0;
        let mut s = StreamSampler::new(cfg.clone());
        assert_eq!((s.config().period, s.config().buffer_bytes), (1, 10));
        feed_n(&mut s, 10);
        s.retune(50, 4096, IpGuards::all());
        s.retune(0, 3, IpGuards::all());
        assert_eq!((s.config().period, s.config().buffer_bytes), (1, 10));
        feed_n(&mut s, 10);
        let (trace, _) = s.finish("w");
        // One sample per load, and a period the analysis can divide by.
        assert_eq!(trace.meta.period, 1);
        assert_eq!(trace.num_samples(), 20);

        cfg.compact_payloads = true;
        assert_eq!(StreamSampler::new(cfg.clone()).config().buffer_bytes, 6);
        // An out-of-range yield factor is clamped, not a panic.
        for (given, taken) in [(-3.0, 0.0), (7.5, 1.0), (f64::NAN, 0.0), (0.25, 0.25)] {
            cfg.yield_factor = given;
            assert_eq!(StreamSampler::new(cfg.clone()).config().yield_factor, taken);
        }

        // The packet path (`memgaze ubench --period 0`) takes the same
        // floors, in the collector and in the meta its decoder stamps.
        use memgaze_isa::codegen::{self, Compose, OptLevel, Pattern, UKernelSpec};
        let m = codegen::generate(&UKernelSpec {
            compose: Compose::Single(Pattern::strided(1)),
            elems: 16,
            reps: 2,
            opt: OptLevel::O3,
        });
        let main = m.find_proc("main").unwrap();
        let inst = memgaze_instrument::Instrumenter::default().instrument(&m);
        cfg.yield_factor = 7.5;
        let (trace, stats, _) = crate::runner::collect_sampled(&inst, main, cfg, "u").unwrap();
        assert_eq!((trace.meta.period, trace.meta.buffer_bytes), (1, 6));
        assert_eq!(stats.samples, stats.exec.loads);
    }

    #[test]
    fn drained_samples_match_monolithic_finish() {
        let mut cfg = SamplerConfig::microbench();
        cfg.period = 1000;
        let mut whole = StreamSampler::new(cfg.clone());
        let mut drained = StreamSampler::new(cfg);
        let mut collected = Vec::new();
        for t in 0..10_000u64 {
            whole.on_load(Ip(0x400), 0x10_0000 + (t % 256) * 64, true, 1);
            drained.on_load(Ip(0x400), 0x10_0000 + (t % 256) * 64, true, 1);
            if drained.completed_samples() >= 3 {
                collected.extend(drained.take_completed());
            }
        }
        let (trace, whole_stats) = whole.finish("w");
        let (meta, tail, drained_stats) = drained.finish_parts("w");
        collected.extend(tail);
        assert_eq!(meta, trace.meta);
        assert_eq!(collected, trace.samples);
        assert_eq!(drained_stats.total_loads, whole_stats.total_loads);
    }

    #[test]
    fn stream_sampler_produces_periodic_samples() {
        let mut cfg = SamplerConfig::microbench();
        cfg.period = 1000;
        let mut s = StreamSampler::new(cfg);
        feed_n(&mut s, 10_000);
        let (trace, stats) = s.finish("stream");
        assert!(trace.num_samples() >= 10);
        assert_eq!(stats.total_loads, 10_000);
        assert_eq!(trace.meta.total_loads, 10_000);
        // Sample windows reflect buffer capacity and yield factor, not
        // the whole period.
        assert!(trace.mean_window() < 1000.0);
        assert!(trace.mean_window() > 10.0);
    }

    #[test]
    fn uninstrumented_loads_count_but_do_not_record() {
        let mut cfg = SamplerConfig::microbench();
        cfg.period = 100;
        let mut s = StreamSampler::new(cfg);
        for t in 0..1000u64 {
            s.on_load(Ip(0x400), t * 8, false, 1);
        }
        let (trace, stats) = s.finish("stream");
        assert_eq!(stats.total_loads, 1000);
        assert_eq!(trace.observed_accesses(), 0);
        assert!(trace.num_samples() >= 10); // triggers still fire
    }

    #[test]
    fn two_source_loads_cost_double() {
        let mut cfg = SamplerConfig::microbench();
        cfg.period = 1 << 40; // never trigger: inspect buffer pressure only
        cfg.buffer_bytes = 200; // 20 single packets or 10 double
        let mut one = StreamSampler::new(cfg.clone());
        let mut two = StreamSampler::new(cfg);
        for t in 0..100u64 {
            one.on_load(Ip(0x1), t, true, 1);
            two.on_load(Ip(0x2), t, true, 2);
        }
        let (t1, _) = one.finish("a");
        let (t2, _) = two.finish("b");
        let w1 = t1.observed_accesses();
        let w2 = t2.observed_accesses();
        assert!(w2 < w1, "two-source loads must fill the buffer faster");
    }

    #[test]
    fn stream_full_drop_model() {
        let mut f = StreamFull::new(BandwidthModel::default());
        for t in 0..100_000u64 {
            f.on_load(Ip(0x1), t * 8, true, 2);
        }
        let trace = f.finish("w");
        assert!(trace.dropped > 0);
        let rate = trace.drop_rate();
        assert!((0.2..0.9).contains(&rate), "drop rate {rate}");

        let mut u = StreamFull::unlimited();
        for t in 0..10_000u64 {
            u.on_load(Ip(0x1), t * 8, true, 2);
        }
        assert_eq!(u.finish("w").dropped, 0);
    }

    #[test]
    fn sample_only_reduces_enabled_ptwrites() {
        let mut cfg = SamplerConfig::application(10_000);
        cfg.mode = PtMode::SampleOnly;
        let mut opt = StreamSampler::new(cfg.clone());
        let mut cont = StreamSampler::new(SamplerConfig {
            mode: PtMode::Continuous,
            ..cfg
        });
        for t in 0..100_000u64 {
            opt.on_load(Ip(0x1), t * 8, true, 1);
            cont.on_load(Ip(0x1), t * 8, true, 1);
        }
        let (_, so) = opt.finish("o");
        let (_, sc) = cont.finish("c");
        assert_eq!(so.ptwrites_executed, sc.ptwrites_executed);
        assert!(so.ptwrites_enabled * 3 < sc.ptwrites_enabled);
    }

    /// A two-phase stream: a dense phase (1 cycle/load, addresses in
    /// region A) and a sparse phase (10 cycles/load, region B), equal
    /// load counts.
    fn feed_two_phase(mut dense: impl FnMut(Ip, u64, u64), n: u64) {
        for t in 0..n {
            dense(Ip(0x400), 0x10_0000 + (t % 512) * 64, 1);
        }
        for t in 0..n {
            dense(Ip(0x404), 0x80_0000 + (t % 512) * 64, 10);
        }
    }

    #[test]
    fn time_trigger_biases_toward_slow_phases() {
        let mut cfg = SamplerConfig::application(20_000);
        cfg.buffer_bytes = 2 << 10;
        let mut time_sampler = TimeStreamSampler::new(cfg.clone());
        let mut load_sampler = StreamSampler::new(SamplerConfig {
            // Equalize the *number of triggers*: total cycles = 11n,
            // total loads = 2n, so the load-based period is scaled.
            period: 20_000 * 2 / 11,
            ..cfg
        });
        let n = 200_000u64;
        feed_two_phase(|ip, a, c| time_sampler.on_load(ip, a, true, 1, c), n);
        feed_two_phase(|ip, a, _| load_sampler.on_load(ip, a, true, 1), n);

        let (tt, _) = time_sampler.finish("time");
        let (lt, _) = load_sampler.finish("loads");

        let frac_b = |trace: &SampledTrace| {
            let total = trace.observed_accesses().max(1);
            let b = trace
                .accesses()
                .filter(|a| a.addr.raw() >= 0x80_0000)
                .count() as u64;
            b as f64 / total as f64
        };
        // The load stream is 50/50; load-based sampling stays near that,
        // time-based sampling over-represents the slow phase.
        let fb_load = frac_b(&lt);
        let fb_time = frac_b(&tt);
        assert!(
            (0.3..0.7).contains(&fb_load),
            "load-based sample should be balanced: {fb_load:.2}"
        );
        assert!(
            fb_time > fb_load + 0.15,
            "time-based sample must over-represent the slow phase: {fb_time:.2} vs {fb_load:.2}"
        );
    }

    #[test]
    fn cycle_trigger_ignores_sample_only_mode() {
        // The sample-only enable window is sized in loads, so the cycle
        // trigger keeps PT enabled for the whole run in either mode.
        let mut cfg = SamplerConfig::application(20_000);
        cfg.buffer_bytes = 2 << 10;
        let mut cont = TimeStreamSampler::new(cfg.clone());
        cfg.mode = PtMode::SampleOnly;
        let mut opt = TimeStreamSampler::new(cfg);
        feed_two_phase(|ip, a, c| cont.on_load(ip, a, true, 1, c), 50_000);
        feed_two_phase(|ip, a, c| opt.on_load(ip, a, true, 1, c), 50_000);
        assert_eq!(opt.finish("t"), cont.finish("t"));
    }

    #[test]
    fn both_triggers_count_the_instrumented_loads() {
        let cfg = SamplerConfig::application(10_000);
        let mut tt = TimeStreamSampler::new(cfg.clone());
        let mut lt = StreamSampler::new(cfg);
        // Every third load carries no `ptwrite`, every other one two; the
        // count is of `ptwrite`s executed, whatever the trigger.
        for t in 0..30_000u64 {
            let (instrumented, packets) = (t % 3 != 0, 1 + (t % 2) as u8);
            tt.on_load(Ip(0x400), t * 8, instrumented, packets, 1 + t % 5);
            lt.on_load(Ip(0x400), t * 8, instrumented, packets);
        }
        let (time, _) = tt.finish("t");
        let (load, stats) = lt.finish("l");
        assert_eq!(load.meta.total_instrumented_loads, stats.ptwrites_executed);
        assert_eq!(
            time.meta.total_instrumented_loads,
            load.meta.total_instrumented_loads
        );
        assert!(time.meta.total_instrumented_loads > 0);
    }

    #[test]
    fn uniform_rate_makes_both_triggers_agree() {
        let cfg = SamplerConfig::application(10_000);
        let mut tt = TimeStreamSampler::new(cfg.clone());
        let mut lt = StreamSampler::new(cfg);
        for t in 0..100_000u64 {
            let addr = 0x10_0000 + (t % 1024) * 64;
            tt.on_load(Ip(0x400), addr, true, 1, 1);
            lt.on_load(Ip(0x400), addr, true, 1);
        }
        let (a, _) = tt.finish("t");
        let (b, _) = lt.finish("l");
        // Same trigger cadence, similar sample counts and windows.
        assert!((a.num_samples() as i64 - b.num_samples() as i64).abs() <= 1);
        assert!((a.mean_window() - b.mean_window()).abs() / b.mean_window() < 0.4);
    }
}
