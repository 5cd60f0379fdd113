//! Time-based sampling trigger — the accuracy foil for load-based
//! triggering.
//!
//! Paper §III-C, footnote 2: "To ensure a uniform sample of memory
//! addresses, the sample trigger should be a hardware counter for memory
//! accesses, e.g., loads. Sampling in time will decrease accuracy if the
//! load rate changes over time." [`TimeStreamSampler`] triggers on
//! elapsed *cycles* rather than executed loads, so phases with a low load
//! rate are over-represented per load — the ablation binary quantifies
//! the resulting bias.

use crate::buffer::CircBuffer;
use crate::collector::SamplerConfig;
use crate::packet::PacketStats;
use memgaze_model::{Access, Ip, Sample, SampledTrace, TraceMeta};

/// Sampled collection triggered on elapsed cycles instead of loads.
#[derive(Debug)]
pub struct TimeStreamSampler {
    cfg: SamplerConfig,
    /// Buffered accesses, each costing its packet count.
    ring: CircBuffer<Access>,
    loads: u64,
    cycles: u64,
    next_trigger_cycles: u64,
    samples: Vec<Sample>,
    stats: PacketStats,
}

impl TimeStreamSampler {
    /// A time-triggered sampler; `cfg.period` is interpreted in *cycles*.
    pub fn new(mut cfg: SamplerConfig) -> TimeStreamSampler {
        cfg.normalise();
        TimeStreamSampler {
            ring: CircBuffer::new(cfg.packet_slots(), 1, cfg.yield_factor, cfg.seed),
            loads: 0,
            cycles: 0,
            next_trigger_cycles: cfg.period,
            samples: Vec::new(),
            stats: PacketStats::default(),
            cfg,
        }
    }

    /// Feed one executed load that took `cycles` cycles of program time
    /// (1 for back-to-back loads; larger in compute-heavy phases).
    pub fn on_load(&mut self, ip: Ip, addr: u64, instrumented: bool, packets: u8, cycles: u64) {
        if instrumented && self.cfg.guards.allows(ip) {
            self.stats.add_ptw(u64::from(packets));
            let access = Access::new(ip, addr, self.loads);
            self.ring.push(access, u64::from(packets));
        }
        self.loads += 1;
        self.cycles += cycles.max(1);
        if self.cycles >= self.next_trigger_cycles {
            let accesses = self.ring.snapshot();
            self.samples.push(Sample::new(accesses, self.loads));
            self.next_trigger_cycles += self.cfg.period;
        }
    }

    /// Finish and build the trace. The meta's `period` field records the
    /// *average* loads per sample so ρ stays meaningful for downstream
    /// analysis (which is exactly the bias: it is only an average).
    pub fn finish(mut self, workload: &str) -> (SampledTrace, PacketStats) {
        if !self.ring.is_empty() {
            let accesses = self.ring.snapshot();
            self.samples.push(Sample::new(accesses, self.loads));
        }
        let avg_period = if self.samples.is_empty() {
            self.cfg.period
        } else {
            self.loads / self.samples.len() as u64
        };
        let mut meta = TraceMeta::new(workload, avg_period.max(1), self.cfg.buffer_bytes);
        meta.total_loads = self.loads;
        let mut trace = SampledTrace::new(meta);
        for s in self.samples {
            trace.push_sample(s).expect("in order");
        }
        (trace, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamSampler;

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
