//! Collection from pre-decoded load streams.
//!
//! The application workloads (miniVite, GAP, Darknet) run as native Rust
//! against a traced address space rather than through the IR interpreter;
//! they emit loads tagged with a static site ip and instrumentation
//! metadata. This module applies the *same* PT mechanisms — circular
//! buffer with async-fill yield, load-count trigger, per-packet byte
//! accounting, guards, bandwidth-limited full collection — to such
//! streams, producing the same [`SampledTrace`]/[`FullTrace`] the decoder
//! yields on the packet path.

use crate::buffer::CircBuffer;
use crate::collector::{BandwidthModel, SamplerConfig};
use crate::guard::IpGuards;
use crate::packet::{PacketStats, PtwPacket};
use memgaze_model::{Access, FullTrace, Ip, Sample, SampledTrace, TraceMeta};

/// Sampled collection over a decoded load stream. A load costs a few
/// counter bumps and, when its `ptwrite` is enabled, one write into the
/// ring; everything else is derived when somebody reads it.
#[derive(Debug)]
pub struct StreamSampler {
    cfg: SamplerConfig,
    /// Buffered accesses, each costing its packet count (two-source
    /// loads carry two packets).
    ring: CircBuffer<Access>,
    loads: u64,
    next_trigger: u64,
    /// `cfg.enable_from(next_trigger)`, re-derived whenever either moves.
    enable_from: u64,
    samples: Vec<Sample>,
    ptwrites_executed: u64,
    ptwrites_enabled: u64,
    /// Packets the snapshots took out of the ring. An enabled packet is
    /// in the ring, was snapshotted, or was overwritten by buffer wrap,
    /// so the overwritten count needs no counter of its own.
    snapshotted: u64,
    /// Since the last [`StreamSampler::take_observation`]: the enabled and
    /// overwritten totals at its start, and the peak fill in packets.
    enabled_at_observation: u64,
    overwritten_at_observation: u64,
    interval_peak: u64,
}

impl StreamSampler {
    /// A sampler with the given configuration, degenerate knobs floored.
    pub fn new(mut cfg: SamplerConfig) -> StreamSampler {
        cfg.normalise();
        StreamSampler {
            ring: CircBuffer::new(cfg.packet_slots(), 1, cfg.yield_factor, cfg.seed),
            loads: 0,
            next_trigger: cfg.period,
            enable_from: cfg.enable_from(cfg.period),
            samples: Vec::new(),
            ptwrites_executed: 0,
            ptwrites_enabled: 0,
            snapshotted: 0,
            enabled_at_observation: 0,
            overwritten_at_observation: 0,
            interval_peak: 0,
            cfg,
        }
    }

    /// Snapshot the ring into a sample at the current load count.
    fn sample(&mut self) {
        self.snapshotted += self.ring.used();
        let accesses = self.ring.snapshot();
        self.samples.push(Sample::new(accesses, self.loads));
    }

    #[cold]
    fn trigger(&mut self) {
        self.sample();
        self.next_trigger += self.cfg.period;
        self.enable_from = self.cfg.enable_from(self.next_trigger);
    }

    /// Feed one executed load. `instrumented` marks loads that carry
    /// `ptwrite`s; `packets` is the number of source registers (1 or 2).
    #[inline]
    pub fn on_load(&mut self, ip: Ip, addr: u64, instrumented: bool, packets: u8) {
        if instrumented {
            let packets = u64::from(packets);
            self.ptwrites_executed += packets;
            if self.loads >= self.enable_from
                && (!self.cfg.guards.is_filtering() || self.cfg.guards.allows(ip))
            {
                self.ptwrites_enabled += packets;
                self.ring.push(Access::new(ip, addr, self.loads), packets);
                if self.ring.used() > self.interval_peak {
                    self.interval_peak = self.ring.used();
                }
            }
        }
        self.loads += 1;
        if self.loads >= self.next_trigger {
            self.trigger();
        }
    }

    /// Loads seen so far.
    pub fn loads_seen(&self) -> u64 {
        self.loads
    }

    /// Number of completed samples awaiting collection.
    #[inline]
    pub fn completed_samples(&self) -> usize {
        self.samples.len()
    }

    /// Drain the samples completed so far without ending collection —
    /// the streaming ingest path encodes them shard-by-shard as they
    /// appear instead of letting the whole trace pile up here.
    pub fn take_completed(&mut self) -> Vec<Sample> {
        std::mem::take(&mut self.samples)
    }

    /// Drain the interval accounting since the previous call: how many
    /// packets were enabled, how many were overwritten by buffer wrap
    /// before a snapshot could save them, and the peak buffer fill.
    /// This is the feedback signal the watch controller observes.
    pub fn take_observation(&mut self) -> SamplerObservation {
        let overwritten = self.ptwrites_enabled - self.snapshotted - self.ring.used();
        let obs = SamplerObservation {
            enabled_packets: self.ptwrites_enabled - self.enabled_at_observation,
            overwritten_packets: overwritten - self.overwritten_at_observation,
            peak_used_bytes: self.interval_peak * self.cfg.packet_bytes(),
            buffer_bytes: self.cfg.buffer_bytes,
        };
        self.enabled_at_observation = self.ptwrites_enabled;
        self.overwritten_at_observation = overwritten;
        self.interval_peak = self.ring.used();
        obs
    }

    /// Retune the sampling knobs mid-run: period (`w + z`), buffer
    /// capacity, and the hardware address-range guards. The next
    /// trigger is re-derived from the new period so a shrunk period
    /// takes effect immediately instead of after the old interval. A
    /// shrunk buffer keeps its contents until the next packet arrives.
    pub fn retune(&mut self, period: u64, buffer_bytes: u64, guards: IpGuards) {
        let old_period = self.cfg.period;
        self.cfg.period = period;
        self.cfg.buffer_bytes = buffer_bytes;
        self.cfg.guards = guards;
        self.cfg.normalise();
        if self.cfg.period != old_period {
            self.next_trigger = self.loads + self.cfg.period;
        }
        self.ring.set_capacity(self.cfg.packet_slots());
        self.enable_from = self.cfg.enable_from(self.next_trigger);
    }

    /// The sampling configuration currently in force (post-retune).
    pub fn config(&self) -> &SamplerConfig {
        &self.cfg
    }

    /// Finish, returning the trace parts instead of an assembled trace:
    /// final metadata, any samples not yet drained (including the
    /// flushed trailing partial sample), and collection stats.
    pub fn finish_parts(mut self, workload: &str) -> (TraceMeta, Vec<Sample>, StreamStats) {
        if !self.ring.is_empty() {
            self.sample();
        }
        let mut meta = TraceMeta::new(workload, self.cfg.period, self.cfg.buffer_bytes);
        meta.total_loads = self.loads;
        meta.total_instrumented_loads = self.ptwrites_executed;
        // TSC/PSB counts telescope, so one bulk add equals the per-load
        // adds it replaces.
        let mut packets = PacketStats::default();
        packets.add_ptw(self.ptwrites_enabled);
        let stats = StreamStats {
            packets,
            total_loads: self.loads,
            ptwrites_executed: self.ptwrites_executed,
            ptwrites_enabled: self.ptwrites_enabled,
        };
        (meta, self.samples, stats)
    }

    /// Finish: flush a trailing partial sample and build the trace.
    pub fn finish(self, workload: &str) -> (SampledTrace, StreamStats) {
        let (meta, samples, stats) = self.finish_parts(workload);
        let mut trace = SampledTrace::new(meta);
        for s in samples {
            trace.push_sample(s).expect("samples are produced in order");
        }
        (trace, stats)
    }
}

/// Accounting from a stream collection run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Packet/byte accounting.
    pub packets: PacketStats,
    /// Loads fed.
    pub total_loads: u64,
    /// `ptwrite`s the instrumented binary executed.
    pub ptwrites_executed: u64,
    /// `ptwrite`s executed while PT was enabled.
    pub ptwrites_enabled: u64,
}

/// One interval's feedback signal from the sampler: how hard the
/// circular buffer was pressed and how much was lost to overwrite.
/// Drained by [`StreamSampler::take_observation`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplerObservation {
    /// Packets written while PT was enabled this interval.
    pub enabled_packets: u64,
    /// Packets evicted by buffer wrap before a snapshot saved them.
    pub overwritten_packets: u64,
    /// Peak circular-buffer fill (bytes) this interval.
    pub peak_used_bytes: u64,
    /// Buffer capacity in force at drain time.
    pub buffer_bytes: u64,
}

impl SamplerObservation {
    /// Fraction of enabled packets lost to overwrite (0 when idle).
    pub fn drop_rate(&self) -> f64 {
        if self.enabled_packets == 0 {
            0.0
        } else {
            self.overwritten_packets as f64 / self.enabled_packets as f64
        }
    }

    /// Peak buffer fill as a fraction of capacity.
    pub fn pressure(&self) -> f64 {
        if self.buffer_bytes == 0 {
            0.0
        } else {
            self.peak_used_bytes as f64 / self.buffer_bytes as f64
        }
    }
}

/// Full-trace collection over a decoded load stream, with the
/// token-bucket bandwidth model ('Rec' traces).
#[derive(Debug)]
pub struct StreamFull {
    bw: BandwidthModel,
    compact: bool,
    tokens: f64,
    /// Kept accesses.
    pub accesses: Vec<Access>,
    /// Packet accounting.
    pub stats: PacketStats,
    loads: u64,
    dropped_accesses: u64,
    in_drop_burst: bool,
}

impl StreamFull {
    /// Bandwidth-limited collection.
    pub fn new(bw: BandwidthModel) -> StreamFull {
        StreamFull {
            tokens: bw.burst_bytes,
            bw,
            compact: false,
            accesses: Vec::new(),
            stats: PacketStats::default(),
            loads: 0,
            dropped_accesses: 0,
            in_drop_burst: false,
        }
    }

    /// Ideal collection ('All' traces).
    pub fn unlimited() -> StreamFull {
        StreamFull::new(BandwidthModel {
            bytes_per_load: f64::INFINITY,
            burst_bytes: f64::INFINITY,
        })
    }

    /// Feed one executed load.
    pub fn on_load(&mut self, ip: Ip, addr: u64, instrumented: bool, packets: u8) {
        let time = self.loads;
        self.loads += 1;
        if self.tokens.is_finite() {
            self.tokens = (self.tokens + self.bw.bytes_per_load).min(self.bw.burst_bytes);
        }
        if !instrumented {
            return;
        }
        self.stats.add_ptw(u64::from(packets));
        let cost = u64::from(packets) as f64 * PtwPacket::bytes(self.compact) as f64;
        if self.tokens >= cost {
            self.tokens -= cost;
            self.in_drop_burst = false;
            self.accesses.push(Access::new(ip, addr, time));
        } else {
            self.stats.dropped_packets += u64::from(packets);
            self.dropped_accesses += 1;
            if !self.in_drop_burst {
                self.stats.drop_records += 1;
                self.in_drop_burst = true;
            }
        }
    }

    /// Finish and build the full trace.
    pub fn finish(self, workload: &str) -> FullTrace {
        let mut meta = TraceMeta::new(workload, 0, 0);
        meta.total_loads = self.loads;
        meta.total_instrumented_loads = self.accesses.len() as u64 + self.dropped_accesses;
        let mut t = FullTrace::new(meta);
        t.accesses = self.accesses;
        t.dropped = self.dropped_accesses;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::PtMode;

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
}
