//! Collection configuration and the IR interpreter's path (paper Fig. 1,
//! Step 2): the one PT model over `ptwrite` packets, each costing its
//! bytes plus the amortised TSC/PSB sideband. In *continuous* mode
//! (current kernel support) PT generates packets all the time; in *opt*
//! mode (the paper's proof of concept) PT is enabled only during an
//! enable-window before each trigger, which the overhead model rewards.

use crate::buffer::{CircBuffer, DEFAULT_YIELD};
use crate::guard::IpGuards;
use crate::packet::{sideband_bytes, PacketStats, PtwPacket};
use crate::pt::{FullCollector, Payload, Sampler};
use memgaze_isa::interp::EventSink;
use memgaze_model::Ip;
use serde::{Deserialize, Serialize};

/// Whether PT runs continuously or only during sample windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PtMode {
    /// PT enabled for the whole run ("suboptimal kernel support").
    Continuous,
    /// PT enabled only while the buffer should fill before each trigger
    /// (MemGaze-opt).
    SampleOnly,
}

/// Collection configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SamplerConfig {
    /// Sampling period `w+z` in executed loads.
    pub period: u64,
    /// Circular buffer capacity in bytes.
    pub buffer_bytes: u64,
    /// Use 32-bit compact PTW payloads.
    pub compact_payloads: bool,
    /// Hardware IP filters.
    pub guards: IpGuards,
    /// Continuous vs. sample-only PT enable.
    pub mode: PtMode,
    /// RNG seed for the buffer's async-fill jitter.
    pub seed: u64,
    /// Mean snapshot yield factor (see [`CircBuffer`]).
    pub yield_factor: f64,
}

impl SamplerConfig {
    /// The paper's microbenchmark configuration: 10 K-load period,
    /// 16-KiB buffer (≈1150 addresses per sample).
    pub fn microbench() -> SamplerConfig {
        SamplerConfig {
            buffer_bytes: 16 << 10,
            ..SamplerConfig::application(10_000)
        }
    }

    /// The paper's application configuration: large period (10 M for
    /// miniVite, 5 M for GAP), 8-KiB buffer (≈500 addresses per sample).
    pub fn application(period: u64) -> SamplerConfig {
        SamplerConfig {
            period,
            buffer_bytes: 8 << 10,
            compact_payloads: false,
            guards: IpGuards::all(),
            mode: PtMode::Continuous,
            seed: 0x5eed,
            yield_factor: DEFAULT_YIELD,
        }
    }

    pub(crate) fn packet_bytes(&self) -> u64 {
        PtwPacket::bytes(self.compact_payloads)
    }

    /// Whole packets the buffer holds.
    fn packet_slots(&self) -> u64 {
        self.buffer_bytes / self.packet_bytes()
    }

    /// Bring degenerate knobs to what a collector can run: a period of one
    /// load, a buffer of one packet, a yield factor in `[0, 1]`.
    /// `Sampler::new`, `Sampler::retune` and `runner::collect_sampled` call it.
    pub(crate) fn normalise(&mut self) {
        self.period = self.period.max(1);
        self.buffer_bytes = self.buffer_bytes.max(self.packet_bytes());
        let y = self.yield_factor;
        self.yield_factor = if y.is_nan() { 0.0 } else { y.clamp(0.0, 1.0) };
    }

    /// First load index at which PT generates packets ahead of a trigger
    /// at load `next_trigger`: 0 in [`PtMode::Continuous`]; in
    /// [`PtMode::SampleOnly`] the start of an enable window sized to the
    /// buffer's packet capacity with 50% slack (an upper bound on `w` in
    /// loads assuming ≥1 packet per load), so the buffer can fill.
    pub(crate) fn enable_from(&self, next_trigger: u64) -> u64 {
        match self.mode {
            PtMode::Continuous => 0,
            PtMode::SampleOnly => next_trigger.saturating_sub(self.packet_slots() * 3 / 2),
        }
    }
}

/// One raw (undecoded) sample: buffer contents at a trigger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawSample {
    /// Load-counter time of the trigger.
    pub(crate) trigger_time: u64,
    /// Snapshot packets, oldest first.
    pub(crate) packets: Vec<PtwPacket>,
}

/// The raw sampled trace a collection run produces (perf.data analogue).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RawSampledTrace {
    /// Raw samples in trigger order.
    pub(crate) samples: Vec<RawSample>,
    /// Packet/byte accounting.
    pub(crate) stats: PacketStats,
    /// Total loads observed by the trigger counter.
    pub(crate) total_loads: u64,
    /// Total `ptwrite`s executed while PT was enabled.
    ptwrites_enabled: u64,
    /// Total `ptwrite`s executed in the run (enabled or not).
    pub(crate) ptwrites_executed: u64,
}

/// The sampler on the packet path; plugs into the interpreter as an
/// [`EventSink`].
pub type SampledCollector = Sampler<PtwPacket>;

impl Payload for PtwPacket {
    type Sample = RawSample;

    fn unit_bytes(_packet_bytes: u64) -> u64 {
        1
    }

    /// A packet's bytes plus the TSC/PSB sideband emitted with it.
    #[inline]
    fn cost(packets: u64, packet_bytes: u64, nth: u64) -> u64 {
        packets * packet_bytes + sideband_bytes(nth)
    }

    fn held(ring: &CircBuffer<PtwPacket>) -> u64 {
        ring.len() as u64
    }

    fn sample(packets: Vec<PtwPacket>, trigger_time: u64) -> RawSample {
        RawSample {
            trigger_time,
            packets,
        }
    }
}

impl SampledCollector {
    /// Finish collection: flush a final partial sample if the buffer holds
    /// data, and return the raw trace.
    pub fn finish(self) -> RawSampledTrace {
        let (_, samples, stats) = self.close();
        RawSampledTrace {
            samples,
            stats: stats.packets,
            total_loads: stats.total_loads,
            ptwrites_enabled: stats.ptwrites_enabled,
            ptwrites_executed: stats.ptwrites_executed,
        }
    }
}

impl EventSink for SampledCollector {
    fn on_load(&mut self, _ip: Ip, _addr: u64, _load_time: u64) {
        self.advance(1);
    }

    fn on_ptwrite(&mut self, ip: Ip, payload: u64, load_time: u64) {
        let packet = PtwPacket {
            ip,
            payload,
            load_time,
        };
        self.record(ip, packet, 1);
    }
}

/// Bandwidth model for full-trace collection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthModel {
    /// Sustainable copy bandwidth in trace bytes per executed load.
    pub bytes_per_load: f64,
    /// Token-bucket burst capacity in bytes (one pinned-buffer copy).
    pub burst_bytes: f64,
}

impl Default for BandwidthModel {
    fn default() -> Self {
        // Calibrated so load-intensive instrumented code (≈1 packet/load,
        // 10 B each) drops 30–50% of packets, as the paper observed.
        BandwidthModel {
            bytes_per_load: 6.0,
            burst_bytes: 64.0 * 1024.0,
        }
    }
}

impl EventSink for FullCollector<PtwPacket> {
    fn on_load(&mut self, _ip: Ip, _addr: u64, _load_time: u64) {
        self.load();
    }

    fn on_ptwrite(&mut self, ip: Ip, payload: u64, load_time: u64) {
        let packet = PtwPacket {
            ip,
            payload,
            load_time,
        };
        self.offer(packet, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(c: &mut impl EventSink, loads: u64, ptw_per_load: u64) {
        for t in 0..loads {
            for k in 0..ptw_per_load {
                c.on_ptwrite(Ip(0x400 + k), 0x10_0000 + t * 8, t);
            }
            c.on_load(Ip(0x404), 0x10_0000 + t * 8, t);
        }
    }

    #[test]
    fn sampler_triggers_every_period() {
        let mut cfg = SamplerConfig::microbench();
        cfg.period = 1000;
        let mut c = SampledCollector::new(cfg);
        feed(&mut c, 10_000, 1);
        let raw = c.finish();
        // 10 triggers (no trailing partial: buffer emptied at the last
        // trigger exactly at load 10 000? The final flush may add one).
        assert!(raw.samples.len() >= 10);
        assert_eq!(raw.total_loads, 10_000);
        for s in &raw.samples {
            assert!(s.trigger_time % 1000 == 0 || s.trigger_time == 10_000);
            assert!(!s.packets.is_empty());
        }
    }

    #[test]
    fn sample_only_mode_executes_fewer_enabled_ptwrites() {
        let mut cont_cfg = SamplerConfig::microbench();
        cont_cfg.period = 10_000;
        let mut opt_cfg = cont_cfg.clone();
        opt_cfg.mode = PtMode::SampleOnly;

        let mut cont = SampledCollector::new(cont_cfg);
        let mut opt = SampledCollector::new(opt_cfg);
        feed(&mut cont, 50_000, 1);
        feed(&mut opt, 50_000, 1);
        let (c, o) = (cont.finish(), opt.finish());
        assert_eq!(c.ptwrites_executed, o.ptwrites_executed);
        assert!(
            o.ptwrites_enabled * 2 < c.ptwrites_enabled,
            "opt enabled {} vs continuous {}",
            o.ptwrites_enabled,
            c.ptwrites_enabled
        );
        // Both still produce samples of similar size.
        assert_eq!(c.samples.len(), o.samples.len());
        let mean = |r: &RawSampledTrace| {
            r.samples.iter().map(|s| s.packets.len()).sum::<usize>() as f64 / r.samples.len() as f64
        };
        let (mc, mo) = (mean(&c), mean(&o));
        assert!(
            (mo - mc).abs() / mc < 0.5,
            "opt sample size {mo} too far from continuous {mc}"
        );
    }

    #[test]
    fn guards_suppress_packets() {
        let mut cfg = SamplerConfig::microbench();
        cfg.period = 100;
        cfg.guards = IpGuards::from_ranges(vec![(Ip(0x1000), Ip(0x2000))]);
        let mut c = SampledCollector::new(cfg);
        feed(&mut c, 1000, 1); // ptwrites at 0x400: outside guard
        let raw = c.finish();
        assert_eq!(raw.stats.ptw_packets, 0);
        assert!(raw.samples.iter().all(|s| s.packets.is_empty()));
        assert_eq!(raw.ptwrites_executed, 1000);
        assert_eq!(raw.ptwrites_enabled, 0);
    }

    #[test]
    fn full_collector_drops_under_pressure() {
        // 2 packets per load at 10 B each = 20 B/load demand vs 6 B/load
        // sustainable → heavy drops.
        let mut c = FullCollector::<PtwPacket>::new(BandwidthModel::default());
        feed(&mut c, 100_000, 2);
        let drop_rate = |s: &PacketStats| s.dropped_packets as f64 / s.ptw_packets as f64;
        let rate = drop_rate(&c.stats);
        assert!(
            (0.3..=0.9).contains(&rate),
            "drop rate {rate} outside plausible range"
        );
        assert!(c.stats.drop_records > 0);
        // 1 packet per load = 10 B vs 6 B: still drops, but less.
        let mut c1 = FullCollector::<PtwPacket>::new(BandwidthModel::default());
        feed(&mut c1, 100_000, 1);
        assert!(drop_rate(&c1.stats) < rate);
    }

    #[test]
    fn unlimited_collector_never_drops() {
        let mut c = FullCollector::<PtwPacket>::unlimited();
        feed(&mut c, 50_000, 2);
        assert_eq!(c.stats.dropped_packets, 0);
        assert_eq!(c.kept.len(), 100_000);
    }

    #[test]
    fn buffer_snapshot_sizes_match_paper() {
        // 8-KiB buffer with a 10 M period: ≈500 addresses per sample.
        let mut cfg = SamplerConfig::application(100_000);
        cfg.seed = 3;
        let mut c = SampledCollector::new(cfg);
        feed(&mut c, 1_000_000, 1);
        let raw = c.finish();
        let mean = raw.samples.iter().map(|s| s.packets.len()).sum::<usize>() as f64
            / raw.samples.len() as f64;
        assert!((350.0..650.0).contains(&mean), "mean window {mean}");
    }
}
