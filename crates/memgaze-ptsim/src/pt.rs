//! The one Processor-Tracing model: the sampler (§III-C: a circular
//! buffer that enabled `ptwrite`s fill, snapshotted every `w + z` ticks
//! of the trigger counter) and the full collector (§VI-A: a token bucket
//! of copy bandwidth keeps or drops each load's packets). Both are
//! generic over what the buffer holds, a [`Payload`]: `ptwrite` packets
//! on the IR interpreter's path (`collector`), accesses on the native
//! workloads' path (`stream`). The payload supplies the cost rule and
//! what a snapshot becomes; the caller passes each load's cycles, which
//! the cycle-triggered sampler counts.

use crate::buffer::CircBuffer;
use crate::collector::{BandwidthModel, PtMode, SamplerConfig};
use crate::guard::IpGuards;
use crate::packet::{PacketStats, PTW_BYTES};
use memgaze_model::Ip;

/// What the circular buffer holds on one load path.
pub trait Payload: Copy {
    /// What a snapshot of the buffer becomes.
    type Sample: std::fmt::Debug;
    /// Bytes per unit of buffer cost (1, or `packet_bytes` for whole packets).
    fn unit_bytes(packet_bytes: u64) -> u64;
    /// Units an item of `packets` packets costs, its last the `nth` enabled.
    fn cost(packets: u64, packet_bytes: u64, nth: u64) -> u64;
    /// Packets the buffer holds.
    fn held(ring: &CircBuffer<Self>) -> u64;
    /// The snapshot `items`, oldest first, after `trigger_time` loads.
    fn sample(items: Vec<Self>, trigger_time: u64) -> Self::Sample;
}

/// Sampled collection over payload `P`, the trigger counting loads, or
/// cycles where `CYCLES` (§III-C footnote 2's foil). A load costs a few
/// counter bumps and, when its `ptwrite`s are enabled, one write into
/// the ring; everything else is derived when read. The cycle trigger
/// runs PT continuously: the sample-only enable window is sized in loads.
#[derive(Debug)]
pub struct Sampler<P: Payload, const CYCLES: bool = false> {
    cfg: SamplerConfig,
    ring: CircBuffer<P>,
    /// Loads seen: the time of the next access and of a snapshot.
    pub(crate) loads: u64,
    /// Cycles seen, where the trigger counts them.
    cycles: u64,
    next_trigger: u64,
    /// `cfg.enable_from(next_trigger)`, re-derived whenever either moves.
    enable_from: u64,
    samples: Vec<P::Sample>,
    ptwrites_executed: u64,
    ptwrites_enabled: u64,
    /// Packets the snapshots took out of the ring. An enabled packet is
    /// in the ring, was snapshotted, or was overwritten by buffer wrap,
    /// so the overwritten count needs no counter of its own.
    snapshotted: u64,
    /// Since the last [`Sampler::take_observation`]: the enabled and
    /// overwritten totals at its start, and the peak fill in units.
    enabled_at_observation: u64,
    overwritten_at_observation: u64,
    interval_peak: u64,
}

impl<P: Payload, const CYCLES: bool> Sampler<P, CYCLES> {
    /// A sampler with the given configuration, degenerate knobs floored;
    /// the period is in what the trigger counts.
    pub fn new(mut cfg: SamplerConfig) -> Sampler<P, CYCLES> {
        cfg.normalise();
        if CYCLES {
            cfg.mode = PtMode::Continuous;
        }
        let unit = P::unit_bytes(cfg.packet_bytes());
        Sampler {
            ring: CircBuffer::new(
                cfg.buffer_bytes / unit,
                cfg.packet_bytes() / unit,
                cfg.yield_factor,
                cfg.seed,
            ),
            loads: 0,
            cycles: 0,
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

    /// One load's `ptwrite`s at `ip`: `packets` packets that buffer as
    /// `item` when PT is enabled and the guards pass `ip`.
    #[inline]
    pub(crate) fn record(&mut self, ip: Ip, item: P, packets: u64) {
        self.ptwrites_executed += packets;
        if self.clock() >= self.enable_from
            && (!self.cfg.guards.is_filtering() || self.cfg.guards.allows(ip))
        {
            self.ptwrites_enabled += packets;
            let cost = P::cost(packets, self.cfg.packet_bytes(), self.ptwrites_enabled);
            self.ring.push(item, cost);
            if self.ring.used() > self.interval_peak {
                self.interval_peak = self.ring.used();
            }
        }
    }

    /// The trigger counter. Counting loads, it is the load count, so the
    /// per-load path bumps one counter.
    #[inline]
    fn clock(&self) -> u64 {
        if CYCLES {
            self.cycles
        } else {
            self.loads
        }
    }

    /// One load retired, `cycles` long.
    #[inline]
    pub(crate) fn advance(&mut self, cycles: u64) {
        self.loads += 1;
        if CYCLES {
            self.cycles += cycles;
        }
        if self.clock() >= self.next_trigger {
            self.trigger();
        }
    }

    #[cold]
    fn trigger(&mut self) {
        self.snapshot();
        self.next_trigger += self.cfg.period;
        self.enable_from = self.cfg.enable_from(self.next_trigger);
    }

    /// Snapshot the ring into a sample at the current load count.
    fn snapshot(&mut self) {
        self.snapshotted += P::held(&self.ring);
        let items = self.ring.snapshot();
        self.samples.push(P::sample(items, self.loads));
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
    pub fn take_completed(&mut self) -> Vec<P::Sample> {
        std::mem::take(&mut self.samples)
    }

    /// Drain the interval accounting since the previous call: how many
    /// packets were enabled, how many were overwritten by buffer wrap
    /// before a snapshot could save them, and the peak buffer fill.
    /// This is the feedback signal the watch controller observes.
    pub fn take_observation(&mut self) -> SamplerObservation {
        let overwritten = self.ptwrites_enabled - self.snapshotted - P::held(&self.ring);
        let obs = SamplerObservation {
            enabled_packets: self.ptwrites_enabled - self.enabled_at_observation,
            overwritten_packets: overwritten - self.overwritten_at_observation,
            peak_used_bytes: self.interval_peak * P::unit_bytes(self.cfg.packet_bytes()),
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
            self.next_trigger = self.clock() + self.cfg.period;
        }
        let unit = P::unit_bytes(self.cfg.packet_bytes());
        self.ring.set_capacity(self.cfg.buffer_bytes / unit);
        self.enable_from = self.cfg.enable_from(self.next_trigger);
    }

    /// The sampling configuration currently in force (post-retune).
    pub fn config(&self) -> &SamplerConfig {
        &self.cfg
    }

    /// End collection: flush a trailing partial sample and hand back the
    /// configuration in force, the samples not yet drained and the
    /// accounting.
    pub(crate) fn close(mut self) -> (SamplerConfig, Vec<P::Sample>, StreamStats) {
        if !self.ring.is_empty() {
            self.snapshot();
        }
        // TSC/PSB counts telescope, so one bulk add equals the per-packet
        // adds it replaces.
        let mut packets = PacketStats::default();
        packets.add_ptw(self.ptwrites_enabled);
        let stats = StreamStats {
            packets,
            total_loads: self.loads,
            ptwrites_executed: self.ptwrites_executed,
            ptwrites_enabled: self.ptwrites_enabled,
        };
        (self.cfg, self.samples, stats)
    }
}

/// Full-trace collection: "the data copy rate between PT's pinned
/// kernel buffer and user memory is too high for real-time, resulting in
/// random drops of 30–50%" (§VI-A). One DROP record per burst of drops.
#[derive(Debug)]
pub struct FullCollector<P> {
    bw: BandwidthModel,
    tokens: f64,
    /// Kept items, in order.
    pub(crate) kept: Vec<P>,
    /// Packet accounting.
    pub stats: PacketStats,
    /// Loads seen.
    pub(crate) loads: u64,
    /// Items dropped.
    pub(crate) dropped: u64,
    in_drop_burst: bool,
}

impl<P> FullCollector<P> {
    /// Bandwidth-limited collection ('Rec' traces).
    pub fn new(bw: BandwidthModel) -> FullCollector<P> {
        FullCollector {
            tokens: bw.burst_bytes,
            bw,
            kept: Vec::new(),
            stats: PacketStats::default(),
            loads: 0,
            dropped: 0,
            in_drop_burst: false,
        }
    }

    /// Ideal collection that never drops ('All' traces).
    pub fn unlimited() -> FullCollector<P> {
        FullCollector::new(BandwidthModel {
            bytes_per_load: f64::INFINITY,
            burst_bytes: f64::INFINITY,
        })
    }

    /// One load retired: count it and, from the second on, add a load's
    /// copy bandwidth, up to one burst. The stream path calls it before
    /// the load's packets, the packet path after them (a load's
    /// `ptwrite`s precede it).
    #[inline]
    pub(crate) fn load(&mut self) {
        if self.loads > 0 && self.tokens.is_finite() {
            self.tokens = (self.tokens + self.bw.bytes_per_load).min(self.bw.burst_bytes);
        }
        self.loads += 1;
    }

    /// Offer an item of `packets` full-size packets for copy.
    #[inline]
    pub(crate) fn offer(&mut self, item: P, packets: u64) {
        self.stats.add_ptw(packets);
        let cost = (packets * PTW_BYTES) as f64;
        if self.tokens >= cost {
            self.tokens -= cost;
            self.in_drop_burst = false;
            self.kept.push(item);
        } else {
            self.stats.dropped_packets += packets;
            self.dropped += 1;
            if !self.in_drop_burst {
                self.stats.drop_records += 1;
                self.in_drop_burst = true;
            }
        }
    }
}

/// Accounting from a sampled collection run.
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
/// Drained by the samplers' `take_observation`.
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
