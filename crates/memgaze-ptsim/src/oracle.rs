//! Differential oracles for the ring: the `VecDeque` sampler and packet
//! buffer this crate shipped before [`CircBuffer`] replaced them, and
//! proptests holding the replacements equal to them on everything a
//! caller can observe.

use crate::buffer::{CircBuffer, Lcg};
use crate::collector::{PtMode, SamplerConfig};
use crate::guard::IpGuards;
use crate::packet::{sideband_bytes, PacketStats, PtwPacket, PSB_PERIOD, TSC_PERIOD};
use crate::{pt::SamplerObservation, pt::StreamStats, stream::StreamSampler};
use memgaze_model::{Access, Addr, Ip, Sample, TraceMeta};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The sampler as it stood before the ring: every enabled `ptwrite`
/// pushed on a `VecDeque`, the accounting done per load. Kept verbatim
/// (names aside) as the reference the ring-based sampler must equal.
#[derive(Debug)]
struct LiteralSampler {
    cfg: SamplerConfig,
    /// Buffered accesses plus their byte cost (two-source loads carry two
    /// packets).
    items: VecDeque<(Access, u64)>,
    used_bytes: u64,
    rng: Lcg,
    loads: u64,
    next_trigger: u64,
    samples: Vec<Sample>,
    stats: PacketStats,
    ptwrites_enabled: u64,
    ptwrites_executed: u64,
    /// Interval accounting since the last [`take_observation`]
    /// (`LiteralSampler::take_observation`): packets enabled, packets
    /// overwritten by buffer wrap, and the peak buffer fill.
    interval_enabled: u64,
    interval_overwritten: u64,
    interval_peak_bytes: u64,
}

impl LiteralSampler {
    /// A sampler with the given configuration.
    fn new(cfg: SamplerConfig) -> LiteralSampler {
        let seed = cfg.seed;
        let next_trigger = cfg.period;
        LiteralSampler {
            cfg,
            items: VecDeque::new(),
            used_bytes: 0,
            rng: Lcg::new(seed),
            loads: 0,
            next_trigger,
            samples: Vec::new(),
            stats: PacketStats::default(),
            ptwrites_enabled: 0,
            ptwrites_executed: 0,
            interval_enabled: 0,
            interval_overwritten: 0,
            interval_peak_bytes: 0,
        }
    }

    fn pt_enabled(&self) -> bool {
        match self.cfg.mode {
            PtMode::Continuous => true,
            PtMode::SampleOnly => {
                let to_trigger = self.next_trigger.saturating_sub(self.loads);
                // The enable window: the buffer's nominal packet
                // capacity with 50% slack.
                let packet_bytes = PtwPacket::bytes(self.cfg.compact_payloads);
                to_trigger <= (self.cfg.buffer_bytes / packet_bytes) * 3 / 2
            }
        }
    }

    fn snapshot(&mut self) -> Vec<Access> {
        let jitter = self.rng.range_f64(-0.1, 0.1);
        let f = (self.cfg.yield_factor + jitter).clamp(0.05, 1.0);
        let keep = ((self.items.len() as f64) * f).round() as usize;
        let skip = self.items.len() - keep.min(self.items.len());
        let out = self.items.iter().skip(skip).map(|(a, _)| *a).collect();
        self.items.clear();
        self.used_bytes = 0;
        out
    }

    /// Feed one executed load. `instrumented` marks loads that carry
    /// `ptwrite`s; `packets` is the number of source registers (1 or 2).
    fn on_load(&mut self, ip: Ip, addr: u64, instrumented: bool, packets: u8) {
        let time = self.loads;
        if instrumented {
            self.ptwrites_executed += u64::from(packets);
            if self.pt_enabled() && self.cfg.guards.allows(ip) {
                self.ptwrites_enabled += u64::from(packets);
                self.interval_enabled += u64::from(packets);
                self.stats.add_ptw(u64::from(packets));
                let cost = u64::from(packets) * PtwPacket::bytes(self.cfg.compact_payloads);
                while self.used_bytes + cost > self.cfg.buffer_bytes {
                    match self.items.pop_front() {
                        Some((_, c)) => {
                            self.used_bytes = self.used_bytes.saturating_sub(c);
                            self.interval_overwritten +=
                                c / PtwPacket::bytes(self.cfg.compact_payloads).max(1);
                        }
                        None => break,
                    }
                }
                self.items.push_back((
                    Access {
                        ip,
                        addr: Addr(addr),
                        time,
                    },
                    cost,
                ));
                self.used_bytes += cost;
                self.interval_peak_bytes = self.interval_peak_bytes.max(self.used_bytes);
            }
        }
        self.loads += 1;
        if self.loads >= self.next_trigger {
            let accesses = self.snapshot();
            self.samples.push(Sample::new(accesses, self.loads));
            self.next_trigger += self.cfg.period;
        }
    }

    /// Number of completed samples awaiting collection.
    fn completed_samples(&self) -> usize {
        self.samples.len()
    }

    /// Drain the samples completed so far without ending collection —
    /// the streaming ingest path encodes them shard-by-shard as they
    /// appear instead of letting the whole trace pile up here.
    fn take_completed(&mut self) -> Vec<Sample> {
        std::mem::take(&mut self.samples)
    }

    /// Drain the interval accounting since the previous call: how many
    /// packets were enabled, how many were overwritten by buffer wrap
    /// before a snapshot could save them, and the peak buffer fill.
    /// This is the feedback signal the watch controller observes.
    fn take_observation(&mut self) -> SamplerObservation {
        let obs = SamplerObservation {
            enabled_packets: self.interval_enabled,
            overwritten_packets: self.interval_overwritten,
            peak_used_bytes: self.interval_peak_bytes,
            buffer_bytes: self.cfg.buffer_bytes,
        };
        self.interval_enabled = 0;
        self.interval_overwritten = 0;
        self.interval_peak_bytes = self.used_bytes;
        obs
    }

    /// Retune the sampling knobs mid-run: period (`w + z`), buffer
    /// capacity, and the hardware address-range guards. The next
    /// trigger is re-derived from the new period so a shrunk period
    /// takes effect immediately instead of after the old interval.
    fn retune(&mut self, period: u64, buffer_bytes: u64, guards: crate::guard::IpGuards) {
        if period != self.cfg.period {
            self.cfg.period = period.max(1);
            self.next_trigger = self.loads + self.cfg.period;
        }
        self.cfg.buffer_bytes = buffer_bytes.max(PtwPacket::bytes(self.cfg.compact_payloads));
        self.cfg.guards = guards;
    }

    /// The sampling configuration currently in force (post-retune).
    fn config(&self) -> &SamplerConfig {
        &self.cfg
    }

    /// Finish, returning the trace parts instead of an assembled trace:
    /// final metadata, any samples not yet drained (including the
    /// flushed trailing partial sample), and collection stats.
    fn finish_parts(mut self, workload: &str) -> (TraceMeta, Vec<Sample>, StreamStats) {
        if !self.items.is_empty() {
            let accesses = self.snapshot();
            self.samples.push(Sample::new(accesses, self.loads));
        }
        let mut meta = TraceMeta::new(workload, self.cfg.period, self.cfg.buffer_bytes);
        meta.total_loads = self.loads;
        meta.total_instrumented_loads = self.ptwrites_executed;
        let stats = StreamStats {
            packets: self.stats,
            total_loads: self.loads,
            ptwrites_executed: self.ptwrites_executed,
            ptwrites_enabled: self.ptwrites_enabled,
        };
        (meta, self.samples, stats)
    }
}

/// The packet buffer as it stood before the ring, sideband accounting
/// included; the reference for [`CircBuffer`] under byte costs.
#[derive(Debug, Clone)]
struct LiteralBuffer {
    cap_bytes: u64,
    used_bytes: u64,
    packet_bytes: u64,
    /// Packets plus their individual byte cost (a packet that carried an
    /// amortized TSC/PSB sideband costs more).
    items: VecDeque<(PtwPacket, u64)>,
    /// Mean fraction of buffer contents the snapshot yields (kernel
    /// async-fill artifact); jittered ±0.1 per snapshot.
    yield_factor: f64,
    rng: Lcg,
    /// PTW packets pushed since the buffer was created (drives amortized
    /// TSC/PSB space inside the buffer).
    pushed: u64,
}

impl LiteralBuffer {
    /// A buffer of `cap_bytes` capacity holding packets of
    /// `packet_bytes` each.
    fn new(cap_bytes: u64, packet_bytes: u64, yield_factor: f64, seed: u64) -> LiteralBuffer {
        assert!(cap_bytes >= packet_bytes, "buffer smaller than one packet");
        assert!(
            (0.0..=1.0).contains(&yield_factor),
            "yield factor out of range"
        );
        LiteralBuffer {
            cap_bytes,
            used_bytes: 0,
            packet_bytes,
            items: VecDeque::new(),
            yield_factor,
            rng: Lcg::new(seed),
            pushed: 0,
        }
    }

    /// Push a packet, evicting the oldest contents on wrap (circular
    /// overwrite). Sideband TSC/PSB packets consume amortized space.
    fn push(&mut self, p: PtwPacket) {
        self.pushed += 1;
        let mut cost = self.packet_bytes;
        if self.pushed.is_multiple_of(TSC_PERIOD) {
            cost += crate::packet::TSC_BYTES;
        }
        if self.pushed.is_multiple_of(PSB_PERIOD) {
            cost += crate::packet::PSB_BYTES;
        }
        while self.used_bytes + cost > self.cap_bytes {
            match self.items.pop_front() {
                Some((_, c)) => self.used_bytes = self.used_bytes.saturating_sub(c),
                None => break,
            }
        }
        self.items.push_back((p, cost));
        self.used_bytes += cost;
    }

    /// Number of packets currently held.
    fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no packets are held.
    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Read the buffer at a sampling trigger: returns the most recent
    /// packets (the async-fill artifact discards the oldest fraction) and
    /// resets the buffer for the next window.
    fn snapshot(&mut self) -> Vec<PtwPacket> {
        let jitter = self.rng.range_f64(-0.1, 0.1);
        let f = (self.yield_factor + jitter).clamp(0.05, 1.0);
        let keep = ((self.items.len() as f64) * f).round() as usize;
        let skip = self.items.len() - keep.min(self.items.len());
        let out: Vec<PtwPacket> = self.items.iter().skip(skip).map(|(p, _)| *p).collect();
        self.items.clear();
        self.used_bytes = 0;
        out
    }
}

/// The sites a stream draws from: uninstrumented, and one- and
/// two-packet sites inside guard range A, inside range B, and outside
/// both.
const SITES: [(u64, bool, u8); 7] = [
    (0x0f00, false, 1),
    (0x1000, true, 1),
    (0x1004, true, 2),
    (0x2000, true, 1),
    (0x2004, true, 2),
    (0x3000, true, 1),
    (0x3004, true, 2),
];

fn guards(sel: u64) -> IpGuards {
    let (a, b) = ((Ip(0x1000), Ip(0x2000)), (Ip(0x2000), Ip(0x3000)));
    match sel % 4 {
        0 => IpGuards::all(),
        1 => IpGuards::from_ranges(vec![a]),
        2 => IpGuards::from_ranges(vec![b]),
        _ => IpGuards::from_ranges(vec![a, b]),
    }
}

/// One step of a run: `(kind, x, y)`. Kinds 0–5 feed a burst of `x`
/// loads whose sites follow an LCG seeded by `y`; the rest drain,
/// observe or retune.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec((0u8..10, 0u64..400, 0u64..=u64::MAX), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Samples, metadata, stats and every observation of the ring-based
    /// sampler equal the literal one, over streams that mix site kinds,
    /// both PT modes and payload widths, guards, mid-run drains, and
    /// retunes that grow, shrink (below the current fill, below one
    /// two-packet item, to zero) and re-guard.
    #[test]
    fn stream_sampler_equals_the_literal_sampler(
        knobs in (1u64..300, 6u64..700, 0u64..16, 0u64..=u64::MAX),
        ops in arb_ops(),
    ) {
        let (period, buffer_bytes, flags, seed) = knobs;
        let cfg = SamplerConfig {
            period,
            buffer_bytes: buffer_bytes.max(PtwPacket::bytes(flags & 1 == 1)),
            compact_payloads: flags & 1 == 1,
            guards: guards(flags >> 2),
            mode: if flags & 2 == 2 { PtMode::SampleOnly } else { PtMode::Continuous },
            seed,
            yield_factor: [0.0, 0.3, 0.55, 1.0][(seed % 4) as usize],
        };
        let mut new = StreamSampler::new(cfg.clone());
        let mut old = LiteralSampler::new(cfg);
        let mut t = 0u64;
        for (kind, x, y) in ops {
            match kind {
                0..=5 => {
                    let mut pick = Lcg::new(y);
                    for _ in 0..x {
                        let (ip, instrumented, packets) =
                            SITES[(pick.next_u64() % SITES.len() as u64) as usize];
                        new.on_load(Ip(ip), t * 8, instrumented, packets);
                        old.on_load(Ip(ip), t * 8, instrumented, packets);
                        t += 1;
                    }
                    prop_assert_eq!(new.completed_samples(), old.completed_samples());
                }
                6 => prop_assert_eq!(new.take_completed(), old.take_completed()),
                7 => prop_assert_eq!(new.take_observation(), old.take_observation()),
                _ => {
                    // Periods and buffers from zero up; every fourth
                    // retune keeps the period, so the trigger stays put.
                    let period = if y % 4 == 0 { new.config().period } else { x % 97 };
                    let buffer_bytes = (y >> 8) % 900;
                    new.retune(period, buffer_bytes, guards(y >> 4));
                    old.retune(period, buffer_bytes, guards(y >> 4));
                    prop_assert_eq!(new.config(), old.config());
                }
            }
        }
        prop_assert_eq!(new.take_observation(), old.take_observation());
        let (new_meta, new_samples, new_stats) = new.finish_parts("w");
        let (old_meta, old_samples, old_stats) = old.finish_parts("w");
        prop_assert_eq!(new_meta, old_meta);
        prop_assert_eq!(new_samples, old_samples);
        prop_assert_eq!(new_stats, old_stats);
    }

    /// `CircBuffer` under byte costs with TSC/PSB sideband equals the
    /// literal packet buffer, push for push and snapshot for snapshot.
    #[test]
    fn circ_buffer_equals_the_literal_buffer(
        knobs in (0u64..64, 0u64..2, 0u64..=u64::MAX),
        bursts in prop::collection::vec(0u64..900, 1..12),
    ) {
        let (slots, compact, seed) = knobs;
        let packet_bytes = PtwPacket::bytes(compact == 1);
        let cap_bytes = packet_bytes * (1 + slots) + seed % packet_bytes;
        let yield_factor = [0.05, 0.55, 1.0][(seed % 3) as usize];
        let mut new = CircBuffer::new(cap_bytes, packet_bytes, yield_factor, seed);
        let mut old = LiteralBuffer::new(cap_bytes, packet_bytes, yield_factor, seed);
        let mut nth = 0u64;
        for burst in bursts {
            for _ in 0..burst {
                nth += 1;
                let p = PtwPacket { ip: Ip(0x400 + nth % 5), payload: nth * 8, load_time: nth };
                new.push(p, packet_bytes + sideband_bytes(nth));
                old.push(p);
                prop_assert_eq!((new.len(), new.used()), (old.len(), old.used_bytes));
            }
            prop_assert_eq!(new.snapshot(), old.snapshot());
            prop_assert!(new.is_empty() && old.is_empty());
        }
    }
}
