//! Decoding raw packet traces into the trace model (paper's Analysis/1,
//! "trace building": converting Linux perf's trace into one for our trace
//! analysis).
//!
//! A `ptwrite` payload is a *source register value*, not an effective
//! address; the decoder reconstructs `base + index·scale + disp` from the
//! packet group of each load plus the annotation literals (paper §III-A).
//! Groups cut in half by the circular buffer's wrap (an Index packet whose
//! Base fell off the head) are discarded and counted.

use crate::collector::{RawSample, RawSampledTrace};
use crate::packet::PtwPacket;
use memgaze_instrument::{Instrumented, PtwRole};
use memgaze_model::{Access, FullTrace, Ip, ModelError, Sample, SampledTrace, TraceMeta};

/// Result of decoding plus diagnostics.
#[derive(Debug, Clone)]
pub struct DecodeOutcome<T> {
    /// The decoded trace.
    pub trace: T,
    /// Packets whose `ptwrite` address had no mapping (should be zero for
    /// self-produced traces).
    pub unknown_packets: u64,
}

struct GroupDecoder<'a> {
    inst: &'a Instrumented,
    pending: Option<(Ip, u64)>,
    unknown: u64,
}

impl<'a> GroupDecoder<'a> {
    fn new(inst: &'a Instrumented) -> GroupDecoder<'a> {
        GroupDecoder {
            inst,
            pending: None,
            unknown: 0,
        }
    }

    /// Feed one packet; returns a completed access when the packet closes
    /// a group.
    fn feed(&mut self, pkt: &PtwPacket) -> Option<Access> {
        let info = match self.inst.ptw_map.get(pkt.ip) {
            Some(i) => *i,
            None => {
                self.unknown += 1;
                return None;
            }
        };
        let annot = self
            .inst
            .annots
            .get(info.load_ip)
            .copied()
            .unwrap_or_else(|| {
                memgaze_model::IpAnnot::of_class(
                    memgaze_model::LoadClass::Irregular,
                    memgaze_model::FunctionId(0),
                )
            });
        match info.role {
            PtwRole::Base => {
                // A previous base that never met its index is a wrap
                // loss: drop it.
                self.pending = None;
                if info.last {
                    // Single-source load: address completes now.
                    Some(Access {
                        ip: info.load_ip,
                        addr: memgaze_model::Addr(pkt.payload.wrapping_add(annot.offset as u64)),
                        time: pkt.load_time,
                    })
                } else {
                    self.pending = Some((info.load_ip, pkt.payload));
                    None
                }
            }
            PtwRole::Index => match self.pending.take() {
                Some((load_ip, base)) if load_ip == info.load_ip => {
                    let addr = base
                        .wrapping_add(pkt.payload.wrapping_mul(annot.scale as u64))
                        .wrapping_add(annot.offset as u64);
                    Some(Access {
                        ip: info.load_ip,
                        addr: memgaze_model::Addr(addr),
                        time: pkt.load_time,
                    })
                }
                // Index without its base (buffer head cut the group).
                _ => None,
            },
        }
    }

    /// Flush at a sample boundary: a dangling base is an incomplete
    /// group and is dropped.
    fn flush(&mut self) {
        self.pending = None;
    }
}

fn decode_sample(sample: &RawSample, dec: &mut GroupDecoder<'_>) -> Sample {
    let mut accesses = Vec::with_capacity(sample.packets.len());
    for pkt in &sample.packets {
        if let Some(a) = dec.feed(pkt) {
            accesses.push(a);
        }
    }
    dec.flush();
    Sample::new(accesses, sample.trigger_time)
}

/// Decode a raw sampled trace into a [`SampledTrace`].
pub(crate) fn decode_sampled(
    raw: &RawSampledTrace,
    inst: &Instrumented,
    mut meta: TraceMeta,
) -> Result<DecodeOutcome<SampledTrace>, ModelError> {
    meta.total_loads = raw.total_loads;
    meta.total_instrumented_loads = raw.ptwrites_executed;
    let mut trace = SampledTrace::new(meta);
    let mut dec = GroupDecoder::new(inst);
    for s in &raw.samples {
        trace.push_sample(decode_sample(s, &mut dec))?;
    }
    Ok(DecodeOutcome {
        trace,
        unknown_packets: dec.unknown,
    })
}

/// Decode a full packet stream into a [`FullTrace`].
pub fn decode_full(
    packets: &[PtwPacket],
    dropped_packets: u64,
    total_loads: u64,
    inst: &Instrumented,
    mut meta: TraceMeta,
) -> DecodeOutcome<FullTrace> {
    meta.total_loads = total_loads;
    meta.total_instrumented_loads = packets.len() as u64 + dropped_packets;
    let mut trace = FullTrace::new(meta);
    trace.dropped = dropped_packets;
    let mut dec = GroupDecoder::new(inst);
    for pkt in packets {
        if let Some(a) = dec.feed(pkt) {
            trace.accesses.push(a);
        }
    }
    dec.flush();
    DecodeOutcome {
        unknown_packets: dec.unknown,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_instrument::Instrumenter;
    use memgaze_isa::builder::{ModuleBuilder, ProcBuilder};
    use memgaze_isa::{AddrMode, Reg};

    /// A module with one two-source load and one one-source load.
    fn toy() -> (memgaze_isa::LoadModule, Instrumented) {
        let mut mb = ModuleBuilder::new("toy");
        let mut pb = ProcBuilder::new("f", "f.c");
        pb.mov_imm(Reg::gp(0), 0x1000);
        pb.mov_imm(Reg::gp(1), 3);
        pb.load(
            Reg::gp(2),
            AddrMode::base_index(Reg::gp(0), Reg::gp(1), 8, 16),
        );
        pb.load(Reg::gp(3), AddrMode::base_disp(Reg::gp(2), -8));
        pb.ret();
        mb.add(pb);
        let m = mb.finish();
        let inst = Instrumenter::default().instrument(&m);
        (m, inst)
    }

    fn run_instrumented(inst: &Instrumented) -> Vec<PtwPacket> {
        use memgaze_isa::interp::{EventSink, Machine};
        #[derive(Default)]
        struct P(Vec<PtwPacket>);
        impl EventSink for P {
            fn on_ptwrite(&mut self, ip: Ip, payload: u64, load_time: u64) {
                self.0.push(PtwPacket {
                    ip,
                    payload,
                    load_time,
                });
            }
        }
        let f = inst.module.find_proc("f").unwrap();
        let mut mach = Machine::new(&inst.module, P::default());
        mach.run(f, 1000).unwrap();
        mach.into_sink().0
    }

    #[test]
    fn reconstructs_effective_addresses() {
        let (_m, inst) = toy();
        let packets = run_instrumented(&inst);
        // Two loads: 2-source (2 packets) + 1-source (1 packet).
        assert_eq!(packets.len(), 3);
        let out = decode_full(&packets, 0, 2, &inst, TraceMeta::new("toy", 0, 0));
        assert_eq!(out.unknown_packets, 0);
        let a = &out.trace.accesses;
        assert_eq!(a.len(), 2);
        // First load: 0x1000 + 3*8 + 16 = 0x1028.
        assert_eq!(a[0].addr.raw(), 0x1028);
        // Second load: value at [0x1028] is 0 (unmapped), so addr = 0 - 8.
        assert_eq!(a[1].addr.raw(), 0u64.wrapping_sub(8));
    }

    #[test]
    fn cut_group_is_discarded() {
        let (_m, inst) = toy();
        let packets = run_instrumented(&inst);
        // Drop the first packet (the Base of the two-source group), as a
        // buffer wrap would.
        let cut = &packets[1..];
        let out = decode_full(cut, 0, 2, &inst, TraceMeta::new("toy", 0, 0));
        assert_eq!(out.trace.accesses.len(), 1);
    }

    #[test]
    fn unknown_ptwrite_ip_counted() {
        let (_m, inst) = toy();
        let packets = vec![PtwPacket {
            ip: Ip(0xdead),
            payload: 1,
            load_time: 0,
        }];
        let out = decode_full(&packets, 0, 1, &inst, TraceMeta::new("toy", 0, 0));
        assert_eq!(out.unknown_packets, 1);
        assert!(out.trace.accesses.is_empty());
    }

    #[test]
    fn decoded_ips_are_original_load_ips() {
        let (m, inst) = toy();
        let packets = run_instrumented(&inst);
        let out = decode_full(&packets, 0, 2, &inst, TraceMeta::new("toy", 0, 0));
        let orig_layout = m.layout();
        for a in &out.trace.accesses {
            let (_, _, idx) = orig_layout.locate(a.ip).expect("original ip");
            // In the original module those are instruction indices 2 and 3.
            assert!(idx == 2 || idx == 3);
        }
    }
}
