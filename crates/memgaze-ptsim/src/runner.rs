//! End-to-end collection runs over instrumented modules.
//!
//! Convenience drivers tying interpreter, collector, and decoder together
//! (paper Fig. 1, Steps 1–2 plus Analysis/1): ground-truth full traces
//! from the original module, sampled PT traces and bandwidth-limited full
//! PT traces from the instrumented one.

use crate::collector::{BandwidthModel, RawSampledTrace, SampledCollector, SamplerConfig};
use crate::decode::{self, DecodeOutcome};
use crate::packet::{PacketStats, PtwPacket};
use crate::pt::FullCollector;
use memgaze_instrument::Instrumented;
use memgaze_isa::interp::{EventSink, ExecStats, Machine};
use memgaze_isa::{LoadModule, ProcId};
use memgaze_model::{Access, FullTrace, Ip, SampledTrace, TraceMeta};

/// Default interpreter step budget for collection runs.
const DEFAULT_MAX_INSTRS: u64 = 2_000_000_000;

/// Statistics of one collection run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Interpreter statistics (instructions, loads, stores, ptwrites).
    pub exec: ExecStats,
    /// Packet accounting.
    pub packets: PacketStats,
}

/// Ground-truth sink: records every load of the original module.
struct TruthSink {
    accesses: Vec<Access>,
}

impl EventSink for TruthSink {
    fn on_load(&mut self, ip: Ip, addr: u64, load_time: u64) {
        self.accesses.push(Access {
            ip,
            addr: memgaze_model::Addr(addr),
            time: load_time,
        });
    }
}

/// Execute the *original* module and record a perfect load-level trace —
/// the validation baseline the paper collected with a separate tool
/// (§VI-A).
pub fn ground_truth(
    module: &LoadModule,
    entry: ProcId,
    workload: &str,
) -> Result<(FullTrace, ExecStats), memgaze_isa::interp::ExecError> {
    let mut mach = Machine::new(
        module,
        TruthSink {
            accesses: Vec::new(),
        },
    );
    let stats = mach.run(entry, DEFAULT_MAX_INSTRS)?;
    let sink = mach.into_sink();
    let mut meta = TraceMeta::new(workload, 0, 0);
    meta.total_loads = stats.loads;
    meta.total_instrumented_loads = stats.loads;
    let mut trace = FullTrace::new(meta);
    trace.accesses = sink.accesses;
    Ok((trace, stats))
}

/// Run the instrumented module under the sampled collector and decode.
pub fn collect_sampled(
    inst: &Instrumented,
    entry: ProcId,
    mut cfg: SamplerConfig,
    workload: &str,
) -> Result<(SampledTrace, RunStats, DecodeOutcome<SampledTrace>), Box<dyn std::error::Error>> {
    // The decoder stamps the knobs the collector runs with.
    cfg.normalise();
    let meta = TraceMeta::new(workload, cfg.period, cfg.buffer_bytes);
    let mut mach = Machine::new(&inst.module, SampledCollector::new(cfg));
    let exec = mach.run(entry, DEFAULT_MAX_INSTRS)?;
    let raw: RawSampledTrace = mach.into_sink().finish();
    let stats = RunStats {
        exec,
        packets: raw.stats,
    };
    let outcome = decode::decode_sampled(&raw, inst, meta)?;
    Ok((outcome.trace.clone(), stats, outcome))
}

/// Run the instrumented module under the bandwidth-limited full collector
/// and decode ('Rec' traces, or 'All' with no bandwidth limit).
pub fn collect_full(
    inst: &Instrumented,
    entry: ProcId,
    bw: Option<BandwidthModel>,
    workload: &str,
) -> Result<(FullTrace, RunStats), Box<dyn std::error::Error>> {
    let collector = match bw {
        Some(b) => FullCollector::<PtwPacket>::new(b),
        None => FullCollector::unlimited(),
    };
    let mut mach = Machine::new(&inst.module, collector);
    let exec = mach.run(entry, DEFAULT_MAX_INSTRS)?;
    let c = mach.into_sink();
    let stats = RunStats {
        exec,
        packets: c.stats,
    };
    let meta = TraceMeta::new(workload, 0, 0);
    let outcome = decode::decode_full(&c.kept, c.stats.dropped_packets, c.loads, inst, meta);
    Ok((outcome.trace, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memgaze_instrument::Instrumenter;
    use memgaze_isa::codegen::{self, Compose, OptLevel, Pattern, UKernelSpec};

    fn spec() -> UKernelSpec {
        UKernelSpec {
            compose: Compose::Serial(vec![Pattern::strided(1), Pattern::Irregular]),
            elems: 512,
            reps: 20,
            opt: OptLevel::O3,
        }
    }

    #[test]
    fn sampled_accesses_are_subset_of_ground_truth() {
        let m = codegen::generate(&spec());
        let main = m.find_proc("main").unwrap();
        let (truth, _) = ground_truth(&m, main, "t").unwrap();
        let inst = Instrumenter::default().instrument(&m);
        let mut cfg = SamplerConfig::microbench();
        cfg.period = 500;
        let (trace, stats, outcome) = collect_sampled(&inst, main, cfg, "t").unwrap();

        assert!(trace.num_samples() > 5);
        assert!(stats.exec.ptwrites > 0);
        assert_eq!(outcome.unknown_packets, 0);

        // Every sampled (time, addr) pair must exist in the ground truth:
        // sampling never fabricates accesses.
        use std::collections::HashSet;
        let truth_set: HashSet<(u64, u64)> = truth
            .accesses
            .iter()
            .map(|a| (a.time, a.addr.raw()))
            .collect();
        for a in trace.accesses() {
            assert!(
                truth_set.contains(&(a.time, a.addr.raw())),
                "sampled access {:?} not in ground truth",
                a
            );
        }
    }

    #[test]
    fn full_collection_with_unlimited_bandwidth_decodes_every_group() {
        let m = codegen::generate(&spec());
        let main = m.find_proc("main").unwrap();
        let inst = Instrumenter::default().instrument(&m);
        let (full, stats) = collect_full(&inst, main, None, "t").unwrap();
        assert_eq!(full.dropped, 0);
        assert!(!full.accesses.is_empty());

        // Count the executed completed groups directly: run the
        // instrumented module once more and tally 'last'-marked ptwrites.
        use memgaze_isa::interp::{EventSink, Machine};
        struct Count<'a>(&'a Instrumented, u64);
        impl EventSink for Count<'_> {
            fn on_ptwrite(&mut self, ip: Ip, _p: u64, _t: u64) {
                if self.0.ptw_map.get(ip).is_some_and(|i| i.last) {
                    self.1 += 1;
                }
            }
        }
        let mut mach = Machine::new(&inst.module, Count(&inst, 0));
        mach.run(main, DEFAULT_MAX_INSTRS).unwrap();
        let groups = mach.into_sink().1;
        assert_eq!(full.accesses.len() as u64, groups);
        assert!(stats.packets.ptw_packets >= groups);
    }

    #[test]
    fn rec_trace_drops_but_all_does_not() {
        let m = codegen::generate(&UKernelSpec {
            compose: Compose::Single(Pattern::strided(1)),
            elems: 4096,
            reps: 50,
            opt: OptLevel::O3,
        });
        let main = m.find_proc("main").unwrap();
        let inst = Instrumenter::default().instrument(&m);
        let (rec, _) = collect_full(&inst, main, Some(BandwidthModel::default()), "t").unwrap();
        let (all, _) = collect_full(&inst, main, None, "t").unwrap();
        assert_eq!(all.dropped, 0);
        assert!(rec.dropped > 0, "Rec trace must drop under pressure");
        assert!(rec.accesses.len() < all.accesses.len());
    }
}
