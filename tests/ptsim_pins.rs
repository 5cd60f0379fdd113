//! Golden identity of the Processor-Tracing collectors' raw output.
//!
//! Each digest is the FNV-1a-64 of `format!("{:?}")` of what one
//! collector returns on a fixed input, recorded at commit 40db2b8, the
//! last one with a separate sampler for the packet, stream and
//! cycle-trigger paths and a separate full collector for the packet and
//! stream paths. The rows are:
//!
//! * the packet-path sampler's `RawSampledTrace` over the microbenchmark
//!   suites at O0 and O3, under `SamplerConfig::microbench()` and under a
//!   sample-only, guarded, compact-payload variant of it;
//! * `collect_full`'s decoded trace and `PacketStats` over the same
//!   suites, with Table III's microbenchmark bandwidth, the default
//!   bandwidth and no limit;
//! * the cycle-triggered sampler and its load-triggered counterpart on
//!   the trigger ablation's two-phase stream;
//! * the stream full collector over a mixed stream with the default
//!   bandwidth and with no limit.
//!
//! Every packet, sample, trigger time, drop and TSC/PSB count is in
//! those strings, so a digest moves only when a collector's answer does.
//!
//! Re-pinned once since: the cycle trigger's row, when its trace meta
//! began to count the `ptwrite`s executed as `total_instrumented_loads`
//! (400 000 on this stream), as the load trigger's does; it read 0.
//! Nothing else moved.

use memgaze::instrument::{Instrumented, Instrumenter};
use memgaze::isa::codegen::{self, OptLevel};
use memgaze::isa::interp::Machine;
use memgaze::model::{Fnv64, Ip};
use memgaze::ptsim::{
    collect_full, BandwidthModel, IpGuards, PtMode, SampledCollector, SamplerConfig, StreamFull,
    StreamSampler, TimeStreamSampler,
};

/// Suite sizes: large enough for several triggers and drop bursts per
/// kernel, small enough for a debug build.
const ELEMS: u32 = 4096;
const REPS: u32 = 24;

fn fnv_debug<T: std::fmt::Debug>(v: &T) -> u64 {
    Fnv64::new().update(format!("{v:?}").as_bytes()).finish()
}

fn instrumented_suite(opt: OptLevel) -> Vec<Instrumented> {
    codegen::standard_suite(opt, ELEMS, REPS)
        .iter()
        .map(|spec| Instrumenter::default().instrument(&codegen::generate(spec)))
        .collect()
}

/// The sample-only, compact-payload variant, guarded to the first half
/// of the kernel's code so the filter drops some `ptwrite`s.
fn guarded(inst: &Instrumented) -> SamplerConfig {
    let symbols = inst.module.symbol_table();
    let kernel = symbols
        .find_by_name("kernel")
        .and_then(|id| symbols.function(id))
        .expect("kernel");
    let mid = Ip(kernel.lo.0 + (kernel.hi.0 - kernel.lo.0) / 2);
    SamplerConfig {
        mode: PtMode::SampleOnly,
        compact_payloads: true,
        guards: IpGuards::from_ranges(vec![(kernel.lo, mid)]),
        ..SamplerConfig::microbench()
    }
}

/// Digest of the raw sampled traces of a whole suite, one per config.
fn sampled_digests(opt: OptLevel) -> [u64; 2] {
    let suite = instrumented_suite(opt);
    let run = |cfg_of: &dyn Fn(&Instrumented) -> SamplerConfig| {
        let mut h = Fnv64::new();
        for inst in &suite {
            let main = inst.module.find_proc("main").expect("main");
            let mut mach = Machine::new(&inst.module, SampledCollector::new(cfg_of(inst)));
            mach.run(main, 1 << 32).expect("runs");
            let raw = mach.into_sink().finish();
            h.update(&fnv_debug(&raw).to_le_bytes());
        }
        h.finish()
    };
    [run(&|_| SamplerConfig::microbench()), run(&guarded)]
}

/// Digest of `collect_full`'s trace and packet accounting over a suite,
/// one per bandwidth model.
fn full_digests(opt: OptLevel) -> [u64; 3] {
    let suite = instrumented_suite(opt);
    let micro_bw = BandwidthModel {
        bytes_per_load: 18.0,
        burst_bytes: 64.0 * 1024.0,
    };
    [Some(micro_bw), Some(BandwidthModel::default()), None].map(|bw| {
        let mut h = Fnv64::new();
        for inst in &suite {
            let main = inst.module.find_proc("main").expect("main");
            let (trace, stats) = collect_full(inst, main, bw, "pin").expect("runs");
            h.update(&fnv_debug(&(trace, stats.packets)).to_le_bytes());
        }
        h.finish()
    })
}

#[test]
fn packet_sampler_output_is_the_parent_commits() {
    assert_eq!(
        sampled_digests(OptLevel::O0),
        [0x67c9_4df2_3db4_106b, 0x21f9_1781_b65f_13c2],
        "ubench O0: microbench, sample-only guarded compact"
    );
    assert_eq!(
        sampled_digests(OptLevel::O3),
        [0x90e3_a37e_9827_b18f, 0xde88_868d_8916_ef18],
        "ubench O3: microbench, sample-only guarded compact"
    );
}

#[test]
fn packet_full_collector_output_is_the_parent_commits() {
    assert_eq!(
        full_digests(OptLevel::O0),
        [
            0xbca7_aedd_d40b_3342,
            0xd0d1_1dcd_7ef1_b70f,
            0xbca7_aedd_d40b_3342,
        ],
        "ubench O0: Table III bandwidth, default, unlimited"
    );
    assert_eq!(
        full_digests(OptLevel::O3),
        [
            0x5ef9_6c43_868a_7396,
            0x2d40_d062_00e2_9243,
            0x13b4_f616_039d_fecd,
        ],
        "ubench O3: Table III bandwidth, default, unlimited"
    );
}

/// The trigger ablation's stream (`memgaze-bench`'s `ablations`): a
/// dense phase of 1-cycle loads in region A, then a sparse phase of
/// 10-cycle loads in region B, equal load counts.
fn two_phase(mut feed: impl FnMut(Ip, u64, u64)) {
    let n = 200_000u64;
    for t in 0..n {
        feed(Ip(0x400), 0x10_0000 + (t % 512) * 64, 1);
    }
    for t in 0..n {
        feed(Ip(0x404), 0x80_0000 + (t % 512) * 64, 10);
    }
}

#[test]
fn cycle_and_load_triggers_on_the_two_phase_stream_are_the_parent_commits() {
    let mut cfg = SamplerConfig::application(20_000);
    cfg.buffer_bytes = 2 << 10;
    let mut time = TimeStreamSampler::new(cfg.clone());
    let mut loads = StreamSampler::new(SamplerConfig {
        period: 20_000 * 2 / 11,
        ..cfg
    });
    two_phase(|ip, a, c| time.on_load(ip, a, true, 1, c));
    two_phase(|ip, a, _| loads.on_load(ip, a, true, 1));
    assert_eq!(
        fnv_debug(&time.finish("time")),
        0x3581_a706_a7d3_1057,
        "cycle trigger"
    );
    assert_eq!(
        fnv_debug(&loads.finish("loads")),
        0xd2e7_02ca_0819_ad9a,
        "load trigger"
    );
}

#[test]
fn stream_full_collector_output_is_the_parent_commits() {
    // Phases of dense two-packet loads (drop bursts), sparse one-packet
    // loads (the bucket refills) and uninstrumented loads between.
    let feed = |full: &mut StreamFull| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for t in 0..300_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = x >> 33;
            let (instrumented, packets) = match (t / 20_000) % 3 {
                0 => (!r.is_multiple_of(8), 2),
                1 => (r.is_multiple_of(4), 1),
                _ => (r.is_multiple_of(2), 1 + u8::from(r.is_multiple_of(3))),
            };
            full.on_load(
                Ip(0x400 + (r % 7) * 4),
                0x10_0000 + (r % 4096) * 8,
                instrumented,
                packets,
            );
        }
    };
    let mut rec = StreamFull::new(BandwidthModel::default());
    let mut all = StreamFull::unlimited();
    feed(&mut rec);
    feed(&mut all);
    let (rec_stats, all_stats) = (rec.stats, all.stats);
    assert_eq!(
        fnv_debug(&(rec.finish("rec"), rec_stats)),
        0x99da_845a_ed1c_2c30,
        "default bandwidth"
    );
    assert_eq!(
        fnv_debug(&(all.finish("all"), all_stats)),
        0x380e_a128_08fd_7f9a,
        "unlimited"
    );
}
