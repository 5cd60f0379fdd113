//! Golden identity of the native kernels' load streams.
//!
//! Each row runs one kernel and pins the FNV-1a-64 of every `(ip, addr,
//! instrumented, packets)` its recorder sees (what a `FnRecorder` or a
//! sampler would be handed), in order, beside the load count, the
//! FNV-1a-64 of the per-phase counters (`format!("{:?}")` of
//! `TracedSpace::phases`) and that of the kernel's result. The digests
//! were recorded at commit c8f3c79, before the kernels' host-side work
//! (the RMAT descent, the v3 map's clear) was cut; they move only if a
//! traced load, a counter or an answer does.
//!
//! The rows cover every native kernel the benchmark and the paper tables
//! trace: miniVite v1/v2/v3, GAP pr/pr-spmv/cc/cc-sv and Darknet AlexNet,
//! each at a small scale.

use memgaze::model::{Fnv64, Ip};
use memgaze::workloads::darknet::{self, Network};
use memgaze::workloads::gap::{self, GapConfig, GapKernel};
use memgaze::workloads::minivite::{self, MapVariant, MiniViteConfig};
use memgaze::workloads::{LoadRecorder, TracedSpace};

/// `(stream digest, loads, phase-counter digest, result digest)`.
type Row = (u64, u64, u64, u64);

/// A recorder that folds every load event into one digest.
#[derive(Default)]
struct StreamHash {
    h: Fnv64,
    loads: u64,
}

impl LoadRecorder for StreamHash {
    fn record(&mut self, ip: Ip, addr: u64, instrumented: bool, packets: u8) {
        let mut ev = [0u8; 18];
        ev[..8].copy_from_slice(&ip.0.to_le_bytes());
        ev[8..16].copy_from_slice(&addr.to_le_bytes());
        ev[16] = u8::from(instrumented);
        ev[17] = packets;
        self.h.update(&ev);
        self.loads += 1;
    }
}

fn fnv_debug<T: std::fmt::Debug>(v: &T) -> u64 {
    Fnv64::new().update(format!("{v:?}").as_bytes()).finish()
}

fn stream_row<T: std::fmt::Debug>(kernel: impl FnOnce(&mut TracedSpace<StreamHash>) -> T) -> Row {
    let mut space = TracedSpace::new(StreamHash::default());
    let result = fnv_debug(&kernel(&mut space));
    let phases = fnv_debug(&space.phases());
    let rec = space.into_recorder();
    (rec.h.finish(), rec.loads, phases, result)
}

fn minivite_row(variant: MapVariant) -> Row {
    let cfg = MiniViteConfig {
        scale: 8,
        degree: 8,
        iterations: 2,
        variant,
        seed: 77,
        v2_default_capacity: 64,
    };
    stream_row(|s| minivite::run(s, &cfg))
}

fn gap_row(kernel: GapKernel) -> Row {
    let cfg = GapConfig {
        scale: 8,
        degree: 8,
        kernel,
        max_iters: 5,
        seed: 13,
    };
    stream_row(|s| gap::run(s, &cfg))
}

fn check(name: &str, got: Row, want: Row) {
    assert_eq!(
        got, want,
        "{name}: (stream, loads, phases, result) moved; got {got:#x?}"
    );
}

#[test]
fn minivite_streams_are_the_parent_commits() {
    check(
        "miniVite-v1",
        minivite_row(MapVariant::V1),
        (
            0x7dc6_f64e_e8b1_cf26,
            124_583,
            0x4e96_7c24_0820_31c4,
            0x7cc2_e7b4_c5fc_264b,
        ),
    );
    check(
        "miniVite-v2",
        minivite_row(MapVariant::V2),
        (
            0x0918_1f6b_27d0_4a40,
            174_293,
            0x1d10_7c07_cf46_6b46,
            0x551b_3341_8123_23cb,
        ),
    );
    check(
        "miniVite-v3",
        minivite_row(MapVariant::V3),
        (
            0x930f_3f8b_5486_5e05,
            102_229,
            0x61c8_a1b0_c48b_54a8,
            0x08ed_4242_6f2d_df65,
        ),
    );
}

#[test]
fn gap_streams_are_the_parent_commits() {
    check(
        "gap-pr",
        gap_row(GapKernel::Pr),
        (
            0xb91d_e826_6fdd_dd75,
            40_192,
            0x1b61_df97_2d20_241d,
            0x709e_ad18_5dcf_d5b5,
        ),
    );
    check(
        "gap-pr-spmv",
        gap_row(GapKernel::PrSpmv),
        (
            0xf797_1abb_b9c1_1477,
            50_432,
            0x9d43_00fa_787e_d05a,
            0xfda7_1e37_ccfa_58cc,
        ),
    );
    check(
        "gap-cc",
        gap_row(GapKernel::Cc),
        (
            0x95f3_5411_3a24_6430,
            8_122,
            0x349e_9456_3caf_0be3,
            0x1b05_ae95_690a_1802,
        ),
    );
    check(
        "gap-cc-sv",
        gap_row(GapKernel::CcSv),
        (
            0xc3ca_5010_0f33_3987,
            44_504,
            0xf7c7_8a15_1a47_6937,
            0xb32d_d6ef_7506_fc6b,
        ),
    );
}

#[test]
fn darknet_stream_is_the_parent_commits() {
    check(
        "darknet-AlexNet",
        stream_row(|s| darknet::run(s, Network::AlexNet)),
        (
            0x79f0_c85f_229b_0471,
            2_006_710,
            0xa6e6_cb05_7682_8edd,
            0xd231_1015_1cda_83e6,
        ),
    );
}
