//! A software model of Intel Processor Tracing with `ptwrite`, the
//! measurement substrate of MemGaze (paper §III).
//!
//! The real system pins a circular buffer that `ptwrite` fills without OS
//! intervention, triggers a sample every `w+z` loads, and suffers
//! bandwidth-limited copies (perf drops 30–50% of a full trace). Every
//! one of those mechanisms is modeled once, in `pt`:
//!
//! * [`packet`] — PTW/TSC/PSB packet sizes and accounting (including the
//!   compact 32-bit payload ablation);
//! * [`buffer`] — the fixed-size circular buffer with the kernel's
//!   async-fill yield artifact (16 KiB ≈ 1150 addresses, 8 KiB ≈ 500);
//! * [`guard`] — hardware IP-range filters (region of interest without
//!   re-instrumentation);
//! * `pt` (private) — the one sampler and the one token-bucket full
//!   collector, generic over what the buffer holds; callers name them by
//!   their aliases ([`SampledCollector`], [`StreamSampler`], …);
//! * [`collector`] — the configuration, and the model over the IR
//!   interpreter's `ptwrite` packets;
//! * [`stream`] — the model over pre-decoded load streams;
//! * [`decode`] — packet-group decoding back to effective addresses using
//!   the instrumentor's annotations (Analysis/1, "trace building");
//! * [`overhead`] — the Fig. 7 time-overhead model;
//! * [`runner`] — end-to-end drivers over instrumented IR modules.
//!
//! Its non-test code may not `unwrap`, `expect` or index unchecked (an
//! `allow` says why).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

mod buffer;
mod collector;
mod decode;
mod guard;
#[cfg(test)]
mod oracle;
mod overhead;
pub mod packet;
mod pt;
mod runner;
mod stream;

pub use buffer::CircBuffer;
pub use collector::{
    BandwidthModel, PtMode, RawSample, RawSampledTrace, SampledCollector, SamplerConfig,
};
pub use decode::{decode_full, DecodeOutcome};
pub use guard::IpGuards;
pub use overhead::{OverheadEstimate, OverheadModel, RunProfile};
pub use packet::{PacketStats, PtwPacket};
pub use pt::{SamplerObservation, StreamStats};
pub use runner::{collect_full, collect_sampled, ground_truth, RunStats};
pub use stream::{StreamFull, StreamSampler, TimeStreamSampler};
