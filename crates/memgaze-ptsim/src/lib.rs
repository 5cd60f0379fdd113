//! A software model of Intel Processor Tracing with `ptwrite`, the
//! measurement substrate of MemGaze (paper §III).
//!
//! The real system pins a circular buffer that `ptwrite` fills without OS
//! intervention, triggers a sample every `w+z` loads, and suffers
//! bandwidth-limited copies (perf drops 30–50% of a full trace). Every
//! one of those mechanisms is modeled here:
//!
//! * [`packet`] — PTW/TSC/PSB packet sizes and accounting (including the
//!   compact 32-bit payload ablation);
//! * [`buffer`] — the fixed-size circular buffer with the kernel's
//!   async-fill yield artifact (16 KiB ≈ 1150 addresses, 8 KiB ≈ 500);
//! * [`guard`] — hardware IP-range filters (region of interest without
//!   re-instrumentation);
//! * [`collector`] — sampled and full perf-like collectors
//!   (continuous vs. sample-only PT enable; token-bucket drop model);
//! * [`decode`] — packet-group decoding back to effective addresses using
//!   the instrumentor's annotations (Analysis/1, "trace building");
//! * [`stream`] — the same collection mechanisms over pre-decoded load
//!   streams (the application-workload path);
//! * [`overhead`] — the Fig. 7 time-overhead model;
//! * [`runner`] — end-to-end drivers over instrumented IR modules.

pub mod buffer;
pub mod collector;
pub mod decode;
pub mod guard;
#[cfg(test)]
mod oracle;
pub mod overhead;
pub mod packet;
pub mod runner;
pub mod stream;
pub mod timetrigger;

pub use buffer::CircBuffer;
pub use collector::{
    BandwidthModel, FullCollector, PtMode, RawSample, RawSampledTrace, SampledCollector,
    SamplerConfig,
};
pub use decode::{decode_full, decode_sampled, DecodeOutcome};
pub use guard::IpGuards;
pub use overhead::{OverheadEstimate, OverheadModel, RunProfile};
pub use packet::{PacketStats, PtwPacket};
pub use runner::{collect_full, collect_sampled, ground_truth, RunStats};
pub use stream::{SamplerObservation, StreamFull, StreamSampler, StreamStats};
pub use timetrigger::TimeStreamSampler;
