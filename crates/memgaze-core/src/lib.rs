//! The MemGaze pipeline (paper Fig. 1): static analysis + selective
//! instrumentation → Processor-Tracing collection of sampled address
//! traces → multi-resolution analysis.
//!
//! Two front-ends feed the same trace model:
//!
//! * the **IR path** ([`MemGaze::run_microbench`]) generates a
//!   microbenchmark module, instruments it with real `ptwrite` insertion,
//!   executes it on the interpreter, collects raw PT packets, and decodes
//!   them back to effective addresses;
//! * the **workload path** ([`trace_workload`]) runs a native Rust
//!   workload against a traced address space whose loads stream through
//!   the identical buffer/trigger/drop machinery.
//!
//! Both yield a [`memgaze_model::SampledTrace`] plus annotations and
//! symbols, which [`memgaze_analysis::Analyzer`] consumes.
//!
//! Its non-test code may not `unwrap`, `expect` or index unchecked (an
//! `allow` says why).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

mod fanout;
mod overheads;
pub mod pipeline;
mod recorders;
mod watch;

pub use fanout::{run_fanout, FanoutBackend, FanoutConfig, FanoutRunReport};
pub use overheads::{phase_profiles, PhaseOverhead};
pub use pipeline::{
    analyze_shard_container, full_trace_workload, trace_workload, trace_workload_streaming,
    MemGaze, MicroReport, PipelineConfig, StreamingWorkloadReport, WorkloadReport,
};
pub use recorders::{FullRecorder, SamplerRecorder, StreamingRecorder};
pub use watch::{
    phase_shift_steps, watch_smoke, watch_workload, ControllerConfig, ControllerMode, GuardAction,
    Retune, WatchConfig, WatchReport,
};
