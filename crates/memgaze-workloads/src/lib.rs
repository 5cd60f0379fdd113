//! Traced workloads for MemGaze's evaluation (paper §VI–§VII).
//!
//! * [`space`] — the simulated address space: allocator, access-site
//!   registry (static load classes, annotations, symbols), per-phase
//!   execution counters;
//! * [`containers`] — traced vectors over the simulated space;
//! * [`hashes`] — the miniVite `map` variants (chained vs. hopscotch);
//! * [`graph`] — CSR graphs from an RMAT generator;
//! * [`ubench`] — the microbenchmark suite (IR-generated, `str`/`irr`
//!   compositions);
//! * [`modules`] — the other generated IR modules: Table II's
//!   application-sized module and the classifier showcase kernels;
//! * [`minivite`] — Louvain community detection with map variants
//!   v1/v2/v3;
//! * [`gap`] — GAP PageRank (`pr`, `pr-spmv`) and Connected Components
//!   (`cc` Afforest, `cc-sv` Shiloach–Vishkin);
//! * [`darknet`] — `gemm`/`im2col` inference with AlexNet and
//!   ResNet-152 geometries.

mod containers;
pub mod darknet;
pub mod gap;
mod graph;
mod hashes;
pub mod minivite;
pub mod modules;
mod space;
pub mod ubench;

pub use containers::TVec;
pub use space::{
    Allocation, Counters, FnRecorder, LoadRecorder, NullRecorder, Phase, Site, SiteId, TracedSpace,
};
