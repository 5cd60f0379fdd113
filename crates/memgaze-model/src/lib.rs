//! Trace model for MemGaze.
//!
//! This crate defines the data that flows through the MemGaze pipeline
//! (paper §II, Fig. 1): load-level memory [`Access`]es, fixed-size
//! [`Sample`]s of access sequences (paper Fig. 3), the [`SampledTrace`]
//! produced by the Processor-Tracing collector, the auxiliary annotation
//! file emitted by the binary instrumentor (paper §III-A), symbol/source
//! mapping, and the sample/compression ratio algebra of paper Eqs. (1)–(2).
//!
//! The crate is deliberately free of analysis logic; it is the vocabulary
//! shared by the instrumentor (`memgaze-instrument`), the Processor-Tracing
//! model (`memgaze-ptsim`), and the analyses (`memgaze-analysis`).
//! It owns the trace container every crate reads, so its non-test code
//! may not `unwrap`, `expect` or index unchecked (an `allow` says why).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod access;
pub mod addr;
pub mod annot;
pub mod error;
pub mod hash;
pub mod io;
pub mod ops;
pub mod ratio;
pub mod sample;
pub mod stream;
pub mod symbols;
pub mod wire;

pub use access::{Access, LoadClass};
pub use addr::{Addr, BlockSize, Ip};
pub use annot::{AuxAnnotations, IpAnnot};
pub use error::ModelError;
pub use hash::{fnv1a64, fnv1a64_seeded, Fnv64};
pub use ratio::{compression_ratio, sample_ratio, DecompressionInfo};
pub use sample::{FullTrace, Sample, SampledTrace, TraceMeta};
pub use stream::{
    decode_frame_payload, decode_sharded, encode_sharded, encode_sharded_indexed, FrameIndex,
    FrameIndexEntry, Shard, ShardReader, ShardWriter, DEFAULT_SHARD_SAMPLES,
};
pub use symbols::{FunctionId, FunctionSym, SymbolTable};
