//! Content-addressed trace store with a per-frame result cache and an
//! index-backed query engine.
//!
//! MemGaze's value proposition (paper §I) is *rapid* load-level
//! analysis — but rapid re-analysis matters just as much: traces are
//! collected once and then interrogated many times, under different
//! configurations, zoom targets, and time windows. This crate gives
//! traces a durable home built for that access pattern:
//!
//! * [`blob`] — shard-frame payloads stored as checksummed,
//!   block-compressed blobs under a seeded-FNV *content hash*, so
//!   identical frames are stored once and every read is self-verifying;
//! * [`compress`] — the general-purpose LZ block codec layered over the
//!   existing trigger delta chains;
//! * [`catalog`] — the persistent promotion of the in-memory
//!   [`FrameIndex`](memgaze_model::FrameIndex) sidecar: ordered frame
//!   hashes plus per-frame sample/load counts, time and address ranges,
//!   per-block reuse rows, and function attribution (MGZC format);
//! * [`store`] — [`TraceStore`]: `put`/`get`/`ls`/`gc`, byte-identical
//!   container reassembly, and store-backed analysis with a per-frame
//!   result cache keyed by (frame hash, analyzer-config hash);
//! * [`query`] — [`QueryEngine`]: region / time-range / per-function
//!   statistics answered from catalog summaries without decoding any
//!   shard.
//!
//! Every degraded on-disk state is a typed [`StoreError`]; corruption
//! and staleness are detected, named, and never returned as data.

pub mod blob;
pub mod catalog;
pub mod compress;
pub mod error;
pub mod query;
pub mod store;

pub use blob::{content_hash, CONTENT_HASH_SEED};
pub use catalog::{Catalog, FrameSummary};
pub use error::StoreError;
pub use query::{FunctionAnswer, QueryEngine, RegionAnswer, TimeAnswer};
pub use store::{
    validate_trace_id, CacheStats, GcReport, PutReceipt, StoreAnalysis, StoreConfig, TraceEntry,
    TraceStore,
};
