//! `memgaze serve`: a long-running, concurrent streaming-analysis
//! daemon.
//!
//! Every other MemGaze entry point is a one-shot run; production trace
//! analysis (HMTT's online analyzer, BSC's live access-pattern tooling)
//! is continuous ingest with live reporting. This crate keeps
//! [`StreamingAnalyzer`](memgaze_analysis::StreamingAnalyzer) sessions
//! alive across requests behind a hand-rolled HTTP/1.1 server over
//! [`std::net`] whose fixed set of workers block in `accept` on one
//! listener — the same zero-dependency discipline as `memgaze-obs`.
//!
//! ## Protocol
//!
//! | Request | Meaning |
//! |---|---|
//! | `POST /sessions` | create a session (201 + `{"id": ...}`) |
//! | `POST /sessions/{id}/shards` | feed one v2 MGZT container (202) |
//! | `GET /sessions/{id}/deltas` | SSE stream of per-upload delta frames |
//! | `POST /sessions/{id}/seal` | freeze the fold; returns the MGZP partial |
//! | `GET /sessions/{id}/report` | the sealed report again |
//! | `GET /sessions/{id}` | status JSON |
//! | `DELETE /sessions/{id}` | drop the session |
//! | `GET /watch/events` | SSE stream of every session's windows (one per upload) and anomaly marks |
//! | `GET /healthz` | liveness + drain state |
//!
//! Uploads decode through [`ShardReader`](memgaze_model::ShardReader)
//! into the session's one running analyzer, so the sealed report is
//! **bit-identical** to a resident pass over the same shards. Each
//! upload closes one watch window on `GET /watch/events` and, for SSE
//! subscribers, is published as its own
//! [`PartialReport`](memgaze_analysis::PartialReport) delta.
//!
//! ## Admission control
//!
//! Capacity refusals are typed ([`ServeError`]) and carry
//! `Retry-After`: live-session cap (503), bounded per-session upload
//! queues (429), per-session byte budgets (413); connections beyond
//! the worker count wait in the listen backlog. Idle sessions are
//! reaped by a janitor thread; `drain` (SIGTERM in the CLI) stops
//! accepting, finishes in-flight requests, then seals every open
//! session and flushes its deltas.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod client;
pub mod error;
pub mod http;
mod pool;
pub mod server;
pub mod session;

pub use client::{Client, HttpResponse};
pub use error::ServeError;
pub use server::{DrainReport, Server};
pub use session::{Registry, SealedReport, Session, SessionStatus, WatchHub};

use memgaze_analysis::AnalysisConfig;
use std::time::Duration;

/// Server-wide configuration: the analysis parameters every session
/// runs with, and the admission-control limits.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Analysis configuration shared by all sessions (block sizes).
    pub analysis: AnalysisConfig,
    /// Locality window sizes accumulated per session.
    pub locality_sizes: Vec<u64>,
    /// Maximum live sessions before creates are refused (503).
    pub max_sessions: usize,
    /// Maximum uploads queued per session before feeds are refused
    /// (429).
    pub queue_depth: usize,
    /// Per-session byte budget across all uploads (413 beyond it).
    pub session_bytes: u64,
    /// Largest single request body accepted by the HTTP layer.
    pub max_upload_bytes: usize,
    /// Sessions idle past this are reaped.
    pub idle_timeout: Duration,
    /// Socket read timeout — bounds how long a torn client can hold a
    /// connection worker.
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            analysis: AnalysisConfig::default(),
            locality_sizes: vec![16, 64, 256],
            max_sessions: 64,
            queue_depth: 8,
            session_bytes: 256 << 20,
            max_upload_bytes: 64 << 20,
            idle_timeout: Duration::from_secs(300),
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Shared synthetic-traffic harness for the smoke run, the integration
/// tests, and the bench driver.
pub mod harness {
    use super::*;
    use memgaze_analysis::StreamingReport;
    use memgaze_model::{Access, Sample, ShardWriter, TraceMeta};

    /// Synthetic per-session sample stream: a strided phase interleaved
    /// with cyclic reuse over hot regions, time-ordered across samples.
    /// `salt` decorrelates streams of concurrent sessions.
    pub fn synthetic_samples(samples: usize, window: usize, salt: u64) -> Vec<Sample> {
        (0..samples)
            .map(|s| {
                let base = (s as u64) * 10_000;
                let accesses: Vec<Access> = (0..window)
                    .map(|i| {
                        let i64 = i as u64;
                        let addr = if i % 2 == 0 {
                            0x10_0000 + (salt << 24) + ((s * window + i) as u64) * 64
                        } else {
                            let hot = (i64 / 2 + salt) % 4;
                            0x80_0000 + hot * 0x10_0000 + (i64 % 64) * 64
                        };
                        Access::new(0x400u64 + (i64 % 16) * 4, addr, base + i64)
                    })
                    .collect();
                Sample::new(accesses, base + window as u64)
            })
            .collect()
    }

    /// The base metadata every smoke/test container shares.
    pub fn base_meta(workload: &str) -> TraceMeta {
        TraceMeta::new(workload, 10_000, 16 << 10)
    }

    /// Encode one upload container holding `shards`, with trailer
    /// totals proportional to the samples it carries.
    // Writing to a Vec cannot fail, and the totals count every sample
    // `period` ≥ 1 times.
    #[allow(clippy::expect_used)]
    pub fn container(workload: &str, shards: &[&[Sample]]) -> Vec<u8> {
        let meta = base_meta(workload);
        let mut w = ShardWriter::new(Vec::new(), &meta).expect("header write");
        let mut samples = 0u64;
        let mut instrumented = 0u64;
        for shard in shards {
            w.write_shard(shard).expect("shard write");
            samples += shard.len() as u64;
            instrumented += shard.iter().map(|s| s.accesses.len() as u64).sum::<u64>();
        }
        w.finish(samples * meta.period, instrumented)
            .expect("trailer write")
    }

    /// The resident reference pass: one
    /// [`StreamingAnalyzer`](memgaze_analysis::StreamingAnalyzer) fed the
    /// same shard groups in order, finished with the same accumulated
    /// metadata the server derives.
    pub fn resident_report(
        workload: &str,
        groups: &[Vec<Sample>],
        cfg: &ServeConfig,
    ) -> StreamingReport {
        let mut sa = session::analyzer(cfg);
        let mut meta = base_meta(workload);
        for g in groups {
            sa.ingest_shard(g);
            meta.total_loads += g.len() as u64 * meta.period;
            meta.total_instrumented_loads += g.iter().map(|s| s.accesses.len() as u64).sum::<u64>();
        }
        sa.finish(&meta)
    }

    /// Drive one full session over the wire: feed `uploads` (each a
    /// slice of shard groups) with the given HTTP chunk size, seal, and
    /// finish client-side.
    pub fn drive_session(
        client: &Client,
        workload: &str,
        uploads: &[&[Vec<Sample>]],
        chunk: Option<usize>,
    ) -> Result<StreamingReport, String> {
        let id = client.create_session()?;
        for upload in uploads {
            let refs: Vec<&[Sample]> = upload.iter().map(|g| g.as_slice()).collect();
            let body = container(workload, &refs);
            let resp = client.feed(&id, &body, chunk).map_err(|e| e.to_string())?;
            if resp.status != 202 {
                return Err(format!("feed: status {}: {}", resp.status, resp.text()));
            }
        }
        client.seal(&id)?.finish()
    }

    /// The scripted smoke: boot a server, run every chunking ×
    /// concurrency combination, assert each sealed session is
    /// bit-identical to its resident pass, then drain cleanly. Returns
    /// a human-readable summary, or the first failure.
    pub fn smoke(threads: usize) -> Result<String, String> {
        let cfg = ServeConfig::default();
        let server =
            Server::bind("127.0.0.1:0", cfg.clone(), threads.max(2)).map_err(|e| e.to_string())?;
        let client = Client::new(server.addr());

        let samples = synthetic_samples(12, 160, 0);
        let groups: Vec<Vec<Sample>> = samples.chunks(3).map(|c| c.to_vec()).collect();
        let resident = resident_report("serve-smoke", &groups, &cfg);

        // Upload splits: whole trace at once / one shard per upload /
        // two shards per upload. HTTP chunkings: Content-Length, big
        // chunks, pathological 7-byte chunks.
        let splits: Vec<Vec<&[Vec<Sample>]>> = vec![
            vec![&groups[..]],
            groups.chunks(1).collect(),
            groups.chunks(2).collect(),
        ];
        let chunkings = [None, Some(512), Some(7)];
        let mut combos = 0usize;
        for uploads in &splits {
            for chunk in chunkings {
                // Concurrency axis: four sessions of this shape at once.
                let outcome: Vec<Result<StreamingReport, String>> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..4)
                        .map(|_| {
                            let uploads = uploads.clone();
                            scope.spawn(move || {
                                drive_session(&client, "serve-smoke", &uploads, chunk)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or_else(|_| Err("panicked".into())))
                        .collect()
                });
                for report in outcome {
                    let report = report?;
                    if report != resident {
                        return Err(format!(
                            "report differs from resident pass ({} uploads, chunk {chunk:?})",
                            uploads.len()
                        ));
                    }
                    combos += 1;
                }
            }
        }

        let drained = server.drain();
        if drained.seal_failures != 0 {
            return Err(format!(
                "drain left {} seal failures",
                drained.seal_failures
            ));
        }
        Ok(format!(
            "serve smoke: {combos} sessions across {} upload splits × {} chunkings × 4 \
             concurrent, all bit-identical to the resident pass; drain clean \
             ({} sessions sealed at drain)",
            splits.len(),
            chunkings.len(),
            drained.sessions_sealed
        ))
    }
}
