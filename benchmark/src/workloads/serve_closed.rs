//! `serve_closed`: the streaming engine behind `memgaze serve`. One
//! in-process server with a 2-thread pool and default admission limits;
//! a closed loop of 2 client threads over real sockets — closed because
//! a session's uploads are ordered and each waits for its 202. A session
//! is create → 4 feeds (alternating Content-Length and chunked) → seal →
//! client-side `finish` → delete; its samples are a slice of a dense
//! trace. An open-loop rate sweep needs more cores than the host has and
//! is left out.

use super::{digest_of, ensure, RoundOutcome, Workload};
use crate::inputs::{self, Scale, LOCALITY_SIZES};
use crate::metrics::Metrics;
use crate::span::{Layer, Recorder};
use crate::timing::quantile;
use memgaze_analysis::{StreamingAnalyzer, StreamingReport};
use memgaze_model::{AuxAnnotations, Sample, ShardWriter, SymbolTable, TraceMeta};
use memgaze_serve::{Client, Registry, ServeConfig, Server};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

/// Client threads (= connections in flight), and the server's pool.
const CLIENTS: usize = 2;
const POOL_THREADS: usize = 2;
/// Uploads per session, samples per shard inside an upload, and the
/// HTTP chunk size of the chunked uploads.
const UPLOADS: usize = 4;
const SHARD: usize = 4;
const HTTP_CHUNK: usize = 4096;

struct SessionInput {
    /// Pre-encoded upload bodies, in feed order.
    uploads: Vec<Vec<u8>>,
    /// The report a local analyzer gives for the same shards.
    want: StreamingReport,
    loads: u64,
}

/// One HTTP request as a client thread saw it.
struct Request {
    kind: &'static str,
    started: Instant,
    secs: f64,
    status: u16,
}

pub struct ServeClosed {
    server: Server,
    /// Reads `GET /watch/events` until the drain closes it.
    watcher: JoinHandle<Vec<(String, String)>>,
    sessions: Vec<SessionInput>,
    requests: u64,
    refused_429: u64,
    refused_503: u64,
    peak_session_bytes: u64,
}

fn config() -> ServeConfig {
    ServeConfig {
        locality_sizes: LOCALITY_SIZES.to_vec(),
        ..ServeConfig::default()
    }
}

/// Encode one upload and fold it into the local reference the way the
/// server folds it into the session.
fn upload(
    meta: &mut TraceMeta,
    local: &mut StreamingAnalyzer<'_>,
    samples: &[Sample],
) -> Result<Vec<u8>, String> {
    let header = TraceMeta::new(meta.workload.clone(), meta.period, meta.buffer_bytes);
    let mut w = ShardWriter::new(Vec::new(), &header).map_err(|e| e.to_string())?;
    for shard in samples.chunks(SHARD) {
        w.write_shard(shard).map_err(|e| e.to_string())?;
        local.ingest_shard(shard);
    }
    let loads = samples.len() as u64 * meta.period;
    let instrumented = samples.iter().map(|s| s.accesses.len() as u64).sum();
    meta.total_loads += loads;
    meta.total_instrumented_loads += instrumented;
    w.finish(loads, instrumented).map_err(|e| e.to_string())
}

impl ServeClosed {
    pub fn setup(seed: u64, scale: Scale) -> Result<ServeClosed, String> {
        let sizes = scale.sizes();
        let traces = inputs::dense_traces(seed, &sizes);
        let cfg = config();
        let (annots, symbols) = (AuxAnnotations::new(), SymbolTable::new());
        let mut sessions = Vec::new();
        for i in 0..sizes.sessions {
            let (trace, c) = &traces[i % traces.len()];
            let n = sizes.session_samples.min(trace.samples.len());
            let start = (i / traces.len() * n) % (trace.samples.len() - n + 1);
            let slice = &trace.samples[start..start + n];
            // The server analyzes uploads without side tables; so does
            // the reference.
            let mut local = StreamingAnalyzer::new(&annots, &symbols, cfg.analysis)
                .with_locality_sizes(&cfg.locality_sizes);
            let mut meta = TraceMeta::new(
                format!("{}-{i}", c.name),
                trace.meta.period,
                trace.meta.buffer_bytes,
            );
            let uploads = slice
                .chunks(n.div_ceil(UPLOADS))
                .map(|samples| upload(&mut meta, &mut local, samples))
                .collect::<Result<Vec<_>, _>>()?;
            sessions.push(SessionInput {
                uploads,
                want: local.finish(&meta),
                loads: meta.total_loads,
            });
        }
        ensure(
            sessions.iter().all(|s| s.uploads.len() == UPLOADS),
            "every session has its four uploads",
        )?;
        let server = Server::bind("127.0.0.1:0", cfg, POOL_THREADS).map_err(|e| e.to_string())?;
        let watch = Client::new(server.addr())
            .watch_collect()
            .map_err(|e| e.to_string())?;
        Ok(ServeClosed {
            server,
            watcher: std::thread::spawn(move || watch.collect()),
            sessions,
            requests: 0,
            refused_429: 0,
            refused_503: 0,
            peak_session_bytes: 0,
        })
    }
}

/// Time one request and log it with the status it came back with.
fn timed<T>(log: &mut Vec<Request>, kind: &'static str, f: impl FnOnce() -> (u16, T)) -> (u16, T) {
    let started = Instant::now();
    let (status, value) = f();
    log.push(Request {
        kind,
        started,
        secs: started.elapsed().as_secs_f64(),
        status,
    });
    (status, value)
}

/// The status inside the client's `"...: status 503: ..."` error text
/// (0 for a transport error).
fn refused_status(err: &str) -> u16 {
    err.split("status ")
        .nth(1)
        .and_then(|rest| rest.split(':').next())
        .and_then(|code| code.trim().parse().ok())
        .unwrap_or(0)
}

/// One session's lifecycle. Returns the sealed report when every
/// request was accepted, and the session's byte high-water mark.
fn drive(
    client: &Client,
    registry: &Registry,
    input: &SessionInput,
    log: &mut Vec<Request>,
) -> (Option<StreamingReport>, u64) {
    let (_, id) = timed(log, "create", || match client.create_session() {
        Ok(id) => (201, Some(id)),
        Err(e) => (refused_status(&e), None),
    });
    let Some(id) = id else { return (None, 0) };
    let mut accepted = true;
    for (u, body) in input.uploads.iter().enumerate() {
        let chunk = (u % 2 == 1).then_some(HTTP_CHUNK);
        let (status, ()) = timed(log, "feed", || {
            (client.feed(&id, body, chunk).map_or(0, |r| r.status), ())
        });
        accepted &= status == 202;
    }
    let (_, sealed) = timed(log, "seal", || match client.seal(&id) {
        Ok(sealed) => (200, Some(sealed)),
        Err(e) => (refused_status(&e), None),
    });
    let report = sealed.and_then(|s| s.finish().ok()).filter(|_| accepted);
    let peak = registry.get(&id).map_or(0, |s| s.status().peak_bytes);
    timed(log, "delete", || {
        let path = format!("/sessions/{id}");
        (
            client
                .request("DELETE", &path, &[], None)
                .map_or(0, |r| r.status),
            (),
        )
    });
    (report, peak)
}

impl Workload for ServeClosed {
    fn round(&mut self, rec: &mut Recorder) -> RoundOutcome {
        let mut out = RoundOutcome::default();
        let client = Client::new(self.server.addr());
        let next = AtomicUsize::new(0);
        let (registry, sessions) = (self.server.registry().as_ref(), &self.sessions);
        let started = Instant::now();
        let per_client: Vec<(Vec<Request>, u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut log = Vec::new();
                        let (mut wrong, mut peak) = (0, 0);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(input) = sessions.get(i) else { break };
                            let (report, p) = drive(&client, registry, input, &mut log);
                            peak = peak.max(p);
                            if report.as_ref() != Some(&input.want) {
                                wrong += 1;
                            }
                        }
                        (log, wrong, peak)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = started.elapsed().as_secs_f64();
        // The reports are compared on the client threads, so the wall
        // time includes that; it is a vector compare per session.
        out.timed_s = wall;
        let root = rec.add(Layer::Serve, "sessions", started, wall, None);
        for (log, wrong, peak) in &per_client {
            out.failed += wrong;
            self.peak_session_bytes = self.peak_session_bytes.max(*peak);
            for r in log {
                rec.add(Layer::Serve, r.kind, r.started, r.secs, root);
                out.op_s.push(r.secs);
                out.attempted += 1;
                self.requests += 1;
                out.verify(matches!(
                    (r.kind, r.status),
                    ("create", 201) | ("feed", 202) | ("seal", 200) | ("delete", 200 | 204)
                ));
                self.refused_429 += u64::from(r.status == 429);
                self.refused_503 += u64::from(r.status == 503);
            }
        }
        out
    }

    fn loads_per_round(&self) -> u64 {
        self.sessions.iter().map(|s| s.loads).sum()
    }

    fn trace_bytes_per_round(&self) -> u64 {
        self.sessions
            .iter()
            .flat_map(|s| &s.uploads)
            .map(|u| u.len() as u64)
            .sum()
    }

    fn digest(&self) -> u64 {
        let rows: Vec<_> = self
            .sessions
            .iter()
            .map(|s| (&s.want.function_rows, s.want.interval_rows(8)))
            .collect();
        digest_of(&rows)
    }

    fn layer_metrics(&self, rec: &Recorder, m: &mut Metrics) {
        let ms = |name: &str, q: f64| quantile(&rec.durations(name), q) * 1e3;
        m.set("serve.create_ms_p50", ms("create", 0.5));
        m.set("serve.feed_ms_p50", ms("feed", 0.5));
        m.set("serve.feed_ms_p95", ms("feed", 0.95));
        m.set("serve.feed_ms_p99", ms("feed", 0.99));
        m.set("serve.seal_ms_p50", ms("seal", 0.5));
        m.set("serve.seal_ms_p95", ms("seal", 0.95));
        m.set("serve.requests", self.requests as f64);
        m.set("serve.refused_429", self.refused_429 as f64);
        m.set("serve.refused_503", self.refused_503 as f64);
        m.set("serve.bytes_uploaded", self.trace_bytes_per_round() as f64);
        m.set("serve.peak_session_bytes", self.peak_session_bytes as f64);
    }

    fn teardown(self: Box<Self>, rec: &mut Recorder, m: &mut Metrics) {
        let ServeClosed {
            server, watcher, ..
        } = *self;
        let started = Instant::now();
        let drained = rec.span(Layer::Serve, "drain", |_| server.drain());
        m.set("serve.drain_s", started.elapsed().as_secs_f64());
        // The drain closed the watch stream, which ends the watcher.
        let events = watcher.join().unwrap_or_default();
        m.set("serve.sse_events", events.len() as f64);
        m.set(
            "serve.windows_published",
            events.iter().filter(|(e, _)| e == "window").count() as f64,
        );
        debug_assert_eq!(drained.seal_failures, 0);
    }
}
