//! The daemon: listener, connection workers, request routing, graceful
//! drain.
//!
//! No request waits on a timer. [`Server::bind`] starts `threads`
//! workers that block in `accept` on the one listener and handle each
//! connection to completion (the `pool` module), and a janitor thread
//! that reaps idle sessions every [`REAP_INTERVAL`]. Draining is a
//! strict sequence — stop accepting, let in-flight handlers finish,
//! then seal every open session and flush its deltas — so a SIGTERM'd
//! server never loses an accepted shard.

use crate::error::ServeError;
use crate::http::{read_request, HttpError, Request, Response};
use crate::pool::Workers;
use crate::session::Registry;
use crate::ServeConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the janitor looks for idle sessions.
const REAP_INTERVAL: Duration = Duration::from_millis(250);

/// The response head that opens either SSE stream.
const SSE_HEAD: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                          Cache-Control: no-cache\r\nConnection: close\r\n\r\n";

/// What a completed drain did.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Sessions sealed by the drain (already-sealed sessions are not
    /// counted).
    pub sessions_sealed: usize,
    /// Sessions whose seal failed (poisoned by an earlier decode
    /// error).
    pub seal_failures: usize,
}

/// A running `memgaze serve` instance.
///
/// [`drain`](Self::drain) and drop are the only ways to stop it: the
/// workers sleep in `accept`, so stopping them means waking them, and
/// only the server knows how. Drop stops without sealing.
pub struct Server {
    addr: SocketAddr,
    registry: Arc<Registry>,
    workers: Workers,
    janitor: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// accepting on `threads` connection workers.
    pub fn bind(addr: &str, cfg: ServeConfig, threads: usize) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stopping = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Registry::new(cfg));
        let workers = {
            let registry = Arc::clone(&registry);
            Workers::start(listener, threads, Arc::clone(&stopping), move |stream| {
                handle_connection(stream, &registry)
            })?
        };
        // If this spawn fails, `workers` drops, which stops them.
        let janitor = {
            let registry = Arc::clone(&registry);
            std::thread::Builder::new()
                .name("memgaze-serve-janitor".into())
                .spawn(move || loop {
                    std::thread::park_timeout(REAP_INTERVAL);
                    if stopping.load(Ordering::SeqCst) {
                        return;
                    }
                    registry.reap_idle();
                })?
        };
        Ok(Server {
            addr,
            registry,
            workers,
            janitor: Some(janitor),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session registry (exposed for in-process harnesses).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Graceful drain: stop accepting, finish in-flight requests, then
    /// seal every open session (flushing subscriber deltas).
    pub fn drain(mut self) -> DrainReport {
        let _span = memgaze_obs::span("serve.drain");
        self.stop();
        let (sessions_sealed, seal_failures) = self.registry.seal_all();
        DrainReport {
            sessions_sealed,
            seal_failures,
        }
    }

    /// Stop and join the workers, then the janitor, which watches the
    /// latch the workers' stop sets.
    fn stop(&mut self) {
        self.workers.stop();
        if let Some(janitor) = self.janitor.take() {
            janitor.thread().unpark();
            let _ = janitor.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Serve one connection until close, error, or hand-off to SSE.
fn handle_connection(stream: TcpStream, registry: &Registry) {
    // `serve.request_us` runs from here, the connection just accepted,
    // to the response's last byte handed to the kernel: the whole of
    // what the server adds to a request, where `serve.feed_us` is the
    // analysis alone.
    let mut started = Instant::now();
    let (mut reader, mut writer) = {
        let _span = memgaze_obs::span("serve.accept");
        memgaze_obs::counter!("serve.connections").add(1);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(registry.cfg.read_timeout));
        match stream.try_clone() {
            Ok(s) => (BufReader::new(s), stream),
            Err(_) => return,
        }
    };
    loop {
        let req = match read_request(&mut reader, registry.cfg.max_upload_bytes) {
            Ok(req) => req,
            Err(HttpError::Closed) => return,
            Err(HttpError::TooLarge { limit }) => {
                let resp = error_response(&ServeError::BadRequest {
                    detail: format!("request exceeds {limit} bytes"),
                })
                .header("Connection", "close");
                let _ = resp.write_to(&mut writer);
                return;
            }
            Err(HttpError::Malformed(detail)) => {
                let resp = error_response(&ServeError::BadRequest { detail })
                    .header("Connection", "close");
                let _ = resp.write_to(&mut writer);
                return;
            }
            // Timeout or disconnect mid-request: nothing sensible to
            // answer; drop the connection and keep the worker alive.
            Err(HttpError::Io(_)) => {
                memgaze_obs::counter!("serve.dropped_connections").add(1);
                return;
            }
        };
        let mut span = memgaze_obs::span("serve.request");
        if span.is_active() {
            span.set_label(format!("{} {}", req.method, req.path));
        }
        memgaze_obs::counter!("serve.requests").add(1);
        let close = req.wants_close();
        let sent = match route(&req, registry) {
            Routed::Respond(resp) => {
                let resp = if close {
                    resp.header("Connection", "close")
                } else {
                    resp.header("Connection", "keep-alive")
                };
                resp.write_to(&mut writer)
            }
            // SSE hand-off: the socket moves into the subscriber list and
            // events are written by whichever handler publishes; this
            // worker goes back to `accept`. If the session sealed between
            // routing and here, `subscribe` writes the final `sealed`
            // event before the socket closes.
            Routed::Subscribe(session) => {
                if let Some(stream) = open_sse(writer, started) {
                    let _ = session.subscribe(stream);
                }
                return;
            }
            // Server-wide watch stream: every session's rolling windows
            // and anomaly marks until drain.
            Routed::SubscribeWatch => {
                if let Some(stream) = open_sse(writer, started) {
                    registry.watch_hub().subscribe(stream);
                }
                return;
            }
        };
        if sent.is_err() {
            return;
        }
        record_request_us(started);
        drop(span);
        if close {
            return;
        }
        // A later request on this connection is timed from its first
        // byte: what the client does between requests is not latency.
        match reader.fill_buf() {
            Ok(buf) if !buf.is_empty() => started = Instant::now(),
            _ => return,
        }
    }
}

/// Answer with the SSE stream head and lift the read timeout; `None`
/// when the peer is already gone.
fn open_sse(mut stream: TcpStream, started: Instant) -> Option<TcpStream> {
    stream.write_all(SSE_HEAD).ok()?;
    record_request_us(started);
    let _ = stream.set_read_timeout(None);
    Some(stream)
}

fn record_request_us(started: Instant) {
    memgaze_obs::histogram!("serve.request_us")
        .record(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
}

/// Routing outcome: an ordinary response, or an SSE subscription that
/// takes ownership of the socket.
enum Routed {
    Respond(Response),
    Subscribe(Arc<crate::session::Session>),
    SubscribeWatch,
}

/// Render a [`ServeError`] as its HTTP response.
fn error_response(e: &ServeError) -> Response {
    let body = format!(
        "{{\"error\":\"{}\",\"detail\":\"{}\"}}",
        e.kind(),
        memgaze_obs::json::escape(&e.to_string())
    );
    let mut resp = Response::json(e.status(), body);
    if let Some(secs) = e.retry_after() {
        resp = resp.header("Retry-After", secs);
    }
    resp
}

/// Dispatch one request against the protocol surface.
fn route(req: &Request, registry: &Registry) -> Routed {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let outcome = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Ok(Response::json(
            200,
            format!(
                "{{\"status\":\"{}\",\"sessions\":{}}}",
                if registry.is_draining() {
                    "draining"
                } else {
                    "ok"
                },
                registry.ids().len()
            ),
        )),
        ("POST", ["sessions"]) => registry.create().map(|s| {
            Response::json(201, format!("{{\"id\":\"{}\"}}", s.id))
                .header("Location", format!("/sessions/{}", s.id))
        }),
        ("GET", ["sessions"]) => {
            let ids = registry.ids();
            let list: Vec<String> = ids.iter().map(|id| format!("\"{id}\"")).collect();
            Ok(Response::json(
                200,
                format!("{{\"sessions\":[{}]}}", list.join(",")),
            ))
        }
        ("POST", ["sessions", id, "shards"]) => feed(req, registry, id),
        ("POST", ["sessions", id, "seal"]) => registry
            .get(id)
            .and_then(|s| s.seal(&registry.cfg))
            .map(sealed_response),
        ("GET", ["sessions", id, "report"]) => registry
            .get(id)
            .and_then(|s| s.sealed())
            .map(sealed_response),
        ("GET", ["watch", "events"]) => return Routed::SubscribeWatch,
        ("GET", ["sessions", id, "deltas"]) => {
            return match registry.get(id) {
                Ok(s) if !s.status().sealed => Routed::Subscribe(s),
                Ok(s) => Routed::Respond(error_response(&ServeError::Sealed { id: s.id.clone() })),
                Err(e) => Routed::Respond(error_response(&e)),
            };
        }
        ("GET", ["sessions", id]) => registry.get(id).map(|s| {
            let st = s.status();
            Response::json(
                200,
                format!(
                    "{{\"id\":\"{}\",\"state\":\"{}\",\"shards\":{},\"samples\":{},\
                     \"bytes\":{},\"queued\":{}}}",
                    s.id,
                    if st.sealed { "sealed" } else { "open" },
                    st.shards,
                    st.samples,
                    st.bytes,
                    st.queued
                ),
            )
        }),
        ("DELETE", ["sessions", id]) => {
            if registry.remove(id) {
                Ok(Response::json(200, format!("{{\"deleted\":\"{id}\"}}")))
            } else {
                Err(ServeError::UnknownSession { id: id.to_string() })
            }
        }
        _ => Err(ServeError::BadRequest {
            detail: format!("no route for {} {}", req.method, req.path),
        }),
    };
    match outcome {
        Ok(resp) => Routed::Respond(resp),
        Err(e) => Routed::Respond(error_response(&e)),
    }
}

/// `POST /sessions/{id}/shards` — admission control, then feed.
fn feed(req: &Request, registry: &Registry, id: &str) -> Result<Response, ServeError> {
    if registry.is_draining() {
        return Err(ServeError::Draining);
    }
    if req.body.is_empty() {
        return Err(ServeError::BadRequest {
            detail: "feed requires a container body".into(),
        });
    }
    let session = registry.get(id)?;
    let summary = session.feed(req.body.clone(), &registry.cfg)?;
    Ok(Response::json(
        202,
        format!(
            "{{\"shards\":{},\"samples\":{},\"queued\":{}}}",
            summary.shards, summary.samples, summary.queued
        ),
    ))
}

/// The sealed report on the wire: merged MGZP partial as the body, the
/// accumulated [`TraceMeta`](memgaze_model::TraceMeta) in
/// `X-Memgaze-*` headers — everything the client needs to `finish()`
/// bit-identically.
fn sealed_response(sealed: Arc<crate::session::SealedReport>) -> Response {
    Response::binary(200, sealed.partial_bytes.clone())
        .header("X-Memgaze-Workload", &sealed.meta.workload)
        .header("X-Memgaze-Period", sealed.meta.period)
        .header("X-Memgaze-Buffer-Bytes", sealed.meta.buffer_bytes)
        .header("X-Memgaze-Total-Loads", sealed.meta.total_loads)
        .header(
            "X-Memgaze-Instrumented-Loads",
            sealed.meta.total_instrumented_loads,
        )
        .header("X-Memgaze-Shards", sealed.shards)
        .header("X-Memgaze-Samples", sealed.samples)
}
