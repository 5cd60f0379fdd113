//! The daemon: listener, accept loop, request routing, graceful drain.
//!
//! The accept loop runs nonblocking on its own thread, polling a
//! shutdown flag every few milliseconds and reaping idle sessions as it
//! goes; accepted connections are handled to completion on the bounded
//! [`ThreadPool`]. Draining is a strict sequence — stop accepting, let
//! in-flight handlers finish, then seal every open session and flush
//! its deltas — so a SIGTERM'd server never loses an accepted shard.

use crate::error::ServeError;
use crate::http::{read_request, HttpError, Request, Response};
use crate::pool::ThreadPool;
use crate::session::Registry;
use crate::ServeConfig;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    registry: Arc<Registry>,
    accept_thread: Option<JoinHandle<()>>,
    pool: Option<ThreadPool>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// accepting with a pool of `threads` connection handlers.
    pub fn bind(addr: &str, cfg: ServeConfig, threads: usize) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Registry::new(cfg));
        let pool = ThreadPool::new(threads);
        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            let registry = Arc::clone(&registry);
            // The accept loop submits handler closures through a pool
            // handle; the pool itself stays owned by the Server so
            // drain can join it after accepting stops (the handle dies
            // with the accept thread, unblocking the join).
            let dispatch = pool.handle();
            std::thread::Builder::new()
                .name("memgaze-serve-accept".into())
                .spawn(move || accept_loop(listener, shutdown, registry, dispatch))?
        };
        Ok(Server {
            addr,
            shutdown,
            registry,
            accept_thread: Some(accept_thread),
            pool: Some(pool),
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

    /// A flag that, once set, initiates shutdown from any thread (the
    /// CLI's signal handler stores into it).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Graceful drain: stop accepting, finish in-flight requests, seal
    /// every open session (flushing subscriber deltas), and shut the
    /// pool down.
    pub fn drain(mut self) -> DrainReport {
        let _span = memgaze_obs::span("serve.drain");
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
        let (sessions_sealed, seal_failures) = self.registry.seal_all();
        DrainReport {
            sessions_sealed,
            seal_failures,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    registry: Arc<Registry>,
    dispatch: crate::pool::PoolHandle,
) {
    let mut since_reap = 0u32;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _span = memgaze_obs::span("serve.accept");
                memgaze_obs::counter!("serve.connections").add(1);
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(registry.cfg.read_timeout));
                let registry = Arc::clone(&registry);
                if !dispatch.execute(move || handle_connection(stream, registry)) {
                    // Pool already shut down; the stream drops and the
                    // peer sees a reset — acceptable only mid-teardown.
                    memgaze_obs::counter!("serve.dropped_connections").add(1);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
                since_reap += 1;
                // Reap idle sessions roughly every 250ms of quiet.
                if since_reap >= 50 {
                    since_reap = 0;
                    registry.reap_idle();
                }
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Serve one connection until close, error, or hand-off to SSE.
fn handle_connection(stream: TcpStream, registry: Arc<Registry>) {
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = stream;
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
        match route(&req, &registry) {
            Routed::Respond(resp) => {
                let resp = if close {
                    resp.header("Connection", "close")
                } else {
                    resp.header("Connection", "keep-alive")
                };
                if resp.write_to(&mut writer).is_err() {
                    return;
                }
                if close {
                    return;
                }
            }
            Routed::Subscribe(session) => {
                // SSE hand-off: send the stream header, then move the
                // socket into the session's subscriber list. Events are
                // written by whichever handler publishes a delta; this
                // worker goes back to the pool. If the session sealed
                // between routing and registration, `subscribe` writes
                // the final `sealed` event before the socket closes.
                let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                            Cache-Control: no-cache\r\nConnection: close\r\n\r\n";
                if std::io::Write::write_all(&mut writer, head.as_bytes()).is_err() {
                    return;
                }
                let _ = writer.set_read_timeout(None);
                let _ = session.subscribe(writer);
                return;
            }
            Routed::SubscribeWatch => {
                // Server-wide watch stream: every session's rolling
                // windows and anomaly marks until drain.
                let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                            Cache-Control: no-cache\r\nConnection: close\r\n\r\n";
                if std::io::Write::write_all(&mut writer, head.as_bytes()).is_err() {
                    return;
                }
                let _ = writer.set_read_timeout(None);
                registry.watch_hub().subscribe(writer);
                return;
            }
        }
    }
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
