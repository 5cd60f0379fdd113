//! In-process HTTP client harness.
//!
//! Tests, the CI smoke, and the bench driver all speak to the server
//! through this client — over real sockets, through the real parser —
//! so the bit-identity proof covers the wire format, not just the
//! session logic. Each request uses a fresh connection; uploads can be
//! sent either with `Content-Length` or as `chunked` transfer in any
//! chunk size, which is how the chunking axis of the equivalence matrix
//! is driven.

use crate::http::unhex;
use crate::session::SealedReport;
use memgaze_model::TraceMeta;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A parsed response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Blocking client bound to one server address.
#[derive(Debug, Clone, Copy)]
pub struct Client {
    addr: SocketAddr,
}

impl Client {
    /// A client for the server at `addr`.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr }
    }

    /// Send one request on a fresh connection. `chunk` switches the
    /// body to chunked transfer encoding with the given chunk size.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
        chunk: Option<usize>,
    ) -> std::io::Result<HttpResponse> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        write_request(&mut stream, method, path, body, chunk)?;
        read_response(&mut BufReader::new(stream))
    }

    /// `POST /sessions` → new session id.
    pub fn create_session(&self) -> Result<String, String> {
        let resp = self
            .request("POST", "/sessions", &[], None)
            .map_err(|e| e.to_string())?;
        if resp.status != 201 {
            return Err(format!("create: status {}: {}", resp.status, resp.text()));
        }
        json_str_field(&resp.text(), "id").ok_or_else(|| "create: no id in response".to_string())
    }

    /// Feed one container upload, optionally chunked.
    pub fn feed(
        &self,
        id: &str,
        container: &[u8],
        chunk: Option<usize>,
    ) -> std::io::Result<HttpResponse> {
        self.request("POST", &format!("/sessions/{id}/shards"), container, chunk)
    }

    /// Seal and pull the report: merged partial from the body, metadata
    /// from the `X-Memgaze-*` headers.
    pub fn seal(&self, id: &str) -> Result<SealedReport, String> {
        let resp = self
            .request("POST", &format!("/sessions/{id}/seal"), &[], None)
            .map_err(|e| e.to_string())?;
        if resp.status != 200 {
            return Err(format!("seal: status {}: {}", resp.status, resp.text()));
        }
        sealed_from_response(&resp)
    }

    /// Subscribe to a session's delta stream; returns the raw SSE
    /// events `(event, data)` read until the server closes the stream.
    pub fn subscribe_collect(&self, id: &str) -> std::io::Result<SseCollector> {
        self.sse_collect(&format!("/sessions/{id}/deltas"))
    }

    /// Subscribe to the server-wide watch stream (`GET /watch/events`):
    /// rolling-window reports and anomaly marks from every session.
    pub fn watch_collect(&self) -> std::io::Result<SseCollector> {
        self.sse_collect("/watch/events")
    }

    fn sse_collect(&self, path: &str) -> std::io::Result<SseCollector> {
        let mut stream = TcpStream::connect(self.addr)?;
        write_request(&mut stream, "GET", path, &[], None)?;
        let mut reader = BufReader::new(stream);
        // Consume the response head; events follow until EOF.
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            if line == "\r\n" || line == "\n" {
                break;
            }
        }
        Ok(SseCollector { reader })
    }
}

/// Incremental reader over an open SSE stream.
pub struct SseCollector {
    reader: BufReader<TcpStream>,
}

impl SseCollector {
    /// Read events until the server closes the stream.
    pub fn collect(mut self) -> Vec<(String, String)> {
        let mut events = Vec::new();
        let mut event = String::new();
        let mut data = String::new();
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let line = line.trim_end();
            if line.is_empty() {
                if !event.is_empty() || !data.is_empty() {
                    events.push((std::mem::take(&mut event), std::mem::take(&mut data)));
                }
            } else if let Some(v) = line.strip_prefix("event: ") {
                event = v.to_string();
            } else if let Some(v) = line.strip_prefix("data: ") {
                data = v.to_string();
            }
        }
        events
    }
}

/// Write a request, with either `Content-Length` or chunked transfer,
/// as one write however many chunks the body is cut into.
fn write_request(
    w: &mut impl Write,
    method: &str,
    path: &str,
    body: &[u8],
    chunk: Option<usize>,
) -> std::io::Result<()> {
    // A chunk costs its size in hex and two CRLFs on top of its bytes.
    let chunks = chunk.map_or(0, |size| body.len().div_ceil(size.max(1)));
    let mut wire = Vec::with_capacity(128 + path.len() + body.len() + chunks * 12);
    match chunk {
        Some(size) if !body.is_empty() => {
            write!(
                wire,
                "{method} {path} HTTP/1.1\r\nHost: memgaze\r\nTransfer-Encoding: chunked\r\n\r\n"
            )?;
            for piece in body.chunks(size.max(1)) {
                write!(wire, "{:x}\r\n", piece.len())?;
                wire.extend_from_slice(piece);
                wire.extend_from_slice(b"\r\n");
            }
            wire.extend_from_slice(b"0\r\n\r\n");
        }
        _ => {
            write!(
                wire,
                "{method} {path} HTTP/1.1\r\nHost: memgaze\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )?;
            wire.extend_from_slice(body);
        }
    }
    w.write_all(&wire)?;
    w.flush()
}

/// Read one response: status line, headers, `Content-Length` body.
fn read_response(r: &mut BufReader<TcpStream>) -> std::io::Result<HttpResponse> {
    let bad = |d: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, d.to_string());
    let mut line = String::new();
    r.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(&format!("bad status line {line:?}")))?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("eof in headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// Pull a `"key":"value"` string field out of a flat JSON object — all
/// this client ever needs to parse.
pub fn json_str_field(json: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = json.find(&marker)? + marker.len();
    let rest = &json[start..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Reconstruct a [`SealedReport`] from a seal/report response.
pub fn sealed_from_response(resp: &HttpResponse) -> Result<SealedReport, String> {
    let num = |name: &str| -> Result<u64, String> {
        resp.header(name)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("missing or bad header {name}"))
    };
    let meta = TraceMeta {
        workload: resp
            .header("x-memgaze-workload")
            .unwrap_or_default()
            .to_string(),
        period: num("x-memgaze-period")?,
        buffer_bytes: num("x-memgaze-buffer-bytes")?,
        total_loads: num("x-memgaze-total-loads")?,
        total_instrumented_loads: num("x-memgaze-instrumented-loads")?,
    };
    Ok(SealedReport {
        partial_bytes: resp.body.clone(),
        meta,
        shards: num("x-memgaze-shards")?,
        samples: num("x-memgaze-samples")?,
    })
}

/// Decode the `partial` hex field of a `shard` delta event.
pub fn delta_partial_bytes(data: &str) -> Option<Vec<u8>> {
    unhex(&json_str_field(data, "partial")?)
}
