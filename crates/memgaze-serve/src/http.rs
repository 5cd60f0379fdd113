//! A deliberately small HTTP/1.1 implementation over [`std::io`].
//!
//! The server speaks exactly the subset its protocol needs — request
//! line, headers, `Content-Length` and `chunked` bodies, keep-alive —
//! with hard caps on header and body size so a hostile peer cannot make
//! a handler allocate unboundedly. No external dependency, same as the
//! rest of the workspace's infrastructure crates.

use std::io::{BufRead, Read, Write};

/// Upper bound on the request line plus all headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on header count.
const MAX_HEADERS: usize = 64;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Request target as sent (no query parsing; the protocol is
    /// path-shaped).
    pub path: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Decoded body (empty when the request had none).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before sending a request line —
    /// the normal end of a keep-alive connection.
    Closed,
    /// The bytes on the wire were not HTTP we understand.
    Malformed(String),
    /// The head or body exceeded a hard cap.
    TooLarge {
        /// The cap that was exceeded, in bytes.
        limit: usize,
    },
    /// The socket failed mid-request (disconnect, timeout).
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Malformed(d) => write!(f, "malformed request: {d}"),
            HttpError::TooLarge { limit } => write!(f, "request exceeds {limit} bytes"),
            HttpError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Read one CRLF- (or bare-LF-) terminated line, bounding total bytes.
fn read_line(r: &mut impl BufRead, budget: &mut usize) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        let n = r.read(&mut byte)?;
        if n == 0 {
            if line.is_empty() {
                return Err(HttpError::Closed);
            }
            return Err(HttpError::Malformed("eof mid-line".into()));
        }
        *budget = budget.checked_sub(1).ok_or(HttpError::TooLarge {
            limit: MAX_HEAD_BYTES,
        })?;
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| HttpError::Malformed("non-utf8 header line".into()));
        }
        line.push(byte[0]);
    }
}

/// Append exactly `n` body bytes to `body`, or fail as truncated.
fn read_body(r: &mut impl BufRead, n: usize, body: &mut Vec<u8>) -> Result<(), HttpError> {
    let got = r.by_ref().take(n as u64).read_to_end(body)?;
    if got != n {
        return Err(HttpError::Malformed(format!(
            "body truncated: got {got} of {n} bytes"
        )));
    }
    Ok(())
}

/// Decode a `Transfer-Encoding: chunked` body, bounded by `max_body`.
fn read_chunked_body(r: &mut impl BufRead, max_body: usize) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    loop {
        let mut size_budget = 128usize;
        let size_line = read_line(r, &mut size_budget)?;
        let size_hex = size_line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_hex, 16)
            .map_err(|_| HttpError::Malformed(format!("bad chunk size {size_hex:?}")))?;
        if size == 0 {
            // Trailer section: zero or more header lines, then a blank.
            loop {
                let mut budget = 1024usize;
                if read_line(r, &mut budget)?.is_empty() {
                    return Ok(body);
                }
            }
        }
        if size > max_body.saturating_sub(body.len()) {
            return Err(HttpError::TooLarge { limit: max_body });
        }
        read_body(r, size, &mut body)?;
        let mut crlf_budget = 8usize;
        if !read_line(r, &mut crlf_budget)?.is_empty() {
            return Err(HttpError::Malformed("missing chunk terminator".into()));
        }
    }
}

/// Read one request. `Ok(None)` is never returned — a cleanly closed
/// idle connection surfaces as [`HttpError::Closed`], which callers
/// treat as the end of keep-alive, not a fault.
pub fn read_request(r: &mut impl BufRead, max_body: usize) -> Result<Request, HttpError> {
    let mut head_budget = MAX_HEAD_BYTES;
    let request_line = read_line(r, &mut head_budget)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line without target".into()))?
        .to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("version {version:?}")));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(r, &mut head_budget)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge {
                limit: MAX_HEAD_BYTES,
            });
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without colon: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut req = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    let chunked = req
        .header("transfer-encoding")
        .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"));
    if chunked {
        req.body = read_chunked_body(r, max_body)?;
    } else if let Some(len) = req.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {len:?}")))?;
        if len > max_body {
            return Err(HttpError::TooLarge { limit: max_body });
        }
        read_body(r, len, &mut req.body)?;
    }
    Ok(req)
}

/// A response under construction.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the computed `Content-Length`.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

/// Reason phrase for the handful of status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

impl Response {
    /// An empty response with this status.
    pub fn new(status: u16) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A JSON response (the caller supplies ready-rendered JSON).
    pub fn json(status: u16, body: String) -> Response {
        Response::new(status)
            .header("Content-Type", "application/json")
            .with_body(body.into_bytes())
    }

    /// A binary (`application/octet-stream`) response.
    pub fn binary(status: u16, body: Vec<u8>) -> Response {
        Response::new(status)
            .header("Content-Type", "application/octet-stream")
            .with_body(body)
    }

    /// Append a header.
    pub fn header(mut self, name: &str, value: impl std::fmt::Display) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Set the body.
    pub fn with_body(mut self, body: Vec<u8>) -> Response {
        self.body = body;
        self
    }

    /// Serialize onto the wire with a correct `Content-Length`, as one
    /// write: on a `TCP_NODELAY` socket every write is a segment and a
    /// wake-up of the peer's reader.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let head: usize = self
            .headers
            .iter()
            .map(|(n, v)| n.len() + v.len() + 4)
            .sum();
        let mut wire = Vec::with_capacity(96 + head + self.body.len());
        write!(wire, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status))?;
        for (name, value) in &self.headers {
            write!(wire, "{name}: {value}\r\n")?;
        }
        write!(wire, "Content-Length: {}\r\n\r\n", self.body.len())?;
        wire.extend_from_slice(&self.body);
        w.write_all(&wire)?;
        w.flush()
    }
}

/// Lower-case hex of `bytes` (delta frames travel inside JSON lines).
pub fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[usize::from(b >> 4)] as char);
        out.push(DIGITS[usize::from(b & 0xf)] as char);
    }
    out
}

/// Inverse of [`hex`]; `None` on odd length or non-hex digits.
pub fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.as_bytes()
        .chunks(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            Some((hi * 16 + lo) as u8)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw), 1 << 20)
    }

    #[test]
    fn parses_content_length_body() {
        let req =
            parse(b"POST /sessions HTTP/1.1\r\nContent-Length: 5\r\nX-K: v\r\n\r\nhello").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sessions");
        assert_eq!(req.header("x-k"), Some("v"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_chunked_body() {
        let raw = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    4\r\nwiki\r\n5\r\npedia\r\n0\r\n\r\n";
        let req = parse(raw).unwrap();
        assert_eq!(req.body, b"wikipedia");
    }

    #[test]
    fn rejects_oversized_bodies_typed() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        match read_request(&mut BufReader::new(&raw[..]), 1024) {
            Err(HttpError::TooLarge { limit }) => assert_eq!(limit, 1024),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        let raw = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nffffff\r\n";
        assert!(matches!(
            read_request(&mut BufReader::new(&raw[..]), 1024),
            Err(HttpError::TooLarge { .. })
        ));
    }

    #[test]
    fn chunk_size_that_overflows_the_running_total_is_too_large() {
        let raw = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    1\r\na\r\nffffffffffffffff\r\n";
        assert!(matches!(
            read_request(&mut BufReader::new(&raw[..]), 1024),
            Err(HttpError::TooLarge { limit: 1024 })
        ));
    }

    #[test]
    fn truncated_chunk_is_malformed() {
        let raw = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nwiki\r\n5\r\npe";
        assert!(matches!(parse(raw), Err(HttpError::Malformed(_))));
    }

    /// Counts the writes that reach the socket.
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write() {
        let mut w = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        Response::binary(200, vec![7u8; 40_000])
            .header("X-Memgaze-Shards", 3)
            .header("Connection", "keep-alive")
            .write_to(&mut w)
            .unwrap();
        assert_eq!(w.writes, 1);
        let head = b"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\
                     X-Memgaze-Shards: 3\r\nConnection: keep-alive\r\nContent-Length: 40000\r\n\r\n";
        assert_eq!(&w.bytes[..head.len()], head);
        assert_eq!(w.bytes.len(), head.len() + 40_000);
    }

    #[test]
    fn clean_eof_is_closed_not_malformed() {
        assert!(matches!(parse(b""), Err(HttpError::Closed)));
    }

    #[test]
    fn truncated_body_is_malformed() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nhi";
        assert!(matches!(parse(raw), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn response_roundtrips_on_the_wire() {
        let mut wire = Vec::new();
        Response::json(201, "{\"id\":\"s1\"}".into())
            .header("Retry-After", 2)
            .write_to(&mut wire)
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 201 Created\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.ends_with("{\"id\":\"s1\"}"));
    }

    #[test]
    fn hex_roundtrips() {
        let data = [0u8, 1, 0xab, 0xff, 0x10];
        assert_eq!(unhex(&hex(&data)).unwrap(), data);
        assert_eq!(unhex("zz"), None);
        assert_eq!(unhex("abc"), None);
    }
}
