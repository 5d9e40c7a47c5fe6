//! A minimal, defensive HTTP/1.1 layer over `std::io`.
//!
//! The parser accepts the small slice of HTTP that `vpir serve` speaks
//! — keep-alive connections with optional pipelining, explicit
//! `Content-Length` bodies — and maps every malformed input to a
//! structured [`HttpError`] instead of a panic. The crate denies
//! clippy's panicking-call lints and sits in analyzer rule R2's scope,
//! so a hostile byte stream must never take a worker down.
//!
//! Timeout semantics are split by *where* the stall happens. The
//! connection handler arms the socket's read timeout; when a read then
//! fails with `WouldBlock`/`TimedOut`, [`ConnReader::next_request`]
//! answers by buffer state: an **empty** buffer is an idle keep-alive
//! connection going away quietly (`Ok(None)`), while **partial** bytes
//! mean a slowloris-style stall mid-request and become a `408` the
//! handler sends before closing. A worker is therefore never wedged on
//! a slow client for longer than one read timeout.

use std::io::{Read, Write};

/// Upper bound on the request line + headers (16 KiB is far beyond any
/// legitimate request this service sees).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request target path (query strings are not used by this API).
    pub path: String,
    /// Header `(name, value)` pairs in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open: HTTP/1.1
    /// unless `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// Case-insensitive header lookup (names are stored lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == want)
            .map(|(_, v)| v.as_str())
    }
}

/// A request that could not be served, with the HTTP status to answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// HTTP status code (400, 404, 405, 408, 411, 413, 500, 503, 504).
    pub status: u16,
    /// Human-readable detail, emitted in the JSON error body.
    pub message: String,
}

impl HttpError {
    /// Builds an error with the given status and detail message.
    pub fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError { status, message: message.into() }
    }
}

/// The standard reason phrase for the statuses this service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// A parsed request head: method, path, headers, and the keep-alive
/// decision derived from the version and `Connection` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// Request method, as sent.
    pub method: String,
    /// Request target path.
    pub path: String,
    /// Header pairs in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Whether the connection should stay open after this exchange.
    pub keep_alive: bool,
}

/// Parses the head (request line + headers) of a request.
///
/// Split out from the socket reader so the malformed-request table
/// tests can drive it directly on byte strings.
pub fn parse_head(text: &str) -> Result<Head, HttpError> {
    let mut lines = text.split("\r\n");
    let request_line = lines
        .next()
        .filter(|l| !l.is_empty())
        .ok_or_else(|| HttpError::new(400, "empty request line"))?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(HttpError::new(
                400,
                format!("malformed request line `{request_line}`"),
            ))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::new(400, format!("unsupported version `{version}`")));
    }
    if !path.starts_with('/') {
        return Err(HttpError::new(400, format!("bad request target `{path}`")));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, format!("malformed header line `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match version {
        "HTTP/1.1" => connection.as_deref() != Some("close"),
        _ => connection.as_deref() == Some("keep-alive"),
    };
    Ok(Head {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        keep_alive,
    })
}

/// A buffered request reader that persists across the requests of one
/// keep-alive connection, so pipelined requests queued in a single TCP
/// segment are each served in order.
#[derive(Debug)]
pub struct ConnReader<R> {
    stream: R,
    buf: Vec<u8>,
}

impl<R: Read> ConnReader<R> {
    /// Wraps a stream with an empty carry-over buffer.
    pub fn new(stream: R) -> ConnReader<R> {
        ConnReader { stream, buf: Vec::with_capacity(1024) }
    }

    /// Whether bytes from a previous read are waiting to be parsed
    /// (i.e. a pipelined request is already in flight).
    pub fn has_buffered(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Pulls one chunk from the stream into the buffer. `Ok(true)` if
    /// bytes arrived, `Ok(false)` on EOF; timeouts surface as `Err`.
    fn fill(&mut self) -> Result<bool, std::io::Error> {
        let mut chunk = [0u8; 1024];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
        Ok(n > 0)
    }

    /// Maps a failed or empty read to the protocol outcome: quiet close
    /// when the connection is idle, `408`/`400` when a request was cut
    /// off mid-flight.
    fn stall(&self, err: Option<std::io::Error>) -> Result<Option<Request>, HttpError> {
        let idle = self.buf.is_empty();
        match err {
            Some(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if idle {
                    Ok(None)
                } else {
                    Err(HttpError::new(408, "client stalled mid-request"))
                }
            }
            Some(e) => Err(HttpError::new(400, format!("read error: {e}"))),
            None if idle => Ok(None),
            None => Err(HttpError::new(400, "truncated request (connection closed mid-head)")),
        }
    }

    /// Reads the next full request.
    ///
    /// `Ok(None)` means the connection ended cleanly between requests
    /// (EOF or idle timeout with nothing buffered) — close it without a
    /// response. Bodies are accepted only with an explicit
    /// `Content-Length`; a POST without one is `411`, and a declared
    /// length over `max_body` is `413`, rejected before any body byte
    /// is read so an oversized upload cannot occupy memory.
    pub fn next_request(&mut self, max_body: usize) -> Result<Option<Request>, HttpError> {
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(HttpError::new(400, "request head too large"));
            }
            match self.fill() {
                Ok(true) => {}
                Ok(false) => return self.stall(None),
                Err(e) => return self.stall(Some(e)),
            }
        };

        let head_text = std::str::from_utf8(self.buf.get(..head_end).unwrap_or_default())
            .map_err(|_| HttpError::new(400, "request head is not UTF-8"))?;
        let head = parse_head(head_text)?;

        let declared_len = head
            .headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .map(|(_, v)| {
                v.parse::<usize>()
                    .map_err(|_| HttpError::new(400, format!("bad Content-Length `{v}`")))
            })
            .transpose()?;

        let body_len = match (head.method.as_str(), declared_len) {
            ("POST", None) => return Err(HttpError::new(411, "POST requires Content-Length")),
            ("POST", Some(n)) => n,
            (_, Some(n)) if n > 0 => {
                return Err(HttpError::new(
                    400,
                    format!("unexpected body on {}", head.method),
                ))
            }
            _ => 0,
        };
        if body_len > max_body {
            return Err(HttpError::new(
                413,
                format!("body of {body_len} bytes exceeds the {max_body}-byte limit"),
            ));
        }

        let body_start = head_end + 4;
        while self.buf.len() < body_start + body_len {
            match self.fill() {
                Ok(true) => {}
                Ok(false) => {
                    return Err(HttpError::new(
                        400,
                        "truncated request (connection closed mid-body)",
                    ))
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(HttpError::new(408, "client stalled mid-body"))
                }
                Err(e) => return Err(HttpError::new(400, format!("read error: {e}"))),
            }
        }
        // Consume exactly this request; later pipelined bytes stay
        // buffered for the next call.
        let mut frame: Vec<u8> = self.buf.drain(..body_start + body_len).collect();
        let body = frame.split_off(body_start);
        Ok(Some(Request {
            method: head.method,
            path: head.path,
            headers: head.headers,
            body,
            keep_alive: head.keep_alive,
        }))
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes a full response (status line, headers, body) and flushes.
///
/// `close` selects the `Connection:` header; the handler sets it from
/// the request's keep-alive bit, the per-connection request cap, and
/// the error class (every 4xx/5xx closes).
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        status_reason(status),
        content_type,
        body.len(),
        connection,
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(bytes: &[u8], max_body: usize) -> Result<Option<Request>, HttpError> {
        let mut reader = ConnReader::new(std::io::Cursor::new(bytes.to_vec()));
        reader.next_request(max_body)
    }

    #[test]
    fn parses_a_full_post() {
        let r = req(
            b"POST /v1/run HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
            1024,
        )
        .expect("parses")
        .expect("present");
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/run");
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.header("Content-Length"), Some("4"));
        assert_eq!(r.body, b"abcd");
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        // (raw head, expected keep_alive, case)
        let table: &[(&str, bool, &str)] = &[
            ("GET /healthz HTTP/1.1\r\n", true, "1.1 default"),
            ("GET /healthz HTTP/1.1\r\nConnection: close\r\n", false, "1.1 close"),
            ("GET /healthz HTTP/1.1\r\nConnection: Close\r\n", false, "1.1 close, mixed case"),
            ("GET /healthz HTTP/1.0\r\n", false, "1.0 default"),
            ("GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n", true, "1.0 opt-in"),
        ];
        for (raw, want, case) in table {
            let head = parse_head(raw).expect(case);
            assert_eq!(head.keep_alive, *want, "{case}");
        }
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\n\
                    POST /v1/run HTTP/1.1\r\nContent-Length: 2\r\n\r\nok\
                    GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = ConnReader::new(std::io::Cursor::new(raw.to_vec()));
        let first = reader.next_request(1024).expect("first").expect("present");
        assert_eq!(first.path, "/healthz");
        assert!(reader.has_buffered(), "second request already buffered");
        let second = reader.next_request(1024).expect("second").expect("present");
        assert_eq!(second.path, "/v1/run");
        assert_eq!(second.body, b"ok");
        let third = reader.next_request(1024).expect("third").expect("present");
        assert_eq!(third.path, "/metrics");
        assert!(!third.keep_alive);
        assert!(reader.next_request(1024).expect("eof").is_none(), "clean end of stream");
    }

    #[test]
    fn malformed_requests_map_to_the_right_status() {
        // (raw bytes, expected status, case)
        let table: &[(&[u8], u16, &str)] = &[
            (b"GET\r\n\r\n", 400, "truncated request line"),
            (b"GET /x\r\n\r\n", 400, "missing version"),
            (b"GET /x HTTP/2.0\r\n\r\n", 400, "unsupported version"),
            (b"GET x HTTP/1.1\r\n\r\n", 400, "target without leading slash"),
            (b"POST /v1/run HTTP/1.1\r\n\r\n", 411, "POST without Content-Length"),
            (
                b"POST /v1/run HTTP/1.1\r\nContent-Length: zap\r\n\r\n",
                400,
                "unparseable Content-Length",
            ),
            (
                b"POST /v1/run HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
                413,
                "declared body over the limit",
            ),
            (
                b"GET /healthz HTTP/1.1\r\nNoColonHere\r\n\r\n",
                400,
                "malformed header line",
            ),
            (b"POST /v1/run HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc", 400, "body cut short"),
            (b"GET /healthz HTT", 400, "EOF mid-head"),
        ];
        for (bytes, want, case) in table {
            let got = req(bytes, 1024);
            assert_eq!(
                got.as_ref().err().map(|e| e.status),
                Some(*want),
                "{case}: {got:?}"
            );
        }
    }

    #[test]
    fn eof_on_an_idle_connection_is_a_quiet_close() {
        assert_eq!(req(b"", 1024), Ok(None));
    }

    /// A stream that yields its script, then times out forever — the
    /// shape of a slowloris client as seen through a socket read
    /// timeout.
    struct Stalling {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for Stalling {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(std::io::Error::new(std::io::ErrorKind::TimedOut, "stalled"));
            }
            let n = out.len().min(self.data.len() - self.pos);
            let Some(src) = self.data.get(self.pos..self.pos + n) else {
                return Ok(0);
            };
            let Some(dst) = out.get_mut(..n) else {
                return Ok(0);
            };
            dst.copy_from_slice(src);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn a_stalled_partial_request_is_408_but_an_idle_stall_is_quiet() {
        // Partial head, then silence: 408.
        let mut reader = ConnReader::new(Stalling {
            data: b"GET /healthz HT".to_vec(),
            pos: 0,
        });
        assert_eq!(reader.next_request(1024).err().map(|e| e.status), Some(408));

        // Head complete, body stalled: 408.
        let mut reader = ConnReader::new(Stalling {
            data: b"POST /v1/run HTTP/1.1\r\nContent-Length: 8\r\n\r\nab".to_vec(),
            pos: 0,
        });
        assert_eq!(reader.next_request(1024).err().map(|e| e.status), Some(408));

        // Nothing buffered at all: an idle keep-alive timeout, not an error.
        let mut reader = ConnReader::new(Stalling { data: Vec::new(), pos: 0 });
        assert_eq!(reader.next_request(1024), Ok(None));
    }

    #[test]
    fn head_larger_than_the_cap_is_rejected() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 8));
        assert_eq!(req(&raw, 1024).err().map(|e| e.status), Some(400));
    }

    #[test]
    fn response_wire_format_is_exact() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            503,
            "application/json",
            &[("Retry-After", "1".to_string())],
            b"{}",
            true,
        )
        .expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(
            text,
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: 2\r\nConnection: close\r\nRetry-After: 1\r\n\r\n{}"
        );
        let mut out = Vec::new();
        write_response(&mut out, 200, "text/plain", &[], b"ok", false).expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("\r\nConnection: keep-alive\r\n"), "{text}");
    }
}
