//! Hand-rolled HTTP/1.1 subset + JSONL framing.
//!
//! The daemon speaks just enough HTTP/1.1 for `curl` and any stock
//! client library, without pulling an async stack into a std-only
//! workspace:
//!
//! * Requests: one request per connection (`Connection: close`
//!   semantics), request line + headers terminated by CRLFCRLF, body
//!   delimited by `Content-Length`. `Transfer-Encoding` on *requests* is
//!   rejected (501) — uploads are bounded and sized up front so
//!   admission control can shed oversized bodies before buffering them.
//! * Responses: either a sized body (`Content-Length`) or a
//!   `Transfer-Encoding: chunked` stream of JSONL event lines (one JSON
//!   object per chunk) so a client can watch a cold query converge.
//!
//! [`RequestParser`] is incremental: bytes arrive in arbitrary TCP
//! segments and `feed` may be called with any split of the stream — the
//! property suite in `tests/protocol_props.rs` drives every framing
//! path through adversarial split points. [`parse_response`] is the
//! matching client-side decoder used by tests, the bench harness, and
//! the CI smoke client.

use mcast_obs::json::{write_str, Value};
use std::fmt;

/// Hard ceiling on request-line + header bytes: a client that cannot
/// say what it wants in 16 KiB is not speaking this protocol.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Default ceiling on request bodies (topology uploads dominate;
/// million-edge MCTB payloads fit comfortably). Servers may lower it.
pub const DEFAULT_MAX_BODY_BYTES: usize = 256 * 1024 * 1024;

/// One parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path component, percent-decoded (`/v1/measure`).
    pub path: String,
    /// Query parameters in arrival order, percent-decoded.
    pub query: Vec<(String, String)>,
    /// Headers in arrival order; names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with this name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be framed. Each variant maps to one HTTP
/// status so the server can answer malformed clients deterministically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The request line was not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine,
    /// A header line had no `:` separator or a non-ASCII name.
    BadHeader,
    /// Request line + headers exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// `Content-Length` was present but not a decimal integer.
    BadContentLength,
    /// The declared body exceeds the server's limit.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The server's ceiling.
        limit: usize,
    },
    /// The request carried `Transfer-Encoding` (unsupported on uploads).
    UnsupportedTransferEncoding,
    /// The connection closed before the framed request completed.
    UnexpectedEof,
}

impl ProtocolError {
    /// The HTTP status this framing error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ProtocolError::BodyTooLarge { .. } => 413,
            ProtocolError::HeadTooLarge => 431,
            ProtocolError::UnsupportedTransferEncoding => 501,
            _ => 400,
        }
    }

    /// Machine-readable error code for the JSON payload.
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::BadRequestLine => "bad_request_line",
            ProtocolError::BadHeader => "bad_header",
            ProtocolError::HeadTooLarge => "head_too_large",
            ProtocolError::BadContentLength => "bad_content_length",
            ProtocolError::BodyTooLarge { .. } => "body_too_large",
            ProtocolError::UnsupportedTransferEncoding => "unsupported_transfer_encoding",
            ProtocolError::UnexpectedEof => "unexpected_eof",
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadRequestLine => write!(f, "malformed request line"),
            ProtocolError::BadHeader => write!(f, "malformed header line"),
            ProtocolError::HeadTooLarge => {
                write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            ProtocolError::BadContentLength => write!(f, "content-length is not an integer"),
            ProtocolError::BodyTooLarge { declared, limit } => {
                write!(
                    f,
                    "declared body of {declared} bytes exceeds the {limit}-byte limit"
                )
            }
            ProtocolError::UnsupportedTransferEncoding => {
                write!(f, "transfer-encoding is not supported on requests")
            }
            ProtocolError::UnexpectedEof => write!(f, "connection closed mid-request"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Incremental request parser: call [`RequestParser::feed`] with each
/// received segment; `Ok(Some(_))` once the full request (head + body)
/// has arrived. Bytes past the framed request are ignored (the server
/// answers one request per connection).
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    max_body: usize,
    /// Parsed head + how many body bytes it still needs.
    head: Option<(Request, usize)>,
    /// Where the body starts in `buf` once the head is parsed.
    body_start: usize,
}

impl RequestParser {
    /// A parser that rejects bodies larger than `max_body` bytes.
    pub fn new(max_body: usize) -> Self {
        Self {
            buf: Vec::new(),
            max_body,
            head: None,
            body_start: 0,
        }
    }

    /// Feed one received segment. Returns the completed request once
    /// everything (head and declared body) has arrived, `None` while
    /// more bytes are needed.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Option<Request>, ProtocolError> {
        self.buf.extend_from_slice(bytes);
        if self.head.is_none() {
            // Find CRLFCRLF, rescanning only the suffix that could
            // newly contain it.
            let from = self.buf.len().saturating_sub(bytes.len() + 3);
            let Some(end) = find_subslice(&self.buf[from..], b"\r\n\r\n").map(|i| from + i) else {
                if self.buf.len() > MAX_HEAD_BYTES {
                    return Err(ProtocolError::HeadTooLarge);
                }
                return Ok(None);
            };
            if end > MAX_HEAD_BYTES {
                return Err(ProtocolError::HeadTooLarge);
            }
            let head_text = std::str::from_utf8(&self.buf[..end])
                .map_err(|_| ProtocolError::BadHeader)?
                .to_string();
            let (request, body_len) = parse_head(&head_text, self.max_body)?;
            self.head = Some((request, body_len));
            self.body_start = end + 4;
        }
        let (_, body_len) = self.head.as_ref().expect("head parsed above");
        if self.buf.len() >= self.body_start + body_len {
            let (mut request, body_len) = self.head.take().expect("head parsed above");
            request.body = self.buf[self.body_start..self.body_start + body_len].to_vec();
            Ok(Some(request))
        } else {
            Ok(None)
        }
    }

    /// Signal end-of-stream: an error unless nothing was ever fed.
    pub fn finish(&self) -> Result<(), ProtocolError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ProtocolError::UnexpectedEof)
        }
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

fn parse_head(head: &str, max_body: usize) -> Result<(Request, usize), ProtocolError> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(ProtocolError::BadRequestLine)?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(ProtocolError::BadRequestLine)?;
    let target = parts.next().ok_or(ProtocolError::BadRequestLine)?;
    let version = parts.next().ok_or(ProtocolError::BadRequestLine)?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(ProtocolError::BadRequestLine);
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path).ok_or(ProtocolError::BadRequestLine)?;
    let mut query = Vec::new();
    if let Some(q) = raw_query {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.push((
                percent_decode(k).ok_or(ProtocolError::BadRequestLine)?,
                percent_decode(v).ok_or(ProtocolError::BadRequestLine)?,
            ));
        }
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or(ProtocolError::BadHeader)?;
        let name = name.trim();
        if name.is_empty() || !name.is_ascii() {
            return Err(ProtocolError::BadHeader);
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    let request = Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(ProtocolError::UnsupportedTransferEncoding);
    }
    let body_len = match request.header("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ProtocolError::BadContentLength)?,
        None => 0,
    };
    if body_len > max_body {
        return Err(ProtocolError::BodyTooLarge {
            declared: body_len,
            limit: max_body,
        });
    }
    Ok((request, body_len))
}

/// Decode `%XX` escapes and `+` (as space); `None` on truncated or
/// non-hex escapes or invalid UTF-8.
fn percent_decode(s: &str) -> Option<String> {
    if !s.contains('%') && !s.contains('+') {
        return Some(s.to_string());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hi = (hex[0] as char).to_digit(16)?;
                let lo = (hex[1] as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// Reason phrase for the status codes this server emits.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Frame a sized (non-streaming) response.
pub fn unary_response(
    code: u16,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        status_text(code),
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// Head of a chunked (streaming) response; follow with [`chunk`] frames
/// and a final [`CHUNK_END`].
pub fn chunked_head(code: u16, content_type: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        status_text(code)
    )
    .into_bytes()
}

/// One chunk frame (hex length, CRLF, data, CRLF). Empty input framing
/// is the terminator's job — use [`CHUNK_END`] for that.
pub fn chunk(data: &[u8]) -> Vec<u8> {
    let mut out = format!("{:x}\r\n", data.len()).into_bytes();
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
    out
}

/// The chunked-stream terminator.
pub const CHUNK_END: &[u8] = b"0\r\n\r\n";

/// A decoded response (client side: tests, bench, CI smoke client).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers, lower-cased names.
    pub headers: Vec<(String, String)>,
    /// The de-chunked (or sized) body.
    pub body: Vec<u8>,
    /// Individual chunk payloads when the response was chunked.
    pub chunks: Option<Vec<Vec<u8>>>,
}

impl ParsedResponse {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }

    /// The body as JSONL lines (streamed responses emit one JSON object
    /// per line).
    pub fn jsonl_lines(&self) -> Vec<&str> {
        std::str::from_utf8(&self.body)
            .ok()
            .map(|text| text.lines().filter(|l| !l.trim().is_empty()).collect())
            .unwrap_or_default()
    }
}

/// Decode a complete response byte stream (read until connection
/// close). Handles sized and chunked bodies.
pub fn parse_response(bytes: &[u8]) -> Result<ParsedResponse, ProtocolError> {
    let head_end = find_subslice(bytes, b"\r\n\r\n").ok_or(ProtocolError::UnexpectedEof)?;
    let head = std::str::from_utf8(&bytes[..head_end]).map_err(|_| ProtocolError::BadHeader)?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or(ProtocolError::BadRequestLine)?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().ok_or(ProtocolError::BadRequestLine)?;
    if !version.starts_with("HTTP/1.") {
        return Err(ProtocolError::BadRequestLine);
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(ProtocolError::BadRequestLine)?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or(ProtocolError::BadHeader)?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let after_head = &bytes[head_end + 4..];
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    if chunked {
        let mut body = Vec::new();
        let mut chunks = Vec::new();
        let mut rest = after_head;
        loop {
            let line_end = find_subslice(rest, b"\r\n").ok_or(ProtocolError::UnexpectedEof)?;
            let len_text =
                std::str::from_utf8(&rest[..line_end]).map_err(|_| ProtocolError::BadHeader)?;
            let len = usize::from_str_radix(len_text.trim(), 16)
                .map_err(|_| ProtocolError::BadContentLength)?;
            rest = &rest[line_end + 2..];
            if len == 0 {
                break;
            }
            let data = rest.get(..len).ok_or(ProtocolError::UnexpectedEof)?;
            body.extend_from_slice(data);
            chunks.push(data.to_vec());
            rest = rest.get(len + 2..).ok_or(ProtocolError::UnexpectedEof)?;
        }
        Ok(ParsedResponse {
            status,
            headers,
            body,
            chunks: Some(chunks),
        })
    } else {
        let len = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .map(|(_, v)| {
                v.parse::<usize>()
                    .map_err(|_| ProtocolError::BadContentLength)
            })
            .transpose()?
            .unwrap_or(after_head.len());
        let body = after_head.get(..len).ok_or(ProtocolError::UnexpectedEof)?;
        Ok(ParsedResponse {
            status,
            headers,
            body: body.to_vec(),
            chunks: None,
        })
    }
}

/// Render the structured error payload every non-2xx answer carries:
///
/// ```json
/// {"error":{"status":429,"code":"quota_exhausted","message":"…",…}}
/// ```
///
/// `extra` fields are appended inside the `error` object — the partial-
/// failure mapping uses them for `completed` and per-group coordinates.
pub fn error_body(status: u16, code: &str, message: &str, extra: &[(&str, Value)]) -> String {
    let mut out = String::with_capacity(96 + message.len());
    out.push_str("{\"error\":{\"status\":");
    out.push_str(&status.to_string());
    out.push_str(",\"code\":");
    write_str(&mut out, code);
    out.push_str(",\"message\":");
    write_str(&mut out, message);
    for (k, v) in extra {
        out.push(',');
        write_str(&mut out, k);
        out.push(':');
        v.write(&mut out);
    }
    out.push_str("}}");
    out
}

/// Encode a request (client side). `headers` should not include
/// `Content-Length` — it is derived from `body`.
pub fn encode_request(
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Vec<u8> {
    let mut head = format!("{method} {target} HTTP/1.1\r\n");
    for (k, v) in headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    if !body.is_empty() || method == "POST" || method == "PUT" {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_all(raw: &[u8], max_body: usize) -> Result<Option<Request>, ProtocolError> {
        let mut p = RequestParser::new(max_body);
        p.feed(raw)
    }

    #[test]
    fn parses_a_minimal_get() {
        let req = feed_all(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n", 1024)
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/health");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_query_and_percent_escapes() {
        let req = feed_all(
            b"GET /v1/topo?name=a%20b&stream=1&flag HTTP/1.1\r\n\r\n",
            1024,
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.query_param("name"), Some("a b"));
        assert_eq!(req.query_param("stream"), Some("1"));
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.query_param("missing"), None);
    }

    #[test]
    fn body_arrives_across_arbitrary_splits() {
        let raw = b"POST /v1/measure HTTP/1.1\r\nContent-Length: 11\r\nX-Client-Id: c1\r\n\r\nhello world";
        for split in 0..raw.len() {
            let mut p = RequestParser::new(1024);
            let first = p.feed(&raw[..split]).unwrap();
            if let Some(req) = first {
                assert_eq!(req.body, b"hello world");
                continue;
            }
            let req = p.feed(&raw[split..]).unwrap().expect("complete");
            assert_eq!(req.method, "POST");
            assert_eq!(req.header("x-client-id"), Some("c1"));
            assert_eq!(req.body, b"hello world");
        }
    }

    #[test]
    fn rejects_malformed_frames() {
        assert_eq!(
            feed_all(b"BROKEN\r\n\r\n", 64).unwrap_err(),
            ProtocolError::BadRequestLine
        );
        assert_eq!(
            feed_all(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n", 64).unwrap_err(),
            ProtocolError::BadHeader
        );
        assert_eq!(
            feed_all(b"GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 64).unwrap_err(),
            ProtocolError::BadContentLength
        );
        assert_eq!(
            feed_all(b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 64).unwrap_err(),
            ProtocolError::UnsupportedTransferEncoding
        );
        let err = feed_all(b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n", 64).unwrap_err();
        assert_eq!(
            err,
            ProtocolError::BodyTooLarge {
                declared: 100,
                limit: 64
            }
        );
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn oversized_head_is_rejected_even_unterminated() {
        let mut p = RequestParser::new(64);
        let garbage = vec![b'a'; MAX_HEAD_BYTES + 10];
        assert_eq!(p.feed(&garbage).unwrap_err(), ProtocolError::HeadTooLarge);
    }

    #[test]
    fn unary_response_round_trips() {
        let raw = unary_response(200, "application/json", b"{\"ok\":true}", &[("X-A", "b")]);
        let resp = parse_response(&raw).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.header("x-a"), Some("b"));
        assert_eq!(resp.body, b"{\"ok\":true}");
        assert!(resp.chunks.is_none());
    }

    #[test]
    fn chunked_response_round_trips() {
        let mut raw = chunked_head(200, "application/x-jsonl");
        raw.extend_from_slice(&chunk(b"{\"ev\":\"a\"}\n"));
        raw.extend_from_slice(&chunk(b"{\"ev\":\"b\"}\n"));
        raw.extend_from_slice(CHUNK_END);
        let resp = parse_response(&raw).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.chunks.as_ref().unwrap().len(), 2);
        assert_eq!(resp.jsonl_lines(), vec!["{\"ev\":\"a\"}", "{\"ev\":\"b\"}"]);
    }

    #[test]
    fn error_body_is_valid_json_with_extras() {
        let body = error_body(
            429,
            "quota_exhausted",
            "client `c1` is out of tokens",
            &[("retry_after_ms", Value::U64(250))],
        );
        let v = mcast_obs::json::parse(&body).unwrap();
        let e = v.get("error").unwrap();
        assert_eq!(e.get("status").unwrap().as_u64(), Some(429));
        assert_eq!(e.get("code").unwrap().as_str(), Some("quota_exhausted"));
        assert_eq!(e.get("retry_after_ms").unwrap().as_u64(), Some(250));
    }
}
