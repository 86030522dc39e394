//! A deliberately small HTTP/1.1 server-side protocol layer.
//!
//! `std::net` gives us TCP; this module adds just enough HTTP on top for
//! the daemon's JSON API: request-line + header parsing with hard caps,
//! `Content-Length` bodies bounded by the server's configured maximum,
//! and response serialization.
//!
//! Parsing is incremental: a [`RequestBuffer`] accumulates bytes as the
//! event loop reads them and [`RequestBuffer::try_parse`] peels complete requests off the front,
//! preserving any leftover bytes for the next request on the same
//! connection — the foundation of HTTP/1.1 keep-alive and pipelining.
//! The header-terminator scan resumes where the previous chunk left off,
//! so a head trickled in byte-wise costs O(n), not O(n²).
//!
//! Responses carry an explicit [`Response::close`] flag: protocol-level
//! failures (malformed framing, timeouts, oversized bodies, shed
//! connections) always close because request framing can no longer be
//! trusted, while routed responses — errors included — keep the connection
//! open when the client asked for keep-alive.

use std::fmt;

use crate::json::Json;

/// Upper bound on request line + headers, bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The request target as sent (path plus optional query).
    pub target: String,
    /// Header name/value pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
    /// Whether the client asked to reuse the connection: HTTP/1.1 defaults
    /// to keep-alive unless `Connection: close` was sent; HTTP/1.0 defaults
    /// to close unless `Connection: keep-alive` was sent.
    pub keep_alive: bool,
}

impl Request {
    /// The path component of the target (query string stripped).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes on the wire are not valid HTTP.
    BadRequest(String),
    /// The declared body exceeds the server's limit.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "body too large: {declared} bytes (limit {limit})")
            }
        }
    }
}

/// Finds the `\r\n\r\n` head terminator at or after `from`.
fn find_terminator(bytes: &[u8], from: usize) -> Option<usize> {
    bytes
        .get(from..)?
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|pos| pos + from)
}

/// Accumulated inbound bytes for one connection, with incremental request
/// parsing. Bytes beyond the first complete request stay buffered — they
/// are the start of the next pipelined request, not garbage to truncate.
#[derive(Debug, Default)]
pub struct RequestBuffer {
    buf: Vec<u8>,
    /// Resume point for the head-terminator scan: every position before
    /// this index is known not to start `\r\n\r\n`. Without it, each
    /// arriving chunk would rescan the whole accumulated head
    /// (`windows(4).position` from zero) — O(n²) on a 16 KiB header
    /// trickled byte-wise.
    scanned: usize,
    /// Cached terminator position once found, so chunks that merely grow
    /// the body do not re-scan (or re-parse) the head.
    head_end: Option<usize>,
}

impl RequestBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether any unconsumed bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Buffered, unconsumed bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Tries to parse one complete request off the front of the buffer.
    /// Returns `Ok(None)` when more bytes are needed. On success the
    /// consumed bytes are drained and any leftover (the next pipelined
    /// request) is preserved.
    ///
    /// # Errors
    ///
    /// [`HttpError::BadRequest`] on malformed framing,
    /// [`HttpError::BodyTooLarge`] when the declared `Content-Length`
    /// exceeds `max_body`. After an error the buffer contents are
    /// unspecified and the connection must be closed.
    pub fn try_parse(&mut self, max_body: usize) -> Result<Option<Request>, HttpError> {
        let split = match self.head_end {
            Some(pos) => pos,
            None => match find_terminator(&self.buf, self.scanned) {
                Some(pos) => {
                    if pos > MAX_HEAD_BYTES {
                        return Err(HttpError::BadRequest("headers too large".into()));
                    }
                    self.head_end = Some(pos);
                    pos
                }
                None => {
                    // The terminator may straddle the next chunk boundary,
                    // so the last three bytes stay unscanned.
                    self.scanned = self.buf.len().saturating_sub(3);
                    if self.buf.len() > MAX_HEAD_BYTES {
                        return Err(HttpError::BadRequest("headers too large".into()));
                    }
                    return Ok(None);
                }
            },
        };
        let head_text = std::str::from_utf8(&self.buf[..split])
            .map_err(|_| HttpError::BadRequest("headers are not UTF-8".into()))?;
        let mut lines = head_text.split("\r\n");
        let request_line = lines
            .next()
            .ok_or_else(|| HttpError::BadRequest("empty request".into()))?;
        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(target), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(HttpError::BadRequest("malformed request line".into()));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::BadRequest(format!(
                "unsupported version `{version}`"
            )));
        }
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(HttpError::BadRequest(format!("malformed header `{line}`")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
        let mut request = Request {
            method: method.to_ascii_uppercase(),
            target: target.to_owned(),
            headers,
            body: Vec::new(),
            keep_alive: false,
        };
        request.keep_alive = match request.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => version != "HTTP/1.0",
        };
        let declared: usize = match request.header("content-length") {
            None => 0,
            Some(v) => v
                .parse()
                .map_err(|_| HttpError::BadRequest(format!("bad content-length `{v}`")))?,
        };
        if declared > max_body {
            return Err(HttpError::BodyTooLarge {
                declared,
                limit: max_body,
            });
        }
        let body_start = split + 4;
        let total = body_start + declared;
        if self.buf.len() < total {
            return Ok(None);
        }
        request.body = self.buf[body_start..total].to_vec();
        // Leftover bytes are the next pipelined request — keep them.
        self.buf.drain(..total);
        self.scanned = 0;
        self.head_end = None;
        Ok(Some(request))
    }
}

/// An HTTP response ready to serialize.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Whether to announce `Connection: close` and drop the connection
    /// after writing. Constructors default to `true`; the serving layer
    /// flips it for routed responses on keep-alive connections. Protocol
    /// errors (bad framing, timeouts, sheds) always keep it `true`.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: &Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: value.to_string().into_bytes(),
            close: true,
        }
    }

    /// A JSON response from pre-rendered bytes (served verbatim).
    pub fn json_bytes(status: u16, body: Vec<u8>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            close: true,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            close: true,
        }
    }

    /// A JSON error envelope `{"error": …}`.
    pub fn error(status: u16, message: impl Into<String>) -> Response {
        Response::json(status, &Json::Obj(vec![("error".into(), Json::s(message))]))
    }

    /// Serializes head + body into one buffer (what the event loop queues
    /// on a connection's write side).
    pub fn to_bytes(&self) -> Vec<u8> {
        let reason = reason_phrase(self.status);
        let connection = if self.close { "close" } else { "keep-alive" };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len(),
            connection,
        );
        let mut out = Vec::with_capacity(head.len() + self.body.len());
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(&self.body);
        out
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Feeds `bytes` in two halves, as two socket reads would deliver them
    /// (the split exercises the header/body boundary handling), and
    /// returns the first outcome that is not "need more bytes".
    fn parse_split(bytes: &[u8], max_body: usize) -> Result<Option<Request>, HttpError> {
        let mut buffer = RequestBuffer::new();
        let mid = bytes.len() / 2;
        buffer.extend(&bytes[..mid]);
        if let Some(request) = buffer.try_parse(max_body)? {
            return Ok(Some(request));
        }
        buffer.extend(&bytes[mid..]);
        buffer.try_parse(max_body)
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw =
            b"POST /v1/jobs?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 9\r\n\r\n{\"a\":1}\r\n";
        let req = parse_split(raw, 1024).unwrap().expect("complete request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/v1/jobs");
        assert_eq!(req.header("HOST"), Some("h"));
        assert_eq!(req.body, b"{\"a\":1}\r\n");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn enforces_the_body_limit() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n";
        match parse_split(raw, 10) {
            Err(HttpError::BodyTooLarge { declared, limit }) => {
                assert_eq!((declared, limit), (100, 10));
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_framing() {
        for raw in [
            &b"NOT-HTTP\r\n\r\n"[..],
            b"GET / SPDY/3\r\n\r\n",
            b"GET / HTTP/1.1\r\nbroken header\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
        ] {
            assert!(
                matches!(parse_split(raw, 1024), Err(HttpError::BadRequest(_))),
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn connection_intent_follows_version_and_header() {
        let cases: &[(&[u8], bool)] = &[
            (b"GET / HTTP/1.1\r\n\r\n", true),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
        ];
        for (raw, expect) in cases {
            let req = parse_split(raw, 1024).unwrap().expect("complete request");
            assert_eq!(req.keep_alive, *expect, "{:?}", std::str::from_utf8(raw));
        }
    }

    #[test]
    fn pipelined_requests_are_preserved_not_truncated() {
        // Regression: the old reader read `Content-Length` worth of body and
        // then `body.truncate(declared)` silently discarded any bytes of the
        // next pipelined request that had arrived in the same chunk.
        let mut buffer = RequestBuffer::new();
        buffer.extend(
            b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /b HTTP/1.1\r\nHost: h\r\n\r\n",
        );
        let first = buffer.try_parse(1024).unwrap().expect("first request");
        assert_eq!((first.method.as_str(), first.path()), ("POST", "/a"));
        assert_eq!(first.body, b"abc");
        let second = buffer.try_parse(1024).unwrap().expect("second request");
        assert_eq!((second.method.as_str(), second.path()), ("GET", "/b"));
        assert!(buffer.is_empty());
        assert!(buffer.try_parse(1024).unwrap().is_none());
    }

    /// Satellite regression: the head-terminator scan must resume where the
    /// previous chunk stopped. A large header arriving byte-by-byte (the
    /// worst case for the old full-rescan) parses correctly, including a
    /// terminator straddling chunk boundaries.
    #[test]
    fn byte_wise_chunked_arrival_parses_with_a_resumed_scan() {
        let mut head = String::from("POST /big HTTP/1.1\r\nContent-Length: 4\r\n");
        while head.len() < 12 * 1024 {
            head.push_str("X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        head.push_str("\r\nbody");
        let raw = head.as_bytes();
        let mut buffer = RequestBuffer::new();
        let mut parsed = None;
        for (i, byte) in raw.iter().enumerate() {
            buffer.extend(std::slice::from_ref(byte));
            if let Some(req) = buffer.try_parse(1024).unwrap() {
                assert_eq!(i, raw.len() - 1, "parsed before the body finished");
                parsed = Some(req);
            }
        }
        let req = parsed.expect("request completed");
        assert_eq!(req.path(), "/big");
        assert_eq!(req.body, b"body");

        // Terminator split across two extends at every offset within it.
        for cut in 1..4 {
            let raw = b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n";
            let split = raw.len() - cut;
            let mut buffer = RequestBuffer::new();
            buffer.extend(&raw[..split]);
            assert!(buffer.try_parse(1024).unwrap().is_none());
            buffer.extend(&raw[split..]);
            let req = buffer.try_parse(1024).unwrap().expect("straddled parse");
            assert_eq!(req.path(), "/x");
        }
    }

    #[test]
    fn oversized_heads_are_rejected_incrementally() {
        let mut buffer = RequestBuffer::new();
        buffer.extend(b"GET / HTTP/1.1\r\n");
        let pad = vec![b'a'; MAX_HEAD_BYTES + 8];
        buffer.extend(&pad);
        assert!(matches!(
            buffer.try_parse(1024),
            Err(HttpError::BadRequest(m)) if m.contains("headers too large")
        ));
    }

    #[test]
    fn response_serializes_with_framing() {
        let bytes =
            Response::json(200, &Json::Obj(vec![("ok".into(), Json::Bool(true))])).to_bytes();
        let text = std::str::from_utf8(&bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: close"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");
    }

    #[test]
    fn keep_alive_responses_announce_it() {
        let mut response = Response::text(200, "ok");
        response.close = false;
        let bytes = response.to_bytes();
        let text = std::str::from_utf8(&bytes).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
    }

    /// What a parsed request carries, in comparable form.
    type Parsed = (String, String, Vec<(String, String)>, Vec<u8>, bool);

    fn parsed(request: Request) -> Parsed {
        (
            request.method,
            request.target,
            request.headers,
            request.body,
            request.keep_alive,
        )
    }

    fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
        items[rng.next_below(items.len() as u64) as usize]
    }

    fn token(rng: &mut TestRng, alphabet: &[u8], max_len: u64) -> String {
        let len = 1 + rng.next_below(max_len);
        (0..len)
            .map(|_| alphabet[rng.next_below(alphabet.len() as u64) as usize] as char)
            .collect()
    }

    /// A pipelined stream of 1–5 well-formed requests (varied methods,
    /// versions, `Connection` intents, headers and binary bodies) and the
    /// parse each one must yield.
    fn pipelined_stream() -> impl Strategy<Value = (Vec<u8>, Vec<Parsed>)> {
        const NAME: &[u8] = b"abcdefghijklmnopqrstuvwxyz-";
        const VALUE: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_.:;/ ";
        const PATH: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789/?=&";
        FnStrategy(|rng: &mut TestRng| {
            let mut wire = Vec::new();
            let mut expected = Vec::new();
            for _ in 0..1 + rng.next_below(5) {
                let method = pick(rng, &["GET", "POST", "DELETE", "put"]);
                let target = format!("/{}", token(rng, PATH, 24));
                let version = pick(rng, &["HTTP/1.1", "HTTP/1.0"]);
                let mut headers = Vec::new();
                for _ in 0..rng.next_below(4) {
                    let value = token(rng, VALUE, 16).trim().to_owned();
                    headers.push((format!("x-{}", token(rng, NAME, 8)), value));
                }
                let connection = pick(rng, &["", "close", "keep-alive", "Keep-Alive"]);
                if !connection.is_empty() {
                    headers.push(("connection".to_owned(), connection.to_owned()));
                }
                let body: Vec<u8> = (0..rng.next_below(3) * rng.next_below(120))
                    .map(|_| rng.next_below(256) as u8)
                    .collect();
                if !body.is_empty() || rng.next_below(2) == 0 {
                    headers.push(("content-length".to_owned(), body.len().to_string()));
                }
                wire.extend_from_slice(format!("{method} {target} {version}\r\n").as_bytes());
                for (name, value) in &headers {
                    wire.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
                }
                wire.extend_from_slice(b"\r\n");
                wire.extend_from_slice(&body);
                let keep_alive = match connection.to_ascii_lowercase().as_str() {
                    "close" => false,
                    "keep-alive" => true,
                    _ => version == "HTTP/1.1",
                };
                expected.push((
                    method.to_ascii_uppercase(),
                    target,
                    headers,
                    body,
                    keep_alive,
                ));
            }
            (wire, expected)
        })
    }

    /// Cut points splitting `len` bytes into arbitrary chunks (single
    /// bytes through whole-stream reads).
    fn chunk_ends(rng: &mut TestRng, len: usize) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut at = 0;
        while at < len {
            let step = match rng.next_below(3) {
                0 => 1,
                1 => 1 + rng.next_below(16) as usize,
                _ => 1 + rng.next_below(len as u64) as usize,
            };
            at = (at + step).min(len);
            ends.push(at);
        }
        ends
    }

    /// Extends `buffer` chunk by chunk, draining every complete request
    /// after each chunk, as the event loop does after each read.
    fn parse_chunked(
        bytes: &[u8],
        ends: &[usize],
        max_body: usize,
    ) -> (Vec<Request>, Option<HttpError>) {
        let mut buffer = RequestBuffer::new();
        let mut requests = Vec::new();
        let mut start = 0;
        for &end in ends {
            buffer.extend(&bytes[start..end]);
            start = end;
            loop {
                match buffer.try_parse(max_body) {
                    Ok(Some(request)) => requests.push(request),
                    Ok(None) => break,
                    Err(e) => return (requests, Some(e)),
                }
            }
        }
        (requests, None)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, and valid streams with random byte flips,
        /// insertions and deletions, only ever parse or error: no input
        /// panics the parser, and no accepted body exceeds the cap.
        #[test]
        fn arbitrary_and_mutated_bytes_never_panic(
            noise in collection::vec(0u16..256, 0..600),
            (stream, _) in pipelined_stream(),
            seed in 0u64..u64::MAX,
            max_body in 0usize..200,
        ) {
            let mut rng = TestRng::from_name(&seed.to_string());
            let mut mutated = stream;
            for _ in 0..1 + rng.next_below(8) {
                let at = rng.next_below(mutated.len() as u64 + 1) as usize;
                let byte = rng.next_below(256) as u8;
                match rng.next_below(3) {
                    0 if at < mutated.len() => mutated[at] = byte,
                    1 if at < mutated.len() => {
                        mutated.remove(at);
                    }
                    _ => mutated.insert(at, byte),
                }
            }
            let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
            for bytes in [noise, mutated] {
                let ends = chunk_ends(&mut rng, bytes.len());
                let (requests, _) = parse_chunked(&bytes, &ends, max_body);
                for request in &requests {
                    prop_assert!(request.body.len() <= max_body);
                }
            }
        }

        /// A head that never terminates is rejected as soon as it passes
        /// `MAX_HEAD_BYTES`, however it trickles in: the buffer never grows
        /// past the cap plus one read while `try_parse` says "need more".
        #[test]
        fn unterminated_heads_error_past_the_cap(seed in 0u64..u64::MAX) {
            const LINE: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 :-";
            let mut rng = TestRng::from_name(&seed.to_string());
            let mut head = b"GET / HTTP/1.1\r\n".to_vec();
            while head.len() <= MAX_HEAD_BYTES + 4096 {
                // Lines are nonempty, so `\r\n\r\n` can never appear.
                head.extend(token(&mut rng, LINE, 80).bytes());
                head.extend_from_slice(b"\r\n");
            }
            prop_assert!(find_terminator(&head, 0).is_none());
            let mut buffer = RequestBuffer::new();
            let mut start = 0;
            let mut rejected = false;
            for end in chunk_ends(&mut rng, head.len()) {
                buffer.extend(&head[start..end]);
                start = end;
                match buffer.try_parse(1024) {
                    Ok(None) => prop_assert!(buffer.len() <= MAX_HEAD_BYTES),
                    Ok(Some(request)) => {
                        return Err(TestCaseError(format!("parsed {request:?}")));
                    }
                    Err(HttpError::BadRequest(m)) => {
                        prop_assert!(m.contains("headers too large"), "{m}");
                        prop_assert!(buffer.len() > MAX_HEAD_BYTES);
                        rejected = true;
                        break;
                    }
                    Err(e) => return Err(TestCaseError(format!("unexpected {e}"))),
                }
            }
            prop_assert!(rejected, "{} unterminated bytes were buffered", head.len());
        }

        /// Chunking is invisible: a valid pipelined stream delivered in
        /// arbitrary splits yields exactly the requests one-shot delivery
        /// does, in order, with nothing left over.
        #[test]
        fn chunked_delivery_matches_one_shot_delivery(
            (stream, expected) in pipelined_stream(),
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = TestRng::from_name(&seed.to_string());
            let (one_shot, error) = parse_chunked(&stream, &[stream.len()], 1024);
            prop_assert!(error.is_none(), "{error:?}");
            let one_shot: Vec<Parsed> = one_shot.into_iter().map(parsed).collect();
            prop_assert_eq!(&one_shot, &expected);
            let (chunked, error) = parse_chunked(&stream, &chunk_ends(&mut rng, stream.len()), 1024);
            prop_assert!(error.is_none(), "{error:?}");
            let chunked: Vec<Parsed> = chunked.into_iter().map(parsed).collect();
            prop_assert_eq!(&chunked, &one_shot);
        }
    }
}
