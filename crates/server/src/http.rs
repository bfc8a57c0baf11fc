//! A minimal, dependency-free HTTP/1.1 subset.
//!
//! The server speaks exactly what its clients (curl, the bench harness,
//! the integration tests) need: one request per connection
//! (`Connection: close`), `Content-Length`-framed bodies, query strings
//! with percent-encoding. Chunked transfer encoding and keep-alive are
//! deliberately out of scope — rejecting them loudly beats implementing
//! them quietly wrong.
//!
//! Parsing is pure over any `BufRead`, so the whole request path is
//! testable without sockets.

use std::io::{BufRead, Write};

/// Upper bound on declared body size (64 MiB) — a million-row CSV upload
/// fits comfortably; anything larger is rejected with 413 rather than
/// buffered blindly.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Upper bound on header count, against malicious header floods.
const MAX_HEADERS: usize = 128;

/// Upper bound on one request-line or header line (8 KiB, nginx's
/// default). `read_line` alone would buffer a newline-free stream without
/// limit — the body cap never engages on the head — so head lines are
/// read through this cap.
const MAX_LINE_BYTES: usize = 8 * 1024;

/// Reads one `\n`-terminated line of at most [`MAX_LINE_BYTES`],
/// rejecting longer ones with `431` instead of buffering them.
///
/// A line must actually end in `\n`: an EOF mid-line means the head was
/// cut off (dropped connection, truncated proxy buffer), and a partial
/// line must not parse as a complete one. Most dangerously, a cut-off
/// header line would otherwise read back as the blank separator line and
/// the truncated request would be *served* instead of refused.
fn read_limited_line(reader: &mut impl BufRead) -> Result<String, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    let mut terminated = false;
    loop {
        let chunk = reader
            .fill_buf()
            .map_err(|e| HttpError::bad(format!("read error: {e}")))?;
        if chunk.is_empty() {
            break; // EOF mid-line: rejected below
        }
        let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(at) => (at + 1, true),
            None => (chunk.len(), false),
        };
        if line.len() + take > MAX_LINE_BYTES {
            return Err(HttpError {
                status: 431,
                message: format!("header line exceeds the {MAX_LINE_BYTES}-byte limit"),
            });
        }
        line.extend_from_slice(&chunk[..take]);
        reader.consume(take);
        if done {
            terminated = true;
            break;
        }
    }
    if !terminated {
        return Err(HttpError::bad("truncated request head"));
    }
    String::from_utf8(line).map_err(|_| HttpError::bad("non-UTF-8 request head"))
}

/// A parsed request: method, decoded path, decoded query pairs, headers
/// and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, … (upper-case as received).
    pub method: String,
    /// The path component of the target, percent-decoded (`/anonymize`).
    pub path: String,
    /// Query pairs in request order, percent-decoded.
    pub query: Vec<(String, String)>,
    /// Headers in request order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The raw body.
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a query parameter.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The validated `Content-Length`, when one was declared.
    ///
    /// Framing is strict because the body boundary is what separates one
    /// request from attacker-controlled trailing bytes: a *single*
    /// declaration (two headers — even agreeing ones — are the shape of
    /// a request-smuggling framing lie, where first-wins and last-wins
    /// parsers read different bodies), and DIGIT-only syntax (`usize`'s
    /// parser also accepts `+5`, which HTTP does not).
    pub fn declared_content_length(&self) -> Result<Option<usize>, HttpError> {
        let mut declared: Option<&str> = None;
        for (name, value) in &self.headers {
            if name != "content-length" {
                continue;
            }
            if let Some(first) = declared {
                return Err(HttpError::bad(format!(
                    "duplicate Content-Length headers ('{first}', '{value}')"
                )));
            }
            declared = Some(value);
        }
        let Some(len) = declared else {
            return Ok(None);
        };
        if len.is_empty() || !len.bytes().all(|b| b.is_ascii_digit()) {
            return Err(HttpError::bad(format!("bad Content-Length '{len}'")));
        }
        let len: usize = len
            .parse()
            .map_err(|_| HttpError::bad(format!("bad Content-Length '{len}'")))?;
        if len > MAX_BODY_BYTES {
            return Err(HttpError {
                status: 413,
                message: format!("body of {len} bytes exceeds the {MAX_BODY_BYTES}-byte limit"),
            });
        }
        Ok(Some(len))
    }

    /// Whether the client asked for a `100 Continue` interim before
    /// sending its body (`Expect: 100-continue` — curl's default for
    /// bodies over 1 KiB).
    pub fn expects_continue(&self) -> bool {
        self.header("expect")
            .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
    }
}

/// A request the parser refused, with the status code to answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// The HTTP status to respond with (400, 413, 501).
    pub status: u16,
    /// Human-readable reason.
    pub message: String,
}

impl HttpError {
    fn bad(message: impl Into<String>) -> Self {
        HttpError {
            status: 400,
            message: message.into(),
        }
    }
}

/// Parses one request from a stream: head plus body.
///
/// Socket callers should prefer [`parse_head`] + [`read_body`] with a
/// `100 Continue` interim in between (see
/// [`expects_continue`](Request::expects_continue)) — curl sends
/// `Expect: 100-continue` for bodies over 1 KiB and stalls ~1 s when the
/// interim never arrives.
pub fn parse_request(reader: &mut impl BufRead) -> Result<Request, HttpError> {
    let mut request = parse_head(reader)?;
    read_body(reader, &mut request)?;
    Ok(request)
}

/// Parses the request line and headers (not the body), validating the
/// framing: `Content-Length` within bounds, no chunked encoding.
pub fn parse_head(reader: &mut impl BufRead) -> Result<Request, HttpError> {
    let line = read_limited_line(reader)?;
    let line = line.trim_end_matches(['\r', '\n']);
    if line.is_empty() {
        return Err(HttpError::bad("empty request line"));
    }
    let mut parts = line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::bad("missing method"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing request target"))?;
    match parts.next() {
        Some("HTTP/1.1") | Some("HTTP/1.0") => {}
        other => {
            return Err(HttpError::bad(format!(
                "unsupported protocol {:?}",
                other.unwrap_or("")
            )))
        }
    }

    let (path, query) = split_target(target);

    let mut headers = Vec::new();
    loop {
        let header = read_limited_line(reader)?;
        let header = header.trim_end_matches(['\r', '\n']);
        if header.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::bad("too many headers"));
        }
        let (name, value) = header
            .split_once(':')
            .ok_or_else(|| HttpError::bad(format!("malformed header '{header}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let request = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
    };

    if let Some(te) = request.header("transfer-encoding") {
        return Err(HttpError {
            status: 501,
            message: format!("transfer-encoding '{te}' not supported; use Content-Length"),
        });
    }
    request.declared_content_length()?; // validate framing up front
    Ok(request)
}

/// Reads the `Content-Length`-declared body into `request.body`.
pub fn read_body(reader: &mut impl BufRead, request: &mut Request) -> Result<(), HttpError> {
    if let Some(len) = request.declared_content_length()? {
        let mut body = vec![0u8; len];
        std::io::Read::read_exact(reader, &mut body)
            .map_err(|e| HttpError::bad(format!("truncated body: {e}")))?;
        request.body = body;
    }
    Ok(())
}

/// Splits a request target into decoded path and query pairs.
///
/// `+`-as-space is an `application/x-www-form-urlencoded` convention
/// that only applies to query pairs: in the path component a `+` is a
/// literal plus (else `/datasets/a+b` would resolve as `/datasets/a b`
/// and a space-named resource would shadow a plus-named one).
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (decode_component(target, false), Vec::new()),
        Some((path, query)) => {
            let pairs = query
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(pair), String::new()),
                })
                .collect();
            (decode_component(path, false), pairs)
        }
    }
}

/// Decodes `%XX` escapes and `+`-as-space — the form-urlencoded (query
/// pair) convention. Path components go through the same decoder with
/// `+` kept literal. Invalid escapes pass through literally; invalid
/// UTF-8 is replaced.
pub fn percent_decode(s: &str) -> String {
    decode_component(s, true)
}

fn decode_component(s: &str, plus_as_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex(bytes.get(i + 1)), hex(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex(b: Option<&u8>) -> Option<u8> {
    (*b? as char).to_digit(16).map(|d| d as u8)
}

/// A response ready to serialize: status, content type and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (name, value), written after the standard
    /// ones. Used for `X-Ldiv-Trace-Id`.
    pub headers: Vec<(&'static str, String)>,
    /// The body text.
    pub body: String,
    /// A binary body, when one replaces `body` (negotiated
    /// `application/x-ldiv-bin` responses). `None` for every text
    /// response; when `Some`, `body` is empty and these bytes are what
    /// gets framed and written.
    pub bytes: Option<Vec<u8>>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
            bytes: None,
        }
    }

    /// A plain-text response in the Prometheus exposition content type
    /// (`GET /metrics`).
    pub fn metrics_text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
            bytes: None,
        }
    }

    /// Converts this response into a binary-bodied one
    /// (`application/x-ldiv-bin`), keeping status and extra headers.
    pub fn into_binary(mut self, bytes: Vec<u8>) -> Self {
        self.content_type = "application/x-ldiv-bin";
        self.body = String::new();
        self.bytes = Some(bytes);
        self
    }

    /// Builder-style extra header. The value must be a valid header
    /// value (no CR/LF); callers only pass generated tokens.
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.headers.push((name, value));
        self
    }

    /// The standard reason phrase for the status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// Serializes the response (always `Connection: close`).
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let payload = self.bytes.as_deref().unwrap_or(self.body.as_bytes());
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason(),
            self.content_type,
            payload.len()
        )?;
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(payload)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(text: &str) -> Result<Request, HttpError> {
        parse_request(&mut Cursor::new(text.as_bytes().to_vec()))
    }

    #[test]
    fn parses_request_line_query_headers_and_body() {
        let req = parse(
            "POST /anonymize?algo=tp%2B&l=3&note=a+b HTTP/1.1\r\n\
             Host: x\r\nContent-Length: 4\r\n\r\nBODY",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/anonymize");
        assert_eq!(req.query_param("algo"), Some("tp+"));
        assert_eq!(req.query_param("l"), Some("3"));
        assert_eq!(req.query_param("note"), Some("a b"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"BODY");
    }

    #[test]
    fn rejects_garbage_chunked_and_oversized() {
        assert_eq!(parse("").unwrap_err().status, 400);
        assert_eq!(parse("GET\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET / SPDY/9\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap_err()
                .status,
            501
        );
        assert_eq!(
            parse(&format!(
                "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            ))
            .unwrap_err()
            .status,
            413
        );
        // Declared length longer than the stream.
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn oversized_head_lines_get_431_not_unbounded_buffering() {
        // A newline-free flood: rejected once the line cap is hit, long
        // before the stream is exhausted.
        let flood = "G".repeat(MAX_LINE_BYTES * 4);
        assert_eq!(parse(&flood).unwrap_err().status, 431);
        // Same for one absurd header line.
        let long_header = format!(
            "GET / HTTP/1.1\r\nx: {}\r\n\r\n",
            "v".repeat(MAX_LINE_BYTES)
        );
        assert_eq!(parse(&long_header).unwrap_err().status, 431);
        // A line just under the cap is fine.
        let ok = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(1024));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn head_body_split_supports_expect_continue() {
        let text = "POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 4\r\n\r\nBODY";
        let mut reader = Cursor::new(text.as_bytes().to_vec());
        let mut request = parse_head(&mut reader).unwrap();
        assert!(request.expects_continue());
        assert!(request.body.is_empty());
        // The interim would be written here; then the body is read.
        read_body(&mut reader, &mut request).unwrap();
        assert_eq!(request.body, b"BODY");

        let plain = parse("GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(!plain.expects_continue());
    }

    #[test]
    fn percent_decoding_is_lenient() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn duplicate_or_conflicting_content_length_is_rejected() {
        // Conflicting declarations: a first-wins parser would frame a
        // 4-byte body and leave 8 attacker bytes on the stream.
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 12\r\n\r\nBODYBODYBODY")
                .unwrap_err()
                .status,
            400
        );
        // Even agreeing duplicates are refused: intermediaries disagree
        // on how to merge them, so one declaration is the only safe form.
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nBODY")
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn content_length_must_be_digits_only() {
        // `usize::parse` accepts a leading `+`; HTTP's DIGIT syntax does
        // not.
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nBODY5")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length:\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        // The socket parser trims header values, but the check must not
        // depend on that: a directly constructed request with inner
        // whitespace is refused too.
        let req = Request {
            method: "POST".into(),
            path: "/".into(),
            query: Vec::new(),
            headers: vec![("content-length".into(), " 5".into())],
            body: Vec::new(),
        };
        assert!(req.declared_content_length().is_err());
    }

    #[test]
    fn plus_stays_literal_in_the_path() {
        let req = parse("GET /datasets/a+b?note=a+b HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/datasets/a+b");
        // The form-urlencoded convention still applies to query pairs.
        assert_eq!(req.query_param("note"), Some("a b"));
        // An escaped plus decodes to a literal plus everywhere.
        let req = parse("GET /a%2Bb HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/a+b");
    }

    #[test]
    fn truncated_heads_are_rejected_not_served() {
        // Cut mid-header: the EOF used to read back as the blank
        // separator line, so this parsed as a complete bodyless request.
        assert_eq!(
            parse("GET /stats HTTP/1.1\r\nHost: exam")
                .unwrap_err()
                .status,
            400
        );
        // Cut mid-request-line.
        assert_eq!(parse("GET /anony").unwrap_err().status, 400);
        // Head lines complete but the blank separator never arrived.
        assert_eq!(parse("GET / HTTP/1.1\r\n").unwrap_err().status, 400);
    }

    #[test]
    fn response_serializes_with_content_length() {
        let mut out = Vec::new();
        Response::json(200, "{}").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }

    #[test]
    fn binary_responses_frame_the_byte_payload() {
        let response = Response::json(200, "{}")
            .with_header("X-Ldiv-Trace-Id", "abc".into())
            .into_binary(vec![0x4c, 0x44, 0x56, 0x57, 0x00]);
        assert_eq!(response.content_type, "application/x-ldiv-bin");
        assert!(response.body.is_empty());
        let mut out = Vec::new();
        response.write_to(&mut out).unwrap();
        let head_end = out.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        let head = std::str::from_utf8(&out[..head_end]).unwrap();
        assert!(
            head.contains("Content-Type: application/x-ldiv-bin\r\n"),
            "{head}"
        );
        assert!(head.contains("Content-Length: 5\r\n"), "{head}");
        assert!(head.contains("X-Ldiv-Trace-Id: abc\r\n"), "{head}");
        assert_eq!(&out[head_end..], b"LDVW\x00");
    }
}
