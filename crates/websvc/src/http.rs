//! A small HTTP/1.0-style codec over byte streams.
//!
//! Requests: `GET <path> HTTP/1.0\r\n<headers>\r\n\r\n` (no bodies — the
//! workload is HTTP GET, as in the paper's jmeter/httperf runs).
//! Responses: status line + `Content-Length` framing + body.
//!
//! Heads are parsed as bytes: only the fields a message keeps are turned
//! into strings, each through `String::from_utf8_lossy`, so a head with
//! invalid UTF-8 decodes to exactly what decoding the whole head first
//! would give (every delimiter is ASCII). Encoders size their output
//! exactly and write it in one pass.
//!
//! [`RequestDecoder`] and [`ResponseDecoder`] split a connection's
//! received bytes ([`crate::secure::Inbox`]) into messages. Two
//! malformed streams keep the behaviour the figures were made with: a
//! complete head that is not a request is consumed without yielding a
//! request, and a response head without a numeric status is never
//! consumed, so nothing after it on that stream is ever decoded.

use crate::secure::Decoder;
use std::ops::Range;

/// A parsed HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (the workload only uses GET).
    pub method: String,
    /// Request path incl. query string.
    pub path: String,
    /// Header name/value pairs in order.
    pub headers: Vec<(String, String)>,
}

impl HttpRequest {
    /// A GET request for `path`.
    pub fn get(path: &str) -> Self {
        HttpRequest {
            method: "GET".into(),
            path: path.into(),
            headers: Vec::new(),
        }
    }

    /// Serializes onto the wire.
    pub fn encode(&self) -> Vec<u8> {
        encode_request(&self.method, &self.path, &self.headers)
    }

    /// The wire bytes of `HttpRequest::get(path).encode()`, without
    /// building the request.
    pub fn encode_get(path: &str) -> Vec<u8> {
        encode_request("GET", path, &[])
    }

    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed HTTP response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Header name/value pairs (Content-Length is added on encode).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A 200 response with a body.
    pub fn ok(body: Vec<u8>) -> Self {
        HttpResponse {
            status: 200,
            headers: Vec::new(),
            body,
        }
    }

    /// An error response.
    pub fn error(status: u16, message: &str) -> Self {
        HttpResponse {
            status,
            headers: Vec::new(),
            body: message.as_bytes().to_vec(),
        }
    }

    /// Serializes onto the wire (adds Content-Length).
    pub fn encode(&self) -> Vec<u8> {
        encode_response(self.status, &self.headers, &[&self.body])
    }

    /// The wire bytes of `HttpResponse::ok(body_parts.concat()).encode()`,
    /// without gathering the body first.
    pub fn encode_ok(body_parts: &[&[u8]]) -> Vec<u8> {
        encode_response(200, &[], body_parts)
    }
}

const VERSION: &[u8] = b"HTTP/1.0";
const CONTENT_LENGTH: &[u8] = b"Content-Length: ";

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        404 => "Not Found",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        _ => "Status",
    }
}

/// Wire length of the header lines `name: value\r\n`.
fn headers_len(headers: &[(String, String)]) -> usize {
    headers.iter().map(|(k, v)| k.len() + v.len() + 4).sum()
}

fn push_headers(out: &mut Vec<u8>, headers: &[(String, String)]) {
    for (k, v) in headers {
        out.extend_from_slice(k.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(v.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
}

fn encode_request(method: &str, path: &str, headers: &[(String, String)]) -> Vec<u8> {
    let len = method.len() + path.len() + VERSION.len() + 4 + headers_len(headers) + 2;
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(method.as_bytes());
    out.push(b' ');
    out.extend_from_slice(path.as_bytes());
    out.push(b' ');
    out.extend_from_slice(VERSION);
    out.extend_from_slice(b"\r\n");
    push_headers(&mut out, headers);
    out.extend_from_slice(b"\r\n");
    debug_assert_eq!(out.len(), len);
    out
}

fn encode_response(status: u16, headers: &[(String, String)], body: &[&[u8]]) -> Vec<u8> {
    let reason = reason(status);
    let body_len: usize = body.iter().map(|p| p.len()).sum();
    let len = VERSION.len()
        + 1
        + decimal_len(usize::from(status))
        + 1
        + reason.len()
        + 2
        + headers_len(headers)
        + CONTENT_LENGTH.len()
        + decimal_len(body_len)
        + 4
        + body_len;
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(VERSION);
    out.push(b' ');
    push_decimal(&mut out, usize::from(status));
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
    out.extend_from_slice(b"\r\n");
    push_headers(&mut out, headers);
    out.extend_from_slice(CONTENT_LENGTH);
    push_decimal(&mut out, body_len);
    out.extend_from_slice(b"\r\n\r\n");
    for part in body {
        out.extend_from_slice(part);
    }
    debug_assert_eq!(out.len(), len);
    out
}

/// Number of decimal digits in `n`.
fn decimal_len(mut n: usize) -> usize {
    let mut digits = 1;
    while n >= 10 {
        n /= 10;
        digits += 1;
    }
    digits
}

/// Appends `n` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Index in `buf` of the first `\r\n\r\n` starting at or after `from`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while i + 4 <= buf.len() {
        match buf[i + 3] {
            b'\n' if buf[i..i + 3] == *b"\r\n\r" => return Some(i),
            // Every match starting in i..=i+3 has a CR or LF at i+3.
            b'\r' | b'\n' => i += 1,
            _ => i += 4,
        }
    }
    None
}

/// Where the next search for the end of a head may start once `len`
/// bytes held none: a match can only begin in the last three.
fn resume_at(len: usize) -> usize {
    len.saturating_sub(3)
}

/// The `\r\n`-separated lines of a head (as `str::split("\r\n")`).
fn lines(head: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = Some(head);
    std::iter::from_fn(move || {
        let r = rest?;
        match r.windows(2).position(|w| w == b"\r\n") {
            Some(i) => {
                rest = Some(&r[i + 2..]);
                Some(&r[..i])
            }
            None => {
                rest = None;
                Some(r)
            }
        }
    })
}

/// The first two space-separated fields of a start line (the second is
/// `None` when the line has no space).
fn first_two_fields(line: &[u8]) -> (&[u8], Option<&[u8]>) {
    let mut fields = line.split(|&b| b == b' ');
    let first = fields.next().unwrap_or_default();
    (first, fields.next())
}

fn lossy(field: &[u8]) -> String {
    String::from_utf8_lossy(field).into_owned()
}

/// `name: value` header lines, trimmed; lines without a colon are
/// skipped.
fn parse_headers<'a>(lines: impl Iterator<Item = &'a [u8]>) -> Vec<(String, String)> {
    lines
        .filter_map(|l| {
            let colon = l.iter().position(|&b| b == b':')?;
            let trim = |f: &[u8]| String::from_utf8_lossy(f).trim().to_owned();
            Some((trim(&l[..colon]), trim(&l[colon + 1..])))
        })
        .collect()
}

fn parse_request_head(head: &[u8]) -> Option<HttpRequest> {
    let mut lines = lines(head);
    let (method, path) = first_two_fields(lines.next()?);
    let path = lossy(path?);
    Some(HttpRequest {
        method: lossy(method),
        path,
        headers: parse_headers(lines),
    })
}

/// The status code and headers of a response head.
fn parse_response_head(head: &[u8]) -> Option<(u16, Vec<(String, String)>)> {
    let mut lines = lines(head);
    let status = first_two_fields(lines.next()?).1?;
    let status = std::str::from_utf8(status).ok()?.parse().ok()?;
    Some((status, parse_headers(lines)))
}

/// The body length the first `Content-Length` header gives (0 when it
/// is missing or unparseable).
fn content_length(headers: &[(String, String)]) -> usize {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// Splits a stream of requests (server side) into [`HttpRequest`]s.
#[derive(Default)]
pub struct RequestDecoder {
    /// Where the search for the end of the next head resumes.
    scanned: usize,
}

impl Decoder for RequestDecoder {
    type Item<'a> = HttpRequest;

    /// A complete head that is not a request is consumed and yields
    /// `None`.
    fn decode(&mut self, buf: &[u8]) -> Option<(usize, Option<HttpRequest>)> {
        let Some(end) = find_head_end(buf, self.scanned) else {
            self.scanned = resume_at(buf.len());
            return None;
        };
        self.scanned = 0;
        Some((end + 4, parse_request_head(&buf[..end])))
    }
}

/// A parsed response head whose body has not fully arrived.
struct PendingHead {
    status: u16,
    headers: Vec<(String, String)>,
    /// Where the body starts and ends in the buffer.
    body: Range<usize>,
}

/// Splits a stream of responses (client side) into [`HttpResponse`]s.
#[derive(Default)]
pub struct ResponseDecoder {
    /// Where the search for the end of the next head resumes.
    scanned: usize,
    /// The current response's head, once it has arrived.
    head: Option<PendingHead>,
}

impl Decoder for ResponseDecoder {
    type Item<'a> = HttpResponse;

    /// A head without a numeric status is never consumed: it blocks
    /// the stream.
    fn decode(&mut self, buf: &[u8]) -> Option<(usize, Option<HttpResponse>)> {
        if self.head.is_none() {
            let Some(head_end) = find_head_end(buf, self.scanned) else {
                self.scanned = resume_at(buf.len());
                return None;
            };
            self.scanned = head_end;
            let (status, headers) = parse_response_head(&buf[..head_end])?;
            let body_start = head_end + 4;
            self.head = Some(PendingHead {
                status,
                body: body_start..body_start.saturating_add(content_length(&headers)),
                headers,
            });
        }
        let body = buf.get(self.head.as_ref()?.body.clone())?.to_vec();
        let head = self.head.take()?;
        self.scanned = 0;
        let resp = HttpResponse {
            status: head.status,
            headers: head.headers,
            body,
        };
        Some((head.body.end, Some(resp)))
    }
}

/// The codec this module replaced, kept as the reference the tests pin
/// the byte parser and the exact-size encoders to.
#[cfg(test)]
mod oracle {
    use super::{HttpRequest, HttpResponse};

    pub fn encode_request(req: &HttpRequest) -> Vec<u8> {
        let mut out = format!("{} {} HTTP/1.0\r\n", req.method, req.path).into_bytes();
        for (k, v) in &req.headers {
            out.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out
    }

    pub fn encode_response(resp: &HttpResponse) -> Vec<u8> {
        let reason = match resp.status {
            200 => "OK",
            404 => "Not Found",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            _ => "Status",
        };
        let mut out = format!("HTTP/1.0 {} {}\r\n", resp.status, reason).into_bytes();
        for (k, v) in &resp.headers {
            out.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n\r\n", resp.body.len()).as_bytes());
        out.extend_from_slice(&resp.body);
        out
    }

    #[derive(Default)]
    pub struct RequestParser {
        buf: Vec<u8>,
    }

    impl RequestParser {
        pub fn push(&mut self, data: &[u8]) {
            self.buf.extend_from_slice(data);
        }

        pub fn next_request(&mut self) -> Option<HttpRequest> {
            let end = self.buf.windows(4).position(|w| w == b"\r\n\r\n")?;
            let head = String::from_utf8_lossy(&self.buf[..end]).into_owned();
            self.buf.drain(..end + 4);
            let mut lines = head.split("\r\n");
            let request_line = lines.next()?;
            let mut parts = request_line.split(' ');
            let method = parts.next()?.to_owned();
            let path = parts.next()?.to_owned();
            let headers = lines
                .filter_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    Some((k.trim().to_owned(), v.trim().to_owned()))
                })
                .collect();
            Some(HttpRequest {
                method,
                path,
                headers,
            })
        }
    }

    #[derive(Default)]
    pub struct ResponseParser {
        buf: Vec<u8>,
    }

    impl ResponseParser {
        pub fn push(&mut self, data: &[u8]) {
            self.buf.extend_from_slice(data);
        }

        pub fn next_response(&mut self) -> Option<HttpResponse> {
            let head_end = self.buf.windows(4).position(|w| w == b"\r\n\r\n")?;
            let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
            let mut lines = head.split("\r\n");
            let status_line = lines.next()?;
            let status: u16 = status_line.split(' ').nth(1)?.parse().ok()?;
            let headers: Vec<(String, String)> = lines
                .filter_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    Some((k.trim().to_owned(), v.trim().to_owned()))
                })
                .collect();
            let content_length: usize = headers
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(0);
            let total = head_end + 4 + content_length;
            if self.buf.len() < total {
                return None;
            }
            let body = self.buf[head_end + 4..total].to_vec();
            self.buf.drain(..total);
            Some(HttpResponse {
                status,
                headers,
                body,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secure::Inbox;
    use proptest::prelude::*;

    #[test]
    fn request_round_trip() {
        let mut req = HttpRequest::get("/item?id=7");
        req.headers.push(("Host".into(), "rubis.cloud".into()));
        let wire = req.encode();
        let mut p = Inbox::<RequestDecoder>::default();
        p.push(&wire);
        let parsed = p.next_message().unwrap();
        assert_eq!(parsed, req);
        assert_eq!(parsed.header("host"), Some("rubis.cloud"));
        assert!(p.next_message().is_none());
    }

    #[test]
    fn response_round_trip() {
        let resp = HttpResponse::ok(b"<html>item</html>".to_vec());
        let wire = resp.encode();
        let mut p = Inbox::<ResponseDecoder>::default();
        p.push(&wire);
        let parsed = p.next_message().unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.body, b"<html>item</html>");
    }

    #[test]
    fn fragmented_parsing() {
        let resp = HttpResponse::ok(vec![b'x'; 1000]);
        let wire = resp.encode();
        let mut p = Inbox::<ResponseDecoder>::default();
        let mut got = None;
        for chunk in wire.chunks(7) {
            p.push(chunk);
            if let Some(r) = p.next_message() {
                got = Some(r);
            }
        }
        assert_eq!(got.unwrap().body.len(), 1000);
    }

    #[test]
    fn pipelined_requests() {
        let mut p = Inbox::<RequestDecoder>::default();
        let mut wire = HttpRequest::get("/a").encode();
        wire.extend(HttpRequest::get("/b").encode());
        p.push(&wire);
        assert_eq!(p.next_message().unwrap().path, "/a");
        assert_eq!(p.next_message().unwrap().path, "/b");
        assert!(p.next_message().is_none());
    }

    #[test]
    fn pipelined_responses() {
        let mut p = Inbox::<ResponseDecoder>::default();
        let mut wire = HttpResponse::ok(b"one".to_vec()).encode();
        wire.extend(HttpResponse::error(404, "nope").encode());
        p.push(&wire);
        assert_eq!(p.next_message().unwrap().body, b"one");
        assert_eq!(p.next_message().unwrap().status, 404);
    }

    #[test]
    fn head_end_search_matches_windows() {
        let cases: [&[u8]; 8] = [
            b"",
            b"\r\n\r",
            b"\r\n\r\n",
            b"a\r\n\r\n",
            b"\r\r\n\r\n",
            b"\n\r\n\r\n\r\n",
            b"ab\rc\r\n\r\r\n\r\nxyz",
            b"GET / HTTP/1.0\r\nHost: x\r\n\r\n",
        ];
        for buf in cases {
            for from in 0..=buf.len() {
                let expect = buf[from..].windows(4).position(|w| w == b"\r\n\r\n");
                let expect = expect.map(|i| i + from);
                assert_eq!(find_head_end(buf, from), expect, "{buf:?} from {from}");
            }
        }
    }

    #[test]
    fn decimal_writer() {
        for n in [0usize, 7, 9, 10, 99, 100, 65535, 1 << 40, usize::MAX] {
            let mut out = Vec::new();
            push_decimal(&mut out, n);
            assert_eq!(out, n.to_string().into_bytes());
            assert_eq!(decimal_len(n), out.len());
        }
    }

    /// Bytes the random heads are drawn from: delimiters, padding that
    /// `str::trim` removes (ASCII and U+00A0 as `C2 A0`), a sign and
    /// invalid or truncated UTF-8.
    const ALPHABET: &[u8] = b"aZ09 \t:/?=+-\r\n\xc2\xa0\xc3\xa9\xe2\x82\xff";

    fn arb_field() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(0..ALPHABET.len(), 0..10)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
    }

    fn pick(options: &'static [&'static [u8]]) -> impl Strategy<Value = Vec<u8>> {
        (0..options.len()).prop_map(move |i| options[i].to_vec())
    }

    /// One header line: a length header in any case (or another name, or
    /// noise), its value padded, or a line with no colon at all.
    fn arb_header_line() -> impl Strategy<Value = Vec<u8>> {
        let names: &[&[u8]] = &[
            b"Content-Length",
            b"content-length",
            b"CONTENT-LENGTH",
            b" Content-Length ",
            b"Host",
            b"X-Pad",
        ];
        let pads: &[&[u8]] = &[b"", b" ", b"  \t", b"\xc2\xa0", b"\t "];
        let numbers: &[&[u8]] = &[b"0", b"3", b"12", b"+5", b"-1", b"007", b"x"];
        prop_oneof![
            (pick(names), pick(pads), pick(numbers), pick(pads))
                .prop_map(|(n, a, v, b)| { [n, b":".to_vec(), a, v, b].concat() }),
            (arb_field(), arb_field()).prop_map(|(n, v)| [n, b":".to_vec(), v].concat()),
            arb_field(),
        ]
    }

    /// A stream of request-like heads: well-formed GETs, other methods
    /// and versions, and start lines with no space.
    fn arb_request_stream() -> impl Strategy<Value = Vec<u8>> {
        let message = (
            prop_oneof![pick(&[b"GET", b"POST", b""]), arb_field()],
            prop_oneof![pick(&[b" /item?id=7", b" /", b"  /x", b""]), arb_field()],
            pick(&[b" HTTP/1.0", b" HTTP/1.1", b"", b" a b"]),
            prop::collection::vec(arb_header_line(), 0..4),
        )
            .prop_map(|(method, path, version, headers)| {
                let mut m = [method, path, version].concat();
                for h in headers {
                    m.extend_from_slice(b"\r\n");
                    m.extend_from_slice(&h);
                }
                m.extend_from_slice(b"\r\n\r\n");
                m
            });
        prop::collection::vec(message, 1..5).prop_map(|ms| ms.concat())
    }

    /// A stream of response-like messages: status fields that parse
    /// (`200`, `+200`, `404`) or not, length headers that match the
    /// body, disagree with it or are missing.
    fn arb_response_stream() -> impl Strategy<Value = Vec<u8>> {
        let message = (
            pick(&[
                b"HTTP/1.0 200 OK",
                b"HTTP/1.0 +200 OK",
                b"HTTP/1.1 404 Not Found",
                b"HTTP/1.0 200",
                b"HTTP/1.0  200 OK",
                b"HTTP/1.0 70000 Big",
            ]),
            prop::collection::vec(arb_header_line(), 0..4),
            prop::collection::vec(any::<u8>(), 0..40),
            any::<bool>(),
        )
            .prop_map(|(status, headers, body, with_length)| {
                let mut m = status;
                for h in headers {
                    m.extend_from_slice(b"\r\n");
                    m.extend_from_slice(&h);
                }
                if with_length {
                    m.extend_from_slice(format!("\r\ncontent-length: {}", body.len()).as_bytes());
                }
                m.extend_from_slice(b"\r\n\r\n");
                m.extend_from_slice(&body);
                m
            });
        prop::collection::vec(message, 1..5).prop_map(|ms| ms.concat())
    }

    fn arb_string() -> impl Strategy<Value = String> {
        arb_field().prop_map(|f| String::from_utf8_lossy(&f).into_owned())
    }

    fn arb_headers() -> impl Strategy<Value = Vec<(String, String)>> {
        prop::collection::vec((arb_string(), arb_string()), 0..4)
    }

    /// Splits `data` at the given cut points (taken modulo its length).
    fn fragment(data: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
        let mut points: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        points.sort_unstable();
        let mut out = Vec::new();
        let mut prev = 0;
        for p in points {
            out.push(data[prev..p].to_vec());
            prev = p;
        }
        out.push(data[prev..].to_vec());
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn request_parser_matches_oracle(
            wire in arb_request_stream(),
            cuts in prop::collection::vec(any::<usize>(), 0..8),
        ) {
            let mut new = Inbox::<RequestDecoder>::default();
            let mut old = oracle::RequestParser::default();
            for chunk in fragment(&wire, &cuts) {
                new.push(&chunk);
                old.push(&chunk);
                loop {
                    let (a, b) = (new.next_message(), old.next_request());
                    prop_assert_eq!(&a, &b, "after {:?}", wire);
                    let Some(req) = a else { break };
                    prop_assert_eq!(req.encode(), oracle::encode_request(&req));
                }
            }
        }

        #[test]
        fn response_parser_matches_oracle(
            wire in arb_response_stream(),
            cuts in prop::collection::vec(any::<usize>(), 0..8),
        ) {
            let mut new = Inbox::<ResponseDecoder>::default();
            let mut old = oracle::ResponseParser::default();
            for chunk in fragment(&wire, &cuts) {
                new.push(&chunk);
                old.push(&chunk);
                loop {
                    let (a, b) = (new.next_message(), old.next_response());
                    prop_assert_eq!(&a, &b, "after {:?}", wire);
                    let Some(resp) = a else { break };
                    // What the proxy forwards: the parsed response re-encoded.
                    prop_assert_eq!(resp.encode(), oracle::encode_response(&resp));
                }
            }
        }

        #[test]
        fn encoders_match_oracle(
            method in arb_string(),
            path in arb_string(),
            status: u16,
            headers in arb_headers(),
            body in prop::collection::vec(any::<u8>(), 0..300),
            split in 0usize..301,
        ) {
            let req = HttpRequest { method, path, headers: headers.clone() };
            prop_assert_eq!(req.encode(), oracle::encode_request(&req));
            prop_assert_eq!(
                HttpRequest::encode_get(&req.path),
                oracle::encode_request(&HttpRequest::get(&req.path))
            );
            let resp = HttpResponse { status, headers, body };
            prop_assert_eq!(resp.encode(), oracle::encode_response(&resp));
            let (a, b) = resp.body.split_at(split.min(resp.body.len()));
            prop_assert_eq!(
                HttpResponse::encode_ok(&[a, b]),
                oracle::encode_response(&HttpResponse::ok(resp.body.clone()))
            );
        }
    }
}
