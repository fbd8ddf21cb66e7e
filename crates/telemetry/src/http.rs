//! A tiny dependency-free blocking HTTP listener serving the live
//! observability plane.
//!
//! Deliberately minimal — this is a scrape surface, not a web server:
//! one `std::net::TcpListener`, one service thread, one connection at a
//! time. That is exactly what a Prometheus scraper or a `curl` in a
//! runbook needs, and it keeps the crate free of dependencies and the
//! request path free of surprises.
//!
//! Two layers live here:
//!
//! * [`HttpServer`] — the generic listener: parses a request line (plus
//!   a `Content-Length`-framed body for non-GET methods), hands an
//!   [`HttpRequest`] to a routing closure, and writes the returned
//!   [`HttpResponse`].
//! * [`route_plane`] — the scrape surface: routes `/metrics`, `/health`,
//!   `/alerts`, and `/flight` to a [`LivePlane`]. A watched
//!   `smoothop online --listen` mounts it alone; the `smoothop serve`
//!   daemon mounts it beside its own routes.
//!
//! Endpoints served by [`route_plane`]:
//!
//! | Path          | Body                                            |
//! |---------------|-------------------------------------------------|
//! | `/metrics`    | Prometheus text snapshot of the plane's sink    |
//! | `/health`     | JSON liveness + headline counters               |
//! | `/alerts`     | JSON alert engine state (active + journal)      |
//! | `/flight?n=K` | JSONL of the last `K` flight records (all if `n` omitted, none for `n=0`) |

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::plane::LivePlane;

/// The request line must terminate within this many bytes; longer lines
/// are answered `414 URI Too Long` instead of being parsed truncated.
const MAX_REQUEST_LINE: usize = 2048;
/// Header block cap for methods that carry a body.
const MAX_HEAD: usize = 16 * 1024;
/// Body cap; larger payloads are answered `413 Payload Too Large`.
const MAX_BODY: usize = 8 * 1024 * 1024;
/// A whole request must arrive within this long; a client trickling bytes
/// inside the per-read timeout is answered `408 Request Timeout` here, so
/// it cannot hold the service thread for longer.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// One parsed inbound request, as handed to an [`HttpServer`] router.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, ...), verbatim.
    pub method: String,
    /// Target path with the query string stripped (e.g. `/flight`).
    pub path: String,
    /// Raw query string without the leading `?` (empty if absent).
    pub query: String,
    /// Request body (empty for `GET`).
    pub body: String,
}

impl HttpRequest {
    /// The value of query parameter `key`, if present (first match).
    /// `Some("")` distinguishes `?n=` from an absent `?n` — both parse,
    /// the router decides what empty means.
    #[must_use]
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }
}

/// A response for the listener to serialize: status, content type, body.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code (200, 400, 404, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A `200 OK` with the given content type.
    #[must_use]
    pub fn ok(content_type: &'static str, body: impl Into<String>) -> Self {
        Self {
            status: 200,
            content_type,
            body: body.into(),
        }
    }

    /// A `200 OK` JSON response.
    #[must_use]
    pub fn json(body: impl Into<String>) -> Self {
        Self::ok("application/json", body)
    }

    /// A plain-text error response with the given status.
    #[must_use]
    pub fn error(status: u16, message: impl Into<String>) -> Self {
        let mut body = message.into();
        if !body.ends_with('\n') {
            body.push('\n');
        }
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
        }
    }

    /// The canonical `404 Not Found`.
    #[must_use]
    pub fn not_found() -> Self {
        Self::error(404, "not found")
    }

    /// The canonical `405 Method Not Allowed`.
    #[must_use]
    pub fn method_not_allowed() -> Self {
        Self::error(405, "method not allowed")
    }

    /// The canonical `400 Bad Request` with a reason.
    #[must_use]
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::error(400, message)
    }
}

/// The routing closure an [`HttpServer`] dispatches every request to.
pub type HttpHandler = dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync;

/// A running dependency-free HTTP listener. One service thread, one
/// connection at a time, blocking I/O with 2 s read/write timeouts and a
/// 5 s deadline for the whole request (`408`). A handler that panics
/// answers that request `500` and the thread serves on.
/// Shuts down (blocking until the service thread exits) on
/// [`shutdown`](HttpServer::shutdown) or drop.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .field("stopped", &self.stop.load(Ordering::Acquire))
            .finish()
    }
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`, port 0 for ephemeral) and
    /// serves requests through `handler` from a background thread named
    /// `thread_name`. Returns once that thread runs under its name, so a
    /// caller may look it up (e.g. in `/proc/self/task/*/comm`) at once.
    ///
    /// # Errors
    ///
    /// Propagates bind / thread-spawn failures.
    pub fn spawn(
        addr: &str,
        thread_name: &str,
        handler: Arc<HttpHandler>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        // std names a thread from inside it, before the closure runs.
        let (named, running) = std::sync::mpsc::channel();
        let handle = std::thread::Builder::new()
            .name(thread_name.to_string())
            .spawn(move || {
                let _ = named.send(());
                serve(&listener, &handler, &thread_stop);
            })?;
        let _ = running.recv();
        Ok(Self {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener and joins the service thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // The service thread is parked in `accept`; a throwaway
        // connection wakes it so it can observe the stop flag. Connect
        // to loopback, not the literal bound address: a wildcard bind
        // reports `0.0.0.0:<port>` (or `[::]:<port>`), which is not a
        // connectable destination on every platform — a failed wake
        // would leave `join` hanging until a real scrape arrives.
        let _ = TcpStream::connect(wake_addr(self.addr));
        let _ = handle.join();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The address the shutdown wake-up connection should dial for a
/// listener bound at `bound`: wildcard addresses (`0.0.0.0`, `[::]`)
/// map to the same-family loopback on the bound port, concrete
/// addresses pass through unchanged.
#[must_use]
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(v4) if v4.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(v6) if v6.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        other => other,
    };
    SocketAddr::new(ip, bound.port())
}

/// Routes one request against a [`LivePlane`]: the four scrape
/// endpoints, `405` for non-GET methods, `404` otherwise. Exported so
/// resident services can mount the scrape surface alongside their own
/// routes on a single [`HttpServer`].
#[must_use]
pub fn route_plane(plane: &LivePlane, req: &HttpRequest) -> HttpResponse {
    if req.method != "GET" {
        return HttpResponse::method_not_allowed();
    }
    match req.path.as_str() {
        "/metrics" => HttpResponse::ok(
            "text/plain; version=0.0.4; charset=utf-8",
            plane.metrics_text(),
        ),
        "/health" => HttpResponse::json(plane.health_json()),
        "/alerts" => HttpResponse::json(plane.alerts_json()),
        "/flight" => route_flight(plane, req),
        _ => HttpResponse::not_found(),
    }
}

/// `/flight` query semantics: `n` omitted → all held records, explicit
/// `n=0` → zero records, `n=K` → the last `K`, malformed `n` → `400`.
fn route_flight(plane: &LivePlane, req: &HttpRequest) -> HttpResponse {
    match req.query_param("n") {
        None => HttpResponse::ok("application/x-ndjson", plane.flight_jsonl(0)),
        Some(raw) => match raw.parse::<usize>() {
            Ok(0) => HttpResponse::ok("application/x-ndjson", String::new()),
            Ok(k) => HttpResponse::ok("application/x-ndjson", plane.flight_jsonl(k)),
            Err(_) => HttpResponse::bad_request(format!("malformed flight count n={raw:?}")),
        },
    }
}

fn serve(listener: &TcpListener, handler: &Arc<HttpHandler>, stop: &Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // A wedged client must not wedge the scrape surface.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = handle_connection(stream, handler);
    }
}

/// Outcome of reading enough of the request to route it.
enum ReadOutcome {
    Request(HttpRequest),
    /// Protocol-level rejection decided before routing (414, 413, 400).
    Reject(HttpResponse),
    /// Peer vanished before sending a complete request line.
    Closed,
}

/// A reader that fails every read once its deadline has passed.
struct DeadlineReader<'a, R> {
    inner: &'a mut R,
    deadline: Instant,
}

impl<R: Read> Read for DeadlineReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if Instant::now() >= self.deadline {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.inner.read(buf)
    }
}

fn handle_connection(mut stream: TcpStream, handler: &Arc<HttpHandler>) -> std::io::Result<()> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let outcome = read_request(&mut DeadlineReader {
        inner: &mut stream,
        deadline,
    });
    let outcome = match outcome {
        Err(_) if Instant::now() >= deadline => ReadOutcome::Reject(HttpResponse::error(
            408,
            "the request did not arrive within its deadline",
        )),
        other => other?,
    };
    let response = match outcome {
        // A panicking handler costs its request a 500, not the service
        // thread; a lock it held stays poisoned for the handler to report.
        ReadOutcome::Request(req) => catch_unwind(AssertUnwindSafe(|| handler(&req)))
            .unwrap_or_else(|_| HttpResponse::error(500, "the request handler panicked")),
        ReadOutcome::Reject(resp) => {
            // The peer may still be mid-send (that is usually why the
            // request was rejected). Closing with unread inbound data
            // turns into an RST that can destroy the response before
            // the client reads it; drain a bounded amount first so the
            // close is a clean FIN.
            drain_excess(&mut stream);
            resp
        }
        ReadOutcome::Closed => return Ok(()),
    };
    respond(&mut stream, &response)
}

fn read_request(stream: &mut impl Read) -> std::io::Result<ReadOutcome> {
    let mut buf = Vec::with_capacity(MAX_REQUEST_LINE);
    // Read until the request line is complete (ends with \r\n). A line
    // that has not terminated within MAX_REQUEST_LINE bytes would
    // previously be parsed truncated and mis-routed to 404; reject it
    // explicitly instead.
    let line_end = loop {
        if let Some(pos) = find_crlf(&buf) {
            break pos;
        }
        if buf.len() >= MAX_REQUEST_LINE {
            return Ok(ReadOutcome::Reject(HttpResponse::error(
                414,
                "request line too long",
            )));
        }
        if read_chunk(stream, &mut buf)? == 0 {
            if buf.is_empty() {
                return Ok(ReadOutcome::Closed);
            }
            break buf.len();
        }
    };
    let line = String::from_utf8_lossy(&buf[..line_end]).into_owned();
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    // GET carries no body: respond as soon as the request line is in,
    // exactly as a scrape client expects. Other methods are framed by
    // Content-Length, so the full head plus body must be read first.
    let body = if method == "GET" {
        String::new()
    } else {
        match read_body(stream, &mut buf)? {
            Ok(body) => body,
            Err(reject) => return Ok(ReadOutcome::Reject(reject)),
        }
    };
    Ok(ReadOutcome::Request(HttpRequest {
        method,
        path,
        query,
        body,
    }))
}

/// Reads the rest of the header block and the `Content-Length`-framed
/// body. Returns `Err(response)` for protocol rejections.
fn read_body(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
) -> std::io::Result<Result<String, HttpResponse>> {
    let head_end = loop {
        if let Some(pos) = find_head_end(buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD {
            return Ok(Err(HttpResponse::error(431, "header block too large")));
        }
        if read_chunk(stream, buf)? == 0 {
            return Ok(Err(HttpResponse::bad_request("truncated request head")));
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    // Absent Content-Length means an empty body; a present but
    // unparseable one is a protocol error.
    let content_length = match head.lines().skip(1).find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse::<usize>())
    }) {
        None => 0,
        Some(Ok(length)) => length,
        Some(Err(_)) => {
            return Ok(Err(HttpResponse::bad_request("malformed content-length")));
        }
    };
    if content_length > MAX_BODY {
        return Ok(Err(HttpResponse::error(413, "payload too large")));
    }
    let body_start = head_end + 4;
    while buf.len() < body_start + content_length {
        if read_chunk(stream, buf)? == 0 {
            return Ok(Err(HttpResponse::bad_request("truncated request body")));
        }
    }
    let body = String::from_utf8_lossy(&buf[body_start..body_start + content_length]).into_owned();
    Ok(Ok(body))
}

/// Discards whatever the peer has already sent, bounded in both bytes
/// (256 KiB) and time (250 ms), so rejects close cleanly.
fn drain_excess(stream: &mut TcpStream) {
    const DRAIN_CAP: usize = 256 * 1024;
    let until = Instant::now() + Duration::from_millis(250);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut chunk = [0u8; 2048];
    let mut drained = 0;
    while drained < DRAIN_CAP && Instant::now() < until {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn read_chunk(stream: &mut impl Read, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    let mut chunk = [0u8; 2048];
    let n = stream.read(&mut chunk)?;
    buf.extend_from_slice(&chunk[..n]);
    Ok(n)
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn respond(stream: &mut TcpStream, response: &HttpResponse) -> std::io::Result<()> {
    let reason = match response.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let header = format!(
        "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.content_type,
        response.body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alerts::AlertRule;
    use crate::sink::RecordingSink;
    use proptest::prelude::*;

    /// A reader that hands out `sizes[i]` bytes (cycling) on the i-th
    /// call, as a slow or fragmenting peer would.
    struct Trickle<'a> {
        bytes: &'a [u8],
        sizes: Vec<usize>,
        calls: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let want = self.sizes[self.calls % self.sizes.len()];
            self.calls += 1;
            let n = want.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn spawn_returns_once_the_thread_carries_its_name() {
        let named = |name: &str| {
            std::fs::read_dir("/proc/self/task")
                .unwrap()
                .flatten()
                .any(|task| {
                    std::fs::read_to_string(task.path().join("comm"))
                        .is_ok_and(|comm| comm.trim_end() == name)
                })
        };
        for round in 0..50 {
            let server = HttpServer::spawn(
                "127.0.0.1:0",
                "so-name-probe",
                Arc::new(|_: &HttpRequest| HttpResponse::not_found()),
            )
            .unwrap();
            assert!(
                named("so-name-probe"),
                "round {round}: thread not named yet"
            );
            server.shutdown();
        }
    }

    fn fields(outcome: ReadOutcome) -> (String, String, String, String) {
        match outcome {
            ReadOutcome::Request(req) => (req.method, req.path, req.query, req.body),
            ReadOutcome::Reject(resp) => panic!("valid request rejected: {}", resp.status),
            ReadOutcome::Closed => panic!("valid request read as closed"),
        }
    }

    /// Text drawn from ASCII plus 2-, 3- and 4-byte UTF-8 characters.
    fn text(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop_oneof![
                4 => 0x20u32..0x7F,
                1 => 0xA0u32..0x800,
                1 => 0x800u32..0xD800,
                1 => 0x1_0000u32..0x11_0000,
            ],
            len,
        )
        .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
    }

    /// Arbitrary bytes: alone, after `GET /`, or after a `POST` request
    /// line and a `Content-Length` header (with or without the blank line
    /// that ends the head), so every outcome is reachable.
    fn request_bytes() -> impl Strategy<Value = Vec<u8>> {
        let bytes = |len| prop::collection::vec(0u8..=255, 0..len);
        let get = bytes(3_000).prop_map(|tail| [b"GET /".as_slice(), &tail].concat());
        let post = (
            bytes(20_000),
            prop_oneof![0usize..64, 0usize..12_000_000],
            0u8..2,
        )
            .prop_map(|(tail, length, ends_head)| {
                let mut head = format!("POST /ingest HTTP/1.1\r\nContent-Length: {length}\r\n");
                if ends_head == 1 {
                    head.push_str("\r\n");
                }
                [head.as_bytes(), &tail].concat()
            });
        prop_oneof![1 => Just(Vec::new()), 4 => bytes(3_000), 4 => get, 8 => post]
    }

    /// A short token of URL- and header-safe characters.
    fn token() -> impl Strategy<Value = String> {
        const CHARS: &[u8] = b"abcxyz0189_-.";
        prop::collection::vec(0..CHARS.len(), 1..12)
            .prop_map(|picks| picks.into_iter().map(|i| char::from(CHARS[i])).collect())
    }

    /// A well-formed request: method, path, optional query, a few
    /// headers and, for non-GET methods, a `Content-Length` body.
    fn valid_request() -> impl Strategy<Value = Vec<u8>> {
        (
            prop_oneof![Just("GET"), Just("POST"), Just("PUT")],
            token(),
            prop::collection::vec((token(), token()), 0..3),
            prop::collection::vec((token(), token()), 0..4),
            text(0..400),
        )
            .prop_map(|(method, path, query, headers, body)| {
                let query: Vec<String> = query.iter().map(|(k, v)| format!("{k}={v}")).collect();
                let mut message = format!("{method} /{path}");
                if !query.is_empty() {
                    message = format!("{message}?{}", query.join("&"));
                }
                message.push_str(" HTTP/1.1\r\nHost: x\r\n");
                for (name, value) in headers {
                    message.push_str(&format!("X-{name}: {value}\r\n"));
                }
                if method == "GET" {
                    message.push_str("\r\n");
                } else {
                    message.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
                }
                message.into_bytes()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_read_to_a_request_closed_or_a_known_reject(bytes in request_bytes()) {
            let outcome = read_request(&mut bytes.as_slice()).expect("a slice never fails to read");
            if let ReadOutcome::Reject(resp) = outcome {
                prop_assert!(
                    [400, 413, 414, 431].contains(&resp.status),
                    "unexpected reject status {}",
                    resp.status
                );
            }
        }

        #[test]
        fn fragmented_reads_parse_like_one_read(
            bytes in valid_request(),
            sizes in prop::collection::vec(1usize..=64, 1..16),
        ) {
            let whole = fields(read_request(&mut bytes.as_slice()).unwrap());
            let mut trickle = Trickle { bytes: &bytes, sizes, calls: 0 };
            let pieces = fields(read_request(&mut trickle).unwrap());
            prop_assert_eq!(pieces, whole);
        }
    }

    fn get(addr: SocketAddr, target: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    fn test_plane() -> Arc<LivePlane> {
        let sink = Arc::new(RecordingSink::with_virtual_clock());
        sink.gauge_set("so_test_gauge", &[], 4.0);
        let plane = Arc::new(LivePlane::new(
            sink,
            8,
            vec![AlertRule::above("hot", "t", 1.0, 0.5, 1)],
        ));
        plane.evaluate_alerts(&[("t", 2.0)]);
        plane
    }

    /// Serves `plane`'s scrape routes on `addr`, as `smoothop online
    /// --listen` does.
    fn plane_server(addr: &str, plane: &Arc<LivePlane>) -> HttpServer {
        let plane = Arc::clone(plane);
        HttpServer::spawn(
            addr,
            "so-metrics-http",
            Arc::new(move |req| route_plane(&plane, req)),
        )
        .unwrap()
    }

    #[test]
    fn serves_all_four_endpoints() {
        let plane = test_plane();
        let server = plane_server("127.0.0.1:0", &plane);
        let addr = server.addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(body.contains("so_test_gauge 4"));

        let (head, body) = get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(body.contains("\"status\":\"alerting\""));

        let (_, body) = get(addr, "/alerts");
        assert!(body.contains("\"active\":[\"hot\"]"));

        let (_, body) = get(addr, "/flight?n=1");
        assert_eq!(body.lines().count(), 1);
        assert!(body.contains("\"kind\":\"alert_fired\""));

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        server.shutdown();
    }

    #[test]
    fn flight_count_semantics_cover_omitted_zero_and_malformed() {
        let plane = test_plane();
        // Two more alert evaluations so the ring holds several records.
        plane.evaluate_alerts(&[("t", 0.0)]);
        plane.evaluate_alerts(&[("t", 2.0)]);
        let held = plane.flight_jsonl(0).lines().count();
        assert!(held >= 2, "fixture should hold >= 2 records, got {held}");
        let server = plane_server("127.0.0.1:0", &plane);
        let addr = server.addr();

        // Omitted n: every held record.
        let (head, body) = get(addr, "/flight");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body.lines().count(), held);

        // Explicit n=0: zero records, still 200.
        let (head, body) = get(addr, "/flight?n=0");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "");

        // Malformed n: 400, not a full dump.
        for target in [
            "/flight?n=zzz",
            "/flight?n=",
            "/flight?n=-1",
            "/flight?n=1x",
        ] {
            let (head, body) = get(addr, target);
            assert!(
                head.starts_with("HTTP/1.1 400"),
                "{target} should be rejected: {head}"
            );
            assert!(body.contains("malformed"), "{target}: {body}");
        }

        // Bounded n still works and other params are ignored.
        let (head, body) = get(addr, "/flight?pretty=1&n=1");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body.lines().count(), 1);

        server.shutdown();
    }

    #[test]
    fn oversized_request_line_gets_414_not_a_truncated_route() {
        let plane = test_plane();
        let server = plane_server("127.0.0.1:0", &plane);
        let addr = server.addr();

        // A /metrics prefix plus a huge query: the pre-fix code would
        // truncate at the buffer boundary and route the mangled target.
        let long_target = format!("/metrics?pad={}", "x".repeat(3 * MAX_REQUEST_LINE));
        let (head, _) = get(addr, &long_target);
        assert!(head.starts_with("HTTP/1.1 414"), "{head}");

        server.shutdown();
    }

    #[test]
    fn non_get_methods_are_rejected_with_405() {
        let plane = test_plane();
        let server = plane_server("127.0.0.1:0", &plane);
        let addr = server.addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");

        server.shutdown();
    }

    #[test]
    fn wake_addr_maps_wildcards_to_loopback() {
        let cases = [
            ("0.0.0.0:9184", "127.0.0.1:9184"),
            ("[::]:9184", "[::1]:9184"),
            ("127.0.0.1:9184", "127.0.0.1:9184"),
            ("192.0.2.7:80", "192.0.2.7:80"),
        ];
        for (bound, expect) in cases {
            let bound: SocketAddr = bound.parse().unwrap();
            let expect: SocketAddr = expect.parse().unwrap();
            assert_eq!(wake_addr(bound), expect, "bound {bound}");
        }
    }

    #[test]
    fn wildcard_bind_shuts_down_without_traffic() {
        let plane = test_plane();
        let server = plane_server("0.0.0.0:0", &plane);
        assert!(server.addr().ip().is_unspecified());
        // Must return promptly with no scrape ever arriving: the wake
        // connection has to reach the listener through loopback.
        let start = std::time::Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown hung for {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn slow_client_hits_read_timeout_without_wedging_the_server() {
        let plane = test_plane();
        let server = plane_server("127.0.0.1:0", &plane);
        let addr = server.addr();

        // A client that connects and sends only half a request line,
        // then stalls. The 2 s read timeout must reclaim the service
        // thread so later scrapes still succeed.
        let mut wedged = TcpStream::connect(addr).unwrap();
        wedged.write_all(b"GET /met").unwrap();

        let (head, _) = get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        drop(wedged);
        server.shutdown();
    }

    #[test]
    fn trickling_client_gets_408_and_cannot_stall_other_clients() {
        let plane = test_plane();
        let server = plane_server("127.0.0.1:0", &plane);
        let addr = server.addr();

        // One byte every 200 ms, inside the 2 s read timeout: without a
        // whole-request deadline this 58-byte request holds the service
        // thread for about 12 s.
        let trickler = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(1)))
                .unwrap();
            let mut reply = Vec::new();
            let mut chunk = [0u8; 512];
            for &byte in b"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello" {
                // Stop sending once the server has answered.
                if let Ok(n) = stream.read(&mut chunk) {
                    reply.extend_from_slice(&chunk[..n]);
                    break;
                }
                if stream.write_all(&[byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(200));
            }
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let _ = stream.read_to_end(&mut reply);
            String::from_utf8_lossy(&reply).into_owned()
        });
        std::thread::sleep(Duration::from_millis(300));

        let start = Instant::now();
        let (head, _) = get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(
            start.elapsed() < REQUEST_DEADLINE + Duration::from_secs(2),
            "/health waited {:?} behind the trickle",
            start.elapsed()
        );
        let reply = trickler.join().unwrap();
        assert!(reply.starts_with("HTTP/1.1 408 Request Timeout"), "{reply}");
        server.shutdown();
    }

    #[test]
    fn concurrent_scrapes_survive_shutdown() {
        let plane = test_plane();
        let server = plane_server("127.0.0.1:0", &plane);
        let addr = server.addr();

        // Scrapers race the shutdown: every connection must either get
        // a well-formed response or a clean connection error — never a
        // hang past the read timeout.
        let scrapers: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        let Ok(mut stream) = TcpStream::connect(addr) else {
                            return;
                        };
                        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                        if stream
                            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                            .is_err()
                        {
                            return;
                        }
                        let mut response = String::new();
                        if stream.read_to_string(&mut response).is_err() {
                            return;
                        }
                        if !response.is_empty() {
                            assert!(response.starts_with("HTTP/1.1 "), "{response}");
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        server.shutdown();
        for scraper in scrapers {
            scraper.join().unwrap();
        }
    }

    #[test]
    fn a_panicking_handler_answers_500_and_the_server_serves_on() {
        let handler: Arc<HttpHandler> = Arc::new(|req| match req.path.as_str() {
            "/boom" => panic!("planted handler panic"),
            _ => HttpResponse::ok("text/plain; charset=utf-8", "fine"),
        });
        let server = HttpServer::spawn("127.0.0.1:0", "so-test-http", handler).unwrap();
        let get = |path: &str| {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        };
        assert!(get("/boom").starts_with("HTTP/1.1 500"));
        let ok = get("/ok");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        assert!(ok.ends_with("\r\n\r\nfine"), "{ok}");
        assert!(get("/boom").starts_with("HTTP/1.1 500"));
        assert!(get("/ok").starts_with("HTTP/1.1 200"));
        server.shutdown();
    }

    #[test]
    fn generic_server_routes_post_bodies() {
        let handler: Arc<HttpHandler> = Arc::new(|req| {
            if req.method == "POST" && req.path == "/echo" {
                HttpResponse::ok("text/plain; charset=utf-8", req.body.clone())
            } else {
                HttpResponse::not_found()
            }
        });
        let server = HttpServer::spawn("127.0.0.1:0", "so-test-http", handler).unwrap();
        let addr = server.addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        let body = "slot 3 120.5\nslot 4 80.25\n";
        stream
            .write_all(
                format!(
                    "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, got) = response.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(got, body);

        server.shutdown();
    }
}
