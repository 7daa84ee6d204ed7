//! The workspace's one HTTP/1.1 stack: a blocking client with deadlines
//! and pooled keep-alive connections, and a small threaded server, both
//! dependency-free. The single-node introspection listener
//! ([`crate::MetricsServer`]) and `hom-cluster-serve`'s worker and
//! router all run on [`HttpServer`].
//!
//! The server reads `Content-Length`-framed requests with **deadlines**
//! on every socket (a dead peer surfaces as a typed error within the
//! timeout, never a hung thread), caps every request's head and body,
//! and gives each connection **its own thread** (a slow or idle client
//! ties up only that thread, bounded by the read deadline and a
//! connection cap — never the accept loop or other requests).
//!
//! Connections are **persistent**. A connection carries requests until
//! the client sends `Connection: close`, closes it, or sits idle past the
//! server's read deadline. A [`ConnectionPool`] keeps a few idle
//! connections per address, so an exchange costs no connect, no new
//! server thread and no socket left in `TIME_WAIT`. The one-shot
//! [`http_request`] is the same client with `Connection: close`. Every
//! message — request or response — goes out in one write, head and body
//! together, so Nagle's algorithm and delayed ACKs cannot stall a
//! persistent connection.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bodies above this size are rejected by the server (64 MiB) — far
/// above any real model blob or batch, low enough that a corrupt
/// `Content-Length` cannot OOM a worker.
const MAX_BODY: usize = 64 << 20;

/// The request/status line plus headers must fit this budget (16 KiB,
/// either direction) — a peer streaming an endless header line cannot
/// grow a line buffer unboundedly (`MAX_BODY` bounds only bodies).
const MAX_HEAD: u64 = 16 << 10;

/// Concurrent connections one server handles. Accepts beyond the cap
/// are answered `503` immediately — shed, not queued behind slow peers.
const MAX_CONNECTIONS: usize = 64;

/// How long a server connection may wait for the next request (or for
/// the rest of one) before the server closes it.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// The distributed-trace propagation header. The value is
/// `hom_obs::TraceContext::to_header()` — two fixed-width lowercase hex
/// fields, `<trace_id>-<parent_span_id>`. Absent or malformed simply
/// means "untraced"; propagation can never fail a request.
pub const TRACE_HEADER: &str = "X-HOM-Trace";

/// An HTTP exchange that failed below the protocol level. The cluster
/// router maps these onto `ClusterError::WorkerDown` — the cluster's
/// "never hang, never partial" contract rides on every socket
/// operation funneling into this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// TCP connect failed or timed out.
    Connect(String),
    /// The peer accepted the connection but the exchange died (reset,
    /// read/write timeout, premature close).
    Io(String),
    /// The peer spoke, but not HTTP this crate understands.
    Malformed(&'static str),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Connect(what) => write!(f, "connect failed: {what}"),
            HttpError::Io(what) => write!(f, "request failed: {what}"),
            HttpError::Malformed(what) => write!(f, "malformed HTTP response: {what}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// A parsed inbound request: method, path, body.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path with any query string stripped.
    pub path: String,
    /// Raw request body (empty for bodyless requests).
    pub body: Vec<u8>,
    /// The [`TRACE_HEADER`] value, verbatim, when the client sent one.
    /// Handlers parse it with `hom_obs::TraceContext::parse`; a value
    /// that fails to parse is treated as absent.
    pub trace: Option<String>,
}

/// What a handler sends back.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status line text, e.g. `200 OK`.
    pub status: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A `200 OK` with a text body.
    pub fn ok(content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        HttpResponse {
            status: "200 OK",
            content_type,
            body: body.into(),
        }
    }

    /// A `404 Not Found` with a plain-text reason.
    pub fn not_found(reason: &str) -> Self {
        HttpResponse {
            status: "404 Not Found",
            content_type: "text/plain",
            body: format!("{reason}\n").into_bytes(),
        }
    }

    /// A `400 Bad Request` with a plain-text reason.
    pub fn bad_request(reason: &str) -> Self {
        HttpResponse {
            status: "400 Bad Request",
            content_type: "text/plain",
            body: format!("{reason}\n").into_bytes(),
        }
    }

    /// A `503 Service Unavailable` with a plain-text reason — what the
    /// server sheds connections with at the concurrency cap.
    pub fn unavailable(reason: &str) -> Self {
        HttpResponse {
            status: "503 Service Unavailable",
            content_type: "text/plain",
            body: format!("{reason}\n").into_bytes(),
        }
    }
}

/// One blocking HTTP request on a fresh connection, sent with
/// `Connection: close`, with a deadline on every socket phase. Returns
/// the numeric status code and the response body.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<(u16, Vec<u8>), HttpError> {
    http_request_traced(addr, method, path, body, timeout, None)
}

/// [`http_request`] stamping a [`TRACE_HEADER`] when `trace` is `Some` —
/// how the router propagates a `hom_obs::TraceContext` (rendered via
/// `to_header()`) to workers.
pub fn http_request_traced(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
    trace: Option<&str>,
) -> Result<(u16, Vec<u8>), HttpError> {
    let mut conn = Connection::open(addr, timeout)?;
    conn.send(method, path, body, trace, true)?;
    conn.receive()
}

fn io_error(e: io::Error) -> HttpError {
    HttpError::Io(e.to_string())
}

/// One client connection, checked out of a [`ConnectionPool`]. It is
/// reused only in a known state: after a reply was read in full and the
/// server kept the connection open.
pub struct Connection {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    /// Set by a complete reply the server did not close after, cleared
    /// by the next send. An error or an unread reply leaves it false.
    reusable: bool,
}

impl Connection {
    fn open(addr: SocketAddr, timeout: Duration) -> Result<Self, HttpError> {
        let conn = TcpStream::connect_timeout(&addr, timeout)
            .map_err(|e| HttpError::Connect(e.to_string()))?;
        conn.set_read_timeout(Some(timeout)).map_err(io_error)?;
        conn.set_write_timeout(Some(timeout)).map_err(io_error)?;
        conn.set_nodelay(true).map_err(io_error)?;
        Ok(Connection {
            addr,
            reader: BufReader::new(conn),
            reusable: false,
        })
    }

    /// Write one request, head and body in a single write. `close` asks
    /// the server to close the connection after its reply.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        trace: Option<&str>,
        close: bool,
    ) -> Result<(), HttpError> {
        self.reusable = false;
        let mut msg = Vec::with_capacity(160 + body.len());
        // Writes into a Vec cannot fail.
        let _ = write!(
            msg,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n",
            self.addr,
            body.len()
        );
        if let Some(value) = trace {
            let _ = write!(msg, "{TRACE_HEADER}: {value}\r\n");
        }
        if close {
            msg.extend_from_slice(b"Connection: close\r\n");
        }
        msg.extend_from_slice(b"\r\n");
        msg.extend_from_slice(body);
        self.reader.get_mut().write_all(&msg).map_err(io_error)
    }

    /// Read one reply in full: the status code and the body.
    pub fn receive(&mut self) -> Result<(u16, Vec<u8>), HttpError> {
        let head = match read_head(&mut self.reader) {
            Ok(Some(head)) => head,
            Ok(None) => return Err(HttpError::Io("connection closed before the reply".into())),
            Err(HeadError::Io(e)) => return Err(io_error(e)),
            Err(HeadError::StartTooLong) => {
                return Err(HttpError::Malformed("status line too long"))
            }
            Err(HeadError::HeadersTooLarge) => {
                return Err(HttpError::Malformed("header section too large"))
            }
            Err(HeadError::BadLength) => return Err(HttpError::Malformed("content-length")),
        };
        let status: u16 = head
            .start
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(HttpError::Malformed("status line"))?;
        let mut body = Vec::new();
        match head.content_length {
            Some(len) if len > MAX_BODY => {
                return Err(HttpError::Malformed("content-length too large"))
            }
            Some(len) => {
                body.resize(len, 0);
                self.reader.read_exact(&mut body).map_err(io_error)?;
            }
            // No length: the body runs to EOF, so the connection ends here.
            None => {
                self.reader.read_to_end(&mut body).map_err(io_error)?;
            }
        }
        self.reusable = !head.close && head.content_length.is_some();
        Ok((status, body))
    }

    /// Whether an idle connection can carry the next request: nothing is
    /// buffered or waiting to be read, and the peer has not closed it. A
    /// non-blocking peek tells a live idle socket (would block) from a
    /// closed one (EOF or reset) without consuming anything.
    fn is_idle_and_open(&self) -> bool {
        if !self.reader.buffer().is_empty() {
            return false;
        }
        let conn = self.reader.get_ref();
        if conn.set_nonblocking(true).is_err() {
            return false;
        }
        let idle =
            matches!(conn.peek(&mut [0u8; 1]), Err(e) if e.kind() == io::ErrorKind::WouldBlock);
        conn.set_nonblocking(false).is_ok() && idle
    }
}

/// Idle connections the pool keeps per address. A constant, well under
/// the server's [`MAX_CONNECTIONS`]: more concurrent exchanges than this
/// open extra connections, which close after use.
const POOL_PER_ADDR: usize = 8;

/// A pooled connection idle longer than this is closed, not reused: the
/// server drops connections idle for [`IDLE_TIMEOUT`], and reusing one
/// at that moment would race its close.
const POOL_MAX_IDLE: Duration = Duration::from_secs(15);

/// Idle keep-alive connections, per address. A connection is checked
/// out for one exchange and checked back in only once its reply has
/// been read in full; any failure drops it. Nothing here ever resends a
/// request: a pooled connection found closed is replaced *before* the
/// write, and a failure after the write is the caller's error.
pub struct ConnectionPool {
    timeout: Duration,
    idle: Mutex<HashMap<SocketAddr, Vec<(Connection, Instant)>>>,
}

impl ConnectionPool {
    /// An empty pool whose connections carry `timeout` on every phase.
    pub fn new(timeout: Duration) -> Self {
        ConnectionPool {
            timeout,
            idle: Mutex::new(HashMap::new()),
        }
    }

    fn idle(&self) -> MutexGuard<'_, HashMap<SocketAddr, Vec<(Connection, Instant)>>> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The most recently used idle connection to `addr` that is still
    /// open, or a fresh one. Closed or stale connections are dropped.
    pub fn checkout(&self, addr: SocketAddr) -> Result<Connection, HttpError> {
        loop {
            let pooled = self.idle().get_mut(&addr).and_then(Vec::pop);
            match pooled {
                Some((conn, since))
                    if since.elapsed() < POOL_MAX_IDLE && conn.is_idle_and_open() =>
                {
                    return Ok(conn)
                }
                Some(_) => continue,
                None => return Connection::open(addr, self.timeout),
            }
        }
    }

    /// Return `conn` after an exchange. Kept only if its reply was read
    /// in full and the pool for its address has room.
    pub fn checkin(&self, conn: Connection) {
        if !conn.reusable {
            return;
        }
        let mut idle = self.idle();
        let slot = idle.entry(conn.addr).or_default();
        if slot.len() < POOL_PER_ADDR {
            slot.push((conn, Instant::now()));
        }
    }

    /// Close every idle connection to `addr`.
    pub fn forget(&self, addr: SocketAddr) {
        self.idle().remove(&addr);
    }

    /// One exchange on a pooled connection.
    pub fn request(
        &self,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &[u8],
        trace: Option<&str>,
    ) -> Result<(u16, Vec<u8>), HttpError> {
        let mut conn = self.checkout(addr)?;
        conn.send(method, path, body, trace, false)?;
        let reply = conn.receive()?;
        self.checkin(conn);
        Ok(reply)
    }
}

/// The start line and the headers this crate reads from one message.
struct Head {
    /// Request line or status line, with its line ending.
    start: String,
    content_length: Option<usize>,
    trace: Option<String>,
    /// The peer sent `Connection: close`.
    close: bool,
}

enum HeadError {
    Io(io::Error),
    StartTooLong,
    HeadersTooLarge,
    BadLength,
}

impl From<io::Error> for HeadError {
    fn from(e: io::Error) -> Self {
        HeadError::Io(e)
    }
}

/// Read one message head within [`MAX_HEAD`]. `Ok(None)` means the peer
/// closed the connection before sending a byte of it.
fn read_head(reader: &mut BufReader<TcpStream>) -> Result<Option<Head>, HeadError> {
    let mut capped = reader.by_ref().take(MAX_HEAD);
    let mut start = String::new();
    if capped.read_line(&mut start)? == 0 {
        return Ok(None);
    }
    if !start.ends_with('\n') && capped.limit() == 0 {
        return Err(HeadError::StartTooLong);
    }
    let mut head = Head {
        start,
        content_length: None,
        trace: None,
        close: false,
    };
    let mut line = String::new();
    loop {
        line.clear();
        let n = capped.read_line(&mut line)?;
        if line == "\r\n" || line == "\n" {
            break;
        }
        if (n == 0 || !line.ends_with('\n')) && capped.limit() == 0 {
            return Err(HeadError::HeadersTooLarge);
        }
        if n == 0 {
            break;
        }
        if let Some(v) = header_value(&line, "content-length") {
            head.content_length = Some(v.parse().map_err(|_| HeadError::BadLength)?);
        } else if let Some(v) = header_value(&line, TRACE_HEADER) {
            head.trace = Some(v.to_string());
        } else if let Some(v) = header_value(&line, "connection") {
            head.close = v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close"));
        }
    }
    Ok(Some(head))
}

fn header_value<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let (key, value) = line.split_once(':')?;
    if key.trim().eq_ignore_ascii_case(name) {
        Some(value.trim())
    } else {
        None
    }
}

/// The handler a server dispatches every request to.
pub type Handler = Arc<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>;

/// A blocking HTTP server: one accept-loop thread, requests dispatched
/// to a [`Handler`]. Dropping the server stops the loop, closes every
/// open connection once its in-flight request is answered, and joins
/// the connection threads.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl HttpServer {
    /// Bind `addr` (port `0` picks a free one; read it back with
    /// [`Self::addr`]) and serve `handler` on a background thread named
    /// `thread_name`.
    pub fn bind(addr: SocketAddr, thread_name: &str, handler: Handler) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(thread_name.to_string())
            .spawn(move || accept_loop(listener, handler, loop_stop))?;
        Ok(HttpServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The address actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// A server's open connections, keyed by accept order: what the
/// connection cap counts, and what stopping the server shuts down.
type OpenConnections = Arc<Mutex<HashMap<u64, TcpStream>>>;

fn lock_open(open: &OpenConnections) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
    open.lock().unwrap_or_else(|e| e.into_inner())
}

fn accept_loop(listener: TcpListener, handler: Handler, stop: Arc<AtomicBool>) {
    let open: OpenConnections = Arc::default();
    let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
    for (id, conn) in (0u64..).zip(listener.incoming()) {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(mut conn) = conn else { continue };
        conn_threads.retain(|h| !h.is_finished());
        // One thread per connection: a slow or idle peer ties up only
        // its own thread (bounded by the read deadline), never the
        // accept loop or other requests. Beyond the cap, shed promptly.
        {
            let mut open_now = lock_open(&open);
            if open_now.len() >= MAX_CONNECTIONS {
                drop(open_now);
                let _ = write_response(
                    &mut conn,
                    &HttpResponse::unavailable("connection limit"),
                    true,
                );
                continue;
            }
            let Ok(registered) = conn.try_clone() else {
                continue;
            };
            open_now.insert(id, registered);
        }
        let handler = Arc::clone(&handler);
        let thread_open = Arc::clone(&open);
        let spawned = std::thread::Builder::new()
            .name("hom-http-conn".to_string())
            .spawn(move || {
                // An I/O error drops the connection — a broken client
                // must never take the node down.
                let _ = serve_connection(conn, &handler);
                // The registered clone is the socket's last handle:
                // dropping it closes the connection.
                lock_open(&thread_open).remove(&id);
            });
        if let Ok(handle) = spawned {
            conn_threads.push(handle);
        } else {
            // Spawn failure (thread exhaustion): the closure — and with
            // it the connection — was dropped without running.
            lock_open(&open).remove(&id);
        }
    }
    // Stopping: shut the read side of every open connection. A thread
    // waiting for its connection's next request wakes to EOF at once
    // instead of at the idle deadline; a request already read is still
    // answered before its thread exits.
    for conn in lock_open(&open).values() {
        let _ = conn.shutdown(Shutdown::Read);
    }
    for handle in conn_threads {
        let _ = handle.join();
    }
}

/// Serve requests on one connection until the peer closes it, asks for
/// `Connection: close` (or speaks HTTP/1.0), sends a request this
/// server rejects, or stays idle past [`IDLE_TIMEOUT`].
fn serve_connection(conn: TcpStream, handler: &Handler) -> io::Result<()> {
    // A peer that connects and never writes must not pin its thread
    // forever: every inbound socket gets a generous fixed deadline.
    conn.set_read_timeout(Some(IDLE_TIMEOUT))?;
    conn.set_write_timeout(Some(IDLE_TIMEOUT))?;
    conn.set_nodelay(true)?;
    let mut reader = BufReader::new(conn);
    loop {
        let outcome = match read_head(&mut reader) {
            Ok(None) => return Ok(()),
            Ok(Some(head)) => serve_request(&mut reader, head, handler)?,
            Err(HeadError::Io(e)) => return Err(e),
            Err(HeadError::StartTooLong) => Err("request line too long"),
            Err(HeadError::HeadersTooLarge) => Err("header section too large"),
            Err(HeadError::BadLength) => Err("bad content-length"),
        };
        match outcome {
            Ok(true) => {}
            Ok(false) => return Ok(()),
            // The rest of the stream is in an unknown state: answer, close.
            Err(reason) => {
                let response = HttpResponse::bad_request(reason);
                return write_response(reader.get_mut(), &response, true);
            }
        }
    }
}

/// Read the body of the request `head` starts, dispatch it and write
/// the response. `Ok(true)` keeps the connection open; `Err` is a
/// request to reject with `400`.
fn serve_request(
    reader: &mut BufReader<TcpStream>,
    head: Head,
    handler: &Handler,
) -> io::Result<Result<bool, &'static str>> {
    let mut parts = head.start.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Ok(Err("bad request line"));
    };
    let content_length = head.content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Ok(Err("bad content-length"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let close = head.close || parts.next() == Some("HTTP/1.0");
    let request = HttpRequest {
        method: method.to_string(),
        path: target.split('?').next().unwrap_or(target).to_string(),
        body,
        trace: head.trace,
    };
    let response = handler(&request);
    write_response(reader.get_mut(), &response, close)?;
    Ok(Ok(!close))
}

/// Write `response`, head and body in one write. `close` announces that
/// the server closes the connection after it.
fn write_response(conn: &mut TcpStream, response: &HttpResponse, close: bool) -> io::Result<()> {
    let mut msg = Vec::with_capacity(128 + response.body.len());
    // Writes into a Vec cannot fail.
    let _ = write!(
        msg,
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}\r\n",
        response.status,
        response.content_type,
        response.body.len(),
        if close { "Connection: close\r\n" } else { "" }
    );
    msg.extend_from_slice(&response.body);
    conn.write_all(&msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> HttpServer {
        HttpServer::bind(
            "127.0.0.1:0".parse().unwrap(),
            "test-echo",
            Arc::new(|req: &HttpRequest| match req.path.as_str() {
                "/echo" => HttpResponse::ok("application/octet-stream", req.body.clone()),
                "/hello" => HttpResponse::ok("text/plain", format!("{} ok", req.method)),
                "/trace-echo" => HttpResponse::ok(
                    "text/plain",
                    req.trace.clone().unwrap_or_else(|| "untraced".to_string()),
                ),
                _ => HttpResponse::not_found("nope"),
            }),
        )
        .expect("binds")
    }

    #[test]
    fn get_and_post_round_trip() {
        let server = echo_server();
        let t = Duration::from_secs(5);
        let (status, body) = http_request(server.addr(), "GET", "/hello", &[], t).unwrap();
        assert_eq!((status, body.as_slice()), (200, b"GET ok".as_slice()));

        let payload: Vec<u8> = (0..=255u8).collect();
        let (status, body) = http_request(server.addr(), "POST", "/echo", &payload, t).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, payload, "binary body round-trips byte-exactly");

        let (status, _) = http_request(server.addr(), "GET", "/missing", &[], t).unwrap();
        assert_eq!(status, 404);
    }

    #[test]
    fn trace_header_propagates_and_absence_means_untraced() {
        let server = echo_server();
        let t = Duration::from_secs(5);
        let ctx = "00000000deadbeef-0000000000000007";
        let (status, body) =
            http_request_traced(server.addr(), "GET", "/trace-echo", &[], t, Some(ctx)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, ctx.as_bytes(), "header value arrives verbatim");

        let (status, body) = http_request(server.addr(), "GET", "/trace-echo", &[], t).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"untraced", "no header means None, not empty");
    }

    #[test]
    fn a_slow_client_does_not_block_other_requests() {
        let server = echo_server();
        // An idle connection that never sends a request…
        let _idle = TcpStream::connect(server.addr()).expect("connects");
        // …must not stall a real client behind its 30s read deadline.
        let t0 = std::time::Instant::now();
        let (status, body) =
            http_request(server.addr(), "GET", "/hello", &[], Duration::from_secs(5))
                .expect("served concurrently");
        assert_eq!((status, body.as_slice()), (200, b"GET ok".as_slice()));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "request queued behind the idle connection"
        );
    }

    #[test]
    fn endless_header_line_is_rejected_not_buffered() {
        let server = echo_server();
        let mut conn = TcpStream::connect(server.addr()).expect("connects");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(conn, "GET /hello HTTP/1.1\r\nX-Junk: ").unwrap();
        // Stream far more header bytes than MAX_HEAD; the server must
        // answer 400 instead of buffering without bound. The write may
        // error once the server responds and closes — that's fine.
        let _ = conn.write_all(&vec![b'a'; 32 << 10]);
        let mut status_line = String::new();
        BufReader::new(conn).read_line(&mut status_line).unwrap();
        assert!(status_line.contains("400"), "{status_line:?}");
    }

    /// A client connection over a raw socket, for sending hand-made bytes
    /// and reading the replies with the client's own reader.
    fn raw_connection(addr: SocketAddr) -> Connection {
        Connection::open(addr, Duration::from_secs(5)).expect("connects")
    }

    #[test]
    fn one_connection_carries_many_requests() {
        let server = echo_server();
        let pool = ConnectionPool::new(Duration::from_secs(5));
        let mut conn = pool.checkout(server.addr()).expect("connects");
        let local = conn.reader.get_ref().local_addr().unwrap();
        for payload in [b"first".as_slice(), b"second, longer", b""] {
            conn.send("POST", "/echo", payload, None, false).unwrap();
            assert_eq!(conn.receive().unwrap(), (200, payload.to_vec()));
            assert!(
                conn.reusable,
                "a complete keep-alive reply leaves it reusable"
            );
        }
        pool.checkin(conn);
        let (status, body) = pool
            .request(server.addr(), "GET", "/hello", &[], None)
            .unwrap();
        assert_eq!((status, body.as_slice()), (200, b"GET ok".as_slice()));
        let again = pool.checkout(server.addr()).unwrap();
        assert_eq!(
            again.reader.get_ref().local_addr().unwrap(),
            local,
            "the pool hands the idle connection back, not a new one"
        );
    }

    #[test]
    fn connection_close_still_closes_the_connection() {
        let server = echo_server();
        // The server honours a client's `Connection: close`: the reply
        // says so, and the socket reaches EOF right after it.
        let mut conn = raw_connection(server.addr());
        conn.send("GET", "/hello", &[], None, true).unwrap();
        assert_eq!(conn.receive().unwrap(), (200, b"GET ok".to_vec()));
        assert!(!conn.reusable, "a closing reply is never reused");
        let mut rest = Vec::new();
        assert_eq!(
            conn.reader.read_to_end(&mut rest).unwrap(),
            0,
            "server closed"
        );

        // The one-shot client asks for the close, and reads a framed
        // reply without waiting for the peer's EOF.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(conn);
            let mut head = String::new();
            while !head.ends_with("\r\n\r\n") {
                reader.read_line(&mut head).unwrap();
            }
            reader
                .get_mut()
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                .unwrap();
            // Hold the socket open until the client has its answer.
            let _ = reader.read_line(&mut String::new());
            head
        });
        let reply = http_request(addr, "GET", "/x", &[], Duration::from_secs(5)).unwrap();
        assert_eq!(reply, (200, b"ok".to_vec()));
        let head = peer.join().unwrap();
        assert!(head.contains("Connection: close\r\n"), "{head:?}");
    }

    #[test]
    fn caps_apply_to_every_request_on_a_connection() {
        let server = echo_server();
        // An oversized head on the *second* request is still a 400.
        let mut conn = raw_connection(server.addr());
        conn.send("GET", "/hello", &[], None, false).unwrap();
        assert_eq!(conn.receive().unwrap().0, 200);
        let junk = "a".repeat(MAX_HEAD as usize + 1);
        // The server may answer and close before the write completes.
        let _ = conn.send("GET", "/hello", &[], Some(&junk), false);
        let (status, body) = conn.receive().unwrap();
        assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
        assert!(!conn.reusable, "a rejected request closes the connection");

        // So is a body over the cap on the second request.
        let mut conn = raw_connection(server.addr());
        conn.send("POST", "/echo", b"hi", None, false).unwrap();
        assert_eq!(conn.receive().unwrap(), (200, b"hi".to_vec()));
        let oversized = format!(
            "POST /echo HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        conn.reader
            .get_mut()
            .write_all(oversized.as_bytes())
            .unwrap();
        let (status, body) = conn.receive().unwrap();
        assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
        assert!(!conn.reusable);
    }

    #[test]
    fn an_idle_persistent_connection_does_not_block_other_clients() {
        let server = echo_server();
        let mut idle = raw_connection(server.addr());
        idle.send("GET", "/hello", &[], None, false).unwrap();
        assert_eq!(idle.receive().unwrap().0, 200);
        // The server thread of `idle` now waits for its next request…
        let t0 = std::time::Instant::now();
        let (status, _) = http_request(server.addr(), "GET", "/hello", &[], Duration::from_secs(5))
            .expect("served concurrently");
        assert_eq!(status, 200);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "request queued behind the idle connection"
        );
        // …and the idle connection still serves afterwards.
        idle.send("GET", "/hello", &[], None, false).unwrap();
        assert_eq!(idle.receive().unwrap(), (200, b"GET ok".to_vec()));
    }

    #[test]
    fn dropping_a_server_closes_its_idle_connections_promptly() {
        let server = echo_server();
        let addr = server.addr();
        let pool = ConnectionPool::new(Duration::from_secs(5));
        pool.request(addr, "GET", "/hello", &[], None).unwrap();
        assert_eq!(pool.idle().values().flatten().count(), 1, "one pooled");
        let t0 = std::time::Instant::now();
        drop(server);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "drop waited {:?} on an idle keep-alive connection",
            t0.elapsed()
        );
        // The pooled connection is found closed before any write, and
        // the fresh connect it falls back to is refused.
        let err = pool.checkout(addr).err().expect("nobody listening");
        assert!(matches!(err, HttpError::Connect(_)), "{err}");
        assert_eq!(pool.idle().values().flatten().count(), 0);
    }

    #[test]
    fn dead_peer_is_a_typed_error_not_a_hang() {
        // Bind then drop: the port is (very likely) unbound now.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let err = http_request(addr, "GET", "/healthz", &[], Duration::from_millis(500))
            .expect_err("nobody listening");
        assert!(
            matches!(err, HttpError::Connect(_) | HttpError::Io(_)),
            "{err}"
        );
    }
}
