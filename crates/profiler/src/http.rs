//! The one std-only HTTP front behind `tbd watch` and `tbd serve`
//! (DESIGN.md §5i, §5j).
//!
//! A server supplies only its *router*, mapping the request path (query
//! string included) to a [`Response`]; [`serve`] owns everything else.
//! One thread blocks in `accept()`, so a connection is dispatched the
//! moment it arrives — no poll interval sits on the request path — to a
//! bounded [`WorkerPool`], where a slow reader parks one worker, never the
//! acceptor. When the pool's queue is full the acceptor answers `503`
//! itself and drains the request so the close sends FIN. A worker reads
//! the request line ([`REQUEST_LINE_DEADLINE`] for the whole line, however
//! it trickles in; [`MAX_REQUEST_LINE`] cap: `414`), answers `400` for a
//! malformed or non-UTF-8 line and `405` for any method but `GET`, and
//! otherwise writes what the router returns. [`HttpFront::shutdown`]
//! sets the stop flag and wakes the acceptor with a loopback connection,
//! closes the listener, then drains the pool: every accepted connection
//! is still answered.

use std::io::{Read as _, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::pool::WorkerPool;

/// Longest request line the front accepts; anything larger is answered
/// with `414 URI Too Long` before the connection is dropped.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;

/// Time a client has to deliver its whole request line. It bounds the
/// line, not each read, so a client trickling one byte at a time cannot
/// hold a worker longer than this.
pub const REQUEST_LINE_DEADLINE: Duration = Duration::from_secs(2);

/// Cap on request bytes drained after a 503 shed. Large enough to absorb
/// any in-flight request body a well-behaved client already wrote, small
/// enough that a hostile streaming client cannot pin the acceptor thread.
const SHED_DRAIN_CAP: usize = 64 * 1024;

/// `Content-Type` of every plain-text response.
const TEXT: &str = "text/plain; charset=utf-8";

/// `Content-Type` of every JSON response.
pub const JSON: &str = "application/json; charset=utf-8";

/// What a router answers for one path. The body is shared, so a cached
/// response (e.g. a `tbd serve` query result) reaches the socket without
/// being copied.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body.
    pub body: Arc<String>,
}

impl Response {
    /// A response with an explicit content type.
    pub fn new(status: u16, content_type: &'static str, body: impl Into<Arc<String>>) -> Response {
        Response { status, content_type, body: body.into() }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response::new(status, TEXT, body.into())
    }
}

/// A running HTTP front: the acceptor thread, which owns the listener and
/// the worker pool.
#[derive(Debug)]
pub struct HttpFront {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

/// Serves `listener` through `pool`, answering every well-formed `GET`
/// with `router(path)`. The listener must be in blocking mode (the
/// default for [`TcpListener::bind`]).
///
/// # Errors
///
/// Returns the error of reading the listener's local address.
pub fn serve(
    listener: TcpListener,
    pool: WorkerPool,
    router: impl Fn(&str) -> Response + Send + Sync + 'static,
) -> std::io::Result<HttpFront> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let stop = Arc::clone(&stop);
        let router: Router = Arc::new(router);
        std::thread::spawn(move || {
            accept_loop(&listener, &pool, &stop, &router);
            drop(listener);
            pool.shutdown();
        })
    };
    Ok(HttpFront { addr, stop, acceptor: Some(acceptor) })
}

impl HttpFront {
    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes the listener, then drains the pool — every
    /// accepted connection is answered before this returns. Idempotent.
    pub fn shutdown(&mut self) {
        let Some(acceptor) = self.acceptor.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking `accept()`.
        let mut wake = self.addr;
        match &mut wake {
            SocketAddr::V4(v4) if v4.ip().is_unspecified() => v4.set_ip(Ipv4Addr::LOCALHOST),
            SocketAddr::V6(v6) if v6.ip().is_unspecified() => v6.set_ip(Ipv6Addr::LOCALHOST),
            _ => {}
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        let _ = acceptor.join();
    }
}

impl Drop for HttpFront {
    fn drop(&mut self) {
        self.shutdown();
    }
}

type Router = Arc<dyn Fn(&str) -> Response + Send + Sync>;

fn accept_loop(listener: &TcpListener, pool: &WorkerPool, stop: &AtomicBool, router: &Router) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((mut stream, _)) = accepted else {
            // A real accept error (e.g. out of descriptors): back off so
            // the loop cannot spin.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        // The handler gets a dup of the socket so a rejected submission
        // can still answer 503 on the original.
        let job_router = Arc::clone(router);
        let rejected = match stream.try_clone() {
            Ok(handler_stream) => pool
                .submit(move || {
                    let _ = handle_connection(handler_stream, &job_router);
                })
                .is_err(),
            Err(_) => true,
        };
        if rejected {
            shed(&mut stream);
        }
    }
}

/// Answers `503` on the accept thread, then drains pending request bytes
/// so the close sends FIN, not RST — an RST would discard the 503 still
/// sitting in the client's receive buffer. The drain is bounded twice
/// over: by [`SHED_DRAIN_CAP`] bytes and by a 50 ms read timeout per read.
fn shed(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = write_response(stream, 503, TEXT, "server overloaded\n");
    let mut drained = 0usize;
    let mut scratch = [0u8; 4096];
    while drained < SHED_DRAIN_CAP {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// Splits an HTTP request line into `(method, path)`, rejecting anything
/// that is not `METHOD SP PATH SP HTTP/x.y`.
pub fn parse_request_line(line: &str) -> Result<(&str, &str), u16> {
    let mut parts = line.split_ascii_whitespace();
    let (Some(method), Some(path), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(400);
    };
    if !version.starts_with("HTTP/") {
        return Err(400);
    }
    Ok((method, path))
}

/// Reads the request line: `Ok(None)` when the peer went away or
/// [`REQUEST_LINE_DEADLINE`] passed before a whole line arrived,
/// `Err(414)` past [`MAX_REQUEST_LINE`], `Err(400)` for a line that is
/// not UTF-8 (never coerced).
fn read_request_line(stream: &mut TcpStream) -> Result<Option<String>, u16> {
    let deadline = Instant::now() + REQUEST_LINE_DEADLINE;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            if pos > MAX_REQUEST_LINE {
                return Err(414);
            }
            let line = std::str::from_utf8(&buf[..pos]).map_err(|_| 400u16)?;
            return Ok(Some(line.trim_end().to_string()));
        }
        if buf.len() > MAX_REQUEST_LINE {
            return Err(414);
        }
        // Each read may wait only for what is left of the line's deadline.
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return Ok(None);
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return Ok(None),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

fn handle_connection(mut stream: TcpStream, router: &Router) -> std::io::Result<()> {
    let response = match read_request_line(&mut stream) {
        Ok(None) => return Ok(()),
        Err(414) => Response::text(414, "request line too long\n"),
        Err(code) => Response::text(code, "bad request\n"),
        Ok(Some(line)) => match parse_request_line(&line) {
            Err(code) => Response::text(code, "bad request\n"),
            Ok((method, _)) if method != "GET" => Response::text(405, "only GET is supported\n"),
            Ok((_, path)) => router(path),
        },
    };
    write_response(&mut stream, response.status, response.content_type, &response.body)
}

/// Writes a minimal `HTTP/1.1` response (`Connection: close`).
///
/// # Errors
///
/// Propagates socket write errors; callers on best-effort paths ignore
/// them.
pub fn write_response(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        414 => "URI Too Long",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
