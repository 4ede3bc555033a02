//! Open-loop HTTP/1.1 generator.
//!
//! Requests are sent on a fixed schedule whatever the server's speed, by
//! a few client threads that each hold at most one connection. Each
//! request is timed from when it was due, so a stall also charges the
//! requests queued behind it; how late the generator started each
//! request is recorded separately. A non-2xx status, a reset or a
//! timeout is a failed request.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Send time, seconds after the schedule's start.
    pub due_s: f64,
    /// Request target, e.g. `/query?model=resnet50`.
    pub target: String,
    /// Caller-defined class (e.g. cache hit or miss).
    pub class: usize,
}

/// Instants of one request's life.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// When the request was due.
    pub due: Instant,
    /// When a client thread started it.
    pub start: Instant,
    /// Connection established.
    pub connected: Instant,
    /// Request written.
    pub sent: Instant,
    /// First response byte read.
    pub first_byte: Instant,
    /// Response read to end of stream.
    pub end: Instant,
}

impl Timing {
    /// Latency from the due time to the end of the response, ms.
    pub fn latency_ms(&self) -> f64 {
        self.end.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator started the request, ms.
    pub fn lateness_ms(&self) -> f64 {
        self.start.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// The result of one request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Status code, or `0` when no status line arrived.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Transport error, if any.
    pub error: Option<String>,
    /// When each phase happened. For a failed request, `end` is the
    /// instant of the failure and phases it never reached keep `start`.
    pub timing: Timing,
}

impl Outcome {
    /// A 2xx response with no transport error.
    pub fn ok(&self) -> bool {
        self.error.is_none() && (200..300).contains(&self.status)
    }
}

/// Sends one `GET target` over a fresh connection and reads the response
/// to the end of the stream.
fn get(addr: SocketAddr, target: &str, timeout: Duration, due: Instant) -> Outcome {
    let start = Instant::now();
    let mut timing = Timing {
        due,
        start,
        connected: start,
        sent: start,
        first_byte: start,
        end: start,
    };
    let result = exchange(addr, target, timeout, &mut timing);
    let (status, body, error) = match result {
        Ok(raw) => {
            let (status, body) = parse_response(&raw);
            (status, body, None)
        }
        Err(e) => (0, Vec::new(), Some(e.to_string())),
    };
    if error.is_some() {
        timing.end = Instant::now();
    }
    Outcome {
        status,
        body,
        error,
        timing,
    }
}

fn exchange(
    addr: SocketAddr,
    target: &str,
    timeout: Duration,
    timing: &mut Timing,
) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    timing.connected = Instant::now();
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    stream.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    timing.sent = Instant::now();
    timing.first_byte = timing.sent;
    let mut raw = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        if raw.is_empty() {
            timing.first_byte = Instant::now();
        }
        raw.extend_from_slice(&chunk[..n]);
    }
    timing.end = Instant::now();
    Ok(raw)
}

/// Splits a raw HTTP/1.1 response into status code and body; status `0`
/// for a malformed status line.
pub fn parse_response(raw: &[u8]) -> (u16, Vec<u8>) {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n");
    let status = raw
        .split(|&b| b == b'\r')
        .next()
        .and_then(|line| std::str::from_utf8(line).ok())
        .and_then(|line| line.strip_prefix("HTTP/1.1 "))
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    let body = head_end.map_or_else(Vec::new, |i| raw[i + 4..].to_vec());
    (status, body)
}

/// Runs `requests` against `addr` as an open loop with `connections`
/// client threads, starting `lead` from now. Returns the schedule's
/// start and one outcome per request, in schedule order.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Request],
    connections: usize,
    timeout: Duration,
    lead: Duration,
) -> (Instant, Vec<Outcome>) {
    let origin = Instant::now() + lead;
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Outcome)>> = Mutex::new(Vec::with_capacity(requests.len()));
    std::thread::scope(|scope| {
        for _ in 0..connections.max(1) {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(request) = requests.get(i) else {
                        break;
                    };
                    let due = origin + Duration::from_secs_f64(request.due_s);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    mine.push((i, get(addr, &request.target, timeout, due)));
                }
                results
                    .lock()
                    .expect("no client thread panics holding the lock")
                    .extend(mine);
            });
        }
    });
    let mut results = results.into_inner().expect("client threads joined");
    results.sort_by_key(|(i, _)| *i);
    (origin, results.into_iter().map(|(_, o)| o).collect())
}
