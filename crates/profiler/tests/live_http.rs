//! HTTP-layer tests of the `tbd watch` live server (DESIGN.md §5i).
//!
//! Everything here talks to a real [`LiveServer`] over loopback TCP with
//! hand-rolled requests — no HTTP client dependency — so the status-code
//! paths (400/404/405/414/503), the header framing and the snapshot
//! consistency guarantees are exercised exactly as an external scraper
//! would see them.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use tbd_frameworks::Framework;
use tbd_gpusim::GpuSpec;
use tbd_models::ModelKind;
use tbd_profiler::{LiveServer, WatchConfig};

/// A parsed response: status code, raw header block, body.
struct Response {
    status: u16,
    headers: String,
    body: Vec<u8>,
}

fn send_raw(addr: &str, request: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.write_all(request).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("header terminator");
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status line: {head}"));
    Response { status, headers: head, body: raw[split + 4..].to_vec() }
}

fn get(addr: &str, path: &str) -> Response {
    send_raw(addr, format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
}

fn small_watch(max_captures: u64) -> WatchConfig {
    let mut config =
        WatchConfig::new(ModelKind::A3c, Framework::mxnet(), 4, GpuSpec::quadro_p4000());
    config.max_captures = max_captures;
    config.interval = Duration::from_millis(10);
    config
}

#[test]
fn rejects_bad_requests_with_the_right_status_codes() {
    let mut server = LiveServer::start(small_watch(1), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();

    assert_eq!(send_raw(&addr, b"POST /metrics HTTP/1.1\r\n\r\n").status, 405);
    assert_eq!(send_raw(&addr, b"DELETE / HTTP/1.1\r\n\r\n").status, 405);
    assert_eq!(get(&addr, "/no-such-endpoint").status, 404);
    assert_eq!(send_raw(&addr, b"GET /metrics\r\n\r\n").status, 400, "two-token request line");
    assert_eq!(send_raw(&addr, b"GET /metrics SPDY/3\r\n\r\n").status, 400, "not HTTP");

    // A request line past MAX_REQUEST_LINE is answered 414, not buffered.
    let long =
        format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(tbd_profiler::live::MAX_REQUEST_LINE));
    assert_eq!(send_raw(&addr, long.as_bytes()).status, 414);

    server.shutdown();
}

#[test]
fn health_is_live_before_the_first_capture_and_report_may_503() {
    let mut server = LiveServer::start(small_watch(1), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();

    // /health answers immediately, even before a capture lands.
    let health = get(&addr, "/health");
    assert_eq!(health.status, 200);
    let body = String::from_utf8(health.body).expect("utf8");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"captures\":"), "{body}");

    // /report is racing the first capture: before it lands the server
    // must answer 503 with a clear message, after it a full page.
    let report = get(&addr, "/report");
    match report.status {
        503 => assert!(
            String::from_utf8_lossy(&report.body).contains("no capture completed yet"),
            "503 body should say why"
        ),
        200 => assert!(!report.body.is_empty()),
        other => panic!("unexpected /report status {other}"),
    }
    server.shutdown();
}

#[test]
fn a_long_request_header_still_receives_the_whole_response() {
    // A browser-sized header leaves bytes the server never reads as part
    // of the request line; closing over them must not reset the
    // connection before the client has read the response.
    let mut server = LiveServer::start(small_watch(1), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let padding = "p".repeat(4096);
    let request = format!("GET /health HTTP/1.1\r\nHost: {addr}\r\nX-Padding: {padding}\r\n\r\n");
    for attempt in 0..5 {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        stream.write_all(request.as_bytes()).expect("write request");
        let mut text = String::new();
        stream
            .read_to_string(&mut text)
            .unwrap_or_else(|e| panic!("attempt {attempt}: response cut off by {e}"));
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "attempt {attempt}: {text}");
        let (head, body) = text.split_once("\r\n\r\n").expect("header terminator");
        let length = head
            .lines()
            .find_map(|line| line.strip_prefix("Content-Length: "))
            .and_then(|v| v.parse::<usize>().ok())
            .expect("Content-Length header");
        assert_eq!(body.len(), length, "attempt {attempt}: truncated body {body:?}");
    }
    server.shutdown();
}

#[test]
fn metrics_reads_are_identical_and_match_the_snapshot() {
    let mut server = LiveServer::start(small_watch(1), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    assert!(server.wait_for_captures(1, Duration::from_secs(120)), "first capture");

    let a = get(&addr, "/metrics");
    let b = get(&addr, "/metrics");
    assert_eq!(a.status, 200);
    assert_eq!(a.body, b.body, "same capture, byte-identical exposition");
    assert!(a.headers.contains("text/plain; version=0.0.4"), "{}", a.headers);

    // The served bytes ARE the snapshot's registry rendering — the same
    // string `tbd metrics --format prom` prints for this capture.
    let snapshot = server.snapshot().expect("capture landed");
    assert_eq!(String::from_utf8(a.body).expect("utf8"), snapshot.prometheus);
    assert!(snapshot.prometheus.contains("tbd_internal_events_recorded_total"));
    assert!(snapshot.prometheus.contains("tbd_agg_kernel_series_overflow_total"));

    let trace = get(&addr, "/trace.json");
    assert_eq!(trace.status, 200);
    assert_eq!(String::from_utf8(trace.body).expect("utf8"), snapshot.trace_json);

    let report = get(&addr, "/report");
    assert_eq!(report.status, 200);
    assert_eq!(String::from_utf8(report.body).expect("utf8"), snapshot.html);
    server.shutdown();
}

#[test]
fn content_length_frames_every_response() {
    let mut server = LiveServer::start(small_watch(1), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    assert!(server.wait_for_captures(1, Duration::from_secs(120)), "first capture");
    for path in ["/", "/health", "/metrics", "/trace.json", "/report", "/missing"] {
        let r = get(&addr, path);
        let declared: usize = r
            .headers
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap_or_else(|| panic!("{path}: no Content-Length in {}", r.headers))
            .parse()
            .expect("numeric length");
        assert_eq!(declared, r.body.len(), "{path}: framing mismatch");
        assert!(r.headers.contains("Connection: close"), "{path}");
    }
    server.shutdown();
}

#[test]
fn concurrent_reads_see_complete_snapshots_while_captures_continue() {
    // Unbounded captures on a short interval: readers race the worker's
    // snapshot swaps and must still always see a complete exposition.
    let mut server = LiveServer::start(small_watch(0), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    assert!(server.wait_for_captures(1, Duration::from_secs(120)), "first capture");

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut bodies = Vec::new();
                for _ in 0..5 {
                    let r = get(&addr, "/metrics");
                    assert_eq!(r.status, 200);
                    bodies.push(String::from_utf8(r.body).expect("utf8"));
                }
                bodies
            })
        })
        .collect();
    for handle in handles {
        for body in handle.join().expect("reader thread") {
            // Never a torn page: the exposition always starts at the first
            // family and always carries the self-observability counters.
            assert!(body.starts_with("# TYPE tbd_"), "torn start: {:.60}", body);
            assert!(body.contains("tbd_internal_events_recorded_total"), "torn middle");
            assert!(body.ends_with('\n'), "torn end");
        }
    }
    server.shutdown();
}

#[test]
fn slow_reader_does_not_block_concurrent_scrapes() {
    // Regression: the accept loop used to handle connections inline on
    // the acceptor thread, so one client that connected and then went
    // silent stalled every other scraper for the read-timeout window.
    // Connections are now dispatched through a worker pool; a parked
    // connection must cost one worker, not the listener.
    let mut server = LiveServer::start(small_watch(1), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    assert!(server.wait_for_captures(1, Duration::from_secs(120)), "first capture");

    // Park a few connections that never send a request.
    let parked: Vec<TcpStream> =
        (0..2).map(|_| TcpStream::connect(&addr).expect("parked connection")).collect();
    std::thread::sleep(Duration::from_millis(100));

    // A concurrent scrape must complete promptly — well inside the 2 s
    // per-connection read timeout the parked sockets are burning.
    let started = std::time::Instant::now();
    let scrape = get(&addr, "/metrics");
    assert_eq!(scrape.status, 200);
    assert!(
        started.elapsed() < Duration::from_millis(1500),
        "scrape stalled behind idle connections: {:?}",
        started.elapsed()
    );
    drop(parked);
    server.shutdown();
}

#[test]
fn trickled_request_line_is_cut_off_at_the_line_deadline() {
    // Regression: the 2 s read timeout used to apply per `read()`, so a
    // client sending one byte every 1.9 s held a worker for up to
    // MAX_REQUEST_LINE reads (hours). The deadline now covers the whole
    // request line, whatever the pace.
    let mut server = LiveServer::start(small_watch(1), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    assert!(server.wait_for_captures(1, Duration::from_secs(120)), "first capture");

    let mut slow = TcpStream::connect(&addr).expect("trickling connection");
    let mut watch = slow.try_clone().expect("clone");
    watch.set_read_timeout(Some(Duration::from_secs(8))).expect("timeout");
    let started = Instant::now();
    // One byte every 200 ms, never a newline: 8 s of trickle if nobody
    // cuts it off.
    let trickle = std::thread::spawn(move || {
        for &byte in b"GET /metrics HTTP/1.1".iter().cycle().take(40) {
            if slow.write_all(&[byte]).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(200));
        }
    });

    // The trickle holds one worker; a concurrent scrape is still answered.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(get(&addr, "/metrics").status, 200);

    // The server closes the trickling connection without answering.
    let mut buf = [0u8; 64];
    let outcome = watch.read(&mut buf);
    let elapsed = started.elapsed();
    let closed = match &outcome {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted),
    };
    assert!(closed, "trickling connection not closed: {outcome:?} after {elapsed:?}");
    assert!(elapsed < Duration::from_secs(3), "closed only after {elapsed:?}");
    trickle.join().expect("trickle thread");
    server.shutdown();
}

#[test]
fn non_utf8_request_line_is_a_bad_request() {
    let mut server = LiveServer::start(small_watch(1), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    // Not coerced to `/\u{FFFD}` (which would reach the router as a 404).
    let bad = send_raw(&addr, b"GET /\xff HTTP/1.1\r\n\r\n");
    assert_eq!(bad.status, 400);
    assert_eq!(bad.body, b"bad request\n");
    assert_eq!(send_raw(&addr, b"GET /metr\xc3ics HTTP/1.1\r\n\r\n").status, 400, "truncated");
    assert_eq!(get(&addr, "/health").status, 200, "valid UTF-8 still served");
    server.shutdown();
}

#[test]
fn shutdown_is_graceful_and_releases_the_port() {
    let mut server = LiveServer::start(small_watch(1), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    assert!(server.wait_for_captures(1, Duration::from_secs(120)), "first capture");
    server.shutdown();

    // The snapshot mutex survives shutdown unpoisoned…
    let snapshot = server.snapshot().expect("snapshot outlives shutdown");
    assert!(!snapshot.prometheus.is_empty());
    // …the accept loop is gone…
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "accept loop should be stopped"
    );
    // …and the port can be rebound immediately.
    std::net::TcpListener::bind(addr).expect("port released");
    // Shutdown is idempotent.
    server.shutdown();
}

#[test]
fn shutdown_of_an_idle_wildcard_bound_server_is_prompt() {
    // Bound to the unspecified address, the acceptor has sat blocked in
    // `accept()` for a second when shutdown has to wake it.
    let mut server = LiveServer::start(small_watch(1), "0.0.0.0:0").expect("bind");
    let port = server.local_addr().port();
    assert!(server.wait_for_captures(1, Duration::from_secs(120)), "first capture");
    std::thread::sleep(Duration::from_secs(1));
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(started.elapsed() < Duration::from_secs(2), "shutdown took {:?}", started.elapsed());
    // After shutdown a new connection is refused or never answered.
    if let Ok(mut post) = TcpStream::connect(("127.0.0.1", port)) {
        post.set_read_timeout(Some(Duration::from_millis(500))).expect("timeout");
        let _ = post.write_all(b"GET /health HTTP/1.1\r\n\r\n");
        let mut buf = Vec::new();
        let _ = post.read_to_end(&mut buf);
        assert!(buf.is_empty(), "answered after shutdown: {}", String::from_utf8_lossy(&buf));
    }
}

#[test]
fn a_long_capture_interval_does_not_delay_shutdown() {
    let mut config = small_watch(0);
    config.interval = Duration::from_secs(60);
    let mut server = LiveServer::start(config, "127.0.0.1:0").expect("bind");
    assert!(server.wait_for_captures(1, Duration::from_secs(120)), "first capture");
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(started.elapsed() < Duration::from_secs(1), "shutdown took {:?}", started.elapsed());
}
