//! Concurrency battery of the `tbd serve` tier (DESIGN.md §5j).
//!
//! These are the properties the capacity-planning service stands on:
//!
//! * a cache hit is byte-identical to the cold compute that filled it,
//!   across shard counts and across racing client threads;
//! * identical concurrent queries compute once (single-flight) and every
//!   racer shares the leader's bytes;
//! * worker and shard counts are pure throughput knobs — two servers
//!   configured differently answer every route with identical bytes;
//! * the bounded accept queue sheds load with `503` instead of blocking,
//!   and keeps answering afterwards;
//! * graceful shutdown drains in-flight connections before the last
//!   worker exits.
//! * shutdown is prompt for any bind address, even when the acceptor has
//!   sat blocked in `accept()` on an idle listener.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use tbd_core::serve::ServeQuery;
use tbd_core::{GpuSpec, ServeConfig, ServeEngine, ServeServer};

/// One whole HTTP exchange: send `GET <path>`, read to EOF, return the
/// raw response bytes as text.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

/// A cheap query mix (A3C captures in milliseconds) plus the golden
/// ResNet-50 point, as raw `/query` paths.
const PATHS: [&str; 4] = [
    "/query?model=a3c",
    "/query?model=a3c&cluster=2M1G+infiniband",
    "/query?model=a3c&cluster=1M4G+pcie&batch=8",
    "/query?model=resnet50",
];

#[test]
fn cache_hits_are_byte_identical_to_cold_computes_across_threads() {
    for shards in [1usize, 8] {
        let engine = Arc::new(ServeEngine::with_shards(GpuSpec::quadro_p4000(), shards));
        let golden = ServeQuery::golden();
        let cold = engine.query(&golden).expect("cold compute");
        assert_eq!(engine.misses(), 1);
        for threads in [1usize, 4] {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    let golden = golden.clone();
                    std::thread::spawn(move || {
                        engine.query(&golden).expect("cache hit").as_ref().clone()
                    })
                })
                .collect();
            for handle in handles {
                let hit = handle.join().expect("client thread");
                assert_eq!(hit, *cold, "shards={shards} threads={threads}");
            }
        }
        assert_eq!(engine.misses(), 1, "hits never recompute (shards={shards})");
    }
}

#[test]
fn racing_identical_cold_queries_compute_exactly_once() {
    let engine = Arc::new(ServeEngine::new(GpuSpec::quadro_p4000()));
    let racers = 8usize;
    let barrier = Arc::new(Barrier::new(racers));
    let handles: Vec<_> = (0..racers)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                engine.query(&ServeQuery::golden()).expect("raced query").as_ref().clone()
            })
        })
        .collect();
    let results: Vec<String> = handles.into_iter().map(|h| h.join().expect("racer")).collect();
    for result in &results[1..] {
        assert_eq!(result, &results[0], "every racer shares the leader's bytes");
    }
    assert_eq!(engine.computes(), 1, "single-flight: one compute for {racers} racers");
    assert_eq!(engine.hits() + engine.misses(), racers as u64);
    assert_eq!(engine.profile_computes(), 1, "one capture fills the lowering cache");
}

#[test]
fn worker_and_shard_counts_are_unobservable_in_response_bytes() {
    let small = ServeServer::start(
        Arc::new(ServeEngine::with_shards(GpuSpec::quadro_p4000(), 1)),
        "127.0.0.1:0",
        ServeConfig { workers: 1, queue: 16, shards: 1 },
    )
    .expect("small server");
    let large = ServeServer::start(
        Arc::new(ServeEngine::with_shards(GpuSpec::quadro_p4000(), 8)),
        "127.0.0.1:0",
        ServeConfig { workers: 4, queue: 64, shards: 8 },
    )
    .expect("large server");
    for path in PATHS {
        // Cold on both servers, then hot on both: all four exchanges must
        // produce identical bytes — status line, headers and body.
        let small_cold = http_get(small.local_addr(), path);
        let large_cold = http_get(large.local_addr(), path);
        assert_eq!(small_cold, large_cold, "cold {path}");
        // The hot reads race 4 concurrent clients against the large server.
        let hot: Vec<_> = (0..4)
            .map(|_| {
                let addr = large.local_addr();
                let path = path.to_string();
                std::thread::spawn(move || http_get(addr, &path))
            })
            .collect();
        for handle in hot {
            assert_eq!(handle.join().expect("hot client"), small_cold, "hot {path}");
        }
        assert_eq!(http_get(small.local_addr(), path), small_cold, "hot small {path}");
        assert!(small_cold.starts_with("HTTP/1.1 200"), "{small_cold}");
    }
    // The index is static and the 400 path is deterministic too.
    for path in ["/", "/query?model=nosuchmodel", "/nope"] {
        assert_eq!(
            http_get(small.local_addr(), path),
            http_get(large.local_addr(), path),
            "{path}"
        );
    }
}

#[test]
fn bounded_queue_sheds_with_503_and_keeps_answering() {
    let mut server = ServeServer::start(
        Arc::new(ServeEngine::new(GpuSpec::quadro_p4000())),
        "127.0.0.1:0",
        ServeConfig { workers: 1, queue: 1, shards: 1 },
    )
    .expect("tiny server");
    let addr = server.local_addr();
    // Park the only worker: an accepted connection that sends nothing
    // holds the handler in its read loop. A second idle connection fills
    // the queue slot.
    let parked = TcpStream::connect(addr).expect("park worker");
    std::thread::sleep(Duration::from_millis(100));
    let queued = TcpStream::connect(addr).expect("fill queue");
    std::thread::sleep(Duration::from_millis(100));
    // The third connection must be shed immediately — not blocked behind
    // the parked worker. Shedding happens at accept, before any request
    // byte is read, so the client only has to listen.
    let mut shed = TcpStream::connect(addr).expect("shed connection");
    shed.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut overload = String::new();
    shed.read_to_string(&mut overload).expect("read 503");
    assert!(overload.starts_with("HTTP/1.1 503"), "{overload}");
    assert!(overload.contains("overloaded"), "{overload}");
    drop(shed);
    // Release the parked connections; the server must recover and answer.
    drop(parked);
    drop(queued);
    std::thread::sleep(Duration::from_millis(100));
    let recovered = http_get(addr, "/");
    assert!(recovered.starts_with("HTTP/1.1 200"), "{recovered}");
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_connections() {
    let mut server = ServeServer::start(
        Arc::new(ServeEngine::new(GpuSpec::quadro_p4000())),
        "127.0.0.1:0",
        ServeConfig { workers: 2, queue: 8, shards: 2 },
    )
    .expect("server");
    let addr = server.local_addr();
    // Open a connection and let the worker pick it up, but hold the
    // request back: the handler is now in-flight, waiting in its read
    // loop.
    let mut in_flight = TcpStream::connect(addr).expect("in-flight connection");
    in_flight.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    std::thread::sleep(Duration::from_millis(150));
    // Shut down concurrently; the drain must wait for the in-flight
    // handler rather than killing it.
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        server
    });
    std::thread::sleep(Duration::from_millis(150));
    write!(in_flight, "GET /health HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("late request");
    let mut response = String::new();
    in_flight.read_to_string(&mut response).expect("drained response");
    assert!(response.starts_with("HTTP/1.1 200"), "in-flight connection answered: {response}");
    let server = shutdown.join().expect("shutdown completes");
    // After the drain the listener is gone: a new connection either fails
    // outright or is never answered.
    if let Ok(mut post) = TcpStream::connect(addr) {
        post.set_read_timeout(Some(Duration::from_millis(500))).expect("timeout");
        let _ = write!(post, "GET / HTTP/1.1\r\nHost: test\r\n\r\n");
        let mut buf = String::new();
        let _ = post.read_to_string(&mut buf);
        assert!(buf.is_empty(), "no handler should answer after shutdown: {buf}");
    }
    drop(server);
}

#[test]
fn shutdown_of_an_idle_wildcard_bound_server_is_prompt() {
    // Bound to the unspecified address, the acceptor has sat blocked in
    // `accept()` for a second when shutdown has to wake it.
    let mut server = ServeServer::start(
        Arc::new(ServeEngine::new(GpuSpec::quadro_p4000())),
        "0.0.0.0:0",
        ServeConfig { workers: 1, queue: 1, shards: 1 },
    )
    .expect("server");
    let port = server.local_addr().port();
    std::thread::sleep(Duration::from_secs(1));
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(started.elapsed() < Duration::from_secs(2), "shutdown took {:?}", started.elapsed());
    // After shutdown a new connection is refused or never answered.
    if let Ok(mut post) = TcpStream::connect(("127.0.0.1", port)) {
        post.set_read_timeout(Some(Duration::from_millis(500))).expect("timeout");
        let _ = write!(post, "GET / HTTP/1.1\r\nHost: test\r\n\r\n");
        let mut buf = String::new();
        let _ = post.read_to_string(&mut buf);
        assert!(buf.is_empty(), "no handler should answer after shutdown: {buf}");
    }
}
