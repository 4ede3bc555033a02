//! Live telemetry: repeated captures behind a std-only HTTP endpoint
//! (DESIGN.md §5i) — the observability runtime `tbd watch` runs and the
//! future fleet-scale `tbd serve` will plug into.
//!
//! # One capture path, two front-ends
//!
//! [`observe`] is the single function both `tbd metrics` and the watch
//! worker call: it attaches a shared [`StreamingAggregator`] to a fresh
//! [`TraceRecorder`] (the recorder locks it for each batch), runs
//! [`capture_into`], streams the synthesised training run through the
//! same sink, and then reads the registry and the markdown through its
//! own handle — the registry augmented with the recorder's deterministic
//! `internal_*` overhead counters. Because both front-ends share this
//! function, `GET /metrics` is byte-identical to `tbd metrics --format
//! prom` for the same model/seed by construction (pinned by
//! `tests/report.rs`).
//!
//! # Server shape
//!
//! [`LiveServer`] is deliberately boring: one worker thread running
//! captures, plus the shared HTTP front of [`crate::http`] — a blocking
//! acceptor dispatching to a small [`WorkerPool`], shedding with a
//! drained `503` when the pool's queue is full — to which this module
//! supplies only its router. The capture worker publishes each finished
//! capture as an immutable [`Snapshot`] behind a mutex, so a
//! `GET /metrics` racing an in-flight capture always sees the last
//! *completed* capture — never a torn one. Between captures the worker
//! waits on a condvar that shutdown notifies, so a long `--interval-ms`
//! never delays shutdown. Shutdown stops and joins the worker, then the
//! front (which wakes its acceptor and drains the pool); the snapshot
//! mutex is only ever locked for a clone or a replace, so a dropped
//! connection or a mid-request shutdown cannot poison it.

use crate::agg::{series, MetricsRegistry, StreamingAggregator};
use crate::diagnose::diagnose;
use crate::http::{self, HttpFront, Response};
use crate::pool::WorkerPool;
use crate::report::{overhead_health_json, ReportContext};
use crate::sampling::synthesize_run;
use crate::trace::{capture_into, Capture, TraceOptions};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tbd_frameworks::Framework;
use tbd_gpusim::GpuSpec;
use tbd_graph::trace::{EventKind, RecorderOverhead, TraceLayer, TraceRecorder, TraceStore};
use tbd_graph::GraphError;
use tbd_models::ModelKind;

pub use crate::http::{parse_request_line, write_response, MAX_REQUEST_LINE};

/// Connection-handling threads behind the watch HTTP front.
pub const HTTP_POOL_WORKERS: usize = 4;

/// Accepted-but-not-yet-handled connections the watch front queues
/// before shedding load with `503`.
pub const HTTP_POOL_QUEUE: usize = 64;

/// One observed capture: the trace, the metrics snapshot (including the
/// `internal_*` self-observability counters) and the recorder overhead.
#[derive(Debug)]
pub struct Observation {
    /// The finished capture (trace, profile, OOM verdict, wall times).
    pub capture: Capture,
    /// Metrics registry folded live from the capture's event stream.
    pub registry: MetricsRegistry,
    /// The recorder's self-observability counters.
    pub overhead: RecorderOverhead,
    /// Simulated device name the capture ran against.
    pub gpu: String,
    /// The aggregator's human-readable markdown summary.
    pub markdown: String,
}

impl Observation {
    /// The stable window `(start, end)` of the streamed training run and
    /// the throughput sampled over it (§3.4.2), read back from the
    /// registry's `stable_*` gauges. `None` when the run never stabilised
    /// or, after an out-of-memory capture, never ran.
    pub fn stable_window(&self) -> Option<(usize, usize, f64)> {
        let gauge = |name| self.registry.gauge(name);
        let start = gauge("stable_window_start")? as usize;
        Some((start, start + gauge("stable_window_len")? as usize, gauge("stable_throughput")?))
    }
}

/// Captures `kind × framework × batch` on `gpu` with a live streaming
/// aggregator attached, streams the synthesised training run through the
/// same sink (so the rolling stable-window sees warm-up, autotuning and
/// steady state), and snapshots the registry with the recorder's
/// deterministic `internal_*` counters folded in.
///
/// `retain_cap` bounds the recorder's *stored* events for long-running
/// servers; the sink still observes everything, so the registry is exact
/// either way. `None` (the CLI default) retains the full trace.
///
/// # Errors
///
/// Propagates any [`GraphError`] from the underlying capture.
pub fn observe(
    kind: ModelKind,
    framework: Framework,
    batch: usize,
    gpu: &GpuSpec,
    options: &TraceOptions,
    retain_cap: Option<usize>,
) -> Result<Observation, GraphError> {
    let agg = StreamingAggregator::shared();
    let recorder = TraceRecorder::shared_with_sink(agg.clone());
    if let Some(cap) = retain_cap {
        recorder.set_retain_cap(cap);
    }
    let capture = capture_into(kind, framework, batch, gpu, options, &recorder)?;
    // Stream a synthesised training run through the same sink: the
    // aggregator's rolling window sees warm-up, autotuning and steady
    // state exactly as a live harness would publish them.
    if let Some(profile) = &capture.profile {
        let run = synthesize_run(profile.iteration.wall_time_s, 150, 200, 600, 42);
        let mut t_us = 0.0;
        let mut events = TraceStore::with_capacity(run.iteration_s.len());
        let name = events.intern("training iteration");
        for &s in &run.iteration_s {
            events
                .span(name, TraceLayer::Profiler, EventKind::Iteration, t_us, s * 1e6)
                .with_arg("batch", batch);
            t_us += s * 1e6;
        }
        recorder.record_batch(events);
    }
    let overhead = recorder.overhead();
    let agg = agg.lock().expect("aggregator lock");
    let mut registry = agg.registry();
    fold_internal_metrics(&mut registry, &overhead);
    let markdown = agg.to_markdown();
    Ok(Observation { capture, registry, overhead, gpu: gpu.name.clone(), markdown })
}

/// Adds the recorder's deterministic self-observability counters to a
/// registry as `internal_*` series (`tbd_internal_*` once exported). Only
/// trace-determined values are folded — wall-clock nanoseconds and the
/// sink-latency histogram stay out of every digested exporter and are
/// served on `/health` instead.
pub fn fold_internal_metrics(registry: &mut MetricsRegistry, overhead: &RecorderOverhead) {
    registry.inc("internal_events_recorded_total", overhead.events_total());
    for layer in TraceLayer::ALL {
        let count = overhead.events_by_layer[layer.index()];
        if count > 0 {
            registry
                .inc(series("internal_events_recorded_total", "layer", &layer.to_string()), count);
        }
    }
    registry.inc("internal_event_bytes_total", overhead.event_bytes_total);
    registry.inc("internal_events_dropped_total", overhead.events_dropped_total);
    registry.inc("internal_record_calls_total", overhead.record_calls_total);
}

/// The finished-capture artifact set the server publishes atomically.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// `MetricsRegistry::to_prometheus` output for the capture.
    pub prometheus: String,
    /// Chrome-trace JSON of the capture.
    pub trace_json: String,
    /// The self-contained HTML report.
    pub html: String,
    /// Report digest (FNV over the timestamp-free render).
    pub report_digest: String,
    /// Golden-trace digest of the capture.
    pub trace_digest: String,
    /// `/health` JSON fragment with the wall-clock overhead accounting.
    pub overhead_json: String,
}

/// A rendered report plus its digest.
#[derive(Debug, Clone)]
pub struct RenderedReport {
    /// The self-contained HTML document.
    pub html: String,
    /// FNV-1a digest of the timestamp-free render, 16 hex digits.
    pub digest_hex: String,
}

/// Renders the HTML report for an observation. `timestamp` is display-only
/// (pass [`crate::DIGEST_TIMESTAMP`] for a reproducible page); the digest always
/// covers the timestamp-free render. The page is rendered once: the digest
/// is taken from the same bytes ([`ReportContext::render_and_digest`]).
/// The diagnosis reads the observation's registry, the one the page's
/// metric table shows, so the trace is not folded a second time.
pub fn render_report(obs: &Observation, timestamp: &str) -> RenderedReport {
    let trace = &obs.capture.trace;
    let diagnosis = diagnose(trace, &obs.registry);
    let trace_digest = trace.digest_hex();
    let ctx = ReportContext {
        model: trace.model.name(),
        framework: trace.framework,
        batch: trace.batch,
        gpu: &obs.gpu,
        trace_digest: &trace_digest,
        events: &trace.events,
        registry: &obs.registry,
        diagnosis: &diagnosis,
        overhead: obs.overhead.clone(),
    };
    let (html, digest_hex) = ctx.render_and_digest(timestamp);
    RenderedReport { html, digest_hex }
}

/// The artifacts of one observation. The report, the Chrome export and
/// `trace_digest` share one digest pass: the trace caches it.
fn snapshot_of(obs: &Observation, capture_index: u64) -> Snapshot {
    let rendered = render_report(obs, &format!("capture #{capture_index}"));
    Snapshot {
        prometheus: obs.registry.to_prometheus(),
        trace_json: obs.capture.trace.to_chrome_json(),
        html: rendered.html,
        report_digest: rendered.digest_hex,
        trace_digest: obs.capture.trace.digest_hex(),
        overhead_json: overhead_health_json(
            &obs.overhead,
            obs.capture.wall.total_s,
            obs.capture.profile.as_ref().map_or(0.0, |p| p.iteration.wall_time_s),
        ),
    }
}

/// Configuration of a [`LiveServer`].
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Workload to capture.
    pub kind: ModelKind,
    /// Framework personality.
    pub framework: Framework,
    /// Per-GPU minibatch size.
    pub batch: usize,
    /// Simulated device.
    pub gpu: GpuSpec,
    /// Capture options (threads, speed tier, seed).
    pub options: TraceOptions,
    /// Stop the worker after this many captures; `0` runs until shutdown.
    pub max_captures: u64,
    /// Pause between captures.
    pub interval: Duration,
    /// Recorder retain cap for long-running processes (`None`: unbounded).
    pub retain_cap: Option<usize>,
}

impl WatchConfig {
    /// A watch over one workload with library defaults: capture forever,
    /// 1 s apart, unbounded retention.
    pub fn new(kind: ModelKind, framework: Framework, batch: usize, gpu: GpuSpec) -> Self {
        WatchConfig {
            kind,
            framework,
            batch,
            gpu,
            options: TraceOptions::default(),
            max_captures: 0,
            interval: Duration::from_secs(1),
            retain_cap: None,
        }
    }
}

#[derive(Debug)]
struct Shared {
    /// Set under the `captures` lock, so a waiter cannot miss it.
    stop: AtomicBool,
    captures: Mutex<u64>,
    /// Notified on every capture and on stop.
    progress: Condvar,
    capture_errors: AtomicU64,
    epoch: Instant,
    snapshot: Mutex<Option<Arc<Snapshot>>>,
}

impl Shared {
    fn health_json(&self) -> String {
        let snapshot = self.snapshot.lock().expect("snapshot lock");
        let (report_digest, trace_digest, overhead) = match snapshot.as_ref() {
            Some(s) => (s.report_digest.clone(), s.trace_digest.clone(), s.overhead_json.clone()),
            None => (String::new(), String::new(), "null".to_string()),
        };
        drop(snapshot);
        format!(
            "{{\"status\":\"ok\",\"uptime_s\":{:.3},\"captures\":{},\"capture_errors\":{},\
             \"last_report_digest\":\"{report_digest}\",\
             \"last_trace_digest\":\"{trace_digest}\",\"overhead\":{overhead}}}",
            self.epoch.elapsed().as_secs_f64(),
            *self.captures.lock().expect("captures lock"),
            self.capture_errors.load(Ordering::Relaxed),
        )
    }
}

/// The `tbd watch` runtime: a capture worker plus the shared HTTP front
/// bound to one address, serving `GET /metrics`, `/health`,
/// `/trace.json` and `/report`.
#[derive(Debug)]
pub struct LiveServer {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
    front: HttpFront,
}

impl LiveServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// worker and acceptor threads.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn start(config: WatchConfig, addr: &str) -> std::io::Result<LiveServer> {
        Self::start_with_pool(config, addr, WorkerPool::new(HTTP_POOL_WORKERS, HTTP_POOL_QUEUE))
    }

    pub(crate) fn start_with_pool(
        config: WatchConfig,
        addr: &str,
        pool: WorkerPool,
    ) -> std::io::Result<LiveServer> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            captures: Mutex::new(0),
            progress: Condvar::new(),
            capture_errors: AtomicU64::new(0),
            epoch: Instant::now(),
            snapshot: Mutex::new(None),
        });
        let router_shared = Arc::clone(&shared);
        let front = http::serve(listener, pool, move |path| route(&router_shared, path))?;
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || capture_worker(&config, &shared))
        };
        Ok(LiveServer { shared, worker: Some(worker), front })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Capture attempts that errored.
    pub fn capture_errors(&self) -> u64 {
        self.shared.capture_errors.load(Ordering::Relaxed)
    }

    /// Blocks until at least `n` captures completed or `timeout` elapsed;
    /// returns whether the target was reached.
    pub fn wait_for_captures(&self, n: u64, timeout: Duration) -> bool {
        let done = self.shared.captures.lock().expect("captures lock");
        let waited = self.shared.progress.wait_timeout_while(done, timeout, |done| *done < n);
        *waited.expect("captures lock").0 >= n
    }

    /// Clone of the last completed snapshot, if any capture finished.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.shared.snapshot.lock().expect("snapshot lock").as_deref().cloned()
    }

    /// Stops and joins the capture worker, then the HTTP front — the
    /// SIGINT-equivalent graceful path. Idempotent; the snapshot survives
    /// for inspection. The connection pool is drained last, so every
    /// accepted request is still answered.
    pub fn shutdown(&mut self) {
        {
            let _captures = self.shared.captures.lock().expect("captures lock");
            self.shared.stop.store(true, Ordering::Relaxed);
        }
        self.shared.progress.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        self.front.shutdown();
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn capture_worker(config: &WatchConfig, shared: &Shared) {
    let mut done = 0u64;
    while !shared.stop.load(Ordering::Relaxed) {
        match observe(
            config.kind,
            config.framework,
            config.batch,
            &config.gpu,
            &config.options,
            config.retain_cap,
        ) {
            Ok(obs) => {
                let snapshot = snapshot_of(&obs, done + 1);
                *shared.snapshot.lock().expect("snapshot lock") = Some(Arc::new(snapshot));
                done += 1;
                *shared.captures.lock().expect("captures lock") = done;
                shared.progress.notify_all();
            }
            Err(_) => {
                shared.capture_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        if config.max_captures > 0 && done >= config.max_captures {
            break;
        }
        let captures = shared.captures.lock().expect("captures lock");
        let running = |_: &mut u64| !shared.stop.load(Ordering::Relaxed);
        let _ = shared.progress.wait_timeout_while(captures, config.interval, running);
    }
}

const INDEX_HTML: &str = "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
<title>tbd watch</title></head><body><h1>tbd watch</h1><ul>\
<li><a href=\"/metrics\">/metrics</a> — Prometheus exposition</li>\
<li><a href=\"/health\">/health</a> — liveness + overhead accounting</li>\
<li><a href=\"/trace.json\">/trace.json</a> — latest Chrome trace</li>\
<li><a href=\"/report\">/report</a> — latest HTML run report</li>\
</ul></body></html>";

fn route(shared: &Shared, path: &str) -> Response {
    const HTML: &str = "text/html; charset=utf-8";
    match path {
        "/" => Response::new(200, HTML, INDEX_HTML.to_string()),
        "/health" => Response::new(200, http::JSON, shared.health_json()),
        "/metrics" | "/trace.json" | "/report" => {
            let snapshot = shared.snapshot.lock().expect("snapshot lock").clone();
            let Some(snap) = snapshot else {
                return Response::text(503, "no capture completed yet\n");
            };
            match path {
                "/metrics" => Response::new(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    snap.prometheus.clone(),
                ),
                "/trace.json" => Response::new(200, http::JSON, snap.trace_json.clone()),
                _ => Response::new(200, HTML, snap.html.clone()),
            }
        }
        _ => Response::text(404, "not found\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Overload shedding under a large request body: the 503 must reach
    /// the client even when its request is far bigger than one socket
    /// read, so the shed path drains the body before closing (FIN, not
    /// RST). Mirrors the `tbd serve` test in `tests/serve.rs`.
    #[test]
    fn overload_shed_survives_a_large_request_body() {
        use std::io::{Read as _, Write as _};
        use std::net::TcpStream;
        use std::sync::mpsc;

        // Saturate a 1-worker, 1-slot pool before the server gets it: a
        // job parks the worker and a second fills the queue slot.
        let pool = WorkerPool::new(1, 1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            started_tx.send(()).expect("test alive");
            release_rx.recv().expect("released");
        })
        .expect("worker job");
        started_rx.recv().expect("worker parked");
        pool.submit(|| {}).expect("queue slot");
        let mut config =
            WatchConfig::new(ModelKind::A3c, Framework::mxnet(), 4, GpuSpec::quadro_p4000());
        config.max_captures = 1;
        let mut server = LiveServer::start_with_pool(config, "127.0.0.1:0", pool).expect("bind");

        let mut probe = TcpStream::connect(server.local_addr()).expect("connect");
        probe.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        probe
            .write_all(b"POST /metrics HTTP/1.1\r\nContent-Length: 49152\r\n\r\n")
            .and_then(|()| probe.write_all(&[b'x'; 48 * 1024]))
            .expect("request with large body");
        probe.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut response = String::new();
        probe.read_to_string(&mut response).expect("read full 503 (FIN, not RST)");
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert!(response.contains("server overloaded"), "{response}");

        release_tx.send(()).expect("worker alive");
        server.shutdown();
    }

    #[test]
    fn request_lines_parse_or_reject() {
        assert_eq!(parse_request_line("GET /metrics HTTP/1.1"), Ok(("GET", "/metrics")));
        assert_eq!(parse_request_line("POST / HTTP/1.0"), Ok(("POST", "/")));
        assert_eq!(parse_request_line(""), Err(400));
        assert_eq!(parse_request_line("GET /metrics"), Err(400));
        assert_eq!(parse_request_line("GET /metrics SPDY/3"), Err(400));
        assert_eq!(parse_request_line("GET /a b HTTP/1.1"), Err(400));
    }

    #[test]
    fn internal_metrics_fold_deterministic_counters_only() {
        let mut registry = MetricsRegistry::default();
        let overhead = RecorderOverhead {
            events_by_layer: [2, 3, 0, 1, 0],
            event_bytes_total: 420,
            record_calls_total: 4,
            events_dropped_total: 1,
            record_ns_total: 999_999, // wall clock: must NOT appear
            ..RecorderOverhead::default()
        };
        fold_internal_metrics(&mut registry, &overhead);
        assert_eq!(registry.counter("internal_events_recorded_total"), Some(6));
        assert_eq!(
            registry.counter(&series("internal_events_recorded_total", "layer", "executor")),
            Some(2)
        );
        assert_eq!(registry.counter("internal_event_bytes_total"), Some(420));
        assert_eq!(registry.counter("internal_events_dropped_total"), Some(1));
        assert_eq!(registry.counter("internal_record_calls_total"), Some(4));
        assert!(
            !registry.canonical().contains("999999"),
            "wall-clock nanoseconds stay out of the registry"
        );
    }

    /// The simulation-only observation `tbd analyze` runs.
    fn analyze_observation(kind: ModelKind, framework: Framework, batch: usize) -> Observation {
        let options = TraceOptions {
            functional: false,
            speed: tbd_frameworks::SpeedOptions::default(),
            ..TraceOptions::default()
        };
        observe(kind, framework, batch, &GpuSpec::quadro_p4000(), &options, None).expect("builds")
    }

    #[test]
    fn observe_recovers_simulated_throughput_via_sampling() {
        let obs = analyze_observation(ModelKind::A3c, Framework::mxnet(), 16);
        let truth = obs.capture.profile.as_ref().expect("batch 16 fits").throughput;
        let (start, end, sampled) = obs.stable_window().expect("the run stabilises");
        let rel = (sampled - truth).abs() / truth;
        assert!(rel < 0.05, "sampled {sampled} vs simulated {truth}");
        // The window starts after the streamed run's 150 warm-up and 200
        // autotuning iterations.
        let window = crate::SamplingConfig::default().window;
        assert!(start + window >= 150 + 200 && end > start, "{start}..{end}");
    }

    #[test]
    fn observe_reports_oom_without_a_stable_window() {
        let obs = analyze_observation(ModelKind::ResNet50, Framework::tensorflow(), 512);
        assert!(obs.capture.profile.is_none());
        let oom = obs.capture.oom.as_ref().expect("batch 512 exceeds 8 GB");
        assert!(oom.to_string().contains("out of device memory"), "{oom}");
        assert_eq!(obs.stable_window(), None);
    }

    #[test]
    fn report_diagnosis_equals_the_diagnosis_of_the_whole_trace() {
        use crate::diagnose::diagnose_events;
        let pairs = [
            (ModelKind::A3c, Framework::mxnet(), 16),
            (ModelKind::Seq2Seq, Framework::tensorflow(), 64),
            (ModelKind::ResNet50, Framework::cntk(), 16),
            (ModelKind::ResNet50, Framework::tensorflow(), 512),
        ];
        for (kind, framework, batch) in pairs {
            let gpu = GpuSpec::quadro_p4000();
            let obs = observe(kind, framework, batch, &gpu, &TraceOptions::default(), None)
                .expect("builds");
            let trace = &obs.capture.trace;
            let whole =
                diagnose_events(trace.model.name(), trace.framework, trace.batch, &trace.events);
            assert_eq!(diagnose(trace, &obs.registry), whole, "{kind:?} b{batch}");
            let trace_digest = trace.digest_hex();
            let ctx = ReportContext {
                model: trace.model.name(),
                framework: trace.framework,
                batch: trace.batch,
                gpu: &obs.gpu,
                trace_digest: &trace_digest,
                events: &trace.events,
                registry: &obs.registry,
                diagnosis: &whole,
                overhead: obs.overhead.clone(),
            };
            let rendered = render_report(&obs, crate::DIGEST_TIMESTAMP);
            assert_eq!(rendered.digest_hex, ctx.render_and_digest(crate::DIGEST_TIMESTAMP).1);
            assert_eq!(obs.capture.oom.is_some(), batch == 512, "only b512 runs out of memory");
        }
    }
}
