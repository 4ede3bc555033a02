//! `tbd serve`: the fleet-scale capacity-planning query service
//! (DESIGN.md §5j).
//!
//! A query names a planning point — model × framework × batch × precision
//! × fusion × cluster × straggler seed — and the answer is the full
//! simulated verdict: iteration time, throughput, scaling efficiency,
//! exposed-communication ratio, the top-1 trace-mining diagnosis, and the
//! TCO columns ($/iteration, $/1k samples from
//! [`GpuSpec::price_per_hour`]).
//!
//! # Why responses are deterministic
//!
//! The whole pipeline under a query is simulated time: the capture runs
//! simulation-only (`functional: false`, so no global executor state is
//! touched and queries are thread-safe), the event engine orders events
//! canonically, and the response JSON is rendered from a `BTreeMap` with
//! the repo's deterministic number formatting. No wall clock, no
//! counter, and no configuration knob of the *server* (worker count,
//! shard count, queue depth) ever reaches the response bytes — which is
//! exactly what makes the three cache layers safe:
//!
//! * **profile/lowering cache** — one [`ProfileArtifact`] per
//!   (model, framework, batch, fuse, precision): the captured iteration
//!   time plus the per-layer backward profile every cluster replay needs.
//! * **memoized rooflines** — `tbd-gpusim` answers repeated per-kernel
//!   timings from a thread-local table
//!   ([`tbd_gpusim::kernel_timing_memoized`]), bit-identical to cold.
//! * **sharded result cache** — finished response strings keyed by the
//!   query's FNV-1a digest, `digest % shards` picking the shard. Each
//!   shard holds `Ready` results and `Pending` flights: the first query
//!   for a key computes (the *leader*), concurrent identical queries
//!   block on the flight's condvar and share the leader's `Arc<String>`
//!   — single-flight, so a thundering herd of identical queries computes
//!   exactly once.
//!
//! A cache hit therefore returns the *same allocation* a cold compute
//! produced, making "hit ≡ cold compute, bytewise" trivially true — the
//! property `crates/core/tests/serve_props.rs` pins across thread and
//! shard counts.

use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use tbd_distrib::{BackwardProfile, DataParallelSim, EventConfig, StragglerSpec};
use tbd_frameworks::Framework;
use tbd_gpusim::GpuSpec;
use tbd_graph::lower::weight_grad_bytes_by_consumer;
use tbd_graph::trace::TraceRecorder;
use tbd_models::ModelKind;
use tbd_profiler::http::{self, HttpFront, Response};
use tbd_profiler::json::Value;
use tbd_profiler::pool::WorkerPool;
use tbd_profiler::trace::fnv1a;
use tbd_profiler::{capture, TraceOptions};
use tbd_tensor::Precision;

use crate::diagnose::resolve_cluster;

/// Version stamp of the serve-response JSON schema.
pub const SERVE_SCHEMA_VERSION: u64 = 1;

/// Default shard count of the result cache.
pub const DEFAULT_SHARDS: usize = 16;

/// Parses a model name the way the `tbd` CLI does (case/punctuation
/// insensitive, with the common aliases).
///
/// # Errors
///
/// Returns a message for an unknown name.
pub fn parse_model(name: &str) -> Result<ModelKind, String> {
    let normalized = name.to_lowercase().replace(['-', '_', ' '], "");
    ModelKind::ALL
        .into_iter()
        .find(|k| k.name().to_lowercase().replace(['-', ' '], "") == normalized)
        .or(match normalized.as_str() {
            "resnet" => Some(ModelKind::ResNet50),
            "inception" => Some(ModelKind::InceptionV3),
            "nmt" | "sockeye" => Some(ModelKind::Seq2Seq),
            "rcnn" | "fasterrcnn" => Some(ModelKind::FasterRcnn),
            "ds2" | "deepspeech" => Some(ModelKind::DeepSpeech2),
            _ => None,
        })
        .ok_or_else(|| format!("unknown model '{name}' (try `tbd list`)"))
}

/// Parses a framework profile name (`tensorflow`/`tf`, `mxnet`/`mx`,
/// `cntk`).
///
/// # Errors
///
/// Returns a message for an unknown name.
pub fn parse_framework(name: &str) -> Result<Framework, String> {
    match name.to_lowercase().as_str() {
        "tensorflow" | "tf" => Ok(Framework::tensorflow()),
        "mxnet" | "mx" => Ok(Framework::mxnet()),
        "cntk" => Ok(Framework::cntk()),
        other => Err(format!("unknown framework '{other}' (TensorFlow, MXNet, CNTK)")),
    }
}

/// One capacity-planning query — the cache key, fully canonicalised.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeQuery {
    /// Workload.
    pub model: ModelKind,
    /// Framework execution profile.
    pub framework: Framework,
    /// Per-GPU mini-batch.
    pub batch: usize,
    /// Graph-compiler fusion pass on/off.
    pub fuse: bool,
    /// Kernel storage precision.
    pub precision: Precision,
    /// Named grid point (`"2M1G ethernet"`, `"1M4G pcie"`, …).
    pub cluster: String,
    /// Straggler-injection seed; `None` simulates a healthy cluster.
    pub straggler_seed: Option<u64>,
}

impl ServeQuery {
    /// The query every golden artifact pins: ResNet-50 / MXNet / b4 over
    /// 2M1G Gigabit Ethernet, speed tier on, f32, healthy cluster — the
    /// paper's Observation-12 headline point.
    pub fn golden() -> ServeQuery {
        ServeQuery {
            model: ModelKind::ResNet50,
            framework: Framework::mxnet(),
            batch: 4,
            fuse: true,
            precision: Precision::F32,
            cluster: "2M1G ethernet".to_string(),
            straggler_seed: None,
        }
    }

    /// Canonical key line. Every field that can change the answer is in
    /// here; nothing else is.
    pub fn canonical(&self) -> String {
        format!(
            "model={}&framework={}&batch={}&fuse={}&precision={}&cluster={}&stragglers={}",
            self.model.name(),
            self.framework.name(),
            self.batch,
            u8::from(self.fuse),
            self.precision,
            self.cluster,
            self.straggler_seed.map_or("none".to_string(), |s| s.to_string()),
        )
    }

    /// FNV-1a digest of [`ServeQuery::canonical`] — the result-cache key.
    pub fn digest(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }

    /// Digest of the profile-cache key: the capture-determining subset
    /// (model, framework, batch, fuse, precision). Queries differing only
    /// in cluster or straggler seed share one [`ProfileArtifact`].
    pub fn profile_digest(&self) -> u64 {
        fnv1a(
            format!(
                "model={}&framework={}&batch={}&fuse={}&precision={}",
                self.model.name(),
                self.framework.name(),
                self.batch,
                u8::from(self.fuse),
                self.precision,
            )
            .as_bytes(),
        )
    }
}

/// Decodes one URL query-string component: `+` → space, `%XX` → byte.
/// Invalid escapes pass through literally (the parser rejects the value
/// downstream if it matters).
pub fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parses `/query` parameters (`model=resnet50&cluster=2M1G+ethernet&…`)
/// into a [`ServeQuery`]. `model` is required; everything else defaults
/// to the golden operating point (MXNet when it supports the model,
/// batch 4, fuse on, f32, `2M1G ethernet`, healthy).
///
/// # Errors
///
/// Returns a client-facing message for a missing model, an unknown
/// name, or an unparsable number.
pub fn parse_query(query_string: &str) -> Result<ServeQuery, String> {
    let mut params: BTreeMap<String, String> = BTreeMap::new();
    for pair in query_string.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        params.insert(url_decode(key), url_decode(value));
    }
    let model = parse_model(params.get("model").ok_or("missing required parameter 'model'")?)?;
    let framework = match params.get("framework") {
        Some(name) => parse_framework(name)?,
        // MXNet is the reference distributed profile everywhere else in
        // the repo (scale grid, diagnose baseline), so it is the default
        // here too; fall back to the first supporting profile.
        None if Framework::mxnet().supports(model) => Framework::mxnet(),
        None => Framework::all()
            .into_iter()
            .find(|fw| fw.supports(model))
            .ok_or_else(|| format!("no framework supports {}", model.name()))?,
    };
    let batch = match params.get("batch") {
        Some(v) => v.parse::<usize>().map_err(|_| format!("invalid batch '{v}'"))?,
        None => 4,
    };
    let fuse =
        !matches!(params.get("fuse").map(String::as_str), Some("0" | "false" | "no" | "off"));
    let precision = match params.get("precision") {
        Some(v) => v.parse::<Precision>()?,
        None => Precision::F32,
    };
    let cluster = params.get("cluster").cloned().unwrap_or_else(|| "2M1G ethernet".to_string());
    let straggler_seed = match params.get("stragglers") {
        Some(v) => Some(v.parse::<u64>().map_err(|_| format!("invalid straggler seed '{v}'"))?),
        None => None,
    };
    Ok(ServeQuery { model, framework, batch, fuse, precision, cluster, straggler_seed })
}

/// The interned graph/lowering artifact of one (model, framework, batch,
/// fuse, precision) point: everything a cluster replay needs, captured
/// once and shared by every query over it.
#[derive(Debug, Clone)]
pub struct ProfileArtifact {
    /// One worker's profiled iteration time, seconds.
    pub compute_iter_s: f64,
    /// Per-layer backward finish times and gradient bytes.
    pub backward: BackwardProfile,
}

/// A single-flight slot: the leader computes while followers wait on the
/// condvar and share the leader's result.
struct Flight {
    result: Mutex<Option<Result<Arc<String>, String>>>,
    ready: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight { result: Mutex::new(None), ready: Condvar::new() }
    }

    fn wait(&self) -> Result<Arc<String>, String> {
        let mut guard = self.result.lock().expect("flight lock");
        while guard.is_none() {
            guard = self.ready.wait(guard).expect("flight lock");
        }
        guard.clone().expect("loop exits on Some")
    }

    fn publish(&self, result: Result<Arc<String>, String>) {
        *self.result.lock().expect("flight lock") = Some(result);
        self.ready.notify_all();
    }
}

enum Slot {
    Ready(Arc<String>),
    Pending(Arc<Flight>),
}

/// The capacity-planning engine: profile cache + sharded single-flight
/// result cache over one device. Every front-end (`tbd serve` HTTP, `tbd
/// loadgen`, the test batteries) drives this same object.
pub struct ServeEngine {
    gpu: GpuSpec,
    shards: Vec<Mutex<HashMap<u64, Slot>>>,
    profiles: Mutex<HashMap<u64, Arc<ProfileArtifact>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    computes: AtomicU64,
    profile_computes: AtomicU64,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("gpu", &self.gpu.name)
            .field("shards", &self.shards.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl ServeEngine {
    /// An engine over `gpu` with [`DEFAULT_SHARDS`] result shards.
    pub fn new(gpu: GpuSpec) -> ServeEngine {
        ServeEngine::with_shards(gpu, DEFAULT_SHARDS)
    }

    /// An engine with an explicit shard count (≥ 1 enforced). Shard count
    /// is a throughput knob only — response bytes are identical for every
    /// value, a property `serve_props.rs` pins.
    pub fn with_shards(gpu: GpuSpec, shards: usize) -> ServeEngine {
        ServeEngine {
            gpu,
            shards: (0..shards.max(1)).map(|_| Mutex::new(HashMap::new())).collect(),
            profiles: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            computes: AtomicU64::new(0),
            profile_computes: AtomicU64::new(0),
        }
    }

    /// The device this engine plans for.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Requests answered from the result cache (including single-flight
    /// followers, which share a leader's compute).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that found no cached result and led a compute.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Full query computations actually performed — with single-flight,
    /// racing identical queries bump this exactly once.
    pub fn computes(&self) -> u64 {
        self.computes.load(Ordering::Relaxed)
    }

    /// Profile/lowering-cache fills (captures actually run).
    pub fn profile_computes(&self) -> u64 {
        self.profile_computes.load(Ordering::Relaxed)
    }

    /// Answers `query`, from cache when possible. The returned string is
    /// the deterministic response JSON; a cache hit returns the very
    /// allocation the cold compute produced.
    ///
    /// # Errors
    ///
    /// Returns a client-facing message for an unknown cluster label, a
    /// batch that does not fit the device, or a graph error. Errors are
    /// never cached: the slot is cleared so a later query retries.
    pub fn query(&self, query: &ServeQuery) -> Result<Arc<String>, String> {
        let digest = query.digest();
        let shard = &self.shards[(digest % self.shards.len() as u64) as usize];
        enum Role {
            Hit(Arc<String>),
            Follow(Arc<Flight>),
            Lead(Arc<Flight>),
        }
        let role = {
            let mut map = shard.lock().expect("serve shard lock");
            match map.get(&digest) {
                Some(Slot::Ready(response)) => Role::Hit(Arc::clone(response)),
                Some(Slot::Pending(flight)) => Role::Follow(Arc::clone(flight)),
                None => {
                    let flight = Arc::new(Flight::new());
                    map.insert(digest, Slot::Pending(Arc::clone(&flight)));
                    Role::Lead(flight)
                }
            }
        };
        match role {
            Role::Hit(response) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(response)
            }
            Role::Follow(flight) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                flight.wait()
            }
            Role::Lead(flight) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.computes.fetch_add(1, Ordering::Relaxed);
                let result = self.compute(query, digest);
                {
                    let mut map = shard.lock().expect("serve shard lock");
                    match &result {
                        Ok(response) => {
                            map.insert(digest, Slot::Ready(Arc::clone(response)));
                        }
                        Err(_) => {
                            map.remove(&digest);
                        }
                    }
                }
                flight.publish(result.clone());
                result
            }
        }
    }

    /// The profile/lowering cache: captures (simulation-only) at most once
    /// per (model, framework, batch, fuse, precision).
    fn artifact(&self, query: &ServeQuery) -> Result<Arc<ProfileArtifact>, String> {
        let key = query.profile_digest();
        if let Some(artifact) = self.profiles.lock().expect("profile cache lock").get(&key) {
            return Ok(Arc::clone(artifact));
        }
        // Compute outside the lock: distinct queries racing on the same
        // cold profile may duplicate this work, but results are identical
        // and the first insert wins; identical queries never get here
        // twice thanks to result-level single-flight.
        self.profile_computes.fetch_add(1, Ordering::Relaxed);
        let options = TraceOptions {
            functional: false, // simulation-only: no global executor state
            fuse: query.fuse,
            precision: query.precision,
            ..TraceOptions::default()
        };
        let cap = capture(query.model, query.framework, query.batch, &self.gpu, &options)
            .map_err(|e| e.to_string())?;
        let profile = cap.profile.as_ref().ok_or_else(|| {
            format!(
                "{} at batch {} does not fit {}",
                query.model.name(),
                query.batch,
                self.gpu.name
            )
        })?;
        let model = query.model.build_full(query.batch).map_err(|e| e.to_string())?;
        let grad_map: Vec<(usize, f64)> = weight_grad_bytes_by_consumer(&model.graph)
            .into_iter()
            .map(|(id, bytes)| (id.index(), bytes as f64))
            .collect();
        let compute_iter_s = profile.iteration.wall_time_s;
        let backward = BackwardProfile::from_records(
            compute_iter_s,
            &profile.iteration.records,
            &grad_map,
        );
        let artifact = Arc::new(ProfileArtifact { compute_iter_s, backward });
        let mut cache = self.profiles.lock().expect("profile cache lock");
        Ok(Arc::clone(cache.entry(key).or_insert(artifact)))
    }

    /// Cold compute of one query: cluster replay over the cached profile,
    /// diagnosis, TCO, rendered to the canonical response JSON.
    fn compute(&self, query: &ServeQuery, digest: u64) -> Result<Arc<String>, String> {
        let cluster = resolve_cluster(&query.cluster)?;
        let artifact = self.artifact(query)?;
        let sim = DataParallelSim {
            compute_iter_s: artifact.compute_iter_s,
            gradient_bytes: artifact.backward.total_bytes().max(1.0),
            per_gpu_batch: query.batch,
        };
        let config = EventConfig {
            stragglers: query.straggler_seed.map(StragglerSpec::with_seed),
            ..EventConfig::default()
        };
        let tracer = TraceRecorder::shared();
        let out = sim.simulate_events_traced(&cluster, &artifact.backward, &config, &tracer);
        let events = tracer.drain();
        let diagnosis = tbd_profiler::diagnose_events(
            query.model.name(),
            query.framework.name(),
            query.batch,
            &events,
        );
        let price = self.gpu.price_per_hour;
        let cost_per_iteration =
            (price > 0.0).then(|| cluster.cost_per_iteration(price, out.profile.iteration_s));
        let cost_per_1k_samples =
            cost_per_iteration.map(|c| c * 1000.0 / (cluster.workers() * query.batch) as f64);
        let opt_num = |v: Option<f64>| v.map_or(Value::Null, Value::Num);
        let mut obj = BTreeMap::new();
        obj.insert("schema_version".into(), Value::Num(SERVE_SCHEMA_VERSION as f64));
        obj.insert("model".into(), Value::Str(query.model.name().to_string()));
        obj.insert("framework".into(), Value::Str(query.framework.name().to_string()));
        obj.insert("batch".into(), Value::Num(query.batch as f64));
        obj.insert("fuse".into(), Value::Bool(query.fuse));
        obj.insert("precision".into(), Value::Str(query.precision.to_string()));
        obj.insert("cluster".into(), Value::Str(query.cluster.clone()));
        obj.insert("sync".into(), Value::Str(cluster.sync.name().to_string()));
        obj.insert(
            "straggler_seed".into(),
            query.straggler_seed.map_or(Value::Null, |s| Value::Num(s as f64)),
        );
        obj.insert("gpu".into(), Value::Str(self.gpu.name.clone()));
        obj.insert("workers".into(), Value::Num(cluster.workers() as f64));
        obj.insert("iteration_s".into(), Value::Num(out.profile.iteration_s));
        obj.insert("throughput".into(), Value::Num(out.profile.throughput));
        obj.insert("scaling_efficiency".into(), Value::Num(out.profile.scaling_efficiency));
        obj.insert("comm_s".into(), Value::Num(out.total_comm_s));
        obj.insert("exposed_comm_s".into(), Value::Num(out.exposed_comm_s));
        obj.insert("exposed_comm_ratio".into(), opt_num(out.exposed_fraction()));
        obj.insert("overlap".into(), Value::Num(out.overlap));
        obj.insert("slowdown_factor".into(), Value::Num(out.slowdown_factor));
        obj.insert("retries".into(), Value::Num(f64::from(out.retries)));
        obj.insert(
            "diagnosis".into(),
            Value::Str(diagnosis.top1().class.label().to_string()),
        );
        obj.insert("price_per_hour".into(), opt_num((price > 0.0).then_some(price)));
        obj.insert("cost_per_iteration".into(), opt_num(cost_per_iteration));
        obj.insert("cost_per_1k_samples".into(), opt_num(cost_per_1k_samples));
        obj.insert("query_digest".into(), Value::Str(format!("{digest:016x}")));
        Ok(Arc::new(Value::Obj(obj).to_string()))
    }
}

/// Configuration of a [`ServeServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Connection-handling worker threads.
    pub workers: usize,
    /// Bounded accept queue; overflow is answered `503`.
    pub queue: usize,
    /// Result-cache shards.
    pub shards: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { workers: 4, queue: 128, shards: DEFAULT_SHARDS }
    }
}

/// The `tbd serve` runtime: a [`ServeEngine`] behind the shared std-only
/// HTTP front ([`tbd_profiler::http`]) routing `GET /query`, `/health` and
/// `/`, connections dispatched through a bounded [`WorkerPool`].
#[derive(Debug)]
pub struct ServeServer {
    engine: Arc<ServeEngine>,
    front: HttpFront,
}

const SERVE_INDEX: &str = "tbd serve — capacity-planning query service\n\
GET /query?model=<m>[&framework=<fw>][&batch=<n>][&fuse=0|1]\
[&precision=f32|f16|bf16][&cluster=<label>][&stragglers=<seed>]\n\
GET /health\n";

impl ServeServer {
    /// Binds `addr` (port 0 for ephemeral) over a shared engine and
    /// starts the acceptor and its worker pool.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn start(
        engine: Arc<ServeEngine>,
        addr: &str,
        config: ServeConfig,
    ) -> std::io::Result<ServeServer> {
        let listener = TcpListener::bind(addr)?;
        let pool = WorkerPool::new(config.workers, config.queue);
        let router_engine = Arc::clone(&engine);
        let front = http::serve(listener, pool, move |path| route(&router_engine, path))?;
        Ok(ServeServer { engine, front })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The engine behind the HTTP front (shared: loadgen can drive it
    /// in-process while HTTP clients hit the same caches).
    pub fn engine(&self) -> &Arc<ServeEngine> {
        &self.engine
    }

    /// Graceful shutdown: stop accepting, then drain the pool — every
    /// accepted query is answered before the last worker exits.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.front.shutdown();
    }
}

fn route(engine: &ServeEngine, path: &str) -> Response {
    let (route, query_string) = path.split_once('?').unwrap_or((path, ""));
    match route {
        "/" => Response::text(200, SERVE_INDEX),
        "/health" => {
            // Stats live here, never in /query bytes — worker and shard
            // counts must stay unobservable in responses.
            let body = format!(
                "{{\"status\":\"ok\",\"hits\":{},\"misses\":{},\"computes\":{},\
                 \"profile_computes\":{}}}",
                engine.hits(),
                engine.misses(),
                engine.computes(),
                engine.profile_computes(),
            );
            Response::new(200, http::JSON, body)
        }
        "/query" => match parse_query(query_string).and_then(|q| engine.query(&q)) {
            Ok(response) => Response::new(200, http::JSON, response),
            Err(message) => Response::text(400, format!("{message}\n")),
        },
        _ => Response::text(404, "not found\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_decoding_handles_plus_percent_and_junk() {
        assert_eq!(url_decode("2M1G+ethernet"), "2M1G ethernet");
        assert_eq!(url_decode("2M1G%20ethernet"), "2M1G ethernet");
        assert_eq!(url_decode("a%2Bb"), "a+b");
        assert_eq!(url_decode("100%"), "100%");
        assert_eq!(url_decode("%zz"), "%zz");
    }

    #[test]
    fn query_parsing_fills_golden_defaults() {
        let q = parse_query("model=resnet50").expect("parses");
        assert_eq!(q, ServeQuery::golden());
        let q = parse_query(
            "model=seq2seq&framework=tf&batch=16&fuse=0&precision=f16&cluster=4M4G+infiniband&stragglers=7",
        )
        .expect("parses");
        assert_eq!(q.model, ModelKind::Seq2Seq);
        assert_eq!(q.framework.name(), "TensorFlow");
        assert_eq!(q.batch, 16);
        assert!(!q.fuse);
        assert_eq!(q.precision, Precision::F16);
        assert_eq!(q.cluster, "4M4G infiniband");
        assert_eq!(q.straggler_seed, Some(7));
        assert!(parse_query("").is_err(), "model is required");
        assert!(parse_query("model=resnet50&batch=x").is_err());
    }

    #[test]
    fn digests_separate_queries_and_share_profiles() {
        let a = ServeQuery::golden();
        let mut b = a.clone();
        b.cluster = "2M1G infiniband".to_string();
        assert_ne!(a.digest(), b.digest(), "different clusters, different results");
        assert_eq!(a.profile_digest(), b.profile_digest(), "same capture feeds both");
        let mut c = a.clone();
        c.precision = Precision::F16;
        assert_ne!(a.profile_digest(), c.profile_digest());
    }

    #[test]
    fn engine_answers_and_caches_the_golden_query() {
        let engine = ServeEngine::new(GpuSpec::quadro_p4000());
        let q = ServeQuery::golden();
        let cold = engine.query(&q).expect("computes");
        let hit = engine.query(&q).expect("cached");
        assert!(Arc::ptr_eq(&cold, &hit), "hit returns the cold allocation");
        assert_eq!(engine.computes(), 1);
        assert_eq!(engine.hits(), 1);
        assert!(cold.contains("\"diagnosis\":"), "{cold}");
        assert!(cold.contains("\"cost_per_iteration\":"), "{cold}");
        assert!(cold.contains("\"exposed_comm_ratio\":"), "{cold}");
        // Unknown cluster is a client error, and errors are not cached.
        let mut bad = q.clone();
        bad.cluster = "9M9G carrier-pigeon".to_string();
        assert!(engine.query(&bad).is_err());
        assert!(engine.query(&bad).is_err(), "error slot was cleared, not poisoned");
    }
}
