//! `tbd serve`: the fleet-scale capacity-planning query service
//! (DESIGN.md §5j).
//!
//! A query names a planning point — model × framework × batch × precision
//! × fusion × cluster × straggler seed — and the answer is the full
//! simulated verdict: iteration time, throughput, scaling efficiency,
//! exposed-communication ratio, the top-1 trace-mining diagnosis, and the
//! TCO columns ($/iteration, $/1k samples from
//! [`GpuSpec::price_per_hour`]). A cold query is one
//! [`ScaleEntry::replay`] — the grid-point evaluator `tbd scale` runs —
//! over the cached worker model, so a `fuse=0` answer carries exactly the
//! numbers of the scale report's entry of the same label and seed.
//!
//! # Why responses are deterministic
//!
//! The whole pipeline under a query is simulated time: the worker comes
//! from an untraced paper-scale profile (no executor runs, so no global
//! state is touched and queries are thread-safe), the event engine orders
//! events canonically, and the response JSON is rendered from a `BTreeMap` with
//! the repo's deterministic number formatting. No wall clock, no
//! counter, and no configuration knob of the *server* (worker count,
//! shard count, queue depth) ever reaches the response bytes — which is
//! exactly what makes the two cache layers safe:
//!
//! * **profile/lowering cache** — one worker model ([`DataParallelSim`]:
//!   iteration time plus per-layer backward profile, derived from one
//!   [`profile_workload`]) per (model, framework, batch, fuse, precision),
//!   which every cluster replay reuses. A miss times each distinct kernel
//!   of the stream once (`tbd_gpusim::simulate_iteration`'s per-stream
//!   table).
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

use tbd_distrib::DataParallelSim;
use tbd_frameworks::{Framework, SpeedOptions};
use tbd_gpusim::GpuSpec;
use tbd_models::ModelKind;
use tbd_profiler::http::{self, HttpFront, Response};
use tbd_profiler::json::Value;
use tbd_profiler::pool::WorkerPool;
use tbd_profiler::profile_workload;
use tbd_profiler::trace::fnv1a;
use tbd_tensor::Precision;

use crate::diagnose::resolve_cluster;
use crate::scale::ScaleEntry;

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
    /// Speed tier: graph-compiler fusion pass and kernel storage precision.
    pub speed: SpeedOptions,
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
            speed: SpeedOptions::fused(Precision::F32),
            cluster: "2M1G ethernet".to_string(),
            straggler_seed: None,
        }
    }

    /// Canonical key line. Every field that can change the answer is in
    /// here; nothing else is.
    pub fn canonical(&self) -> String {
        format!(
            "{}&cluster={}&stragglers={}",
            self.profile_key(),
            self.cluster,
            self.straggler_seed.map_or("none".to_string(), |s| s.to_string()),
        )
    }

    /// FNV-1a digest of [`ServeQuery::canonical`] — the result-cache key.
    pub fn digest(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }

    /// The profile-determining prefix of [`ServeQuery::canonical`]:
    /// model, framework, batch and speed tier.
    fn profile_key(&self) -> String {
        format!(
            "model={}&framework={}&batch={}&fuse={}&precision={}",
            self.model.name(),
            self.framework.name(),
            self.batch,
            u8::from(self.speed.fuse),
            self.speed.precision,
        )
    }

    /// Digest of the profile-cache key (the `profile_key` prefix).
    /// Queries differing only in cluster or straggler seed share one
    /// cached worker model.
    pub fn profile_digest(&self) -> u64 {
        fnv1a(self.profile_key().as_bytes())
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
/// name, an unparsable number, a zero batch or a `fuse` value that is not
/// a boolean.
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
        Some(v) => v
            .parse::<std::num::NonZeroUsize>()
            .map_err(|e| format!("invalid batch '{v}' ({e})"))?
            .get(),
        None => 4,
    };
    let fuse = match params.get("fuse").map(String::as_str) {
        None | Some("1" | "true" | "yes" | "on") => true,
        Some("0" | "false" | "no" | "off") => false,
        Some(other) => {
            return Err(format!("invalid fuse '{other}' (0, 1, true, false, yes, no, on, off)"))
        }
    };
    let precision = match params.get("precision") {
        Some(v) => v.parse::<Precision>()?,
        None => Precision::F32,
    };
    let cluster = params.get("cluster").cloned().unwrap_or_else(|| "2M1G ethernet".to_string());
    let straggler_seed = match params.get("stragglers") {
        Some(v) => Some(v.parse::<u64>().map_err(|_| format!("invalid straggler seed '{v}'"))?),
        None => None,
    };
    let speed = SpeedOptions { fuse, precision };
    Ok(ServeQuery { model, framework, batch, speed, cluster, straggler_seed })
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
    profiles: Mutex<HashMap<u64, Arc<DataParallelSim>>>,
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

    /// Profile/lowering-cache fills (profiles actually run).
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

    /// The profile/lowering cache: profiles (untraced) at most once per
    /// (model, framework, batch, fuse, precision) and keeps the worker
    /// model derived from that profile.
    fn worker(&self, query: &ServeQuery) -> Result<Arc<DataParallelSim>, String> {
        let key = query.profile_digest();
        if let Some(worker) = self.profiles.lock().expect("profile cache lock").get(&key) {
            return Ok(Arc::clone(worker));
        }
        // Compute outside the lock: distinct queries racing on the same
        // cold profile may duplicate this work, but results are identical
        // and the first insert wins; identical queries never get here
        // twice thanks to result-level single-flight.
        self.profile_computes.fetch_add(1, Ordering::Relaxed);
        let (kind, batch, gpu) = (query.model, query.batch, &self.gpu);
        let model = kind.build_full(batch).map_err(|e| e.to_string())?;
        let profile = profile_workload(kind, query.framework, &model, gpu, query.speed, None)
            .map_err(|_| format!("{} at batch {batch} does not fit {}", kind.name(), gpu.name))?;
        let worker = DataParallelSim::from_iteration(&model.graph, &profile.iteration, batch);
        let mut cache = self.profiles.lock().expect("profile cache lock");
        Ok(Arc::clone(cache.entry(key).or_insert_with(|| Arc::new(worker))))
    }

    /// Cold compute of one query: the [`ScaleEntry::replay`] of the
    /// requested cluster over the cached profile, rendered to the
    /// canonical response JSON.
    fn compute(&self, query: &ServeQuery, digest: u64) -> Result<Arc<String>, String> {
        let cluster = resolve_cluster(&query.cluster)?;
        let sim = self.worker(query)?;
        let entry = ScaleEntry::replay(
            &sim,
            query.cluster.clone(),
            &cluster,
            query.straggler_seed,
            query.model,
            query.framework,
            &self.gpu,
        );
        let price = self.gpu.price_per_hour;
        let exposed_comm_ratio = entry.exposed_comm_ratio();
        let opt_num = |v: Option<f64>| v.map_or(Value::Null, Value::Num);
        let mut obj = BTreeMap::new();
        obj.insert("schema_version".into(), Value::Num(SERVE_SCHEMA_VERSION as f64));
        obj.insert("model".into(), Value::Str(query.model.name().to_string()));
        obj.insert("framework".into(), Value::Str(query.framework.name().to_string()));
        obj.insert("batch".into(), Value::Num(query.batch as f64));
        obj.insert("fuse".into(), Value::Bool(query.speed.fuse));
        obj.insert("precision".into(), Value::Str(query.speed.precision.to_string()));
        obj.insert("cluster".into(), Value::Str(entry.label));
        obj.insert("sync".into(), Value::Str(entry.sync));
        obj.insert(
            "straggler_seed".into(),
            query.straggler_seed.map_or(Value::Null, |s| Value::Num(s as f64)),
        );
        obj.insert("gpu".into(), Value::Str(self.gpu.name.clone()));
        obj.insert("workers".into(), Value::Num(entry.workers as f64));
        obj.insert("iteration_s".into(), Value::Num(entry.iteration_s));
        obj.insert("throughput".into(), Value::Num(entry.throughput));
        obj.insert("scaling_efficiency".into(), Value::Num(entry.scaling_efficiency));
        obj.insert("comm_s".into(), Value::Num(entry.comm_s));
        obj.insert("exposed_comm_s".into(), Value::Num(entry.exposed_comm_s));
        obj.insert("exposed_comm_ratio".into(), opt_num(exposed_comm_ratio));
        obj.insert("overlap".into(), Value::Num(entry.overlap));
        obj.insert("slowdown_factor".into(), Value::Num(entry.slowdown_factor));
        obj.insert("retries".into(), Value::Num(entry.retries as f64));
        obj.insert("diagnosis".into(), entry.diagnosis.map_or(Value::Null, Value::Str));
        obj.insert("price_per_hour".into(), opt_num((price > 0.0).then_some(price)));
        obj.insert("cost_per_iteration".into(), opt_num(entry.cost_per_iteration));
        obj.insert("cost_per_1k_samples".into(), opt_num(entry.cost_per_1k_samples));
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
        assert!(!q.speed.fuse);
        assert_eq!(q.speed.precision, Precision::F16);
        assert_eq!(q.cluster, "4M4G infiniband");
        assert_eq!(q.straggler_seed, Some(7));
        assert!(parse_query("").is_err(), "model is required");
        assert!(parse_query("model=resnet50&batch=x").is_err());
        let err = parse_query("model=resnet50&batch=0").unwrap_err();
        assert!(err.starts_with("invalid batch '0'"), "{err}");
        for (value, fuse) in
            [("1", true), ("on", true), ("yes", true), ("false", false), ("off", false)]
        {
            let q = parse_query(&format!("model=resnet50&fuse={value}")).expect("parses");
            assert_eq!(q.speed.fuse, fuse, "fuse={value}");
        }
        for value in ["", "2", "maybe", "TRUE"] {
            let err = parse_query(&format!("model=resnet50&fuse={value}")).unwrap_err();
            assert!(err.starts_with("invalid fuse"), "fuse={value}: {err}");
        }
    }

    #[test]
    fn digests_separate_queries_and_share_profiles() {
        let a = ServeQuery::golden();
        let mut b = a.clone();
        b.cluster = "2M1G infiniband".to_string();
        assert_ne!(a.digest(), b.digest(), "different clusters, different results");
        assert_eq!(a.profile_digest(), b.profile_digest(), "same profile feeds both");
        let mut c = a.clone();
        c.speed.precision = Precision::F16;
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
