//! The unified trace spine shared by every layer of the toolchain.
//!
//! The paper's measurement apparatus (§3.4) stitches together nvprof kernel
//! timelines, framework-level profiles and memory snapshots; this module is
//! the reproduction's equivalent backbone. Every layer — the functional
//! executor ([`crate::exec::Session`]), the GPU simulator (`tbd-gpusim`),
//! the framework profiles (`tbd-frameworks`), the cluster model
//! (`tbd-distrib`) and the analysis pipeline (`tbd-profiler`) — records
//! typed [`TraceEvent`]s into one [`TraceRecorder`], and `tbd-profiler`
//! merges them into a single per-iteration `Trace` with Chrome-trace and
//! nvprof-style exporters.
//!
//! The spine lives here (not in `tbd-profiler`) because `tbd-graph` is the
//! lowest crate all instrumented layers already depend on; `tbd-profiler`
//! re-exports everything, so user code only sees `tbd_profiler::trace`.
//!
//! Recording is zero-cost when disabled: instrumented code holds an
//! `Option<Arc<TraceRecorder>>` and the disabled path is a null check.
//! Threads inside the executor's wave scheduler buffer events locally and
//! publish the whole batch under a single short lock per wave, so tracing
//! never serialises kernel execution.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which layer of the toolchain emitted an event. Maps to a Chrome-trace
/// process so each layer gets its own swim-lane group in Perfetto.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TraceLayer {
    /// The functional graph executor (`tbd-graph::exec`), host wall-clock.
    Executor,
    /// The analytic device model (`tbd-gpusim`), simulated device time.
    GpuSim,
    /// Framework execution profiles (`tbd-frameworks`), simulated time.
    Framework,
    /// The cluster model (`tbd-distrib`), simulated time.
    Distrib,
    /// The analysis pipeline (`tbd-profiler`), logical analysis steps.
    Profiler,
}

impl TraceLayer {
    /// Chrome-trace `pid` of this layer's process.
    pub fn pid(self) -> u32 {
        match self {
            TraceLayer::Executor => 1,
            TraceLayer::GpuSim => 2,
            TraceLayer::Framework => 3,
            TraceLayer::Distrib => 4,
            TraceLayer::Profiler => 5,
        }
    }

    /// Human-readable process name shown in the trace viewer.
    pub fn process_name(self) -> &'static str {
        match self {
            TraceLayer::Executor => "executor (host)",
            TraceLayer::GpuSim => "gpusim (device model)",
            TraceLayer::Framework => "framework profile",
            TraceLayer::Distrib => "distrib (cluster model)",
            TraceLayer::Profiler => "profiler (analysis)",
        }
    }

    /// All layers, in pid order.
    pub const ALL: [TraceLayer; 5] = [
        TraceLayer::Executor,
        TraceLayer::GpuSim,
        TraceLayer::Framework,
        TraceLayer::Distrib,
        TraceLayer::Profiler,
    ];

    /// Dense index of this layer into per-layer accounting arrays
    /// (`ALL[layer.index()] == layer`).
    pub fn index(self) -> usize {
        self.pid() as usize - 1
    }

    /// Short lowercase label (the `Display` form and the canonical-line
    /// field).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceLayer::Executor => "executor",
            TraceLayer::GpuSim => "gpusim",
            TraceLayer::Framework => "framework",
            TraceLayer::Distrib => "distrib",
            TraceLayer::Profiler => "profiler",
        }
    }
}

impl fmt::Display for TraceLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What kind of work a span or instant event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventKind {
    /// Execution of one graph node (executor layer).
    NodeExec,
    /// A kernel resident on the simulated device.
    KernelExec,
    /// CPU-side kernel launch (driver + framework dispatch).
    KernelLaunch,
    /// Host-to-device (or device-to-host) copy.
    Memcpy,
    /// Device-memory allocation.
    Alloc,
    /// Device-memory release.
    Free,
    /// An allocation that failed (out of device memory).
    AllocFail,
    /// Framework synchronisation / bookkeeping that keeps the device idle.
    Sync,
    /// Gradient exchange (all-reduce / parameter-server push+pull).
    Communication,
    /// A whole training-iteration span.
    Iteration,
    /// A named phase of the pipeline (input pipeline, analysis stage…).
    Phase,
    /// An injected fault (worker crash, OOM, loss spike, stall, corrupted
    /// checkpoint) observed by the resilience layer.
    Fault,
    /// A recovery action taken in response to a fault (restore, replay,
    /// skip-batch, re-plan, wait).
    Recovery,
    /// A checkpoint written (or verified) by the training loop.
    Checkpoint,
    /// A membership-epoch transition in the elastic layer: the worker
    /// cohort changed (eviction or rejoin) and collectives re-bucketed.
    Membership,
    /// A worker evicted from the cohort after missing a collective
    /// deadline (exhausted per-bucket retries).
    Eviction,
    /// A previously evicted worker rejoining the cohort via checkpoint
    /// restore plus replay catch-up.
    Rejoin,
}

impl EventKind {
    /// Short lowercase label (the `Display` form, the canonical-line field
    /// and the Chrome-trace `kind` arg).
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::NodeExec => "node",
            EventKind::KernelExec => "kernel",
            EventKind::KernelLaunch => "launch",
            EventKind::Memcpy => "memcpy",
            EventKind::Alloc => "alloc",
            EventKind::Free => "free",
            EventKind::AllocFail => "alloc_fail",
            EventKind::Sync => "sync",
            EventKind::Communication => "comm",
            EventKind::Iteration => "iteration",
            EventKind::Phase => "phase",
            EventKind::Fault => "fault",
            EventKind::Recovery => "recovery",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Membership => "membership",
            EventKind::Eviction => "eviction",
            EventKind::Rejoin => "rejoin",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Typed argument value attached to an event. Only deterministic data may
/// be stored here — args always participate in the golden-trace digest.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// String argument.
    Str(Cow<'static, str>),
    /// Floating-point argument (digested by exact bit pattern).
    F64(f64),
    /// Unsigned integer argument.
    U64(u64),
    /// Boolean argument.
    Bool(bool),
}

impl ArgValue {
    /// JSON rendering of the value.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends the JSON rendering of the value to `out`: strings quoted
    /// and escaped, floats with six decimals, non-finite floats as `null`.
    pub fn write_json(&self, out: &mut String) {
        match self {
            ArgValue::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            ArgValue::F64(v) if v.is_finite() => write_fixed(out, *v, 6),
            ArgValue::F64(_) => out.push_str("null"),
            ArgValue::U64(v) => write_u64(out, *v),
            ArgValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }

    /// Canonical text used by the digest: exact, platform-independent.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        let _ = self.write_canonical(&mut out);
        out
    }

    /// Writes the canonical text ([`ArgValue::canonical`]) to `out`.
    fn write_canonical(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            ArgValue::Str(s) => {
                out.write_str("s:")?;
                out.write_str(s)
            }
            ArgValue::F64(v) => {
                out.write_str("f:")?;
                write_hex16(out, v.to_bits())
            }
            ArgValue::U64(v) => write!(out, "u:{v}"),
            ArgValue::Bool(b) => out.write_str(if *b { "b:true" } else { "b:false" }),
        }
    }
}

impl From<&'static str> for ArgValue {
    fn from(s: &'static str) -> Self {
        ArgValue::Str(Cow::Borrowed(s))
    }
}

impl From<String> for ArgValue {
    fn from(s: String) -> Self {
        ArgValue::Str(Cow::Owned(s))
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Appends `s` to `out` escaped for inclusion inside JSON quotes: `"`,
/// `\\`, `\n`, `\r` and `\t` get their short escapes, every other C0 control
/// character a `\u00XX` escape; all other text is copied unchanged. The
/// one JSON string escaper of the workspace (`tbd_profiler::json::escape`
/// wraps it).
pub fn escape_into(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `run..i` ends on a char boundary.
        out.push_str(&s[run..i]);
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Writes `v` as 16 lowercase hex digits, exactly like `{v:016x}`.
fn write_hex16(out: &mut impl fmt::Write, v: u64) -> fmt::Result {
    let mut digits = [0u8; 16];
    for (i, digit) in digits.iter_mut().enumerate() {
        *digit = HEX[((v >> (60 - 4 * i)) & 0xf) as usize];
    }
    out.write_str(std::str::from_utf8(&digits).expect("hex digits are ASCII"))
}

/// Longest digit run [`write_fixed`] produces: `m·2^40·10^9 < 2^123`,
/// which has at most 38 decimal digits.
const DIGITS_CAP: usize = 40;

/// `10^19`, the largest power of ten below `2^64`.
const TEN_POW_19: u128 = 10_000_000_000_000_000_000;

/// Writes the decimal digits of `x` so they end just before `buf[end]`,
/// zero-padded to at least `min` digits; returns the index of the first.
fn digits_before(buf: &mut [u8; DIGITS_CAP], mut end: usize, mut x: u64, min: usize) -> usize {
    let stop = end - min;
    while x > 0 || end > stop {
        end -= 1;
        buf[end] = b'0' + (x % 10) as u8;
        x /= 10;
    }
    end
}

fn push_ascii(out: &mut String, digits: &[u8]) {
    out.push_str(std::str::from_utf8(digits).expect("decimal digits are ASCII"));
}

/// Appends `v` in decimal, exactly like `{v}`.
pub fn write_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; DIGITS_CAP];
    let start = digits_before(&mut buf, DIGITS_CAP, v, 1);
    push_ascii(out, &buf[start..]);
}

/// Appends `v` with `decimals` fractional digits, byte-identical to
/// `format!("{v:.decimals$}")`.
///
/// A finite `v` is `m·2^e` with an integer `m < 2^53`, so `v·10^d` is the
/// exact rational `m·10^d·2^e`. For `e ≤ 40` and `d ≤ 9` it is rounded to
/// the integer `n` in `u128` arithmetic, ties to even as std rounds, and
/// `n` is printed with a point before its last `d` digits. The sign comes
/// from the sign bit, so `-0.0` and negatives that round to zero keep
/// their `-`. Everything else (larger exponents, more decimals, NaN and
/// the infinities) goes through std's formatter.
pub fn write_fixed(out: &mut String, v: f64, decimals: u32) {
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let (m, e) = if biased == 0 { (fraction, -1074) } else { (fraction | 1 << 52, biased - 1075) };
    if biased == 0x7ff || e > 40 || decimals > 9 {
        let _ = write!(out, "{v:.*}", decimals as usize);
        return;
    }
    let scaled = u128::from(m) * u128::from(10u64.pow(decimals));
    let n = if e >= 0 {
        scaled << e
    } else if e > -100 {
        let shift = e.unsigned_abs();
        let (q, r, half) = (scaled >> shift, scaled & ((1 << shift) - 1), 1u128 << (shift - 1));
        q + u128::from(r > half || (r == half && q & 1 == 1))
    } else {
        // `scaled < 2^83` is below half of `2^-e`.
        0
    };
    if bits >> 63 == 1 {
        out.push('-');
    }
    let mut buf = [0u8; DIGITS_CAP];
    let min = decimals as usize + 1;
    let start = match u64::try_from(n) {
        Ok(n) => digits_before(&mut buf, DIGITS_CAP, n, min),
        Err(_) => {
            // `n ≥ 2^64`: print the low 19 digits, then the (nonzero) rest,
            // so the digit loop only ever divides a `u64`.
            let low = digits_before(&mut buf, DIGITS_CAP, (n % TEN_POW_19) as u64, 19);
            digits_before(&mut buf, low, (n / TEN_POW_19) as u64, 1)
        }
    };
    let point = DIGITS_CAP - decimals as usize;
    push_ascii(out, &buf[start..point]);
    if decimals > 0 {
        out.push('.');
        push_ascii(out, &buf[point..]);
    }
}

/// One structured trace event: a span (`dur_us > 0`) or an instant.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event label (kernel name, op mnemonic, phase name).
    pub name: Cow<'static, str>,
    /// Emitting layer (Chrome-trace process).
    pub layer: TraceLayer,
    /// Work category.
    pub kind: EventKind,
    /// Start time in microseconds on the layer's own clock.
    pub start_us: f64,
    /// Duration in microseconds (0 for instant events).
    pub dur_us: f64,
    /// Track within the layer (Chrome-trace `tid`): simulated GPU stream,
    /// executor thread slot, memory track…
    pub track: u32,
    /// Whether `start_us`/`dur_us`/`track` are deterministic (simulated or
    /// logical time). Host wall-clock spans set this to `false`, and the
    /// golden-trace digest then ignores their timing fields while still
    /// digesting name, layer, kind and args.
    pub deterministic: bool,
    /// Typed arguments. Only deterministic values belong here — every arg
    /// participates in the golden-trace digest.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    /// Creates a deterministic span (simulated or logical time).
    pub fn span(
        name: impl Into<Cow<'static, str>>,
        layer: TraceLayer,
        kind: EventKind,
        start_us: f64,
        dur_us: f64,
    ) -> Self {
        TraceEvent {
            name: name.into(),
            layer,
            kind,
            start_us,
            dur_us,
            track: 0,
            deterministic: true,
            args: Vec::new(),
        }
    }

    /// Creates a deterministic instant event.
    pub fn instant(
        name: impl Into<Cow<'static, str>>,
        layer: TraceLayer,
        kind: EventKind,
        start_us: f64,
    ) -> Self {
        TraceEvent::span(name, layer, kind, start_us, 0.0)
    }

    /// Marks the timing fields as host wall-clock (excluded from digests).
    pub fn wall_clock(mut self) -> Self {
        self.deterministic = false;
        self
    }

    /// Sets the track (builder style).
    pub fn on_track(mut self, track: u32) -> Self {
        self.track = track;
        self
    }

    /// Attaches an argument (builder style).
    pub fn with_arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        self.args.push((key, value.into()));
        self
    }

    /// End time in microseconds.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }

    /// Canonical one-line form consumed by the golden-trace digest.
    ///
    /// Non-deterministic events contribute their identity (layer, kind,
    /// name, args) but not their wall-clock timing or thread attribution,
    /// which is what keeps digests stable across `intra_op_threads`
    /// settings while still asserting bitwise-identical *results* via
    /// value-hash args.
    pub fn canonical(&self) -> String {
        let mut line = String::with_capacity(64);
        let _ = self.write_canonical(&mut line);
        line
    }

    /// Writes the canonical line ([`TraceEvent::canonical`]) to `out`
    /// without building it first — the digest streams every event through
    /// an [`Fnv1a`] hasher this way.
    ///
    /// # Errors
    ///
    /// Propagates the writer's error.
    pub fn write_canonical(&self, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_str(self.layer.as_str())?;
        out.write_char('|')?;
        out.write_str(self.kind.as_str())?;
        out.write_char('|')?;
        out.write_str(&self.name)?;
        if self.deterministic {
            out.write_str("|t:")?;
            write_hex16(out, self.start_us.to_bits())?;
            out.write_char('+')?;
            write_hex16(out, self.dur_us.to_bits())?;
            write!(out, "@{}", self.track)?;
        }
        for (key, value) in &self.args {
            out.write_char('|')?;
            out.write_str(key)?;
            out.write_char('=')?;
            value.write_canonical(out)?;
        }
        Ok(())
    }
}

/// A live consumer of trace events, attached to a [`TraceRecorder`] via
/// [`TraceRecorder::set_sink`].
///
/// Sinks observe every recorded event *online*, batch by batch, in exactly
/// the order the recorder stores them — the contract that lets a streaming
/// aggregator (`tbd-profiler::agg`) fold an unbounded event stream into
/// bounded-memory metrics while the run is still executing, instead of
/// draining the whole trace afterwards. `consume` is called with the
/// recorder's event lock held so ordering is serialised; implementations
/// must be fast, must not panic, and must never call back into the
/// recorder.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Observes a batch of events that were just recorded, in order.
    fn consume(&self, events: &[TraceEvent]);
}

/// Number of log2 buckets in the sink-latency histogram: bucket `i` counts
/// sink batches whose `consume` call took `[2^i, 2^(i+1))` nanoseconds
/// (bucket 0 additionally absorbs sub-nanosecond readings), so 32 buckets
/// span up to ~4 s — far beyond any sane sink.
pub const SINK_LATENCY_BUCKETS: usize = 32;

/// Platform-independent size model of one retained event: a fixed struct
/// overhead plus the name bytes plus a fixed cost per typed argument. The
/// observer accounts its own memory with this formula (not
/// `size_of`-based arithmetic) so `tbd_internal_event_bytes_total` is
/// byte-identical across hosts and pointer widths.
#[must_use]
pub fn approx_event_bytes(event: &TraceEvent) -> u64 {
    64 + event.name.len() as u64 + 16 * event.args.len() as u64
}

/// The recorder's self-observability counters (DESIGN.md §5i): what the
/// observer itself cost, measured by the observer. Deterministic fields
/// (event counts, modelled bytes, drops) feed the `tbd_internal_*` metric
/// series; wall-clock fields (`record_ns_total`, the sink latency
/// histogram) are reported out-of-band via `/health` and the bench
/// overhead gate, never through digested exporters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecorderOverhead {
    /// Events recorded per layer, indexed by [`TraceLayer::index`].
    /// Includes events dropped past the retain cap — the sink observed
    /// them even when storage did not.
    pub events_by_layer: [u64; 5],
    /// Modelled bytes of every *retained* event ([`approx_event_bytes`]).
    pub event_bytes_total: u64,
    /// `record` + `record_batch` invocations.
    pub record_calls_total: u64,
    /// Events discarded by the retain cap (observed by the sink, not
    /// stored).
    pub events_dropped_total: u64,
    /// Host nanoseconds spent inside `record`/`record_batch` bodies,
    /// including sink folding. Wall-clock: never digested.
    pub record_ns_total: u64,
    /// Host nanoseconds spent inside attached-sink `consume` calls.
    pub sink_ns_total: u64,
    /// Batches forwarded to the attached sink.
    pub sink_batches_total: u64,
    /// Log2 histogram of per-batch sink `consume` latency in nanoseconds.
    pub sink_latency_hist: [u64; SINK_LATENCY_BUCKETS],
}

impl RecorderOverhead {
    /// Total events recorded across every layer (including dropped ones).
    pub fn events_total(&self) -> u64 {
        self.events_by_layer.iter().sum()
    }

    /// Fraction of `wall_s` seconds spent inside the recorder — the
    /// quantity the bench harness gates below 5%.
    pub fn overhead_fraction(&self, wall_s: f64) -> f64 {
        if wall_s <= 0.0 {
            return 0.0;
        }
        self.record_ns_total as f64 / 1e9 / wall_s
    }
}

#[derive(Debug, Default)]
struct OverheadCells {
    events_by_layer: [AtomicU64; 5],
    event_bytes: AtomicU64,
    record_calls: AtomicU64,
    dropped: AtomicU64,
    record_ns: AtomicU64,
    sink_ns: AtomicU64,
    sink_batches: AtomicU64,
    sink_latency_hist: [AtomicU64; SINK_LATENCY_BUCKETS],
}

impl OverheadCells {
    fn bucket(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            ((63 - ns.leading_zeros()) as usize).min(SINK_LATENCY_BUCKETS - 1)
        }
    }

    fn note_sink(&self, ns: u64) {
        self.sink_batches.fetch_add(1, Ordering::Relaxed);
        self.sink_ns.fetch_add(ns, Ordering::Relaxed);
        self.sink_latency_hist[Self::bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn note_events(&self, events: &[TraceEvent]) {
        let mut by_layer = [0u64; 5];
        for event in events {
            by_layer[event.layer.index()] += 1;
        }
        for (cell, n) in self.events_by_layer.iter().zip(by_layer) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    fn snapshot(&self) -> RecorderOverhead {
        let mut events_by_layer = [0u64; 5];
        for (slot, cell) in events_by_layer.iter_mut().zip(&self.events_by_layer) {
            *slot = cell.load(Ordering::Relaxed);
        }
        let mut sink_latency_hist = [0u64; SINK_LATENCY_BUCKETS];
        for (slot, cell) in sink_latency_hist.iter_mut().zip(&self.sink_latency_hist) {
            *slot = cell.load(Ordering::Relaxed);
        }
        RecorderOverhead {
            events_by_layer,
            event_bytes_total: self.event_bytes.load(Ordering::Relaxed),
            record_calls_total: self.record_calls.load(Ordering::Relaxed),
            events_dropped_total: self.dropped.load(Ordering::Relaxed),
            record_ns_total: self.record_ns.load(Ordering::Relaxed),
            sink_ns_total: self.sink_ns.load(Ordering::Relaxed),
            sink_batches_total: self.sink_batches.load(Ordering::Relaxed),
            sink_latency_hist,
        }
    }
}

/// A shared, thread-safe event sink with a wall-clock epoch.
///
/// Cloning the `Arc` hands the same sink to every layer; each layer either
/// pushes single events ([`TraceRecorder::record`]) or publishes a locally
/// buffered batch under one lock ([`TraceRecorder::record_batch`]).
///
/// An optional [`TraceSink`] observes every event live at the same batch
/// boundaries (streaming consumers pay nothing when detached: the hot path
/// is a null check under the lock already being held).
///
/// The recorder also watches itself: every record path feeds
/// [`RecorderOverhead`] (per-layer span counts, modelled retained bytes,
/// sink latency, drops), and an optional retain cap
/// ([`TraceRecorder::set_retain_cap`]) bounds stored events for
/// long-running servers — capped events still reach the sink, so streamed
/// metrics stay exact while storage stays bounded.
#[derive(Debug)]
pub struct TraceRecorder {
    events: Mutex<Vec<TraceEvent>>,
    sink: Mutex<Option<Arc<dyn TraceSink>>>,
    epoch: Instant,
    retain_cap: AtomicUsize,
    overhead: OverheadCells,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder {
            events: Mutex::new(Vec::new()),
            sink: Mutex::new(None),
            epoch: Instant::now(),
            retain_cap: AtomicUsize::new(usize::MAX),
            overhead: OverheadCells::default(),
        }
    }
}

impl TraceRecorder {
    /// Creates a shared recorder.
    pub fn shared() -> Arc<Self> {
        Arc::new(TraceRecorder::default())
    }

    /// Creates a shared recorder with a live [`TraceSink`] attached.
    pub fn shared_with_sink(sink: Arc<dyn TraceSink>) -> Arc<Self> {
        let recorder = TraceRecorder::default();
        *recorder.sink.lock().expect("sink lock") = Some(sink);
        Arc::new(recorder)
    }

    /// Attaches (or detaches, with `None`) a live event sink. Events
    /// recorded from now on are forwarded to the sink in recording order;
    /// already-recorded events are not replayed.
    pub fn set_sink(&self, sink: Option<Arc<dyn TraceSink>>) {
        *self.sink.lock().expect("sink lock") = sink;
    }

    /// Microseconds of host wall-clock elapsed since the recorder was
    /// created — the time base for executor-layer events.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Bounds the number of *retained* events. Once storage holds `cap`
    /// events, further ones are counted in
    /// [`RecorderOverhead::events_dropped_total`] and discarded — but the
    /// attached sink still observes them first, so streaming aggregation
    /// stays exact while a long-running server's memory stays bounded.
    /// The default cap is unlimited.
    pub fn set_retain_cap(&self, cap: usize) {
        self.retain_cap.store(cap, Ordering::Relaxed);
    }

    /// Snapshot of the recorder's self-observability counters.
    pub fn overhead(&self) -> RecorderOverhead {
        self.overhead.snapshot()
    }

    /// Appends one event, forwarding it to the attached sink (if any)
    /// while the event lock is held so sink order equals storage order.
    pub fn record(&self, event: TraceEvent) {
        let t0 = Instant::now();
        let mut events = self.events.lock().expect("trace lock");
        if let Some(sink) = self.sink.lock().expect("sink lock").as_ref() {
            let s0 = Instant::now();
            sink.consume(std::slice::from_ref(&event));
            self.overhead.note_sink(s0.elapsed().as_nanos() as u64);
        }
        self.overhead.record_calls.fetch_add(1, Ordering::Relaxed);
        self.overhead.note_events(std::slice::from_ref(&event));
        if events.len() < self.retain_cap.load(Ordering::Relaxed) {
            self.overhead.event_bytes.fetch_add(approx_event_bytes(&event), Ordering::Relaxed);
            events.push(event);
        } else {
            self.overhead.dropped.fetch_add(1, Ordering::Relaxed);
        }
        drop(events);
        self.overhead.record_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Appends a batch of events under a single lock — the cheap path for
    /// per-thread buffers inside the wave scheduler. The attached sink (if
    /// any) observes the whole batch in order before the lock drops.
    pub fn record_batch(&self, mut events: Vec<TraceEvent>) {
        if events.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let mut stored = self.events.lock().expect("trace lock");
        if let Some(sink) = self.sink.lock().expect("sink lock").as_ref() {
            let s0 = Instant::now();
            sink.consume(&events);
            self.overhead.note_sink(s0.elapsed().as_nanos() as u64);
        }
        self.overhead.record_calls.fetch_add(1, Ordering::Relaxed);
        self.overhead.note_events(&events);
        let room = self.retain_cap.load(Ordering::Relaxed).saturating_sub(stored.len());
        if events.len() > room {
            self.overhead.dropped.fetch_add((events.len() - room) as u64, Ordering::Relaxed);
            events.truncate(room);
        }
        let bytes: u64 = events.iter().map(approx_event_bytes).sum();
        self.overhead.event_bytes.fetch_add(bytes, Ordering::Relaxed);
        stored.append(&mut events);
        drop(stored);
        self.overhead.record_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace lock").len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns every recorded event.
    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace lock"))
    }

    /// Clones the recorded events without draining them.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace lock").clone()
    }
}

/// Streaming FNV-1a 64-bit hasher — the digest primitive of the trace,
/// report and checkpoint digests (stable, dependency-free and
/// platform-independent; [`value_hash`] inlines the same fold). FNV-1a
/// folds one byte at a time, so feeding a text in pieces gives exactly the
/// hash of the concatenation; as an [`fmt::Write`] it digests formatted
/// output without materialising it.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher over the empty input.
    #[must_use]
    pub const fn new() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.0 = h;
        self
    }

    /// The hash of everything folded in so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a 64-bit hash of `bytes` (see [`Fnv1a`]).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::new().update(bytes).finish()
}

/// Bitwise hash of an `f32` slice: equal exactly when the tensors are
/// bitwise identical. Attached to executor node spans so trace digests
/// assert the thread-count-invariance guarantee at the trace level.
#[must_use]
pub fn value_hash(data: &[f32]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_collects_and_drains() {
        let rec = TraceRecorder::shared();
        rec.record(TraceEvent::span("a", TraceLayer::GpuSim, EventKind::KernelExec, 0.0, 1.0));
        rec.record_batch(vec![
            TraceEvent::instant("b", TraceLayer::Executor, EventKind::NodeExec, 2.0),
            TraceEvent::instant("c", TraceLayer::Executor, EventKind::NodeExec, 3.0),
        ]);
        assert_eq!(rec.len(), 3);
        let events = rec.drain();
        assert_eq!(events.len(), 3);
        assert!(rec.is_empty());
        assert_eq!(events[0].name, "a");
        assert_eq!(events[2].end_us(), 3.0);
    }

    #[test]
    fn batch_publish_from_threads_is_lock_cheap_and_complete() {
        let rec = TraceRecorder::shared();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let rec = Arc::clone(&rec);
                scope.spawn(move || {
                    let local: Vec<TraceEvent> = (0..25)
                        .map(|i| {
                            TraceEvent::instant(
                                format!("t{t}e{i}"),
                                TraceLayer::Executor,
                                EventKind::NodeExec,
                                f64::from(i),
                            )
                            .on_track(t)
                        })
                        .collect();
                    rec.record_batch(local);
                });
            }
        });
        assert_eq!(rec.len(), 100);
    }

    #[test]
    fn canonical_ignores_wall_clock_timing_but_keeps_args() {
        let a = TraceEvent::span("relu", TraceLayer::Executor, EventKind::NodeExec, 10.0, 5.0)
            .wall_clock()
            .on_track(1)
            .with_arg("node", 7usize)
            .with_arg("value_hash", 0xDEADu64);
        let b = TraceEvent::span("relu", TraceLayer::Executor, EventKind::NodeExec, 99.0, 1.0)
            .wall_clock()
            .on_track(3)
            .with_arg("node", 7usize)
            .with_arg("value_hash", 0xDEADu64);
        assert_eq!(a.canonical(), b.canonical(), "wall times and tracks are excluded");
        let c = b.clone().with_arg("extra", true);
        assert_ne!(a.canonical(), c.canonical());
    }

    #[test]
    fn canonical_keeps_simulated_timing_exactly() {
        let a = TraceEvent::span("sgemm", TraceLayer::GpuSim, EventKind::KernelExec, 1.5, 2.5);
        let mut b = a.clone();
        assert_eq!(a.canonical(), b.canonical());
        b.start_us = 1.5 + 1e-12;
        assert_ne!(a.canonical(), b.canonical(), "sim times are digested bit-exactly");
    }

    #[test]
    fn value_hash_is_bitwise() {
        assert_eq!(value_hash(&[1.0, 2.0]), value_hash(&[1.0, 2.0]));
        assert_ne!(value_hash(&[1.0, 2.0]), value_hash(&[2.0, 1.0]));
        // 0.0 and -0.0 are numerically equal but not bitwise identical.
        assert_ne!(value_hash(&[0.0]), value_hash(&[-0.0]));
    }

    #[test]
    fn arg_values_render_json_and_canonical() {
        assert_eq!(ArgValue::from(3usize).to_json(), "3");
        assert_eq!(ArgValue::from(true).to_json(), "true");
        assert_eq!(ArgValue::from("conv\"x\"").to_json(), "\"conv\\\"x\\\"\"");
        assert_eq!(ArgValue::from(0.5f64).canonical(), format!("f:{:016x}", 0.5f64.to_bits()));
        assert!(ArgValue::F64(f64::NAN).to_json() == "null");
    }

    #[test]
    fn overhead_counts_events_bytes_and_calls_per_layer() {
        let rec = TraceRecorder::shared();
        let a = TraceEvent::span("a", TraceLayer::GpuSim, EventKind::KernelExec, 0.0, 1.0)
            .with_arg("bytes", 64u64);
        let expected_a = approx_event_bytes(&a);
        assert_eq!(expected_a, 64 + 1 + 16);
        rec.record(a);
        rec.record_batch(vec![
            TraceEvent::instant("bb", TraceLayer::Executor, EventKind::NodeExec, 2.0),
            TraceEvent::instant("cc", TraceLayer::Distrib, EventKind::Communication, 3.0),
        ]);
        let oh = rec.overhead();
        assert_eq!(oh.events_total(), 3);
        assert_eq!(oh.events_by_layer[TraceLayer::GpuSim.index()], 1);
        assert_eq!(oh.events_by_layer[TraceLayer::Executor.index()], 1);
        assert_eq!(oh.events_by_layer[TraceLayer::Distrib.index()], 1);
        assert_eq!(oh.record_calls_total, 2);
        assert_eq!(oh.event_bytes_total, expected_a + 2 * (64 + 2));
        assert_eq!(oh.events_dropped_total, 0);
        // No sink attached: no sink batches, but record time was measured.
        assert_eq!(oh.sink_batches_total, 0);
    }

    #[test]
    fn retain_cap_drops_storage_but_sink_sees_everything() {
        #[derive(Debug, Default)]
        struct Counting(AtomicU64);
        impl TraceSink for Counting {
            fn consume(&self, events: &[TraceEvent]) {
                self.0.fetch_add(events.len() as u64, Ordering::Relaxed);
            }
        }
        let sink = Arc::new(Counting::default());
        let rec = TraceRecorder::shared_with_sink(sink.clone());
        rec.set_retain_cap(3);
        for i in 0..5 {
            rec.record(TraceEvent::instant(
                format!("e{i}"),
                TraceLayer::Profiler,
                EventKind::Phase,
                f64::from(i),
            ));
        }
        rec.record_batch(vec![
            TraceEvent::instant("f", TraceLayer::Profiler, EventKind::Phase, 9.0),
            TraceEvent::instant("g", TraceLayer::Profiler, EventKind::Phase, 10.0),
        ]);
        assert_eq!(rec.len(), 3, "storage is capped");
        assert_eq!(sink.0.load(Ordering::Relaxed), 7, "sink observed every event");
        let oh = rec.overhead();
        assert_eq!(oh.events_dropped_total, 4);
        assert_eq!(oh.events_total(), 7, "dropped events still counted per layer");
        assert_eq!(oh.sink_batches_total, 6);
        assert_eq!(oh.sink_latency_hist.iter().sum::<u64>(), 6);
        // Retained bytes cover only the stored 3 events: e0..e2, 2-byte names.
        assert_eq!(oh.event_bytes_total, 3 * (64 + 2));
    }

    #[test]
    fn sink_latency_buckets_are_log2() {
        assert_eq!(OverheadCells::bucket(0), 0);
        assert_eq!(OverheadCells::bucket(1), 0);
        assert_eq!(OverheadCells::bucket(2), 1);
        assert_eq!(OverheadCells::bucket(3), 1);
        assert_eq!(OverheadCells::bucket(1024), 10);
        assert_eq!(OverheadCells::bucket(u64::MAX), SINK_LATENCY_BUCKETS - 1);
    }

    #[test]
    fn overhead_fraction_scales_with_wall_time() {
        let oh = RecorderOverhead { record_ns_total: 5_000_000, ..RecorderOverhead::default() };
        assert!((oh.overhead_fraction(1.0) - 0.005).abs() < 1e-12);
        assert_eq!(oh.overhead_fraction(0.0), 0.0);
    }

    #[test]
    fn layers_have_distinct_pids_and_names() {
        let mut pids: Vec<u32> = TraceLayer::ALL.iter().map(|l| l.pid()).collect();
        pids.sort_unstable();
        pids.dedup();
        assert_eq!(pids.len(), TraceLayer::ALL.len());
        for layer in TraceLayer::ALL {
            assert!(!layer.process_name().is_empty());
        }
    }
}
