//! The unified trace spine shared by every layer of the toolchain.
//!
//! The paper's measurement apparatus (§3.4) stitches together nvprof kernel
//! timelines, framework-level profiles and memory snapshots; this module is
//! the reproduction's equivalent backbone. Every layer — the functional
//! executor ([`crate::exec::Session`]), the GPU simulator (`tbd-gpusim`),
//! the framework profiles (`tbd-frameworks`), the cluster model
//! (`tbd-distrib`) and the analysis pipeline (`tbd-profiler`) — writes
//! its events into a [`TraceStore`] and publishes the store to one
//! [`TraceRecorder`], and `tbd-profiler` merges them into a single
//! per-iteration `Trace` with Chrome-trace and nvprof-style exporters.
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
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Which layer of the toolchain emitted an event. Maps to a Chrome-trace
/// process so each layer gets its own swim-lane group in Perfetto.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
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
#[repr(u8)]
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
    /// All kinds, in declaration order (`ALL[kind as usize] == kind`).
    pub const ALL: [EventKind; 17] = [
        EventKind::NodeExec,
        EventKind::KernelExec,
        EventKind::KernelLaunch,
        EventKind::Memcpy,
        EventKind::Alloc,
        EventKind::Free,
        EventKind::AllocFail,
        EventKind::Sync,
        EventKind::Communication,
        EventKind::Iteration,
        EventKind::Phase,
        EventKind::Fault,
        EventKind::Recovery,
        EventKind::Checkpoint,
        EventKind::Membership,
        EventKind::Eviction,
        EventKind::Rejoin,
    ];

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
            ArgValue::U64(v) => {
                out.write_str("u:")?;
                write_decimal(out, *v)
            }
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

/// `v` as 16 lowercase hex digits, exactly like `{v:016x}`.
fn hex16(v: u64) -> [u8; 16] {
    std::array::from_fn(|i| HEX[((v >> (60 - 4 * i)) & 0xf) as usize])
}

/// Writes `v` as 16 lowercase hex digits ([`hex16`]).
fn write_hex16(out: &mut impl fmt::Write, v: u64) -> fmt::Result {
    out.write_str(std::str::from_utf8(&hex16(v)).expect("hex digits are ASCII"))
}

/// Writes `v` in decimal, exactly like `{v}`.
fn write_decimal(out: &mut impl fmt::Write, v: u64) -> fmt::Result {
    let mut buf = [0u8; DIGITS_CAP];
    let start = digits_before(&mut buf, DIGITS_CAP, v, 1);
    out.write_str(std::str::from_utf8(&buf[start..]).expect("decimal digits are ASCII"))
}

/// Longest digit run [`write_fixed`] produces: `m·2^40·10^9 < 2^123`,
/// which has at most 38 decimal digits.
const DIGITS_CAP: usize = 40;

/// `10^19`, the largest power of ten below `2^64`.
const TEN_POW_19: u128 = 10_000_000_000_000_000_000;

/// `00`, `01`, … `99`: the digit pair of every value below 100.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Writes the decimal digits of `x` so they end just before `buf[end]`,
/// zero-padded to at least `min` digits; returns the index of the first.
/// Two digits per division.
fn digits_before(buf: &mut [u8; DIGITS_CAP], mut end: usize, mut x: u64, min: usize) -> usize {
    let stop = end - min;
    let mut pair = |end: &mut usize, x: u64| {
        let at = 2 * x as usize;
        *end -= 2;
        buf[*end..*end + 2].copy_from_slice(&DIGIT_PAIRS[at..at + 2]);
    };
    while x >= 100 {
        pair(&mut end, x % 100);
        x /= 100;
    }
    if x >= 10 {
        pair(&mut end, x);
    } else if x > 0 || end > stop {
        end -= 1;
        buf[end] = b'0' + x as u8;
    }
    while end > stop {
        end -= 1;
        buf[end] = b'0';
    }
    end
}

fn push_ascii(out: &mut String, digits: &[u8]) {
    out.push_str(std::str::from_utf8(digits).expect("decimal digits are ASCII"));
}

/// Appends `v` in decimal, exactly like `{v}`.
pub fn write_u64(out: &mut String, v: u64) {
    let _ = write_decimal(out, v);
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
    let scale = 10u64.pow(decimals);
    let scaled = u128::from(m) * u128::from(scale);
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
    let negative = bits >> 63 == 1;
    let mut buf = [0u8; DIGITS_CAP];
    if let Ok(n) = u64::try_from(n) {
        // At most 20 digits, the point and the sign: one run of `buf`.
        let mut start = if decimals == 0 {
            digits_before(&mut buf, DIGITS_CAP, n, 1)
        } else {
            let point = digits_before(&mut buf, DIGITS_CAP, n % scale, decimals as usize) - 1;
            buf[point] = b'.';
            digits_before(&mut buf, point, n / scale, 1)
        };
        if negative {
            start -= 1;
            buf[start] = b'-';
        }
        push_ascii(out, &buf[start..]);
        return;
    }
    if negative {
        out.push('-');
    }
    // `n ≥ 2^64`: print the low 19 digits, then the (nonzero) rest, so the
    // digit loop only ever divides a `u64`.
    let low = digits_before(&mut buf, DIGITS_CAP, (n % TEN_POW_19) as u64, 19);
    let start = digits_before(&mut buf, low, (n / TEN_POW_19) as u64, 1);
    let point = DIGITS_CAP - decimals as usize;
    push_ascii(out, &buf[start..point]);
    if decimals > 0 {
        out.push('.');
        push_ascii(out, &buf[point..]);
    }
}

/// A borrowed view of one event of a [`TraceStore`] — the one type every
/// reader (digests, exporters, aggregator, diagnosis, report) takes.
///
/// `name_id` addresses the owning store's name table: two events of one
/// store have equal ids exactly when their names are equal, so readers
/// group and compare names as integers.
#[derive(Debug, Clone, Copy)]
pub struct EventRef<'a> {
    /// Id of `name` in the owning store's name table.
    pub name_id: u32,
    /// Event label.
    pub name: &'a str,
    /// Emitting layer.
    pub layer: TraceLayer,
    /// Work category.
    pub kind: EventKind,
    /// Start time in microseconds on the layer's own clock.
    pub start_us: f64,
    /// Duration in microseconds (0 for instant events).
    pub dur_us: f64,
    /// Track within the layer.
    pub track: u32,
    /// Whether `start_us`/`dur_us`/`track` are deterministic (simulated or
    /// logical time). Host wall-clock spans set this to `false`, and the
    /// golden-trace digest then ignores their timing fields while still
    /// digesting name, layer, kind and args.
    pub deterministic: bool,
    /// Typed arguments, in insertion order. Only deterministic values
    /// belong here — every arg participates in the golden-trace digest.
    pub args: &'a [(&'static str, ArgValue)],
}

impl<'a> EventRef<'a> {
    /// End time in microseconds.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }

    /// The first argument named `key`.
    pub fn arg(&self, key: &str) -> Option<&'a ArgValue> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
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

    /// Writes the canonical line ([`EventRef::canonical`]) to `out`
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
        out.write_str(self.name)?;
        if self.deterministic {
            out.write_str("|t:")?;
            write_hex16(out, self.start_us.to_bits())?;
            out.write_char('+')?;
            write_hex16(out, self.dur_us.to_bits())?;
            out.write_char('@')?;
            write_decimal(out, self.track.into())?;
        }
        for (key, value) in self.args {
            out.write_char('|')?;
            out.write_str(key)?;
            out.write_char('=')?;
            value.write_canonical(out)?;
        }
        Ok(())
    }
}

/// A trace stored as columns: the storage of every recording.
///
/// - a per-store name table, each distinct name once, addressed by a
///   `u32` id;
/// - one column per field: the name id, `layer` and `kind` (one byte
///   each), `start_us`, `dur_us`, `track` and `deterministic`;
/// - one args arena, each event's args a contiguous range of it.
///
/// A producer writes each event with [`TraceStore::span`] on an id from
/// [`TraceStore::intern`], and publishes the store with
/// [`TraceRecorder::record_batch`], which appends the columns. Readers
/// borrow one [`EventRef`] per event.
///
/// [`TraceStore::digest_after`] caches its result. The fields are private,
/// and every method that changes an event drops the cache, so a cached
/// digest is never stale.
#[derive(Debug, Clone, Default)]
pub struct TraceStore {
    names: Vec<Cow<'static, str>>,
    index: HashMap<Cow<'static, str>, u32>,
    name: Vec<u32>,
    layer: Vec<TraceLayer>,
    kind: Vec<EventKind>,
    start_us: Vec<f64>,
    dur_us: Vec<f64>,
    track: Vec<u32>,
    deterministic: Vec<bool>,
    /// Index of each event's first arg in `args`.
    args_at: Vec<u32>,
    args: Vec<(&'static str, ArgValue)>,
    /// `(hasher state before the events, digest)` of the last
    /// [`TraceStore::digest_after`].
    digest: OnceLock<(u64, u64)>,
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> Self {
        TraceStore::default()
    }

    /// An empty store with room for `events` events carrying `args` args
    /// in total.
    pub fn with_capacity(events: usize, args: usize) -> Self {
        TraceStore {
            name: Vec::with_capacity(events),
            layer: Vec::with_capacity(events),
            kind: Vec::with_capacity(events),
            start_us: Vec::with_capacity(events),
            dur_us: Vec::with_capacity(events),
            track: Vec::with_capacity(events),
            deterministic: Vec::with_capacity(events),
            args_at: Vec::with_capacity(events),
            args: Vec::with_capacity(args),
            ..TraceStore::default()
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.name.len()
    }

    /// `true` when the store holds no event.
    pub fn is_empty(&self) -> bool {
        self.name.is_empty()
    }

    /// The name table: `names()[id]` is the name with id `id`.
    pub fn names(&self) -> &[Cow<'static, str>] {
        &self.names
    }

    /// The name-id column: `names()[name_ids()[i]]` names event `i`.
    pub fn name_ids(&self) -> &[u32] {
        &self.name
    }

    /// The start-time column.
    pub fn start_column(&self) -> &[f64] {
        &self.start_us
    }

    /// The duration column.
    pub fn dur_column(&self) -> &[f64] {
        &self.dur_us
    }

    /// The track column.
    pub fn track_column(&self) -> &[u32] {
        &self.track
    }

    /// The layer column.
    pub fn layer_column(&self) -> &[TraceLayer] {
        &self.layer
    }

    /// The kind column.
    pub fn kind_column(&self) -> &[EventKind] {
        &self.kind
    }

    /// The column of [`EventRef::deterministic`] flags.
    pub fn deterministic_column(&self) -> &[bool] {
        &self.deterministic
    }

    /// The args arena: every event's args, back to back in event order.
    pub fn args_arena(&self) -> &[(&'static str, ArgValue)] {
        &self.args
    }

    fn touch(&mut self) {
        self.digest.take();
    }

    /// The id of `name`, added to the name table on first use.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` distinct names.
    pub fn intern(&mut self, name: impl Into<Cow<'static, str>>) -> u32 {
        let name = name.into();
        if let Some(&id) = self.index.get(&name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("fewer than 2^32 distinct names");
        self.index.insert(name.clone(), id);
        self.names.push(name);
        id
    }

    /// Appends a deterministic span named by the id `name` (from
    /// [`TraceStore::intern`]) on track 0; the returned writer sets its
    /// track, clock and args.
    pub fn span(
        &mut self,
        name: u32,
        layer: TraceLayer,
        kind: EventKind,
        start_us: f64,
        dur_us: f64,
    ) -> EventWriter<'_> {
        debug_assert!((name as usize) < self.names.len(), "name id from this store");
        self.touch();
        let at = u32::try_from(self.args.len()).expect("fewer than 2^32 args");
        self.name.push(name);
        self.layer.push(layer);
        self.kind.push(kind);
        self.start_us.push(start_us);
        self.dur_us.push(dur_us);
        self.track.push(0);
        self.deterministic.push(true);
        self.args_at.push(at);
        EventWriter { store: self }
    }

    fn args_range(&self, i: usize) -> Range<usize> {
        let end = self.args_at.get(i + 1).map_or(self.args.len(), |&at| at as usize);
        self.args_at[i] as usize..end
    }

    /// The event at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len()`.
    pub fn event(&self, index: usize) -> EventRef<'_> {
        let name_id = self.name[index];
        EventRef {
            name_id,
            name: &self.names[name_id as usize],
            layer: self.layer[index],
            kind: self.kind[index],
            start_us: self.start_us[index],
            dur_us: self.dur_us[index],
            track: self.track[index],
            deterministic: self.deterministic[index],
            args: &self.args[self.args_range(index)],
        }
    }

    /// Every event, in recording order.
    pub fn iter(&self) -> Events<'_> {
        Events { store: self, range: 0..self.len() }
    }

    /// The events whose layer and kind `keep` accepts, in recording order.
    /// The filter reads only the one-byte `layer` and `kind` columns; an
    /// [`EventRef`] is built for each kept event alone.
    pub fn iter_where<'a>(
        &'a self,
        mut keep: impl FnMut(TraceLayer, EventKind) -> bool + 'a,
    ) -> impl Iterator<Item = EventRef<'a>> + 'a {
        (0..self.len()).filter(move |&i| keep(self.layer[i], self.kind[i])).map(|i| self.event(i))
    }

    /// Moves every event of `other` to the end of `self`, leaving `other`
    /// empty. Names keep their ids in `self`, and `other`'s new names get
    /// the next ids in `other`'s order: one lookup per distinct name.
    ///
    /// When `other` holds more events, `self` adopts `other`'s columns and
    /// moves its own events in front of them, so the longer store is never
    /// copied: `other`'s name ids are remapped and its arg offsets shifted
    /// in place.
    pub fn append(&mut self, other: &mut TraceStore) {
        self.touch();
        other.touch();
        let remap: Vec<u32> = if self.names.is_empty() {
            // Nothing is named yet, so `self` holds no event either.
            std::mem::swap(&mut self.names, &mut other.names);
            std::mem::swap(&mut self.index, &mut other.index);
            Vec::new()
        } else {
            other.index.clear();
            other.names.drain(..).map(|name| self.intern(name)).collect()
        };
        let shift = u32::try_from(self.args.len()).expect("fewer than 2^32 args");
        if other.len() <= self.len() {
            self.name.extend(other.name.drain(..).map(|id| remap[id as usize]));
            self.args_at.extend(other.args_at.drain(..).map(|at| at + shift));
            self.layer.append(&mut other.layer);
            self.kind.append(&mut other.kind);
            self.start_us.append(&mut other.start_us);
            self.dur_us.append(&mut other.dur_us);
            self.track.append(&mut other.track);
            self.deterministic.append(&mut other.deterministic);
            self.args.append(&mut other.args);
            return;
        }
        if !remap.is_empty() {
            other.name.iter_mut().for_each(|id| *id = remap[*id as usize]);
        }
        other.args_at.iter_mut().for_each(|at| *at += shift);
        adopt(&mut self.name, &mut other.name);
        adopt(&mut self.args_at, &mut other.args_at);
        adopt(&mut self.layer, &mut other.layer);
        adopt(&mut self.kind, &mut other.kind);
        adopt(&mut self.start_us, &mut other.start_us);
        adopt(&mut self.dur_us, &mut other.dur_us);
        adopt(&mut self.track, &mut other.track);
        adopt(&mut self.deterministic, &mut other.deterministic);
        adopt(&mut self.args, &mut other.args);
    }

    /// Keeps the first `len` events and drops the rest (and their args).
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        self.touch();
        self.args.truncate(self.args_at[len] as usize);
        self.name.truncate(len);
        self.layer.truncate(len);
        self.kind.truncate(len);
        self.start_us.truncate(len);
        self.dur_us.truncate(len);
        self.track.truncate(len);
        self.deterministic.truncate(len);
        self.args_at.truncate(len);
    }

    /// Keeps only the events `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(EventRef<'_>) -> bool) {
        let kept: Vec<bool> = self.iter().map(&mut keep).collect();
        if kept.iter().all(|&k| k) {
            return;
        }
        self.touch();
        // Where each event's args end in the old arena.
        let ends: Vec<usize> =
            self.args_at.iter().skip(1).map(|&at| at as usize).chain([self.args.len()]).collect();
        let mut args = std::mem::take(&mut self.args).into_iter();
        let mut args_at = Vec::with_capacity(self.len());
        let mut start = 0;
        for (&k, &end) in kept.iter().zip(&ends) {
            let own = (&mut args).take(end - start);
            if k {
                args_at.push(u32::try_from(self.args.len()).expect("fewer than 2^32 args"));
                self.args.extend(own);
            } else {
                own.for_each(drop);
            }
            start = end;
        }
        self.args_at = args_at;
        retain_column(&mut self.name, &kept);
        retain_column(&mut self.layer, &kept);
        retain_column(&mut self.kind, &kept);
        retain_column(&mut self.start_us, &kept);
        retain_column(&mut self.dur_us, &kept);
        retain_column(&mut self.track, &kept);
        retain_column(&mut self.deterministic, &kept);
    }

    /// Events per layer, indexed by [`TraceLayer::index`].
    pub fn layer_counts(&self) -> [u64; 5] {
        let mut counts = [0u64; 5];
        for layer in &self.layer {
            counts[layer.index()] += 1;
        }
        counts
    }

    /// Modelled bytes of the events ([`approx_event_bytes`] summed), from
    /// the columns: `64·n + Σ name.len() + 16·args`.
    pub fn approx_bytes(&self) -> u64 {
        let names: u64 = self.name.iter().map(|&id| self.names[id as usize].len() as u64).sum();
        64 * self.len() as u64 + names + 16 * self.args.len() as u64
    }

    /// FNV-1a over `seed` followed by `'\n'` + the canonical line
    /// ([`EventRef::write_canonical`]) of every event — the trace digest
    /// once `seed` has folded the trace header.
    ///
    /// The result is cached with the hasher state it started from, so a
    /// second call with an equal `seed` returns without hashing. A
    /// different seed (another header) recomputes, and every method that
    /// changes an event drops the cache.
    pub fn digest_after(&self, seed: &Fnv1a) -> u64 {
        let key = seed.finish();
        if let Some(&(cached_key, digest)) = self.digest.get() {
            if cached_key == key {
                return digest;
            }
        }
        let digest = self.fold_lines(key, true);
        let _ = self.digest.set((key, digest));
        digest
    }

    /// The FNV-1a state `h` after the canonical line of every event, each
    /// preceded by `'\n'` (the first one only when `newline_first`): the
    /// one fold under [`TraceStore::digest_after`] and [`events_digest`].
    ///
    /// Recurring strings go through [`Run`]s: each line head
    /// `"\n{layer}|{kind}|{name}"` (plus `"|t:"` when deterministic) keyed
    /// by name id and `(layer, kind, deterministic)`, each `"|{key}={tag}"`
    /// and each borrowed `Str` value. Times, numbers and owned strings
    /// are folded byte by byte.
    fn fold_lines(&self, mut h: u64, newline_first: bool) -> u64 {
        let mut heads: Vec<Vec<(HeadKey, Run)>> = (0..self.names.len()).map(|_| Vec::new()).collect();
        let mut statics = StaticRuns::new();
        for i in 0..self.len() {
            let (id, layer, kind, deterministic) =
                (self.name[i] as usize, self.layer[i], self.kind[i], self.deterministic[i]);
            let head: [&[u8]; 7] = [
                b"\n",
                layer.as_str().as_bytes(),
                b"|",
                kind.as_str().as_bytes(),
                b"|",
                self.names[id].as_bytes(),
                if deterministic { b"|t:" } else { b"" },
            ];
            h = if i == 0 && !newline_first {
                fold_pieces(h, &head[1..])
            } else {
                let runs = &mut heads[id];
                let key = (layer, kind, deterministic);
                let at = runs.iter().position(|(k, _)| *k == key).unwrap_or_else(|| {
                    runs.push((key, Run::default()));
                    runs.len() - 1
                });
                runs[at].1.fold(h, &head)
            };
            if deterministic {
                h = fold(h, &hex16(self.start_us[i].to_bits()));
                h = fold(h, b"+");
                h = fold(h, &hex16(self.dur_us[i].to_bits()));
                h = fold(h, b"@");
                h = fold_decimal(h, self.track[i].into());
            }
            for (key, value) in &self.args[self.args_range(i)] {
                h = match value {
                    ArgValue::Str(s) => {
                        let h = statics.fold(h, key, Tag::Str);
                        match s {
                            Cow::Borrowed(s) => statics.fold(h, s, Tag::Value),
                            Cow::Owned(s) => fold(h, s.as_bytes()),
                        }
                    }
                    ArgValue::F64(v) => fold(statics.fold(h, key, Tag::F64), &hex16(v.to_bits())),
                    ArgValue::U64(v) => fold_decimal(statics.fold(h, key, Tag::U64), *v),
                    ArgValue::Bool(b) => statics.fold(h, key, if *b { Tag::True } else { Tag::False }),
                };
            }
        }
        h
    }
}

/// FNV-1a's 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a state `h` after `bytes`, one byte at a time.
fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

fn fold_pieces(h: u64, pieces: &[&[u8]]) -> u64 {
    pieces.iter().fold(h, |h, piece| fold(h, piece))
}

/// [`fold`] of `v` in decimal ([`write_decimal`]).
fn fold_decimal(h: u64, v: u64) -> u64 {
    let mut buf = [0u8; DIGITS_CAP];
    let start = digits_before(&mut buf, DIGITS_CAP, v, 1);
    fold(h, &buf[start..])
}

/// One string's FNV-1a in a single step, from any state.
///
/// FNV-1a XORs each byte into the low byte of the state only, and
/// `h − h mod 256` is a multiple of 256, so by induction over the bytes
/// of `s`, modulo 2⁶⁴:
///
/// ```text
/// fold(h, s) = P^|s|·(h − h mod 256) + fold(h mod 256, s)
/// ```
///
/// For one byte `b` and `h = A + x` with `256 | A`: `(A + x) ^ b =
/// A + (x ^ b)`, so `fold(A + x, b) = A·P + fold(x, b)`, and `A·P` is again
/// a multiple of 256 for the next byte. The table holds `fold(l, s)` for
/// the 256 low bytes `l`, and `mul` is `P^|s|`.
struct RunTable {
    mul: u64,
    low: [u64; 256],
}

impl RunTable {
    fn new(pieces: &[&[u8]]) -> Self {
        let mut low: [u64; 256] = std::array::from_fn(|l| l as u64);
        let mut mul = 1u64;
        for &b in pieces.iter().flat_map(|piece| piece.iter()) {
            for h in &mut low {
                *h = (*h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
            mul = mul.wrapping_mul(FNV_PRIME);
        }
        RunTable { mul, low }
    }

    /// `fold(h, s)` for the table's string `s`.
    fn apply(&self, h: u64) -> u64 {
        self.mul.wrapping_mul(h & !0xff).wrapping_add(self.low[(h & 0xff) as usize])
    }
}

/// The use at which a recurring string gets its [`RunTable`].
///
/// The byte fold is one dependent XOR-multiply chain: each step waits for
/// the last, about four cycles of multiply latency. Building a table costs
/// 256 steps per byte, but its 256 chains are independent and pipeline
/// (or vectorise) at about one step per cycle, so a build costs about 64
/// chained steps per byte. Each later use then saves about one chained
/// step per byte, so the table pays for itself after 64 uses.
const TABLE_AT_USE: u32 = 64;

/// The uses of one recurring string in one digest, and its run table from
/// the [`TABLE_AT_USE`]th use on.
#[derive(Default)]
struct Run {
    uses: u32,
    table: Option<Box<RunTable>>,
}

impl Run {
    /// `fold(h, s)` for the string `s` the `pieces` spell.
    fn fold(&mut self, h: u64, pieces: &[&[u8]]) -> u64 {
        if let Some(table) = &self.table {
            return table.apply(h);
        }
        self.uses += 1;
        if self.uses < TABLE_AT_USE {
            return fold_pieces(h, pieces);
        }
        self.table.insert(Box::new(RunTable::new(pieces))).apply(h)
    }
}

/// The `(layer, kind, deterministic)` a line head is keyed by, next to its
/// name id.
type HeadKey = (TraceLayer, EventKind, bool);

/// What a [`StaticRuns`] string spells: an arg key with the tag of its
/// value, or a borrowed `Str` value itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    Str,
    F64,
    U64,
    True,
    False,
    Value,
}

/// The runs of `&'static str` arg keys and values in one digest, found by
/// the string's address and length (equal for equal `'static` text) in a
/// small open-addressed table: no string hashing per arg. Once the table
/// is full, a new string is folded byte by byte.
struct StaticRuns {
    slots: Vec<Option<(usize, usize, Tag, Run)>>,
}

impl StaticRuns {
    /// One per value of a hash's top byte: far more than the distinct
    /// static keys and values a trace carries.
    const SLOTS: usize = 256;

    fn new() -> Self {
        StaticRuns { slots: (0..Self::SLOTS).map(|_| None).collect() }
    }

    /// `fold(h, …)` of `"|{text}={tag}"` for an arg key, of `text` for a
    /// [`Tag::Value`].
    fn fold(&mut self, h: u64, text: &'static str, tag: Tag) -> u64 {
        let tag_text: &[u8] = match tag {
            Tag::Str => b"s:",
            Tag::F64 => b"f:",
            Tag::U64 => b"u:",
            Tag::True => b"b:true",
            Tag::False => b"b:false",
            Tag::Value => b"",
        };
        let pieces: [&[u8]; 4] = if tag == Tag::Value {
            [text.as_bytes(), b"", b"", b""]
        } else {
            [b"|", text.as_bytes(), b"=", tag_text]
        };
        let (at, len) = (text.as_ptr() as usize, text.len());
        let mix = (at as u64 ^ (len as u64) << 40 ^ tag as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let home = (mix >> 56) as usize;
        for probe in 0..Self::SLOTS {
            let slot = &mut self.slots[(home + probe) % Self::SLOTS];
            match slot {
                Some((a, l, t, run)) if (*a, *l, *t) == (at, len, tag) => return run.fold(h, &pieces),
                Some(_) => {}
                None => return slot.insert((at, len, tag, Run::default())).3.fold(h, &pieces),
            }
        }
        fold_pieces(h, &pieces)
    }
}

/// `column` followed by `tail`, in `tail`'s buffer: `column`'s items move
/// in front of `tail`'s, and `tail` is left empty.
fn adopt<T>(column: &mut Vec<T>, tail: &mut Vec<T>) {
    tail.reserve_exact(column.len());
    tail.splice(0..0, column.drain(..));
    std::mem::swap(column, tail);
}

fn retain_column<T>(column: &mut Vec<T>, kept: &[bool]) {
    let mut keep = kept.iter();
    column.retain(|_| *keep.next().expect("one flag per event"));
}

impl<'a> IntoIterator for &'a TraceStore {
    type Item = EventRef<'a>;
    type IntoIter = Events<'a>;

    fn into_iter(self) -> Events<'a> {
        self.iter()
    }
}

/// Iterator over the events of a [`TraceStore`].
#[derive(Debug, Clone)]
pub struct Events<'a> {
    store: &'a TraceStore,
    range: Range<usize>,
}

impl<'a> Iterator for Events<'a> {
    type Item = EventRef<'a>;

    fn next(&mut self) -> Option<EventRef<'a>> {
        self.range.next().map(|i| self.store.event(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for Events<'_> {}

/// Sets the track, clock and args of the event [`TraceStore::span`] just
/// appended.
#[derive(Debug)]
pub struct EventWriter<'a> {
    store: &'a mut TraceStore,
}

impl EventWriter<'_> {
    /// Sets the track.
    pub fn on_track(self, track: u32) -> Self {
        *self.store.track.last_mut().expect("an event was just appended") = track;
        self
    }

    /// Marks the timing fields as host wall-clock (excluded from digests).
    pub fn wall_clock(self) -> Self {
        *self.store.deterministic.last_mut().expect("an event was just appended") = false;
        self
    }

    /// Attaches an argument.
    pub fn with_arg(self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        self.store.args.push((key, value.into()));
        self
    }
}

/// A live consumer of trace events, attached to a [`TraceRecorder`] at
/// construction ([`TraceRecorder::shared_with_sink`]).
///
/// Sinks observe every recorded event *online*, batch by batch, in exactly
/// the order the recorder stores them — the contract that lets a streaming
/// aggregator (`tbd-profiler::agg`) fold an unbounded event stream into
/// bounded-memory metrics while the run is still executing, instead of
/// draining the whole trace afterwards. `consume` is called with the
/// recorder's lock held so ordering is serialised; implementations
/// must be fast, must not panic, and must never call back into the
/// recorder.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Observes a batch of events that were just recorded, in order.
    fn consume(&self, events: &TraceStore);
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
pub fn approx_event_bytes(event: EventRef<'_>) -> u64 {
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
    /// `record_batch` invocations with at least one event.
    pub record_calls_total: u64,
    /// Events discarded by the retain cap (observed by the sink, not
    /// stored).
    pub events_dropped_total: u64,
    /// Host nanoseconds spent inside `record_batch` bodies,
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

/// The log2 bucket of a sink latency of `ns` nanoseconds in
/// [`RecorderOverhead::sink_latency_hist`].
fn bucket(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((63 - ns.leading_zeros()) as usize).min(SINK_LATENCY_BUCKETS - 1)
    }
}

/// Everything a [`TraceRecorder`] guards with its one lock.
#[derive(Debug)]
struct Recorded {
    events: TraceStore,
    retain_cap: usize,
    overhead: RecorderOverhead,
}

/// A shared, thread-safe event sink with a wall-clock epoch.
///
/// Cloning the `Arc` hands the same sink to every layer; each layer
/// publishes a locally filled [`TraceStore`] under one lock
/// ([`TraceRecorder::record_batch`]), be it one event or a whole wave.
///
/// An optional [`TraceSink`], fixed at construction
/// ([`TraceRecorder::shared_with_sink`]), observes every event live at the
/// same batch boundaries (streaming consumers pay nothing when detached:
/// the hot path is a null check).
///
/// The recorder also watches itself: every batch feeds
/// [`RecorderOverhead`] (per-layer span counts, modelled retained bytes,
/// sink latency, drops), and an optional retain cap
/// ([`TraceRecorder::set_retain_cap`]) bounds stored events for
/// long-running servers — capped events still reach the sink, so streamed
/// metrics stay exact while storage stays bounded. The stored events, the
/// cap and the counters share the one lock `record_batch` holds.
#[derive(Debug)]
pub struct TraceRecorder {
    recorded: Mutex<Recorded>,
    sink: Option<Arc<dyn TraceSink>>,
    epoch: Instant,
}

impl TraceRecorder {
    fn new(sink: Option<Arc<dyn TraceSink>>) -> Self {
        TraceRecorder {
            recorded: Mutex::new(Recorded {
                events: TraceStore::new(),
                retain_cap: usize::MAX,
                overhead: RecorderOverhead::default(),
            }),
            sink,
            epoch: Instant::now(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Recorded> {
        self.recorded.lock().expect("trace lock")
    }

    /// Creates a shared recorder.
    pub fn shared() -> Arc<Self> {
        Arc::new(TraceRecorder::new(None))
    }

    /// Creates a shared recorder with a live [`TraceSink`] attached: every
    /// event it records is forwarded to the sink in recording order.
    pub fn shared_with_sink(sink: Arc<dyn TraceSink>) -> Arc<Self> {
        Arc::new(TraceRecorder::new(Some(sink)))
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
        self.lock().retain_cap = cap;
    }

    /// Snapshot of the recorder's self-observability counters.
    pub fn overhead(&self) -> RecorderOverhead {
        self.lock().overhead.clone()
    }

    /// Appends a batch of events under a single lock — the one way to
    /// record: every producer fills a [`TraceStore`] (one event or a whole
    /// wave, pass or simulated iteration) and publishes it here. An empty
    /// batch records nothing and is not counted. The attached sink (if any)
    /// observes the whole batch in order before the lock drops, so sink
    /// order equals storage order.
    pub fn record_batch(&self, mut batch: TraceStore) {
        if batch.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let mut guard = self.lock();
        let recorded = &mut *guard;
        let overhead = &mut recorded.overhead;
        if let Some(sink) = &self.sink {
            let s0 = Instant::now();
            sink.consume(&batch);
            let ns = s0.elapsed().as_nanos() as u64;
            overhead.sink_batches_total += 1;
            overhead.sink_ns_total += ns;
            overhead.sink_latency_hist[bucket(ns)] += 1;
        }
        overhead.record_calls_total += 1;
        for (total, n) in overhead.events_by_layer.iter_mut().zip(batch.layer_counts()) {
            *total += n;
        }
        let room = recorded.retain_cap.saturating_sub(recorded.events.len());
        if batch.len() > room {
            overhead.events_dropped_total += (batch.len() - room) as u64;
            batch.truncate(room);
        }
        overhead.event_bytes_total += batch.approx_bytes();
        recorded.events.append(&mut batch);
        overhead.record_ns_total += t0.elapsed().as_nanos() as u64;
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns every recorded event.
    pub fn drain(&self) -> TraceStore {
        std::mem::take(&mut self.lock().events)
    }

    /// Clones the recorded events without draining them.
    pub fn snapshot(&self) -> TraceStore {
        self.lock().events.clone()
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
        self.0 = fold(self.0, bytes);
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

/// FNV-1a digest of an event list: each event's canonical line
/// ([`EventRef::write_canonical`]) followed by `'\n'`, folded without
/// building the text (the fold of [`TraceStore::digest_after`]).
#[must_use]
pub fn events_digest(events: &TraceStore) -> u64 {
    let h = Fnv1a::new().finish();
    if events.is_empty() {
        return h;
    }
    fold(events.fold_lines(h, false), b"\n")
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
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A store holding one instant per name, in order, on `layer`.
    fn instants(layer: TraceLayer, names: &[&'static str]) -> TraceStore {
        let mut store = TraceStore::new();
        for (i, &name) in names.iter().enumerate() {
            let id = store.intern(name);
            store.span(id, layer, EventKind::NodeExec, i as f64, 0.0);
        }
        store
    }

    #[test]
    fn recorder_collects_and_drains() {
        let rec = TraceRecorder::shared();
        let mut one = TraceStore::new();
        let a = one.intern("a");
        one.span(a, TraceLayer::GpuSim, EventKind::KernelExec, 0.0, 1.0);
        rec.record_batch(one);
        rec.record_batch(instants(TraceLayer::Executor, &["b", "c"]));
        rec.record_batch(TraceStore::new());
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.overhead().record_calls_total, 2, "an empty batch is not a call");
        let events = rec.drain();
        assert_eq!(events.len(), 3);
        assert!(rec.is_empty());
        assert_eq!(events.event(0).name, "a");
        assert_eq!(events.event(2).name, "c");
        assert_eq!(events.event(2).end_us(), 1.0);
    }

    #[test]
    fn batch_publish_from_threads_is_lock_cheap_and_complete() {
        let rec = TraceRecorder::shared();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let rec = Arc::clone(&rec);
                scope.spawn(move || {
                    let mut local = TraceStore::new();
                    for i in 0..25 {
                        let name = local.intern(format!("t{t}e{i}"));
                        local
                            .span(name, TraceLayer::Executor, EventKind::NodeExec, i.into(), 0.0)
                            .on_track(t);
                    }
                    rec.record_batch(local);
                });
            }
        });
        assert_eq!(rec.len(), 100);
    }

    /// The canonical line of a `relu` node span written with `write`.
    fn relu_line(start_us: f64, write: impl FnOnce(EventWriter<'_>)) -> String {
        let mut store = TraceStore::new();
        let name = store.intern("relu");
        write(store.span(name, TraceLayer::Executor, EventKind::NodeExec, start_us, 5.0));
        store.event(0).canonical()
    }

    #[test]
    fn canonical_ignores_wall_clock_timing_but_keeps_args() {
        let a = relu_line(10.0, |w| {
            w.wall_clock().on_track(1).with_arg("node", 7usize).with_arg("value_hash", 0xDEADu64);
        });
        let b = relu_line(99.0, |w| {
            w.wall_clock().on_track(3).with_arg("node", 7usize).with_arg("value_hash", 0xDEADu64);
        });
        let c = relu_line(99.0, |w| {
            w.wall_clock()
                .on_track(3)
                .with_arg("node", 7usize)
                .with_arg("value_hash", 0xDEADu64)
                .with_arg("extra", true);
        });
        assert_eq!(a, b, "wall times and tracks are excluded");
        assert_ne!(a, c);
    }

    #[test]
    fn canonical_keeps_simulated_timing_exactly() {
        let sim = |start_us| relu_line(start_us, |_| {});
        assert_eq!(sim(1.5), sim(1.5));
        assert_ne!(sim(1.5), sim(1.5 + 1e-12), "sim times are digested bit-exactly");
    }

    #[test]
    fn events_digest_hashes_the_newline_terminated_canonical_lines() {
        let mut events = TraceStore::new();
        let sgemm = events.intern("sgemm");
        events.span(sgemm, TraceLayer::GpuSim, EventKind::KernelExec, 1.5, 2.5);
        let b = events.intern("b");
        events
            .span(b, TraceLayer::Executor, EventKind::NodeExec, 2.0, 0.0)
            .with_arg("node", 3usize);
        let text: String = events.iter().map(|e| e.canonical() + "\n").collect();
        assert_eq!(events_digest(&events), fnv1a(text.as_bytes()));
        assert_eq!(events_digest(&TraceStore::new()), fnv1a(b""));
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
        let mut a = TraceStore::new();
        let name = a.intern("a");
        a.span(name, TraceLayer::GpuSim, EventKind::KernelExec, 0.0, 1.0).with_arg("bytes", 64u64);
        let expected_a = a.approx_bytes();
        assert_eq!(expected_a, 64 + 1 + 16);
        rec.record_batch(a);
        let mut two = instants(TraceLayer::Executor, &["bb"]);
        let cc = two.intern("cc");
        two.span(cc, TraceLayer::Distrib, EventKind::Communication, 3.0, 0.0);
        rec.record_batch(two);
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
            fn consume(&self, events: &TraceStore) {
                self.0.fetch_add(events.len() as u64, Ordering::Relaxed);
            }
        }
        let sink = Arc::new(Counting::default());
        let rec = TraceRecorder::shared_with_sink(sink.clone());
        rec.set_retain_cap(3);
        for name in ["e0", "e1", "e2", "e3", "e4"] {
            rec.record_batch(instants(TraceLayer::Profiler, &[name]));
        }
        rec.record_batch(instants(TraceLayer::Profiler, &["f", "g"]));
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
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 0);
        assert_eq!(bucket(2), 1);
        assert_eq!(bucket(3), 1);
        assert_eq!(bucket(1024), 10);
        assert_eq!(bucket(u64::MAX), SINK_LATENCY_BUCKETS - 1);
    }

    #[test]
    fn overhead_fraction_scales_with_wall_time() {
        let oh = RecorderOverhead { record_ns_total: 5_000_000, ..RecorderOverhead::default() };
        assert!((oh.overhead_fraction(1.0) - 0.005).abs() < 1e-12);
        assert_eq!(oh.overhead_fraction(0.0), 0.0);
    }

    /// `count` kernel spans named `n0`, `n1`, … cycling through `distinct`
    /// names, event `i` starting at `i` and carrying `i % 3` args.
    fn numbered(count: usize, distinct: usize) -> TraceStore {
        let mut store = TraceStore::new();
        for i in 0..count {
            let name = store.intern(format!("n{}", i % distinct));
            let at = i as f64;
            let mut event = store.span(name, TraceLayer::GpuSim, EventKind::KernelExec, at, 1.0);
            for a in 0..i % 3 {
                event = event.with_arg("a", a);
            }
        }
        store
    }

    /// Event `i` of [`numbered`]: its start and its canonical line, built
    /// with `format!`.
    fn numbered_line(i: usize, distinct: usize) -> (usize, String) {
        let mut line = format!(
            "gpusim|kernel|n{}|t:{:016x}+{:016x}@0",
            i % distinct,
            (i as f64).to_bits(),
            1f64.to_bits()
        );
        for a in 0..i % 3 {
            line += &format!("|a=u:{a}");
        }
        (i, line)
    }

    fn lines(store: &TraceStore) -> Vec<String> {
        store.iter().map(|e| e.canonical()).collect()
    }

    fn expected_lines(rows: &[(usize, String)]) -> Vec<String> {
        rows.iter().map(|(_, line)| line.clone()).collect()
    }

    #[test]
    fn store_interns_each_name_once() {
        let store = numbered(200, 40);
        let rows: Vec<_> = (0..200).map(|i| numbered_line(i, 40)).collect();
        assert_eq!(store.names().len(), 40, "one entry per distinct name");
        assert_eq!(lines(&store), expected_lines(&rows));
        for (i, e) in store.iter().enumerate() {
            assert_eq!(e.name_id as usize, i % 40);
        }
        assert_eq!(store.args_arena().len(), (0..200).map(|i| i % 3).sum::<usize>());
    }

    #[test]
    fn store_append_truncate_and_retain_keep_names_and_args_aligned() {
        let mut store = numbered(30, 20);
        let mut other = numbered(25, 7);
        store.append(&mut other);
        assert!(other.is_empty() && other.names().is_empty());
        let mut all: Vec<_> = (0..30).map(|i| numbered_line(i, 20)).collect();
        all.extend((0..25).map(|i| numbered_line(i, 7)));
        assert_eq!(lines(&store), expected_lines(&all), "appended names are remapped");
        store.retain(|e| e.start_us as usize % 4 != 1);
        all.retain(|(start, _)| start % 4 != 1);
        assert_eq!(lines(&store), expected_lines(&all));
        store.truncate(9);
        all.truncate(9);
        assert_eq!(lines(&store), expected_lines(&all));
        assert_eq!(store.args_arena().len(), all.iter().map(|(i, _)| i % 3).sum::<usize>());
        // A store that has named nothing takes the other's columns whole.
        let mut fresh = TraceStore::new();
        fresh.append(&mut store);
        assert!(store.is_empty() && store.names().is_empty());
        assert_eq!(lines(&fresh), expected_lines(&all));
    }

    #[test]
    fn recorder_adopts_a_longer_batch_without_copying_it() {
        let recorder = TraceRecorder::shared();
        let mut marker = TraceStore::new();
        let name = marker.intern("capture");
        marker.span(name, TraceLayer::Profiler, EventKind::Phase, 0.0, 0.0).with_arg("batch", 5u64);
        recorder.record_batch(marker);
        let batch = numbered(10_000, 50);
        let (args, names) = (batch.args_arena().as_ptr(), batch.name_ids().as_ptr());
        recorder.record_batch(batch);
        let store = recorder.drain();
        assert_eq!(store.args_arena().as_ptr(), args, "the args arena is the batch's");
        assert_eq!(store.name_ids().as_ptr(), names, "the name-id column is the batch's");
        let mut all = vec!["profiler|phase|capture|t:0000000000000000+0000000000000000@0|batch=u:5"
            .to_string()];
        all.extend((0..10_000).map(|i| numbered_line(i, 50).1));
        assert_eq!(lines(&store), all);
        assert_eq!(store.names()[0], "capture", "the recorder's names keep their ids");
    }

    #[test]
    fn store_digest_is_cached_per_seed_and_dropped_on_change() {
        let mut store = numbered(10, 3);
        let lines = |store: &TraceStore, header: &str| {
            let mut text = header.to_string();
            for e in store {
                text.push('\n');
                text.push_str(&e.canonical());
            }
            fnv1a(text.as_bytes())
        };
        let seed = |header: &str| {
            let mut hasher = Fnv1a::new();
            hasher.update(header.as_bytes());
            hasher
        };
        assert_eq!(store.digest_after(&seed("a")), lines(&store, "a"));
        assert_eq!(store.digest_after(&seed("a")), lines(&store, "a"), "cached");
        assert_eq!(store.digest_after(&seed("b")), lines(&store, "b"), "another seed");
        let late = store.intern("late");
        store.span(late, TraceLayer::Profiler, EventKind::Phase, 0.0, 0.0);
        assert_eq!(store.digest_after(&seed("b")), lines(&store, "b"), "not stale");
        store.span(0, TraceLayer::Profiler, EventKind::Phase, 1.0, 0.0).with_arg("k", 1u64);
        assert_eq!(store.digest_after(&seed("b")), lines(&store, "b"), "not stale");
    }

    /// SplitMix64: a tiny deterministic generator for the run-table tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn run_table_apply_equals_the_byte_fold() {
        let mut state = 7;
        for len in (0..40).chain([255, 256, 1000]) {
            let s: Vec<u8> = (0..len).map(|_| splitmix(&mut state) as u8).collect();
            // Split the string into up to three pieces; the table folds their
            // concatenation.
            let (a, b) = (len / 3, 2 * len / 3);
            let table = RunTable::new(&[&s[..a], &s[a..b], &s[b..]]);
            for h in [0, 0xff, 0x100, u64::MAX, Fnv1a::new().finish()]
                .into_iter()
                .chain((0..64).map(|_| splitmix(&mut state)))
            {
                assert_eq!(table.apply(h), fold(h, &s), "len {len}, h {h:#x}");
            }
        }
        assert_eq!(RunTable::new(&[]).apply(0x1234_5678_9abc_def0), 0x1234_5678_9abc_def0);
    }

    #[test]
    fn a_run_builds_its_table_at_the_64th_use() {
        let pieces: [&[u8]; 2] = [b"\ngpusim|kernel|", b"sgemm"];
        let mut run = Run::default();
        let mut state = 3;
        for use_ in 1..=TABLE_AT_USE + 2 {
            let h = splitmix(&mut state);
            assert_eq!(run.fold(h, &pieces), fold_pieces(h, &pieces), "use {use_}");
            assert_eq!(run.table.is_some(), use_ >= TABLE_AT_USE, "use {use_}");
        }
    }

    #[test]
    fn iter_where_and_approx_bytes_read_the_columns() {
        let mut store = numbered(50, 7);
        let x = store.intern("x");
        store.span(x, TraceLayer::Profiler, EventKind::Phase, 0.0, 0.0);
        let keep = |layer: TraceLayer, kind: EventKind| {
            layer == TraceLayer::Profiler || kind == EventKind::Memcpy
        };
        let kept: Vec<String> = store.iter_where(keep).map(|e| e.canonical()).collect();
        let filtered: Vec<String> =
            store.iter().filter(|e| keep(e.layer, e.kind)).map(|e| e.canonical()).collect();
        assert_eq!(kept, filtered);
        assert_eq!(kept.len(), 1);
        let per_event = |store: &TraceStore| store.iter().map(approx_event_bytes).sum::<u64>();
        assert_eq!(store.approx_bytes(), per_event(&store));
        store.truncate(20);
        assert_eq!(store.approx_bytes(), per_event(&store), "names past the cut are not counted");
    }

    #[test]
    fn kinds_are_listed_in_declaration_order() {
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind}");
        }
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
