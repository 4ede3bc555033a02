//! Equivalence properties of the streaming trace serialisers.
//!
//! `Trace::digest`, `Trace::to_chrome_json` and the report digest write
//! straight into a hasher or the output buffer. Each is checked here
//! against a materialising reference kept in this file: the digest
//! against FNV-1a over the built `header + "\n" + canonical()` text, the
//! Chrome export against the per-event `format!` exporter it replaced, the
//! HTML report against the `format!` renderer it replaced, and the
//! single-render report digest against a hash of the placeholder render.
//! Events are random: every `ArgValue` variant, wall-clock and
//! deterministic timing, and names with quotes, backslashes, control
//! characters and non-ASCII text. The one number writer under all of
//! them, `write_fixed`/`write_u64`, is checked against std's `{:.d}` and
//! `{}` directly: random bit patterns, exact ties, subnormals, signed
//! zeros and the magnitudes around its std fallback.

use proptest::prelude::*;
use std::borrow::Cow;
use std::fmt::Write as _;
use tbd_frameworks::Framework;
use tbd_gpusim::GpuSpec;
use tbd_models::ModelKind;
use tbd_graph::trace::approx_event_bytes;
use tbd_profiler::json::{self, Value};
use tbd_profiler::report::{MAX_LANE_EVENTS, NONDETERMINISTIC_FAMILIES};
use tbd_profiler::trace::{
    events_digest, fnv1a, write_fixed, write_u64, ArgValue, EventKind, EventRef, Fnv1a,
    TraceLayer, TraceRecorder, TraceStore,
};
use tbd_profiler::{
    capture, capture_into, diagnose_events, MetricsRegistry, ReportContext, StreamingAggregator,
    Trace, TraceOptions, DIGEST_TIMESTAMP,
};

/// Arg keys must be `'static`; these cover the characters JSON escapes.
const KEYS: [&str; 6] = ["bytes", "k\"q", "back\\slash", "ctl\u{1}\r\n\t", "ünï🚀", "value_hash"];

const KINDS: [EventKind; 7] = [
    EventKind::NodeExec,
    EventKind::KernelExec,
    EventKind::Memcpy,
    EventKind::Alloc,
    EventKind::AllocFail,
    EventKind::Communication,
    EventKind::Phase,
];

/// Decodes a byte into a deliberately troublesome character.
fn troublesome_char(byte: u8) -> char {
    match byte % 10 {
        0 => '"',
        1 => '\\',
        2 => '\r',
        3 => char::from(byte % 0x20), // C0 control, NUL included
        4 => 'é',
        5 => '\u{2028}',
        6 => '🚀',
        7 => '\n',
        _ => char::from(0x20 + (byte % 0x5f)),
    }
}

fn text_of(word: u64, len: u64) -> String {
    word.to_le_bytes().iter().take((len % 9) as usize).map(|&b| troublesome_char(b)).collect()
}

/// A finite time from random bits: spans zero, negative zero, tiny,
/// fractional and large magnitudes.
fn finite_time(word: u64) -> f64 {
    match word % 5 {
        0 => 0.0,
        1 => -0.0,
        2 => (word >> 8) as f64 / 1024.0,
        3 => -((word >> 40) as f64) * 0.001,
        _ => {
            let v = f64::from_bits(word);
            if v.is_finite() {
                v
            } else {
                1e300
            }
        }
    }
}

fn arg_of(word: u64) -> ArgValue {
    match word % 4 {
        0 => ArgValue::Str(Cow::Owned(text_of(word >> 8, word >> 4))),
        // Any bit pattern: NaN and infinities included.
        1 => ArgValue::F64(f64::from_bits(word.rotate_left(17))),
        2 => ArgValue::U64(word >> (word % 64)),
        _ => ArgValue::Bool(word & 0x10 != 0),
    }
}

/// An owned event: the original a recorded row is checked against.
#[derive(Debug, Clone)]
struct Row {
    name: Cow<'static, str>,
    layer: TraceLayer,
    kind: EventKind,
    start_us: f64,
    dur_us: f64,
    track: u32,
    deterministic: bool,
    args: Vec<(&'static str, ArgValue)>,
}

impl Row {
    /// A deterministic span on track 0 without args.
    fn span(
        name: impl Into<Cow<'static, str>>,
        layer: TraceLayer,
        kind: EventKind,
        start_us: f64,
        dur_us: f64,
    ) -> Row {
        let name = name.into();
        Row { name, layer, kind, start_us, dur_us, track: 0, deterministic: true, args: Vec::new() }
    }

    /// Appends the row to `store`.
    fn write(&self, store: &mut TraceStore) {
        let name = store.intern(self.name.clone());
        let mut row = store
            .span(name, self.layer, self.kind, self.start_us, self.dur_us)
            .on_track(self.track);
        if !self.deterministic {
            row = row.wall_clock();
        }
        for (key, value) in &self.args {
            row = row.with_arg(key, value.clone());
        }
    }
}

/// A store of `rows`, in order.
fn store_of(rows: &[Row]) -> TraceStore {
    let mut store = TraceStore::new();
    for row in rows {
        row.write(&mut store);
    }
    store
}

/// A random row's layer, kind, track, clock and up to `max_args - 1`
/// args from `words[0]` and `words[4..]`.
fn random_row(
    words: &[u64],
    name: Cow<'static, str>,
    start_us: f64,
    dur_us: f64,
    max_args: usize,
) -> Row {
    let layer = TraceLayer::ALL[(words[0] % 5) as usize];
    let kind = KINDS[(words[0] >> 8) as usize % KINDS.len()];
    let args = words[4..]
        .iter()
        .enumerate()
        .take((words[0] >> 32) as usize % max_args)
        .map(|(i, &word)| (KEYS[(word % 6) as usize], arg_of(word.rotate_right(i as u32))))
        .collect();
    Row {
        track: (words[0] >> 16) as u32 % 9,
        deterministic: words[0] & 0x100_0000 == 0,
        args,
        ..Row::span(name, layer, kind, start_us, dur_us)
    }
}

/// One random event from six random words.
fn event_of(words: &[u64]) -> Row {
    let dur = if words[2].is_multiple_of(3) { 0.0 } else { finite_time(words[2]) };
    let name = Cow::Owned(text_of(words[1], words[1] >> 60));
    random_row(words, name, finite_time(words[3]), dur, 3)
}

fn events_of(words: &[Vec<u64>]) -> Vec<Row> {
    words.iter().map(|w| event_of(w)).collect()
}

fn trace_with(words: &[Vec<u64>], events: &[Row]) -> Trace {
    Trace {
        model: ModelKind::ALL[words.len() % ModelKind::ALL.len()],
        framework: "Tensor\"Flow\\",
        batch: words.len(),
        events: store_of(events),
    }
}

fn trace_of(words: &[Vec<u64>]) -> Trace {
    trace_with(words, &events_of(words))
}

/// Reference canonical line, built with `format!` and `{:016x}`.
fn reference_canonical(event: &Row) -> String {
    let mut line = format!("{}|{}|{}", event.layer, event.kind, event.name);
    if event.deterministic {
        let _ = write!(
            line,
            "|t:{:016x}+{:016x}@{}",
            event.start_us.to_bits(),
            event.dur_us.to_bits(),
            event.track
        );
    }
    for (key, value) in &event.args {
        let text = match value {
            ArgValue::Str(s) => format!("s:{s}"),
            ArgValue::F64(v) => format!("f:{:016x}", v.to_bits()),
            ArgValue::U64(v) => format!("u:{v}"),
            ArgValue::Bool(b) => format!("b:{b}"),
        };
        let _ = write!(line, "|{key}={text}");
    }
    line
}

/// Reference digest: FNV-1a over the whole materialised text.
fn reference_digest(trace: &Trace) -> u64 {
    let mut text =
        format!("trace|{}|{}|batch={}", trace.model.name(), trace.framework, trace.batch);
    for event in &trace.events {
        text.push('\n');
        text.push_str(&event.canonical());
    }
    fnv1a(text.as_bytes())
}

/// Reference JSON string escaper, character by character.
fn reference_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn reference_arg_json(value: &ArgValue) -> String {
    match value {
        ArgValue::Str(s) => format!("\"{}\"", reference_escape(s)),
        ArgValue::F64(v) if v.is_finite() => format!("{v:.6}"),
        ArgValue::F64(_) => "null".to_string(),
        ArgValue::U64(v) => v.to_string(),
        ArgValue::Bool(b) => b.to_string(),
    }
}

/// A Chrome `ts`/`dur`: `{:.3}`, or `null` when not finite.
fn reference_ts(us: f64) -> String {
    if us.is_finite() {
        format!("{us:.3}")
    } else {
        "null".to_string()
    }
}

/// The per-event `format!` Chrome exporter the in-place writer replaced,
/// writing non-finite times as `null`.
fn reference_chrome_json(trace: &Trace) -> String {
    let mut lines = Vec::new();
    for layer in TraceLayer::ALL {
        if trace.events.iter().any(|e| e.layer == layer) {
            lines.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                layer.pid(),
                reference_escape(layer.process_name())
            ));
        }
    }
    for event in &trace.events {
        let mut args = format!("\"kind\":\"{}\"", event.kind);
        for (key, value) in event.args {
            let _ = write!(args, ",\"{}\":{}", reference_escape(key), reference_arg_json(value));
        }
        lines.push(if event.dur_us > 0.0 {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{{args}}}}}",
                reference_escape(event.name),
                reference_ts(event.start_us),
                reference_ts(event.dur_us),
                event.layer.pid(),
                event.track,
            )
        } else {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\
                 \"pid\":{},\"tid\":{},\"args\":{{{args}}}}}",
                reference_escape(event.name),
                reference_ts(event.start_us),
                event.layer.pid(),
                event.track,
            )
        });
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}],\"otherData\":{{\"model\":\"{}\",\
         \"framework\":\"{}\",\"batch\":{},\"digest\":\"{:016x}\"}}}}",
        lines.join(","),
        reference_escape(trace.model.name()),
        reference_escape(trace.framework),
        trace.batch,
        reference_digest(trace)
    )
}

/// `format!("{v:.d$}")`, the oracle of [`write_fixed`].
fn reference_fixed(v: f64, decimals: u32) -> String {
    format!("{v:.*}", decimals as usize)
}

fn fixed(v: f64, decimals: u32) -> String {
    let mut out = String::from("<");
    write_fixed(&mut out, v, decimals);
    out.remove(0);
    out
}

/// Checks `write_fixed` against std at every precision the writer's fast
/// path covers, plus two beyond it.
fn assert_fixed_matches(v: f64) {
    for decimals in 0..=11 {
        assert_eq!(
            fixed(v, decimals),
            reference_fixed(v, decimals),
            "{:#018x} at {decimals} decimals",
            v.to_bits()
        );
    }
}

/// An f64 with the given sign, biased exponent and mantissa bits.
fn f64_of(negative: bool, biased_exponent: u64, mantissa: u64) -> f64 {
    f64::from_bits(u64::from(negative) << 63 | (biased_exponent & 0x7ff) << 52 | mantissa >> 12)
}

const SVG_W: f64 = 1100.0;
const LANE_H: f64 = 18.0;

/// The report's HTML escaper, character by character.
fn reference_esc(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

fn reference_num(v: f64) -> String {
    if v.is_nan() {
        return "NaN".to_string();
    }
    if v.is_infinite() {
        return if v > 0.0 { "∞" } else { "-∞" }.to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

fn reference_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.3} s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.3} ms", us / 1e3)
    } else {
        format!("{us:.1} us")
    }
}

fn reference_bytes(bytes: f64) -> String {
    if bytes >= 1e9 {
        format!("{:.2} GB", bytes / 1e9)
    } else if bytes >= 1e6 {
        format!("{:.2} MB", bytes / 1e6)
    } else if bytes >= 1e3 {
        format!("{:.1} kB", bytes / 1e3)
    } else {
        format!("{bytes:.0} B")
    }
}

fn reference_kind_class(kind: EventKind) -> &'static str {
    match kind {
        EventKind::KernelExec => "k-kernel",
        EventKind::KernelLaunch => "k-launch",
        EventKind::Memcpy => "k-memcpy",
        EventKind::Sync => "k-sync",
        EventKind::Communication => "k-comm",
        EventKind::Iteration => "k-iter",
        EventKind::Phase => "k-phase",
        EventKind::Alloc | EventKind::Free | EventKind::AllocFail => "k-mem",
        EventKind::Fault => "k-fault",
        EventKind::Recovery => "k-recovery",
        EventKind::Checkpoint => "k-ckpt",
        EventKind::Membership | EventKind::Eviction | EventKind::Rejoin => "k-membership",
        EventKind::NodeExec => "k-node",
    }
}

/// The `format!`-based report renderer the in-place writers replaced:
/// everything between `<body>` and the inline script.
fn reference_report_body(ctx: &ReportContext<'_>, timestamp: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<h1>TBD run report — {} × {}</h1>",
        reference_esc(ctx.model),
        reference_esc(ctx.framework)
    );
    let _ = writeln!(out, "<div class=\"stamp\">{}</div>", reference_esc(timestamp));
    out.push_str("<table class=\"meta\"><tbody>\n");
    let rows: [(&str, String); 6] = [
        ("model", ctx.model.to_string()),
        ("framework", ctx.framework.to_string()),
        ("batch", ctx.batch.to_string()),
        ("gpu", ctx.gpu.to_string()),
        ("events", ctx.events.len().to_string()),
        ("trace digest", ctx.trace_digest.to_string()),
    ];
    for (key, value) in rows {
        let _ = writeln!(
            out,
            "<tr><th>{}</th><td>{}</td></tr>",
            reference_esc(key),
            reference_esc(&value)
        );
    }
    out.push_str("</tbody></table>\n");
    reference_swimlanes(ctx, &mut out);
    reference_memory_curve(ctx, &mut out);
    reference_overlap(ctx.registry, &mut out);
    reference_metrics_table(ctx.registry, &mut out);
    reference_diagnosis(ctx, &mut out);
    reference_overhead(ctx, &mut out);
    out
}

fn reference_swimlanes(ctx: &ReportContext<'_>, out: &mut String) {
    out.push_str("<h2>Kernel timeline</h2>\n");
    out.push_str(
        "<p class=\"note\">Deterministic span events per layer and track \
         (simulated/logical clocks). Host wall-clock executor spans are excluded \
         by the determinism contract.</p>\n",
    );
    for layer in [TraceLayer::GpuSim, TraceLayer::Framework, TraceLayer::Distrib] {
        let spans: Vec<EventRef<'_>> = ctx
            .events
            .iter()
            .filter(|e| e.layer == layer && e.deterministic && e.dur_us > 0.0)
            .collect();
        if spans.is_empty() {
            continue;
        }
        let t0 = spans.iter().map(|e| e.start_us).fold(f64::INFINITY, f64::min);
        let t1 = spans.iter().map(|e| e.end_us()).fold(f64::NEG_INFINITY, f64::max);
        let range = (t1 - t0).max(1e-9);
        let mut tracks: Vec<u32> = spans.iter().map(|e| e.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        let height = tracks.len() as f64 * LANE_H + 4.0;
        let _ = writeln!(
            out,
            "<h3>{} <span class=\"sub\">({} span(s), {})</span></h3>",
            reference_esc(layer.process_name()),
            spans.len(),
            reference_us(range)
        );
        let _ = writeln!(
            out,
            "<svg class=\"lanes\" viewBox=\"0 0 {SVG_W} {height}\" width=\"100%\" role=\"img\">"
        );
        let mut elided = 0usize;
        for (row, track) in tracks.iter().enumerate() {
            let y = row as f64 * LANE_H + 2.0;
            let mut lane: Vec<&EventRef<'_>> = spans.iter().filter(|e| e.track == *track).collect();
            if lane.len() > MAX_LANE_EVENTS {
                lane.sort_by(|a, b| {
                    b.dur_us
                        .total_cmp(&a.dur_us)
                        .then_with(|| a.start_us.total_cmp(&b.start_us))
                        .then_with(|| a.name.cmp(b.name))
                });
                elided += lane.len() - MAX_LANE_EVENTS;
                lane.truncate(MAX_LANE_EVENTS);
            }
            lane.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then_with(|| a.name.cmp(b.name)));
            for event in lane {
                let x = (event.start_us - t0) / range * SVG_W;
                let w = (event.dur_us / range * SVG_W).max(0.5);
                let _ = writeln!(
                    out,
                    "<rect class=\"{}\" x=\"{x:.2}\" y=\"{y:.1}\" width=\"{w:.2}\" \
                     height=\"{:.1}\"><title>{} — {} (track {})</title></rect>",
                    reference_kind_class(event.kind),
                    LANE_H - 4.0,
                    reference_esc(event.name),
                    reference_us(event.dur_us),
                    event.track,
                );
            }
        }
        out.push_str("</svg>\n");
        if elided > 0 {
            let _ = writeln!(
                out,
                "<p class=\"note\">{elided} shorter span(s) elided \
                 (longest {MAX_LANE_EVENTS} shown per lane).</p>"
            );
        }
    }
}

fn reference_memory_curve(ctx: &ReportContext<'_>, out: &mut String) {
    let mut points: Vec<f64> = Vec::new();
    let mut current = 0.0f64;
    let mut fails: Vec<usize> = Vec::new();
    for event in ctx.events.iter().filter(|e| e.layer == TraceLayer::GpuSim) {
        let bytes = event
            .args
            .iter()
            .find(|(k, _)| *k == "bytes")
            .and_then(|(_, v)| match v {
                ArgValue::U64(b) => Some(*b as f64),
                ArgValue::F64(b) => Some(*b),
                _ => None,
            })
            .unwrap_or(0.0);
        match event.kind {
            EventKind::Alloc => {
                current += bytes;
                points.push(current);
            }
            EventKind::Free => {
                current = (current - bytes).max(0.0);
                points.push(current);
            }
            EventKind::AllocFail => {
                fails.push(points.len());
                points.push(current);
            }
            _ => {}
        }
    }
    if points.is_empty() {
        return;
    }
    let peak = points.iter().copied().fold(0.0f64, f64::max).max(1.0);
    out.push_str("<h2>Memory footprint (Fig. 9)</h2>\n");
    let _ = writeln!(
        out,
        "<p class=\"note\">Resident device memory folded from {} allocator event(s); \
         peak {}.</p>",
        points.len(),
        reference_bytes(peak)
    );
    let h = 160.0f64;
    let _ =
        writeln!(out, "<svg class=\"curve\" viewBox=\"0 0 {SVG_W} {h}\" width=\"100%\" role=\"img\">");
    let step = SVG_W / points.len().max(1) as f64;
    let mut path = String::new();
    for (i, &bytes) in points.iter().enumerate() {
        let x = i as f64 * step;
        let y = h - 6.0 - bytes / peak * (h - 16.0);
        let _ = write!(path, "{}{x:.2},{y:.2}", if i == 0 { "" } else { " " });
    }
    let _ = writeln!(out, "<polyline class=\"mem\" points=\"{path}\"/>");
    for fail in &fails {
        let x = *fail as f64 * step;
        let _ = writeln!(
            out,
            "<line class=\"fail\" x1=\"{x:.2}\" y1=\"4\" x2=\"{x:.2}\" y2=\"{:.1}\">\
             <title>allocation failure</title></line>",
            h - 4.0
        );
    }
    out.push_str("</svg>\n");
    let cats: Vec<(&str, f64)> =
        ctx.registry.gauges().filter(|(name, _)| name.starts_with("memory_peak_bytes{")).collect();
    if !cats.is_empty() {
        out.push_str("<table class=\"grid\"><thead><tr><th>category</th><th>peak</th></tr></thead><tbody>\n");
        for (name, bytes) in cats {
            let label = name
                .split("category=\"")
                .nth(1)
                .and_then(|s| s.strip_suffix("\"}"))
                .unwrap_or(name);
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td>{}</td></tr>",
                reference_esc(label),
                reference_bytes(bytes)
            );
        }
        out.push_str("</tbody></table>\n");
    }
}

fn reference_overlap(registry: &MetricsRegistry, out: &mut String) {
    let comm = registry.gauge("comm_time_us").unwrap_or(0.0);
    if comm <= 0.0 {
        return;
    }
    let exposed = registry.gauge("comm_exposed_us").unwrap_or(0.0);
    let iter = registry.gauge("cluster_iteration_us").unwrap_or(0.0).max(comm).max(1e-9);
    out.push_str("<h2>Communication overlap (Fig. 10)</h2>\n");
    let _ = writeln!(
        out,
        "<p class=\"note\">Gradient exchange {} — {} exposed beyond the backward pass \
         ({}% overlapped); cluster iteration {}.</p>",
        reference_us(comm),
        reference_us(exposed),
        reference_num(if comm > 0.0 { (1.0 - exposed / comm) * 100.0 } else { 0.0 }),
        reference_us(iter)
    );
    let bar = |out: &mut String, label: &str, class: &str, us: f64| {
        let w = (us / iter * 100.0).clamp(0.0, 100.0);
        let _ = writeln!(
            out,
            "<div class=\"barrow\"><span class=\"barlabel\">{}</span>\
             <span class=\"bar\"><span class=\"{class}\" style=\"width:{w:.2}%\"></span>\
             </span><span class=\"barval\">{}</span></div>",
            reference_esc(label),
            reference_us(us)
        );
    };
    bar(out, "cluster iteration", "seg-iter", iter);
    let compute = registry.gauge("sim_iteration_us").unwrap_or(0.0);
    if compute > 0.0 {
        bar(out, "compute (1 GPU)", "seg-compute", compute);
    }
    bar(out, "comm total", "seg-comm", comm);
    bar(out, "comm exposed", "seg-exposed", exposed);
}

fn reference_metrics_table(registry: &MetricsRegistry, out: &mut String) {
    out.push_str("<h2>Metrics</h2>\n");
    out.push_str(
        "<input id=\"mfilter\" type=\"text\" placeholder=\"filter series…\" \
         aria-label=\"filter metrics\">\n",
    );
    out.push_str(
        "<table class=\"grid\" id=\"metrics\"><thead>\
         <tr><th>series</th><th>kind</th><th>value</th></tr></thead><tbody>\n",
    );
    let keep = |name: &str| {
        let family = name.split('{').next().unwrap_or(name);
        !NONDETERMINISTIC_FAMILIES.contains(&family)
    };
    for (name, value) in registry.counters().filter(|(n, _)| keep(n)) {
        let _ =
            writeln!(out, "<tr><td>{}</td><td>counter</td><td>{value}</td></tr>", reference_esc(name));
    }
    for (name, value) in registry.gauges().filter(|(n, _)| keep(n)) {
        let _ = writeln!(
            out,
            "<tr><td>{}</td><td>gauge</td><td>{}</td></tr>",
            reference_esc(name),
            reference_num(value)
        );
    }
    out.push_str("</tbody></table>\n");
}

fn reference_diagnosis(ctx: &ReportContext<'_>, out: &mut String) {
    out.push_str("<h2>Diagnosis</h2>\n");
    if ctx.diagnosis.diagnoses.is_empty() {
        out.push_str("<p class=\"note\">No diagnosis produced.</p>\n");
        return;
    }
    let _ = writeln!(
        out,
        "<p class=\"note\">Ranked bottleneck classes mined from {} event(s); iteration {}.</p>",
        ctx.diagnosis.events,
        reference_us(ctx.diagnosis.iteration_us)
    );
    for (rank, diag) in ctx.diagnosis.diagnoses.iter().enumerate() {
        let pct = (diag.confidence * 100.0).clamp(0.0, 100.0);
        let _ = writeln!(
            out,
            "<div class=\"diag\"><div class=\"diaghead\">#{} {} \
             <span class=\"conf\"><span style=\"width:{pct:.1}%\"></span></span> {}%</div>",
            rank + 1,
            reference_esc(diag.class.label()),
            reference_num(pct)
        );
        if !diag.evidence.is_empty() {
            out.push_str(
                "<table class=\"grid\"><thead><tr><th>metric</th><th>value</th>\
                 <th>threshold</th><th>detail</th></tr></thead><tbody>\n",
            );
            for ev in &diag.evidence {
                let _ = writeln!(
                    out,
                    "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                    reference_esc(&ev.metric),
                    reference_num(ev.value),
                    reference_num(ev.threshold),
                    reference_esc(&ev.detail)
                );
            }
            out.push_str("</tbody></table>\n");
        }
        let _ = writeln!(out, "<p class=\"remedy\">{}</p></div>", reference_esc(&diag.remediation));
    }
}

fn reference_overhead(ctx: &ReportContext<'_>, out: &mut String) {
    out.push_str("<h2>Observer overhead (self-observability)</h2>\n");
    out.push_str(
        "<p class=\"note\">What the trace recorder itself cost, counted by the \
         recorder. Deterministic counters only — wall-clock sink latency is \
         served out-of-band on <code>/health</code>.</p>\n",
    );
    out.push_str(
        "<table class=\"grid\"><thead><tr><th>counter</th><th>value</th></tr></thead><tbody>\n",
    );
    let oh = &ctx.overhead;
    let mut row = |name: &str, value: String| {
        let _ = writeln!(out, "<tr><td>{}</td><td>{value}</td></tr>", reference_esc(name));
    };
    row("events recorded", oh.events_total().to_string());
    for layer in TraceLayer::ALL {
        let count = oh.events_by_layer[layer.index()];
        if count > 0 {
            row(&format!("events recorded ({layer})"), count.to_string());
        }
    }
    row("event bytes retained", reference_bytes(oh.event_bytes_total as f64));
    row("events dropped (retain cap)", oh.events_dropped_total.to_string());
    row(
        "aggregator kernel-series overflow",
        ctx.registry.counter("agg_kernel_series_overflow_total").unwrap_or(0).to_string(),
    );
    row(
        "aggregator window evictions",
        ctx.registry.counter("agg_window_dropped_total").unwrap_or(0).to_string(),
    );
    out.push_str("</tbody></table>\n");
}

/// Renders `ctx` and checks the page against the reference: the head up
/// to the inline stylesheet, and the whole body before the inline script.
fn assert_report_matches(ctx: &ReportContext<'_>, timestamp: &str) {
    let html = ctx.render(timestamp);
    let head = format!(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>TBD run report — {} × {}</title>\n<style>\n",
        reference_esc(ctx.model),
        reference_esc(ctx.framework)
    );
    assert!(html.starts_with(&head), "head differs: {:.300}", html);
    let body_start = html.find("<body>\n").expect("body") + "<body>\n".len();
    let body_end = html.rfind("<script>\n").expect("script");
    assert_eq!(&html[body_start..body_end], reference_report_body(ctx, timestamp));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The streamed digest equals FNV-1a over the materialised text, and
    /// every canonical line equals its `format!` reference.
    #[test]
    fn streaming_digest_equals_materialised_digest(
        words in prop::collection::vec(prop::collection::vec(0u64..u64::MAX, 6), 0..24),
        nan_bits in 0u64..4,
    ) {
        let mut events = events_of(&words);
        // Canonical lines carry raw bits, so non-finite times digest too.
        if let Some(event) = events.first_mut() {
            event.start_us = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][nan_bits as usize];
        }
        let trace = trace_with(&words, &events);
        prop_assert_eq!(trace.events.len(), events.len());
        for (event, original) in trace.events.iter().zip(&events) {
            prop_assert_eq!(event.canonical(), reference_canonical(original));
        }
        prop_assert_eq!(trace.digest(), reference_digest(&trace));
        prop_assert_eq!(trace.digest_hex(), format!("{:016x}", reference_digest(&trace)));
    }

    /// The in-place Chrome export is byte-identical to the per-event
    /// `format!` exporter and parses as JSON.
    #[test]
    fn in_place_chrome_export_equals_format_exporter(
        words in prop::collection::vec(prop::collection::vec(0u64..u64::MAX, 6), 0..24),
    ) {
        let trace = trace_of(&words);
        let text = trace.to_chrome_json();
        prop_assert_eq!(&text, &reference_chrome_json(&trace));
        prop_assert!(json::parse(&text).is_ok(), "export must parse: {text}");
    }

    /// One render yields both the page and the digest of the placeholder
    /// render, whatever the timestamp holds.
    #[test]
    fn single_render_report_digest_equals_placeholder_render_digest(
        words in prop::collection::vec(prop::collection::vec(0u64..u64::MAX, 6), 1..16),
        stamp in prop::collection::vec(0u8..255, 0..24),
    ) {
        let trace = trace_of(&words);
        let timestamp = timestamp_of(&stamp);
        with_report(&trace, |ctx| {
            let (html, digest) = ctx.render_and_digest(&timestamp);
            let expected = format!("{:016x}", fnv1a(ctx.render(DIGEST_TIMESTAMP).as_bytes()));
            prop_assert_eq!(&html, &ctx.render(&timestamp));
            prop_assert_eq!(&digest, &expected);
            prop_assert_eq!(&ctx.digest_hex(), &expected);
        });
    }

    /// The in-place report (swimlane rects, memory polyline, tables) is
    /// byte-identical to the `format!` renderer it replaced.
    #[test]
    fn in_place_report_equals_format_renderer(
        words in prop::collection::vec(prop::collection::vec(0u64..u64::MAX, 6), 1..32),
        stamp in prop::collection::vec(0u8..255, 0..24),
    ) {
        let trace = trace_of(&words);
        with_report(&trace, |ctx| assert_report_matches(ctx, &timestamp_of(&stamp)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `write_fixed` equals `format!("{v:.d$}")` on any bit pattern: NaN,
    /// the infinities and every exponent included.
    #[test]
    fn write_fixed_equals_std_on_random_bits(bits in 0u64..u64::MAX) {
        assert_fixed_matches(f64::from_bits(bits));
    }

    /// The same over the exponents where the digits live: `e` from -110
    /// (everything rounds to zero) past the `e = 40/41` fallback boundary,
    /// through magnitudes beyond `2^64`.
    #[test]
    fn write_fixed_equals_std_around_the_fast_path_bounds(
        sign in 0u8..2,
        e in -110i64..49,
        mantissa in 0u64..u64::MAX,
    ) {
        assert_fixed_matches(f64_of(sign == 1, (1075 + e) as u64, mantissa));
    }

    /// Exact ties `(2m+1)·5^d / 2^(d+1)` (their `v·10^d` is a half
    /// integer) round half to even, as std does, for both signs.
    #[test]
    fn write_fixed_rounds_exact_ties_like_std(
        m in 0u64..1 << 31,
        d in 0u32..10,
        sign in 0u8..2,
    ) {
        let tie = (2 * m + 1) as f64 * 5f64.powi(d as i32) / 2f64.powi(d as i32 + 1);
        let v = if sign == 1 { -tie } else { tie };
        prop_assert_eq!(fixed(v, d), reference_fixed(v, d));
        assert_fixed_matches(v);
    }

    /// Subnormals and both zeros.
    #[test]
    fn write_fixed_equals_std_on_subnormals_and_zeros(
        sign in 0u8..2,
        mantissa in 0u64..u64::MAX,
    ) {
        assert_fixed_matches(f64_of(sign == 1, 0, mantissa));
        assert_fixed_matches(if sign == 1 { -0.0 } else { 0.0 });
    }

    /// Negatives that round to zero keep their sign (`-0.000`), as in std.
    #[test]
    fn write_fixed_keeps_the_sign_of_negatives_rounding_to_zero(
        fraction in 0.0f64..0.5,
        d in 0u32..10,
    ) {
        let v = -fraction / 10f64.powi(d as i32);
        prop_assert!(fixed(v, d).starts_with('-'));
        assert_fixed_matches(v);
    }

    /// `write_u64` equals `{}`.
    #[test]
    fn write_u64_equals_display(v in 0u64..u64::MAX, shift in 0u32..64) {
        for x in [v, v >> shift, 10u64.pow(shift % 20), 10u64.pow(shift % 20) - 1] {
            let mut out = String::new();
            write_u64(&mut out, x);
            prop_assert_eq!(out, x.to_string());
        }
    }
}

/// The std formatter's edge values, one by one.
#[test]
fn write_fixed_and_write_u64_match_std_on_edge_values() {
    let edges = [
        0.0,
        -0.0,
        0.5,
        1.5,
        2.5,
        -2.5,
        0.125,
        0.0625,
        9.9999995,
        999.9995,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::EPSILON,
        u64::MAX as f64,
        2f64.powi(92) * 1.999_999_999,
        2f64.powi(93),
        2f64.powi(94),
        f64::MAX,
        f64::MIN,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for v in edges {
        assert_fixed_matches(v);
    }
    for v in [0, 1, 9, 10, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
        let mut out = String::new();
        write_u64(&mut out, v);
        assert_eq!(out, v.to_string());
    }
}

/// A timestamp of HTML-troublesome characters.
fn timestamp_of(stamp: &[u8]) -> String {
    stamp.iter().map(|&b| ['<', '&', '"', '\'', '>', 'é', '1', ' '][usize::from(b % 8)]).collect()
}

/// Calls `f` with a report context over `trace`: its registry, diagnosis
/// and digest folded as the pipeline folds them.
fn with_report<R>(trace: &Trace, f: impl FnOnce(&ReportContext<'_>) -> R) -> R {
    let agg = StreamingAggregator::new();
    agg.consume_all(&trace.events);
    let registry = agg.registry();
    let diagnosis = diagnose_events("toy", trace.framework, trace.batch, &trace.events);
    let trace_digest = trace.digest_hex();
    f(&ReportContext {
        model: trace.model.name(),
        framework: trace.framework,
        batch: trace.batch,
        gpu: "Quadro P4000",
        trace_digest: &trace_digest,
        events: &trace.events,
        registry: &registry,
        diagnosis: &diagnosis,
        overhead: Default::default(),
    })
}

/// A real capture (simulation only, so every time is deterministic)
/// exports, digests and renders exactly like the references; Seq2Seq's
/// kernel lane is long enough to elide spans.
#[test]
fn real_capture_matches_the_references() {
    let pairs = [(ModelKind::A3c, Framework::mxnet()), (ModelKind::Seq2Seq, Framework::tensorflow())];
    for (kind, framework) in pairs {
        let cap = capture(
            kind,
            framework,
            8,
            &GpuSpec::quadro_p4000(),
            &TraceOptions { functional: false, ..TraceOptions::default() },
        )
        .expect("capture succeeds");
        assert_eq!(cap.trace.digest(), reference_digest(&cap.trace), "{kind:?}");
        assert_eq!(cap.trace.to_chrome_json(), reference_chrome_json(&cap.trace), "{kind:?}");
        with_report(&cap.trace, |ctx| assert_report_matches(ctx, "2026-10-17 12:00"));
    }
}

/// JSON has no NaN or infinity: non-finite `ts`/`dur` export as `null`,
/// so the document still parses.
#[test]
fn non_finite_times_export_as_null() {
    let events = store_of(&[
        Row::span("nan start", TraceLayer::GpuSim, EventKind::KernelExec, f64::NAN, 2.0),
        Row::span("inf dur", TraceLayer::GpuSim, EventKind::KernelExec, 1.0, f64::INFINITY),
        Row::span("neg inf", TraceLayer::Profiler, EventKind::Phase, f64::NEG_INFINITY, 0.0),
        Row {
            args: vec![("exposed_us", ArgValue::F64(f64::NAN))],
            ..Row::span("nan dur", TraceLayer::Distrib, EventKind::Communication, 3.0, f64::NAN)
        },
    ]);
    let trace = Trace { model: ModelKind::ResNet50, framework: "TensorFlow", batch: 1, events };
    let text = trace.to_chrome_json();
    let value = json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    let records = value.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
    let by_name = |name: &str| {
        records
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no record '{name}'"))
    };
    assert_eq!(by_name("nan start").get("ts"), Some(&Value::Null));
    assert_eq!(by_name("nan start").get("dur").and_then(Value::as_f64), Some(2.0));
    assert_eq!(by_name("inf dur").get("dur"), Some(&Value::Null));
    assert_eq!(by_name("neg inf").get("ts"), Some(&Value::Null));
    // A NaN duration is not positive: the event exports as an instant.
    let nan_dur = by_name("nan dur");
    assert_eq!(nan_dur.get("ph").and_then(Value::as_str), Some("i"));
    assert_eq!(nan_dur.get("args").and_then(|a| a.get("exposed_us")), Some(&Value::Null));
}

/// Names with JSON-troublesome characters, few enough that random lists
/// repeat them: the store interns each once.
const POOLED_NAMES: [&str; 5] = ["sgemm", "conv \"3x3\"", "back\\slash", "ctl\u{1}\n", "ünï🚀"];

/// A time from random bits: finite (as [`finite_time`]) or, one time in
/// six, NaN or an infinity.
fn any_time(word: u64) -> f64 {
    match word % 12 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => finite_time(word >> 4),
    }
}

/// One random event from twelve random words: a pooled name (or, one time
/// in four, a fresh random one), any timing, zero to eight args.
fn pooled_event_of(words: &[u64]) -> Row {
    let name: Cow<'static, str> = if words[1].is_multiple_of(4) {
        Cow::Owned(text_of(words[1] >> 8, words[1] >> 60))
    } else {
        Cow::Borrowed(POOLED_NAMES[(words[1] >> 2) as usize % POOLED_NAMES.len()])
    };
    random_row(words, name, any_time(words[3]), any_time(words[2]), 9)
}

fn pooled_store(words: &[Vec<u64>]) -> TraceStore {
    store_of(&words.iter().map(|w| pooled_event_of(w)).collect::<Vec<_>>())
}

/// `ArgValue` equality with floats compared by bit pattern (NaN included).
fn same_arg(a: &ArgValue, b: &ArgValue) -> bool {
    match (a, b) {
        (ArgValue::F64(x), ArgValue::F64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Records `events` in one-event or longer batches (split at `splits`)
/// and returns the recorder's store.
fn record_split(events: &[Row], splits: &[usize]) -> TraceStore {
    let recorder = TraceRecorder::shared();
    let mut ends: Vec<usize> = splits.iter().map(|&s| s % (events.len() + 1)).collect();
    ends.sort_unstable();
    ends.dedup();
    ends.push(events.len());
    let mut start = 0;
    for end in ends {
        recorder.record_batch(store_of(&events[start..end]));
        start = end;
    }
    recorder.drain()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Owned events recorded (in one-event and longer batches), stored as columns
    /// and read back as `EventRef`s equal the originals field for field;
    /// their canonical lines, the digest and the Chrome bytes equal the
    /// `format!` oracles.
    #[test]
    fn store_round_trips_recorded_events_field_for_field(
        words in prop::collection::vec(prop::collection::vec(0u64..u64::MAX, 12), 0..40),
        splits in prop::collection::vec(0usize..64, 0..8),
    ) {
        let originals: Vec<Row> = words.iter().map(|w| pooled_event_of(w)).collect();
        let store = record_split(&originals, &splits);
        prop_assert_eq!(store.len(), originals.len());
        prop_assert!(store.names().len() <= originals.len());
        for (event, original) in store.iter().zip(&originals) {
            prop_assert_eq!(event.name, original.name.as_ref());
            prop_assert_eq!(store.names()[event.name_id as usize].as_ref(), event.name);
            prop_assert_eq!(event.layer, original.layer);
            prop_assert_eq!(event.kind, original.kind);
            prop_assert_eq!(event.start_us.to_bits(), original.start_us.to_bits());
            prop_assert_eq!(event.dur_us.to_bits(), original.dur_us.to_bits());
            prop_assert_eq!(event.track, original.track);
            prop_assert_eq!(event.deterministic, original.deterministic);
            prop_assert_eq!(event.args.len(), original.args.len());
            for ((key, value), (okey, ovalue)) in event.args.iter().zip(&original.args) {
                prop_assert_eq!(key, okey);
                prop_assert!(same_arg(value, ovalue), "{value:?} != {ovalue:?}");
            }
            let mut streamed = String::new();
            event.write_canonical(&mut streamed).expect("a String never fails");
            prop_assert_eq!(streamed, reference_canonical(original));
        }
        // Equal names share one id.
        for (a, b) in store.iter().zip(store.iter().skip(1)) {
            prop_assert_eq!(a.name == b.name, a.name_id == b.name_id);
        }
        let trace = Trace { model: ModelKind::Wgan, framework: "MX\"Net", batch: 3, events: store };
        prop_assert_eq!(trace.digest(), reference_digest(&trace));
        let text = trace.to_chrome_json();
        prop_assert_eq!(&text, &reference_chrome_json(&trace));
        prop_assert!(json::parse(&text).is_ok(), "export must parse: {text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `a.append(&mut b)` equals writing `a`'s rows and then `b`'s into one
    /// store, whichever side is longer and when `a` is empty (it then takes
    /// `b`'s columns and names whole): every `EventRef` field, each event's
    /// range of the args arena, the name table's order, the modelled bytes
    /// and the digest. A row written after the append gets the reference's
    /// name id.
    #[test]
    fn append_equals_writing_both_stores_row_by_row(
        a_words in prop::collection::vec(prop::collection::vec(0u64..u64::MAX, 12), 0..24),
        b_words in prop::collection::vec(prop::collection::vec(0u64..u64::MAX, 12), 0..24),
        after in prop::collection::vec(0u64..u64::MAX, 12),
    ) {
        let a_rows: Vec<Row> = a_words.iter().map(|w| pooled_event_of(w)).collect();
        let b_rows: Vec<Row> = b_words.iter().map(|w| pooled_event_of(w)).collect();
        let later = pooled_event_of(&after);
        let (mut a, mut b) = (store_of(&a_rows), store_of(&b_rows));
        a.append(&mut b);
        later.write(&mut a);
        prop_assert!(b.is_empty() && b.names().is_empty() && b.args_arena().is_empty());
        let mut reference = store_of(&[a_rows, b_rows].concat());
        later.write(&mut reference);
        prop_assert_eq!(a.len(), reference.len());
        prop_assert_eq!(a.names(), reference.names());
        let offset = |store: &TraceStore, event: &EventRef<'_>| {
            (event.args.as_ptr() as usize - store.args_arena().as_ptr() as usize)
                / std::mem::size_of::<(&str, ArgValue)>()
        };
        for (event, expected) in a.iter().zip(reference.iter()) {
            prop_assert_eq!(event.name_id, expected.name_id);
            prop_assert_eq!(event.name, expected.name);
            prop_assert_eq!(event.layer, expected.layer);
            prop_assert_eq!(event.kind, expected.kind);
            prop_assert_eq!(event.start_us.to_bits(), expected.start_us.to_bits());
            prop_assert_eq!(event.dur_us.to_bits(), expected.dur_us.to_bits());
            prop_assert_eq!(event.track, expected.track);
            prop_assert_eq!(event.deterministic, expected.deterministic);
            prop_assert_eq!(offset(&a, &event), offset(&reference, &expected));
            prop_assert_eq!(event.args.len(), expected.args.len());
            for ((key, value), (ekey, evalue)) in event.args.iter().zip(expected.args) {
                prop_assert_eq!(key, ekey);
                prop_assert!(same_arg(value, evalue), "{value:?} != {evalue:?}");
            }
        }
        prop_assert_eq!(a.args_arena().len(), reference.args_arena().len());
        prop_assert_eq!(a.approx_bytes(), reference.approx_bytes());
        prop_assert_eq!(events_digest(&a), events_digest(&reference));
    }
}

/// The cached digest is never stale: changing the model, framework or
/// batch, or the events, after a digest changes the next one, and every
/// digest equals the materialised reference.
#[test]
fn store_digest_is_never_stale() {
    let event = |name: &'static str, start_us: f64| Row {
        track: 1,
        args: vec![("flops", ArgValue::F64(1e6))],
        ..Row::span(name, TraceLayer::GpuSim, EventKind::KernelExec, start_us, 2.0)
    };
    let mut trace = Trace {
        model: ModelKind::ResNet50,
        framework: "TensorFlow",
        batch: 4,
        events: store_of(&[event("a", 0.0), event("b", 2.0), event("a", 4.0)]),
    };
    let mut seen = vec![trace.digest()];
    let mut check = |trace: &Trace| {
        let digest = trace.digest();
        assert_eq!(digest, reference_digest(trace));
        assert_eq!(digest, trace.digest(), "a repeated digest is the cached one");
        assert!(!seen.contains(&digest), "digest {digest:016x} is stale");
        seen.push(digest);
    };
    trace.model = ModelKind::Wgan;
    check(&trace);
    trace.framework = "MXNet";
    check(&trace);
    trace.batch = 8;
    check(&trace);
    event("c", 6.0).write(&mut trace.events);
    check(&trace);
    trace.events.span(0, TraceLayer::GpuSim, EventKind::KernelExec, 8.0, 1.0);
    check(&trace);
    trace.events.retain(|e| e.name != "b");
    check(&trace);
    trace.events.truncate(2);
    check(&trace);
    trace.events.append(&mut store_of(&[event("d", 9.0)]));
    check(&trace);
    trace.events = store_of(&[event("a", 0.0)]);
    check(&trace);
    // Undoing a change gives the earlier digest back, recomputed.
    trace.batch = 4;
    trace.model = ModelKind::ResNet50;
    trace.framework = "TensorFlow";
    trace.events = store_of(&[event("a", 0.0), event("b", 2.0), event("a", 4.0)]);
    assert_eq!(trace.digest(), seen[0]);
}

/// The store models retained bytes with the per-event formula
/// `64 + name.len() + 16·args`: on a captured trace its sum, and the
/// recorder's `event_bytes_total`, equal the sum over the rows.
#[test]
fn store_modelled_bytes_equal_the_per_event_sum() {
    let recorder = TraceRecorder::shared();
    let cap = capture_into(
        ModelKind::A3c,
        Framework::mxnet(),
        8,
        &GpuSpec::quadro_p4000(),
        &TraceOptions::default(),
        &recorder,
    )
    .expect("capture succeeds");
    let per_event: u64 = cap
        .trace
        .events
        .iter()
        .map(|e| 64 + e.name.len() as u64 + 16 * e.args.len() as u64)
        .sum();
    assert!(per_event > 0);
    assert_eq!(cap.trace.events.approx_bytes(), per_event);
    assert_eq!(recorder.overhead().event_bytes_total, per_event);
}

/// The digest loop the run tables replaced, kept as the oracle: `seed`,
/// then `'\n'` and the canonical line of every event, byte by byte.
fn oracle_digest_after(seed: &Fnv1a, store: &TraceStore) -> u64 {
    let mut hasher = seed.clone();
    for event in store {
        hasher.update(b"\n");
        event.write_canonical(&mut hasher).expect("a hasher never fails");
    }
    hasher.finish()
}

/// The `events_digest` loop the run tables replaced: each canonical line,
/// then `'\n'`.
fn oracle_events_digest(store: &TraceStore) -> u64 {
    let mut hasher = Fnv1a::new();
    for event in store {
        event.write_canonical(&mut hasher).expect("a hasher never fails");
        hasher.update(b"\n");
    }
    hasher.finish()
}

/// Random events (pooled and fresh names, any timing, every `ArgValue`
/// variant) mixed at random positions with recurring ones:
/// - a borrowed name with 64 uses as a deterministic kernel and 64 as a
///   wall-clock memcpy, one name under two `(layer, kind, deterministic)`
///   combinations, each reaching its run table (non-ASCII, so every bit
///   of the low byte matters);
/// - an owned name with 63 uses, one short of it;
/// - borrowed and owned `Str` values, and `F64`, `U64` and `Bool` args
///   under recurring keys.
fn oracle_store(words: &[Vec<u64>]) -> TraceStore {
    let mut events: Vec<Row> = words.iter().map(|w| pooled_event_of(w)).collect();
    for i in 0..64u32 {
        let t = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, f64::from(i)][i as usize % 5];
        events.push(Row {
            track: i % 3,
            args: vec![
                ("class", "Gémm".into()),
                ("flops", (f64::from(i) * 1e6).into()),
                ("bytes", u64::from(i).into()),
                ("fused", (i % 2 == 0).into()),
            ],
            ..Row::span("hot ünï🚀", TraceLayer::GpuSim, EventKind::KernelExec, t, 2.0)
        });
        events.push(Row {
            deterministic: false,
            args: vec![("class", format!("Memcpy{}", i % 4).into())],
            ..Row::span("hot ünï🚀", TraceLayer::GpuSim, EventKind::Memcpy, t, 1.0)
        });
        if i < 63 {
            events.push(Row {
                args: vec![("value_hash", (u64::MAX - u64::from(i)).into())],
                ..Row::span("warm63".to_string(), TraceLayer::Profiler, EventKind::Phase, t, 0.0)
            });
        }
    }
    // A random interleaving of the random and the recurring events.
    let mut keyed: Vec<(u64, Row)> = events
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            let word = words.get(i % words.len().max(1)).map_or(0, |w| w[i % 12]);
            ((word ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15), e)
        })
        .collect();
    keyed.sort_by_key(|(key, _)| *key);
    store_of(&keyed.into_iter().map(|(_, e)| e).collect::<Vec<_>>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Trace::digest` and `events_digest`, which fold recurring strings
    /// through run tables, equal the byte-by-byte oracle loops.
    #[test]
    fn run_table_digests_equal_the_byte_fold_oracle(
        words in prop::collection::vec(prop::collection::vec(0u64..u64::MAX, 12), 0..40),
    ) {
        let store = oracle_store(&words);
        prop_assert_eq!(events_digest(&store), oracle_events_digest(&store));
        let trace = Trace { model: ModelKind::DeepSpeech2, framework: "MXNet", batch: words.len(), events: store };
        let mut header = Fnv1a::new();
        write!(header, "trace|{}|{}|batch={}", trace.model.name(), trace.framework, trace.batch)
            .expect("a hasher never fails");
        prop_assert_eq!(trace.digest(), oracle_digest_after(&header, &trace.events));
        prop_assert_eq!(trace.digest(), reference_digest(&trace));
    }
}

/// The fold starts from any hasher state: header seeds covering all 256
/// low bytes give the oracle's digest, and an empty store digests to the
/// seed (and `events_digest` to the empty hash).
#[test]
fn run_table_digests_equal_the_oracle_from_every_low_byte() {
    let words: Vec<Vec<u64>> =
        (0..24u64).map(|i| (0..12).map(|j| (i * 12 + j).wrapping_mul(0x2545_F491_4F6C_DD1D)).collect()).collect();
    let store = oracle_store(&words);
    let empty = TraceStore::new();
    let mut seen = [false; 256];
    let mut n = 0u64;
    while seen.iter().any(|s| !s) {
        let mut seed = Fnv1a::new();
        seed.update(&n.to_le_bytes());
        n += 1;
        let low = (seed.finish() & 0xff) as usize;
        if seen[low] {
            continue;
        }
        seen[low] = true;
        assert_eq!(store.digest_after(&seed), oracle_digest_after(&seed, &store), "low byte {low}");
        assert_eq!(empty.digest_after(&seed), seed.finish());
    }
    assert_eq!(events_digest(&empty), oracle_events_digest(&empty));
    assert_eq!(events_digest(&empty), fnv1a(b""));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `iter_where(f)` yields exactly `iter().filter(|e| f(e.layer,
    /// e.kind))`, field for field, and `approx_bytes()` equals the sum of
    /// `approx_event_bytes` over the rows after `append`, `truncate` and
    /// `retain`.
    #[test]
    fn column_filters_equal_row_filters(
        words in prop::collection::vec(prop::collection::vec(0u64..u64::MAX, 12), 0..40),
        more in prop::collection::vec(prop::collection::vec(0u64..u64::MAX, 12), 0..20),
        mask_words in prop::collection::vec(0u64..u64::MAX, 2),
        cut in 0usize..64,
        drop in 0u64..4,
    ) {
        // One bit per (layer, kind): 5 × 17 of the 128.
        let mask = u128::from(mask_words[0]) << 64 | u128::from(mask_words[1]);
        let keep = |layer: TraceLayer, kind: EventKind| {
            mask >> (layer.index() * EventKind::ALL.len() + kind as usize) & 1 == 1
        };
        let rows_bytes = |store: &TraceStore| store.iter().map(approx_event_bytes).sum::<u64>();
        let mut store = pooled_store(&words);
        let check = |store: &TraceStore| {
            let filtered: Vec<EventRef<'_>> = store.iter().filter(|e| keep(e.layer, e.kind)).collect();
            prop_assert_eq!(store.iter_where(keep).count(), filtered.len());
            for (a, b) in store.iter_where(keep).zip(&filtered) {
                prop_assert_eq!(a.name_id, b.name_id);
                prop_assert_eq!(a.name, b.name);
                prop_assert_eq!(a.layer, b.layer);
                prop_assert_eq!(a.kind, b.kind);
                prop_assert_eq!(a.start_us.to_bits(), b.start_us.to_bits());
                prop_assert_eq!(a.dur_us.to_bits(), b.dur_us.to_bits());
                prop_assert_eq!(a.track, b.track);
                prop_assert_eq!(a.deterministic, b.deterministic);
                prop_assert_eq!(a.args.len(), b.args.len());
                for ((ka, va), (kb, vb)) in a.args.iter().zip(b.args) {
                    prop_assert_eq!(ka, kb);
                    prop_assert!(same_arg(va, vb), "{va:?} != {vb:?}");
                }
            }
            prop_assert_eq!(store.approx_bytes(), rows_bytes(store));
        };
        check(&store);
        store.append(&mut pooled_store(&more));
        check(&store);
        store.truncate(cut);
        check(&store);
        store.retain(|e| e.track as u64 % 4 != drop);
        check(&store);
    }
}

/// Lanes longer than `MAX_LANE_EVENTS`, with repeated durations, starts
/// and names, render the reference selection: a full sort by duration
/// (descending), start, name and position, the first `MAX_LANE_EVENTS`
/// kept, then ordered by start and name.
#[test]
fn swimlanes_select_the_longest_spans_like_a_full_sort() {
    const NAMES: [&str; 4] = ["b", "a", "conv <3x3>", "a"];
    let mut events = TraceStore::new();
    // Two layers of two tracks, 500 spans per lane, drawn from 3 durations,
    // 5 starts and 3 names, so the cut falls inside runs of equal
    // (duration, start) and (duration, start, name).
    for i in 0..2000u32 {
        let x = i.wrapping_mul(2_654_435_761) >> 8;
        let layer = [TraceLayer::GpuSim, TraceLayer::Distrib][i as usize % 2];
        let kind = [EventKind::KernelExec, EventKind::Memcpy, EventKind::Communication][(x / 60 % 3) as usize];
        let (dur, start) = (f64::from(1 + x % 3), f64::from(x / 3 % 5));
        let name = events.intern(NAMES[(x / 15 % 4) as usize]);
        events.span(name, layer, kind, start, dur).on_track(i / 2 % 2);
    }
    // A lane of equal spans: every tie-break but position is equal.
    let same = events.intern("same");
    for _ in 0..300 {
        events.span(same, TraceLayer::Framework, EventKind::Phase, 5.0, 1.0);
    }
    let trace = Trace { model: ModelKind::Wgan, framework: "TensorFlow", batch: 1, events };
    let rects = |html: &str| -> Vec<String> {
        html.lines().filter(|l| l.starts_with("<rect ")).map(str::to_string).collect()
    };
    with_report(&trace, |ctx| {
        let html = ctx.render(DIGEST_TIMESTAMP);
        let mut expected = String::new();
        reference_swimlanes(ctx, &mut expected);
        let (got, want) = (rects(&html), rects(&expected));
        assert_eq!(want.len(), 5 * MAX_LANE_EVENTS, "every lane is over the cap");
        assert_eq!(got, want);
        assert!(html.contains("shorter span(s) elided"));
    });
}
