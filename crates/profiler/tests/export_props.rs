//! Equivalence properties of the streaming trace serialisers.
//!
//! `Trace::digest`, `Trace::to_chrome_json` and the report digest write
//! straight into a hasher or the output buffer. Each is checked here
//! against a materialising reference kept in this file: the digest
//! against FNV-1a over the built `header + "\n" + canonical()` text, the
//! Chrome export against the per-event `format!` exporter it replaced, and
//! the single-render report digest against a hash of the placeholder
//! render. Events are random: every `ArgValue` variant, wall-clock and
//! deterministic timing, and names with quotes, backslashes, control
//! characters and non-ASCII text.

use proptest::prelude::*;
use std::borrow::Cow;
use std::fmt::Write as _;
use tbd_frameworks::Framework;
use tbd_gpusim::GpuSpec;
use tbd_models::ModelKind;
use tbd_profiler::json::{self, Value};
use tbd_profiler::trace::{fnv1a, ArgValue, EventKind, TraceEvent, TraceLayer};
use tbd_profiler::{
    capture, diagnose_events, ReportContext, StreamingAggregator, Trace, TraceOptions,
    DIGEST_TIMESTAMP,
};

/// Arg keys must be `'static`; these cover the characters JSON escapes.
const KEYS: [&str; 6] = ["bytes", "k\"q", "back\\slash", "ctl\u{1}\r\n\t", "ünï🚀", "value_hash"];

const KINDS: [EventKind; 6] = [
    EventKind::NodeExec,
    EventKind::KernelExec,
    EventKind::Memcpy,
    EventKind::Alloc,
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

/// One random event from six random words.
fn event_of(words: &[u64]) -> TraceEvent {
    let layer = TraceLayer::ALL[(words[0] % 5) as usize];
    let kind = KINDS[(words[0] >> 8) as usize % KINDS.len()];
    let dur = if words[2].is_multiple_of(3) { 0.0 } else { finite_time(words[2]) };
    let mut event = TraceEvent::span(
        text_of(words[1], words[1] >> 60),
        layer,
        kind,
        finite_time(words[3]),
        dur,
    )
    .on_track((words[0] >> 16) as u32 % 9);
    if words[0] & 0x100_0000 != 0 {
        event = event.wall_clock();
    }
    for (i, &word) in words[4..].iter().enumerate().take((words[0] >> 32) as usize % 3) {
        event = event.with_arg(KEYS[(word % 6) as usize], arg_of(word.rotate_right(i as u32)));
    }
    event
}

fn trace_of(words: &[Vec<u64>]) -> Trace {
    Trace {
        model: ModelKind::ALL[words.len() % ModelKind::ALL.len()],
        framework: "Tensor\"Flow\\",
        batch: words.len(),
        events: words.iter().map(|w| event_of(w)).collect(),
    }
}

/// Reference canonical line, built with `format!` and `{:016x}`.
fn reference_canonical(event: &TraceEvent) -> String {
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

/// The per-event `format!` Chrome exporter the in-place writer replaced
/// (valid for finite times, which is all it handled).
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
        for (key, value) in &event.args {
            let _ = write!(args, ",\"{}\":{}", reference_escape(key), reference_arg_json(value));
        }
        lines.push(if event.dur_us > 0.0 {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{},\"tid\":{},\"args\":{{{args}}}}}",
                reference_escape(&event.name),
                event.start_us,
                event.dur_us,
                event.layer.pid(),
                event.track,
            )
        } else {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{:.3},\"s\":\"t\",\
                 \"pid\":{},\"tid\":{},\"args\":{{{args}}}}}",
                reference_escape(&event.name),
                event.start_us,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The streamed digest equals FNV-1a over the materialised text, and
    /// every canonical line equals its `format!` reference.
    #[test]
    fn streaming_digest_equals_materialised_digest(
        words in prop::collection::vec(prop::collection::vec(0u64..u64::MAX, 6), 0..24),
        nan_bits in 0u64..4,
    ) {
        let mut trace = trace_of(&words);
        // Canonical lines carry raw bits, so non-finite times digest too.
        if let Some(event) = trace.events.first_mut() {
            event.start_us = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][nan_bits as usize];
        }
        for event in &trace.events {
            prop_assert_eq!(event.canonical(), reference_canonical(event));
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
        let timestamp: String = stamp
            .iter()
            .map(|&b| ['<', '&', '"', '\'', '>', 'é', '1', ' '][usize::from(b % 8)])
            .collect();
        let agg = StreamingAggregator::new();
        agg.consume_all(&trace.events);
        let registry = agg.registry();
        let diagnosis = diagnose_events("toy", trace.framework, trace.batch, &trace.events);
        let trace_digest = trace.digest_hex();
        let ctx = ReportContext {
            model: trace.model.name(),
            framework: trace.framework,
            batch: trace.batch,
            gpu: "Quadro P4000",
            trace_digest: &trace_digest,
            events: &trace.events,
            registry: &registry,
            diagnosis: &diagnosis,
            overhead: Default::default(),
        };
        let (html, digest) = ctx.render_and_digest(&timestamp);
        let expected = format!("{:016x}", fnv1a(ctx.render(DIGEST_TIMESTAMP).as_bytes()));
        prop_assert_eq!(&html, &ctx.render(&timestamp));
        prop_assert_eq!(&digest, &expected);
        prop_assert_eq!(&ctx.digest_hex(), &expected);
    }
}

/// A real capture (simulation only, so every time is deterministic)
/// exports and digests exactly like the references.
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
    }
}

/// JSON has no NaN or infinity: non-finite `ts`/`dur` export as `null`,
/// so the document still parses.
#[test]
fn non_finite_times_export_as_null() {
    let events = vec![
        TraceEvent::span("nan start", TraceLayer::GpuSim, EventKind::KernelExec, f64::NAN, 2.0),
        TraceEvent::span("inf dur", TraceLayer::GpuSim, EventKind::KernelExec, 1.0, f64::INFINITY),
        TraceEvent::instant("neg inf", TraceLayer::Profiler, EventKind::Phase, f64::NEG_INFINITY),
        TraceEvent::span("nan dur", TraceLayer::Distrib, EventKind::Communication, 3.0, f64::NAN)
            .with_arg("exposed_us", f64::NAN),
    ];
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
