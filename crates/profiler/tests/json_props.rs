//! Test coverage for `tbd_profiler::json` — the in-tree JSON model every
//! exporter rides on (Chrome traces, metric registries, BENCH reports).
//!
//! Covers the satellite checklist: escape handling for every class of
//! troublesome string, deep nesting, NaN/Infinity rejection on both the
//! parse and serialize sides, and round-tripping of the new metric
//! exports produced by the streaming aggregation layer.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tbd_frameworks::Framework;
use tbd_gpusim::GpuSpec;
use tbd_models::ModelKind;
use tbd_profiler::json::{escape, parse, Value};
use tbd_profiler::trace::TraceRecorder;
use tbd_profiler::{capture_into, StreamingAggregator, TraceOptions};

/// Decodes a fuzzer byte into a deliberately troublesome character:
/// controls, quotes, backslashes, multi-byte scalars and plain ASCII.
fn troublesome_char(byte: u8) -> char {
    match byte % 8 {
        0 => '"',
        1 => '\\',
        2 => '\n',
        3 => char::from(byte % 0x20),          // C0 control
        4 => 'é',                              // two UTF-8 bytes
        5 => '\u{2028}',                       // line separator
        6 => '🚀',                             // four UTF-8 bytes
        _ => char::from(0x20 + (byte % 0x5f)), // printable ASCII
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every string — controls, quotes, backslashes, multi-byte UTF-8 —
    /// survives escape → parse unchanged, both bare and as an object key.
    #[test]
    fn escaped_strings_round_trip(bytes in prop::collection::vec(0u8..255, 0..40)) {
        let s: String = bytes.iter().map(|&b| troublesome_char(b)).collect();
        let quoted = format!("\"{}\"", escape(&s));
        let parsed = parse(&quoted).expect("escaped string must parse");
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
        // And as a key: keys go through the same escaping on Display.
        let mut obj = BTreeMap::new();
        obj.insert(s.clone(), Value::Bool(true));
        let doc = Value::Obj(obj);
        let reparsed = parse(&doc.to_string()).expect("object with escaped key");
        prop_assert_eq!(&reparsed, &doc);
        prop_assert!(reparsed.get(&s).is_some());
    }

    /// Arbitrarily deep nesting of arrays and objects round-trips through
    /// Display and parses back to the identical value.
    #[test]
    fn nested_structures_round_trip(
        depth in 1usize..60,
        fanout in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let mut value = Value::Num((seed as f64) * 0.125);
        for level in 0..depth {
            value = if level % 2 == 0 {
                // Nest the previous value once and pad with scalars —
                // linear growth, not fanout^depth.
                let mut items = vec![value];
                items.extend((1..fanout).map(|k| Value::Num(k as f64)));
                Value::Arr(items)
            } else {
                let mut obj = BTreeMap::new();
                obj.insert(format!("level{level}"), value);
                obj.insert("tag".to_string(), Value::Str(format!("d{level}")));
                Value::Obj(obj)
            };
        }
        let text = value.to_string();
        let reparsed = parse(&text).expect("nested document parses");
        prop_assert_eq!(reparsed, value);
    }

    /// Finite numbers round-trip exactly enough for metric payloads
    /// (integers bit-exactly; floats through Rust's shortest-repr Display).
    #[test]
    fn finite_numbers_round_trip(mantissa in -1.0e12f64..1.0e12, shift in 0i32..12) {
        let n = mantissa / 10f64.powi(shift);
        let text = Value::Num(n).to_string();
        let reparsed = parse(&text).expect("finite number parses");
        let back = reparsed.as_f64().expect("still a number");
        prop_assert!((back - n).abs() <= n.abs() * 1e-12, "{back} vs {n}");
    }
}

/// JSON has no NaN/Infinity: the parser rejects every spelling (including
/// overflow-to-infinity literals) and the serializer degrades non-finite
/// numbers to `null` instead of emitting unparseable tokens.
#[test]
fn non_finite_numbers_are_rejected_on_both_sides() {
    for bad in ["NaN", "nan", "Infinity", "-Infinity", "inf", "-inf", "1e999", "-1e999"] {
        assert!(parse(bad).is_err(), "'{bad}' must not parse");
        assert!(parse(&format!("[{bad}]")).is_err(), "'[{bad}]' must not parse");
        assert!(parse(&format!("{{\"x\": {bad}}}")).is_err(), "object with {bad} must not parse");
    }
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(Value::Num(bad).to_string(), "null");
    }
    // A non-finite value nested in an export still yields a valid document.
    let doc = Value::Arr(vec![Value::Num(1.0), Value::Num(f64::NAN)]);
    let reparsed = parse(&doc.to_string()).expect("serializer output always parses");
    assert_eq!(reparsed.as_array().unwrap()[1], Value::Null);
}

/// The new metric exports round-trip: a registry built by the streaming
/// aggregator serialises to JSON that parses back identically and keeps
/// the counters/gauges/histograms sections intact.
#[test]
fn metric_registry_json_export_round_trips() {
    let agg = StreamingAggregator::shared();
    let recorder = TraceRecorder::shared_with_sink(agg.clone());
    capture_into(
        ModelKind::A3c,
        Framework::mxnet(),
        8,
        &GpuSpec::quadro_p4000(),
        &TraceOptions { functional: false, ..TraceOptions::default() },
        &recorder,
    )
    .expect("capture succeeds");
    let registry = agg.lock().unwrap().registry();
    let json = registry.to_json();
    let text = json.to_string();
    let reparsed = parse(&text).expect("metric export must be valid JSON");
    assert_eq!(reparsed, json, "export must round-trip bit-for-bit");
    for section in ["counters", "gauges", "histograms"] {
        assert!(reparsed.get(section).is_some(), "missing section '{section}'");
    }
    let counters = reparsed.get("counters").unwrap();
    assert!(
        counters.get("events_total").and_then(Value::as_f64).is_some_and(|n| n > 0.0),
        "a real capture records events"
    );
    // Prometheus is the other text export; spot-check it stays line-based
    // and carries the same headline counter.
    let prom = registry.to_prometheus();
    assert!(prom.lines().any(|l| l.starts_with("tbd_events_total ")));
    assert!(prom.lines().all(|l| l.is_empty() || l.starts_with('#') || l.contains(' ')));
}
