//! Prometheus exposition-format conformance of the metrics exporter.
//!
//! Validates every line the registry renders for a real fused capture
//! against the text-format grammar (version 0.0.4): metric names from
//! `[a-zA-Z_:][a-zA-Z0-9_:]*`, label values with `\\`, `\"` and newline
//! escaped, every series preceded by a `# TYPE` declaration of its
//! family. The fused speed tier is the regression surface here: fused
//! kernel names carry `+` and `/`, which are legal in label values but
//! must never leak into a metric name.

use tbd_frameworks::Framework;
use tbd_gpusim::GpuSpec;
use tbd_models::ModelKind;
use tbd_profiler::agg::{escape_label_value, sanitize_metric_name};
use tbd_profiler::{observe, TraceOptions};

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let head_ok = chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Splits a series line (`name{l="v",…} value` or `name value`) into the
/// name, the raw label block and the value; panics on malformed framing.
fn split_series(line: &str) -> (&str, Option<&str>, &str) {
    if let Some(open) = line.find('{') {
        let close = line.rfind('}').unwrap_or_else(|| panic!("unclosed label block: {line}"));
        let (name, rest) = (&line[..open], &line[open + 1..close]);
        (name, Some(rest), line[close + 1..].trim())
    } else {
        let mut parts = line.splitn(2, ' ');
        let name = parts.next().expect("name");
        (name, None, parts.next().unwrap_or("").trim())
    }
}

/// Walks a label block, checking `key="value"` framing and that every
/// value is fully escaped (no raw `"` or newline inside).
fn check_labels(block: &str, line: &str) {
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest.find("=\"").unwrap_or_else(|| panic!("label without =\": {line}"));
        let key = &rest[..eq];
        assert!(valid_name(key), "bad label name '{key}' in: {line}");
        // Scan the value to its closing unescaped quote.
        let mut escaped = false;
        let mut end = None;
        for (i, c) in rest[eq + 2..].char_indices() {
            match c {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => {
                    end = Some(eq + 2 + i);
                    break;
                }
                '\n' => panic!("raw newline in label value: {line}"),
                _ => escaped = false,
            }
        }
        let end = end.unwrap_or_else(|| panic!("unterminated label value: {line}"));
        rest = rest[end + 1..].trim_start_matches(',');
    }
}

#[test]
fn fused_capture_exposition_matches_the_text_format_grammar() {
    let options = TraceOptions::default();
    let obs =
        observe(ModelKind::A3c, Framework::mxnet(), 4, &GpuSpec::quadro_p4000(), &options, None)
            .expect("A3C fits");
    let text = obs.registry.to_prometheus();
    let mut declared: Vec<String> = Vec::new();
    let mut series_seen = 0usize;
    for line in text.lines() {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let mut parts = decl.split_whitespace();
            let name = parts.next().expect("declared name");
            let kind = parts.next().expect("declared kind");
            assert!(valid_name(name), "bad declared name: {line}");
            assert!(matches!(kind, "counter" | "gauge" | "histogram"), "bad type '{kind}': {line}");
            declared.push(name.to_string());
            continue;
        }
        assert!(!line.starts_with('#'), "only TYPE comments are emitted: {line}");
        let (name, labels, value) = split_series(line);
        assert!(valid_name(name), "bad series name: {line}");
        assert!(
            declared.iter().any(|d| name == d || name.starts_with(&format!("{d}_"))),
            "series '{name}' has no TYPE declaration"
        );
        if let Some(block) = labels {
            check_labels(block, line);
        }
        assert!(value.parse::<f64>().is_ok(), "value must be a float literal: {line}");
        series_seen += 1;
    }
    assert!(series_seen > 50, "a real capture renders a full exposition, got {series_seen}");

    // The fused tier's regression surface: '+'-joined kernel names appear
    // as label values, never inside a metric name.
    assert!(text.contains("kernel=\""), "per-kernel series present");
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (name, _, _) = split_series(line);
        assert!(!name.contains('+') && !name.contains('/'), "unsanitized name: {line}");
    }
}

#[test]
fn escaping_helpers_round_trip_hostile_values() {
    assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    assert_eq!(sanitize_metric_name("fused+chain/relu"), "fused_chain_relu");
    assert_eq!(sanitize_metric_name("9lives"), "_9lives");
}
