//! The report codec against every pinned JSON baseline: each decodes,
//! round-trips through `to_json`, recomputes the `digest` stored in the
//! file, and rejects malformed numbers and bools instead of coercing them.
//!
//! The mutation battery walks every numeric leaf of a baseline and sets
//! it to `0.5`: exactly the integer fields must refuse it (f64 fields take
//! any number), and each integer field must also refuse `-1` and `1e20`.
//! Every bool must refuse the string `"true"`, and `schema_version` must
//! refuse `1.5`.

use std::collections::BTreeSet;
use std::path::PathBuf;
use tbd_core::{BenchReport, ChaosReport, DiagnosisReport, ElasticReport, ScaleReport};
use tbd_profiler::json::{self, Canonical, Codec, Value};

fn read(relative: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn decodes<T: Codec>(text: &str) -> Result<(), String> {
    json::decode_text::<T>(text).map(drop)
}

/// Decodes `text` as `T`, re-encodes it and checks the second decode is
/// equal to the first.
fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(text: &str) -> Result<(), String> {
    let first: T = json::decode_text(text)?;
    let second: T = json::decode_text(&first.to_value().to_string())?;
    assert_eq!(first, second, "round trip changed the report");
    Ok(())
}

/// The report digest recomputed from the decoded `text`.
fn digest<T: Codec + Canonical>(text: &str) -> String {
    json::decode_text::<T>(text).expect("baseline decodes").digest_hex()
}

/// A baseline file, its decoder (alone and as a round trip), the report
/// digest recomputed from the decoded file, and the integer fields its
/// type declares (array indices written `[]`, map keys `*`).
struct Baseline {
    file: &'static str,
    decode: fn(&str) -> Result<(), String>,
    round_trip: fn(&str) -> Result<(), String>,
    digest: fn(&str) -> String,
    integers: &'static [&'static str],
}

fn baselines() -> Vec<Baseline> {
    vec![
        Baseline {
            file: "tests/golden/scale-baseline.json",
            decode: decodes::<ScaleReport>,
            round_trip: round_trip::<ScaleReport>,
            digest: digest::<ScaleReport>,
            integers: &[
                "schema_version",
                "batch",
                "entries[].workers",
                "entries[].buckets",
                "entries[].retries",
            ],
        },
        Baseline {
            file: "tests/golden/elastic-baseline.json",
            decode: decodes::<ElasticReport>,
            round_trip: round_trip::<ElasticReport>,
            digest: digest::<ElasticReport>,
            integers: &[
                "schema_version",
                "batch",
                "seed",
                "steps",
                "entries[].workers",
                "entries[].epochs",
                "entries[].evictions",
                "entries[].rejoins",
                "entries[].degraded_steps",
                "entries[].useful_samples",
            ],
        },
        Baseline {
            file: "tests/golden/chaos-baseline.json",
            decode: decodes::<ChaosReport>,
            round_trip: round_trip::<ChaosReport>,
            digest: digest::<ChaosReport>,
            integers: &[
                "schema_version",
                "batch",
                "seed",
                "steps",
                "faults_injected",
                "faults_by_kind.*",
                "recoveries",
                "replayed_steps",
                "skipped_steps",
                "forced_through",
                "checkpoints_written",
                "checkpoint_bytes",
                "degradation.batch",
                "degradation.total_bytes",
                "degradation.rungs_tried",
            ],
        },
        Baseline {
            file: "tests/golden/diagnose-baseline.json",
            decode: decodes::<DiagnosisReport>,
            round_trip: round_trip::<DiagnosisReport>,
            digest: digest::<DiagnosisReport>,
            integers: &["schema_version", "batch", "events"],
        },
        Baseline {
            file: "tests/golden/bench-baseline.json",
            decode: decodes::<BenchReport>,
            round_trip: round_trip::<BenchReport>,
            digest: digest::<BenchReport>,
            integers: &[
                "schema_version",
                "entries[].batch",
                "entries[].memory_peak_bytes.*",
                "scale[].workers",
                "scale[].buckets",
                "scale[].retries",
                "speed_tier.batch",
            ],
        },
        Baseline {
            file: "BENCH_2026-08-05.json",
            decode: decodes::<BenchReport>,
            round_trip: round_trip::<BenchReport>,
            digest: digest::<BenchReport>,
            integers: &[
                "schema_version",
                "entries[].batch",
                "entries[].memory_peak_bytes.*",
                "scale[].workers",
                "scale[].buckets",
                "scale[].retries",
            ],
        },
    ]
}

/// Every leaf of `value` with its concrete path (`entries.3.workers`).
fn leaves(value: &Value, path: Vec<String>, out: &mut Vec<(Vec<String>, Value)>) {
    match value {
        Value::Obj(map) => {
            for (key, child) in map {
                let mut next = path.clone();
                next.push(key.clone());
                leaves(child, next, out);
            }
        }
        Value::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                let mut next = path.clone();
                next.push(i.to_string());
                leaves(child, next, out);
            }
        }
        leaf => out.push((path, leaf.clone())),
    }
}

/// The declared-field form of a concrete path: indices become `[]` and
/// the keys of the report maps become `*`.
fn pattern(path: &[String]) -> String {
    let mut out = String::new();
    for (i, segment) in path.iter().enumerate() {
        if segment.parse::<usize>().is_ok() {
            out.push_str("[]");
        } else if i > 0 && ["faults_by_kind", "memory_peak_bytes"].contains(&path[i - 1].as_str()) {
            out.push_str(".*");
        } else {
            if !out.is_empty() {
                out.push('.');
            }
            out.push_str(segment);
        }
    }
    out
}

fn with_leaf(root: &Value, path: &[String], leaf: Value) -> Value {
    let mut root = root.clone();
    let mut at = &mut root;
    for segment in path {
        at = match at {
            Value::Obj(map) => map.get_mut(segment).expect("path exists"),
            Value::Arr(items) => &mut items[segment.parse::<usize>().expect("index")],
            _ => unreachable!("leaves only descend containers"),
        };
    }
    *at = leaf;
    root
}

#[test]
fn every_baseline_round_trips() {
    for baseline in baselines() {
        (baseline.round_trip)(&read(baseline.file))
            .unwrap_or_else(|e| panic!("{} does not decode: {e}", baseline.file));
    }
    // The serve response has no decoder; its golden still round-trips
    // through the value model byte for byte.
    let serve = read("tests/golden/serve-baseline.json");
    let value = json::parse(&serve).expect("serve golden parses");
    assert_eq!(value.to_string(), serve.trim_end());
}

/// The stored `digest` key pins the canonical line format: a fresh run
/// and a decoded baseline digest through the same code, so only the file
/// can tell a changed line format.
#[test]
fn stored_digests_match_the_recomputed_ones() {
    for baseline in baselines() {
        let text = read(baseline.file);
        let root = json::parse(&text).expect("baseline parses");
        let stored = root.get("digest").and_then(Value::as_str).expect("a stored digest");
        assert_eq!((baseline.digest)(&text), stored, "{}", baseline.file);
    }
}

#[test]
fn malformed_numbers_and_bools_are_rejected() {
    for baseline in baselines() {
        let root = json::parse(&read(baseline.file)).expect("baseline parses");
        let mut all = Vec::new();
        leaves(&root, Vec::new(), &mut all);
        let mut integers = BTreeSet::new();
        for (path, leaf) in &all {
            let rejects =
                |bad: Value| (baseline.decode)(&with_leaf(&root, path, bad).to_string()).is_err();
            match leaf {
                Value::Num(_) if rejects(Value::Num(0.5)) => {
                    integers.insert(pattern(path));
                    for bad in [-1.0, 1e20] {
                        assert!(rejects(Value::Num(bad)), "{}: {path:?} = {bad}", baseline.file);
                    }
                }
                Value::Bool(_) => {
                    assert!(rejects(Value::Str("true".into())), "{}: {path:?}", baseline.file);
                }
                _ => {}
            }
        }
        let declared: BTreeSet<String> = baseline.integers.iter().map(|s| s.to_string()).collect();
        assert_eq!(integers, declared, "{}: integer fields", baseline.file);
        let version = vec!["schema_version".to_string()];
        let err = (baseline.decode)(&with_leaf(&root, &version, Value::Num(1.5)).to_string());
        assert!(err.is_err(), "{}: schema_version 1.5 accepted", baseline.file);
    }
}

#[test]
fn errors_name_the_report_the_field_and_the_value() {
    // The reproduction of the silent coercion: a scale snapshot with a
    // fractional schema version, a negative batch and negative/fractional
    // entry counts used to pass `tbd scale --check`.
    let text = read("tests/golden/scale-baseline.json");
    let negative_workers = text.replacen("\"workers\":1}", "\"workers\":-2}", 1);
    assert_ne!(negative_workers, text);
    let err = ScaleReport::from_json_text(&negative_workers).unwrap_err();
    assert_eq!(
        err,
        "scale report field 'entries': [0] scale entry field 'workers': \
         expected an integer in 0..=9007199254740992, got -2"
    );
    let bad_version = text.replace("\"schema_version\":1", "\"schema_version\":1.5");
    let err = ScaleReport::from_json_text(&bad_version).unwrap_err();
    assert!(err.contains("scale report field 'schema_version'") && err.contains("1.5"), "{err}");
    let seeded = text.replace("\"straggler_seed\":null", "\"straggler_seed\":-4");
    assert_ne!(seeded, text);
    assert!(ScaleReport::from_json_text(&seeded).is_err(), "a present Option is still checked");
    let sweep = text.replace("\"sweep\":true", "\"sweep\":1");
    assert!(ScaleReport::from_json_text(&sweep).unwrap_err().contains("'sweep'"));
}

/// The JSON writer prints `-0.0` as `0`, so the digest line writes it as
/// `+0.0`: a bench report with a negative zero digests the same after a
/// round trip.
#[test]
fn a_negative_zero_keeps_the_bench_digest_across_a_round_trip() {
    let text = read("tests/golden/bench-baseline.json");
    let mut report = BenchReport::from_json_text(&text).expect("decodes");
    let entry = &mut report.entries[0];
    entry.cpu_utilization = -0.0;
    *entry.class_time_us.values_mut().next().expect("a kernel class") = -0.0;
    let written = report.to_json().to_string();
    let decoded = BenchReport::from_json_text(&written).expect("round trip");
    assert_eq!(decoded.digest_hex(), report.digest_hex());
}
