//! The perf-trajectory acceptance tests for `tbd bench`.
//!
//! A matrix run is cheap (simulation only, no functional step), so these
//! tests exercise the real thing end to end: the report must round-trip
//! through the in-tree JSON model, reproduce the paper's Fig. 9
//! feature-map dominance for ResNet-50 and Inception-v3, hold the >10 %
//! throughput drift gate against the pinned baseline in
//! `tests/golden/bench-baseline.json`, and keep the schema version honest.
//!
//! To accept an intentional trajectory change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test bench_trajectory
//! ```

use std::path::PathBuf;
use std::sync::OnceLock;
use tbd_core::trajectory::{BenchReport, BENCH_SCHEMA_VERSION, GOLDEN_PAIRS};
use tbd_core::GpuSpec;
use tbd_frameworks::SpeedOptions;
use tbd_profiler::json::Canonical;
use tbd_tensor::Precision;

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/bench-baseline.json")
}

/// One matrix run shared by every test (the date is fixed so the report —
/// and the pinned baseline — are reproducible byte for byte).
fn matrix_report() -> &'static BenchReport {
    static REPORT: OnceLock<BenchReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let speed = SpeedOptions::fused(Precision::F32);
        BenchReport::run(&GpuSpec::quadro_p4000(), true, "baseline".to_string(), speed)
            .expect("matrix bench succeeds")
    })
}

#[test]
fn matrix_report_round_trips_through_json() {
    let report = matrix_report();
    assert_eq!(report.schema_version, BENCH_SCHEMA_VERSION);
    assert_eq!(report.entries.len(), 14, "every supported pair is benched");
    let text = report.to_json().to_string();
    let parsed = BenchReport::from_json_text(&text).expect("round trip");
    assert_eq!(&parsed, report);
    assert_eq!(parsed.digest_hex(), report.digest_hex());
    // Entries carry the full metric payload, not just headline numbers.
    for entry in &parsed.entries {
        assert!(entry.throughput > 0.0, "{}", entry.key());
        assert!(!entry.class_time_us.is_empty(), "{}: class map", entry.key());
        assert_eq!(entry.memory_peak_bytes.len(), 5, "{}: five categories", entry.key());
        assert_eq!(entry.digest.len(), 16, "{}: trace digest", entry.key());
        let sampled = entry.sampled_throughput.expect("steady runs stabilise");
        let rel = (sampled - entry.throughput).abs() / entry.throughput;
        assert!(rel < 0.05, "{}: sampled {sampled} vs {}", entry.key(), entry.throughput);
    }
    // A bumped schema version must be rejected, not misread.
    let bumped = text
        .replace(&format!("\"schema_version\":{BENCH_SCHEMA_VERSION}"), "\"schema_version\":99");
    assert!(BenchReport::from_json_text(&bumped).is_err());
}

#[test]
fn feature_maps_dominate_memory_for_resnet_and_inception() {
    // Paper Fig. 9 / Observation 11: at representative batches the feature
    // maps dwarf every other memory class on the CNNs.
    for entry in &matrix_report().entries {
        if entry.model == "ResNet-50" || entry.model == "Inception-v3" {
            assert_eq!(
                entry.dominant_memory,
                "feature maps",
                "{}: dominant class must be feature maps",
                entry.key()
            );
            assert!(
                entry.feature_map_fraction > 0.5,
                "{}: feature maps hold {:.0}% of peak memory",
                entry.key(),
                100.0 * entry.feature_map_fraction
            );
        }
    }
}

#[test]
fn default_bench_covers_the_golden_pairs() {
    let speed = SpeedOptions::fused(Precision::F32);
    let report = BenchReport::run(&GpuSpec::quadro_p4000(), false, "baseline".to_string(), speed)
        .expect("golden bench succeeds");
    assert!(!report.matrix);
    assert_eq!(report.entries.len(), GOLDEN_PAIRS.len());
    for (entry, &(kind, _)) in report.entries.iter().zip(GOLDEN_PAIRS.iter()) {
        assert_eq!(entry.model, kind.name());
        assert_eq!(entry.batch, 4);
    }
}

#[test]
fn drift_gate_passes_self_and_flags_fabricated_regressions() {
    let report = matrix_report();
    report.check_drift(report).expect("a report never drifts from itself");
    // Fabricate a 20% regression on one entry: the gate must name it.
    let mut regressed = report.clone();
    regressed.entries[0].throughput *= 0.8;
    let message = regressed.check_drift(report).expect_err("20% drop exceeds the 10% gate");
    assert!(message.contains(&report.entries[0].key()), "gate names the entry: {message}");
    // Small wobble stays inside the gate.
    let mut wobbled = report.clone();
    for entry in &mut wobbled.entries {
        entry.throughput *= 1.03;
    }
    wobbled.check_drift(report).expect("3% wobble is tolerated");
}

#[test]
fn pinned_baseline_holds_the_trajectory() {
    let report = matrix_report();
    let path = baseline_path();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, report.to_json().to_string()).expect("write baseline");
        eprintln!("updated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing pinned baseline {} ({e}); run with UPDATE_GOLDEN=1 to create",
            path.display()
        )
    });
    let baseline = BenchReport::from_json_text(&text).expect("baseline parses");
    report.check_drift(&baseline).unwrap_or_else(|failures| {
        panic!(
            "throughput drifted from the pinned baseline:\n{failures}\n\
             If intentional: UPDATE_GOLDEN=1 cargo test --test bench_trajectory"
        )
    });
}
