//! End-to-end gates of the `tbd report` HTML artifact (DESIGN.md §5i).
//!
//! The render must be a pure function of the simulated capture: the same
//! workload rendered under different intra-op thread counts produces the
//! same FNV digest, and that digest is pinned against
//! `tests/golden/report-baseline.digest`. Regenerate after an intentional
//! change with `UPDATE_GOLDEN=1 cargo test --test report`.
//!
//! A release-only gate also holds the recorder's self-observability
//! promise: across the bench-harness workload set, the host time the
//! recorder accounts for itself must stay under 5% of the iteration span
//! each capture models. The modelled span — not the capture's host wall —
//! is the denominator because the profiler is a simulator that computes an
//! iteration orders of magnitude faster than the hardware it models, while
//! the recorder's per-event cost is real; against a real framework
//! emitting the same events over the real (modelled) span, the gated
//! fraction is the overhead a user would see.

use std::fmt::Write as _;
use std::path::PathBuf;

use tbd_core::{Framework, GpuSpec, ModelKind};
use tbd_profiler::live::{render_report, RenderedReport};
use tbd_profiler::{observe, parse_digest_file, TraceOptions, DIGEST_TIMESTAMP};

const BASELINE_MODEL: ModelKind = ModelKind::ResNet50;
const BASELINE_BATCH: usize = 4;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/report-baseline.digest")
}

fn baseline_report(threads: usize) -> RenderedReport {
    let options = TraceOptions { intra_op_threads: threads, ..TraceOptions::default() };
    let gpu = GpuSpec::quadro_p4000();
    let framework = Framework::tensorflow();
    let obs = observe(BASELINE_MODEL, framework, BASELINE_BATCH, &gpu, &options, None)
        .expect("ResNet-50 b4 builds");
    assert!(obs.capture.oom.is_none(), "ResNet-50 b4 fits the P4000");
    render_report(&obs, DIGEST_TIMESTAMP)
}

#[test]
fn digest_is_invariant_across_thread_counts_and_matches_the_golden() {
    let one = baseline_report(1);
    let four = baseline_report(4);
    assert_eq!(
        one.digest_hex, four.digest_hex,
        "report digest must be bitwise-stable across intra-op thread counts"
    );

    let mut rendered = String::new();
    let _ = writeln!(
        rendered,
        "# golden report digest — regenerate with UPDATE_GOLDEN=1 cargo test --test report"
    );
    let _ = writeln!(rendered, "digest {}", one.digest_hex);
    let _ = writeln!(rendered, "model {}", BASELINE_MODEL.name());
    let _ = writeln!(rendered, "framework {}", Framework::tensorflow().name());
    let _ = writeln!(rendered, "batch {BASELINE_BATCH}");

    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); run with UPDATE_GOLDEN=1", path.display())
    });
    let want = parse_digest_file(&text).expect("golden has a digest line");
    assert_eq!(
        one.digest_hex, want,
        "report render drifted from the pinned baseline; if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test report"
    );
}

#[test]
fn report_carries_every_observability_section() {
    let out = baseline_report(1);
    for marker in [
        "TBD run report",                 // header
        "<svg",                           // flamegraph swimlanes
        "memory footprint",               // Fig. 9 curve
        "overlap",                        // Fig. 10 comm/compute bars
        "internal_events_recorded_total", // self-observability table
        "diagnosis",                      // ranked bottleneck classes
    ] {
        assert!(
            out.html.to_lowercase().contains(&marker.to_lowercase()),
            "report is missing its '{marker}' section"
        );
    }
    // Self-contained: no external fetches of any kind.
    for banned in ["http://", "https://", "<link", "@import", "src="] {
        assert!(!out.html.contains(banned), "external reference '{banned}' in report");
    }
}

#[test]
fn recorder_overhead_stays_under_five_percent_in_release() {
    if cfg!(debug_assertions) {
        // Debug builds inflate the recorder constant factors; the 5% gate
        // is a release promise (CI runs this test with --release).
        return;
    }
    let mut record_s_total = 0.0f64;
    let mut modeled_s_total = 0.0f64;
    for &(kind, fw) in &tbd_core::trajectory::GOLDEN_PAIRS {
        let framework = match fw {
            "tensorflow" => Framework::tensorflow(),
            "mxnet" => Framework::mxnet(),
            other => panic!("unknown golden framework {other}"),
        };
        let batch = tbd_core::trajectory::GOLDEN_BATCH;
        let obs = observe(
            kind,
            framework,
            batch,
            &GpuSpec::quadro_p4000(),
            &TraceOptions::default(),
            None,
        )
        .unwrap_or_else(|e| panic!("{kind:?} b{batch} capture failed: {e}"));
        let modeled_s = obs
            .capture
            .profile
            .as_ref()
            .map(|p| p.iteration.wall_time_s)
            .unwrap_or_else(|| panic!("{kind:?} b{batch} hit simulated OOM"));
        let fraction = obs.overhead.overhead_fraction(modeled_s);
        assert!(
            fraction < 0.05,
            "{kind:?}: recorder cost {:.3}ms is {:.2}% of the {:.3}s modelled iteration \
             (budget 5%)",
            obs.overhead.record_ns_total as f64 / 1e6,
            100.0 * fraction,
            modeled_s
        );
        record_s_total += obs.overhead.record_ns_total as f64 / 1e9;
        modeled_s_total += modeled_s;
    }
    let aggregate = record_s_total / modeled_s_total;
    assert!(
        aggregate < 0.05,
        "aggregate recorder overhead {:.2}% across the bench set (budget 5%)",
        100.0 * aggregate
    );
}
