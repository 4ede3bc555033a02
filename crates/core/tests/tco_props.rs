//! Property battery of the TCO/cost dimension (DESIGN.md §5j).
//!
//! The $/iteration model is `workers × $/hr / 3600 × iteration_s`, priced
//! from `GpuSpec::price_per_hour` and surfaced through `ScaleReport` and
//! the serve tier. Three properties pin it down:
//!
//! * $/iteration is strictly monotone in the device's $/hr (and zero
//!   pricing disables costing entirely);
//! * at uniform prices, ranking cluster points by $/1k-samples is the
//!   same as ranking them by time per sample — cost adds information
//!   only when prices differ;
//! * the cost columns are excluded from the canonical digest, so every
//!   pinned scale baseline survives the TCO dimension unchanged.

use std::path::PathBuf;
use tbd_core::{Framework, GpuSpec, ModelKind, ScaleReport};
use tbd_distrib::ClusterConfig;
use tbd_profiler::json::Canonical;

fn priced(price_per_hour: f64) -> GpuSpec {
    GpuSpec { price_per_hour, ..GpuSpec::quadro_p4000() }
}

/// The pinned baseline's own configuration: ResNet-50 / MXNet / b16 over
/// the full 1M1G→4M4G sweep grid.
fn reference_report(gpu: &GpuSpec) -> ScaleReport {
    ScaleReport::run(ModelKind::ResNet50, Framework::mxnet(), 16, gpu, true, None)
        .expect("reference scale run")
}

#[test]
fn cost_per_iteration_is_monotone_in_price_per_hour() {
    let cluster = ClusterConfig::single_machine(4);
    let iteration_s = 0.25;
    let mut last = 0.0;
    for price in [0.10, 0.35, 0.75, 2.0, 8.0] {
        let cost = cluster.cost_per_iteration(price, iteration_s);
        assert!(cost > last, "${price}/h -> {cost} must exceed {last}");
        // Linearity, not just monotonicity: doubling the price doubles
        // the bill.
        let doubled = cluster.cost_per_iteration(2.0 * price, iteration_s);
        assert!((doubled - 2.0 * cost).abs() < 1e-15, "{doubled} vs {}", 2.0 * cost);
        last = cost;
    }
}

#[test]
fn report_costs_scale_with_the_device_price_and_zero_disables() {
    let cheap = reference_report(&priced(0.35));
    let pricey = reference_report(&priced(0.70));
    let free = reference_report(&priced(0.0));
    assert_eq!(cheap.price_per_hour, Some(0.35));
    assert_eq!(free.price_per_hour, None);
    for ((c, p), f) in cheap.entries.iter().zip(&pricey.entries).zip(&free.entries) {
        assert_eq!(c.label, p.label);
        let (c_cost, p_cost) =
            (c.cost_per_iteration.expect("priced"), p.cost_per_iteration.expect("priced"));
        assert!(p_cost > c_cost, "{}: {p_cost} vs {c_cost}", c.label);
        assert!((p_cost - 2.0 * c_cost).abs() < 1e-12, "{}: linear in $/hr", c.label);
        assert_eq!(f.cost_per_iteration, None, "{}: $0/h disables costing", f.label);
        assert_eq!(f.cost_per_1k_samples, None, "{}", f.label);
    }
}

#[test]
fn uniform_price_cost_ranking_matches_time_per_sample_ranking() {
    let report = reference_report(&GpuSpec::quadro_p4000());
    // $/1k-samples = workers × $/hr / 3600 × iteration_s × 1000 /
    // (workers × batch): the workers cancel, so at a uniform price the
    // cost ranking is exactly the iteration-time ranking — buying more
    // devices changes throughput, never the bill per sample.
    let mut by_cost: Vec<&str> = report.entries.iter().map(|e| e.label.as_str()).collect();
    let mut by_time = by_cost.clone();
    let cost_of = |label: &str| {
        report
            .entries
            .iter()
            .find(|e| e.label == label)
            .and_then(|e| e.cost_per_1k_samples)
            .expect("priced entry")
    };
    let time_of =
        |label: &str| report.entries.iter().find(|e| e.label == label).expect("entry").iteration_s;
    by_cost.sort_by(|a, b| cost_of(a).total_cmp(&cost_of(b)));
    by_time.sort_by(|a, b| time_of(a).total_cmp(&time_of(b)));
    assert_eq!(by_cost, by_time, "uniform prices cannot reorder the time ranking");
    // The per-entry invariant behind the cancellation, at the P4000's
    // $0.35/hr list price.
    for e in &report.entries {
        let want = 0.35 / 3600.0 * e.iteration_s * 1000.0 / report.batch as f64;
        let got = e.cost_per_1k_samples.expect("priced");
        assert!((got - want).abs() <= 1e-12 * want.abs(), "{}: {got} vs {want}", e.label);
    }
}

#[test]
fn scale_digest_is_unchanged_by_the_cost_dimension() {
    let report = reference_report(&GpuSpec::quadro_p4000());
    // Same run, costing disabled: the canonical lines (and therefore the
    // digest) must not move — cost is presentation, like the diagnosis
    // column.
    let free = reference_report(&priced(0.0));
    assert_eq!(report.digest_hex(), free.digest_hex(), "cost must stay out of the digest");
    for (a, b) in report.entries.iter().zip(&free.entries) {
        assert_eq!(a.canonical(), b.canonical(), "{}", a.label);
        assert!(
            !a.canonical().contains("cost"),
            "canonical line must not mention cost: {}",
            a.canonical()
        );
    }
    // And the pinned pre-TCO baseline still matches bit for bit.
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/scale-baseline.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));
    let baseline = ScaleReport::from_json_text(&text).expect("golden parses");
    assert_eq!(
        report.digest_hex(),
        baseline.digest_hex(),
        "TCO columns must not disturb the pinned scale baseline"
    );
}
