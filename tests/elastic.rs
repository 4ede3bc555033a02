//! Acceptance tests for the elastic-membership layer (DESIGN.md §5k).
//!
//! The keystone law — an iteration degraded to `k` survivors is bitwise
//! identical to a fresh `k`-worker world — is asserted across every
//! synchronisation strategy, every Fig. 10 cluster and several churn
//! seeds. The `ElasticReport` the CI `elastic` job gates on must obey the
//! monotone-goodput law and reproduce `tests/golden/elastic-baseline.json`;
//! regenerate with `UPDATE_GOLDEN=1 cargo test --test elastic`.

use std::collections::BTreeSet;
use tbd_core::{ElasticReport, Framework, GpuSpec, ModelKind, CHURN_RATE_LADDER};
use tbd_distrib::{
    fig10_clusters, survivor_cluster, BackwardProfile, ChurnSpec, DataParallelSim, ElasticConfig,
    SyncStrategy,
};
use tbd_profiler::json::Canonical;

/// One worker shaped like the profiled ResNet-50 point: 360 ms iterations
/// pushing ~102 MB of gradients (the shape the scenario builders use).
fn sim() -> DataParallelSim {
    DataParallelSim { backward: BackwardProfile::analytic(0.36, 102e6, 16), per_gpu_batch: 32 }
}

const STRATEGIES: [SyncStrategy; 3] = [
    SyncStrategy::RingAllReduce,
    SyncStrategy::HierarchicalAllReduce,
    SyncStrategy::ShardedParameterServer,
];

/// Degraded ≡ fresh, everywhere: for every strategy × Fig. 10 cluster ×
/// seed, every membership epoch's iteration time is bitwise identical to a
/// freshly constructed survivor-cluster world run through the same event
/// engine — the degraded collective is not an approximation.
#[test]
fn degraded_collectives_match_fresh_worlds_across_strategies() {
    let sim = sim();
    let mut evictions = 0u64;
    for strategy in STRATEGIES {
        for (label, mut cluster) in fig10_clusters() {
            cluster.sync = strategy;
            for seed in [3u64, 11, 29] {
                let config = ElasticConfig::new(ChurnSpec::with_seed(seed).with_rate(0.9), 40);
                let out = sim.simulate_elastic(&cluster, &config, None);
                evictions += out.evictions;
                for epoch in &out.epochs {
                    let fresh = sim.simulate_events(
                        &survivor_cluster(&cluster, epoch.survivors),
                        &config.event,
                        None,
                    );
                    assert_eq!(
                        epoch.iteration_s.to_bits(),
                        fresh.profile.iteration_s.to_bits(),
                        "{} / {} / seed {seed}: epoch {} ({} survivors)",
                        strategy.name(),
                        label,
                        epoch.epoch,
                        epoch.survivors
                    );
                }
            }
        }
    }
    assert!(evictions > 0, "rate 0.9 must evict someone somewhere");
}

/// The CI invocation: `tbd scale a3c --churn sweep --seed 7 --steps 32` —
/// A3C at its first paper batch (8) on the P4000 under MXNet.
fn ci_report() -> ElasticReport {
    let (gpu, ladder) = (GpuSpec::quadro_p4000(), &CHURN_RATE_LADDER);
    ElasticReport::run_rates(ModelKind::A3c, Framework::mxnet(), 8, &gpu, 7, 32, ladder)
        .expect("elastic sweep completes")
}

/// More churn never buys goodput, and the churn-free control point retains
/// the full healthy goodput — on the real profiled report, not just the
/// analytic simulator.
#[test]
fn elastic_report_obeys_the_monotone_goodput_law() {
    let report = ci_report();
    report.monotonicity().expect("goodput must be monotone non-increasing in churn rate");
    assert!(
        report.entries.iter().any(|e| e.evictions > 0),
        "the ladder's heavy rungs must evict someone"
    );
    // Churned points are named for what they are by the trace miner.
    let churned = report.entries.iter().find(|e| e.evictions > 0).expect("some entry evicts");
    assert_eq!(
        churned.diagnosis.as_deref(),
        Some("membership-churn"),
        "evicting points must diagnose as membership churn"
    );
}

/// The pinned golden baseline the CI `elastic` job gates on must stay
/// reproducible: a fresh run with the CI parameters parses it, passes the
/// drift gate and reproduces its digest exactly.
#[test]
fn golden_elastic_baseline_is_reproduced() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/elastic-baseline.json");
    let fresh = ci_report();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(path, fresh.to_json().to_string() + "\n").expect("write golden");
        eprintln!("updated {path}");
        return;
    }
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("pinned baseline missing ({e}); regenerate with UPDATE_GOLDEN=1 cargo test --test elastic")
    });
    let baseline = ElasticReport::from_json_text(&text).expect("baseline parses");
    fresh.check_drift(&baseline).expect("deterministic sweep matches the pinned baseline");
    assert_eq!(fresh.digest_hex(), baseline.digest_hex(), "bit-stable report digest");
    baseline.monotonicity().expect("the pinned baseline obeys the monotone-goodput law");
}

/// `--churn 0.001` sweeps 0.001 next to its 0.0 control point. Distinct
/// rates get distinct keys, so the drift check against the ladder golden
/// gates exactly the five 0.0 points, never a 0.001 one.
#[test]
fn a_fine_churn_rate_is_gated_only_through_its_control_points() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/elastic-baseline.json");
    let text = std::fs::read_to_string(path).expect("pinned baseline");
    let baseline = ElasticReport::from_json_text(&text).expect("baseline parses");
    let gpu = GpuSpec::quadro_p4000();
    let report =
        ElasticReport::run_rates(ModelKind::A3c, Framework::mxnet(), 8, &gpu, 7, 32, &[0.0, 0.001])
            .expect("elastic sweep completes");
    let keys: BTreeSet<String> = report.entries.iter().map(|e| e.key()).collect();
    assert_eq!(keys.len(), report.entries.len(), "distinct rates share a key: {keys:?}");
    report.check_drift(&baseline).expect("the control points match the ladder");
    let mut fine = report.clone();
    for e in fine.entries.iter_mut().filter(|e| e.churn_rate > 0.0) {
        e.goodput *= 2.0;
    }
    fine.check_drift(&baseline).expect("a 0.001 point has no pinned counterpart");
    let control: Vec<usize> =
        (0..report.entries.len()).filter(|&i| report.entries[i].churn_rate == 0.0).collect();
    assert_eq!(control.len(), 5, "one control point per Fig. 10 cluster");
    for i in control {
        let mut moved = report.clone();
        moved.entries[i].goodput *= 2.0;
        assert!(moved.check_drift(&baseline).is_err(), "{} is not gated", moved.entries[i].key());
    }
}

/// The markdown table prints each point's rate so that it reads back as
/// the rate the point was simulated at: `--churn 0.001`'s rows do not
/// render like their 0.0 control rows.
#[test]
fn a_fine_churn_rate_renders_its_own_rate_column() {
    let gpu = GpuSpec::quadro_p4000();
    let report =
        ElasticReport::run_rates(ModelKind::A3c, Framework::mxnet(), 8, &gpu, 7, 32, &[0.0, 0.001])
            .expect("elastic sweep completes");
    let markdown = report.to_markdown();
    let rows: Vec<&str> =
        markdown.lines().filter(|l| l.starts_with("| ") && !l.contains("| cluster |")).collect();
    assert_eq!(rows.len(), report.entries.len(), "one row per point:\n{markdown}");
    for (row, e) in rows.iter().zip(&report.entries) {
        let rate = row.split(" | ").nth(2).expect("a rate cell");
        assert_eq!(rate.parse::<f64>(), Ok(e.churn_rate), "row `{row}` of {}", e.key());
    }
}
