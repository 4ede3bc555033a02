//! Ground-truth validation of the trace-mining diagnosis engine
//! (DESIGN.md §5h).
//!
//! Each known bottleneck class is injected deliberately — synthetic
//! device kernel streams, cluster replays over the scaling grid, seeded
//! straggler draws, and per-kind fault schedules through the resilience
//! trainer — and the top-1 diagnosis is tallied into a confusion matrix.
//! The matrix must be diagonally dominant: for every injected class the
//! diagonal cell is the unique row maximum and recall is at least 2/3.
//! On failure the full matrix is printed.
//!
//! A second gate pins the end-to-end `tbd diagnose` report for the
//! contested cluster scenario (ResNet-50 over 2M1G Gigabit Ethernet)
//! against `tests/golden/diagnose-baseline.json`; regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test diagnose`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use tbd_core::{run_diagnose, DiagnoseOptions, DiagnosisReport, Framework, GpuSpec, ModelKind};
use tbd_distrib::{scale_grid, unit, StragglerSpec};
use tbd_graph::trace::{TraceRecorder, TraceStore};
use tbd_graph::{ExecConfig, GraphBuilder, Init, Session};
use tbd_profiler::diagnose::scenarios::{self, RESNET50, SEQ2SEQ};
use tbd_profiler::diagnose_events;
use tbd_profiler::json::Canonical;
use tbd_tensor::Tensor;
use tbd_train::{FaultSpec, RecoveryPolicy, ResilienceConfig, ResilientTrainer, Sgd};

/// Rows: injected ground truth. Columns: top-1 diagnosis label.
type Matrix = BTreeMap<&'static str, BTreeMap<String, usize>>;

fn tally(matrix: &mut Matrix, truth: &'static str, events: &TraceStore) {
    let report = diagnose_events("confusion", "sim", 32, events);
    let observed = report.top1().class.label().to_string();
    *matrix.entry(truth).or_default().entry(observed).or_insert(0) += 1;
}

fn render(matrix: &Matrix) -> String {
    let mut out = String::from("confusion matrix (rows = injected, columns = diagnosed):\n");
    for (truth, row) in matrix {
        let _ = write!(out, "  {truth:<22} ->");
        for (observed, count) in row {
            let _ = write!(out, "  {observed}:{count}");
        }
        out.push('\n');
    }
    out
}

/// The deterministic resilience proxy from the chaos harness, with a
/// per-kind fault schedule; returns the recorded resilience events.
fn chaos_events(seed: u64, tweak: impl Fn(&mut FaultSpec)) -> TraceStore {
    let mut g = GraphBuilder::new();
    let x = g.input("x", [4, 8]);
    let w1 = g.parameter("fc1/w", [8, 16], Init::Xavier { fan_in: 8, fan_out: 16 });
    let h = g.matmul(x, w1).expect("proxy graph");
    let h = g.relu(h).expect("proxy graph");
    let w2 = g.parameter("fc2/w", [16, 4], Init::Xavier { fan_in: 16, fan_out: 4 });
    let logits = g.matmul(h, w2).expect("proxy graph");
    let t = g.input("t", [4]);
    let loss = g.cross_entropy(logits, t).expect("proxy graph");
    let exec = ExecConfig { intra_op_threads: 1, inter_op_parallel: false };
    let session = Session::with_exec(g.finish(), seed, exec);
    let mut spec = FaultSpec::none(seed);
    tweak(&mut spec);
    let feeds = move |step: u64| {
        let xs: Vec<f32> = (0..32u64).map(|i| unit(seed, 77, step * 64 + i) as f32 - 0.5).collect();
        let ts: Vec<f32> = (0..4u64).map(|i| ((step + i) % 4) as f32).collect();
        vec![(x, Tensor::from_vec(xs, [4, 8]).expect("proxy batch")), (t, Tensor::from_slice(&ts))]
    };
    let tracer = TraceRecorder::shared();
    ResilientTrainer::new(
        session,
        loss,
        Sgd::new(0.1),
        ResilienceConfig::with_faults(spec),
        RecoveryPolicy::Default,
    )
    .run(40, feeds, Some(&tracer))
    .expect("chaos proxy runs");
    tracer.drain()
}

fn grid_cluster(label: &str) -> tbd_distrib::ClusterConfig {
    scale_grid()
        .into_iter()
        .find(|(have, _)| have == label)
        .map(|(_, cluster)| cluster)
        .unwrap_or_else(|| panic!("grid point '{label}' missing"))
}

#[test]
fn confusion_matrix_is_diagonally_dominant() {
    let mut matrix = Matrix::new();
    let shapes = [&RESNET50, &SEQ2SEQ];

    // Healthy rows: fast grid points (Observation 13 territory) and large
    // compute-dense kernel streams.
    for label in ["1M2G pcie", "1M4G pcie", "2M1G infiniband"] {
        let cluster = grid_cluster(label);
        for shape in shapes {
            let (events, _) = scenarios::cluster_events(shape, &cluster, None);
            tally(&mut matrix, "compute-bound", &events);
        }
    }
    for kernels in [128usize, 256] {
        tally(&mut matrix, "compute-bound", &scenarios::compute_bound(kernels));
    }

    // Slow-interconnect rows across the ethernet half of the grid
    // (Observation 12: 2M1G Ethernet falls below one GPU).
    for label in ["2M1G ethernet", "2M2G ethernet", "4M1G ethernet", "4M4G ethernet"] {
        let cluster = grid_cluster(label);
        for shape in shapes {
            let (events, _) = scenarios::cluster_events(shape, &cluster, None);
            tally(&mut matrix, "exposed-communication", &events);
        }
    }

    // Straggler rows on fast clusters (on ethernet the exposed exchange
    // legitimately dominates the straggler, so those points are excluded).
    // Ground truth requires the seeded draw to have manifested: a slowed
    // worker or an injected link retry.
    let mut straggler_trials = 0;
    for label in ["1M4G pcie", "2M1G infiniband"] {
        let cluster = grid_cluster(label);
        for shape in shapes {
            for seed in 1..=5u64 {
                let (events, outcome) = scenarios::cluster_events(
                    shape,
                    &cluster,
                    Some(StragglerSpec::with_seed(seed)),
                );
                if outcome.slowdown_factor >= 1.05 || outcome.retries > 0 {
                    tally(&mut matrix, "straggler", &events);
                    straggler_trials += 1;
                }
            }
        }
    }
    assert!(straggler_trials >= 6, "too few straggler draws manifested: {straggler_trials}");

    // Membership-churn rows: elastic runs at the heavy churn rate. Ground
    // truth requires the seeded schedule to have actually evicted someone;
    // deadline stalls and degraded epochs then dominate the trace.
    let mut churn_trials = 0;
    for shape in shapes {
        for seed in 1..=5u64 {
            let (events, outcome) = scenarios::membership_churn(shape, seed);
            if outcome.evictions > 0 {
                tally(&mut matrix, "membership-churn", &events);
                churn_trials += 1;
            }
        }
    }
    assert!(churn_trials >= 6, "too few churn draws manifested: {churn_trials}");

    // Device-level rows: launch starvation (Observation 5), bandwidth
    // saturation (Observations 6/7), allocator churn, OOM pressure.
    for kernels in [192usize, 256, 320, 384] {
        tally(&mut matrix, "launch-overhead", &scenarios::launch_bound(kernels));
        tally(&mut matrix, "memory-bandwidth", &scenarios::memory_bound(kernels));
    }
    for pairs in [96usize, 128, 192, 256] {
        tally(&mut matrix, "allocator-thrash", &scenarios::allocator_thrash(pairs));
    }
    for fails in [1usize, 2, 4] {
        tally(&mut matrix, "oom-pressure", &scenarios::oom_pressure(fails));
    }

    // Resilience rows: per-kind fault schedules through the chaos proxy.
    for seed in 1..=6u64 {
        tally(&mut matrix, "recovery-overhead", &chaos_events(seed, |s| s.crash_rate = 0.15));
    }
    for seed in 1..=4u64 {
        tally(&mut matrix, "oom-pressure", &chaos_events(seed, |s| s.oom_rate = 0.15));
    }

    let mut failures = String::new();
    for (truth, row) in &matrix {
        let diagonal = row.get(*truth).copied().unwrap_or(0);
        let total: usize = row.values().sum();
        let unique_max = row.iter().all(|(observed, &count)| observed == truth || count < diagonal);
        if diagonal * 3 < total * 2 || !unique_max {
            let _ = writeln!(
                failures,
                "row '{truth}': diagonal {diagonal}/{total} (need >= 2/3 and unique max)"
            );
        }
    }
    assert!(failures.is_empty(), "{failures}\n{}", render(&matrix));
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/diagnose-baseline.json")
}

/// End-to-end scenario pinned in CI: ResNet-50 / MXNet / batch 4 replayed
/// over 2M1G Gigabit Ethernet must diagnose exposed communication, and
/// the full report must match the golden snapshot bit for bit.
fn baseline_report() -> DiagnosisReport {
    let opts = DiagnoseOptions {
        cluster: Some("2M1G ethernet".to_string()),
        ..DiagnoseOptions::default()
    };
    run_diagnose(ModelKind::ResNet50, Framework::mxnet(), 4, &GpuSpec::quadro_p4000(), &opts)
        .expect("baseline scenario runs")
}

#[test]
fn golden_diagnosis_baseline_matches() {
    let report = baseline_report();
    assert_eq!(
        report.top1().class.label(),
        "exposed-communication",
        "ethernet replay must expose communication: {report:?}"
    );
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, report.to_json().to_string() + "\n").expect("write golden");
        eprintln!("updated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); run with UPDATE_GOLDEN=1", path.display())
    });
    let baseline = DiagnosisReport::from_json_text(&text).expect("golden parses");
    report
        .check_drift(&baseline)
        .unwrap_or_else(|failures| panic!("diagnosis drifted from golden:\n{failures}"));
    assert_eq!(report.digest_hex(), baseline.digest_hex(), "digest must be bitwise-stable");
}

#[test]
fn baseline_markdown_names_the_verdict() {
    let report = baseline_report();
    let md = report.to_markdown();
    assert!(md.contains("exposed-communication"), "{md}");
    assert!(md.contains(&report.digest_hex()), "{md}");
}
