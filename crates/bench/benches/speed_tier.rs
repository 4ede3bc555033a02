//! Speed-tier ablation: fused vs unfused end-to-end `capture()` (ISSUE 6).
//!
//! Criterion harness over the same reference workload the BENCH trajectory
//! records (ResNet-50 / TensorFlow / batch 4 / Quadro P4000): one pair of
//! benchmarks for the full capture (functional executor step + lowering +
//! simulation + data-parallel replay), one for the executor
//! forward+backward alone, at each tier. The fused tier enables the fusion
//! plan *and* the arena allocator — the configuration whose end-to-end
//! ratio the README quotes (1.02–1.18× on a 2-core x86-64 host; both
//! tiers share one forward scheduler, so the gap is fusion and the arena).
//!
//! Smoke mode for CI: set `SMOKE=1` to run a short sampling pass whose
//! console output doubles as the ablation report artifact.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use tbd_core::{Framework, GpuSpec, ModelKind};
use tbd_frameworks::SpeedOptions;
use tbd_graph::Session;
use tbd_profiler::trace::{build_tiny, synthetic_feeds};
use tbd_profiler::{capture, TraceOptions};
use tbd_tensor::Tensor;

fn tier_label(fuse: bool) -> &'static str {
    if fuse {
        "fused"
    } else {
        "unfused"
    }
}

fn bench_capture(c: &mut Criterion) {
    let gpu = GpuSpec::quadro_p4000();
    for fuse in [false, true] {
        let id = format!("speed_tier/capture_resnet50_b4/{}", tier_label(fuse));
        c.bench_function(&id, |b| {
            tbd_tensor::arena::set_enabled(fuse);
            let speed = SpeedOptions { fuse, ..SpeedOptions::default() };
            let options = TraceOptions { speed, ..TraceOptions::default() };
            b.iter(|| {
                capture(ModelKind::ResNet50, Framework::tensorflow(), 4, &gpu, &options)
                    .expect("reference capture succeeds")
            });
        });
    }
    tbd_tensor::arena::set_enabled(true);
}

fn bench_executor(c: &mut Criterion) {
    for fuse in [false, true] {
        let id = format!("speed_tier/exec_resnet50_tiny/{}", tier_label(fuse));
        c.bench_function(&id, |b| {
            tbd_tensor::arena::set_enabled(fuse);
            let model = build_tiny(ModelKind::ResNet50).expect("tiny model builds");
            let feeds = synthetic_feeds(&model);
            let loss = model.loss();
            let mut session =
                Session::with_exec(model.graph, 42, Framework::tensorflow().host_threading());
            session.set_fusion_enabled(fuse);
            b.iter(|| {
                let run = session.forward(&feeds).expect("forward succeeds");
                session.backward(&run, loss, Tensor::scalar(1.0)).expect("backward succeeds")
            });
        });
    }
    tbd_tensor::arena::set_enabled(true);
    tbd_tensor::par::set_max_threads(0);
}

/// `SMOKE=1` (CI) trims sampling so the job stays fast while still
/// printing a comparable fused-vs-unfused report.
fn config() -> Criterion {
    if std::env::var_os("SMOKE").is_some() {
        Criterion::default()
            .sample_size(10)
            .warm_up_time(Duration::from_millis(200))
            .measurement_time(Duration::from_secs(1))
    } else {
        Criterion::default()
    }
}

criterion_group!(name = benches; config = config(); targets = bench_capture, bench_executor);
criterion_main!(benches);
