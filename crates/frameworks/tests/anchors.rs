//! Regression anchors: the headline absolute numbers of the paper's Fig. 4
//! and Fig. 8 must stay inside calibrated bands. These tests pin the
//! device-model constants — if a retune moves a headline workload outside
//! its band, this fails before `EXPERIMENTS.md` silently drifts.

use tbd_frameworks::{Framework, SpeedOptions};
use tbd_gpusim::GpuSpec;
use tbd_models::{resnet::ResNetConfig, seq2seq::Seq2SeqConfig, ModelKind};

fn throughput(fw: Framework, kind: ModelKind, batch: usize, gpu: &GpuSpec) -> f64 {
    let model = kind.build_full(batch).unwrap();
    let hints = fw.hints(kind, batch);
    fw.profile(&model, gpu, hints, SpeedOptions::default(), None).unwrap().throughput
}

#[test]
fn resnet50_batch32_anchors() {
    let gpu = GpuSpec::quadro_p4000();
    let mx = throughput(Framework::mxnet(), ModelKind::ResNet50, 32, &gpu);
    let tf = throughput(Framework::tensorflow(), ModelKind::ResNet50, 32, &gpu);
    let ck = throughput(Framework::cntk(), ModelKind::ResNet50, 32, &gpu);
    // Paper: MXNet 89, TF 71, CNTK ~61.
    assert!((70.0..=100.0).contains(&mx), "MXNet {mx}");
    assert!((60.0..=82.0).contains(&tf), "TF {tf}");
    assert!((52.0..=75.0).contains(&ck), "CNTK {ck}");
    assert!(mx > tf && tf > ck, "paper ordering");
}

#[test]
fn seq2seq_anchors() {
    let gpu = GpuSpec::quadro_p4000();
    let nmt = throughput(Framework::tensorflow(), ModelKind::Seq2Seq, 128, &gpu);
    let sockeye = throughput(Framework::mxnet(), ModelKind::Seq2Seq, 64, &gpu);
    // Paper: NMT 365 @128, Sockeye 229 @64.
    assert!((320.0..=450.0).contains(&nmt), "NMT {nmt}");
    assert!((210.0..=320.0).contains(&sockeye), "Sockeye {sockeye}");
}

#[test]
fn titan_xp_speedup_anchor() {
    // Paper Fig. 8: MXNet ResNet-50 89 → 184 (2.07×).
    let p4000 = GpuSpec::quadro_p4000();
    let xp = GpuSpec::titan_xp();
    let a = throughput(Framework::mxnet(), ModelKind::ResNet50, 32, &p4000);
    let b = throughput(Framework::mxnet(), ModelKind::ResNet50, 32, &xp);
    let ratio = b / a;
    assert!((1.8..=2.3).contains(&ratio), "speedup {ratio}");
}

#[test]
fn faster_rcnn_anchor() {
    let gpu = GpuSpec::quadro_p4000();
    let tf = throughput(Framework::tensorflow(), ModelKind::FasterRcnn, 1, &gpu);
    // Paper: 2.3 images/s.
    assert!((1.5..=3.5).contains(&tf), "Faster R-CNN {tf}");
}

#[test]
fn memory_wall_anchors() {
    // Batch feasibility boundaries the paper reports.
    let gpu = GpuSpec::quadro_p4000();
    let profile = |fw: Framework, kind: ModelKind, batch: usize| {
        let model = kind.build_full(batch).unwrap();
        fw.profile(&model, &gpu, fw.hints(kind, batch), SpeedOptions::default(), None).is_ok()
    };
    assert!(profile(Framework::tensorflow(), ModelKind::Seq2Seq, 128));
    assert!(!profile(Framework::mxnet(), ModelKind::Seq2Seq, 128));
    assert!(profile(Framework::mxnet(), ModelKind::ResNet50, 32));
    assert!(!profile(Framework::mxnet(), ModelKind::ResNet50, 64));
    let _ = (ResNetConfig::resnet50(), Seq2SeqConfig::full());
}
