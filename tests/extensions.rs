//! Regression tests for the extension studies (DESIGN.md §4b): kernel
//! fusion headroom, memory-optimization gains, YOLO's single-shot speedup
//! and the training-vs-inference contrast.

use tbd_core::{Framework, GpuSpec, ModelKind, WorkloadHints};
use tbd_frameworks::fusion::fuse_rnn;
use tbd_frameworks::SpeedOptions;
use tbd_gpusim::{simulate_iteration, CpuSpec};
use tbd_graph::lower::{inference_footprint, memory_footprint};
use tbd_memopt::{max_feasible_batch, Strategy};
use tbd_tensor::Precision;

#[test]
fn rnn_fusion_recovers_the_papers_headroom() {
    // Observations 5/7 call for better RNN implementations; fused kernels
    // must deliver a large speedup on the per-step lowering.
    let gpu = GpuSpec::quadro_p4000();
    let cpu = CpuSpec::xeon_e5_2680();
    let fw = Framework::mxnet();
    let model = ModelKind::Seq2Seq.build_full(64).unwrap();
    let params = fw.execution_params(0);
    let baseline = fw.plan_with(&model, SpeedOptions::default());
    let fused = fuse_rnn(&baseline, 64);
    assert!(fused.len() * 4 < baseline.len(), "{} -> {}", baseline.len(), fused.len());
    let p0 = simulate_iteration(&baseline, &gpu, &cpu, &params, None);
    let p1 = simulate_iteration(&fused, &gpu, &cpu, &params, None);
    let speedup = p0.wall_time_s / p1.wall_time_s;
    assert!(speedup > 1.5, "fusion speedup {speedup}");
    assert!(p1.gpu_utilization > p0.gpu_utilization);
    // Total algorithmic work is conserved by fusion.
    assert!((p0.total_flops - p1.total_flops).abs() / p0.total_flops < 1e-9);
    // Graph-level fusion (pointwise chains only) sits between the two.
    let graph_fused = fw.plan_with(&model, SpeedOptions::fused(Precision::F32));
    let mid = simulate_iteration(&graph_fused, &gpu, &cpu, &params, None);
    assert!(mid.wall_time_s < p0.wall_time_s && mid.wall_time_s > p1.wall_time_s);
}

#[test]
fn memory_optimizations_unlock_larger_batches() {
    let gpu = GpuSpec::quadro_p4000();
    let candidates = [16usize, 32, 64, 128];
    let base = max_feasible_batch(
        ModelKind::ResNet50,
        Framework::mxnet(),
        &gpu,
        Strategy::Baseline,
        &candidates,
    )
    .unwrap();
    for strategy in [
        Strategy::Offload { fraction: 0.6 },
        Strategy::Checkpoint { segments: 8 },
        Strategy::HalfPrecisionActivations,
    ] {
        let optimized = max_feasible_batch(
            ModelKind::ResNet50,
            Framework::mxnet(),
            &gpu,
            strategy,
            &candidates,
        )
        .unwrap();
        assert!(optimized > base, "{strategy:?}: {optimized} vs baseline {base}");
    }
}

#[test]
fn yolo_is_single_shot_faster_than_faster_rcnn() {
    let gpu = GpuSpec::quadro_p4000();
    let fw = Framework::tensorflow();
    let yolo = tbd_models::yolo::YoloConfig::full().build(1).unwrap();
    let y = fw
        .profile(
            &yolo,
            &gpu,
            WorkloadHints { compute_derate: 0.8, ..WorkloadHints::default() },
            SpeedOptions::default(),
            None,
        )
        .unwrap();
    let rcnn = ModelKind::FasterRcnn.build_full(1).unwrap();
    let r = fw
        .profile(&rcnn, &gpu, fw.hints(ModelKind::FasterRcnn, 1), SpeedOptions::default(), None)
        .unwrap();
    assert!(y.throughput > 3.0 * r.throughput, "YOLO {} vs R-CNN {}", y.throughput, r.throughput);
    assert!(y.memory.total() < r.memory.total());
}

#[test]
fn inference_is_weight_dominated_and_far_smaller_than_training() {
    for kind in [ModelKind::ResNet50, ModelKind::InceptionV3, ModelKind::Wgan] {
        let train = memory_footprint(&kind.build_full(32).unwrap().graph);
        let infer = inference_footprint(&kind.build_full(1).unwrap().graph);
        assert!(
            train.total() > 10 * infer.total(),
            "{}: train {} infer {}",
            kind.name(),
            train.total(),
            infer.total()
        );
        assert!(
            infer.weights > infer.feature_maps,
            "{}: inference must be weight-dominated",
            kind.name()
        );
        // Training is the opposite (Observation 11 vs §1).
        assert!(train.feature_maps > train.weights);
    }
}

#[test]
fn gru_deepspeech_pays_for_its_gates() {
    use tbd_models::deepspeech::DeepSpeechConfig;
    let gpu = GpuSpec::quadro_p4000();
    let fw = Framework::mxnet();
    let hints = fw.hints(ModelKind::DeepSpeech2, 1);
    let vanilla = DeepSpeechConfig::full().build(1).unwrap();
    let gru = DeepSpeechConfig::full_gru().build(1).unwrap();
    let pv = fw.profile(&vanilla, &gpu, hints, SpeedOptions::default(), None).unwrap();
    let pg = fw.profile(&gru, &gpu, hints, SpeedOptions::default(), None).unwrap();
    assert!(pg.throughput < pv.throughput, "gates cost time");
    assert!(pg.memory.total() > pv.memory.total(), "gates cost memory");
    // And the GRU variant hits the memory wall a batch earlier.
    let gru2 = DeepSpeechConfig::full_gru().build(2).unwrap();
    assert!(fw
        .profile(&gru2, &gpu, fw.hints(ModelKind::DeepSpeech2, 2), SpeedOptions::default(), None)
        .is_err());
}
