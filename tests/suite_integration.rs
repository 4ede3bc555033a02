//! Cross-crate integration: registry consistency, suite sweeps, trace and
//! memory plumbing between models, frameworks, simulator and profiler.

use tbd_core::{paper_batches, table1, table2, Framework, GpuSpec, ModelKind, Suite};
use tbd_frameworks::SpeedOptions;
use tbd_graph::lower::{lower_training_iteration, memory_footprint};
use tbd_graph::Phase;

#[test]
fn table2_rows_agree_with_framework_registry() {
    for row in table2() {
        for fw in Framework::all() {
            let listed = row.frameworks.contains(&fw.name());
            assert_eq!(listed, fw.supports(row.model), "{} x {}", row.model.name(), fw.name());
        }
    }
}

#[test]
fn table1_survey_is_reproduced() {
    let cells = table1();
    assert_eq!(cells.iter().map(|c| c.papers).sum::<usize>(), 41);
}

#[test]
fn every_supported_pair_profiles_at_its_smallest_batch() {
    let suite = Suite::new(GpuSpec::quadro_p4000());
    for (kind, framework) in Suite::supported_pairs() {
        let batch = paper_batches(kind)[0];
        let metrics = suite
            .run(kind, framework, batch)
            .unwrap_or_else(|e| panic!("{} on {} b{batch}: {e}", kind.name(), framework.name()));
        assert!(metrics.throughput > 0.0);
        assert!(
            metrics.iteration.gpu_utilization > 0.0 && metrics.iteration.gpu_utilization <= 1.0
        );
        assert!(
            metrics.iteration.fp32_utilization > 0.0 && metrics.iteration.fp32_utilization <= 1.0
        );
        assert!(!metrics.iteration.records.is_empty());
    }
}

#[test]
fn faster_rcnn_matches_paper_inline_numbers() {
    // §4.2: ~2.3 images/s at batch 1, compute utilisation ~90 %.
    let suite = Suite::new(GpuSpec::quadro_p4000());
    for framework in [Framework::tensorflow(), Framework::mxnet()] {
        let m = suite.run(ModelKind::FasterRcnn, framework, 1).unwrap();
        assert!(
            (1.2..=4.5).contains(&m.throughput),
            "{}: {} img/s",
            framework.name(),
            m.throughput
        );
        assert!(
            m.iteration.gpu_utilization > 0.75,
            "{}: {}",
            framework.name(),
            m.iteration.gpu_utilization
        );
    }
}

#[test]
fn kernel_stream_covers_forward_backward_update() {
    let model = ModelKind::ResNet50.build_full(4).unwrap();
    let kernels = Framework::mxnet().plan_with(&model, SpeedOptions::default());
    let fwd = kernels.iter().filter(|k| k.phase == Phase::Forward).count();
    let bwd = kernels.iter().filter(|k| k.phase == Phase::Backward).count();
    let upd = kernels.iter().filter(|k| k.phase == Phase::Update).count();
    assert!(fwd > 100 && bwd > 100, "fwd {fwd} bwd {bwd}");
    assert_eq!(upd, model.graph.params().len());
    // The raw lowering (without optimizer) is a strict prefix.
    let raw = lower_training_iteration(&model.graph, None);
    assert_eq!(raw.len() + upd, kernels.len());
}

#[test]
fn memory_footprint_scales_linearly_with_batch_for_cnns() {
    let fp8 = memory_footprint(&ModelKind::ResNet50.build_full(8).unwrap().graph);
    let fp16 = memory_footprint(&ModelKind::ResNet50.build_full(16).unwrap().graph);
    // Weights are batch-independent; feature maps scale ~2x.
    assert_eq!(fp8.weights, fp16.weights);
    let ratio = fp16.feature_maps as f64 / fp8.feature_maps as f64;
    assert!((1.9..=2.1).contains(&ratio), "feature-map ratio {ratio}");
}

#[test]
fn seq2seq_kernel_count_dwarfs_cnn_kernel_count() {
    // The structural cause of Observation 5: thousands of small kernels.
    let cnn = Framework::mxnet()
        .plan_with(&ModelKind::ResNet50.build_full(16).unwrap(), SpeedOptions::default());
    let rnn = Framework::mxnet()
        .plan_with(&ModelKind::Seq2Seq.build_full(16).unwrap(), SpeedOptions::default());
    assert!(
        rnn.len() > 4 * cnn.len(),
        "Seq2Seq launches {} kernels vs ResNet-50 {}",
        rnn.len(),
        cnn.len()
    );
}

#[test]
fn deep_speech_memory_caps_at_small_batches() {
    // Fig 4f/9d: Deep Speech 2 hits the 8 GB wall within single digits.
    let suite = Suite::new(GpuSpec::quadro_p4000());
    assert!(suite.run(ModelKind::DeepSpeech2, Framework::mxnet(), 4).is_ok());
    assert!(suite.run(ModelKind::DeepSpeech2, Framework::mxnet(), 32).is_err());
}

#[test]
fn transformer_batches_are_token_denominated() {
    let m = ModelKind::Transformer.build_full(4096).unwrap();
    // 4096 tokens / 25 per sentence = 163 sentences = 4075 tokens.
    assert_eq!(m.batch, 4075);
}
