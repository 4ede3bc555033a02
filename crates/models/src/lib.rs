//! The eight TBD benchmark models as dataflow graphs.
//!
//! Each module builds one workload from the paper's Table 2 in two
//! configurations:
//!
//! * `full()` — the paper-scale network (ImageNet-sized images, IWSLT-sized
//!   vocabularies). These graphs are *costed* by the GPU simulator, never
//!   executed on the CPU.
//! * `tiny()` — a functionally identical miniature used by tests and
//!   examples to train for real and verify that losses decrease and
//!   gradients are correct.
//!
//! | Application domain | Model | Module |
//! |---|---|---|
//! | Image classification | ResNet-50 | [`resnet`] |
//! | Image classification | Inception-v3 | [`inception`] |
//! | Machine translation | Seq2Seq (NMT / Sockeye) | [`seq2seq`] |
//! | Machine translation | Transformer | [`transformer`] |
//! | Object detection | Faster R-CNN | [`faster_rcnn`] |
//! | Speech recognition | Deep Speech 2 | [`deepspeech`] |
//! | Adversarial learning | WGAN | [`wgan`] |
//! | Deep reinforcement learning | A3C | [`a3c`] |
//!
//! [`yolo`] implements YOLO9000/YOLOv2 — the model the paper names as its
//! planned next addition (§3.1.2) — as an extension outside the Table-2
//! registry.

pub mod a3c;
pub mod deepspeech;
pub mod faster_rcnn;
pub mod inception;
pub mod nn;
pub mod resnet;
pub mod seq2seq;
pub mod transformer;
pub mod wgan;
pub mod yolo;

use std::collections::BTreeMap;
use tbd_graph::{Graph, NodeId};

/// A constructed model: graph plus the named handles a trainer or profiler
/// needs.
#[derive(Debug)]
pub struct BuiltModel {
    /// The dataflow graph (forward computation and loss).
    pub graph: Graph,
    /// Mini-batch size the graph was built for (samples; tokens for the
    /// Transformer; one for Faster R-CNN).
    pub batch: usize,
    /// Named input feeds.
    pub inputs: BTreeMap<String, NodeId>,
    /// Named outputs; always contains `"loss"`.
    pub outputs: BTreeMap<String, NodeId>,
}

impl BuiltModel {
    /// The scalar training-loss node.
    ///
    /// # Panics
    ///
    /// Panics if the builder failed to register a `"loss"` output (a bug).
    pub fn loss(&self) -> NodeId {
        *self.outputs.get("loss").expect("every model registers a loss")
    }

    /// Looks up an input feed by name.
    pub fn input(&self, name: &str) -> Option<NodeId> {
        self.inputs.get(name).copied()
    }

    /// Looks up a named output.
    pub fn output(&self, name: &str) -> Option<NodeId> {
        self.outputs.get(name).copied()
    }
}

/// Which of the paper's workloads a descriptor refers to (Table 2 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelKind {
    /// ResNet-50 image classifier.
    ResNet50,
    /// Inception-v3 image classifier.
    InceptionV3,
    /// LSTM sequence-to-sequence translator (NMT / Sockeye).
    Seq2Seq,
    /// Attention-based translator.
    Transformer,
    /// Faster R-CNN object detector.
    FasterRcnn,
    /// Deep Speech 2 speech recogniser.
    DeepSpeech2,
    /// WGAN adversarial generator.
    Wgan,
    /// A3C reinforcement-learning agent.
    A3c,
}

impl ModelKind {
    /// All eight workloads in Table 2 order.
    pub const ALL: [ModelKind; 8] = [
        ModelKind::ResNet50,
        ModelKind::InceptionV3,
        ModelKind::Seq2Seq,
        ModelKind::Transformer,
        ModelKind::FasterRcnn,
        ModelKind::DeepSpeech2,
        ModelKind::Wgan,
        ModelKind::A3c,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::ResNet50 => "ResNet-50",
            ModelKind::InceptionV3 => "Inception-v3",
            ModelKind::Seq2Seq => "Seq2Seq",
            ModelKind::Transformer => "Transformer",
            ModelKind::FasterRcnn => "Faster R-CNN",
            ModelKind::DeepSpeech2 => "Deep Speech 2",
            ModelKind::Wgan => "WGAN",
            ModelKind::A3c => "A3C",
        }
    }

    /// Application domain (Table 2 column 1).
    pub fn application(self) -> &'static str {
        match self {
            ModelKind::ResNet50 | ModelKind::InceptionV3 => "Image classification",
            ModelKind::Seq2Seq | ModelKind::Transformer => "Machine translation",
            ModelKind::FasterRcnn => "Object detection",
            ModelKind::DeepSpeech2 => "Speech recognition",
            ModelKind::Wgan => "Adversarial learning",
            ModelKind::A3c => "Deep reinforcement learning",
        }
    }

    /// Dominant layer type (Table 2 column 4).
    pub fn dominant_layer(self) -> &'static str {
        match self {
            ModelKind::ResNet50 | ModelKind::InceptionV3 | ModelKind::FasterRcnn => "CONV",
            ModelKind::Seq2Seq => "LSTM",
            ModelKind::Transformer => "Attention",
            ModelKind::DeepSpeech2 => "RNN",
            ModelKind::Wgan => "CONV",
            ModelKind::A3c => "CONV",
        }
    }

    /// Dataset used in the paper (Table 2 column 6).
    pub fn dataset(self) -> &'static str {
        match self {
            ModelKind::ResNet50 | ModelKind::InceptionV3 => "ImageNet1K",
            ModelKind::Seq2Seq | ModelKind::Transformer => "IWSLT15",
            ModelKind::FasterRcnn => "Pascal VOC 2007",
            ModelKind::DeepSpeech2 => "LibriSpeech",
            ModelKind::Wgan => "Downsampled ImageNet",
            ModelKind::A3c => "Atari 2600",
        }
    }

    /// Builds the paper-scale graph for the given mini-batch.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ShapeOverflow`](tbd_graph::GraphError) when
    /// any node's `f32` byte length overflows `usize` (a batch far beyond
    /// any device), and otherwise propagates graph-construction errors
    /// (which indicate a bug in the model definition).
    pub fn build_full(self, batch: usize) -> tbd_graph::Result<BuiltModel> {
        let model = match self {
            ModelKind::ResNet50 => resnet::ResNetConfig::resnet50().build(batch),
            ModelKind::InceptionV3 => inception::InceptionConfig::full().build(batch),
            ModelKind::Seq2Seq => seq2seq::Seq2SeqConfig::full().build(batch),
            ModelKind::Transformer => transformer::TransformerConfig::full().build_tokens(batch),
            ModelKind::FasterRcnn => faster_rcnn::FasterRcnnConfig::full().build(),
            ModelKind::DeepSpeech2 => deepspeech::DeepSpeechConfig::full().build(batch),
            ModelKind::Wgan => wgan::WganConfig::full().build(batch),
            ModelKind::A3c => a3c::A3cConfig::full().build(batch),
        }?;
        // Nodes no op consumes escaped the builder's per-op check.
        for node in model.graph.nodes() {
            tbd_graph::check_shape(&node.shape)?;
        }
        Ok(model)
    }
}

/// Trainable-parameter counts grouped by top-level name scope — the
/// layer-wise view of where a model's weights live (cross-checks the
/// paper's Table 2 layer structure).
pub fn param_count_by_scope(graph: &Graph) -> std::collections::BTreeMap<String, usize> {
    let mut by_scope = std::collections::BTreeMap::new();
    for (id, _) in graph.params() {
        if let tbd_graph::Op::Parameter { name } = &graph.node(*id).op {
            let scope = name.split('/').next().unwrap_or("").to_string();
            *by_scope.entry(scope).or_insert(0) += graph.node(*id).shape.len();
        }
    }
    by_scope
}

#[cfg(test)]
mod scope_tests {
    use super::*;

    #[test]
    fn resnet_weights_concentrate_in_late_stages() {
        let model = resnet::ResNetConfig::resnet50().build(1).unwrap();
        let by_scope = param_count_by_scope(&model.graph);
        let stage3: usize =
            by_scope.iter().filter(|(k, _)| k.starts_with("stage3")).map(|(_, v)| v).sum();
        let stage0: usize =
            by_scope.iter().filter(|(k, _)| k.starts_with("stage0")).map(|(_, v)| v).sum();
        assert!(stage3 > 5 * stage0, "late stages dominate: {stage3} vs {stage0}");
        let total: usize = by_scope.values().sum();
        assert_eq!(total, model.graph.param_count());
    }

    #[test]
    fn wgan_scopes_split_generator_and_critic() {
        let model = wgan::WganConfig::full().build(1).unwrap();
        let by_scope = param_count_by_scope(&model.graph);
        assert!(by_scope.contains_key("gen"));
        assert!(by_scope.contains_key("critic"));
    }

    #[test]
    fn overflowing_batches_are_a_typed_error() {
        // Faster R-CNN fixes its batch at 1; every other model scales with it.
        for kind in ModelKind::ALL.into_iter().filter(|&k| k != ModelKind::FasterRcnn) {
            match kind.build_full(1 << 62) {
                Err(tbd_graph::GraphError::ShapeOverflow(dims)) => {
                    let elems = dims.iter().try_fold(4usize, |n, &d| n.checked_mul(d));
                    assert_eq!(elems, None, "{}: {dims:?} does fit", kind.name());
                }
                other => panic!("{}: expected ShapeOverflow, got {:?}", kind.name(), other.err()),
            }
            // The check refuses only what overflows.
            assert!(kind.build_full(1).is_ok(), "{}", kind.name());
        }
    }
}
