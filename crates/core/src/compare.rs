//! Cross-implementation comparability checks (paper §3.4.1).
//!
//! Before profiling, the paper's toolchain "adapt\[s\] implementations of the
//! same model to make them comparable across platforms": same layer types
//! and sizes, same connectivity, same hyper-parameters. This module
//! provides that check for two [`BuiltModel`]s: it compares their operator
//! histograms and their parameter-shape multisets and reports every
//! difference, so a benchmark run can refuse to compare apples to oranges.

use std::collections::BTreeMap;
use tbd_graph::Op;
use tbd_models::BuiltModel;

/// Result of comparing two model graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComparabilityReport {
    /// Operator-count differences: `(mnemonic, count_a, count_b)` for every
    /// mnemonic whose counts differ.
    pub op_differences: Vec<(&'static str, usize, usize)>,
    /// Parameter-shape differences: `(shape, count_a, count_b)`.
    pub param_differences: Vec<(Vec<usize>, usize, usize)>,
}

impl ComparabilityReport {
    /// `true` when the two implementations define the same network.
    pub fn comparable(&self) -> bool {
        self.op_differences.is_empty() && self.param_differences.is_empty()
    }
}

fn op_histogram(model: &BuiltModel) -> BTreeMap<&'static str, usize> {
    let mut h = BTreeMap::new();
    for node in model.graph.nodes() {
        *h.entry(node.op.mnemonic()).or_insert(0) += 1;
    }
    h
}

fn param_histogram(model: &BuiltModel) -> BTreeMap<Vec<usize>, usize> {
    let mut h = BTreeMap::new();
    for node in model.graph.nodes() {
        if matches!(node.op, Op::Parameter { .. }) {
            *h.entry(node.shape.dims().to_vec()).or_insert(0) += 1;
        }
    }
    h
}

/// Compares two implementations of (supposedly) the same model.
pub fn compare_models(a: &BuiltModel, b: &BuiltModel) -> ComparabilityReport {
    let (ha, hb) = (op_histogram(a), op_histogram(b));
    let mut op_differences = Vec::new();
    for key in ha.keys().chain(hb.keys()) {
        let ca = ha.get(key).copied().unwrap_or(0);
        let cb = hb.get(key).copied().unwrap_or(0);
        if ca != cb && !op_differences.iter().any(|(k, _, _)| k == key) {
            op_differences.push((*key, ca, cb));
        }
    }
    let (pa, pb) = (param_histogram(a), param_histogram(b));
    let mut param_differences = Vec::new();
    for key in pa.keys().chain(pb.keys()) {
        let ca = pa.get(key).copied().unwrap_or(0);
        let cb = pb.get(key).copied().unwrap_or(0);
        if ca != cb && !param_differences.iter().any(|(k, _, _)| k == key) {
            param_differences.push((key.clone(), ca, cb));
        }
    }
    ComparabilityReport { op_differences, param_differences }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_models::resnet::ResNetConfig;
    use tbd_models::seq2seq::Seq2SeqConfig;

    #[test]
    fn same_model_same_batch_is_comparable() {
        // The NMT and Sockeye "implementations" share one graph definition
        // by construction — the property the paper establishes by hand.
        let a = Seq2SeqConfig::full().build(16).unwrap();
        let b = Seq2SeqConfig::full().build(16).unwrap();
        let report = compare_models(&a, &b);
        assert!(report.comparable(), "{report:?}");
    }

    #[test]
    fn different_batches_differ_only_in_activations_not_params() {
        let a = ResNetConfig::resnet50().build(8).unwrap();
        let b = ResNetConfig::resnet50().build(16).unwrap();
        let report = compare_models(&a, &b);
        // Same network: identical parameter multiset, identical op counts.
        assert!(report.param_differences.is_empty(), "{:?}", report.param_differences);
        assert!(report.op_differences.is_empty());
    }

    #[test]
    fn different_models_are_flagged() {
        let a = ResNetConfig::resnet50().build(4).unwrap();
        let b = Seq2SeqConfig::full().build(4).unwrap();
        let report = compare_models(&a, &b);
        assert!(!report.comparable());
        assert!(report.op_differences.iter().any(|(k, _, _)| *k == "conv2d"));
    }

    #[test]
    fn depth_changes_are_flagged() {
        let a = ResNetConfig::resnet50().build(4).unwrap();
        let b = ResNetConfig::resnet101().build(4).unwrap();
        let report = compare_models(&a, &b);
        assert!(!report.comparable());
        let conv = report.op_differences.iter().find(|(k, _, _)| *k == "conv2d").unwrap();
        assert!(conv.2 > conv.1, "ResNet-101 has more convolutions");
    }
}
