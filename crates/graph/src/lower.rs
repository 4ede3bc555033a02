//! Lowering of graph nodes to GPU-kernel cost descriptors.
//!
//! Per paper §3.4, the kernels invoked for the same model on different
//! frameworks are "usually functionally the same"; this module produces that
//! framework-independent kernel stream. Framework-specific behaviour
//! (launch overheads, kernel library names, workspace autotuning) is layered
//! on top by `tbd-frameworks`.

use crate::fuse::{fused_spec, fusion_family, FusionFamily, FusionPlan};
use crate::{Graph, KernelClass, KernelSpec, NodeId, Op, Phase};

const F32: f64 = 4.0;

/// A kernel launch attributed to the node that generated it.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredKernel {
    /// Node that generated the launch.
    pub node: NodeId,
    /// Phase the launch belongs to.
    pub phase: Phase,
    /// Cost descriptor.
    pub spec: KernelSpec,
}

/// Lowers one training iteration (forward + backward over every node that
/// requires gradients) into an ordered kernel stream, with an optional
/// [`FusionPlan`] applied (`None` lowers every node on its own).
///
/// Weight-update kernels are *not* included — optimizers differ per
/// framework and are appended by the caller (see
/// [`optimizer_update_kernels`]).
///
/// The plan fuses the backward pass symmetrically to the forward pass: a
/// group's epilogue tail (every member except a contraction root)
/// back-propagates as **one** fused gradient kernel, emitted at the
/// anchor — the first member the reverse sweep reaches. A contraction
/// root keeps its own dgrad/wgrad kernels, exactly as cuDNN keeps
/// convolution backward-data/-filter launches separate from the fused
/// `bn+relu` backward epilogue.
pub fn lower_training_iteration(graph: &Graph, plan: Option<&FusionPlan>) -> Vec<LoweredKernel> {
    let needs = graph.requires_grad();
    let mut stream = Vec::new();
    forward_stream_into(graph, plan, &mut stream);
    for i in (0..graph.len()).rev() {
        if !needs[i] {
            continue;
        }
        let id = NodeId(i);
        if let Some(plan) = plan {
            if let Some(g) = plan.group_of(id) {
                let group = &plan.groups()[g];
                let root_is_contraction =
                    fusion_family(&graph.node(group.root()).op) == Some(FusionFamily::Contraction);
                let tail = &group.nodes()[usize::from(root_is_contraction)..];
                let in_tail = tail.contains(&id);
                if in_tail && id != group.anchor() {
                    continue; // folded into the fused kernel at the anchor
                }
                if id == group.anchor() {
                    if let Some(spec) = fused_backward_spec(graph, tail, &needs) {
                        stream.push(LoweredKernel {
                            node: group.anchor(),
                            phase: Phase::Backward,
                            spec,
                        });
                    }
                    continue;
                }
                // Contraction root: falls through to its own backward
                // kernels below.
            }
        }
        for spec in backward_kernels(graph, id, &needs) {
            stream.push(LoweredKernel { node: id, phase: Phase::Backward, spec });
        }
    }
    stream
}

/// The merged gradient kernel for a fusion group's epilogue tail: FLOPs,
/// traffic, and workspace are summed over the members' per-node backward
/// kernels (traffic is kept conservative — interior gradients are not
/// elided), the class is the backward class of the strongest member, and
/// the name is `fused:<m1>+<m2>+….grad` over the tail in dataflow order.
/// Returns `None` when no tail member emits a backward kernel.
fn fused_backward_spec(graph: &Graph, tail: &[NodeId], needs: &[bool]) -> Option<KernelSpec> {
    let mut flops = 0.0;
    let mut bytes = 0.0;
    let mut workspace = 0u64;
    let mut any = false;
    let mut best = FusionFamily::Elementwise;
    let mut class = KernelClass::Elementwise;
    for &id in tail {
        if !needs[id.index()] {
            continue;
        }
        for spec in backward_kernels(graph, id, needs) {
            flops += spec.flops;
            bytes += spec.bytes;
            workspace = workspace.max(spec.workspace_bytes);
            any = true;
        }
        let node = graph.node(id);
        let family = fusion_family(&node.op).expect("tail members are fusable");
        if family >= best {
            best = family;
            class = match (&node.op, family) {
                (Op::BatchNorm { .. }, _) => KernelClass::BatchNormBackward,
                (Op::LayerNorm { .. }, _) => KernelClass::LayerNormBackward,
                (_, FusionFamily::Activation) => KernelClass::ActivationBackward,
                (_, FusionFamily::Dropout) => KernelClass::Dropout,
                (_, _) => KernelClass::Elementwise,
            };
        }
    }
    if !any {
        return None;
    }
    let name = crate::fuse::intern_name(format!(
        "fused:{}.grad",
        tail.iter().map(|&id| graph.node(id).op.mnemonic()).collect::<Vec<_>>().join("+")
    ));
    Some(KernelSpec::new(class, flops, bytes, name).with_workspace(workspace))
}

/// Lowers only the forward pass (inference-style execution), with an
/// optional [`FusionPlan`] applied.
pub fn lower_forward(graph: &Graph, plan: Option<&FusionPlan>) -> Vec<LoweredKernel> {
    let mut stream = Vec::new();
    forward_stream_into(graph, plan, &mut stream);
    stream
}

/// The single forward kernel-emission path shared by
/// [`lower_training_iteration`] and [`lower_forward`], so forward
/// lowering cannot diverge between the two: the forward prefix of a
/// training stream always equals the forward-only stream for the same
/// plan.
fn forward_stream_into(graph: &Graph, plan: Option<&FusionPlan>, stream: &mut Vec<LoweredKernel>) {
    for i in 0..graph.len() {
        let id = NodeId(i);
        if let Some(plan) = plan {
            if plan.is_interior(id) {
                continue; // emitted as part of the group's fused kernel
            }
            if let Some(group) = plan.anchored_at(id) {
                stream.push(LoweredKernel {
                    node: group.root(),
                    phase: Phase::Forward,
                    spec: fused_spec(graph, group),
                });
                continue;
            }
        }
        for spec in forward_kernels(graph, id) {
            stream.push(LoweredKernel { node: id, phase: Phase::Forward, spec });
        }
    }
}

/// Kernels for the weight-update phase: one fused update launch per
/// parameter tensor, with `flops_per_elem`/`bytes_per_elem` set by the
/// optimizer (SGD ≈ 2 FLOPs & 12 B/elem, momentum ≈ 4 & 16, Adam ≈ 8 & 24).
pub fn optimizer_update_kernels(
    graph: &Graph,
    flops_per_elem: f64,
    bytes_per_elem: f64,
) -> Vec<LoweredKernel> {
    graph
        .params()
        .iter()
        .map(|(id, _)| {
            let n = graph.node(*id).shape.len() as f64;
            LoweredKernel {
                node: *id,
                phase: Phase::Update,
                spec: KernelSpec::new(
                    KernelClass::OptimizerUpdate,
                    flops_per_elem * n,
                    bytes_per_elem * n,
                    "optimizer",
                ),
            }
        })
        .collect()
}

fn in_bytes(graph: &Graph, id: NodeId) -> f64 {
    graph.node(id).inputs.iter().map(|i| graph.node(*i).shape.byte_len() as f64).sum()
}

fn out_bytes(graph: &Graph, id: NodeId) -> f64 {
    graph.node(id).shape.byte_len() as f64
}

fn conv_dims(graph: &Graph, id: NodeId) -> (f64, f64, f64, f64, f64, f64, f64, f64) {
    let node = graph.node(id);
    let x = &graph.node(node.inputs[0]).shape;
    let w = &graph.node(node.inputs[1]).shape;
    let out = &node.shape;
    (
        x.dim(0) as f64,                   // n
        x.dim(1) as f64,                   // c
        w.dim(0) as f64,                   // oc
        w.dim(2) as f64,                   // kh
        w.dim(3) as f64,                   // kw
        out.dim(2) as f64,                 // oh
        out.dim(3) as f64,                 // ow
        x.dim(2) as f64 * x.dim(3) as f64, // in spatial
    )
}

/// Forward kernels of a single node.
pub fn forward_kernels(graph: &Graph, id: NodeId) -> Vec<KernelSpec> {
    let node = graph.node(id);
    let inb = in_bytes(graph, id);
    let outb = out_bytes(graph, id);
    let len = node.shape.len() as f64;
    match &node.op {
        Op::Parameter { .. } => vec![],
        Op::Input { .. } => {
            vec![KernelSpec::new(KernelClass::MemcpyH2D, 0.0, outb, "input")]
        }
        Op::MatMul => {
            let a = &graph.node(node.inputs[0]).shape;
            let (m, k) = (a.dim(0) as f64, a.dim(1) as f64);
            let n = node.shape.dim(1) as f64;
            vec![KernelSpec::new(KernelClass::Gemm, 2.0 * m * k * n, inb + outb, "matmul")]
        }
        Op::BatchMatMul => {
            let a = &graph.node(node.inputs[0]).shape;
            let (b, m, k) = (a.dim(0) as f64, a.dim(1) as f64, a.dim(2) as f64);
            let n = node.shape.dim(2) as f64;
            vec![KernelSpec::new(
                KernelClass::BatchedGemm,
                2.0 * b * m * k * n,
                inb + outb,
                "batch_matmul",
            )]
        }
        Op::Conv2d(_) => {
            let (n, c, oc, kh, kw, oh, ow, _) = conv_dims(graph, id);
            let flops = 2.0 * n * oc * oh * ow * c * kh * kw;
            let ws = (F32 * c * kh * kw * oh * ow) as u64;
            vec![KernelSpec::new(KernelClass::ConvForward, flops, inb + outb, "conv2d")
                .with_workspace(ws)]
        }
        Op::Transpose
        | Op::BatchTranspose
        | Op::Concat { .. }
        | Op::SliceCols { .. }
        | Op::SliceRows { .. }
        | Op::Permute3(_) => {
            vec![KernelSpec::new(KernelClass::DataMovement, 0.0, inb + outb, node_origin(&node.op))]
        }
        Op::Reshape(_) => vec![],
        Op::AddBias | Op::Add | Op::Sub | Op::Mul | Op::Scale(_) | Op::AddScalar(_) => {
            vec![KernelSpec::new(KernelClass::Elementwise, len, inb + outb, node_origin(&node.op))]
        }
        Op::Relu | Op::LeakyRelu(_) => {
            vec![KernelSpec::new(KernelClass::ActivationForward, len, inb + outb, "activation")]
        }
        Op::Sigmoid | Op::Tanh => {
            vec![KernelSpec::new(
                KernelClass::ActivationForward,
                4.0 * len,
                inb + outb,
                "activation",
            )]
        }
        Op::MaxPool(cfg) | Op::AvgPool(cfg) => {
            let window = (cfg.kernel * cfg.kernel) as f64;
            vec![KernelSpec::new(KernelClass::PoolForward, len * window, inb + outb, "pool")]
        }
        Op::GlobalAvgPool => {
            vec![KernelSpec::new(KernelClass::Reduction, inb / F32, inb + outb, "gap")]
        }
        Op::Upsample2x => {
            vec![KernelSpec::new(KernelClass::DataMovement, 0.0, inb + outb, "upsample")]
        }
        Op::BatchNorm { .. } => {
            // Two statistics passes + one normalise pass over the data.
            vec![KernelSpec::new(
                KernelClass::BatchNormForward,
                8.0 * len,
                3.0 * (inb + outb) / 2.0,
                "batch_norm",
            )]
        }
        Op::LayerNorm { .. } => {
            vec![KernelSpec::new(
                KernelClass::LayerNormForward,
                8.0 * len,
                3.0 * (inb + outb) / 2.0,
                "layer_norm",
            )]
        }
        Op::Softmax => {
            vec![KernelSpec::new(
                KernelClass::SoftmaxForward,
                5.0 * len,
                2.0 * (inb + outb),
                "softmax",
            )]
        }
        Op::CrossEntropy => {
            let lin = graph.node(node.inputs[0]).shape.len() as f64;
            vec![KernelSpec::new(KernelClass::Reduction, 5.0 * lin, 2.0 * inb, "cross_entropy")]
        }
        Op::Embedding => {
            vec![KernelSpec::new(KernelClass::EmbeddingForward, 0.0, 2.0 * outb, "embedding")]
        }
        Op::MeanAll | Op::SumAll => {
            vec![KernelSpec::new(KernelClass::Reduction, inb / F32, inb, "reduce")]
        }
        Op::Dropout { .. } => {
            vec![KernelSpec::new(KernelClass::Dropout, 2.0 * len, 3.0 * outb, "dropout")]
        }
    }
}

/// Backward kernels of a single node, restricted to inputs that require
/// gradients.
pub fn backward_kernels(graph: &Graph, id: NodeId, needs: &[bool]) -> Vec<KernelSpec> {
    let node = graph.node(id);
    let input_needs = |k: usize| node.op.input_differentiable(k) && needs[node.inputs[k].index()];
    let inb = in_bytes(graph, id);
    let outb = out_bytes(graph, id);
    let len = node.shape.len() as f64;
    match &node.op {
        Op::Input { .. } | Op::Parameter { .. } => vec![],
        Op::MatMul => {
            let a = &graph.node(node.inputs[0]).shape;
            let (m, k) = (a.dim(0) as f64, a.dim(1) as f64);
            let n = node.shape.dim(1) as f64;
            let mut v = Vec::new();
            if input_needs(0) {
                v.push(KernelSpec::new(
                    KernelClass::Gemm,
                    2.0 * m * n * k,
                    inb + outb,
                    "matmul_bwd_a",
                ));
            }
            if input_needs(1) {
                v.push(KernelSpec::new(
                    KernelClass::Gemm,
                    2.0 * k * m * n,
                    inb + outb,
                    "matmul_bwd_b",
                ));
            }
            v
        }
        Op::BatchMatMul => {
            let a = &graph.node(node.inputs[0]).shape;
            let (b, m, k) = (a.dim(0) as f64, a.dim(1) as f64, a.dim(2) as f64);
            let n = node.shape.dim(2) as f64;
            let mut v = Vec::new();
            if input_needs(0) {
                v.push(KernelSpec::new(
                    KernelClass::BatchedGemm,
                    2.0 * b * m * n * k,
                    inb + outb,
                    "batch_matmul_bwd_a",
                ));
            }
            if input_needs(1) {
                v.push(KernelSpec::new(
                    KernelClass::BatchedGemm,
                    2.0 * b * k * m * n,
                    inb + outb,
                    "batch_matmul_bwd_b",
                ));
            }
            v
        }
        Op::Conv2d(_) => {
            let (n, c, oc, kh, kw, oh, ow, _) = conv_dims(graph, id);
            let flops = 2.0 * n * oc * oh * ow * c * kh * kw;
            let ws = (F32 * c * kh * kw * oh * ow) as u64;
            let mut v = Vec::new();
            if input_needs(0) {
                v.push(
                    KernelSpec::new(
                        KernelClass::ConvBackwardData,
                        flops,
                        inb + outb,
                        "conv2d_bwd_data",
                    )
                    .with_workspace(ws),
                );
            }
            if input_needs(1) {
                v.push(
                    KernelSpec::new(
                        KernelClass::ConvBackwardFilter,
                        flops,
                        inb + outb,
                        "conv2d_bwd_filter",
                    )
                    .with_workspace(ws),
                );
            }
            v
        }
        Op::Transpose
        | Op::BatchTranspose
        | Op::Concat { .. }
        | Op::SliceCols { .. }
        | Op::SliceRows { .. }
        | Op::Permute3(_) => {
            vec![KernelSpec::new(KernelClass::DataMovement, 0.0, inb + outb, node_origin(&node.op))]
        }
        Op::Reshape(_) => vec![],
        Op::AddBias => {
            // dx is the identity; only the bias reduction launches a kernel.
            if input_needs(1) {
                vec![KernelSpec::new(KernelClass::Reduction, len, outb, "bias_bwd")]
            } else {
                vec![]
            }
        }
        Op::Add | Op::Sub => {
            vec![KernelSpec::new(KernelClass::Elementwise, len, 2.0 * outb, "ew_bwd")]
        }
        Op::Mul => {
            let mut v = Vec::new();
            if input_needs(0) {
                v.push(KernelSpec::new(KernelClass::Elementwise, len, 3.0 * outb, "mul_bwd"));
            }
            if input_needs(1) {
                v.push(KernelSpec::new(KernelClass::Elementwise, len, 3.0 * outb, "mul_bwd"));
            }
            v
        }
        Op::Scale(_) | Op::AddScalar(_) => {
            vec![KernelSpec::new(KernelClass::Elementwise, len, 2.0 * outb, "ew_bwd")]
        }
        Op::Relu | Op::LeakyRelu(_) => {
            vec![KernelSpec::new(
                KernelClass::ActivationBackward,
                len,
                3.0 * outb,
                "activation_bwd",
            )]
        }
        Op::Sigmoid | Op::Tanh => {
            vec![KernelSpec::new(
                KernelClass::ActivationBackward,
                3.0 * len,
                3.0 * outb,
                "activation_bwd",
            )]
        }
        Op::MaxPool(_) => {
            vec![KernelSpec::new(KernelClass::PoolBackward, len, inb + outb, "pool_bwd")]
        }
        Op::AvgPool(cfg) => {
            let window = (cfg.kernel * cfg.kernel) as f64;
            vec![KernelSpec::new(KernelClass::PoolBackward, len * window, inb + outb, "pool_bwd")]
        }
        Op::GlobalAvgPool => {
            vec![KernelSpec::new(KernelClass::Elementwise, inb / F32, inb, "gap_bwd")]
        }
        Op::Upsample2x => {
            vec![KernelSpec::new(KernelClass::Elementwise, len, inb + outb, "upsample_bwd")]
        }
        Op::BatchNorm { .. } => {
            let xb = graph.node(node.inputs[0]).shape.byte_len() as f64;
            vec![KernelSpec::new(
                KernelClass::BatchNormBackward,
                12.0 * len,
                4.0 * xb,
                "batch_norm_bwd",
            )]
        }
        Op::LayerNorm { .. } => {
            let xb = graph.node(node.inputs[0]).shape.byte_len() as f64;
            vec![KernelSpec::new(
                KernelClass::LayerNormBackward,
                12.0 * len,
                4.0 * xb,
                "layer_norm_bwd",
            )]
        }
        Op::Softmax => {
            vec![KernelSpec::new(
                KernelClass::SoftmaxBackward,
                4.0 * len,
                3.0 * outb,
                "softmax_bwd",
            )]
        }
        Op::CrossEntropy => {
            let lin = graph.node(node.inputs[0]).shape.len() as f64;
            let lb = graph.node(node.inputs[0]).shape.byte_len() as f64;
            vec![KernelSpec::new(
                KernelClass::SoftmaxBackward,
                2.0 * lin,
                2.0 * lb,
                "cross_entropy_bwd",
            )]
        }
        Op::Embedding => {
            vec![KernelSpec::new(KernelClass::EmbeddingBackward, len, 2.0 * outb, "embedding_bwd")]
        }
        Op::MeanAll | Op::SumAll => {
            vec![KernelSpec::new(KernelClass::Elementwise, inb / F32, inb, "reduce_bwd")]
        }
        Op::Dropout { .. } => {
            vec![KernelSpec::new(KernelClass::Elementwise, len, 3.0 * outb, "dropout_bwd")]
        }
    }
}

fn node_origin(op: &Op) -> &'static str {
    op.mnemonic()
}

/// Static memory footprint of a training iteration, broken down into the
/// categories of the paper's memory profiler (Fig. 9). The `dynamic`
/// category (optimizer state et al.) is framework-specific and added by
/// `tbd-frameworks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryFootprint {
    /// Model weights.
    pub weights: u64,
    /// Weight gradients (same extent as the weights).
    pub weight_grads: u64,
    /// Feature maps: every intermediate activation stashed for the backward
    /// pass, plus per-op auxiliary buffers (argmax indices, saved
    /// normalisations, dropout masks), the device-resident mini-batch, and
    /// the gradient maps mirroring them (see `GRADIENT_MAPS_FACTOR`).
    pub feature_maps: u64,
    /// Raw stashed activations only (no gradient-map mirror) — the bytes a
    /// vDNN-style offloader can actually move to the host.
    pub activations: u64,
    /// Largest single-kernel workspace requested during the iteration (the
    /// minimum a framework must reserve).
    pub workspace: u64,
    /// Sum of per-layer workspace requests across forward and backward
    /// kernels — what a framework that caches one workspace per operator
    /// (as MXNet and TensorFlow do) would hold at its autotuning maximum.
    pub workspace_total: u64,
}

impl MemoryFootprint {
    /// Total bytes across all categories (counting the minimum workspace).
    pub fn total(&self) -> u64 {
        self.weights + self.weight_grads + self.feature_maps + self.workspace
    }
}

/// Multiplier covering the gradient maps of stashed activations: the
/// backward pass materialises a gradient buffer for (nearly) every forward
/// activation, and the paper's profiler folds those into the feature-map
/// category (its Fig. 1 shows "gradient maps" mirroring every feature map).
const GRADIENT_MAPS_FACTOR: f64 = 1.75;

/// Computes the framework-independent memory footprint of one training
/// iteration over `graph`.
///
/// Activations of in-place operators (ReLU family) are not counted — all
/// three frameworks apply them in place, overwriting their input buffer.
pub fn memory_footprint(graph: &Graph) -> MemoryFootprint {
    let needs = graph.requires_grad();
    let mut weights = 0u64;
    let mut activations = 0u64;
    for (i, node) in graph.nodes().iter().enumerate() {
        let bytes = node.shape.byte_len() as u64;
        match &node.op {
            Op::Parameter { .. } => weights += bytes,
            Op::Reshape(_) => {}              // aliases its input
            Op::Relu | Op::LeakyRelu(_) => {} // applied in place
            _ => {
                activations += bytes;
                activations += aux_bytes(graph, NodeId(i));
            }
        }
    }
    let feature_maps = (activations as f64 * GRADIENT_MAPS_FACTOR) as u64;
    let mut workspace = 0u64;
    let mut workspace_total = 0u64;
    for (i, node) in graph.nodes().iter().enumerate() {
        for k in forward_kernels(graph, NodeId(i)) {
            workspace = workspace.max(k.workspace_bytes);
            workspace_total += k.workspace_bytes;
        }
        if needs[i] {
            for k in backward_kernels(graph, NodeId(i), &needs) {
                workspace = workspace.max(k.workspace_bytes);
                workspace_total += k.workspace_bytes;
            }
        }
        let _ = node;
    }
    MemoryFootprint {
        weights,
        weight_grads: weights,
        feature_maps,
        activations,
        workspace,
        workspace_total,
    }
}

/// Weight-gradient bytes attributed to the graph node whose backward kernel
/// completes each parameter's gradient.
///
/// The backward pass walks nodes in reverse topological order, so for a
/// parameter with several consumers the *lowest-indexed* consumer's backward
/// kernel is the last to touch the accumulated gradient — that node is the
/// one whose completion makes the gradient ready to ship. The returned list
/// is sorted by consumer node id and its byte total equals
/// [`MemoryFootprint::weight_grads`] whenever every parameter is consumed.
pub fn weight_grad_bytes_by_consumer(graph: &Graph) -> Vec<(NodeId, u64)> {
    use std::collections::BTreeMap;
    // One edge sweep instead of a per-parameter scan: consumers are visited
    // in ascending index order, so the first sighting of each producer IS
    // its minimum consumer.
    let mut first_consumer: Vec<Option<usize>> = vec![None; graph.nodes().len()];
    for (j, node) in graph.nodes().iter().enumerate() {
        for input in &node.inputs {
            let slot = &mut first_consumer[input.index()];
            if slot.is_none() {
                *slot = Some(j);
            }
        }
    }
    let mut by_consumer: BTreeMap<usize, u64> = BTreeMap::new();
    for (i, node) in graph.nodes().iter().enumerate() {
        if !matches!(node.op, Op::Parameter { .. }) {
            continue;
        }
        if let Some(j) = first_consumer[i] {
            *by_consumer.entry(j).or_insert(0) += node.shape.byte_len() as u64;
        }
    }
    by_consumer.into_iter().map(|(j, b)| (NodeId(j), b)).collect()
}

/// Auxiliary per-op buffers stashed between forward and backward.
fn aux_bytes(graph: &Graph, id: NodeId) -> u64 {
    let node = graph.node(id);
    let out = node.shape.byte_len() as u64;
    match &node.op {
        // cuDNN saves only per-channel statistics (x̂ is recomputed in the
        // backward kernel), so the aux cost is negligible.
        Op::BatchNorm { .. } | Op::LayerNorm { .. } => 0,
        // int32 argmax per output element.
        Op::MaxPool(_) => out,
        // The survival mask.
        Op::Dropout { .. } => out,
        // Saved probabilities.
        Op::CrossEntropy => graph.node(node.inputs[0]).shape.byte_len() as u64,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, Init};
    use tbd_tensor::ops::Conv2dConfig;

    fn mlp() -> (Graph, NodeId) {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [8, 16]);
        let w = g.parameter("w", [16, 32], Init::Zeros);
        let h = g.matmul(x, w).unwrap();
        let h = g.relu(h).unwrap();
        let t = g.input("t", [8]);
        let loss = g.cross_entropy(h, t).unwrap();
        (g.finish(), loss)
    }

    #[test]
    fn matmul_flops_are_2mkn() {
        let (graph, _) = mlp();
        let stream = lower_training_iteration(&graph, None);
        let gemm: Vec<_> = stream.iter().filter(|k| k.spec.class == KernelClass::Gemm).collect();
        // One forward GEMM, one backward (only the weight needs grad: the
        // input x does not, so dA is skipped).
        assert_eq!(gemm.len(), 2);
        assert_eq!(gemm[0].spec.flops, 2.0 * 8.0 * 16.0 * 32.0);
        assert_eq!(gemm[0].phase, Phase::Forward);
        assert_eq!(gemm[1].phase, Phase::Backward);
    }

    #[test]
    fn weight_grad_bytes_attribute_every_parameter_to_a_consumer() {
        let (graph, _) = mlp();
        let by_consumer = weight_grad_bytes_by_consumer(&graph);
        let total: u64 = by_consumer.iter().map(|(_, b)| b).sum();
        assert_eq!(total, memory_footprint(&graph).weight_grads);
        // Every consumer is a non-parameter node that really takes the
        // parameter as input.
        for (id, bytes) in &by_consumer {
            assert!(*bytes > 0);
            assert!(!matches!(graph.node(*id).op, Op::Parameter { .. }));
        }
    }

    #[test]
    fn backward_stream_is_reverse_topological() {
        let (graph, _) = mlp();
        let stream = lower_training_iteration(&graph, None);
        let bwd: Vec<_> =
            stream.iter().filter(|k| k.phase == Phase::Backward).map(|k| k.node).collect();
        for w in bwd.windows(2) {
            assert!(w[0] >= w[1], "backward kernels must run in reverse order");
        }
    }

    #[test]
    fn conv_lowering_has_three_heavy_kernels() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [2, 3, 8, 8]);
        let w = g.parameter("w", [4, 3, 3, 3], Init::Zeros);
        let y = g.conv2d(x, w, Conv2dConfig::new(1, 1)).unwrap();
        let s = g.sum_all(y).unwrap();
        let _ = s;
        let graph = g.finish();
        let stream = lower_training_iteration(&graph, None);
        let conv_fwd = stream.iter().find(|k| k.spec.class == KernelClass::ConvForward).unwrap();
        assert_eq!(conv_fwd.spec.flops, 2.0 * 2.0 * 4.0 * 8.0 * 8.0 * 3.0 * 3.0 * 3.0);
        assert!(conv_fwd.spec.workspace_bytes > 0);
        // x is an input without grad: only the filter gradient kernel runs.
        assert!(stream.iter().any(|k| k.spec.class == KernelClass::ConvBackwardFilter));
        assert!(!stream.iter().any(|k| k.spec.class == KernelClass::ConvBackwardData));
    }

    #[test]
    fn memory_footprint_categories() {
        let (graph, _) = mlp();
        let fp = memory_footprint(&graph);
        // w is 16*32 floats.
        assert_eq!(fp.weights, 16 * 32 * 4);
        assert_eq!(fp.weight_grads, fp.weights);
        // feature maps: x (8*16) + h (8*32) + relu(h) (8*32) + loss scalar +
        // targets (8) + CE aux probs (8*32).
        assert!(fp.feature_maps > 0);
        assert_eq!(fp.total(), fp.weights + fp.weight_grads + fp.feature_maps + fp.workspace);
    }

    #[test]
    fn optimizer_kernels_cover_every_param() {
        let (graph, _) = mlp();
        let upd = optimizer_update_kernels(&graph, 2.0, 12.0);
        assert_eq!(upd.len(), graph.params().len());
        assert_eq!(upd[0].spec.flops, 2.0 * (16 * 32) as f64);
        assert_eq!(upd[0].phase, Phase::Update);
    }

    #[test]
    fn forward_stream_is_a_prefix_of_the_training_stream() {
        // The regression contract for the shared emission path: for any
        // plan (none or fused), lower_forward is exactly the forward prefix
        // of lower_training_iteration, and everything after it is backward.
        let graphs = [mlp().0, {
            let mut g = GraphBuilder::new();
            let x = g.input("x", [2, 3, 8, 8]);
            let w = g.parameter("w", [4, 3, 3, 3], Init::Zeros);
            let c = g.conv2d(x, w, Conv2dConfig::new(1, 1)).unwrap();
            let gamma = g.parameter("g", [4], Init::Ones);
            let beta = g.parameter("b", [4], Init::Zeros);
            let bn = g.batch_norm(c, gamma, beta, 1e-5).unwrap();
            let r = g.relu(bn).unwrap();
            let _ = g.sum_all(r).unwrap();
            g.finish()
        }];
        for graph in &graphs {
            let plan = FusionPlan::analyze(graph);
            for plan in [None, Some(&plan)] {
                let fwd = lower_forward(graph, plan);
                let full = lower_training_iteration(graph, plan);
                assert!(fwd.len() <= full.len());
                assert_eq!(&full[..fwd.len()], &fwd[..], "forward prefix diverged");
                assert!(full[fwd.len()..].iter().all(|k| k.phase == Phase::Backward));
            }
        }
    }

    #[test]
    fn fused_lowering_emits_fewer_launches_with_same_flops() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [2, 3, 8, 8]);
        let w = g.parameter("w", [4, 3, 3, 3], Init::Zeros);
        let c = g.conv2d(x, w, Conv2dConfig::new(1, 1)).unwrap();
        let gamma = g.parameter("g", [4], Init::Ones);
        let beta = g.parameter("b", [4], Init::Zeros);
        let bn = g.batch_norm(c, gamma, beta, 1e-5).unwrap();
        let r = g.relu(bn).unwrap();
        let _ = g.sum_all(r).unwrap();
        let graph = g.finish();
        let plan = FusionPlan::analyze(&graph);
        let unfused = lower_forward(&graph, None);
        let fused = lower_forward(&graph, Some(&plan));
        assert_eq!(unfused.len() - fused.len(), plan.launches_eliminated());
        let flops = |s: &[LoweredKernel]| s.iter().map(|k| k.spec.flops).sum::<f64>();
        assert_eq!(flops(&unfused), flops(&fused), "fusion must not change arithmetic");
        let bytes = |s: &[LoweredKernel]| s.iter().map(|k| k.spec.bytes).sum::<f64>();
        assert!(bytes(&fused) < bytes(&unfused), "fusion eliminates interior traffic");
        assert!(fused.iter().any(|k| k.spec.origin == "fused:conv2d+batch_norm+relu"));
    }

    #[test]
    fn reshape_is_free() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [2, 6]);
        let r = g.reshape(x, [3, 4]).unwrap();
        let _ = g.sum_all(r).unwrap();
        let graph = g.finish();
        let stream = lower_forward(&graph, None);
        assert!(stream.iter().all(|k| k.node != r));
    }
}

/// Attributes stashed-activation bytes to the operator type that produced
/// them — the layer-wise view the paper's memory profiler gives developers
/// ("pinpoint how much memory is consumed by different data structures").
///
/// Reshape aliases and in-place activations contribute nothing, matching
/// [`memory_footprint`]'s accounting; the returned bytes are raw
/// activations (no gradient-map factor).
pub fn activation_bytes_by_op(graph: &Graph) -> std::collections::BTreeMap<&'static str, u64> {
    let mut by_op = std::collections::BTreeMap::new();
    for (i, node) in graph.nodes().iter().enumerate() {
        let bytes = node.shape.byte_len() as u64;
        match &node.op {
            Op::Parameter { .. } | Op::Reshape(_) | Op::Relu | Op::LeakyRelu(_) => {}
            op => {
                *by_op.entry(op.mnemonic()).or_insert(0) += bytes + aux_bytes(graph, NodeId(i));
            }
        }
    }
    by_op
}

#[cfg(test)]
mod attribution_tests {
    use super::*;
    use crate::{GraphBuilder, Init};
    use tbd_tensor::ops::Conv2dConfig;

    #[test]
    fn attribution_sums_to_raw_activations() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [2, 3, 8, 8]);
        let w = g.parameter("w", [4, 3, 3, 3], Init::Zeros);
        let c = g.conv2d(x, w, Conv2dConfig::new(1, 1)).unwrap();
        let gamma = g.parameter("g", [4], Init::Ones);
        let beta = g.parameter("b", [4], Init::Zeros);
        let bn = g.batch_norm(c, gamma, beta, 1e-5).unwrap();
        let r = g.relu(bn).unwrap();
        let _ = g.sum_all(r).unwrap();
        let graph = g.finish();
        let by_op = activation_bytes_by_op(&graph);
        let total: u64 = by_op.values().sum();
        let fp = memory_footprint(&graph);
        assert_eq!(total, fp.activations);
        // The ReLU is in-place and must not appear.
        assert!(!by_op.contains_key("relu"));
        assert!(by_op["conv2d"] > 0 && by_op["batch_norm"] > 0);
    }
}

/// Memory footprint of *inference* over the same graph: weights plus the
/// transient activation working set (producers freed as soon as all
/// consumers ran — no stashing, no gradients).
///
/// This quantifies the paper's motivating contrast (§1): inference
/// footprints are dominated by weights and are orders of magnitude below
/// training footprints, which stash every feature map for the backward
/// pass.
pub fn inference_footprint(graph: &Graph) -> MemoryFootprint {
    let mut weights = 0u64;
    // Last consumer index per node determines when its buffer frees.
    let mut last_use = vec![0usize; graph.len()];
    for (i, node) in graph.nodes().iter().enumerate() {
        for input in &node.inputs {
            last_use[input.index()] = i;
        }
    }
    let mut live = 0u64;
    let mut peak = 0u64;
    let mut free_at: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
    for (i, node) in graph.nodes().iter().enumerate() {
        // Release buffers whose last consumer has executed.
        if let Some(bytes) = free_at.remove(&i) {
            live = live.saturating_sub(bytes);
        }
        let bytes = node.shape.byte_len() as u64;
        match &node.op {
            Op::Parameter { .. } => weights += bytes,
            Op::Reshape(_) | Op::Relu | Op::LeakyRelu(_) => {}
            _ => {
                live += bytes;
                peak = peak.max(live);
                let release = last_use[i].max(i) + 1;
                *free_at.entry(release).or_insert(0) += bytes;
            }
        }
    }
    MemoryFootprint {
        weights,
        weight_grads: 0,
        feature_maps: peak,
        activations: peak,
        workspace: memory_footprint(graph).workspace,
        workspace_total: 0,
    }
}

#[cfg(test)]
mod inference_tests {
    use super::*;
    use crate::{GraphBuilder, Init};

    #[test]
    fn inference_frees_activations_training_stashes_them() {
        // A deep chain: training keeps every layer, inference keeps ~2.
        let mut g = GraphBuilder::new();
        let mut x = g.input("x", [4, 64]);
        for i in 0..10 {
            let w = g.parameter(&format!("w{i}"), [64, 64], Init::Zeros);
            x = g.matmul(x, w).unwrap();
            x = g.tanh(x).unwrap();
        }
        let _ = g.sum_all(x).unwrap();
        let graph = g.finish();
        let train = memory_footprint(&graph);
        let infer = inference_footprint(&graph);
        assert_eq!(infer.weight_grads, 0, "no gradients at inference");
        assert!(
            infer.feature_maps * 4 < train.feature_maps,
            "inference working set {} vs training stash {}",
            infer.feature_maps,
            train.feature_maps
        );
        assert_eq!(infer.weights, train.weights);
    }
}
