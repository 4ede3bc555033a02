//! Forward-pass kernel fusion: the graph-compiler "speed tier".
//!
//! The paper's Eq. 3 / Fig. 5 analysis shows per-kernel launch overhead and
//! memory-bound pointwise kernels dominating training cost on short-kernel
//! workloads. Real compilers (XLA, TensorRT, cuDNN fused epilogues) respond
//! by fusing chains of cheap pointwise operators into the preceding heavy
//! kernel's epilogue. This module reproduces the *scheduling* consequence
//! of that optimisation: a [`FusionPlan`] groups chains of
//! elementwise/activation/normalisation/dropout nodes into single fused
//! kernels, so lowering emits fewer `LoweredKernel`s (fewer launch + sync
//! events in `tbd-gpusim::timeline`) and the executor runs each group as a
//! single scheduling unit (fewer wave barriers in `tbd-graph::exec`).
//!
//! Fusion never changes results: the executor still evaluates every member
//! node with the same kernels in the same order, so fused execution is
//! bitwise identical to unfused execution at f32.
//!
//! # Fusion-rule table
//!
//! A chain `a → b` fuses when **all** of the following hold:
//!
//! 1. both ops belong to a fusable family (table below);
//! 2. `b`'s *primary* input (`inputs[0]`, the data pipeline) is `a`;
//! 3. `a` has exactly one consumer edge (`b` — interior values never leave
//!    the group during the forward pass).
//!
//! | family        | ops                                            |
//! |---------------|------------------------------------------------|
//! | `elementwise` | `bias`, `add`, `sub`, `mul`, `scale`, `add_scalar` |
//! | `activation`  | `relu`, `leaky_relu`, `sigmoid`, `tanh`        |
//! | `norm`        | `batch_norm`, `layer_norm`                     |
//! | `dropout`     | `dropout`                                      |
//! | `contraction` | `matmul`, `batch_matmul`, `conv2d` (*chain head only*) |
//!
//! The `contraction` family is the cuDNN/cuBLAS "fused epilogue" rule: a
//! GEMM or convolution may *start* a group (its pointwise successors run
//! in its epilogue), but can never be fused into another kernel's tail —
//! so rule 1 carries the extra clause that a contraction is only fusable
//! as the first member. This is the rule that collapses the canonical
//! `conv2d → batch_norm → relu` block into one kernel, turning ResNet-like
//! graphs into near-pure chains of fused units (singleton waves need no
//! thread hand-off in the executor, which is where the speed tier's
//! wall-clock win comes from).
//!
//! Side inputs (bias vectors, γ/β parameters) come from outside the group.
//! Fusion is forward-only: backward kernels stay per-node so gradient
//! attribution (`weight_grad_bytes_by_consumer`, `BackwardProfile`) is
//! unchanged — matching the common "epilogue fusion" deployment where the
//! backward pass is left unfused.
//!
//! Fused kernels are named deterministically — `fused:` followed by the
//! member mnemonics joined with `+` (e.g. `fused:batch_norm+relu`) — so
//! golden-trace digests are reproducible across runs and thread counts.

use crate::lower::forward_kernels;
use crate::{Graph, KernelClass, KernelSpec, NodeId, Op};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Fusable operator families, ordered by *class priority*: when a group
/// mixes families, the fused kernel is classified by the strongest member
/// (`Norm > Activation > Dropout > Elementwise`), because the most
/// expensive member dominates the fused kernel's timing profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FusionFamily {
    /// Cheap pointwise arithmetic: `bias`, `add`, `sub`, `mul`, `scale`,
    /// `add_scalar`.
    Elementwise,
    /// Dropout masks (pointwise with an RNG stream).
    Dropout,
    /// Activation functions: `relu`, `leaky_relu`, `sigmoid`, `tanh`.
    Activation,
    /// Normalisation layers: `batch_norm`, `layer_norm`.
    Norm,
    /// Tensor contractions: `matmul`, `batch_matmul`, `conv2d`. Fusable
    /// only as a chain's first member (the fused-epilogue rule).
    Contraction,
}

/// The canonical fusion-rule table: `(mnemonic, family)` for every fusable
/// op. This is the documented contract (DESIGN.md §5g); [`fusion_family`]
/// is its executable form and a test asserts they agree.
pub const FUSION_RULES: &[(&str, FusionFamily)] = &[
    ("bias", FusionFamily::Elementwise),
    ("add", FusionFamily::Elementwise),
    ("sub", FusionFamily::Elementwise),
    ("mul", FusionFamily::Elementwise),
    ("scale", FusionFamily::Elementwise),
    ("add_scalar", FusionFamily::Elementwise),
    ("relu", FusionFamily::Activation),
    ("leaky_relu", FusionFamily::Activation),
    ("sigmoid", FusionFamily::Activation),
    ("tanh", FusionFamily::Activation),
    ("batch_norm", FusionFamily::Norm),
    ("layer_norm", FusionFamily::Norm),
    ("dropout", FusionFamily::Dropout),
    ("matmul", FusionFamily::Contraction),
    ("batch_matmul", FusionFamily::Contraction),
    ("conv2d", FusionFamily::Contraction),
];

/// The fusion family of an op, or `None` when the op is not fusable.
pub fn fusion_family(op: &Op) -> Option<FusionFamily> {
    match op {
        Op::AddBias | Op::Add | Op::Sub | Op::Mul | Op::Scale(_) | Op::AddScalar(_) => {
            Some(FusionFamily::Elementwise)
        }
        Op::Relu | Op::LeakyRelu(_) | Op::Sigmoid | Op::Tanh => Some(FusionFamily::Activation),
        Op::BatchNorm { .. } | Op::LayerNorm { .. } => Some(FusionFamily::Norm),
        Op::Dropout { .. } => Some(FusionFamily::Dropout),
        Op::MatMul | Op::BatchMatMul | Op::Conv2d(_) => Some(FusionFamily::Contraction),
        _ => None,
    }
}

/// Interns a kernel or event name so it can be handed out as
/// `&'static str` (e.g. `KernelSpec::origin`, hot-path trace-event
/// labels). Names are deterministic functions of bounded inputs — member
/// mnemonics, kernel origins and classes — so the pool stays tiny and
/// leaking is safe.
pub fn intern_name(name: String) -> &'static str {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut pool = POOL.lock().expect("fusion name pool");
    if let Some(&existing) = pool.get(name.as_str()) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// One fused chain: at least two nodes in ascending (= dataflow) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionGroup {
    nodes: Vec<NodeId>,
    name: &'static str,
}

impl FusionGroup {
    /// Member nodes in ascending id order — which, because every member
    /// consumes its predecessor, is also the evaluation order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Deterministic fused-kernel name, e.g. `fused:bias+relu`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// First member: the node whose primary input feeds the group.
    pub fn root(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last member: the node whose output leaves the group. The executor
    /// anchors the group here — every external input of every member has a
    /// smaller node id, so by the anchor's position in topological order
    /// all of them are available.
    pub fn anchor(&self) -> NodeId {
        *self.nodes.last().expect("groups have >= 2 members")
    }

    /// Number of member nodes (always >= 2).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Never true — kept for clippy's `len_without_is_empty` lint.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// The fusion decisions for one graph: a partition of fusable chains into
/// [`FusionGroup`]s. Analysis is a pure function of graph topology, so the
/// plan (and everything derived from it: kernel names, wave schedules,
/// trace digests) is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FusionPlan {
    /// `group_of[i]` is the group index of node `i`, if fused.
    group_of: Vec<Option<usize>>,
    groups: Vec<FusionGroup>,
}

impl FusionPlan {
    /// Builds the fusion plan for `graph` by greedily extending maximal
    /// chains under the rule table (see module docs).
    pub fn analyze(graph: &Graph) -> FusionPlan {
        let n = graph.len();
        let mut consumer_edges = vec![0usize; n];
        let mut sole_consumer = vec![usize::MAX; n];
        for (j, node) in graph.nodes().iter().enumerate() {
            for input in &node.inputs {
                consumer_edges[input.index()] += 1;
                sole_consumer[input.index()] = j;
            }
        }
        let mut group_of: Vec<Option<usize>> = vec![None; n];
        let mut groups = Vec::new();
        for i in 0..n {
            if group_of[i].is_some() || fusion_family(&graph.node(NodeId(i)).op).is_none() {
                continue;
            }
            let mut chain = vec![i];
            let mut cur = i;
            loop {
                if consumer_edges[cur] != 1 {
                    break;
                }
                let next = sole_consumer[cur];
                let next_node = graph.node(NodeId(next));
                // A contraction can only *head* a chain (fused-epilogue
                // rule), so it never joins as a later member.
                if !matches!(
                    fusion_family(&next_node.op),
                    Some(family) if family != FusionFamily::Contraction
                ) || next_node.inputs.first() != Some(&NodeId(cur))
                {
                    break;
                }
                chain.push(next);
                cur = next;
            }
            if chain.len() < 2 {
                continue;
            }
            let name = intern_name(format!(
                "fused:{}",
                chain
                    .iter()
                    .map(|&k| graph.node(NodeId(k)).op.mnemonic())
                    .collect::<Vec<_>>()
                    .join("+")
            ));
            let index = groups.len();
            for &k in &chain {
                group_of[k] = Some(index);
            }
            groups.push(FusionGroup {
                nodes: chain.into_iter().map(NodeId::from_index).collect(),
                name,
            });
        }
        FusionPlan { group_of, groups }
    }

    /// All fusion groups, in ascending root order.
    pub fn groups(&self) -> &[FusionGroup] {
        &self.groups
    }

    /// Index of the group containing `id`, if any.
    pub fn group_of(&self, id: NodeId) -> Option<usize> {
        self.group_of.get(id.index()).copied().flatten()
    }

    /// The group anchored at `id` (i.e. `id` is the group's last member).
    pub fn anchored_at(&self, id: NodeId) -> Option<&FusionGroup> {
        self.group_of(id).map(|g| &self.groups[g]).filter(|g| g.anchor() == id)
    }

    /// `true` when `id` is a group member that is *not* the anchor — such
    /// nodes are skipped by schedulers and evaluated inline at the anchor.
    pub fn is_interior(&self, id: NodeId) -> bool {
        self.group_of(id).is_some_and(|g| self.groups[g].anchor() != id)
    }

    /// Number of kernel launches eliminated: `sum(len - 1)` over groups.
    pub fn launches_eliminated(&self) -> usize {
        self.groups.iter().map(|g| g.len() - 1).sum()
    }
}

/// Synthesises the cost descriptor of a fused group:
///
/// * `flops` — sum over member forward kernels (the arithmetic still runs);
/// * `bytes` — external input bytes plus the final output bytes only: the
///   interior values stay in registers/shared memory, which is exactly the
///   traffic fusion eliminates;
/// * `workspace` — max over members (the fused kernel reuses one scratch);
/// * `class` — the strongest member family's forward class
///   (`Contraction > Norm > Activation > Dropout > Elementwise`);
/// * `origin` — the deterministic fused name.
pub fn fused_spec(graph: &Graph, group: &FusionGroup) -> KernelSpec {
    let members: BTreeSet<usize> = group.nodes().iter().map(|id| id.index()).collect();
    let mut flops = 0.0;
    let mut workspace = 0u64;
    let mut best = FusionFamily::Elementwise;
    let mut class = KernelClass::Elementwise;
    let mut externals: BTreeSet<usize> = BTreeSet::new();
    for &id in group.nodes() {
        for kernel in forward_kernels(graph, id) {
            flops += kernel.flops;
            workspace = workspace.max(kernel.workspace_bytes);
        }
        let node = graph.node(id);
        let family = fusion_family(&node.op).expect("group members are fusable");
        if family > best || (id == group.root() && family == best) {
            best = family;
            class = match (&node.op, family) {
                (Op::Conv2d(_), _) => KernelClass::ConvForward,
                (Op::MatMul, _) => KernelClass::Gemm,
                (Op::BatchMatMul, _) => KernelClass::BatchedGemm,
                (Op::BatchNorm { .. }, _) => KernelClass::BatchNormForward,
                (Op::LayerNorm { .. }, _) => KernelClass::LayerNormForward,
                (_, FusionFamily::Activation) => KernelClass::ActivationForward,
                (_, FusionFamily::Dropout) => KernelClass::Dropout,
                (_, _) => KernelClass::Elementwise,
            };
        }
        for input in &node.inputs {
            if !members.contains(&input.index()) {
                externals.insert(input.index());
            }
        }
    }
    let bytes =
        externals.iter().map(|&e| graph.node(NodeId(e)).shape.byte_len() as f64).sum::<f64>()
            + graph.node(group.anchor()).shape.byte_len() as f64;
    KernelSpec::new(class, flops, bytes, group.name()).with_workspace(workspace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, Init};
    use tbd_tensor::ops::Conv2dConfig;

    /// conv → batch_norm → relu → (branch): the canonical CNN block.
    fn conv_bn_relu() -> Graph {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [2, 3, 8, 8]);
        let w = g.parameter("w", [4, 3, 3, 3], Init::He { fan_in: 27 });
        let c = g.conv2d(x, w, Conv2dConfig::new(1, 1)).unwrap();
        let gamma = g.parameter("g", [4], Init::Ones);
        let beta = g.parameter("b", [4], Init::Zeros);
        let bn = g.batch_norm(c, gamma, beta, 1e-5).unwrap();
        let r = g.relu(bn).unwrap();
        let _ = g.sum_all(r).unwrap();
        g.finish()
    }

    #[test]
    fn fuses_conv_bn_relu_chain_with_deterministic_name() {
        let graph = conv_bn_relu();
        let plan = FusionPlan::analyze(&graph);
        assert_eq!(plan.groups().len(), 1);
        let group = &plan.groups()[0];
        assert_eq!(group.len(), 3);
        assert_eq!(group.name(), "fused:conv2d+batch_norm+relu");
        assert_eq!(plan.launches_eliminated(), 2);
        // The conv heads the group (fused-epilogue rule), γ/β are side
        // inputs, and the anchor is the relu.
        assert!(matches!(graph.node(group.root()).op, Op::Conv2d(_)));
        assert!(matches!(graph.node(group.anchor()).op, Op::Relu));
        assert!(plan.is_interior(group.root()));
        assert!(!plan.is_interior(group.anchor()));
        assert!(plan.anchored_at(group.anchor()).is_some());
        assert!(plan.anchored_at(group.root()).is_none());
    }

    #[test]
    fn contractions_head_chains_but_never_join_them() {
        // relu → matmul: the matmul must NOT be absorbed into the relu's
        // chain; it heads its own group with the following bias+tanh.
        let mut g = GraphBuilder::new();
        let x = g.input("x", [4, 8]);
        let r = g.relu(x).unwrap();
        let w = g.parameter("w", [8, 6], Init::Xavier { fan_in: 8, fan_out: 6 });
        let m = g.matmul(r, w).unwrap();
        let b = g.parameter("b", [6], Init::Zeros);
        let biased = g.add_bias(m, b).unwrap();
        let t = g.tanh(biased).unwrap();
        let _ = g.sum_all(t).unwrap();
        let graph = g.finish();
        let plan = FusionPlan::analyze(&graph);
        let names: Vec<&str> = plan.groups().iter().map(|g| g.name()).collect();
        assert_eq!(names, vec!["fused:matmul+bias+tanh"], "{names:?}");
        assert!(matches!(graph.node(plan.groups()[0].root()).op, Op::MatMul));
    }

    #[test]
    fn multi_consumer_interior_blocks_fusion() {
        // relu output consumed twice: the chain must stop at the relu.
        let mut g = GraphBuilder::new();
        let x = g.input("x", [4, 4]);
        let s = g.scale(x, 2.0).unwrap();
        let r = g.relu(s).unwrap();
        let a = g.add_scalar(r, 1.0).unwrap();
        let b = g.scale(r, 0.5).unwrap();
        let s2 = g.add(a, b).unwrap();
        let _ = g.sum_all(s2).unwrap();
        let graph = g.finish();
        let plan = FusionPlan::analyze(&graph);
        // scale+relu fuse; r's two consumers stop extension; a and b each
        // have one consumer (s2) but s2's primary input is a, so only a+add
        // can chain... b is not s2's inputs[0]? a is. a -> s2 fuses.
        for group in plan.groups() {
            for window in group.nodes().windows(2) {
                let next = graph.node(window[1]);
                assert_eq!(next.inputs[0], window[0], "chains follow primary inputs");
            }
        }
        let fused: Vec<&str> = plan.groups().iter().map(|g| g.name()).collect();
        assert!(fused.contains(&"fused:scale+relu"), "{fused:?}");
    }

    #[test]
    fn fused_spec_sums_flops_and_drops_interior_traffic() {
        let graph = conv_bn_relu();
        let plan = FusionPlan::analyze(&graph);
        let group = &plan.groups()[0];
        let spec = fused_spec(&graph, group);
        let member_specs: Vec<KernelSpec> =
            group.nodes().iter().flat_map(|&id| forward_kernels(&graph, id)).collect();
        let flops: f64 = member_specs.iter().map(|s| s.flops).sum();
        assert_eq!(spec.flops, flops);
        let unfused_bytes: f64 = member_specs.iter().map(|s| s.bytes).sum();
        assert!(spec.bytes < unfused_bytes, "{} vs {}", spec.bytes, unfused_bytes);
        assert_eq!(spec.class, KernelClass::ConvForward, "contraction outranks norm");
        assert_eq!(spec.origin, "fused:conv2d+batch_norm+relu");
    }

    #[test]
    fn rule_table_matches_executable_rules() {
        use std::collections::BTreeMap;
        let samples: Vec<Op> = vec![
            Op::AddBias,
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Scale(2.0),
            Op::AddScalar(1.0),
            Op::Relu,
            Op::LeakyRelu(0.1),
            Op::Sigmoid,
            Op::Tanh,
            Op::BatchNorm { eps: 1e-5 },
            Op::LayerNorm { eps: 1e-5 },
            Op::Dropout { p: 0.5 },
            Op::MatMul,
            Op::Softmax,
            Op::Reshape(tbd_tensor::Shape::new(&[1])),
        ];
        let table: BTreeMap<&str, FusionFamily> = FUSION_RULES.iter().copied().collect();
        for op in &samples {
            assert_eq!(
                fusion_family(op),
                table.get(op.mnemonic()).copied(),
                "rule table and fusion_family disagree on {}",
                op.mnemonic()
            );
        }
        assert_eq!(table.len(), FUSION_RULES.len(), "no duplicate mnemonics");
    }

    #[test]
    fn interned_names_are_pointer_stable() {
        let a = intern_name("fused:test+name".to_string());
        let b = intern_name("fused:test+name".to_string());
        assert!(std::ptr::eq(a, b));
    }
}
