//! Graph construction and topology.

use crate::{GraphError, Op, Result};
use tbd_tensor::ops::{Conv2dConfig, Pool2dConfig};
use tbd_tensor::Shape;

/// Identifier of a node within its [`Graph`].
///
/// Node ids are indices into the graph's node list; because the builder only
/// lets a node consume already-created nodes, ascending id order *is* a
/// topological order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Index of the node inside the graph's node list.
    pub fn index(self) -> usize {
        self.0
    }

    /// Creates a raw id from an index.
    ///
    /// Intended for synthetic kernel streams (simulators, tests); an id made
    /// this way is only meaningful against a graph that actually has that
    /// many nodes.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Parameter initialisation scheme, materialised by
/// [`Session::new`](crate::Session::new).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// All zeros (biases, norm shifts).
    Zeros,
    /// All ones (norm scales).
    Ones,
    /// Constant fill.
    Constant(f32),
    /// Xavier/Glorot uniform.
    Xavier {
        /// Fan-in of the layer.
        fan_in: usize,
        /// Fan-out of the layer.
        fan_out: usize,
    },
    /// He/Kaiming normal (ReLU networks).
    He {
        /// Fan-in of the layer.
        fan_in: usize,
    },
    /// Uniform in `[lo, hi)`.
    Uniform {
        /// Lower bound.
        lo: f32,
        /// Upper bound.
        hi: f32,
    },
}

/// One node of a dataflow graph: an operation, its inputs and its inferred
/// output shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operation this node performs.
    pub op: Op,
    /// Ids of the nodes whose outputs feed this node.
    pub inputs: Vec<NodeId>,
    /// Inferred output shape.
    pub shape: Shape,
}

/// An immutable, shape-inferred dataflow graph in topological order.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    params: Vec<(NodeId, Init)>,
    inputs: Vec<NodeId>,
}

impl Graph {
    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node behind `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Trainable parameters with their initialisers, in creation order.
    pub fn params(&self) -> &[(NodeId, Init)] {
        &self.params
    }

    /// Input (feed) nodes in creation order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Total trainable parameter count (elements, not bytes).
    pub fn param_count(&self) -> usize {
        self.params.iter().map(|(id, _)| self.nodes[id.0].shape.len()).sum()
    }

    /// Ids of nodes that require gradients: parameters and everything that
    /// (transitively) consumes one through a differentiable edge.
    pub fn requires_grad(&self) -> Vec<bool> {
        let mut needs = vec![false; self.nodes.len()];
        for (id, _) in &self.params {
            needs[id.0] = true;
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if needs[i] {
                continue;
            }
            needs[i] = node
                .inputs
                .iter()
                .enumerate()
                .any(|(k, inp)| node.op.input_differentiable(k) && needs[inp.0]);
        }
        needs
    }
}

/// `Ok` when `shape`'s `f32` byte length fits `usize`.
///
/// # Errors
///
/// Returns [`GraphError::ShapeOverflow`] naming the extents otherwise.
pub fn check_shape(shape: &Shape) -> Result<()> {
    match shape.checked_byte_len() {
        Some(_) => Ok(()),
        None => Err(GraphError::ShapeOverflow(shape.dims().to_vec())),
    }
}

/// Incremental builder for [`Graph`].
///
/// Every op method performs shape inference eagerly, so a malformed model
/// fails at construction time with a precise error rather than at run time.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    graph: Graph,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    fn push(&mut self, op: Op, inputs: Vec<NodeId>) -> Result<NodeId> {
        for id in &inputs {
            if id.0 >= self.graph.nodes.len() {
                return Err(GraphError::UnknownNode(id.0));
            }
        }
        let shapes: Vec<&Shape> = inputs.iter().map(|id| &self.graph.nodes[id.0].shape).collect();
        // Shape inference multiplies extents; refuse any that would wrap.
        for shape in &shapes {
            check_shape(shape)?;
        }
        let shape = op.infer_shape(&shapes)?;
        check_shape(&shape)?;
        self.graph.nodes.push(Node { op, inputs, shape });
        Ok(NodeId(self.graph.nodes.len() - 1))
    }

    /// Declares an external input with the given feed name and shape.
    pub fn input<S: Into<Shape>>(&mut self, name: &str, shape: S) -> NodeId {
        let shape = shape.into();
        self.graph.nodes.push(Node {
            op: Op::Input { name: name.to_string() },
            inputs: Vec::new(),
            shape,
        });
        let id = NodeId(self.graph.nodes.len() - 1);
        self.graph.inputs.push(id);
        id
    }

    /// Declares a trainable parameter.
    pub fn parameter<S: Into<Shape>>(&mut self, name: &str, shape: S, init: Init) -> NodeId {
        let shape = shape.into();
        self.graph.nodes.push(Node {
            op: Op::Parameter { name: name.to_string() },
            inputs: Vec::new(),
            shape,
        });
        let id = NodeId(self.graph.nodes.len() - 1);
        self.graph.params.push((id, init));
        id
    }

    /// Dense matrix product.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the inner dimensions disagree.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        self.push(Op::MatMul, vec![a, b])
    }

    /// Batched matrix product over rank-3 operands.
    ///
    /// # Errors
    ///
    /// Returns a shape error when batch or inner dimensions disagree.
    pub fn batch_matmul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        self.push(Op::BatchMatMul, vec![a, b])
    }

    /// Matrix transpose.
    ///
    /// # Errors
    ///
    /// Returns a rank error unless the input is rank 2.
    pub fn transpose(&mut self, a: NodeId) -> Result<NodeId> {
        self.push(Op::Transpose, vec![a])
    }

    /// Batched transpose of the last two axes.
    ///
    /// # Errors
    ///
    /// Returns a rank error unless the input is rank 3.
    pub fn batch_transpose(&mut self, a: NodeId) -> Result<NodeId> {
        self.push(Op::BatchTranspose, vec![a])
    }

    /// Adds a bias vector to every row.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the bias width disagrees.
    pub fn add_bias(&mut self, x: NodeId, bias: NodeId) -> Result<NodeId> {
        self.push(Op::AddBias, vec![x, bias])
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the operand shapes differ.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        self.push(Op::Add, vec![a, b])
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the operand shapes differ.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        self.push(Op::Sub, vec![a, b])
    }

    /// Element-wise product.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the operand shapes differ.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        self.push(Op::Mul, vec![a, b])
    }

    /// Multiplies by a compile-time scalar.
    ///
    /// # Errors
    ///
    /// Never fails for valid node ids; returns [`GraphError::UnknownNode`]
    /// otherwise.
    pub fn scale(&mut self, a: NodeId, s: f32) -> Result<NodeId> {
        self.push(Op::Scale(s), vec![a])
    }

    /// Adds a compile-time scalar.
    ///
    /// # Errors
    ///
    /// Never fails for valid node ids; returns [`GraphError::UnknownNode`]
    /// otherwise.
    pub fn add_scalar(&mut self, a: NodeId, s: f32) -> Result<NodeId> {
        self.push(Op::AddScalar(s), vec![a])
    }

    /// Rectified linear unit.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] for a foreign id.
    pub fn relu(&mut self, a: NodeId) -> Result<NodeId> {
        self.push(Op::Relu, vec![a])
    }

    /// Leaky ReLU.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] for a foreign id.
    pub fn leaky_relu(&mut self, a: NodeId, alpha: f32) -> Result<NodeId> {
        self.push(Op::LeakyRelu(alpha), vec![a])
    }

    /// Logistic sigmoid.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] for a foreign id.
    pub fn sigmoid(&mut self, a: NodeId) -> Result<NodeId> {
        self.push(Op::Sigmoid, vec![a])
    }

    /// Hyperbolic tangent.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] for a foreign id.
    pub fn tanh(&mut self, a: NodeId) -> Result<NodeId> {
        self.push(Op::Tanh, vec![a])
    }

    /// 2-D convolution of `x` with `filter`.
    ///
    /// # Errors
    ///
    /// Returns shape errors for malformed operands.
    pub fn conv2d(&mut self, x: NodeId, filter: NodeId, cfg: Conv2dConfig) -> Result<NodeId> {
        self.push(Op::Conv2d(cfg), vec![x, filter])
    }

    /// 2-D max pooling.
    ///
    /// # Errors
    ///
    /// Returns shape errors for malformed operands.
    pub fn max_pool(&mut self, x: NodeId, cfg: Pool2dConfig) -> Result<NodeId> {
        self.push(Op::MaxPool(cfg), vec![x])
    }

    /// 2-D average pooling.
    ///
    /// # Errors
    ///
    /// Returns shape errors for malformed operands.
    pub fn avg_pool(&mut self, x: NodeId, cfg: Pool2dConfig) -> Result<NodeId> {
        self.push(Op::AvgPool(cfg), vec![x])
    }

    /// Global average pooling.
    ///
    /// # Errors
    ///
    /// Returns a rank error unless the input is rank 4.
    pub fn global_avg_pool(&mut self, x: NodeId) -> Result<NodeId> {
        self.push(Op::GlobalAvgPool, vec![x])
    }

    /// Nearest-neighbour 2× spatial upsampling.
    ///
    /// # Errors
    ///
    /// Returns a rank error unless the input is rank 4.
    pub fn upsample2x(&mut self, x: NodeId) -> Result<NodeId> {
        self.push(Op::Upsample2x, vec![x])
    }

    /// Batch normalisation with scale `gamma` and shift `beta`.
    ///
    /// # Errors
    ///
    /// Returns shape errors for malformed operands.
    pub fn batch_norm(
        &mut self,
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        eps: f32,
    ) -> Result<NodeId> {
        self.push(Op::BatchNorm { eps }, vec![x, gamma, beta])
    }

    /// Layer normalisation over the last axis.
    ///
    /// # Errors
    ///
    /// Returns shape errors for malformed operands.
    pub fn layer_norm(
        &mut self,
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        eps: f32,
    ) -> Result<NodeId> {
        self.push(Op::LayerNorm { eps }, vec![x, gamma, beta])
    }

    /// Row-wise softmax.
    ///
    /// # Errors
    ///
    /// Returns a rank error unless the input is rank 2.
    pub fn softmax(&mut self, x: NodeId) -> Result<NodeId> {
        self.push(Op::Softmax, vec![x])
    }

    /// Fused softmax-cross-entropy loss against integer targets.
    ///
    /// # Errors
    ///
    /// Returns shape errors for malformed operands.
    pub fn cross_entropy(&mut self, logits: NodeId, targets: NodeId) -> Result<NodeId> {
        self.push(Op::CrossEntropy, vec![logits, targets])
    }

    /// Embedding lookup of `ids` in `table`.
    ///
    /// # Errors
    ///
    /// Returns shape errors for malformed operands.
    pub fn embedding(&mut self, table: NodeId, ids: NodeId) -> Result<NodeId> {
        self.push(Op::Embedding, vec![table, ids])
    }

    /// Reshapes without moving data.
    ///
    /// # Errors
    ///
    /// Returns a shape error when element counts differ.
    pub fn reshape<S: Into<Shape>>(&mut self, x: NodeId, shape: S) -> Result<NodeId> {
        self.push(Op::Reshape(shape.into()), vec![x])
    }

    /// Concatenates `inputs` along `axis`.
    ///
    /// # Errors
    ///
    /// Returns shape errors for malformed operands.
    pub fn concat(&mut self, inputs: &[NodeId], axis: usize) -> Result<NodeId> {
        self.push(Op::Concat { axis }, inputs.to_vec())
    }

    /// Extracts columns `[start, start+len)`.
    ///
    /// # Errors
    ///
    /// Returns shape errors for malformed operands.
    pub fn slice_cols(&mut self, x: NodeId, start: usize, len: usize) -> Result<NodeId> {
        self.push(Op::SliceCols { start, len }, vec![x])
    }

    /// Extracts rows `[start, start+len)`.
    ///
    /// # Errors
    ///
    /// Returns shape errors for malformed operands.
    pub fn slice_rows(&mut self, x: NodeId, start: usize, len: usize) -> Result<NodeId> {
        self.push(Op::SliceRows { start, len }, vec![x])
    }

    /// Permutes the axes of a rank-3 tensor.
    ///
    /// # Errors
    ///
    /// Returns shape errors for malformed operands.
    pub fn permute3(&mut self, x: NodeId, perm: [usize; 3]) -> Result<NodeId> {
        self.push(Op::Permute3(perm), vec![x])
    }

    /// Mean of all elements.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] for a foreign id.
    pub fn mean_all(&mut self, x: NodeId) -> Result<NodeId> {
        self.push(Op::MeanAll, vec![x])
    }

    /// Sum of all elements.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] for a foreign id.
    pub fn sum_all(&mut self, x: NodeId) -> Result<NodeId> {
        self.push(Op::SumAll, vec![x])
    }

    /// Inverted dropout with drop probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] for a foreign id.
    pub fn dropout(&mut self, x: NodeId, p: f32) -> Result<NodeId> {
        self.push(Op::Dropout { p }, vec![x])
    }

    /// Shape of an already-created node.
    pub fn shape(&self, id: NodeId) -> &Shape {
        &self.graph.nodes[id.0].shape
    }

    /// Finalises the graph.
    pub fn finish(self) -> Graph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_topological_order() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [2, 3]);
        let w = g.parameter("w", [3, 4], Init::Zeros);
        let y = g.matmul(x, w).unwrap();
        let z = g.relu(y).unwrap();
        let graph = g.finish();
        assert_eq!(graph.len(), 4);
        for (i, node) in graph.nodes().iter().enumerate() {
            for input in &node.inputs {
                assert!(input.index() < i, "inputs must precede consumers");
            }
        }
        assert_eq!(graph.node(z).shape.dims(), &[2, 4]);
    }

    #[test]
    fn param_count_sums_elements() {
        let mut g = GraphBuilder::new();
        g.parameter("a", [3, 4], Init::Zeros);
        g.parameter("b", [5], Init::Ones);
        assert_eq!(g.finish().param_count(), 17);
    }

    #[test]
    fn requires_grad_propagates() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [2, 3]);
        let w = g.parameter("w", [3, 4], Init::Zeros);
        let y = g.matmul(x, w).unwrap();
        let t = g.input("t", [2]);
        let loss = g.cross_entropy(y, t).unwrap();
        let graph = g.finish();
        let needs = graph.requires_grad();
        assert!(!needs[x.index()], "plain inputs do not require grad");
        assert!(needs[w.index()]);
        assert!(needs[y.index()]);
        assert!(needs[loss.index()]);
        assert!(!needs[t.index()], "targets are not differentiable");
    }

    #[test]
    fn builder_rejects_shape_errors_eagerly() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [2, 3]);
        let w = g.parameter("w", [5, 4], Init::Zeros);
        assert!(g.matmul(x, w).is_err());
    }

    #[test]
    fn foreign_node_ids_are_rejected() {
        let mut g1 = GraphBuilder::new();
        let _ = g1.input("x", [2, 2]);
        let mut g2 = GraphBuilder::new();
        let bogus = NodeId(17);
        assert_eq!(g2.relu(bogus), Err(GraphError::UnknownNode(17)));
    }

    #[test]
    fn display_of_node_id() {
        assert_eq!(NodeId(3).to_string(), "n3");
    }
}

impl Graph {
    /// Returns a pruned copy keeping only the nodes that `outputs`
    /// (transitively) depend on, with ids remapped; the second return maps
    /// old ids to new ones.
    ///
    /// Model builders often create auxiliary heads (extra losses,
    /// diagnostic outputs) that a given experiment does not use; pruning
    /// removes their cost from lowering and memory accounting.
    pub fn prune(&self, outputs: &[NodeId]) -> (Graph, Vec<Option<NodeId>>) {
        let mut keep = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = outputs.iter().map(|id| id.0).collect();
        while let Some(i) = stack.pop() {
            if keep[i] {
                continue;
            }
            keep[i] = true;
            for input in &self.nodes[i].inputs {
                stack.push(input.0);
            }
        }
        let mut mapping: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut nodes = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if !keep[i] {
                continue;
            }
            let inputs = node
                .inputs
                .iter()
                .map(|id| mapping[id.0].expect("inputs precede consumers"))
                .collect();
            mapping[i] = Some(NodeId(nodes.len()));
            nodes.push(Node { op: node.op.clone(), inputs, shape: node.shape.clone() });
        }
        let params = self
            .params
            .iter()
            .filter_map(|(id, init)| mapping[id.0].map(|new| (new, *init)))
            .collect();
        let inputs = self.inputs.iter().filter_map(|id| mapping[id.0]).collect();
        (Graph { nodes, params, inputs }, mapping)
    }
}

#[cfg(test)]
mod prune_tests {
    use super::*;

    #[test]
    fn pruning_drops_unused_branches() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [2, 3]);
        let w1 = g.parameter("w1", [3, 4], Init::Zeros);
        let used = g.matmul(x, w1).unwrap();
        let kept = g.relu(used).unwrap();
        // A dead diagnostic branch.
        let w2 = g.parameter("w2", [3, 8], Init::Zeros);
        let dead = g.matmul(x, w2).unwrap();
        let _dead2 = g.tanh(dead).unwrap();
        let graph = g.finish();
        let (pruned, mapping) = graph.prune(&[kept]);
        assert_eq!(pruned.len(), 4, "x, w1, matmul, relu survive");
        assert_eq!(pruned.params().len(), 1);
        assert!(mapping[w2.index()].is_none(), "dead parameter removed");
        let new_kept = mapping[kept.index()].unwrap();
        assert_eq!(pruned.node(new_kept).shape.dims(), &[2, 4]);
        // Pruned graph still executes.
        let mut session = crate::Session::new(pruned, 0);
        let new_x = mapping[x.index()].unwrap();
        let run = session.forward(&[(new_x, tbd_tensor::Tensor::ones([2, 3]))]).unwrap();
        assert!(run.value(new_kept).is_some());
    }

    #[test]
    fn pruning_to_all_outputs_is_identity_sized() {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [2]);
        let y = g.relu(x).unwrap();
        let graph = g.finish();
        let (pruned, _) = graph.prune(&[y]);
        assert_eq!(pruned.len(), graph.len());
    }
}
