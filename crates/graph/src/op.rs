//! Graph operations and their shape inference.

use crate::{GraphError, Result};
use tbd_tensor::ops::{conv2d_output_hw, Conv2dConfig, Pool2dConfig};
use tbd_tensor::Shape;

/// A single dataflow-graph operation.
///
/// The set mirrors what the paper's workloads dispatch: GEMMs (dense,
/// recurrent and attention layers), convolutions, normalisations, poolings,
/// element-wise math, embedding lookups and classification losses. Layer
/// types the paper calls out (LSTM cells, attention) are *compositions* of
/// these primitives, exactly as the frameworks lower them to cuDNN/cuBLAS
/// calls.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// External input fed at run time.
    Input {
        /// Feed name.
        name: String,
    },
    /// Trainable parameter (weights / biases / norm scales).
    Parameter {
        /// Parameter name (unique within a graph).
        name: String,
    },
    /// Dense matrix product `[m,k] · [k,n] → [m,n]`.
    MatMul,
    /// Batched matrix product `[b,m,k] · [b,k,n] → [b,m,n]`.
    BatchMatMul,
    /// Matrix transpose `[m,n] → [n,m]`.
    Transpose,
    /// Batched transpose of the last two axes.
    BatchTranspose,
    /// Broadcasts a `[n]` bias over the rows of `[m,n]`.
    AddBias,
    /// Element-wise sum of two equal-shape tensors.
    Add,
    /// Element-wise difference.
    Sub,
    /// Element-wise product.
    Mul,
    /// Multiplication by a compile-time scalar.
    Scale(f32),
    /// Addition of a compile-time scalar.
    AddScalar(f32),
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(f32),
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// 2-D convolution (inputs: activations, filter).
    Conv2d(Conv2dConfig),
    /// 2-D max pooling.
    MaxPool(Pool2dConfig),
    /// 2-D average pooling.
    AvgPool(Pool2dConfig),
    /// Global average pooling `[n,c,h,w] → [n,c]`.
    GlobalAvgPool,
    /// Nearest-neighbour 2× spatial upsampling (GAN generators).
    Upsample2x,
    /// Batch normalisation (inputs: x, gamma, beta).
    BatchNorm {
        /// Variance floor.
        eps: f32,
    },
    /// Layer normalisation over the last axis (inputs: x, gamma, beta).
    LayerNorm {
        /// Variance floor.
        eps: f32,
    },
    /// Row-wise softmax on `[rows, classes]`.
    Softmax,
    /// Fused softmax-cross-entropy loss (inputs: logits, targets) → scalar.
    CrossEntropy,
    /// Embedding lookup (inputs: table `[v,d]`, ids `[n]`) → `[n,d]`.
    Embedding,
    /// Reinterprets the buffer under a new shape.
    Reshape(Shape),
    /// Concatenation of all inputs along an axis.
    Concat {
        /// Axis along which inputs are joined.
        axis: usize,
    },
    /// Extracts columns `[start, start+len)` of a rank-2 tensor.
    SliceCols {
        /// First column.
        start: usize,
        /// Number of columns.
        len: usize,
    },
    /// Extracts rows `[start, start+len)` of a rank-2 tensor.
    SliceRows {
        /// First row.
        start: usize,
        /// Number of rows.
        len: usize,
    },
    /// Permutes the axes of a rank-3 tensor.
    Permute3([usize; 3]),
    /// Mean of all elements → scalar.
    MeanAll,
    /// Sum of all elements → scalar.
    SumAll,
    /// Inverted dropout (identity in evaluation mode).
    Dropout {
        /// Drop probability.
        p: f32,
    },
}

impl Op {
    /// Short stable mnemonic used in traces and kernel tables.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Input { .. } => "input",
            Op::Parameter { .. } => "param",
            Op::MatMul => "matmul",
            Op::BatchMatMul => "batch_matmul",
            Op::Transpose => "transpose",
            Op::BatchTranspose => "batch_transpose",
            Op::AddBias => "bias",
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Mul => "mul",
            Op::Scale(_) => "scale",
            Op::AddScalar(_) => "add_scalar",
            Op::Relu => "relu",
            Op::LeakyRelu(_) => "leaky_relu",
            Op::Sigmoid => "sigmoid",
            Op::Tanh => "tanh",
            Op::Conv2d(_) => "conv2d",
            Op::MaxPool(_) => "max_pool",
            Op::AvgPool(_) => "avg_pool",
            Op::GlobalAvgPool => "global_avg_pool",
            Op::Upsample2x => "upsample",
            Op::BatchNorm { .. } => "batch_norm",
            Op::LayerNorm { .. } => "layer_norm",
            Op::Softmax => "softmax",
            Op::CrossEntropy => "cross_entropy",
            Op::Embedding => "embedding",
            Op::Reshape(_) => "reshape",
            Op::Concat { .. } => "concat",
            Op::SliceCols { .. } => "slice",
            Op::SliceRows { .. } => "slice",
            Op::Permute3(_) => "permute",
            Op::MeanAll => "mean",
            Op::SumAll => "sum",
            Op::Dropout { .. } => "dropout",
        }
    }

    /// Number of inputs the op requires, or `None` for variadic ops.
    pub fn arity(&self) -> Option<usize> {
        match self {
            Op::Input { .. } | Op::Parameter { .. } => Some(0),
            Op::Concat { .. } => None,
            Op::MatMul
            | Op::BatchMatMul
            | Op::AddBias
            | Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Conv2d(_)
            | Op::CrossEntropy
            | Op::Embedding => Some(2),
            Op::BatchNorm { .. } | Op::LayerNorm { .. } => Some(3),
            _ => Some(1),
        }
    }

    /// Infers the output shape from the input shapes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Arity`] for a wrong input count and
    /// [`GraphError::Tensor`] when the shapes cannot be combined.
    pub fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        if let Some(arity) = self.arity() {
            if inputs.len() != arity {
                return Err(GraphError::Arity {
                    op: self.mnemonic(),
                    expected: arity,
                    actual: inputs.len(),
                });
            }
        }
        let mismatch = |lhs: &Shape, rhs: &Shape| {
            GraphError::Tensor(tbd_tensor::TensorError::ShapeMismatch {
                op: "infer_shape",
                lhs: lhs.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            })
        };
        let rank_err = |expected: usize, actual: usize| {
            GraphError::Tensor(tbd_tensor::TensorError::RankMismatch {
                op: "infer_shape",
                expected,
                actual,
            })
        };
        match self {
            Op::Input { .. } | Op::Parameter { .. } => unreachable!("leaf shapes are declared"),
            Op::MatMul => {
                let (a, b) = (inputs[0], inputs[1]);
                if a.rank() != 2 || b.rank() != 2 {
                    return Err(rank_err(2, a.rank().max(b.rank())));
                }
                if a.dim(1) != b.dim(0) {
                    return Err(mismatch(a, b));
                }
                Ok(Shape::new(&[a.dim(0), b.dim(1)]))
            }
            Op::BatchMatMul => {
                let (a, b) = (inputs[0], inputs[1]);
                if a.rank() != 3 || b.rank() != 3 {
                    return Err(rank_err(3, a.rank().max(b.rank())));
                }
                if a.dim(0) != b.dim(0) || a.dim(2) != b.dim(1) {
                    return Err(mismatch(a, b));
                }
                Ok(Shape::new(&[a.dim(0), a.dim(1), b.dim(2)]))
            }
            Op::Transpose => {
                let a = inputs[0];
                if a.rank() != 2 {
                    return Err(rank_err(2, a.rank()));
                }
                Ok(Shape::new(&[a.dim(1), a.dim(0)]))
            }
            Op::BatchTranspose => {
                let a = inputs[0];
                if a.rank() != 3 {
                    return Err(rank_err(3, a.rank()));
                }
                Ok(Shape::new(&[a.dim(0), a.dim(2), a.dim(1)]))
            }
            Op::AddBias => {
                let (a, b) = (inputs[0], inputs[1]);
                if a.rank() != 2 {
                    return Err(rank_err(2, a.rank()));
                }
                if b.len() != a.dim(1) {
                    return Err(mismatch(a, b));
                }
                Ok(a.clone())
            }
            Op::Add | Op::Sub | Op::Mul => {
                if inputs[0] != inputs[1] {
                    return Err(mismatch(inputs[0], inputs[1]));
                }
                Ok(inputs[0].clone())
            }
            Op::Scale(_)
            | Op::AddScalar(_)
            | Op::Relu
            | Op::LeakyRelu(_)
            | Op::Sigmoid
            | Op::Tanh
            | Op::Dropout { .. }
            | Op::Softmax => Ok(inputs[0].clone()),
            Op::Conv2d(cfg) => {
                let (x, w) = (inputs[0], inputs[1]);
                if x.rank() != 4 || w.rank() != 4 {
                    return Err(rank_err(4, x.rank().max(w.rank())));
                }
                if x.dim(1) != w.dim(1) {
                    return Err(mismatch(x, w));
                }
                let (oh, ow) = conv2d_output_hw(x.dim(2), x.dim(3), w.dim(2), w.dim(3), *cfg)
                    .ok_or_else(|| {
                        GraphError::Tensor(tbd_tensor::TensorError::InvalidArgument {
                            op: "conv2d",
                            reason: "kernel larger than padded input".to_string(),
                        })
                    })?;
                Ok(Shape::new(&[x.dim(0), w.dim(0), oh, ow]))
            }
            Op::MaxPool(cfg) | Op::AvgPool(cfg) => {
                let x = inputs[0];
                if x.rank() != 4 {
                    return Err(rank_err(4, x.rank()));
                }
                let conv_cfg =
                    Conv2dConfig { stride: cfg.stride, pad_h: cfg.padding, pad_w: cfg.padding };
                let (oh, ow) =
                    conv2d_output_hw(x.dim(2), x.dim(3), cfg.kernel, cfg.kernel, conv_cfg)
                        .ok_or_else(|| {
                            GraphError::Tensor(tbd_tensor::TensorError::InvalidArgument {
                                op: "pool2d",
                                reason: "window larger than padded input".to_string(),
                            })
                        })?;
                Ok(Shape::new(&[x.dim(0), x.dim(1), oh, ow]))
            }
            Op::GlobalAvgPool => {
                let x = inputs[0];
                if x.rank() != 4 {
                    return Err(rank_err(4, x.rank()));
                }
                Ok(Shape::new(&[x.dim(0), x.dim(1)]))
            }
            Op::Upsample2x => {
                let x = inputs[0];
                if x.rank() != 4 {
                    return Err(rank_err(4, x.rank()));
                }
                Ok(Shape::new(&[x.dim(0), x.dim(1), 2 * x.dim(2), 2 * x.dim(3)]))
            }
            Op::BatchNorm { .. } => {
                let x = inputs[0];
                if x.rank() != 4 {
                    return Err(rank_err(4, x.rank()));
                }
                if inputs[1].len() != x.dim(1) || inputs[2].len() != x.dim(1) {
                    return Err(mismatch(x, inputs[1]));
                }
                Ok(x.clone())
            }
            Op::LayerNorm { .. } => {
                let x = inputs[0];
                if x.rank() != 2 {
                    return Err(rank_err(2, x.rank()));
                }
                if inputs[1].len() != x.dim(1) || inputs[2].len() != x.dim(1) {
                    return Err(mismatch(x, inputs[1]));
                }
                Ok(x.clone())
            }
            Op::CrossEntropy => {
                let (logits, targets) = (inputs[0], inputs[1]);
                if logits.rank() != 2 {
                    return Err(rank_err(2, logits.rank()));
                }
                if targets.len() != logits.dim(0) {
                    return Err(mismatch(logits, targets));
                }
                Ok(Shape::scalar())
            }
            Op::Embedding => {
                let (table, ids) = (inputs[0], inputs[1]);
                if table.rank() != 2 {
                    return Err(rank_err(2, table.rank()));
                }
                Ok(Shape::new(&[ids.len(), table.dim(1)]))
            }
            Op::Reshape(target) => {
                crate::graph::check_shape(target)?;
                if target.len() != inputs[0].len() {
                    return Err(mismatch(inputs[0], target));
                }
                Ok(target.clone())
            }
            Op::Concat { axis } => {
                let first = inputs.first().ok_or(GraphError::Arity {
                    op: "concat",
                    expected: 1,
                    actual: 0,
                })?;
                if *axis >= first.rank() {
                    return Err(rank_err(*axis + 1, first.rank()));
                }
                let mut total = 0;
                for s in inputs {
                    if s.rank() != first.rank() {
                        return Err(rank_err(first.rank(), s.rank()));
                    }
                    for d in 0..s.rank() {
                        if d != *axis && s.dim(d) != first.dim(d) {
                            return Err(mismatch(first, s));
                        }
                    }
                    total += s.dim(*axis);
                }
                let mut dims = first.dims().to_vec();
                dims[*axis] = total;
                Ok(Shape::new(&dims))
            }
            Op::SliceCols { start, len } => {
                let x = inputs[0];
                if x.rank() != 2 {
                    return Err(rank_err(2, x.rank()));
                }
                if start + len > x.dim(1) {
                    return Err(GraphError::Tensor(tbd_tensor::TensorError::IndexOutOfRange {
                        op: "slice_cols",
                        index: start + len,
                        bound: x.dim(1) + 1,
                    }));
                }
                Ok(Shape::new(&[x.dim(0), *len]))
            }
            Op::SliceRows { start, len } => {
                let x = inputs[0];
                if x.rank() != 2 {
                    return Err(rank_err(2, x.rank()));
                }
                if start + len > x.dim(0) {
                    return Err(GraphError::Tensor(tbd_tensor::TensorError::IndexOutOfRange {
                        op: "slice_rows",
                        index: start + len,
                        bound: x.dim(0) + 1,
                    }));
                }
                Ok(Shape::new(&[*len, x.dim(1)]))
            }
            Op::Permute3(perm) => {
                let x = inputs[0];
                if x.rank() != 3 {
                    return Err(rank_err(3, x.rank()));
                }
                let mut seen = [false; 3];
                for &p in perm {
                    if p > 2 || seen[p] {
                        return Err(GraphError::Tensor(tbd_tensor::TensorError::InvalidArgument {
                            op: "permute3",
                            reason: format!("{perm:?} is not a permutation"),
                        }));
                    }
                    seen[p] = true;
                }
                Ok(Shape::new(&[x.dim(perm[0]), x.dim(perm[1]), x.dim(perm[2])]))
            }
            Op::MeanAll | Op::SumAll => Ok(Shape::scalar()),
        }
    }

    /// Returns `true` when the op's `input_index`-th operand is
    /// differentiable (class ids and embedding ids are not).
    pub fn input_differentiable(&self, input_index: usize) -> bool {
        match self {
            Op::CrossEntropy => input_index == 0,
            Op::Embedding => input_index == 0,
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(d: &[usize]) -> Shape {
        Shape::new(d)
    }

    #[test]
    fn matmul_shapes() {
        let out = Op::MatMul.infer_shape(&[&s(&[2, 3]), &s(&[3, 5])]).unwrap();
        assert_eq!(out, s(&[2, 5]));
        assert!(Op::MatMul.infer_shape(&[&s(&[2, 3]), &s(&[4, 5])]).is_err());
        assert!(Op::MatMul.infer_shape(&[&s(&[2, 3])]).is_err());
    }

    #[test]
    fn conv_shapes_match_resnet_stem() {
        // ResNet-50 stem: 7x7/2 pad 3 on 224x224 -> 112x112.
        let cfg = Conv2dConfig::new(2, 3);
        let out =
            Op::Conv2d(cfg).infer_shape(&[&s(&[32, 3, 224, 224]), &s(&[64, 3, 7, 7])]).unwrap();
        assert_eq!(out, s(&[32, 64, 112, 112]));
    }

    #[test]
    fn pooling_and_gap() {
        let cfg = Pool2dConfig::new(3, 2, 1);
        let out = Op::MaxPool(cfg).infer_shape(&[&s(&[1, 64, 112, 112])]).unwrap();
        assert_eq!(out, s(&[1, 64, 56, 56]));
        assert_eq!(Op::GlobalAvgPool.infer_shape(&[&s(&[4, 2048, 7, 7])]).unwrap(), s(&[4, 2048]));
    }

    #[test]
    fn concat_channel_axis() {
        let out = Op::Concat { axis: 1 }
            .infer_shape(&[&s(&[2, 64, 35, 35]), &s(&[2, 32, 35, 35])])
            .unwrap();
        assert_eq!(out, s(&[2, 96, 35, 35]));
        assert!(Op::Concat { axis: 1 }
            .infer_shape(&[&s(&[2, 64, 35, 35]), &s(&[2, 32, 17, 17])])
            .is_err());
    }

    #[test]
    fn losses_are_scalar() {
        assert_eq!(
            Op::CrossEntropy.infer_shape(&[&s(&[8, 10]), &s(&[8])]).unwrap(),
            Shape::scalar()
        );
        assert_eq!(Op::MeanAll.infer_shape(&[&s(&[3, 3])]).unwrap(), Shape::scalar());
    }

    #[test]
    fn non_differentiable_inputs() {
        assert!(Op::CrossEntropy.input_differentiable(0));
        assert!(!Op::CrossEntropy.input_differentiable(1));
        assert!(!Op::Embedding.input_differentiable(1));
        assert!(Op::Add.input_differentiable(1));
    }

    #[test]
    fn slice_and_reshape() {
        assert_eq!(
            Op::SliceCols { start: 2, len: 3 }.infer_shape(&[&s(&[4, 8])]).unwrap(),
            s(&[4, 3])
        );
        assert!(Op::SliceCols { start: 6, len: 3 }.infer_shape(&[&s(&[4, 8])]).is_err());
        assert_eq!(Op::Reshape(s(&[2, 6])).infer_shape(&[&s(&[3, 4])]).unwrap(), s(&[2, 6]));
        assert!(Op::Reshape(s(&[2, 5])).infer_shape(&[&s(&[3, 4])]).is_err());
    }
}
