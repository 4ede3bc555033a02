//! Reusable layer compositions on top of the graph builder.
//!
//! These mirror the layer vocabulary of the paper's workloads: dense
//! layers, conv+BN+ReLU stacks, residual bottlenecks, LSTM/GRU/RNN cells
//! (fused-gate formulation, lowered to two GEMMs plus element-wise kernels
//! per time step — exactly the kernel stream whose inefficiency the paper
//! analyses), Luong attention and Transformer blocks.

use tbd_graph::{GraphBuilder, GraphError, Init, NodeId, Result};
use tbd_tensor::ops::{Conv2dConfig, Pool2dConfig};

/// `a · b` as a tensor extent.
///
/// # Errors
///
/// Returns [`GraphError::ShapeOverflow`] when the product overflows
/// `usize` (an absurd batch size).
pub(crate) fn extent(a: usize, b: usize) -> Result<usize> {
    a.checked_mul(b).ok_or(GraphError::ShapeOverflow(vec![a, b]))
}
/// A [`GraphBuilder`] wrapper that adds hierarchical parameter naming.
#[derive(Debug, Default)]
pub struct NetBuilder {
    /// The underlying graph builder (accessible for raw ops).
    pub g: GraphBuilder,
    scope: Vec<String>,
    counter: usize,
}

impl NetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        NetBuilder::default()
    }

    /// Enters a naming scope for the duration of `f` (e.g. `"enc"`,
    /// `"block3"`).
    pub fn scoped<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.scope.push(name.to_string());
        let out = f(self);
        self.scope.pop();
        out
    }

    /// Produces a unique, scope-qualified parameter name.
    pub fn fresh(&mut self, name: &str) -> String {
        self.counter += 1;
        let mut full = self.scope.join("/");
        if !full.is_empty() {
            full.push('/');
        }
        full.push_str(name);
        full.push_str(&format!("_{}", self.counter));
        full
    }

    /// Fully-connected layer `y = x·W + b` with Xavier initialisation.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying ops.
    pub fn dense(&mut self, x: NodeId, in_dim: usize, out_dim: usize) -> Result<NodeId> {
        let wname = self.fresh("w");
        let w = self.g.parameter(
            &wname,
            [in_dim, out_dim],
            Init::Xavier { fan_in: in_dim, fan_out: out_dim },
        );
        let bname = self.fresh("b");
        let b = self.g.parameter(&bname, [out_dim], Init::Zeros);
        let h = self.g.matmul(x, w)?;
        self.g.add_bias(h, b)
    }

    /// Convolution without bias (bias is folded into the following batch
    /// norm, as all the paper's CNNs do).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying ops.
    pub fn conv(
        &mut self,
        x: NodeId,
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<NodeId> {
        self.conv_rect(x, in_c, out_c, (kernel, kernel), stride, padding)
    }

    /// Convolution with a rectangular kernel (Inception's 1×7 / 7×1
    /// factorisations). `padding` applies symmetrically; rectangular kernels
    /// get the padding they need to preserve spatial size when
    /// `padding == usize::MAX` is *not* used — callers pass explicit padding.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying ops.
    pub fn conv_rect(
        &mut self,
        x: NodeId,
        in_c: usize,
        out_c: usize,
        kernel: (usize, usize),
        stride: usize,
        padding: usize,
    ) -> Result<NodeId> {
        let fan_in = in_c * kernel.0 * kernel.1;
        let name = self.fresh("conv");
        let w = self.g.parameter(&name, [out_c, in_c, kernel.0, kernel.1], Init::He { fan_in });
        self.g.conv2d(x, w, Conv2dConfig::new(stride, padding))
    }

    /// Batch normalisation with learnable scale and shift.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying ops.
    pub fn batch_norm(&mut self, x: NodeId, channels: usize) -> Result<NodeId> {
        let gname = self.fresh("bn_gamma");
        let gamma = self.g.parameter(&gname, [channels], Init::Ones);
        let bname = self.fresh("bn_beta");
        let beta = self.g.parameter(&bname, [channels], Init::Zeros);
        self.g.batch_norm(x, gamma, beta, 1e-5)
    }

    /// The CNN workhorse: convolution → batch norm → ReLU.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying ops.
    pub fn conv_bn_relu(
        &mut self,
        x: NodeId,
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<NodeId> {
        let c = self.conv(x, in_c, out_c, kernel, stride, padding)?;
        let b = self.batch_norm(c, out_c)?;
        self.g.relu(b)
    }

    /// Rectangular-kernel conv+BN+ReLU with asymmetric padding
    /// `(pad_h, pad_w)` — Inception's 1×7/7×1 factorisations.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying ops.
    #[allow(clippy::too_many_arguments)]
    pub fn conv_rect_bn_relu(
        &mut self,
        x: NodeId,
        in_c: usize,
        out_c: usize,
        kernel: (usize, usize),
        stride: usize,
        pads: (usize, usize),
    ) -> Result<NodeId> {
        let fan_in = in_c * kernel.0 * kernel.1;
        let name = self.fresh("conv");
        let w = self.g.parameter(&name, [out_c, in_c, kernel.0, kernel.1], Init::He { fan_in });
        let c = self.g.conv2d(x, w, Conv2dConfig::with_pads(stride, pads.0, pads.1))?;
        let b = self.batch_norm(c, out_c)?;
        self.g.relu(b)
    }

    /// Layer normalisation with learnable scale and shift.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying ops.
    pub fn layer_norm(&mut self, x: NodeId, features: usize) -> Result<NodeId> {
        let gname = self.fresh("ln_gamma");
        let gamma = self.g.parameter(&gname, [features], Init::Ones);
        let bname = self.fresh("ln_beta");
        let beta = self.g.parameter(&bname, [features], Init::Zeros);
        self.g.layer_norm(x, gamma, beta, 1e-5)
    }

    /// Max pooling with a square window.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying ops.
    pub fn max_pool(
        &mut self,
        x: NodeId,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<NodeId> {
        self.g.max_pool(x, Pool2dConfig::new(kernel, stride, padding))
    }

    /// Average pooling with a square window.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying ops.
    pub fn avg_pool(
        &mut self,
        x: NodeId,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<NodeId> {
        self.g.avg_pool(x, Pool2dConfig::new(kernel, stride, padding))
    }
}

/// Parameters of one fused-gate LSTM layer.
#[derive(Debug, Clone, Copy)]
pub struct LstmParams {
    /// Input projection `[in, 4·hidden]`.
    pub wx: NodeId,
    /// Recurrent projection `[hidden, 4·hidden]`.
    pub wh: NodeId,
    /// Gate bias `[4·hidden]`.
    pub b: NodeId,
    /// Hidden width.
    pub hidden: usize,
}

/// Creates the parameters of an LSTM layer.
pub fn lstm_params(nb: &mut NetBuilder, input: usize, hidden: usize) -> LstmParams {
    let wx_name = nb.fresh("lstm_wx");
    let wx = nb.g.parameter(
        &wx_name,
        [input, 4 * hidden],
        Init::Xavier { fan_in: input, fan_out: 4 * hidden },
    );
    let wh_name = nb.fresh("lstm_wh");
    let wh = nb.g.parameter(
        &wh_name,
        [hidden, 4 * hidden],
        Init::Xavier { fan_in: hidden, fan_out: 4 * hidden },
    );
    let b_name = nb.fresh("lstm_b");
    let b = nb.g.parameter(&b_name, [4 * hidden], Init::Zeros);
    LstmParams { wx, wh, b, hidden }
}

/// One LSTM time step. Returns `(h, c)`.
///
/// Lowered to exactly the kernel stream real frameworks emit per step: two
/// GEMMs for the fused gates, then a chain of small element-wise kernels —
/// the structure behind the paper's Observation 5.
///
/// # Errors
///
/// Propagates shape errors from the underlying ops.
pub fn lstm_step(
    nb: &mut NetBuilder,
    p: &LstmParams,
    x: NodeId,
    h_prev: NodeId,
    c_prev: NodeId,
) -> Result<(NodeId, NodeId)> {
    let gx = nb.g.matmul(x, p.wx)?;
    let gh = nb.g.matmul(h_prev, p.wh)?;
    let gates = nb.g.add(gx, gh)?;
    let gates = nb.g.add_bias(gates, p.b)?;
    let h = p.hidden;
    let i = nb.g.slice_cols(gates, 0, h)?;
    let f = nb.g.slice_cols(gates, h, h)?;
    let o = nb.g.slice_cols(gates, 2 * h, h)?;
    let gcell = nb.g.slice_cols(gates, 3 * h, h)?;
    let i = nb.g.sigmoid(i)?;
    let f = nb.g.sigmoid(f)?;
    let o = nb.g.sigmoid(o)?;
    let gcell = nb.g.tanh(gcell)?;
    let fc = nb.g.mul(f, c_prev)?;
    let ig = nb.g.mul(i, gcell)?;
    let c = nb.g.add(fc, ig)?;
    let ct = nb.g.tanh(c)?;
    let h_out = nb.g.mul(o, ct)?;
    Ok((h_out, c))
}

/// Parameters of one vanilla (tanh) RNN layer, as in Deep Speech 2's
/// default MXNet configuration.
#[derive(Debug, Clone, Copy)]
pub struct RnnParams {
    /// Input projection `[in, hidden]`.
    pub wx: NodeId,
    /// Recurrent projection `[hidden, hidden]`.
    pub wh: NodeId,
    /// Bias `[hidden]`.
    pub b: NodeId,
}

/// Creates the parameters of a vanilla RNN layer.
pub fn rnn_params(nb: &mut NetBuilder, input: usize, hidden: usize) -> RnnParams {
    let wx_name = nb.fresh("rnn_wx");
    let wx =
        nb.g.parameter(&wx_name, [input, hidden], Init::Xavier { fan_in: input, fan_out: hidden });
    let wh_name = nb.fresh("rnn_wh");
    let wh = nb.g.parameter(
        &wh_name,
        [hidden, hidden],
        Init::Xavier { fan_in: hidden, fan_out: hidden },
    );
    let b_name = nb.fresh("rnn_b");
    let b = nb.g.parameter(&b_name, [hidden], Init::Zeros);
    RnnParams { wx, wh, b }
}

/// One vanilla RNN time step: `h = tanh(x·Wx + h_prev·Wh + b)`.
///
/// # Errors
///
/// Propagates shape errors from the underlying ops.
pub fn rnn_step(nb: &mut NetBuilder, p: &RnnParams, x: NodeId, h_prev: NodeId) -> Result<NodeId> {
    let gx = nb.g.matmul(x, p.wx)?;
    let gh = nb.g.matmul(h_prev, p.wh)?;
    let s = nb.g.add(gx, gh)?;
    let s = nb.g.add_bias(s, p.b)?;
    nb.g.tanh(s)
}

/// Luong-style dot-product attention.
///
/// `query` is `[batch, hidden]`; `keys` is `[batch, steps, hidden]`
/// (also used as values). Returns the context vector `[batch, hidden]`.
///
/// # Errors
///
/// Propagates shape errors from the underlying ops.
pub fn dot_attention(
    nb: &mut NetBuilder,
    query: NodeId,
    keys: NodeId,
    batch: usize,
    steps: usize,
    hidden: usize,
) -> Result<NodeId> {
    let q3 = nb.g.reshape(query, [batch, 1, hidden])?;
    let kt = nb.g.batch_transpose(keys)?; // [batch, hidden, steps]
    let scores = nb.g.batch_matmul(q3, kt)?; // [batch, 1, steps]
    let scores2 = nb.g.reshape(scores, [batch, steps])?;
    let scaled = nb.g.scale(scores2, 1.0 / (hidden as f32).sqrt())?;
    let attn = nb.g.softmax(scaled)?;
    let attn3 = nb.g.reshape(attn, [batch, 1, steps])?;
    let ctx = nb.g.batch_matmul(attn3, keys)?; // [batch, 1, hidden]
    nb.g.reshape(ctx, [batch, hidden])
}

/// Multi-head self/cross attention over `[batch·steps, d_model]` rows in
/// `(batch, step)` order. `kv` may equal `q_input` (self-attention) or come
/// from the encoder (cross-attention).
///
/// # Errors
///
/// Propagates shape errors from the underlying ops.
#[allow(clippy::too_many_arguments)]
pub fn multi_head_attention(
    nb: &mut NetBuilder,
    q_input: NodeId,
    kv_input: NodeId,
    batch: usize,
    q_steps: usize,
    kv_steps: usize,
    d_model: usize,
    heads: usize,
) -> Result<NodeId> {
    assert_eq!(d_model % heads, 0, "d_model must divide evenly into heads");
    let dh = d_model / heads;
    let q = nb.dense(q_input, d_model, d_model)?;
    let k = nb.dense(kv_input, d_model, d_model)?;
    let v = nb.dense(kv_input, d_model, d_model)?;
    let mut head_outputs = Vec::with_capacity(heads);
    for h in 0..heads {
        let qh = nb.g.slice_cols(q, h * dh, dh)?;
        let kh = nb.g.slice_cols(k, h * dh, dh)?;
        let vh = nb.g.slice_cols(v, h * dh, dh)?;
        let qh = nb.g.reshape(qh, [batch, q_steps, dh])?;
        let kh = nb.g.reshape(kh, [batch, kv_steps, dh])?;
        let vh = nb.g.reshape(vh, [batch, kv_steps, dh])?;
        let kt = nb.g.batch_transpose(kh)?;
        let scores = nb.g.batch_matmul(qh, kt)?; // [batch, q_steps, kv_steps]
        let rows = extent(batch, q_steps)?;
        let scores2 = nb.g.reshape(scores, [rows, kv_steps])?;
        let scaled = nb.g.scale(scores2, 1.0 / (dh as f32).sqrt())?;
        let attn = nb.g.softmax(scaled)?;
        let attn3 = nb.g.reshape(attn, [batch, q_steps, kv_steps])?;
        let ctx = nb.g.batch_matmul(attn3, vh)?; // [batch, q_steps, dh]
        let ctx2 = nb.g.reshape(ctx, [rows, dh])?;
        head_outputs.push(ctx2);
    }
    let merged = nb.g.concat(&head_outputs, 1)?;
    nb.dense(merged, d_model, d_model)
}

/// One Transformer sub-block: multi-head attention (or cross-attention) +
/// residual + layer norm, then a position-wise feed-forward + residual +
/// layer norm.
///
/// # Errors
///
/// Propagates shape errors from the underlying ops.
#[allow(clippy::too_many_arguments)]
pub fn transformer_block(
    nb: &mut NetBuilder,
    x: NodeId,
    cross_kv: Option<(NodeId, usize)>,
    batch: usize,
    steps: usize,
    d_model: usize,
    heads: usize,
    d_ff: usize,
) -> Result<NodeId> {
    // Self-attention sub-layer.
    let sa = multi_head_attention(nb, x, x, batch, steps, steps, d_model, heads)?;
    let x = nb.g.add(x, sa)?;
    let mut x = nb.layer_norm(x, d_model)?;
    // Optional encoder-decoder cross-attention sub-layer.
    if let Some((kv, kv_steps)) = cross_kv {
        let ca = multi_head_attention(nb, x, kv, batch, steps, kv_steps, d_model, heads)?;
        let summed = nb.g.add(x, ca)?;
        x = nb.layer_norm(summed, d_model)?;
    }
    // Position-wise feed-forward sub-layer.
    let ff1 = nb.dense(x, d_model, d_ff)?;
    let ff1 = nb.g.relu(ff1)?;
    let ff2 = nb.dense(ff1, d_ff, d_model)?;
    let x = nb.g.add(x, ff2)?;
    nb.layer_norm(x, d_model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_graph::Session;
    use tbd_tensor::Tensor;

    #[test]
    fn fresh_names_are_unique_and_scoped() {
        let mut nb = NetBuilder::new();
        let a = nb.fresh("w");
        let b = nb.scoped("enc", |nb| nb.fresh("w"));
        let c = nb.fresh("w");
        assert_ne!(a, c);
        assert!(b.starts_with("enc/w"));
    }

    #[test]
    fn dense_layer_shapes() {
        let mut nb = NetBuilder::new();
        let x = nb.g.input("x", [3, 4]);
        let y = nb.dense(x, 4, 7).unwrap();
        assert_eq!(nb.g.shape(y).dims(), &[3, 7]);
    }

    #[test]
    fn conv_bn_relu_halves_spatial_with_stride_2() {
        let mut nb = NetBuilder::new();
        let x = nb.g.input("x", [2, 3, 8, 8]);
        let y = nb.conv_bn_relu(x, 3, 16, 3, 2, 1).unwrap();
        assert_eq!(nb.g.shape(y).dims(), &[2, 16, 4, 4]);
    }

    #[test]
    fn lstm_step_preserves_shapes_and_trains() {
        let mut nb = NetBuilder::new();
        let x = nb.g.input("x", [2, 3]);
        let h0 = nb.g.input("h0", [2, 4]);
        let c0 = nb.g.input("c0", [2, 4]);
        let p = lstm_params(&mut nb, 3, 4);
        let (h, c) = lstm_step(&mut nb, &p, x, h0, c0).unwrap();
        assert_eq!(nb.g.shape(h).dims(), &[2, 4]);
        assert_eq!(nb.g.shape(c).dims(), &[2, 4]);
        let loss = nb.g.sum_all(h).unwrap();
        let graph = nb.g.finish();
        let mut session = Session::new(graph, 5);
        let run = session
            .forward(&[
                (x, Tensor::ones([2, 3])),
                (h0, Tensor::zeros([2, 4])),
                (c0, Tensor::zeros([2, 4])),
            ])
            .unwrap();
        // Zero initial state: h = sigmoid(o)·tanh(sigmoid(i)·tanh(g)) is bounded.
        let hv = run.value(h).unwrap();
        assert!(hv.data().iter().all(|v| v.abs() < 1.0));
        let grads = session.backward(&run, loss, Tensor::scalar(1.0)).unwrap();
        assert!(grads.param_grad(p.wx).unwrap().all_finite());
        assert!(grads.param_grad(p.wh).unwrap().l2_norm() >= 0.0);
    }

    #[test]
    fn attention_is_convex_combination() {
        // With uniform keys the context must equal the key vector.
        let mut nb = NetBuilder::new();
        let q = nb.g.input("q", [2, 4]);
        let k = nb.g.input("k", [2, 3, 4]);
        let ctx = dot_attention(&mut nb, q, k, 2, 3, 4).unwrap();
        let graph = nb.g.finish();
        let mut session = Session::new(graph, 0);
        let run = session
            .forward(&[(q, Tensor::ones([2, 4])), (k, Tensor::full([2, 3, 4], 0.5))])
            .unwrap();
        let c = run.value(ctx).unwrap();
        assert!(c.data().iter().all(|&v| (v - 0.5).abs() < 1e-6));
    }

    #[test]
    fn transformer_block_keeps_token_shape() {
        let mut nb = NetBuilder::new();
        let x = nb.g.input("x", [2 * 3, 8]);
        let y = transformer_block(&mut nb, x, None, 2, 3, 8, 2, 16).unwrap();
        assert_eq!(nb.g.shape(y).dims(), &[6, 8]);
        // Cross-attention variant.
        let mut nb2 = NetBuilder::new();
        let x2 = nb2.g.input("x", [2 * 3, 8]);
        let enc = nb2.g.input("enc", [2 * 5, 8]);
        let y2 = transformer_block(&mut nb2, x2, Some((enc, 5)), 2, 3, 8, 2, 16).unwrap();
        assert_eq!(nb2.g.shape(y2).dims(), &[6, 8]);
    }

    #[test]
    fn rnn_step_is_bounded_by_tanh() {
        let mut nb = NetBuilder::new();
        let x = nb.g.input("x", [2, 3]);
        let h0 = nb.g.input("h0", [2, 5]);
        let p = rnn_params(&mut nb, 3, 5);
        let h = rnn_step(&mut nb, &p, x, h0).unwrap();
        let graph = nb.g.finish();
        let mut session = Session::new(graph, 9);
        let run = session
            .forward(&[(x, Tensor::full([2, 3], 10.0)), (h0, Tensor::zeros([2, 5]))])
            .unwrap();
        assert!(run.value(h).unwrap().data().iter().all(|v| v.abs() <= 1.0));
    }
}

/// Parameters of one GRU layer (Deep Speech 2's alternative recurrent
/// unit, §3.1.4 of the paper).
#[derive(Debug, Clone, Copy)]
pub struct GruParams {
    /// Input projection for the reset/update gates `[in, 2·hidden]`.
    pub wx_gates: NodeId,
    /// Recurrent projection for the reset/update gates `[hidden, 2·hidden]`.
    pub wh_gates: NodeId,
    /// Gate bias `[2·hidden]`.
    pub b_gates: NodeId,
    /// Input projection for the candidate `[in, hidden]`.
    pub wx_cand: NodeId,
    /// Recurrent projection for the candidate `[hidden, hidden]`.
    pub wh_cand: NodeId,
    /// Candidate bias `[hidden]`.
    pub b_cand: NodeId,
    /// Hidden width.
    pub hidden: usize,
}

/// Creates the parameters of a GRU layer.
pub fn gru_params(nb: &mut NetBuilder, input: usize, hidden: usize) -> GruParams {
    let n1 = nb.fresh("gru_wx_gates");
    let wx_gates = nb.g.parameter(
        &n1,
        [input, 2 * hidden],
        Init::Xavier { fan_in: input, fan_out: 2 * hidden },
    );
    let n2 = nb.fresh("gru_wh_gates");
    let wh_gates = nb.g.parameter(
        &n2,
        [hidden, 2 * hidden],
        Init::Xavier { fan_in: hidden, fan_out: 2 * hidden },
    );
    let n3 = nb.fresh("gru_b_gates");
    let b_gates = nb.g.parameter(&n3, [2 * hidden], Init::Zeros);
    let n4 = nb.fresh("gru_wx_cand");
    let wx_cand =
        nb.g.parameter(&n4, [input, hidden], Init::Xavier { fan_in: input, fan_out: hidden });
    let n5 = nb.fresh("gru_wh_cand");
    let wh_cand =
        nb.g.parameter(&n5, [hidden, hidden], Init::Xavier { fan_in: hidden, fan_out: hidden });
    let n6 = nb.fresh("gru_b_cand");
    let b_cand = nb.g.parameter(&n6, [hidden], Init::Zeros);
    GruParams { wx_gates, wh_gates, b_gates, wx_cand, wh_cand, b_cand, hidden }
}

/// One GRU time step:
/// `r,z = σ(x·Wx + h·Wh + b)`, `h̃ = tanh(x·Wxc + (r⊙h)·Whc + bc)`,
/// `h' = z⊙h + (1−z)⊙h̃`.
///
/// # Errors
///
/// Propagates shape errors from the underlying ops.
pub fn gru_step(nb: &mut NetBuilder, p: &GruParams, x: NodeId, h_prev: NodeId) -> Result<NodeId> {
    let h = p.hidden;
    let gx = nb.g.matmul(x, p.wx_gates)?;
    let gh = nb.g.matmul(h_prev, p.wh_gates)?;
    let gates = nb.g.add(gx, gh)?;
    let gates = nb.g.add_bias(gates, p.b_gates)?;
    let gates = nb.g.sigmoid(gates)?;
    let r = nb.g.slice_cols(gates, 0, h)?;
    let z = nb.g.slice_cols(gates, h, h)?;
    let rh = nb.g.mul(r, h_prev)?;
    let cx = nb.g.matmul(x, p.wx_cand)?;
    let ch = nb.g.matmul(rh, p.wh_cand)?;
    let cand = nb.g.add(cx, ch)?;
    let cand = nb.g.add_bias(cand, p.b_cand)?;
    let cand = nb.g.tanh(cand)?;
    // h' = z⊙h_prev + (1−z)⊙cand  ==  cand + z⊙(h_prev − cand)
    let diff = nb.g.sub(h_prev, cand)?;
    let gated = nb.g.mul(z, diff)?;
    nb.g.add(cand, gated)
}

#[cfg(test)]
mod gru_tests {
    use super::*;
    use tbd_graph::Session;
    use tbd_tensor::Tensor;

    #[test]
    fn gru_step_shapes_and_bounds() {
        let mut nb = NetBuilder::new();
        let x = nb.g.input("x", [3, 4]);
        let h0 = nb.g.input("h0", [3, 5]);
        let p = gru_params(&mut nb, 4, 5);
        let h1 = gru_step(&mut nb, &p, x, h0).unwrap();
        assert_eq!(nb.g.shape(h1).dims(), &[3, 5]);
        let graph = nb.g.finish();
        let mut session = Session::new(graph, 13);
        let run = session
            .forward(&[(x, Tensor::full([3, 4], 3.0)), (h0, Tensor::zeros([3, 5]))])
            .unwrap();
        // With zero state, h' = (1−z)·tanh(cand) is bounded by 1.
        assert!(run.value(h1).unwrap().data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn gru_interpolates_between_state_and_candidate() {
        // An identical x with saturated update gate keeps the old state.
        let mut nb = NetBuilder::new();
        let x = nb.g.input("x", [1, 2]);
        let h0 = nb.g.input("h0", [1, 3]);
        let p = gru_params(&mut nb, 2, 3);
        let h1 = gru_step(&mut nb, &p, x, h0).unwrap();
        let graph = nb.g.finish();
        let mut session = Session::new(graph, 2);
        // Force the gate bias very positive: z ≈ 1 ⇒ h' ≈ h_prev.
        let gate_bias = p.b_gates;
        *session.param_mut(gate_bias).unwrap() = Tensor::full([6], 25.0);
        let run = session
            .forward(&[(x, Tensor::zeros([1, 2])), (h0, Tensor::full([1, 3], 0.7))])
            .unwrap();
        for &v in run.value(h1).unwrap().data() {
            assert!((v - 0.7).abs() < 1e-3, "h' {v} should track h_prev");
        }
    }

    #[test]
    fn gru_gradients_flow_to_all_parameters() {
        let mut nb = NetBuilder::new();
        let x = nb.g.input("x", [2, 3]);
        let h0 = nb.g.input("h0", [2, 4]);
        let p = gru_params(&mut nb, 3, 4);
        let h1 = gru_step(&mut nb, &p, x, h0).unwrap();
        let loss = nb.g.sum_all(h1).unwrap();
        let graph = nb.g.finish();
        let mut session = Session::new(graph, 7);
        let run = session
            .forward(&[
                (x, Tensor::from_fn([2, 3], |i| (i as f32 - 3.0) * 0.3)),
                (h0, Tensor::from_fn([2, 4], |i| (i as f32 - 4.0) * 0.1)),
            ])
            .unwrap();
        let grads = session.backward(&run, loss, Tensor::scalar(1.0)).unwrap();
        for id in [p.wx_gates, p.wh_gates, p.b_gates, p.wx_cand, p.wh_cand, p.b_cand] {
            let g = grads.param_grad(id).expect("gradient exists");
            assert!(g.all_finite());
            assert!(g.l2_norm() > 0.0, "gradient must be nonzero");
        }
    }
}
