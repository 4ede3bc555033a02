//! Neural-network kernels.
//!
//! Every kernel that the TBD workloads dispatch to a GPU exists here as a
//! real CPU implementation. Kernels come in `*_forward` / `*_backward`
//! pairs (or a single pure function when the derivative is trivial) so the
//! graph crate can compose reverse-mode autodiff from them.
//!
//! The [`concat()`](fn@concat) kernel (a function, unlike the std `concat!`
//! macro) joins Inception branches along the channel axis.
//!
//! Layout conventions follow the frameworks the paper studies:
//! * images are `NCHW`;
//! * sequence activations are `[batch, features]` per time step;
//! * weight matrices are `[in, out]` so `y = x · W + b`.

mod batched;
mod conv;
mod elementwise;
mod layout;
mod linalg;
mod mixed;
mod norm;
mod pool;
mod reduce;
mod softmax;

pub use batched::{batch_matmul, batch_matmul_backward, batch_transpose};
pub use conv::{col2im, conv2d_backward, conv2d_forward, conv2d_output_hw, im2col, Conv2dConfig};
pub use elementwise::{
    add, add_assign, div, dropout_backward, dropout_forward, leaky_relu_backward,
    leaky_relu_forward, mul, relu_backward, relu_forward, scale, sigmoid_backward, sigmoid_forward,
    sub, tanh_backward, tanh_forward,
};
pub use layout::{
    concat, concat_backward, invert_perm3, permute3, slice_cols, slice_cols_backward, slice_rows,
    slice_rows_backward,
};
pub use linalg::{
    add_bias, add_bias_backward, embedding_backward, embedding_forward, matmul, matmul_backward,
    matmul_reference, transpose,
};
pub use mixed::{
    bf16_bits_to_f32, conv2d_backward_mixed, conv2d_forward_mixed, f16_bits_to_f32,
    f32_to_bf16_bits, f32_to_f16_bits, matmul_backward_mixed, matmul_mixed, quantize,
    quantize_tensor,
};
pub use norm::{
    batch_norm_backward, batch_norm_forward, layer_norm_backward, layer_norm_forward,
    BatchNormState, LayerNormState,
};
pub use pool::{
    avg_pool2d_backward, avg_pool2d_forward, global_avg_pool_backward, global_avg_pool_forward,
    max_pool2d_backward, max_pool2d_forward, upsample2x_backward, upsample2x_forward, Pool2dConfig,
};
pub use reduce::{
    mean_all_backward, mean_all_forward, sum_all_backward, sum_all_forward, sum_axis0,
};
pub use softmax::{
    cross_entropy_backward, cross_entropy_forward, log_softmax, softmax, softmax_backward,
};
