//! Dataflow-graph intermediate representation for the TBD reproduction.
//!
//! The frameworks the paper studies (TensorFlow, MXNet, CNTK) all transform
//! user programs into a dataflow graph whose nodes dispatch GPU kernels.
//! This crate provides that layer:
//!
//! * [`GraphBuilder`] / [`Graph`] — construct a typed, shape-inferred graph
//!   of [`Op`]s in topological order;
//! * [`Session`] — eager forward/backward execution with real tensors
//!   (reverse-mode autodiff over the saved activations, exactly the
//!   "stash feature maps for the backward pass" structure the paper's
//!   memory analysis hinges on);
//! * [`lowering`](crate::lower) — per-node [`KernelSpec`]s (FLOPs, bytes
//!   moved, workspace) that the GPU simulator consumes to cost a training
//!   iteration *without* executing it at full scale.
//!
//! # Examples
//!
//! ```
//! use tbd_graph::{GraphBuilder, Init, Session};
//! use tbd_tensor::Tensor;
//!
//! # fn main() -> Result<(), tbd_graph::GraphError> {
//! let mut g = GraphBuilder::new();
//! let x = g.input("x", [4, 2]);
//! let w = g.parameter("w", [2, 3], Init::Xavier { fan_in: 2, fan_out: 3 });
//! let y = g.matmul(x, w)?;
//! let loss = g.mean_all(y)?;
//! let graph = g.finish();
//!
//! let mut session = Session::new(graph, 42);
//! let run = session.forward(&[(x, Tensor::ones([4, 2]))])?;
//! let grads = session.backward(&run, loss, Tensor::scalar(1.0))?;
//! assert!(grads.param_grad(w).is_some());
//! # Ok(())
//! # }
//! ```

pub mod dot;
pub mod error;
pub mod exec;
pub mod fuse;
pub mod graph;
pub mod kernel;
pub mod lower;
pub mod op;
pub mod trace;

pub use dot::to_dot;
pub use error::GraphError;
pub use exec::{ExecConfig, Gradients, RunState, Session};
pub use fuse::{fused_spec, fusion_family, FusionFamily, FusionGroup, FusionPlan, FUSION_RULES};
pub use graph::{check_shape, Graph, GraphBuilder, Init, Node, NodeId};
pub use kernel::{KernelClass, KernelSpec, Phase};
pub use op::Op;
pub use trace::{ArgValue, EventKind, EventRef, TraceLayer, TraceRecorder, TraceSink, TraceStore};

/// Convenience alias for results returned throughout this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
