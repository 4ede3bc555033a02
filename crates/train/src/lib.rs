//! Training machinery for the TBD reproduction.
//!
//! * [`optim`] — SGD / momentum / Adam optimizers over graph [`Session`]s,
//!   plus the WGAN weight-clipping rule;
//! * [`trainer`] — generic supervised training loops;
//! * [`metrics`] — the accuracy measures of the paper's Fig. 2: top-k
//!   classification accuracy, BLEU, word error rate, game score;
//! * [`convergence`] — calibrated accuracy-versus-time curves regenerating
//!   Fig. 2 at paper scale (see `DESIGN.md`, substitution 4);
//! * [`a3c`] — an asynchronous advantage actor-critic trainer that plays
//!   the real [`tbd_data::Pong`] environment across worker threads;
//! * [`checkpoint`] — hardened, checksummed weight checkpoints with atomic
//!   writes and typed load errors;
//! * [`resilience`] — the deterministic fault-injection and recovery loop
//!   (chaos harness) built on the checkpoint layer.
//!
//! [`Session`]: tbd_graph::Session

pub mod a3c;
pub mod checkpoint;
pub mod convergence;
pub mod metrics;
pub mod optim;
pub mod resilience;
pub mod schedule;
pub mod trainer;

pub use checkpoint::{CheckpointError, LoadReport};
pub use convergence::{ConvergenceCurve, ConvergenceModel};
pub use metrics::{bleu, edit_distance, top_k_accuracy, word_error_rate};
pub use optim::{Adam, Momentum, Optimizer, Sgd};
pub use resilience::{
    param_hash, plan_degradation, proxy_feeds, proxy_session, DegradationLadder,
    DegradationOutcome, FaultKind, FaultSpec, RecoveryAction, RecoveryPolicy, ResilienceConfig,
    ResilientTrainer, RunOutcome,
};
pub use schedule::{Constant, InverseSqrt, Schedule, WarmupStepDecay};
pub use trainer::Trainer;
