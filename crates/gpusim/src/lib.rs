//! Analytic GPU device model for the TBD reproduction.
//!
//! No CUDA hardware is assumed anywhere in this workspace. Instead, every
//! kernel launch lowered from a dataflow graph (`tbd-graph`) carries exact
//! FLOP and byte counts, and this crate turns those into durations,
//! utilisation figures and memory pressure via:
//!
//! * [`GpuSpec`] — device descriptions matching the paper's Table 4
//!   (Quadro P4000, Titan Xp, plus the host Xeon);
//! * [`timing`] — a roofline model with per-kernel-class efficiencies and a
//!   size ramp (small kernels cannot fill the machine, which is the
//!   mechanism behind the paper's Observations 4–7);
//! * [`DeviceMemory`] — a capacity-enforcing allocator with the paper's
//!   five memory categories (weights, gradients, feature maps, workspace,
//!   dynamic);
//! * [`timeline`] — an iteration simulator producing wall time, GPU busy
//!   time, per-kernel FP32 utilisation and an nvprof-style trace.
//!
//! # Examples
//!
//! ```
//! use tbd_gpusim::{kernel_timing, GpuSpec};
//! use tbd_graph::{KernelClass, KernelSpec};
//!
//! let gpu = GpuSpec::quadro_p4000();
//! // A ResNet-sized convolution: ~2.4 GFLOPs, compute bound.
//! let conv = KernelSpec::new(KernelClass::ConvForward, 2.4e9, 8.0e7, "conv2d");
//! let t = kernel_timing(&conv, &gpu);
//! assert!(t.duration_s > 0.0 && t.fp32_utilization > 0.3);
//! ```

pub mod memory;
pub mod spec;
pub mod timeline;
pub mod timing;

pub use memory::{DeviceMemory, MemoryBreakdown, MemoryCategory, OutOfMemory};
pub use spec::{CpuSpec, GpuSpec, Interconnect};
pub use timeline::{
    roofline_memo_stats, simulate_iteration, ExecutionParams, IterationProfile, KernelRecord,
};
pub use timing::{is_matrix_class, kernel_timing, kernel_timing_mixed, Bound, KernelTiming};
