//! Framework execution profiles.
//!
//! §3.2 of the paper observes that for the same model the GPU kernels the
//! three frameworks invoke are "usually functionally the same" — what
//! differs is the *system* around them: per-op dispatch overhead, memory
//! allocator strategy, workspace autotuning, input-pipeline overlap and the
//! kernel libraries linked in. This crate encodes each framework as such a
//! profile and provides [`Framework::profile`], the one planner of a
//! training iteration of a [`BuiltModel`] on a [`GpuSpec`]: it places every
//! allocation category in device memory (failing with [`OutOfMemory`] for
//! infeasible mini-batches, exactly where the paper reports memory limits),
//! autotunes convolution workspace out of the leftover capacity
//! (Observation 12) and replays the kernel stream through the timeline
//! simulator.
//!
//! # Examples
//!
//! ```
//! use tbd_frameworks::{Framework, SpeedOptions, WorkloadHints};
//! use tbd_gpusim::GpuSpec;
//! use tbd_models::a3c::A3cConfig;
//! use tbd_models::ModelKind;
//!
//! # fn main() -> Result<(), tbd_gpusim::OutOfMemory> {
//! let model = A3cConfig::full().build(16).expect("builds");
//! let fw = Framework::mxnet();
//! let hints = fw.hints(ModelKind::A3c, 16);
//! let gpu = GpuSpec::quadro_p4000();
//! let profile = fw.profile(&model, &gpu, hints, SpeedOptions::default(), None)?;
//! assert!(profile.throughput > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod fusion;

use std::sync::Arc;
use tbd_graph::lower::{
    lower_training_iteration, lower_training_iteration_fused, memory_footprint,
    optimizer_update_kernels, LoweredKernel,
};
use tbd_graph::trace::{EventKind, TraceLayer, TraceRecorder, TraceStore};
use tbd_graph::{FusionPlan, KernelClass};
use tbd_tensor::Precision;
use tbd_gpusim::{
    simulate_iteration, CpuSpec, DeviceMemory, ExecutionParams, GpuSpec, IterationProfile,
    MemoryBreakdown, MemoryCategory, OutOfMemory,
};
use tbd_models::{BuiltModel, ModelKind};

pub use tbd_gpusim::timeline::KernelRecord;

/// The three frameworks the paper studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FrameworkKind {
    /// TensorFlow 1.3 profile.
    TensorFlow,
    /// MXNet 0.11 profile.
    Mxnet,
    /// CNTK 2.0 profile.
    Cntk,
}

/// A framework execution profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framework {
    kind: FrameworkKind,
}

/// Model-specific execution hints that live outside the dataflow graph:
/// sequence-bucket padding (memory is allocated for the longest bucket while
/// compute runs on real lengths), on-policy environment stepping that
/// cannot be prefetched (A3C), and kernel-quality derating for workloads
/// whose odd shapes hit slow cuDNN paths (Faster R-CNN's non-square
/// convolutions, WGAN's gradient-penalty pass).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadHints {
    /// Multiplier on the feature-map footprint: bucket padding, times the
    /// resident share a feature-map memory optimization leaves on the
    /// device (`tbd-memopt` scales it per strategy).
    pub memory_padding: f64,
    /// Non-overlappable per-iteration input cost in seconds (on-policy
    /// environment stepping, proposal generation).
    pub serial_input_s: f64,
    /// Kernel-quality multiplier (< 1 derates compute-bound kernels).
    pub compute_derate: f64,
    /// Overrides the framework's pipeline overlap when set.
    pub overlap_override: Option<f64>,
    /// Overrides the CPU cores the input pipeline occupies when set
    /// (environment emulation, proposal generation).
    pub pipeline_cores_override: Option<f64>,
}

impl Default for WorkloadHints {
    fn default() -> Self {
        WorkloadHints {
            memory_padding: 1.0,
            serial_input_s: 0.0,
            compute_derate: 1.0,
            overlap_override: None,
            pipeline_cores_override: None,
        }
    }
}

impl WorkloadHints {
    /// The hints for one of the paper's workloads at the given mini-batch,
    /// independent of framework. Prefer [`Framework::hints`], which also
    /// accounts for implementation differences (Sockeye's coarser
    /// bucketing).
    pub fn for_model(kind: ModelKind, batch: usize) -> Self {
        match kind {
            // IWSLT sentences are padded to bucket lengths well above the
            // average length; LibriSpeech utterances pad to the longest in
            // the shard.
            ModelKind::Seq2Seq => {
                WorkloadHints { memory_padding: 2.1, ..WorkloadHints::default() }
            }
            ModelKind::DeepSpeech2 => {
                WorkloadHints { memory_padding: 4.0, ..WorkloadHints::default() }
            }
            // A3C steps its Atari environments on-policy: frames cannot be
            // prefetched, so every iteration pays the emulator.
            ModelKind::A3c => WorkloadHints {
                serial_input_s: 0.2 + 0.005 * batch as f64,
                overlap_override: Some(0.0),
                pipeline_cores_override: Some(8.0),
                ..WorkloadHints::default()
            },
            // Non-square images and per-proposal convolutions hit slower
            // cuDNN paths; proposal generation/NMS adds serial CPU work.
            ModelKind::FasterRcnn => WorkloadHints {
                compute_derate: 0.55,
                serial_input_s: 0.05,
                pipeline_cores_override: Some(12.0),
                ..WorkloadHints::default()
            },
            // The WGAN-GP gradient penalty adds an extra critic pass with
            // CPU-side interpolate sampling not present in the lowered
            // graph: a kernel-quality derate plus a per-iteration serial
            // cost that bends the batch-scaling curve as in Fig. 4e.
            ModelKind::Wgan => WorkloadHints {
                compute_derate: 0.8,
                serial_input_s: 0.08,
                overlap_override: Some(0.3),
                ..WorkloadHints::default()
            },
            // TensorFlow's buffer forwarding reuses the attention stack's
            // temporaries; without it the per-head slices double-count and
            // token-batch 4096 would not fit the 8 GB card the paper used.
            ModelKind::Transformer => {
                WorkloadHints { memory_padding: 0.8, ..WorkloadHints::default() }
            }
            _ => WorkloadHints::default(),
        }
    }
}

/// Speed-tier knobs threaded from `tbd trace` / `tbd bench`: kernel fusion
/// in the lowering pass and reduced-precision storage in the roofline.
///
/// The default (`fuse: false`, [`Precision::F32`]) reproduces the paper's
/// baseline configuration bit-for-bit, so every pinned profile
/// (scale/chaos baselines, observation checks) is unaffected unless a
/// caller opts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpeedOptions {
    /// Fuse elementwise/activation/bias/norm chains into single kernels.
    pub fuse: bool,
    /// Storage precision for GEMM/conv operands (f32 accumulation).
    pub precision: Precision,
}

impl SpeedOptions {
    /// The full speed tier: fusion on, at the given precision.
    pub fn fused(precision: Precision) -> Self {
        SpeedOptions { fuse: true, precision }
    }
}

/// Result of planning and simulating one training iteration.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Timeline metrics (wall time, utilisations, kernel trace).
    pub iteration: IterationProfile,
    /// Peak memory per category.
    pub memory: MemoryBreakdown,
    /// Mini-batch the model was built for.
    pub batch: usize,
    /// Training throughput in samples per second.
    pub throughput: f64,
}

impl Framework {
    /// The TensorFlow profile: dataflow runtime with a low-overhead
    /// executor, aggressive input pipeline, pooled allocator.
    pub fn tensorflow() -> Self {
        Framework { kind: FrameworkKind::TensorFlow }
    }

    /// The MXNet profile: fastest kernel selection on CNNs, but a heavier
    /// dependency engine between kernels and extra "dynamic" allocations
    /// made during iterations (momentum buffers — §3.4.3).
    pub fn mxnet() -> Self {
        Framework { kind: FrameworkKind::Mxnet }
    }

    /// The CNTK profile.
    pub fn cntk() -> Self {
        Framework { kind: FrameworkKind::Cntk }
    }

    /// All three frameworks, in the paper's order.
    pub fn all() -> [Framework; 3] {
        [Framework::tensorflow(), Framework::mxnet(), Framework::cntk()]
    }

    /// Which framework this profile models.
    pub fn kind(&self) -> FrameworkKind {
        self.kind
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self.kind {
            FrameworkKind::TensorFlow => "TensorFlow",
            FrameworkKind::Mxnet => "MXNet",
            FrameworkKind::Cntk => "CNTK",
        }
    }

    /// Whether the paper has an implementation of `model` on this framework
    /// (Table 2, "Frameworks" column).
    pub fn supports(&self, model: ModelKind) -> bool {
        use FrameworkKind::*;
        use ModelKind::*;
        match model {
            ResNet50 | InceptionV3 => true,
            Seq2Seq => matches!(self.kind, TensorFlow | Mxnet),
            Transformer => self.kind == TensorFlow,
            FasterRcnn => matches!(self.kind, TensorFlow | Mxnet),
            DeepSpeech2 => self.kind == Mxnet,
            Wgan => self.kind == TensorFlow,
            A3c => self.kind == Mxnet,
        }
    }

    /// The name of the Seq2Seq implementation on this framework (the paper
    /// distinguishes TensorFlow's NMT from MXNet's Sockeye).
    pub fn seq2seq_implementation(&self) -> &'static str {
        match self.kind {
            FrameworkKind::TensorFlow => "NMT",
            FrameworkKind::Mxnet => "Sockeye",
            FrameworkKind::Cntk => "(none)",
        }
    }

    /// Timeline parameters of this framework for a model whose input feed
    /// totals `input_bytes` per iteration.
    pub fn execution_params(&self, input_bytes: u64) -> ExecutionParams {
        // The input pipeline decodes/augments on the CPU at a few GB/s and
        // overlaps with GPU compute (Observation 4's "efficiently
        // parallelized" transfers).
        let pipeline_s = input_bytes as f64 / 2.0e9;
        match self.kind {
            FrameworkKind::TensorFlow => ExecutionParams {
                launch_overhead_s: 4e-6,
                sync_gap_s: 7e-6,
                iteration_overhead_s: 2.5e-3,
                input_pipeline_s: pipeline_s,
                pipeline_overlap: 0.95,
                pipeline_cores: 3.0,
                background_cores: 1.4,
                compute_speedup: 0.80,
                precision: Precision::F32,
            },
            FrameworkKind::Mxnet => ExecutionParams {
                launch_overhead_s: 4e-6,
                sync_gap_s: 16e-6,
                iteration_overhead_s: 1.5e-3,
                input_pipeline_s: pipeline_s,
                pipeline_overlap: 0.93,
                pipeline_cores: 2.0,
                background_cores: 1.3,
                compute_speedup: 1.0,
                precision: Precision::F32,
            },
            // CNTK is a pure C++ runtime: its near-zero CPU utilisation is
            // the striking pattern of the paper's Fig. 7.
            FrameworkKind::Cntk => ExecutionParams {
                launch_overhead_s: 5e-6,
                sync_gap_s: 8e-6,
                iteration_overhead_s: 2.0e-3,
                input_pipeline_s: pipeline_s,
                pipeline_overlap: 0.9,
                pipeline_cores: 2.0,
                background_cores: 0.02,
                compute_speedup: 0.70,
                precision: Precision::F32,
            },
        }
    }

    /// Host-side threading knobs for functional (CPU) execution, mirroring
    /// the paper's §3.5 CPU-utilisation analysis (Fig. 7): TensorFlow
    /// saturates its intra-op pool (auto-sized) and its dataflow executor
    /// runs independent nodes concurrently; MXNet's dependency engine also
    /// overlaps nodes but drives fewer threads per kernel; CNTK's pure-C++
    /// runtime shows near-zero host CPU — it executes serially.
    pub fn host_threading(&self) -> tbd_graph::ExecConfig {
        use tbd_graph::ExecConfig;
        match self.kind {
            FrameworkKind::TensorFlow => {
                ExecConfig { intra_op_threads: 0, inter_op_parallel: true }
            }
            FrameworkKind::Mxnet => ExecConfig { intra_op_threads: 2, inter_op_parallel: true },
            FrameworkKind::Cntk => ExecConfig { intra_op_threads: 1, inter_op_parallel: false },
        }
    }

    /// Momentum-SGD update cost per parameter element
    /// `(flops, bytes)` — all three frameworks train with momentum.
    pub fn optimizer_cost(&self) -> (f64, f64) {
        (4.0, 16.0)
    }

    /// Bytes the framework allocates *during* iterations (the profiler's
    /// "dynamic" category): momentum state plus scratch. MXNet allocates
    /// its momentum buffers lazily inside the first iterations (§3.4.3),
    /// making its dynamic slice the largest.
    pub fn dynamic_bytes(&self, weight_bytes: u64) -> u64 {
        match self.kind {
            FrameworkKind::TensorFlow => weight_bytes / 4,
            FrameworkKind::Mxnet => weight_bytes + weight_bytes / 8,
            FrameworkKind::Cntk => weight_bytes / 8,
        }
    }

    /// Allocator slack: the factor by which pooled allocation and
    /// fragmentation inflate the feature-map footprint. MXNet's higher
    /// slack is why Sockeye tops out at mini-batch 64 where NMT reaches 128
    /// on the same 8 GB card (Observation 3).
    pub fn allocator_slack(&self) -> f64 {
        match self.kind {
            FrameworkKind::TensorFlow => 1.02,
            FrameworkKind::Mxnet => 1.08,
            FrameworkKind::Cntk => 1.10,
        }
    }

    /// Maximum workspace appetite as a multiple of the minimum conv
    /// workspace, granted from leftover memory (Observation 12).
    pub fn workspace_appetite(&self) -> f64 {
        match self.kind {
            FrameworkKind::TensorFlow => 4.0,
            FrameworkKind::Mxnet => 2.0,
            FrameworkKind::Cntk => 3.0,
        }
    }

    /// Model- and framework-specific execution hints: Sockeye (MXNet's
    /// Seq2Seq) buckets far more coarsely than TensorFlow's NMT, which is
    /// why it tops out at mini-batch 64 where NMT reaches 128 on the same
    /// 8 GB card (Observation 3).
    pub fn hints(&self, kind: ModelKind, batch: usize) -> WorkloadHints {
        let mut hints = WorkloadHints::for_model(kind, batch);
        if kind == ModelKind::Seq2Seq && self.kind == FrameworkKind::Mxnet {
            hints.memory_padding = 4.2;
        }
        hints
    }

    /// Lowers one full training iteration, including this framework's
    /// optimizer-update kernels. With `speed.fuse` set,
    /// elementwise/activation/bias/norm chains lower as single fused
    /// kernels (fewer launches, interior traffic dropped).
    pub fn plan_with(&self, model: &BuiltModel, speed: SpeedOptions) -> Vec<LoweredKernel> {
        let (f, b) = self.optimizer_cost();
        let mut kernels = if speed.fuse {
            let plan = FusionPlan::analyze(&model.graph);
            lower_training_iteration_fused(&model.graph, Some(&plan))
        } else {
            lower_training_iteration(&model.graph)
        };
        kernels.extend(optimizer_update_kernels(&model.graph, f, b));
        kernels
    }

    /// Plans device memory and simulates one training iteration of `model`
    /// on `gpu` under the model's [`WorkloadHints`] and the speed tier's
    /// [`SpeedOptions`].
    ///
    /// With a `tracer`, the whole run is emitted into it: allocator events
    /// (including a failing allocation on the OOM path), the simulated
    /// launch/kernel/sync timeline, and framework-tagged spans that make
    /// TF/MXNet/CNTK traces of the same model distinguishable
    /// (per-framework launch overhead, sync gap and pipeline overlap — the
    /// paper's §3.2 "same kernels, different system behaviour").
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the mini-batch does not fit the device
    /// (the paper's infeasible configurations).
    pub fn profile(
        &self,
        model: &BuiltModel,
        gpu: &GpuSpec,
        hints: WorkloadHints,
        speed: SpeedOptions,
        tracer: Option<&Arc<TraceRecorder>>,
    ) -> Result<WorkloadProfile, OutOfMemory> {
        let cpu = CpuSpec::xeon_e5_2680();
        let fp = memory_footprint(&model.graph);
        let mut mem = DeviceMemory::new(gpu.memory_bytes);
        if let Some(tr) = tracer {
            mem.set_tracer(Some(Arc::clone(tr)));
        }
        mem.alloc(MemoryCategory::Weights, fp.weights)?;
        mem.alloc(MemoryCategory::WeightGrads, fp.weight_grads)?;
        let feature =
            (fp.feature_maps as f64 * self.allocator_slack() * hints.memory_padding) as u64;
        mem.alloc(MemoryCategory::FeatureMaps, feature)?;
        mem.alloc(MemoryCategory::Dynamic, self.dynamic_bytes(fp.weights))?;
        // Workspace autotuning (Observation 12): each operator caches its
        // chosen algorithm's workspace, so the framework grabs up to
        // `appetite × Σ per-layer workspace` from leftover memory — never
        // less than the largest single request the algorithms need.
        let base_ws = fp.workspace.max(1);
        let desired = (fp.workspace_total as f64 * self.workspace_appetite()) as u64;
        let available = (mem.available() as f64 * 0.8) as u64;
        let ws = desired.min(available);
        mem.alloc(MemoryCategory::Workspace, ws.max(base_ws))?;
        // A roomy workspace lets cuDNN pick faster algorithms.
        let ws_bonus = if ws >= 2 * base_ws { 1.05 } else { 1.0 };

        let input_bytes: u64 = model
            .inputs
            .values()
            .map(|&id| model.graph.node(id).shape.byte_len() as u64)
            .sum();
        let mut params = self.execution_params(input_bytes);
        params.precision = speed.precision;
        params.compute_speedup *= ws_bonus * hints.compute_derate;
        params.input_pipeline_s += hints.serial_input_s;
        if let Some(overlap) = hints.overlap_override {
            params.pipeline_overlap = overlap;
        }
        if let Some(cores) = hints.pipeline_cores_override {
            params.pipeline_cores = cores;
        }

        let kernels = self.plan_with(model, speed);
        let iteration =
            simulate_iteration(&kernels, gpu, &cpu, &params, tracer.map(|t| &**t));
        let throughput = iteration.throughput(model.batch);
        if let Some(tr) = tracer {
            // Framework-tagged spans: same kernel stream, framework-specific
            // system behaviour around it (§3.2). These args are what makes
            // the three frameworks' traces of one model differ.
            let wall_us = iteration.wall_time_s * 1e6;
            let mut events = TraceStore::new();
            let name = events.intern(format!("{} iteration", self.name()));
            events
                .span(name, TraceLayer::Framework, EventKind::Iteration, 0.0, wall_us)
                .with_arg("framework", self.name())
                .with_arg("batch", model.batch)
                .with_arg("kernels", kernels.len())
                .with_arg("launch_overhead_us", params.launch_overhead_s * 1e6)
                .with_arg("sync_gap_us", params.sync_gap_s * 1e6)
                .with_arg("pipeline_overlap", params.pipeline_overlap)
                .with_arg("gpu_utilization", iteration.gpu_utilization)
                .with_arg("throughput", throughput)
                .with_arg("cpu_utilization", iteration.cpu_utilization)
                .with_arg("fp32_utilization", iteration.fp32_utilization);
            let name = events.intern(format!("{} input pipeline", self.name()));
            let pipeline_us = params.input_pipeline_s * 1e6;
            events
                .span(name, TraceLayer::Framework, EventKind::Phase, 0.0, pipeline_us)
                .on_track(1)
                .with_arg("overlap", params.pipeline_overlap)
                .with_arg("cores", params.pipeline_cores);
            tr.record_batch(events);
        }
        Ok(WorkloadProfile { iteration, memory: mem.breakdown(), batch: model.batch, throughput })
    }

    /// Maps a kernel-trace record to the library kernel name this framework
    /// would show in an nvprof trace (paper Tables 5 and 6).
    pub fn kernel_name(&self, record: &KernelRecord) -> String {
        use KernelClass::*;
        let tf = self.kind == FrameworkKind::TensorFlow;
        let mx = self.kind == FrameworkKind::Mxnet;
        match record.class {
            Gemm | BatchedGemm => {
                if tf {
                    "magma_lds128_sgemm_kernel".to_string()
                } else if mx {
                    "cublas::sgemm_128x64_nt".to_string()
                } else {
                    "cublas::sgemm_64x64_nn".to_string()
                }
            }
            ConvForward => "cudnn::detail::implicit_convolve_sgemm".to_string(),
            ConvBackwardData => "cudnn::detail::dgrad_engine".to_string(),
            ConvBackwardFilter => "cudnn::detail::wgrad_alg0_engine".to_string(),
            BatchNormForward => "cudnn::detail::bn_fw_tr_1C11_kernel_new".to_string(),
            BatchNormBackward => "cudnn::detail::bn_bw_1C11_kernel_new".to_string(),
            ActivationForward => "cudnn::detail::activation_fw_4d_kernel".to_string(),
            ActivationBackward => "cudnn::detail::activation_bw_4d_kernel".to_string(),
            Elementwise | Dropout | DataMovement => {
                if tf {
                    if record.origin == "bias" {
                        "tensorflow::BiasNHWCKernel".to_string()
                    } else {
                        "Eigen::internal::EigenMetaKernel".to_string()
                    }
                } else if mx {
                    "ZN5mxnet2op8mxnet_op20mxnet_generic_kernel".to_string()
                } else {
                    "Microsoft::MSR::CNTK::_launchUnaryTensorOp".to_string()
                }
            }
            LayerNormForward | LayerNormBackward => {
                if tf {
                    "tensorflow::fused_layer_norm_kernel".to_string()
                } else {
                    "layer_norm_kernel".to_string()
                }
            }
            PoolForward | PoolBackward => "cudnn::detail::pooling_fw_4d_kernel".to_string(),
            SoftmaxForward | SoftmaxBackward => "cudnn::detail::softmax_fw_kernel".to_string(),
            EmbeddingForward | EmbeddingBackward => {
                if tf {
                    "tensorflow::GatherOpKernel".to_string()
                } else {
                    "embedding_kernel".to_string()
                }
            }
            Reduction => {
                if tf {
                    "Eigen::internal::ReductionInitKernel".to_string()
                } else {
                    "reduce_kernel".to_string()
                }
            }
            OptimizerUpdate => {
                if mx {
                    "mxnet::op::sgd_mom_update".to_string()
                } else {
                    "training_ops::ApplyMomentum".to_string()
                }
            }
            MemcpyH2D => "[CUDA memcpy HtoD]".to_string(),
            Communication => "nccl::AllReduceKernel".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_models::resnet::ResNetConfig;

    #[test]
    fn table2_framework_support() {
        let tf = Framework::tensorflow();
        let mx = Framework::mxnet();
        let cntk = Framework::cntk();
        assert!(tf.supports(ModelKind::Transformer));
        assert!(!mx.supports(ModelKind::Transformer));
        assert!(mx.supports(ModelKind::DeepSpeech2));
        assert!(!tf.supports(ModelKind::DeepSpeech2));
        assert!(cntk.supports(ModelKind::ResNet50));
        assert!(!cntk.supports(ModelKind::Seq2Seq));
        assert_eq!(tf.seq2seq_implementation(), "NMT");
        assert_eq!(mx.seq2seq_implementation(), "Sockeye");
    }

    #[test]
    fn host_threading_profiles_rank_like_fig7() {
        // Fig. 7's CPU-utilisation ordering: TensorFlow drives the most
        // host parallelism, CNTK runs essentially serial.
        let tf = Framework::tensorflow().host_threading();
        let mx = Framework::mxnet().host_threading();
        let ck = Framework::cntk().host_threading();
        assert!(tf.inter_op_parallel && mx.inter_op_parallel && !ck.inter_op_parallel);
        assert_eq!(tf.intra_op_threads, 0); // auto: saturate the machine
        assert_eq!(ck.intra_op_threads, 1); // serial kernels
        assert!(mx.intra_op_threads >= 1);
        // The knobs plug straight into a Session.
        let model = ResNetConfig::tiny().build(2).unwrap();
        let mut session = tbd_graph::Session::with_exec(model.graph, 1, ck);
        assert_eq!(session.exec_config(), ck);
        session.set_exec_config(tf);
        assert_eq!(session.exec_config(), tf);
    }

    #[test]
    fn profile_of_tiny_resnet_produces_metrics() {
        let model = ResNetConfig::tiny().build(4).unwrap();
        let gpu = GpuSpec::quadro_p4000();
        let p = Framework::mxnet()
            .profile(&model, &gpu, WorkloadHints::default(), SpeedOptions::default(), None)
            .unwrap();
        assert!(p.throughput > 0.0);
        assert!(p.iteration.gpu_utilization > 0.0 && p.iteration.gpu_utilization <= 1.0);
        assert!(p.memory.total() > 0);
        assert!(p.memory.peak(MemoryCategory::Weights) > 0);
    }

    #[test]
    fn mxnet_has_largest_dynamic_category() {
        let w = 100_000_000u64;
        let d_tf = Framework::tensorflow().dynamic_bytes(w);
        let d_mx = Framework::mxnet().dynamic_bytes(w);
        let d_ck = Framework::cntk().dynamic_bytes(w);
        assert!(d_mx > d_tf && d_mx > d_ck);
        assert!(d_mx >= w, "momentum state is at least the weight size");
    }

    #[test]
    fn oversized_batch_reports_oom() {
        // A paper-scale ResNet-50 at mini-batch 512 exceeds 8 GB.
        let model = ResNetConfig::resnet50().build(512).unwrap();
        let gpu = GpuSpec::quadro_p4000();
        let err = Framework::tensorflow()
            .profile(&model, &gpu, WorkloadHints::default(), SpeedOptions::default(), None)
            .unwrap_err();
        assert!(err.requested > 0);
    }

    #[test]
    fn kernel_names_match_paper_tables() {
        let tf = Framework::tensorflow();
        let mx = Framework::mxnet();
        let rec = |class| KernelRecord {
            origin: "x",
            node: tbd_graph::NodeId::from_index(0),
            class,
            phase: tbd_graph::Phase::Forward,
            duration_s: 1e-3,
            end_s: 1e-3,
            fp32_utilization: 0.3,
            flops: 1.0,
            bound: tbd_gpusim::Bound::Compute,
        };
        assert!(tf.kernel_name(&rec(KernelClass::Gemm)).contains("magma"));
        assert!(tf.kernel_name(&rec(KernelClass::BatchNormBackward)).contains("bn_bw_1C11"));
        assert!(mx.kernel_name(&rec(KernelClass::Elementwise)).contains("mxnet_generic_kernel"));
        assert!(tf.kernel_name(&rec(KernelClass::Elementwise)).contains("Eigen"));
    }

    #[test]
    fn traced_profile_spans_every_layer_and_matches_untraced_metrics() {
        let model = ResNetConfig::tiny().build(4).unwrap();
        let gpu = GpuSpec::quadro_p4000();
        let fw = Framework::tensorflow();
        let tracer = TraceRecorder::shared();
        let (hints, speed) = (WorkloadHints::default(), SpeedOptions::default());
        let traced = fw.profile(&model, &gpu, hints, speed, Some(&tracer)).unwrap();
        let plain = fw.profile(&model, &gpu, hints, speed, None).unwrap();
        assert_eq!(traced.iteration.wall_time_s.to_bits(), plain.iteration.wall_time_s.to_bits());
        let events = tracer.drain();
        assert!(events.iter().any(|e| e.layer == TraceLayer::GpuSim
            && e.kind == EventKind::KernelExec));
        assert!(events.iter().any(|e| e.layer == TraceLayer::GpuSim && e.kind == EventKind::Alloc));
        assert!(events
            .iter()
            .any(|e| e.layer == TraceLayer::Framework && e.kind == EventKind::Iteration));
    }

    #[test]
    fn traced_oom_run_records_the_failing_allocation() {
        let model = ResNetConfig::resnet50().build(512).unwrap();
        let gpu = GpuSpec::quadro_p4000();
        let tracer = TraceRecorder::shared();
        let err = Framework::tensorflow()
            .profile(&model, &gpu, WorkloadHints::default(), SpeedOptions::default(), Some(&tracer))
            .unwrap_err();
        let events = tracer.drain();
        let fail = events
            .iter()
            .find(|e| e.kind == EventKind::AllocFail)
            .expect("OOM run must end with an AllocFail event");
        assert_eq!(fail.name, err.category.to_string());
        assert!(fail.args.contains(&("bytes", err.requested.into())));
    }

    #[test]
    fn planned_iteration_ends_with_optimizer_updates() {
        let model = ResNetConfig::tiny().build(2).unwrap();
        let kernels = Framework::cntk().plan_with(&model, SpeedOptions::default());
        let last = kernels.last().unwrap();
        assert_eq!(last.spec.class, KernelClass::OptimizerUpdate);
        let updates =
            kernels.iter().filter(|k| k.spec.class == KernelClass::OptimizerUpdate).count();
        assert_eq!(updates, model.graph.params().len());
    }
}
