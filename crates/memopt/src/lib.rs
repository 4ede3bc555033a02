//! Feature-map memory optimization — the paper's closing recommendation
//! ("memory footprint reduction optimizations with the focus on feature
//! maps", §6) made executable.
//!
//! Observation 11 shows feature maps consume 62–90 % of the training
//! footprint and gate the maximum mini-batch. Two published remedies are
//! modelled here on top of the same device and framework profiles used for
//! the paper's own experiments:
//!
//! * [`Strategy::Offload`] — vDNN (Rhu et al. 2016, the paper's ref. 83):
//!   stream stashed activations to host memory over PCIe during the forward
//!   pass and prefetch them back for the backward pass. Memory shrinks by
//!   the offloaded fraction; the PCIe traffic must hide under GPU compute
//!   or it extends the iteration.
//! * [`Strategy::Checkpoint`] — sublinear gradient checkpointing (Chen et
//!   al. 2016): keep only `k` evenly spaced activation checkpoints and
//!   recompute each segment's activations during the backward pass. Memory
//!   becomes `k` checkpoints plus one live segment; compute pays roughly an
//!   extra forward pass.

//! # Examples
//!
//! ```
//! use tbd_memopt::{max_feasible_batch, Strategy};
//! use tbd_frameworks::Framework;
//! use tbd_gpusim::GpuSpec;
//! use tbd_models::ModelKind;
//!
//! let gpu = GpuSpec::quadro_p4000();
//! let candidates = [16, 32, 64];
//! let base = max_feasible_batch(
//!     ModelKind::ResNet50, Framework::mxnet(), &gpu, Strategy::Baseline, &candidates,
//! );
//! let offload = max_feasible_batch(
//!     ModelKind::ResNet50, Framework::mxnet(), &gpu,
//!     Strategy::Offload { fraction: 0.6 }, &candidates,
//! );
//! assert!(offload > base, "offloading unlocks larger mini-batches");
//! ```

use tbd_frameworks::{Framework, SpeedOptions, WorkloadHints};
use tbd_gpusim::{GpuSpec, MemoryCategory, OutOfMemory};
use tbd_graph::lower::memory_footprint;
use tbd_models::{BuiltModel, ModelKind};

/// A feature-map memory-reduction strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// No optimization (the paper's measured baseline).
    Baseline,
    /// vDNN-style offload of a fraction of the stashed feature maps to host
    /// memory over PCIe.
    Offload {
        /// Fraction of feature-map bytes moved to the host (0–1).
        fraction: f64,
    },
    /// Gradient checkpointing with `segments` evenly spaced checkpoints.
    Checkpoint {
        /// Number of segments (≥ 2); √(layers) is the classic choice.
        segments: usize,
    },
    /// Stores stashed activations in half precision (the
    /// precision-reduction direction of the paper's related work, §5).
    /// Halves the feature-map footprint; on the paper's Pascal-era GPUs
    /// FP16 arithmetic ran at FP32 rate, so the only time cost is the
    /// cast traffic.
    HalfPrecisionActivations,
}

/// Result of profiling a workload under a memory-reduction strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizedProfile {
    /// Feature-map bytes resident on the device after optimization.
    pub feature_map_bytes: u64,
    /// Total device footprint.
    pub total_bytes: u64,
    /// Wall time of one training iteration.
    pub iteration_s: f64,
    /// Training throughput in samples per second.
    pub throughput: f64,
    /// Extra time this strategy exposed on the critical path (PCIe traffic
    /// that did not hide, or recomputation), in seconds.
    pub overhead_s: f64,
}

/// Profiles one training iteration of `model` under `strategy`.
///
/// The strategy is a what-if on [`Framework::profile`]: it scales the
/// feature-map category by the share it leaves resident on the device
/// (through [`WorkloadHints::memory_padding`]), so memory placement,
/// workspace autotuning and timing are the profile's own, and then charges
/// the time it exposes on top of that profile. [`Strategy::Baseline`] is
/// the profile unchanged.
///
/// # Errors
///
/// Returns [`OutOfMemory`] when the optimized footprint still exceeds the
/// device.
pub fn profile_with_strategy(
    framework: Framework,
    model: &BuiltModel,
    gpu: &GpuSpec,
    hints: WorkloadHints,
    strategy: Strategy,
) -> Result<OptimizedProfile, OutOfMemory> {
    let resident_share = match strategy {
        Strategy::Baseline => 1.0,
        // Offloading activations also lets the planner reuse their
        // gradient-map mirrors, so capacity shrinks by the fraction of the
        // whole feature-map category.
        Strategy::Offload { fraction } => 1.0 - fraction.clamp(0.0, 1.0),
        Strategy::HalfPrecisionActivations => 0.5,
        // k checkpoints plus one live segment of activations, in the
        // deep-network regime (segments ≪ 64 layers).
        Strategy::Checkpoint { segments } => {
            let k = segments.max(2) as f64;
            (k / 64.0 + 1.0 / k).min(1.0)
        }
    };
    let scaled = WorkloadHints { memory_padding: hints.memory_padding * resident_share, ..hints };
    let profile = framework.profile(model, gpu, scaled, SpeedOptions::default(), None)?;
    let busy_s = profile.iteration.gpu_busy_s;
    let activations = memory_footprint(&model.graph).activations as f64;

    let overhead_s = match strategy {
        Strategy::Baseline => 0.0,
        Strategy::Offload { fraction } => {
            // Only the raw activations actually cross PCIe (out during
            // forward + back during backward); gradient maps are produced
            // and consumed on-device.
            let moved = activations
                * framework.allocator_slack()
                * hints.memory_padding
                * fraction.clamp(0.0, 1.0);
            let transfer_s = 2.0 * moved / gpu.bus.bandwidth_bytes;
            // PCIe DMA overlaps with compute; only the excess over the
            // hideable window extends the iteration (vDNN's "performance
            // loss grows once transfers outpace compute").
            (transfer_s - busy_s * 0.85).max(0.0)
        }
        // Cast kernels touch every activation once on store and once on
        // load; they are bandwidth-bound and overlap poorly.
        Strategy::HalfPrecisionActivations => 2.0 * activations / (gpu.memory_bw_bytes() * 0.8),
        // Recomputation ≈ one extra forward pass of (1 − 1/k) of the
        // network; forward is ~1/3 of a training iteration's compute.
        Strategy::Checkpoint { segments } => {
            busy_s * (1.0 / 3.0) * (1.0 - 1.0 / segments.max(2) as f64)
        }
    };

    let iteration_s = profile.iteration.wall_time_s + overhead_s;
    Ok(OptimizedProfile {
        feature_map_bytes: profile.memory.peak(MemoryCategory::FeatureMaps),
        total_bytes: profile.memory.total(),
        iteration_s,
        throughput: model.batch as f64 / iteration_s,
        overhead_s,
    })
}

/// Largest batch in `candidates` that fits the device under `strategy`
/// (`None` when none fits).
pub fn max_feasible_batch(
    kind: ModelKind,
    framework: Framework,
    gpu: &GpuSpec,
    strategy: Strategy,
    candidates: &[usize],
) -> Option<usize> {
    let mut best = None;
    for &batch in candidates {
        // A batch whose graph cannot be built (its tensors overflow
        // `usize` bytes) does not fit either.
        let Ok(model) = kind.build_full(batch) else { continue };
        let hints = framework.hints(kind, batch);
        if profile_with_strategy(framework, &model, gpu, hints, strategy).is_ok() {
            best = Some(batch);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_models::resnet::ResNetConfig;

    fn setup(batch: usize) -> (Framework, BuiltModel, GpuSpec, WorkloadHints) {
        let fw = Framework::mxnet();
        let model = ResNetConfig::resnet50().build(batch).unwrap();
        let hints = fw.hints(ModelKind::ResNet50, batch);
        (fw, model, GpuSpec::quadro_p4000(), hints)
    }

    #[test]
    fn baseline_is_the_framework_profile() {
        // Every supported pair at b4 and b16 that fits: the Baseline rung
        // must be the measured profile itself, bit for bit.
        let gpu = GpuSpec::quadro_p4000();
        for kind in ModelKind::ALL {
            for batch in [4, 16] {
                let model = kind.build_full(batch).unwrap();
                for fw in Framework::all().into_iter().filter(|fw| fw.supports(kind)) {
                    let hints = fw.hints(kind, batch);
                    let Ok(reference) =
                        fw.profile(&model, &gpu, hints, SpeedOptions::default(), None)
                    else {
                        continue;
                    };
                    let opt = profile_with_strategy(fw, &model, &gpu, hints, Strategy::Baseline)
                        .expect("the baseline fits wherever the profile does");
                    let pair = format!("{} / {} b{batch}", kind.name(), fw.name());
                    assert_eq!(
                        opt.iteration_s.to_bits(),
                        reference.iteration.wall_time_s.to_bits(),
                        "{pair}: iteration {} vs {}",
                        opt.iteration_s,
                        reference.iteration.wall_time_s
                    );
                    assert_eq!(opt.throughput.to_bits(), reference.throughput.to_bits(), "{pair}");
                    assert_eq!(opt.total_bytes, reference.memory.total(), "{pair}");
                    assert_eq!(opt.overhead_s, 0.0, "{pair}");
                }
            }
        }
    }

    #[test]
    fn offload_shrinks_memory_and_mostly_hides_traffic() {
        let (fw, model, gpu, hints) = setup(32);
        let base = profile_with_strategy(fw, &model, &gpu, hints, Strategy::Baseline).unwrap();
        let off =
            profile_with_strategy(fw, &model, &gpu, hints, Strategy::Offload { fraction: 0.6 })
                .unwrap();
        assert!(off.feature_map_bytes < base.feature_map_bytes / 2);
        // ResNet-50 at batch 32 computes long enough to hide the PCIe
        // traffic (vDNN's result for conv-heavy networks).
        assert!(off.overhead_s < 0.02 * base.iteration_s, "exposed {}", off.overhead_s);
    }

    #[test]
    fn checkpointing_trades_memory_for_recompute() {
        let (fw, model, gpu, hints) = setup(32);
        let base = profile_with_strategy(fw, &model, &gpu, hints, Strategy::Baseline).unwrap();
        let ck =
            profile_with_strategy(fw, &model, &gpu, hints, Strategy::Checkpoint { segments: 8 })
                .unwrap();
        assert!(ck.feature_map_bytes < base.feature_map_bytes / 3);
        assert!(ck.overhead_s > 0.0);
        assert!(ck.throughput < base.throughput);
        assert!(ck.throughput > base.throughput * 0.6, "recompute cost is bounded");
    }

    #[test]
    fn offload_unlocks_larger_batches() {
        // The paper's ResNet-50 tops out at 32 on the 8 GB card; offloading
        // 60 % of the feature maps must unlock 64 and beyond. A batch whose
        // tensors overflow `usize` bytes cannot be built and counts as not
        // fitting, without voiding the rest of the list.
        let gpu = GpuSpec::quadro_p4000();
        let candidates = [16, 32, 64, 128, 1 << 62];
        let base = max_feasible_batch(
            ModelKind::ResNet50,
            Framework::mxnet(),
            &gpu,
            Strategy::Baseline,
            &candidates,
        )
        .unwrap();
        let off = max_feasible_batch(
            ModelKind::ResNet50,
            Framework::mxnet(),
            &gpu,
            Strategy::Offload { fraction: 0.6 },
            &candidates,
        )
        .unwrap();
        assert_eq!(base, 32);
        assert!(off >= 64, "offload unlocked batch {off}");
    }

    #[test]
    fn half_precision_halves_feature_maps_cheaply() {
        let (fw, model, gpu, hints) = setup(32);
        let base = profile_with_strategy(fw, &model, &gpu, hints, Strategy::Baseline).unwrap();
        let half =
            profile_with_strategy(fw, &model, &gpu, hints, Strategy::HalfPrecisionActivations)
                .unwrap();
        assert!(half.feature_map_bytes <= base.feature_map_bytes / 2 + 1);
        // Cast traffic costs a few percent, far less than checkpointing.
        assert!(half.throughput > base.throughput * 0.85);
        let ck =
            profile_with_strategy(fw, &model, &gpu, hints, Strategy::Checkpoint { segments: 8 })
                .unwrap();
        assert!(half.throughput > ck.throughput);
    }

    #[test]
    fn full_offload_fraction_is_clamped() {
        let (fw, model, gpu, hints) = setup(8);
        let off =
            profile_with_strategy(fw, &model, &gpu, hints, Strategy::Offload { fraction: 2.0 })
                .unwrap();
        assert_eq!(off.feature_map_bytes, 0);
    }
}
