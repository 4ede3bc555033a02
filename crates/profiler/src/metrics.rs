//! Workload profiling (§3.4.3): the one entry point that builds a
//! workload's hints and simulates its paper-scale iteration.

use std::sync::Arc;

use tbd_frameworks::{Framework, SpeedOptions, WorkloadProfile};
use tbd_gpusim::{GpuSpec, OutOfMemory};
use tbd_graph::TraceRecorder;
use tbd_models::{BuiltModel, ModelKind};

/// Profiles `model` under `framework` on `gpu` at the `speed` tier,
/// applying the model-appropriate
/// [`WorkloadHints`](tbd_frameworks::WorkloadHints). With a `tracer`, the
/// allocator, launch and kernel events are recorded into it; the profile
/// is bitwise the same either way.
///
/// # Errors
///
/// Returns [`OutOfMemory`] when the mini-batch does not fit the device —
/// the infeasible configurations the paper's figures leave blank.
pub fn profile_workload(
    kind: ModelKind,
    framework: Framework,
    model: &BuiltModel,
    gpu: &GpuSpec,
    speed: SpeedOptions,
    tracer: Option<&Arc<TraceRecorder>>,
) -> Result<WorkloadProfile, OutOfMemory> {
    framework.profile(model, gpu, framework.hints(kind, model.batch), speed, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_frameworks::WorkloadHints;
    use tbd_gpusim::MemoryCategory;
    use tbd_models::resnet::ResNetConfig;

    #[test]
    fn metrics_cover_every_paper_quantity() {
        let model = ResNetConfig::tiny().build(4).unwrap();
        let gpu = GpuSpec::quadro_p4000();
        let (fw, speed) = (Framework::tensorflow(), SpeedOptions::default());
        let p = profile_workload(ModelKind::ResNet50, fw, &model, &gpu, speed, None).unwrap();
        assert!(p.throughput > 0.0);
        assert!((0.0..=1.0).contains(&p.iteration.gpu_utilization));
        assert!((0.0..=1.0).contains(&p.iteration.fp32_utilization));
        assert!((0.0..=1.0).contains(&p.iteration.cpu_utilization));
        assert!(p.memory.peak(MemoryCategory::Weights) > 0);
        assert_eq!(p.batch, 4);
    }

    #[test]
    fn hints_are_applied_per_model() {
        // The A3C hints force a serial environment cost, so throughput is
        // far below what the tiny network alone would allow.
        let model = tbd_models::a3c::A3cConfig::tiny().build(8).unwrap();
        let gpu = GpuSpec::quadro_p4000();
        let fw = Framework::mxnet();
        let speed = SpeedOptions::default();
        let with_hints = profile_workload(ModelKind::A3c, fw, &model, &gpu, speed, None).unwrap();
        let without = fw.profile(&model, &gpu, WorkloadHints::default(), speed, None).unwrap();
        assert!(with_hints.throughput < without.throughput / 2.0);
    }
}
