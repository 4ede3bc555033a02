//! Workload metric assembly (§3.4.3).

use tbd_frameworks::{Framework, SpeedOptions, WorkloadProfile};
use tbd_gpusim::{GpuSpec, MemoryBreakdown, OutOfMemory};
use tbd_models::{BuiltModel, ModelKind};

/// The full §3.4.3 metric set for one workload × framework × device run.
#[derive(Debug, Clone)]
pub struct WorkloadMetrics {
    /// Workload identity.
    pub model: ModelKind,
    /// Framework name.
    pub framework: &'static str,
    /// Device name.
    pub gpu: String,
    /// Mini-batch size.
    pub batch: usize,
    /// Training throughput in samples per second.
    pub throughput: f64,
    /// GPU compute utilisation (Eq. 1), 0–1.
    pub gpu_utilization: f64,
    /// FP32 utilisation (Eq. 2), 0–1.
    pub fp32_utilization: f64,
    /// Average CPU utilisation across all cores (Eq. 3), 0–1.
    pub cpu_utilization: f64,
    /// Peak memory per category.
    pub memory: MemoryBreakdown,
    /// Full per-iteration profile (kernel trace etc.).
    pub profile: WorkloadProfile,
}

/// Profiles `model` under `framework` on `gpu`, applying the
/// model-appropriate [`WorkloadHints`](tbd_frameworks::WorkloadHints).
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
) -> Result<WorkloadMetrics, OutOfMemory> {
    let hints = framework.hints(kind, model.batch);
    let profile = framework.profile(model, gpu, hints, SpeedOptions::default(), None)?;
    Ok(WorkloadMetrics {
        model: kind,
        framework: framework.name(),
        gpu: gpu.name.clone(),
        batch: model.batch,
        throughput: profile.throughput,
        gpu_utilization: profile.iteration.gpu_utilization,
        fp32_utilization: profile.iteration.fp32_utilization,
        cpu_utilization: profile.iteration.cpu_utilization,
        memory: profile.memory,
        profile,
    })
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
        let m = profile_workload(ModelKind::ResNet50, Framework::tensorflow(), &model, &gpu)
            .unwrap();
        assert!(m.throughput > 0.0);
        assert!((0.0..=1.0).contains(&m.gpu_utilization));
        assert!((0.0..=1.0).contains(&m.fp32_utilization));
        assert!((0.0..=1.0).contains(&m.cpu_utilization));
        assert!(m.memory.peak(MemoryCategory::Weights) > 0);
        assert_eq!(m.framework, "TensorFlow");
        assert_eq!(m.batch, 4);
    }

    #[test]
    fn hints_are_applied_per_model() {
        // The A3C hints force a serial environment cost, so throughput is
        // far below what the tiny network alone would allow.
        let model = tbd_models::a3c::A3cConfig::tiny().build(8).unwrap();
        let gpu = GpuSpec::quadro_p4000();
        let with_hints =
            profile_workload(ModelKind::A3c, Framework::mxnet(), &model, &gpu).unwrap();
        let without = Framework::mxnet().profile(&model, &gpu, WorkloadHints::default(), SpeedOptions::default(), None).unwrap();
        assert!(with_hints.throughput < without.throughput / 2.0);
    }
}
