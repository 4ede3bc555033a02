//! The benchmark-suite runner.

use std::fmt;

use tbd_frameworks::{Framework, SpeedOptions, WorkloadProfile};
use tbd_gpusim::{GpuSpec, OutOfMemory};
use tbd_graph::GraphError;
use tbd_models::ModelKind;
use tbd_profiler::profile_workload;

/// The mini-batch axis each workload sweeps in the paper's Fig. 4–6.
///
/// Note: the paper's Fig. 4a/4b x-axes extend to 64 for the image
/// classifiers, but its own Fig. 9a memory measurements (~7 GB at batch 32
/// on an 8 GB card) imply 64 cannot fit; this reproduction follows the
/// memory measurements and sweeps to 32 (see `EXPERIMENTS.md`).
pub fn paper_batches(kind: ModelKind) -> Vec<usize> {
    match kind {
        ModelKind::ResNet50 | ModelKind::InceptionV3 => vec![4, 8, 16, 32],
        ModelKind::Seq2Seq => vec![4, 8, 16, 32, 64, 128],
        ModelKind::Transformer => vec![64, 256, 1024, 2048, 4096],
        ModelKind::Wgan => vec![4, 8, 16, 32, 64],
        ModelKind::DeepSpeech2 => vec![1, 2, 3, 4, 5],
        ModelKind::A3c => vec![8, 16, 32, 64, 128],
        ModelKind::FasterRcnn => vec![1],
    }
}

/// Why [`Suite::run`] produced no profile.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The paper-scale graph could not be built, e.g. a batch whose
    /// tensors overflow `usize` bytes.
    Graph(GraphError),
    /// The mini-batch does not fit the device — the configurations the
    /// paper's figures leave blank.
    OutOfMemory(OutOfMemory),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Graph(e) => e.fmt(f),
            RunError::OutOfMemory(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

impl From<GraphError> for RunError {
    fn from(e: GraphError) -> Self {
        RunError::Graph(e)
    }
}

impl From<OutOfMemory> for RunError {
    fn from(e: OutOfMemory) -> Self {
        RunError::OutOfMemory(e)
    }
}

/// Runs TBD workloads on one device.
#[derive(Debug, Clone)]
pub struct Suite {
    gpu: GpuSpec,
}

impl Suite {
    /// Creates a suite bound to a device.
    pub fn new(gpu: GpuSpec) -> Self {
        Suite { gpu }
    }

    /// The device this suite profiles on.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Builds the paper-scale workload at `batch` and profiles one
    /// (unfused f32) training iteration under `framework`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::OutOfMemory`] for mini-batches that exceed the
    /// device and [`RunError::Graph`] when the graph cannot be built.
    pub fn run(
        &self,
        kind: ModelKind,
        framework: Framework,
        batch: usize,
    ) -> Result<WorkloadProfile, RunError> {
        let model = kind.build_full(batch)?;
        Ok(profile_workload(kind, framework, &model, &self.gpu, SpeedOptions::default(), None)?)
    }

    /// Sweeps the paper's batch axis for `kind` under `framework`,
    /// returning one entry per batch (`None` where the batch OOMs).
    pub fn sweep(
        &self,
        kind: ModelKind,
        framework: Framework,
    ) -> Vec<(usize, Option<WorkloadProfile>)> {
        paper_batches(kind).into_iter().map(|b| (b, self.run(kind, framework, b).ok())).collect()
    }

    /// All `(model, framework)` pairs the paper implements (Table 2).
    pub fn supported_pairs() -> Vec<(ModelKind, Framework)> {
        let mut pairs = Vec::new();
        for &kind in &ModelKind::ALL {
            for fw in Framework::all() {
                if fw.supports(kind) {
                    pairs.push((kind, fw));
                }
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_batch_axes_match_figures() {
        assert_eq!(paper_batches(ModelKind::Transformer), vec![64, 256, 1024, 2048, 4096]);
        assert_eq!(paper_batches(ModelKind::FasterRcnn), vec![1]);
        assert_eq!(paper_batches(ModelKind::DeepSpeech2).len(), 5);
    }

    #[test]
    fn supported_pairs_count_matches_table2() {
        // 3 + 3 + 2 + 1 + 2 + 1 + 1 + 1 = 14 implementations — the 14 bars
        // of the paper's Fig. 7.
        assert_eq!(Suite::supported_pairs().len(), 14);
    }

    #[test]
    fn distributed_run_reproduces_fig10_ordering() {
        use tbd_distrib::{ClusterConfig, DataParallelSim, EventConfig};
        let suite = Suite::new(GpuSpec::quadro_p4000());
        let m = suite.run(ModelKind::A3c, Framework::mxnet(), 32).unwrap();
        let model = ModelKind::A3c.build_full(32).unwrap();
        let worker = DataParallelSim::from_iteration(&model.graph, &m.iteration, 32);
        let throughput = |gpus| {
            let cluster = ClusterConfig::single_machine(gpus);
            worker.simulate_events(&cluster, &EventConfig::default(), None).profile.throughput
        };
        assert!(throughput(4) > 2.0 * throughput(1));
    }

    #[test]
    fn overflowing_batch_is_an_error_not_a_panic() {
        let suite = Suite::new(GpuSpec::quadro_p4000());
        let err = suite.run(ModelKind::ResNet50, Framework::mxnet(), 1 << 62).unwrap_err();
        assert!(matches!(err, RunError::Graph(GraphError::ShapeOverflow(_))), "{err:?}");
    }

    #[test]
    fn suite_runs_a_small_paper_workload() {
        // A3C is the smallest full-scale workload — cheap enough for a
        // unit test.
        let suite = Suite::new(GpuSpec::quadro_p4000());
        let m = suite.run(ModelKind::A3c, Framework::mxnet(), 8).unwrap();
        assert!(m.throughput > 0.0);
        assert!(m.memory.total() > 0);
    }
}
