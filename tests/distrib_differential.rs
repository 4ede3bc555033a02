//! Differential test: the event-driven simulator must degenerate to the
//! closed-form model exactly when every feature that distinguishes them is
//! turned off — one single-shot bucket (so nothing pipelines), zero link
//! latency (the closed form charges latency once per exchange, the event
//! engine once per hop), no overlap credit and no stragglers. Under those
//! conditions both models compute `compute + comm(V)` and must agree to
//! float round-off, for every synchronisation strategy on every Fig. 10
//! cluster shape.
//!
//! The closed form lives only here, as the oracle: the event engine is the
//! one data-parallel model the product runs.

use tbd_distrib::{
    fig10_clusters, BackwardProfile, BucketingConfig, ClusterConfig, DataParallelSim, EventConfig,
    SyncStrategy,
};

/// The closed-form data-parallel model with no overlap credit: one
/// synchronous iteration costs `compute + comm`, where `comm` is one
/// exchange of the whole gradient on the slowest link of the reduction
/// path.
struct ClosedForm {
    compute_iter_s: f64,
    gradient_bytes: f64,
    per_gpu_batch: usize,
}

/// What the closed form predicts for one cluster.
struct ClosedProfile {
    iteration_s: f64,
    comm_s: f64,
    throughput: f64,
}

impl ClosedForm {
    fn simulate(&self, cluster: &ClusterConfig) -> ClosedProfile {
        let n = cluster.workers();
        let comm_s = if n <= 1 { 0.0 } else { self.comm_time(cluster) };
        let iteration_s = self.compute_iter_s + comm_s;
        let throughput = (n * self.per_gpu_batch) as f64 / iteration_s;
        ClosedProfile { iteration_s, comm_s, throughput }
    }

    fn comm_time(&self, cluster: &ClusterConfig) -> f64 {
        let n = cluster.workers() as f64;
        let v = self.gradient_bytes;
        let link = if cluster.machines > 1 { cluster.network } else { cluster.intra };
        match cluster.sync {
            SyncStrategy::ParameterServer => {
                // Push the gradient, pull the weights, serialised across
                // every worker not co-located with the server.
                let remote = if cluster.machines > 1 {
                    (cluster.machines - 1) * cluster.gpus_per_machine
                } else {
                    cluster.workers() - 1
                };
                link.latency_s + 2.0 * v * remote.max(1) as f64 / link.bandwidth_bytes
            }
            SyncStrategy::ShardedParameterServer => {
                2.0 * link.latency_s + 2.0 * (n - 1.0) / n * v / link.bandwidth_bytes
            }
            SyncStrategy::RingAllReduce => {
                link.latency_s + 2.0 * (n - 1.0) / n * v / link.bandwidth_bytes
            }
            SyncStrategy::HierarchicalAllReduce => {
                let g = cluster.gpus_per_machine as f64;
                let m = cluster.machines as f64;
                let mut t = 0.0;
                if cluster.gpus_per_machine > 1 {
                    t += 2.0 * (g - 1.0) * cluster.intra.latency_s
                        + 2.0 * (g - 1.0) / g * v / cluster.intra.bandwidth_bytes;
                }
                if cluster.machines > 1 {
                    t += 2.0 * (m - 1.0) * cluster.network.latency_s
                        + 2.0 * (m - 1.0) / m * v / cluster.network.bandwidth_bytes;
                }
                t
            }
        }
    }
}

const STRATEGIES: [SyncStrategy; 4] = [
    SyncStrategy::ParameterServer,
    SyncStrategy::ShardedParameterServer,
    SyncStrategy::RingAllReduce,
    SyncStrategy::HierarchicalAllReduce,
];

/// ResNet-50-like operating point (360 ms, 102 MB of gradients).
const CLOSED: ClosedForm =
    ClosedForm { compute_iter_s: 0.36, gradient_bytes: 102e6, per_gpu_batch: 32 };

/// The same worker for the event engine, its gradients over 32 layers.
fn resnet_like() -> DataParallelSim {
    let backward = BackwardProfile::analytic(CLOSED.compute_iter_s, CLOSED.gradient_bytes, 32);
    DataParallelSim { backward, per_gpu_batch: CLOSED.per_gpu_batch }
}

/// Strips the per-hop latency the closed form cannot express.
fn degenerate(mut cluster: ClusterConfig, sync: SyncStrategy) -> ClusterConfig {
    cluster.sync = sync;
    cluster.network.latency_s = 0.0;
    cluster.intra.latency_s = 0.0;
    cluster
}

fn relative_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

#[test]
fn event_engine_matches_closed_form_when_degenerate() {
    let sim = resnet_like();
    let config =
        EventConfig { bucketing: BucketingConfig::SingleShot, stragglers: None, tie_break_salt: 0 };
    for (label, base) in fig10_clusters() {
        for sync in STRATEGIES {
            let cluster = degenerate(base, sync);
            let closed = CLOSED.simulate(&cluster);
            let event = sim.simulate_events(&cluster, &config, None);
            let point = format!("{label} / {}", sync.name());
            assert!(
                relative_diff(event.profile.iteration_s, closed.iteration_s) <= 1e-9,
                "{point}: iteration {} (event) vs {} (closed form)",
                event.profile.iteration_s,
                closed.iteration_s
            );
            assert!(
                relative_diff(event.total_comm_s, closed.comm_s) <= 1e-9,
                "{point}: comm {} (event) vs {} (closed form)",
                event.total_comm_s,
                closed.comm_s
            );
            assert!(
                relative_diff(event.profile.throughput, closed.throughput) <= 1e-9,
                "{point}: throughput {} (event) vs {} (closed form)",
                event.profile.throughput,
                closed.throughput
            );
        }
    }
}

#[test]
fn degenerate_single_shot_has_no_overlap_to_derive() {
    // The single-shot bucket only becomes ready when the whole backward
    // pass finishes, so every communication second is exposed and the
    // derived overlap is exactly the closed form's zero.
    let sim = resnet_like();
    let config =
        EventConfig { bucketing: BucketingConfig::SingleShot, stragglers: None, tie_break_salt: 0 };
    for (label, base) in fig10_clusters() {
        for sync in STRATEGIES {
            let cluster = degenerate(base, sync);
            let event = sim.simulate_events(&cluster, &config, None);
            if cluster.workers() > 1 {
                assert_eq!(
                    event.exposed_comm_s.to_bits(),
                    event.total_comm_s.to_bits(),
                    "{label} / {}: single-shot exchange must be fully exposed",
                    sync.name()
                );
                assert_eq!(event.overlap, 0.0, "{label} / {}", sync.name());
            }
        }
    }
}
