//! Data-parallel distributed training simulation (paper §4.5, Fig. 10).
//!
//! Data parallelism gives every GPU a full model replica and a slice of
//! the mini-batch; after each backward pass the workers exchange weight
//! updates. Per-iteration time is therefore
//! `compute(per-GPU batch) + exposed communication`, where the exposed
//! part is whatever gradient traffic cannot hide under the backward pass.
//! The communication term depends on the synchronisation strategy
//! (parameter server as in MXNet's kvstore, or ring all-reduce as in NCCL)
//! and on the slowest interconnect on the reduction path — which is how
//! Gigabit Ethernet destroys two-machine scaling while 100 Gb InfiniBand
//! and intra-machine PCIe 3.0 preserve it (Observation 13).
//!
//! # Examples
//!
//! ```
//! use tbd_distrib::{BackwardProfile, ClusterConfig, DataParallelSim, EventConfig};
//! use tbd_graph::trace::{EventKind, TraceRecorder};
//! use tbd_gpusim::Interconnect;
//!
//! // ResNet-50-like: 360 ms per iteration, 102 MB of gradients over 50 layers.
//! let sim = DataParallelSim {
//!     backward: BackwardProfile::analytic(0.36, 102e6, 50),
//!     per_gpu_batch: 32,
//! };
//! let config = EventConfig::default();
//! let ethernet = ClusterConfig::multi_machine(2, Interconnect::ethernet_1g());
//! let single = sim.simulate_events(&ClusterConfig::single_machine(1), &config, None);
//! // A trace sink records one communication span per gradient bucket and
//! // leaves the outcome untouched.
//! let tracer = TraceRecorder::shared();
//! let traced = sim.simulate_events(&ethernet, &config, Some(&tracer));
//! assert_eq!(traced, sim.simulate_events(&ethernet, &config, None));
//! let spans = tracer.drain();
//! let comm = spans.iter().filter(|e| e.kind == EventKind::Communication).count();
//! assert_eq!(comm, traced.buckets.len());
//! assert!(traced.profile.throughput < single.profile.throughput, "Observation 13");
//! ```

pub mod bucket;
pub mod elastic;
pub mod event;
pub mod fault;

pub use bucket::{build_buckets, BackwardProfile, Bucket, BucketingConfig, LayerGrad};
pub use elastic::{
    survivor_cluster, ChurnSpec, ElasticConfig, ElasticOutcome, EpochRecord, OutageWindow,
    WorkerState,
};
pub use event::{BucketOutcome, EventConfig, EventOutcome};
pub use fault::{mix64, unit, StragglerSpec};

use tbd_gpusim::{Interconnect, IterationProfile};
use tbd_graph::lower::weight_grad_bytes_by_consumer;
use tbd_graph::Graph;

/// Gradient-synchronisation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncStrategy {
    /// Central parameter server: every worker pushes its full gradient and
    /// pulls the full updated weights each iteration (MXNet kvstore).
    ParameterServer,
    /// Sharded parameter server: the server role is split across all
    /// workers, so each pushes/pulls only the `(n−1)/n` of its gradient
    /// held on remote shards and every shard's link works in parallel.
    ShardedParameterServer,
    /// Ring all-reduce: each worker moves `2·(n−1)/n` of the gradient
    /// volume (NCCL).
    RingAllReduce,
    /// Hierarchical all-reduce: intra-machine reduce-scatter over PCIe, an
    /// inter-machine exchange over the network (through each machine's
    /// single NIC), then an intra-machine broadcast — the slow link only
    /// carries the cross-machine term.
    HierarchicalAllReduce,
}

impl SyncStrategy {
    /// Human-readable strategy name used in trace spans and reports.
    pub fn name(&self) -> &'static str {
        match self {
            SyncStrategy::ParameterServer => "parameter server push+pull",
            SyncStrategy::ShardedParameterServer => "sharded parameter server",
            SyncStrategy::RingAllReduce => "ring all-reduce",
            SyncStrategy::HierarchicalAllReduce => "hierarchical all-reduce",
        }
    }
}

/// A cluster configuration from the paper's Fig. 10 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of machines.
    pub machines: usize,
    /// GPUs per machine.
    pub gpus_per_machine: usize,
    /// Machine-to-machine link.
    pub network: Interconnect,
    /// Intra-machine GPU link (PCIe 3.0 in the paper's nodes).
    pub intra: Interconnect,
    /// Synchronisation strategy.
    pub sync: SyncStrategy,
}

impl ClusterConfig {
    /// Single machine with `gpus` GPUs on PCIe (the paper's 1M1G/1M2G/1M4G).
    pub fn single_machine(gpus: usize) -> Self {
        ClusterConfig {
            machines: 1,
            gpus_per_machine: gpus,
            network: Interconnect::infiniband_100g(),
            intra: Interconnect::pcie3_x16(),
            sync: SyncStrategy::RingAllReduce,
        }
    }

    /// Multi-machine cluster with one GPU each over the given network
    /// (the paper's 2M1G Ethernet / InfiniBand points).
    pub fn multi_machine(machines: usize, network: Interconnect) -> Self {
        ClusterConfig {
            machines,
            gpus_per_machine: 1,
            network,
            intra: Interconnect::pcie3_x16(),
            sync: SyncStrategy::ParameterServer,
        }
    }

    /// A fully explicit cluster (machines × GPUs, network, strategy) with
    /// PCIe 3.0 inside each machine.
    pub fn custom(
        machines: usize,
        gpus_per_machine: usize,
        network: Interconnect,
        sync: SyncStrategy,
    ) -> Self {
        ClusterConfig {
            machines,
            gpus_per_machine,
            network,
            intra: Interconnect::pcie3_x16(),
            sync,
        }
    }

    /// Multi-machine, multi-GPU cluster reducing hierarchically: PCIe
    /// inside each machine, `network` between machines.
    pub fn hierarchical(machines: usize, gpus_per_machine: usize, network: Interconnect) -> Self {
        Self::custom(machines, gpus_per_machine, network, SyncStrategy::HierarchicalAllReduce)
    }

    /// Total worker (GPU) count.
    pub fn workers(&self) -> usize {
        self.machines * self.gpus_per_machine
    }

    /// Short label in the paper's notation (`2M1G`, `1M4G`, …).
    pub fn label(&self) -> String {
        format!("{}M{}G", self.machines, self.gpus_per_machine)
    }

    /// Fleet cost in USD of one training iteration that takes
    /// `iteration_s` seconds, with every device rented at
    /// `price_per_hour` (see [`GpuSpec::price_per_hour`]) — the TCO
    /// dimension of the capacity planner. Every worker is billed for the
    /// full iteration, stragglers included: idle waiting at the
    /// synchronisation barrier costs the same rented dollars as compute,
    /// which is exactly why exposed communication shows up in $/iteration.
    ///
    /// [`GpuSpec::price_per_hour`]: tbd_gpusim::GpuSpec::price_per_hour
    pub fn cost_per_iteration(&self, price_per_hour: f64, iteration_s: f64) -> f64 {
        self.workers() as f64 * price_per_hour / 3600.0 * iteration_s
    }
}

/// One data-parallel worker: its per-layer backward profile and the
/// samples it processes per iteration. The event engine
/// ([`DataParallelSim::simulate_events`]) replays it over any cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct DataParallelSim {
    /// Per-iteration compute time and per-layer gradient ready times of
    /// one worker at its per-GPU batch.
    pub backward: BackwardProfile,
    /// Samples processed per worker per iteration.
    pub per_gpu_batch: usize,
}

/// Headline numbers of one simulated cluster iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterProfile {
    /// Aggregate training throughput in samples per second.
    pub throughput: f64,
    /// Wall time of one synchronous iteration.
    pub iteration_s: f64,
    /// Total link occupancy of the gradient exchange.
    pub comm_s: f64,
    /// Scaling efficiency versus a single worker: `throughput / (n ×
    /// single-GPU throughput)`.
    pub scaling_efficiency: f64,
}

impl DataParallelSim {
    /// The worker of one simulated training iteration of `graph`: each
    /// weight gradient becomes ready when the last backward kernel of the
    /// node that consumes its parameter finishes on the iteration's kernel
    /// timeline ([`BackwardProfile::from_records`]).
    pub fn from_iteration(
        graph: &Graph,
        iteration: &IterationProfile,
        per_gpu_batch: usize,
    ) -> Self {
        let backward = BackwardProfile::from_records(
            iteration.wall_time_s,
            &iteration.records,
            &weight_grad_bytes_by_consumer(graph),
        );
        DataParallelSim { backward, per_gpu_batch }
    }

    /// Per-iteration compute time (forward + backward) of one worker.
    pub fn compute_iter_s(&self) -> f64 {
        self.backward.compute_iter_s
    }

    /// Bytes of gradients exchanged per iteration (at least one byte).
    pub fn gradient_bytes(&self) -> f64 {
        self.backward.total_bytes().max(1.0)
    }
}

/// The paper's Fig. 10 cluster sweep: single-machine PCIe scaling plus the
/// two-machine Ethernet/InfiniBand points, each under its paper-matching
/// strategy (NCCL-style ring inside a machine, MXNet kvstore across).
pub fn fig10_clusters() -> Vec<(String, ClusterConfig)> {
    vec![
        ("1M1G".to_string(), ClusterConfig::single_machine(1)),
        ("1M2G pcie".to_string(), ClusterConfig::single_machine(2)),
        ("1M4G pcie".to_string(), ClusterConfig::single_machine(4)),
        ("2M1G ethernet".to_string(), ClusterConfig::multi_machine(2, Interconnect::ethernet_1g())),
        (
            "2M1G infiniband".to_string(),
            ClusterConfig::multi_machine(2, Interconnect::infiniband_100g()),
        ),
    ]
}

/// The 1M1G→4M4G scaling grid behind `tbd scale --sweep`: machines ×
/// GPUs-per-machine ∈ {1,2,4}², single-machine shapes on PCIe ring,
/// multi-machine shapes once per network (parameter server for 1-GPU
/// machines as in the paper, hierarchical all-reduce when both dimensions
/// scale).
pub fn scale_grid() -> Vec<(String, ClusterConfig)> {
    let mut grid = Vec::new();
    for machines in [1usize, 2, 4] {
        for gpus in [1usize, 2, 4] {
            if machines == 1 {
                if gpus == 1 {
                    grid.push(("1M1G".to_string(), ClusterConfig::single_machine(1)));
                } else {
                    grid.push((format!("1M{gpus}G pcie"), ClusterConfig::single_machine(gpus)));
                }
                continue;
            }
            for (net_name, network) in [
                ("ethernet", Interconnect::ethernet_1g()),
                ("infiniband", Interconnect::infiniband_100g()),
            ] {
                let sync = if gpus == 1 {
                    SyncStrategy::ParameterServer
                } else {
                    SyncStrategy::HierarchicalAllReduce
                };
                grid.push((
                    format!("{machines}M{gpus}G {net_name}"),
                    ClusterConfig::custom(machines, gpus, network, sync),
                ));
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ResNet-50-like: 360 ms compute at batch 32, 102 MB of gradients.
    fn resnet_like() -> DataParallelSim {
        DataParallelSim { backward: BackwardProfile::analytic(0.36, 102e6, 50), per_gpu_batch: 32 }
    }

    fn run(cluster: &ClusterConfig) -> EventOutcome {
        resnet_like().simulate_events(cluster, &EventConfig::default(), None)
    }

    /// Link time of one unbucketed exchange: the whole gradient as one
    /// transfer, so each strategy's latency is charged exactly once.
    fn single_shot_comm_s(cluster: &ClusterConfig) -> f64 {
        let config = EventConfig { bucketing: BucketingConfig::SingleShot, ..Default::default() };
        resnet_like().simulate_events(cluster, &config, None).total_comm_s
    }

    #[test]
    fn cost_scales_with_workers_price_and_time() {
        let c4 = ClusterConfig::hierarchical(2, 2, Interconnect::infiniband_100g());
        let c1 = ClusterConfig::single_machine(1);
        // 4 workers × $0.9/h × 0.5 s = 4 × 0.9/3600 × 0.5 = $0.0005.
        assert!((c4.cost_per_iteration(0.9, 0.5) - 0.0005).abs() < 1e-12);
        assert_eq!(c1.cost_per_iteration(0.9, 0.5) * 4.0, c4.cost_per_iteration(0.9, 0.5));
        // Monotone in price and zero when costing is disabled.
        assert!(c4.cost_per_iteration(1.8, 0.5) > c4.cost_per_iteration(0.9, 0.5));
        assert_eq!(c4.cost_per_iteration(0.0, 0.5), 0.0);
    }

    #[test]
    fn single_worker_has_no_communication() {
        let p = run(&ClusterConfig::single_machine(1)).profile;
        assert_eq!(p.comm_s, 0.0);
        assert!((p.scaling_efficiency - 1.0).abs() < 1e-9);
        assert!((p.throughput - 32.0 / 0.36).abs() < 1e-6);
    }

    #[test]
    fn ethernet_destroys_two_machine_scaling() {
        // Observation 13: 2M1G over Ethernet performs *worse* than 1M1G.
        let single = run(&ClusterConfig::single_machine(1)).profile;
        let eth = run(&ClusterConfig::multi_machine(2, Interconnect::ethernet_1g())).profile;
        assert!(eth.throughput < single.throughput, "{} vs {}", eth.throughput, single.throughput);
        assert!(eth.scaling_efficiency < 0.5);
    }

    #[test]
    fn infiniband_restores_two_machine_scaling() {
        let ib = run(&ClusterConfig::multi_machine(2, Interconnect::infiniband_100g())).profile;
        assert!(ib.scaling_efficiency > 0.9, "eff {}", ib.scaling_efficiency);
        let eth = run(&ClusterConfig::multi_machine(2, Interconnect::ethernet_1g())).profile;
        assert!(ib.throughput > 3.0 * eth.throughput);
    }

    #[test]
    fn pcie_multi_gpu_scales_reasonably() {
        let g2 = run(&ClusterConfig::single_machine(2)).profile;
        let g4 = run(&ClusterConfig::single_machine(4)).profile;
        assert!(g2.scaling_efficiency > 0.9);
        assert!(g4.scaling_efficiency > 0.85);
        assert!(g4.throughput > g2.throughput);
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(ClusterConfig::single_machine(4).label(), "1M4G");
        assert_eq!(ClusterConfig::multi_machine(2, Interconnect::ethernet_1g()).label(), "2M1G");
    }

    #[test]
    fn ring_allreduce_volume_grows_sublinearly() {
        let t2 = single_shot_comm_s(&ClusterConfig::single_machine(2));
        let t4 = single_shot_comm_s(&ClusterConfig::single_machine(4));
        // 2(n−1)/n: 1.0× at n=2 → 1.5× at n=4.
        assert!((t4 / t2 - 1.5).abs() < 0.05, "ratio {}", t4 / t2);
    }

    #[test]
    fn single_machine_parameter_server_serialises_its_workers() {
        // Regression: the server's PCIe link must serialise (workers − 1)
        // push+pull exchanges; an earlier model charged 1M4G the same
        // single transfer as 1M1G.
        let mut cfg = ClusterConfig::single_machine(4);
        cfg.sync = SyncStrategy::ParameterServer;
        let four = single_shot_comm_s(&cfg);
        cfg.gpus_per_machine = 2;
        let two = single_shot_comm_s(&cfg);
        // 3 serialised transfers vs 1: the bandwidth term triples.
        let bw = |comm_s: f64| comm_s - Interconnect::pcie3_x16().latency_s;
        assert!(
            (bw(four) / bw(two) - 3.0).abs() < 1e-9,
            "1M4G must serialise 3 transfers vs 1M2G's 1: {four} vs {two}"
        );
        // And a 4-GPU PS pays strictly more than a 4-GPU ring.
        assert!(four > single_shot_comm_s(&ClusterConfig::single_machine(4)));
    }

    #[test]
    fn hierarchical_beats_flat_ring_across_slow_networks() {
        // 2 machines × 4 GPUs over Ethernet: the flat ring drags 7/8 of the
        // volume through the slow link, the hierarchical reduction only 1/2.
        let eth = Interconnect::ethernet_1g();
        let flat = ClusterConfig::custom(2, 4, eth, SyncStrategy::RingAllReduce);
        let hier = ClusterConfig::hierarchical(2, 4, eth);
        let t_flat = run(&flat).total_comm_s;
        let t_hier = run(&hier).total_comm_s;
        assert!(t_hier < t_flat, "hierarchical {t_hier} vs flat {t_flat}");
        // Single machine: hierarchy degenerates to the intra-machine term.
        let one = ClusterConfig::custom(1, 4, eth, SyncStrategy::HierarchicalAllReduce);
        assert!(run(&one).total_comm_s < t_hier);
    }

    #[test]
    fn sharded_parameter_server_parallelises_the_server_link() {
        let central = ClusterConfig::multi_machine(4, Interconnect::ethernet_1g());
        let sharded = ClusterConfig { sync: SyncStrategy::ShardedParameterServer, ..central };
        let c = run(&central);
        let s = run(&sharded);
        // Central serialises 3 remote workers; shards move (n−1)/n in
        // parallel — roughly 4× less wire time at n = 4.
        assert!(
            s.total_comm_s < c.total_comm_s / 3.0,
            "sharded {} vs central {}",
            s.total_comm_s,
            c.total_comm_s
        );
        assert!(s.profile.throughput > c.profile.throughput);
    }
}
