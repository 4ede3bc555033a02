//! Ablation: parameter-server (MXNet kvstore) vs ring all-reduce (NCCL)
//! gradient synchronisation across the Fig. 10 cluster configurations.

use tbd_core::{Framework, GpuSpec, Interconnect, ModelKind, Suite};
use tbd_distrib::{ClusterConfig, DataParallelSim, EventConfig, SyncStrategy};

fn main() {
    let suite = Suite::new(GpuSpec::quadro_p4000());
    let m = suite.run(ModelKind::ResNet50, Framework::mxnet(), 16).unwrap();
    let model = ModelKind::ResNet50.build_full(16).unwrap();
    let sim = DataParallelSim::from_iteration(&model.graph, &m.iteration, 16);
    println!("Synchronisation-strategy ablation (ResNet-50, per-GPU batch 16)");
    println!("{:<22} {:>16} {:>16}", "configuration", "param-server", "ring all-reduce");
    let configs = [
        ("2M1G ethernet", ClusterConfig::multi_machine(2, Interconnect::ethernet_1g())),
        ("2M1G infiniband", ClusterConfig::multi_machine(2, Interconnect::infiniband_100g())),
        ("4M1G infiniband", ClusterConfig::multi_machine(4, Interconnect::infiniband_100g())),
        ("1M4G", ClusterConfig::single_machine(4)),
    ];
    for (label, config) in configs {
        let [ps, ar] = [SyncStrategy::ParameterServer, SyncStrategy::RingAllReduce].map(|sync| {
            let cluster = ClusterConfig { sync, ..config };
            sim.simulate_events(&cluster, &EventConfig::default(), None).profile.throughput
        });
        println!("{:<22} {:>12.1}/s {:>14.1}/s", label, ps, ar);
    }
    println!("\nthe parameter server serialises remote workers through one link, so its");
    println!("gap to all-reduce widens with machine count — why NCCL-style collectives");
    println!("took over after the paper's era.");
}
