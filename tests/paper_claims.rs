//! Qualitative claims lifted from the paper's figures, asserted against
//! the simulation.
//!
//! These are *ordering* claims, not absolute numbers: the reproduction
//! must reproduce the paper's shapes (Fig. 5 utilisation ordering, Fig. 9
//! memory composition, Fig. 10 interconnect sensitivity), and a
//! regression that flips one of them is a modelling bug even if every
//! individual quantity still looks plausible.

use tbd_core::{Framework, GpuSpec, Interconnect, MemoryCategory, ModelKind, Suite};
use tbd_distrib::{BackwardProfile, ClusterConfig, DataParallelSim, EventConfig};
use tbd_graph::lower::memory_footprint;

/// Fig. 5: at comparable batch sizes, RNN-based models keep the GPU far
/// less busy than CNNs — the LSTM's many small kernels cannot fill the
/// machine (Observation 7).
#[test]
fn fig5_rnn_gpu_utilization_below_cnn() {
    let suite = Suite::new(GpuSpec::quadro_p4000());
    let batch = 16;
    let cnn = suite.run(ModelKind::ResNet50, Framework::mxnet(), batch).expect("resnet runs");
    let rnn = suite.run(ModelKind::Seq2Seq, Framework::mxnet(), batch).expect("seq2seq runs");
    assert!(
        rnn.iteration.gpu_utilization < cnn.iteration.gpu_utilization,
        "Seq2Seq GPU utilisation ({:.1}%) must sit below ResNet-50's ({:.1}%) at batch {batch}",
        100.0 * rnn.iteration.gpu_utilization,
        100.0 * cnn.iteration.gpu_utilization
    );
    // Same ordering for FP32 utilisation (Fig. 6 shape).
    assert!(rnn.iteration.fp32_utilization < cnn.iteration.fp32_utilization);
}

/// Fig. 9: feature maps are the dominant memory category for CNNs — more
/// than weights, gradients, workspace or dynamic data individually, and
/// the largest single share of the total.
#[test]
fn fig9_feature_maps_dominate_cnn_memory() {
    let suite = Suite::new(GpuSpec::quadro_p4000());
    for kind in [ModelKind::ResNet50, ModelKind::InceptionV3] {
        let m = suite.run(kind, Framework::tensorflow(), 16).expect("cnn runs");
        let feature_maps = m.memory.peak(MemoryCategory::FeatureMaps);
        for category in MemoryCategory::ALL {
            if category != MemoryCategory::FeatureMaps {
                assert!(
                    feature_maps > m.memory.peak(category),
                    "{}: feature maps ({feature_maps} B) must exceed {category} ({} B)",
                    kind.name(),
                    m.memory.peak(category)
                );
            }
        }
        assert!(
            m.memory.feature_map_fraction() > 0.5,
            "{}: feature maps must be the majority of {} B",
            kind.name(),
            m.memory.total()
        );
    }
}

/// Fig. 10: on 1 Gb/s Ethernet, adding a second machine *lowers*
/// throughput below a single machine (communication swamps compute), and
/// InfiniBand recovers the scaling.
#[test]
fn fig10_ethernet_hurts_and_infiniband_recovers() {
    let suite = Suite::new(GpuSpec::quadro_p4000());
    let batch = 16;
    let m = suite.run(ModelKind::ResNet50, Framework::mxnet(), batch).expect("resnet runs");
    let model = ModelKind::ResNet50.build_full(batch).expect("builds");
    let sim = DataParallelSim::from_iteration(&model.graph, &m.iteration, batch);
    let run = |cluster: ClusterConfig| {
        sim.simulate_events(&cluster, &EventConfig::default(), None).profile
    };
    let single = run(ClusterConfig::single_machine(1));
    let ethernet = run(ClusterConfig::multi_machine(2, Interconnect::ethernet_1g()));
    let infiniband = run(ClusterConfig::multi_machine(2, Interconnect::infiniband_100g()));
    assert!(
        ethernet.throughput < single.throughput,
        "2M1G over Ethernet ({:.1}/s) must fall below 1M1G ({:.1}/s)",
        ethernet.throughput,
        single.throughput
    );
    assert!(
        infiniband.throughput > ethernet.throughput && infiniband.throughput > single.throughput,
        "2M1G over InfiniBand ({:.1}/s) must beat Ethernet ({:.1}/s) and 1M1G ({:.1}/s)",
        infiniband.throughput,
        ethernet.throughput,
        single.throughput
    );
    assert!(infiniband.scaling_efficiency > 0.5, "InfiniBand keeps scaling efficiency useful");
}

/// Fig. 11: how much gradient traffic the backward pass can hide depends
/// on the fabric. With the same ring all-reduce and the same DDP-style
/// bucketing everywhere, the *exposed* share of the iteration ranks
/// 1 Gb/s Ethernet > intra-machine PCIe (4 GPUs) > 100 Gb/s InfiniBand —
/// and on PCIe the derived overlap clears the 0.3 the closed-form model
/// used to hardcode.
#[test]
fn fig11_exposed_ratio_ranks_fabrics_and_bucketing_overlaps() {
    use tbd_distrib::SyncStrategy;
    let suite = Suite::new(GpuSpec::quadro_p4000());
    let batch = 16;
    let m = suite.run(ModelKind::ResNet50, Framework::mxnet(), batch).expect("resnet runs");
    let model = ModelKind::ResNet50.build_full(batch).expect("builds");
    let backward = BackwardProfile::analytic(
        batch as f64 / m.throughput,
        memory_footprint(&model.graph).weight_grads as f64,
        50,
    );
    let sim = DataParallelSim { backward, per_gpu_batch: batch };
    let config = EventConfig::default();
    let ratio = |cluster: ClusterConfig| {
        let out = sim.simulate_events(&cluster, &config, None);
        out.exposed_comm_s / out.profile.iteration_s
    };
    let ethernet = ratio(ClusterConfig::custom(
        2,
        1,
        Interconnect::ethernet_1g(),
        SyncStrategy::RingAllReduce,
    ));
    let pcie = ratio(ClusterConfig::single_machine(4));
    let infiniband = ratio(ClusterConfig::custom(
        2,
        1,
        Interconnect::infiniband_100g(),
        SyncStrategy::RingAllReduce,
    ));
    assert!(
        ethernet > pcie && pcie > infiniband,
        "exposed ratio must rank Ethernet ({ethernet:.4}) > PCIe 4-GPU ({pcie:.4}) > \
         InfiniBand ({infiniband:.4})"
    );
    // Bucketing genuinely overlaps on the fast fabrics: the derived
    // overlap beats the fixed 0.3 the closed form assumed.
    let overlap = sim.simulate_events(&ClusterConfig::single_machine(4), &config, None).overlap;
    assert!(overlap >= 0.3, "bucketed PCIe overlap {overlap:.2} must clear the old 0.3 constant");
}
