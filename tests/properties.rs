//! Property-based tests (proptest) over the core data structures and
//! invariants: tensor algebra, device-memory accounting, roofline timing,
//! sampling, metrics and the distributed model.

use proptest::prelude::*;
use tbd_core::GpuSpec;
use tbd_distrib::{BackwardProfile, ClusterConfig, DataParallelSim, EventConfig};
use tbd_gpusim::{kernel_timing, DeviceMemory, MemoryCategory};
use tbd_graph::{KernelClass, KernelSpec};
use tbd_profiler::{detect_stable_window, SamplingConfig};
use tbd_tensor::{ops, Tensor};
use tbd_train::{bleu, edit_distance};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Matrix multiplication distributes over addition:
    /// (A + B)·C == A·C + B·C.
    #[test]
    fn matmul_distributes_over_addition(
        a in prop::collection::vec(-10.0f32..10.0, 12),
        b in prop::collection::vec(-10.0f32..10.0, 12),
        c in prop::collection::vec(-10.0f32..10.0, 20),
    ) {
        let a = Tensor::from_vec(a, [3, 4]).unwrap();
        let b = Tensor::from_vec(b, [3, 4]).unwrap();
        let c = Tensor::from_vec(c, [4, 5]).unwrap();
        let lhs = ops::matmul(&ops::add(&a, &b).unwrap(), &c).unwrap();
        let rhs = ops::add(&ops::matmul(&a, &c).unwrap(), &ops::matmul(&b, &c).unwrap()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-3);
    }

    /// Transposition is an involution and preserves the Frobenius norm.
    #[test]
    fn transpose_involution(data in prop::collection::vec(-100.0f32..100.0, 24)) {
        let t = Tensor::from_vec(data, [4, 6]).unwrap();
        let tt = ops::transpose(&ops::transpose(&t).unwrap()).unwrap();
        prop_assert_eq!(&tt, &t);
        prop_assert!((t.l2_norm() - ops::transpose(&t).unwrap().l2_norm()).abs() < 1e-3);
    }

    /// Softmax rows always sum to 1 and stay within (0, 1].
    #[test]
    fn softmax_is_a_distribution(data in prop::collection::vec(-50.0f32..50.0, 15)) {
        let x = Tensor::from_vec(data, [3, 5]).unwrap();
        let s = ops::softmax(&x).unwrap();
        for r in 0..3 {
            let row = &s.data()[r * 5..(r + 1) * 5];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| v > 0.0 && v <= 1.0));
        }
    }

    /// Concat then split is the identity.
    #[test]
    fn concat_backward_inverts_concat(
        a in prop::collection::vec(-5.0f32..5.0, 6),
        b in prop::collection::vec(-5.0f32..5.0, 9),
    ) {
        let ta = Tensor::from_vec(a, [3, 2]).unwrap();
        let tb = Tensor::from_vec(b, [3, 3]).unwrap();
        let joined = ops::concat(&[&ta, &tb], 1).unwrap();
        let parts =
            ops::concat_backward(&[ta.shape().clone(), tb.shape().clone()], 1, &joined).unwrap();
        prop_assert_eq!(&parts[0], &ta);
        prop_assert_eq!(&parts[1], &tb);
    }

    /// Device-memory accounting: used() equals the sum of allocations minus
    /// frees, and capacity is never exceeded.
    #[test]
    fn device_memory_invariants(sizes in prop::collection::vec(1u64..1000, 1..40)) {
        let mut mem = DeviceMemory::new(100_000);
        let mut ledger: u64 = 0;
        for (i, &s) in sizes.iter().enumerate() {
            let cat = MemoryCategory::ALL[i % 5];
            if mem.alloc(cat, s).is_ok() {
                ledger += s;
            }
            if i % 3 == 0 {
                let f = s / 2;
                mem.free(cat, f);
                ledger = ledger.saturating_sub(f.min(ledger));
            }
            prop_assert!(mem.used() <= mem.capacity());
            prop_assert!(mem.breakdown().total() >= mem.used());
        }
        let _ = ledger;
    }

    /// Roofline timing: duration is monotone in FLOPs and bytes; FP32
    /// utilisation stays in [0, 1].
    #[test]
    fn kernel_timing_monotone(flops in 1e3f64..1e12, bytes in 1e3f64..1e10) {
        let gpu = GpuSpec::quadro_p4000();
        let t1 = kernel_timing(&KernelSpec::new(KernelClass::Gemm, flops, bytes, "k"), &gpu);
        let t2 = kernel_timing(&KernelSpec::new(KernelClass::Gemm, flops * 2.0, bytes, "k"), &gpu);
        let t3 = kernel_timing(&KernelSpec::new(KernelClass::Gemm, flops, bytes * 2.0, "k"), &gpu);
        prop_assert!(t2.duration_s >= t1.duration_s);
        prop_assert!(t3.duration_s >= t1.duration_s);
        prop_assert!((0.0..=1.0).contains(&t1.fp32_utilization));
    }

    /// The stability detector never returns a window extending past the
    /// run, and constant runs are detected immediately.
    #[test]
    fn stable_window_bounds(steady in 0.01f64..1.0, len in 60usize..400) {
        let run = vec![steady; len];
        let cfg = SamplingConfig::default();
        let (start, end) = detect_stable_window(&run, &cfg).unwrap();
        prop_assert_eq!(start, 0);
        prop_assert!(end <= run.len());
        prop_assert!(end > start);
    }

    /// Edit distance is a metric: identity, symmetry and triangle
    /// inequality.
    #[test]
    fn edit_distance_is_a_metric(
        a in prop::collection::vec(0usize..5, 0..12),
        b in prop::collection::vec(0usize..5, 0..12),
        c in prop::collection::vec(0usize..5, 0..12),
    ) {
        prop_assert_eq!(edit_distance(&a, &a), 0);
        prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
        prop_assert!(edit_distance(&a, &c) <= edit_distance(&a, &b) + edit_distance(&b, &c));
    }

    /// BLEU is bounded in [0, 100] and exactly 100 for identical corpora of
    /// sufficient length.
    #[test]
    fn bleu_bounds(sentence in prop::collection::vec(0usize..20, 4..15)) {
        let corpus = vec![sentence];
        let score = bleu(&corpus, &corpus);
        prop_assert!((score - 100.0).abs() < 1e-6);
        let other = vec![vec![99usize; corpus[0].len()]];
        let low = bleu(&other, &corpus);
        prop_assert!((0.0..=100.0).contains(&low));
    }

    /// Data-parallel scaling efficiency never exceeds 1, the iteration is
    /// never shorter than one worker's compute, and aggregate throughput
    /// never falls below one worker's when no communication is exposed.
    #[test]
    fn cluster_scaling_bounds(
        compute in 0.01f64..2.0,
        grads in 1e6f64..5e8,
        gpus in 1usize..8,
    ) {
        let sim = DataParallelSim {
            backward: BackwardProfile::analytic(compute, grads, 16),
            per_gpu_batch: 16,
        };
        let out = sim.simulate_events(
            &ClusterConfig::single_machine(gpus),
            &EventConfig::default(),
            None,
        );
        let p = out.profile;
        prop_assert!(p.scaling_efficiency <= 1.0 + 1e-9);
        prop_assert!(p.iteration_s >= compute);
        if out.exposed_comm_s == 0.0 {
            prop_assert!(p.throughput >= 16.0 / compute - 1e-9);
        }
    }
}

/// The corner that disproves an unconditional throughput floor: a 10 ms
/// step exchanging 500 MB of gradients between 2 GPUs over PCIe exposes
/// far more than one step of communication, so the pair trains slower
/// than a single worker would.
#[test]
fn exposed_exchange_can_drop_below_one_worker() {
    let (compute, gpus) = (0.01, 2);
    let sim = DataParallelSim {
        backward: BackwardProfile::analytic(compute, 5e8, 16),
        per_gpu_batch: 16,
    };
    let out =
        sim.simulate_events(&ClusterConfig::single_machine(gpus), &EventConfig::default(), None);
    assert!(out.exposed_comm_s > (gpus - 1) as f64 * compute, "exposed {}", out.exposed_comm_s);
    assert!(out.profile.throughput < 16.0 / compute, "throughput {}", out.profile.throughput);
    assert!(out.profile.scaling_efficiency <= 1.0);
    assert!(out.profile.iteration_s >= compute);
}

mod suite_properties {
    use proptest::prelude::*;
    use tbd_core::{Framework, GpuSpec, ModelKind, Suite};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Suite-level monotonicity: for A3C (cheap to build), a larger
        /// batch never reduces throughput or memory.
        #[test]
        fn bigger_batches_cost_more_memory_and_yield_more_throughput(
            small in 4usize..32,
            factor in 2usize..5,
        ) {
            let suite = Suite::new(GpuSpec::quadro_p4000());
            let fw = Framework::mxnet();
            let a = suite.run(ModelKind::A3c, fw, small).unwrap();
            let b = suite.run(ModelKind::A3c, fw, small * factor).unwrap();
            prop_assert!(b.throughput >= a.throughput * 0.99);
            prop_assert!(b.memory.total() >= a.memory.total());
            prop_assert!(b.iteration.gpu_utilization <= 1.0 && b.iteration.fp32_utilization <= 1.0);
        }

        /// Devices order consistently: Titan Xp is never slower than the
        /// P4000 on the same workload.
        #[test]
        fn titan_xp_dominates_p4000(batch in 8usize..64) {
            let p4000 = Suite::new(GpuSpec::quadro_p4000());
            let xp = Suite::new(GpuSpec::titan_xp());
            let fw = Framework::mxnet();
            let slow = p4000.run(ModelKind::A3c, fw, batch).unwrap();
            let fast = xp.run(ModelKind::A3c, fw, batch).unwrap();
            prop_assert!(fast.throughput >= slow.throughput * 0.999);
        }
    }
}
