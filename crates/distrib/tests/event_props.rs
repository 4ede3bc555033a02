//! Property tests over the event-driven data-parallel simulator: the
//! schedule must be a deterministic function of its inputs (tie-break
//! permutations and repeated runs are unobservable), fault injection must
//! be a pure function of the seed, and exposed communication must respect
//! the monotonicities the closed-form model takes for granted — finer
//! bucketing, faster links and smaller gradients never expose more.

use proptest::prelude::*;
use tbd_distrib::{
    BackwardProfile, BucketingConfig, ClusterConfig, DataParallelSim, EventConfig, EventOutcome,
    StragglerSpec, SyncStrategy,
};
use tbd_gpusim::Interconnect;

/// Bitwise fingerprint of everything an [`EventOutcome`] reports.
fn fingerprint(out: &EventOutcome) -> Vec<u64> {
    let mut bits = vec![
        out.profile.iteration_s.to_bits(),
        out.profile.throughput.to_bits(),
        out.compute_finish_s.to_bits(),
        out.total_comm_s.to_bits(),
        out.exposed_comm_s.to_bits(),
        out.overlap.to_bits(),
        out.slowdown_factor.to_bits(),
        out.link_factor.to_bits(),
        out.slowest_worker as u64,
        u64::from(out.retries),
    ];
    for b in &out.buckets {
        bits.push(b.index as u64);
        bits.push(b.start_s.to_bits());
        bits.push(b.end_s.to_bits());
        bits.push(b.exposed_s.to_bits());
        bits.push(u64::from(b.attempts));
    }
    bits
}

/// A worker computing for `compute_s` with `bytes` of gradients spread
/// over `layers` evenly spaced layers.
fn worker(compute_s: f64, bytes: f64, layers: usize) -> DataParallelSim {
    DataParallelSim {
        backward: BackwardProfile::analytic(compute_s, bytes, layers),
        per_gpu_batch: 16,
    }
}

/// Picks a worker grid dimension from {1, 2, 4}.
fn dim(choice: u8) -> usize {
    1 << (choice % 3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tie-break salt permutes event-queue insertion order; the heap's
    /// canonical ordering must make the permutation bitwise unobservable —
    /// including under fault injection, where retry timers interleave.
    #[test]
    fn tie_break_salt_is_unobservable(
        salt in 0u64..u64::MAX,
        seed in 0u64..1_000,
        compute_ms in 10.0f64..500.0,
        mb in 1.0f64..200.0,
        machines in 0u8..3,
        gpus in 0u8..3,
    ) {
        let (compute_s, bytes) = (compute_ms / 1e3, mb * 1e6);
        let cluster = ClusterConfig::hierarchical(
            dim(machines),
            dim(gpus),
            Interconnect::ethernet_1g(),
        );
        let sim = worker(compute_s, bytes, 16);
        let stragglers = Some(StragglerSpec::with_seed(seed));
        let base = EventConfig { stragglers, tie_break_salt: 0, ..EventConfig::default() };
        let salted = EventConfig { tie_break_salt: salt, ..base };
        let a = sim.simulate_events(&cluster, &base, None);
        let b = sim.simulate_events(&cluster, &salted, None);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    /// Fault injection is a pure function of the seed: replaying the same
    /// spec reproduces the schedule bit for bit.
    #[test]
    fn straggler_seed_is_stable(
        seed in 0u64..u64::MAX,
        compute_ms in 10.0f64..500.0,
        machines in 0u8..3,
        gpus in 0u8..3,
    ) {
        let (compute_s, bytes) = (compute_ms / 1e3, 64e6);
        let cluster = ClusterConfig::hierarchical(
            dim(machines),
            dim(gpus),
            Interconnect::infiniband_100g(),
        );
        let sim = worker(compute_s, bytes, 24);
        let config = EventConfig {
            stragglers: Some(StragglerSpec::with_seed(seed)),
            ..EventConfig::default()
        };
        let a = sim.simulate_events(&cluster, &config, None);
        let b = sim.simulate_events(&cluster, &config, None);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    /// On zero-latency links, splitting the gradient into more buckets
    /// never increases exposed communication: earlier layers start their
    /// exchanges earlier, and the total wire time is unchanged.
    #[test]
    fn finer_bucketing_never_exposes_more(
        compute_ms in 20.0f64..500.0,
        mb in 5.0f64..200.0,
        coarse_mb in 2.0f64..50.0,
        ratio in 2.0f64..10.0,
        layers in 4usize..48,
    ) {
        let (compute_s, bytes) = (compute_ms / 1e3, mb * 1e6);
        let mut cluster = ClusterConfig::multi_machine(2, Interconnect::ethernet_1g());
        cluster.network.latency_s = 0.0;
        cluster.intra.latency_s = 0.0;
        let sim = worker(compute_s, bytes, layers);
        let run = |bucket_bytes: f64| {
            let config = EventConfig {
                bucketing: BucketingConfig::BucketBytes(bucket_bytes),
                ..EventConfig::default()
            };
            sim.simulate_events(&cluster, &config, None)
        };
        let coarse = run(coarse_mb * 1e6);
        let fine = run(coarse_mb * 1e6 / ratio);
        prop_assert!(fine.buckets.len() >= coarse.buckets.len());
        prop_assert!(
            fine.exposed_comm_s <= coarse.exposed_comm_s + 1e-12,
            "finer bucketing exposed {} vs coarser {}",
            fine.exposed_comm_s,
            coarse.exposed_comm_s
        );
    }

    /// Exposed communication is monotone: non-increasing in link bandwidth
    /// and non-decreasing in gradient volume.
    #[test]
    fn exposed_monotone_in_bandwidth_and_bytes(
        compute_ms in 20.0f64..500.0,
        mb in 5.0f64..200.0,
        bw_gb in 0.1f64..20.0,
        speedup in 1.0f64..16.0,
        growth in 1.0f64..4.0,
        layers in 4usize..48,
    ) {
        let (compute_s, bytes) = (compute_ms / 1e3, mb * 1e6);
        // Per-layer bucketing keeps the bucket structure identical across
        // the comparison (byte-targeted packing would re-draw boundaries).
        let config = EventConfig {
            bucketing: BucketingConfig::PerLayer,
            ..EventConfig::default()
        };
        let cluster_at = |bw: f64| {
            let mut c = ClusterConfig::multi_machine(2, Interconnect::ethernet_1g());
            c.network.bandwidth_bytes = bw;
            c.network.latency_s = 0.0;
            c.intra.latency_s = 0.0;
            c
        };
        let sim = worker(compute_s, bytes, layers);
        let slow = sim.simulate_events(&cluster_at(bw_gb * 1e9), &config, None);
        let fast = sim.simulate_events(&cluster_at(bw_gb * 1e9 * speedup), &config, None);
        prop_assert!(
            fast.exposed_comm_s <= slow.exposed_comm_s + 1e-12,
            "faster link exposed {} vs {}",
            fast.exposed_comm_s,
            slow.exposed_comm_s
        );
        let bigger = worker(compute_s, bytes * growth, layers);
        let big = bigger.simulate_events(&cluster_at(bw_gb * 1e9), &config, None);
        prop_assert!(
            big.exposed_comm_s + 1e-12 >= slow.exposed_comm_s,
            "{growth}x gradients exposed {} vs {}",
            big.exposed_comm_s,
            slow.exposed_comm_s
        );
    }

    /// Whenever the intra-machine fabric is at least `machines`× faster
    /// than the network, reducing hierarchically is never slower than
    /// dragging the flat ring across the slow link (the two coincide
    /// exactly at `intra = machines × network`).
    #[test]
    fn hierarchical_never_loses_when_intra_is_fast(
        compute_ms in 20.0f64..500.0,
        mb in 5.0f64..200.0,
        net_gb in 0.1f64..10.0,
        headroom in 1.0f64..8.0,
        machines in 1u8..3,
        gpus in 1u8..3,
    ) {
        let m = dim(machines);
        let g = dim(gpus);
        let (compute_s, bytes) = (compute_ms / 1e3, mb * 1e6);
        let net = Interconnect { bandwidth_bytes: net_gb * 1e9, latency_s: 0.0 };
        let mut flat = ClusterConfig::custom(m, g, net, SyncStrategy::RingAllReduce);
        flat.intra =
            Interconnect { bandwidth_bytes: net.bandwidth_bytes * m as f64 * headroom, latency_s: 0.0 };
        let mut hier = flat;
        hier.sync = SyncStrategy::HierarchicalAllReduce;
        let sim = worker(compute_s, bytes, 16);
        let config = EventConfig::default();
        let t_flat = sim.simulate_events(&flat, &config, None).total_comm_s;
        let t_hier = sim.simulate_events(&hier, &config, None).total_comm_s;
        prop_assert!(
            t_hier <= t_flat + 1e-12 * t_flat.abs(),
            "{m}M{g}G: hierarchical {t_hier} vs flat ring {t_flat}"
        );
    }
}
