//! Deterministic discrete-event engine for synchronous data-parallel
//! iterations.
//!
//! Instead of charging `comm × (1 − overlap)` with a hardcoded overlap, the
//! engine replays the iteration: per-layer backward finish times (from a
//! [`crate::BackwardProfile`]) make gradient buckets *ready*, buckets acquire the
//! reduction link strictly in index order (DDP semantics), and each
//! exchange occupies the link for its strategy-specific service time.
//! Whatever part of a transfer runs past the end of the backward pass is
//! *exposed* and extends the iteration — so overlap becomes an output,
//! derived from the schedule, not an input.
//!
//! Determinism: the event queue orders events canonically by
//! `(time, kind rank, bucket index)` via `f64::total_cmp`, never by
//! insertion order, so permuting how events are pushed cannot change any
//! result bit. Fault injection draws from counter-based hashes
//! ([`StragglerSpec`]), so a seed fully determines the run.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::bucket::{build_buckets, Bucket, BucketingConfig};
use crate::fault::StragglerSpec;
use crate::{ClusterConfig, ClusterProfile, DataParallelSim, SyncStrategy};
use tbd_graph::trace::{EventKind, TraceLayer, TraceRecorder, TraceStore};

/// Configuration of one event-driven simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EventConfig {
    /// How layer gradients coalesce into transfer buckets.
    pub bucketing: BucketingConfig,
    /// Optional fault injection; `None` runs a healthy cluster.
    pub stragglers: Option<StragglerSpec>,
    /// Salt that permutes the *insertion order* of the initial events.
    /// Results must be bitwise identical for every salt — the property
    /// suite uses this to prove tie-breaking never leaks into outputs.
    pub tie_break_salt: u64,
}

/// What happened to one gradient bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketOutcome {
    /// Launch-order index.
    pub index: usize,
    /// Coalesced bytes.
    pub bytes: f64,
    /// When the slowest worker finished producing the bucket's gradients
    /// (after any compute slowdown), seconds.
    pub ready_s: f64,
    /// When the bucket acquired the reduction link.
    pub start_s: f64,
    /// When the exchange (including retries) completed.
    pub end_s: f64,
    /// Link occupancy, `end_s − start_s`.
    pub comm_s: f64,
    /// The part of the exchange that ran past the end of the backward pass
    /// and extended the iteration.
    pub exposed_s: f64,
    /// Transfer attempts (1 = no drop).
    pub attempts: u32,
}

/// Result of one event-driven iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct EventOutcome {
    /// Headline numbers.
    pub profile: ClusterProfile,
    /// End of the slowest worker's backward pass.
    pub compute_finish_s: f64,
    /// Total link occupancy across buckets.
    pub total_comm_s: f64,
    /// Total exposed communication (the iteration extension).
    pub exposed_comm_s: f64,
    /// Derived overlap: `1 − exposed/total` (0 when there is no traffic).
    pub overlap: f64,
    /// Per-bucket schedule in launch order.
    pub buckets: Vec<BucketOutcome>,
    /// Per-worker compute time after slowdown injection.
    pub worker_compute_s: Vec<f64>,
    /// Index of the slowest worker.
    pub slowest_worker: usize,
    /// Compute slowdown factor of the slowest worker (1.0 when healthy).
    pub slowdown_factor: f64,
    /// Link-time multiplier applied to every exchange (slowest path).
    pub link_factor: f64,
    /// Total retry attempts across all buckets.
    pub retries: u32,
}

/// Event kinds, ranked for canonical tie-breaking at equal times: link
/// releases resolve before retry timers, which resolve before readiness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Payload {
    TransferDone { bucket: usize },
    RetryTimer { bucket: usize, attempt: u32 },
    BucketReady { bucket: usize },
}

impl Payload {
    fn rank(&self) -> (u8, usize, u32) {
        match *self {
            Payload::TransferDone { bucket } => (0, bucket, 0),
            Payload::RetryTimer { bucket, attempt } => (1, bucket, attempt),
            Payload::BucketReady { bucket } => (2, bucket, 0),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Ev {
    time_s: f64,
    payload: Payload,
}

impl Eq for Ev {}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest event pops
        // first. Ties break on the canonical payload rank, never on
        // insertion order.
        other
            .time_s
            .total_cmp(&self.time_s)
            .then_with(|| other.payload.rank().cmp(&self.payload.rank()))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Link service time for exchanging one `bytes`-sized bucket on `cluster`.
///
/// Ring and hierarchical reductions are chunk-pipelined: every one of the
/// `2(n−1)` ring steps pays the link latency once (a bucket is cut into
/// `n` chunks that flow around the ring), while parameter-server variants
/// pay the latency per phase. At zero latency every formula collapses to
/// the closed-form bandwidth term, which is what the differential suite
/// pins.
pub(crate) fn bucket_comm_time(cluster: &ClusterConfig, bytes: f64) -> f64 {
    let n = cluster.workers() as f64;
    if cluster.workers() <= 1 || bytes <= 0.0 {
        return 0.0;
    }
    let link = if cluster.machines > 1 { cluster.network } else { cluster.intra };
    match cluster.sync {
        SyncStrategy::ParameterServer => {
            let serialized = ps_serialized_transfers(cluster);
            link.latency_s + 2.0 * bytes * serialized / link.bandwidth_bytes
        }
        SyncStrategy::ShardedParameterServer => {
            // Shards spread the server role across all n workers: each
            // pushes (n−1)/n of its gradient to remote shards and pulls the
            // same volume back, all shards active in parallel.
            2.0 * link.latency_s + 2.0 * (n - 1.0) / n * bytes / link.bandwidth_bytes
        }
        SyncStrategy::RingAllReduce => {
            2.0 * (n - 1.0) * link.latency_s + 2.0 * (n - 1.0) / n * bytes / link.bandwidth_bytes
        }
        SyncStrategy::HierarchicalAllReduce => {
            let g = cluster.gpus_per_machine as f64;
            let m = cluster.machines as f64;
            let mut t = 0.0;
            if cluster.gpus_per_machine > 1 {
                // Intra-machine reduce-scatter + broadcast over PCIe.
                t += 2.0 * (g - 1.0) * cluster.intra.latency_s
                    + 2.0 * (g - 1.0) / g * bytes / cluster.intra.bandwidth_bytes;
            }
            if cluster.machines > 1 {
                // Inter-machine exchange: the shards funnel through each
                // machine's single NIC, so the full bucket volume crosses
                // the slow link once per direction.
                t += 2.0 * (m - 1.0) * cluster.network.latency_s
                    + 2.0 * (m - 1.0) / m * bytes / cluster.network.bandwidth_bytes;
            }
            t
        }
    }
}

/// Number of full push+pull transfers the (unsharded) parameter server's
/// link serialises: every worker except the one co-located with the server.
///
/// Multi-machine: the server machine's own GPUs exchange over loopback, so
/// `(machines − 1) × gpus_per_machine` remote workers queue on the NIC.
/// Single machine: the server sits on one GPU and the other
/// `workers − 1` replicas queue on the PCIe link.
fn ps_serialized_transfers(cluster: &ClusterConfig) -> f64 {
    if cluster.machines > 1 {
        ((cluster.machines - 1) * cluster.gpus_per_machine) as f64
    } else {
        cluster.workers().saturating_sub(1) as f64
    }
    .max(1.0)
}

/// Internal per-bucket bookkeeping.
struct BucketState {
    bucket: Bucket,
    ready_s: f64,
    started: bool,
    start_s: f64,
    end_s: f64,
    attempts: u32,
}

impl DataParallelSim {
    /// Runs the event-driven simulation of one synchronous iteration of
    /// this worker replicated over `cluster`. Overlap is derived from the
    /// schedule and returned in [`EventOutcome::overlap`].
    ///
    /// With a `tracer`, the run also emits the iteration span, the slowest
    /// worker's compute span, and one [`EventKind::Communication`] span per
    /// bucket carrying `bucket`, `phase`, `bytes`, `exposed_us` and
    /// `attempts` args; tracing never changes the outcome.
    pub fn simulate_events(
        &self,
        cluster: &ClusterConfig,
        config: &EventConfig,
        tracer: Option<&TraceRecorder>,
    ) -> EventOutcome {
        let compute_iter_s = self.compute_iter_s();
        let n = cluster.workers();
        // --- Fault injection: per-worker compute and link factors. -------
        let worker_compute_s: Vec<f64> = (0..n)
            .map(|w| {
                let f = config.stragglers.map_or(1.0, |s| s.worker_compute_factor(w));
                compute_iter_s * f
            })
            .collect();
        let (slowest_worker, compute_finish_s) = worker_compute_s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(w, &t)| (w, t))
            .unwrap_or((0, compute_iter_s));
        let slowdown_factor = compute_finish_s / compute_iter_s;
        let link_factor = (0..n)
            .map(|w| config.stragglers.map_or(1.0, |s| s.worker_link_factor(w)))
            .fold(1.0f64, f64::max);

        // --- Bucket assembly. A synchronous collective launches when the
        // slowest worker has the bucket ready; uniform slowdown scales the
        // whole backward pass, so ready times scale by the slowest factor.
        let buckets =
            if n <= 1 { Vec::new() } else { build_buckets(&self.backward, config.bucketing) };
        let mut states: Vec<BucketState> = buckets
            .into_iter()
            .map(|b| {
                let ready_s = b.ready_s * slowdown_factor;
                BucketState {
                    bucket: b,
                    ready_s,
                    started: false,
                    start_s: 0.0,
                    end_s: 0.0,
                    attempts: 0,
                }
            })
            .collect();

        // --- Event loop. -------------------------------------------------
        let mut queue: BinaryHeap<Ev> = BinaryHeap::with_capacity(states.len() * 2);
        // The salt only permutes push order; the heap's canonical ordering
        // makes the permutation unobservable.
        let count = states.len();
        for i in 0..count {
            let i = if count > 1 { (i + config.tie_break_salt as usize) % count } else { i };
            queue.push(Ev {
                time_s: states[i].ready_s,
                payload: Payload::BucketReady { bucket: i },
            });
        }
        let mut link_busy = false;
        let mut next_start = 0usize;
        let mut retries = 0u32;
        while let Some(ev) = queue.pop() {
            let now = ev.time_s;
            match ev.payload {
                Payload::BucketReady { .. } => {}
                Payload::RetryTimer { bucket, attempt } => {
                    // The dropped collective holds the link while it backs
                    // off (synchronous workers are blocked in it anyway).
                    retries += 1;
                    Self::attempt_transfer(
                        cluster,
                        config,
                        &mut states,
                        &mut queue,
                        bucket,
                        attempt + 1,
                        now,
                        link_factor,
                    );
                    continue;
                }
                Payload::TransferDone { bucket } => {
                    states[bucket].end_s = now;
                    link_busy = false;
                }
            }
            // Start the next in-order bucket if the link is idle and the
            // bucket is ready.
            if !link_busy && next_start < states.len() && states[next_start].ready_s <= now {
                let b = next_start;
                next_start += 1;
                link_busy = true;
                states[b].started = true;
                states[b].start_s = now.max(states[b].ready_s);
                let start = states[b].start_s;
                Self::attempt_transfer(
                    cluster,
                    config,
                    &mut states,
                    &mut queue,
                    b,
                    0,
                    start,
                    link_factor,
                );
            }
        }
        debug_assert!(states.iter().all(|s| s.started || states.is_empty()));

        // --- Derived metrics. --------------------------------------------
        let last_end = states.iter().map(|s| s.end_s).fold(0.0f64, f64::max);
        let iteration_s = compute_finish_s.max(last_end);
        let bucket_outcomes: Vec<BucketOutcome> = states
            .iter()
            .map(|s| {
                let comm_s = s.end_s - s.start_s;
                let exposed_s = (s.end_s - s.start_s.max(compute_finish_s)).max(0.0);
                BucketOutcome {
                    index: s.bucket.index,
                    bytes: s.bucket.bytes,
                    ready_s: s.ready_s,
                    start_s: s.start_s,
                    end_s: s.end_s,
                    comm_s,
                    exposed_s,
                    attempts: s.attempts,
                }
            })
            .collect();
        // `Sum for f64` folds from -0.0; add +0.0 so an empty bucket list
        // (single worker) reports positive zero everywhere downstream.
        let total_comm_s: f64 = bucket_outcomes.iter().map(|b| b.comm_s).sum::<f64>() + 0.0;
        let exposed_comm_s: f64 = bucket_outcomes.iter().map(|b| b.exposed_s).sum::<f64>() + 0.0;
        let overlap = if total_comm_s > 0.0 { 1.0 - exposed_comm_s / total_comm_s } else { 0.0 };
        let throughput = (n * self.per_gpu_batch) as f64 / iteration_s;
        let single = self.per_gpu_batch as f64 / compute_iter_s;
        // A zero-worker cluster has no scaling story to tell; report 0
        // rather than the NaN the ratio would produce.
        let ideal = n as f64 * single;
        let profile_out = ClusterProfile {
            throughput,
            iteration_s,
            comm_s: total_comm_s,
            scaling_efficiency: if ideal > 0.0 { throughput / ideal } else { 0.0 },
        };
        let outcome = EventOutcome {
            profile: profile_out,
            compute_finish_s,
            total_comm_s,
            exposed_comm_s,
            overlap,
            buckets: bucket_outcomes,
            worker_compute_s,
            slowest_worker,
            slowdown_factor,
            link_factor,
            retries,
        };
        if let Some(tr) = tracer {
            Self::record_events(cluster, &outcome, tr);
        }
        outcome
    }

    /// Decides the fate of transfer attempt `attempt` of `bucket` starting
    /// at `now`: either a retry timer (dropped) or a completion event.
    #[allow(clippy::too_many_arguments)]
    fn attempt_transfer(
        cluster: &ClusterConfig,
        config: &EventConfig,
        states: &mut [BucketState],
        queue: &mut BinaryHeap<Ev>,
        bucket: usize,
        attempt: u32,
        now: f64,
        link_factor: f64,
    ) {
        states[bucket].attempts = attempt + 1;
        if let Some(spec) = &config.stragglers {
            if spec.drops(states[bucket].bucket.index, attempt) {
                queue.push(Ev {
                    time_s: now + spec.retry_delay_s(attempt),
                    payload: Payload::RetryTimer { bucket, attempt },
                });
                return;
            }
        }
        let service = bucket_comm_time(cluster, states[bucket].bucket.bytes) * link_factor;
        queue.push(Ev { time_s: now + service, payload: Payload::TransferDone { bucket } });
    }

    fn record_events(cluster: &ClusterConfig, outcome: &EventOutcome, tracer: &TraceRecorder) {
        let phase = match cluster.sync {
            SyncStrategy::ParameterServer => "push+pull",
            SyncStrategy::ShardedParameterServer => "sharded push+pull",
            SyncStrategy::RingAllReduce => "allreduce",
            SyncStrategy::HierarchicalAllReduce => "hierarchical allreduce",
        };
        let buckets = outcome.buckets.len();
        let mut events = TraceStore::with_capacity(buckets + 2);
        let name = events.intern(format!("{} iteration (events)", cluster.label()));
        events
            .span(
                name,
                TraceLayer::Distrib,
                EventKind::Iteration,
                0.0,
                outcome.profile.iteration_s * 1e6,
            )
            .with_arg("workers", cluster.workers())
            .with_arg("machines", cluster.machines)
            .with_arg("throughput", outcome.profile.throughput)
            .with_arg("buckets", buckets)
            .with_arg("overlap", outcome.overlap);
        let name = events.intern("compute (fw+bw)");
        events
            .span(name, TraceLayer::Distrib, EventKind::Phase, 0.0, outcome.compute_finish_s * 1e6)
            .on_track(1)
            .with_arg("slowdown", outcome.slowdown_factor);
        let label = cluster.label();
        for b in &outcome.buckets {
            let per_bucket_overlap =
                if b.comm_s > 0.0 { 1.0 - b.exposed_s / b.comm_s } else { 0.0 };
            let name = events.intern(format!("{phase} bucket {}", b.index));
            events
                .span(
                    name,
                    TraceLayer::Distrib,
                    EventKind::Communication,
                    b.start_s * 1e6,
                    b.comm_s * 1e6,
                )
                .on_track(2)
                .with_arg("bucket", b.index)
                .with_arg("phase", phase)
                .with_arg("bytes", b.bytes)
                .with_arg("exposed_us", b.exposed_s * 1e6)
                .with_arg("overlap", per_bucket_overlap)
                .with_arg("attempts", u64::from(b.attempts))
                .with_arg("cluster", label.clone());
        }
        tracer.record_batch(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::{BackwardProfile, BucketingConfig};
    use tbd_gpusim::Interconnect;

    /// ResNet-50-like: 360 ms at batch 32, 102 MB of gradients over `layers`.
    fn resnet_like(layers: usize) -> DataParallelSim {
        DataParallelSim {
            backward: BackwardProfile::analytic(0.36, 102e6, layers),
            per_gpu_batch: 32,
        }
    }

    fn bucketed(bucketing: BucketingConfig) -> EventConfig {
        EventConfig { bucketing, ..Default::default() }
    }

    #[test]
    fn single_worker_exchanges_nothing() {
        let sim = resnet_like(50);
        let out =
            sim.simulate_events(&ClusterConfig::single_machine(1), &EventConfig::default(), None);
        assert!(out.buckets.is_empty());
        assert_eq!(out.total_comm_s, 0.0);
        assert_eq!(out.profile.iteration_s.to_bits(), sim.compute_iter_s().to_bits());
    }

    #[test]
    fn zero_worker_cluster_yields_finite_metrics() {
        let out = resnet_like(50).simulate_events(
            &ClusterConfig::single_machine(0),
            &EventConfig::default(),
            None,
        );
        assert!(out.buckets.is_empty());
        assert_eq!(out.profile.throughput, 0.0);
        assert!(
            out.profile.scaling_efficiency.is_finite(),
            "efficiency must not be NaN: {}",
            out.profile.scaling_efficiency
        );
        assert_eq!(out.profile.scaling_efficiency, 0.0);
        assert!(out.profile.iteration_s.is_finite());
    }

    #[test]
    fn zero_bucket_profile_does_not_panic_or_emit_nan() {
        // A profile with no gradient volume: single-shot bucketing yields
        // zero buckets even on a multi-worker cluster.
        let empty = DataParallelSim {
            backward: BackwardProfile { compute_iter_s: 0.36, layers: Vec::new() },
            per_gpu_batch: 32,
        };
        for bucketing in [
            BucketingConfig::SingleShot,
            BucketingConfig::PerLayer,
            BucketingConfig::BucketBytes(25e6),
        ] {
            let out = empty.simulate_events(
                &ClusterConfig::single_machine(4),
                &bucketed(bucketing),
                None,
            );
            assert!(out.buckets.is_empty(), "{bucketing:?}");
            assert_eq!(out.total_comm_s.to_bits(), 0.0f64.to_bits(), "{bucketing:?}");
            assert_eq!(out.overlap, 0.0);
            assert!(out.profile.scaling_efficiency.is_finite());
            assert_eq!(out.profile.iteration_s.to_bits(), 0.36f64.to_bits());
        }
    }

    #[test]
    fn bucketed_transfers_overlap_the_backward_pass() {
        let sim = resnet_like(161);
        let cluster = ClusterConfig::single_machine(4);
        let single = sim.simulate_events(&cluster, &bucketed(BucketingConfig::SingleShot), None);
        let bucketed =
            sim.simulate_events(&cluster, &bucketed(BucketingConfig::BucketBytes(25e6)), None);
        // Single-shot can hide nothing (the exchange starts when compute
        // ends); bucketing hides the early buckets under later layers.
        assert_eq!(single.overlap, 0.0);
        assert!(bucketed.overlap > 0.3, "derived overlap {}", bucketed.overlap);
        assert!(bucketed.exposed_comm_s < single.exposed_comm_s);
        assert!(bucketed.profile.iteration_s < single.profile.iteration_s);
    }

    #[test]
    fn buckets_transfer_in_order_on_one_link() {
        let out = resnet_like(161).simulate_events(
            &ClusterConfig::multi_machine(2, Interconnect::ethernet_1g()),
            &bucketed(BucketingConfig::BucketBytes(10e6)),
            None,
        );
        assert!(out.buckets.len() > 2);
        for w in out.buckets.windows(2) {
            assert!(w[0].end_s <= w[1].start_s + 1e-12, "link is serial");
            assert!(w[1].start_s >= w[1].ready_s, "no transfer before ready");
        }
        // On Ethernet the tail is massively exposed (Observation 13).
        assert!(out.exposed_comm_s > out.compute_finish_s);
    }

    #[test]
    fn straggler_run_tracks_the_slowest_worker() {
        let sim = resnet_like(50);
        let spec = StragglerSpec::with_seed(11);
        let cfg = EventConfig { stragglers: Some(spec), ..Default::default() };
        let out = sim.simulate_events(&ClusterConfig::single_machine(4), &cfg, None);
        let max_worker = out.worker_compute_s.iter().cloned().fold(0.0f64, f64::max);
        assert_eq!(out.compute_finish_s.to_bits(), max_worker.to_bits());
        assert!(out.profile.iteration_s >= out.compute_finish_s);
        // Same seed → bitwise identical outcome.
        let again = sim.simulate_events(&ClusterConfig::single_machine(4), &cfg, None);
        assert_eq!(out, again);
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_bucket_spans() {
        let sim = resnet_like(161);
        let cluster = ClusterConfig::multi_machine(2, Interconnect::infiniband_100g());
        let cfg = EventConfig::default();
        let tracer = TraceRecorder::shared();
        let traced = sim.simulate_events(&cluster, &cfg, Some(&tracer));
        let plain = sim.simulate_events(&cluster, &cfg, None);
        assert_eq!(traced, plain);
        let events = tracer.drain();
        let comm: Vec<_> = events.iter().filter(|e| e.kind == EventKind::Communication).collect();
        assert_eq!(comm.len(), traced.buckets.len());
        for e in &comm {
            assert!(e.deterministic);
            assert!(e.args.iter().any(|(k, _)| *k == "bucket"));
            assert!(e.args.iter().any(|(k, _)| *k == "phase"));
            assert!(e.args.iter().any(|(k, _)| *k == "exposed_us"));
        }
    }
}
