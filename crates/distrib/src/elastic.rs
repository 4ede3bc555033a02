//! Elastic membership: churn schedules, collective deadlines, degraded
//! all-reduce and rejoin catch-up.
//!
//! The paper's multi-machine analysis (Fig. 10/11, Obs. 12–13) holds the
//! worker set fixed for the whole run. Fleet-scale training does not:
//! workers die, get evicted as stragglers, and rejoin later. This module
//! layers a supervisor state machine (Healthy → Suspect → Evicted →
//! Rejoining) over the discrete-event engine. Outages are drawn from the
//! same counter-based SplitMix64 scheme as [`crate::fault`], so a churn
//! schedule is a pure function of `(seed, worker)` — order-independent,
//! bit-stable, and *monotone*: raising the churn rate only adds outages,
//! it never moves or reshapes the ones already scheduled.
//!
//! The two invariants the test suite pins:
//!
//! 1. **Degraded ≡ fresh.** An iteration degraded to `k` survivors is the
//!    discrete-event simulation of a freshly constructed `k`-worker
//!    cluster with the same [`crate::BucketingConfig`] — bitwise, for every sync
//!    strategy, salt and thread count. Eviction re-buckets; it does not
//!    approximate.
//! 2. **Goodput is monotone non-increasing in churn rate.** Every churn
//!    event converts steps into (fewer samples, no less time): the
//!    eviction step pays the failed attempt plus the collective deadline
//!    plus a degraded re-run, steady degraded steps still tick at the
//!    healthy schedule pace but banked only `k·b` samples, and the rejoin
//!    step pays checkpoint restore + replay for zero extra samples.

use std::collections::BTreeMap;

use tbd_graph::trace::{EventKind, TraceLayer, TraceRecorder, TraceStore};

use crate::event::{EventConfig, EventOutcome};
use crate::fault::{unit, StragglerSpec};
use crate::{ClusterConfig, DataParallelSim};

/// Draw streams for the churn schedule, disjoint from the straggler
/// streams (1–5) in `fault.rs` and the resilience streams (11–22).
const STREAM_CHURN_PICK: u64 = 31;
const STREAM_CHURN_START: u64 = 32;
const STREAM_CHURN_LEN: u64 = 33;

/// Track used for membership events in the distrib trace lane (tracks 1
/// and 2 carry compute and communication spans).
const MEMBERSHIP_TRACK: u32 = 3;

/// Seeded, counter-based churn schedule: each worker independently
/// suffers at most one outage per run, drawn as a pure function of
/// `(seed, worker)`.
///
/// Whether a worker fails at all depends only on the `churn_rate`
/// threshold (stream 31); *when* it fails and for *how long* come from
/// separate streams (32/33) that do not involve the rate. Two specs that
/// differ only in rate therefore schedule nested outage sets: the higher
/// rate reproduces every outage of the lower rate exactly and adds new
/// ones — the structural property behind the monotone-goodput guarantee.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Root seed; the whole schedule is a pure function of it.
    pub seed: u64,
    /// Per-worker probability of suffering an outage during the run.
    pub churn_rate: f64,
    /// Shortest outage, in steps (≥ 1 after clamping).
    pub min_outage_steps: u64,
    /// Longest outage, in steps (≥ `min_outage_steps` after clamping).
    pub max_outage_steps: u64,
}

/// One worker's scheduled outage: absent for steps in `[start, end)`.
/// `end` may lie beyond the run, in which case the worker never rejoins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// First step the worker misses (its eviction step).
    pub start: u64,
    /// First step the worker is back (its rejoin step), exclusive bound.
    pub end: u64,
}

impl ChurnSpec {
    /// A representative churn preset: roughly one worker in three drops
    /// out for 2–5 steps somewhere in the run.
    pub fn with_seed(seed: u64) -> Self {
        ChurnSpec { seed, churn_rate: 0.35, min_outage_steps: 2, max_outage_steps: 5 }
    }

    /// Overrides the churn rate, clamped to `[0, 1]`.
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.churn_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// The outage scheduled for `worker` in a run of `steps` steps, if
    /// any. Pure function of `(seed, worker, steps)`; the rate only gates
    /// occurrence, never placement or length. Step 0 always runs with the
    /// full cohort (`start ≥ 1`), and runs shorter than two steps have no
    /// room for churn.
    pub fn outage(&self, worker: u64, steps: u64) -> Option<OutageWindow> {
        if steps < 2 || unit(self.seed, STREAM_CHURN_PICK, worker) >= self.churn_rate {
            return None;
        }
        let start = 1 + (unit(self.seed, STREAM_CHURN_START, worker) * (steps - 1) as f64) as u64;
        let lo = self.min_outage_steps.max(1);
        let hi = self.max_outage_steps.max(lo);
        let len = lo + (unit(self.seed, STREAM_CHURN_LEN, worker) * (hi - lo + 1) as f64) as u64;
        Some(OutageWindow { start, end: start.saturating_add(len) })
    }
}

/// Supervisor view of one worker at one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// In the cohort, exchanging gradients.
    Healthy,
    /// Missed the collective deadline this step; eviction is in flight.
    Suspect,
    /// Out of the cohort; the collective runs degraded without it.
    Evicted,
    /// Restoring the latest checkpoint and replaying to the cohort step.
    Rejoining,
}

impl WorkerState {
    /// Stable lowercase label used in trace args and reports.
    pub fn label(&self) -> &'static str {
        match self {
            WorkerState::Healthy => "healthy",
            WorkerState::Suspect => "suspect",
            WorkerState::Evicted => "evicted",
            WorkerState::Rejoining => "rejoining",
        }
    }

    /// The state `spec` puts `worker` in at `step` of a `steps`-step run.
    pub fn at(spec: &ChurnSpec, worker: u64, step: u64, steps: u64) -> WorkerState {
        match spec.outage(worker, steps) {
            Some(o) if step == o.start => WorkerState::Suspect,
            Some(o) if step > o.start && step < o.end => WorkerState::Evicted,
            Some(o) if step == o.end => WorkerState::Rejoining,
            _ => WorkerState::Healthy,
        }
    }
}

/// Configuration of one elastic run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticConfig {
    /// The churn schedule.
    pub churn: ChurnSpec,
    /// Steps to simulate.
    pub steps: u64,
    /// Event-engine configuration shared by every epoch (bucketing,
    /// optional stragglers, tie-break salt). Each membership epoch
    /// re-buckets through the same [`crate::BucketingConfig`].
    pub event: EventConfig,
    /// Checkpoint cadence in steps (the `tbd-train::resilience` default);
    /// a rejoiner replays from the most recent multiple of this.
    pub checkpoint_interval: u64,
    /// Checkpoint size in bytes; `0` means "the model size"
    /// (`gradient_bytes` — a data-parallel checkpoint is the full
    /// parameter set).
    pub checkpoint_bytes: f64,
    /// Restore read bandwidth, bytes/s (the resilience-layer default).
    pub restore_read_bps: f64,
}

impl ElasticConfig {
    /// Elastic run with the resilience layer's checkpoint cadence and
    /// restore bandwidth, and a healthy (fault-free) event engine.
    pub fn new(churn: ChurnSpec, steps: u64) -> Self {
        ElasticConfig {
            churn,
            steps,
            event: EventConfig::default(),
            checkpoint_interval: 5,
            checkpoint_bytes: 0.0,
            restore_read_bps: 2e9,
        }
    }

    /// The collective deadline: how long the surviving cohort waits on a
    /// silent worker before evicting it. This is exactly the cumulative
    /// capped retry ladder of the active straggler spec
    /// ([`StragglerSpec::total_retry_delay_s`]) — a worker that exceeds
    /// `max_retries` has, by definition, missed the deadline.
    pub fn deadline_s(&self) -> f64 {
        self.event
            .stragglers
            .unwrap_or_else(|| StragglerSpec::with_seed(self.churn.seed))
            .total_retry_delay_s()
    }
}

/// One membership epoch: a maximal run of steps with an unchanged cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch ordinal (0 = the initial full-cohort epoch).
    pub epoch: u64,
    /// First step of the epoch.
    pub start_step: u64,
    /// Number of steps the epoch lasted.
    pub steps: u64,
    /// Cohort size during the epoch.
    pub survivors: usize,
    /// Iteration time of the epoch's cohort — bitwise identical to a
    /// fresh `survivors`-worker world simulated with the same bucketing.
    pub iteration_s: f64,
    /// Exact gradient rescale the survivors apply (`n / survivors`): the
    /// mean over `k` shards estimates the same full-batch gradient once
    /// multiplied back to the `n`-worker scale.
    pub rescale: f64,
}

/// Result of one elastic simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticOutcome {
    /// Full-cohort worker count.
    pub workers: usize,
    /// Steps simulated.
    pub steps: u64,
    /// Membership epochs in order; never empty.
    pub epochs: Vec<EpochRecord>,
    /// Workers evicted (entered an outage).
    pub evictions: u64,
    /// Workers that rejoined within the run.
    pub rejoins: u64,
    /// Steps executed with a reduced cohort.
    pub degraded_steps: u64,
    /// Total time spent waiting on collective deadlines before evictions.
    pub deadline_stall_s: f64,
    /// Total rejoin catch-up time (checkpoint restore + replay).
    pub rejoin_catchup_s: f64,
    /// Steps replayed by rejoiners (they count toward no new samples).
    pub replayed_steps: u64,
    /// Samples contributed to training progress.
    pub useful_samples: u64,
    /// Simulated wall time of the run.
    pub sim_time_s: f64,
    /// Iteration time of the healthy full cohort.
    pub healthy_iteration_s: f64,
    /// Useful samples per second under churn.
    pub goodput: f64,
    /// Samples per second of the churn-free run.
    pub healthy_goodput: f64,
}

impl ElasticOutcome {
    /// Number of membership epochs (≥ 1).
    pub fn epoch_count(&self) -> u64 {
        self.epochs.len() as u64
    }

    /// `goodput / healthy_goodput`, in `[0, 1]`.
    pub fn goodput_fraction(&self) -> f64 {
        if self.healthy_goodput > 0.0 {
            self.goodput / self.healthy_goodput
        } else {
            0.0
        }
    }
}

/// The cluster the surviving cohort re-forms into. Single-machine
/// clusters lose GPUs (`1M4G` → `1M3G`), one-GPU-per-machine clusters
/// lose machines (`4M1G` → `3M1G`), and multi-machine multi-GPU clusters
/// evict at whole-machine granularity — a failed worker takes its machine
/// out, so `survivors` must be a multiple of `gpus_per_machine`.
pub fn survivor_cluster(cluster: &ClusterConfig, survivors: usize) -> ClusterConfig {
    assert!(survivors >= 1 && survivors <= cluster.workers(), "survivors {survivors} out of range");
    let mut out = *cluster;
    if cluster.machines == 1 {
        out.gpus_per_machine = survivors;
    } else if cluster.gpus_per_machine == 1 {
        out.machines = survivors;
    } else {
        assert!(
            survivors.is_multiple_of(cluster.gpus_per_machine),
            "multi-GPU machines evict whole machines: {survivors} survivors not a multiple of {}",
            cluster.gpus_per_machine
        );
        out.machines = survivors / cluster.gpus_per_machine;
    }
    out
}

impl DataParallelSim {
    /// Simulates `config.steps` synchronous iterations on `cluster` under
    /// the churn schedule, degrading the collective to the surviving
    /// cohort on every eviction and re-forming it on every rejoin.
    ///
    /// With a `tracer`, the run also emits one [`EventKind::Membership`]
    /// instant per epoch change, one [`EventKind::Eviction`] /
    /// [`EventKind::Rejoin`] instant per worker transition, and a summary
    /// `elastic/run` span carrying the goodput accounting; tracing never
    /// changes the outcome.
    pub fn simulate_elastic(
        &self,
        cluster: &ClusterConfig,
        config: &ElasticConfig,
        tracer: Option<&TraceRecorder>,
    ) -> ElasticOutcome {
        let n = cluster.workers();
        let batch = self.per_gpu_batch as u64;
        let deadline_s = config.deadline_s();
        let ckpt_bytes = if config.checkpoint_bytes > 0.0 {
            config.checkpoint_bytes
        } else {
            self.gradient_bytes()
        };
        let restore_s =
            if config.restore_read_bps > 0.0 { ckpt_bytes / config.restore_read_bps } else { 0.0 };

        // A cohort of one cannot evict its only member: churn needs at
        // least two workers to have anyone left to degrade to.
        let outages: Vec<Option<OutageWindow>> = (0..n as u64)
            .map(|w| if n < 2 { None } else { config.churn.outage(w, config.steps) })
            .collect();
        let out_at =
            |w: usize, step: u64| outages[w].is_some_and(|o| o.start <= step && step < o.end);
        // Cohort size at a step. Multi-GPU machines fail at machine
        // granularity; the supervisor always keeps at least one machine's
        // worth of workers (the last eviction is vetoed).
        let survivors_at = |step: u64| -> usize {
            if cluster.machines > 1 && cluster.gpus_per_machine > 1 {
                let failed = (0..cluster.machines)
                    .filter(|m| {
                        (0..cluster.gpus_per_machine)
                            .any(|g| out_at(m * cluster.gpus_per_machine + g, step))
                    })
                    .count();
                cluster.machines.saturating_sub(failed).max(1) * cluster.gpus_per_machine
            } else {
                (n - (0..n).filter(|&w| out_at(w, step)).count()).max(1)
            }
        };

        // Per-cohort-size iteration outcomes, each a fresh k-worker world
        // re-bucketed through the same BucketingConfig (the keystone
        // bitwise-equivalence property holds by construction).
        let mut worlds: BTreeMap<usize, EventOutcome> = BTreeMap::new();
        worlds.insert(n, self.simulate_events(cluster, &config.event, None));
        let t_h = worlds[&n].profile.iteration_s;
        let mut iter_s = |k: usize| -> f64 {
            worlds
                .entry(k)
                .or_insert_with(|| {
                    self.simulate_events(&survivor_cluster(cluster, k), &config.event, None)
                })
                .profile
                .iteration_s
        };

        let mut events = TraceStore::new();
        let mut epochs = vec![EpochRecord {
            epoch: 0,
            start_step: 0,
            steps: 0,
            survivors: n,
            iteration_s: t_h,
            rescale: 1.0,
        }];
        let mut out = ElasticOutcome {
            workers: n,
            steps: config.steps,
            epochs: Vec::new(),
            evictions: 0,
            rejoins: 0,
            degraded_steps: 0,
            deadline_stall_s: 0.0,
            rejoin_catchup_s: 0.0,
            replayed_steps: 0,
            useful_samples: 0,
            sim_time_s: 0.0,
            healthy_iteration_s: t_h,
            goodput: 0.0,
            healthy_goodput: (n as u64 * batch) as f64 / t_h,
        };
        let mut time_s = 0.0;
        let mut prev_k = n;
        for step in 0..config.steps {
            let k = survivors_at(step);
            let t_k = iter_s(k);
            let evicted: Vec<usize> =
                (0..n).filter(|&w| outages[w].is_some_and(|o| o.start == step)).collect();
            let rejoined: Vec<usize> =
                (0..n).filter(|&w| outages[w].is_some_and(|o| o.end == step)).collect();

            // Steady state ticks at the healthy schedule pace: the data
            // pipeline, LR schedule and logging barriers are provisioned
            // for t_h, so a smaller cohort never finishes a step early —
            // it just banks fewer samples. This is what makes goodput
            // monotone even on interconnects where a smaller world has
            // higher raw throughput (Fig. 10 Ethernet).
            let mut dt = t_h.max(t_k);
            if !evicted.is_empty() {
                // The interrupted attempt ran at the outgoing cohort's
                // pace, stalled through the collective deadline, then the
                // survivors re-bucketed and re-ran the step.
                dt = iter_s(prev_k) + deadline_s + t_k;
                out.deadline_stall_s += deadline_s;
                out.evictions += evicted.len() as u64;
                if tracer.is_some() {
                    let name = events.intern("membership/evict");
                    for &w in &evicted {
                        events
                            .span(name, TraceLayer::Distrib, EventKind::Eviction, time_s * 1e6, 0.0)
                            .on_track(MEMBERSHIP_TRACK)
                            .with_arg("worker", w)
                            .with_arg("step", step)
                            .with_arg("deadline_s", deadline_s)
                            .with_arg("state", WorkerState::Suspect.label());
                    }
                }
            }
            if !rejoined.is_empty() {
                // Rejoiners restore the latest checkpoint and replay the
                // steps since its boundary; the cohort holds at the epoch
                // barrier, so the catch-up extends wall time but yields
                // no new samples.
                let lag = if config.checkpoint_interval > 0 {
                    step % config.checkpoint_interval
                } else {
                    step
                };
                let catchup_s = restore_s + lag as f64 * self.compute_iter_s();
                dt += catchup_s;
                out.rejoin_catchup_s += catchup_s;
                out.rejoins += rejoined.len() as u64;
                out.replayed_steps += lag * rejoined.len() as u64;
                if tracer.is_some() {
                    let name = events.intern("membership/rejoin");
                    for &w in &rejoined {
                        events
                            .span(name, TraceLayer::Distrib, EventKind::Rejoin, time_s * 1e6, 0.0)
                            .on_track(MEMBERSHIP_TRACK)
                            .with_arg("worker", w)
                            .with_arg("step", step)
                            .with_arg("catchup_s", catchup_s)
                            .with_arg("replayed", lag)
                            .with_arg("state", WorkerState::Rejoining.label());
                    }
                }
            }
            if !evicted.is_empty() || !rejoined.is_empty() {
                let epoch = epochs.len() as u64;
                epochs.push(EpochRecord {
                    epoch,
                    start_step: step,
                    steps: 0,
                    survivors: k,
                    iteration_s: t_k,
                    rescale: n as f64 / k as f64,
                });
                if tracer.is_some() {
                    let name = events.intern("membership/epoch");
                    events
                        .span(name, TraceLayer::Distrib, EventKind::Membership, time_s * 1e6, 0.0)
                        .on_track(MEMBERSHIP_TRACK)
                        .with_arg("epoch", epoch)
                        .with_arg("step", step)
                        .with_arg("survivors", k)
                        .with_arg("rescale", n as f64 / k as f64);
                }
            }
            if k < n {
                out.degraded_steps += 1;
            }
            let last = epochs.len() - 1;
            epochs[last].steps += 1;
            out.useful_samples += k as u64 * batch;
            time_s += dt;
            prev_k = k;
        }
        out.sim_time_s = time_s + 0.0;
        out.goodput = if time_s > 0.0 { out.useful_samples as f64 / time_s } else { 0.0 };
        out.epochs = epochs;

        if let Some(tr) = tracer {
            let name = events.intern("elastic/run");
            events
                .span(name, TraceLayer::Distrib, EventKind::Membership, 0.0, time_s * 1e6)
                .on_track(MEMBERSHIP_TRACK)
                .with_arg("workers", n)
                .with_arg("steps", config.steps)
                .with_arg("epochs", out.epoch_count())
                .with_arg("evictions", out.evictions)
                .with_arg("rejoins", out.rejoins)
                .with_arg("degraded_steps", out.degraded_steps)
                .with_arg("deadline_stall_s", out.deadline_stall_s)
                .with_arg("rejoin_catchup_s", out.rejoin_catchup_s)
                .with_arg("goodput", out.goodput)
                .with_arg("healthy_goodput", out.healthy_goodput)
                .with_arg("cluster", cluster.label());
            tr.record_batch(events);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::{BackwardProfile, BucketingConfig};
    use crate::{fig10_clusters, Interconnect, SyncStrategy};

    fn sim() -> DataParallelSim {
        DataParallelSim { backward: BackwardProfile::analytic(0.36, 102e6, 16), per_gpu_batch: 32 }
    }

    #[test]
    fn churn_schedule_is_pure_and_order_independent() {
        let spec = ChurnSpec::with_seed(7);
        let forward: Vec<_> = (0..32).map(|w| spec.outage(w, 40)).collect();
        let backward: Vec<_> = (0..32).rev().map(|w| spec.outage(w, 40)).collect();
        let reversed: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
        for o in forward.into_iter().flatten() {
            assert!(o.start >= 1 && o.start < 40);
            let len = o.end - o.start;
            assert!((2..=5).contains(&len), "outage length {len}");
        }
    }

    #[test]
    fn raising_the_rate_only_adds_outages() {
        // Monotone nesting: every outage at rate r is present, bit for
        // bit, at every rate ≥ r.
        for seed in 0..16u64 {
            let lo = ChurnSpec::with_seed(seed).with_rate(0.2);
            let hi = ChurnSpec::with_seed(seed).with_rate(0.7);
            for w in 0..64 {
                if let Some(o) = lo.outage(w, 50) {
                    assert_eq!(hi.outage(w, 50), Some(o), "seed {seed} worker {w}");
                }
            }
        }
    }

    #[test]
    fn worker_states_follow_the_supervisor_machine() {
        let spec = ChurnSpec::with_seed(3).with_rate(1.0);
        let steps = 30;
        let o = spec.outage(0, steps).expect("rate 1.0 always schedules");
        assert_eq!(WorkerState::at(&spec, 0, o.start - 1, steps), WorkerState::Healthy);
        assert_eq!(WorkerState::at(&spec, 0, o.start, steps), WorkerState::Suspect);
        if o.end - o.start > 1 {
            assert_eq!(WorkerState::at(&spec, 0, o.start + 1, steps), WorkerState::Evicted);
        }
        if o.end <= steps {
            assert_eq!(WorkerState::at(&spec, 0, o.end, steps), WorkerState::Rejoining);
            assert_eq!(WorkerState::at(&spec, 0, o.end + 1, steps), WorkerState::Healthy);
        }
    }

    #[test]
    fn degraded_epochs_match_fresh_worlds_bitwise() {
        let sim = sim();
        let cluster = ClusterConfig::single_machine(4);
        let config = ElasticConfig::new(ChurnSpec::with_seed(11).with_rate(0.9), 40);
        let out = sim.simulate_elastic(&cluster, &config, None);
        assert!(out.evictions > 0, "rate 0.9 on 4 workers must evict someone");
        for epoch in &out.epochs {
            let fresh = sim.simulate_events(
                &survivor_cluster(&cluster, epoch.survivors),
                &config.event,
                None,
            );
            assert_eq!(
                epoch.iteration_s.to_bits(),
                fresh.profile.iteration_s.to_bits(),
                "epoch {} ({} survivors)",
                epoch.epoch,
                epoch.survivors
            );
        }
    }

    #[test]
    fn salt_is_unobservable() {
        let sim = sim();
        for (_, cluster) in fig10_clusters() {
            let mut a = ElasticConfig::new(ChurnSpec::with_seed(5).with_rate(0.6), 30);
            let mut b = a;
            a.event.tie_break_salt = 0;
            b.event.tie_break_salt = 0xdead_beef;
            let oa = sim.simulate_elastic(&cluster, &a, None);
            let ob = sim.simulate_elastic(&cluster, &b, None);
            assert_eq!(oa, ob, "salt leaked into elastic outcome on {}", cluster.label());
        }
    }

    #[test]
    fn goodput_is_monotone_in_churn_rate() {
        let sim = sim();
        for (name, cluster) in fig10_clusters() {
            for seed in [1u64, 7, 13] {
                let mut prev = f64::INFINITY;
                for rate in [0.0, 0.25, 0.5, 0.75, 1.0] {
                    let config = ElasticConfig::new(ChurnSpec::with_seed(seed).with_rate(rate), 48);
                    let out = sim.simulate_elastic(&cluster, &config, None);
                    assert!(
                        out.goodput <= prev + 1e-9,
                        "{name} seed {seed}: goodput rose {prev} -> {} at rate {rate}",
                        out.goodput
                    );
                    prev = out.goodput;
                }
            }
        }
    }

    #[test]
    fn zero_churn_matches_the_healthy_run() {
        let sim = sim();
        let cluster = ClusterConfig::single_machine(2);
        let config = ElasticConfig::new(ChurnSpec::with_seed(1).with_rate(0.0), 20);
        let out = sim.simulate_elastic(&cluster, &config, None);
        assert_eq!(out.epoch_count(), 1);
        assert_eq!(out.evictions, 0);
        assert_eq!(out.degraded_steps, 0);
        // Accumulated step times round differently from the single
        // division in healthy_goodput; equal up to a few ULPs.
        let rel = (out.goodput - out.healthy_goodput).abs() / out.healthy_goodput;
        assert!(rel < 1e-12, "goodput {} vs healthy {}", out.goodput, out.healthy_goodput);
    }

    #[test]
    fn single_worker_clusters_never_churn() {
        let sim = sim();
        let cluster = ClusterConfig::single_machine(1);
        let config = ElasticConfig::new(ChurnSpec::with_seed(9).with_rate(1.0), 20);
        let out = sim.simulate_elastic(&cluster, &config, None);
        assert_eq!(out.evictions, 0);
        assert_eq!(out.epoch_count(), 1);
    }

    #[test]
    fn machine_granularity_eviction_on_multi_gpu_machines() {
        let sim = sim();
        let cluster = ClusterConfig::hierarchical(2, 2, Interconnect::infiniband_100g());
        let config = ElasticConfig::new(ChurnSpec::with_seed(2).with_rate(1.0), 30);
        let out = sim.simulate_elastic(&cluster, &config, None);
        for epoch in &out.epochs {
            assert_eq!(epoch.survivors % 2, 0, "survivors {} not machine-aligned", epoch.survivors);
        }
    }

    #[test]
    fn rescale_is_exact() {
        let sim = sim();
        let cluster = ClusterConfig::single_machine(4);
        let config = ElasticConfig::new(ChurnSpec::with_seed(11).with_rate(0.9), 40);
        let out = sim.simulate_elastic(&cluster, &config, None);
        for epoch in &out.epochs {
            assert_eq!(
                epoch.rescale.to_bits(),
                (4.0 / epoch.survivors as f64).to_bits(),
                "epoch {}",
                epoch.epoch
            );
        }
    }

    #[test]
    fn traced_run_emits_membership_events_and_matches_untraced() {
        let sim = sim();
        let cluster = ClusterConfig::single_machine(4);
        let config = ElasticConfig::new(ChurnSpec::with_seed(11).with_rate(0.9), 40);
        let plain = sim.simulate_elastic(&cluster, &config, None);
        let tracer = TraceRecorder::shared();
        let traced = sim.simulate_elastic(&cluster, &config, Some(&tracer));
        assert_eq!(plain, traced);
        let events = tracer.drain();
        let count = |kind: EventKind| events.iter().filter(|e| e.kind == kind).count() as u64;
        assert_eq!(count(EventKind::Eviction), plain.evictions);
        assert_eq!(count(EventKind::Rejoin), plain.rejoins);
        // One instant per epoch change plus the summary span.
        assert_eq!(count(EventKind::Membership), plain.epoch_count());
    }

    #[test]
    fn re_bucketing_follows_the_epoch_bucketing_config() {
        let sim = sim();
        let cluster = ClusterConfig::custom(
            1,
            4,
            Interconnect::infiniband_100g(),
            SyncStrategy::RingAllReduce,
        );
        let mut config = ElasticConfig::new(ChurnSpec::with_seed(11).with_rate(0.9), 40);
        config.event.bucketing = BucketingConfig::PerLayer;
        let out = sim.simulate_elastic(&cluster, &config, None);
        for epoch in &out.epochs {
            let fresh = sim.simulate_events(
                &survivor_cluster(&cluster, epoch.survivors),
                &config.event,
                None,
            );
            assert_eq!(epoch.iteration_s.to_bits(), fresh.profile.iteration_s.to_bits());
        }
    }
}
