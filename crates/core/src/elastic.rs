//! `tbd scale --churn` / `tbd chaos --churn`: the elastic-membership sweep.
//!
//! One worker's (fused f32) iteration is profiled once through
//! [`profile_workload`] — the same worker `tbd trace` replays at 1M2G,
//! bit for bit — then every Fig. 10 cluster is replayed through
//! [`tbd_distrib::DataParallelSim::simulate_elastic`] with a trace sink at
//! a ladder of churn rates, rate 0.0 included so the report itself
//! exhibits the monotone-goodput law: more churn never buys goodput.
//! Reports serialise through the in-tree JSON model for the CI `elastic`
//! job's `--check` gate, and render as a markdown table for humans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use tbd_distrib::{fig10_clusters, ChurnSpec, DataParallelSim, ElasticConfig};
use tbd_frameworks::{Framework, SpeedOptions};
use tbd_gpusim::GpuSpec;
use tbd_models::ModelKind;
use tbd_profiler::json::{self, Canonical};
use tbd_profiler::profile_workload;
use tbd_profiler::trace::{events_digest, TraceRecorder};
use tbd_tensor::Precision;

/// Version stamp of the elastic-report JSON schema.
pub const ELASTIC_SCHEMA_VERSION: u64 = 1;

/// The churn-rate ladder every cluster is swept through. Rate 0.0 is the
/// healthy control point; the ladder is ordered so the report's
/// [`ElasticReport::monotonicity`] gate reads top to bottom.
pub const CHURN_RATE_LADDER: [f64; 4] = [0.0, 0.3, 0.6, 0.9];

/// One simulated (cluster × churn rate) point.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticEntry {
    /// Grid label (`"2M1G ethernet"`, `"1M4G pcie"`, …).
    pub label: String,
    /// Synchronisation strategy name.
    pub sync: String,
    /// Full-cohort GPU count.
    pub workers: usize,
    /// Churn rate this point was simulated at.
    pub churn_rate: f64,
    /// Membership epochs the run split into.
    pub epochs: u64,
    /// Workers evicted over the run.
    pub evictions: u64,
    /// Evicted workers that rejoined within the run.
    pub rejoins: u64,
    /// Steps executed with a reduced cohort.
    pub degraded_steps: u64,
    /// Total collective-deadline stall before evictions, seconds.
    pub deadline_stall_s: f64,
    /// Total rejoin catch-up (restore + replay), seconds.
    pub rejoin_catchup_s: f64,
    /// Samples that advanced training.
    pub useful_samples: u64,
    /// Churn-adjusted goodput, samples/s.
    pub goodput: f64,
    /// Goodput of the churn-free run, samples/s.
    pub healthy_goodput: f64,
    /// `goodput / healthy_goodput`, in `[0, 1]`.
    pub goodput_fraction: f64,
    /// FNV-1a digest of the canonical membership-trace lines of this point.
    pub digest: String,
    /// Top-1 trace-mining diagnosis label for this point (DESIGN.md §5h).
    /// Not digested — the diagnosis engine has its own drift gate, so
    /// pinned sweep baselines stay valid.
    pub diagnosis: Option<String>,
}

impl ElasticEntry {
    /// Stable identity within a report: the rate in its shortest
    /// round-trip form, so distinct rates give distinct keys (`-0.0` reads
    /// as `0`, as the JSON writer prints it).
    pub fn key(&self) -> String {
        format!("{} @ {}", self.label, self.churn_rate + 0.0)
    }
}

tbd_profiler::json_record!(ElasticEntry, "elastic entry";
fields {
    label, sync, workers, churn_rate, epochs, evictions, rejoins, degraded_steps,
    deadline_stall_s, rejoin_catchup_s, useful_samples, goodput, healthy_goodput,
    goodput_fraction, digest, diagnosis,
}
digested {
    label, "|" sync, "|w:" workers, "|rate:" churn_rate, "|ep:" epochs, "|ev:" evictions,
    "|rj:" rejoins, "|deg:" degraded_steps, "|stall:" deadline_stall_s,
    "|catch:" rejoin_catchup_s, "|smp:" useful_samples, "|gp:" goodput,
    "|hgp:" healthy_goodput, "|frac:" goodput_fraction, "|" digest,
});

/// A full elastic-membership report.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticReport {
    /// Schema version ([`ELASTIC_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Model name.
    pub model: String,
    /// Framework profile name.
    pub framework: String,
    /// Per-GPU mini-batch.
    pub batch: usize,
    /// Churn-schedule seed.
    pub seed: u64,
    /// Steps simulated per point.
    pub steps: u64,
    /// One worker's profiled iteration time, seconds.
    pub compute_iter_s: f64,
    /// Gradient volume synchronised per iteration, bytes.
    pub gradient_bytes: f64,
    /// Simulated points, grid-major then ladder order.
    pub entries: Vec<ElasticEntry>,
}

tbd_profiler::json_record!(ElasticReport, "elastic report", schema = ELASTIC_SCHEMA_VERSION;
    fields {
        schema_version, model, framework, batch, seed, steps, compute_iter_s, gradient_bytes,
        entries,
    }
    digested { entries }
    derived { digest = ElasticReport::digest_hex });

impl ElasticReport {
    /// Profiles one worker of `kind`/`framework` at `batch` on `gpu`, then
    /// simulates every Fig. 10 cluster at every rate of `rates` under the
    /// seeded churn schedule ([`CHURN_RATE_LADDER`] for the full sweep; the
    /// CLI's `--churn mild|heavy|<rate>` presets prepend the 0.0 control
    /// point so goodput retention stays well-defined).
    ///
    /// # Errors
    ///
    /// Returns a message when the graph cannot be built or the per-GPU
    /// batch does not fit the device.
    pub fn run_rates(
        kind: ModelKind,
        framework: Framework,
        batch: usize,
        gpu: &GpuSpec,
        seed: u64,
        steps: u64,
        rates: &[f64],
    ) -> Result<ElasticReport, String> {
        let model = kind.build_full(batch).map_err(|e| e.to_string())?;
        let speed = SpeedOptions::fused(Precision::F32);
        let profile = profile_workload(kind, framework, &model, gpu, speed, None)
            .map_err(|_| format!("{} batch {batch} does not fit {}", kind.name(), gpu.name))?;
        let sim = DataParallelSim::from_iteration(&model.graph, &profile.iteration, batch);
        let mut entries = Vec::new();
        for (label, cluster) in fig10_clusters() {
            for &rate in rates {
                let churn = ChurnSpec::with_seed(seed).with_rate(rate);
                let config = ElasticConfig::new(churn, steps);
                let tracer = TraceRecorder::shared();
                let out = sim.simulate_elastic(&cluster, &config, Some(&tracer));
                let events = tracer.drain();
                let diagnosis =
                    tbd_profiler::diagnose_events(kind.name(), framework.name(), batch, &events);
                entries.push(ElasticEntry {
                    label: label.clone(),
                    sync: cluster.sync.name().to_string(),
                    workers: out.workers,
                    churn_rate: rate,
                    epochs: out.epoch_count(),
                    evictions: out.evictions,
                    rejoins: out.rejoins,
                    degraded_steps: out.degraded_steps,
                    deadline_stall_s: out.deadline_stall_s,
                    rejoin_catchup_s: out.rejoin_catchup_s,
                    useful_samples: out.useful_samples,
                    goodput: out.goodput,
                    healthy_goodput: out.healthy_goodput,
                    goodput_fraction: out.goodput_fraction(),
                    digest: format!("{:016x}", events_digest(&events)),
                    diagnosis: Some(diagnosis.top1().class.label().to_string()),
                });
            }
        }
        Ok(ElasticReport {
            schema_version: ELASTIC_SCHEMA_VERSION,
            model: kind.name().to_string(),
            framework: framework.name().to_string(),
            batch,
            seed,
            steps,
            compute_iter_s: sim.compute_iter_s(),
            gradient_bytes: sim.gradient_bytes(),
            entries,
        })
    }

    /// Checks the elastic laws on this report: per cluster, goodput must be
    /// monotone non-increasing in the churn rate, and the rate-0.0 control
    /// point must retain the full healthy goodput.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated cluster and rate pair.
    pub fn monotonicity(&self) -> Result<(), String> {
        let mut last: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
        for e in &self.entries {
            if e.churn_rate == 0.0 && (e.goodput_fraction - 1.0).abs() > 1e-9 {
                return Err(format!(
                    "{}: churn-free goodput fraction {:.9} should be 1",
                    e.label, e.goodput_fraction
                ));
            }
            if let Some(&(rate, goodput)) = last.get(e.label.as_str()) {
                // Relative slack absorbs ULP noise in the goodput division.
                if e.churn_rate > rate && e.goodput > goodput * (1.0 + 1e-9) {
                    return Err(format!(
                        "{}: goodput rose from {:.3}/s at rate {} to {:.3}/s at rate {}",
                        e.label,
                        goodput,
                        rate + 0.0,
                        e.goodput,
                        e.churn_rate + 0.0
                    ));
                }
            }
            last.insert(e.label.as_str(), (e.churn_rate, e.goodput));
        }
        Ok(())
    }

    /// Compares goodput against a pinned snapshot on overlapping
    /// (cluster × rate) keys, within
    /// [`json::DETERMINISTIC_DRIFT_TOLERANCE`]: the sweep is deterministic.
    ///
    /// # Errors
    ///
    /// Returns one line per drifting entry, or a message when the reports
    /// share no keys.
    pub fn check_drift(&self, baseline: &ElasticReport) -> Result<(), String> {
        let by_key = |e: &ElasticEntry| Some((e.key(), e.goodput));
        let line = |key: &String, goodput: f64, drift: f64, pinned: f64| {
            format!("{key}: goodput {goodput:.3} drifted {drift:.2e} from pinned {pinned:.3}")
        };
        let tolerance = json::DETERMINISTIC_DRIFT_TOLERANCE;
        let (compared, failures) =
            json::keyed_drift(&baseline.entries, &self.entries, by_key, tolerance, line);
        if compared == 0 {
            return Err("no overlapping entries between elastic report and baseline".into());
        }
        json::verdict(failures)
    }

    /// Renders the report as a markdown table (the CI elastic artifact).
    /// The rate column prints each rate as [`ElasticEntry::key`] does, so
    /// distinct rates never render alike.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# `tbd scale --churn` — {} / {} / per-GPU batch {}\n",
            self.model, self.framework, self.batch
        );
        let _ = writeln!(
            out,
            "One-worker iteration {:.1} ms, {:.1} MB of gradients, {} steps per point, churn seeded {}.\n",
            self.compute_iter_s * 1e3,
            self.gradient_bytes / 1e6,
            self.steps,
            self.seed
        );
        let _ = writeln!(
            out,
            "| cluster | sync | rate | epochs | evictions | rejoins | degraded | stall ms | catch-up ms | goodput /s | retained | diagnosis |"
        );
        let _ = writeln!(out, "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---|");
        for e in &self.entries {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {:.2} | {:.2} | {:.1} | {:.0} % | {} |",
                e.label,
                e.sync,
                e.churn_rate + 0.0,
                e.epochs,
                e.evictions,
                e.rejoins,
                e.degraded_steps,
                e.deadline_stall_s * 1e3,
                e.rejoin_catchup_s * 1e3,
                e.goodput,
                100.0 * e.goodput_fraction,
                e.diagnosis.as_deref().unwrap_or("—"),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> ElasticReport {
        // A3C at batch 8 is the cheapest full profile in the zoo.
        let (gpu, ladder) = (GpuSpec::quadro_p4000(), &CHURN_RATE_LADDER);
        ElasticReport::run_rates(ModelKind::A3c, Framework::mxnet(), 8, &gpu, 7, 32, ladder)
            .expect("A3C fits")
    }

    #[test]
    fn report_round_trips_and_digests_stably() {
        let report = tiny_report();
        assert_eq!(report.entries.len(), 5 * CHURN_RATE_LADDER.len(), "Fig. 10 grid × ladder");
        let text = report.to_json().to_string();
        let parsed = ElasticReport::from_json_text(&text).expect("round trip");
        assert_eq!(parsed, report);
        assert_eq!(parsed.digest_hex(), report.digest_hex());
        let bumped = text.replace("\"schema_version\":1", "\"schema_version\":99");
        assert!(ElasticReport::from_json_text(&bumped).is_err());
    }

    #[test]
    fn goodput_is_monotone_down_the_ladder() {
        let report = tiny_report();
        report.monotonicity().expect("more churn never buys goodput");
        // The heavy-churn points really do churn: some cluster loses
        // workers, otherwise the sweep proves nothing.
        assert!(
            report.entries.iter().any(|e| e.evictions > 0),
            "no cluster ever evicted under the ladder"
        );
    }

    #[test]
    fn drift_gate_passes_self_and_catches_changes() {
        let report = tiny_report();
        report.check_drift(&report).expect("self never drifts");
        let mut moved = report.clone();
        moved.entries[0].goodput *= 1.01;
        assert!(moved.check_drift(&report).is_err());
    }

    #[test]
    fn markdown_has_one_row_per_entry() {
        let report = tiny_report();
        let md = report.to_markdown();
        for entry in &report.entries {
            assert!(md.contains(&format!("| {} |", entry.label)), "{md}");
        }
        assert!(md.contains("retained"));
    }
}
