//! `tbd scale`: the paper's Fig. 10/11 scaling sweep, replayed through the
//! `tbd-distrib` event engine.
//!
//! One worker's iteration is profiled on the suite device, its per-layer
//! backward finish times are lifted off the kernel timeline
//! ([`DataParallelSim::from_iteration`]), and every cluster in the grid is
//! simulated event-by-event with DDP-style gradient bucketing — so the
//! reported overlap is *derived* from the schedule, never assumed. Reports
//! serialise through the in-tree JSON model for the CI `distrib-sweep`
//! job's `--check` gate, and render as a markdown table for humans.

use std::fmt::Write as _;
use tbd_distrib::{
    fig10_clusters, scale_grid, ClusterConfig, DataParallelSim, EventConfig, StragglerSpec,
};
use tbd_frameworks::{Framework, SpeedOptions};
use tbd_gpusim::GpuSpec;
use tbd_models::ModelKind;
use tbd_profiler::json::{self, Canonical};
use tbd_profiler::profile_workload;
use tbd_profiler::trace::{events_digest, TraceRecorder};

/// Version stamp of the scale-report JSON schema.
pub const SCALE_SCHEMA_VERSION: u64 = 1;

/// One simulated cluster point.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleEntry {
    /// Grid label (`"2M1G ethernet"`, `"1M4G pcie"`, …).
    pub label: String,
    /// Synchronisation strategy name.
    pub sync: String,
    /// Total GPU count.
    pub workers: usize,
    /// Gradient buckets exchanged per iteration.
    pub buckets: usize,
    /// Synchronous iteration wall time, seconds.
    pub iteration_s: f64,
    /// Aggregate throughput, samples/s.
    pub throughput: f64,
    /// Throughput / (workers × single-GPU throughput).
    pub scaling_efficiency: f64,
    /// Total link occupancy, seconds.
    pub comm_s: f64,
    /// Communication that extended the iteration, seconds.
    pub exposed_comm_s: f64,
    /// Derived overlap, `1 − exposed/comm`.
    pub overlap: f64,
    /// Compute slowdown of the slowest worker (1.0 healthy).
    pub slowdown_factor: f64,
    /// Total transfer retries across buckets.
    pub retries: u64,
    /// FNV-1a digest of the canonical event-trace lines of this point.
    pub digest: String,
    /// Top-1 trace-mining diagnosis label for this point (DESIGN.md §5h).
    /// Not digested — the diagnosis engine has its own drift gate, so
    /// pinned sweep baselines stay valid.
    pub diagnosis: Option<String>,
    /// Fleet cost of one iteration in USD (`workers × $/h / 3600 ×
    /// iteration_s`), `None` when the device has no rental price. Like
    /// `diagnosis`, the TCO columns are not digested, so pinned sweep
    /// baselines survive price-list edits.
    pub cost_per_iteration: Option<f64>,
    /// USD per 1000 training samples — the price-normalised ranking
    /// metric: at uniform device prices it orders clusters exactly like
    /// time-per-sample does.
    pub cost_per_1k_samples: Option<f64>,
}

impl ScaleEntry {
    /// Evaluates one grid point: replays `sim` over `cluster` through the
    /// event engine into a fresh [`TraceRecorder`] (stragglers seeded by
    /// `straggler_seed`), digests the events, takes the top-1
    /// trace-mining diagnosis, and prices the iteration at
    /// [`GpuSpec::price_per_hour`]. `tbd scale` and `tbd serve` both
    /// answer a cluster point through this one function.
    pub fn replay(
        sim: &DataParallelSim,
        label: String,
        cluster: &ClusterConfig,
        straggler_seed: Option<u64>,
        kind: ModelKind,
        framework: Framework,
        gpu: &GpuSpec,
    ) -> ScaleEntry {
        let batch = sim.per_gpu_batch;
        let config = EventConfig {
            stragglers: straggler_seed.map(StragglerSpec::with_seed),
            ..EventConfig::default()
        };
        let tracer = TraceRecorder::shared();
        let out = sim.simulate_events(cluster, &config, Some(&tracer));
        let events = tracer.drain();
        let diagnosis =
            tbd_profiler::diagnose_events(kind.name(), framework.name(), batch, &events);
        let cost_per_iteration = (gpu.price_per_hour > 0.0)
            .then(|| cluster.cost_per_iteration(gpu.price_per_hour, out.profile.iteration_s));
        ScaleEntry {
            label,
            sync: cluster.sync.name().to_string(),
            workers: cluster.workers(),
            buckets: out.buckets.len(),
            iteration_s: out.profile.iteration_s,
            throughput: out.profile.throughput,
            scaling_efficiency: out.profile.scaling_efficiency,
            comm_s: out.total_comm_s,
            exposed_comm_s: out.exposed_comm_s,
            overlap: out.overlap,
            slowdown_factor: out.slowdown_factor,
            retries: u64::from(out.retries),
            digest: format!("{:016x}", events_digest(&events)),
            diagnosis: Some(diagnosis.top1().class.label().to_string()),
            cost_per_iteration,
            cost_per_1k_samples: cost_per_iteration
                .map(|c| c * 1000.0 / (cluster.workers() * batch) as f64),
        }
    }

    /// Exposed-communication share of the iteration: `exposed_comm_s /
    /// iteration_s`, or `None` for a zero-duration iteration.
    pub fn exposed_comm_ratio(&self) -> Option<f64> {
        (self.iteration_s > 0.0 && self.iteration_s.is_finite())
            .then(|| self.exposed_comm_s / self.iteration_s)
    }

    /// Whether this point's exposed gradient exchange outlasts one
    /// single-GPU iteration `single_iteration_s`. A worker computes for at
    /// least that long, so its iteration then exceeds twice the single
    /// GPU's, and a two-worker cluster falls below one GPU: this is the
    /// precondition of Observation 12. Link occupancy hidden behind the
    /// compute does not count.
    pub fn exposed_exchange_exceeds(&self, single_iteration_s: f64) -> bool {
        self.exposed_comm_s > single_iteration_s
    }
}

tbd_profiler::json_record!(ScaleEntry, "scale entry";
fields {
    label, sync, workers, buckets, iteration_s, throughput, scaling_efficiency, comm_s,
    exposed_comm_s, overlap, slowdown_factor, retries, digest, diagnosis,
    cost_per_iteration, cost_per_1k_samples,
}
digested {
    label, "|" sync, "|w:" workers, "|b:" buckets, "|iter:" iteration_s, "|tp:" throughput,
    "|eff:" scaling_efficiency, "|comm:" comm_s, "|exp:" exposed_comm_s, "|ovl:" overlap,
    "|slow:" slowdown_factor, "|r:" retries, "|" digest,
});

/// A full `tbd scale` report.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    /// Schema version ([`SCALE_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Model name.
    pub model: String,
    /// Framework profile name.
    pub framework: String,
    /// Per-GPU mini-batch.
    pub batch: usize,
    /// Whether the full 1M1G→4M4G grid was swept (vs the Fig. 10 points).
    pub sweep: bool,
    /// Straggler-injection seed, when faults were enabled.
    pub straggler_seed: Option<u64>,
    /// One worker's profiled iteration time, seconds.
    pub compute_iter_s: f64,
    /// Gradient volume synchronised per iteration, bytes.
    pub gradient_bytes: f64,
    /// Per-device rental price the TCO columns were computed at, USD/h
    /// ([`GpuSpec::price_per_hour`]); `None` when costing was disabled.
    pub price_per_hour: Option<f64>,
    /// Simulated cluster points, in grid order.
    pub entries: Vec<ScaleEntry>,
}

tbd_profiler::json_record!(ScaleReport, "scale report", schema = SCALE_SCHEMA_VERSION;
    fields {
        schema_version, model, framework, batch, sweep, straggler_seed, compute_iter_s,
        gradient_bytes, price_per_hour, entries,
    }
    digested { entries }
    derived { digest = ScaleReport::digest_hex });

impl ScaleReport {
    /// Profiles one worker of `kind`/`framework` at `batch` on `gpu`, then
    /// event-simulates every cluster of the Fig. 10 grid (or, with
    /// `sweep`, the full 1M1G→4M4G grid). `straggler_seed` enables
    /// deterministic fault injection.
    ///
    /// # Errors
    ///
    /// Returns a message when the per-GPU batch does not fit the device.
    pub fn run(
        kind: ModelKind,
        framework: Framework,
        batch: usize,
        gpu: &GpuSpec,
        sweep: bool,
        straggler_seed: Option<u64>,
    ) -> Result<ScaleReport, String> {
        let model = kind.build_full(batch).map_err(|e| e.to_string())?;
        let profile = profile_workload(kind, framework, &model, gpu, SpeedOptions::default(), None)
            .map_err(|e| e.to_string())?;
        let sim = DataParallelSim::from_iteration(&model.graph, &profile.iteration, batch);
        let grid = if sweep { scale_grid() } else { fig10_clusters() };
        let entries = grid
            .into_iter()
            .map(|(label, cluster)| {
                ScaleEntry::replay(&sim, label, &cluster, straggler_seed, kind, framework, gpu)
            })
            .collect();
        Ok(ScaleReport {
            schema_version: SCALE_SCHEMA_VERSION,
            model: kind.name().to_string(),
            framework: framework.name().to_string(),
            batch,
            sweep,
            straggler_seed,
            compute_iter_s: sim.compute_iter_s(),
            gradient_bytes: sim.gradient_bytes(),
            price_per_hour: (gpu.price_per_hour > 0.0).then_some(gpu.price_per_hour),
            entries,
        })
    }

    /// Checks the paper's distributed observations on this report
    /// (meaningful on healthy runs; straggler injection voids them) and
    /// returns what held:
    /// - Observation 12: 2M1G over Gigabit Ethernet falls *below* the
    ///   single GPU. It is checked only where its precondition holds
    ///   ([`ScaleEntry::exposed_exchange_exceeds`] the 1M1G iteration): a
    ///   model whose ethernet exchange mostly hides behind its compute
    ///   scales fine, and the verdict says the observation does not apply.
    /// - Observation 13: 2M1G over InfiniBand keeps ≥ 90 % scaling
    ///   efficiency.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated observation.
    pub fn observations(&self) -> Result<String, String> {
        let find = |label: &str| {
            self.entries
                .iter()
                .find(|e| e.label == label)
                .ok_or_else(|| format!("report has no '{label}' entry"))
        };
        let single = find("1M1G")?;
        let eth = find("2M1G ethernet")?;
        let ib = find("2M1G infiniband")?;
        let applies = eth.exposed_exchange_exceeds(single.iteration_s);
        if applies && eth.throughput >= single.throughput {
            return Err(format!(
                "Observation 12 violated: 2M1G ethernet {:.1}/s should fall below 1M1G {:.1}/s",
                eth.throughput, single.throughput
            ));
        }
        if ib.scaling_efficiency < 0.9 {
            return Err(format!(
                "Observation 13 violated: 2M1G infiniband efficiency {:.2} < 0.9",
                ib.scaling_efficiency
            ));
        }
        Ok(if applies {
            "observations 12/13 hold (ethernet sub-single-GPU, infiniband \u{2265}90% scaling)"
                .to_string()
        } else {
            format!(
                "observation 13 holds (infiniband \u{2265}90% scaling); observation 12 does not \
                 apply: the 2M1G ethernet exchange exposes {:.2} ms, within one 1M1G iteration \
                 ({:.2} ms)",
                eth.exposed_comm_s * 1e3,
                single.iteration_s * 1e3
            )
        })
    }

    /// Compares throughput against a pinned snapshot on overlapping
    /// labels, within [`json::DETERMINISTIC_DRIFT_TOLERANCE`]: the sweep is
    /// deterministic.
    ///
    /// # Errors
    ///
    /// Returns one line per drifting entry, or a message when the reports
    /// share no labels.
    pub fn check_drift(&self, baseline: &ScaleReport) -> Result<(), String> {
        let throughput = |e: &ScaleEntry| Some((e.label.clone(), e.throughput));
        let line = |label: &String, tp: f64, drift: f64, pinned: f64| {
            format!("{label}: throughput {tp:.3} drifted {drift:.2e} from pinned {pinned:.3}")
        };
        let tolerance = json::DETERMINISTIC_DRIFT_TOLERANCE;
        let (compared, failures) =
            json::keyed_drift(&baseline.entries, &self.entries, throughput, tolerance, line);
        if compared == 0 {
            return Err("no overlapping entries between scale report and baseline".into());
        }
        json::verdict(failures)
    }

    /// Renders the report as a markdown table (the CI sweep artifact).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# `tbd scale` — {} / {} / per-GPU batch {}\n",
            self.model, self.framework, self.batch
        );
        let _ = writeln!(
            out,
            "One-worker iteration {:.1} ms, {:.1} MB of gradients, {} grid{}.\n",
            self.compute_iter_s * 1e3,
            self.gradient_bytes / 1e6,
            if self.sweep { "1M1G→4M4G" } else { "Fig. 10" },
            match self.straggler_seed {
                Some(seed) => format!(", stragglers seeded {seed}"),
                None => String::new(),
            }
        );
        let _ = writeln!(
            out,
            "| cluster | sync | samples/s | efficiency | comm ms | exposed ms | overlap | buckets | slowdown | retries | $/1k samples | diagnosis |"
        );
        let _ = writeln!(out, "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---|");
        for e in &self.entries {
            let _ = writeln!(
                out,
                "| {} | {} | {:.1} | {:.0} % | {:.2} | {:.2} | {:.2} | {} | {:.2}× | {} | {} | {} |",
                e.label,
                e.sync,
                e.throughput,
                100.0 * e.scaling_efficiency,
                e.comm_s * 1e3,
                e.exposed_comm_s * 1e3,
                e.overlap,
                e.buckets,
                e.slowdown_factor,
                e.retries,
                e.cost_per_1k_samples.map_or("—".to_string(), |c| format!("{c:.4}")),
                e.diagnosis.as_deref().unwrap_or("—"),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> ScaleReport {
        // A3C at batch 8 is the cheapest full profile in the zoo.
        ScaleReport::run(
            ModelKind::A3c,
            Framework::mxnet(),
            8,
            &GpuSpec::quadro_p4000(),
            false,
            None,
        )
        .expect("A3C fits")
    }

    #[test]
    fn report_round_trips_and_digests_stably() {
        let report = tiny_report();
        assert_eq!(report.entries.len(), 5, "Fig. 10 grid");
        let text = report.to_json().to_string();
        let parsed = ScaleReport::from_json_text(&text).expect("round trip");
        assert_eq!(parsed, report);
        assert_eq!(parsed.digest_hex(), report.digest_hex());
        let bumped = text.replace("\"schema_version\":1", "\"schema_version\":99");
        assert!(ScaleReport::from_json_text(&bumped).is_err());
    }

    #[test]
    fn drift_gate_passes_self_and_catches_changes() {
        let report = tiny_report();
        report.check_drift(&report).expect("self never drifts");
        let mut moved = report.clone();
        moved.entries[0].throughput *= 1.01;
        assert!(moved.check_drift(&report).is_err());
    }

    #[test]
    fn exposed_comm_ratio_guards_a_zero_duration_iteration() {
        let mut entry = tiny_report().entries.swap_remove(3);
        assert_eq!(entry.label, "2M1G ethernet");
        let ratio = entry.exposed_comm_ratio().expect("finite iteration");
        assert_eq!(ratio.to_bits(), (entry.exposed_comm_s / entry.iteration_s).to_bits());
        assert!((0.0..1.0).contains(&ratio), "{ratio}");
        for iteration_s in [0.0, f64::INFINITY, f64::NAN] {
            entry.iteration_s = iteration_s;
            assert_eq!(entry.exposed_comm_ratio(), None, "{iteration_s}");
        }
    }

    #[test]
    fn observation_12_applies_only_where_the_exposed_exchange_outlasts_an_iteration() {
        // A3C's 2.7 MB exchange hides behind its compute even on ethernet.
        let report = tiny_report();
        let single = report.entries[0].iteration_s;
        let eth = report.entries.iter().find(|e| e.label == "2M1G ethernet").expect("entry");
        assert!(!eth.exposed_exchange_exceeds(single));
        let verdict = report.observations().expect("observation 13 holds");
        assert!(verdict.contains("observation 12 does not apply"), "{verdict}");
        // A large exchange that still overlaps the compute does not apply
        // either: only the exposed part slows the iteration.
        let mut overlapped = report.clone();
        let eth = overlapped.entries.iter_mut().find(|e| e.label == "2M1G ethernet").unwrap();
        eth.comm_s = 1.5 * eth.iteration_s;
        let verdict = overlapped.observations().expect("overlapped exchange");
        assert!(verdict.contains("observation 12 does not apply"), "{verdict}");
        // Where the exposed exchange does outlast an iteration, a cluster
        // that still beats one GPU violates the observation.
        let mut slow = report.clone();
        let eth = slow.entries.iter_mut().find(|e| e.label == "2M1G ethernet").unwrap();
        eth.exposed_comm_s = 2.0 * single;
        assert!(eth.exposed_exchange_exceeds(single));
        let err = slow.observations().unwrap_err();
        assert!(err.starts_with("Observation 12 violated"), "{err}");
    }

    #[test]
    fn every_model_passes_the_observations_at_its_default_workload() {
        // `tbd scale <model>`'s defaults: the first framework that supports
        // the model, at its first paper batch.
        let gpu = GpuSpec::quadro_p4000();
        for kind in ModelKind::ALL {
            let framework =
                Framework::all().into_iter().find(|fw| fw.supports(kind)).expect("a framework");
            let batch = crate::paper_batches(kind)[0];
            let report = ScaleReport::run(kind, framework, batch, &gpu, false, None)
                .unwrap_or_else(|e| panic!("{} b{batch}: {e}", kind.name()));
            if let Err(e) = report.observations() {
                panic!("{} b{batch}: {e}", kind.name());
            }
        }
    }

    #[test]
    fn markdown_has_one_row_per_entry() {
        let report = tiny_report();
        let md = report.to_markdown();
        for entry in &report.entries {
            assert!(md.contains(&format!("| {} |", entry.label)), "{md}");
        }
        assert!(md.contains("overlap"));
    }
}
