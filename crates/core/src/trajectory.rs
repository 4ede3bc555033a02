//! The repo's perf-trajectory harness: `tbd bench [--matrix]`.
//!
//! Every run captures the model×framework matrix through the streaming
//! metrics layer ([`tbd_profiler::agg`]) and serialises a schema-versioned
//! `BENCH_<iso-date>.json`: per-entry simulated iteration time,
//! throughput, utilisations, wall time per kernel class, the Fig. 9 memory
//! breakdown and the trace digest. Reports round-trip through the in-tree
//! JSON model (`tbd_profiler::json`) so CI can parse an old snapshot and
//! fail on throughput drift (>10 % by default) — the continuously
//! validated summary metrics that let a simulator earn trust.

use std::collections::BTreeMap;
use tbd_frameworks::{Framework, SpeedOptions};
use tbd_gpusim::{GpuSpec, MemoryCategory};
use tbd_models::ModelKind;
use tbd_profiler::json::{self, Canonical};
use tbd_profiler::trace::TraceRecorder;
use tbd_profiler::{
    capture_into, sampled_throughput, SamplingConfig, StreamingAggregator, TraceOptions,
};

use crate::scale::{ScaleEntry, ScaleReport};
use crate::suite::{paper_batches, Suite};

/// Version stamp of the BENCH JSON schema.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Default relative throughput drift CI tolerates against a pinned
/// snapshot.
pub const DRIFT_TOLERANCE: f64 = 0.10;

/// Relative drift tolerated on *measured* capture wall time
/// ([`BenchEntry::capture_wall_s`]) by [`BenchReport::check_wall_drift`].
/// Wall clock is machine- and load-dependent, so the gate is deliberately
/// wide — it catches order-of-magnitude regressions (a lost fusion pass,
/// an accidental O(n²) in the spine), not scheduler noise.
pub const WALL_DRIFT_TOLERANCE: f64 = 0.50;

/// Absolute capture-wall change below which [`BenchReport::check_wall_drift`]
/// flags nothing, whatever the relative drift: sub-millisecond captures
/// double on scheduler noise alone.
pub const WALL_DRIFT_FLOOR_S: f64 = 1e-3;

/// The six golden model×framework pairs (same set the golden-trace
/// harness pins), benched at batch 4.
pub const GOLDEN_PAIRS: [(ModelKind, &str); 6] = [
    (ModelKind::ResNet50, "tensorflow"),
    (ModelKind::ResNet50, "mxnet"),
    (ModelKind::InceptionV3, "tensorflow"),
    (ModelKind::InceptionV3, "mxnet"),
    (ModelKind::Seq2Seq, "tensorflow"),
    (ModelKind::Seq2Seq, "mxnet"),
];

/// Batch the golden pairs are benched at.
pub const GOLDEN_BATCH: usize = 4;

/// One benched workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Model name (Table 2).
    pub model: String,
    /// Framework profile name.
    pub framework: String,
    /// Mini-batch.
    pub batch: usize,
    /// Simulated wall time of one training iteration, in seconds.
    pub iteration_s: f64,
    /// Simulated steady-state throughput, samples/s.
    pub throughput: f64,
    /// Throughput recovered by the §3.4.2 stable-window sampler (absent
    /// when the synthesised run never stabilises).
    pub sampled_throughput: Option<f64>,
    /// GPU compute utilisation (Eq. 1).
    pub gpu_utilization: f64,
    /// FP32 utilisation (Eq. 2).
    pub fp32_utilization: f64,
    /// CPU utilisation (Eq. 3).
    pub cpu_utilization: f64,
    /// Device wall time per kernel class, microseconds.
    pub class_time_us: BTreeMap<String, f64>,
    /// Fig. 9 per-category peak bytes (keys use underscores).
    pub memory_peak_bytes: BTreeMap<String, u64>,
    /// Category holding the largest peak.
    pub dominant_memory: String,
    /// Feature-map share of the summed peaks (Observation 11).
    pub feature_map_fraction: f64,
    /// Golden-trace digest of the captured run.
    pub digest: String,
    /// Measured wall-clock of the whole capture, seconds. Real host time:
    /// excluded from the report digest and gated only by the wide
    /// [`WALL_DRIFT_TOLERANCE`]. `None` in baselines pinned before the
    /// speed tier existed.
    pub capture_wall_s: Option<f64>,
    /// Functional-executor share of the capture wall, seconds.
    pub wall_exec_s: Option<f64>,
    /// Lowering + simulated-iteration share of the capture wall, seconds.
    pub wall_lower_sim_s: Option<f64>,
    /// Data-parallel event-simulation share of the capture wall, seconds.
    pub wall_distrib_s: Option<f64>,
}

impl BenchEntry {
    /// Stable identity of the entry within a report.
    pub fn key(&self) -> String {
        format!("{}/{}/b{}", self.model, self.framework, self.batch)
    }
}

tbd_profiler::json_record!(BenchEntry, "bench entry";
fields {
    model, framework, batch, iteration_s, throughput, sampled_throughput, gpu_utilization,
    fp32_utilization, cpu_utilization, class_time_us, memory_peak_bytes, dominant_memory,
    feature_map_fraction, digest, capture_wall_s, wall_exec_s, wall_lower_sim_s,
    wall_distrib_s,
}
digested {
    model, "/" framework, "/b" batch, "|iter:" iteration_s, "|tp:" throughput,
    "|gpu:" gpu_utilization, "|fp32:" fp32_utilization, "|cpu:" cpu_utilization,
    "|" digest, class_time_us, memory_peak_bytes,
});

/// The fused-vs-unfused speed-tier record of one report: the same capture
/// (reference workload, f32) measured with the speed tier on (kernel
/// fusion + arena allocation) and off. Measured wall clock — excluded
/// from the report digest.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedTier {
    /// Model of the reference capture.
    pub model: String,
    /// Framework profile of the reference capture.
    pub framework: String,
    /// Mini-batch of the reference capture.
    pub batch: usize,
    /// Capture wall with fusion + arena enabled, seconds.
    pub fused_wall_s: f64,
    /// Capture wall with fusion + arena disabled, seconds.
    pub unfused_wall_s: f64,
}

impl SpeedTier {
    /// End-to-end capture speedup of the speed tier (unfused / fused).
    pub fn speedup(&self) -> f64 {
        self.unfused_wall_s / self.fused_wall_s.max(f64::MIN_POSITIVE)
    }
}

tbd_profiler::json_record!(SpeedTier, "speed tier";
    fields { model, framework, batch, fused_wall_s, unfused_wall_s }
    derived { speedup = SpeedTier::speedup });

/// The serve-tier load record of one report: tail latency and throughput
/// of a `tbd loadgen` pass over the cache-hot golden mix. Measured wall
/// clock — excluded from the report digest, like [`SpeedTier`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenSummary {
    /// Release discipline (`"closed"` / `"open"`).
    pub mode: String,
    /// Clients (closed) or pool workers (open).
    pub clients: usize,
    /// Queries issued.
    pub requests: u64,
    /// Completed queries per second.
    pub qps: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
}

tbd_profiler::json_record!(LoadgenSummary, "loadgen summary";
    fields { mode, clients, requests, qps, p50_us, p95_us, p99_us });

/// A full trajectory report: one entry per benched pair.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// ISO date (`YYYY-MM-DD`) of the run.
    pub date: String,
    /// Device name.
    pub gpu: String,
    /// Whether the full supported matrix was benched (vs golden pairs).
    pub matrix: bool,
    /// Benched workloads, in deterministic (model, framework, batch) order.
    pub entries: Vec<BenchEntry>,
    /// Event-simulated 1M1G→4M4G scaling grid for the reference
    /// distributed workload (ResNet-50/MXNet at the golden batch). Empty
    /// in baselines pinned before the scale grid existed.
    pub scale: Vec<ScaleEntry>,
    /// Fused-vs-unfused wall measurement of the reference capture
    /// (ResNet-50/TensorFlow at the golden batch, f32). `None` in
    /// baselines pinned before the speed tier existed.
    pub speed_tier: Option<SpeedTier>,
    /// Serve-tier tail-latency record of a `tbd loadgen` pass. Attached
    /// by `tbd loadgen --bench`; `None` in reports benched without a load
    /// pass (including every baseline pinned before the serve tier
    /// existed).
    pub loadgen: Option<LoadgenSummary>,
}

tbd_profiler::json_record!(BenchReport, "BENCH report", schema = BENCH_SCHEMA_VERSION;
    fields { schema_version, date, gpu, matrix, entries, scale, speed_tier, loadgen }
    digested { entries, scale }
    derived { digest = BenchReport::digest_hex });

impl BenchReport {
    /// Benchmarks the golden pairs (default) or, with `matrix`, every
    /// supported model×framework pair at its largest feasible paper batch
    /// (the figures' representative operating point — where the Fig. 9
    /// feature-map dominance shows; smaller batches are retried on OOM,
    /// as the paper's sweeps do). Every capture runs at `speed`; the
    /// pinned baseline is benched at `SpeedOptions::fused(Precision::F32)`,
    /// the default capture's speed tier.
    ///
    /// # Errors
    ///
    /// Returns an error when a capture fails structurally (model-zoo bug)
    /// or no paper batch fits the device at all.
    pub fn run(
        gpu: &GpuSpec,
        matrix: bool,
        date: String,
        speed: SpeedOptions,
    ) -> Result<BenchReport, String> {
        let mut entries = Vec::new();
        if matrix {
            for (kind, framework) in Suite::supported_pairs() {
                let mut benched = None;
                for &batch in paper_batches(kind).iter().rev() {
                    match bench_one(kind, framework, batch, gpu, speed)? {
                        Some(entry) => {
                            benched = Some(entry);
                            break;
                        }
                        None => continue, // OOM: fall back to a smaller batch
                    }
                }
                entries.push(benched.ok_or_else(|| {
                    format!(
                        "{}/{}: no paper batch fits {}",
                        kind.name(),
                        framework.name(),
                        gpu.name
                    )
                })?);
            }
        } else {
            for &(kind, fw) in &GOLDEN_PAIRS {
                let framework = match fw {
                    "tensorflow" => Framework::tensorflow(),
                    "mxnet" => Framework::mxnet(),
                    _ => unreachable!("golden frameworks"),
                };
                let entry =
                    bench_one(kind, framework, GOLDEN_BATCH, gpu, speed)?.ok_or_else(|| {
                        format!("{}/{fw} b{GOLDEN_BATCH}: unexpected OOM", kind.name())
                    })?;
                entries.push(entry);
            }
        }
        let scale = ScaleReport::run(
            ModelKind::ResNet50,
            Framework::mxnet(),
            GOLDEN_BATCH,
            gpu,
            true,
            None,
        )?
        .entries;
        let speed_tier = Some(measure_speed_tier(gpu)?);
        Ok(BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            date,
            gpu: gpu.name.to_string(),
            matrix,
            entries,
            scale,
            speed_tier,
            loadgen: None,
        })
    }

    /// File name the trajectory convention expects for this report.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.date)
    }

    /// Compares throughput against a pinned baseline: every entry present
    /// in both reports must be within [`DRIFT_TOLERANCE`] relative drift. Scale
    /// entries are compared the same way on overlapping labels (a baseline
    /// without a scale grid simply vouches for nothing there).
    ///
    /// # Errors
    ///
    /// Returns one line per drifting entry, or a message when the reports
    /// share no entries at all.
    pub fn check_drift(&self, baseline: &BenchReport) -> Result<(), String> {
        let throughput = |e: &BenchEntry| Some((e.key(), e.throughput));
        let line = |key: &String, tp: f64, drift: f64, pinned: f64| {
            let percent = 100.0 * drift;
            format!("{key}: throughput {tp:.3} drifted {percent:.1}% from pinned {pinned:.3}")
        };
        let (compared, mut failures) =
            json::keyed_drift(&baseline.entries, &self.entries, throughput, DRIFT_TOLERANCE, line);
        if compared == 0 {
            return Err("no overlapping entries between report and baseline".into());
        }
        let throughput = |e: &ScaleEntry| Some((e.label.clone(), e.throughput));
        let (_, scale) =
            json::keyed_drift(&baseline.scale, &self.scale, throughput, DRIFT_TOLERANCE, line);
        failures.extend(scale.into_iter().map(|failure| format!("scale {failure}")));
        json::verdict(failures)
    }

    /// Compares *measured* capture wall time against a pinned baseline:
    /// entries present in both reports with a recorded
    /// [`BenchEntry::capture_wall_s`] must be within
    /// [`WALL_DRIFT_TOLERANCE`] relative drift and move by more than
    /// [`WALL_DRIFT_FLOOR_S`]. Entries without the measurement (old
    /// baselines, or a report produced before the speed tier) vouch for
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns one line per drifting entry.
    pub fn check_wall_drift(&self, baseline: &BenchReport) -> Result<(), String> {
        let wall = |e: &BenchEntry| e.capture_wall_s.map(|w| (e.key(), w));
        // An entry inside the absolute floor yields an empty line, dropped
        // below.
        let line = |key: &String, wall: f64, drift: f64, pinned: f64| {
            if (wall - pinned).abs() <= WALL_DRIFT_FLOOR_S {
                return String::new();
            }
            let (wall_us, percent, pinned_us) = (wall * 1e6, 100.0 * drift, pinned * 1e6);
            format!("{key}: capture wall {wall_us:.0}µs drifted {percent:.0}% from pinned {pinned_us:.0}µs")
        };
        let (_, mut failures) =
            json::keyed_drift(&baseline.entries, &self.entries, wall, WALL_DRIFT_TOLERANCE, line);
        failures.retain(|failure| !failure.is_empty());
        json::verdict(failures)
    }
}

/// Measures the speed tier on the reference workload: one capture with
/// fusion + arena allocation on, one with both off, both f32 and
/// simulation-only (the same configuration [`bench_one`] times). The
/// unfused run goes first so the fused run cannot inherit a warm pool.
fn measure_speed_tier(gpu: &GpuSpec) -> Result<SpeedTier, String> {
    let (kind, framework) = (ModelKind::ResNet50, Framework::tensorflow());
    // One warmup capture then the minimum of five, per tier, on the default
    // functional capture path — the same end-to-end `capture()` the
    // README's ratio (1.02–1.18× on a 2-core x86-64 host) is about.
    // Scheduler interference only ever adds time, so the minimum is the
    // lowest-variance estimator of each tier's true cost.
    const REPS: usize = 5;
    let run = |fuse: bool| -> Result<f64, String> {
        tbd_tensor::arena::set_enabled(fuse);
        let mut walls = Vec::with_capacity(REPS);
        for rep in 0..=REPS {
            let speed = SpeedOptions { fuse, ..SpeedOptions::default() };
            let options = TraceOptions { speed, ..TraceOptions::default() };
            let recorder = TraceRecorder::shared();
            let cap = capture_into(kind, framework, GOLDEN_BATCH, gpu, &options, &recorder)
                .map_err(|e| e.to_string())?;
            if let Some(oom) = cap.oom {
                return Err(format!("speed-tier reference capture hit OOM: {oom}"));
            }
            if rep > 0 {
                walls.push(cap.wall.total_s);
            }
        }
        walls.sort_by(f64::total_cmp);
        Ok(walls[0])
    };
    let unfused_wall_s = run(false)?;
    let fused_wall_s = run(true)?;
    tbd_tensor::arena::set_enabled(true);
    Ok(SpeedTier {
        model: kind.name().to_string(),
        framework: framework.name().to_string(),
        batch: GOLDEN_BATCH,
        fused_wall_s,
        unfused_wall_s,
    })
}

/// Benches one workload through the streaming metrics layer. Returns
/// `Ok(None)` when the batch does not fit the device (the caller retries
/// smaller paper batches).
fn bench_one(
    kind: ModelKind,
    framework: Framework,
    batch: usize,
    gpu: &GpuSpec,
    speed: SpeedOptions,
) -> Result<Option<BenchEntry>, String> {
    let agg = StreamingAggregator::shared();
    let recorder = TraceRecorder::shared_with_sink(agg.clone());
    let options = TraceOptions { functional: false, speed, ..TraceOptions::default() };
    let cap = capture_into(kind, framework, batch, gpu, &options, &recorder)
        .map_err(|e| e.to_string())?;
    if cap.oom.is_some() {
        return Ok(None);
    }
    let profile = cap.profile.expect("no OOM implies a profile");
    let agg = agg.lock().expect("aggregator lock");
    let class_time_us: BTreeMap<String, f64> =
        agg.class_times().into_iter().map(|(class, _, us)| (class, us)).collect();
    let memory_peak_bytes: BTreeMap<String, u64> = MemoryCategory::ALL
        .iter()
        .map(|&c| (c.to_string().replace(' ', "_"), profile.memory.peak(c)))
        .collect();
    let dominant_memory = MemoryCategory::ALL
        .iter()
        .max_by_key(|&&c| profile.memory.peak(c))
        .map(|c| c.to_string())
        .expect("five categories");
    let iteration = &profile.iteration;
    Ok(Some(BenchEntry {
        model: kind.name().to_string(),
        framework: framework.name().to_string(),
        batch,
        iteration_s: iteration.wall_time_s,
        throughput: profile.throughput,
        sampled_throughput: sampled_throughput(
            iteration.wall_time_s,
            batch,
            &SamplingConfig::default(),
            42,
        ),
        gpu_utilization: iteration.gpu_utilization,
        fp32_utilization: iteration.fp32_utilization,
        cpu_utilization: iteration.cpu_utilization,
        class_time_us,
        memory_peak_bytes,
        dominant_memory,
        feature_map_fraction: profile.memory.feature_map_fraction(),
        digest: cap.trace.digest_hex(),
        capture_wall_s: Some(cap.wall.total_s),
        wall_exec_s: Some(cap.wall.exec_s),
        wall_lower_sim_s: Some(cap.wall.lower_sim_s),
        wall_distrib_s: Some(cap.wall.distrib_s),
    }))
}

/// Today's ISO date (`YYYY-MM-DD`, UTC), from the civil-from-days
/// algorithm — no external time crate.
pub fn iso_date_today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_tensor::Precision;

    #[test]
    fn iso_date_is_well_formed() {
        let date = iso_date_today();
        assert_eq!(date.len(), 10);
        let parts: Vec<&str> = date.split('-').collect();
        assert_eq!(parts.len(), 3);
        let year: i64 = parts[0].parse().unwrap();
        let month: u32 = parts[1].parse().unwrap();
        let day: u32 = parts[2].parse().unwrap();
        assert!(year >= 2024, "{date}");
        assert!((1..=12).contains(&month), "{date}");
        assert!((1..=31).contains(&day), "{date}");
    }

    #[test]
    fn drift_check_flags_large_regressions_only() {
        let entry = |tp: f64| BenchEntry {
            model: "ResNet-50".into(),
            framework: "TensorFlow".into(),
            batch: 4,
            iteration_s: 0.1,
            throughput: tp,
            sampled_throughput: None,
            gpu_utilization: 0.5,
            fp32_utilization: 0.3,
            cpu_utilization: 0.2,
            class_time_us: BTreeMap::new(),
            memory_peak_bytes: BTreeMap::new(),
            dominant_memory: "feature maps".into(),
            feature_map_fraction: 0.7,
            digest: "0".repeat(16),
            capture_wall_s: Some(1.0),
            wall_exec_s: None,
            wall_lower_sim_s: Some(0.8),
            wall_distrib_s: Some(0.2),
        };
        let report = |tp: f64| BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            date: "2026-08-05".into(),
            gpu: "test".into(),
            matrix: false,
            entries: vec![entry(tp)],
            scale: Vec::new(),
            speed_tier: None,
            loadgen: None,
        };
        let base = report(100.0);
        assert!(report(105.0).check_drift(&base).is_ok());
        assert!(report(89.0).check_drift(&base).is_err());
        assert!(report(112.0).check_drift(&base).is_err());
        // Disjoint reports cannot vouch for anything.
        let mut disjoint = report(100.0);
        disjoint.entries[0].model = "A3C".into();
        assert!(base.check_drift(&disjoint).is_err());
        // Wall drift: gated only when measured in both, behind the wide
        // tolerance; a missing measurement vouches for nothing.
        let mut slow = report(100.0);
        slow.entries[0].capture_wall_s = Some(1.6);
        assert!(slow.check_wall_drift(&base).is_err());
        slow.entries[0].capture_wall_s = Some(1.3);
        assert!(slow.check_wall_drift(&base).is_ok());
        slow.entries[0].capture_wall_s = None;
        assert!(slow.check_wall_drift(&base).is_ok());
        // Below the absolute floor a large relative drift is noise; above
        // it, it is flagged.
        let walls = |pinned: f64, measured: f64| {
            let (mut base, mut now) = (report(100.0), report(100.0));
            base.entries[0].capture_wall_s = Some(pinned);
            now.entries[0].capture_wall_s = Some(measured);
            now.check_wall_drift(&base)
        };
        assert!(walls(0.37e-3, 0.82e-3).is_ok());
        let failure = walls(2.7e-3, 5.0e-3).unwrap_err();
        assert!(failure.contains("5000µs") && failure.contains("2700µs"), "{failure}");
    }

    #[test]
    fn report_json_round_trips() {
        let gpu = GpuSpec::quadro_p4000();
        let speed = SpeedOptions::fused(Precision::F32);
        let entry =
            bench_one(ModelKind::A3c, Framework::mxnet(), 8, &gpu, speed).unwrap().expect("fits");
        let report = BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            date: "2026-08-05".into(),
            gpu: gpu.name.to_string(),
            matrix: false,
            entries: vec![entry],
            scale: Vec::new(),
            speed_tier: Some(SpeedTier {
                model: "ResNet-50".into(),
                framework: "TensorFlow".into(),
                batch: GOLDEN_BATCH,
                fused_wall_s: 0.5,
                unfused_wall_s: 1.25,
            }),
            loadgen: Some(LoadgenSummary {
                mode: "closed".into(),
                clients: 4,
                requests: 10_000,
                qps: 25_000.0,
                p50_us: 40.0,
                p95_us: 90.0,
                p99_us: 180.0,
            }),
        };
        let text = report.to_json().to_string();
        let parsed = BenchReport::from_json_text(&text).expect("round trip");
        assert_eq!(parsed, report);
        assert_eq!(parsed.digest_hex(), report.digest_hex());
        assert!(!parsed.entries[0].class_time_us.is_empty(), "class map populated");
        // Wrong schema version is rejected.
        let bumped = text.replace("\"schema_version\":1", "\"schema_version\":99");
        assert!(BenchReport::from_json_text(&bumped).is_err());
    }
}
