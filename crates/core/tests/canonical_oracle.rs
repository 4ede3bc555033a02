//! The digest lines written through `json::Canonical` against the
//! hand-written `format!` bodies that produced every pinned report digest
//! before the writer existed. The bodies are kept verbatim here as
//! oracles; random field values (±0.0, empty and non-empty maps, present
//! and absent degradation, several diagnoses and evidences) must give the
//! same text and the same FNV-1a digest.
//!
//! One deliberate difference: the old bench line wrote raw bits, so a
//! `-0.0` there changed the digest across a JSON round trip (the writer
//! prints it as `0`). Its oracle is compared on the entry with every f64
//! normalised to `+0.0`, which is the line the JSON file reproduces.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use tbd_core::{
    BenchEntry, BenchReport, BottleneckClass, ChaosReport, DegradationSummary, DiagnosisReport,
    ElasticEntry, ElasticReport, ScaleEntry, ScaleReport,
};
use tbd_profiler::json::Canonical;
use tbd_profiler::trace::fnv1a;
use tbd_profiler::{Diagnosis, Evidence};

/// The hand-written canonical text of a report type before the writer.
trait Oracle {
    fn canonical(&self) -> String;
}

impl Oracle for ScaleEntry {
    fn canonical(&self) -> String {
        fn bits(x: f64) -> u64 {
            (x + 0.0).to_bits()
        }
        format!(
            "{}|{}|w:{}|b:{}|iter:{:016x}|tp:{:016x}|eff:{:016x}|comm:{:016x}|exp:{:016x}|ovl:{:016x}|slow:{:016x}|r:{}|{}",
            self.label,
            self.sync,
            self.workers,
            self.buckets,
            bits(self.iteration_s),
            bits(self.throughput),
            bits(self.scaling_efficiency),
            bits(self.comm_s),
            bits(self.exposed_comm_s),
            bits(self.overlap),
            bits(self.slowdown_factor),
            self.retries,
            self.digest,
        )
    }
}

impl Oracle for ElasticEntry {
    fn canonical(&self) -> String {
        fn bits(x: f64) -> u64 {
            (x + 0.0).to_bits()
        }
        format!(
            "{}|{}|w:{}|rate:{:016x}|ep:{}|ev:{}|rj:{}|deg:{}|stall:{:016x}|catch:{:016x}|smp:{}|gp:{:016x}|hgp:{:016x}|frac:{:016x}|{}",
            self.label,
            self.sync,
            self.workers,
            bits(self.churn_rate),
            self.epochs,
            self.evictions,
            self.rejoins,
            self.degraded_steps,
            bits(self.deadline_stall_s),
            bits(self.rejoin_catchup_s),
            self.useful_samples,
            bits(self.goodput),
            bits(self.healthy_goodput),
            bits(self.goodput_fraction),
            self.digest,
        )
    }
}

impl Oracle for BenchEntry {
    fn canonical(&self) -> String {
        let mut line = format!(
            "{}|iter:{:016x}|tp:{:016x}|gpu:{:016x}|fp32:{:016x}|cpu:{:016x}|{}",
            self.key(),
            self.iteration_s.to_bits(),
            self.throughput.to_bits(),
            self.gpu_utilization.to_bits(),
            self.fp32_utilization.to_bits(),
            self.cpu_utilization.to_bits(),
            self.digest,
        );
        for (class, us) in &self.class_time_us {
            let _ = write!(line, "|{class}:{:016x}", us.to_bits());
        }
        for (category, bytes) in &self.memory_peak_bytes {
            let _ = write!(line, "|{category}:{bytes}");
        }
        line
    }
}

impl Oracle for ChaosReport {
    fn canonical(&self) -> String {
        fn bits(x: f64) -> u64 {
            (x + 0.0).to_bits()
        }
        let mut line = format!(
            "{}|{}|b:{}|seed:{}|steps:{}|{}|{}|iter:{:016x}|f:{}|r:{}|rp:{}|sk:{}|ft:{}|ck:{}|ckb:{}|rt:{:016x}|st:{:016x}|tp:{:016x}|gp:{:016x}|ph:{}|fh:{}|ex:{}|{}",
            self.model,
            self.framework,
            self.batch,
            self.seed,
            self.steps,
            self.preset,
            self.policy,
            bits(self.iteration_s),
            self.faults_injected,
            self.recoveries,
            self.replayed_steps,
            self.skipped_steps,
            self.forced_through,
            self.checkpoints_written,
            self.checkpoint_bytes,
            bits(self.recovery_time_s),
            bits(self.sim_time_s),
            bits(self.throughput),
            bits(self.goodput),
            self.param_hash,
            self.fault_free_hash,
            self.replay_exact,
            self.trace_digest,
        );
        for (kind, count) in &self.faults_by_kind {
            let _ = write!(line, "|{kind}:{count}");
        }
        if let Some(d) = &self.degradation {
            let _ =
                write!(line, "|deg:{}:{}:{}:{}", d.strategy, d.batch, d.total_bytes, d.rungs_tried);
        }
        line
    }
}

impl Oracle for DiagnosisReport {
    fn canonical(&self) -> String {
        fn bits(x: f64) -> u64 {
            (x + 0.0).to_bits()
        }
        let mut out = format!(
            "v{}|{}|{}|b:{}|ev:{}|iter:{:016x}",
            self.schema_version,
            self.model,
            self.framework,
            self.batch,
            self.events,
            bits(self.iteration_us),
        );
        for d in &self.diagnoses {
            let _ = write!(out, "\nD|{}|c:{:016x}", d.class.label(), bits(d.confidence));
            for e in &d.evidence {
                let _ = write!(
                    out,
                    "\nE|{}|v:{:016x}|t:{:016x}|{}",
                    e.metric,
                    bits(e.value),
                    bits(e.threshold),
                    e.detail
                );
            }
        }
        out
    }
}

/// The old report digests: FNV-1a over the oracle text (entry reports
/// join their entry lines, each followed by `'\n'`).
fn oracle_digest(text: &str) -> String {
    format!("{:016x}", fnv1a(text.as_bytes()))
}

fn lines<T: Oracle>(entries: &[T]) -> String {
    entries.iter().map(|e| e.canonical() + "\n").collect()
}

/// `entry` with every f64 normalised to `+0.0` where it was `-0.0`: what
/// a JSON round trip of the entry decodes to.
fn positive_zeros(entry: &BenchEntry) -> BenchEntry {
    let mut e = entry.clone();
    for x in [
        &mut e.iteration_s,
        &mut e.throughput,
        &mut e.gpu_utilization,
        &mut e.fp32_utilization,
        &mut e.cpu_utilization,
    ] {
        *x += 0.0;
    }
    e.class_time_us.values_mut().for_each(|us| *us += 0.0);
    e
}

/// Random field values for one property case.
struct Gen(StdRng);

impl Gen {
    /// `±0.0` and `1.0` as often as any bit pattern (NaN and the
    /// infinities included).
    fn real(&mut self) -> f64 {
        match self.0.gen_range(0..5u32) {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            _ => f64::from_bits(self.0.gen()),
        }
    }

    fn int(&mut self) -> u64 {
        match self.0.gen_range(0..3u32) {
            0 => 0,
            1 => self.0.gen_range(0..100),
            _ => self.0.gen(),
        }
    }

    fn size(&mut self) -> usize {
        self.int() as usize
    }

    /// Short text over an alphabet that includes the line's own
    /// separators.
    fn text(&mut self) -> String {
        const ALPHABET: &[u8] = b"abcXYZ019 |:._-";
        let len = self.0.gen_range(0..12usize);
        (0..len).map(|_| ALPHABET[self.0.gen_range(0..ALPHABET.len())] as char).collect()
    }

    fn maybe<T>(&mut self, value: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.0.gen::<bool>().then(|| value(self))
    }

    /// An empty or non-empty map with values from `value`.
    fn map<T>(&mut self, mut value: impl FnMut(&mut Self) -> T) -> BTreeMap<String, T> {
        let len = self.0.gen_range(0..4usize);
        (0..len).map(|_| (self.text(), value(self))).collect()
    }

    fn scale_entry(&mut self) -> ScaleEntry {
        ScaleEntry {
            label: self.text(),
            sync: self.text(),
            workers: self.size(),
            buckets: self.size(),
            iteration_s: self.real(),
            throughput: self.real(),
            scaling_efficiency: self.real(),
            comm_s: self.real(),
            exposed_comm_s: self.real(),
            overlap: self.real(),
            slowdown_factor: self.real(),
            retries: self.int(),
            digest: self.text(),
            diagnosis: self.maybe(Self::text),
            cost_per_iteration: self.maybe(Self::real),
            cost_per_1k_samples: self.maybe(Self::real),
        }
    }

    fn elastic_entry(&mut self) -> ElasticEntry {
        ElasticEntry {
            label: self.text(),
            sync: self.text(),
            workers: self.size(),
            churn_rate: self.real(),
            epochs: self.int(),
            evictions: self.int(),
            rejoins: self.int(),
            degraded_steps: self.int(),
            deadline_stall_s: self.real(),
            rejoin_catchup_s: self.real(),
            useful_samples: self.int(),
            goodput: self.real(),
            healthy_goodput: self.real(),
            goodput_fraction: self.real(),
            digest: self.text(),
            diagnosis: self.maybe(Self::text),
        }
    }

    fn bench_entry(&mut self) -> BenchEntry {
        BenchEntry {
            model: self.text(),
            framework: self.text(),
            batch: self.size(),
            iteration_s: self.real(),
            throughput: self.real(),
            sampled_throughput: self.maybe(Self::real),
            gpu_utilization: self.real(),
            fp32_utilization: self.real(),
            cpu_utilization: self.real(),
            class_time_us: self.map(Self::real),
            memory_peak_bytes: self.map(Self::int),
            dominant_memory: self.text(),
            feature_map_fraction: self.real(),
            digest: self.text(),
            capture_wall_s: self.maybe(Self::real),
            wall_exec_s: self.maybe(Self::real),
            wall_lower_sim_s: self.maybe(Self::real),
            wall_distrib_s: self.maybe(Self::real),
        }
    }

    fn entries<T>(&mut self, mut entry: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let len = self.0.gen_range(0..4usize);
        (0..len).map(|_| entry(self)).collect()
    }

    fn chaos_report(&mut self) -> ChaosReport {
        ChaosReport {
            schema_version: self.int(),
            model: self.text(),
            framework: self.text(),
            batch: self.size(),
            seed: self.int(),
            steps: self.int(),
            preset: self.text(),
            policy: self.text(),
            iteration_s: self.real(),
            faults_injected: self.int(),
            faults_by_kind: self.map(Self::int),
            recoveries: self.int(),
            replayed_steps: self.int(),
            skipped_steps: self.int(),
            forced_through: self.int(),
            checkpoints_written: self.int(),
            checkpoint_bytes: self.int(),
            recovery_time_s: self.real(),
            sim_time_s: self.real(),
            throughput: self.real(),
            goodput: self.real(),
            param_hash: self.text(),
            fault_free_hash: self.text(),
            replay_exact: self.0.gen(),
            degradation: self.maybe(|g| DegradationSummary {
                strategy: g.text(),
                batch: g.size(),
                total_bytes: g.int(),
                rungs_tried: g.int() as u32,
            }),
            trace_digest: self.text(),
            diagnosis: None,
        }
    }

    fn diagnosis_report(&mut self) -> DiagnosisReport {
        let diagnosis = |g: &mut Self| Diagnosis {
            class: BottleneckClass::ALL[g.0.gen_range(0..BottleneckClass::ALL.len())],
            confidence: g.real(),
            evidence: g.entries(|g| Evidence {
                metric: g.text(),
                value: g.real(),
                threshold: g.real(),
                detail: g.text(),
            }),
            remediation: g.text(),
        };
        DiagnosisReport {
            schema_version: self.int(),
            model: self.text(),
            framework: self.text(),
            batch: self.size(),
            events: self.int(),
            iteration_us: self.real(),
            diagnoses: self.entries(diagnosis),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scale_lines_match_the_oracle(seed in 0u64..u64::MAX) {
        let mut g = Gen(StdRng::seed_from_u64(seed));
        let report = ScaleReport {
            schema_version: 1,
            model: g.text(),
            framework: g.text(),
            batch: 1,
            sweep: false,
            straggler_seed: None,
            compute_iter_s: g.real(),
            gradient_bytes: g.real(),
            price_per_hour: None,
            entries: g.entries(Gen::scale_entry),
        };
        for e in &report.entries {
            prop_assert_eq!(Canonical::canonical(e), Oracle::canonical(e));
        }
        let want = lines(&report.entries);
        prop_assert_eq!(report.digest_hex(), oracle_digest(&want));
        prop_assert_eq!(Canonical::canonical(&report), want);
    }

    #[test]
    fn elastic_lines_match_the_oracle(seed in 0u64..u64::MAX) {
        let mut g = Gen(StdRng::seed_from_u64(seed));
        let report = ElasticReport {
            schema_version: 1,
            model: g.text(),
            framework: g.text(),
            batch: 1,
            seed,
            steps: 1,
            compute_iter_s: g.real(),
            gradient_bytes: g.real(),
            entries: g.entries(Gen::elastic_entry),
        };
        for e in &report.entries {
            prop_assert_eq!(Canonical::canonical(e), Oracle::canonical(e));
        }
        let want = lines(&report.entries);
        prop_assert_eq!(report.digest_hex(), oracle_digest(&want));
        prop_assert_eq!(Canonical::canonical(&report), want);
    }

    #[test]
    fn bench_lines_match_the_oracle_on_round_tripped_zeros(seed in 0u64..u64::MAX) {
        let mut g = Gen(StdRng::seed_from_u64(seed));
        let report = BenchReport {
            schema_version: 1,
            date: g.text(),
            gpu: g.text(),
            matrix: false,
            entries: g.entries(Gen::bench_entry),
            scale: g.entries(Gen::scale_entry),
            speed_tier: None,
            loadgen: None,
        };
        let normalised: Vec<BenchEntry> = report.entries.iter().map(positive_zeros).collect();
        for (e, n) in report.entries.iter().zip(&normalised) {
            prop_assert_eq!(Canonical::canonical(e), Oracle::canonical(n));
        }
        let want = lines(&normalised) + &lines(&report.scale);
        prop_assert_eq!(report.digest_hex(), oracle_digest(&want));
        prop_assert_eq!(Canonical::canonical(&report), want);
    }

    #[test]
    fn chaos_text_matches_the_oracle(seed in 0u64..u64::MAX) {
        let report = Gen(StdRng::seed_from_u64(seed)).chaos_report();
        let want = Oracle::canonical(&report);
        prop_assert_eq!(report.digest_hex(), oracle_digest(&want));
        prop_assert_eq!(Canonical::canonical(&report), want);
    }

    #[test]
    fn diagnosis_text_matches_the_oracle(seed in 0u64..u64::MAX) {
        let report = Gen(StdRng::seed_from_u64(seed)).diagnosis_report();
        let want = Oracle::canonical(&report);
        prop_assert_eq!(report.digest_hex(), oracle_digest(&want));
        prop_assert_eq!(Canonical::canonical(&report), want);
    }
}
