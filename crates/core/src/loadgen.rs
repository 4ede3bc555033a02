//! `tbd loadgen`: closed- and open-loop load generation against a
//! [`ServeEngine`] — the serve tier's performance harness *and* its
//! deterministic test battery.
//!
//! The generator drives the engine in-process (the cached-query hot path
//! is a digest lookup plus an `Arc` clone, so the ≥10k q/s budget is
//! about the cache and single-flight machinery, not socket syscalls).
//! **Closed loop**: N clients issue queries back-to-back — throughput is
//! the output, latency has no queueing term. **Open loop**: a dispatcher
//! releases queries at a fixed arrival rate into the shared
//! [`WorkerPool`]; latency is measured from the *scheduled arrival*, so
//! queue delay (the tail a real fleet sees) is included, and overload
//! sheds load through the pool's bounded queue instead of distorting the
//! arrival process.
//!
//! Latencies are wall clock and therefore never digested; they feed the
//! schema-versioned `loadgen` section of `BENCH_*.json`
//! ([`crate::trajectory::LoadgenSummary`]) and the CI latency-histogram
//! artifact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tbd_profiler::pool::WorkerPool;

use crate::serve::{ServeEngine, ServeQuery};
use crate::trajectory::LoadgenSummary;

/// Version stamp of the loadgen-report JSON schema.
pub const LOADGEN_SCHEMA_VERSION: u64 = 1;

/// How queries are released at the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadgenMode {
    /// `clients` threads issue queries back-to-back (throughput probe).
    Closed {
        /// Concurrent clients.
        clients: usize,
    },
    /// Fixed-rate arrivals dispatched into a worker pool (tail-latency
    /// probe; queue delay counts).
    Open {
        /// Target arrival rate, queries/s.
        rate_qps: f64,
        /// Pool workers draining the arrivals.
        workers: usize,
    },
}

impl LoadgenMode {
    /// Stable lowercase label (`"closed"` / `"open"`).
    pub fn name(&self) -> &'static str {
        match self {
            LoadgenMode::Closed { .. } => "closed",
            LoadgenMode::Open { .. } => "open",
        }
    }
}

/// One load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Release discipline.
    pub mode: LoadgenMode,
    /// Total queries to issue.
    pub requests: u64,
    /// Query mix, issued round-robin. Must be non-empty.
    pub mix: Vec<ServeQuery>,
    /// Issue each distinct query once, untimed, before the measured run —
    /// the cache-hot configuration the ≥10k q/s budget is stated for.
    pub warm: bool,
}

impl LoadgenConfig {
    /// The CI smoke configuration: closed loop, `clients` threads,
    /// `requests` cache-hot queries over the golden mix.
    pub fn smoke(clients: usize, requests: u64) -> LoadgenConfig {
        LoadgenConfig {
            mode: LoadgenMode::Closed { clients: clients.max(1) },
            requests,
            mix: golden_mix(),
            warm: true,
        }
    }
}

/// The default query mix: the golden point plus close variants (same
/// profile artifact, different clusters — exercising the result cache
/// with several keys while the lowering cache stays hot).
pub fn golden_mix() -> Vec<ServeQuery> {
    let golden = ServeQuery::golden();
    ["2M1G ethernet", "2M1G infiniband", "1M1G", "1M4G pcie"]
        .into_iter()
        .map(|cluster| ServeQuery { cluster: cluster.to_string(), ..golden.clone() })
        .collect()
}

/// Result of one loadgen run. Wall clock throughout — never part of any
/// digest.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Schema version ([`LOADGEN_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Release discipline (`"closed"` / `"open"`).
    pub mode: String,
    /// Clients (closed) or pool workers (open).
    pub clients: usize,
    /// Open-loop target arrival rate; `None` in closed loop.
    pub rate_qps: Option<f64>,
    /// Queries requested.
    pub requests: u64,
    /// Queries answered (excludes open-loop shed load).
    pub completed: u64,
    /// Open-loop arrivals shed by the bounded queue.
    pub rejected: u64,
    /// Measured-run wall time, seconds.
    pub duration_s: f64,
    /// Completed queries per second.
    pub qps: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Worst observed latency, microseconds.
    pub max_us: f64,
    /// Engine result-cache hits over the run.
    pub hits: u64,
    /// Engine result-cache misses over the run.
    pub misses: u64,
    /// log₂ latency histogram: `histogram_us[k]` counts queries in
    /// `[2^k, 2^(k+1))` µs (index 0 also holds sub-µs queries).
    pub histogram_us: Vec<u64>,
}

tbd_profiler::json_record!(LoadgenReport, "loadgen report", schema = LOADGEN_SCHEMA_VERSION;
fields {
    schema_version, mode, clients, rate_qps, requests, completed, rejected, duration_s, qps,
    p50_us, p95_us, p99_us, max_us, hits, misses, histogram_us,
});

impl LoadgenReport {
    /// The compact record the `BENCH_*.json` trajectory embeds.
    pub fn summary(&self) -> LoadgenSummary {
        LoadgenSummary {
            mode: self.mode.clone(),
            clients: self.clients,
            requests: self.requests,
            qps: self.qps,
            p50_us: self.p50_us,
            p95_us: self.p95_us,
            p99_us: self.p99_us,
        }
    }

    /// Human-readable one-screen summary.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(out, "# `tbd loadgen` — {} loop\n", self.mode);
        let _ = writeln!(
            out,
            "{} requests ({} completed, {} rejected) in {:.3} s — **{:.0} q/s**\n",
            self.requests, self.completed, self.rejected, self.duration_s, self.qps
        );
        let _ = writeln!(
            out,
            "| p50 | p95 | p99 | max | cache hits | misses |\n|---:|---:|---:|---:|---:|---:|"
        );
        let _ = writeln!(
            out,
            "| {:.0} µs | {:.0} µs | {:.0} µs | {:.0} µs | {} | {} |",
            self.p50_us, self.p95_us, self.p99_us, self.max_us, self.hits, self.misses
        );
        out
    }
}

fn percentile(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    // Nearest-rank: the smallest value with at least q of the sample at
    // or below it (p50 of 1..=100 is 50).
    let rank = (q * sorted_us.len() as f64).ceil().max(1.0) as usize - 1;
    sorted_us[rank.min(sorted_us.len() - 1)] as f64
}

fn log2_histogram(latencies_us: &[u64]) -> Vec<u64> {
    let mut buckets = Vec::new();
    for &us in latencies_us {
        let k = if us <= 1 { 0 } else { 63 - us.leading_zeros() as usize };
        if buckets.len() <= k {
            buckets.resize(k + 1, 0);
        }
        buckets[k] += 1;
    }
    buckets
}

/// Runs one load-generation pass against `engine`.
///
/// # Errors
///
/// Returns a message for an empty mix, a zero request count, a
/// non-positive open-loop rate, or a query the engine rejects during
/// warm-up (bad mix entries should fail loudly, not skew the tail).
pub fn run_loadgen(
    engine: &Arc<ServeEngine>,
    config: &LoadgenConfig,
) -> Result<LoadgenReport, String> {
    if config.mix.is_empty() {
        return Err("loadgen mix is empty".into());
    }
    if config.requests == 0 {
        return Err("loadgen needs at least one request".into());
    }
    if config.warm {
        for query in &config.mix {
            engine.query(query)?;
        }
    }
    let hits0 = engine.hits();
    let misses0 = engine.misses();
    let (latencies_us, completed, rejected, duration_s, clients, rate_qps) = match config.mode {
        LoadgenMode::Closed { clients } => {
            let clients = clients.max(1);
            let issued = Arc::new(AtomicU64::new(0));
            let start = Instant::now();
            let mut threads = Vec::with_capacity(clients);
            for _ in 0..clients {
                let engine = Arc::clone(engine);
                let issued = Arc::clone(&issued);
                let mix = config.mix.clone();
                let total = config.requests;
                threads.push(std::thread::spawn(move || {
                    let mut lat = Vec::new();
                    loop {
                        let i = issued.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let query = &mix[(i as usize) % mix.len()];
                        let t0 = Instant::now();
                        let ok = engine.query(query).is_ok();
                        if ok {
                            lat.push(t0.elapsed().as_micros() as u64);
                        }
                    }
                    lat
                }));
            }
            let mut latencies: Vec<u64> = Vec::with_capacity(config.requests as usize);
            for t in threads {
                latencies.extend(t.join().map_err(|_| "loadgen client panicked")?);
            }
            let duration = start.elapsed().as_secs_f64();
            let completed = latencies.len() as u64;
            (latencies, completed, 0, duration, clients, None)
        }
        LoadgenMode::Open { rate_qps, workers } => {
            if rate_qps <= 0.0 {
                return Err("open-loop rate must be positive".into());
            }
            let workers = workers.max(1);
            let pool = WorkerPool::new(workers, (config.requests as usize).max(1024));
            let latencies = Arc::new(Mutex::new(Vec::with_capacity(config.requests as usize)));
            let mut rejected = 0u64;
            let start = Instant::now();
            for i in 0..config.requests {
                let target = start + Duration::from_secs_f64(i as f64 / rate_qps);
                let now = Instant::now();
                if now < target {
                    std::thread::sleep(target - now);
                }
                let engine = Arc::clone(engine);
                let latencies = Arc::clone(&latencies);
                let query = config.mix[(i as usize) % config.mix.len()].clone();
                let submitted = pool.submit(move || {
                    // Latency from the *scheduled arrival*: queue wait in
                    // the pool counts, as it would at a real front door.
                    if engine.query(&query).is_ok() {
                        let us = target.elapsed().as_micros() as u64;
                        latencies.lock().expect("latency lock").push(us);
                    }
                });
                if submitted.is_err() {
                    rejected += 1;
                }
            }
            pool.shutdown(); // drains every accepted arrival
            let duration = start.elapsed().as_secs_f64();
            let latencies =
                Arc::try_unwrap(latencies).expect("pool drained").into_inner().expect("lock");
            let completed = latencies.len() as u64;
            (latencies, completed, rejected, duration, workers, Some(rate_qps))
        }
    };
    let mut sorted = latencies_us;
    sorted.sort_unstable();
    Ok(LoadgenReport {
        schema_version: LOADGEN_SCHEMA_VERSION,
        mode: config.mode.name().to_string(),
        clients,
        rate_qps,
        requests: config.requests,
        completed,
        rejected,
        duration_s,
        qps: if duration_s > 0.0 { completed as f64 / duration_s } else { 0.0 },
        p50_us: percentile(&sorted, 0.50),
        p95_us: percentile(&sorted, 0.95),
        p99_us: percentile(&sorted, 0.99),
        max_us: sorted.last().copied().unwrap_or(0) as f64,
        hits: engine.hits() - hits0,
        misses: engine.misses() - misses0,
        histogram_us: log2_histogram(&sorted),
    })
}

/// `--check`: answers the golden query on `engine` and byte-compares the
/// response against the pinned `tests/golden/serve-baseline.json`
/// (modulo the file's trailing newline).
///
/// # Errors
///
/// Returns a message when the file is unreadable or the bytes differ.
pub fn check_golden(engine: &ServeEngine, path: &str) -> Result<(), String> {
    let pinned = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let got = engine.query(&ServeQuery::golden())?;
    if got.trim_end() == pinned.trim_end() {
        Ok(())
    } else {
        Err(format!(
            "serve golden drift against {path}\n  pinned: {}\n  got:    {}",
            pinned.trim_end(),
            got.trim_end()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_gpusim::GpuSpec;

    #[test]
    fn percentiles_and_histogram_are_sane() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        let h = log2_histogram(&[1, 2, 3, 4, 1024]);
        assert_eq!(h[0], 1); // 1 µs
        assert_eq!(h[1], 2); // 2, 3
        assert_eq!(h[2], 1); // 4
        assert_eq!(h[10], 1); // 1024
        assert_eq!(h.iter().sum::<u64>(), 5);
    }

    #[test]
    fn closed_loop_smoke_is_cache_hot_and_round_trips() {
        let engine = Arc::new(ServeEngine::new(GpuSpec::quadro_p4000()));
        let report =
            run_loadgen(&engine, &LoadgenConfig::smoke(2, 200)).expect("smoke run succeeds");
        assert_eq!(report.mode, "closed");
        assert_eq!(report.completed, 200);
        assert_eq!(report.misses, 0, "warmed run never misses");
        assert_eq!(report.hits, 200);
        assert!(report.qps > 0.0);
        assert!(report.p50_us <= report.p99_us);
        assert_eq!(report.histogram_us.iter().sum::<u64>(), 200);
        let text = report.to_json().to_string();
        assert!(text.contains("\"p99_us\":"), "{text}");
        assert!(report.to_markdown().contains("q/s"));
    }

    #[test]
    fn open_loop_measures_from_scheduled_arrival() {
        let engine = Arc::new(ServeEngine::new(GpuSpec::quadro_p4000()));
        let config = LoadgenConfig {
            mode: LoadgenMode::Open { rate_qps: 2000.0, workers: 2 },
            requests: 100,
            mix: golden_mix(),
            warm: true,
        };
        let report = run_loadgen(&engine, &config).expect("open run succeeds");
        assert_eq!(report.mode, "open");
        assert_eq!(report.completed + report.rejected, 100);
        assert_eq!(report.rate_qps, Some(2000.0));
        // 100 arrivals at 2000/s take ≥ ~50 ms of dispatching.
        assert!(report.duration_s >= 0.045, "{}", report.duration_s);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let engine = Arc::new(ServeEngine::new(GpuSpec::quadro_p4000()));
        let empty = LoadgenConfig {
            mode: LoadgenMode::Closed { clients: 1 },
            requests: 10,
            mix: Vec::new(),
            warm: false,
        };
        assert!(run_loadgen(&engine, &empty).is_err());
        let zero = LoadgenConfig { requests: 0, ..LoadgenConfig::smoke(1, 1) };
        assert!(run_loadgen(&engine, &zero).is_err());
        let bad_rate = LoadgenConfig {
            mode: LoadgenMode::Open { rate_qps: 0.0, workers: 1 },
            ..LoadgenConfig::smoke(1, 10)
        };
        assert!(run_loadgen(&engine, &bad_rate).is_err());
    }
}
