//! Golden-trace regression harness.
//!
//! Every checked-in golden file in `tests/golden/` pins the deterministic
//! digest (plus a human-readable kernel summary) of one workload ×
//! framework trace captured through the full spine. The digests are
//! asserted at `intra_op_threads` 1 **and** 4, so any run of this harness
//! also re-proves the executor's bitwise thread-count invariance at the
//! trace level.
//!
//! When a digest drifts the test prints a kernel-level diff against the
//! golden summary. To accept an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_traces
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use tbd_core::{Framework, GpuSpec, ModelKind};
use tbd_profiler::{capture, parse_digest_file, Capture, SummaryRow, Trace, TraceOptions};

/// The pinned workload × framework pairs (small batch keeps this fast).
const GOLDEN_PAIRS: [(ModelKind, fn() -> Framework); 6] = [
    (ModelKind::ResNet50, Framework::tensorflow),
    (ModelKind::ResNet50, Framework::mxnet),
    (ModelKind::InceptionV3, Framework::tensorflow),
    (ModelKind::InceptionV3, Framework::mxnet),
    (ModelKind::Seq2Seq, Framework::tensorflow),
    (ModelKind::Seq2Seq, Framework::mxnet),
];

const GOLDEN_BATCH: usize = 4;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn slug(text: &str) -> String {
    text.to_lowercase().chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect()
}

fn golden_path(kind: ModelKind, framework: &Framework) -> PathBuf {
    golden_dir().join(format!("{}_{}.digest", slug(kind.name()), slug(framework.name())))
}

fn capture_at(kind: ModelKind, framework: Framework, threads: usize) -> Capture {
    let options = TraceOptions { intra_op_threads: threads, ..TraceOptions::default() };
    capture(kind, framework, GOLDEN_BATCH, &GpuSpec::quadro_p4000(), &options)
        .unwrap_or_else(|e| panic!("{} capture failed: {e}", kind.name()))
}

/// The summary rows of the simulated device stream (kernels and memcpys).
fn kernel_rows(trace: &Trace) -> Vec<SummaryRow> {
    trace.summary_rows().into_iter().filter(|row| row.category != "comm").collect()
}

/// Renders the golden-file text for a capture.
fn render_golden(cap: &Capture) -> String {
    let trace = &cap.trace;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# golden trace — regenerate with UPDATE_GOLDEN=1 cargo test --test golden_traces"
    );
    let _ = writeln!(out, "digest {}", trace.digest_hex());
    let _ = writeln!(out, "model {}", trace.model.name());
    let _ = writeln!(out, "framework {}", trace.framework);
    let _ = writeln!(out, "batch {}", trace.batch);
    let _ = writeln!(out, "events {}", trace.events.len());
    for row in kernel_rows(trace) {
        let _ = writeln!(out, "kernel {} {:.3} {}", row.count, row.total_us, row.name);
    }
    out
}

/// Parses the `kernel <count> <total_us> <name>` rows of a golden file.
fn parse_golden_kernels(text: &str) -> BTreeMap<String, (usize, f64)> {
    let mut rows = BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("kernel ") {
            let mut parts = rest.splitn(3, ' ');
            let count = parts.next().and_then(|c| c.parse().ok()).unwrap_or(0);
            let total = parts.next().and_then(|t| t.parse().ok()).unwrap_or(0.0);
            if let Some(name) = parts.next() {
                rows.insert(name.to_string(), (count, total));
            }
        }
    }
    rows
}

/// Human-readable kernel-level diff between a golden file and a capture.
fn kernel_diff(golden: &BTreeMap<String, (usize, f64)>, actual: &[SummaryRow]) -> String {
    let mut out = String::new();
    let actual_by_name: BTreeMap<&str, &SummaryRow> =
        actual.iter().map(|r| (r.name.as_str(), r)).collect();
    for (name, &(count, total)) in golden {
        match actual_by_name.get(name.as_str()) {
            None => {
                let _ = writeln!(out, "  - kernel disappeared: {name} (was {count}x {total:.3}us)");
            }
            Some(row) if row.count != count || (row.total_us - total).abs() > 5e-4 => {
                let _ = writeln!(
                    out,
                    "  ~ kernel changed: {name}: {count}x {total:.3}us -> {}x {:.3}us",
                    row.count, row.total_us
                );
            }
            Some(_) => {}
        }
    }
    for row in actual {
        if !golden.contains_key(&row.name) {
            let _ = writeln!(
                out,
                "  + new kernel: {} ({}x {:.3}us)",
                row.name, row.count, row.total_us
            );
        }
    }
    if out.is_empty() {
        out.push_str(
            "  (kernel summaries identical — the drift is in non-kernel events or args; \
             compare the full canonical traces)\n",
        );
    }
    out
}

#[test]
fn golden_traces_match_at_one_and_four_threads() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let mut failures = String::new();
    for (kind, framework) in GOLDEN_PAIRS {
        let framework = framework();
        let label = format!("{} / {}", kind.name(), framework.name());
        let cap1 = capture_at(kind, framework, 1);
        let cap4 = capture_at(kind, framework, 4);
        assert_eq!(
            cap1.trace.digest_hex(),
            cap4.trace.digest_hex(),
            "{label}: trace digest must be invariant across intra-op thread counts"
        );
        assert!(cap1.oom.is_none(), "{label}: golden batch must fit the device");
        let path = golden_path(kind, &framework);
        if update {
            std::fs::create_dir_all(golden_dir()).expect("create golden dir");
            std::fs::write(&path, render_golden(&cap1)).expect("write golden");
            eprintln!("updated {}", path.display());
            continue;
        }
        let golden = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                let _ = writeln!(
                    failures,
                    "{label}: missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create",
                    path.display()
                );
                continue;
            }
        };
        let expected =
            parse_digest_file(&golden).unwrap_or_else(|_| "<malformed golden file>".into());
        let got = cap1.trace.digest_hex();
        if expected != got {
            let _ = writeln!(failures, "{label}: digest {expected} -> {got}; kernel-level diff:");
            let golden_kernels = parse_golden_kernels(&golden);
            failures.push_str(&kernel_diff(&golden_kernels, &kernel_rows(&cap1.trace)));
        }
    }
    assert!(
        failures.is_empty(),
        "golden traces drifted:\n{failures}\n\
         If the change is intentional: UPDATE_GOLDEN=1 cargo test --test golden_traces"
    );
}

#[test]
fn golden_files_are_self_consistent() {
    // Each golden file's kernel rows must carry the documented shape; this
    // guards hand edits that would defeat the diff printer.
    for (kind, framework) in GOLDEN_PAIRS {
        let framework = framework();
        let path = golden_path(kind, &framework);
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue; // golden_traces_match reports missing files
        };
        assert!(
            parse_digest_file(&text).is_ok_and(|d| d.len() == 16),
            "{}: golden file needs a 16-hex-digit digest line",
            path.display()
        );
        let kernels = parse_golden_kernels(&text);
        assert!(!kernels.is_empty(), "{}: no kernel rows", path.display());
        assert!(
            text.contains(&format!("model {}", kind.name()))
                && text.contains(&format!("framework {}", framework.name())),
            "{}: metadata mismatch",
            path.display()
        );
    }
}

/// The distrib goldens pin the event-driven data-parallel schedule for the
/// paper's contested cluster points: ResNet-50's profiled backward pass
/// replayed over 2M1G Ethernet and InfiniBand. The digest covers every
/// canonical event line (bucket spans included), so a change to bucketing,
/// the reduction model or the trace args shows up as a drift.
const DISTRIB_NETWORKS: [&str; 2] = ["ethernet", "infiniband"];

fn distrib_golden_path(network: &str) -> PathBuf {
    golden_dir().join(format!("resnet-50_2m1g_{network}.digest"))
}

#[test]
fn golden_distrib_event_traces_match() {
    use tbd_core::Interconnect;
    use tbd_distrib::{ClusterConfig, EventConfig};
    use tbd_profiler::trace::{fnv1a, TraceRecorder};

    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let cap = capture_at(ModelKind::ResNet50, Framework::mxnet(), 1);
    let sim = cap.worker.as_ref().expect("golden batch fits");
    let mut failures = String::new();
    for network in DISTRIB_NETWORKS {
        let link = match network {
            "ethernet" => Interconnect::ethernet_1g(),
            _ => Interconnect::infiniband_100g(),
        };
        let cluster = ClusterConfig::multi_machine(2, link);
        let tracer = TraceRecorder::shared();
        let out = sim.simulate_events(&cluster, &EventConfig::default(), Some(&tracer));
        let events = tracer.drain();
        let canonical: String = events.iter().map(|e| e.canonical() + "\n").collect();
        let digest = format!("{:016x}", fnv1a(canonical.as_bytes()));
        let mut rendered = String::new();
        let _ = writeln!(
            rendered,
            "# golden distrib event trace — regenerate with UPDATE_GOLDEN=1 cargo test --test golden_traces"
        );
        let _ = writeln!(rendered, "digest {digest}");
        let _ = writeln!(rendered, "model ResNet-50");
        let _ = writeln!(rendered, "cluster 2M1G {network}");
        let _ = writeln!(rendered, "buckets {}", out.buckets.len());
        let _ = writeln!(rendered, "overlap {:.6}", out.overlap);
        for event in &events {
            let _ = writeln!(rendered, "event {}", event.canonical());
        }
        let path = distrib_golden_path(network);
        if update {
            std::fs::create_dir_all(golden_dir()).expect("create golden dir");
            std::fs::write(&path, rendered).expect("write golden");
            eprintln!("updated {}", path.display());
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let expected =
                    parse_digest_file(&text).unwrap_or_else(|_| "<malformed golden file>".into());
                if expected != digest {
                    let _ = writeln!(
                        failures,
                        "2M1G {network}: digest {expected} -> {digest} \
                         (bucket schedule or trace args changed)"
                    );
                }
            }
            Err(e) => {
                let _ = writeln!(
                    failures,
                    "2M1G {network}: missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
                    path.display()
                );
            }
        }
    }
    assert!(
        failures.is_empty(),
        "distrib goldens drifted:\n{failures}\n\
         If the change is intentional: UPDATE_GOLDEN=1 cargo test --test golden_traces"
    );
}

/// Serve, elastic and scale derive their cluster worker from an untraced
/// [`profile_workload`](tbd_profiler::profile_workload) instead of running
/// a capture: for each of the 14 supported pairs at its smallest paper
/// batch, unfused and fused f32, the worker the capture builds for its own
/// 1M2G stage must equal, bit for bit, one built from a freshly constructed
/// graph and an untraced profile at the same speed tier.
#[test]
fn capture_worker_matches_a_fresh_graph() {
    use tbd_core::{paper_batches, Suite};
    use tbd_distrib::DataParallelSim;
    use tbd_frameworks::SpeedOptions;
    use tbd_tensor::Precision;

    let gpu = GpuSpec::quadro_p4000();
    for speed in [SpeedOptions::default(), SpeedOptions::fused(Precision::F32)] {
        let options = TraceOptions { functional: false, speed, ..TraceOptions::default() };
        for (kind, framework) in Suite::supported_pairs() {
            let batch = paper_batches(kind)[0];
            let (model_name, fw_name) = (kind.name(), framework.name());
            let point = format!("{model_name} / {fw_name} b{batch} fuse={}", speed.fuse);
            let cap = capture(kind, framework, batch, &gpu, &options)
                .unwrap_or_else(|e| panic!("{point}: {e}"));
            let worker = cap.worker.as_ref().unwrap_or_else(|| panic!("{point}: no worker"));
            let model = kind.build_full(batch).expect("builds");
            let profile =
                tbd_profiler::profile_workload(kind, framework, &model, &gpu, speed, None)
                    .unwrap_or_else(|e| panic!("{point}: {e}"));
            let fresh = DataParallelSim::from_iteration(&model.graph, &profile.iteration, batch);
            assert_eq!(worker.per_gpu_batch, fresh.per_gpu_batch, "{point}");
            assert_eq!(
                worker.compute_iter_s().to_bits(),
                fresh.compute_iter_s().to_bits(),
                "{point}: compute_iter_s"
            );
            assert_eq!(
                worker.gradient_bytes().to_bits(),
                fresh.gradient_bytes().to_bits(),
                "{point}: gradient_bytes"
            );
            let bits = |w: &DataParallelSim| -> Vec<(&'static str, u64, u64)> {
                w.backward
                    .layers
                    .iter()
                    .map(|l| (l.label, l.bytes.to_bits(), l.finish_s.to_bits()))
                    .collect()
            };
            assert!(!worker.backward.layers.is_empty(), "{point}: no layers");
            assert_eq!(bits(worker), bits(&fresh), "{point}: layers");
        }
    }
}
