//! Runs the paper's full Fig. 3 analysis pipeline on one workload and
//! writes its timeline as a Chrome trace file: comparability check →
//! observe the simulated run (trace, metrics registry, streamed training
//! run) → stable window and sampled throughput → metrics + kernel table.
//!
//! ```sh
//! cargo run --release --example analyze_workload
//! ```

use tbd_core::{compare_models, kernel_table, Framework, GpuSpec, ModelKind};
use tbd_frameworks::SpeedOptions;
use tbd_profiler::{observe, TraceOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kind = ModelKind::ResNet50;
    let framework = Framework::mxnet();
    let gpu = GpuSpec::quadro_p4000();
    let batch = 16;

    // Step 1 (§3.4.1): make implementations comparable. Build the model
    // twice — as two "implementations" — and verify identical networks.
    let model = kind.build_full(batch)?;
    let other = kind.build_full(batch)?;
    let report = compare_models(&model, &other);
    println!(
        "comparability check: {} ({} op differences, {} param differences)",
        if report.comparable() { "PASS" } else { "FAIL" },
        report.op_differences.len(),
        report.param_differences.len()
    );

    // Steps 2-4 (§3.4.2-3.4.3): warm-up-aware sampling + the metric set.
    let options =
        TraceOptions { functional: false, speed: SpeedOptions::default(), ..Default::default() };
    let obs = observe(kind, framework, batch, &gpu, &options, None)?;
    let (Some(profile), Some((start, end, sampled))) = (&obs.capture.profile, obs.stable_window())
    else {
        return Err(match &obs.capture.oom {
            Some(oom) => oom.to_string().into(),
            None => "training run never reached a stable throughput window".into(),
        });
    };
    println!("\n{} on {} (batch {batch}, {}):", kind.name(), framework.name(), gpu.name);
    println!(
        "  sampled over stable window {start}..{end}: {sampled:.1} images/s (simulator: {:.1})",
        profile.throughput
    );
    println!(
        "  GPU {:.1} % | FP32 {:.1} % | CPU {:.1} % | memory {:.2} GB",
        100.0 * profile.iteration.gpu_utilization,
        100.0 * profile.iteration.fp32_utilization,
        100.0 * profile.iteration.cpu_utilization,
        profile.memory.total() as f64 / 1e9
    );
    println!("  kernels with below-average FP32 utilisation:");
    for row in kernel_table(&profile.iteration.records, framework, 5) {
        println!(
            "    {:>6.2}%  {:>5.1}%  {}",
            100.0 * row.duration_share,
            100.0 * row.fp32_utilization,
            row.name
        );
    }

    // Step 5: export the timeline (load in chrome://tracing or Perfetto).
    let path = std::env::temp_dir().join("tbd_resnet50_trace.json");
    std::fs::write(&path, obs.capture.trace.to_chrome_json())?;
    println!("\ntimeline written to {} (open in chrome://tracing)", path.display());
    Ok(())
}
