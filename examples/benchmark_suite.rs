//! Runs the full TBD benchmark suite — every (model, framework) pair of
//! the paper's Table 2 — on the simulated Quadro P4000 and prints the
//! §3.4.3 metric set for each.
//!
//! ```sh
//! cargo run --release --example benchmark_suite
//! ```

use tbd_core::{paper_batches, GpuSpec, ModelKind, Suite};

fn main() {
    let suite = Suite::new(GpuSpec::quadro_p4000());
    println!("TBD benchmark suite on {}", suite.gpu().name);
    println!(
        "{:<14} {:<11} {:>5}  {:>12}  {:>8}  {:>8}  {:>8}  {:>9}",
        "model", "framework", "batch", "throughput", "GPU%", "FP32%", "CPU%", "memory"
    );
    for (kind, framework) in Suite::supported_pairs() {
        // Profile at the largest feasible batch of the paper's axis.
        let batches = paper_batches(kind);
        let mut reported = false;
        for &batch in batches.iter().rev() {
            match suite.run(kind, framework, batch) {
                Ok(m) => {
                    let unit = match kind {
                        ModelKind::Transformer => "tokens/s",
                        ModelKind::DeepSpeech2 => "utt/s",
                        _ => "samples/s",
                    };
                    println!(
                        "{:<14} {:<11} {:>5}  {:>7.1} {:<9} {:>7.1}  {:>7.1}  {:>7.1}  {:>6.2} GB",
                        kind.name(),
                        framework.name(),
                        batch,
                        m.throughput,
                        unit,
                        100.0 * m.iteration.gpu_utilization,
                        100.0 * m.iteration.fp32_utilization,
                        100.0 * m.iteration.cpu_utilization,
                        m.memory.total() as f64 / 1e9,
                    );
                    reported = true;
                    break;
                }
                Err(_) => continue, // batch too large for 8 GB, try smaller
            }
        }
        if !reported {
            println!("{:<14} {:<11}   OOM at every batch", kind.name(), framework.name());
        }
    }
}
