//! Distributed data-parallel training (the paper's Fig. 10): ResNet-50 on
//! MXNet across single-machine multi-GPU and two-machine configurations
//! over Ethernet and InfiniBand, each replayed through the event engine.
//!
//! ```sh
//! cargo run --release --example distributed_training
//! ```

use tbd_core::{Framework, GpuSpec, ModelKind, ScaleReport};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gpu = GpuSpec::quadro_p4000();
    println!("ResNet-50 on MXNet, data-parallel scaling (per-GPU batch sweep)");
    println!(
        "{:>6}  {:>18}  {:>12}  {:>12}  {:>10}",
        "batch", "configuration", "throughput", "comm (ms)", "efficiency"
    );
    for batch in [8usize, 16, 32] {
        let report =
            ScaleReport::run(ModelKind::ResNet50, Framework::mxnet(), batch, &gpu, false, None)?;
        for e in &report.entries {
            println!(
                "{:>6}  {:>18}  {:>8.1}/s  {:>12.1}  {:>9.0}%",
                batch,
                e.label,
                e.throughput,
                e.comm_s * 1e3,
                100.0 * e.scaling_efficiency
            );
        }
        println!();
    }
    println!("Observation 13: Gigabit Ethernet makes 2 machines slower than 1;");
    println!("InfiniBand and intra-machine PCIe restore near-linear scaling.");
    Ok(())
}
