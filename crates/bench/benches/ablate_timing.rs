//! Ablation (DESIGN.md §5): roofline-with-setup timing versus a pure-FLOP
//! model. Removing the memory roof and per-kernel setup flattens the
//! batch-size effects the paper measures (Observations 4-7 disappear).

use tbd_core::{Framework, GpuSpec, ModelKind, Suite};
use tbd_frameworks::SpeedOptions;
use tbd_graph::KernelClass;

fn main() {
    let suite = Suite::new(GpuSpec::quadro_p4000());
    let gpu = GpuSpec::quadro_p4000();
    println!("Ablation — full timing model vs pure-FLOP timing (ResNet-50, MXNet)");
    println!(
        "{:>6} {:>16} {:>16} {:>14}",
        "batch", "model img/s", "pure-FLOP img/s", "model GPU util"
    );
    for &batch in &[4usize, 8, 16, 32] {
        let m = suite.run(ModelKind::ResNet50, Framework::mxnet(), batch).unwrap();
        // Pure-FLOP alternative: total algorithmic FLOPs at a fixed 50 % of
        // peak, no memory roof, no setup, no launch gaps.
        let model = ModelKind::ResNet50.build_full(batch).unwrap();
        let kernels = Framework::mxnet().plan_with(&model, SpeedOptions::default());
        let flops: f64 = kernels.iter().map(|k| k.spec.flops).sum();
        let naive_iter = flops / (gpu.peak_flops() * 0.5);
        let naive_throughput = batch as f64 / naive_iter;
        println!(
            "{:>6} {:>16.1} {:>16.1} {:>13.1}%",
            batch,
            m.throughput,
            naive_throughput,
            100.0 * m.iteration.gpu_utilization
        );
        let _ = kernels.iter().filter(|k| k.spec.class == KernelClass::ConvForward).count();
    }
    println!("\nthe pure-FLOP model scales *exactly* linearly with batch and misses the");
    println!("small-batch penalty, the bn/elementwise tax and every utilisation effect.");
}
