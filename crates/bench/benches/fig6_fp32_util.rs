//! Regenerates Fig. 6: FP32 utilisation (Eq. 2) versus mini-batch size.

use tbd_bench::print_batch_sweep_figure;

fn main() {
    print_batch_sweep_figure(
        "Fig. 6 — GPU FP32 utilisation vs mini-batch size",
        "% of single-precision peak while busy",
        |m| 100.0 * m.iteration.fp32_utilization,
    );
    println!("\npaper anchors: CNNs rise to ~55-65 %; RNN models stay under ~25 %; Faster R-CNN 58.9/70.9 %");
}
