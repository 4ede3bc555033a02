//! Regenerates Fig. 5: GPU compute utilisation (Eq. 1) versus mini-batch
//! size.

use tbd_bench::print_batch_sweep_figure;

fn main() {
    print_batch_sweep_figure(
        "Fig. 5 — GPU compute utilisation vs mini-batch size",
        "% of wall time with a kernel resident",
        |m| 100.0 * m.iteration.gpu_utilization,
    );
    println!(
        "\npaper anchors: CNNs reach ~95 %+; LSTM models stay well below; Faster R-CNN ~89-90 %"
    );
}
