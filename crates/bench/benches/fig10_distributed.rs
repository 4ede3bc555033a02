//! Regenerates Fig. 10: ResNet-50 on MXNet with multiple GPUs/machines —
//! 1M1G, 1M2G, 1M4G and 2M1G over Ethernet and InfiniBand, per-GPU
//! batches 8/16/32, each point replayed through the event engine
//! (`tbd scale`).

use tbd_core::{Framework, GpuSpec, ModelKind, ScaleReport};

fn main() {
    let gpu = GpuSpec::quadro_p4000();
    println!("Fig. 10 — ResNet-50 on MXNet, distributed data parallelism (samples/s)");
    println!("{:<22} {:>8} {:>8} {:>8}", "configuration", "b8", "b16", "b32");
    let reports: Vec<ScaleReport> = [8usize, 16, 32]
        .into_iter()
        .map(|batch| {
            ScaleReport::run(ModelKind::ResNet50, Framework::mxnet(), batch, &gpu, false, None)
                .expect("ResNet-50 fits at b8-b32")
        })
        .collect();
    for (i, entry) in reports[0].entries.iter().enumerate() {
        let [b8, b16, b32] = [0, 1, 2].map(|r| reports[r].entries[i].throughput);
        println!("{:<22} {b8:>8.1} {b16:>8.1} {b32:>8.1}", entry.label);
    }
    println!("\nObservation 13: Ethernet 2M1G falls below 1M1G; InfiniBand and PCIe scale.");
}
