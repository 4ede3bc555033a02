//! Regenerates Fig. 8: Quadro P4000 versus Titan Xp — throughput, GPU
//! compute utilisation and FP32 utilisation for ResNet-50, Inception-v3 and
//! the Seq2Seq implementations.

use tbd_core::{Framework, GpuSpec, ModelKind, Suite};

fn main() {
    let p4000 = Suite::new(GpuSpec::quadro_p4000());
    let xp = Suite::new(GpuSpec::titan_xp());
    println!("Fig. 8 — P4000 vs Titan Xp");
    let cases: [(&str, ModelKind, Framework, usize); 6] = [
        ("ResNet-50 (32) MXNet", ModelKind::ResNet50, Framework::mxnet(), 32),
        ("Inception-v3 (32) MXNet", ModelKind::InceptionV3, Framework::mxnet(), 32),
        ("Sockeye (64) MXNet", ModelKind::Seq2Seq, Framework::mxnet(), 64),
        ("ResNet-50 (32) TF", ModelKind::ResNet50, Framework::tensorflow(), 32),
        ("Inception-v3 (32) TF", ModelKind::InceptionV3, Framework::tensorflow(), 32),
        ("NMT (128) TF", ModelKind::Seq2Seq, Framework::tensorflow(), 128),
    ];
    println!(
        "{:<26} {:>10} {:>10} {:>7} | {:>8} {:>8} | {:>8} {:>8}",
        "workload", "P4000/s", "TitanXp/s", "ratio", "GPU%P4", "GPU%Xp", "FP32%P4", "FP32%Xp"
    );
    for (label, kind, framework, batch) in cases {
        let a = p4000.run(kind, framework, batch).expect("fits on P4000");
        let b = xp.run(kind, framework, batch).expect("fits on Titan Xp");
        println!(
            "{:<26} {:>10.1} {:>10.1} {:>6.2}x | {:>7.1} {:>8.1} | {:>8.1} {:>8.1}",
            label,
            a.throughput,
            b.throughput,
            b.throughput / a.throughput,
            100.0 * a.iteration.gpu_utilization,
            100.0 * b.iteration.gpu_utilization,
            100.0 * a.iteration.fp32_utilization,
            100.0 * b.iteration.fp32_utilization
        );
    }
    println!("\npaper anchors: MXNet 89->184, 61->124, 229->232; TF 71->102, 42->61, 365->530;");
    println!("Observation 10: Titan Xp is faster but both utilisations drop.");
}
