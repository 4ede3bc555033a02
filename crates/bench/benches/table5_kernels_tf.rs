//! Regenerates Table 5: the five longest kernels with below-average FP32
//! utilisation for ResNet-50 on TensorFlow at mini-batch 32.

use tbd_core::{kernel_table, Framework, GpuSpec, ModelKind, Suite};

fn main() {
    let suite = Suite::new(GpuSpec::quadro_p4000());
    let framework = Framework::tensorflow();
    let m = suite.run(ModelKind::ResNet50, framework, 32).expect("fits");
    println!("Table 5 — longest 5 kernels with below-average FP32 utilisation");
    println!(
        "(ResNet-50, mini-batch 32, TensorFlow; average FP32 {:.1} %)",
        100.0 * m.iteration.fp32_utilization
    );
    println!("{:>9} {:>12}  Kernel Name", "Duration", "Utilization");
    for row in kernel_table(&m.iteration.records, framework, 5) {
        println!(
            "{:>8.2}% {:>11.1}%  {}",
            100.0 * row.duration_share,
            100.0 * row.fp32_utilization,
            row.name
        );
    }
    println!("\npaper rows: magma sgemm 8.36%/30.0%, bn_bw 5.53%/42.3%, bn_fw 4.65%/46.3%,");
    println!("            EigenMetaKernel 3.12%/20.0%, BiasNHWCKernel 2.48%/40.0%");
}
