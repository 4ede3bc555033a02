//! Regenerates Table 6: the five longest kernels with below-average FP32
//! utilisation for ResNet-50 on MXNet at mini-batch 32.

use tbd_core::{kernel_table, Framework, GpuSpec, ModelKind, Suite};

fn main() {
    let suite = Suite::new(GpuSpec::quadro_p4000());
    let framework = Framework::mxnet();
    let m = suite.run(ModelKind::ResNet50, framework, 32).expect("fits");
    println!("Table 6 — longest 5 kernels with below-average FP32 utilisation");
    println!(
        "(ResNet-50, mini-batch 32, MXNet; average FP32 {:.1} %)",
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
    println!("\npaper rows: bn_bw 9.43%/30.0%, bn_fw 7.96%/42.3%, activation_bw 5.14%/46.3%,");
    println!("            activation_fw 3.52%/20.0%, mxnet_generic_kernel 2.85%/40.0%");
}
