//! Extension study: what fused RNN kernels would buy (the paper's
//! Observations 5/7 recommendation, "further research should be done in how
//! to optimize LSTM cells on GPUs"). Replays Sockeye's per-time-step kernel
//! stream, then the same model lowered through the graph-level fusion pass
//! and the stream after a cuDNN-style fused-RNN lowering.

use tbd_core::{Framework, GpuSpec, ModelKind};
use tbd_frameworks::fusion::fuse_rnn;
use tbd_frameworks::SpeedOptions;
use tbd_gpusim::{simulate_iteration, CpuSpec};
use tbd_tensor::Precision;

fn main() {
    let gpu = GpuSpec::quadro_p4000();
    let cpu = CpuSpec::xeon_e5_2680();
    let fw = Framework::mxnet();
    let batch = 64;
    let model = ModelKind::Seq2Seq.build_full(batch).expect("builds");
    let input_bytes: u64 =
        model.inputs.values().map(|&id| model.graph.node(id).shape.byte_len() as u64).sum();
    let params = fw.execution_params(input_bytes);
    let baseline = fw.plan_with(&model, SpeedOptions::default());
    let graph_fused = fw.plan_with(&model, SpeedOptions::fused(Precision::F32));
    let fused = fuse_rnn(&baseline, 64);
    println!("RNN kernel-fusion study — Sockeye (Seq2Seq) at batch {batch} on P4000");
    println!(
        "{:<22} {:>9} {:>12} {:>10} {:>10}",
        "lowering", "kernels", "throughput", "GPU util", "FP32 util"
    );
    for (label, stream) in [
        ("per-step (paper)", &baseline),
        ("graph fusion", &graph_fused),
        ("fused RNN (cuDNN)", &fused),
    ] {
        let p = simulate_iteration(stream, &gpu, &cpu, &params, None);
        println!(
            "{:<22} {:>9} {:>9.1}/s {:>9.1}% {:>9.1}%",
            label,
            stream.len(),
            p.throughput(batch),
            100.0 * p.gpu_utilization,
            100.0 * p.fp32_utilization
        );
    }
    println!("\nfusing the recurrence removes the launch/scheduling tax the paper measures;");
    println!("this is the headroom Observation 7's 'low RNN FP32 utilisation' points at.");
}
