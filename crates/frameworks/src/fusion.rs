//! RNN kernel fusion — the optimization direction behind the paper's RNN
//! findings (Observations 5 and 7 recommend "further research … in how to
//! optimize LSTM cells on GPUs"; cuDNN's fused RNN kernels are exactly
//! that).
//!
//! The pass rewrites a lowered kernel stream by merging adjacent launches
//! into one (summing FLOPs and bytes): fewer launches means fewer
//! per-kernel setup costs and fewer scheduling gaps, which is where the
//! per-time-step RNN formulation loses its time. Pointwise-chain fusion is
//! the graph-level pass in `tbd_graph::fuse` (`Framework::plan_with`); this
//! one stays separate because it merges GEMMs across time steps, which no
//! contraction-headed `FUSION_RULES` chain expresses.

use tbd_graph::lower::LoweredKernel;
use tbd_graph::KernelClass;

/// Simulates cuDNN's fused-RNN lowering: within each training phase, runs
/// of small GEMMs *and* their surrounding pointwise kernels merge into
/// layer-level launches of at most `kernels_per_launch` original kernels.
///
/// With `kernels_per_launch` around the per-layer time-step count, a
/// 5-layer/25-step Seq2Seq collapses from thousands of launches to dozens —
/// the cuDNN `RNNForwardTraining` shape.
pub fn fuse_rnn(kernels: &[LoweredKernel], kernels_per_launch: usize) -> Vec<LoweredKernel> {
    let mut out: Vec<LoweredKernel> = Vec::with_capacity(kernels.len());
    let mut run_len = 0usize;
    for k in kernels {
        let fusable = is_rnn_family(k.spec.class);
        if fusable
            && run_len > 0
            && run_len < kernels_per_launch.max(1)
            && out.last().map(|last: &LoweredKernel| last.phase == k.phase).unwrap_or(false)
        {
            let last = out.last_mut().expect("run in progress");
            last.spec.flops += k.spec.flops;
            last.spec.bytes += k.spec.bytes;
            last.spec.workspace_bytes = last.spec.workspace_bytes.max(k.spec.workspace_bytes);
            run_len += 1;
        } else {
            let mut merged = k.clone();
            if fusable {
                // The fused launch presents as one large GEMM-class kernel.
                merged.spec.class = KernelClass::Gemm;
                merged.spec.origin = "fused_rnn";
                run_len = 1;
            } else {
                run_len = 0;
            }
            out.push(merged);
        }
    }
    out
}

fn is_rnn_family(class: KernelClass) -> bool {
    matches!(
        class,
        KernelClass::Gemm
            | KernelClass::Elementwise
            | KernelClass::ActivationForward
            | KernelClass::ActivationBackward
            | KernelClass::DataMovement
            | KernelClass::Dropout
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_graph::{KernelSpec, NodeId, Phase};

    fn kern(class: KernelClass, phase: Phase, flops: f64) -> LoweredKernel {
        LoweredKernel {
            node: NodeId::from_index(0),
            phase,
            spec: KernelSpec::new(class, flops, flops, "k"),
        }
    }

    #[test]
    fn fusion_never_crosses_phases() {
        let stream = vec![
            kern(KernelClass::Elementwise, Phase::Forward, 1.0),
            kern(KernelClass::Elementwise, Phase::Backward, 1.0),
        ];
        assert_eq!(fuse_rnn(&stream, 100).len(), 2);
    }

    #[test]
    fn rnn_fusion_collapses_step_kernels() {
        // 40 tiny per-step kernels → ceil(40 / 10) launches.
        let stream: Vec<_> = (0..40)
            .map(|i| {
                let class = if i % 2 == 0 { KernelClass::Gemm } else { KernelClass::Elementwise };
                kern(class, Phase::Forward, 10.0)
            })
            .collect();
        let fused = fuse_rnn(&stream, 10);
        assert_eq!(fused.len(), 4);
        let total: f64 = fused.iter().map(|k| k.spec.flops).sum();
        assert_eq!(total, 400.0);
        assert!(fused.iter().all(|k| k.spec.origin == "fused_rnn"));
    }

    #[test]
    fn conv_kernels_pass_through_untouched() {
        let stream = vec![
            kern(KernelClass::ConvForward, Phase::Forward, 50.0),
            kern(KernelClass::BatchNormForward, Phase::Forward, 5.0),
        ];
        let fused = fuse_rnn(&stream, 100);
        assert_eq!(fused.len(), 2);
        assert_eq!(fused[0].spec.class, KernelClass::ConvForward);
    }
}
