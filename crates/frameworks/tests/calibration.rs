//! Calibration snapshot: full-scale workloads against the paper's reported
//! absolute numbers (Fig. 4 and Fig. 8). Run with `--nocapture` to inspect
//! current values while tuning the device-model constants.

use tbd_frameworks::{Framework, SpeedOptions, WorkloadHints};
use tbd_gpusim::GpuSpec;
use tbd_models::{resnet::ResNetConfig, seq2seq::Seq2SeqConfig};

#[test]
fn calibration_snapshot_prints_key_points() {
    let p4000 = GpuSpec::quadro_p4000();
    let xp = GpuSpec::titan_xp();

    let resnet32 = ResNetConfig::resnet50().build(32).unwrap();
    for fw in Framework::all() {
        let p = fw
            .profile(&resnet32, &p4000, WorkloadHints::default(), SpeedOptions::default(), None)
            .unwrap();
        println!(
            "ResNet-50 b32 {:>10} P4000: {:6.1} img/s gpu={:4.1}% fp32={:4.1}% cpu={:4.1}% mem={:.2} GB",
            fw.name(),
            p.throughput,
            100.0 * p.iteration.gpu_utilization,
            100.0 * p.iteration.fp32_utilization,
            100.0 * p.iteration.cpu_utilization,
            p.memory.total() as f64 / 1e9
        );
    }
    let ptx = Framework::mxnet()
        .profile(&resnet32, &xp, WorkloadHints::default(), SpeedOptions::default(), None)
        .unwrap();
    println!("ResNet-50 b32 MXNet TITANXp: {:6.1} img/s (paper 184)", ptx.throughput);

    for &b in &[4usize, 8, 16, 32] {
        let m = ResNetConfig::resnet50().build(b).unwrap();
        let p = Framework::mxnet()
            .profile(&m, &p4000, WorkloadHints::default(), SpeedOptions::default(), None)
            .unwrap();
        println!(
            "ResNet-50 b{:>3} MXNet: {:6.1} img/s gpu={:4.1}% fp32={:4.1}%",
            b,
            p.throughput,
            100.0 * p.iteration.gpu_utilization,
            100.0 * p.iteration.fp32_utilization
        );
    }

    let s64 = Seq2SeqConfig::full().build(64).unwrap();
    let pmx = Framework::mxnet()
        .profile(
            &s64,
            &p4000,
            Framework::mxnet().hints(tbd_models::ModelKind::Seq2Seq, 64),
            SpeedOptions::default(),
            None,
        )
        .unwrap();
    println!(
        "Sockeye  b64 MXNet: {:6.1} sent/s (paper 229) gpu={:4.1}% fp32={:4.1}%",
        pmx.throughput,
        100.0 * pmx.iteration.gpu_utilization,
        100.0 * pmx.iteration.fp32_utilization
    );
    let s128 = Seq2SeqConfig::full().build(128).unwrap();
    let ptf = Framework::tensorflow()
        .profile(
            &s128,
            &p4000,
            Framework::tensorflow().hints(tbd_models::ModelKind::Seq2Seq, 128),
            SpeedOptions::default(),
            None,
        )
        .unwrap();
    println!(
        "NMT     b128 TF   : {:6.1} sent/s (paper 365) gpu={:4.1}% fp32={:4.1}% mem={:.2} GB",
        ptf.throughput,
        100.0 * ptf.iteration.gpu_utilization,
        100.0 * ptf.iteration.fp32_utilization,
        ptf.memory.total() as f64 / 1e9
    );
}

#[test]
fn calibration_busy_breakdown_resnet() {
    use std::collections::BTreeMap;
    let p4000 = GpuSpec::quadro_p4000();
    let model = ResNetConfig::resnet50().build(32).unwrap();
    let p = Framework::mxnet()
        .profile(&model, &p4000, WorkloadHints::default(), SpeedOptions::default(), None)
        .unwrap();
    let mut by_class: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for r in &p.iteration.records {
        let e = by_class.entry(format!("{:?}", r.class)).or_insert((0.0, 0));
        e.0 += r.duration_s;
        e.1 += 1;
    }
    let mut rows: Vec<_> = by_class.into_iter().collect();
    rows.sort_by(|a, b| b.1 .0.partial_cmp(&a.1 .0).unwrap());
    for (class, (t, n)) in rows {
        println!("{class:>22}: {:8.1} ms over {n:5} kernels", t * 1e3);
    }
    println!(
        "busy total {:8.1} ms wall {:8.1} ms",
        p.iteration.gpu_busy_s * 1e3,
        p.iteration.wall_time_s * 1e3
    );
}
