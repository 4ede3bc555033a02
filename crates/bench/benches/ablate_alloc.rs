//! Ablation (DESIGN.md §5): framework allocator strategies. Neutralising
//! allocator slack and dynamic momentum buffers erases the feasibility
//! differences the paper reports (Sockeye 64 vs NMT 128).

use tbd_core::{Framework, GpuSpec, ModelKind};
use tbd_frameworks::SpeedOptions;
use tbd_graph::lower::memory_footprint;

fn main() {
    println!("Ablation — allocator strategy vs raw footprint (Seq2Seq, 8 GB card)");
    let gpu = GpuSpec::quadro_p4000();
    println!(
        "{:>6} {:>14} {:>22} {:>22}",
        "batch", "raw need (GB)", "TF allocator fits?", "MXNet allocator fits?"
    );
    for &batch in &[32usize, 64, 128] {
        let model = ModelKind::Seq2Seq.build_full(batch).unwrap();
        let fp = memory_footprint(&model.graph);
        let raw = fp.total() as f64 / 1e9;
        let fits = |fw: Framework| {
            let hints = fw.hints(ModelKind::Seq2Seq, batch);
            match fw.profile(&model, &gpu, hints, SpeedOptions::default(), None) {
                Ok(p) => format!("yes ({:.2} GB)", p.memory.total() as f64 / 1e9),
                Err(_) => "OOM".to_string(),
            }
        };
        println!(
            "{:>6} {:>14.2} {:>22} {:>22}",
            batch,
            raw,
            fits(Framework::tensorflow()),
            fits(Framework::mxnet())
        );
    }
    println!("\nwith allocator effects removed (raw column) both frameworks would fit the");
    println!("same batches; slack + coarse bucketing + dynamic momentum buffers are what");
    println!("cap Sockeye at 64 while NMT reaches 128 (Observation 3).");
}
