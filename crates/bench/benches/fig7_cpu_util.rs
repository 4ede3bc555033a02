//! Regenerates Fig. 7: average CPU utilisation across all 14
//! model × framework implementations.

use tbd_core::{GpuSpec, ModelKind, Suite};

fn main() {
    let suite = Suite::new(GpuSpec::quadro_p4000());
    println!("Fig. 7 — average CPU utilisation (28-core Xeon)");
    for (kind, framework) in Suite::supported_pairs() {
        let batch = match kind {
            ModelKind::FasterRcnn => 1,
            ModelKind::DeepSpeech2 => 2,
            ModelKind::Transformer => 2048,
            ModelKind::Seq2Seq => 64,
            ModelKind::A3c => 128,
            _ => 32,
        };
        let label = if kind == ModelKind::Seq2Seq {
            format!("{} ({})", framework.seq2seq_implementation(), framework.name())
        } else {
            format!("{} ({})", kind.name(), framework.name())
        };
        match suite.run(kind, framework, batch) {
            Ok(m) => println!("  {:<28} {:5.2} %", label, 100.0 * m.iteration.cpu_utilization),
            Err(e) => println!("  {label:<28} OOM ({e})"),
        }
    }
    println!(
        "\npaper anchors: most 5-8 %, CNTK ~0.1 %, Transformer/WGAN ~1.7 %, A3C 28.75 % (highest)"
    );
}
