//! Regenerates Fig. 2: model accuracy over training time for Inception-v3,
//! ResNet-50, Transformer, Seq2Seq and A3C (per framework).

use tbd_core::ModelKind;
use tbd_train::ConvergenceModel;

fn main() {
    println!("Fig. 2 — model accuracy during training");
    let panels: [(&str, ModelKind, &[&str]); 5] = [
        ("(a) Inception-v3", ModelKind::InceptionV3, &["MXNet", "CNTK", "TensorFlow"]),
        ("(b) ResNet-50", ModelKind::ResNet50, &["MXNet", "TensorFlow", "CNTK"]),
        ("(c) Transformer", ModelKind::Transformer, &["TensorFlow"]),
        ("(d) Seq2Seq", ModelKind::Seq2Seq, &["MXNet", "TensorFlow"]),
        ("(e) A3C", ModelKind::A3c, &["MXNet"]),
    ];
    for (panel, kind, frameworks) in panels {
        println!("\n{panel}");
        for fw in frameworks {
            let model = ConvergenceModel::for_workload(kind, fw).expect("plotted in Fig. 2");
            let curve = model.curve(9, 42);
            print!("  {:<22} [{}]", curve.label, model.metric);
            for (h, v) in curve.hours.iter().zip(&curve.values) {
                if model.metric == "Top-1 accuracy" {
                    print!(" {:.0}d:{:.2}", h / 24.0, v);
                } else {
                    print!(" {h:.0}h:{v:.1}");
                }
            }
            println!();
        }
    }
    println!(
        "\npaper endpoints: Top-1 75-80 %, BLEU ~20 (Seq2Seq) / ~24 (Transformer), Pong 19-20"
    );
}
