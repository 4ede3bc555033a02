//! Shared helpers for the table/figure-regenerating bench targets.
//!
//! Every `benches/*.rs` target regenerates one table or figure of the
//! paper's evaluation (see `DESIGN.md` for the index); this crate holds the
//! sweep-and-print plumbing they share.

use tbd_core::{paper_batches, Framework, GpuSpec, ModelKind, Suite, WorkloadProfile};

/// The per-model framework series of the paper's Fig. 4–6 sub-plots, in
/// figure order, with the labels the paper uses (NMT vs Sockeye).
pub fn figure_series() -> Vec<(ModelKind, Vec<(Framework, String)>)> {
    let label = |kind: ModelKind, fw: Framework| {
        if kind == ModelKind::Seq2Seq {
            format!("{} ({})", fw.seq2seq_implementation(), fw.name())
        } else {
            format!("{} ({})", kind.name(), fw.name())
        }
    };
    [
        ModelKind::ResNet50,
        ModelKind::InceptionV3,
        ModelKind::Seq2Seq,
        ModelKind::Transformer,
        ModelKind::Wgan,
        ModelKind::DeepSpeech2,
        ModelKind::A3c,
    ]
    .into_iter()
    .map(|kind| {
        let frameworks = Framework::all()
            .into_iter()
            .filter(|fw| fw.supports(kind))
            .map(|fw| (fw, label(kind, fw)))
            .collect();
        (kind, frameworks)
    })
    .collect()
}

/// Sweeps every sub-plot of a Fig. 4/5/6-style figure and prints
/// `metric(…)` per (series, batch) point. OOM points print as `-` exactly
/// where the paper's plots stop.
pub fn print_batch_sweep_figure(title: &str, unit: &str, metric: impl Fn(&WorkloadProfile) -> f64) {
    let suite = Suite::new(GpuSpec::quadro_p4000());
    println!("{title}");
    println!("(device: {}, values in {unit})", suite.gpu().name);
    for (kind, series) in figure_series() {
        let batches = paper_batches(kind);
        println!("\n  [{}]  mini-batch axis: {:?}", kind.name(), batches);
        for (framework, label) in series {
            print!("    {label:<24}");
            for &batch in &batches {
                match suite.run(kind, framework, batch) {
                    Ok(m) => print!(" {:>8.1}", metric(&m)),
                    Err(_) => print!(" {:>8}", "-"),
                }
            }
            println!();
        }
    }
    // Faster R-CNN is reported inline in the paper (batch fixed at 1).
    println!("\n  [Faster R-CNN] (batch fixed at 1)");
    for framework in [Framework::tensorflow(), Framework::mxnet()] {
        let m = suite.run(ModelKind::FasterRcnn, framework, 1).expect("batch 1 fits");
        println!("    Faster R-CNN ({:<10})       {:>8.1}", framework.name(), metric(&m));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_series_covers_seven_panels_with_paper_labels() {
        let series = figure_series();
        assert_eq!(series.len(), 7, "Fig. 4-6 have seven batch-swept panels");
        let seq2seq = series
            .iter()
            .find(|(kind, _)| *kind == ModelKind::Seq2Seq)
            .expect("Seq2Seq panel exists");
        let labels: Vec<&str> = seq2seq.1.iter().map(|(_, l)| l.as_str()).collect();
        assert!(labels.iter().any(|l| l.starts_with("NMT")));
        assert!(labels.iter().any(|l| l.starts_with("Sockeye")));
        // Faster R-CNN is reported inline, not as a panel.
        assert!(!series.iter().any(|(kind, _)| *kind == ModelKind::FasterRcnn));
    }

    #[test]
    fn every_panel_lists_only_supported_frameworks() {
        for (kind, frameworks) in figure_series() {
            assert!(!frameworks.is_empty(), "{} has implementations", kind.name());
            for (fw, _) in frameworks {
                assert!(fw.supports(kind));
            }
        }
    }
}
