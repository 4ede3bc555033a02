//! The benchmark-suite registry (paper Table 2).

use tbd_frameworks::Framework;
use tbd_models::ModelKind;

/// One row of Table 2: a workload and its descriptive columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// The workload.
    pub model: ModelKind,
    /// Application domain.
    pub application: &'static str,
    /// Layer count as the paper quotes it.
    pub layers: &'static str,
    /// Dominant layer type.
    pub dominant_layer: &'static str,
    /// Frameworks with implementations.
    pub frameworks: Vec<&'static str>,
    /// Training dataset.
    pub dataset: &'static str,
}

/// Builds Table 2 from the model and framework registries.
pub fn table2() -> Vec<Table2Row> {
    ModelKind::ALL
        .iter()
        .map(|&model| Table2Row {
            model,
            application: model.application(),
            layers: layer_count(model),
            dominant_layer: model.dominant_layer(),
            frameworks: Framework::all()
                .iter()
                .filter(|fw| fw.supports(model))
                .map(|fw| fw.name())
                .collect(),
            dataset: model.dataset(),
        })
        .collect()
}

fn layer_count(model: ModelKind) -> &'static str {
    match model {
        ModelKind::ResNet50 => "50 (152 max)",
        ModelKind::InceptionV3 => "42",
        ModelKind::Seq2Seq => "5",
        ModelKind::Transformer => "12",
        ModelKind::FasterRcnn => "101",
        ModelKind::DeepSpeech2 => "9 (5 RNN used)",
        ModelKind::Wgan => "14+14",
        ModelKind::A3c => "4",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_covers_all_eight_models() {
        let rows = table2();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].model, ModelKind::ResNet50);
    }

    #[test]
    fn framework_columns_match_paper() {
        let rows = table2();
        let find = |m: ModelKind| rows.iter().find(|r| r.model == m).unwrap();
        assert_eq!(find(ModelKind::ResNet50).frameworks, vec!["TensorFlow", "MXNet", "CNTK"]);
        assert_eq!(find(ModelKind::Seq2Seq).frameworks, vec!["TensorFlow", "MXNet"]);
        assert_eq!(find(ModelKind::Transformer).frameworks, vec!["TensorFlow"]);
        assert_eq!(find(ModelKind::DeepSpeech2).frameworks, vec!["MXNet"]);
        assert_eq!(find(ModelKind::A3c).frameworks, vec!["MXNet"]);
    }

    #[test]
    fn six_application_domains() {
        let rows = table2();
        let mut domains: Vec<_> = rows.iter().map(|r| r.application).collect();
        domains.sort_unstable();
        domains.dedup();
        assert_eq!(domains.len(), 6);
    }
}
