//! The literature survey of the paper's Table 1: systems/architecture
//! papers since 2014 grouped by training-vs-inference focus and
//! algorithmic breadth.

/// One cell of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurveyCell {
    /// `true` for the training row, `false` for inference.
    pub training: bool,
    /// `true` for the image-classification-only column.
    pub image_classification_only: bool,
    /// Paper count in the cell.
    pub papers: usize,
}

/// Table 1's four cells. The paper's headline: 25 papers optimise
/// inference versus 16 training (4 target both), and 26 evaluate only on
/// image classification versus 11 on broader workloads.
pub fn table1() -> [SurveyCell; 4] {
    [
        SurveyCell { training: true, image_classification_only: true, papers: 9 },
        SurveyCell { training: true, image_classification_only: false, papers: 7 },
        SurveyCell { training: false, image_classification_only: true, papers: 19 },
        SurveyCell { training: false, image_classification_only: false, papers: 6 },
    ]
}

/// Four surveyed papers target both training and inference and therefore
/// appear in both rows of Table 1; two of them are image-classification
/// only and two are broader.
pub const BOTH_FOCUS_IMAGE_ONLY: usize = 2;

/// See [`BOTH_FOCUS_IMAGE_ONLY`].
pub const BOTH_FOCUS_BROADER: usize = 2;

/// Papers focused on training (counting both-focus papers once per row, as
/// the paper does).
pub fn training_total() -> usize {
    table1().iter().filter(|c| c.training).map(|c| c.papers).sum()
}

/// Papers focused on inference.
pub fn inference_total() -> usize {
    table1().iter().filter(|c| !c.training).map(|c| c.papers).sum()
}

/// Distinct papers evaluating only on image classification (both-focus
/// papers counted once).
pub fn image_only_total() -> usize {
    table1().iter().filter(|c| c.image_classification_only).map(|c| c.papers).sum::<usize>()
        - BOTH_FOCUS_IMAGE_ONLY
}

/// Distinct papers evaluating beyond image classification.
pub fn broader_total() -> usize {
    table1().iter().filter(|c| !c.image_classification_only).map(|c| c.papers).sum::<usize>()
        - BOTH_FOCUS_BROADER
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_the_papers_headline() {
        // "more papers which optimize inference over training (25 vs. 16)"
        assert_eq!(training_total(), 16);
        assert_eq!(inference_total(), 25);
        // "more papers use image classification as the only application
        // (26 vs. 11)"
        assert_eq!(image_only_total(), 26);
        assert_eq!(broader_total(), 11);
    }
}
