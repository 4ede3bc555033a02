//! Evaluation metrics from the paper's Fig. 2: top-k classification
//! accuracy (image models), BLEU (translation), word error rate (speech)
//! and game score (reinforcement learning, tracked by the environment).

use std::collections::HashMap;
use tbd_tensor::Tensor;

/// Top-k accuracy of `logits` (`[n, classes]`) against integer `targets`.
///
/// The paper reports Top-1 and Top-5 for the image classifiers (§3.3).
///
/// # Panics
///
/// Panics if `logits` is not rank 2 or `targets.len()` differs from the row
/// count.
pub fn top_k_accuracy(logits: &Tensor, targets: &Tensor, k: usize) -> f64 {
    assert_eq!(logits.shape().rank(), 2, "logits must be [n, classes]");
    let (n, classes) = (logits.shape().dim(0), logits.shape().dim(1));
    assert_eq!(targets.len(), n, "one target per row");
    if n == 0 {
        return 0.0;
    }
    let mut hits = 0;
    for row in 0..n {
        let target = targets.data()[row].round() as usize;
        let scores = &logits.data()[row * classes..(row + 1) * classes];
        let target_score = scores[target.min(classes - 1)];
        // Rank = how many classes score strictly higher.
        let rank = scores.iter().filter(|&&s| s > target_score).count();
        if rank < k {
            hits += 1;
        }
    }
    hits as f64 / n as f64
}

/// Levenshtein edit distance between two token sequences.
pub fn edit_distance(a: &[usize], b: &[usize]) -> usize {
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ta) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &tb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ta != tb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Word error rate: `edit_distance / reference_length` (speech recognition).
pub fn word_error_rate(hypothesis: &[usize], reference: &[usize]) -> f64 {
    if reference.is_empty() {
        return if hypothesis.is_empty() { 0.0 } else { 1.0 };
    }
    edit_distance(hypothesis, reference) as f64 / reference.len() as f64
}

fn ngram_counts(tokens: &[usize], n: usize) -> HashMap<&[usize], usize> {
    let mut counts = HashMap::new();
    if tokens.len() >= n {
        for w in tokens.windows(n) {
            *counts.entry(w).or_insert(0) += 1;
        }
    }
    counts
}

/// Corpus BLEU with up to 4-gram precision and brevity penalty
/// (Papineni et al. 2002), the paper's translation metric. Returns a score
/// in `[0, 100]`.
pub fn bleu(hypotheses: &[Vec<usize>], references: &[Vec<usize>]) -> f64 {
    assert_eq!(hypotheses.len(), references.len(), "parallel corpora required");
    if hypotheses.is_empty() {
        return 0.0;
    }
    let max_n = 4;
    let mut log_precision_sum = 0.0;
    for n in 1..=max_n {
        let mut matched = 0usize;
        let mut total = 0usize;
        for (hyp, refr) in hypotheses.iter().zip(references) {
            let h = ngram_counts(hyp, n);
            let r = ngram_counts(refr, n);
            for (gram, &count) in &h {
                matched += count.min(*r.get(gram).unwrap_or(&0));
            }
            total += hyp.len().saturating_sub(n - 1);
        }
        if matched == 0 || total == 0 {
            return 0.0;
        }
        log_precision_sum += (matched as f64 / total as f64).ln();
    }
    let hyp_len: usize = hypotheses.iter().map(Vec::len).sum();
    let ref_len: usize = references.iter().map(Vec::len).sum();
    let brevity =
        if hyp_len >= ref_len { 1.0 } else { (1.0 - ref_len as f64 / hyp_len.max(1) as f64).exp() };
    100.0 * brevity * (log_precision_sum / max_n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top1_and_top5() {
        let logits = Tensor::from_vec(
            vec![
                0.1, 0.9, 0.0, 0.0, 0.0, 0.0, // target 1: top-1 hit
                0.5, 0.4, 0.3, 0.2, 0.1, 0.0, // target 4: rank 4 → top-5 hit only
            ],
            [2, 6],
        )
        .unwrap();
        let targets = Tensor::from_slice(&[1.0, 4.0]);
        assert_eq!(top_k_accuracy(&logits, &targets, 1), 0.5);
        assert_eq!(top_k_accuracy(&logits, &targets, 5), 1.0);
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(edit_distance(&[1, 2, 3], &[1, 3]), 1);
        assert_eq!(edit_distance(&[], &[1, 2]), 2);
        assert_eq!(edit_distance(&[5, 6], &[]), 2);
        // kitten → sitting in token form.
        assert_eq!(edit_distance(&[10, 8, 19, 19, 4, 13], &[18, 8, 19, 19, 8, 13, 6]), 3);
    }

    #[test]
    fn wer_is_normalized() {
        assert_eq!(word_error_rate(&[1, 2, 3], &[1, 2, 3]), 0.0);
        assert_eq!(word_error_rate(&[1, 2], &[1, 2, 3, 4]), 0.5);
        assert_eq!(word_error_rate(&[], &[]), 0.0);
        assert_eq!(word_error_rate(&[1], &[]), 1.0);
    }

    #[test]
    fn perfect_translation_scores_100() {
        let corpus = vec![vec![1, 2, 3, 4, 5, 6], vec![7, 8, 9, 10, 11]];
        let score = bleu(&corpus, &corpus);
        assert!((score - 100.0).abs() < 1e-6, "score {score}");
    }

    #[test]
    fn disjoint_translation_scores_0() {
        let hyp = vec![vec![1, 1, 1, 1, 1]];
        let refr = vec![vec![2, 2, 2, 2, 2]];
        assert_eq!(bleu(&hyp, &refr), 0.0);
    }

    #[test]
    fn partial_overlap_scores_between() {
        let hyp = vec![vec![1, 2, 3, 4, 9, 9]];
        let refr = vec![vec![1, 2, 3, 4, 5, 6]];
        let score = bleu(&hyp, &refr);
        assert!(score > 0.0 && score < 100.0, "score {score}");
    }

    #[test]
    fn brevity_penalty_punishes_short_hypotheses() {
        let refr = vec![vec![1, 2, 3, 4, 5, 6, 7, 8]];
        let full = bleu(&refr, &refr);
        let short = bleu(&[refr[0][..5].to_vec()], &refr);
        assert!(short < full);
    }
}
