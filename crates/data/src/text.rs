//! Synthetic translation data: IWSLT-shaped sentence pairs (Zipf-ish token
//! frequencies, 20–30-token lengths) plus a learnable copy/reverse task for
//! functional training and BLEU evaluation.

use rand::Rng;
use tbd_tensor::Tensor;

/// A source/target sentence pair of token ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslationPair {
    /// Source token ids.
    pub source: Vec<usize>,
    /// Target token ids.
    pub target: Vec<usize>,
}

/// Task the synthetic translator should learn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslationTask {
    /// Target equals source (identity) — easiest to learn.
    Copy,
    /// Target is the reversed source.
    Reverse,
    /// Target token `i` is `(source[i] + 1) mod vocab` — a learnable
    /// substitution cipher.
    Shift,
}

/// A synthetic parallel corpus with IWSLT15 statistics (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslationDataset {
    /// Vocabulary size (17 188 for IWSLT15).
    pub vocab: usize,
    /// Minimum sentence length in tokens.
    pub min_len: usize,
    /// Maximum sentence length in tokens.
    pub max_len: usize,
    /// The synthetic mapping target sentences follow.
    pub task: TranslationTask,
}

impl TranslationDataset {
    /// IWSLT15-shaped corpus (vocab 17 188, sentences 20–30 tokens).
    pub fn iwslt_like() -> Self {
        TranslationDataset { vocab: 17_188, min_len: 20, max_len: 30, task: TranslationTask::Shift }
    }

    /// Tiny learnable corpus for functional tests.
    pub fn tiny(vocab: usize, len: usize, task: TranslationTask) -> Self {
        TranslationDataset { vocab, min_len: len, max_len: len, task }
    }

    /// Draws one sentence pair. Token frequencies follow an approximate
    /// Zipf distribution, as natural-language corpora do.
    pub fn sample_pair<R: Rng + ?Sized>(&self, rng: &mut R) -> TranslationPair {
        let len = rng.gen_range(self.min_len..=self.max_len);
        let source: Vec<usize> = (0..len).map(|_| self.sample_token(rng)).collect();
        let target = match self.task {
            TranslationTask::Copy => source.clone(),
            TranslationTask::Reverse => source.iter().rev().copied().collect(),
            TranslationTask::Shift => source.iter().map(|&t| (t + 1) % self.vocab).collect(),
        };
        TranslationPair { source, target }
    }

    fn sample_token<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        // Inverse-CDF sampling of an approximate Zipf law: id ∝ u^k maps the
        // uniform draw onto a heavy-tailed rank distribution.
        let u: f64 = rng.gen_range(0.0..1.0);
        let id = (u.powf(3.0) * self.vocab as f64) as usize;
        id.min(self.vocab - 1)
    }

    /// Draws a training batch for the Seq2Seq/Transformer graphs, padded or
    /// truncated to exactly `steps` tokens per sentence.
    ///
    /// Returns `(src, tgt_in, tgt_out)` tensors of `steps·batch` ids.
    /// `time_major` selects `(time, batch)` row order (Seq2Seq) over
    /// `(batch, time)` (Transformer).
    pub fn sample_batch<R: Rng + ?Sized>(
        &self,
        batch: usize,
        steps: usize,
        time_major: bool,
        rng: &mut R,
    ) -> (Tensor, Tensor, Tensor) {
        let mut src = vec![0.0f32; steps * batch];
        let mut tgt_in = vec![0.0f32; steps * batch];
        let mut tgt_out = vec![0.0f32; steps * batch];
        for b in 0..batch {
            let pair = self.sample_pair(rng);
            for t in 0..steps {
                let idx = if time_major { t * batch + b } else { b * steps + t };
                src[idx] = *pair.source.get(t).unwrap_or(&0) as f32;
                // Teacher forcing: the decoder sees the target shifted right
                // (0 acts as the begin-of-sentence token).
                tgt_in[idx] =
                    if t == 0 { 0.0 } else { *pair.target.get(t - 1).unwrap_or(&0) as f32 };
                tgt_out[idx] = *pair.target.get(t).unwrap_or(&0) as f32;
            }
        }
        (Tensor::from_slice(&src), Tensor::from_slice(&tgt_in), Tensor::from_slice(&tgt_out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn iwslt_lengths_match_table3() {
        let ds = TranslationDataset::iwslt_like();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let p = ds.sample_pair(&mut rng);
            assert!((20..=30).contains(&p.source.len()));
            assert_eq!(p.source.len(), p.target.len());
            assert!(p.source.iter().all(|&t| t < 17_188));
        }
    }

    #[test]
    fn tasks_apply_their_mapping() {
        let mut rng = StdRng::seed_from_u64(2);
        let copy = TranslationDataset::tiny(10, 5, TranslationTask::Copy).sample_pair(&mut rng);
        assert_eq!(copy.source, copy.target);
        let rev = TranslationDataset::tiny(10, 5, TranslationTask::Reverse).sample_pair(&mut rng);
        let mut r = rev.source.clone();
        r.reverse();
        assert_eq!(r, rev.target);
        let shift = TranslationDataset::tiny(10, 5, TranslationTask::Shift).sample_pair(&mut rng);
        for (s, t) in shift.source.iter().zip(&shift.target) {
            assert_eq!((s + 1) % 10, *t);
        }
    }

    #[test]
    fn zipf_sampling_prefers_low_ids() {
        let ds = TranslationDataset::iwslt_like();
        let mut rng = StdRng::seed_from_u64(3);
        let mut low = 0;
        let mut total = 0;
        for _ in 0..200 {
            let p = ds.sample_pair(&mut rng);
            for &t in &p.source {
                total += 1;
                if t < 17_188 / 10 {
                    low += 1;
                }
            }
        }
        // A uniform sampler would put ~10 % in the first decile; Zipf-like
        // sampling concentrates far more there.
        assert!(low as f64 / total as f64 > 0.3, "{low}/{total}");
    }

    #[test]
    fn batch_layout_time_vs_batch_major() {
        let ds = TranslationDataset::tiny(9, 3, TranslationTask::Copy);
        let mut rng = StdRng::seed_from_u64(4);
        let (src_tm, _, _) = ds.sample_batch(2, 3, true, &mut rng);
        assert_eq!(src_tm.len(), 6);
        let mut rng = StdRng::seed_from_u64(4);
        let (src_bm, _, _) = ds.sample_batch(2, 3, false, &mut rng);
        // Same draws, different layout: (t0,b0) in time-major equals
        // (b0,t0) in batch-major.
        assert_eq!(src_tm.data()[0], src_bm.data()[0]);
        assert_eq!(src_tm.data()[1], src_bm.data()[3]); // (t0,b1) == (b1,t0)
    }

    #[test]
    fn teacher_forcing_shifts_targets() {
        let ds = TranslationDataset::tiny(9, 4, TranslationTask::Copy);
        let mut rng = StdRng::seed_from_u64(5);
        let (_, tgt_in, tgt_out) = ds.sample_batch(1, 4, false, &mut rng);
        assert_eq!(tgt_in.data()[0], 0.0);
        assert_eq!(tgt_in.data()[1], tgt_out.data()[0]);
        assert_eq!(tgt_in.data()[3], tgt_out.data()[2]);
    }
}

/// A length bucket: sentences are padded to the bucket's width, as Sockeye
/// and NMT do. Bucketing is what separates *compute* length (real tokens)
/// from *memory* length (padded) — the mechanism behind the framework
/// memory-padding profiles in `tbd-frameworks`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucket {
    /// Padded width in tokens.
    pub width: usize,
    /// Sentences assigned to this bucket.
    pub sentences: Vec<TranslationPair>,
}

/// Statistics of a bucketing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketStats {
    /// Real tokens across all sentences.
    pub real_tokens: usize,
    /// Padded tokens actually allocated.
    pub padded_tokens: usize,
}

impl BucketStats {
    /// Memory overhead of padding: `padded / real` (≥ 1).
    pub fn padding_factor(&self) -> f64 {
        if self.real_tokens == 0 {
            1.0
        } else {
            self.padded_tokens as f64 / self.real_tokens as f64
        }
    }
}

/// Assigns sentence pairs to the smallest bucket that fits them
/// (over-length pairs go to the widest bucket, truncated).
///
/// # Panics
///
/// Panics if `widths` is empty.
pub fn bucket_pairs(pairs: Vec<TranslationPair>, widths: &[usize]) -> (Vec<Bucket>, BucketStats) {
    assert!(!widths.is_empty(), "at least one bucket width required");
    let mut widths = widths.to_vec();
    widths.sort_unstable();
    let mut buckets: Vec<Bucket> =
        widths.iter().map(|&w| Bucket { width: w, sentences: Vec::new() }).collect();
    let mut real = 0;
    let mut padded = 0;
    for pair in pairs {
        let len = pair.source.len();
        let slot = buckets.iter().position(|b| b.width >= len).unwrap_or(buckets.len() - 1);
        real += len.min(buckets[slot].width);
        padded += buckets[slot].width;
        buckets[slot].sentences.push(pair);
    }
    (buckets, BucketStats { real_tokens: real, padded_tokens: padded })
}

#[cfg(test)]
mod bucket_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sentences_land_in_smallest_fitting_bucket() {
        let pairs = vec![
            TranslationPair { source: vec![1; 5], target: vec![1; 5] },
            TranslationPair { source: vec![2; 12], target: vec![2; 12] },
            TranslationPair { source: vec![3; 99], target: vec![3; 99] },
        ];
        let (buckets, stats) = bucket_pairs(pairs, &[10, 20, 30]);
        assert_eq!(buckets[0].sentences.len(), 1); // len 5 → width 10
        assert_eq!(buckets[1].sentences.len(), 1); // len 12 → width 20
        assert_eq!(buckets[2].sentences.len(), 1); // len 99 → widest, truncated
        assert_eq!(stats.padded_tokens, 10 + 20 + 30);
        assert_eq!(stats.real_tokens, 5 + 12 + 30);
    }

    #[test]
    fn coarse_buckets_waste_more_memory_than_fine_ones() {
        // The Sockeye-vs-NMT effect: coarser buckets, bigger footprint.
        let ds = TranslationDataset::iwslt_like();
        let mut rng = StdRng::seed_from_u64(11);
        let pairs: Vec<_> = (0..300).map(|_| ds.sample_pair(&mut rng)).collect();
        let (_, fine) = bucket_pairs(pairs.clone(), &[20, 22, 24, 26, 28, 30]);
        let (_, coarse) = bucket_pairs(pairs, &[30, 60]);
        assert!(fine.padding_factor() < coarse.padding_factor());
        assert!(fine.padding_factor() >= 1.0);
        assert!(coarse.padding_factor() > 1.1, "{}", coarse.padding_factor());
    }

    #[test]
    fn padding_factor_of_exact_fit_is_one() {
        let pairs = vec![TranslationPair { source: vec![1; 10], target: vec![1; 10] }];
        let (_, stats) = bucket_pairs(pairs, &[10]);
        assert!((stats.padding_factor() - 1.0).abs() < 1e-12);
    }
}
