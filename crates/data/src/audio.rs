//! Synthetic speech data: LibriSpeech-shaped spectrograms with log-normal
//! utterance durations and aligned character labels.

use rand::Rng;
use tbd_tensor::Tensor;

/// A synthetic speech corpus with LibriSpeech statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AudioDataset {
    /// Spectrogram frequency bins (161 for 16 kHz LibriSpeech).
    pub freq_bins: usize,
    /// Median utterance duration in seconds.
    pub median_seconds: f64,
    /// Log-normal sigma of durations.
    pub sigma: f64,
    /// Output alphabet size (29: 26 letters, space, apostrophe, blank).
    pub alphabet: usize,
}

impl AudioDataset {
    /// LibriSpeech-100h-like corpus.
    pub fn librispeech_like() -> Self {
        AudioDataset { freq_bins: 161, median_seconds: 12.0, sigma: 0.35, alphabet: 29 }
    }

    /// Tiny configuration for functional tests.
    pub fn tiny(freq_bins: usize, alphabet: usize) -> Self {
        AudioDataset { freq_bins, median_seconds: 0.16, sigma: 0.0, alphabet }
    }

    /// Draws a log-normal utterance duration in seconds.
    pub fn sample_duration<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.sigma == 0.0 {
            return self.median_seconds;
        }
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.median_seconds * (self.sigma * z).exp()
    }

    /// Draws a spectrogram batch padded to exactly `frames` frames:
    /// `(audio [n, 1, frames, freq_bins], labels [label_frames·n],
    /// total_audio_seconds)`.
    ///
    /// `label_frames` must be the recurrent frame count of the consuming
    /// model (frames / 4 for Deep Speech 2); labels are aligned characters
    /// in `(time, batch)` order. The returned duration total feeds the
    /// paper's duration-based throughput metric for speech (§3.4.3).
    pub fn sample_batch<R: Rng + ?Sized>(
        &self,
        n: usize,
        frames: usize,
        label_frames: usize,
        rng: &mut R,
    ) -> (Tensor, Tensor, f64) {
        let f = self.freq_bins;
        let mut audio = vec![0.0f32; n * frames * f];
        let mut total_seconds = 0.0;
        for img in 0..n {
            let duration = self.sample_duration(rng).min(frames as f64 * 0.010);
            total_seconds += duration;
            let voiced = ((duration / 0.010) as usize).min(frames);
            for t in 0..voiced {
                for b in 0..f {
                    // Formant-ish banded energy plus noise.
                    let formant = ((b as f32 / f as f32) * 12.0 + t as f32 * 0.07).sin();
                    audio[(img * frames + t) * f + b] = 0.5 * formant + rng.gen_range(-0.2..0.2);
                }
            }
        }
        let labels =
            Tensor::from_fn([label_frames * n], |_| rng.gen_range(0..self.alphabet) as f32);
        (Tensor::from_vec(audio, [n, 1, frames, f]).expect("sized buffer"), labels, total_seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn durations_are_lognormal_around_median() {
        let ds = AudioDataset::librispeech_like();
        let mut rng = StdRng::seed_from_u64(1);
        let durations: Vec<f64> = (0..500).map(|_| ds.sample_duration(&mut rng)).collect();
        let mut sorted = durations.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[250];
        assert!((median - 12.0).abs() < 2.0, "median {median}");
        assert!(sorted[0] < sorted[499], "durations must vary");
    }

    #[test]
    fn batch_shapes_and_duration_metric() {
        let ds = AudioDataset::librispeech_like();
        let mut rng = StdRng::seed_from_u64(2);
        let (audio, labels, seconds) = ds.sample_batch(2, 1600, 400, &mut rng);
        assert_eq!(audio.shape().dims(), &[2, 1, 1600, 161]);
        assert_eq!(labels.len(), 800);
        assert!(seconds > 0.0 && seconds <= 2.0 * 16.0);
        assert!(labels.data().iter().all(|&v| v < 29.0));
    }

    #[test]
    fn tiny_dataset_is_deterministic_in_duration() {
        let ds = AudioDataset::tiny(9, 5);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(ds.sample_duration(&mut rng), 0.16);
    }
}
