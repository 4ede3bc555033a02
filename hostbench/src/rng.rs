//! Seeded input generators. Every input a workload feeds the program is
//! drawn from here, so the same `--seed` gives the same inputs.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// A generator for sub-stream `stream` of `seed`: streams of one seed
    /// are independent of each other.
    pub fn stream(seed: u64, stream: u64) -> SplitMix64 {
        let mut base = SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        SplitMix64(base.next_u64())
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Exponentially distributed with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        // 1 - u lies in (0, 1], so the logarithm is finite.
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Send times (seconds from the window start) of `n` arrivals spread over
/// `span_s` with exponential inter-arrival gaps.
///
/// The `n + 1` gaps are drawn exponential and then scaled to sum to
/// `span_s`: the arrivals of a Poisson process conditioned on `n` events
/// in the window, so every seed offers exactly the same load.
pub fn arrival_schedule(rng: &mut SplitMix64, n: usize, span_s: f64) -> Vec<f64> {
    let gaps: Vec<f64> = (0..=n).map(|_| rng.exponential(1.0)).collect();
    let scale = span_s / gaps.iter().sum::<f64>();
    let mut t = 0.0;
    gaps[..n]
        .iter()
        .map(|g| {
            t += g * scale;
            t
        })
        .collect()
}

/// A class label for each of `n` operations in exact proportions: class
/// `k` gets `round(n * shares[k])` slots (the first class absorbs
/// rounding), in seeded order. Fixing the counts keeps the mix identical
/// across seeds, so seeds vary only which inputs are drawn and when.
pub fn stratified_classes(rng: &mut SplitMix64, n: usize, shares: &[f64]) -> Vec<usize> {
    let mut counts: Vec<usize> = shares
        .iter()
        .map(|s| (n as f64 * s).round() as usize)
        .collect();
    let rest: usize = counts[1..].iter().sum();
    counts[0] = n.saturating_sub(rest);
    let mut classes: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat(k).take(c))
        .collect();
    classes.truncate(n);
    rng.shuffle(&mut classes);
    classes
}
