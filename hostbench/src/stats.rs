//! Order statistics for timing samples.

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `values` ascending (NaN last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The `p`-th percentile (0–100) of an ascending slice, interpolating
/// linearly between the two closest ranks.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside 0–100.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of an ascending slice.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// Arithmetic mean; `0.0` for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples of `n` ranked above the `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - (p / 100.0 * (n - 1) as f64).floor() as usize
}

/// A note naming a fixed tail percentile's sample count, flagged when it
/// leaves fewer than [`MIN_BEYOND`] samples beyond it.
pub fn tail_note(label: &str, n: usize, p: f64) -> String {
    let beyond = samples_beyond(n, p);
    let flag = if beyond < MIN_BEYOND {
        " (TOO FEW: fewer than 10 beyond)"
    } else {
        ""
    };
    format!("{label}: p{p} of {n} samples, {beyond} beyond{flag}")
}

/// Which samples of a window to keep: within each group of equal-work
/// samples (`group[i]` names the group of sample `i`), the fastest
/// `share` of them by `time`.
///
/// This adapts the paper's §3.4 sampling (exclude warm-up, then sample a
/// stable window) to a shared host, where co-tenants slow the whole
/// machine for stretches of a second or more: a disturbance only ever
/// lengthens a sample, so the fastest samples are the undisturbed ones,
/// while a real slowdown of the program lengthens every sample alike.
///
/// # Panics
///
/// Panics when `time` and `group` differ in length or `share` is not in
/// `(0, 1]`.
pub fn keep_fastest(time: &[f64], group: &[usize], share: f64) -> Vec<bool> {
    assert_eq!(time.len(), group.len(), "one group per sample");
    assert!(share > 0.0 && share <= 1.0, "share {share} out of range");
    let mut kept = vec![false; time.len()];
    let mut groups: Vec<usize> = group.to_vec();
    groups.sort_unstable();
    groups.dedup();
    for g in groups {
        let mut members: Vec<usize> = (0..time.len()).filter(|&i| group[i] == g).collect();
        members.sort_by(|&a, &b| time[a].total_cmp(&time[b]).then(a.cmp(&b)));
        let keep = ((members.len() as f64 * share).ceil() as usize).max(1);
        for &i in members.iter().take(keep) {
            kept[i] = true;
        }
    }
    kept
}
