//! Gradient bucketing: when each layer's gradient is ready, and how layers
//! coalesce into transfer buckets (paper §4.5; DDP-style bucketing).
//!
//! The event engine needs, for every parameter gradient, the time in the
//! backward pass at which it becomes available. Two sources provide it:
//!
//! * [`BackwardProfile::from_records`] reads the finish times straight off
//!   the `tbd-gpusim::timeline` kernel stream (the detailed path), using a
//!   per-consumer weight-gradient byte map from
//!   `tbd_graph::lower::weight_grad_bytes_by_consumer`;
//!   [`DataParallelSim::from_iteration`](crate::DataParallelSim::from_iteration)
//!   wires the two together for one simulated iteration.
//! * [`BackwardProfile::analytic`] spreads the gradient volume uniformly
//!   over the backward two-thirds of the iteration (the fallback when only
//!   the aggregate compute time is known).
//!
//! Buckets are then assembled greedily in gradient-ready order, so bucket
//! ready times are monotone in bucket index and transfers can launch
//! strictly in order — the semantics of DDP/NCCL gradient bucketing.

use tbd_graph::NodeId;

/// How per-layer gradients coalesce into transfer buckets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BucketingConfig {
    /// One bucket holding the whole gradient volume, ready when the
    /// backward pass ends. Reproduces the no-overlap closed-form model.
    SingleShot,
    /// One bucket per layer gradient: maximal overlap, maximal per-transfer
    /// latency.
    PerLayer,
    /// Greedy coalescing into buckets of roughly this many bytes (the
    /// DDP default is 25 MB).
    BucketBytes(f64),
}

impl Default for BucketingConfig {
    fn default() -> Self {
        BucketingConfig::BucketBytes(25e6)
    }
}

/// One layer's weight gradient: its size and when the backward pass
/// finishes producing it.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGrad {
    /// Label of the producing layer (graph-op origin, or `"layer"` for the
    /// analytic fallback).
    pub label: &'static str,
    /// Gradient bytes.
    pub bytes: f64,
    /// Backward-pass finish time of this gradient, seconds from the start
    /// of the iteration.
    pub finish_s: f64,
}

/// Per-layer view of one worker's backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct BackwardProfile {
    /// Total per-iteration compute time (forward + backward) of one worker.
    pub compute_iter_s: f64,
    /// Layer gradients in ready order (monotone `finish_s`).
    pub layers: Vec<LayerGrad>,
}

/// Fraction of the iteration spent in the forward pass for the analytic
/// fallback: backward does roughly twice the work of forward (dX and dW per
/// layer), so gradients start appearing a third of the way in.
const ANALYTIC_FORWARD_FRACTION: f64 = 1.0 / 3.0;

impl BackwardProfile {
    /// Analytic fallback: `layers` equal-sized gradients finishing at
    /// uniform intervals over the backward portion of the iteration. The
    /// last gradient finishes *exactly* at `compute_iter_s`, so a
    /// single-shot bucket reproduces the closed-form "communication starts
    /// when compute ends" schedule bit for bit.
    pub fn analytic(compute_iter_s: f64, gradient_bytes: f64, layers: usize) -> Self {
        let n = layers.max(1);
        let per_layer = gradient_bytes / n as f64;
        let backward = (1.0 - ANALYTIC_FORWARD_FRACTION) * compute_iter_s;
        let layers = (0..n)
            .map(|i| LayerGrad {
                label: "layer",
                bytes: per_layer,
                // Anchor on the *end*: finish(last) == compute_iter_s with
                // no rounding residue from the fraction arithmetic.
                finish_s: compute_iter_s - backward * ((n - 1 - i) as f64 / n as f64),
            })
            .collect();
        BackwardProfile { compute_iter_s, layers }
    }

    /// Detailed path: derive per-gradient finish times from a simulated
    /// kernel stream. `grad_bytes_by_consumer` maps a graph node to the
    /// weight-gradient bytes its backward kernel completes (from
    /// `tbd_graph::lower::weight_grad_bytes_by_consumer`); the finish time
    /// of a gradient is the device end time of the *last* backward kernel
    /// of its consumer node. Falls back to [`BackwardProfile::analytic`]
    /// with a single layer when nothing matches.
    pub fn from_records(
        compute_iter_s: f64,
        records: &[tbd_gpusim::KernelRecord],
        grad_bytes_by_consumer: &[(NodeId, u64)],
    ) -> Self {
        use std::collections::BTreeMap;
        let mut finish: BTreeMap<usize, (&'static str, f64)> = BTreeMap::new();
        for r in records {
            if r.phase == tbd_graph::Phase::Backward {
                let slot = finish.entry(r.node.index()).or_insert((r.origin, 0.0));
                slot.1 = slot.1.max(r.end_s);
            }
        }
        let mut layers: Vec<LayerGrad> = grad_bytes_by_consumer
            .iter()
            .filter(|(_, bytes)| *bytes > 0)
            .filter_map(|(node, bytes)| {
                finish.get(&node.index()).map(|&(label, finish_s)| LayerGrad {
                    label,
                    bytes: *bytes as f64,
                    finish_s,
                })
            })
            .collect();
        if layers.is_empty() {
            let total: f64 = grad_bytes_by_consumer.iter().map(|&(_, b)| b as f64).sum();
            return BackwardProfile::analytic(compute_iter_s, total.max(1.0), 1);
        }
        layers.sort_by(|a, b| a.finish_s.total_cmp(&b.finish_s).then(a.label.cmp(b.label)));
        BackwardProfile { compute_iter_s, layers }
    }

    /// Total gradient bytes across all layers.
    pub fn total_bytes(&self) -> f64 {
        self.layers.iter().map(|l| l.bytes).sum()
    }
}

/// One gradient transfer bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// Launch-order index (buckets transfer strictly in this order).
    pub index: usize,
    /// Coalesced gradient bytes.
    pub bytes: f64,
    /// Time the slowest-arriving gradient in the bucket is ready, seconds
    /// from iteration start, *before* any straggler slowdown.
    pub ready_s: f64,
    /// Number of layer gradients coalesced.
    pub layers: usize,
}

/// Assembles buckets from `profile` under `config`, in gradient-ready
/// order. Bucket ready times are monotone non-decreasing in bucket index.
pub fn build_buckets(profile: &BackwardProfile, config: BucketingConfig) -> Vec<Bucket> {
    let mut ordered: Vec<&LayerGrad> = profile.layers.iter().collect();
    ordered.sort_by(|a, b| a.finish_s.total_cmp(&b.finish_s).then(a.label.cmp(b.label)));
    match config {
        BucketingConfig::SingleShot => {
            let bytes = profile.total_bytes();
            if bytes <= 0.0 {
                return Vec::new();
            }
            let ready_s = ordered.last().map_or(profile.compute_iter_s, |l| l.finish_s);
            vec![Bucket { index: 0, bytes, ready_s, layers: ordered.len() }]
        }
        BucketingConfig::PerLayer => ordered
            .iter()
            .enumerate()
            .map(|(index, l)| Bucket { index, bytes: l.bytes, ready_s: l.finish_s, layers: 1 })
            .collect(),
        BucketingConfig::BucketBytes(cap) => {
            let cap = cap.max(1.0);
            let mut buckets = Vec::new();
            let mut bytes = 0.0;
            let mut ready_s = 0.0f64;
            let mut layers = 0usize;
            for l in &ordered {
                bytes += l.bytes;
                ready_s = ready_s.max(l.finish_s);
                layers += 1;
                if bytes >= cap {
                    buckets.push(Bucket { index: buckets.len(), bytes, ready_s, layers });
                    bytes = 0.0;
                    layers = 0;
                }
            }
            if bytes > 0.0 {
                buckets.push(Bucket { index: buckets.len(), bytes, ready_s, layers });
            }
            buckets
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_last_layer_finishes_exactly_at_compute_end() {
        for layers in [1, 3, 50, 161] {
            let p = BackwardProfile::analytic(0.36, 102e6, layers);
            assert_eq!(p.layers.len(), layers);
            let last = p.layers.last().unwrap();
            assert_eq!(last.finish_s.to_bits(), 0.36f64.to_bits(), "layers={layers}");
            assert!((p.total_bytes() - 102e6).abs() / 102e6 < 1e-12);
            assert!(p.layers.windows(2).all(|w| w[0].finish_s <= w[1].finish_s));
        }
    }

    #[test]
    fn single_shot_is_one_bucket_ready_at_backward_end() {
        let p = BackwardProfile::analytic(0.36, 102e6, 50);
        let b = build_buckets(&p, BucketingConfig::SingleShot);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].layers, 50);
        assert_eq!(b[0].ready_s.to_bits(), 0.36f64.to_bits());
    }

    #[test]
    fn byte_cap_coalesces_and_partitions_volume() {
        let p = BackwardProfile::analytic(0.36, 102e6, 161);
        let b = build_buckets(&p, BucketingConfig::BucketBytes(25e6));
        assert!(b.len() >= 4, "102 MB at a 25 MB cap needs >= 4 buckets, got {}", b.len());
        let total: f64 = b.iter().map(|x| x.bytes).sum();
        assert!((total - p.total_bytes()).abs() < 1.0);
        assert!(b.windows(2).all(|w| w[0].ready_s <= w[1].ready_s), "ready order");
        assert!(b.iter().enumerate().all(|(i, x)| x.index == i));
        let layer_total: usize = b.iter().map(|x| x.layers).sum();
        assert_eq!(layer_total, 161);
    }

    #[test]
    fn per_layer_keeps_every_gradient_separate() {
        let p = BackwardProfile::analytic(0.1, 8e6, 7);
        let b = build_buckets(&p, BucketingConfig::PerLayer);
        assert_eq!(b.len(), 7);
        assert!(b.iter().all(|x| x.layers == 1));
    }
}
