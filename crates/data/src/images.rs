//! Synthetic image datasets: ImageNet-shaped classification batches with
//! *learnable* class structure, and VOC-shaped detection samples.

use rand::Rng;
use tbd_tensor::Tensor;

/// A synthetic image-classification dataset.
///
/// Images are `[channels, side, side]` with per-class mean patterns plus
/// noise, so small models can genuinely learn to separate the classes —
/// functional tests rely on the loss decreasing.
///
/// # Examples
///
/// ```
/// use tbd_data::ImageDataset;
/// use rand::SeedableRng;
///
/// let ds = ImageDataset::imagenet_like(8);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let (images, labels) = ds.sample_batch(4, &mut rng);
/// assert_eq!(images.shape().dims(), &[4, 3, 256, 256]);
/// assert_eq!(labels.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageDataset {
    /// Image channels.
    pub channels: usize,
    /// Image side length (square images).
    pub side: usize,
    /// Number of classes.
    pub classes: usize,
}

impl ImageDataset {
    /// ImageNet1K shapes (3×256×256, Table 3) with the requested class
    /// count.
    pub fn imagenet_like(classes: usize) -> Self {
        ImageDataset { channels: 3, side: 256, classes }
    }

    /// Downsampled-ImageNet shapes (3×64×64, the WGAN dataset).
    pub fn downsampled_imagenet() -> Self {
        ImageDataset { channels: 3, side: 64, classes: 1000 }
    }

    /// Tiny configuration for functional tests.
    pub fn tiny(side: usize, classes: usize) -> Self {
        ImageDataset { channels: 3, side, classes }
    }

    /// Draws a mini-batch: `(images [n, c, side, side], labels [n])`.
    ///
    /// Class `k` has a distinctive spatial frequency pattern so that the
    /// classes are separable by a small CNN.
    pub fn sample_batch<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> (Tensor, Tensor) {
        let (c, s) = (self.channels, self.side);
        let mut images = vec![0.0f32; n * c * s * s];
        let mut labels = vec![0.0f32; n];
        for img in 0..n {
            let class = rng.gen_range(0..self.classes);
            labels[img] = class as f32;
            let freq = 1.0 + class as f32 * 0.7;
            let phase = class as f32 * 0.9;
            for ch in 0..c {
                for y in 0..s {
                    for x in 0..s {
                        let signal = ((x as f32 * freq / s as f32 * std::f32::consts::TAU) + phase)
                            .sin()
                            * ((y as f32 * freq / s as f32 * std::f32::consts::TAU) + ch as f32)
                                .cos();
                        let noise: f32 = rng.gen_range(-0.3..0.3);
                        images[((img * c + ch) * s + y) * s + x] = 0.5 * signal + noise;
                    }
                }
            }
        }
        (Tensor::from_vec(images, [n, c, s, s]).expect("sized buffer"), Tensor::from_slice(&labels))
    }
}

/// A synthetic VOC-shaped detection sample: one image plus aligned RPN and
/// ROI training targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionDataset {
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Object classes (21 for VOC with background).
    pub classes: usize,
}

impl DetectionDataset {
    /// Pascal-VOC-like configuration rescaled to the detector's input.
    pub fn voc_like(height: usize, width: usize, classes: usize) -> Self {
        DetectionDataset { height, width, classes }
    }

    /// Draws one image `[1, 3, h, w]`.
    pub fn sample_image<R: Rng + ?Sized>(&self, rng: &mut R) -> Tensor {
        Tensor::from_fn([1, 3, self.height, self.width], |_| rng.gen_range(-1.0..1.0))
    }

    /// Draws binary objectness labels for `anchors` anchor positions with
    /// roughly the paper's positive/negative balance (~25 % positive).
    pub fn sample_rpn_labels<R: Rng + ?Sized>(&self, anchors: usize, rng: &mut R) -> Tensor {
        Tensor::from_fn([anchors], |_| if rng.gen::<f32>() < 0.25 { 1.0 } else { 0.0 })
    }

    /// Draws ROI class labels for `proposals` sampled proposals.
    pub fn sample_roi_labels<R: Rng + ?Sized>(&self, proposals: usize, rng: &mut R) -> Tensor {
        Tensor::from_fn([proposals], |_| rng.gen_range(0..self.classes) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn imagenet_like_batch_has_table3_shape() {
        let ds = ImageDataset::imagenet_like(1000);
        let mut rng = StdRng::seed_from_u64(1);
        let (x, y) = ds.sample_batch(2, &mut rng);
        assert_eq!(x.shape().dims(), &[2, 3, 256, 256]);
        assert_eq!(y.len(), 2);
        assert!(y.data().iter().all(|&v| (0.0..1000.0).contains(&v)));
    }

    #[test]
    fn classes_have_distinct_means() {
        // Same class twice should correlate more than different classes.
        let ds = ImageDataset::tiny(16, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let mut class_means = vec![Vec::new(); 2];
        for _ in 0..20 {
            let (x, y) = ds.sample_batch(1, &mut rng);
            class_means[y.data()[0] as usize].push(x.mean());
        }
        assert!(!class_means[0].is_empty() && !class_means[1].is_empty());
    }

    #[test]
    fn detection_targets_have_requested_shapes() {
        let ds = DetectionDataset::voc_like(600, 800, 21);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(ds.sample_image(&mut rng).shape().dims(), &[1, 3, 600, 800]);
        let rpn = ds.sample_rpn_labels(100, &mut rng);
        assert!(rpn.data().iter().all(|&v| v == 0.0 || v == 1.0));
        let roi = ds.sample_roi_labels(16, &mut rng);
        assert!(roi.data().iter().all(|&v| v < 21.0));
    }

    #[test]
    fn seeded_sampling_is_reproducible() {
        let ds = ImageDataset::tiny(8, 4);
        let a = ds.sample_batch(3, &mut StdRng::seed_from_u64(7));
        let b = ds.sample_batch(3, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }
}
