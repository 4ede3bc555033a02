//! ResNet image classifiers (He et al. 2016), the paper's primary image
//! classification workload (ResNet-50) and the Faster R-CNN convolution
//! stack (ResNet-101).

use crate::nn::NetBuilder;
use crate::BuiltModel;
use std::collections::BTreeMap;
use tbd_graph::{NodeId, Result};

/// Configuration of a bottleneck ResNet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResNetConfig {
    /// Input image side (images are square `[3, image, image]`).
    pub image: usize,
    /// Number of output classes.
    pub classes: usize,
    /// Bottleneck blocks per stage (`[3, 4, 6, 3]` for ResNet-50).
    pub stage_blocks: Vec<usize>,
    /// Base bottleneck width (64 for the paper-scale networks).
    pub base_width: usize,
    /// Stem channels (64 for the paper-scale networks).
    pub stem: usize,
}

impl ResNetConfig {
    /// Paper-scale ResNet-50 (ImageNet, 224×224, 1000 classes, ≈25.6 M
    /// parameters).
    pub fn resnet50() -> Self {
        ResNetConfig {
            image: 224,
            classes: 1000,
            stage_blocks: vec![3, 4, 6, 3],
            base_width: 64,
            stem: 64,
        }
    }

    /// Paper-scale ResNet-101 (used as the Faster R-CNN convolution stack).
    pub fn resnet101() -> Self {
        ResNetConfig {
            image: 224,
            classes: 1000,
            stage_blocks: vec![3, 4, 23, 3],
            base_width: 64,
            stem: 64,
        }
    }

    /// Miniature for functional tests: 16×16 inputs, two stages, 8 classes.
    pub fn tiny() -> Self {
        ResNetConfig { image: 16, classes: 8, stage_blocks: vec![1, 1], base_width: 4, stem: 8 }
    }

    /// Number of weighted layers (convolutions + the final FC), the figure
    /// the paper's Table 2 quotes as "50".
    pub fn weighted_layers(&self) -> usize {
        // Stem conv + 3 convs per block + 1 FC.
        1 + 3 * self.stage_blocks.iter().sum::<usize>() + 1
    }

    /// Builds the classifier graph for a mini-batch of `batch` images.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn build(&self, batch: usize) -> Result<BuiltModel> {
        let mut nb = NetBuilder::new();
        let images = nb.g.input("images", [batch, 3, self.image, self.image]);
        let labels = nb.g.input("labels", [batch]);
        let (features, channels) = backbone(&mut nb, images, self, self.stage_blocks.len())?;
        let pooled = nb.g.global_avg_pool(features)?;
        let logits = nb.scoped("fc", |nb| nb.dense(pooled, channels, self.classes))?;
        let loss = nb.g.cross_entropy(logits, labels)?;
        let graph = nb.g.finish();
        let mut inputs = BTreeMap::new();
        inputs.insert("images".to_string(), images);
        inputs.insert("labels".to_string(), labels);
        let mut outputs = BTreeMap::new();
        outputs.insert("logits".to_string(), logits);
        outputs.insert("loss".to_string(), loss);
        Ok(BuiltModel { graph, batch, inputs, outputs })
    }
}

/// Builds the convolutional trunk (stem + the first `stages` stages) on an
/// existing builder and returns `(features, channels)`.
///
/// Shared between the classifiers and the Faster R-CNN region networks.
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn backbone(
    nb: &mut NetBuilder,
    images: NodeId,
    cfg: &ResNetConfig,
    stages: usize,
) -> Result<(NodeId, usize)> {
    let mut x = nb.scoped("stem", |nb| {
        let c = nb.conv_bn_relu(images, 3, cfg.stem, 7, 2, 3)?;
        nb.max_pool(c, 3, 2, 1)
    })?;
    let mut in_c = cfg.stem;
    for (stage, &blocks) in cfg.stage_blocks.iter().take(stages).enumerate() {
        let width = cfg.base_width << stage;
        let out_c = width * 4;
        let stride = if stage == 0 { 1 } else { 2 };
        for block in 0..blocks {
            let label = format!("stage{stage}_block{block}");
            x = nb.scoped(&label, |nb| {
                bottleneck(nb, x, in_c, width, out_c, if block == 0 { stride } else { 1 })
            })?;
            in_c = out_c;
        }
    }
    Ok((x, in_c))
}

/// One bottleneck residual block: 1×1 reduce → 3×3 → 1×1 expand, with a
/// projection shortcut when the shape changes.
fn bottleneck(
    nb: &mut NetBuilder,
    x: NodeId,
    in_c: usize,
    width: usize,
    out_c: usize,
    stride: usize,
) -> Result<NodeId> {
    let a = nb.conv_bn_relu(x, in_c, width, 1, 1, 0)?;
    let b = nb.conv_bn_relu(a, width, width, 3, stride, 1)?;
    let c = nb.conv(b, width, out_c, 1, 1, 0)?;
    let c = nb.batch_norm(c, out_c)?;
    let shortcut = if in_c != out_c || stride != 1 {
        let s = nb.conv(x, in_c, out_c, 1, stride, 0)?;
        nb.batch_norm(s, out_c)?
    } else {
        x
    };
    let sum = nb.g.add(c, shortcut)?;
    nb.g.relu(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_graph::Session;
    use tbd_tensor::Tensor;

    #[test]
    fn resnet50_has_50_weighted_layers() {
        assert_eq!(ResNetConfig::resnet50().weighted_layers(), 50);
        assert_eq!(ResNetConfig::resnet101().weighted_layers(), 101);
    }

    #[test]
    fn resnet50_parameter_count_matches_reference() {
        let model = ResNetConfig::resnet50().build(1).unwrap();
        let params = model.graph.param_count();
        // Torch reference: 25,557,032 parameters.
        assert!((25_000_000..26_000_000).contains(&params), "ResNet-50 has {params} parameters");
    }

    #[test]
    fn resnet50_output_shapes() {
        let model = ResNetConfig::resnet50().build(2).unwrap();
        let logits = model.output("logits").unwrap();
        assert_eq!(model.graph.node(logits).shape.dims(), &[2, 1000]);
        assert_eq!(model.graph.node(model.loss()).shape.rank(), 0);
    }

    #[test]
    fn tiny_resnet_trains_one_step() {
        let model = ResNetConfig::tiny().build(2).unwrap();
        let images = model.input("images").unwrap();
        let labels = model.input("labels").unwrap();
        let loss = model.loss();
        let mut session = Session::new(model.graph, 11);
        let run = session
            .forward(&[
                (images, Tensor::from_fn([2, 3, 16, 16], |i| ((i % 37) as f32 - 18.0) * 0.05)),
                (labels, Tensor::from_slice(&[1.0, 3.0])),
            ])
            .unwrap();
        let l = run.scalar(loss).unwrap();
        assert!(l.is_finite() && l > 0.0);
        let grads = session.backward(&run, loss, Tensor::scalar(1.0)).unwrap();
        assert!(grads.global_norm(session.graph()) > 0.0);
    }

    #[test]
    fn resnet101_is_deeper_than_resnet50() {
        let r50 = ResNetConfig::resnet50().build(1).unwrap();
        let r101 = ResNetConfig::resnet101().build(1).unwrap();
        assert!(r101.graph.param_count() > r50.graph.param_count());
        assert!(r101.graph.len() > r50.graph.len());
    }
}
