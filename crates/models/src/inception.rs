//! Inception-v3 (Szegedy et al. 2016), the paper's second image
//! classification workload.
//!
//! The full configuration follows the published architecture: stem,
//! 3× Inception-A (35×35), grid reduction, 4× Inception-B with factorised
//! 7×1/1×7 convolutions (17×17), grid reduction, 2× Inception-C (8×8),
//! global average pooling and a 1000-way classifier — ≈23.8 M parameters
//! and 42 weighted layers along the deepest path (paper Table 2).

use crate::nn::NetBuilder;
use crate::BuiltModel;
use std::collections::BTreeMap;
use tbd_graph::{NodeId, Result};

/// Configuration of the Inception-v3 classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InceptionConfig {
    /// Input image side (299 at paper scale).
    pub image: usize,
    /// Number of output classes.
    pub classes: usize,
    /// Channel divisor applied to every branch (1 at paper scale; larger
    /// values shrink the network for functional tests).
    pub ch_div: usize,
    /// Blocks per Inception stage `(a, b, c)`.
    pub blocks: (usize, usize, usize),
}

impl InceptionConfig {
    /// Paper-scale Inception-v3 (299×299 ImageNet, 1000 classes).
    pub fn full() -> Self {
        InceptionConfig { image: 299, classes: 1000, ch_div: 1, blocks: (3, 4, 2) }
    }

    /// Miniature for functional tests.
    pub fn tiny() -> Self {
        InceptionConfig { image: 79, classes: 6, ch_div: 16, blocks: (1, 1, 1) }
    }

    /// Scales a paper-scale channel count by the configured divisor.
    fn c(&self, n: usize) -> usize {
        (n / self.ch_div).max(2)
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

        // Stem: 299 → 35 spatial, 192 channels (at full scale).
        let d = |n: usize| self.c(n);
        let (mut x, mut c) = nb.scoped("stem", |nb| -> Result<(NodeId, usize)> {
            let x = nb.conv_bn_relu(images, 3, d(32), 3, 2, 0)?; // 149
            let x = nb.conv_bn_relu(x, d(32), d(32), 3, 1, 0)?; // 147
            let x = nb.conv_bn_relu(x, d(32), d(64), 3, 1, 1)?; // 147
            let x = nb.max_pool(x, 3, 2, 0)?; // 73
            let x = nb.conv_bn_relu(x, d(64), d(80), 1, 1, 0)?;
            let x = nb.conv_bn_relu(x, d(80), d(192), 3, 1, 0)?; // 71
            let x = nb.max_pool(x, 3, 2, 0)?; // 35
            Ok((x, d(192)))
        })?;

        // Inception-A blocks at 35×35.
        let pool_c = [32, 64, 64];
        for i in 0..self.blocks.0 {
            let label = format!("mixed_a{i}");
            let pc = d(pool_c[i.min(2)]);
            (x, c) = nb.scoped(&label, |nb| inception_a(nb, x, c, pc, &d))?;
        }
        // Grid reduction A: 35 → 17.
        (x, c) = nb.scoped("reduction_a", |nb| reduction_a(nb, x, c, &d))?;
        // Inception-B blocks at 17×17 with factorised 7×7 branches.
        let c7s = [128, 160, 160, 192];
        for i in 0..self.blocks.1 {
            let label = format!("mixed_b{i}");
            let c7 = d(c7s[i.min(3)]);
            (x, c) = nb.scoped(&label, |nb| inception_b(nb, x, c, c7, &d))?;
        }
        // Grid reduction B: 17 → 8.
        (x, c) = nb.scoped("reduction_b", |nb| reduction_b(nb, x, c, &d))?;
        // Inception-C blocks at 8×8.
        for i in 0..self.blocks.2 {
            let label = format!("mixed_c{i}");
            (x, c) = nb.scoped(&label, |nb| inception_c(nb, x, c, &d))?;
        }

        let pooled = nb.g.global_avg_pool(x)?;
        let dropped = nb.g.dropout(pooled, 0.2)?;
        let logits = nb.scoped("fc", |nb| nb.dense(dropped, c, self.classes))?;
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

/// Inception-A: 1×1, 5×5, double-3×3 and pooled 1×1 branches.
fn inception_a(
    nb: &mut NetBuilder,
    x: NodeId,
    in_c: usize,
    pool_c: usize,
    d: &dyn Fn(usize) -> usize,
) -> Result<(NodeId, usize)> {
    let b1 = nb.conv_bn_relu(x, in_c, d(64), 1, 1, 0)?;
    let b5 = nb.conv_bn_relu(x, in_c, d(48), 1, 1, 0)?;
    let b5 = nb.conv_bn_relu(b5, d(48), d(64), 5, 1, 2)?;
    let b3 = nb.conv_bn_relu(x, in_c, d(64), 1, 1, 0)?;
    let b3 = nb.conv_bn_relu(b3, d(64), d(96), 3, 1, 1)?;
    let b3 = nb.conv_bn_relu(b3, d(96), d(96), 3, 1, 1)?;
    let bp = nb.avg_pool(x, 3, 1, 1)?;
    let bp = nb.conv_bn_relu(bp, in_c, pool_c, 1, 1, 0)?;
    let out = nb.g.concat(&[b1, b5, b3, bp], 1)?;
    Ok((out, d(64) + d(64) + d(96) + pool_c))
}

/// Grid reduction A: strided 3×3, strided double-3×3 and max-pool branches.
fn reduction_a(
    nb: &mut NetBuilder,
    x: NodeId,
    in_c: usize,
    d: &dyn Fn(usize) -> usize,
) -> Result<(NodeId, usize)> {
    let b3 = nb.conv_bn_relu(x, in_c, d(384), 3, 2, 0)?;
    let bd = nb.conv_bn_relu(x, in_c, d(64), 1, 1, 0)?;
    let bd = nb.conv_bn_relu(bd, d(64), d(96), 3, 1, 1)?;
    let bd = nb.conv_bn_relu(bd, d(96), d(96), 3, 2, 0)?;
    let bp = nb.max_pool(x, 3, 2, 0)?;
    let out = nb.g.concat(&[b3, bd, bp], 1)?;
    Ok((out, d(384) + d(96) + in_c))
}

/// Inception-B: factorised 7×7 branches (1×7 then 7×1) at 17×17, with
/// asymmetric padding keeping the grid size.
fn inception_b(
    nb: &mut NetBuilder,
    x: NodeId,
    in_c: usize,
    c7: usize,
    d: &dyn Fn(usize) -> usize,
) -> Result<(NodeId, usize)> {
    let b1 = nb.conv_bn_relu(x, in_c, d(192), 1, 1, 0)?;
    let b7 = nb.conv_bn_relu(x, in_c, c7, 1, 1, 0)?;
    let b7 = nb.conv_rect_bn_relu(b7, c7, c7, (1, 7), 1, (0, 3))?;
    let b7 = nb.conv_rect_bn_relu(b7, c7, d(192), (7, 1), 1, (3, 0))?;
    let bd = nb.conv_bn_relu(x, in_c, c7, 1, 1, 0)?;
    let bd = nb.conv_rect_bn_relu(bd, c7, c7, (7, 1), 1, (3, 0))?;
    let bd = nb.conv_rect_bn_relu(bd, c7, c7, (1, 7), 1, (0, 3))?;
    let bd = nb.conv_rect_bn_relu(bd, c7, c7, (7, 1), 1, (3, 0))?;
    let bd = nb.conv_rect_bn_relu(bd, c7, d(192), (1, 7), 1, (0, 3))?;
    let bp = nb.avg_pool(x, 3, 1, 1)?;
    let bp = nb.conv_bn_relu(bp, in_c, d(192), 1, 1, 0)?;
    let out = nb.g.concat(&[b1, b7, bd, bp], 1)?;
    Ok((out, d(192) * 4))
}

/// Grid reduction B: 17 → 8.
fn reduction_b(
    nb: &mut NetBuilder,
    x: NodeId,
    in_c: usize,
    d: &dyn Fn(usize) -> usize,
) -> Result<(NodeId, usize)> {
    let b3 = nb.conv_bn_relu(x, in_c, d(192), 1, 1, 0)?;
    let b3 = nb.conv_bn_relu(b3, d(192), d(320), 3, 2, 0)?;
    let b7 = nb.conv_bn_relu(x, in_c, d(192), 1, 1, 0)?;
    let b7 = nb.conv_rect_bn_relu(b7, d(192), d(192), (1, 7), 1, (0, 3))?;
    let b7 = nb.conv_rect_bn_relu(b7, d(192), d(192), (7, 1), 1, (3, 0))?;
    let b7 = nb.conv_bn_relu(b7, d(192), d(192), 3, 2, 0)?;
    let bp = nb.max_pool(x, 3, 2, 0)?;
    let out = nb.g.concat(&[b3, b7, bp], 1)?;
    Ok((out, d(320) + d(192) + in_c))
}

/// Inception-C: expanded 1×3/3×1 fan-out branches at 8×8.
fn inception_c(
    nb: &mut NetBuilder,
    x: NodeId,
    in_c: usize,
    d: &dyn Fn(usize) -> usize,
) -> Result<(NodeId, usize)> {
    let b1 = nb.conv_bn_relu(x, in_c, d(320), 1, 1, 0)?;
    let b3 = nb.conv_bn_relu(x, in_c, d(384), 1, 1, 0)?;
    let b3a = nb.conv_rect_bn_relu(b3, d(384), d(384), (1, 3), 1, (0, 1))?;
    let b3b = nb.conv_rect_bn_relu(b3, d(384), d(384), (3, 1), 1, (1, 0))?;
    let bd = nb.conv_bn_relu(x, in_c, d(448), 1, 1, 0)?;
    let bd = nb.conv_bn_relu(bd, d(448), d(384), 3, 1, 1)?;
    let bda = nb.conv_rect_bn_relu(bd, d(384), d(384), (1, 3), 1, (0, 1))?;
    let bdb = nb.conv_rect_bn_relu(bd, d(384), d(384), (3, 1), 1, (1, 0))?;
    let bp = nb.avg_pool(x, 3, 1, 1)?;
    let bp = nb.conv_bn_relu(bp, in_c, d(192), 1, 1, 0)?;
    let out = nb.g.concat(&[b1, b3a, b3b, bda, bdb, bp], 1)?;
    Ok((out, d(320) + d(384) * 4 + d(192)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_graph::Session;
    use tbd_tensor::Tensor;

    #[test]
    fn full_inception_parameter_count() {
        let model = InceptionConfig::full().build(1).unwrap();
        let params = model.graph.param_count();
        // Torchvision inception_v3 (without aux head): ≈23.8 M.
        assert!((21_000_000..26_500_000).contains(&params), "Inception-v3 has {params} parameters");
    }

    #[test]
    fn full_inception_ends_at_2048_channels() {
        let model = InceptionConfig::full().build(2).unwrap();
        let logits = model.output("logits").unwrap();
        assert_eq!(model.graph.node(logits).shape.dims(), &[2, 1000]);
    }

    #[test]
    fn tiny_inception_trains_one_step() {
        let model = InceptionConfig::tiny().build(1).unwrap();
        let images = model.input("images").unwrap();
        let labels = model.input("labels").unwrap();
        let loss = model.loss();
        let mut session = Session::new(model.graph, 3);
        let run = session
            .forward(&[
                (images, Tensor::from_fn([1, 3, 79, 79], |i| ((i % 23) as f32 - 11.0) * 0.04)),
                (labels, Tensor::from_slice(&[2.0])),
            ])
            .unwrap();
        assert!(run.scalar(loss).unwrap().is_finite());
        let grads = session.backward(&run, loss, Tensor::scalar(1.0)).unwrap();
        assert!(grads.global_norm(session.graph()) > 0.0);
    }
}
