//! YOLO9000/YOLOv2 (Redmon & Farhadi 2016) — the model the paper names as
//! its next addition to the suite (§3.1.2: "In the future, we plan to add
//! YOLO9000 … it can perform inference faster than Faster R-CNN").
//!
//! Implemented here as that planned extension: the Darknet-19 convolution
//! stack and the single-shot detection head predicting
//! `anchors × (5 + classes)` values per 13×13 grid cell. The multi-part
//! YOLO loss is modelled as objectness cross-entropy plus box/class MSE
//! against dense targets (the same substitution style as Faster R-CNN —
//! see `DESIGN.md`).

use crate::nn::NetBuilder;
use crate::BuiltModel;
use std::collections::BTreeMap;
use tbd_graph::{NodeId, Result};

/// Configuration of the YOLOv2 detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct YoloConfig {
    /// Input image side (416 at paper scale; must be divisible by 32).
    pub image: usize,
    /// Anchor boxes per grid cell (5 for YOLOv2).
    pub anchors: usize,
    /// Object classes (20 for VOC).
    pub classes: usize,
    /// Channel divisor for miniature configurations.
    pub ch_div: usize,
}

impl YoloConfig {
    /// Paper-scale YOLOv2 on VOC (416×416, 5 anchors, 20 classes).
    pub fn full() -> Self {
        YoloConfig { image: 416, anchors: 5, classes: 20, ch_div: 1 }
    }

    /// Miniature for functional tests.
    pub fn tiny() -> Self {
        YoloConfig { image: 64, anchors: 2, classes: 3, ch_div: 16 }
    }

    fn c(&self, n: usize) -> usize {
        (n / self.ch_div).max(2)
    }

    /// Output grid side (input / 32).
    pub fn grid(&self) -> usize {
        self.image / 32
    }

    /// Builds the single-shot detection graph for `batch` images.
    ///
    /// Feeds: `images` `[b, 3, s, s]`, `obj_labels` (one objectness id per
    /// anchor×cell, `[b·anchors·grid²]`) and `box_targets`
    /// (`[b·anchors·grid², 4 + classes]` regression targets).
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn build(&self, batch: usize) -> Result<BuiltModel> {
        let d = |n: usize| self.c(n);
        let g = self.grid();
        let cells = batch * self.anchors * g * g;
        let mut nb = NetBuilder::new();
        let images = nb.g.input("images", [batch, 3, self.image, self.image]);
        let obj_labels = nb.g.input("obj_labels", [cells]);
        let box_targets = nb.g.input("box_targets", [cells, 4 + self.classes]);

        // Darknet-19: conv/pool pyramid to stride 32.
        let x = nb.scoped("darknet", |nb| -> Result<NodeId> {
            let x = nb.conv_bn_relu(images, 3, d(32), 3, 1, 1)?;
            let x = nb.max_pool(x, 2, 2, 0)?;
            let x = nb.conv_bn_relu(x, d(32), d(64), 3, 1, 1)?;
            let x = nb.max_pool(x, 2, 2, 0)?;
            // 128-block: 3×3, 1×1 bottleneck, 3×3.
            let x = nb.conv_bn_relu(x, d(64), d(128), 3, 1, 1)?;
            let x = nb.conv_bn_relu(x, d(128), d(64), 1, 1, 0)?;
            let x = nb.conv_bn_relu(x, d(64), d(128), 3, 1, 1)?;
            let x = nb.max_pool(x, 2, 2, 0)?;
            // 256-block.
            let x = nb.conv_bn_relu(x, d(128), d(256), 3, 1, 1)?;
            let x = nb.conv_bn_relu(x, d(256), d(128), 1, 1, 0)?;
            let x = nb.conv_bn_relu(x, d(128), d(256), 3, 1, 1)?;
            let x = nb.max_pool(x, 2, 2, 0)?;
            // 512-block (5 convs).
            let x = nb.conv_bn_relu(x, d(256), d(512), 3, 1, 1)?;
            let x = nb.conv_bn_relu(x, d(512), d(256), 1, 1, 0)?;
            let x = nb.conv_bn_relu(x, d(256), d(512), 3, 1, 1)?;
            let x = nb.conv_bn_relu(x, d(512), d(256), 1, 1, 0)?;
            let x = nb.conv_bn_relu(x, d(256), d(512), 3, 1, 1)?;
            let x = nb.max_pool(x, 2, 2, 0)?;
            // 1024-block (5 convs).
            let x = nb.conv_bn_relu(x, d(512), d(1024), 3, 1, 1)?;
            let x = nb.conv_bn_relu(x, d(1024), d(512), 1, 1, 0)?;
            let x = nb.conv_bn_relu(x, d(512), d(1024), 3, 1, 1)?;
            let x = nb.conv_bn_relu(x, d(1024), d(512), 1, 1, 0)?;
            nb.conv_bn_relu(x, d(512), d(1024), 3, 1, 1)
        })?;

        // Detection head: two 3×3 convs then the 1×1 predictor.
        let per_anchor = 5 + self.classes; // tx, ty, tw, th, objectness, classes
        let (obj_rows, box_rows) = nb.scoped("head", |nb| -> Result<(NodeId, NodeId)> {
            let h = nb.conv_bn_relu(x, d(1024), d(1024), 3, 1, 1)?;
            let h = nb.conv_bn_relu(h, d(1024), d(1024), 3, 1, 1)?;
            let pred = nb.conv(h, d(1024), self.anchors * per_anchor, 1, 1, 0)?;
            // [b, a·p, g, g] → rows of per-anchor predictions.
            let r3 = nb.g.reshape(pred, [batch * self.anchors, per_anchor, g * g])?;
            let r3 = nb.g.permute3(r3, [0, 2, 1])?; // [b·a, g², p]
            let rows = nb.g.reshape(r3, [cells, per_anchor])?;
            // Objectness uses two pseudo-logits (score, −score) so the
            // fused CE loss applies; boxes+classes regress with MSE.
            let score = nb.g.slice_cols(rows, 4, 1)?;
            let neg = nb.g.scale(score, -1.0)?;
            let obj_rows = nb.g.concat(&[neg, score], 1)?;
            let boxes = nb.g.slice_cols(rows, 0, 4)?;
            let class_scores = nb.g.slice_cols(rows, 5, self.classes)?;
            let box_rows = nb.g.concat(&[boxes, class_scores], 1)?;
            Ok((obj_rows, box_rows))
        })?;

        let obj_loss = nb.g.cross_entropy(obj_rows, obj_labels)?;
        let diff = nb.g.sub(box_rows, box_targets)?;
        let sq = nb.g.mul(diff, diff)?;
        let box_loss = nb.g.mean_all(sq)?;
        let box_loss = nb.g.scale(box_loss, 5.0)?; // YOLO's λ_coord weighting
        let loss = nb.g.add(obj_loss, box_loss)?;

        let graph = nb.g.finish();
        let mut inputs = BTreeMap::new();
        inputs.insert("images".to_string(), images);
        inputs.insert("obj_labels".to_string(), obj_labels);
        inputs.insert("box_targets".to_string(), box_targets);
        let mut outputs = BTreeMap::new();
        outputs.insert("obj_loss".to_string(), obj_loss);
        outputs.insert("box_loss".to_string(), box_loss);
        outputs.insert("loss".to_string(), loss);
        Ok(BuiltModel { graph, batch, inputs, outputs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_graph::Session;
    use tbd_tensor::Tensor;

    #[test]
    fn full_yolo_has_darknet19_structure() {
        let model = YoloConfig::full().build(1).unwrap();
        let convs =
            model.graph.nodes().iter().filter(|n| matches!(n.op, tbd_graph::Op::Conv2d(_))).count();
        // Darknet-19's 18 feature convs (its 19th is the classification
        // head YOLO replaces) plus the 3-conv detection head.
        assert_eq!(convs, 18 + 3);
        // Darknet-19 ≈ 20 M parameters plus head.
        let params = model.graph.param_count();
        assert!((15_000_000..60_000_000).contains(&params), "{params}");
        assert_eq!(YoloConfig::full().grid(), 13);
    }

    #[test]
    fn tiny_yolo_trains_one_step() {
        let cfg = YoloConfig::tiny();
        let b = 1;
        let model = cfg.build(b).unwrap();
        let cells = b * cfg.anchors * cfg.grid() * cfg.grid();
        let loss = model.loss();
        let feeds = vec![
            (
                model.input("images").unwrap(),
                Tensor::from_fn([b, 3, 64, 64], |i| ((i % 23) as f32 - 11.0) * 0.05),
            ),
            (model.input("obj_labels").unwrap(), Tensor::from_fn([cells], |i| (i % 2) as f32)),
            (model.input("box_targets").unwrap(), Tensor::zeros([cells, 4 + cfg.classes])),
        ];
        let mut session = Session::new(model.graph, 23);
        let run = session.forward(&feeds).unwrap();
        assert!(run.scalar(loss).unwrap().is_finite());
        let grads = session.backward(&run, loss, Tensor::scalar(1.0)).unwrap();
        assert!(grads.global_norm(session.graph()) > 0.0);
    }

    #[test]
    fn single_shot_is_cheaper_per_image_than_two_stage() {
        // YOLO's motivation in the paper: faster than Faster R-CNN. Verify
        // the kernel stream carries fewer FLOPs per image.
        use tbd_graph::lower::lower_training_iteration;
        let yolo = YoloConfig::full().build(1).unwrap();
        let rcnn = crate::faster_rcnn::FasterRcnnConfig::full().build().unwrap();
        let flops = |m: &BuiltModel| -> f64 {
            lower_training_iteration(&m.graph, None).iter().map(|k| k.spec.flops).sum()
        };
        assert!(flops(&yolo) < flops(&rcnn), "YOLO must be cheaper per image");
    }
}
