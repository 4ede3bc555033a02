//! Faster R-CNN (Ren et al. 2015), the paper's object-detection workload on
//! Pascal VOC 2007, with a ResNet-101 convolution stack shared between the
//! Region Proposal Network and the detection head (paper Table 2,
//! footnote a). Training processes one image per iteration, exactly as the
//! paper reports ("the number of images processed per iteration is fixed to
//! be just one").
//!
//! Substitution note (`DESIGN.md`): ROI pooling is a data-dependent gather
//! that a static dataflow graph cannot wire, so the detection head consumes
//! a `rois` feed of `[proposals, C, 7, 7]` pooled features (produced by the
//! data generator) and the smooth-L1 box losses are replaced by MSE. The
//! kernel stream — big backbone convolutions, RPN heads, per-proposal
//! conv5 + FC heads — matches the original.

use crate::nn::NetBuilder;
use crate::resnet::{backbone, ResNetConfig};
use crate::BuiltModel;
use std::collections::BTreeMap;
use tbd_graph::{NodeId, Result};

/// Configuration of the Faster R-CNN detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FasterRcnnConfig {
    /// Backbone configuration (ResNet-101 at paper scale).
    pub backbone: ResNetConfig,
    /// Backbone stages feeding the RPN (3 ⇒ stride 16, 1024 channels).
    pub shared_stages: usize,
    /// Input image height (VOC images rescaled to ~600 shorter side).
    pub image_h: usize,
    /// Input image width.
    pub image_w: usize,
    /// Anchors per feature-map cell.
    pub anchors: usize,
    /// Proposals sampled for the detection head per iteration.
    pub proposals: usize,
    /// Object classes including background (21 for VOC).
    pub classes: usize,
}

impl FasterRcnnConfig {
    /// Paper-scale configuration.
    pub fn full() -> Self {
        FasterRcnnConfig {
            backbone: ResNetConfig::resnet101(),
            shared_stages: 3,
            image_h: 600,
            image_w: 800,
            anchors: 9,
            proposals: 128,
            classes: 21,
        }
    }

    /// Miniature for functional tests.
    pub fn tiny() -> Self {
        FasterRcnnConfig {
            backbone: ResNetConfig::tiny(),
            shared_stages: 2,
            image_h: 32,
            image_w: 32,
            anchors: 3,
            proposals: 4,
            classes: 4,
        }
    }

    /// Builds the single-image training graph.
    ///
    /// Feeds: `image` `[1, 3, h, w]`, `rpn_labels` (one objectness id per
    /// anchor), `rpn_box_targets`, `rois` (pooled proposal features),
    /// `roi_labels`, `roi_box_targets`.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn build(&self) -> Result<BuiltModel> {
        let mut nb = NetBuilder::new();
        // The paper resizes VOC images; the backbone expects square
        // configs, so we pass the true rectangle straight through convs.
        let image = nb.g.input("image", [1, 3, self.image_h, self.image_w]);

        // Shared convolution stack (ResNet-101 conv1–conv4).
        let mut bb_cfg = self.backbone.clone();
        bb_cfg.image = self.image_h; // backbone() only reads channel config
        let (features, feat_c) =
            nb.scoped("backbone", |nb| backbone(nb, image, &bb_cfg, self.shared_stages))?;
        let fdims = nb.g.shape(features).dims().to_vec();
        let (fh, fw) = (fdims[2], fdims[3]);
        let cells = fh * fw;

        // ---- Region Proposal Network ----
        let (rpn_cls_loss, rpn_box_loss, rpn_labels, rpn_box_targets) =
            nb.scoped("rpn", |nb| -> Result<(NodeId, NodeId, NodeId, NodeId)> {
                let mid = nb.conv_bn_relu(features, feat_c, 512, 3, 1, 1)?;
                // Objectness: 2 logits per anchor per cell.
                let cls = nb.conv(mid, 512, 2 * self.anchors, 1, 1, 0)?;
                let cls3 = nb.g.reshape(cls, [self.anchors, 2, cells])?;
                let cls3 = nb.g.permute3(cls3, [0, 2, 1])?; // [anchors, cells, 2]
                let cls_rows = nb.g.reshape(cls3, [self.anchors * cells, 2])?;
                let rpn_labels = nb.g.input("rpn_labels", [self.anchors * cells]);
                let cls_loss = nb.g.cross_entropy(cls_rows, rpn_labels)?;
                // Box regression: 4 deltas per anchor per cell (MSE).
                let boxes = nb.conv(mid, 512, 4 * self.anchors, 1, 1, 0)?;
                let box_rows = nb.g.reshape(boxes, [self.anchors * cells, 4])?;
                let rpn_box_targets = nb.g.input("rpn_box_targets", [self.anchors * cells, 4]);
                let diff = nb.g.sub(box_rows, rpn_box_targets)?;
                let sq = nb.g.mul(diff, diff)?;
                let box_loss = nb.g.mean_all(sq)?;
                Ok((cls_loss, box_loss, rpn_labels, rpn_box_targets))
            })?;

        // ---- Detection head over pooled proposals ----
        let rois = nb.g.input("rois", [self.proposals, feat_c, 7, 7]);
        let (roi_cls_loss, roi_box_loss, roi_labels, roi_box_targets, cls_logits) =
            nb.scoped("head", |nb| -> Result<(NodeId, NodeId, NodeId, NodeId, NodeId)> {
                // conv5-style residual processing of each proposal.
                let width = self.backbone.base_width << (self.shared_stages.saturating_sub(1));
                let a = nb.conv_bn_relu(rois, feat_c, width, 1, 1, 0)?;
                let b = nb.conv_bn_relu(a, width, width, 3, 1, 1)?;
                let c = nb.conv_bn_relu(b, width, feat_c * 2, 1, 1, 0)?;
                let pooled = nb.g.global_avg_pool(c)?;
                let cls_logits = nb.dense(pooled, feat_c * 2, self.classes)?;
                let roi_labels = nb.g.input("roi_labels", [self.proposals]);
                let cls_loss = nb.g.cross_entropy(cls_logits, roi_labels)?;
                let box_pred = nb.dense(pooled, feat_c * 2, 4 * self.classes)?;
                let roi_box_targets =
                    nb.g.input("roi_box_targets", [self.proposals, 4 * self.classes]);
                let diff = nb.g.sub(box_pred, roi_box_targets)?;
                let sq = nb.g.mul(diff, diff)?;
                let box_loss = nb.g.mean_all(sq)?;
                Ok((cls_loss, box_loss, roi_labels, roi_box_targets, cls_logits))
            })?;

        let rpn_total = nb.g.add(rpn_cls_loss, rpn_box_loss)?;
        let roi_total = nb.g.add(roi_cls_loss, roi_box_loss)?;
        let loss = nb.g.add(rpn_total, roi_total)?;

        let graph = nb.g.finish();
        let mut inputs = BTreeMap::new();
        inputs.insert("image".to_string(), image);
        inputs.insert("rpn_labels".to_string(), rpn_labels);
        inputs.insert("rpn_box_targets".to_string(), rpn_box_targets);
        inputs.insert("rois".to_string(), rois);
        inputs.insert("roi_labels".to_string(), roi_labels);
        inputs.insert("roi_box_targets".to_string(), roi_box_targets);
        let mut outputs = BTreeMap::new();
        outputs.insert("rpn_cls_loss".to_string(), rpn_cls_loss);
        outputs.insert("roi_cls_loss".to_string(), roi_cls_loss);
        outputs.insert("cls_logits".to_string(), cls_logits);
        outputs.insert("loss".to_string(), loss);
        Ok(BuiltModel { graph, batch: 1, inputs, outputs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_graph::Session;
    use tbd_tensor::Tensor;

    #[test]
    fn full_model_shares_resnet101_stack() {
        let model = FasterRcnnConfig::full().build().unwrap();
        // conv1–conv4 of ResNet-101 alone: > 25 M params.
        assert!(model.graph.param_count() > 20_000_000);
        assert_eq!(model.batch, 1);
    }

    #[test]
    fn tiny_faster_rcnn_trains_one_step() {
        let cfg = FasterRcnnConfig::tiny();
        let model = cfg.build().unwrap();
        // Derive feature-map geometry from the declared input shapes.
        let rpn_labels = model.input("rpn_labels").unwrap();
        let n_anchors = model.graph.node(rpn_labels).shape.len();
        let rois = model.input("rois").unwrap();
        let rois_shape = model.graph.node(rois).shape.dims().to_vec();
        let loss = model.loss();
        let feeds = vec![
            (
                model.input("image").unwrap(),
                Tensor::from_fn([1, 3, 32, 32], |i| ((i % 19) as f32 - 9.0) * 0.05),
            ),
            (model.input("rpn_labels").unwrap(), Tensor::from_fn([n_anchors], |i| (i % 2) as f32)),
            (model.input("rpn_box_targets").unwrap(), Tensor::zeros([n_anchors, 4])),
            (
                model.input("rois").unwrap(),
                Tensor::from_fn(rois_shape.clone(), |i| ((i % 9) as f32) * 0.1),
            ),
            (
                model.input("roi_labels").unwrap(),
                Tensor::from_fn([cfg.proposals], |i| (i % cfg.classes) as f32),
            ),
            (
                model.input("roi_box_targets").unwrap(),
                Tensor::zeros([cfg.proposals, 4 * cfg.classes]),
            ),
        ];
        let mut session = Session::new(model.graph, 4);
        let run = session.forward(&feeds).unwrap();
        assert!(run.scalar(loss).unwrap().is_finite());
        let grads = session.backward(&run, loss, Tensor::scalar(1.0)).unwrap();
        assert!(grads.global_norm(session.graph()) > 0.0);
    }

    #[test]
    fn losses_compose_all_four_terms() {
        let model = FasterRcnnConfig::tiny().build().unwrap();
        assert!(model.output("rpn_cls_loss").is_some());
        assert!(model.output("roi_cls_loss").is_some());
        assert!(model.output("loss").is_some());
    }
}
