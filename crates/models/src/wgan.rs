//! WGAN with a residual generator/critic pair (Gulrajani et al. 2017), the
//! paper's adversarial-learning workload on 64×64 Downsampled ImageNet.
//!
//! Both networks are "small CNNs containing 4 residual blocks" (paper
//! Table 2 footnote). The graph contains the generator, the critic applied
//! to real images and the critic applied to generated images, so one
//! lowered iteration costs the full adversarial update. Parameters are
//! scoped `gen/…` and `critic/…` so trainers can update them alternately;
//! Lipschitz control uses WGAN weight clipping (see `DESIGN.md` for the
//! gradient-penalty substitution note).

use crate::nn::NetBuilder;
use crate::BuiltModel;
use std::collections::BTreeMap;
use tbd_graph::{NodeId, Result};

/// Configuration of the WGAN pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WganConfig {
    /// Output image side (64 at paper scale; must be `4 · 2^blocks / …`).
    pub image: usize,
    /// Latent noise width.
    pub latent: usize,
    /// Base channel width (64 at paper scale).
    pub dim: usize,
    /// Residual blocks in each network (4 at paper scale).
    pub blocks: usize,
}

impl WganConfig {
    /// Paper-scale configuration (64×64, 4 residual blocks per network).
    pub fn full() -> Self {
        WganConfig { image: 64, latent: 128, dim: 64, blocks: 4 }
    }

    /// Miniature for functional tests (16×16, 2 blocks).
    pub fn tiny() -> Self {
        WganConfig { image: 16, latent: 8, dim: 4, blocks: 2 }
    }

    /// Builds the adversarial pair for `batch` images.
    ///
    /// Feeds: `noise` `[batch, latent]`, `real` `[batch, 3, image, image]`.
    /// Outputs: `fake` (generated images), `critic_real`/`critic_fake`
    /// (scalar means), `d_loss` (critic objective), `g_loss` (generator
    /// objective) and `loss` (alias of `d_loss` for profiling).
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn build(&self, batch: usize) -> Result<BuiltModel> {
        let base = self.image >> self.blocks; // generator starting grid
        assert!(base >= 2, "image {} too small for {} blocks", self.image, self.blocks);
        let top_c = self.dim << (self.blocks - 1).min(3);
        let mut nb = NetBuilder::new();
        let noise = nb.g.input("noise", [batch, self.latent]);
        let real = nb.g.input("real", [batch, 3, self.image, self.image]);

        // ---- Generator ----
        let fake = nb.scoped("gen", |nb| -> Result<NodeId> {
            let seed = nb.dense(noise, self.latent, top_c * base * base)?;
            let mut x = nb.g.reshape(seed, [batch, top_c, base, base])?;
            let mut c = top_c;
            for i in 0..self.blocks {
                let out_c = (c / 2).max(self.dim);
                x = nb.scoped(&format!("up{i}"), |nb| up_block(nb, x, c, out_c))?;
                c = out_c;
            }
            let x = nb.batch_norm(x, c)?;
            let x = nb.g.relu(x)?;
            let x = nb.conv(x, c, 3, 3, 1, 1)?;
            nb.g.tanh(x)
        })?;

        // ---- Critic (applied twice with shared parameters is not
        // expressible in a pure dataflow graph without weight sharing, so
        // the critic helper takes the parameter set it should reuse) ----
        let critic = nb.scoped("critic", |nb| CriticParams::create(nb, self))?;
        let score_real = critic.apply(&mut nb, real, batch, self)?;
        let score_fake = critic.apply(&mut nb, fake, batch, self)?;

        let mean_real = nb.g.mean_all(score_real)?;
        let mean_fake = nb.g.mean_all(score_fake)?;
        // Critic maximises E[D(real)] − E[D(fake)] ⇒ minimises the negation.
        let d_loss = nb.g.sub(mean_fake, mean_real)?;
        // Generator minimises −E[D(fake)].
        let g_loss = nb.g.scale(mean_fake, -1.0)?;

        let graph = nb.g.finish();
        let mut inputs = BTreeMap::new();
        inputs.insert("noise".to_string(), noise);
        inputs.insert("real".to_string(), real);
        let mut outputs = BTreeMap::new();
        outputs.insert("fake".to_string(), fake);
        outputs.insert("critic_real".to_string(), mean_real);
        outputs.insert("critic_fake".to_string(), mean_fake);
        outputs.insert("d_loss".to_string(), d_loss);
        outputs.insert("g_loss".to_string(), g_loss);
        outputs.insert("loss".to_string(), d_loss);
        Ok(BuiltModel { graph, batch, inputs, outputs })
    }
}

/// Generator residual up-block: BN → ReLU → upsample → conv, twice, with an
/// upsampled 1×1 shortcut.
fn up_block(nb: &mut NetBuilder, x: NodeId, in_c: usize, out_c: usize) -> Result<NodeId> {
    let a = nb.batch_norm(x, in_c)?;
    let a = nb.g.relu(a)?;
    let a = nb.g.upsample2x(a)?;
    let a = nb.conv(a, in_c, out_c, 3, 1, 1)?;
    let a = nb.batch_norm(a, out_c)?;
    let a = nb.g.relu(a)?;
    let a = nb.conv(a, out_c, out_c, 3, 1, 1)?;
    let s = nb.g.upsample2x(x)?;
    let s = nb.conv(s, in_c, out_c, 1, 1, 0)?;
    nb.g.add(a, s)
}

/// The critic's parameters, created once and applied to both real and fake
/// images (weight sharing).
#[derive(Debug)]
struct CriticParams {
    stem: NodeId,
    blocks: Vec<[NodeId; 3]>, // conv1, conv2, shortcut
    head_w: NodeId,
    head_b: NodeId,
}

impl CriticParams {
    fn create(nb: &mut NetBuilder, cfg: &WganConfig) -> Result<CriticParams> {
        let stem_name = nb.fresh("stem");
        let stem =
            nb.g.parameter(&stem_name, [cfg.dim, 3, 3, 3], tbd_graph::Init::He { fan_in: 27 });
        let mut blocks = Vec::with_capacity(cfg.blocks);
        let mut c = cfg.dim;
        for i in 0..cfg.blocks {
            let out_c = (c * 2).min(cfg.dim * 8);
            let n1 = nb.fresh(&format!("b{i}_conv1"));
            let conv1 =
                nb.g.parameter(&n1, [out_c, c, 3, 3], tbd_graph::Init::He { fan_in: c * 9 });
            let n2 = nb.fresh(&format!("b{i}_conv2"));
            let conv2 = nb.g.parameter(
                &n2,
                [out_c, out_c, 3, 3],
                tbd_graph::Init::He { fan_in: out_c * 9 },
            );
            let n3 = nb.fresh(&format!("b{i}_short"));
            let short = nb.g.parameter(&n3, [out_c, c, 1, 1], tbd_graph::Init::He { fan_in: c });
            blocks.push([conv1, conv2, short]);
            c = out_c;
        }
        let hw_name = nb.fresh("head_w");
        let head_w =
            nb.g.parameter(&hw_name, [c, 1], tbd_graph::Init::Xavier { fan_in: c, fan_out: 1 });
        let hb_name = nb.fresh("head_b");
        let head_b = nb.g.parameter(&hb_name, [1], tbd_graph::Init::Zeros);
        Ok(CriticParams { stem, blocks, head_w, head_b })
    }

    fn apply(
        &self,
        nb: &mut NetBuilder,
        images: NodeId,
        batch: usize,
        cfg: &WganConfig,
    ) -> Result<NodeId> {
        use tbd_tensor::ops::Conv2dConfig;
        let mut x = nb.g.conv2d(images, self.stem, Conv2dConfig::new(1, 1))?;
        x = nb.g.leaky_relu(x, 0.2)?;
        for convs in &self.blocks {
            let a = nb.g.conv2d(x, convs[0], Conv2dConfig::new(1, 1))?;
            let a = nb.g.leaky_relu(a, 0.2)?;
            let a = nb.g.conv2d(a, convs[1], Conv2dConfig::new(1, 1))?;
            let a = nb.g.leaky_relu(a, 0.2)?;
            let a = nb.avg_pool(a, 2, 2, 0)?;
            let s = nb.g.conv2d(x, convs[2], Conv2dConfig::new(1, 0))?;
            let s = nb.avg_pool(s, 2, 2, 0)?;
            x = nb.g.add(a, s)?;
        }
        let pooled = nb.g.global_avg_pool(x)?;
        let score = nb.g.matmul(pooled, self.head_w)?;
        let _ = batch;
        let _ = cfg;
        nb.g.add_bias(score, self.head_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_graph::{Op, Session};
    use tbd_tensor::Tensor;

    #[test]
    fn full_wgan_has_4_plus_4_blocks() {
        let model = WganConfig::full().build(2).unwrap();
        let fake = model.output("fake").unwrap();
        assert_eq!(model.graph.node(fake).shape.dims(), &[2, 3, 64, 64]);
        // Generator and critic parameters are disjoint, scoped sets.
        let gen = scoped_params(&model, "gen/");
        let critic = scoped_params(&model, "critic/");
        assert!(gen > 10 && critic > 10);
    }

    fn scoped_params(model: &BuiltModel, prefix: &str) -> usize {
        model
            .graph
            .params()
            .iter()
            .filter(|(id, _)| {
                matches!(&model.graph.node(*(id)).op, Op::Parameter { name } if name.starts_with(prefix))
            })
            .count()
    }

    #[test]
    fn critic_shares_weights_between_real_and_fake() {
        // Applying the critic twice must not duplicate parameters.
        let m1 = WganConfig::tiny().build(1).unwrap();
        let critic_params = scoped_params(&m1, "critic/");
        // stem + 2 blocks × 3 convs + head (w, b) = 1 + 6 + 2.
        assert_eq!(critic_params, 9);
    }

    #[test]
    fn tiny_wgan_runs_and_backprops_both_losses() {
        let cfg = WganConfig::tiny();
        let model = cfg.build(2).unwrap();
        let noise = model.input("noise").unwrap();
        let real = model.input("real").unwrap();
        let d_loss = model.output("d_loss").unwrap();
        let g_loss = model.output("g_loss").unwrap();
        let mut session = Session::new(model.graph, 8);
        let run = session
            .forward(&[
                (noise, Tensor::from_fn([2, 8], |i| ((i % 7) as f32 - 3.0) * 0.2)),
                (real, Tensor::from_fn([2, 3, 16, 16], |i| ((i % 11) as f32 - 5.0) * 0.1)),
            ])
            .unwrap();
        assert!(run.scalar(d_loss).unwrap().is_finite());
        let dg = session.backward(&run, d_loss, Tensor::scalar(1.0)).unwrap();
        let gg = session.backward(&run, g_loss, Tensor::scalar(1.0)).unwrap();
        assert!(dg.global_norm(session.graph()) > 0.0);
        assert!(gg.global_norm(session.graph()) > 0.0);
    }
}
