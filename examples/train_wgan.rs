//! Trains the miniature WGAN for real: alternating critic and generator
//! updates with weight clipping, on synthetic 16×16 images — the paper's
//! adversarial-learning domain end to end.
//!
//! ```sh
//! cargo run --release --example train_wgan
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tbd_data::ImageDataset;
use tbd_graph::Session;
use tbd_models::wgan::WganConfig;
use tbd_tensor::Tensor;
use tbd_train::optim::clip_weights;
use tbd_train::{Optimizer, Sgd};

fn main() {
    let cfg = WganConfig::tiny();
    let batch = 4;
    let model = cfg.build(batch).expect("graph builds");
    let noise = model.input("noise").expect("declared");
    let real = model.input("real").expect("declared");
    let d_loss = model.output("d_loss").expect("declared");
    let g_loss = model.output("g_loss").expect("declared");
    let critic_real = model.output("critic_real").expect("declared");
    let critic_fake = model.output("critic_fake").expect("declared");
    let mut session = Session::new(model.graph, 2024);
    let mut critic_opt = Sgd::new(5e-3);
    let mut gen_opt = Sgd::new(2e-4);
    let is_critic = |n: &str| n.starts_with("critic/");
    let is_gen = |n: &str| n.starts_with("gen/");
    let data = ImageDataset::tiny(cfg.image, 2);
    let mut rng = StdRng::seed_from_u64(7);

    println!("WGAN training (tiny, {batch}-image batches): 5 critic steps per generator step");
    for round in 0..8 {
        // --- critic steps (with Lipschitz weight clipping) ---
        let mut gap = 0.0;
        for _ in 0..5 {
            let (reals, _) = data.sample_batch(batch, &mut rng);
            let noise_t = Tensor::from_fn([batch, cfg.latent], |_| rng.gen_range(-1.0..1.0));
            let run =
                session.forward(&[(noise, noise_t), (real, reals)]).expect("forward succeeds");
            gap = run.scalar(critic_real).unwrap_or(0.0) - run.scalar(critic_fake).unwrap_or(0.0);
            let grads =
                session.backward(&run, d_loss, Tensor::scalar(1.0)).expect("backward succeeds");
            critic_opt.step_filtered(&mut session, &grads, &is_critic);
            clip_weights(&mut session, 0.2, &is_critic);
        }
        // --- generator step ---
        let (reals, _) = data.sample_batch(batch, &mut rng);
        let noise_t = Tensor::from_fn([batch, cfg.latent], |_| rng.gen_range(-1.0..1.0));
        let run = session.forward(&[(noise, noise_t), (real, reals)]).expect("forward succeeds");
        let grads = session.backward(&run, g_loss, Tensor::scalar(1.0)).expect("backward succeeds");
        gen_opt.step_filtered(&mut session, &grads, &is_gen);
        println!(
            "  round {round}: Wasserstein gap D(real)-D(fake) = {gap:+.4} \
             (the critic's estimate of distribution distance)"
        );
    }
    println!("\nthe gap widens while the critic trains and narrows after generator updates —");
    println!("the stable-training dynamic WGAN introduced (paper §3.1.5).");
}
