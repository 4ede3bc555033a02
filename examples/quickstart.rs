//! Quickstart: train a miniature ResNet for real on synthetic data, then
//! profile the paper-scale ResNet-50 on the simulated Quadro P4000.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use tbd_core::{Framework, GpuSpec, MemoryCategory, ModelKind, Suite};
use tbd_data::ImageDataset;
use tbd_models::resnet::ResNetConfig;
use tbd_train::{top_k_accuracy, Momentum, Trainer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Part 1: real training on a miniature ResNet ----
    println!("== training a tiny ResNet on synthetic images ==");
    let config = ResNetConfig::tiny();
    let model = config.build(8)?;
    let images = model.input("images").expect("declared input");
    let labels = model.input("labels").expect("declared input");
    let logits = model.output("logits").expect("declared output");
    let loss = model.loss();
    let session = tbd_graph::Session::new(model.graph, 42);
    let mut trainer = Trainer::new(session, loss, Momentum::new(0.05, 0.9));
    let dataset = ImageDataset::tiny(config.image, config.classes);
    let mut rng = StdRng::seed_from_u64(7);
    for step in 0..30 {
        let (x, y) = dataset.sample_batch(8, &mut rng);
        let l = trainer.step(&[(images, x), (labels, y)])?;
        if step % 10 == 0 {
            println!("  step {step:>3}: loss {l:.4}");
        }
    }
    println!("  final loss {:.4}", trainer.last_loss());
    // Evaluate Top-1 accuracy on a held-out batch (the paper's §3.3 metric).
    let (eval_x, eval_y) = dataset.sample_batch(8, &mut rng);
    let run = trainer.session_mut().forward(&[(images, eval_x), (labels, eval_y.clone())])?;
    let out = run.value(logits).expect("computed");
    println!("  held-out Top-1 accuracy: {:.0}%", 100.0 * top_k_accuracy(out, &eval_y, 1));

    // ---- Part 2: profile the paper-scale workload ----
    println!("\n== profiling paper-scale ResNet-50 (batch 32) on Quadro P4000 ==");
    let suite = Suite::new(GpuSpec::quadro_p4000());
    for framework in Framework::all() {
        let m = suite.run(ModelKind::ResNet50, framework, 32)?;
        println!(
            "  {:<10} {:6.1} images/s | GPU {:4.1}% | FP32 {:4.1}% | CPU {:4.1}% | mem {:.2} GB \
             (feature maps {:.0}%)",
            framework.name(),
            m.throughput,
            100.0 * m.iteration.gpu_utilization,
            100.0 * m.iteration.fp32_utilization,
            100.0 * m.iteration.cpu_utilization,
            m.memory.total() as f64 / 1e9,
            100.0 * m.memory.feature_map_fraction(),
        );
        let _ = m.memory.peak(MemoryCategory::Workspace);
    }
    Ok(())
}
