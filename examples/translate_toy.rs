//! Trains the tiny Transformer on a learnable toy translation task and
//! reports BLEU before and after — the machine-translation workload's full
//! train/evaluate loop at laptop scale.
//!
//! ```sh
//! cargo run --release --example translate_toy
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use tbd_data::text::{TranslationDataset, TranslationTask};
use tbd_graph::Session;
use tbd_models::transformer::TransformerConfig;
use tbd_tensor::Tensor;
use tbd_train::{bleu, Adam, Trainer};

fn greedy_decode(
    session: &mut Session,
    model_inputs: (tbd_graph::NodeId, tbd_graph::NodeId, tbd_graph::NodeId),
    logits: tbd_graph::NodeId,
    src: &Tensor,
    batch: usize,
    steps: usize,
    vocab: usize,
) -> Vec<Vec<usize>> {
    // Teacher-forced greedy read-out: feed the gold prefix and take the
    // argmax at every position (adequate for a toy task demo).
    let (src_in, tgt_in, tgt_out) = model_inputs;
    session.training = false;
    let run = session
        .forward(&[
            (src_in, src.clone()),
            (tgt_in, Tensor::zeros([batch * steps])),
            (tgt_out, Tensor::zeros([batch * steps])),
        ])
        .expect("forward succeeds");
    session.training = true;
    let out = run.value(logits).expect("computed");
    let mut sentences = Vec::with_capacity(batch);
    for b in 0..batch {
        let mut sent = Vec::with_capacity(steps);
        for t in 0..steps {
            let row = b * steps + t;
            let scores = &out.data()[row * vocab..(row + 1) * vocab];
            let mut best = 0;
            for (i, &v) in scores.iter().enumerate() {
                if v > scores[best] {
                    best = i;
                }
            }
            sent.push(best);
        }
        sentences.push(sent);
    }
    sentences
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = TransformerConfig::tiny();
    let batch = 8;
    let dataset = TranslationDataset::tiny(cfg.vocab, cfg.steps, TranslationTask::Copy);
    let model = cfg.build(batch)?;
    let src = model.input("src").expect("declared");
    let tgt_in = model.input("tgt_in").expect("declared");
    let tgt_out = model.input("tgt_out").expect("declared");
    let logits = model.output("logits").expect("declared");
    let loss = model.loss();
    let session = Session::new(model.graph, 11);
    let mut trainer = Trainer::new(session, loss, Adam::new(0.005));
    let mut rng = StdRng::seed_from_u64(5);

    // Held-out evaluation batch.
    let (eval_src, _, eval_tgt) = dataset.sample_batch(batch, cfg.steps, false, &mut rng);
    let references: Vec<Vec<usize>> = (0..batch)
        .map(|b| (0..cfg.steps).map(|t| eval_tgt.data()[b * cfg.steps + t] as usize).collect())
        .collect();

    let before = greedy_decode(
        trainer.session_mut(),
        (src, tgt_in, tgt_out),
        logits,
        &eval_src,
        batch,
        cfg.steps,
        cfg.vocab,
    );
    let bleu_before = bleu(&before, &references);

    println!("training the tiny Transformer on the copy task...");
    for step in 0..300 {
        let (s, ti, to) = dataset.sample_batch(batch, cfg.steps, false, &mut rng);
        let l = trainer.step(&[(src, s), (tgt_in, ti), (tgt_out, to)])?;
        if step % 75 == 0 {
            println!("  step {step:>3}: loss {l:.4}");
        }
    }

    let after = greedy_decode(
        trainer.session_mut(),
        (src, tgt_in, tgt_out),
        logits,
        &eval_src,
        batch,
        cfg.steps,
        cfg.vocab,
    );
    let bleu_after = bleu(&after, &references);
    println!("BLEU before training: {bleu_before:5.1}");
    println!("BLEU after  training: {bleu_after:5.1}");
    Ok(())
}
