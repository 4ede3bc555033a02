//! LSTM sequence-to-sequence translation with Luong attention — the
//! paper's "Seq2Seq" workload, covering both the TensorFlow NMT and the
//! MXNet Sockeye implementations (which differ only in framework profile,
//! not network).
//!
//! Layout convention: token streams are fed in `(time, batch)` order so a
//! time step is a contiguous row block extractable with `slice_rows`. The
//! graph unrolls the recurrence explicitly — per time step two gate GEMMs
//! plus a chain of element-wise kernels, the structure behind the paper's
//! Observations 5 and 7.

use crate::nn::{dot_attention, extent, lstm_params, lstm_step, NetBuilder};
use crate::BuiltModel;
use std::collections::BTreeMap;
use tbd_graph::{Init, NodeId, Result};

/// Encoder output: per-timestep top-layer hiddens plus each layer's final
/// `(h, c)` pair, consumed by the attention and decoder initial state.
type EncoderOut = (Vec<NodeId>, Vec<(NodeId, NodeId)>);

/// Configuration of the Seq2Seq translator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seq2SeqConfig {
    /// Vocabulary size (17 188 for IWSLT15, Table 3).
    pub vocab: usize,
    /// Embedding width.
    pub embed: usize,
    /// LSTM hidden width.
    pub hidden: usize,
    /// Encoder LSTM layers.
    pub enc_layers: usize,
    /// Decoder LSTM layers.
    pub dec_layers: usize,
    /// Unrolled sequence length (IWSLT sentences run 20–30 tokens).
    pub steps: usize,
}

impl Seq2SeqConfig {
    /// Paper-scale configuration: IWSLT15 vocabulary, 512-wide LSTMs,
    /// 5 recurrent layers in total (Table 2).
    pub fn full() -> Self {
        Seq2SeqConfig {
            vocab: 17_188,
            embed: 512,
            hidden: 512,
            enc_layers: 2,
            dec_layers: 3,
            steps: 25,
        }
    }

    /// Miniature for functional tests.
    pub fn tiny() -> Self {
        Seq2SeqConfig { vocab: 12, embed: 8, hidden: 8, enc_layers: 1, dec_layers: 1, steps: 4 }
    }

    /// Total recurrent layers (the paper's Table 2 quotes 5).
    pub fn layers(&self) -> usize {
        self.enc_layers + self.dec_layers
    }

    /// Builds the training graph for `batch` sentence pairs.
    ///
    /// Feeds: `src` and `tgt_in` hold token ids in `(time, batch)` order
    /// (`[steps·batch]`), `tgt_out` holds the shifted target ids.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn build(&self, batch: usize) -> Result<BuiltModel> {
        let (cfg, b, t, h) = (self, batch, self.steps, self.hidden);
        let mut nb = NetBuilder::new();
        let rows = extent(t, b)?;
        let src = nb.g.input("src", [rows]);
        let tgt_in = nb.g.input("tgt_in", [rows]);
        let tgt_out = nb.g.input("tgt_out", [rows]);

        let embed_name = nb.fresh("embed");
        let embedding = nb.g.parameter(
            &embed_name,
            [cfg.vocab, cfg.embed],
            Init::Uniform { lo: -0.08, hi: 0.08 },
        );

        // ---- Encoder ----
        let src_emb = nb.g.embedding(embedding, src)?; // [t*b, embed]
        let (enc_tops, enc_final) = nb.scoped("enc", |nb| -> Result<EncoderOut> {
            let mut layer_inputs: Vec<NodeId> =
                (0..t).map(|step| nb.g.slice_rows(src_emb, step * b, b)).collect::<Result<_>>()?;
            let mut in_dim = cfg.embed;
            let mut finals = Vec::with_capacity(cfg.enc_layers);
            for layer in 0..cfg.enc_layers {
                let p = nb.scoped(&format!("l{layer}"), |nb| lstm_params(nb, in_dim, h));
                let mut hprev = nb.g.input(&format!("enc_h0_{layer}"), [b, h]);
                let mut cprev = nb.g.input(&format!("enc_c0_{layer}"), [b, h]);
                let mut outputs = Vec::with_capacity(t);
                for x in &layer_inputs {
                    let (hn, cn) = lstm_step(nb, &p, *x, hprev, cprev)?;
                    hprev = hn;
                    cprev = cn;
                    outputs.push(hn);
                }
                finals.push((hprev, cprev));
                layer_inputs = outputs;
                in_dim = h;
            }
            Ok((layer_inputs, finals))
        })?;

        // Encoder memory for attention: [t*b, h] → [b, t, h].
        let stacked = nb.g.concat(&enc_tops, 0)?;
        let mem = nb.g.reshape(stacked, [t, b, h])?;
        let mem = nb.g.permute3(mem, [1, 0, 2])?;

        // ---- Decoder with Luong attention ----
        let tgt_emb = nb.g.embedding(embedding, tgt_in)?;
        let dec_tops = nb.scoped("dec", |nb| -> Result<Vec<NodeId>> {
            let mut layer_inputs: Vec<NodeId> =
                (0..t).map(|step| nb.g.slice_rows(tgt_emb, step * b, b)).collect::<Result<_>>()?;
            let mut in_dim = cfg.embed;
            for layer in 0..cfg.dec_layers {
                let p = nb.scoped(&format!("l{layer}"), |nb| lstm_params(nb, in_dim, h));
                // The decoder starts from the encoder's final state (layers
                // beyond the encoder depth start from fresh feeds).
                let (mut hprev, mut cprev) = match enc_final.get(layer) {
                    Some(&(hf, cf)) => (hf, cf),
                    None => (
                        nb.g.input(&format!("dec_h0_{layer}"), [b, h]),
                        nb.g.input(&format!("dec_c0_{layer}"), [b, h]),
                    ),
                };
                let mut outputs = Vec::with_capacity(t);
                for x in &layer_inputs {
                    let (hn, cn) = lstm_step(nb, &p, *x, hprev, cprev)?;
                    hprev = hn;
                    cprev = cn;
                    outputs.push(hn);
                }
                layer_inputs = outputs;
                in_dim = h;
            }
            // Attend on the top layer only (Luong).
            let mut attended = Vec::with_capacity(t);
            for hdec in layer_inputs {
                let ctx = dot_attention(nb, hdec, mem, b, t, h)?;
                let cat = nb.g.concat(&[hdec, ctx], 1)?;
                let comb = nb.dense(cat, 2 * h, h)?;
                attended.push(nb.g.tanh(comb)?);
            }
            Ok(attended)
        })?;

        // Vocabulary projection over all steps at once (one large GEMM, as
        // the frameworks batch it).
        let dec_stack = nb.g.concat(&dec_tops, 0)?; // [t*b, h]
        let logits = nb.scoped("proj", |nb| nb.dense(dec_stack, h, cfg.vocab))?;
        let loss = nb.g.cross_entropy(logits, tgt_out)?;

        let mut inputs = BTreeMap::new();
        inputs.insert("src".to_string(), src);
        inputs.insert("tgt_in".to_string(), tgt_in);
        inputs.insert("tgt_out".to_string(), tgt_out);
        let graph = nb.g.finish();
        // Register the recurrent initial states so trainers can zero-feed
        // them.
        for &id in graph.inputs() {
            if let tbd_graph::Op::Input { name } = &graph.node(id).op {
                inputs.entry(name.clone()).or_insert(id);
            }
        }
        let mut outputs = BTreeMap::new();
        outputs.insert("logits".to_string(), logits);
        outputs.insert("loss".to_string(), loss);
        Ok(BuiltModel { graph, batch, inputs, outputs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbd_graph::Session;
    use tbd_tensor::Tensor;

    fn zero_state_feeds(model: &BuiltModel, b: usize, h: usize) -> Vec<(NodeId, Tensor)> {
        model
            .inputs
            .iter()
            .filter(|(name, _)| name.contains("_h0_") || name.contains("_c0_"))
            .map(|(_, &id)| (id, Tensor::zeros([b, h])))
            .collect()
    }

    #[test]
    fn full_config_matches_table2() {
        let cfg = Seq2SeqConfig::full();
        assert_eq!(cfg.layers(), 5);
        assert_eq!(cfg.vocab, 17_188);
    }

    #[test]
    fn tiny_seq2seq_trains_one_step() {
        let cfg = Seq2SeqConfig::tiny();
        let b = 2;
        let model = cfg.build(b).unwrap();
        let n = cfg.steps * b;
        let ids = |offset: usize| Tensor::from_fn([n], move |i| ((i + offset) % cfg.vocab) as f32);
        let mut feeds = vec![
            (model.input("src").unwrap(), ids(0)),
            (model.input("tgt_in").unwrap(), ids(1)),
            (model.input("tgt_out").unwrap(), ids(2)),
        ];
        feeds.extend(zero_state_feeds(&model, b, cfg.hidden));
        let loss = model.loss();
        let mut session = Session::new(model.graph, 21);
        let run = session.forward(&feeds).unwrap();
        let l = run.scalar(loss).unwrap();
        assert!(l.is_finite() && l > 0.0);
        let grads = session.backward(&run, loss, Tensor::scalar(1.0)).unwrap();
        assert!(grads.global_norm(session.graph()) > 0.0);
    }

    #[test]
    fn full_graph_has_per_timestep_structure() {
        // The full model must unroll into thousands of nodes — the many
        // small kernels the paper blames for poor RNN utilisation.
        let model = Seq2SeqConfig::full().build(4).unwrap();
        assert!(model.graph.len() > 2000, "got {} nodes", model.graph.len());
        // Embedding + LSTM weights dominate: ≈ 2 × 17188 × 512 embedding
        // alone (shared) plus 5 layers of 4·512·(512+512).
        assert!(model.graph.param_count() > 20_000_000);
    }
}
