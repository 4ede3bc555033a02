//! Deep Speech 2 (Amodei et al. 2016), the paper's speech-recognition
//! workload, in the default MXNet configuration the paper uses: two
//! convolutional layers over the spectrogram followed by five bidirectional
//! vanilla-RNN layers (not LSTM) and a per-frame character classifier.
//!
//! Substitution note (see `DESIGN.md`): the CTC loss is replaced by a
//! per-frame cross-entropy against aligned labels. CTC's forward-backward
//! recursion is a small CPU-side dynamic program in real frameworks; the
//! GPU-side cost structure (conv front-end, per-timestep recurrent GEMMs,
//! vocabulary projection) is preserved exactly.

use crate::nn::{extent, gru_params, gru_step, rnn_params, rnn_step, NetBuilder};
use crate::BuiltModel;
use std::collections::BTreeMap;
use tbd_graph::{NodeId, Result};
use tbd_tensor::ops::Conv2dConfig;

/// Recurrent cell type (the paper notes Deep Speech 2 ships with "regular
/// recurrent layers or GRUs").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecurrentCell {
    /// Vanilla tanh RNN (the MXNet default the paper measures).
    Vanilla,
    /// Gated recurrent unit.
    Gru,
}

/// Configuration of the Deep Speech 2 recogniser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeepSpeechConfig {
    /// Input spectrogram frames (10 ms hop; 1600 ≈ 16 s of audio).
    pub frames: usize,
    /// Spectrogram frequency bins (161 for LibriSpeech).
    pub freq_bins: usize,
    /// Convolution channels.
    pub conv_channels: usize,
    /// Recurrent hidden width (1760 in the MXNet default).
    pub hidden: usize,
    /// Bidirectional recurrent layers (5 in the paper's configuration).
    pub rnn_layers: usize,
    /// Output alphabet (26 letters + space + apostrophe + blank).
    pub alphabet: usize,
    /// Recurrent cell type.
    pub cell: RecurrentCell,
}

impl DeepSpeechConfig {
    /// Paper-scale configuration (MXNet default on LibriSpeech-100h).
    pub fn full() -> Self {
        DeepSpeechConfig {
            frames: 1600,
            freq_bins: 161,
            conv_channels: 32,
            hidden: 1760,
            rnn_layers: 5,
            alphabet: 29,
            cell: RecurrentCell::Vanilla,
        }
    }

    /// Paper-scale configuration with GRU cells (the DS2 paper's stronger
    /// variant; §3.1.4).
    pub fn full_gru() -> Self {
        DeepSpeechConfig { cell: RecurrentCell::Gru, ..DeepSpeechConfig::full() }
    }

    /// Miniature for functional tests.
    pub fn tiny() -> Self {
        DeepSpeechConfig {
            frames: 16,
            freq_bins: 9,
            conv_channels: 2,
            hidden: 6,
            rnn_layers: 2,
            alphabet: 5,
            cell: RecurrentCell::Vanilla,
        }
    }

    /// Recurrent frames after the two stride-2 convolutions.
    pub fn rnn_frames(&self) -> usize {
        self.frames / 4
    }

    /// Audio seconds represented by one sample (10 ms per frame), used for
    /// the paper's duration-based throughput metric (§3.4.3).
    pub fn audio_seconds_per_sample(&self) -> f64 {
        self.frames as f64 * 0.010
    }

    /// Builds the training graph for `batch` utterances.
    ///
    /// Feeds: `audio` is `[batch, 1, frames, freq_bins]`, `labels` holds one
    /// aligned character id per recurrent frame in `(time, batch)` order.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn build(&self, batch: usize) -> Result<BuiltModel> {
        let b = batch;
        let mut nb = NetBuilder::new();
        let audio = nb.g.input("audio", [b, 1, self.frames, self.freq_bins]);

        // Convolution front-end: two stride-2 layers in time and frequency.
        let (conv_out, t_rnn, f_out) =
            nb.scoped("conv", |nb| -> Result<(NodeId, usize, usize)> {
                let c1_name = nb.fresh("conv1");
                let w1 = nb.g.parameter(
                    &c1_name,
                    [self.conv_channels, 1, 11, 5],
                    tbd_graph::Init::He { fan_in: 55 },
                );
                let c1 = nb.g.conv2d(audio, w1, Conv2dConfig::with_pads(2, 5, 2))?;
                let c1 = nb.batch_norm(c1, self.conv_channels)?;
                let c1 = nb.g.relu(c1)?;
                let c2_name = nb.fresh("conv2");
                let w2 = nb.g.parameter(
                    &c2_name,
                    [self.conv_channels, self.conv_channels, 11, 5],
                    tbd_graph::Init::He { fan_in: self.conv_channels * 55 },
                );
                let c2 = nb.g.conv2d(c1, w2, Conv2dConfig::with_pads(2, 5, 2))?;
                let c2 = nb.batch_norm(c2, self.conv_channels)?;
                let c2 = nb.g.relu(c2)?;
                let shape = nb.g.shape(c2).dims().to_vec();
                Ok((c2, shape[2], shape[3]))
            })?;
        let labels = nb.g.input("labels", [extent(t_rnn, b)?]);

        // Rearrange [b, c, t, f] so each time step is a contiguous row
        // block: → [t, b·c·f] rows in (time, batch) order.
        let feat = self.conv_channels * f_out;
        let r3 = nb.g.reshape(conv_out, [extent(b, self.conv_channels)?, t_rnn, f_out])?;
        let tm = nb.g.permute3(r3, [1, 0, 2])?; // [t, b·c, f]
        let rows = nb.g.reshape(tm, [t_rnn, extent(b, feat)?])?;
        let mut step_inputs: Vec<NodeId> = (0..t_rnn)
            .map(|t| -> Result<NodeId> {
                let r = nb.g.slice_rows(rows, t, 1)?;
                nb.g.reshape(r, [b, feat])
            })
            .collect::<Result<_>>()?;

        // Five bidirectional vanilla-RNN layers; directions are summed, as
        // in Deep Speech 2.
        let mut in_dim = feat;
        for layer in 0..self.rnn_layers {
            let cell = self.cell;
            step_inputs = nb.scoped(&format!("rnn{layer}"), |nb| -> Result<Vec<NodeId>> {
                enum CellParams {
                    Vanilla(crate::nn::RnnParams),
                    Gru(crate::nn::GruParams),
                }
                let make = |nb: &mut NetBuilder| match cell {
                    RecurrentCell::Vanilla => {
                        CellParams::Vanilla(rnn_params(nb, in_dim, self.hidden))
                    }
                    RecurrentCell::Gru => CellParams::Gru(gru_params(nb, in_dim, self.hidden)),
                };
                let step = |nb: &mut NetBuilder, p: &CellParams, x: NodeId, h: NodeId| match p {
                    CellParams::Vanilla(p) => rnn_step(nb, p, x, h),
                    CellParams::Gru(p) => gru_step(nb, p, x, h),
                };
                let fwd = make(nb);
                let bwd = make(nb);
                let mut h = nb.g.input(&format!("h0_fwd_{layer}"), [b, self.hidden]);
                let mut fwd_out = Vec::with_capacity(t_rnn);
                for x in &step_inputs.clone() {
                    h = step(nb, &fwd, *x, h)?;
                    fwd_out.push(h);
                }
                let mut h = nb.g.input(&format!("h0_bwd_{layer}"), [b, self.hidden]);
                let mut bwd_out = vec![None; t_rnn];
                for (t, x) in step_inputs.iter().enumerate().rev() {
                    h = step(nb, &bwd, *x, h)?;
                    bwd_out[t] = Some(h);
                }
                step_inputs
                    .iter()
                    .enumerate()
                    .map(|(t, _)| nb.g.add(fwd_out[t], bwd_out[t].expect("filled")))
                    .collect()
            })?;
            in_dim = self.hidden;
        }

        // Character classifier over all frames at once.
        let stacked = nb.g.concat(&step_inputs, 0)?; // [t·b, hidden]
        let logits = nb.scoped("char", |nb| nb.dense(stacked, self.hidden, self.alphabet))?;
        let loss = nb.g.cross_entropy(logits, labels)?;

        let graph = nb.g.finish();
        let mut inputs = BTreeMap::new();
        inputs.insert("audio".to_string(), audio);
        inputs.insert("labels".to_string(), labels);
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

    #[test]
    fn full_config_matches_paper() {
        let cfg = DeepSpeechConfig::full();
        assert_eq!(cfg.rnn_layers, 5);
        assert_eq!(cfg.rnn_frames(), 400);
        assert!((cfg.audio_seconds_per_sample() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_deepspeech_trains_one_step() {
        let cfg = DeepSpeechConfig::tiny();
        let b = 2;
        let model = cfg.build(b).unwrap();
        let t = cfg.rnn_frames();
        let mut feeds = vec![
            (
                model.input("audio").unwrap(),
                Tensor::from_fn([b, 1, cfg.frames, cfg.freq_bins], |i| {
                    ((i % 17) as f32 - 8.0) * 0.1
                }),
            ),
            (
                model.input("labels").unwrap(),
                Tensor::from_fn([t * b], |i| (i % cfg.alphabet) as f32),
            ),
        ];
        for (name, &id) in &model.inputs {
            if name.starts_with("h0_") {
                feeds.push((id, Tensor::zeros([b, cfg.hidden])));
            }
        }
        let loss = model.loss();
        let mut session = Session::new(model.graph, 17);
        let run = session.forward(&feeds).unwrap();
        assert!(run.scalar(loss).unwrap().is_finite());
        let grads = session.backward(&run, loss, Tensor::scalar(1.0)).unwrap();
        assert!(grads.global_norm(session.graph()) > 0.0);
    }

    #[test]
    fn gru_variant_builds_and_has_more_params() {
        let base = DeepSpeechConfig::tiny();
        let gru = DeepSpeechConfig { cell: RecurrentCell::Gru, ..base };
        let m_rnn = base.build(1).unwrap();
        let m_gru = gru.build(1).unwrap();
        // A GRU has 3× the recurrent weights of a vanilla cell.
        assert!(m_gru.graph.param_count() > m_rnn.graph.param_count());
        assert!(m_gru.graph.len() > m_rnn.graph.len(), "more kernels per step");
    }

    #[test]
    fn tiny_gru_deepspeech_trains() {
        let cfg = DeepSpeechConfig { cell: RecurrentCell::Gru, ..DeepSpeechConfig::tiny() };
        let b = 1;
        let model = cfg.build(b).unwrap();
        let t = cfg.rnn_frames();
        let mut feeds = vec![
            (
                model.input("audio").unwrap(),
                tbd_tensor::Tensor::from_fn([b, 1, cfg.frames, cfg.freq_bins], |i| {
                    ((i % 13) as f32 - 6.0) * 0.1
                }),
            ),
            (
                model.input("labels").unwrap(),
                tbd_tensor::Tensor::from_fn([t * b], |i| (i % cfg.alphabet) as f32),
            ),
        ];
        for (name, &id) in &model.inputs {
            if name.starts_with("h0_") {
                feeds.push((id, tbd_tensor::Tensor::zeros([b, cfg.hidden])));
            }
        }
        let loss = model.loss();
        let mut session = tbd_graph::Session::new(model.graph, 19);
        let run = session.forward(&feeds).unwrap();
        assert!(run.scalar(loss).unwrap().is_finite());
        let grads = session.backward(&run, loss, tbd_tensor::Tensor::scalar(1.0)).unwrap();
        assert!(grads.global_norm(session.graph()) > 0.0);
    }

    #[test]
    fn bidirectional_layers_double_the_rnn_params() {
        let cfg = DeepSpeechConfig::tiny();
        let model = cfg.build(1).unwrap();
        let rnn_weights = model
            .graph
            .params()
            .iter()
            .filter(|(id, _)| {
                matches!(&model.graph.node(*(id)).op,
                    tbd_graph::Op::Parameter { name } if name.contains("rnn_w"))
            })
            .count();
        // Per layer: fwd + bwd, each with wx and wh.
        assert_eq!(rnn_weights, cfg.rnn_layers * 2 * 2);
    }
}
