//! Prototypical-network baseline (paper §4.1.2).
//!
//! Following Fritzler et al., sequence labeling is reduced to *per-token*
//! classification: BiGRU token features are compared against class
//! prototypes — the mean support feature of each BIO tag — and a token is
//! assigned the nearest prototype by squared Euclidean distance. There is
//! no CRF and no sequence structure, which is exactly the weakness the
//! paper's comparison exposes.

use fewner_tensor::{Exec, Infer, ParamStore, Var};
use fewner_text::TagSet;
use fewner_util::{Error, Result, Rng};

use crate::backbone::Backbone;
use crate::prep::LabeledSentence;

/// Distance used for unsupported classes (no support tokens): effectively
/// removes the class from the softmax.
const MISSING_CLASS_LOGIT: f32 = -1.0e4;

/// Prototypical network over a (conditioning-free) backbone encoder.
pub struct ProtoNet {
    /// The shared encoder (built with `Conditioning::None`).
    pub encoder: Backbone,
}

impl ProtoNet {
    /// Wraps an encoder backbone.
    pub fn new(encoder: Backbone) -> ProtoNet {
        ProtoNet { encoder }
    }

    /// Computes per-class prototypes from support sentences.
    ///
    /// Returns one `[1, 2H]` prototype per tag class (`None` when the class
    /// has no support tokens).
    fn prototypes<E: Exec>(
        &self,
        g: &E,
        theta: &ParamStore,
        support: &[LabeledSentence],
        tags: &TagSet,
        rng: &mut Rng,
    ) -> Vec<Option<Var>> {
        let n_classes = tags.len();
        // Gather (sentence hidden, token index) per class.
        let mut class_rows: Vec<Vec<Var>> = vec![Vec::new(); n_classes];
        for (sent, gold) in support {
            let h = self.encoder.hidden(g, theta, None, sent, rng);
            for (t, &class) in gold.iter().enumerate() {
                class_rows[class].push(g.row(h, t));
            }
        }
        class_rows
            .into_iter()
            .map(|rows| {
                if rows.is_empty() {
                    None
                } else {
                    Some(g.row_mean(g.concat_rows(&rows)))
                }
            })
            .collect()
    }

    /// Negative-distance logits `[L, 2N+1]` for one query sentence.
    ///
    /// Distances are normalised by the feature dimensionality so the
    /// softmax temperature is independent of the encoder width.
    fn logits<E: Exec>(&self, g: &E, h: Var, prototypes: &[Option<Var>]) -> Var {
        let dim = g.shape(h).1 as f32;
        let cols: Vec<Var> = prototypes
            .iter()
            .map(|proto| match proto {
                Some(p) => {
                    let diff = g.sub(h, *p);
                    g.mul_scalar(g.row_sum(g.mul(diff, diff)), -1.0 / dim)
                }
                None => {
                    let len = g.shape(h).0;
                    g.constant(fewner_tensor::Array::full(len, 1, MISSING_CLASS_LOGIT))
                }
            })
            .collect();
        g.concat_cols(&cols)
    }

    /// Episode loss: mean token cross-entropy on the query set given the
    /// support-set prototypes.
    #[allow(clippy::too_many_arguments)]
    pub fn episode_loss<E: Exec>(
        &self,
        g: &E,
        theta: &ParamStore,
        support: &[LabeledSentence],
        query: &[LabeledSentence],
        tags: &TagSet,
        rng: &mut Rng,
    ) -> Result<Var> {
        if support.is_empty() || query.is_empty() {
            return Err(Error::InvalidConfig("empty episode".into()));
        }
        let protos = self.prototypes(g, theta, support, tags, rng);
        let mut losses = Vec::new();
        for (sent, gold) in query {
            // Tokens whose gold class has no support prototype cannot be
            // learnt from this episode; they are excluded from the loss
            // (they still count against the model at evaluation time).
            let coords: Vec<(usize, usize)> = gold
                .iter()
                .enumerate()
                .filter(|(_, &c)| protos[c].is_some())
                .map(|(t, &c)| (t, c))
                .collect();
            if coords.is_empty() {
                continue;
            }
            let h = self.encoder.hidden(g, theta, None, sent, rng);
            let logp = g.log_softmax_rows(self.logits(g, h, &protos));
            let nll = g.mul_scalar(g.gather_sum(logp, &coords), -1.0 / coords.len() as f32);
            losses.push(nll);
        }
        if losses.is_empty() {
            return Err(Error::InvalidConfig(
                "no query token has a supported gold class".into(),
            ));
        }
        let stacked = g.concat_cols(&losses);
        Ok(g.mean_all(stacked))
    }

    /// Predicts tag indices for every query sentence of one task on the
    /// gradient-free [`Infer`] executor.
    ///
    /// The support prototypes are encoded **once** per task; per-query
    /// scratch buffers are recycled between sentences.
    pub fn predict_task(
        &self,
        theta: &ParamStore,
        support: &[LabeledSentence],
        queries: &[LabeledSentence],
        tags: &TagSet,
    ) -> Vec<Vec<usize>> {
        let ex = Infer::new();
        let mut rng = Rng::new(0); // inference mode: dropout inert, rng unused
        let protos = self.prototypes(&ex, theta, support, tags, &mut rng);
        let mark = ex.mark();
        queries
            .iter()
            .map(|query| {
                let h = self.encoder.hidden(&ex, theta, None, &query.0, &mut rng);
                let logits = ex.value(self.logits(&ex, h, &protos));
                let pred = (0..logits.rows()).map(|r| logits.argmax_row(r)).collect();
                ex.reset_to(mark);
                pred
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::{BackboneConfig, Conditioning, HeadKind};
    use crate::encoding::TokenEncoder;
    use crate::prep::encode_task;
    use fewner_corpus::{split_types, DatasetProfile};
    use fewner_episode::EpisodeSampler;
    use fewner_tensor::Graph;
    use fewner_text::embed::EmbeddingSpec;

    fn setup() -> (
        ProtoNet,
        ParamStore,
        Vec<LabeledSentence>,
        Vec<LabeledSentence>,
        TagSet,
    ) {
        let d = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
        let split = split_types(&d, (8, 3, 5), 1).unwrap();
        let sampler = EpisodeSampler::new(&split.train, 3, 1, 4).unwrap();
        let task = sampler.sample(&mut Rng::new(4)).unwrap();
        let enc = TokenEncoder::build(
            &[&d],
            &EmbeddingSpec {
                dim: 20,
                ..EmbeddingSpec::default()
            },
            4,
        );
        let mut rng = Rng::new(8);
        let mut store = ParamStore::new();
        let cfg = BackboneConfig {
            word_dim: 20,
            char_dim: 8,
            char_filters: 6,
            char_widths: vec![2, 3],
            hidden: 10,
            phi_dim: 0,
            slot_ctx_dim: 0,
            conditioning: Conditioning::None,
            dropout: 0.0,
            use_char_cnn: true,
            encoder: crate::backbone::EncoderKind::BiGru,
            head: HeadKind::Dense { n_ways: 3 },
        };
        let bb = Backbone::new(cfg, &enc, &mut store, &mut rng).unwrap();
        let (support, query) = encode_task(&enc, &task);
        (ProtoNet::new(bb), store, support, query, task.tag_set())
    }

    #[test]
    fn episode_loss_is_finite_and_positive() {
        let (pn, store, support, query, tags) = setup();
        let g = Graph::new();
        let mut rng = Rng::new(1);
        let loss = pn
            .episode_loss(&g, &store, &support, &query, &tags, &mut rng)
            .unwrap();
        let v = g.value(loss).scalar_value();
        assert!(v.is_finite() && v > 0.0, "loss {v}");
        // Gradients flow to the encoder.
        let grads = g.backward(loss).unwrap().for_store(&store);
        assert!((0..store.len()).any(|i| grads.get_at(i).is_some()));
    }

    #[test]
    fn prediction_has_sentence_length_and_valid_classes() {
        let (pn, store, support, query, tags) = setup();
        let pred = pn
            .predict_task(&store, &support, &query[..1], &tags)
            .remove(0);
        assert_eq!(pred.len(), query[0].0.len());
        assert!(pred.iter().all(|&c| c < tags.len()));
    }

    #[test]
    fn training_on_one_episode_reduces_its_loss() {
        let (pn, mut store, support, query, tags) = setup();
        let mut opt = fewner_tensor::Adam::new(0.01);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..25 {
            let g = Graph::new();
            let mut rng = Rng::new(2);
            let loss = pn
                .episode_loss(&g, &store, &support, &query, &tags, &mut rng)
                .unwrap();
            last = g.value(loss).scalar_value();
            first.get_or_insert(last);
            let grads = g.backward(loss).unwrap().for_store(&store);
            opt.step(&mut store, &grads).unwrap();
        }
        assert!(last < first.unwrap(), "{:?} -> {last}", first.unwrap());
    }

    #[test]
    fn empty_episode_is_an_error() {
        let (pn, store, _, query, tags) = setup();
        let g = Graph::new();
        let mut rng = Rng::new(3);
        assert!(pn
            .episode_loss(&g, &store, &[], &query, &tags, &mut rng)
            .is_err());
    }
}
