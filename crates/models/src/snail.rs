//! SNAIL baseline (paper §4.1.2; Mishra et al.).
//!
//! SNAIL combines temporal convolutions (aggregating past experience) with
//! causal attention (pinpointing specific memories). We adapt it to
//! sequence labeling the way the paper's experimental setup implies: the
//! support set is flattened into a *memory* of (token feature, gold-label
//! embedding) pairs; each query token attends over that memory, a
//! width-2 causal temporal convolution aggregates the query sentence's own
//! left context, and a linear head emits per-token class logits. Training
//! is episodic (no inner loop, no test-time gradient steps).

use fewner_tensor::nn::{Embedding, Linear};
use fewner_tensor::{Array, Exec, Infer, ParamStore, Var};
use fewner_text::TagSet;
use fewner_util::{Error, Result, Rng};

use crate::backbone::Backbone;
use crate::prep::LabeledSentence;

/// SNAIL head hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct SnailConfig {
    /// Attention key/query width.
    pub attn_dim: usize,
    /// Attention value width.
    pub value_dim: usize,
    /// Temporal-convolution filters.
    pub tc_filters: usize,
    /// Label-embedding width.
    pub label_dim: usize,
    /// Cross-entropy weight multiplier for non-`O` tokens. Token-level
    /// classification over BIO tags is dominated by `O`; without
    /// up-weighting entity tokens SNAIL collapses to all-`O` on dense
    /// corpora (a standard class-imbalance correction).
    pub entity_weight: f32,
    /// Fixed way-count (the classifier head is sized `2N + 1`).
    pub n_ways: usize,
}

impl SnailConfig {
    /// Defaults matched to the scaled backbone.
    pub fn default_for(n_ways: usize) -> SnailConfig {
        SnailConfig {
            attn_dim: 24,
            value_dim: 24,
            tc_filters: 24,
            label_dim: 12,
            entity_weight: 3.0,
            n_ways,
        }
    }
}

/// SNAIL: shared encoder + attention/TC labeling head.
pub struct Snail {
    /// Shared encoder (conditioning-free backbone).
    pub encoder: Backbone,
    cfg: SnailConfig,
    label_emb: Embedding,
    wq: Linear,
    wk: Linear,
    wv: Linear,
    tc: Linear,
    out: Linear,
}

impl Snail {
    /// Registers head parameters on top of an encoder backbone.
    pub fn new(
        encoder: Backbone,
        cfg: SnailConfig,
        store: &mut ParamStore,
        rng: &mut Rng,
    ) -> Snail {
        let h = 2 * encoder.config().hidden;
        let n_tags = 2 * cfg.n_ways + 1;
        Snail {
            label_emb: Embedding::new(store, "snail.labels", n_tags, cfg.label_dim, rng),
            wq: Linear::new(store, "snail.wq", h, cfg.attn_dim, false, rng),
            wk: Linear::new(store, "snail.wk", h, cfg.attn_dim, false, rng),
            wv: Linear::new(
                store,
                "snail.wv",
                h + cfg.label_dim,
                cfg.value_dim,
                false,
                rng,
            ),
            tc: Linear::new(store, "snail.tc", 2 * h, cfg.tc_filters, true, rng),
            out: Linear::new(
                store,
                "snail.out",
                h + cfg.value_dim + cfg.tc_filters,
                n_tags,
                true,
                rng,
            ),
            encoder,
            cfg,
        }
    }

    /// The head configuration.
    pub fn config(&self) -> &SnailConfig {
        &self.cfg
    }

    /// Builds the support memory: keys `[M, h]`, values `[M, h+label]`.
    fn memory<E: Exec>(
        &self,
        g: &E,
        theta: &ParamStore,
        support: &[LabeledSentence],
        rng: &mut Rng,
    ) -> (Var, Var) {
        let mut key_rows = Vec::new();
        let mut val_rows = Vec::new();
        for (sent, gold) in support {
            let h = self.encoder.hidden(g, theta, None, sent, rng);
            let labels = self.label_emb.apply(g, theta, gold, &[gold.len()]);
            key_rows.push(h);
            val_rows.push(g.concat_cols(&[h, labels]));
        }
        (g.concat_rows(&key_rows), g.concat_rows(&val_rows))
    }

    /// Per-token logits `[L, 2N+1]` for one query sentence given a memory.
    fn query_logits<E: Exec>(
        &self,
        g: &E,
        theta: &ParamStore,
        memory: (Var, Var),
        sent: &crate::encoding::EncodedSentence,
        rng: &mut Rng,
    ) -> Var {
        let (mem_keys, mem_vals) = memory;
        let h = self.encoder.hidden(g, theta, None, sent, rng);

        // Causal attention over the support memory.
        let q = self.wq.apply(g, theta, h);
        let k = self.wk.apply(g, theta, mem_keys);
        let scores = g.mul_scalar(
            g.matmul(q, g.transpose(k)),
            1.0 / (self.cfg.attn_dim as f32).sqrt(),
        );
        let attn = g.softmax_rows(scores);
        let ctx = g.matmul(attn, self.wv.apply(g, theta, mem_vals));

        // Width-2 causal temporal convolution over the query sentence: the
        // input is left-padded so position t sees tokens t-1 and t.
        let len = g.shape(h).0;
        let hdim = g.shape(h).1;
        let padded = g.concat_rows(&[g.constant(Array::zeros(1, hdim)), h]);
        let windows = g.unfold(padded, 2); // [L, 2h]
        debug_assert_eq!(g.shape(windows).0, len);
        let tc = g.relu(self.tc.apply(g, theta, windows));

        self.out.apply(g, theta, g.concat_cols(&[h, ctx, tc]))
    }

    /// Episode loss: mean token cross-entropy on the query set.
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
        if tags.len() != 2 * self.cfg.n_ways + 1 {
            return Err(Error::InvalidConfig(format!(
                "SNAIL head built for {} ways, task has {}",
                self.cfg.n_ways,
                tags.n_ways()
            )));
        }
        let memory = self.memory(g, theta, support, rng);
        let mut losses = Vec::new();
        for (sent, gold) in query {
            let logits = self.query_logits(g, theta, memory, sent, rng);
            let logp = g.log_softmax_rows(logits);
            // Class-weighted token cross-entropy: entity tokens count
            // `entity_weight` times as much as `O` tokens.
            let o_coords: Vec<(usize, usize)> = gold
                .iter()
                .enumerate()
                .filter(|(_, &c)| c == 0)
                .map(|(t, &c)| (t, c))
                .collect();
            let e_coords: Vec<(usize, usize)> = gold
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(t, &c)| (t, c))
                .collect();
            let w = self.cfg.entity_weight;
            let total_weight = o_coords.len() as f32 + w * e_coords.len() as f32;
            let mut weighted = g.scalar(0.0);
            if !o_coords.is_empty() {
                weighted = g.add(weighted, g.gather_sum(logp, &o_coords));
            }
            if !e_coords.is_empty() {
                weighted = g.add(weighted, g.mul_scalar(g.gather_sum(logp, &e_coords), w));
            }
            losses.push(g.mul_scalar(weighted, -1.0 / total_weight));
        }
        let stacked = g.concat_cols(&losses);
        Ok(g.mean_all(stacked))
    }

    /// Predicts tag indices for every query sentence of one task on the
    /// gradient-free [`Infer`] executor.
    ///
    /// The support memory (keys and values) is encoded **once** per task;
    /// per-query scratch buffers are recycled between sentences.
    pub fn predict_task(
        &self,
        theta: &ParamStore,
        support: &[LabeledSentence],
        queries: &[LabeledSentence],
        _tags: &TagSet,
    ) -> Vec<Vec<usize>> {
        let ex = Infer::new();
        let mut rng = Rng::new(0); // inference mode: dropout inert, rng unused
        let memory = self.memory(&ex, theta, support, &mut rng);
        let mark = ex.mark();
        queries
            .iter()
            .map(|query| {
                let logits = ex.value(self.query_logits(&ex, theta, memory, &query.0, &mut rng));
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
        Snail,
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
        let snail = Snail::new(bb, SnailConfig::default_for(3), &mut store, &mut rng);
        let (support, query) = encode_task(&enc, &task);
        (snail, store, support, query, task.tag_set())
    }

    #[test]
    fn loss_is_finite_and_gradients_reach_the_head() {
        let (m, store, support, query, tags) = setup();
        let g = Graph::new();
        let mut rng = Rng::new(1);
        let loss = m
            .episode_loss(&g, &store, &support, &query, &tags, &mut rng)
            .unwrap();
        assert!(g.value(loss).scalar_value().is_finite());
        let grads = g.backward(loss).unwrap().for_store(&store);
        let head_w = store.get("snail.out.w").unwrap();
        assert!(grads.get(head_w).is_some());
        let attn_w = store.get("snail.wq.w").unwrap();
        assert!(grads.get(attn_w).is_some());
    }

    #[test]
    fn predictions_are_valid_classes() {
        let (m, store, support, query, tags) = setup();
        let pred = m
            .predict_task(&store, &support, &query[..1], &tags)
            .remove(0);
        assert_eq!(pred.len(), query[0].0.len());
        assert!(pred.iter().all(|&c| c < tags.len()));
    }

    #[test]
    fn episode_training_reduces_loss() {
        let (m, mut store, support, query, tags) = setup();
        let mut opt = fewner_tensor::Adam::new(0.01);
        let (mut first, mut last) = (None, 0.0);
        for _ in 0..20 {
            let g = Graph::new();
            let mut rng = Rng::new(2);
            let loss = m
                .episode_loss(&g, &store, &support, &query, &tags, &mut rng)
                .unwrap();
            last = g.value(loss).scalar_value();
            first.get_or_insert(last);
            let grads = g.backward(loss).unwrap().for_store(&store);
            opt.step(&mut store, &grads).unwrap();
        }
        assert!(last < first.unwrap());
    }

    #[test]
    fn way_mismatch_is_rejected() {
        let (m, store, support, query, _) = setup();
        let g = Graph::new();
        let mut rng = Rng::new(3);
        let wrong = TagSet::new(5).unwrap();
        assert!(m
            .episode_loss(&g, &store, &support, &query, &wrong, &mut rng)
            .is_err());
    }
}
