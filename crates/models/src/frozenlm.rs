//! Frozen contextual-encoder baselines standing in for GPT2 / Flair / ELMo
//! / BERT / XLNet (paper §4.1.2).
//!
//! The paper stacks a CRF on contextual language-model embeddings produced
//! by the Flair framework, which "does not allow further fine-tuning":
//! during episodic training and at test time **only the CRF is trainable**.
//! Our substitute preserves that degree-of-freedom structure exactly: a
//! frozen encoder (the pre-trained word-embedding table plus a fixed-seed
//! BiGRU "contextualiser") produces `[word embedding ; contextual state]`
//! features, and a trainable [`DenseCrf`] decodes them. The five flavours
//! differ in capacity and initialisation seed, mirroring how the five real
//! LMs differ in architecture; their relative ordering in the paper is
//! dataset-dependent and within overlapping confidence intervals, so no
//! finer distinction is warranted.

use fewner_tensor::nn::{BiGru, Embedding};
use fewner_tensor::{Exec, Infer, ParamStore, Var};
use fewner_text::TagSet;
use fewner_util::{Error, Result, Rng};

use crate::crf::{CrfHead, DenseCrf};
use crate::encoding::{EncodedSentence, TokenEncoder};
use crate::prep::LabeledSentence;

/// Which pre-trained language model a [`FrozenLm`] imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LmFlavor {
    /// GPT-2 substitute.
    Gpt2,
    /// Flair substitute.
    Flair,
    /// ELMo substitute.
    Elmo,
    /// BERT substitute.
    Bert,
    /// XLNet substitute.
    Xlnet,
}

impl LmFlavor {
    /// All five flavours, in the paper's table order.
    pub const ALL: [LmFlavor; 5] = [
        LmFlavor::Gpt2,
        LmFlavor::Flair,
        LmFlavor::Elmo,
        LmFlavor::Bert,
        LmFlavor::Xlnet,
    ];

    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            LmFlavor::Gpt2 => "GPT2",
            LmFlavor::Flair => "Flair",
            LmFlavor::Elmo => "ELMo",
            LmFlavor::Bert => "BERT",
            LmFlavor::Xlnet => "XLNet",
        }
    }

    /// Encoder hidden size (per direction).
    fn hidden(&self) -> usize {
        match self {
            LmFlavor::Gpt2 => 32,
            LmFlavor::Flair => 24,
            LmFlavor::Elmo => 40,
            LmFlavor::Bert => 36,
            LmFlavor::Xlnet => 36,
        }
    }

    /// Initialisation seed for the frozen encoder.
    fn seed(&self) -> u64 {
        fewner_text::embed::stable_hash(self.name())
    }
}

/// A frozen contextual encoder with a trainable CRF head.
pub struct FrozenLm {
    flavor: LmFlavor,
    /// Frozen parameters (embedding table + contextualiser).
    pub frozen: ParamStore,
    /// Trainable parameters (the CRF head only).
    pub head_params: ParamStore,
    word_emb: Embedding,
    contextualiser: BiGru,
    head: DenseCrf,
}

impl FrozenLm {
    /// Builds the frozen encoder for `flavor` plus a trainable CRF for an
    /// `n_ways`-way tag space.
    pub fn new(flavor: LmFlavor, enc: &TokenEncoder, n_ways: usize) -> Result<FrozenLm> {
        if n_ways == 0 {
            return Err(Error::InvalidConfig("n_ways must be positive".into()));
        }
        let mut frozen = ParamStore::new();
        let mut rng = Rng::new(flavor.seed());
        let word_emb = Embedding::from_array(&mut frozen, "lm.words", enc.pretrained.clone());
        let contextualiser =
            BiGru::new(&mut frozen, "lm.ctx", enc.dim(), flavor.hidden(), &mut rng);
        let mut head_params = ParamStore::new();
        let feat = enc.dim() + 2 * flavor.hidden();
        let head = DenseCrf::new(&mut head_params, "head", feat, n_ways, &mut rng);
        Ok(FrozenLm {
            flavor,
            frozen,
            head_params,
            word_emb,
            contextualiser,
            head,
        })
    }

    /// The imitated flavour.
    pub fn flavor(&self) -> LmFlavor {
        self.flavor
    }

    /// Frozen contextual features `[L, dim + 2H]`.
    fn features<E: Exec>(&self, g: &E, sent: &EncodedSentence) -> Var {
        g.freeze(&self.frozen);
        let words = self
            .word_emb
            .apply(g, &self.frozen, &sent.word_ids, &[sent.len()]);
        let ctx = self
            .contextualiser
            .apply(g, &self.frozen, words, &[sent.len()]);
        g.concat_cols(&[words, ctx])
    }

    /// Mean sequence NLL of a batch under the CRF head in `head` —
    /// [`FrozenLm::head_params`] or a test-time fine-tuned copy of it
    /// (cloned stores keep their id) — differentiable w.r.t. the head only.
    pub fn batch_loss<E: Exec>(
        &self,
        g: &E,
        head: &ParamStore,
        batch: &[LabeledSentence],
        tags: &TagSet,
    ) -> Result<Var> {
        if batch.is_empty() {
            return Err(Error::InvalidConfig("empty batch".into()));
        }
        let losses: Vec<Var> = batch
            .iter()
            .map(|(sent, gold)| {
                let feats = self.features(g, sent);
                self.head.nll(g, head, feats, gold, tags)
            })
            .collect();
        let stacked = g.concat_cols(&losses);
        Ok(g.mean_all(stacked))
    }

    /// Viterbi decode of every sentence of one task under the CRF head in
    /// `head`, on the gradient-free [`Infer`] executor.
    ///
    /// The head's transition scores are computed **once** per task;
    /// per-sentence scratch buffers are recycled between sentences.
    pub fn predict_task<'a, I>(&self, head: &ParamStore, sents: I, tags: &TagSet) -> Vec<Vec<usize>>
    where
        I: IntoIterator<Item = &'a EncodedSentence>,
    {
        let ex = Infer::new();
        let (trans, start) = self.head.transitions(&ex, head, tags);
        let (trans, start) = (ex.value(trans), ex.value(start));
        let mark = ex.mark();
        sents
            .into_iter()
            .map(|sent| {
                let feats = self.features(&ex, sent);
                let e = self.head.emissions(&ex, head, feats, tags);
                let path = crate::crf::viterbi(ex.value(e).data(), &trans, &start, tags);
                ex.reset_to(mark);
                path
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::encode_task;
    use fewner_corpus::{split_types, DatasetProfile};
    use fewner_episode::EpisodeSampler;
    use fewner_tensor::Graph;
    use fewner_text::embed::EmbeddingSpec;

    fn setup() -> (TokenEncoder, Vec<LabeledSentence>, TagSet) {
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
        let (support, _) = encode_task(&enc, &task);
        (enc, support, task.tag_set())
    }

    #[test]
    fn frozen_encoder_receives_no_gradients() {
        let (enc, support, tags) = setup();
        let lm = FrozenLm::new(LmFlavor::Bert, &enc, 3).unwrap();
        let g = Graph::new();
        let loss = lm.batch_loss(&g, &lm.head_params, &support, &tags).unwrap();
        let grads = g.backward(loss).unwrap();
        let frozen_grads = grads.for_store(&lm.frozen);
        assert!(
            (0..lm.frozen.len()).all(|i| frozen_grads.get_at(i).is_none()),
            "frozen encoder must receive no gradients"
        );
        let head_grads = grads.for_store(&lm.head_params);
        assert!((0..lm.head_params.len()).any(|i| head_grads.get_at(i).is_some()));
    }

    #[test]
    fn flavours_produce_different_features() {
        let (enc, support, _) = setup();
        let a = FrozenLm::new(LmFlavor::Gpt2, &enc, 3).unwrap();
        let b = FrozenLm::new(LmFlavor::Elmo, &enc, 3).unwrap();
        let g = Graph::new();
        let fa = g.value(a.features(&g, &support[0].0));
        let fb = g.value(b.features(&g, &support[0].0));
        assert_ne!(fa.shape(), fb.shape(), "capacities differ");
    }

    #[test]
    fn head_training_reduces_loss_and_decodes_validly() {
        let (enc, support, tags) = setup();
        let mut lm = FrozenLm::new(LmFlavor::Flair, &enc, 3).unwrap();
        let mut opt = fewner_tensor::Adam::new(0.02);
        let (mut first, mut last) = (None, 0.0);
        for _ in 0..30 {
            let g = Graph::new();
            let loss = lm.batch_loss(&g, &lm.head_params, &support, &tags).unwrap();
            last = g.value(loss).scalar_value();
            first.get_or_insert(last);
            let grads = g.backward(loss).unwrap().for_store(&lm.head_params);
            opt.step(&mut lm.head_params, &grads).unwrap();
        }
        assert!(last < first.unwrap());
        let pred = lm
            .predict_task(&lm.head_params, [&support[0].0], &tags)
            .remove(0);
        let decoded: Vec<fewner_text::Tag> = pred.iter().map(|&i| tags.tag(i)).collect();
        fewner_text::validate_tags(&decoded, &tags).unwrap();
    }

    #[test]
    fn deterministic_construction() {
        let (enc, support, _) = setup();
        let a = FrozenLm::new(LmFlavor::Xlnet, &enc, 3).unwrap();
        let b = FrozenLm::new(LmFlavor::Xlnet, &enc, 3).unwrap();
        let g = Graph::new();
        let fa = g.value(a.features(&g, &support[0].0));
        let fb = g.value(b.features(&g, &support[0].0));
        assert_eq!(fa.data(), fb.data());
    }
}
