//! The training tape's query loss over stacked sentences.
//!
//! [`Backbone::batch_loss`] runs the encode stage and the recurrent layer
//! once over all of a batch's sentences. Its reference is the per-sentence
//! composition: one [`Backbone::nll`] per sentence, in batch order, on one
//! tape, averaged the same way. The loss and every θ and φ gradient must be
//! equal bit for bit, for every conditioning site, encoder and head, with
//! the char-CNN on and off and dropout on and off, over 1–9 sentences of
//! mixed lengths (ties, one-token sentences, and sentences that end while
//! others still run).

use fewner_corpus::DatasetProfile;
use fewner_models::backbone::EncoderKind;
use fewner_models::{
    Backbone, BackboneConfig, Conditioning, EncodedSentence, HeadKind, TokenEncoder,
};
use fewner_tensor::{Array, Exec, Graph, ParamStore, Var};
use fewner_text::embed::EmbeddingSpec;
use fewner_text::TagSet;
use fewner_util::Rng;
use proptest::prelude::*;

/// The two learners' conditioning sites (FEWNER's FiLM and the
/// concatenation ablation).
const CONDITIONINGS: [Conditioning; 2] = [Conditioning::Film, Conditioning::ConcatInput];

fn encoder() -> (TokenEncoder, Vec<Vec<String>>) {
    let d = DatasetProfile::bionlp13cg().generate(0.01).unwrap();
    let enc = TokenEncoder::build(
        &[&d],
        &EmbeddingSpec {
            dim: 12,
            ..EmbeddingSpec::default()
        },
        4,
    );
    let sentences = d.sentences.iter().map(|s| s.tokens.clone()).collect();
    (enc, sentences)
}

fn config(
    cond: Conditioning,
    lstm: bool,
    slots: bool,
    chars: bool,
    dropout: f32,
) -> BackboneConfig {
    BackboneConfig {
        word_dim: 12,
        char_dim: 4,
        char_filters: 3,
        char_widths: vec![2, 3],
        hidden: 5,
        phi_dim: 4,
        slot_ctx_dim: 2,
        conditioning: cond,
        dropout,
        use_char_cnn: chars,
        encoder: if lstm {
            EncoderKind::BiLstm
        } else {
            EncoderKind::BiGru
        },
        head: if slots {
            HeadKind::SlotShared {
                slot_dim: 3,
                max_slots: 4,
            }
        } else {
            HeadKind::Dense { n_ways: 3 }
        },
    }
}

/// `n` sentences cut from the corpus to random lengths in `1..=8` (a
/// sentence shorter than its cut keeps its length), with random gold tags.
fn batch(
    enc: &TokenEncoder,
    corpus: &[Vec<String>],
    tags: &TagSet,
    n: usize,
    rng: &mut Rng,
) -> Vec<(EncodedSentence, Vec<usize>)> {
    (0..n)
        .map(|_| {
            let tokens = &corpus[rng.below(corpus.len())];
            let len = (1 + rng.below(8)).min(tokens.len());
            let sent = enc.encode(&tokens[..len]);
            let gold = (0..len).map(|_| rng.below(tags.len())).collect();
            (sent, gold)
        })
        .collect()
}

/// The loss and every θ and φ gradient as raw bits, from one tape:
/// `batch_loss` when `stacked`, else one `nll` per sentence averaged as
/// `batch_loss` averages.
fn loss_bits(
    bb: &Backbone,
    theta: &ParamStore,
    phi_store: &ParamStore,
    batch: &[(EncodedSentence, Vec<usize>)],
    tags: &TagSet,
    train: bool,
    stacked: bool,
) -> Vec<Vec<u32>> {
    let g = if train { Graph::new() } else { Graph::eval() };
    let phi = g.param(phi_store, phi_store.get("phi").unwrap());
    let mut rng = Rng::new(41);
    let loss = if stacked {
        bb.batch_loss(&g, theta, Some(phi), batch, tags, &mut rng)
    } else {
        let losses: Vec<Var> = batch
            .iter()
            .map(|(sent, gold)| bb.nll(&g, theta, Some(phi), sent, gold, tags, &mut rng))
            .collect();
        g.mean_all(g.concat_cols(&losses))
    };
    let grads = g.backward(loss).unwrap();
    let bits = |a: &Array| a.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let mut all = vec![bits(&g.value(loss))];
    for store in [theta, phi_store] {
        let got = grads.for_store(store);
        all.extend((0..store.len()).map(|i| got.get_at(i).map(bits).unwrap_or_default()));
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `batch_loss` over stacked sentences equals, bit for bit, the
    /// per-sentence composition of `nll` on one tape: the loss and every
    /// θ and φ gradient.
    #[test]
    fn batch_loss_matches_per_sentence_nll(
        seed in 0u64..100_000,
        arch in 0usize..32,
        n in 1usize..10,
    ) {
        let (enc, corpus) = encoder();
        let cond = CONDITIONINGS[arch & 1];
        let (lstm, slots, chars, train) = (arch & 2 != 0, arch & 4 != 0, arch & 8 != 0, arch & 16 != 0);
        let mut rng = Rng::new(seed);
        let mut theta = ParamStore::new();
        let cfg = config(cond, lstm, slots, chars, 0.3);
        let bb = Backbone::new(cfg, &enc, &mut theta, &mut rng).unwrap();
        let (mut phi_store, phi_id) = bb.new_context();
        phi_store.set(phi_id, Array::uniform(1, bb.config().phi_total(), -0.5, 0.5, &mut rng));
        let tags = TagSet::new(3).unwrap();
        let batch = batch(&enc, &corpus, &tags, n, &mut rng);

        let stacked = loss_bits(&bb, &theta, &phi_store, &batch, &tags, train, true);
        let reference = loss_bits(&bb, &theta, &phi_store, &batch, &tags, train, false);
        let lens: Vec<usize> = batch.iter().map(|(s, _)| s.len()).collect();
        let names: Vec<String> = (0..theta.len())
            .map(|i| theta.name_at(i).to_string())
            .chain(std::iter::once("phi".to_string()))
            .collect();
        let case = format!(
            "{cond:?}, lstm {lstm}, slot head {slots}, char-CNN {chars}, dropout {train}, lens {lens:?}"
        );
        prop_assert!(stacked[0] == reference[0], "loss differs; {}", case);
        for (i, name) in names.iter().enumerate() {
            prop_assert!(stacked[i + 1] == reference[i + 1], "gradient of {} differs; {}", name, case);
        }
    }
}
