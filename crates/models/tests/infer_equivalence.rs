//! Model-level executor equivalence: for every architecture in the paper's
//! tables — the conditioned backbone (FEWNER; also MAML's and FineTune's
//! unconditioned variant), ProtoNet, SNAIL and the frozen-LM baselines —
//! the gradient-free [`Infer`] executor must produce **bitwise identical**
//! forward values and identical decoded paths to an evaluation-mode tape
//! ([`Graph::eval`]). All paths here are dropout-off by construction: both
//! executors report [`ExecMode::Eval`], so dropout is the identity.
//!
//! The backbone's batched pass ([`Backbone::hidden_task`], behind
//! `decode_task`) runs all of a call's sentences through each op at once;
//! its reference is always the per-sentence tape.

use fewner_corpus::{split_types, DatasetProfile};
use fewner_episode::EpisodeSampler;
use fewner_models::backbone::EncoderKind;
use fewner_models::{
    encode_task, viterbi, Backbone, BackboneConfig, Conditioning, EncodedSentence, FrozenLm,
    HeadKind, LabeledSentence, ProtoNet, Snail, SnailConfig, TokenEncoder,
};
use fewner_tensor::{Array, Exec, Graph, Infer, ParamStore};
use fewner_text::embed::EmbeddingSpec;
use fewner_text::TagSet;
use fewner_util::Rng;
use proptest::prelude::*;

struct Fixture {
    enc: TokenEncoder,
    support: Vec<LabeledSentence>,
    query: Vec<LabeledSentence>,
    tags: TagSet,
}

fn fixture(task_seed: u64) -> Fixture {
    let d = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
    let split = split_types(&d, (8, 3, 5), 1).unwrap();
    let sampler = EpisodeSampler::new(&split.train, 3, 1, 4).unwrap();
    let task = sampler.sample(&mut Rng::new(task_seed)).unwrap();
    let enc = TokenEncoder::build(
        &[&d],
        &EmbeddingSpec {
            dim: 20,
            ..EmbeddingSpec::default()
        },
        4,
    );
    let (support, query) = encode_task(&enc, &task);
    Fixture {
        enc,
        support,
        query,
        tags: task.tag_set(),
    }
}

fn config(conditioning: Conditioning, encoder: EncoderKind, head: HeadKind) -> BackboneConfig {
    let phi = conditioning != Conditioning::None;
    BackboneConfig {
        word_dim: 20,
        char_dim: 8,
        char_filters: 6,
        char_widths: vec![2, 3],
        hidden: 10,
        phi_dim: if phi { 8 } else { 0 },
        slot_ctx_dim: if phi { 4 } else { 0 },
        conditioning,
        dropout: 0.2, // non-zero on purpose: must be inert on both executors
        use_char_cnn: true,
        encoder,
        head,
    }
}

/// A random non-zero φ so the conditioned projections actually vary.
fn random_phi(bb: &Backbone, seed: u64) -> (ParamStore, fewner_tensor::ParamId) {
    let (mut store, id) = bb.new_context();
    let mut rng = Rng::new(seed);
    let phi = Array::uniform(1, bb.config().phi_total(), -0.5, 0.5, &mut rng);
    store.set(id, phi);
    (store, id)
}

fn assert_bitwise(a: &Array, b: &Array, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    assert_bits(a.data(), b.data(), what);
}

fn assert_bits(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

/// The first `len` tokens of `sent`.
fn truncated(sent: &EncodedSentence, len: usize) -> EncodedSentence {
    EncodedSentence {
        word_ids: sent.word_ids[..len].to_vec(),
        char_ids: sent.char_ids[..len].to_vec(),
    }
}

/// `n` of the fixture's sentences. Mixed lengths keep each sentence whole
/// but cut the one at `short` to a single token; equal lengths cut every
/// sentence to the shortest one's length.
fn sentence_set(f: &Fixture, n: usize, equal: bool, short: usize) -> Vec<EncodedSentence> {
    let pool: Vec<&EncodedSentence> = f.support.iter().chain(&f.query).map(|(s, _)| s).collect();
    let picked: Vec<&EncodedSentence> = (0..n).map(|i| pool[i % pool.len()]).collect();
    let shortest = picked.iter().map(|s| s.len()).min().unwrap();
    picked
        .iter()
        .enumerate()
        .map(|(i, s)| match (equal, i == short % n) {
            (true, _) => truncated(s, shortest),
            (false, true) => truncated(s, 1),
            (false, false) => (*s).clone(),
        })
        .collect()
}

const CONDITIONINGS: [Conditioning; 3] = [
    Conditioning::None,
    Conditioning::Film,
    Conditioning::ConcatInput,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Backbone hidden states and per-sentence NLL (hidden → emissions →
    /// CRF partition) are bitwise identical on tape and arena, for every
    /// conditioning mode and both sequence encoders.
    #[test]
    fn backbone_forward_bitwise_equal(seed in 0u64..500, enc_ix in 0usize..2) {
        let lstm = enc_ix == 1;
        let f = fixture(4);
        let encoder = if lstm { EncoderKind::BiLstm } else { EncoderKind::BiGru };
        for conditioning in CONDITIONINGS {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(seed);
            let bb = Backbone::new(
                config(conditioning, encoder, HeadKind::Dense { n_ways: 3 }),
                &f.enc,
                &mut store,
                &mut rng,
            )
            .unwrap();
            let phi_ctx = (conditioning != Conditioning::None)
                .then(|| random_phi(&bb, seed ^ 0x9E37));
            let (sent, gold) = &f.query[0];

            let g = Graph::eval();
            let phi = phi_ctx.as_ref().map(|(s, id)| g.param(s, *id));
            let mut r1 = Rng::new(0);
            let h_tape = g.value(bb.hidden(&g, &store, phi, sent, &mut r1));
            let nll_tape = g.value(bb.nll(&g, &store, phi, sent, gold, &f.tags, &mut r1));

            let ex = Infer::new();
            let phi = phi_ctx.as_ref().map(|(s, id)| ex.param(s, *id));
            let mut r2 = Rng::new(0);
            let h_inf = ex.value(bb.hidden(&ex, &store, phi, sent, &mut r2));
            let nll_inf = ex.value(bb.nll(&ex, &store, phi, sent, gold, &f.tags, &mut r2));

            assert_bitwise(&h_tape, &h_inf, &format!("hidden {conditioning:?}"));
            assert_bitwise(&nll_tape, &nll_inf, &format!("nll {conditioning:?}"));
        }
    }

    /// `decode_task` (one batched pass, context hoisted once) returns
    /// exactly the paths of decoding each sentence on its own tape, for
    /// both head kinds; so does the one-sentence `decode`.
    #[test]
    fn decode_task_matches_per_sentence_decode(seed in 0u64..500, head_ix in 0usize..2) {
        let slot_shared = head_ix == 1;
        let f = fixture(4);
        let head = if slot_shared {
            HeadKind::SlotShared { slot_dim: 6, max_slots: 8 }
        } else {
            HeadKind::Dense { n_ways: 3 }
        };
        for conditioning in CONDITIONINGS {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(seed);
            let bb = Backbone::new(
                config(conditioning, EncoderKind::BiGru, head),
                &f.enc,
                &mut store,
                &mut rng,
            )
            .unwrap();
            let phi_ctx = (conditioning != Conditioning::None)
                .then(|| random_phi(&bb, seed ^ 0x51ED));
            let phi = phi_ctx.as_ref().map(|(s, id)| (s, *id));
            let sents: Vec<_> = f.query.iter().map(|(s, _)| s).collect();
            let batched = bb.decode_task(&store, phi, sents.iter().copied(), &f.tags);
            prop_assert_eq!(batched.len(), sents.len());
            for (sent, path) in sents.iter().zip(&batched) {
                let g = Graph::eval();
                let phi = phi.map(|(s, id)| g.param(s, id));
                let e = bb.emissions(&g, &store, phi, sent, &f.tags, &mut Rng::new(0));
                let (trans, start) = bb.transitions(&g, &store, &f.tags);
                let tape = viterbi(g.value(e).data(), &g.value(trans), &g.value(start), &f.tags);
                assert_eq!(path, &tape, "{conditioning:?} head {head:?}");
                assert_eq!(
                    path,
                    &bb.decode_task(&store, phi_ctx.as_ref().map(|(s, id)| (s, *id)), [*sent], &f.tags)[0],
                    "{conditioning:?} head {head:?}: decode"
                );
            }
        }
    }

    /// ProtoNet: the episode loss is bitwise identical across executors and
    /// `predict_task` (prototypes hoisted, buffers recycled) matches
    /// predicting each query on its own.
    #[test]
    fn protonet_bitwise_equal(seed in 0u64..500) {
        let f = fixture(4);
        let mut store = ParamStore::new();
        let mut rng = Rng::new(seed);
        let bb = Backbone::new(
            config(Conditioning::None, EncoderKind::BiGru, HeadKind::Dense { n_ways: 3 }),
            &f.enc,
            &mut store,
            &mut rng,
        )
        .unwrap();
        let pn = ProtoNet::new(bb);

        let g = Graph::eval();
        let mut r1 = Rng::new(0);
        let tape = g.value(pn.episode_loss(&g, &store, &f.support, &f.query, &f.tags, &mut r1).unwrap());
        let ex = Infer::new();
        let mut r2 = Rng::new(0);
        let arena = ex.value(pn.episode_loss(&ex, &store, &f.support, &f.query, &f.tags, &mut r2).unwrap());
        assert_bitwise(&tape, &arena, "protonet episode loss");

        let batched = pn.predict_task(&store, &f.support, &f.query, &f.tags);
        for (q, path) in f.query.iter().zip(&batched) {
            let alone = pn.predict_task(&store, &f.support, std::slice::from_ref(q), &f.tags);
            prop_assert_eq!(path, &alone[0]);
        }
    }

    /// SNAIL: episode loss bitwise identical across executors; `predict_task`
    /// (support memory hoisted) matches per-query prediction.
    #[test]
    fn snail_bitwise_equal(seed in 0u64..500) {
        let f = fixture(4);
        let mut store = ParamStore::new();
        let mut rng = Rng::new(seed);
        let bb = Backbone::new(
            config(Conditioning::None, EncoderKind::BiGru, HeadKind::Dense { n_ways: 3 }),
            &f.enc,
            &mut store,
            &mut rng,
        )
        .unwrap();
        let snail = Snail::new(bb, SnailConfig::default_for(3), &mut store, &mut rng);

        let g = Graph::eval();
        let mut r1 = Rng::new(0);
        let tape = g.value(snail.episode_loss(&g, &store, &f.support, &f.query, &f.tags, &mut r1).unwrap());
        let ex = Infer::new();
        let mut r2 = Rng::new(0);
        let arena = ex.value(snail.episode_loss(&ex, &store, &f.support, &f.query, &f.tags, &mut r2).unwrap());
        assert_bitwise(&tape, &arena, "snail episode loss");

        let batched = snail.predict_task(&store, &f.support, &f.query, &f.tags);
        for (q, path) in f.query.iter().zip(&batched) {
            let alone = snail.predict_task(&store, &f.support, std::slice::from_ref(q), &f.tags);
            prop_assert_eq!(path, &alone[0]);
        }
    }

    /// Frozen-LM baselines: batch loss bitwise identical across executors;
    /// `predict_task` (transitions hoisted) matches per-sentence decode.
    #[test]
    fn frozenlm_bitwise_equal(flavor_ix in 0usize..5) {
        let f = fixture(4);
        let flavor = fewner_models::LmFlavor::ALL[flavor_ix];
        let lm = FrozenLm::new(flavor, &f.enc, 3).unwrap();

        let g = Graph::eval();
        let tape = g.value(lm.batch_loss(&g, &lm.head_params, &f.query, &f.tags).unwrap());
        let ex = Infer::new();
        let arena = ex.value(lm.batch_loss(&ex, &lm.head_params, &f.query, &f.tags).unwrap());
        assert_bitwise(&tape, &arena, "frozen-lm batch loss");

        let sents: Vec<_> = f.query.iter().map(|(s, _)| s).collect();
        let batched = lm.predict_task(&lm.head_params, sents.iter().copied(), &f.tags);
        for (sent, path) in sents.iter().zip(&batched) {
            prop_assert_eq!(path, &lm.predict_task(&lm.head_params, [*sent], &f.tags)[0]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The batched pass's hidden states and emission scores equal, bit for
    /// bit, each sentence's own tape evaluation — for every conditioning,
    /// both recurrent encoders and both heads, with the char-CNN on and
    /// off, over 1–9 sentences of mixed lengths (one of them a single
    /// token) or of equal lengths.
    #[test]
    fn batched_pass_matches_per_sentence_tape_bits(
        seed in 0u64..500, n in 1usize..10, short in 0usize..9,
    ) {
        let f = fixture(4);
        for equal in [false, true] {
        let sents = sentence_set(&f, n, equal, short);
        for conditioning in CONDITIONINGS {
            for encoder in [EncoderKind::BiGru, EncoderKind::BiLstm] {
                for head in [HeadKind::Dense { n_ways: 3 }, HeadKind::SlotShared { slot_dim: 6, max_slots: 8 }] {
                    for use_char_cnn in [true, false] {
                        let mut store = ParamStore::new();
                        let cfg = BackboneConfig { use_char_cnn, ..config(conditioning, encoder, head) };
                        let bb = Backbone::new(cfg, &f.enc, &mut store, &mut Rng::new(seed)).unwrap();
                        let phi_ctx = (conditioning != Conditioning::None)
                            .then(|| random_phi(&bb, seed ^ 0xB47C));
                        let phi = phi_ctx.as_ref().map(|(s, id)| (s, *id));
                        let rows = bb.hidden_task(&store, phi, &sents, &f.tags);
                        prop_assert_eq!(rows.len(), sents.len());
                        for (i, sent) in sents.iter().enumerate() {
                            let what = format!(
                                "{conditioning:?} {encoder:?} {head:?} char-CNN {use_char_cnn}, sentence {i} of {n}"
                            );
                            let g = Graph::eval();
                            let phi = phi.map(|(s, id)| g.param(s, id));
                            let h = bb.hidden(&g, &store, phi, sent, &mut Rng::new(0));
                            let e = bb.emissions(&g, &store, phi, sent, &f.tags, &mut Rng::new(0));
                            assert_bits(rows.hidden(i), g.value(h).data(), &format!("hidden, {what}"));
                            assert_bits(rows.emissions(i), g.value(e).data(), &format!("emissions, {what}"));
                        }
                    }
                }
            }
        }
        }
    }
}
