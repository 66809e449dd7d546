//! Properties of the meta-learning layer: deterministic adaptation,
//! monotone inner loops, and isolation between learners.

use fewner_core::{EpisodicLearner, Fewner, Maml, MetaConfig, ServeOptions};
use fewner_corpus::{split_types, DatasetProfile};
use fewner_episode::{EpisodeSampler, Task};
use fewner_models::{
    encode_task, BackboneConfig, Conditioning, HeadKind, LabeledSentence, TokenEncoder,
};
use fewner_tensor::{Array, Graph, ParamId, ParamStore, Sgd};
use fewner_text::embed::EmbeddingSpec;
use fewner_text::TagSet;
use fewner_util::Rng;

fn fixture() -> (TokenEncoder, Vec<Task>, fewner_corpus::TypeSplit) {
    let d = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
    let split = split_types(&d, (8, 3, 5), 42).unwrap();
    let sampler = EpisodeSampler::new(&split.train, 3, 1, 4).unwrap();
    let mut rng = Rng::new(5);
    let tasks: Vec<Task> = (0..3).map(|_| sampler.sample(&mut rng).unwrap()).collect();
    let enc = TokenEncoder::build(
        &[&d],
        &EmbeddingSpec {
            dim: 20,
            ..EmbeddingSpec::default()
        },
        4,
    );
    (enc, tasks, split)
}

fn bb(cond: Conditioning) -> BackboneConfig {
    BackboneConfig {
        word_dim: 20,
        char_dim: 8,
        char_filters: 6,
        char_widths: vec![2, 3],
        hidden: 10,
        phi_dim: 8,
        slot_ctx_dim: 4,
        conditioning: cond,
        dropout: 0.1,
        use_char_cnn: true,
        encoder: fewner_models::backbone::EncoderKind::BiGru,
        head: HeadKind::Dense { n_ways: 3 },
    }
}

#[test]
fn adaptation_is_a_deterministic_function_of_support() {
    let (enc, tasks, _) = fixture();
    let learner = Fewner::new(bb(Conditioning::Film), &enc, MetaConfig::default()).unwrap();
    let a = learner.adapt_and_predict(&tasks[0], &enc).unwrap();
    let b = learner.adapt_and_predict(&tasks[0], &enc).unwrap();
    assert_eq!(a, b, "same θ + same support must give same predictions");
}

#[test]
fn inner_loop_loss_is_monotone_enough() {
    // Each inner step should not increase the support loss by much; the
    // cumulative trend over the trajectory must be downward.
    let (enc, tasks, _) = fixture();
    let learner = Fewner::new(bb(Conditioning::Film), &enc, MetaConfig::default()).unwrap();
    let tags = tasks[0].tag_set();
    let (support, _) = encode_task(&enc, &tasks[0]);

    let loss_with_phi = |phi_store: &fewner_tensor::ParamStore, phi_id| -> f32 {
        let g = Graph::eval();
        let phi = g.param(phi_store, phi_id);
        let mut rng = Rng::new(0);
        let l =
            learner
                .backbone
                .batch_loss(&g, &learner.theta, Some(phi), &support, &tags, &mut rng);
        g.value(l).scalar_value()
    };

    let mut prev = {
        let (ps, id) = learner.backbone.new_context();
        loss_with_phi(&ps, id)
    };
    for steps in [2usize, 4, 8] {
        let (ps, id, _) = learner.adapt_context(&support, &tags, steps).unwrap();
        let now = loss_with_phi(&ps, id);
        assert!(
            now <= prev + 0.05,
            "support loss increased markedly at {steps} steps: {prev} -> {now}"
        );
        prev = now;
    }
}

#[test]
fn two_learners_never_interfere() {
    // Meta-training learner A must not move learner B's parameters, even
    // though both bind stores into graphs concurrently built.
    let (enc, tasks, _) = fixture();
    let cfg = MetaConfig {
        meta_batch: 3,
        ..MetaConfig::default()
    };
    let mut a = Fewner::new(bb(Conditioning::Film), &enc, cfg.clone()).unwrap();
    let b = Fewner::new(bb(Conditioning::Film), &enc, cfg.clone()).unwrap();
    let b_before = b.theta.snapshot();
    a.meta_step(&tasks, &enc).unwrap();
    assert_eq!(b_before, b.theta.snapshot());
}

#[test]
fn fewner_and_maml_adapt_different_parameter_counts() {
    // The paper's efficiency claim in parameter terms: FEWNER's test-time
    // adaptation moves |φ| scalars, MAML moves the whole network.
    let (enc, tasks, _) = fixture();
    let cfg = MetaConfig::default();
    let fewner = Fewner::new(bb(Conditioning::Film), &enc, cfg.clone()).unwrap();
    let maml = Maml::new(bb(Conditioning::None), &enc, cfg).unwrap();
    let phi_scalars = fewner.backbone.config().phi_total();
    let theta_scalars = maml.theta.num_scalars();
    assert!(
        phi_scalars * 100 < theta_scalars,
        "φ ({phi_scalars}) should be ≪ θ ({theta_scalars})"
    );
    // And both still produce full predictions.
    assert_eq!(
        fewner.adapt_and_predict(&tasks[0], &enc).unwrap().len(),
        tasks[0].query.len()
    );
    assert_eq!(
        maml.adapt_and_predict(&tasks[0], &enc).unwrap().len(),
        tasks[0].query.len()
    );
}

#[test]
fn meta_step_moves_theta_in_the_descent_direction() {
    // One meta-step must reduce the (deterministic) query loss of the batch
    // it was computed on, for a small enough step. We verify the weaker,
    // robust property: repeating the same meta-batch several times trends
    // the loss down.
    let (enc, tasks, _) = fixture();
    let cfg = MetaConfig {
        meta_lr: 5e-3,
        meta_batch: 3,
        ..MetaConfig::default()
    };
    let mut learner = Fewner::new(bb(Conditioning::Film), &enc, cfg).unwrap();
    let mut losses = Vec::new();
    for _ in 0..12 {
        losses.push(learner.meta_step(&tasks, &enc).unwrap());
    }
    let first: f32 = losses[..4].iter().sum::<f32>() / 4.0;
    let last: f32 = losses[8..].iter().sum::<f32>() / 4.0;
    assert!(
        last < first,
        "repeated meta-steps on one batch should reduce its loss: {losses:?}"
    );
}

/// The inner loop as a full tape: every step runs `batch_loss` over the
/// whole network with θ bound as parameters, back-propagates everything and
/// keeps φ's gradient, with both early stops (a non-finite loss or
/// gradient stops the loop; a non-finite φ is restored to the last finite
/// value). Returns the final φ and the trajectory of φ before each step.
fn full_tape_inner_loop(
    learner: &Fewner,
    mut phi_store: ParamStore,
    phi_id: ParamId,
    support: &[LabeledSentence],
    tags: &TagSet,
    steps: usize,
) -> (Vec<u32>, Vec<Vec<u32>>) {
    let mut sgd = Sgd::new(learner.config().inner_lr);
    let mut trajectory = Vec::new();
    let mut rng = Rng::new(0);
    for _ in 0..steps {
        let snapshot = (**phi_store.value(phi_id)).clone();
        let g = Graph::eval();
        let phi = g.param(&phi_store, phi_id);
        let loss =
            learner
                .backbone
                .batch_loss(&g, &learner.theta, Some(phi), support, tags, &mut rng);
        let Ok(grads) = g.backward(loss) else { break };
        let grads = grads.for_store(&phi_store);
        if sgd.step(&mut phi_store, &grads).is_err() {
            break;
        }
        if !phi_store.value(phi_id).all_finite() {
            phi_store.set(phi_id, snapshot);
            break;
        }
        trajectory.push(bits(&snapshot));
    }
    (bits(phi_store.value(phi_id)), trajectory)
}

fn bits(a: &Array) -> Vec<u32> {
    a.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn inner_loop_matches_the_full_tape_loop_bit_for_bit() {
    let (enc, tasks, _) = fixture();
    let (support, query) = encode_task(&enc, &tasks[0]);
    let tags = tasks[0].tag_set();
    let steps = 6;
    let heads = [
        HeadKind::Dense { n_ways: 3 },
        HeadKind::SlotShared {
            slot_dim: 6,
            max_slots: 4,
        },
    ];
    for cond in [Conditioning::Film, Conditioning::ConcatInput] {
        for head in heads {
            // 0.1 is the paper's α. At 1e12 the FiLM support loss turns
            // non-finite within two steps (the loss stop); at 3e38 the
            // first step overflows φ itself (the restore stop).
            for inner_lr in [0.1, 1e12, 3e38] {
                let case = format!("{cond:?} / {head:?} / α = {inner_lr}");
                let meta = MetaConfig {
                    inner_lr,
                    inner_steps_test: steps,
                    ..MetaConfig::default()
                };
                let learner = Fewner::new(BackboneConfig { head, ..bb(cond) }, &enc, meta).unwrap();

                let (phi_store, phi_id, trajectory) =
                    learner.adapt_context(&support, &tags, steps).unwrap();
                let (fresh, fresh_id) = learner.backbone.new_context();
                let (want_phi, want_trajectory) =
                    full_tape_inner_loop(&learner, fresh, fresh_id, &support, &tags, steps);
                assert_eq!(bits(phi_store.value(phi_id)), want_phi, "adapt φ, {case}");
                let trajectory: Vec<Vec<u32>> = trajectory.iter().map(bits).collect();
                assert_eq!(trajectory, want_trajectory, "trajectory, {case}");
                if inner_lr == 1e12 && cond == Conditioning::Film {
                    assert!(trajectory.len() < steps, "no loss stop, {case}");
                }
                if inner_lr == 3e38 {
                    assert!(trajectory.is_empty(), "no restore stop, {case}");
                }

                // `extend` warm-starts from the adapted φ over old + new
                // support for `inner_steps_test / 2` steps.
                let opts = ServeOptions::new();
                let ctx = learner.adapt(&tasks[0], &enc, &opts).unwrap();
                let extended = learner.extend(&ctx, &query, &opts).unwrap();
                let (mut warm, warm_id) = learner.backbone.new_context();
                warm.set(
                    warm_id,
                    Array::from_vec(1, ctx.phi_values().len(), ctx.phi_values().to_vec()),
                );
                let mut merged = support.clone();
                merged.extend_from_slice(&query);
                let (want_phi, _) =
                    full_tape_inner_loop(&learner, warm, warm_id, &merged, &tags, steps / 2);
                let got: Vec<u32> = extended.phi_values().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want_phi, "extend φ, {case}");
            }
        }
    }
}
