//! Cross-crate integration tests: full training → adaptation → evaluation
//! pipelines for every method, and the FEWNER-specific invariants the paper
//! claims (θ fixed at test time, adaptation only through φ).

use fewner::prelude::*;

fn fixture() -> (
    fewner::corpus::Dataset,
    fewner::corpus::TypeSplit,
    TokenEncoder,
) {
    let data = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
    let split = split_types(&data, (8, 3, 5), 42).unwrap();
    let spec = EmbeddingSpec {
        dim: 20,
        ..EmbeddingSpec::default()
    };
    let enc = TokenEncoder::build(&[&data], &spec, 4);
    (data, split, enc)
}

fn bb(cond: Conditioning) -> BackboneConfig {
    BackboneConfig {
        word_dim: 20,
        char_dim: 8,
        char_filters: 6,
        char_widths: vec![2, 3],
        hidden: 12,
        phi_dim: 10,
        slot_ctx_dim: 4,
        conditioning: cond,
        dropout: 0.1,
        use_char_cnn: true,
        encoder: fewner_models::backbone::EncoderKind::BiGru,
        head: HeadKind::Dense { n_ways: 3 },
    }
}

fn meta() -> MetaConfig {
    MetaConfig {
        meta_lr: 1e-2,
        meta_batch: 2,
        inner_steps_train: 2,
        inner_steps_test: 4,
        ..MetaConfig::default()
    }
}

fn schedule(iters: usize) -> TrainConfig {
    TrainConfig::new(3, 1)
        .iterations(iters)
        .query_size(4)
        .seed(9)
}

#[test]
fn meta_training_improves_fewner_over_untrained() {
    let (_, split, enc) = fixture();
    let cfg = meta();
    let mut learner = Fewner::new(bb(Conditioning::Film), &enc, cfg.clone()).unwrap();

    let sampler = EpisodeSampler::new(&split.test, 3, 1, 4).unwrap();
    let tasks = sampler.eval_set(77, 12).unwrap();
    let before = evaluate(&learner, &tasks, &enc).unwrap();

    fewner::core::Trainer::new()
        .train(&mut learner, &split.train, &enc, &cfg, &schedule(200))
        .unwrap();
    let after = evaluate(&learner, &tasks, &enc).unwrap();
    assert!(
        after.mean > before.mean + 0.02,
        "training must help: {} -> {}",
        before.as_percent(),
        after.as_percent()
    );
}

#[test]
fn every_method_trains_and_produces_valid_bio() {
    let (_, split, enc) = fixture();
    let cfg = meta();
    let mut learners: Vec<Box<dyn EpisodicLearner>> = vec![
        Box::new(Fewner::new(bb(Conditioning::Film), &enc, cfg.clone()).unwrap()),
        Box::new(Maml::new(bb(Conditioning::None), &enc, cfg.clone()).unwrap()),
        Box::new(FineTuneLearner::new(bb(Conditioning::None), &enc, cfg.clone()).unwrap()),
        Box::new(ProtoLearner::new(bb(Conditioning::None), &enc, cfg.clone()).unwrap()),
        Box::new(
            SnailLearner::new(
                bb(Conditioning::None),
                SnailConfig::default_for(3),
                &enc,
                cfg.clone(),
            )
            .unwrap(),
        ),
        Box::new(FrozenLmLearner::new(LmFlavor::Elmo, &enc, 3, cfg.clone()).unwrap()),
    ];

    let sampler = EpisodeSampler::new(&split.train, 3, 1, 4).unwrap();
    let mut rng = Rng::new(5);
    let batch: Vec<_> = (0..2).map(|_| sampler.sample(&mut rng).unwrap()).collect();
    let eval_sampler = EpisodeSampler::new(&split.test, 3, 1, 4).unwrap();
    let task = &eval_sampler.eval_set(7, 1).unwrap()[0];
    let tags = task.tag_set();

    for learner in &mut learners {
        let loss = fewner::core::serial_meta_step(learner.as_mut(), &batch, &enc).unwrap();
        assert!(loss.is_finite(), "{}", learner.name());
        let preds = learner.adapt_and_predict(task, &enc).unwrap();
        assert_eq!(preds.len(), task.query.len(), "{}", learner.name());
        for (pred_idx, sent) in preds.iter().zip(&task.query) {
            assert_eq!(pred_idx.len(), sent.len(), "{}", learner.name());
            // CRF-decoding methods are BIO-valid by construction; token
            // classifiers may emit stray I-tags, which lenient span
            // decoding must still handle without panicking.
            let pred: Vec<Tag> = pred_idx.iter().map(|&i| tags.tag(i)).collect();
            let _ = fewner::text::tags_to_spans(&pred);
        }
    }
}

#[test]
fn fewner_adaptation_touches_only_phi() {
    let (_, split, enc) = fixture();
    let cfg = meta();
    let mut learner = Fewner::new(bb(Conditioning::Film), &enc, cfg.clone()).unwrap();
    fewner::core::Trainer::new()
        .train(&mut learner, &split.train, &enc, &cfg, &schedule(10))
        .unwrap();

    let sampler = EpisodeSampler::new(&split.test, 3, 1, 4).unwrap();
    let tasks = sampler.eval_set(31, 4).unwrap();
    let theta_before = learner.theta.snapshot();
    for task in &tasks {
        learner.adapt_and_predict(task, &enc).unwrap();
    }
    assert_eq!(theta_before, learner.theta.snapshot());
}

#[test]
fn fixed_eval_seed_gives_identical_scores_across_runs() {
    let (_, split, enc) = fixture();
    let cfg = meta();
    let mut learner = Fewner::new(bb(Conditioning::Film), &enc, cfg.clone()).unwrap();
    fewner::core::Trainer::new()
        .train(&mut learner, &split.train, &enc, &cfg, &schedule(15))
        .unwrap();

    let sampler = EpisodeSampler::new(&split.test, 3, 1, 4).unwrap();
    let a = evaluate(&learner, &sampler.eval_set(123, 8).unwrap(), &enc).unwrap();
    let b = evaluate(&learner, &sampler.eval_set(123, 8).unwrap(), &enc).unwrap();
    assert_eq!(a.mean, b.mean);
    assert_eq!(a.ci95, b.ci95);
}

#[test]
fn parallel_evaluation_matches_serial_on_trained_model() {
    let (_, split, enc) = fixture();
    let cfg = meta();
    let mut learner = Fewner::new(bb(Conditioning::Film), &enc, cfg.clone()).unwrap();
    fewner::core::Trainer::new()
        .train(&mut learner, &split.train, &enc, &cfg, &schedule(10))
        .unwrap();
    let sampler = EpisodeSampler::new(&split.test, 3, 1, 4).unwrap();
    let tasks = sampler.eval_set(5, 6).unwrap();
    // `evaluate` fans the episodes out over every core; the serial loop is
    // the reference, bit for bit.
    let serial: Vec<f64> = tasks
        .iter()
        .map(|task| fewner::eval::score_task(&learner, task, &enc).unwrap())
        .collect();
    let expected = fewner::util::ci95(&serial);
    let got = evaluate(&learner, &tasks, &enc).unwrap();
    assert_eq!(got.mean.to_bits(), expected.mean.to_bits());
    assert_eq!(got.ci95.to_bits(), expected.ci95.to_bits());
    assert_eq!(got.n, tasks.len());
}

#[test]
fn bilstm_encoder_is_a_drop_in_replacement() {
    // The paper's model-agnosticism claim: swap the BiGRU for a BiLSTM and
    // the whole meta-learning pipeline must run unchanged.
    let (_, split, enc) = fixture();
    let cfg = meta();
    let lstm_bb = BackboneConfig {
        encoder: EncoderKind::BiLstm,
        ..bb(Conditioning::Film)
    };
    let mut learner = Fewner::new(lstm_bb, &enc, cfg.clone()).unwrap();
    fewner::core::Trainer::new()
        .train(&mut learner, &split.train, &enc, &cfg, &schedule(20))
        .unwrap();
    let sampler = EpisodeSampler::new(&split.test, 3, 1, 4).unwrap();
    let score = evaluate(&learner, &sampler.eval_set(9, 5).unwrap(), &enc).unwrap();
    assert!((0.0..=1.0).contains(&score.mean));
    // Parameter names reflect the encoder choice.
    assert!(learner.theta.get("bilstm.fwd.wx").is_some());
    assert!(learner.theta.get("bigru.fwd.wx").is_none());
}

#[test]
fn whole_pipeline_works_on_cross_domain_data() {
    // GENIA-profile source, BioNLP-profile target, full-view training.
    let source = DatasetProfile::genia().generate(0.015).unwrap();
    let target = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
    let train = full_view(&source);
    let (_val, test) = holdout_target(&target, 11).unwrap();
    let spec = EmbeddingSpec {
        dim: 20,
        ..EmbeddingSpec::default()
    };
    let enc = TokenEncoder::build(&[&source, &target], &spec, 4);
    let cfg = meta();
    let mut learner = Fewner::new(bb(Conditioning::Film), &enc, cfg.clone()).unwrap();
    fewner::core::Trainer::new()
        .train(&mut learner, &train, &enc, &cfg, &schedule(10))
        .unwrap();
    let sampler = EpisodeSampler::new(&test, 3, 1, 4).unwrap();
    let score = evaluate(&learner, &sampler.eval_set(3, 5).unwrap(), &enc).unwrap();
    assert!((0.0..=1.0).contains(&score.mean));
}
