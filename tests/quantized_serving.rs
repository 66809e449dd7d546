//! End-to-end F1-delta tolerance suite for quantized θ serving.
//!
//! Decoding is otherwise pinned bitwise (one kernel per op, shared by the
//! tape and `Infer`); quantized weights (`--weights f16|i8`) are the one
//! deliberately *lossy* serving configuration, so their contract is an F1
//! budget instead: a meta-trained model evaluated with f16- or i8-rounded θ
//! must score within a pinned delta of the f32 baseline on held-out
//! episodes. The budgets here (and the bitwise tier) are documented in
//! DESIGN.md §5h.

use fewner::core::Checkpoint;
use fewner::prelude::*;
use fewner::tensor::WeightFormat;

/// Maximum allowed |F1(quantized) − F1(f32)| per format. f16 carries 11
/// bit mantissas — rounding is far below the model's own noise floor; i8
/// keeps ~7 bits per row and gets a wider (but still small) budget.
const F16_F1_BUDGET: f64 = 0.01;
const I8_F1_BUDGET: f64 = 0.03;

struct Trained {
    learner: Fewner,
    enc: TokenEncoder,
    tasks: Vec<fewner::episode::Task>,
}

fn train_small() -> Trained {
    let data = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
    let split = split_types(&data, (8, 3, 5), 42).unwrap();
    let spec = EmbeddingSpec {
        dim: 20,
        ..EmbeddingSpec::default()
    };
    let enc = TokenEncoder::build(&[&data], &spec, 4);
    let bb = BackboneConfig {
        word_dim: 20,
        char_dim: 8,
        char_filters: 6,
        char_widths: vec![2, 3],
        hidden: 12,
        phi_dim: 10,
        slot_ctx_dim: 4,
        conditioning: Conditioning::Film,
        dropout: 0.1,
        use_char_cnn: true,
        encoder: fewner_models::backbone::EncoderKind::BiGru,
        head: HeadKind::Dense { n_ways: 3 },
    };
    let cfg = MetaConfig {
        meta_lr: 1e-2,
        meta_batch: 2,
        inner_steps_train: 2,
        inner_steps_test: 4,
        ..MetaConfig::default()
    };
    let mut learner = Fewner::new(bb, &enc, cfg.clone()).unwrap();
    fewner::core::Trainer::new()
        .train(
            &mut learner,
            &split.train,
            &enc,
            &cfg,
            &TrainConfig::new(3, 1).iterations(120).query_size(4).seed(9),
        )
        .unwrap();
    let sampler = EpisodeSampler::new(&split.test, 3, 1, 4).unwrap();
    let tasks = sampler.eval_set(77, 10).unwrap();
    Trained {
        learner,
        enc,
        tasks,
    }
}

#[test]
fn quantized_theta_stays_within_the_f1_budget() {
    let mut t = train_small();
    let baseline = evaluate(&t.learner, &t.tasks, &t.enc).unwrap();
    assert!(baseline.mean.is_finite());

    let pristine = t.learner.theta.snapshot();
    for (format, budget) in [
        (WeightFormat::F16, F16_F1_BUDGET),
        (WeightFormat::I8, I8_F1_BUDGET),
    ] {
        t.learner.theta.quantize_all(format);
        let quantized = evaluate(&t.learner, &t.tasks, &t.enc).unwrap();
        let delta = (quantized.mean - baseline.mean).abs();
        assert!(
            delta <= budget,
            "{}: F1 {} vs f32 baseline {} — delta {delta:.4} exceeds budget {budget}",
            format.name(),
            quantized.as_percent(),
            baseline.as_percent()
        );
        t.learner.theta.restore(&pristine).unwrap();
    }

    // Restoring really undid the rounding: the baseline reproduces exactly.
    let again = evaluate(&t.learner, &t.tasks, &t.enc).unwrap();
    assert_eq!(again.mean, baseline.mean);
}

/// Serving a quantized checkpoint *file* and quantizing in memory
/// (`--weights`) are the same thing: identical θ, identical scores.
#[test]
fn quantized_checkpoint_file_equals_in_memory_quantization() {
    let mut t = train_small();
    let dir = std::env::temp_dir().join(format!("fewner-quant-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for format in [WeightFormat::F16, WeightFormat::I8] {
        let path = dir.join(format!("model.{}.json", format.name()));
        Checkpoint::capture(&t.learner)
            .save_with_weights(&path, format)
            .unwrap();
        let from_file = Checkpoint::load(&path).unwrap().restore(&t.enc).unwrap();

        let pristine = t.learner.theta.snapshot();
        t.learner.theta.quantize_all(format);
        assert_eq!(
            t.learner.theta.snapshot(),
            from_file.theta.snapshot(),
            "{}: file path and in-memory path must agree bitwise",
            format.name()
        );
        let a = evaluate(&t.learner, &t.tasks, &t.enc).unwrap();
        let b = evaluate(&from_file, &t.tasks, &t.enc).unwrap();
        assert_eq!(a.mean, b.mean, "{}", format.name());
        t.learner.theta.restore(&pristine).unwrap();
    }
    std::fs::remove_dir_all(dir).ok();
}
