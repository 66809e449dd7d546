//! Compile-pins the prelude surface.
//!
//! This test imports **only** from `fewner::prelude` and touches every name
//! the prelude exports. If a re-export is dropped (or a type stops being
//! constructible the documented way), this file stops compiling — making
//! prelude changes a deliberate, reviewed act rather than collateral damage.

use fewner::prelude::*;

/// Mentioning each type in a signature pins the re-export at compile time
/// without needing runtime values for all of them.
#[allow(dead_code, clippy::too_many_arguments)]
fn surface_pins(
    _fewner: &Fewner,
    _ctx: &AdaptedCtx,
    _maml: &Maml,
    _fine: &FineTuneLearner,
    _proto: &ProtoLearner,
    _snail: &SnailLearner,
    _frozen: &FrozenLmLearner,
    _learner: &dyn EpisodicLearner,
    _backbone: &Backbone,
    _server: &Server,
    _task: &Task,
    _sampler: &EpisodeSampler,
    _counts: &F1Counts,
    _throughput: &Throughput,
    _summary: &TraceSummary,
    _log: &TrainingLog,
    _second: SecondOrder,
    _cond: Conditioning,
    _enc_kind: EncoderKind,
    _head: HeadKind,
    _lm: LmFlavor,
    _snail_cfg: &SnailConfig,
    _genre: Genre,
    _ace: AceDomain,
) {
    // Free functions from the prelude, pinned by name (impl-Trait arguments
    // keep them out of fn-pointer position, so wrap the mentions).
    let _ = Trainer::new;
    let _ = evaluate;
    let _ = |f: fn() -> fewner::Result<Vec<Vec<usize>>>| measure_predictions(f);
    let _ = |tokens: &[String], gold: &[Tag], pred: &[Tag]| {
        qualitative_line(tokens, gold, pred, |slot| slot.to_string())
    };
    let _ = split_types;
    let _ = split_sentences;
    let _ = full_view;
    let _ = holdout_target;
}

#[test]
fn prelude_values_construct() {
    // Construct everything that is cheap to construct, through the prelude
    // names alone.
    let opts = ServeOptions::new()
        .cache(CachePolicy::lru(8).ttl_secs(60))
        .batch(16);
    assert_eq!(opts.batch_size(), 16);
    let cfg = ServerConfig::new().workers(2).queue_limit(8);
    assert_eq!(cfg.workers, 2);
    let support = SupportSentence {
        tokens: vec!["flu".to_string()],
        tags: vec![Tag::parse("B-0").unwrap()],
    };
    assert_eq!(support.tags[0], Tag::B(0));
    let tags = TagSet::new(3).unwrap();
    assert_eq!(tags.len(), 7);
    let _rng = Rng::new(7);
    let _meta = MetaConfig::default();
    let _train_cfg = TrainConfig::new(5, 1).iterations(1);
    let _spec = EmbeddingSpec::default();
    let _bb = BackboneConfig::default_for(3);
    let _tracer = Tracer::disabled();
    let _profile = DatasetProfile::genia();
}
