//! # FEWNER — Few-Shot Named Entity Recognition via Meta-Learning
//!
//! A complete, from-scratch Rust reproduction of *Few-Shot Named Entity
//! Recognition via Meta-Learning* (Li, Chiu, Feng & Wang): the N-way K-shot
//! episodic formulation for sequence labeling, the CNN-BiGRU-CRF backbone,
//! the FEWNER meta-learner (task-independent θ / low-dimensional
//! task-specific context parameters φ), all nine baselines, synthetic
//! corpora standing in for the six licensed datasets, and a benchmark
//! harness regenerating every table in the paper's evaluation.
//!
//! This crate is a facade: it re-exports the workspace's layers.
//!
//! | layer | crate | what it provides |
//! |---|---|---|
//! | [`util`] | `fewner-util` | portable RNG, episode statistics, errors |
//! | [`tensor`] | `fewner-tensor` | arrays, reverse-mode autodiff, layers, optimizers |
//! | [`text`] | `fewner-text` | sentences, BIO tags, spans, vocabularies, embeddings |
//! | [`corpus`] | `fewner-corpus` | the six synthetic dataset profiles + splits |
//! | [`episode`] | `fewner-episode` | greedy-including N-way K-shot task sampling |
//! | [`models`] | `fewner-models` | backbone, CRFs, ProtoNet, SNAIL, frozen LMs |
//! | [`core`] | `fewner-core` | FEWNER (Algorithm 1), MAML, trainers |
//! | [`eval`] | `fewner-eval` | entity-level F1, episode evaluation, reports |
//! | [`obs`] | `fewner-obs` | structured tracing + metrics (spans, sinks, summaries) |
//! | [`serve`] | `fewner-serve` | multi-tenant daemon: φ-cache, micro-batching, NDJSON protocol |
//!
//! ## Quickstart
//!
//! ```
//! use fewner::prelude::*;
//!
//! // 1. A corpus (tiny scale for the doctest) and a type-disjoint split.
//! let data = DatasetProfile::bionlp13cg().generate(0.02)?;
//! let split = split_types(&data, (8, 3, 5), 42)?;
//!
//! // 2. Token encoder with synthetic pre-trained embeddings.
//! let spec = EmbeddingSpec { dim: 20, ..EmbeddingSpec::default() };
//! let enc = TokenEncoder::build(&[&data], &spec, 4);
//!
//! // 3. FEWNER: a conditioned backbone + the meta-learning loop.
//! let bb = BackboneConfig {
//!     word_dim: 20,
//!     hidden: 12,
//!     phi_dim: 8,
//!     slot_ctx_dim: 4,
//!     ..BackboneConfig::default_for(3)
//! };
//! let meta = MetaConfig { meta_batch: 2, ..MetaConfig::default() };
//! let mut fewner = Fewner::new(bb, &enc, meta.clone())?;
//!
//! // 4. Meta-train on 3-way 1-shot episodes from the training types…
//! //    (`.threads(n)` fans the per-task meta-gradients across workers
//! //    without changing the result — the reduction order is fixed.)
//! let schedule = TrainConfig::new(3, 1).iterations(2).query_size(4).seed(1);
//! Trainer::new().train(&mut fewner, &split.train, &enc, &meta, &schedule)?;
//!
//! // 5. …and adapt to an unseen task: only φ changes, θ stays fixed.
//! let sampler = EpisodeSampler::new(&split.test, 3, 1, 4)?;
//! let tasks = sampler.eval_set(7, 2)?;
//! let score = evaluate(&fewner, &tasks, &enc)?;
//! assert!(score.mean >= 0.0 && score.mean <= 1.0);
//! # Ok::<(), fewner::Error>(())
//! ```

#![warn(missing_docs)]

pub use fewner_core as core;
pub use fewner_corpus as corpus;
pub use fewner_episode as episode;
pub use fewner_eval as eval;
pub use fewner_models as models;
pub use fewner_obs as obs;
pub use fewner_serve as serve;
pub use fewner_tensor as tensor;
pub use fewner_text as text;
pub use fewner_util as util;

pub mod cli;

pub use fewner_util::{Error, Result};

/// Everything needed for the common workflows, in one import.
///
/// This is the *supported* surface: a name lives here only if the examples,
/// the CLI or the docs use it for a mainline workflow (training, evaluating,
/// serving). Specialist items — bench table plumbing, low-level trainer
/// internals, per-crate helpers — are reached through their crate modules
/// (`fewner::core`, `fewner::eval`, …). `tests/prelude_surface.rs` compiles
/// against this list, so removals are a deliberate, reviewed act.
pub mod prelude {
    pub use fewner_core::{
        self, AdaptedCtx, CachePolicy, EpisodicLearner, Fewner, FineTuneLearner, FrozenLmLearner,
        Maml, MetaConfig, ProtoLearner, SecondOrder, ServeOptions, SnailLearner, TrainConfig,
        Trainer, TrainingLog,
    };
    pub use fewner_corpus::{
        full_view, holdout_target, split_sentences, split_types, AceDomain, DatasetProfile, Genre,
    };
    pub use fewner_episode::{EpisodeSampler, Task};
    pub use fewner_eval::{evaluate, measure_predictions, qualitative_line, F1Counts, Throughput};
    pub use fewner_models::{
        Backbone, BackboneConfig, Conditioning, EncoderKind, HeadKind, LmFlavor, SnailConfig,
        TokenEncoder,
    };
    pub use fewner_obs::{TraceSummary, Tracer};
    pub use fewner_serve::{Server, ServerConfig, SupportSentence};
    pub use fewner_text::embed::EmbeddingSpec;
    pub use fewner_text::{Tag, TagSet};
    pub use fewner_util::Rng;
}
