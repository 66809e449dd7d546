//! `fewner-core` — the paper's primary contribution: FEWNER, the
//! meta-learning approach for few-shot NER, plus the meta-gradient
//! baselines and the training loop.
//!
//! * [`fewner`] — Algorithm 1: inner loop on the low-dimensional context
//!   parameters φ, outer loop on the task-independent θ, test-time
//!   adaptation that touches only φ.
//! * [`second_order`] — the exact meta-gradient via finite-difference
//!   Hessian-vector products along φ.
//! * [`maml`] — full-network MAML (first-order), same backbone.
//! * [`conventional`] — FineTune, ProtoNet, SNAIL and frozen-LM learners.
//! * [`trainer`] — meta-batch loop with the paper's LR schedule, rolling
//!   training snapshots and crash-safe resumption.
//! * [`reduce`] — the canonical tree-shaped gradient reduction shared by
//!   the serial, threaded and sharded paths.
//! * [`shard`] — multi-process sharded meta-training: coordinator and
//!   worker sessions exchanging partial gradients over framed TCP.
//! * [`checkpoint`] — persist and restore θ_Meta.
//! * [`snapshot`] — full training-state snapshots behind resume.
//! * [`learner`] — the common protocol every method implements.
//! * [`serve`] — the serving surface: [`ServeOptions`], adapt-once /
//!   predict-many via first-class [`AdaptedCtx`] handles.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod conventional;
pub mod fewner;
pub mod learner;
pub mod maml;
pub mod reduce;
pub mod second_order;
pub mod serve;
pub mod shard;
pub mod snapshot;
pub mod trainer;

pub use checkpoint::Checkpoint;
pub use config::{MetaConfig, SecondOrder};
pub use conventional::{FineTuneLearner, FrozenLmLearner, ProtoLearner, SnailLearner};
pub use fewner::Fewner;
pub use learner::{serial_meta_step, task_rng, EpisodicLearner, TaskOutcome};
pub use maml::Maml;
pub use reduce::{GradPartial, GradReduce};
pub use serve::{AdaptedCtx, CachePolicy, ServeOptions};
pub use shard::{CoordinatorReport, ShardCoordinator, ShardSession};
pub use snapshot::{
    RunFingerprint, ShardScope, SnapshotEntry, StreamFingerprint, TrainingSnapshot,
};
pub use trainer::{ParallelTrainer, StreamSource, TrainConfig, Trainer, TrainingLog};
