//! The common interface every method implements.
//!
//! The paper compares ten methods under one protocol: train on episodes
//! from the source split, then for each held-out task adapt on its support
//! set and predict its query set. [`EpisodicLearner`] captures exactly that
//! protocol so the trainer, the evaluation harness and every table binary
//! treat FEWNER and all nine baselines uniformly.
//!
//! # The task-gradient API
//!
//! A meta-iteration decomposes into three phases:
//!
//! 1. [`EpisodicLearner::step_seed`] — the only serial, mutating prologue:
//!    learners that use dropout advance their RNG once per step here.
//! 2. [`EpisodicLearner::task_grad`] — the per-task compute: loss plus
//!    meta-gradients for **one** task, through `&self` with all randomness
//!    coming from the caller-provided [`Rng`]. Because it never mutates the
//!    learner, tasks of one meta-batch can run on any number of threads.
//! 3. [`EpisodicLearner::apply_meta_grads`] — the serial epilogue: the
//!    summed per-task gradients are averaged and fed to the optimizer.
//!
//! Every training step composes the three phases the same way: the
//! trainer (`fewner_core::ParallelTrainer`) fans `task_grad` across scoped
//! threads (or runs it on the calling thread) and reduces with the one
//! fixed-order code, and a shard worker does the same for its part of the
//! batch. [`serial_meta_step`] is the plain serial composition, kept as
//! the reference every path is checked against: all are bitwise-identical
//! for a fixed seed.

use fewner_episode::Task;
use fewner_models::TokenEncoder;
use fewner_tensor::ParamGrads;
use fewner_util::{Error, Json, Result, Rng};

/// What one task contributes to a meta-iteration: its query (or support)
/// loss and the unweighted meta-gradients of that loss.
#[derive(Debug, Clone)]
pub struct TaskOutcome {
    /// The task's scalar loss.
    pub loss: f32,
    /// Unweighted gradients w.r.t. the learner's meta-parameters.
    pub grads: ParamGrads,
}

impl TaskOutcome {
    /// Reduces a batch of outcomes along the canonical task-index tree:
    /// mean loss and the gradient sum (unscaled —
    /// [`EpisodicLearner::apply_meta_grads`] divides by the task count).
    ///
    /// The serial reference [`serial_meta_step`], the threaded trainer,
    /// and the sharded trainer all reduce through the one fixed plan in
    /// [`crate::reduce`]. Floating-point addition is not
    /// associative, so the shared fixed-shape reduction is precisely what
    /// makes every execution topology bitwise-identical.
    pub fn reduce(outcomes: Vec<TaskOutcome>) -> Result<(f32, ParamGrads)> {
        crate::reduce::GradReduce::new(outcomes.len())?.reduce(outcomes)
    }
}

/// The dropout/sampling RNG for task `index` of a meta-batch drawn with
/// `step_seed`.
///
/// A pure function of `(step_seed, index)`: every task gets an independent
/// stream regardless of which thread computes it or in which order, which
/// is one half of the serial/parallel bitwise-identity guarantee (the other
/// half is [`TaskOutcome::reduce`]'s fixed-order summation).
pub fn task_rng(step_seed: u64, index: usize) -> Rng {
    Rng::new(step_seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A method that learns from episodes and adapts to new tasks.
pub trait EpisodicLearner {
    /// Method name as printed in the paper's tables.
    fn name(&self) -> &'static str;

    /// Draws the base seed for one meta-iteration's task RNGs.
    ///
    /// Called exactly once per meta-step, serially, before any task work.
    /// Learners with an internal RNG override this with `rng.next_u64()` so
    /// consecutive steps see fresh dropout; the default suits learners
    /// whose `task_grad` is deterministic.
    fn step_seed(&mut self) -> u64 {
        0
    }

    /// Computes one task's loss and meta-gradients.
    ///
    /// Must not mutate the learner — all randomness comes from `rng`
    /// (derive it with [`task_rng`]), so the same `(θ, task, rng)` triple
    /// always produces the same outcome on any thread.
    fn task_grad(&self, task: &Task, enc: &TokenEncoder, rng: &mut Rng) -> Result<TaskOutcome>;

    /// Applies the summed per-task gradients of an `n_tasks`-task batch:
    /// scales by `1 / n_tasks` and takes one optimizer step.
    fn apply_meta_grads(&mut self, grads: ParamGrads, n_tasks: usize) -> Result<()>;

    /// Adapts to a held-out task on its support set and predicts tag
    /// indices for every query sentence.
    ///
    /// Must not mutate the learner: test-time adaptation happens on copies
    /// (or, for FEWNER, on the throwaway context parameters φ).
    fn adapt_and_predict(&self, task: &Task, enc: &TokenEncoder) -> Result<Vec<Vec<usize>>>;

    /// Learning-rate decay hook (×`factor`), driven by the trainer.
    fn decay_lr(&mut self, _factor: f32) {}

    /// Captures everything mutable the learner owns — parameters,
    /// optimizer moments, internal RNG position — as one JSON document, so
    /// a training snapshot can restore the learner mid-run. `None` (the
    /// default) marks the learner as not checkpointable; `train` with
    /// `checkpoint_every` set will refuse it up front.
    fn export_state(&self) -> Option<Json> {
        None
    }

    /// Restores state captured by [`EpisodicLearner::export_state`] into a
    /// freshly constructed learner of the *same architecture and
    /// configuration*. The default rejects the import (matching the
    /// default `export_state`).
    fn import_state(&mut self, _state: &Json) -> Result<()> {
        Err(Error::InvalidConfig(format!(
            "{} does not support training-state import",
            self.name()
        )))
    }
}

/// One meta-iteration over a batch of training tasks, computed serially;
/// returns the iteration's mean task loss.
///
/// Composes [`EpisodicLearner::step_seed`], [`EpisodicLearner::task_grad`]
/// per task in index order and [`EpisodicLearner::apply_meta_grads`]. This
/// is the reference the trainer is checked against: a training step
/// (`fewner_core::ParallelTrainer::meta_step`, at any thread count, or a
/// sharded round) must leave bitwise the same θ.
pub fn serial_meta_step<L>(learner: &mut L, tasks: &[Task], enc: &TokenEncoder) -> Result<f32>
where
    L: EpisodicLearner + ?Sized,
{
    if tasks.is_empty() {
        return Err(Error::InvalidConfig("empty meta batch".into()));
    }
    let step_seed = learner.step_seed();
    let mut outcomes = Vec::with_capacity(tasks.len());
    for (index, task) in tasks.iter().enumerate() {
        let mut rng = task_rng(step_seed, index);
        outcomes.push(learner.task_grad(task, enc, &mut rng)?);
    }
    let (loss, grads) = TaskOutcome::reduce(outcomes)?;
    learner.apply_meta_grads(grads, tasks.len())?;
    Ok(loss)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_rng_is_pure_and_per_index() {
        let a = task_rng(42, 0).next_u64();
        let b = task_rng(42, 0).next_u64();
        assert_eq!(a, b, "same (seed, index) must give the same stream");
        let c = task_rng(42, 1).next_u64();
        assert_ne!(a, c, "different indices must give different streams");
        let d = task_rng(43, 0).next_u64();
        assert_ne!(a, d, "different step seeds must give different streams");
    }

    #[test]
    fn reduce_rejects_empty_batches_and_averages_losses() {
        assert!(TaskOutcome::reduce(Vec::new()).is_err());
        let store = fewner_tensor::ParamStore::new();
        let outcomes = vec![
            TaskOutcome {
                loss: 1.0,
                grads: ParamGrads::zeros_like(&store),
            },
            TaskOutcome {
                loss: 3.0,
                grads: ParamGrads::zeros_like(&store),
            },
        ];
        let (loss, _) = TaskOutcome::reduce(outcomes).unwrap();
        assert_eq!(loss, 2.0);
    }
}
