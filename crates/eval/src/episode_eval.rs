//! Evaluating a learner over the fixed episode set.
//!
//! For each held-out task: adapt on the support set, predict the query set,
//! score entity-level F1 (§4.1.1); report mean ± 1.96·σ/√n over episodes.
//! All methods are scored on the same seed-fixed task list, exactly as the
//! paper fixes the evaluation seed (§4.2.1).
//!
//! Episodes are independent and adaptation never mutates the learner, so
//! [`score_tasks`] scores them on every core through [`par::map_ordered`];
//! the scores come back in episode order, so [`evaluate`]'s summary is
//! bitwise the one a serial loop over the episodes computes.

use fewner_core::EpisodicLearner;
use fewner_episode::Task;
use fewner_models::TokenEncoder;
use fewner_text::Tag;
use fewner_util::{ci95, par, MeanCi, Result};

use crate::f1::F1Counts;

/// Scores one task: adapt + predict + entity-level F1.
pub fn score_task(learner: &dyn EpisodicLearner, task: &Task, enc: &TokenEncoder) -> Result<f64> {
    let predictions = learner.adapt_and_predict(task, enc)?;
    let tags = task.tag_set();
    let mut counts = F1Counts::default();
    for (pred_idx, sent) in predictions.iter().zip(&task.query) {
        let pred: Vec<Tag> = pred_idx.iter().map(|&i| tags.tag(i)).collect();
        counts.add_tags(&sent.tags, &pred);
    }
    Ok(counts.f1())
}

/// Scores every task on all cores: one entity F1 per task, in task order
/// (the input to paired significance testing, since the episode set is
/// seed-fixed and scores of different methods align by index). The error
/// returned is the first task's in task order; a panicking worker
/// surfaces as [`fewner_util::Error::WorkerPanic`].
pub fn score_tasks(
    learner: &(dyn EpisodicLearner + Sync),
    tasks: &[Task],
    enc: &TokenEncoder,
) -> Result<Vec<f64>> {
    par::map_ordered(tasks, 0, "episode evaluation", |task| {
        score_task(learner, task, enc)
    })
}

/// Evaluates a learner over an episode set: [`score_tasks`] summarised
/// with [`ci95`].
pub fn evaluate(
    learner: &(dyn EpisodicLearner + Sync),
    tasks: &[Task],
    enc: &TokenEncoder,
) -> Result<MeanCi> {
    Ok(ci95(&score_tasks(learner, tasks, enc)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fewner_corpus::{split_types, DatasetProfile};
    use fewner_episode::EpisodeSampler;
    use fewner_text::embed::EmbeddingSpec;
    use fewner_util::Rng;

    use fewner_core::TaskOutcome;
    use fewner_tensor::{ParamGrads, ParamStore};

    fn zero_outcome() -> TaskOutcome {
        TaskOutcome {
            loss: 0.0,
            grads: ParamGrads::zeros_like(&ParamStore::new()),
        }
    }

    /// An oracle learner that returns the gold tags — F1 must be 1.0.
    struct Oracle;
    impl EpisodicLearner for Oracle {
        fn name(&self) -> &'static str {
            "oracle"
        }
        fn task_grad(
            &self,
            _t: &Task,
            _e: &TokenEncoder,
            _rng: &mut fewner_util::Rng,
        ) -> Result<TaskOutcome> {
            Ok(zero_outcome())
        }
        fn apply_meta_grads(&mut self, _grads: ParamGrads, _n: usize) -> Result<()> {
            Ok(())
        }
        fn adapt_and_predict(&self, task: &Task, _e: &TokenEncoder) -> Result<Vec<Vec<usize>>> {
            let tags = task.tag_set();
            Ok(task
                .query
                .iter()
                .map(|s| s.tags.iter().map(|&t| tags.index(t)).collect())
                .collect())
        }
    }

    /// Predicts all-O — recall 0, so F1 0 whenever gold entities exist.
    struct AllO;
    impl EpisodicLearner for AllO {
        fn name(&self) -> &'static str {
            "all-o"
        }
        fn task_grad(
            &self,
            _t: &Task,
            _e: &TokenEncoder,
            _rng: &mut fewner_util::Rng,
        ) -> Result<TaskOutcome> {
            Ok(zero_outcome())
        }
        fn apply_meta_grads(&mut self, _grads: ParamGrads, _n: usize) -> Result<()> {
            Ok(())
        }
        fn adapt_and_predict(&self, task: &Task, _e: &TokenEncoder) -> Result<Vec<Vec<usize>>> {
            Ok(task.query.iter().map(|s| vec![0; s.len()]).collect())
        }
    }

    fn fixture() -> (Vec<Task>, TokenEncoder) {
        let d = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
        let split = split_types(&d, (8, 3, 5), 1).unwrap();
        let sampler = EpisodeSampler::new(&split.test, 3, 1, 4).unwrap();
        let tasks = sampler.eval_set(55, 6).unwrap();
        let enc = TokenEncoder::build(
            &[&d],
            &EmbeddingSpec {
                dim: 16,
                ..EmbeddingSpec::default()
            },
            4,
        );
        (tasks, enc)
    }

    #[test]
    fn oracle_scores_one() {
        let (tasks, enc) = fixture();
        let s = evaluate(&Oracle, &tasks, &enc).unwrap();
        assert!((s.mean - 1.0).abs() < 1e-12, "{s}");
        assert_eq!(s.n, 6);
    }

    #[test]
    fn all_o_scores_zero() {
        let (tasks, enc) = fixture();
        let s = evaluate(&AllO, &tasks, &enc).unwrap();
        assert_eq!(s.mean, 0.0, "{s}");
    }

    /// Gold tags on every other query sentence, all-O on the rest, so the
    /// F1 differs from task to task.
    struct HalfOracle;
    impl EpisodicLearner for HalfOracle {
        fn name(&self) -> &'static str {
            "half-oracle"
        }
        fn task_grad(
            &self,
            _t: &Task,
            _e: &TokenEncoder,
            _rng: &mut fewner_util::Rng,
        ) -> Result<TaskOutcome> {
            Ok(zero_outcome())
        }
        fn apply_meta_grads(&mut self, _grads: ParamGrads, _n: usize) -> Result<()> {
            Ok(())
        }
        fn adapt_and_predict(&self, task: &Task, e: &TokenEncoder) -> Result<Vec<Vec<usize>>> {
            let mut preds = Oracle.adapt_and_predict(task, e)?;
            for pred in preds.iter_mut().skip(1).step_by(2) {
                pred.fill(0);
            }
            Ok(preds)
        }
    }

    #[test]
    fn evaluate_is_a_serial_score_loop_bit_for_bit() {
        let (tasks, enc) = fixture();
        let serial: Vec<f64> = tasks
            .iter()
            .map(|task| score_task(&HalfOracle, task, &enc).unwrap())
            .collect();
        assert!(
            serial.iter().any(|&f1| f1 != serial[0]),
            "the fixture must give differing scores: {serial:?}"
        );
        assert_eq!(score_tasks(&HalfOracle, &tasks, &enc).unwrap(), serial);
        let expected = ci95(&serial);
        let got = evaluate(&HalfOracle, &tasks, &enc).unwrap();
        assert_eq!(got.mean.to_bits(), expected.mean.to_bits());
        assert_eq!(got.ci95.to_bits(), expected.ci95.to_bits());
        assert_eq!(got.n, tasks.len());
    }

    #[test]
    fn rng_unused_fixture_is_deterministic() {
        let (a, _) = fixture();
        let (b, _) = fixture();
        assert_eq!(a.len(), b.len());
        let mut rng = Rng::new(1);
        let _ = rng.next_u64();
        assert_eq!(a[0].slot_types, b[0].slot_types);
    }
}
