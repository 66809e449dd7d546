//! MAML baseline (paper §4.1.2; Finn et al.).
//!
//! Identical protocol to FEWNER but with *no* θ/φ split: the inner loop
//! adapts a copy of the **entire network** on the support set, and test-time
//! adaptation does the same — the paper's argument for why MAML both
//! overfits on K-shot support sets and costs more per adaptation. We use
//! the standard first-order approximation (query gradients evaluated at the
//! adapted parameters are applied to the initialisation), which is also
//! what makes the cost comparison in §4.5.2 fair.
//!
//! A cloned [`ParamStore`] keeps its identity, so gradients computed
//! against the adapted copy can be applied to the original directly.

use fewner_episode::Task;
use fewner_models::{encode_task, Backbone, BackboneConfig, LabeledSentence, TokenEncoder};
use fewner_tensor::{Adam, Exec, Graph, ParamStore, SavedAdam, SavedParams, Sgd};
use fewner_text::TagSet;
use fewner_util::{Error, FromJson, Json, Result, Rng, ToJson};

use crate::config::MetaConfig;
use crate::learner::{EpisodicLearner, TaskOutcome};

/// The MAML meta-learner over the same CNN-BiGRU-CRF backbone.
pub struct Maml {
    /// The backbone (built with `Conditioning::None`).
    pub backbone: Backbone,
    /// Meta-initialisation θ.
    pub theta: ParamStore,
    cfg: MetaConfig,
    opt: Adam,
    rng: Rng,
}

impl Maml {
    /// Builds the learner; the backbone must be conditioning-free.
    pub fn new(bb_cfg: BackboneConfig, enc: &TokenEncoder, cfg: MetaConfig) -> Result<Maml> {
        cfg.validate()?;
        if bb_cfg.conditioning != fewner_models::Conditioning::None {
            return Err(Error::InvalidConfig(
                "MAML adapts the whole network; use Conditioning::None".into(),
            ));
        }
        let mut rng = Rng::new(cfg.seed ^ 0x4D41_4D4C);
        let mut theta = ParamStore::new();
        let backbone = Backbone::new(bb_cfg, enc, &mut theta, &mut rng)?;
        let opt = Adam::new(cfg.meta_lr)
            .with_clip(cfg.clip)
            .with_weight_decay(cfg.l2);
        Ok(Maml {
            backbone,
            theta,
            cfg,
            opt,
            rng,
        })
    }

    /// Inner loop: SGD on a *copy* of the full parameter set.
    fn adapt_full(
        &self,
        support: &[LabeledSentence],
        tags: &TagSet,
        steps: usize,
    ) -> Result<ParamStore> {
        let mut adapted = self.theta.clone();
        let mut sgd = Sgd::new(self.cfg.inner_lr);
        let mut rng = Rng::new(0);
        for _ in 0..steps {
            let g = Graph::eval(); // inner loop: dropout off, gradients on
            let loss = self
                .backbone
                .batch_loss(&g, &adapted, None, support, tags, &mut rng);
            let grads = g.backward(loss)?.for_store(&adapted);
            sgd.step(&mut adapted, &grads)?;
        }
        Ok(adapted)
    }
}

impl EpisodicLearner for Maml {
    fn name(&self) -> &'static str {
        "MAML"
    }

    fn step_seed(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn task_grad(&self, task: &Task, enc: &TokenEncoder, rng: &mut Rng) -> Result<TaskOutcome> {
        let tags = task.tag_set();
        let (support, query) = encode_task(enc, task);
        let adapted = self.adapt_full(&support, &tags, self.cfg.inner_steps_train)?;
        let g = Graph::new(); // training mode: dropout active
        let loss = self
            .backbone
            .batch_loss(&g, &adapted, None, &query, &tags, rng);
        let loss_value = g.value(loss).scalar_value();
        // First-order MAML: gradients at θ′ applied to θ (same store id).
        Ok(TaskOutcome {
            loss: loss_value,
            grads: g.backward(loss)?.for_store(&adapted),
        })
    }

    fn apply_meta_grads(
        &mut self,
        mut grads: fewner_tensor::ParamGrads,
        n_tasks: usize,
    ) -> Result<()> {
        grads.scale(1.0 / n_tasks.max(1) as f32);
        self.opt.step(&mut self.theta, &grads)
    }

    fn adapt_and_predict(&self, task: &Task, enc: &TokenEncoder) -> Result<Vec<Vec<usize>>> {
        let tags = task.tag_set();
        let (support, query) = encode_task(enc, task);
        let adapted = self.adapt_full(&support, &tags, self.cfg.inner_steps_test)?;
        Ok(self
            .backbone
            .decode_task(&adapted, None, query.iter().map(|(sent, _)| sent), &tags))
    }

    fn decay_lr(&mut self, factor: f32) {
        self.opt.decay_lr(factor);
    }

    fn export_state(&self) -> Option<Json> {
        Some(Json::Obj(vec![
            ("theta".into(), self.theta.to_saved().to_json()),
            ("opt".into(), self.opt.to_saved().to_json()),
            ("rng".into(), self.rng.to_json()),
        ]))
    }

    fn import_state(&mut self, state: &Json) -> Result<()> {
        self.theta
            .load_saved(&SavedParams::from_json(state.field("theta")?)?)?;
        self.opt
            .load_saved(&SavedAdam::from_json(state.field("opt")?)?);
        self.rng = Rng::from_json(state.field("rng")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fewner_corpus::{split_types, DatasetProfile};
    use fewner_episode::EpisodeSampler;
    use fewner_models::Conditioning;
    use fewner_text::embed::EmbeddingSpec;

    fn setup() -> (TokenEncoder, Vec<Task>, Maml) {
        let d = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
        let split = split_types(&d, (8, 3, 5), 1).unwrap();
        let sampler = EpisodeSampler::new(&split.train, 3, 1, 4).unwrap();
        let mut rng = Rng::new(5);
        let tasks: Vec<Task> = (0..2).map(|_| sampler.sample(&mut rng).unwrap()).collect();
        let enc = TokenEncoder::build(
            &[&d],
            &EmbeddingSpec {
                dim: 20,
                ..EmbeddingSpec::default()
            },
            4,
        );
        let bb_cfg = BackboneConfig {
            word_dim: 20,
            char_dim: 8,
            char_filters: 6,
            char_widths: vec![2, 3],
            hidden: 10,
            phi_dim: 0,
            slot_ctx_dim: 0,
            conditioning: Conditioning::None,
            dropout: 0.1,
            use_char_cnn: true,
            encoder: fewner_models::backbone::EncoderKind::BiGru,
            head: fewner_models::HeadKind::Dense { n_ways: 3 },
        };
        let maml = Maml::new(bb_cfg, &enc, MetaConfig::default()).unwrap();
        (enc, tasks, maml)
    }

    #[test]
    fn meta_step_updates_theta() {
        let (enc, tasks, mut maml) = setup();
        let before = maml.theta.snapshot();
        let loss = crate::serial_meta_step(&mut maml, &tasks, &enc).unwrap();
        assert!(loss.is_finite());
        assert!(before
            .iter()
            .zip(&maml.theta.snapshot())
            .any(|(a, b)| a != b));
    }

    #[test]
    fn test_adaptation_does_not_mutate_the_initialisation() {
        let (enc, tasks, maml) = setup();
        let before = maml.theta.snapshot();
        let preds = maml.adapt_and_predict(&tasks[0], &enc).unwrap();
        assert_eq!(before, maml.theta.snapshot());
        assert_eq!(preds.len(), tasks[0].query.len());
    }

    #[test]
    fn conditioned_backbone_is_rejected() {
        let (enc, _, _) = setup();
        let bb_cfg = BackboneConfig {
            word_dim: 20,
            conditioning: Conditioning::Film,
            ..BackboneConfig::default_for(3)
        };
        assert!(Maml::new(bb_cfg, &enc, MetaConfig::default()).is_err());
    }

    #[test]
    fn inner_adaptation_moves_the_copy() {
        let (enc, tasks, maml) = setup();
        let tags = tasks[0].tag_set();
        let (support, _) = encode_task(&enc, &tasks[0]);
        let adapted = maml.adapt_full(&support, &tags, 2).unwrap();
        let orig = maml.theta.snapshot();
        let new = adapted.snapshot();
        assert!(orig.iter().zip(&new).any(|(a, b)| a != b));
    }
}
