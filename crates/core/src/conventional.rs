//! The non-meta-gradient baselines behind the common learner interface:
//! FineTune, ProtoNet, SNAIL and the five frozen-LM substitutes (§4.1.2).

use fewner_episode::Task;
use fewner_models::{
    encode_task, Backbone, BackboneConfig, FrozenLm, LmFlavor, ProtoNet, Snail, SnailConfig,
    TokenEncoder,
};
use fewner_tensor::{Adam, Exec, Graph, ParamStore, Sgd};
use fewner_util::{Error, Result, Rng};

use crate::config::MetaConfig;
use crate::learner::{EpisodicLearner, TaskOutcome};

fn conditioning_free(bb_cfg: &BackboneConfig) -> Result<()> {
    if bb_cfg.conditioning != fewner_models::Conditioning::None {
        return Err(Error::InvalidConfig(
            "baseline backbones must use Conditioning::None".into(),
        ));
    }
    Ok(())
}

/// FineTune: conventional supervised training on the support sets of
/// training tasks, full-network fine-tuning on the test support set.
pub struct FineTuneLearner {
    /// The backbone.
    pub backbone: Backbone,
    /// Trained parameters.
    pub theta: ParamStore,
    cfg: MetaConfig,
    opt: Adam,
    rng: Rng,
}

impl FineTuneLearner {
    /// Builds the learner.
    pub fn new(bb_cfg: BackboneConfig, enc: &TokenEncoder, cfg: MetaConfig) -> Result<Self> {
        cfg.validate()?;
        conditioning_free(&bb_cfg)?;
        let mut rng = Rng::new(cfg.seed ^ 0x46_54);
        let mut theta = ParamStore::new();
        let backbone = Backbone::new(bb_cfg, enc, &mut theta, &mut rng)?;
        let opt = Adam::new(cfg.meta_lr)
            .with_clip(cfg.clip)
            .with_weight_decay(cfg.l2);
        Ok(FineTuneLearner {
            backbone,
            theta,
            cfg,
            opt,
            rng,
        })
    }
}

impl EpisodicLearner for FineTuneLearner {
    fn name(&self) -> &'static str {
        "FineTune"
    }

    fn step_seed(&mut self) -> u64 {
        self.rng.next_u64()
    }

    // Plain supervised step on the tasks' support sets.
    fn task_grad(&self, task: &Task, enc: &TokenEncoder, rng: &mut Rng) -> Result<TaskOutcome> {
        let tags = task.tag_set();
        let (support, _) = encode_task(enc, task);
        let g = Graph::new(); // training mode: dropout active
        let loss = self
            .backbone
            .batch_loss(&g, &self.theta, None, &support, &tags, rng);
        Ok(TaskOutcome {
            loss: g.value(loss).scalar_value(),
            grads: g.backward(loss)?.for_store(&self.theta),
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
        let mut adapted = self.theta.clone();
        let mut sgd = Sgd::new(self.cfg.inner_lr);
        let mut rng = Rng::new(0);
        for _ in 0..self.cfg.inner_steps_test {
            let g = Graph::eval(); // fine-tuning: dropout off, gradients on
            let loss = self
                .backbone
                .batch_loss(&g, &adapted, None, &support, &tags, &mut rng);
            let grads = g.backward(loss)?.for_store(&adapted);
            sgd.step(&mut adapted, &grads)?;
        }
        Ok(self
            .backbone
            .decode_task(&adapted, None, query.iter().map(|(sent, _)| sent), &tags))
    }

    fn decay_lr(&mut self, factor: f32) {
        self.opt.decay_lr(factor);
    }
}

/// ProtoNet behind the learner interface.
pub struct ProtoLearner {
    model: ProtoNet,
    /// Encoder parameters.
    pub theta: ParamStore,
    opt: Adam,
    rng: Rng,
}

impl ProtoLearner {
    /// Builds the learner.
    pub fn new(bb_cfg: BackboneConfig, enc: &TokenEncoder, cfg: MetaConfig) -> Result<Self> {
        cfg.validate()?;
        conditioning_free(&bb_cfg)?;
        let mut rng = Rng::new(cfg.seed ^ 0x50_4E);
        let mut theta = ParamStore::new();
        let backbone = Backbone::new(bb_cfg, enc, &mut theta, &mut rng)?;
        let opt = Adam::new(cfg.meta_lr)
            .with_clip(cfg.clip)
            .with_weight_decay(cfg.l2);
        Ok(ProtoLearner {
            model: ProtoNet::new(backbone),
            theta,
            opt,
            rng,
        })
    }
}

impl EpisodicLearner for ProtoLearner {
    fn name(&self) -> &'static str {
        "ProtoNet"
    }

    fn step_seed(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn task_grad(&self, task: &Task, enc: &TokenEncoder, rng: &mut Rng) -> Result<TaskOutcome> {
        let tags = task.tag_set();
        let (support, query) = encode_task(enc, task);
        let g = Graph::new();
        let loss = self
            .model
            .episode_loss(&g, &self.theta, &support, &query, &tags, rng)?;
        Ok(TaskOutcome {
            loss: g.value(loss).scalar_value(),
            grads: g.backward(loss)?.for_store(&self.theta),
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
        Ok(self
            .model
            .predict_task(&self.theta, &support, &query, &tags))
    }

    fn decay_lr(&mut self, factor: f32) {
        self.opt.decay_lr(factor);
    }
}

/// SNAIL behind the learner interface.
pub struct SnailLearner {
    model: Snail,
    /// Encoder + head parameters.
    pub theta: ParamStore,
    opt: Adam,
    rng: Rng,
}

impl SnailLearner {
    /// Builds the learner (the SNAIL head is sized from `snail_cfg`).
    pub fn new(
        bb_cfg: BackboneConfig,
        snail_cfg: SnailConfig,
        enc: &TokenEncoder,
        cfg: MetaConfig,
    ) -> Result<Self> {
        cfg.validate()?;
        conditioning_free(&bb_cfg)?;
        let mut rng = Rng::new(cfg.seed ^ 0x53_4E);
        let mut theta = ParamStore::new();
        let backbone = Backbone::new(bb_cfg, enc, &mut theta, &mut rng)?;
        let model = Snail::new(backbone, snail_cfg, &mut theta, &mut rng);
        let opt = Adam::new(cfg.meta_lr)
            .with_clip(cfg.clip)
            .with_weight_decay(cfg.l2);
        Ok(SnailLearner {
            model,
            theta,
            opt,
            rng,
        })
    }
}

impl EpisodicLearner for SnailLearner {
    fn name(&self) -> &'static str {
        "SNAIL"
    }

    fn step_seed(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn task_grad(&self, task: &Task, enc: &TokenEncoder, rng: &mut Rng) -> Result<TaskOutcome> {
        let tags = task.tag_set();
        let (support, query) = encode_task(enc, task);
        let g = Graph::new();
        let loss = self
            .model
            .episode_loss(&g, &self.theta, &support, &query, &tags, rng)?;
        Ok(TaskOutcome {
            loss: g.value(loss).scalar_value(),
            grads: g.backward(loss)?.for_store(&self.theta),
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
        Ok(self
            .model
            .predict_task(&self.theta, &support, &query, &tags))
    }

    fn decay_lr(&mut self, factor: f32) {
        self.opt.decay_lr(factor);
    }
}

/// A frozen-LM baseline behind the learner interface: episodic CRF-head
/// training, CRF-only test-time fine-tuning (the encoder never trains).
pub struct FrozenLmLearner {
    model: FrozenLm,
    cfg: MetaConfig,
    opt: Adam,
}

impl FrozenLmLearner {
    /// Builds the learner for one LM flavour.
    pub fn new(
        flavor: LmFlavor,
        enc: &TokenEncoder,
        n_ways: usize,
        cfg: MetaConfig,
    ) -> Result<Self> {
        cfg.validate()?;
        let model = FrozenLm::new(flavor, enc, n_ways)?;
        let opt = Adam::new(cfg.meta_lr)
            .with_clip(cfg.clip)
            .with_weight_decay(cfg.l2);
        Ok(FrozenLmLearner { model, cfg, opt })
    }

    /// The imitated flavour.
    pub fn flavor(&self) -> LmFlavor {
        self.model.flavor()
    }
}

impl EpisodicLearner for FrozenLmLearner {
    fn name(&self) -> &'static str {
        self.model.flavor().name()
    }

    // The CRF-head loss is deterministic (no dropout), so the default
    // `step_seed` of 0 is fine and `rng` goes unused.
    fn task_grad(&self, task: &Task, enc: &TokenEncoder, _rng: &mut Rng) -> Result<TaskOutcome> {
        let tags = task.tag_set();
        let (support, _) = encode_task(enc, task);
        let g = Graph::new();
        let loss = self.model.batch_loss(&g, &support, &tags)?;
        Ok(TaskOutcome {
            loss: g.value(loss).scalar_value(),
            grads: g.backward(loss)?.for_store(&self.model.head_params),
        })
    }

    fn apply_meta_grads(
        &mut self,
        mut grads: fewner_tensor::ParamGrads,
        n_tasks: usize,
    ) -> Result<()> {
        grads.scale(1.0 / n_tasks.max(1) as f32);
        self.opt.step(&mut self.model.head_params, &grads)
    }

    fn adapt_and_predict(&self, task: &Task, enc: &TokenEncoder) -> Result<Vec<Vec<usize>>> {
        let tags = task.tag_set();
        let (support, query) = encode_task(enc, task);
        let mut head = self.model.head_params.clone();
        let mut sgd = Sgd::new(self.cfg.inner_lr);
        for _ in 0..self.cfg.inner_steps_test {
            let g = Graph::new();
            let loss = self.model.batch_loss_with(&g, &head, &support, &tags)?;
            let grads = g.backward(loss)?.for_store(&head);
            sgd.step(&mut head, &grads)?;
        }
        Ok(self
            .model
            .predict_task_with(&head, query.iter().map(|(sent, _)| sent), &tags))
    }

    fn decay_lr(&mut self, factor: f32) {
        self.opt.decay_lr(factor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fewner_corpus::{split_types, DatasetProfile};
    use fewner_episode::EpisodeSampler;
    use fewner_models::Conditioning;
    use fewner_text::embed::EmbeddingSpec;

    fn setup() -> (TokenEncoder, Vec<Task>, BackboneConfig, MetaConfig) {
        let d = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
        let split = split_types(&d, (8, 3, 5), 1).unwrap();
        let sampler = EpisodeSampler::new(&split.train, 3, 1, 3).unwrap();
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
        let cfg = MetaConfig {
            inner_steps_test: 3,
            ..MetaConfig::default()
        };
        (enc, tasks, bb_cfg, cfg)
    }

    #[test]
    fn all_baselines_step_and_predict() {
        let (enc, tasks, bb_cfg, cfg) = setup();
        let mut learners: Vec<Box<dyn EpisodicLearner>> = vec![
            Box::new(FineTuneLearner::new(bb_cfg.clone(), &enc, cfg.clone()).unwrap()),
            Box::new(ProtoLearner::new(bb_cfg.clone(), &enc, cfg.clone()).unwrap()),
            Box::new(
                SnailLearner::new(
                    bb_cfg.clone(),
                    SnailConfig::default_for(3),
                    &enc,
                    cfg.clone(),
                )
                .unwrap(),
            ),
            Box::new(FrozenLmLearner::new(LmFlavor::Bert, &enc, 3, cfg.clone()).unwrap()),
        ];
        for learner in &mut learners {
            let loss = crate::serial_meta_step(learner.as_mut(), &tasks, &enc).unwrap();
            assert!(loss.is_finite(), "{} loss {loss}", learner.name());
            let preds = learner.adapt_and_predict(&tasks[0], &enc).unwrap();
            assert_eq!(preds.len(), tasks[0].query.len(), "{}", learner.name());
            learner.decay_lr(0.9);
        }
    }

    #[test]
    fn finetune_adaptation_does_not_mutate_trained_params() {
        let (enc, tasks, bb_cfg, cfg) = setup();
        let ft = FineTuneLearner::new(bb_cfg, &enc, cfg).unwrap();
        let before = ft.theta.snapshot();
        ft.adapt_and_predict(&tasks[0], &enc).unwrap();
        assert_eq!(before, ft.theta.snapshot());
    }

    #[test]
    fn frozen_lm_names_match_flavors() {
        let (enc, _, _, cfg) = setup();
        for flavor in LmFlavor::ALL {
            let l = FrozenLmLearner::new(flavor, &enc, 3, cfg.clone()).unwrap();
            assert_eq!(l.name(), flavor.name());
        }
    }

    #[test]
    fn conditioned_backbone_rejected_by_baselines() {
        let (enc, _, _, cfg) = setup();
        let bad = BackboneConfig {
            word_dim: 20,
            conditioning: Conditioning::Film,
            ..BackboneConfig::default_for(3)
        };
        assert!(FineTuneLearner::new(bad.clone(), &enc, cfg.clone()).is_err());
        assert!(ProtoLearner::new(bad, &enc, cfg).is_err());
    }
}
