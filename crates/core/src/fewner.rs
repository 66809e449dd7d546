//! FEWNER (paper §3.2, Algorithm 1).
//!
//! * **Inner loop** — per task, the context parameters φ are reset to `0`
//!   and adapted by `k` SGD steps on the support loss (Eq. 5), with θ held
//!   fixed. The inner loop runs without dropout so adaptation is a
//!   deterministic function of (θ, support set). Because θ is fixed, the
//!   φ-free part of the network is computed once per support set
//!   ([`Backbone::encode_support`]); each step runs and back-propagates only
//!   the φ-conditioned head on a tape with θ frozen.
//! * **Outer loop** — θ is updated by the query loss of the adapted model
//!   `(θ, φ_k)` averaged over a meta-batch (Eq. 6), with Adam, gradient
//!   clipping and L2 regularisation per §4.1.3. The dependence of φ_k on θ
//!   is handled per [`SecondOrder`]: first-order by default, or exactly via
//!   finite-difference Hessian-vector products (`second_order` module).
//! * **Adaptation (test)** — θ_Meta stays fixed; a *fresh* φ is adapted for
//!   8 steps on the held-out task's support set, and the query set is
//!   decoded with `(θ_Meta, φ_k)`. Only the low-dimensional φ ever changes,
//!   which is the paper's overfitting and efficiency argument.

use fewner_episode::Task;
use fewner_models::{encode_task, Backbone, BackboneConfig, LabeledSentence, TokenEncoder};
use fewner_tensor::{Adam, Exec, Graph, ParamId, ParamStore, SavedAdam, SavedParams, Sgd};
use fewner_text::TagSet;
use fewner_util::{Error, FromJson, Json, Result, Rng, ToJson};

use crate::config::{MetaConfig, SecondOrder};
use crate::learner::{EpisodicLearner, TaskOutcome};
use crate::second_order;
use crate::serve::{AdaptedCtx, ServeOptions};

/// The FEWNER meta-learner.
pub struct Fewner {
    /// The θ network.
    pub backbone: Backbone,
    /// Task-independent parameters θ.
    pub theta: ParamStore,
    cfg: MetaConfig,
    opt: Adam,
    rng: Rng,
}

impl Fewner {
    /// Builds the backbone and meta-optimizer.
    pub fn new(bb_cfg: BackboneConfig, enc: &TokenEncoder, cfg: MetaConfig) -> Result<Fewner> {
        cfg.validate()?;
        if bb_cfg.conditioning == fewner_models::Conditioning::None {
            return Err(Error::InvalidConfig(
                "FEWNER requires Film or ConcatInput conditioning".into(),
            ));
        }
        let mut rng = Rng::new(cfg.seed);
        let mut theta = ParamStore::new();
        let backbone = Backbone::new(bb_cfg, enc, &mut theta, &mut rng)?;
        let opt = Adam::new(cfg.meta_lr)
            .with_clip(cfg.clip)
            .with_weight_decay(cfg.l2);
        Ok(Fewner {
            backbone,
            theta,
            cfg,
            opt,
            rng,
        })
    }

    /// The meta-configuration.
    pub fn config(&self) -> &MetaConfig {
        &self.cfg
    }

    /// Inner loop: adapts a fresh φ on the support set for `steps` SGD
    /// steps (Eq. 5). Returns the context store, the φ id, and the
    /// trajectory of φ values *before* each step (φ_0 … φ_{K−1}), which the
    /// exact meta-gradient needs.
    pub fn adapt_context(
        &self,
        support: &[LabeledSentence],
        tags: &TagSet,
        steps: usize,
    ) -> Result<(ParamStore, ParamId, Vec<fewner_tensor::Array>)> {
        let (phi_store, phi_id) = self.backbone.new_context();
        self.inner_loop(phi_store, phi_id, support, tags, steps)
    }

    /// The inner SGD loop from an explicit starting φ — shared by the fresh
    /// adapt above and the warm-started [`Fewner::extend`].
    ///
    /// The support is encoded once, on `Infer`; every step then builds a
    /// small dropout-free tape with θ frozen that starts from the encoded
    /// states, so the backward pass computes φ's gradient and nothing else.
    /// φ, its gradient and the trajectory are bitwise those of stepping
    /// [`Backbone::batch_loss`] on a full tape.
    fn inner_loop(
        &self,
        mut phi_store: ParamStore,
        phi_id: ParamId,
        support: &[LabeledSentence],
        tags: &TagSet,
        steps: usize,
    ) -> Result<(ParamStore, ParamId, Vec<fewner_tensor::Array>)> {
        let mut sgd = Sgd::new(self.cfg.inner_lr);
        let mut trajectory: Vec<fewner_tensor::Array> = Vec::with_capacity(steps);
        let encoded = self.backbone.encode_support(&self.theta, support);
        for _ in 0..steps {
            let snapshot = (**phi_store.value(phi_id)).clone();
            let g = Graph::eval(); // inner loop: dropout off, gradients on
            g.freeze(&self.theta);
            let phi = g.param(&phi_store, phi_id);
            let loss = self
                .backbone
                .encoded_loss(&g, &self.theta, phi, &encoded, tags);
            // A diverging inner loop (possible with many test-time steps on
            // a hard support set) stops early at the last finite φ rather
            // than poisoning the task. (A backtracking line search was
            // evaluated here and measurably *hurt* 5-shot adaptation —
            // meta-training bakes the fixed-α trajectory into θ, so the
            // test-time loop must follow the same dynamics.)
            let Ok(grads) = g.backward(loss) else { break };
            let grads = grads.for_store(&phi_store);
            if sgd.step(&mut phi_store, &grads).is_err() {
                break;
            }
            if !phi_store.value(phi_id).all_finite() {
                phi_store.set(phi_id, snapshot);
                break;
            }
            trajectory.push(snapshot);
        }
        Ok((phi_store, phi_id, trajectory))
    }

    /// Adapts a fresh φ to `task`'s support set and returns it as a
    /// first-class [`AdaptedCtx`] (paper: the adapting procedure of
    /// Algorithm 1; θ is read, never written).
    ///
    /// Observability: the inner loop is recorded as a `serve/adapt` span
    /// with way/shot/support/step context plus a `serve/tasks` counter on
    /// the tracer carried by `opts`. Tracing reads no RNG state — a traced
    /// adaptation is bitwise identical to an untraced one.
    pub fn adapt(
        &self,
        task: &Task,
        enc: &TokenEncoder,
        opts: &ServeOptions,
    ) -> Result<AdaptedCtx> {
        let tags = task.tag_set();
        let support = fewner_models::encode_batch(enc, &task.support, &tags);
        self.adapt_encoded(&support, task.n_ways, Some(task.k_shots), opts)
    }

    /// [`Fewner::adapt`] over already-encoded support sentences — the entry
    /// point for serving daemons whose support sets arrive over the wire
    /// rather than as sampled [`Task`]s.
    pub fn adapt_support(
        &self,
        support: &[LabeledSentence],
        n_ways: usize,
        opts: &ServeOptions,
    ) -> Result<AdaptedCtx> {
        self.adapt_encoded(support, n_ways, None, opts)
    }

    fn adapt_encoded(
        &self,
        support: &[LabeledSentence],
        n_ways: usize,
        shots: Option<usize>,
        opts: &ServeOptions,
    ) -> Result<AdaptedCtx> {
        self.backbone.config().check_ways(n_ways)?;
        // A request whose budget is already spent must not start an inner
        // loop it cannot finish in time.
        if let Some(d) = opts.deadline() {
            d.check("adapt")?;
        }
        let tags = TagSet::new(n_ways)?;
        let tracer = opts.tracer_ref();
        let span = {
            let mut span = tracer.span("serve/adapt");
            span.set("ways", n_ways);
            if let Some(k) = shots {
                span.set("shots", k);
            }
            span.set("support", support.len());
            span.set("steps", self.cfg.inner_steps_test);
            span
        };
        let (phi_store, phi_id, _) =
            self.adapt_context(support, &tags, self.cfg.inner_steps_test)?;
        drop(span);
        tracer.incr("serve/tasks", 1);
        Ok(AdaptedCtx::new(
            n_ways,
            phi_store,
            phi_id,
            support.to_vec(),
            1,
        ))
    }

    /// Folds newly arrived support into an existing context *incrementally*:
    /// instead of re-running the full inner loop from a fresh φ, the loop
    /// warm-starts from `ctx`'s current φ and takes a few steps
    /// (`inner_steps_test / 2`, at least one) over the merged old + new
    /// support. Returns a successor context carrying the merged support and
    /// `ctx.revision() + 1`; `ctx` itself is untouched, so a caller can
    /// still fall back to it.
    ///
    /// This is the online-adaptation half of the streaming story: a tenant
    /// whose labelled examples trickle in pays a fraction of a cold adapt
    /// per wave instead of the full loop every time. Recorded as a
    /// `serve/adapt_extend` span plus a `serve/extends` counter, so trace
    /// summaries can split extend latency from cold-adapt latency.
    pub fn extend(
        &self,
        ctx: &AdaptedCtx,
        new_support: &[LabeledSentence],
        opts: &ServeOptions,
    ) -> Result<AdaptedCtx> {
        if let Some(d) = opts.deadline() {
            d.check("extend")?;
        }
        if new_support.is_empty() {
            return Err(Error::InvalidConfig(
                "extend requires at least one new support sentence".into(),
            ));
        }
        let expected = self.backbone.config().phi_total();
        if ctx.phi_values().len() != expected {
            return Err(Error::ShapeMismatch {
                op: "extend",
                detail: format!(
                    "adapted context has {} φ values, model expects {expected}",
                    ctx.phi_values().len()
                ),
            });
        }
        self.backbone.config().check_ways(ctx.n_ways())?;
        let tags = ctx.tag_set();
        let mut merged = ctx.support().to_vec();
        merged.extend_from_slice(new_support);
        let steps = (self.cfg.inner_steps_test / 2).max(1);
        let tracer = opts.tracer_ref();
        let span = {
            let mut span = tracer.span("serve/adapt_extend");
            span.set("ways", ctx.n_ways());
            span.set("new", new_support.len());
            span.set("support", merged.len());
            span.set("steps", steps);
            span.set("revision", u64::from(ctx.revision()) + 1);
            span
        };
        // Warm start: a fresh context binding whose φ is seeded with the
        // incoming context's adapted values.
        let (mut phi_store, phi_id) = self.backbone.new_context();
        let (src_store, src_id) = ctx.phi();
        phi_store.set(phi_id, (**src_store.value(src_id)).clone());
        let (phi_store, phi_id, _) = self.inner_loop(phi_store, phi_id, &merged, &tags, steps)?;
        drop(span);
        tracer.incr("serve/extends", 1);
        Ok(AdaptedCtx::new(
            ctx.n_ways(),
            phi_store,
            phi_id,
            merged,
            ctx.revision() + 1,
        ))
    }

    /// Decodes `sentences` under a previously adapted context on the
    /// gradient-free `Infer` executor (φ-conditioned work hoisted once per
    /// call — passing many sentences amortises it, which is what the
    /// serving daemon's micro-batching exploits).
    ///
    /// Validates that `ctx` shape-matches this model: a context adapted (or
    /// reloaded from disk) against a different backbone is rejected instead
    /// of silently mis-decoding. Recorded as a `serve/predict` span plus a
    /// `serve/tokens` counter.
    pub fn predict(
        &self,
        ctx: &AdaptedCtx,
        sentences: &[fewner_models::EncodedSentence],
        opts: &ServeOptions,
    ) -> Result<Vec<Vec<usize>>> {
        let expected = self.backbone.config().phi_total();
        let actual = ctx.phi_values().len();
        if actual != expected {
            return Err(Error::ShapeMismatch {
                op: "predict",
                detail: format!("adapted context has {actual} φ values, model expects {expected}"),
            });
        }
        self.backbone.config().check_ways(ctx.n_ways())?;
        if let Some(d) = opts.deadline() {
            d.check("predict")?;
        }
        let tags = ctx.tag_set();
        let tracer = opts.tracer_ref();
        let tokens: usize = sentences.iter().map(|s| s.len()).sum();
        let predictions = {
            let mut span = tracer.span("serve/predict");
            span.set("sentences", sentences.len());
            span.set("tokens", tokens);
            self.backbone
                .decode_task(&self.theta, Some(ctx.phi()), sentences.iter(), &tags)
        };
        tracer.incr("serve/tokens", tokens as u64);
        Ok(predictions)
    }

    /// Adapt + predict over a task's own query set (the episodic
    /// evaluation shape). Prefer [`Fewner::adapt`] + [`Fewner::predict`]
    /// when the context will be reused.
    pub fn adapt_then_predict(
        &self,
        task: &Task,
        enc: &TokenEncoder,
        opts: &ServeOptions,
    ) -> Result<Vec<Vec<usize>>> {
        let ctx = self.adapt(task, enc, opts)?;
        let query: Vec<fewner_models::EncodedSentence> =
            task.query.iter().map(|s| enc.encode(&s.tokens)).collect();
        self.predict(&ctx, &query, opts)
    }
}

impl EpisodicLearner for Fewner {
    fn name(&self) -> &'static str {
        "FewNER"
    }

    fn step_seed(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn task_grad(&self, task: &Task, enc: &TokenEncoder, rng: &mut Rng) -> Result<TaskOutcome> {
        let tags = task.tag_set();
        let (support, query) = encode_task(enc, task);

        // Inner loop on φ (Algorithm 1, lines 6–8).
        let (phi_store, phi_id, trajectory) =
            self.adapt_context(&support, &tags, self.cfg.inner_steps_train)?;

        // Query loss of the adapted model (line 9).
        let g = Graph::new(); // training mode: dropout active
        let phi = g.param(&phi_store, phi_id);
        let loss = self
            .backbone
            .batch_loss(&g, &self.theta, Some(phi), &query, &tags, rng);
        let loss_value = g.value(loss).scalar_value();
        let grads = g.backward(loss)?;
        let mut theta_grads = grads.for_store(&self.theta);

        if let SecondOrder::FiniteDiffHvp { epsilon } = self.cfg.second_order {
            let phi_grad = grads.for_store(&phi_store);
            if let Some(v) = phi_grad.get(phi_id) {
                let correction = second_order::theta_correction(
                    &self.backbone,
                    &self.theta,
                    &support,
                    &tags,
                    &trajectory,
                    v,
                    self.cfg.inner_lr,
                    epsilon,
                )?;
                theta_grads.add_assign(&correction);
            }
        }
        Ok(TaskOutcome {
            loss: loss_value,
            grads: theta_grads,
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
        self.adapt_then_predict(task, enc, &ServeOptions::new())
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

    fn tiny_setup() -> (TokenEncoder, Vec<Task>, Fewner) {
        let d = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
        let split = split_types(&d, (8, 3, 5), 1).unwrap();
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
        let bb_cfg = fewner_models::BackboneConfig {
            word_dim: 20,
            char_dim: 8,
            char_filters: 6,
            char_widths: vec![2, 3],
            hidden: 10,
            phi_dim: 8,
            slot_ctx_dim: 4,
            conditioning: Conditioning::Film,
            dropout: 0.1,
            use_char_cnn: true,
            encoder: fewner_models::backbone::EncoderKind::BiGru,
            head: fewner_models::HeadKind::Dense { n_ways: 3 },
        };
        let cfg = MetaConfig {
            inner_steps_train: 2,
            inner_steps_test: 4,
            meta_batch: 3,
            ..MetaConfig::default()
        };
        let fewner = Fewner::new(bb_cfg, &enc, cfg).unwrap();
        (enc, tasks, fewner)
    }

    #[test]
    fn meta_step_runs_and_updates_theta() {
        let (enc, tasks, mut fewner) = tiny_setup();
        let before = fewner.theta.snapshot();
        let loss = crate::serial_meta_step(&mut fewner, &tasks, &enc).unwrap();
        assert!(loss.is_finite() && loss > 0.0);
        let after = fewner.theta.snapshot();
        assert!(
            before.iter().zip(&after).any(|(a, b)| a != b),
            "theta must change after a meta step"
        );
    }

    #[test]
    fn adaptation_leaves_theta_untouched() {
        let (enc, tasks, fewner) = tiny_setup();
        let before = fewner.theta.snapshot();
        let preds = fewner.adapt_and_predict(&tasks[0], &enc).unwrap();
        let after = fewner.theta.snapshot();
        assert_eq!(before, after, "test-time adaptation must only touch φ");
        assert_eq!(preds.len(), tasks[0].query.len());
        for (p, q) in preds.iter().zip(&tasks[0].query) {
            assert_eq!(p.len(), q.len());
        }
    }

    #[test]
    fn inner_loop_reduces_support_loss() {
        let (enc, tasks, fewner) = tiny_setup();
        let tags = tasks[0].tag_set();
        let (support, _) = encode_task(&enc, &tasks[0]);
        let loss_at = |phi_store: &ParamStore, phi_id| {
            let g = Graph::eval();
            let phi = g.param(phi_store, phi_id);
            let mut rng = Rng::new(0);
            let l =
                fewner
                    .backbone
                    .batch_loss(&g, &fewner.theta, Some(phi), &support, &tags, &mut rng);
            g.value(l).scalar_value()
        };
        let (phi0, id0) = fewner.backbone.new_context();
        let before = loss_at(&phi0, id0);
        let (phi_k, id_k, traj) = fewner.adapt_context(&support, &tags, 6).unwrap();
        let after = loss_at(&phi_k, id_k);
        assert!(after < before, "inner loop: {before} -> {after}");
        assert_eq!(traj.len(), 6);
        assert!(traj[0].data().iter().all(|&v| v == 0.0), "φ starts at 0");
    }

    #[test]
    fn extend_grows_support_and_bumps_revision() {
        let (enc, tasks, fewner) = tiny_setup();
        let opts = ServeOptions::new();
        let ctx = fewner.adapt(&tasks[0], &enc, &opts).unwrap();
        assert_eq!(ctx.revision(), 1);
        assert_eq!(ctx.support().len(), tasks[0].support.len());

        let (new_support, _) = encode_task(&enc, &tasks[1]);
        let before_theta = fewner.theta.snapshot();
        let extended = fewner.extend(&ctx, &new_support, &opts).unwrap();
        assert_eq!(
            fewner.theta.snapshot(),
            before_theta,
            "extend must only touch φ"
        );
        assert_eq!(extended.revision(), 2);
        assert_eq!(
            extended.support().len(),
            ctx.support().len() + new_support.len(),
            "merged support = old + new"
        );
        assert_ne!(
            extended.phi_values(),
            ctx.phi_values(),
            "the warm-started inner loop must move φ"
        );
        // The predecessor is untouched and still usable.
        assert_eq!(ctx.revision(), 1);

        // Extending is deterministic: same inputs, same successor φ.
        let again = fewner.extend(&ctx, &new_support, &opts).unwrap();
        assert_eq!(again.phi_values(), extended.phi_values());

        // Successive extensions keep counting.
        let third = fewner.extend(&extended, &new_support, &opts).unwrap();
        assert_eq!(third.revision(), 3);

        // An empty wave is a caller error, not a no-op.
        assert!(matches!(
            fewner.extend(&ctx, &[], &opts),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn extend_rejects_a_foreign_shaped_context() {
        let (enc, tasks, fewner) = tiny_setup();
        let mut store = ParamStore::new();
        let id = store.add("phi", fewner_tensor::Array::zeros(1, 3));
        let foreign = AdaptedCtx::new(3, store, id, Vec::new(), 1);
        let (support, _) = encode_task(&enc, &tasks[0]);
        assert!(matches!(
            fewner.extend(&foreign, &support, &ServeOptions::new()),
            Err(Error::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn a_way_count_the_dense_head_does_not_take_is_rejected() {
        let (enc, tasks, fewner) = tiny_setup(); // a 3-way dense head
        let opts = ServeOptions::new();
        let (support, _) = encode_task(&enc, &tasks[0]);
        for ways in [0, 2, 4] {
            assert!(
                matches!(
                    fewner.adapt_support(&support, ways, &opts),
                    Err(Error::InvalidConfig(_))
                ),
                "adapt with {ways} ways"
            );
            let (store, id) = fewner.backbone.new_context();
            let ctx = AdaptedCtx::new(ways, store, id, support.clone(), 1);
            assert!(
                matches!(
                    fewner.extend(&ctx, &support, &opts),
                    Err(Error::InvalidConfig(_))
                ),
                "extend with {ways} ways"
            );
            let sents = [support[0].0.clone()];
            assert!(
                matches!(
                    fewner.predict(&ctx, &sents, &opts),
                    Err(Error::InvalidConfig(_))
                ),
                "predict with {ways} ways"
            );
        }
        assert!(fewner.adapt_support(&support, 3, &opts).is_ok());
    }

    #[test]
    fn second_order_mode_runs() {
        let (enc, tasks, _) = tiny_setup();
        let d = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
        let _ = d;
        let bb_cfg = fewner_models::BackboneConfig {
            word_dim: 20,
            char_dim: 8,
            char_filters: 6,
            char_widths: vec![2, 3],
            hidden: 10,
            phi_dim: 8,
            slot_ctx_dim: 4,
            conditioning: Conditioning::Film,
            dropout: 0.0,
            use_char_cnn: true,
            encoder: fewner_models::backbone::EncoderKind::BiGru,
            head: fewner_models::HeadKind::Dense { n_ways: 3 },
        };
        let cfg = MetaConfig {
            second_order: SecondOrder::FiniteDiffHvp { epsilon: 1e-2 },
            inner_steps_train: 2,
            ..MetaConfig::default()
        };
        let mut fewner = Fewner::new(bb_cfg, &enc, cfg).unwrap();
        let loss = crate::serial_meta_step(&mut fewner, &tasks[..2], &enc).unwrap();
        assert!(loss.is_finite());
    }

    #[test]
    fn conditioning_none_is_rejected() {
        let (enc, _, _) = tiny_setup();
        let bb_cfg = fewner_models::BackboneConfig {
            word_dim: 20,
            conditioning: Conditioning::None,
            ..fewner_models::BackboneConfig::default_for(3)
        };
        assert!(Fewner::new(bb_cfg, &enc, MetaConfig::default()).is_err());
    }
}
