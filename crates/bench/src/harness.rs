//! The experiment harness shared by every table binary and bench.
//!
//! One paper table cell = (method, training split, test split, N, K):
//! meta-train the method on episodes from the training split, then score it
//! on the seed-fixed evaluation episodes from the test split. [`Scale`]
//! shrinks corpus size / iteration count / episode count uniformly so the
//! same code runs as a smoke test, a laptop run, or a paper-scale run.

use fewner_core::{
    EpisodicLearner, Fewner, FineTuneLearner, FrozenLmLearner, Maml, MetaConfig, ProtoLearner,
    SnailLearner, TrainConfig,
};
use fewner_corpus::SplitView;
use fewner_episode::EpisodeSampler;
use fewner_models::{BackboneConfig, Conditioning, HeadKind, LmFlavor, SnailConfig, TokenEncoder};
use fewner_util::{MeanCi, Result};

/// Evaluation seed fixed across methods (paper §4.2.1).
pub const EVAL_SEED: u64 = 0xE7A1;

/// How big to run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Corpus scale (1.0 = Table 1 sizes).
    pub corpus: f64,
    /// Meta-training iterations.
    pub iterations: usize,
    /// Evaluation episodes per cell (paper: 1000).
    pub episodes: usize,
    /// Query sentences per task.
    pub query_size: usize,
}

impl Scale {
    /// Seconds-level smoke scale for criterion benches and CI.
    pub fn smoke() -> Scale {
        Scale {
            corpus: 0.01,
            iterations: 4,
            episodes: 3,
            query_size: 4,
        }
    }

    /// Minutes-level scale; the default for the table binaries.
    pub fn small() -> Scale {
        Scale {
            corpus: 0.04,
            iterations: 300,
            episodes: 30,
            query_size: 6,
        }
    }

    /// The paper's scale (hours per table on a laptop).
    pub fn paper() -> Scale {
        Scale {
            corpus: 1.0,
            iterations: 2500,
            episodes: 1000,
            query_size: 10,
        }
    }

    /// Parses `--scale smoke|small|paper` plus `--episodes N` /
    /// `--iterations N` overrides from CLI arguments.
    pub fn from_args(args: &[String]) -> Scale {
        let mut scale = Scale::small();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => match it.next().map(String::as_str) {
                    Some("smoke") => scale = Scale::smoke(),
                    Some("small") => scale = Scale::small(),
                    Some("paper") | Some("paper-scale") => scale = Scale::paper(),
                    other => panic!("unknown scale {other:?}"),
                },
                "--paper-scale" => scale = Scale::paper(),
                "--episodes" => {
                    scale.episodes = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--episodes N");
                }
                "--iterations" => {
                    scale.iterations = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--iterations N");
                }
                _ => {}
            }
        }
        scale
    }
}

/// The ten methods of Tables 2–4, in the paper's row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// GPT2 / Flair / ELMo / BERT / XLNet substitutes.
    Lm(LmFlavor),
    /// Conventional training + full fine-tune.
    FineTune,
    /// Prototypical networks.
    ProtoNet,
    /// First-order MAML.
    Maml,
    /// SNAIL.
    Snail,
    /// Ours.
    FewNer,
}

impl Method {
    /// All ten methods in the paper's table order.
    pub fn all() -> Vec<Method> {
        let mut v: Vec<Method> = LmFlavor::ALL.into_iter().map(Method::Lm).collect();
        v.extend([
            Method::FineTune,
            Method::ProtoNet,
            Method::Maml,
            Method::Snail,
            Method::FewNer,
        ]);
        v
    }

    /// The static-representation subset (lower half of the tables).
    pub fn static_group() -> Vec<Method> {
        vec![
            Method::FineTune,
            Method::ProtoNet,
            Method::Maml,
            Method::Snail,
            Method::FewNer,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Lm(f) => f.name(),
            Method::FineTune => "FineTune",
            Method::ProtoNet => "ProtoNet",
            Method::Maml => "MAML",
            Method::Snail => "SNAIL",
            Method::FewNer => "FewNER",
        }
    }
}

/// Scaled-down backbone matched to the harness encoder spec.
pub fn backbone_config(n_ways: usize, conditioning: Conditioning) -> BackboneConfig {
    BackboneConfig {
        word_dim: 32,
        char_dim: 10,
        char_filters: 8,
        char_widths: vec![2, 3],
        hidden: 24,
        phi_dim: 24,
        slot_ctx_dim: 8,
        conditioning,
        dropout: 0.2,
        use_char_cnn: true,
        encoder: fewner_models::backbone::EncoderKind::BiGru,
        head: HeadKind::Dense { n_ways },
    }
}

/// The embedding spec matching [`backbone_config`].
pub fn embedding_spec() -> fewner_text::embed::EmbeddingSpec {
    fewner_text::embed::EmbeddingSpec {
        dim: 32,
        ..fewner_text::embed::EmbeddingSpec::default()
    }
}

/// Meta-configuration used by the harness (paper values except the meta
/// learning rate, raised for the shorter schedules).
pub fn meta_config() -> MetaConfig {
    MetaConfig {
        meta_lr: 1e-2,
        inner_lr: 0.25,
        inner_steps_train: 3,
        inner_steps_test: 10,
        meta_batch: 4,
        ..MetaConfig::default()
    }
}

/// Builds a learner for `method`.
pub fn build_method(
    method: Method,
    enc: &TokenEncoder,
    n_ways: usize,
    meta: &MetaConfig,
) -> Result<Box<dyn EpisodicLearner + Sync>> {
    let cond_free = backbone_config(n_ways, Conditioning::None);
    // The paper grid-searches hyper-parameters per method (§4.1.3). The
    // harness inner LR (0.25) is calibrated for FEWNER's zero-initialised
    // low-dimensional φ; full-network inner loops (MAML, FineTune's
    // test-time fine-tuning) are stable at the paper's α = 0.1.
    let full_net_meta = MetaConfig {
        inner_lr: 0.1,
        ..meta.clone()
    };
    Ok(match method {
        Method::Lm(flavor) => Box::new(FrozenLmLearner::new(flavor, enc, n_ways, full_net_meta)?),
        Method::FineTune => Box::new(FineTuneLearner::new(cond_free, enc, full_net_meta)?),
        Method::ProtoNet => Box::new(ProtoLearner::new(cond_free, enc, meta.clone())?),
        Method::Maml => Box::new(Maml::new(cond_free, enc, full_net_meta)?),
        Method::Snail => Box::new(SnailLearner::new(
            cond_free,
            SnailConfig::default_for(n_ways),
            enc,
            meta.clone(),
        )?),
        Method::FewNer => Box::new(Fewner::new(
            backbone_config(n_ways, Conditioning::Film),
            enc,
            meta.clone(),
        )?),
    })
}

/// One table cell: train on `train`, evaluate on `test`.
pub struct Cell<'a> {
    /// Training split.
    pub train: &'a SplitView,
    /// Held-out split (novel types and/or novel domain).
    pub test: &'a SplitView,
    /// Shared token encoder for the experiment.
    pub enc: &'a TokenEncoder,
    /// N.
    pub n_ways: usize,
    /// K.
    pub k_shots: usize,
}

/// Like [`run_cell`] but degrades gracefully: an unconstructible cell
/// (e.g. a split too starved for K-shot tasks at a tiny scale) yields an
/// empty `NaN` statistic instead of aborting a multi-hour table run.
pub fn run_cell_or_nan(method: Method, cell: &Cell<'_>, scale: &Scale) -> MeanCi {
    match run_cell(method, cell, scale) {
        Ok(score) => score,
        Err(e) => {
            eprintln!("    [cell skipped: {e}]");
            MeanCi {
                mean: f64::NAN,
                ci95: 0.0,
                n: 0,
            }
        }
    }
}

/// Trains `method` and returns its mean episode F1 ± CI on the cell.
pub fn run_cell(method: Method, cell: &Cell<'_>, scale: &Scale) -> Result<MeanCi> {
    let meta = meta_config();
    let mut learner = build_method(method, cell.enc, cell.n_ways, &meta)?;
    train_learner(learner.as_mut(), cell, scale, &meta)?;
    evaluate_learner(learner.as_ref(), cell, scale)
}

/// Meta-trains an already-built learner on the cell's training split.
pub fn train_learner(
    learner: &mut (dyn EpisodicLearner + Sync),
    cell: &Cell<'_>,
    scale: &Scale,
    meta: &MetaConfig,
) -> Result<()> {
    // threads(0) = all available cores; meta-gradients reduce in fixed
    // task-index order, so table numbers are identical at any thread count
    // (crates/core/tests/parallel_determinism.rs pins this).
    let cfg = TrainConfig::new(cell.n_ways, cell.k_shots)
        .iterations(scale.iterations)
        .query_size(scale.query_size)
        .seed(meta.seed ^ 0x7271)
        .threads(0);
    fewner_core::Trainer::new().train(learner, cell.train, cell.enc, meta, &cfg)?;
    Ok(())
}

/// Scores a trained learner on the cell's fixed evaluation episodes.
pub fn evaluate_learner(
    learner: &(dyn EpisodicLearner + Sync),
    cell: &Cell<'_>,
    scale: &Scale,
) -> Result<MeanCi> {
    let scores = evaluate_learner_scores(learner, cell, scale)?;
    Ok(fewner_util::ci95(&scores))
}

/// Like [`evaluate_learner`] but returns the raw per-episode F1 scores —
/// the input to paired significance testing (episodes are seed-fixed, so
/// scores of different methods align by index).
pub fn evaluate_learner_scores(
    learner: &(dyn EpisodicLearner + Sync),
    cell: &Cell<'_>,
    scale: &Scale,
) -> Result<Vec<f64>> {
    let sampler = EpisodeSampler::new(cell.test, cell.n_ways, cell.k_shots, scale.query_size)?;
    let tasks = sampler.eval_set(EVAL_SEED, scale.episodes)?;
    tasks
        .iter()
        .map(|task| fewner_eval::score_task(learner, task, cell.enc))
        .collect()
}

/// [`run_cell`] variant returning per-episode scores; failures degrade to
/// an empty score list.
pub fn run_cell_scores(method: Method, cell: &Cell<'_>, scale: &Scale) -> Vec<f64> {
    let meta = meta_config();
    let run = || -> Result<Vec<f64>> {
        let mut learner = build_method(method, cell.enc, cell.n_ways, &meta)?;
        train_learner(learner.as_mut(), cell, scale, &meta)?;
        evaluate_learner_scores(learner.as_ref(), cell, scale)
    };
    match run() {
        Ok(scores) => scores,
        Err(e) => {
            eprintln!("    [cell skipped: {e}]");
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fewner_corpus::{split_types, DatasetProfile};

    #[test]
    fn smoke_cell_runs_for_every_method() {
        let d = DatasetProfile::bionlp13cg().generate(0.03).unwrap();
        let split = split_types(&d, (8, 3, 5), 1).unwrap();
        let enc = TokenEncoder::build(&[&d], &embedding_spec(), 4);
        let cell = Cell {
            train: &split.train,
            test: &split.test,
            enc: &enc,
            n_ways: 3,
            k_shots: 1,
        };
        let scale = Scale::smoke();
        for method in Method::all() {
            let f1 = run_cell(method, &cell, &scale).unwrap();
            assert!((0.0..=1.0).contains(&f1.mean), "{}: {f1}", method.name());
            assert_eq!(f1.n, scale.episodes);
        }
    }

    #[test]
    fn per_episode_scores_align_with_summary() {
        let d = DatasetProfile::bionlp13cg().generate(0.03).unwrap();
        let split = split_types(&d, (8, 3, 5), 1).unwrap();
        let enc = TokenEncoder::build(&[&d], &embedding_spec(), 4);
        let cell = Cell {
            train: &split.train,
            test: &split.test,
            enc: &enc,
            n_ways: 3,
            k_shots: 1,
        };
        let scale = Scale::smoke();
        let scores = run_cell_scores(Method::ProtoNet, &cell, &scale);
        assert_eq!(scores.len(), scale.episodes);
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
        let summary = fewner_util::ci95(&scores);
        assert_eq!(summary.n, scale.episodes);
    }

    #[test]
    fn full_net_methods_get_the_paper_inner_lr() {
        // The harness overrides inner_lr for full-network adapters; this is
        // observable through the method's behaviour only, so pin the config
        // plumbing instead: the base meta config keeps the calibrated value.
        let meta = meta_config();
        assert_eq!(meta.inner_lr, 0.25);
        assert_eq!(meta.inner_steps_train, 3);
        assert_eq!(meta.inner_steps_test, 10);
    }

    #[test]
    fn scale_parsing() {
        let args: Vec<String> = ["--scale", "paper", "--episodes", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let s = Scale::from_args(&args);
        assert_eq!(s.corpus, 1.0);
        assert_eq!(s.episodes, 7);
        let none = Scale::from_args(&[]);
        assert_eq!(none.episodes, Scale::small().episodes);
    }

    #[test]
    fn method_listing_matches_paper_tables() {
        let all = Method::all();
        assert_eq!(all.len(), 10);
        assert_eq!(all[0].name(), "GPT2");
        assert_eq!(all[9].name(), "FewNER");
        assert_eq!(Method::static_group().len(), 5);
    }
}
