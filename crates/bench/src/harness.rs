//! The experiment harness shared by every table binary and bench.
//!
//! One paper table cell = (method, training split, test split, N, K):
//! meta-train the method on episodes from the training split
//! ([`train_learner`]), then score it on the seed-fixed evaluation episodes
//! from the test split ([`score_learner`]); [`run_method`] does both.
//! [`Scale`] shrinks corpus size / iteration count / episode count
//! uniformly so the same code runs as a smoke test, a laptop run, or a
//! paper-scale run.

use fewner_core::{
    EpisodicLearner, Fewner, FineTuneLearner, FrozenLmLearner, Maml, MetaConfig, ProtoLearner,
    SnailLearner, TrainConfig,
};
use fewner_corpus::SplitView;
use fewner_episode::EpisodeSampler;
use fewner_models::{BackboneConfig, Conditioning, HeadKind, LmFlavor, SnailConfig, TokenEncoder};
use fewner_util::{Error, MeanCi, Result};

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

    /// Parses `--scale smoke|small|paper` (or `--paper-scale`) plus
    /// `--episodes N` / `--iterations N` overrides from CLI arguments
    /// (without the program name); an override holds wherever it stands
    /// relative to the scale. Any other argument, a scale it does not know,
    /// and a count that is missing or does not parse are errors that name
    /// the argument: a typo never runs the default scale.
    pub fn from_args(args: &[String]) -> Result<Scale> {
        let mut scale = Scale::small();
        let (mut episodes, mut iterations) = (None, None);
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| Error::InvalidConfig(format!("{a} needs a value")))
            };
            match a.as_str() {
                "--scale" => {
                    scale = match value()?.as_str() {
                        "smoke" => Scale::smoke(),
                        "small" => Scale::small(),
                        "paper" | "paper-scale" => Scale::paper(),
                        other => {
                            return Err(Error::InvalidConfig(format!(
                                "--scale `{other}` is not one of smoke, small, paper"
                            )))
                        }
                    }
                }
                "--paper-scale" => scale = Scale::paper(),
                "--episodes" | "--iterations" => {
                    let v = value()?;
                    let n = v.parse().map_err(|_| {
                        Error::InvalidConfig(format!("{a} `{v}` is not a valid count"))
                    })?;
                    if a == "--episodes" {
                        episodes = Some(n);
                    } else {
                        iterations = Some(n);
                    }
                }
                other => {
                    return Err(Error::InvalidConfig(format!(
                        "unknown argument `{other}`; this binary takes --scale smoke|small|paper, \
                         --paper-scale, --episodes N and --iterations N"
                    )))
                }
            }
        }
        scale.episodes = episodes.unwrap_or(scale.episodes);
        scale.iterations = iterations.unwrap_or(scale.iterations);
        Ok(scale)
    }

    /// [`Scale::from_args`] over this process's arguments. An argument it
    /// refuses ends the process with exit code 2, naming the argument,
    /// before any work.
    pub fn from_env() -> Scale {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Scale::from_args(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
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

/// Builds `method`, meta-trains it on the cell's training split and scores
/// it with [`score_learner`].
pub fn run_method(method: Method, cell: &Cell<'_>, scale: &Scale) -> Result<Vec<f64>> {
    let meta = meta_config();
    let mut learner = build_method(method, cell.enc, cell.n_ways, &meta)?;
    train_learner(learner.as_mut(), cell, scale, &meta)?;
    score_learner(learner.as_ref(), cell, scale)
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

/// Scores a trained learner on the cell's seed-fixed evaluation episodes,
/// on all cores: one entity F1 per episode, in episode order, so the
/// scores of different methods align by index (the input to paired
/// significance testing).
pub fn score_learner(
    learner: &(dyn EpisodicLearner + Sync),
    cell: &Cell<'_>,
    scale: &Scale,
) -> Result<Vec<f64>> {
    let sampler = EpisodeSampler::new(cell.test, cell.n_ways, cell.k_shots, scale.query_size)?;
    let tasks = sampler.eval_set(EVAL_SEED, scale.episodes)?;
    fewner_eval::score_tasks(learner, &tasks, cell.enc)
}

/// A runner's outcome as a table cell: mean ± CI over the episode scores.
/// A cell that could not run (e.g. a split too starved for K-shot tasks at
/// a tiny scale) is reported on stderr and becomes a NaN mean with `n` 0,
/// which renders as NaN and is written as `null` — never as a zero F1 — so
/// a multi-hour table run carries on past it.
pub fn cell_stat(outcome: &Result<Vec<f64>>) -> MeanCi {
    match outcome {
        Ok(scores) => fewner_util::ci95(scores),
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
            let scores = run_method(method, &cell, &scale).unwrap();
            assert_eq!(scores.len(), scale.episodes, "{}", method.name());
            assert!(
                scores.iter().all(|s| (0.0..=1.0).contains(s)),
                "{}: {scores:?}",
                method.name()
            );
            assert_eq!(cell_stat(&Ok(scores)).n, scale.episodes);
        }
    }

    #[test]
    fn a_cell_too_starved_for_its_shots_is_a_skip_not_a_zero() {
        let d = DatasetProfile::bionlp13cg().generate(0.03).unwrap();
        let split = split_types(&d, (8, 3, 5), 1).unwrap();
        let enc = TokenEncoder::build(&[&d], &embedding_spec(), 4);
        let cell = Cell {
            train: &split.train,
            test: &split.test,
            enc: &enc,
            n_ways: 3,
            k_shots: 500,
        };
        let outcome = run_method(Method::ProtoNet, &cell, &Scale::smoke());
        assert!(outcome.is_err(), "{outcome:?}");
        let stat = cell_stat(&outcome);
        assert!(
            stat.mean.is_nan(),
            "a skipped cell must not read as F1 {stat}"
        );
        assert_eq!(stat.n, 0);
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

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn scale_parsing() {
        let s = Scale::from_args(&args("--scale paper --episodes 7")).unwrap();
        assert_eq!(s.corpus, 1.0);
        assert_eq!(s.episodes, 7);
        let none = Scale::from_args(&[]).unwrap();
        assert_eq!(none.episodes, Scale::small().episodes);
        let s = Scale::from_args(&args("--iterations 9 --episodes 7 --paper-scale")).unwrap();
        assert_eq!((s.corpus, s.iterations, s.episodes), (1.0, 9, 7));
    }

    #[test]
    fn arguments_the_tables_do_not_take_are_refused_by_name() {
        for (line, needle) in [
            ("--episode 1000", "unknown argument `--episode`"),
            ("--scale small extra", "unknown argument `extra`"),
            ("--scale huge", "--scale `huge`"),
            ("--scale", "--scale needs a value"),
            ("--episodes", "--episodes needs a value"),
            ("--episodes ten", "--episodes `ten`"),
            ("--iterations -3", "--iterations `-3`"),
        ] {
            match Scale::from_args(&args(line)) {
                Err(Error::InvalidConfig(msg)) => assert!(msg.contains(needle), "{line}: {msg}"),
                other => panic!("{line}: expected an error naming `{needle}`, got {other:?}"),
            }
        }
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
