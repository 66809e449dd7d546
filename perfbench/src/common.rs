//! Inputs and helpers shared by the serving and training workloads: the
//! corpus, the prepared θ, the fixed quality set and the scratch directory.

use std::path::{Path, PathBuf};
use std::time::Instant;

use fewner::cli;
use fewner::core::{Checkpoint, EpisodicLearner, Fewner, ServeOptions, TrainConfig, Trainer};
use fewner::corpus::{DatasetProfile, TypeSplit};
use fewner::episode::{EpisodeSampler, EpisodeSentence, Task};
use fewner::eval::F1Counts;
use fewner::models::{encode_batch, EncodedSentence, LabeledSentence, TokenEncoder};
use fewner::serve::SupportSentence;
use fewner::text::Tag;
use fewner::util::{Error, Json, Result, Rng};

/// Corpus scale and type-split seed: the CLI defaults, so every workload
/// sees the corpus `fewner train`/`fewner serve` build without flags. The
/// workload seed varies the tasks drawn from it, not the corpus itself.
pub const SCALE: f64 = 0.05;
pub const SPLIT_SEED: u64 = 42;
/// 5-way 1-shot, the CLI default task shape.
pub const WAYS: usize = 5;
pub const SHOTS: usize = 1;
/// Query sentences per training task (the CLI's `fewner train`).
pub const TRAIN_QUERY: usize = 6;
/// Query sentences per served task: one predict request carries all of them.
pub const SERVE_QUERY: usize = 8;
/// Meta-gradient worker threads, and the most load threads a workload runs
/// at once: the reference host has two cores.
pub const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median. One set-up of
/// `serve_adapt`, `train` or `train_sharded` takes tens of milliseconds and
/// varies by up to 2× within a run, so they take many; `serve_predict`'s
/// includes 16 warm adapts (about half a second) and takes fewer.
pub const SETUPS: usize = 15;
pub const SETUPS_WARM: usize = 7;
/// The prepared θ: a short, fixed meta-training from the CLI's model, run
/// on every invocation from the code under test and never cached.
pub const PREP_ITERATIONS: usize = 48;
pub const PREP_SEED: u64 = 42;
/// The fixed quality set: the CLI's evaluation seed, so `entity_f1` of a
/// given θ is the same on every run and seed.
pub const EVAL_SEED: u64 = 0xE7A1;
pub const EVAL_TASKS: usize = 40;

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A per-run scratch directory inside the working directory, removed on
/// drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(workload: &str) -> Result<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> Result<PathBuf> {
        let dir = self.0.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.bench_work` itself only if another run is using it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

pub fn io_err(path: &Path, e: impl std::fmt::Display) -> Error {
    Error::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// The materialized corpus, its type split and the token encoder, built the
/// way the CLI builds them.
pub struct World {
    pub split: TypeSplit,
    pub enc: TokenEncoder,
    pub generate_s: f64,
    pub encoder_build_s: f64,
}

impl World {
    pub fn build() -> Result<World> {
        let profile = DatasetProfile::genia();
        let t = Instant::now();
        let data = profile.generate(SCALE)?;
        let generate_s = secs(t);
        let split = cli::split_for(&profile, &data, SPLIT_SEED)?;
        let t = Instant::now();
        let enc = cli::build_encoder(&data);
        let encoder_build_s = secs(t);
        Ok(World {
            split,
            enc,
            generate_s,
            encoder_build_s,
        })
    }
}

/// Trains the prepared θ and writes it as a checkpoint under `dir`. Also
/// returns the learner's full training state (θ, optimizer moments, RNG),
/// from which the training workloads continue.
pub fn prep_checkpoint(dir: &Path) -> Result<(PathBuf, Json)> {
    let world = World::build()?;
    let meta = cli::meta();
    let mut learner = Fewner::new(cli::backbone(WAYS), &world.enc, meta.clone())?;
    let cfg = TrainConfig::new(WAYS, SHOTS)
        .iterations(PREP_ITERATIONS)
        .query_size(TRAIN_QUERY)
        .seed(PREP_SEED)
        .threads(THREADS);
    let log = Trainer::new().train(&mut learner, &world.split.train, &world.enc, &meta, &cfg)?;
    if log.skipped > 0 {
        return Err(Error::InvalidConfig(format!(
            "prep training skipped {} non-finite iterations",
            log.skipped
        )));
    }
    let path = dir.join("prep.ckpt");
    Checkpoint::capture(&learner).save(&path)?;
    let state = learner
        .export_state()
        .ok_or_else(|| Error::InvalidConfig("FEWNER exports no training state".into()))?;
    Ok((path, state))
}

/// A task is usable by the adapt-then-extend traffic when its support set
/// splits into two non-empty halves.
pub fn splittable(task: &Task) -> bool {
    task.support.len() >= 2
}

/// The first half of a support set (rounded up) goes to `adapt`, the rest
/// to `extend`.
pub fn halves<T>(items: &[T]) -> (&[T], &[T]) {
    items.split_at(items.len().div_ceil(2))
}

/// Draws `count` splittable tasks from the test types.
pub fn draw_tasks(world: &World, rng: &mut Rng, count: usize) -> Result<Vec<Task>> {
    let sampler = EpisodeSampler::new(&world.split.test, WAYS, SHOTS, SERVE_QUERY)?;
    let mut tasks = Vec::with_capacity(count);
    while tasks.len() < count {
        let task = sampler.sample(rng)?;
        if splittable(&task) {
            tasks.push(task);
        }
    }
    Ok(tasks)
}

/// The fixed quality set: the first `EVAL_TASKS` splittable tasks of the
/// CLI's evaluation sequence.
pub fn eval_tasks(world: &World) -> Result<Vec<Task>> {
    let sampler = EpisodeSampler::new(&world.split.test, WAYS, SHOTS, SERVE_QUERY)?;
    let tasks: Vec<Task> = sampler
        .eval_set(EVAL_SEED, EVAL_TASKS * 2)?
        .into_iter()
        .filter(splittable)
        .take(EVAL_TASKS)
        .collect();
    if tasks.len() < EVAL_TASKS {
        return Err(Error::InvalidConfig(format!(
            "only {} splittable tasks in the quality set",
            tasks.len()
        )));
    }
    Ok(tasks)
}

/// Derives a per-purpose seed from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

pub fn wire_support(sentences: &[EpisodeSentence]) -> Vec<SupportSentence> {
    sentences
        .iter()
        .map(|s| SupportSentence {
            tokens: s.tokens.clone(),
            tags: s.tags.clone(),
        })
        .collect()
}

pub fn query_tokens(task: &Task) -> Vec<Vec<String>> {
    task.query.iter().map(|s| s.tokens.clone()).collect()
}

pub fn token_count(task: &Task) -> u64 {
    task.query.iter().map(|s| s.tokens.len() as u64).sum()
}

/// Adds a reply's tags to the entity-level counts against the gold query.
pub fn score(counts: &mut F1Counts, gold: &[EpisodeSentence], reply: &[Vec<String>]) -> Result<()> {
    if reply.len() != gold.len() {
        return Err(Error::InvalidConfig(format!(
            "reply has {} sentences, query has {}",
            reply.len(),
            gold.len()
        )));
    }
    for (pred, sent) in reply.iter().zip(gold) {
        let tags = pred
            .iter()
            .map(|t| Tag::parse(t))
            .collect::<Result<Vec<Tag>>>()?;
        counts.add_tags(&sent.tags, &tags);
    }
    Ok(())
}

/// Decoded tag indices rendered as the wire's tag names.
pub fn tag_names(task: &Task, preds: &[Vec<usize>]) -> Vec<Vec<String>> {
    let tags = task.tag_set();
    preds
        .iter()
        .map(|s| s.iter().map(|&i| tags.name(i)).collect())
        .collect()
}

/// What a task's adapt → extend → predict sequence produces in-process:
/// the reference every served reply is checked against.
pub struct Reference {
    pub extend_ms: f64,
    pub revision: u32,
    pub reply: Vec<Vec<String>>,
}

/// Runs adapt on the first support half, extend on the second, then
/// predicts the query, all on the in-process learner.
pub fn adapt_extend_predict(
    learner: &Fewner,
    enc: &TokenEncoder,
    task: &Task,
) -> Result<Reference> {
    let opts = ServeOptions::new();
    let support: Vec<LabeledSentence> = encode_batch(enc, &task.support, &task.tag_set());
    let (first, rest) = halves(&support);
    let ctx = learner.adapt_support(first, task.n_ways, &opts)?;
    let t = Instant::now();
    let extended = learner.extend(&ctx, rest, &opts)?;
    let extend_ms = ms(t);
    let query: Vec<EncodedSentence> = task.query.iter().map(|s| enc.encode(&s.tokens)).collect();
    let preds = learner.predict(&extended, &query, &opts)?;
    Ok(Reference {
        extend_ms,
        revision: extended.revision(),
        reply: tag_names(task, &preds),
    })
}
