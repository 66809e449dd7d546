//! The meta-training loop (Algorithm 1, training procedure).
//!
//! Samples meta-batches of N-way K-shot tasks from a training split, drives
//! any [`EpisodicLearner`] through them, and applies the paper's
//! learning-rate schedule (×0.9 every 5000 tasks, §4.1.3). Also records the
//! per-phase timings behind the §4.5.2 analysis.
//!
//! # Threading and sharding
//!
//! The tasks of one meta-batch are independent given θ, so
//! [`ParallelTrainer`] fans [`EpisodicLearner::task_grad`] across scoped
//! worker threads and reduces the per-task gradients on one thread along
//! the canonical task-index tree ([`crate::reduce::GradReduce`]).
//! Randomness is pinned per task by [`crate::task_rng`], so the parallel
//! loop is bitwise-identical to the serial one for a fixed seed, at any
//! thread count. Configure with [`TrainConfig::threads`].
//!
//! The same plan scales past one process: with [`TrainConfig::shards`]
//! ≥ 2 every worker process runs this loop in lockstep, computes only its
//! assigned subtree of each batch, and applies the coordinator-reduced
//! gradients (see [`crate::shard`]) — still bitwise-identical to the
//! serial run.
//!
//! # Crash safety
//!
//! With [`TrainConfig::checkpoint_every`] set, the loop writes a full
//! [`TrainingSnapshot`] (θ, optimizer moments, both RNG streams, counters,
//! decay position) into [`TrainConfig::checkpoint_dir`] every n completed
//! iterations, as a rolling pair of durable files (per shard, when
//! sharded). A trainer built with [`Trainer::resume_from`] starts the same
//! loop from the newest valid snapshot instead of iteration 0 and —
//! because every source of randomness is part of the snapshot — produces
//! the bitwise-identical model a straight-through run would have, at any
//! thread count.
//!
//! Non-finite meta-batches are skipped, and
//! [`MetaConfig::max_consecutive_skips`] bounds how many may be skipped
//! *in a row* before the loop aborts with [`Error::Diverged`] instead of
//! burning the rest of the schedule on a ruined θ.

use std::path::{Path, PathBuf};
use std::time::Instant;

use fewner_corpus::{SplitView, StreamCursor, StreamingCorpus, TypePartition};
use fewner_episode::{EpisodeSampler, StreamSampler, Task};
use fewner_models::TokenEncoder;
use fewner_obs::Tracer;
use fewner_util::{fault, Error, Json, Result, Rng};

use crate::config::MetaConfig;
use crate::learner::{task_rng, EpisodicLearner, TaskOutcome};
use crate::snapshot::{
    self, RunFingerprint, StreamFingerprint, TrainingSnapshot, SNAPSHOT_VERSION,
};

/// How many trailing finite losses [`Error::Diverged`] carries.
const DIVERGED_TAIL: usize = 8;

/// A requested worker count with `0` resolved to the machine's available
/// parallelism.
fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Outer-loop training schedule.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of meta-iterations (each sees `meta_batch` tasks).
    pub iterations: usize,
    /// N.
    pub n_ways: usize,
    /// K.
    pub k_shots: usize,
    /// Query sentences per training task.
    pub query_size: usize,
    /// Task-sampling seed (distinct from the evaluation seed).
    pub seed: u64,
    /// Worker threads for the per-task meta-gradient fan-out: `1` trains
    /// serially (the default), `0` uses the machine's available
    /// parallelism, `n > 1` uses exactly `n` threads.
    pub threads: usize,
    /// Write a [`TrainingSnapshot`] after every this-many completed
    /// iterations (`0`, the default, disables checkpointing). Requires
    /// `checkpoint_dir` and a learner that implements
    /// [`EpisodicLearner::export_state`].
    pub checkpoint_every: usize,
    /// Directory for rolling training snapshots (the newest
    /// [`snapshot::SNAPSHOTS_KEPT`] are kept).
    pub checkpoint_dir: Option<PathBuf>,
    /// Write a structured trace (spans, events, metric snapshots) to this
    /// JSONL file. `None` (the default) traces nothing and costs nothing.
    /// Tracing never changes the numbers: checkpoints are bitwise
    /// identical with tracing on or off, at any thread count.
    pub trace_path: Option<PathBuf>,
    /// Total worker processes of a sharded run (`1`, the default, trains
    /// in-process; `0` is refused). With `shards > 1` this process computes
    /// only its subtree of each meta-batch and exchanges gradients through
    /// the coordinator at [`TrainConfig::coordinator`].
    pub shards: usize,
    /// This worker's shard id, `0 ≤ shard_id < shards` (must stay `0` when
    /// `shards` is 1).
    pub shard_id: usize,
    /// `host:port` of the shard coordinator (required when `shards > 1`,
    /// refused otherwise).
    pub coordinator: Option<String>,
}

impl TrainConfig {
    /// A schedule for N-way K-shot training with library defaults
    /// (100 iterations, query size 8, seed `0x7E57`, serial, no
    /// checkpoints). Refine with the builder methods.
    pub fn new(n_ways: usize, k_shots: usize) -> TrainConfig {
        TrainConfig {
            iterations: 100,
            n_ways,
            k_shots,
            query_size: 8,
            seed: 0x7E57,
            threads: 1,
            checkpoint_every: 0,
            checkpoint_dir: None,
            trace_path: None,
            shards: 1,
            shard_id: 0,
            coordinator: None,
        }
    }

    /// Sets the number of meta-iterations.
    pub fn iterations(mut self, iterations: usize) -> TrainConfig {
        self.iterations = iterations;
        self
    }

    /// Sets the query sentences per training task.
    pub fn query_size(mut self, query_size: usize) -> TrainConfig {
        self.query_size = query_size;
        self
    }

    /// Sets the task-sampling seed.
    pub fn seed(mut self, seed: u64) -> TrainConfig {
        self.seed = seed;
        self
    }

    /// Sets the worker thread count (see the `threads` field).
    pub fn threads(mut self, threads: usize) -> TrainConfig {
        self.threads = threads;
        self
    }

    /// Sets the snapshot cadence (`0` disables checkpointing).
    pub fn checkpoint_every(mut self, every: usize) -> TrainConfig {
        self.checkpoint_every = every;
        self
    }

    /// Sets the rolling-snapshot directory.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> TrainConfig {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Enables structured tracing to a durable JSONL file (see the
    /// `trace_path` field).
    pub fn trace(mut self, path: impl Into<PathBuf>) -> TrainConfig {
        self.trace_path = Some(path.into());
        self
    }

    /// Sets the shard topology (total worker processes; `1` = unsharded).
    pub fn shards(mut self, shards: usize) -> TrainConfig {
        self.shards = shards;
        self
    }

    /// Sets this worker's shard id.
    pub fn shard_id(mut self, shard_id: usize) -> TrainConfig {
        self.shard_id = shard_id;
        self
    }

    /// Sets the shard coordinator address (`host:port`).
    pub fn coordinator(mut self, addr: impl Into<String>) -> TrainConfig {
        self.coordinator = Some(addr.into());
        self
    }

    /// The tracer this schedule asks for: a JSONL tracer when
    /// `trace_path` is set, the free no-op tracer otherwise.
    pub fn tracer(&self) -> Tracer {
        match &self.trace_path {
            Some(path) => Tracer::jsonl(path),
            None => Tracer::disabled(),
        }
    }

    /// Refuses shard fields that the topology would otherwise silently
    /// ignore: a run never reads `shards: 0` as 1, nor trains in-process
    /// while a shard id or coordinator says it is one worker of many.
    fn check_topology(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(Error::InvalidConfig(
                "shards must be at least 1 (1 trains in-process), got 0".into(),
            ));
        }
        if self.shards == 1 && self.shard_id != 0 {
            return Err(Error::InvalidConfig(format!(
                "shard_id {} needs shards > 1; a 1-shard schedule trains in-process",
                self.shard_id
            )));
        }
        match &self.coordinator {
            Some(addr) if self.shards == 1 => Err(Error::InvalidConfig(format!(
                "coordinator {addr} needs shards > 1; a 1-shard schedule trains in-process"
            ))),
            _ => Ok(()),
        }
    }
}

/// What happened during training.
#[derive(Debug, Clone)]
pub struct TrainingLog {
    /// Mean meta-batch loss per completed iteration.
    pub losses: Vec<f32>,
    /// Total tasks consumed.
    pub tasks_seen: usize,
    /// Iterations skipped because the meta-batch produced a non-finite
    /// loss or gradient (the optimizer refuses them, so θ stays clean).
    pub skipped: usize,
    /// Wall-clock seconds for the whole loop (across all resumed legs).
    pub wall_secs: f64,
    /// Mean wall-clock seconds per meta-iteration (the §4.5.2 "outer
    /// loops" figure).
    pub secs_per_iteration: f64,
}

impl TrainingLog {
    /// Mean of the last `n` losses (convergence diagnostics), or `None`
    /// when no iteration completed — e.g. every batch was skipped.
    pub fn tail_loss(&self, n: usize) -> Option<f32> {
        let tail = &self.losses[self.losses.len().saturating_sub(n)..];
        if tail.is_empty() {
            return None;
        }
        Some(tail.iter().sum::<f32>() / tail.len() as f32)
    }
}

/// Maps an injected task-gradient fault to its observable behaviour:
/// `Error` mimics a numerical blow-up (the trainer's skip path), `Panic`
/// mimics a crash (a worker panic, or process death on the serial path).
fn check_task_fault() -> Result<()> {
    match fault::task_grad_fault() {
        None => Ok(()),
        Some(fault::TaskFault::Error) => Err(Error::NonFinite {
            context: "injected fault: task_grad".into(),
        }),
        Some(fault::TaskFault::Panic) => panic!("injected fault: task_grad panic"),
    }
}

/// Fans [`EpisodicLearner::task_grad`] over scoped worker threads.
///
/// Work is split into contiguous per-thread chunks of task indices; every
/// worker returns its outcomes keyed by those indices, and the reduction
/// ([`TaskOutcome::reduce`]) runs on the calling thread in task-index
/// order. The result is bitwise-identical to
/// [`serial_meta_step`](crate::serial_meta_step) for any thread count.
#[derive(Debug, Clone, Copy)]
pub struct ParallelTrainer {
    threads: usize,
}

impl ParallelTrainer {
    /// A trainer over `threads` workers (`0` = available parallelism).
    pub fn new(threads: usize) -> ParallelTrainer {
        ParallelTrainer {
            threads: resolve_threads(threads),
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// One meta-iteration: [`EpisodicLearner::step_seed`], the batch's task
    /// gradients through [`ParallelTrainer::range_outcomes`], the canonical
    /// reduction, then [`EpisodicLearner::apply_meta_grads`]. Every
    /// in-process step of a training run takes this one path, at any thread
    /// count, traced or not. Per-task losses and the meta-gradient norm are
    /// recorded into `tracer` ([`Tracer::disabled`] records nothing).
    ///
    /// One thread (or one task) computes on the calling thread, so an
    /// injected task-gradient panic ([`fault::FaultPlan`]) unwinds it —
    /// i.e. kills the process, which is exactly the crash the CI
    /// kill-and-resume smoke test wants. On worker threads a panic
    /// surfaces as [`fewner_util::Error::WorkerPanic`].
    pub fn meta_step<L>(
        &self,
        learner: &mut L,
        tasks: &[Task],
        enc: &TokenEncoder,
        tracer: &Tracer,
    ) -> Result<f32>
    where
        L: EpisodicLearner + Sync + ?Sized,
    {
        if tasks.is_empty() {
            return Err(Error::InvalidConfig("empty meta batch".into()));
        }
        let step_seed = learner.step_seed();
        // The whole batch as one reduce-tree root range (a one-element
        // slice of Range, not a collected index list).
        #[allow(clippy::single_range_in_vec_init)]
        let full = [0..tasks.len()];
        let outcomes: Vec<TaskOutcome> = self
            .range_outcomes(learner, tasks, enc, step_seed, &full)?
            .into_iter()
            .map(|(_, outcome)| outcome)
            .collect();
        if tracer.enabled() {
            for outcome in &outcomes {
                tracer.observe("train/task_loss", f64::from(outcome.loss));
            }
            tracer.incr("train/tasks", outcomes.len() as u64);
        }
        let (loss, grads) = TaskOutcome::reduce(outcomes)?;
        if tracer.enabled() {
            // Read-only over the reduced gradients; never touches an RNG.
            tracer.observe("train/grad_norm", f64::from(grads.global_norm()));
        }
        learner.apply_meta_grads(grads, tasks.len())?;
        Ok(loss)
    }

    /// Computes [`EpisodicLearner::task_grad`] for exactly the task indices
    /// in `ranges`, fanned over this trainer's workers, returning
    /// `(index, outcome)` pairs in ascending index order.
    ///
    /// This is the transport-agnostic compute kernel shared by the whole
    /// training stack: [`ParallelTrainer::meta_step`] calls it with the
    /// full range `[0..tasks.len()]`, while a shard worker
    /// ([`crate::shard::ShardSession`]) calls it with its assigned subtree
    /// ranges of the meta-batch. Task randomness depends only on
    /// `(step_seed, index)` and the reduction shape only on the index
    /// bracketing ([`crate::reduce::GradReduce`]), so *where* an index is
    /// computed — which thread, which process — cannot change a single bit
    /// of the reduced gradient.
    pub fn range_outcomes<L>(
        &self,
        learner: &L,
        tasks: &[Task],
        enc: &TokenEncoder,
        step_seed: u64,
        ranges: &[std::ops::Range<usize>],
    ) -> Result<Vec<(usize, TaskOutcome)>>
    where
        L: EpisodicLearner + Sync + ?Sized,
    {
        let mut indexed: Vec<(usize, &Task)> = Vec::new();
        for range in ranges {
            if range.end > tasks.len() || range.start >= range.end {
                return Err(Error::InvalidConfig(format!(
                    "task range {}..{} out of bounds for a {}-task batch",
                    range.start,
                    range.end,
                    tasks.len()
                )));
            }
            indexed.extend(range.clone().map(|i| (i, &tasks[i])));
        }
        if indexed.is_empty() {
            return Err(Error::InvalidConfig("empty task range set".into()));
        }
        if self.threads <= 1 || indexed.len() < 2 {
            return indexed
                .into_iter()
                .map(|(index, task)| {
                    check_task_fault()?;
                    let mut rng = task_rng(step_seed, index);
                    Ok((index, learner.task_grad(task, enc, &mut rng)?))
                })
                .collect();
        }
        let chunk = indexed.len().div_ceil(self.threads);
        let per_worker: Vec<Result<Vec<(usize, TaskOutcome)>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = indexed
                .chunks(chunk)
                .map(|pairs| {
                    scope.spawn(move || {
                        pairs
                            .iter()
                            .map(|&(index, task)| {
                                check_task_fault()?;
                                let mut rng = task_rng(step_seed, index);
                                Ok((index, learner.task_grad(task, enc, &mut rng)?))
                            })
                            .collect::<Result<Vec<(usize, TaskOutcome)>>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(Error::WorkerPanic {
                            context: "parallel meta step".into(),
                        })
                    })
                })
                .collect()
        });
        // Workers hold contiguous chunks of the ascending index list, so
        // flattening in worker order restores index order independent of
        // thread timing.
        let mut outcomes = Vec::with_capacity(indexed.len());
        for worker_outcomes in per_worker {
            outcomes.extend(worker_outcomes?);
        }
        Ok(outcomes)
    }
}

/// A streaming training source: the chunked corpus wrapped in a window
/// sampler, plus the geometry recorded into (and checked against) snapshot
/// fingerprints. Build one with [`StreamSource::open`] and hand it to
/// [`Trainer::train_stream`].
pub struct StreamSource {
    sampler: StreamSampler<StreamingCorpus>,
    geometry: StreamFingerprint,
}

impl StreamSource {
    /// Opens a streaming source drawing `cfg`'s N-way K-shot tasks for
    /// `partition` over `corpus`. `window` is the resident raw-sentence
    /// span (the memory bound); `stride` how far each draw slides it.
    pub fn open(
        corpus: StreamingCorpus,
        partition: TypePartition,
        cfg: &TrainConfig,
        window: usize,
        stride: usize,
    ) -> Result<StreamSource> {
        use fewner_corpus::CorpusSource;
        let geometry = StreamFingerprint {
            sentences: corpus.total_sentences(),
            chunk_size: corpus.chunk_size(),
            window,
            stride,
        };
        let sampler = StreamSampler::new(
            corpus,
            partition,
            cfg.n_ways,
            cfg.k_shots,
            cfg.query_size,
            window,
            stride,
        )?;
        Ok(StreamSource { sampler, geometry })
    }

    /// The window sampler (e.g. to read residency statistics after a run).
    pub fn sampler(&self) -> &StreamSampler<StreamingCorpus> {
        &self.sampler
    }
}

/// Where the loop draws its tasks from. Window advancement on the stream
/// side is RNG-free, so both variants leave `LoopState::rng` as the single
/// sampling-randomness stream the snapshot needs.
enum TaskFeed<'a> {
    View(EpisodeSampler<'a>),
    Stream(&'a mut StreamSource),
}

impl TaskFeed<'_> {
    fn sample(&mut self, rng: &mut Rng, tracer: &Tracer) -> Result<Task> {
        match self {
            TaskFeed::View(sampler) => sampler.sample_traced(rng, tracer),
            TaskFeed::Stream(source) => source.sampler.sample_traced(rng, tracer),
        }
    }

    /// The stream position to persist (`None` for materialized views).
    fn cursor(&self) -> Option<StreamCursor> {
        match self {
            TaskFeed::View(_) => None,
            TaskFeed::Stream(source) => Some(source.sampler.cursor()),
        }
    }

    /// Replays the stream window to `cursor`; a view has nothing to replay.
    fn seek(&mut self, cursor: StreamCursor, tracer: &Tracer) -> Result<()> {
        match self {
            TaskFeed::View(_) => Ok(()),
            TaskFeed::Stream(source) => source.sampler.seek(cursor, tracer),
        }
    }

    /// The stream geometry the run fingerprint pins (`None` for views).
    fn geometry(&self) -> Option<StreamFingerprint> {
        match self {
            TaskFeed::View(_) => None,
            TaskFeed::Stream(source) => Some(source.geometry),
        }
    }
}

/// Everything the loop mutates between iterations: restoring this struct
/// plus the learner's own state *is* resumption.
struct LoopState {
    iteration: usize,
    rng: Rng,
    losses: Vec<f32>,
    tasks_seen: usize,
    skipped: usize,
    consecutive_skips: usize,
    next_decay: usize,
    prior_wall_secs: f64,
}

impl LoopState {
    fn fresh(meta: &MetaConfig, cfg: &TrainConfig) -> LoopState {
        LoopState {
            iteration: 0,
            rng: Rng::new(cfg.seed),
            losses: Vec::with_capacity(cfg.iterations),
            tasks_seen: 0,
            skipped: 0,
            consecutive_skips: 0,
            next_decay: meta.decay_every_tasks,
            prior_wall_secs: 0.0,
        }
    }

    fn from_snapshot(snap: &TrainingSnapshot) -> LoopState {
        LoopState {
            iteration: snap.iteration,
            rng: snap.sampler_rng.clone(),
            losses: snap.losses.clone(),
            tasks_seen: snap.tasks_seen,
            skipped: snap.skipped,
            consecutive_skips: snap.consecutive_skips,
            next_decay: snap.next_decay,
            prior_wall_secs: snap.wall_secs,
        }
    }
}

/// The run identity recorded into (and checked against) snapshots.
fn fingerprint_of(
    name: &str,
    meta: &MetaConfig,
    cfg: &TrainConfig,
    stream: Option<StreamFingerprint>,
) -> RunFingerprint {
    RunFingerprint {
        learner: name.to_string(),
        n_ways: cfg.n_ways,
        k_shots: cfg.k_shots,
        query_size: cfg.query_size,
        seed: cfg.seed,
        meta_batch: meta.meta_batch,
        shards: cfg.shards,
        stream,
    }
}

/// The loop state a resumed run continues from: the newest snapshot in
/// `dir` whose fingerprint matches, imported into `learner`, with the
/// stream (if any) replayed to the snapshot's cursor.
fn resume_state<L>(
    dir: &Path,
    learner: &mut L,
    feed: &mut TaskFeed<'_>,
    fingerprint: &RunFingerprint,
    cfg: &TrainConfig,
    tracer: &Tracer,
) -> Result<LoopState>
where
    L: EpisodicLearner + ?Sized,
{
    let (snap, path) =
        snapshot::latest_valid(dir, Some(fingerprint))?.ok_or_else(|| Error::Io {
            path: dir.display().to_string(),
            detail: "no training snapshots found".into(),
        })?;
    // Refused before the import: the learner must not be left with θ from
    // beyond the run that was asked for.
    if snap.iteration > cfg.iterations {
        return Err(Error::InvalidConfig(format!(
            "snapshot {} is at iteration {}, past this schedule's {} iterations",
            path.display(),
            snap.iteration,
            cfg.iterations
        )));
    }
    learner.import_state(&snap.learner)?;
    // Replay the stream window to exactly where the snapshot left it;
    // `sampler_rng` replays the draws, so the continuation is bitwise
    // identical to a straight run.
    feed.seek(snap.stream_cursor.unwrap_or_default(), tracer)?;
    tracer.event(
        "train/resume",
        &[
            ("iteration", Json::from(snap.iteration)),
            ("snapshot", Json::from(path.display().to_string())),
        ],
    );
    Ok(LoopState::from_snapshot(&snap))
}

/// The engine a run steps through: in-process (serial or threaded), or one
/// shard of a multi-process run. Both drive the identical canonical
/// reduction, so the choice never shows up in the numbers.
enum Engine {
    Local(ParallelTrainer),
    Sharded(crate::shard::ShardSession),
}

impl Engine {
    /// Builds the engine `cfg` asks for. A sharded config connects to the
    /// coordinator here — announcing `fingerprint` and `start_iteration` so
    /// every worker of the round-lockstep run provably starts from the same
    /// place.
    fn open(
        cfg: &TrainConfig,
        fingerprint: &RunFingerprint,
        start_iteration: usize,
    ) -> Result<Engine> {
        if cfg.shards == 1 {
            return Ok(Engine::Local(ParallelTrainer::new(cfg.threads)));
        }
        let session = crate::shard::ShardSession::connect(cfg, fingerprint, start_iteration)?;
        Ok(Engine::Sharded(session))
    }

    fn step<L>(
        &mut self,
        learner: &mut L,
        batch: &[Task],
        enc: &TokenEncoder,
        tracer: &Tracer,
    ) -> Result<f32>
    where
        L: EpisodicLearner + Sync + ?Sized,
    {
        match self {
            Engine::Local(pool) => pool.meta_step(learner, batch, enc, tracer),
            Engine::Sharded(session) => session.step(learner, batch, enc, tracer),
        }
    }
}

/// The one training entry point: fresh runs and checkpointed resumption,
/// local or sharded, traced or silent, over a materialized split
/// ([`Trainer::train`]) or a corpus stream ([`Trainer::train_stream`]).
///
/// A default `Trainer` derives its tracer from the schedule
/// ([`TrainConfig::trace_path`]); [`Trainer::with_tracer`] overrides that
/// with an explicit instrument (tests inject a manual clock and an
/// in-memory sink this way). The tracer is flushed when a run ends —
/// normally *or* with an error such as [`Error::Diverged`] — so traces
/// survive failed runs. Tracing never changes the numbers.
/// [`Trainer::resume_from`] starts the run from a snapshot instead of
/// iteration 0.
#[derive(Clone, Default)]
pub struct Trainer {
    tracer: Option<Tracer>,
    resume: Option<PathBuf>,
}

impl Trainer {
    /// A trainer that traces wherever [`TrainConfig::trace_path`] points
    /// (or nowhere).
    pub fn new() -> Trainer {
        Trainer::default()
    }

    /// A trainer bound to an explicit tracer, overriding
    /// [`TrainConfig::trace_path`].
    pub fn with_tracer(tracer: &Tracer) -> Trainer {
        Trainer {
            tracer: Some(tracer.clone()),
            ..Trainer::default()
        }
    }

    /// This trainer, starting its runs from the newest valid snapshot in
    /// `dir` instead of iteration 0.
    ///
    /// The learner handed to [`Trainer::train`] or [`Trainer::train_stream`]
    /// must be freshly constructed with the same architecture and
    /// configuration as the original run (constructors are
    /// seed-deterministic); its mutable state is then replaced wholesale
    /// via [`EpisodicLearner::import_state`]. The snapshot's
    /// [`RunFingerprint`] must match the given schedule — except for
    /// [`TrainConfig::iterations`], which may grow so a finished run can be
    /// extended. Snapshots from a different run configuration (learner,
    /// schedule, seed, shard topology or stream geometry) are skipped over;
    /// if only such foreign snapshots exist the resume is refused, before
    /// any coordinator is dialled. A snapshot at exactly
    /// [`TrainConfig::iterations`] returns the run as it recorded it,
    /// without training (a shard worker still joins the rendezvous, so the
    /// coordinator sees it finish); one past it is refused. Because the
    /// snapshot carries every source of randomness, the stream cursor
    /// included, the resumed run's final θ is bitwise-identical to a
    /// straight-through run's, at any thread or shard count.
    pub fn resume_from(self, dir: impl AsRef<Path>) -> Trainer {
        Trainer {
            resume: Some(dir.as_ref().to_path_buf()),
            ..self
        }
    }

    /// The tracer a run will use under schedule `cfg`.
    fn resolve_tracer(&self, cfg: &TrainConfig) -> Tracer {
        match &self.tracer {
            Some(tracer) => tracer.clone(),
            None => cfg.tracer(),
        }
    }

    /// Meta-trains `learner` on tasks sampled from `view`.
    ///
    /// With [`TrainConfig::checkpoint_every`] set, rolling
    /// [`TrainingSnapshot`]s land in [`TrainConfig::checkpoint_dir`]; a run
    /// killed at any point can be continued by a trainer built with
    /// [`Trainer::resume_from`]. With [`TrainConfig::shards`] > 1 this call
    /// becomes one worker of a multi-process run and blocks until its
    /// shard's part is done.
    pub fn train<L>(
        &self,
        learner: &mut L,
        view: &SplitView,
        enc: &TokenEncoder,
        meta: &MetaConfig,
        cfg: &TrainConfig,
    ) -> Result<TrainingLog>
    where
        L: EpisodicLearner + Sync + ?Sized,
    {
        let sampler = EpisodeSampler::new(view, cfg.n_ways, cfg.k_shots, cfg.query_size)?;
        self.run(learner, TaskFeed::View(sampler), enc, meta, cfg)
    }

    /// Meta-trains `learner` on tasks drawn from a chunked corpus stream —
    /// [`Trainer::train`] without ever materializing the corpus. Only the
    /// bounded resident window of `source` is in memory at any point, so
    /// million-sentence runs train in a few megabytes of corpus state. The
    /// snapshot story is unchanged: the stream cursor rides along in every
    /// [`TrainingSnapshot`], and a resumed run replays the window from it.
    /// A snapshot resumes only under the same stream geometry (corpus
    /// length, chunk size, window, stride): the persisted cursor addresses
    /// the same sentence only under the same chunking.
    pub fn train_stream<L>(
        &self,
        learner: &mut L,
        source: &mut StreamSource,
        enc: &TokenEncoder,
        meta: &MetaConfig,
        cfg: &TrainConfig,
    ) -> Result<TrainingLog>
    where
        L: EpisodicLearner + Sync + ?Sized,
    {
        self.run(learner, TaskFeed::Stream(source), enc, meta, cfg)
    }

    /// The one path behind both entry points: check the schedule, find the
    /// start point, open the engine, run the loop, flush the trace.
    fn run<L>(
        &self,
        learner: &mut L,
        mut feed: TaskFeed<'_>,
        enc: &TokenEncoder,
        meta: &MetaConfig,
        cfg: &TrainConfig,
    ) -> Result<TrainingLog>
    where
        L: EpisodicLearner + Sync + ?Sized,
    {
        meta.validate()?;
        cfg.check_topology()?;
        let tracer = self.resolve_tracer(cfg);
        let fingerprint = fingerprint_of(learner.name(), meta, cfg, feed.geometry());
        let result = match &self.resume {
            None => Ok(LoopState::fresh(meta, cfg)),
            Some(dir) => resume_state(dir, learner, &mut feed, &fingerprint, cfg, &tracer),
        }
        .and_then(|state| {
            // A resume at the schedule's end runs zero iterations: the log
            // is the snapshot's, and a shard worker still joins and leaves
            // the rendezvous, so its coordinator ends cleanly.
            let mut engine = Engine::open(cfg, &fingerprint, state.iteration)?;
            run_loop(
                learner,
                &mut feed,
                &fingerprint,
                enc,
                meta,
                cfg,
                state,
                &tracer,
                &mut engine,
            )
        });
        finish_trace(result, &tracer)
    }
}

/// Flushes the tracer once a run ends, preserving the run's own error over
/// a trace-write failure (but surfacing the latter when the run was fine —
/// a requested trace that silently vanished would be worse than an error).
fn finish_trace(result: Result<TrainingLog>, tracer: &Tracer) -> Result<TrainingLog> {
    let flushed = tracer.flush();
    let log = result?;
    flushed?;
    Ok(log)
}

/// The iteration loop behind [`Trainer::train`] and
/// [`Trainer::train_stream`], from `state` to [`TrainConfig::iterations`].
///
/// In a sharded run every worker executes this exact loop in lockstep:
/// the sampler RNG is part of the snapshot/fingerprint contract, so all
/// shards draw identical meta-batches and only the per-task compute is
/// divided (inside [`Engine::step`]).
#[allow(clippy::too_many_arguments)]
fn run_loop<L>(
    learner: &mut L,
    feed: &mut TaskFeed<'_>,
    fingerprint: &RunFingerprint,
    enc: &TokenEncoder,
    meta: &MetaConfig,
    cfg: &TrainConfig,
    mut state: LoopState,
    tracer: &Tracer,
    engine: &mut Engine,
) -> Result<TrainingLog>
where
    L: EpisodicLearner + Sync + ?Sized,
{
    let ckpt_dir = if cfg.checkpoint_every > 0 {
        let dir = cfg.checkpoint_dir.as_ref().ok_or_else(|| {
            Error::InvalidConfig("checkpoint_every requires checkpoint_dir".into())
        })?;
        // Refuse up front, not at the first snapshot n iterations in.
        if learner.export_state().is_none() {
            return Err(Error::InvalidConfig(format!(
                "{} does not support training-state export; disable checkpoint_every",
                learner.name()
            )));
        }
        Some(dir.clone())
    } else {
        None
    };
    let start = Instant::now();

    while state.iteration < cfg.iterations {
        let mut iter_span = tracer.span("train/iteration");
        iter_span.set("iter", state.iteration);
        // A rare unconstructible task (possible on sparse splits) is
        // skipped rather than aborting a long run; a batch with no tasks at
        // all is a genuine configuration problem.
        let mut batch = Vec::with_capacity(meta.meta_batch);
        let mut last_err = None;
        {
            let mut sample_span = tracer.span("train/sample_batch");
            for _ in 0..meta.meta_batch {
                match feed.sample(&mut state.rng, tracer) {
                    Ok(task) => batch.push(task),
                    Err(e) => last_err = Some(e),
                }
            }
            sample_span.set("tasks", batch.len());
        }
        if batch.is_empty() {
            return Err(last_err.expect("meta_batch > 0"));
        }
        // Likewise a transient numerical failure skips the batch (the
        // optimizer refuses non-finite gradients, so state stays clean);
        // the log counts the skip instead of recording a poisoned loss.
        // But a long *unbroken* run of skips means θ is ruined, not
        // unlucky: the divergence guard aborts rather than burning the
        // rest of the schedule.
        match engine.step(learner, &batch, enc, tracer) {
            Ok(loss) => {
                iter_span.set("loss", loss);
                tracer.observe("train/outer_loss", f64::from(loss));
                state.losses.push(loss);
                state.tasks_seen += batch.len();
                state.consecutive_skips = 0;
                while state.tasks_seen >= state.next_decay {
                    learner.decay_lr(meta.decay);
                    state.next_decay += meta.decay_every_tasks;
                }
            }
            Err(Error::NonFinite { .. }) => {
                iter_span.set("skipped", true);
                tracer.event("train/skip", &[("iter", Json::from(state.iteration))]);
                tracer.incr("train/skipped", 1);
                state.skipped += 1;
                state.consecutive_skips += 1;
                if meta.max_consecutive_skips > 0
                    && state.consecutive_skips >= meta.max_consecutive_skips
                {
                    tracer.event(
                        "train/diverged",
                        &[("consecutive_skips", Json::from(state.consecutive_skips))],
                    );
                    let tail_from = state.losses.len().saturating_sub(DIVERGED_TAIL);
                    return Err(Error::Diverged {
                        consecutive_skips: state.consecutive_skips,
                        loss_tail: state.losses[tail_from..].to_vec(),
                    });
                }
            }
            Err(e) => return Err(e),
        }
        state.iteration += 1;
        tracer.incr("train/iterations", 1);
        if let Some(dir) = &ckpt_dir {
            if state.iteration.is_multiple_of(cfg.checkpoint_every) {
                let mut ckpt_span = tracer.span("train/checkpoint");
                ckpt_span.set("iter", state.iteration);
                let learner_state = learner.export_state().ok_or_else(|| {
                    Error::InvalidConfig(format!(
                        "{} stopped exporting training state mid-run",
                        learner.name()
                    ))
                })?;
                let snap = TrainingSnapshot {
                    version: SNAPSHOT_VERSION,
                    shard: (cfg.shards > 1).then_some(cfg.shard_id),
                    stream_cursor: feed.cursor(),
                    iteration: state.iteration,
                    sampler_rng: state.rng.clone(),
                    losses: state.losses.clone(),
                    tasks_seen: state.tasks_seen,
                    skipped: state.skipped,
                    consecutive_skips: state.consecutive_skips,
                    next_decay: state.next_decay,
                    wall_secs: state.prior_wall_secs + start.elapsed().as_secs_f64(),
                    fingerprint: fingerprint.clone(),
                    learner: learner_state,
                };
                // A failed snapshot write aborts the run: silently losing
                // durability would defeat the point of checkpointing.
                snapshot::save_rolling(dir, &snap)?;
                tracer.incr("train/checkpoints", 1);
            }
        }
    }
    let wall_secs = state.prior_wall_secs + start.elapsed().as_secs_f64();
    Ok(TrainingLog {
        secs_per_iteration: wall_secs / cfg.iterations.max(1) as f64,
        losses: state.losses,
        tasks_seen: state.tasks_seen,
        skipped: state.skipped,
        wall_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conventional::ProtoLearner;
    use crate::fewner::Fewner;
    use fewner_corpus::{split_types, DatasetProfile};
    use fewner_models::{BackboneConfig, Conditioning, HeadKind};
    use fewner_tensor::ParamGrads;
    use fewner_text::embed::EmbeddingSpec;

    fn bb_cfg(cond: Conditioning, phi: usize) -> BackboneConfig {
        BackboneConfig {
            word_dim: 20,
            char_dim: 8,
            char_filters: 6,
            char_widths: vec![2, 3],
            hidden: 10,
            phi_dim: phi,
            slot_ctx_dim: if phi == 0 { 0 } else { 4 },
            conditioning: cond,
            dropout: 0.1,
            use_char_cnn: true,
            encoder: fewner_models::backbone::EncoderKind::BiGru,
            head: HeadKind::Dense { n_ways: 3 },
        }
    }

    #[test]
    fn training_loop_runs_and_logs() {
        let d = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
        let split = split_types(&d, (8, 3, 5), 1).unwrap();
        let enc = TokenEncoder::build(
            &[&d],
            &EmbeddingSpec {
                dim: 20,
                ..EmbeddingSpec::default()
            },
            4,
        );
        let meta = MetaConfig {
            meta_batch: 2,
            inner_steps_train: 1,
            ..MetaConfig::default()
        };
        let mut learner = Fewner::new(bb_cfg(Conditioning::Film, 8), &enc, meta.clone()).unwrap();
        let cfg = TrainConfig::new(3, 1).iterations(3).query_size(4).seed(9);
        let log = Trainer::new()
            .train(&mut learner, &split.train, &enc, &meta, &cfg)
            .unwrap();
        assert_eq!(log.losses.len(), 3);
        assert_eq!(log.tasks_seen, 6);
        assert_eq!(log.skipped, 0);
        assert!(log.losses.iter().all(|l| l.is_finite()));
        assert!(log.secs_per_iteration > 0.0);
        assert!(log.tail_loss(2).unwrap().is_finite());
    }

    /// A learner whose task gradients blow up: the trainer must count the
    /// skipped iterations instead of recording NaN losses.
    struct Exploding;
    impl EpisodicLearner for Exploding {
        fn name(&self) -> &'static str {
            "exploding"
        }
        fn task_grad(
            &self,
            _task: &Task,
            _enc: &TokenEncoder,
            _rng: &mut Rng,
        ) -> Result<TaskOutcome> {
            Err(Error::NonFinite {
                context: "test gradient".into(),
            })
        }
        fn apply_meta_grads(&mut self, _grads: ParamGrads, _n: usize) -> Result<()> {
            Ok(())
        }
        fn adapt_and_predict(&self, _task: &Task, _enc: &TokenEncoder) -> Result<Vec<Vec<usize>>> {
            Ok(vec![])
        }
    }

    #[test]
    fn non_finite_batches_are_counted_not_logged_as_nan() {
        let d = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
        let split = split_types(&d, (8, 3, 5), 1).unwrap();
        let enc = TokenEncoder::build(
            &[&d],
            &EmbeddingSpec {
                dim: 20,
                ..EmbeddingSpec::default()
            },
            4,
        );
        let meta = MetaConfig {
            meta_batch: 2,
            ..MetaConfig::default()
        };
        let cfg = TrainConfig::new(3, 1).iterations(4).query_size(4).seed(9);
        let log = Trainer::new()
            .train(&mut Exploding, &split.train, &enc, &meta, &cfg)
            .unwrap();
        assert_eq!(log.skipped, 4, "every batch must be counted as skipped");
        assert!(log.losses.is_empty(), "no loss entry for a skipped batch");
        assert_eq!(
            log.tail_loss(4),
            None,
            "tail loss over an all-skipped run must be None, not NaN"
        );
    }

    #[test]
    fn unbroken_skips_trip_the_divergence_guard() {
        let d = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
        let split = split_types(&d, (8, 3, 5), 1).unwrap();
        let enc = TokenEncoder::build(
            &[&d],
            &EmbeddingSpec {
                dim: 20,
                ..EmbeddingSpec::default()
            },
            4,
        );
        let meta = MetaConfig {
            meta_batch: 2,
            max_consecutive_skips: 3,
            ..MetaConfig::default()
        };
        let cfg = TrainConfig::new(3, 1).iterations(10).query_size(4).seed(9);
        let err = Trainer::new()
            .train(&mut Exploding, &split.train, &enc, &meta, &cfg)
            .unwrap_err();
        match err {
            Error::Diverged {
                consecutive_skips,
                loss_tail,
            } => {
                assert_eq!(consecutive_skips, 3);
                assert!(loss_tail.is_empty(), "no finite loss ever landed");
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn shard_fields_the_topology_would_ignore_are_refused() {
        let d = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
        let split = split_types(&d, (8, 3, 5), 1).unwrap();
        let enc = TokenEncoder::build(
            &[&d],
            &EmbeddingSpec {
                dim: 20,
                ..EmbeddingSpec::default()
            },
            4,
        );
        let meta = MetaConfig {
            meta_batch: 2,
            ..MetaConfig::default()
        };
        let base = TrainConfig::new(3, 1).iterations(2).query_size(4).seed(9);
        // `Exploding` skips every batch, so a schedule that got past the
        // check would return Ok with two skips, not an error.
        for (cfg, needle) in [
            (base.clone().shards(0), "shards must be at least 1"),
            (base.clone().shard_id(1), "shard_id 1 needs shards > 1"),
            (
                base.clone().coordinator("127.0.0.1:9"),
                "coordinator 127.0.0.1:9 needs shards > 1",
            ),
        ] {
            match Trainer::new().train(&mut Exploding, &split.train, &enc, &meta, &cfg) {
                Err(Error::InvalidConfig(msg)) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("expected InvalidConfig naming `{needle}`, got {other:?}"),
            }
        }
        let log = Trainer::new()
            .train(&mut Exploding, &split.train, &enc, &meta, &base)
            .unwrap();
        assert_eq!(log.skipped, 2, "the default topology trains in-process");
    }

    #[test]
    fn decay_fires_on_task_schedule() {
        // With decay_every_tasks = 4 and meta_batch = 2, the decay hook
        // must fire after iterations 2 and 4.
        struct Probe {
            decays: usize,
            // One shared store: every task's grads must reference the same
            // parameter identity for the fixed-order reduction.
            store: fewner_tensor::ParamStore,
        }
        impl EpisodicLearner for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn task_grad(
                &self,
                _task: &Task,
                _enc: &TokenEncoder,
                _rng: &mut Rng,
            ) -> Result<TaskOutcome> {
                Ok(TaskOutcome {
                    loss: 0.0,
                    grads: ParamGrads::zeros_like(&self.store),
                })
            }
            fn apply_meta_grads(&mut self, _grads: ParamGrads, _n: usize) -> Result<()> {
                Ok(())
            }
            fn adapt_and_predict(
                &self,
                _task: &Task,
                _enc: &TokenEncoder,
            ) -> Result<Vec<Vec<usize>>> {
                Ok(vec![])
            }
            fn decay_lr(&mut self, _f: f32) {
                self.decays += 1;
            }
        }
        let d = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
        let split = split_types(&d, (8, 3, 5), 1).unwrap();
        let enc = TokenEncoder::build(
            &[&d],
            &EmbeddingSpec {
                dim: 20,
                ..EmbeddingSpec::default()
            },
            4,
        );
        let meta = MetaConfig {
            meta_batch: 2,
            decay_every_tasks: 4,
            ..MetaConfig::default()
        };
        let mut probe = Probe {
            decays: 0,
            store: fewner_tensor::ParamStore::new(),
        };
        let cfg = TrainConfig::new(3, 1).iterations(4).query_size(4).seed(9);
        Trainer::new()
            .train(&mut probe, &split.train, &enc, &meta, &cfg)
            .unwrap();
        assert_eq!(probe.decays, 2);
    }

    #[test]
    fn training_reduces_loss_on_a_fixed_probe_episode() {
        // Per-iteration losses are noisy across sampled tasks; measure
        // improvement on one *fixed* probe episode before vs after training.
        let d = DatasetProfile::bionlp13cg().generate(0.08).unwrap();
        let split = split_types(&d, (8, 3, 5), 1).unwrap();
        let enc = TokenEncoder::build(
            &[&d],
            &EmbeddingSpec {
                dim: 20,
                ..EmbeddingSpec::default()
            },
            4,
        );
        let sampler = fewner_episode::EpisodeSampler::new(&split.train, 3, 1, 4).unwrap();
        let probe = sampler.sample(&mut Rng::new(777)).unwrap();

        let meta = MetaConfig {
            meta_batch: 2,
            meta_lr: 5e-3,
            ..MetaConfig::default()
        };
        let mut learner =
            ProtoLearner::new(bb_cfg(Conditioning::None, 0), &enc, meta.clone()).unwrap();

        let probe_loss = |l: &mut ProtoLearner| -> f32 {
            // meta_step on a frozen copy would mutate; instead evaluate the
            // episode loss directly through the public learner API by
            // running a step on a clone of the parameters.
            let snapshot = l.theta.snapshot();
            let loss = crate::serial_meta_step(l, std::slice::from_ref(&probe), &enc).unwrap();
            l.theta.restore(&snapshot).unwrap();
            loss
        };
        let before = probe_loss(&mut learner);
        let cfg = TrainConfig::new(3, 1).iterations(24).query_size(4).seed(10);
        Trainer::new()
            .train(&mut learner, &split.train, &enc, &meta, &cfg)
            .unwrap();
        let after = probe_loss(&mut learner);
        assert!(
            after < before,
            "probe loss should improve: {before} -> {after}"
        );
    }
}
