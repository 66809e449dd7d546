//! The training workloads: `train` (threaded meta-training over the
//! materialized split, a rolling snapshot every `SNAPSHOT_EVERY`
//! iterations) and `train_sharded` (two in-process shard sessions over the
//! streamed corpus, talking to a coordinator over loopback TCP; no
//! snapshots).
//!
//! A run repeats *units* — a `Trainer` call of a few iterations from the
//! prepared θ — until the measured time is up, at least `MIN_UNITS` units
//! without a snapshot ran and (`train`) the last snapshot cycle is whole.
//! Units cycle through `UNIT_SEEDS` task seeds derived from the workload
//! seed; units of the same task seed do identical work and must end in a
//! byte-identical θ. `Trainer::train` cannot be timed per iteration from
//! outside, so the latency sample is each unit's wall time divided by its
//! iterations.

use std::ops::Range;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use fewner::cli;
use fewner::core::snapshot::{self, SNAPSHOT_VERSION};
use fewner::core::{
    Checkpoint, CoordinatorReport, EpisodicLearner, Fewner, GradPartial, GradReduce, MetaConfig,
    ParallelTrainer, RunFingerprint, ShardCoordinator, ShardSession, StreamFingerprint,
    StreamSource, TaskOutcome, TrainConfig, Trainer, TrainingLog, TrainingSnapshot,
};
use fewner::corpus::{
    partition_type_ids, CorpusSource, DatasetProfile, StreamingCorpus, TypePartition,
};
use fewner::episode::{EpisodeSampler, StreamSampler, Task};
use fewner::eval::F1Counts;
use fewner::models::TokenEncoder;
use fewner::obs::Tracer;
use fewner::tensor::ParamGrads;
use fewner::util::{crc32, durable, Error, FromJson, Json, Result, Rng, ToJson, WireFrame};

use crate::common::{
    self, io_err, mix, secs, WorkDir, World, SCALE, SETUPS, SHOTS, SPLIT_SEED, THREADS,
    TRAIN_QUERY, WAYS,
};
use crate::report::{peak_rss_mb, reset_peak_rss, Metrics, Outcome};
use crate::stats;
use crate::trace::Spans;
use crate::{Args, Layers};

/// Iterations per unit.
const TRAIN_ITERATIONS: usize = 5;
/// `train` writes a rolling snapshot every 50 iterations, the rate the
/// repository's README gives for `fewner train --checkpoint-every`: every
/// tenth unit writes one at its end.
const SNAPSHOT_EVERY: usize = 50;
const SHARD_ITERATIONS: usize = 2;
const SHARDS: usize = 2;
/// Latency samples (units) per run at least, so the sample has a tail (p75
/// at 40).
const MIN_UNITS: usize = 40;
/// Distinct task seeds the units cycle through.
const UNIT_SEEDS: usize = 8;
/// Streamed corpus geometry: chunk size, and the CLI's window and stride.
const CHUNK: usize = 128;
const WINDOW: usize = 512;
const STRIDE: usize = 64;

/// The prepared θ with the optimizer state and RNG it was trained to:
/// every unit continues from it.
struct Prepared {
    ckpt: Checkpoint,
    state: Json,
}

impl Prepared {
    fn learner(&self, enc: &TokenEncoder) -> Result<Fewner> {
        let mut learner = self.ckpt.restore(enc)?;
        learner.import_state(&self.state)?;
        Ok(learner)
    }
}

/// θ as (CRC-32, length) of its checkpoint bytes, for identity checks.
fn theta_bytes(learner: &Fewner) -> (u32, usize) {
    let bytes = Checkpoint::capture(learner).to_json().to_string();
    (crc32(bytes.as_bytes()), bytes.len())
}

/// The streamed corpus, its training-type partition and the encoder.
struct Stream {
    corpus: StreamingCorpus,
    partition: TypePartition,
    enc: TokenEncoder,
}

impl Stream {
    fn open() -> Result<(Stream, f64, f64)> {
        let profile = DatasetProfile::genia();
        let t = Instant::now();
        let corpus = profile.stream(SCALE, None, CHUNK)?;
        let ids: Vec<_> = corpus.types().iter().map(|t| t.id).collect();
        let counts = cli::split_counts(&profile, ids.len());
        let (partition, _, _) = partition_type_ids(ids, counts, SPLIT_SEED)?;
        // The encoder needs corpus-wide vocabulary statistics: one
        // materializing pass, dropped before training (as `fewner train`
        // does on its streaming path).
        let data = corpus.clone().materialize()?;
        let generate_s = secs(t);
        let t = Instant::now();
        let enc = cli::build_encoder(&data);
        let encoder_build_s = secs(t);
        Ok((
            Stream {
                corpus,
                partition,
                enc,
            },
            generate_s,
            encoder_build_s,
        ))
    }

    fn fingerprint(&self, meta: &MetaConfig, seed: u64) -> RunFingerprint {
        RunFingerprint {
            learner: "FewNER".into(),
            n_ways: WAYS,
            k_shots: SHOTS,
            query_size: TRAIN_QUERY,
            seed,
            meta_batch: meta.meta_batch,
            shards: SHARDS,
            stream: Some(StreamFingerprint {
                sentences: self.corpus.total_sentences(),
                chunk_size: self.corpus.chunk_size(),
                window: WINDOW,
                stride: STRIDE,
            }),
        }
    }
}

fn train_cfg(iterations: usize, seed: u64) -> TrainConfig {
    TrainConfig::new(WAYS, SHOTS)
        .iterations(iterations)
        .query_size(TRAIN_QUERY)
        .seed(seed)
}

fn shard_cfg(seed: u64, shard: usize, addr: &str) -> TrainConfig {
    train_cfg(SHARD_ITERATIONS, seed)
        .threads(1)
        .shards(SHARDS)
        .shard_id(shard)
        .coordinator(addr)
}

/// What one unit produced.
struct Unit {
    secs: f64,
    iterations: usize,
    tasks: usize,
    skipped: usize,
    /// Whether the unit ended with a rolling snapshot.
    snapshot: bool,
    /// θ of every replica (one for `train`, one per shard).
    thetas: Vec<(u32, usize)>,
    report: Option<CoordinatorReport>,
    high_water: usize,
    /// The first replica's trained learner.
    learner: Fewner,
}

fn joined<T>(h: thread::ScopedJoinHandle<'_, Result<T>>, what: &str) -> Result<T> {
    h.join().unwrap_or_else(|_| {
        Err(Error::WorkerPanic {
            context: what.into(),
        })
    })
}

/// Whether unit `i` of a `train` run ends with a rolling snapshot.
fn snapshots(i: usize) -> bool {
    ((i + 1) * TRAIN_ITERATIONS).is_multiple_of(SNAPSHOT_EVERY)
}

/// One `Trainer::train` unit; with `snap_dir`, it ends with a rolling
/// snapshot there.
fn train_unit(world: &World, prep: &Prepared, seed: u64, snap_dir: Option<&Path>) -> Result<Unit> {
    let meta = cli::meta();
    let mut learner = prep.learner(&world.enc)?;
    let mut cfg = train_cfg(TRAIN_ITERATIONS, seed).threads(THREADS);
    if let Some(dir) = snap_dir {
        cfg = cfg.checkpoint_every(TRAIN_ITERATIONS).checkpoint_dir(dir);
    }
    let t = Instant::now();
    let log = Trainer::new().train(&mut learner, &world.split.train, &world.enc, &meta, &cfg)?;
    let secs = secs(t);
    Ok(Unit {
        secs,
        iterations: TRAIN_ITERATIONS,
        tasks: log.tasks_seen,
        skipped: log.skipped,
        snapshot: snap_dir.is_some(),
        thetas: vec![theta_bytes(&learner)],
        report: None,
        high_water: 0,
        learner,
    })
}

/// One two-shard `Trainer::train_stream` unit: a fresh coordinator, two
/// sessions on their own threads, timed until both shards finish.
fn sharded_unit(stream: &Stream, prep: &Prepared, seed: u64) -> Result<Unit> {
    let meta = cli::meta();
    let coordinator = ShardCoordinator::bind("127.0.0.1:0", SHARDS)?;
    let addr = coordinator.local_addr()?.to_string();
    let mut replicas: Vec<(Fewner, StreamSource, TrainConfig)> = (0..SHARDS)
        .map(|shard| {
            let cfg = shard_cfg(seed, shard, &addr);
            let source = StreamSource::open(
                stream.corpus.clone(),
                stream.partition.clone(),
                &cfg,
                WINDOW,
                STRIDE,
            )?;
            Ok((prep.learner(&stream.enc)?, source, cfg))
        })
        .collect::<Result<_>>()?;
    let t = Instant::now();
    let (logs, secs, report) = thread::scope(|s| -> Result<_> {
        let coord = s.spawn(|| coordinator.run(&Tracer::disabled()));
        let shards: Vec<_> = replicas
            .iter_mut()
            .map(|(learner, source, cfg)| {
                let (enc, meta) = (&stream.enc, &meta);
                s.spawn(move || Trainer::new().train_stream(learner, source, enc, meta, cfg))
            })
            .collect();
        let logs = shards
            .into_iter()
            .map(|h| joined(h, "shard session"))
            .collect::<Result<Vec<TrainingLog>>>();
        let secs = secs(t);
        let report = joined(coord, "shard coordinator");
        Ok((logs?, secs, report?))
    })?;
    let high_water = replicas[0].1.sampler().high_water();
    let thetas = replicas.iter().map(|(l, ..)| theta_bytes(l)).collect();
    let (learner, ..) = replicas.swap_remove(0);
    Ok(Unit {
        secs,
        iterations: SHARD_ITERATIONS,
        tasks: logs[0].tasks_seen,
        skipped: logs[0].skipped,
        snapshot: false,
        thetas,
        report: Some(report),
        high_water,
        learner,
    })
}

/// Checks a unit against the run's invariants and the θ the first unit of
/// the same task seed ended with.
fn check_unit(unit: &Unit, first: &mut Option<(u32, usize)>, problems: &mut Vec<String>) {
    if unit.thetas.windows(2).any(|w| w[0] != w[1]) {
        problems.push("shard replicas ended with different θ".into());
    }
    if let Some(r) = &unit.report {
        if r.rounds != unit.iterations || r.deaths != 0 || r.retransmits != 0 {
            problems.push(format!(
                "coordinator report: {} rounds for {} iterations, {} deaths, {} retransmits",
                r.rounds, unit.iterations, r.deaths, r.retransmits
            ));
        }
    }
    match first {
        None => *first = unit.thetas.first().copied(),
        Some(theta) => {
            if unit.thetas.first() != Some(theta) {
                problems.push("a repeated unit ended with a different θ".into());
            }
        }
    }
}

pub fn run(sharded: bool, args: &Args, work: &WorkDir) -> Result<Outcome> {
    let (ckpt_path, state) = common::prep_checkpoint(work.path())?;
    let mut problems = Vec::new();

    // Set-up, several times: corpus (or stream) and encoder, the learner(s)
    // restored from the prepared θ, and for sharding the coordinator bind.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (source, generate_s, encoder_build_s) = if sharded {
            let (stream, g, e) = Stream::open()?;
            (Source::Stream(stream), g, e)
        } else {
            let world = World::build()?;
            let (g, e) = (world.generate_s, world.encoder_build_s);
            (Source::World(world), g, e)
        };
        let t_load = Instant::now();
        let prep = Prepared {
            ckpt: Checkpoint::load(&ckpt_path)?,
            state: state.clone(),
        };
        let enc = source.enc();
        let learners = (0..if sharded { SHARDS } else { 1 })
            .map(|_| prep.learner(enc))
            .collect::<Result<Vec<Fewner>>>()?;
        let checkpoint_load_s = secs(t_load);
        if sharded {
            let coordinator = ShardCoordinator::bind("127.0.0.1:0", SHARDS)?;
            coordinator.local_addr()?;
        }
        setup_s.push(secs(t));
        drop(learners);
        last = Some((source, prep, generate_s, encoder_build_s, checkpoint_load_s));
    }
    let (source, prep, generate_s, encoder_build_s, checkpoint_load_s) = last.expect("SETUPS > 0");
    // The fixed quality set comes from the materialized test split; the
    // streamed workload builds one only to draw it, and drops it.
    let quality = match &source {
        Source::World(world) => common::eval_tasks(world)?,
        Source::Stream(_) => common::eval_tasks(&World::build()?)?,
    };
    let enc = source.enc();

    let snap_dir = work.fresh("snapshots")?;
    // Units cycle through `UNIT_SEEDS` task seeds derived from the workload
    // seed, so a run covers that many distinct meta-batches instead of one.
    let unit_seed = |i: usize| mix(args.seed, (i % UNIT_SEEDS) as u64);
    let snap_of = |i: usize| snapshots(i).then_some(snap_dir.as_path());
    let untraced_unit = |i: usize| match &source {
        Source::World(world) => train_unit(world, &prep, unit_seed(i), snap_of(i)),
        Source::Stream(stream) => sharded_unit(stream, &prep, unit_seed(i)),
    };
    // One unit before timing: lazy state, sockets and page cache settle.
    let mut first_theta = [None; UNIT_SEEDS];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let warm = untraced_unit(0)?;
    check_unit(&warm, &mut first_theta[0], &mut problems);
    attempted += warm.iterations as u64;
    failed += warm.skipped as u64;

    let budget = Duration::from_secs_f64(args.seconds);
    reset_peak_rss()?;
    let start = Instant::now();
    // The measured units; the learner of the latest one is kept for the
    // checkpoint round-trip.
    let mut units: Vec<Timed> = Vec::new();
    let mut high_water = 0;
    let mut trained = None;
    let mut traced: Vec<Timed> = Vec::new();
    let mut spans = Spans::new(start);
    let mut layer_facts = LayerFacts::default();
    // After every unit, one task of the fixed quality set runs adapt →
    // extend → predict on the unit's θ, so the extend sample is spread over
    // the whole run; the first pass over the set gives the entity F1.
    let mut extend_ms = Vec::new();
    let mut counts = F1Counts::default();
    // `train` stops after a whole snapshot cycle, so that every run writes
    // exactly one snapshot per `SNAPSHOT_EVERY` iterations.
    let cycle = if sharded {
        1
    } else {
        SNAPSHOT_EVERY / TRAIN_ITERATIONS
    };
    let enough = |u: &[Timed]| iteration_ms(u).len() >= MIN_UNITS && u.len().is_multiple_of(cycle);
    loop {
        let done = start.elapsed() >= budget && enough(&units) && (!args.trace || enough(&traced));
        // The cap keeps a run on a slow host within a few minutes.
        if done || start.elapsed() > budget + Duration::from_secs(90) {
            break;
        }
        let i = units.len();
        let unit = untraced_unit(i)?;
        check_unit(&unit, &mut first_theta[i % UNIT_SEEDS], &mut problems);
        attempted += unit.iterations as u64;
        failed += unit.skipped as u64;
        let q = units.len() % quality.len();
        let r = common::adapt_extend_predict(&unit.learner, enc, &quality[q])?;
        attempted += 3;
        if r.revision != 2 {
            problems.push(format!(
                "quality task {q}: extend gave revision {}",
                r.revision
            ));
        }
        extend_ms.push(r.extend_ms);
        if units.len() < quality.len() {
            common::score(&mut counts, &quality[q].query, &r.reply)?;
        }
        units.push(unit.timed());
        high_water = high_water.max(unit.high_water);
        trained = Some(unit.learner);
        if args.trace {
            let id = traced.len() as u64;
            let unit = match &source {
                Source::World(world) => traced_train_unit(
                    world,
                    &prep,
                    unit_seed(i),
                    snap_of(i),
                    &mut spans,
                    id,
                    &mut layer_facts,
                )?,
                Source::Stream(stream) => traced_sharded_unit(
                    stream,
                    &prep,
                    unit_seed(i),
                    &mut spans,
                    id,
                    &mut layer_facts,
                )?,
            };
            // Same task seed as the untraced unit before it: same θ.
            check_unit(&unit, &mut first_theta[i % UNIT_SEEDS], &mut problems);
            attempted += unit.iterations as u64;
            failed += unit.skipped as u64;
            traced.push(unit.timed());
        }
    }

    let peak_rss = peak_rss_mb();
    if units.len() < quality.len() {
        problems.push(format!(
            "only {} units ran; the quality set needs {}",
            units.len(),
            quality.len()
        ));
    }
    let f1 = counts.f1();
    let per_iteration_ms = iteration_ms(&units);
    let throughput = tasks_per_s(&units);

    // The trained checkpoint must survive save → load byte-identically.
    let path = work.path().join("trained.ckpt");
    let trained = trained.ok_or_else(|| Error::InvalidConfig("no unit ran".into()))?;
    let saved = Checkpoint::capture(&trained);
    saved.save(&path)?;
    let reloaded = Checkpoint::load(&path)?;
    let copy = work.path().join("trained-copy.ckpt");
    reloaded.save(&copy)?;
    let (a, b) = (
        std::fs::read(&path).map_err(|e| io_err(&path, e))?,
        std::fs::read(&copy).map_err(|e| io_err(&copy, e))?,
    );
    if a != b || reloaded.to_json().to_string() != saved.to_json().to_string() {
        problems.push("trained checkpoint did not round-trip through save and load".into());
    }

    let metrics = if args.trace {
        let mut layers = Layers::default();
        let untraced_sorted = stats::sorted(per_iteration_ms.clone());
        // Iteration time without the sharded fold/codec replay.
        let mut replay_in: Vec<f64> = vec![0.0; spans.list.len()];
        for s in spans.list.iter().filter(|s| s.name == "replay") {
            if let Some(p) = s.parent {
                replay_in[p] += s.ms();
            }
        }
        let traced_ms: Vec<f64> = spans
            .list
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "iteration")
            .map(|(i, s)| s.ms() - replay_in[i])
            .collect();
        let traced_sorted = stats::sorted(iteration_ms(&traced));
        let p50 = |s: &[f64]| stats::percentile(s, 50.0).unwrap_or(0.0);
        layers.set(
            "trace.overhead_latency_p50_ms",
            p50(&traced_sorted) - p50(&untraced_sorted),
        );
        if let (Some(a), Some(b)) = (stats::tail(&untraced_sorted), stats::tail(&traced_sorted)) {
            layers.set("trace.overhead_latency_tail_ms", b.value - a.value);
        }
        layers.set(
            "trace.overhead_throughput_per_s",
            tasks_per_s(&traced) - throughput,
        );
        let iteration = stats::median(&traced_ms).unwrap_or(0.0);
        training_layers(&spans, &layer_facts, iteration, sharded, &mut layers);
        layers.set("models.encoder_build_s", encoder_build_s);
        layers.set("corpus.generate_s", generate_s);
        layers.set("core.checkpoint_load_s", checkpoint_load_s);
        if sharded {
            layers.set("episode.window_high_water", high_water as f64);
        }
        let name = if sharded { "train_sharded" } else { "train" };
        let path = Path::new(".bench_out").join(format!("trace-{name}-seed{}.jsonl", args.seed));
        spans.write_jsonl(&path)?;
        eprintln!("spans written to {}", path.display());
        layers.finish(
            &args.catalogue.per_layer,
            vec![("spans".into(), Json::from(path.display().to_string()))],
        )
    } else {
        let mut m = Metrics::default();
        m.push("setup_s", "s", stats::median(&setup_s).unwrap_or(f64::NAN));
        m.push_p50_and_tail("latency_p50_ms", "latency_tail_ms", &per_iteration_ms)?;
        m.push_p50_and_tail("extend_p50_ms", "extend_tail_ms", &extend_ms)?;
        m.push("throughput_per_s", "1/s", throughput);
        m.push("entity_f1", "ratio", f1);
        m.push("peak_rss_mb", "MB", peak_rss);
        m.detail.push(("units".into(), Json::from(units.len())));
        m.detail.push((
            "setup_samples_s".into(),
            Json::Arr(setup_s.iter().map(|&s| Json::from(s)).collect()),
        ));
        m.detail.push((
            "unit_ms".into(),
            Json::Arr(per_iteration_ms.iter().map(|&s| Json::from(s)).collect()),
        ));
        m
    };
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics,
    })
}

/// A measured unit's time and work.
#[derive(Clone, Copy)]
struct Timed {
    secs: f64,
    iterations: usize,
    tasks: usize,
    snapshot: bool,
}

impl Unit {
    fn timed(&self) -> Timed {
        Timed {
            secs: self.secs,
            iterations: self.iterations,
            tasks: self.tasks,
            snapshot: self.snapshot,
        }
    }
}

/// The latency sample: per-iteration milliseconds of each unit that wrote
/// no snapshot. Every tenth `train` unit ends with one; counting those
/// would put the tail on snapshot units or not depending on how many units
/// a run fits in. Snapshot cost shows in [`tasks_per_s`] and in the traced
/// run's `core.snapshot_*`.
fn iteration_ms(units: &[Timed]) -> Vec<f64> {
    units
        .iter()
        .filter(|u| !u.snapshot)
        .map(|u| u.secs * 1e3 / u.iterations as f64)
        .collect()
}

/// Meta-training tasks per second over all units, snapshots included.
fn tasks_per_s(units: &[Timed]) -> f64 {
    let secs: f64 = units.iter().map(|u| u.secs).sum();
    let tasks: usize = units.iter().map(|u| u.tasks).sum();
    if secs > 0.0 {
        tasks as f64 / secs
    } else {
        0.0
    }
}

enum Source {
    World(World),
    Stream(Stream),
}

impl Source {
    fn enc(&self) -> &TokenEncoder {
        match self {
            Source::World(w) => &w.enc,
            Source::Stream(s) => &s.enc,
        }
    }
}

/// Counts the traced loop measures outside spans.
#[derive(Default)]
struct LayerFacts {
    snapshot_bytes: Vec<f64>,
    shard_bytes: Vec<f64>,
}

/// The loop state `Trainer`'s iteration loop keeps, mirrored so a traced
/// unit takes exactly the same decisions (skips, learning-rate decay).
struct LoopState {
    losses: Vec<f32>,
    tasks_seen: usize,
    skipped: usize,
    consecutive_skips: usize,
    next_decay: usize,
}

impl LoopState {
    fn new(meta: &MetaConfig) -> LoopState {
        LoopState {
            losses: Vec::new(),
            tasks_seen: 0,
            skipped: 0,
            consecutive_skips: 0,
            next_decay: meta.decay_every_tasks,
        }
    }

    /// Applies one step's result the way the trainer does.
    fn settle(
        &mut self,
        learner: &mut Fewner,
        meta: &MetaConfig,
        step: Result<f32>,
        batch: usize,
    ) -> Result<()> {
        match step {
            Ok(loss) => {
                self.losses.push(loss);
                self.tasks_seen += batch;
                self.consecutive_skips = 0;
                while self.tasks_seen >= self.next_decay {
                    learner.decay_lr(meta.decay);
                    self.next_decay += meta.decay_every_tasks;
                }
                Ok(())
            }
            Err(Error::NonFinite { .. }) => {
                self.skipped += 1;
                self.consecutive_skips += 1;
                if meta.max_consecutive_skips > 0
                    && self.consecutive_skips >= meta.max_consecutive_skips
                {
                    return Err(Error::Diverged {
                        consecutive_skips: self.consecutive_skips,
                        loss_tail: self.losses.clone(),
                    });
                }
                Ok(())
            }
            Err(e) => Err(e),
        }
    }
}

/// Draws one meta-batch the way the trainer does: an unconstructible task
/// is skipped, an empty batch is an error.
fn draw_batch(meta: &MetaConfig, mut sample: impl FnMut() -> Result<Task>) -> Result<Vec<Task>> {
    let mut batch = Vec::with_capacity(meta.meta_batch);
    let mut last_err = None;
    for _ in 0..meta.meta_batch {
        match sample() {
            Ok(task) => batch.push(task),
            Err(e) => last_err = Some(e),
        }
    }
    if batch.is_empty() {
        return Err(last_err.unwrap_or_else(|| Error::InvalidConfig("empty meta-batch".into())));
    }
    Ok(batch)
}

/// Task gradients for `indices`, one `range_outcomes` call per task so
/// each gets its own span; returns outcomes in index order.
#[allow(clippy::too_many_arguments)]
fn task_grads(
    learner: &Fewner,
    batch: &[Task],
    enc: &TokenEncoder,
    step_seed: u64,
    indices: Range<usize>,
    spans: &mut Spans,
    id: u64,
    parent: usize,
) -> Result<Vec<TaskOutcome>> {
    let pool = ParallelTrainer::new(1);
    let mut out = Vec::with_capacity(indices.len());
    for i in indices {
        let (got, _) = spans.time("task_grad", id, Some(parent), || {
            pool.range_outcomes(
                learner,
                batch,
                enc,
                step_seed,
                std::slice::from_ref(&(i..i + 1)),
            )
        });
        out.extend(got?.into_iter().map(|(_, o)| o));
    }
    Ok(out)
}

/// A `train` unit driven step by step through the public calls the
/// trainer makes, with spans around each: sample, the task-gradient
/// fan-out over `THREADS` threads (contiguous chunks, as
/// `ParallelTrainer::range_outcomes` splits them), reduce, optimizer step
/// and, with `snap_dir`, the closing snapshot. Its θ must equal
/// `Trainer::train`'s.
fn traced_train_unit(
    world: &World,
    prep: &Prepared,
    seed: u64,
    snap_dir: Option<&Path>,
    spans: &mut Spans,
    unit_id: u64,
    facts: &mut LayerFacts,
) -> Result<Unit> {
    let meta = cli::meta();
    let enc = &world.enc;
    let mut learner = prep.learner(enc)?;
    let sampler = EpisodeSampler::new(&world.split.train, WAYS, SHOTS, TRAIN_QUERY)?;
    let mut rng = Rng::new(seed);
    let fingerprint = RunFingerprint {
        learner: learner.name().into(),
        n_ways: WAYS,
        k_shots: SHOTS,
        query_size: TRAIN_QUERY,
        seed,
        meta_batch: meta.meta_batch,
        shards: 1,
        stream: None,
    };
    let mut state = LoopState::new(&meta);
    let t = Instant::now();
    for it in 0..TRAIN_ITERATIONS {
        let id = unit_id * 1000 + it as u64;
        let iter = spans.open("iteration", id, None);
        let (batch, _) = spans.time("sample", id, Some(iter), || {
            draw_batch(&meta, || sampler.sample(&mut rng))
        });
        let batch = batch?;
        let step_seed = learner.step_seed();
        let fan = spans.open("fanout", id, Some(iter));
        let chunk = batch.len().div_ceil(THREADS);
        let learner_ref = &learner;
        let parts: Vec<Result<(Vec<TaskOutcome>, Spans)>> = thread::scope(|s| {
            let handles: Vec<_> = (0..batch.len())
                .step_by(chunk)
                .map(|lo| {
                    let batch = &batch;
                    let epoch = spans.epoch();
                    s.spawn(move || {
                        let mut local = Spans::new(epoch);
                        let out = task_grads(
                            learner_ref,
                            batch,
                            enc,
                            step_seed,
                            lo..(lo + chunk).min(batch.len()),
                            &mut local,
                            id,
                            usize::MAX,
                        )?;
                        Ok((out, local))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| joined(h, "task-gradient worker"))
                .collect()
        });
        spans.close(fan);
        let mut outcomes = Vec::with_capacity(batch.len());
        let mut fanout_err = None;
        for part in parts {
            match part {
                Ok((out, mut local)) => {
                    for span in &mut local.list {
                        span.parent = Some(fan);
                    }
                    spans.list.extend(local.list);
                    outcomes.extend(out);
                }
                Err(e) => fanout_err = Some(e),
            }
        }
        let step = match fanout_err {
            Some(e) => Err(e),
            None => {
                let (reduced, _) =
                    spans.time("reduce", id, Some(iter), || TaskOutcome::reduce(outcomes));
                reduced.and_then(|(loss, grads)| {
                    spans
                        .time("optim_step", id, Some(iter), || {
                            learner.apply_meta_grads(grads, batch.len())
                        })
                        .0
                        .map(|()| loss)
                })
            }
        };
        state.settle(&mut learner, &meta, step, batch.len())?;
        if let Some(snap_dir) = snap_dir.filter(|_| it + 1 == TRAIN_ITERATIONS) {
            let snap = TrainingSnapshot {
                version: SNAPSHOT_VERSION,
                shard: None,
                stream_cursor: None,
                iteration: it + 1,
                sampler_rng: rng.clone(),
                losses: state.losses.clone(),
                tasks_seen: state.tasks_seen,
                skipped: state.skipped,
                consecutive_skips: state.consecutive_skips,
                next_decay: state.next_decay,
                wall_secs: secs(t),
                fingerprint: fingerprint.clone(),
                learner: learner
                    .export_state()
                    .ok_or_else(|| Error::InvalidConfig("FEWNER exports no state".into()))?,
            };
            let (saved, _) = spans.time("snapshot", id, Some(iter), || {
                snapshot::save_rolling(snap_dir, &snap)
            });
            let path = saved?;
            facts.snapshot_bytes.push(
                std::fs::metadata(&path)
                    .map_err(|e| io_err(&path, e))?
                    .len() as f64,
            );
        }
        spans.close(iter);
    }
    let secs = secs(t);
    Ok(Unit {
        secs,
        iterations: TRAIN_ITERATIONS,
        tasks: state.tasks_seen,
        skipped: state.skipped,
        snapshot: snap_dir.is_some(),
        thetas: vec![theta_bytes(&learner)],
        report: None,
        high_water: 0,
        learner,
    })
}

/// The partial a shard sends and the broadcast it receives, encoded and
/// decoded the way the shard wire does (JSON + CRC frame). Returns the
/// frame bytes of both.
fn replay_codec(
    partial: &GradPartial,
    iteration: usize,
    shard: usize,
    spans: &mut Spans,
    id: u64,
    parent: usize,
) -> Result<usize> {
    let (partial_frame, _) = spans.replay("shard_encode", id, parent, || {
        let msg = Json::Obj(vec![
            ("type".into(), Json::from("partial")),
            ("iteration".into(), Json::from(iteration)),
            ("shard".into(), Json::from(shard)),
            ("status".into(), Json::from("ok")),
            ("parts".into(), Json::Arr(vec![partial.to_json()])),
        ]);
        durable::frame(msg.to_string().as_bytes())
    });
    // The broadcast carries reduced gradients of the same shapes.
    let reduce_frame = durable::frame(
        Json::Obj(vec![
            ("type".into(), Json::from("reduce")),
            ("iteration".into(), Json::from(iteration)),
            ("result".into(), Json::from("apply")),
            ("loss".into(), Json::from(partial.loss_sum)),
            ("grads".into(), partial.grads.to_json()),
        ])
        .to_string()
        .as_bytes(),
    );
    let (decoded, _) = spans.replay("shard_decode", id, parent, || -> Result<ParamGrads> {
        let WireFrame::Frame(payload) =
            durable::read_wire_frame(&mut &reduce_frame[..], usize::MAX)?
        else {
            return Err(Error::InvalidConfig("replayed frame did not verify".into()));
        };
        let text = String::from_utf8(payload).map_err(|e| Error::Serde(e.to_string()))?;
        ParamGrads::from_json(Json::parse(&text)?.field("grads")?)
    });
    decoded?;
    Ok(partial_frame.len() + reduce_frame.len())
}

/// A `train_sharded` unit with both shard loops driven through
/// `ShardSession::step`. Before each round a shard replays its own fold
/// (task gradients + partial) and the wire codec on the same inputs; the
/// step-seed comes from a second learner restored from the same θ, whose
/// RNG advances in lockstep. `round − fold − codec` is the shard's wait.
fn traced_sharded_unit(
    stream: &Stream,
    prep: &Prepared,
    seed: u64,
    spans: &mut Spans,
    unit_id: u64,
    facts: &mut LayerFacts,
) -> Result<Unit> {
    let meta = cli::meta();
    let coordinator = ShardCoordinator::bind("127.0.0.1:0", SHARDS)?;
    let addr = coordinator.local_addr()?.to_string();
    let fingerprint = stream.fingerprint(&meta, seed);
    let epoch = spans.epoch();
    let t = Instant::now();
    let (results, secs, report) = thread::scope(|s| -> Result<_> {
        let coord = s.spawn(|| coordinator.run(&Tracer::disabled()));
        let shards: Vec<_> = (0..SHARDS)
            .map(|shard| {
                let (addr, fingerprint, meta) = (&addr, &fingerprint, &meta);
                s.spawn(
                    move || -> Result<(Fewner, LoopState, Spans, Vec<f64>, usize, f64)> {
                        let enc = &stream.enc;
                        let mut local = Spans::new(epoch);
                        let mut bytes = Vec::new();
                        let mut learner = prep.learner(enc)?;
                        let mut oracle = prep.learner(enc)?;
                        let mut sampler = StreamSampler::new(
                            stream.corpus.clone(),
                            stream.partition.clone(),
                            WAYS,
                            SHOTS,
                            TRAIN_QUERY,
                            WINDOW,
                            STRIDE,
                        )?;
                        let mut rng = Rng::new(seed);
                        let plan = GradReduce::new(meta.meta_batch)?;
                        let mut session =
                            ShardSession::connect(&shard_cfg(seed, shard, addr), fingerprint, 0)?;
                        let mut state = LoopState::new(meta);
                        let mut replay_ms = 0.0;
                        for it in 0..SHARD_ITERATIONS {
                            let id = (unit_id * 1000 + it as u64) * 10 + shard as u64;
                            let iter = local.open("iteration", id, None);
                            let (batch, _) = local.time("sample", id, Some(iter), || {
                                draw_batch(meta, || sampler.sample(&mut rng))
                            });
                            let batch = batch?;
                            let step_seed = oracle.step_seed();
                            let ranges = session.ranges().to_vec();
                            let mut replayed = Vec::new();
                            let replay_span = local.open("replay", id, Some(iter));
                            for range in &ranges {
                                let outcomes = task_grads(
                                    &learner,
                                    &batch,
                                    enc,
                                    step_seed,
                                    range.clone(),
                                    &mut local,
                                    id,
                                    usize::MAX,
                                )?;
                                replayed.extend(local.list.len() - range.len()..local.list.len());
                                let (partial, r) = local.time("reduce", id, None, || {
                                    plan.partial(range.start, outcomes)
                                });
                                replayed.push(r);
                                let codec_at = local.list.len();
                                bytes.push(replay_codec(
                                    &partial?,
                                    it,
                                    shard,
                                    &mut local,
                                    id,
                                    usize::MAX,
                                )? as f64);
                                replayed.extend(codec_at..local.list.len());
                            }
                            local.close(replay_span);
                            replay_ms += local.list[replay_span].ms();
                            let (step, round) = local.time("round", id, Some(iter), || {
                                session.step(&mut learner, &batch, enc, &Tracer::disabled())
                            });
                            for r in replayed {
                                local.list[r].parent = Some(round);
                                local.list[r].replayed = true;
                            }
                            state.settle(&mut learner, meta, step, batch.len())?;
                            local.close(iter);
                        }
                        let high_water = sampler.high_water();
                        drop(session);
                        Ok((learner, state, local, bytes, high_water, replay_ms))
                    },
                )
            })
            .collect();
        let results = shards
            .into_iter()
            .map(|h| joined(h, "traced shard"))
            .collect::<Result<Vec<_>>>();
        let secs = secs(t);
        let report = joined(coord, "shard coordinator");
        Ok((results?, secs, report?))
    })?;
    let mut thetas = Vec::new();
    let mut tasks = 0;
    let mut skipped = 0;
    let mut high_water = 0;
    let mut replay_ms = 0.0;
    let mut first = None;
    for (i, (learner, state, local, bytes, hw, replayed)) in results.into_iter().enumerate() {
        thetas.push(theta_bytes(&learner));
        first.get_or_insert(learner);
        if i == 0 {
            tasks = state.tasks_seen;
            skipped = state.skipped;
            // The shards replay concurrently; shard 0's replay time stands
            // in for the unit's.
            replay_ms = replayed;
        }
        high_water = high_water.max(hw);
        spans.absorb(local);
        facts.shard_bytes.extend(bytes);
    }
    Ok(Unit {
        // The replayed fold and codec are measurement, not training.
        secs: secs - replay_ms / 1e3,
        iterations: SHARD_ITERATIONS,
        tasks,
        skipped,
        snapshot: false,
        thetas,
        report: Some(report),
        high_water,
        learner: first.ok_or_else(|| Error::InvalidConfig("no shard ran".into()))?,
    })
}

/// Per-layer training metrics from the traced units' spans. Shares are
/// over the median traced iteration.
fn training_layers(
    spans: &Spans,
    facts: &LayerFacts,
    iteration: f64,
    sharded: bool,
    layers: &mut Layers,
) {
    let med = |name: &str| spans.median_ms(name).unwrap_or(0.0);
    layers.set_with_share(
        "episode.sample_ms",
        "episode.sample_share",
        med("sample"),
        iteration,
    );
    layers.set("core.task_grad_ms", med("task_grad"));
    layers.set_with_share(
        "core.reduce_ms",
        "core.reduce_share",
        med("reduce"),
        iteration,
    );
    let selfs = spans.self_medians(|_| true);
    layers.set(
        "self.iteration_ms",
        selfs.get("iteration").copied().unwrap_or(0.0),
    );
    let task_total = spans.total_ms("task_grad");
    if sharded {
        layers.set_with_share(
            "core.shard_round_ms",
            "core.shard_round_share",
            med("round"),
            iteration,
        );
        layers.set_with_share(
            "core.shard_wait_ms",
            "core.shard_wait_share",
            selfs.get("round").copied().unwrap_or(0.0),
            iteration,
        );
        layers.set_with_share(
            "core.shard_encode_ms",
            "core.shard_encode_share",
            med("shard_encode"),
            iteration,
        );
        layers.set_with_share(
            "core.shard_decode_ms",
            "core.shard_decode_share",
            med("shard_decode"),
            iteration,
        );
        layers.set(
            "core.shard_bytes_per_round",
            stats::median(&facts.shard_bytes).unwrap_or(0.0),
        );
        // Each shard folds its share of the batch on one thread per round.
        let per_round = task_total
            / (spans
                .list
                .iter()
                .filter(|s| s.name == "round")
                .count()
                .max(1) as f64);
        layers.set("core.task_grad_share", per_round / iteration);
        layers.set(
            "core.fanout_efficiency",
            task_total / spans.total_ms("round").max(f64::MIN_POSITIVE),
        );
    } else {
        layers.set("core.task_grad_share", med("fanout") / iteration);
        layers.set(
            "self.fanout_ms",
            selfs.get("fanout").copied().unwrap_or(0.0),
        );
        layers.set(
            "core.fanout_efficiency",
            task_total / (THREADS as f64 * spans.total_ms("fanout")).max(f64::MIN_POSITIVE),
        );
        layers.set_with_share(
            "tensor.optim_step_ms",
            "tensor.optim_step_share",
            med("optim_step"),
            iteration,
        );
        let iterations = spans
            .list
            .iter()
            .filter(|s| s.name == "iteration")
            .count()
            .max(1) as f64;
        layers.set("core.snapshot_ms", med("snapshot"));
        layers.set(
            "core.snapshot_share",
            spans.total_ms("snapshot") / iterations / iteration,
        );
        layers.set(
            "core.snapshot_bytes",
            stats::median(&facts.snapshot_bytes).unwrap_or(0.0),
        );
    }
}
