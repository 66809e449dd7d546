//! `fewner` — command-line interface to the reproduction.
//!
//! ```text
//! fewner corpus   --profile genia --scale 0.05          # corpus statistics
//! fewner train    --profile genia --scale 0.05 --iterations 300 \
//!                 --model model.json                    # meta-train + checkpoint
//! fewner evaluate --profile genia --scale 0.05 --model model.json \
//!                 --episodes 100                        # score on held-out tasks
//! fewner demo     --profile bionlp13cg --scale 0.2      # train briefly, show output
//! fewner predict  --profile genia --scale 0.05 --model model.json \
//!                 --episodes 3                          # adapt + stream predictions
//! fewner serve    --profile genia --scale 0.05 --model model.json \
//!                 --addr 127.0.0.1:0 --phi-dir phis     # multi-tenant daemon
//! ```
//!
//! Every run is deterministic given its flags; profiles are the six paper
//! datasets plus the ACE sub-domains (`ace-bc`, `ace-bn`, …). Flag names are
//! shared across subcommands (`--model`, `--trace`, `--seed` always mean the
//! same thing) and defined once in [`fewner::cli`]; a flag a subcommand does
//! not take, or a value that does not parse, fails the run.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

use fewner::cli::{
    backbone, build_encoder, check_flags, check_train_flags, flag, meta, opt_flag, parse_args,
    profile, split_counts, split_for, weights, USAGE,
};
use fewner::core::Checkpoint;
use fewner::corpus::CorpusSource;
use fewner::prelude::*;
use fewner::tensor::WeightFormat;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `trace` takes positional arguments (`fewner trace summarize <path>`),
    // unlike the flag-driven commands.
    if args.first().map(String::as_str) == Some("trace") {
        return match cmd_trace(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some((command, flags)) = parse_args(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    type Command = fn(&HashMap<String, String>) -> fewner::Result<()>;
    let run: Command = match command.as_str() {
        "corpus" => cmd_corpus,
        "train" => cmd_train,
        "train-sharded" => cmd_train_sharded,
        "evaluate" => cmd_evaluate,
        "demo" => cmd_demo,
        "predict" => cmd_predict,
        "serve" => cmd_serve,
        _ => {
            eprintln!("unknown command `{command}`\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match check_flags(&command, &flags).and_then(|()| run(&flags)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `--trace` flag, shared by train/predict/serve.
fn tracer_for(flags: &HashMap<String, String>) -> Tracer {
    match flags.get("trace") {
        Some(path) => Tracer::jsonl(path),
        None => Tracer::disabled(),
    }
}

/// Loads the checkpoint named by the unified `--model` flag, then applies
/// the `--weights` precision. Quantized checkpoint *files* are detected
/// transparently; the flag additionally lets a full-precision checkpoint be
/// served rounded (`--weights i8` ≡ loading an i8-saved file).
fn load_model(
    flags: &HashMap<String, String>,
    enc: &TokenEncoder,
    what: &str,
) -> fewner::Result<Fewner> {
    let Some(path) = flags.get("model").or_else(|| flags.get("out")) else {
        return Err(fewner::Error::InvalidConfig(format!(
            "{what} requires --model <checkpoint>"
        )));
    };
    let ckpt = Checkpoint::load(path)?;
    if ckpt.weights != WeightFormat::F32 {
        println!("loaded {} θ from {path}", ckpt.weights.name());
    }
    let mut learner = ckpt.restore(enc)?;
    let format = weights(flags)?;
    if format != WeightFormat::F32 {
        learner.theta.quantize_all(format);
        println!("serving θ quantized to {}", format.name());
    }
    Ok(learner)
}

fn cmd_corpus(flags: &HashMap<String, String>) -> fewner::Result<()> {
    let p = profile(flags)?;
    let scale = flag(flags, "scale", 0.05f64)?;
    let data = p.generate(scale)?;
    let stats = data.stats();
    println!(
        "{}: genre {}, {} types, {} sentences, {} mentions ({:.2}/sentence)",
        p.name,
        data.genre.name(),
        stats.types,
        stats.sentences,
        stats.mentions,
        stats.mentions as f64 / stats.sentences as f64
    );
    println!("\nsample sentences:");
    for s in data.sentences.iter().take(3) {
        println!("  {}", s.display_with(|t| data.type_name(t).to_string()));
    }
    Ok(())
}

fn cmd_train(flags: &HashMap<String, String>) -> fewner::Result<()> {
    check_train_flags(flags)?;
    let p = profile(flags)?;
    let scale = flag(flags, "scale", 0.05f64)?;
    let seed = flag(flags, "seed", 42u64)?;
    let ways = flag(flags, "ways", 5usize)?;
    let shots = flag(flags, "shots", 1usize)?;
    let iterations = flag(flags, "iterations", 300usize)?;
    let threads = flag(flags, "threads", 1usize)?;
    let checkpoint_every = flag(flags, "checkpoint-every", 0usize)?;
    let ckpt_dir = flags
        .get("checkpoint-dir")
        .or(flags.get("resume"))
        .cloned()
        .unwrap_or_else(|| "checkpoints".to_string());
    let shards = flag(flags, "shards", 1usize)?;
    let shard_id = flag(flags, "shard-id", 0usize)?;
    let coordinator = flags.get("coordinator");
    if shards > 1 && coordinator.is_none() {
        return Err(fewner::Error::InvalidConfig(
            "--shards > 1 requires --coordinator <host:port>".into(),
        ));
    }

    let cfg = meta();
    let mut schedule = TrainConfig::new(ways, shots)
        .iterations(iterations)
        .query_size(6)
        .seed(seed)
        .threads(threads)
        .shards(shards)
        .shard_id(shard_id);
    if checkpoint_every > 0 {
        schedule = schedule
            .checkpoint_every(checkpoint_every)
            .checkpoint_dir(&ckpt_dir);
        println!("rolling snapshots every {checkpoint_every} iterations in {ckpt_dir}/");
    }
    if let Some(path) = flags.get("trace") {
        schedule = schedule.trace(path);
        println!("tracing to {path}");
    }
    if let Some(coordinator) = coordinator {
        schedule = schedule.coordinator(coordinator);
        println!("shard {shard_id}/{shards}, coordinator at {coordinator}");
    }
    let chunk_size = flag(flags, "corpus-chunk-size", 0usize)?;
    let (learner, log) = if chunk_size > 0 {
        train_streaming(flags, &p, scale, seed, ways, chunk_size, &cfg, &schedule)?
    } else {
        let data = p.generate(scale)?;
        let split = split_for(&p, &data, seed)?;
        let enc = build_encoder(&data);
        let mut learner = Fewner::new(backbone(ways), &enc, cfg.clone())?;
        println!(
            "meta-training FEWNER on {} ({} train sentences, {} train types)…",
            p.name,
            split.train.len(),
            split.train.types.len()
        );
        let log = trainer(flags).train(&mut learner, &split.train, &enc, &cfg, &schedule)?;
        (learner, log)
    };
    println!(
        "trained {} tasks in {:.1}s; loss {:.3} → {:.3}",
        log.tasks_seen,
        log.wall_secs,
        log.losses.first().copied().unwrap_or(f32::NAN),
        log.tail_loss(10).unwrap_or(f32::NAN)
    );
    // `--out` was the historical name for the checkpoint path; `--model` is
    // the unified flag (what train writes is what the others read).
    if let Some(path) = flags.get("model").or_else(|| flags.get("out")) {
        Checkpoint::capture(&learner).save(path)?;
        println!("checkpoint written to {path}");
    }
    Ok(())
}

/// The streaming train path (`--corpus-chunk-size` > 0): sentences are
/// generated chunk-on-demand and the episode sampler keeps only a bounded
/// window of routed sentences resident, so peak corpus memory is set by
/// `--stream-window`, not `--scale`. The token encoder still needs
/// corpus-wide vocabulary statistics; one materializing pass builds it and
/// is dropped before training starts. Chunked generation is byte-identical
/// to the monolithic generator, so with default `--corpus-sentences` the
/// encoder — and therefore the checkpoint — stays portable to
/// `evaluate`/`predict`/`serve`, which rebuild the encoder from `--scale`.
#[allow(clippy::too_many_arguments)]
fn train_streaming(
    flags: &HashMap<String, String>,
    p: &DatasetProfile,
    scale: f64,
    seed: u64,
    ways: usize,
    chunk_size: usize,
    cfg: &MetaConfig,
    schedule: &TrainConfig,
) -> fewner::Result<(Fewner, TrainingLog)> {
    let sentences = opt_flag(flags, "corpus-sentences")?;
    let window = flag(flags, "stream-window", 512usize)?;
    let stride = flag(flags, "stream-stride", 64usize)?;
    let corpus = p.stream(scale, sentences, chunk_size)?;
    let ids: Vec<fewner::text::TypeId> = corpus.types().iter().map(|t| t.id).collect();
    let counts = split_counts(p, ids.len());
    let (train_types, _, _) = fewner::corpus::partition_type_ids(ids, counts, seed)?;
    let enc = {
        let d = corpus.clone().materialize()?;
        build_encoder(&d)
    };
    let mut learner = Fewner::new(backbone(ways), &enc, cfg.clone())?;
    let total = corpus.total_sentences();
    let mut source =
        fewner::core::StreamSource::open(corpus, train_types, schedule, window, stride)?;
    println!(
        "meta-training FEWNER on a {} stream ({total} sentences in {chunk_size}-sentence \
         chunks; window {window}, stride {stride})…",
        p.name,
    );
    let log = trainer(flags).train_stream(&mut learner, &mut source, &enc, cfg, schedule)?;
    Ok((learner, log))
}

/// The trainer `fewner train` runs: one that starts from the newest valid
/// snapshot in the `--resume` directory, or from iteration 0.
fn trainer(flags: &HashMap<String, String>) -> Trainer {
    match flags.get("resume") {
        Some(dir) => {
            println!("resuming from the newest valid snapshot in {dir}/…");
            Trainer::new().resume_from(dir)
        }
        None => Trainer::new(),
    }
}

/// Single-machine sharded-training driver: binds the coordinator on an
/// ephemeral port, spawns one `fewner train` worker process per shard, and
/// waits for the run. The workers inherit the environment, so
/// `FEWNER_FAULTS` arms (e.g. `shard_die:3@1`) reach them — the `@shard`
/// scope keeps a fault on its intended worker.
fn cmd_train_sharded(flags: &HashMap<String, String>) -> fewner::Result<()> {
    check_train_flags(flags)?;
    let shards = flag(flags, "shards", 2usize)?;
    let coordinator = Arc::new(fewner::core::ShardCoordinator::bind("127.0.0.1:0", shards)?);
    let addr = coordinator.local_addr()?;
    println!("coordinator for {shards} shards on {addr}");

    let coord_tracer = match flags.get("trace") {
        Some(path) => Tracer::jsonl(format!("{path}.coordinator")),
        None => Tracer::disabled(),
    };
    let coord = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || {
            let report = coordinator.run(&coord_tracer);
            coord_tracer.flush().and(report)
        })
    };

    let exe = std::env::current_exe().map_err(|e| fewner::Error::Io {
        path: "<current_exe>".into(),
        detail: e.to_string(),
    })?;
    // Every train flag but the ones set per worker below is forwarded as
    // given (`check_flags` admitted only train flags).
    let mut forwarded: Vec<(&String, &String)> = flags
        .iter()
        .filter(|(key, _)| !matches!(key.as_str(), "shards" | "trace" | "model" | "out"))
        .collect();
    forwarded.sort();
    let mut children = Vec::with_capacity(shards);
    for shard in 0..shards {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("train");
        for (key, value) in &forwarded {
            cmd.arg(format!("--{key}")).arg(value);
        }
        if let Some(path) = flags.get("trace") {
            cmd.arg("--trace").arg(format!("{path}.s{shard}"));
        }
        // Every shard ends with the identical model; one writer is enough.
        if shard == 0 {
            if let Some(path) = flags.get("model").or_else(|| flags.get("out")) {
                cmd.arg("--model").arg(path);
            }
        }
        cmd.arg("--shards")
            .arg(shards.to_string())
            .arg("--shard-id")
            .arg(shard.to_string())
            .arg("--coordinator")
            .arg(addr.to_string());
        let child = cmd.spawn().map_err(|e| fewner::Error::Io {
            path: exe.display().to_string(),
            detail: format!("spawn shard {shard}: {e}"),
        })?;
        children.push((shard, child));
    }

    let mut lost = 0usize;
    for (shard, mut child) in children {
        let status = child.wait().map_err(|e| fewner::Error::Io {
            path: format!("<shard {shard}>"),
            detail: e.to_string(),
        })?;
        if !status.success() {
            eprintln!("shard {shard} exited abnormally ({status})");
            lost += 1;
        }
    }
    // No worker is left to connect, so a rendezvous still waiting for one
    // would only wait out its budget.
    coordinator.abandon_rendezvous();
    let report = coord.join().map_err(|_| fewner::Error::WorkerPanic {
        context: "shard coordinator".into(),
    })??;
    println!(
        "sharded run complete: {} rounds ({} applied, {} skipped), \
         {} retransmits, {} deaths, {} reassignments",
        report.rounds,
        report.applied,
        report.skipped,
        report.retransmits,
        report.deaths,
        report.reassignments
    );
    if lost > 0 {
        println!("({lost} worker(s) were lost; survivors absorbed their task ranges)");
    }
    Ok(())
}

fn cmd_evaluate(flags: &HashMap<String, String>) -> fewner::Result<()> {
    let p = profile(flags)?;
    let scale = flag(flags, "scale", 0.05f64)?;
    let seed = flag(flags, "seed", 42u64)?;
    let ways = flag(flags, "ways", 5usize)?;
    let shots = flag(flags, "shots", 1usize)?;
    let episodes = flag(flags, "episodes", 50usize)?;

    let data = p.generate(scale)?;
    let split = split_for(&p, &data, seed)?;
    let enc = build_encoder(&data);
    let learner = load_model(flags, &enc, "evaluate")?;
    let sampler = EpisodeSampler::new(&split.test, ways, shots, 6)?;
    let tasks = sampler.eval_set(0xE7A1, episodes)?;
    let score = evaluate(&learner, &tasks, &enc)?;
    println!(
        "{} {}-way {}-shot over {} episodes: F1 {}",
        p.name,
        ways,
        shots,
        episodes,
        score.as_percent()
    );
    Ok(())
}

/// `fewner predict` — the one-shot serving path: load a trained checkpoint,
/// adapt a reusable [`AdaptedCtx`] per sampled task, and stream query
/// predictions with a tokens/sec report. Decoding runs on the gradient-free
/// [`Infer`] executor (no tape, recycled buffers); only φ-adaptation builds
/// tapes. For a long-running multi-tenant daemon, see `fewner serve`.
///
/// [`Infer`]: fewner::tensor::Infer
fn cmd_predict(flags: &HashMap<String, String>) -> fewner::Result<()> {
    let p = profile(flags)?;
    let scale = flag(flags, "scale", 0.05f64)?;
    let seed = flag(flags, "seed", 42u64)?;
    let ways = flag(flags, "ways", 5usize)?;
    let shots = flag(flags, "shots", 1usize)?;
    let episodes = flag(flags, "episodes", 3usize)?;
    let show = flag(flags, "show", 5usize)?;

    let data = p.generate(scale)?;
    let split = split_for(&p, &data, seed)?;
    let enc = build_encoder(&data);
    let learner = load_model(flags, &enc, "predict")?;
    let opts = ServeOptions::new().tracer(tracer_for(flags));
    let tracer = opts.tracer_ref();
    let sampler = EpisodeSampler::new(&split.test, ways, shots, 6)?;
    let tasks = sampler.eval_set(0xE7A1, episodes)?;
    let mut total = Throughput::default();
    for (i, task) in tasks.iter().enumerate() {
        // Adapt once, predict under the reusable context — the same split
        // the serving daemon caches across requests.
        let (preds, t) = measure_predictions(|| {
            let ctx = learner.adapt(task, &enc, &opts)?;
            let query: Vec<fewner::models::EncodedSentence> =
                task.query.iter().map(|s| enc.encode(&s.tokens)).collect();
            learner.predict(&ctx, &query, &opts)
        })?;
        total.merge(&t);
        tracer.observe("serve/tokens_per_sec", t.tokens_per_sec());
        let tags = task.tag_set();
        println!(
            "task {}/{}: adapted φ to {} support sentences; {}",
            i + 1,
            tasks.len(),
            task.support.len(),
            t.render()
        );
        for (pred_idx, sent) in preds.iter().zip(&task.query).take(show) {
            let pred: Vec<Tag> = pred_idx.iter().map(|&j| tags.tag(j)).collect();
            println!(
                "  {}",
                qualitative_line(&sent.tokens, &sent.tags, &pred, |slot| {
                    data.type_name(task.slot_types[slot]).to_string()
                })
            );
        }
    }
    // Buffer-pool behaviour of the gradient-free executor, accumulated over
    // every per-task `Infer` dropped during serving.
    let pool = fewner::tensor::infer_global_stats();
    tracer.gauge("infer/pool_hits", pool.pool_hits as f64);
    tracer.gauge("infer/pool_misses", pool.pool_misses as f64);
    tracer.gauge("infer/arena_high_water", pool.high_water as f64);
    tracer.flush()?;
    println!("\nserved {} tasks: {}", tasks.len(), total.render());
    println!(
        "infer arena: {} pool hits, {} misses, high-water {} slots",
        pool.pool_hits, pool.pool_misses, pool.high_water
    );
    Ok(())
}

/// `fewner serve` — the long-running multi-tenant daemon: one frozen θ, an
/// adapted-context (φ) cache keyed by `(tenant, task)` with LRU + TTL and
/// optional durable persistence (`--phi-dir`), cross-request micro-batching,
/// and bounded admission (overload sheds instead of queueing without limit).
/// Speaks newline-delimited JSON over TCP; see `fewner::serve::protocol`.
fn cmd_serve(flags: &HashMap<String, String>) -> fewner::Result<()> {
    let p = profile(flags)?;
    let scale = flag(flags, "scale", 0.05f64)?;
    let data = p.generate(scale)?;
    let enc = build_encoder(&data);
    let learner = load_model(flags, &enc, "serve")?;

    let mut policy = CachePolicy::lru(flag(flags, "cache-capacity", 64usize)?);
    if let Some(secs) = opt_flag(flags, "ttl-secs")? {
        policy = policy.ttl_secs(secs);
    }
    if let Some(dir) = flags.get("phi-dir") {
        policy = policy.persist_dir(dir);
    }
    let opts = ServeOptions::new()
        .tracer(tracer_for(flags))
        .cache(policy)
        .batch(flag(flags, "batch", 32usize)?);
    let cfg = ServerConfig::new()
        .workers(flag(flags, "workers", 2usize)?)
        .queue_limit(flag(flags, "queue-limit", 64usize)?)
        .deadline_ms(flag(flags, "deadline-ms", 0u64)?)
        .max_frame_bytes(flag(flags, "max-frame-kb", 1024usize)?.saturating_mul(1 << 10));

    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:0".to_string());
    let listener = TcpListener::bind(&addr).map_err(|e| fewner::Error::Io {
        path: addr.clone(),
        detail: e.to_string(),
    })?;
    let local = listener.local_addr().map_err(|e| fewner::Error::Io {
        path: addr,
        detail: e.to_string(),
    })?;

    let server = Server::new(learner, enc, opts, cfg)?;
    // Scripts scrape this line for the (possibly ephemeral) port.
    println!("listening on {local}");
    std::io::stdout().flush().ok();
    server.run(listener)?;
    println!("server drained and shut down");
    Ok(())
}

/// `fewner trace summarize <path>...` — render trace files written by
/// `--trace`: per-phase latency percentiles, counters, gauges, events, and
/// the paper's §4.5.2 adaptation-vs-training cost split. Passing both a
/// training and a serving trace merges them into one report, which is how
/// the split covers both phases.
fn cmd_trace(args: &[String]) -> fewner::Result<()> {
    match args {
        [verb, paths @ ..] if verb == "summarize" && !paths.is_empty() => {
            print!("{}", TraceSummary::from_files(paths)?.render());
            Ok(())
        }
        _ => Err(fewner::Error::InvalidConfig(
            "usage: fewner trace summarize <path>...".into(),
        )),
    }
}

fn cmd_demo(flags: &HashMap<String, String>) -> fewner::Result<()> {
    let p = profile(flags)?;
    let scale = flag(flags, "scale", 0.2f64)?;
    let seed = flag(flags, "seed", 42u64)?;
    let data = p.generate(scale)?;
    let split = split_for(&p, &data, seed)?;
    // Some profiles' test splits hold fewer than 5 types (bionlp13cg's has
    // 4), so the task is as wide as the split allows.
    let ways = split.test.types.len().min(5);
    let enc = build_encoder(&data);
    let cfg = meta();
    let mut learner = Fewner::new(backbone(ways), &enc, cfg.clone())?;
    let schedule = TrainConfig::new(ways, 1)
        .iterations(flag(flags, "iterations", 150usize)?)
        .query_size(6)
        .seed(seed)
        .threads(flag(flags, "threads", 1usize)?);
    println!("training briefly on {}…", p.name);
    fewner::core::Trainer::new().train(&mut learner, &split.train, &enc, &cfg, &schedule)?;

    let sampler = EpisodeSampler::new(&split.test, ways, 1, 6)?;
    let task = sampler.eval_set(0xE7A1, 1)?.remove(0);
    let preds = learner.adapt_and_predict(&task, &enc)?;
    let tags = task.tag_set();
    println!("\nadapted to a brand-new {ways}-way 1-shot task; predictions:");
    for (pred_idx, sent) in preds.iter().zip(&task.query).take(5) {
        let pred: Vec<Tag> = pred_idx.iter().map(|&i| tags.tag(i)).collect();
        println!(
            "  {}",
            qualitative_line(&sent.tokens, &sent.tags, &pred, |slot| {
                data.type_name(task.slot_types[slot]).to_string()
            })
        );
    }
    Ok(())
}
