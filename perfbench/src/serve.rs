//! The serving workloads: `serve_predict` (warm read path) and
//! `serve_adapt` (cold write path plus online extension).
//!
//! The daemon runs in this process with the CLI's `fewner serve` defaults
//! (2 workers, 64 queued jobs, 32-sentence micro-batches, a 64-context LRU
//! cache) and φ persistence to a fresh directory. Two closed-loop clients
//! on disjoint keys drive it over loopback TCP: each sends its next request
//! when the previous reply arrived, so no single-flight join, micro-batch
//! merge or eviction order depends on timing.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fewner::core::{AdaptedCtx, CachePolicy, Checkpoint, Fewner, ServeOptions};
use fewner::episode::{EpisodeSampler, Task};
use fewner::eval::F1Counts;
use fewner::models::{EncodedSentence, LabeledSentence, TokenEncoder};
use fewner::obs::Tracer;
use fewner::serve::{Client, PhiCache, Request, Response, Server, ServerConfig, SupportSentence};
use fewner::tensor::{infer_global_stats, Graph, Sgd};
use fewner::text::TagSet;
use fewner::util::{Error, Json, Result, Rng};

use crate::common::{
    self, halves, io_err, mix, query_tokens, secs, splittable, token_count, wire_support, WorkDir,
    World, SERVE_QUERY, SETUPS, SETUPS_WARM, SHOTS, THREADS, WAYS,
};
use crate::report::{peak_rss_mb, reset_peak_rss, Metrics, Outcome};
use crate::stats;
use crate::trace::Spans;
use crate::{Args, Layers};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Warm predicts of whole query sets against pre-adapted tasks.
    Predict,
    /// Per new task: adapt half the support, extend with the rest, predict.
    Adapt,
}

const TENANT: &str = "bench";
/// Warm tasks per client in `serve_predict` (16 in all).
const WARM_TASKS: usize = 8;
/// Untimed rounds over the warm tasks before timing starts.
const WARMUP_ROUNDS: usize = 2;
/// Untimed tasks per client before `serve_adapt` timing starts.
const WARMUP_TASKS: usize = 2;
/// `serve_adapt` tasks per client whose replies are checked in-process.
const CHECKED_TASKS: usize = 2;
/// Replay budget of a traced run: sampled predict requests, and every
/// `REPLAY_EVERY`-th `serve_adapt` task.
const REPLAY_REQUESTS: usize = 400;
const REPLAY_EVERY: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Adapt,
    Extend,
    Predict,
}

/// One timed request, kept for the samples, spans and replay.
struct Req {
    op: Op,
    task: usize,
    start: Instant,
    end: Instant,
    ok: bool,
    /// Work completed with this reply, in the workload's throughput unit.
    credit: u64,
}

/// Everything one client observed in one phase.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    requests: Vec<Req>,
    /// `serve_adapt`: the tasks walked (kept only where later checked or
    /// replayed), by index, and their predict replies.
    tasks: Vec<Option<Task>>,
    replies: Vec<Option<Vec<Vec<String>>>>,
}

impl ClientLog {
    fn credit_last(&mut self, credit: u64) {
        if let Some(r) = self.requests.last_mut() {
            r.credit = credit;
        }
    }

    fn absorb_counts(&mut self, other: &ClientLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems.iter().cloned());
    }
}

/// A running daemon plus what the benchmark needs to check and replay it.
struct Stack {
    server: Arc<Server>,
    handle: Option<thread::JoinHandle<Result<()>>>,
    addr: SocketAddr,
    world: World,
    ckpt: Checkpoint,
    checkpoint_load_s: f64,
}

impl Stack {
    /// Builds the corpus and encoder, loads θ the way `fewner serve` does,
    /// binds and starts the daemon. Returns the stack and its set-up time.
    fn start(ckpt_path: &Path, phi_dir: PathBuf) -> Result<(Stack, f64)> {
        let t = Instant::now();
        let world = World::build()?;
        let t_load = Instant::now();
        let ckpt = Checkpoint::load(ckpt_path)?;
        let learner = ckpt.restore(&world.enc)?;
        let checkpoint_load_s = secs(t_load);
        let opts = ServeOptions::new()
            .tracer(Tracer::disabled())
            .cache(CachePolicy::lru(64).persist_dir(phi_dir))
            .batch(32);
        let cfg = ServerConfig::new()
            .workers(2)
            .queue_limit(64)
            .deadline_ms(0)
            .max_frame_bytes(1024 << 10);
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| io_err(Path::new("127.0.0.1:0"), e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| io_err(Path::new("127.0.0.1:0"), e))?;
        let server = Arc::new(Server::new(learner, world.enc.clone(), opts, cfg)?);
        let runner = Arc::clone(&server);
        let handle = thread::spawn(move || runner.run(listener));
        let stack = Stack {
            server,
            handle: Some(handle),
            addr,
            world,
            ckpt,
            checkpoint_load_s,
        };
        Ok((stack, secs(t)))
    }

    /// Orderly shutdown; waits for every server thread.
    fn stop(mut self) -> Result<()> {
        self.server.begin_shutdown();
        match self.handle.take().map(thread::JoinHandle::join) {
            Some(Ok(result)) => result,
            Some(Err(_)) => Err(Error::WorkerPanic {
                context: "serve daemon".into(),
            }),
            None => Ok(()),
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.server.begin_shutdown();
            let _ = handle.join();
        }
    }
}

/// A client connection whose reads and writes give up after a minute.
fn connect(addr: SocketAddr) -> Result<Client> {
    let mut client = Client::connect(addr)?;
    client.set_io_timeout(Some(Duration::from_secs(60)))?;
    Ok(client)
}

fn key(client: usize, task: usize) -> String {
    format!("c{client}-t{task}")
}

/// Sends one request, timing it and counting it. A failed request is
/// counted, not an output check failure; after a broken connection the
/// client reconnects so one failure does not fail every later request.
fn send<T>(
    client: &mut Client,
    addr: SocketAddr,
    log: &mut ClientLog,
    op: Op,
    task: usize,
    f: impl FnOnce(&mut Client) -> Result<T>,
) -> Option<T> {
    let start = Instant::now();
    let out = f(client);
    let end = Instant::now();
    log.attempted += 1;
    log.requests.push(Req {
        op,
        task,
        start,
        end,
        ok: out.is_ok(),
        credit: 0,
    });
    match out {
        Ok(v) => Some(v),
        Err(e) => {
            log.failed += 1;
            eprintln!("{op:?} request failed: {e}");
            if matches!(e, Error::Io { .. }) {
                if let Ok(fresh) = connect(addr) {
                    *client = fresh;
                }
            }
            None
        }
    }
}

/// `serve_predict` client: round-robin predicts over its warm tasks until
/// `deadline`; every reply must equal the task's reference reply.
fn predict_loop(
    client: &mut Client,
    addr: SocketAddr,
    c: usize,
    tasks: &[Task],
    refs: &[Vec<Vec<String>>],
    deadline: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let queries: Vec<Vec<Vec<String>>> = tasks.iter().map(query_tokens).collect();
    let keys: Vec<String> = (0..tasks.len()).map(|t| key(c, t)).collect();
    let mut i = 0usize;
    while Instant::now() < deadline {
        let t = i % tasks.len();
        i += 1;
        if let Some(reply) = send(client, addr, &mut log, Op::Predict, t, |cl| {
            cl.predict(TENANT, &keys[t], &queries[t])
        }) {
            log.credit_last(token_count(&tasks[t]));
            if reply != refs[t] {
                log.problems.push(format!(
                    "client {c} task {t}: reply changed between predicts"
                ));
            }
        }
    }
    log
}

/// `serve_adapt` client: walks its own seeded sequence of new tasks until
/// `deadline` (or `limit` tasks), each as adapt → extend → predict.
#[allow(clippy::too_many_arguments)]
fn adapt_loop(
    client: &mut Client,
    addr: SocketAddr,
    world: &World,
    c: usize,
    prefix: &str,
    rng: &mut Rng,
    deadline: Instant,
    limit: usize,
    keep: impl Fn(usize) -> bool,
) -> Result<ClientLog> {
    let sampler = EpisodeSampler::new(&world.split.test, WAYS, SHOTS, SERVE_QUERY)?;
    let mut log = ClientLog::default();
    while Instant::now() < deadline && log.replies.len() < limit {
        let task = loop {
            let task = sampler.sample(rng)?;
            if splittable(&task) {
                break task;
            }
        };
        let t = log.replies.len();
        let name = format!("{prefix}{}", key(c, t));
        let support = wire_support(&task.support);
        let (first, rest) = halves(&support);
        let (first, rest) = (first.to_vec(), rest.to_vec());
        let query = query_tokens(&task);
        // Only tasks that are checked or replayed later are kept.
        log.tasks.push(keep(t).then_some(task));
        log.replies.push(None);

        let Some(source) = send(client, addr, &mut log, Op::Adapt, t, |cl| {
            cl.adapt(TENANT, &name, WAYS, first)
        }) else {
            continue;
        };
        if source != "cold" {
            log.problems
                .push(format!("{name}: adapt of a new task came back `{source}`"));
        }
        let Some((revision, source)) = send(client, addr, &mut log, Op::Extend, t, |cl| {
            cl.extend(TENANT, &name, WAYS, rest)
        }) else {
            continue;
        };
        if revision != 2 || source != "extended" {
            log.problems.push(format!(
                "{name}: extend returned revision {revision} ({source}), expected 2"
            ));
        }
        let Some(reply) = send(client, addr, &mut log, Op::Predict, t, |cl| {
            cl.predict(TENANT, &name, &query)
        }) else {
            continue;
        };
        log.credit_last(1);
        if keep(t) {
            log.replies[t] = Some(reply);
        }
    }
    Ok(log)
}

/// Runs one closure per client on its own thread and collects the logs.
fn on_clients<F>(clients: &mut [Client], f: F) -> Result<(Vec<ClientLog>, f64)>
where
    F: Fn(usize, &mut Client) -> Result<ClientLog> + Sync,
{
    let t = Instant::now();
    let logs = thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let f = &f;
                s.spawn(move || f(c, client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(Error::WorkerPanic {
                        context: "load client".into(),
                    })
                })
            })
            .collect::<Result<Vec<ClientLog>>>()
    })?;
    Ok((logs, secs(t)))
}

/// The fixed quality set over the wire: adapt → extend → predict per task.
/// Returns the pooled entity F1 of the replies.
fn quality_over_wire(
    client: &mut Client,
    addr: SocketAddr,
    tasks: &[Task],
    log: &mut ClientLog,
) -> Result<f64> {
    let mut counts = F1Counts::default();
    for (i, task) in tasks.iter().enumerate() {
        let name = format!("quality-{i}");
        let support = wire_support(&task.support);
        let (first, rest) = halves(&support);
        let (first, rest) = (first.to_vec(), rest.to_vec());
        let query = query_tokens(task);
        let Some(source) = send(client, addr, log, Op::Adapt, i, |cl| {
            cl.adapt(TENANT, &name, WAYS, first)
        }) else {
            continue;
        };
        if source != "cold" {
            log.problems
                .push(format!("{name}: adapt came back `{source}`"));
        }
        let Some((revision, _)) = send(client, addr, log, Op::Extend, i, |cl| {
            cl.extend(TENANT, &name, WAYS, rest)
        }) else {
            continue;
        };
        if revision != 2 {
            log.problems.push(format!(
                "{name}: extend returned revision {revision}, expected 2"
            ));
        }
        let Some(reply) = send(client, addr, log, Op::Predict, i, |cl| {
            cl.predict(TENANT, &name, &query)
        }) else {
            continue;
        };
        common::score(&mut counts, &task.query, &reply)?;
        log.replies.push(Some(reply));
    }
    Ok(counts.f1())
}

pub fn run(traffic: Traffic, args: &Args, work: &WorkDir) -> Result<Outcome> {
    let epoch = Instant::now();
    let (ckpt_path, _) = common::prep_checkpoint(work.path())?;
    let mut total = ClientLog::default();

    // Set-up, several times; the last stack stays up for the measurement.
    // `serve_predict` set-up adapts each warm task on half its support and
    // extends it with the rest; those extends are part of its extend sample.
    let setups = match traffic {
        Traffic::Predict => SETUPS_WARM,
        Traffic::Adapt => SETUPS,
    };
    let mut setup_s = Vec::with_capacity(setups);
    let mut setup_extends: Vec<f64> = Vec::new();
    let mut stack = None;
    let mut warm_tasks: Vec<Vec<Task>> = Vec::new();
    let mut clients: Vec<Client> = Vec::new();
    for i in 0..setups {
        if let Some(old) = stack.take() {
            clients.clear();
            Stack::stop(old)?;
        }
        let (s, mut took) = Stack::start(&ckpt_path, work.fresh(&format!("phi-{i}"))?)?;
        clients = (0..THREADS)
            .map(|_| connect(s.addr))
            .collect::<Result<_>>()?;
        if traffic == Traffic::Predict {
            // Task sampling is input generation, not set-up.
            warm_tasks = (0..THREADS)
                .map(|c| {
                    common::draw_tasks(
                        &s.world,
                        &mut Rng::new(mix(args.seed, c as u64)),
                        WARM_TASKS,
                    )
                })
                .collect::<Result<_>>()?;
            let (logs, adapt_s) = on_clients(&mut clients, |c, client| {
                let mut log = ClientLog::default();
                for (t, task) in warm_tasks[c].iter().enumerate() {
                    let support = wire_support(&task.support);
                    let (first, rest) = halves(&support);
                    let (first, rest) = (first.to_vec(), rest.to_vec());
                    if let Some(source) = send(client, s.addr, &mut log, Op::Adapt, t, |cl| {
                        cl.adapt(TENANT, &key(c, t), WAYS, first)
                    }) {
                        if source != "cold" {
                            log.problems
                                .push(format!("warm adapt {t} came back `{source}`"));
                        }
                    }
                    if let Some((revision, _)) =
                        send(client, s.addr, &mut log, Op::Extend, t, |cl| {
                            cl.extend(TENANT, &key(c, t), WAYS, rest)
                        })
                    {
                        if revision != 2 {
                            log.problems.push(format!(
                                "warm extend {t} returned revision {revision}, expected 2"
                            ));
                        }
                    }
                }
                Ok(log)
            })?;
            logs.iter().for_each(|l| total.absorb_counts(l));
            setup_extends.extend(chronological(&logs, Op::Extend));
            took += adapt_s;
        }
        setup_s.push(took);
        stack = Some(s);
    }
    let stack = stack.expect("at least one set-up");
    let addr = stack.addr;

    // Warm-up: infer pools, encoder caches and connections settle before
    // timing. `serve_predict` also takes each task's reference reply here.
    let refs: Vec<Vec<Vec<Vec<String>>>> = match traffic {
        Traffic::Predict => {
            let (logs, _) = on_clients(&mut clients, |c, client| {
                let mut log = ClientLog::default();
                let tasks = &warm_tasks[c];
                for round in 0..WARMUP_ROUNDS {
                    for (t, task) in tasks.iter().enumerate() {
                        let q = query_tokens(task);
                        if let Some(reply) = send(client, addr, &mut log, Op::Predict, t, |cl| {
                            cl.predict(TENANT, &key(c, t), &q)
                        }) {
                            if round == 0 {
                                log.replies.push(Some(reply));
                            } else if log.replies[t].as_ref() != Some(&reply) {
                                log.problems
                                    .push(format!("client {c} task {t}: warm-up replies differ"));
                            }
                        }
                    }
                }
                Ok(log)
            })?;
            logs.iter().for_each(|l| total.absorb_counts(l));
            let refs: Option<Vec<Vec<Vec<Vec<String>>>>> = logs
                .into_iter()
                .map(|l| l.replies.into_iter().collect::<Option<Vec<_>>>())
                .collect();
            refs.ok_or_else(|| Error::InvalidConfig("warm-up predicts failed".into()))?
        }
        Traffic::Adapt => {
            let (logs, _) = on_clients(&mut clients, |c, client| {
                let mut rng = Rng::new(mix(args.seed, 100 + c as u64));
                adapt_loop(
                    client,
                    addr,
                    &stack.world,
                    c,
                    "warm-",
                    &mut rng,
                    far_future(),
                    WARMUP_TASKS,
                    |_| false,
                )
            })?;
            logs.iter().for_each(|l| total.absorb_counts(l));
            Vec::new()
        }
    };

    // The measured phase, the same in a traced run: a request's span is
    // made afterwards from the send and reply times every run records, and
    // its layer calls are replayed after the phase, so tracing adds nothing
    // to the requests measured. A traced run keeps more tasks for replay.
    let keep = |t: usize| t < CHECKED_TASKS || (args.trace && t.is_multiple_of(REPLAY_EVERY));
    reset_peak_rss()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let (logs, _) = on_clients(&mut clients, |c, client| match traffic {
        Traffic::Predict => Ok(predict_loop(
            client,
            addr,
            c,
            &warm_tasks[c],
            &refs[c],
            deadline,
        )),
        Traffic::Adapt => adapt_loop(
            client,
            addr,
            &stack.world,
            c,
            "",
            &mut Rng::new(mix(args.seed, 200 + c as u64)),
            deadline,
            usize::MAX,
            keep,
        ),
    })?;
    let peak_rss = peak_rss_mb();
    let measured = Phase { logs, start };
    measured.logs.iter().for_each(|l| total.absorb_counts(l));
    let counters = clients[0].stats()?;
    total.attempted += 1;

    // Output checks against the in-process learner on the same θ.
    let learner = stack.ckpt.restore(&stack.world.enc)?;
    let enc = &stack.world.enc;
    match traffic {
        Traffic::Predict => {
            // The server's own resident contexts, decoded in-process.
            for (c, tasks) in warm_tasks.iter().enumerate() {
                for (t, task) in tasks.iter().enumerate() {
                    let k = (TENANT.to_string(), key(c, t));
                    let (ctx, _) = stack.server.cache().get_or_adapt(&k, || {
                        Err(Error::InvalidConfig(format!("{} is not resident", k.1)))
                    })?;
                    let query: Vec<EncodedSentence> =
                        task.query.iter().map(|s| enc.encode(&s.tokens)).collect();
                    let preds = learner.predict(&ctx, &query, &ServeOptions::new())?;
                    if common::tag_names(task, &preds) != refs[c][t] {
                        total.problems.push(format!(
                            "client {c} task {t}: server reply differs from in-process predict"
                        ));
                    }
                }
            }
        }
        Traffic::Adapt => {
            for (c, log) in measured.logs.iter().enumerate() {
                for t in 0..CHECKED_TASKS.min(log.tasks.len()) {
                    let Some(task) = &log.tasks[t] else { continue };
                    let reference = common::adapt_extend_predict(&learner, enc, task)?;
                    if log.replies[t].as_ref() != Some(&reference.reply) {
                        total.problems.push(format!("client {c} task {t}: served reply differs from in-process adapt → extend → predict"));
                    }
                }
            }
        }
    }

    // The fixed quality set: entity F1 for both workloads, and the extend
    // latencies of `serve_predict`, whose measured phase has no extends.
    let quality = common::eval_tasks(&stack.world)?;
    let mut qlog = ClientLog::default();
    let f1 = quality_over_wire(&mut clients[0], addr, &quality, &mut qlog)?;
    let reference = common::adapt_extend_predict(&learner, enc, &quality[0])?;
    if qlog.replies.first().and_then(Option::as_ref) != Some(&reference.reply) {
        total.problems.push(
            "quality task 0: served reply differs from in-process adapt → extend → predict".into(),
        );
    }
    total.absorb_counts(&qlog);

    let (p50, tput) = measured.summary(traffic);
    let mut metrics;
    if args.trace {
        let mut layers = Layers::default();
        let mut spans = Spans::new(epoch);
        // Serving spans are made after the fact (see the measured phase):
        // the requests of a traced run do the same work as an untraced
        // run's, so tracing overhead is 0 by construction, not measured.
        layers.set("trace.overhead_latency_p50_ms", 0.0);
        layers.set("trace.overhead_latency_tail_ms", 0.0);
        layers.set("trace.overhead_throughput_per_s", 0.0);
        replay(
            traffic,
            &stack,
            &learner,
            &warm_tasks,
            &refs,
            &measured.logs,
            &mut spans,
            &mut layers,
            &mut total.problems,
            work,
            p50,
        )?;
        let hits = counter(&counters, "cache_hits");
        let misses = counter(&counters, "cache_misses");
        layers.set("serve.cache_hit_ratio", ratio(hits, hits + misses));
        layers.set(
            "serve.cache_evictions",
            counter(&counters, "cache_evictions"),
        );
        let pool = infer_global_stats();
        layers.set(
            "tensor.infer_pool_hit_ratio",
            ratio(
                pool.pool_hits as f64,
                (pool.pool_hits + pool.pool_misses) as f64,
            ),
        );
        layers.set("models.encoder_build_s", stack.world.encoder_build_s);
        layers.set("corpus.generate_s", stack.world.generate_s);
        layers.set("core.checkpoint_load_s", stack.checkpoint_load_s);
        let path = PathBuf::from(".bench_out").join(format!(
            "trace-{}-seed{}.jsonl",
            traffic_name(traffic),
            args.seed
        ));
        spans.write_jsonl(&path)?;
        eprintln!("spans written to {}", path.display());
        metrics = layers.finish(
            &args.catalogue.per_layer,
            vec![("spans".into(), Json::from(path.display().to_string()))],
        );
    } else {
        metrics = Metrics::default();
        metrics.push("setup_s", "s", stats::median(&setup_s).unwrap_or(f64::NAN));
        metrics.push_p50_and_tail(
            "latency_p50_ms",
            "latency_tail_ms",
            &chronological(&measured.logs, primary_op(traffic)),
        )?;
        let extend: Vec<f64> = match traffic {
            Traffic::Predict => {
                setup_extends.extend(chronological(std::slice::from_ref(&qlog), Op::Extend));
                setup_extends
            }
            Traffic::Adapt => chronological(&measured.logs, Op::Extend),
        };
        metrics.push_p50_and_tail("extend_p50_ms", "extend_tail_ms", &extend)?;
        metrics.push("throughput_per_s", "1/s", tput);
        metrics.push("entity_f1", "ratio", f1);
        metrics.push("peak_rss_mb", "MB", peak_rss);
        metrics.detail.push((
            "setup_samples_s".into(),
            Json::Arr(setup_s.iter().map(|&s| Json::from(s)).collect()),
        ));
        metrics.detail.push((
            "p50_per_second_ms".into(),
            per_second_p50(&measured.logs, traffic),
        ));
    }
    drop(clients);
    stack.stop()?;
    Ok(Outcome {
        attempted: total.attempted,
        failed: total.failed,
        problems: total.problems,
        metrics,
    })
}

/// The primary operation's p50 in each second of the measured phase, for
/// telling a steady run from one that drifted.
fn per_second_p50(logs: &[ClientLog], traffic: Traffic) -> Json {
    let op = primary_op(traffic);
    let Some(t0) = logs
        .iter()
        .filter_map(|l| l.requests.first())
        .map(|r| r.start)
        .min()
    else {
        return Json::Arr(Vec::new());
    };
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for r in logs.iter().flat_map(|l| &l.requests).filter(|r| r.op == op) {
        let w = (r.start - t0).as_secs() as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push((r.end - r.start).as_secs_f64() * 1e3);
    }
    Json::Arr(
        windows
            .iter()
            .map(|w| Json::from(stats::median(w).unwrap_or(0.0)))
            .collect(),
    )
}

fn far_future() -> Instant {
    Instant::now() + Duration::from_secs(3600)
}

fn traffic_name(traffic: Traffic) -> &'static str {
    match traffic {
        Traffic::Predict => "serve_predict",
        Traffic::Adapt => "serve_adapt",
    }
}

fn counter(counters: &[(String, u64)], name: &str) -> f64 {
    counters
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn primary_op(traffic: Traffic) -> Op {
    match traffic {
        Traffic::Predict => Op::Predict,
        Traffic::Adapt => Op::Adapt,
    }
}

/// Latencies of `op` across clients in start order; a failed request is
/// `INFINITY`, so it misses every latency limit instead of leaving the
/// sample.
fn chronological(logs: &[ClientLog], op: Op) -> Vec<f64> {
    let mut reqs: Vec<&Req> = logs
        .iter()
        .flat_map(|l| &l.requests)
        .filter(|r| r.op == op)
        .collect();
    reqs.sort_by_key(|r| r.start);
    reqs.iter()
        .map(|r| {
            if r.ok {
                (r.end - r.start).as_secs_f64() * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// One measured phase of both clients.
struct Phase {
    logs: Vec<ClientLog>,
    start: Instant,
}

impl Phase {
    /// (p50, throughput) of the workload's primary operation. Throughput
    /// is decoded query tokens (`serve_predict`) or completed tasks
    /// (`serve_adapt`) per second of the phase, from its start to the last
    /// reply.
    fn summary(&self, traffic: Traffic) -> (f64, f64) {
        let sample = chronological(&self.logs, primary_op(traffic));
        let p50 = stats::median(&sample).unwrap_or(f64::NAN);
        let reqs = || self.logs.iter().flat_map(|l| &l.requests);
        let done: u64 = reqs().map(|r| r.credit).sum();
        let end = reqs().map(|r| r.end).max().unwrap_or(self.start);
        (
            p50,
            done as f64 / (end - self.start).as_secs_f64().max(1e-9),
        )
    }
}

/// Mirrors the tape inner loop of `Fewner::adapt_support` step by step,
/// timing `Backbone::batch_loss` and `Graph::backward` as replayed children
/// of `parent`.
fn replay_inner_steps(
    learner: &Fewner,
    support: &[LabeledSentence],
    spans: &mut Spans,
    id: u64,
    parent: usize,
) -> Result<()> {
    let tags = TagSet::new(WAYS)?;
    let (mut phi_store, phi_id) = learner.backbone.new_context();
    let mut sgd = Sgd::new(learner.config().inner_lr);
    let mut rng = Rng::new(0);
    for _ in 0..learner.config().inner_steps_test {
        let g = Graph::eval();
        let phi = g.param(&phi_store, phi_id);
        let (loss, _) = spans.replay("forward", id, parent, || {
            learner
                .backbone
                .batch_loss(&g, &learner.theta, Some(phi), support, &tags, &mut rng)
        });
        let (grads, _) = spans.replay("backward", id, parent, || g.backward(loss));
        let Ok(grads) = grads else { break };
        let grads = grads.for_store(&phi_store);
        if sgd.step(&mut phi_store, &grads).is_err() {
            break;
        }
    }
    Ok(())
}

fn encode_wire(enc: &TokenEncoder, support: &[SupportSentence]) -> Result<Vec<LabeledSentence>> {
    let tags = TagSet::new(WAYS)?;
    Ok(support
        .iter()
        .map(|s| {
            (
                enc.encode(&s.tokens),
                s.tags.iter().map(|t| tags.index(*t)).collect(),
            )
        })
        .collect())
}

/// Replays a request's layer calls as children of its span: request parse,
/// then `layers` (encode, cache, model), then the response write.
struct Replayer<'a> {
    learner: &'a Fewner,
    enc: &'a TokenEncoder,
    cache: PhiCache,
    opts: ServeOptions,
    persist_dir: PathBuf,
}

impl Replayer<'_> {
    fn parse(&self, spans: &mut Spans, id: u64, parent: usize, req: &Request) -> Result<()> {
        let line = req.to_json().to_string();
        let (parsed, _) = spans.replay("parse", id, parent, || {
            Json::parse(&line).and_then(|j| Request::from_json(&j))
        });
        if parsed? != *req {
            return Err(Error::InvalidConfig(
                "request did not round-trip its wire form".into(),
            ));
        }
        Ok(())
    }

    fn write(&self, spans: &mut Spans, id: u64, parent: usize, resp: impl FnOnce() -> Response) {
        spans.replay("write", id, parent, || resp().to_json().to_string());
    }

    fn persist(
        &self,
        spans: &mut Spans,
        id: u64,
        parent: usize,
        ctx: &AdaptedCtx,
        name: &str,
    ) -> Result<()> {
        let path = self.persist_dir.join(name);
        spans.replay("persist", id, parent, || ctx.save(&path)).0
    }

    /// An adapt request: parse, encode, inner loop (plus its step-by-step
    /// forward/backward replay), cache fill, persist, write.
    fn adapt(
        &self,
        spans: &mut Spans,
        id: u64,
        parent: usize,
        name: &str,
        support: Vec<SupportSentence>,
    ) -> Result<Arc<AdaptedCtx>> {
        self.parse(
            spans,
            id,
            parent,
            &Request::Adapt {
                tenant: TENANT.into(),
                task: name.into(),
                ways: WAYS,
                support: support.clone(),
                deadline_ms: None,
            },
        )?;
        let (encoded, _) = spans.replay("encode", id, parent, || encode_wire(self.enc, &support));
        let encoded = encoded?;
        let (ctx, adapt_span) = spans.replay("adapt", id, parent, || {
            self.learner.adapt_support(&encoded, WAYS, &self.opts)
        });
        let ctx = ctx?;
        replay_inner_steps(self.learner, &encoded, spans, id, adapt_span)?;
        self.persist(spans, id, parent, &ctx, name)?;
        let k = (TENANT.to_string(), name.to_string());
        let (got, _) = spans.replay("cache_lookup", id, parent, || {
            self.cache.get_or_adapt(&k, || Ok(ctx))
        });
        let (ctx, _) = got?;
        self.write(spans, id, parent, || Response::Adapted {
            source: "cold".into(),
        });
        Ok(ctx)
    }

    fn extend(
        &self,
        spans: &mut Spans,
        id: u64,
        parent: usize,
        name: &str,
        support: Vec<SupportSentence>,
    ) -> Result<()> {
        self.parse(
            spans,
            id,
            parent,
            &Request::Extend {
                tenant: TENANT.into(),
                task: name.into(),
                ways: WAYS,
                support: support.clone(),
                deadline_ms: None,
            },
        )?;
        let (encoded, _) = spans.replay("encode", id, parent, || encode_wire(self.enc, &support));
        let encoded = encoded?;
        let k = (TENANT.to_string(), name.to_string());
        let (got, _) = spans.replay("cache_lookup", id, parent, || {
            self.cache.get_or_adapt(&k, || {
                Err(Error::InvalidConfig("extend of an unknown task".into()))
            })
        });
        let (ctx, _) = got?;
        let (ext, _) = spans.replay("extend", id, parent, || {
            self.learner.extend(&ctx, &encoded, &self.opts)
        });
        let ext = ext?;
        self.persist(spans, id, parent, &ext, name)?;
        let revision = ext.revision();
        spans.replay("cache_replace", id, parent, || {
            self.cache.replace(&k, Arc::new(ext))
        });
        self.write(spans, id, parent, || Response::Extended {
            revision,
            source: "extended".into(),
        });
        Ok(())
    }

    /// A predict request; returns the replayed reply and the decode time.
    fn predict(
        &self,
        spans: &mut Spans,
        id: u64,
        parent: usize,
        name: &str,
        task: &Task,
    ) -> Result<(Vec<Vec<String>>, f64)> {
        let sentences = query_tokens(task);
        self.parse(
            spans,
            id,
            parent,
            &Request::Predict {
                tenant: TENANT.into(),
                task: name.into(),
                sentences: sentences.clone(),
                ways: None,
                support: None,
                deadline_ms: None,
            },
        )?;
        let (encoded, _) = spans.replay("encode", id, parent, || {
            sentences
                .iter()
                .map(|s| self.enc.encode(s))
                .collect::<Vec<EncodedSentence>>()
        });
        let k = (TENANT.to_string(), name.to_string());
        let (got, _) = spans.replay("cache_lookup", id, parent, || {
            self.cache.get_or_adapt(&k, || {
                Err(Error::InvalidConfig("predict of an unknown task".into()))
            })
        });
        let (ctx, _) = got?;
        let (preds, decode) = spans.replay("predict", id, parent, || {
            self.learner.predict(&ctx, &encoded, &self.opts)
        });
        let preds = preds?;
        let decode_ms = spans.list[decode].ms();
        let mut reply = Vec::new();
        spans.replay("write", id, parent, || {
            let tags = ctx.tag_set();
            reply = preds
                .iter()
                .map(|s| s.iter().map(|&i| tags.name(i)).collect::<Vec<String>>())
                .collect();
            Response::Predictions {
                tags: reply.clone(),
            }
            .to_json()
            .to_string()
        });
        Ok((reply, decode_ms))
    }
}

/// After the measured phase of a traced run: one span per recorded
/// request, then the layer calls of a sample of them replayed in-process on
/// the same inputs, with a learner restored from the same checkpoint and the
/// benchmark's own (memory-only) cache.
#[allow(clippy::too_many_arguments)]
fn replay(
    traffic: Traffic,
    stack: &Stack,
    learner: &Fewner,
    warm_tasks: &[Vec<Task>],
    refs: &[Vec<Vec<Vec<String>>>],
    logs: &[ClientLog],
    spans: &mut Spans,
    layers: &mut Layers,
    problems: &mut Vec<String>,
    work: &WorkDir,
    p50: f64,
) -> Result<()> {
    let rep = Replayer {
        learner,
        enc: &stack.world.enc,
        cache: PhiCache::new(CachePolicy::lru(4096), Tracer::disabled())?,
        opts: ServeOptions::new(),
        persist_dir: work.fresh("replay-phi")?,
    };
    let req_name = |op: Op| match op {
        Op::Adapt => "adapt_req",
        Op::Extend => "extend_req",
        Op::Predict => "predict_req",
    };
    // Decoded query tokens and decode milliseconds over replayed predicts.
    let mut decoded = (0.0f64, 0.0f64);
    // Request spans, with a global id per request.
    let mut reqs: Vec<(usize, usize, usize, Op)> = Vec::new(); // (span, client, task, op)
    for (c, log) in logs.iter().enumerate() {
        for r in &log.requests {
            let id = reqs.len() as u64;
            let idx = spans.record(req_name(r.op), id, None, r.start, r.end);
            reqs.push((idx, c, r.task, r.op));
        }
    }
    match traffic {
        Traffic::Predict => {
            // The warm contexts, as set-up built them: adapt on the first
            // half of the support, extend with the rest.
            for (c, tasks) in warm_tasks.iter().enumerate() {
                for (t, task) in tasks.iter().enumerate() {
                    let id = (1 << 32) + (c * WARM_TASKS + t) as u64;
                    let (_, root) = spans.time("warm_task", id, None, || ());
                    let support = wire_support(&task.support);
                    let (first, rest) = halves(&support);
                    rep.adapt(spans, id, root, &key(c, t), first.to_vec())?;
                    rep.extend(spans, id, root, &key(c, t), rest.to_vec())?;
                }
            }
            let step = reqs.len().div_ceil(REPLAY_REQUESTS).max(1);
            for &(idx, c, t, _) in reqs.iter().step_by(step) {
                let task = &warm_tasks[c][t];
                let (reply, decode_ms) = rep.predict(spans, idx as u64, idx, &key(c, t), task)?;
                if reply != refs[c][t] {
                    problems.push(format!(
                        "client {c} task {t}: served reply differs from the replay"
                    ));
                }
                decoded.0 += token_count(task) as f64;
                decoded.1 += decode_ms;
            }
        }
        Traffic::Adapt => {
            // Every kept task whose three requests all succeeded.
            let kept = logs.iter().enumerate().flat_map(|(c, l)| {
                (0..l.tasks.len())
                    .filter(move |&t| l.tasks[t].is_some() && l.replies[t].is_some())
                    .map(move |t| (c, t))
            });
            for (c, t) in kept {
                let name = key(c, t);
                let Some(task) = &logs[c].tasks[t] else {
                    continue;
                };
                let support = wire_support(&task.support);
                let (first, rest) = halves(&support);
                let span_of = |op: Op| {
                    reqs.iter()
                        .find(|&&(_, rc, rt, rop)| rc == c && rt == t && rop == op)
                        .map(|&(idx, ..)| idx)
                };
                let (Some(a), Some(e), Some(p)) = (
                    span_of(Op::Adapt),
                    span_of(Op::Extend),
                    span_of(Op::Predict),
                ) else {
                    continue;
                };
                rep.adapt(spans, a as u64, a, &name, first.to_vec())?;
                rep.extend(spans, e as u64, e, &name, rest.to_vec())?;
                let (reply, decode_ms) = rep.predict(spans, p as u64, p, &name, task)?;
                decoded.0 += token_count(task) as f64;
                decoded.1 += decode_ms;
                if logs[c].replies[t].as_ref() != Some(&reply) {
                    problems.push(format!(
                        "client {c} task {t}: served reply differs from the replay"
                    ));
                }
            }
        }
    }

    // Layer medians over the requests of the workload's p50 operation.
    let primary = match traffic {
        Traffic::Predict => "predict_req",
        Traffic::Adapt => "adapt_req",
    };
    let under = |layer: &str, req: &str| -> f64 {
        let sample: Vec<f64> = spans
            .list
            .iter()
            .filter(|s| s.name == layer && s.parent.is_some_and(|p| spans.list[p].name == req))
            .map(|s| s.ms())
            .collect();
        stats::median(&sample).unwrap_or(0.0)
    };
    let parse = under("parse", primary);
    layers.set_with_share(
        "serve.parse_us",
        "serve.parse_share",
        parse * 1e3,
        p50 * 1e3,
    );
    let write = under("write", primary);
    layers.set_with_share(
        "serve.write_us",
        "serve.write_share",
        write * 1e3,
        p50 * 1e3,
    );
    let lookup = under("cache_lookup", primary);
    layers.set_with_share(
        "serve.cache_lookup_us",
        "serve.cache_lookup_share",
        lookup * 1e3,
        p50 * 1e3,
    );
    let encode = under("encode", primary);
    layers.set_with_share(
        "models.encode_us",
        "models.encode_share",
        encode * 1e3,
        p50 * 1e3,
    );
    let replayed: std::collections::BTreeSet<usize> = spans
        .list
        .iter()
        .filter(|s| s.replayed)
        .filter_map(|s| s.parent)
        .collect();
    let selfs = spans.self_ms();
    let residual: Vec<f64> = spans
        .list
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name == primary && replayed.contains(i))
        .map(|(i, _)| selfs[i])
        .collect();
    layers.set_with_share(
        "serve.residual_ms",
        "serve.residual_share",
        stats::median(&residual).unwrap_or(0.0),
        p50,
    );
    let adapt_selfs: Vec<f64> = spans
        .list
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "adapt")
        .map(|(i, _)| selfs[i])
        .collect();
    layers.set("self.adapt_ms", stats::median(&adapt_selfs).unwrap_or(0.0));
    let steps = learner.config().inner_steps_test as f64;
    let forward = spans.median_ms("forward").unwrap_or(0.0);
    let backward = spans.median_ms("backward").unwrap_or(0.0);
    match traffic {
        Traffic::Predict => {
            let predict = under("predict", "predict_req");
            layers.set_with_share("core.predict_ms", "core.predict_share", predict, p50);
            // The tape idles on the read path: forward/backward/adapt/extend/
            // persist are reported from the set-up tasks, with no share of p50.
            layers.set("models.forward_ms", forward);
            layers.set("tensor.backward_ms", backward);
            layers.set("core.adapt_ms", spans.median_ms("adapt").unwrap_or(0.0));
            layers.set("core.extend_ms", spans.median_ms("extend").unwrap_or(0.0));
            layers.set(
                "serve.persist_ms",
                spans.median_ms("persist").unwrap_or(0.0),
            );
        }
        Traffic::Adapt => {
            layers.set_with_share(
                "models.forward_ms",
                "models.forward_share",
                forward,
                p50 / steps,
            );
            layers.set_with_share(
                "tensor.backward_ms",
                "tensor.backward_share",
                backward,
                p50 / steps,
            );
            let adapt = under("adapt", "adapt_req");
            layers.set_with_share("core.adapt_ms", "core.adapt_share", adapt, p50);
            let persist = under("persist", "adapt_req");
            layers.set_with_share("serve.persist_ms", "serve.persist_share", persist, p50);
            layers.set("core.extend_ms", under("extend", "extend_req"));
            layers.set("core.predict_ms", under("predict", "predict_req"));
        }
    }
    layers.set(
        "core.decode_tokens_per_s",
        ratio(decoded.0, decoded.1 / 1e3),
    );
    Ok(())
}
