//! The serving daemon: worker pool, bounded admission, micro-batching,
//! deadlines and graceful degradation.
//!
//! A [`Server`] owns one frozen θ ([`Fewner`]) and shares it — `ParamStore`
//! is plain data — across a pool of scoped worker threads. Request flow:
//!
//! 1. Connection threads read **bounded** NDJSON frames
//!    ([`crate::protocol::read_frame`]), encode sentences, and enqueue
//!    prediction jobs. The queue is bounded: at the admission limit a cold
//!    request is shed immediately with [`Error::Overloaded`] instead of
//!    waiting — bounded latency beats unbounded queueing. Requests for
//!    *already-adapted* tenants are admitted up to a 2× overflow cap, so
//!    saturation sheds cold adapts first and warm traffic keeps flowing.
//! 2. Workers pop a job and *drain every queued job for the same `(tenant,
//!    task)`* up to the micro-batch sentence cap, then decode the merged
//!    batch with **one** [`Fewner::predict`] call — one gradient-free
//!    `Infer` arena, the φ-conditioned work hoisted once for the whole
//!    batch. Each batch runs under `catch_unwind`; a panicking batch emits
//!    `serve/worker_panic` and fails its own requests instead of killing
//!    the worker.
//! 3. Adaptation goes through the shared [`PhiCache`]: memory hit, warm
//!    disk reload, or a single-flight cold adapt.
//!
//! Every request may carry a `deadline_ms` budget (or inherit the server
//! default). The budget is checked at admission, on queue exit, inside the
//! φ-cache single-flight wait, and at the adapt/predict entry points; the
//! connection thread additionally bounds its response wait with
//! `recv_timeout`, so no client ever hangs past its budget plus a small
//! grace interval.
//!
//! Shutdown is orderly: the `shutdown` op stops the accept loop, workers
//! drain the queue, connection threads notice via read timeouts, and the
//! final [`Server::run`] return flushes the tracer.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use fewner_core::{AdaptedCtx, Fewner, ServeOptions};
use fewner_models::{EncodedSentence, LabeledSentence, TokenEncoder};
use fewner_obs::Tracer;
use fewner_text::TagSet;
use fewner_util::fault::{self, ServeFault};
use fewner_util::{Deadline, Error, Json, Result};

use crate::cache::{CacheKey, Lookup, PhiCache};
use crate::protocol::{
    read_frame, FrameRead, Request, Response, SupportSentence, DEFAULT_MAX_FRAME_BYTES,
};

/// Extra wall-clock a connection thread grants its worker past the request
/// deadline before giving up on the response channel. Covers the gap
/// between a worker observing expiry and the error arriving.
const RESPONSE_GRACE: Duration = Duration::from_millis(50);

/// Pool and admission knobs (the φ-cache knobs live in
/// [`fewner_core::CachePolicy`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Prediction worker threads (≥ 1 enforced).
    pub workers: usize,
    /// Maximum queued prediction jobs before admission sheds cold work.
    /// Warm (already-adapted) requests overflow up to 2× this limit.
    pub queue_limit: usize,
    /// Largest NDJSON frame a client may send (≥ 1 KiB enforced).
    pub max_frame_bytes: usize,
    /// Default per-request time budget in milliseconds applied when a
    /// request carries no `deadline_ms` of its own; `0` means unbounded.
    pub deadline_ms: u64,
}

impl ServerConfig {
    /// Defaults: 2 workers, 64 queued jobs, 1 MiB frames, no deadline.
    pub fn new() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_limit: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            deadline_ms: 0,
        }
    }

    /// Sets the worker-thread count (≥ 1 enforced).
    pub fn workers(mut self, n: usize) -> ServerConfig {
        self.workers = n.max(1);
        self
    }

    /// Sets the admission limit (≥ 1 enforced).
    pub fn queue_limit(mut self, n: usize) -> ServerConfig {
        self.queue_limit = n.max(1);
        self
    }

    /// Sets the frame-size cap (≥ 1 KiB enforced).
    pub fn max_frame_bytes(mut self, n: usize) -> ServerConfig {
        self.max_frame_bytes = n.max(1 << 10);
        self
    }

    /// Sets the default request deadline; `0` disables it.
    pub fn deadline_ms(mut self, ms: u64) -> ServerConfig {
        self.deadline_ms = ms;
        self
    }
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig::new()
    }
}

/// One queued prediction request. The response channel carries the decoded
/// index sequences plus the way count needed to render tag names.
struct Job {
    key: CacheKey,
    ways: Option<usize>,
    support: Option<Vec<LabeledSentence>>,
    sentences: Vec<EncodedSentence>,
    deadline: Option<Deadline>,
    resp: mpsc::Sender<Result<(Vec<Vec<usize>>, usize)>>,
}

/// A multi-tenant FEWNER serving daemon. Construct once, then [`Server::run`]
/// on a bound listener; all state is shared by reference across the scoped
/// worker and connection threads.
pub struct Server {
    learner: Fewner,
    enc: TokenEncoder,
    opts: ServeOptions,
    cfg: ServerConfig,
    cache: PhiCache,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    // Resilience counters, surfaced through the `stats` op so load tools
    // and CI can assert on them without scraping traces.
    deadline_missed: AtomicU64,
    shed_cold: AtomicU64,
    retried_requests: AtomicU64,
    worker_panics: AtomicU64,
    frames_rejected: AtomicU64,
    poison_observed: AtomicBool,
}

impl Server {
    /// Builds a server around a trained learner. The φ-cache policy and
    /// tracer come from `opts`; the persistence directory (if any) is
    /// created here.
    pub fn new(
        learner: Fewner,
        enc: TokenEncoder,
        opts: ServeOptions,
        cfg: ServerConfig,
    ) -> Result<Server> {
        let cache = PhiCache::new(opts.cache_policy().clone(), opts.tracer_ref().clone())?;
        Ok(Server {
            learner,
            enc,
            opts,
            cfg,
            cache,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            deadline_missed: AtomicU64::new(0),
            shed_cold: AtomicU64::new(0),
            retried_requests: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            frames_rejected: AtomicU64::new(0),
            poison_observed: AtomicBool::new(false),
        })
    }

    /// The shared φ-cache (tests inspect stats through this).
    pub fn cache(&self) -> &PhiCache {
        &self.cache
    }

    /// The tracer every span and counter goes through.
    pub fn tracer(&self) -> &Tracer {
        self.opts.tracer_ref()
    }

    /// Whether shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests an orderly shutdown: stop accepting, drain the queue, join.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Take the lock so a worker between its empty-check and its wait
        // cannot miss the wakeup.
        let _q = self.lock_queue();
        self.available.notify_all();
    }

    /// Locks the job queue, recovering from poisoning. A poisoned queue
    /// means some thread panicked mid-critical-section; the data (a job
    /// deque) stays structurally valid, so serving continues — but the
    /// first observation is recorded as a `serve/worker_panic` event so the
    /// incident is visible in traces.
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        match self.queue.lock() {
            Ok(q) => q,
            Err(poisoned) => {
                if !self.poison_observed.swap(true, Ordering::AcqRel) {
                    self.worker_panics.fetch_add(1, Ordering::Relaxed);
                    self.tracer().event(
                        "serve/worker_panic",
                        &[("context", "queue mutex poisoned".into())],
                    );
                    self.tracer().incr("serve/worker_panic", 1);
                }
                poisoned.into_inner()
            }
        }
    }

    /// Records a worker-pool panic (counter + trace event).
    fn note_worker_panic(&self, context: &str) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
        self.tracer().event(
            "serve/worker_panic",
            &[("context", context.to_string().into())],
        );
        self.tracer().incr("serve/worker_panic", 1);
    }

    /// The request's effective deadline: its own budget if it sent one,
    /// else the server default (0 = unbounded).
    fn effective_deadline(&self, deadline_ms: Option<u64>) -> Option<Deadline> {
        deadline_ms
            .or(if self.cfg.deadline_ms > 0 {
                Some(self.cfg.deadline_ms)
            } else {
                None
            })
            .map(Deadline::from_ms)
    }

    /// Serves until a `shutdown` request arrives. Spawns the worker pool and
    /// one thread per connection inside a scope, so `run` returns only after
    /// every thread has exited; the tracer is flushed on the way out.
    pub fn run(&self, listener: TcpListener) -> Result<()> {
        listener.set_nonblocking(true).map_err(|e| Error::Io {
            path: "listener".into(),
            detail: e.to_string(),
        })?;
        std::thread::scope(|s| {
            for _ in 0..self.cfg.workers.max(1) {
                s.spawn(|| self.worker());
            }
            while !self.shutting_down() {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        s.spawn(move || self.handle_conn(stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    // Transient accept errors (e.g. ECONNABORTED) are not
                    // fatal to the daemon.
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            self.available.notify_all();
        });
        self.tracer().flush()
    }

    // ------------------------------------------------------------------
    // Worker pool
    // ------------------------------------------------------------------

    fn worker(&self) {
        loop {
            let first = {
                let mut q = self.lock_queue();
                loop {
                    if let Some(job) = q.pop_front() {
                        break Some(job);
                    }
                    if self.shutting_down() {
                        break None;
                    }
                    q = self.available.wait(q).unwrap_or_else(|p| p.into_inner());
                }
            };
            let Some(first) = first else { return };

            // A job whose budget ran out while queued is answered with the
            // typed error instead of wasting a batch slot on it.
            if let Some(d) = &first.deadline {
                if let Err(e) = d.check("queue_wait") {
                    first.resp.send(Err(e)).ok();
                    continue;
                }
            }

            // Micro-batch: steal every queued job for the same key, up to
            // the sentence cap. The whole merged batch then shares one
            // `Infer` arena and one φ hoist. Expired same-key jobs are
            // failed in passing.
            let mut jobs = vec![first];
            let mut sentences = jobs[0].sentences.len();
            {
                let mut q = self.lock_queue();
                let mut i = 0;
                while i < q.len() {
                    if q[i].key != jobs[0].key {
                        i += 1;
                        continue;
                    }
                    if q[i].deadline.as_ref().is_some_and(Deadline::expired) {
                        let job = q.remove(i).expect("index in bounds");
                        let budget_ms = job.deadline.as_ref().map_or(0, Deadline::budget_ms);
                        job.resp
                            .send(Err(Error::DeadlineExceeded {
                                budget_ms,
                                stage: "queue_wait".into(),
                            }))
                            .ok();
                        continue;
                    }
                    if sentences + q[i].sentences.len() <= self.opts.batch_size() {
                        let job = q.remove(i).expect("index in bounds");
                        sentences += job.sentences.len();
                        jobs.push(job);
                    } else {
                        i += 1;
                    }
                }
            }
            // A panicking batch drops its response senders (the waiting
            // connection threads observe `WorkerPanic`) but must not kill
            // the worker thread: the pool keeps serving.
            if catch_unwind(AssertUnwindSafe(|| self.process_batch(jobs))).is_err() {
                self.note_worker_panic("prediction batch panicked");
            }
        }
    }

    fn process_batch(&self, jobs: Vec<Job>) {
        let key = jobs[0].key.clone();
        let deadline = jobs[0].deadline;
        let opts = self.opts.with_deadline(deadline);
        // Any job in the batch may carry the support set that makes a cold
        // adapt possible; first one wins (single-flight runs it once).
        let inline = jobs
            .iter()
            .find_map(|j| Some((j.support.clone()?, j.ways?)));
        let adapt = || match inline {
            Some((support, ways)) => self.run_adapt(&support, ways, &opts),
            None => Err(Error::InvalidConfig(format!(
                "no adapted context for `{}/{}` and no support provided",
                key.0, key.1
            ))),
        };
        match self
            .cache
            .get_or_adapt_within(&key, deadline.as_ref(), adapt)
        {
            Ok((ctx, _source)) => {
                if jobs.len() > 1 {
                    self.tracer()
                        .incr("serve/batch_merged", (jobs.len() - 1) as u64);
                }
                let all: Vec<EncodedSentence> = jobs
                    .iter()
                    .flat_map(|j| j.sentences.iter().cloned())
                    .collect();
                match self.learner.predict(&ctx, &all, &opts) {
                    Ok(mut preds) => {
                        for job in jobs {
                            let rest = preds.split_off(job.sentences.len());
                            let mine = std::mem::replace(&mut preds, rest);
                            job.resp.send(Ok((mine, ctx.n_ways()))).ok();
                        }
                    }
                    Err(e) => {
                        for job in jobs {
                            job.resp.send(Err(e.clone())).ok();
                        }
                    }
                }
            }
            Err(e) => {
                for job in jobs {
                    job.resp.send(Err(e.clone())).ok();
                }
            }
        }
    }

    /// Runs the inner loop for a cold adapt, honouring an armed
    /// `serve_adapt_stall` fault: the stall sleeps in small slices and
    /// checks the deadline between slices, so an injected stall can never
    /// pin a request past its budget.
    fn run_adapt(
        &self,
        support: &[LabeledSentence],
        ways: usize,
        opts: &ServeOptions,
    ) -> Result<AdaptedCtx> {
        if fault::serve_adapt_stall_fault() {
            self.tracer().incr("serve/fault_adapt_stall", 1);
            for _ in 0..40 {
                if let Some(d) = opts.deadline() {
                    d.check("adapt")?;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        self.learner.adapt_support(support, ways, opts)
    }

    /// Admission control: bounded queue, shed-don't-wait. Warm requests
    /// (already-adapted tenants) overflow up to twice the limit so
    /// saturation sheds only cold adapts first.
    fn submit(&self, job: Job, warm: bool) -> Result<()> {
        let mut q = self.lock_queue();
        if self.shutting_down() {
            return Err(Error::InvalidConfig("server is shutting down".into()));
        }
        let limit = if warm {
            self.cfg.queue_limit * 2
        } else {
            self.cfg.queue_limit
        };
        if q.len() >= limit {
            let queue_depth = q.len();
            drop(q);
            self.tracer().incr("serve/shed", 1);
            if !warm {
                self.shed_cold.fetch_add(1, Ordering::Relaxed);
                self.tracer().incr("serve/shed_cold", 1);
            }
            return Err(Error::Overloaded { queue_depth, limit });
        }
        q.push_back(job);
        drop(q);
        self.available.notify_one();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Connections
    // ------------------------------------------------------------------

    fn handle_conn(&self, stream: TcpStream) {
        // Read timeouts let a conn thread notice shutdown instead of
        // blocking forever on an idle client.
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .ok();
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(stream);
        // Partial-frame bytes survive read-timeout retries here.
        let mut partial: Vec<u8> = Vec::new();
        loop {
            let frame = loop {
                match read_frame(&mut reader, &mut partial, self.cfg.max_frame_bytes) {
                    Ok(frame) => break frame,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        if self.shutting_down() {
                            return;
                        }
                    }
                    Err(_) => return,
                }
            };
            let line = match frame {
                FrameRead::Frame(bytes) => match String::from_utf8(bytes) {
                    Ok(line) => line,
                    Err(_) => {
                        let resp = Response::from_error(&Error::Serde(
                            "request is not valid UTF-8".into(),
                        ));
                        if self.write_response(&mut writer, &resp, None).is_err() {
                            return;
                        }
                        continue;
                    }
                },
                FrameRead::Eof | FrameRead::Truncated => return,
                FrameRead::TooLarge(len) => {
                    self.frames_rejected.fetch_add(1, Ordering::Relaxed);
                    self.tracer().incr("serve/frame_rejected", 1);
                    let resp = Response::from_error(&Error::FrameTooLarge {
                        len,
                        limit: self.cfg.max_frame_bytes,
                    });
                    self.write_response(&mut writer, &resp, None).ok();
                    // The stream may be mid-frame; resynchronising is not
                    // worth trusting a client that sent this.
                    return;
                }
            };
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let (resp, id) = self.handle_line(trimmed);
            let done = matches!(resp, Response::ShuttingDown);
            if self
                .write_response(&mut writer, &resp, id.as_deref())
                .is_err()
            {
                return;
            }
            if done {
                return;
            }
        }
    }

    /// Serialises one response (echoing the request `id`, if any) and
    /// writes it, consulting the armed fault plan for injected connection
    /// drops and frame corruption.
    fn write_response(
        &self,
        writer: &mut impl Write,
        resp: &Response,
        id: Option<&str>,
    ) -> std::io::Result<()> {
        let mut json = resp.to_json();
        if let (Some(id), Json::Obj(fields)) = (id, &mut json) {
            fields.push(("id".into(), Json::Str(id.to_string())));
        }
        let mut line = json.to_string();
        match fault::serve_response_fault() {
            Some(ServeFault::ConnDrop) => {
                self.tracer().incr("serve/fault_conn_drop", 1);
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "injected connection drop",
                ));
            }
            Some(ServeFault::FrameCorrupt) => {
                self.tracer().incr("serve/fault_frame_corrupt", 1);
                // Smash the leading `{` so the client's JSON parse fails
                // deterministically and its retry policy kicks in.
                line.replace_range(0..1, "!");
            }
            Some(ServeFault::AdaptStall) | None => {}
        }
        writeln!(writer, "{line}")?;
        writer.flush()
    }

    fn handle_line(&self, line: &str) -> (Response, Option<String>) {
        let json = match Json::parse(line) {
            Ok(json) => json,
            Err(e) => return (Response::from_error(&e), None),
        };
        // `id` and `attempt` are envelope fields, orthogonal to the op: the
        // id is echoed on the response so a retrying client can discard
        // stale replies; a non-zero attempt marks a retry.
        let id = json
            .get("id")
            .and_then(|v| v.as_str().ok())
            .map(str::to_string);
        let attempt = json
            .get("attempt")
            .and_then(|v| v.as_u64().ok())
            .unwrap_or(0);
        if attempt > 0 {
            self.retried_requests.fetch_add(1, Ordering::Relaxed);
            self.tracer().incr("serve/request_retries", 1);
        }
        let req = match Request::from_json(&json) {
            Ok(req) => req,
            Err(e) => return (Response::from_error(&e), id),
        };
        self.tracer().incr("serve/requests", 1);
        let resp = match req {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats {
                counters: self.counters(),
            },
            Request::Shutdown => {
                self.begin_shutdown();
                Response::ShuttingDown
            }
            Request::Adapt {
                tenant,
                task,
                ways,
                support,
                deadline_ms,
            } => match self.do_adapt(tenant, task, ways, &support, deadline_ms) {
                Ok(source) => Response::Adapted {
                    source: source.to_string(),
                },
                Err(e) => Response::from_error(&e),
            },
            Request::Extend {
                tenant,
                task,
                ways,
                support,
                deadline_ms,
            } => match self.do_extend(tenant, task, ways, &support, deadline_ms) {
                Ok((revision, source)) => Response::Extended {
                    revision,
                    source: source.to_string(),
                },
                Err(e) => Response::from_error(&e),
            },
            Request::Predict {
                tenant,
                task,
                sentences,
                ways,
                support,
                deadline_ms,
            } => match self.do_predict(tenant, task, sentences, ways, support, deadline_ms) {
                Ok(tags) => Response::Predictions { tags },
                Err(PredictFailure::Unknown { tenant, task }) => {
                    Response::unknown_task(&tenant, &task)
                }
                Err(PredictFailure::Error(e)) => Response::from_error(&e),
            },
        };
        // Deadline misses are counted centrally, wherever the expiry was
        // observed (admission, queue, φ-wait, adapt, response wait).
        if let Response::Error { kind, .. } = &resp {
            if kind == "deadline_exceeded" {
                self.deadline_missed.fetch_add(1, Ordering::Relaxed);
                self.tracer().incr("serve/deadline_missed", 1);
            }
        }
        (resp, id)
    }

    /// Validates a wire support set against the model and converts it to
    /// the encoded form the inner loop takes.
    fn encode_support(
        &self,
        ways: usize,
        support: &[SupportSentence],
    ) -> Result<Vec<LabeledSentence>> {
        self.learner.backbone.config().check_ways(ways)?;
        let tags = TagSet::new(ways)?;
        support
            .iter()
            .map(|s| {
                for t in &s.tags {
                    if t.slot().is_some_and(|slot| slot >= ways) {
                        return Err(Error::InvalidConfig(format!(
                            "tag slot out of range for {ways}-way task"
                        )));
                    }
                }
                let indices = s.tags.iter().map(|t| tags.index(*t)).collect();
                Ok((self.enc.encode(&s.tokens), indices))
            })
            .collect()
    }

    fn do_adapt(
        &self,
        tenant: String,
        task: String,
        ways: usize,
        support: &[SupportSentence],
        deadline_ms: Option<u64>,
    ) -> Result<&'static str> {
        let deadline = self.effective_deadline(deadline_ms);
        if let Some(d) = &deadline {
            d.check("admission")?;
        }
        let encoded = self.encode_support(ways, support)?;
        let key: CacheKey = (tenant, task);
        let opts = self.opts.with_deadline(deadline);
        // Adaptation runs inline on the connection thread; the cache's
        // single-flight cell dedups a herd of identical adapt requests, and
        // a waiter's deadline bounds how long it blocks on the leader.
        let (_ctx, lookup) = self
            .cache
            .get_or_adapt_within(&key, deadline.as_ref(), || {
                self.run_adapt(&encoded, ways, &opts)
            })?;
        Ok(lookup.as_str())
    }

    /// Incremental online adaptation: grows a known context with new
    /// support (a few warm-started inner steps over the merged set) and
    /// installs the successor revision atomically via
    /// [`PhiCache::replace`]. An unknown key has nothing to extend, so the
    /// new support alone feeds a full cold adapt — the caller sees
    /// `"cold"` and revision 1, and can tell the difference.
    fn do_extend(
        &self,
        tenant: String,
        task: String,
        ways: usize,
        support: &[SupportSentence],
        deadline_ms: Option<u64>,
    ) -> Result<(u32, &'static str)> {
        let deadline = self.effective_deadline(deadline_ms);
        if let Some(d) = &deadline {
            d.check("admission")?;
        }
        let encoded = self.encode_support(ways, support)?;
        let key: CacheKey = (tenant, task);
        let opts = self.opts.with_deadline(deadline);
        let (ctx, lookup) = self
            .cache
            .get_or_adapt_within(&key, deadline.as_ref(), || {
                self.run_adapt(&encoded, ways, &opts)
            })?;
        if matches!(lookup, Lookup::Cold) {
            return Ok((ctx.revision(), "cold"));
        }
        if ctx.n_ways() != ways {
            return Err(Error::InvalidConfig(format!(
                "extend sent {ways} ways but `{}/{}` was adapted {}-way",
                key.0,
                key.1,
                ctx.n_ways(),
            )));
        }
        let extended = self.learner.extend(&ctx, &encoded, &opts)?;
        let revision = extended.revision();
        self.cache.replace(&key, Arc::new(extended));
        Ok((revision, "extended"))
    }

    fn do_predict(
        &self,
        tenant: String,
        task: String,
        sentences: Vec<Vec<String>>,
        ways: Option<usize>,
        support: Option<Vec<SupportSentence>>,
        deadline_ms: Option<u64>,
    ) -> std::result::Result<Vec<Vec<String>>, PredictFailure> {
        if sentences.is_empty() || sentences.iter().any(Vec::is_empty) {
            return Err(Error::InvalidConfig("empty query sentence".into()).into());
        }
        let deadline = self.effective_deadline(deadline_ms);
        if let Some(d) = &deadline {
            d.check("admission").map_err(PredictFailure::Error)?;
        }
        let key: CacheKey = (tenant, task);
        let encoded_support = match (&support, ways) {
            (Some(s), Some(w)) => Some(self.encode_support(w, s).map_err(PredictFailure::Error)?),
            (Some(_), None) => {
                return Err(Error::InvalidConfig("inline support requires `ways`".into()).into())
            }
            (None, _) => None,
        };
        if encoded_support.is_none() && !self.cache.known(&key) {
            return Err(PredictFailure::Unknown {
                tenant: key.0,
                task: key.1,
            });
        }
        // Warm = a ready context exists (settled cell or persisted φ).
        // Requests queued behind a still-running adapt stay cold: under
        // saturation they are exactly the work worth shedding.
        let warm = self.cache.ready(&key);
        let encoded: Vec<EncodedSentence> = sentences.iter().map(|s| self.enc.encode(s)).collect();
        let (tx, rx) = mpsc::channel();
        self.submit(
            Job {
                key,
                ways,
                support: encoded_support,
                sentences: encoded,
                deadline,
                resp: tx,
            },
            warm,
        )
        .map_err(PredictFailure::Error)?;
        // The response wait is the backstop no-hang guarantee: even if a
        // worker wedges mid-batch, the connection thread gives up one grace
        // interval past the request's budget.
        let outcome = match &deadline {
            Some(d) => {
                let wait = d.remaining().unwrap_or(Duration::ZERO) + RESPONSE_GRACE;
                match rx.recv_timeout(wait) {
                    Ok(result) => result,
                    Err(mpsc::RecvTimeoutError::Timeout) => Err(Error::DeadlineExceeded {
                        budget_ms: d.budget_ms(),
                        stage: "response_wait".into(),
                    }),
                    Err(mpsc::RecvTimeoutError::Disconnected) => Err(Error::WorkerPanic {
                        context: "serve worker".into(),
                    }),
                }
            }
            None => rx.recv().unwrap_or_else(|_| {
                Err(Error::WorkerPanic {
                    context: "serve worker".into(),
                })
            }),
        };
        let (preds, n_ways) = outcome.map_err(PredictFailure::Error)?;
        let tags = TagSet::new(n_ways).map_err(PredictFailure::Error)?;
        Ok(preds
            .iter()
            .map(|sent| sent.iter().map(|&i| tags.name(i)).collect())
            .collect())
    }

    /// Cache + queue + resilience counters for the `stats` op, sorted by
    /// name.
    fn counters(&self) -> Vec<(String, u64)> {
        let s = self.cache.stats();
        let depth = self.lock_queue().len() as u64;
        let mut counters = vec![
            ("cache_evictions".to_string(), s.evictions),
            ("cache_expirations".to_string(), s.expirations),
            ("cache_hits".to_string(), s.hits),
            ("cache_misses".to_string(), s.misses),
            (
                "deadline_missed".to_string(),
                self.deadline_missed.load(Ordering::Relaxed),
            ),
            (
                "frames_rejected".to_string(),
                self.frames_rejected.load(Ordering::Relaxed),
            ),
            (
                "persist_degraded".to_string(),
                self.cache.is_persist_degraded() as u64,
            ),
            ("phi_persists".to_string(), s.persists),
            ("phi_reloads".to_string(), s.reloads),
            ("phi_wait_timeouts".to_string(), s.wait_timeouts),
            ("queue_depth".to_string(), depth),
            ("resident_contexts".to_string(), self.cache.len() as u64),
            (
                "retried_requests".to_string(),
                self.retried_requests.load(Ordering::Relaxed),
            ),
            (
                "shed_cold".to_string(),
                self.shed_cold.load(Ordering::Relaxed),
            ),
            (
                "worker_panics".to_string(),
                self.worker_panics.load(Ordering::Relaxed),
            ),
        ];
        counters.sort();
        counters
    }
}

/// Predict failures split the `unknown_task` wire error from ordinary
/// library errors.
enum PredictFailure {
    Unknown { tenant: String, task: String },
    Error(Error),
}

impl From<Error> for PredictFailure {
    fn from(e: Error) -> PredictFailure {
        PredictFailure::Error(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_is_shareable_across_threads() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<Server>();
    }

    #[test]
    fn server_config_floors() {
        let cfg = ServerConfig::new()
            .workers(0)
            .queue_limit(0)
            .max_frame_bytes(0);
        assert_eq!((cfg.workers, cfg.queue_limit), (1, 1));
        assert_eq!(cfg.max_frame_bytes, 1 << 10);
    }

    #[test]
    fn server_config_resilience_defaults() {
        let cfg = ServerConfig::new();
        assert_eq!(cfg.max_frame_bytes, DEFAULT_MAX_FRAME_BYTES);
        assert_eq!(cfg.deadline_ms, 0, "no deadline unless asked for");
        assert_eq!(ServerConfig::new().deadline_ms(250).deadline_ms, 250);
    }
}
