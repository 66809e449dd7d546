//! Multi-process sharded meta-training (coordinator + worker sessions).
//!
//! # Topology
//!
//! A sharded run is `S` worker processes and one coordinator. Every worker
//! executes the *full* training loop in lockstep — same sampler RNG, same
//! meta-batches, same learner state — but computes task gradients only for
//! its assigned subtree of the canonical reduce tree
//! ([`GradReduce::shard_ranges`]). Each round:
//!
//! 1. every worker folds its ranges into [`GradPartial`]s and sends them
//!    to the coordinator in one FEWNERD1 CRC frame over TCP,
//! 2. the coordinator merges the partials along the remaining top of the
//!    tree ([`GradReduce::merge`]), encodes the reduced gradient once and
//!    broadcasts `(loss, gradients)` back,
//! 3. every worker applies the identical broadcast bytes to its replica
//!    of θ.
//!
//! Because f32 values cross the wire bit-exactly and the reduction shape is
//! fixed, the final checkpoint is byte-identical to a serial or threaded
//! run of the same schedule.
//!
//! # Frames
//!
//! Every frame's payload has one layout: a `u32` little-endian header
//! length, a JSON header, then a binary body. Control messages (`hello`,
//! `start`, `compute`, `resend`, `done`, `abort` and a `skip` broadcast)
//! have an empty body. A `partial` header lists `{lo, hi, loss_sum}` per
//! part and its body holds the parts' gradients in that order; an `apply`
//! `reduce` header carries `loss` and the worker's `ranges`, and its body
//! holds the merged gradient. Gradient bodies use the row-sparse binary
//! encoding of [`ParamGrads::encode_into`], which keeps every f32 bit
//! pattern; `loss_sum` and `loss` are JSON f32s, which are bit-exact too
//! (see [`fewner_util::json`]).
//!
//! # Fault tolerance
//!
//! A frame that arrives damaged but aligned (CRC mismatch) is retransmitted
//! — either side may send `{"type":"resend"}` and the peer re-writes its
//! last clean frame, bounded by [`MAX_RETRANSMITS`]. A connection that
//! breaks (EOF, truncated or garbled stream, timeout) marks the worker
//! dead: the coordinator reassigns the dead worker's task ranges to the
//! lowest-id surviving worker — first as a `compute` directive for the
//! in-flight round, then permanently via the `reduce` broadcast. The
//! surviving workers' replicas never skipped a round, so a later resume of
//! the dead shard (or a rerun) produces bitwise-identical checkpoints
//! ("elastic resume").
//!
//! Injected faults ([`fewner_util::fault`]: `shard_die`,
//! `shard_conn_drop`, `shard_frame_corrupt`, `shard_frame_torn`, each
//! optionally scoped `@shard`) exercise exactly these paths in tests and
//! CI.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::time::Duration;

use fewner_episode::Task;
use fewner_models::TokenEncoder;
use fewner_obs::Tracer;
use fewner_tensor::ParamGrads;
use fewner_util::{durable, fault, Deadline, Error, FromJson, Json, Result, ToJson, WireFrame};

use crate::learner::EpisodicLearner;
use crate::reduce::{GradPartial, GradReduce};
use crate::snapshot::RunFingerprint;
use crate::trainer::{ParallelTrainer, TrainConfig};

/// Ceiling on one frame's payload (gradients for every parameter of a
/// large run fit comfortably; anything bigger is a garbled length field).
const MAX_PAYLOAD: usize = 1 << 28;

/// How many times one logical frame may be retransmitted before the
/// connection is declared broken.
pub const MAX_RETRANSMITS: usize = 3;

/// Per-read deadline on shard sockets once rounds start.
const ROUND_TIMEOUT: Duration = Duration::from_millis(60_000);

/// Budget for the whole rendezvous (bind/connect/hello/start).
const CONNECT_TIMEOUT_MS: u64 = 30_000;

/// An [`Error::Io`] on the shard wire.
fn wire_io(detail: impl Into<String>) -> Error {
    Error::Io {
        path: "<shard-wire>".into(),
        detail: detail.into(),
    }
}

fn msg_type(msg: &Json) -> Result<&str> {
    msg.field("type")?.as_str()
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn ranges_to_json(ranges: &[Range<usize>]) -> Json {
    Json::Arr(
        ranges
            .iter()
            .map(|r| Json::Arr(vec![Json::from(r.start), Json::from(r.end)]))
            .collect(),
    )
}

fn ranges_from_json(json: &Json) -> Result<Vec<Range<usize>>> {
    let mut ranges = Vec::new();
    for pair in json.as_arr()? {
        let pair = pair.as_arr()?;
        if pair.len() != 2 {
            return Err(Error::Serde("task range must be a [lo, hi] pair".into()));
        }
        ranges.push(pair[0].as_usize()?..pair[1].as_usize()?);
    }
    ranges.sort_by_key(|r| r.start);
    Ok(ranges)
}

/// One shard message: its JSON header and its binary body (empty for
/// control messages).
struct Msg {
    head: Json,
    body: Vec<u8>,
}

/// Frames `head` and `body` as one shard payload: the header's length as
/// a `u32` LE, the header, then the body.
fn frame_msg(head: &Json, body: &[u8]) -> Vec<u8> {
    let head = head.to_string();
    let head_len = u32::try_from(head.len()).expect("a shard header is far below 4 GiB");
    let mut payload = Vec::with_capacity(4 + head.len() + body.len());
    payload.extend_from_slice(&head_len.to_le_bytes());
    payload.extend_from_slice(head.as_bytes());
    payload.extend_from_slice(body);
    durable::frame(&payload)
}

/// Splits a verified frame payload back into header and body.
fn parse_msg(mut payload: Vec<u8>) -> Result<Msg> {
    let end = payload
        .get(..4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
        .and_then(|len| len.checked_add(4))
        .filter(|&end| end <= payload.len())
        .ok_or_else(|| Error::Serde("shard payload is shorter than its header".into()))?;
    let body = payload.split_off(end);
    let text = std::str::from_utf8(&payload[4..])
        .map_err(|e| Error::Serde(format!("non-UTF-8 shard header: {e}")))?;
    Ok(Msg {
        head: Json::parse(text)?,
        body,
    })
}

/// Decodes the `count` gradient sets of a frame body, capped at the
/// elements a whole frame could carry.
fn decode_grads(body: &[u8], count: usize) -> Result<Vec<ParamGrads>> {
    ParamGrads::decode_all(body, count, MAX_PAYLOAD / 4)
}

/// Applies an injected frame fault to clean framed bytes. The header ends
/// at the first newline; damage stays inside the payload so the frame
/// remains *aligned* for `Corrupt`/`Torn` (CRC catches it, retransmit
/// recovers), while `ConnDrop` truncates mid-frame (the peer sees a dead
/// stream).
fn mangle(framed: &[u8], kind: fault::ShardFrameFault) -> Vec<u8> {
    let mut bytes = framed.to_vec();
    let payload_at = bytes
        .iter()
        .position(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap_or(0);
    match kind {
        fault::ShardFrameFault::Corrupt => {
            if let Some(last) = bytes.last_mut() {
                *last ^= 0x20;
            }
        }
        fault::ShardFrameFault::Torn => {
            let mid = payload_at + (bytes.len() - payload_at) / 2;
            for b in &mut bytes[mid..] {
                *b = 0;
            }
        }
        fault::ShardFrameFault::ConnDrop => {
            let keep = payload_at + (bytes.len() - payload_at) / 2;
            bytes.truncate(keep);
        }
    }
    bytes
}

/// One framed, retransmit-capable connection end.
///
/// `recv` transparently serves incoming `resend` requests (re-writing the
/// last clean frame this end sent) and issues its own on CRC-corrupt
/// frames, so callers only ever see whole, verified messages — or a dead
/// connection.
struct FrameConn {
    stream: TcpStream,
    last_sent: Vec<u8>,
    resends_served: u64,
    resends_requested: u64,
}

impl FrameConn {
    fn new(stream: TcpStream) -> FrameConn {
        let _ = stream.set_nodelay(true);
        FrameConn {
            stream,
            last_sent: Vec::new(),
            resends_served: 0,
            resends_requested: 0,
        }
    }

    fn set_timeout(&self, timeout: Duration) -> Result<()> {
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| wire_io(format!("set_read_timeout: {e}")))
    }

    /// Writes raw bytes without touching the retransmit buffer.
    fn write_raw(&mut self, bytes: &[u8]) -> Result<()> {
        self.stream
            .write_all(bytes)
            .and_then(|()| self.stream.flush())
            .map_err(|e| wire_io(format!("send: {e}")))
    }

    /// Frames and sends a message, retaining the clean frame for
    /// retransmits.
    fn send(&mut self, head: &Json, body: &[u8]) -> Result<()> {
        let framed = frame_msg(head, body);
        self.write_raw(&framed)?;
        self.last_sent = framed;
        Ok(())
    }

    fn retransmit(&mut self) -> Result<()> {
        if self.last_sent.is_empty() {
            return Err(wire_io("peer requested a resend before any frame"));
        }
        self.resends_served += 1;
        let frame = std::mem::take(&mut self.last_sent);
        let result = self.write_raw(&frame);
        self.last_sent = frame;
        result
    }

    /// Receives the next whole message, handling retransmits both ways.
    fn recv(&mut self) -> Result<Msg> {
        let mut corrupt = 0usize;
        loop {
            match durable::read_wire_frame(&mut self.stream, MAX_PAYLOAD)? {
                WireFrame::Frame(payload) => {
                    let msg = parse_msg(payload)?;
                    if msg_type(&msg.head)? == "resend" {
                        self.retransmit()?;
                        continue;
                    }
                    return Ok(msg);
                }
                WireFrame::Corrupt(detail) => {
                    corrupt += 1;
                    if corrupt > MAX_RETRANSMITS {
                        return Err(wire_io(format!(
                            "frame still corrupt after {MAX_RETRANSMITS} retransmits: {detail}"
                        )));
                    }
                    self.resends_requested += 1;
                    self.write_raw(&frame_msg(&obj(vec![("type", Json::from("resend"))]), &[]))?;
                }
                WireFrame::Eof => return Err(wire_io("peer closed the connection")),
                WireFrame::Truncated(detail) => {
                    return Err(wire_io(format!("truncated frame: {detail}")))
                }
                WireFrame::Garbled(detail) => {
                    return Err(wire_io(format!("garbled stream: {detail}")))
                }
            }
        }
    }
}

/// What one coordinator run did, for logs and tests.
#[derive(Debug, Clone, Default)]
pub struct CoordinatorReport {
    /// Rounds driven to a broadcast (applied + skipped).
    pub rounds: usize,
    /// Rounds whose reduced gradient was applied.
    pub applied: usize,
    /// Rounds skipped because some shard reported a non-finite batch.
    pub skipped: usize,
    /// Frames retransmitted in either direction, summed over connections.
    pub retransmits: u64,
    /// Workers that died mid-run (connection lost without a `done`).
    pub deaths: usize,
    /// Task-range reassignments performed after deaths.
    pub reassignments: usize,
}

struct WorkerLink {
    shard: usize,
    conn: FrameConn,
    ranges: Vec<Range<usize>>,
    live: bool,
}

/// The reduce hub of a sharded run: accepts one connection per shard,
/// assigns reduce-tree ranges, and drives rounds until every worker is
/// done.
pub struct ShardCoordinator {
    listener: TcpListener,
    shards: usize,
}

impl ShardCoordinator {
    /// Binds the coordinator for a `shards`-worker run. `addr` may use
    /// port 0; read the actual endpoint back with
    /// [`ShardCoordinator::local_addr`].
    pub fn bind(addr: &str, shards: usize) -> Result<ShardCoordinator> {
        if shards < 2 {
            return Err(Error::InvalidConfig(format!(
                "a shard coordinator needs at least 2 shards, got {shards}"
            )));
        }
        let listener = TcpListener::bind(addr).map_err(|e| wire_io(format!("bind {addr}: {e}")))?;
        Ok(ShardCoordinator { listener, shards })
    }

    /// The bound endpoint (pass this to the workers).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        self.listener
            .local_addr()
            .map_err(|e| wire_io(format!("local_addr: {e}")))
    }

    /// Runs the rendezvous and then rounds until every worker reports
    /// `done` or dies. Instruments `shard/round` and
    /// `shard/straggler_wait` spans plus `shard/*` counters on `tracer`.
    pub fn run(&self, tracer: &Tracer) -> Result<CoordinatorReport> {
        let mut links = self.rendezvous()?;
        let (plan, mut iteration) = match self.handshake(&mut links) {
            Ok(v) => v,
            Err(e) => {
                let abort = obj(vec![
                    ("type", Json::from("abort")),
                    ("detail", Json::from(e.to_string())),
                ]);
                for link in &mut links {
                    let _ = link.conn.send(&abort, &[]);
                }
                return Err(e);
            }
        };
        let base = plan.shard_ranges(links.len())?;
        for (link, range) in links.iter_mut().zip(base) {
            link.ranges = vec![range];
        }
        for link in &mut links {
            let start = obj(vec![
                ("type", Json::from("start")),
                ("iteration", Json::from(iteration)),
                ("ranges", ranges_to_json(&link.ranges)),
            ]);
            link.conn.send(&start, &[])?;
            link.conn.set_timeout(ROUND_TIMEOUT)?;
        }

        let mut report = CoordinatorReport::default();
        loop {
            let mut round_span = tracer.span("shard/round");
            round_span.set("iter", iteration);
            // Collect phase: one partial per live worker, in shard order.
            let mut partials: Vec<(usize, bool, Vec<GradPartial>)> = Vec::new();
            let mut straggler_span = None;
            let mut orphaned: Vec<Range<usize>> = Vec::new();
            for link in links.iter_mut().filter(|l| l.live) {
                match Self::recv_partial(&mut link.conn, iteration) {
                    Ok(Some((ok, parts))) => {
                        if straggler_span.is_none() {
                            straggler_span = Some(tracer.span("shard/straggler_wait"));
                        }
                        tracer.incr(
                            &format!("shard/tasks/s{}", link.shard),
                            task_count(&link.ranges),
                        );
                        partials.push((link.shard, ok, parts));
                    }
                    Ok(None) => {
                        // Graceful `done`: the worker finished its schedule
                        // (or bailed after a local, non-wire error).
                        link.live = false;
                        orphaned.append(&mut link.ranges);
                    }
                    Err(_) => {
                        link.live = false;
                        orphaned.append(&mut link.ranges);
                        report.deaths += 1;
                        tracer.incr("shard/deaths", 1);
                    }
                }
            }
            drop(straggler_span);
            if partials.is_empty() {
                // Every worker is done (normal end of schedule) or dead.
                round_span.set("idle", true);
                break;
            }
            // Reassign phase: fold every orphaned range into the lowest-id
            // surviving contributor, for this round and permanently.
            while let Some(range) = orphaned.pop() {
                let Some(target) = links
                    .iter_mut()
                    .filter(|l| l.live && partials.iter().any(|(s, ..)| *s == l.shard))
                    .min_by_key(|l| l.shard)
                else {
                    return Err(wire_io(format!(
                        "all shard workers died during round {iteration}"
                    )));
                };
                let compute = obj(vec![
                    ("type", Json::from("compute")),
                    ("iteration", Json::from(iteration)),
                    ("ranges", ranges_to_json(std::slice::from_ref(&range))),
                ]);
                let outcome = target
                    .conn
                    .send(&compute, &[])
                    .and_then(|()| Self::recv_partial(&mut target.conn, iteration));
                match outcome {
                    Ok(Some((ok, parts))) => {
                        let entry = partials
                            .iter_mut()
                            .find(|(s, ..)| *s == target.shard)
                            .expect("target contributed this round");
                        entry.1 &= ok;
                        entry.2.extend(parts);
                        tracer.incr(
                            &format!("shard/tasks/s{}", target.shard),
                            range.len() as u64,
                        );
                        target.ranges.push(range.clone());
                        target.ranges.sort_by_key(|r| r.start);
                        report.reassignments += 1;
                        tracer.incr("shard/reassigned", 1);
                    }
                    Ok(None) | Err(_) => {
                        // The absorber died too: put both its ranges and
                        // the still-orphaned one back and try the next.
                        let shard = target.shard;
                        target.live = false;
                        orphaned.append(&mut target.ranges);
                        orphaned.push(range);
                        partials.retain(|(s, ..)| *s != shard);
                        report.deaths += 1;
                        tracer.incr("shard/deaths", 1);
                        if partials.is_empty() {
                            return Err(wire_io(format!(
                                "all shard workers died during round {iteration}"
                            )));
                        }
                    }
                }
            }
            // Reduce phase: merge, encode once and broadcast the same body
            // to every worker (or broadcast a skip with an empty body).
            let all_finite = partials.iter().all(|(_, ok, _)| *ok);
            let (result, loss, body) = if all_finite {
                let parts: Vec<GradPartial> =
                    partials.into_iter().flat_map(|(_, _, p)| p).collect();
                let (loss, grads) = plan.merge(parts)?;
                let mut body = Vec::new();
                grads.encode_into(&mut body);
                ("apply", loss, body)
            } else {
                ("skip", 0.0, Vec::new())
            };
            round_span.set("result", result);
            for link in links.iter_mut().filter(|l| l.live) {
                let reduce = obj(vec![
                    ("type", Json::from("reduce")),
                    ("iteration", Json::from(iteration)),
                    ("result", Json::from(result)),
                    ("loss", Json::from(loss)),
                    ("ranges", ranges_to_json(&link.ranges)),
                ]);
                if link.conn.send(&reduce, &body).is_err() {
                    // Its partial already folded into this round; the wire
                    // died on the way back. Next round reassigns its ranges.
                    link.live = false;
                    report.deaths += 1;
                    tracer.incr("shard/deaths", 1);
                }
            }
            report.rounds += 1;
            if all_finite {
                report.applied += 1;
            } else {
                report.skipped += 1;
                tracer.incr("shard/skipped_rounds", 1);
            }
            tracer.incr("shard/rounds", 1);
            iteration += 1;
        }
        report.retransmits = links
            .iter()
            .map(|l| l.conn.resends_served + l.conn.resends_requested)
            .sum();
        tracer.incr("shard/retransmits", report.retransmits);
        Ok(report)
    }

    /// Accepts exactly one connection per shard within the rendezvous
    /// budget. While no worker is waiting it polls with a pause that starts
    /// at 100 µs and doubles up to 10 ms, and starts over after each
    /// accept, so the run starts soon after the last worker connects.
    fn rendezvous(&self) -> Result<Vec<WorkerLink>> {
        const FIRST_PAUSE: Duration = Duration::from_micros(100);
        const MAX_PAUSE: Duration = Duration::from_millis(10);
        let deadline = Deadline::from_ms(CONNECT_TIMEOUT_MS);
        self.listener
            .set_nonblocking(true)
            .map_err(|e| wire_io(format!("set_nonblocking: {e}")))?;
        let mut links = Vec::with_capacity(self.shards);
        let mut pause = FIRST_PAUSE;
        while links.len() < self.shards {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    pause = FIRST_PAUSE;
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| wire_io(format!("set_blocking: {e}")))?;
                    let conn = FrameConn::new(stream);
                    conn.set_timeout(Duration::from_millis(CONNECT_TIMEOUT_MS))?;
                    links.push(WorkerLink {
                        shard: usize::MAX,
                        conn,
                        ranges: Vec::new(),
                        live: true,
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    deadline.check("shard rendezvous")?;
                    std::thread::sleep(pause);
                    pause = (pause * 2).min(MAX_PAUSE);
                }
                Err(e) => return Err(wire_io(format!("accept: {e}"))),
            }
        }
        Ok(links)
    }

    /// Reads and validates every worker's hello; returns the shared reduce
    /// plan and start iteration.
    fn handshake(&self, links: &mut [WorkerLink]) -> Result<(GradReduce, usize)> {
        let mut fingerprint: Option<RunFingerprint> = None;
        let mut start: Option<usize> = None;
        let mut seen = vec![false; self.shards];
        for link in links.iter_mut() {
            let hello = link.conn.recv()?.head;
            if msg_type(&hello)? != "hello" {
                return Err(Error::Serde("expected a shard hello".into()));
            }
            let shard = hello.field("shard")?.as_usize()?;
            let shards = hello.field("shards")?.as_usize()?;
            if shards != self.shards || shard >= self.shards {
                return Err(Error::InvalidConfig(format!(
                    "worker announced shard {shard}/{shards}, coordinator expects {} shards",
                    self.shards
                )));
            }
            if std::mem::replace(&mut seen[shard], true) {
                return Err(Error::InvalidConfig(format!(
                    "two workers announced shard {shard}"
                )));
            }
            let fp = RunFingerprint::from_json(hello.field("fingerprint")?)?;
            if *fingerprint.get_or_insert_with(|| fp.clone()) != fp {
                return Err(Error::InvalidConfig(
                    "shard workers disagree on the run fingerprint \
                     (learner/schedule/seed/shard layout must match)"
                        .into(),
                ));
            }
            let at = hello.field("start_iteration")?.as_usize()?;
            if *start.get_or_insert(at) != at {
                return Err(Error::InvalidConfig(format!(
                    "shard workers disagree on the start iteration \
                     (resumed from inconsistent snapshots?): {} vs {at}",
                    start.unwrap_or(at)
                )));
            }
            link.shard = shard;
        }
        links.sort_by_key(|l| l.shard);
        let fp = fingerprint.expect("at least two shards");
        if fp.shards != self.shards {
            return Err(Error::InvalidConfig(format!(
                "run fingerprint declares {} shards, coordinator drives {}",
                fp.shards, self.shards
            )));
        }
        Ok((GradReduce::new(fp.meta_batch)?, start.expect("validated")))
    }

    /// Reads one partial-bearing message. `Ok(Some((all_finite, parts)))`
    /// for a partial, `Ok(None)` for a graceful `done`, `Err` for a dead
    /// connection or protocol violation.
    fn recv_partial(
        conn: &mut FrameConn,
        iteration: usize,
    ) -> Result<Option<(bool, Vec<GradPartial>)>> {
        let Msg { head, body } = conn.recv()?;
        match msg_type(&head)? {
            "done" => Ok(None),
            "partial" => {
                let at = head.field("iteration")?.as_usize()?;
                if at != iteration {
                    return Err(wire_io(format!(
                        "worker is at round {at}, coordinator at {iteration}"
                    )));
                }
                let ok = match head.field("status")?.as_str()? {
                    "ok" => true,
                    "non_finite" => false,
                    other => return Err(Error::Serde(format!("unknown partial status `{other}`"))),
                };
                let heads = head.field("parts")?.as_arr()?;
                let parts = heads
                    .iter()
                    .zip(decode_grads(&body, heads.len())?)
                    .map(|(part, grads)| {
                        Ok(GradPartial {
                            lo: part.field("lo")?.as_usize()?,
                            hi: part.field("hi")?.as_usize()?,
                            loss_sum: part.field("loss_sum")?.as_f32()?,
                            grads,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(Some((ok, parts)))
            }
            other => Err(Error::Serde(format!(
                "expected a shard partial, got `{other}`"
            ))),
        }
    }
}

fn task_count(ranges: &[Range<usize>]) -> u64 {
    ranges.iter().map(|r| r.len() as u64).sum()
}

/// One worker's connection to the coordinator: computes assigned reduce
/// subtrees and applies broadcast gradients, keeping its replica of θ
/// bitwise-identical to every other shard's.
pub struct ShardSession {
    conn: FrameConn,
    shard: usize,
    plan: GradReduce,
    pool: ParallelTrainer,
    ranges: Vec<Range<usize>>,
    iteration: usize,
    store: Option<u64>,
}

impl ShardSession {
    /// Connects to the coordinator named by `cfg`, announces this shard,
    /// and waits for its range assignment. Also scopes this thread's
    /// injected faults to `cfg.shard_id` (see
    /// [`fewner_util::fault::set_thread_shard`]).
    pub fn connect(
        cfg: &TrainConfig,
        fingerprint: &RunFingerprint,
        start_iteration: usize,
    ) -> Result<ShardSession> {
        if cfg.shards < 2 {
            return Err(Error::InvalidConfig(format!(
                "a shard session needs shards ≥ 2, got {}",
                cfg.shards
            )));
        }
        if cfg.shard_id >= cfg.shards {
            return Err(Error::InvalidConfig(format!(
                "shard_id {} out of range for {} shards",
                cfg.shard_id, cfg.shards
            )));
        }
        let addr = cfg.coordinator.as_deref().ok_or_else(|| {
            Error::InvalidConfig("a sharded run needs a coordinator address".into())
        })?;
        let plan = GradReduce::new(fingerprint.meta_batch)?;
        // Fail the impossible split here, before burning the rendezvous.
        plan.shard_ranges(cfg.shards)?;

        let deadline = Deadline::from_ms(CONNECT_TIMEOUT_MS);
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(stream) => break stream,
                Err(e) => {
                    if deadline.expired() {
                        return Err(wire_io(format!("connect {addr}: {e}")));
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        };
        fault::set_thread_shard(Some(cfg.shard_id as u64));
        let mut conn = FrameConn::new(stream);
        conn.set_timeout(Duration::from_millis(CONNECT_TIMEOUT_MS))?;
        let hello = obj(vec![
            ("type", Json::from("hello")),
            ("shard", Json::from(cfg.shard_id)),
            ("shards", Json::from(cfg.shards)),
            ("start_iteration", Json::from(start_iteration)),
            ("fingerprint", fingerprint.to_json()),
        ]);
        conn.send(&hello, &[])?;
        let start = conn.recv()?.head;
        match msg_type(&start)? {
            "start" => {}
            "abort" => {
                return Err(Error::InvalidConfig(format!(
                    "coordinator refused the rendezvous: {}",
                    start.field("detail")?.as_str()?
                )))
            }
            other => return Err(Error::Serde(format!("expected start, got `{other}`"))),
        }
        let at = start.field("iteration")?.as_usize()?;
        if at != start_iteration {
            return Err(Error::InvalidConfig(format!(
                "coordinator starts at round {at}, this worker at {start_iteration}"
            )));
        }
        conn.set_timeout(ROUND_TIMEOUT)?;
        Ok(ShardSession {
            conn,
            shard: cfg.shard_id,
            plan,
            pool: ParallelTrainer::new(cfg.threads),
            ranges: ranges_from_json(start.field("ranges")?)?,
            iteration: start_iteration,
            store: None,
        })
    }

    /// This worker's shard id.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The currently assigned reduce-tree ranges (grows when the
    /// coordinator reassigns a dead shard's subtree here).
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// One sharded meta-iteration: fold the assigned subtrees, exchange
    /// partials with the coordinator, apply the broadcast reduction.
    /// Returns the round's mean loss, or [`Error::NonFinite`] when the
    /// coordinator skipped the round (some shard's batch blew up) — the
    /// training loop's existing skip/divergence accounting handles both
    /// identically to the in-process path.
    pub fn step<L>(
        &mut self,
        learner: &mut L,
        tasks: &[Task],
        enc: &TokenEncoder,
        tracer: &Tracer,
    ) -> Result<f32>
    where
        L: EpisodicLearner + Sync + ?Sized,
    {
        if tasks.len() != self.plan.n_tasks() {
            return Err(Error::InvalidConfig(format!(
                "sharded batch has {} tasks, reduce plan expects {}",
                tasks.len(),
                self.plan.n_tasks()
            )));
        }
        let step_seed = learner.step_seed();
        let (ok, parts) = self.fold_ranges(learner, tasks, enc, step_seed, &self.ranges.clone())?;
        if fault::shard_die_fault() {
            // A real process death: the CI smoke test arms this on a live
            // worker process and asserts the run survives byte-identically.
            eprintln!("fewner: injected fault: shard {} dies", self.shard);
            std::process::abort();
        }
        self.send_partial(ok, &parts)?;

        loop {
            let Msg { head: msg, body } = self.conn.recv()?;
            match msg_type(&msg)? {
                "compute" => {
                    let at = msg.field("iteration")?.as_usize()?;
                    if at != self.iteration {
                        return Err(wire_io(format!(
                            "compute for round {at}, worker at {}",
                            self.iteration
                        )));
                    }
                    let extra = ranges_from_json(msg.field("ranges")?)?;
                    tracer.incr("shard/reassigned_to_me", task_count(&extra));
                    let (ok, parts) = self.fold_ranges(learner, tasks, enc, step_seed, &extra)?;
                    self.send_partial(ok, &parts)?;
                }
                "reduce" => {
                    let at = msg.field("iteration")?.as_usize()?;
                    if at != self.iteration {
                        return Err(wire_io(format!(
                            "reduce for round {at}, worker at {}",
                            self.iteration
                        )));
                    }
                    self.ranges = ranges_from_json(msg.field("ranges")?)?;
                    self.iteration += 1;
                    tracer.incr("shard/rounds", 1);
                    match msg.field("result")?.as_str()? {
                        "skip" => {
                            return Err(Error::NonFinite {
                                context: "sharded meta-batch skipped by coordinator".into(),
                            })
                        }
                        "apply" => {
                            let loss = msg.field("loss")?.as_f32()?;
                            let mut grads = decode_grads(&body, 1)?.remove(0);
                            let store = self.store.ok_or_else(|| {
                                Error::InvalidConfig(
                                    "reduce before any local fold: no parameter store to bind"
                                        .into(),
                                )
                            })?;
                            grads.retag(store);
                            learner.apply_meta_grads(grads, self.plan.n_tasks())?;
                            return Ok(loss);
                        }
                        other => {
                            return Err(Error::Serde(format!("unknown reduce result `{other}`")))
                        }
                    }
                }
                "abort" => {
                    return Err(Error::InvalidConfig(format!(
                        "coordinator aborted the run: {}",
                        msg.field("detail")?.as_str()?
                    )))
                }
                other => {
                    return Err(Error::Serde(format!(
                        "unexpected shard directive `{other}`"
                    )))
                }
            }
        }
    }

    /// Folds the given reduce-tree ranges into partials. A non-finite task
    /// maps to `(false, [])` — the worker still reports in, so the round
    /// stays in lockstep and every shard skips together.
    fn fold_ranges<L>(
        &mut self,
        learner: &L,
        tasks: &[Task],
        enc: &TokenEncoder,
        step_seed: u64,
        ranges: &[Range<usize>],
    ) -> Result<(bool, Vec<GradPartial>)>
    where
        L: EpisodicLearner + Sync + ?Sized,
    {
        let mut parts = Vec::with_capacity(ranges.len());
        for range in ranges {
            let outcomes = match self.pool.range_outcomes(
                learner,
                tasks,
                enc,
                step_seed,
                std::slice::from_ref(range),
            ) {
                Ok(indexed) => indexed.into_iter().map(|(_, o)| o).collect(),
                Err(Error::NonFinite { .. }) => return Ok((false, Vec::new())),
                Err(e) => return Err(e),
            };
            let part = self.plan.partial(range.start, outcomes)?;
            self.store.get_or_insert(part.grads.store_id());
            parts.push(part);
        }
        Ok((true, parts))
    }

    /// Sends this round's partial, applying any armed frame fault. The
    /// retransmit buffer always holds the *clean* frame, so a requested
    /// resend heals an injected corruption.
    fn send_partial(&mut self, ok: bool, parts: &[GradPartial]) -> Result<()> {
        let part_heads = parts
            .iter()
            .map(|p| {
                obj(vec![
                    ("lo", Json::from(p.lo)),
                    ("hi", Json::from(p.hi)),
                    ("loss_sum", Json::from(p.loss_sum)),
                ])
            })
            .collect();
        let head = obj(vec![
            ("type", Json::from("partial")),
            ("iteration", Json::from(self.iteration)),
            ("shard", Json::from(self.shard)),
            ("status", Json::from(if ok { "ok" } else { "non_finite" })),
            ("parts", Json::Arr(part_heads)),
        ]);
        let mut body = Vec::new();
        for p in parts {
            p.grads.encode_into(&mut body);
        }
        match fault::shard_frame_fault() {
            None => self.conn.send(&head, &body),
            Some(fault::ShardFrameFault::ConnDrop) => {
                let clean = frame_msg(&head, &body);
                let half = mangle(&clean, fault::ShardFrameFault::ConnDrop);
                let _ = self.conn.write_raw(&half);
                let _ = self.conn.stream.shutdown(Shutdown::Both);
                Err(wire_io(format!(
                    "injected fault: shard {} drops its connection",
                    self.shard
                )))
            }
            Some(kind) => {
                let clean = frame_msg(&head, &body);
                self.conn.write_raw(&mangle(&clean, kind))?;
                self.conn.last_sent = clean;
                Ok(())
            }
        }
    }
}

impl Drop for ShardSession {
    fn drop(&mut self) {
        // Best-effort goodbye so the coordinator can tell a finished
        // schedule from a dead worker. On broken connections this is a
        // silent no-op.
        let done = obj(vec![("type", Json::from("done"))]);
        let _ = self.conn.write_raw(&frame_msg(&done, &[]));
        let _ = self.conn.stream.shutdown(Shutdown::Both);
        fault::set_thread_shard(None);
    }
}
