//! A small blocking client for the NDJSON serving protocol.
//!
//! Used by the CLI, the load generator and the end-to-end tests; external
//! callers can treat it as reference documentation for the wire format.
//!
//! One [`Client`] type, built one of two ways. [`Client::connect`] gives a
//! bare connection: one request line in, one response line out, errors
//! surfaced as they happen. [`Client::with_policy`] adds the resilience
//! envelope of a [`RetryPolicy`]: per-request ids (echoed by the server so
//! stale replies are detected), an `attempt` counter, deadline propagation,
//! and a seeded exponential-backoff retry loop that reconnects on
//! connection-level failures. Retries are safe for `adapt` because the
//! server's φ-cache is single-flight per `(tenant, task)` — a retried adapt
//! lands on the same settled cell instead of running a second inner loop.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use fewner_util::{Error, Json, Result, Rng};

use crate::protocol::{Request, Response, SupportSentence};

/// A client of a running `fewner serve` daemon: a bare connection, or a
/// self-healing one when built from a [`RetryPolicy`].
pub struct Client {
    /// `None` after a policy client's failed attempt, until it reconnects.
    conn: Option<BufReader<TcpStream>>,
    io_timeout: Option<Duration>,
    retry: Option<Retry>,
}

/// What a policy client keeps besides its connection.
struct Retry {
    addr: String,
    policy: RetryPolicy,
    rng: Rng,
    next_id: u64,
    stats: RetryStats,
}

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::Io {
        path: what.to_string(),
        detail: e.to_string(),
    }
}

fn open(addr: impl ToSocketAddrs, timeout: Option<Duration>) -> Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
    stream.set_nodelay(true).ok();
    if timeout.is_some() {
        set_timeouts(&stream, timeout)?;
    }
    Ok(BufReader::new(stream))
}

fn set_timeouts(stream: &TcpStream, timeout: Option<Duration>) -> Result<()> {
    stream
        .set_read_timeout(timeout)
        .and_then(|()| stream.set_write_timeout(timeout))
        .map_err(|e| io_err("timeout", e))
}

/// Sends one raw request line and reads back one raw response line
/// (trailing newline stripped).
fn round_trip(conn: &mut BufReader<TcpStream>, line: &str) -> Result<String> {
    let stream = conn.get_mut();
    stream
        .write_all(line.as_bytes())
        .map_err(|e| io_err("send", e))?;
    stream.write_all(b"\n").map_err(|e| io_err("send", e))?;
    let mut buf = String::new();
    let n = conn.read_line(&mut buf).map_err(|e| io_err("recv", e))?;
    if n == 0 {
        let closed = std::io::Error::other("server closed the connection");
        return Err(io_err("recv", closed));
    }
    buf.truncate(buf.trim_end().len());
    Ok(buf)
}

impl Client {
    /// Connects to a serving daemon. Each request is one attempt on this
    /// connection, sent without `id`, `attempt` or `deadline_ms` fields.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Ok(Client {
            conn: Some(open(addr, None)?),
            io_timeout: None,
            retry: None,
        })
    }

    /// A self-healing client for `addr`. It connects lazily on the first
    /// request, tags every request with an `id` the server echoes (plus an
    /// `attempt` counter on retries), attaches the policy's deadline to
    /// adapt, extend and predict, and retries transient errors with seeded
    /// exponential backoff, reconnecting after connection failures.
    ///
    /// Retryable classes: [`Error::Io`] (drop, timeout), [`Error::Serde`]
    /// (corrupt frame, stale reply), [`Error::Overloaded`] (shed) and
    /// [`Error::DeadlineExceeded`]. Everything else — bad requests, unknown
    /// tasks — fails fast, since retrying cannot change the answer.
    pub fn with_policy(addr: impl Into<String>, policy: RetryPolicy) -> Client {
        // Socket timeout = deadline + slack, so a wedged server surfaces as
        // a retryable I/O error instead of an indefinite block.
        let io_timeout = policy
            .deadline_ms
            .map(|ms| Duration::from_millis(ms.saturating_mul(2) + 500));
        Client {
            conn: None,
            io_timeout,
            retry: Some(Retry {
                addr: addr.into(),
                rng: Rng::new(policy.seed),
                policy,
                next_id: 0,
                stats: RetryStats::default(),
            }),
        }
    }

    /// Bounds every socket read and write, on this connection and any the
    /// client opens later, so a wedged or partitioned server surfaces as an
    /// [`Error::Io`] instead of a block forever.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.io_timeout = timeout;
        match &self.conn {
            Some(conn) => set_timeouts(conn.get_ref(), timeout),
            None => Ok(()),
        }
    }

    /// Retry/reconnect/deadline-miss counters so far (zero without a policy).
    pub fn retry_stats(&self) -> RetryStats {
        self.retry.as_ref().map(|r| r.stats).unwrap_or_default()
    }

    /// Sends one request line exactly as `req` serialises — no envelope,
    /// no retry — and reads one response line. An error reply comes back as
    /// [`Response::Error`].
    pub fn request(&mut self, req: &Request) -> Result<Response> {
        self.attempt(req, None)
    }

    /// One attempt: connects if needed, writes `req` (plus the envelope's
    /// `id` and `attempt`, if given) and parses the reply, refusing one
    /// that echoes a different id.
    fn attempt(&mut self, req: &Request, envelope: Option<(&str, u32)>) -> Result<Response> {
        if let (None, Some(retry)) = (&self.conn, &self.retry) {
            self.conn = Some(open(retry.addr.as_str(), self.io_timeout)?);
        }
        let conn = self
            .conn
            .as_mut()
            .expect("a bare client never drops its connection");
        let mut json = req.to_json();
        if let (Some((id, attempt)), Json::Obj(fields)) = (envelope, &mut json) {
            fields.push(("id".into(), Json::Str(id.to_string())));
            if attempt > 0 {
                fields.push(("attempt".into(), Json::from(attempt as u64)));
            }
        }
        let parsed = Json::parse(&round_trip(conn, &json.to_string())?)?;
        if let Some((id, _)) = envelope {
            if parsed
                .get("id")
                .is_some_and(|echo| echo.as_str().ok() != Some(id))
            {
                return Err(Error::Serde(format!(
                    "response id mismatch: expected `{id}`"
                )));
            }
        }
        Response::from_json(&parsed)
    }

    /// Sends a request — through the retry loop on a policy client, once
    /// otherwise — and converts error responses into typed errors
    /// (`overloaded` becomes [`Error::Overloaded`]).
    fn request_ok(&mut self, req: &Request) -> Result<Response> {
        let id = self.retry.as_mut().map(|r| {
            r.next_id += 1;
            format!("r{}", r.next_id - 1)
        });
        let mut attempt: u32 = 0;
        loop {
            let envelope = id.as_deref().map(|id| (id, attempt));
            let e = match self.attempt(req, envelope) {
                Ok(resp) => match resp.to_error() {
                    None => return Ok(resp),
                    Some(e) => e,
                },
                Err(e) => e,
            };
            let Some(retry) = self.retry.as_mut() else {
                return Err(e);
            };
            // A failed read/write or a garbled frame leaves the stream in an
            // unknown state: drop the connection so the next attempt starts
            // clean.
            if matches!(&e, Error::Io { .. } | Error::Serde(_)) && self.conn.take().is_some() {
                retry.stats.reconnects += 1;
            }
            let retryable = matches!(
                &e,
                Error::Io { .. }
                    | Error::Serde(_)
                    | Error::Overloaded { .. }
                    | Error::DeadlineExceeded { .. }
            );
            if !retryable || attempt >= retry.policy.max_retries {
                if matches!(&e, Error::DeadlineExceeded { .. }) {
                    retry.stats.deadline_misses += 1;
                }
                return Err(e);
            }
            attempt += 1;
            retry.stats.retries += 1;
            retry.backoff(attempt);
        }
    }

    /// The deadline adapt, extend and predict requests carry.
    fn deadline_ms(&self) -> Option<u64> {
        self.retry.as_ref().and_then(|r| r.policy.deadline_ms)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        match self.request_ok(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Adapts (or warms) `(tenant, task)` from a support set; returns the
    /// context source (`hot`, `warm` or `cold`).
    pub fn adapt(
        &mut self,
        tenant: &str,
        task: &str,
        ways: usize,
        support: Vec<SupportSentence>,
    ) -> Result<String> {
        let req = Request::Adapt {
            tenant: tenant.to_string(),
            task: task.to_string(),
            ways,
            support,
            deadline_ms: self.deadline_ms(),
        };
        match self.request_ok(&req)? {
            Response::Adapted { source } => Ok(source),
            other => Err(unexpected("adapt ack", &other)),
        }
    }

    /// Grows `(tenant, task)` with newly arrived support (incremental
    /// online adaptation); returns the context's new revision plus how it
    /// was produced (`extended`, or `cold` when the key was unknown and a
    /// full adapt ran instead). Safe to retry: a duplicate extend re-runs
    /// over support the context already retains (the revision may advance
    /// twice).
    pub fn extend(
        &mut self,
        tenant: &str,
        task: &str,
        ways: usize,
        support: Vec<SupportSentence>,
    ) -> Result<(u32, String)> {
        let req = Request::Extend {
            tenant: tenant.to_string(),
            task: task.to_string(),
            ways,
            support,
            deadline_ms: self.deadline_ms(),
        };
        match self.request_ok(&req)? {
            Response::Extended { revision, source } => Ok((revision, source)),
            other => Err(unexpected("extend ack", &other)),
        }
    }

    /// Predicts tags for query sentences under an already-adapted task.
    pub fn predict(
        &mut self,
        tenant: &str,
        task: &str,
        sentences: &[Vec<String>],
    ) -> Result<Vec<Vec<String>>> {
        self.predict_req(tenant, task, sentences, (None, None))
    }

    /// Predicts with an inline support set (adapt-on-miss in one round
    /// trip).
    pub fn predict_with_support(
        &mut self,
        tenant: &str,
        task: &str,
        sentences: &[Vec<String>],
        ways: usize,
        support: Vec<SupportSentence>,
    ) -> Result<Vec<Vec<String>>> {
        self.predict_req(tenant, task, sentences, (Some(ways), Some(support)))
    }

    fn predict_req(
        &mut self,
        tenant: &str,
        task: &str,
        sentences: &[Vec<String>],
        (ways, support): (Option<usize>, Option<Vec<SupportSentence>>),
    ) -> Result<Vec<Vec<String>>> {
        let req = Request::Predict {
            tenant: tenant.to_string(),
            task: task.to_string(),
            sentences: sentences.to_vec(),
            ways,
            support,
            deadline_ms: self.deadline_ms(),
        };
        match self.request_ok(&req)? {
            Response::Predictions { tags } => Ok(tags),
            other => Err(unexpected("predictions", &other)),
        }
    }

    /// Counter snapshot (cache + queue), sorted by name.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>> {
        match self.request_ok(&Request::Stats)? {
            Response::Stats { counters } => Ok(counters),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Requests an orderly shutdown of the daemon. If a policy client's
    /// retry finds the accept loop already closed, the resulting connect
    /// error is surfaced as-is.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.request_ok(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("shutdown ack", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> Error {
    Error::Serde(format!("expected {wanted}, got {:?}", got))
}

impl Retry {
    fn backoff(&mut self, attempt: u32) {
        let exp = self
            .policy
            .base_backoff_ms
            .saturating_mul(1u64 << (attempt - 1).min(16));
        let capped = exp.min(self.policy.max_backoff_ms);
        let ms = (capped as f32 * self.rng.uniform(0.5, 1.5)) as u64;
        std::thread::sleep(Duration::from_millis(ms.max(1)));
    }
}

/// Retry knobs for [`Client::with_policy`]. Backoff is exponential from
/// `base_backoff_ms`, capped at `max_backoff_ms`, with ±50% jitter drawn
/// from a seeded in-tree [`Rng`] — two clients with the same seed back off
/// identically, which keeps chaos tests reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (default 2 → at most 3 attempts).
    pub max_retries: u32,
    /// First backoff interval in milliseconds (default 10).
    pub base_backoff_ms: u64,
    /// Backoff ceiling in milliseconds (default 500).
    pub max_backoff_ms: u64,
    /// Deadline attached to every adapt/extend/predict request, and used to
    /// size the socket timeout. `None` leaves requests unbounded.
    pub deadline_ms: Option<u64>,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// Defaults: 2 retries, 10 ms → 500 ms backoff, no deadline, seed 7.
    pub fn new() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            base_backoff_ms: 10,
            max_backoff_ms: 500,
            deadline_ms: None,
            seed: 7,
        }
    }

    /// Sets the retry budget (retries after the first attempt).
    pub fn max_retries(mut self, n: u32) -> RetryPolicy {
        self.max_retries = n;
        self
    }

    /// Sets the backoff range in milliseconds.
    pub fn backoff_ms(mut self, base: u64, max: u64) -> RetryPolicy {
        self.base_backoff_ms = base.max(1);
        self.max_backoff_ms = max.max(base.max(1));
        self
    }

    /// Sets the per-request deadline in milliseconds.
    pub fn deadline_ms(mut self, ms: u64) -> RetryPolicy {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the jitter seed.
    pub fn seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::new()
    }
}

/// What a policy client has been through, for load reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Attempts beyond the first, across all requests.
    pub retries: u64,
    /// Connections re-established after an I/O or framing failure.
    pub reconnects: u64,
    /// Requests that ultimately failed with `deadline_exceeded`.
    pub deadline_misses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_builders_floor_sanely() {
        let p = RetryPolicy::new().backoff_ms(0, 0);
        assert_eq!((p.base_backoff_ms, p.max_backoff_ms), (1, 1));
        let p = RetryPolicy::new().max_retries(5).deadline_ms(250).seed(9);
        assert_eq!(p.max_retries, 5);
        assert_eq!(p.deadline_ms, Some(250));
        assert_eq!(p.seed, 9);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..8 {
            assert_eq!(a.uniform(0.5, 1.5).to_bits(), b.uniform(0.5, 1.5).to_bits());
        }
    }
}
