//! `fewner-serve` — the multi-tenant serving daemon.
//!
//! The paper's operational claim (§4.5.2) is that test-time adaptation of
//! the low-dimensional context φ is cheap; this crate is the system that
//! cashes that claim in. One long-running [`Server`] owns the frozen θ and
//! serves many tenants' tasks concurrently:
//!
//! * [`cache`] — the adapted-context (φ) cache: `(tenant, task)`-keyed,
//!   LRU + TTL, single-flight (concurrent requests adapt **once**), with
//!   durable persistence so a restarted server reloads warm φ's bitwise
//!   identically instead of re-running the inner loop.
//! * [`server`] — worker pool, bounded admission queue (shed with
//!   [`fewner_util::Error::Overloaded`], never unbounded latency), and
//!   cross-request micro-batching: queued queries for the same task are
//!   merged into one gradient-free decode call.
//! * [`protocol`] — newline-delimited JSON over TCP; tags travel in their
//!   textual `O`/`B-s`/`I-s` form.
//! * [`client`] — the blocking [`Client`] used by the CLI, the load
//!   generator and the tests: a bare connection from [`Client::connect`],
//!   or a self-healing one (ids, retries, deadlines) from
//!   [`Client::with_policy`].
//!
//! The serving path is built to degrade, not fall over: every request may
//! carry a `deadline_ms` budget enforced at admission, in the queue, inside
//! the φ-cache single-flight wait and at the decode entry points; frames
//! are size-bounded ([`protocol::read_frame`]); a failed φ persist drops
//! the cache to memory-only serving (`serve/persist_degraded`) instead of
//! erroring; and queue saturation sheds cold adapts first while
//! already-adapted tenants keep being served. The `serve_*` faults in
//! [`fewner_util::fault`] drive all of this under chaos tests.
//!
//! Everything is observable through the `fewner-obs` tracer the server is
//! built with: `serve/adapt` (cold inner loop) vs `serve/adapt_warm` (disk
//! reload) spans give the warm/cold latency split, and `serve/cache_*`
//! counters the hit profile — all rendered by `fewner trace summarize`.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::{CacheKey, CacheStats, Lookup, PhiCache};
pub use client::{Client, RetryPolicy, RetryStats};
pub use protocol::{
    read_frame, FrameRead, Request, Response, SupportSentence, DEFAULT_MAX_FRAME_BYTES,
};
pub use server::{Server, ServerConfig};
