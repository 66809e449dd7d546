//! Shared utilities for the FEWNER reproduction.
//!
//! This crate deliberately has no dependencies: it provides
//!
//! * [`rng`] — a vendored, portable, seedable random number generator
//!   (SplitMix64 seeding a xoshiro256\*\*). Episode sampling, corpus synthesis
//!   and parameter initialisation must be bit-identical across runs and across
//!   library-version upgrades, so we do not rely on an external RNG crate for
//!   anything that affects reproducibility.
//! * [`stats`] — the paper's episode statistics: mean F1 with a 95 % normal
//!   confidence interval (mean ± 1.96·σ/√n, §4.1.1).
//! * [`error`] — the library-wide error type.
//! * [`json`](mod@json) — a small JSON value with parser/writers for reports and
//!   checkpoints, so the workspace builds without registry access.
//! * [`crc32`](mod@crc32) + [`durable`] — integrity-checked, atomic (write-temp,
//!   fsync, rename) file persistence for checkpoints and training
//!   snapshots.
//! * [`fault`] — zero-cost-when-off fault injection (failed/torn/corrupt
//!   writes, failing or panicking task gradients, serve-path connection
//!   drops / adapt stalls / frame corruption) behind the `FEWNER_FAULTS`
//!   environment variable, for crash-recovery and chaos testing.
//! * [`deadline`] — per-request wall-clock budgets, enforced as typed
//!   [`Error::DeadlineExceeded`] at every serving checkpoint.
//! * [`par`] — the ordered parallel map behind meta-training's per-task
//!   fan-out and episode evaluation.

pub mod crc32;
pub mod deadline;
pub mod durable;
pub mod error;
pub mod fault;
pub mod json;
pub mod par;
pub mod rng;
pub mod stats;

pub use crc32::{crc32, Crc32};
pub use deadline::Deadline;
pub use durable::WireFrame;
pub use error::{Error, Result};
pub use json::{FromJson, Json, ToJson};
pub use rng::Rng;
pub use stats::{ci95, mean, MeanCi, OnlineStats};
