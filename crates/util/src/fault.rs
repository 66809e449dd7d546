//! Fault injection for crash-safety testing.
//!
//! A [`FaultPlan`] arms a small set of failure points that the training,
//! persistence and serving layers consult: the i-th [`task_grad`] call can
//! fail or panic; the i-th durable file write can fail outright, tear
//! (leave a truncated file behind), or silently corrupt a byte; the i-th
//! serve-path response write can drop the connection or corrupt the frame,
//! and the i-th server-side adaptation can stall. The `crash_recovery` and
//! `chaos` test suites plus the CI kill-and-resume / chaos-smoke steps
//! drive these hooks to prove that an interrupted run is always resumable
//! and a faulted daemon stays within its deadlines.
//!
//! The hooks are **zero-cost when off**: the fast path is a single relaxed
//! atomic load. A plan is installed either programmatically
//! ([`install`] / [`with_plan`]) or from the `FEWNER_FAULTS` environment
//! variable, e.g.
//!
//! ```text
//! FEWNER_FAULTS=task_grad_panic:40            # panic on the 40th task_grad
//! FEWNER_FAULTS=ckpt_write_fail:2,ckpt_corrupt:3
//! FEWNER_FAULTS=shard_die:3@1                 # shard 1 aborts in round 3
//! ```
//!
//! Counts are 1-based over the process lifetime. An arm may carry an
//! `@<shard>` scope: it then only counts (and fires) on threads that have
//! declared that shard id via [`set_thread_shard`] — this is how the
//! sharded-training suites and the CI smoke job target exactly one worker
//! even when several shards share a process (or inherit the same
//! `FEWNER_FAULTS` from a driver).
//!
//! [`task_grad`]: https://docs.rs/fewner-core (EpisodicLearner::task_grad)

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};

use crate::error::{Error, Result};

/// What an armed `task_grad` fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFault {
    /// Return a non-finite-gradient error (exercises the skip/divergence
    /// path: the trainer treats it like a numerical blow-up).
    Error,
    /// Panic (exercises the crash path: a worker panic in the parallel
    /// trainer, or a process abort in the serial one).
    Panic,
}

/// What an armed durable-write fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The write fails cleanly: nothing reaches disk, an error is returned.
    Fail,
    /// A torn write: half the framed bytes land at the final path, then the
    /// write errors — simulating a crash on a filesystem without atomic
    /// replace semantics.
    Truncate,
    /// Silent bit rot: the full frame is written with one payload byte
    /// flipped, and the write *succeeds* — only the CRC check at load time
    /// can catch it.
    Corrupt,
}

/// What an armed serve-path fault does when it fires (counted per response
/// write for [`ServeFault::ConnDrop`] / [`ServeFault::FrameCorrupt`], per
/// server-side adaptation for [`ServeFault::AdaptStall`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeFault {
    /// The server drops the connection instead of writing the response —
    /// the client sees an EOF mid-request and must reconnect + retry.
    ConnDrop,
    /// The server-side adaptation stalls (bounded sleep) before running —
    /// exercises deadline enforcement around a wedged inner loop.
    AdaptStall,
    /// The server corrupts the response frame before writing it — the
    /// client sees a parse failure and must treat the connection as dead.
    FrameCorrupt,
}

/// What an armed shard-exchange fault does to the i-th gradient frame a
/// shard worker sends (counted per partial-gradient send).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFrameFault {
    /// One payload byte is flipped after the CRC was computed — the
    /// coordinator must detect the mismatch and request a retransmit.
    Corrupt,
    /// The second half of the payload is zeroed, length intact — a torn
    /// gradient frame that only the CRC can catch (retransmit, not silent
    /// divergence).
    Torn,
    /// The worker writes half the frame, then drops the connection — the
    /// coordinator sees a truncated stream and must treat the shard as
    /// dead and reassign its task range.
    ConnDrop,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    TaskGradError,
    TaskGradPanic,
    WriteFail,
    WriteTruncate,
    WriteCorrupt,
    ServeConnDrop,
    ServeAdaptStall,
    ServeFrameCorrupt,
    ShardDie,
    ShardConnDrop,
    ShardFrameCorrupt,
    ShardFrameTorn,
}

std::thread_local! {
    static THREAD_SHARD: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// Declares which shard the current thread belongs to, for `@<shard>`-scoped
/// arms. `None` clears the scope. Scoped arms never fire (or count) on
/// threads without a matching declaration.
pub fn set_thread_shard(shard: Option<u64>) {
    THREAD_SHARD.with(|s| s.set(shard));
}

#[derive(Debug)]
struct Arm {
    kind: Kind,
    /// Fires on the `at`-th matching call (1-based).
    at: u64,
    /// `Some(k)`: only counts on threads that declared shard `k`.
    scope: Option<u64>,
    seen: AtomicU64,
}

impl Arm {
    /// Counts one matching call; true exactly when this call is the
    /// `at`-th. Out-of-scope calls neither count nor fire.
    fn tick(&self) -> bool {
        if let Some(scope) = self.scope {
            if THREAD_SHARD.with(|s| s.get()) != Some(scope) {
                return false;
            }
        }
        self.seen.fetch_add(1, Ordering::Relaxed) + 1 == self.at
    }
}

/// An armed set of failure points. See the module docs for the spec syntax.
#[derive(Debug, Default)]
pub struct FaultPlan {
    arms: Vec<Arm>,
}

impl FaultPlan {
    /// Parses a comma-separated `kind:count[@shard]` spec
    /// (`task_grad_err | task_grad_panic | ckpt_write_fail | ckpt_truncate
    /// | ckpt_corrupt | serve_conn_drop | serve_adapt_stall |
    /// serve_frame_corrupt | shard_die | shard_conn_drop |
    /// shard_frame_corrupt | shard_frame_torn`).
    pub fn parse(spec: &str) -> Result<FaultPlan> {
        let mut arms = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let bad = |why: String| Error::InvalidConfig(format!("fault arm `{part}`: {why}"));
            let (kind, count) = part
                .split_once(':')
                .ok_or_else(|| bad("not `kind:count`".into()))?;
            let (count, scope) = match count.split_once('@') {
                Some((count, shard)) => {
                    let shard: u64 = shard
                        .trim()
                        .parse()
                        .map_err(|_| bad(format!("scope `@{shard}` is not a shard id")))?;
                    (count, Some(shard))
                }
                None => (count, None),
            };
            let at: u64 = count
                .trim()
                .parse()
                .map_err(|_| bad(format!("count `{count}` is not an integer")))?;
            if at == 0 {
                return Err(bad("counts are 1-based; 0 never fires".into()));
            }
            let kind = match kind.trim() {
                "task_grad_err" => Kind::TaskGradError,
                "task_grad_panic" => Kind::TaskGradPanic,
                "ckpt_write_fail" => Kind::WriteFail,
                "ckpt_truncate" => Kind::WriteTruncate,
                "ckpt_corrupt" => Kind::WriteCorrupt,
                "serve_conn_drop" => Kind::ServeConnDrop,
                "serve_adapt_stall" => Kind::ServeAdaptStall,
                "serve_frame_corrupt" => Kind::ServeFrameCorrupt,
                "shard_die" => Kind::ShardDie,
                "shard_conn_drop" => Kind::ShardConnDrop,
                "shard_frame_corrupt" => Kind::ShardFrameCorrupt,
                "shard_frame_torn" => Kind::ShardFrameTorn,
                other => return Err(bad(format!("unknown fault kind `{other}`"))),
            };
            arms.push(Arm {
                kind,
                at,
                scope,
                seen: AtomicU64::new(0),
            });
        }
        Ok(FaultPlan { arms })
    }

    /// Parses the `FEWNER_FAULTS` environment variable: `Ok(None)` when it
    /// is unset or arms nothing, an error naming the variable and the bad
    /// arm when it does not parse (a misspelled plan must not run as no
    /// plan at all).
    pub fn from_env() -> Result<Option<FaultPlan>> {
        let spec = match std::env::var("FEWNER_FAULTS") {
            Ok(spec) => spec,
            Err(std::env::VarError::NotPresent) => return Ok(None),
            Err(e) => return Err(Error::InvalidConfig(format!("FEWNER_FAULTS: {e}"))),
        };
        let plan = FaultPlan::parse(&spec).map_err(|e| match e {
            Error::InvalidConfig(msg) => Error::InvalidConfig(format!("FEWNER_FAULTS: {msg}")),
            other => other,
        })?;
        Ok(Some(plan).filter(|p| !p.arms.is_empty()))
    }

    /// Counts one `task_grad` call; returns a fault if one fires now.
    pub fn on_task_grad(&self) -> Option<TaskFault> {
        let mut fired = None;
        for arm in &self.arms {
            let matches = matches!(arm.kind, Kind::TaskGradError | Kind::TaskGradPanic);
            if matches && arm.tick() {
                fired = Some(match arm.kind {
                    Kind::TaskGradError => TaskFault::Error,
                    _ => TaskFault::Panic,
                });
            }
        }
        fired
    }

    /// Counts one serve-path response write; returns a fault if one fires
    /// now. Connection-drop and frame-corrupt arms share this tick stream
    /// (each arm keeps its own counter, like the write faults).
    pub fn on_serve_response(&self) -> Option<ServeFault> {
        let mut fired = None;
        for arm in &self.arms {
            let matches = matches!(arm.kind, Kind::ServeConnDrop | Kind::ServeFrameCorrupt);
            if matches && arm.tick() {
                fired = Some(match arm.kind {
                    Kind::ServeConnDrop => ServeFault::ConnDrop,
                    _ => ServeFault::FrameCorrupt,
                });
            }
        }
        fired
    }

    /// Counts one server-side adaptation; true when a stall fires now.
    pub fn on_serve_adapt(&self) -> bool {
        let mut fired = false;
        for arm in &self.arms {
            if arm.kind == Kind::ServeAdaptStall && arm.tick() {
                fired = true;
            }
        }
        fired
    }

    /// Counts one shard-round entry; true when the worker must abort the
    /// whole process now (simulating a machine loss mid-training).
    pub fn on_shard_round(&self) -> bool {
        let mut fired = false;
        for arm in &self.arms {
            if arm.kind == Kind::ShardDie && arm.tick() {
                fired = true;
            }
        }
        fired
    }

    /// Counts one partial-gradient frame send; returns a fault if one
    /// fires now. Corrupt/torn/conn-drop arms share this tick stream (each
    /// arm keeps its own counter, like the write faults).
    pub fn on_shard_frame(&self) -> Option<ShardFrameFault> {
        let mut fired = None;
        for arm in &self.arms {
            let matches = matches!(
                arm.kind,
                Kind::ShardConnDrop | Kind::ShardFrameCorrupt | Kind::ShardFrameTorn
            );
            if matches && arm.tick() {
                fired = Some(match arm.kind {
                    Kind::ShardConnDrop => ShardFrameFault::ConnDrop,
                    Kind::ShardFrameCorrupt => ShardFrameFault::Corrupt,
                    _ => ShardFrameFault::Torn,
                });
            }
        }
        fired
    }

    /// Counts one durable write; returns a fault if one fires now.
    pub fn on_durable_write(&self) -> Option<WriteFault> {
        let mut fired = None;
        for arm in &self.arms {
            let matches = matches!(
                arm.kind,
                Kind::WriteFail | Kind::WriteTruncate | Kind::WriteCorrupt
            );
            if matches && arm.tick() {
                fired = Some(match arm.kind {
                    Kind::WriteFail => WriteFault::Fail,
                    Kind::WriteTruncate => WriteFault::Truncate,
                    _ => WriteFault::Corrupt,
                });
            }
        }
        fired
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

fn plan_slot() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    static SLOT: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);
    &SLOT
}

fn lock_slot() -> std::sync::MutexGuard<'static, Option<Arc<FaultPlan>>> {
    // A panicking fault *is* the point of this module; don't let the poison
    // flag cascade into unrelated tests.
    plan_slot().lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs (or clears, with `None`) the process-wide fault plan.
pub fn install(plan: Option<Arc<FaultPlan>>) {
    // Make sure the env probe doesn't later overwrite an explicit install.
    ENV_INIT.call_once(|| {});
    let enabled = plan.is_some();
    *lock_slot() = plan;
    ENABLED.store(enabled, Ordering::Release);
}

/// The active plan, if any. First use probes `FEWNER_FAULTS`, and panics
/// with [`FaultPlan::from_env`]'s message if the variable does not parse.
pub fn active() -> Option<Arc<FaultPlan>> {
    ENV_INIT.call_once(|| {
        if let Some(plan) = FaultPlan::from_env().unwrap_or_else(|e| panic!("{e}")) {
            *lock_slot() = Some(Arc::new(plan));
            ENABLED.store(true, Ordering::Release);
        }
    });
    if !ENABLED.load(Ordering::Acquire) {
        return None;
    }
    lock_slot().clone()
}

/// Fault check for one `task_grad` call (no-op without an active plan).
pub fn task_grad_fault() -> Option<TaskFault> {
    active()?.on_task_grad()
}

/// Fault check for one durable write (no-op without an active plan).
pub fn durable_write_fault() -> Option<WriteFault> {
    active()?.on_durable_write()
}

/// Fault check for one serve-path response write (no-op without a plan).
pub fn serve_response_fault() -> Option<ServeFault> {
    active()?.on_serve_response()
}

/// Fault check for one server-side adaptation (no-op without a plan).
pub fn serve_adapt_stall_fault() -> bool {
    active().is_some_and(|p| p.on_serve_adapt())
}

/// Fault check for one shard round (no-op without a plan). True means the
/// worker must abort the process.
pub fn shard_die_fault() -> bool {
    active().is_some_and(|p| p.on_shard_round())
}

/// Fault check for one partial-gradient frame send (no-op without a plan).
pub fn shard_frame_fault() -> Option<ShardFrameFault> {
    active()?.on_shard_frame()
}

/// Runs `f` with `plan` installed, then clears it. Calls are serialised
/// process-wide so concurrent tests cannot observe each other's faults.
pub fn with_plan<T>(plan: FaultPlan, f: impl FnOnce() -> T) -> T {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    install(Some(Arc::new(plan)));
    struct Clear;
    impl Drop for Clear {
        fn drop(&mut self) {
            install(None);
        }
    }
    let _clear = Clear;
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_kinds_and_rejects_junk() {
        let plan = FaultPlan::parse("task_grad_err:3, ckpt_corrupt:1").unwrap();
        assert_eq!(plan.arms.len(), 2);
        assert!(FaultPlan::parse("task_grad_err").is_err());
        assert!(FaultPlan::parse("task_grad_err:x").is_err());
        assert!(FaultPlan::parse("task_grad_err:0").is_err());
        assert!(FaultPlan::parse("explode:1").is_err());
        assert!(FaultPlan::parse("").unwrap().arms.is_empty());
        for spec in ["task_grad_err:1, task_grad_pnic:2", "task_grad_pnic:2"] {
            let err = FaultPlan::parse(spec).unwrap_err().to_string();
            assert!(err.contains("`task_grad_pnic:2`"), "{err}");
        }
    }

    #[test]
    fn arms_fire_exactly_once_at_their_count() {
        let plan = FaultPlan::parse("task_grad_panic:3").unwrap();
        assert_eq!(plan.on_task_grad(), None);
        assert_eq!(plan.on_task_grad(), None);
        assert_eq!(plan.on_task_grad(), Some(TaskFault::Panic));
        assert_eq!(plan.on_task_grad(), None);
    }

    #[test]
    fn task_and_write_counters_are_independent() {
        let plan = FaultPlan::parse("task_grad_err:1,ckpt_write_fail:2").unwrap();
        assert_eq!(plan.on_durable_write(), None);
        assert_eq!(plan.on_task_grad(), Some(TaskFault::Error));
        assert_eq!(plan.on_durable_write(), Some(WriteFault::Fail));
    }

    #[test]
    fn serve_faults_parse_and_fire_independently() {
        let plan = FaultPlan::parse("serve_conn_drop:1,serve_frame_corrupt:2,serve_adapt_stall:2")
            .unwrap();
        // Response writes and adaptations are separate tick streams.
        assert!(!plan.on_serve_adapt());
        assert_eq!(plan.on_serve_response(), Some(ServeFault::ConnDrop));
        assert_eq!(plan.on_serve_response(), Some(ServeFault::FrameCorrupt));
        assert_eq!(plan.on_serve_response(), None);
        assert!(plan.on_serve_adapt());
        assert!(!plan.on_serve_adapt());
        assert!(FaultPlan::parse("serve_conn_drop:0").is_err());
    }

    #[test]
    fn shard_faults_parse_and_fire_independently() {
        let plan = FaultPlan::parse(
            "shard_die:2,shard_frame_corrupt:1,shard_frame_torn:2,shard_conn_drop:3",
        )
        .unwrap();
        assert!(!plan.on_shard_round());
        assert!(plan.on_shard_round());
        assert!(!plan.on_shard_round());
        assert_eq!(plan.on_shard_frame(), Some(ShardFrameFault::Corrupt));
        assert_eq!(plan.on_shard_frame(), Some(ShardFrameFault::Torn));
        assert_eq!(plan.on_shard_frame(), Some(ShardFrameFault::ConnDrop));
        assert_eq!(plan.on_shard_frame(), None);
    }

    #[test]
    fn scoped_arms_only_count_on_the_declared_shard() {
        let plan = FaultPlan::parse("shard_die:2@1").unwrap();
        // No declaration: never counts.
        assert!(!plan.on_shard_round());
        assert!(!plan.on_shard_round());
        // Wrong shard: never counts.
        set_thread_shard(Some(0));
        assert!(!plan.on_shard_round());
        // Matching shard: the scoped counter starts from zero here.
        set_thread_shard(Some(1));
        assert!(!plan.on_shard_round());
        assert!(plan.on_shard_round());
        assert!(!plan.on_shard_round());
        set_thread_shard(None);

        assert!(FaultPlan::parse("shard_die:1@x").is_err());
        assert!(FaultPlan::parse("shard_die:0@1").is_err());
    }

    #[test]
    fn with_plan_scopes_the_installation() {
        assert!(task_grad_fault().is_none());
        let fired = with_plan(FaultPlan::parse("task_grad_err:1").unwrap(), || {
            task_grad_fault()
        });
        assert_eq!(fired, Some(TaskFault::Error));
        assert!(task_grad_fault().is_none());
    }
}
