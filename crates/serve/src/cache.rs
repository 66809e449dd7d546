//! The adapted-context (φ) cache.
//!
//! A multi-tenant server sees the same `(tenant, task)` pair over and over;
//! re-running the inner loop per request would throw away the paper's cost
//! argument (§4.5.2: adaptation is cheap *once*, not per query). [`PhiCache`]
//! makes the adapted [`AdaptedCtx`] a shared, cached resource:
//!
//! * **Single-flight**: concurrent lookups of the same key block on one
//!   settle-once cell — the inner loop runs *exactly once* per resident
//!   key, and every waiter gets the same `Arc<AdaptedCtx>`. Waiters carry
//!   their request's [`Deadline`]: a wait is bounded by the remaining
//!   budget and surfaces as a typed [`Error::DeadlineExceeded`] instead of
//!   blocking behind a slow adapt, while the leader still completes and
//!   caches the context for the retry.
//! * **Graceful degradation**: a φ persistence failure (full disk, torn
//!   write) flips the cache to memory-only serving — the request in hand
//!   succeeds, a one-time `serve/persist_degraded` event records the mode
//!   switch, and any torn file is removed so a later boot never trips on
//!   it. A revision installed after that removes the key's older file, so
//!   a reload never brings back a superseded φ.
//! * **LRU + TTL**: bounded residency ([`CachePolicy::capacity`]) with
//!   least-recently-used eviction, plus optional expiry
//!   ([`CachePolicy::ttl_ns`]) driven by an injectable [`Clock`] so tests
//!   assert expiry deterministically.
//! * **Durable warm restarts**: with [`CachePolicy::persist_dir`] set,
//!   freshly adapted contexts are written through the CRC-framed atomic
//!   writer; a restarted server reloads them **bitwise identically** instead
//!   of re-adapting ([`Lookup::Warm`] vs [`Lookup::Cold`]).
//!
//! Every outcome is counted — in a [`CacheStats`] snapshot for the `stats`
//! protocol op, and as `serve/cache_*` tracer counters so `fewner trace
//! summarize` shows the hit/miss/eviction profile next to the warm/cold
//! adapt latency split.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use fewner_core::{AdaptedCtx, CachePolicy};
use fewner_obs::{Clock, MonotonicClock, Tracer};
use fewner_util::{crc32, Deadline, Error, Result};

/// Cache key: `(tenant, task)`. Tenants namespace task ids so two customers
/// with a task both named `"triage"` never share a φ.
pub type CacheKey = (String, String);

/// How a lookup obtained its context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Resident in memory (or another request adapted it while we waited).
    Hit,
    /// Reloaded from the persistence directory — a restart-warm key, no
    /// inner loop run.
    Warm,
    /// Freshly adapted: the full inner loop ran.
    Cold,
}

impl Lookup {
    /// Wire name (`hot` / `warm` / `cold`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Lookup::Hit => "hot",
            Lookup::Warm => "warm",
            Lookup::Cold => "cold",
        }
    }
}

/// Monotonic counters describing cache behaviour since construction.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from memory (including joins on an in-flight adapt).
    pub hits: u64,
    /// Lookups that had to produce the context (warm reload or cold adapt).
    pub misses: u64,
    /// Entries dropped by LRU capacity pressure.
    pub evictions: u64,
    /// Entries dropped because their TTL elapsed.
    pub expirations: u64,
    /// Misses satisfied by reloading a persisted φ instead of re-adapting.
    pub reloads: u64,
    /// Freshly adapted contexts written to the persistence directory.
    pub persists: u64,
    /// Single-flight waits abandoned because the waiter's deadline expired
    /// before the in-flight adapt settled.
    pub wait_timeouts: u64,
}

type CtxResult = std::result::Result<Arc<AdaptedCtx>, Error>;

/// A settle-once single-flight cell. Exactly one caller claims the
/// `Pending → Running` transition and produces the result; everyone else
/// blocks on the condvar (optionally bounded by a request deadline) until
/// the cell settles.
struct Cell {
    state: Mutex<CellState>,
    ready: Condvar,
}

enum CellState {
    /// Nobody has claimed the fill yet.
    Pending,
    /// A leader is reloading or adapting; waiters block on `ready`.
    Running,
    /// The shared outcome every current and future lookup observes.
    Done(CtxResult),
}

type CellRef = Arc<Cell>;

impl Cell {
    fn new() -> CellRef {
        Arc::new(Cell {
            state: Mutex::new(CellState::Pending),
            ready: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, CellState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn is_settled(&self) -> bool {
        matches!(&*self.lock(), CellState::Done(_))
    }

    fn settle(&self, result: CtxResult) {
        *self.lock() = CellState::Done(result);
        self.ready.notify_all();
    }
}

/// Outcome of [`PhiCache::claim_or_wait`].
enum Role {
    /// This caller owns the fill: reload or adapt, then settle the cell.
    Leader,
    /// The cell settled (now or earlier); here is the shared result.
    Settled(CtxResult),
}

/// Settles an abandoned cell if the leader unwinds mid-fill (an adapt
/// panic), so waiters receive a typed error instead of hanging forever,
/// and removes the dead entry so the next lookup starts fresh.
struct SettleOnPanic<'a> {
    cache: &'a PhiCache,
    cell: &'a CellRef,
    key: &'a CacheKey,
    armed: bool,
}

impl Drop for SettleOnPanic<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.cell.settle(Err(Error::WorkerPanic {
            context: "phi adapt".into(),
        }));
        let mut inner = self.cache.lock();
        if let Some(meta) = inner.map.get(self.key) {
            if Arc::ptr_eq(&meta.cell, self.cell) {
                inner.map.remove(self.key);
            }
        }
    }
}

struct EntryMeta {
    cell: CellRef,
    /// LRU tick of the most recent lookup.
    last_used: u64,
    /// Absolute expiry instant (clock ns); `None` = never.
    expires_at: Option<u64>,
}

struct Inner {
    map: HashMap<CacheKey, EntryMeta>,
    tick: u64,
    stats: CacheStats,
}

/// A bounded, single-flight, optionally persistent cache of adapted
/// contexts. Shared by reference across server threads.
pub struct PhiCache {
    policy: CachePolicy,
    clock: Arc<dyn Clock>,
    tracer: Tracer,
    inner: Mutex<Inner>,
    /// Set on the first φ persistence failure: the cache keeps serving from
    /// memory and stops writing φ files (until the next boot).
    persist_degraded: AtomicBool,
}

impl PhiCache {
    /// A cache on the production monotonic clock. Creates the persistence
    /// directory if the policy names one.
    pub fn new(policy: CachePolicy, tracer: Tracer) -> Result<PhiCache> {
        PhiCache::with_clock(policy, tracer, Arc::new(MonotonicClock::new()))
    }

    /// A cache on an injected clock (tests drive TTLs with
    /// [`fewner_obs::ManualClock`]).
    pub fn with_clock(
        policy: CachePolicy,
        tracer: Tracer,
        clock: Arc<dyn Clock>,
    ) -> Result<PhiCache> {
        if let Some(dir) = &policy.persist_dir {
            std::fs::create_dir_all(dir).map_err(|e| Error::Io {
                path: dir.display().to_string(),
                detail: e.to_string(),
            })?;
        }
        Ok(PhiCache {
            policy,
            clock,
            tracer,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
            persist_degraded: AtomicBool::new(false),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A poisoned cache mutex means a panic elsewhere; the map itself is
        // always in a consistent state between operations.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The context for `key`, running `adapt` at most once across all
    /// concurrent callers. Returns the shared context plus how it was
    /// obtained. On adapt failure the entry is removed so a later request
    /// retries, and every waiter receives the same error.
    pub fn get_or_adapt(
        &self,
        key: &CacheKey,
        adapt: impl FnOnce() -> Result<AdaptedCtx>,
    ) -> Result<(Arc<AdaptedCtx>, Lookup)> {
        self.get_or_adapt_within(key, None, adapt)
    }

    /// [`PhiCache::get_or_adapt`] bounded by a request deadline: a caller
    /// joining an in-flight adapt waits at most its remaining budget, then
    /// gets [`Error::DeadlineExceeded`] — the leader still completes and
    /// caches the context, so a retry after the deadline is a plain hit and
    /// the inner loop still runs exactly once.
    pub fn get_or_adapt_within(
        &self,
        key: &CacheKey,
        deadline: Option<&Deadline>,
        adapt: impl FnOnce() -> Result<AdaptedCtx>,
    ) -> Result<(Arc<AdaptedCtx>, Lookup)> {
        let now = self.clock.now_ns();
        let cell = self.slot(key, now);

        let mut persisted = false;
        let (result, outcome) = match self.claim_or_wait(&cell, deadline)? {
            Role::Settled(result) => (result, Lookup::Hit),
            Role::Leader => {
                let mut guard = SettleOnPanic {
                    cache: self,
                    cell: &cell,
                    key,
                    armed: true,
                };
                let (result, outcome) = if let Some(ctx) = self.reload(key) {
                    (Ok(Arc::new(ctx)), Lookup::Warm)
                } else {
                    let result = adapt().map(Arc::new);
                    if let Ok(ctx) = &result {
                        persisted = self.persist(key, ctx);
                    }
                    (result, Lookup::Cold)
                };
                guard.armed = false;
                cell.settle(result.clone());
                (result, outcome)
            }
        };

        {
            let mut inner = self.lock();
            match outcome {
                Lookup::Hit => inner.stats.hits += 1,
                Lookup::Warm => {
                    inner.stats.misses += 1;
                    inner.stats.reloads += 1;
                }
                Lookup::Cold => inner.stats.misses += 1,
            }
            if persisted {
                inner.stats.persists += 1;
            }
            if result.is_err() {
                // Drop the failed entry (only if the map still points at this
                // cell) so the next lookup gets a fresh attempt.
                if let Some(meta) = inner.map.get(key) {
                    if Arc::ptr_eq(&meta.cell, &cell) {
                        inner.map.remove(key);
                    }
                }
            }
        }
        match outcome {
            Lookup::Hit => self.tracer.incr("serve/cache_hits", 1),
            Lookup::Warm => {
                self.tracer.incr("serve/cache_misses", 1);
                self.tracer.incr("serve/phi_reloads", 1);
            }
            Lookup::Cold => self.tracer.incr("serve/cache_misses", 1),
        }
        if persisted {
            self.tracer.incr("serve/phi_persists", 1);
        }

        result.map(|ctx| (ctx, outcome))
    }

    /// Claims leadership of an unsettled cell or waits (deadline-bounded)
    /// for the current leader's result.
    fn claim_or_wait(&self, cell: &Cell, deadline: Option<&Deadline>) -> Result<Role> {
        let mut state = cell.lock();
        loop {
            match &*state {
                CellState::Done(result) => return Ok(Role::Settled(result.clone())),
                CellState::Pending => {
                    *state = CellState::Running;
                    return Ok(Role::Leader);
                }
                CellState::Running => match deadline {
                    None => state = cell.ready.wait(state).unwrap_or_else(|p| p.into_inner()),
                    Some(d) => {
                        let Some(remaining) = d.remaining() else {
                            drop(state);
                            self.lock().stats.wait_timeouts += 1;
                            self.tracer.incr("serve/phi_wait_timeout", 1);
                            return Err(Error::DeadlineExceeded {
                                budget_ms: d.budget_ms(),
                                stage: "phi_wait".into(),
                            });
                        };
                        // Re-checks the state on wake; a timeout loops back
                        // into the `remaining()` probe above.
                        let (guard, _timed_out) = cell
                            .ready
                            .wait_timeout(state, remaining)
                            .unwrap_or_else(|p| p.into_inner());
                        state = guard;
                    }
                },
            }
        }
    }

    /// Cold-path persistence with graceful degradation: the first failure
    /// flips the cache to memory-only serving for the rest of this boot.
    /// Persistence is an optimisation for the *next* boot; a full disk must
    /// not fail the request in hand.
    fn persist(&self, key: &CacheKey, ctx: &AdaptedCtx) -> bool {
        let Some(path) = self.persist_path(key) else {
            return false;
        };
        if self.persist_degraded.load(Ordering::Acquire) {
            // This revision stays in memory only, so an older one on disk
            // is stale: drop it, or a reload after eviction or expiry (or
            // the next boot) would bring the superseded φ back.
            std::fs::remove_file(&path).ok();
            return false;
        }
        match ctx.save(&path) {
            Ok(()) => true,
            Err(e) => {
                // A failed write may have torn a half-frame at the final
                // path; never leave it for the next boot to trip over.
                std::fs::remove_file(&path).ok();
                if !self.persist_degraded.swap(true, Ordering::AcqRel) {
                    self.tracer.event(
                        "serve/persist_degraded",
                        &[
                            ("path", path.display().to_string().into()),
                            ("error", e.to_string().into()),
                        ],
                    );
                    self.tracer.incr("serve/persist_degraded", 1);
                }
                false
            }
        }
    }

    /// Whether φ persistence has been switched off after a write failure
    /// (memory-only serving until the next boot).
    pub fn is_persist_degraded(&self) -> bool {
        self.persist_degraded.load(Ordering::Acquire)
    }

    /// Locked section of a lookup: expiry check, LRU touch, insert + evict.
    /// Returns the cell to resolve *outside* the lock, so a slow adapt never
    /// blocks lookups of other keys.
    fn slot(&self, key: &CacheKey, now: u64) -> CellRef {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(meta) = inner.map.get_mut(key) {
            // An in-flight entry is never expired out from under its waiters.
            let expired = meta.cell.is_settled() && meta.expires_at.is_some_and(|t| now >= t);
            if !expired {
                meta.last_used = tick;
                return meta.cell.clone();
            }
            inner.map.remove(key);
            inner.stats.expirations += 1;
            self.tracer.incr("serve/cache_expirations", 1);
        }
        let cell = Cell::new();
        inner.map.insert(
            key.clone(),
            EntryMeta {
                cell: cell.clone(),
                last_used: tick,
                expires_at: self.policy.ttl_ns.map(|t| now.saturating_add(t)),
            },
        );
        self.evict_over_capacity(&mut inner, key);
        cell
    }

    /// Evicts least-recently-used settled entries other than `keep` until
    /// the map fits the capacity. In-flight adapts are never evicted (their
    /// work would be wasted), so the map may briefly overshoot capacity
    /// under a thundering herd of distinct keys.
    fn evict_over_capacity(&self, inner: &mut Inner, keep: &CacheKey) {
        while inner.map.len() > self.policy.capacity {
            let victim = inner
                .map
                .iter()
                .filter(|(k, m)| *k != keep && m.cell.is_settled())
                .min_by_key(|(_, m)| m.last_used)
                .map(|(k, _)| k.clone());
            let Some(k) = victim else { break };
            inner.map.remove(&k);
            inner.stats.evictions += 1;
            self.tracer.incr("serve/cache_evictions", 1);
        }
    }

    /// Attempts a warm reload from the persistence directory. Timed as a
    /// `serve/adapt_warm` span so trace summaries show the warm-vs-cold
    /// adapt latency split (`serve/adapt` stays the cold inner loop).
    fn reload(&self, key: &CacheKey) -> Option<AdaptedCtx> {
        let path = self.persist_path(key)?;
        if !path.exists() {
            return None;
        }
        let mut span = self.tracer.span("serve/adapt_warm");
        span.set("tenant", key.0.as_str());
        span.set("task", key.1.as_str());
        match AdaptedCtx::load(&path) {
            Ok(ctx) => Some(ctx),
            Err(e) => {
                // A torn or stale file falls back to a fresh adapt.
                span.set("reload_error", e.to_string());
                None
            }
        }
    }

    fn persist_path(&self, key: &CacheKey) -> Option<PathBuf> {
        let dir = self.policy.persist_dir.as_ref()?;
        Some(dir.join(Self::file_name(key)))
    }

    /// Persisted-φ file name: readable sanitised prefix plus a CRC32 of the
    /// exact key, so distinct keys never collide after sanitisation.
    fn file_name(key: &CacheKey) -> String {
        fn sanitize(s: &str) -> String {
            s.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .take(32)
                .collect()
        }
        let mut keyed = key.0.clone().into_bytes();
        keyed.push(0);
        keyed.extend_from_slice(key.1.as_bytes());
        format!(
            "{}-{}-{:08x}.phi",
            sanitize(&key.0),
            sanitize(&key.1),
            crc32(&keyed)
        )
    }

    /// Whether `key` is resident in memory.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.lock().map.contains_key(key)
    }

    /// Whether `key` has a persisted φ on disk (existence only; integrity is
    /// checked at reload).
    pub fn has_persisted(&self, key: &CacheKey) -> bool {
        self.persist_path(key).is_some_and(|p| p.exists())
    }

    /// Whether a lookup without a support set could succeed.
    pub fn known(&self, key: &CacheKey) -> bool {
        self.contains(key) || self.has_persisted(key)
    }

    /// Whether `key` already has a *ready* context — a settled resident
    /// cell or a persisted φ. An in-flight adapt does not count: admission
    /// uses this to classify requests as warm (cheap to serve) vs cold
    /// (needs an inner loop), and work queued behind an unfinished adapt is
    /// still cold.
    pub fn ready(&self, key: &CacheKey) -> bool {
        self.lock()
            .map
            .get(key)
            .is_some_and(|m| m.cell.is_settled())
            || self.has_persisted(key)
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops `key` from memory *and* deletes its persisted φ — a true
    /// invalidation (e.g. the tenant changed the task's support set).
    pub fn invalidate(&self, key: &CacheKey) {
        self.lock().map.remove(key);
        if let Some(path) = self.persist_path(key) {
            std::fs::remove_file(path).ok();
        }
    }

    /// Installs a new context for `key`, superseding whatever revision was
    /// resident — invalidation-by-version for incremental extension. The
    /// entry is inserted *settled* (no single-flight claim to win): lookups
    /// racing this call observe either the old or the new context, never a
    /// blocked cell. The persisted φ is overwritten in place so a restart
    /// warm-reloads the latest revision; the same graceful degradation as a
    /// cold persist applies.
    pub fn replace(&self, key: &CacheKey, ctx: Arc<AdaptedCtx>) {
        let persisted = self.persist(key, &ctx);
        let now = self.clock.now_ns();
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if persisted {
            inner.stats.persists += 1;
        }
        let cell = Cell::new();
        cell.settle(Ok(ctx));
        inner.map.insert(
            key.clone(),
            EntryMeta {
                cell,
                last_used: tick,
                expires_at: self.policy.ttl_ns.map(|t| now.saturating_add(t)),
            },
        );
        self.evict_over_capacity(&mut inner, key);
        drop(inner);
        if persisted {
            self.tracer.incr("serve/phi_persists", 1);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fewner_tensor::{Array, ParamStore};
    use fewner_util::ToJson;

    fn ctx(seed: f32) -> AdaptedCtx {
        let mut store = ParamStore::new();
        let id = store.add(
            "phi",
            Array::from_vec(1, 3, vec![seed, seed + 1.0, seed + 2.0]),
        );
        let json = fewner_util::Json::Obj(vec![
            ("version".into(), fewner_util::Json::from(2u64)),
            ("n_ways".into(), fewner_util::Json::from(2usize)),
            ("revision".into(), fewner_util::Json::from(1u64)),
            ("phi".into(), store.value(id).to_json()),
            ("support".into(), fewner_util::Json::Arr(Vec::new())),
        ]);
        AdaptedCtx::from_json(&json).unwrap()
    }

    fn key(s: &str) -> CacheKey {
        ("t".into(), s.into())
    }

    #[test]
    fn file_names_distinguish_sanitised_collisions() {
        let a = PhiCache::file_name(&("a/b".into(), "c".into()));
        let b = PhiCache::file_name(&("a.b".into(), "c".into()));
        assert_ne!(a, b, "CRC suffix must disambiguate `a_b`");
        assert!(a.starts_with("a_b-c-"));
    }

    #[test]
    fn single_key_adapts_once_then_hits() {
        let cache = PhiCache::new(CachePolicy::lru(4), Tracer::disabled()).unwrap();
        let k = key("x");
        let (c1, l1) = cache.get_or_adapt(&k, || Ok(ctx(0.0))).unwrap();
        assert_eq!(l1, Lookup::Cold);
        let (c2, l2) = cache
            .get_or_adapt(&k, || panic!("must not re-adapt"))
            .unwrap();
        assert_eq!(l2, Lookup::Hit);
        assert!(Arc::ptr_eq(&c1, &c2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn waiter_deadline_bounds_the_single_flight_wait() {
        let cache = Arc::new(PhiCache::new(CachePolicy::lru(4), Tracer::disabled()).unwrap());
        let k = key("slow");
        let gate = Arc::new(std::sync::Barrier::new(2));
        let leader = {
            let cache = Arc::clone(&cache);
            let k = k.clone();
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                cache.get_or_adapt(&k, || {
                    gate.wait(); // the waiter is about to join this flight
                    std::thread::sleep(std::time::Duration::from_millis(300));
                    Ok(ctx(0.0))
                })
            })
        };
        gate.wait();
        let t0 = std::time::Instant::now();
        let d = Deadline::from_ms(30);
        let waited = cache.get_or_adapt_within(&k, Some(&d), || panic!("leader owns the fill"));
        assert!(
            matches!(waited, Err(Error::DeadlineExceeded { ref stage, .. }) if stage == "phi_wait"),
            "expected a phi_wait deadline, got {waited:?}"
        );
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(250),
            "the waiter must give up well before the 300ms adapt settles"
        );
        leader.join().unwrap().unwrap();
        // The leader's work was not wasted: the retry is a plain hit.
        let (_, l) = cache
            .get_or_adapt(&k, || panic!("must not re-adapt"))
            .unwrap();
        assert_eq!(l, Lookup::Hit);
        assert_eq!(cache.stats().wait_timeouts, 1);
    }

    #[test]
    fn leader_panic_settles_waiters_with_a_typed_error() {
        let cache = Arc::new(PhiCache::new(CachePolicy::lru(4), Tracer::disabled()).unwrap());
        let k = key("boom");
        let gate = Arc::new(std::sync::Barrier::new(2));
        let leader = {
            let cache = Arc::clone(&cache);
            let k = k.clone();
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                cache.get_or_adapt(&k, || {
                    gate.wait();
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("adapt blew up");
                })
            })
        };
        gate.wait();
        // An unbounded wait must still terminate when the leader dies.
        let waited = cache.get_or_adapt(&k, || Ok(ctx(9.0)));
        assert!(
            matches!(waited, Err(Error::WorkerPanic { .. })),
            "waiter must see the leader's panic as a typed error, got {waited:?}"
        );
        assert!(leader.join().is_err(), "the leader thread panicked");
        // The dead entry was removed: the next lookup adapts fresh.
        let (_, l) = cache.get_or_adapt(&k, || Ok(ctx(1.0))).unwrap();
        assert_eq!(l, Lookup::Cold);
    }

    #[test]
    fn replace_supersedes_the_resident_context() {
        let cache = PhiCache::new(CachePolicy::lru(4), Tracer::disabled()).unwrap();
        let k = key("x");
        let (old, l) = cache.get_or_adapt(&k, || Ok(ctx(0.0))).unwrap();
        assert_eq!(l, Lookup::Cold);
        let newer = Arc::new(ctx(5.0));
        cache.replace(&k, Arc::clone(&newer));
        let (got, l) = cache
            .get_or_adapt(&k, || panic!("must stay resident"))
            .unwrap();
        assert_eq!(l, Lookup::Hit);
        assert!(Arc::ptr_eq(&got, &newer), "lookups see the new revision");
        assert!(!Arc::ptr_eq(&got, &old));
    }

    #[test]
    fn replace_overwrites_the_persisted_phi() {
        let dir = std::env::temp_dir().join(format!("fewner-cache-replace-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache =
            PhiCache::new(CachePolicy::lru(4).persist_dir(&dir), Tracer::disabled()).unwrap();
        let k = key("x");
        cache.get_or_adapt(&k, || Ok(ctx(0.0))).unwrap();
        let path = dir.join(PhiCache::file_name(&k));
        let before = std::fs::read(&path).unwrap();
        cache.replace(&k, Arc::new(ctx(9.0)));
        let after = std::fs::read(&path).unwrap();
        assert_ne!(before, after, "the newer revision must land on disk");
        assert_eq!(cache.stats().persists, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_adapt_is_retried() {
        let cache = PhiCache::new(CachePolicy::lru(4), Tracer::disabled()).unwrap();
        let k = key("x");
        let err = cache.get_or_adapt(&k, || Err(Error::InvalidConfig("no support".into())));
        assert!(err.is_err());
        assert!(!cache.contains(&k), "failed entry must not stay resident");
        let (_, l) = cache.get_or_adapt(&k, || Ok(ctx(1.0))).unwrap();
        assert_eq!(l, Lookup::Cold, "second attempt runs the adapt");
    }
}
