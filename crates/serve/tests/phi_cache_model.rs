//! Model-based checks of `PhiCache`.
//!
//! The sequential part runs seeded random op sequences — lookups that adapt
//! (or fail to) or hit, `replace`, `invalidate`, clock advances past the
//! TTL, capacity evictions and one `ckpt_write_fail` persist failure —
//! against a reference model: a map with recency ticks and expiry
//! instants, the persisted revisions on disk and a degraded flag. Every
//! returned `Lookup`, revision and `stats()` counter must match the model.
//!
//! The threaded part runs seeded sequences from several threads on a few
//! keys and checks what a sequential model cannot: each resident key's
//! context came from exactly one adapt, every lookup of a key saw that one
//! context, and the final counters equal the sum of the observed outcomes.
//!
//! The persist failure is armed process-wide, so these tests live in their
//! own binary: no other test's durable write can consume or trip it.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use fewner_core::{AdaptedCtx, CachePolicy};
use fewner_obs::{Clock, ManualClock, Tracer};
use fewner_serve::{CacheKey, CacheStats, Lookup, PhiCache};
use fewner_tensor::Array;
use fewner_util::fault::{self, FaultPlan};
use fewner_util::{Error, Json, Rng, ToJson};

const KEYS: [&str; 5] = ["a", "b", "c", "d", "e"];
const CAPACITY: usize = 3;
const TTL_NS: u64 = 100;

fn key(k: &str) -> CacheKey {
    ("tenant".to_string(), k.to_string())
}

/// A synthetic context whose revision identifies the adapt or replace that
/// produced it (cache semantics don't need a model).
fn ctx(revision: u32) -> AdaptedCtx {
    let json = Json::Obj(vec![
        ("version".into(), Json::from(2u64)),
        ("n_ways".into(), Json::from(2usize)),
        ("revision".into(), Json::from(revision as u64)),
        (
            "phi".into(),
            Array::from_vec(1, 2, vec![revision as f32, 0.5]).to_json(),
        ),
        ("support".into(), Json::Arr(Vec::new())),
    ]);
    AdaptedCtx::from_json(&json).expect("ctx")
}

struct Entry {
    revision: u32,
    last_used: u64,
    expires_at: Option<u64>,
}

/// The sequential reference: what a `PhiCache` with a persistence
/// directory should do, one op at a time.
struct Model {
    ttl_ns: Option<u64>,
    now: u64,
    tick: u64,
    map: BTreeMap<String, Entry>,
    /// Revision of each key's persisted φ.
    disk: BTreeMap<String, u32>,
    degraded: bool,
    /// Durable writes attempted so far, and the one the armed fault fails.
    writes: u64,
    fail_at: u64,
    stats: CacheStats,
}

/// What a lookup returned: the context's revision and how it was obtained,
/// or a failed adapt.
type Outcome = Option<(u32, Lookup)>;

impl Model {
    fn lookup(&mut self, k: &str, fresh: u32, adapt_fails: bool) -> Outcome {
        self.tick += 1;
        if let Some(e) = self.map.get_mut(k) {
            if e.expires_at.is_none_or(|t| self.now < t) {
                e.last_used = self.tick;
                self.stats.hits += 1;
                return Some((e.revision, Lookup::Hit));
            }
            self.map.remove(k);
            self.stats.expirations += 1;
        }
        self.install(k, 0);
        self.stats.misses += 1;
        let (revision, lookup) = if let Some(&revision) = self.disk.get(k) {
            self.stats.reloads += 1;
            (revision, Lookup::Warm)
        } else if adapt_fails {
            self.map.remove(k);
            return None;
        } else {
            if self.persist(k, fresh) {
                self.stats.persists += 1;
            }
            (fresh, Lookup::Cold)
        };
        self.map.get_mut(k).expect("just installed").revision = revision;
        Some((revision, lookup))
    }

    fn replace(&mut self, k: &str, revision: u32) {
        if self.persist(k, revision) {
            self.stats.persists += 1;
        }
        self.tick += 1;
        self.install(k, revision);
    }

    fn invalidate(&mut self, k: &str) {
        self.map.remove(k);
        self.disk.remove(k);
    }

    /// Inserts `k` as most recently used, then evicts least recently used
    /// other keys down to capacity.
    fn install(&mut self, k: &str, revision: u32) {
        let entry = Entry {
            revision,
            last_used: self.tick,
            expires_at: self.ttl_ns.map(|t| self.now + t),
        };
        self.map.insert(k.to_string(), entry);
        while self.map.len() > CAPACITY {
            let victim = self
                .map
                .iter()
                .filter(|(other, _)| other.as_str() != k)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(other, _)| other.clone())
                .expect("another key to evict");
            self.map.remove(&victim);
            self.stats.evictions += 1;
        }
    }

    /// One persist: the disk ends up holding `revision` or nothing for `k`,
    /// never an older revision. The first failure degrades the cache.
    fn persist(&mut self, k: &str, revision: u32) -> bool {
        if !self.degraded {
            self.writes += 1;
            if self.writes != self.fail_at {
                self.disk.insert(k.to_string(), revision);
                return true;
            }
            self.degraded = true;
        }
        self.disk.remove(k);
        false
    }
}

fn scratch_dir(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fewner-phi-model-{tag}-{}-{seed}",
        std::process::id()
    ))
}

/// One seeded sequence of `ops` ops against a fresh cache and model.
fn run_sequence(seed: u64, ops: usize) {
    let mut rng = Rng::new(seed);
    let ttl_ns = (!seed.is_multiple_of(3)).then_some(TTL_NS);
    let fail_at = 1 + rng.below(32) as u64;
    let dir = scratch_dir("seq", seed);
    std::fs::remove_dir_all(&dir).ok();
    let clock = Arc::new(ManualClock::starting_at(0));
    let mut policy = CachePolicy::lru(CAPACITY).persist_dir(&dir);
    if let Some(t) = ttl_ns {
        policy = policy.ttl_ns(t);
    }
    let cache =
        PhiCache::with_clock(policy, Tracer::disabled(), clock.clone() as Arc<dyn Clock>).unwrap();
    let mut model = Model {
        ttl_ns,
        now: 0,
        tick: 0,
        map: BTreeMap::new(),
        disk: BTreeMap::new(),
        degraded: false,
        writes: 0,
        fail_at,
        stats: CacheStats::default(),
    };
    let mut next_revision = 1;
    let plan = FaultPlan::parse(&format!("ckpt_write_fail:{fail_at}")).unwrap();
    fault::with_plan(plan, || {
        for step in 0..ops {
            let k = KEYS[rng.below(KEYS.len())];
            let what = format!("seed {seed} step {step}");
            match rng.below(20) {
                0..=9 => {
                    let fresh = next_revision;
                    next_revision += 1;
                    let adapt_fails = rng.below(8) == 0;
                    let ran = std::cell::Cell::new(false);
                    let got = cache.get_or_adapt(&key(k), || {
                        ran.set(true);
                        if adapt_fails {
                            Err(Error::InvalidConfig("adapt failed".into()))
                        } else {
                            Ok(ctx(fresh))
                        }
                    });
                    let want = model.lookup(k, fresh, adapt_fails);
                    let got = got.ok().map(|(c, l)| (c.revision(), l));
                    assert_eq!(got, want, "{what}: lookup of `{k}`");
                    let adapted = matches!(want, None | Some((_, Lookup::Cold)));
                    assert_eq!(ran.get(), adapted, "{what}: adapt of `{k}` ran");
                }
                10..=12 => {
                    let revision = next_revision;
                    next_revision += 1;
                    cache.replace(&key(k), Arc::new(ctx(revision)));
                    model.replace(k, revision);
                }
                13..=14 => {
                    cache.invalidate(&key(k));
                    model.invalidate(k);
                }
                _ => {
                    let ns = if rng.below(3) == 0 {
                        TTL_NS + 1
                    } else {
                        1 + rng.below(30) as u64
                    };
                    clock.advance(ns);
                    model.now += ns;
                }
            }
            assert_eq!(cache.stats(), model.stats, "{what}: stats");
            assert_eq!(cache.is_persist_degraded(), model.degraded, "{what}");
            for k in KEYS {
                let resident = model.map.contains_key(k);
                assert_eq!(cache.contains(&key(k)), resident, "{what}: `{k}` resident");
                let on_disk = model.disk.contains_key(k);
                assert_eq!(
                    cache.has_persisted(&key(k)),
                    on_disk,
                    "{what}: `{k}` on disk"
                );
            }
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seeded_op_sequences_match_the_reference_model() {
    for seed in 0..24 {
        run_sequence(seed, 150);
    }
}

/// What one thread saw: hits and misses as the cache counts them, and the
/// revision of every context a lookup of each key returned.
#[derive(Default)]
struct Observed {
    hits: u64,
    misses: u64,
    revisions: BTreeMap<usize, Vec<u32>>,
}

#[test]
fn concurrent_sequences_adapt_each_resident_key_once_and_count_every_outcome() {
    const THREADS: u64 = 4;
    const KEYS_USED: usize = 3;
    for seed in 0..8u64 {
        // Capacity above the key count and no TTL: once a key's adapt
        // succeeds, it stays resident for the rest of the run.
        let cache = PhiCache::new(CachePolicy::lru(8), Tracer::disabled()).unwrap();
        let successful_adapts: Vec<AtomicUsize> =
            (0..KEYS_USED).map(|_| AtomicUsize::new(0)).collect();
        let next_revision = AtomicUsize::new(1);
        let observed = Mutex::new(Observed::default());
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (cache, adapts) = (&cache, &successful_adapts);
                let (next_revision, observed) = (&next_revision, &observed);
                let start = &start;
                s.spawn(move || {
                    let mut rng = Rng::new(seed * THREADS + t);
                    start.wait();
                    let mut mine = Observed::default();
                    for _ in 0..40 {
                        let ki = rng.below(KEYS_USED);
                        let adapt_fails = rng.below(5) == 0;
                        let mut ran = false;
                        let got = cache.get_or_adapt(&key(KEYS[ki]), || {
                            ran = true;
                            // Widen the window in which other threads join
                            // this flight.
                            std::thread::sleep(std::time::Duration::from_micros(300));
                            if adapt_fails {
                                return Err(Error::InvalidConfig("adapt failed".into()));
                            }
                            adapts[ki].fetch_add(1, Ordering::SeqCst);
                            let revision = next_revision.fetch_add(1, Ordering::SeqCst);
                            Ok(ctx(revision as u32))
                        });
                        // The leader's lookup is the miss; joining a flight,
                        // failed or not, is a hit.
                        if ran {
                            mine.misses += 1;
                        } else {
                            mine.hits += 1;
                        }
                        if let Ok((c, lookup)) = got {
                            assert_eq!(lookup == Lookup::Cold, ran, "seed {seed}");
                            mine.revisions.entry(ki).or_default().push(c.revision());
                        }
                    }
                    let mut all = observed.lock().unwrap();
                    all.hits += mine.hits;
                    all.misses += mine.misses;
                    for (ki, revisions) in mine.revisions {
                        all.revisions.entry(ki).or_default().extend(revisions);
                    }
                });
            }
        });
        let observed = observed.into_inner().unwrap();
        for (ki, adapts) in successful_adapts.iter().enumerate() {
            let adapts = adapts.load(Ordering::SeqCst);
            let resident = cache.contains(&key(KEYS[ki]));
            assert_eq!(
                (resident, adapts),
                (adapts > 0, usize::from(resident)),
                "seed {seed} key `{}`: a resident key is adapted exactly once",
                KEYS[ki]
            );
            let seen = observed.revisions.get(&ki).map_or(&[][..], Vec::as_slice);
            assert!(
                seen.windows(2).all(|w| w[0] == w[1]),
                "seed {seed} key `{}`: every lookup shares one context, saw {seen:?}",
                KEYS[ki]
            );
        }
        let want = CacheStats {
            hits: observed.hits,
            misses: observed.misses,
            ..CacheStats::default()
        };
        assert_eq!(cache.stats(), want, "seed {seed}");
    }
}
