//! φ-cache semantics: LRU eviction order, TTL expiry on a manual clock,
//! bitwise-identical persisted reloads, exactly-once concurrent adapts, and
//! graceful degradation when φ persistence fails.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use fewner_core::{AdaptedCtx, CachePolicy, ServeOptions};
use fewner_obs::{Clock, ManualClock, MemorySink, MonotonicClock, TraceSummary, Tracer};
use fewner_serve::{CacheKey, Lookup, PhiCache};
use fewner_util::fault::{self, FaultPlan};
use fewner_util::{Json, ToJson};

fn key(s: &str) -> CacheKey {
    ("tenant".to_string(), s.to_string())
}

/// A synthetic context (cache semantics don't need a model).
fn ctx(seed: f32) -> AdaptedCtx {
    let mut store = fewner_tensor::ParamStore::new();
    let id = store.add(
        "phi",
        fewner_tensor::Array::from_vec(1, 4, vec![seed, seed * 0.5, -seed, seed + 1.0]),
    );
    let json = Json::Obj(vec![
        ("version".into(), Json::from(2u64)),
        ("n_ways".into(), Json::from(2usize)),
        ("revision".into(), Json::from(1u64)),
        ("phi".into(), store.value(id).to_json()),
        ("support".into(), Json::Arr(Vec::new())),
    ]);
    AdaptedCtx::from_json(&json).expect("ctx")
}

#[test]
fn lru_evicts_least_recently_used_first() {
    let cache = PhiCache::new(CachePolicy::lru(2), Tracer::disabled()).unwrap();
    cache.get_or_adapt(&key("a"), || Ok(ctx(1.0))).unwrap();
    cache.get_or_adapt(&key("b"), || Ok(ctx(2.0))).unwrap();
    // Touch `a` so `b` becomes the LRU entry.
    let (_, l) = cache
        .get_or_adapt(&key("a"), || panic!("a is resident"))
        .unwrap();
    assert_eq!(l, Lookup::Hit);
    // Inserting `c` must evict `b`, not `a`.
    cache.get_or_adapt(&key("c"), || Ok(ctx(3.0))).unwrap();
    assert!(cache.contains(&key("a")), "recently used survives");
    assert!(!cache.contains(&key("b")), "LRU entry evicted");
    assert!(cache.contains(&key("c")));
    let s = cache.stats();
    assert_eq!(s.evictions, 1);
    // And a lookup of `b` is a miss again.
    let (_, l) = cache.get_or_adapt(&key("b"), || Ok(ctx(2.5))).unwrap();
    assert_eq!(l, Lookup::Cold);
}

#[test]
fn ttl_expires_entries_on_the_injected_clock() {
    let clock = Arc::new(ManualClock::starting_at(1_000));
    let cache = PhiCache::with_clock(
        CachePolicy::lru(8).ttl_ns(100),
        Tracer::disabled(),
        clock.clone() as Arc<dyn Clock>,
    )
    .unwrap();
    cache.get_or_adapt(&key("x"), || Ok(ctx(1.0))).unwrap();

    // Within the TTL: still a hit.
    clock.advance(99);
    let (_, l) = cache
        .get_or_adapt(&key("x"), || panic!("not expired yet"))
        .unwrap();
    assert_eq!(l, Lookup::Hit);

    // Past the TTL: the entry is dropped and re-adapted.
    clock.advance(2);
    let (_, l) = cache.get_or_adapt(&key("x"), || Ok(ctx(2.0))).unwrap();
    assert_eq!(l, Lookup::Cold);
    let s = cache.stats();
    assert_eq!(s.expirations, 1);
    assert_eq!(s.misses, 2, "initial adapt + post-expiry adapt");
    assert_eq!(s.hits, 1);
}

#[test]
fn hits_do_not_extend_the_ttl() {
    // TTL measures time since (re-)insertion, not since last use: a key
    // read every nanosecond still expires on schedule.
    let clock = Arc::new(ManualClock::starting_at(0));
    let cache = PhiCache::with_clock(
        CachePolicy::lru(8).ttl_ns(100),
        Tracer::disabled(),
        clock.clone() as Arc<dyn Clock>,
    )
    .unwrap();
    cache.get_or_adapt(&key("x"), || Ok(ctx(1.0))).unwrap();
    for _ in 0..4 {
        clock.advance(25);
        cache.get_or_adapt(&key("x"), || Ok(ctx(9.9))).unwrap();
    }
    // 100ns have elapsed since insertion; the fifth lookup re-adapted.
    assert_eq!(cache.stats().expirations, 1);
}

#[test]
fn persisted_context_reloads_bitwise_identical_to_the_fresh_adapt() {
    let (learner, enc, tasks) = common::tiny();
    let task = &tasks[0];
    let support = common::encode_support(&enc, task);
    let opts = ServeOptions::new();
    let dir = std::env::temp_dir().join(format!("fewner-phi-reload-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let policy = CachePolicy::lru(4).persist_dir(&dir);
    let k = key("genia-task");

    // First boot: cold adapt, persisted on the way.
    let cache1 = PhiCache::new(policy.clone(), Tracer::disabled()).unwrap();
    let (fresh, l) = cache1
        .get_or_adapt(&k, || learner.adapt_support(&support, task.n_ways, &opts))
        .unwrap();
    assert_eq!(l, Lookup::Cold);
    assert_eq!(cache1.stats().persists, 1);
    assert!(cache1.has_persisted(&k));

    // "Restart": a brand-new cache over the same directory. The adapt
    // closure must NOT run — the φ comes back from disk, bitwise equal.
    let cache2 = PhiCache::new(policy, Tracer::disabled()).unwrap();
    let (reloaded, l) = cache2
        .get_or_adapt(&k, || panic!("warm key must not re-adapt"))
        .unwrap();
    assert_eq!(l, Lookup::Warm);
    assert_eq!(
        fresh.phi_values(),
        reloaded.phi_values(),
        "persisted φ must round-trip bitwise"
    );
    assert_eq!(fresh.n_ways(), reloaded.n_ways());
    assert_eq!(cache2.stats().reloads, 1);

    // And the reloaded context decodes exactly like the fresh one.
    let query: Vec<fewner_models::EncodedSentence> =
        task.query.iter().map(|s| enc.encode(&s.tokens)).collect();
    let a = learner.predict(&fresh, &query, &opts).unwrap();
    let b = learner.predict(&reloaded, &query, &opts).unwrap();
    assert_eq!(a, b, "same φ bits ⇒ same predictions");

    // Invalidation removes the durable copy too.
    cache2.invalidate(&k);
    assert!(!cache2.has_persisted(&k));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_lookups_of_one_key_adapt_exactly_once() {
    let cache = Arc::new(PhiCache::new(CachePolicy::lru(4), Tracer::disabled()).unwrap());
    let adapts = Arc::new(AtomicUsize::new(0));
    let n = 8;
    let barrier = Arc::new(Barrier::new(n));
    let k = key("contended");

    let contexts: Vec<Arc<AdaptedCtx>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let adapts = Arc::clone(&adapts);
                let barrier = Arc::clone(&barrier);
                let k = k.clone();
                s.spawn(move || {
                    barrier.wait();
                    let (ctx, _) = cache
                        .get_or_adapt(&k, || {
                            adapts.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window: everyone else must
                            // block on the in-flight cell, not re-adapt.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            Ok(ctx(5.0))
                        })
                        .unwrap();
                    ctx
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(
        adapts.load(Ordering::SeqCst),
        1,
        "single-flight: the inner loop runs once for n concurrent lookups"
    );
    for c in &contexts[1..] {
        assert!(
            Arc::ptr_eq(&contexts[0], c),
            "every waiter shares the same context"
        );
    }
    let s = cache.stats();
    assert_eq!(s.hits + s.misses, n as u64);
    assert_eq!(s.misses, 1, "one miss (the adapter); the rest joined it");
}

/// Shared body for the persist-failure tests: under an armed durable-write
/// fault the cache must (a) keep serving the context from memory, (b) flip
/// into memory-only degraded mode with exactly one `serve/persist_degraded`
/// event, and (c) leave **no** file — torn or otherwise — on disk.
fn degraded_persist_under(plan: &str, tag: &str) {
    let dir = std::env::temp_dir().join(format!("fewner-phi-degrade-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let sink = MemorySink::new();
    let tracer = Tracer::new(MonotonicClock::new(), sink.clone());
    fault::with_plan(FaultPlan::parse(plan).unwrap(), || {
        let cache = PhiCache::new(CachePolicy::lru(4).persist_dir(&dir), tracer.clone()).unwrap();
        let (_c, l) = cache.get_or_adapt(&key("k"), || Ok(ctx(1.0))).unwrap();
        assert_eq!(l, Lookup::Cold, "the adapt itself must succeed");

        // The context stays served from memory even though the write failed.
        let (_c, l) = cache
            .get_or_adapt(&key("k"), || panic!("resident context must not re-adapt"))
            .unwrap();
        assert_eq!(l, Lookup::Hit);

        assert!(cache.is_persist_degraded(), "first failure flips the mode");
        assert_eq!(cache.stats().persists, 0, "nothing counted as persisted");
        assert!(!cache.has_persisted(&key("k")), "no durable copy claimed");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .map(|d| d.filter_map(|e| e.ok()).map(|e| e.file_name()).collect())
            .unwrap_or_default();
        assert!(
            leftovers.is_empty(),
            "torn file left on disk: {leftovers:?}"
        );

        // Degraded mode is sticky: later adapts skip the disk entirely
        // (the armed fault fires once, so a second attempt would succeed —
        // proving the skip is deliberate, not another failure).
        cache.get_or_adapt(&key("k2"), || Ok(ctx(2.0))).unwrap();
        assert!(!cache.has_persisted(&key("k2")));
        assert_eq!(cache.stats().persists, 0);
    });
    tracer.flush().unwrap();
    let summary = TraceSummary::parse(&sink.text()).unwrap();
    assert_eq!(
        summary.events.get("serve/persist_degraded").copied(),
        Some(1),
        "exactly one degradation event, however many persists were skipped"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persist_write_failure_degrades_to_memory_only() {
    degraded_persist_under("ckpt_write_fail:1", "fail");
}

#[test]
fn persist_truncation_leaves_no_torn_file_and_degrades() {
    degraded_persist_under("ckpt_truncate:1", "truncate");
}
