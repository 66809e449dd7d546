//! The serving surface: adapt once, predict many times.
//!
//! The paper's cost argument (§4.5.2) is that adapting the low-dimensional
//! context parameters φ is cheap *relative to training* — which only pays
//! off operationally if an adapted φ is **reused** across requests instead
//! of recomputed per call. This module makes that reuse structural:
//!
//! * [`Fewner::adapt`](crate::Fewner::adapt) runs the inner loop once and returns an
//!   [`AdaptedCtx`] — a first-class, serialisable handle to the adapted φ.
//! * [`Fewner::predict`](crate::Fewner::predict) decodes any number of query sentences under a
//!   borrowed [`AdaptedCtx`] on the gradient-free `Infer` executor.
//! * [`ServeOptions`] carries the cross-cutting serving knobs (tracer,
//!   cache policy, micro-batch size) so entry points stay stable as knobs
//!   accrue.
//!
//! The split is the cache boundary the `fewner-serve` daemon builds on: an
//! `AdaptedCtx` can be held in an LRU cache keyed by `(tenant, task)`,
//! persisted through the durable-write layer, and reloaded after a restart
//! bitwise-identically — a reloaded context decodes exactly like the fresh
//! adapt that produced it.

use std::path::{Path, PathBuf};

use fewner_models::LabeledSentence;
use fewner_obs::Tracer;
use fewner_tensor::{Array, ParamId, ParamStore};
use fewner_text::TagSet;
use fewner_util::{Deadline, Error, FromJson, Json, Result, ToJson};

/// Eviction and persistence policy for an adapted-context (φ) cache.
///
/// Plain data: the policy lives here so every layer (core API, serving
/// daemon, CLI flags) speaks the same vocabulary; the cache *mechanism*
/// lives in `fewner-serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct CachePolicy {
    /// Maximum resident contexts before least-recently-used eviction.
    pub capacity: usize,
    /// Time-to-live in nanoseconds; `None` = contexts never expire.
    pub ttl_ns: Option<u64>,
    /// Directory for durable φ persistence; `None` = memory only.
    pub persist_dir: Option<PathBuf>,
}

impl CachePolicy {
    /// An LRU policy holding at most `capacity` contexts (≥ 1 enforced),
    /// with no TTL and no persistence.
    pub fn lru(capacity: usize) -> CachePolicy {
        CachePolicy {
            capacity: capacity.max(1),
            ttl_ns: None,
            persist_dir: None,
        }
    }

    /// Expires contexts `secs` seconds after (re-)insertion.
    pub fn ttl_secs(mut self, secs: u64) -> CachePolicy {
        self.ttl_ns = Some(secs.saturating_mul(1_000_000_000));
        self
    }

    /// Expires contexts `ns` nanoseconds after (re-)insertion (tests drive
    /// this with a manual clock).
    pub fn ttl_ns(mut self, ns: u64) -> CachePolicy {
        self.ttl_ns = Some(ns);
        self
    }

    /// Persists adapted contexts under `dir` so a restarted server can skip
    /// re-adaptation for warm keys.
    pub fn persist_dir(mut self, dir: impl Into<PathBuf>) -> CachePolicy {
        self.persist_dir = Some(dir.into());
        self
    }
}

impl Default for CachePolicy {
    /// 64 resident contexts, no TTL, no persistence.
    fn default() -> CachePolicy {
        CachePolicy::lru(64)
    }
}

/// Builder-style options shared by every serving entry point.
///
/// ```
/// use fewner_core::serve::{CachePolicy, ServeOptions};
/// let opts = ServeOptions::new()
///     .cache(CachePolicy::lru(128).ttl_secs(300))
///     .batch(64);
/// assert_eq!(opts.batch_size(), 64);
/// ```
#[derive(Clone, Default)]
pub struct ServeOptions {
    tracer: Tracer,
    cache: CachePolicy,
    batch: usize,
    deadline: Option<Deadline>,
}

impl ServeOptions {
    /// Defaults: disabled tracer, [`CachePolicy::default`], micro-batches
    /// of up to 32 sentences, no deadline.
    pub fn new() -> ServeOptions {
        ServeOptions {
            tracer: Tracer::disabled(),
            cache: CachePolicy::default(),
            batch: 32,
            deadline: None,
        }
    }

    /// Routes serve spans and counters through `tracer`.
    pub fn tracer(mut self, tracer: Tracer) -> ServeOptions {
        self.tracer = tracer;
        self
    }

    /// Sets the φ-cache policy.
    pub fn cache(mut self, cache: CachePolicy) -> ServeOptions {
        self.cache = cache;
        self
    }

    /// Caps cross-request micro-batches at `n` sentences (≥ 1 enforced).
    pub fn batch(mut self, n: usize) -> ServeOptions {
        self.batch = n.max(1);
        self
    }

    /// The tracer serving code records through.
    pub fn tracer_ref(&self) -> &Tracer {
        &self.tracer
    }

    /// The φ-cache policy.
    pub fn cache_policy(&self) -> &CachePolicy {
        &self.cache
    }

    /// Maximum sentences per micro-batch.
    pub fn batch_size(&self) -> usize {
        self.batch.max(1)
    }

    /// A per-request copy of these options carrying `deadline`. The daemon
    /// clones its base options per request so the long-lived configuration
    /// stays immutable while the budget travels with the work.
    pub fn with_deadline(&self, deadline: Option<Deadline>) -> ServeOptions {
        let mut opts = self.clone();
        opts.deadline = deadline;
        opts
    }

    /// The active request's time budget, if any.
    pub fn deadline(&self) -> Option<&Deadline> {
        self.deadline.as_ref()
    }
}

/// Format version of persisted adapted contexts. Version 2 added the
/// `revision` counter and the retained support set behind incremental
/// [`Fewner::extend`]; version-1 files still load (empty retained support,
/// revision 1).
///
/// [`Fewner::extend`]: crate::Fewner::extend
pub const ADAPTED_CTX_VERSION: u32 = 2;

/// An adapted task context: the φ produced by the inner loop, packaged as a
/// first-class value.
///
/// This is the unit the serving daemon caches, persists, and shares across
/// requests. It is deliberately *small* — for the paper's configurations φ
/// is a few hundred floats — which is what makes caching millions of task
/// contexts plausible where caching full models is not.
///
/// A context also remembers the (encoded) support set it was adapted on and
/// a monotonically increasing `revision`, so arriving support can be folded
/// in incrementally: [`Fewner::extend`] warm-starts from the current φ over
/// the merged support and returns a successor context with `revision + 1`.
///
/// [`Fewner::extend`]: crate::Fewner::extend
#[derive(Debug, Clone)]
pub struct AdaptedCtx {
    n_ways: usize,
    phi_store: ParamStore,
    phi_id: ParamId,
    revision: u32,
    support: Vec<LabeledSentence>,
}

impl AdaptedCtx {
    /// Packages an adapted φ store (one `"phi"` parameter) with its task
    /// arity, the support it was adapted on, and its revision number.
    pub(crate) fn new(
        n_ways: usize,
        phi_store: ParamStore,
        phi_id: ParamId,
        support: Vec<LabeledSentence>,
        revision: u32,
    ) -> AdaptedCtx {
        AdaptedCtx {
            n_ways,
            phi_store,
            phi_id,
            revision,
            support,
        }
    }

    /// The task's way count (fixes the tag inventory).
    pub fn n_ways(&self) -> usize {
        self.n_ways
    }

    /// How many times this context has been (re-)adapted: `1` for a fresh
    /// adapt, incremented by every [`Fewner::extend`].
    ///
    /// [`Fewner::extend`]: crate::Fewner::extend
    pub fn revision(&self) -> u32 {
        self.revision
    }

    /// The encoded support set the current φ was adapted on (merged across
    /// every extension). Version-1 files reload with this empty — such a
    /// context still predicts bitwise-identically, but an extension starts
    /// its merged support from the new arrivals alone.
    pub fn support(&self) -> &[LabeledSentence] {
        &self.support
    }

    /// The task's BIO tag inventory (`2N + 1` tags).
    pub fn tag_set(&self) -> TagSet {
        TagSet::new(self.n_ways).expect("AdaptedCtx has ≥ 1 way")
    }

    /// The φ parameter binding, in the shape `Backbone::decode_task` takes.
    pub fn phi(&self) -> (&ParamStore, ParamId) {
        (&self.phi_store, self.phi_id)
    }

    /// The raw φ values (tests use this to pin bitwise identity).
    pub fn phi_values(&self) -> &[f32] {
        self.phi_store.value(self.phi_id).data()
    }

    /// Serialises the context (version, way count, revision, φ tensor and
    /// retained support).
    pub fn to_json(&self) -> Json {
        let phi = self.phi_store.value(self.phi_id);
        Json::Obj(vec![
            ("version".into(), Json::from(ADAPTED_CTX_VERSION as u64)),
            ("n_ways".into(), Json::from(self.n_ways)),
            ("revision".into(), Json::from(self.revision as u64)),
            ("phi".into(), phi.to_json()),
            (
                "support".into(),
                Json::Arr(self.support.iter().map(labeled_to_json).collect()),
            ),
        ])
    }

    /// Deserialises a context written by [`AdaptedCtx::to_json`]. The φ
    /// values round-trip bitwise; shape compatibility with a particular
    /// model is checked at [`Fewner::predict`](crate::Fewner::predict)
    /// time, not here. Version-1 files (no revision, no retained support)
    /// load as revision 1 with an empty support set.
    pub fn from_json(json: &Json) -> Result<AdaptedCtx> {
        let version = json.field("version")?.as_u64()? as u32;
        if version == 0 || version > ADAPTED_CTX_VERSION {
            return Err(Error::Serde(format!(
                "unsupported adapted-context version {version} (expected 1..={ADAPTED_CTX_VERSION})"
            )));
        }
        let n_ways = json.field("n_ways")?.as_usize()?;
        if n_ways == 0 {
            return Err(Error::Serde("adapted context with 0 ways".into()));
        }
        let phi = Array::from_json(json.field("phi")?)?;
        let mut phi_store = ParamStore::new();
        let phi_id = phi_store.add("phi", phi);
        let (revision, support) = if version >= 2 {
            let revision = json.field("revision")?.as_u64()? as u32;
            if revision == 0 {
                return Err(Error::Serde("adapted context with revision 0".into()));
            }
            let support = json
                .field("support")?
                .as_arr()?
                .iter()
                .map(labeled_from_json)
                .collect::<Result<Vec<_>>>()?;
            (revision, support)
        } else {
            (1, Vec::new())
        };
        Ok(AdaptedCtx {
            n_ways,
            phi_store,
            phi_id,
            revision,
            support,
        })
    }

    /// Writes the context durably (CRC-framed, atomic rename) so a
    /// restarted server can reload it instead of re-adapting.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        fewner_util::durable::write_atomic(path, self.to_json().to_string().as_bytes())
    }

    /// Reads a context written by [`AdaptedCtx::save`], verifying the frame
    /// before parsing. The reloaded φ is bitwise identical to the saved one.
    pub fn load(path: impl AsRef<Path>) -> Result<AdaptedCtx> {
        let text = fewner_util::durable::read_verified_string(path)?;
        AdaptedCtx::from_json(&Json::parse(&text)?)
    }
}

/// Serialises one encoded support sentence (`word_ids`, `char_ids`, tag
/// indices) — ids, not surface text: the context is only meaningful against
/// the encoder it was adapted under, same as φ itself.
fn labeled_to_json((enc, tags): &LabeledSentence) -> Json {
    let ids = |v: &[usize]| Json::Arr(v.iter().map(|&i| Json::from(i)).collect());
    Json::Obj(vec![
        ("words".into(), ids(&enc.word_ids)),
        (
            "chars".into(),
            Json::Arr(enc.char_ids.iter().map(|c| ids(c)).collect()),
        ),
        ("tags".into(), ids(tags)),
    ])
}

fn labeled_from_json(json: &Json) -> Result<LabeledSentence> {
    fn ids(json: &Json) -> Result<Vec<usize>> {
        json.as_arr()?.iter().map(Json::as_usize).collect()
    }
    let word_ids = ids(json.field("words")?)?;
    let char_ids = json
        .field("chars")?
        .as_arr()?
        .iter()
        .map(ids)
        .collect::<Result<Vec<_>>>()?;
    let tags = ids(json.field("tags")?)?;
    if word_ids.len() != char_ids.len() || word_ids.len() != tags.len() {
        return Err(Error::Serde(format!(
            "retained support sentence has {} words, {} char rows, {} tags",
            word_ids.len(),
            char_ids.len(),
            tags.len()
        )));
    }
    Ok((fewner_models::EncodedSentence { word_ids, char_ids }, tags))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_policy_builder_composes() {
        let p = CachePolicy::lru(8).ttl_secs(2).persist_dir("/tmp/phis");
        assert_eq!(p.capacity, 8);
        assert_eq!(p.ttl_ns, Some(2_000_000_000));
        assert_eq!(p.persist_dir.as_deref(), Some(Path::new("/tmp/phis")));
        assert_eq!(CachePolicy::lru(0).capacity, 1, "capacity floor");
    }

    #[test]
    fn serve_options_enforce_floors() {
        let o = ServeOptions::new().batch(0);
        assert_eq!(o.batch_size(), 1);
        assert!(!o.tracer_ref().enabled());
        assert_eq!(o.cache_policy().capacity, 64);
        assert!(o.deadline().is_none());
    }

    #[test]
    fn with_deadline_is_a_per_request_copy() {
        let base = ServeOptions::new().batch(16);
        let scoped = base.with_deadline(Some(Deadline::from_ms(500)));
        assert!(base.deadline().is_none(), "base options stay deadline-free");
        assert_eq!(scoped.deadline().map(|d| d.budget_ms()), Some(500));
        assert_eq!(scoped.batch_size(), 16, "other knobs carry over");
        assert!(scoped.with_deadline(None).deadline().is_none());
    }

    fn sentence(words: Vec<usize>, tags: Vec<usize>) -> LabeledSentence {
        let char_ids = words.iter().map(|&w| vec![w, w + 1]).collect();
        (
            fewner_models::EncodedSentence {
                word_ids: words,
                char_ids,
            },
            tags,
        )
    }

    #[test]
    fn adapted_ctx_json_round_trip_is_bitwise() {
        let mut store = ParamStore::new();
        let id = store.add(
            "phi",
            Array::from_vec(1, 5, vec![0.1, -2.5e-8, 3.25, f32::MIN_POSITIVE, 0.0]),
        );
        let support = vec![sentence(vec![4, 7], vec![1, 0])];
        let ctx = AdaptedCtx::new(3, store, id, support.clone(), 5);
        let back = AdaptedCtx::from_json(&ctx.to_json()).unwrap();
        assert_eq!(back.n_ways(), 3);
        assert_eq!(back.phi_values(), ctx.phi_values());
        assert_eq!(back.tag_set().len(), 7);
        assert_eq!(back.revision(), 5);
        assert_eq!(back.support(), &support[..]);
    }

    #[test]
    fn version_1_contexts_still_load() {
        let mut store = ParamStore::new();
        let id = store.add("phi", Array::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let v1 = Json::Obj(vec![
            ("version".into(), Json::from(1u64)),
            ("n_ways".into(), Json::from(2usize)),
            ("phi".into(), store.value(id).to_json()),
        ]);
        let ctx = AdaptedCtx::from_json(&v1).unwrap();
        assert_eq!(ctx.n_ways(), 2);
        assert_eq!(ctx.phi_values(), &[1.0, 2.0, 3.0]);
        assert_eq!(ctx.revision(), 1, "v1 contexts report revision 1");
        assert!(ctx.support().is_empty(), "v1 retained no support");
    }

    #[test]
    fn malformed_retained_support_is_rejected() {
        let mut store = ParamStore::new();
        let id = store.add("phi", Array::zeros(1, 2));
        let ctx = AdaptedCtx::new(2, store, id, vec![sentence(vec![1], vec![0])], 1);
        let mut json = ctx.to_json();
        if let Json::Obj(fields) = &mut json {
            // One tag too many for the single-token sentence.
            fields[4].1 = Json::Arr(vec![Json::Obj(vec![
                ("words".into(), Json::Arr(vec![Json::from(1usize)])),
                (
                    "chars".into(),
                    Json::Arr(vec![Json::Arr(vec![Json::from(1usize)])]),
                ),
                (
                    "tags".into(),
                    Json::Arr(vec![Json::from(0usize), Json::from(0usize)]),
                ),
            ])]);
        }
        assert!(matches!(AdaptedCtx::from_json(&json), Err(Error::Serde(_))));
    }

    #[test]
    fn adapted_ctx_file_round_trip_and_corruption() {
        let dir = std::env::temp_dir().join(format!("fewner-actx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ctx.phi");
        let mut store = ParamStore::new();
        let id = store.add("phi", Array::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let ctx = AdaptedCtx::new(2, store, id, vec![sentence(vec![3], vec![1])], 2);
        ctx.save(&path).unwrap();
        let back = AdaptedCtx::load(&path).unwrap();
        assert_eq!(back.phi_values(), ctx.phi_values());
        assert_eq!((back.revision(), back.support().len()), (2, 1));

        // A flipped byte is caught by the durable frame, not the parser.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(AdaptedCtx::load(&path), Err(Error::Io { .. })));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn wrong_version_and_zero_ways_are_rejected() {
        let mut store = ParamStore::new();
        let id = store.add("phi", Array::zeros(1, 2));
        let ctx = AdaptedCtx::new(1, store, id, Vec::new(), 1);
        let mut json = ctx.to_json();
        if let Json::Obj(fields) = &mut json {
            fields[0].1 = Json::from(99u64);
        }
        assert!(AdaptedCtx::from_json(&json).is_err());

        let mut json = ctx.to_json();
        if let Json::Obj(fields) = &mut json {
            fields[1].1 = Json::from(0usize);
        }
        assert!(AdaptedCtx::from_json(&json).is_err());
    }
}
