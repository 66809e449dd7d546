//! Every persisted document has one layout, and its reader refuses a
//! document that lacks any field of it instead of filling in a default.
//!
//! Each document comes from the program's own writer: a checkpoint, an
//! adapted φ and a training snapshot. One object field at a time is deleted,
//! at any depth, and the reader must fail. A format version or revision past
//! `u32::MAX` must fail too, not wrap around to a small number.

use fewner::core::snapshot::SNAPSHOT_VERSION;
use fewner::core::{
    AdaptedCtx, Checkpoint, RunFingerprint, SecondOrder, StreamFingerprint, TrainingSnapshot,
};
use fewner::corpus::StreamCursor;
use fewner::prelude::*;
use fewner::util::{FromJson, Json, ToJson};

/// 2³² + 1: read as a `u32` by truncation, it would be 1.
const PAST_U32: u64 = (1 << 32) + 1;

/// The dotted name and index path of every object field in `json`'s
/// layout. The elements of an array share one layout, so only the first is
/// entered; a field named in `opaque` is listed but not entered.
fn fields(json: &Json, opaque: &[&str]) -> Vec<(String, Vec<usize>)> {
    let nested = |i: usize, name: &str, inner: &Json| {
        fields(inner, opaque)
            .into_iter()
            .map(move |(n, path)| (format!("{name}.{n}"), [vec![i], path].concat()))
            .collect::<Vec<_>>()
    };
    match json {
        Json::Obj(entries) => entries
            .iter()
            .enumerate()
            .flat_map(|(i, (key, value))| {
                let inner = if opaque.contains(&key.as_str()) {
                    Vec::new()
                } else {
                    nested(i, key, value)
                };
                std::iter::once((key.clone(), vec![i])).chain(inner)
            })
            .collect(),
        Json::Arr(items) => items
            .first()
            .map_or_else(Vec::new, |first| nested(0, "[0]", first)),
        _ => Vec::new(),
    }
}

/// Deletes the object field at the end of `path`.
fn remove_at(json: &mut Json, path: &[usize]) {
    match (json, path) {
        (Json::Obj(entries), [i]) => {
            entries.remove(*i);
        }
        (Json::Obj(entries), [i, rest @ ..]) => remove_at(&mut entries[*i].1, rest),
        (Json::Arr(items), [i, rest @ ..]) => remove_at(&mut items[*i], rest),
        _ => unreachable!("paths come from `fields`"),
    }
}

/// Asserts `read` accepts `json` and refuses it with any one field of its
/// layout deleted; returns the names of the fields checked.
fn assert_every_field_required<T>(
    json: &Json,
    opaque: &[&str],
    read: impl Fn(&Json) -> fewner::Result<T>,
) -> Vec<String> {
    assert!(read(json).is_ok(), "the written document must load");
    let fields = fields(json, opaque);
    for (name, path) in &fields {
        let mut doc = json.clone();
        remove_at(&mut doc, path);
        assert!(read(&doc).is_err(), "a document without `{name}` loaded");
    }
    fields.into_iter().map(|(name, _)| name).collect()
}

/// `json` with its top-level `key` set to `value`.
fn with_field(json: &Json, key: &str, value: u64) -> Json {
    let mut json = json.clone();
    let Json::Obj(entries) = &mut json else {
        panic!("a persisted document is an object");
    };
    entries.iter_mut().find(|(k, _)| k == key).unwrap().1 = Json::from(value);
    json
}

/// An untrained FiLM learner with the finite-difference meta-gradient (so
/// `second_order` is an object), its encoder, and one 3-way 1-shot task.
fn learner_and_task() -> (Fewner, TokenEncoder, Task) {
    let data = DatasetProfile::bionlp13cg().generate(0.02).unwrap();
    let split = split_types(&data, (8, 3, 5), 42).unwrap();
    let spec = EmbeddingSpec {
        dim: 8,
        ..EmbeddingSpec::default()
    };
    let enc = TokenEncoder::build(&[&data], &spec, 4);
    let bb = BackboneConfig {
        word_dim: 8,
        char_dim: 4,
        char_filters: 4,
        hidden: 6,
        phi_dim: 4,
        slot_ctx_dim: 2,
        ..BackboneConfig::default_for(3)
    };
    let meta = MetaConfig {
        second_order: SecondOrder::FiniteDiffHvp { epsilon: 1e-2 },
        ..MetaConfig::default()
    };
    let learner = Fewner::new(bb, &enc, meta).unwrap();
    let task = EpisodeSampler::new(&split.test, 3, 1, 4)
        .unwrap()
        .eval_set(11, 1)
        .unwrap()
        .remove(0);
    (learner, enc, task)
}

fn snapshot(sharded_stream: bool) -> TrainingSnapshot {
    TrainingSnapshot {
        version: SNAPSHOT_VERSION,
        iteration: 6,
        sampler_rng: Rng::new(7),
        losses: vec![1.5, 0.75],
        tasks_seen: 24,
        skipped: 1,
        consecutive_skips: 0,
        next_decay: 5000,
        wall_secs: 2.5,
        shard: sharded_stream.then_some(1),
        stream_cursor: sharded_stream.then_some(StreamCursor { chunk: 17, pos: 3 }),
        fingerprint: RunFingerprint {
            learner: "FewNER".into(),
            n_ways: 3,
            k_shots: 1,
            query_size: 4,
            seed: 9,
            meta_batch: 4,
            shards: if sharded_stream { 2 } else { 1 },
            stream: sharded_stream.then_some(StreamFingerprint {
                sentences: 6000,
                chunk_size: 128,
                window: 512,
                stride: 64,
            }),
        },
        learner: Json::Obj(vec![("theta".into(), Json::Arr(Vec::new()))]),
    }
}

#[test]
fn a_checkpoint_missing_any_field_is_refused() {
    let (learner, _, _) = learner_and_task();
    let json = Checkpoint::capture(&learner).to_json();
    let checked = assert_every_field_required(&json, &[], Checkpoint::from_json);
    for name in [
        "theta",
        "backbone.head.b",
        "backbone.use_char_cnn",
        "meta.max_consecutive_skips",
        "meta.second_order.epsilon",
        "theta.[0].value.rows",
    ] {
        assert!(checked.contains(&name.to_string()), "`{name}` not checked");
    }
    let wrapped = with_field(&json, "version", PAST_U32);
    assert!(Checkpoint::from_json(&wrapped).is_err());
}

#[test]
fn an_adapted_context_missing_any_field_is_refused() {
    let (learner, enc, task) = learner_and_task();
    let ctx = learner.adapt(&task, &enc, &ServeOptions::new()).unwrap();
    let json = ctx.to_json();
    let checked = assert_every_field_required(&json, &[], AdaptedCtx::from_json);
    for name in ["revision", "support", "support.[0].chars", "phi.data"] {
        assert!(checked.contains(&name.to_string()), "`{name}` not checked");
    }
    assert!(AdaptedCtx::from_json(&with_field(&json, "revision", PAST_U32)).is_err());
    assert!(AdaptedCtx::from_json(&with_field(&json, "version", PAST_U32 + 1)).is_err());
}

#[test]
fn a_training_snapshot_missing_any_field_is_refused() {
    // The learner state is read by the learner's import, not by the
    // snapshot reader, so its inside is not walked here.
    for sharded_stream in [false, true] {
        let json = snapshot(sharded_stream).to_json();
        let checked = assert_every_field_required(&json, &["learner"], TrainingSnapshot::from_json);
        for name in [
            "shard",
            "stream_cursor",
            "fingerprint.shards",
            "fingerprint.stream",
        ] {
            assert!(checked.contains(&name.to_string()), "`{name}` not checked");
        }
        if sharded_stream {
            for name in ["stream_cursor.pos", "fingerprint.stream.stride"] {
                assert!(checked.contains(&name.to_string()), "`{name}` not checked");
            }
        }
        let wrapped = with_field(&json, "version", PAST_U32);
        assert!(TrainingSnapshot::from_json(&wrapped).is_err());
    }
}
