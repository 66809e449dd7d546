//! Streaming-training acceptance suite (ISSUE 10 tentpole): training from a
//! chunked corpus stream must be a pure refactor of the materialized path —
//! serial, 2-shard and killed-and-resumed streaming runs all leave bitwise
//! identical learner state, and the persisted stream cursor refuses to
//! resume under a different stream geometry.
//!
//! Every training test runs inside [`fault::with_plan`] — even the ones
//! with no faults to inject — because the fault plan is process-global and
//! parallel tests would otherwise steal each other's injected arms.

use std::path::PathBuf;

use fewner_core::{
    Checkpoint, CoordinatorReport, EpisodicLearner, Fewner, MetaConfig, ShardCoordinator,
    StreamSource, TrainConfig, Trainer, TrainingSnapshot,
};
use fewner_corpus::{
    partition_type_ids, CorpusSource, DatasetProfile, StreamingCorpus, TypePartition,
};
use fewner_models::{BackboneConfig, Conditioning, HeadKind, TokenEncoder};
use fewner_obs::{TraceSummary, Tracer};
use fewner_text::embed::EmbeddingSpec;
use fewner_text::TypeId;
use fewner_util::fault::{self, FaultPlan};
use fewner_util::{Error, Result};

const CHUNK: usize = 64;
const WINDOW: usize = 200;
const STRIDE: usize = 20;

/// The streaming corpus every test draws from, plus its train-side type
/// partition and an encoder built from the materialized equivalent (the
/// encoder needs corpus-wide statistics; building it from the same
/// generator keeps the vocabularies identical across paths).
fn setup() -> (StreamingCorpus, TypePartition, TokenEncoder) {
    let p = DatasetProfile::bionlp13cg();
    let corpus = p.stream(0.05, None, CHUNK).unwrap();
    let ids: Vec<TypeId> = corpus.types().iter().map(|t| t.id).collect();
    let (train, _, _) = partition_type_ids(ids, (8, 3, 5), 1).unwrap();
    let d = corpus.clone().materialize().unwrap();
    let enc = TokenEncoder::build(
        &[&d],
        &EmbeddingSpec {
            dim: 20,
            ..EmbeddingSpec::default()
        },
        4,
    );
    (corpus, train, enc)
}

fn meta() -> MetaConfig {
    MetaConfig {
        meta_batch: 2,
        inner_steps_train: 1,
        ..MetaConfig::default()
    }
}

fn learner(enc: &TokenEncoder) -> Fewner {
    let bb = BackboneConfig {
        word_dim: 20,
        char_dim: 8,
        char_filters: 6,
        char_widths: vec![2, 3],
        hidden: 10,
        phi_dim: 8,
        slot_ctx_dim: 4,
        conditioning: Conditioning::Film,
        dropout: 0.1,
        use_char_cnn: true,
        encoder: fewner_models::backbone::EncoderKind::BiGru,
        head: HeadKind::Dense { n_ways: 3 },
    };
    Fewner::new(bb, enc, meta()).unwrap()
}

fn cfg(iterations: usize) -> TrainConfig {
    TrainConfig::new(3, 1)
        .query_size(4)
        .seed(9)
        .threads(1)
        .iterations(iterations)
}

fn source(
    corpus: &StreamingCorpus,
    partition: &TypePartition,
    schedule: &TrainConfig,
) -> StreamSource {
    StreamSource::open(corpus.clone(), partition.clone(), schedule, WINDOW, STRIDE).unwrap()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fewner-stream-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The learner's complete exported training state as a comparable string.
fn state_of(l: &Fewner) -> String {
    l.export_state()
        .expect("Fewner is checkpointable")
        .to_string()
}

/// The θ_Meta checkpoint a run would ship, as on-disk bytes.
fn checkpoint_bytes(l: &Fewner, dir: &std::path::Path, name: &str) -> Vec<u8> {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join(name);
    Checkpoint::capture(l).save(&path).unwrap();
    std::fs::read(&path).unwrap()
}

/// Runs a full sharded round-trip in-process: a coordinator thread plus
/// `shards` worker threads (same harness as the sharded-determinism suite).
fn sharded<T, F>(shards: usize, work: F) -> (Vec<Result<T>>, CoordinatorReport)
where
    T: Send,
    F: Fn(usize, &str) -> Result<T> + Sync,
{
    let coordinator = ShardCoordinator::bind("127.0.0.1:0", shards).unwrap();
    let addr = coordinator.local_addr().unwrap().to_string();
    std::thread::scope(|scope| {
        let driver = scope.spawn(|| coordinator.run(&Tracer::disabled()));
        let workers: Vec<_> = (0..shards)
            .map(|shard| {
                let (addr, work) = (addr.as_str(), &work);
                scope.spawn(move || work(shard, addr))
            })
            .collect();
        let results = workers
            .into_iter()
            .map(|w| w.join().expect("worker thread panicked"))
            .collect();
        let report = driver
            .join()
            .expect("coordinator thread panicked")
            .expect("coordinator run failed");
        (results, report)
    })
}

/// Acceptance: streaming training killed at iteration k and resumed through
/// [`Trainer::resume_from`] — with the window replayed from the persisted
/// cursor — produces the byte-identical final checkpoint of a
/// straight-through streaming run.
#[test]
fn streaming_kill_and_resume_is_bitwise_identical() {
    let (corpus, train, enc) = setup();
    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        let dir = tmp_dir("resume");
        let m = meta();

        // Straight-through reference: 12 iterations, no checkpoints.
        let mut straight = learner(&enc);
        let schedule = cfg(12);
        let mut src = source(&corpus, &train, &schedule);
        Trainer::new()
            .train_stream(&mut straight, &mut src, &enc, &m, &schedule)
            .unwrap();
        assert!(
            src.sampler().high_water() <= WINDOW,
            "residency {} exceeded the {WINDOW}-sentence window",
            src.sampler().high_water()
        );

        // "Killed" run: stops after 7 iterations with snapshots at 3 and 6.
        let mut killed = learner(&enc);
        let ck = cfg(7).checkpoint_every(3).checkpoint_dir(&dir);
        let mut src = source(&corpus, &train, &ck);
        Trainer::new()
            .train_stream(&mut killed, &mut src, &enc, &m, &ck)
            .unwrap();
        drop(killed); // the process is gone; only the snapshots survive

        // Resume into the full 12-iteration schedule from a *fresh* stream:
        // the cursor in the snapshot replays the window to where it was.
        let mut resumed = learner(&enc);
        let rk = cfg(12).checkpoint_every(3).checkpoint_dir(&dir);
        let mut src = source(&corpus, &train, &rk);
        let log = Trainer::new()
            .resume_from(&dir)
            .train_stream(&mut resumed, &mut src, &enc, &m, &rk)
            .unwrap();

        assert_eq!(log.losses.len(), 12, "full loss history is restored");
        assert_eq!(
            state_of(&straight),
            state_of(&resumed),
            "θ, optimizer moments and RNG must all match"
        );
        assert_eq!(
            checkpoint_bytes(&straight, &dir, "straight.json"),
            checkpoint_bytes(&resumed, &dir, "resumed.json"),
            "final checkpoint files must be byte-identical"
        );
        std::fs::remove_dir_all(dir).ok();
    });
}

/// Acceptance: a 2-shard streaming run leaves every worker with exactly the
/// serial streaming bytes — window advancement is draw-driven and RNG-free,
/// so shard lockstep holds across the stream exactly as it does for
/// materialized views.
#[test]
fn streaming_2_shard_run_matches_serial_bitwise() {
    let (corpus, train, enc) = setup();
    let m = MetaConfig {
        // 4 tasks per meta-batch so the reduce tree splits across shards.
        meta_batch: 4,
        inner_steps_train: 1,
        ..MetaConfig::default()
    };
    const ITERS: usize = 6;

    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        let mut serial = learner(&enc);
        let schedule = cfg(ITERS);
        let mut src = source(&corpus, &train, &schedule);
        Trainer::new()
            .train_stream(&mut serial, &mut src, &enc, &m, &schedule)
            .unwrap();
        let reference = state_of(&serial);

        let (states, report) = sharded(2, |shard, addr| {
            let schedule = cfg(ITERS).shards(2).shard_id(shard).coordinator(addr);
            let mut src = source(&corpus, &train, &schedule);
            let mut l = learner(&enc);
            Trainer::new()
                .train_stream(&mut l, &mut src, &enc, &m, &schedule)
                .map(|_| state_of(&l))
        });
        assert_eq!(report.rounds, ITERS, "one reduce round per iteration");
        assert_eq!((report.deaths, report.skipped), (0, 0));
        for (shard, state) in states.into_iter().enumerate() {
            assert_eq!(
                state.unwrap(),
                reference,
                "streaming 2-shard worker {shard} diverged from serial"
            );
        }
    });
}

/// The stream geometry (corpus length, chunk size, window, stride) is part
/// of the run fingerprint: snapshots written under one geometry refuse to
/// resume under another, and materialized-run snapshots refuse a streaming
/// resume outright — the persisted cursor would address different
/// sentences.
#[test]
fn resume_refuses_a_mismatched_stream_geometry() {
    let (corpus, train, enc) = setup();
    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        let dir = tmp_dir("geometry");
        let m = meta();

        let mut l = learner(&enc);
        let ck = cfg(3).checkpoint_every(3).checkpoint_dir(&dir);
        let mut src = source(&corpus, &train, &ck);
        Trainer::new()
            .train_stream(&mut l, &mut src, &enc, &m, &ck)
            .unwrap();

        // Same schedule, different window: the cursor semantics change, so
        // the fingerprint check must refuse before touching the learner.
        let mut other = learner(&enc);
        let rk = cfg(6).checkpoint_every(3).checkpoint_dir(&dir);
        let mut narrow =
            StreamSource::open(corpus.clone(), train.clone(), &rk, WINDOW / 2, STRIDE).unwrap();
        let err = Trainer::new()
            .resume_from(&dir)
            .train_stream(&mut other, &mut narrow, &enc, &m, &rk)
            .unwrap_err();
        assert!(
            matches!(err, Error::InvalidConfig(_)),
            "expected InvalidConfig on geometry mismatch, got {err:?}"
        );

        // A materialized-view resume must not accept streaming snapshots
        // either: its fingerprint carries no stream geometry at all.
        let d = corpus.clone().materialize().unwrap();
        let split = fewner_corpus::split_types(&d, (8, 3, 5), 1).unwrap();
        let err = Trainer::new()
            .resume_from(&dir)
            .train(&mut other, &split.train, &enc, &m, &rk)
            .unwrap_err();
        assert!(
            matches!(err, Error::InvalidConfig(_)),
            "expected InvalidConfig resuming a stream snapshot as a view run, got {err:?}"
        );
        std::fs::remove_dir_all(dir).ok();
    });
}

/// The schedule-end cases on a stream: a snapshot exactly at the end
/// reports the run as recorded (cursor replayed, nothing drawn past it);
/// one past the end is refused before the learner is touched.
#[test]
fn streaming_resume_at_the_schedule_end_reports_the_snapshot_and_past_it_is_refused() {
    let (corpus, train, enc) = setup();
    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        let dir = tmp_dir("schedule-end");
        let m = meta();
        let mut l = learner(&enc);
        let ck = cfg(6).checkpoint_every(3).checkpoint_dir(&dir);
        let mut src = source(&corpus, &train, &ck);
        Trainer::new()
            .train_stream(&mut l, &mut src, &enc, &m, &ck)
            .unwrap();
        let snap = TrainingSnapshot::load(dir.join("snap-00000006.fsnap")).unwrap();

        let trace = dir.join("at-end.jsonl");
        let at_end_cfg = cfg(6).trace(&trace);
        let mut at_end = learner(&enc);
        let mut src = source(&corpus, &train, &at_end_cfg);
        let log = Trainer::new()
            .resume_from(&dir)
            .train_stream(&mut at_end, &mut src, &enc, &m, &at_end_cfg)
            .unwrap();
        assert_eq!(state_of(&at_end), snap.learner.to_string());
        assert_eq!(log.losses, snap.losses);
        assert!(log.wall_secs >= snap.wall_secs, "wall time spans every leg");
        assert_eq!(Some(src.sampler().cursor()), snap.stream_cursor);
        let summary = TraceSummary::from_file(&trace).unwrap();
        assert_eq!(summary.events.get("train/resume"), Some(&1));
        assert!(!summary.spans.contains_key("train/iteration"));

        let mut past = learner(&enc);
        let untouched = state_of(&past);
        let mut src = source(&corpus, &train, &cfg(5));
        let err = Trainer::new()
            .resume_from(&dir)
            .train_stream(&mut past, &mut src, &enc, &m, &cfg(5))
            .unwrap_err();
        match &err {
            Error::InvalidConfig(msg) => assert!(
                msg.contains("iteration 6") && msg.contains("5 iterations"),
                "{msg}"
            ),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        assert_eq!(
            state_of(&past),
            untouched,
            "the snapshot must not be imported"
        );
        std::fs::remove_dir_all(dir).ok();
    });
}
