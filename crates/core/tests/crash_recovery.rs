//! Crash-recovery acceptance suite: kill-and-resume determinism, corrupted
//! snapshot fall-back, and fault-injected checkpoint writes.
//!
//! Every test that trains runs inside [`fault::with_plan`] — even the ones
//! with no faults to inject — because the fault plan is process-global and
//! the tests here would otherwise steal each other's injected arms when the
//! test harness runs them on parallel threads.

use std::path::PathBuf;

use fewner_core::{
    Checkpoint, EpisodicLearner, Fewner, MetaConfig, ParallelTrainer, TaskOutcome, TrainConfig,
    Trainer, TrainingSnapshot,
};
use fewner_corpus::{split_types, DatasetProfile, TypeSplit};
use fewner_episode::{EpisodeSampler, Task};
use fewner_models::{BackboneConfig, Conditioning, HeadKind, TokenEncoder};
use fewner_obs::{TraceSummary, Tracer};
use fewner_tensor::ParamGrads;
use fewner_text::embed::EmbeddingSpec;
use fewner_util::fault::{self, FaultPlan};
use fewner_util::{Error, Result, Rng};

fn setup() -> (TypeSplit, TokenEncoder) {
    let d = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
    let split = split_types(&d, (8, 3, 5), 1).unwrap();
    let enc = TokenEncoder::build(
        &[&d],
        &EmbeddingSpec {
            dim: 20,
            ..EmbeddingSpec::default()
        },
        4,
    );
    (split, enc)
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

fn cfg(threads: usize) -> TrainConfig {
    TrainConfig::new(3, 1)
        .query_size(4)
        .seed(9)
        .threads(threads)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fewner-crash-{name}-{}", std::process::id()));
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

/// Acceptance (a): training killed at iteration k and resumed produces the
/// byte-identical final checkpoint of a straight-through run — serial and
/// at 4 threads.
#[test]
fn kill_and_resume_is_bitwise_identical_at_1_and_4_threads() {
    let (split, enc) = setup();
    for threads in [1usize, 4] {
        fault::with_plan(FaultPlan::parse("").unwrap(), || {
            let dir = tmp_dir(&format!("resume-{threads}"));
            let m = meta();

            // Straight-through reference: 12 iterations, no checkpoints.
            let mut straight = learner(&enc);
            Trainer::new()
                .train(
                    &mut straight,
                    &split.train,
                    &enc,
                    &m,
                    &cfg(threads).iterations(12),
                )
                .unwrap();

            // "Killed" run: stops after 7 iterations with snapshots at 3
            // and 6 — exactly what a kill at iteration 7 leaves on disk.
            let mut killed = learner(&enc);
            let ck = cfg(threads)
                .iterations(7)
                .checkpoint_every(3)
                .checkpoint_dir(&dir);
            Trainer::new()
                .train(&mut killed, &split.train, &enc, &m, &ck)
                .unwrap();
            drop(killed); // the process is gone; only the snapshots survive

            // Resume into the full 12-iteration schedule.
            let mut resumed = learner(&enc);
            let rk = cfg(threads)
                .iterations(12)
                .checkpoint_every(3)
                .checkpoint_dir(&dir);
            let log = Trainer::new()
                .resume_from(&dir)
                .train(&mut resumed, &split.train, &enc, &m, &rk)
                .unwrap();

            assert_eq!(log.losses.len(), 12, "full loss history is restored");
            assert_eq!(
                state_of(&straight),
                state_of(&resumed),
                "θ, optimizer moments and RNG must all match (threads = {threads})"
            );
            assert_eq!(
                checkpoint_bytes(&straight, &dir, "straight.json"),
                checkpoint_bytes(&resumed, &dir, "resumed.json"),
                "final checkpoint files must be byte-identical (threads = {threads})"
            );
            std::fs::remove_dir_all(dir).ok();
        });
    }
}

/// Acceptance (b): a truncated or bit-flipped snapshot is rejected with a
/// typed error — no panic — and resume falls back to the previous rolling
/// snapshot, still converging on the bitwise-identical final state.
#[test]
fn corrupted_newest_snapshot_falls_back_to_its_predecessor() {
    let (split, enc) = setup();
    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        let dir = tmp_dir("corrupt");
        let m = meta();

        let mut straight = learner(&enc);
        Trainer::new()
            .train(
                &mut straight,
                &split.train,
                &enc,
                &m,
                &cfg(1).iterations(12),
            )
            .unwrap();

        let mut killed = learner(&enc);
        let ck = cfg(1)
            .iterations(7)
            .checkpoint_every(3)
            .checkpoint_dir(&dir);
        Trainer::new()
            .train(&mut killed, &split.train, &enc, &m, &ck)
            .unwrap();

        // Bit-flip the newest snapshot (snap-6) in the middle of θ.
        let newest = dir.join("snap-00000006.fsnap");
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&newest, &bytes).unwrap();
        assert!(
            matches!(TrainingSnapshot::load(&newest), Err(Error::Io { .. })),
            "a bit-flipped snapshot must fail CRC verification with Error::Io"
        );

        // Resume silently falls back to snap-3 and recomputes the rest.
        let mut resumed = learner(&enc);
        let rk = cfg(1)
            .iterations(12)
            .checkpoint_every(3)
            .checkpoint_dir(&dir);
        Trainer::new()
            .resume_from(&dir)
            .train(&mut resumed, &split.train, &enc, &m, &rk)
            .unwrap();
        assert_eq!(
            state_of(&straight),
            state_of(&resumed),
            "resuming from the older snapshot must still reach the same state"
        );
        std::fs::remove_dir_all(dir).ok();
    });
}

/// Acceptance (c): a crash injected *during* a snapshot write (a torn
/// write: half the frame lands at the final path) aborts the run but never
/// leaves it unresumable — the previous rolling snapshot is intact.
#[test]
fn torn_snapshot_write_never_leaves_the_run_unresumable() {
    let (split, enc) = setup();
    fault::with_plan(FaultPlan::parse("ckpt_truncate:2").unwrap(), || {
        let dir = tmp_dir("torn");
        let m = meta();

        // The 2nd durable write (snap-6) is torn mid-write; the run aborts
        // rather than pretending the checkpoint landed.
        let mut killed = learner(&enc);
        let ck = cfg(1)
            .iterations(7)
            .checkpoint_every(3)
            .checkpoint_dir(&dir);
        let err = Trainer::new()
            .train(&mut killed, &split.train, &enc, &m, &ck)
            .unwrap_err();
        assert!(
            matches!(err, Error::Io { .. }),
            "a torn snapshot write must surface as Error::Io, got {err:?}"
        );
        assert!(
            TrainingSnapshot::load(dir.join("snap-00000006.fsnap")).is_err(),
            "the torn file must not verify"
        );

        // The fault arm is exhausted, so resume's own writes succeed: it
        // falls back to snap-3 and trains through to the end.
        let mut resumed = learner(&enc);
        let rk = cfg(1)
            .iterations(12)
            .checkpoint_every(3)
            .checkpoint_dir(&dir);
        Trainer::new()
            .resume_from(&dir)
            .train(&mut resumed, &split.train, &enc, &m, &rk)
            .unwrap();

        let mut straight = learner(&enc);
        Trainer::new()
            .train(
                &mut straight,
                &split.train,
                &enc,
                &m,
                &cfg(1).iterations(12),
            )
            .unwrap();
        assert_eq!(
            state_of(&straight),
            state_of(&resumed),
            "recovery from a torn write must reach the straight-through state"
        );
        std::fs::remove_dir_all(dir).ok();
    });
}

/// An injected task-gradient error takes the skip path (and only that
/// path): the iteration is counted as skipped, θ is untouched by it, and
/// training carries on.
#[test]
fn injected_task_grad_error_exercises_the_skip_path() {
    let (split, enc) = setup();
    fault::with_plan(FaultPlan::parse("task_grad_err:1").unwrap(), || {
        let m = meta();
        let mut l = learner(&enc);
        let log = Trainer::new()
            .train(&mut l, &split.train, &enc, &m, &cfg(1).iterations(4))
            .unwrap();
        assert_eq!(log.skipped, 1, "exactly the faulted iteration is skipped");
        assert_eq!(log.losses.len(), 3, "the other iterations complete");
    });
}

/// Satellite: a panicking `task_grad` inside the parallel fan-out surfaces
/// as `Error::WorkerPanic` — the trainer must not unwind or deadlock.
#[test]
fn panicking_worker_surfaces_as_worker_panic() {
    struct Panicky;
    impl EpisodicLearner for Panicky {
        fn name(&self) -> &'static str {
            "panicky"
        }
        fn task_grad(&self, _t: &Task, _e: &TokenEncoder, _r: &mut Rng) -> Result<TaskOutcome> {
            panic!("worker goes down mid-task");
        }
        fn apply_meta_grads(&mut self, _g: ParamGrads, _n: usize) -> Result<()> {
            Ok(())
        }
        fn adapt_and_predict(&self, _t: &Task, _e: &TokenEncoder) -> Result<Vec<Vec<usize>>> {
            Ok(vec![])
        }
    }

    let (split, enc) = setup();
    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        let sampler = EpisodeSampler::new(&split.train, 3, 1, 4).unwrap();
        let mut rng = Rng::new(11);
        let tasks: Vec<Task> = (0..4).map(|_| sampler.sample(&mut rng).unwrap()).collect();
        let mut l = Panicky;
        let err = ParallelTrainer::new(4)
            .meta_step(&mut l, &tasks, &enc, &Tracer::disabled())
            .unwrap_err();
        assert!(
            matches!(err, Error::WorkerPanic { .. }),
            "expected WorkerPanic, got {err:?}"
        );
    });
}

/// Resuming under a different schedule is refused: the snapshot's run
/// fingerprint pins seed and task shape (but not the iteration budget).
#[test]
fn resume_refuses_a_mismatched_run_fingerprint() {
    let (split, enc) = setup();
    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        let dir = tmp_dir("fingerprint");
        let m = meta();
        let mut l = learner(&enc);
        let ck = cfg(1)
            .iterations(3)
            .checkpoint_every(3)
            .checkpoint_dir(&dir);
        Trainer::new()
            .train(&mut l, &split.train, &enc, &m, &ck)
            .unwrap();

        let mut other = learner(&enc);
        let wrong_seed = cfg(1).iterations(6).seed(1234);
        let err = Trainer::new()
            .resume_from(&dir)
            .train(&mut other, &split.train, &enc, &m, &wrong_seed)
            .unwrap_err();
        assert!(
            matches!(err, Error::InvalidConfig(_)),
            "expected InvalidConfig on fingerprint mismatch, got {err:?}"
        );

        // An empty directory is a precise Io error, not a panic.
        let empty = tmp_dir("fingerprint-empty");
        std::fs::create_dir_all(&empty).unwrap();
        let err = Trainer::new()
            .resume_from(&empty)
            .train(&mut other, &split.train, &enc, &m, &cfg(1))
            .unwrap_err();
        assert!(matches!(err, Error::Io { .. }));
        std::fs::remove_dir_all(dir).ok();
        std::fs::remove_dir_all(empty).ok();
    });
}

/// A resume whose newest snapshot sits exactly at the schedule's end
/// reports the run as the snapshot recorded it, without training; one past
/// the end is refused before the learner is touched.
#[test]
fn resume_at_the_schedule_end_reports_the_snapshot_and_past_it_is_refused() {
    let (split, enc) = setup();
    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        let dir = tmp_dir("schedule-end");
        let m = meta();
        let mut l = learner(&enc);
        let ck = cfg(1)
            .iterations(6)
            .checkpoint_every(3)
            .checkpoint_dir(&dir);
        Trainer::new()
            .train(&mut l, &split.train, &enc, &m, &ck)
            .unwrap();
        let snap = TrainingSnapshot::load(dir.join("snap-00000006.fsnap")).unwrap();

        // Exactly at the end: the snapshot's state and log, nothing trained.
        let trace = dir.join("at-end.jsonl");
        let mut at_end = learner(&enc);
        let log = Trainer::new()
            .resume_from(&dir)
            .train(
                &mut at_end,
                &split.train,
                &enc,
                &m,
                &cfg(1).iterations(6).trace(&trace),
            )
            .unwrap();
        assert_eq!(state_of(&at_end), snap.learner.to_string());
        assert_eq!(log.losses, snap.losses);
        assert_eq!(log.tasks_seen, snap.tasks_seen);
        assert!(log.wall_secs >= snap.wall_secs, "wall time spans every leg");
        let summary = TraceSummary::from_file(&trace).unwrap();
        assert_eq!(summary.events.get("train/resume"), Some(&1));
        assert!(!summary.spans.contains_key("train/iteration"));

        // Past the end: refused, naming both iteration counts.
        let mut past = learner(&enc);
        let untouched = state_of(&past);
        let err = Trainer::new()
            .resume_from(&dir)
            .train(&mut past, &split.train, &enc, &m, &cfg(1).iterations(4))
            .unwrap_err();
        match &err {
            Error::InvalidConfig(msg) => assert!(
                msg.contains("iteration 6") && msg.contains("4 iterations"),
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
