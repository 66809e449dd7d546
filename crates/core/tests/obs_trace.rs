//! Observability acceptance suite: tracing must be a pure *observer*.
//!
//! The contract under test (ISSUE 4, tentpole): enabling the tracer must
//! not perturb any RNG stream or reduction order, so a traced run's
//! learner state and shipped checkpoints are **bitwise identical** to an
//! untraced run's — serial, multi-threaded, and across a kill-and-resume.
//!
//! Every training test runs inside [`fault::with_plan`] (even with an
//! empty plan) because the fault hook is process-global and parallel test
//! threads would otherwise steal each other's arms.

use std::path::PathBuf;
use std::sync::Arc;

use fewner_core::{Checkpoint, EpisodicLearner, Fewner, MetaConfig, TrainConfig, Trainer};
use fewner_corpus::{split_types, DatasetProfile, TypeSplit};
use fewner_models::{BackboneConfig, Conditioning, HeadKind, TokenEncoder};
use fewner_obs::{Clock, ManualClock, MemorySink, TraceSummary, Tracer};
use fewner_text::embed::EmbeddingSpec;
use fewner_util::fault::{self, FaultPlan};

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
    let dir = std::env::temp_dir().join(format!("fewner-obs-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn state_of(l: &Fewner) -> String {
    l.export_state()
        .expect("Fewner is checkpointable")
        .to_string()
}

fn checkpoint_bytes(l: &Fewner, dir: &std::path::Path, name: &str) -> Vec<u8> {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join(name);
    Checkpoint::capture(l).save(&path).unwrap();
    std::fs::read(&path).unwrap()
}

/// Acceptance: with tracing ON, training reaches bitwise-identical learner
/// state and checkpoints as with tracing OFF — at 1 thread and at 4.
#[test]
fn traced_training_is_bitwise_identical_to_untraced() {
    let (split, enc) = setup();
    for threads in [1usize, 4] {
        fault::with_plan(FaultPlan::parse("").unwrap(), || {
            let dir = tmp_dir(&format!("identical-{threads}"));
            std::fs::create_dir_all(&dir).unwrap();
            let m = meta();

            let mut plain = learner(&enc);
            Trainer::new()
                .train(
                    &mut plain,
                    &split.train,
                    &enc,
                    &m,
                    &cfg(threads).iterations(6),
                )
                .unwrap();

            let trace_path = dir.join("train.jsonl");
            let mut traced = learner(&enc);
            Trainer::with_tracer(&Tracer::jsonl(&trace_path))
                .train(
                    &mut traced,
                    &split.train,
                    &enc,
                    &m,
                    &cfg(threads).iterations(6),
                )
                .unwrap();

            assert_eq!(
                state_of(&plain),
                state_of(&traced),
                "tracing must not perturb θ, optimizer moments or RNG (threads = {threads})"
            );
            assert_eq!(
                checkpoint_bytes(&plain, &dir, "plain.json"),
                checkpoint_bytes(&traced, &dir, "traced.json"),
                "shipped checkpoints must stay byte-identical (threads = {threads})"
            );

            // The trace itself must exist, parse, and cover the run.
            let summary = TraceSummary::from_file(&trace_path).unwrap();
            let iters = summary
                .spans
                .get("train/iteration")
                .expect("iteration spans");
            assert_eq!(iters.count(), 6);
            assert_eq!(summary.counters.get("train/iterations"), Some(&6));
            assert_eq!(summary.counters.get("train/tasks"), Some(&12));
            assert!(summary.spans.contains_key("sampler/sample"));
            let hist_free = summary.render();
            assert!(hist_free.contains("train/iteration"), "render lists phases");
            std::fs::remove_dir_all(&dir).ok();
        });
    }
}

/// Acceptance: a traced kill-and-resume produces the same final state and
/// checkpoint bytes as an *untraced* straight run — the CI smoke job's
/// `cmp` in test form.
#[test]
fn traced_kill_and_resume_matches_untraced_straight_run() {
    let (split, enc) = setup();
    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        let dir = tmp_dir("resume");
        std::fs::create_dir_all(&dir).unwrap();
        let m = meta();

        // Untraced straight-through reference.
        let mut straight = learner(&enc);
        Trainer::new()
            .train(
                &mut straight,
                &split.train,
                &enc,
                &m,
                &cfg(2).iterations(12),
            )
            .unwrap();

        // Traced run killed at iteration 7 (snapshots at 3 and 6)…
        let mut killed = learner(&enc);
        let ck = cfg(2)
            .iterations(7)
            .checkpoint_every(3)
            .checkpoint_dir(&dir);
        Trainer::with_tracer(&Tracer::jsonl(dir.join("killed.jsonl")))
            .train(&mut killed, &split.train, &enc, &m, &ck)
            .unwrap();
        drop(killed);

        // …resumed, still traced, into the full schedule.
        let resumed_trace = dir.join("resumed.jsonl");
        let mut resumed = learner(&enc);
        let rk = cfg(2)
            .iterations(12)
            .checkpoint_every(3)
            .checkpoint_dir(&dir);
        Trainer::with_tracer(&Tracer::jsonl(&resumed_trace))
            .resume_from(&dir)
            .train(&mut resumed, &split.train, &enc, &m, &rk)
            .unwrap();

        assert_eq!(
            state_of(&straight),
            state_of(&resumed),
            "traced resume must land on the untraced straight-run state"
        );
        assert_eq!(
            checkpoint_bytes(&straight, &dir, "straight.json"),
            checkpoint_bytes(&resumed, &dir, "resumed.json"),
            "final checkpoints must be byte-identical"
        );

        // The resumed trace records where it picked up.
        let summary = TraceSummary::from_file(&resumed_trace).unwrap();
        assert_eq!(summary.events.get("train/resume"), Some(&1));
        // Resumed from iteration 6: exactly 6 more iterations were traced.
        assert_eq!(summary.spans["train/iteration"].count(), 6);
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// A manual clock drives deterministic span durations through a real
/// training run, and checkpoint spans appear exactly when snapshots are due.
#[test]
fn trainer_records_checkpoint_spans_and_phase_latencies() {
    let (split, enc) = setup();
    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        let dir = tmp_dir("spans");
        std::fs::create_dir_all(&dir).unwrap();

        // Arc<ManualClock> shim: span starts/ends read a clock we control.
        struct SharedClock(Arc<ManualClock>);
        impl Clock for SharedClock {
            fn now_ns(&self) -> u64 {
                self.0.now_ns()
            }
        }
        let clock = Arc::new(ManualClock::new());
        let sink = MemorySink::new();
        let tracer = Tracer::new(SharedClock(Arc::clone(&clock)), sink.clone());

        let m = meta();
        let mut l = learner(&enc);
        let schedule = cfg(1)
            .iterations(4)
            .checkpoint_every(2)
            .checkpoint_dir(&dir);
        fewner_core::Trainer::with_tracer(&tracer)
            .train(&mut l, &split.train, &enc, &m, &schedule)
            .unwrap();

        let summary = TraceSummary::parse(&sink.text()).unwrap();
        assert_eq!(summary.spans["train/iteration"].count(), 4);
        assert_eq!(
            summary.spans["train/checkpoint"].count(),
            2,
            "snapshots at iterations 2 and 4"
        );
        assert_eq!(summary.counters.get("train/checkpoints"), Some(&2));
        assert_eq!(summary.counters.get("sampler/tasks_drawn"), Some(&8));
        // The manual clock never advanced, so every span is zero-length —
        // percentile math must handle that degenerate (but exact) case.
        assert_eq!(summary.spans["train/iteration"].percentile_ns(99.0), 0);
        std::fs::remove_dir_all(&dir).ok();
    });
}
