//! Sharded-training acceptance suite (ISSUE 8 tentpole): serial, threaded
//! and 2/4-shard runs must leave bitwise-identical learner state; a worker
//! death mid-run is absorbed by reassignment without changing a single
//! byte; and a killed sharded run resumes to the same bytes as a
//! straight-through one.
//!
//! Every training test runs inside [`fault::with_plan`] — even the ones
//! with no faults to inject — because the fault plan is process-global and
//! parallel tests would otherwise steal each other's injected arms.
//!
//! The workers here are threads (each with its own learner and
//! [`Trainer`]), exchanging gradients with an in-process coordinator over
//! real TCP — the same wire protocol `fewner train-sharded` drives across
//! processes. Death is injected as a connection drop: the process-abort arm
//! (`shard_die`) would take the whole test harness down and is exercised by
//! the CI smoke job instead.

use std::path::PathBuf;

use fewner_core::{
    Checkpoint, CoordinatorReport, EpisodicLearner, Fewner, MetaConfig, ShardCoordinator,
    TrainConfig, Trainer,
};
use fewner_corpus::{split_types, DatasetProfile, TypeSplit};
use fewner_models::{BackboneConfig, Conditioning, HeadKind, TokenEncoder};
use fewner_obs::Tracer;
use fewner_text::embed::EmbeddingSpec;
use fewner_util::fault::{self, FaultPlan};
use fewner_util::{Error, Result};

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
        // 4 tasks per meta-batch so the reduce tree splits across up to
        // 4 shards.
        meta_batch: 4,
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

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fewner-shard-{name}-{}", std::process::id()));
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
/// `shards` worker threads, each executing `work(shard_id)` — which builds
/// its own schedule via [`topology`]. Returns every worker's result (shard
/// order) and the coordinator's report.
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

/// Wires one worker's shard topology into a training schedule.
fn topology(schedule: TrainConfig, shards: usize, shard: usize, addr: &str) -> TrainConfig {
    schedule.shards(shards).shard_id(shard).coordinator(addr)
}

#[test]
fn sharded_runs_match_serial_and_threaded_bitwise() {
    let (split, enc) = setup();
    let m = meta();
    const ITERS: usize = 6;

    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        // Serial and threaded references.
        let mut serial = learner(&enc);
        Trainer::new()
            .train(&mut serial, &split.train, &enc, &m, &cfg(ITERS))
            .unwrap();
        let reference = state_of(&serial);

        let mut threaded = learner(&enc);
        Trainer::new()
            .train(
                &mut threaded,
                &split.train,
                &enc,
                &m,
                &cfg(ITERS).threads(2),
            )
            .unwrap();
        assert_eq!(
            state_of(&threaded),
            reference,
            "threaded run diverged from serial"
        );

        for shards in [2usize, 4] {
            let (states, report) = sharded(shards, |shard, addr| {
                let mut l = learner(&enc);
                let schedule = topology(cfg(ITERS), shards, shard, addr);
                Trainer::new()
                    .train(&mut l, &split.train, &enc, &m, &schedule)
                    .map(|_| state_of(&l))
            });
            assert_eq!(report.rounds, ITERS, "one reduce round per iteration");
            assert_eq!(report.applied, ITERS);
            assert_eq!((report.deaths, report.skipped), (0, 0));
            for (shard, state) in states.into_iter().enumerate() {
                assert_eq!(
                    state.unwrap(),
                    reference,
                    "{shards}-shard worker {shard} diverged from serial"
                );
            }
        }

        // The shipped θ_Meta checkpoint is byte-identical too.
        let dir = tmp_dir("ckpt-eq");
        let serial_bytes = checkpoint_bytes(&serial, &dir, "serial.fsnap");
        let threaded_bytes = checkpoint_bytes(&threaded, &dir, "threaded.fsnap");
        assert_eq!(serial_bytes, threaded_bytes);
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn a_dead_worker_is_reassigned_without_changing_a_byte() {
    let (split, enc) = setup();
    let m = meta();
    const ITERS: usize = 6;

    // Shard 1's connection drops while sending its round-2 partial: the
    // coordinator must reassign its task ranges to shard 0 and the run
    // must finish with exactly the serial bytes.
    fault::with_plan(FaultPlan::parse("shard_conn_drop:2@1").unwrap(), || {
        let mut serial = learner(&enc);
        Trainer::new()
            .train(&mut serial, &split.train, &enc, &m, &cfg(ITERS))
            .unwrap();
        let reference = state_of(&serial);

        let (mut states, report) = sharded(2, |shard, addr| {
            let mut l = learner(&enc);
            let schedule = topology(cfg(ITERS), 2, shard, addr);
            Trainer::new()
                .train(&mut l, &split.train, &enc, &m, &schedule)
                .map(|_| state_of(&l))
        });
        assert_eq!(report.deaths, 1, "shard 1 must be seen dying");
        assert!(report.reassignments >= 1, "its ranges must be reassigned");
        assert_eq!(report.rounds, ITERS, "the run still completes every round");
        assert_eq!(report.applied, ITERS);

        let survivor = states.remove(0).expect("shard 0 survives");
        assert_eq!(survivor, reference, "survivor diverged from serial");
        assert!(
            states.remove(0).is_err(),
            "shard 1's session must error out"
        );
    });
}

#[test]
fn a_killed_sharded_run_resumes_to_the_serial_bytes() {
    let (split, enc) = setup();
    let m = meta();
    let dir = tmp_dir("resume");

    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        // Straight-through serial reference: 8 iterations, no checkpoints.
        let mut reference = learner(&enc);
        Trainer::new()
            .train(&mut reference, &split.train, &enc, &m, &cfg(8))
            .unwrap();

        // "Killed" 2-shard run: stops after 5 iterations with snapshots
        // every 2. Both workers snapshot into the same directory — the
        // shard-scoped file names keep them apart.
        let (states, _) = sharded(2, |shard, addr| {
            let base = cfg(5).checkpoint_every(2).checkpoint_dir(&dir);
            let schedule = topology(base, 2, shard, addr);
            let mut l = learner(&enc);
            Trainer::new()
                .train(&mut l, &split.train, &enc, &m, &schedule)
                .map(|_| ())
        });
        states.into_iter().for_each(|s| s.unwrap());
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        for shard in ["snap-s00-", "snap-s01-"] {
            assert!(
                names.iter().any(|n| n.starts_with(shard)),
                "missing {shard}* snapshot in {names:?}"
            );
        }

        // Resumed 2-shard run: picks up at iteration 4 and finishes 8.
        let (states, report) = sharded(2, |shard, addr| {
            let base = cfg(8).checkpoint_every(2).checkpoint_dir(&dir);
            let schedule = topology(base, 2, shard, addr);
            let mut l = learner(&enc);
            Trainer::new()
                .resume_from(&dir)
                .train(&mut l, &split.train, &enc, &m, &schedule)
                .map(|_| state_of(&l))
        });
        assert_eq!(report.deaths, 0);
        for (shard, state) in states.into_iter().enumerate() {
            assert_eq!(
                state.unwrap(),
                state_of(&reference),
                "resumed worker {shard} diverged from the straight-through run"
            );
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// A sharded resume whose snapshots already sit at the schedule's end
/// trains nothing, but every worker still joins the rendezvous and leaves
/// it, so the coordinator ends after zero rounds instead of waiting out its
/// rendezvous deadline.
#[test]
fn a_finished_sharded_resume_ends_the_coordinator_cleanly() {
    let (split, enc) = setup();
    let m = meta();
    let dir = tmp_dir("finished");

    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        let mut reference = learner(&enc);
        Trainer::new()
            .train(&mut reference, &split.train, &enc, &m, &cfg(4))
            .unwrap();

        let (states, _) = sharded(2, |shard, addr| {
            let base = cfg(4).checkpoint_every(2).checkpoint_dir(&dir);
            let schedule = topology(base, 2, shard, addr);
            let mut l = learner(&enc);
            Trainer::new()
                .train(&mut l, &split.train, &enc, &m, &schedule)
                .map(|_| ())
        });
        states.into_iter().for_each(|s| s.unwrap());

        let (logs, report) = sharded(2, |shard, addr| {
            let schedule = topology(cfg(4), 2, shard, addr);
            let mut l = learner(&enc);
            Trainer::new()
                .resume_from(&dir)
                .train(&mut l, &split.train, &enc, &m, &schedule)
                .map(|log| (log.losses.len(), state_of(&l)))
        });
        assert_eq!((report.rounds, report.deaths), (0, 0));
        for (shard, log) in logs.into_iter().enumerate() {
            let (losses, state) = log.unwrap();
            assert_eq!(losses, 4, "worker {shard} reports the recorded run");
            assert_eq!(state, state_of(&reference), "worker {shard}");
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_refuses_a_different_shard_topology() {
    let (split, enc) = setup();
    let m = meta();
    let dir = tmp_dir("topology");

    fault::with_plan(FaultPlan::parse("").unwrap(), || {
        // Seed the directory with snapshots from an *unsharded* run.
        let mut l = learner(&enc);
        let schedule = cfg(3).checkpoint_every(1).checkpoint_dir(&dir);
        Trainer::new()
            .train(&mut l, &split.train, &enc, &m, &schedule)
            .unwrap();

        // Resuming as one worker of a 2-shard layout must be refused by
        // the fingerprint check — before any coordinator is even dialled
        // (the address below is not listening).
        let mut other = learner(&enc);
        let sharded_schedule = cfg(6)
            .checkpoint_every(1)
            .checkpoint_dir(&dir)
            .shards(2)
            .shard_id(0)
            .coordinator("127.0.0.1:9");
        let err = Trainer::new()
            .resume_from(&dir)
            .train(&mut other, &split.train, &enc, &m, &sharded_schedule)
            .unwrap_err();
        assert!(
            matches!(err, Error::InvalidConfig(_)),
            "expected InvalidConfig, got {err}"
        );
        assert!(
            err.to_string().contains("different run configuration"),
            "the refusal must name the mismatch: {err}"
        );
    });
    std::fs::remove_dir_all(&dir).ok();
}
