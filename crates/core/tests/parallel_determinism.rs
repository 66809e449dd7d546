//! The load-bearing guarantee of the parallel training engine: fanning
//! [`EpisodicLearner::task_grad`] over worker threads is **bitwise**
//! equivalent to the serial reference [`serial_meta_step`] — same θ after
//! the update, down to the last mantissa bit, at any thread count.
//!
//! The guarantee holds by construction (per-task RNG is a pure function of
//! the step seed and the task index; gradients always reduce on one thread
//! in task-index order); these tests pin it against regressions.

use fewner_core::{
    serial_meta_step, task_rng, EpisodicLearner, Fewner, MetaConfig, ParallelTrainer, TaskOutcome,
};
use fewner_corpus::{split_types, DatasetProfile};
use fewner_episode::{EpisodeSampler, Task};
use fewner_models::{BackboneConfig, Conditioning, HeadKind, TokenEncoder};
use fewner_obs::Tracer;
use fewner_text::embed::EmbeddingSpec;
use fewner_util::Rng;
use proptest::prelude::*;

fn fixture(n_tasks: usize, task_seed: u64) -> (TokenEncoder, Vec<Task>) {
    let d = DatasetProfile::bionlp13cg().generate(0.05).unwrap();
    let split = split_types(&d, (8, 3, 5), 1).unwrap();
    let sampler = EpisodeSampler::new(&split.train, 3, 1, 4).unwrap();
    let mut rng = Rng::new(task_seed);
    let tasks: Vec<Task> = (0..n_tasks)
        .map(|_| sampler.sample(&mut rng).unwrap())
        .collect();
    let enc = TokenEncoder::build(
        &[&d],
        &EmbeddingSpec {
            dim: 20,
            ..EmbeddingSpec::default()
        },
        4,
    );
    (enc, tasks)
}

fn learner(enc: &TokenEncoder, seed: u64) -> Fewner {
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
    let meta = MetaConfig {
        meta_batch: 4,
        inner_steps_train: 2,
        seed,
        ..MetaConfig::default()
    };
    Fewner::new(bb, enc, meta).unwrap()
}

/// θ as raw bits — `==` on floats would also pass for -0.0 vs 0.0.
fn theta_bits(l: &Fewner) -> Vec<u32> {
    l.theta
        .snapshot()
        .iter()
        .flat_map(|a| a.data().iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn parallel_meta_step_is_bitwise_identical_to_serial() {
    let (enc, tasks) = fixture(4, 11);
    let mut serial = learner(&enc, 42);
    let serial_loss = serial_meta_step(&mut serial, &tasks, &enc).unwrap();
    let reference = theta_bits(&serial);

    for threads in [1usize, 2, 4] {
        let mut parallel = learner(&enc, 42);
        let loss = ParallelTrainer::new(threads)
            .meta_step(&mut parallel, &tasks, &enc, &Tracer::disabled())
            .unwrap();
        assert_eq!(
            serial_loss.to_bits(),
            loss.to_bits(),
            "loss must match bitwise at {threads} threads"
        );
        assert_eq!(
            reference,
            theta_bits(&parallel),
            "θ must match bitwise at {threads} threads"
        );
    }
}

#[test]
fn repeated_parallel_steps_stay_in_lockstep_with_serial() {
    // One step could match by luck; three consecutive steps also exercise
    // the step-seed sequence (each iteration draws a fresh seed from the
    // learner's RNG before the fan-out).
    let (enc, tasks) = fixture(3, 23);
    let mut serial = learner(&enc, 7);
    let mut parallel = learner(&enc, 7);
    let pool = ParallelTrainer::new(2);
    for step in 0..3 {
        serial_meta_step(&mut serial, &tasks, &enc).unwrap();
        pool.meta_step(&mut parallel, &tasks, &enc, &Tracer::disabled())
            .unwrap();
        assert_eq!(
            theta_bits(&serial),
            theta_bits(&parallel),
            "θ diverged at step {step}"
        );
    }
}

#[test]
fn reduction_is_stable_under_out_of_order_arrival() {
    // Workers can finish in any order; the engine restores task-index order
    // before reducing. Simulate the worst case: outcomes computed in
    // reverse, then reassembled by index, must reduce to the same bits.
    let (enc, tasks) = fixture(4, 31);
    let l = learner(&enc, 3);
    let step_seed = 0xD1CE;

    let outcome = |index: usize| {
        let mut rng = task_rng(step_seed, index);
        l.task_grad(&tasks[index], &enc, &mut rng).unwrap()
    };
    let natural: Vec<TaskOutcome> = (0..tasks.len()).map(outcome).collect();
    let mut arrived: Vec<(usize, TaskOutcome)> =
        (0..tasks.len()).rev().map(|i| (i, outcome(i))).collect();
    arrived.sort_by_key(|(i, _)| *i);
    let reordered: Vec<TaskOutcome> = arrived.into_iter().map(|(_, o)| o).collect();

    let (loss_a, grads_a) = TaskOutcome::reduce(natural).unwrap();
    let (loss_b, grads_b) = TaskOutcome::reduce(reordered).unwrap();
    assert_eq!(loss_a.to_bits(), loss_b.to_bits());
    assert_eq!(
        grads_a.global_norm().to_bits(),
        grads_b.global_norm().to_bits()
    );
}

#[test]
fn task_rng_streams_are_independent_of_thread_chunking() {
    // The per-task RNG depends only on (step_seed, index), never on which
    // worker runs the task — spot-check that equal inputs give equal
    // streams and distinct indices give distinct streams.
    for index in 0..8 {
        let mut a = task_rng(99, index);
        let mut b = task_rng(99, index);
        for _ in 0..4 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
    let mut first = task_rng(99, 0);
    let mut second = task_rng(99, 1);
    assert_ne!(first.next_u64(), second.next_u64());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The decomposed API (step_seed → task_grad per index → reduce →
    /// apply_meta_grads) is exactly `serial_meta_step`, for any
    /// learner seed and batch size.
    #[test]
    fn decomposed_api_equals_meta_step(seed in 0u64..1000, n_tasks in 1usize..4) {
        let (enc, tasks) = fixture(n_tasks, 17);
        let mut composed = learner(&enc, seed);
        let mut reference = learner(&enc, seed);

        let step_seed = composed.step_seed();
        let outcomes: Vec<TaskOutcome> = tasks
            .iter()
            .enumerate()
            .map(|(index, task)| {
                let mut rng = task_rng(step_seed, index);
                composed.task_grad(task, &enc, &mut rng).unwrap()
            })
            .collect();
        let (loss, grads) = TaskOutcome::reduce(outcomes).unwrap();
        composed.apply_meta_grads(grads, tasks.len()).unwrap();

        let reference_loss = serial_meta_step(&mut reference, &tasks, &enc).unwrap();
        prop_assert_eq!(loss.to_bits(), reference_loss.to_bits());
        prop_assert_eq!(theta_bits(&composed), theta_bits(&reference));
    }
}
