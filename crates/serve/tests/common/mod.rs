//! Shared fixtures: a tiny (untrained) FEWNER model plus sampled tasks,
//! and the helper that runs a daemon for one test. Serving semantics —
//! caching, persistence, batching, shedding — do not depend on model
//! quality, so no meta-training is run here.

use std::net::TcpListener;

use fewner_core::{Fewner, MetaConfig};
use fewner_corpus::{split_types, DatasetProfile};
use fewner_episode::{EpisodeSampler, Task};
use fewner_models::{BackboneConfig, LabeledSentence, TokenEncoder};
use fewner_serve::{Client, Server};
use fewner_text::embed::EmbeddingSpec;

/// A small model + encoder + a few 2-way 1-shot tasks over GENIA types.
pub fn tiny() -> (Fewner, TokenEncoder, Vec<Task>) {
    let data = DatasetProfile::genia().generate(0.02).expect("corpus");
    let split = split_types(&data, (18, 8, 10), 42).expect("split");
    let spec = EmbeddingSpec {
        dim: 16,
        ..EmbeddingSpec::default()
    };
    let enc = TokenEncoder::build(&[&data], &spec, 4);
    let bb = BackboneConfig {
        word_dim: 16,
        char_dim: 6,
        char_filters: 4,
        char_widths: vec![2],
        hidden: 10,
        phi_dim: 8,
        slot_ctx_dim: 4,
        ..BackboneConfig::default_for(2)
    };
    let meta = MetaConfig {
        inner_steps_test: 2,
        meta_batch: 2,
        ..MetaConfig::default()
    };
    let learner = Fewner::new(bb, &enc, meta).expect("learner");
    let sampler = EpisodeSampler::new(&split.test, 2, 1, 3).expect("sampler");
    let tasks = sampler.eval_set(7, 3).expect("tasks");
    (learner, enc, tasks)
}

/// Encodes a task's support set the way the server does.
#[allow(dead_code)] // each integration test compiles this module separately
pub fn encode_support(enc: &TokenEncoder, task: &Task) -> Vec<LabeledSentence> {
    fewner_models::encode_batch(enc, &task.support, &task.tag_set())
}

/// Boots `server` on an ephemeral port, runs `drive`, shuts down, joins.
/// The final `expect` on `run` is itself an assertion: the daemon must
/// drain and exit cleanly no matter what the drive closure (or an armed
/// fault plan) did to it. A panicking drive closure still shuts the daemon
/// down first — otherwise the scope would wait forever on the accept loop
/// and a failed assertion would read as a hang.
#[allow(dead_code)] // each integration test compiles this module separately
pub fn with_server<T: Send>(server: &Server, drive: impl FnOnce(&str) -> T + Send) -> T {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::scope(|s| {
        let daemon = s.spawn(|| server.run(listener));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drive(&addr)));
        if !server.shutting_down() {
            Client::connect(&addr).and_then(|mut c| c.shutdown()).ok();
        }
        let drained = daemon.join().expect("daemon thread");
        match out {
            Ok(out) => {
                drained.expect("clean drain");
                out
            }
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}
