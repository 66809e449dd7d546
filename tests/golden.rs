//! Golden bytes: numerics pinned across changes, not only within one build.
//!
//! The determinism suites compare two runs of the *same* build, so a change
//! that shifts every kernel's rounding passes all of them. This suite pins
//! CRC-32s of bytes the program produces from a fixed seed:
//!
//! * a tiny meta-trained checkpoint file (`Checkpoint::save`) — the tape's
//!   forward and backward kernels and the optimizers;
//! * the persisted φ of one adapted task (`AdaptedCtx::save`) — the inner
//!   loop — and of that context extended by more support (`Fewner::extend`);
//! * the persisted φ of one task adapted by two untrained learners, one
//!   with ConcatInput conditioning and one with FiLM over a BiLSTM and a
//!   slot-shared head — the inner loop under the other conditioning site,
//!   encoder and head;
//! * one task gradient of each of those two learners on a training tape
//!   (dropout and the char-CNN on) — θ's gradient through the recurrent
//!   layer ConcatInput runs in its head, and through the BiLSTM;
//! * the decode of that task's query set under f32, f16 and i8 θ — the
//!   Viterbi paths from `Fewner::predict` plus the bit patterns of each
//!   query sentence's hidden states and NLL evaluated on the `Infer`
//!   executor.
//!
//! Changing a constant here is a deliberate, reviewed act, like
//! regenerating `tests/snapshots/usage.txt`: a refactor that claims to keep
//! numerics must leave this file untouched.
//!
//! Platform assumption: x86-64 with glibc's libm. The values depend on
//! `expf`/`logf` rounding, which other targets or C libraries may not
//! reproduce bit for bit.

use std::path::Path;

use fewner::core::Checkpoint;
use fewner::corpus::TypeSplit;
use fewner::prelude::*;
use fewner::tensor::{Exec, Infer, WeightFormat};
use fewner::util::crc32;

const CHECKPOINT_CRC: u32 = 0x62e8_83e6;
const PHI_CRC: u32 = 0x4440_0377;
const DECODE_F32_CRC: u32 = 0x2216_cbdf;
const DECODE_F16_CRC: u32 = 0x7ea4_93aa;
const DECODE_I8_CRC: u32 = 0x48b9_7252;
const EXTEND_PHI_CRC: u32 = 0x8c59_cb43;
const CONCAT_PHI_CRC: u32 = 0x0512_968d;
const SLOT_LSTM_PHI_CRC: u32 = 0x3c49_884b;
const CONCAT_THETA_GRAD_CRC: u32 = 0xf104_64b0;
const SLOT_LSTM_THETA_GRAD_CRC: u32 = 0x06b3_89a8;

fn file_crc(path: &Path) -> u32 {
    crc32(&std::fs::read(path).unwrap())
}

/// CRC of one task's decode: every Viterbi path from the serving entry
/// point, then every query sentence's hidden states and gold-tag NLL as raw
/// f32 bits.
fn decode_crc(learner: &Fewner, ctx: &AdaptedCtx, task: &Task, enc: &TokenEncoder) -> u32 {
    let tags = task.tag_set();
    let query = fewner::models::encode_batch(enc, &task.query, &tags);
    let sents: Vec<_> = query.iter().map(|(s, _)| s.clone()).collect();
    let paths = learner.predict(ctx, &sents, &ServeOptions::new()).unwrap();
    let mut bytes = Vec::new();
    for path in &paths {
        bytes.extend(path.iter().map(|&t| t as u8));
        bytes.push(0xff);
    }
    let ex = Infer::new();
    let (store, id) = ctx.phi();
    let phi = ex.param(store, id);
    let mut rng = Rng::new(0);
    let bb = &learner.backbone;
    // The batched pass behind `predict` must give every sentence the
    // hidden states it gets alone.
    let batched = bb.hidden_task(&learner.theta, Some(ctx.phi()), &sents, &tags);
    for (i, (sent, gold)) in query.iter().enumerate() {
        let hidden = bb.hidden(&ex, &learner.theta, Some(phi), sent, &mut rng);
        let nll = bb.nll(&ex, &learner.theta, Some(phi), sent, gold, &tags, &mut rng);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(batched.hidden(i)),
            bits(ex.value(hidden).data()),
            "query sentence {i}: batched hidden states"
        );
        for v in ex.value(hidden).data().iter().chain(ex.value(nll).data()) {
            bytes.extend(v.to_bits().to_le_bytes());
        }
    }
    crc32(&bytes)
}

/// Asserts every `(name, got, pinned)` triple matches, naming each drift.
fn assert_pinned(actual: &[(&str, u32, u32)]) {
    let drifted: Vec<String> = actual
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: got {got:#010x}, pinned {want:#010x}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "golden bytes moved:\n{}",
        drifted.join("\n")
    );
}

struct Fixture {
    split: TypeSplit,
    enc: TokenEncoder,
    bb: BackboneConfig,
    meta: MetaConfig,
    /// The 3-way 1-shot test-split task every φ here is adapted to.
    task: Task,
    dir: std::path::PathBuf,
}

fn fixture(name: &str) -> Fixture {
    let data = DatasetProfile::bionlp13cg().generate(0.02).unwrap();
    let split = split_types(&data, (8, 3, 5), 42).unwrap();
    let spec = EmbeddingSpec {
        dim: 20,
        ..EmbeddingSpec::default()
    };
    let enc = TokenEncoder::build(&[&data], &spec, 4);
    let bb = BackboneConfig {
        word_dim: 20,
        hidden: 12,
        phi_dim: 8,
        slot_ctx_dim: 4,
        ..BackboneConfig::default_for(3)
    };
    let meta = MetaConfig {
        meta_batch: 2,
        meta_lr: 1e-2,
        ..MetaConfig::default()
    };
    let task = EpisodeSampler::new(&split.test, 3, 1, 12)
        .unwrap()
        .eval_set(11, 1)
        .unwrap()
        .remove(0);
    let dir = std::env::temp_dir().join(format!("fewner-golden-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    Fixture {
        split,
        enc,
        bb,
        meta,
        task,
        dir,
    }
}

/// CRC of the φ file `ctx` saves to.
fn phi_crc(ctx: &AdaptedCtx, path: &Path) -> u32 {
    ctx.save(path).unwrap();
    file_crc(path)
}

/// CRC of one task gradient: the query loss, then every θ gradient as raw
/// f32 bits in parameter order (`0xff` marks a parameter with none).
fn task_grad_crc(outcome: &fewner::core::TaskOutcome) -> u32 {
    let mut bytes = outcome.loss.to_bits().to_le_bytes().to_vec();
    let grads = &outcome.grads;
    for i in 0..grads.len() {
        match grads.get_at(i) {
            Some(g) => g
                .data()
                .iter()
                .for_each(|v| bytes.extend(v.to_bits().to_le_bytes())),
            None => bytes.push(0xff),
        }
    }
    crc32(&bytes)
}

#[test]
fn checkpoint_phi_and_decode_bytes_match_the_pinned_crcs() {
    let Fixture {
        split,
        enc,
        bb,
        meta,
        task,
        dir,
    } = fixture("trained");
    let mut learner = Fewner::new(bb, &enc, meta.clone()).unwrap();
    let schedule = TrainConfig::new(3, 1).iterations(6).query_size(4).seed(5);
    Trainer::new()
        .train(&mut learner, &split.train, &enc, &meta, &schedule)
        .unwrap();

    let ckpt = dir.join("model.json");
    Checkpoint::capture(&learner).save(&ckpt).unwrap();

    let opts = ServeOptions::new();
    let ctx = learner.adapt(&task, &enc, &opts).unwrap();
    // The extend wave: the task's first three labelled query sentences.
    let wave = fewner::models::encode_batch(&enc, &task.query[..3], &task.tag_set());
    let extended = learner.extend(&ctx, &wave, &opts).unwrap();

    let mut actual = vec![
        ("checkpoint", file_crc(&ckpt), CHECKPOINT_CRC),
        ("phi", phi_crc(&ctx, &dir.join("phi.json")), PHI_CRC),
        (
            "extend phi",
            phi_crc(&extended, &dir.join("extend.json")),
            EXTEND_PHI_CRC,
        ),
        (
            "decode f32",
            decode_crc(&learner, &ctx, &task, &enc),
            DECODE_F32_CRC,
        ),
    ];
    let pristine = learner.theta.snapshot();
    for (name, format, expected) in [
        ("decode f16", WeightFormat::F16, DECODE_F16_CRC),
        ("decode i8", WeightFormat::I8, DECODE_I8_CRC),
    ] {
        learner.theta.quantize_all(format);
        actual.push((name, decode_crc(&learner, &ctx, &task, &enc), expected));
        learner.theta.restore(&pristine).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_pinned(&actual);
}

#[test]
fn untrained_concat_and_slot_lstm_phi_match_the_pinned_crcs() {
    let Fixture {
        enc,
        bb,
        meta,
        task,
        dir,
        ..
    } = fixture("untrained");
    let concat = BackboneConfig {
        conditioning: Conditioning::ConcatInput,
        ..bb.clone()
    };
    let slot_lstm = BackboneConfig {
        encoder: EncoderKind::BiLstm,
        head: HeadKind::SlotShared {
            slot_dim: 6,
            max_slots: 4,
        },
        ..bb
    };
    // The task gradient runs on a training tape with dropout and the
    // char-CNN on, through ConcatInput's head-side recurrent layer and
    // through the BiLSTM.
    assert!(bb.use_char_cnn && bb.dropout > 0.0);
    let mut actual = Vec::new();
    for (cfg, [phi, grads]) in [
        (
            concat,
            [
                ("concat phi", CONCAT_PHI_CRC),
                ("concat theta grads", CONCAT_THETA_GRAD_CRC),
            ],
        ),
        (
            slot_lstm,
            [
                ("slot-shared bilstm phi", SLOT_LSTM_PHI_CRC),
                ("slot-shared bilstm theta grads", SLOT_LSTM_THETA_GRAD_CRC),
            ],
        ),
    ] {
        let learner = Fewner::new(cfg, &enc, meta.clone()).unwrap();
        let ctx = learner.adapt(&task, &enc, &ServeOptions::new()).unwrap();
        actual.push((phi.0, phi_crc(&ctx, &dir.join("phi.json")), phi.1));
        let outcome = learner.task_grad(&task, &enc, &mut Rng::new(9)).unwrap();
        actual.push((grads.0, task_grad_crc(&outcome), grads.1));
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_pinned(&actual);
}
