//! Golden bytes: numerics pinned across changes, not only within one build.
//!
//! The determinism suites compare two runs of the *same* build, so a change
//! that shifts every kernel's rounding passes all of them. This suite pins
//! CRC-32s of bytes the program produces from a fixed seed:
//!
//! * a tiny meta-trained checkpoint file (`Checkpoint::save`) — the tape's
//!   forward and backward kernels and the optimizers;
//! * the persisted φ of one adapted task (`AdaptedCtx::save`) — the inner
//!   loop;
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
use fewner::prelude::*;
use fewner::tensor::{Exec, Infer, WeightFormat};
use fewner::util::crc32;

const CHECKPOINT_CRC: u32 = 0x62e8_83e6;
const PHI_CRC: u32 = 0x4440_0377;
const DECODE_F32_CRC: u32 = 0x2216_cbdf;
const DECODE_F16_CRC: u32 = 0x7ea4_93aa;
const DECODE_I8_CRC: u32 = 0x48b9_7252;

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
    for (sent, gold) in &query {
        let bb = &learner.backbone;
        let hidden = bb.hidden(&ex, &learner.theta, Some(phi), sent, &mut rng);
        let nll = bb.nll(&ex, &learner.theta, Some(phi), sent, gold, &tags, &mut rng);
        for v in ex.value(hidden).data().iter().chain(ex.value(nll).data()) {
            bytes.extend(v.to_bits().to_le_bytes());
        }
    }
    crc32(&bytes)
}

#[test]
fn checkpoint_phi_and_decode_bytes_match_the_pinned_crcs() {
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
    let mut learner = Fewner::new(bb, &enc, meta.clone()).unwrap();
    let schedule = TrainConfig::new(3, 1).iterations(6).query_size(4).seed(5);
    Trainer::new()
        .train(&mut learner, &split.train, &enc, &meta, &schedule)
        .unwrap();

    let dir = std::env::temp_dir().join(format!("fewner-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("model.json");
    Checkpoint::capture(&learner).save(&ckpt).unwrap();

    let task = EpisodeSampler::new(&split.test, 3, 1, 12)
        .unwrap()
        .eval_set(11, 1)
        .unwrap()
        .remove(0);
    let ctx = learner.adapt(&task, &enc, &ServeOptions::new()).unwrap();
    let phi = dir.join("phi.json");
    ctx.save(&phi).unwrap();

    let mut actual = vec![
        ("checkpoint", file_crc(&ckpt), CHECKPOINT_CRC),
        ("phi", file_crc(&phi), PHI_CRC),
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
