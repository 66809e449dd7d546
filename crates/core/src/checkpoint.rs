//! Checkpointing: persist a meta-trained θ_Meta together with the
//! configurations needed to rebuild the exact same model.
//!
//! Algorithm 1 separates *training* (producing θ_Meta) from *adapting*
//! (consuming it); a real deployment trains once and adapts everywhere, so
//! θ_Meta must round-trip through storage byte-exactly. The checkpoint is a
//! single JSON document with one layout: backbone hyper-parameters, meta
//! hyper-parameters, and the named f32 parameter tensors. Every field is
//! required. Serving at reduced precision (`--weights f16|i8`) rounds a
//! loaded θ in memory ([`fewner_tensor::ParamStore::quantize_all`]); no
//! quantized checkpoint is written.

use std::path::Path;

use fewner_models::{BackboneConfig, Conditioning, EncoderKind, HeadKind, TokenEncoder};
use fewner_tensor::SavedParams;
use fewner_util::{Error, FromJson, Json, Result, ToJson};

use crate::config::MetaConfig;
use crate::fewner::Fewner;

/// A complete FEWNER checkpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Backbone hyper-parameters.
    pub backbone: BackboneConfig,
    /// Meta-learning hyper-parameters.
    pub meta: MetaConfig,
    /// θ_Meta tensors.
    pub theta: SavedParams,
}

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

impl Checkpoint {
    /// Captures a trained learner.
    pub fn capture(learner: &Fewner) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            backbone: learner.backbone.config().clone(),
            meta: learner.config().clone(),
            theta: learner.theta.to_saved(),
        }
    }

    /// Restores a learner; the encoder must be the one the model was
    /// trained with (vocabulary sizes are validated through θ's shapes).
    pub fn restore(&self, enc: &TokenEncoder) -> Result<Fewner> {
        if self.version != CHECKPOINT_VERSION {
            return Err(Error::Serde(format!(
                "unsupported checkpoint version {} (expected {CHECKPOINT_VERSION})",
                self.version
            )));
        }
        let mut learner = Fewner::new(self.backbone.clone(), enc, self.meta.clone())?;
        learner.theta.load_saved(&self.theta)?;
        Ok(learner)
    }

    /// Writes the checkpoint durably: the JSON payload is framed with a
    /// versioned header and CRC-32, written to a temp file, fsynced, and
    /// atomically renamed into place ([`fewner_util::durable`]). A reader
    /// can never observe a torn checkpoint, and filesystem failures surface
    /// as [`Error::Io`] with the offending path.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let json = self.to_json().to_string();
        fewner_util::durable::write_atomic(path, json.as_bytes())
    }

    /// Reads a checkpoint file, verifying the header and CRC before
    /// parsing: a truncated or bit-flipped file is rejected with a precise
    /// [`Error::Io`] instead of a confusing JSON parse error (or silently
    /// wrong parameters).
    pub fn load(path: impl AsRef<Path>) -> Result<Checkpoint> {
        let json = fewner_util::durable::read_verified_string(path)?;
        Checkpoint::from_json(&Json::parse(&json)?)
    }
}

impl ToJson for Checkpoint {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("version".into(), Json::from(self.version as u64)),
            ("backbone".into(), backbone_to_json(&self.backbone)),
            ("meta".into(), self.meta.to_json()),
            ("theta".into(), self.theta.to_json()),
        ])
    }
}

impl FromJson for Checkpoint {
    fn from_json(json: &Json) -> Result<Checkpoint> {
        Ok(Checkpoint {
            version: json.field("version")?.as_u32()?,
            backbone: backbone_from_json(json.field("backbone")?)?,
            meta: MetaConfig::from_json(json.field("meta")?)?,
            theta: SavedParams::from_json(json.field("theta")?)?,
        })
    }
}

/// The checkpoint's `"backbone"` object. The mapping lives here with the
/// checkpoint format, so the model crate stays serialisation-free.
fn backbone_to_json(c: &BackboneConfig) -> Json {
    let conditioning = match c.conditioning {
        Conditioning::None => "none",
        Conditioning::Film => "film",
        Conditioning::ConcatInput => "concat",
    };
    let encoder = match c.encoder {
        EncoderKind::BiGru => "bigru",
        EncoderKind::BiLstm => "bilstm",
    };
    let (kind, a, b) = match c.head {
        HeadKind::Dense { n_ways } => ("dense", n_ways, 0),
        HeadKind::SlotShared {
            slot_dim,
            max_slots,
        } => ("slot_shared", slot_dim, max_slots),
    };
    Json::Obj(vec![
        ("word_dim".into(), Json::from(c.word_dim)),
        ("char_dim".into(), Json::from(c.char_dim)),
        ("char_filters".into(), Json::from(c.char_filters)),
        (
            "char_widths".into(),
            Json::Arr(c.char_widths.iter().map(|&w| Json::from(w)).collect()),
        ),
        ("hidden".into(), Json::from(c.hidden)),
        ("phi_dim".into(), Json::from(c.phi_dim)),
        ("slot_ctx_dim".into(), Json::from(c.slot_ctx_dim)),
        ("conditioning".into(), Json::from(conditioning)),
        ("encoder".into(), Json::from(encoder)),
        ("dropout".into(), Json::from(c.dropout)),
        ("use_char_cnn".into(), Json::from(c.use_char_cnn)),
        (
            "head".into(),
            Json::Obj(vec![
                ("kind".into(), Json::from(kind)),
                ("a".into(), Json::from(a)),
                ("b".into(), Json::from(b)),
            ]),
        ),
    ])
}

/// Reads what [`backbone_to_json`] writes.
fn backbone_from_json(json: &Json) -> Result<BackboneConfig> {
    let conditioning = match json.field("conditioning")?.as_str()? {
        "none" => Conditioning::None,
        "film" => Conditioning::Film,
        "concat" => Conditioning::ConcatInput,
        other => return Err(Error::Serde(format!("unknown conditioning `{other}`"))),
    };
    let encoder = match json.field("encoder")?.as_str()? {
        "bigru" => EncoderKind::BiGru,
        "bilstm" => EncoderKind::BiLstm,
        other => return Err(Error::Serde(format!("unknown encoder `{other}`"))),
    };
    let head = json.field("head")?;
    let (a, b) = (head.field("a")?.as_usize()?, head.field("b")?.as_usize()?);
    let head = match head.field("kind")?.as_str()? {
        "dense" => HeadKind::Dense { n_ways: a },
        "slot_shared" => HeadKind::SlotShared {
            slot_dim: a,
            max_slots: b,
        },
        other => return Err(Error::Serde(format!("unknown head `{other}`"))),
    };
    Ok(BackboneConfig {
        word_dim: json.field("word_dim")?.as_usize()?,
        char_dim: json.field("char_dim")?.as_usize()?,
        char_filters: json.field("char_filters")?.as_usize()?,
        char_widths: json
            .field("char_widths")?
            .as_arr()?
            .iter()
            .map(Json::as_usize)
            .collect::<Result<Vec<_>>>()?,
        hidden: json.field("hidden")?.as_usize()?,
        phi_dim: json.field("phi_dim")?.as_usize()?,
        slot_ctx_dim: json.field("slot_ctx_dim")?.as_usize()?,
        conditioning,
        dropout: json.field("dropout")?.as_f32()?,
        use_char_cnn: json.field("use_char_cnn")?.as_bool()?,
        encoder,
        head,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fewner_corpus::DatasetProfile;
    use fewner_models::TokenEncoder;
    use fewner_text::embed::EmbeddingSpec;

    fn setup() -> (TokenEncoder, Fewner) {
        let d = DatasetProfile::bionlp13cg().generate(0.01).unwrap();
        let enc = TokenEncoder::build(
            &[&d],
            &EmbeddingSpec {
                dim: 16,
                ..EmbeddingSpec::default()
            },
            4,
        );
        let bb = BackboneConfig {
            word_dim: 16,
            hidden: 8,
            phi_dim: 6,
            slot_ctx_dim: 2,
            ..BackboneConfig::default_for(3)
        };
        let learner = Fewner::new(bb, &enc, MetaConfig::default()).unwrap();
        (enc, learner)
    }

    #[test]
    fn capture_restore_round_trip_preserves_theta() {
        let (enc, learner) = setup();
        let ckpt = Checkpoint::capture(&learner);
        let restored = ckpt.restore(&enc).unwrap();
        assert_eq!(learner.theta.snapshot(), restored.theta.snapshot());
        assert_eq!(
            learner.backbone.config().phi_total(),
            restored.backbone.config().phi_total()
        );
    }

    #[test]
    fn file_round_trip() {
        let (enc, learner) = setup();
        let dir = std::env::temp_dir().join("fewner-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        Checkpoint::capture(&learner).save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        let restored = loaded.restore(&enc).unwrap();
        assert_eq!(learner.theta.snapshot(), restored.theta.snapshot());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_and_bit_flipped_files_are_rejected_with_io_errors() {
        let (_, learner) = setup();
        let dir = std::env::temp_dir().join(format!("fewner-ckpt-bits-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        Checkpoint::capture(&learner).save(&path).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Truncation (a crash without atomic rename).
        std::fs::write(&path, &pristine[..pristine.len() / 2]).unwrap();
        assert!(matches!(Checkpoint::load(&path), Err(Error::Io { .. })));

        // A single flipped payload bit (silent disk corruption).
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x08;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(Checkpoint::load(&path), Err(Error::Io { .. })));

        // The pristine bytes still load.
        std::fs::write(&path, &pristine).unwrap();
        Checkpoint::load(&path).unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_file_is_an_io_error_with_the_path() {
        match Checkpoint::load("/nonexistent/fewner/model.json") {
            Err(Error::Io { path, .. }) => assert!(path.contains("model.json")),
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let (enc, learner) = setup();
        let mut ckpt = Checkpoint::capture(&learner);
        ckpt.version = 99;
        assert!(ckpt.restore(&enc).is_err());
    }

    #[test]
    fn config_mapping_round_trips_all_variants() {
        for cond in [
            Conditioning::None,
            Conditioning::Film,
            Conditioning::ConcatInput,
        ] {
            for head in [
                HeadKind::Dense { n_ways: 5 },
                HeadKind::SlotShared {
                    slot_dim: 8,
                    max_slots: 16,
                },
            ] {
                for (encoder, use_char_cnn) in
                    [(EncoderKind::BiGru, true), (EncoderKind::BiLstm, false)]
                {
                    let cfg = BackboneConfig {
                        conditioning: cond,
                        head,
                        encoder,
                        use_char_cnn,
                        phi_dim: if cond == Conditioning::None { 0 } else { 8 },
                        slot_ctx_dim: if cond == Conditioning::None { 0 } else { 4 },
                        ..BackboneConfig::default_for(5)
                    };
                    let json = backbone_to_json(&cfg);
                    let back = backbone_from_json(&json).unwrap();
                    assert_eq!(back.conditioning, cond);
                    assert_eq!(back.head, head);
                    assert_eq!(back.encoder, encoder);
                    assert_eq!(back.use_char_cnn, use_char_cnn);
                    assert_eq!(backbone_to_json(&back), json);
                }
            }
        }
    }

    #[test]
    fn malformed_strings_are_rejected() {
        let (_, learner) = setup();
        let text = backbone_to_json(learner.backbone.config()).to_string();
        for (good, bad) in [
            ("\"film\"", "\"quantum\""),
            ("\"bigru\"", "\"transformer\""),
            ("\"dense\"", "\"hydra\""),
        ] {
            assert!(text.contains(good), "{text}");
            let json = Json::parse(&text.replace(good, bad)).unwrap();
            assert!(
                matches!(backbone_from_json(&json), Err(Error::Serde(_))),
                "{bad} must be refused"
            );
        }
    }
}
