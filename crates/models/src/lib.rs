//! `fewner-models` — the sequence-labeling backbone and all baseline models.
//!
//! * [`encoding`] — vocabularies + synthetic pre-trained embeddings.
//! * [`crf`] — linear-chain CRFs: the paper's dense head (Eq. 4) and a
//!   way-agnostic slot-shared head for the training-way ablation.
//! * [`backbone`] — CNN-BiGRU-CRF (θ) with FiLM / concatenation hooks for
//!   the context parameters φ (methods B and A of §3.2.4).
//! * [`protonet`] — token-level prototypical networks.
//! * [`snail`] — temporal-convolution + attention meta-learner.
//! * [`frozenlm`] — frozen contextual encoders + trainable CRF, standing in
//!   for the five pre-trained LM baselines.
//! * [`prep`] — episode → model-input conversion.
//!
//! The FineTune baseline needs no struct of its own: it is the backbone with
//! `Conditioning::None`, trained conventionally and fully fine-tuned at test
//! time (see `fewner-core`).

#![warn(missing_docs)]

pub mod backbone;
pub mod crf;
pub mod encoding;
pub mod frozenlm;
pub mod prep;
pub mod protonet;
pub mod snail;

pub use backbone::{
    Backbone, BackboneConfig, Conditioning, EncodedSupport, EncoderKind, HeadKind, TaskRows,
};
pub use crf::{crf_nll, viterbi, CrfHead, DenseCrf, SlotSharedCrf};
pub use encoding::{EncodedSentence, TokenEncoder};
pub use frozenlm::{FrozenLm, LmFlavor};
pub use prep::{encode_batch, encode_task, LabeledSentence};
pub use protonet::ProtoNet;
pub use snail::{Snail, SnailConfig};
