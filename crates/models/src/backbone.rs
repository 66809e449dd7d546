//! The CNN-BiGRU-CRF sequence-labeling backbone (paper §3.2.2, Fig. 3)
//! with FEWNER's conditioning hooks (§3.2.4, Fig. 4).
//!
//! All parameters registered here constitute θ, the task-independent part.
//! The task-specific context parameters φ live in a *separate* store (built
//! by [`Backbone::new_context`]) and enter the forward pass either by
//!
//! * **Method B (default)** — FiLM on the BiGRU output:
//!   `h ← (1 + γ) ⊙ h + η` with `[γ, η] = θ_FiLM · φ + b` (Eq. 8–9; the
//!   `1 +` keeps the untrained φ = 0 an identity, as in the CAVIA/FiLM
//!   literature), or
//! * **Method A (ablation)** — concatenating φ to every BiGRU input
//!   (Eq. 7).
//!
//! With [`Conditioning::None`] the same backbone serves FineTune, MAML and
//! the encoder of ProtoNet/SNAIL — the paper's point that FEWNER is
//! model-agnostic made concrete.
//!
//! Every forward pass is two stages split where φ first enters: a φ-free
//! **encode** and a φ-conditioned **head**. Under FiLM (and `None`) the
//! encode stage runs the embeddings, the char-CNN and the recurrent layer
//! with its dropouts, and the head applies FiLM, the slot context, the
//! emissions and the CRF. Under ConcatInput φ joins the recurrent input, so
//! the encode stage stops at the word and char features and the head runs
//! the recurrent layer. [`Backbone::nll`], [`Backbone::batch_loss`],
//! [`Backbone::hidden`] and [`Backbone::emissions`] compose the two on any
//! executor, one sentence at a time; FEWNER's inner loop runs the encode
//! stage once per support set ([`Backbone::encode_support`]) and only the
//! head on every φ step ([`Backbone::encoded_loss`]).
//!
//! Where no gradient is needed, a call's sentences go through one
//! **batched pass** on [`Infer`] instead ([`Backbone::hidden_task`], behind
//! [`Backbone::decode_task`] and [`Backbone::encode_support`]): every op
//! runs once over all tokens' rows, the char-CNN over all tokens'
//! character windows and the recurrent layer over all sentences at once,
//! longest first, each step over the sentences still running. The layers
//! have one forward body each, over stacked sequences; the per-sentence
//! path calls it with one sequence (one token's characters for the CNN),
//! so each sentence's rows are bitwise what the batched pass gives it,
//! since every op involved computes each row on its own. The tape path
//! stays per sentence: training's θ-gradient accumulation order follows
//! the tape's node order, and the per-sentence tape is the reference the
//! equivalence tests hold the batched pass to.

use std::sync::Arc;

use fewner_tensor::nn::{BiGru, BiLstm, Conv1d, Embedding, Linear};
use fewner_tensor::{Array, Exec, ExecMode, Infer, ParamId, ParamStore, Var};
use fewner_text::TagSet;
use fewner_util::{Error, Result, Rng};

use crate::crf::{DenseCrf, SlotSharedCrf};
use crate::encoding::{EncodedSentence, TokenEncoder};
use crate::prep::LabeledSentence;

/// How the context parameters φ condition the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conditioning {
    /// No conditioning (baselines).
    None,
    /// Method B: FiLM on the BiGRU output (the paper's default).
    Film,
    /// Method A: concatenate φ to each BiGRU input.
    ConcatInput,
}

/// Which recurrent context encoder the backbone uses.
///
/// The paper picks a BiGRU for computational cost (§3.2.2) while stressing
/// the approach is model-agnostic; the BiLSTM alternative makes that claim
/// testable without touching anything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncoderKind {
    /// The paper's bidirectional GRU.
    #[default]
    BiGru,
    /// A bidirectional LSTM of the same hidden size.
    BiLstm,
}

/// Which CRF head the backbone decodes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadKind {
    /// The paper's dense CRF for a fixed way-count.
    Dense {
        /// The (fixed) number of ways.
        n_ways: usize,
    },
    /// Way-agnostic slot-shared head (needed for the training-way ablation).
    SlotShared {
        /// Slot-embedding dimensionality.
        slot_dim: usize,
        /// Maximum supported ways.
        max_slots: usize,
    },
}

/// Hyper-parameters of the backbone.
#[derive(Debug, Clone)]
pub struct BackboneConfig {
    /// Word-embedding dimensionality (paper: 300; scaled default 50).
    pub word_dim: usize,
    /// Character-embedding dimensionality (paper: 100; scaled default 16).
    pub char_dim: usize,
    /// CNN filters per window width (paper: 150 total over widths 2,3,4).
    pub char_filters: usize,
    /// CNN window widths.
    pub char_widths: Vec<usize>,
    /// GRU hidden size per direction (paper: 128; scaled default 48).
    pub hidden: usize,
    /// Context-parameter dimensionality of the global (FiLM / concat) part
    /// of φ (paper: 256; scaled default 32).
    pub phi_dim: usize,
    /// Per-slot context width: φ additionally carries `max_ways ×
    /// slot_ctx_dim` entries that condition the emission layer per class
    /// slot (0 disables). §3.2.4 leaves the conditioning site open ("where
    /// and how to condition the backbone network"); conditioning the
    /// emission layer as well as the BiGRU output is what lets the inner
    /// loop bind class slots quickly at the reproduction's reduced scale.
    pub slot_ctx_dim: usize,
    /// Conditioning method.
    pub conditioning: Conditioning,
    /// Dropout after the representation and recurrent layers (paper: 0.3).
    pub dropout: f32,
    /// Ablation switch: remove the character CNN entirely.
    pub use_char_cnn: bool,
    /// Recurrent context encoder (BiGRU per the paper, or BiLSTM).
    pub encoder: EncoderKind,
    /// CRF head.
    pub head: HeadKind,
}

impl BackboneConfig {
    /// The number of class slots φ's per-slot block must cover.
    pub fn max_ways(&self) -> usize {
        match self.head {
            HeadKind::Dense { n_ways } => n_ways,
            HeadKind::SlotShared { max_slots, .. } => max_slots,
        }
    }

    /// Total φ dimensionality: global part + per-slot block.
    pub fn phi_total(&self) -> usize {
        self.phi_dim + self.max_ways() * self.slot_ctx_dim
    }

    /// Checks that the CRF head can label an `n_ways`-way task: a dense
    /// head takes exactly its own way count, a slot-shared head any count
    /// in `1..=max_slots`.
    pub fn check_ways(&self, n_ways: usize) -> Result<()> {
        match self.head {
            HeadKind::Dense { n_ways: fixed } if n_ways != fixed => Err(Error::InvalidConfig(
                format!("ways must be {fixed} for this model's dense head, got {n_ways}"),
            )),
            HeadKind::SlotShared { max_slots, .. } if !(1..=max_slots).contains(&n_ways) => Err(
                Error::InvalidConfig(format!("ways must be in 1..={max_slots}, got {n_ways}")),
            ),
            _ => Ok(()),
        }
    }

    /// The scaled-down default used throughout the reproduction.
    pub fn default_for(n_ways: usize) -> BackboneConfig {
        BackboneConfig {
            word_dim: 50,
            char_dim: 16,
            char_filters: 16,
            char_widths: vec![2, 3, 4],
            hidden: 48,
            phi_dim: 32,
            slot_ctx_dim: 8,
            conditioning: Conditioning::Film,
            dropout: 0.3,
            use_char_cnn: true,
            encoder: EncoderKind::BiGru,
            head: HeadKind::Dense { n_ways },
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<()> {
        if self.word_dim == 0 || self.hidden == 0 {
            return Err(Error::InvalidConfig("zero-sized backbone layer".into()));
        }
        if self.use_char_cnn && (self.char_widths.is_empty() || self.char_filters == 0) {
            return Err(Error::InvalidConfig("char CNN enabled but empty".into()));
        }
        if self.conditioning != Conditioning::None && self.phi_dim == 0 {
            return Err(Error::InvalidConfig(
                "conditioning requires phi_dim > 0".into(),
            ));
        }
        Ok(())
    }
}

enum Head {
    Dense(DenseCrf),
    SlotShared(SlotSharedCrf),
}

enum SeqEncoder {
    Gru(BiGru),
    Lstm(BiLstm),
}

impl SeqEncoder {
    fn apply<E: Exec>(&self, g: &E, store: &ParamStore, x: Var, lens: &[usize]) -> Var {
        match self {
            SeqEncoder::Gru(e) => e.apply(g, store, x, lens),
            SeqEncoder::Lstm(e) => e.apply(g, store, x, lens),
        }
    }
}

/// One sentence's state where φ first enters the network: the output of
/// the φ-free encode stage.
#[derive(Debug, Clone, Copy)]
enum Encoded<T> {
    /// FiLM and no conditioning: the recurrent layer's output `[L, 2H]`
    /// after its dropout.
    Hidden(T),
    /// ConcatInput: the word features and, with the char-CNN on, the char
    /// features — the column blocks φ's rows are concatenated to.
    Tokens(T, Option<T>),
}

impl<T> Encoded<T> {
    fn map<U>(&self, mut f: impl FnMut(&T) -> U) -> Encoded<U> {
        match self {
            Encoded::Hidden(h) => Encoded::Hidden(f(h)),
            Encoded::Tokens(words, chars) => Encoded::Tokens(f(words), chars.as_ref().map(f)),
        }
    }
}

/// A support set run through the φ-free encode stage once, on [`Infer`]
/// (bitwise equal to the tape), so each inner-loop step only runs the
/// φ-conditioned head ([`Backbone::encoded_loss`]). Built by
/// [`Backbone::encode_support`] and valid for the θ it was encoded with.
pub struct EncodedSupport<'a> {
    support: &'a [LabeledSentence],
    states: Vec<Encoded<Arc<Array>>>,
}

/// Every sentence of one call after the batched pass on [`Infer`]: hidden
/// states and emission scores, stacked in the caller's sentence order.
/// Built by [`Backbone::hidden_task`].
pub struct TaskRows {
    /// Sentence `i` is rows `offsets[i]..offsets[i + 1]`.
    offsets: Vec<usize>,
    hidden: Arc<Array>,
    emissions: Arc<Array>,
}

impl TaskRows {
    /// Number of sentences.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the call had no sentences.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sentence `i`'s hidden states `[L, 2H]`, row-major.
    pub fn hidden(&self, i: usize) -> &[f32] {
        self.rows(&self.hidden, i)
    }

    /// Sentence `i`'s emission scores `[L, 2N+1]`, row-major.
    pub fn emissions(&self, i: usize) -> &[f32] {
        self.rows(&self.emissions, i)
    }

    fn rows<'a>(&self, a: &'a Array, i: usize) -> &'a [f32] {
        &a.data()[self.offsets[i] * a.cols()..self.offsets[i + 1] * a.cols()]
    }
}

/// Sentence-independent, φ-conditioned quantities for one task.
///
/// Everything here depends only on φ (and the tag set), not on the
/// sentence, so batched decoding computes it once per adapted task instead
/// of once per query sentence.
struct TaskCtx {
    /// The global part of φ (`[1, phi_dim]`), for ConcatInput and FiLM.
    global: Option<Var>,
    /// FiLM rows `(γ, η)` with γ already offset by 1.
    film: Option<(Var, Var)>,
    /// Transposed active slot-context rows `[slot_ctx_dim, n]`.
    active_t: Option<Var>,
}

/// The θ network: embeddings, char-CNN, BiGRU, FiLM generator and CRF head.
pub struct Backbone {
    cfg: BackboneConfig,
    word_emb: Embedding,
    char_emb: Option<Embedding>,
    char_cnn: Option<Conv1d>,
    encoder: SeqEncoder,
    film_gen: Option<Linear>,
    slot_ctx: Option<Linear>,
    head: Head,
}

impl Backbone {
    /// Registers all θ parameters in `store`, seeding word embeddings from
    /// the encoder's pre-trained table (fine-tuned during training, §4.1.3).
    pub fn new(
        cfg: BackboneConfig,
        enc: &TokenEncoder,
        store: &mut ParamStore,
        rng: &mut Rng,
    ) -> Result<Backbone> {
        cfg.validate()?;
        if enc.dim() != cfg.word_dim {
            return Err(Error::InvalidConfig(format!(
                "encoder dim {} != cfg.word_dim {}",
                enc.dim(),
                cfg.word_dim
            )));
        }
        let word_emb = Embedding::from_array(store, "words", enc.pretrained.clone());
        let (char_emb, char_cnn, char_out) = if cfg.use_char_cnn {
            let ce = Embedding::new(store, "chars", enc.chars.len(), cfg.char_dim, rng);
            let cnn = Conv1d::new(
                store,
                "charcnn",
                cfg.char_dim,
                &cfg.char_widths,
                cfg.char_filters,
                rng,
            );
            let out = cnn.out_dim();
            (Some(ce), Some(cnn), out)
        } else {
            (None, None, 0)
        };

        let mut in_dim = cfg.word_dim + char_out;
        if cfg.conditioning == Conditioning::ConcatInput {
            in_dim += cfg.phi_dim;
        }
        let encoder = match cfg.encoder {
            EncoderKind::BiGru => {
                SeqEncoder::Gru(BiGru::new(store, "bigru", in_dim, cfg.hidden, rng))
            }
            EncoderKind::BiLstm => {
                SeqEncoder::Lstm(BiLstm::new(store, "bilstm", in_dim, cfg.hidden, rng))
            }
        };
        let film_gen = (cfg.conditioning == Conditioning::Film)
            .then(|| Linear::new(store, "film", cfg.phi_dim, 4 * cfg.hidden, true, rng));
        let slot_ctx =
            (cfg.conditioning != Conditioning::None && cfg.slot_ctx_dim > 0).then(|| {
                Linear::new(
                    store,
                    "slotctx",
                    2 * cfg.hidden,
                    cfg.slot_ctx_dim,
                    false,
                    rng,
                )
            });

        let head = match cfg.head {
            HeadKind::Dense { n_ways } => {
                Head::Dense(DenseCrf::new(store, "crf", 2 * cfg.hidden, n_ways, rng))
            }
            HeadKind::SlotShared {
                slot_dim,
                max_slots,
            } => Head::SlotShared(SlotSharedCrf::new(
                store,
                "crf",
                2 * cfg.hidden,
                slot_dim,
                max_slots,
                rng,
            )),
        };

        Ok(Backbone {
            cfg,
            word_emb,
            char_emb,
            char_cnn,
            encoder,
            film_gen,
            slot_ctx,
            head,
        })
    }

    /// The configuration this backbone was built with.
    pub fn config(&self) -> &BackboneConfig {
        &self.cfg
    }

    /// Creates a fresh context-parameter store holding φ (initialised to
    /// **0**, re-zeroed per task via `ParamStore::zero_all` — Algorithm 1).
    pub fn new_context(&self) -> (ParamStore, ParamId) {
        let mut store = ParamStore::new();
        let id = store.add("phi", fewner_tensor::Array::zeros(1, self.cfg.phi_total()));
        (store, id)
    }

    /// The φ-derived quantities that feed the input and recurrent layers
    /// (no slot contexts — those additionally depend on the tag set).
    fn phi_ctx<E: Exec>(&self, g: &E, theta: &ParamStore, phi: Option<Var>) -> TaskCtx {
        let global = match self.cfg.conditioning {
            Conditioning::None => None,
            Conditioning::Film => {
                let phi = phi.expect("Film conditioning requires phi");
                Some(g.slice_cols(phi, 0, self.cfg.phi_dim))
            }
            Conditioning::ConcatInput => {
                let phi = phi.expect("ConcatInput conditioning requires phi");
                Some(g.slice_cols(phi, 0, self.cfg.phi_dim))
            }
        };
        let film = self.film_gen.as_ref().map(|film| {
            let ge = film.apply(g, theta, global.expect("Film conditioning requires phi"));
            let gamma = g.add_scalar(g.slice_cols(ge, 0, 2 * self.cfg.hidden), 1.0);
            let eta = g.slice_cols(ge, 2 * self.cfg.hidden, 2 * self.cfg.hidden);
            (gamma, eta)
        });
        TaskCtx {
            global,
            film,
            active_t: None,
        }
    }

    /// Full per-task context: [`Backbone::phi_ctx`] plus the transposed
    /// active slot-context rows used by the emission layer.
    fn task_ctx<E: Exec>(
        &self,
        g: &E,
        theta: &ParamStore,
        phi: Option<Var>,
        tags: &TagSet,
    ) -> TaskCtx {
        let mut ctx = self.phi_ctx(g, theta, phi);
        if let (Some(_), Some(phi)) = (&self.slot_ctx, phi) {
            // φ's per-slot block, reshaped to [max_ways, slot_ctx_dim]; the
            // active n slots score each token via a shared projection of h.
            let n = tags.n_ways();
            let ds = self.cfg.slot_ctx_dim;
            let block = g.slice_cols(phi, self.cfg.phi_dim, self.cfg.max_ways() * ds);
            let slots = g.reshape(block, self.cfg.max_ways(), ds);
            let active = g.gather_rows(slots, &(0..n).collect::<Vec<_>>());
            ctx.active_t = Some(g.transpose(active));
        }
        ctx
    }

    /// The φ-free encode stage of one sentence (see the module docs).
    fn encode<E: Exec>(
        &self,
        g: &E,
        theta: &ParamStore,
        sent: &EncodedSentence,
        rng: &mut Rng,
    ) -> Encoded<Var> {
        assert!(!sent.is_empty(), "empty sentence");
        let words = self.word_emb.apply(g, theta, &sent.word_ids);
        let chars = match (&self.char_emb, &self.char_cnn) {
            (Some(ce), Some(cnn)) => {
                let rows: Vec<Var> = sent
                    .char_ids
                    .iter()
                    .map(|ids| cnn.apply(g, theta, ce.apply(g, theta, ids), &[ids.len()]))
                    .collect();
                Some(g.concat_rows(&rows))
            }
            _ => None,
        };
        self.encoded(g, words, chars, |x| self.recur(g, theta, x, rng))
    }

    /// [`Backbone::encode`] of every sentence at once on [`Infer`]: each op
    /// runs once over all tokens' rows, stacked in the sentences' order
    /// (`lens[i]` rows for sentence `i`). Dropout is inert on `Infer`, so
    /// the recurrent layer runs without it.
    fn encode_batched(
        &self,
        ex: &Infer,
        theta: &ParamStore,
        sents: &[&EncodedSentence],
        lens: &[usize],
    ) -> Encoded<Var> {
        let word_ids: Vec<usize> = sents.iter().flat_map(|s| &s.word_ids).copied().collect();
        let words = self.word_emb.apply(ex, theta, &word_ids);
        let chars = match (&self.char_emb, &self.char_cnn) {
            (Some(ce), Some(cnn)) => {
                let tokens = || sents.iter().flat_map(|s| &s.char_ids);
                let ids: Vec<usize> = tokens().flatten().copied().collect();
                let widths: Vec<usize> = tokens().map(Vec::len).collect();
                Some(cnn.apply(ex, theta, ce.apply(ex, theta, &ids), &widths))
            }
            _ => None,
        };
        self.encoded(ex, words, chars, |x| self.encoder.apply(ex, theta, x, lens))
    }

    /// The encode stage's state from the word and char features: the
    /// features themselves under ConcatInput, else their concatenation run
    /// through `recur`.
    fn encoded<E: Exec>(
        &self,
        g: &E,
        words: Var,
        chars: Option<Var>,
        recur: impl FnOnce(Var) -> Var,
    ) -> Encoded<Var> {
        if self.cfg.conditioning == Conditioning::ConcatInput {
            return Encoded::Tokens(words, chars);
        }
        let x = match chars {
            Some(chars) => g.concat_cols(&[words, chars]),
            None => words,
        };
        Encoded::Hidden(recur(x))
    }

    /// The recurrent layer between its input and output dropouts:
    /// `[L, in] → [L, 2H]`.
    fn recur<E: Exec>(&self, g: &E, theta: &ParamStore, x: Var, rng: &mut Rng) -> Var {
        let x = g.dropout(x, self.cfg.dropout, rng);
        let h = self.encoder.apply(g, theta, x, &[g.shape(x).0]);
        g.dropout(h, self.cfg.dropout, rng)
    }

    /// The φ-conditioned head up to the hidden states: FiLM on an encoded
    /// `Hidden` state, or (ConcatInput) φ's row joined to every token's
    /// features and run through the recurrent layer by `recur`.
    fn condition<E: Exec>(
        &self,
        g: &E,
        ctx: &TaskCtx,
        x: Encoded<Var>,
        recur: impl FnOnce(Var) -> Var,
    ) -> Var {
        match x {
            Encoded::Hidden(h) => match ctx.film {
                Some((gamma, eta)) => g.film(h, gamma, eta),
                None => h,
            },
            Encoded::Tokens(words, chars) => {
                let global = ctx.global.expect("ConcatInput conditioning requires phi");
                // Broadcast φ over tokens by explicit row stacking.
                let copies = vec![global; g.shape(words).0];
                let phi_rows = g.concat_rows(&copies);
                let x = match chars {
                    Some(chars) => g.concat_cols(&[words, chars, phi_rows]),
                    None => g.concat_cols(&[words, phi_rows]),
                };
                recur(x)
            }
        }
    }

    /// Contextual hidden states `[L, 2H]` under a pre-computed task context.
    fn hidden_ctx<E: Exec>(
        &self,
        g: &E,
        theta: &ParamStore,
        ctx: &TaskCtx,
        sent: &EncodedSentence,
        rng: &mut Rng,
    ) -> Var {
        let x = self.encode(g, theta, sent, rng);
        self.condition(g, ctx, x, |x| self.recur(g, theta, x, rng))
    }

    /// Contextual hidden states `[L, 2H]`, conditioned on φ when given.
    ///
    /// Dropout follows the executor's [`fewner_tensor::ExecMode`]: active on
    /// a training tape (`Graph::new`), inert on `Graph::eval()` and [`Infer`].
    pub fn hidden<E: Exec>(
        &self,
        g: &E,
        theta: &ParamStore,
        phi: Option<Var>,
        sent: &EncodedSentence,
        rng: &mut Rng,
    ) -> Var {
        let ctx = self.phi_ctx(g, theta, phi);
        self.hidden_ctx(g, theta, &ctx, sent, rng)
    }

    /// Emission scores `[L, 2N+1]` of one sentence, conditioned on φ when
    /// given: the scores [`Backbone::nll`] and the decoders read.
    pub fn emissions<E: Exec>(
        &self,
        g: &E,
        theta: &ParamStore,
        phi: Option<Var>,
        sent: &EncodedSentence,
        tags: &TagSet,
        rng: &mut Rng,
    ) -> Var {
        let ctx = self.task_ctx(g, theta, phi, tags);
        let h = self.hidden_ctx(g, theta, &ctx, sent, rng);
        self.emissions_ctx(g, theta, &ctx, h, tags)
    }

    /// Emission scores including the per-slot context conditioning.
    fn emissions_ctx<E: Exec>(
        &self,
        g: &E,
        theta: &ParamStore,
        ctx: &TaskCtx,
        h: Var,
        tags: &TagSet,
    ) -> Var {
        use crate::crf::CrfHead as _;
        let base = match &self.head {
            Head::Dense(c) => c.emissions(g, theta, h, tags),
            Head::SlotShared(c) => c.emissions(g, theta, h, tags),
        };
        let (Some(slot_ctx), Some(active_t)) = (&self.slot_ctx, ctx.active_t) else {
            return base;
        };
        let n = tags.n_ways();
        let proj = slot_ctx.apply(g, theta, h); // [L, ds]
        let extra = g.matmul(proj, active_t); // [L, n]
                                              // Expand to the tag layout [O, B-0, I-0, B-1, I-1, …]: the O column
                                              // is untouched; B and I of slot s share the slot's context score.
        let len = g.shape(h).0;
        let mut cols: Vec<Var> = Vec::with_capacity(tags.len());
        cols.push(g.constant(fewner_tensor::Array::zeros(len, 1)));
        for s in 0..n {
            let c = g.slice_cols(extra, s, 1);
            cols.push(c);
            cols.push(c);
        }
        g.add(base, g.concat_cols(&cols))
    }

    /// The head's transition scores `[T, T]` and start scores `[1, T]`
    /// for a `T`-tag set.
    pub fn transitions<E: Exec>(&self, g: &E, theta: &ParamStore, tags: &TagSet) -> (Var, Var) {
        use crate::crf::CrfHead as _;
        match &self.head {
            Head::Dense(c) => c.transitions(g, theta, tags),
            Head::SlotShared(c) => c.transitions(g, theta, tags),
        }
    }

    /// Sequence NLL of one sentence from its encoded state.
    #[allow(clippy::too_many_arguments)]
    fn encoded_nll<E: Exec>(
        &self,
        g: &E,
        theta: &ParamStore,
        ctx: &TaskCtx,
        x: Encoded<Var>,
        gold: &[usize],
        tags: &TagSet,
        rng: &mut Rng,
    ) -> Var {
        let h = self.condition(g, ctx, x, |x| self.recur(g, theta, x, rng));
        let e = self.emissions_ctx(g, theta, ctx, h, tags);
        let (trans, start) = self.transitions(g, theta, tags);
        crate::crf::crf_nll(g, e, trans, start, gold)
    }

    /// Sequence NLL of one sentence (`gold` are tag indices).
    #[allow(clippy::too_many_arguments)]
    pub fn nll<E: Exec>(
        &self,
        g: &E,
        theta: &ParamStore,
        phi: Option<Var>,
        sent: &EncodedSentence,
        gold: &[usize],
        tags: &TagSet,
        rng: &mut Rng,
    ) -> Var {
        let ctx = self.task_ctx(g, theta, phi, tags);
        let x = self.encode(g, theta, sent, rng);
        self.encoded_nll(g, theta, &ctx, x, gold, tags, rng)
    }

    /// Mean sequence NLL over a batch — the per-task loss `L(θ, φ)`.
    #[allow(clippy::too_many_arguments)]
    pub fn batch_loss<E: Exec>(
        &self,
        g: &E,
        theta: &ParamStore,
        phi: Option<Var>,
        batch: &[(EncodedSentence, Vec<usize>)],
        tags: &TagSet,
        rng: &mut Rng,
    ) -> Var {
        assert!(!batch.is_empty(), "empty batch");
        let losses: Vec<Var> = batch
            .iter()
            .map(|(s, gold)| self.nll(g, theta, phi, s, gold, tags, rng))
            .collect();
        let total = g.concat_cols(&losses);
        g.mean_all(total)
    }

    /// Runs every support sentence through the φ-free encode stage once,
    /// in one batched pass on [`Infer`], for [`Backbone::encoded_loss`] to
    /// start from.
    pub fn encode_support<'a>(
        &self,
        theta: &ParamStore,
        support: &'a [LabeledSentence],
    ) -> EncodedSupport<'a> {
        let sents: Vec<&EncodedSentence> = support.iter().map(|(sent, _)| sent).collect();
        let lens = sentence_lens(&sents);
        if sents.is_empty() {
            return EncodedSupport {
                support,
                states: Vec::new(),
            };
        }
        let ex = Infer::new();
        let states = match self.encode_batched(&ex, theta, &sents, &lens) {
            Encoded::Hidden(h) => split_rows(&ex.value(h), &lens)
                .into_iter()
                .map(Encoded::Hidden)
                .collect(),
            Encoded::Tokens(words, chars) => {
                let mut chars = chars.map(|c| split_rows(&ex.value(c), &lens).into_iter());
                split_rows(&ex.value(words), &lens)
                    .into_iter()
                    .map(|w| Encoded::Tokens(w, chars.as_mut().and_then(Iterator::next)))
                    .collect()
            }
        };
        EncodedSupport { support, states }
    }

    /// [`Backbone::batch_loss`] over an encoded support set on a
    /// dropout-free executor: only the φ-conditioned head runs, from the
    /// encoded states. Values, and the order in which φ's gradient
    /// accumulates, equal `batch_loss` over the same support: the task
    /// context is built per sentence, as [`Backbone::nll`] builds it.
    pub fn encoded_loss<E: Exec>(
        &self,
        g: &E,
        theta: &ParamStore,
        phi: Var,
        encoded: &EncodedSupport<'_>,
        tags: &TagSet,
    ) -> Var {
        assert_eq!(
            g.mode(),
            ExecMode::Eval,
            "the encoded states are dropout-free"
        );
        assert!(!encoded.support.is_empty(), "empty batch");
        let mut rng = Rng::new(0); // eval mode: dropout inert, rng unused
        let losses: Vec<Var> = encoded
            .support
            .iter()
            .zip(&encoded.states)
            .map(|((_, gold), state)| {
                let ctx = self.task_ctx(g, theta, Some(phi), tags);
                let x = state.map(|a| g.constant((**a).clone()));
                self.encoded_nll(g, theta, &ctx, x, gold, tags, &mut rng)
            })
            .collect();
        let total = g.concat_cols(&losses);
        g.mean_all(total)
    }

    /// Hidden states and emission scores of every sentence of one call,
    /// from one batched pass on [`Infer`]. The char-CNN runs over all
    /// tokens' character windows at once, the recurrent layer steps all
    /// sentences together (longest first, each step over the sentences
    /// still running), and FiLM, the slot context and the emissions run
    /// once over all tokens' rows. The φ-conditioned projections are
    /// computed once per call. Each sentence's rows are bitwise what
    /// [`Backbone::hidden`] and [`Backbone::emissions`] give it alone.
    pub fn hidden_task<'a, I>(
        &self,
        theta: &ParamStore,
        phi_store: Option<(&ParamStore, ParamId)>,
        sents: I,
        tags: &TagSet,
    ) -> TaskRows
    where
        I: IntoIterator<Item = &'a EncodedSentence>,
    {
        let sents: Vec<&EncodedSentence> = sents.into_iter().collect();
        let lens = sentence_lens(&sents);
        let offsets = std::iter::once(0)
            .chain(lens.iter().scan(0, |end, &len| {
                *end += len;
                Some(*end)
            }))
            .collect();
        if sents.is_empty() {
            let none = Arc::new(Array::zeros(0, 0));
            return TaskRows {
                offsets,
                hidden: Arc::clone(&none),
                emissions: none,
            };
        }
        let ex = Infer::new();
        let phi = phi_store.map(|(s, id)| ex.param(s, id));
        let ctx = self.task_ctx(&ex, theta, phi, tags);
        let x = self.encode_batched(&ex, theta, &sents, &lens);
        let h = self.condition(&ex, &ctx, x, |x| self.encoder.apply(&ex, theta, x, &lens));
        let e = self.emissions_ctx(&ex, theta, &ctx, h, tags);
        TaskRows {
            offsets,
            hidden: ex.value(h),
            emissions: ex.value(e),
        }
    }

    /// Viterbi-decodes every sentence of one call: [`Backbone::hidden_task`]
    /// once, then Viterbi per sentence on that sentence's emission rows.
    /// Paths are bitwise identical to decoding each sentence on its own
    /// tape.
    pub fn decode_task<'a, I>(
        &self,
        theta: &ParamStore,
        phi_store: Option<(&ParamStore, ParamId)>,
        sents: I,
        tags: &TagSet,
    ) -> Vec<Vec<usize>>
    where
        I: IntoIterator<Item = &'a EncodedSentence>,
    {
        let rows = self.hidden_task(theta, phi_store, sents, tags);
        let ex = Infer::new();
        let (trans, start) = self.transitions(&ex, theta, tags);
        let (trans, start) = (ex.value(trans), ex.value(start));
        (0..rows.len())
            .map(|i| crate::crf::viterbi(rows.emissions(i), &trans, &start, tags))
            .collect()
    }

    /// Viterbi-decodes one sentence to tag indices.
    pub fn decode(
        &self,
        theta: &ParamStore,
        phi_store: Option<(&ParamStore, ParamId)>,
        sent: &EncodedSentence,
        tags: &TagSet,
    ) -> Vec<usize> {
        self.decode_task(theta, phi_store, std::iter::once(sent), tags)
            .pop()
            .expect("decode_task returns one path per sentence")
    }
}

/// Each sentence's token count; a sentence must have at least one token.
fn sentence_lens(sents: &[&EncodedSentence]) -> Vec<usize> {
    sents
        .iter()
        .map(|sent| {
            assert!(!sent.is_empty(), "empty sentence");
            sent.len()
        })
        .collect()
}

/// Splits stacked rows into consecutive blocks of `lens[i]` rows.
fn split_rows(a: &Array, lens: &[usize]) -> Vec<Arc<Array>> {
    let cols = a.cols();
    let mut first = 0;
    lens.iter()
        .map(|&len| {
            let block = a.data()[first * cols..(first + len) * cols].to_vec();
            first += len;
            Arc::new(Array::from_vec(len, cols, block))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fewner_corpus::DatasetProfile;
    use fewner_tensor::Graph;
    use fewner_text::embed::EmbeddingSpec;

    fn setup(cond: Conditioning) -> (TokenEncoder, Backbone, ParamStore, Rng) {
        let d = DatasetProfile::bionlp13cg().generate(0.005).unwrap();
        let spec = EmbeddingSpec {
            dim: 20,
            ..EmbeddingSpec::default()
        };
        let enc = TokenEncoder::build(&[&d], &spec, 4);
        let mut rng = Rng::new(13);
        let mut store = ParamStore::new();
        let cfg = BackboneConfig {
            word_dim: 20,
            char_dim: 8,
            char_filters: 6,
            char_widths: vec![2, 3],
            hidden: 12,
            phi_dim: 10,
            slot_ctx_dim: 4,
            conditioning: cond,
            dropout: 0.3,
            use_char_cnn: true,
            encoder: EncoderKind::BiGru,
            head: HeadKind::Dense { n_ways: 3 },
        };
        let bb = Backbone::new(cfg, &enc, &mut store, &mut rng).unwrap();
        (enc, bb, store, rng)
    }

    fn sample_sentence(enc: &TokenEncoder) -> EncodedSentence {
        enc.encode(&[
            "the".to_string(),
            "Protein".to_string(),
            "binding".to_string(),
            "assay".to_string(),
        ])
    }

    #[test]
    fn forward_shapes_for_all_conditioning_modes() {
        for cond in [
            Conditioning::None,
            Conditioning::Film,
            Conditioning::ConcatInput,
        ] {
            let (enc, bb, store, mut rng) = setup(cond);
            let sent = sample_sentence(&enc);
            let g = Graph::eval();
            let phi = if cond == Conditioning::None {
                None
            } else {
                let (ps, id) = bb.new_context();
                // Bind via constant copy (the store is dropped here).
                Some(g.constant((**ps.value(id)).clone()))
            };
            let h = bb.hidden(&g, &store, phi, &sent, &mut rng);
            assert_eq!(g.shape(h), (4, 24));
        }
    }

    #[test]
    fn zero_phi_film_is_identity_of_unconditioned_network() {
        // With φ = 0 and zero-initialised FiLM bias, γ = 1, η = b ≈ 0 only
        // if film bias is zero — our Linear biases start at zero, so FiLM
        // must be an exact identity at initialisation.
        let (enc, bb, store, mut rng) = setup(Conditioning::Film);
        let sent = sample_sentence(&enc);
        let (phi_store, phi_id) = bb.new_context();

        let g = Graph::eval();
        let phi = g.param(&phi_store, phi_id);
        let h_cond = bb.hidden(&g, &store, Some(phi), &sent, &mut rng);

        // The unconditioned hidden state: the encode stage alone, on a
        // second graph.
        let g2 = Graph::eval();
        let Encoded::Hidden(h_plain) = bb.encode(&g2, &store, &sent, &mut rng) else {
            panic!("FiLM encodes to hidden states");
        };

        let (a, b) = (g.value(h_cond), g2.value(h_plain));
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn phi_changes_the_output_once_nonzero() {
        let (enc, bb, store, mut rng) = setup(Conditioning::Film);
        let sent = sample_sentence(&enc);
        let (mut phi_store, phi_id) = bb.new_context();
        let g = Graph::eval();
        let h0 = bb.hidden(
            &g,
            &store,
            Some(g.param(&phi_store, phi_id)),
            &sent,
            &mut rng,
        );
        let v0 = g.value(h0);

        phi_store.set(
            phi_id,
            fewner_tensor::Array::full(1, bb.config().phi_total(), 0.5),
        );
        let g1 = Graph::eval();
        let h1 = bb.hidden(
            &g1,
            &store,
            Some(g1.param(&phi_store, phi_id)),
            &sent,
            &mut rng,
        );
        let v1 = g1.value(h1);
        assert_ne!(v0.data(), v1.data());
    }

    #[test]
    fn phi_gradients_flow_and_theta_gradients_flow() {
        let (enc, bb, store, mut rng) = setup(Conditioning::Film);
        let sent = sample_sentence(&enc);
        let tags = TagSet::new(3).unwrap();
        let (phi_store, phi_id) = bb.new_context();
        let g = Graph::eval();
        let phi = g.param(&phi_store, phi_id);
        let gold = vec![0usize; sent.len()];
        let nll = bb.nll(&g, &store, Some(phi), &sent, &gold, &tags, &mut rng);
        let grads = g.backward(nll).unwrap();
        let phi_grads = grads.for_store(&phi_store);
        assert!(
            phi_grads.get(phi_id).is_some(),
            "phi must receive gradients"
        );
        let theta_grads = grads.for_store(&store);
        let n_with = (0..store.len())
            .filter(|&i| theta_grads.get_at(i).is_some())
            .count();
        assert!(n_with > store.len() / 2, "theta gradients flow broadly");
    }

    #[test]
    fn decode_produces_valid_bio() {
        let (enc, bb, store, _) = setup(Conditioning::None);
        let sent = sample_sentence(&enc);
        let tags = TagSet::new(3).unwrap();
        let path = bb.decode(&store, None, &sent, &tags);
        assert_eq!(path.len(), sent.len());
        let decoded: Vec<fewner_text::Tag> = path.iter().map(|&i| tags.tag(i)).collect();
        fewner_text::validate_tags(&decoded, &tags).unwrap();
    }

    #[test]
    fn char_cnn_ablation_builds_and_runs() {
        let d = DatasetProfile::bionlp13cg().generate(0.005).unwrap();
        let spec = EmbeddingSpec {
            dim: 20,
            ..EmbeddingSpec::default()
        };
        let enc = TokenEncoder::build(&[&d], &spec, 4);
        let mut rng = Rng::new(17);
        let mut store = ParamStore::new();
        let cfg = BackboneConfig {
            use_char_cnn: false,
            ..BackboneConfig {
                word_dim: 20,
                ..BackboneConfig::default_for(3)
            }
        };
        let bb = Backbone::new(cfg, &enc, &mut store, &mut rng).unwrap();
        let g = Graph::eval();
        let (ps, id) = bb.new_context();
        let phi = g.param(&ps, id);
        let sent = enc.encode(&["alpha".to_string(), "beta".to_string()]);
        let h = bb.hidden(&g, &store, Some(phi), &sent, &mut rng);
        assert_eq!(g.shape(h).0, 2);
    }

    /// The batched-decode fast path (task context computed once) must
    /// reproduce exactly the paths of a per-sentence tape decode.
    #[test]
    fn batched_decode_matches_per_sentence_tape_decode() {
        for cond in [
            Conditioning::None,
            Conditioning::Film,
            Conditioning::ConcatInput,
        ] {
            let (enc, bb, store, _) = setup(cond);
            let tags = TagSet::new(3).unwrap();
            let sents: Vec<EncodedSentence> = [
                vec!["the", "Protein", "binding", "assay"],
                vec!["Cells", "express", "kinase"],
                vec!["a", "novel", "gene", "variant", "appears"],
            ]
            .iter()
            .map(|ws| enc.encode(&ws.iter().map(|w| w.to_string()).collect::<Vec<_>>()))
            .collect();
            let (mut phi_store, phi_id) = bb.new_context();
            phi_store.set(
                phi_id,
                fewner_tensor::Array::full(1, bb.config().phi_total(), 0.25),
            );
            let phi_ref = (cond != Conditioning::None).then_some((&phi_store, phi_id));

            // Reference: decode each sentence on its own tape, recomputing
            // the φ projections and transitions from scratch every time.
            let mut rng = Rng::new(0);
            let reference: Vec<Vec<usize>> = sents
                .iter()
                .map(|sent| {
                    let g = Graph::eval();
                    let phi = phi_ref.map(|(s, id)| g.param(s, id));
                    let ctx = bb.task_ctx(&g, &store, phi, &tags);
                    let h = bb.hidden_ctx(&g, &store, &ctx, sent, &mut rng);
                    let e = bb.emissions_ctx(&g, &store, &ctx, h, &tags);
                    let (trans, start) = bb.transitions(&g, &store, &tags);
                    crate::crf::viterbi(g.value(e).data(), &g.value(trans), &g.value(start), &tags)
                })
                .collect();

            let batched = bb.decode_task(&store, phi_ref, sents.iter(), &tags);
            assert_eq!(batched, reference, "conditioning {cond:?}");
        }
    }

    #[test]
    fn check_ways_follows_the_head() {
        let dense = BackboneConfig::default_for(5);
        assert!(dense.check_ways(5).is_ok());
        for ways in [0, 1, 4, 6] {
            assert!(
                dense.check_ways(ways).is_err(),
                "dense 5-way head, {ways} ways"
            );
        }
        let slots = BackboneConfig {
            head: HeadKind::SlotShared {
                slot_dim: 8,
                max_slots: 4,
            },
            ..BackboneConfig::default_for(5)
        };
        for ways in 1..=4 {
            assert!(slots.check_ways(ways).is_ok(), "{ways} of 4 slots");
        }
        for ways in [0, 5] {
            assert!(slots.check_ways(ways).is_err(), "{ways} of 4 slots");
        }
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(BackboneConfig {
            word_dim: 0,
            ..BackboneConfig::default_for(5)
        }
        .validate()
        .is_err());
        assert!(BackboneConfig {
            phi_dim: 0,
            slot_ctx_dim: 0,
            conditioning: Conditioning::Film,
            ..BackboneConfig::default_for(5)
        }
        .validate()
        .is_err());
        assert!(BackboneConfig {
            char_widths: vec![],
            ..BackboneConfig::default_for(5)
        }
        .validate()
        .is_err());
    }
}
