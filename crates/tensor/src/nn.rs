//! Reusable neural layers built on the graph.
//!
//! Each layer registers its parameters in a [`ParamStore`] at construction
//! time under a caller-supplied name prefix, and `apply` rebuilds its piece
//! of the computation for every forward pass (define-by-run), on any
//! executor. The NER-specific assemblies (backbone, CRF, baselines) live in
//! `fewner-models`; this module holds only the generic building blocks:
//! [`Linear`], [`Embedding`], [`GruCell`], [`BiGru`], [`LstmCell`],
//! [`BiLstm`] and [`Conv1d`].
//!
//! [`Embedding`], [`BiGru`], [`BiLstm`] and [`Conv1d`] have one forward
//! body each, over a stack of sequences (words, for [`Conv1d`]) given by
//! their lengths. It runs every op once over all their rows, and each
//! output row equals, bit for bit, what its sequence gives alone:
//! `matmul_into` computes every output row on its own accumulation chain,
//! and every other op involved works row by row or element by element.
//!
//! On the tape the stacked call also gives the gradients one call per
//! sequence, in order, gives. Data gradients flow row by row, and each row
//! receives its contributions in the order its own sequence's ops add
//! them: a recurrent state that feeds the next step and the layer's output
//! reaches both through rows of its own (see `SeqBatch::run`). Parameter
//! gradients are summed per sequence: each layer runs inside
//! [`Exec::segmented`] with its rows attributed to their sequences, so the
//! tape replays the sequences' contributions to every parameter last
//! sequence first, as one call per sequence adds them.

use std::cmp::Reverse;

use fewner_util::Rng;

use crate::array::Array;
use crate::exec::{Exec, Var};
use crate::params::{ParamId, ParamStore};

/// Fully-connected layer `y = x·W (+ b)`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a weight `[in_dim, out_dim]` (Xavier) and optional zero bias.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
        rng: &mut Rng,
    ) -> Linear {
        let w = store.add(format!("{prefix}.w"), Array::xavier(in_dim, out_dim, rng));
        let b = bias.then(|| store.add(format!("{prefix}.b"), Array::zeros(1, out_dim)));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// `[L, in] → [L, out]`.
    pub fn apply<E: Exec>(&self, g: &E, store: &ParamStore, x: Var) -> Var {
        debug_assert_eq!(g.shape(x).1, self.in_dim, "Linear input dim");
        let w = g.param(store, self.w);
        let y = g.matmul(x, w);
        match self.b {
            Some(b) => g.add(y, g.param(store, b)),
            None => y,
        }
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The weight parameter id.
    pub fn weight(&self) -> ParamId {
        self.w
    }
}

/// Token embedding table.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: ParamId,
    dim: usize,
}

impl Embedding {
    /// Registers a `[vocab, dim]` table initialised from `init`.
    pub fn from_array(store: &mut ParamStore, prefix: &str, init: Array) -> Embedding {
        let dim = init.cols();
        let table = store.add(format!("{prefix}.table"), init);
        Embedding { table, dim }
    }

    /// Registers a `[vocab, dim]` table with small uniform initialisation.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        vocab: usize,
        dim: usize,
        rng: &mut Rng,
    ) -> Embedding {
        Self::from_array(store, prefix, Array::uniform(vocab, dim, -0.1, 0.1, rng))
    }

    /// Looks up a stack of id sequences, `lens[i]` ids for sequence `i`
    /// after the ids of the sequences before it: `ids` → `[len(ids), dim]`.
    pub fn apply<E: Exec>(&self, g: &E, store: &ParamStore, ids: &[usize], lens: &[usize]) -> Var {
        assert_eq!(
            lens.iter().sum::<usize>(),
            ids.len(),
            "embedding: the lengths must cover the ids"
        );
        let table = g.param(store, self.table);
        g.segmented(&row_keys(lens), || g.gather_rows(table, ids))
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The table parameter id.
    pub fn table(&self) -> ParamId {
        self.table
    }
}

/// A single gated recurrent unit cell (Cho et al.).
///
/// Gate layout in the fused projections is `[reset | update | candidate]`.
#[derive(Debug, Clone)]
pub struct GruCell {
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
    hidden: usize,
}

impl GruCell {
    /// Registers `W_x [in, 3H]`, `W_h [H, 3H]` and a zero bias `[1, 3H]`.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> GruCell {
        GruCell {
            wx: store.add(
                format!("{prefix}.wx"),
                Array::xavier(in_dim, 3 * hidden, rng),
            ),
            wh: store.add(
                format!("{prefix}.wh"),
                Array::xavier(hidden, 3 * hidden, rng),
            ),
            b: store.add(format!("{prefix}.b"), Array::zeros(1, 3 * hidden)),
            hidden,
        }
    }

    /// One step: `x [1, in]`, `h [1, H]` → `h' [1, H]`.
    pub fn step<E: Exec>(&self, g: &E, store: &ParamStore, x: Var, h: Var) -> Var {
        let hdim = self.hidden;
        let sx = g.add(g.matmul(x, g.param(store, self.wx)), g.param(store, self.b));
        let sh = g.matmul(h, g.param(store, self.wh));
        let r = g.sigmoid(g.add(g.slice_cols(sx, 0, hdim), g.slice_cols(sh, 0, hdim)));
        let z = g.sigmoid(g.add(g.slice_cols(sx, hdim, hdim), g.slice_cols(sh, hdim, hdim)));
        let n = g.tanh(g.add(
            g.slice_cols(sx, 2 * hdim, hdim),
            g.mul(r, g.slice_cols(sh, 2 * hdim, hdim)),
        ));
        // h' = (1 - z) ⊙ n + z ⊙ h
        g.add(g.mul(g.one_minus(z), n), g.mul(z, h))
    }

    /// Hidden size.
    pub fn hidden(&self) -> usize {
        self.hidden
    }
}

/// Bidirectional GRU encoder: `[L, in] → [L, 2H]`.
#[derive(Debug, Clone)]
pub struct BiGru {
    fwd: GruCell,
    bwd: GruCell,
    hidden: usize,
}

impl BiGru {
    /// Registers forward and backward cells.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> BiGru {
        BiGru {
            fwd: GruCell::new(store, &format!("{prefix}.fwd"), in_dim, hidden, rng),
            bwd: GruCell::new(store, &format!("{prefix}.bwd"), in_dim, hidden, rng),
            hidden,
        }
    }

    /// Encodes a stack of sequences: `x` holds sequence `i`'s `lens[i]`
    /// rows after the rows of the sequences before it, and output row `r`
    /// is `[h⃗ ; h⃖]` of row `r` within its own sequence. Every op runs once
    /// per step over the sequences still running, and each output row is,
    /// bit for bit, what the sequence gives alone (`&[len]`).
    pub fn apply<E: Exec>(&self, ex: &E, store: &ParamStore, x: Var, lens: &[usize]) -> Var {
        let batch = SeqBatch::new(lens);
        for cell in [&self.fwd, &self.bwd] {
            for id in [cell.wx, cell.wh, cell.b] {
                ex.param(store, id); // bound once, outside the per-step scopes
            }
        }
        ex.segmented(&row_keys(lens), || {
            let fwd = batch.run(ex, x, self.hidden, false, |xt, [h]| {
                [self.fwd.step(ex, store, xt, h)]
            });
            let bwd = batch.run(ex, x, self.hidden, true, |xt, [h]| {
                [self.bwd.step(ex, store, xt, h)]
            });
            ex.concat_cols(&[fwd, bwd])
        })
    }

    /// Output feature dimension (`2H`).
    pub fn out_dim(&self) -> usize {
        2 * self.hidden
    }
}

/// Sequence `i`'s key, `lens[i]` times, for every `i`: the segment of each
/// row of a stack of sequences.
fn row_keys(lens: &[usize]) -> Vec<usize> {
    lens.iter()
        .enumerate()
        .flat_map(|(i, &len)| std::iter::repeat_n(i, len))
        .collect()
}

/// How a stack of sequences steps through a recurrent layer together.
///
/// Sequences are sorted longest first (ties keep the caller's order), so
/// the sequences still running at step `t` are always a prefix of that
/// order and the carried state shrinks by keeping its first rows.
struct SeqBatch {
    /// First row of each sequence in the stack.
    offsets: Vec<usize>,
    lens: Vec<usize>,
    /// Sequence indices, longest first.
    order: Vec<usize>,
    /// `rank[s]`: the position of sequence `s` in `order`.
    rank: Vec<usize>,
    /// `active[t]`: how many sequences are longer than `t`.
    active: Vec<usize>,
    /// `first[t]`: the row of step `t`'s first state once every step's
    /// states are stacked in step order.
    first: Vec<usize>,
}

impl SeqBatch {
    fn new(lens: &[usize]) -> SeqBatch {
        assert!(
            !lens.is_empty() && !lens.contains(&0),
            "recurrent layer over an empty sequence"
        );
        let offsets = lens
            .iter()
            .scan(0, |next, &len| {
                let at = *next;
                *next += len;
                Some(at)
            })
            .collect();
        let mut order: Vec<usize> = (0..lens.len()).collect();
        order.sort_by_key(|&s| Reverse(lens[s]));
        let mut rank = vec![0; lens.len()];
        for (r, &s) in order.iter().enumerate() {
            rank[s] = r;
        }
        let active: Vec<usize> = (0..lens[order[0]])
            .map(|t| order.iter().take_while(|&&s| lens[s] > t).count())
            .collect();
        let first = active
            .iter()
            .scan(0, |next, &b| {
                let at = *next;
                *next += b;
                Some(at)
            })
            .collect();
        SeqBatch {
            offsets,
            lens: lens.to_vec(),
            order,
            rank,
            active,
            first,
        }
    }

    /// The position sequence `s` reads at step `t`: `t` forward,
    /// `len − 1 − t` backward.
    fn position(&self, s: usize, t: usize, reverse: bool) -> usize {
        if reverse {
            self.lens[s] - 1 - t
        } else {
            t
        }
    }

    /// Steps one direction over every sequence and returns its states,
    /// row-aligned with the stacked input. `step` maps an input `[b, in]`
    /// and a state `[b, ·]` tuple to the next one; element 0 of the state
    /// is the output. Each step's rows are attributed to their sequences
    /// ([`Exec::segmented`]).
    ///
    /// When sequences end after step `t`, the output state is split into
    /// the rows that go on and the rows that end, and the output keeps the
    /// two parts. A continuing row's gradient then sums like one
    /// sequence's: first the output's contribution, then the next step's,
    /// op by op. Carrying the state on through one gather of the kept rows
    /// would add the next step's contributions up first, and the output's
    /// after them.
    fn run<E: Exec, const K: usize>(
        &self,
        ex: &E,
        x: Var,
        hidden: usize,
        reverse: bool,
        step: impl Fn(Var, [Var; K]) -> [Var; K],
    ) -> Var {
        assert_eq!(
            ex.shape(x).0,
            self.lens.iter().sum::<usize>(),
            "recurrent layer: the lengths must cover the input's rows"
        );
        let zero = ex.constant(Array::zeros(self.order.len(), hidden));
        let mut state = [zero; K];
        let mut outs = Vec::with_capacity(self.active.len());
        for (t, &b) in self.active.iter().enumerate() {
            let running = &self.order[..b];
            let next = self.active.get(t + 1).copied().unwrap_or(b);
            // Only the next state (and the output rows that end here)
            // outlive the step; its scratch goes back to the pool for the
            // next step.
            let kept = ex.scoped(|| {
                let rows: Vec<usize> = running
                    .iter()
                    .map(|&s| self.offsets[s] + self.position(s, t, reverse))
                    .collect();
                let new = ex.segmented(running, || step(ex.gather_rows(x, &rows), state));
                if next == b {
                    return new.to_vec();
                }
                let keep: Vec<usize> = (0..next).collect();
                let mut kept: Vec<Var> = new.iter().map(|&v| ex.gather_rows(v, &keep)).collect();
                kept.push(ex.gather_rows(new[0], &(next..b).collect::<Vec<_>>()));
                kept
            });
            state = std::array::from_fn(|k| kept[k]);
            outs.push(kept[0]);
            if next < b {
                outs.push(kept[K]);
            }
        }
        // Step t's state for sequence s sits at row first[t] + rank[s].
        let back: Vec<usize> = (0..self.lens.len())
            .flat_map(|s| {
                (0..self.lens[s])
                    .map(move |p| self.first[self.position(s, p, reverse)] + self.rank[s])
            })
            .collect();
        ex.gather_rows(ex.concat_rows(&outs), &back)
    }
}

/// A long short-term memory cell (Hochreiter & Schmidhuber).
///
/// Gate layout in the fused projections is `[input | forget | cell | output]`.
/// The forget-gate bias starts at 1.0 (the standard trick that lets
/// gradients flow at initialisation).
#[derive(Debug, Clone)]
pub struct LstmCell {
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
    hidden: usize,
}

impl LstmCell {
    /// Registers `W_x [in, 4H]`, `W_h [H, 4H]` and the bias `[1, 4H]`.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> LstmCell {
        let mut bias = Array::zeros(1, 4 * hidden);
        for j in hidden..2 * hidden {
            *bias.at_mut(0, j) = 1.0;
        }
        LstmCell {
            wx: store.add(
                format!("{prefix}.wx"),
                Array::xavier(in_dim, 4 * hidden, rng),
            ),
            wh: store.add(
                format!("{prefix}.wh"),
                Array::xavier(hidden, 4 * hidden, rng),
            ),
            b: store.add(format!("{prefix}.b"), bias),
            hidden,
        }
    }

    /// One step: `x [1, in]`, state `(h, c)` → `(h', c')`.
    pub fn step<E: Exec>(&self, g: &E, store: &ParamStore, x: Var, h: Var, c: Var) -> (Var, Var) {
        let hd = self.hidden;
        let s = g.add(
            g.add(
                g.matmul(x, g.param(store, self.wx)),
                g.matmul(h, g.param(store, self.wh)),
            ),
            g.param(store, self.b),
        );
        let i = g.sigmoid(g.slice_cols(s, 0, hd));
        let f = g.sigmoid(g.slice_cols(s, hd, hd));
        let cand = g.tanh(g.slice_cols(s, 2 * hd, hd));
        let o = g.sigmoid(g.slice_cols(s, 3 * hd, hd));
        let c_next = g.add(g.mul(f, c), g.mul(i, cand));
        let h_next = g.mul(o, g.tanh(c_next));
        (h_next, c_next)
    }

    /// Hidden size.
    pub fn hidden(&self) -> usize {
        self.hidden
    }
}

/// Bidirectional LSTM encoder: `[L, in] → [L, 2H]`.
///
/// The paper's backbone uses a BiGRU for cost reasons (§3.2.2) but stresses
/// that "our approach is model-agnostic"; this encoder makes that claim
/// testable (`BackboneConfig`'s `EncoderKind`).
#[derive(Debug, Clone)]
pub struct BiLstm {
    fwd: LstmCell,
    bwd: LstmCell,
    hidden: usize,
}

impl BiLstm {
    /// Registers forward and backward cells.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> BiLstm {
        BiLstm {
            fwd: LstmCell::new(store, &format!("{prefix}.fwd"), in_dim, hidden, rng),
            bwd: LstmCell::new(store, &format!("{prefix}.bwd"), in_dim, hidden, rng),
            hidden,
        }
    }

    /// Encodes a stack of sequences, as [`BiGru::apply`] does.
    pub fn apply<E: Exec>(&self, ex: &E, store: &ParamStore, x: Var, lens: &[usize]) -> Var {
        let batch = SeqBatch::new(lens);
        for cell in [&self.fwd, &self.bwd] {
            for id in [cell.wx, cell.wh, cell.b] {
                ex.param(store, id); // bound once, outside the per-step scopes
            }
        }
        ex.segmented(&row_keys(lens), || {
            let fwd = batch.run(ex, x, self.hidden, false, |xt, [h, c]| {
                let (h, c) = self.fwd.step(ex, store, xt, h, c);
                [h, c]
            });
            let bwd = batch.run(ex, x, self.hidden, true, |xt, [h, c]| {
                let (h, c) = self.bwd.step(ex, store, xt, h, c);
                [h, c]
            });
            ex.concat_cols(&[fwd, bwd])
        })
    }

    /// Output feature dimension (`2H`).
    pub fn out_dim(&self) -> usize {
        2 * self.hidden
    }
}

/// 1-D convolution over rows with max-over-time pooling.
///
/// Used per word over its character embeddings: input `[W, D]`, one filter
/// bank per window width, output `[1, Σ filters]`. This is the paper's
/// character-level CNN (filters `[2, 3, 4]`, §4.1.3).
#[derive(Debug, Clone)]
pub struct Conv1d {
    banks: Vec<(usize, Linear)>,
    out_dim: usize,
}

impl Conv1d {
    /// Registers one filter bank `[k·in_dim → filters]` per width in `widths`.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        widths: &[usize],
        filters_per_width: usize,
        rng: &mut Rng,
    ) -> Conv1d {
        let banks = widths
            .iter()
            .map(|&k| {
                let lin = Linear::new(
                    store,
                    &format!("{prefix}.w{k}"),
                    k * in_dim,
                    filters_per_width,
                    true,
                    rng,
                );
                (k, lin)
            })
            .collect::<Vec<_>>();
        Conv1d {
            out_dim: banks.len() * filters_per_width,
            banks,
        }
    }

    /// Largest window width (callers must pad inputs to at least this many rows).
    pub fn max_width(&self) -> usize {
        self.banks.iter().map(|(k, _)| *k).max().unwrap_or(1)
    }

    /// Pools each of a stack of inputs: `x` holds input `i`'s `lens[i]`
    /// rows (each ≥ [`Conv1d::max_width`]) after the rows of the inputs
    /// before it, and output row `i` is input `i`'s `[1, out_dim]`
    /// features. Each filter bank is one unfold, matmul, bias add and ReLU
    /// over every input's windows, then a column max per input.
    pub fn apply<E: Exec>(&self, ex: &E, store: &ParamStore, x: Var, lens: &[usize]) -> Var {
        assert!(
            lens.iter().all(|&rows| rows >= self.max_width()),
            "Conv1d input shorter than widest filter {}",
            self.max_width()
        );
        ex.segmented(&row_keys(lens), || {
            let pooled: Vec<Var> = self
                .banks
                .iter()
                .map(|(k, lin)| {
                    let [pooled] = ex.scoped(|| {
                        let windows = ex.unfold_segments(x, *k, lens);
                        let per_input: Vec<usize> = lens.iter().map(|rows| rows - k + 1).collect();
                        let projected =
                            ex.segmented(&row_keys(&per_input), || lin.apply(ex, store, windows));
                        [ex.col_max_segments(ex.relu(projected), &per_input)]
                    });
                    pooled
                })
                .collect();
            ex.concat_cols(&pooled)
        })
    }

    /// Total output features.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn setup() -> (ParamStore, Rng) {
        (ParamStore::new(), Rng::new(77))
    }

    #[test]
    fn linear_shapes_and_bias() {
        let (mut store, mut rng) = setup();
        let lin = Linear::new(&mut store, "l", 4, 3, true, &mut rng);
        let g = Graph::new();
        let x = g.constant(Array::zeros(5, 4));
        let y = lin.apply(&g, &store, x);
        assert_eq!(g.shape(y), (5, 3));
        // Zero input, zero bias → zero output.
        assert!(g.value(y).data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn embedding_lookup_shapes() {
        let (mut store, mut rng) = setup();
        let emb = Embedding::new(&mut store, "e", 10, 6, &mut rng);
        let g = Graph::new();
        let x = emb.apply(&g, &store, &[1, 1, 9], &[3]);
        assert_eq!(g.shape(x), (3, 6));
        let v = g.value(x);
        assert_eq!(v.row(0), v.row(1), "same id, same row");
    }

    #[test]
    fn gru_step_bounded_and_stateful() {
        let (mut store, mut rng) = setup();
        let cell = GruCell::new(&mut store, "gru", 3, 5, &mut rng);
        let g = Graph::new();
        let x = g.constant(Array::uniform(1, 3, -1.0, 1.0, &mut rng));
        let h0 = g.constant(Array::zeros(1, 5));
        let h1 = cell.step(&g, &store, x, h0);
        assert_eq!(g.shape(h1), (1, 5));
        // GRU hidden state is a convex-ish combination of tanh outputs:
        // all values must lie in (-1, 1).
        assert!(g.value(h1).data().iter().all(|v| v.abs() < 1.0));
        let h2 = cell.step(&g, &store, x, h1);
        assert_ne!(g.value(h1).data(), g.value(h2).data());
    }

    #[test]
    fn bigru_first_row_sees_whole_sequence() {
        let (mut store, mut rng) = setup();
        let enc = BiGru::new(&mut store, "enc", 2, 4, &mut rng);
        // Two inputs differing only in their *last* row: the backward pass
        // must make row 0 of the output differ.
        let a = Array::zeros(3, 2);
        let mut b = Array::zeros(3, 2);
        *b.at_mut(2, 0) = 1.0;
        let g = Graph::new();
        let ya = enc.apply(&g, &store, g.constant(a), &[3]);
        let yb = enc.apply(&g, &store, g.constant(b), &[3]);
        assert_eq!(g.shape(ya), (3, 8));
        assert_ne!(g.value(ya).row(0), g.value(yb).row(0));
    }

    #[test]
    fn lstm_step_bounded_and_stateful() {
        let (mut store, mut rng) = setup();
        let cell = LstmCell::new(&mut store, "lstm", 3, 5, &mut rng);
        let g = Graph::new();
        let x = g.constant(Array::uniform(1, 3, -1.0, 1.0, &mut rng));
        let h0 = g.constant(Array::zeros(1, 5));
        let c0 = g.constant(Array::zeros(1, 5));
        let (h1, c1) = cell.step(&g, &store, x, h0, c0);
        assert_eq!(g.shape(h1), (1, 5));
        assert_eq!(g.shape(c1), (1, 5));
        assert!(g.value(h1).data().iter().all(|v| v.abs() < 1.0));
        let (h2, _) = cell.step(&g, &store, x, h1, c1);
        assert_ne!(g.value(h1).data(), g.value(h2).data());
    }

    #[test]
    fn lstm_forget_bias_initialised_to_one() {
        let (mut store, mut rng) = setup();
        let _cell = LstmCell::new(&mut store, "lstm", 3, 4, &mut rng);
        let b = store.get("lstm.b").unwrap();
        let bias = store.value(b);
        assert!(bias.row(0)[..4].iter().all(|&v| v == 0.0));
        assert!(bias.row(0)[4..8].iter().all(|&v| v == 1.0), "forget bias 1");
        assert!(bias.row(0)[8..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn bilstm_first_row_sees_whole_sequence() {
        let (mut store, mut rng) = setup();
        let enc = BiLstm::new(&mut store, "enc", 2, 4, &mut rng);
        let a = Array::zeros(3, 2);
        let mut b = Array::zeros(3, 2);
        *b.at_mut(2, 0) = 1.0;
        let g = Graph::new();
        let ya = enc.apply(&g, &store, g.constant(a), &[3]);
        let yb = enc.apply(&g, &store, g.constant(b), &[3]);
        assert_eq!(g.shape(ya), (3, 8));
        assert_ne!(g.value(ya).row(0), g.value(yb).row(0));
    }

    #[test]
    fn conv1d_pooling_shapes() {
        let (mut store, mut rng) = setup();
        let conv = Conv1d::new(&mut store, "cnn", 4, &[2, 3], 6, &mut rng);
        assert_eq!(conv.out_dim(), 12);
        assert_eq!(conv.max_width(), 3);
        let g = Graph::new();
        let x = g.constant(Array::uniform(7, 4, -1.0, 1.0, &mut rng));
        let y = conv.apply(&g, &store, x, &[7]);
        assert_eq!(g.shape(y), (1, 12));
    }

    #[test]
    fn conv1d_is_translation_sensitive_but_pooled() {
        let (mut store, mut rng) = setup();
        let conv = Conv1d::new(&mut store, "cnn", 2, &[2], 4, &mut rng);
        let g = Graph::new();
        // A distinctive bigram shifted within zero padding (kept interior so
        // both inputs produce the same multiset of width-2 windows) must
        // pool to identical features: max-over-time translation invariance.
        let mut early = Array::zeros(6, 2);
        *early.at_mut(1, 0) = 1.0;
        *early.at_mut(2, 1) = 1.0;
        let mut late = Array::zeros(6, 2);
        *late.at_mut(3, 0) = 1.0;
        *late.at_mut(4, 1) = 1.0;
        let ye = conv.apply(&g, &store, g.constant(early), &[6]);
        let yl = conv.apply(&g, &store, g.constant(late), &[6]);
        let (ve, vl) = (g.value(ye), g.value(yl));
        for (a, b) in ve.data().iter().zip(vl.data()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn gradients_flow_through_all_layers() {
        let (mut store, mut rng) = setup();
        let emb = Embedding::new(&mut store, "e", 8, 4, &mut rng);
        let conv = Conv1d::new(&mut store, "c", 4, &[2], 3, &mut rng);
        let enc = BiGru::new(&mut store, "g", 3, 4, &mut rng);
        let head = Linear::new(&mut store, "h", 8, 2, true, &mut rng);

        let g = Graph::new();
        let chars = emb.apply(&g, &store, &[1, 2, 3], &[3]);
        let word = conv.apply(&g, &store, chars, &[3]);
        let seq = g.concat_rows(&[word, word, word]);
        let hidden = enc.apply(&g, &store, seq, &[3]);
        let logits = head.apply(&g, &store, hidden);
        let loss = g.mean_all(g.mul(logits, logits));
        let grads = g.backward(loss).unwrap().for_store(&store);
        // Every layer's parameters must receive a gradient.
        let mut with_grad = 0;
        for i in 0..store.len() {
            if grads.get_at(i).is_some() {
                with_grad += 1;
            }
        }
        assert_eq!(with_grad, store.len(), "all params receive gradients");
    }
}
