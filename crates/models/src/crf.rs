//! Linear-chain conditional random fields.
//!
//! The backbone's tag decoder (paper §3.2.2, Eq. 4): given per-token hidden
//! states, a CRF scores whole tag sequences with emission + transition
//! potentials, trains on the exact sequence negative log-likelihood
//! (forward algorithm, differentiated through the graph's `col_lse`), and
//! decodes with Viterbi under BIO constraints.
//!
//! Two heads are provided:
//!
//! * [`DenseCrf`] — the paper's formulation: a full `[T, T]` transition
//!   matrix and a dense emission projection for a *fixed* way-count.
//! * [`SlotSharedCrf`] — a way-agnostic head: transitions are parameterised
//!   by BIO *role* (O→B, B→I-same, …) and emissions by shared B/I scorers
//!   against learned slot embeddings, so a model trained with 3, 10 or 15
//!   ways can still be evaluated 5-way. The paper's "training way" ablation
//!   (Table 5) requires exactly this property.

use fewner_tensor::nn::Linear;
use fewner_tensor::{Array, Exec, ParamId, ParamStore, Var};
use fewner_text::{Tag, TagSet};
use fewner_util::Rng;

/// Large negative used to forbid transitions without destroying gradients.
const FORBIDDEN: f32 = -1.0e4;

/// A CRF head: produces emissions from hidden states, scores gold
/// sequences, and decodes.
///
/// All methods are generic over the executor, so the same head definition
/// serves tape-recorded training and gradient-free inference.
pub trait CrfHead {
    /// Emission scores `[L, 2N+1]` from hidden states `[L, H]`.
    fn emissions<E: Exec>(&self, g: &E, store: &ParamStore, h: Var, tags: &TagSet) -> Var;

    /// The transition matrix (plus start vector) for an N-way tag set, as
    /// graph nodes so training differentiates through them.
    fn transitions<E: Exec>(&self, g: &E, store: &ParamStore, tags: &TagSet) -> (Var, Var);

    /// Sequence negative log-likelihood of `gold` (tag indices) — the
    /// paper's `L = −log p(y|h)`.
    fn nll<E: Exec>(
        &self,
        g: &E,
        store: &ParamStore,
        h: Var,
        gold: &[usize],
        tags: &TagSet,
    ) -> Var {
        let emissions = self.emissions(g, store, h, tags);
        let (trans, start) = self.transitions(g, store, tags);
        crf_nll(g, emissions, trans, start, gold)
    }

    /// Viterbi decode under BIO constraints.
    fn decode<E: Exec>(&self, g: &E, store: &ParamStore, h: Var, tags: &TagSet) -> Vec<usize> {
        let emissions = self.emissions(g, store, h, tags);
        let (trans, start) = self.transitions(g, store, tags);
        viterbi(&g.value(emissions), &g.value(trans), &g.value(start), tags)
    }
}

/// Forward-algorithm NLL over explicit emission/transition graph nodes.
///
/// `alpha_t[j] = lse_i(alpha_{t-1}[i] + trans[i, j]) + emit_t[j]`, with
/// `alpha_0 = start + emit_0`; the loss is `log Z − score(gold)`.
pub fn crf_nll<E: Exec>(g: &E, emissions: Var, trans: Var, start: Var, gold: &[usize]) -> Var {
    let len = g.shape(emissions).0;
    assert_eq!(len, gold.len(), "gold length mismatch");
    assert!(len > 0, "empty sequence");

    let mut alpha = g.add(g.row(emissions, 0), start);
    for t in 1..len {
        // [T, 1] + [T, T] broadcast: column j gets alpha[i] + trans[i, j].
        let m = g.add(g.transpose(alpha), trans);
        alpha = g.add(g.col_lse(m), g.row(emissions, t));
    }
    let log_z = g.lse_all(alpha);

    let emit_coords: Vec<(usize, usize)> = gold.iter().enumerate().map(|(t, &y)| (t, y)).collect();
    let trans_coords: Vec<(usize, usize)> = gold.windows(2).map(|w| (w[0], w[1])).collect();
    let mut score = g.add(
        g.gather_sum(emissions, &emit_coords),
        g.gather_sum(start, &[(0, gold[0])]),
    );
    if !trans_coords.is_empty() {
        score = g.add(score, g.gather_sum(trans, &trans_coords));
    }
    g.sub(log_z, score)
}

/// Constrained Viterbi decoding on plain arrays.
#[allow(clippy::needless_range_loop)]
pub fn viterbi(emissions: &Array, trans: &Array, start: &Array, tags: &TagSet) -> Vec<usize> {
    let (len, n_tags) = emissions.shape();
    assert_eq!(trans.shape(), (n_tags, n_tags));
    assert!(len > 0);

    let allowed_start: Vec<bool> = (0..n_tags)
        .map(|j| tags.allowed_at_start(tags.tag(j)))
        .collect();
    let mut score: Vec<f32> = (0..n_tags)
        .map(|j| {
            let base = emissions.at(0, j) + start.at(0, j);
            if allowed_start[j] {
                base
            } else {
                base + FORBIDDEN
            }
        })
        .collect();
    let mut back: Vec<Vec<usize>> = Vec::with_capacity(len);

    for t in 1..len {
        let mut next = vec![f32::NEG_INFINITY; n_tags];
        let mut ptr = vec![0usize; n_tags];
        for j in 0..n_tags {
            let to = tags.tag(j);
            for i in 0..n_tags {
                let mut s = score[i] + trans.at(i, j);
                if !tags.allowed(tags.tag(i), to) {
                    s += FORBIDDEN;
                }
                if s > next[j] {
                    next[j] = s;
                    ptr[j] = i;
                }
            }
            next[j] += emissions.at(t, j);
        }
        score = next;
        back.push(ptr);
    }

    let mut best = 0usize;
    for j in 1..n_tags {
        if score[j] > score[best] {
            best = j;
        }
    }
    let mut path = vec![best; len];
    for t in (1..len).rev() {
        path[t - 1] = back[t - 1][path[t]];
    }
    path
}

/// The paper's CRF (Eq. 4): dense emission projection + full transition
/// matrix for a fixed way-count.
#[derive(Debug, Clone)]
pub struct DenseCrf {
    emission: Linear,
    trans: ParamId,
    start: ParamId,
    n_tags: usize,
}

impl DenseCrf {
    /// Registers parameters for an `n_ways`-way tag space over hidden
    /// states of width `hidden`.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        hidden: usize,
        n_ways: usize,
        rng: &mut Rng,
    ) -> DenseCrf {
        let n_tags = 2 * n_ways + 1;
        DenseCrf {
            emission: Linear::new(
                store,
                &format!("{prefix}.emission"),
                hidden,
                n_tags,
                true,
                rng,
            ),
            trans: store.add(
                format!("{prefix}.trans"),
                Array::uniform(n_tags, n_tags, -0.1, 0.1, rng),
            ),
            start: store.add(
                format!("{prefix}.start"),
                Array::uniform(1, n_tags, -0.1, 0.1, rng),
            ),
            n_tags,
        }
    }

    /// The fixed tag-space size.
    pub fn n_tags(&self) -> usize {
        self.n_tags
    }
}

impl CrfHead for DenseCrf {
    fn emissions<E: Exec>(&self, g: &E, store: &ParamStore, h: Var, tags: &TagSet) -> Var {
        assert_eq!(
            tags.len(),
            self.n_tags,
            "DenseCrf built for {} tags, asked for {}",
            self.n_tags,
            tags.len()
        );
        self.emission.apply(g, store, h)
    }

    fn transitions<E: Exec>(&self, g: &E, store: &ParamStore, _tags: &TagSet) -> (Var, Var) {
        (g.param(store, self.trans), g.param(store, self.start))
    }
}

/// BIO transition roles for the slot-shared head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    OO,
    OB,
    BiSame,
    BbSame,
    BbDiff,
    BO,
    IiSame,
    IbSame,
    IbDiff,
    IO,
    Forbidden,
}

fn role_of(from: Tag, to: Tag) -> Role {
    match (from, to) {
        (Tag::O, Tag::O) => Role::OO,
        (Tag::O, Tag::B(_)) => Role::OB,
        (Tag::O, Tag::I(_)) => Role::Forbidden,
        (Tag::B(a), Tag::I(b)) if a == b => Role::BiSame,
        (Tag::B(_), Tag::I(_)) => Role::Forbidden,
        (Tag::B(a), Tag::B(b)) if a == b => Role::BbSame,
        (Tag::B(_), Tag::B(_)) => Role::BbDiff,
        (Tag::B(_), Tag::O) => Role::BO,
        (Tag::I(a), Tag::I(b)) if a == b => Role::IiSame,
        (Tag::I(_), Tag::I(_)) => Role::Forbidden,
        (Tag::I(a), Tag::B(b)) if a == b => Role::IbSame,
        (Tag::I(_), Tag::B(_)) => Role::IbDiff,
        (Tag::I(_), Tag::O) => Role::IO,
    }
}

const N_ROLES: usize = 10;

fn role_index(r: Role) -> Option<usize> {
    match r {
        Role::OO => Some(0),
        Role::OB => Some(1),
        Role::BiSame => Some(2),
        Role::BbSame => Some(3),
        Role::BbDiff => Some(4),
        Role::BO => Some(5),
        Role::IiSame => Some(6),
        Role::IbSame => Some(7),
        Role::IbDiff => Some(8),
        Role::IO => Some(9),
        Role::Forbidden => None,
    }
}

/// Way-agnostic CRF head with slot-shared emissions and role-based
/// transitions (see module docs).
#[derive(Debug, Clone)]
pub struct SlotSharedCrf {
    w_b: Linear,
    w_i: Linear,
    w_o: Linear,
    slot_emb: ParamId,
    roles: ParamId,
    start_o: ParamId,
    start_b: ParamId,
    max_slots: usize,
    slot_dim: usize,
}

impl SlotSharedCrf {
    /// Registers parameters supporting up to `max_slots` class slots.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        hidden: usize,
        slot_dim: usize,
        max_slots: usize,
        rng: &mut Rng,
    ) -> SlotSharedCrf {
        SlotSharedCrf {
            w_b: Linear::new(store, &format!("{prefix}.w_b"), hidden, slot_dim, true, rng),
            w_i: Linear::new(store, &format!("{prefix}.w_i"), hidden, slot_dim, true, rng),
            w_o: Linear::new(store, &format!("{prefix}.w_o"), hidden, 1, true, rng),
            slot_emb: store.add(
                format!("{prefix}.slots"),
                Array::normal(max_slots, slot_dim, 0.5, rng),
            ),
            roles: store.add(
                format!("{prefix}.roles"),
                Array::uniform(N_ROLES, 1, -0.1, 0.1, rng),
            ),
            start_o: store.add(format!("{prefix}.start_o"), Array::zeros(1, 1)),
            start_b: store.add(format!("{prefix}.start_b"), Array::zeros(1, 1)),
            max_slots,
            slot_dim,
        }
    }

    /// The largest way-count this head supports.
    pub fn max_slots(&self) -> usize {
        self.max_slots
    }

    /// Slot-embedding dimensionality.
    pub fn slot_dim(&self) -> usize {
        self.slot_dim
    }
}

impl CrfHead for SlotSharedCrf {
    fn emissions<E: Exec>(&self, g: &E, store: &ParamStore, h: Var, tags: &TagSet) -> Var {
        let n = tags.n_ways();
        assert!(
            n <= self.max_slots,
            "SlotSharedCrf supports {} slots, asked for {n}",
            self.max_slots
        );
        // [L, d] features for B and I roles; slot scores via slot embeddings.
        let fb = self.w_b.apply(g, store, h);
        let fi = self.w_i.apply(g, store, h);
        let slots = g.param(store, self.slot_emb);
        let active = g.gather_rows(slots, &(0..n).collect::<Vec<_>>());
        let eb = g.matmul(fb, g.transpose(active)); // [L, n]
        let ei = g.matmul(fi, g.transpose(active)); // [L, n]
        let eo = self.w_o.apply(g, store, h); // [L, 1]

        // Interleave columns as [O, B-0, I-0, B-1, I-1, …].
        let mut cols: Vec<Var> = Vec::with_capacity(2 * n + 1);
        cols.push(eo);
        for s in 0..n {
            cols.push(g.slice_cols(eb, s, 1));
            cols.push(g.slice_cols(ei, s, 1));
        }
        g.concat_cols(&cols)
    }

    fn transitions<E: Exec>(&self, g: &E, store: &ParamStore, tags: &TagSet) -> (Var, Var) {
        let t = tags.len();
        let roles = g.param(store, self.roles);
        // Gather one role score per (from, to) pair; forbidden pairs pull
        // role 0 and get masked by a large negative constant instead.
        let mut gather_idx = Vec::with_capacity(t * t);
        let mut mask = Array::zeros(t, t);
        for i in 0..t {
            for j in 0..t {
                match role_index(role_of(tags.tag(i), tags.tag(j))) {
                    Some(r) => gather_idx.push(r),
                    None => {
                        gather_idx.push(0);
                        *mask.at_mut(i, j) = FORBIDDEN;
                    }
                }
            }
        }
        let flat = g.gather_rows(roles, &gather_idx); // [t*t, 1]
        let trans = g.add(g.reshape(flat, t, t), g.constant(mask));

        // Start vector: O gets start_o, B-* start_b, I-* forbidden.
        let so = g.param(store, self.start_o);
        let sb = g.param(store, self.start_b);
        let forbidden = g.constant(Array::scalar(FORBIDDEN));
        let mut cols = Vec::with_capacity(t);
        for j in 0..t {
            cols.push(match tags.tag(j) {
                Tag::O => so,
                Tag::B(_) => sb,
                Tag::I(_) => forbidden,
            });
        }
        (trans, g.concat_cols(&cols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fewner_tensor::Graph;

    fn setup(n_ways: usize, _hidden: usize) -> (ParamStore, Rng, TagSet) {
        (ParamStore::new(), Rng::new(3), TagSet::new(n_ways).unwrap())
    }

    /// Brute-force log partition by enumerating all tag sequences.
    fn brute_log_z(emissions: &Array, trans: &Array, start: &Array) -> f64 {
        let (len, t) = emissions.shape();
        let mut seqs: Vec<Vec<usize>> = vec![vec![]];
        for _ in 0..len {
            let mut next = Vec::new();
            for s in &seqs {
                for j in 0..t {
                    let mut s2 = s.clone();
                    s2.push(j);
                    next.push(s2);
                }
            }
            seqs = next;
        }
        let mut scores = Vec::new();
        for s in &seqs {
            let mut sc = start.at(0, s[0]) as f64 + emissions.at(0, s[0]) as f64;
            for t_idx in 1..len {
                sc +=
                    trans.at(s[t_idx - 1], s[t_idx]) as f64 + emissions.at(t_idx, s[t_idx]) as f64;
            }
            scores.push(sc);
        }
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        max + scores.iter().map(|s| (s - max).exp()).sum::<f64>().ln()
    }

    #[test]
    fn forward_algorithm_matches_brute_force() {
        let (_, mut rng, _) = setup(1, 4);
        let emissions = Array::uniform(4, 3, -1.0, 1.0, &mut rng);
        let trans = Array::uniform(3, 3, -1.0, 1.0, &mut rng);
        let start = Array::uniform(1, 3, -1.0, 1.0, &mut rng);
        let gold = vec![0usize, 1, 2, 0];

        let g = Graph::new();
        let e = g.constant(emissions.clone());
        let t = g.constant(trans.clone());
        let s = g.constant(start.clone());
        let nll = crf_nll(&g, e, t, s, &gold);

        let log_z = brute_log_z(&emissions, &trans, &start);
        let mut gold_score = start.at(0, 0) as f64 + emissions.at(0, 0) as f64;
        gold_score += trans.at(0, 1) as f64 + emissions.at(1, 1) as f64;
        gold_score += trans.at(1, 2) as f64 + emissions.at(2, 2) as f64;
        gold_score += trans.at(2, 0) as f64 + emissions.at(3, 0) as f64;
        let expected = log_z - gold_score;
        let got = g.value(nll).scalar_value() as f64;
        assert!((got - expected).abs() < 1e-3, "{got} vs {expected}");
        assert!(got >= -1e-4, "NLL must be non-negative: {got}");
    }

    #[test]
    fn viterbi_matches_exhaustive_argmax() {
        let (_, mut rng, tags) = setup(1, 4); // 3 tags: O, B-0, I-0
        for trial in 0..20 {
            let mut r = Rng::new(trial);
            let emissions = Array::uniform(4, 3, -1.0, 1.0, &mut r);
            let trans = Array::uniform(3, 3, -1.0, 1.0, &mut r);
            let start = Array::uniform(1, 3, -1.0, 1.0, &mut r);
            let path = viterbi(&emissions, &trans, &start, &tags);

            // Exhaustive search over *valid* sequences.
            let mut best_score = f64::NEG_INFINITY;
            let mut best: Vec<usize> = vec![];
            let t = 3usize;
            for a in 0..t {
                for b in 0..t {
                    for c in 0..t {
                        for d in 0..t {
                            let seq = [a, b, c, d];
                            if !tags.allowed_at_start(tags.tag(a)) {
                                continue;
                            }
                            if seq
                                .windows(2)
                                .any(|w| !tags.allowed(tags.tag(w[0]), tags.tag(w[1])))
                            {
                                continue;
                            }
                            let mut sc = start.at(0, a) as f64 + emissions.at(0, a) as f64;
                            for i in 1..4 {
                                sc += trans.at(seq[i - 1], seq[i]) as f64
                                    + emissions.at(i, seq[i]) as f64;
                            }
                            if sc > best_score {
                                best_score = sc;
                                best = seq.to_vec();
                            }
                        }
                    }
                }
            }
            assert_eq!(path, best, "trial {trial}");
        }
        let _ = rng.next_u64();
    }

    #[test]
    fn viterbi_respects_bio_constraints() {
        let tags = TagSet::new(2).unwrap();
        let mut rng = Rng::new(5);
        for _ in 0..20 {
            let emissions = Array::uniform(6, 5, -2.0, 2.0, &mut rng);
            let trans = Array::uniform(5, 5, -1.0, 1.0, &mut rng);
            let start = Array::uniform(1, 5, -1.0, 1.0, &mut rng);
            let path = viterbi(&emissions, &trans, &start, &tags);
            let decoded: Vec<Tag> = path.iter().map(|&i| tags.tag(i)).collect();
            fewner_text::validate_tags(&decoded, &tags).unwrap();
        }
    }

    #[test]
    fn viterbi_breaks_exact_score_ties_to_the_first_candidate() {
        // An all-zero lattice ties every valid path: strict `>` over
        // ascending candidates keeps the lowest tag index at every step,
        // so the decode is all `O`.
        let tags = TagSet::new(2).unwrap();
        let emissions = Array::zeros(5, 5);
        let trans = Array::zeros(5, 5);
        let start = Array::zeros(1, 5);
        assert_eq!(viterbi(&emissions, &trans, &start, &tags), vec![0; 5]);
    }

    #[test]
    fn dense_crf_trains_to_fit_a_sequence() {
        let (mut store, mut rng, tags) = setup(2, 6);
        let crf = DenseCrf::new(&mut store, "crf", 6, 2, &mut rng);
        let h_fixed = Array::uniform(5, 6, -1.0, 1.0, &mut rng);
        let gold = vec![0usize, 1, 2, 0, 3];
        let mut opt = fewner_tensor::Sgd::new(0.5);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let g = Graph::new();
            let h = g.constant(h_fixed.clone());
            let nll = crf.nll(&g, &store, h, &gold, &tags);
            last = g.value(nll).scalar_value();
            first.get_or_insert(last);
            let grads = g.backward(nll).unwrap().for_store(&store);
            opt.step(&mut store, &grads).unwrap();
        }
        assert!(last < first.unwrap() * 0.2, "{} -> {last}", first.unwrap());
        // And decoding recovers the fitted sequence.
        let g = Graph::new();
        let h = g.constant(h_fixed);
        let path = crf.decode(&g, &store, h, &tags);
        assert_eq!(path, gold);
    }

    #[test]
    fn slot_shared_crf_is_way_agnostic() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(9);
        let crf = SlotSharedCrf::new(&mut store, "ss", 6, 8, 16, &mut rng);
        let g = Graph::new();
        let h = g.constant(Array::uniform(4, 6, -1.0, 1.0, &mut rng));
        for n in [3usize, 5, 10, 15] {
            let tags = TagSet::new(n).unwrap();
            let e = crf.emissions(&g, &store, h, &tags);
            assert_eq!(g.shape(e), (4, 2 * n + 1));
            let (trans, start) = crf.transitions(&g, &store, &tags);
            assert_eq!(g.shape(trans), (2 * n + 1, 2 * n + 1));
            assert_eq!(g.shape(start), (1, 2 * n + 1));
            // Forbidden transitions carry the mask.
            let tv = g.value(trans);
            let o_to_i0 = tv.at(0, 2);
            assert!(o_to_i0 < FORBIDDEN / 2.0, "O->I must be forbidden");
        }
    }

    #[test]
    fn slot_shared_crf_trains_and_decodes() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(11);
        let crf = SlotSharedCrf::new(&mut store, "ss", 6, 8, 8, &mut rng);
        let tags = TagSet::new(2).unwrap();
        let h_fixed = Array::uniform(5, 6, -1.0, 1.0, &mut rng);
        let gold = vec![0usize, 1, 2, 0, 3];
        let mut opt = fewner_tensor::Sgd::new(0.5);
        for _ in 0..80 {
            let g = Graph::new();
            let h = g.constant(h_fixed.clone());
            let nll = crf.nll(&g, &store, h, &gold, &tags);
            let grads = g.backward(nll).unwrap().for_store(&store);
            opt.step(&mut store, &grads).unwrap();
        }
        let g = Graph::new();
        let h = g.constant(h_fixed);
        assert_eq!(crf.decode(&g, &store, h, &tags), gold);
    }

    #[test]
    fn role_table_is_complete() {
        // Every (from, to) pair maps to a role or Forbidden, consistently
        // with TagSet::allowed.
        let tags = TagSet::new(3).unwrap();
        for i in 0..tags.len() {
            for j in 0..tags.len() {
                let (from, to) = (tags.tag(i), tags.tag(j));
                let forbidden = role_index(role_of(from, to)).is_none();
                assert_eq!(
                    forbidden,
                    !tags.allowed(from, to),
                    "role/allowed disagree on {from:?} -> {to:?}"
                );
            }
        }
    }
}
