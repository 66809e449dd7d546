//! Property-based tests on the CRF layers: information inequalities that
//! must hold for any parameters, consistency between the dense and
//! slot-shared heads, and `crf_nll` against brute-force enumeration of every
//! label path in `f64`.

use fewner_models::{crf_nll, viterbi, CrfHead, DenseCrf, SlotSharedCrf};
use fewner_tensor::{Array, Exec, Graph, ParamStore};
use fewner_text::{validate_tags, Tag, TagSet};
use fewner_util::Rng;
use proptest::prelude::*;

fn rand_array(rows: usize, cols: usize, seed: u64) -> Array {
    let mut rng = Rng::new(seed);
    Array::uniform(rows, cols, -1.5, 1.5, &mut rng)
}

/// A random *valid* BIO tag-index sequence.
fn random_valid_path(len: usize, tags: &TagSet, rng: &mut Rng) -> Vec<usize> {
    let mut out = Vec::with_capacity(len);
    let mut prev: Option<Tag> = None;
    for _ in 0..len {
        let choices: Vec<usize> = (0..tags.len())
            .filter(|&j| {
                let t = tags.tag(j);
                match prev {
                    None => tags.allowed_at_start(t),
                    Some(p) => tags.allowed(p, t),
                }
            })
            .collect();
        let pick = choices[rng.below(choices.len())];
        prev = Some(tags.tag(pick));
        out.push(pick);
    }
    out
}

fn path_score(emissions: &Array, trans: &Array, start: &Array, path: &[usize]) -> f64 {
    let mut score = start.at(0, path[0]) as f64 + emissions.at(0, path[0]) as f64;
    for t in 1..path.len() {
        score += trans.at(path[t - 1], path[t]) as f64 + emissions.at(t, path[t]) as f64;
    }
    score
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The NLL of any gold path is non-negative (log Z ≥ path score) and
    /// equals −log p, so it is finite for finite scores.
    #[test]
    fn nll_is_nonnegative_for_any_path(seed in 0u64..2000, len in 1usize..7) {
        let tags = TagSet::new(2).unwrap();
        let t = tags.len();
        let mut rng = Rng::new(seed);
        let emissions = rand_array(len, t, seed ^ 1);
        let trans = rand_array(t, t, seed ^ 2);
        let start = rand_array(1, t, seed ^ 3);
        let gold = random_valid_path(len, &tags, &mut rng);

        let g = Graph::new();
        let nll = crf_nll(
            &g,
            g.constant(emissions),
            g.constant(trans),
            g.constant(start),
            &gold,
        );
        let v = g.value(nll).scalar_value();
        prop_assert!(v.is_finite());
        prop_assert!(v >= -1e-4, "NLL {v} < 0");
    }

    /// The Viterbi path scores at least as high as any random valid path.
    #[test]
    fn viterbi_is_optimal_over_sampled_paths(seed in 0u64..2000, len in 1usize..7) {
        let tags = TagSet::new(2).unwrap();
        let t = tags.len();
        let mut rng = Rng::new(seed);
        let emissions = rand_array(len, t, seed ^ 4);
        let trans = rand_array(t, t, seed ^ 5);
        let start = rand_array(1, t, seed ^ 6);
        let best = viterbi(emissions.data(), &trans, &start, &tags);
        let best_score = path_score(&emissions, &trans, &start, &best);
        for _ in 0..20 {
            let candidate = random_valid_path(len, &tags, &mut rng);
            let s = path_score(&emissions, &trans, &start, &candidate);
            prop_assert!(
                s <= best_score + 1e-3,
                "candidate {candidate:?} ({s}) beats Viterbi {best:?} ({best_score})"
            );
        }
    }

    /// Both heads produce correctly-shaped emissions whose NLL is positive
    /// and differentiable for any way-count they support.
    #[test]
    fn heads_agree_on_interface_contracts(seed in 0u64..500, n_ways in 1usize..5) {
        let hidden = 6;
        let mut rng = Rng::new(seed);
        let tags = TagSet::new(n_ways).unwrap();
        let h_val = rand_array(4, hidden, seed ^ 7);
        let mut rng2 = Rng::new(seed ^ 8);
        let gold = random_valid_path(4, &tags, &mut rng2);

        // Dense head.
        let mut store = ParamStore::new();
        let dense = DenseCrf::new(&mut store, "d", hidden, n_ways, &mut rng);
        let g = Graph::new();
        let h = g.constant(h_val.clone());
        let e = dense.emissions(&g, &store, h, &tags);
        prop_assert_eq!(g.shape(e), (4, tags.len()));
        let nll = dense.nll(&g, &store, h, &gold, &tags);
        prop_assert!(g.value(nll).scalar_value() >= -1e-4);
        prop_assert!(g.backward(nll).is_ok());

        // Slot-shared head at the same way-count.
        let mut store2 = ParamStore::new();
        let ss = SlotSharedCrf::new(&mut store2, "s", hidden, 4, 8, &mut rng);
        let g2 = Graph::new();
        let h2 = g2.constant(h_val);
        let e2 = ss.emissions(&g2, &store2, h2, &tags);
        prop_assert_eq!(g2.shape(e2), (4, tags.len()));
        let nll2 = ss.nll(&g2, &store2, h2, &gold, &tags);
        prop_assert!(g2.value(nll2).scalar_value() >= -1e-4);
        prop_assert!(g2.backward(nll2).is_ok());

        // Both decode to BIO-valid sequences. (CrfHead is no longer
        // dyn-compatible — its methods are generic over the executor — so
        // decode each head statically.)
        for path in [
            dense.decode(&g, &store, h, &tags),
            ss.decode(&g2, &store2, h2, &tags),
        ] {
            let decoded: Vec<Tag> = path.iter().map(|&i| tags.tag(i)).collect();
            validate_tags(&decoded, &tags).unwrap();
        }
    }

    /// Slot permutation equivariance of the slot-shared head: permuting the
    /// slot embeddings permutes the B/I emission columns accordingly.
    #[test]
    fn slot_shared_head_is_slot_symmetric(seed in 0u64..500) {
        let hidden = 6;
        let mut rng = Rng::new(seed);
        let tags = TagSet::new(3).unwrap();
        let mut store = ParamStore::new();
        let ss = SlotSharedCrf::new(&mut store, "s", hidden, 4, 8, &mut rng);
        let h_val = rand_array(3, hidden, seed ^ 11);

        let g = Graph::new();
        let h = g.constant(h_val.clone());
        let e = g.value(ss.emissions(&g, &store, h, &tags));

        // Swap slot embeddings 0 and 1 in the store.
        let slots_id = store.get("s.slots").unwrap();
        let mut slots = (**store.value(slots_id)).clone();
        let row0: Vec<f32> = slots.row(0).to_vec();
        let row1: Vec<f32> = slots.row(1).to_vec();
        slots.row_mut(0).copy_from_slice(&row1);
        slots.row_mut(1).copy_from_slice(&row0);
        store.set(slots_id, slots);

        let g2 = Graph::new();
        let h2 = g2.constant(h_val);
        let e2 = g2.value(ss.emissions(&g2, &store, h2, &tags));

        // O column unchanged; B-0/I-0 swapped with B-1/I-1; slot 2 unchanged.
        for r in 0..3 {
            prop_assert!((e.at(r, 0) - e2.at(r, 0)).abs() < 1e-6);
            prop_assert!((e.at(r, 1) - e2.at(r, 3)).abs() < 1e-5); // B-0 <-> B-1
            prop_assert!((e.at(r, 2) - e2.at(r, 4)).abs() < 1e-5); // I-0 <-> I-1
            prop_assert!((e.at(r, 5) - e2.at(r, 5)).abs() < 1e-6); // B-2 fixed
        }
    }
}

// ---------------------------------------------------------------------------
// crf_nll against brute-force path enumeration
// ---------------------------------------------------------------------------

/// Every label sequence of length `len` over `labels` labels.
fn all_paths(len: usize, labels: usize) -> Vec<Vec<usize>> {
    (0..labels.pow(len as u32))
        .map(|mut code| {
            (0..len)
                .map(|_| {
                    let y = code % labels;
                    code /= labels;
                    y
                })
                .collect()
        })
        .collect()
}

/// log Z by enumeration: the log-sum-exp of every path's score, in f64.
fn brute_log_z(emissions: &Array, trans: &Array, start: &Array, paths: &[Vec<usize>]) -> f64 {
    let scores: Vec<f64> = paths
        .iter()
        .map(|p| path_score(emissions, trans, start, p))
        .collect();
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    max + scores.iter().map(|s| (s - max).exp()).sum::<f64>().ln()
}

/// `crf_nll` on a fresh tape, with the potentials bound as parameters so the
/// gradients can be inspected too.
fn tape_nll(emissions: &Array, trans: &Array, start: &Array, gold: &[usize]) -> (f32, bool) {
    let mut store = ParamStore::new();
    let ids = [
        store.add("e", emissions.clone()),
        store.add("t", trans.clone()),
        store.add("s", start.clone()),
    ];
    let g = Graph::new();
    let [e, t, s] = ids.map(|id| g.param(&store, id));
    let nll = crf_nll(&g, e, t, s, gold);
    let grads = g.backward(nll).unwrap().for_store(&store);
    // A one-token sentence never reads `trans`, so it gets no gradient.
    let grads_finite = ids
        .iter()
        .all(|&id| grads.get(id).is_none_or(Array::all_finite));
    (g.value(nll).scalar_value(), grads_finite)
}

const LOG_Z_TOL: f64 = 2e-4;

/// With ≤ 4 labels and ≤ 6 tokens every path can be enumerated: for each
/// gold path, `nll + score(gold)` is log Z, and the path probabilities
/// `exp(−nll)` sum to one.
#[test]
fn crf_nll_matches_brute_force_enumeration() {
    let mut seed = 0;
    for len in 1..=6usize {
        for labels in 1..=4usize {
            seed += 1;
            let emissions = Array::uniform(len, labels, -2.0, 2.0, &mut Rng::new(seed));
            let trans = Array::uniform(labels, labels, -2.0, 2.0, &mut Rng::new(seed ^ 1));
            let start = Array::uniform(1, labels, -2.0, 2.0, &mut Rng::new(seed ^ 2));
            let paths = all_paths(len, labels);
            let log_z = brute_log_z(&emissions, &trans, &start, &paths);
            let mut total_p = 0.0f64;
            for path in &paths {
                let (nll, _) = tape_nll(&emissions, &trans, &start, path);
                let got = nll as f64 + path_score(&emissions, &trans, &start, path);
                assert!(
                    (got - log_z).abs() < LOG_Z_TOL,
                    "log Z via {path:?} (len {len}, {labels} labels): {got} vs brute {log_z}"
                );
                total_p += (-(nll as f64)).exp();
            }
            assert!(
                (total_p - 1.0).abs() < 1e-3,
                "path probabilities sum to {total_p} (len {len}, {labels} labels)"
            );
        }
    }
}

/// Forbidden-strength potentials (the CRF heads add −1e4 to banned
/// transitions) must not destabilise the loss: every path's NLL and
/// gradients stay finite, and allowed paths still recover log Z.
#[test]
fn crf_nll_stays_finite_under_forbidden_potentials() {
    let (len, labels) = (5, 4);
    let emissions = Array::uniform(len, labels, -2.0, 2.0, &mut Rng::new(42));
    let mut trans = Array::uniform(labels, labels, -2.0, 2.0, &mut Rng::new(43));
    let mut start = Array::uniform(1, labels, -2.0, 2.0, &mut Rng::new(44));
    *trans.at_mut(0, 1) += -1.0e4;
    *trans.at_mut(3, 3) += -1.0e4;
    *start.at_mut(0, 2) += -1.0e4;
    let paths = all_paths(len, labels);
    let log_z = brute_log_z(&emissions, &trans, &start, &paths);
    for path in &paths {
        let (nll, grads_finite) = tape_nll(&emissions, &trans, &start, path);
        assert!(nll.is_finite(), "NLL of {path:?} is {nll}");
        assert!(grads_finite, "non-finite gradient for {path:?}");
        let score = path_score(&emissions, &trans, &start, path);
        if score > -1.0e3 {
            let got = nll as f64 + score;
            assert!(
                (got - log_z).abs() < LOG_Z_TOL,
                "log Z via allowed {path:?}: {got} vs brute {log_z}"
            );
        }
    }
}
