//! Algebraic properties of the autodiff tape beyond pointwise gradchecks:
//! linearity of the backward map, chain-rule composition, gradient
//! accumulation across shared subexpressions, optimizer determinism, and
//! the gradient bits of layers run over stacked sequences.

use fewner_tensor::nn::{BiGru, BiLstm, Conv1d};
use fewner_tensor::{Adam, Array, Exec, Graph, ParamGrads, ParamId, ParamStore, Sgd, Var};
use fewner_util::Rng;
use proptest::prelude::*;

fn rand_array(rows: usize, cols: usize, seed: u64) -> Array {
    let mut rng = Rng::new(seed);
    Array::uniform(rows, cols, -1.0, 1.0, &mut rng)
}

/// d/dx [a·f(x) + b·g(x)] must equal a·df/dx + b·dg/dx.
#[test]
fn backward_is_linear_in_the_loss() {
    let x0 = rand_array(3, 3, 1);
    let (a, b) = (0.7f32, -1.3f32);

    let grad_of = |weight_f: f32, weight_g: f32| -> Array {
        let mut store = ParamStore::new();
        let id = store.add("x", x0.clone());
        let g = Graph::new();
        let x = g.param(&store, id);
        let f = g.sum_all(g.tanh(x));
        let gg = g.sum_all(g.mul(x, x));
        let loss = g.add(g.mul_scalar(f, weight_f), g.mul_scalar(gg, weight_g));
        g.backward(loss)
            .unwrap()
            .for_store(&store)
            .get(id)
            .cloned()
            .unwrap()
    };

    let combined = grad_of(a, b);
    let f_only = grad_of(1.0, 0.0);
    let g_only = grad_of(0.0, 1.0);
    for i in 0..combined.len() {
        let expect = a * f_only.data()[i] + b * g_only.data()[i];
        assert!(
            (combined.data()[i] - expect).abs() < 1e-5,
            "linearity violated at {i}"
        );
    }
}

/// Gradient of h(g(f(x))) computed in one graph equals the product of
/// Jacobians computed via an intermediate cut (manual chain rule on a
/// scalar chain).
#[test]
fn chain_rule_composition() {
    // Scalar chain: y = tanh(x), z = y^2, loss = 3z. dloss/dx = 3·2y·(1-y²).
    let mut store = ParamStore::new();
    let id = store.add("x", Array::scalar(0.4));
    let g = Graph::new();
    let x = g.param(&store, id);
    let y = g.tanh(x);
    let z = g.mul(y, y);
    let loss = g.mul_scalar(z, 3.0);
    let grad = g
        .backward(loss)
        .unwrap()
        .for_store(&store)
        .get(id)
        .unwrap()
        .scalar_value();
    let yv = 0.4f32.tanh();
    let expect = 3.0 * 2.0 * yv * (1.0 - yv * yv);
    assert!((grad - expect).abs() < 1e-5, "{grad} vs {expect}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two graphs built from the same inputs produce identical values and
    /// gradients (the tape is deterministic).
    #[test]
    fn tape_is_deterministic(seed in 0u64..1000) {
        let run = || {
            let mut store = ParamStore::new();
            let id = store.add("w", rand_array(2, 4, seed));
            let g = Graph::new();
            let w = g.param(&store, id);
            let h = g.sigmoid(g.matmul(w, g.constant(rand_array(4, 3, seed ^ 9))));
            let loss = g.mean_all(g.mul(h, h));
            let value = g.value(loss).scalar_value();
            let grad = g.backward(loss).unwrap().for_store(&store).get(id).cloned().unwrap();
            (value, grad)
        };
        let (v1, g1) = run();
        let (v2, g2) = run();
        prop_assert_eq!(v1, v2);
        prop_assert_eq!(g1.data(), g2.data());
    }

    /// A parameter used through two paths accumulates exactly the sum of
    /// the single-path gradients.
    #[test]
    fn shared_subexpression_accumulates(seed in 0u64..1000) {
        let x0 = rand_array(2, 2, seed);
        let single = |which: usize| -> Array {
            let mut store = ParamStore::new();
            let id = store.add("x", x0.clone());
            let g = Graph::new();
            let x = g.param(&store, id);
            let loss = if which == 0 {
                g.sum_all(g.sigmoid(x))
            } else {
                g.sum_all(g.mul_scalar(x, 2.0))
            };
            g.backward(loss).unwrap().for_store(&store).get(id).cloned().unwrap()
        };
        let both = {
            let mut store = ParamStore::new();
            let id = store.add("x", x0.clone());
            let g = Graph::new();
            let x = g.param(&store, id);
            let loss = g.add(g.sum_all(g.sigmoid(x)), g.sum_all(g.mul_scalar(x, 2.0)));
            g.backward(loss).unwrap().for_store(&store).get(id).cloned().unwrap()
        };
        let (a, b) = (single(0), single(1));
        for i in 0..both.len() {
            prop_assert!((both.data()[i] - a.data()[i] - b.data()[i]).abs() < 1e-5);
        }
    }

    /// SGD and Adam are deterministic given identical gradient sequences.
    #[test]
    fn optimizers_are_deterministic(seed in 0u64..1000) {
        let run_sgd = || {
            let mut store = ParamStore::new();
            let id = store.add("w", rand_array(2, 3, seed));
            let mut opt = Sgd::new(0.1);
            for step in 0..5 {
                let mut grads = ParamGrads::zeros_like(&store);
                grads.accumulate(id.index(), &rand_array(2, 3, seed ^ (step + 1)));
                opt.step(&mut store, &grads).unwrap();
            }
            store.value_at(0).data().to_vec()
        };
        prop_assert_eq!(run_sgd(), run_sgd());

        let run_adam = || {
            let mut store = ParamStore::new();
            let id = store.add("w", rand_array(2, 3, seed));
            let mut opt = Adam::new(0.01).with_weight_decay(1e-4);
            for step in 0..5 {
                let mut grads = ParamGrads::zeros_like(&store);
                grads.accumulate(id.index(), &rand_array(2, 3, seed ^ (step + 100)));
                opt.step(&mut store, &grads).unwrap();
            }
            store.value_at(0).data().to_vec()
        };
        prop_assert_eq!(run_adam(), run_adam());
    }

    /// Gradient clipping preserves direction and caps magnitude.
    #[test]
    fn clip_preserves_direction(seed in 0u64..1000, clip in 0.5f32..5.0) {
        let mut store = ParamStore::new();
        let id = store.add("w", Array::zeros(3, 3));
        let raw = rand_array(3, 3, seed);
        let mut grads = ParamGrads::zeros_like(&store);
        grads.accumulate(id.index(), &raw);
        let before = grads.global_norm();
        grads.clip_global_norm(clip);
        let after = grads.global_norm();
        prop_assert!(after <= clip * 1.0001);
        if before > 1e-6 {
            // Direction preserved: clipped = raw * (after / before).
            let g = grads.get(id).unwrap();
            let ratio = after / before;
            for (c, r) in g.data().iter().zip(raw.data()) {
                prop_assert!((c - r * ratio).abs() < 1e-4);
            }
        }
    }

    /// Softmax rows of any finite matrix are a probability distribution and
    /// its graph value agrees with exp(log_softmax).
    #[test]
    fn softmax_consistency(seed in 0u64..1000, rows in 1usize..5, cols in 2usize..6) {
        let x = rand_array(rows, cols, seed);
        let g = Graph::new();
        let xv = g.constant(x);
        let sm = g.value(g.softmax_rows(xv));
        let lsm = g.value(g.log_softmax_rows(xv));
        for r in 0..rows {
            let sum: f32 = sm.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            for c in 0..cols {
                prop_assert!((sm.at(r, c) - lsm.at(r, c).exp()).abs() < 1e-5);
            }
        }
    }
}

/// A layer that runs over a stack of sequences given by their lengths.
enum Stacked {
    Gru(BiGru),
    Lstm(BiLstm),
    Conv(Conv1d),
}

impl Stacked {
    fn new(kind: usize, store: &mut ParamStore, in_dim: usize, rng: &mut Rng) -> Stacked {
        match kind {
            0 => Stacked::Gru(BiGru::new(store, "gru", in_dim, 3, rng)),
            1 => Stacked::Lstm(BiLstm::new(store, "lstm", in_dim, 3, rng)),
            _ => Stacked::Conv(Conv1d::new(store, "conv", in_dim, &[2, 3], 4, rng)),
        }
    }

    fn apply(&self, g: &Graph, store: &ParamStore, x: Var, lens: &[usize]) -> Var {
        match self {
            Stacked::Gru(l) => l.apply(g, store, x, lens),
            Stacked::Lstm(l) => l.apply(g, store, x, lens),
            Stacked::Conv(l) => l.apply(g, store, x, lens),
        }
    }
}

/// The loss, every layer parameter's gradient and the input's gradient,
/// as raw bits, from one tape: one `apply` over all of `lens`' sequences
/// when `stacked`, else one `apply` per sequence, in order. The loss is a
/// fixed random projection of the output rows.
fn stacked_bits(kind: usize, lens: &[usize], seed: u64, stacked: bool) -> Vec<Vec<u32>> {
    let mut rng = Rng::new(seed);
    let in_dim = 4;
    let mut store = ParamStore::new();
    let layer = Stacked::new(kind, &mut store, in_dim, &mut rng);
    let mut inputs = ParamStore::new();
    let total: usize = lens.iter().sum();
    let x_id: ParamId = inputs.add("x", Array::uniform(total, in_dim, -1.0, 1.0, &mut rng));

    let g = Graph::new();
    let x = g.param(&inputs, x_id);
    let out = if stacked {
        layer.apply(
            &g,
            &store,
            g.gather_rows(x, &(0..total).collect::<Vec<_>>()),
            lens,
        )
    } else {
        let mut first = 0;
        let outs: Vec<Var> = lens
            .iter()
            .map(|&len| {
                let rows: Vec<usize> = (first..first + len).collect();
                first += len;
                layer.apply(&g, &store, g.gather_rows(x, &rows), &[len])
            })
            .collect();
        g.concat_rows(&outs)
    };
    let (r, c) = g.shape(out);
    let weights = g.constant(Array::uniform(
        r,
        c,
        -1.0,
        1.0,
        &mut Rng::new(seed ^ 0x5eed),
    ));
    let loss = g.sum_all(g.mul(out, weights));
    let grads = g.backward(loss).unwrap();
    let bits = |a: &Array| a.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let theta = grads.for_store(&store);
    let mut all = vec![bits(&g.value(loss))];
    all.extend((0..store.len()).map(|i| theta.get_at(i).map(bits).unwrap_or_default()));
    all.push(
        grads
            .for_store(&inputs)
            .get(x_id)
            .map(bits)
            .unwrap_or_default(),
    );
    all
}

/// Asserts the stacked call's bits equal one call per sequence's.
fn assert_stacked_matches(kind: usize, lens: &[usize], seed: u64) {
    let stacked = stacked_bits(kind, lens, seed, true);
    let one_by_one = stacked_bits(kind, lens, seed, false);
    assert_eq!(
        stacked[0], one_by_one[0],
        "layer {kind}, lens {lens:?}: loss"
    );
    let last = stacked.len() - 1;
    for (i, (a, b)) in stacked.iter().zip(&one_by_one).enumerate().skip(1) {
        let what = if i == last {
            "the input".to_string()
        } else {
            format!("parameter {}", i - 1)
        };
        assert_eq!(a, b, "layer {kind}, lens {lens:?}: gradient of {what}");
    }
}

/// Ties, a one-step sequence, and sequences that end while others run:
/// the recurrent state that goes on must get its gradient in one
/// sequence's order, and each parameter its sequences' sums, last first.
#[test]
fn stacked_layers_match_one_call_per_sequence_on_fixed_lengths() {
    let cases: [&[usize]; 6] = [
        &[5, 3, 7, 3, 1],
        &[5, 5, 3],
        &[3, 5, 5],
        &[7, 1],
        &[9, 2, 9, 4, 1, 6],
        &[4, 4, 4],
    ];
    for (i, lens) in cases.into_iter().enumerate() {
        for kind in 0..2 {
            assert_stacked_matches(kind, lens, 100 + i as u64);
        }
        // The char-CNN needs every input at least as long as its widest
        // filter (3).
        let words: Vec<usize> = lens.iter().map(|&len| len + 2).collect();
        assert_stacked_matches(2, &words, 200 + i as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One `apply` of `BiGru`, `BiLstm` or `Conv1d` over 1–9 stacked
    /// sequences gives, bit for bit, the loss, input gradient and parameter
    /// gradients of one `apply` per sequence, in order, on one tape.
    #[test]
    fn stacked_layers_match_one_call_per_sequence(
        seed in 0u64..10_000,
        kind in 0usize..3,
        lens in proptest::collection::vec(1usize..8, 1..10),
    ) {
        let lens: Vec<usize> = if kind == 2 { lens.iter().map(|&l| l + 2).collect() } else { lens };
        assert_stacked_matches(kind, &lens, seed);
    }
}
