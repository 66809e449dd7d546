//! Algebraic properties of the autodiff tape beyond pointwise gradchecks:
//! linearity of the backward map, chain-rule composition, gradient
//! accumulation across shared subexpressions, and optimizer determinism.

use fewner_tensor::{Adam, Array, Exec, Graph, ParamGrads, ParamStore, Sgd};
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
