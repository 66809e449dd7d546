//! Numerical gradient verification for every differentiable graph op.
//!
//! For each op we treat the input as a parameter, project the output with a
//! fixed random matrix to obtain a scalar loss, and compare the analytic
//! gradient from `Graph::backward` against central finite differences. Ops
//! with kinks (ReLU, column-max) are sampled away from their non-smooth
//! points.

use fewner_tensor::{Array, Exec, Graph, ParamStore, Var};
use fewner_util::Rng;
use proptest::prelude::*;

/// Central-difference step for f32 work.
const EPS: f32 = 3e-3;

/// Builds `loss = Σ (f(x) ⊙ R)` and checks `dloss/dx` numerically.
///
/// `f` must be a pure function of its input var (it may capture constants).
fn gradcheck(
    input: Array,
    seed: u64,
    f: impl Fn(&Graph, &ParamStore, Var) -> Var,
) -> Result<(), String> {
    let mut store = ParamStore::new();
    let id = store.add("x", input.clone());

    // Fixed projection so every output element influences the scalar loss.
    let build_loss = |store: &ParamStore| -> (Graph, f32, Option<Array>) {
        let g = Graph::new();
        let x = g.param(store, id);
        let y = f(&g, store, x);
        let (r, c) = g.shape(y);
        let mut prng = Rng::new(seed ^ 0x5EED);
        let proj = Array::uniform(r, c, -1.0, 1.0, &mut prng);
        let loss = g.sum_all(g.mul(y, g.constant(proj)));
        let loss_value = g.value(loss).scalar_value();
        let grad = g
            .backward(loss)
            .ok()
            .and_then(|gr| gr.for_store(store).get(id).cloned());
        (g, loss_value, grad)
    };

    let (_, _, analytic) = build_loss(&store);
    let analytic = analytic.ok_or("no analytic gradient produced")?;

    let (rows, cols) = input.shape();
    for r in 0..rows {
        for c in 0..cols {
            let orig = input.at(r, c);
            let mut plus = input.clone();
            *plus.at_mut(r, c) = orig + EPS;
            store.set(id, plus);
            let (_, loss_plus, _) = build_loss(&store);

            let mut minus = input.clone();
            *minus.at_mut(r, c) = orig - EPS;
            store.set(id, minus);
            let (_, loss_minus, _) = build_loss(&store);
            store.set(id, input.clone());

            let numeric = (loss_plus - loss_minus) / (2.0 * EPS);
            let a = analytic.at(r, c);
            let tol = 2e-2 + 3e-2 * numeric.abs().max(a.abs());
            if (a - numeric).abs() > tol {
                return Err(format!(
                    "grad mismatch at ({r}, {c}): analytic {a} vs numeric {numeric}"
                ));
            }
        }
    }
    Ok(())
}

fn rand_array(rows: usize, cols: usize, seed: u64) -> Array {
    let mut rng = Rng::new(seed);
    Array::uniform(rows, cols, -1.5, 1.5, &mut rng)
}

/// Random array whose entries stay ≥ `margin` away from zero (for ReLU).
fn rand_array_off_zero(rows: usize, cols: usize, seed: u64, margin: f32) -> Array {
    let mut rng = Rng::new(seed);
    let mut a = Array::zeros(rows, cols);
    for v in a.data_mut() {
        let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
        *v = sign * rng.uniform(margin, 1.5);
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn grad_add_broadcast(seed in 0u64..1000, rows in 1usize..5, cols in 1usize..5) {
        let other = rand_array(1, cols, seed ^ 1);
        gradcheck(rand_array(rows, cols, seed), seed, move |g, _, x| {
            g.add(x, g.constant(other.clone()))
        }).unwrap();
    }

    #[test]
    fn grad_sub_both_sides(seed in 0u64..1000, rows in 1usize..5, cols in 1usize..5) {
        let other = rand_array(rows, cols, seed ^ 2);
        gradcheck(rand_array(rows, cols, seed), seed, move |g, _, x| {
            g.sub(g.constant(other.clone()), x)
        }).unwrap();
    }

    #[test]
    fn grad_mul_broadcast_col(seed in 0u64..1000, rows in 1usize..5, cols in 1usize..5) {
        let other = rand_array(rows, 1, seed ^ 3);
        gradcheck(rand_array(rows, cols, seed), seed, move |g, _, x| {
            g.mul(x, g.constant(other.clone()))
        }).unwrap();
    }

    #[test]
    fn grad_matmul_left_and_right(seed in 0u64..1000, m in 1usize..4, k in 1usize..4, n in 1usize..4) {
        let rhs = rand_array(k, n, seed ^ 4);
        gradcheck(rand_array(m, k, seed), seed, move |g, _, x| {
            g.matmul(x, g.constant(rhs.clone()))
        }).unwrap();
        let lhs = rand_array(m, k, seed ^ 5);
        gradcheck(rand_array(k, n, seed.wrapping_add(9)), seed, move |g, _, x| {
            g.matmul(g.constant(lhs.clone()), x)
        }).unwrap();
    }

    #[test]
    fn grad_activations(seed in 0u64..1000, rows in 1usize..5, cols in 1usize..5) {
        gradcheck(rand_array(rows, cols, seed), seed, |g, _, x| g.sigmoid(x)).unwrap();
        gradcheck(rand_array(rows, cols, seed ^ 6), seed, |g, _, x| g.tanh(x)).unwrap();
        gradcheck(rand_array_off_zero(rows, cols, seed ^ 7, 0.05), seed, |g, _, x| g.relu(x)).unwrap();
    }

    #[test]
    fn grad_reductions(seed in 0u64..1000, rows in 1usize..5, cols in 1usize..5) {
        gradcheck(rand_array(rows, cols, seed), seed, |g, _, x| g.sum_all(x)).unwrap();
        gradcheck(rand_array(rows, cols, seed ^ 8), seed, |g, _, x| g.mean_all(x)).unwrap();
        gradcheck(rand_array(rows, cols, seed ^ 9), seed, |g, _, x| g.col_sum(x)).unwrap();
        gradcheck(rand_array(rows, cols, seed ^ 10), seed, |g, _, x| g.row_sum(x)).unwrap();
    }

    #[test]
    fn grad_logspace_ops(seed in 0u64..1000, rows in 2usize..5, cols in 2usize..5) {
        gradcheck(rand_array(rows, cols, seed), seed, |g, _, x| g.col_lse(x)).unwrap();
        gradcheck(rand_array(rows, cols, seed ^ 11), seed, |g, _, x| g.lse_all(x)).unwrap();
        gradcheck(rand_array(rows, cols, seed ^ 12), seed, |g, _, x| g.log_softmax_rows(x)).unwrap();
        gradcheck(rand_array(rows, cols, seed ^ 13), seed, |g, _, x| g.softmax_rows(x)).unwrap();
    }

    #[test]
    fn grad_structural_ops(seed in 0u64..1000, rows in 2usize..6, cols in 2usize..5) {
        gradcheck(rand_array(rows, cols, seed), seed, |g, _, x| g.transpose(x)).unwrap();
        gradcheck(rand_array(rows, cols, seed ^ 14), seed, move |g, _, x| g.row(x, rows - 1)).unwrap();
        gradcheck(rand_array(rows, cols, seed ^ 15), seed, move |g, _, x| {
            g.slice_cols(x, 1, cols - 1)
        }).unwrap();
        gradcheck(rand_array(rows, cols, seed ^ 16), seed, |g, _, x| {
            g.concat_cols(&[x, x])
        }).unwrap();
        gradcheck(rand_array(rows, cols, seed ^ 17), seed, |g, _, x| {
            g.concat_rows(&[x, x])
        }).unwrap();
    }

    #[test]
    fn grad_unfold_and_gather(seed in 0u64..1000, rows in 3usize..6, cols in 1usize..4) {
        gradcheck(rand_array(rows, cols, seed), seed, |g, _, x| g.unfold(x, 2)).unwrap();
        // Three segments: windows stop at every boundary.
        gradcheck(rand_array(rows + 4, cols, seed ^ 22), seed, move |g, _, x| {
            g.unfold_segments(x, 2, &[2, rows, 2])
        }).unwrap();
        let idx = vec![0usize, rows - 1, 0];
        gradcheck(rand_array(rows, cols, seed ^ 18), seed, move |g, _, x| {
            g.gather_rows(x, &idx)
        }).unwrap();
        let coords = vec![(0usize, 0usize), (rows - 1, cols - 1), (0, 0)];
        gradcheck(rand_array(rows, cols, seed ^ 19), seed, move |g, _, x| {
            g.gather_sum(x, &coords)
        }).unwrap();
    }

    #[test]
    fn grad_composite_film_layer(seed in 0u64..1000, rows in 1usize..5, dim in 1usize..5) {
        // FiLM: x is the conditioning source; gamma/eta derived from it.
        let h = rand_array(rows, dim, seed ^ 20);
        gradcheck(rand_array(1, dim, seed), seed, move |g, _, x| {
            let gamma = g.add_scalar(x, 1.0);
            let eta = g.mul_scalar(x, 0.5);
            g.film(g.constant(h.clone()), gamma, eta)
        }).unwrap();
    }

    #[test]
    fn grad_deep_composition(seed in 0u64..1000) {
        // A GRU-like composite: gates, elementwise mixing, matmul chain.
        let w = rand_array(4, 4, seed ^ 21);
        gradcheck(rand_array(2, 4, seed), seed, move |g, _, x| {
            let z = g.sigmoid(g.matmul(x, g.constant(w.clone())));
            let n = g.tanh(x);
            g.add(g.mul(g.one_minus(z), n), g.mul(z, x))
        }).unwrap();
    }
}

#[test]
fn grad_reshape() {
    gradcheck(rand_array(2, 6, 31), 31, |g, _, x| {
        let r = g.reshape(x, 4, 3);
        g.matmul(r, g.constant(rand_array(3, 2, 32)))
    })
    .unwrap();
}

#[test]
fn grad_col_max_away_from_ties() {
    // Deterministic input with a unique max per column.
    let x = Array::from_vec(3, 2, vec![0.1, 5.0, 3.0, 1.0, 1.0, 2.0]);
    gradcheck(x, 99, |g, _, v| g.col_max(v)).unwrap();
    // Segments of 2, 3 and 1 rows, each with a unique max per column.
    let x = Array::from_vec(
        6,
        2,
        vec![
            0.1, 5.0, 3.0, 1.0, //
            1.0, 2.0, -2.0, 4.0, 0.5, -1.0, //
            -0.7, 0.3,
        ],
    );
    gradcheck(x, 98, |g, _, v| g.col_max_segments(v, &[2, 3, 1])).unwrap();
}

#[test]
fn grad_second_use_of_same_param() {
    // x used twice through different paths must accumulate correctly.
    gradcheck(rand_array(2, 3, 7), 7, |g, _, x| {
        g.add(g.mul(x, x), g.mul_scalar(x, 0.3))
    })
    .unwrap();
}
