//! Executor-equivalence properties: every op in the [`Exec`] vocabulary must
//! produce **bitwise identical** values on the tape ([`Graph::eval`]) and on
//! the gradient-free arena ([`Infer`]) — both executors share the same
//! numeric kernels, so even floating-point rounding must agree exactly.
//! Also pins the arena-reuse contract: recycled buffers (mark/reset) never
//! leak stale values into later computations.

use std::sync::Arc;

use fewner_tensor::{Array, Exec, ExecMode, Graph, Infer, ParamStore};
use fewner_util::Rng;
use proptest::prelude::*;

/// A named op-chain case: label + a builder runnable on any executor.
type Case = (&'static str, Box<dyn Fn(&dyn Exec) -> fewner_tensor::Var>);

fn rand_array(rows: usize, cols: usize, seed: u64) -> Array {
    let mut rng = Rng::new(seed);
    Array::uniform(rows, cols, -2.0, 2.0, &mut rng)
}

/// Asserts exact bit equality (shape + every f32 payload).
fn assert_bitwise(a: &Array, b: &Array, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data().iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

/// Runs the same op-building closure on a tape and on the arena and returns
/// both results.
fn on_both<F>(f: F) -> (Arc<Array>, Arc<Array>)
where
    F: Fn(&dyn Exec) -> fewner_tensor::Var,
{
    let g = Graph::eval();
    let tape = {
        let v = f(&g);
        Exec::value(&g, v)
    };
    let ex = Infer::new();
    let arena = {
        let v = f(&ex);
        Exec::value(&ex, v)
    };
    (tape, arena)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Elementwise ops, scalar ops and the provided compositions
    /// (neg/one_minus/film) agree bitwise.
    #[test]
    fn elementwise_ops_bitwise_equal(seed in 0u64..10_000, r in 1usize..6, c in 1usize..6) {
        let a = rand_array(r, c, seed);
        let b = rand_array(r, c, seed ^ 1);
        let row = rand_array(1, c, seed ^ 2);
        let eta = rand_array(1, c, seed ^ 3);
        let cases: Vec<Case> = vec![
            ("add", Box::new({let (a, b) = (a.clone(), b.clone());
                move |g| g.add(g.constant(a.clone()), g.constant(b.clone()))})),
            ("add_broadcast", Box::new({let (a, row) = (a.clone(), row.clone());
                move |g| g.add(g.constant(a.clone()), g.constant(row.clone()))})),
            ("sub", Box::new({let (a, b) = (a.clone(), b.clone());
                move |g| g.sub(g.constant(a.clone()), g.constant(b.clone()))})),
            ("mul", Box::new({let (a, b) = (a.clone(), b.clone());
                move |g| g.mul(g.constant(a.clone()), g.constant(b.clone()))})),
            ("add_scalar", Box::new({let a = a.clone();
                move |g| g.add_scalar(g.constant(a.clone()), 0.37)})),
            ("mul_scalar", Box::new({let a = a.clone();
                move |g| g.mul_scalar(g.constant(a.clone()), -1.91)})),
            ("sigmoid", Box::new({let a = a.clone();
                move |g| g.sigmoid(g.constant(a.clone()))})),
            ("tanh", Box::new({let a = a.clone();
                move |g| g.tanh(g.constant(a.clone()))})),
            ("relu", Box::new({let a = a.clone();
                move |g| g.relu(g.constant(a.clone()))})),
            ("neg", Box::new({let a = a.clone();
                move |g| g.neg(g.constant(a.clone()))})),
            ("one_minus", Box::new({let a = a.clone();
                move |g| g.one_minus(g.constant(a.clone()))})),
            ("film", Box::new({let (a, row, eta) = (a.clone(), row.clone(), eta.clone());
                move |g| g.film(g.constant(a.clone()), g.constant(row.clone()), g.constant(eta.clone()))})),
        ];
        for (name, build) in &cases {
            let (tape, arena) = on_both(build);
            assert_bitwise(&tape, &arena, name);
        }
    }

    /// Matrix ops and reductions agree bitwise.
    #[test]
    fn reductions_bitwise_equal(seed in 0u64..10_000, r in 1usize..6, c in 1usize..6, k in 1usize..5) {
        let a = rand_array(r, c, seed);
        let b = rand_array(c, k, seed ^ 4);
        let coords: Vec<(usize, usize)> = (0..r).map(|i| (i, i % c)).collect();
        let cases: Vec<Case> = vec![
            ("matmul", Box::new({let (a, b) = (a.clone(), b.clone());
                move |g| g.matmul(g.constant(a.clone()), g.constant(b.clone()))})),
            ("transpose", Box::new({let a = a.clone();
                move |g| g.transpose(g.constant(a.clone()))})),
            ("sum_all", Box::new({let a = a.clone();
                move |g| g.sum_all(g.constant(a.clone()))})),
            ("mean_all", Box::new({let a = a.clone();
                move |g| g.mean_all(g.constant(a.clone()))})),
            ("col_sum", Box::new({let a = a.clone();
                move |g| g.col_sum(g.constant(a.clone()))})),
            ("row_sum", Box::new({let a = a.clone();
                move |g| g.row_sum(g.constant(a.clone()))})),
            ("col_max", Box::new({let a = a.clone();
                move |g| g.col_max(g.constant(a.clone()))})),
            ("col_lse", Box::new({let a = a.clone();
                move |g| g.col_lse(g.constant(a.clone()))})),
            ("lse_all", Box::new({let a = a.clone();
                move |g| g.lse_all(g.constant(a.clone()))})),
            ("log_softmax_rows", Box::new({let a = a.clone();
                move |g| g.log_softmax_rows(g.constant(a.clone()))})),
            ("softmax_rows", Box::new({let a = a.clone();
                move |g| g.softmax_rows(g.constant(a.clone()))})),
            ("row_mean", Box::new({let a = a.clone();
                move |g| g.row_mean(g.constant(a.clone()))})),
            ("gather_sum", Box::new({let (a, coords) = (a.clone(), coords.clone());
                move |g| g.gather_sum(g.constant(a.clone()), &coords)})),
        ];
        for (name, build) in &cases {
            let (tape, arena) = on_both(build);
            assert_bitwise(&tape, &arena, name);
        }
    }

    /// Structural ops (concat / slice / unfold / gather / reshape) agree
    /// bitwise.
    #[test]
    fn structural_ops_bitwise_equal(seed in 0u64..10_000, r in 1usize..6, c in 2usize..6) {
        let a = rand_array(r, c, seed);
        let b = rand_array(r, c, seed ^ 5);
        let idx: Vec<usize> = (0..2 * r).map(|i| i % r).collect();
        let k = r.min(3); // unfold windows over rows: k ≤ r
        let cases: Vec<Case> = vec![
            ("concat_cols", Box::new({let (a, b) = (a.clone(), b.clone());
                move |g| g.concat_cols(&[g.constant(a.clone()), g.constant(b.clone())])})),
            ("concat_rows", Box::new({let (a, b) = (a.clone(), b.clone());
                move |g| g.concat_rows(&[g.constant(a.clone()), g.constant(b.clone())])})),
            ("row", Box::new({let a = a.clone();
                move |g| g.row(g.constant(a.clone()), 0)})),
            ("slice_cols", Box::new({let a = a.clone();
                move |g| g.slice_cols(g.constant(a.clone()), 1, c - 1)})),
            ("unfold", Box::new({let a = a.clone();
                move |g| g.unfold(g.constant(a.clone()), k)})),
            ("gather_rows", Box::new({let (a, idx) = (a.clone(), idx.clone());
                move |g| g.gather_rows(g.constant(a.clone()), &idx)})),
            ("reshape", Box::new({let a = a.clone();
                move |g| g.reshape(g.constant(a.clone()), c, r)})),
        ];
        for (name, build) in &cases {
            let (tape, arena) = on_both(build);
            assert_bitwise(&tape, &arena, name);
        }
    }

    /// A deep composite chain (the shape of a real forward pass) stays
    /// bitwise identical, and re-running it on a *recycled* arena region
    /// (mark/reset) keeps producing the identical bits — stale buffer
    /// contents never leak through.
    #[test]
    fn composite_chain_survives_arena_recycling(seed in 0u64..10_000) {
        let x = rand_array(5, 4, seed);
        let w = rand_array(4, 6, seed ^ 6);
        let gamma = rand_array(1, 6, seed ^ 7);
        let eta = rand_array(1, 6, seed ^ 8);
        let chain = |g: &dyn Exec| {
            let h = g.tanh(g.matmul(g.constant(x.clone()), g.constant(w.clone())));
            let f = g.film(h, g.constant(gamma.clone()), g.constant(eta.clone()));
            g.log_softmax_rows(g.relu(f))
        };
        let reference = {
            let g = Graph::eval();
            let v = chain(&g);
            Exec::value(&g, v)
        };
        let ex = Infer::new();
        let mark = ex.mark();
        for round in 0..3 {
            let v = chain(&ex);
            let got = Exec::value(&ex, v);
            assert_bitwise(&reference, &got, &format!("recycled round {round}"));
            ex.reset_to(mark);
        }
    }

    /// Parameter binding agrees across executors: repeated binds return the
    /// same handle, values match the store bitwise, and `freeze` is a no-op
    /// on the arena.
    #[test]
    fn param_binding_bitwise_equal(seed in 0u64..10_000) {
        let mut store = ParamStore::new();
        let id = store.add("w", rand_array(3, 4, seed));
        let (tape, arena) = on_both(|g| {
            g.freeze(&store);
            let first = g.param(&store, id);
            let again = g.param(&store, id);
            assert_eq!(first, again, "repeated bind must return the same handle");
            g.add_scalar(first, 0.25)
        });
        assert_bitwise(&tape, &arena, "param chain");
    }
}

/// Both executors draw no dropout mask outside `Train` mode and consume no
/// RNG draws — prediction paths stay deterministic.
#[test]
fn dropout_is_inert_outside_train_mode() {
    let g = Graph::eval();
    let ex = Infer::new();
    for (name, mode, mask) in [
        (
            "tape",
            g.mode(),
            g.dropout_mask(4, 5, 0.5, &mut Rng::new(7)),
        ),
        (
            "arena",
            ex.mode(),
            ex.dropout_mask(4, 5, 0.5, &mut Rng::new(7)),
        ),
    ] {
        assert_eq!(mode, ExecMode::Eval, "{name}");
        assert!(mask.is_none(), "{name}: no mask outside Train mode");
    }
    let mut rng = Rng::new(7);
    g.dropout_mask(4, 5, 0.5, &mut rng);
    ex.dropout_mask(4, 5, 0.5, &mut rng);
    assert_eq!(rng.below(1 << 30), Rng::new(7).below(1 << 30), "no draws");
}
