//! Kernel property suite.
//!
//! Two layers of guarantees are pinned here:
//!
//! 1. **Algebraic laws** of the kernels — broadcast-shape laws, log-sum-exp
//!    against a naive shifted-sum oracle (computed in `f64`), the
//!    unfold/unfold-backward adjoint, `reduce_into` against transposed
//!    brute force, first-max-wins ties in `max_cols`, and segmented
//!    `unfold`/`max_cols` against one call per segment — values, and the
//!    input gradient of the tape's segmented ops.
//! 2. **The blocked matmul against the scalar loop** — `matmul_into` is
//!    the one kernel with a cache-blocked body, and it must produce
//!    *bitwise identical* results to the plain i–k–j loop kept below as
//!    the test oracle, zero-skip included.
//!
//! The tolerance tiers (bitwise / F1-bounded) are documented in DESIGN.md
//! §5h.

use fewner_tensor::array::matmul_into;
use fewner_tensor::kernels;
use fewner_tensor::{Array, Exec, Graph, ParamStore, Var};
use fewner_util::Rng;
use proptest::prelude::*;

fn rand_array(rows: usize, cols: usize, seed: u64) -> Array {
    let mut rng = Rng::new(seed);
    Array::uniform(rows, cols, -2.0, 2.0, &mut rng)
}

/// Like [`rand_array`] but with exact zeros sprinkled in, to exercise the
/// matmul's zero-skip path (skipping vs adding `0.0` differs on `-0.0`
/// accumulators, so the blocked kernel must skip exactly where the scalar
/// loop does).
fn rand_array_with_zeros(rows: usize, cols: usize, seed: u64) -> Array {
    let mut rng = Rng::new(seed);
    let mut a = Array::uniform(rows, cols, -2.0, 2.0, &mut rng);
    for v in a.data_mut() {
        if rng.below(4) == 0 {
            *v = 0.0;
        }
    }
    a
}

/// Broadcast elementwise `f(a, b)` into a fresh array of the broadcast shape.
fn bcast(a: &Array, b: &Array, op: &str, f: impl Fn(f32, f32) -> f32) -> Array {
    let (r, c) = kernels::broadcast_shape(a.shape(), b.shape(), op);
    let mut out = Array::zeros(r, c);
    kernels::bcast_zip_into(a, b, &mut out, f);
    out
}

fn assert_bitwise(a: &Array, b: &Array, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

// ---------------------------------------------------------------------------
// 1. Algebraic laws
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Broadcast addition/multiplication are commutative bitwise, for every
    /// broadcast configuration: same-shape, 1-row, 1-col and scalar operands.
    #[test]
    fn broadcast_ops_commute(seed in 0u64..10_000, r in 1usize..7, c in 1usize..7) {
        let full = rand_array(r, c, seed);
        let shapes = [(r, c), (1, c), (r, 1), (1, 1)];
        for (i, &(br, bc)) in shapes.iter().enumerate() {
            let b = rand_array(br, bc, seed ^ (i as u64 + 1));
            let ab = bcast(&full, &b, "ab", |x, y| x + y);
            let ba = bcast(&b, &full, "ba", |x, y| x + y);
            assert_bitwise(&ab, &ba, "broadcast add commutes");
            let ab = bcast(&full, &b, "ab", |x, y| x * y);
            let ba = bcast(&b, &full, "ba", |x, y| x * y);
            assert_bitwise(&ab, &ba, "broadcast mul commutes");
        }
    }

    /// Broadcasting against a 1-row / 1-col / scalar operand equals zipping
    /// against the explicitly materialised (tiled) operand.
    #[test]
    fn broadcast_equals_materialised_tiling(seed in 0u64..10_000, r in 1usize..7, c in 1usize..7) {
        let a = rand_array(r, c, seed);
        for (i, &(br, bc)) in [(1, c), (r, 1), (1, 1)].iter().enumerate() {
            let b = rand_array(br, bc, seed ^ (i as u64 + 11));
            let mut tiled = Array::zeros(r, c);
            for x in 0..r {
                for y in 0..c {
                    *tiled.at_mut(x, y) = b.at(if br == 1 { 0 } else { x }, if bc == 1 { 0 } else { y });
                }
            }
            let via_bcast = bcast(&a, &b, "bcast", |x, y| x - y);
            let via_tiled = bcast(&a, &tiled, "tiled", |x, y| x - y);
            assert_bitwise(&via_bcast, &via_tiled, "tiling law");
        }
    }

    /// `logsumexp_cols` agrees with a naive shifted-sum oracle computed in
    /// f64, within float tolerance — including columns whose max is reached
    /// more than once.
    #[test]
    fn logsumexp_cols_matches_f64_oracle(seed in 0u64..10_000, r in 1usize..9, c in 1usize..7) {
        let mut a = rand_array(r, c, seed);
        if r > 1 {
            // Duplicate the first row into the second: guaranteed ties.
            let first = a.row(0).to_vec();
            a.row_mut(1).copy_from_slice(&first);
        }
        let got = kernels::logsumexp_cols(&a);
        for j in 0..c {
            let max = (0..r).map(|i| a.at(i, j) as f64).fold(f64::NEG_INFINITY, f64::max);
            let sum: f64 = (0..r).map(|i| (a.at(i, j) as f64 - max).exp()).sum();
            let want = max + sum.ln();
            let err = (got.at(0, j) as f64 - want).abs();
            prop_assert!(err < 1e-5, "column {j}: {} vs oracle {want}", got.at(0, j));
        }
    }

    /// One-row input: `lse` over a single element is exactly the element
    /// (`max + ln(exp(0)) = max + 0.0`), bitwise.
    #[test]
    fn logsumexp_cols_single_element_rows_are_exact(seed in 0u64..10_000, c in 1usize..9) {
        let a = rand_array(1, c, seed);
        let got = kernels::logsumexp_cols(&a);
        assert_bitwise(&got, &a, "single-element lse");
    }

    /// The unfold/unfold_backward pair is an adjoint:
    /// `⟨unfold(a), g⟩ = ⟨a, unfold_backward(g)⟩`, and scattering a
    /// ones-gradient back counts each source row's window multiplicity.
    #[test]
    fn unfold_backward_is_the_adjoint_of_unfold(
        seed in 0u64..10_000, r in 1usize..8, c in 1usize..5, k_off in 0usize..8,
    ) {
        let a = rand_array(r, c, seed);
        let k = 1 + k_off % r;
        let u = kernels::unfold(&a, k, &[r]);
        prop_assert_eq!(u.shape(), (r - k + 1, k * c));

        let g = rand_array(r - k + 1, k * c, seed ^ 21);
        let mut back = Array::zeros(r, c);
        kernels::unfold_backward(&g, k, &[r], &mut back);
        let dot = |x: &Array, y: &Array| -> f64 {
            x.data().iter().zip(y.data()).map(|(&p, &q)| p as f64 * q as f64).sum()
        };
        let err = (dot(&u, &g) - dot(&a, &back)).abs();
        prop_assert!(err < 1e-4, "adjoint identity violated by {err}");

        // Ones-gradient → per-row window multiplicity.
        let ones = Array::zeros(r - k + 1, k * c).map(|_| 1.0);
        let mut counts = Array::zeros(r, c);
        kernels::unfold_backward(&ones, k, &[r], &mut counts);
        for i in 0..r {
            let windows = (i.min(r - k) - i.saturating_sub(k - 1) + 1) as f32;
            for j in 0..c {
                assert_eq!(counts.at(i, j), windows, "row {i} multiplicity");
            }
        }
    }

    /// `reduce_into` against brute force: reducing to one row is a column
    /// sum, reducing to one column is a row sum (checked via the transpose),
    /// and reducing to `[1, 1]` is the total — all accumulated on top of
    /// the existing `into` contents.
    #[test]
    fn reduce_into_matches_transposed_brute_force(seed in 0u64..10_000, r in 1usize..7, c in 1usize..7) {
        let g = rand_array(r, c, seed);
        let t = g.transpose();

        // [r, c] → [1, c]: column sums, in ascending-row order.
        let mut into = rand_array(1, c, seed ^ 31);
        let base = into.clone();
        kernels::reduce_into(&g, &mut into);
        for j in 0..c {
            let mut want = base.at(0, j);
            for i in 0..r {
                want += g.at(i, j);
            }
            assert_eq!(into.at(0, j).to_bits(), want.to_bits(), "col sum {j}");
        }

        // [r, c] → [r, 1] equals transposing and reducing to [1, r].
        let mut rows = Array::zeros(r, 1);
        kernels::reduce_into(&g, &mut rows);
        let mut via_t = Array::zeros(1, r);
        kernels::reduce_into(&t, &mut via_t);
        for i in 0..r {
            // Same-order sums: ascending j either way.
            assert_eq!(rows.at(i, 0).to_bits(), via_t.at(0, i).to_bits(), "row sum {i}");
        }

        // [r, c] → [1, 1]: the row-major total.
        let mut scalar = Array::zeros(1, 1);
        kernels::reduce_into(&g, &mut scalar);
        let mut want = 0.0f32;
        for i in 0..r {
            for j in 0..c {
                want += g.at(i, j);
            }
        }
        assert_eq!(scalar.at(0, 0).to_bits(), want.to_bits(), "total");
    }
}

/// All-`-inf` columns must come out as `-inf`, not NaN (`-inf - -inf` would
/// poison a naive implementation), in every kernel that reduces in
/// log-space.
#[test]
fn all_neg_inf_inputs_stay_neg_inf() {
    let mut a = Array::zeros(4, 3);
    for v in a.data_mut() {
        *v = f32::NEG_INFINITY;
    }
    // One finite column to prove the guard is per-column.
    *a.at_mut(0, 1) = 1.5;
    let lse = kernels::logsumexp_cols(&a);
    assert_eq!(lse.at(0, 0), f32::NEG_INFINITY);
    assert!(lse.at(0, 1).is_finite());
    assert_eq!(lse.at(0, 2), f32::NEG_INFINITY);
    assert!(!lse.data().iter().any(|v| v.is_nan()));
    assert_eq!(
        kernels::logsumexp_all(&a.map(|_| f32::NEG_INFINITY)),
        f32::NEG_INFINITY
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `unfold` and `max_cols` over stacked segments equal one call per
    /// segment, bit for bit: the same windows in the same order, the same
    /// maxima, and the same argmax rows offset by the segment's first row.
    /// On the tape, the segmented unfold and column max route the input's
    /// gradient bit for bit as one op per segment does. Values sit on a
    /// coarse grid so ties are common, and column 0 holds only `0.0` and
    /// `-0.0`, so a tie must keep the first row's sign.
    #[test]
    fn segmented_kernels_equal_one_call_per_segment(
        seed in 0u64..10_000, c in 1usize..5, k in 1usize..4,
        extra in collection::vec(0usize..6, 1..8),
    ) {
        let lens: Vec<usize> = extra.iter().map(|e| e + k).collect();
        let total: usize = lens.iter().sum();
        let mut rng = Rng::new(seed);
        let mut a = Array::uniform(total, c, -2.0, 2.0, &mut rng).map(|v| (v * 2.0).round() / 2.0);
        for i in 0..total {
            *a.at_mut(i, 0) = if rng.below(2) == 0 { 0.0 } else { -0.0 };
        }

        let windows = kernels::unfold(&a, k, &lens);
        let (maxima, args) = kernels::max_cols(&a, &lens);
        prop_assert_eq!(maxima.shape(), (lens.len(), c));
        let (mut first, mut first_window) = (0, 0);
        for (s, &r) in lens.iter().enumerate() {
            let seg = Array::from_vec(r, c, a.data()[first * c..(first + r) * c].to_vec());
            let alone = kernels::unfold(&seg, k, &[r]);
            let n = r - k + 1;
            let got = Array::from_vec(n, k * c, windows.data()[first_window * k * c..(first_window + n) * k * c].to_vec());
            assert_bitwise(&got, &alone, &format!("unfold, segment {s}"));

            let (max, arg) = kernels::max_cols(&seg, &[r]);
            let got = Array::from_vec(1, c, maxima.row(s).to_vec());
            assert_bitwise(&got, &max, &format!("max_cols, segment {s}"));
            let shifted: Vec<usize> = arg.iter().map(|i| i + first).collect();
            prop_assert_eq!(&args[s * c..(s + 1) * c], &shifted[..]);
            first += r;
            first_window += n;
        }

        let per_input: Vec<usize> = lens.iter().map(|r| r - k + 1).collect();
        let proj = Array::uniform(lens.len(), k * c, -1.0, 1.0, &mut rng);
        let input_grad = |segmented: bool| {
            let mut store = ParamStore::new();
            let id = store.add("x", a.clone());
            let g = Graph::new();
            let x = g.param(&store, id);
            let pooled = if segmented {
                g.col_max_segments(g.unfold_segments(x, k, &lens), &per_input)
            } else {
                let mut first = 0;
                let alone: Vec<Var> = lens
                    .iter()
                    .map(|&r| {
                        let rows: Vec<usize> = (first..first + r).collect();
                        first += r;
                        g.col_max(g.unfold(g.gather_rows(x, &rows), k))
                    })
                    .collect();
                g.concat_rows(&alone)
            };
            let loss = g.sum_all(g.mul(pooled, g.constant(proj.clone())));
            let grads = g.backward(loss).unwrap().for_store(&store);
            grads.get(id).unwrap().clone()
        };
        assert_bitwise(&input_grad(true), &input_grad(false), "segmented input gradient");
    }
}

// ---------------------------------------------------------------------------
// 2. Blocked matmul vs the scalar loop
// ---------------------------------------------------------------------------

/// The test oracle: the plain i–k–j matmul the blocked kernel replaced.
/// `a[i][k] == 0.0` skips the k entirely (adds nothing, not `0.0 · b`).
fn matmul_oracle(a: &Array, b: &Array, out: &mut Array, accumulate: bool) {
    if !accumulate {
        out.fill_zero();
    }
    for i in 0..a.rows() {
        for (k, &aik) in a.row(i).iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            for (j, &bv) in b.row(k).iter().enumerate() {
                *out.at_mut(i, j) += aik * bv;
            }
        }
    }
}

fn assert_matmul_matches_oracle(a: &Array, b: &Array, base: &Array, accumulate: bool) {
    let mut want = base.clone();
    matmul_oracle(a, b, &mut want, accumulate);
    let mut got = base.clone();
    matmul_into(a, b, &mut got, accumulate);
    let what = format!(
        "matmul [{}, {}] x [{}, {}] (accumulate {accumulate})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    assert_bitwise(&got, &want, &what);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `matmul_into`, fresh and accumulating, is bitwise identical to the
    /// scalar loop over randomized shapes, on dense inputs (the fused
    /// row-pair fast path) and on inputs with exact zeros (the zero-skip
    /// path).
    #[test]
    fn matmul_into_is_bitwise_equal_to_the_scalar_loop(
        seed in 0u64..10_000, m in 1usize..12, k in 1usize..20, n in 1usize..12,
    ) {
        let b = rand_array_with_zeros(k, n, seed ^ 41);
        let base = rand_array(m, n, seed ^ 42); // a non-zero accumulator
        for a in [rand_array(m, k, seed), rand_array_with_zeros(m, k, seed)] {
            for accumulate in [false, true] {
                assert_matmul_matches_oracle(&a, &b, &base, accumulate);
            }
        }
    }
}

/// Shapes that straddle the k unroll (k % 4 ≠ 0, k % 8 ≠ 0), the odd last
/// row and the 128-wide output tile.
#[test]
fn matmul_into_is_bitwise_equal_on_awkward_shapes() {
    let mut rng = Rng::new(21);
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (3, 7, 5),
        (5, 9, 130),
        (2, 130, 3),
        (1, 17, 260),
    ] {
        let a = Array::uniform(m, k, -1.0, 1.0, &mut rng);
        let b = Array::uniform(k, n, -1.0, 1.0, &mut rng);
        let base = Array::uniform(m, n, -1.0, 1.0, &mut rng);
        assert_matmul_matches_oracle(&a, &b, &base, true);
    }
}

/// A `-0.0` accumulator must stay `-0.0` when every a-coefficient is zero:
/// the k is skipped, and `-0.0 + 0.0 · b` would give `+0.0`.
#[test]
fn matmul_into_preserves_the_zero_skip() {
    let b = Array::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]);
    for a in [
        Array::from_vec(1, 4, vec![0.0; 4]),
        Array::from_vec(2, 4, vec![0.0, -0.0, 0.0, 0.0, 0.0, 0.0, -0.0, 0.0]),
    ] {
        let mut out = Array::full(a.rows(), 1, -0.0);
        matmul_into(&a, &b, &mut out, true);
        for v in out.data() {
            assert_eq!(v.to_bits(), (-0.0f32).to_bits());
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Argmax tie-breaking (Viterbi determinism)
// ---------------------------------------------------------------------------

/// `max_cols` must break ties by the *first* (lowest-index) row: the
/// backward of the tape's `col_max` (the char-CNN max-pool) routes the
/// gradient to that row, so a tie broken differently would silently change
/// training bytes.
#[test]
fn max_cols_ties_break_to_the_first_row() {
    // Column 0: exact tie between rows 0 and 2; column 1: tie between rows
    // 1 and 3; column 2: all-equal; column 3: -0.0 vs +0.0 (compares
    // equal, so the first row must win too).
    let a = Array::from_vec(
        4,
        4,
        vec![
            5.0, 1.0, 7.0, -0.0, //
            2.0, 9.0, 7.0, -1.0, //
            5.0, 3.0, 7.0, 0.0, //
            1.0, 9.0, 7.0, -2.0,
        ],
    );
    let (vals, args) = kernels::max_cols(&a, &[4]);
    assert_eq!(args, vec![0, 1, 0, 0], "argmax");
    assert_eq!(vals.data(), &[5.0, 9.0, 7.0, -0.0], "values");
    // The -0.0 winner keeps its sign bit: the *row-0 value* is taken.
    assert_eq!(vals.at(0, 3).to_bits(), (-0.0f32).to_bits());
}

/// Randomized tie pinning: planting duplicates of the column max at random
/// rows never moves the argmax off the first occurrence.
#[test]
fn max_cols_first_max_wins_under_random_duplication() {
    let mut rng = Rng::new(99);
    for _ in 0..50 {
        let r = 2 + rng.below(6);
        let c = 1 + rng.below(5);
        let mut a = Array::uniform(r, c, -2.0, 2.0, &mut rng);
        for j in 0..c {
            // Duplicate the current column max into another random row.
            let (mut max, mut arg) = (f32::NEG_INFINITY, 0);
            for i in 0..r {
                if a.at(i, j) > max {
                    max = a.at(i, j);
                    arg = i;
                }
            }
            let dup = rng.below(r);
            *a.at_mut(dup, j) = max;
            let (_, args) = kernels::max_cols(&a, &[r]);
            assert_eq!(args[j], arg.min(dup), "column {j}");
        }
    }
}
