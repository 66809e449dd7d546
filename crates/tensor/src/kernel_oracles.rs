//! The vector-width kernels against the scalar loops they replaced.
//!
//! `matmul_a_bt` (the tape backward's `grad · Wᵀ`), `bcast_zip_into`,
//! `reduce_rows_into` and `reduce_mul_into` run as contiguous-slice loops
//! the compiler vectorises. Each must give the bits of the per-element loop
//! it replaced, kept here as its oracle, over rows 0–9, widths 1–19 plus
//! 24, 48, 72 and 96, every broadcast case on each side and an output
//! that already holds values. Inputs mix in ±0.0, subnormals and ±inf,
//! which must match bit for bit; a NaN must land in the same positions
//! (Rust does not pin NaN payloads). CI runs these in the dev profile and
//! on a baseline-CPU build too, so SSE2 and AVX2 vector widths are both
//! checked.

use std::ops::Range;

use fewner_util::Rng;

use crate::array::{matmul_a_bt, Array};
use crate::kernels::{bcast_zip_into, broadcast_shape, reduce_mul_into, reduce_rows_into};

// ---------------------------------------------------------------------------
// The replaced loops
// ---------------------------------------------------------------------------

/// `out += a · bᵀ` as one scalar dot product per output element, every
/// term included.
fn matmul_a_bt_oracle(a: &Array, b: &Array, out: &mut Array) {
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = b.row(j);
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *o += acc;
        }
    }
}

fn bcast_zip_oracle(a: &Array, b: &Array, out: &mut Array, f: impl Fn(f32, f32) -> f32) {
    let (r, _) = out.shape();
    let (ar, ac) = a.shape();
    let (br, bc) = b.shape();
    for i in 0..r {
        let ai = if ar == 1 { 0 } else { i };
        let bi = if br == 1 { 0 } else { i };
        let arow = a.row(ai);
        let brow = b.row(bi);
        let orow = out.row_mut(i);
        for (j, o) in orow.iter_mut().enumerate() {
            let av = arow[if ac == 1 { 0 } else { j }];
            let bv = brow[if bc == 1 { 0 } else { j }];
            *o = f(av, bv);
        }
    }
}

fn reduce_rows_oracle(grad: &Array, rows: Range<usize>, into: &mut Array) {
    let (tr, tc) = into.shape();
    for i in rows {
        let ti = if tr == 1 { 0 } else { i };
        let grow = grad.row(i);
        for (j, &g) in grow.iter().enumerate() {
            let tj = if tc == 1 { 0 } else { j };
            *into.at_mut(ti, tj) += g;
        }
    }
}

fn reduce_mul_oracle(grad: &Array, other: &Array, into: &mut Array) {
    let (gr, _) = grad.shape();
    let (or_, oc) = other.shape();
    let (tr, tc) = into.shape();
    for i in 0..gr {
        let oi = if or_ == 1 { 0 } else { i };
        let ti = if tr == 1 { 0 } else { i };
        let grow = grad.row(i);
        let orow = other.row(oi);
        for (j, &g) in grow.iter().enumerate() {
            let ov = orow[if oc == 1 { 0 } else { j }];
            let tj = if tc == 1 { 0 } else { j };
            *into.at_mut(ti, tj) += g * ov;
        }
    }
}

// ---------------------------------------------------------------------------
// Shapes and values
// ---------------------------------------------------------------------------

const ROWS: Range<usize> = 0..10;

/// 1–19 straddle every vector width and unroll remainder; 24–96 are the
/// model's widths (hidden 24, input 48, three gates of 24, …).
fn widths() -> impl Iterator<Item = usize> {
    (1..20).chain([24, 48, 72, 96])
}

/// The shapes one side can take against an `[r, c]` result: the same
/// shape, one row, one column and one value.
fn sides(r: usize, c: usize) -> [(usize, usize); 4] {
    [(r, c), (1, c), (r, 1), (1, 1)]
}

/// Uniform values in ±2 with ±0.0, subnormals and tiny normals (whose
/// products underflow) mixed in, plus one or two ±inf or NaN when
/// `non_finite`.
fn values(rows: usize, cols: usize, non_finite: bool, rng: &mut Rng) -> Array {
    let tiny = f32::MIN_POSITIVE;
    let special = [
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        tiny / 3.0,
        -tiny * 0.75,
        1.0e-20,
        -3.0e-21,
    ];
    let mut a = Array::uniform(rows, cols, -2.0, 2.0, rng);
    for v in a.data_mut() {
        if rng.below(4) == 0 {
            *v = *rng.choose(&special);
        }
    }
    if non_finite && !a.is_empty() {
        for _ in 0..1 + rng.below(2) {
            let at = rng.below(a.len());
            a.data_mut()[at] = *rng.choose(&[f32::INFINITY, f32::NEG_INFINITY, f32::NAN]);
        }
    }
    a
}

fn assert_same_bits(got: &Array, want: &Array, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (e, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{what}: element {e} is {x:e} ({:#010x}), the scalar loop gives {y:e} ({:#010x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

// ---------------------------------------------------------------------------
// Kernel against oracle
// ---------------------------------------------------------------------------

#[test]
fn matmul_a_bt_matches_the_scalar_loop() {
    let mut rng = Rng::new(1);
    for m in ROWS {
        for k in widths() {
            for n in widths() {
                for non_finite in [false, true] {
                    let a = values(m, k, non_finite, &mut rng);
                    let b = values(n, k, non_finite, &mut rng);
                    let filled = values(m, n, false, &mut rng);
                    let mut want = filled.clone();
                    matmul_a_bt_oracle(&a, &b, &mut want);
                    let mut got = filled;
                    matmul_a_bt(&a, &b.transpose(), &mut got);
                    assert_same_bits(&got, &want, &format!("[{m}x{k}] · [{n}x{k}]ᵀ"));
                }
            }
        }
    }
}

/// Every pair of broadcast cases, with `f` monomorphised as the executors'
/// closures are, so the loop checked is the vectorised one.
fn check_bcast_zip(op: &str, f: impl Fn(f32, f32) -> f32 + Copy) {
    let mut rng = Rng::new(2);
    for r in ROWS {
        for c in widths() {
            for a_shape in sides(r, c) {
                for b_shape in sides(r, c) {
                    for non_finite in [false, true] {
                        let a = values(a_shape.0, a_shape.1, non_finite, &mut rng);
                        let b = values(b_shape.0, b_shape.1, non_finite, &mut rng);
                        let (or, oc) = broadcast_shape(a_shape, b_shape, op);
                        let filled = values(or, oc, true, &mut rng);
                        let mut want = filled.clone();
                        bcast_zip_oracle(&a, &b, &mut want, f);
                        let mut got = filled;
                        bcast_zip_into(&a, &b, &mut got, f);
                        assert_same_bits(&got, &want, &format!("{op} {a_shape:?} {b_shape:?}"));
                    }
                }
            }
        }
    }
}

#[test]
fn bcast_zip_into_matches_the_scalar_loop() {
    check_bcast_zip("add", |x, y| x + y);
    check_bcast_zip("sub", |x, y| x - y);
    check_bcast_zip("mul", |x, y| x * y);
}

/// Every target case, over all rows and over an inner row range (the
/// segmented replay's calls), into a target that already holds values.
#[test]
fn reduce_rows_into_matches_the_scalar_loop() {
    let mut rng = Rng::new(3);
    for r in ROWS {
        for c in widths() {
            for (tr, tc) in sides(r, c) {
                for rows in [0..r, r / 3..r - r / 4] {
                    for non_finite in [false, true] {
                        let grad = values(r, c, non_finite, &mut rng);
                        let filled = values(tr, tc, false, &mut rng);
                        let mut want = filled.clone();
                        reduce_rows_oracle(&grad, rows.clone(), &mut want);
                        let mut got = filled;
                        reduce_rows_into(&grad, rows.clone(), &mut got);
                        let what = format!("[{r}x{c}] rows {rows:?} to [{tr}x{tc}]");
                        assert_same_bits(&got, &want, &what);
                    }
                }
            }
        }
    }
}

/// Every pair of target and other-operand cases.
#[test]
fn reduce_mul_into_matches_the_scalar_loop() {
    let mut rng = Rng::new(4);
    for r in ROWS {
        for c in widths() {
            for (tr, tc) in sides(r, c) {
                for (or, oc) in sides(r, c) {
                    for non_finite in [false, true] {
                        let grad = values(r, c, non_finite, &mut rng);
                        let other = values(or, oc, non_finite, &mut rng);
                        let filled = values(tr, tc, false, &mut rng);
                        let mut want = filled.clone();
                        reduce_mul_oracle(&grad, &other, &mut want);
                        let mut got = filled;
                        reduce_mul_into(&grad, &other, &mut got);
                        let what = format!("[{r}x{c}] ⊙ [{or}x{oc}] to [{tr}x{tc}]");
                        assert_same_bits(&got, &want, &what);
                    }
                }
            }
        }
    }
}
