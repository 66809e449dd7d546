//! Pure array math used by both executors.
//!
//! These functions know nothing about autodiff; they implement broadcasting,
//! reductions and numerically-stable log-space primitives on [`Array`]s.
//! The one forward body of each [`crate::Exec`] op calls them, and the
//! tape's backward sweep in [`crate::graph`] adds the backward halves.
//! (The matmul kernels live in [`crate::array`].)

use std::ops::Range;

use crate::array::Array;

/// Broadcast compatibility: each dimension must match or be 1 on one side.
///
/// Returns the broadcast output shape, panicking with a readable message on
/// incompatible shapes (shape errors in model code are programming errors;
/// the fallible, `Result`-returning surface lives on `Array` itself).
pub fn broadcast_shape(a: (usize, usize), b: (usize, usize), op: &str) -> (usize, usize) {
    let r = match (a.0, b.0) {
        (x, y) if x == y => x,
        (1, y) => y,
        (x, 1) => x,
        _ => panic!("{op}: cannot broadcast rows {:?} vs {:?}", a, b),
    };
    let c = match (a.1, b.1) {
        (x, y) if x == y => x,
        (1, y) => y,
        (x, 1) => x,
        _ => panic!("{op}: cannot broadcast cols {:?} vs {:?}", a, b),
    };
    (r, c)
}

/// Elementwise binary op with broadcasting, written into a caller-provided
/// output of the broadcast shape ([`broadcast_shape`]). Every output
/// element is overwritten.
pub fn bcast_zip_into(a: &Array, b: &Array, out: &mut Array, f: impl Fn(f32, f32) -> f32) {
    let (r, c) = out.shape();
    debug_assert_eq!(
        (r, c),
        broadcast_shape(a.shape(), b.shape(), "bcast_zip_into")
    );
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

/// Reduces `grad` (shape of a broadcast output) back to `shape` by summing
/// over the broadcast dimensions, accumulating into `into`.
pub fn reduce_into(grad: &Array, into: &mut Array) {
    reduce_rows_into(grad, 0..grad.rows(), into);
}

/// [`reduce_into`] of `grad`'s rows `rows` only. Rows are added one after
/// another, so consecutive row ranges add up exactly as one call over
/// their union.
pub fn reduce_rows_into(grad: &Array, rows: Range<usize>, into: &mut Array) {
    let (gr, gc) = grad.shape();
    let (tr, tc) = into.shape();
    debug_assert!(
        (tr == gr || tr == 1) && (tc == gc || tc == 1) && rows.end <= gr,
        "reduce_rows_into: grad {:?} rows {rows:?} to {:?}",
        grad.shape(),
        into.shape()
    );
    for i in rows {
        let ti = if tr == 1 { 0 } else { i };
        let grow = grad.row(i);
        for (j, &g) in grow.iter().enumerate() {
            let tj = if tc == 1 { 0 } else { j };
            *into.at_mut(ti, tj) += g;
        }
    }
}

/// Accumulates `grad ⊙ broadcast(other)` into `into` (shape of `into` may be
/// a broadcast source). Used by the backward pass of broadcast multiply.
pub fn reduce_mul_into(grad: &Array, other: &Array, into: &mut Array) {
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

/// Numerically-stable log-sum-exp over each column: `[r, c] → [1, c]`.
pub fn logsumexp_cols(a: &Array) -> Array {
    let (r, c) = a.shape();
    let mut out = Array::zeros(1, c);
    for j in 0..c {
        let mut max = f32::NEG_INFINITY;
        for i in 0..r {
            max = max.max(a.at(i, j));
        }
        if max == f32::NEG_INFINITY {
            *out.at_mut(0, j) = f32::NEG_INFINITY;
            continue;
        }
        let mut sum = 0.0f32;
        for i in 0..r {
            sum += (a.at(i, j) - max).exp();
        }
        *out.at_mut(0, j) = max + sum.ln();
    }
    out
}

/// Numerically-stable log-sum-exp over all elements → scalar.
pub fn logsumexp_all(a: &Array) -> f32 {
    let max = a.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        return f32::NEG_INFINITY;
    }
    let sum: f32 = a.data().iter().map(|&x| (x - max).exp()).sum();
    max + sum.ln()
}

/// Row-wise log-softmax.
pub fn log_softmax_rows(a: &Array) -> Array {
    let (r, c) = a.shape();
    let mut out = Array::zeros(r, c);
    for i in 0..r {
        let row = a.row(i);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let lse = max + row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
        for (j, o) in out.row_mut(i).iter_mut().enumerate() {
            *o = row[j] - lse;
        }
    }
    out
}

/// Row-wise softmax.
pub fn softmax_rows(a: &Array) -> Array {
    let mut out = log_softmax_rows(a);
    for v in out.data_mut() {
        *v = v.exp();
    }
    out
}

/// Unfolds stacked row segments into sliding windows of `k` rows.
///
/// `a` stacks segments of `segments[s]` rows each. A segment of `r` rows
/// contributes its `r - k + 1` windows, in order, and no window crosses a
/// segment boundary. Window `i` of a segment is its rows `i..i+k`
/// concatenated — the im2col step for 1-D convolution over a character
/// sequence. One segment of every row is the plain unfold
/// `[r, c] → [r-k+1, k*c]`.
pub fn unfold(a: &Array, k: usize, segments: &[usize]) -> Array {
    let c = a.cols();
    assert_eq!(
        segments.iter().sum::<usize>(),
        a.rows(),
        "unfold: segments must cover the rows"
    );
    let windows = |r: usize| {
        assert!(k >= 1 && k <= r, "unfold: window {k} over {r} rows");
        r - k + 1
    };
    let out_rows = segments.iter().map(|&r| windows(r)).sum();
    let mut out = Array::zeros(out_rows, k * c);
    let (mut src, mut dst) = (0, 0);
    for &r in segments {
        for i in 0..windows(r) {
            // Rows `src+i .. src+i+k` are contiguous in row-major storage.
            let first = (src + i) * c;
            out.row_mut(dst + i)
                .copy_from_slice(&a.data()[first..first + k * c]);
        }
        src += r;
        dst += windows(r);
    }
    out
}

/// Backward of [`unfold`] over the same `segments`: scatters each window's
/// gradient back to its source rows, window by window in output order.
pub fn unfold_backward(grad: &Array, k: usize, segments: &[usize], into: &mut Array) {
    let c = into.cols();
    debug_assert_eq!(segments.iter().sum::<usize>(), into.rows());
    let (mut src, mut dst) = (0, 0);
    for &r in segments {
        let windows = r - k + 1;
        for i in 0..windows {
            let grow = grad.row(dst + i);
            for j in 0..k {
                let to = into.row_mut(src + i + j);
                for (d, &g) in to.iter_mut().zip(&grow[j * c..(j + 1) * c]) {
                    *d += g;
                }
            }
        }
        src += r;
        dst += windows;
    }
}

/// Column-wise max over each stacked row segment, with argmax rows:
/// `[Σr, c] → ([segments.len(), c], argmax)`.
///
/// Output row `s` holds segment `s`'s column maxima, and `arg[s * c + j]`
/// is the row of `a` that holds the maximum of column `j` in segment `s`.
/// Rows are visited in ascending order with a strict `>`, so a tie (also
/// `-0.0` against `0.0`) goes to the first row. One segment of every row is
/// the plain `[r, c] → [1, c]` max.
pub fn max_cols(a: &Array, segments: &[usize]) -> (Array, Vec<usize>) {
    let c = a.cols();
    assert_eq!(
        segments.iter().sum::<usize>(),
        a.rows(),
        "max_cols: segments must cover the rows"
    );
    let mut out = Array::zeros(segments.len(), c);
    let mut arg = vec![0usize; segments.len() * c];
    let mut start = 0;
    for (s, &r) in segments.iter().enumerate() {
        assert!(r > 0, "max_cols on an empty segment");
        let best = out.row_mut(s);
        best.copy_from_slice(a.row(start));
        let best_at = &mut arg[s * c..(s + 1) * c];
        best_at.fill(start);
        for i in start + 1..start + r {
            for (j, &v) in a.row(i).iter().enumerate() {
                if v > best[j] {
                    best[j] = v;
                    best_at[j] = i;
                }
            }
        }
        start += r;
    }
    (out, arg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bcast_row_vector_add() {
        let a = Array::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Array::from_vec(1, 3, vec![10., 20., 30.]);
        let mut c = Array::zeros(2, 3);
        bcast_zip_into(&a, &b, &mut c, |x, y| x + y);
        assert_eq!(c.data(), &[11., 22., 33., 14., 25., 36.]);
    }

    #[test]
    fn bcast_col_vector_mul() {
        let a = Array::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Array::from_vec(2, 1, vec![10., 100.]);
        let mut c = Array::zeros(2, 2);
        bcast_zip_into(&a, &b, &mut c, |x, y| x * y);
        assert_eq!(c.data(), &[10., 20., 300., 400.]);
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn bcast_incompatible_panics() {
        broadcast_shape((2, 3), (3, 3), "add");
    }

    #[test]
    fn reduce_into_sums_broadcast_dims() {
        let grad = Array::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let mut into = Array::zeros(1, 3);
        reduce_into(&grad, &mut into);
        assert_eq!(into.data(), &[5., 7., 9.]);
        let mut scalar = Array::zeros(1, 1);
        reduce_into(&grad, &mut scalar);
        assert_eq!(scalar.data(), &[21.]);
    }

    #[test]
    fn logsumexp_is_stable_and_correct() {
        let a = Array::from_vec(2, 2, vec![1000.0, 0.0, 1000.0, (2.0f32).ln()]);
        let out = logsumexp_cols(&a);
        // col 0: lse(1000, 1000) = 1000 + ln 2.
        assert!((out.at(0, 0) - (1000.0 + 2f32.ln())).abs() < 1e-3);
        // col 1: lse(0, ln 2) = ln 3.
        assert!((out.at(0, 1) - 3f32.ln()).abs() < 1e-5);
        assert_eq!(
            logsumexp_all(&Array::full(1, 1, f32::NEG_INFINITY)),
            f32::NEG_INFINITY
        );
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Array::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let s = softmax_rows(&a);
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn unfold_matches_hand_layout() {
        // rows: [1,2] [3,4] [5,6]; k=2 -> [[1,2,3,4],[3,4,5,6]]
        let a = Array::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let u = unfold(&a, 2, &[3]);
        assert_eq!(u.shape(), (2, 4));
        assert_eq!(u.data(), &[1., 2., 3., 4., 3., 4., 5., 6.]);
    }

    #[test]
    fn unfold_backward_scatters() {
        let grad = Array::from_vec(2, 4, vec![1., 1., 1., 1., 1., 1., 1., 1.]);
        let mut into = Array::zeros(3, 2);
        unfold_backward(&grad, 2, &[3], &mut into);
        // middle row receives contributions from both windows.
        assert_eq!(into.data(), &[1., 1., 2., 2., 1., 1.]);
    }

    #[test]
    fn max_cols_tracks_argmax() {
        let a = Array::from_vec(3, 2, vec![1., 9., 5., 2., 3., 4.]);
        let (m, arg) = max_cols(&a, &[3]);
        assert_eq!(m.data(), &[5., 9.]);
        assert_eq!(arg, vec![1, 0]);
    }

    #[test]
    fn segments_do_not_mix() {
        // Segments of 2 and 3 rows: windows stay inside their segment, and
        // each segment's max comes from its own rows.
        let a = Array::from_vec(5, 1, vec![1., 2., 9., 3., 4.]);
        let u = unfold(&a, 2, &[2, 3]);
        assert_eq!(u.data(), &[1., 2., 9., 3., 3., 4.]);
        let (m, arg) = max_cols(&a, &[2, 3]);
        assert_eq!(m.data(), &[2., 9.]);
        assert_eq!(arg, vec![1, 2]);
    }
}
