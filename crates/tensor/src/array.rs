//! Dense 2-D `f32` arrays and the matmul kernels.
//!
//! Every tensor in the reproduction is a row-major matrix. The shapes that
//! occur are small: `[L, D]` token features (the tokens of one call's
//! sentences), `[V, D]` embedding tables, `[T, T]` CRF transitions, `[1, 1]`
//! losses. Restricting to two dimensions keeps the autodiff engine simple
//! and auditable without losing any expressiveness the paper's models need.
//!
//! [`Array`] is the *value* type; the computation graph in
//! [`crate::graph`] wraps it with gradient bookkeeping.
//!
//! The three matmuls live here. [`matmul_into`] (`a · b`, the forward of
//! both executors) and `matmul_a_bt` (`grad · Wᵀ`, the tape backward's
//! data gradient, given `Wᵀ`) share one blocked body that runs across
//! output columns at vector width; they differ only in whether a zero
//! coefficient is skipped. `matmul_at_b` (the parameter gradient
//! `xᵀ · grad`) stays a plain loop over rows, which the tape's segmented
//! replay calls on row ranges. Each gives every output element the f32
//! sequence of its scalar loop, so the bits do not depend on the vector
//! width.

use std::ops::Range;

use fewner_util::{Error, Result, Rng};
use fewner_util::{FromJson, Json, ToJson};

/// A dense, row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Array {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl ToJson for Array {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("rows".into(), Json::from(self.rows)),
            ("cols".into(), Json::from(self.cols)),
            (
                "data".into(),
                Json::Arr(self.data.iter().map(|&x| Json::from(x)).collect()),
            ),
        ])
    }
}

impl FromJson for Array {
    fn from_json(json: &Json) -> Result<Array> {
        let rows = json.field("rows")?.as_usize()?;
        let cols = json.field("cols")?.as_usize()?;
        let data = json
            .field("data")?
            .as_arr()?
            .iter()
            .map(Json::as_f32)
            .collect::<Result<Vec<f32>>>()?;
        if data.len() != rows * cols {
            return Err(Error::Serde(format!(
                "Array JSON holds {} values for shape [{rows}, {cols}]",
                data.len()
            )));
        }
        Ok(Array { rows, cols, data })
    }
}

impl Array {
    /// Creates an array from raw parts. Panics if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Array {
        assert_eq!(
            data.len(),
            rows * cols,
            "Array::from_vec: {} values for shape [{rows}, {cols}]",
            data.len()
        );
        Array { rows, cols, data }
    }

    /// All-zeros array.
    pub fn zeros(rows: usize, cols: usize) -> Array {
        Array {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Array filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Array {
        Array {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// 1×1 array holding a scalar.
    pub fn scalar(value: f32) -> Array {
        Array::full(1, 1, value)
    }

    /// Uniform random entries in `[lo, hi)`.
    pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut Rng) -> Array {
        let data = (0..rows * cols).map(|_| rng.uniform(lo, hi)).collect();
        Array { rows, cols, data }
    }

    /// Gaussian random entries with the given standard deviation.
    pub fn normal(rows: usize, cols: usize, std: f32, rng: &mut Rng) -> Array {
        let data = (0..rows * cols).map(|_| rng.normal() * std).collect();
        Array { rows, cols, data }
    }

    /// Xavier/Glorot uniform initialisation: U(±√(6/(fan_in+fan_out))).
    pub fn xavier(rows: usize, cols: usize, rng: &mut Rng) -> Array {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        Array::uniform(rows, cols, -bound, bound, rng)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing storage (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing storage (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The value of a 1×1 array.
    ///
    /// # Panics
    /// Panics when the array is not 1×1.
    pub fn scalar_value(&self) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (1, 1),
            "scalar_value on non-scalar [{}, {}]",
            self.rows,
            self.cols
        );
        self.data[0]
    }

    /// Matrix product `self · rhs`.
    pub fn matmul(&self, rhs: &Array) -> Result<Array> {
        if self.cols != rhs.rows {
            return Err(Error::ShapeMismatch {
                op: "matmul",
                detail: format!(
                    "[{}, {}] x [{}, {}]",
                    self.rows, self.cols, rhs.rows, rhs.cols
                ),
            });
        }
        let mut out = Array::zeros(self.rows, rhs.cols);
        matmul_into(self, rhs, &mut out, false);
        Ok(out)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Array {
        let mut out = Array::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Applies `f` elementwise, returning a new array.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Array {
        Array {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// `self += alpha * other` (same shape).
    pub fn axpy(&mut self, alpha: f32, other: &Array) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// `self *= alpha`.
    pub fn scale_in_place(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Index of the maximum element of a row.
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// Fills the array with zeros, keeping its allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Consumes the array, returning its backing storage for reuse (the
    /// inference arena's buffer pool).
    pub(crate) fn take_data(self) -> Vec<f32> {
        self.data
    }
}

/// Output tile width: the slice of an `out` row that one k-group updates
/// stays resident in L1 across the unrolled loop.
const J_TILE: usize = 128;

/// `out += a · b` (`out = a · b` when `accumulate` is false).
///
/// The one matmul behind [`Array::matmul`], the tape and the inference
/// executor, and an `a[i][k] == 0.0` coefficient is skipped, not added as
/// `0.0 · b` (the two differ on a `-0.0` accumulator and on a non-finite
/// `b`). Every output element sees the plain scalar loop's exact f32
/// sequence, `((o + a₀b₀) + a₁b₁) + …` over ascending k:
/// `crates/tensor/tests/kernel_props.rs` checks it bitwise against that
/// loop.
pub fn matmul_into(a: &Array, b: &Array, out: &mut Array, accumulate: bool) {
    debug_assert_eq!(a.cols, b.rows);
    debug_assert_eq!((out.rows, out.cols), (a.rows, b.cols));
    if !accumulate {
        out.fill_zero();
    }
    mac_blocked::<true>(a, b, out);
}

/// `out += a · bᵀ`, given `bt` = `bᵀ`: the tape backward's data gradient
/// `grad · Wᵀ`, which [`crate::Graph::backward`] calls with each right
/// operand transposed once per sweep.
///
/// Each output element is one dot product over ascending k that starts at
/// `0.0` and includes every term, zeros too, and is then added to `out`
/// once: `o + (((0 + a₀b₀) + a₁b₁) + …)`. Running it across the output
/// columns over `bᵀ`'s rows, with the blocked body of [`matmul_into`] into
/// a zeroed buffer, keeps that sequence for every element, so the bits are
/// those of the scalar dot-product loop that `kernel_oracles.rs` keeps as
/// its oracle.
pub(crate) fn matmul_a_bt(a: &Array, bt: &Array, out: &mut Array) {
    debug_assert_eq!(a.cols, bt.rows);
    debug_assert_eq!((out.rows, out.cols), (a.rows, bt.cols));
    let mut dots = Array::zeros(out.rows, out.cols);
    mac_blocked::<false>(a, bt, &mut dots);
    for (o, &d) in out.data.iter_mut().zip(&dots.data) {
        *o += d;
    }
}

/// `out += a · b`, i–k–j ordered so the inner loop streams contiguously
/// over `b` and `out`, and blocked three ways: row pairs share each
/// streamed b-row, k is unrolled by 4 (pairs) or 8 (odd last row), and j
/// is tiled by `J_TILE` columns. There is no `unsafe`: the lanes are
/// pre-sliced so the compiler proves the bounds and auto-vectorises.
///
/// With `SKIP_ZEROS` an `a[i][k] == 0.0` coefficient adds nothing;
/// without, every term is added. Either way each output element's
/// k-chain stays one left-associated sequence of `+=`s over ascending k,
/// however the k range is cut into groups.
fn mac_blocked<const SKIP_ZEROS: bool>(a: &Array, b: &Array, out: &mut Array) {
    let n = b.cols;
    let bd = &b.data;
    let rows = a.rows;
    let od = &mut out.data;
    // Row pairs share the streamed b-rows and interleave two independent
    // accumulation chains; each row's own f32 sequence is untouched.
    let mut i = 0;
    while i + 2 <= rows {
        let (row0, row1) = od[i * n..(i + 2) * n].split_at_mut(n);
        let (ar0, ar1) = (a.row(i), a.row(i + 1));
        let dense_pair = !SKIP_ZEROS || !ar0.iter().chain(ar1).any(|&v| v == 0.0);
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + J_TILE).min(n);
            let ot0 = &mut row0[j0..j1];
            let ot1 = &mut row1[j0..j1];
            let mut c0 = ar0.chunks_exact(4);
            let mut c1 = ar1.chunks_exact(4);
            let mut k = 0;
            if dense_pair {
                // No zero to skip in either a-row (the common case for
                // trained dense weights, and every case without
                // `SKIP_ZEROS`): run the fused tile back-to-back.
                for (q0, q1) in c0.by_ref().zip(c1.by_ref()) {
                    mac_tile4_x2(ot0, ot1, q0, q1, bd, k, n, j0);
                    k += 4;
                }
            } else {
                for (q0, q1) in c0.by_ref().zip(c1.by_ref()) {
                    if q0.iter().chain(q1).any(|&v| v == 0.0) {
                        mac_tile::<true>(ot0, q0, bd, k, n, j0);
                        mac_tile::<true>(ot1, q1, bd, k, n, j0);
                    } else {
                        mac_tile4_x2(ot0, ot1, q0, q1, bd, k, n, j0);
                    }
                    k += 4;
                }
            }
            mac_tile::<SKIP_ZEROS>(ot0, c0.remainder(), bd, k, n, j0);
            mac_tile::<SKIP_ZEROS>(ot1, c1.remainder(), bd, k, n, j0);
            j0 = j1;
        }
        i += 2;
    }
    if i < rows {
        let a_row = a.row(i);
        let out_row = &mut od[i * n..(i + 1) * n];
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + J_TILE).min(n);
            let ot = &mut out_row[j0..j1];
            let mut chunks = a_row.chunks_exact(8);
            let mut k = 0;
            for q in chunks.by_ref() {
                // `contains` compares with `==`, so `-0.0` also takes the
                // skip path, as in the scalar loop.
                if SKIP_ZEROS && q.contains(&0.0) {
                    mac_tile::<true>(ot, q, bd, k, n, j0);
                } else {
                    mac_tile8(ot, q, bd, k, n, j0);
                }
                k += 8;
            }
            mac_tile::<SKIP_ZEROS>(ot, chunks.remainder(), bd, k, n, j0);
            j0 = j1;
        }
    }
}

/// One k-group of coefficients against one output tile, one k at a time.
/// With `SKIP_ZEROS` a zero coefficient contributes *nothing*, which is
/// not the same as `+= 0.0 * b` when the running value is `-0.0` or `b`
/// is not finite.
fn mac_tile<const SKIP_ZEROS: bool>(
    ot: &mut [f32],
    q: &[f32],
    bd: &[f32],
    k: usize,
    n: usize,
    j0: usize,
) {
    let len = ot.len();
    for (dk, &aik) in q.iter().enumerate() {
        if SKIP_ZEROS && aik == 0.0 {
            continue;
        }
        let br = &bd[(k + dk) * n + j0..][..len];
        for (o, &bv) in ot.iter_mut().zip(br) {
            *o += aik * bv;
        }
    }
}

/// A k-group of exactly 8 coefficients against one output tile, every
/// term added, left-associated: the same bracketing as eight successive
/// `+=` passes over ascending k. Every operand is pre-sliced to `len`, so
/// the inner loop is provably in bounds and vectorises.
#[allow(clippy::needless_range_loop)]
fn mac_tile8(ot: &mut [f32], q: &[f32], bd: &[f32], k: usize, n: usize, j0: usize) {
    let len = ot.len();
    let (a0, a1, a2, a3) = (q[0], q[1], q[2], q[3]);
    let (a4, a5, a6, a7) = (q[4], q[5], q[6], q[7]);
    let b0 = &bd[k * n + j0..][..len];
    let b1 = &bd[(k + 1) * n + j0..][..len];
    let b2 = &bd[(k + 2) * n + j0..][..len];
    let b3 = &bd[(k + 3) * n + j0..][..len];
    let b4 = &bd[(k + 4) * n + j0..][..len];
    let b5 = &bd[(k + 5) * n + j0..][..len];
    let b6 = &bd[(k + 6) * n + j0..][..len];
    let b7 = &bd[(k + 7) * n + j0..][..len];
    for j in 0..len {
        ot[j] = (((((((ot[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) + a3 * b3[j])
            + a4 * b4[j])
            + a5 * b5[j])
            + a6 * b6[j])
            + a7 * b7[j];
    }
}

/// A k-group of exactly 4 coefficients fused over two output rows, every
/// term added. The two accumulation chains are independent, which doubles
/// the instruction-level parallelism of the dependent-add chain, and the
/// four b-rows are loaded once for both. The group is 4 wide so the
/// working set (8 coefficient splats, 4 b vectors, 2 accumulators) fits
/// the 16 AVX registers. Each row's k-chain stays one left-associated
/// sequence of `+=`s however it is cut, so the grouping does not change
/// the result.
#[inline(always)]
#[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
fn mac_tile4_x2(
    ot0: &mut [f32],
    ot1: &mut [f32],
    q0: &[f32],
    q1: &[f32],
    bd: &[f32],
    k: usize,
    n: usize,
    j0: usize,
) {
    let len = ot0.len();
    let ot1 = &mut ot1[..len];
    let (a00, a01, a02, a03) = (q0[0], q0[1], q0[2], q0[3]);
    let (a10, a11, a12, a13) = (q1[0], q1[1], q1[2], q1[3]);
    let b0 = &bd[k * n + j0..][..len];
    let b1 = &bd[(k + 1) * n + j0..][..len];
    let b2 = &bd[(k + 2) * n + j0..][..len];
    let b3 = &bd[(k + 3) * n + j0..][..len];
    for j in 0..len {
        ot0[j] = (((ot0[j] + a00 * b0[j]) + a01 * b1[j]) + a02 * b2[j]) + a03 * b3[j];
        ot1[j] = (((ot1[j] + a10 * b0[j]) + a11 * b1[j]) + a12 * b2[j]) + a13 * b3[j];
    }
}

/// `out += a[rows]ᵀ · b[rows]` without materialising the transpose: the
/// rows' outer products are added into `out` one row after another, so
/// consecutive row ranges add up exactly as one call over their union.
pub(crate) fn matmul_at_b(a: &Array, b: &Array, rows: Range<usize>, out: &mut Array) {
    debug_assert_eq!(a.rows, b.rows);
    debug_assert!(rows.end <= a.rows);
    debug_assert_eq!((out.rows, out.cols), (a.cols, b.cols));
    let n = b.cols;
    for r in rows {
        let a_row = a.row(r);
        let b_row = b.row(r);
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_example() {
        let a = Array::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Array::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch_is_error() {
        let a = Array::zeros(2, 3);
        let b = Array::zeros(4, 2);
        assert!(matches!(
            a.matmul(&b),
            Err(Error::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = Rng::new(5);
        let a = Array::uniform(3, 7, -1.0, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().at(2, 1), a.at(1, 2));
    }

    #[test]
    fn at_b_and_a_bt_match_explicit_transpose() {
        let mut rng = Rng::new(6);
        let a = Array::uniform(4, 3, -1.0, 1.0, &mut rng);
        let b = Array::uniform(4, 5, -1.0, 1.0, &mut rng);
        let mut out = Array::zeros(3, 5);
        matmul_at_b(&a, &b, 0..a.rows(), &mut out);
        let expected = a.transpose().matmul(&b).unwrap();
        for (x, y) in out.data().iter().zip(expected.data()) {
            assert!((x - y).abs() < 1e-5);
        }

        let c = Array::uniform(4, 3, -1.0, 1.0, &mut rng);
        let d = Array::uniform(5, 3, -1.0, 1.0, &mut rng);
        let mut out2 = Array::zeros(4, 5);
        matmul_a_bt(&c, &d.transpose(), &mut out2);
        let expected2 = c.matmul(&d.transpose()).unwrap();
        for (x, y) in out2.data().iter().zip(expected2.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn xavier_bound_respected() {
        let mut rng = Rng::new(8);
        let a = Array::xavier(10, 20, &mut rng);
        let bound = (6.0f32 / 30.0).sqrt();
        assert!(a.data().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Array::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Array::from_vec(1, 3, vec![10.0, 20.0, 30.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0, 18.0]);
        a.scale_in_place(2.0);
        assert_eq!(a.data(), &[12.0, 24.0, 36.0]);
    }

    #[test]
    fn argmax_row_picks_first_max() {
        let a = Array::from_vec(2, 3, vec![0.0, 5.0, 5.0, -1.0, -2.0, -3.0]);
        assert_eq!(a.argmax_row(0), 1);
        assert_eq!(a.argmax_row(1), 0);
    }

    #[test]
    fn json_round_trip() {
        let mut rng = Rng::new(10);
        let a = Array::uniform(3, 4, -2.0, 2.0, &mut rng);
        let json = a.to_json().to_string();
        let back = Array::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        let mut a = Array::zeros(2, 2);
        assert!(a.all_finite());
        *a.at_mut(0, 1) = f32::NAN;
        assert!(!a.all_finite());
        *a.at_mut(0, 1) = f32::INFINITY;
        assert!(!a.all_finite());
    }
}
