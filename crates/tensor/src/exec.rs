//! The executor abstraction: one op vocabulary, one forward body per op,
//! two evaluation strategies.
//!
//! Model code is written once against the [`Exec`] trait and runs under two
//! executors:
//!
//! * [`crate::Graph`] — the tape-recording autodiff executor. Every op is
//!   evaluated eagerly *and* recorded so [`crate::Graph::backward`] can run a
//!   reverse sweep. Used wherever gradients are needed: meta-training and the
//!   inner-loop φ adaptation.
//! * [`crate::Infer`] — the gradient-free executor. The same ops are
//!   evaluated eagerly into a reusable scratch-buffer arena with no `Op`
//!   nodes and no gradient bookkeeping. Used for the support encode, the
//!   batched decode and the `fewner predict` serving path.
//!
//! Each op's forward body exists once, in this module's single `Exec` impl,
//! written over the value arena both executors own. The executors plug in
//! behind a sealed backend trait and differ in two things only: where a
//! result's buffer comes from (a fresh allocation on the tape, the recycle
//! pool on `Infer`) and whether the op is recorded for the backward sweep
//! (the tape records an `Op`; `Infer` never builds one). Their forward
//! values are therefore **bitwise identical** by construction, a property
//! the test suite still pins down. The executor also owns the train/eval
//! distinction ([`ExecMode`]): [`Exec::dropout`] is the identity unless the
//! executor is in [`ExecMode::Train`], which removes the error-prone
//! `train: bool` flag from every model signature.

use std::sync::Arc;

use fewner_util::Rng;

use crate::array::{matmul_into, Array};
use crate::graph::Op;
use crate::kernels;
use crate::params::{ParamId, ParamStore};

/// Handle to a value owned by an executor.
///
/// A `Var` is only meaningful for the executor that created it; indices are
/// positions in that executor's value arena (and, on the tape, its op list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// Whether stochastic regularisation (dropout) is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Training: dropout masks are sampled and applied.
    Train,
    /// Evaluation/inference: dropout is the identity.
    Eval,
}

/// The op vocabulary shared by the tape ([`crate::Graph`]) and the
/// gradient-free arena ([`crate::Infer`]).
///
/// Required methods are implemented once for both executors; provided
/// methods are pure compositions of them. Shape errors panic with a
/// descriptive message (model architectures fix shapes at construction
/// time, so a mismatch is a programming error).
pub trait Exec {
    /// Inserts a constant (no gradient will ever flow into it).
    fn constant(&self, value: Array) -> Var;
    /// Binds a parameter from a store; repeated binds return the same
    /// handle, so gradient contributions accumulate on one tape leaf.
    fn param(&self, store: &ParamStore, id: ParamId) -> Var;
    /// Marks a store's parameters as gradient-free: later binds are
    /// constants on the tape (the cheap way to run a pre-trained encoder
    /// under a trainable head). A no-op on executors that never compute
    /// gradients.
    fn freeze(&self, store: &ParamStore);
    /// The current value of a node (cheap `Arc` clone).
    fn value(&self, v: Var) -> Arc<Array>;
    /// Shape of a node's value.
    fn shape(&self, v: Var) -> (usize, usize);
    /// Whether dropout is active on this executor.
    fn mode(&self) -> ExecMode;

    /// Elementwise (broadcasting) addition.
    fn add(&self, a: Var, b: Var) -> Var;
    /// Elementwise (broadcasting) subtraction.
    fn sub(&self, a: Var, b: Var) -> Var;
    /// Elementwise (broadcasting) multiplication.
    fn mul(&self, a: Var, b: Var) -> Var;
    /// Adds a scalar to every element.
    fn add_scalar(&self, a: Var, c: f32) -> Var;
    /// Multiplies every element by a scalar.
    fn mul_scalar(&self, a: Var, c: f32) -> Var;
    /// Matrix product.
    fn matmul(&self, a: Var, b: Var) -> Var;
    /// Transpose.
    fn transpose(&self, a: Var) -> Var;
    /// Logistic sigmoid.
    fn sigmoid(&self, a: Var) -> Var;
    /// Hyperbolic tangent.
    fn tanh(&self, a: Var) -> Var;
    /// Rectified linear unit.
    fn relu(&self, a: Var) -> Var;
    /// Concatenates along columns: `[r, c1] ++ [r, c2] … → [r, Σci]`.
    fn concat_cols(&self, parts: &[Var]) -> Var;
    /// Stacks along rows: `[r1, c] ++ [r2, c] … → [Σri, c]`.
    fn concat_rows(&self, parts: &[Var]) -> Var;
    /// Extracts row `i` as a `[1, c]` node.
    fn row(&self, a: Var, i: usize) -> Var;
    /// Extracts columns `start..start+len`.
    fn slice_cols(&self, a: Var, start: usize, len: usize) -> Var;
    /// Sum of all elements → `[1, 1]`.
    fn sum_all(&self, a: Var) -> Var;
    /// Mean of all elements → `[1, 1]`.
    fn mean_all(&self, a: Var) -> Var;
    /// Column sums: `[r, c] → [1, c]`.
    fn col_sum(&self, a: Var) -> Var;
    /// Row sums: `[r, c] → [r, 1]`.
    fn row_sum(&self, a: Var) -> Var;
    /// Column-wise max per stacked row segment:
    /// `[Σr, c] → [segments.len(), c]` (CNN max-over-time pooling,
    /// [`kernels::max_cols`]; a tie goes to the first row).
    fn col_max_segments(&self, a: Var, segments: &[usize]) -> Var;
    /// Column-wise log-sum-exp: `[r, c] → [1, c]` (CRF forward recursion).
    fn col_lse(&self, a: Var) -> Var;
    /// Log-sum-exp over all elements → `[1, 1]` (CRF partition function).
    fn lse_all(&self, a: Var) -> Var;
    /// Row-wise log-softmax.
    fn log_softmax_rows(&self, a: Var) -> Var;
    /// Row-wise softmax.
    fn softmax_rows(&self, a: Var) -> Var;
    /// Sliding-window unfold (im2col for 1-D convolution) over stacked row
    /// segments: every segment's windows, in order, none crossing a
    /// segment boundary ([`kernels::unfold`]).
    fn unfold_segments(&self, a: Var, k: usize, segments: &[usize]) -> Var;
    /// Gathers rows by index (embedding lookup): `[V, D] → [len(idx), D]`.
    fn gather_rows(&self, a: Var, indices: &[usize]) -> Var;
    /// Reinterprets the (row-major) data as a `rows × cols` matrix.
    fn reshape(&self, a: Var, rows: usize, cols: usize) -> Var;
    /// Sum of selected entries → `[1, 1]` (CRF gold-path scoring).
    fn gather_sum(&self, a: Var, coords: &[(usize, usize)]) -> Var;

    /// Runs `f` and returns its values. On [`crate::Infer`] every buffer
    /// `f` allocated goes back to the pool except those of the returned
    /// values, which move to fresh slots: `Var`s issued inside `f` are
    /// invalid afterwards, and parameters bound inside `f` are unbound
    /// again, so a loop of scopes should bind its parameters before the
    /// first one. The tape does nothing extra: it keeps every value for
    /// the backward sweep.
    fn scoped<const K: usize>(&self, f: impl FnOnce() -> [Var; K]) -> [Var; K]
    where
        Self: Sized;

    /// Inserts a 1×1 constant.
    fn scalar(&self, value: f32) -> Var {
        self.constant(Array::scalar(value))
    }

    /// Negation.
    fn neg(&self, a: Var) -> Var {
        self.mul_scalar(a, -1.0)
    }

    /// `1 − a`, elementwise (GRU update gate complement).
    fn one_minus(&self, a: Var) -> Var {
        self.add_scalar(self.mul_scalar(a, -1.0), 1.0)
    }

    /// FiLM conditioning (paper Eq. 8): `γ ⊙ h + η` with `γ`, `η` `[1, D]`
    /// rows broadcast over `h`'s rows.
    fn film(&self, h: Var, gamma: Var, eta: Var) -> Var {
        self.add(self.mul(h, gamma), eta)
    }

    /// Mean over rows: `[r, c] → [1, c]` (prototype computation).
    fn row_mean(&self, a: Var) -> Var {
        let rows = self.shape(a).0;
        self.mul_scalar(self.col_sum(a), 1.0 / rows as f32)
    }

    /// Column-wise max: `[r, c] → [1, c]`, the one-segment
    /// [`Exec::col_max_segments`].
    fn col_max(&self, a: Var) -> Var {
        let rows = self.shape(a).0;
        self.col_max_segments(a, &[rows])
    }

    /// Sliding-window unfold `[r, c] → [r-k+1, k*c]`, the one-segment
    /// [`Exec::unfold_segments`].
    fn unfold(&self, a: Var, k: usize) -> Var {
        let rows = self.shape(a).0;
        self.unfold_segments(a, k, &[rows])
    }

    /// Inverted dropout. Identity unless the executor is in
    /// [`ExecMode::Train`] and `rate > 0`; the mask consumes one `rng` draw
    /// per element, so draw order is identical on every executor.
    fn dropout(&self, a: Var, rate: f32, rng: &mut Rng) -> Var {
        if self.mode() != ExecMode::Train || rate <= 0.0 {
            return a;
        }
        assert!(rate < 1.0, "dropout rate must be < 1");
        let keep = 1.0 - rate;
        let (r, c) = self.shape(a);
        let mut mask = Array::zeros(r, c);
        for v in mask.data_mut() {
            *v = if rng.chance(keep as f64) {
                1.0 / keep
            } else {
                0.0
            };
        }
        let m = self.constant(mask);
        self.mul(a, m)
    }
}

// The backend trait and the arena are `pub` inside a private module: the
// `Exec` impl below names them in its bounds, and nothing outside the crate
// can reach them.
mod sealed {
    use std::cell::{Ref, RefCell};
    use std::collections::HashMap;
    use std::sync::Arc;

    use super::{Array, ExecMode, Op, ParamId, ParamStore, Var};

    /// A value slot: an owned buffer, or a shared one (a bound parameter,
    /// or a value handed out by [`super::Exec::value`]).
    pub enum Slot {
        Owned(Array),
        Shared(Arc<Array>),
    }

    impl Slot {
        pub fn array(&self) -> &Array {
            match self {
                Slot::Owned(a) => a,
                Slot::Shared(a) => a,
            }
        }
    }

    /// The value store both executors own: one slot per [`Var`], the
    /// parameter bindings, and the executor's mode.
    pub struct Arena {
        pub(crate) slots: RefCell<Vec<Slot>>,
        pub(crate) bound: RefCell<HashMap<ParamId, Var>>,
        pub(crate) mode: ExecMode,
    }

    impl Arena {
        /// An arena reusing `slots`' storage (which must be empty).
        pub fn new(slots: Vec<Slot>, mode: ExecMode) -> Arena {
            debug_assert!(slots.is_empty());
            Arena {
                slots: RefCell::new(slots),
                bound: RefCell::new(HashMap::new()),
                mode,
            }
        }

        /// Appends a slot and returns its handle.
        pub fn push(&self, slot: Slot) -> Var {
            let mut slots = self.slots.borrow_mut();
            slots.push(slot);
            Var(slots.len() - 1)
        }

        /// Borrows a value.
        pub fn get(&self, v: Var) -> Ref<'_, Array> {
            Ref::map(self.slots.borrow(), |slots| slots[v.0].array())
        }
    }

    /// What an executor supplies to the shared op bodies. Sealed: the two
    /// executors of this crate are its only implementations.
    pub trait Backend {
        /// The arena holding every value.
        fn arena(&self) -> &Arena;
        /// A zero-filled `rows × cols` result buffer (accumulating kernels
        /// such as matmul start from it).
        fn alloc(&self, rows: usize, cols: usize) -> Array;
        /// Appends a result. The tape records `op()` for its backward
        /// sweep; `Infer` never calls it.
        fn push(&self, slot: Slot, op: impl FnOnce() -> Op) -> Var;
        /// [`super::Exec::freeze`].
        fn freeze_store(&self, store: &ParamStore);
        /// [`super::Exec::scoped`].
        fn scope<const K: usize>(&self, f: impl FnOnce() -> [Var; K]) -> [Var; K];
    }
}

pub(crate) use sealed::{Arena, Backend, Slot};

/// An elementwise op into a fresh result buffer.
fn unary<B: Backend>(ex: &B, a: Var, f: impl Fn(f32) -> f32, op: impl FnOnce() -> Op) -> Var {
    let out = {
        let src = ex.arena().get(a);
        let mut out = ex.alloc(src.rows(), src.cols());
        for (o, &x) in out.data_mut().iter_mut().zip(src.data()) {
            *o = f(x);
        }
        out
    };
    ex.push(Slot::Owned(out), op)
}

/// A broadcasting binary op into a fresh result buffer.
fn binary<B: Backend>(
    ex: &B,
    a: Var,
    b: Var,
    name: &str,
    f: impl Fn(f32, f32) -> f32,
    op: impl FnOnce() -> Op,
) -> Var {
    let out = {
        let (x, y) = (ex.arena().get(a), ex.arena().get(b));
        let (r, c) = kernels::broadcast_shape(x.shape(), y.shape(), name);
        let mut out = ex.alloc(r, c);
        kernels::bcast_zip_into(&x, &y, &mut out, f);
        out
    };
    ex.push(Slot::Owned(out), op)
}

/// A `[1, 1]` result.
fn scalar_out<B: Backend>(ex: &B, value: f32, op: impl FnOnce() -> Op) -> Var {
    let mut out = ex.alloc(1, 1);
    *out.at_mut(0, 0) = value;
    ex.push(Slot::Owned(out), op)
}

impl<B: Backend> Exec for B {
    fn constant(&self, value: Array) -> Var {
        self.push(Slot::Owned(value), || Op::Leaf(None))
    }

    fn param(&self, store: &ParamStore, id: ParamId) -> Var {
        if let Some(&v) = self.arena().bound.borrow().get(&id) {
            return v;
        }
        let v = self.push(Slot::Shared(Arc::clone(store.value(id))), || {
            Op::Leaf(Some(id))
        });
        self.arena().bound.borrow_mut().insert(id, v);
        v
    }

    fn freeze(&self, store: &ParamStore) {
        self.freeze_store(store);
    }

    fn value(&self, v: Var) -> Arc<Array> {
        let mut slots = self.arena().slots.borrow_mut();
        let slot = &mut slots[v.0];
        if let Slot::Owned(a) = slot {
            *slot = Slot::Shared(Arc::new(std::mem::replace(a, Array::zeros(0, 0))));
        }
        match slot {
            Slot::Shared(a) => Arc::clone(a),
            Slot::Owned(_) => unreachable!("the slot was just shared"),
        }
    }

    fn shape(&self, v: Var) -> (usize, usize) {
        self.arena().get(v).shape()
    }

    fn mode(&self) -> ExecMode {
        self.arena().mode
    }

    fn add(&self, a: Var, b: Var) -> Var {
        binary(self, a, b, "add", |x, y| x + y, || Op::Add(a.0, b.0))
    }

    fn sub(&self, a: Var, b: Var) -> Var {
        binary(self, a, b, "sub", |x, y| x - y, || Op::Sub(a.0, b.0))
    }

    fn mul(&self, a: Var, b: Var) -> Var {
        binary(self, a, b, "mul", |x, y| x * y, || Op::Mul(a.0, b.0))
    }

    fn add_scalar(&self, a: Var, c: f32) -> Var {
        unary(self, a, |x| x + c, || Op::AddScalar(a.0))
    }

    fn mul_scalar(&self, a: Var, c: f32) -> Var {
        unary(self, a, |x| x * c, || Op::MulScalar(a.0, c))
    }

    fn matmul(&self, a: Var, b: Var) -> Var {
        let out = {
            let (x, y) = (self.arena().get(a), self.arena().get(b));
            let (sa, sb) = (x.shape(), y.shape());
            assert_eq!(
                sa.1, sb.0,
                "matmul: [{}, {}] x [{}, {}]",
                sa.0, sa.1, sb.0, sb.1
            );
            let mut out = self.alloc(sa.0, sb.1);
            matmul_into(&x, &y, &mut out, true);
            out
        };
        self.push(Slot::Owned(out), || Op::MatMul(a.0, b.0))
    }

    fn transpose(&self, a: Var) -> Var {
        let out = {
            let src = self.arena().get(a);
            let (r, c) = src.shape();
            let mut out = self.alloc(c, r);
            for i in 0..r {
                for (j, &v) in src.row(i).iter().enumerate() {
                    *out.at_mut(j, i) = v;
                }
            }
            out
        };
        self.push(Slot::Owned(out), || Op::Transpose(a.0))
    }

    fn sigmoid(&self, a: Var) -> Var {
        unary(self, a, |x| 1.0 / (1.0 + (-x).exp()), || Op::Sigmoid(a.0))
    }

    fn tanh(&self, a: Var) -> Var {
        unary(self, a, f32::tanh, || Op::Tanh(a.0))
    }

    fn relu(&self, a: Var) -> Var {
        unary(self, a, |x| x.max(0.0), || Op::Relu(a.0))
    }

    fn concat_cols(&self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of zero parts");
        let out = {
            let slots = self.arena().slots.borrow();
            let rows = slots[parts[0].0].array().rows();
            let total: usize = parts.iter().map(|p| slots[p.0].array().cols()).sum();
            let mut out = self.alloc(rows, total);
            let mut offset = 0;
            for p in parts {
                let a = slots[p.0].array();
                assert_eq!(a.rows(), rows, "concat_cols: row mismatch");
                for r in 0..rows {
                    out.row_mut(r)[offset..offset + a.cols()].copy_from_slice(a.row(r));
                }
                offset += a.cols();
            }
            out
        };
        self.push(Slot::Owned(out), || {
            Op::ConcatCols(parts.iter().map(|p| p.0).collect())
        })
    }

    fn concat_rows(&self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows of zero parts");
        let out = {
            let slots = self.arena().slots.borrow();
            let cols = slots[parts[0].0].array().cols();
            let total: usize = parts.iter().map(|p| slots[p.0].array().rows()).sum();
            let mut out = self.alloc(total, cols);
            let mut offset = 0;
            for p in parts {
                let a = slots[p.0].array();
                assert_eq!(a.cols(), cols, "concat_rows: col mismatch");
                for r in 0..a.rows() {
                    out.row_mut(offset + r).copy_from_slice(a.row(r));
                }
                offset += a.rows();
            }
            out
        };
        self.push(Slot::Owned(out), || {
            Op::ConcatRows(parts.iter().map(|p| p.0).collect())
        })
    }

    fn row(&self, a: Var, i: usize) -> Var {
        let out = {
            let src = self.arena().get(a);
            assert!(i < src.rows(), "row {i} of {} rows", src.rows());
            let mut out = self.alloc(1, src.cols());
            out.row_mut(0).copy_from_slice(src.row(i));
            out
        };
        self.push(Slot::Owned(out), || Op::Row(a.0, i))
    }

    fn slice_cols(&self, a: Var, start: usize, len: usize) -> Var {
        let out = {
            let src = self.arena().get(a);
            assert!(start + len <= src.cols(), "slice_cols out of range");
            let mut out = self.alloc(src.rows(), len);
            for r in 0..src.rows() {
                out.row_mut(r)
                    .copy_from_slice(&src.row(r)[start..start + len]);
            }
            out
        };
        self.push(Slot::Owned(out), || Op::SliceCols {
            src: a.0,
            start,
            len,
        })
    }

    fn sum_all(&self, a: Var) -> Var {
        let total = self.arena().get(a).sum();
        scalar_out(self, total, || Op::SumAll(a.0))
    }

    fn mean_all(&self, a: Var) -> Var {
        let mean = {
            let src = self.arena().get(a);
            src.sum() / src.len() as f32
        };
        scalar_out(self, mean, || Op::MeanAll(a.0))
    }

    fn col_sum(&self, a: Var) -> Var {
        let out = {
            let src = self.arena().get(a);
            let mut out = self.alloc(1, src.cols());
            for r in 0..src.rows() {
                for (o, &v) in out.row_mut(0).iter_mut().zip(src.row(r)) {
                    *o += v;
                }
            }
            out
        };
        self.push(Slot::Owned(out), || Op::ColSum(a.0))
    }

    fn row_sum(&self, a: Var) -> Var {
        let out = {
            let src = self.arena().get(a);
            let mut out = self.alloc(src.rows(), 1);
            for r in 0..src.rows() {
                *out.at_mut(r, 0) = src.row(r).iter().sum();
            }
            out
        };
        self.push(Slot::Owned(out), || Op::RowSum(a.0))
    }

    fn col_max_segments(&self, a: Var, segments: &[usize]) -> Var {
        let (value, arg) = kernels::max_cols(&self.arena().get(a), segments);
        self.push(Slot::Owned(value), || Op::ColMax(a.0, arg))
    }

    fn col_lse(&self, a: Var) -> Var {
        let value = kernels::logsumexp_cols(&self.arena().get(a));
        self.push(Slot::Owned(value), || Op::ColLse(a.0))
    }

    fn lse_all(&self, a: Var) -> Var {
        let total = kernels::logsumexp_all(&self.arena().get(a));
        scalar_out(self, total, || Op::LseAll(a.0))
    }

    fn log_softmax_rows(&self, a: Var) -> Var {
        let value = kernels::log_softmax_rows(&self.arena().get(a));
        self.push(Slot::Owned(value), || Op::LogSoftmaxRows(a.0))
    }

    fn softmax_rows(&self, a: Var) -> Var {
        let value = kernels::softmax_rows(&self.arena().get(a));
        self.push(Slot::Owned(value), || Op::SoftmaxRows(a.0))
    }

    fn unfold_segments(&self, a: Var, k: usize, segments: &[usize]) -> Var {
        let value = kernels::unfold(&self.arena().get(a), k, segments);
        self.push(Slot::Owned(value), || Op::Unfold {
            src: a.0,
            k,
            segments: segments.to_vec(),
        })
    }

    fn gather_rows(&self, a: Var, indices: &[usize]) -> Var {
        let out = {
            let src = self.arena().get(a);
            let mut out = self.alloc(indices.len(), src.cols());
            for (r, &i) in indices.iter().enumerate() {
                assert!(i < src.rows(), "gather_rows: index {i} of {}", src.rows());
                out.row_mut(r).copy_from_slice(src.row(i));
            }
            out
        };
        self.push(Slot::Owned(out), || Op::GatherRows(a.0, indices.to_vec()))
    }

    fn reshape(&self, a: Var, rows: usize, cols: usize) -> Var {
        let out = {
            let src = self.arena().get(a);
            assert_eq!(
                src.len(),
                rows * cols,
                "reshape {:?} to [{rows}, {cols}]",
                src.shape()
            );
            let mut out = self.alloc(rows, cols);
            out.data_mut().copy_from_slice(src.data());
            out
        };
        self.push(Slot::Owned(out), || Op::Reshape(a.0))
    }

    fn gather_sum(&self, a: Var, coords: &[(usize, usize)]) -> Var {
        let total = {
            let src = self.arena().get(a);
            let mut total = 0.0;
            for &(r, c) in coords {
                assert!(
                    r < src.rows() && c < src.cols(),
                    "gather_sum: ({r}, {c}) out of {:?}",
                    src.shape()
                );
                total += src.at(r, c);
            }
            total
        };
        scalar_out(self, total, || Op::GatherSum(a.0, coords.to_vec()))
    }

    fn scoped<const K: usize>(&self, f: impl FnOnce() -> [Var; K]) -> [Var; K] {
        self.scope(f)
    }
}
