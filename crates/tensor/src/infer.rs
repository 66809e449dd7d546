//! The gradient-free inference executor.
//!
//! [`Infer`] evaluates the [`Exec`] op vocabulary eagerly into a slot arena:
//! no `Op` nodes are recorded, no parent indices or gradient routing tables
//! are kept, and result buffers are drawn from (and recycled into) a free
//! pool of `Vec<f32>` allocations instead of being freshly allocated per op.
//!
//! The intended use is FEWNER's serving shape — adapt once per task, then
//! predict over many query sentences. Per-task values (bound parameters,
//! CRF transitions, FiLM projections) are computed first; [`Infer::mark`]
//! then fences the arena, and after each sentence [`Infer::reset_to`]
//! truncates back to the fence, returning every sentence-local buffer to the
//! pool for the next sentence to reuse. Across a whole task, steady-state
//! inference performs no per-sentence heap allocation for arena slots.
//!
//! Values are **bitwise identical** to the tape's forward pass: both
//! executors evaluate the same op vocabulary by calling the same kernels
//! ([`crate::kernels`] and [`crate::array::matmul_into`]), and both
//! zero-initialise matmul accumulators the same way.
//!
//! `Infer` has no gradient surface — there is no `backward` to call:
//!
//! ```compile_fail
//! use fewner_tensor::{Array, Exec, Infer};
//! let ex = Infer::new();
//! let x = ex.constant(Array::scalar(1.0));
//! let y = ex.mul(x, x);
//! ex.backward(y); // ERROR: no method `backward` on `Infer`
//! ```

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::array::{matmul_into, Array};
use crate::exec::{Exec, ExecMode, Var};
use crate::kernels;
use crate::params::{ParamId, ParamStore};

/// Buffer-pool and arena statistics for one [`Infer`] executor.
///
/// `pool_hits` / `pool_misses` count [`Infer`] scratch-buffer requests
/// served from the recycle pool versus fresh heap allocations; their ratio
/// is the direct measure of how well the serving path amortises allocation.
/// `high_water` is the largest number of live arena slots observed, i.e.
/// the executor's peak working-set in buffers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InferStats {
    /// Scratch-buffer requests satisfied by recycling a pooled buffer.
    pub pool_hits: u64,
    /// Scratch-buffer requests that had to allocate fresh memory.
    pub pool_misses: u64,
    /// Peak number of live arena slots over the executor's lifetime.
    pub high_water: u64,
}

/// Process-wide accumulation of every dropped [`Infer`]'s statistics, so
/// serving code can report pool behaviour without threading each executor's
/// stats outward. Relaxed ordering suffices: these are monotone counters
/// read for diagnostics, never for synchronisation.
static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_MISSES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_HIGH_WATER: AtomicU64 = AtomicU64::new(0);

/// Aggregate statistics from every [`Infer`] dropped so far in this process
/// (`high_water` is the max across executors, the counters are sums).
pub fn global_stats() -> InferStats {
    InferStats {
        pool_hits: GLOBAL_HITS.load(Ordering::Relaxed),
        pool_misses: GLOBAL_MISSES.load(Ordering::Relaxed),
        high_water: GLOBAL_HIGH_WATER.load(Ordering::Relaxed),
    }
}

/// A slot either owns its buffer (recyclable) or shares a parameter /
/// extracted value behind an `Arc`.
enum Slot {
    Owned(Array),
    Shared(Arc<Array>),
}

impl Slot {
    fn array(&self) -> &Array {
        match self {
            Slot::Owned(a) => a,
            Slot::Shared(a) => a,
        }
    }
}

/// Eager, gradient-free executor with a reusable scratch-buffer arena.
///
/// See the [module docs](self) for the reuse protocol. Like [`crate::Graph`],
/// an `Infer` is single-threaded (`RefCell` interior mutability) and cheap to
/// construct; unlike the tape it is intended to live for a whole task so the
/// buffer pool amortises across sentences.
pub struct Infer {
    slots: RefCell<Vec<Slot>>,
    pool: RefCell<Vec<Vec<f32>>>,
    bound: RefCell<HashMap<ParamId, Var>>,
    stats: Cell<InferStats>,
}

impl Default for Infer {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Infer {
    fn drop(&mut self) {
        let s = self.stats.get();
        GLOBAL_HITS.fetch_add(s.pool_hits, Ordering::Relaxed);
        GLOBAL_MISSES.fetch_add(s.pool_misses, Ordering::Relaxed);
        GLOBAL_HIGH_WATER.fetch_max(s.high_water, Ordering::Relaxed);
    }
}

impl Infer {
    /// Creates an empty arena.
    pub fn new() -> Infer {
        Infer {
            slots: RefCell::new(Vec::with_capacity(256)),
            pool: RefCell::new(Vec::new()),
            bound: RefCell::new(HashMap::new()),
            stats: Cell::new(InferStats::default()),
        }
    }

    /// This executor's buffer-pool statistics so far.
    pub fn stats(&self) -> InferStats {
        self.stats.get()
    }

    fn note_high_water(&self, live: usize) {
        let mut s = self.stats.get();
        s.high_water = s.high_water.max(live as u64);
        self.stats.set(s);
    }

    /// Fences the arena: slots created so far survive [`Infer::reset_to`].
    pub fn mark(&self) -> usize {
        self.slots.borrow().len()
    }

    /// Truncates the arena back to a [`Infer::mark`] fence, recycling every
    /// owned buffer above it into the free pool. `Var`s issued above the
    /// fence are invalidated; `Var`s at or below it stay usable.
    pub fn reset_to(&self, mark: usize) {
        let mut slots = self.slots.borrow_mut();
        let mut pool = self.pool.borrow_mut();
        while slots.len() > mark {
            if let Some(Slot::Owned(a)) = slots.pop() {
                pool.push(a.take_data());
            }
        }
        self.bound.borrow_mut().retain(|_, v| v.0 < mark);
    }

    /// Number of live slots (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.slots.borrow().len()
    }

    /// True when the arena holds no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.borrow().is_empty()
    }

    /// Number of buffers currently parked in the free pool (tests).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.borrow().len()
    }

    /// A zero-filled `rows × cols` array, reusing a pooled buffer when one
    /// is available. Zero-filling keeps accumulating kernels (matmul)
    /// bitwise identical to the tape's `Array::zeros` starting point.
    fn alloc(&self, rows: usize, cols: usize) -> Array {
        let mut stats = self.stats.get();
        let data = match self.pool.borrow_mut().pop() {
            Some(mut buf) => {
                stats.pool_hits += 1;
                buf.clear();
                buf.resize(rows * cols, 0.0);
                buf
            }
            None => {
                stats.pool_misses += 1;
                vec![0.0; rows * cols]
            }
        };
        self.stats.set(stats);
        Array::from_vec(rows, cols, data)
    }

    fn push(&self, value: Array) -> Var {
        let mut slots = self.slots.borrow_mut();
        slots.push(Slot::Owned(value));
        let live = slots.len();
        drop(slots);
        self.note_high_water(live);
        Var(live - 1)
    }

    /// Unary op into a recycled buffer.
    fn unary(&self, a: Var, f: impl Fn(f32) -> f32) -> Array {
        let slots = self.slots.borrow();
        let src = slots[a.0].array();
        let (r, c) = src.shape();
        let mut out = self.alloc(r, c);
        for (o, &x) in out.data_mut().iter_mut().zip(src.data()) {
            *o = f(x);
        }
        out
    }

    /// Broadcasting binary op into a recycled buffer.
    fn binary(&self, a: Var, b: Var, op: &str, f: impl Fn(f32, f32) -> f32) -> Array {
        let slots = self.slots.borrow();
        let (x, y) = (slots[a.0].array(), slots[b.0].array());
        let (r, c) = kernels::broadcast_shape(x.shape(), y.shape(), op);
        let mut out = self.alloc(r, c);
        kernels::bcast_zip_into(x, y, &mut out, f);
        out
    }
}

impl Exec for Infer {
    fn constant(&self, value: Array) -> Var {
        self.push(value)
    }

    fn param(&self, store: &ParamStore, id: ParamId) -> Var {
        if let Some(&v) = self.bound.borrow().get(&id) {
            return v;
        }
        let live = {
            let mut slots = self.slots.borrow_mut();
            slots.push(Slot::Shared(Arc::clone(store.value(id))));
            slots.len()
        };
        self.note_high_water(live);
        let v = Var(live - 1);
        self.bound.borrow_mut().insert(id, v);
        v
    }

    fn freeze(&self, _store: &ParamStore) {
        // Nothing to do: no gradients are ever computed here.
    }

    fn value(&self, v: Var) -> Arc<Array> {
        let mut slots = self.slots.borrow_mut();
        let placeholder = Slot::Shared(Arc::new(Array::from_vec(0, 0, Vec::new())));
        let shared = match std::mem::replace(&mut slots[v.0], placeholder) {
            Slot::Owned(a) => Arc::new(a),
            Slot::Shared(a) => a,
        };
        slots[v.0] = Slot::Shared(Arc::clone(&shared));
        shared
    }

    fn shape(&self, v: Var) -> (usize, usize) {
        self.slots.borrow()[v.0].array().shape()
    }

    fn mode(&self) -> ExecMode {
        ExecMode::Eval
    }

    fn add(&self, a: Var, b: Var) -> Var {
        let out = self.binary(a, b, "add", |x, y| x + y);
        self.push(out)
    }

    fn sub(&self, a: Var, b: Var) -> Var {
        let out = self.binary(a, b, "sub", |x, y| x - y);
        self.push(out)
    }

    fn mul(&self, a: Var, b: Var) -> Var {
        let out = self.binary(a, b, "mul", |x, y| x * y);
        self.push(out)
    }

    fn add_scalar(&self, a: Var, c: f32) -> Var {
        let out = self.unary(a, |x| x + c);
        self.push(out)
    }

    fn mul_scalar(&self, a: Var, c: f32) -> Var {
        let out = self.unary(a, |x| x * c);
        self.push(out)
    }

    fn matmul(&self, a: Var, b: Var) -> Var {
        let out = {
            let slots = self.slots.borrow();
            let (x, y) = (slots[a.0].array(), slots[b.0].array());
            let (sa, sb) = (x.shape(), y.shape());
            assert_eq!(
                sa.1, sb.0,
                "matmul: [{}, {}] x [{}, {}]",
                sa.0, sa.1, sb.0, sb.1
            );
            let mut out = self.alloc(sa.0, sb.1);
            matmul_into(x, y, &mut out, true);
            out
        };
        self.push(out)
    }

    fn transpose(&self, a: Var) -> Var {
        let out = {
            let slots = self.slots.borrow();
            let src = slots[a.0].array();
            let (r, c) = src.shape();
            let mut out = self.alloc(c, r);
            for i in 0..r {
                for (j, &v) in src.row(i).iter().enumerate() {
                    *out.at_mut(j, i) = v;
                }
            }
            out
        };
        self.push(out)
    }

    fn sigmoid(&self, a: Var) -> Var {
        let out = self.unary(a, |x| 1.0 / (1.0 + (-x).exp()));
        self.push(out)
    }

    fn tanh(&self, a: Var) -> Var {
        let out = self.unary(a, f32::tanh);
        self.push(out)
    }

    fn relu(&self, a: Var) -> Var {
        let out = self.unary(a, |x| x.max(0.0));
        self.push(out)
    }

    fn concat_cols(&self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of zero parts");
        let out = {
            let slots = self.slots.borrow();
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
        self.push(out)
    }

    fn concat_rows(&self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows of zero parts");
        let out = {
            let slots = self.slots.borrow();
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
        self.push(out)
    }

    fn row(&self, a: Var, i: usize) -> Var {
        let out = {
            let slots = self.slots.borrow();
            let src = slots[a.0].array();
            assert!(i < src.rows(), "row {i} of {} rows", src.rows());
            let mut out = self.alloc(1, src.cols());
            out.row_mut(0).copy_from_slice(src.row(i));
            out
        };
        self.push(out)
    }

    fn slice_cols(&self, a: Var, start: usize, len: usize) -> Var {
        let out = {
            let slots = self.slots.borrow();
            let src = slots[a.0].array();
            assert!(start + len <= src.cols(), "slice_cols out of range");
            let mut out = self.alloc(src.rows(), len);
            for r in 0..src.rows() {
                out.row_mut(r)
                    .copy_from_slice(&src.row(r)[start..start + len]);
            }
            out
        };
        self.push(out)
    }

    fn sum_all(&self, a: Var) -> Var {
        let total = self.slots.borrow()[a.0].array().sum();
        let mut out = self.alloc(1, 1);
        *out.at_mut(0, 0) = total;
        self.push(out)
    }

    fn mean_all(&self, a: Var) -> Var {
        let (total, n) = {
            let slots = self.slots.borrow();
            let src = slots[a.0].array();
            (src.sum(), src.len())
        };
        let mut out = self.alloc(1, 1);
        *out.at_mut(0, 0) = total / n as f32;
        self.push(out)
    }

    fn col_sum(&self, a: Var) -> Var {
        let out = {
            let slots = self.slots.borrow();
            let src = slots[a.0].array();
            let mut out = self.alloc(1, src.cols());
            for r in 0..src.rows() {
                for (o, &v) in out.row_mut(0).iter_mut().zip(src.row(r)) {
                    *o += v;
                }
            }
            out
        };
        self.push(out)
    }

    fn row_sum(&self, a: Var) -> Var {
        let out = {
            let slots = self.slots.borrow();
            let src = slots[a.0].array();
            let mut out = self.alloc(src.rows(), 1);
            for r in 0..src.rows() {
                *out.at_mut(r, 0) = src.row(r).iter().sum();
            }
            out
        };
        self.push(out)
    }

    fn col_max(&self, a: Var) -> Var {
        let (value, _arg) = kernels::max_cols(self.slots.borrow()[a.0].array());
        self.push(value)
    }

    fn col_lse(&self, a: Var) -> Var {
        let value = kernels::logsumexp_cols(self.slots.borrow()[a.0].array());
        self.push(value)
    }

    fn lse_all(&self, a: Var) -> Var {
        let total = kernels::logsumexp_all(self.slots.borrow()[a.0].array());
        let mut out = self.alloc(1, 1);
        *out.at_mut(0, 0) = total;
        self.push(out)
    }

    fn log_softmax_rows(&self, a: Var) -> Var {
        let value = kernels::log_softmax_rows(self.slots.borrow()[a.0].array());
        self.push(value)
    }

    fn softmax_rows(&self, a: Var) -> Var {
        let value = kernels::softmax_rows(self.slots.borrow()[a.0].array());
        self.push(value)
    }

    fn unfold(&self, a: Var, k: usize) -> Var {
        let value = kernels::unfold(self.slots.borrow()[a.0].array(), k);
        self.push(value)
    }

    fn gather_rows(&self, a: Var, indices: &[usize]) -> Var {
        let out = {
            let slots = self.slots.borrow();
            let src = slots[a.0].array();
            let mut out = self.alloc(indices.len(), src.cols());
            for (r, &i) in indices.iter().enumerate() {
                assert!(i < src.rows(), "gather_rows: index {i} of {}", src.rows());
                out.row_mut(r).copy_from_slice(src.row(i));
            }
            out
        };
        self.push(out)
    }

    fn reshape(&self, a: Var, rows: usize, cols: usize) -> Var {
        let out = {
            let slots = self.slots.borrow();
            let src = slots[a.0].array();
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
        self.push(out)
    }

    fn gather_sum(&self, a: Var, coords: &[(usize, usize)]) -> Var {
        let total = {
            let slots = self.slots.borrow();
            let src = slots[a.0].array();
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
        let mut out = self.alloc(1, 1);
        *out.at_mut(0, 0) = total;
        self.push(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_recycles_owned_buffers() {
        let ex = Infer::new();
        let base = ex.constant(Array::full(2, 3, 1.0));
        let mark = ex.mark();
        let a = ex.add_scalar(base, 1.0);
        let _ = ex.mul(a, a);
        assert_eq!(ex.len(), mark + 2);
        ex.reset_to(mark);
        assert_eq!(ex.len(), mark);
        assert_eq!(ex.pooled_buffers(), 2);
        // The next sentence draws from the pool instead of allocating.
        let b = ex.add_scalar(base, 2.0);
        assert_eq!(ex.pooled_buffers(), 1);
        assert_eq!(ex.value(b).data(), &[3.0; 6]);
    }

    #[test]
    fn reset_evicts_param_bindings_above_the_fence() {
        let mut store = ParamStore::new();
        let id = store.add("w", Array::scalar(7.0));
        let ex = Infer::new();
        let mark = ex.mark();
        let w1 = ex.param(&store, id);
        assert_eq!(ex.param(&store, id), w1, "binding is cached");
        ex.reset_to(mark);
        let w2 = ex.param(&store, id);
        assert_eq!(w2.0, mark, "stale binding must not survive the reset");
        assert_eq!(ex.value(w2).scalar_value(), 7.0);
    }

    #[test]
    fn extracted_values_survive_reset() {
        let ex = Infer::new();
        let mark = ex.mark();
        let x = ex.constant(Array::from_vec(1, 2, vec![1.0, 2.0]));
        let y = ex.mul_scalar(x, 10.0);
        let kept = ex.value(y);
        ex.reset_to(mark);
        assert_eq!(kept.data(), &[10.0, 20.0]);
        // The shared buffer was not recycled into the pool.
        assert_eq!(ex.pooled_buffers(), 1);
    }

    #[test]
    fn stats_track_pool_hits_misses_and_high_water() {
        let ex = Infer::new();
        let base = ex.constant(Array::full(2, 2, 1.0));
        let mark = ex.mark();
        let a = ex.add_scalar(base, 1.0);
        let _ = ex.mul(a, a);
        let s = ex.stats();
        assert_eq!(s.pool_misses, 2, "empty pool: every alloc is a miss");
        assert_eq!(s.pool_hits, 0);
        assert_eq!(s.high_water, 3, "constant + two scratch results");
        ex.reset_to(mark);
        let _ = ex.add_scalar(base, 2.0);
        let s = ex.stats();
        assert_eq!(s.pool_hits, 1, "post-reset alloc recycles a buffer");
        assert_eq!(s.pool_misses, 2);
        drop(ex);
        let g = global_stats();
        assert!(g.pool_hits >= 1 && g.pool_misses >= 2 && g.high_water >= 3);
    }

    #[test]
    fn pool_resizes_buffers_to_fit() {
        let ex = Infer::new();
        let mark = ex.mark();
        let small = ex.constant(Array::full(1, 2, 1.0));
        let _ = ex.add_scalar(small, 0.0);
        ex.reset_to(mark);
        // Reuse the 2-element buffer for a 12-element result: must resize
        // and zero-fill so matmul accumulation starts from zero.
        let a = ex.constant(Array::full(3, 2, 1.0));
        let b = ex.constant(Array::full(2, 4, 1.0));
        let c = ex.matmul(a, b);
        assert_eq!(ex.value(c).data(), &[2.0; 12]);
    }
}
