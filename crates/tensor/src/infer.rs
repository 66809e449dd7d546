//! The gradient-free inference executor.
//!
//! [`Infer`] runs the same one-per-op forward bodies as the tape
//! ([`crate::exec`]) with the other backend: no `Op` is ever built, no
//! parent indices or gradient routing tables are kept, and result buffers
//! are drawn from (and recycled into) a free pool of `Vec<f32>` allocations
//! instead of being freshly allocated per op. Its values are therefore
//! **bitwise identical** to the tape's forward pass.
//!
//! The intended use is FEWNER's serving shape — adapt once per task, then
//! predict over many query sentences. The backbone decodes all of a call's
//! sentences in one batched pass: each op runs once over every token's
//! rows, the char-CNN's windows are unfolded and max-pooled per token with
//! [`Exec::unfold_segments`] and [`Exec::col_max_segments`], and
//! [`Exec::scoped`] returns each recurrent step's and each filter bank's
//! scratch to the pool as soon as its result is out. Per-sentence sweeps
//! (ProtoNet, SNAIL, the frozen-LM baselines) compute per-task values
//! first, fence the arena with [`Infer::mark`], and after each sentence
//! [`Infer::reset_to`] truncates back to the fence, returning every
//! sentence-local buffer to the pool for the next sentence to reuse.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::array::Array;
use crate::exec::{Arena, Backend, Exec, ExecMode, Slot, Var};
use crate::graph::Op;
use crate::params::ParamStore;

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

/// Eager, gradient-free executor with a reusable scratch-buffer arena.
///
/// See the [module docs](self) for the reuse protocol. Like [`crate::Graph`],
/// an `Infer` is single-threaded (`RefCell` interior mutability) and cheap to
/// construct; unlike the tape it is intended to live for a whole task so the
/// buffer pool amortises across sentences.
pub struct Infer {
    arena: Arena,
    pool: RefCell<Vec<Vec<f32>>>,
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
            arena: Arena::new(Vec::with_capacity(256), ExecMode::Eval),
            pool: RefCell::new(Vec::new()),
            stats: Cell::new(InferStats::default()),
        }
    }

    /// This executor's buffer-pool statistics so far.
    pub fn stats(&self) -> InferStats {
        self.stats.get()
    }

    /// Fences the arena: slots created so far survive [`Infer::reset_to`].
    pub fn mark(&self) -> usize {
        self.len()
    }

    /// Truncates the arena back to a [`Infer::mark`] fence, recycling every
    /// owned buffer above it into the free pool. `Var`s issued above the
    /// fence are invalidated; `Var`s at or below it stay usable.
    pub fn reset_to(&self, mark: usize) {
        let mut slots = self.arena.slots.borrow_mut();
        let mut pool = self.pool.borrow_mut();
        while slots.len() > mark {
            if let Some(Slot::Owned(a)) = slots.pop() {
                pool.push(a.take_data());
            }
        }
        self.arena.bound.borrow_mut().retain(|_, v| v.0 < mark);
    }

    /// Number of live slots (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.arena.slots.borrow().len()
    }

    /// True when the arena holds no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of buffers currently parked in the free pool (tests).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.borrow().len()
    }
}

impl Backend for Infer {
    fn arena(&self) -> &Arena {
        &self.arena
    }

    /// Reuses a pooled buffer when one is available. Zero-filling keeps
    /// accumulating kernels (matmul) bitwise identical to the tape's
    /// `Array::zeros` starting point.
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

    fn push(&self, slot: Slot, _op: impl FnOnce() -> Op) -> Var {
        let v = self.arena.push(slot);
        let mut s = self.stats.get();
        s.high_water = s.high_water.max(v.0 as u64 + 1);
        self.stats.set(s);
        v
    }

    fn freeze_store(&self, _store: &ParamStore) {
        // Nothing to do: no gradients are ever computed here.
    }

    fn scope<V: AsMut<[Var]>>(&self, f: impl FnOnce() -> V) -> V {
        let mark = self.mark();
        let mut kept = f();
        let values: Vec<Arc<Array>> = kept.as_mut().iter().map(|&v| self.value(v)).collect();
        self.reset_to(mark);
        // The arena's handles are gone, so a buffer made inside `f` moves
        // back in uncopied; one from before the call is copied.
        for (v, value) in kept.as_mut().iter_mut().zip(values) {
            *v = self.constant(Arc::unwrap_or_clone(value));
        }
        kept
    }

    /// Nothing to attribute: no gradient is ever accumulated here.
    fn segment_scope<R>(&self, _keys: &[usize], f: impl FnOnce() -> R) -> R {
        f()
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
    fn scoped_keeps_only_the_returned_values() {
        let ex = Infer::new();
        let base = ex.constant(Array::full(2, 2, 1.0));
        let [kept] = ex.scoped(|| {
            let a = ex.add_scalar(base, 1.0);
            [ex.mul(a, a)]
        });
        assert_eq!(ex.len(), 2, "the base and the kept value");
        assert_eq!(ex.pooled_buffers(), 1, "the scratch went back to the pool");
        assert_eq!(ex.value(kept).data(), &[4.0; 4]);
        // A value from before the scope comes back as a copy; both stay valid.
        let [copy] = ex.scoped(|| [base]);
        assert_ne!(copy, base);
        assert_eq!(ex.value(copy).data(), ex.value(base).data());
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
