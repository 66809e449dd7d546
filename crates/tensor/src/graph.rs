//! Define-by-run reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a tape: every op evaluates its result eagerly and records
//! itself, so construction order is already a topological order and
//! [`Graph::backward`] is a single reverse sweep. One graph is built per
//! forward pass (per task batch) and dropped afterwards.
//!
//! The forward bodies are the [`Exec`] ops, written once for both executors
//! (see [`crate::exec`]). What the tape adds is this module: a fresh buffer
//! per result, the `Op` list recorded beside the values, frozen stores, and
//! the backward sweep with each op's vector-Jacobian product.
//!
//! Parameters are *bound* into a graph from one or more [`ParamStore`]s via
//! [`Graph::param`]; leaves share the store's tensor (`Arc`, zero copy) and
//! the backward sweep routes their gradients into per-store accumulators.
//! This is what makes the paper's θ/φ split natural: FEWNER's inner loop
//! asks only for φ's store gradients, the outer loop only for θ's.
//!
//! # Stacked sequences and the order of parameter gradients
//!
//! A layer may run one op over the rows of many sequences at once
//! ([`Exec::segmented`]). Data gradients need nothing for that: every
//! kernel computes a row's gradient from that row alone. A parameter's
//! gradient is different: `matmul_at_b` and `reduce_into` add the rows'
//! contributions into the leaf one row after another, so one op over all
//! sequences would add them in row order, where one op per sequence adds
//! the last sequence's first. The backward sweep therefore holds back a
//! segmented op's contributions to a parameter leaf, and when it leaves
//! the op's group it replays them segment by segment, the highest key
//! first, and within a segment the last op first, with the same kernels
//! on the same rows. Each parameter then receives the bits one op per
//! sequence gives it.
//!
//! # Shape errors
//!
//! Ops panic on incompatible shapes with a descriptive message. Model
//! architectures fix all shapes at construction time, so a mismatch here is
//! a programming error, not a recoverable condition; the fallible `Result`
//! surface lives on [`Array`] and on the high-level training APIs.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::rc::Rc;

use fewner_util::{Error, Result};

// The backward pass adds the transposed matmuls and the broadcast
// reductions to the forward kernels the ops share.
use crate::array::{matmul_a_bt, matmul_at_b, Array};
use crate::exec::{Arena, Backend, Exec, ExecMode, Slot};
use crate::kernels;
use crate::params::{ParamGrads, ParamId, ParamStore};

pub use crate::exec::Var;

// `pub` inside a private module: the executors' sealed backend trait names
// it, and nothing outside the crate can reach it.
mod op {
    use crate::params::ParamId;

    /// One recorded op: its parents and what its backward sweep needs.
    #[derive(Debug)]
    pub enum Op {
        /// Input/constant/parameter leaf. `Some` routes gradients to the store.
        Leaf(Option<ParamId>),
        Add(usize, usize),
        Sub(usize, usize),
        Mul(usize, usize),
        AddScalar(usize),
        MulScalar(usize, f32),
        MatMul(usize, usize),
        Transpose(usize),
        Sigmoid(usize),
        Tanh(usize),
        Relu(usize),
        ConcatCols(Vec<usize>),
        ConcatRows(Vec<usize>),
        Row(usize, usize),
        SliceCols {
            src: usize,
            start: usize,
            len: usize,
        },
        SumAll(usize),
        MeanAll(usize),
        ColSum(usize),
        RowSum(usize),
        /// The source and each output element's argmax row.
        ColMax(usize, Vec<usize>),
        ColLse(usize),
        LseAll(usize),
        LogSoftmaxRows(usize),
        SoftmaxRows(usize),
        Unfold {
            src: usize,
            k: usize,
            segments: Vec<usize>,
        },
        GatherRows(usize, Vec<usize>),
        GatherSum(usize, Vec<(usize, usize)>),
        Reshape(usize),
    }
}

pub(crate) use op::Op;

impl Op {
    /// Parents of the node, for the needs-gradient sweep.
    fn parents(&self, out: &mut Vec<usize>) {
        out.clear();
        self.visit_parents(|p| out.push(p));
    }

    /// Calls `f` on each parent of the node.
    fn visit_parents(&self, mut f: impl FnMut(usize)) {
        match self {
            Op::Leaf(_) => {}
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::MatMul(a, b) => {
                f(*a);
                f(*b);
            }
            Op::AddScalar(a)
            | Op::MulScalar(a, _)
            | Op::Transpose(a)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Relu(a)
            | Op::Row(a, _)
            | Op::SliceCols { src: a, .. }
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::ColSum(a)
            | Op::RowSum(a)
            | Op::ColMax(a, _)
            | Op::ColLse(a)
            | Op::LseAll(a)
            | Op::LogSoftmaxRows(a)
            | Op::SoftmaxRows(a)
            | Op::Unfold { src: a, .. }
            | Op::GatherRows(a, _)
            | Op::GatherSum(a, _)
            | Op::Reshape(a) => f(*a),
            Op::ConcatCols(v) | Op::ConcatRows(v) => v.iter().for_each(|&p| f(p)),
        }
    }

    /// The trainable parameter leaves among the node's parents, for an op
    /// whose contributions to them a segmented replay can split by rows: a
    /// gather from a parameter, a matmul by one on the right, or a
    /// broadcast add of one. Panics on any other op with a parameter
    /// parent, which a segmented call must not record.
    fn param_parents(&self, ops: &[Op]) -> [Option<usize>; 2] {
        let param = |p: usize| matches!(ops[p], Op::Leaf(Some(_))).then_some(p);
        match self {
            Op::GatherRows(a, _) => [param(*a), None],
            Op::MatMul(a, b) if param(*a).is_none() => [param(*b), None],
            Op::Add(a, b) => [param(*a), param(*b)],
            op => {
                op.visit_parents(|p| {
                    assert!(
                        param(p).is_none(),
                        "a segmented call recorded an op that adds into a parameter by a \
                         rule it cannot split by rows: {op:?}"
                    );
                });
                [None, None]
            }
        }
    }
}

/// Rows attributed to segments, as `(key, rows)` runs in row order.
type Runs = Rc<[(usize, Range<usize>)]>;

/// An op whose contributions to parameter gradients are replayed per
/// segment: its node and its output rows' runs.
struct SegmentedOp {
    node: usize,
    runs: Runs,
}

/// The ops of one outermost [`Exec::segmented`] call of more than one
/// segment that add into a parameter's gradient.
struct SegmentGroup {
    /// The group's first node: the sweep replays the group once it has
    /// passed it.
    start: usize,
    ops: Vec<SegmentedOp>,
}

/// A tape's [`Exec::segmented`] bookkeeping.
#[derive(Default)]
struct Segments {
    /// Nesting depth of the `segmented` calls running now.
    depth: usize,
    /// The group being recorded: `None` outside any call and inside a
    /// group of one segment, whose contributions the sweep adds as usual.
    open: Option<SegmentGroup>,
    /// The innermost call's rows as `(key, rows)` runs, inside an open
    /// group.
    current: Option<Runs>,
    /// Closed groups, in tape order.
    groups: Vec<SegmentGroup>,
}

/// `keys` as `(key, rows)` runs of equal consecutive keys.
fn runs_of(keys: &[usize]) -> Runs {
    let mut runs: Vec<(usize, Range<usize>)> = Vec::new();
    for (r, &key) in keys.iter().enumerate() {
        match runs.last_mut() {
            Some((last, rows)) if *last == key => rows.end = r + 1,
            _ => runs.push((key, r..r + 1)),
        }
    }
    runs.into()
}

/// A single-use reverse-mode autodiff tape.
pub struct Graph {
    /// Node `i`'s value.
    arena: Arena,
    /// Node `i`'s op.
    ops: RefCell<Vec<Op>>,
    frozen_stores: RefCell<HashSet<u64>>,
    segments: RefCell<Segments>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

// Graphs are built and dropped once per forward pass — thousands of times
// per meta-iteration — so dropped tapes park their (cleared) node storage in
// a small thread-local free list and `Graph::new` reclaims it, capacity
// intact, instead of reallocating from 256 nodes every episode.
const NODE_POOL_KEEP: usize = 8;

thread_local! {
    static NODE_POOL: RefCell<Vec<(Vec<Slot>, Vec<Op>)>> = const { RefCell::new(Vec::new()) };
}

impl Drop for Graph {
    fn drop(&mut self) {
        let mut slots = std::mem::take(self.arena.slots.get_mut());
        let mut ops = std::mem::take(self.ops.get_mut());
        slots.clear();
        ops.clear();
        NODE_POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < NODE_POOL_KEEP {
                pool.push((slots, ops));
            }
        });
    }
}

impl Backend for Graph {
    fn arena(&self) -> &Arena {
        &self.arena
    }

    fn alloc(&self, rows: usize, cols: usize) -> Array {
        Array::zeros(rows, cols)
    }

    /// Records `op` beside the value; a parameter of a frozen store is
    /// recorded as a constant leaf. Inside a segmented group, an op that
    /// adds into a parameter's gradient is also noted with its rows'
    /// segments.
    fn push(&self, slot: Slot, op: impl FnOnce() -> Op) -> Var {
        let op = match op() {
            Op::Leaf(Some(id)) if self.frozen_stores.borrow().contains(&id.store) => Op::Leaf(None),
            op => op,
        };
        let mut ops = self.ops.borrow_mut();
        let mut segments = self.segments.borrow_mut();
        let segments = &mut *segments;
        if let (Some(group), Some(runs)) = (&mut segments.open, &segments.current) {
            if op.param_parents(&ops).iter().any(Option::is_some) {
                let rows = slot.array().rows();
                assert_eq!(
                    runs.last().map_or(0, |(_, r)| r.end),
                    rows,
                    "segmented {op:?}: the keys must cover its {rows} rows"
                );
                group.ops.push(SegmentedOp {
                    node: ops.len(),
                    runs: Rc::clone(runs),
                });
            }
        }
        ops.push(op);
        drop(ops);
        self.arena.push(slot)
    }

    fn freeze_store(&self, store: &ParamStore) {
        self.frozen_stores.borrow_mut().insert(store.id());
    }

    fn scope<V: AsMut<[Var]>>(&self, f: impl FnOnce() -> V) -> V {
        f()
    }

    fn segment_scope<R>(&self, keys: &[usize], f: impl FnOnce() -> R) -> R {
        let outer = {
            let mut segments = self.segments.borrow_mut();
            if segments.depth == 0 && keys.windows(2).any(|w| w[0] != w[1]) {
                segments.open = Some(SegmentGroup {
                    start: self.len(),
                    ops: Vec::new(),
                });
            }
            segments.depth += 1;
            let runs = segments.open.is_some().then(|| runs_of(keys));
            std::mem::replace(&mut segments.current, runs)
        };
        let out = f();
        let mut segments = self.segments.borrow_mut();
        segments.current = outer;
        segments.depth -= 1;
        if segments.depth == 0 {
            if let Some(group) = segments.open.take().filter(|g| !g.ops.is_empty()) {
                segments.groups.push(group);
            }
        }
        out
    }
}

impl Graph {
    /// Creates an empty tape in [`ExecMode::Train`] (dropout active).
    ///
    /// Tape storage is recycled from previously dropped graphs on the same
    /// thread, so steady-state training does not pay a per-episode
    /// reallocation of the node vectors.
    pub fn new() -> Graph {
        Graph::with_mode(ExecMode::Train)
    }

    /// Creates an empty tape in [`ExecMode::Eval`] (dropout is identity).
    ///
    /// Gradients remain fully available — this is the executor for
    /// dropout-free adaptation losses (FEWNER's inner loop differentiates a
    /// deterministic support loss).
    pub fn eval() -> Graph {
        Graph::with_mode(ExecMode::Eval)
    }

    fn with_mode(mode: ExecMode) -> Graph {
        let (slots, ops) = NODE_POOL
            .with(|pool| pool.borrow_mut().pop())
            .unwrap_or_else(|| (Vec::with_capacity(256), Vec::with_capacity(256)));
        Graph {
            arena: Arena::new(slots, mode),
            ops: RefCell::new(ops),
            frozen_stores: RefCell::new(HashSet::new()),
            segments: RefCell::new(Segments::default()),
        }
    }

    /// Node capacity currently reserved by the tape (diagnostics / tests).
    pub fn capacity(&self) -> usize {
        self.ops.borrow().capacity()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.ops.borrow().len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.borrow().is_empty()
    }

    /// Binds a parameter ([`Exec::param`]), callable without importing
    /// [`Exec`].
    pub fn param(&self, store: &ParamStore, id: ParamId) -> Var {
        Exec::param(self, store, id)
    }

    /// Reverse sweep from `loss` (which must be `[1, 1]` and finite).
    ///
    /// Returns per-node gradients plus the bookkeeping needed to extract
    /// per-store parameter gradients. A segmented group's contributions to
    /// parameter leaves are replayed when the sweep leaves the group (see
    /// the [module docs](self)); every other contribution is added as the
    /// sweep reaches its op.
    pub fn backward(&self, loss: Var) -> Result<Gradients> {
        let slots = self.arena.slots.borrow();
        let ops = self.ops.borrow();
        let segments = self.segments.borrow();
        assert_eq!(segments.depth, 0, "backward inside a segmented call");
        let loss_value = slots[loss.0].array();
        assert_eq!(loss_value.shape(), (1, 1), "backward from non-scalar loss");
        if !loss_value.all_finite() {
            return Err(Error::NonFinite {
                context: "loss before backward".to_string(),
            });
        }

        // Which nodes need gradients? A node needs one iff it is a parameter
        // leaf or any ancestor path reaches one. Constants and pure-input
        // subtrees are skipped entirely.
        let mut needs = vec![false; ops.len()];
        let mut parents = Vec::with_capacity(4);
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Leaf(Some(_)) => needs[i] = true,
                Op::Leaf(None) => {}
                op => {
                    op.parents(&mut parents);
                    needs[i] = parents.iter().any(|&p| needs[p]);
                }
            }
        }

        let mut grads: Vec<Option<Array>> = vec![None; ops.len()];
        grads[loss.0] = Some(Array::scalar(1.0));

        let groups = &segments.groups;
        let held: Vec<usize> = groups
            .iter()
            .flat_map(|g| g.ops.iter().map(|op| op.node))
            .collect();
        let (mut next_group, mut next_held) = (groups.len(), held.len());
        for i in (0..ops.len()).rev() {
            while next_group > 0 && groups[next_group - 1].start > i {
                next_group -= 1;
                Self::replay(&ops, &slots, &groups[next_group], &mut grads);
            }
            let hold = next_held > 0 && held[next_held - 1] == i;
            if hold {
                next_held -= 1;
            }
            if !needs[i] {
                continue;
            }
            let Some(grad) = grads[i].take() else {
                continue;
            };
            // Leaves keep their gradient for extraction.
            if matches!(ops[i], Op::Leaf(_)) {
                grads[i] = Some(grad);
                continue;
            }
            if hold {
                // The parameter parents wait for their group's replay.
                let params = ops[i].param_parents(&ops);
                params.iter().flatten().for_each(|&p| needs[p] = false);
                Self::backprop_op(&ops, &slots, i, &grad, &needs, &mut grads);
                params.iter().flatten().for_each(|&p| needs[p] = true);
            } else {
                Self::backprop_op(&ops, &slots, i, &grad, &needs, &mut grads);
            }
            grads[i] = Some(grad);
        }
        for group in groups[..next_group].iter().rev() {
            Self::replay(&ops, &slots, group, &mut grads);
        }

        Ok(Gradients {
            grads,
            bound: self.arena.bound.borrow().clone(),
        })
    }

    /// Adds a segmented group's held-back contributions into its parameter
    /// leaves: by segment, the highest key first, and within a segment the
    /// last op first, each run of rows with the kernel the sweep would have
    /// run on it.
    fn replay(ops: &[Op], slots: &[Slot], group: &SegmentGroup, grads: &mut [Option<Array>]) {
        let mut adds: Vec<(usize, usize, Range<usize>, usize)> = Vec::new();
        for op in group.ops.iter().filter(|op| grads[op.node].is_some()) {
            for p in ops[op.node].param_parents(ops).into_iter().flatten() {
                for (key, rows) in op.runs.iter() {
                    adds.push((*key, op.node, rows.clone(), p));
                }
            }
        }
        // Stable: one op's runs of one key keep their row order.
        adds.sort_by_key(|&(key, node, ..)| Reverse((key, node)));
        for (_, node, rows, p) in adds {
            let mut into = grads[p].take().unwrap_or_else(|| {
                let (r, c) = slots[p].array().shape();
                Array::zeros(r, c)
            });
            let grad = grads[node].as_ref().expect("held ops have a gradient");
            match &ops[node] {
                Op::GatherRows(_, indices) => {
                    for r in rows {
                        for (o, &g) in into.row_mut(indices[r]).iter_mut().zip(grad.row(r)) {
                            *o += g;
                        }
                    }
                }
                Op::MatMul(a, _) => matmul_at_b(slots[*a].array(), grad, rows, &mut into),
                Op::Add(..) => kernels::reduce_rows_into(grad, rows, &mut into),
                op => unreachable!("{op:?} is never held back"),
            }
            grads[p] = Some(into);
        }
    }

    /// Applies node `i`'s vector-Jacobian product, accumulating into parents.
    #[allow(clippy::too_many_lines)]
    fn backprop_op(
        ops: &[Op],
        slots: &[Slot],
        i: usize,
        grad: &Array,
        needs: &[bool],
        grads: &mut [Option<Array>],
    ) {
        let val = |n: usize| slots[n].array();
        let ensure = |grads: &mut [Option<Array>], idx: usize, shape: (usize, usize)| {
            if grads[idx].is_none() {
                grads[idx] = Some(Array::zeros(shape.0, shape.1));
            }
        };
        match &ops[i] {
            Op::Leaf(_) => {}
            Op::Add(a, b) => {
                for &p in &[*a, *b] {
                    if needs[p] {
                        ensure(grads, p, val(p).shape());
                        kernels::reduce_into(grad, grads[p].as_mut().unwrap());
                    }
                }
            }
            Op::Sub(a, b) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    kernels::reduce_into(grad, grads[*a].as_mut().unwrap());
                }
                if needs[*b] {
                    ensure(grads, *b, val(*b).shape());
                    let neg = grad.map(|x| -x);
                    kernels::reduce_into(&neg, grads[*b].as_mut().unwrap());
                }
            }
            Op::Mul(a, b) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    kernels::reduce_mul_into(grad, val(*b), grads[*a].as_mut().unwrap());
                }
                if needs[*b] {
                    ensure(grads, *b, val(*b).shape());
                    kernels::reduce_mul_into(grad, val(*a), grads[*b].as_mut().unwrap());
                }
            }
            Op::AddScalar(a) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    grads[*a].as_mut().unwrap().axpy(1.0, grad);
                }
            }
            Op::MulScalar(a, c) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    grads[*a].as_mut().unwrap().axpy(*c, grad);
                }
            }
            Op::MatMul(a, b) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    matmul_a_bt(grad, val(*b), grads[*a].as_mut().unwrap());
                }
                if needs[*b] {
                    ensure(grads, *b, val(*b).shape());
                    matmul_at_b(val(*a), grad, 0..grad.rows(), grads[*b].as_mut().unwrap());
                }
            }
            Op::Transpose(a) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    grads[*a].as_mut().unwrap().axpy(1.0, &grad.transpose());
                }
            }
            Op::Sigmoid(a) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    let y = val(i);
                    let ga = grads[*a].as_mut().unwrap();
                    for ((g, &yv), o) in grad.data().iter().zip(y.data()).zip(ga.data_mut()) {
                        *o += g * yv * (1.0 - yv);
                    }
                }
            }
            Op::Tanh(a) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    let y = val(i);
                    let ga = grads[*a].as_mut().unwrap();
                    for ((g, &yv), o) in grad.data().iter().zip(y.data()).zip(ga.data_mut()) {
                        *o += g * (1.0 - yv * yv);
                    }
                }
            }
            Op::Relu(a) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    let x = val(*a);
                    let ga = grads[*a].as_mut().unwrap();
                    for ((g, &xv), o) in grad.data().iter().zip(x.data()).zip(ga.data_mut()) {
                        if xv > 0.0 {
                            *o += g;
                        }
                    }
                }
            }
            Op::ConcatCols(parts) => {
                let mut offset = 0;
                for &p in parts {
                    let cols = val(p).cols();
                    if needs[p] {
                        ensure(grads, p, val(p).shape());
                        let gp = grads[p].as_mut().unwrap();
                        for r in 0..grad.rows() {
                            for (o, &g) in gp
                                .row_mut(r)
                                .iter_mut()
                                .zip(&grad.row(r)[offset..offset + cols])
                            {
                                *o += g;
                            }
                        }
                    }
                    offset += cols;
                }
            }
            Op::ConcatRows(parts) => {
                let mut offset = 0;
                for &p in parts {
                    let rows = val(p).rows();
                    if needs[p] {
                        ensure(grads, p, val(p).shape());
                        let gp = grads[p].as_mut().unwrap();
                        for r in 0..rows {
                            for (o, &g) in gp.row_mut(r).iter_mut().zip(grad.row(offset + r)) {
                                *o += g;
                            }
                        }
                    }
                    offset += rows;
                }
            }
            Op::Row(a, r) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    let ga = grads[*a].as_mut().unwrap();
                    for (o, &g) in ga.row_mut(*r).iter_mut().zip(grad.row(0)) {
                        *o += g;
                    }
                }
            }
            Op::SliceCols { src, start, len } => {
                if needs[*src] {
                    ensure(grads, *src, val(*src).shape());
                    let gs = grads[*src].as_mut().unwrap();
                    for r in 0..grad.rows() {
                        for (o, &g) in gs.row_mut(r)[*start..*start + *len]
                            .iter_mut()
                            .zip(grad.row(r))
                        {
                            *o += g;
                        }
                    }
                }
            }
            Op::SumAll(a) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    let g = grad.scalar_value();
                    for o in grads[*a].as_mut().unwrap().data_mut() {
                        *o += g;
                    }
                }
            }
            Op::MeanAll(a) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    let n = val(*a).len() as f32;
                    let g = grad.scalar_value() / n;
                    for o in grads[*a].as_mut().unwrap().data_mut() {
                        *o += g;
                    }
                }
            }
            Op::ColSum(a) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    let ga = grads[*a].as_mut().unwrap();
                    for r in 0..ga.rows() {
                        for (o, &g) in ga.row_mut(r).iter_mut().zip(grad.row(0)) {
                            *o += g;
                        }
                    }
                }
            }
            Op::RowSum(a) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    let ga = grads[*a].as_mut().unwrap();
                    for r in 0..ga.rows() {
                        let g = grad.at(r, 0);
                        for o in ga.row_mut(r) {
                            *o += g;
                        }
                    }
                }
            }
            Op::ColMax(a, arg) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    // Output element `e` (segment `e / c`, column `e % c`)
                    // came from row `arg[e]` of its column.
                    let ga = grads[*a].as_mut().unwrap();
                    let c = ga.cols();
                    for (e, (&src_row, &g)) in arg.iter().zip(grad.data()).enumerate() {
                        *ga.at_mut(src_row, e % c) += g;
                    }
                }
            }
            Op::ColLse(a) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    let x = val(*a);
                    let y = val(i);
                    let ga = grads[*a].as_mut().unwrap();
                    for r in 0..x.rows() {
                        for j in 0..x.cols() {
                            let w = (x.at(r, j) - y.at(0, j)).exp();
                            *ga.at_mut(r, j) += grad.at(0, j) * w;
                        }
                    }
                }
            }
            Op::LseAll(a) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    let x = val(*a);
                    let y = val(i).scalar_value();
                    let g = grad.scalar_value();
                    let ga = grads[*a].as_mut().unwrap();
                    for (o, &xv) in ga.data_mut().iter_mut().zip(x.data()) {
                        *o += g * (xv - y).exp();
                    }
                }
            }
            Op::LogSoftmaxRows(a) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    let y = val(i);
                    let ga = grads[*a].as_mut().unwrap();
                    for r in 0..y.rows() {
                        let gsum: f32 = grad.row(r).iter().sum();
                        for (j, o) in ga.row_mut(r).iter_mut().enumerate() {
                            *o += grad.at(r, j) - y.at(r, j).exp() * gsum;
                        }
                    }
                }
            }
            Op::SoftmaxRows(a) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    let y = val(i);
                    let ga = grads[*a].as_mut().unwrap();
                    for r in 0..y.rows() {
                        let dot: f32 = grad
                            .row(r)
                            .iter()
                            .zip(y.row(r))
                            .map(|(&g, &yv)| g * yv)
                            .sum();
                        for (j, o) in ga.row_mut(r).iter_mut().enumerate() {
                            *o += y.at(r, j) * (grad.at(r, j) - dot);
                        }
                    }
                }
            }
            Op::Unfold { src, k, segments } => {
                if needs[*src] {
                    ensure(grads, *src, val(*src).shape());
                    kernels::unfold_backward(grad, *k, segments, grads[*src].as_mut().unwrap());
                }
            }
            Op::GatherRows(a, indices) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    let ga = grads[*a].as_mut().unwrap();
                    for (r, &idx) in indices.iter().enumerate() {
                        for (o, &g) in ga.row_mut(idx).iter_mut().zip(grad.row(r)) {
                            *o += g;
                        }
                    }
                }
            }
            Op::Reshape(a) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    let ga = grads[*a].as_mut().unwrap();
                    for (o, &g) in ga.data_mut().iter_mut().zip(grad.data()) {
                        *o += g;
                    }
                }
            }
            Op::GatherSum(a, coords) => {
                if needs[*a] {
                    ensure(grads, *a, val(*a).shape());
                    let g = grad.scalar_value();
                    let ga = grads[*a].as_mut().unwrap();
                    for &(r, c) in coords {
                        *ga.at_mut(r, c) += g;
                    }
                }
            }
        }
    }
}

/// The result of a backward sweep.
pub struct Gradients {
    grads: Vec<Option<Array>>,
    bound: HashMap<ParamId, Var>,
}

impl Gradients {
    /// Gradient of the loss with respect to a node, if it was computed.
    pub fn wrt(&self, v: Var) -> Option<&Array> {
        self.grads[v.0].as_ref()
    }

    /// Extracts the gradients belonging to one parameter store.
    pub fn for_store(&self, store: &ParamStore) -> ParamGrads {
        let mut out = ParamGrads::new_raw(store.id(), store.len());
        for (id, var) in &self.bound {
            if id.store == store.id() {
                if let Some(g) = &self.grads[var.0] {
                    out.accumulate(id.index, g);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fewner_util::Rng;

    fn store_with(name: &str, arr: Array) -> (ParamStore, ParamId) {
        let mut s = ParamStore::new();
        let id = s.add(name, arr);
        (s, id)
    }

    #[test]
    fn simple_chain_gradient() {
        // loss = sum((w * 3) + 1) for w = [1, 2]; dloss/dw = [3, 3].
        let (store, id) = store_with("w", Array::from_vec(1, 2, vec![1.0, 2.0]));
        let g = Graph::new();
        let w = g.param(&store, id);
        let loss = g.sum_all(g.add_scalar(g.mul_scalar(w, 3.0), 1.0));
        assert_eq!(g.value(loss).scalar_value(), 11.0);
        let grads = g.backward(loss).unwrap();
        let pg = grads.for_store(&store);
        assert_eq!(pg.get(id).unwrap().data(), &[3.0, 3.0]);
    }

    #[test]
    fn matmul_gradient_matches_hand_derivation() {
        // loss = sum(a @ b). dA = 1 @ B^T, dB = A^T @ 1.
        let (mut store, ida) = store_with("a", Array::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let idb = store.add("b", Array::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let g = Graph::new();
        let a = g.param(&store, ida);
        let b = g.param(&store, idb);
        let loss = g.sum_all(g.matmul(a, b));
        let grads = g.backward(loss).unwrap();
        let pg = grads.for_store(&store);
        assert_eq!(pg.get(ida).unwrap().data(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(pg.get(idb).unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn reused_parameter_accumulates() {
        // loss = sum(w) + sum(w * w): dw = 1 + 2w.
        let (store, id) = store_with("w", Array::from_vec(1, 2, vec![2.0, -3.0]));
        let g = Graph::new();
        let w1 = g.param(&store, id);
        let w2 = g.param(&store, id);
        assert_eq!(w1, w2, "param binding is cached");
        let loss = g.add(g.sum_all(w1), g.sum_all(g.mul(w1, w1)));
        let grads = g.backward(loss).unwrap();
        let pg = grads.for_store(&store);
        assert_eq!(pg.get(id).unwrap().data(), &[5.0, -5.0]);
    }

    #[test]
    fn constants_receive_no_gradient() {
        let (store, id) = store_with("w", Array::scalar(2.0));
        let g = Graph::new();
        let w = g.param(&store, id);
        let c = g.constant(Array::scalar(10.0));
        let loss = g.sum_all(g.mul(w, c));
        let grads = g.backward(loss).unwrap();
        assert!(grads.wrt(c).is_none());
        assert_eq!(
            grads.for_store(&store).get(id).unwrap().scalar_value(),
            10.0
        );
    }

    #[test]
    fn two_stores_route_separately() {
        let (theta_store, wt) = store_with("theta", Array::scalar(3.0));
        let (phi_store, wp) = store_with("phi", Array::scalar(5.0));
        let g = Graph::new();
        let t = g.param(&theta_store, wt);
        let p = g.param(&phi_store, wp);
        let loss = g.sum_all(g.mul(t, p)); // d/dt = 5, d/dp = 3
        let grads = g.backward(loss).unwrap();
        assert_eq!(
            grads
                .for_store(&theta_store)
                .get(wt)
                .unwrap()
                .scalar_value(),
            5.0
        );
        assert_eq!(
            grads.for_store(&phi_store).get(wp).unwrap().scalar_value(),
            3.0
        );
    }

    #[test]
    fn non_finite_loss_is_an_error() {
        let (store, id) = store_with("w", Array::scalar(0.0));
        let g = Graph::new();
        let w = g.param(&store, id);
        let bad = g.mul(w, g.constant(Array::scalar(f32::NAN)));
        let loss = g.sum_all(bad);
        assert!(matches!(g.backward(loss), Err(Error::NonFinite { .. })));
    }

    #[test]
    fn gather_rows_scatters_gradient() {
        let (store, id) = store_with("emb", Array::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
        let g = Graph::new();
        let emb = g.param(&store, id);
        let x = g.gather_rows(emb, &[2, 0, 2]);
        assert_eq!(g.value(x).data(), &[5., 6., 1., 2., 5., 6.]);
        let loss = g.sum_all(x);
        let grads = g.backward(loss).unwrap();
        let pg = grads.for_store(&store);
        // Row 2 gathered twice, row 0 once, row 1 never.
        assert_eq!(pg.get(id).unwrap().data(), &[1., 1., 0., 0., 2., 2.]);
    }

    #[test]
    fn dropout_eval_mode_is_identity() {
        let g = Graph::eval();
        let mut rng = Rng::new(3);
        assert!(g.dropout_mask(1, 4, 0.5, &mut rng).is_none());
    }

    #[test]
    fn dropout_train_mode_preserves_expectation() {
        let mut rng = Rng::new(4);
        let g = Graph::new();
        assert_eq!(g.mode(), ExecMode::Train);
        let mask = g.dropout_mask(1, 1000, 0.3, &mut rng).unwrap();
        let mean = mask.sum() / 1000.0;
        assert!((mean - 1.0).abs() < 0.1, "inverted dropout mean {mean}");
    }

    #[test]
    fn eval_mode_tape_still_computes_gradients() {
        let (store, id) = store_with("w", Array::from_vec(1, 2, vec![1.0, 2.0]));
        let g = Graph::eval();
        let w = g.param(&store, id);
        let loss = g.sum_all(g.mul_scalar(w, 3.0));
        let grads = g.backward(loss).unwrap().for_store(&store);
        assert_eq!(grads.get(id).unwrap().data(), &[3.0, 3.0]);
    }

    #[test]
    fn dropped_tapes_donate_their_capacity() {
        let cap = {
            let g = Graph::new();
            for _ in 0..600 {
                g.constant(Array::scalar(1.0));
            }
            g.capacity()
        };
        assert!(cap >= 600);
        // The next tape on this thread starts from the recycled storage.
        let g = Graph::new();
        assert!(
            g.capacity() >= cap,
            "fresh tape capacity {} below recycled {cap}",
            g.capacity()
        );
        assert!(g.is_empty(), "recycled tape must start empty");
    }
}
