//! Define-by-run reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a tape: every builder method evaluates its result eagerly
//! and records the operation, so construction order is already a topological
//! order and [`Graph::backward`] is a single reverse sweep. One graph is
//! built per forward pass (per task batch) and dropped afterwards.
//!
//! Parameters are *bound* into a graph from one or more [`ParamStore`]s via
//! [`Graph::param`]; leaves share the store's tensor (`Arc`, zero copy) and
//! the backward sweep routes their gradients into per-store accumulators.
//! This is what makes the paper's θ/φ split natural: FEWNER's inner loop
//! asks only for φ's store gradients, the outer loop only for θ's.
//!
//! # Shape errors
//!
//! Builder methods panic on incompatible shapes with a descriptive message.
//! Model architectures fix all shapes at construction time, so a mismatch
//! here is a programming error, not a recoverable condition; the fallible
//! `Result` surface lives on [`Array`] and on the high-level training APIs.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use fewner_util::{Error, Result, Rng};

// The forward kernels are the ones `Infer` runs too, so both executors'
// values are bitwise identical; the backward pass adds the transposed
// matmuls and the broadcast reductions.
use crate::array::{matmul_a_bt, matmul_at_b, matmul_into, Array};
use crate::exec::{Exec, ExecMode};
use crate::kernels;
use crate::params::{ParamGrads, ParamId, ParamStore};

pub use crate::exec::Var;

#[derive(Debug)]
enum Op {
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
    ColMax(usize, Vec<usize>),
    ColLse(usize),
    LseAll(usize),
    LogSoftmaxRows(usize),
    SoftmaxRows(usize),
    Unfold {
        src: usize,
        k: usize,
    },
    GatherRows(usize, Vec<usize>),
    GatherSum(usize, Vec<(usize, usize)>),
    Reshape(usize),
}

impl Op {
    /// Parents of the node, for the needs-gradient sweep.
    fn parents(&self, out: &mut Vec<usize>) {
        out.clear();
        match self {
            Op::Leaf(_) => {}
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::MatMul(a, b) => {
                out.push(*a);
                out.push(*b);
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
            | Op::Reshape(a) => out.push(*a),
            Op::ConcatCols(v) | Op::ConcatRows(v) => out.extend_from_slice(v),
        }
    }
}

struct Node {
    op: Op,
    value: Arc<Array>,
}

/// A single-use reverse-mode autodiff tape.
pub struct Graph {
    nodes: RefCell<Vec<Node>>,
    bound_params: RefCell<HashMap<ParamId, Var>>,
    frozen_stores: RefCell<std::collections::HashSet<u64>>,
    mode: ExecMode,
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
    static NODE_POOL: RefCell<Vec<Vec<Node>>> = const { RefCell::new(Vec::new()) };
}

fn recycled_nodes() -> Vec<Node> {
    NODE_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_else(|| Vec::with_capacity(256))
}

impl Drop for Graph {
    fn drop(&mut self) {
        let mut nodes = std::mem::take(self.nodes.get_mut());
        nodes.clear();
        NODE_POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < NODE_POOL_KEEP {
                pool.push(nodes);
            }
        });
    }
}

impl Graph {
    /// Creates an empty tape in [`ExecMode::Train`] (dropout active).
    ///
    /// Tape storage is recycled from previously dropped graphs on the same
    /// thread, so steady-state training does not pay a per-episode
    /// reallocation of the node vector.
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
        Graph {
            nodes: RefCell::new(recycled_nodes()),
            bound_params: RefCell::new(HashMap::new()),
            frozen_stores: RefCell::new(std::collections::HashSet::new()),
            mode,
        }
    }

    /// Whether dropout is active on this tape.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Node capacity currently reserved by the tape (diagnostics / tests).
    pub fn capacity(&self) -> usize {
        self.nodes.borrow().capacity()
    }

    fn push(&self, op: Op, value: Array) -> Var {
        self.push_shared(op, Arc::new(value))
    }

    fn push_shared(&self, op: Op, value: Arc<Array>) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { op, value });
        Var(nodes.len() - 1)
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// The current value of a node (cheap `Arc` clone).
    pub fn value(&self, v: Var) -> Arc<Array> {
        Arc::clone(&self.nodes.borrow()[v.0].value)
    }

    /// Shape of a node's value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes.borrow()[v.0].value.shape()
    }

    /// Inserts a constant (no gradient will flow into it).
    pub fn constant(&self, value: Array) -> Var {
        self.push(Op::Leaf(None), value)
    }

    /// Inserts a 1×1 constant.
    pub fn scalar(&self, value: f32) -> Var {
        self.constant(Array::scalar(value))
    }

    /// Binds a parameter from a store; repeated binds return the same node
    /// so gradient contributions accumulate on one leaf. Parameters of a
    /// store frozen with [`Graph::freeze`] are bound as constants.
    pub fn param(&self, store: &ParamStore, id: ParamId) -> Var {
        if let Some(&v) = self.bound_params.borrow().get(&id) {
            return v;
        }
        let frozen = self.frozen_stores.borrow().contains(&id.store);
        let op = if frozen {
            Op::Leaf(None)
        } else {
            Op::Leaf(Some(id))
        };
        let v = self.push_shared(op, Arc::clone(store.value(id)));
        self.bound_params.borrow_mut().insert(id, v);
        v
    }

    /// Marks a store's parameters as frozen: subsequent binds via
    /// [`Graph::param`] become constants (no gradients computed — the cheap
    /// way to run a pre-trained encoder under a trainable head).
    pub fn freeze(&self, store: &ParamStore) {
        self.frozen_stores.borrow_mut().insert(store.id());
    }

    fn binary_shapes(&self, a: Var, b: Var) -> ((usize, usize), (usize, usize)) {
        let nodes = self.nodes.borrow();
        (nodes[a.0].value.shape(), nodes[b.0].value.shape())
    }

    /// Elementwise (broadcasting) addition.
    pub fn add(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            kernels::bcast_zip(&nodes[a.0].value, &nodes[b.0].value, "add", |x, y| x + y)
        };
        self.push(Op::Add(a.0, b.0), value)
    }

    /// Elementwise (broadcasting) subtraction.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            kernels::bcast_zip(&nodes[a.0].value, &nodes[b.0].value, "sub", |x, y| x - y)
        };
        self.push(Op::Sub(a.0, b.0), value)
    }

    /// Elementwise (broadcasting) multiplication.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            kernels::bcast_zip(&nodes[a.0].value, &nodes[b.0].value, "mul", |x, y| x * y)
        };
        self.push(Op::Mul(a.0, b.0), value)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, a: Var, c: f32) -> Var {
        let value = self.nodes.borrow()[a.0].value.map(|x| x + c);
        self.push(Op::AddScalar(a.0), value)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, a: Var, c: f32) -> Var {
        let value = self.nodes.borrow()[a.0].value.map(|x| x * c);
        self.push(Op::MulScalar(a.0, c), value)
    }

    /// Negation.
    pub fn neg(&self, a: Var) -> Var {
        self.mul_scalar(a, -1.0)
    }

    /// `1 − a`, elementwise (GRU update gate complement).
    pub fn one_minus(&self, a: Var) -> Var {
        self.add_scalar(self.mul_scalar(a, -1.0), 1.0)
    }

    /// Matrix product.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let (sa, sb) = self.binary_shapes(a, b);
        assert_eq!(
            sa.1, sb.0,
            "matmul: [{}, {}] x [{}, {}]",
            sa.0, sa.1, sb.0, sb.1
        );
        let value = {
            let nodes = self.nodes.borrow();
            let mut out = Array::zeros(sa.0, sb.1);
            matmul_into(&nodes[a.0].value, &nodes[b.0].value, &mut out, true);
            out
        };
        self.push(Op::MatMul(a.0, b.0), value)
    }

    /// Transpose.
    pub fn transpose(&self, a: Var) -> Var {
        let value = self.nodes.borrow()[a.0].value.transpose();
        self.push(Op::Transpose(a.0), value)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        let value = self.nodes.borrow()[a.0]
            .value
            .map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(Op::Sigmoid(a.0), value)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        let value = self.nodes.borrow()[a.0].value.map(f32::tanh);
        self.push(Op::Tanh(a.0), value)
    }

    /// Rectified linear unit.
    pub fn relu(&self, a: Var) -> Var {
        let value = self.nodes.borrow()[a.0].value.map(|x| x.max(0.0));
        self.push(Op::Relu(a.0), value)
    }

    /// Concatenates along columns: `[r, c1] ++ [r, c2] … → [r, Σci]`.
    pub fn concat_cols(&self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of zero parts");
        let value = {
            let nodes = self.nodes.borrow();
            let rows = nodes[parts[0].0].value.rows();
            let total: usize = parts.iter().map(|p| nodes[p.0].value.cols()).sum();
            let mut out = Array::zeros(rows, total);
            let mut offset = 0;
            for p in parts {
                let a = &nodes[p.0].value;
                assert_eq!(a.rows(), rows, "concat_cols: row mismatch");
                for r in 0..rows {
                    out.row_mut(r)[offset..offset + a.cols()].copy_from_slice(a.row(r));
                }
                offset += a.cols();
            }
            out
        };
        self.push(Op::ConcatCols(parts.iter().map(|p| p.0).collect()), value)
    }

    /// Stacks along rows: `[r1, c] ++ [r2, c] … → [Σri, c]`.
    pub fn concat_rows(&self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows of zero parts");
        let value = {
            let nodes = self.nodes.borrow();
            let cols = nodes[parts[0].0].value.cols();
            let total: usize = parts.iter().map(|p| nodes[p.0].value.rows()).sum();
            let mut out = Array::zeros(total, cols);
            let mut offset = 0;
            for p in parts {
                let a = &nodes[p.0].value;
                assert_eq!(a.cols(), cols, "concat_rows: col mismatch");
                for r in 0..a.rows() {
                    out.row_mut(offset + r).copy_from_slice(a.row(r));
                }
                offset += a.rows();
            }
            out
        };
        self.push(Op::ConcatRows(parts.iter().map(|p| p.0).collect()), value)
    }

    /// Extracts row `i` as a `[1, c]` node.
    pub fn row(&self, a: Var, i: usize) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let src = &nodes[a.0].value;
            assert!(i < src.rows(), "row {i} of {} rows", src.rows());
            Array::from_vec(1, src.cols(), src.row(i).to_vec())
        };
        self.push(Op::Row(a.0, i), value)
    }

    /// Extracts columns `start..start+len`.
    pub fn slice_cols(&self, a: Var, start: usize, len: usize) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let src = &nodes[a.0].value;
            assert!(start + len <= src.cols(), "slice_cols out of range");
            let mut out = Array::zeros(src.rows(), len);
            for r in 0..src.rows() {
                out.row_mut(r)
                    .copy_from_slice(&src.row(r)[start..start + len]);
            }
            out
        };
        self.push(
            Op::SliceCols {
                src: a.0,
                start,
                len,
            },
            value,
        )
    }

    /// Sum of all elements → `[1, 1]`.
    pub fn sum_all(&self, a: Var) -> Var {
        let value = Array::scalar(self.nodes.borrow()[a.0].value.sum());
        self.push(Op::SumAll(a.0), value)
    }

    /// Mean of all elements → `[1, 1]`.
    pub fn mean_all(&self, a: Var) -> Var {
        let nodes_len = self.nodes.borrow()[a.0].value.len();
        let value = Array::scalar(self.nodes.borrow()[a.0].value.sum() / nodes_len as f32);
        self.push(Op::MeanAll(a.0), value)
    }

    /// Column sums: `[r, c] → [1, c]`.
    pub fn col_sum(&self, a: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let src = &nodes[a.0].value;
            let mut out = Array::zeros(1, src.cols());
            for r in 0..src.rows() {
                for (o, &v) in out.row_mut(0).iter_mut().zip(src.row(r)) {
                    *o += v;
                }
            }
            out
        };
        self.push(Op::ColSum(a.0), value)
    }

    /// Row sums: `[r, c] → [r, 1]`.
    pub fn row_sum(&self, a: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let src = &nodes[a.0].value;
            let mut out = Array::zeros(src.rows(), 1);
            for r in 0..src.rows() {
                *out.at_mut(r, 0) = src.row(r).iter().sum();
            }
            out
        };
        self.push(Op::RowSum(a.0), value)
    }

    /// Column-wise max: `[r, c] → [1, c]` (used for CNN max-over-time pooling).
    pub fn col_max(&self, a: Var) -> Var {
        let (value, arg) = kernels::max_cols(&self.nodes.borrow()[a.0].value);
        self.push(Op::ColMax(a.0, arg), value)
    }

    /// Column-wise log-sum-exp: `[r, c] → [1, c]` (CRF forward recursion).
    pub fn col_lse(&self, a: Var) -> Var {
        let value = kernels::logsumexp_cols(&self.nodes.borrow()[a.0].value);
        self.push(Op::ColLse(a.0), value)
    }

    /// Log-sum-exp over all elements → `[1, 1]` (CRF partition function).
    pub fn lse_all(&self, a: Var) -> Var {
        let value = Array::scalar(kernels::logsumexp_all(&self.nodes.borrow()[a.0].value));
        self.push(Op::LseAll(a.0), value)
    }

    /// Row-wise log-softmax.
    pub fn log_softmax_rows(&self, a: Var) -> Var {
        let value = kernels::log_softmax_rows(&self.nodes.borrow()[a.0].value);
        self.push(Op::LogSoftmaxRows(a.0), value)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self, a: Var) -> Var {
        let value = kernels::softmax_rows(&self.nodes.borrow()[a.0].value);
        self.push(Op::SoftmaxRows(a.0), value)
    }

    /// Sliding-window unfold (im2col for 1-D convolution).
    pub fn unfold(&self, a: Var, k: usize) -> Var {
        let value = kernels::unfold(&self.nodes.borrow()[a.0].value, k);
        self.push(Op::Unfold { src: a.0, k }, value)
    }

    /// Gathers rows by index (embedding lookup): `[V, D] → [len(idx), D]`.
    pub fn gather_rows(&self, a: Var, indices: &[usize]) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let src = &nodes[a.0].value;
            let mut out = Array::zeros(indices.len(), src.cols());
            for (r, &i) in indices.iter().enumerate() {
                assert!(i < src.rows(), "gather_rows: index {i} of {}", src.rows());
                out.row_mut(r).copy_from_slice(src.row(i));
            }
            out
        };
        self.push(Op::GatherRows(a.0, indices.to_vec()), value)
    }

    /// Reinterprets the (row-major) data as a `rows × cols` matrix.
    pub fn reshape(&self, a: Var, rows: usize, cols: usize) -> Var {
        let value = {
            let src = &self.nodes.borrow()[a.0].value;
            assert_eq!(
                src.len(),
                rows * cols,
                "reshape {:?} to [{rows}, {cols}]",
                src.shape()
            );
            Array::from_vec(rows, cols, src.data().to_vec())
        };
        self.push(Op::Reshape(a.0), value)
    }

    /// Sum of selected entries → `[1, 1]` (CRF gold-path scoring).
    pub fn gather_sum(&self, a: Var, coords: &[(usize, usize)]) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let src = &nodes[a.0].value;
            let mut total = 0.0;
            for &(r, c) in coords {
                assert!(
                    r < src.rows() && c < src.cols(),
                    "gather_sum: ({r}, {c}) out of {:?}",
                    src.shape()
                );
                total += src.at(r, c);
            }
            Array::scalar(total)
        };
        self.push(Op::GatherSum(a.0, coords.to_vec()), value)
    }

    /// Inverted dropout. Identity unless the tape was built with
    /// [`Graph::new`] (train mode) and `rate > 0`.
    pub fn dropout(&self, a: Var, rate: f32, rng: &mut Rng) -> Var {
        Exec::dropout(self, a, rate, rng)
    }

    /// FiLM conditioning (paper Eq. 8): `γ ⊙ h + η` with `γ`, `η` `[1, D]`
    /// rows broadcast over `h`'s rows.
    pub fn film(&self, h: Var, gamma: Var, eta: Var) -> Var {
        self.add(self.mul(h, gamma), eta)
    }

    /// Mean over rows: `[r, c] → [1, c]` (prototype computation).
    pub fn row_mean(&self, a: Var) -> Var {
        let rows = self.shape(a).0;
        self.mul_scalar(self.col_sum(a), 1.0 / rows as f32)
    }

    /// Reverse sweep from `loss` (which must be `[1, 1]` and finite).
    ///
    /// Returns per-node gradients plus the bookkeeping needed to extract
    /// per-store parameter gradients.
    pub fn backward(&self, loss: Var) -> Result<Gradients> {
        let nodes = self.nodes.borrow();
        let loss_value = &nodes[loss.0].value;
        assert_eq!(loss_value.shape(), (1, 1), "backward from non-scalar loss");
        if !loss_value.all_finite() {
            return Err(Error::NonFinite {
                context: "loss before backward".to_string(),
            });
        }

        // Which nodes need gradients? A node needs one iff it is a parameter
        // leaf or any ancestor path reaches one. Constants and pure-input
        // subtrees are skipped entirely.
        let mut needs = vec![false; nodes.len()];
        let mut parents = Vec::with_capacity(4);
        for (i, node) in nodes.iter().enumerate() {
            match &node.op {
                Op::Leaf(Some(_)) => needs[i] = true,
                Op::Leaf(None) => {}
                op => {
                    op.parents(&mut parents);
                    needs[i] = parents.iter().any(|&p| needs[p]);
                }
            }
        }

        let mut grads: Vec<Option<Array>> = vec![None; nodes.len()];
        grads[loss.0] = Some(Array::scalar(1.0));

        for i in (0..nodes.len()).rev() {
            if !needs[i] {
                continue;
            }
            let Some(grad) = grads[i].take() else {
                continue;
            };
            // Leaves keep their gradient for extraction.
            if matches!(nodes[i].op, Op::Leaf(_)) {
                grads[i] = Some(grad);
                continue;
            }
            self.backprop_op(&nodes, i, &grad, &needs, &mut grads);
            grads[i] = Some(grad);
        }

        Ok(Gradients {
            grads,
            bound: self.bound_params.borrow().clone(),
        })
    }

    /// Applies one op's vector-Jacobian product, accumulating into parents.
    #[allow(clippy::too_many_lines)]
    fn backprop_op(
        &self,
        nodes: &[Node],
        i: usize,
        grad: &Array,
        needs: &[bool],
        grads: &mut [Option<Array>],
    ) {
        let ensure = |grads: &mut [Option<Array>], idx: usize, shape: (usize, usize)| {
            if grads[idx].is_none() {
                grads[idx] = Some(Array::zeros(shape.0, shape.1));
            }
        };
        match &nodes[i].op {
            Op::Leaf(_) => {}
            Op::Add(a, b) => {
                for &p in &[*a, *b] {
                    if needs[p] {
                        ensure(grads, p, nodes[p].value.shape());
                        kernels::reduce_into(grad, grads[p].as_mut().unwrap());
                    }
                }
            }
            Op::Sub(a, b) => {
                if needs[*a] {
                    ensure(grads, *a, nodes[*a].value.shape());
                    kernels::reduce_into(grad, grads[*a].as_mut().unwrap());
                }
                if needs[*b] {
                    ensure(grads, *b, nodes[*b].value.shape());
                    let neg = grad.map(|x| -x);
                    kernels::reduce_into(&neg, grads[*b].as_mut().unwrap());
                }
            }
            Op::Mul(a, b) => {
                if needs[*a] {
                    ensure(grads, *a, nodes[*a].value.shape());
                    kernels::reduce_mul_into(grad, &nodes[*b].value, grads[*a].as_mut().unwrap());
                }
                if needs[*b] {
                    ensure(grads, *b, nodes[*b].value.shape());
                    kernels::reduce_mul_into(grad, &nodes[*a].value, grads[*b].as_mut().unwrap());
                }
            }
            Op::AddScalar(a) => {
                if needs[*a] {
                    ensure(grads, *a, nodes[*a].value.shape());
                    grads[*a].as_mut().unwrap().axpy(1.0, grad);
                }
            }
            Op::MulScalar(a, c) => {
                if needs[*a] {
                    ensure(grads, *a, nodes[*a].value.shape());
                    grads[*a].as_mut().unwrap().axpy(*c, grad);
                }
            }
            Op::MatMul(a, b) => {
                if needs[*a] {
                    ensure(grads, *a, nodes[*a].value.shape());
                    matmul_a_bt(grad, &nodes[*b].value, grads[*a].as_mut().unwrap());
                }
                if needs[*b] {
                    ensure(grads, *b, nodes[*b].value.shape());
                    matmul_at_b(&nodes[*a].value, grad, grads[*b].as_mut().unwrap());
                }
            }
            Op::Transpose(a) => {
                if needs[*a] {
                    ensure(grads, *a, nodes[*a].value.shape());
                    grads[*a].as_mut().unwrap().axpy(1.0, &grad.transpose());
                }
            }
            Op::Sigmoid(a) => {
                if needs[*a] {
                    ensure(grads, *a, nodes[*a].value.shape());
                    let y = &nodes[i].value;
                    let ga = grads[*a].as_mut().unwrap();
                    for ((g, &yv), o) in grad.data().iter().zip(y.data()).zip(ga.data_mut()) {
                        *o += g * yv * (1.0 - yv);
                    }
                }
            }
            Op::Tanh(a) => {
                if needs[*a] {
                    ensure(grads, *a, nodes[*a].value.shape());
                    let y = &nodes[i].value;
                    let ga = grads[*a].as_mut().unwrap();
                    for ((g, &yv), o) in grad.data().iter().zip(y.data()).zip(ga.data_mut()) {
                        *o += g * (1.0 - yv * yv);
                    }
                }
            }
            Op::Relu(a) => {
                if needs[*a] {
                    ensure(grads, *a, nodes[*a].value.shape());
                    let x = &nodes[*a].value;
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
                    let cols = nodes[p].value.cols();
                    if needs[p] {
                        ensure(grads, p, nodes[p].value.shape());
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
                    let rows = nodes[p].value.rows();
                    if needs[p] {
                        ensure(grads, p, nodes[p].value.shape());
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
                    ensure(grads, *a, nodes[*a].value.shape());
                    let ga = grads[*a].as_mut().unwrap();
                    for (o, &g) in ga.row_mut(*r).iter_mut().zip(grad.row(0)) {
                        *o += g;
                    }
                }
            }
            Op::SliceCols { src, start, len } => {
                if needs[*src] {
                    ensure(grads, *src, nodes[*src].value.shape());
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
                    ensure(grads, *a, nodes[*a].value.shape());
                    let g = grad.scalar_value();
                    for o in grads[*a].as_mut().unwrap().data_mut() {
                        *o += g;
                    }
                }
            }
            Op::MeanAll(a) => {
                if needs[*a] {
                    ensure(grads, *a, nodes[*a].value.shape());
                    let n = nodes[*a].value.len() as f32;
                    let g = grad.scalar_value() / n;
                    for o in grads[*a].as_mut().unwrap().data_mut() {
                        *o += g;
                    }
                }
            }
            Op::ColSum(a) => {
                if needs[*a] {
                    ensure(grads, *a, nodes[*a].value.shape());
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
                    ensure(grads, *a, nodes[*a].value.shape());
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
                    ensure(grads, *a, nodes[*a].value.shape());
                    let ga = grads[*a].as_mut().unwrap();
                    for (j, &src_row) in arg.iter().enumerate() {
                        *ga.at_mut(src_row, j) += grad.at(0, j);
                    }
                }
            }
            Op::ColLse(a) => {
                if needs[*a] {
                    ensure(grads, *a, nodes[*a].value.shape());
                    let x = &nodes[*a].value;
                    let y = &nodes[i].value;
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
                    ensure(grads, *a, nodes[*a].value.shape());
                    let x = &nodes[*a].value;
                    let y = nodes[i].value.scalar_value();
                    let g = grad.scalar_value();
                    let ga = grads[*a].as_mut().unwrap();
                    for (o, &xv) in ga.data_mut().iter_mut().zip(x.data()) {
                        *o += g * (xv - y).exp();
                    }
                }
            }
            Op::LogSoftmaxRows(a) => {
                if needs[*a] {
                    ensure(grads, *a, nodes[*a].value.shape());
                    let y = &nodes[i].value;
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
                    ensure(grads, *a, nodes[*a].value.shape());
                    let y = &nodes[i].value;
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
            Op::Unfold { src, k } => {
                if needs[*src] {
                    ensure(grads, *src, nodes[*src].value.shape());
                    kernels::unfold_backward(
                        grad,
                        *k,
                        nodes[*src].value.shape(),
                        grads[*src].as_mut().unwrap(),
                    );
                }
            }
            Op::GatherRows(a, indices) => {
                if needs[*a] {
                    ensure(grads, *a, nodes[*a].value.shape());
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
                    ensure(grads, *a, nodes[*a].value.shape());
                    let ga = grads[*a].as_mut().unwrap();
                    for (o, &g) in ga.data_mut().iter_mut().zip(grad.data()) {
                        *o += g;
                    }
                }
            }
            Op::GatherSum(a, coords) => {
                if needs[*a] {
                    ensure(grads, *a, nodes[*a].value.shape());
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

/// The tape is one of the two executors behind the shared [`Exec`] op
/// vocabulary (the other is the gradient-free [`crate::Infer`] arena): every
/// trait method delegates to the inherent builder of the same name, so
/// generic model code instantiated with `Graph` records exactly the tape it
/// always did.
impl Exec for Graph {
    fn constant(&self, value: Array) -> Var {
        Graph::constant(self, value)
    }

    fn param(&self, store: &ParamStore, id: ParamId) -> Var {
        Graph::param(self, store, id)
    }

    fn freeze(&self, store: &ParamStore) {
        Graph::freeze(self, store)
    }

    fn value(&self, v: Var) -> Arc<Array> {
        Graph::value(self, v)
    }

    fn shape(&self, v: Var) -> (usize, usize) {
        Graph::shape(self, v)
    }

    fn mode(&self) -> ExecMode {
        Graph::mode(self)
    }

    fn add(&self, a: Var, b: Var) -> Var {
        Graph::add(self, a, b)
    }

    fn sub(&self, a: Var, b: Var) -> Var {
        Graph::sub(self, a, b)
    }

    fn mul(&self, a: Var, b: Var) -> Var {
        Graph::mul(self, a, b)
    }

    fn add_scalar(&self, a: Var, c: f32) -> Var {
        Graph::add_scalar(self, a, c)
    }

    fn mul_scalar(&self, a: Var, c: f32) -> Var {
        Graph::mul_scalar(self, a, c)
    }

    fn matmul(&self, a: Var, b: Var) -> Var {
        Graph::matmul(self, a, b)
    }

    fn transpose(&self, a: Var) -> Var {
        Graph::transpose(self, a)
    }

    fn sigmoid(&self, a: Var) -> Var {
        Graph::sigmoid(self, a)
    }

    fn tanh(&self, a: Var) -> Var {
        Graph::tanh(self, a)
    }

    fn relu(&self, a: Var) -> Var {
        Graph::relu(self, a)
    }

    fn concat_cols(&self, parts: &[Var]) -> Var {
        Graph::concat_cols(self, parts)
    }

    fn concat_rows(&self, parts: &[Var]) -> Var {
        Graph::concat_rows(self, parts)
    }

    fn row(&self, a: Var, i: usize) -> Var {
        Graph::row(self, a, i)
    }

    fn slice_cols(&self, a: Var, start: usize, len: usize) -> Var {
        Graph::slice_cols(self, a, start, len)
    }

    fn sum_all(&self, a: Var) -> Var {
        Graph::sum_all(self, a)
    }

    fn mean_all(&self, a: Var) -> Var {
        Graph::mean_all(self, a)
    }

    fn col_sum(&self, a: Var) -> Var {
        Graph::col_sum(self, a)
    }

    fn row_sum(&self, a: Var) -> Var {
        Graph::row_sum(self, a)
    }

    fn col_max(&self, a: Var) -> Var {
        Graph::col_max(self, a)
    }

    fn col_lse(&self, a: Var) -> Var {
        Graph::col_lse(self, a)
    }

    fn lse_all(&self, a: Var) -> Var {
        Graph::lse_all(self, a)
    }

    fn log_softmax_rows(&self, a: Var) -> Var {
        Graph::log_softmax_rows(self, a)
    }

    fn softmax_rows(&self, a: Var) -> Var {
        Graph::softmax_rows(self, a)
    }

    fn unfold(&self, a: Var, k: usize) -> Var {
        Graph::unfold(self, a, k)
    }

    fn gather_rows(&self, a: Var, indices: &[usize]) -> Var {
        Graph::gather_rows(self, a, indices)
    }

    fn reshape(&self, a: Var, rows: usize, cols: usize) -> Var {
        Graph::reshape(self, a, rows, cols)
    }

    fn gather_sum(&self, a: Var, coords: &[(usize, usize)]) -> Var {
        Graph::gather_sum(self, a, coords)
    }

    fn scalar(&self, value: f32) -> Var {
        Graph::scalar(self, value)
    }

    fn neg(&self, a: Var) -> Var {
        Graph::neg(self, a)
    }

    fn one_minus(&self, a: Var) -> Var {
        Graph::one_minus(self, a)
    }

    fn film(&self, h: Var, gamma: Var, eta: Var) -> Var {
        Graph::film(self, h, gamma, eta)
    }

    fn row_mean(&self, a: Var) -> Var {
        Graph::row_mean(self, a)
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
        let x = g.constant(Array::from_vec(1, 4, vec![1., 2., 3., 4.]));
        let y = g.dropout(x, 0.5, &mut rng);
        assert_eq!(y, x);
    }

    #[test]
    fn dropout_train_mode_preserves_expectation() {
        let (store, id) = store_with("w", Array::full(1, 1000, 1.0));
        let mut rng = Rng::new(4);
        let g = Graph::new();
        assert_eq!(g.mode(), ExecMode::Train);
        let w = g.param(&store, id);
        let y = g.dropout(w, 0.3, &mut rng);
        let mean = g.value(y).sum() / 1000.0;
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
