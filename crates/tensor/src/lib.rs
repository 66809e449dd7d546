//! `fewner-tensor` — a from-scratch tensor and reverse-mode autodiff engine.
//!
//! This crate is the computational substrate of the FEWNER reproduction: the
//! original system is built on PyTorch, which we replace with a small,
//! auditable define-by-run tape over dense 2-D `f32` arrays. It provides
//! everything the paper's models need and nothing more:
//!
//! * [`Array`] — dense row-major matrices with the handful of BLAS-like
//!   kernels the models are hot on ([`mod@array`]); the cache-blocked
//!   [`array::matmul_into`] is the one matmul both executors run.
//! * [`kernels`] — broadcasting, reductions and log-space primitives.
//! * [`Exec`] — the executor trait: the op vocabulary models are written
//!   against once — broadcasting elementwise ops, matmul, gather/scatter,
//!   stable log-space reductions (the CRF's forward recursion
//!   differentiates through [`Exec::col_lse`]), segmented unfold/max-pool
//!   for the character CNN, dropout and FiLM conditioning. Each op's
//!   forward body is written once for both executors, so their forward
//!   values are bitwise identical ([`exec`]). [`Exec::segmented`] lets a
//!   layer run one op over many sequences' rows and still give each
//!   parameter the gradient bits of one op per sequence.
//! * [`Graph`]/[`Var`] — the tape executor: records every op for a
//!   reverse-mode backward sweep ([`graph`]).
//! * [`Infer`] — the gradient-free executor: the same ops evaluated into a
//!   reusable scratch-buffer arena with no tape and no gradient surface,
//!   for the support encode, the batched decode and serving ([`infer`]).
//! * [`ParamStore`]/[`ParamGrads`] — named parameter stores. FEWNER's split
//!   between task-independent θ and task-specific φ is expressed as two
//!   stores bound into the same graph, with gradients routed per store
//!   ([`params`]).
//! * [`nn`] — generic layers: [`nn::Linear`], [`nn::Embedding`],
//!   [`nn::GruCell`], [`nn::BiGru`], [`nn::LstmCell`], [`nn::BiLstm`],
//!   [`nn::Conv1d`].
//! * [`optim`] — plain [`optim::Sgd`] (inner loop) and [`optim::Adam`]
//!   (outer loop, with global-norm clipping and decoupled weight decay).
//!
//! # Example
//!
//! ```
//! use fewner_tensor::{Array, Exec, Graph, ParamStore};
//! use fewner_util::Rng;
//!
//! let mut rng = Rng::new(0);
//! let mut params = ParamStore::new();
//! let w = params.add("w", Array::uniform(3, 1, -1.0, 1.0, &mut rng));
//!
//! let g = Graph::new();
//! let x = g.constant(Array::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
//! let y = g.matmul(x, g.param(&params, w));
//! let loss = g.mean_all(g.mul(y, y));
//! let grads = g.backward(loss).unwrap().for_store(&params);
//! assert!(grads.get(w).is_some());
//! ```

#![warn(missing_docs)]

pub mod array;
pub mod exec;
pub mod graph;
pub mod infer;
pub mod kernels;
pub mod nn;
pub mod optim;
pub mod params;

pub use array::Array;
pub use exec::{Exec, ExecMode, Var};
pub use graph::{Gradients, Graph};
pub use infer::{global_stats as infer_global_stats, Infer, InferStats};
pub use optim::{Adam, SavedAdam, Sgd};
pub use params::{
    f16_bits_to_f32, f32_to_f16_bits, ParamGrads, ParamId, ParamStore, SavedParams, WeightFormat,
};
