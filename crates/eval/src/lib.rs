//! `fewner-eval` — entity-level F1 and the episode evaluation harness.
//!
//! * [`f1`] — the paper's exact-match entity F1 (§4.1.1).
//! * [`episode_eval`] — adapt-and-score over the seed-fixed evaluation
//!   episode set, on every core.
//! * [`report`] — paper-style table rendering + JSON reports and the
//!   qualitative-analysis line format (Table 6).
//! * [`breakdown`] — span-level error classification (boundary vs slot vs
//!   missed) behind the paper's qualitative-error claims (§4.5.3).
//! * [`significance`] — paired t-test + bootstrap between methods scored on
//!   the same episodes (the paper's "significant margins").
//! * [`throughput`] — tokens/sec accounting for the inference/serving path
//!   (`fewner predict`, the timing harness).

#![warn(missing_docs)]

pub mod breakdown;
pub mod episode_eval;
pub mod f1;
pub mod report;
pub mod significance;
pub mod throughput;

pub use breakdown::{DetectionVsTyping, ErrorBreakdown};
pub use episode_eval::{evaluate, score_task, score_tasks};
pub use f1::F1Counts;
pub use report::{qualitative_line, Cell, Table};
pub use significance::{paired_compare, PairedComparison};
pub use throughput::{measure_predictions, Throughput};
