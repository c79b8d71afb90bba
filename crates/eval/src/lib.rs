//! # galois-eval
//!
//! Evaluation metrics and suite harness for the Galois reproduction
//! (["Querying Large Language Models with SQL"](https://arxiv.org/abs/2304.00472),
//! EDBT 2024, §5 "Evaluation").
//!
//! Two measurements, matching the paper's two analysis dimensions:
//!
//! 1. **Cardinality** ([`cardinality`]) — `f = 2·|R_D| / (|R_D|+|R_M|)`
//!    reported as the difference `1 − f` in % (Table 1);
//! 2. **Content** ([`match_records`]) — greedy tuple mapping then
//!    cell-value matching with the paper's 5% numeric tolerance (Table 2).
//!
//! [`run_galois_suite`], [`table1`] and [`table2`] wire the metrics to the
//! 46-query suite across models and methods (`R_M`, `T_M`, `T_C_M`),
//! regenerating the paper's tables; [`score_operator`] scores the operator
//! suite.

#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cardinality;
mod concurrent;
mod harness;
mod matching;
mod report;

pub use cardinality::{average_diff, cardinality_diff_percent, cardinality_ratio};
pub use concurrent::{run_suite_concurrent, ConcurrentSuiteRun};
pub use harness::{
    model_for, run_baseline_suite, run_galois_suite, run_galois_suite_on, score_operator,
    suite_totals, table1, table2, timing_summary, BaselineOutcome, BaselineRun, GaloisRun,
    QueryOutcome, SuiteTotals, Table2, TimingSummary,
};
pub use matching::{cell_matches, match_records, relation_to_records, MatchOutcome};
pub use report::{percent0, signed1, TextTable};
