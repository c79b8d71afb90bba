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
//! 2. **Content** ([`matching`]) — greedy tuple mapping then cell-value
//!    matching with the paper's 5% numeric tolerance (Table 2).
//!
//! [`harness`] wires the metrics to the 46-query suite across models and
//! methods (`R_M`, `T_M`, `T_C_M`), regenerating the paper's tables.

#![warn(missing_docs)]

pub mod cardinality;
pub mod concurrent;
pub mod harness;
pub mod matching;
pub mod report;

pub use cardinality::{average_diff, cardinality_diff_percent, cardinality_ratio};
pub use concurrent::{run_suite_concurrent, run_suite_concurrent_on, ConcurrentSuiteRun};
pub use harness::{
    model_for, run_baseline_suite, run_galois_suite, run_galois_suite_on, run_operator_suite,
    suite_totals, table1, table2, timing_summary, BaselineOutcome, BaselineRun, GaloisRun,
    OperatorOutcome, OperatorRun, QueryOutcome, SuiteTotals, Table2, TimingSummary,
};
pub use matching::{cell_matches, match_records, relation_to_records, MatchOutcome};
pub use report::{percent0, signed1, TextTable};
