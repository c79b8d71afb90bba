//! # galois-core
//!
//! A from-scratch implementation of **Galois** — the DB-first prototype of
//! ["Querying Large Language Models with SQL"](https://arxiv.org/abs/2304.00472)
//! (Saeed, De Cao, Papotti — EDBT 2024).
//!
//! Galois executes SPJA SQL over a pre-trained LLM: the logical query plan
//! acts as an automatically-generated chain-of-thought, whose leaf and
//! selection operators become *text prompts*; retrieved strings are parsed
//! and cleaned into typed cells; joins, aggregates and sorts then run as
//! ordinary relational operators.
//!
//! ```
//! use std::sync::Arc;
//! use galois_core::Galois;
//! use galois_dataset::Scenario;
//! use galois_llm::{ModelProfile, SimLlm};
//!
//! let scenario = Scenario::generate(42);
//! let model = Arc::new(SimLlm::new(scenario.knowledge.clone(), ModelProfile::chatgpt()));
//! let galois = Galois::new(model, scenario.database.clone());
//!
//! let result = galois.execute("SELECT name FROM city WHERE population > 1000000").unwrap();
//! println!("{}", result.relation);              // the relation R_M
//! println!("{} prompts", result.stats.total_prompts());
//! ```
//!
//! Module map (one per paper concern):
//!
//! | module | paper § |
//! |---|---|
//! | [`compile`] | §4 Operators — plan → retrieval steps |
//! | [`plan_choice`] | §6 Query optimization — cost-based, prompt-aware planner |
//! | `physical` | the physical plan: each retrieval decision of a statement |
//! | [`prompts`] | §4 Prompts, Figure 4 |
//! | [`parse`] | §4 workflow (3): answers → CELL values |
//! | [`clean`] | §4 workflow (3): normalisation + domain constraints |
//! | `session` | §4 workflow (1)–(4), §5 prompt accounting: options, stats, the one retrieval protocol and its barrier and event drivers |
//! | `schedule` | `Scheduler`, the positional wave runner one benchmark probe times; no statement uses it |
//! | `multi` | cross-query scheduling over a shared lane pool |
//! | `baselines` | §5 `T_M` and `T_C_M` |

#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod baselines;
pub mod clean;
pub mod compile;
mod error;
mod multi;
pub mod parse;
mod physical;
pub mod plan_choice;
pub mod prompts;
mod schedule;
mod session;

pub use baselines::{BaselineKind, QaBaseline};
pub use clean::CleaningPolicy;
pub use compile::{concept_signature_for, limit_hint, CompileOptions, LlmScanStep};
pub use error::{GaloisError, Result};
pub use galois_llm::{Parallelism, RetryPolicy};
pub use multi::{run_multi_query, MultiQueryReport};
pub use plan_choice::Planner;
pub use schedule::Scheduler;
pub use session::{
    AdmissionPolicy, Galois, GaloisOptions, GaloisResult, ListStore, Pipeline, PromptBatch,
    QueryStats, Resilience,
};
