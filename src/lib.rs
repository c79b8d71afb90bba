//! # galois
//!
//! Facade crate for **galois-rs**, a from-scratch Rust reproduction of
//! ["Querying Large Language Models with SQL"](https://arxiv.org/abs/2304.00472)
//! (Saeed, De Cao, Papotti — EDBT 2024).
//!
//! Galois executes SPJA SQL over a pre-trained LLM by compiling the
//! logical query plan into a chain of text prompts (key scans, per-key
//! filter checks, per-key attribute fetches), cleaning the answers into
//! typed cells, and running joins/aggregates/sorts as ordinary relational
//! operators over the retrieved tuples.
//!
//! This crate re-exports the workspace members:
//!
//! * [`core`] (`galois-core`) — the Galois engine itself;
//! * [`relational`] — in-memory SPJA engine (planner + ground truth);
//! * [`llm`] — the simulated pre-trained LLM substrate;
//! * [`sql`] — SQL lexer/parser/AST;
//! * [`dataset`] — Spider-substitute corpus (world + 46-query suite);
//! * [`eval`] — metrics and harness regenerating the paper's tables.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use galois::core::Galois;
//! use galois::dataset::Scenario;
//! use galois::llm::{ModelProfile, SimLlm};
//!
//! let scenario = Scenario::generate(42);
//! let model = Arc::new(SimLlm::new(scenario.knowledge.clone(), ModelProfile::chatgpt()));
//! let galois = Galois::new(model, scenario.database.clone());
//!
//! let r = galois.execute("SELECT name FROM city WHERE population > 1000000").unwrap();
//! assert!(!r.relation.is_empty());
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub use galois_core as core;
pub use galois_dataset as dataset;
pub use galois_eval as eval;
pub use galois_llm as llm;
pub use galois_relational as relational;
pub use galois_sql as sql;
