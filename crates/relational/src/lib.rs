//! # galois-relational
//!
//! An in-memory SPJA relational engine built for the Galois reproduction
//! (["Querying Large Language Models with SQL"](https://arxiv.org/abs/2304.00472),
//! EDBT 2024). It plays two roles from the paper's setup:
//!
//! * it executes the evaluation queries over stored (Spider-substitute)
//!   tables to produce the ground-truth result `R_D`, and
//! * its *named* logical plans are what Galois compiles into chains of LLM
//!   prompts — the paper obtained these plans from DuckDB; here the planner
//!   is part of the reproduction.
//!
//! ```
//! use galois_relational::{Column, Database, DataType, Table, TableSchema, Value};
//!
//! let mut db = Database::new();
//! let mut t = Table::new(
//!     "city",
//!     TableSchema::new(
//!         vec![
//!             Column::new("name", DataType::Text),
//!             Column::new("population", DataType::Int),
//!         ],
//!         "name",
//!     ).unwrap(),
//! );
//! t.insert(vec!["Rome".into(), Value::Int(2_800_000)]).unwrap();
//! db.add_table(t).unwrap();
//!
//! let result = db.execute("SELECT name FROM city WHERE population > 1000000").unwrap();
//! assert_eq!(result.rows[0][0].render(), "Rome");
//! ```

#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod builder;
pub mod cost;
mod engine;
mod error;
mod exec;
mod expr;
mod optimizer;
mod plan;
mod schema;
mod table;
mod value;

pub use engine::Database;
pub use error::{EngineError, Result};
pub use exec::{execute, join_algorithm, JoinAlgorithm, Relation};
pub use expr::ScalarExpr;
pub use optimizer::{optimize, plan_stats};
pub use plan::LogicalPlan;
pub use schema::{Column, PlanColumn, PlanSchema, TableSchema};
pub use table::{Catalog, Row, Table};
pub use value::{DataType, Date, Value};
