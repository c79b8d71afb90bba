//! # galois-sql
//!
//! SQL front-end for the Galois system (["Querying Large Language Models
//! with SQL"](https://arxiv.org/abs/2304.00472), EDBT 2024): a hand-written
//! lexer, an AST with a canonical pretty-printer, and a recursive-descent
//! parser for the SPJA dialect the paper executes against LLMs.
//!
//! The dialect supports `SELECT [DISTINCT] … FROM … [JOIN … ON …] WHERE …
//! GROUP BY … HAVING … ORDER BY … LIMIT …` with arithmetic, comparisons,
//! `LIKE`/`IN`/`BETWEEN`/`IS NULL`, the five standard aggregates, the
//! hybrid-source qualifiers `LLM.table` / `DB.table` from the paper's
//! introduction, and `EXPLAIN <query>` for inspecting the chosen plan
//! without executing it.
//!
//! ```
//! use galois_sql::{parse, parse_select};
//!
//! let q = parse_select("SELECT c.name FROM city c WHERE c.population > 1000000").unwrap();
//! assert_eq!(q.from[0].binding(), "c");
//!
//! let stmt = parse("EXPLAIN SELECT name FROM city").unwrap();
//! assert!(stmt.is_explain());
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod token;

pub use ast::{
    BinaryOp, ColumnRef, Expr, FunctionArgs, Join, JoinType, Literal, OrderItem, SelectItem,
    SelectStatement, SortDirection, SourceQualifier, Statement, TableRef, UnaryOp,
};
pub use error::{Result, Span, SqlError};
pub use parser::{parse, parse_select};
