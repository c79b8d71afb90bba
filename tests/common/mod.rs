//! Shared harness for the root integration tests: the small worlds, the
//! statement lists, the oracle session, per-statement readings, and the
//! contract battery (`contract.rs`) whose cells the `*_equivalence`
//! files, `typed_cells.rs` and `universe_relation.rs` are.
//!
//! Every test file compiles this module via `mod common;` and uses the
//! subset it needs (hence the file-wide `dead_code` allowance).

#![allow(dead_code)]

pub mod contract;

use galois::core::{
    Galois, GaloisOptions, ListStore, Parallelism, Pipeline, PromptBatch, QueryStats,
};
use galois::dataset::{build_operator_suite, Scenario, WorldConfig};
use galois::llm::{ClientStats, ModelProfile, SimLlm};
use galois::relational::{Relation, Value};
use std::sync::Arc;

/// The batteries' standard small world: big enough to exercise every
/// operator family, small enough that a full 46-query suite pass stays
/// fast under proptest.
pub fn small_config() -> WorldConfig {
    WorldConfig {
        countries: 6,
        cities: 14,
        airports: 6,
        singers: 6,
        concerts: 8,
        employees: 10,
    }
}

/// A slightly larger world for optimizer-style batteries that want more
/// join fan-out than the small config produces.
pub fn medium_config() -> WorldConfig {
    WorldConfig {
        countries: 8,
        cities: 20,
        airports: 10,
        singers: 10,
        concerts: 12,
        employees: 15,
    }
}

/// Rows rendered to strings and sorted — the canonical order-insensitive
/// relation comparison.
pub fn sorted_rows(rel: &Relation) -> Vec<Vec<String>> {
    multiset(&rel.rows)
}

/// Rows rendered and sorted: a multiset.
pub fn multiset(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    let mut rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(Value::render).collect())
        .collect();
    rendered.sort();
    rendered
}

/// An oracle-model session over the scenario's world with explicit
/// options.
pub fn oracle_session(s: &Scenario, opts: GaloisOptions) -> Galois {
    Galois::with_options(
        Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle())),
        s.database.clone(),
        opts,
    )
}

/// The evaluation suite, as SQL in suite order.
pub fn suite(scenario: &Scenario) -> Vec<String> {
    scenario.suite.iter().map(|q| q.to_sql()).collect()
}

/// The evaluation suite followed by the operator suite, as SQL.
pub fn statements(scenario: &Scenario) -> Vec<String> {
    let operators = build_operator_suite(&scenario.world);
    let mut all = suite(scenario);
    all.extend(operators.into_iter().map(|q| q.sql));
    all
}

/// One statement's reading: the statement, its column names and rows in
/// output order, its accounting, and how many of its steps were served a
/// universe relation and how many built their table.
pub struct Reading {
    pub sql: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    pub stats: QueryStats,
    pub served: usize,
    pub built: usize,
}

pub fn read(session: &Galois, sql: &str) -> Reading {
    let before = session.typed_stats();
    let got = session
        .execute(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    let after = session.typed_stats();
    Reading {
        sql: sql.to_string(),
        columns: got.relation.column_names(),
        rows: got.relation.rows,
        stats: got.stats,
        served: after.steps_served - before.steps_served,
        built: after.steps_built - before.steps_built,
    }
}

/// What one pass of `statements` reads, and what it adds to the client's
/// counters.
pub type Pass = (Vec<Reading>, ClientStats);

pub fn pass(session: &Galois, statements: &[String]) -> Pass {
    session.client().reset_stats();
    let readings = statements.iter().map(|sql| read(session, sql)).collect();
    (readings, session.session_stats())
}

/// `GaloisOptions` with the four axes the batteries most often vary.
pub fn options(
    store: ListStore,
    pipeline: Pipeline,
    batch: PromptBatch,
    lanes: usize,
) -> GaloisOptions {
    GaloisOptions {
        pipeline,
        prompt_batch: batch,
        parallelism: Parallelism::new(lanes),
        list_store: store,
        ..Default::default()
    }
}

/// Key batching: `keys` keys a prompt, one attribute a fetch group — each
/// fetch prompt a key batch, never a grid.
pub fn key_batch(keys: usize) -> PromptBatch {
    PromptBatch::Grid { keys, attrs: 1 }
}

/// A deterministic Fisher–Yates permutation of `0..n` driven by a plain
/// LCG, so proptest can explore statement orderings without a shuffle
/// strategy.
pub fn permutation(n: usize, mut state: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        idx.swap(i, j);
    }
    idx
}
