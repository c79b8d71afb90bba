//! Shared harness for the `tests/*_equivalence.rs` batteries.
//!
//! Every battery compiles this module via `mod common;` and uses the
//! subset it needs (hence the file-wide `dead_code` allowance): the small
//! world config, row/stat normalisers, session constructors, the
//! options-matrix builder, the suite runner with its stat-snapshot diff,
//! the profile-answered session and its per-pass readings, and the
//! adversarial model wrappers that corrupt batched answers.

#![allow(dead_code)]

use galois::core::{
    Galois, GaloisOptions, ListStore, Parallelism, Pipeline, PromptBatch, QueryStats,
};
use galois::dataset::{build_operator_suite, Scenario, WorldConfig};
use galois::llm::intent::{parse_task, TaskIntent};
use galois::llm::{
    ClientStats, Completion, FaultProfile, FaultyLlm, LanguageModel, ModelProfile, SimLlm,
};
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
    let mut rows: Vec<Vec<String>> = rel
        .rows
        .iter()
        .map(|r| r.iter().map(Value::render).collect())
        .collect();
    rows.sort();
    rows
}

/// Stat-snapshot diff: `QueryStats` equality modulo the real wall clock,
/// which is measured, not simulated. Comparing the whole struct (rather
/// than hand-picked fields) means a newly added counter is pinned by
/// every battery automatically.
pub fn assert_stats_eq(a: &QueryStats, b: &QueryStats, label: &str) {
    let mut a = *a;
    let mut b = *b;
    a.wall_ms = 0;
    b.wall_ms = 0;
    assert_eq!(a, b, "{label}");
}

/// A deterministic fault injector over the scenario's oracle model. The
/// returned handle can be shared across sessions: the per-prompt attempt
/// map lives in the wrapper, so a later session continues each prompt's
/// fault schedule where an earlier one left off.
pub fn faulty_oracle(s: &Scenario, profile: FaultProfile) -> Arc<FaultyLlm> {
    Arc::new(FaultyLlm::new(
        Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle())),
        profile,
    ))
}

/// Chaos-run stat comparison: a retried run legally spends extra virtual
/// time (backoff is billed into the clocks) and bumps its own resilience
/// counters, so those are zeroed on both sides; *everything else* —
/// prompts per kind net of retries, cache hits, token totals, rows
/// retrieved, and crucially `failed_cells` — must match the fault-free
/// run exactly.
pub fn assert_stats_eq_modulo_resilience(a: &QueryStats, b: &QueryStats, label: &str) {
    let mut a = *a;
    let mut b = *b;
    for s in [&mut a, &mut b] {
        s.wall_ms = 0;
        s.virtual_ms = 0;
        s.serial_virtual_ms = 0;
        s.list_virtual_ms = 0;
        s.filter_virtual_ms = 0;
        s.fetch_virtual_ms = 0;
        s.retries = 0;
        s.timeouts = 0;
        s.rate_limited = 0;
        s.breaker_fastfails = 0;
    }
    assert_eq!(a, b, "{label}");
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

/// A session over an arbitrary (usually adversarial) model.
pub fn session_with_model(
    model: Arc<dyn LanguageModel>,
    s: &Scenario,
    opts: GaloisOptions,
) -> Galois {
    Galois::with_options(model, s.database.clone(), opts)
}

/// A session over the scenario's knowledge as `profile` answers it.
pub fn serving_session(
    scenario: &Scenario,
    profile: ModelProfile,
    options: GaloisOptions,
) -> Galois {
    let model = SimLlm::new(scenario.knowledge.clone(), profile);
    session_with_model(Arc::new(model), scenario, options)
}

/// The evaluation suite followed by the operator suite, as SQL.
pub fn statements(scenario: &Scenario) -> Vec<String> {
    let suite = scenario.suite.iter().map(|q| q.to_sql());
    let operators = build_operator_suite(&scenario.world);
    suite.chain(operators.into_iter().map(|q| q.sql)).collect()
}

/// One statement's reading: column names and rows in output order, its
/// accounting, and how many of its steps were served a universe relation
/// and how many built their table.
pub struct Reading {
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
        columns: got.relation.column_names(),
        rows: got.relation.rows,
        stats: got.stats,
        served: after.steps_served - before.steps_served,
        built: after.steps_built - before.steps_built,
    }
}

/// What one pass of `statements` reads, and what it adds to the client's
/// counters.
pub fn pass(session: &Galois, statements: &[String]) -> (Vec<Reading>, ClientStats) {
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

/// Cartesian options-matrix builder. Each axis defaults to the single
/// engine default, so a battery spells out only the axes it varies:
///
/// ```ignore
/// for opts in OptionsMatrix::new()
///     .pipelines(&[Pipeline::Off, Pipeline::Streaming])
///     .lanes(&[1, 8])
///     .build()
/// { ... }
/// ```
#[derive(Clone)]
pub struct OptionsMatrix {
    pipelines: Vec<Pipeline>,
    batches: Vec<PromptBatch>,
    lanes: Vec<usize>,
    stores: Vec<ListStore>,
}

impl Default for OptionsMatrix {
    fn default() -> Self {
        Self::new()
    }
}

impl OptionsMatrix {
    /// A matrix holding exactly the default configuration.
    pub fn new() -> Self {
        OptionsMatrix {
            pipelines: vec![Pipeline::default()],
            batches: vec![PromptBatch::default()],
            lanes: vec![1],
            stores: vec![ListStore::default()],
        }
    }

    /// Vary the pipeline axis.
    pub fn pipelines(mut self, v: &[Pipeline]) -> Self {
        self.pipelines = v.to_vec();
        self
    }

    /// Vary the prompt-batch axis.
    pub fn batches(mut self, v: &[PromptBatch]) -> Self {
        self.batches = v.to_vec();
        self
    }

    /// Vary the lane/worker axis.
    pub fn lanes(mut self, v: &[usize]) -> Self {
        self.lanes = v.to_vec();
        self
    }

    /// Vary the list-store axis.
    pub fn stores(mut self, v: &[ListStore]) -> Self {
        self.stores = v.to_vec();
        self
    }

    /// The cartesian product of every axis, as ready-to-use options.
    pub fn build(&self) -> Vec<GaloisOptions> {
        let mut out = Vec::new();
        for pipeline in &self.pipelines {
            for batch in &self.batches {
                for &lanes in &self.lanes {
                    for store in &self.stores {
                        out.push(options(store.clone(), *pipeline, *batch, lanes));
                    }
                }
            }
        }
        out
    }
}

/// Suite runner: executes the first `take` suite queries on both sessions
/// and requires bit-identical results — same rows *in order* and the same
/// stat snapshot (every counter, both virtual clocks; wall time excluded).
pub fn assert_suite_bit_identical(s: &Scenario, a: &Galois, b: &Galois, take: usize, label: &str) {
    for spec in s.suite.iter().take(take) {
        let sql = spec.to_sql();
        let ra = a.execute(&sql).unwrap();
        let rb = b.execute(&sql).unwrap();
        assert_eq!(
            ra.relation.rows, rb.relation.rows,
            "{label}: q{} rows: {sql}",
            spec.id
        );
        assert_stats_eq(
            &ra.stats,
            &rb.stats,
            &format!("{label}: q{} stats: {sql}", spec.id),
        );
    }
}

/// Suite runner for configurations that may legally reshape the prompt
/// schedule: requires identical relations (order-insensitive) only.
pub fn assert_suite_rows_match(s: &Scenario, a: &Galois, b: &Galois, take: usize, label: &str) {
    for spec in s.suite.iter().take(take) {
        let sql = spec.to_sql();
        let ra = a.execute(&sql).unwrap();
        let rb = b.execute(&sql).unwrap();
        assert_eq!(
            sorted_rows(&ra.relation),
            sorted_rows(&rb.relation),
            "{label}: q{} diverged: {sql}",
            spec.id
        );
    }
}

/// A deterministic Fisher–Yates permutation of `0..n` driven by a plain
/// LCG, so proptest can explore suite orderings without a shuffle
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

/// Wraps a model and corrupts every multi-key answer by dropping every
/// second line — forcing half the keys (or grid cells) of every batched
/// prompt down the fallback ladder, and half of *those* past the middle
/// rung to per-key singles.
pub struct LineDropper {
    inner: SimLlm,
}

impl LineDropper {
    /// A dropper over the scenario's oracle model.
    pub fn oracle(s: &Scenario) -> Self {
        LineDropper {
            inner: SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()),
        }
    }
}

impl LanguageModel for LineDropper {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn context_window(&self) -> usize {
        self.inner.context_window()
    }
    fn complete(&self, prompt: &str) -> Completion {
        let mut completion = self.inner.complete(prompt);
        if matches!(
            parse_task(prompt),
            Some(
                TaskIntent::FetchGridBatch { .. }
                    | TaskIntent::FetchAttrBatch { .. }
                    | TaskIntent::FilterKeysBatch { .. }
            )
        ) {
            completion.text = completion
                .text
                .lines()
                .enumerate()
                .filter_map(|(i, line)| (i % 2 == 0).then_some(line))
                .collect::<Vec<_>>()
                .join("\n");
        }
        completion
    }
}

/// Wraps a model and reverses the line order of every grid answer — the
/// parser is order-tolerant, so this must cost nothing: same relations,
/// same prompt bill as the clean run.
pub struct LinePermuter {
    inner: SimLlm,
}

impl LinePermuter {
    /// A permuter over the scenario's oracle model.
    pub fn oracle(s: &Scenario) -> Self {
        LinePermuter {
            inner: SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()),
        }
    }
}

impl LanguageModel for LinePermuter {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn context_window(&self) -> usize {
        self.inner.context_window()
    }
    fn complete(&self, prompt: &str) -> Completion {
        let mut completion = self.inner.complete(prompt);
        if matches!(parse_task(prompt), Some(TaskIntent::FetchGridBatch { .. })) {
            let mut lines: Vec<&str> = completion.text.lines().collect();
            lines.reverse();
            completion.text = lines.join("\n");
        }
        completion
    }
}
