//! The Galois session: end-to-end SQL execution over an LLM (paper §4
//! "Workflow").
//!
//! ```text
//! (1) plan the SQL against the user-provided schema
//! (2) retrieve tuples: key scans (iterated until exhaustion), per-key
//!     filter checks, per-key attribute fetches — all as text prompts
//! (3) convert answer strings to typed CELL values (parse + clean)
//! (4) run the remaining operators (joins, aggregates, …) traditionally
//! ```
//!
//! Step (2) is one retrieval protocol — the state machine of
//! `protocol`: list → filter stages in conjunctive short-circuit order
//! (condition *n + 1* only prompts for keys that survived condition *n*,
//! the prompt-pruning the paper's operator relies on) → fetch stages,
//! with the key-batch and grid prompt forms of
//! [`GaloisOptions::prompt_batch`], their fallback ladder, the sub-entry
//! store and the key-universe store of [`GaloisOptions::list_store`] —
//! run by one of two drivers, selected by [`GaloisOptions::pipeline`]:
//!
//! * [`Pipeline::Off`] (the default), the barrier driver (`wave`): each
//!   step's phases are barrier-separated waves whose client requests pack
//!   onto `K` simulated lanes ([`galois_llm::lane_schedule`]), `K` being
//!   [`GaloisOptions::parallelism`]; `Parallelism(1)` is the paper's
//!   strictly sequential accounting;
//! * [`Pipeline::Streaming`], the event driver (`stream`): keys flow
//!   through the stages the moment they are known to survive, and every
//!   step of the query shares the same `K` lanes of one event-driven
//!   clock ([`galois_llm::EventClock`]); [`Pipeline::StreamingLimit`] is
//!   the same driver stopping at a covered `LIMIT` window.
//!
//! The module is split along those seams: `options`, `stats`,
//! `protocol`, `stream`, `wave`, and `typed` (the universe relations warm
//! steps are served); this file holds the session itself.

mod dedup;
mod options;
mod protocol;
mod stats;
mod stream;
mod typed;
mod wave;

pub use options::{AdmissionPolicy, GaloisOptions, ListStore, Pipeline, PromptBatch, Resilience};
pub use stats::QueryStats;
pub(crate) use stream::TracedTask;
pub(crate) use typed::TypedStats;
pub(crate) use wave::REQUEST_PROMPTS;

use crate::compile::{CompiledQuery, LlmScanStep};
use crate::error::{GaloisError, Result};
use crate::physical::PhysicalPlan;
use crate::plan_choice::{plan_owned, Calibration, PlannedQuery, Planning};
use crate::prompts::PromptBuilder;
use galois_llm::{ClientStats, KeyUniverseStore, LanguageModel, LlmClient};
use galois_relational::{Database, Relation, Table, Value};
use protocol::{Protocol, StepTable};
use std::sync::Arc;
use std::time::Instant;

/// The result of one Galois query.
#[derive(Debug, Clone)]
pub struct GaloisResult {
    /// The output relation `R_M`.
    pub relation: Relation,
    /// Prompt accounting.
    pub stats: QueryStats,
}

/// A Galois session over one LLM and one schema catalog.
///
/// The [`Database`] provides the *schema* (the paper assumes "the schema
/// (but no instances) is provided together with the query") and any
/// `DB.`-qualified instance data for hybrid queries; LLM-sourced relations
/// are materialised through prompts at query time.
///
/// Sessions are `Sync`: one session may serve queries from many threads
/// concurrently, sharing the prompt cache (`tests/concurrency_determinism.rs`
/// holds what they may and may not observe of each other). A statement
/// sends its prompts on the thread that runs it; the session starts no
/// thread of its own.
pub struct Galois {
    /// Both drivers send their client requests through it, in order.
    client: LlmClient,
    db: Database,
    prompt_builder: PromptBuilder,
    options: GaloisOptions,
    /// Cost-model calibration, frozen at the session's first planner use
    /// so plan choice stays a deterministic function of the query — never
    /// of which concurrent query's prompts happened to land first in the
    /// shared client stats. It is never re-frozen.
    calibration: parking_lot::Mutex<Option<Calibration>>,
    /// The resolved key-universe store (`None` when [`ListStore::Off`]).
    list_store: Option<Arc<KeyUniverseStore>>,
    /// The model's behaviour fingerprint, keying store entries so a
    /// profile change invalidates stored universes cleanly.
    model_sig: String,
    /// What warm statements have already read out of the sub-entry store,
    /// typed: by stored universe, the relation a warm step materialised.
    typed: typed::Universes,
}

impl Galois {
    /// Creates a session with default options.
    pub fn new(model: Arc<dyn LanguageModel>, db: Database) -> Self {
        Self::with_options(model, db, GaloisOptions::default())
    }

    /// Creates a session with explicit options.
    pub fn with_options(
        model: Arc<dyn LanguageModel>,
        db: Database,
        options: GaloisOptions,
    ) -> Self {
        let prompt_builder = PromptBuilder::for_model(model.name());
        let model_sig = model.signature();
        let list_store = match &options.list_store {
            ListStore::Off => None,
            ListStore::On => Some(Arc::new(KeyUniverseStore::new())),
            ListStore::Shared(store) => Some(Arc::clone(store)),
        };
        let mut client = LlmClient::with_parallelism(model, options.parallelism);
        if let Some(policy) = options.resilience.policy() {
            client = client.with_resilience(policy);
        }
        Galois {
            client,
            db,
            prompt_builder,
            options,
            calibration: parking_lot::Mutex::new(None),
            list_store,
            model_sig,
            typed: typed::Universes::default(),
        }
    }

    /// The underlying client (stats, cache control). Its
    /// [`Parallelism`](galois_llm::Parallelism) packs a request's cache
    /// misses onto virtual lanes; every statement's requests reach it in
    /// order, from the statement's own thread.
    pub fn client(&self) -> &LlmClient {
        &self.client
    }

    /// The schema/DB catalog in use.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Options in use.
    pub fn options(&self) -> &GaloisOptions {
        &self.options
    }

    /// Counters of the warm reads kept (universe relations) and of how
    /// steps were served.
    pub fn typed_stats(&self) -> TypedStats {
        self.typed.stats()
    }

    /// The calibration plan choice uses, read from the client's stats at
    /// the session's first statement under either
    /// [`Planner`](crate::Planner) (every statement, executed or explained,
    /// is planned through it) and frozen there. Freezing keeps the chosen
    /// plan a deterministic function of the query even when many threads
    /// share the session (live stats would race); a fresh session freezes
    /// the documented cold-start defaults.
    fn calibration(&self) -> Calibration {
        *(self.calibration.lock())
            .get_or_insert_with(|| Calibration::observed(&self.client.stats()))
    }

    /// What one planning pass reads: the session's options, the frozen
    /// calibration, and the key-universe store's *live* warm-concept
    /// cardinalities. The overlay is intentionally live where the
    /// calibration is frozen — which concepts are warm is exact knowledge
    /// (stored key counts), not a drifting rate estimate, and the whole
    /// point of planner-visible list caching is that a concept listed by
    /// an earlier query plans as free for the next one.
    fn planning(&self) -> Planning<'_> {
        Planning {
            options: &self.options,
            calibration: self.calibration(),
            warm_lists: (self.list_store.as_ref()).map(|store| store.warm_map(&self.model_sig)),
        }
    }

    /// Parses one statement, mapping the SQL error into the session's.
    fn parse_statement(&self, sql: &str) -> Result<galois_sql::Statement> {
        galois_sql::parse(sql)
            .map_err(|e| GaloisError::from(galois_relational::EngineError::from(e)))
    }

    /// Plans an already-parsed SELECT through the session's [`Planner`](crate::Planner)
    /// with one fixed calibration snapshot.
    fn plan_statement(
        &self,
        select: &galois_sql::SelectStatement,
        planning: &Planning<'_>,
    ) -> Result<PlannedQuery> {
        let plan = self.db.plan_statement(select).map_err(GaloisError::from)?;
        plan_owned(plan, self.db.catalog(), planning)
    }

    /// Plans a query through the session's [`Planner`](crate::Planner) without executing
    /// it, returning the compiled retrieval program plus its cost report.
    pub fn plan(&self, sql: &str) -> Result<PlannedQuery> {
        let stmt = self.parse_statement(sql)?;
        self.plan_statement(stmt.select(), &self.planning())
    }

    /// Renders the chosen plan with per-operator prompt/latency cost
    /// estimates (the text behind `EXPLAIN <query>`; Figure 3 shape).
    ///
    /// Accepts either a plain query or an `EXPLAIN`-prefixed one.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let stmt = self.parse_statement(sql)?;
        let planning = self.planning();
        let planned = self.plan_statement(stmt.select(), &planning)?;
        Ok(planned.render(self.db.catalog(), &planning))
    }

    /// Executes a SQL query against the LLM (and DB for hybrid sources).
    ///
    /// An `EXPLAIN <query>` statement is not executed: it returns the
    /// chosen plan and its cost report as a one-column `QUERY PLAN`
    /// relation with zero prompt accounting.
    pub fn execute(&self, sql: &str) -> Result<GaloisResult> {
        self.run(sql).map(|(result, _)| result)
    }

    /// Every statement's path: parse, plan through the session's
    /// [`Planner`](crate::Planner) with the frozen calibration, then either render an
    /// `EXPLAIN`'s plan relation (with an empty trace) or execute the plan.
    fn run(&self, sql: &str) -> Result<(GaloisResult, Vec<TracedTask>)> {
        let stmt = self.parse_statement(sql)?;
        let planning = self.planning();
        let planned = self.plan_statement(stmt.select(), &planning)?;
        if stmt.is_explain() {
            let text = planned.render(self.db.catalog(), &planning);
            let relation = galois_relational::cost::explain_relation(&text);
            let stats = QueryStats::default();
            return Ok((GaloisResult { relation, stats }, Vec::new()));
        }
        self.execute_planned(&planned.compiled, &planned.physical)
    }

    /// The physical plan the session's options give `compiled`.
    fn physical_plan(&self, compiled: &CompiledQuery) -> PhysicalPlan {
        PhysicalPlan::new(compiled, self.options.prompt_batch, self.options.pipeline)
    }

    /// Executes an already-compiled query: retrieval under the driver
    /// [`GaloisOptions::pipeline`] selects (see the module docs), laid out
    /// by the physical plan the session's options give it, then the
    /// residual relational plan over the retrieved tables.
    pub fn execute_compiled(&self, compiled: &CompiledQuery) -> Result<GaloisResult> {
        self.execute_planned(compiled, &self.physical_plan(compiled))
            .map(|(result, _)| result)
    }

    /// Executes a compiled query as `physical` lays it out, returning the
    /// result and the run's task trace — every scheduled task's `(release,
    /// duration, completion)` on the event driver's private clock, in fire
    /// order (empty under the barrier driver, whose rounds are not tasks on
    /// a shared clock). The trace is what the cross-query replay
    /// ([`crate::multi`]) re-packs onto a shared lane pool.
    fn execute_planned(
        &self,
        compiled: &CompiledQuery,
        physical: &PhysicalPlan,
    ) -> Result<(GaloisResult, Vec<TracedTask>)> {
        let started = Instant::now();
        let protocol = Protocol::new(self, compiled, physical);
        let (mut stats, step_tables, trace) = if self.options.pipeline.is_streaming() {
            stream::retrieve(self, protocol)
        } else {
            let (stats, step_tables) = wave::retrieve(self, protocol);
            (stats, step_tables, Vec::new())
        };
        let relation = self.materialise_and_execute(compiled, step_tables, &mut stats)?;
        stats.wall_ms = started.elapsed().as_millis() as u64;
        Ok((GaloisResult { relation, stats }, trace))
    }

    /// Executes one query through the event driver, returning the result
    /// plus the run's task trace for cross-query replay. Mirrors
    /// [`Galois::execute`] exactly (same planner paths, same calibration
    /// freeze); `EXPLAIN` statements return their plan relation with an
    /// empty trace. Requires [`Pipeline::Streaming`].
    pub(crate) fn execute_traced(&self, sql: &str) -> Result<(GaloisResult, Vec<TracedTask>)> {
        if !self.options.pipeline.is_streaming() {
            return Err(GaloisError::Unsupported(
                "cross-query scheduling requires Pipeline::Streaming (the wave dataflow \
                 has no task trace to replay)"
                    .to_string(),
            ));
        }
        self.run(sql)
    }

    /// The hand-off to the relational engine, shared by both drivers:
    /// overlays the stored catalog with one temporary table per step
    /// (`step_tables` runs parallel to `compiled.steps`) — the universe
    /// relation it was served, or the table materialised from its rows,
    /// which the universe keeps if the step may publish — under the step's
    /// `temp_name`, counts the rows that survived materialisation, and
    /// runs the residual plan. The overlay shares the stored tables' and
    /// the relations' storage: one pointer per table to build and drop.
    fn materialise_and_execute(
        &self,
        compiled: &CompiledQuery,
        step_tables: impl IntoIterator<Item = StepTable>,
        stats: &mut QueryStats,
    ) -> Result<Relation> {
        let mut catalog = self.db.catalog().clone();
        for (step, table) in compiled.steps.iter().zip(step_tables) {
            let table = match table {
                StepTable::Served(table) => table,
                StepTable::Built(rows, publish) => {
                    let table = materialise_step(step, rows);
                    self.typed.publish(publish, &step.fetch, table)
                }
            };
            stats.rows_retrieved += table.len();
            catalog
                .add_shared(&step.temp_name, table)
                .map_err(|e| GaloisError::Compile(format!("temp table: {e}")))?;
        }
        galois_relational::execute(&compiled.plan, &catalog).map_err(GaloisError::from)
    }

    /// Client-level stats accumulated over the session.
    pub fn session_stats(&self) -> ClientStats {
        self.client.stats()
    }
}

/// Materialises retrieved rows as a step's temporary table under the
/// schema compiled with the step (stored column order, everything but the
/// key nullable). Rows whose key failed to clean are unusable and dropped;
/// duplicate keys (hallucinated repeats) are dropped silently, the first
/// occurrence winning — the key-identifies-tuple assumption is enforced
/// here.
fn materialise_step(step: &LlmScanStep, rows: Vec<Vec<Value>>) -> Table {
    let mut table =
        Table::with_capacity(&*step.temp_name, Arc::clone(&step.temp_schema), rows.len());
    for row in rows {
        if row[step.key_index].is_null() {
            continue;
        }
        let _ = table.insert(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompileOptions;
    use crate::plan_choice::Planner;
    use galois_dataset::Scenario;
    use galois_llm::{ModelProfile, Parallelism, SimLlm};

    fn oracle_session() -> (Scenario, Galois) {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let g = Galois::new(model, s.database.clone());
        (s, g)
    }

    fn oracle_session_with_lanes(lanes: usize) -> (Scenario, Galois) {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let g = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                parallelism: Parallelism::new(lanes),
                ..Default::default()
            },
        );
        (s, g)
    }

    #[test]
    fn materialise_keeps_first_of_a_repeated_key_and_drops_null_keys() {
        let s = Scenario::generate(42);
        let plan = s
            .database
            .plan("SELECT name, population FROM city")
            .unwrap();
        let compiled =
            crate::compile::compile(&plan, s.database.catalog(), &CompileOptions::default())
                .unwrap();
        let step = &compiled.steps[0];
        let population = step.temp_schema.index_of("population").unwrap();
        let row = |key: Value, pop: Value| {
            let mut row = vec![Value::Null; step.columns().len()];
            row[step.key_index] = key;
            row[population] = pop;
            row
        };
        let table = materialise_step(
            step,
            vec![
                row("Rome".into(), Value::Int(1)),
                row(Value::Null, Value::Int(2)),
                row("Oslo".into(), Value::Null),
                row("Rome".into(), Value::Int(3)),
                row("rome".into(), Value::Int(4)),
            ],
        );
        let got: Vec<(String, Value)> = table
            .rows()
            .iter()
            .map(|r| (r[step.key_index].render(), r[population].clone()))
            .collect();
        assert_eq!(
            got,
            [
                ("Rome".to_string(), Value::Int(1)),
                ("Oslo".to_string(), Value::Null),
                ("rome".to_string(), Value::Int(4)),
            ]
        );
        assert_eq!(*table.name, *step.temp_name);
        assert!(Arc::ptr_eq(&table.schema, &step.temp_schema));
    }

    #[test]
    fn oracle_selection_matches_ground_truth() {
        let (s, g) = oracle_session();
        let sql = "SELECT name FROM city WHERE population > 1000000";
        let truth = s.database.execute(sql).unwrap();
        let got = g.execute(sql).unwrap();
        let mut a: Vec<String> = truth.rows.iter().map(|r| r[0].render()).collect();
        let mut b: Vec<String> = got.relation.rows.iter().map(|r| r[0].render()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(got.stats.total_prompts() > 0);
    }

    #[test]
    fn oracle_projection_values_match() {
        let (s, g) = oracle_session();
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let truth = s.database.execute(sql).unwrap();
        let got = g.execute(sql).unwrap();
        let key = |r: &Vec<Value>| (r[0].render(), r[1].render());
        let mut a: Vec<_> = truth.rows.iter().map(key).collect();
        let mut b: Vec<_> = got.relation.rows.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn oracle_aggregate_matches() {
        let (s, g) = oracle_session();
        let sql = "SELECT COUNT(*) FROM city";
        let truth = s.database.execute(sql).unwrap();
        let got = g.execute(sql).unwrap();
        assert_eq!(truth.rows, got.relation.rows);
    }

    #[test]
    fn oracle_group_by_matches() {
        let (s, g) = oracle_session();
        let sql = "SELECT continent, COUNT(*) FROM country GROUP BY continent ORDER BY continent";
        let truth = s.database.execute(sql).unwrap();
        let got = g.execute(sql).unwrap();
        assert_eq!(truth.rows, got.relation.rows);
    }

    #[test]
    fn oracle_join_matches() {
        let (s, g) = oracle_session();
        let sql = "SELECT p.name, r.electionYear FROM city p, cityMayor r WHERE p.mayor = r.name";
        let truth = s.database.execute(sql).unwrap();
        let got = g.execute(sql).unwrap();
        assert_eq!(truth.len(), got.relation.len());
    }

    #[test]
    fn hybrid_query_mixes_llm_and_db() {
        let (s, g) = oracle_session();
        // employees live only in the DB; country GDP comes from the LLM.
        let sql = "SELECT e.countryCode, AVG(e.salary), MAX(k.gdp) \
                   FROM DB.employees e, LLM.country k \
                   WHERE e.countryCode = k.code \
                   GROUP BY e.countryCode ORDER BY e.countryCode";
        let got = g.execute(sql).unwrap();
        assert!(!got.relation.is_empty());
        // Ground truth: the same query entirely inside the DB.
        let truth = s
            .database
            .execute(
                "SELECT e.countryCode, AVG(e.salary), MAX(k.gdp) \
                 FROM employees e, country k WHERE e.countryCode = k.code \
                 GROUP BY e.countryCode ORDER BY e.countryCode",
            )
            .unwrap();
        assert_eq!(truth.len(), got.relation.len());
    }

    #[test]
    fn noisy_model_misses_rows() {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::flan()));
        let g = Galois::new(model, s.database.clone());
        let sql = "SELECT name FROM city";
        let truth = s.database.execute(sql).unwrap();
        let got = g.execute(sql).unwrap();
        assert!(
            got.relation.len() < truth.len(),
            "flan returned {} of {}",
            got.relation.len(),
            truth.len()
        );
    }

    #[test]
    fn stats_count_prompt_kinds() {
        let (_, g) = oracle_session();
        let got = g
            .execute("SELECT name, population FROM city WHERE elevation < 100")
            .unwrap();
        assert!(got.stats.list_prompts >= 1);
        assert!(got.stats.filter_prompts > 0);
        assert!(got.stats.fetch_prompts > 0);
        assert!(got.stats.virtual_ms > 0);
    }

    #[test]
    fn sequential_serial_and_virtual_clocks_agree() {
        let (_, g) = oracle_session();
        let got = g
            .execute("SELECT name, population FROM city WHERE elevation < 100")
            .unwrap();
        assert_eq!(got.stats.virtual_ms, got.stats.serial_virtual_ms);
    }

    #[test]
    fn parallel_run_matches_sequential_results_and_counts() {
        let sql = "SELECT p.name, r.electionYear FROM city p, cityMayor r WHERE p.mayor = r.name";
        let (_, seq) = oracle_session_with_lanes(1);
        let base = seq.execute(sql).unwrap();
        for lanes in [2, 8] {
            let (_, par) = oracle_session_with_lanes(lanes);
            let got = par.execute(sql).unwrap();
            assert_eq!(got.relation.rows, base.relation.rows, "lanes {lanes}");
            assert_eq!(
                got.stats.total_prompts(),
                base.stats.total_prompts(),
                "lanes {lanes}"
            );
            assert_eq!(got.stats.cache_hits, base.stats.cache_hits, "lanes {lanes}");
            assert_eq!(
                got.stats.serial_virtual_ms, base.stats.serial_virtual_ms,
                "lanes {lanes}"
            );
            // Lanes can only shorten the virtual clock.
            assert!(
                got.stats.virtual_ms <= base.stats.virtual_ms,
                "lanes {lanes}"
            );
        }
    }

    #[test]
    fn parallel_join_is_virtually_faster() {
        let sql = "SELECT p.name, r.electionYear FROM city p, cityMayor r WHERE p.mayor = r.name";
        let (_, seq) = oracle_session_with_lanes(1);
        let (_, par) = oracle_session_with_lanes(8);
        let a = seq.execute(sql).unwrap();
        let b = par.execute(sql).unwrap();
        assert!(
            b.stats.virtual_ms * 2 <= a.stats.virtual_ms,
            "expected ≥2× on a two-step join: {} vs {}",
            a.stats.virtual_ms,
            b.stats.virtual_ms
        );
        assert!(b.stats.virtual_ms * 2 <= b.stats.serial_virtual_ms);
        assert!(b.stats.serial_virtual_ms <= 8 * b.stats.virtual_ms);
    }

    #[test]
    fn explain_shows_llm_steps() {
        let (_, g) = oracle_session();
        let text = g
            .explain("SELECT name FROM city WHERE population > 1000000")
            .unwrap();
        assert!(text.contains("[LLM step 1] scan city"));
        assert!(text.contains("planner: heuristic"));
        assert!(text.contains("cost: keys≈"));
        assert!(text.contains("[relational plan]"));
    }

    #[test]
    fn explain_reports_the_early_stop_window_for_limit_sessions() {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let sql = "SELECT name FROM city LIMIT 5 OFFSET 2";
        let (_, plain) = oracle_session();
        assert!(
            !plain.explain(sql).unwrap().contains("limit:"),
            "default sessions keep the pre-limit report"
        );
        let g = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                pipeline: Pipeline::StreamingLimit,
                ..Default::default()
            },
        );
        assert!(g
            .explain(sql)
            .unwrap()
            .contains("limit: early-stop after ~7 keys"));
        // Ineligible plan shapes stay tag-free even on a limit session.
        assert!(!g
            .explain("SELECT name FROM city ORDER BY population LIMIT 5")
            .unwrap()
            .contains("limit:"));
    }

    /// The "live overlay" rule of [`Galois::planning`]: the warm
    /// map is a shared snapshot, and a universe published between two
    /// plans is visible to the second.
    #[test]
    fn a_publish_between_two_plans_is_visible_to_the_second() {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let store = Arc::new(KeyUniverseStore::new());
        let session = || {
            Galois::with_options(
                model.clone(),
                s.database.clone(),
                GaloisOptions {
                    list_store: ListStore::Shared(Arc::clone(&store)),
                    ..Default::default()
                },
            )
        };
        let sql = "SELECT name, population FROM city";
        let g = session();
        let cold = g.explain(sql).unwrap();
        assert!(cold.contains("    list: cold\n"), "{cold}");
        assert_eq!(g.explain(sql).unwrap(), cold);
        let listed = g.execute(sql).unwrap().relation.rows.len();
        let warm = g.explain(sql).unwrap();
        assert!(
            warm.contains(&format!("    list: warm ({listed} keys)\n")),
            "{warm}"
        );
        // A session that never held the cold snapshot renders the same.
        assert_eq!(session().explain(sql).unwrap(), warm);
    }

    #[test]
    fn explain_statement_returns_query_plan_relation() {
        let (_, g) = oracle_session();
        let got = g
            .execute("EXPLAIN SELECT name FROM city WHERE population > 1000000")
            .unwrap();
        assert_eq!(got.stats.total_prompts(), 0, "EXPLAIN must not prompt");
        assert_eq!(&*got.relation.schema.columns[0].name, "QUERY PLAN");
        let text: Vec<String> = got.relation.rows.iter().map(|r| r[0].render()).collect();
        assert!(text.iter().any(|l| l.contains("[LLM step 1] scan city")));
        assert!(text.iter().any(|l| l.contains("virtual≈")));
    }

    #[test]
    fn planner_calibration_is_frozen_at_the_first_statement() {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let sql = "SELECT name FROM city WHERE population > 1000000";
        for planner in [Planner::Heuristic, Planner::CostBased] {
            let session = || {
                let options = GaloisOptions {
                    planner,
                    ..Default::default()
                };
                Galois::with_options(model.clone(), s.database.clone(), options)
            };
            let cold = session().explain(sql).unwrap();
            // The first statement, executed, freezes the cold-start
            // calibration: its prompts move the client stats, but the
            // frozen snapshot keeps the plan (and report) stable.
            let g = session();
            g.execute(sql).unwrap();
            assert_eq!(g.explain(sql).unwrap(), cold, "{planner}");
            g.execute(sql).unwrap();
            assert_eq!(g.explain(sql).unwrap(), cold, "{planner}");
            // The live reading has moved; the frozen one has not.
            let live = Calibration::observed(&g.client().stats());
            assert_ne!(live.prompt_latency_ms, Calibration::COLD.prompt_latency_ms);
            assert_eq!(g.calibration(), Calibration::COLD);
        }
    }

    #[test]
    fn cost_based_planner_preserves_results_with_fewer_prompts() {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let heuristic = Galois::new(model.clone(), s.database.clone());
        let cost_based = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                planner: Planner::CostBased,
                ..Default::default()
            },
        );
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let a = heuristic.execute(sql).unwrap();
        cost_based.client().clear_cache();
        let b = cost_based.execute(sql).unwrap();
        let sort = |rel: &Relation| {
            let mut rows: Vec<Vec<String>> = rel
                .rows
                .iter()
                .map(|r| r.iter().map(Value::render).collect())
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(sort(&a.relation), sort(&b.relation));
        assert!(
            b.stats.total_prompts() < a.stats.total_prompts(),
            "cost-based {} vs heuristic {}",
            b.stats.total_prompts(),
            a.stats.total_prompts()
        );
        assert!(b.stats.virtual_ms < a.stats.virtual_ms);
    }

    #[test]
    fn a_from_clause_naming_the_keyed_table_first_joins_on_its_index() {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let g = Galois::with_options(model, s.database.clone(), GaloisOptions::serving());
        let forward =
            "SELECT p.name, r.electionYear FROM city p, cityMayor r WHERE p.mayor = r.name";
        let reversed =
            "SELECT p.name, r.electionYear FROM cityMayor r, city p WHERE r.name = p.mayor";
        // The plan keeps the FROM order; the executor serves the join from
        // the left side's key instead.
        let text = g.explain(reversed).unwrap();
        assert!(
            text.contains("join order: r ⋈ p  (index join on r's key;"),
            "{text}"
        );
        let rows = |sql| {
            let mut rows: Vec<String> = (g.execute(sql).unwrap().relation.rows.iter())
                .map(|r| format!("{r:?}"))
                .collect();
            rows.sort_unstable();
            rows
        };
        let reversed_rows = rows(reversed);
        assert!(!reversed_rows.is_empty());
        assert_eq!(reversed_rows, rows(forward));
    }

    fn oracle_session_batched(batch: PromptBatch) -> (Scenario, Galois) {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let g = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                prompt_batch: batch,
                ..Default::default()
            },
        );
        (s, g)
    }

    #[test]
    fn batched_joins_and_aggregates_match_off() {
        for sql in [
            "SELECT p.name, r.electionYear FROM city p, cityMayor r WHERE p.mayor = r.name",
            "SELECT continent, COUNT(*) FROM country GROUP BY continent ORDER BY continent",
        ] {
            let (_, off) = oracle_session_batched(PromptBatch::Off);
            let (_, batched) = oracle_session_batched(PromptBatch::Grid { keys: 5, attrs: 1 });
            let a = off.execute(sql).unwrap();
            let b = batched.execute(sql).unwrap();
            assert_eq!(a.relation.rows, b.relation.rows, "{sql}");
        }
    }

    #[test]
    fn sub_entries_serve_repeat_queries_without_new_prompts() {
        let (_, g) = oracle_session_batched(PromptBatch::Grid { keys: 10, attrs: 1 });
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let first = g.execute(sql).unwrap();
        assert!(first.stats.filter_prompts > 0 && first.stats.fetch_prompts > 0);
        // A second run re-lists keys (raw prompt-cache hits), but every
        // filter/fetch key is served from per-key sub-entries: zero
        // batched prompts, zero fallbacks — chunk boundaries can no longer
        // even matter.
        let second = g.execute(sql).unwrap();
        assert_eq!(first.relation.rows, second.relation.rows);
        assert_eq!(second.stats.filter_prompts, 0);
        assert_eq!(second.stats.fetch_prompts, 0);
        assert!(second.stats.cache_hits > 0);
        assert!(second.stats.virtual_ms < first.stats.virtual_ms);
    }

    #[test]
    fn grid_mode_matches_off_relations_with_fewer_fetch_prompts() {
        let sql = "SELECT name, population, country FROM city WHERE elevation < 100";
        let (_, off) = oracle_session_batched(PromptBatch::Off);
        let a = off.execute(sql).unwrap();
        let (_, keys) = oracle_session_batched(PromptBatch::Grid { keys: 10, attrs: 1 });
        let b = keys.execute(sql).unwrap();
        let (_, grid) = oracle_session_batched(PromptBatch::Grid { keys: 10, attrs: 4 });
        let c = grid.execute(sql).unwrap();
        assert_eq!(a.relation.rows, c.relation.rows);
        // No fallback on the oracle: the attr-groups fuse the fetch
        // streams, ⌈C/A⌉ × ⌈keys/B⌉ prompts instead of C × ⌈keys/B⌉.
        assert!(
            c.stats.fetch_prompts < b.stats.fetch_prompts,
            "grid {} vs keys-only {}",
            c.stats.fetch_prompts,
            b.stats.fetch_prompts
        );
        assert!(c.stats.total_prompts() < b.stats.total_prompts());
        // The filter phase is untouched by attr fusion.
        assert_eq!(c.stats.filter_prompts, b.stats.filter_prompts);
    }

    #[test]
    fn grid_repeat_queries_are_served_from_sub_entries() {
        let (_, g) = oracle_session_batched(PromptBatch::Grid { keys: 10, attrs: 4 });
        let sql = "SELECT name, population, country FROM city WHERE elevation < 100";
        let first = g.execute(sql).unwrap();
        assert!(first.stats.fetch_prompts > 0);
        // Grid answers were stored per (key, attr): the repeat run's
        // fetch phase resolves entirely at sub-entry extraction.
        let second = g.execute(sql).unwrap();
        assert_eq!(first.relation.rows, second.relation.rows);
        assert_eq!(second.stats.filter_prompts, 0);
        assert_eq!(second.stats.fetch_prompts, 0);
        assert!(second.stats.cache_hits > 0);
    }

    fn oracle_session_pipelined(pipeline: Pipeline, lanes: usize) -> (Scenario, Galois) {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let g = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                pipeline,
                prompt_batch: PromptBatch::Grid { keys: 10, attrs: 1 },
                parallelism: Parallelism::new(lanes),
                ..Default::default()
            },
        );
        (s, g)
    }

    #[test]
    fn streaming_beats_the_wave_clock_with_lanes() {
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let (_, wave) = oracle_session_pipelined(Pipeline::Off, 8);
        let (_, stream) = oracle_session_pipelined(Pipeline::Streaming, 8);
        let a = wave.execute(sql).unwrap();
        let b = stream.execute(sql).unwrap();
        assert_eq!(a.relation.rows, b.relation.rows);
        assert_eq!(a.stats.total_prompts(), b.stats.total_prompts());
        assert_eq!(a.stats.cache_hits, b.stats.cache_hits);
        // The fetch micro-batches hide behind the exhausted-page check
        // instead of waiting at the phase barrier.
        assert!(
            b.stats.virtual_ms < a.stats.virtual_ms,
            "streaming {} vs wave {}",
            b.stats.virtual_ms,
            a.stats.virtual_ms
        );
    }

    #[test]
    fn streaming_single_lane_serialises_the_micro_batch_overheads() {
        // With one lane there is nothing to overlap: every micro-batch
        // pays its own request overhead back to back, while the wave
        // amortises overheads across up to `REQUEST_PROMPTS` prompts. The
        // documented trade-off — pipelining is a concurrency optimisation.
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let (_, wave) = oracle_session_pipelined(Pipeline::Off, 1);
        let (_, stream) = oracle_session_pipelined(Pipeline::Streaming, 1);
        let a = wave.execute(sql).unwrap();
        let b = stream.execute(sql).unwrap();
        assert_eq!(a.relation.rows, b.relation.rows);
        assert!(
            b.stats.virtual_ms >= a.stats.virtual_ms,
            "single-lane streaming {} must not beat the wave {}",
            b.stats.virtual_ms,
            a.stats.virtual_ms
        );
        // At one lane the event clock degenerates to a running sum.
        assert_eq!(b.stats.virtual_ms, b.stats.serial_virtual_ms);
    }

    #[test]
    fn phase_breakdown_locates_the_time() {
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let (_, wave) = oracle_session_pipelined(Pipeline::Off, 8);
        let (_, stream) = oracle_session_pipelined(Pipeline::Streaming, 8);
        let a = wave.execute(sql).unwrap();
        let b = stream.execute(sql).unwrap();
        // The list chain is identical in both dataflows (it is inherently
        // sequential); wave phases sum to the step clock pre-packing.
        assert_eq!(a.stats.list_virtual_ms, b.stats.list_virtual_ms);
        assert!(a.stats.list_virtual_ms > 0);
        assert!(a.stats.fetch_virtual_ms > 0);
        assert!(b.stats.fetch_virtual_ms > 0);
    }

    #[test]
    fn streaming_sessions_explain_the_pipeline() {
        let (_, g) = oracle_session_pipelined(Pipeline::Streaming, 8);
        let text = g
            .explain("SELECT name FROM city WHERE population > 1000000")
            .unwrap();
        assert!(text.contains("pipeline: streaming"));
        let (_, off) = oracle_session_pipelined(Pipeline::Off, 8);
        let text = off
            .explain("SELECT name FROM city WHERE population > 1000000")
            .unwrap();
        assert!(!text.contains("pipeline:"));
    }

    #[test]
    fn streaming_repeat_queries_are_served_from_sub_entries() {
        let (_, g) = oracle_session_pipelined(Pipeline::Streaming, 8);
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let first = g.execute(sql).unwrap();
        let second = g.execute(sql).unwrap();
        assert_eq!(first.relation.rows, second.relation.rows);
        assert_eq!(second.stats.filter_prompts, 0);
        assert_eq!(second.stats.fetch_prompts, 0);
        assert!(second.stats.cache_hits > 0);
        assert!(second.stats.virtual_ms < first.stats.virtual_ms);
    }

    #[test]
    fn pushdown_reduces_prompts() {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let plain = Galois::new(model.clone(), s.database.clone());
        let pushed = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                compile: CompileOptions { pushdown: true },
                ..Default::default()
            },
        );
        let sql = "SELECT name FROM city WHERE population > 1000000";
        let a = plain.execute(sql).unwrap();
        let b = pushed.execute(sql).unwrap();
        assert!(
            b.stats.total_prompts() < a.stats.total_prompts(),
            "pushdown {} vs plain {}",
            b.stats.total_prompts(),
            a.stats.total_prompts()
        );
    }
}
