//! Suite runners regenerating the paper's experiments.
//!
//! * [`run_galois_suite`] — executes the 46 queries through Galois on one
//!   model (`R_M` per query), collecting cardinality, content and prompt
//!   statistics;
//! * [`run_baseline_suite`] — the QA baselines (`T_M`, `T_C_M`);
//! * [`table1`] / [`table2`] / [`timing_summary`] — the paper's reported
//!   artifacts.

use crate::cardinality::{average_diff, cardinality_diff_percent};
use crate::matching::{match_records, relation_to_records, MatchOutcome};
use crate::report::{percent0, signed1, TextTable};
use galois_core::{BaselineKind, Galois, GaloisOptions, GaloisResult, QaBaseline, QueryStats};
use galois_dataset::{OperatorCheck, OperatorQuery, QueryCategory, QuerySpec, Scenario};
use galois_llm::{lane_schedule, LanguageModel, ModelProfile, SimLlm};
use galois_relational::{Relation, Value};
use std::sync::Arc;
use std::time::Instant;

/// One query's outcome under Galois.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Query id (1-based).
    pub id: usize,
    /// Table-2 class.
    pub category: QueryCategory,
    /// `|R_D|`.
    pub truth_rows: usize,
    /// `|R_M|`.
    pub result_rows: usize,
    /// Cardinality diff % for this query.
    pub cardinality_diff: f64,
    /// Content matching outcome.
    pub matching: MatchOutcome,
    /// Prompt accounting.
    pub stats: QueryStats,
}

impl QueryOutcome {
    /// Scores one suite statement's result against the database's answer
    /// to `sql`, the statement's SQL. A statement that failed (`None`)
    /// returned nothing: it scores as an empty result with no accounting.
    pub(crate) fn score(
        scenario: &Scenario,
        spec: &QuerySpec,
        sql: &str,
        result: Option<&GaloisResult>,
    ) -> Self {
        let truth = truth(scenario, sql);
        let (records, stats) = match result {
            Some(r) => (relation_to_records(&r.relation), r.stats),
            None => (Vec::new(), QueryStats::default()),
        };
        QueryOutcome {
            id: spec.id,
            category: spec.category,
            truth_rows: truth.len(),
            result_rows: records.len(),
            cardinality_diff: cardinality_diff_percent(truth.len(), records.len()),
            matching: match_records(&truth, &records),
            stats,
        }
    }
}

/// A full Galois suite run on one model.
#[derive(Debug, Clone)]
pub struct GaloisRun {
    /// Model profile name.
    pub model: String,
    /// Per-query outcomes, in suite order.
    pub outcomes: Vec<QueryOutcome>,
    /// Real wall-clock milliseconds for the whole suite.
    pub wall_ms: u64,
}

impl GaloisRun {
    /// Average cardinality difference (%), paper Table 1 cell.
    pub fn average_cardinality_diff(&self) -> f64 {
        let pairs: Vec<(usize, usize)> = self
            .outcomes
            .iter()
            .map(|o| (o.truth_rows, o.result_rows))
            .collect();
        average_diff(&pairs).0
    }

    /// Mean content score over a category filter (`None` = all).
    pub fn content_score(&self, category: Option<QueryCategory>) -> f64 {
        let scores: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| category.map(|c| o.category == c).unwrap_or(true))
            .map(|o| o.matching.score())
            .collect();
        if scores.is_empty() {
            0.0
        } else {
            scores.iter().sum::<f64>() / scores.len() as f64
        }
    }
}

/// Ground truth for one of the scenario's generated statements.
///
/// The suites are generated over the scenario's own schema, so the
/// database executes every statement they hold: a failure is a bug in the
/// generator.
pub(crate) fn truth(scenario: &Scenario, sql: &str) -> Relation {
    match scenario.database.execute(sql) {
        Ok(truth) => truth,
        Err(e) => unreachable!("ground truth for {sql}: {e}"),
    }
}

/// Builds the simulated model for a profile over the scenario's knowledge.
pub fn model_for(scenario: &Scenario, profile: ModelProfile) -> Arc<dyn LanguageModel> {
    Arc::new(SimLlm::new(scenario.knowledge.clone(), profile))
}

/// Runs all 46 queries through a fresh Galois session on the given model,
/// in suite order.
pub fn run_galois_suite(
    scenario: &Scenario,
    profile: ModelProfile,
    options: GaloisOptions,
) -> GaloisRun {
    let model_name = profile.name.clone();
    let model = model_for(scenario, profile);
    let galois = Galois::with_options(model, scenario.database.clone(), options);
    run_galois_suite_on(scenario, &galois, &model_name)
}

/// Runs all 46 queries through an *existing* Galois session, in suite
/// order.
///
/// Separated from [`run_galois_suite`] (which constructs a fresh session)
/// so callers can run the suite repeatedly on one session and measure what
/// session-lived state — the prompt cache, and the key-universe store when
/// [`galois_core::ListStore`] is enabled — buys the second pass.
pub fn run_galois_suite_on(scenario: &Scenario, galois: &Galois, model_name: &str) -> GaloisRun {
    let started = Instant::now();
    let outcomes = scenario
        .suite
        .iter()
        .map(|spec| {
            let sql = spec.to_sql();
            QueryOutcome::score(scenario, spec, &sql, galois.execute(&sql).ok().as_ref())
        })
        .collect();
    GaloisRun {
        model: model_name.to_string(),
        outcomes,
        wall_ms: started.elapsed().as_millis() as u64,
    }
}

/// Aggregate prompt/latency accounting over one Galois suite run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuiteTotals {
    /// Prompts that reached the model or cache, across all queries.
    pub prompts: usize,
    /// Cache hits across all queries.
    pub cache_hits: usize,
    /// Sum of per-query single-lane virtual time (the pre-scheduler
    /// "total virtual_ms" of the suite).
    pub serial_virtual_ms: u64,
    /// Virtual makespan of the suite: per-query virtual times packed onto
    /// `lanes` concurrent query streams (equals `serial_virtual_ms` when
    /// both the session parallelism and `lanes` are 1).
    pub virtual_ms: u64,
    /// Virtual milliseconds attributed to the key-listing phase, summed
    /// over queries — where the remaining model time lives, per protocol
    /// phase (see [`galois_core::QueryStats::list_virtual_ms`] for the
    /// per-query accounting rule; phases overlap on the lanes, so the
    /// three fields need not sum to `virtual_ms`).
    pub list_virtual_ms: u64,
    /// Virtual milliseconds attributed to the filter phase, summed over
    /// queries.
    pub filter_virtual_ms: u64,
    /// Virtual milliseconds attributed to the attribute-fetch phase,
    /// summed over queries.
    pub fetch_virtual_ms: u64,
    /// Real wall-clock milliseconds for the run.
    pub wall_ms: u64,
    /// Virtual milliseconds queries waited in the cross-query admission
    /// queue, summed over queries (always zero outside the concurrent
    /// harness — see [`galois_core::QueryStats::queue_ms`]).
    pub queue_ms: u64,
}

impl SuiteTotals {
    /// Folds per-query stats, packing the queries' virtual clocks onto
    /// `lanes` modelled concurrent query streams for the suite makespan.
    pub fn from_stats<'a>(
        stats: impl IntoIterator<Item = &'a QueryStats>,
        lanes: usize,
        wall_ms: u64,
    ) -> SuiteTotals {
        let stats: Vec<&QueryStats> = stats.into_iter().collect();
        SuiteTotals {
            prompts: stats.iter().map(|s| s.total_prompts()).sum(),
            cache_hits: stats.iter().map(|s| s.cache_hits).sum(),
            serial_virtual_ms: stats.iter().map(|s| s.serial_virtual_ms).sum(),
            virtual_ms: lane_schedule(stats.iter().map(|s| s.virtual_ms), lanes),
            list_virtual_ms: stats.iter().map(|s| s.list_virtual_ms).sum(),
            filter_virtual_ms: stats.iter().map(|s| s.filter_virtual_ms).sum(),
            fetch_virtual_ms: stats.iter().map(|s| s.fetch_virtual_ms).sum(),
            wall_ms,
            queue_ms: stats.iter().map(|s| s.queue_ms).sum(),
        }
    }
}

/// Folds a run's per-query stats into [`SuiteTotals`], modelling `lanes`
/// concurrent query streams for the suite-level virtual makespan.
pub fn suite_totals(run: &GaloisRun, lanes: usize) -> SuiteTotals {
    SuiteTotals::from_stats(run.outcomes.iter().map(|o| &o.stats), lanes, run.wall_ms)
}

/// One query's outcome under a QA baseline.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Query id.
    pub id: usize,
    /// Table-2 class.
    pub category: QueryCategory,
    /// Content matching outcome.
    pub matching: MatchOutcome,
    /// Virtual milliseconds spent answering the question.
    pub virtual_ms: u64,
}

/// A QA baseline run over the suite.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Model profile name.
    pub model: String,
    /// Baseline flavour.
    pub kind: BaselineKind,
    /// Per-query outcomes.
    pub outcomes: Vec<BaselineOutcome>,
    /// Real wall-clock milliseconds for the whole suite.
    pub wall_ms: u64,
}

impl BaselineRun {
    /// Mean content score over a category filter (`None` = all).
    pub fn content_score(&self, category: Option<QueryCategory>) -> f64 {
        let scores: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| category.map(|c| o.category == c).unwrap_or(true))
            .map(|o| o.matching.score())
            .collect();
        if scores.is_empty() {
            0.0
        } else {
            scores.iter().sum::<f64>() / scores.len() as f64
        }
    }
}

/// Runs the NL-question baseline over the suite, in suite order.
pub fn run_baseline_suite(
    scenario: &Scenario,
    profile: ModelProfile,
    kind: BaselineKind,
) -> BaselineRun {
    let started = Instant::now();
    let model_name = profile.name.clone();
    let baseline = QaBaseline::new(model_for(scenario, profile));
    let outcomes = scenario
        .suite
        .iter()
        .map(|spec| {
            let truth = truth(scenario, &spec.to_sql());
            let result = baseline.ask(&spec.question(), kind);
            BaselineOutcome {
                id: spec.id,
                category: spec.category,
                matching: match_records(&truth, &result.records),
                virtual_ms: result.virtual_ms,
            }
        })
        .collect();
    BaselineRun {
        model: model_name,
        kind,
        outcomes,
        wall_ms: started.elapsed().as_millis() as u64,
    }
}

/// Regenerates **Table 1**: average cardinality difference per model.
pub fn table1(scenario: &Scenario, profiles: &[ModelProfile]) -> (TextTable, Vec<(String, f64)>) {
    let mut table = TextTable::new(&["model", "diff as % of |R_D|"]);
    let mut values = Vec::new();
    for profile in profiles {
        let run = run_galois_suite(scenario, profile.clone(), GaloisOptions::default());
        let avg = run.average_cardinality_diff();
        table.row(vec![run.model.clone(), signed1(avg)]);
        values.push((run.model, avg));
    }
    (table, values)
}

/// The three method rows of Table 2.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Galois (`R_M`) scores: (all, selections, aggregates, joins).
    pub galois: (f64, f64, f64, f64),
    /// Plain QA (`T_M`) scores.
    pub qa: (f64, f64, f64, f64),
    /// CoT QA (`T_C_M`) scores.
    pub cot: (f64, f64, f64, f64),
}

impl Table2 {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["method", "All", "Selections", "Aggregates", "Joins only"]);
        for (label, s) in [
            ("R_M (SQL queries)", &self.galois),
            ("T_M (NL questions)", &self.qa),
            ("T_C_M (NL quest.+CoT)", &self.cot),
        ] {
            t.row(vec![
                label.to_string(),
                percent0(s.0),
                percent0(s.1),
                percent0(s.2),
                percent0(s.3),
            ]);
        }
        t.render()
    }
}

/// Regenerates **Table 2** on one model (the paper uses ChatGPT).
pub fn table2(scenario: &Scenario, profile: ModelProfile) -> Table2 {
    let by_cat = |scores: &dyn Fn(Option<QueryCategory>) -> f64| {
        (
            scores(None),
            scores(Some(QueryCategory::SelectionOnly)),
            scores(Some(QueryCategory::Aggregate)),
            scores(Some(QueryCategory::Join)),
        )
    };
    let galois_run = run_galois_suite(scenario, profile.clone(), GaloisOptions::default());
    let qa_run = run_baseline_suite(scenario, profile.clone(), BaselineKind::Plain);
    let cot_run = run_baseline_suite(scenario, profile, BaselineKind::ChainOfThought);
    Table2 {
        galois: by_cat(&|c| galois_run.content_score(c)),
        qa: by_cat(&|c| qa_run.content_score(c)),
        cot: by_cat(&|c| cot_run.content_score(c)),
    }
}

/// Rendered rows — the comparison key the operator checks use.
fn rendered(rel: &Relation) -> Vec<Vec<String>> {
    let render = |row: &Vec<Value>| row.iter().map(Value::render).collect();
    rel.rows.iter().map(render).collect()
}

/// Scores one operator-suite query's result (`None`: its execution
/// failed, which fails the query) against ground truth under its check:
/// `Exact` must reproduce the truth as a multiset; `Window` must surface
/// exactly `min(n, |truth| − offset)` rows, all admitted by the unlimited
/// truth. Returns `|R_D|` (for `Window`, the unlimited truth's) and the
/// verdict.
pub fn score_operator(
    scenario: &Scenario,
    query: &OperatorQuery,
    got: Option<&Relation>,
) -> (usize, bool) {
    let (sql, window) = match &query.check {
        OperatorCheck::Exact => (&query.sql, None),
        OperatorCheck::Window {
            unlimited_sql,
            n,
            offset,
        } => (unlimited_sql, Some((*n, *offset))),
    };
    let mut admitted = rendered(&truth(scenario, sql));
    admitted.sort();
    let passed = got.is_some_and(|got| {
        let mut rows = rendered(got);
        match window {
            None => {
                rows.sort();
                rows == admitted
            }
            Some((n, offset)) => {
                rows.len() == n.min(admitted.len().saturating_sub(offset))
                    && rows.iter().all(|row| admitted.binary_search(row).is_ok())
            }
        }
    });
    (admitted.len(), passed)
}

/// Prompt/latency distribution over a run (paper §5: "GPT-3 takes ∼20
/// seconds to execute a query (∼110 batched prompts per query).
/// Distributions for these metrics are skewed").
#[derive(Debug, Clone, Copy)]
pub struct TimingSummary {
    /// Mean prompts per query.
    pub mean_prompts: f64,
    /// Median prompts per query.
    pub median_prompts: f64,
    /// 90th-percentile prompts per query.
    pub p90_prompts: f64,
    /// Mean virtual seconds per query.
    pub mean_seconds: f64,
    /// Median virtual seconds per query.
    pub median_seconds: f64,
    /// 90th-percentile virtual seconds.
    pub p90_seconds: f64,
}

/// Summarises the prompt/latency distribution of a run.
pub fn timing_summary(run: &GaloisRun) -> TimingSummary {
    let mut prompts: Vec<f64> = run
        .outcomes
        .iter()
        .map(|o| o.stats.total_prompts() as f64)
        .collect();
    let mut seconds: Vec<f64> = run
        .outcomes
        .iter()
        .map(|o| o.stats.virtual_seconds())
        .collect();
    prompts.sort_by(f64::total_cmp);
    seconds.sort_by(f64::total_cmp);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let pct = |v: &[f64], p: f64| {
        if v.is_empty() {
            0.0
        } else {
            v[((v.len() - 1) as f64 * p).round() as usize]
        }
    };
    TimingSummary {
        mean_prompts: mean(&prompts),
        median_prompts: pct(&prompts, 0.5),
        p90_prompts: pct(&prompts, 0.9),
        mean_seconds: mean(&seconds),
        median_seconds: pct(&seconds, 0.5),
        p90_seconds: pct(&seconds, 0.9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galois_dataset::OperatorFamily;

    fn small_scenario() -> Scenario {
        // Smaller world keeps harness tests quick while exercising every
        // query shape.
        Scenario::generate_with(
            42,
            galois_dataset::WorldConfig {
                countries: 8,
                cities: 20,
                airports: 10,
                singers: 10,
                concerts: 12,
                employees: 15,
            },
        )
    }

    #[test]
    fn oracle_run_is_nearly_perfect() {
        let s = small_scenario();
        let run = run_galois_suite(&s, ModelProfile::oracle(), GaloisOptions::default());
        assert_eq!(run.outcomes.len(), 46);
        let diff = run.average_cardinality_diff();
        assert!(diff.abs() < 2.0, "oracle diff {diff}");
        let all = run.content_score(None);
        assert!(all > 0.95, "oracle content {all}");
    }

    #[test]
    fn noisy_model_is_worse_than_oracle() {
        let s = small_scenario();
        let oracle = run_galois_suite(&s, ModelProfile::oracle(), GaloisOptions::default());
        let flan = run_galois_suite(&s, ModelProfile::flan(), GaloisOptions::default());
        assert!(flan.average_cardinality_diff() < oracle.average_cardinality_diff() - 10.0);
        assert!(flan.content_score(None) < oracle.content_score(None));
    }

    #[test]
    fn baseline_run_produces_scores() {
        let s = small_scenario();
        let run = run_baseline_suite(&s, ModelProfile::oracle(), BaselineKind::Plain);
        assert_eq!(run.outcomes.len(), 46);
        let all = run.content_score(None);
        assert!(all > 0.5, "oracle QA score {all}");
    }

    #[test]
    fn timing_summary_is_consistent() {
        let s = small_scenario();
        let run = run_galois_suite(&s, ModelProfile::oracle(), GaloisOptions::default());
        let t = timing_summary(&run);
        assert!(t.mean_prompts > 1.0);
        assert!(t.p90_prompts >= t.median_prompts);
        assert!(t.mean_seconds > 0.0);
    }

    #[test]
    fn table1_has_all_models() {
        let s = small_scenario();
        let (table, values) = table1(&s, &[ModelProfile::oracle()]);
        assert_eq!(values.len(), 1);
        assert!(table.render().contains("oracle"));
    }

    /// A statement that failed returned nothing, which is not the empty
    /// relation a query with an empty truth (or a window past its end)
    /// expects.
    #[test]
    fn a_failed_statement_fails_where_the_truth_is_empty() {
        let s = small_scenario();
        let query = |sql: &str, check| OperatorQuery {
            id: 1,
            family: OperatorFamily::Limit,
            sql: sql.to_string(),
            check,
        };
        let past_the_end = OperatorCheck::Window {
            unlimited_sql: "SELECT name FROM country".to_string(),
            n: 2,
            offset: 1000,
        };
        for q in [
            query(
                "SELECT name FROM city WHERE population < 0",
                OperatorCheck::Exact,
            ),
            query("SELECT name FROM country LIMIT 2 OFFSET 1000", past_the_end),
        ] {
            let empty = truth(&s, &q.sql);
            assert!(empty.is_empty(), "{}", q.sql);
            assert!(score_operator(&s, &q, Some(&empty)).1, "{}", q.sql);
            assert!(!score_operator(&s, &q, None).1, "{}", q.sql);
        }
    }

    #[test]
    fn cost_based_planner_is_cheaper_suite_wide() {
        let s = small_scenario();
        let heuristic = run_galois_suite(&s, ModelProfile::oracle(), GaloisOptions::default());
        let cost_based = run_galois_suite(
            &s,
            ModelProfile::oracle(),
            GaloisOptions {
                planner: galois_core::Planner::CostBased,
                ..Default::default()
            },
        );
        // Identical relations (the planner only reshapes the prompt
        // schedule), strictly cheaper accounting.
        assert_eq!(
            heuristic.content_score(None),
            cost_based.content_score(None)
        );
        assert_eq!(
            heuristic.average_cardinality_diff(),
            cost_based.average_cardinality_diff()
        );
        let h = suite_totals(&heuristic, 1);
        let c = suite_totals(&cost_based, 1);
        assert!(c.prompts < h.prompts, "{} vs {}", c.prompts, h.prompts);
        assert!(
            c.virtual_ms < h.virtual_ms,
            "{} vs {}",
            c.virtual_ms,
            h.virtual_ms
        );
    }

    #[test]
    fn batched_suite_is_cheaper_with_identical_scores() {
        let s = small_scenario();
        let off = run_galois_suite(&s, ModelProfile::oracle(), GaloisOptions::default());
        let batched = run_galois_suite(
            &s,
            ModelProfile::oracle(),
            GaloisOptions {
                prompt_batch: galois_core::PromptBatch::Grid { keys: 10, attrs: 1 },
                ..Default::default()
            },
        );
        // Identical result relations (batching only reshapes the prompt
        // schedule on a noise-free model), strictly cheaper accounting.
        assert_eq!(off.content_score(None), batched.content_score(None));
        assert_eq!(
            off.average_cardinality_diff(),
            batched.average_cardinality_diff()
        );
        let a = suite_totals(&off, 1);
        let b = suite_totals(&batched, 1);
        assert!(b.prompts < a.prompts, "{} vs {}", b.prompts, a.prompts);
        assert!(
            b.virtual_ms < a.virtual_ms,
            "{} vs {}",
            b.virtual_ms,
            a.virtual_ms
        );
    }

    #[test]
    fn phase_breakdown_accounts_for_the_sequential_clock() {
        let s = small_scenario();
        let run = run_galois_suite(&s, ModelProfile::oracle(), GaloisOptions::default());
        let t = suite_totals(&run, 1);
        assert!(t.list_virtual_ms > 0);
        assert!(t.fetch_virtual_ms > 0);
        // At Parallelism(1) each query's wave phases sum to its virtual
        // clock, so the suite phases sum to the serial total exactly.
        assert_eq!(
            t.list_virtual_ms + t.filter_virtual_ms + t.fetch_virtual_ms,
            t.serial_virtual_ms
        );
    }

    #[test]
    fn pipelined_suite_matches_batched_accounting_with_lower_makespan() {
        let s = small_scenario();
        let lanes = 8;
        let batched = GaloisOptions {
            parallelism: galois_llm::Parallelism::new(lanes),
            planner: galois_core::Planner::CostBased,
            prompt_batch: galois_core::PromptBatch::Grid { keys: 10, attrs: 1 },
            ..Default::default()
        };
        let pipelined = GaloisOptions {
            pipeline: galois_core::Pipeline::Streaming,
            ..batched.clone()
        };
        let a = run_galois_suite(&s, ModelProfile::oracle(), batched);
        let b = run_galois_suite(&s, ModelProfile::oracle(), pipelined);
        assert_eq!(a.content_score(None), b.content_score(None));
        assert_eq!(a.average_cardinality_diff(), b.average_cardinality_diff());
        let at = suite_totals(&a, lanes);
        let bt = suite_totals(&b, lanes);
        // Streaming issues exactly the wave pipeline's prompts …
        assert_eq!(at.prompts, bt.prompts);
        assert_eq!(at.cache_hits, bt.cache_hits);
        // … but stops idling at the phase barriers.
        assert!(
            bt.virtual_ms < at.virtual_ms,
            "pipelined {} vs batched {}",
            bt.virtual_ms,
            at.virtual_ms
        );
    }

    #[test]
    fn scheduled_suite_is_virtually_faster() {
        let s = small_scenario();
        let lanes = 8;
        let sequential = run_galois_suite(&s, ModelProfile::oracle(), GaloisOptions::default());
        let scheduled = run_galois_suite(
            &s,
            ModelProfile::oracle(),
            GaloisOptions {
                parallelism: galois_llm::Parallelism::new(lanes),
                ..Default::default()
            },
        );
        let before = suite_totals(&sequential, 1);
        let after = suite_totals(&scheduled, lanes);
        assert_eq!(before.virtual_ms, before.serial_virtual_ms);
        assert!(
            after.virtual_ms * 4 <= before.virtual_ms,
            "expected ≥4× lower suite virtual time: {} vs {}",
            before.virtual_ms,
            after.virtual_ms
        );
    }
}
