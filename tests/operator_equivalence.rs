//! Operator-surface battery (PR 8): joins, grouped aggregates and LIMIT
//! windows over LLM relations, plus LIMIT-aware early termination.
//!
//! 1. **Defaults stay bit-exact** — `Pipeline::StreamingLimit` is opt-in,
//!    and *inert* wherever its precondition fails: on queries without a
//!    plain LIMIT window it reads exactly as `Pipeline::Streaming` does.
//!    Inert means bit-identical stat snapshots, not just equal rows.
//!    (Until PR 24 early stop was a knob of its own, `EarlyStop::Limit`,
//!    and a second case here held that it was inert under `Pipeline::Off`
//!    — wave retrieval has no per-key release points to cancel. With the
//!    window policy a variant of the only driver that can honour it, that
//!    state cannot be written down, and the case went with it.)
//! 2. **Oracle exactness** — every operator-suite family (LLM ⋈ LLM,
//!    LLM ⋈ stored, GROUP BY/HAVING, LIMIT) evaluates exactly against
//!    relational ground truth on the noise-free model, across the three
//!    pipelines and batch shapes.
//! 3. **Early-stop economics** — on a 100+-key concept, a streaming
//!    `LIMIT 10` under `Pipeline::StreamingLimit` returns exactly the full
//!    evaluation truncated, while issuing measurably fewer prompts.
//! 4. **Fallback safety under LIMIT** — a model that corrupts batched
//!    answers (forcing mid-flight fallback re-asks) must not make early
//!    stop skip keys whose verdicts fell back: the surfaced window still
//!    equals the clean engine's.
//! 5. **Property form** — for any seed × B × K × pipeline, `LIMIT n` on
//!    the noise-free model returns a result that full-evaluation-then-
//!    truncate admits, and never issues more prompts than the unlimited
//!    query.

mod common;

use common::{
    assert_stats_eq, options, oracle_session, session_with_model, small_config, sorted_rows,
    LineDropper, OptionsMatrix,
};
use galois::core::{GaloisOptions, ListStore, Pipeline, PromptBatch};
use galois::dataset::{build_operator_suite, OperatorCheck, Scenario, WorldConfig};
use galois::llm::{ModelProfile, SimLlm};
use galois::relational::{Relation, Value};
use proptest::prelude::*;
use std::sync::Arc;

fn rendered(rel: &Relation) -> Vec<Vec<String>> {
    rel.rows
        .iter()
        .map(|r| r.iter().map(Value::render).collect())
        .collect()
}

/// Checks one operator result against ground truth under the query's
/// scoring semantics.
fn check_against_truth(s: &Scenario, q: &galois::dataset::OperatorQuery, got: &Relation) {
    match &q.check {
        OperatorCheck::Exact => {
            let truth = s.database.execute(&q.sql).unwrap();
            assert_eq!(
                sorted_rows(got),
                sorted_rows(&truth),
                "op{} ({:?}) diverged from ground truth: {}",
                q.id,
                q.family,
                q.sql
            );
        }
        OperatorCheck::Window {
            unlimited_sql,
            n,
            offset,
        } => {
            let full = s.database.execute(unlimited_sql).unwrap();
            let full_rows = sorted_rows(&full);
            let expect = (*n).min(full.rows.len().saturating_sub(*offset));
            assert_eq!(got.rows.len(), expect, "op{} window size: {}", q.id, q.sql);
            for row in rendered(got) {
                assert!(
                    full_rows.contains(&row),
                    "op{}: row {row:?} not admitted by the unlimited truth: {}",
                    q.id,
                    q.sql
                );
            }
        }
    }
}

/// Early stop stays opt-in, and switching it on changes *nothing* on
/// queries without a plain LIMIT window — bit-identical stat snapshots
/// across the batch × lane matrix, over the paper suite (which contains no
/// LIMIT clause).
#[test]
fn limit_knob_is_inert_without_a_limit_window() {
    let s = Scenario::generate_with(42, small_config());
    assert!(
        !GaloisOptions::default().pipeline.stops_at_limit()
            && !GaloisOptions::serving().pipeline.stops_at_limit(),
        "neither preset stops early"
    );
    for base in OptionsMatrix::new()
        .pipelines(&[Pipeline::Streaming])
        .batches(&[PromptBatch::Off, PromptBatch::Keys(8)])
        .lanes(&[1, 4])
        .build()
    {
        let off = oracle_session(&s, base.clone());
        let on = oracle_session(
            &s,
            GaloisOptions {
                pipeline: Pipeline::StreamingLimit,
                ..base.clone()
            },
        );
        for spec in s.suite.iter().take(10) {
            let sql = spec.to_sql();
            let a = off.execute(&sql).unwrap();
            let b = on.execute(&sql).unwrap();
            assert_eq!(
                a.relation.rows, b.relation.rows,
                "q{} rows ({:?})",
                spec.id, base.prompt_batch
            );
            assert_stats_eq(
                &a.stats,
                &b.stats,
                &format!(
                    "q{} stats ({:?}, K={}): {sql}",
                    spec.id,
                    base.prompt_batch,
                    base.parallelism.get()
                ),
            );
        }
    }
}

/// Every operator family evaluates exactly on the noise-free model,
/// across the pipeline × batch matrix. This is the oracle
/// battery of the widened query surface: joins between two LLM scans,
/// joins against `DB.`-qualified stored tables, GROUP BY/HAVING
/// aggregates, and LIMIT/OFFSET windows.
#[test]
fn operator_suite_is_exact_on_the_oracle_across_the_matrix() {
    let s = Scenario::generate_with(42, small_config());
    let ops = build_operator_suite(&s.world);
    for opts in OptionsMatrix::new()
        .pipelines(&[Pipeline::Off, Pipeline::Streaming, Pipeline::StreamingLimit])
        .batches(&[
            PromptBatch::Off,
            PromptBatch::Keys(8),
            PromptBatch::Grid { keys: 8, attrs: 2 },
        ])
        .lanes(&[4])
        .build()
    {
        let session = oracle_session(&s, opts.clone());
        for q in &ops {
            let got = session
                .execute(&q.sql)
                .unwrap_or_else(|e| panic!("op{}: {}\n{e}", q.id, q.sql));
            check_against_truth(&s, q, &got.relation);
        }
    }
}

/// The headline economics (ISSUE acceptance): a streaming `LIMIT 10` over
/// a 100+-key concept under `Pipeline::StreamingLimit` surfaces exactly the rows
/// the full evaluation would keep, while issuing measurably fewer
/// prompts — the early stop cancels list pages and the per-key filter and
/// fetch work of keys past the covered window.
#[test]
fn early_stop_cuts_prompts_on_a_wide_concept() {
    let s = Scenario::generate_with(
        42,
        WorldConfig {
            countries: 6,
            cities: 120,
            airports: 6,
            singers: 6,
            concerts: 8,
            employees: 10,
        },
    );
    // A paged listing (10 keys per page) so the list phase has something
    // to cancel; the default oracle answers a whole concept in one page.
    let paged = ModelProfile {
        list_page_size: 10,
        ..ModelProfile::oracle()
    };
    let session = |pipeline: Pipeline| {
        galois::core::Galois::with_options(
            Arc::new(SimLlm::new(s.knowledge.clone(), paged.clone())),
            s.database.clone(),
            options(ListStore::Off, pipeline, PromptBatch::Keys(8), 4),
        )
    };
    for sql in [
        "SELECT name FROM city LIMIT 10",
        "SELECT name, population FROM city WHERE elevation < 3000 LIMIT 10",
        "SELECT name FROM city LIMIT 5 OFFSET 3",
    ] {
        let full = session(Pipeline::Streaming).execute(sql).unwrap();
        let early = session(Pipeline::StreamingLimit).execute(sql).unwrap();
        assert_eq!(
            early.relation.rows, full.relation.rows,
            "early stop changed the surfaced window: {sql}"
        );
        assert!(
            early.stats.total_prompts() < full.stats.total_prompts(),
            "{sql}: early {} vs full {} prompts — no measurable saving",
            early.stats.total_prompts(),
            full.stats.total_prompts()
        );
        assert!(
            early.stats.list_prompts < full.stats.list_prompts,
            "{sql}: early stop must cancel list paging ({} vs {})",
            early.stats.list_prompts,
            full.stats.list_prompts
        );
    }
}

/// Satellite: fallback safety under LIMIT. A `LineDropper` model corrupts
/// every batched filter/fetch answer, forcing mid-flight fallback
/// re-asks; with grid fusion, streaming and early stop all on, a key
/// whose filter verdict fell back must still be counted before the stop —
/// the surfaced window equals the clean engine's exactly.
#[test]
fn early_stop_waits_for_fallback_verdicts() {
    let s = Scenario::generate_with(42, small_config());
    let ops = build_operator_suite(&s.world);
    let clean = oracle_session(
        &s,
        options(ListStore::Off, Pipeline::Off, PromptBatch::Off, 1),
    );
    for lanes in [1usize, 8] {
        let flaky = session_with_model(
            Arc::new(LineDropper::oracle(&s)),
            &s,
            options(
                ListStore::Off,
                Pipeline::StreamingLimit,
                PromptBatch::Grid { keys: 8, attrs: 2 },
                lanes,
            ),
        );
        for q in ops
            .iter()
            .filter(|q| matches!(q.family, galois::dataset::OperatorFamily::Limit))
        {
            let a = clean.execute(&q.sql).unwrap();
            let b = flaky.execute(&q.sql).unwrap();
            assert_eq!(
                a.relation.rows, b.relation.rows,
                "op{} window diverged under corrupted batches at K={lanes}: {}",
                q.id, q.sql
            );
        }
    }
}

/// A LIMIT query that stops listing early must not poison the shared key
/// universe: the store records the partial listing as *non-exhausted*, so
/// a later unlimited query on the same session resumes paging and still
/// surfaces the complete relation.
#[test]
fn early_stopped_listings_do_not_poison_the_key_universe_store() {
    let s = Scenario::generate_with(
        42,
        WorldConfig {
            countries: 6,
            cities: 120,
            airports: 6,
            singers: 6,
            concerts: 8,
            employees: 10,
        },
    );
    let paged = ModelProfile {
        list_page_size: 10,
        ..ModelProfile::oracle()
    };
    let session = galois::core::Galois::with_options(
        Arc::new(SimLlm::new(s.knowledge.clone(), paged)),
        s.database.clone(),
        options(
            ListStore::On,
            Pipeline::StreamingLimit,
            PromptBatch::Keys(8),
            4,
        ),
    );
    let limited = session.execute("SELECT name FROM city LIMIT 10").unwrap();
    assert_eq!(limited.relation.rows.len(), 10);
    let full = session.execute("SELECT name FROM city").unwrap();
    let truth = s.database.execute("SELECT name FROM city").unwrap();
    assert_eq!(
        sorted_rows(&full.relation),
        sorted_rows(&truth),
        "resumed listing must complete the universe"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any seed × B × K × pipeline, `LIMIT n` over a selection query
    /// on the noise-free model returns exactly the full evaluation
    /// truncated to `n` — a result full-evaluation-then-truncate admits —
    /// and never issues more prompts than the unlimited query.
    #[test]
    fn limit_is_admissible_and_never_dearer_for_any_seed(
        seed in 0u64..10_000,
        qi in 0usize..20,
        n in 0usize..18,
        b in 1usize..12,
        lanes in 1usize..8,
        streaming in any::<bool>(),
    ) {
        let s = Scenario::generate_with(seed, small_config());
        let spec = &s.suite[qi];
        prop_assert!(matches!(
            spec.category,
            galois::dataset::QueryCategory::SelectionOnly
        ));
        // The window stops retrieval early only where a driver can.
        let (pipeline, windowed) = if streaming {
            (Pipeline::Streaming, Pipeline::StreamingLimit)
        } else {
            (Pipeline::Off, Pipeline::Off)
        };
        let base = options(ListStore::Off, pipeline, PromptBatch::Keys(b), lanes);
        let limited_sql = format!("{} LIMIT {n}", spec.to_sql());

        let unlimited = oracle_session(&s, base.clone())
            .execute(&spec.to_sql())
            .map_err(|e| TestCaseError::fail(format!("q{}: {e}", spec.id)))?;
        let limited = oracle_session(&s, GaloisOptions { pipeline: windowed, ..base })
            .execute(&limited_sql)
            .map_err(|e| TestCaseError::fail(format!("q{}: {e}", spec.id)))?;

        let want: Vec<_> = unlimited.relation.rows.iter().take(n).cloned().collect();
        prop_assert_eq!(
            &limited.relation.rows, &want,
            "q{} LIMIT {} is not the truncated full evaluation (B={}, K={}, {:?})",
            spec.id, n, b, lanes, pipeline
        );
        prop_assert!(
            limited.stats.total_prompts() <= unlimited.stats.total_prompts(),
            "q{} LIMIT {}: limited {} > unlimited {} prompts (B={}, K={}, {:?})",
            spec.id, n,
            limited.stats.total_prompts(), unlimited.stats.total_prompts(),
            b, lanes, pipeline
        );
    }
}
