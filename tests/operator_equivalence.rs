//! The operator surface (PR 8): joins, grouped aggregates and LIMIT
//! windows over LLM relations, plus LIMIT-aware early termination —
//! cells of the contract battery (`tests/common/contract.rs`), and the
//! early stop's own rules.
//!
//! 1. **Inert where it cannot act** — `Pipeline::StreamingLimit` is
//!    opt-in, and on statements without a plain LIMIT window it reads
//!    bit for bit as `Pipeline::Streaming` does.
//! 2. **Oracle exactness** — every operator-suite family (LLM ⋈ LLM,
//!    LLM ⋈ stored, GROUP BY/HAVING, LIMIT) passes its check against
//!    ground truth (`galois_eval::score_operator`) on the noise-free model,
//!    across the three pipelines and batch shapes.
//! 3. **Early-stop economics** — on a 100+-key concept, a streaming
//!    `LIMIT 10` under `Pipeline::StreamingLimit` returns exactly the full
//!    evaluation truncated, while issuing measurably fewer prompts.
//! 4. **Fallback safety under LIMIT** — corrupted batched answers must not
//!    make early stop skip keys whose verdicts fell back.
//! 5. **Property form** — for any seed × B × K × pipeline, `LIMIT n` on
//!    the noise-free model returns a result that full-evaluation-then-
//!    truncate admits, and never issues more prompts than the unlimited
//!    query.

mod common;

use common::contract::{
    fallback_restores_rows, operator_suite_is_exact, paged, Cell, Cmp, Contract, Model, Rows,
};
use common::{key_batch, options, oracle_session, small_config, sorted_rows, suite};
use galois::core::{GaloisOptions, ListStore, Pipeline, PromptBatch};
use galois::dataset::{QueryCategory, Scenario, WorldConfig};
use proptest::prelude::*;

/// A world whose 120 cities are a concept wide enough to stop early in.
fn wide_world() -> Scenario {
    let cities = WorldConfig {
        cities: 120,
        ..small_config()
    };
    Scenario::generate_with(42, cities)
}

#[test]
fn limit_knob_is_inert_without_a_limit_window() {
    let s = Scenario::generate_with(42, small_config());
    assert!(
        !GaloisOptions::default().pipeline.stops_at_limit()
            && !GaloisOptions::serving().pipeline.stops_at_limit(),
        "neither preset stops early"
    );
    let streaming = Cell::new(&s, GaloisOptions::default()).order(suite(&s)[..10].to_vec());
    for batch in [PromptBatch::Off, key_batch(8)] {
        for lanes in [1, 4] {
            let full = streaming.with(options(ListStore::Off, Pipeline::Streaming, batch, lanes));
            let early = options(ListStore::Off, Pipeline::StreamingLimit, batch, lanes);
            Contract::BIT_EXACT.check(&full, &[full.with(early)]);
        }
    }
}

#[test]
fn operator_suite_is_exact_on_the_oracle_across_the_matrix() {
    let s = Scenario::generate_with(42, small_config());
    for pipeline in [Pipeline::Off, Pipeline::Streaming, Pipeline::StreamingLimit] {
        for batch in [
            PromptBatch::Off,
            key_batch(8),
            PromptBatch::Grid { keys: 8, attrs: 2 },
        ] {
            operator_suite_is_exact(&Cell::new(&s, options(ListStore::Off, pipeline, batch, 4)));
        }
    }
}

/// The headline economics: a streaming `LIMIT 10` over a 100+-key
/// concept under `Pipeline::StreamingLimit` surfaces exactly the rows the
/// full evaluation would keep, while issuing measurably fewer prompts —
/// the early stop cancels list pages (ten keys a page here; the default
/// oracle answers a whole concept in one) and the per-key filter and
/// fetch work of keys past the covered window.
#[test]
fn early_stop_cuts_prompts_on_a_wide_concept() {
    let s = wide_world();
    let cheaper = Contract {
        rows: Rows::InOrder,
        bill: Some(Cmp::Lt),
        ..Contract::R_M
    };
    for sql in [
        "SELECT name FROM city LIMIT 10",
        "SELECT name, population FROM city WHERE elevation < 3000 LIMIT 10",
        "SELECT name FROM city LIMIT 5 OFFSET 3",
    ] {
        let full = options(ListStore::Off, Pipeline::Streaming, key_batch(8), 4);
        let full = Cell::new(&s, full).model(Model::Profile(paged(10)));
        let full = full.order(vec![sql.to_string()]);
        let early = GaloisOptions {
            pipeline: Pipeline::StreamingLimit,
            ..full.options.clone()
        };
        let (want, got) = (full.read(), full.with(early).read());
        cheaper.compare(&want, &got, sql);
        let lists = |passes: &[common::Pass]| passes[0].0[0].stats.list_prompts;
        assert!(
            lists(&got) < lists(&want),
            "{sql}: early stop must cancel list paging"
        );
    }
}

#[test]
fn early_stop_waits_for_fallback_verdicts() {
    let grid = PromptBatch::Grid { keys: 8, attrs: 4 };
    fallback_restores_rows(&[key_batch(8), grid], &[Pipeline::StreamingLimit]);
}

/// A LIMIT query that stops listing early must not poison the shared key
/// universe: the store records the partial listing as *non-exhausted*, so
/// a later unlimited query on the same session resumes paging and still
/// surfaces the complete relation.
#[test]
fn early_stopped_listings_do_not_poison_the_key_universe_store() {
    let s = wide_world();
    let early = options(ListStore::On, Pipeline::StreamingLimit, key_batch(8), 4);
    let session = Cell::new(&s, early)
        .model(Model::Profile(paged(10)))
        .session();
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
        prop_assert!(matches!(spec.category, QueryCategory::SelectionOnly));
        // The window stops retrieval early only where a driver can.
        let (pipeline, windowed) = if streaming {
            (Pipeline::Streaming, Pipeline::StreamingLimit)
        } else {
            (Pipeline::Off, Pipeline::Off)
        };
        let base = options(ListStore::Off, pipeline, key_batch(b), lanes);
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
