//! Edge-case integration tests for the Galois session, run against the
//! noise-free oracle profile (failures here are engine bugs, not noise).

use galois_core::{Galois, GaloisOptions, Pipeline};
use galois_dataset::Scenario;
use galois_llm::{ModelProfile, SimLlm};
use galois_relational::Value;
use std::sync::Arc;

fn session(scenario: &Scenario) -> Galois {
    Galois::new(
        Arc::new(SimLlm::new(
            scenario.knowledge.clone(),
            ModelProfile::oracle(),
        )),
        scenario.database.clone(),
    )
}

/// Runs `check` on a fresh oracle session per retrieval driver — the
/// barrier-separated default and the streaming dataflow are two clocks
/// over one protocol, so an edge of the protocol is an edge of both.
fn under_both_pipelines(options: GaloisOptions, check: impl Fn(&Scenario, &Galois, Pipeline)) {
    let s = Scenario::generate(42);
    for pipeline in [Pipeline::Off, Pipeline::Streaming] {
        let g = Galois::with_options(
            Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle())),
            s.database.clone(),
            GaloisOptions {
                pipeline,
                ..options.clone()
            },
        );
        check(&s, &g, pipeline);
    }
}

#[test]
fn limit_and_order_by_over_llm_relation() {
    let s = Scenario::generate(42);
    let g = session(&s);
    let sql = "SELECT name FROM city ORDER BY population DESC LIMIT 3";
    let got = g.execute(sql).unwrap();
    let truth = s.database.execute(sql).unwrap();
    assert_eq!(got.relation.rows, truth.rows);
    assert_eq!(
        got.relation.schema.arity(),
        1,
        "hidden sort column stripped"
    );
}

#[test]
fn distinct_over_llm_relation() {
    let s = Scenario::generate(42);
    let g = session(&s);
    let sql = "SELECT DISTINCT country FROM city ORDER BY country";
    let got = g.execute(sql).unwrap();
    let truth = s.database.execute(sql).unwrap();
    assert_eq!(got.relation.rows, truth.rows);
}

#[test]
fn empty_selection_yields_empty_relation_not_error() {
    under_both_pipelines(GaloisOptions::default(), |_, g, pipeline| {
        // No city has a negative population.
        let got = g
            .execute("SELECT name FROM city WHERE population < 0")
            .unwrap();
        assert!(got.relation.is_empty(), "{pipeline:?}");
        assert_eq!(got.stats.fetch_prompts, 0, "{pipeline:?}: nothing survived");
    });
}

#[test]
fn global_aggregate_over_empty_llm_selection() {
    let s = Scenario::generate(42);
    let g = session(&s);
    let got = g
        .execute("SELECT COUNT(*), SUM(population) FROM city WHERE population < 0")
        .unwrap();
    assert_eq!(got.relation.rows[0][0], Value::Int(0));
    assert!(got.relation.rows[0][1].is_null());
}

#[test]
fn self_join_of_one_relation_under_two_bindings() {
    under_both_pipelines(GaloisOptions::default(), |s, g, pipeline| {
        // Pairs of distinct cities in the same country. Each binding gets
        // its own retrieval step and temp table.
        let sql = "SELECT a.name, b.name FROM city a, city b \
                   WHERE a.country = b.country AND a.name < b.name";
        let got = g.execute(sql).unwrap();
        let truth = s.database.execute(sql).unwrap();
        assert_eq!(got.relation.len(), truth.len(), "{pipeline:?}");
        assert!(
            got.stats.list_prompts >= 2,
            "{pipeline:?}: two scans expected"
        );
    });
}

#[test]
fn in_and_like_filters_via_prompts() {
    let s = Scenario::generate(42);
    let g = session(&s);
    let continent = s.world.countries[0].continent.clone();
    let sql = format!("SELECT name FROM country WHERE continent IN ('{continent}')");
    let got = g.execute(&sql).unwrap();
    let truth = s.database.execute(&sql).unwrap();
    assert_eq!(got.relation.len(), truth.len());
}

#[test]
fn between_filter_via_prompts() {
    let s = Scenario::generate(42);
    let g = session(&s);
    let sql = "SELECT name FROM city WHERE population BETWEEN 100000 AND 5000000";
    let got = g.execute(sql).unwrap();
    let truth = s.database.execute(sql).unwrap();
    assert_eq!(got.relation.len(), truth.len());
}

#[test]
fn is_not_null_filter_keeps_all_known_rows() {
    let s = Scenario::generate(42);
    let g = session(&s);
    let sql = "SELECT name FROM city WHERE population IS NOT NULL";
    let got = g.execute(sql).unwrap();
    let truth = s.database.execute(sql).unwrap();
    assert_eq!(got.relation.len(), truth.len());
}

#[test]
fn unknown_table_is_a_clean_error() {
    let s = Scenario::generate(42);
    let g = session(&s);
    let err = g.execute("SELECT x FROM volcanoes").unwrap_err();
    assert!(err.to_string().contains("volcanoes"), "{err}");
}

#[test]
fn aggregate_only_query_costs_no_fetch_prompts() {
    under_both_pipelines(GaloisOptions::default(), |s, g, pipeline| {
        // COUNT(*) needs keys only: no attribute fetches, no filters.
        let got = g.execute("SELECT COUNT(*) FROM city").unwrap();
        assert_eq!(got.stats.fetch_prompts, 0, "{pipeline:?}");
        assert_eq!(got.stats.filter_prompts, 0, "{pipeline:?}");
        assert!(got.stats.list_prompts > 0, "{pipeline:?}");
        let truth = s.database.execute("SELECT COUNT(*) FROM city").unwrap();
        assert_eq!(got.relation.rows, truth.rows, "{pipeline:?}");
    });
}

#[test]
fn stats_virtual_seconds_consistent_with_ms() {
    let s = Scenario::generate(42);
    let g = session(&s);
    let got = g.execute("SELECT COUNT(*) FROM country").unwrap();
    assert!((got.stats.virtual_seconds() - got.stats.virtual_ms as f64 / 1000.0).abs() < 1e-9);
}

#[test]
fn max_iterations_one_truncates_but_still_returns() {
    let capped = GaloisOptions {
        max_list_iterations: 1,
        ..Default::default()
    };
    under_both_pipelines(capped, |s, g, pipeline| {
        let got = g.execute("SELECT name FROM city").unwrap();
        // The oracle's page size is large enough for one page to be
        // complete, so this also guards the "no spurious repeats" property.
        let truth = s.database.execute("SELECT name FROM city").unwrap();
        assert!(!got.relation.is_empty(), "{pipeline:?}");
        assert!(got.relation.len() <= truth.len(), "{pipeline:?}");
        assert_eq!(got.stats.list_prompts, 1, "{pipeline:?}");
    });
}

/// `Pipeline::StreamingLimit` over an x10 relation: the window check that prunes
/// keys behind a covered `LIMIT` must issue the prompts and rows it always
/// has (pinned to the engine before the check stopped counting the
/// confirmed prefix while the window cannot yet be covered).
#[test]
fn limit_early_stop_over_an_x10_relation_keeps_its_prompts_and_rows() {
    use galois_core::{Parallelism, Pipeline, PromptBatch};
    let s = Scenario::generate_scaled(42, 10);
    let paged = ModelProfile {
        list_page_size: 25,
        ..ModelProfile::oracle()
    };
    let session = |batch, pipeline| {
        Galois::with_options(
            Arc::new(SimLlm::new(s.knowledge.clone(), paged.clone())),
            s.database.clone(),
            GaloisOptions {
                pipeline,
                prompt_batch: batch,
                parallelism: Parallelism::new(4),
                ..Default::default()
            },
        )
    };
    let sql = "SELECT name, population FROM city WHERE elevation < 400 LIMIT 5";
    for (batch, pinned) in [
        (PromptBatch::Off, (2, 25, 10, 2510)),
        (PromptBatch::Keys(8), (2, 4, 2, 753)),
    ] {
        let got = session(batch, Pipeline::StreamingLimit)
            .execute(sql)
            .unwrap();
        let full = session(batch, Pipeline::Streaming).execute(sql).unwrap();
        assert_eq!(got.relation.rows, full.relation.rows, "{batch:?}");
        assert_eq!(got.relation.len(), 5);
        let st = &got.stats;
        assert!(st.total_prompts() < full.stats.total_prompts() / 4);
        assert_eq!(
            (
                st.list_prompts,
                st.filter_prompts,
                st.fetch_prompts,
                st.virtual_ms as usize
            ),
            pinned,
            "{batch:?}: list, filter, fetch prompts and virtual ms"
        );
    }
}

/// `LIMIT` and `OFFSET` take any `u64`, so a window can exceed every
/// universe: `Pipeline::StreamingLimit` never covers it and returns what
/// `Pipeline::Streaming` returns, with no more prompts (the window once
/// reserved its `n + offset` slots up front and panicked on these).
#[test]
fn a_window_past_every_universe_runs_like_streaming() {
    let s = Scenario::generate(42);
    let session = |pipeline| {
        Galois::with_options(
            Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle())),
            s.database.clone(),
            GaloisOptions {
                pipeline,
                ..Default::default()
            },
        )
    };
    for (sql, rows) in [
        ("SELECT name FROM city LIMIT 9223372036854775807", 60),
        ("SELECT name FROM city LIMIT 18446744073709551615", 60),
        (
            "SELECT name FROM city LIMIT 5 OFFSET 18446744073709551615",
            0,
        ),
    ] {
        let full = session(Pipeline::Streaming).execute(sql).unwrap();
        let windowed = session(Pipeline::StreamingLimit).execute(sql).unwrap();
        assert_eq!(full.relation.len(), rows, "{sql}");
        assert_eq!(windowed.relation.rows, full.relation.rows, "{sql}");
        let prompts = |r: &galois_core::GaloisResult| {
            let st = &r.stats;
            (st.list_prompts, st.filter_prompts, st.fetch_prompts)
        };
        assert_eq!(prompts(&windowed), prompts(&full), "{sql}");
    }
}
