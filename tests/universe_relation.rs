//! Universe relations change no reading (PR 22).
//!
//! A warmed serving session keeps, per stored key universe, the table a
//! warm step materialised from it, and hands that `Arc<Table>` to every
//! later step over the universe that has no filter stage, no `LIMIT`
//! window and fetches only columns the table has filled
//! (`crates/core/src/session/typed.rs`). A served step stands for the
//! dataflow that would have built the same table from store hits, so
//! nothing a caller can observe may depend on which of the two ran: not
//! the rows, not their order, not one `QueryStats` or `ClientStats`
//! counter. This file holds that on the serving stack
//! (`grid_stack_options(8, 10, 6)`: streaming, cost planner, grid
//! batching, key-universe store) over the evaluation suite and the
//! operator suite on worlds {1, 7, 42} at x4, says through
//! `Galois::typed_stats` which steps were served, and then pulls on
//! everything that must keep a step from being served or its table from
//! being kept.

mod common;

use common::{
    assert_stats_eq, faulty_oracle, oracle_session, pass, permutation, read, serving_session,
    session_with_model, statements, Reading,
};
use galois::core::{
    limit_hint, CompileOptions, Galois, GaloisOptions, ListStore, Pipeline, Planner, PromptBatch,
    Resilience, RetryPolicy,
};
use galois::dataset::{build_operator_suite, OperatorCheck, Scenario};
use galois::llm::{FaultProfile, KeyUniverseStore, ModelProfile, SimLlm};
use galois::relational::Value;
use proptest::prelude::*;
use std::sync::{Arc, Barrier};

/// How a warm statement's steps must split, by its plan: a step with no
/// filter stage is served, one with a filter stage is built.
fn steps_by_plan(session: &Galois, sql: &str) -> (usize, usize) {
    let planned = session.plan(sql).unwrap().compiled;
    let filtered = |step: &&galois::core::LlmScanStep| !step.filter_conditions.is_empty();
    let built = planned.steps.iter().filter(filtered).count();
    (planned.steps.len() - built, built)
}

fn steps(readings: &[Reading]) -> (usize, usize) {
    let sum = |f: fn(&Reading) -> usize| readings.iter().map(f).sum();
    (sum(|r| r.served), sum(|r| r.built))
}

/// Served ≡ built. Pass 2 of a session builds every table from the store
/// and publishes it; passes 3 and 4 are handed the relations. Per
/// statement they return the same rows in order and the same `QueryStats`
/// in every field but `wall_ms`, and each pass adds the same to the
/// client's counters — on the oracle, and on a noisy model, whose
/// universes repeat keys, hold keys that clean to NULL (rows the table
/// drops, cells the bill still counts) and stored answers that fail to
/// parse.
#[test]
fn served_steps_read_what_built_steps_read() {
    let profiles = [ModelProfile::oracle(), ModelProfile::chatgpt()];
    for (seed, profile) in [1, 7, 42]
        .into_iter()
        .flat_map(|s| profiles.iter().map(move |p| (s, p)))
    {
        let scenario = Scenario::generate_scaled(seed, 4);
        let statements = statements(&scenario);
        let session = serving_session(&scenario, profile.clone(), GaloisOptions::serving());
        let seed = format!("{seed} ({})", profile.name);
        pass(&session, &statements);
        let second = pass(&session, &statements);
        let (_, built) = steps(&second.0);
        assert!(built > 0, "world {seed}: pass 2 builds from the store");
        assert_eq!(second.1.prompts, 0, "world {seed}: and asks nothing");
        for nth in [3, 4] {
            let later = pass(&session, &statements);
            let all = later.0.iter().zip(&second.0).zip(&statements);
            for ((later, second), sql) in all {
                let label = format!("world {seed} x4, pass {nth} against pass 2: {sql}");
                assert_eq!(later.rows, second.rows, "{label}");
                assert_stats_eq(&later.stats, &second.stats, &label);
                assert_eq!(
                    (later.served, later.built),
                    (second.served + second.built, 0),
                    "{label}: every step is served"
                );
            }
            assert_eq!(
                later.1, second.1,
                "world {seed}: client stats of pass {nth}"
            );
        }
        let kept = session.typed_stats();
        assert_eq!(kept.relations, kept.universes, "one table a universe");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Column superset. Statements run in a drawn order, so relations
    /// take their columns over from one another in varying order and
    /// every served statement reads a table filled by others too. What it
    /// reads equals, row for row, what the same session builds for it
    /// from fresh answers once `clear_cache` has retired every relation
    /// (the stored universes, and so the plans, stay as they were) — a
    /// table holding the statement's own columns and NULL elsewhere.
    #[test]
    fn a_served_table_filled_by_other_statements_reads_as_a_built_one(
        seed in prop::sample::select(vec![1u64, 7, 42]),
        order in any::<u64>(),
    ) {
        let scenario = Scenario::generate_scaled(seed, 4);
        let all = statements(&scenario);
        let drawn: Vec<String> = permutation(all.len(), order)
            .into_iter()
            .take(24)
            .map(|i| all[i].clone())
            .collect();
        let session = oracle_session(&scenario, GaloisOptions::serving());
        // In a drawn order a plan may settle — and list its universe —
        // as late as the second pass, which the third then builds from;
        // and a selection first planned over an already warm universe
        // keeps its per-key filter, so its step is built every time.
        for _ in 0..3 {
            pass(&session, &drawn);
        }
        let (served, client) = pass(&session, &drawn);
        prop_assert_eq!(client.prompts, 0);
        prop_assert!(steps(&served).0 > 12, "most steps are served");
        for (served, sql) in served.iter().zip(&drawn) {
            prop_assert_eq!((served.served, served.built), steps_by_plan(&session, sql), "{}", sql);
            session.client().clear_cache();
            let rebuilt = read(&session, sql);
            prop_assert_eq!(rebuilt.served, 0, "{}: retired", sql);
            prop_assert_eq!(&rebuilt.rows, &served.rows, "world {} x4: {}", seed, sql);
            prop_assert_eq!(rebuilt.stats.rows_retrieved, served.stats.rows_retrieved);
        }
    }
}

/// `LlmClient::clear_cache` retires every relation: the pass after it
/// asks the model again and builds every table, exactly as in a session
/// that had kept none, and returns the rows the served pass returned.
#[test]
fn clearing_the_client_cache_retires_the_relations() {
    let scenario = Scenario::generate_scaled(7, 4);
    let statements = statements(&scenario);
    let after_clear = |warm_passes: usize| {
        let session = oracle_session(&scenario, GaloisOptions::serving());
        let before = (0..warm_passes)
            .map(|_| pass(&session, &statements))
            .last()
            .expect("at least one pass");
        session.client().clear_cache();
        (before, pass(&session, &statements))
    };
    // One pass keeps almost nothing; four have served two whole passes.
    let (_, barely) = after_clear(1);
    let (before, kept) = after_clear(4);
    assert_eq!(steps(&before.0).1, 0, "pass 4 was served");
    assert!(kept.1.prompts > 0, "the cleared session prompts again");
    assert_eq!(barely.1, kept.1, "client stats after clear_cache");
    for (((b, k), s), sql) in barely.0.iter().zip(&kept.0).zip(&before.0).zip(&statements) {
        assert_eq!(b.rows, k.rows, "rows of {sql} after clear_cache");
        assert_stats_eq(
            &b.stats,
            &k.stats,
            &format!("stats of {sql} after clear_cache"),
        );
        assert_eq!(k.rows, s.rows, "rows of {sql} across clear_cache");
    }
}

/// A universe replaced in a shared store retires the relation built over
/// the old list: a session capped at one list page serves the partial
/// frontier as terminal — and keeps its ten-row table — until an
/// uncapped session pages past it and republishes; its next statements
/// then read the longer list, as a fresh session's do.
#[test]
fn a_republished_shared_universe_retires_the_relation() {
    let scenario = Scenario::generate_scaled(42, 4);
    let store = Arc::new(KeyUniverseStore::new());
    let paged = ModelProfile {
        list_page_size: 10,
        ..ModelProfile::oracle()
    };
    let session = |max_list_iterations: usize| {
        let options = GaloisOptions {
            max_list_iterations,
            list_store: ListStore::Shared(Arc::clone(&store)),
            ..GaloisOptions::serving()
        };
        let model = SimLlm::new(scenario.knowledge.clone(), paged.clone());
        session_with_model(Arc::new(model), &scenario, options)
    };
    let sql = [
        "SELECT name, population FROM city".to_string(),
        "SELECT name, country, population FROM city".to_string(),
    ];
    let capped = session(1);
    for _ in 0..3 {
        pass(&capped, &sql);
    }
    let partial = pass(&capped, &sql);
    assert_eq!(steps(&partial.0), (2, 0), "the partial frontier is served");
    assert_eq!(capped.typed_stats().relation_rows, 10);
    let full = pass(&session(100), &sql);
    let cities = scenario.world.cities.len();
    assert_eq!(full.0[0].rows.len(), cities);
    let republished = pass(&capped, &sql);
    let fresh = pass(&session(1), &sql);
    for (nth, sql) in sql.iter().enumerate() {
        assert_eq!(republished.0[nth].rows, full.0[nth].rows, "{sql}");
        assert_eq!(republished.0[nth].rows, fresh.0[nth].rows, "{sql}");
    }
    assert_eq!(
        republished.0[0].served, 0,
        "the old table is not the list's"
    );
    assert_eq!(capped.typed_stats().relation_rows, cities);
}

/// A step with a filter stage is never served and its table never kept,
/// whatever else the session serves: without pushdown every `WHERE`
/// condition is a per-key filter. Each statement's steps split exactly
/// as its compiled plan says, and the rows are those of a session that
/// reads the same plans through single-key prompts and keeps nothing.
#[test]
fn a_filter_stage_is_built_every_time() {
    let scenario = Scenario::generate_scaled(7, 4);
    let statements = statements(&scenario);
    let heuristic = |prompt_batch| GaloisOptions {
        planner: Planner::Heuristic,
        compile: CompileOptions {
            pushdown: false,
            ..CompileOptions::default()
        },
        prompt_batch,
        ..GaloisOptions::serving()
    };
    let session = oracle_session(&scenario, heuristic(GaloisOptions::serving().prompt_batch));
    let unbatched = oracle_session(&scenario, heuristic(PromptBatch::Off));
    for _ in 0..3 {
        pass(&session, &statements);
        pass(&unbatched, &statements);
    }
    let (readings, _) = pass(&session, &statements);
    let (reference, _) = pass(&unbatched, &statements);
    let mut filtered = 0;
    for ((reading, reference), sql) in readings.iter().zip(&reference).zip(&statements) {
        let by_plan = steps_by_plan(&session, sql);
        assert_eq!((reading.served, reading.built), by_plan, "{sql}");
        assert_eq!(reading.rows, reference.rows, "{sql}");
        filtered += by_plan.1;
    }
    assert!(filtered > 20, "the suite's selections all filter per key");
    // With the store on but the multi-key protocol off, warm cells ride
    // the prompt cache and are billed as prompts: no universe is typed.
    let kept = unbatched.typed_stats();
    assert_eq!(
        (kept.universes, kept.relations, kept.steps_served),
        (0, 0, 0)
    );
}

/// A `LIMIT` window prunes key slots, so its table is not the universe's:
/// under `Pipeline::StreamingLimit` the operator suite's plain windows are built
/// every time — over universes whose relations hold every column they
/// fetch — return what a session without early stop returns, and leave
/// the relations as they were for the same statements without a window.
#[test]
fn a_limit_window_is_built_every_time_and_keeps_nothing() {
    let scenario = Scenario::generate_scaled(42, 4);
    let early = GaloisOptions {
        pipeline: Pipeline::StreamingLimit,
        ..GaloisOptions::serving()
    };
    let session = oracle_session(&scenario, early);
    let plain = oracle_session(&scenario, GaloisOptions::serving());
    let (windows, unlimited): (Vec<String>, Vec<String>) = build_operator_suite(&scenario.world)
        .into_iter()
        .filter_map(|q| match q.check {
            OperatorCheck::Window { unlimited_sql, .. } => Some((q.sql, unlimited_sql)),
            OperatorCheck::Exact => None,
        })
        .filter(|(sql, _)| limit_hint(&session.plan(sql).unwrap().compiled).is_some())
        .unzip();
    assert!(windows.len() >= 2, "plain windows: {windows:?}");
    for _ in 0..2 {
        pass(&session, &unlimited);
        pass(&plain, &windows);
    }
    let (whole, _) = pass(&session, &unlimited);
    assert_eq!(steps(&whole), (unlimited.len(), 0));
    for _ in 0..2 {
        let (readings, _) = pass(&session, &windows);
        let (reference, _) = pass(&plain, &windows);
        for ((reading, reference), sql) in readings.iter().zip(&reference).zip(&windows) {
            assert_eq!(reading.rows, reference.rows, "{sql}");
            assert_eq!((reading.served, reading.built), (0, 1), "{sql}");
            assert_eq!(reading.stats.total_prompts(), 0, "{sql}");
        }
    }
    let (after, _) = pass(&session, &unlimited);
    assert_eq!(steps(&after), (unlimited.len(), 0));
    for ((after, whole), sql) in after.iter().zip(&whole).zip(&unlimited) {
        assert_eq!(after.rows, whole.rows, "{sql}");
    }
}

/// A degraded cell never enters a relation. A model that faults past the
/// retry budget leaves NULLs in a warm statement's rows (the session's
/// prompt cache holds on to them), and however often the statement is
/// repeated its table is never kept — while a statement over the same
/// universe that reads none of the degraded cells is. Fresh sessions over
/// the same model drain the fault schedule; the first that reads no
/// failed cell publishes, and is served, the fault-free relation.
#[test]
fn a_degraded_cell_never_enters_a_relation() {
    let scenario = Scenario::generate_scaled(7, 4);
    let sql = "SELECT name, population, country FROM city";
    let want = read(&oracle_session(&scenario, GaloisOptions::serving()), sql);
    let faults = FaultProfile {
        seed: 7,
        fault_rate: 1.0,
        truncated_weight: 0,
        ..FaultProfile::default()
    };
    let policy = RetryPolicy {
        max_retries: 1,
        breaker_threshold: u32::MAX,
        ..RetryPolicy::default()
    };
    let model = faulty_oracle(&scenario, faults);
    let session = || {
        let options = GaloisOptions {
            resilience: Resilience::On(policy),
            ..GaloisOptions::serving()
        };
        session_with_model(model.clone(), &scenario, options)
    };
    let stuck = session();
    let keys = "SELECT name FROM city";
    let mut degraded_warm_reads = 0;
    for nth in 0..6 {
        let reading = read(&stuck, sql);
        assert!(reading.stats.failed_cells > 0, "read {nth}");
        assert!(reading.rows.iter().flatten().any(Value::is_null));
        assert_eq!(reading.served, 0, "read {nth}");
        degraded_warm_reads += usize::from(reading.stats.list_prompts == 0);
        if nth == 3 {
            // Its key column alone is whole: kept, and served from then on.
            assert_eq!(stuck.typed_stats().relations, 0, "NULLs were kept");
            assert_eq!(read(&stuck, keys).built, 1);
        }
        if nth >= 3 {
            let names = read(&stuck, keys);
            assert_eq!((names.served, names.rows.len()), (1, want.rows.len()));
        }
    }
    assert!(degraded_warm_reads >= 3, "warm reads met exhausted retries");
    let drained = (0..12).map(|_| session()).find_map(|session| {
        let cold = read(&session, sql);
        (cold.stats.failed_cells == 0).then(|| (cold, read(&session, sql), read(&session, sql)))
    });
    let (cold, built, served) = drained.expect("the fault schedule drains");
    assert_eq!((built.served, served.served), (0, 1));
    for reading in [cold, built, served] {
        assert_eq!(reading.rows, want.rows);
    }
}

/// Only what the store said, whole: a step that had to ask for a cell
/// builds a table of fresh answers, which is not kept — the next run
/// reads them back from the store and publishes, the one after is served.
/// A keys-only statement publishes the bare key column and is served by
/// whatever relation the universe holds.
#[test]
fn a_table_of_freshly_asked_answers_is_not_kept() {
    let scenario = Scenario::generate_scaled(42, 4);
    let session = oracle_session(&scenario, GaloisOptions::serving());
    let keys = "SELECT COUNT(*) FROM city";
    let [listed, built, served] = [(); 3].map(|()| read(&session, keys));
    assert_eq!((listed.built, built.built, served.served), (1, 1, 1));
    let sql = "SELECT name, population FROM city";
    let [asked, built, served] = [(); 3].map(|()| read(&session, sql));
    assert!(asked.stats.fetch_prompts > 0 && asked.stats.list_prompts == 0);
    assert_eq!(built.stats.total_prompts(), 0);
    assert_eq!((asked.served, built.served, served.served), (0, 0, 1));
    assert_eq!(
        (asked.rows == built.rows, built.rows == served.rows),
        (true, true)
    );
    assert_stats_eq(&served.stats, &built.stats, sql);
    assert_eq!(read(&session, keys).served, 1);
}

/// A self-join reads one universe twice: both steps are handed the same
/// table, registered under each binding's temporary name.
#[test]
fn a_self_join_is_served_one_table_under_two_names() {
    let scenario = Scenario::generate_scaled(1, 4);
    let session = oracle_session(&scenario, GaloisOptions::serving());
    let sql = "SELECT p.name, r.name FROM city p, city r \
               WHERE p.country = r.country AND p.population < r.population";
    read(&session, sql);
    let built = read(&session, sql);
    assert_eq!((built.served, built.built), (0, 2));
    let served = read(&session, sql);
    assert_eq!((served.served, served.built), (2, 0));
    assert!(!served.rows.is_empty());
    assert_eq!(served.rows, built.rows);
    assert_stats_eq(&served.stats, &built.stats, sql);
    let kept = session.typed_stats();
    assert_eq!((kept.universes, kept.relations), (1, 1));
    assert_eq!(kept.relation_rows, scenario.world.cities.len());
}

/// Two threads running the same warm statements race to publish and to
/// be served: both read the single-threaded relations.
#[test]
fn two_threads_publish_and_are_served_the_same_rows() {
    let scenario = Scenario::generate_scaled(42, 4);
    let statements = statements(&scenario);
    let rows = |session: &Galois| -> Vec<Vec<Vec<Value>>> {
        let readings = statements.iter().map(|sql| read(session, sql));
        readings.map(|reading| reading.rows).collect()
    };
    // One pass: everything is stored, little is published yet. The plans
    // settle in the second, so a twin session's second pass is the
    // reference.
    let session = oracle_session(&scenario, GaloisOptions::serving());
    let twin = oracle_session(&scenario, GaloisOptions::serving());
    rows(&session);
    rows(&twin);
    let expected = rows(&twin);
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    (0..3).map(|_| rows(&session)).collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for pass in worker.join().expect("worker panicked") {
                for ((got, want), sql) in pass.iter().zip(&expected).zip(&statements) {
                    assert_eq!(got, want, "{sql}");
                }
            }
        }
    });
    let kept = session.typed_stats();
    assert_eq!(kept.relations, kept.universes);
    assert!(kept.steps_served > 0);
}
