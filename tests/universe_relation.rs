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
//! counter. The contract battery (`tests/common/contract.rs`) holds that
//! on the serving stack over the evaluation and operator suites on the
//! x4 worlds; this file runs it on the cells `typed_cells.rs` does not,
//! says through `Galois::typed_stats` which steps were served, and pulls
//! on everything that must keep a step from being served or its table
//! from being kept.

mod common;

use common::contract::{
    a_republished_universe_retires_what_is_kept, assert_stats_eq,
    clearing_the_cache_retires_what_is_kept, faulty, served_reads_what_built_read,
    two_threads_read_the_same_rows, Cell, Model,
};
use common::{oracle_session, pass, permutation, read, statements, Reading};
use galois::core::{
    limit_hint, CompileOptions, Galois, GaloisOptions, Pipeline, Planner, PromptBatch, Resilience,
};
use galois::dataset::{build_operator_suite, OperatorCheck, Scenario};
use galois::llm::{FaultProfile, ModelProfile};
use galois::relational::Value;
use proptest::prelude::*;

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

/// Served ≡ built on `gpt3`, whose universes, beside `chatgpt`'s in
/// `typed_cells.rs`, repeat keys, hold keys that clean to NULL (rows the
/// table drops, cells the bill still counts) and hallucinated ones.
#[test]
fn served_steps_read_what_built_steps_read() {
    for seed in [1, 7, 42] {
        served_reads_what_built_read(seed, ModelProfile::gpt3());
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

/// One pass keeps almost nothing; four have served two whole passes.
#[test]
fn clearing_the_client_cache_retires_the_relations() {
    clearing_the_cache_retires_what_is_kept(7, 1, 4);
}

#[test]
fn a_republished_shared_universe_retires_the_relation() {
    a_republished_universe_retires_what_is_kept(42);
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
        compile: CompileOptions { pushdown: false },
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

/// A degraded cell never enters a relation. A model that faults on the
/// first asks of every prompt, with no retry budget to absorb them and no
/// breaker to skip them (`Resilience::Off`), leaves NULLs in a warm
/// statement's rows. The client keeps no fault, so each
/// repeat of the statement asks its degraded cells again and walks their
/// fault schedule forward; while any of them is degraded its table is
/// never kept — while a statement over the same universe that reads none
/// of the degraded cells is. Fresh sessions over the same model then find
/// the schedule drained; the first that reads no failed cell publishes,
/// and is served, the fault-free relation.
#[test]
fn a_degraded_cell_never_enters_a_relation() {
    let scenario = Scenario::generate_scaled(7, 4);
    let sql = "SELECT name, population, country FROM city";
    let want = read(&oracle_session(&scenario, GaloisOptions::serving()), sql);
    let faults = FaultProfile {
        fault_rate: 1.0,
        truncated_weight: 0,
    };
    let options = GaloisOptions {
        resilience: Resilience::Off,
        ..GaloisOptions::serving()
    };
    let model = faulty(&scenario, ModelProfile::oracle(), faults);
    let cell = Cell::new(&scenario, options).model(Model::Faulty(model));
    let session = || cell.session();
    let stuck = session();
    let keys = "SELECT name FROM city";
    // The keys statement reads no fetched cell: once its listing has
    // drained, its key column is whole, kept, and served from then on. A
    // faulted listing resumes at its frontier, so each listing prompt
    // costs at most one read per leading fault.
    let reads = want.stats.list_prompts * FaultProfile::MAX_CONSECUTIVE as usize + 1;
    let listed = (0..reads).any(|_| read(&stuck, keys).served == 1);
    assert!(listed, "the listing drains");
    let mut degraded_warm_reads = 0;
    let clean = (0..=FaultProfile::MAX_CONSECUTIVE).find_map(|nth| {
        let reading = read(&stuck, sql);
        if reading.stats.failed_cells == 0 {
            return Some(reading);
        }
        assert!(
            reading.rows.iter().flatten().any(Value::is_null),
            "read {nth}"
        );
        assert_eq!(
            (reading.served, reading.stats.list_prompts),
            (0, 0),
            "read {nth}"
        );
        degraded_warm_reads += 1;
        // The NULLs were not kept: the universe's one relation is still
        // the whole key column, serving the keys statement.
        assert_eq!(
            stuck.typed_stats().relations,
            1,
            "read {nth}: NULLs were kept"
        );
        let names = read(&stuck, keys);
        assert_eq!((names.served, names.rows.len()), (1, want.rows.len()));
        None
    });
    // One degraded read per leading fault of the deepest cell's schedule.
    assert_eq!(degraded_warm_reads, FaultProfile::MAX_CONSECUTIVE);
    assert_eq!(clean.expect("the fault schedule drains").rows, want.rows);
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
    assert_stats_eq(&served.stats, &built.stats, &[], sql);
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
    assert_stats_eq(&served.stats, &built.stats, &[], sql);
    let kept = session.typed_stats();
    assert_eq!((kept.universes, kept.relations), (1, 1));
    assert_eq!(kept.relation_rows, scenario.world.cities.len());
}

#[test]
fn two_threads_publish_and_are_served_the_same_rows() {
    two_threads_read_the_same_rows(42);
}
