//! What a warmed session keeps of its reads changes no reading (PR 21).
//!
//! A warmed serving session keeps what it has read out of the sub-entry
//! store, typed and aligned to the stored key universe a step is served
//! from (`crates/core/src/session/typed.rs`): PR 21 kept it cell by cell —
//! the "cells" the tests below are named for — and PR 22 keeps the whole
//! table instead (`tests/universe_relation.rs`). What is kept stands for
//! store hits and nothing else, so nothing a caller can observe may
//! depend on whether it, or the store, served a read: not the rows,
//! not their order, not one `QueryStats` or `ClientStats` counter. This
//! file holds that on the serving stack (`grid_stack_options(8, 10, 6)`:
//! streaming, cost planner, grid batching, key-universe store) over the
//! evaluation suite and the operator suite on worlds {1, 7, 42} at x4,
//! and then pulls on each of the three things that retire what is kept.

mod common;

use common::{assert_stats_eq, pass, serving_session, statements, Reading};
use galois::core::{Galois, GaloisOptions, ListStore};
use galois::dataset::Scenario;
use galois::llm::{ClientStats, KeyUniverseStore, ModelProfile};
use galois::relational::Value;
use std::sync::{Arc, Barrier};

fn assert_same_pass(
    a: &(Vec<Reading>, ClientStats),
    b: &(Vec<Reading>, ClientStats),
    statements: &[String],
    label: &str,
) {
    for ((a, b), sql) in a.0.iter().zip(&b.0).zip(statements) {
        assert_eq!(a.columns, b.columns, "{label}: columns of {sql}");
        assert_eq!(a.rows, b.rows, "{label}: rows of {sql}");
        assert_stats_eq(&a.stats, &b.stats, &format!("{label}: stats of {sql}"));
    }
    assert_eq!(a.1, b.1, "{label}: client stats of the pass");
}

/// Passes 2, 3 and 4 of one session read the same: the second reads
/// through the store, the third and fourth are served what it kept.
fn warm_passes_agree(profile: ModelProfile) {
    for seed in [1, 7, 42] {
        let scenario = Scenario::generate_scaled(seed, 4);
        let statements = statements(&scenario);
        let session = serving_session(&scenario, profile.clone(), GaloisOptions::serving());
        pass(&session, &statements);
        let second = pass(&session, &statements);
        assert!(
            second.0.iter().map(|r| r.stats.cache_hits).sum::<usize>() > 0,
            "a warm pass is served from the stores"
        );
        for nth in [3, 4] {
            let later = pass(&session, &statements);
            let label = format!("world {seed} x4, pass {nth} against pass 2");
            assert_same_pass(&second, &later, &statements, &label);
        }
    }
}

#[test]
fn warm_passes_read_the_same_rows_stats_and_client_bill() {
    warm_passes_agree(ModelProfile::oracle());
}

/// A cell holds what the store holds, right or wrong: a noisy model's
/// stored answers read the same from either.
#[test]
fn a_noisy_models_warm_passes_read_the_same() {
    warm_passes_agree(ModelProfile::chatgpt());
}

/// `LlmClient::clear_cache` retires every cell: the pass after it asks
/// the model again, exactly as in a session that had filled none.
#[test]
fn clearing_the_client_cache_retires_the_cells() {
    let scenario = Scenario::generate_scaled(7, 4);
    let statements = statements(&scenario);
    let after_clear = |warm_passes: usize| {
        let session = serving_session(&scenario, ModelProfile::oracle(), GaloisOptions::serving());
        let before = (0..warm_passes)
            .map(|_| pass(&session, &statements))
            .last()
            .expect("at least one pass");
        session.client().clear_cache();
        (before, pass(&session, &statements))
    };
    // Two passes settle the plans and the stored universes and fill no
    // cell a third would not; five leave every warm cell filled.
    let (_, barely) = after_clear(2);
    let (before, filled) = after_clear(5);
    assert!(filled.1.prompts > 0, "the cleared session prompts again");
    assert_same_pass(&barely, &filled, &statements, "after clear_cache");
    for ((b, f), sql) in before.0.iter().zip(&filled.0).zip(&statements) {
        assert_eq!(b.rows, f.rows, "rows of {sql} across clear_cache");
    }
}

/// A universe replaced in a shared store retires the cells aligned to the
/// old list: a session capped at one list page serves the partial
/// frontier as terminal until an uncapped session pages past it and
/// republishes; its next statements then read the longer list.
#[test]
fn a_republished_shared_universe_retires_the_cells() {
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
        serving_session(&scenario, paged.clone(), options)
    };
    let sql = [
        "SELECT name, population FROM city".to_string(),
        "SELECT name, country, population FROM city".to_string(),
    ];
    let capped = session(1);
    let mut partial = pass(&capped, &sql);
    for _ in 0..3 {
        partial = pass(&capped, &sql);
    }
    let full = pass(&session(100), &sql);
    assert!(
        partial.0[0].rows.len() < full.0[0].rows.len(),
        "one page is a strict prefix of the universe"
    );
    let republished = pass(&capped, &sql);
    let fresh = pass(&session(1), &sql);
    for (nth, sql) in sql.iter().enumerate() {
        assert_eq!(republished.0[nth].rows, full.0[nth].rows, "{sql}");
        assert_eq!(republished.0[nth].rows, fresh.0[nth].rows, "{sql}");
    }
}

/// Two threads running the same warm statement race to fill the same
/// cells with equal values: both read the single-threaded relation.
#[test]
fn two_threads_fill_the_same_cells_with_the_same_rows() {
    let scenario = Scenario::generate_scaled(42, 4);
    let statements = statements(&scenario);
    let session = serving_session(&scenario, ModelProfile::oracle(), GaloisOptions::serving());
    // One pass: everything is stored, few cells are filled yet. The plans
    // settle in the second, so a twin session's second pass is the
    // reference.
    pass(&session, &statements);
    let twin = serving_session(&scenario, ModelProfile::oracle(), GaloisOptions::serving());
    pass(&twin, &statements);
    let expected = pass_rows(&twin, &statements);
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    (0..3)
                        .map(|_| pass_rows(&session, &statements))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for rows in worker.join().expect("worker panicked") {
                for ((got, want), sql) in rows.iter().zip(&expected).zip(&statements) {
                    assert_eq!(got, want, "{sql}");
                }
            }
        }
    });
}

fn pass_rows(session: &Galois, statements: &[String]) -> Vec<Vec<Vec<Value>>> {
    let (readings, _) = pass(session, statements);
    readings.into_iter().map(|r| r.rows).collect()
}
