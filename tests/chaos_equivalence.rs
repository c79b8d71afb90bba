//! The chaos battery (PR 9): fault-injected model runs against the
//! fault-free engine — cells of the contract battery
//! (`tests/common/contract.rs`), and the resilience layer's own rules.
//!
//! 1. **Fault-free equivalence under retries** — with a bounded fault
//!    schedule (`MAX_CONSECUTIVE` ≤ the retry budget) and
//!    `Resilience::On`, a faulty run at fault rate 0.1, 0.2 or 0.5 reads
//!    the fault-free run's rows in order and every stat but the clocks
//!    (which bill the retry waits) and the resilience counters: no failed
//!    cell. Property-tested over the options matrix.
//! 2. **Graceful degradation on exhaustion** — when the retry budget is
//!    smaller than the fault schedule, queries still return: partial
//!    relations with per-cell `Null`s, `failed_cells` counting every
//!    degraded cell, and no panic; once the schedule drains, a later
//!    session over the same model handle recovers the exact clean result.
//! 3. **Circuit breaker** — an exhaustion streak opens the breaker
//!    (fail-fast, visible in `breaker_fastfails`), the half-open probe
//!    path eventually drains the schedule, and recovery is complete.
//! 4. **Store resume** — a listing killed mid-flight by a fault leaves a
//!    *resumable* (`exhausted: false`) frontier in the shared key-universe
//!    store, never a poisoned "complete" universe: a retrying session
//!    resumes past the frontier and completes the listing at a lower list
//!    bill than a cold start.

mod common;

use common::contract::{drawn, faulty, paged, Cell, Cmp, Contract, Field, Model};
use common::{oracle_session, small_config};
use galois::core::{GaloisOptions, GaloisResult, ListStore, Pipeline, Resilience, RetryPolicy};
use galois::dataset::Scenario;
use galois::llm::{FaultProfile, KeyUniverseStore, LanguageModel, ModelProfile};
use galois::relational::Value;
use proptest::prelude::*;
use std::sync::Arc;

/// A fault schedule with the marker-detectable kinds only: truncated
/// faults deliberately survive the parsing gauntlet (they corrupt the
/// clean answer's prefix), so exhaustion-shape assertions that compare
/// cell values against the clean run exclude them. The equivalence
/// property keeps all four kinds — retries absorb truncation before
/// parsing.
fn detectable_faults(rate: f64) -> FaultProfile {
    FaultProfile {
        fault_rate: rate,
        truncated_weight: 0,
    }
}

/// What retries may move under streaming: the clocks, the resilience
/// counters, and the prompts (with their tokens). A retry's wait moves
/// the instant a chunk gets its last input, so an idle lane may flush a
/// chunk the fault-free run filled, or fill one it flushed; the bill stays
/// at least the wave's, as every streaming run's does.
const RESCHEDULED: &[Field] = &[
    Field::Clock,
    Field::Phases,
    Field::Serial,
    Field::Resilience,
    Field::Prompts,
    Field::Tokens,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn faulty_model_under_retries_reproduces_the_fault_free_suite(
        draw in drawn(false),
        rate in prop::sample::select(vec![0.1, 0.2, 0.5]),
    ) {
        // The oracle listing whole concepts, on which a streaming bill is
        // bounded below by the wave's.
        let world = draw.world();
        let clean = draw.cell(&world).model(Model::Profile(ModelProfile::oracle()));
        // The schedule is drawn through the world's prompts and the rate.
        let faults = FaultProfile::with_rate(rate);
        prop_assert!(FaultProfile::MAX_CONSECUTIVE <= RetryPolicy::default().max_retries);
        let retried = GaloisOptions {
            resilience: Resilience::On(RetryPolicy::default()),
            ..draw.options.clone()
        };
        let model = faulty(&world, ModelProfile::oracle(), faults);
        let faulty = clean.with(retried).model(Model::Faulty(model));
        if draw.options.pipeline == Pipeline::Off {
            Contract::RETRIED.check(&clean, &[faulty]);
        } else {
            let rescheduled = Contract { stats: Some(RESCHEDULED), ..Contract::RETRIED };
            let got = rescheduled.check(&clean, &[faulty]);
            let wave = GaloisOptions { pipeline: Pipeline::Off, ..draw.options.clone() };
            let label = "faulty streaming against the fault-free wave";
            let floor = Contract { bill: Some(Cmp::Ge), ..Contract::R_M };
            floor.compare(&clean.with(wave).read(), &got[0], label);
        }
    }
}

/// Sessions over one faulty oracle handle with the default options and
/// the given retry policy, run on `sql` until one degrades no cell (at
/// most `tries` of them); returns every run's result.
fn drain(
    s: &Scenario,
    faults: FaultProfile,
    policy: RetryPolicy,
    tries: usize,
) -> Vec<GaloisResult> {
    let options = GaloisOptions {
        resilience: Resilience::On(policy),
        ..GaloisOptions::default()
    };
    let cell =
        Cell::new(s, options).model(Model::Faulty(faulty(s, ModelProfile::oracle(), faults)));
    let mut runs = Vec::new();
    while runs.len() < tries
        && runs
            .last()
            .is_none_or(|r: &GaloisResult| r.stats.failed_cells > 0)
    {
        runs.push(
            cell.session()
                .execute("SELECT name, population FROM city")
                .unwrap(),
        );
    }
    runs
}

/// With the retry budget *below* the fault schedule, exhausted cells
/// degrade instead of panicking: the relation keeps its shape (clean rows
/// or rows with `Null` cells), `failed_cells` and `retries` are visible,
/// and once the per-prompt schedules drain, a fresh session over the same
/// model handle reproduces the clean result exactly.
#[test]
fn retry_exhaustion_degrades_to_partial_results_and_recovers() {
    let s = Scenario::generate_with(42, small_config());
    let sql = "SELECT name, population FROM city";
    let want = oracle_session(&s, GaloisOptions::default())
        .execute(sql)
        .unwrap();
    let policy = RetryPolicy { max_retries: 1 };
    let runs = drain(&s, detectable_faults(1.0), policy, 13);
    let first = &runs[0];
    assert!(
        first.stats.failed_cells > 0,
        "a rate-1.0 schedule must exhaust the 1-retry budget somewhere"
    );
    assert!(first.stats.retries > 0, "the retry loop must have fired");
    assert_eq!(
        first.relation.schema.columns, want.relation.schema.columns,
        "degradation must never change the relation shape"
    );
    let clean_rows: std::collections::HashSet<&Vec<Value>> = want.relation.rows.iter().collect();
    for row in &first.relation.rows {
        assert!(
            clean_rows.contains(row) || row.iter().any(|v| matches!(v, Value::Null)),
            "degraded row is neither clean nor Null-annotated: {row:?}"
        );
    }
    // Every prompt's schedule is bounded, so fresh sessions over the same
    // handle drain it; the first fully-clean run is the fault-free result.
    let last = runs.last().unwrap();
    assert_eq!(last.stats.failed_cells, 0, "schedule failed to drain");
    assert_eq!(last.relation.rows, want.relation.rows);
}

/// An exhaustion streak trips the breaker: later requests fail fast
/// (counted in `breaker_fastfails`, spending no model attempts), the
/// half-open probe keeps testing the model, and once the fault schedule
/// drains the engine recovers the clean result completely.
#[test]
fn breaker_opens_fails_fast_and_recovers_through_half_open_probes() {
    let s = Scenario::generate_with(42, small_config());
    let sql = "SELECT name, population FROM city";
    let want = oracle_session(&s, GaloisOptions::default())
        .execute(sql)
        .unwrap();
    let policy = RetryPolicy { max_retries: 0 };
    // The breaker is per-session state, and a session whose *listing*
    // exhausts issues no further prompts — the streak builds in the
    // session whose listing finally drains and whose fetch wave then
    // exhausts key after key. Run fresh sessions until the schedule
    // drains; at least one of them must have tripped the breaker, and the
    // short cooldown's half-open probes keep burning the per-prompt
    // schedules even while it flaps, so the runs converge.
    let runs = drain(&s, detectable_faults(1.0), policy, 31);
    assert!(
        runs.iter().any(|r| r.stats.failed_cells > 0),
        "a rate-1.0 schedule with no retries must degrade cells"
    );
    assert!(
        runs.iter().any(|r| r.stats.breaker_fastfails > 0),
        "the exhaustion streak must open the breaker in some run"
    );
    let last = runs.last().unwrap();
    assert_eq!(last.stats.failed_cells, 0, "schedule failed to drain");
    assert_eq!(last.relation.rows, want.relation.rows);
}

/// A fault that kills a listing mid-flight leaves the shared store
/// *resumable*, never poisoned: the partial frontier is invisible to warm
/// reads, a retrying session resumes past it (cheaper than a cold
/// listing) and completes the exact universe with no duplicates.
#[test]
fn faulted_mid_listing_leaves_a_resumable_frontier() {
    let s = Scenario::generate_with(42, small_config());
    let sql = "SELECT name FROM city";
    let paged_cell = Cell::new(&s, GaloisOptions::default()).model(Model::Profile(paged(4)));
    let full = paged_cell.session().execute(sql).unwrap();
    assert!(full.relation.rows.len() > 8, "need several pages");
    let session = |model: &Arc<_>, store: &Arc<KeyUniverseStore>, resilience| {
        let options = GaloisOptions {
            list_store: ListStore::Shared(store.clone()),
            resilience,
            ..GaloisOptions::default()
        };
        let cell = paged_cell
            .with(options)
            .model(Model::Faulty(Arc::clone(model)));
        cell.session()
    };

    // Scan fault rates for one that fails the listing mid-flight (some
    // pages in, some pages short) on a resilience-Off session: the
    // schedule's seed is fixed, so the rate decides which pages fault.
    let mut found = None;
    for percent in 1..=99u32 {
        let store = Arc::new(KeyUniverseStore::default());
        let rate = f64::from(percent) / 100.0;
        let model = faulty(&s, paged(4), detectable_faults(rate));
        let partial = session(&model, &store, Resilience::Off)
            .execute(sql)
            .unwrap();
        let n = partial.relation.rows.len();
        if n > 0 && n < full.relation.rows.len() {
            assert!(
                partial.stats.failed_cells > 0,
                "a truncated listing must be counted as a failed cell"
            );
            assert_eq!(
                partial.relation.rows,
                full.relation.rows[..n],
                "the partial listing must be a clean prefix of the full one"
            );
            found = Some((store, model, n));
            break;
        }
    }
    let (store, model, kept) = found.expect("no rate produced a mid-listing failure");

    // The partial frontier must not be warm-visible (that would make the
    // truncated universe look complete — a poisoned store).
    assert!(
        store.warm_map(&model.signature()).is_empty(),
        "a faulted listing must never publish an exhausted universe"
    );

    // A retrying session over the same model handle and store resumes
    // past the frontier: exact full universe, no duplicates, and fewer
    // list prompts than the clean cold start needed.
    let retried = Resilience::On(RetryPolicy::default());
    let resumed = session(&model, &store, retried).execute(sql).unwrap();
    assert_eq!(resumed.relation.rows, full.relation.rows);
    assert_eq!(resumed.stats.failed_cells, 0);
    assert!(
        resumed.stats.list_prompts < full.stats.list_prompts,
        "resume must be cheaper than the cold listing ({} vs {}, {} keys kept)",
        resumed.stats.list_prompts,
        full.stats.list_prompts,
        kept
    );
    let warm = store.warm_map(&model.signature());
    assert_eq!(
        warm.values().copied().sum::<usize>(),
        full.relation.rows.len(),
        "the completed universe must hold every key exactly once"
    );
}
