//! Cross-query scheduling (PR 10): the shared lane pool changes *clocks
//! only*, never answers or prompt accounting — cells of the contract
//! battery (`tests/common/contract.rs`) read through `run_multi_query`.
//!
//! 1. **Concurrency invariance** — for any session count, any
//!    session-assignment permutation, any admission order least-served
//!    arbitration produces, and any lane/batch shape: every query's rows in order
//!    and `QueryStats` but the replay's clock and queue equal the
//!    single-session run's, per query — the logical pass runs queries in
//!    canonical input order regardless of how the replay schedules them.
//! 2. **Single-session replay degeneracy** — one session with the
//!    default (unbounded) admission policy reproduces plain serial
//!    `execute` *bit-exactly* including `virtual_ms`, with `queue_ms` 0
//!    and arrival/finish times chaining as the serial clock.
//! 3. **Concurrency wins the makespan** — at 8 sessions over the derived
//!    `sessions × K` pool, the suite makespan is strictly below the
//!    serial suite clock and utilisation lands in `(0, 1]`, whether the
//!    queries are dealt round-robin or half of them crowd one session.
//! 4. **Admission delay is measured, not lost** — a `max_inflight` cap
//!    produces positive `queue_ms` without touching answers or prompts,
//!    and every outcome still satisfies `arrival ≤ admitted ≤ finished`.
//! 5. **Repeat-run determinism** — the whole report (every field, modulo
//!    nothing) is equal across two runs on fresh sessions.
//! 6. **Pinned replay** — every clock of ten replays of the 46 + 18
//!    statements on the serving stack (sessions × in-flight caps dealt
//!    round-robin, plus one uneven deal) folds into one digest that a
//!    change to the replay's code must leave as it is.

mod common;

use common::contract::{replayed, Cell, Cmp, Contract, Rows};
use common::{key_batch, options, oracle_session, permutation, small_config, statements, suite};
use galois::core::{
    run_multi_query, AdmissionPolicy, GaloisOptions, ListStore, MultiQueryReport, Pipeline,
    PromptBatch,
};
use galois::dataset::Scenario;
use proptest::prelude::*;

/// The serving preset's grid batch (`Grid { keys: 10, attrs: 6 }`).
fn serving_grid() -> PromptBatch {
    GaloisOptions::serving().prompt_batch
}

/// The streaming cell the replays run: the suite, on a fresh session (the
/// store and prompt cache start cold, so runs are comparable).
fn cell(s: &Scenario, batch: PromptBatch, lanes: usize) -> Cell<'_> {
    Cell::new(
        s,
        options(ListStore::Off, Pipeline::Streaming, batch, lanes),
    )
}

/// Replays `cell`'s statements through the scheduler.
fn replay(cell: &Cell, session_of: &[usize], policy: &AdmissionPolicy) -> MultiQueryReport {
    let queries: Vec<&str> = cell.order.iter().map(String::as_str).collect();
    run_multi_query(&cell.session(), &queries, session_of, policy).expect("the suite replays")
}

fn dealt(n: usize, sessions: usize) -> Vec<usize> {
    (0..n).map(|i| i % sessions).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Axis sweep: world seed × sessions {1, 2, 8} × assignment
    /// permutation × lanes × batch shape. The single-session run is the
    /// reference.
    #[test]
    fn concurrency_changes_clocks_only(
        seed in prop_oneof![Just(42u64), Just(7u64), Just(1234u64)],
        sessions in prop_oneof![Just(1usize), Just(2), Just(8)],
        perm_state in any::<u64>(),
        lanes in prop_oneof![Just(1usize), Just(8)],
        grid in any::<bool>(),
    ) {
        let s = Scenario::generate_with(seed, small_config());
        let batch = if grid { serving_grid() } else { key_batch(10) };
        let cell = cell(&s, batch, lanes);
        let n = cell.order.len();
        let reference = replay(&cell, &vec![0; n], &AdmissionPolicy::default());
        let session_of: Vec<usize> = permutation(n, perm_state).iter().map(|&p| p % sessions).collect();
        let report = replay(&cell, &session_of, &AdmissionPolicy::default());
        let label = format!("seed {seed}, sessions {sessions}");
        Contract::REPLAYED.compare(&replayed(&reference, &cell.order), &replayed(&report, &cell.order), &label);
        for (outcome, session) in report.outcomes.iter().zip(&session_of) {
            prop_assert_eq!(outcome.session, *session, "session label");
        }
        prop_assert!(report.lane_utilisation <= 1.0 + 1e-12);
    }
}

#[test]
fn single_session_replay_is_serial_execution_bit_for_bit() {
    let s = Scenario::generate_with(42, small_config());
    let cell = cell(&s, key_batch(10), 8);
    let report = replay(
        &cell,
        &vec![0; cell.order.len()],
        &AdmissionPolicy::default(),
    );
    let serial = cell.read();
    Contract::BIT_EXACT.compare(&serial, &replayed(&report, &cell.order), "serial execution");
    let mut clock = 0u64;
    for (i, (outcome, want)) in report.outcomes.iter().zip(&serial[0].0).enumerate() {
        assert_eq!(
            outcome.result.stats.queue_ms, 0,
            "nothing queues, query {i}"
        );
        // Closed loop with one session: each query arrives when the
        // previous finishes, so the timeline is the serial clock.
        assert_eq!(outcome.arrival_ms, clock, "arrival, query {i}");
        assert_eq!(outcome.admitted_ms, clock, "admission, query {i}");
        clock += want.stats.virtual_ms;
        assert_eq!(outcome.finished_ms, clock, "finish, query {i}");
    }
    assert_eq!(
        report.makespan_ms, clock,
        "makespan is the serial suite clock"
    );
}

#[test]
fn eight_sessions_beat_the_serial_clock_under_both_shares() {
    let s = Scenario::generate_with(42, small_config());
    let cell = cell(&s, key_batch(10), 8);
    let n = cell.order.len();
    let serial = replay(&cell, &vec![0; n], &AdmissionPolicy::default()).makespan_ms;
    // Dealt round-robin, and skewed: the first half of the suite on
    // session 0, the rest dealt over sessions 1–7.
    let skewed: Vec<usize> = (0..n)
        .map(|i| if i < n / 2 { 0 } else { 1 + i % 7 })
        .collect();
    for (deal, session_of) in [("dealt", dealt(n, 8)), ("skewed", skewed)] {
        let report = replay(&cell, &session_of, &AdmissionPolicy::default());
        assert!(
            report.makespan_ms < serial,
            "{deal}: makespan {} must beat the serial clock {serial}",
            report.makespan_ms
        );
        assert_eq!(report.pool_lanes, 64, "{deal}: derived sessions x K pool");
        assert!(
            report.lane_utilisation > 0.0 && report.lane_utilisation <= 1.0,
            "{deal}: utilisation {} out of range",
            report.lane_utilisation
        );
        assert_eq!(report.total_queue_ms, 0, "{deal}: nothing queues uncapped");
        assert!(
            report.p50_latency_ms() <= report.p99_latency_ms()
                && report.p99_latency_ms() <= report.makespan_ms,
            "{deal}: percentile ordering"
        );
    }
}

#[test]
fn inflight_cap_queues_without_changing_accounting() {
    let s = Scenario::generate_with(42, small_config());
    let cell = cell(&s, key_batch(10), 8);
    let session_of = dealt(cell.order.len(), 8);
    let free = replay(&cell, &session_of, &AdmissionPolicy::default());
    let capped = AdmissionPolicy { max_inflight: 2 };
    let capped = replay(&cell, &session_of, &capped);
    assert!(capped.total_queue_ms > 0, "a 2-query window must queue");
    assert!(
        capped.makespan_ms >= free.makespan_ms,
        "queueing never speeds up"
    );
    let (free_pass, capped_pass) = (replayed(&free, &cell.order), replayed(&capped, &cell.order));
    Contract::REPLAYED.compare(&free_pass, &capped_pass, "capped against free");
    for (i, got) in capped.outcomes.iter().enumerate() {
        assert!(
            got.arrival_ms <= got.admitted_ms && got.admitted_ms <= got.finished_ms,
            "timeline ordering, query {i}"
        );
        let waited = got.admitted_ms - got.arrival_ms;
        assert_eq!(
            got.result.stats.queue_ms, waited,
            "queue accounting, query {i}"
        );
    }
}

/// The policy is the argument's: two sessions built from *equal* options,
/// replayed under a one-query window and under the default policy, queue
/// differently and answer identically — nothing about admission is hidden
/// on the session.
#[test]
fn the_admission_policy_is_the_arguments_not_the_sessions() {
    let s = Scenario::generate_with(42, small_config());
    let opts = GaloisOptions {
        list_store: ListStore::Off,
        ..GaloisOptions::serving()
    };
    let cell = Cell::new(&s, opts.clone()).order(suite(&s));
    assert_eq!(cell.session().options(), &opts);
    let session_of = dealt(cell.order.len(), 8);
    let free = replay(&cell, &session_of, &AdmissionPolicy::default());
    let one = AdmissionPolicy { max_inflight: 1 };
    let one = replay(&cell, &session_of, &one);
    assert_eq!(free.total_queue_ms, 0);
    assert!(one.total_queue_ms > 0, "a one-query window must queue");
    let same_answers = Contract {
        rows: Rows::InOrder,
        bill: Some(Cmp::Eq),
        ..Contract::R_M
    };
    let (free, one) = (replayed(&free, &cell.order), replayed(&one, &cell.order));
    same_answers.compare(&free, &one, "one-query window against none");
}

#[test]
fn repeat_runs_are_identical_on_every_field() {
    let s = Scenario::generate_with(42, small_config());
    let cell = cell(&s, serving_grid(), 8);
    let session_of = dealt(cell.order.len(), 8);
    let policy = AdmissionPolicy { max_inflight: 6 };
    let [a, b] = [(); 2].map(|()| replay(&cell, &session_of, &policy));
    assert_eq!(a.makespan_ms, b.makespan_ms);
    assert_eq!(a.total_queue_ms, b.total_queue_ms);
    assert_eq!(a.lane_utilisation, b.lane_utilisation);
    assert_eq!(a.pool_lanes, b.pool_lanes);
    let (a_pass, b_pass) = (replayed(&a, &cell.order), replayed(&b, &cell.order));
    Contract::BIT_EXACT.compare(&a_pass, &b_pass, "repeat run");
    for (i, (x, y)) in a.outcomes.iter().zip(&b.outcomes).enumerate() {
        assert_eq!(
            (x.arrival_ms, x.admitted_ms, x.finished_ms),
            (y.arrival_ms, y.admitted_ms, y.finished_ms),
            "timeline, query {i}"
        );
    }
}

fn fold(hash: &mut u64, text: &str) {
    for byte in text.bytes().chain([0x1f]) {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Every outcome's session and clocks and every report figure of ten
/// replays of the 46 + 18 statements on a fresh serving session (seed 42,
/// small world): sessions {1, 3, 16} × in-flight caps {0, 2, 14} dealt
/// round-robin, then the first half of the list on session 0 and the rest
/// dealt over sessions 1–4 under a cap of 3. Folded into one FNV-1a
/// digest, first computed before the replay became a state machine.
#[test]
fn every_replay_clock_is_pinned() {
    let s = Scenario::generate_with(42, small_config());
    let sqls = statements(&s);
    assert_eq!(sqls.len(), 46 + 18);
    let queries: Vec<&str> = sqls.iter().map(String::as_str).collect();
    let n = queries.len();
    let mut deals: Vec<(Vec<usize>, usize)> = Vec::new();
    for sessions in [1, 3, 16] {
        for max_inflight in [0, 2, 14] {
            deals.push((dealt(n, sessions), max_inflight));
        }
    }
    let uneven = (0..n).map(|i| if i < n / 2 { 0 } else { 1 + i % 4 });
    deals.push((uneven.collect(), 3));
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for (session_of, max_inflight) in &deals {
        let session = oracle_session(&s, GaloisOptions::serving());
        let policy = AdmissionPolicy {
            max_inflight: *max_inflight,
        };
        let r = run_multi_query(&session, &queries, session_of, &policy).expect("replays");
        for o in &r.outcomes {
            let (stats, session) = (&o.result.stats, o.session);
            fold(
                &mut digest,
                &format!(
                    "{session} {} {} {} {} {}",
                    o.arrival_ms, o.admitted_ms, o.finished_ms, stats.virtual_ms, stats.queue_ms
                ),
            );
        }
        fold(
            &mut digest,
            &format!(
                "{} {} {} {} {:x} {} {}",
                r.makespan_ms,
                r.total_queue_ms,
                r.pool_lanes,
                r.sessions,
                r.lane_utilisation.to_bits(),
                r.p50_latency_ms(),
                r.p99_latency_ms()
            ),
        );
    }
    assert_eq!(
        digest, 0xf311_0368_a00c_ea48,
        "replay digest {digest:#018x}"
    );
}
