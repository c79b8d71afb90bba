//! Cross-query scheduling battery (PR 10): the shared lane pool must
//! change *clocks only*, never answers or prompt accounting.
//!
//! 1. **Concurrency invariance** — for any session count, any
//!    session-assignment permutation, any admission order the fair-share
//!    rules produce, and any lane/batch shape: every query's relation,
//!    rows-in-order, and `QueryStats` modulo the clocks (`virtual_ms`,
//!    `queue_ms`, wall) are bit-identical with the single-session run.
//!    Per-kind prompt totals and cache hits are pinned per query, not
//!    just in aggregate — the logical pass runs queries in canonical
//!    input order regardless of how the replay schedules them.
//! 2. **Single-session replay degeneracy** — one session with the
//!    default (unbounded) admission policy reproduces plain serial
//!    `execute` *bit-exactly* including `virtual_ms`, with `queue_ms` 0
//!    and arrival/finish times chaining as the serial clock.
//! 3. **Concurrency wins the makespan** — at 8 sessions over the derived
//!    `sessions × K` pool, the suite makespan is strictly below the
//!    serial suite clock, utilisation lands in `(0, 1]`, and the two
//!    fair-share rules agree on answers while both stay under it.
//! 4. **Admission delay is measured, not lost** — a `max_inflight` cap
//!    produces positive `queue_ms` without touching answers or prompts,
//!    and every outcome still satisfies `arrival ≤ admitted ≤ finished`.
//! 5. **Repeat-run determinism** — the whole report (every field, modulo
//!    nothing) is equal across two runs on fresh sessions.

mod common;

use common::{assert_stats_eq, options, oracle_session, permutation};
use galois::core::{
    run_multi_query, AdmissionPolicy, FairShare, GaloisOptions, ListStore, MultiQueryReport,
    Pipeline, PromptBatch, QueryStats,
};
use galois::dataset::{Scenario, WorldConfig};
use proptest::prelude::*;

/// The battery's standard world: small enough that a full suite pass
/// stays fast under proptest, with enough per-concept keys that the
/// replay has real micro-batch traces to pack.
fn scenario(seed: u64) -> Scenario {
    Scenario::generate_with(
        seed,
        WorldConfig {
            countries: 6,
            cities: 14,
            airports: 6,
            singers: 6,
            concerts: 8,
            employees: 10,
        },
    )
}

/// The serving preset's grid batch (`Grid { keys: 10, attrs: 6 }`).
fn serving_grid() -> PromptBatch {
    GaloisOptions::serving().prompt_batch
}

/// Runs the scenario's suite through the scheduler at the given shape and
/// returns the report (fresh session: the store and prompt cache start
/// cold, so runs are comparable).
fn run(
    s: &Scenario,
    batch: PromptBatch,
    lanes: usize,
    session_of: &[usize],
    policy: &AdmissionPolicy,
) -> MultiQueryReport {
    let session = oracle_session(
        s,
        options(ListStore::Off, Pipeline::Streaming, batch, lanes),
    );
    let sqls: Vec<String> = s.suite.iter().map(|q| q.to_sql()).collect();
    let queries: Vec<&str> = sqls.iter().map(String::as_str).collect();
    run_multi_query(&session, &queries, session_of, policy).expect("streaming suite replays")
}

/// Clock-insensitive stat equality: everything but the replay-owned
/// clocks (`virtual_ms`, `queue_ms`) and the measured wall clock must
/// match — prompts per kind, cache hits, rows, token totals, resilience
/// counters, all of it.
fn assert_stats_eq_modulo_clocks(a: &QueryStats, b: &QueryStats, label: &str) {
    let mut a = *a;
    let mut b = *b;
    for s in [&mut a, &mut b] {
        s.wall_ms = 0;
        s.virtual_ms = 0;
        s.queue_ms = 0;
    }
    assert_eq!(a, b, "{label}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Axis sweep: world seed × sessions {1, 2, 8} × assignment
    /// permutation × fair-share rule × lanes × batch shape. The
    /// single-session run is the reference; every other shape must agree
    /// on answers and accounting query by query.
    #[test]
    fn concurrency_changes_clocks_only(
        seed in prop_oneof![Just(42u64), Just(7u64), Just(1234u64)],
        sessions in prop_oneof![Just(1usize), Just(2), Just(8)],
        perm_state in any::<u64>(),
        share in prop_oneof![Just(FairShare::DeficitMs), Just(FairShare::RoundRobin)],
        lanes in prop_oneof![Just(1usize), Just(8)],
        grid in any::<bool>(),
    ) {
        let s = scenario(seed);
        let n = s.suite.len();
        let batch = if grid {
            serving_grid()
        } else {
            PromptBatch::Keys(10)
        };
        let reference = run(&s, batch, lanes, &vec![0usize; n], &AdmissionPolicy::default());

        let perm = permutation(n, perm_state);
        let session_of: Vec<usize> = perm.iter().map(|&p| p % sessions).collect();
        let policy = AdmissionPolicy { share, ..AdmissionPolicy::default() };
        let report = run(&s, batch, lanes, &session_of, &policy);

        prop_assert_eq!(report.outcomes.len(), reference.outcomes.len());
        for (i, (got, want)) in report.outcomes.iter().zip(&reference.outcomes).enumerate() {
            // The whole relation — schema and rows in order, not just row
            // sets: the logical pass is the same engine pass, so even
            // ordering must survive.
            prop_assert_eq!(
                &got.result.relation, &want.result.relation,
                "relation, query {}", i
            );
            assert_stats_eq_modulo_clocks(
                &got.result.stats,
                &want.result.stats,
                &format!("stats, query {i} (seed {seed}, sessions {sessions}, {share:?})"),
            );
            prop_assert_eq!(got.session, session_of[i], "session label, query {}", i);
        }
        prop_assert!(report.lane_utilisation <= 1.0 + 1e-12);
    }
}

#[test]
fn single_session_replay_is_serial_execution_bit_for_bit() {
    let s = scenario(42);
    let n = s.suite.len();
    let report = run(
        &s,
        PromptBatch::Keys(10),
        8,
        &vec![0usize; n],
        &AdmissionPolicy::default(),
    );

    let serial = oracle_session(
        &s,
        options(
            ListStore::Off,
            Pipeline::Streaming,
            PromptBatch::Keys(10),
            8,
        ),
    );
    let mut clock = 0u64;
    for (i, (spec, outcome)) in s.suite.iter().zip(&report.outcomes).enumerate() {
        let want = serial.execute(&spec.to_sql()).expect("serial suite query");
        assert_eq!(
            outcome.result.relation, want.relation,
            "relation, query {i}"
        );
        assert_stats_eq(
            &outcome.result.stats,
            &want.stats,
            &format!("stats, query {i}"),
        );
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
    let s = scenario(42);
    let n = s.suite.len();
    let serial_sum: u64 = run(
        &s,
        PromptBatch::Keys(10),
        8,
        &vec![0usize; n],
        &AdmissionPolicy::default(),
    )
    .makespan_ms;

    let session_of: Vec<usize> = (0..n).map(|i| i % 8).collect();
    for share in [FairShare::DeficitMs, FairShare::RoundRobin] {
        let report = run(
            &s,
            PromptBatch::Keys(10),
            8,
            &session_of,
            &AdmissionPolicy {
                share,
                ..AdmissionPolicy::default()
            },
        );
        assert!(
            report.makespan_ms < serial_sum,
            "{share:?}: makespan {} must beat the serial clock {serial_sum}",
            report.makespan_ms
        );
        assert_eq!(
            report.pool_lanes, 64,
            "{share:?}: derived sessions x K pool"
        );
        assert!(
            report.lane_utilisation > 0.0 && report.lane_utilisation <= 1.0,
            "{share:?}: utilisation {} out of range",
            report.lane_utilisation
        );
        assert_eq!(
            report.total_queue_ms, 0,
            "{share:?}: nothing queues uncapped"
        );
        assert!(
            report.p50_latency_ms() <= report.p99_latency_ms()
                && report.p99_latency_ms() <= report.makespan_ms,
            "{share:?}: percentile ordering"
        );
    }
}

#[test]
fn inflight_cap_queues_without_changing_accounting() {
    let s = scenario(42);
    let n = s.suite.len();
    let session_of: Vec<usize> = (0..n).map(|i| i % 8).collect();
    let free = run(
        &s,
        PromptBatch::Keys(10),
        8,
        &session_of,
        &AdmissionPolicy::default(),
    );
    let capped = run(
        &s,
        PromptBatch::Keys(10),
        8,
        &session_of,
        &AdmissionPolicy {
            max_inflight: 2,
            ..AdmissionPolicy::default()
        },
    );
    assert!(capped.total_queue_ms > 0, "a 2-query window must queue");
    assert!(
        capped.makespan_ms >= free.makespan_ms,
        "queueing never speeds up"
    );
    for (i, (got, want)) in capped.outcomes.iter().zip(&free.outcomes).enumerate() {
        assert_eq!(
            got.result.relation, want.result.relation,
            "relation, query {i}"
        );
        assert_stats_eq_modulo_clocks(
            &got.result.stats,
            &want.result.stats,
            &format!("stats, query {i}"),
        );
        assert!(
            got.arrival_ms <= got.admitted_ms && got.admitted_ms <= got.finished_ms,
            "timeline ordering, query {i}"
        );
        assert_eq!(
            got.result.stats.queue_ms,
            got.admitted_ms - got.arrival_ms,
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
    let s = scenario(42);
    let opts = GaloisOptions {
        list_store: ListStore::Off,
        ..GaloisOptions::serving()
    };
    let sqls: Vec<String> = s.suite.iter().map(|q| q.to_sql()).collect();
    let queries: Vec<&str> = sqls.iter().map(String::as_str).collect();
    let session_of: Vec<usize> = (0..queries.len()).map(|i| i % 8).collect();
    let replay = |policy: &AdmissionPolicy| {
        let session = oracle_session(&s, opts.clone());
        assert_eq!(session.options(), &opts);
        run_multi_query(&session, &queries, &session_of, policy).expect("serving suite replays")
    };
    let free = replay(&AdmissionPolicy::default());
    let one = replay(&AdmissionPolicy {
        max_inflight: 1,
        ..AdmissionPolicy::default()
    });
    assert_eq!(free.total_queue_ms, 0);
    assert!(one.total_queue_ms > 0, "a one-query window must queue");
    let prompts = |r: &MultiQueryReport| -> usize {
        r.outcomes
            .iter()
            .map(|o| o.result.stats.total_prompts())
            .sum()
    };
    assert_eq!(prompts(&one), prompts(&free));
    for (i, (got, want)) in one.outcomes.iter().zip(&free.outcomes).enumerate() {
        assert_eq!(
            got.result.relation, want.result.relation,
            "relation, query {i}"
        );
    }
}

#[test]
fn repeat_runs_are_identical_on_every_field() {
    let s = scenario(42);
    let n = s.suite.len();
    let session_of: Vec<usize> = (0..n).map(|i| i % 8).collect();
    let policy = AdmissionPolicy {
        max_inflight: 6,
        ..AdmissionPolicy::default()
    };
    let a = run(&s, serving_grid(), 8, &session_of, &policy);
    let b = run(&s, serving_grid(), 8, &session_of, &policy);
    assert_eq!(a.makespan_ms, b.makespan_ms);
    assert_eq!(a.total_queue_ms, b.total_queue_ms);
    assert_eq!(a.lane_utilisation, b.lane_utilisation);
    assert_eq!(a.pool_lanes, b.pool_lanes);
    for (i, (x, y)) in a.outcomes.iter().zip(&b.outcomes).enumerate() {
        assert_eq!(x.result.relation, y.result.relation, "relation, query {i}");
        assert_stats_eq(
            &x.result.stats,
            &y.result.stats,
            &format!("stats, query {i}"),
        );
        assert_eq!(
            (x.arrival_ms, x.admitted_ms, x.finished_ms),
            (y.arrival_ms, y.admitted_ms, y.finished_ms),
            "timeline, query {i}"
        );
    }
}
