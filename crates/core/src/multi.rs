//! Cross-query scheduling: many in-flight queries over one shared lane
//! pool.
//!
//! The single-query engine runs each statement to completion on its own
//! private `K`-lane [`EventClock`](galois_llm::EventClock); a suite clock
//! is therefore a *sum* of per-query makespans, and each query's
//! list-bound tail leaves most lanes idle. This module lifts the lanes
//! into a shared [`LanePool`] and replays the
//! queries' micro-batch task traces against it, so one query's waits are
//! overlapped by another's filter/fetch work.
//!
//! ## Two-level design
//!
//! Determinism (and bit-exact answers) come from splitting *what runs*
//! from *when it runs*:
//!
//! 1. **Logical pass** — queries execute serially, in canonical workload
//!    order, through the ordinary streaming engine
//!    (`Galois::execute_traced`). Prompts, cache hits, result relations
//!    and per-phase accounting are therefore identical to running the
//!    suite back-to-back, whatever the session assignment. Each query
//!    yields its dataflow's task trace: every micro-batch the private
//!    clock scheduled, with its private release/duration/completion.
//! 2. **Global replay** — a discrete-event simulation packs the traced
//!    tasks onto the shared `sessions × K`-lane pool under the
//!    [`AdmissionPolicy`]: closed-loop sessions, FIFO admission with a
//!    `max_inflight` cap (the wait is
//!    [`QueryStats::queue_ms`](crate::QueryStats::queue_ms)), and
//!    least-served-first arbitration between sessions with ready tasks at
//!    the same instant (the session with the least lane-busy virtual time
//!    so far goes first, ties to the lowest index), so sessions with short
//!    queries never starve behind heavy ones.
//!
//! A task may start once every earlier task of the same query that
//! *preceded it* in the private schedule (private completion ≤ the
//! task's private release) has completed in the replay — the trace's
//! happens-before edges, nothing more. With one session and no in-flight
//! cap, the replay reproduces the private schedule bit-exactly, which is
//! what the determinism battery asserts.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeSet, BinaryHeap};

use galois_llm::LanePool;

use crate::error::{GaloisError, Result};
use crate::session::{AdmissionPolicy, Galois, GaloisResult, TracedTask};

/// One query's outcome under cross-query scheduling.
#[derive(Debug, Clone)]
pub struct MultiQueryOutcome {
    /// The query's result — identical relation and prompt accounting to a
    /// serial run; only the clock fields (`virtual_ms`, `queue_ms`)
    /// reflect the shared pool.
    pub result: GaloisResult,
    /// Session (tenant) the query belonged to.
    pub session: usize,
    /// Virtual instant the query arrived (closed-loop: when the session's
    /// previous query finished; `0` for each session's first).
    pub arrival_ms: u64,
    /// Virtual instant the admission controller let it start.
    pub admitted_ms: u64,
    /// Virtual instant its last task completed.
    pub finished_ms: u64,
}

impl MultiQueryOutcome {
    /// End-to-end virtual latency the session observed: queueing delay
    /// plus execution (`finished − arrival`).
    pub fn latency_ms(&self) -> u64 {
        self.finished_ms.saturating_sub(self.arrival_ms)
    }
}

/// Report of one [`run_multi_query`] replay.
#[derive(Debug, Clone)]
pub struct MultiQueryReport {
    /// Per-query outcomes, in the canonical input order.
    pub outcomes: Vec<MultiQueryOutcome>,
    /// Virtual instant the last query finished.
    pub makespan_ms: u64,
    /// Lanes in the shared pool the replay ran on.
    pub pool_lanes: usize,
    /// Closed-loop sessions the queries were spread across.
    pub sessions: usize,
    /// Fraction of the `pool_lanes × makespan` budget spent doing work.
    pub lane_utilisation: f64,
    /// Total queueing delay across all queries.
    pub total_queue_ms: u64,
}

impl MultiQueryReport {
    /// The `p`-th percentile (0.0–1.0) of per-query virtual latency
    /// (`finished − arrival`), by nearest rank over the sorted latencies.
    pub(crate) fn latency_percentile_ms(&self, p: f64) -> u64 {
        let mut lat: Vec<u64> = self.outcomes.iter().map(|o| o.latency_ms()).collect();
        lat.sort_unstable();
        nearest_rank(&lat, p)
    }

    /// Median per-query virtual latency.
    pub fn p50_latency_ms(&self) -> u64 {
        self.latency_percentile_ms(0.50)
    }

    /// 99th-percentile per-query virtual latency.
    pub fn p99_latency_ms(&self) -> u64 {
        self.latency_percentile_ms(0.99)
    }
}

/// The nearest-rank `p`-th percentile of `sorted`: its `⌈p·n⌉`-th
/// smallest value (the smallest, for `p = 0`; zero when empty).
fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.saturating_sub(1)).copied().unwrap_or(0)
}

/// A query mid-replay: its trace, dependency pointer and clock marks.
struct ReplayQuery {
    session: usize,
    trace: Vec<TracedTask>,
    /// Replay completion instant per task (`None` while pending/running).
    done_at: Vec<Option<u64>>,
    /// Next trace index to submit (tasks submit strictly in fire order).
    next: usize,
    /// Tasks submitted but not yet completed.
    running: usize,
    arrival: Option<u64>,
    admitted: Option<u64>,
    finished: Option<u64>,
}

impl ReplayQuery {
    /// True when the next task's happens-before edges are all satisfied:
    /// no in-flight earlier task finished (privately) at or before the
    /// next task's private release.
    fn next_ready(&self) -> bool {
        if self.next >= self.trace.len() {
            return false;
        }
        let release = self.trace[self.next].release;
        (0..self.next).all(|j| self.done_at[j].is_some() || self.trace[j].completion > release)
    }

    fn all_done(&self) -> bool {
        self.next >= self.trace.len() && self.running == 0
    }
}

/// Runs `queries` through the session's engine once (canonical order),
/// then replays their task traces over a shared lane pool under `policy`,
/// with `session_of[i]` naming each query's closed-loop session.
///
/// Answers are those of a serial run by construction; the replay decides
/// only the clocks. Each outcome's
/// [`stats.virtual_ms`](crate::QueryStats::virtual_ms) is overridden to
/// `finished − admitted` and
/// [`stats.queue_ms`](crate::QueryStats::queue_ms) to
/// `admitted − arrival`.
///
/// Requires [`Pipeline::Streaming`](crate::Pipeline::Streaming) (the wave
/// engine has no task trace to replay), and `session_of` must give every
/// query one session below `queries.len()`; otherwise an error is
/// returned before any query runs.
pub fn run_multi_query(
    galois: &Galois,
    queries: &[&str],
    session_of: &[usize],
    policy: &AdmissionPolicy,
) -> Result<MultiQueryReport> {
    if session_of.len() != queries.len() {
        return Err(GaloisError::Unsupported(format!(
            "session_of assigns {} sessions to {} queries",
            session_of.len(),
            queries.len()
        )));
    }
    if let Some(&s) = session_of.iter().find(|&&s| s >= queries.len()) {
        return Err(GaloisError::Unsupported(format!(
            "session {s} of {} queries: sessions are numbered below the query count",
            queries.len()
        )));
    }
    let sessions = session_of.iter().map(|s| s + 1).max().unwrap_or(1);
    let pool_lanes = sessions * galois.options().parallelism.get();

    // Logical pass: canonical order, shared caches warm in workload order
    // exactly as a serial suite would — the session assignment cannot
    // change any answer or prompt count.
    let mut results = Vec::with_capacity(queries.len());
    let mut replay: Vec<ReplayQuery> = Vec::with_capacity(queries.len());
    for (i, sql) in queries.iter().enumerate() {
        let (result, trace) = galois.execute_traced(sql)?;
        results.push(result);
        replay.push(ReplayQuery {
            session: session_of[i],
            done_at: vec![None; trace.len()],
            trace,
            next: 0,
            running: 0,
            arrival: None,
            admitted: None,
            finished: None,
        });
    }

    // Closed-loop session chains: each session issues its queries in
    // canonical order, the next arriving the instant the previous
    // finishes.
    let mut chain: Vec<Vec<usize>> = vec![Vec::new(); sessions];
    for (i, &s) in session_of.iter().enumerate() {
        chain[s].push(i);
    }
    let mut chain_pos: Vec<usize> = vec![0; sessions];

    let mut pool = LanePool::new(pool_lanes, sessions);
    // FIFO admission queue, ordered by (arrival, canonical index).
    let mut waiting: BTreeSet<(u64, usize)> = BTreeSet::new();
    // Completion events: (time, submission seq, query index, task index).
    let mut events: BinaryHeap<Reverse<(u64, u64, usize, usize)>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    let mut inflight_queries: usize = 0;
    let mut makespan: u64 = 0;
    let mut total_queue: u64 = 0;

    // Arrive each session's first query at t = 0.
    for s in 0..sessions {
        if let Some(&q) = chain[s].first() {
            chain_pos[s] = 1;
            replay[q].arrival = Some(0);
            waiting.insert((0, q));
        }
    }

    // One instant of admission: drain the FIFO queue into the in-flight
    // set while the cap allows. Empty-trace queries (EXPLAIN, pure-DB
    // plans) finish the instant they are admitted, so their closed-loop
    // successor arrives — and may itself be admitted — within the loop.
    macro_rules! admit_and_finish {
        ($t:expr) => {{
            let t = $t;
            loop {
                let Some(&(arr, q)) = waiting.iter().next() else {
                    break;
                };
                debug_assert!(arr <= t);
                if policy.max_inflight > 0 && inflight_queries >= policy.max_inflight {
                    break;
                }
                waiting.remove(&(arr, q));
                replay[q].admitted = Some(t);
                total_queue += t - arr;
                if replay[q].trace.is_empty() {
                    replay[q].finished = Some(t);
                    makespan = makespan.max(t);
                    let s = replay[q].session;
                    if let Some(&next_q) = chain[s].get(chain_pos[s]) {
                        chain_pos[s] += 1;
                        replay[next_q].arrival = Some(t);
                        waiting.insert((t, next_q));
                    }
                } else {
                    inflight_queries += 1;
                }
            }
        }};
    }

    // One instant of submission: while some admitted query has a ready
    // task, pick the least-served session with one and schedule its first
    // ready query's next task on the pool (release = now). Recomputed
    // after every pick — `served_ms` moves with each task.
    macro_rules! submit_ready {
        ($t:expr) => {{
            let t = $t;
            loop {
                let winner = (0..sessions)
                    .filter_map(|s| {
                        (0..replay.len())
                            .find(|&q| {
                                replay[q].session == s
                                    && replay[q].admitted.is_some()
                                    && replay[q].next_ready()
                            })
                            .map(|q| (s, q))
                    })
                    .min_by_key(|&(s, _)| (pool.served_ms(s), s));
                let Some((session, q)) = winner else {
                    break;
                };
                let idx = replay[q].next;
                let duration = replay[q].trace[idx].duration;
                let done = pool.schedule(session, t, duration);
                replay[q].next = idx + 1;
                replay[q].running += 1;
                events.push(Reverse((done, seq, q, idx)));
                seq += 1;
            }
        }};
    }

    admit_and_finish!(0);
    submit_ready!(0);

    while let Some(&Reverse((t, _, _, _))) = events.peek() {
        // Drain every completion at this instant, finishing queries and
        // arriving their closed-loop successors.
        while let Some(top) = events.peek_mut() {
            let Reverse((et, _, q, idx)) = *top;
            if et != t {
                break;
            }
            PeekMut::pop(top);
            replay[q].done_at[idx] = Some(t);
            replay[q].running -= 1;
            let s = replay[q].session;
            if replay[q].all_done() {
                replay[q].finished = Some(t);
                makespan = makespan.max(t);
                inflight_queries -= 1;
                if let Some(&next_q) = chain[s].get(chain_pos[s]) {
                    chain_pos[s] += 1;
                    replay[next_q].arrival = Some(t);
                    waiting.insert((t, next_q));
                }
            }
        }
        admit_and_finish!(t);
        submit_ready!(t);
    }

    debug_assert!(waiting.is_empty() && inflight_queries == 0);

    let mut outcomes = Vec::with_capacity(results.len());
    for (result, rq) in results.into_iter().zip(replay) {
        let (Some(arrival), Some(admitted), Some(finished)) =
            (rq.arrival, rq.admitted, rq.finished)
        else {
            unreachable!("the replay arrives, admits and finishes every query");
        };
        let mut result = result;
        result.stats.virtual_ms = finished - admitted;
        result.stats.queue_ms = admitted - arrival;
        outcomes.push(MultiQueryOutcome {
            result,
            session: rq.session,
            arrival_ms: arrival,
            admitted_ms: admitted,
            finished_ms: finished,
        });
    }
    Ok(MultiQueryReport {
        outcomes,
        makespan_ms: makespan,
        pool_lanes,
        sessions,
        lane_utilisation: pool.utilisation(),
        total_queue_ms: total_queue,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use galois_dataset::Scenario;
    use galois_llm::{ModelProfile, Parallelism, SimLlm};

    use crate::session::{GaloisOptions, Pipeline, PromptBatch};

    const SUITE: [&str; 4] = [
        "SELECT name, population FROM city WHERE elevation < 100",
        "SELECT name FROM city WHERE population > 1000000",
        "SELECT name, elevation FROM city WHERE population > 500000",
        "SELECT name FROM city WHERE elevation < 500",
    ];

    fn streaming_session(lanes: usize) -> Galois {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                pipeline: Pipeline::Streaming,
                prompt_batch: PromptBatch::Grid { keys: 10, attrs: 1 },
                parallelism: Parallelism::new(lanes),
                ..Default::default()
            },
        )
    }

    #[test]
    fn percentiles_take_the_nearest_rank() {
        let lat = [10, 20, 30, 40];
        assert_eq!(nearest_rank(&lat, 0.50), 20);
        assert_eq!(nearest_rank(&lat, 0.99), 40);
        assert_eq!(nearest_rank(&lat, 0.0), 10);
        assert_eq!(nearest_rank(&[], 0.50), 0);
    }

    #[test]
    fn single_session_replay_is_bit_exact_with_serial_runs() {
        let serial = streaming_session(8);
        let reference: Vec<GaloisResult> = SUITE
            .iter()
            .map(|sql| serial.execute(sql).unwrap())
            .collect();

        let galois = streaming_session(8);
        let report =
            run_multi_query(&galois, &SUITE, &[0, 0, 0, 0], &AdmissionPolicy::default()).unwrap();

        assert_eq!(report.sessions, 1);
        assert_eq!(report.pool_lanes, 8);
        assert_eq!(report.total_queue_ms, 0);
        let mut clock = 0;
        for (out, want) in report.outcomes.iter().zip(&reference) {
            assert_eq!(out.result.relation.rows, want.relation.rows);
            // The full stats struct matches the serial run bit for bit:
            // queue_ms stays zero and virtual_ms replays identically.
            let mut replayed = out.result.stats;
            replayed.wall_ms = want.stats.wall_ms;
            assert_eq!(replayed, want.stats);
            // Closed loop: each query arrives the instant its predecessor
            // finishes, so the suite clock is the serial sum.
            assert_eq!(out.arrival_ms, clock);
            assert_eq!(out.admitted_ms, clock);
            clock += want.stats.virtual_ms;
            assert_eq!(out.finished_ms, clock);
        }
        assert_eq!(report.makespan_ms, clock);
    }

    #[test]
    fn concurrent_sessions_beat_the_serial_suite_clock() {
        let serial = streaming_session(8);
        let serial_sum: u64 = SUITE
            .iter()
            .map(|sql| serial.execute(sql).unwrap().stats.virtual_ms)
            .sum();

        let galois = streaming_session(8);
        let report =
            run_multi_query(&galois, &SUITE, &[0, 1, 2, 3], &AdmissionPolicy::default()).unwrap();
        assert_eq!(report.sessions, 4);
        assert_eq!(report.pool_lanes, 32);
        assert!(
            report.makespan_ms < serial_sum,
            "overlapped replay {} ms should beat the serial suite {} ms",
            report.makespan_ms,
            serial_sum
        );
        assert!(report.lane_utilisation > 0.0 && report.lane_utilisation <= 1.0);
    }

    #[test]
    fn session_assignment_never_changes_answers_or_prompts() {
        let galois = streaming_session(8);
        let spread =
            run_multi_query(&galois, &SUITE, &[0, 1, 0, 1], &AdmissionPolicy::default()).unwrap();
        let galois = streaming_session(8);
        let packed =
            run_multi_query(&galois, &SUITE, &[0, 0, 0, 0], &AdmissionPolicy::default()).unwrap();
        for (a, b) in spread.outcomes.iter().zip(&packed.outcomes) {
            assert_eq!(a.result.relation.rows, b.result.relation.rows);
            assert_eq!(
                a.result.stats.total_prompts(),
                b.result.stats.total_prompts()
            );
            assert_eq!(a.result.stats.cache_hits, b.result.stats.cache_hits);
        }
    }

    #[test]
    fn inflight_cap_tallies_queue_delay() {
        let galois = streaming_session(8);
        let policy = AdmissionPolicy { max_inflight: 1 };
        let report = run_multi_query(&galois, &SUITE, &[0, 1, 2, 3], &policy).unwrap();
        assert!(report.total_queue_ms > 0);
        let stats_queue: u64 = report
            .outcomes
            .iter()
            .map(|o| o.result.stats.queue_ms)
            .sum();
        assert_eq!(stats_queue, report.total_queue_ms);
        for o in &report.outcomes {
            assert_eq!(o.admitted_ms - o.arrival_ms, o.result.stats.queue_ms);
            assert_eq!(o.finished_ms - o.admitted_ms, o.result.stats.virtual_ms);
        }
        // A 1-at-a-time cap serialises the suite: makespan equals the sum
        // of the per-query clocks.
        let run_sum: u64 = report
            .outcomes
            .iter()
            .map(|o| o.result.stats.virtual_ms)
            .sum();
        assert_eq!(report.makespan_ms, run_sum);
    }

    #[test]
    fn explain_and_wave_edge_cases() {
        // EXPLAIN produces an empty trace: the query finishes the instant
        // it is admitted and its closed-loop successor still runs.
        let galois = streaming_session(8);
        let report = run_multi_query(
            &galois,
            &[
                "EXPLAIN SELECT name FROM city WHERE population > 1000000",
                "SELECT name FROM city WHERE population > 1000000",
            ],
            &[0, 0],
            &AdmissionPolicy::default(),
        )
        .unwrap();
        assert_eq!(report.outcomes[0].finished_ms, 0);
        assert!(report.outcomes[1].finished_ms > 0);

        // The barrier driver has no trace to replay.
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let wave = Galois::new(model, s.database.clone());
        let err = run_multi_query(
            &wave,
            &["SELECT name FROM city WHERE population > 1000000"],
            &[0],
            &AdmissionPolicy::default(),
        )
        .unwrap_err();
        assert!(matches!(err, crate::GaloisError::Unsupported(_)));
    }

    #[test]
    fn bad_session_assignments_are_errors_before_any_query_runs() {
        let galois = streaming_session(8);
        let two = &SUITE[..2];
        for session_of in [&[0][..], &[0, 0, 0], &[0, 2], &[usize::MAX, 0]] {
            let err =
                run_multi_query(&galois, two, session_of, &AdmissionPolicy::default()).unwrap_err();
            assert!(
                matches!(err, crate::GaloisError::Unsupported(_)),
                "{session_of:?}"
            );
        }
        assert_eq!(galois.client().stats().prompts, 0);
        assert!(run_multi_query(&galois, two, &[1, 1], &AdmissionPolicy::default()).is_ok());
    }
}
