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
//!    [`AdmissionPolicy`].
//!
//! ## The replay's state machine
//!
//! One `Replay` value holds each session's iterator of upcoming queries,
//! each session's admitted query, the FIFO waiting set ordered by
//! `(arrival, query index)`, the completion-event heap and the pool. Four
//! transitions move it:
//!
//! * **arrive** — a session's next query joins the waiting set: at t = 0
//!   for each session's first, and the instant its previous query
//!   finishes for every later one (closed-loop sessions);
//! * **admit** — waiting queries become admitted, oldest first, while the
//!   `max_inflight` cap allows; the wait is
//!   [`QueryStats::queue_ms`](crate::QueryStats::queue_ms). A query with
//!   no tasks (`EXPLAIN`, a plan the store answers) finishes at once;
//! * **submit** — while some admitted query's next task is ready, the
//!   least-served such session (least lane-busy virtual time so far, ties
//!   to the lowest index) schedules it on the pool, so sessions with short
//!   queries never starve behind heavy ones;
//! * **finish** — a query's last task completed: its clocks close and its
//!   session's next query arrives.
//!
//! The event loop drains every completion of an instant, then admits and
//! submits at that instant. Because a session's next query arrives only
//! when its previous one finishes, a session holds **at most one admitted,
//! unfinished query**; `submit` relies on that, checking one query per
//! session rather than every query.
//!
//! A task is ready once every earlier task of the same query that
//! *preceded it* in the private schedule (private completion ≤ the
//! task's private release) has completed in the replay — the trace's
//! happens-before edges, nothing more. With one session and no in-flight
//! cap, the replay reproduces the private schedule bit-exactly, which is
//! what the determinism battery asserts.

use std::cmp::Reverse;
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

/// A query's task trace mid-replay.
struct Trace {
    tasks: Vec<TracedTask>,
    /// Whether each task has completed in the replay.
    done: Vec<bool>,
    /// Next task to submit (tasks submit strictly in fire order).
    next: usize,
    /// Tasks not yet completed.
    left: usize,
}

impl Trace {
    /// True when the next task's happens-before edges are all satisfied:
    /// every earlier task that finished (privately) at or before the next
    /// task's private release has completed.
    fn next_ready(&self) -> bool {
        let Some(task) = self.tasks.get(self.next) else {
            return false;
        };
        (self.tasks.iter().zip(&self.done))
            .take(self.next)
            .all(|(earlier, &done)| done || earlier.completion > task.release)
    }
}

/// The replay's state: see the module docs for its four transitions.
struct Replay {
    outcomes: Vec<MultiQueryOutcome>,
    traces: Vec<Trace>,
    /// Each session's queries yet to arrive, in canonical order.
    upcoming: Vec<std::vec::IntoIter<usize>>,
    /// Each session's admitted, unfinished query (closed loop: at most
    /// one).
    admitted: Vec<Option<usize>>,
    /// Queries arrived and not yet admitted, by `(arrival, query index)`.
    waiting: BTreeSet<(u64, usize)>,
    /// Completion events: (time, submission seq, query index, task index).
    events: BinaryHeap<Reverse<(u64, u64, usize, usize)>>,
    /// Tasks submitted so far: the next event's submission seq.
    submitted: u64,
    pool: LanePool,
    max_inflight: usize,
}

impl Replay {
    /// `session`'s next query, if any, arrives at `t`.
    fn arrive(&mut self, session: usize, t: u64) {
        if let Some(q) = self.upcoming[session].next() {
            self.outcomes[q].arrival_ms = t;
            self.waiting.insert((t, q));
        }
    }

    /// Admits waiting queries in FIFO order while the in-flight cap allows.
    fn admit(&mut self, t: u64) {
        loop {
            let inflight = self.admitted.iter().flatten().count();
            if self.max_inflight > 0 && inflight >= self.max_inflight {
                return;
            }
            let Some((arrival, q)) = self.waiting.pop_first() else {
                return;
            };
            let outcome = &mut self.outcomes[q];
            outcome.admitted_ms = t;
            outcome.result.stats.queue_ms = t - arrival;
            self.admitted[outcome.session] = Some(q);
            if self.traces[q].tasks.is_empty() {
                self.finish(q, t);
            }
        }
    }

    /// Schedules ready tasks at `t`, one at a time, least-served session
    /// first (recomputed after each: `served_ms` moves with every task).
    fn submit(&mut self, t: u64) {
        loop {
            let ready = (self.admitted.iter().enumerate())
                .filter_map(|(s, q)| q.filter(|&q| self.traces[q].next_ready()).map(|q| (s, q)));
            let Some((session, q)) = ready.min_by_key(|&(s, _)| (self.pool.served_ms(s), s)) else {
                return;
            };
            let trace = &mut self.traces[q];
            let task = trace.next;
            trace.next += 1;
            let done = self.pool.schedule(session, t, trace.tasks[task].duration);
            self.events.push(Reverse((done, self.submitted, q, task)));
            self.submitted += 1;
        }
    }

    /// Query `q`'s last task completed at `t`: its clocks close and its
    /// session's next query arrives.
    fn finish(&mut self, q: usize, t: u64) {
        let outcome = &mut self.outcomes[q];
        outcome.finished_ms = t;
        outcome.result.stats.virtual_ms = t - outcome.admitted_ms;
        let session = outcome.session;
        self.admitted[session] = None;
        self.arrive(session, t);
    }

    /// Runs the replay to its last completion.
    fn run(mut self) -> (Vec<MultiQueryOutcome>, LanePool) {
        for session in 0..self.upcoming.len() {
            self.arrive(session, 0);
        }
        self.admit(0);
        self.submit(0);
        while let Some(Reverse((t, _, q, task))) = self.events.pop() {
            let trace = &mut self.traces[q];
            trace.done[task] = true;
            trace.left -= 1;
            if trace.left == 0 {
                self.finish(q, t);
            }
            // Every completion of an instant lands before anything is
            // admitted or submitted at it.
            if self.events.peek().is_none_or(|Reverse(next)| next.0 > t) {
                self.admit(t);
                self.submit(t);
            }
        }
        debug_assert!(self.waiting.is_empty() && self.admitted.iter().all(Option::is_none));
        (self.outcomes, self.pool)
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
    // change any answer or prompt count. The replay fills in the clocks.
    let mut outcomes = Vec::with_capacity(queries.len());
    let mut traces = Vec::with_capacity(queries.len());
    let mut upcoming = vec![Vec::new(); sessions];
    for (q, (sql, &session)) in queries.iter().zip(session_of).enumerate() {
        let (result, tasks) = galois.execute_traced(sql)?;
        outcomes.push(MultiQueryOutcome {
            result,
            session,
            arrival_ms: 0,
            admitted_ms: 0,
            finished_ms: 0,
        });
        traces.push(Trace {
            done: vec![false; tasks.len()],
            next: 0,
            left: tasks.len(),
            tasks,
        });
        upcoming[session].push(q);
    }
    let replay = Replay {
        outcomes,
        traces,
        upcoming: upcoming.into_iter().map(Vec::into_iter).collect(),
        admitted: vec![None; sessions],
        waiting: BTreeSet::new(),
        events: BinaryHeap::new(),
        submitted: 0,
        pool: LanePool::new(pool_lanes, sessions),
        max_inflight: policy.max_inflight,
    };
    let (outcomes, pool) = replay.run();
    Ok(MultiQueryReport {
        makespan_ms: outcomes.iter().map(|o| o.finished_ms).max().unwrap_or(0),
        total_queue_ms: outcomes.iter().map(|o| o.result.stats.queue_ms).sum(),
        outcomes,
        pool_lanes,
        sessions,
        lane_utilisation: pool.utilisation(),
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
