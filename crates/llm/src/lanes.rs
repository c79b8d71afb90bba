//! Virtual request lanes: the concurrency model of the simulated clock.
//!
//! The paper's latency numbers (§5: ~20 s and ~110 batched prompts per
//! query) assume every prompt decodes sequentially. A production deployment
//! would instead hold `K` concurrent request lanes open against the
//! provider; independent prompts then cost `max` over lanes rather than
//! `sum` over members. [`Parallelism`] is that knob, and [`lane_schedule`]
//! is the accounting rule shared by the client's per-batch clock and the
//! session scheduler's per-wave clock.
//!
//! `Parallelism::new(1)` reproduces the original sequential accounting
//! bit-for-bit: with one lane, `lane_schedule` degenerates to a plain sum.
//!
//! The knob applies *per scheduling level*: a batch's members decode
//! across `K` provider streams, a wave's independent batches occupy `K`
//! request lanes, and a suite's per-query clocks may additionally be
//! packed over `K` modelled query streams. Because the levels compose, an end-to-end speedup can
//! exceed `K` (it is bounded by the product of the levels involved) — the
//! model is "each scheduling point sees `K`-way concurrency", not a
//! single global pool of `K` connections.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Number of concurrent request lanes a deployment offers.
///
/// The lanes are virtual: they shape the **virtual clock** and nothing
/// else. A batch of `n` independent prompts costs `overhead + max(lane
/// sums)` across `K` simulated lanes instead of `overhead + sum`, and a
/// wave of independent work units is packed onto `K` lanes the same way
/// ([`lane_schedule`], [`EventClock`], [`LanePool`]). The engine starts no
/// thread for them: a statement sends its requests in order from the
/// thread that runs it.
///
/// Values are clamped to at least 1; `Parallelism::default()` is 1, the
/// paper-faithful sequential configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism(usize);

impl Parallelism {
    /// Creates a knob with `lanes` request lanes (clamped to ≥ 1).
    pub fn new(lanes: usize) -> Self {
        Parallelism(lanes.max(1))
    }

    /// The number of lanes.
    pub fn get(self) -> usize {
        self.0
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism(1)
    }
}

impl From<usize> for Parallelism {
    fn from(lanes: usize) -> Self {
        Parallelism::new(lanes)
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Greedy multi-lane makespan.
///
/// Durations are assigned in submission order, each to the currently
/// least-loaded lane (lowest lane index wins ties, so equal durations
/// round-robin deterministically); the result is the maximum lane total.
/// With one lane this is exactly the sum of the durations — the
/// pre-scheduler accounting.
///
/// This is [`EventClock`] with every release time at zero: a wave is the
/// degenerate pipeline in which all work is ready at once.
pub fn lane_schedule<I>(durations: I, lanes: usize) -> u64
where
    I: IntoIterator<Item = u64>,
{
    let mut clock = EventClock::new(lanes);
    for d in durations {
        clock.schedule(0, d);
    }
    clock.makespan()
}

/// Event-driven virtual clock: `K` request lanes serving tasks that become
/// ready at arbitrary *release times*.
///
/// [`lane_schedule`] models a **wave**: all work is ready at once, so the
/// makespan is a pure packing problem. A pipelined execution instead
/// releases work as upstream answers land — a filter micro-batch cannot
/// start before the list page that produced its keys has decoded. The
/// event clock generalises the accounting: each task is released at some
/// virtual instant, claims the earliest-free lane (lowest lane index wins
/// ties), starts at `max(release, lane free time)`, and completes after
/// its duration. [`EventClock::schedule`] returns that per-task completion
/// time, which is what drives the streaming session driver's dataflow —
/// downstream accumulators see keys at the completion times the clock
/// hands back.
///
/// Tasks must be scheduled in a deterministic order (the session driver
/// processes completion events in `(time, sequence)` order), which makes
/// the whole simulation a pure function of the work — never of OS thread
/// timing. With one lane the clock degenerates to a running sum exactly
/// like the wave accounting.
#[derive(Debug, Clone)]
pub struct EventClock {
    /// Min-heap of `(free_at, lane index)`: the earliest-free lane is
    /// always at the top, with ties resolved towards the lowest index.
    free: BinaryHeap<Reverse<(u64, usize)>>,
    lanes: usize,
    makespan: u64,
}

impl EventClock {
    /// A clock with `lanes` request lanes (clamped to ≥ 1), all free at
    /// virtual time zero.
    pub fn new(lanes: usize) -> Self {
        let lanes = lanes.max(1);
        EventClock {
            free: (0..lanes).map(|i| Reverse((0, i))).collect(),
            lanes,
            makespan: 0,
        }
    }

    /// The lane count.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// Schedules a task released at `release` with `duration` on the
    /// earliest-free lane and returns its completion time.
    ///
    /// The task starts at `max(release, lane free time)`: a lane that
    /// idles until the release still counts as free (idle time is lost,
    /// not banked). Ties between equally-free lanes go to the lowest lane
    /// index, matching [`lane_schedule`]'s round-robin determinism.
    pub fn schedule(&mut self, release: u64, duration: u64) -> u64 {
        // `new` seeds one entry per lane and nothing removes one, so the
        // fallback (a free lane) never applies.
        let done = match self.free.peek_mut() {
            Some(mut top) => {
                let Reverse((free_at, _)) = &mut *top;
                *free_at = (*free_at).max(release) + duration;
                *free_at
            }
            None => release + duration,
        };
        self.makespan = self.makespan.max(done);
        done
    }

    /// The latest completion time scheduled so far (zero when no task has
    /// been scheduled).
    pub fn makespan(&self) -> u64 {
        self.makespan
    }

    /// Number of lanes idle at virtual time `t` (free at or before it).
    ///
    /// The streaming driver uses this as its micro-batch flush trigger: a
    /// partial batch held back while lanes sit idle is pure latency, so
    /// once every event at `t` has resolved, idle capacity releases the
    /// accumulators early.
    pub fn idle_lanes(&self, t: u64) -> usize {
        self.free
            .iter()
            .filter(|Reverse((free_at, _))| *free_at <= t)
            .count()
    }
}

/// A global pool of request lanes shared by many concurrent sessions —
/// [`EventClock`] lifted from "one query's `K` lanes" to "the deployment's
/// lanes, drawn from by every in-flight query".
///
/// The pool keeps the clock's determinism (earliest-free lane, ties to the
/// lowest index; tasks must be scheduled in a deterministic order) and
/// adds per-session service accounting: every scheduled task's duration is
/// tallied against its session, which is what the multi-query replay's
/// least-served-first arbitration and the utilisation report read.
#[derive(Debug, Clone)]
pub struct LanePool {
    clock: EventClock,
    /// Lane-busy virtual milliseconds served per session.
    served: Vec<u64>,
    /// Total lane-busy virtual milliseconds across all sessions.
    busy_ms: u64,
}

impl LanePool {
    /// A pool of `lanes` request lanes (clamped to ≥ 1) serving `sessions`
    /// sessions, all lanes free at virtual time zero.
    pub fn new(lanes: usize, sessions: usize) -> Self {
        LanePool {
            clock: EventClock::new(lanes),
            served: vec![0; sessions.max(1)],
            busy_ms: 0,
        }
    }

    /// The lane count.
    pub(crate) fn lanes(&self) -> usize {
        self.clock.lanes()
    }

    /// Schedules a task of `session` released at `release` with `duration`
    /// on the earliest-free lane and returns its completion time (exactly
    /// [`EventClock::schedule`]), tallying the duration as service to the
    /// session.
    pub fn schedule(&mut self, session: usize, release: u64, duration: u64) -> u64 {
        if let Some(s) = self.served.get_mut(session) {
            *s += duration;
        }
        self.busy_ms += duration;
        self.clock.schedule(release, duration)
    }

    /// Lane-busy virtual milliseconds served to `session` so far — the
    /// counter least-served-first arbitration ranks sessions by.
    pub fn served_ms(&self, session: usize) -> u64 {
        self.served.get(session).copied().unwrap_or(0)
    }

    /// The latest completion time scheduled so far.
    pub fn makespan(&self) -> u64 {
        self.clock.makespan()
    }

    /// Fraction of the `lanes × makespan` budget that did useful work
    /// (0.0 on an empty pool).
    pub fn utilisation(&self) -> f64 {
        let budget = (self.lanes() as u64 * self.makespan()) as f64;
        if budget == 0.0 {
            0.0
        } else {
            self.busy_ms as f64 / budget
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_lane_is_a_sum() {
        assert_eq!(lane_schedule([3, 5, 7], 1), 15);
        assert_eq!(lane_schedule([], 1), 0);
    }

    #[test]
    fn equal_durations_round_robin() {
        // 8 × 10ms over 4 lanes: two per lane.
        assert_eq!(lane_schedule(std::iter::repeat_n(10, 8), 4), 20);
    }

    #[test]
    fn more_lanes_than_work_costs_the_longest_item() {
        assert_eq!(lane_schedule([5, 9, 2], 16), 9);
    }

    #[test]
    fn greedy_balances_uneven_durations() {
        // 10 goes to lane 0, 1s pack onto lane 1: makespan 10, not 13.
        assert_eq!(lane_schedule([10, 1, 1, 1], 2), 10);
    }

    #[test]
    fn makespan_never_beats_the_critical_path_or_the_mean() {
        let durations = [7u64, 3, 9, 4, 1, 12, 5];
        let total: u64 = durations.iter().sum();
        for lanes in 1..6 {
            let m = lane_schedule(durations, lanes);
            assert!(m >= total.div_ceil(lanes as u64));
            assert!(m >= 12); // longest single duration
            assert!(m <= total);
        }
    }

    #[test]
    fn heap_schedule_matches_reference_min_scan() {
        // The pre-heap formulation, kept as the reference: O(lanes)
        // min-scan per item, first minimal lane wins. The lane counts run
        // from one lane (a plain sum) past 32, about where the heap starts
        // to beat the min-scan, to 64.
        fn reference(durations: &[u64], lanes: usize) -> u64 {
            let mut load = vec![0u64; lanes];
            for &d in durations {
                let min = (0..lanes)
                    .min_by_key(|&i| load[i])
                    .expect("at least one lane");
                load[min] += d;
            }
            load.into_iter().max().unwrap_or(0)
        }
        // Deterministic pseudo-random durations (xorshift), many ties.
        let mut x = 0x9e3779b97f4a7c15u64;
        let durations: Vec<u64> = (0..2000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 17
            })
            .collect();
        for lanes in (1..=40).chain([64]) {
            assert_eq!(
                lane_schedule(durations.iter().copied(), lanes),
                reference(&durations, lanes),
                "lanes {lanes}"
            );
            assert_eq!(
                lane_schedule([], lanes),
                reference(&[], lanes),
                "empty, lanes {lanes}"
            );
        }
    }

    #[test]
    fn event_clock_with_zero_releases_is_a_wave() {
        let durations = [7u64, 3, 9, 4, 1, 12, 5, 0, 9];
        for lanes in 1..6 {
            let mut clock = EventClock::new(lanes);
            for &d in &durations {
                clock.schedule(0, d);
            }
            assert_eq!(
                clock.makespan(),
                lane_schedule(durations.iter().copied(), lanes),
                "lanes {lanes}"
            );
        }
    }

    #[test]
    fn event_clock_honours_release_times() {
        let mut clock = EventClock::new(2);
        // Two tasks ready at t=0 fill both lanes until 10 and 4.
        assert_eq!(clock.schedule(0, 10), 10);
        assert_eq!(clock.schedule(0, 4), 4);
        // Released at 6 on the lane free at 4: starts at the release.
        assert_eq!(clock.schedule(6, 5), 11);
        // Released at 2 on the lane free at 10: waits for the lane.
        assert_eq!(clock.schedule(2, 1), 11);
        assert_eq!(clock.makespan(), 11);
    }

    #[test]
    fn event_clock_single_lane_chains_in_schedule_order() {
        let mut clock = EventClock::new(1);
        assert_eq!(clock.schedule(0, 5), 5);
        assert_eq!(clock.schedule(0, 5), 10);
        // Idle gap: the lane waits for the release, losing the idle time.
        assert_eq!(clock.schedule(20, 5), 25);
        assert_eq!(clock.makespan(), 25);
    }

    #[test]
    fn event_clock_ties_go_to_the_lowest_lane() {
        // Four equal-length tasks over four lanes, all released at zero:
        // round-robin assignment means a fifth task starts exactly when
        // lane 0 frees, regardless of makespan-equal alternatives.
        let mut clock = EventClock::new(4);
        for _ in 0..4 {
            assert_eq!(clock.schedule(0, 10), 10);
        }
        assert_eq!(clock.schedule(0, 10), 20);
        assert_eq!(clock.lanes(), 4);
    }

    #[test]
    fn event_clock_reports_idle_lanes() {
        let mut clock = EventClock::new(3);
        assert_eq!(clock.idle_lanes(0), 3);
        clock.schedule(0, 10);
        clock.schedule(0, 4);
        assert_eq!(clock.idle_lanes(0), 1);
        assert_eq!(clock.idle_lanes(4), 2);
        assert_eq!(clock.idle_lanes(10), 3);
    }

    #[test]
    fn event_clock_clamps_lanes() {
        let mut clock = EventClock::new(0);
        assert_eq!(clock.lanes(), 1);
        assert_eq!(clock.schedule(0, 3), 3);
        assert_eq!(clock.schedule(0, 3), 6);
    }

    #[test]
    fn parallelism_clamps_to_one() {
        assert_eq!(Parallelism::new(0).get(), 1);
        assert_eq!(Parallelism::default().get(), 1);
        assert_eq!(Parallelism::from(8).get(), 8);
        assert_eq!(Parallelism::new(3).to_string(), "3");
    }

    #[test]
    fn lane_pool_reproduces_the_event_clock() {
        // A one-session pool is exactly an EventClock with accounting.
        let mut pool = LanePool::new(4, 1);
        let mut clock = EventClock::new(4);
        let tasks = [(0u64, 10u64), (0, 4), (6, 5), (2, 1), (11, 3)];
        for &(r, d) in &tasks {
            assert_eq!(pool.schedule(0, r, d), clock.schedule(r, d));
        }
        assert_eq!(pool.makespan(), clock.makespan());
        assert_eq!(pool.served_ms(0), tasks.iter().map(|&(_, d)| d).sum());
        assert_eq!(pool.lanes(), 4);
        assert_eq!(pool.served.len(), 1);
    }

    #[test]
    fn lane_pool_tallies_service_per_session() {
        let mut pool = LanePool::new(2, 3);
        pool.schedule(0, 0, 10);
        pool.schedule(1, 0, 4);
        pool.schedule(1, 0, 2);
        pool.schedule(2, 0, 1);
        assert_eq!(pool.served_ms(0), 10);
        assert_eq!(pool.served_ms(1), 6);
        assert_eq!(pool.served_ms(2), 1);
        assert_eq!(pool.served_ms(99), 0);
        // 17 busy ms over 2 lanes × makespan.
        let expect = 17.0 / (2.0 * pool.makespan() as f64);
        assert!((pool.utilisation() - expect).abs() < 1e-12);
        assert_eq!(LanePool::new(8, 0).served.len(), 1);
        assert_eq!(LanePool::new(8, 2).utilisation(), 0.0);
    }
}
