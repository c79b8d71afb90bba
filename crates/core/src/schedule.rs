//! The positional wave scheduler, kept for one benchmark probe.
//!
//! A *wave* is a set of units that share no data dependencies.
//! [`Scheduler::run_wave`] runs one on scoped threads and hands the results
//! back in submission order. No engine path uses it: a statement's client
//! requests are sent in order on the thread that runs the statement, and
//! [`Parallelism`] names virtual request lanes only (see [`Scheduler`]).
//!
//! With `Parallelism(1)` every unit runs inline on the calling thread, in
//! submission order.
//!
//! Virtual-time accounting is deliberately *not* done here: units return
//! their own virtual cost and the caller packs those costs onto simulated
//! lanes with [`galois_llm::lane_schedule`], so the virtual clock is a
//! deterministic function of the work, not of OS thread timing.

use galois_llm::Parallelism;
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Set on wave worker threads so *nested* waves (a unit that starts a
    /// wave of its own) run inline instead of multiplying threads — real
    /// concurrency stays bounded by the top-level wave's `K` rather than
    /// compounding to `K²`/`K³`.
    static IN_WAVE_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Executes waves of independent closures across a bounded worker pool.
///
/// No engine path and no harness uses it: a statement runs on its caller's
/// thread, cross-query concurrency is [`crate::run_multi_query`]'s
/// logical pass and replay, and the eval harness is sequential. [`new`]
/// and [`run_wave`] keep their signatures because `galois_benchmark`'s
/// `core.schedule.wave_ns_per_unit` probe compiles against them and that
/// package changes only in a benchmark-only PR — which deletes the probe
/// and this type together (ROADMAP 2b).
///
/// [`new`]: Scheduler::new
/// [`run_wave`]: Scheduler::run_wave
#[derive(Debug, Clone, Copy)]
pub struct Scheduler {
    workers: usize,
}

impl Scheduler {
    /// A scheduler running at most `parallelism` units concurrently.
    pub fn new(parallelism: Parallelism) -> Self {
        Scheduler {
            workers: parallelism.get(),
        }
    }

    /// Runs one wave of independent units, returning their results in
    /// submission order.
    ///
    /// Units are claimed from a shared queue by up to `workers` scoped
    /// threads; with one worker (or at most one unit), or when already on
    /// a wave worker thread (nested waves), everything runs inline on the
    /// calling thread — real thread count is bounded by the *outermost*
    /// wave's worker count. A panicking unit propagates when the scope
    /// joins. The virtual clock never depends on this choice: callers
    /// account unit costs structurally via `lane_schedule`.
    ///
    /// Results land in lock-free write-once slots ([`OnceLock`]), which is
    /// where the `T: Sync` bound comes from: every slot is visible to all
    /// workers, though only the claimer of its index ever writes it.
    pub fn run_wave<T, F>(&self, units: Vec<F>) -> Vec<T>
    where
        T: Send + Sync,
        F: FnOnce() -> T + Send,
    {
        if self.workers <= 1 || units.len() <= 1 || IN_WAVE_WORKER.with(Cell::get) {
            return units.into_iter().map(|unit| unit()).collect();
        }
        let n = units.len();
        let jobs: Vec<Mutex<Option<F>>> = units.into_iter().map(|u| Mutex::new(Some(u))).collect();
        // Result slots are written exactly once, by whichever worker
        // claimed index `i` from the atomic counter — a lock-free
        // write-once cell, not a mutex, so storing a result never contends
        // with another worker storing its own.
        let results: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n) {
                scope.spawn(|| {
                    IN_WAVE_WORKER.with(|flag| flag.set(true));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let Some(unit) = jobs[i].lock().take() else {
                            unreachable!("unit {i} claimed twice");
                        };
                        if results[i].set(unit()).is_err() {
                            unreachable!("slot {i} written twice");
                        }
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|slot| (slot.into_inner()).unwrap_or_else(|| unreachable!("every unit ran")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_submission_order() {
        let sched = Scheduler::new(Parallelism::new(4));
        let units: Vec<_> = (0..32)
            .map(|i| {
                move || {
                    // Stagger so late units often finish first.
                    std::thread::sleep(std::time::Duration::from_micros((32 - i as u64) * 50));
                    i * 10
                }
            })
            .collect();
        let got = sched.run_wave(units);
        assert_eq!(got, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_runs_inline_in_order() {
        let sched = Scheduler::new(Parallelism::new(1));
        let log = std::sync::Arc::new(Mutex::new(Vec::new()));
        let units: Vec<_> = (0..5)
            .map(|i| {
                let log = log.clone();
                move || {
                    log.lock().push(i);
                    i
                }
            })
            .collect();
        let got = sched.run_wave(units);
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_waves_run_inline_on_the_worker_thread() {
        let sched = Scheduler::new(Parallelism::new(4));
        let units: Vec<_> = (0..4)
            .map(|_| {
                move || {
                    let outer_thread = std::thread::current().id();
                    let inner = Scheduler::new(Parallelism::new(4));
                    let inner_units: Vec<_> = (0..3)
                        .map(|_| move || std::thread::current().id())
                        .collect();
                    inner
                        .run_wave(inner_units)
                        .into_iter()
                        .all(|id| id == outer_thread)
                }
            })
            .collect();
        assert!(
            sched.run_wave(units).into_iter().all(|inline| inline),
            "nested waves must not spawn further threads"
        );
    }

    #[test]
    fn lockfree_result_slots_preserve_order_under_contention() {
        // Many more units than workers, adversarially staggered so claim
        // order and completion order disagree wildly: the write-once slots
        // must still return results in exact submission order, run after
        // run.
        let sched = Scheduler::new(Parallelism::new(8));
        for round in 0..5u64 {
            let units: Vec<_> = (0..64u64)
                .map(|i| {
                    move || {
                        let jitter = ((i * 7 + round * 13) % 11) * 40;
                        std::thread::sleep(std::time::Duration::from_micros(jitter));
                        (i, i * i)
                    }
                })
                .collect();
            let got = sched.run_wave(units);
            let expected: Vec<(u64, u64)> = (0..64).map(|i| (i, i * i)).collect();
            assert_eq!(got, expected, "round {round}");
        }
    }

    #[test]
    fn empty_wave_is_fine() {
        let sched = Scheduler::new(Parallelism::new(8));
        let got: Vec<i32> = sched.run_wave(Vec::<fn() -> i32>::new());
        assert!(got.is_empty());
    }

    #[test]
    fn wave_actually_uses_multiple_threads() {
        let sched = Scheduler::new(Parallelism::new(4));
        let concurrent = std::sync::Arc::new(AtomicUsize::new(0));
        let peak = std::sync::Arc::new(AtomicUsize::new(0));
        let units: Vec<_> = (0..8)
            .map(|_| {
                let concurrent = concurrent.clone();
                let peak = peak.clone();
                move || {
                    let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    concurrent.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .collect();
        sched.run_wave(units);
        assert!(
            peak.load(Ordering::SeqCst) > 1,
            "expected overlapping units, peak {}",
            peak.load(Ordering::SeqCst)
        );
    }
}
