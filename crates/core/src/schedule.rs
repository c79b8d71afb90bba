//! The prompt scheduler: real worker threads for independent units.
//!
//! A *wave* is a set of units that share no data dependencies — the client
//! requests one round of the session's barrier driver fires, the prompts
//! one instant of its event driver releases. [`Crew::run_wave_streaming`]
//! runs a wave across a session's standing helper threads, handing each
//! `(index, result)` pair to a sink on the calling thread as units finish,
//! the calling thread itself working as one of the `K` (`K` = the
//! session's [`Parallelism`] knob); the helpers park between waves,
//! because a statement runs several short ones. [`Scheduler::run_wave`] is
//! the positional form on scoped threads — results come back in submission
//! order. Nothing in the workspace calls it any more (see [`Scheduler`]).
//!
//! With `Parallelism(1)` both run every unit inline on the calling thread,
//! in submission order, which keeps the sequential path bit-for-bit
//! reproducible.
//!
//! Virtual-time accounting is deliberately *not* done here: units return
//! their own virtual cost and the caller packs those costs onto simulated
//! lanes with [`galois_llm::lane_schedule`], so the virtual clock is a
//! deterministic function of the work, not of OS thread timing.

use galois_llm::Parallelism;
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};

thread_local! {
    /// Set on wave worker threads so *nested* waves (a unit that starts a
    /// wave of its own) run inline instead of multiplying threads — real
    /// concurrency stays bounded by the top-level wave's `K` rather than
    /// compounding to `K²`/`K³`.
    static IN_WAVE_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Executes waves of independent closures across a bounded worker pool.
///
/// No engine path and no harness uses it: a session's concurrency is its
/// [`Crew`], cross-query concurrency is [`crate::run_multi_query`]'s
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

/// A session's standing helper threads for completion-ordered waves.
///
/// A session's drivers fire a wave of requests at every round or instant
/// of a statement — several a statement — and most of them are over in
/// microseconds (cache hits, a simulated model). Spawning and joining `K`
/// OS threads for such a wave costs more than the wave and makes the
/// statement wait on the OS scheduler (beside one busy neighbour process
/// a cold serving statement takes 40 % longer that way). A crew keeps its
/// helpers parked between waves, wakes them only while a wave has units
/// unclaimed, and makes the calling thread one of the `K` workers, so a
/// wave the caller drains alone never waits for another thread — while a
/// wave of slow units (a remote model) is still `K` wide a few wake-ups
/// after it is posted.
///
/// Helpers outlive the calls that use them, which is why units must be
/// `'static`; they exit when the crew (the session) is dropped.
pub struct Crew {
    /// Workers per wave, the calling thread included.
    width: usize,
    shared: Arc<CrewShared>,
}

struct CrewShared {
    state: StdMutex<CrewState>,
    /// Parked helpers wait here for a wave or for shutdown.
    wake: Condvar,
}

#[derive(Default)]
struct CrewState {
    /// Waves whose caller has not returned yet, by id.
    open: Vec<(u64, Arc<dyn Help>)>,
    next_id: u64,
    /// Helpers parked on `wake`.
    idle: usize,
    /// Every helper started so far; at most `width - 1`.
    helpers: Vec<std::thread::JoinHandle<()>>,
    shutdown: bool,
}

/// What a helper sees of a wave, whatever its unit and result types.
trait Help: Send + Sync {
    /// True while units are unclaimed.
    fn pending(&self) -> bool;
    /// Claims and runs units until none is left.
    fn help(&self);
}

struct Wave<T, F> {
    jobs: Vec<Mutex<Option<F>>>,
    next: AtomicUsize,
    landing: StdMutex<Landing<T>>,
    ready: Condvar,
}

/// Results the helpers have landed and the caller has not sunk yet, plus
/// the units lost to panics (the caller's wait must end all the same).
struct Landing<T> {
    items: Vec<(usize, T)>,
    lost: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl<T, F: FnOnce() -> T> Wave<T, F> {
    fn claim(&self) -> Option<(usize, F)> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        let job = self.jobs.get(i)?;
        let Some(unit) = job.lock().take() else {
            unreachable!("unit {i} claimed twice");
        };
        Some((i, unit))
    }

    fn landing(&self) -> std::sync::MutexGuard<'_, Landing<T>> {
        self.landing.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Send, F: FnOnce() -> T + Send> Help for Wave<T, F> {
    fn pending(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.jobs.len()
    }

    fn help(&self) {
        while let Some((i, unit)) = self.claim() {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(unit));
            let mut landing = self.landing();
            match outcome {
                Ok(result) => landing.items.push((i, result)),
                Err(payload) => {
                    landing.lost += 1;
                    landing.panic.get_or_insert(payload);
                }
            }
            drop(landing);
            self.ready.notify_all();
        }
    }
}

/// Removes a wave from the crew's open list when its caller leaves,
/// normally or unwinding out of the sink.
struct OpenWave<'a> {
    shared: &'a CrewShared,
    id: u64,
}

impl Drop for OpenWave<'_> {
    fn drop(&mut self) {
        self.shared.state().open.retain(|(id, _)| *id != self.id);
    }
}

impl CrewShared {
    fn state(&self) -> std::sync::MutexGuard<'_, CrewState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Brings one more helper to the open waves: a parked one if there is
    /// one, else a new thread while fewer than `helpers` exist.
    fn recruit(self: &Arc<Self>, state: &mut CrewState, helpers: usize) {
        if state.idle > 0 {
            self.wake.notify_one();
        } else if state.helpers.len() < helpers {
            let shared = Arc::clone(self);
            state
                .helpers
                .push(std::thread::spawn(move || shared.helper(helpers)));
        }
    }

    /// A helper thread's life: help the first open wave that has units
    /// left — after recruiting the next helper, so a wave that stays
    /// pending widens one helper at a time — else park.
    fn helper(self: Arc<Self>, helpers: usize) {
        IN_WAVE_WORKER.with(|flag| flag.set(true));
        let mut state = self.state();
        while !state.shutdown {
            let pending = state.open.iter().find(|(_, wave)| wave.pending());
            if let Some((_, wave)) = pending {
                let wave = Arc::clone(wave);
                self.recruit(&mut state, helpers);
                drop(state);
                wave.help();
                drop(wave);
                state = self.state();
            } else {
                state.idle += 1;
                state = self.wake.wait(state).unwrap_or_else(|e| e.into_inner());
                state.idle -= 1;
            }
        }
    }
}

impl Crew {
    /// A crew running at most `parallelism` units of a wave at once. No
    /// thread starts before a wave needs it.
    pub fn new(parallelism: Parallelism) -> Self {
        Crew {
            width: parallelism.get(),
            shared: Arc::new(CrewShared {
                state: StdMutex::new(CrewState::default()),
                wake: Condvar::new(),
            }),
        }
    }

    /// Runs one wave of independent units, delivering each `(index,
    /// result)` pair to `sink` on the calling thread, roughly **in
    /// completion order**: the caller runs units itself and, after each,
    /// first sinks what the helpers finished meanwhile.
    ///
    /// [`Scheduler::run_wave`] is the positional form: it hands back a
    /// submission-ordered `Vec`. Here the order is nondeterministic by
    /// construction — callers that need determinism must key their state
    /// by the delivered index, exactly like the virtual clock does. The
    /// sink needs no `Send` bound and may freely mutate caller state.
    ///
    /// With a width of one, a single unit, or on a wave worker thread
    /// (nested waves) everything runs inline, in submission order. A
    /// panicking unit is re-raised on the caller after the surviving
    /// units have been delivered.
    pub fn run_wave_streaming<T, F, S>(&self, units: Vec<F>, mut sink: S)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
        S: FnMut(usize, T),
    {
        if self.width <= 1 || units.len() <= 1 || IN_WAVE_WORKER.with(Cell::get) {
            for (i, unit) in units.into_iter().enumerate() {
                sink(i, unit());
            }
            return;
        }
        let n = units.len();
        let wave = Arc::new(Wave {
            jobs: units.into_iter().map(|u| Mutex::new(Some(u))).collect(),
            next: AtomicUsize::new(0),
            landing: StdMutex::new(Landing {
                items: Vec::new(),
                lost: 0,
                panic: None,
            }),
            ready: Condvar::new(),
        });
        let _open = {
            let mut state = self.shared.state();
            let id = state.next_id;
            state.next_id += 1;
            state.open.push((id, Arc::clone(&wave) as Arc<dyn Help>));
            self.shared.recruit(&mut state, self.width - 1);
            OpenWave {
                shared: &self.shared,
                id,
            }
        };
        let mut delivered = 0;
        // The caller's share of the wave. What the helpers landed while
        // it ran a unit completed before that unit did, so is sunk first.
        while let Some((i, unit)) = wave.claim() {
            let own = {
                let _mark = WorkerMark::set();
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(unit))
            };
            let mut landing = wave.landing();
            let landed = std::mem::take(&mut landing.items);
            let own = match own {
                Ok(result) => Some(result),
                Err(payload) => {
                    landing.lost += 1;
                    landing.panic.get_or_insert(payload);
                    None
                }
            };
            drop(landing);
            for (j, result) in landed.into_iter().chain(own.map(|result| (i, result))) {
                delivered += 1;
                sink(j, result);
            }
        }
        // Every unit is claimed: wait for the ones helpers still run.
        let mut landing = wave.landing();
        while delivered + landing.lost < n {
            let landed = std::mem::take(&mut landing.items);
            if landed.is_empty() {
                landing = wave.ready.wait(landing).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            drop(landing);
            for (i, result) in landed {
                delivered += 1;
                sink(i, result);
            }
            landing = wave.landing();
        }
        let panic = landing.panic.take();
        drop(landing);
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        let helpers = {
            let mut state = self.shared.state();
            state.shutdown = true;
            std::mem::take(&mut state.helpers)
        };
        self.shared.wake.notify_all();
        for helper in helpers {
            // A helper catches its units' panics; it has none of its own.
            let _ = helper.join();
        }
    }
}

/// Marks the current thread as a wave worker until dropped, then restores
/// what it was: the calling thread works in its own wave, so waves its
/// units start run inline, and is no worker once the unit is over.
struct WorkerMark(bool);

impl WorkerMark {
    fn set() -> Self {
        WorkerMark(IN_WAVE_WORKER.with(|flag| flag.replace(true)))
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WAVE_WORKER.with(|flag| flag.set(self.0));
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
    fn streaming_delivers_every_result_exactly_once() {
        let sched = Crew::new(Parallelism::new(4));
        let units: Vec<_> = (0..32u64)
            .map(|i| {
                move || {
                    std::thread::sleep(std::time::Duration::from_micros(((i * 13) % 7) * 40));
                    i * 10
                }
            })
            .collect();
        let mut got = vec![None; 32];
        sched.run_wave_streaming(units, |i, r| {
            assert!(got[i].is_none(), "index {i} delivered twice");
            got[i] = Some(r);
        });
        for (i, slot) in got.iter().enumerate() {
            assert_eq!(*slot, Some(i as u64 * 10));
        }
    }

    #[test]
    fn streaming_delivers_in_completion_order() {
        // Unit 0 sleeps far longer than its siblings: with several real
        // workers the fast units must be sunk before it, proving delivery
        // is by completion, not submission.
        let sched = Crew::new(Parallelism::new(4));
        let units: Vec<_> = (0..4u64)
            .map(|i| {
                move || {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(60));
                    }
                    i
                }
            })
            .collect();
        let mut order = Vec::new();
        sched.run_wave_streaming(units, |i, _| order.push(i));
        assert_eq!(order.len(), 4);
        assert_eq!(*order.last().unwrap(), 0, "slow unit arrived {order:?}");
    }

    #[test]
    fn streaming_single_worker_is_submission_ordered() {
        let sched = Crew::new(Parallelism::new(1));
        let units: Vec<_> = (0..5).map(|i| move || i).collect();
        let mut order = Vec::new();
        sched.run_wave_streaming(units, |i, r| {
            assert_eq!(i, r);
            order.push(i);
        });
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn streaming_panic_propagates_without_deadlock() {
        let sched = Crew::new(Parallelism::new(4));
        let units: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("unit exploded");
                    }
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut delivered = 0usize;
            sched.run_wave_streaming(units, |_, _| delivered += 1);
            delivered
        }));
        assert!(outcome.is_err(), "the unit panic must propagate");
    }

    /// A wave of `n` units that sleep `ms` and report their thread.
    fn sleepy_units(n: usize, ms: u64) -> Vec<impl FnOnce() -> std::thread::ThreadId + Send> {
        (0..n)
            .map(move |_| {
                move || {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                    std::thread::current().id()
                }
            })
            .collect()
    }

    #[test]
    fn crew_keeps_its_helpers_between_waves_and_within_its_width() {
        let crew = Crew::new(Parallelism::new(4));
        let mut threads = std::collections::HashSet::new();
        for _ in 0..12 {
            crew.run_wave_streaming(sleepy_units(8, 2), |_, id| {
                threads.insert(id);
            });
        }
        assert!(
            threads.contains(&std::thread::current().id()),
            "the caller works in its own waves"
        );
        assert!(threads.len() > 1, "slow units must reach a helper");
        assert!(
            threads.len() <= 4,
            "12 waves ran on {} threads",
            threads.len()
        );
        assert!(crew.shared.state().helpers.len() <= 3);
    }

    #[test]
    fn crew_survives_a_panicking_unit_and_keeps_its_payload() {
        let crew = Crew::new(Parallelism::new(4));
        let units: Vec<_> = (0..8usize)
            .map(|i| {
                move || {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    assert!(i != 5, "unit five exploded");
                    i
                }
            })
            .collect();
        let mut delivered = Vec::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crew.run_wave_streaming(units, |i, _| delivered.push(i));
        }));
        let payload = outcome.expect_err("the unit panic must propagate");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "unit five exploded");
        delivered.sort_unstable();
        assert_eq!(delivered, vec![0, 1, 2, 3, 4, 6, 7], "survivors come first");
        assert!(crew.shared.state().open.is_empty(), "the wave is closed");
        // The helpers are still there for the next wave.
        let mut sum = 0;
        crew.run_wave_streaming((0..8usize).map(|i| move || i).collect(), |_, r| sum += r);
        assert_eq!(sum, 28);
    }

    #[test]
    fn crew_units_are_wave_workers_and_the_caller_is_not_afterwards() {
        let crew = Crew::new(Parallelism::new(4));
        let units: Vec<_> = (0..8)
            .map(|_| {
                move || {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    let outer = std::thread::current().id();
                    let inner: Vec<_> = (0..3).map(|_| || std::thread::current().id()).collect();
                    Scheduler::new(Parallelism::new(4))
                        .run_wave(inner)
                        .into_iter()
                        .all(|id| id == outer)
                }
            })
            .collect();
        let mut inline = true;
        crew.run_wave_streaming(units, |_, ok| inline &= ok);
        assert!(inline, "nested waves must not spawn further threads");
        assert!(!IN_WAVE_WORKER.with(Cell::get));
    }

    #[test]
    fn dropping_a_crew_ends_its_helpers() {
        let crew = Crew::new(Parallelism::new(4));
        crew.run_wave_streaming(sleepy_units(8, 5), |_, _| {});
        let shared = Arc::clone(&crew.shared);
        assert!(!shared.state().helpers.is_empty());
        drop(crew);
        assert_eq!(Arc::strong_count(&shared), 1, "every helper has exited");
    }

    #[test]
    fn a_crew_that_never_sees_a_wide_wave_starts_no_thread() {
        let crew = Crew::new(Parallelism::new(8));
        crew.run_wave_streaming(vec![|| 1], |_, _| {});
        let sequential = Crew::new(Parallelism::new(1));
        sequential.run_wave_streaming(sleepy_units(4, 1), |_, _| {});
        assert!(crew.shared.state().helpers.is_empty());
        assert!(sequential.shared.state().helpers.is_empty());
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
