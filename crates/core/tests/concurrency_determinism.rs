//! Determinism under concurrency: the lanes and the query threads must be
//! *observationally invisible*.
//!
//! For any parallelism level, a query must yield the identical `R_M`
//! relation, identical per-kind prompt counts, identical cache-hit totals
//! and identical single-lane virtual time as the strictly sequential path
//! — only the lane-packed virtual clock (and the wall clock) may shrink.
//! `Parallelism` names virtual request lanes only: a statement sends every
//! prompt from the thread that runs it, in order, whatever its `K`. The
//! property below drives every retrieval shape (iterated scans,
//! conjunctive filters, multi-column fetches, multi-step joins including a
//! self-join whose steps ask identical prompts) at several lane counts,
//! and one test checks that no prompt leaves the calling thread.
//!
//! Real threads come from the callers: query threads sharing one session
//! (or one QA baseline) leave every `R_M`, every per-query prompt count
//! and the suite's cache-hit bill where a single thread puts them, and two
//! threads racing one cold concept share one universe. These are the
//! tests of the client's shard locks, its in-flight dedup and the store
//! race; they live here on plain scoped threads.

use galois_core::{
    BaselineKind, Galois, GaloisOptions, GaloisResult, ListStore, Parallelism, Pipeline,
    PromptBatch, QaBaseline,
};
use galois_dataset::{build_operator_suite, Scenario, WorldConfig};
use galois_llm::{Completion, KeyUniverseStore, LanguageModel, ModelProfile, SimLlm};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

/// Query shapes covering scans, filters, fetches, aggregates and joins.
/// The self-join makes two steps issue *identical* prompts: the model
/// answers each once, and the repeat is a cache hit at any lane count.
const QUERIES: [&str; 7] = [
    "SELECT name FROM city",
    "SELECT name, population FROM city WHERE elevation < 800",
    "SELECT name FROM city WHERE population > 200000 AND elevation < 1500",
    "SELECT COUNT(*), AVG(population) FROM city",
    "SELECT continent, COUNT(*) FROM country GROUP BY continent ORDER BY continent",
    "SELECT p.name, r.electionYear FROM city p, cityMayor r WHERE p.mayor = r.name",
    "SELECT a.name, b.name FROM city a, city b WHERE a.mayor = b.mayor",
];

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

fn model(scenario: &Scenario, profile: &str) -> Arc<dyn LanguageModel> {
    let profile = match profile {
        "oracle" => ModelProfile::oracle(),
        "chatgpt" => ModelProfile::chatgpt(),
        _ => ModelProfile::flan(),
    };
    Arc::new(SimLlm::new(scenario.knowledge.clone(), profile))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn scheduler_parallelism_is_invisible(
        seed in prop::sample::select(vec![7u64, 42, 99]),
        sql in prop::sample::select(QUERIES.to_vec()),
        profile in prop::sample::select(vec!["oracle", "chatgpt", "flan"]),
    ) {
        let s = scenario(seed);
        let run = |lanes: usize| {
            let g = Galois::with_options(
                model(&s, profile),
                s.database.clone(),
                GaloisOptions {
                    parallelism: Parallelism::new(lanes),
                    ..Default::default()
                },
            );
            g.execute(sql).unwrap()
        };
        let base = run(1);
        for lanes in [2usize, 8] {
            let got = run(lanes);
            prop_assert_eq!(&got.relation.rows, &base.relation.rows,
                "R_M diverged at parallelism {} for {}", lanes, sql);
            prop_assert_eq!(got.stats.list_prompts, base.stats.list_prompts);
            prop_assert_eq!(got.stats.filter_prompts, base.stats.filter_prompts);
            prop_assert_eq!(got.stats.fetch_prompts, base.stats.fetch_prompts);
            prop_assert_eq!(got.stats.cache_hits, base.stats.cache_hits,
                "cache-hit totals diverged at parallelism {} for {}", lanes, sql);
            prop_assert_eq!(got.stats.rows_retrieved, base.stats.rows_retrieved);
            prop_assert_eq!(got.stats.serial_virtual_ms, base.stats.serial_virtual_ms);
            prop_assert!(got.stats.virtual_ms <= base.stats.virtual_ms,
                "lanes may only shorten the virtual clock");
        }
    }
}

/// Records the thread of every call that reaches the model and holds the
/// call for `delay`. The caches and the in-flight dedup sit in front of
/// it, so the number of calls is the ground truth for "how much model
/// work did the race cost"; a delay of a millisecond is long enough that
/// a request handed to another thread would reach the model there while
/// the statement's own thread is busy.
struct RecordingModel {
    inner: SimLlm,
    delay: Duration,
    threads: Mutex<Vec<ThreadId>>,
}

impl RecordingModel {
    fn oracle(scenario: &Scenario, delay: Duration) -> Arc<Self> {
        Arc::new(RecordingModel {
            inner: SimLlm::new(scenario.knowledge.clone(), ModelProfile::oracle()),
            delay,
            threads: Mutex::new(Vec::new()),
        })
    }

    fn calls(&self) -> usize {
        self.threads.lock().unwrap().len()
    }
}

impl LanguageModel for RecordingModel {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn signature(&self) -> String {
        self.inner.signature()
    }
    fn context_window(&self) -> usize {
        self.inner.context_window()
    }
    fn complete(&self, prompt: &str) -> Completion {
        self.threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        std::thread::sleep(self.delay);
        self.inner.complete(prompt)
    }
}

/// Every prompt of a statement reaches the model on the thread that
/// called `execute`, at eight lanes under both drivers: the serving stack
/// (the event driver) and the barrier driver with the same grid batching.
/// The evaluation suite's 46 statements and the operator suite's 18 run
/// cold on the default seed-42 world, one session per configuration. (On
/// this world the serving stack fires instants of several requests, which
/// is where a second thread would show.)
#[test]
fn a_statement_answers_every_prompt_on_the_calling_thread() {
    let s = Scenario::generate(42);
    let mut statements: Vec<String> = s.suite.iter().map(|spec| spec.to_sql()).collect();
    statements.extend(build_operator_suite(&s.world).into_iter().map(|q| q.sql));
    let barrier = GaloisOptions {
        parallelism: Parallelism::new(8),
        pipeline: Pipeline::Off,
        prompt_batch: PromptBatch::Grid { keys: 10, attrs: 6 },
        ..Default::default()
    };
    let caller = std::thread::current().id();
    for (name, options) in [("serving", GaloisOptions::serving()), ("barrier", barrier)] {
        let recorder = RecordingModel::oracle(&s, Duration::from_millis(1));
        let galois = Galois::with_options(recorder.clone(), s.database.clone(), options);
        for sql in &statements {
            if let Err(e) = galois.execute(sql) {
                panic!("{name}: {sql}: {e}");
            }
        }
        let threads = recorder.threads.lock().unwrap();
        assert!(!threads.is_empty(), "{name}: no prompt reached the model");
        let elsewhere = threads.iter().filter(|&&id| id != caller).count();
        assert_eq!(
            elsewhere,
            0,
            "{name}: {elsewhere} of {} model calls ran off the calling thread",
            threads.len()
        );
    }
}

/// Two OS threads racing the *same cold concept* on a shared key-universe
/// store must converge on a single de-duplicated universe, and — at
/// `Parallelism(1)` — cost the model exactly as many prompts as running
/// the query twice sequentially: every prompt string the loser needs is
/// either cached or in flight, so the model-call count is deterministic
/// across repeats even though the thread interleaving is not.
#[test]
fn racing_threads_share_one_deduplicated_universe() {
    let s = scenario(42);
    let sql = "SELECT name FROM city";
    let race = || {
        let store = Arc::new(KeyUniverseStore::default());
        let counter = RecordingModel::oracle(&s, Duration::ZERO);
        let galois = Arc::new(Galois::with_options(
            counter.clone(),
            s.database.clone(),
            GaloisOptions {
                parallelism: Parallelism::new(1),
                list_store: ListStore::Shared(store.clone()),
                ..Default::default()
            },
        ));
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let galois = galois.clone();
                    scope.spawn(move || galois.execute(sql).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        (store, counter.calls(), results)
    };

    // Sequential ground truth: the same query twice on one session.
    let (seq_store, seq_calls, seq_results) = {
        let store = Arc::new(KeyUniverseStore::default());
        let counter = RecordingModel::oracle(&s, Duration::ZERO);
        let galois = Galois::with_options(
            counter.clone(),
            s.database.clone(),
            GaloisOptions {
                parallelism: Parallelism::new(1),
                list_store: ListStore::Shared(store.clone()),
                ..Default::default()
            },
        );
        let a = galois.execute(sql).unwrap();
        let b = galois.execute(sql).unwrap();
        (store, counter.calls(), vec![a, b])
    };
    assert_eq!(seq_store.len(), 1, "one concept listed");

    for attempt in 0..4 {
        let (store, calls, results) = race();
        assert_eq!(
            store.len(),
            1,
            "racing threads must publish a single universe (attempt {attempt})"
        );
        let sig = SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()).signature();
        let warm = store.warm_map(&sig);
        assert_eq!(warm.len(), 1, "the universe must be exhausted");
        assert_eq!(
            warm.values().copied().sum::<usize>(),
            seq_results[0].relation.rows.len(),
            "the shared universe must hold every key exactly once (attempt {attempt})"
        );
        for r in &results {
            assert_eq!(
                r.relation.rows, seq_results[0].relation.rows,
                "racing result diverged (attempt {attempt})"
            );
        }
        assert_eq!(
            calls, seq_calls,
            "prompt count must be deterministic under the race (attempt {attempt})"
        );
    }
}

/// Runs `units` work items on `threads` scoped threads — started together
/// by a barrier, each claiming the next index from a shared counter — and
/// returns the results in index order.
fn on_query_threads<T: Send>(
    units: usize,
    threads: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let start = Barrier::new(threads);
    let mut claimed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= units {
                            break mine;
                        }
                        mine.push((i, work(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a query thread panicked"))
            .collect()
    });
    claimed.sort_by_key(|(i, _)| *i);
    claimed.into_iter().map(|(_, result)| result).collect()
}

/// The 46-query suite through one fresh session on `threads` query threads.
fn suite_on_query_threads(
    s: &Scenario,
    profile: &str,
    options: GaloisOptions,
    threads: usize,
) -> Vec<GaloisResult> {
    let galois = Galois::with_options(model(s, profile), s.database.clone(), options);
    on_query_threads(s.suite.len(), threads, |i| {
        galois
            .execute(&s.suite[i].to_sql())
            .expect("suite queries execute")
    })
}

/// Eight query threads over one shared default session, on the oracle and
/// two noisy models: every query's `R_M` — so Tables 1 and 2, which are
/// functions of it — and prompt count are the single-threaded ones, and so
/// are the suite's prompt, cache-hit and serial-clock totals. Only the
/// per-query *attribution* of cross-query cache hits may shift. The QA
/// baselines share a client the same way and answer the same.
#[test]
fn query_threads_leave_relations_prompt_counts_and_suite_totals_unchanged() {
    let s = Scenario::generate_with(
        42,
        WorldConfig {
            countries: 8,
            cities: 20,
            airports: 10,
            singers: 10,
            concerts: 12,
            employees: 15,
        },
    );
    for profile in ["oracle", "flan", "chatgpt"] {
        let single = suite_on_query_threads(&s, profile, GaloisOptions::default(), 1);
        let threaded = suite_on_query_threads(&s, profile, GaloisOptions::default(), 8);
        for ((spec, a), b) in s.suite.iter().zip(&single).zip(&threaded) {
            assert_eq!(a.relation.rows, b.relation.rows, "{profile} q{}", spec.id);
            assert_eq!(
                a.stats.total_prompts(),
                b.stats.total_prompts(),
                "{profile} q{} prompts",
                spec.id
            );
        }
        let totals = |run: &[GaloisResult]| {
            run.iter().fold((0, 0, 0), |(p, h, ms), r| {
                (
                    p + r.stats.total_prompts(),
                    h + r.stats.cache_hits,
                    ms + r.stats.serial_virtual_ms,
                )
            })
        };
        assert_eq!(totals(&single), totals(&threaded), "{profile} suite totals");

        for kind in [BaselineKind::Plain, BaselineKind::ChainOfThought] {
            let ask = |threads| {
                let baseline = QaBaseline::new(model(&s, profile));
                on_query_threads(s.suite.len(), threads, |i| {
                    let answer = baseline.ask(&s.suite[i].question(), kind);
                    (answer.records, answer.virtual_ms)
                })
            };
            assert_eq!(ask(1), ask(4), "{profile} {kind:?} baseline");
        }
    }
}

/// Sub-entry hits are billed by signature, never by arrival order: on the
/// key-batched configuration the suite's cache-hit total and every `R_M`
/// are the same at 1 and at 8 query threads, run after run. (Prompt totals
/// are left out: racing queries may split a chunk differently and re-ask
/// an in-flight key.)
#[test]
fn suite_cache_hits_are_query_thread_count_invariant() {
    let s = scenario(42);
    let run = |threads| {
        let batched = GaloisOptions {
            prompt_batch: PromptBatch::Grid { keys: 10, attrs: 1 },
            parallelism: Parallelism::new(8),
            ..Default::default()
        };
        suite_on_query_threads(&s, "oracle", batched, threads)
    };
    let hits = |run: &[GaloisResult]| run.iter().map(|r| r.stats.cache_hits).sum::<usize>();
    let single = run(1);
    for attempt in 0..3 {
        let threaded = run(8);
        for ((spec, a), b) in s.suite.iter().zip(&single).zip(&threaded) {
            assert_eq!(
                a.relation.rows, b.relation.rows,
                "q{} (attempt {attempt})",
                spec.id
            );
        }
        assert_eq!(
            hits(&single),
            hits(&threaded),
            "cache-hit totals wobbled under threads (attempt {attempt})"
        );
    }
}

/// The sequential path (`Parallelism(1)`) must itself be run-to-run
/// deterministic — the property above compares against it as ground truth.
#[test]
fn sequential_baseline_is_stable() {
    let s = scenario(42);
    let run = || {
        Galois::new(model(&s, "chatgpt"), s.database.clone())
            .execute(QUERIES[6])
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.relation.rows, b.relation.rows);
    assert_eq!(a.stats.virtual_ms, b.stats.virtual_ms);
    assert_eq!(a.stats.cache_hits, b.stats.cache_hits);
}
