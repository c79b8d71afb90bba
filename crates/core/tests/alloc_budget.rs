//! The engine's allocations on its two cold paths — per retrieved row on
//! the serving path, per prompt on the paper path — and per statement on
//! the planning path `EXPLAIN` runs.
//!
//! A counting global allocator (its count is per thread, and a statement
//! runs on the thread that executes it) reads how many allocations the
//! 46 suite statements make on a fresh session over the default seed-42
//! world.
//!
//! **Serving path.** A `GaloisOptions::serving()` session, divided by the
//! rows its steps retrieved. The model replays answers recorded on an
//! earlier session, so the count is the engine's plus one copied answer
//! per prompt. The code that parses answers as spans, de-duplicates
//! listed keys without lower-cased copies and hashes each key once for
//! all its sub-entry columns read 11.92 allocations per row on this world
//! (407 per statement; the code before it, 15.0 and 511); planning each
//! statement without copying names took that to 9.41 (321 per
//! statement), and a prompt cache that allocates nothing per miss (its
//! grid prompts' misses) to 9.28 (317). The budget is that reading plus
//! 10 %. A change that starts
//! copying keys or cells per row again fails here before any timing shows
//! it.
//!
//! **Paper path.** A `GaloisOptions::default()` session over a live oracle
//! `SimLlm`, divided by the prompts the statements sent, so the count is
//! the engine's, the client's and the simulator's. It read 16.23
//! allocations per prompt when the test was added (47 411 over 2 921
//! prompts, 1 031 per statement), the same before and after token counts
//! went to 64-byte blocks, which allocate nothing; planning without copies
//! and conditions rendered in place took it to 15.04 (955 per statement),
//! and a prompt cache that appends each miss's tail and answer to its
//! shard's text arena — no boxed tail, no cloned completion, no
//! in-flight `Arc` a miss — to 13.05 (829). The budget is that reading
//! plus 10 %. On the x20 world `paper_cold` runs
//! (`Scenario::generate_scaled(42, 20)`) the same code reads 10.92 a
//! prompt (13 196 per statement; 13.06 and 15 783 before the arena,
//! 13.13 and 15 858 before that). The cache's shards are picked by a
//! hash keyed at random, so when their arenas grow varies: a reading
//! moves by a few allocations in ten thousand from run to run.
//!
//! **Planning path.** The 46 statements and the operator suite's 18, each
//! as `EXPLAIN`, on a serving session warmed by one pass of the suite and
//! one of the `EXPLAIN`s, per statement: lexing, parsing, binding,
//! optimising, compiling, cost-based plan choice, the report and its
//! one-column relation. Sharing names (`Arc<str>` schema and plan names),
//! a keyword lookup that upper-cases on the stack, a parser that moves
//! token text instead of cloning it, a binder that collects nothing to
//! resolve a column or check a binding, estimates printed as integers
//! and conditions rendered in place took it from 194.73 allocations
//! (about 42 to parse, 62 to build the relational plan, 49 to compile and
//! choose, 14 to render, 29 for the relation) to 105.73 (14, 22, 29, 11
//! and 29; the same on x20). The budget is that reading plus 10 %.

use galois_core::{Galois, GaloisOptions};
use galois_dataset::{build_operator_suite, Scenario};
use galois_llm::{LanguageModel, ModelProfile, SimLlm, Transcript};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Allocations per retrieved row the serving test allows.
const BUDGET_PER_ROW: f64 = 9.28 * 1.1;

/// Allocations per prompt the paper-path test allows.
const BUDGET_PER_PROMPT: f64 = 13.05 * 1.1;

/// Allocations per `EXPLAIN` statement the planning test allows.
const BUDGET_PER_EXPLAIN: f64 = 105.73 * 1.1;

/// The system allocator, counting each allocation and reallocation on the
/// thread that asks for it.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call is forwarded to `System` unchanged; counting touches
// only a `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn the_cold_serving_suite_stays_within_its_allocations_per_retrieved_row() {
    let scenario = Scenario::generate(42);
    let statements: Vec<String> = scenario.suite.iter().map(|q| q.to_sql()).collect();
    assert_eq!(statements.len(), 46);
    let recording = Arc::new(Transcript::record(SimLlm::new(
        scenario.knowledge.clone(),
        ModelProfile::oracle(),
    )));
    let run = |model: Arc<dyn LanguageModel>| {
        let session =
            Galois::with_options(model, scenario.database.clone(), GaloisOptions::serving());
        let before = allocations();
        let mut rows = 0;
        for sql in &statements {
            rows += session.execute(sql).unwrap().stats.rows_retrieved;
        }
        (allocations() - before, rows)
    };
    run(Arc::clone(&recording) as Arc<dyn LanguageModel>);
    let replay = Arc::new(recording.transcript().replay());
    let (allocations, rows) = run(Arc::clone(&replay) as Arc<dyn LanguageModel>);
    assert_eq!(replay.misses(), 0);
    assert!(rows > 0, "the suite retrieved no row");
    let per_row = allocations as f64 / rows as f64;
    println!(
        "{allocations} allocations over {rows} retrieved rows: {per_row:.2} per row, \
         {:.0} per statement",
        allocations as f64 / statements.len() as f64
    );
    assert!(
        per_row <= BUDGET_PER_ROW,
        "{per_row:.2} allocations per retrieved row, over the budget of {BUDGET_PER_ROW:.2}"
    );
}

#[test]
fn the_cold_paper_suite_stays_within_its_allocations_per_prompt() {
    let scenario = Scenario::generate(42);
    let statements: Vec<String> = scenario.suite.iter().map(|q| q.to_sql()).collect();
    assert_eq!(statements.len(), 46);
    let model = Arc::new(SimLlm::new(
        scenario.knowledge.clone(),
        ModelProfile::oracle(),
    ));
    let session = Galois::with_options(model, scenario.database.clone(), GaloisOptions::default());
    let before = allocations();
    let mut prompts = 0;
    for sql in &statements {
        prompts += session.execute(sql).unwrap().stats.total_prompts();
    }
    let allocations = allocations() - before;
    assert!(prompts > 0, "the suite sent no prompt");
    let per_prompt = allocations as f64 / prompts as f64;
    println!(
        "{allocations} allocations over {prompts} prompts: {per_prompt:.2} per prompt, \
         {:.0} per statement",
        allocations as f64 / statements.len() as f64
    );
    assert!(
        per_prompt <= BUDGET_PER_PROMPT,
        "{per_prompt:.2} allocations per prompt, over the budget of {BUDGET_PER_PROMPT:.2}"
    );
}

#[test]
fn explain_on_a_warm_serving_session_stays_within_its_allocations_per_statement() {
    let scenario = Scenario::generate(42);
    let suite: Vec<String> = scenario.suite.iter().map(|q| q.to_sql()).collect();
    let statements: Vec<String> = (suite.iter().cloned())
        .chain(
            build_operator_suite(&scenario.world)
                .into_iter()
                .map(|q| q.sql),
        )
        .map(|sql| format!("EXPLAIN {sql}"))
        .collect();
    assert_eq!(statements.len(), 46 + 18);
    let model = Arc::new(SimLlm::new(
        scenario.knowledge.clone(),
        ModelProfile::oracle(),
    ));
    let session = Galois::with_options(model, scenario.database.clone(), GaloisOptions::serving());
    for sql in &suite {
        session.execute(sql).unwrap();
    }
    // One pass first, so every count below is a steady-state statement's.
    for sql in &statements {
        session.execute(sql).unwrap();
    }
    let before = allocations();
    for sql in &statements {
        session.execute(sql).unwrap();
    }
    let allocations = allocations() - before;
    let per_statement = allocations as f64 / statements.len() as f64;
    println!(
        "{allocations} allocations over {} EXPLAIN statements: {per_statement:.2} per statement",
        statements.len()
    );
    assert!(
        per_statement <= BUDGET_PER_EXPLAIN,
        "{per_statement:.2} allocations per EXPLAIN statement, over the budget of \
         {BUDGET_PER_EXPLAIN:.2}"
    );
}
