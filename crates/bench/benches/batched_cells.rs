//! Microbenchmarks for the batched-cell hot path.
//!
//! Every key of every retrieval cell is asked of the client's per-key
//! extraction cache first. `batched_cells_subentry_run` drives the real
//! session: a repeated batched query's filter/fetch phases are served
//! entirely from sub-entries, so the run is dominated by cache extraction.
//! `warm_statement/x10` is the serving configuration's version of the
//! same: the whole suite on a warmed grid-stack session, where no prompt
//! is sent and every key and cell is served from the stores;
//! `warm_new_statement/x10` is one statement the suite does not contain,
//! over columns its statements have already fetched.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use galois_core::{Galois, GaloisOptions, PromptBatch};
use galois_dataset::Scenario;
use galois_llm::{ModelProfile, SimLlm};
use std::sync::Arc;

fn bench_batched_cell_extraction(c: &mut Criterion) {
    let scenario = Scenario::generate(42);
    let session = Galois::with_options(
        Arc::new(SimLlm::new(
            scenario.knowledge.clone(),
            ModelProfile::oracle(),
        )),
        scenario.database.clone(),
        GaloisOptions {
            prompt_batch: PromptBatch::Grid { keys: 10, attrs: 1 },
            ..Default::default()
        },
    );
    let sql = "SELECT name, population FROM city WHERE elevation < 100";
    // Warm the sub-entry store: every later run's filter/fetch phase is
    // pure per-key extraction.
    session.execute(sql).expect("warm-up run");

    c.bench_function("batched_cells_subentry_run", |b| {
        b.iter(|| session.execute(black_box(sql)).expect("cached run"))
    });
}

/// One pass of the 46-statement suite over the x10 world on a warmed
/// serving session (streaming, cost planner, grid batching, key-universe
/// store): stored universes in, sub-entry hits, cell cleaning, temporary
/// tables, relational execution — the host's whole cost when the model
/// costs nothing. Time ÷ 46 is one warm statement.
fn bench_warm_statement(c: &mut Criterion) {
    let scenario = Scenario::generate_scaled(42, 10);
    let session = galois_bench::fresh_session(
        &scenario,
        &ModelProfile::oracle(),
        galois_bench::grid_stack_options(8, 10, 6),
    );
    let suite: Vec<String> = scenario.suite.iter().map(|q| q.to_sql()).collect();
    let pass = || {
        for sql in &suite {
            black_box(session.execute(black_box(sql)).expect("suite statement"));
        }
    };
    // Two passes: the first lists and fetches, the second also settles the
    // pad columns and plans the first left to later statements.
    pass();
    pass();
    c.bench_function("warm_statement/x10", |b| b.iter(pass));
    // A projection no suite statement makes, over three columns that three
    // of them fetched: nothing to ask, everything to read and materialise.
    let new = "SELECT name, population, elevation, country FROM city";
    c.bench_function("warm_new_statement/x10", |b| {
        b.iter(|| session.execute(black_box(new)).expect("new statement"))
    });
}

criterion_group!(benches, bench_batched_cell_extraction, bench_warm_statement);
criterion_main!(benches);
