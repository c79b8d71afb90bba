//! Microbenchmarks for the batched-cell hot path.
//!
//! Every key of every retrieval cell builds a sub-entry signature for the
//! client's per-key extraction cache. The session precomputes each cell's
//! signature *prefix* once and appends only the key onto a reused buffer;
//! `cell_sig_prefixed` vs `cell_sig_naive_format` measures that win with
//! the pre-satellite formulation reconstructed literally (the full
//! table/attribute preamble re-formatted per key). The end-to-end bench
//! drives the real session: a repeated batched query's filter/fetch
//! phases are served entirely from sub-entries, so the run is dominated
//! by per-key signature building and cache extraction. `warm_statement/x10`
//! is the serving configuration's version of the same: the whole suite on
//! a warmed grid-stack session, where no prompt is sent and every key and
//! cell is served from the stores.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use galois_core::{Galois, GaloisOptions, PromptBatch};
use galois_dataset::Scenario;
use galois_llm::{ModelProfile, SimLlm};
use std::sync::Arc;

fn bench_signature_building(c: &mut Criterion) {
    let keys: Vec<String> = (0..10_000).map(|i| format!("City{i}")).collect();
    let (table, key_attr, attribute) = ("city", "name", "population");

    c.bench_function("cell_sig_prefixed_10k", |b| {
        b.iter(|| {
            let prefix = format!("fetch\u{1f}{table}\u{1f}{key_attr}\u{1f}{attribute}\u{1f}");
            let mut sig = String::new();
            let mut total = 0usize;
            for key in &keys {
                sig.clear();
                sig.push_str(&prefix);
                sig.push_str(key);
                total += black_box(&sig).len();
            }
            total
        })
    });

    // The pre-satellite formulation: the whole signature re-formatted for
    // every key.
    c.bench_function("cell_sig_naive_format_10k", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for key in &keys {
                let sig = format!("fetch\u{1f}{table}\u{1f}{key_attr}\u{1f}{attribute}\u{1f}{key}");
                total += black_box(&sig).len();
            }
            total
        })
    });
}

fn bench_batched_cell_extraction(c: &mut Criterion) {
    let scenario = Scenario::generate(42);
    let session = Galois::with_options(
        Arc::new(SimLlm::new(
            scenario.knowledge.clone(),
            ModelProfile::oracle(),
        )),
        scenario.database.clone(),
        GaloisOptions {
            prompt_batch: PromptBatch::Keys(10),
            ..Default::default()
        },
    );
    let sql = "SELECT name, population FROM city WHERE elevation < 100";
    // Warm the sub-entry store: every later run's filter/fetch phase is
    // pure per-key signature building + extraction.
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
}

criterion_group!(
    benches,
    bench_signature_building,
    bench_batched_cell_extraction,
    bench_warm_statement
);
criterion_main!(benches);
