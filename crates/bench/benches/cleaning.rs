//! Microbenchmarks for the cleaning/normalisation stage — the hot path of
//! workflow step (3) — where `galois_benchmark` has no probe on the same
//! call: `cell_value` (the engine's cell path; `core.clean.ns_per_cell`
//! times `clean_to_type` on already unwrapped answers), `parse_number`
//! and the QA baselines' `extract_records`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use galois_core::clean::{cell_value, parse_number, CleaningPolicy};
use galois_core::parse::extract_records;
use galois_relational::DataType;

fn bench_numbers(c: &mut Criterion) {
    let policy = CleaningPolicy::default();
    for (name, input) in [
        ("plain", "2800000"),
        ("thousands", "2,800,000"),
        ("spelled", "about 2.8 million"),
        ("suffix", "500k"),
    ] {
        c.bench_function(&format!("parse_number_{name}"), |b| {
            b.iter(|| parse_number(black_box(input), &policy))
        });
    }
}

/// Workflow step (3) for one fetched cell, answer text to typed value: the
/// four shapes models mostly answer in, which `cell_value` cleans in place,
/// and a decorated sentence, which takes the general path.
fn bench_cell_value(c: &mut Criterion) {
    let policy = CleaningPolicy::default();
    for (name, answer, ty) in [
        ("int", "2800000", DataType::Int),
        ("float", "41.9", DataType::Float),
        ("text", "Port Nelson", DataType::Text),
        ("date", "1961-05-08", DataType::Date),
        (
            "decorated",
            "The population of Rome is about 2.8 million.",
            DataType::Int,
        ),
    ] {
        c.bench_function(&format!("cell_value/{name}"), |b| {
            b.iter(|| cell_value(black_box(answer), ty, &policy))
        });
    }
}

fn bench_answers(c: &mut Criterion) {
    let qa = "- Rome: 2,800,000\n- Paris: 2,100,000\n- Milan: 1,400,000\n- Naples: 960,000";
    c.bench_function("extract_records", |b| {
        b.iter(|| extract_records(black_box(qa)))
    });
}

criterion_group!(benches, bench_numbers, bench_cell_value, bench_answers);
criterion_main!(benches);
