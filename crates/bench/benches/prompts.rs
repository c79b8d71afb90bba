//! Microbenchmarks for prompt construction: the hot-path `PromptBuilder`
//! (whose static `"{preamble}\nQ: "` prefix is precomputed per builder —
//! `prompt_task_prebuilt` vs `prompt_task_naive_format` measures that win)
//! and the multi-key batched rendering.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use galois_core::prompts::{PromptBuilder, FIGURE4_PREAMBLE};
use galois_llm::intent::{render_task, TaskIntent};

fn fetch_intent() -> TaskIntent {
    TaskIntent::FetchAttr {
        relation: "city".into(),
        key_attr: "name".into(),
        key: "Rome".into(),
        attribute: "population".into(),
    }
}

fn bench_prompt_builder(c: &mut Criterion) {
    let builder = PromptBuilder::for_model("chatgpt");
    let intent = fetch_intent();

    c.bench_function("prompt_task_prebuilt", |b| {
        b.iter(|| builder.task(black_box(&intent)))
    });

    // The pre-satellite formulation, reconstructed literally: re-format
    // the full static preamble on every call.
    c.bench_function("prompt_task_naive_format", |b| {
        b.iter(|| {
            format!(
                "{}\nQ: {}\nA:",
                FIGURE4_PREAMBLE,
                render_task(black_box(&intent))
            )
        })
    });

    c.bench_function("prompt_question_prebuilt", |b| {
        b.iter(|| builder.question(black_box("What is the capital of France?")))
    });
}

fn bench_batched_rendering(c: &mut Criterion) {
    let builder = PromptBuilder::for_model("chatgpt");
    let keys: Vec<String> = (0..25).map(|i| format!("City{i}")).collect();
    let batched = TaskIntent::FetchAttrBatch {
        relation: "city".into(),
        key_attr: "name".into(),
        keys,
        attribute: "population".into(),
    };
    c.bench_function("prompt_task_batched_25", |b| {
        b.iter(|| builder.task(black_box(&batched)))
    });
}

/// The fetch-path per-cell render hoist: building one prompt per key for
/// the same (relation, key attribute, attribute) cell. "before" rebuilds
/// the full intent and re-renders the preamble/question framing per key;
/// "after" renders through the hoisted [`galois_core::prompts::KeyTemplate`]
/// — the table/attribute framing is formatted once and each key costs one
/// exact-size concatenation.
fn bench_fetch_render_hoist(c: &mut Criterion) {
    let builder = PromptBuilder::for_model("chatgpt");
    let keys: Vec<String> = (0..25).map(|i| format!("City{i}")).collect();

    c.bench_function("fetch_render_per_key_intent_25", |b| {
        b.iter(|| {
            keys.iter()
                .map(|key| {
                    builder.task(&TaskIntent::FetchAttr {
                        relation: "city".into(),
                        key_attr: "name".into(),
                        key: black_box(key).clone(),
                        attribute: "population".into(),
                    })
                })
                .collect::<Vec<String>>()
        })
    });

    c.bench_function("fetch_render_hoisted_template_25", |b| {
        b.iter(|| {
            let template = builder.fetch_template("city", "name", "population");
            keys.iter()
                .map(|key| template.render(black_box(key)))
                .collect::<Vec<String>>()
        })
    });
}

criterion_group!(
    benches,
    bench_prompt_builder,
    bench_batched_rendering,
    bench_fetch_render_hoist
);
criterion_main!(benches);
