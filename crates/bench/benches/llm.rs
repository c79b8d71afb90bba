//! Microbenchmarks for the prompt path's host side: what no
//! `galois_benchmark` probe times. The client's miss and hit paths, the
//! tokenizer and the simulator's answers are the probes'
//! (`llm.client.{miss,hit}_ns_per_prompt`, `llm.tokenizer.ns_per_kb`,
//! `llm.simllm.complete_us_per_call`); `crates/bench/README.md` lists
//! what is kept here and why.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use galois_core::prompts::PromptBuilder;
use galois_llm::noise::seeded;
use galois_llm::{Completion, LanguageModel, LlmClient, SubEntryLookup, Usage};
use std::sync::Arc;

/// Operations per iteration of every case below: the shim times each
/// iteration with two clock reads, which would drown a 100 ns lookup, and
/// with a thousand per iteration the printed µs read as ns per operation.
const OPS: usize = 1000;

/// A model that costs nothing, so the store cases time the store.
struct NullModel;

impl LanguageModel for NullModel {
    fn name(&self) -> &str {
        "null"
    }
    fn context_window(&self) -> usize {
        4096
    }
    fn complete(&self, _prompt: &str) -> Completion {
        Completion {
            text: String::new(),
            usage: Usage::default(),
            latency_ms: 0,
        }
    }
}

/// Two whole-signature and whole-prompt passes the probes do not reach:
/// a sub-entry hit through the signature wrapper, and the noise seed the
/// simulator folds over a paper-faithful 768-byte prompt.
fn bench_prompt_path(c: &mut Criterion) {
    // Twenty-byte keys make the prompt the 768 bytes `paper_cold` averages:
    // the 700-byte Figure 4 preamble and a question that differs in its key.
    let synthetic: Vec<String> = (0..OPS).map(|i| format!("San Lorenzo {i:08}")).collect();
    let template = PromptBuilder::for_model("chatgpt").fetch_template("city", "name", "population");
    let prompts: Vec<String> = synthetic.iter().map(|key| template.render(key)).collect();
    assert!(
        prompts.iter().all(|p| p.len() == 768),
        "{}",
        prompts[0].len()
    );

    let client = LlmClient::new(Arc::new(NullModel));
    let signatures: Vec<String> = synthetic
        .iter()
        .map(|key| format!("fetch|city|name|population|{key}"))
        .collect();
    for signature in &signatures {
        client.store_sub_entry(signature, "2800000");
    }
    c.bench_function("sub_entry_hit", |b| {
        b.iter(|| {
            for signature in &signatures {
                let found = client.extract_sub_entry(black_box(signature));
                debug_assert!(matches!(found, SubEntryLookup::Hit(_)));
                black_box(found);
            }
        })
    });
    c.bench_function("seeded/768B", |b| {
        b.iter(|| {
            for prompt in &prompts {
                black_box(seeded(42, &["fetch", black_box(prompt)]));
            }
        })
    });
}

/// The sub-entry store as the engine uses it: a column handle resolved
/// once, then one `extract_in` per key. Each case does its whole key set
/// per iteration, so time ÷ keys is one operation.
fn bench_sub_columns(c: &mut Criterion) {
    const PREFIX: &str = "fetch\u{1f}city\u{1f}name\u{1f}population\u{1f}";
    let keys: Vec<String> = (0..10_000).map(|i| format!("San Lorenzo {i:05}")).collect();
    let fill = |client: &LlmClient, prefix: &str, keys: &[String]| {
        let column = client.sub_column(prefix);
        for key in keys {
            black_box(client.extract_in(&column, key, str::len));
            client.store_in(&column, key, "2800000");
        }
        column
    };
    let read = |client: &LlmClient, column, keys: &mut dyn Iterator<Item = &String>| {
        for key in keys {
            black_box(client.extract_in(column, black_box(key), str::len));
        }
    };

    let client = LlmClient::new(Arc::new(NullModel));
    let column = fill(&client, PREFIX, &keys);
    // The order a warm stage asks in: the one the column was filled in,
    // so entries and text are read front to back.
    c.bench_function("sub_column_hit_in_order/1e4", |b| {
        b.iter(|| read(&client, &column, &mut keys.iter()))
    });
    // Any other order.
    let shuffled: Vec<&String> = (0..keys.len())
        .map(|i| &keys[i * 7919 % keys.len()])
        .collect();
    c.bench_function("sub_column_hit_shuffled/1e4", |b| {
        b.iter(|| read(&client, &column, &mut shuffled.iter().copied()))
    });
    c.bench_function("sub_column_store/1e4", |b| {
        b.iter(|| {
            let client = LlmClient::new(Arc::new(NullModel));
            fill(&client, PREFIX, &keys);
            client
        })
    });
    // Fifty columns, one pass over each in turn: by the time a column is
    // read again the others have been through the cache, as on a serving
    // session. The single-column cases above cannot show that.
    let client = LlmClient::new(Arc::new(NullModel));
    let columns: Vec<_> = (0..50)
        .map(|i| {
            let prefix = format!("fetch\u{1f}city\u{1f}name\u{1f}attribute {i}\u{1f}");
            fill(&client, &prefix, &keys[..2_000])
        })
        .collect();
    c.bench_function("sub_column_hit_cold/50x2e3", |b| {
        b.iter(|| {
            for column in &columns {
                read(&client, column, &mut keys[..2_000].iter());
            }
        })
    });
}

criterion_group!(benches, bench_prompt_path, bench_sub_columns);
criterion_main!(benches);
