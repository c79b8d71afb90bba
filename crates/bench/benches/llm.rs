//! Microbenchmarks for the simulated-LLM substrate: prompt round-trips and
//! the client cache.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use galois_core::prompts::PromptBuilder;
use galois_dataset::Scenario;
use galois_eval::model_for;
use galois_llm::intent::{CmpOp, Condition, PromptValue, TaskIntent};
use galois_llm::noise::seeded;
use galois_llm::tokenizer::count_tokens;
use galois_llm::{Completion, LanguageModel, LlmClient, ModelProfile, SubEntryLookup, Usage};
use std::sync::Arc;

fn bench_completion(c: &mut Criterion) {
    let s = Scenario::generate(42);
    let model = model_for(&s, ModelProfile::chatgpt());
    let builder = PromptBuilder::for_model("chatgpt");
    let list_prompt = builder.task(&TaskIntent::ListKeys {
        relation: "city".into(),
        key_attr: "name".into(),
        condition: None,
        exclude: std::sync::Arc::new(vec![]),
    });
    let fetch_prompt = builder.task(&TaskIntent::FetchAttr {
        relation: "city".into(),
        key_attr: "name".into(),
        key: s.world.cities[0].name.clone(),
        attribute: "population".into(),
    });

    c.bench_function("sim_list_keys", |b| {
        b.iter(|| model.complete(black_box(&list_prompt)))
    });
    c.bench_function("sim_fetch_attr", |b| {
        b.iter(|| model.complete(black_box(&fetch_prompt)))
    });

    let qa_prompt = builder.question(&s.suite[0].question());
    c.bench_function("sim_qa_question", |b| {
        b.iter(|| model.complete(black_box(&qa_prompt)))
    });
}

fn bench_client_cache(c: &mut Criterion) {
    let s = Scenario::generate(42);
    let model = model_for(&s, ModelProfile::chatgpt());
    let builder = PromptBuilder::for_model("chatgpt");
    let prompt = builder.task(&TaskIntent::FetchAttr {
        relation: "city".into(),
        key_attr: "name".into(),
        key: s.world.cities[0].name.clone(),
        attribute: "population".into(),
    });
    let client = LlmClient::new(model);
    client.complete(&prompt); // warm the cache
    c.bench_function("client_cache_hit", |b| {
        b.iter(|| client.complete(black_box(&prompt)))
    });
}

/// Operations per iteration of every case below: the shim times each
/// iteration with two clock reads, which would drown a 100 ns lookup, and
/// with a thousand per iteration the printed µs read as ns per operation.
const OPS: usize = 1000;

/// A model that costs nothing, so the client cases time the client.
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

/// `OPS` distinct fetch prompts of the paper-faithful shape: the 700-byte
/// Figure 4 preamble and a question that differs in its key.
fn fetch_prompts(builder: &PromptBuilder, keys: &[String]) -> Vec<String> {
    let template = builder.fetch_template("city", "name", "population");
    keys.iter().map(|key| template.render(key)).collect()
}

/// The host's share of a paper-faithful prompt, layer by layer: what the
/// client pays to miss and to hit on a 768-byte prompt, a sub-entry hit,
/// the simulator's answer to a fetch and to a filter question, and the
/// two whole-prompt passes inside it (tokenizer, noise seed).
fn bench_prompt_path(c: &mut Criterion) {
    let s = Scenario::generate(42);
    let builder = PromptBuilder::for_model("chatgpt");
    // Twenty-byte keys make the prompt the 768 bytes `paper_cold` averages.
    let synthetic: Vec<String> = (0..OPS).map(|i| format!("San Lorenzo {i:08}")).collect();
    let prompts = fetch_prompts(&builder, &synthetic);
    assert!(
        prompts.iter().all(|p| p.len() == 768),
        "{}",
        prompts[0].len()
    );

    c.bench_function("client_miss/768B", |b| {
        b.iter(|| {
            let client = LlmClient::new(Arc::new(NullModel));
            for prompt in &prompts {
                black_box(client.complete(black_box(prompt)));
            }
            client
        })
    });
    let client = LlmClient::new(Arc::new(NullModel));
    c.bench_function("client_hit/768B", |b| {
        b.iter(|| {
            for prompt in &prompts {
                black_box(client.complete(black_box(prompt)));
            }
        })
    });
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

    // The simulator answers about cities it knows.
    let model = model_for(&s, ModelProfile::chatgpt());
    let known: Vec<String> = s
        .world
        .cities
        .iter()
        .map(|city| city.name.clone())
        .cycle()
        .take(OPS)
        .collect();
    let fetches = fetch_prompts(&builder, &known);
    c.bench_function("simllm_complete/fetch", |b| {
        b.iter(|| {
            for prompt in &fetches {
                black_box(model.complete(black_box(prompt)));
            }
        })
    });
    let filter = builder.filter_template(
        "city",
        "name",
        &Condition {
            attribute: "population".into(),
            op: CmpOp::Gt,
            values: vec![PromptValue::Number(1_000_000.0)],
        },
    );
    let filters: Vec<String> = known.iter().map(|key| filter.render(key)).collect();
    c.bench_function("simllm_complete/filter", |b| {
        b.iter(|| {
            for prompt in &filters {
                black_box(model.complete(black_box(prompt)));
            }
        })
    });

    let kilobyte = format!("{}{}", prompts[0], &prompts[1][..1024 - 768]);
    c.bench_function("tokenizer/1KB", |b| {
        b.iter(|| {
            for _ in 0..OPS {
                black_box(count_tokens(black_box(&kilobyte)));
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

criterion_group!(
    benches,
    bench_completion,
    bench_client_cache,
    bench_prompt_path,
    bench_sub_columns
);
criterion_main!(benches);
