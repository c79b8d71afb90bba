//! Microbenchmarks for the prompt path's host side. The tokenizer on
//! ASCII text and the simulator's answers are `galois_benchmark` probes'
//! (`llm.tokenizer.ns_per_kb`, `llm.simllm.complete_us_per_call`); the
//! client's miss and hit paths are probes too
//! (`llm.client.{miss,hit}_ns_per_prompt`), and are timed here as well
//! over a paper pass's worth of prompts, so that the prompt cache's
//! layout has a case of its own. `crates/bench/README.md` lists what is
//! kept here and why.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use galois_core::prompts::PromptBuilder;
use galois_llm::noise::seeded;
use galois_llm::tokenizer::count_tokens;
use galois_llm::{
    Completion, FactValue, KnowledgeStore, LanguageModel, LlmClient, ModelProfile, SimLlm,
    SubEntryLookup, SubKey, TaskIntent, Usage,
};
use std::sync::Arc;

/// Operations per iteration of every case below: the shim times each
/// iteration with two clock reads, which would drown a 100 ns lookup, and
/// with a thousand per iteration the printed µs read as ns per operation.
const OPS: usize = 1000;

/// A model that costs nothing but a short answer's copy, so the cache and
/// store cases time the cache and the store.
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
            text: "2800000".into(),
            usage: Usage::default(),
            latency_ms: 0,
        }
    }
}

/// Whole-signature and whole-prompt passes the probes do not reach: a
/// sub-entry hit through the signature wrapper, the noise seed the
/// simulator folds over a paper-faithful 768-byte prompt, and the
/// simulator's answer to that prompt with the preamble read once.
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
    bench_simllm(c, &synthetic, &prompts);
    bench_tokenizer(c, &prompts);
}

/// `SimLlm::complete` on the Figure 4 fetch prompts above, under the
/// `chatgpt` profile, over a store that holds their thousand cities: each
/// answer is the token walk and the fetch seed resumed after the preamble
/// (the memo is warm), the intent parse, a stable belief and its
/// prompt-seeded format draw. Set beside `seeded/768B`, the whole-prompt
/// fold the memo stands in for.
fn bench_simllm(c: &mut Criterion, keys: &[String], prompts: &[String]) {
    let mut kb = KnowledgeStore::new();
    for (i, key) in keys.iter().enumerate() {
        let city = kb.add_entity(key.as_str(), "city", 0.9);
        kb.add_fact(
            city,
            "population",
            FactValue::Number(1e5 + i as f64 * 7919.0),
        );
    }
    let model = SimLlm::new(Arc::new(kb), ModelProfile::chatgpt());
    black_box(model.complete(&prompts[0]));
    c.bench_function("simllm_complete/768B", |b| {
        b.iter(|| {
            for prompt in prompts {
                black_box(model.complete(black_box(prompt)));
            }
        })
    });
}

/// The tokenizer on the texts its probe does not give it. The probe's
/// corpus (`llm.tokenizer.ns_per_kb`) is all ASCII, so there only a
/// prompt's tail under 64 bytes reaches the byte walk that every block
/// holding a byte ≥ 0x80 takes. `prompt_768B` counts the Figure 4 fetch
/// prompts above (64-byte blocks, then the tail), `grid_prompt` a grid
/// prompt whose `⌁` markers send their blocks to the byte walk,
/// `non_ascii_1KB` kilobytes whose every block holds a multi-byte
/// character. Each does a thousand counts an iteration.
fn bench_tokenizer(c: &mut Criterion, prompts: &[String]) {
    c.bench_function("tokenizer/prompt_768B", |b| {
        b.iter(|| {
            for prompt in prompts {
                black_box(count_tokens(black_box(prompt)));
            }
        })
    });
    let grid = PromptBuilder::for_model("chatgpt").task(&TaskIntent::FetchGridBatch {
        relation: "city".into(),
        key_attr: "name".into(),
        keys: (0..10).map(|i| format!("San Lorenzo {i:08}")).collect(),
        attributes: "population country mayor area elevation founded"
            .split(' ')
            .map(String::from)
            .collect(),
    });
    assert!(grid.contains('\u{2301}'));
    c.bench_function("tokenizer/grid_prompt", |b| {
        b.iter(|| {
            for _ in 0..OPS {
                black_box(count_tokens(black_box(&grid)));
            }
        })
    });
    // Sixty-four kilobytes of words in an order that does not repeat, as
    // in real text, counted in turn: one short text counted over and over
    // would let the branch predictor learn it.
    let words: Vec<&str> =
        "Zürich Москва 東京都庁舎 São Paulo Kraków and the city Ελλάδα population , ; 1961 Québec Mëxico"
            .split(' ')
            .collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let non_ascii: Vec<String> = (0..64)
        .map(|_| {
            let mut text = String::new();
            while text.len() < 1024 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                text.push_str(words[(state >> 60) as usize]);
                text.push(' ');
            }
            while text.len() > 1024 {
                text.pop();
            }
            text
        })
        .collect();
    assert!(non_ascii
        .iter()
        .all(|text| text.as_bytes().chunks(64).all(|block| !block.is_ascii())));
    c.bench_function("tokenizer/non_ascii_1KB", |b| {
        b.iter(|| {
            for text in non_ascii.iter().cycle().take(OPS) {
                black_box(count_tokens(black_box(text)));
            }
        })
    });
}

/// The prompt cache on the paper path's shape: forty thousand Figure 4
/// fetch prompts (the 700-byte preamble, then a question that differs in
/// its key), about what one `paper_cold` pass stores. `prompt_cache_miss`
/// asks them all of a fresh client, so each is stored; `prompt_cache_hit`
/// asks them again of a client that holds them. Time ÷ 4·10⁴ is one
/// lookup.
fn bench_prompt_cache(c: &mut Criterion) {
    const PROMPTS: usize = 40_000;
    let template = PromptBuilder::for_model("chatgpt").fetch_template("city", "name", "population");
    let prompts: Vec<String> = (0..PROMPTS)
        .map(|i| template.render(&format!("San Lorenzo {i:08}")))
        .collect();
    c.bench_function("prompt_cache_miss/4e4", |b| {
        b.iter(|| {
            let client = LlmClient::new(Arc::new(NullModel));
            for prompt in &prompts {
                black_box(client.complete(black_box(prompt)));
            }
            client
        })
    });
    let client = LlmClient::new(Arc::new(NullModel));
    for prompt in &prompts {
        client.complete(prompt);
    }
    c.bench_function("prompt_cache_hit/4e4", |b| {
        b.iter(|| {
            for prompt in &prompts {
                black_box(client.complete(black_box(prompt)));
            }
        })
    });
    assert_eq!(client.stats().prompts, PROMPTS);
}

/// The sub-entry store as the engine uses it: a column handle resolved
/// once, each key hashed once as it enters (`LlmClient::sub_key`), then
/// one `extract_in` per key and column. Each case does its whole key set
/// per iteration, so time ÷ keys is one operation.
fn bench_sub_columns(c: &mut Criterion) {
    const PREFIX: &str = "fetch\u{1f}city\u{1f}name\u{1f}population\u{1f}";
    let keys: Vec<String> = (0..10_000).map(|i| format!("San Lorenzo {i:05}")).collect();
    let sub_keys = |client: &LlmClient, keys: &[String]| -> Vec<SubKey> {
        keys.iter().map(|key| client.sub_key(key)).collect()
    };
    let fill = |client: &LlmClient, prefix: &str, keys: &[String], subs: &[SubKey]| {
        let column = client.sub_column(prefix);
        for (key, &sub) in keys.iter().zip(subs) {
            black_box(client.extract_in(&column, key, sub, str::len));
            client.store_in(&column, key, sub, "2800000");
        }
        column
    };
    let read = |client: &LlmClient, column, keys: &mut dyn Iterator<Item = (&String, &SubKey)>| {
        for (key, &sub) in keys {
            black_box(client.extract_in(column, black_box(key), sub, str::len));
        }
    };

    let client = LlmClient::new(Arc::new(NullModel));
    let subs = sub_keys(&client, &keys);
    let column = fill(&client, PREFIX, &keys, &subs);
    // The order a warm stage asks in: the one the column was filled in,
    // so entries and text are read front to back.
    c.bench_function("sub_column_hit_in_order/1e4", |b| {
        b.iter(|| read(&client, &column, &mut keys.iter().zip(&subs)))
    });
    // Any other order.
    let shuffled: Vec<(&String, &SubKey)> = (0..keys.len())
        .map(|i| i * 7919 % keys.len())
        .map(|i| (&keys[i], &subs[i]))
        .collect();
    c.bench_function("sub_column_hit_shuffled/1e4", |b| {
        b.iter(|| read(&client, &column, &mut shuffled.iter().copied()))
    });
    // A fresh client's keys are hashed as they enter, then stored.
    c.bench_function("sub_column_store/1e4", |b| {
        b.iter(|| {
            let client = LlmClient::new(Arc::new(NullModel));
            let subs = sub_keys(&client, &keys);
            fill(&client, PREFIX, &keys, &subs);
            client
        })
    });
    // Fifty columns, one pass over each in turn: by the time a column is
    // read again the others have been through the cache, as on a serving
    // session. The single-column cases above cannot show that. Each key
    // is hashed once for all fifty.
    let client = LlmClient::new(Arc::new(NullModel));
    let subs = sub_keys(&client, &keys[..2_000]);
    let columns: Vec<_> = (0..50)
        .map(|i| {
            let prefix = format!("fetch\u{1f}city\u{1f}name\u{1f}attribute {i}\u{1f}");
            fill(&client, &prefix, &keys[..2_000], &subs)
        })
        .collect();
    c.bench_function("sub_column_hit_cold/50x2e3", |b| {
        b.iter(|| {
            for column in &columns {
                read(&client, column, &mut keys[..2_000].iter().zip(&subs));
            }
        })
    });
}

criterion_group!(
    benches,
    bench_prompt_path,
    bench_prompt_cache,
    bench_sub_columns
);
criterion_main!(benches);
