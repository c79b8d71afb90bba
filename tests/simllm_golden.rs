//! Golden answers of the simulated model.
//!
//! Every quality figure of the reproduction is read off what `SimLlm`
//! answers, so a change to *how* it answers — an index, a memo, a skipped
//! draw — must leave *what* it answers alone. This file pins that: for each
//! of the five profiles it collects
//!
//! * every prompt a `GaloisOptions::default()` pass over the suite sends
//!   on `Scenario::generate_scaled(42, 4)`, recorded by a wrapping model;
//! * every prompt a `GaloisOptions::serving()` pass sends on the same
//!   world, recorded the same way;
//! * the suite's questions as the QA baselines ask them, plain and chain of
//!   thought;
//! * edge prompts: a list of an unknown relation, fetches of keys the store
//!   lacks (the fabrication path), offset pages past the end of a list, an
//!   exclusion list naming every key of a relation, and batched fetches
//!   and filters (which neither preset sends),
//!
//! and digests each answer. `tests/fixtures/simllm_golden.txt` holds one
//! line per `(profile, intent kind)`:
//!
//! ```text
//! <profile> <kind> <prompts> <digest>
//! ```
//!
//! where `digest` is the wrapping sum, over that kind's prompts, of an
//! FNV-1a digest of the prompt, the answer text, both token counts and the
//! latency — order-independent, so neither the engine's prompt order nor
//! its threads can move it.
//!
//! Regenerate with
//! `cargo test --test simllm_golden -- --ignored regenerate_simllm_golden_fixture`,
//! and only for a change that is meant to move an answer.

use galois::core::prompts::PromptBuilder;
use galois::core::{BaselineKind, Galois, GaloisOptions, QaBaseline};
use galois::dataset::Scenario;
use galois::llm::intent::{parse_task, CmpOp, Condition, PromptValue, TaskIntent};
use galois::llm::{Completion, LanguageModel, ModelProfile, SimLlm};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/simllm_golden.txt"
);

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Passes every call through to a `SimLlm` and keeps each prompt with the
/// completion it got.
struct Recorder {
    inner: SimLlm,
    log: Mutex<Vec<(String, Completion)>>,
}

impl LanguageModel for Recorder {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn context_window(&self) -> usize {
        self.inner.context_window()
    }
    fn signature(&self) -> String {
        self.inner.signature()
    }
    fn complete(&self, prompt: &str) -> Completion {
        let completion = self.inner.complete(prompt);
        self.log
            .lock()
            .unwrap()
            .push((prompt.to_string(), completion.clone()));
        completion
    }
}

/// The fixture's name for what a prompt asks.
fn kind(prompt: &str) -> &'static str {
    match parse_task(prompt) {
        Some(TaskIntent::ListKeys { .. }) => "list",
        Some(TaskIntent::ListKeysPage { .. }) => "list_page",
        Some(TaskIntent::FetchAttr { .. }) => "fetch",
        Some(TaskIntent::CheckFilter { .. }) => "filter",
        Some(TaskIntent::FetchAttrBatch { .. }) => "fetch_batch",
        Some(TaskIntent::FilterKeysBatch { .. }) => "filter_batch",
        Some(TaskIntent::FetchGridBatch { .. }) => "grid",
        None => "question",
    }
}

/// The hand-written prompts: what no suite pass asks.
fn edge_prompts(s: &Scenario, profile: &ModelProfile) -> Vec<String> {
    let builder = PromptBuilder::for_model(&profile.name);
    let list = |relation: &str, condition: Option<Condition>, exclude: Vec<String>| {
        builder.task(&TaskIntent::ListKeys {
            relation: relation.into(),
            key_attr: "name".into(),
            condition,
            exclude: Arc::new(exclude),
        })
    };
    let big = Condition {
        attribute: "population".into(),
        op: CmpOp::Gt,
        values: vec![PromptValue::Number(1_000_000.0)],
    };
    let mut prompts = vec![list("volcano", None, Vec::new())];
    for relation in ["city", "country"] {
        let every_key: Vec<String> = s
            .knowledge
            .entities_of_type(relation)
            .iter()
            .map(|e| e.name.clone())
            .collect();
        prompts.push(list(relation, None, every_key.clone()));
        prompts.push(list(relation, Some(big.clone()), every_key));
        for condition in [None, Some(big.clone())] {
            prompts.push(builder.task(&TaskIntent::ListKeysPage {
                relation: relation.into(),
                key_attr: "name".into(),
                condition,
                offset: 100_000,
            }));
        }
    }
    // Batched fetches and filters, which no preset pass sends: known keys
    // and one the store lacks.
    let mut keys: Vec<String> = s
        .knowledge
        .entities_of_type("city")
        .iter()
        .step_by(9)
        .map(|e| e.name.clone())
        .collect();
    keys.push("Zzyzx".into());
    for attribute in ["population", "country", "mayor"] {
        prompts.push(builder.task(&TaskIntent::FetchAttrBatch {
            relation: "city".into(),
            key_attr: "name".into(),
            keys: keys.clone(),
            attribute: attribute.into(),
        }));
    }
    prompts.push(builder.task(&TaskIntent::FilterKeysBatch {
        relation: "city".into(),
        key_attr: "name".into(),
        keys,
        condition: big,
    }));
    let missing = [
        ("city", &["population", "country", "elevation", "mayor"][..]),
        (
            "country",
            &["continent", "capital", "population", "code"][..],
        ),
    ];
    for (relation, attributes) in missing {
        for i in 0..12 {
            for attribute in attributes {
                prompts.push(builder.task(&TaskIntent::FetchAttr {
                    relation: relation.into(),
                    key_attr: "name".into(),
                    key: format!("Zzyzx {i}"),
                    attribute: attribute.to_string(),
                }));
            }
        }
    }
    prompts
}

/// Every `(prompt, completion)` one profile is pinned on.
fn exchanges(s: &Scenario, profile: &ModelProfile) -> Vec<(String, Completion)> {
    let recorder = Arc::new(Recorder {
        inner: SimLlm::new(s.knowledge.clone(), profile.clone()),
        log: Mutex::new(Vec::new()),
    });
    for options in [GaloisOptions::default(), GaloisOptions::serving()] {
        let session = Galois::with_options(recorder.clone(), s.database.clone(), options);
        for spec in &s.suite {
            session
                .execute(&spec.to_sql())
                .unwrap_or_else(|e| panic!("q{}: {e}", spec.id));
        }
    }
    let qa = QaBaseline::new(recorder.clone());
    for spec in &s.suite {
        for flavour in [BaselineKind::Plain, BaselineKind::ChainOfThought] {
            qa.ask(&spec.question(), flavour);
        }
    }
    for prompt in edge_prompts(s, profile) {
        recorder.complete(&prompt);
    }
    let mut log = recorder.log.lock().unwrap();
    std::mem::take(&mut *log)
}

/// The fixture's lines for every profile, in file order.
fn lines() -> Vec<String> {
    let s = Scenario::generate_scaled(42, 4);
    let profiles = ModelProfile::all()
        .into_iter()
        .chain([ModelProfile::oracle()]);
    let mut out = Vec::new();
    for profile in profiles {
        let mut kinds: BTreeMap<&str, (usize, u64)> = BTreeMap::new();
        for (prompt, completion) in exchanges(&s, &profile) {
            let digest = fnv1a(&format!(
                "{prompt}\u{0}{}\u{0}{}\u{0}{}\u{0}{}",
                completion.text,
                completion.usage.prompt_tokens,
                completion.usage.completion_tokens,
                completion.latency_ms
            ));
            let slot = kinds.entry(kind(&prompt)).or_default();
            slot.0 += 1;
            slot.1 = slot.1.wrapping_add(digest);
        }
        for (kind, (prompts, digest)) in kinds {
            out.push(format!("{} {kind} {prompts} {digest:016x}", profile.name));
        }
    }
    out
}

#[test]
fn simllm_reproduces_the_golden_answers() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("committed fixture");
    let pinned: Vec<&str> = fixture
        .lines()
        .filter(|line| !line.starts_with('#'))
        .collect();
    let got = lines();
    let moved: Vec<String> = got
        .iter()
        .filter(|line| !pinned.contains(&line.as_str()))
        .map(|line| format!("got    {line}"))
        .chain(
            pinned
                .iter()
                .filter(|line| !got.contains(&line.to_string()))
                .map(|line| format!("pinned {line}")),
        )
        .collect();
    assert!(moved.is_empty(), "answers moved:\n{}", moved.join("\n"));
}

/// Writes the fixture from the model as built. Only for a change that is
/// *meant* to move an answer; say which and why in the commit.
#[test]
#[ignore = "rewrites tests/fixtures/simllm_golden.txt"]
fn regenerate_simllm_golden_fixture() {
    let mut body = String::from(
        "# SimLlm golden answers; see tests/simllm_golden.rs.\n# profile kind prompts digest\n",
    );
    for line in lines() {
        writeln!(body, "{line}").unwrap();
    }
    std::fs::write(FIXTURE, body).unwrap();
}
