//! One rule for stored key universes, in both retrieval engines.
//!
//! A *terminal* stored universe (exhausted, or paged to the iteration cap)
//! enters a query as is: the wave engine's warm read and the streaming
//! engine's terminal-universe entry both serve the store's list verbatim —
//! nothing is re-cleaned or de-duplicated, the relational hand-off's own
//! checks (NULL keys dropped, first of a repeated key wins) do the rest.
//! A *partial* frontier is different: pages follow, so both engines resume
//! paging after it and de-duplicate what the model sends against it.

use galois_core::{
    concept_signature_for, Galois, GaloisOptions, ListStore, Parallelism, Pipeline, PromptBatch,
};
use galois_dataset::Scenario;
use galois_llm::intent::{parse_task, TaskIntent};
use galois_llm::{
    Completion, KeyUniverse, KeyUniverseStore, LanguageModel, ModelProfile, SimLlm, Usage,
};
use galois_relational::Value;
use std::sync::Arc;

fn grid_session(
    scenario: &Scenario,
    model: Arc<dyn LanguageModel>,
    store: &Arc<KeyUniverseStore>,
    pipeline: Pipeline,
) -> Galois {
    Galois::with_options(
        model,
        scenario.database.clone(),
        GaloisOptions {
            pipeline,
            prompt_batch: PromptBatch::Grid { keys: 4, attrs: 3 },
            parallelism: Parallelism::new(4),
            list_store: ListStore::Shared(Arc::clone(store)),
            ..Default::default()
        },
    )
}

/// A universe published from outside the engine — with a repeated key, a
/// blank key and a key no listing would have produced un-normalised — is
/// served the same way by `Pipeline::Off` and `Pipeline::Streaming`: same
/// relation and same cache hits, cold and warm.
#[test]
fn both_engines_serve_a_published_terminal_universe_verbatim() {
    let s = Scenario::generate(42);
    let model = SimLlm::new(s.knowledge.clone(), ModelProfile::oracle());
    let sig = model.signature();
    let names: Vec<String> = s.world.cities.iter().map(|c| c.name.clone()).collect();
    assert!(names.len() >= 9, "need a few grid chunks");
    let mut keys = names[..9].to_vec();
    keys.insert(3, names[0].clone()); // a repeated key
    keys.insert(5, String::new()); // a blank key
    keys.push(format!("  '{}'. ", names[9])); // an un-normalised key
    let sql = "SELECT name, population, country FROM city";

    let run = |pipeline| {
        let store = Arc::new(KeyUniverseStore::new());
        store.publish(
            &concept_signature_for("city", "name", ""),
            &sig,
            KeyUniverse {
                keys: keys.iter().cloned().collect(),
                iterations: 2,
                exhausted: true,
            },
        );
        let session = grid_session(&s, Arc::new(model.clone()), &store, pipeline);
        let cold = session.execute(sql).unwrap();
        let warm = session.execute(sql).unwrap();
        (cold, warm)
    };
    let (wave_cold, wave_warm) = run(Pipeline::Off);
    let (stream_cold, stream_warm) = run(Pipeline::Streaming);

    for (label, wave, stream) in [
        ("cold", &wave_cold, &stream_cold),
        ("warm", &wave_warm, &stream_warm),
    ] {
        assert_eq!(wave.relation, stream.relation, "{label} relation");
        assert_eq!(
            wave.stats.cache_hits, stream.stats.cache_hits,
            "{label} cache hits"
        );
        assert_eq!(
            wave.stats.list_prompts, 0,
            "{label}: a warm concept lists nothing"
        );
        assert_eq!(stream.stats.list_prompts, 0, "{label}");
    }
    // (Cold fetch-prompt totals are not compared: the dirty keys' grid
    // lines fail to parse, and the engines chunk the fallback ladder
    // differently — per attribute over the step, per attribute per chunk.)
    assert_eq!(wave_warm.stats.total_prompts(), 0, "warm pass is all hits");
    // Served verbatim, then checked at the hand-off: the blank key's row
    // has a NULL key and is dropped, the repeated key keeps its first row,
    // every other stored key — the un-normalised one included, under the
    // name the store gave it — is a row, in stored order.
    let served: Vec<&Value> = stream_warm.relation.rows.iter().map(|r| &r[0]).collect();
    let expected: Vec<Value> = keys
        .iter()
        .enumerate()
        .filter(|(i, k)| !k.is_empty() && *i != 3)
        .map(|(_, k)| Value::Text(k.split_whitespace().collect::<Vec<_>>().join(" ")))
        .collect();
    assert_eq!(served, expected.iter().collect::<Vec<_>>());
    assert_eq!(
        stream_warm.stats.total_prompts(),
        0,
        "warm pass is all hits"
    );
    // Two stored iterations plus one sub-entry hit per (key, attr) cell of
    // every stored key — dropped and repeated ones too: the engines bill
    // what they look up, not what survives.
    assert_eq!(stream_warm.stats.cache_hits, 2 + keys.len() * 2);
}

/// Answers every key-listing prompt from a script keyed on how many keys
/// the prompt excludes, ignoring which — so a page can repeat a stored key.
#[derive(Debug)]
struct ScriptedLister;

impl LanguageModel for ScriptedLister {
    fn name(&self) -> &str {
        "scripted-lister"
    }

    fn context_window(&self) -> usize {
        4096
    }

    fn complete(&self, prompt: &str) -> Completion {
        let text = match parse_task(prompt) {
            Some(TaskIntent::ListKeys { exclude, .. }) => match exclude.len() {
                // Resuming after the stored frontier [Alpha, Beta]: one
                // stored key again (in another case) and one new key.
                2 => "beta, Gamma",
                _ => "No more results",
            },
            other => panic!("only key listings expected, got {other:?}"),
        };
        Completion {
            text: text.to_string(),
            usage: Usage::default(),
            latency_ms: 1,
        }
    }
}

/// A partial frontier (`exhausted: false`, iterations below the cap) still
/// resumes paging, and later pages are de-duplicated against the stored
/// keys — in both engines.
#[test]
fn a_partial_frontier_resumes_paging_and_dedupes_against_stored_keys() {
    let s = Scenario::generate(42);
    let concept = concept_signature_for("city", "name", "");
    for pipeline in [Pipeline::Off, Pipeline::Streaming] {
        let model = Arc::new(ScriptedLister);
        let store = Arc::new(KeyUniverseStore::new());
        store.publish(
            &concept,
            &model.signature(),
            KeyUniverse {
                keys: ["Alpha", "Beta"].map(String::from).into(),
                iterations: 1,
                exhausted: false,
            },
        );
        let session = grid_session(&s, model.clone(), &store, pipeline);
        let got = session.execute("SELECT name FROM city").unwrap();
        assert_eq!(
            got.relation.rows,
            vec![
                vec![Value::from("Alpha")],
                vec![Value::from("Beta")],
                vec![Value::from("Gamma")],
            ],
            "{pipeline:?}"
        );
        assert_eq!(got.stats.list_prompts, 2, "{pipeline:?}: one page, one end");
        assert_eq!(
            got.stats.cache_hits, 1,
            "{pipeline:?}: the stored iteration"
        );
        let stored = store
            .read(&concept, &model.signature())
            .expect("still stored");
        assert_eq!(
            stored,
            KeyUniverse {
                keys: ["Alpha", "Beta", "Gamma"].map(String::from).into(),
                iterations: 3,
                exhausted: true,
            },
            "{pipeline:?}: the frontier was extended append-only"
        );
    }
}

/// A sub-entry column holds its cells in the order they arrived, which
/// need not be universe order. Here the `population` column is filled by
/// a filtered statement (the survivors), completed by an unfiltered one
/// (everyone else, appended), then read by a third in universe order:
/// every key is found, whatever its position. Both engines return the
/// same relations, prompts and cache hits.
#[test]
fn a_column_filled_out_of_universe_order_serves_every_key() {
    let s = Scenario::generate(42);
    let model = SimLlm::new(s.knowledge.clone(), ModelProfile::oracle());
    let statements = [
        "SELECT name, population FROM city WHERE elevation < 100",
        "SELECT name, population FROM city",
        "SELECT name, population FROM city",
    ];
    let run = |pipeline| {
        let store = Arc::new(KeyUniverseStore::new());
        let session = grid_session(&s, Arc::new(model.clone()), &store, pipeline);
        statements.map(|sql| session.execute(sql).unwrap())
    };
    let wave = run(Pipeline::Off);
    let stream = run(Pipeline::Streaming);
    for (i, (wave, stream)) in wave.iter().zip(&stream).enumerate() {
        assert_eq!(wave.relation, stream.relation, "statement {i} relation");
        assert_eq!(
            wave.stats.total_prompts(),
            stream.stats.total_prompts(),
            "statement {i} prompts"
        );
        assert_eq!(
            wave.stats.cache_hits, stream.stats.cache_hits,
            "statement {i} cache hits"
        );
    }
    let rows = |i: usize| stream[i].relation.rows.len();
    assert!(
        0 < rows(0) && rows(0) < rows(1),
        "the filter must keep some keys and drop others"
    );
    assert_eq!(stream[2].relation, stream[1].relation);
    assert_eq!(stream[2].stats.total_prompts(), 0, "third pass is all hits");
    // One stored list iteration plus one hit per key's `population` cell.
    assert_eq!(
        stream[2].stats.cache_hits,
        stream[1].stats.cache_hits + (rows(1) - rows(0))
    );
}
