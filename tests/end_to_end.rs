//! Cross-crate integration tests: SQL text → plan → prompts → simulated
//! LLM → parsing/cleaning → relational tail → relation.

use galois::core::{BaselineKind, Galois, QaBaseline};
use galois::dataset::Scenario;
use galois::eval::{match_records, relation_to_records};
use galois::llm::{ModelProfile, SimLlm};
use galois::relational::Value;
use std::sync::Arc;

fn oracle(scenario: &Scenario) -> Galois {
    let model = Arc::new(SimLlm::new(
        scenario.knowledge.clone(),
        ModelProfile::oracle(),
    ));
    Galois::new(model, scenario.database.clone())
}

fn sorted_rows(rel: &galois::relational::Relation) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = rel
        .rows
        .iter()
        .map(|r| r.iter().map(Value::render).collect())
        .collect();
    rows.sort();
    rows
}

#[test]
fn oracle_reproduces_ground_truth_for_every_suite_query() {
    let scenario = Scenario::generate_with(
        7,
        galois::dataset::WorldConfig {
            countries: 8,
            cities: 18,
            airports: 8,
            singers: 8,
            concerts: 10,
            employees: 12,
        },
    );
    let galois = oracle(&scenario);
    for spec in &scenario.suite {
        let sql = spec.to_sql();
        let truth = scenario.database.execute(&sql).unwrap();
        let got = galois.execute(&sql).unwrap();
        let matching = match_records(&truth, &relation_to_records(&got.relation));
        assert!(
            matching.score() > 0.99,
            "q{} diverged under the oracle: score {:.2}\nsql: {sql}",
            spec.id,
            matching.score()
        );
    }
}

#[test]
fn executions_are_deterministic() {
    let scenario = Scenario::generate(42);
    let sql = "SELECT name, population FROM city WHERE population > 1000000";
    let run = |_: u32| {
        let model = Arc::new(SimLlm::new(
            scenario.knowledge.clone(),
            ModelProfile::chatgpt(),
        ));
        let galois = Galois::new(model, scenario.database.clone());
        sorted_rows(&galois.execute(sql).unwrap().relation)
    };
    assert_eq!(run(0), run(1));
}

#[test]
fn qa_baseline_is_deterministic() {
    let scenario = Scenario::generate(42);
    let question = scenario.suite[0].question();
    let ask = |_: u32| {
        let model = Arc::new(SimLlm::new(
            scenario.knowledge.clone(),
            ModelProfile::chatgpt(),
        ));
        QaBaseline::new(model)
            .ask(&question, BaselineKind::Plain)
            .text
    };
    assert_eq!(ask(0), ask(1));
}

#[test]
fn filter_modes_agree_under_the_oracle() {
    // The same selection twice: once as a boolean prompt per key, once
    // through an expression no prompt condition can carry, so the engine
    // fetches the attribute and compares it itself.
    let scenario = Scenario::generate(42);
    let galois = oracle(&scenario);
    let boolean = galois
        .execute("SELECT name FROM city WHERE population > 1000000")
        .unwrap();
    let fetch_compare = galois
        .execute("SELECT name FROM city WHERE population * 1 > 1000000")
        .unwrap();
    assert!(boolean.stats.filter_prompts > 0);
    assert!(fetch_compare.stats.filter_prompts == 0 && fetch_compare.stats.fetch_prompts > 0);
    assert_eq!(
        sorted_rows(&boolean.relation),
        sorted_rows(&fetch_compare.relation),
    );
}

#[test]
fn hybrid_query_matches_all_db_execution_under_oracle() {
    let scenario = Scenario::generate(42);
    let galois = oracle(&scenario);
    let hybrid = "SELECT e.countryCode, AVG(e.salary), MAX(k.gdp) \
                  FROM DB.employees e, LLM.country k WHERE e.countryCode = k.code \
                  GROUP BY e.countryCode ORDER BY e.countryCode";
    let all_db = "SELECT e.countryCode, AVG(e.salary), MAX(k.gdp) \
                  FROM employees e, country k WHERE e.countryCode = k.code \
                  GROUP BY e.countryCode ORDER BY e.countryCode";
    let got = galois.execute(hybrid).unwrap();
    let truth = scenario.database.execute(all_db).unwrap();
    assert_eq!(sorted_rows(&got.relation), sorted_rows(&truth));
    assert!(
        got.stats.total_prompts() > 0,
        "the LLM side must be prompted"
    );
}

#[test]
fn db_default_source_runs_without_prompts() {
    let scenario = Scenario::generate(42);
    let model = Arc::new(SimLlm::new(
        scenario.knowledge.clone(),
        ModelProfile::chatgpt(),
    ));
    let galois = Galois::new(model, scenario.database.clone());
    let got = galois
        .execute("SELECT name FROM DB.city WHERE population > 1000000")
        .unwrap();
    assert_eq!(got.stats.total_prompts(), 0);
    let truth = scenario
        .database
        .execute("SELECT name FROM city WHERE population > 1000000")
        .unwrap();
    assert_eq!(got.relation.len(), truth.len());
}

#[test]
fn noisy_models_never_error_on_the_suite() {
    let scenario = Scenario::generate_with(
        11,
        galois::dataset::WorldConfig {
            countries: 6,
            cities: 14,
            airports: 7,
            singers: 7,
            concerts: 8,
            employees: 10,
        },
    );
    for profile in ModelProfile::all() {
        let model = Arc::new(SimLlm::new(scenario.knowledge.clone(), profile.clone()));
        let galois = Galois::new(model, scenario.database.clone());
        for spec in &scenario.suite {
            galois
                .execute(&spec.to_sql())
                .unwrap_or_else(|e| panic!("{} failed q{}: {e}", profile.name, spec.id));
        }
    }
}

#[test]
fn session_stats_accumulate_and_cache_dedupes() {
    let scenario = Scenario::generate(42);
    let galois = oracle(&scenario);
    let sql = "SELECT name FROM city";
    let first = galois.execute(sql).unwrap();
    assert!(first.stats.list_prompts > 0);
    // Second execution of the identical query is fully cache-served.
    let second = galois.execute(sql).unwrap();
    assert_eq!(second.stats.cache_hits, first.stats.total_prompts());
    assert_eq!(sorted_rows(&first.relation), sorted_rows(&second.relation));
}

#[test]
fn prompt_text_is_the_only_interface() {
    // The engine's behaviour must be reproducible from prompt text alone:
    // a transcript of (prompt, completion) pairs replayed through a
    // FixedResponder-per-prompt mock yields the same relation.
    use galois::llm::{Completion, LanguageModel, Usage};
    use std::sync::Mutex;

    struct Recorder {
        inner: Arc<SimLlm>,
        log: Mutex<Vec<(String, String)>>,
    }
    impl LanguageModel for Recorder {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn context_window(&self) -> usize {
            self.inner.context_window()
        }
        fn complete(&self, prompt: &str) -> Completion {
            let c = self.inner.complete(prompt);
            self.log
                .lock()
                .unwrap()
                .push((prompt.to_string(), c.text.clone()));
            c
        }
    }

    struct Replayer {
        transcript: std::collections::HashMap<String, String>,
    }
    impl LanguageModel for Replayer {
        fn name(&self) -> &str {
            "chatgpt"
        }
        fn context_window(&self) -> usize {
            4096
        }
        fn complete(&self, prompt: &str) -> Completion {
            let text = self
                .transcript
                .get(prompt)
                .cloned()
                .unwrap_or_else(|| "Unknown".to_string());
            Completion {
                text,
                usage: Usage::default(),
                latency_ms: 1,
            }
        }
    }

    let scenario = Scenario::generate(42);
    let sim = Arc::new(SimLlm::new(
        scenario.knowledge.clone(),
        ModelProfile::chatgpt(),
    ));
    let recorder = Arc::new(Recorder {
        inner: sim,
        log: Mutex::new(Vec::new()),
    });
    let sql = "SELECT name FROM city WHERE population > 1000000";
    let galois = Galois::new(recorder.clone(), scenario.database.clone());
    let original = galois.execute(sql).unwrap();

    let transcript: std::collections::HashMap<String, String> =
        recorder.log.lock().unwrap().iter().cloned().collect();
    let replayed = Galois::new(Arc::new(Replayer { transcript }), scenario.database.clone())
        .execute(sql)
        .unwrap();

    assert_eq!(
        sorted_rows(&original.relation),
        sorted_rows(&replayed.relation)
    );
}
