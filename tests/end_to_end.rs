//! Cross-crate integration tests: SQL text → plan → prompts → simulated
//! LLM → parsing/cleaning → relational tail → relation.

mod common;

use common::contract::Contract;
use common::{pass, sorted_rows, statements};
use galois::core::{BaselineKind, Galois, GaloisOptions, QaBaseline};
use galois::dataset::Scenario;
use galois::eval::{match_records, relation_to_records};
use galois::llm::intent::{parse_task, TaskIntent};
use galois::llm::{LanguageModel, ModelProfile, SimLlm, Transcript};
use galois::relational::Value;
use std::sync::Arc;

fn oracle(scenario: &Scenario) -> Galois {
    let model = Arc::new(SimLlm::new(
        scenario.knowledge.clone(),
        ModelProfile::oracle(),
    ));
    Galois::new(model, scenario.database.clone())
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

/// The engine reads nothing of the model but its text: the 46 + 18
/// statements, replayed on a fresh session from the transcript of a
/// chatgpt run, read what the run read — rows in order and every stat,
/// hence the same prompts, hits, tokens and both clocks — under the
/// paper's options and the serving preset, and no prompt misses.
#[test]
fn prompt_text_is_the_only_interface() {
    let scenario = Scenario::generate(42);
    let statements = statements(&scenario);
    for (label, options) in [
        ("default", GaloisOptions::default()),
        ("serving", GaloisOptions::serving()),
    ] {
        let session = |model: Arc<dyn LanguageModel>| {
            Galois::with_options(model, scenario.database.clone(), options.clone())
        };
        let recording = Arc::new(Transcript::record(SimLlm::new(
            scenario.knowledge.clone(),
            ModelProfile::chatgpt(),
        )));
        let recorded = pass(&session(recording.clone()), &statements);
        let replay = Arc::new(recording.transcript().replay());
        let replayed = pass(&session(replay.clone()), &statements);
        let label = format!("chatgpt {label}, replayed against recorded");
        Contract::BIT_EXACT.compare(&[recorded], &[replayed], &label);
        assert_eq!(replay.misses(), 0, "{label}");
    }
}

/// A prompt the transcript lacks fails its cell and nothing else: with
/// one fetch answer removed the statement returns, that cell reads NULL
/// and counts in `failed_cells`, and the fault text never becomes the
/// cell's value — asked again, the cell reads NULL and counts as failed
/// again, and the prompt reaches the model again: the client does not
/// cache fault text, so each run misses once.
#[test]
fn a_prompt_missing_from_the_transcript_fails_one_cell() {
    let scenario = Scenario::generate(42);
    let sql = "SELECT name, population FROM country";
    let recording = Arc::new(Transcript::record(SimLlm::new(
        scenario.knowledge.clone(),
        ModelProfile::oracle(),
    )));
    Galois::new(recording.clone(), scenario.database.clone())
        .execute(sql)
        .unwrap();
    let mut transcript = recording.transcript();
    let (nth, key) = (transcript.calls.iter().enumerate())
        .find_map(|(nth, (prompt, _))| match parse_task(prompt)? {
            TaskIntent::FetchAttr { key, .. } => Some((nth, key)),
            _ => None,
        })
        .unwrap();
    transcript.calls.remove(nth);
    let replay = Arc::new(transcript.replay());
    let session = Galois::new(replay.clone(), scenario.database.clone());
    for run in 1..=2 {
        let got = session.execute(sql).unwrap();
        assert_eq!(got.stats.failed_cells, 1);
        for row in &got.relation.rows {
            assert_eq!(row[1] == Value::Null, row[0].render() == key, "{row:?}");
        }
        assert_eq!(replay.misses(), run);
    }
}
