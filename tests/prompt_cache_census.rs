//! The prompt-cache census: raw prompt-cache hits by prompt class
//! (`common::contract::cache_hits`), pinned cell by cell.
//!
//! Under the multi-key protocol a retrieved fact has two homes: a grid or
//! key-batch answer is kept whole in the prompt cache, and its cells again
//! in the sub-entry store, which is read first. The protocol bills a keyed
//! prompt's hits by signature and drops the raw ones, so `QueryStats`
//! cannot say whether the prompt cache ever served a keyed prompt. This
//! file counts it, for list prompts and keyed prompts apart, on the x4
//! world of seed 42 over the suite and the operator suite (64
//! statements), two passes a cell (cold, then warm on the same session):
//!
//! * the five profiles under `GaloisOptions::serving()`, under the
//!   serving grid with the list store off on either driver, and through
//!   `run_multi_query` replays of the serving stack over three sessions;
//! * the oracle behind the chaos battery's fault schedules — rates 0.1
//!   and 0.5 of every fault kind, and 0.5 of the kinds a marker shows —
//!   with and without retries, under the serving stack and the barrier
//!   driver's grid.
//!
//! Every keyed count is 0 but where a truncated answer was kept. A
//! truncated fault is an answer cut short, which no marker shows, so the
//! prompt cache keeps it like any answer; the cells it cut off fail, the
//! sub-entry store keeps nothing for them, and with no retry to replace
//! the cut text a later ask of the same keyed prompt is served it again.
//! That happens once: in the serving stack's cold pass under the rate 0.5
//! schedule with resilience off, a one-key grid prompt answered
//! `Belmarch ⌁ popul`. List prompts hit wherever a concept is listed
//! again with the store off; those counts are data.
//!
//! `tests/fixtures/prompt_cache_census.txt` holds one line a cell and
//! pass. Regenerate with
//! `cargo test --release --test prompt_cache_census -- --ignored`.

mod common;

use common::contract::{cache_hits, faulty, replayed_cache_hits, CacheHits, Cell, Model};
use common::{options, statements};
use galois::core::{GaloisOptions, ListStore, Pipeline, Resilience, RetryPolicy};
use galois::dataset::Scenario;
use galois::llm::{FaultProfile, ModelProfile};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/prompt_cache_census.txt"
);

/// Each census line: a cell's label, its pass and its hits by class.
fn census() -> Vec<String> {
    let world = Scenario::generate_scaled(42, 4);
    let serving = GaloisOptions::serving();
    let grid = |pipeline, lanes| options(ListStore::Off, pipeline, serving.prompt_batch, lanes);
    let stacks = [
        ("serving", serving.clone()),
        ("grid-nostore-streaming", grid(Pipeline::Streaming, 8)),
        ("grid-nostore-barrier", grid(Pipeline::Off, 1)),
    ];
    let mut lines = Vec::new();
    let mut pin = |label: String, hits: Vec<CacheHits>, kept_fault: bool| {
        for (pass, CacheHits { list, keyed }) in hits.into_iter().enumerate() {
            assert!(
                keyed == 0 || kept_fault,
                "{label}, pass {pass}: the prompt cache served {keyed} keyed prompts"
            );
            lines.push(format!("{label} pass {pass}: list {list} keyed {keyed}"));
        }
    };
    let statements = statements(&world);
    let mut profiles = vec![ModelProfile::oracle()];
    profiles.extend(ModelProfile::all());
    for profile in profiles {
        let cell = Cell::new(&world, serving.clone())
            .model(Model::Profile(profile.clone()))
            .order(statements.clone())
            .passes(2);
        for (stack, options) in &stacks {
            let hits = cache_hits(&cell.with(options.clone()));
            pin(format!("{}/{stack}", profile.name), hits, false);
        }
        let hits = replayed_cache_hits(&cell, 3);
        pin(format!("{}/replay-3-sessions", profile.name), hits, false);
    }
    let schedules = [
        ("faults-0.1", FaultProfile::with_rate(0.1)),
        ("faults-0.5", FaultProfile::with_rate(0.5)),
        (
            "marked-faults-0.5",
            FaultProfile {
                fault_rate: 0.5,
                truncated_weight: 0,
            },
        ),
    ];
    for (schedule, faults) in schedules {
        for (retries, resilience) in [
            ("retries", Resilience::On(RetryPolicy::default())),
            ("no-retries", Resilience::Off),
        ] {
            // The event and the barrier driver, with the store on and off.
            for (stack, options) in [&stacks[0], &stacks[2]] {
                let options = GaloisOptions {
                    resilience,
                    ..options.clone()
                };
                let model = faulty(&world, ModelProfile::oracle(), faults.clone());
                let cell = Cell::new(&world, options)
                    .model(Model::Faulty(model))
                    .order(statements.clone())
                    .passes(2);
                let kept_fault = faults.truncated_weight > 0 && resilience == Resilience::Off;
                pin(
                    format!("oracle/{stack}/{schedule}/{retries}"),
                    cache_hits(&cell),
                    kept_fault,
                );
            }
        }
    }
    lines
}

#[test]
fn the_prompt_cache_serves_no_keyed_prompt_but_a_kept_truncation() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("committed fixture");
    let pinned: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
    let lines = census();
    for (got, want) in lines.iter().zip(&pinned) {
        assert_eq!(got, want, "census line");
    }
    assert_eq!(lines.len(), pinned.len(), "census lines");
}

#[test]
#[ignore = "rewrites the fixture"]
fn regenerate_prompt_cache_census_fixture() {
    let mut text = String::from(
        "# Raw prompt-cache hits by prompt class; see tests/prompt_cache_census.rs.\n",
    );
    for line in census() {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::write(FIXTURE, text).expect("fixture written");
}
