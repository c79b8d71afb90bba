//! Grid-fused multi-attribute prompting (PR 7): cells of the contract
//! battery (`tests/common/contract.rs`), and the grid's economics.
//!
//! 1. **The default** — `PromptBatch::Off` stays the default, whose
//!    readings are pinned.
//! 2. **One fetch-group rule** — a group asking one attribute with no pad
//!    columns is a key batch, every wider group a grid prompt: so
//!    `Grid { keys: B, attrs: 1 }` is key batching, and a wider grid's
//!    last, one-column group without pads is a key batch too.
//! 3. **Result invariance** — `Grid { keys: B, attrs: A }` reshapes the
//!    fetch schedule but never `R_M`, for any B, A, lane count or
//!    pipeline; lanes move its clocks only; a model that permutes the
//!    grid's answer lines costs nothing.
//! 4. **Fallback safety** — when grid answers are corrupted, the ladder
//!    (grid → per-attribute key batch → per-key single) restores the exact
//!    relations.

mod common;

use common::contract::{
    drawn, fallback_restores_rows, knob_is_invariant, Cell, Contract, Knob, Model,
};
use common::{key_batch, options, oracle_session, small_config, sorted_rows, suite, Pass};
use galois::core::{Galois, GaloisOptions, ListStore, Pipeline, PromptBatch};
use galois::dataset::Scenario;
use galois::llm::intent::{parse_task, TaskIntent};
use galois::llm::{ModelProfile, SimLlm, Transcript};
use proptest::prelude::*;
use std::sync::Arc;

fn grid(keys: usize, attrs: usize) -> PromptBatch {
    PromptBatch::Grid { keys, attrs }
}

/// A fetch prompt as the model reads it: a key batch asking one
/// attribute, or a grid prompt asking several.
#[derive(Debug, PartialEq)]
enum Fetch {
    KeyBatch(String),
    Grid(Vec<String>),
}

/// What `sqls` read on a fresh oracle session under `batch` and
/// `pipeline`: each statement's rows as a multiset, and the fetch prompts
/// it sent.
fn fetch_forms(
    s: &Scenario,
    batch: PromptBatch,
    pipeline: Pipeline,
    sqls: &[String],
) -> (Vec<Vec<Vec<String>>>, Vec<Fetch>) {
    let model = Arc::new(Transcript::record(SimLlm::new(
        s.knowledge.clone(),
        ModelProfile::oracle(),
    )));
    let options = options(ListStore::Off, pipeline, batch, 1);
    let session = Galois::with_options(model.clone(), s.database.clone(), options);
    let rows = sqls
        .iter()
        .map(|sql| sorted_rows(&session.execute(sql).unwrap().relation))
        .collect();
    let fetches = (model.transcript().calls.iter())
        .filter_map(|(prompt, _)| match parse_task(prompt)? {
            TaskIntent::FetchAttrBatch { attribute, .. } => Some(Fetch::KeyBatch(attribute)),
            TaskIntent::FetchGridBatch { attributes, .. } => Some(Fetch::Grid(attributes)),
            _ => None,
        })
        .collect();
    (rows, fetches)
}

/// The default session's readings are pinned by `tests/wave_golden.rs`.
#[test]
fn off_is_bit_identical_to_default_pipeline() {
    let off = GaloisOptions::default().prompt_batch;
    assert_eq!(off, PromptBatch::Off, "Off must stay the default");
}

/// `Grid { keys: B, attrs: 1 }` is key batching: every fetch prompt it
/// sends is a key batch, none a grid.
#[test]
fn grid_of_one_attr_matches_keys_batching_counts() {
    let s = Scenario::generate_with(42, small_config());
    for pipeline in [Pipeline::Off, Pipeline::Streaming] {
        let (_, fetches) = fetch_forms(&s, grid(8, 1), pipeline, &suite(&s)[..12]);
        assert!(!fetches.is_empty(), "{pipeline:?}: no fetch prompt");
        assert!(
            fetches.iter().all(|f| matches!(f, Fetch::KeyBatch(_))),
            "{pipeline:?}: {fetches:?}"
        );
    }
}

/// At `A = 2` the three non-key columns of `cityMayor` make a two-column
/// group and a last, one-column group with no spare column to pad it:
/// the first is sent as grid prompts, the last as key batches, and the
/// rows are the paper default's.
#[test]
fn a_last_group_of_one_column_without_pads_is_sent_as_key_batches() {
    let s = Scenario::generate_with(42, small_config());
    let sql = ["SELECT name, birthDate, electionYear, party FROM cityMayor".to_string()];
    let (off, _) = fetch_forms(&s, PromptBatch::Off, Pipeline::Off, &sql);
    let pair = Fetch::Grid(vec!["birthDate".to_string(), "electionYear".to_string()]);
    let last = Fetch::KeyBatch("party".to_string());
    for pipeline in [Pipeline::Off, Pipeline::Streaming] {
        let (rows, fetches) = fetch_forms(&s, grid(10, 2), pipeline, &sql);
        assert_eq!(rows, off, "{pipeline:?}");
        assert!(
            fetches.contains(&pair) && fetches.contains(&last),
            "{pipeline:?}"
        );
        assert!(
            fetches.iter().all(|f| *f == pair || *f == last),
            "{pipeline:?}: {fetches:?}"
        );
    }
}

#[test]
fn grid_relations_match_off_across_b_a_k_and_pipelines() {
    let s = Scenario::generate_with(42, small_config());
    let off = Cell::new(&s, GaloisOptions::default()).order(suite(&s)[..12].to_vec());
    let mut cells = Vec::new();
    for pipeline in [Pipeline::Off, Pipeline::Streaming] {
        for lanes in [1, 8] {
            // `attrs: 64` exceeds every step's fetch width — the "all
            // attributes in one prompt" extreme.
            for (b, a) in [(2, 2), (2, 64), (10, 2), (10, 64)] {
                cells.push(off.with(options(ListStore::Off, pipeline, grid(b, a), lanes)));
            }
        }
    }
    Contract::R_M.check(&off, &cells);
    let one_lane = off.with(options(ListStore::Off, Pipeline::Off, grid(10, 2), 1));
    let lanes = [2, 8].map(|k| off.with(options(ListStore::Off, Pipeline::Off, grid(10, 2), k)));
    Contract::CLOCKS_ONLY.check(&one_lane, &lanes);
}

/// The headline economics: on a multi-attribute query the grid spends
/// strictly fewer fetch prompts than key-only batching, and its per-(key,
/// attr) sub-entries serve narrower follow-up queries without any new
/// fetch prompts (cache interop).
#[test]
fn grid_cuts_fetch_prompts_and_serves_narrower_queries() {
    let s = Scenario::generate_with(42, small_config());
    let wide = "SELECT name, population, country FROM city WHERE elevation < 3000";
    let narrow = "SELECT name, population FROM city WHERE elevation < 3000";
    let session = |batch| oracle_session(&s, options(ListStore::Off, Pipeline::Off, batch, 1));
    let (keys, grid) = (session(key_batch(10)), session(grid(10, 4)));
    let a = keys.execute(wide).unwrap();
    let b = grid.execute(wide).unwrap();
    assert_eq!(sorted_rows(&a.relation), sorted_rows(&b.relation));
    assert!(
        b.stats.fetch_prompts < a.stats.fetch_prompts,
        "grid {} vs keys-only {}",
        b.stats.fetch_prompts,
        a.stats.fetch_prompts
    );
    // The wide grid answers were stored per (key, attr): the narrower
    // query's fetch phase resolves entirely at sub-entry extraction.
    let c = grid.execute(narrow).unwrap();
    assert_eq!(c.stats.fetch_prompts, 0, "narrow query re-fetched");
    assert!(c.stats.cache_hits > 0);
}

/// Speculative fill: a grid group with spare width pads itself with the
/// relation's *other* columns, so a follow-up query touching columns the
/// first query never asked for still fetches entirely from sub-entries —
/// the cross-query lever that breaks the one-new-column-per-query fetch
/// floor. Key batching (`attrs: 1`, no spare width) must still pay fetch
/// prompts for the unseen column, and the answers must be identical
/// either way.
#[test]
fn speculative_pads_serve_unseen_columns_without_prompts() {
    let s = Scenario::generate_with(42, small_config());
    let first = "SELECT name FROM city WHERE population > 100000".to_string();
    let unseen = "SELECT name, mayor FROM city WHERE population > 100000".to_string();
    for pipeline in [Pipeline::Off, Pipeline::Streaming] {
        let cell =
            Cell::new(&s, GaloisOptions::default()).order(vec![first.clone(), unseen.clone()]);
        let [keys, pads] = [key_batch(10), grid(10, 6)].map(|batch| {
            cell.with(options(ListStore::Off, pipeline, batch, 1))
                .read()
        });
        Contract::R_M.compare(&keys, &pads, "pads");
        let fetched = |passes: &[Pass]| passes[0].0[1].stats.fetch_prompts;
        assert!(fetched(&keys) > 0, "key batching must re-fetch");
        assert_eq!(
            fetched(&pads),
            0,
            "mayor was never selected, but the first query's pads stored it"
        );
    }
}

#[test]
fn corrupted_grids_fall_back_to_off_relations() {
    fallback_restores_rows(&[grid(8, 4)], &[Pipeline::Off, Pipeline::Streaming]);
}

#[test]
fn permuted_grid_lines_round_trip_without_fallback() {
    let s = Scenario::generate_with(42, small_config());
    let clean = Cell::new(&s, options(ListStore::Off, Pipeline::Off, grid(8, 4), 1));
    let clean = clean.order(suite(&s)[..12].to_vec());
    Contract::BIT_EXACT.check(&clean, &[clean.clone().model(Model::Permuter)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn grid_is_result_invariant_for_any_seed(draw in drawn(true)) {
        knob_is_invariant(Knob::Grid, &draw);
    }
}
