//! The streaming pipeline (PR 5): cells of the contract battery
//! (`tests/common/contract.rs`).
//!
//! 1. **The default** — `Pipeline::Off` stays the default, whose readings
//!    are pinned.
//! 2. **Result invariance** — `Pipeline::Streaming` reshapes the prompt
//!    schedule but never `R_M`, for any lane count and batch factor.
//! 3. **Accounting** — streaming takes exactly the wave pipeline's cache
//!    hits and its prompt bill can only grow: an idle-lane flush may split
//!    a chunk that later input would have filled (e.g. seed 0, `cityMayor`
//!    with `electionYear >= 2019`, B=3, K=4 spends 11 prompts against the
//!    wave's 10). On the benchmark configuration — single-page key streams
//!    whose stage inputs each arrive at one instant — it reads the wave's
//!    rows in order and every stat but the clocks, which it beats with
//!    eight lanes and cannot beat with one: every micro-batch then pays its
//!    own request overhead, which the wave amortises.
//! 4. **Fallback safety** — corrupted batched answers still fall back to
//!    single-key re-asks under the event-driven dataflow.

mod common;

use common::contract::{
    drawn, fallback_restores_rows, knob_is_invariant, Cell, Cmp, Contract, Knob,
};
use common::{key_batch, options, small_config};
use galois::core::{GaloisOptions, ListStore, Pipeline, PromptBatch};
use galois::dataset::Scenario;
use proptest::prelude::*;

/// The default session's readings are pinned by `tests/wave_golden.rs`.
#[test]
fn off_is_bit_identical_to_default_pipeline() {
    let off = GaloisOptions::default().pipeline;
    assert_eq!(off, Pipeline::Off, "Off must stay the default");
}

#[test]
fn streaming_relations_match_off_across_the_grid() {
    let s = Scenario::generate_with(42, small_config());
    let off = Cell::new(&s, GaloisOptions::default());
    let mut cells = Vec::new();
    for lanes in [1, 2, 8] {
        for b in [1, 10] {
            let batch = key_batch(b);
            cells.push(off.with(options(ListStore::Off, Pipeline::Streaming, batch, lanes)));
        }
    }
    Contract::R_M.check(&off, &cells);
}

#[test]
fn streaming_preserves_prompts_hits_and_row_order() {
    let s = Scenario::generate_with(42, small_config());
    let grid = PromptBatch::Grid { keys: 10, attrs: 4 };
    for (lanes, batch, clock) in [
        (1, key_batch(10), Cmp::Ge),
        (8, key_batch(10), Cmp::Lt),
        (8, key_batch(1), Cmp::Lt),
        (8, grid, Cmp::Lt),
    ] {
        let wave = Cell::new(&s, options(ListStore::Off, Pipeline::Off, batch, lanes));
        let stream = options(ListStore::Off, Pipeline::Streaming, batch, lanes);
        let contract = Contract {
            clock: Some(clock),
            ..Contract::CLOCKS_ONLY
        };
        contract.check(&wave, &[wave.with(stream)]);
    }
}

#[test]
fn corrupted_streams_fall_back_to_off_relations() {
    fallback_restores_rows(&[key_batch(8)], &[Pipeline::Streaming]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn streaming_is_result_invariant_for_any_seed(draw in drawn(true)) {
        knob_is_invariant(Knob::Streaming, &draw);
    }
}
