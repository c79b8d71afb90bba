//! Multi-key prompt batching (PR 4): cells of the contract battery
//! (`tests/common/contract.rs`).
//!
//! 1. **The default** — `PromptBatch::Off` stays the default, whose
//!    readings are pinned.
//! 2. **Result invariance** — key batching, `Grid { keys: B, attrs: 1 }`,
//!    reshapes the prompt schedule but never `R_M`, for any batch factor
//!    and worker count; on the oracle it never costs more prompts and
//!    saves virtual time, at `B = 1` it costs exactly the single-key bill,
//!    and lanes move its clocks only.
//! 3. **Fallback safety** — corrupted batched answers fall back to
//!    single-key re-asks that restore the exact relations.

mod common;

use common::contract::{
    drawn, fallback_restores_rows, knob_is_invariant, Cell, Cmp, Contract, Knob, Rows,
};
use common::{key_batch, options, small_config};
use galois::core::{GaloisOptions, ListStore, Pipeline, PromptBatch};
use galois::dataset::Scenario;
use proptest::prelude::*;

/// The default session's readings are pinned by `tests/wave_golden.rs`.
#[test]
fn off_is_bit_identical_to_default_pipeline() {
    let off = GaloisOptions::default().prompt_batch;
    assert_eq!(off, PromptBatch::Off, "Off must stay the default");
}

#[test]
fn batched_relations_match_off_for_one_and_eight_workers() {
    let s = Scenario::generate_with(42, small_config());
    let batched = |b, lanes| options(ListStore::Off, Pipeline::Off, key_batch(b), lanes);
    let off = Cell::new(&s, GaloisOptions::default());
    let cheaper = Contract {
        rows: Rows::InOrder,
        bill: Some(Cmp::Le),
        clock: Some(Cmp::Lt),
        ..Contract::R_M
    };
    let cells = [(2, 1), (10, 1), (2, 8), (10, 8)].map(|(b, lanes)| off.with(batched(b, lanes)));
    cheaper.check(&off, &cells);
    // `B = 1`: the multi-key protocol at its base case, a different text
    // for the same prompts — on a fresh session, where no earlier
    // statement's sub-entries serve a key.
    let single = Contract {
        rows: Rows::InOrder,
        bill: Some(Cmp::Eq),
        ..Contract::R_M
    };
    for sql in &off.order {
        let off = off.clone().order(vec![sql.clone()]);
        single.check(&off, &[off.with(batched(1, 1))]);
    }
    let one_lane = off.with(batched(10, 1));
    Contract::CLOCKS_ONLY.check(&one_lane, &[2, 8].map(|k| off.with(batched(10, k))));
}

#[test]
fn corrupted_batches_fall_back_to_off_relations() {
    fallback_restores_rows(&[key_batch(8)], &[Pipeline::Off]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batching_is_result_invariant_for_any_seed(draw in drawn(true)) {
        knob_is_invariant(Knob::Batch, &draw);
    }
}
