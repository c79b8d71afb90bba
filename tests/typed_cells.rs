//! What a warmed session keeps of its reads changes no reading (PR 21):
//! cells of the contract battery's served-relation checks
//! (`tests/common/contract.rs`).
//!
//! PR 21 kept a warm session's reads cell by cell — the "cells" the tests
//! are named for — and PR 22 keeps the whole table instead
//! (`crates/core/src/session/typed.rs`). `tests/universe_relation.rs`
//! holds the same checks on other cells: the two files together run each
//! check once per cell, on the serving stack over the x4 worlds.

mod common;

use common::contract::{
    a_republished_universe_retires_what_is_kept, clearing_the_cache_retires_what_is_kept,
    served_reads_what_built_read, two_threads_read_the_same_rows,
};
use galois::llm::ModelProfile;

#[test]
fn warm_passes_read_the_same_rows_stats_and_client_bill() {
    for seed in [1, 7, 42] {
        served_reads_what_built_read(seed, ModelProfile::oracle());
    }
}

/// A relation holds what the store holds, right or wrong: a noisy
/// model's stored answers read the same from either.
#[test]
fn a_noisy_models_warm_passes_read_the_same() {
    for seed in [1, 7, 42] {
        served_reads_what_built_read(seed, ModelProfile::chatgpt());
    }
}

/// Two passes settle the plans and the stored universes; five leave
/// every warm relation filled.
#[test]
fn clearing_the_client_cache_retires_the_cells() {
    clearing_the_cache_retires_what_is_kept(7, 2, 5);
}

#[test]
fn a_republished_shared_universe_retires_the_cells() {
    a_republished_universe_retires_what_is_kept(1);
}

#[test]
fn two_threads_fill_the_same_cells_with_the_same_rows() {
    two_threads_read_the_same_rows(7);
}
