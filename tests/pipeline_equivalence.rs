//! Streaming-pipeline invariants (PR 5):
//!
//! 1. **Off bit-exactness** — `Pipeline::Off` (the default) must be
//!    bit-identical to the wave pipeline: prompts per kind, cache hits,
//!    both virtual clocks and result relations all match a session that
//!    never heard of pipelining. Same invariant discipline as
//!    `Parallelism(1)`, `Planner::Heuristic` and `PromptBatch::Off`.
//! 2. **Streaming result invariance** — `Pipeline::Streaming` may reshape
//!    the prompt *schedule* arbitrarily, but on a noise-free model it must
//!    never change `R_M`, for any lane count and any batch factor.
//! 3. **Accounting discipline** — streaming always takes exactly the wave
//!    pipeline's cache hits, and its prompt bill can only grow (an
//!    idle-lane flush may split a chunk that later input would have
//!    filled), never shrink. On the benchmark configuration — single-page
//!    key streams whose stage inputs each arrive at one instant — the
//!    prompt bill is exactly the wave's, which the fixed-grid test below
//!    (and the ledger test's `galois_pipelined` / `galois_batched` pair)
//!    pins down.
//! 4. **Fallback safety** — corrupted batched answers still fall back to
//!    single-key re-asks under the event-driven dataflow: accuracy can
//!    never regress, only the prompt bill can.

mod common;

use common::{
    assert_suite_bit_identical, assert_suite_rows_match, options, oracle_session,
    session_with_model, small_config, sorted_rows, LineDropper,
};
use galois::core::{Galois, GaloisOptions, ListStore, Pipeline, PromptBatch};
use galois::dataset::Scenario;
use proptest::prelude::*;
use std::sync::Arc;

fn session(s: &Scenario, pipeline: Pipeline, batch: PromptBatch, lanes: usize) -> Galois {
    oracle_session(s, options(ListStore::Off, pipeline, batch, lanes))
}

/// `Pipeline::Off` is the default: the default-options session and an
/// explicitly-Off session must agree on *every* observable counter across
/// the whole suite — prompts per kind, cache hits, both clocks, the
/// per-phase breakdown, rows.
#[test]
fn off_is_bit_identical_to_default_pipeline() {
    let s = Scenario::generate_with(42, small_config());
    let default_session = oracle_session(&s, GaloisOptions::default());
    let off_session = session(&s, Pipeline::Off, PromptBatch::Off, 1);
    assert_eq!(
        GaloisOptions::default().pipeline,
        Pipeline::Off,
        "Off must stay the default"
    );
    assert_suite_bit_identical(
        &s,
        &default_session,
        &off_session,
        usize::MAX,
        "pipeline off",
    );
}

/// Streaming returns identical relations for K ∈ {1, 2, 8} × B ∈ {1, 10}
/// across the whole suite — the ISSUE's invariance grid.
#[test]
fn streaming_relations_match_off_across_the_grid() {
    let s = Scenario::generate_with(42, small_config());
    let off = session(&s, Pipeline::Off, PromptBatch::Off, 1);
    for spec in &s.suite {
        let sql = spec.to_sql();
        let base = off.execute(&sql).unwrap();
        for lanes in [1usize, 2, 8] {
            for b in [1usize, 10] {
                let got = session(&s, Pipeline::Streaming, PromptBatch::Keys(b), lanes)
                    .execute(&sql)
                    .unwrap();
                assert_eq!(
                    sorted_rows(&got.relation),
                    sorted_rows(&base.relation),
                    "q{} diverged at B={b}, K={lanes}: {sql}",
                    spec.id
                );
            }
        }
    }
}

/// On this fixed workload (seed-42 small world, the oracle's single-page
/// key streams, these B/K geometries) the streaming dataflow issues
/// exactly the wave pipeline's prompts — per kind — and takes exactly its
/// cache hits, in the same result-row order. This is a deterministic
/// regression pin for the benchmark configuration, not a universal law:
/// a filter stage with more chunks than lanes completes across distinct
/// instants and can make the idle flush split downstream chunks (see the
/// proptest below). Fresh session pairs per query keep the comparison
/// exact (no cross-query cache interleaving).
#[test]
fn streaming_preserves_prompts_hits_and_row_order() {
    let s = Scenario::generate_with(42, small_config());
    for spec in &s.suite {
        let sql = spec.to_sql();
        for (lanes, b) in [(1usize, 10usize), (8, 10), (8, 1)] {
            let batch = PromptBatch::Keys(b);
            let wave = session(&s, Pipeline::Off, batch, lanes)
                .execute(&sql)
                .unwrap();
            let stream = session(&s, Pipeline::Streaming, batch, lanes)
                .execute(&sql)
                .unwrap();
            assert_eq!(
                wave.relation.rows, stream.relation.rows,
                "q{} rows at B={b}, K={lanes}",
                spec.id
            );
            assert_eq!(
                wave.stats.list_prompts, stream.stats.list_prompts,
                "q{} list prompts at B={b}, K={lanes}",
                spec.id
            );
            assert_eq!(
                wave.stats.filter_prompts, stream.stats.filter_prompts,
                "q{} filter prompts at B={b}, K={lanes}",
                spec.id
            );
            assert_eq!(
                wave.stats.fetch_prompts, stream.stats.fetch_prompts,
                "q{} fetch prompts at B={b}, K={lanes}",
                spec.id
            );
            assert_eq!(
                wave.stats.cache_hits, stream.stats.cache_hits,
                "q{} cache hits at B={b}, K={lanes}",
                spec.id
            );
            assert_eq!(
                wave.stats.serial_virtual_ms > 0,
                stream.stats.serial_virtual_ms > 0,
                "q{}",
                spec.id
            );
        }
    }
}

/// With half of every batched answer destroyed, the streaming fallback
/// re-asks must restore the exact `Pipeline::Off` relations — at
/// K ∈ {1, 8} — while necessarily spending extra prompts.
#[test]
fn corrupted_streams_fall_back_to_off_relations() {
    let s = Scenario::generate_with(42, small_config());
    let off = session(&s, Pipeline::Off, PromptBatch::Off, 1);
    for lanes in [1usize, 8] {
        let flaky = session_with_model(
            Arc::new(LineDropper::oracle(&s)),
            &s,
            options(
                ListStore::Off,
                Pipeline::Streaming,
                PromptBatch::Keys(8),
                lanes,
            ),
        );
        assert_suite_rows_match(
            &s,
            &off,
            &flaky,
            12,
            &format!("corrupted micro-batches at K={lanes}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property form over arbitrary worlds, suite queries, batch factors
    /// and lane counts: streaming never changes `R_M` on a noise-free
    /// model and never takes different cache hits; its prompt bill can
    /// only grow. Exact prompt equality is deliberately *not* asserted
    /// here: when a multi-chunk filter stage's chunks complete at distinct
    /// virtual instants (more chunks than lanes), the idle-lane flush can
    /// split a downstream accumulator that later survivors of the same
    /// page would have filled — e.g. seed 0, `cityMayor` with
    /// `electionYear >= 2019`, B=3, K=4 spends 11 prompts against the
    /// wave's 10. Latency is bought with partial-chunk prompts, never
    /// with accuracy.
    #[test]
    fn streaming_is_result_invariant_for_any_seed(
        seed in 0u64..10_000,
        qi in 0usize..46,
        b in 1usize..26,
        lanes in 1usize..12,
    ) {
        let s = Scenario::generate_with(seed, small_config());
        let spec = &s.suite[qi];
        let sql = spec.to_sql();
        let wave = session(&s, Pipeline::Off, PromptBatch::Keys(b), lanes)
            .execute(&sql)
            .map_err(|e| TestCaseError::fail(format!("q{}: {e}", spec.id)))?;
        let stream = session(&s, Pipeline::Streaming, PromptBatch::Keys(b), lanes)
            .execute(&sql)
            .map_err(|e| TestCaseError::fail(format!("q{}: {e}", spec.id)))?;
        prop_assert_eq!(
            sorted_rows(&wave.relation), sorted_rows(&stream.relation),
            "q{} R_M diverges at B={}, K={}", spec.id, b, lanes
        );
        prop_assert!(
            stream.stats.total_prompts() >= wave.stats.total_prompts(),
            "q{}: streaming spent fewer prompts ({}) than the wave ({}) at B={}, K={}",
            spec.id, stream.stats.total_prompts(), wave.stats.total_prompts(), b, lanes
        );
        prop_assert_eq!(
            wave.stats.cache_hits, stream.stats.cache_hits,
            "q{} cache hits diverge at B={}, K={}", spec.id, b, lanes
        );
    }
}
