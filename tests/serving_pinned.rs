//! A warmed serving session's results, pinned.
//!
//! `crates/relational/tests/pinned_results.rs` pins the executor on stored
//! tables. A Galois session runs its relational tail over temporary tables
//! the retrieval steps build, with `Project(Join)` plans over them that the
//! stored-table pin never produces. This file pins those: the evaluation
//! suite and the operator suite on worlds {1, 7, 42} at x4, on the serving
//! stack (`GaloisOptions::serving()`: streaming, cost planner, grid
//! batching, key-universe store) after two warming passes — column names,
//! then every row in output order, every value in its `Debug` form, folded
//! into one FNV-1a digest per world. A second digest folds each
//! statement's rows sorted, so it holds a change that may reorder rows but
//! must not change which rows come back.
//!
//! The ordered digests were first computed with the executor that
//! concatenated every joined row, and re-pinned once when the cost planner
//! stopped reordering joins to build on the smaller side: statements 41,
//! 45, 48 and 51 of the list (suite q41 and q45, operator-suite queries 2
//! and 5) changed row order on all three worlds, and the multiset digests
//! did not move.

mod common;

use common::{oracle_session, statements};
use galois::core::GaloisOptions;
use galois::dataset::Scenario;
use std::sync::OnceLock;

fn fold(hash: &mut u64, text: &str) {
    for byte in text.bytes().chain([0x1f]) {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// One world's digests of its third pass: rows in output order, and rows
/// sorted within each statement (blind to row order, not to a row's
/// values or multiplicity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digests {
    ordered: u64,
    multiset: u64,
}

fn digests(seed: u64) -> Digests {
    let scenario = Scenario::generate_scaled(seed, 4);
    let session = oracle_session(&scenario, GaloisOptions::serving());
    let statements = statements(&scenario);
    let mut digests = Digests {
        ordered: 0,
        multiset: 0,
    };
    // Two passes warm every store and settle the plans; the third is read.
    for _pass in 0..3 {
        digests.ordered = 0xcbf2_9ce4_8422_2325;
        digests.multiset = 0xcbf2_9ce4_8422_2325;
        for sql in &statements {
            let relation = session
                .execute(sql)
                .unwrap_or_else(|e| panic!("{sql}: {e}"))
                .relation;
            let columns = format!("{:?}", relation.column_names());
            let mut rows: Vec<String> = relation.rows.iter().map(|r| format!("{r:?}")).collect();
            fold(&mut digests.ordered, &columns);
            rows.iter().for_each(|row| fold(&mut digests.ordered, row));
            rows.sort_unstable();
            fold(&mut digests.multiset, &columns);
            rows.iter().for_each(|row| fold(&mut digests.multiset, row));
        }
    }
    digests
}

const SEEDS: [u64; 3] = [1, 7, 42];

/// The three worlds' digests, computed once for both tests.
fn worlds() -> &'static [Digests; 3] {
    static WORLDS: OnceLock<[Digests; 3]> = OnceLock::new();
    WORLDS.get_or_init(|| SEEDS.map(digests))
}

#[test]
fn warm_serving_results_match_the_concatenating_executor_row_for_row() {
    let pinned = [
        0x882e_4ea6_098e_467bu64,
        0x28eb_024f_9c24_2871,
        0xf6e9_bbbc_e22b_ec1e,
    ];
    let found = worlds().map(|d| d.ordered);
    assert_eq!(found, pinned, "worlds {SEEDS:?} x4: {found:#018x?}");
}

#[test]
fn warm_serving_results_match_as_multisets() {
    let pinned = [
        0x1645_9b51_f366_1733u64,
        0x31e6_596d_1da5_44c1,
        0xbede_aff4_a0b8_b656,
    ];
    let found = worlds().map(|d| d.multiset);
    assert_eq!(found, pinned, "worlds {SEEDS:?} x4: {found:#018x?}");
}
