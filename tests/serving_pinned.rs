//! A warmed serving session's results, pinned (PR 20).
//!
//! `crates/relational/tests/pinned_results.rs` pins the executor on stored
//! tables, where `Database::execute` plans every join in FROM order. A
//! Galois session plans over temporary tables and the cost planner commutes
//! joins, so its relational tail runs `Project(Project(Join))` plans the
//! stored-table pin never produces. This file pins those: the evaluation
//! suite and the operator suite on worlds {1, 7, 42} at x4, on the serving
//! stack (`GaloisOptions::serving()`: streaming, cost planner, grid
//! batching, key-universe store) after two warming passes — column names,
//! then every row in output order, every value in its `Debug` form, folded
//! into one FNV-1a digest per world. The digests were computed with the
//! executor that concatenated every joined row, in this file's first
//! commit.

mod common;

use common::oracle_session;
use galois::core::GaloisOptions;
use galois::dataset::{build_operator_suite, Scenario};

fn fold(hash: &mut u64, text: &str) {
    for byte in text.bytes().chain([0x1f]) {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(seed: u64) -> u64 {
    let scenario = Scenario::generate_scaled(seed, 4);
    let session = oracle_session(&scenario, GaloisOptions::serving());
    let statements: Vec<String> = scenario
        .suite
        .iter()
        .map(|q| q.to_sql())
        .chain(
            build_operator_suite(&scenario.world)
                .into_iter()
                .map(|q| q.sql),
        )
        .collect();
    let mut hash = 0;
    // Two passes warm every store and settle the plans; the third is read.
    for _pass in 0..3 {
        hash = 0xcbf2_9ce4_8422_2325;
        for sql in &statements {
            let relation = session
                .execute(sql)
                .unwrap_or_else(|e| panic!("{sql}: {e}"))
                .relation;
            fold(&mut hash, &format!("{:?}", relation.column_names()));
            for row in &relation.rows {
                fold(&mut hash, &format!("{row:?}"));
            }
        }
    }
    hash
}

#[test]
fn warm_serving_results_match_the_concatenating_executor_row_for_row() {
    for (seed, pinned) in [
        (1, 0x28d1_784c_2c0b_c307u64),
        (7, 0xa41d_6694_88c5_792d),
        (42, 0x681e_c61b_2218_fd2e),
    ] {
        let found = digest(seed);
        assert_eq!(found, pinned, "world {seed} x4: {found:#018x}");
    }
}
