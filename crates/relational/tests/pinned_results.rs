//! The executor's results, pinned. Every statement of the evaluation suite
//! and of the operator suite runs on the ground-truth database of worlds
//! {1, 7, 42} × {x1, x4}; each world's results — column names, then every
//! row in output order, every value in its `Debug` form — fold into one
//! FNV-1a digest. The pinned digests were computed with the executor as it
//! was before it borrowed its rows (each scan copied its table), so a
//! change that moves a row, a value or a sign of zero shows here.

use galois_dataset::{build_operator_suite, Scenario};

fn fold(hash: &mut u64, text: &str) {
    for byte in text.bytes().chain([0x1f]) {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(seed: u64, scale: usize) -> u64 {
    let scenario = Scenario::generate_scaled(seed, scale);
    let statements = scenario.suite.iter().map(|q| q.to_sql()).chain(
        build_operator_suite(&scenario.world)
            .into_iter()
            .map(|q| q.sql),
    );
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for sql in statements {
        let relation = scenario
            .database
            .execute(&sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        fold(&mut hash, &format!("{:?}", relation.column_names()));
        for row in &relation.rows {
            fold(&mut hash, &format!("{row:?}"));
        }
    }
    hash
}

#[test]
fn suite_results_match_the_copying_executor_row_for_row() {
    for (seed, scale, pinned) in [
        (1, 1, 0x9017_7aa0_b500_2837u64),
        (1, 4, 0x6628_a10b_e922_2700),
        (7, 1, 0x34eb_2d8b_f987_9d3b),
        (7, 4, 0x1500_adc3_4e7a_698d),
        (42, 1, 0x2ccb_8f1b_5b03_08a5),
        (42, 4, 0x9981_30b8_787d_7fb8),
    ] {
        let found = digest(seed, scale);
        assert_eq!(found, pinned, "world {seed} x{scale}: {found:#018x}");
    }
}
