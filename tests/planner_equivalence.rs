//! The planner (PR 3): cells of the contract battery
//! (`tests/common/contract.rs`).
//!
//! 1. **The default** — `Planner::Heuristic` stays the default, whose
//!    readings are pinned; its compiled program is a direct `compile()` of
//!    the optimized plan, and executing either reads the same.
//! 2. **Cost-based result invariance** — `Planner::CostBased` may reshape
//!    the prompt schedule (pushdowns, step order) but never `R_M` on a
//!    noise-free model, and never costs more: over the suite it costs
//!    strictly fewer prompts and less virtual time.

mod common;

use common::contract::{assert_stats_eq, drawn, knob_is_invariant, Cell, Cmp, Contract, Knob};
use common::{oracle_session, small_config};
use galois::core::{compile, Galois, GaloisOptions, Planner};
use galois::dataset::Scenario;
use proptest::prelude::*;

/// `sql`'s heuristic program, as `session` (default options) plans it,
/// is a direct `compile()` of its optimized plan.
fn heuristic_is_direct(session: &Galois, sql: &str) -> compile::CompiledQuery {
    let db = session.database();
    let plan = db.plan(sql).unwrap();
    let direct = compile::compile(&plan, db.catalog(), &session.options().compile).unwrap();
    let chosen = session.plan(sql);
    assert_eq!(chosen.unwrap().compiled, direct, "compiled drift: {sql}");
    direct
}

/// The pre-planner pipeline, reconstructed literally: optimize,
/// `compile()` with the session's options, `execute_compiled`. The
/// session's default path must be indistinguishable from it.
#[test]
fn heuristic_is_bit_identical_to_direct_compilation() {
    for seed in [42u64, 7, 99] {
        let s = Scenario::generate_with(seed, small_config());
        let session = oracle_session(&s, GaloisOptions::default());
        for spec in &s.suite {
            let sql = spec.to_sql();
            let direct = heuristic_is_direct(&session, &sql);
            session.client().clear_cache();
            let a = session.execute_compiled(&direct).unwrap();
            session.client().clear_cache();
            let b = session.execute(&sql).unwrap();
            assert_eq!(a.relation.rows, b.relation.rows, "q{}", spec.id);
            assert_stats_eq(&a.stats, &b.stats, &[], &sql);
        }
    }
}

/// The default session's readings are pinned by `tests/wave_golden.rs`.
#[test]
fn report_tables_are_byte_identical_under_explicit_heuristic() {
    let planner = GaloisOptions::default().planner;
    assert_eq!(
        planner,
        Planner::Heuristic,
        "Heuristic must stay the default"
    );
}

#[test]
fn cost_based_suite_is_cheaper_with_identical_relations() {
    let s = Scenario::generate_with(42, small_config());
    let heuristic = Cell::new(&s, GaloisOptions::default());
    let cost_based = heuristic.with(GaloisOptions {
        planner: Planner::CostBased,
        ..Default::default()
    });
    let cheaper = Contract {
        bill: Some(Cmp::Lt),
        clock: Some(Cmp::Lt),
        ..Contract::R_M
    };
    cheaper.check(&heuristic, &[cost_based]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn planner_invariants_hold_for_any_seed(draw in drawn(false)) {
        let world = draw.world();
        let session = oracle_session(&world, GaloisOptions::default());
        for sql in draw.cell(&world).order.iter().filter(|sql| !sql.contains("DB.")) {
            heuristic_is_direct(&session, sql);
        }
        knob_is_invariant(Knob::Planner, &draw);
    }
}
