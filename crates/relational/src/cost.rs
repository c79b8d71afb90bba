//! Cardinality and selectivity estimation over logical plans (paper §6
//! "Query optimization").
//!
//! For Galois the logical plan *is* the chain-of-thought, so plan choice
//! directly determines how many prompts a query costs. This module supplies
//! the relational half of that decision: textbook selectivity factors per
//! predicate shape and a recursive row estimator that reads base-table
//! cardinalities from the catalog (the planner's statistics, exactly like a
//! classical optimizer's table stats). The prompt-aware half — turning row
//! estimates into prompt counts, cache-hit expectations and virtual
//! latency — lives in `galois-core`'s `plan_choice` module, which consumes
//! these numbers.
//!
//! Estimates are deliberately simple and fully deterministic: the planner
//! needs a *ranking* of candidate plans, not ground truth.
//!
//! ```
//! use std::collections::HashMap;
//! use galois_relational::{cost, Column, Database, DataType, Table, TableSchema, Value};
//!
//! let mut db = Database::new();
//! let mut t = Table::new(
//!     "city",
//!     TableSchema::new(
//!         vec![
//!             Column::new("name", DataType::Text),
//!             Column::new("population", DataType::Int),
//!         ],
//!         "name",
//!     )
//!     .unwrap(),
//! );
//! for (name, pop) in [("Rome", 2_800_000), ("Lyon", 500_000)] {
//!     t.insert(vec![name.into(), Value::Int(pop)]).unwrap();
//! }
//! db.add_table(t).unwrap();
//!
//! let plan = db.plan("SELECT name FROM city WHERE population > 1000000").unwrap();
//! // One estimate per plan node, root first.
//! let rows = cost::estimate_rows_preorder(&plan, db.catalog(), &HashMap::new());
//! assert!(rows[0] > 0.0 && rows[0] <= 2.0);
//! // `EXPLAIN`'s relational half: each operator line ends in its estimate.
//! let text = db.explain("SELECT name FROM city WHERE population > 1000000").unwrap();
//! assert!(text.lines().count() >= 2);
//! assert!(text.lines().all(|line| line.ends_with(')') && line.contains("  (rows≈")));
//! ```

use crate::exec::Relation;
use crate::expr::ScalarExpr;
use crate::plan::LogicalPlan;
use crate::schema::{PlanColumn, PlanSchema};
use crate::table::{get_ignore_case, Catalog};
use crate::value::{DataType, Value};
use galois_sql::ast::BinaryOp;
use std::collections::HashMap;
use std::fmt;

/// Selectivity assumed for an equality comparison against a literal.
pub const SEL_EQ: f64 = 0.15;
/// Selectivity assumed for a range comparison (`<`, `<=`, `>`, `>=`).
pub const SEL_RANGE: f64 = 0.35;
/// Selectivity assumed for `BETWEEN`.
pub const SEL_BETWEEN: f64 = 0.30;
/// Selectivity assumed for `LIKE`.
pub const SEL_LIKE: f64 = 0.25;
/// Selectivity assumed for `IS NULL`.
pub const SEL_IS_NULL: f64 = 0.10;
/// Selectivity assumed per `IN`-list member.
pub const SEL_IN_PER_ITEM: f64 = 0.15;
/// Fallback selectivity for predicates with no recognisable shape.
pub(crate) const SEL_DEFAULT: f64 = 0.50;
/// Fallback cardinality for scans of tables the catalog does not know
/// (e.g. not-yet-materialised temporaries in a compiled residual plan).
pub const DEFAULT_SCAN_ROWS: f64 = 100.0;
/// Fraction of input rows assumed to survive as distinct groups in a
/// grouped aggregation.
pub(crate) const GROUP_FRACTION: f64 = 0.25;

/// Estimated fraction of input rows satisfying a predicate, derived purely
/// from the predicate's shape (System-R style constants — the classical
/// default in the absence of histograms).
pub(crate) fn predicate_selectivity(expr: &ScalarExpr) -> f64 {
    let sel = match expr {
        ScalarExpr::Literal(Value::Bool(b)) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        ScalarExpr::Binary { left, op, right } => match op {
            BinaryOp::And => predicate_selectivity(left) * predicate_selectivity(right),
            BinaryOp::Or => {
                let (a, b) = (predicate_selectivity(left), predicate_selectivity(right));
                a + b - a * b
            }
            BinaryOp::Eq => SEL_EQ,
            BinaryOp::NotEq => 1.0 - SEL_EQ,
            BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => SEL_RANGE,
            _ => SEL_DEFAULT,
        },
        ScalarExpr::Unary { op, expr } => match op {
            galois_sql::ast::UnaryOp::Not => 1.0 - predicate_selectivity(expr),
            galois_sql::ast::UnaryOp::Neg => SEL_DEFAULT,
        },
        ScalarExpr::Between { negated, .. } => {
            if *negated {
                1.0 - SEL_BETWEEN
            } else {
                SEL_BETWEEN
            }
        }
        ScalarExpr::InList { list, negated, .. } => {
            let s = (SEL_IN_PER_ITEM * list.len() as f64).min(1.0);
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        ScalarExpr::Like { negated, .. } => {
            if *negated {
                1.0 - SEL_LIKE
            } else {
                SEL_LIKE
            }
        }
        ScalarExpr::IsNull { negated, .. } => {
            if *negated {
                1.0 - SEL_IS_NULL
            } else {
                SEL_IS_NULL
            }
        }
        _ => SEL_DEFAULT,
    };
    sel.clamp(0.0, 1.0)
}

/// Estimated output cardinality of every node of the plan, in pre-order
/// (a node, then its children left to right — the order `EXPLAIN` prints
/// them in), from one bottom-up walk: each node's estimate is computed
/// once, from its children's. Base-table row counts are read from the
/// catalog as the planner's statistics, with per-table cardinality
/// overrides (keyed by lower-cased table name, looked up
/// case-insensitively) taking precedence. The Galois planner uses the
/// overrides to annotate a compiled residual plan whose scans reference
/// not-yet-materialised `__llm_*` temporaries: it knows how many keys it
/// expects each retrieval to produce, and the catalog does not.
pub fn estimate_rows_preorder(
    plan: &LogicalPlan,
    catalog: &Catalog,
    overrides: &HashMap<String, f64>,
) -> Vec<f64> {
    fn walk(
        plan: &LogicalPlan,
        catalog: &Catalog,
        overrides: &HashMap<String, f64>,
        out: &mut Vec<f64>,
    ) -> f64 {
        let slot = out.len();
        out.push(0.0);
        let rows = node_rows(plan, catalog, overrides, |input| {
            walk(input, catalog, overrides, out)
        });
        out[slot] = rows;
        rows
    }
    let mut out = Vec::new();
    walk(plan, catalog, overrides, &mut out);
    out
}

/// One node's estimate, given `input_rows`, which estimates a child. It is
/// called on every child exactly once, left before right, so a walk that
/// records what it returns sees each node in pre-order.
fn node_rows(
    plan: &LogicalPlan,
    catalog: &Catalog,
    overrides: &HashMap<String, f64>,
    mut input_rows: impl FnMut(&LogicalPlan) -> f64,
) -> f64 {
    match plan {
        // The unnamed scan is the one-row "dual" of a statement without FROM.
        LogicalPlan::Scan { table, .. } if table.is_empty() => 1.0,
        LogicalPlan::Scan { table, .. } => get_ignore_case(overrides, table)
            .copied()
            .or_else(|| catalog.get(table).ok().map(|t| t.len() as f64))
            .unwrap_or(DEFAULT_SCAN_ROWS),
        LogicalPlan::Filter { input, predicate } => {
            input_rows(input) * predicate_selectivity(predicate)
        }
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Distinct { input } => input_rows(input),
        LogicalPlan::Join {
            left,
            right,
            condition,
            ..
        } => {
            let l = input_rows(left);
            let r = input_rows(right);
            // Classic equi-join estimate: |L|·|R| / max(|L|, |R|) assumes
            // the join key is (close to) a key of the larger side — the
            // shape of every suite join. A residual shrinks it further.
            let mut rows = if condition.equi.is_empty() {
                l * r
            } else {
                l * r / l.max(r).max(1.0)
            };
            if let Some(resid) = &condition.residual {
                rows *= predicate_selectivity(resid);
            }
            rows
        }
        LogicalPlan::CrossJoin { left, right, .. } => input_rows(left) * input_rows(right),
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => {
            let rows = input_rows(input);
            if group_by.is_empty() {
                1.0
            } else {
                (rows * GROUP_FRACTION).max(1.0)
            }
        }
        // The window skips `offset` rows, then keeps up to `n`.
        LogicalPlan::Limit { input, n, offset } => {
            (input_rows(input) - *offset as f64).max(0.0).min(*n as f64)
        }
    }
}

/// Renders the plan tree with a `(rows≈N)` estimate appended to every
/// operator line — the relational half of the `EXPLAIN` output.
pub(crate) fn explain_with_rows(plan: &LogicalPlan, catalog: &Catalog) -> String {
    let mut out = String::new();
    let rows = estimate_rows_preorder(plan, catalog, &HashMap::new());
    explain_with_rows_into(plan, &rows, &mut out);
    out
}

/// Appends the plan tree to `out`, each operator line ending in
/// `  (rows≈N)` with `N` read from `rows`, the plan's estimates in
/// pre-order ([`estimate_rows_preorder`]).
pub fn explain_with_rows_into(plan: &LogicalPlan, rows: &[f64], out: &mut String) {
    let mut rows = rows.iter();
    plan.explain_into(out, 0, &mut |out| {
        if let Some(&r) = rows.next() {
            // Writing to a `String` cannot fail.
            out.push_str("  (rows≈");
            let _ = write_rounded(out, r);
            out.push(')');
        }
    });
}

/// Writes `x` exactly as `write!(out, "{x:.0}")` would, without the
/// float formatter: the estimates of an `EXPLAIN` report are mostly
/// integral, and `{:.0}` of an integral `f64` takes the formatter's slow
/// exact path. A finite `x` under 2⁵³ in magnitude rounds half to even,
/// as `{:.0}` does, and prints as an integer (`-0` when a negative `x`
/// rounds to zero); anything else goes to the formatter.
pub fn write_estimate<W: fmt::Write + ?Sized>(out: &mut W, x: f64) -> fmt::Result {
    match small_integer(x.round_ties_even()) {
        Some(n) => write_integer(out, n),
        None => write!(out, "{x:.0}"),
    }
}

/// Writes `x.round()` exactly as `write!(out, "{}", x.round())` would —
/// the `(rows≈N)` form, which rounds half away from zero — with the
/// integer path of [`write_estimate`].
pub fn write_rounded<W: fmt::Write + ?Sized>(out: &mut W, x: f64) -> fmt::Result {
    let r = x.round();
    match small_integer(r) {
        Some(n) => write_integer(out, n),
        None => write!(out, "{r}"),
    }
}

/// An estimate that displays as `{:.0}` of it does, through
/// [`write_estimate`]: `format!("{}", Estimate(x)) == format!("{x:.0}")`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate(pub f64);

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_estimate(f, self.0)
    }
}

/// `r`, an integral value, when an `i64` holds it exactly (magnitude under
/// 2⁵³), with the sign of a negative zero kept; `None` for NaN, ±∞ and
/// larger values.
fn small_integer(r: f64) -> Option<(bool, i64)> {
    const EXACT: f64 = (1u64 << f64::MANTISSA_DIGITS) as f64;
    (r.abs() < EXACT).then(|| (r == 0.0 && r.is_sign_negative(), r as i64))
}

/// Writes what [`small_integer`] returned: `-0` for a negative zero, else
/// the integer.
fn write_integer<W: fmt::Write + ?Sized>(
    out: &mut W,
    (negative_zero, n): (bool, i64),
) -> fmt::Result {
    if negative_zero {
        out.write_str("-0")
    } else {
        write!(out, "{n}")
    }
}

/// Packages explain text as a one-column relation (`QUERY PLAN`, one row
/// per line), the way interactive databases surface `EXPLAIN` output
/// through the ordinary result channel.
pub fn explain_relation(text: &str) -> Relation {
    let schema = PlanSchema::new(vec![PlanColumn::computed("QUERY PLAN", DataType::Text)]);
    Relation {
        schema,
        rows: text
            .lines()
            .map(|line| vec![Value::Text(line.to_string())])
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Database;
    use crate::schema::{Column, TableSchema};
    use crate::table::Table;
    use proptest::prelude::*;

    fn db_with_city(rows: usize) -> Database {
        let mut db = Database::new();
        let mut t = Table::new(
            "city",
            TableSchema::new(
                vec![
                    Column::new("name", DataType::Text),
                    Column::new("country", DataType::Text),
                    Column::new("population", DataType::Int),
                ],
                "name",
            )
            .unwrap(),
        );
        for i in 0..rows {
            t.insert(vec![
                Value::Text(format!("c{i}")),
                Value::Text(format!("k{}", i % 3)),
                Value::Int(i as i64 * 1000),
            ])
            .unwrap();
        }
        db.add_table(t).unwrap();
        db
    }

    /// Estimated output cardinality of one plan node, recomputing its whole
    /// subtree: the per-node reference [`estimate_rows_preorder`] is checked
    /// against.
    fn estimate_rows_with(
        plan: &LogicalPlan,
        catalog: &Catalog,
        overrides: &HashMap<String, f64>,
    ) -> f64 {
        node_rows(plan, catalog, overrides, |input| {
            estimate_rows_with(input, catalog, overrides)
        })
    }

    fn estimate_rows(plan: &LogicalPlan, catalog: &Catalog) -> f64 {
        estimate_rows_with(plan, catalog, &HashMap::new())
    }

    #[test]
    fn scan_estimate_reads_catalog_stats() {
        let db = db_with_city(40);
        let plan = db.plan("SELECT name FROM city").unwrap();
        assert_eq!(estimate_rows(&plan, db.catalog()), 40.0);
    }

    #[test]
    fn filters_shrink_estimates_monotonically() {
        let db = db_with_city(40);
        let all = db.plan("SELECT name FROM city").unwrap();
        let one = db
            .plan("SELECT name FROM city WHERE population > 5")
            .unwrap();
        let two = db
            .plan("SELECT name FROM city WHERE population > 5 AND country = 'k0'")
            .unwrap();
        let r0 = estimate_rows(&all, db.catalog());
        let r1 = estimate_rows(&one, db.catalog());
        let r2 = estimate_rows(&two, db.catalog());
        assert!(r0 > r1 && r1 > r2, "{r0} {r1} {r2}");
        assert!(r2 > 0.0);
    }

    #[test]
    fn selectivity_shapes_are_ordered_sanely() {
        // OR combines as s1 + s2 − s1·s2 (less selective than either AND'd).
        let db = db_with_city(10);
        let plan = db
            .plan("SELECT name FROM city WHERE population > 5 OR country = 'k0'")
            .unwrap();
        let LogicalPlan::Project { input, .. } = &plan else {
            panic!("{}", plan.explain())
        };
        let LogicalPlan::Filter { predicate, .. } = input.as_ref() else {
            panic!("{}", plan.explain())
        };
        let s_or = predicate_selectivity(predicate);
        assert!((s_or - (SEL_RANGE + SEL_EQ - SEL_RANGE * SEL_EQ)).abs() < 1e-12);
    }

    #[test]
    fn unknown_scan_falls_back() {
        let db = db_with_city(5);
        let plan = db.plan("SELECT name FROM city").unwrap();
        // Re-point the scan at a name the catalog does not know.
        let LogicalPlan::Project { input, .. } = plan else {
            panic!()
        };
        let LogicalPlan::Scan {
            binding,
            schema,
            key_index,
            source,
            ..
        } = *input
        else {
            panic!()
        };
        let orphan = LogicalPlan::Scan {
            table: "__llm_missing".into(),
            binding,
            schema,
            key_index,
            source,
        };
        assert_eq!(estimate_rows(&orphan, db.catalog()), DEFAULT_SCAN_ROWS);
    }

    #[test]
    fn aggregate_and_limit_estimates() {
        let db = db_with_city(40);
        let global = db.plan("SELECT COUNT(*) FROM city").unwrap();
        assert_eq!(estimate_rows(&global, db.catalog()), 1.0);
        let grouped = db
            .plan("SELECT country, COUNT(*) FROM city GROUP BY country")
            .unwrap();
        let g = estimate_rows(&grouped, db.catalog());
        assert!((1.0..=40.0).contains(&g));
        let limited = db.plan("SELECT name FROM city LIMIT 3").unwrap();
        assert_eq!(estimate_rows(&limited, db.catalog()), 3.0);
    }

    #[test]
    fn limit_estimate_skips_the_offset_first() {
        let db = db_with_city(40);
        let rows = |sql: &str| estimate_rows(&db.plan(sql).unwrap(), db.catalog());
        assert_eq!(rows("SELECT name FROM city LIMIT 3 OFFSET 30"), 3.0);
        assert_eq!(rows("SELECT name FROM city LIMIT 30 OFFSET 35"), 5.0);
        // An offset past the input leaves no rows.
        assert_eq!(rows("SELECT name FROM city LIMIT 3 OFFSET 50"), 0.0);
    }

    #[test]
    fn join_estimate_is_bounded_by_cross_product() {
        let mut db = db_with_city(12);
        let mut country = Table::new(
            "country",
            TableSchema::new(vec![Column::new("name", DataType::Text)], "name").unwrap(),
        );
        for i in 0..3 {
            country.insert(vec![Value::Text(format!("k{i}"))]).unwrap();
        }
        db.add_table(country).unwrap();
        let plan = db
            .plan("SELECT c.name FROM city c, country k WHERE c.country = k.name")
            .unwrap();
        let rows = estimate_rows(&plan, db.catalog());
        assert!((1.0..=36.0).contains(&rows), "{rows}");
    }

    #[test]
    fn explain_with_rows_annotates_every_operator() {
        let db = db_with_city(40);
        let plan = db
            .plan("SELECT name FROM city WHERE population > 5")
            .unwrap();
        let text = explain_with_rows(&plan, db.catalog());
        for line in text.lines() {
            assert!(line.contains("(rows≈"), "unannotated line: {line}");
        }
        // Plain explain stays annotation-free.
        assert!(!plan.explain().contains("rows≈"));
    }

    #[test]
    fn explain_relation_is_one_text_column() {
        let rel = explain_relation("a\nb\nc");
        assert_eq!(rel.schema.arity(), 1);
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.rows[1][0].render(), "b");
    }

    /// Every node of `plan`, in pre-order.
    fn preorder<'p>(plan: &'p LogicalPlan, out: &mut Vec<&'p LogicalPlan>) {
        out.push(plan);
        for child in plan.children() {
            preorder(child, out);
        }
    }

    /// `write_estimate` against `format!("{:.0}")` and `write_rounded`
    /// against `format!("{}", x.round())`, on 10⁶ values from one seeded
    /// generator: random bit patterns, `k + 0.5` ties, values within a few
    /// ulps of ±2⁵³, small fractions around zero, ±0, NaN and ±∞.
    #[test]
    fn estimates_print_as_the_float_formatter_prints_them() {
        const EXACT: f64 = (1u64 << 53) as f64;
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let special = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            EXACT,
            -EXACT,
            EXACT - 1.0,
            -(EXACT - 1.0),
            EXACT / 2.0 - 0.5,
            -(EXACT / 2.0 - 0.5),
            EXACT.next_up(),
            EXACT.next_down(),
            (-EXACT).next_up(),
            (-EXACT).next_down(),
        ];
        let cases = (0..1_000_000usize).map(|i| {
            let r = next();
            match i % 6 {
                _ if i < special.len() => special[i],
                0 => f64::from_bits(r),
                // A tie: an integer below 2⁵² plus one half, either sign.
                1 => ((r >> 12) as i64 as f64 + 0.5) * if r & 1 == 0 { 1.0 } else { -1.0 },
                // A few ulps either side of ±2⁵³.
                2 => {
                    let x = (0..r % 8).fold(EXACT, |x, _| {
                        if r & 8 == 0 {
                            x.next_up()
                        } else {
                            x.next_down()
                        }
                    });
                    if r & 16 == 0 {
                        x
                    } else {
                        -x
                    }
                }
                // A fraction within ±4, where rounding to ±0 lives.
                3 => (r as i64 as f64) / (i64::MAX as f64) * 4.0,
                // An estimate-sized value: an integer under 10⁶ or a
                // fraction of one.
                4 => (r % 1_000_000) as f64 / if r & 1 == 0 { 1.0 } else { 7.0 },
                _ => f64::from_bits(r & !(0x7ff << 52) | (((r >> 52) % 64 + 1023) << 52)),
            }
        });
        let (mut estimate, mut rounded) = (String::new(), String::new());
        for x in cases {
            estimate.clear();
            rounded.clear();
            write_estimate(&mut estimate, x).unwrap();
            write_rounded(&mut rounded, x).unwrap();
            assert_eq!(estimate, format!("{x:.0}"), "{:#x}", x.to_bits());
            assert_eq!(Estimate(x).to_string(), estimate, "{:#x}", x.to_bits());
            assert_eq!(rounded, format!("{}", x.round()), "{:#x}", x.to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On generated plans, as built and as optimized, with and without
        /// an override: the one-walk estimates are `estimate_rows_with` of
        /// each node, in pre-order, to the bit.
        #[test]
        fn preorder_walk_matches_estimate_rows_with_per_node(
            seed in any::<u64>(),
            filter_over_core in any::<bool>(),
            override_b in any::<bool>(),
        ) {
            let (catalog, plan) = crate::exec::differential::case(seed, filter_over_core);
            let overrides: HashMap<String, f64> =
                override_b.then(|| ("b".to_string(), 3.5)).into_iter().collect();
            for plan in [plan.clone(), crate::optimizer::optimize(plan)] {
                let mut nodes = Vec::new();
                preorder(&plan, &mut nodes);
                let walked: Vec<u64> = estimate_rows_preorder(&plan, &catalog, &overrides)
                    .iter()
                    .map(|r| r.to_bits())
                    .collect();
                let each: Vec<u64> = nodes
                    .iter()
                    .map(|node| estimate_rows_with(node, &catalog, &overrides).to_bits())
                    .collect();
                prop_assert_eq!(walked, each, "case {}:\n{}", seed, plan.explain());
            }
        }
    }
}
