//! [`super::execute`] against [`super::reference`], the executor it
//! replaced, on generated catalogs and plans: the same rows in the same
//! order, or a failure in both.
//!
//! A case is one `u64`: it seeds a private SplitMix64 stream that draws
//! three small tables — `a`, `b`, `c`, each `(id INT KEY, x INT, y FLOAT,
//! t TEXT)` with NULLs, repeated values and `x`/`y` values that are equal
//! across the two types, so hash keys repeat, go missing and mix `Int`
//! with `Float` — and a typed plan over them:
//!
//! * a join core: cross, inner or left outer; no condition, equi keys
//!   (one or two, plain columns or computed), a residual, or both; inputs
//!   that are scans, filtered scans, projections or joins themselves;
//!   tables may be empty;
//! * up to four operators over it, any of `Filter`, a `Project` chain of
//!   depth 1–3 (column permutations, literals, computed expressions —
//!   `x / y` among them, which fails on a zero), `Aggregate` (computed and
//!   plain group keys, `DISTINCT` calls, `COUNT(*)`), `Sort`, `Distinct`,
//!   `Limit`.
//!
//! Expressions are generated typed, so a statement fails because of its
//! data (a division by zero, an overflow) and not because it compares a
//! number with a text. The two executors may meet different errors first
//! — one streams what the other runs operator by operator — so a failure
//! is compared as a failure, rows by their `Debug` form.

use super::{execute, join_algorithm, reference, JoinAlgorithm};
use crate::expr::{ResolvedColumn, ScalarExpr};
use crate::plan::{AggCall, AggFunc, JoinCondition, LogicalPlan, SortKey};
use crate::schema::{Column, PlanColumn, PlanSchema, TableSchema};
use crate::table::{Catalog, Table};
use crate::value::{DataType, Value};
use galois_sql::ast::{BinaryOp, JoinType, SortDirection, UnaryOp};
use proptest::prelude::*;
use std::collections::HashMap;

/// The case's private stream.
struct Gen(u64);

impl Gen {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())].clone()
    }
}

/// A plan and the types of its output columns.
type Typed = (LogicalPlan, Vec<DataType>);

fn catalog(g: &mut Gen) -> Catalog {
    let mut catalog = Catalog::new();
    for name in ["a", "b", "c"] {
        let schema = TableSchema::new(
            vec![
                Column::new("id", DataType::Int),
                Column::nullable("x", DataType::Int),
                Column::nullable("y", DataType::Float),
                Column::nullable("t", DataType::Text),
            ],
            "id",
        )
        .unwrap();
        let mut table = Table::new(name, schema);
        // One table in ten is empty.
        let rows = if g.chance(10) { 0 } else { 2 + g.below(8) };
        for id in 0..rows {
            let x = g.pick(&[None, Some(0), Some(1), Some(1), Some(2), Some(2)]);
            let y = g.pick(&[None, Some(0.0), Some(1.0), Some(2.0), Some(2.0), Some(2.5)]);
            let t = g.pick(&[None, Some("a"), Some("b"), Some("ab"), Some("b")]);
            table
                .insert(vec![
                    Value::Int(id as i64),
                    x.map_or(Value::Null, Value::Int),
                    y.map_or(Value::Null, Value::Float),
                    t.map_or(Value::Null, Value::from),
                ])
                .unwrap();
        }
        catalog.add_table(table).unwrap();
    }
    catalog
}

fn column(index: usize, types: &[DataType]) -> ScalarExpr {
    ScalarExpr::Column(ResolvedColumn {
        index,
        binding: None,
        name: format!("c{index}"),
        data_type: types[index],
    })
}

fn schema_of(types: &[DataType]) -> PlanSchema {
    let column = |(i, t): (usize, &DataType)| PlanColumn::computed(format!("c{i}"), *t);
    PlanSchema::new(types.iter().enumerate().map(column).collect())
}

fn binary(left: ScalarExpr, op: BinaryOp, right: ScalarExpr) -> ScalarExpr {
    ScalarExpr::Binary {
        left: Box::new(left),
        op,
        right: Box::new(right),
    }
}

/// A column of one of `wanted`'s types, if the schema has one.
fn column_typed(g: &mut Gen, types: &[DataType], wanted: &[DataType]) -> Option<ScalarExpr> {
    let fitting: Vec<usize> = (0..types.len())
        .filter(|&i| wanted.contains(&types[i]))
        .collect();
    (!fitting.is_empty()).then(|| column(g.pick(&fitting), types))
}

const NUMERIC: [DataType; 2] = [DataType::Int, DataType::Float];

fn numeric(g: &mut Gen, types: &[DataType], depth: usize) -> ScalarExpr {
    if depth > 0 && g.chance(35) {
        let (l, r) = (numeric(g, types, depth - 1), numeric(g, types, depth - 1));
        let ints = l.data_type() == DataType::Int && r.data_type() == DataType::Int;
        let op = g.pick(&[
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Div,
            if ints { BinaryOp::Mod } else { BinaryOp::Add },
        ]);
        return binary(l, op, r);
    }
    if depth > 0 && g.chance(5) {
        return ScalarExpr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(numeric(g, types, depth - 1)),
        };
    }
    match column_typed(g, types, &NUMERIC) {
        Some(column) if g.chance(75) => column,
        _ => ScalarExpr::Literal(g.pick(&[
            Value::Int(0),
            Value::Int(1),
            Value::Int(2),
            Value::Float(1.0),
            Value::Float(2.5),
            Value::Null,
        ])),
    }
}

fn text(g: &mut Gen, types: &[DataType]) -> ScalarExpr {
    match column_typed(g, types, &[DataType::Text]) {
        Some(column) if g.chance(75) => column,
        _ => ScalarExpr::Literal(g.pick(&["a", "b", "ab"]).into()),
    }
}

fn predicate(g: &mut Gen, types: &[DataType], depth: usize) -> ScalarExpr {
    let comparison = |g: &mut Gen| {
        g.pick(&[
            BinaryOp::Eq,
            BinaryOp::NotEq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
        ])
    };
    match g.below(if depth > 0 { 9 } else { 6 }) {
        0 | 1 => {
            let op = comparison(g);
            binary(numeric(g, types, 1), op, numeric(g, types, 1))
        }
        2 => {
            let op = comparison(g);
            binary(text(g, types), op, text(g, types))
        }
        3 => ScalarExpr::Like {
            expr: Box::new(text(g, types)),
            pattern: Box::new(ScalarExpr::Literal(g.pick(&["a%", "%b", "_b", "%"]).into())),
            negated: g.chance(30),
        },
        4 => ScalarExpr::InList {
            expr: Box::new(numeric(g, types, 1)),
            list: (0..1 + g.below(3)).map(|_| numeric(g, types, 0)).collect(),
            negated: g.chance(30),
        },
        5 => {
            if g.chance(50) {
                ScalarExpr::Between {
                    expr: Box::new(numeric(g, types, 1)),
                    low: Box::new(numeric(g, types, 0)),
                    high: Box::new(numeric(g, types, 0)),
                    negated: g.chance(30),
                }
            } else {
                ScalarExpr::IsNull {
                    expr: Box::new(numeric(g, types, 0)),
                    negated: g.chance(50),
                }
            }
        }
        6 | 7 => {
            let op = g.pick(&[BinaryOp::And, BinaryOp::Or]);
            binary(
                predicate(g, types, depth - 1),
                op,
                predicate(g, types, depth - 1),
            )
        }
        _ => ScalarExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(predicate(g, types, depth - 1)),
        },
    }
}

/// Any computed expression: a number, a text or a truth value.
fn computed(g: &mut Gen, types: &[DataType]) -> ScalarExpr {
    match g.below(4) {
        0 | 1 => numeric(g, types, 2),
        2 => text(g, types),
        _ => predicate(g, types, 1),
    }
}

fn filter(g: &mut Gen, (input, types): Typed) -> Typed {
    let plan = LogicalPlan::Filter {
        input: Box::new(input),
        predicate: predicate(g, &types, 1),
    };
    (plan, types)
}

/// One projection: a permutation-with-repeats of the input's columns (a
/// select list of plain columns, which `exec::composed` reads through), or
/// a list that also holds literals and computed expressions.
fn project(g: &mut Gen, (input, types): Typed) -> Typed {
    let plain = g.chance(40) && !types.is_empty();
    let exprs: Vec<ScalarExpr> = (0..1 + g.below(4))
        .map(|_| {
            if plain || (g.chance(45) && !types.is_empty()) {
                column(g.below(types.len()), &types)
            } else {
                computed(g, &types)
            }
        })
        .collect();
    let out: Vec<DataType> = exprs.iter().map(ScalarExpr::data_type).collect();
    let plan = LogicalPlan::Project {
        input: Box::new(input),
        exprs: (exprs.into_iter().enumerate())
            .map(|(i, e)| (e, format!("c{i}")))
            .collect(),
        schema: schema_of(&out),
    };
    (plan, out)
}

fn aggregate(g: &mut Gen, (input, types): Typed) -> Typed {
    let group_by: Vec<ScalarExpr> = (0..g.below(3))
        .map(|_| {
            if g.chance(70) && !types.is_empty() {
                column(g.below(types.len()), &types)
            } else {
                numeric(g, &types, 1)
            }
        })
        .collect();
    let calls = g.below(4).max(usize::from(group_by.is_empty()));
    let aggregates: Vec<AggCall> = (0..calls)
        .map(|i| {
            let func = g.pick(&[
                AggFunc::Count,
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Min,
                AggFunc::Max,
            ]);
            let arg = match func {
                AggFunc::Count if g.chance(50) => None,
                AggFunc::Sum | AggFunc::Avg => Some(numeric(g, &types, 1)),
                _ if g.chance(50) => Some(text(g, &types)),
                _ => Some(numeric(g, &types, 1)),
            };
            AggCall {
                func,
                distinct: arg.is_some() && g.chance(30),
                arg,
                output_name: format!("agg{i}"),
            }
        })
        .collect();
    let out: Vec<DataType> = (group_by.iter().map(ScalarExpr::data_type))
        .chain(aggregates.iter().map(AggCall::output_type))
        .collect();
    let plan = LogicalPlan::Aggregate {
        input: Box::new(input),
        group_by: (group_by.into_iter().enumerate())
            .map(|(i, e)| (e, format!("g{i}")))
            .collect(),
        aggregates,
        schema: schema_of(&out),
    };
    (plan, out)
}

/// A join's input: a scan, perhaps filtered or projected, or a join.
fn input(g: &mut Gen, catalog: &Catalog, depth: usize) -> Typed {
    if depth > 0 && g.chance(20) {
        return join(g, catalog, depth - 1);
    }
    let table = g.pick(&["a", "b", "c"]);
    let schema = catalog.get(table).unwrap().plan_schema(table);
    let types: Vec<DataType> = schema.columns.iter().map(|c| c.data_type).collect();
    let mut typed = (
        LogicalPlan::Scan {
            table: table.into(),
            binding: table.into(),
            source: None,
            schema,
            key_index: 0,
        },
        types,
    );
    if g.chance(25) {
        typed = filter(g, typed);
    }
    if g.chance(15) {
        typed = project(g, typed);
    }
    typed
}

/// One side of an equi pair: mostly a plain column, sometimes computed.
fn join_key(g: &mut Gen, types: &[DataType], wanted: &[DataType]) -> Option<ScalarExpr> {
    if wanted == NUMERIC && g.chance(20) {
        return Some(numeric(g, types, 1));
    }
    column_typed(g, types, wanted)
}

fn join(g: &mut Gen, catalog: &Catalog, depth: usize) -> Typed {
    let (left, l_types) = input(g, catalog, depth);
    let (right, r_types) = input(g, catalog, depth);
    let types: Vec<DataType> = l_types.iter().chain(&r_types).copied().collect();
    let schema = schema_of(&types);
    let (left, right) = (Box::new(left), Box::new(right));
    if g.chance(10) {
        let plan = LogicalPlan::CrossJoin {
            left,
            right,
            schema,
        };
        return (plan, types);
    }
    let mut equi = Vec::new();
    for _ in 0..g.pick(&[0, 1, 1, 1, 2]) {
        let wanted: &[DataType] = if g.chance(75) {
            &NUMERIC
        } else {
            &[DataType::Text]
        };
        let pair = (join_key(g, &l_types, wanted), join_key(g, &r_types, wanted));
        if let (Some(l), Some(r)) = pair {
            equi.push((l, r));
        }
    }
    let residual = g
        .chance(if equi.is_empty() { 75 } else { 35 })
        .then(|| predicate(g, &types, 1));
    let plan = LogicalPlan::Join {
        left,
        right,
        join_type: g.pick(&[JoinType::Inner, JoinType::LeftOuter]),
        condition: JoinCondition { equi, residual },
        schema,
    };
    (plan, types)
}

/// The whole case: a join core under up to four operators.
fn plan(g: &mut Gen, catalog: &Catalog) -> LogicalPlan {
    let mut typed = join(g, catalog, 1);
    for _ in 0..g.below(5) {
        typed = match g.below(8) {
            0 => filter(g, typed),
            1 | 2 => {
                for _ in 0..1 + g.below(3) {
                    typed = project(g, typed);
                }
                typed
            }
            3 | 4 => aggregate(g, typed),
            5 if !typed.1.is_empty() => {
                let keys = (0..1 + g.below(2))
                    .map(|_| SortKey {
                        index: g.below(typed.1.len()),
                        direction: g.pick(&[SortDirection::Asc, SortDirection::Desc]),
                    })
                    .collect();
                let input = Box::new(typed.0);
                (LogicalPlan::Sort { input, keys }, typed.1)
            }
            6 => {
                let input = Box::new(typed.0);
                (LogicalPlan::Distinct { input }, typed.1)
            }
            _ => {
                let plan = LogicalPlan::Limit {
                    input: Box::new(typed.0),
                    n: g.below(6) as u64,
                    offset: g.below(3) as u64,
                };
                (plan, typed.1)
            }
        };
    }
    typed.0
}

/// Runs one case through both executors: each one's rows in `Debug` form,
/// or `None` where it failed.
fn outcomes(seed: u64) -> (Option<String>, Option<String>, String) {
    let mut g = Gen(seed);
    let catalog = catalog(&mut g);
    let plan = plan(&mut g, &catalog);
    let new = execute(&plan, &catalog)
        .ok()
        .map(|r| format!("{:?}", r.rows));
    let old = reference::execute(&plan, &catalog)
        .ok()
        .map(|rows| format!("{rows:?}"));
    (new, old, plan.explain())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn execute_matches_the_concatenating_executor(seed in any::<u64>()) {
        let (new, old, explain) = outcomes(seed);
        prop_assert_eq!(new, old, "case {}:\n{}", seed, explain);
    }
}

/// The generator is not vacuous: over a fixed run of cases most statements
/// return rows, some return none, and some fail on their data.
#[test]
fn generated_cases_reach_rows_empty_results_and_failures() {
    let (mut rows, mut empty, mut failed) = (0, 0, 0);
    for seed in 0..400 {
        match outcomes(seed).1.as_deref() {
            None => failed += 1,
            Some("[]") => empty += 1,
            Some(_) => rows += 1,
        }
    }
    assert!(
        rows >= 160 && empty >= 20 && failed >= 20,
        "{rows} with rows, {empty} empty, {failed} failed"
    );
}

/// The executor path a join or aggregate node takes, read off its shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Path {
    /// The right input's key index serves the join.
    RightKeyed,
    /// The left input's key index serves the join (the right's cannot).
    LeftKeyed,
    HashJoin,
    NestedLoop,
    GlobalAggregateOverEmpty,
    GlobalAggregateOverRows,
}

/// Whether a join input can be probed through its table's key index: a
/// bare scan of a catalog table, one equi key on its side reading the
/// table's key column, and every key on its side a plain column or a
/// literal — reading those cannot fail, so the rows no probe reaches hide
/// no error.
fn index_joinable<'e>(
    input: &LogicalPlan,
    mut keys: impl Iterator<Item = &'e ScalarExpr>,
    catalog: &Catalog,
) -> bool {
    let LogicalPlan::Scan { table, .. } = input else {
        return false;
    };
    let Ok(table) = catalog.get(table) else {
        return false;
    };
    let (key, arity) = (table.schema.key, table.schema.arity());
    let mut on_key = false;
    let plain = keys.all(|e| match e {
        ScalarExpr::Column(c) => {
            on_key |= c.index == key;
            c.index < arity
        }
        other => matches!(other, ScalarExpr::Literal(_)),
    });
    plain && on_key
}

/// The paths `plan`'s nodes take, counted into `paths`. A join's path is
/// derived here and must be the one [`join_algorithm`] decides.
fn paths(plan: &LogicalPlan, catalog: &Catalog, paths: &mut HashMap<Path, usize>) {
    let path = match plan {
        LogicalPlan::Join {
            left,
            right,
            condition,
            ..
        } => {
            let path = if condition.equi.is_empty() {
                Path::NestedLoop
            } else if index_joinable(right, condition.equi.iter().map(|(_, r)| r), catalog) {
                Path::RightKeyed
            } else if index_joinable(left, condition.equi.iter().map(|(l, _)| l), catalog) {
                Path::LeftKeyed
            } else {
                Path::HashJoin
            };
            let schema_of = |name: &str| catalog.get(name).ok().map(|t| t.schema.as_ref());
            let decided = match join_algorithm(left, right, condition, schema_of) {
                JoinAlgorithm::IndexRight(_) => Path::RightKeyed,
                JoinAlgorithm::IndexLeft(_) => Path::LeftKeyed,
                JoinAlgorithm::Hash => Path::HashJoin,
                JoinAlgorithm::NestedLoop => Path::NestedLoop,
            };
            assert_eq!(decided, path, "{}", plan.explain());
            Some(path)
        }
        LogicalPlan::CrossJoin { .. } => Some(Path::NestedLoop),
        LogicalPlan::Aggregate {
            input, group_by, ..
        } if group_by.is_empty() => match reference::execute(input, catalog) {
            Ok(rows) if rows.is_empty() => Some(Path::GlobalAggregateOverEmpty),
            Ok(_) => Some(Path::GlobalAggregateOverRows),
            Err(_) => None,
        },
        _ => None,
    };
    if let Some(path) = path {
        *paths.entry(path).or_default() += 1;
    }
    for child in plan.children() {
        self::paths(child, catalog, paths);
    }
}

/// The generator reaches every path the executor picks by shape: both
/// orientations of the index join, the hash join, the nested loop, and a
/// global aggregate over no rows and over some. Every join node's path,
/// derived independently, is the one [`join_algorithm`] decides.
#[test]
fn generated_cases_reach_every_join_and_aggregate_path() {
    let mut reached = HashMap::new();
    for seed in 0..400 {
        let mut g = Gen(seed);
        let catalog = catalog(&mut g);
        paths(&plan(&mut g, &catalog), &catalog, &mut reached);
    }
    let mut counts: Vec<_> = reached.iter().collect();
    counts.sort();
    for path in [
        Path::RightKeyed,
        Path::LeftKeyed,
        Path::HashJoin,
        Path::NestedLoop,
        Path::GlobalAggregateOverEmpty,
        Path::GlobalAggregateOverRows,
    ] {
        let n = reached.get(&path).copied().unwrap_or(0);
        assert!(n >= 20, "{path:?} reached {n} times: {counts:?}");
    }
}
