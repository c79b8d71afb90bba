//! Physical execution of logical plans over the in-memory catalog.
//!
//! Execution is operator-at-a-time with materialised intermediates: each
//! node consumes its children's rows and produces its own, and rows stay
//! borrowed from the catalog until an operator builds new ones. Joins hash
//! on equi keys when available and fall back to nested loops; aggregation
//! is hash-based with optional per-group DISTINCT sets.

use crate::error::{EngineError, Result};
use crate::expr::ScalarExpr;
use crate::plan::{AggCall, AggFunc, JoinCondition, LogicalPlan, SortKey};
use crate::schema::PlanSchema;
use crate::table::{Catalog, Row};
use crate::value::Value;
use galois_sql::ast::{JoinType, SortDirection};
use std::borrow::{Borrow, Cow};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A materialised query result: schema plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    /// Output schema.
    pub schema: PlanSchema,
    /// Output rows.
    pub rows: Vec<Row>,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: PlanSchema) -> Self {
        Relation {
            schema,
            rows: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<String> {
        self.schema.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Renders an ASCII table (for examples and demos).
    pub fn to_table_string(&self) -> String {
        let headers = self.column_names();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::render).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let sep = |widths: &[usize]| {
            let mut s = String::from("+");
            for w in widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s.push('\n');
            s
        };
        let mut out = sep(&widths);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:<w$} |"));
        }
        out.push('\n');
        out.push_str(&sep(&widths));
        for row in &rendered {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        out.push_str(&sep(&widths));
        out.push_str(&format!(
            "{} row{}\n",
            self.rows.len(),
            if self.rows.len() == 1 { "" } else { "s" }
        ));
        out
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table_string())
    }
}

/// Executes `plan` against `catalog`.
///
/// Operators pass rows *borrowed* from the catalog's tables: a scan copies
/// nothing, a filter, sort, distinct or limit moves references, and a row
/// is only built — or, for a borrowed row that reaches the result, cloned
/// — where an operator creates one (projection, join, aggregation) or the
/// result takes ownership.
pub fn execute(plan: &LogicalPlan, catalog: &Catalog) -> Result<Relation> {
    Ok(Relation {
        schema: plan.schema(),
        rows: run(plan, catalog)?
            .into_iter()
            .map(Cow::into_owned)
            .collect(),
    })
}

/// Rows between operators: borrowed from a stored table until an operator
/// builds new ones.
type Rows<'a> = Vec<Cow<'a, Row>>;

fn run<'a>(plan: &LogicalPlan, catalog: &'a Catalog) -> Result<Rows<'a>> {
    match plan {
        LogicalPlan::Scan { table, .. } => {
            if table.is_empty() {
                // "dual": one empty row feeding table-less SELECTs.
                return Ok(vec![Cow::Owned(Vec::new())]);
            }
            Ok(catalog
                .get(table)?
                .rows()
                .iter()
                .map(Cow::Borrowed)
                .collect())
        }
        LogicalPlan::Filter { input, predicate } => {
            let input = run(input, catalog)?;
            let mut rows = Vec::with_capacity(input.len() / 2);
            for row in input {
                if predicate.eval_predicate(&row)? {
                    rows.push(row);
                }
            }
            Ok(rows)
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let input = run(input, catalog)?;
            let mut rows = Vec::with_capacity(input.len());
            for row in &input {
                let mut out = Vec::with_capacity(exprs.len());
                for (e, _) in exprs {
                    out.push(e.eval(row)?);
                }
                rows.push(Cow::Owned(out));
            }
            Ok(rows)
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            condition,
            ..
        } => {
            let l = run(left, catalog)?;
            let r = run(right, catalog)?;
            // Only an outer join pads, so only it needs the right arity.
            let right_arity = match join_type {
                JoinType::LeftOuter => right.schema().arity(),
                _ => 0,
            };
            join(&l, &r, *join_type, condition, right_arity)
        }
        LogicalPlan::CrossJoin { left, right, .. } => {
            let l = run(left, catalog)?;
            let r = run(right, catalog)?;
            let mut rows = Vec::with_capacity(l.len() * r.len());
            for lr in &l {
                for rr in &r {
                    rows.push(Cow::Owned(concat(lr, rr)));
                }
            }
            Ok(rows)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
            ..
        } => aggregate(&run(input, catalog)?, group_by, aggregates),
        LogicalPlan::Sort { input, keys } => {
            let mut rows = run(input, catalog)?;
            sort_rows(&mut rows, keys);
            Ok(rows)
        }
        LogicalPlan::Distinct { input } => {
            let rows = run(input, catalog)?;
            // The set borrows the rows it has seen, so it is built and
            // dropped before the first occurrences move out.
            let mut seen: HashSet<&Row> = HashSet::with_capacity(rows.len());
            let first: Vec<bool> = rows.iter().map(|row| seen.insert(row)).collect();
            drop(seen);
            Ok(rows
                .into_iter()
                .zip(first)
                .filter_map(|(row, first)| first.then_some(row))
                .collect())
        }
        LogicalPlan::Limit { input, n, offset } => {
            let mut rows = run(input, catalog)?;
            if *offset > 0 {
                rows.drain(..(*offset as usize).min(rows.len()));
            }
            rows.truncate(*n as usize);
            Ok(rows)
        }
    }
}

/// Sorts rows — owned, or borrowed by the executor — in place by the given
/// keys (stable, NULLs first).
pub fn sort_rows<R: Borrow<Row>>(rows: &mut [R], keys: &[SortKey]) {
    rows.sort_by(|a, b| {
        let (a, b) = (a.borrow(), b.borrow());
        for k in keys {
            let ord = a[k.index].total_cmp(&b[k.index]);
            let ord = if k.direction == SortDirection::Desc {
                ord.reverse()
            } else {
                ord
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// A join's output row: the left row's values, then the right's.
fn concat(left: &[Value], right: &[Value]) -> Row {
    let mut row = Vec::with_capacity(left.len() + right.len());
    row.extend_from_slice(left);
    row.extend_from_slice(right);
    row
}

/// Joins two row sets. `right_arity` is the NULL padding of an unmatched
/// left row (read only by [`JoinType::LeftOuter`]).
fn join<'a>(
    l: &[Cow<'_, Row>],
    r: &[Cow<'_, Row>],
    join_type: JoinType,
    condition: &JoinCondition,
    right_arity: usize,
) -> Result<Rows<'a>> {
    let mut rows = Vec::new();
    let passes = |row: &Row| match &condition.residual {
        Some(p) => p.eval_predicate(row),
        None => Ok(true),
    };
    let padded = |lr: &Row| {
        let mut row = Vec::with_capacity(lr.len() + right_arity);
        row.extend_from_slice(lr);
        row.extend(std::iter::repeat_n(Value::Null, right_arity));
        Cow::Owned(row)
    };
    if condition.equi.is_empty() {
        // Nested loop with the residual predicate.
        for lr in l {
            let mut matched = false;
            for rr in r {
                let row = concat(lr, rr);
                if passes(&row)? {
                    matched = true;
                    rows.push(Cow::Owned(row));
                }
            }
            if !matched && join_type == JoinType::LeftOuter {
                rows.push(padded(lr));
            }
        }
    } else {
        // Hash join: build on the right, probe from the left. Keys that
        // are plain columns are hashed and compared where they lie.
        let mut table: HashMap<Vec<Cow<'_, Value>>, Vec<usize>> = HashMap::with_capacity(r.len());
        let mut key = Vec::with_capacity(condition.equi.len());
        for (i, rr) in r.iter().enumerate() {
            key.clear();
            for (_, rk) in &condition.equi {
                key.push(rk.eval_ref(rr)?);
            }
            if key.iter().any(|v| v.is_null()) {
                continue;
            }
            match table.get_mut(&key) {
                Some(candidates) => candidates.push(i),
                None => {
                    table.insert(std::mem::take(&mut key), vec![i]);
                }
            }
        }
        for lr in l {
            key.clear();
            for (lk, _) in &condition.equi {
                key.push(lk.eval_ref(lr)?);
            }
            let mut matched = false;
            if !key.iter().any(|v| v.is_null()) {
                if let Some(candidates) = table.get(&key) {
                    for &i in candidates {
                        let row = concat(lr, &r[i]);
                        if passes(&row)? {
                            matched = true;
                            rows.push(Cow::Owned(row));
                        }
                    }
                }
            }
            if !matched && join_type == JoinType::LeftOuter {
                rows.push(padded(lr));
            }
        }
    }
    Ok(rows)
}

/// Accumulator for one aggregate call in one group.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    SumInt(Option<i64>),
    SumFloat(Option<f64>),
    Avg { sum: f64, n: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(call: &AggCall) -> AggState {
        match call.func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => match call.output_type() {
                crate::value::DataType::Float => AggState::SumFloat(None),
                _ => AggState::SumInt(None),
            },
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match self {
            AggState::Count(n) => *n += 1,
            AggState::SumInt(acc) => {
                let Value::Int(i) = v else {
                    return Err(EngineError::TypeMismatch(format!(
                        "SUM expected INT, got {}",
                        v.render()
                    )));
                };
                let cur = acc.unwrap_or(0);
                *acc = Some(
                    cur.checked_add(*i)
                        .ok_or_else(|| EngineError::Evaluation("SUM overflow".into()))?,
                );
            }
            AggState::SumFloat(acc) => {
                let f = v.as_f64().ok_or_else(|| {
                    EngineError::TypeMismatch(format!("SUM expected number, got {}", v.render()))
                })?;
                *acc = Some(acc.unwrap_or(0.0) + f);
            }
            AggState::Avg { sum, n } => {
                let f = v.as_f64().ok_or_else(|| {
                    EngineError::TypeMismatch(format!("AVG expected number, got {}", v.render()))
                })?;
                *sum += f;
                *n += 1;
            }
            AggState::Min(acc) => {
                let better = match acc {
                    None => true,
                    Some(cur) => v.total_cmp(cur) == std::cmp::Ordering::Less,
                };
                if better {
                    *acc = Some(v.clone());
                }
            }
            AggState::Max(acc) => {
                let better = match acc {
                    None => true,
                    Some(cur) => v.total_cmp(cur) == std::cmp::Ordering::Greater,
                };
                if better {
                    *acc = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::SumInt(acc) => acc.map(Value::Int).unwrap_or(Value::Null),
            AggState::SumFloat(acc) => acc.map(Value::Float).unwrap_or(Value::Null),
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            AggState::Min(acc) | AggState::Max(acc) => acc.unwrap_or(Value::Null),
        }
    }
}

struct GroupAcc {
    states: Vec<AggState>,
    distinct_seen: Vec<Option<HashSet<Value>>>,
}

fn aggregate<'a>(
    input: &[Cow<'_, Row>],
    group_by: &[(ScalarExpr, String)],
    aggregates: &[AggCall],
) -> Result<Rows<'a>> {
    let new_group = || GroupAcc {
        states: aggregates.iter().map(AggState::new).collect(),
        distinct_seen: aggregates
            .iter()
            .map(|a| {
                if a.distinct {
                    Some(HashSet::new())
                } else {
                    None
                }
            })
            .collect(),
    };

    // Keyed accumulation, groups in the order they first appear. Keys that
    // are plain columns are hashed and compared where they lie; a key is
    // copied once, into its group's output row.
    let mut ordinals: HashMap<Vec<Cow<'_, Value>>, usize> = HashMap::new();
    let mut groups: Vec<GroupAcc> = Vec::new();
    let mut key = Vec::with_capacity(group_by.len());

    for row in input {
        key.clear();
        for (g, _) in group_by {
            key.push(g.eval_ref(row)?);
        }
        let ordinal = match ordinals.get(&key) {
            Some(&ordinal) => ordinal,
            None => {
                groups.push(new_group());
                ordinals.insert(std::mem::take(&mut key), groups.len() - 1);
                groups.len() - 1
            }
        };
        let acc = &mut groups[ordinal];
        for (i, call) in aggregates.iter().enumerate() {
            let v = match &call.arg {
                Some(e) => e.eval(row)?,
                None => Value::Int(1), // COUNT(*): any non-null marker
            };
            if let Some(seen) = &mut acc.distinct_seen[i] {
                if v.is_null() || !seen.insert(v.clone()) {
                    continue;
                }
            }
            acc.states[i].update(&v)?;
        }
    }

    // A global aggregate (no GROUP BY) over empty input yields one row.
    if group_by.is_empty() && groups.is_empty() {
        groups.push(new_group());
        ordinals.insert(Vec::new(), 0);
    }

    let mut keys: Vec<Vec<Cow<'_, Value>>> = vec![Vec::new(); groups.len()];
    for (key, ordinal) in ordinals {
        keys[ordinal] = key;
    }
    Ok(keys
        .into_iter()
        .zip(groups)
        .map(|(key, acc)| {
            let mut row = Vec::with_capacity(key.len() + acc.states.len());
            row.extend(key.into_iter().map(Cow::into_owned));
            row.extend(acc.states.into_iter().map(AggState::finish));
            Cow::Owned(row)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ResolvedColumn;
    use crate::schema::{Column, PlanColumn, TableSchema};
    use crate::table::Table;
    use crate::value::DataType;

    fn rel(names: &[&str], rows: Vec<Row>) -> Relation {
        Relation {
            schema: PlanSchema::new(
                names
                    .iter()
                    .map(|n| PlanColumn::computed(*n, DataType::Int))
                    .collect(),
            ),
            rows,
        }
    }

    /// Rows as the executor passes them when they come from a table.
    fn borrowed(rows: &[Row]) -> Rows<'_> {
        rows.iter().map(Cow::Borrowed).collect()
    }

    fn owned(rows: Rows<'_>) -> Vec<Row> {
        rows.into_iter().map(Cow::into_owned).collect()
    }

    fn ints(rows: &[&[i64]]) -> Vec<Row> {
        rows.iter()
            .map(|r| r.iter().map(|&i| Value::Int(i)).collect())
            .collect()
    }

    fn colx(i: usize) -> ScalarExpr {
        ScalarExpr::Column(ResolvedColumn {
            index: i,
            binding: None,
            name: format!("c{i}"),
            data_type: DataType::Int,
        })
    }

    fn on_first_columns() -> JoinCondition {
        JoinCondition {
            equi: vec![(colx(0), colx(0))],
            residual: None,
        }
    }

    #[test]
    fn hash_join_drops_null_keys() {
        let l = vec![vec![Value::Int(1)], vec![Value::Null]];
        let r = vec![vec![Value::Int(1)], vec![Value::Null]];
        let out = join(
            &borrowed(&l),
            &borrowed(&r),
            JoinType::Inner,
            &on_first_columns(),
            0,
        )
        .unwrap();
        // NULL = NULL is unknown, so only the (1,1) pair joins.
        assert_eq!(owned(out), ints(&[&[1, 1]]));
    }

    #[test]
    fn left_outer_join_pads_with_nulls() {
        let l = ints(&[&[1], &[2]]);
        let r = ints(&[&[1, 10]]);
        let out = join(
            &borrowed(&l),
            &borrowed(&r),
            JoinType::LeftOuter,
            &on_first_columns(),
            2,
        )
        .unwrap();
        assert_eq!(
            owned(out),
            vec![
                vec![Value::Int(1), Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Null, Value::Null],
            ]
        );
        // The inputs were read, not consumed.
        assert_eq!(l, ints(&[&[1], &[2]]));
        assert_eq!(r, ints(&[&[1, 10]]));
    }

    #[test]
    fn nested_loop_join_with_residual() {
        let l = ints(&[&[1], &[5]]);
        let r = ints(&[&[3]]);
        // ON a < b — no equi component.
        let cond = JoinCondition {
            equi: vec![],
            residual: Some(ScalarExpr::Binary {
                left: Box::new(colx(0)),
                op: galois_sql::ast::BinaryOp::Lt,
                right: Box::new(colx(1)),
            }),
        };
        let out = join(&borrowed(&l), &borrowed(&r), JoinType::Inner, &cond, 0).unwrap();
        assert_eq!(owned(out), ints(&[&[1, 3]]));
    }

    #[test]
    fn sort_rows_null_first_and_desc() {
        let desc = [SortKey {
            index: 0,
            direction: SortDirection::Desc,
        }];
        let mut rows = vec![vec![Value::Int(2)], vec![Value::Null], vec![Value::Int(1)]];
        let sorted = vec![vec![Value::Int(2)], vec![Value::Int(1)], vec![Value::Null]];
        // Borrowed rows sort by reference; the rows themselves stay put.
        let mut refs = borrowed(&rows);
        sort_rows(&mut refs, &desc);
        assert_eq!(owned(refs), sorted);
        assert_eq!(rows[1], vec![Value::Null]);
        sort_rows(&mut rows, &desc);
        assert_eq!(rows, sorted);
    }

    /// A one-table catalog: `t(k INT KEY, v INT)` holding `rows`.
    fn catalog_of(rows: &[&[i64]]) -> Catalog {
        let schema = TableSchema::new(
            vec![
                Column::new("k", DataType::Int),
                Column::nullable("v", DataType::Int),
            ],
            "k",
        )
        .unwrap();
        let mut table = Table::new("t", schema);
        for row in ints(rows) {
            table.insert(row).unwrap();
        }
        let mut catalog = Catalog::new();
        catalog.add_table(table).unwrap();
        catalog
    }

    fn scan_t(catalog: &Catalog) -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".into(),
            binding: "t".into(),
            source: None,
            schema: catalog.get("t").unwrap().plan_schema("t"),
            key_index: 0,
        }
    }

    #[test]
    fn sort_distinct_and_limit_pass_borrowed_rows_through() {
        let catalog = catalog_of(&[&[3, 1], &[1, 2], &[2, 1], &[4, 2]]);
        let shared = catalog.clone();
        let by_v_desc = LogicalPlan::Sort {
            input: Box::new(scan_t(&catalog)),
            keys: vec![SortKey {
                index: 1,
                direction: SortDirection::Desc,
            }],
        };
        // No operator below the result builds a row: every one is still
        // the table's own when `execute` takes ownership.
        let rows = run(&by_v_desc, &catalog).unwrap();
        assert!(rows.iter().all(|r| matches!(r, Cow::Borrowed(_))));
        // Stable: ties keep table order.
        assert_eq!(owned(rows), ints(&[&[1, 2], &[4, 2], &[3, 1], &[2, 1]]));

        let window = LogicalPlan::Limit {
            input: Box::new(by_v_desc),
            n: 2,
            offset: 1,
        };
        let out = execute(&window, &catalog).unwrap();
        assert_eq!(out.rows, ints(&[&[4, 2], &[3, 1]]));
        assert_eq!(out.schema, scan_t(&catalog).schema());

        // DISTINCT over a projection of `v`: first occurrences, in order.
        let distinct = LogicalPlan::Distinct {
            input: Box::new(LogicalPlan::Project {
                input: Box::new(scan_t(&catalog)),
                exprs: vec![(colx(1), "v".into())],
                schema: PlanSchema::new(vec![PlanColumn::computed("v", DataType::Int)]),
            }),
        };
        assert_eq!(
            execute(&distinct, &catalog).unwrap().rows,
            ints(&[&[1], &[2]])
        );
        // DISTINCT straight over a scan keeps borrowing.
        let rows = run(
            &LogicalPlan::Distinct {
                input: Box::new(scan_t(&catalog)),
            },
            &catalog,
        )
        .unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| matches!(r, Cow::Borrowed(_))));

        // The catalog's table is untouched and still the one its clone
        // shares.
        assert!(std::ptr::eq(
            catalog.get("t").unwrap(),
            shared.get("t").unwrap()
        ));
        assert_eq!(
            catalog.get("t").unwrap().rows(),
            ints(&[&[3, 1], &[1, 2], &[2, 1], &[4, 2]])
        );
    }

    #[test]
    fn table_renders() {
        let r = rel(&["a"], vec![vec![Value::Int(1)]]);
        let s = r.to_table_string();
        assert!(s.contains("| a |"));
        assert!(s.contains("| 1 |"));
        assert!(s.contains("1 row"));
    }
}
