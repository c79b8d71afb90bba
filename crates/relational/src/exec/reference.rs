//! The executor as it was before it passed views: every operator
//! materialises its output, a join concatenates each match into a new row
//! and tests its residual on it, a projection chain runs projection by
//! projection, and aggregation keeps one accumulator struct per group.
//! Kept verbatim (expressions are now handed a [`RowView`] of the built
//! row) as the reference `super::differential` runs [`super::execute`]
//! against.

use super::{sort_rows, AggState};
use crate::error::Result;
use crate::expr::{RowView, ScalarExpr};
use crate::plan::{AggCall, JoinCondition, LogicalPlan};
use crate::table::{Catalog, Row};
use crate::value::Value;
use galois_sql::ast::JoinType;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// [`super::execute`]'s rows, the old way.
pub(super) fn execute(plan: &LogicalPlan, catalog: &Catalog) -> Result<Vec<Row>> {
    Ok(run(plan, catalog)?
        .into_iter()
        .map(Cow::into_owned)
        .collect())
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
                if predicate.eval_predicate(RowView::of(&row))? {
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
                    out.push(e.eval(RowView::of(row))?);
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
        Some(p) => p.eval_predicate(RowView::of(row)),
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
                key.push(rk.eval_ref(RowView::of(rr))?);
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
                key.push(lk.eval_ref(RowView::of(lr))?);
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
            key.push(g.eval_ref(RowView::of(row))?);
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
                Some(e) => e.eval(RowView::of(row))?,
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
