//! Physical execution of logical plans over the in-memory catalog.
//!
//! Execution is late-materialising: rows stay borrowed from the catalog
//! until an operator computes new ones, and a join passes *views* of its
//! matches ([`RowView`]: the two rows side by side) down to the operator
//! that consumes them, so a joined row is built once — by the projection,
//! group or result that owns it — or never. Equi joins probe a stored
//! table's key index when one side has it, else hash; without equi keys a
//! nested loop. Aggregation is hash-based with DISTINCT sets only for the
//! calls that ask for them.

use crate::error::{EngineError, Result};
use crate::expr::{RowView, ScalarExpr};
use crate::plan::{AggCall, AggFunc, JoinCondition, LogicalPlan, SortKey};
use crate::schema::{PlanSchema, TableSchema};
use crate::table::{Catalog, Row, Table};
use crate::value::{DataType, Value};
use galois_sql::ast::{JoinType, SortDirection};
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

#[cfg(test)]
pub(crate) mod differential;
#[cfg(test)]
mod reference;

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
        self.schema
            .columns
            .iter()
            .map(|c| c.name.to_string())
            .collect()
    }

    /// Renders an ASCII table (for examples and demos).
    pub(crate) fn to_table_string(&self) -> String {
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
/// Rows stay where they lie for as long as possible. A scan copies
/// nothing; a filter, sort, distinct or limit moves references; a join
/// hands its parent *views* of its matches — the two joined rows, side by
/// side — and builds none. A row is built once: where a projection computes
/// it, where an aggregate opens a group, or where the result — or a sort,
/// distinct, limit or further join over a join — has to own it.
pub fn execute(plan: &LogicalPlan, catalog: &Catalog) -> Result<Relation> {
    Ok(Relation {
        schema: plan.schema().clone(),
        rows: run(plan, catalog)?
            .into_iter()
            .map(Cow::into_owned)
            .collect(),
    })
}

/// Rows between operators: borrowed from a stored table until an operator
/// builds new ones.
type Rows<'a> = Vec<Cow<'a, Row>>;

/// What [`for_each_row`] hands each row to. A view lives for the call: a
/// join's are cut from rows local to the join, which is why they are
/// passed down to the consumer and never returned to it.
type Sink<'f> = dyn FnMut(RowView<'_>) -> Result<()> + 'f;

/// Streams `plan`'s rows to `f`, in order. Scans, filters and joins build
/// nothing on the way; any other operator is materialised by [`run`] and
/// its rows handed over.
fn for_each_row(plan: &LogicalPlan, catalog: &Catalog, f: &mut Sink<'_>) -> Result<()> {
    match plan {
        LogicalPlan::Scan { table, .. } => {
            if table.is_empty() {
                // "dual": one empty row feeding table-less SELECTs.
                return f(RowView::of(&[]));
            }
            let rows = catalog.get(table)?.rows();
            rows.iter().try_for_each(|row| f(RowView::of(row)))
        }
        LogicalPlan::Filter { input, predicate } => for_each_row(input, catalog, &mut |row| {
            if predicate.eval_predicate(row)? {
                f(row)?;
            }
            Ok(())
        }),
        LogicalPlan::Join {
            left,
            right,
            join_type,
            condition,
            ..
        } => {
            let (l, r) = (run(left, catalog)?, run(right, catalog)?);
            // Only an outer join pads: an unmatched left row's right side.
            let outer = *join_type == JoinType::LeftOuter;
            let nulls = outer.then(|| vec![Value::Null; right.schema().arity()]);
            let pad = nulls.as_deref();
            let schema_of = |name: &str| catalog.get(name).ok().map(|t| t.schema.as_ref());
            let algorithm = join_algorithm(left, right, condition, schema_of);
            let keyed = match (algorithm, &**left, &**right) {
                (JoinAlgorithm::IndexLeft(_), LogicalPlan::Scan { table, .. }, _)
                | (JoinAlgorithm::IndexRight(_), _, LogicalPlan::Scan { table, .. }) => {
                    catalog.get(table).ok()
                }
                _ => None,
            };
            match keyed {
                Some(table) if index_join(&l, &r, table, algorithm, condition, pad, f)? => Ok(()),
                _ => join(&l, &r, condition, pad, f),
            }
        }
        LogicalPlan::CrossJoin { left, right, .. } => {
            let (l, r) = (run(left, catalog)?, run(right, catalog)?);
            join(&l, &r, &JoinCondition::default(), None, f)
        }
        materialising => {
            let rows = run(materialising, catalog)?;
            rows.iter().try_for_each(|row| f(RowView::of(row)))
        }
    }
}

/// `plan`'s rows, materialised.
fn run<'a>(plan: &LogicalPlan, catalog: &'a Catalog) -> Result<Rows<'a>> {
    match plan {
        LogicalPlan::Scan { table, .. } => {
            if table.is_empty() {
                return Ok(vec![Cow::Owned(Vec::new())]);
            }
            Ok(catalog
                .get(table)?
                .rows()
                .iter()
                .map(Cow::Borrowed)
                .collect())
        }
        // Over stored or built rows a filter moves references; over a join
        // it streams (last arm), so only a match that passes is built.
        LogicalPlan::Filter { input, predicate }
            if !matches!(
                **input,
                LogicalPlan::Join { .. } | LogicalPlan::CrossJoin { .. }
            ) =>
        {
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
            let (input, exprs) = composed(input, exprs);
            let mut rows = Vec::new();
            for_each_row(input, catalog, &mut |row| {
                let mut out = Vec::with_capacity(exprs.len());
                for e in &exprs {
                    out.push(e.eval(row)?);
                }
                rows.push(Cow::Owned(out));
                Ok(())
            })?;
            Ok(rows)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
            ..
        } => aggregate(input, catalog, group_by, aggregates),
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
            // A projection of plain columns cannot fail and keeps rows one
            // to one, so the window is cut below it and only the window's
            // rows are built — unless it reads a join's views, which `run`
            // would build whole where the projection builds them narrow.
            let (input, project) = match &**input {
                LogicalPlan::Project {
                    input: below,
                    exprs,
                    ..
                } if !streams_views(below)
                    && plain_columns(exprs.iter().map(|(e, _)| e), below.schema().arity()) =>
                {
                    (below, Some(exprs))
                }
                _ => (input, None),
            };
            let mut rows = run(input, catalog)?;
            if *offset > 0 {
                rows.drain(..(*offset as usize).min(rows.len()));
            }
            rows.truncate(*n as usize);
            let Some(exprs) = project else {
                return Ok(rows);
            };
            rows.iter()
                .map(|row| {
                    let cells = exprs.iter().map(|(e, _)| e.eval(RowView::of(row)));
                    cells.collect::<Result<Row>>().map(Cow::Owned)
                })
                .collect()
        }
        // A join whose parent needs its rows owned: the one place a match
        // becomes a concatenated row.
        views => {
            let mut rows = Vec::new();
            for_each_row(views, catalog, &mut |row| {
                rows.push(Cow::Owned(row.to_row()));
                Ok(())
            })?;
            Ok(rows)
        }
    }
}

/// Whether [`for_each_row`] hands `plan`'s rows on as views of a join's
/// matches: a join, or filters over one.
fn streams_views(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Join { .. } | LogicalPlan::CrossJoin { .. } => true,
        LogicalPlan::Filter { input, .. } => streams_views(input),
        _ => false,
    }
}

/// Whether `exprs` are literals and plain columns of an input `arity`
/// columns wide: reading them computes nothing and cannot fail.
fn plain_columns<'e>(mut exprs: impl Iterator<Item = &'e ScalarExpr>, arity: usize) -> bool {
    exprs.all(|e| match e {
        ScalarExpr::Column(column) => column.index < arity,
        other => matches!(other, ScalarExpr::Literal(_)),
    })
}

/// A projection chain as one expression list over the chain's input. While
/// the operator below is a projection of plain columns and literals — a
/// select list narrowing or reordering its input's columns — its
/// expressions are substituted into the list and the operator is skipped:
/// reading through it costs nothing, and the plan (its `EXPLAIN` text, its
/// equality) is never rewritten. A projection that computes stays an
/// operator: its expressions run once a row, and fail the statement,
/// whether or not the list above reads them.
fn composed<'p>(
    mut input: &'p LogicalPlan,
    exprs: &'p [(ScalarExpr, Arc<str>)],
) -> (&'p LogicalPlan, Vec<Cow<'p, ScalarExpr>>) {
    let mut exprs: Vec<_> = exprs.iter().map(|(e, _)| Cow::Borrowed(e)).collect();
    while let LogicalPlan::Project {
        input: below,
        exprs: inner,
        ..
    } = input
    {
        let plain = |e: &ScalarExpr| matches!(e, ScalarExpr::Column(_) | ScalarExpr::Literal(_));
        let reads_inner = |e: &ScalarExpr| e.referenced_indices().last() < Some(&inner.len());
        if !(inner.iter().all(|(e, _)| plain(e)) && exprs.iter().all(|e| reads_inner(e))) {
            break;
        }
        exprs = exprs
            .iter()
            .map(|e| Cow::Owned(e.map_columns(&|c| inner[c.index].0.clone())))
            .collect();
        input = below;
    }
    (input, exprs)
}

/// Sorts rows — owned, or borrowed by the executor — in place by the given
/// keys (stable, NULLs first).
pub(crate) fn sort_rows<R: Borrow<Row>>(rows: &mut [R], keys: &[SortKey]) {
    rows.sort_by(|a, b| {
        let (a, b) = (a.borrow(), b.borrow());
        for k in keys {
            let ord = a[k.index].total_cmp(&b[k.index]);
            let ord = if k.direction == SortDirection::Desc {
                ord.reverse()
            } else {
                ord
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
}

/// Row positions chained by the hash of their key: `head` holds the first
/// position of a hash's chain, `next[p]` the one after `p`. Two keys that
/// share a hash share a chain, so a reader compares the keys themselves.
/// `head`'s keys are `hasher`'s (keyed) hashes already, so it passes them
/// through.
#[derive(Default)]
struct Chains {
    hasher: RandomState,
    head: HashMap<u64, u32, BuildHasherDefault<Hashed>>,
    next: Vec<u32>,
}

/// Hashes a `u64` that is a hash already to itself.
#[derive(Default)]
struct Hashed(u64);

impl Hasher for Hashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // `Chains::head` hashes `u64`s only; anything else is folded in.
        self.0 = (bytes.iter()).fold(self.0, |h, &b| h.rotate_left(8) ^ u64::from(b));
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// The end of a chain.
const END: u32 = u32::MAX;

impl Chains {
    /// Hashes the values `keys` take on `row`; the flag is set when one of
    /// them is NULL.
    fn hash<'e>(
        &self,
        keys: impl Iterator<Item = &'e ScalarExpr>,
        row: RowView<'_>,
    ) -> Result<(u64, bool)> {
        let mut hasher = self.hasher.build_hasher();
        let mut null = false;
        for key in keys {
            let value = key.eval_ref(row)?;
            null |= value.is_null();
            value.hash(&mut hasher);
        }
        Ok((hasher.finish(), null))
    }

    /// Puts `position` at the front of `hash`'s chain.
    fn link_front(&mut self, hash: u64, position: usize) -> Result<()> {
        let link = u32::try_from(position)
            .ok()
            .filter(|&p| p != END)
            .ok_or_else(|| EngineError::Evaluation("too many rows to index".into()))?;
        if self.next.len() <= position {
            self.next.resize(position + 1, END);
        }
        self.next[position] = self.head.insert(hash, link).unwrap_or(END);
        Ok(())
    }

    /// The positions of `hash`'s chain, front first.
    fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let follow = |&p: &u32| Some(self.next[p as usize]).filter(|&n| n != END);
        std::iter::successors(self.head.get(&hash).copied(), follow).map(|p| p as usize)
    }
}

/// How a [`LogicalPlan::Join`] meets its inputs' rows; each emits the
/// hash join's rows in its order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgorithm {
    /// Probe the right table's key index through equi pair `.0`.
    IndexRight(usize),
    /// Probe the left table's key index through equi pair `.0`.
    IndexLeft(usize),
    /// Build a hash table on the right input, probe it from the left.
    Hash,
    /// No equi key: try every pair of rows against the residual.
    NestedLoop,
}

/// The algorithm [`execute`] joins `left` and `right` with, read off the
/// plan and the stored schemas `schema_of` resolves. A key index serves a
/// side (the right first) that is a bare scan of a stored table with an
/// equi key on its key column and every key on that side plain, so the
/// rows no probe reaches hide no error.
pub fn join_algorithm<'s>(
    left: &LogicalPlan,
    right: &LogicalPlan,
    condition: &JoinCondition,
    schema_of: impl Fn(&str) -> Option<&'s TableSchema>,
) -> JoinAlgorithm {
    let equi = &condition.equi;
    let keyed = |input: &LogicalPlan, left: bool| {
        let LogicalPlan::Scan { table, .. } = input else {
            return None;
        };
        // The unnamed scan is the one-row "dual", not a stored table.
        let schema = schema_of(table).filter(|_| !table.is_empty())?;
        let keys = || equi.iter().map(move |(lk, rk)| if left { lk } else { rk });
        let key = |e: &ScalarExpr| matches!(e, ScalarExpr::Column(c) if c.index == schema.key);
        let pair = keys().position(key)?;
        plain_columns(keys(), schema.arity()).then_some(pair)
    };
    if equi.is_empty() {
        JoinAlgorithm::NestedLoop
    } else if let Some(pair) = keyed(right, false) {
        JoinAlgorithm::IndexRight(pair)
    } else if let Some(pair) = keyed(left, true) {
        JoinAlgorithm::IndexLeft(pair)
    } else {
        JoinAlgorithm::Hash
    }
}

/// Whether `l` and `r` agree on every equi pair but `matched` (an index
/// lookup's). Both sides' keys were evaluated once already: none fails.
fn same_keys(condition: &JoinCondition, matched: Option<usize>, l: &Row, r: &Row) -> bool {
    let equal = |(lk, rk): &(ScalarExpr, ScalarExpr)| {
        let (lv, rv) = (lk.eval_ref(RowView::of(l)), rk.eval_ref(RowView::of(r)));
        matches!((lv, rv), (Ok(lv), Ok(rv)) if lv == rv)
    };
    (condition.equi.iter().enumerate()).all(|(i, pair)| Some(i) == matched || equal(pair))
}

/// [`join`]'s rows in its order, through the key index of `table`, the
/// side an index `algorithm` names: each probe row finds its partner's
/// position (`usize::MAX`: none); a keyed left side chains the right rows
/// by it. `false`, nothing emitted, for another algorithm, or when a probe
/// may equal several keys: a float of magnitude 2⁵³ or more equals every
/// integer that rounds to it.
fn index_join(
    l: &[Cow<'_, Row>],
    r: &[Cow<'_, Row>],
    table: &Table,
    algorithm: JoinAlgorithm,
    condition: &JoinCondition,
    pad: Option<&[Value]>,
    f: &mut Sink<'_>,
) -> Result<bool> {
    let (pair, keyed_left) = match algorithm {
        JoinAlgorithm::IndexRight(pair) => (pair, false),
        JoinAlgorithm::IndexLeft(pair) => (pair, true),
        JoinAlgorithm::Hash | JoinAlgorithm::NestedLoop => return Ok(false),
    };
    let schema = &table.schema;
    let int_keys = schema.columns[schema.key].data_type == DataType::Int;
    let probes = if keyed_left { r } else { l };
    let mut partner = Vec::with_capacity(probes.len());
    for row in probes {
        // Every probe key is evaluated, as the hash join does; a NULL one
        // matches nothing.
        let (mut probe, mut null) = (None, false);
        for (i, (lk, rk)) in condition.equi.iter().enumerate() {
            let value = (if keyed_left { rk } else { lk }).eval_ref(RowView::of(row))?;
            null |= value.is_null();
            probe = probe.or((i == pair).then_some(value));
        }
        partner.push(match probe.filter(|_| !null) {
            Some(v) if int_keys && matches!(*v, Value::Float(f) if f.abs() >= 2f64.powi(53)) => {
                return Ok(false)
            }
            Some(v) => table.position_of(&v).unwrap_or(usize::MAX),
            None => usize::MAX,
        });
    }
    let agree = |lr: &Row, rr: &&Row| same_keys(condition, Some(pair), lr, rr);
    let residual = condition.residual.as_ref();
    if !keyed_left {
        for (lr, &p) in l.iter().zip(&partner) {
            let rr = r.get(p).map(|rr| &**rr).filter(|rr| agree(lr, rr));
            emit_matches(lr, rr.into_iter(), residual, pad, f)?;
        }
        return Ok(true);
    }
    let (mut head, mut next) = (vec![usize::MAX; l.len()], vec![usize::MAX; r.len()]);
    for (j, &p) in partner.iter().enumerate().rev() {
        if let Some(first) = head.get_mut(p) {
            next[j] = std::mem::replace(first, j);
        }
    }
    for (lr, &first) in l.iter().zip(&head) {
        let chain = std::iter::successors(Some(first), |&j| next.get(j).copied());
        let rows = chain.map_while(|j| r.get(j)).map(|rr| &**rr);
        emit_matches(lr, rows.filter(|rr| agree(lr, rr)), residual, pad, f)?;
    }
    Ok(true)
}

/// Hands `f` one probe row's matches: of `candidates`, in the order given,
/// those whose pairing with `lr` passes the residual — or, when none does
/// and the join is outer, `lr` padded.
fn emit_matches<'r>(
    lr: &Row,
    candidates: impl Iterator<Item = &'r Row>,
    residual: Option<&ScalarExpr>,
    pad: Option<&[Value]>,
    f: &mut Sink<'_>,
) -> Result<()> {
    let mut matched = false;
    for rr in candidates {
        let pair = RowView::pair(lr, rr);
        if residual.map_or(Ok(true), |p| p.eval_predicate(pair))? {
            matched = true;
            f(pair)?;
        }
    }
    match pad {
        Some(nulls) if !matched => f(RowView::pair(lr, nulls)),
        _ => Ok(()),
    }
}

/// Joins two row sets, handing each output row to `f` as a view of the two
/// rows it joins: probe (left) order, and within one probe row the build
/// rows in ascending position. An outer join passes `pad`, the all-NULL
/// right side of a left row nothing matches.
fn join(
    l: &[Cow<'_, Row>],
    r: &[Cow<'_, Row>],
    condition: &JoinCondition,
    pad: Option<&[Value]>,
    f: &mut Sink<'_>,
) -> Result<()> {
    let residual = condition.residual.as_ref();
    if condition.equi.is_empty() {
        // Nested loop with the residual predicate.
        for lr in l {
            emit_matches(lr, r.iter().map(|rr| &**rr), residual, pad, f)?;
        }
        return Ok(());
    }
    // Hash join: build on the right, probe from the left. Keys are hashed
    // and compared where they lie. Linking the build rows last to first
    // leaves every chain in ascending position; a NULL key is never linked
    // and never probes.
    let mut index = Chains::default();
    index.head.reserve(r.len());
    for (i, rr) in r.iter().enumerate().rev() {
        let keys = condition.equi.iter().map(|(_, rk)| rk);
        if let (hash, false) = index.hash(keys, RowView::of(rr))? {
            index.link_front(hash, i)?;
        }
    }
    for lr in l {
        let keys = condition.equi.iter().map(|(lk, _)| lk);
        let (hash, null) = index.hash(keys, RowView::of(lr))?;
        let chain = (!null).then(|| index.chain(hash)).into_iter().flatten();
        let candidates = chain
            .map(|i| &*r[i])
            .filter(|rr| same_keys(condition, None, lr, rr));
        emit_matches(lr, candidates, residual, pad, f)?;
    }
    Ok(())
}

/// Accumulator for one aggregate call in one group.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    SumInt(Option<i64>),
    SumFloat(Option<f64>),
    Avg { sum: f64, n: i64 },
    // MIN or MAX: the best value so far, and how a better one compares.
    Extreme(Option<Value>, Ordering),
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
            AggFunc::Min => AggState::Extreme(None, Ordering::Less),
            AggFunc::Max => AggState::Extreme(None, Ordering::Greater),
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
            AggState::Extreme(best, better) => {
                if best.as_ref().is_none_or(|cur| v.total_cmp(cur) == *better) {
                    *best = Some(v.clone());
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
            AggState::Extreme(best, _) => best.unwrap_or(Value::Null),
        }
    }
}

/// What `COUNT(*)` counts: any non-null marker.
static COUNTED: Value = Value::Int(1);

/// Hash aggregation over `input`'s rows as they stream by — over a join,
/// no joined row is built. Groups come out in the order they first appear.
fn aggregate<'a>(
    input: &LogicalPlan,
    catalog: &Catalog,
    group_by: &[(ScalarExpr, Arc<str>)],
    aggregates: &[AggCall],
) -> Result<Rows<'a>> {
    let n = aggregates.len();
    let any_distinct = aggregates.iter().any(|a| a.distinct);
    // One output row per group — its key values now, its aggregates when
    // the input ends — found through the hash of the key. States, and the
    // DISTINCT sets when some call has one, lie flat: `group * n + call`.
    let mut index = Chains::default();
    let mut rows: Rows<'a> = Vec::new();
    let mut states: Vec<AggState> = Vec::new();
    let mut seen: Vec<HashSet<Value>> = Vec::new();
    for_each_row(input, catalog, &mut |row| {
        let group = if group_by.is_empty() && !rows.is_empty() {
            0 // A global aggregate's one group: no key to hash or chain to walk.
        } else {
            let (hash, _) = index.hash(group_by.iter().map(|(g, _)| g), row)?;
            // The keys evaluated once already, so none fails here.
            let same_key = |&group: &usize| {
                let key = group_by.iter().zip(rows[group].iter());
                key.into_iter()
                    .all(|((g, _), k)| matches!(g.eval_ref(row), Ok(v) if *v == *k))
            };
            let found = index.chain(hash).find(same_key);
            match found {
                Some(group) => group,
                None => {
                    let mut key = Vec::with_capacity(group_by.len() + n);
                    for (g, _) in group_by {
                        key.push(g.eval(row)?);
                    }
                    index.link_front(hash, rows.len())?;
                    rows.push(Cow::Owned(key));
                    states.extend(aggregates.iter().map(AggState::new));
                    if any_distinct {
                        seen.extend(std::iter::repeat_with(HashSet::new).take(n));
                    }
                    rows.len() - 1
                }
            }
        };
        for (slot, call) in (group * n..).zip(aggregates) {
            let v = match &call.arg {
                Some(e) => e.eval_ref(row)?,
                None => Cow::Borrowed(&COUNTED),
            };
            if call.distinct {
                if v.is_null() || seen[slot].contains(&*v) {
                    continue;
                }
                seen[slot].insert(v.as_ref().clone());
            }
            states[slot].update(&v)?;
        }
        Ok(())
    })?;

    // A global aggregate (no GROUP BY) over empty input yields one row.
    if group_by.is_empty() && rows.is_empty() {
        rows.push(Cow::Owned(Vec::with_capacity(n)));
        states.extend(aggregates.iter().map(AggState::new));
    }
    let mut states = states.into_iter();
    for row in &mut rows {
        row.to_mut()
            .extend(states.by_ref().take(n).map(AggState::finish));
    }
    Ok(rows)
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

    /// The rows a join's views concatenate to.
    fn joined(l: &[Row], r: &[Row], condition: &JoinCondition, pad: Option<&[Value]>) -> Vec<Row> {
        let mut rows = Vec::new();
        let mut build = |row: RowView<'_>| {
            rows.push(row.to_row());
            Ok(())
        };
        let (l, r) = (borrowed(l), borrowed(r));
        join(&l, &r, condition, pad, &mut build).unwrap();
        rows
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
            name: format!("c{i}").into(),
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
        let out = joined(&l, &r, &on_first_columns(), None);
        // NULL = NULL is unknown, so only the (1,1) pair joins.
        assert_eq!(out, ints(&[&[1, 1]]));
    }

    #[test]
    fn left_outer_join_pads_with_nulls() {
        let l = ints(&[&[1], &[2]]);
        let r = ints(&[&[1, 10]]);
        let out = joined(
            &l,
            &r,
            &on_first_columns(),
            Some(&[Value::Null, Value::Null]),
        );
        assert_eq!(
            out,
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
        let out = joined(&l, &r, &cond, None);
        assert_eq!(out, ints(&[&[1, 3]]));
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
            schema: catalog.get("t").unwrap().plan_schema(&"t".into()),
            key_index: 0,
        }
    }

    #[test]
    fn index_joins_keep_the_hash_joins_rows_and_order() {
        // Keys 2⁵³ + 1 and 2⁵³ both equal the float 2⁵³.
        let big = 1i64 << 53;
        let catalog = catalog_of(&[&[big + 1, 1], &[1, big], &[big, 2], &[2, 2], &[3, 7]]);
        let as_float = ScalarExpr::Binary {
            left: Box::new(colx(1)),
            op: galois_sql::ast::BinaryOp::Mul,
            right: Box::new(ScalarExpr::Literal(Value::Float(1.0))),
        };
        // Each condition on `t ⋈ t`, and which side's index serves it.
        let cases = [
            (vec![(colx(1), colx(0))], "right"),
            (vec![(colx(0), colx(1))], "left"),
            (vec![(as_float.clone(), colx(0))], "right"),
            (vec![(colx(0), as_float.clone())], "left"),
            (vec![(colx(1), colx(0)), (colx(1), colx(1))], "right"),
            (vec![(colx(1), colx(1)), (colx(0), colx(1))], "left"),
            (vec![(colx(1), colx(1))], "neither"),
            (
                vec![(colx(0), as_float.clone()), (as_float.clone(), colx(0))],
                "neither",
            ),
        ];
        let scan = scan_t(&catalog);
        let columns = scan.schema().columns.clone();
        let join_on = |equi: &[(ScalarExpr, ScalarExpr)], join_type| LogicalPlan::Join {
            left: Box::new(scan.clone()),
            right: Box::new(scan.clone()),
            join_type,
            condition: JoinCondition {
                equi: equi.to_vec(),
                residual: None,
            },
            schema: PlanSchema::new([&columns[..], &columns[..]].concat()),
        };
        for (equi, side) in cases {
            let condition = JoinCondition {
                equi: equi.clone(),
                residual: None,
            };
            let schema_of = |name: &str| catalog.get(name).ok().map(|t| t.schema.as_ref());
            let serves = match join_algorithm(&scan, &scan, &condition, schema_of) {
                JoinAlgorithm::IndexRight(_) => "right",
                JoinAlgorithm::IndexLeft(_) => "left",
                JoinAlgorithm::Hash | JoinAlgorithm::NestedLoop => "neither",
            };
            assert_eq!(serves, side, "{equi:?}");
            // What the hash join makes of it, inner and left outer.
            let stored = catalog.get("t").unwrap().rows();
            for (join_type, pad) in [
                (JoinType::Inner, None),
                (JoinType::LeftOuter, Some(&[Value::Null, Value::Null][..])),
            ] {
                let rows = execute(&join_on(&equi, join_type), &catalog).unwrap().rows;
                assert_eq!(rows, joined(stored, stored, &condition, pad), "{equi:?}");
            }
        }
        // The float probe 2⁵³ meets both keys it equals, in table order
        // (the `#[cfg(test)]` reference, keyed by value, finds one).
        let plan = join_on(&[(as_float, colx(0))], JoinType::Inner);
        assert_eq!(
            execute(&plan, &catalog).unwrap().rows,
            ints(&[
                &[big + 1, 1, 1, big],
                &[1, big, big + 1, 1],
                &[1, big, big, 2],
                &[big, 2, 2, 2],
                &[2, 2, 2, 2],
            ])
        );
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
        assert_eq!(&out.schema, scan_t(&catalog).schema());

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

    fn project(input: LogicalPlan, exprs: Vec<ScalarExpr>) -> LogicalPlan {
        let schema = PlanSchema::new(
            (0..exprs.len())
                .map(|i| PlanColumn::computed(format!("c{i}"), DataType::Int))
                .collect(),
        );
        LogicalPlan::Project {
            input: Box::new(input),
            exprs: exprs.into_iter().map(|e| (e, "c".into())).collect(),
            schema,
        }
    }

    #[test]
    fn a_projection_of_plain_columns_is_read_through_not_run() {
        let catalog = catalog_of(&[&[1, 10], &[2, 0]]);
        let sum = ScalarExpr::Binary {
            left: Box::new(colx(0)),
            op: galois_sql::ast::BinaryOp::Add,
            right: Box::new(colx(1)),
        };
        // `k + v` over a projection that swaps the two columns, over one
        // that repeats `v`: both are index remaps, so the list is composed
        // down to the scan.
        let swap = project(scan_t(&catalog), vec![colx(1), colx(0)]);
        let repeat = project(swap, vec![colx(0), colx(0)]);
        let top = project(repeat, vec![sum.clone(), colx(1)]);
        let LogicalPlan::Project { input, exprs, .. } = &top else {
            unreachable!()
        };
        let (base, list) = composed(input, exprs);
        assert_eq!(base, &scan_t(&catalog));
        assert_eq!(list[0].referenced_indices(), [1]);
        assert_eq!(list[1].referenced_indices(), [1]);
        assert_eq!(
            execute(&top, &catalog).unwrap().rows,
            ints(&[&[20, 10], &[0, 0]])
        );

        // A projection that computes stays an operator — its `k / v` fails
        // the statement on the second row although the list above reads
        // only `k` — and so does one the list reads out of range.
        let quotient = ScalarExpr::Binary {
            left: Box::new(colx(0)),
            op: galois_sql::ast::BinaryOp::Div,
            right: Box::new(colx(1)),
        };
        let computing = project(scan_t(&catalog), vec![colx(0), quotient]);
        let top = project(computing.clone(), vec![colx(0)]);
        let LogicalPlan::Project { input, exprs, .. } = &top else {
            unreachable!()
        };
        assert_eq!(composed(input, exprs).0, &computing);
        assert!(execute(&top, &catalog).is_err());
        let narrow = project(scan_t(&catalog), vec![colx(0)]);
        let top = project(narrow.clone(), vec![colx(1)]);
        let LogicalPlan::Project { input, exprs, .. } = &top else {
            unreachable!()
        };
        assert_eq!(composed(input, exprs).0, &narrow);
        assert!(execute(&top, &catalog).is_err());
    }

    #[test]
    fn a_limit_windows_below_a_projection_of_plain_columns_only() {
        let catalog = catalog_of(&[&[1, 10], &[2, 0], &[3, 30], &[4, 40]]);
        let window = |input| LogicalPlan::Limit {
            input: Box::new(input),
            n: 2,
            offset: 1,
        };
        let swap = project(scan_t(&catalog), vec![colx(1), colx(0)]);
        assert_eq!(
            execute(&window(swap), &catalog).unwrap().rows,
            ints(&[&[0, 2], &[30, 3]])
        );
        // Sorted input: the window is cut from the sorted rows.
        let by_v_desc = LogicalPlan::Sort {
            input: Box::new(scan_t(&catalog)),
            keys: vec![SortKey {
                index: 1,
                direction: SortDirection::Desc,
            }],
        };
        let keys = project(by_v_desc, vec![colx(0)]);
        assert_eq!(
            execute(&window(keys), &catalog).unwrap().rows,
            ints(&[&[3], &[1]])
        );
        // What can fail outside the window still fails the statement: a
        // computed `k / v` (zero in a row the window skips, with the row
        // before it skipped too) and a column read out of range.
        let quotient = ScalarExpr::Binary {
            left: Box::new(colx(0)),
            op: galois_sql::ast::BinaryOp::Div,
            right: Box::new(colx(1)),
        };
        let computing = project(scan_t(&catalog), vec![quotient]);
        let late = LogicalPlan::Limit {
            input: Box::new(computing),
            n: 1,
            offset: 2,
        };
        assert!(execute(&late, &catalog).is_err());
        let out_of_range = project(scan_t(&catalog), vec![colx(2)]);
        let none = LogicalPlan::Limit {
            input: Box::new(out_of_range),
            n: 0,
            offset: 0,
        };
        assert!(execute(&none, &catalog).is_err());
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
