//! Plan builder: resolves an AST [`SelectStatement`] against a catalog and
//! produces a [`LogicalPlan`].
//!
//! The builder performs name resolution, type checking, aggregate
//! extraction and the SELECT-list/ORDER-BY rewrite. Every statement binds
//! one way: its input is the cross joins of its FROM list, or, with no
//! FROM, the one-row "dual" scan, and every clause applies to that input.
//! One lowering, `lower` over a `Scope`, turns each AST expression into a
//! [`ScalarExpr`], over an input's rows or over an aggregate's groups.
//! Sorting happens over a projection that may carry *hidden* columns (sort
//! keys not in the SELECT list); a final projection strips them.

#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::unreachable, clippy::panic)
)]

use crate::error::{EngineError, Result};
use crate::expr::{ResolvedColumn, ScalarExpr};
use crate::plan::{aggregate_schema, AggCall, AggFunc, JoinCondition, LogicalPlan, SortKey};
use crate::schema::{PlanColumn, PlanSchema};
use crate::table::Catalog;
use galois_sql::ast::{self, Expr as AstExpr, FunctionArgs, JoinType, SelectItem, SelectStatement};
use std::sync::Arc;

/// A select-list entry: the compiled expression, its output name and the
/// alias it was written with, if any.
type Visible<'s> = (ScalarExpr, Arc<str>, Option<&'s str>);

/// The ORDER BY keys over the projection, and the hidden sort columns the
/// projection appends after the visible ones.
type Order = (Vec<SortKey>, Vec<(ScalarExpr, Arc<str>)>);

/// Plans a SELECT statement against `catalog`.
pub(crate) fn plan_select(stmt: &SelectStatement, catalog: &Catalog) -> Result<LogicalPlan> {
    Builder { catalog }.plan(stmt)
}

struct Builder<'a> {
    catalog: &'a Catalog,
}

impl<'a> Builder<'a> {
    fn plan(&self, stmt: &SelectStatement) -> Result<LogicalPlan> {
        let mut plan = self.source(stmt)?;

        // Explicit JOIN … ON clauses.
        for join in &stmt.joins {
            let right = self.scan(&join.table)?;
            plan = self.build_join(plan, right, join.join_type, &join.on)?;
        }

        // WHERE.
        if let Some(w) = &stmt.where_clause {
            let predicate = lower(w, &Scope::Rows(plan.schema()))?;
            require_boolean(&predicate, "WHERE")?;
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        if stmt.is_aggregate_query() {
            self.plan_aggregate(stmt, plan)
        } else {
            self.plan_projection(stmt, plan)
        }
    }

    /// The statement's input: its FROM list's relations as cross joins,
    /// or with no FROM the "dual" relation, a scan with an empty table
    /// name for which the executor produces a single empty row.
    fn source(&self, stmt: &SelectStatement) -> Result<LogicalPlan> {
        let Some((first, rest)) = stmt.from.split_first() else {
            if (stmt.items.iter()).any(|item| !matches!(item, SelectItem::Expr { .. })) {
                return Err(EngineError::InvalidQuery(
                    "wildcard without FROM clause".into(),
                ));
            }
            return Ok(LogicalPlan::Scan {
                table: "".into(),
                binding: "".into(),
                source: None,
                schema: PlanSchema::default(),
                key_index: 0,
            });
        };
        let mut plan = self.scan(first)?;
        self.check_unique_bindings(stmt)?;
        for t in rest {
            let right = self.scan(t)?;
            let schema = plan.schema().join(right.schema());
            plan = LogicalPlan::CrossJoin {
                left: Box::new(plan),
                right: Box::new(right),
                schema,
            };
        }
        Ok(plan)
    }

    fn check_unique_bindings(&self, stmt: &SelectStatement) -> Result<()> {
        // A statement binds a handful of tables: comparing each with the
        // ones before it copies no name.
        for (i, t) in stmt.tables().enumerate() {
            let binding = t.binding();
            if (stmt.tables().take(i)).any(|seen| seen.binding().eq_ignore_ascii_case(binding)) {
                return Err(EngineError::InvalidQuery(format!(
                    "duplicate table binding '{binding}'"
                )));
            }
        }
        Ok(())
    }

    fn scan(&self, t: &ast::TableRef) -> Result<LogicalPlan> {
        let table = self.catalog.get(&t.name)?;
        // The table's own spelling of its name. Plans are bound against
        // catalogs of tables registered under their own names; a table
        // shared under another one (`Catalog::add_shared`) is reached only
        // by scans that already carry the registered name. An unaliased
        // scan spelled as registered shares one text for both.
        let name: Arc<str> = table.name.as_str().into();
        let binding = if t.binding() == &*name {
            Arc::clone(&name)
        } else {
            t.binding().into()
        };
        Ok(LogicalPlan::Scan {
            table: name,
            schema: table.plan_schema(&binding),
            binding,
            source: t.source,
            key_index: table.schema.key,
        })
    }

    fn build_join(
        &self,
        left: LogicalPlan,
        right: LogicalPlan,
        join_type: JoinType,
        on: &AstExpr,
    ) -> Result<LogicalPlan> {
        let (left_schema, right_schema) = (left.schema(), right.schema());
        let concat = match join_type {
            JoinType::Inner => left_schema.join(right_schema),
            JoinType::LeftOuter => left_schema.join(&right_schema.as_nullable()),
        };
        let predicate = lower(on, &Scope::Rows(&concat))?;
        require_boolean(&predicate, "JOIN ON")?;
        let condition = split_join_condition(predicate, left_schema.arity());
        Ok(LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            join_type,
            condition,
            schema: concat,
        })
    }

    fn plan_projection(&self, stmt: &SelectStatement, input: LogicalPlan) -> Result<LogicalPlan> {
        let scope = Scope::Rows(input.schema());
        let visible = select_list(stmt, &scope)?;
        let order = order_keys(stmt, &visible, &scope)?;
        Ok(assemble(input, visible, order, stmt))
    }

    fn plan_aggregate(&self, stmt: &SelectStatement, input: LogicalPlan) -> Result<LogicalPlan> {
        let input_schema = input.schema();

        // Group keys.
        let mut group_by: Vec<(ScalarExpr, Arc<str>)> = Vec::new();
        for g in &stmt.group_by {
            if g.contains_aggregate() {
                return Err(EngineError::InvalidQuery(
                    "aggregate function in GROUP BY".into(),
                ));
            }
            let compiled = lower(g, &Scope::Rows(input_schema))?;
            let name = output_name(g, None, &compiled);
            group_by.push((compiled, name));
        }

        // Aggregate calls from SELECT, HAVING and ORDER BY.
        let mut aggregates: Vec<AggCall> = Vec::new();
        let mut collect =
            |e: &AstExpr| -> Result<()> { collect_aggregates(e, input_schema, &mut aggregates) };
        for item in &stmt.items {
            match item {
                SelectItem::Expr { expr, .. } => collect(expr)?,
                _ => {
                    return Err(EngineError::InvalidQuery(
                        "wildcard in aggregate query".into(),
                    ));
                }
            }
        }
        if let Some(h) = &stmt.having {
            collect(h)?;
        }
        for o in &stmt.order_by {
            collect(&o.expr)?;
        }

        let schema = aggregate_schema(&group_by, &aggregates);
        let scope = Scope::Groups {
            input: input_schema,
            keys: &group_by,
            key_asts: &stmt.group_by,
            aggregates: &aggregates,
            output: &schema,
        };
        let having = match &stmt.having {
            Some(h) => {
                let predicate = lower(h, &scope)?;
                require_boolean(&predicate, "HAVING")?;
                Some(predicate)
            }
            None => None,
        };
        let visible = select_list(stmt, &scope)?;
        let order = order_keys(stmt, &visible, &scope)?;

        // The scope is done with the input's schema and the group keys:
        // the aggregate node takes them over.
        let mut plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            group_by,
            aggregates,
            schema,
        };
        if let Some(predicate) = having {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }
        Ok(assemble(plan, visible, order, stmt))
    }
}

/// What an expression's column references and aggregate calls resolve
/// against.
enum Scope<'a> {
    /// An input's rows: a column resolves by name, and an aggregate call
    /// is rejected.
    Rows(&'a PlanSchema),
    /// An aggregate's output (SELECT list, HAVING and ORDER BY of an
    /// aggregate query): a whole expression equal to a GROUP BY key, or an
    /// aggregate call, is the output column it became, and any other
    /// column is rejected.
    Groups {
        input: &'a PlanSchema,
        keys: &'a [(ScalarExpr, Arc<str>)],
        key_asts: &'a [AstExpr],
        aggregates: &'a [AggCall],
        output: &'a PlanSchema,
    },
}

impl Scope<'_> {
    fn column(&self, c: &ast::ColumnRef) -> Result<ScalarExpr> {
        match self {
            Scope::Rows(schema) => {
                let index = schema.resolve(c.table.as_deref(), &c.column)?;
                column_at(schema, index).ok_or_else(|| EngineError::UnknownColumn(c.to_string()))
            }
            Scope::Groups { .. } => Err(EngineError::InvalidQuery(format!(
                "column '{c}' must appear in GROUP BY or inside an aggregate"
            ))),
        }
    }

    /// The aggregate output column `expr` denotes as a whole, if any. A
    /// GROUP BY key matches as written or lowered over the input, so
    /// `country` and `c.country` unify.
    fn group_output(&self, expr: &AstExpr) -> Result<Option<ScalarExpr>> {
        let Scope::Groups {
            input,
            keys,
            key_asts,
            aggregates,
            output,
        } = self
        else {
            return Ok(None);
        };
        let key = match key_asts.iter().position(|g| g == expr) {
            Some(i) => Some(i),
            None if expr.contains_aggregate() => None,
            None => (lower(expr, &Scope::Rows(input)).ok())
                .and_then(|lowered| keys.iter().position(|(g, _)| *g == lowered)),
        };
        if let Some(column) = key.and_then(|i| column_at(output, i)) {
            return Ok(Some(column));
        }
        match expr {
            AstExpr::Function { name, .. } if ast::is_aggregate_name(name) => {
                let key = expr.to_string();
                (aggregates.iter().position(|a| *a.output_name == key))
                    .and_then(|pos| column_at(output, keys.len() + pos))
                    .map(Some)
                    .ok_or_else(|| {
                        EngineError::InvalidQuery(format!("aggregate {key} was not collected"))
                    })
            }
            _ => Ok(None),
        }
    }
}

/// Lowers an AST expression over `scope`. The structural arms are written
/// once; a scope decides only what a column reference and a whole
/// group-key or aggregate expression become.
fn lower(expr: &AstExpr, scope: &Scope<'_>) -> Result<ScalarExpr> {
    if let Some(column) = scope.group_output(expr)? {
        return Ok(column);
    }
    let sub = |e: &AstExpr| lower(e, scope).map(Box::new);
    Ok(match expr {
        AstExpr::Column(c) => scope.column(c)?,
        AstExpr::Literal(l) => ScalarExpr::Literal(literal_value(l)),
        AstExpr::Unary { op, expr } => ScalarExpr::Unary {
            op: *op,
            expr: sub(expr)?,
        },
        AstExpr::Binary { left, op, right } => {
            let l = lower(left, scope)?;
            let r = lower(right, scope)?;
            check_binary_types(&l, *op, &r)?;
            ScalarExpr::Binary {
                left: Box::new(l),
                op: *op,
                right: Box::new(r),
            }
        }
        // Over groups, every aggregate call resolved above.
        AstExpr::Function { name, .. } if ast::is_aggregate_name(name) => {
            return Err(EngineError::InvalidQuery(format!(
                "aggregate {name} not allowed here"
            )));
        }
        AstExpr::Function { name, .. } => {
            return Err(EngineError::InvalidQuery(format!(
                "unknown function {name}"
            )));
        }
        AstExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
            expr: sub(expr)?,
            negated: *negated,
        },
        AstExpr::InList {
            expr,
            list,
            negated,
        } => ScalarExpr::InList {
            expr: sub(expr)?,
            list: (list.iter())
                .map(|e| lower(e, scope))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        AstExpr::Between {
            expr,
            low,
            high,
            negated,
        } => ScalarExpr::Between {
            expr: sub(expr)?,
            low: sub(low)?,
            high: sub(high)?,
            negated: *negated,
        },
        AstExpr::Like {
            expr,
            pattern,
            negated,
        } => ScalarExpr::Like {
            expr: sub(expr)?,
            pattern: sub(pattern)?,
            negated: *negated,
        },
    })
}

/// The SELECT list lowered over `scope`, a wildcard expanded over the
/// input's columns.
fn select_list<'s>(stmt: &'s SelectStatement, scope: &Scope<'_>) -> Result<Vec<Visible<'s>>> {
    // An aggregate query rejected its wildcards while collecting its
    // aggregate calls.
    let columns = || match scope {
        Scope::Rows(schema) => Ok(schema.columns.iter().enumerate()),
        Scope::Groups { .. } => Err(EngineError::InvalidQuery(
            "wildcard in aggregate query".into(),
        )),
    };
    let mut visible: Vec<Visible<'s>> = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                for (i, c) in columns()? {
                    visible.push((column_expr(i, c), Arc::clone(&c.name), None));
                }
            }
            SelectItem::QualifiedWildcard(binding) => {
                let mut any = false;
                for (i, c) in columns()? {
                    if c.binding
                        .as_deref()
                        .is_some_and(|b| b.eq_ignore_ascii_case(binding))
                    {
                        visible.push((column_expr(i, c), Arc::clone(&c.name), None));
                        any = true;
                    }
                }
                if !any {
                    return Err(EngineError::UnknownTable(binding.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let compiled = lower(expr, scope)?;
                let name = output_name(expr, alias.as_deref(), &compiled);
                visible.push((compiled, name, alias.as_deref()));
            }
        }
    }
    Ok(visible)
}

/// Resolves the ORDER BY keys: an unqualified name that is a visible
/// column's alias sorts by that column; any other key is lowered over
/// `scope` and sorts by an equal visible column, or else by a hidden one.
fn order_keys(stmt: &SelectStatement, visible: &[Visible<'_>], scope: &Scope<'_>) -> Result<Order> {
    let mut hidden: Vec<(ScalarExpr, Arc<str>)> = Vec::new();
    let mut sort_keys = Vec::new();
    for o in &stmt.order_by {
        let aliased = match &o.expr {
            AstExpr::Column(c) if c.table.is_none() => (visible.iter())
                .find(|(_, _, alias)| alias.is_some_and(|a| a.eq_ignore_ascii_case(&c.column))),
            _ => None,
        };
        let key = match aliased {
            Some((e, _, _)) => e.clone(),
            None => lower(&o.expr, scope)?,
        };
        let index = match visible.iter().position(|(e, _, _)| *e == key) {
            Some(i) => i,
            None => {
                hidden.push((key, format!("__sort_{}", hidden.len()).into()));
                visible.len() + hidden.len() - 1
            }
        };
        sort_keys.push(SortKey {
            index,
            direction: o.direction,
        });
    }
    if stmt.distinct && !hidden.is_empty() {
        return Err(EngineError::InvalidQuery(
            "for SELECT DISTINCT, ORDER BY expressions must appear in the select list".into(),
        ));
    }
    Ok((sort_keys, hidden))
}

/// Shared tail: Project(visible ++ hidden) → Distinct? → Sort? → Limit? →
/// strip-Project (drop hidden columns).
fn assemble(
    input: LogicalPlan,
    visible: Vec<Visible<'_>>,
    (sort_keys, hidden): Order,
    stmt: &SelectStatement,
) -> LogicalPlan {
    let visible_len = visible.len();
    let mut exprs: Vec<(ScalarExpr, Arc<str>)> =
        visible.into_iter().map(|(e, n, _)| (e, n)).collect();
    exprs.extend(hidden);

    let cols: Vec<PlanColumn> = exprs
        .iter()
        .map(|(e, n)| {
            let binding = match e {
                ScalarExpr::Column(c) => c.binding.clone(),
                _ => None,
            };
            PlanColumn {
                binding,
                name: Arc::clone(n),
                data_type: e.data_type(),
                nullable: true,
            }
        })
        .collect();
    // With hidden sort columns, a final projection keeps the visible ones.
    let strip = (exprs.len() > visible_len).then(|| {
        let visible_cols: Vec<PlanColumn> = cols.iter().take(visible_len).cloned().collect();
        let exprs: Vec<(ScalarExpr, Arc<str>)> = (visible_cols.iter().enumerate())
            .map(|(i, c)| (column_expr(i, c), Arc::clone(&c.name)))
            .collect();
        (exprs, PlanSchema::new(visible_cols))
    });

    let mut plan = LogicalPlan::Project {
        input: Box::new(input),
        exprs,
        schema: PlanSchema::new(cols),
    };
    if stmt.distinct {
        plan = LogicalPlan::Distinct {
            input: Box::new(plan),
        };
    }
    if !sort_keys.is_empty() {
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys: sort_keys,
        };
    }
    if let Some(n) = stmt.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            n,
            offset: stmt.offset.unwrap_or(0),
        };
    }
    if let Some((exprs, schema)) = strip {
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs,
            schema,
        };
    }
    plan
}

fn column_expr(index: usize, c: &PlanColumn) -> ScalarExpr {
    ScalarExpr::Column(ResolvedColumn {
        index,
        binding: c.binding.clone(),
        name: c.name.clone(),
        data_type: c.data_type,
    })
}

/// A reference to `schema`'s column `index`, if it has one.
fn column_at(schema: &PlanSchema, index: usize) -> Option<ScalarExpr> {
    (schema.columns.get(index)).map(|c| column_expr(index, c))
}

/// The output name of a select-list or group-by expression: its alias,
/// else a column reference's name as written — the resolved column's own
/// text when spelled the same — else the expression's SQL text.
fn output_name(expr: &AstExpr, alias: Option<&str>, compiled: &ScalarExpr) -> Arc<str> {
    match (alias, expr, compiled) {
        (Some(alias), _, _) => alias.into(),
        (None, AstExpr::Column(c), ScalarExpr::Column(r)) if *r.name == *c.column => {
            Arc::clone(&r.name)
        }
        (None, AstExpr::Column(c), _) => c.column.as_str().into(),
        (None, other, _) => other.to_string().into(),
    }
}

fn require_boolean(expr: &ScalarExpr, clause: &str) -> Result<()> {
    if expr.data_type() == crate::value::DataType::Bool {
        Ok(())
    } else {
        Err(EngineError::TypeMismatch(format!(
            "{clause} must be a boolean expression"
        )))
    }
}

fn literal_value(l: &ast::Literal) -> crate::value::Value {
    use crate::value::Value;
    match l {
        ast::Literal::Integer(v) => Value::Int(*v),
        ast::Literal::Float(v) => Value::Float(*v),
        ast::Literal::String(s) => Value::Text(s.clone()),
        ast::Literal::Boolean(b) => Value::Bool(*b),
        ast::Literal::Null => Value::Null,
    }
}

fn check_binary_types(l: &ScalarExpr, op: galois_sql::ast::BinaryOp, r: &ScalarExpr) -> Result<()> {
    use crate::value::DataType::*;
    use galois_sql::ast::BinaryOp as B;
    let lt = l.data_type();
    let rt = r.data_type();
    // NULL literals type as Text by default; skip static checks when either
    // side is a bare NULL literal.
    let null_involved = matches!(l, ScalarExpr::Literal(v) if v.is_null())
        || matches!(r, ScalarExpr::Literal(v) if v.is_null());
    if null_involved {
        return Ok(());
    }
    let ok = match op {
        B::And | B::Or => lt == Bool && rt == Bool,
        B::Add | B::Sub | B::Mul | B::Div => lt.is_numeric() && rt.is_numeric(),
        B::Mod => lt == Int && rt == Int,
        _ if op.is_comparison() => lt == rt || (lt.is_numeric() && rt.is_numeric()),
        _ => true,
    };
    if ok {
        Ok(())
    } else {
        Err(EngineError::TypeMismatch(format!(
            "operator {op} cannot combine {lt} and {rt}"
        )))
    }
}

/// Splits a join predicate (over the concatenated schema) into equi pairs
/// and a residual, with each equi side remapped to its own input.
pub(crate) fn split_join_condition(predicate: ScalarExpr, left_arity: usize) -> JoinCondition {
    let mut equi = Vec::new();
    let mut residual: Option<ScalarExpr> = None;
    for conj in split_conjuncts(predicate) {
        match try_equi(&conj, left_arity) {
            Some(pair) => equi.push(pair),
            None => {
                residual = Some(match residual {
                    None => conj,
                    Some(prev) => ScalarExpr::Binary {
                        left: Box::new(prev),
                        op: galois_sql::ast::BinaryOp::And,
                        right: Box::new(conj),
                    },
                });
            }
        }
    }
    JoinCondition { equi, residual }
}

/// Flattens nested ANDs into a conjunct list.
pub fn split_conjuncts(expr: ScalarExpr) -> Vec<ScalarExpr> {
    match expr {
        ScalarExpr::Binary {
            left,
            op: galois_sql::ast::BinaryOp::And,
            right,
        } => {
            let mut v = split_conjuncts(*left);
            v.extend(split_conjuncts(*right));
            v
        }
        other => vec![other],
    }
}

fn try_equi(conj: &ScalarExpr, left_arity: usize) -> Option<(ScalarExpr, ScalarExpr)> {
    let ScalarExpr::Binary {
        left,
        op: galois_sql::ast::BinaryOp::Eq,
        right,
    } = conj
    else {
        return None;
    };
    let l_refs = left.referenced_indices();
    let r_refs = right.referenced_indices();
    if l_refs.is_empty() || r_refs.is_empty() {
        return None;
    }
    let all_left = |v: &[usize]| v.iter().all(|&i| i < left_arity);
    let all_right = |v: &[usize]| v.iter().all(|&i| i >= left_arity);
    if all_left(&l_refs) && all_right(&r_refs) {
        Some(((**left).clone(), right.remap_indices(&|i| i - left_arity)))
    } else if all_right(&l_refs) && all_left(&r_refs) {
        Some(((**right).clone(), left.remap_indices(&|i| i - left_arity)))
    } else {
        None
    }
}

fn collect_aggregates(
    expr: &AstExpr,
    input_schema: &PlanSchema,
    out: &mut Vec<AggCall>,
) -> Result<()> {
    match expr {
        AstExpr::Function {
            name,
            distinct,
            args,
        } if ast::is_aggregate_name(name) => {
            let Some(func) = AggFunc::from_name(name) else {
                return Err(EngineError::InvalidQuery(format!(
                    "unknown aggregate function {name}"
                )));
            };
            let key = expr.to_string();
            if out.iter().any(|a| *a.output_name == key) {
                return Ok(());
            }
            let arg = match args {
                FunctionArgs::Star => {
                    if func != AggFunc::Count {
                        return Err(EngineError::InvalidQuery(format!("{name}(*) is not valid")));
                    }
                    None
                }
                FunctionArgs::Exprs(exprs) => {
                    let [arg] = exprs.as_slice() else {
                        return Err(EngineError::InvalidQuery(format!(
                            "{name} takes exactly one argument"
                        )));
                    };
                    if arg.contains_aggregate() {
                        return Err(EngineError::InvalidQuery(
                            "nested aggregate functions".into(),
                        ));
                    }
                    Some(lower(arg, &Scope::Rows(input_schema))?)
                }
            };
            if let Some(a) = &arg {
                let at = a.data_type();
                if matches!(func, AggFunc::Sum | AggFunc::Avg) && !at.is_numeric() {
                    return Err(EngineError::TypeMismatch(format!(
                        "{name} expects a numeric argument, got {at}"
                    )));
                }
            }
            out.push(AggCall {
                func,
                arg,
                distinct: *distinct,
                output_name: key.into(),
            });
            Ok(())
        }
        _ => {
            // Recurse into children looking for aggregates.
            let mut result = Ok(());
            expr.walk(&mut |e| {
                if result.is_err() || std::ptr::eq(e, expr) {
                    return;
                }
                if let AstExpr::Function { name, .. } = e {
                    if ast::is_aggregate_name(name) {
                        result = collect_aggregates(e, input_schema, out);
                    }
                }
            });
            result
        }
    }
}
