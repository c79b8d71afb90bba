//! Plan builder: resolves an AST [`SelectStatement`] against a catalog and
//! produces a [`LogicalPlan`].
//!
//! The builder performs name resolution, type checking, aggregate
//! extraction and the SELECT-list/ORDER-BY rewrite. Sorting happens over a
//! projection that may carry *hidden* columns (sort keys not in the SELECT
//! list); a final projection strips them.

use crate::error::{EngineError, Result};
use crate::expr::{ResolvedColumn, ScalarExpr};
use crate::plan::{aggregate_schema, AggCall, AggFunc, JoinCondition, LogicalPlan, SortKey};
use crate::schema::{PlanColumn, PlanSchema};
use crate::table::Catalog;
use galois_sql::ast::{self, Expr as AstExpr, FunctionArgs, JoinType, SelectItem, SelectStatement};

/// Plans a SELECT statement against `catalog`.
pub fn plan_select(stmt: &SelectStatement, catalog: &Catalog) -> Result<LogicalPlan> {
    Builder { catalog }.plan(stmt)
}

struct Builder<'a> {
    catalog: &'a Catalog,
}

impl<'a> Builder<'a> {
    fn plan(&self, stmt: &SelectStatement) -> Result<LogicalPlan> {
        if stmt.from.is_empty() {
            return self.plan_table_less(stmt);
        }

        // FROM: comma-separated relations become cross joins.
        let mut plan = self.scan(&stmt.from[0])?;
        self.check_unique_bindings(stmt)?;
        for t in &stmt.from[1..] {
            let right = self.scan(t)?;
            let schema = plan.schema().join(&right.schema());
            plan = LogicalPlan::CrossJoin {
                left: Box::new(plan),
                right: Box::new(right),
                schema,
            };
        }

        // Explicit JOIN … ON clauses.
        for join in &stmt.joins {
            let right = self.scan(&join.table)?;
            plan = self.build_join(plan, right, join.join_type, &join.on)?;
        }

        // WHERE.
        if let Some(w) = &stmt.where_clause {
            let predicate = compile_expr(w, &plan.schema(), ExprContext::Scalar)?;
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

    /// `SELECT 1 + 2` style statements: a single empty row flows through a
    /// projection. Modelled as a scan-less project.
    fn plan_table_less(&self, stmt: &SelectStatement) -> Result<LogicalPlan> {
        let empty = PlanSchema::default();
        let mut exprs = Vec::new();
        let mut cols = Vec::new();
        for item in &stmt.items {
            match item {
                SelectItem::Expr { expr, alias } => {
                    let compiled = compile_expr(expr, &empty, ExprContext::Scalar)?;
                    let name = alias.clone().unwrap_or_else(|| expr.to_string());
                    cols.push(PlanColumn::computed(name.clone(), compiled.data_type()));
                    exprs.push((compiled, name));
                }
                _ => {
                    return Err(EngineError::InvalidQuery(
                        "wildcard without FROM clause".into(),
                    ));
                }
            }
        }
        // A scan with an empty table name is the "dual" relation: the
        // executor produces a single empty row for it.
        Ok(LogicalPlan::Project {
            input: Box::new(LogicalPlan::Scan {
                table: String::new(),
                binding: String::new(),
                source: None,
                schema: PlanSchema::default(),
                key_index: 0,
            }),
            exprs,
            schema: PlanSchema::new(cols),
        })
    }

    fn check_unique_bindings(&self, stmt: &SelectStatement) -> Result<()> {
        let mut seen = std::collections::HashSet::new();
        for t in stmt.tables() {
            if !seen.insert(t.binding().to_ascii_lowercase()) {
                return Err(EngineError::InvalidQuery(format!(
                    "duplicate table binding '{}'",
                    t.binding()
                )));
            }
        }
        Ok(())
    }

    fn scan(&self, t: &ast::TableRef) -> Result<LogicalPlan> {
        let table = self.catalog.get(&t.name)?;
        let binding = t.binding().to_string();
        Ok(LogicalPlan::Scan {
            // The table's own spelling of its name. Plans are bound against
            // catalogs of tables registered under their own names; a table
            // shared under another one (`Catalog::add_shared`) is reached
            // only by scans that already carry the registered name.
            table: table.name.clone(),
            binding: binding.clone(),
            source: t.source,
            schema: table.plan_schema(&binding),
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
        let left_schema = left.schema();
        let right_schema = right.schema();
        let concat = match join_type {
            JoinType::Inner => left_schema.join(&right_schema),
            JoinType::LeftOuter => left_schema.join(&right_schema.as_nullable()),
        };
        let predicate = compile_expr(on, &concat, ExprContext::Scalar)?;
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
        let input_schema = input.schema();

        // Expand the SELECT list.
        let mut visible: Vec<(ScalarExpr, String, Option<String>)> = Vec::new();
        for item in &stmt.items {
            match item {
                SelectItem::Wildcard => {
                    for (i, c) in input_schema.columns.iter().enumerate() {
                        visible.push((column_expr(i, c), c.name.clone(), None));
                    }
                }
                SelectItem::QualifiedWildcard(binding) => {
                    let mut any = false;
                    for (i, c) in input_schema.columns.iter().enumerate() {
                        if c.binding
                            .as_deref()
                            .is_some_and(|b| b.eq_ignore_ascii_case(binding))
                        {
                            visible.push((column_expr(i, c), c.name.clone(), None));
                            any = true;
                        }
                    }
                    if !any {
                        return Err(EngineError::UnknownTable(binding.clone()));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let compiled = compile_expr(expr, &input_schema, ExprContext::Scalar)?;
                    let name = alias.clone().unwrap_or_else(|| default_name(expr));
                    visible.push((compiled, name, alias.clone()));
                }
            }
        }

        // ORDER BY keys: reuse a visible column when possible, otherwise
        // append a hidden one.
        let mut hidden: Vec<(ScalarExpr, String)> = Vec::new();
        let mut sort_keys = Vec::new();
        for o in &stmt.order_by {
            let compiled = self.resolve_order_key(&o.expr, &visible, &input_schema, None)?;
            let index = match visible.iter().position(|(e, _, _)| *e == compiled) {
                Some(i) => i,
                None => {
                    let idx = visible.len() + hidden.len();
                    hidden.push((compiled, format!("__sort_{}", hidden.len())));
                    idx
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

        Ok(assemble(input, visible, hidden, sort_keys, stmt))
    }

    fn plan_aggregate(&self, stmt: &SelectStatement, input: LogicalPlan) -> Result<LogicalPlan> {
        let input_schema = input.schema();

        // Group keys.
        let mut group_by: Vec<(ScalarExpr, String)> = Vec::new();
        let mut group_asts: Vec<AstExpr> = Vec::new();
        for g in &stmt.group_by {
            if g.contains_aggregate() {
                return Err(EngineError::InvalidQuery(
                    "aggregate function in GROUP BY".into(),
                ));
            }
            let compiled = compile_expr(g, &input_schema, ExprContext::Scalar)?;
            group_by.push((compiled, default_name(g)));
            group_asts.push(g.clone());
        }

        // Aggregate calls from SELECT, HAVING and ORDER BY.
        let mut calls: Vec<(String, AggCall)> = Vec::new();
        let mut collect =
            |e: &AstExpr| -> Result<()> { collect_aggregates(e, &input_schema, &mut calls) };
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

        let aggregates: Vec<AggCall> = calls.iter().map(|(_, c)| c.clone()).collect();
        let agg_keys: Vec<String> = calls.into_iter().map(|(k, _)| k).collect();
        let schema = aggregate_schema(&group_by, &aggregates);
        let mut plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            group_by: group_by.clone(),
            aggregates,
            schema: schema.clone(),
        };

        let rewriter = PostAggRewriter {
            input_schema: &input_schema,
            group_by: &group_by,
            group_asts: &group_asts,
            agg_keys: &agg_keys,
            agg_schema: &schema,
        };

        // HAVING.
        if let Some(h) = &stmt.having {
            let predicate = rewriter.rewrite(h)?;
            require_boolean(&predicate, "HAVING")?;
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        // SELECT list over the aggregate output.
        let mut visible: Vec<(ScalarExpr, String, Option<String>)> = Vec::new();
        for item in &stmt.items {
            if let SelectItem::Expr { expr, alias } = item {
                let compiled = rewriter.rewrite(expr)?;
                let name = alias.clone().unwrap_or_else(|| default_name(expr));
                visible.push((compiled, name, alias.clone()));
            }
        }

        // ORDER BY.
        let mut hidden: Vec<(ScalarExpr, String)> = Vec::new();
        let mut sort_keys = Vec::new();
        for o in &stmt.order_by {
            let compiled = self.resolve_order_key(&o.expr, &visible, &schema, Some(&rewriter))?;
            let index = match visible.iter().position(|(e, _, _)| *e == compiled) {
                Some(i) => i,
                None => {
                    let idx = visible.len() + hidden.len();
                    hidden.push((compiled, format!("__sort_{}", hidden.len())));
                    idx
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

        Ok(assemble(plan, visible, hidden, sort_keys, stmt))
    }

    /// Resolves an ORDER BY expression: an alias of a visible column wins,
    /// then ordinary compilation (post-aggregate rewrite in agg queries).
    fn resolve_order_key(
        &self,
        expr: &AstExpr,
        visible: &[(ScalarExpr, String, Option<String>)],
        schema: &PlanSchema,
        rewriter: Option<&PostAggRewriter<'_>>,
    ) -> Result<ScalarExpr> {
        if let AstExpr::Column(c) = expr {
            if c.table.is_none() {
                if let Some((e, _, _)) = visible.iter().find(|(_, _, alias)| {
                    alias
                        .as_deref()
                        .is_some_and(|a| a.eq_ignore_ascii_case(&c.column))
                }) {
                    return Ok(e.clone());
                }
            }
        }
        match rewriter {
            Some(r) => r.rewrite(expr),
            None => compile_expr(expr, schema, ExprContext::Scalar),
        }
    }
}

/// Shared tail: Project(visible ++ hidden) → Distinct? → Sort? → Limit? →
/// strip-Project (drop hidden columns).
fn assemble(
    input: LogicalPlan,
    visible: Vec<(ScalarExpr, String, Option<String>)>,
    hidden: Vec<(ScalarExpr, String)>,
    sort_keys: Vec<SortKey>,
    stmt: &SelectStatement,
) -> LogicalPlan {
    let visible_len = visible.len();
    let mut exprs: Vec<(ScalarExpr, String)> =
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
                name: n.clone(),
                data_type: e.data_type(),
                nullable: true,
            }
        })
        .collect();
    let full_schema = PlanSchema::new(cols);
    let stripped_schema = PlanSchema::new(full_schema.columns[..visible_len].to_vec());
    let had_hidden = exprs.len() > visible_len;

    let mut plan = LogicalPlan::Project {
        input: Box::new(input),
        exprs,
        schema: full_schema.clone(),
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
    if had_hidden {
        let strip: Vec<(ScalarExpr, String)> = full_schema.columns[..visible_len]
            .iter()
            .enumerate()
            .map(|(i, c)| (column_expr(i, c), c.name.clone()))
            .collect();
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs: strip,
            schema: stripped_schema,
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

fn default_name(expr: &AstExpr) -> String {
    match expr {
        AstExpr::Column(c) => c.column.clone(),
        other => other.to_string(),
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

/// What kind of expression is being compiled (controls aggregate rejection).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum ExprContext {
    /// Plain scalar context — aggregates are rejected.
    Scalar,
}

/// Compiles an AST expression against a schema (no aggregates allowed).
pub fn compile_expr(expr: &AstExpr, schema: &PlanSchema, _ctx: ExprContext) -> Result<ScalarExpr> {
    match expr {
        AstExpr::Column(c) => {
            let idx = schema.resolve(c.table.as_deref(), &c.column)?;
            Ok(column_expr(idx, &schema.columns[idx]))
        }
        AstExpr::Literal(l) => Ok(ScalarExpr::Literal(literal_value(l))),
        AstExpr::Unary { op, expr } => Ok(ScalarExpr::Unary {
            op: *op,
            expr: Box::new(compile_expr(expr, schema, _ctx)?),
        }),
        AstExpr::Binary { left, op, right } => {
            let l = compile_expr(left, schema, _ctx)?;
            let r = compile_expr(right, schema, _ctx)?;
            check_binary_types(&l, *op, &r)?;
            Ok(ScalarExpr::Binary {
                left: Box::new(l),
                op: *op,
                right: Box::new(r),
            })
        }
        AstExpr::Function { name, .. } => {
            if ast::is_aggregate_name(name) {
                Err(EngineError::InvalidQuery(format!(
                    "aggregate {name} not allowed here"
                )))
            } else {
                Err(EngineError::InvalidQuery(format!(
                    "unknown function {name}"
                )))
            }
        }
        AstExpr::IsNull { expr, negated } => Ok(ScalarExpr::IsNull {
            expr: Box::new(compile_expr(expr, schema, _ctx)?),
            negated: *negated,
        }),
        AstExpr::InList {
            expr,
            list,
            negated,
        } => Ok(ScalarExpr::InList {
            expr: Box::new(compile_expr(expr, schema, _ctx)?),
            list: list
                .iter()
                .map(|e| compile_expr(e, schema, _ctx))
                .collect::<Result<_>>()?,
            negated: *negated,
        }),
        AstExpr::Between {
            expr,
            low,
            high,
            negated,
        } => Ok(ScalarExpr::Between {
            expr: Box::new(compile_expr(expr, schema, _ctx)?),
            low: Box::new(compile_expr(low, schema, _ctx)?),
            high: Box::new(compile_expr(high, schema, _ctx)?),
            negated: *negated,
        }),
        AstExpr::Like {
            expr,
            pattern,
            negated,
        } => Ok(ScalarExpr::Like {
            expr: Box::new(compile_expr(expr, schema, _ctx)?),
            pattern: Box::new(compile_expr(pattern, schema, _ctx)?),
            negated: *negated,
        }),
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
pub fn split_join_condition(predicate: ScalarExpr, left_arity: usize) -> JoinCondition {
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
    out: &mut Vec<(String, AggCall)>,
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
            if out.iter().any(|(k, _)| k == &key) {
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
                    if exprs.len() != 1 {
                        return Err(EngineError::InvalidQuery(format!(
                            "{name} takes exactly one argument"
                        )));
                    }
                    if exprs[0].contains_aggregate() {
                        return Err(EngineError::InvalidQuery(
                            "nested aggregate functions".into(),
                        ));
                    }
                    Some(compile_expr(&exprs[0], input_schema, ExprContext::Scalar)?)
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
            out.push((
                key.clone(),
                AggCall {
                    func,
                    arg,
                    distinct: *distinct,
                    output_name: key,
                },
            ));
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

/// Rewrites post-aggregation expressions (SELECT list, HAVING, ORDER BY of
/// an aggregate query) against the aggregate's output schema.
struct PostAggRewriter<'a> {
    input_schema: &'a PlanSchema,
    group_by: &'a [(ScalarExpr, String)],
    group_asts: &'a [AstExpr],
    agg_keys: &'a [String],
    agg_schema: &'a PlanSchema,
}

impl PostAggRewriter<'_> {
    fn rewrite(&self, expr: &AstExpr) -> Result<ScalarExpr> {
        // 1. A whole expression that matches a GROUP BY key becomes a
        //    column reference into the aggregate output.
        if let Some(i) = self.match_group_key(expr)? {
            return Ok(column_expr(i, &self.agg_schema.columns[i]));
        }
        // 2. An aggregate call resolves to its output column.
        if let AstExpr::Function { name, .. } = expr {
            if ast::is_aggregate_name(name) {
                let key = expr.to_string();
                let pos = (self.agg_keys.iter().position(|k| k == &key)).ok_or_else(|| {
                    EngineError::InvalidQuery(format!("aggregate {key} was not collected"))
                })?;
                let i = self.group_by.len() + pos;
                return Ok(column_expr(i, &self.agg_schema.columns[i]));
            }
        }
        // 3. Otherwise recurse structurally.
        match expr {
            AstExpr::Column(c) => Err(EngineError::InvalidQuery(format!(
                "column '{}' must appear in GROUP BY or inside an aggregate",
                c
            ))),
            AstExpr::Literal(l) => Ok(ScalarExpr::Literal(literal_value(l))),
            AstExpr::Unary { op, expr } => Ok(ScalarExpr::Unary {
                op: *op,
                expr: Box::new(self.rewrite(expr)?),
            }),
            AstExpr::Binary { left, op, right } => {
                let l = self.rewrite(left)?;
                let r = self.rewrite(right)?;
                check_binary_types(&l, *op, &r)?;
                Ok(ScalarExpr::Binary {
                    left: Box::new(l),
                    op: *op,
                    right: Box::new(r),
                })
            }
            // Step 2 returned every aggregate call: this one is no function
            // the engine knows.
            AstExpr::Function { name, .. } => Err(EngineError::InvalidQuery(format!(
                "unknown function {name}"
            ))),
            AstExpr::IsNull { expr, negated } => Ok(ScalarExpr::IsNull {
                expr: Box::new(self.rewrite(expr)?),
                negated: *negated,
            }),
            AstExpr::InList {
                expr,
                list,
                negated,
            } => Ok(ScalarExpr::InList {
                expr: Box::new(self.rewrite(expr)?),
                list: list
                    .iter()
                    .map(|e| self.rewrite(e))
                    .collect::<Result<_>>()?,
                negated: *negated,
            }),
            AstExpr::Between {
                expr,
                low,
                high,
                negated,
            } => Ok(ScalarExpr::Between {
                expr: Box::new(self.rewrite(expr)?),
                low: Box::new(self.rewrite(low)?),
                high: Box::new(self.rewrite(high)?),
                negated: *negated,
            }),
            AstExpr::Like {
                expr,
                pattern,
                negated,
            } => Ok(ScalarExpr::Like {
                expr: Box::new(self.rewrite(expr)?),
                pattern: Box::new(self.rewrite(pattern)?),
                negated: *negated,
            }),
        }
    }

    /// Does `expr` denote one of the GROUP BY keys? Compared by compiling
    /// against the *input* schema, so `country` and `c.country` unify.
    fn match_group_key(&self, expr: &AstExpr) -> Result<Option<usize>> {
        // Cheap syntactic check first.
        for (i, g) in self.group_asts.iter().enumerate() {
            if g == expr {
                return Ok(Some(i));
            }
        }
        if expr.contains_aggregate() {
            return Ok(None);
        }
        let Ok(compiled) = compile_expr(expr, self.input_schema, ExprContext::Scalar) else {
            return Ok(None);
        };
        for (i, (g, _)) in self.group_by.iter().enumerate() {
            if *g == compiled {
                return Ok(Some(i));
            }
        }
        Ok(None)
    }
}
