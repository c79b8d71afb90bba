//! Rule-based logical optimizer.
//!
//! Three rewrite rules, applied bottom-up to a fixed point:
//!
//! 1. **Filter merge** — `Filter(Filter(x))` becomes one conjunctive filter.
//! 2. **Predicate pushdown** — conjuncts of a filter above a cross/inner
//!    join move to the side they reference.
//! 3. **Join extraction** — equi conjuncts left above a `CrossJoin` turn it
//!    into a hash `Join` (the paper's comma-join queries rely on this).
//!
//! Pushdown matters twice here: classically for the relational executor,
//! and for Galois because predicates sitting directly above a scan are the
//! candidates for prompt pushdown (paper §6 "Query optimization").

use crate::builder::{split_conjuncts, split_join_condition};
use crate::expr::ScalarExpr;
use crate::plan::LogicalPlan;
use galois_sql::ast::{BinaryOp, JoinType};

/// Optimizes a logical plan.
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    let mut plan = plan;
    // The rule set strictly reduces the number of Filter/CrossJoin nodes,
    // so a small fixed iteration bound suffices.
    for _ in 0..8 {
        let next = rewrite(plan.clone());
        if next == plan {
            return next;
        }
        plan = next;
    }
    plan
}

fn rewrite(plan: LogicalPlan) -> LogicalPlan {
    // Bottom-up: rewrite children first.
    let plan = plan.map_children(rewrite);
    match plan {
        LogicalPlan::Filter { input, predicate } => rewrite_filter(*input, predicate),
        other => other,
    }
}

fn and_all(mut conjuncts: Vec<ScalarExpr>) -> Option<ScalarExpr> {
    let first = conjuncts.pop()?;
    Some(
        conjuncts
            .into_iter()
            .rev()
            .fold(first, |acc, c| ScalarExpr::Binary {
                left: Box::new(c),
                op: BinaryOp::And,
                right: Box::new(acc),
            }),
    )
}

fn filter_over(input: LogicalPlan, conjuncts: Vec<ScalarExpr>) -> LogicalPlan {
    match and_all(conjuncts) {
        Some(predicate) => LogicalPlan::Filter {
            input: Box::new(input),
            predicate,
        },
        None => input,
    }
}

fn rewrite_filter(input: LogicalPlan, predicate: ScalarExpr) -> LogicalPlan {
    match input {
        // Rule 1: merge stacked filters.
        LogicalPlan::Filter {
            input: inner,
            predicate: inner_pred,
        } => {
            let mut conjuncts = split_conjuncts(inner_pred);
            conjuncts.extend(split_conjuncts(predicate));
            rewrite(filter_over(*inner, conjuncts))
        }
        // Rules 2+3: push into / convert a cross join.
        LogicalPlan::CrossJoin {
            left,
            right,
            schema,
        } => {
            let left_arity = left.schema().arity();
            let (new_left, new_right, across) = push_to_sides(*left, *right, predicate);
            let Some(combined) = across else {
                return LogicalPlan::CrossJoin {
                    left: Box::new(new_left),
                    right: Box::new(new_right),
                    schema,
                };
            };
            // Extract equi conjuncts from the cross-side predicate. If no
            // hash keys emerge the join keeps a residual-only condition and
            // the executor falls back to a nested loop.
            let condition = split_join_condition(combined, left_arity);
            LogicalPlan::Join {
                left: Box::new(new_left),
                right: Box::new(new_right),
                join_type: JoinType::Inner,
                condition,
                schema,
            }
        }
        // Push a filter above an inner join into the join's sides/condition.
        LogicalPlan::Join {
            left,
            right,
            join_type: JoinType::Inner,
            condition,
            schema,
        } => {
            let left_arity = left.schema().arity();
            let (new_left, new_right, across) = push_to_sides(*left, *right, predicate);
            let mut condition = condition;
            if let Some(extra) = across {
                let extra_cond = split_join_condition(extra, left_arity);
                condition.equi.extend(extra_cond.equi);
                condition.residual = match (condition.residual, extra_cond.residual) {
                    (None, r) => r,
                    (l, None) => l,
                    (Some(l), Some(r)) => Some(ScalarExpr::Binary {
                        left: Box::new(l),
                        op: BinaryOp::And,
                        right: Box::new(r),
                    }),
                };
            }
            LogicalPlan::Join {
                left: Box::new(new_left),
                right: Box::new(new_right),
                join_type: JoinType::Inner,
                condition,
                schema,
            }
        }
        other => LogicalPlan::Filter {
            input: Box::new(other),
            predicate,
        },
    }
}

/// Splits a filter above a join between its two sides: conjuncts reading
/// only the left side are pushed onto it, those reading only the right
/// side onto it (re-indexed), and the rest — reading both sides, or
/// neither — are returned, in order, for the join.
fn push_to_sides(
    left: LogicalPlan,
    right: LogicalPlan,
    predicate: ScalarExpr,
) -> (LogicalPlan, LogicalPlan, Option<ScalarExpr>) {
    let left_arity = left.schema().arity();
    let (mut to_left, mut to_right, mut across) = (Vec::new(), Vec::new(), Vec::new());
    for conj in split_conjuncts(predicate) {
        let refs = conj.referenced_indices();
        if refs.iter().all(|&i| i < left_arity) && !refs.is_empty() {
            to_left.push(conj);
        } else if refs.iter().all(|&i| i >= left_arity) && !refs.is_empty() {
            to_right.push(conj.remap_indices(&|i| i - left_arity));
        } else {
            across.push(conj);
        }
    }
    let pushed = |side: LogicalPlan, conjuncts: Vec<ScalarExpr>| {
        if conjuncts.is_empty() {
            side
        } else {
            rewrite(filter_over(side, conjuncts))
        }
    };
    (
        pushed(left, to_left),
        pushed(right, to_right),
        and_all(across),
    )
}

/// Counts operators of each kind — handy for tests and plan statistics.
pub fn plan_stats(plan: &LogicalPlan) -> PlanStats {
    let mut stats = PlanStats::default();
    fn rec(p: &LogicalPlan, s: &mut PlanStats) {
        match p {
            LogicalPlan::Scan { .. } => s.scans += 1,
            LogicalPlan::Filter { .. } => s.filters += 1,
            LogicalPlan::Project { .. } => s.projects += 1,
            LogicalPlan::Join { .. } => s.joins += 1,
            LogicalPlan::CrossJoin { .. } => s.cross_joins += 1,
            LogicalPlan::Aggregate { .. } => s.aggregates += 1,
            LogicalPlan::Sort { .. } => s.sorts += 1,
            LogicalPlan::Distinct { .. } => s.distincts += 1,
            LogicalPlan::Limit { .. } => s.limits += 1,
        }
        for c in p.children() {
            rec(c, s);
        }
    }
    rec(plan, &mut stats);
    stats
}

/// Operator counts of a plan.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// Number of `Scan` nodes.
    pub scans: usize,
    /// Number of `Filter` nodes.
    pub filters: usize,
    /// Number of `Project` nodes.
    pub projects: usize,
    /// Number of `Join` nodes.
    pub joins: usize,
    /// Number of `CrossJoin` nodes.
    pub cross_joins: usize,
    /// Number of `Aggregate` nodes.
    pub aggregates: usize,
    /// Number of `Sort` nodes.
    pub sorts: usize,
    /// Number of `Distinct` nodes.
    pub distincts: usize,
    /// Number of `Limit` nodes.
    pub limits: usize,
}
