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
    // so a small fixed iteration bound suffices. Every rule that fires
    // reshapes the tree it matched, so a round in which none fired left
    // the plan as it was: the fixed point.
    for _ in 0..8 {
        let mut fired = false;
        plan = rewrite(plan, &mut fired);
        if !fired {
            break;
        }
    }
    plan
}

/// One bottom-up pass of the rules; sets `fired` when one of them fires.
fn rewrite(plan: LogicalPlan, fired: &mut bool) -> LogicalPlan {
    // Bottom-up: rewrite children first.
    let plan = plan.map_children(|child| rewrite(child, fired));
    match plan {
        LogicalPlan::Filter { input, predicate } => rewrite_filter(*input, predicate, fired),
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

/// Applies the rule the filter's input matches, if any. A rule that fires
/// always removes the filter node from above `input`, so the result is a
/// different tree.
fn rewrite_filter(input: LogicalPlan, predicate: ScalarExpr, fired: &mut bool) -> LogicalPlan {
    match input {
        // Rule 1: merge stacked filters.
        LogicalPlan::Filter {
            input: inner,
            predicate: inner_pred,
        } => {
            *fired = true;
            let mut conjuncts = split_conjuncts(inner_pred);
            conjuncts.extend(split_conjuncts(predicate));
            rewrite(filter_over(*inner, conjuncts), fired)
        }
        // Rules 2+3: push into / convert a cross join.
        LogicalPlan::CrossJoin {
            left,
            right,
            schema,
        } => {
            *fired = true;
            let left_arity = left.schema().arity();
            let (new_left, new_right, across) = push_to_sides(*left, *right, predicate, fired);
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
            *fired = true;
            let left_arity = left.schema().arity();
            let (new_left, new_right, across) = push_to_sides(*left, *right, predicate, fired);
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
    fired: &mut bool,
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
    let mut pushed = |side: LogicalPlan, conjuncts: Vec<ScalarExpr>| {
        if conjuncts.is_empty() {
            side
        } else {
            rewrite(filter_over(side, conjuncts), fired)
        }
    };
    let left = pushed(left, to_left);
    (left, pushed(right, to_right), and_all(across))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::differential::case;
    use proptest::prelude::*;

    /// The clone-and-compare loop [`optimize`] replaced: each round
    /// rewrites a copy of the plan and compares it with the plan, stopping
    /// once they are equal. Returns the plan and, per round, whether a rule
    /// fired and whether the plan changed.
    fn optimize_reference(plan: LogicalPlan) -> (LogicalPlan, Vec<(bool, bool)>) {
        let mut plan = plan;
        let mut rounds = Vec::new();
        for _ in 0..8 {
            let mut fired = false;
            let next = rewrite(plan.clone(), &mut fired);
            rounds.push((fired, next != plan));
            if next == plan {
                return (next, rounds);
            }
            plan = next;
        }
        (plan, rounds)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On generated plans, with and without a filter over the join
        /// core: a round's rules fire exactly when it changes the plan, so
        /// the flag loop stops where the comparing loop did, on the same
        /// plan.
        #[test]
        fn optimize_matches_the_clone_and_compare_loop(
            seed in any::<u64>(),
            filter_over_core in any::<bool>(),
        ) {
            let (_, plan) = case(seed, filter_over_core);
            let (reference, rounds) = optimize_reference(plan.clone());
            for (round, &(fired, changed)) in rounds.iter().enumerate() {
                prop_assert_eq!(fired, changed, "case {} round {}:\n{}", seed, round, plan.explain());
            }
            prop_assert_eq!(optimize(plan.clone()), reference, "case {}:\n{}", seed, plan.explain());
        }
    }

    /// The property is not vacuous: over a fixed run of cases with a
    /// filter over the join core, rules fire in most, and some plans are
    /// already optimal.
    #[test]
    fn generated_filters_fire_rules_and_some_plans_are_already_optimal() {
        let (mut fired, mut optimal) = (0, 0);
        for seed in 0..200 {
            let (_, plan) = case(seed, true);
            match optimize_reference(plan).1.as_slice() {
                [(true, true), ..] => fired += 1,
                _ => optimal += 1,
            }
        }
        assert!(
            fired >= 80 && optimal >= 40,
            "{fired} fired, {optimal} optimal"
        );
    }
}
