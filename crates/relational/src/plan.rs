//! Logical query plans.
//!
//! The plan is deliberately *named*: scans keep their table name and
//! binding, and resolved expressions keep attribute names. Galois depends on
//! this — the same plan that the relational executor runs is compiled into
//! chain-of-thought prompts, so the plan must be able to talk about
//! relations and attributes the way the SQL text did (paper §4).

use crate::expr::ScalarExpr;
use crate::schema::{PlanColumn, PlanSchema};
use crate::value::DataType;
use galois_sql::ast::{JoinType, SortDirection, SourceQualifier};
use std::fmt;

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(expr)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

impl AggFunc {
    /// Parses an (uppercased) function name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            _ => return None,
        })
    }

    /// SQL spelling.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }

    /// Result type given the argument type (`None` for `COUNT(*)`).
    pub fn output_type(&self, arg: Option<DataType>) -> DataType {
        match self {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum => match arg {
                Some(DataType::Float) => DataType::Float,
                _ => DataType::Int,
            },
            AggFunc::Min | AggFunc::Max => arg.unwrap_or(DataType::Text),
        }
    }
}

/// One aggregate computation inside an [`LogicalPlan::Aggregate`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// Which aggregate.
    pub func: AggFunc,
    /// Argument (`None` only for `COUNT(*)`).
    pub arg: Option<ScalarExpr>,
    /// `DISTINCT` inside the call.
    pub distinct: bool,
    /// Output column name, e.g. `COUNT(*)`.
    pub output_name: String,
}

impl AggCall {
    /// Result type of this call.
    pub fn output_type(&self) -> DataType {
        self.func
            .output_type(self.arg.as_ref().map(|a| a.data_type()))
    }
}

impl fmt::Display for AggCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.func.name())?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        match &self.arg {
            Some(a) => write!(f, "{a}")?,
            None => write!(f, "*")?,
        }
        write!(f, ")")
    }
}

/// The equi + residual decomposition of a join condition.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JoinCondition {
    /// Pairs of (left-side expr, right-side expr) that must be equal; each
    /// side is resolved against its own input schema.
    pub equi: Vec<(ScalarExpr, ScalarExpr)>,
    /// Any remaining predicate, resolved against the concatenated schema.
    pub residual: Option<ScalarExpr>,
}

/// A sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Index into the input row.
    pub index: usize,
    /// Direction.
    pub direction: SortDirection,
}

/// A logical relational operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base-table access.
    Scan {
        /// Stored table name.
        table: String,
        /// Binding (alias) used by the query.
        binding: String,
        /// `LLM.` / `DB.` qualifier if written.
        source: Option<SourceQualifier>,
        /// Output schema.
        schema: PlanSchema,
        /// Index of the table's key attribute within `schema`.
        key_index: usize,
    },
    /// σ — keep rows satisfying the predicate.
    Filter {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Predicate over the input schema.
        predicate: ScalarExpr,
    },
    /// π — compute output expressions.
    Project {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Output expressions with names.
        exprs: Vec<(ScalarExpr, String)>,
        /// Output schema.
        schema: PlanSchema,
    },
    /// ⋈ — join with an equi/residual condition.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join flavour.
        join_type: JoinType,
        /// Condition decomposition.
        condition: JoinCondition,
        /// Output schema (left ++ right).
        schema: PlanSchema,
    },
    /// × — cross product (no condition; the optimizer tries to turn
    /// `Filter(CrossJoin)` into `Join`).
    CrossJoin {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Output schema (left ++ right).
        schema: PlanSchema,
    },
    /// γ — grouped aggregation.
    Aggregate {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Group-by expressions over the input.
        group_by: Vec<(ScalarExpr, String)>,
        /// Aggregate calls.
        aggregates: Vec<AggCall>,
        /// Output schema: group keys then aggregates.
        schema: PlanSchema,
    },
    /// Sort by key columns of the input.
    Sort {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Keys, highest priority first.
        keys: Vec<SortKey>,
    },
    /// Duplicate elimination over whole rows (order-preserving).
    Distinct {
        /// Input operator.
        input: Box<LogicalPlan>,
    },
    /// Skip the first `offset` rows, then keep the next `n`.
    Limit {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Row budget.
        n: u64,
        /// Rows skipped before the budget applies (0 for a plain LIMIT).
        offset: u64,
    },
}

impl LogicalPlan {
    /// The operator's output schema.
    pub fn schema(&self) -> PlanSchema {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::CrossJoin { schema, .. }
            | LogicalPlan::Aggregate { schema, .. } => schema.clone(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Immediate children.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } | LogicalPlan::CrossJoin { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Rebuilds this operator around `f` applied to each immediate child
    /// (left before right); every other field is kept. The shared spine
    /// of the tree rewrites — a walker states only the arms that do
    /// something.
    pub fn map_children(self, mut f: impl FnMut(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
        match self.try_map_children(|child| Ok::<_, std::convert::Infallible>(f(child))) {
            Ok(plan) => plan,
            Err(never) => match never {},
        }
    }

    /// [`LogicalPlan::map_children`] for a rewrite that can fail: the first
    /// error is returned and the remaining children are not visited.
    pub fn try_map_children<E>(
        self,
        mut f: impl FnMut(LogicalPlan) -> Result<LogicalPlan, E>,
    ) -> Result<LogicalPlan, E> {
        let mut map = |child: Box<LogicalPlan>| f(*child).map(Box::new);
        Ok(match self {
            LogicalPlan::Scan { .. } => self,
            LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
                input: map(input)?,
                predicate,
            },
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => LogicalPlan::Project {
                input: map(input)?,
                exprs,
                schema,
            },
            LogicalPlan::Join {
                left,
                right,
                join_type,
                condition,
                schema,
            } => LogicalPlan::Join {
                left: map(left)?,
                right: map(right)?,
                join_type,
                condition,
                schema,
            },
            LogicalPlan::CrossJoin {
                left,
                right,
                schema,
            } => LogicalPlan::CrossJoin {
                left: map(left)?,
                right: map(right)?,
                schema,
            },
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
                schema,
            } => LogicalPlan::Aggregate {
                input: map(input)?,
                group_by,
                aggregates,
                schema,
            },
            LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
                input: map(input)?,
                keys,
            },
            LogicalPlan::Distinct { input } => LogicalPlan::Distinct { input: map(input)? },
            LogicalPlan::Limit { input, n, offset } => LogicalPlan::Limit {
                input: map(input)?,
                n,
                offset,
            },
        })
    }

    /// All scans in the plan, left to right.
    pub fn scans(&self) -> Vec<&LogicalPlan> {
        let mut out = Vec::new();
        fn rec<'a>(p: &'a LogicalPlan, out: &mut Vec<&'a LogicalPlan>) {
            if matches!(p, LogicalPlan::Scan { .. }) {
                out.push(p);
            }
            for c in p.children() {
                rec(c, out);
            }
        }
        rec(self, &mut out);
        out
    }

    /// Renders the plan as an indented tree — the paper's Figure 3 style
    /// explanation (`EXPLAIN` output).
    pub fn explain(&self) -> String {
        self.explain_annotated(&|_| String::new())
    }

    /// [`LogicalPlan::explain`] with a per-operator suffix supplied by the
    /// caller — e.g. the cost estimator appending `(rows≈N)` to every line
    /// (see [`crate::cost::explain_with_rows`]).
    pub fn explain_annotated(&self, annotate: &dyn Fn(&LogicalPlan) -> String) -> String {
        let mut s = String::new();
        self.explain_into(&mut s, 0, annotate);
        s
    }

    fn explain_into(
        &self,
        out: &mut String,
        depth: usize,
        annotate: &dyn Fn(&LogicalPlan) -> String,
    ) {
        let pad = "  ".repeat(depth);
        let line = |out: &mut String, body: String| {
            out.push_str(&pad);
            out.push_str(&body);
            out.push_str(&annotate(self));
            out.push('\n');
        };
        match self {
            LogicalPlan::Scan {
                table,
                binding,
                source,
                ..
            } => {
                let src = match source {
                    Some(SourceQualifier::Llm) => "LLM.",
                    Some(SourceQualifier::Db) => "DB.",
                    None => "",
                };
                line(out, format!("Scan {src}{table} AS {binding}"));
            }
            LogicalPlan::Filter { input, predicate } => {
                line(out, format!("Filter {predicate}"));
                input.explain_into(out, depth + 1, annotate);
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let cols: Vec<String> = exprs.iter().map(|(e, n)| format!("{e} AS {n}")).collect();
                line(out, format!("Project {}", cols.join(", ")));
                input.explain_into(out, depth + 1, annotate);
            }
            LogicalPlan::Join {
                left,
                right,
                join_type,
                condition,
                ..
            } => {
                let eq: Vec<String> = condition
                    .equi
                    .iter()
                    .map(|(l, r)| format!("{l} = {r}"))
                    .collect();
                let res = condition
                    .residual
                    .as_ref()
                    .map(|r| format!(" AND {r}"))
                    .unwrap_or_default();
                line(
                    out,
                    format!(
                        "{join_type} ON {}{res}",
                        if eq.is_empty() {
                            "TRUE".to_string()
                        } else {
                            eq.join(" AND ")
                        }
                    ),
                );
                left.explain_into(out, depth + 1, annotate);
                right.explain_into(out, depth + 1, annotate);
            }
            LogicalPlan::CrossJoin { left, right, .. } => {
                line(out, "CrossJoin".to_string());
                left.explain_into(out, depth + 1, annotate);
                right.explain_into(out, depth + 1, annotate);
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
                ..
            } => {
                let keys: Vec<String> = group_by.iter().map(|(e, _)| e.to_string()).collect();
                let aggs: Vec<String> = aggregates.iter().map(|a| a.to_string()).collect();
                line(
                    out,
                    format!(
                        "Aggregate group=[{}] aggs=[{}]",
                        keys.join(", "),
                        aggs.join(", ")
                    ),
                );
                input.explain_into(out, depth + 1, annotate);
            }
            LogicalPlan::Sort { input, keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| {
                        format!(
                            "#{}{}",
                            k.index,
                            if k.direction == SortDirection::Desc {
                                " DESC"
                            } else {
                                ""
                            }
                        )
                    })
                    .collect();
                line(out, format!("Sort {}", ks.join(", ")));
                input.explain_into(out, depth + 1, annotate);
            }
            LogicalPlan::Distinct { input } => {
                line(out, "Distinct".to_string());
                input.explain_into(out, depth + 1, annotate);
            }
            LogicalPlan::Limit { input, n, offset } => {
                if *offset > 0 {
                    line(out, format!("Limit {n} OFFSET {offset}"));
                } else {
                    line(out, format!("Limit {n}"));
                }
                input.explain_into(out, depth + 1, annotate);
            }
        }
    }
}

/// Builds the output schema of an aggregate node.
pub fn aggregate_schema(group_by: &[(ScalarExpr, String)], aggregates: &[AggCall]) -> PlanSchema {
    let mut cols = Vec::with_capacity(group_by.len() + aggregates.len());
    for (expr, name) in group_by {
        let (binding, nullable) = match expr {
            ScalarExpr::Column(c) => (c.binding.clone(), true),
            _ => (None, true),
        };
        cols.push(PlanColumn {
            binding,
            name: name.clone(),
            data_type: expr.data_type(),
            nullable,
        });
    }
    for agg in aggregates {
        cols.push(PlanColumn::computed(
            agg.output_name.clone(),
            agg.output_type(),
        ));
    }
    PlanSchema::new(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ResolvedColumn;

    #[test]
    fn agg_func_names_and_types() {
        assert_eq!(AggFunc::from_name("AVG"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::from_name("LOWER"), None);
        assert_eq!(AggFunc::Count.output_type(None), DataType::Int);
        assert_eq!(
            AggFunc::Sum.output_type(Some(DataType::Float)),
            DataType::Float
        );
        assert_eq!(AggFunc::Sum.output_type(Some(DataType::Int)), DataType::Int);
        assert_eq!(
            AggFunc::Avg.output_type(Some(DataType::Int)),
            DataType::Float
        );
        assert_eq!(
            AggFunc::Max.output_type(Some(DataType::Date)),
            DataType::Date
        );
    }

    #[test]
    fn aggregate_schema_layout() {
        let key = ScalarExpr::Column(ResolvedColumn {
            index: 0,
            binding: Some("c".into()),
            name: "country".into(),
            data_type: DataType::Text,
        });
        let agg = AggCall {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
            output_name: "COUNT(*)".into(),
        };
        let schema = aggregate_schema(&[(key, "country".into())], &[agg]);
        assert_eq!(schema.arity(), 2);
        assert_eq!(schema.columns[0].binding.as_deref(), Some("c"));
        assert_eq!(schema.columns[1].name, "COUNT(*)");
        assert_eq!(schema.columns[1].data_type, DataType::Int);
    }

    fn scan(table: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            binding: table.into(),
            source: None,
            schema: PlanSchema::default(),
            key_index: 0,
        }
    }

    #[test]
    fn map_children_visits_left_then_right_and_stops_at_the_first_error() {
        let tree = LogicalPlan::Distinct {
            input: Box::new(LogicalPlan::CrossJoin {
                left: Box::new(scan("a")),
                right: Box::new(scan("b")),
                schema: PlanSchema::default(),
            }),
        };
        // One level only: the Distinct's child is the cross join itself.
        let mut seen = 0;
        let same = tree.clone().map_children(|child| {
            seen += 1;
            child
        });
        assert_eq!((same, seen), (tree.clone(), 1));

        let LogicalPlan::Distinct { input } = tree else {
            unreachable!()
        };
        let mut order = Vec::new();
        let renamed = input.clone().map_children(|child| {
            order.push(child.explain());
            scan("t")
        });
        assert_eq!(order, ["Scan a AS a\n", "Scan b AS b\n"]);
        assert_eq!(renamed.children(), [&scan("t"), &scan("t")]);

        let mut visited = 0;
        let failed = input.try_map_children(|_| {
            visited += 1;
            Err::<LogicalPlan, _>("no")
        });
        assert_eq!((failed, visited), (Err("no"), 1));
    }

    #[test]
    fn explain_renders_tree() {
        let scan = scan("city");
        let plan = LogicalPlan::Limit {
            input: Box::new(scan),
            n: 3,
            offset: 0,
        };
        let text = plan.explain();
        assert!(text.starts_with("Limit 3\n"));
        assert!(text.contains("  Scan city AS c"));
    }
}
