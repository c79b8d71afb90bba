//! Compiling a logical plan into LLM retrieval steps plus a residual
//! relational plan (paper §4 "Operators").
//!
//! The plan *is* the chain-of-thought: every LLM-sourced base relation
//! becomes one [`LlmScanStep`] — key retrieval, optional per-key filter
//! checks, and per-key attribute fetches for every attribute the rest of
//! the plan touches. The remaining operators (joins, aggregates, sorts)
//! stay relational and run unchanged over the retrieved tuples ("the
//! operators that manipulate data fill up the limitations of LLMs").

use crate::error::{GaloisError, Result};
use galois_llm::intent::{CmpOp, Condition, PromptValue};
use galois_relational::{Catalog, Column, LogicalPlan, ScalarExpr, TableSchema, Value};
use galois_sql::ast::{BinaryOp, SourceQualifier};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Where unqualified tables come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefaultSource {
    /// Unqualified relations are retrieved from the LLM (the paper's main
    /// experiments run queries entirely against the model).
    Llm,
    /// Unqualified relations come from the relational store; only
    /// `LLM.`-qualified ones hit the model.
    Db,
}

/// How Galois executes selections over LLM relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterMode {
    /// One boolean prompt per key (the paper's operator: "Has city c.name
    /// more than 1M population?").
    LlmBoolean,
    /// Fetch the attribute, then compare in the engine (cleaner, used as
    /// an ablation).
    FetchCompare,
}

/// One LLM base-relation retrieval.
#[derive(Debug, Clone, PartialEq)]
pub struct LlmScanStep {
    /// Relation name as written in the query.
    pub table: String,
    /// Binding in the query scope.
    pub binding: String,
    /// Name of the temporary materialised table.
    pub temp_name: String,
    /// Key attribute label.
    pub key_attr: String,
    /// Index of the key column.
    pub key_index: usize,
    /// Schema of the temporary table: the relation's full column list
    /// (order preserved so plan indexes stay valid), everything but the
    /// key nullable — an unfetched attribute is NULL. Built once at compile
    /// time and shared with every table materialised from this step.
    pub temp_schema: Arc<TableSchema>,
    /// Attributes (by column index) that must be fetched per key.
    pub fetch: Vec<usize>,
    /// Condition pushed into the key-listing prompt (prompt-pushdown
    /// optimization, §6).
    pub scan_condition: Option<Condition>,
    /// Conditions checked with one boolean prompt per key.
    pub filter_conditions: Vec<Condition>,
}

impl LlmScanStep {
    /// Full column list of the relation, in stored order.
    pub fn columns(&self) -> &[Column] {
        &self.temp_schema.columns
    }

    /// The step's key-universe identity: two scans share a stored
    /// universe exactly when they would render the same key-listing
    /// prompt chain — same relation, key attribute, and pushed-down scan
    /// condition. Filter conditions and fetched attributes are
    /// deliberately excluded: they shape later phases, not the universe.
    ///
    /// Fields are joined with the ASCII unit separator so concatenation
    /// cannot alias two different steps.
    pub fn concept_signature(&self) -> String {
        concept_signature_for(
            &self.table,
            &self.key_attr,
            &self
                .scan_condition
                .as_ref()
                .map(|c| c.render())
                .unwrap_or_default(),
        )
    }
}

/// Builds a key-universe concept signature from raw parts — the same
/// string [`LlmScanStep::concept_signature`] produces. Exposed so tests
/// and tooling can look up a stored universe from a parsed `ListKeys`
/// prompt (relation, key attribute, rendered condition) without
/// compiling a query first.
pub fn concept_signature_for(table: &str, key_attr: &str, rendered_condition: &str) -> String {
    format!("list\u{1f}{table}\u{1f}{key_attr}\u{1f}{rendered_condition}")
}

/// A compiled query: retrieval steps plus the residual plan referencing
/// temporary tables.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledQuery {
    /// LLM retrievals, in leaf order.
    pub steps: Vec<LlmScanStep>,
    /// The plan to run after materialisation.
    pub plan: LogicalPlan,
}

/// Compilation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Source for unqualified tables.
    pub default_source: DefaultSource,
    /// Selection strategy.
    pub filter_mode: FilterMode,
    /// Push single simple conditions into the key-listing prompt.
    pub pushdown: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            default_source: DefaultSource::Llm,
            filter_mode: FilterMode::LlmBoolean,
            pushdown: false,
        }
    }
}

/// Compiles an (optimized) logical plan against the catalog.
pub fn compile(
    plan: &LogicalPlan,
    catalog: &Catalog,
    options: &CompileOptions,
) -> Result<CompiledQuery> {
    // Pass 1: which attributes does the plan need per binding?
    let mut needed: HashMap<String, BTreeSet<String>> = HashMap::new();
    collect_needed(plan, &mut needed);

    // Pass 2: rewrite LLM scans (and their filters) into steps.
    let mut steps = Vec::new();
    let plan = rewrite(plan.clone(), catalog, options, &needed, &mut steps)?;
    Ok(CompiledQuery { steps, plan })
}

fn is_llm_scan(source: Option<SourceQualifier>, options: &CompileOptions) -> bool {
    match source {
        Some(SourceQualifier::Llm) => true,
        Some(SourceQualifier::Db) => false,
        None => options.default_source == DefaultSource::Llm,
    }
}

fn collect_needed(plan: &LogicalPlan, needed: &mut HashMap<String, BTreeSet<String>>) {
    let mut note_expr = |e: &ScalarExpr| {
        e.walk(&mut |n| {
            if let ScalarExpr::Column(c) = n {
                if let Some(b) = &c.binding {
                    needed.entry(b.clone()).or_default().insert(c.name.clone());
                }
            }
        });
    };
    match plan {
        LogicalPlan::Scan { .. } => {}
        LogicalPlan::Filter { input, predicate } => {
            note_expr(predicate);
            collect_needed(input, needed);
        }
        LogicalPlan::Project { input, exprs, .. } => {
            for (e, _) in exprs {
                note_expr(e);
            }
            collect_needed(input, needed);
        }
        LogicalPlan::Join {
            left,
            right,
            condition,
            ..
        } => {
            for (l, r) in &condition.equi {
                note_expr(l);
                note_expr(r);
            }
            if let Some(r) = &condition.residual {
                note_expr(r);
            }
            collect_needed(left, needed);
            collect_needed(right, needed);
        }
        LogicalPlan::CrossJoin { left, right, .. } => {
            collect_needed(left, needed);
            collect_needed(right, needed);
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
            ..
        } => {
            for (e, _) in group_by {
                note_expr(e);
            }
            for a in aggregates {
                if let Some(arg) = &a.arg {
                    note_expr(arg);
                }
            }
            collect_needed(input, needed);
        }
        LogicalPlan::Sort { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::Limit { input, .. } => collect_needed(input, needed),
    }
}

fn rewrite(
    plan: LogicalPlan,
    catalog: &Catalog,
    options: &CompileOptions,
    needed: &HashMap<String, BTreeSet<String>>,
    steps: &mut Vec<LlmScanStep>,
) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Filter { input, predicate } => match *input {
            // A filter directly above an LLM scan: translate conjuncts into
            // prompt conditions where possible.
            LogicalPlan::Scan {
                table,
                binding,
                source,
                schema,
                key_index,
            } if is_llm_scan(source, options) => {
                let mut conditions = Vec::new();
                let mut residual: Vec<ScalarExpr> = Vec::new();
                for conj in galois_relational::builder::split_conjuncts(predicate) {
                    match (options.filter_mode, expr_to_condition(&conj, &binding)) {
                        (FilterMode::LlmBoolean, Some(cond)) => conditions.push(cond),
                        _ => residual.push(conj),
                    }
                }
                let scan = make_step(
                    &table, &binding, key_index, schema, catalog, options, needed, conditions,
                    steps,
                )?;
                Ok(match and_all(residual) {
                    Some(p) => LogicalPlan::Filter {
                        input: Box::new(scan),
                        predicate: p,
                    },
                    None => scan,
                })
            }
            other => Ok(LogicalPlan::Filter {
                input: Box::new(rewrite(other, catalog, options, needed, steps)?),
                predicate,
            }),
        },
        LogicalPlan::Scan {
            table,
            binding,
            source,
            schema,
            key_index,
        } if is_llm_scan(source, options) => make_step(
            &table,
            &binding,
            key_index,
            schema,
            catalog,
            options,
            needed,
            Vec::new(),
            steps,
        ),
        other => other.try_map_children(|child| rewrite(child, catalog, options, needed, steps)),
    }
}

#[allow(clippy::too_many_arguments)]
fn make_step(
    table: &str,
    binding: &str,
    key_index: usize,
    schema: galois_relational::PlanSchema,
    catalog: &Catalog,
    options: &CompileOptions,
    needed: &HashMap<String, BTreeSet<String>>,
    mut filter_conditions: Vec<Condition>,
    steps: &mut Vec<LlmScanStep>,
) -> Result<LogicalPlan> {
    let stored = catalog.get(table).map_err(GaloisError::from)?;
    let key_attr = stored.schema.columns[key_index].name.clone();

    // Attributes the plan touches for this binding, as column indexes;
    // the key is retrieved by the scan itself and never fetched.
    let mut fetch = Vec::new();
    if let Some(names) = needed.get(binding) {
        for name in names {
            if name.eq_ignore_ascii_case(&key_attr) {
                continue;
            }
            if let Some(idx) = stored.schema.index_of(name) {
                fetch.push(idx);
            }
        }
    }

    // Prompt pushdown: fold a single prompt-expressible condition into the
    // key-listing prompt.
    let scan_condition = if options.pushdown && filter_conditions.len() == 1 {
        let cond = filter_conditions.remove(0);
        // The pushed attribute no longer needs a per-key filter prompt,
        // but the plan may still project it; keep any fetch entries.
        Some(cond)
    } else {
        None
    };

    // The stored schema already vouches for distinct column names and the
    // key position; only nullability differs.
    let temp_schema = TableSchema {
        columns: stored
            .schema
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| Column {
                nullable: i != key_index,
                ..c.clone()
            })
            .collect(),
        key: key_index,
    };

    let temp_name = format!("__llm_{}", binding.to_ascii_lowercase());
    let step = LlmScanStep {
        table: table.to_string(),
        binding: binding.to_string(),
        temp_name: temp_name.clone(),
        key_attr,
        key_index,
        temp_schema: Arc::new(temp_schema),
        fetch,
        scan_condition,
        filter_conditions,
    };
    steps.push(step);

    Ok(LogicalPlan::Scan {
        table: temp_name,
        binding: binding.to_string(),
        source: None,
        schema,
        key_index,
    })
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

/// Translates a resolved conjunct over one binding into a prompt-protocol
/// condition, when its shape allows (column vs literal(s)).
pub fn expr_to_condition(expr: &ScalarExpr, binding: &str) -> Option<Condition> {
    let col_of = |e: &ScalarExpr| -> Option<String> {
        match e {
            ScalarExpr::Column(c)
                if c.binding
                    .as_deref()
                    .is_some_and(|b| b.eq_ignore_ascii_case(binding)) =>
            {
                Some(c.name.clone())
            }
            _ => None,
        }
    };
    let lit_of = |e: &ScalarExpr| -> Option<PromptValue> {
        match e {
            ScalarExpr::Literal(Value::Int(v)) => Some(PromptValue::Number(*v as f64)),
            ScalarExpr::Literal(Value::Float(v)) => Some(PromptValue::Number(*v)),
            ScalarExpr::Literal(Value::Text(s)) => Some(PromptValue::Text(s.clone())),
            _ => None,
        }
    };

    match expr {
        ScalarExpr::Binary { left, op, right } if op.is_comparison() => {
            // column OP literal (or mirrored).
            let (attr, value, op) = if let (Some(a), Some(v)) = (col_of(left), lit_of(right)) {
                (a, v, *op)
            } else if let (Some(a), Some(v)) = (col_of(right), lit_of(left)) {
                (a, v, mirror(*op))
            } else {
                return None;
            };
            let cmp = match op {
                BinaryOp::Eq => CmpOp::Eq,
                BinaryOp::NotEq => CmpOp::NotEq,
                BinaryOp::Gt => CmpOp::Gt,
                BinaryOp::GtEq => CmpOp::GtEq,
                BinaryOp::Lt => CmpOp::Lt,
                BinaryOp::LtEq => CmpOp::LtEq,
                _ => return None,
            };
            Some(Condition {
                attribute: attr,
                op: cmp,
                values: vec![value],
            })
        }
        ScalarExpr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            let attr = col_of(expr)?;
            Some(Condition {
                attribute: attr,
                op: CmpOp::Between,
                values: vec![lit_of(low)?, lit_of(high)?],
            })
        }
        ScalarExpr::InList {
            expr,
            list,
            negated: false,
        } => {
            let attr = col_of(expr)?;
            let values: Option<Vec<PromptValue>> = list.iter().map(lit_of).collect();
            Some(Condition {
                attribute: attr,
                op: CmpOp::In,
                values: values?,
            })
        }
        ScalarExpr::Like {
            expr,
            pattern,
            negated: false,
        } => {
            let attr = col_of(expr)?;
            Some(Condition {
                attribute: attr,
                op: CmpOp::Like,
                values: vec![lit_of(pattern)?],
            })
        }
        ScalarExpr::IsNull { expr, negated } => {
            let attr = col_of(expr)?;
            Some(Condition {
                attribute: attr,
                op: if *negated {
                    CmpOp::IsNotNull
                } else {
                    CmpOp::IsNull
                },
                values: vec![],
            })
        }
        _ => None,
    }
}

fn mirror(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// The number of leading survivor keys that bound the query's result,
/// when the residual plan's shape lets the streaming engine stop
/// retrieval early: a `Limit` reached from the root through row-wise
/// `Project`s, whose input chains through further `Project`s down to the
/// sole LLM step's temp scan. The hint is `n + offset` — the rows the
/// window can ever surface. Any other operator on that spine (a sort,
/// join, aggregate, distinct or residual filter) consumes the full key
/// universe, so the hint is `None` and retrieval runs to exhaustion.
pub fn limit_hint(compiled: &CompiledQuery) -> Option<usize> {
    let [step] = compiled.steps.as_slice() else {
        return None;
    };
    let (mut node, mut window) = (&compiled.plan, None);
    loop {
        match node {
            LogicalPlan::Project { input, .. } => node = input,
            LogicalPlan::Limit { input, n, offset } if window.is_none() => {
                window = Some((*n as usize).saturating_add(*offset as usize));
                node = input;
            }
            LogicalPlan::Scan { table, .. } if *table == step.temp_name => return window,
            _ => return None,
        }
    }
}

/// Renders one retrieval step's header and prompt protocol (the Figure-3
/// step block of [`crate::plan_choice::PlannedQuery::render`]).
pub fn render_step_into(step: &LlmScanStep, index: usize, out: &mut String) {
    out.push_str(&format!(
        "[LLM step {}] scan {} AS {} (key: {})\n",
        index + 1,
        step.table,
        step.binding,
        step.key_attr
    ));
    if let Some(c) = &step.scan_condition {
        out.push_str(&format!("    pushed-down condition: {}\n", c.render()));
    }
    for f in &step.filter_conditions {
        out.push_str(&format!("    filter prompt per key: {}\n", f.render()));
    }
    for idx in &step.fetch {
        out.push_str(&format!(
            "    fetch prompt per key: {}\n",
            step.columns()[*idx].name
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galois_dataset::Scenario;

    fn compiled(sql: &str, options: CompileOptions) -> CompiledQuery {
        let s = Scenario::generate(42);
        let plan = s.database.plan(sql).unwrap();
        compile(&plan, s.database.catalog(), &options).unwrap()
    }

    #[test]
    fn simple_scan_becomes_one_step() {
        let c = compiled("SELECT name FROM city", CompileOptions::default());
        assert_eq!(c.steps.len(), 1);
        let s = &c.steps[0];
        assert_eq!(s.table, "city");
        assert_eq!(s.key_attr, "name");
        assert!(s.fetch.is_empty(), "only the key is needed");
        assert!(s.filter_conditions.is_empty());
    }

    #[test]
    fn filter_becomes_boolean_prompts() {
        let c = compiled(
            "SELECT name FROM city WHERE population > 1000000",
            CompileOptions::default(),
        );
        let s = &c.steps[0];
        assert_eq!(s.filter_conditions.len(), 1);
        assert_eq!(s.filter_conditions[0].attribute, "population");
        // The filter was consumed: the residual plan has no Filter node.
        assert!(!c.plan.explain().contains("Filter"), "{}", c.plan.explain());
    }

    #[test]
    fn fetch_compare_keeps_filter_in_plan() {
        let c = compiled(
            "SELECT name FROM city WHERE population > 1000000",
            CompileOptions {
                filter_mode: FilterMode::FetchCompare,
                ..Default::default()
            },
        );
        let s = &c.steps[0];
        assert!(s.filter_conditions.is_empty());
        assert!(s.fetch.iter().any(|i| s.columns()[*i].name == "population"));
        assert!(c.plan.explain().contains("Filter"));
    }

    #[test]
    fn pushdown_moves_condition_into_scan() {
        let c = compiled(
            "SELECT name FROM city WHERE population > 1000000",
            CompileOptions {
                pushdown: true,
                ..Default::default()
            },
        );
        let s = &c.steps[0];
        assert!(s.scan_condition.is_some());
        assert!(s.filter_conditions.is_empty());
    }

    #[test]
    fn join_query_compiles_to_two_steps_with_fetches() {
        let c = compiled(
            "SELECT p.name, r.birthDate FROM city p, cityMayor r WHERE p.mayor = r.name",
            CompileOptions::default(),
        );
        assert_eq!(c.steps.len(), 2);
        let city = c.steps.iter().find(|s| s.table == "city").unwrap();
        assert!(city
            .fetch
            .iter()
            .any(|i| city.columns()[*i].name == "mayor"));
        let mayor = c.steps.iter().find(|s| s.table == "cityMayor").unwrap();
        assert!(mayor
            .fetch
            .iter()
            .any(|i| mayor.columns()[*i].name == "birthDate"));
        // The join stays relational.
        assert!(c.plan.explain().contains("JOIN"));
    }

    #[test]
    fn hybrid_query_keeps_db_scan() {
        let c = compiled(
            "SELECT e.countryCode, AVG(e.salary) FROM DB.employees e GROUP BY e.countryCode",
            CompileOptions::default(),
        );
        assert!(c.steps.is_empty(), "DB relations are not retrieved");
        assert!(c.plan.explain().contains("Scan DB.employees"));
    }

    #[test]
    fn db_default_only_fetches_llm_qualified() {
        let c = compiled(
            "SELECT c.name FROM LLM.city c, country k WHERE c.country = k.name",
            CompileOptions {
                default_source: DefaultSource::Db,
                ..Default::default()
            },
        );
        assert_eq!(c.steps.len(), 1);
        assert_eq!(c.steps[0].table, "city");
    }

    #[test]
    fn complex_conjunct_stays_in_plan() {
        // population * 2 > 100 cannot become a prompt condition.
        let c = compiled(
            "SELECT name FROM city WHERE population * 2 > 100 AND elevation < 50",
            CompileOptions::default(),
        );
        let s = &c.steps[0];
        assert_eq!(s.filter_conditions.len(), 1);
        assert_eq!(s.filter_conditions[0].attribute, "elevation");
        assert!(c.plan.explain().contains("Filter"));
        // The attribute feeding the residual filter is fetched.
        assert!(s.fetch.iter().any(|i| s.columns()[*i].name == "population"));
    }
}
