//! Cost-based, prompt-aware plan choice (paper §6 "Query optimization").
//!
//! The logical plan *is* the chain-of-thought: which conditions are pushed
//! into the key-listing prompt, and how retrieval steps are laid out over
//! the request lanes, directly determines how many prompts a query costs
//! and how long it takes. The paper's prototype (and our
//! [`Planner::Heuristic`] mode) makes those choices with fixed rules; this
//! module adds a [`Planner::CostBased`] mode that *estimates* each
//! candidate's prompt count, expected cache hits and virtual latency, and
//! picks the cheapest.
//!
//! The estimator composes three ingredients:
//!
//! * **cardinalities** from [`galois_relational::cost`] — catalog row
//!   counts shrunk by per-condition selectivities (the planner's table
//!   statistics);
//! * **prompt counts** from the retrieval protocol — key-list iterations,
//!   one boolean prompt per surviving key per condition, one fetch prompt
//!   per (key, attribute);
//! * **latency** from the PR-2 lane model — every batch costs
//!   `overhead + miss·latency/lanes`, waves of batches pack onto the
//!   lanes, and observed [`ClientStats`] calibrate the expected per-prompt
//!   latency and cache-hit rate. A session freezes this calibration at its
//!   first planner use, so plan choice never depends on which concurrent
//!   query's prompts landed first in the shared stats.
//!
//! The enumeration space per retrieval step is: leave every condition as a
//! per-key boolean prompt chain, or push exactly one condition into the
//! key-listing prompt (the paper pushes at most one — "combining too many
//! prompts leads to complex questions", §6). Across steps, the planner
//! orders retrievals longest-first so the scheduler's greedy lane packing
//! approximates the optimal makespan (LPT). Both choices change only the
//! prompt schedule, never the result relation: `R_M` is invariant across
//! planner modes for a noise-free model, and [`Planner::Heuristic`]
//! reproduces the pre-planner plans bit for bit.
//!
//! ```
//! use std::sync::Arc;
//! use galois_core::{Galois, GaloisOptions, Planner};
//! use galois_dataset::Scenario;
//! use galois_llm::{ModelProfile, SimLlm};
//!
//! let s = Scenario::generate(42);
//! let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
//! let plan = |planner| {
//!     let options = GaloisOptions { planner, ..Default::default() };
//!     let session = Galois::with_options(model.clone(), s.database.clone(), options);
//!     session.plan("SELECT name FROM city WHERE population > 1000000").unwrap()
//! };
//! let (heuristic, cost_based) = (plan(Planner::Heuristic), plan(Planner::CostBased));
//! // The cost-based planner pushes the selective condition into the key
//! // scan, which the fixed heuristic (pushdown off) does not.
//! assert!(cost_based.compiled.steps[0].scan_condition.is_some());
//! assert!(heuristic.compiled.steps[0].scan_condition.is_none());
//! assert!(cost_based.report.est_virtual_ms <= heuristic.report.est_virtual_ms);
//! ```

use crate::compile::{compile_owned, CompileOptions, CompiledQuery, LlmScanStep};
use crate::error::Result;
use crate::physical::{self, PhysicalPlan, Stage};
use crate::session::{GaloisOptions, Resilience, REQUEST_PROMPTS};
use galois_llm::intent::{CmpOp, Condition};
use galois_llm::{ClientStats, RetryPolicy, BATCH_OVERHEAD_MS};
use galois_relational::cost::{self as rcost, Estimate};
use galois_relational::{join_algorithm, Catalog, JoinAlgorithm, LogicalPlan, TableSchema};
use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Expected per-prompt model latency (virtual ms) before any observed
/// [`ClientStats`] are available to calibrate it.
pub(crate) const DEFAULT_PROMPT_LATENCY_MS: f64 = 150.0;

/// Expected keys returned per key-listing iteration.
const DEFAULT_LIST_PAGE: f64 = 15.0;

/// Fraction of a single prompt's latency attributed to decoding its answer
/// tokens — the *marginal* cost of each extra key folded into a multi-key
/// batched prompt. The remainder (prompt processing, decode start-up) is
/// paid once per prompt regardless of how many keys it carries, which is
/// the economics batching exploits: a `B`-key prompt is modelled as
/// `latency · (1 − share + share · B)`, not `latency · B`.
pub(crate) const BATCH_ANSWER_LATENCY_SHARE: f64 = 0.5;

/// Which plan-choice strategy a session uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Planner {
    /// The fixed rules of the paper's prototype: compile the optimized
    /// logical plan as-is, with prompt pushdown governed solely by
    /// [`CompileOptions::pushdown`]. Guaranteed bit-identical to the
    /// pre-planner pipeline — same plans, same prompts, same tables.
    #[default]
    Heuristic,
    /// Estimate prompt count, cache hits and lane-model virtual latency
    /// per candidate, push the cheapest single condition per retrieval
    /// step, and order steps longest-first for the scheduler.
    CostBased,
}

impl fmt::Display for Planner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Planner::Heuristic => write!(f, "heuristic"),
            Planner::CostBased => write!(f, "cost-based"),
        }
    }
}

/// The cost model's calibration: the expected latency of one
/// cache-missing prompt and the expected share of prompts the cache
/// serves. It is all a session freezes at its first statement, so plan
/// choice never depends on which concurrent query's prompts landed first
/// in the shared stats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Calibration {
    /// Expected virtual latency of one cache-missing prompt.
    pub(crate) prompt_latency_ms: f64,
    /// Expected fraction of prompts served by the cache (in-flight
    /// deduplication waiters count as hits, like the client's accounting).
    pub(crate) cache_hit_rate: f64,
}

impl Calibration {
    /// Before any prompt is observed.
    pub(crate) const COLD: Calibration = Calibration {
        prompt_latency_ms: DEFAULT_PROMPT_LATENCY_MS,
        cache_hit_rate: 0.0,
    };

    /// Calibrated from a client's observed stats: each reading keeps its
    /// cold-start value until the stats hold something to read it from.
    pub(crate) fn observed(stats: &ClientStats) -> Self {
        let mut c = Calibration::COLD;
        if stats.prompts > 0 {
            let model_ms = stats
                .serial_ms
                .saturating_sub(stats.batches as u64 * BATCH_OVERHEAD_MS);
            c.prompt_latency_ms = (model_ms as f64 / stats.prompts as f64).max(1.0);
        }
        let answered = stats.prompts + stats.cache_hits;
        if answered > 0 {
            c.cache_hit_rate = stats.cache_hits as f64 / answered as f64;
        }
        c
    }

    /// Expected latency of one prompt carrying `keys` fused tasks: the
    /// fixed share once, the answer share per key (see
    /// [`BATCH_ANSWER_LATENCY_SHARE`]). Degenerates to `prompt_latency_ms`
    /// at one key.
    fn fused_prompt_latency_ms(&self, keys: f64) -> f64 {
        self.prompt_latency_ms
            * (1.0 - BATCH_ANSWER_LATENCY_SHARE + BATCH_ANSWER_LATENCY_SHARE * keys.max(1.0))
    }
}

/// What one planning pass reads: the session's options where the session
/// holds them, its frozen [`Calibration`], and the key-universe store's
/// live warm-list overlay.
///
/// The options decide the estimates as follows. `parallelism` is the lane
/// model's divisor. `prompt_batch` fuses keys (and, in grid mode,
/// attributes) per filter or fetch prompt, so the fetch phase costs
/// `⌈C/A⌉ × ⌈keys/B⌉` prompts a step; `PromptBatch::Off` reproduces the
/// unbatched estimates. Under a streaming `pipeline` latency is the
/// dataflow's critical path (`critical_path_ms`) instead of the
/// phase-barrier sum, and steps share the lanes instead of packing as
/// blocks; prompt counts are unaffected, and so are they by a `LIMIT`
/// window, since how many keys survive before it fills is data-dependent.
/// `resilience` adds the report's `resilience:` line and leaves every
/// estimate alone: retry time depends on the model's live fault rate,
/// which the observed per-prompt latency already folds in.
pub(crate) struct Planning<'a> {
    /// The session's options.
    pub(crate) options: &'a GaloisOptions,
    /// The session's frozen calibration.
    pub(crate) calibration: Calibration,
    /// Concepts already exhausted in the session's key-universe store
    /// ([`crate::ListStore`]), keyed by `LlmScanStep::concept_signature`
    /// and mapping to the stored key count. A warm step's listing phase is
    /// estimated at zero prompts and zero latency with an *exact*
    /// cardinality, the stored key count. `None` (always when the store is
    /// off) keeps the `EXPLAIN` report tag-free.
    pub(crate) warm_lists: Option<Arc<BTreeMap<String, usize>>>,
}

impl Planning<'_> {
    /// Request lanes, as the lane model's divisor.
    fn lanes(&self) -> f64 {
        self.options.parallelism.get() as f64
    }

    /// The stored key count for a step's concept, when its universe is
    /// warm (store on *and* concept exhausted).
    fn warm_keys(&self, step: &LlmScanStep) -> Option<usize> {
        self.warm_lists
            .as_ref()
            .and_then(|m| m.get(&step.concept_signature()))
            .copied()
    }
}

/// Estimated cost of one LLM retrieval step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepCost {
    /// Keys the key-listing phase is expected to produce.
    pub est_keys_listed: f64,
    /// Rows expected to survive every filter condition.
    pub est_rows_out: f64,
    /// Expected key-listing prompts (iterations + the exhausted page).
    pub list_prompts: f64,
    /// Expected per-key boolean filter prompts.
    pub filter_prompts: f64,
    /// Expected per-(key, attribute) fetch prompts.
    pub fetch_prompts: f64,
    /// Expected prompts served by the cache.
    pub expected_cache_hits: f64,
    /// Expected virtual milliseconds under the lane model: the
    /// phase-barrier wave sum, or the dataflow critical path when the
    /// streaming pipeline is selected.
    pub virtual_ms: f64,
    /// Expected total lane-busy milliseconds of the step. Under the
    /// streaming pipeline this is the step's contribution to the shared
    /// lanes' busy bound (each micro-batch pays its own request
    /// overhead); in wave mode it equals `virtual_ms`, the step's packed
    /// block length.
    pub busy_ms: f64,
    /// The stored key count the listing phase was estimated from, when the
    /// step's key universe is warm (its concept is exhausted in the
    /// session's key-universe store); `None` when it is cold or no store
    /// is attached.
    pub warm_keys: Option<usize>,
}

impl StepCost {
    /// All prompts the step is expected to issue.
    pub(crate) fn total_prompts(&self) -> f64 {
        self.list_prompts + self.filter_prompts + self.fetch_prompts
    }
}

/// The planner's decision for one query: the compiled retrieval program,
/// its physical plan and the cost report that justified it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedQuery {
    /// Retrieval steps + residual relational plan, ready to execute.
    pub compiled: CompiledQuery,
    /// How each step retrieves, with its estimated cost.
    pub physical: PhysicalPlan,
    /// Cost accounting for the whole query.
    pub report: PlanReport,
}

/// Cost accounting attached to a [`PlannedQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// Strategy that produced the plan.
    pub planner: Planner,
    /// Candidate plans whose costs were compared (1 for the heuristic).
    pub candidates_considered: usize,
    /// Expected query virtual time: step estimates packed onto the lanes.
    pub est_virtual_ms: f64,
    /// Expected total prompts across steps.
    pub est_total_prompts: f64,
    /// Expected cache hits across steps.
    pub est_cache_hits: f64,
}

/// Selectivity of a prompt-protocol condition, using the same System-R
/// constants as the relational estimator.
pub(crate) fn condition_selectivity(cond: &Condition) -> f64 {
    match cond.op {
        CmpOp::Eq => rcost::SEL_EQ,
        CmpOp::NotEq => 1.0 - rcost::SEL_EQ,
        CmpOp::Gt | CmpOp::GtEq | CmpOp::Lt | CmpOp::LtEq => rcost::SEL_RANGE,
        CmpOp::Between => rcost::SEL_BETWEEN,
        CmpOp::In => (rcost::SEL_IN_PER_ITEM * cond.values.len() as f64).min(1.0),
        CmpOp::Like => rcost::SEL_LIKE,
        CmpOp::IsNull => rcost::SEL_IS_NULL,
        CmpOp::IsNotNull => 1.0 - rcost::SEL_IS_NULL,
    }
}

/// Expected number of prompts needed to cover `items` retrieval tasks when
/// up to `batch_keys` of them fuse into one multi-key prompt. With a batch
/// factor of 1 (batching off) this is the identity — the estimate stays
/// bit-compatible with the unbatched cost model — and otherwise it is the
/// `⌈items / B⌉` the batched retrieval phases actually issue.
fn batched_prompt_count(items: f64, batch_keys: f64) -> f64 {
    if batch_keys > 1.0 {
        (items.max(0.0) / batch_keys).ceil()
    } else {
        items.max(0.0)
    }
}

/// Virtual latency of a pipelined (streaming) execution: the longer of
/// the dataflow's dependency chain and the busy-time bound.
///
/// A wave execution sums its phases — every phase barrier adds its full
/// wave time. A pipelined execution is instead bounded below by two
/// quantities: the **critical path** (`chain_ms`, the sequential head the
/// pipeline cannot overlap — e.g. the key-listing iteration chain — plus
/// `tail_ms`, the last item's journey through the remaining stages) and
/// the **busy bound** (`busy_ms` of total lane work spread across `lanes`
/// — with one lane a pipeline degenerates to executing everything back to
/// back). The estimate is the max of the two, the classical pipelined
/// makespan approximation.
fn critical_path_ms(chain_ms: f64, tail_ms: f64, busy_ms: f64, lanes: f64) -> f64 {
    (chain_ms + tail_ms).max(busy_ms / lanes.max(1.0))
}

/// Expected virtual time of one wave of `batches` batch requests carrying
/// `prompts` prompts in total: each batch costs `overhead` plus its
/// cache-missing members decoded across the lanes, and the batches
/// themselves occupy the lanes wave-style. `per_prompt_ms` is the expected
/// latency of one member prompt — `prompt_latency_ms` for single-key
/// prompts, [`Calibration::fused_prompt_latency_ms`] for multi-key ones,
/// so batched prompts are charged by answer volume rather than per key.
fn wave_ms(prompts: f64, batches: f64, per_prompt_ms: f64, planning: &Planning<'_>) -> f64 {
    if batches < 1.0 {
        return 0.0;
    }
    let lanes = planning.lanes();
    let misses_per_batch = (prompts / batches) * (1.0 - planning.calibration.cache_hit_rate);
    let per_batch = BATCH_OVERHEAD_MS as f64 + (misses_per_batch / lanes) * per_prompt_ms;
    (batches / lanes).ceil() * per_batch
}

/// Estimates the cost of one retrieval step, laid out as `stages`
/// (`physical::stages`), against the catalog's stats.
pub(crate) fn estimate_step(
    step: &LlmScanStep,
    stages: &[Stage],
    catalog: &Catalog,
    planning: &Planning<'_>,
) -> StepCost {
    // A warm key universe short-circuits the listing estimate entirely:
    // the stored key count is exact, and the phase issues no prompts.
    let warm_keys = planning.warm_keys(step);
    let calibration = &planning.calibration;
    let est_keys_listed = match warm_keys {
        Some(n) => n as f64,
        None => {
            let base = catalog
                .get(&step.table)
                .map(|t| t.len() as f64)
                .unwrap_or(rcost::DEFAULT_SCAN_ROWS);
            match &step.scan_condition {
                Some(cond) => base * condition_selectivity(cond),
                None => base,
            }
        }
    };

    // Key listing iterates page by page plus one exhausted page, and the
    // iterations chain — a strictly sequential phase of one-prompt batches.
    let miss = 1.0 - calibration.cache_hit_rate;
    let per_iter = BATCH_OVERHEAD_MS as f64 + miss * calibration.prompt_latency_ms;
    let (list_prompts, list_chain) = if warm_keys.is_some() {
        (0.0, 0.0)
    } else {
        let prompts = (est_keys_listed / DEFAULT_LIST_PAGE).ceil().max(0.0) + 1.0;
        (prompts, prompts * per_iter)
    };
    let mut wave_total = list_chain;

    // Filter conditions chain (condition n+1 only prompts survivors of n);
    // the chunks within one condition run as one wave. With multi-key
    // batching the phase issues ⌈keys / B⌉ fused prompts per condition,
    // each charged by answer volume.
    let batch_keys = planning.options.prompt_batch.keys_per_prompt() as f64;
    let request_prompts = REQUEST_PROMPTS as f64;
    let fused = calibration.fused_prompt_latency_ms(batch_keys);
    let mut filter_prompts = 0.0;
    let mut n = est_keys_listed;
    for cond in &step.filter_conditions {
        let prompts = batched_prompt_count(n, batch_keys);
        filter_prompts += prompts;
        wave_total += wave_ms(prompts, (prompts / request_prompts).ceil(), fused, planning);
        n *= condition_selectivity(cond);
    }

    // Every (attr-group × chunk) fetch cell is independent — one wave.
    // The step's fetch stages follow its filter stages, one per group of
    // up to `A` columns (one column each when `A = 1`): ⌈C/A⌉ groups whose
    // prompts carry `B × attrs-per-group` answer cells each.
    let cols = step.fetch.len() as f64;
    let groups = (stages.len() - step.filter_conditions.len()) as f64;
    let attrs_per_group = if groups > 0.0 { cols / groups } else { 0.0 };
    let col_prompts = batched_prompt_count(n, batch_keys);
    let fetch_prompts = col_prompts * groups;
    let fetch_fused = calibration.fused_prompt_latency_ms(batch_keys * attrs_per_group.max(1.0));
    wave_total += wave_ms(
        fetch_prompts,
        (col_prompts / request_prompts).ceil() * groups,
        fetch_fused,
        planning,
    );

    // The streaming pipeline replaces the phase-barrier sum with the
    // dataflow critical path: the last productive page's keys still have
    // to traverse every remaining stage (each micro-batch paying its own
    // request overhead), but every earlier page's work — and the final
    // exhausted-page check — hides behind the chain. The busy bound
    // covers the single-lane degeneration, where the per-micro-batch
    // overheads are paid back to back.
    let per_stage = BATCH_OVERHEAD_MS as f64 + miss * fused;
    let streaming = planning.options.pipeline.is_streaming();
    let busy_ms = if streaming {
        list_chain + (filter_prompts + fetch_prompts) * per_stage
    } else {
        wave_total
    };
    let virtual_ms = if streaming {
        let stages =
            step.filter_conditions.len() as f64 + if step.fetch.is_empty() { 0.0 } else { 1.0 };
        let chain_head = (list_prompts - 1.0).max(0.0) * per_iter;
        critical_path_ms(chain_head, stages * per_stage, busy_ms, planning.lanes()).max(list_chain)
    } else {
        wave_total
    };

    let total = list_prompts + filter_prompts + fetch_prompts;
    StepCost {
        est_keys_listed,
        est_rows_out: n,
        list_prompts,
        filter_prompts,
        fetch_prompts,
        expected_cache_hits: calibration.cache_hit_rate * total,
        virtual_ms,
        busy_ms,
        warm_keys,
    }
}

/// Scan bindings of a join side, left to right — the `EXPLAIN` label for
/// one input of a join.
fn side_label(plan: &LogicalPlan) -> String {
    let labels: Vec<&str> = plan
        .scans()
        .iter()
        .filter_map(|s| match s {
            LogicalPlan::Scan { binding, .. } => Some(&**binding),
            _ => None,
        })
        .collect();
    if labels.is_empty() {
        "?".to_string()
    } else {
        labels.join(" ⋈ ")
    }
}

/// Appends one `join order:` report line per join node (post-order, so
/// inner joins print before the joins consuming them): the algorithm the
/// executor joins with ([`join_algorithm`] over the scans' schemas,
/// `schema_of`) and the estimated rows of each side, read from `rows`,
/// the estimates of `plan`'s nodes in pre-order. Returns how many nodes
/// `plan` has.
fn join_order_lines<'s>(
    plan: &LogicalPlan,
    rows: &[f64],
    schema_of: &impl Fn(&str) -> Option<&'s TableSchema>,
    out: &mut String,
) -> std::result::Result<usize, fmt::Error> {
    let (left, right) = match plan {
        LogicalPlan::Scan { .. } => return Ok(1),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::Limit { input, .. } => {
            return Ok(1 + join_order_lines(input, &rows[1..], schema_of, out)?)
        }
        LogicalPlan::Join { left, right, .. } | LogicalPlan::CrossJoin { left, right, .. } => {
            (left, right)
        }
    };
    let left_nodes = join_order_lines(left, &rows[1..], schema_of, out)?;
    let right_rows = &rows[1 + left_nodes..];
    let right_nodes = join_order_lines(right, right_rows, schema_of, out)?;
    if let LogicalPlan::Join { condition, .. } = plan {
        let (l, r) = (side_label(left), side_label(right));
        write!(out, "join order: {l} ⋈ {r}  (")?;
        match join_algorithm(left, right, condition, schema_of) {
            JoinAlgorithm::IndexRight(_) => write!(out, "index join on {r}'s key")?,
            JoinAlgorithm::IndexLeft(_) => write!(out, "index join on {l}'s key")?,
            JoinAlgorithm::Hash => write!(out, "hash join building {r}")?,
            JoinAlgorithm::NestedLoop => out.push_str("nested loop"),
        }
        writeln!(
            out,
            "; left rows≈{}, right rows≈{})",
            Estimate(rows[1]),
            Estimate(right_rows[0])
        )?;
    }
    Ok(1 + left_nodes + right_nodes)
}

/// [`estimate_step`] over the stages the step is laid out as.
fn estimate(step: &LlmScanStep, catalog: &Catalog, planning: &Planning<'_>) -> StepCost {
    let stages = physical::stages(step, planning.options.prompt_batch);
    estimate_step(step, &stages, catalog, planning)
}

/// Picks the cheapest pushdown variant of one step. Returns the chosen
/// step, its cost, and how many candidates were costed. Candidate `j` is
/// the step with filter condition `j` moved into its scan condition; the
/// step itself serves as every candidate, each condition moving back after
/// its estimate, and only the winner's stays pushed.
fn best_step_variant(
    mut step: LlmScanStep,
    catalog: &Catalog,
    planning: &Planning<'_>,
) -> (LlmScanStep, StepCost, usize) {
    let mut best_cost = estimate(&step, catalog, planning);
    if step.scan_condition.is_some() {
        return (step, best_cost, 1);
    }
    let mut best = None;
    let considered = 1 + step.filter_conditions.len();
    for j in 0..step.filter_conditions.len() {
        step.scan_condition = Some(step.filter_conditions.remove(j));
        let cost = estimate(&step, catalog, planning);
        if let Some(cond) = step.scan_condition.take() {
            step.filter_conditions.insert(j, cond);
        }
        // Strict improvement keeps ties on the heuristic shape (and on the
        // lowest j), which keeps the choice deterministic.
        if cost.virtual_ms < best_cost.virtual_ms - 1e-9
            || (cost.virtual_ms <= best_cost.virtual_ms + 1e-9
                && cost.total_prompts() < best_cost.total_prompts() - 1e-9)
        {
            best = Some(j);
            best_cost = cost;
        }
    }
    if let Some(j) = best {
        step.scan_condition = Some(step.filter_conditions.remove(j));
    }
    (step, best_cost, considered)
}

/// Chooses a retrieval program for an optimized logical plan under the
/// session's [`Planner`], compiling the plan in place, and lays it out as
/// its physical plan, each step carrying its estimate.
///
/// * [`Planner::Heuristic`] compiles the plan exactly as the pre-planner
///   pipeline did (bit-identical [`CompiledQuery`], pushdown as
///   [`CompileOptions::pushdown`] says) and merely *annotates* it with
///   cost estimates.
/// * [`Planner::CostBased`] compiles with pushdown off, enumerates one
///   pushed-down condition per step (or none), keeps the cheapest, and
///   orders steps longest-first.
pub(crate) fn plan_owned(
    plan: LogicalPlan,
    catalog: &Catalog,
    planning: &Planning<'_>,
) -> Result<PlannedQuery> {
    let options = planning.options;
    let planner = options.planner;
    let (compiled, costs, candidates) = match planner {
        Planner::Heuristic => {
            let compiled = compile_owned(plan, catalog, &options.compile)?;
            let costs: Vec<StepCost> = (compiled.steps.iter())
                .map(|step| estimate(step, catalog, planning))
                .collect();
            (compiled, costs, 1)
        }
        Planner::CostBased => {
            // Start from the no-pushdown compilation so every condition is
            // a candidate, then choose per step.
            let mut compiled = compile_owned(plan, catalog, &CompileOptions { pushdown: false })?;
            let mut candidates = 0usize;
            let mut chosen = Vec::with_capacity(compiled.steps.len());
            for step in std::mem::take(&mut compiled.steps) {
                let (step, cost, considered) = best_step_variant(step, catalog, planning);
                chosen.push((step, cost));
                candidates += considered;
            }
            // LPT ordering: the scheduler packs the step wave greedily, so
            // submitting the longest retrieval first minimises the
            // estimated makespan. The sort is stable: ties keep the
            // original order.
            chosen.sort_by(|(_, a), (_, b)| b.virtual_ms.total_cmp(&a.virtual_ms));
            let costs: Vec<StepCost>;
            (compiled.steps, costs) = chosen.into_iter().unzip();
            (compiled, costs, candidates.max(1))
        }
    };
    // Each cost was estimated over the stages its step is laid out as here.
    let mut physical = PhysicalPlan::new(&compiled, options.prompt_batch, options.pipeline);
    for (step_plan, cost) in physical.steps.iter_mut().zip(&costs) {
        step_plan.cost = *cost;
    }
    // Wave mode packs the steps onto the lanes as blocks; the streaming
    // pipeline shares the lanes across steps, so the query estimate is
    // the slowest step's critical path against the pooled busy bound.
    let est_virtual_ms = if options.pipeline.is_streaming() {
        let chain = costs.iter().map(|c| c.virtual_ms).fold(0.0, f64::max);
        let busy: f64 = costs.iter().map(|c| c.busy_ms).sum();
        critical_path_ms(chain, 0.0, busy, planning.lanes())
    } else {
        let blocks = costs.iter().map(|c| c.virtual_ms.round().max(0.0) as u64);
        galois_llm::lane_schedule(blocks, options.parallelism.get()) as f64
    };
    let report = PlanReport {
        planner,
        candidates_considered: candidates,
        est_virtual_ms,
        est_total_prompts: costs.iter().map(StepCost::total_prompts).sum(),
        est_cache_hits: costs.iter().map(|c| c.expected_cache_hits).sum(),
    };
    Ok(PlannedQuery {
        compiled,
        physical,
        report,
    })
}

impl PlannedQuery {
    /// Renders the `EXPLAIN` report: every retrieval step with its prompt
    /// protocol and cost estimates, then the residual relational plan with
    /// cardinality annotations, then query totals.
    pub(crate) fn render(&self, catalog: &Catalog, planning: &Planning<'_>) -> String {
        let mut out = String::new();
        // Writing to a `String` cannot fail.
        let _ = self.write_report(catalog, planning, &mut out);
        out
    }

    /// [`PlannedQuery::render`], appending to `out`.
    fn write_report(
        &self,
        catalog: &Catalog,
        planning: &Planning<'_>,
        out: &mut String,
    ) -> fmt::Result {
        let options = planning.options;
        write!(
            out,
            "galois plan  (planner: {}, lanes: {}",
            self.report.planner,
            options.parallelism.get()
        )?;
        // The batch factor only appears when a prompt fuses something, so
        // the `PromptBatch::Off` report stays byte-identical to the
        // pre-batch pipeline's.
        let shape = self.physical.batch;
        let (keys, attrs) = (shape.keys_per_prompt(), shape.attrs_per_prompt());
        if attrs > 1 {
            write!(out, ", batch: {keys} keys × {attrs} attrs/prompt")?;
        } else if keys > 1 {
            write!(out, ", batch: {keys} keys/prompt")?;
        }
        // Likewise the pipeline tag: absent in the default wave mode, so
        // the pre-pipelining report stays byte-identical.
        if options.pipeline.is_streaming() {
            out.push_str(", pipeline: streaming");
        }
        writeln!(
            out,
            ", candidates considered: {})",
            self.report.candidates_considered
        )?;
        // The early-termination line appears only when the plan has a
        // window, so every other report stays byte-identical to the
        // pre-limit pipeline's.
        if let Some(n) = self.physical.window {
            writeln!(out, "limit: early-stop after ~{n} keys")?;
        }
        // The resilience line appears only with the retry knob on, so
        // every `Resilience::Off` report stays byte-identical to the
        // pre-resilience pipeline's.
        if let Resilience::On(policy) = &options.resilience {
            writeln!(
                out,
                "resilience: {} retries, backoff {}ms ×{} (cap {}ms), timeout {}ms, \
                 breaker opens at {}",
                policy.max_retries,
                RetryPolicy::BASE_BACKOFF_MS,
                RetryPolicy::BACKOFF_MULTIPLIER,
                RetryPolicy::MAX_BACKOFF_MS,
                RetryPolicy::TIMEOUT_MS,
                RetryPolicy::BREAKER_THRESHOLD,
            )?;
        }
        let costs = self.physical.steps.iter().map(|s| &s.cost);
        for (i, (step, cost)) in self.compiled.steps.iter().zip(costs.clone()).enumerate() {
            crate::compile::render_step_into(step, i, out)?;
            // Key-universe store line: only when a store is attached, so
            // the store-off report stays byte-identical to the pre-store
            // pipeline's.
            if planning.warm_lists.is_some() {
                match cost.warm_keys {
                    Some(n) => writeln!(out, "    list: warm ({n} keys)")?,
                    None => out.push_str("    list: cold\n"),
                }
            }
            writeln!(
                out,
                "    cost: keys≈{}, prompts≈{} ({} list + {} filter + {} fetch), \
                 cache hits≈{}, virtual≈{} ms",
                Estimate(cost.est_keys_listed),
                Estimate(cost.total_prompts()),
                Estimate(cost.list_prompts),
                Estimate(cost.filter_prompts),
                Estimate(cost.fetch_prompts),
                Estimate(cost.expected_cache_hits),
                Estimate(cost.virtual_ms),
            )?;
        }
        // Each step's temp table (lower-cased) and its estimated rows out:
        // the cardinalities of the `__llm_*` scans the catalog has no rows
        // for.
        let temp_rows: HashMap<String, f64> = (self.compiled.steps.iter())
            .map(|s| s.temp_name.to_ascii_lowercase())
            .zip(costs.map(|c| c.est_rows_out))
            .collect();
        // Every node's estimate, computed once: the join-order lines and
        // the relational tree both read them.
        let rows = rcost::estimate_rows_preorder(&self.compiled.plan, catalog, &temp_rows);
        // Join-order lines (each join's algorithm and estimated side rows,
        // in `FROM` order) belong to the cost-based report; the heuristic
        // report stays byte-identical without them.
        // The executor finds a temp as the table built under its step's
        // schema, any other scan in the catalog.
        if self.report.planner == Planner::CostBased {
            let schema_of =
                |name: &str| match self.compiled.steps.iter().find(|s| &*s.temp_name == name) {
                    Some(step) => Some(step.temp_schema.as_ref()),
                    None => catalog.get(name).ok().map(|t| t.schema.as_ref()),
                };
            join_order_lines(&self.compiled.plan, &rows, &schema_of, out)?;
        }
        out.push_str("[relational plan]\n");
        rcost::explain_with_rows_into(&self.compiled.plan, &rows, out);
        writeln!(
            out,
            "total: prompts≈{}, cache hits≈{}, virtual≈{} ms",
            Estimate(self.report.est_total_prompts),
            Estimate(self.report.est_cache_hits),
            Estimate(self.report.est_virtual_ms),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, concept_signature_for};
    use crate::session::{Pipeline, PromptBatch};
    use galois_dataset::Scenario;
    use galois_llm::Parallelism;

    #[test]
    fn batched_prompt_count_is_identity_at_one_and_ceil_above() {
        assert_eq!(batched_prompt_count(17.3, 1.0), 17.3);
        assert_eq!(batched_prompt_count(17.3, 10.0), 2.0);
        assert_eq!(batched_prompt_count(20.0, 10.0), 2.0);
        assert_eq!(batched_prompt_count(21.0, 10.0), 3.0);
        assert_eq!(batched_prompt_count(0.0, 10.0), 0.0);
        assert_eq!(batched_prompt_count(-1.0, 10.0), 0.0);
    }

    #[test]
    fn critical_path_takes_the_binding_bound() {
        // Chain-bound: plenty of lanes, the dependency chain dominates.
        assert_eq!(critical_path_ms(500.0, 250.0, 1000.0, 8.0), 750.0);
        // Busy-bound: one lane, total work dominates.
        assert_eq!(critical_path_ms(500.0, 250.0, 3000.0, 1.0), 3000.0);
        // Lanes clamp to one.
        assert_eq!(critical_path_ms(0.0, 0.0, 100.0, 0.0), 100.0);
    }

    /// Key batching: `B` keys a prompt, one attribute a fetch group.
    fn keys(keys: usize) -> PromptBatch {
        PromptBatch::Grid { keys, attrs: 1 }
    }

    /// Default options at another batch shape.
    fn batched(prompt_batch: PromptBatch) -> GaloisOptions {
        GaloisOptions {
            prompt_batch,
            ..Default::default()
        }
    }

    /// Default options at `lanes` request lanes.
    fn at_lanes(lanes: usize) -> GaloisOptions {
        GaloisOptions {
            parallelism: Parallelism::new(lanes),
            ..Default::default()
        }
    }

    /// A storeless session's planning inputs under `options` and `calibration`.
    fn planning(options: &GaloisOptions, calibration: Calibration) -> Planning<'_> {
        Planning {
            options,
            calibration,
            warm_lists: None,
        }
    }

    /// `sql` on `s`, planned under `options` at the cold-start calibration.
    fn plan_in(s: &Scenario, sql: &str, options: &GaloisOptions) -> PlannedQuery {
        let plan = s.database.plan(sql).unwrap();
        plan_owned(
            plan,
            s.database.catalog(),
            &planning(options, Calibration::COLD),
        )
        .unwrap()
    }

    /// [`plan_in`]'s plan rendered.
    fn render_in(s: &Scenario, sql: &str, options: &GaloisOptions) -> String {
        let planning = planning(options, Calibration::COLD);
        plan_in(s, sql, options).render(s.database.catalog(), &planning)
    }

    /// `options` under another planner.
    fn under(planner: Planner, options: &GaloisOptions) -> GaloisOptions {
        GaloisOptions {
            planner,
            ..options.clone()
        }
    }

    /// Each step's estimate, in step order.
    fn step_costs(planned: &PlannedQuery) -> Vec<StepCost> {
        planned.physical.steps.iter().map(|s| s.cost).collect()
    }

    fn planned(sql: &str, planner: Planner, options: &GaloisOptions) -> PlannedQuery {
        plan_in(&Scenario::generate(42), sql, &under(planner, options))
    }

    #[test]
    fn heuristic_matches_direct_compilation_bit_for_bit() {
        let s = Scenario::generate(42);
        for sql in [
            "SELECT name FROM city WHERE population > 1000000",
            "SELECT p.name, r.electionYear FROM city p, cityMayor r WHERE p.mayor = r.name",
            "SELECT continent, COUNT(*) FROM country GROUP BY continent",
        ] {
            let plan = s.database.plan(sql).unwrap();
            let direct = compile(&plan, s.database.catalog(), &CompileOptions::default()).unwrap();
            let chosen = plan_in(&s, sql, &GaloisOptions::default());
            assert_eq!(chosen.compiled, direct, "{sql}");
            assert_eq!(chosen.report.candidates_considered, 1);
        }
    }

    /// The search `best_step_variant` replaced: one clone of the step per
    /// candidate.
    fn best_step_variant_reference(
        step: &LlmScanStep,
        catalog: &Catalog,
        planning: &Planning<'_>,
    ) -> (LlmScanStep, StepCost, usize) {
        let mut best = step.clone();
        let mut best_cost = estimate(step, catalog, planning);
        let mut considered = 1;
        if step.scan_condition.is_some() {
            return (best, best_cost, considered);
        }
        for j in 0..step.filter_conditions.len() {
            let mut candidate = step.clone();
            let cond = candidate.filter_conditions.remove(j);
            candidate.scan_condition = Some(cond);
            let cost = estimate(&candidate, catalog, planning);
            considered += 1;
            if cost.virtual_ms < best_cost.virtual_ms - 1e-9
                || (cost.virtual_ms <= best_cost.virtual_ms + 1e-9
                    && cost.total_prompts() < best_cost.total_prompts() - 1e-9)
            {
                best = candidate;
                best_cost = cost;
            }
        }
        (best, best_cost, considered)
    }

    /// Over the evaluation and operator suites' 46 + 18 statements, with
    /// every key universe cold and with every other candidate's warm,
    /// unbatched and on the serving grid: the scratch-step search picks
    /// the step the clone-per-candidate one did, at the same cost.
    #[test]
    fn best_step_variant_matches_the_clone_per_candidate_search() {
        let s = Scenario::generate(42);
        let catalog = s.database.catalog();
        let operators = galois_dataset::build_operator_suite(&s.world);
        let sqls: Vec<String> = (s.suite.iter().map(|q| q.to_sql()))
            .chain(operators.into_iter().map(|q| q.sql))
            .collect();
        assert_eq!(sqls.len(), 46 + 18);
        let (mut pushed, mut kept) = (0, 0);
        for sql in &sqls {
            let plan = s.database.plan(sql).unwrap();
            let no_pushdown = CompileOptions { pushdown: false };
            let steps = compile(&plan, catalog, &no_pushdown).unwrap().steps;
            let mut warm = BTreeMap::new();
            for (k, step) in steps.iter().enumerate() {
                let conditions = step.filter_conditions.iter().map(|c| c.render());
                for (j, rendered) in std::iter::once(String::new()).chain(conditions).enumerate() {
                    if (k + j) % 2 == 0 {
                        let concept = concept_signature_for(&step.table, &step.key_attr, &rendered);
                        warm.insert(concept, (3 * j + k) % 11);
                    }
                }
            }
            let warm = Arc::new(warm);
            for batch in [PromptBatch::Off, PromptBatch::Grid { keys: 10, attrs: 6 }] {
                let options = batched(batch);
                for warm_lists in [None, Some(warm.clone())] {
                    let planning = Planning {
                        warm_lists,
                        ..planning(&options, Calibration::COLD)
                    };
                    for step in &steps {
                        let want = best_step_variant_reference(step, catalog, &planning);
                        let got = best_step_variant(step.clone(), catalog, &planning);
                        assert_eq!(got, want, "{sql} under {batch:?}");
                        if got.0.scan_condition.is_some() {
                            pushed += 1;
                        } else if got.2 > 1 {
                            kept += 1;
                        }
                    }
                }
            }
        }
        // Both outcomes of a real choice occur.
        assert!(pushed >= 30 && kept >= 30, "{pushed} pushed, {kept} kept");
    }

    #[test]
    fn cost_based_pushes_a_selective_condition() {
        let options = GaloisOptions::default();
        let q = "SELECT name FROM city WHERE population > 1000000";
        let heuristic = planned(q, Planner::Heuristic, &options);
        let cost_based = planned(q, Planner::CostBased, &options);
        assert!(heuristic.compiled.steps[0].scan_condition.is_none());
        assert!(cost_based.compiled.steps[0].scan_condition.is_some());
        assert!(cost_based.compiled.steps[0].filter_conditions.is_empty());
        assert!(
            cost_based.report.est_total_prompts < heuristic.report.est_total_prompts,
            "{} vs {}",
            cost_based.report.est_total_prompts,
            heuristic.report.est_total_prompts
        );
        assert!(cost_based.report.est_virtual_ms <= heuristic.report.est_virtual_ms);
        assert!(cost_based.report.candidates_considered > 1);
    }

    #[test]
    fn cost_based_pushes_the_cheapest_of_several_conditions() {
        // Eq is more selective than a range: the planner should push it.
        let q = "SELECT name FROM city WHERE population > 100 AND country = 'Veladria'";
        let cost_based = planned(q, Planner::CostBased, &GaloisOptions::default());
        let step = &cost_based.compiled.steps[0];
        let pushed = step.scan_condition.as_ref().expect("one condition pushed");
        assert_eq!(pushed.attribute, "country");
        assert_eq!(step.filter_conditions.len(), 1);
        assert_eq!(step.filter_conditions[0].attribute, "population");
    }

    #[test]
    fn cost_based_orders_steps_longest_first() {
        let q = "SELECT p.name, r.electionYear, r.party, r.birthDate \
                 FROM city p, cityMayor r WHERE p.mayor = r.name";
        let planned = planned(q, Planner::CostBased, &at_lanes(8));
        let costs = step_costs(&planned);
        assert_eq!(costs.len(), 2);
        assert!(costs[0].virtual_ms >= costs[1].virtual_ms);
    }

    /// Every join's `(left, right)` side labels, in post-order.
    fn join_sides(plan: &LogicalPlan, out: &mut Vec<(String, String)>) {
        for child in plan.children() {
            join_sides(child, out);
        }
        if let LogicalPlan::Join { left, right, .. } = plan {
            out.push((side_label(left), side_label(right)));
        }
    }

    #[test]
    fn cost_based_plans_keep_the_heuristic_join_order() {
        // Neither planner rewrites joins: the executor serves a keyed
        // join from either side's index, so both keep the FROM order.
        let s = Scenario::generate(42);
        let operators = galois_dataset::build_operator_suite(&s.world);
        let statements: Vec<String> = (s.suite.iter().map(|q| q.to_sql()))
            .chain(operators.into_iter().map(|q| q.sql))
            .collect();
        assert_eq!(statements.len(), 46 + 18);
        let mut joins = 0;
        for sql in &statements {
            let order = |planner| {
                let planned = plan_in(&s, sql, &under(planner, &GaloisOptions::default()));
                let mut sides = Vec::new();
                join_sides(&planned.compiled.plan, &mut sides);
                sides
            };
            let heuristic = order(Planner::Heuristic);
            assert_eq!(order(Planner::CostBased), heuristic, "{sql}");
            joins += heuristic.len();
        }
        assert!(joins > 0, "the statements must hold joins");
    }

    #[test]
    fn render_shows_join_order_only_under_cost_based_planning() {
        let s = Scenario::generate(42);
        let render =
            |sql: &str, planner: Planner| render_in(&s, sql, &under(planner, &Default::default()));
        let q = "SELECT p.name, r.electionYear FROM city p, cityMayor r \
                 WHERE p.mayor = r.name AND p.population > 1000000";
        assert!(!render(q, Planner::Heuristic).contains("join order:"));
        // In FROM order the mayor temp is the right side, and the executor
        // probes its key index with each city's mayor.
        let text = render(q, Planner::CostBased);
        assert!(
            text.contains("join order: p ⋈ r  (index join on r's key; left rows≈"),
            "the FROM order and the algorithm must be reported:\n{text}"
        );
        assert!(text.contains(", right rows≈"), "{text}");
        // Neither side's key is the join key: a hash join.
        let q = "SELECT e.name, k.gdp FROM DB.employees e, LLM.country k \
                 WHERE e.countryCode = k.code";
        let text = render(q, Planner::CostBased);
        assert!(text.contains("(hash join building "), "{text}");
    }

    #[test]
    fn render_shows_the_early_stop_window_only_when_enabled() {
        let s = Scenario::generate(42);
        let streaming = |pipeline| GaloisOptions {
            pipeline,
            ..Default::default()
        };
        let off = streaming(Pipeline::Streaming);
        let on = streaming(Pipeline::StreamingLimit);
        let render = |sql: &str, options: &GaloisOptions| render_in(&s, sql, options);
        let q = "SELECT name FROM city LIMIT 7 OFFSET 2";
        assert!(!render(q, &off).contains("limit:"));
        assert!(
            render(q, &on).contains("limit: early-stop after ~9 keys"),
            "{}",
            render(q, &on)
        );
        // Ineligible shapes (no LIMIT window over the sole scan) stay
        // tag-free even when the driver would stop.
        let plain = "SELECT name FROM city";
        assert!(!render(plain, &on).contains("limit:"));
        let sorted = "SELECT name FROM city ORDER BY population LIMIT 7";
        assert!(!render(sorted, &on).contains("limit:"));
    }

    #[test]
    fn stats_calibrate_the_cost_model() {
        let stats = ClientStats {
            prompts: 100,
            cache_hits: 100,
            batches: 10,
            serial_ms: 10 * BATCH_OVERHEAD_MS + 100 * 40,
            ..Default::default()
        };
        let c = Calibration::observed(&stats);
        assert!((c.prompt_latency_ms - 40.0).abs() < 1e-9);
        assert!((c.cache_hit_rate - 0.5).abs() < 1e-9);
        // Cold start keeps the defaults.
        assert_eq!(
            Calibration::observed(&ClientStats::default()),
            Calibration::COLD
        );
        assert_eq!(
            Calibration::COLD.prompt_latency_ms,
            DEFAULT_PROMPT_LATENCY_MS
        );
        assert_eq!(Calibration::COLD.cache_hit_rate, 0.0);
    }

    #[test]
    fn batch_keys_of_one_matches_unbatched_estimates_exactly() {
        let q = "SELECT name, population FROM city WHERE elevation < 100";
        let base = planned(q, Planner::CostBased, &GaloisOptions::default());
        let one = planned(q, Planner::CostBased, &batched(keys(1)));
        assert_eq!(base.report, one.report);
        assert_eq!(step_costs(&base), step_costs(&one));
        assert_eq!(base.compiled, one.compiled);
    }

    #[test]
    fn batching_shrinks_estimated_prompts_and_virtual_time() {
        let q = "SELECT name, population FROM city WHERE elevation < 100";
        let base = planned(q, Planner::CostBased, &GaloisOptions::default());
        let fused = planned(q, Planner::CostBased, &batched(keys(10)));
        assert!(
            fused.report.est_total_prompts < base.report.est_total_prompts,
            "{} vs {}",
            fused.report.est_total_prompts,
            base.report.est_total_prompts
        );
        assert!(fused.report.est_virtual_ms < base.report.est_virtual_ms);
        // A fused prompt is charged by answer volume, not per key: ten
        // keys cost less than ten prompts but more than one.
        let p = Calibration::COLD;
        assert!(p.fused_prompt_latency_ms(10.0) > p.prompt_latency_ms);
        assert!(p.fused_prompt_latency_ms(10.0) < 10.0 * p.prompt_latency_ms);
        assert_eq!(p.fused_prompt_latency_ms(1.0), p.prompt_latency_ms);
    }

    #[test]
    fn grid_shrinks_estimated_fetch_prompts() {
        let q = "SELECT name, population, country FROM city WHERE elevation < 100";
        let keys_only = planned(q, Planner::CostBased, &batched(keys(10)));
        let grid = planned(
            q,
            Planner::CostBased,
            &batched(PromptBatch::Grid { keys: 10, attrs: 4 }),
        );
        let fetch = |p: &PlannedQuery| step_costs(p).iter().map(|c| c.fetch_prompts).sum::<f64>();
        let (keys_fetch, grid_fetch) = (fetch(&keys_only), fetch(&grid));
        assert!(
            grid_fetch < keys_fetch,
            "grid {grid_fetch} vs keys-only {keys_fetch}"
        );
        assert!(grid.report.est_total_prompts < keys_only.report.est_total_prompts);
        assert!(grid.report.est_virtual_ms < keys_only.report.est_virtual_ms);
    }

    #[test]
    fn render_shows_grid_batch_tag() {
        let s = Scenario::generate(42);
        let q = "SELECT name, population FROM city WHERE elevation < 100";
        let grid = batched(PromptBatch::Grid { keys: 10, attrs: 4 });
        let text = render_in(&s, q, &under(Planner::CostBased, &grid));
        assert!(text.contains("batch: 10 keys × 4 attrs/prompt"), "{text}");
        assert!(!text.contains("keys/prompt"), "{text}");
    }

    #[test]
    fn render_shows_batch_factor_only_when_batching() {
        let s = Scenario::generate(42);
        let q = "SELECT name FROM city WHERE population > 1000000";
        let off = GaloisOptions::default();
        let on = batched(keys(10));
        let render =
            |options: &GaloisOptions| render_in(&s, q, &under(Planner::CostBased, options));
        assert!(!render(&off).contains("batch:"));
        assert!(render(&on).contains("batch: 10 keys/prompt"));
    }

    #[test]
    fn pipeline_estimate_beats_the_wave_sum_with_lanes_and_loses_without() {
        let s = Scenario::generate(42);
        let q = "SELECT name, population FROM city WHERE elevation < 100";
        // Calibrated-style latency (the cold-start 150 ms default makes
        // fused-answer decode so expensive that the estimator correctly
        // prefers the wave's within-batch lane packing on this query).
        let calibration = Calibration {
            prompt_latency_ms: 40.0,
            ..Calibration::COLD
        };
        let planned = |options: &GaloisOptions| {
            let plan = s.database.plan(q).unwrap();
            let options = under(Planner::CostBased, options);
            let planning = planning(&options, calibration);
            plan_owned(plan, s.database.catalog(), &planning).unwrap()
        };
        let wave = GaloisOptions {
            parallelism: Parallelism::new(8),
            ..batched(keys(10))
        };
        let streaming = GaloisOptions {
            pipeline: Pipeline::Streaming,
            ..wave.clone()
        };
        let a = planned(&wave);
        let b = planned(&streaming);
        // Same prompts — streaming only removes the barriers.
        assert_eq!(a.report.est_total_prompts, b.report.est_total_prompts);
        assert!(
            b.report.est_virtual_ms < a.report.est_virtual_ms,
            "streaming {} vs wave {}",
            b.report.est_virtual_ms,
            a.report.est_virtual_ms
        );
        // With one lane the per-micro-batch overheads serialise: the
        // estimate must reflect that streaming is the wrong choice there.
        let one_wave = batched(keys(10));
        let one_stream = GaloisOptions {
            pipeline: Pipeline::Streaming,
            ..one_wave.clone()
        };
        let c = planned(&one_wave);
        let d = planned(&one_stream);
        assert!(
            d.report.est_virtual_ms >= c.report.est_virtual_ms,
            "single-lane streaming {} must not beat the wave {}",
            d.report.est_virtual_ms,
            c.report.est_virtual_ms
        );
    }

    /// `StreamingLimit` reports the stop threshold and leaves every
    /// estimate where `Streaming` put it.
    #[test]
    fn streaming_limit_reproduces_streaming_estimates_bit_for_bit() {
        let q = "SELECT name, population FROM city WHERE elevation < 100 LIMIT 5";
        let streaming = GaloisOptions {
            pipeline: Pipeline::Streaming,
            ..at_lanes(8)
        };
        let limit = GaloisOptions {
            pipeline: Pipeline::StreamingLimit,
            ..at_lanes(8)
        };
        let a = planned(q, Planner::CostBased, &streaming);
        let b = planned(q, Planner::CostBased, &limit);
        assert_eq!(a.report, b.report);
        assert_eq!(step_costs(&a), step_costs(&b));
        assert_eq!(a.compiled, b.compiled);
        assert_eq!(a.physical.window, None);
        assert_eq!(b.physical.window, Some(5));
    }

    #[test]
    fn render_shows_pipeline_only_when_streaming() {
        let s = Scenario::generate(42);
        let q = "SELECT name FROM city WHERE population > 1000000";
        let off = GaloisOptions::default();
        let on = GaloisOptions {
            pipeline: Pipeline::Streaming,
            ..Default::default()
        };
        let render =
            |options: &GaloisOptions| render_in(&s, q, &under(Planner::CostBased, options));
        assert!(!render(&off).contains("pipeline:"));
        assert!(render(&on).contains("pipeline: streaming"));
    }

    #[test]
    fn render_shows_resilience_only_when_on() {
        let s = Scenario::generate(42);
        let q = "SELECT name FROM city WHERE population > 1000000";
        let off = GaloisOptions::default();
        let on = GaloisOptions {
            resilience: Resilience::On(RetryPolicy::default()),
            ..Default::default()
        };
        let render =
            |options: &GaloisOptions| render_in(&s, q, &under(Planner::CostBased, options));
        assert!(!render(&off).contains("resilience:"));
        let report = render(&on);
        assert!(report.contains("resilience: 4 retries"));
        assert!(report.contains("breaker opens at 8"));
        // The knob adds one line and changes nothing else.
        let stripped: String = report
            .lines()
            .filter(|l| !l.starts_with("resilience:"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stripped, render(&off));
    }

    #[test]
    fn lanes_shrink_estimated_virtual_time() {
        let q = "SELECT p.name, r.electionYear FROM city p, cityMayor r WHERE p.mayor = r.name";
        let seq = planned(q, Planner::CostBased, &GaloisOptions::default());
        let par = planned(q, Planner::CostBased, &at_lanes(8));
        assert!(par.report.est_virtual_ms < seq.report.est_virtual_ms);
    }

    #[test]
    fn render_reports_steps_costs_and_residual_plan() {
        let s = Scenario::generate(42);
        let q = "SELECT p.name, r.electionYear FROM city p, cityMayor r WHERE p.mayor = r.name";
        let text = render_in(&s, q, &under(Planner::CostBased, &GaloisOptions::default()));
        assert!(text.contains("planner: cost-based"));
        assert!(text.contains("[LLM step 1] scan"));
        assert!(text.contains("cost: keys≈"));
        assert!(text.contains("[relational plan]"));
        assert!(text.contains("rows≈"));
        assert!(text.contains("total: prompts≈"));
    }
}
