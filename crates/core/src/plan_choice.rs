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
//!   first planner use (`Galois::recalibrate_planner` re-freezes it), so
//!   plan choice never depends on which concurrent query's prompts landed
//!   first in the shared stats.
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
//! use galois_core::plan_choice::{plan_query, Planner, PlannerParams};
//! use galois_core::CompileOptions;
//! use galois_dataset::Scenario;
//!
//! let s = Scenario::generate(42);
//! let plan = s.database.plan("SELECT name FROM city WHERE population > 1000000").unwrap();
//! let params = PlannerParams::default();
//! let heuristic = plan_query(
//!     &plan, s.database.catalog(), &CompileOptions::default(), Planner::Heuristic, &params,
//! ).unwrap();
//! let cost_based = plan_query(
//!     &plan, s.database.catalog(), &CompileOptions::default(), Planner::CostBased, &params,
//! ).unwrap();
//! // The cost-based planner pushes the selective condition into the key
//! // scan, which the fixed heuristic (pushdown off) does not.
//! assert!(cost_based.compiled.steps[0].scan_condition.is_some());
//! assert!(heuristic.compiled.steps[0].scan_condition.is_none());
//! assert!(cost_based.report.est_virtual_ms <= heuristic.report.est_virtual_ms);
//! ```

use crate::compile::{compile, CompileOptions, CompiledQuery, LlmScanStep};
use crate::error::Result;
use crate::physical::{self, PhysicalPlan, Stage};
use crate::session::{GaloisOptions, Pipeline, PromptBatch, Resilience, REQUEST_PROMPTS};
use galois_llm::intent::{CmpOp, Condition};
use galois_llm::{ClientStats, Parallelism, BATCH_OVERHEAD_MS};
use galois_relational::cost as rcost;
use galois_relational::{join_algorithm, Catalog, JoinAlgorithm, LogicalPlan, TableSchema};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// Expected per-prompt model latency (virtual ms) before any observed
/// [`ClientStats`] are available to calibrate it.
pub const DEFAULT_PROMPT_LATENCY_MS: f64 = 150.0;

/// Expected keys returned per key-listing iteration before observation.
pub const DEFAULT_LIST_PAGE: f64 = 15.0;

/// Fraction of a single prompt's latency attributed to decoding its answer
/// tokens — the *marginal* cost of each extra key folded into a multi-key
/// batched prompt. The remainder (prompt processing, decode start-up) is
/// paid once per prompt regardless of how many keys it carries, which is
/// the economics batching exploits: a `B`-key prompt is modelled as
/// `latency · (1 − share + share · B)`, not `latency · B`.
pub const BATCH_ANSWER_LATENCY_SHARE: f64 = 0.5;

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

/// What one planning pass reads: the session's own option values — held
/// as they are, so the estimator, the `EXPLAIN` renderer and the
/// retrieval protocol read one statement of each decision — plus the
/// cost model's calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerParams {
    /// Request lanes / worker threads ([`GaloisOptions::parallelism`]).
    pub parallelism: Parallelism,
    /// Keys (and, in grid mode, attributes) fused per filter or fetch
    /// prompt ([`GaloisOptions::prompt_batch`]): the fetch phase costs
    /// `⌈C/A⌉ × ⌈keys/B⌉` prompts per step. [`PromptBatch::Off`] (the
    /// default) reproduces the unbatched estimates bit for bit, and the
    /// report names the batch shape only when it fuses something.
    pub prompt_batch: PromptBatch,
    /// Retrieval driver ([`GaloisOptions::pipeline`]). Under a streaming
    /// variant latency is estimated as the dataflow's critical path
    /// ([`rcost::critical_path_ms`]) instead of the phase-barrier sum, and
    /// steps share the lanes instead of packing as blocks; prompt-count
    /// estimates are unaffected — streaming issues the same prompts. A
    /// `LIMIT` window ([`PhysicalPlan::window`]) leaves them alone too: how
    /// many keys survive before it fills is data-dependent.
    pub pipeline: Pipeline,
    /// Retry policy in effect ([`GaloisOptions::resilience`]):
    /// [`Resilience::On`] adds a `resilience:` header line naming the
    /// retry budget, backoff shape and breaker threshold. Cost estimates
    /// are deliberately untouched — retry time depends on the model's live
    /// fault rate, which calibration already folds into the observed
    /// per-prompt latency.
    pub resilience: Resilience,
    /// Fixed virtual overhead charged per batch request.
    pub batch_overhead_ms: f64,
    /// Expected virtual latency of one cache-missing prompt.
    pub prompt_latency_ms: f64,
    /// Expected fraction of prompts served by the cache (in-flight
    /// deduplication waiters count as hits, like the client's accounting).
    pub cache_hit_rate: f64,
    /// Expected keys per key-listing iteration.
    pub list_page_size: f64,
    /// Concepts already exhausted in the session's key-universe store
    /// ([`crate::ListStore`]), keyed by
    /// [`LlmScanStep::concept_signature`] and mapping to the stored key
    /// count. A warm step's listing phase is estimated at zero prompts
    /// and zero latency with an *exact* cardinality
    /// ([`rcost::warm_list_rows`]). `None` (the default, and always when
    /// the store is off) reproduces the store-free estimates bit for bit
    /// and keeps the `EXPLAIN` report tag-free.
    pub warm_lists: Option<Arc<BTreeMap<String, usize>>>,
}

impl Default for PlannerParams {
    /// The default session's options over the cold-start calibration.
    fn default() -> Self {
        PlannerParams::for_session(&GaloisOptions::default(), &ClientStats::default())
    }
}

impl PlannerParams {
    /// Params for a session: its options as they stand, and the expected
    /// per-prompt latency and cache-hit rate calibrated from the client's
    /// observed stats (the cold-start defaults apply until the session
    /// has served prompts).
    pub fn for_session(options: &GaloisOptions, stats: &ClientStats) -> Self {
        let mut p = PlannerParams {
            parallelism: options.parallelism,
            prompt_batch: options.prompt_batch,
            pipeline: options.pipeline,
            resilience: options.resilience,
            batch_overhead_ms: BATCH_OVERHEAD_MS as f64,
            prompt_latency_ms: DEFAULT_PROMPT_LATENCY_MS,
            cache_hit_rate: 0.0,
            list_page_size: DEFAULT_LIST_PAGE,
            warm_lists: None,
        };
        if stats.prompts > 0 {
            let model_ms = stats
                .serial_ms
                .saturating_sub(stats.batches as u64 * BATCH_OVERHEAD_MS);
            p.prompt_latency_ms = (model_ms as f64 / stats.prompts as f64).max(1.0);
        }
        let answered = stats.prompts + stats.cache_hits;
        if answered > 0 {
            p.cache_hit_rate = stats.cache_hits as f64 / answered as f64;
        }
        p
    }

    /// Overlays the live key-universe store contents (exhausted concepts
    /// → stored key counts) onto the frozen calibration, threading
    /// [`crate::ListStore`] into the estimates. Called per planning
    /// request, so the planner sees universes warmed by *earlier* queries
    /// without thawing the latency/hit-rate calibration. Takes the store's
    /// shared snapshot ([`galois_llm::KeyUniverseStore::warm_map`]) as it
    /// is, or a plain map.
    pub fn with_warm_lists(mut self, warm: impl Into<Arc<BTreeMap<String, usize>>>) -> Self {
        self.warm_lists = Some(warm.into());
        self
    }

    /// Request lanes, as the lane model's divisor.
    fn lanes(&self) -> f64 {
        self.parallelism.get() as f64
    }

    /// The stored key count for a step's concept, when its universe is
    /// warm (store on *and* concept exhausted).
    fn warm_keys(&self, step: &LlmScanStep) -> Option<usize> {
        self.warm_lists
            .as_ref()
            .and_then(|m| m.get(&step.concept_signature()))
            .copied()
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
}

impl StepCost {
    /// All prompts the step is expected to issue.
    pub fn total_prompts(&self) -> f64 {
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
pub fn condition_selectivity(cond: &Condition) -> f64 {
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

/// Expected virtual time of one wave of `batches` batch requests carrying
/// `prompts` prompts in total: each batch costs `overhead` plus its
/// cache-missing members decoded across the lanes, and the batches
/// themselves occupy the lanes wave-style. `per_prompt_ms` is the expected
/// latency of one member prompt — `prompt_latency_ms` for single-key
/// prompts, [`PlannerParams::fused_prompt_latency_ms`] for multi-key ones,
/// so batched prompts are charged by answer volume rather than per key.
fn wave_ms(prompts: f64, batches: f64, per_prompt_ms: f64, params: &PlannerParams) -> f64 {
    if batches < 1.0 {
        return 0.0;
    }
    let lanes = params.lanes();
    let misses_per_batch = (prompts / batches) * (1.0 - params.cache_hit_rate);
    let per_batch = params.batch_overhead_ms + (misses_per_batch / lanes) * per_prompt_ms;
    (batches / lanes).ceil() * per_batch
}

/// Estimates the cost of one retrieval step, laid out as `stages`
/// ([`physical::stages`]), against the catalog's stats.
pub fn estimate_step(
    step: &LlmScanStep,
    stages: &[Stage],
    catalog: &Catalog,
    params: &PlannerParams,
) -> StepCost {
    // A warm key universe short-circuits the listing estimate entirely:
    // the stored key count is exact, and the phase issues no prompts.
    let warm_keys = params.warm_keys(step);
    let est_keys_listed = match warm_keys {
        Some(n) => rcost::warm_list_rows(n),
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
    let miss = 1.0 - params.cache_hit_rate;
    let per_iter = params.batch_overhead_ms + miss * params.prompt_latency_ms;
    let (list_prompts, list_chain) = if warm_keys.is_some() {
        (0.0, 0.0)
    } else {
        let prompts = (est_keys_listed / params.list_page_size).ceil().max(0.0) + 1.0;
        (prompts, prompts * per_iter)
    };
    let mut wave_total = list_chain;

    // Filter conditions chain (condition n+1 only prompts survivors of n);
    // the chunks within one condition run as one wave. With multi-key
    // batching the phase issues ⌈keys / B⌉ fused prompts per condition,
    // each charged by answer volume.
    let batch_keys = params.prompt_batch.keys_per_prompt() as f64;
    let request_prompts = REQUEST_PROMPTS as f64;
    let fused = params.fused_prompt_latency_ms(batch_keys);
    let mut filter_prompts = 0.0;
    let mut n = est_keys_listed;
    for cond in &step.filter_conditions {
        let prompts = rcost::batched_prompt_count(n, batch_keys);
        filter_prompts += prompts;
        wave_total += wave_ms(prompts, (prompts / request_prompts).ceil(), fused, params);
        n *= condition_selectivity(cond);
    }

    // Every (attr-group × chunk) fetch cell is independent — one wave.
    // The step's fetch stages follow its filter stages, one per group:
    // without grid fusion each column is its own group; with
    // `PromptBatch::Grid` the columns fuse into ⌈C/A⌉ groups whose prompts
    // carry `B × attrs-per-group` answer cells each.
    let cols = step.fetch.len() as f64;
    let groups = (stages.len() - step.filter_conditions.len()) as f64;
    let attrs_per_group = if groups > 0.0 { cols / groups } else { 0.0 };
    let col_prompts = rcost::batched_prompt_count(n, batch_keys);
    let fetch_prompts = col_prompts * groups;
    let fetch_fused = params.fused_prompt_latency_ms(batch_keys * attrs_per_group.max(1.0));
    wave_total += wave_ms(
        fetch_prompts,
        (col_prompts / request_prompts).ceil() * groups,
        fetch_fused,
        params,
    );

    // The streaming pipeline replaces the phase-barrier sum with the
    // dataflow critical path: the last productive page's keys still have
    // to traverse every remaining stage (each micro-batch paying its own
    // request overhead), but every earlier page's work — and the final
    // exhausted-page check — hides behind the chain. The busy bound
    // covers the single-lane degeneration, where the per-micro-batch
    // overheads are paid back to back.
    let per_stage = params.batch_overhead_ms + miss * fused;
    let streaming = params.pipeline.is_streaming();
    let busy_ms = if streaming {
        list_chain + (filter_prompts + fetch_prompts) * per_stage
    } else {
        wave_total
    };
    let virtual_ms = if streaming {
        let stages =
            step.filter_conditions.len() as f64 + if step.fetch.is_empty() { 0.0 } else { 1.0 };
        let chain_head = (list_prompts - 1.0).max(0.0) * per_iter;
        rcost::critical_path_ms(chain_head, stages * per_stage, busy_ms, params.lanes())
            .max(list_chain)
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
        expected_cache_hits: params.cache_hit_rate * total,
        virtual_ms,
        busy_ms,
    }
}

/// Scan bindings of a join side, left to right — the `EXPLAIN` label for
/// one input of a join.
fn side_label(plan: &LogicalPlan) -> String {
    let labels: Vec<&str> = plan
        .scans()
        .iter()
        .filter_map(|s| match s {
            LogicalPlan::Scan { binding, .. } => Some(binding.as_str()),
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
/// `schema_of`) and the estimated rows of each side.
fn join_order_lines<'s>(
    plan: &LogicalPlan,
    catalog: &Catalog,
    overrides: &HashMap<String, f64>,
    schema_of: &impl Fn(&str) -> Option<&'s TableSchema>,
    out: &mut String,
) {
    for child in plan.children() {
        join_order_lines(child, catalog, overrides, schema_of, out);
    }
    if let LogicalPlan::Join {
        left,
        right,
        condition,
        ..
    } = plan
    {
        let (l, r) = (side_label(left), side_label(right));
        let algorithm = match join_algorithm(left, right, condition, schema_of) {
            JoinAlgorithm::IndexRight(_) => format!("index join on {r}'s key"),
            JoinAlgorithm::IndexLeft(_) => format!("index join on {l}'s key"),
            JoinAlgorithm::Hash => format!("hash join building {r}"),
            JoinAlgorithm::NestedLoop => "nested loop".to_string(),
        };
        out.push_str(&format!(
            "join order: {l} ⋈ {r}  ({algorithm}; left rows≈{:.0}, right rows≈{:.0})\n",
            rcost::estimate_rows_with(left, catalog, overrides),
            rcost::estimate_rows_with(right, catalog, overrides),
        ));
    }
}

/// [`estimate_step`] over the stages the step is laid out as.
fn estimate(step: &LlmScanStep, catalog: &Catalog, params: &PlannerParams) -> StepCost {
    let stages = physical::stages(step, params.prompt_batch);
    estimate_step(step, &stages, catalog, params)
}

/// Picks the cheapest pushdown variant of one step. Returns the chosen
/// step, its cost, and how many candidates were costed.
fn best_step_variant(
    step: &LlmScanStep,
    catalog: &Catalog,
    params: &PlannerParams,
) -> (LlmScanStep, StepCost, usize) {
    let mut best = step.clone();
    let mut best_cost = estimate(step, catalog, params);
    let mut considered = 1;
    if step.scan_condition.is_some() {
        return (best, best_cost, considered);
    }
    for j in 0..step.filter_conditions.len() {
        let mut candidate = step.clone();
        let cond = candidate.filter_conditions.remove(j);
        candidate.scan_condition = Some(cond);
        let cost = estimate(&candidate, catalog, params);
        considered += 1;
        // Strict improvement keeps ties on the heuristic shape (and on the
        // lowest j), which keeps the choice deterministic.
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

/// Chooses a retrieval program for an optimized logical plan, and lays it
/// out as its physical plan, each step carrying its estimate.
///
/// * [`Planner::Heuristic`] compiles the plan exactly as the pre-planner
///   pipeline did (bit-identical [`CompiledQuery`]) and merely *annotates*
///   it with cost estimates.
/// * [`Planner::CostBased`] enumerates one pushed-down condition per step
///   (or none), keeps the cheapest, and orders steps longest-first.
pub fn plan_query(
    plan: &LogicalPlan,
    catalog: &Catalog,
    options: &CompileOptions,
    planner: Planner,
    params: &PlannerParams,
) -> Result<PlannedQuery> {
    let (compiled, costs, candidates) = match planner {
        Planner::Heuristic => {
            let compiled = compile(plan, catalog, options)?;
            let costs: Vec<StepCost> = (compiled.steps.iter())
                .map(|step| estimate(step, catalog, params))
                .collect();
            (compiled, costs, 1)
        }
        Planner::CostBased => {
            // Start from the no-pushdown compilation so every condition is
            // a candidate, then choose per step.
            let base_options = CompileOptions {
                pushdown: false,
                ..*options
            };
            let mut compiled = compile(plan, catalog, &base_options)?;
            let mut candidates = 0usize;
            let mut chosen = Vec::with_capacity(compiled.steps.len());
            for step in &compiled.steps {
                let (step, cost, considered) = best_step_variant(step, catalog, params);
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
    let mut physical = PhysicalPlan::new(&compiled, params.prompt_batch, params.pipeline);
    for (step_plan, cost) in physical.steps.iter_mut().zip(&costs) {
        step_plan.cost = *cost;
    }
    // Wave mode packs the steps onto the lanes as blocks; the streaming
    // pipeline shares the lanes across steps, so the query estimate is
    // the slowest step's critical path against the pooled busy bound.
    let est_virtual_ms = if params.pipeline.is_streaming() {
        let chain = costs.iter().map(|c| c.virtual_ms).fold(0.0, f64::max);
        let busy: f64 = costs.iter().map(|c| c.busy_ms).sum();
        rcost::critical_path_ms(chain, 0.0, busy, params.lanes())
    } else {
        let blocks = costs.iter().map(|c| c.virtual_ms.round().max(0.0) as u64);
        galois_llm::lane_schedule(blocks, params.parallelism.get()) as f64
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
    pub fn render(&self, catalog: &Catalog, params: &PlannerParams) -> String {
        // The batch factor only appears when a prompt fuses something, so
        // the `PromptBatch::Off` report stays byte-identical to the
        // pre-batch pipeline's.
        let shape = self.physical.batch;
        let (keys, attrs) = (shape.keys_per_prompt(), shape.attrs_per_prompt());
        let batch = if attrs > 1 {
            format!(", batch: {keys} keys × {attrs} attrs/prompt")
        } else if keys > 1 {
            format!(", batch: {keys} keys/prompt")
        } else {
            String::new()
        };
        // Likewise the pipeline tag: absent in the default wave mode, so
        // the pre-pipelining report stays byte-identical.
        let pipeline = if params.pipeline.is_streaming() {
            ", pipeline: streaming"
        } else {
            ""
        };
        let mut out = format!(
            "galois plan  (planner: {}, lanes: {}{batch}{pipeline}, candidates considered: {})\n",
            self.report.planner,
            params.parallelism.get(),
            self.report.candidates_considered
        );
        // The early-termination line appears only when the plan has a
        // window, so every other report stays byte-identical to the
        // pre-limit pipeline's.
        if let Some(n) = self.physical.window {
            out.push_str(&format!("limit: early-stop after ~{n} keys\n"));
        }
        // The resilience line appears only with the retry knob on, so
        // every `Resilience::Off` report stays byte-identical to the
        // pre-resilience pipeline's.
        if let Resilience::On(policy) = &params.resilience {
            out.push_str(&format!(
                "resilience: {} retries, backoff {}ms ×{} (cap {}ms), timeout {}ms, \
                 breaker opens at {}\n",
                policy.max_retries,
                policy.base_backoff_ms,
                policy.multiplier,
                policy.max_backoff_ms,
                policy.timeout_ms,
                policy.breaker_threshold,
            ));
        }
        let costs = self.physical.steps.iter().map(|s| &s.cost);
        for (i, (step, cost)) in self.compiled.steps.iter().zip(costs.clone()).enumerate() {
            crate::compile::render_step_into(step, i, &mut out);
            // Key-universe store line: only when a store is attached, so
            // the store-off report stays byte-identical to the pre-store
            // pipeline's.
            if params.warm_lists.is_some() {
                match params.warm_keys(step) {
                    Some(n) => out.push_str(&format!("    list: warm ({n} keys)\n")),
                    None => out.push_str("    list: cold\n"),
                }
            }
            out.push_str(&format!(
                "    cost: keys≈{:.0}, prompts≈{:.0} ({:.0} list + {:.0} filter + {:.0} fetch), \
                 cache hits≈{:.0}, virtual≈{:.0} ms\n",
                cost.est_keys_listed,
                cost.total_prompts(),
                cost.list_prompts,
                cost.filter_prompts,
                cost.fetch_prompts,
                cost.expected_cache_hits,
                cost.virtual_ms,
            ));
        }
        // Each step's temp table (lower-cased) and its estimated rows out:
        // the cardinalities of the `__llm_*` scans the catalog has no rows
        // for.
        let temp_rows: HashMap<String, f64> = (self.compiled.steps.iter())
            .map(|s| s.temp_name.to_ascii_lowercase())
            .zip(costs.map(|c| c.est_rows_out))
            .collect();
        // Join-order lines (each join's algorithm and estimated side rows,
        // in `FROM` order) belong to the cost-based report; the heuristic
        // report stays byte-identical without them.
        // The executor finds a temp as the table built under its step's
        // schema, any other scan in the catalog.
        if self.report.planner == Planner::CostBased {
            let schema_of =
                |name: &str| match self.compiled.steps.iter().find(|s| s.temp_name == name) {
                    Some(step) => Some(step.temp_schema.as_ref()),
                    None => catalog.get(name).ok().map(|t| t.schema.as_ref()),
                };
            join_order_lines(
                &self.compiled.plan,
                catalog,
                &temp_rows,
                &schema_of,
                &mut out,
            );
        }
        out.push_str("[relational plan]\n");
        out.push_str(&rcost::explain_with_rows_overridden(
            &self.compiled.plan,
            catalog,
            &temp_rows,
        ));
        out.push_str(&format!(
            "total: prompts≈{:.0}, cache hits≈{:.0}, virtual≈{:.0} ms\n",
            self.report.est_total_prompts, self.report.est_cache_hits, self.report.est_virtual_ms,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galois_dataset::Scenario;
    use galois_llm::RetryPolicy;

    /// Default params at another batch shape.
    fn batched(prompt_batch: PromptBatch) -> PlannerParams {
        PlannerParams {
            prompt_batch,
            ..Default::default()
        }
    }

    /// Default params at `lanes` request lanes.
    fn at_lanes(lanes: usize) -> PlannerParams {
        PlannerParams {
            parallelism: Parallelism::new(lanes),
            ..Default::default()
        }
    }

    /// Each step's estimate, in step order.
    fn step_costs(planned: &PlannedQuery) -> Vec<StepCost> {
        planned.physical.steps.iter().map(|s| s.cost).collect()
    }

    fn planned(sql: &str, planner: Planner, params: &PlannerParams) -> PlannedQuery {
        let s = Scenario::generate(42);
        let plan = s.database.plan(sql).unwrap();
        plan_query(
            &plan,
            s.database.catalog(),
            &CompileOptions::default(),
            planner,
            params,
        )
        .unwrap()
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
            let options = CompileOptions::default();
            let direct = compile(&plan, s.database.catalog(), &options).unwrap();
            let chosen = plan_query(
                &plan,
                s.database.catalog(),
                &options,
                Planner::Heuristic,
                &PlannerParams::default(),
            )
            .unwrap();
            assert_eq!(chosen.compiled, direct, "{sql}");
            assert_eq!(chosen.report.candidates_considered, 1);
        }
    }

    #[test]
    fn cost_based_pushes_a_selective_condition() {
        let params = PlannerParams::default();
        let q = "SELECT name FROM city WHERE population > 1000000";
        let heuristic = planned(q, Planner::Heuristic, &params);
        let cost_based = planned(q, Planner::CostBased, &params);
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
        let params = PlannerParams::default();
        // Eq is more selective than a range: the planner should push it.
        let q = "SELECT name FROM city WHERE population > 100 AND country = 'Veladria'";
        let cost_based = planned(q, Planner::CostBased, &params);
        let step = &cost_based.compiled.steps[0];
        let pushed = step.scan_condition.as_ref().expect("one condition pushed");
        assert_eq!(pushed.attribute, "country");
        assert_eq!(step.filter_conditions.len(), 1);
        assert_eq!(step.filter_conditions[0].attribute, "population");
    }

    #[test]
    fn cost_based_orders_steps_longest_first() {
        let params = at_lanes(8);
        let q = "SELECT p.name, r.electionYear, r.party, r.birthDate \
                 FROM city p, cityMayor r WHERE p.mayor = r.name";
        let planned = planned(q, Planner::CostBased, &params);
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
        let params = PlannerParams::default();
        let mut joins = 0;
        for sql in &statements {
            let plan = s.database.plan(sql).unwrap();
            let order = |planner| {
                let options = CompileOptions::default();
                let planned = plan_query(&plan, s.database.catalog(), &options, planner, &params);
                let mut sides = Vec::new();
                join_sides(&planned.unwrap().compiled.plan, &mut sides);
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
        let params = PlannerParams::default();
        let render = |sql: &str, planner: Planner| {
            plan_query(
                &s.database.plan(sql).unwrap(),
                s.database.catalog(),
                &CompileOptions::default(),
                planner,
                &params,
            )
            .unwrap()
            .render(s.database.catalog(), &params)
        };
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
        let streaming = |pipeline| PlannerParams {
            pipeline,
            ..Default::default()
        };
        let off = streaming(Pipeline::Streaming);
        let on = streaming(Pipeline::StreamingLimit);
        let render = |sql: &str, params: &PlannerParams| {
            plan_query(
                &s.database.plan(sql).unwrap(),
                s.database.catalog(),
                &CompileOptions::default(),
                Planner::Heuristic,
                params,
            )
            .unwrap()
            .render(s.database.catalog(), params)
        };
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
    fn stats_calibrate_params() {
        let stats = ClientStats {
            prompts: 100,
            cache_hits: 100,
            batches: 10,
            serial_ms: 10 * BATCH_OVERHEAD_MS + 100 * 40,
            ..Default::default()
        };
        let options = GaloisOptions {
            parallelism: Parallelism::new(4),
            ..GaloisOptions::serving()
        };
        let p = PlannerParams::for_session(&options, &stats);
        assert!((p.prompt_latency_ms - 40.0).abs() < 1e-9);
        assert!((p.cache_hit_rate - 0.5).abs() < 1e-9);
        // The options are held as they are, not re-typed.
        assert_eq!(p.parallelism, options.parallelism);
        assert_eq!(p.prompt_batch, options.prompt_batch);
        assert_eq!(p.pipeline, options.pipeline);
        assert_eq!(p.resilience, options.resilience);
        // Cold start keeps the defaults.
        let cold = PlannerParams::for_session(&options, &ClientStats::default());
        assert_eq!(cold.prompt_latency_ms, DEFAULT_PROMPT_LATENCY_MS);
        assert_eq!(cold.cache_hit_rate, 0.0);
        assert_eq!(cold.warm_lists, None);
    }

    #[test]
    fn batch_keys_of_one_matches_unbatched_estimates_exactly() {
        let q = "SELECT name, population FROM city WHERE elevation < 100";
        let base = planned(q, Planner::CostBased, &PlannerParams::default());
        let one = planned(q, Planner::CostBased, &batched(PromptBatch::Keys(1)));
        assert_eq!(base.report, one.report);
        assert_eq!(step_costs(&base), step_costs(&one));
        assert_eq!(base.compiled, one.compiled);
    }

    #[test]
    fn batching_shrinks_estimated_prompts_and_virtual_time() {
        let q = "SELECT name, population FROM city WHERE elevation < 100";
        let base = planned(q, Planner::CostBased, &PlannerParams::default());
        let fused = planned(q, Planner::CostBased, &batched(PromptBatch::Keys(10)));
        assert!(
            fused.report.est_total_prompts < base.report.est_total_prompts,
            "{} vs {}",
            fused.report.est_total_prompts,
            base.report.est_total_prompts
        );
        assert!(fused.report.est_virtual_ms < base.report.est_virtual_ms);
        // A fused prompt is charged by answer volume, not per key: ten
        // keys cost less than ten prompts but more than one.
        let p = PlannerParams::default();
        assert!(p.fused_prompt_latency_ms(10.0) > p.prompt_latency_ms);
        assert!(p.fused_prompt_latency_ms(10.0) < 10.0 * p.prompt_latency_ms);
        assert_eq!(p.fused_prompt_latency_ms(1.0), p.prompt_latency_ms);
    }

    #[test]
    fn batch_attrs_of_one_matches_per_column_estimates_exactly() {
        let q = "SELECT name, population, country FROM city WHERE elevation < 100";
        let base = planned(q, Planner::CostBased, &batched(PromptBatch::Keys(10)));
        let one = planned(
            q,
            Planner::CostBased,
            &batched(PromptBatch::Grid { keys: 10, attrs: 1 }),
        );
        assert_eq!(base.report, one.report);
        assert_eq!(step_costs(&base), step_costs(&one));
        assert_eq!(base.compiled, one.compiled);
    }

    #[test]
    fn grid_shrinks_estimated_fetch_prompts() {
        let q = "SELECT name, population, country FROM city WHERE elevation < 100";
        let keys_only = planned(q, Planner::CostBased, &batched(PromptBatch::Keys(10)));
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
        let plan = s
            .database
            .plan("SELECT name, population FROM city WHERE elevation < 100")
            .unwrap();
        let grid = batched(PromptBatch::Grid { keys: 10, attrs: 4 });
        let text = plan_query(
            &plan,
            s.database.catalog(),
            &CompileOptions::default(),
            Planner::CostBased,
            &grid,
        )
        .unwrap()
        .render(s.database.catalog(), &grid);
        assert!(text.contains("batch: 10 keys × 4 attrs/prompt"), "{text}");
        assert!(!text.contains("keys/prompt"), "{text}");
    }

    #[test]
    fn render_shows_batch_factor_only_when_batching() {
        let s = Scenario::generate(42);
        let plan = s
            .database
            .plan("SELECT name FROM city WHERE population > 1000000")
            .unwrap();
        let off = PlannerParams::default();
        let on = batched(PromptBatch::Keys(10));
        let render = |params: &PlannerParams| {
            plan_query(
                &plan,
                s.database.catalog(),
                &CompileOptions::default(),
                Planner::CostBased,
                params,
            )
            .unwrap()
            .render(s.database.catalog(), params)
        };
        assert!(!render(&off).contains("batch:"));
        assert!(render(&on).contains("batch: 10 keys/prompt"));
    }

    #[test]
    fn pipeline_estimate_beats_the_wave_sum_with_lanes_and_loses_without() {
        let q = "SELECT name, population FROM city WHERE elevation < 100";
        // Calibrated-style latency (the cold-start 150 ms default makes
        // fused-answer decode so expensive that the estimator correctly
        // prefers the wave's within-batch lane packing on this query).
        let wave = PlannerParams {
            parallelism: Parallelism::new(8),
            prompt_latency_ms: 40.0,
            ..batched(PromptBatch::Keys(10))
        };
        let streaming = PlannerParams {
            pipeline: Pipeline::Streaming,
            ..wave.clone()
        };
        let a = planned(q, Planner::CostBased, &wave);
        let b = planned(q, Planner::CostBased, &streaming);
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
        let one_wave = PlannerParams {
            prompt_latency_ms: 40.0,
            ..batched(PromptBatch::Keys(10))
        };
        let one_stream = PlannerParams {
            pipeline: Pipeline::Streaming,
            ..one_wave.clone()
        };
        let c = planned(q, Planner::CostBased, &one_wave);
        let d = planned(q, Planner::CostBased, &one_stream);
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
        let streaming = PlannerParams {
            pipeline: Pipeline::Streaming,
            ..at_lanes(8)
        };
        let limit = PlannerParams {
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
        let plan = s
            .database
            .plan("SELECT name FROM city WHERE population > 1000000")
            .unwrap();
        let off = PlannerParams::default();
        let on = PlannerParams {
            pipeline: Pipeline::Streaming,
            ..Default::default()
        };
        let render = |params: &PlannerParams| {
            plan_query(
                &plan,
                s.database.catalog(),
                &CompileOptions::default(),
                Planner::CostBased,
                params,
            )
            .unwrap()
            .render(s.database.catalog(), params)
        };
        assert!(!render(&off).contains("pipeline:"));
        assert!(render(&on).contains("pipeline: streaming"));
    }

    #[test]
    fn render_shows_resilience_only_when_on() {
        let s = Scenario::generate(42);
        let plan = s
            .database
            .plan("SELECT name FROM city WHERE population > 1000000")
            .unwrap();
        let off = PlannerParams::default();
        let on = PlannerParams {
            resilience: Resilience::On(RetryPolicy::default()),
            ..Default::default()
        };
        let render = |params: &PlannerParams| {
            plan_query(
                &plan,
                s.database.catalog(),
                &CompileOptions::default(),
                Planner::CostBased,
                params,
            )
            .unwrap()
            .render(s.database.catalog(), params)
        };
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
        let seq = planned(q, Planner::CostBased, &PlannerParams::default());
        let par = planned(q, Planner::CostBased, &at_lanes(8));
        assert!(par.report.est_virtual_ms < seq.report.est_virtual_ms);
    }

    #[test]
    fn render_reports_steps_costs_and_residual_plan() {
        let s = Scenario::generate(42);
        let params = PlannerParams::default();
        let plan = s
            .database
            .plan("SELECT p.name, r.electionYear FROM city p, cityMayor r WHERE p.mayor = r.name")
            .unwrap();
        let chosen = plan_query(
            &plan,
            s.database.catalog(),
            &CompileOptions::default(),
            Planner::CostBased,
            &params,
        )
        .unwrap();
        let text = chosen.render(s.database.catalog(), &params);
        assert!(text.contains("planner: cost-based"));
        assert!(text.contains("[LLM step 1] scan"));
        assert!(text.contains("cost: keys≈"));
        assert!(text.contains("[relational plan]"));
        assert!(text.contains("rows≈"));
        assert!(text.contains("total: prompts≈"));
    }
}
