//! The physical plan: how a [`CompiledQuery`] retrieves, decided once by
//! [`PhysicalPlan::new`]. The planner prices each step from its stages
//! ([`crate::plan_choice::estimate_step`]), the retrieval protocol runs
//! them, and `EXPLAIN` prints the plan.

use crate::compile::{limit_hint, CompiledQuery, LlmScanStep};
use crate::plan_choice::StepCost;
use crate::session::{Pipeline, PromptBatch};

/// The physical plan of one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// The prompt shape every step's stages were laid out for.
    pub batch: PromptBatch,
    /// One per retrieval step, parallel to `CompiledQuery::steps`.
    pub steps: Vec<StepPlan>,
    /// The `LIMIT` window (`n + offset`) retrieval stops at once covered,
    /// under [`Pipeline::StreamingLimit`] for a plain window over the sole
    /// step's scan ([`limit_hint`]); `None` runs to exhaustion.
    pub window: Option<usize>,
}

/// The physical plan of one retrieval step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepPlan {
    /// The stages the step's keys flow through: filters, then fetches.
    pub stages: Vec<Stage>,
    /// Whether a warm key universe's relation may be handed over as the
    /// step's table: the multi-key protocol is on, with no filter stage or
    /// window to keep or prune keys.
    pub servable: bool,
    /// The planner's estimate; zero on a plan built only to execute.
    pub cost: StepCost,
}

/// One stage of a step: a filter condition or a fetch group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stage {
    /// A boolean check of `step.filter_conditions[i]`.
    Filter(usize),
    /// One fetch group: the columns `step.fetch[start..start + len]` in one
    /// prompt stream, plus `pads`, other columns filling the last group's
    /// spare width.
    Fetch {
        /// First fetched column of the group (an index into `step.fetch`).
        start: usize,
        /// Fetched columns in the group.
        len: usize,
        /// Speculative pad columns (indices into `step.columns()`).
        pads: Vec<usize>,
    },
}

impl Stage {
    /// Whether the stage's batched prompts are grid prompts: a fetch group
    /// asking more than one attribute, pads counted. A filter condition or
    /// a one-column group without pads is sent as a key batch.
    pub(crate) fn is_grid(&self) -> bool {
        matches!(self, Stage::Fetch { len, pads, .. } if len + pads.len() > 1)
    }
}

impl PhysicalPlan {
    /// The plan `batch` and `pipeline` give `compiled`, every cost zero.
    pub(crate) fn new(compiled: &CompiledQuery, batch: PromptBatch, pipeline: Pipeline) -> Self {
        let window = limit_hint(compiled).filter(|_| pipeline.stops_at_limit());
        let steps = compiled
            .steps
            .iter()
            .map(|step| StepPlan {
                stages: stages(step, batch),
                servable: batch.is_on() && step.filter_conditions.is_empty() && window.is_none(),
                cost: StepCost::default(),
            })
            .collect();
        PhysicalPlan {
            batch,
            steps,
            window,
        }
    }
}

/// A step's stages under `batch`: one per filter condition, then one per
/// group of up to `A` fetched columns (`A = 1` when batching is off).
pub(crate) fn stages(step: &LlmScanStep, batch: PromptBatch) -> Vec<Stage> {
    let mut stages: Vec<Stage> = (0..step.filter_conditions.len())
        .map(Stage::Filter)
        .collect();
    let attrs = batch.attrs_per_prompt();
    for start in (0..step.fetch.len()).step_by(attrs) {
        let len = attrs.min(step.fetch.len() - start);
        let pads = pad_columns(step, start, len, attrs);
        stages.push(Stage::Fetch { start, len, pads });
    }
    stages
}

/// Speculative fill of a fetch group's spare width: the step's last group
/// (the only one narrower than `A`) is padded with the relation's other
/// columns — schema order, key and fetched columns excluded. Pad cells
/// ride along in the same grid prompt and are stored as sub-entries for
/// later queries, never feeding rows or the fallback ladder, so a suite of
/// narrow queries amortises a table's attributes across a few grid
/// prompts. Empty for every other group (`A = 1` has no pads).
fn pad_columns(step: &LlmScanStep, start: usize, len: usize, attrs: usize) -> Vec<usize> {
    if start + len < step.fetch.len() || len >= attrs {
        return Vec::new();
    }
    (0..step.columns().len())
        .filter(|&c| c != step.key_index && !step.fetch.contains(&c))
        .take(attrs - len)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use galois_dataset::Scenario;

    fn compiled(sql: &str) -> CompiledQuery {
        let s = Scenario::generate(42);
        let plan = s.database.plan(sql).unwrap();
        compile(&plan, s.database.catalog(), &CompileOptions::default()).unwrap()
    }

    const PROJECTION: &str = "SELECT name, population, country FROM city WHERE elevation < 100";

    /// The projection's one step under `batch`, and its compiled step.
    fn layout(batch: PromptBatch) -> (LlmScanStep, StepPlan) {
        let c = compiled(PROJECTION);
        let plan = PhysicalPlan::new(&c, batch, Pipeline::Off);
        assert_eq!(plan.batch, batch);
        assert_eq!(plan.window, None);
        let [step] = <[LlmScanStep; 1]>::try_from(c.steps).unwrap();
        let [step_plan] = <[StepPlan; 1]>::try_from(plan.steps).unwrap();
        (step, step_plan)
    }

    /// What the layouts below are laid over: one filter (on `elevation`),
    /// then `country`, `elevation` and `population` fetched — the plan's
    /// attributes in name order — of the relation's columns `name,
    /// country, population, elevation, mayor`.
    #[test]
    fn the_fetch_order_and_columns_the_layouts_read() {
        let (step, _) = layout(PromptBatch::Off);
        let names: Vec<&str> = step.columns().iter().map(|c| &*c.name).collect();
        assert_eq!(
            names,
            ["name", "country", "population", "elevation", "mayor"]
        );
        assert_eq!(step.fetch, [1, 3, 2]);
        assert_eq!(step.filter_conditions.len(), 1);
        assert_eq!(step.key_index, 0);
    }

    /// `Off`, `Grid{B,1}` and `Grid{B,A}` lay out one shape: the filter,
    /// then groups of up to `A` fetched columns, only the last one padded.
    #[test]
    fn every_batch_lays_out_one_fetch_group_shape() {
        let grid = |attrs| PromptBatch::Grid { keys: 10, attrs };
        let g = |start, len, pads: Vec<usize>| Stage::Fetch { start, len, pads };
        let mayor = 4;
        let one_column_groups = vec![g(0, 1, vec![]), g(1, 1, vec![]), g(2, 1, vec![])];
        for (batch, groups) in [
            // One attribute a group: no spare width, no pads.
            (PromptBatch::Off, one_column_groups.clone()),
            (grid(1), one_column_groups),
            // Only the last, narrower group pads — with the one column
            // neither the key nor fetched.
            (grid(2), vec![g(0, 2, vec![]), g(2, 1, vec![mayor])]),
            // One group with spare width: the relation has nothing else.
            (grid(4), vec![g(0, 3, vec![mayor])]),
        ] {
            let (_, plan) = layout(batch);
            let expected: Vec<Stage> = std::iter::once(Stage::Filter(0)).chain(groups).collect();
            assert_eq!(plan.stages, expected, "{batch:?}");
            assert_eq!(plan.cost, StepCost::default());
            // A filter stage keeps the universe from standing in.
            assert!(!plan.servable, "{batch:?}");
        }
        // A group asking one attribute and no pads is a key batch; a pad
        // or a second column makes it a grid.
        assert!(!Stage::Filter(0).is_grid() && !g(1, 1, vec![]).is_grid());
        assert!(g(2, 1, vec![mayor]).is_grid() && g(0, 2, vec![]).is_grid());
    }

    #[test]
    fn the_window_is_set_only_under_streaming_limit() {
        let c = compiled("SELECT name FROM city LIMIT 7 OFFSET 2");
        for (pipeline, window) in [
            (Pipeline::Off, None),
            (Pipeline::Streaming, None),
            (Pipeline::StreamingLimit, Some(9)),
        ] {
            let plan = PhysicalPlan::new(&c, PromptBatch::Grid { keys: 10, attrs: 1 }, pipeline);
            assert_eq!(plan.window, window, "{pipeline:?}");
            // A window keeps the universe from standing in.
            assert_eq!(plan.steps[0].servable, window.is_none(), "{pipeline:?}");
        }
        // An ineligible shape has no window under any pipeline.
        let sorted = compiled("SELECT name FROM city ORDER BY population LIMIT 7");
        let plan = PhysicalPlan::new(
            &sorted,
            PromptBatch::Grid { keys: 10, attrs: 1 },
            Pipeline::StreamingLimit,
        );
        assert_eq!(plan.window, None);
        assert!(plan.steps[0].servable);
    }

    #[test]
    fn only_the_multi_key_protocol_serves_a_universe_whole() {
        let c = compiled("SELECT name, population FROM city");
        for (batch, servable) in [
            (PromptBatch::Off, false),
            (PromptBatch::Grid { keys: 1, attrs: 1 }, true),
            (PromptBatch::Grid { keys: 10, attrs: 4 }, true),
        ] {
            let plan = PhysicalPlan::new(&c, batch, Pipeline::Streaming);
            assert_eq!(plan.steps[0].servable, servable, "{batch:?}");
        }
    }
}
