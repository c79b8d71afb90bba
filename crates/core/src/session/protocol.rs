//! The retrieval protocol as a time-free state machine.
//!
//! The paper's physical operators are one protocol — retrieve the key
//! values, ask every filter of every surviving key, then one prompt per
//! key and attribute — and this module is its only implementation: given
//! a fired prompt's answer, [`Protocol::process`] decides what lands
//! (keys, verdicts, cells, sub-entries, a published universe) and what
//! fires next. It never reads a clock. *When* the fired prompts run, how
//! they are grouped into client requests and what they cost in virtual
//! time is the business of the two drivers that own a `Protocol`: the
//! event driver ([`super::stream`], `Pipeline::Streaming`) and the barrier
//! driver ([`super::wave`], `Pipeline::Off`).
//!
//! Per step, keys flow list → filter stages (conjunction order) → fetch
//! stages. A stage accumulates the key slots delivered to it and turns
//! them into prompts of up to `B` keys (`B = 1` when batching is off).
//! The drivers differ in the **trigger policy**, which is all of
//! [`Protocol::barrier`]:
//!
//! * event driver: a stage fires the moment it holds `B` keys, when the
//!   driver flushes it because a lane went idle, and when its upstream
//!   drains;
//! * barrier driver: a stage fires only when its upstream drains, its
//!   pending keys sorted into key order and cut into chunks of `B` (a
//!   sub-entry hit routes a survivor downstream ahead of earlier keys
//!   that missed, so arrival order is not key order), and a `LIMIT`
//!   window never stops anything.
//!
//! Everything else is shared as is: warm, partial and cold list entry,
//! the speculative page ramp with its wave barrier, sub-entry extraction
//! before any ask, an in-flight sub-entry counted as a hit and re-asked,
//! the fallback ladder (grid → per-attribute key batch → single key),
//! pads stored and never consumed, fault text turned into a failed cell.
//!
//! This file holds the state and the dispatch; `list` is the key stream
//! (list entry, the exclusion chain, the offset ramp, page ingest, key
//! admission, publishing) and `stage` the stages behind it (delivery,
//! sub-entry extraction, flush and drain, answer landing, the fallback
//! ladder).

mod list;
mod stage;

use super::dedup::FoldedKeys;
use super::stats::{Phase, QueryStats};
use super::typed::Publish;
use super::Galois;
use crate::compile::{CompiledQuery, LlmScanStep};
use crate::physical::{PhysicalPlan, StepPlan};
use galois_llm::intent::TaskIntent;
use galois_llm::{BatchOutcome, SubKey};
use galois_relational::{Table, Value};
use list::SpecState;
use stage::{BatchCell, StageState};
use std::collections::BinaryHeap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One discovered key of a step — the key itself is `keys()[slot]` of its
/// [`StepRun`]: whether a filter verdict or a covered `LIMIT` window has
/// dropped it, and its materialising row, built when it passes its last
/// filter (so a key that dies at a filter never allocates one).
#[derive(Debug, Default)]
struct KeySlot {
    dropped: bool,
    row: Vec<Value>,
}

/// Per-step dataflow state.
struct StepRun<'a> {
    step: &'a LlmScanStep,
    /// How the step retrieves.
    plan: &'a StepPlan,
    /// A terminal stored universe, served as is: the store's own list,
    /// shared, which no page can follow — so nothing is cleaned,
    /// de-duplicated or copied out of it. Also the list this run's keys
    /// move into when it publishes them. `None` while this run lists its
    /// keys.
    stored: Option<Arc<[String]>>,
    /// The keys this run listed, in discovery order — also the exclusion
    /// list rendered into each list iteration's prompt (shared behind an
    /// `Arc`, so rendering a prompt shares rather than re-clones every
    /// seen key). Empty under `stored`.
    exclude: Arc<Vec<String>>,
    /// Case-folded dedup of the listed keys: an index over `exclude`.
    seen: FoldedKeys,
    /// Each slot's key hashed for the sub-entry store once, as it enters
    /// the run (multi-key protocol only; empty otherwise): `sub_keys[slot]`
    /// goes with `keys()[slot]`.
    sub_keys: Vec<SubKey>,
    /// List iterations fired so far.
    iterations: usize,
    /// Key slots in discovery order — rows materialise in this order.
    slots: Vec<KeySlot>,
    /// Filter stages (in conjunction order) followed by fetch stages.
    stages: Vec<StageState<'a>>,
    n_filters: usize,
    /// Key-universe store concept to publish at list finish (`None` when
    /// the store is off, or when the universe was served warm and needs
    /// no re-publish).
    concept: Option<String>,
    /// Whether the key stream ended by exhaustion (terminal page) rather
    /// than the iteration cap — the stored universe's `exhausted` flag.
    list_exhausted: bool,
    /// Speculative paging state (cold concept with the store on).
    spec: Option<SpecState>,
    /// The stored universe's relation ([`super::typed`]), handed to the
    /// step whole: no slot, stage or row of this run is used.
    served: Option<Arc<Table>>,
    /// The right to publish this run's table as its stored universe's
    /// relation: set for a run with no filter stage and no `LIMIT` window,
    /// lost at the first cell the store does not answer with a hit.
    publish: Option<Publish>,
    /// The step's accounting.
    acc: QueryStats,
}

impl StepRun<'_> {
    /// The step's keys in discovery order: `keys()[slot]` is the key of
    /// `slots[slot]`.
    fn keys(&self) -> &[String] {
        self.stored.as_deref().unwrap_or(&self.exclude)
    }

    /// The keys of a micro-batch's member slots, as a prompt lists them.
    fn chunk_keys(&self, members: &[usize]) -> Vec<&str> {
        members.iter().map(|&i| self.keys()[i].as_str()).collect()
    }
}

/// What a step's run hands the relational engine.
pub(super) enum StepTable {
    /// Its stored universe's relation, as it stands.
    Served(Arc<Table>),
    /// Rows to materialise, and where the table may be kept.
    Built(Vec<Vec<Value>>, Option<Publish>),
}

/// The end of a run ([`Protocol::finish`]).
pub(super) struct Finished {
    /// Every step's accounting added up, but for the query's clock.
    pub(super) stats: QueryStats,
    /// Each step's own clock, which the barrier driver packs onto its lanes
    /// (none under the event driver, whose steps share one clock).
    pub(super) step_clocks: Vec<u64>,
    /// What each step hands the relational engine.
    pub(super) tables: Vec<StepTable>,
}

/// What a fired prompt is.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum FireTarget {
    /// One exclusion-list iteration of the key listing.
    List,
    /// One speculative offset page.
    ListPage { offset: usize },
    /// One grid prompt: `members` × the stage's attr-group and its pads.
    Grid { stage: usize, members: Vec<usize> },
    /// One multi-key prompt for the stage's `ord`-th cell: a key-batch
    /// stage's micro-batch (`ord` 0), or the middle rung of the grid
    /// ladder — the failed cells of one attr of one grid chunk, re-asked
    /// as a per-attribute key batch ([`TaskIntent::FetchAttrBatch`]).
    Batch {
        stage: usize,
        ord: usize,
        members: Vec<usize>,
    },
    /// One single-key prompt for the stage's `ord`-th cell: the entire
    /// dataflow when batching is off, else the ladder's bottom rung.
    Single {
        stage: usize,
        ord: usize,
        member: usize,
    },
}

impl FireTarget {
    /// The retrieval cell the prompt belongs to — `(stage, attr ordinal)`,
    /// the ordinal `None` for a whole grid group — or `None` for a list
    /// prompt. The barrier driver fuses consecutive prompts of one cell
    /// into a client request.
    pub(super) fn cell(&self) -> Option<(usize, Option<usize>)> {
        match *self {
            FireTarget::List | FireTarget::ListPage { .. } => None,
            FireTarget::Grid { stage, .. } => Some((stage, None)),
            FireTarget::Batch { stage, ord, .. } | FireTarget::Single { stage, ord, .. } => {
                Some((stage, Some(ord)))
            }
        }
    }
}

/// A prompt fired while an answer was processed; the driver runs it.
pub(super) struct Fire {
    pub(super) step: usize,
    pub(super) target: FireTarget,
}

/// The confirmed survivors that can still matter to a `LIMIT` window of
/// `n` rows: the `n` smallest confirmed slots, as a max-heap. Rows
/// materialise in slot order, so once the heap is full, a slot past its
/// top can never surface inside the window. The heap grows with the
/// confirmations; `n` may exceed any universe, so nothing is reserved.
#[derive(Debug)]
struct LimitWindow {
    n: usize,
    smallest: BinaryHeap<usize>,
}

impl LimitWindow {
    fn new(n: usize) -> Self {
        LimitWindow {
            n,
            smallest: BinaryHeap::new(),
        }
    }

    /// Marks one slot as having survived every filter verdict (each slot
    /// at most once).
    fn confirm(&mut self, slot: usize) {
        if self.smallest.len() < self.n {
            self.smallest.push(slot);
        } else if let Some(mut top) = self.smallest.peek_mut() {
            if slot < *top {
                *top = slot;
            }
        }
    }

    /// True once the window is covered by confirmed survivors — the
    /// signal that stops list paging. In-flight filter verdicts
    /// contribute nothing until they land, so coverage is never
    /// speculative.
    fn covered(&self) -> bool {
        self.smallest.len() >= self.n
    }

    /// True when at least `n` slots strictly before `slot` (discovery
    /// order) are confirmed survivors, so `slot` can never surface inside
    /// the window.
    fn covers(&self, slot: usize) -> bool {
        self.covered() && self.smallest.peek().is_none_or(|&top| top < slot)
    }
}

/// The protocol state of one query: per-step dataflow state plus the
/// policy the driver runs it under.
pub(super) struct Protocol<'a> {
    session: &'a Galois,
    steps: Vec<StepRun<'a>>,
    /// Multi-key protocol on (the plan's batch is not `Off`).
    batched: bool,
    /// Keys per micro-batch (`B`; 1 when batching is off).
    fuse: usize,
    /// Trigger policy: under the barrier driver (`Pipeline::Off`) a stage
    /// fires only when its upstream has drained, in key order; under the
    /// event driver it also fires the moment it holds `fuse` keys.
    barrier: bool,
    /// The plan's LIMIT window ([`PhysicalPlan::window`]); `None` runs to
    /// exhaustion.
    window: Option<LimitWindow>,
}

impl<'a> Protocol<'a> {
    pub(super) fn new(
        session: &'a Galois,
        compiled: &'a CompiledQuery,
        physical: &'a PhysicalPlan,
    ) -> Self {
        let batched = physical.batch.is_on();
        let steps = compiled
            .steps
            .iter()
            .zip(&physical.steps)
            .map(|(step, plan)| StepRun {
                step,
                plan,
                stored: None,
                exclude: Arc::new(Vec::new()),
                seen: FoldedKeys::default(),
                sub_keys: Vec::new(),
                iterations: 0,
                slots: Vec::new(),
                n_filters: step.filter_conditions.len(),
                stages: (plan.stages.iter())
                    .map(|cell| StageState::new(session, step, cell, batched))
                    .collect(),
                concept: None,
                list_exhausted: false,
                spec: None,
                served: None,
                publish: None,
                acc: QueryStats::default(),
            })
            .collect();
        Protocol {
            session,
            steps,
            batched,
            fuse: physical.batch.keys_per_prompt(),
            barrier: !session.options.pipeline.is_streaming(),
            window: physical.window.map(LimitWindow::new),
        }
    }

    pub(super) fn n_steps(&self) -> usize {
        self.steps.len()
    }

    /// One step's accounting.
    pub(super) fn acc(&mut self, s: usize) -> &mut QueryStats {
        &mut self.steps[s].acc
    }

    /// The end of a run: the steps' accounting added up, each step's clock
    /// and what each hands the relational engine — the relation it was
    /// served, or the rows of the keys that survived, in discovery order,
    /// and the right to publish their table if it still has it and no
    /// cell failed.
    pub(super) fn finish(self) -> Finished {
        let typed = &self.session.typed;
        let served = self.steps.iter().filter(|run| run.served.is_some()).count();
        typed.steps_served.fetch_add(served, Ordering::Relaxed);
        let built = self.steps.len() - served;
        typed.steps_built.fetch_add(built, Ordering::Relaxed);
        let (mut stats, mut step_clocks) = (QueryStats::default(), Vec::new());
        // Collected in place, into the steps' own buffer — with no
        // reallocation while `StepRun`'s size is a multiple of `StepTable`'s.
        let tables = (self.steps.into_iter())
            .map(|run| {
                stats.add_step(&run.acc);
                if self.barrier {
                    step_clocks.push(run.acc.virtual_ms);
                }
                match run.served {
                    Some(table) => StepTable::Served(table),
                    None => {
                        let alive = run.slots.into_iter().filter(|slot| !slot.dropped);
                        let publish = run.publish.filter(|_| run.acc.failed_cells == 0);
                        StepTable::Built(alive.map(|slot| slot.row).collect(), publish)
                    }
                }
            })
            .collect();
        Finished {
            stats,
            step_clocks,
            tables,
        }
    }

    /// Renders the prompt of one fired task (list prompts read the
    /// exclusion list at render time, which is exactly the state the
    /// firing answer left behind). Single-key prompts go through the
    /// stage's `KeyTemplate`, byte-identical to rendering the intent.
    pub(super) fn render(&self, fire: &Fire) -> String {
        let run = &self.steps[fire.step];
        let step = run.step;
        let builder = &self.session.prompt_builder;
        match &fire.target {
            FireTarget::List => builder.task(&TaskIntent::ListKeys {
                relation: step.table.to_string(),
                key_attr: step.key_attr.to_string(),
                condition: step.scan_condition.clone(),
                exclude: Arc::clone(&run.exclude),
            }),
            FireTarget::ListPage { offset } => builder.task(&TaskIntent::ListKeysPage {
                relation: step.table.to_string(),
                key_attr: step.key_attr.to_string(),
                condition: step.scan_condition.clone(),
                offset: *offset,
            }),
            FireTarget::Grid { stage, members } => builder.grid(
                &step.table,
                &step.key_attr,
                &run.chunk_keys(members),
                &run.stages[*stage].grid_names,
            ),
            FireTarget::Batch {
                stage,
                ord,
                members,
            } => {
                let keys = members.iter().map(|&slot| run.keys()[slot].clone());
                builder.task(&match run.stages[*stage].batch_cell(step, *ord) {
                    BatchCell::Filter(condition) => TaskIntent::FilterKeysBatch {
                        relation: step.table.to_string(),
                        key_attr: step.key_attr.to_string(),
                        keys: keys.collect(),
                        condition: condition.clone(),
                    },
                    BatchCell::Fetch(attribute) => TaskIntent::FetchAttrBatch {
                        relation: step.table.to_string(),
                        key_attr: step.key_attr.to_string(),
                        keys: keys.collect(),
                        attribute: attribute.to_string(),
                    },
                })
            }
            FireTarget::Single { stage, ord, member } => {
                let stage = &run.stages[*stage];
                stage.templates[*ord]
                    .get_or_init(|| match stage.batch_cell(step, *ord) {
                        BatchCell::Filter(condition) => {
                            builder.filter_template(&step.table, &step.key_attr, condition)
                        }
                        BatchCell::Fetch(attribute) => {
                            builder.fetch_template(&step.table, &step.key_attr, attribute)
                        }
                    })
                    .render(&run.keys()[*member])
            }
        }
    }

    /// The protocol phase a fired prompt's time belongs to.
    pub(super) fn phase(&self, fire: &Fire) -> Phase {
        match fire.target.cell() {
            None => Phase::List,
            Some((stage, _)) => self.steps[fire.step].stages[stage].phase(),
        }
    }

    /// Bills one client request — `prompts` fired prompts of `fire`'s
    /// kind and cell — to the step's counters (the drivers charge its
    /// time their own way).
    pub(super) fn bill(&mut self, fire: &Fire, prompts: usize, outcome: &BatchOutcome) {
        let phase = self.phase(fire);
        let acc = &mut self.steps[fire.step].acc;
        match phase {
            Phase::List => acc.list_prompts += prompts,
            Phase::Filter => acc.filter_prompts += prompts,
            Phase::Fetch => acc.fetch_prompts += prompts,
        }
        match fire.target {
            FireTarget::List | FireTarget::ListPage { .. } => acc.absorb(outcome),
            FireTarget::Single { .. } if !self.batched => acc.absorb(outcome),
            // Multi-key-protocol prompts (chunks and their single-key
            // fallbacks): key-level hits were already billed by signature
            // at sub-entry extraction.
            _ => acc.absorb_keyed(outcome),
        }
    }

    /// Applies one fired prompt's answer: what lands, and what fires
    /// next.
    pub(super) fn process(
        &mut self,
        s: usize,
        target: FireTarget,
        text: &str,
        fires: &mut Vec<Fire>,
    ) {
        let stage = match target {
            FireTarget::List => return self.process_list(s, text, fires),
            FireTarget::ListPage { offset } => return self.process_page(s, offset, text, fires),
            FireTarget::Grid { stage, ref members } => {
                self.process_grid_chunk(s, stage, members, text, fires);
                stage
            }
            FireTarget::Batch {
                stage,
                ord,
                ref members,
            } => {
                self.process_batch(s, stage, ord, members, text, fires);
                stage
            }
            FireTarget::Single { stage, ord, member } => {
                self.answer_cell(s, stage, ord, member, text, fires);
                stage
            }
        };
        self.steps[s].stages[stage].inflight -= 1;
        self.maybe_drain(s, stage, fires);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The heap of the `n` smallest confirmed slots answers exactly
        /// what counting the confirmed prefix did, after every
        /// confirmation of any order, for every slot — `n = 0` included.
        #[test]
        fn limit_window_matches_counting_the_confirmed_prefix(
            n in 0usize..6,
            seed in any::<u64>(),
            confirmations in 0usize..24,
        ) {
            // A seeded shuffle of 0..24: distinct slots, any order.
            let mut order: Vec<usize> = (0..24).collect();
            let mut state = seed;
            for i in (1..order.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            let mut window = LimitWindow::new(n);
            let mut confirmed = [false; 24];
            for step in 0..=confirmations {
                let total = confirmed.iter().filter(|&&c| c).count();
                prop_assert_eq!(window.covered(), total >= n);
                for slot in 0..=24 {
                    let before = confirmed.iter().take(slot).filter(|&&c| c).count();
                    prop_assert_eq!(
                        window.covers(slot),
                        before >= n,
                        "n {} after {} confirmations, slot {}", n, step, slot
                    );
                }
                window.confirm(order[step]);
                confirmed[order[step]] = true;
            }
        }
    }
}
