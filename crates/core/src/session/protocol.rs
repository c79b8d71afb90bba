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

use super::stats::{Phase, StepStats};
use super::typed::Publish;
use super::Galois;
use crate::clean::{cell_value, key_row, normalise_text};
use crate::compile::{CompiledQuery, LlmScanStep};
use crate::parse::{parse_boolean_answer, parse_list_answer, ListAnswer};
use crate::physical::{PhysicalPlan, Stage, StepPlan};
use crate::prompts::KeyTemplate;
use galois_llm::faults::is_fault_text;
use galois_llm::intent::{split_batched_answer, split_grid_answer, Condition, TaskIntent};
use galois_llm::{BatchOutcome, KeyUniverse, SubColumn, SubLookup};
use galois_relational::{Table, Value};
use std::cell::OnceCell;
use std::collections::{BTreeMap, BinaryHeap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One retrieval cell of the batched protocol: a filter condition, or a
/// fetched attribute.
enum BatchCell<'a> {
    /// Boolean check of one condition over the cell's keys.
    Filter(&'a Condition),
    /// Fetch of one attribute over the cell's keys.
    Fetch(&'a str),
}

impl Galois {
    /// Workflow step (3) for one key's answer to a cell: a filter verdict
    /// when the cell fetches no column, else the column's typed value
    /// ([`cell_value`]). An unparseable verdict keeps the tuple out (the
    /// predicate did not evaluate to TRUE). A degraded answer (fault text)
    /// counts as a failed cell, and keeps the tuple out or annotates the
    /// cell as NULL.
    fn parse_answer(
        &self,
        step: &LlmScanStep,
        fetch_col: Option<usize>,
        answer: &str,
        failed_cells: &mut usize,
    ) -> Landed {
        let faulted = is_fault_text(answer);
        *failed_cells += usize::from(faulted);
        match fetch_col {
            None => Landed::Verdict(!faulted && parse_boolean_answer(answer).unwrap_or(false)),
            Some(_) if faulted => Landed::Value(Value::Null),
            Some(col) => {
                let data_type = step.columns()[col].data_type;
                Landed::Value(cell_value(answer, data_type, &self.options.cleaning))
            }
        }
    }

    /// The sub-entry column of one retrieval cell in the client's
    /// extraction cache, resolved once per statement; the per-key loops
    /// then ask it by key alone. The column is named by everything of a
    /// `(cell, key)` signature but the key. `\u{1f}` (ASCII unit
    /// separator) keeps field boundaries unambiguous for names and
    /// phrases containing `:` or commas.
    fn cell_column(&self, step: &LlmScanStep, cell: &BatchCell) -> SubColumn {
        let prefix = match cell {
            BatchCell::Filter(c) => format!(
                "filter\u{1f}{}\u{1f}{}\u{1f}{}\u{1f}{}\u{1f}",
                step.table,
                step.key_attr,
                c.attribute,
                c.render_phrase(),
            ),
            BatchCell::Fetch(attribute) => format!(
                "fetch\u{1f}{}\u{1f}{}\u{1f}{attribute}\u{1f}",
                step.table, step.key_attr,
            ),
        };
        self.client.sub_column(&prefix)
    }

    /// The multi-key intent for one chunk of a cell's keys.
    fn cell_batched_intent(
        &self,
        step: &LlmScanStep,
        cell: &BatchCell,
        chunk_keys: Vec<String>,
    ) -> TaskIntent {
        match cell {
            BatchCell::Filter(c) => TaskIntent::FilterKeysBatch {
                relation: step.table.clone(),
                key_attr: step.key_attr.clone(),
                keys: chunk_keys,
                condition: (*c).clone(),
            },
            BatchCell::Fetch(attribute) => TaskIntent::FetchAttrBatch {
                relation: step.table.clone(),
                key_attr: step.key_attr.clone(),
                keys: chunk_keys,
                attribute: (*attribute).to_string(),
            },
        }
    }
}

/// The columns a grid stage's prompt asks, by name: the group's own
/// (`step.fetch[start..start + len]`), then its pads.
fn grid_attributes(step: &LlmScanStep, stage: &Stage) -> Vec<String> {
    let Stage::Grid { start, len, pads } = stage else {
        return Vec::new();
    };
    let own = &step.fetch[*start..start + len];
    own.iter()
        .chain(pads)
        .map(|&c| step.columns()[c].name.clone())
        .collect()
}

/// One micro-batch accumulator of the dataflow: a filter condition, a
/// fetched column or a grid attr-group of one step.
#[derive(Debug)]
struct StageState<'a> {
    /// The stage of the step's plan this accumulates for.
    cell: &'a Stage,
    /// Sub-entry columns of the stage's cells (empty when the multi-key
    /// protocol is off — plain single-key prompts bypass the sub-entry
    /// store). Single-cell stages use `[0]`; a grid stage holds one per
    /// attr ordinal, then one per pad column.
    sub_columns: Vec<SubColumn>,
    /// Single-key prompt templates of the stage's own cells (one; a grid
    /// stage one per attr ordinal), each rendered on first use: the whole
    /// dataflow when batching is off, the ladder's bottom rung otherwise.
    templates: Vec<OnceCell<KeyTemplate>>,
    /// Key slots accumulated towards the next micro-batch.
    pending: Vec<usize>,
    /// Micro-batches and fallback re-asks in flight.
    inflight: usize,
    /// `(slot, attr ordinal)` cells already consumed at a grid stage —
    /// grid chunks carry keys with *some* cells still cached or
    /// re-delivered, and an answered cell must neither re-consume nor
    /// re-enter the fallback ladder. Unused at single-cell stages.
    answered: AnsweredCells,
    /// True once the producing stage (list page stream, or the previous
    /// filter) can no longer deliver keys.
    upstream_drained: bool,
    /// True once this stage has seen its last key and answered it.
    drained: bool,
}

impl<'a> StageState<'a> {
    fn new(cell: &'a Stage) -> Self {
        let own_cells = match cell {
            Stage::Grid { len, .. } => *len,
            Stage::Filter(_) | Stage::Fetch { .. } => 1,
        };
        StageState {
            cell,
            sub_columns: Vec::new(),
            templates: (0..own_cells).map(|_| OnceCell::new()).collect(),
            pending: Vec::new(),
            inflight: 0,
            answered: AnsweredCells::new(own_cells),
            upstream_drained: false,
            drained: false,
        }
    }

    /// How many cells the stage asks of a key itself (a grid group's
    /// width; pads are not its own).
    fn own_cells(&self) -> usize {
        self.templates.len()
    }

    /// Records that a key's `ord`-th cell has been consumed (grid stages
    /// only — see `answered`).
    fn mark_answered(&mut self, slot: usize, ord: usize) {
        if let Stage::Grid { .. } = self.cell {
            self.answered.insert(slot, ord);
        }
    }

    /// The column (an index into `step.columns()`) the stage's `ord`-th
    /// own cell fetches; `None` at a filter stage, whose answers are
    /// verdicts.
    fn fetch_col(&self, step: &LlmScanStep, ord: usize) -> Option<usize> {
        match self.cell {
            Stage::Filter(_) => None,
            Stage::Fetch { col } => Some(*col),
            Stage::Grid { start, .. } => Some(step.fetch[start + ord]),
        }
    }

    /// The borrowed form of the stage's `ord`-th own cell.
    fn batch_cell<'s>(&self, step: &'s LlmScanStep, ord: usize) -> BatchCell<'s> {
        match self.cell {
            Stage::Filter(i) => BatchCell::Filter(&step.filter_conditions[*i]),
            Stage::Fetch { col } => BatchCell::Fetch(&step.columns()[*col].name),
            Stage::Grid { start, .. } => {
                BatchCell::Fetch(&step.columns()[step.fetch[start + ord]].name)
            }
        }
    }

    fn phase(&self) -> Phase {
        match self.cell {
            Stage::Filter(_) => Phase::Filter,
            Stage::Fetch { .. } | Stage::Grid { .. } => Phase::Fetch,
        }
    }
}

/// The answered `(slot, attr ordinal)` cells of one grid stage, as a
/// bitmap over `slot * len + ord` — the cell space is dense (every slot
/// that reaches the stage has all `len` cells), so membership is a shift
/// and a mask where a hash set paid a SipHash per cell.
#[derive(Debug)]
struct AnsweredCells {
    /// Attr ordinals per slot (the stage's group width).
    len: usize,
    /// Bit `slot * len + ord`, 64 to a word; grows with the slots.
    words: Vec<u64>,
}

impl AnsweredCells {
    fn new(len: usize) -> Self {
        AnsweredCells {
            len,
            words: Vec::new(),
        }
    }

    fn bit(&self, slot: usize, ord: usize) -> (usize, u64) {
        debug_assert!(ord < self.len, "attr ordinal outside the stage's group");
        let bit = slot * self.len + ord;
        (bit / 64, 1 << (bit % 64))
    }

    fn contains(&self, slot: usize, ord: usize) -> bool {
        let (word, mask) = self.bit(slot, ord);
        self.words.get(word).is_some_and(|w| w & mask != 0)
    }

    fn insert(&mut self, slot: usize, ord: usize) {
        let (word, mask) = self.bit(slot, ord);
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= mask;
    }
}

/// One discovered key of a step — the key itself is `keys()[slot]` of its
/// [`StepRun`]: whether it has survived every filter verdict so far, and
/// its materialising row, built when it passes its last filter (so a key
/// that dies at a filter never allocates one).
#[derive(Debug)]
struct KeySlot {
    alive: bool,
    row: Vec<Value>,
}

impl KeySlot {
    /// The slot of a freshly listed (or stored) key.
    fn listed() -> Self {
        KeySlot {
            alive: true,
            row: Vec::new(),
        }
    }
}

/// Speculative list-paging state of one cold-concept step (store on):
/// page 1 is the classic first list prompt — identical string, so it
/// shares the prompt cache with store-off runs. Its raw value count is
/// the page-size estimate `P`; subsequent pages are requested as
/// [`TaskIntent::ListKeysPage`] at offsets `P, 2P, …` in waves whose
/// width doubles up to the lane count — the probe wave is one page wide
/// (the estimate may be the whole universe), later waves fan out. The
/// next wave fires only when the current one has fully landed, so both
/// drivers count iterations identically. Pages are applied in offset
/// order; the first exhausted page, short page or page with nothing new
/// ends the universe (pages already fired past it are counted waste —
/// speculation buys latency with at most a ramp-width of extra prompts,
/// never accuracy). Hitting the iteration cap leaves a partial frontier.
#[derive(Debug)]
struct SpecState {
    /// Raw value count of page 1 — the offset stride.
    page_est: usize,
    /// First offset of the next wave.
    next_offset: usize,
    /// Pages in the next wave (1, then doubling up to the lane count).
    width: usize,
    /// Pages of the current wave still in flight.
    inflight: usize,
    /// Landed pages of the current wave, keyed by offset so they apply
    /// in universe order regardless of completion order.
    buffered: BTreeMap<usize, String>,
}

/// Per-step dataflow state.
struct StepRun<'a> {
    step: &'a LlmScanStep,
    /// How the step retrieves.
    plan: &'a StepPlan,
    /// A terminal stored universe, served as is: the store's own list,
    /// shared, which no page can follow — so nothing is cleaned,
    /// de-duplicated or copied out of it. `None` when this run lists its
    /// keys.
    stored: Option<Arc<[String]>>,
    /// The keys this run listed, in discovery order — also the exclusion
    /// list rendered into each list iteration's prompt (shared behind an
    /// `Arc`, so rendering a prompt shares rather than re-clones every
    /// seen key). Empty under `stored`.
    exclude: Arc<Vec<String>>,
    /// Case-folded dedup of the listed keys.
    seen: HashSet<String>,
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
    acc: StepStats,
}

impl StepRun<'_> {
    /// The step's keys in discovery order: `keys()[slot]` is the key of
    /// `slots[slot]`.
    fn keys(&self) -> &[String] {
        self.stored.as_deref().unwrap_or(&self.exclude)
    }

    /// The keys of a micro-batch's member slots, as a prompt lists them.
    fn chunk_keys(&self, members: &[usize]) -> Vec<String> {
        members.iter().map(|&i| self.keys()[i].clone()).collect()
    }
}

/// What one key's answer decides for a cell; the stage it lands at says
/// which column a value is for.
#[derive(Debug)]
enum Landed {
    /// A filter verdict: whether the key survives the condition.
    Verdict(bool),
    /// A fetched cell, typed.
    Value(Value),
}

/// What a step's run hands the relational engine.
pub(super) enum StepTable {
    /// Its stored universe's relation, as it stands.
    Served(Arc<Table>),
    /// Rows to materialise, and where the table may be kept.
    Built(Vec<Vec<Value>>, Option<Publish>),
}

/// What a fired prompt is.
#[derive(Debug)]
pub(super) enum FireTarget {
    /// One exclusion-list iteration of the key listing.
    List,
    /// One speculative offset page.
    ListPage { offset: usize },
    /// One grid prompt: `members` × the stage's attr-group and its pads.
    Grid { stage: usize, members: Vec<usize> },
    /// One multi-key prompt for the stage's `ord`-th cell: a single-cell
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
            .map(|(step, plan)| {
                let mut stages: Vec<StageState> = plan.stages.iter().map(StageState::new).collect();
                if batched {
                    for stage in &mut stages {
                        // Own cells first, then a grid group's speculative
                        // pad columns — the attr order the grid prompt
                        // renders.
                        let pads = match stage.cell {
                            Stage::Grid { pads, .. } => pads.as_slice(),
                            Stage::Filter(_) | Stage::Fetch { .. } => &[],
                        };
                        stage.sub_columns = (0..stage.own_cells())
                            .map(|ord| session.cell_column(step, &stage.batch_cell(step, ord)))
                            .chain(pads.iter().map(|&c| {
                                session
                                    .cell_column(step, &BatchCell::Fetch(&step.columns()[c].name))
                            }))
                            .collect();
                    }
                }
                StepRun {
                    step,
                    plan,
                    stored: None,
                    exclude: Arc::new(Vec::new()),
                    seen: HashSet::new(),
                    iterations: 0,
                    slots: Vec::new(),
                    n_filters: step.filter_conditions.len(),
                    stages,
                    concept: None,
                    list_exhausted: false,
                    spec: None,
                    served: None,
                    publish: None,
                    acc: StepStats::default(),
                }
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
    pub(super) fn acc(&mut self, s: usize) -> &mut StepStats {
        &mut self.steps[s].acc
    }

    /// The end of a run: per step (in step order) its accounting and what
    /// it hands the relational engine — the relation it was served, or the
    /// rows of the keys that survived, in discovery order, and the right to
    /// publish their table if it still has it and no cell failed.
    pub(super) fn finish(self) -> impl Iterator<Item = (StepStats, StepTable)> + 'a {
        let typed = &self.session.typed;
        let served = self.steps.iter().filter(|run| run.served.is_some()).count();
        typed.steps_served.fetch_add(served, Ordering::Relaxed);
        let built = self.steps.len() - served;
        typed.steps_built.fetch_add(built, Ordering::Relaxed);
        self.steps.into_iter().map(|run| {
            let table = match run.served {
                Some(table) => StepTable::Served(table),
                None => {
                    let alive = run.slots.into_iter().filter(|slot| slot.alive);
                    let publish = run.publish.filter(|_| run.acc.failed_cells == 0);
                    StepTable::Built(alive.map(|slot| slot.row).collect(), publish)
                }
            };
            (run.acc, table)
        })
    }

    fn limit_covered(&self) -> bool {
        self.window.as_ref().is_some_and(LimitWindow::covered)
    }

    /// Starts one step's key stream: classic list paging when the store
    /// is off; otherwise a warm universe is injected at zero prompt cost
    /// (its stored iterations billed as cache hits — the bill a
    /// re-listing run would have paid in prompt-cache hits), a partial
    /// frontier is injected and classic paging resumes after it, and a
    /// cold concept lists speculatively ([`SpecState`]).
    ///
    /// A warm step with no filter stage and no `LIMIT` window whose
    /// fetched columns the universe's relation holds ([`super::typed`])
    /// injects nothing: it is handed the relation and billed the hits the
    /// dataflow would have counted — one per key and fetched column, to
    /// the step and to the client — and, like it, fires no prompt.
    pub(super) fn start_step(&mut self, s: usize, fires: &mut Vec<Fire>) {
        let cap = self.session.options.max_list_iterations;
        if cap == 0 {
            // Nothing may be listed: skip the store entirely (no warm
            // service, no empty publish).
            self.finish_list(s, fires);
            return;
        }
        let looked_up = self.session.list_store.as_ref().map(|store| {
            let concept = self.steps[s].step.concept_signature();
            let entry = store.read(&concept, &self.session.model_sig);
            (concept, entry)
        });
        let Some((concept, entry)) = looked_up else {
            self.fire_list(s, fires);
            return;
        };
        match entry {
            Some(stored) if stored.exhausted || stored.iterations >= cap => {
                let run = &mut self.steps[s];
                run.acc.cache_hits += stored.iterations;
                if run.plan.servable {
                    // Every key, in slot order, and nothing but fetched
                    // cells: the step's table is the universe's relation.
                    let generation = self.session.client.sub_generation();
                    let fetch = &run.step.fetch;
                    let typed = &self.session.typed;
                    run.served = typed.serve(generation, &concept, &stored.keys, fetch);
                    if run.served.is_some() {
                        let cells = stored.keys.len() * fetch.len();
                        run.acc.cache_hits += cells;
                        self.session.client.bill_sub_hits(cells);
                        return;
                    }
                    run.publish = Some(Publish {
                        generation,
                        concept,
                        keys: Arc::clone(&stored.keys),
                    });
                }
                run.slots = (0..stored.keys.len()).map(|_| KeySlot::listed()).collect();
                run.stored = Some(stored.keys);
                run.iterations = stored.iterations;
                run.list_exhausted = stored.exhausted;
                for slot in 0..self.steps[s].slots.len() {
                    self.enter_dataflow(s, slot, fires);
                }
                // Warm service re-publishes nothing: `concept` stays
                // `None`, so `finish_list` skips the store.
                self.finish_list(s, fires);
            }
            Some(stored) => {
                self.steps[s].acc.cache_hits += stored.iterations;
                self.enter_page(s, &stored.keys, fires);
                self.steps[s].iterations = stored.iterations;
                self.steps[s].concept = Some(concept);
                if self.limit_covered() {
                    self.finish_list(s, fires);
                } else {
                    self.fire_list(s, fires);
                }
            }
            None => {
                self.steps[s].concept = Some(concept);
                self.steps[s].spec = Some(SpecState {
                    page_est: 0,
                    next_offset: 0,
                    width: 1,
                    inflight: 0,
                    buffered: BTreeMap::new(),
                });
                self.fire_list(s, fires);
            }
        }
    }

    // --- firing ------------------------------------------------------

    fn fire_list(&mut self, s: usize, fires: &mut Vec<Fire>) {
        self.steps[s].iterations += 1;
        fires.push(Fire {
            step: s,
            target: FireTarget::List,
        });
    }

    /// Fires the next speculative page wave: offsets stride by the page
    /// estimate, the width ramps 1 → 2 → … up to the lane count (clamped
    /// by the remaining iteration budget).
    fn fire_spec_wave(&mut self, s: usize, fires: &mut Vec<Fire>) {
        let cap = self.session.options.max_list_iterations;
        let lanes = self.session.options.parallelism.get();
        let run = &mut self.steps[s];
        // Only `process_list` and `spec_apply` call this, both from
        // inside a `spec` step.
        let Some(spec) = run.spec.as_mut() else {
            unreachable!("spec wave outside spec mode");
        };
        let width_now = spec.width.min(cap.saturating_sub(run.iterations)).max(1);
        for i in 0..width_now {
            fires.push(Fire {
                step: s,
                target: FireTarget::ListPage {
                    offset: spec.next_offset + i * spec.page_est,
                },
            });
        }
        spec.inflight += width_now;
        spec.next_offset += width_now * spec.page_est;
        spec.width = (spec.width * 2).min(lanes.max(1));
        run.iterations += width_now;
    }

    /// Fires one prompt of a stage.
    fn fire(&mut self, s: usize, stage: usize, target: FireTarget, fires: &mut Vec<Fire>) {
        self.steps[s].stages[stage].inflight += 1;
        fires.push(Fire { step: s, target });
    }

    /// Fires one micro-batch of a stage: a grid prompt, a multi-key
    /// prompt, or — batching off, where micro-batches hold one key — the
    /// key's single prompt.
    fn fire_chunk(&mut self, s: usize, stage: usize, members: &[usize], fires: &mut Vec<Fire>) {
        let target = if !self.batched {
            debug_assert_eq!(members.len(), 1, "unbatched micro-batches hold one key");
            FireTarget::Single {
                stage,
                ord: 0,
                member: members[0],
            }
        } else if let Stage::Grid { .. } = self.steps[s].stages[stage].cell {
            FireTarget::Grid {
                stage,
                members: members.to_vec(),
            }
        } else {
            FireTarget::Batch {
                stage,
                ord: 0,
                members: members.to_vec(),
            }
        };
        self.fire(s, stage, target, fires);
    }

    /// Fires a stage's accumulated keys. Under the barrier policy this is
    /// the stage's whole input, put back into key order and cut into
    /// micro-batches; under the event policy it is at most one.
    fn flush(&mut self, s: usize, g: usize, fires: &mut Vec<Fire>) {
        let mut pending = std::mem::take(&mut self.steps[s].stages[g].pending);
        if self.barrier {
            pending.sort_unstable();
        }
        for chunk in pending.chunks(self.fuse) {
            self.fire_chunk(s, g, chunk, fires);
        }
    }

    /// Fires every stage's accumulated keys, in step and stage order —
    /// the event driver's "a lane went idle" trigger.
    pub(super) fn flush_all(&mut self, fires: &mut Vec<Fire>) {
        for s in 0..self.steps.len() {
            for g in 0..self.steps[s].stages.len() {
                self.flush(s, g, fires);
            }
        }
    }

    /// Renders the prompt of one fired task (list prompts read the
    /// exclusion list at render time, which is exactly the state the
    /// firing answer left behind). Single-key prompts go through the
    /// stage's [`KeyTemplate`], byte-identical to rendering the intent.
    pub(super) fn render(&self, fire: &Fire) -> String {
        let run = &self.steps[fire.step];
        let step = run.step;
        let builder = &self.session.prompt_builder;
        match &fire.target {
            FireTarget::List => builder.task(&TaskIntent::ListKeys {
                relation: step.table.clone(),
                key_attr: step.key_attr.clone(),
                condition: step.scan_condition.clone(),
                exclude: Arc::clone(&run.exclude),
            }),
            FireTarget::ListPage { offset } => builder.task(&TaskIntent::ListKeysPage {
                relation: step.table.clone(),
                key_attr: step.key_attr.clone(),
                condition: step.scan_condition.clone(),
                offset: *offset,
            }),
            FireTarget::Grid { stage, members } => builder.task(&TaskIntent::FetchGridBatch {
                relation: step.table.clone(),
                key_attr: step.key_attr.clone(),
                keys: run.chunk_keys(members),
                attributes: grid_attributes(step, run.stages[*stage].cell),
            }),
            FireTarget::Batch {
                stage,
                ord,
                members,
            } => {
                let cell = run.stages[*stage].batch_cell(step, *ord);
                builder.task(&self.session.cell_batched_intent(
                    step,
                    &cell,
                    run.chunk_keys(members),
                ))
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

    // --- answers -----------------------------------------------------

    /// Applies one fired prompt's answer: what lands, and what fires
    /// next.
    pub(super) fn process(
        &mut self,
        s: usize,
        target: FireTarget,
        text: &str,
        fires: &mut Vec<Fire>,
    ) {
        match target {
            FireTarget::List => self.process_list(s, text, fires),
            FireTarget::ListPage { offset } => {
                // A page was fired by `fire_spec_wave`, so `spec` is set.
                let Some(spec) = self.steps[s].spec.as_mut() else {
                    unreachable!("page completion outside spec mode");
                };
                spec.inflight -= 1;
                spec.buffered.insert(offset, text.to_string());
                // Wave barrier: pages apply (in offset order) only once
                // the whole wave has landed.
                if spec.inflight == 0 {
                    let page_est = spec.page_est;
                    let pages = std::mem::take(&mut spec.buffered);
                    self.spec_apply(s, page_est, pages, fires);
                }
            }
            FireTarget::Grid { stage, members } => {
                self.steps[s].stages[stage].inflight -= 1;
                self.process_grid_chunk(s, stage, &members, text, fires);
                self.maybe_drain(s, stage, fires);
            }
            FireTarget::Batch {
                stage,
                ord,
                members,
            } => {
                self.steps[s].stages[stage].inflight -= 1;
                let subs = split_batched_answer(text, &self.steps[s].chunk_keys(&members));
                for (&member, sub) in members.iter().zip(subs) {
                    match sub {
                        Some(answer) => self.answer_cell(s, stage, ord, member, &answer, fires),
                        // The model dropped or mangled this key's line:
                        // re-ask with the single-key prompt, chained after
                        // this batch (batching may cost prompts, never
                        // accuracy).
                        None => {
                            let single = FireTarget::Single { stage, ord, member };
                            self.fire(s, stage, single, fires);
                        }
                    }
                }
                self.maybe_drain(s, stage, fires);
            }
            FireTarget::Single { stage, ord, member } => {
                self.steps[s].stages[stage].inflight -= 1;
                self.answer_cell(s, stage, ord, member, text, fires);
                self.maybe_drain(s, stage, fires);
            }
        }
    }

    /// Stores one landed answer as the sub-entry of `slot`'s key in the
    /// stage's `ord`-th column.
    fn store_cell(&self, s: usize, stage: usize, ord: usize, slot: usize, answer: &str) {
        let run = &self.steps[s];
        self.session.client.store_in(
            &run.stages[stage].sub_columns[ord],
            &run.keys()[slot],
            answer,
        );
    }

    /// One key's answer for a stage's `ord`-th own cell has arrived from
    /// the model: it becomes the key's sub-entry (multi-key protocol
    /// only), is parsed, and lands.
    fn answer_cell(
        &mut self,
        s: usize,
        g: usize,
        ord: usize,
        slot: usize,
        answer: &str,
        fires: &mut Vec<Fire>,
    ) {
        if self.batched {
            self.store_cell(s, g, ord, slot, answer);
        }
        let run = &mut self.steps[s];
        run.stages[g].mark_answered(slot, ord);
        let fetch_col = run.stages[g].fetch_col(run.step, ord);
        let landed =
            self.session
                .parse_answer(run.step, fetch_col, answer, &mut run.acc.failed_cells);
        self.land(s, g, ord, slot, landed, fires);
    }

    /// Applies what one key's answer decided for a stage's `ord`-th cell:
    /// a filter verdict routes the key onward or kills it; a fetched value
    /// lands in the key's row.
    fn land(
        &mut self,
        s: usize,
        g: usize,
        ord: usize,
        slot: usize,
        landed: Landed,
        fires: &mut Vec<Fire>,
    ) {
        let run = &mut self.steps[s];
        match (landed, run.stages[g].fetch_col(run.step, ord)) {
            (Landed::Verdict(true), _) => self.route_survivor(s, g, slot, fires),
            (Landed::Verdict(false), _) => run.slots[slot].alive = false,
            (Landed::Value(value), Some(col)) => run.slots[slot].row[col] = value,
            (Landed::Value(_), None) => unreachable!("a filter stage lands verdicts"),
        }
    }

    /// Applies one grid chunk's answer: every unanswered `(slot, attr)`
    /// cell consumes its parsed line, and each attr's failed cells re-ask
    /// together down the ladder's middle rung.
    fn process_grid_chunk(
        &mut self,
        s: usize,
        stage: usize,
        members: &[usize],
        text: &str,
        fires: &mut Vec<Fire>,
    ) {
        let run = &self.steps[s];
        let len = run.stages[stage].own_cells();
        let attr_names = grid_attributes(run.step, run.stages[stage].cell);
        let mut cells = split_grid_answer(text, &run.chunk_keys(members), &attr_names);
        let mut failed: Vec<Vec<usize>> = vec![Vec::new(); len];
        for (ki, &slot) in members.iter().enumerate() {
            for (ord, failed_ord) in failed.iter_mut().enumerate() {
                if self.steps[s].stages[stage].answered.contains(slot, ord) {
                    continue;
                }
                match cells[ki][ord].take() {
                    Some(answer) => self.answer_cell(s, stage, ord, slot, &answer, fires),
                    None => failed_ord.push(slot),
                }
            }
            // Speculative pad cells (attr ordinals past the group's own
            // `len`) only seed the sub-entry store for later queries —
            // no row consumption, no fallback for a dropped pad line
            // (first stored write wins, so a pad can't flap an
            // already-extracted cell).
            for (ord, cell) in cells[ki].iter_mut().enumerate().skip(len) {
                if let Some(answer) = cell.take() {
                    self.store_cell(s, stage, ord, slot, &answer);
                }
            }
        }
        for (ord, members) in failed.into_iter().enumerate() {
            if !members.is_empty() {
                let batch = FireTarget::Batch {
                    stage,
                    ord,
                    members,
                };
                self.fire(s, stage, batch, fires);
            }
        }
    }

    /// Applies one list iteration's answer: new keys enter the dataflow,
    /// and either the next iteration fires or the key stream is finished
    /// (exhausted page, no new keys, or the iteration cap) — the paper
    /// iterates "until we stop getting new results".
    fn process_list(&mut self, s: usize, text: &str, fires: &mut Vec<Fire>) {
        if is_fault_text(text) {
            // A degraded list page ends the key stream *resumably*:
            // `list_exhausted` stays false, so the published universe is a
            // partial frontier a later query resumes — never a poisoned
            // "complete" listing.
            self.steps[s].acc.failed_cells += 1;
            self.finish_list(s, fires);
            return;
        }
        match parse_list_answer(text) {
            ListAnswer::Exhausted => {
                self.steps[s].list_exhausted = true;
                self.finish_list(s, fires);
            }
            ListAnswer::Values(values) => {
                let raw = values.len();
                let added = self.enter_page(s, &values, fires);
                if added == 0 {
                    self.steps[s].list_exhausted = true;
                    self.finish_list(s, fires);
                    return;
                }
                let budget_left =
                    self.steps[s].iterations < self.session.options.max_list_iterations;
                // LIMIT early stop: the window is covered by confirmed
                // survivors, so no further page can change the result.
                if self.limit_covered() || !budget_left {
                    self.finish_list(s, fires);
                } else if let Some(spec) = self.steps[s].spec.as_mut() {
                    // Speculative mode: page 1 just landed — its raw value
                    // count is the page-size estimate, and offset probes
                    // replace the exclusion-list chain.
                    spec.page_est = raw;
                    spec.next_offset = raw;
                    self.fire_spec_wave(s, fires);
                } else {
                    self.fire_list(s, fires);
                }
            }
        }
    }

    /// Folds one page of raw key surfaces into the step's stream (clean,
    /// case-folded dedup, key slot, dataflow entry), returning how many
    /// new keys entered.
    fn enter_page(&mut self, s: usize, values: &[String], fires: &mut Vec<Fire>) -> usize {
        let run = &mut self.steps[s];
        let first_new = run.slots.len();
        let fresh = Arc::make_mut(&mut run.exclude);
        for v in values {
            let cleaned = normalise_text(v);
            if cleaned.is_empty() {
                continue;
            }
            if run.seen.insert(cleaned.to_ascii_lowercase()) {
                run.slots.push(KeySlot::listed());
                fresh.push(cleaned);
            }
        }
        let end = run.slots.len();
        for slot in first_new..end {
            self.enter_dataflow(s, slot, fires);
        }
        end - first_new
    }

    /// Applies a fully-landed speculative wave in offset order: each page
    /// feeds the dataflow; the first exhausted page, short page or page
    /// with nothing new ends the universe (pages fired past it are waste
    /// — already billed as iterations). Otherwise the next wave fires, or
    /// the iteration cap leaves a partial frontier.
    fn spec_apply(
        &mut self,
        s: usize,
        page_est: usize,
        pages: BTreeMap<usize, String>,
        fires: &mut Vec<Fire>,
    ) {
        let mut terminal = false;
        let mut faulted = false;
        for text in pages.into_values() {
            if is_fault_text(&text) {
                // A degraded page ends the ramp resumably (pages fired
                // past it are waste, like any speculative overshoot).
                self.steps[s].acc.failed_cells += 1;
                faulted = true;
                break;
            }
            match parse_list_answer(&text) {
                ListAnswer::Exhausted => terminal = true,
                ListAnswer::Values(values) => {
                    let added = self.enter_page(s, &values, fires);
                    terminal = added == 0 || values.len() < page_est;
                }
            }
            if terminal {
                break;
            }
        }
        if terminal {
            self.steps[s].list_exhausted = true;
            self.finish_list(s, fires);
        } else if faulted
            || self.steps[s].iterations >= self.session.options.max_list_iterations
            || self.limit_covered()
        {
            self.finish_list(s, fires);
        } else {
            self.fire_spec_wave(s, fires);
        }
    }

    // --- routing -----------------------------------------------------

    /// Routes a freshly-listed key into the first stage of the step's
    /// dataflow (first filter condition; fetch stages when there is none).
    fn enter_dataflow(&mut self, s: usize, slot: usize, fires: &mut Vec<Fire>) {
        if self.window.as_ref().is_some_and(|w| w.covers(slot)) {
            // The window is already covered by earlier confirmed
            // survivors, so this key can never surface — prune it
            // before any filter or fetch prompt is issued.
            self.steps[s].slots[slot].alive = false;
        } else if self.steps[s].n_filters > 0 {
            self.deliver(s, 0, slot, fires);
        } else {
            self.fetch_survivor(s, slot, fires);
        }
    }

    /// Routes a key that survived filter stage `g` downstream: into the
    /// next condition, or — past the last condition — to the fetch
    /// stages.
    fn route_survivor(&mut self, s: usize, g: usize, slot: usize, fires: &mut Vec<Fire>) {
        if g + 1 < self.steps[s].n_filters {
            self.deliver(s, g + 1, slot, fires);
        } else {
            self.fetch_survivor(s, slot, fires);
        }
    }

    /// A key has survived every filter verdict: it gets its materialising
    /// row and fans out into every fetch stage.
    fn fetch_survivor(&mut self, s: usize, slot: usize, fires: &mut Vec<Fire>) {
        let run = &mut self.steps[s];
        run.slots[slot].row = key_row(
            &run.keys()[slot],
            run.step.columns(),
            run.step.key_index,
            &self.session.options.cleaning,
        );
        if let Some(window) = &mut self.window {
            window.confirm(slot);
            if window.covers(slot) {
                // Beyond the window: every verdict landed (the key
                // stays alive) but its row can never surface, so its
                // fetch prompts are never issued.
                return;
            }
        }
        for g in self.steps[s].n_filters..self.steps[s].stages.len() {
            self.deliver(s, g, slot, fires);
        }
    }

    /// A key arrives at a stage: sub-entry extraction first (batched
    /// mode), otherwise into the accumulator.
    fn deliver(&mut self, s: usize, g: usize, slot: usize, fires: &mut Vec<Fire>) {
        if self.batched && !self.extract_cells(s, g, slot, fires) {
            return;
        }
        let stage = &mut self.steps[s].stages[g];
        stage.pending.push(slot);
        if !self.barrier && stage.pending.len() >= self.fuse {
            self.flush(s, g, fires);
        }
    }

    /// Sub-entry extraction for one key at a stage: every unanswered own
    /// cell is looked up in its sub-entry column — a stored answer is
    /// parsed where it lies, under the column's lock, and lands — and the
    /// key joins the stage's accumulator when *any* cell is still missing
    /// (already-answered cells are skipped at parse time — grid prompts
    /// always ask the whole group, so their strings stay
    /// chunk-membership-deterministic). Returns whether one is, which also
    /// ends the step's right to publish its table.
    fn extract_cells(&mut self, s: usize, g: usize, slot: usize, fires: &mut Vec<Fire>) -> bool {
        let session = self.session;
        let mut missing = false;
        for ord in 0..self.steps[s].stages[g].own_cells() {
            let run = &self.steps[s];
            let stage = &run.stages[g];
            if stage.answered.contains(slot, ord) {
                continue;
            }
            let fetch_col = stage.fetch_col(run.step, ord);
            let mut failed_cells = 0;
            let extracted =
                session
                    .client
                    .extract_in(&stage.sub_columns[ord], &run.keys()[slot], |answer| {
                        session.parse_answer(run.step, fetch_col, answer, &mut failed_cells)
                    });
            let run = &mut self.steps[s];
            run.acc.failed_cells += failed_cells;
            match extracted {
                SubLookup::Hit(landed) => {
                    run.acc.cache_hits += 1;
                    run.stages[g].mark_answered(slot, ord);
                    self.land(s, g, ord, slot, landed, fires);
                }
                // In flight elsewhere: already billed as a hit by the
                // client; re-ask rather than block so prompt counts stay
                // a local decision, and no driver ever parks a key
                // waiting on another thread (determinism note on
                // [`galois_llm::LlmClient::extract_in`]).
                SubLookup::InFlight => {
                    run.acc.cache_hits += 1;
                    missing = true;
                }
                SubLookup::Miss => missing = true,
            }
        }
        if missing {
            // Not wholly the store's: the run's table is not a relation.
            self.steps[s].publish = None;
        }
        missing
    }

    // --- drain propagation -------------------------------------------

    /// The step's key stream is finished: no further list page can deliver
    /// keys, so the universe publishes to the key-universe store (when one
    /// is attached and the universe wasn't served warm), the first stages'
    /// accumulators flush and drain propagation begins.
    fn finish_list(&mut self, s: usize, fires: &mut Vec<Fire>) {
        if let Some(concept) = self.steps[s].concept.take() {
            if let Some(store) = &self.session.list_store {
                let run = &self.steps[s];
                store.publish(
                    &concept,
                    &self.session.model_sig,
                    KeyUniverse {
                        keys: run.exclude.as_slice().into(),
                        iterations: run.iterations,
                        exhausted: run.list_exhausted,
                    },
                );
            }
        }
        if self.steps[s].n_filters > 0 {
            self.stage_upstream_drained(s, 0, fires);
        } else {
            for g in 0..self.steps[s].stages.len() {
                self.stage_upstream_drained(s, g, fires);
            }
        }
    }

    /// The stage's producer can deliver no further keys: flush what it
    /// holds and drain if nothing is left in flight.
    fn stage_upstream_drained(&mut self, s: usize, g: usize, fires: &mut Vec<Fire>) {
        self.steps[s].stages[g].upstream_drained = true;
        self.flush(s, g, fires);
        self.maybe_drain(s, g, fires);
    }

    /// Marks a stage drained once its upstream is finished and its own
    /// work has all landed, then propagates downstream.
    fn maybe_drain(&mut self, s: usize, g: usize, fires: &mut Vec<Fire>) {
        let stage = &mut self.steps[s].stages[g];
        if stage.drained
            || !stage.upstream_drained
            || stage.inflight > 0
            || !stage.pending.is_empty()
        {
            return;
        }
        stage.drained = true;
        let n_filters = self.steps[s].n_filters;
        if g + 1 < n_filters {
            self.stage_upstream_drained(s, g + 1, fires);
        } else if g < n_filters {
            for fg in n_filters..self.steps[s].stages.len() {
                self.stage_upstream_drained(s, fg, fires);
            }
        }
        // Fetch stages are the dataflow's sinks: nothing downstream.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn answered_cells_index_slot_and_ordinal_without_aliasing() {
        for len in [1usize, 6] {
            let mut cells = AnsweredCells::new(len);
            assert!(!cells.contains(0, 0));
            assert!(
                !cells.contains(10_000, len - 1),
                "unseen slots read unanswered"
            );
            // Slots arrive out of order and far apart: the bitmap grows
            // across word boundaries without disturbing earlier cells.
            let slots = [11usize, 0, 64, 1, 63, 500, 10];
            let marked =
                |slot: usize, ord: usize| slots.contains(&slot) && (slot + ord).is_multiple_of(2);
            for slot in slots {
                for ord in (0..len).filter(|&ord| marked(slot, ord)) {
                    cells.insert(slot, ord);
                    cells.insert(slot, ord); // re-delivery is idempotent
                }
            }
            for slot in 0..=600 {
                for ord in 0..len {
                    assert_eq!(
                        cells.contains(slot, ord),
                        marked(slot, ord),
                        "len {len}: cell ({slot}, {ord})"
                    );
                }
            }
        }
    }

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
