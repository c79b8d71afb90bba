//! The stages behind a step's key stream: a key's route through them,
//! sub-entry extraction before any ask, micro-batch flush and drain, and
//! where each answer lands — down the fallback ladder (grid → per-attribute
//! key batch → single key) when a line is missing.

use super::{Fire, FireTarget, Protocol, StepRun};
use crate::clean::{cell_value, key_row};
use crate::compile::LlmScanStep;
use crate::parse::parse_boolean_answer;
use crate::physical::Stage;
use crate::prompts::KeyTemplate;
use crate::session::stats::Phase;
use crate::session::Galois;
use galois_llm::faults::is_fault_text;
use galois_llm::intent::{split_batched_answer, split_grid_answer, Condition};
use galois_llm::{SubColumn, SubLookup};
use galois_relational::Value;
use std::cell::OnceCell;
use std::ops::Range;

/// One retrieval cell of the batched protocol: a filter condition, or a
/// fetched attribute.
pub(super) enum BatchCell<'a> {
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
}

/// One micro-batch accumulator of the dataflow: a filter condition or a
/// fetch group of one step.
#[derive(Debug)]
pub(super) struct StageState<'a> {
    /// The stage of the step's plan this accumulates for.
    cell: &'a Stage,
    /// Sub-entry columns of the stage's cells (empty when the multi-key
    /// protocol is off — plain single-key prompts bypass the sub-entry
    /// store): one per attr ordinal, then one per pad column.
    sub_columns: Vec<SubColumn>,
    /// The names of the columns a grid prompt of the stage asks, in that
    /// order — the fetch group's own, then its pads — borrowed from the
    /// step (empty but at a grid stage).
    pub(super) grid_names: Vec<&'a str>,
    /// Single-key prompt templates of the stage's own cells (one per attr
    /// ordinal), each rendered on first use: the whole
    /// dataflow when batching is off, the ladder's bottom rung otherwise.
    pub(super) templates: Vec<OnceCell<KeyTemplate>>,
    /// Key slots accumulated towards the next micro-batch.
    pending: Vec<usize>,
    /// Micro-batches and fallback re-asks in flight.
    pub(super) inflight: usize,
    /// `(slot, attr ordinal)` cells already consumed at a grid stage —
    /// grid chunks carry keys with *some* cells still cached or
    /// re-delivered, and an answered cell must neither re-consume nor
    /// re-enter the fallback ladder. Unused at key-batch stages.
    answered: AnsweredCells,
    /// True once the producing stage (list page stream, or the previous
    /// filter) can no longer deliver keys.
    upstream_drained: bool,
    /// True once this stage has seen its last key and answered it.
    drained: bool,
}

impl<'a> StageState<'a> {
    /// The accumulator of one stage of `step`; under the multi-key
    /// protocol (`batched`) it resolves the stage's sub-entry columns —
    /// own cells first, then a fetch group's speculative pad columns, the
    /// attr order a grid prompt renders — and a grid stage's column names.
    pub(super) fn new(
        session: &Galois,
        step: &'a LlmScanStep,
        cell: &'a Stage,
        batched: bool,
    ) -> Self {
        let (own_cells, pads) = match cell {
            Stage::Fetch { len, pads, .. } => (*len, pads.as_slice()),
            Stage::Filter(_) => (1, [].as_slice()),
        };
        let mut stage = StageState {
            cell,
            sub_columns: Vec::new(),
            grid_names: Vec::new(),
            templates: (0..own_cells).map(|_| OnceCell::new()).collect(),
            pending: Vec::new(),
            inflight: 0,
            answered: AnsweredCells::new(own_cells),
            upstream_drained: false,
            drained: false,
        };
        if batched {
            let pad_cells = pads
                .iter()
                .map(|&c| BatchCell::Fetch(&step.columns()[c].name));
            stage.sub_columns = (0..own_cells)
                .map(|ord| stage.batch_cell(step, ord))
                .chain(pad_cells)
                .map(|cell| session.cell_column(step, &cell))
                .collect();
            if let Stage::Fetch { start, len, .. } = cell {
                if cell.is_grid() {
                    let columns = step.fetch[*start..start + len].iter().chain(pads);
                    stage.grid_names = columns.map(|&c| step.columns()[c].name.as_ref()).collect();
                }
            }
        }
        stage
    }

    /// How many cells the stage asks of a key itself (a fetch group's
    /// width; pads are not its own).
    fn own_cells(&self) -> usize {
        self.templates.len()
    }

    /// Records that a key's `ord`-th cell has been consumed (grid stages
    /// only — see `answered`).
    fn mark_answered(&mut self, slot: usize, ord: usize) {
        if self.cell.is_grid() {
            self.answered.insert(slot, ord);
        }
    }

    /// The column (an index into `step.columns()`) the stage's `ord`-th
    /// own cell fetches; `None` at a filter stage, whose answers are
    /// verdicts.
    fn fetch_col(&self, step: &LlmScanStep, ord: usize) -> Option<usize> {
        match self.cell {
            Stage::Filter(_) => None,
            Stage::Fetch { start, .. } => Some(step.fetch[start + ord]),
        }
    }

    /// The borrowed form of the stage's `ord`-th own cell.
    pub(super) fn batch_cell<'s>(&self, step: &'s LlmScanStep, ord: usize) -> BatchCell<'s> {
        match self.cell {
            Stage::Filter(i) => BatchCell::Filter(&step.filter_conditions[*i]),
            Stage::Fetch { start, .. } => {
                BatchCell::Fetch(&step.columns()[step.fetch[start + ord]].name)
            }
        }
    }

    pub(super) fn phase(&self) -> Phase {
        match self.cell {
            Stage::Filter(_) => Phase::Filter,
            Stage::Fetch { .. } => Phase::Fetch,
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

/// What one key's answer decides for a cell; the stage it lands at says
/// which column a value is for.
#[derive(Debug)]
enum Landed {
    /// A filter verdict: whether the key survives the condition.
    Verdict(bool),
    /// A fetched cell, typed.
    Value(Value),
}

impl StepRun<'_> {
    /// Where a key or a drain goes after the list (`g` = `None`) or after
    /// stage `g`: the next filter stage; past the last filter, every fetch
    /// stage — the one range that starts at `n_filters`; past a fetch
    /// stage, nowhere (fetch stages are the dataflow's sinks).
    fn downstream(&self, g: Option<usize>) -> Range<usize> {
        let next = g.map_or(0, |g| g + 1);
        if next < self.n_filters {
            next..next + 1
        } else if next == self.n_filters {
            self.n_filters..self.stages.len()
        } else {
            self.stages.len()..self.stages.len()
        }
    }
}

impl Protocol<'_> {
    /// Routes a key that entered the run (`g` = `None`) or survived filter
    /// stage `g` into its [`StepRun::downstream`] stages. A key crossing
    /// into the fetch stages has survived every filter verdict: it gets
    /// its materialising row first, and fans out only if a `LIMIT` window
    /// can still show it.
    pub(super) fn route(&mut self, s: usize, g: Option<usize>, slot: usize, fires: &mut Vec<Fire>) {
        let run = &mut self.steps[s];
        let next = run.downstream(g);
        if next.start == run.n_filters {
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
                    // is not dropped) but its row can never surface, so
                    // its fetch prompts are never issued.
                    return;
                }
            }
        }
        for g in next {
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
            let extracted = session.client.extract_in(
                &stage.sub_columns[ord],
                &run.keys()[slot],
                run.sub_keys[slot],
                |answer| session.parse_answer(run.step, fetch_col, answer, &mut failed_cells),
            );
            let run = &mut self.steps[s];
            run.acc.failed_cells += failed_cells;
            match extracted {
                SubLookup::Hit(landed) => {
                    run.acc.cache_hits += 1;
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

    /// Fires one prompt of a stage.
    fn fire(&mut self, s: usize, stage: usize, target: FireTarget, fires: &mut Vec<Fire>) {
        self.steps[s].stages[stage].inflight += 1;
        fires.push(Fire { step: s, target });
    }

    /// Fires one micro-batch of a stage: a grid prompt (`Stage::is_grid`),
    /// a key batch, or — batching off, where micro-batches hold one key —
    /// the key's single prompt.
    fn fire_chunk(&mut self, s: usize, stage: usize, members: &[usize], fires: &mut Vec<Fire>) {
        let target = if !self.batched {
            debug_assert_eq!(members.len(), 1, "unbatched micro-batches hold one key");
            FireTarget::Single {
                stage,
                ord: 0,
                member: members[0],
            }
        } else if self.steps[s].stages[stage].cell.is_grid() {
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
    pub(in crate::session) fn flush_all(&mut self, fires: &mut Vec<Fire>) {
        for s in 0..self.steps.len() {
            for g in 0..self.steps[s].stages.len() {
                self.flush(s, g, fires);
            }
        }
    }

    /// The list (`g` = `None`) or stage `g` can deliver no further keys:
    /// each [`StepRun::downstream`] stage flushes what it holds and drains
    /// if nothing is left in flight.
    pub(super) fn drain_after(&mut self, s: usize, g: Option<usize>, fires: &mut Vec<Fire>) {
        for next in self.steps[s].downstream(g) {
            self.steps[s].stages[next].upstream_drained = true;
            self.flush(s, next, fires);
            self.maybe_drain(s, next, fires);
        }
    }

    /// Marks a stage drained once its upstream is finished and its own
    /// work has all landed, then propagates downstream.
    pub(super) fn maybe_drain(&mut self, s: usize, g: usize, fires: &mut Vec<Fire>) {
        let stage = &mut self.steps[s].stages[g];
        if stage.drained
            || !stage.upstream_drained
            || stage.inflight > 0
            || !stage.pending.is_empty()
        {
            return;
        }
        stage.drained = true;
        self.drain_after(s, Some(g), fires);
    }

    /// Stores one landed answer as the sub-entry of `slot`'s key in the
    /// stage's `ord`-th column.
    fn store_cell(&self, s: usize, stage: usize, ord: usize, slot: usize, answer: &str) {
        let run = &self.steps[s];
        self.session.client.store_in(
            &run.stages[stage].sub_columns[ord],
            &run.keys()[slot],
            run.sub_keys[slot],
            answer,
        );
    }

    /// One key's answer for a stage's `ord`-th own cell has arrived from
    /// the model: it becomes the key's sub-entry (multi-key protocol
    /// only), is parsed, and lands.
    pub(super) fn answer_cell(
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
        let fetch_col = run.stages[g].fetch_col(run.step, ord);
        let landed =
            self.session
                .parse_answer(run.step, fetch_col, answer, &mut run.acc.failed_cells);
        self.land(s, g, ord, slot, landed, fires);
    }

    /// Applies what one key's answer decided for a stage's `ord`-th cell,
    /// now answered: a filter verdict routes the key onward or drops it; a
    /// fetched value lands in the key's row.
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
        run.stages[g].mark_answered(slot, ord);
        match (landed, run.stages[g].fetch_col(run.step, ord)) {
            (Landed::Verdict(true), _) => self.route(s, Some(g), slot, fires),
            (Landed::Verdict(false), _) => run.slots[slot].dropped = true,
            (Landed::Value(value), Some(col)) => run.slots[slot].row[col] = value,
            (Landed::Value(_), None) => unreachable!("a filter stage lands verdicts"),
        }
    }

    /// Applies one key batch's answer for the stage's `ord`-th cell: each
    /// member's line lands, and a member whose line the model dropped or
    /// mangled is re-asked with its single-key prompt, chained after this
    /// batch (batching may cost prompts, never accuracy).
    pub(super) fn process_batch(
        &mut self,
        s: usize,
        stage: usize,
        ord: usize,
        members: &[usize],
        text: &str,
        fires: &mut Vec<Fire>,
    ) {
        let subs = split_batched_answer(text, &self.steps[s].chunk_keys(members));
        for (&member, sub) in members.iter().zip(subs) {
            match sub {
                Some(answer) => self.answer_cell(s, stage, ord, member, answer, fires),
                None => {
                    let single = FireTarget::Single { stage, ord, member };
                    self.fire(s, stage, single, fires);
                }
            }
        }
    }

    /// Applies one grid chunk's answer: every unanswered `(slot, attr)`
    /// cell consumes its parsed line, and each attr's failed cells re-ask
    /// together down the ladder's middle rung.
    pub(super) fn process_grid_chunk(
        &mut self,
        s: usize,
        stage: usize,
        members: &[usize],
        text: &str,
        fires: &mut Vec<Fire>,
    ) {
        let run = &self.steps[s];
        let len = run.stages[stage].own_cells();
        let names = &run.stages[stage].grid_names;
        let cells = split_grid_answer(text, &run.chunk_keys(members), names);
        let mut failed: Vec<Vec<usize>> = vec![Vec::new(); len];
        for (&slot, row) in members.iter().zip(cells.chunks(names.len())) {
            for (ord, failed_ord) in failed.iter_mut().enumerate() {
                if self.steps[s].stages[stage].answered.contains(slot, ord) {
                    continue;
                }
                match row[ord] {
                    Some(answer) => self.answer_cell(s, stage, ord, slot, answer, fires),
                    None => failed_ord.push(slot),
                }
            }
            // Speculative pad cells (attr ordinals past the group's own
            // `len`) only seed the sub-entry store for later queries —
            // no row consumption, no fallback for a dropped pad line
            // (first stored write wins, so a pad can't flap an
            // already-extracted cell).
            for (ord, cell) in row.iter().enumerate().skip(len) {
                if let Some(answer) = cell {
                    self.store_cell(s, stage, ord, slot, answer);
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
