//! The barrier driver of the retrieval protocol (`Pipeline::Off`): the
//! paper-faithful, barrier-separated waves.
//!
//! Steps run one after another, and each step runs in **rounds**: the
//! prompts one round's answers fired are the next round's work, and a
//! stage fires only once its upstream has drained (the protocol's barrier
//! policy), so a round is one wave of one phase — a list iteration, a
//! ramp of offset pages, every chunk of one filter condition, every
//! `(column, chunk)` cell of the fetch phase, or one rung of fallback
//! re-asks.
//!
//! The clock nests three lane packings. A round's prompts are grouped
//! into client requests ([`group_requests`]): a list iteration or offset
//! page is a request of its own; consecutive prompts of one retrieval
//! cell fuse into requests of up to [`REQUEST_PROMPTS`], never spanning
//! cells.
//! Inside a request the client packs the miss latencies onto its `K`
//! lanes and charges one overhead; a round costs its requests'
//! `lane_schedule` over `K`; a step costs the sum of its rounds (rounds
//! chain); and the query costs the steps' `lane_schedule` over `K` —
//! their sum at `Parallelism(1)`, which is the paper's sequential
//! accounting. Completions are processed in fire order, so the virtual
//! clock is a function of the work, never of thread timing.

use super::protocol::{Fire, Protocol, StepTable};
use super::stats::{fold_step_stats, QueryStats};
use super::Galois;
use galois_llm::lane_schedule;
use std::ops::Range;

/// Prompts per client request under the barrier driver: a wave's prompts
/// of one retrieval cell ride in requests of at most this many, each
/// charged one request overhead. A constant, not an option: no caller
/// ever ran another value, and the wave estimates of
/// [`crate::plan_choice`] price requests by the same number.
pub(crate) const REQUEST_PROMPTS: usize = 20;

/// Groups one round's fired prompts, given each one's retrieval cell in
/// fire order (`None`: a list prompt), into client requests — ranges of
/// consecutive prompts: a list prompt is a request of its own, and a run
/// of prompts of one cell is cut into requests of at most `batch`.
fn group_requests<C: PartialEq>(
    cells: impl IntoIterator<Item = Option<C>>,
    batch: usize,
) -> Vec<Range<usize>> {
    let mut requests: Vec<Range<usize>> = Vec::new();
    let mut open: Option<C> = None;
    for (i, cell) in cells.into_iter().enumerate() {
        match requests.last_mut() {
            Some(last) if cell.is_some() && cell == open && last.len() < batch => last.end = i + 1,
            _ => requests.push(i..i + 1),
        }
        open = cell;
    }
    requests
}

/// Runs a query's retrieval protocol under the barrier driver. Returns the
/// accounting (the clock is the lane-packed makespan of the step clocks)
/// and the table each step hands on.
pub(super) fn retrieve(session: &Galois, mut protocol: Protocol) -> (QueryStats, Vec<StepTable>) {
    let lanes = session.options.parallelism.get();
    for s in 0..protocol.n_steps() {
        let mut fires = Vec::new();
        protocol.start_step(s, &mut fires);
        while !fires.is_empty() {
            fires = run_round(session, &mut protocol, fires);
        }
    }
    let mut stats = QueryStats::default();
    let mut step_virtuals = Vec::with_capacity(protocol.n_steps());
    let step_tables = protocol
        .finish()
        .map(|(acc, table)| {
            fold_step_stats(&mut stats, &acc);
            step_virtuals.push(acc.virtual_ms);
            table
        })
        .collect();
    stats.virtual_ms = lane_schedule(step_virtuals, lanes);
    (stats, step_tables)
}

/// Runs one non-empty round of one step: groups the fired prompts into
/// requests, completes them (across the session's crew when there are
/// several), charges the round to the step clock and its phase — a round
/// is single-phase: a stage cannot fire before its upstream drained —
/// and processes the completions in fire order. Returns what they fired.
fn run_round(session: &Galois, protocol: &mut Protocol, fires: Vec<Fire>) -> Vec<Fire> {
    let requests = group_requests(fires.iter().map(|fire| fire.target.cell()), REQUEST_PROMPTS);
    let outcomes = {
        let protocol = &*protocol;
        // Each request renders its own prompts, so an inline round holds
        // one request's prompts at a time, not the phase's.
        session.complete_requests(requests.len(), |r| {
            fires[requests[r].clone()]
                .iter()
                .map(|fire| protocol.render(fire))
                .collect()
        })
    };
    let round_ms = lane_schedule(
        outcomes.iter().map(|o| o.virtual_ms),
        session.options.parallelism.get(),
    );
    let phase = protocol.phase(&fires[0]);
    protocol.acc(fires[0].step).charge_wave(phase, round_ms);
    for (request, outcome) in requests.iter().zip(&outcomes) {
        protocol.bill(&fires[request.start], request.len(), outcome);
    }
    let mut next = Vec::new();
    // Answers are borrowed, and the round's completions freed together
    // once all have landed: freeing each between the rows and values its
    // processing allocates costs `paper_cold` 7 % in allocator locality.
    let completions = outcomes.iter().flat_map(|o| &o.completions);
    for (fire, completion) in fires.into_iter().zip(completions) {
        protocol.process(fire.step, fire.target, &completion.text, &mut next);
    }
    next
}

#[cfg(test)]
mod tests {
    use super::group_requests;

    #[test]
    fn requests_fuse_one_cells_run_up_to_the_batch_and_never_span_cells() {
        let list = None::<(usize, Option<usize>)>;
        let cell = |stage, ord| Some((stage, ord));
        // No prompt, no request (and so no round).
        assert!(group_requests(Vec::<Option<u8>>::new(), 20).is_empty());
        // List prompts — iterations and offset pages — go one each.
        assert_eq!(group_requests([list, list, list], 20), [0..1, 1..2, 2..3]);
        // One cell's run splits at the batch size.
        assert_eq!(group_requests([cell(0, Some(0)); 7], 3), [0..3, 3..6, 6..7]);
        assert_eq!(group_requests([cell(0, Some(0)); 3], 1), [0..1, 1..2, 2..3]);
        // A cell change always splits, however short the run: another
        // stage, another attr of a grid stage, a grid group vs its attr,
        // the same cell again after an interruption.
        assert_eq!(
            group_requests(
                [
                    cell(1, Some(0)),
                    cell(1, Some(0)),
                    cell(2, Some(0)),
                    cell(2, Some(1)),
                    cell(2, None),
                    cell(2, None),
                    list,
                    cell(1, Some(0)),
                ],
                20
            ),
            [0..2, 2..3, 3..4, 4..6, 6..7, 7..8]
        );
    }
}
