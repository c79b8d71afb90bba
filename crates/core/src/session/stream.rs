//! The event driver of the retrieval protocol (`Pipeline::Streaming`).
//!
//! All steps of a query share one event-driven simulation: a min-heap of
//! completion events and an [`EventClock`] assigning fired prompts to the
//! session's `K` virtual lanes. Every fired prompt is one client request,
//! released at the virtual instant the answer that fired it landed — there
//! are no phase barriers, and a partial micro-batch held while a lane sits
//! idle is flushed (see [`super::Pipeline`] for the mode's invariants).
//!
//! Prompts are *executed* against the real client at fire time, in fire
//! order on the thread running the statement, because a task's virtual
//! duration — cache hit or model latency — is only known once it has run;
//! its parsed effects are then applied at its simulated completion time,
//! which is what releases downstream work.

use super::protocol::{Fire, FireTarget, Protocol, StepTable};
use super::stats::QueryStats;
use super::Galois;
use galois_llm::EventClock;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scheduled task of a streaming run, as captured for cross-query
/// replay: when the private clock released it, how long it ran, and when
/// it completed. The completion times encode the query's internal
/// dataflow — a task whose release equals an earlier task's completion
/// was (conservatively) triggered by it, which is the dependency rule the
/// replay preserves (see [`crate::multi`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TracedTask {
    pub(crate) release: u64,
    pub(crate) duration: u64,
    pub(crate) completion: u64,
}

/// A task-completion event of the simulation, ordered by `(time, seq)` —
/// its leading fields; `seq` is unique — so simultaneous completions
/// resolve in creation order: the simulation is a pure function of the
/// work, never of thread timing.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct StreamEvent {
    time: u64,
    seq: u64,
    step: usize,
    target: FireTarget,
    text: String,
}

/// The event-driven simulation driving one streaming query.
struct StreamSim<'a> {
    session: &'a Galois,
    protocol: Protocol<'a>,
    clock: EventClock,
    events: BinaryHeap<Reverse<StreamEvent>>,
    /// Every scheduled task's `(release, duration, completion)` in fire
    /// order — the replayable schedule cross-query mode re-packs onto a
    /// shared lane pool. An event's `seq` is its task's index here.
    trace: Vec<TracedTask>,
}

/// Runs a query's retrieval protocol to quiescence under the event
/// driver: every step's key stream listed, filtered, fetched and drained.
/// Returns the accounting (the clock is the simulation's makespan), the
/// table each step hands on and the task trace.
pub(super) fn retrieve<'a>(
    session: &'a Galois,
    protocol: Protocol<'a>,
) -> (QueryStats, Vec<StepTable>, Vec<TracedTask>) {
    let mut sim = StreamSim {
        session,
        protocol,
        clock: EventClock::new(session.options.parallelism.get()),
        events: BinaryHeap::new(),
        trace: Vec::new(),
    };
    sim.run();
    let mut finished = sim.protocol.finish();
    finished.stats.virtual_ms = sim.clock.makespan();
    (finished.stats, finished.tables, sim.trace)
}

impl StreamSim<'_> {
    /// Each iteration resolves one virtual instant completely — every
    /// event carrying that timestamp is processed (in creation order)
    /// before anything fires, so simultaneous chunk completions pool
    /// their deliveries into the accumulators instead of fragmenting
    /// them. Only then does the idle-lane flush run.
    fn run(&mut self) {
        let mut fires = Vec::new();
        for s in 0..self.protocol.n_steps() {
            self.protocol.start_step(s, &mut fires);
        }
        self.execute_fires(0, fires);
        while let Some(t) = self.events.peek().map(|Reverse(head)| head.time) {
            let mut fires = Vec::new();
            while self.events.peek().is_some_and(|Reverse(e)| e.time == t) {
                if let Some(Reverse(event)) = self.events.pop() {
                    self.protocol
                        .process(event.step, event.target, &event.text, &mut fires);
                }
            }
            self.execute_fires(t, fires);
            self.flush_idle(t);
        }
    }

    /// The "lane goes idle" micro-batch trigger: once an instant has fully
    /// resolved, any lane still free means held-back partial batches are
    /// serialising the tail for nothing — flush every accumulator (in
    /// step/stage order, deterministically). When a stage's whole input
    /// arrives at one instant (a single-page key stream feeding a
    /// pushed-down scan) this changes neither the prompt count nor the
    /// chunk membership; when input keeps arriving afterwards — later
    /// list pages, or survivors of a filter stage whose chunks complete
    /// at different instants — the flush may split a chunk that later
    /// input would have filled, trading extra partial-chunk prompts for
    /// latency. Never accuracy: every key still gets its answer.
    fn flush_idle(&mut self, t: u64) {
        if self.clock.idle_lanes(t) == 0 {
            return;
        }
        let mut fires = Vec::new();
        self.protocol.flush_all(&mut fires);
        self.execute_fires(t, fires);
    }

    /// Executes one instant's fired prompts against the client, one
    /// request each, then assigns each to a virtual lane with release
    /// time `t` — in fire order, so lane assignment is deterministic —
    /// and pushes its completion event.
    fn execute_fires(&mut self, t: u64, fires: Vec<Fire>) {
        let outcomes: Vec<_> = (fires.iter())
            .map(|fire| {
                let prompt = self.protocol.render(fire);
                self.session
                    .client
                    .complete_batch_outcome(std::slice::from_ref(&prompt))
            })
            .collect();
        for (fire, outcome) in fires.into_iter().zip(outcomes) {
            let phase = self.protocol.phase(&fire);
            self.protocol.bill(&fire, 1, &outcome);
            self.protocol
                .acc(fire.step)
                .charge_phase(phase, outcome.virtual_ms);
            let done = self.clock.schedule(t, outcome.virtual_ms);
            let seq = self.trace.len() as u64;
            self.trace.push(TracedTask {
                release: t,
                duration: outcome.virtual_ms,
                completion: done,
            });
            // The client answers every prompt of a request; a lost
            // answer would leave its stage in flight forever.
            let Some(completion) = outcome.completions.into_iter().next() else {
                unreachable!("one completion per prompt");
            };
            self.events.push(Reverse(StreamEvent {
                time: done,
                seq,
                step: fire.step,
                target: fire.target,
                text: completion.text,
            }));
        }
    }
}
