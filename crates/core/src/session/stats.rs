//! Prompt accounting: the public per-query [`QueryStats`] and the
//! per-step accumulator both drivers fold into it.

use galois_llm::BatchOutcome;

/// Prompt accounting for one query (paper §5 reports ≈110 batched prompts
/// and ≈20 s per query).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Key-listing prompts.
    pub list_prompts: usize,
    /// Filter prompts issued: one per key when [`super::PromptBatch::Off`]
    /// (cache-served prompts included, as they still ride in a batch
    /// request); fused multi-key prompts plus single-key fallbacks when
    /// batching — keys served from per-key sub-entries issue no prompt
    /// and count under `cache_hits` instead.
    pub filter_prompts: usize,
    /// Attribute-fetch prompts issued (same accounting as
    /// `filter_prompts`).
    pub fetch_prompts: usize,
    /// Prompts served from the client cache (raw prompt cache, in-flight
    /// dedup waiters, and — in batched mode — per-key sub-entries).
    pub cache_hits: usize,
    /// Total prompt tokens.
    pub prompt_tokens: usize,
    /// Total completion tokens.
    pub completion_tokens: usize,
    /// Virtual milliseconds spent in the model under the session's lane
    /// count (sequential phases sum; waves of independent units pack onto
    /// the lanes).
    pub virtual_ms: u64,
    /// Virtual milliseconds a single-lane run would have spent on the same
    /// batches (`serial_virtual_ms == virtual_ms` at `Parallelism(1)`).
    pub serial_virtual_ms: u64,
    /// Virtual milliseconds attributed to the key-listing phase. Phase
    /// fields measure lane-busy time per protocol phase: in wave mode each
    /// phase's lane-packed wave times, in streaming mode the scheduled
    /// durations of that phase's tasks. Within one step the wave-mode
    /// phases sum to the step's virtual time; across steps (and in
    /// streaming mode) phases overlap on the lanes, so the three fields
    /// may sum to more than `virtual_ms` — they locate where the model
    /// time lives, not how it packs.
    pub list_virtual_ms: u64,
    /// Virtual milliseconds attributed to the filter phase (see
    /// `list_virtual_ms` for the accounting rule).
    pub filter_virtual_ms: u64,
    /// Virtual milliseconds attributed to the attribute-fetch phase (see
    /// `list_virtual_ms` for the accounting rule).
    pub fetch_virtual_ms: u64,
    /// Real wall-clock milliseconds spent executing the query.
    pub wall_ms: u64,
    /// Rows materialised from the LLM across all scans.
    pub rows_retrieved: usize,
    /// Re-asks issued by the resilient retry loop (prompt counters stay
    /// net of retries).
    pub retries: usize,
    /// Attempts that exceeded their deadline (timeout faults plus
    /// slower-than-policy successes).
    pub timeouts: usize,
    /// Attempts the model refused with a rate-limit signal.
    pub rate_limited: usize,
    /// Requests failed fast by the open circuit breaker.
    pub breaker_fastfails: usize,
    /// Retrieval cells (list pages, filter verdicts, fetched values) that
    /// still held a degraded answer after all defences: the verdict was
    /// dropped, the value annotated as `Null`, or the listing left
    /// resumable instead of exhausted.
    pub failed_cells: usize,
    /// Virtual milliseconds the query waited between arriving and being
    /// admitted by the cross-query scheduler (always zero outside
    /// [`crate::multi::run_multi_query`], and under an unlimited
    /// [`super::AdmissionPolicy::max_inflight`]).
    pub queue_ms: u64,
}

impl QueryStats {
    /// All prompts that reached the model.
    pub fn total_prompts(&self) -> usize {
        self.list_prompts + self.filter_prompts + self.fetch_prompts
    }

    /// Virtual seconds spent.
    pub fn virtual_seconds(&self) -> f64 {
        self.virtual_ms as f64 / 1000.0
    }

    /// Virtual speedup over a single-lane run (1.0 when sequential).
    pub fn virtual_speedup(&self) -> f64 {
        if self.virtual_ms == 0 {
            1.0
        } else {
            self.serial_virtual_ms as f64 / self.virtual_ms as f64
        }
    }

    /// Fraction of the `lanes × virtual_ms` budget that did useful work.
    pub fn lane_utilisation(&self, lanes: usize) -> f64 {
        let budget = (lanes.max(1) as u64 * self.virtual_ms) as f64;
        if budget == 0.0 {
            0.0
        } else {
            self.serial_virtual_ms as f64 / budget
        }
    }
}

/// Retrieval-protocol phase a batch of virtual time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Phase {
    /// Key listing.
    List,
    /// Per-key filter checks.
    Filter,
    /// Per-key attribute fetches.
    Fetch,
}

/// Per-step accounting accumulated during retrieval, folded into
/// [`QueryStats`] once the step wave completes.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct StepStats {
    pub(super) list_prompts: usize,
    pub(super) filter_prompts: usize,
    pub(super) fetch_prompts: usize,
    pub(super) cache_hits: usize,
    pub(super) prompt_tokens: usize,
    pub(super) completion_tokens: usize,
    pub(super) virtual_ms: u64,
    /// Phase-attributed virtual time, indexed by [`Phase`] discriminant
    /// order (list, filter, fetch).
    pub(super) phase_ms: [u64; 3],
    pub(super) serial_ms: u64,
    pub(super) retries: usize,
    pub(super) timeouts: usize,
    pub(super) rate_limited: usize,
    pub(super) breaker_fastfails: usize,
    pub(super) failed_cells: usize,
}

impl StepStats {
    /// Folds one batch's resilience counters in (shared by both absorb
    /// variants — retry accounting is per model call, never per key).
    pub(super) fn absorb_resilience(&mut self, outcome: &BatchOutcome) {
        self.retries += outcome.retries;
        self.timeouts += outcome.timeouts;
        self.rate_limited += outcome.rate_limited;
        self.breaker_fastfails += outcome.breaker_fastfails;
    }

    /// Folds one batch's counters in (time is phase-structured and added
    /// by the caller, not here).
    pub(super) fn absorb(&mut self, outcome: &BatchOutcome) {
        self.cache_hits += outcome.hits;
        self.prompt_tokens += outcome.prompt_tokens;
        self.completion_tokens += outcome.completion_tokens;
        self.serial_ms += outcome.serial_ms;
        self.absorb_resilience(outcome);
    }

    /// Folds one batch's counters in, *except* cache hits — the form used
    /// for multi-key-protocol prompts (chunks and their single-key
    /// fallbacks), whose keys are billed per signature by the sub-entry
    /// store at extraction time. Counting a prompt-level raw-cache hit on
    /// such a prompt would bill the same keys twice — and, because
    /// raw-cache hits on chunk strings only arise when concurrent queries
    /// race into identical chunks, would make `cache_hits` depend on
    /// arrival order. With one query thread this equals [`absorb`]
    /// exactly: a pending key is by construction not yet stored, so a
    /// re-ask chunk can never reproduce an earlier chunk's prompt string
    /// and such hits are zero.
    ///
    /// [`absorb`]: StepStats::absorb
    pub(super) fn absorb_keyed(&mut self, outcome: &BatchOutcome) {
        self.prompt_tokens += outcome.prompt_tokens;
        self.completion_tokens += outcome.completion_tokens;
        self.serial_ms += outcome.serial_ms;
        self.absorb_resilience(outcome);
    }

    /// Charges wave time to the step clock and attributes it to a phase.
    pub(super) fn charge_wave(&mut self, phase: Phase, ms: u64) {
        self.virtual_ms += ms;
        self.charge_phase(phase, ms);
    }

    /// Attributes time to a phase without touching the step clock (the
    /// streaming driver's clock is the event simulation's makespan, not a
    /// sum).
    pub(super) fn charge_phase(&mut self, phase: Phase, ms: u64) {
        self.phase_ms[phase as usize] += ms;
    }
}

/// Folds one step's accounting into the query stats — everything except
/// the packed virtual clock, which each dataflow computes its own way
/// (wave: lane-packed step times; streaming: the event simulation's
/// makespan).
pub(super) fn fold_step_stats(stats: &mut QueryStats, step: &StepStats) {
    stats.list_prompts += step.list_prompts;
    stats.filter_prompts += step.filter_prompts;
    stats.fetch_prompts += step.fetch_prompts;
    stats.cache_hits += step.cache_hits;
    stats.prompt_tokens += step.prompt_tokens;
    stats.completion_tokens += step.completion_tokens;
    stats.serial_virtual_ms += step.serial_ms;
    stats.list_virtual_ms += step.phase_ms[Phase::List as usize];
    stats.filter_virtual_ms += step.phase_ms[Phase::Filter as usize];
    stats.fetch_virtual_ms += step.phase_ms[Phase::Fetch as usize];
    stats.retries += step.retries;
    stats.timeouts += step.timeouts;
    stats.rate_limited += step.rate_limited;
    stats.breaker_fastfails += step.breaker_fastfails;
    stats.failed_cells += step.failed_cells;
}
