//! Prompt accounting: the public per-query [`QueryStats`], which also
//! records each retrieval step's accounting before both drivers add the
//! steps up.

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

/// Per-step accounting: each retrieval step accumulates its own
/// `QueryStats`, and the driver adds the steps up with
/// [`QueryStats::add_step`].
impl QueryStats {
    /// Folds one batch's resilience counters in (shared by both absorb
    /// variants — retry accounting is per model call, never per key).
    fn absorb_resilience(&mut self, outcome: &BatchOutcome) {
        self.retries += outcome.retries;
        self.timeouts += outcome.timeouts;
        self.rate_limited += outcome.rate_limited;
        self.breaker_fastfails += outcome.breaker_fastfails;
    }

    /// Folds one batch's counters in (time is phase-structured and added
    /// by the caller, not here).
    pub(super) fn absorb(&mut self, outcome: &BatchOutcome) {
        self.cache_hits += outcome.hits;
        self.absorb_keyed(outcome);
    }

    /// Folds one batch's counters in, *except* cache hits — the form used
    /// for multi-key-protocol prompts (chunks and their single-key
    /// fallbacks), whose keys are billed per signature by the sub-entry
    /// store at extraction time. Counting a prompt-level raw-cache hit on
    /// such a prompt would bill the same keys twice, and under concurrent
    /// queries racing into identical chunks would make `cache_hits`
    /// depend on arrival order. With one query thread such hits are zero
    /// — `tests/prompt_cache_census.rs` pins it across profiles, both
    /// drivers, the store, replays and faults — but for a kept
    /// truncation: a truncated answer carries no fault marker, so the
    /// prompt cache keeps it, and a later ask of the same prompt is a raw
    /// hit that this form does not bill and [`absorb`] would.
    ///
    /// [`absorb`]: QueryStats::absorb
    pub(super) fn absorb_keyed(&mut self, outcome: &BatchOutcome) {
        self.prompt_tokens += outcome.prompt_tokens;
        self.completion_tokens += outcome.completion_tokens;
        self.serial_virtual_ms += outcome.serial_ms;
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
        *match phase {
            Phase::List => &mut self.list_virtual_ms,
            Phase::Filter => &mut self.filter_virtual_ms,
            Phase::Fetch => &mut self.fetch_virtual_ms,
        } += ms;
    }

    /// Adds one step's accounting — every field except the packed virtual
    /// clock, which each dataflow computes its own way (wave: lane-packed
    /// step times; streaming: the event simulation's makespan).
    pub(super) fn add_step(&mut self, step: &QueryStats) {
        self.list_prompts += step.list_prompts;
        self.filter_prompts += step.filter_prompts;
        self.fetch_prompts += step.fetch_prompts;
        self.cache_hits += step.cache_hits;
        self.prompt_tokens += step.prompt_tokens;
        self.completion_tokens += step.completion_tokens;
        self.serial_virtual_ms += step.serial_virtual_ms;
        self.list_virtual_ms += step.list_virtual_ms;
        self.filter_virtual_ms += step.filter_virtual_ms;
        self.fetch_virtual_ms += step.fetch_virtual_ms;
        self.wall_ms += step.wall_ms;
        self.rows_retrieved += step.rows_retrieved;
        self.retries += step.retries;
        self.timeouts += step.timeouts;
        self.rate_limited += step.rate_limited;
        self.breaker_fastfails += step.breaker_fastfails;
        self.failed_cells += step.failed_cells;
        self.queue_ms += step.queue_ms;
    }
}
