//! The Galois session: end-to-end SQL execution over an LLM (paper §4
//! "Workflow").
//!
//! ```text
//! (1) plan the SQL against the user-provided schema
//! (2) retrieve tuples: key scans (iterated until exhaustion), per-key
//!     filter checks, per-key attribute fetches — all as text prompts
//! (3) convert answer strings to typed CELL values (parse + clean)
//! (4) run the remaining operators (joins, aggregates, …) traditionally
//! ```
//!
//! Retrieval runs through the **prompt scheduler** ([`crate::schedule`]):
//! every distinct LLM scan step of the query, every chunk of a filter
//! condition, and every `(column, chunk)` cell of the fetch phase is an
//! independent work unit submitted as one wave and executed across up to
//! `K` worker threads, where `K` is [`GaloisOptions::parallelism`]. The
//! virtual clock packs each wave onto `K` simulated request lanes
//! ([`galois_llm::lane_schedule`]); `Parallelism(1)` reproduces the
//! original strictly-sequential accounting bit-for-bit. Filter conditions
//! keep their conjunctive short-circuit order (condition *n + 1* only
//! prompts for keys that survived condition *n*) because evaluating all
//! conditions on all keys would inflate prompt volume — the scheduler
//! parallelises *within* each condition instead.
//!
//! With [`GaloisOptions::prompt_batch`] set to [`PromptBatch::Keys`]`(B)`,
//! the filter and fetch phases switch to the **multi-key protocol**: each
//! retrieval cell fuses up to `B` keys into one prompt (`ceil(keys / B)`
//! prompts instead of `keys`), per-key answers are extracted line by line,
//! previously answered keys are served from the client's sub-entry cache,
//! and any key whose batched answer fails to parse is re-asked with its
//! single-key prompt. [`PromptBatch::Off`] (the default) is bit-identical
//! to the pre-batching pipeline.
//!
//! With [`GaloisOptions::pipeline`] set to [`Pipeline::Streaming`], the
//! barrier-separated phases above become a per-key dataflow under an
//! event-driven virtual clock: list pages feed filter micro-batch
//! accumulators, survivors of condition *i* stream into condition *i + 1*
//! and then into per-column fetch micro-batches, and every step of the
//! query shares the same `K` simulated lanes. See [`Pipeline`] for the
//! micro-batch trigger rule and the mode's invariants.

use crate::clean::{cell_value, key_row, normalise_text, CleaningPolicy};
use crate::compile::{CompileOptions, CompiledQuery, LlmScanStep};
use crate::error::{GaloisError, Result};
use crate::parse::{parse_boolean_answer, parse_list_answer, ListAnswer};
use crate::plan_choice::{plan_query, PlannedQuery, Planner, PlannerParams};
use crate::prompts::PromptBuilder;
use crate::schedule::{Crew, Scheduler};
use galois_llm::faults::is_fault_text;
use galois_llm::intent::{split_batched_answer, split_grid_answer, Condition, TaskIntent};
use galois_llm::{
    lane_schedule, BatchOutcome, ClientStats, KeyUniverse, KeyUniverseStore, LanguageModel,
    LlmClient, Parallelism, RetryPolicy, SubColumn, SubLookup,
};
use galois_relational::{Column, Database, Relation, Table, Value};
use std::sync::Arc;
use std::time::Instant;

/// Multi-key prompt batching: how many keys of one retrieval cell (one
/// filter condition, or one fetched attribute) are fused into a single
/// prompt.
///
/// The paper's dominant cost is prompt volume (§5: ~110 *batched* prompts
/// and ~20 s per query); fusing keys amortises the fixed preamble and
/// instruction tokens every per-key prompt re-pays. The protocol is
/// line-oriented ([`galois_llm::intent::TaskIntent::FetchAttrBatch`] /
/// [`galois_llm::intent::TaskIntent::FilterKeysBatch`]): the prompt lists
/// the keys one per line, the model answers one `key: value` line per key,
/// and any key whose line fails to parse is re-asked with the single-key
/// prompt — batching can cost extra prompts, never accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PromptBatch {
    /// One task per prompt — the paper-faithful protocol, bit-identical to
    /// the pre-batching pipeline (prompts, cache hits, virtual clocks).
    /// The default.
    #[default]
    Off,
    /// Fuse up to `n` keys per prompt (clamped to ≥ 1). `Keys(1)` uses the
    /// multi-key protocol with one key per prompt — the ablation base case
    /// isolating the protocol's own overhead.
    Keys(usize),
    /// Grid fusion: fetch prompts ask up to `attrs` attributes for up to
    /// `keys` keys at once (both clamped to ≥ 1), cutting the fetch phase
    /// from `C × ceil(keys / B)` prompts to `ceil(C / A) × ceil(keys / B)`
    /// per step ([`galois_llm::intent::TaskIntent::FetchGridBatch`]). The
    /// filter phase behaves exactly like `Keys(keys)` — only fetch cells
    /// have a second axis to fuse. Unparseable cells fall down the ladder
    /// grid → per-attribute key batch → per-key single prompt, so grid
    /// fusion may cost extra prompts, never accuracy. A group with spare
    /// width (fewer than `attrs` pending columns) is speculatively padded
    /// with the relation's other columns (schema order, key and fetched
    /// columns excluded): the pad
    /// cells seed the per-(key, attr) sub-entry store at no extra prompt
    /// cost, so later queries touching the same table fetch from cache —
    /// the lever that breaks the one-new-column-per-query fetch floor
    /// across a suite. `Grid { keys: B, attrs: 1 }` is the ablation base
    /// case isolating the grid protocol's own overhead against `Keys(B)`
    /// (no spare width, so no speculation).
    Grid {
        /// Keys fused per prompt (the `B` of `⌈keys/B⌉` chunks).
        keys: usize,
        /// Fetched attributes fused per prompt (the `A` of `⌈C/A⌉`
        /// attr-groups).
        attrs: usize,
    },
}

impl PromptBatch {
    /// Keys fused per prompt (1 when off).
    pub fn keys_per_prompt(self) -> usize {
        match self {
            PromptBatch::Off => 1,
            PromptBatch::Keys(n) => n.max(1),
            PromptBatch::Grid { keys, .. } => keys.max(1),
        }
    }

    /// Attributes fused per fetch prompt (1 unless grid mode).
    pub fn attrs_per_prompt(self) -> usize {
        match self {
            PromptBatch::Grid { attrs, .. } => attrs.max(1),
            _ => 1,
        }
    }

    /// True when the multi-key protocol is in use.
    pub fn is_on(self) -> bool {
        !matches!(self, PromptBatch::Off)
    }

    /// True when the fetch phase fuses attributes as well as keys.
    pub fn is_grid(self) -> bool {
        matches!(self, PromptBatch::Grid { .. })
    }
}

/// Execution dataflow of the retrieval phases.
///
/// The paper's three-phase protocol (list keys → check filters → fetch
/// attributes) is naturally expressed as barrier-separated *waves*: every
/// phase waits for the previous one to drain completely. That leaves a
/// latency floor — each phase boundary idles every request lane until the
/// slowest batch of the previous phase lands. [`Pipeline::Streaming`]
/// removes the barriers: keys flow through the filter chain and into
/// per-column fetch micro-batches the moment they are known to survive,
/// and the virtual clock becomes an event-driven simulation
/// ([`galois_llm::EventClock`]) in which each micro-batch is released at
/// the instant its inputs exist.
///
/// A micro-batch fires when it reaches `B` keys
/// ([`GaloisOptions::prompt_batch`]; `B = 1` when batching is off), when
/// a **lane goes idle** after a virtual instant has fully resolved
/// (holding a partial batch back while lanes sit empty is pure latency),
/// or at **upstream drain** — the flush that ends each stream. The idle
/// flush is speculative: if the inputs of a stage later grow a chunk the
/// flush already split (a later list page, or survivors of a filter
/// stage whose chunks completed at different instants), streaming spends
/// *more* prompts than the wave pipeline — extra partial chunks buy
/// latency, never accuracy. When each stage's input arrives at one
/// instant — single-page key streams feeding pushed-down scans, the
/// benchmark configuration — chunk membership and counts match the wave
/// pipeline exactly.
///
/// Invariants:
///
/// * [`Pipeline::Off`] (the default) is bit-identical to the wave
///   pipeline — prompts per kind, cache hits, both clocks, relations;
/// * streaming never changes `R_M` on a noise-free model, for any lane
///   count or batch factor; its cache-hit totals always match the wave
///   run's, and its prompt bill is never lower (and is *equal* whenever
///   the idle flush never splits a chunk that later input would have
///   filled);
/// * streaming pays one request overhead per micro-batch (a real
///   streaming deployment cannot fuse requests it has not accumulated),
///   so with a single lane it is *slower* than the wave pipeline, which
///   amortises the overhead across up to `batch_size` prompts per
///   request. Pipelining is a concurrency optimisation: the overheads
///   overlap across lanes, and the phase barriers disappear.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Pipeline {
    /// Barrier-separated retrieval waves — the paper-faithful dataflow,
    /// bit-identical to the pre-pipelining releases. The default.
    #[default]
    Off,
    /// Per-key dataflow under the event-driven virtual clock: list pages
    /// feed filter micro-batches, survivors stream into the next
    /// condition and then into per-column fetch micro-batches.
    Streaming,
}

impl Pipeline {
    /// True when streaming execution is selected.
    pub fn is_streaming(self) -> bool {
        matches!(self, Pipeline::Streaming)
    }
}

/// Cross-query key-universe store for the LIST phase.
///
/// The paper's protocol re-enumerates a concept's keys query after query;
/// by PR 5 that serial listing chain was ~90 % of the pipelined critical
/// path, because even prompt-cache hits ride in a batch request (one
/// overhead each) and the exclusion-list iteration is inherently
/// sequential. With the store enabled, the first query on a concept pages
/// keys out of the model — *speculatively*: once page 1 reveals the page
/// size, later pages are requested by offset
/// ([`galois_llm::intent::TaskIntent::ListKeysPage`]) in parallel waves
/// across the session's lanes — and publishes the universe under the
/// concept's signature (table, key attribute, rendered scan condition),
/// keyed by the model's [`LanguageModel::signature`]. Every later query
/// on that concept reads the warm universe at **zero prompt and zero
/// virtual cost**, counting the stored frontier's iterations as cache
/// hits (the bill a re-listing run would have paid in prompt-cache hits);
/// a partial frontier (iteration-capped listing) is resumed with classic
/// exclusion paging and extended append-only.
///
/// Invariants:
///
/// * [`ListStore::Off`] (the default) is bit-identical to the store-less
///   pipeline — prompts per kind, cache hits, both clocks, relations;
/// * on a noise-free model, store-on execution never changes `R_M`, for
///   any lane count, batch factor or pipeline mode, and a warm run's
///   relations are bit-identical to its cold run's;
/// * a model-signature change (a different noise profile) invalidates a
///   stored universe on first read — the follow-up query re-lists from
///   scratch, exactly like a fresh session.
#[derive(Debug, Clone, Default)]
pub enum ListStore {
    /// No cross-query list state — the paper-faithful re-listing
    /// behaviour, bit-identical to the pre-store pipeline. The default.
    #[default]
    Off,
    /// Session-private store: queries of this session share listed
    /// universes with each other.
    On,
    /// An externally owned store, shared across sessions (hand the same
    /// `Arc` to several sessions — model-signature keying keeps universes
    /// from leaking across differently-configured models).
    Shared(Arc<KeyUniverseStore>),
}

impl ListStore {
    /// True when some store (private or shared) is enabled.
    pub fn is_on(&self) -> bool {
        !matches!(self, ListStore::Off)
    }
}

impl PartialEq for ListStore {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ListStore::Off, ListStore::Off) => true,
            (ListStore::On, ListStore::On) => true,
            (ListStore::Shared(a), ListStore::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// LIMIT-aware early termination of streaming retrieval.
///
/// The paper's protocol materialises a concept's full key universe before
/// the residual plan runs, so `SELECT … LIMIT 10` over a 100-key concept
/// pays the whole prompt bill and throws 90 rows away. With early stop
/// enabled, [`Pipeline::Streaming`] queries whose residual plan is a
/// plain window — `Limit` over row-wise projections of a single LLM scan
/// (see [`crate::compile::limit_hint`]) — stop retrieval as soon as the
/// window is covered:
///
/// * list paging halts once `n + offset` keys have **survived every
///   filter verdict** (in-flight keys count zero until their verdicts
///   land, so the stop is never speculative);
/// * keys listed past the point of coverage are pruned before entering
///   the filter/fetch dataflow — but only when enough *earlier* keys are
///   already confirmed, so the surfaced window is exactly the one the
///   full run would produce;
/// * keys whose verdicts are already in flight (including batched-answer
///   fallback re-asks) always complete — early stop cancels unissued
///   work, never in-flight work.
///
/// Invariants:
///
/// * [`EarlyStop::Off`] (the default) is bit-identical to the
///   exhaustive pipeline — prompts per kind, cache hits, both clocks,
///   relations;
/// * on a noise-free model, an early-stopped `LIMIT` query returns
///   exactly the full evaluation truncated to the window, and never
///   issues more prompts than the unlimited query;
/// * under [`Pipeline::Off`] (wave retrieval) the knob is inert: waves
///   have no per-key release points to cancel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EarlyStop {
    /// Always materialise the full key universe — the paper-faithful
    /// behaviour, bit-identical to the pre-limit pipeline. The default.
    #[default]
    Off,
    /// Stop streaming retrieval once a plain `LIMIT` window is covered by
    /// confirmed survivors.
    Limit,
}

impl EarlyStop {
    /// True when LIMIT-aware early termination is enabled.
    pub fn is_on(self) -> bool {
        !matches!(self, EarlyStop::Off)
    }
}

/// Resilience knob: what the client does when a model request fails.
///
/// Invariants:
///
/// * [`Resilience::Off`] (the default) is bit-identical to the
///   pre-resilience engine — faults' degraded completions flow downstream
///   untouched, and on a fault-free model nothing changes at all;
/// * on a fault-free model, `On` changes nothing either: the retry loop
///   never fires, no backoff is billed, the breaker never opens;
/// * with a bounded fault schedule (consecutive failures per prompt ≤ the
///   retry budget, e.g. [`galois_llm::FaultProfile`]'s default cap under
///   the default [`RetryPolicy`]), `On` reproduces the fault-free run's
///   relations, prompt counts, cache hits and token totals bit-exactly —
///   only the virtual clock grows by the billed retry/backoff time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Resilience {
    /// No retries: a failed request's degraded completion goes straight
    /// into parsing, and graceful degradation (Nulls, dropped verdicts,
    /// resumable partial listings) is the only defence. The default.
    #[default]
    Off,
    /// Bounded retries with exponential backoff + jitter billed in
    /// virtual time, per-request timeouts, and a circuit breaker that
    /// fails fast after a streak of retry-exhausted requests.
    On(RetryPolicy),
}

impl Resilience {
    /// The retry policy, if resilience is on.
    pub fn policy(&self) -> Option<RetryPolicy> {
        match self {
            Resilience::Off => None,
            Resilience::On(policy) => Some(*policy),
        }
    }

    /// True when the retry loop is enabled.
    pub fn is_on(&self) -> bool {
        matches!(self, Resilience::On(_))
    }
}

/// Cross-query admission control for [`crate::multi::run_multi_query`].
///
/// [`Admission::Off`] (the default) leaves the single-query engine
/// untouched: each `execute` call still packs its own tasks onto the
/// session's private `K` lanes, and the multi-query runner falls back to
/// the default [`AdmissionPolicy`]. `Fair(policy)` makes the policy the
/// session's — the multi-query runner schedules every admitted query's
/// micro-batch tasks onto one shared [`galois_llm::LanePool`] under it,
/// and `EXPLAIN` gains an `admission:` line describing the queueing
/// behaviour a query will see.
///
/// Admission control never changes *what* a query answers — queries
/// always execute logically in workload order with identical prompts,
/// cache hits and result relations; the policy only governs when their
/// traced tasks run on the shared clock (see [`crate::multi`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Admission {
    /// No cross-query scheduling configured (the default).
    #[default]
    Off,
    /// Fair-share admission over a shared lane pool under this policy.
    Fair(AdmissionPolicy),
}

impl Admission {
    /// The configured policy (`None` when off).
    pub fn policy(&self) -> Option<AdmissionPolicy> {
        match self {
            Admission::Off => None,
            Admission::Fair(policy) => Some(*policy),
        }
    }

    /// True when a cross-query policy is configured.
    pub fn is_on(&self) -> bool {
        matches!(self, Admission::Fair(_))
    }
}

/// How the multi-query runner admits queries and shares the lane pool.
///
/// Every `0` field means "unbounded / derive automatically", which is also
/// the default policy: pool sized to `sessions × K`, no in-flight cap, no
/// per-session task quota, deficit-weighted fairness. Those defaults make
/// a single-session multi-query run bit-exact with running the same
/// queries back-to-back through the private streaming engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Lanes in the shared pool; `0` derives `sessions × K` (every
    /// session brings its configured parallelism to the pool, so the
    /// capacity matches `sessions` independent `K`-lane query streams —
    /// the apples-to-apples comparison against per-query packing).
    pub pool_lanes: usize,
    /// Maximum queries admitted (running) at once; `0` is unlimited.
    /// Arrivals beyond the cap wait in FIFO order, and their wait is
    /// tallied as [`QueryStats::queue_ms`].
    pub max_inflight: usize,
    /// Maximum micro-batch tasks one session may have in flight on the
    /// pool at once; `0` is unlimited. A finite quota stops one wide
    /// query from monopolising the pool within an instant.
    pub session_quota: usize,
    /// Fairness rule arbitrating sessions with ready tasks at the same
    /// virtual instant.
    pub share: galois_llm::FairShare,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            pool_lanes: 0,
            max_inflight: 0,
            session_quota: 0,
            share: galois_llm::FairShare::DeficitMs,
        }
    }
}

impl AdmissionPolicy {
    /// The pool size this policy yields for `sessions` sessions over a
    /// session configured with `k` lanes (`pool_lanes` when set, else
    /// `sessions × k`).
    pub fn pool_lanes_for(&self, sessions: usize, k: usize) -> usize {
        if self.pool_lanes > 0 {
            self.pool_lanes
        } else {
            sessions.max(1) * k.max(1)
        }
    }
}

/// Tuning knobs of a session.
#[derive(Debug, Clone, PartialEq)]
pub struct GaloisOptions {
    /// Plan-compilation options (source routing, filter mode, pushdown).
    pub compile: CompileOptions,
    /// Cleaning policy for answer strings.
    pub cleaning: CleaningPolicy,
    /// Maximum "Return more results" iterations per key scan (the paper
    /// iterates "until we stop getting new results"; the cap is the
    /// user-specified threshold alternative).
    pub max_list_iterations: usize,
    /// Prompts per batch request.
    pub batch_size: usize,
    /// Concurrency knob: simulated request lanes for the virtual clock
    /// *and* real worker threads for the scheduler. `Parallelism(1)` (the
    /// default) is the paper-faithful sequential configuration.
    pub parallelism: Parallelism,
    /// Plan-choice strategy. [`Planner::Heuristic`] (the default)
    /// reproduces the pre-planner pipeline bit for bit — same plans, same
    /// prompts, same tables; [`Planner::CostBased`] picks prompt pushdowns
    /// and step order by estimated prompt/latency cost (see
    /// [`crate::plan_choice`]).
    pub planner: Planner,
    /// Multi-key prompt batching factor for the filter and fetch phases.
    /// [`PromptBatch::Off`] (the default) keeps the one-task-per-prompt
    /// protocol bit for bit; `Keys(B)` emits `ceil(keys / B)` prompts per
    /// retrieval cell instead of `keys`, with a per-key fallback re-ask
    /// for unparseable batched answers.
    pub prompt_batch: PromptBatch,
    /// Retrieval dataflow. [`Pipeline::Off`] (the default) runs the
    /// barrier-separated waves bit for bit; [`Pipeline::Streaming`]
    /// streams keys through filter and fetch micro-batches under the
    /// event-driven virtual clock, issuing the same prompts without the
    /// phase barriers.
    pub pipeline: Pipeline,
    /// Cross-query key-universe store for the LIST phase.
    /// [`ListStore::Off`] (the default) re-lists every query bit for bit;
    /// `On`/`Shared` serve warm concepts at zero prompt cost and page
    /// cold ones speculatively (see [`ListStore`]).
    pub list_store: ListStore,
    /// LIMIT-aware early termination for streaming retrieval.
    /// [`EarlyStop::Off`] (the default) materialises every key universe
    /// in full bit for bit; [`EarlyStop::Limit`] stops listing and prunes
    /// unissued filter/fetch work once a plain `LIMIT` window is covered
    /// by confirmed survivors (see [`EarlyStop`]).
    pub early_stop: EarlyStop,
    /// Fault handling for model requests. [`Resilience::Off`] (the
    /// default) hands degraded completions straight to the parsers bit
    /// for bit; [`Resilience::On`] retries failed requests with backoff
    /// billed in virtual time (see [`Resilience`]).
    pub resilience: Resilience,
    /// Cross-query admission control. [`Admission::Off`] (the default)
    /// changes nothing about single-query execution; [`Admission::Fair`]
    /// configures how [`crate::multi::run_multi_query`] shares the lane
    /// pool across concurrent sessions (see [`Admission`]).
    pub admission: Admission,
}

impl Default for GaloisOptions {
    fn default() -> Self {
        GaloisOptions {
            compile: CompileOptions::default(),
            cleaning: CleaningPolicy::default(),
            max_list_iterations: 32,
            batch_size: 20,
            parallelism: Parallelism::default(),
            planner: Planner::default(),
            prompt_batch: PromptBatch::default(),
            pipeline: Pipeline::default(),
            list_store: ListStore::default(),
            early_stop: EarlyStop::default(),
            resilience: Resilience::default(),
            admission: Admission::default(),
        }
    }
}

/// Prompt accounting for one query (paper §5 reports ≈110 batched prompts
/// and ≈20 s per query).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Key-listing prompts.
    pub list_prompts: usize,
    /// Filter prompts issued: one per key when [`PromptBatch::Off`]
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
    /// [`AdmissionPolicy::max_inflight`]).
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
enum Phase {
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
struct StepStats {
    list_prompts: usize,
    filter_prompts: usize,
    fetch_prompts: usize,
    cache_hits: usize,
    prompt_tokens: usize,
    completion_tokens: usize,
    virtual_ms: u64,
    /// Phase-attributed virtual time, indexed by [`Phase`] discriminant
    /// order (list, filter, fetch).
    phase_ms: [u64; 3],
    serial_ms: u64,
    retries: usize,
    timeouts: usize,
    rate_limited: usize,
    breaker_fastfails: usize,
    failed_cells: usize,
}

impl StepStats {
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
    fn absorb(&mut self, outcome: &BatchOutcome) {
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
    /// arrival order. On a single harness thread this equals [`absorb`]
    /// exactly: a pending key is by construction not yet stored, so a
    /// re-ask chunk can never reproduce an earlier chunk's prompt string
    /// and such hits are zero.
    ///
    /// [`absorb`]: StepStats::absorb
    fn absorb_keyed(&mut self, outcome: &BatchOutcome) {
        self.prompt_tokens += outcome.prompt_tokens;
        self.completion_tokens += outcome.completion_tokens;
        self.serial_ms += outcome.serial_ms;
        self.absorb_resilience(outcome);
    }

    /// Charges wave time to the step clock and attributes it to a phase.
    fn charge_wave(&mut self, phase: Phase, ms: u64) {
        self.virtual_ms += ms;
        self.charge_phase(phase, ms);
    }

    /// Attributes time to a phase without touching the step clock (the
    /// streaming driver's clock is the event simulation's makespan, not a
    /// sum).
    fn charge_phase(&mut self, phase: Phase, ms: u64) {
        self.phase_ms[phase as usize] += ms;
    }
}

/// The result of one Galois query.
#[derive(Debug, Clone)]
pub struct GaloisResult {
    /// The output relation `R_M`.
    pub relation: Relation,
    /// Prompt accounting.
    pub stats: QueryStats,
}

/// What a statement's prologue ([`Galois::prepare`]) leaves to do.
enum Prepared {
    /// An `EXPLAIN`: nothing to execute, the `QUERY PLAN` relation is the
    /// result.
    Explain(Relation),
    /// A query, compiled and ready for retrieval.
    Compiled(CompiledQuery),
}

/// A Galois session over one LLM and one schema catalog.
///
/// The [`Database`] provides the *schema* (the paper assumes "the schema
/// (but no instances) is provided together with the query") and any
/// `DB.`-qualified instance data for hybrid queries; LLM-sourced relations
/// are materialised through prompts at query time.
///
/// Sessions are `Sync`: one session may serve queries from many threads
/// concurrently (the harness does exactly that), sharing the prompt cache.
pub struct Galois {
    /// Shared with the units the streaming engine hands to [`Crew`]
    /// helpers, which outlive the call that posts them.
    client: Arc<LlmClient>,
    /// The streaming engine's standing helper threads.
    crew: Crew,
    db: Database,
    prompt_builder: PromptBuilder,
    options: GaloisOptions,
    /// Cost-model calibration, frozen at the session's first planner use
    /// so plan choice stays a deterministic function of the query — never
    /// of which concurrent query's prompts happened to land first in the
    /// shared client stats. [`Galois::recalibrate_planner`] re-freezes it.
    calibration: parking_lot::Mutex<Option<PlannerParams>>,
    /// The resolved key-universe store (`None` when [`ListStore::Off`]).
    list_store: Option<Arc<KeyUniverseStore>>,
    /// The model's behaviour fingerprint, keying store entries so a
    /// profile change invalidates stored universes cleanly.
    model_sig: String,
}

impl Galois {
    /// Creates a session with default options.
    pub fn new(model: Arc<dyn LanguageModel>, db: Database) -> Self {
        Self::with_options(model, db, GaloisOptions::default())
    }

    /// Creates a session with explicit options.
    pub fn with_options(
        model: Arc<dyn LanguageModel>,
        db: Database,
        options: GaloisOptions,
    ) -> Self {
        let prompt_builder = PromptBuilder::for_model(model.name());
        let model_sig = model.signature();
        let list_store = match &options.list_store {
            ListStore::Off => None,
            ListStore::On => Some(Arc::new(KeyUniverseStore::new())),
            ListStore::Shared(store) => Some(Arc::clone(store)),
        };
        let mut client = LlmClient::with_parallelism(model, options.parallelism);
        if let Some(policy) = options.resilience.policy() {
            client = client.with_resilience(policy);
        }
        Galois {
            client: Arc::new(client),
            crew: Crew::new(options.parallelism),
            db,
            prompt_builder,
            options,
            calibration: parking_lot::Mutex::new(None),
            list_store,
            model_sig,
        }
    }

    /// The key-universe store in use (`None` when [`ListStore::Off`]).
    pub fn key_universe_store(&self) -> Option<&Arc<KeyUniverseStore>> {
        self.list_store.as_ref()
    }

    /// The underlying client (stats, cache control).
    pub fn client(&self) -> &LlmClient {
        &self.client
    }

    /// The schema/DB catalog in use.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Options in use.
    pub fn options(&self) -> &GaloisOptions {
        &self.options
    }

    /// The cost-model calibration computed from the client's stats *right
    /// now*: batch size and lanes from the options, expected per-prompt
    /// latency and cache-hit rate from the observed stats. This is the
    /// live reading; plan choice uses the frozen snapshot of
    /// [`Galois::recalibrate_planner`].
    pub fn planner_params(&self) -> PlannerParams {
        PlannerParams::from_session(
            self.options.batch_size,
            self.options.parallelism,
            &self.client.stats(),
        )
        .with_batch_keys(self.options.prompt_batch.keys_per_prompt())
        .with_batch_attrs(self.options.prompt_batch.attrs_per_prompt())
        .with_pipeline(self.options.pipeline.is_streaming())
        .with_early_stop(self.options.early_stop == EarlyStop::Limit)
        .with_resilience(self.options.resilience.policy())
        .with_admission(self.options.admission.policy())
    }

    /// The calibration snapshot plan choice uses, frozen at the session's
    /// first planner invocation. Freezing keeps the chosen plan a
    /// deterministic function of the query even when many threads share
    /// the session (live stats would race); a fresh session freezes the
    /// documented cold-start defaults.
    fn calibration(&self) -> PlannerParams {
        self.calibration
            .lock()
            .get_or_insert_with(|| self.planner_params())
            .clone()
    }

    /// Re-freezes the planner calibration from the client's current stats
    /// — opt-in adaptivity for long-lived sessions (call between
    /// workloads, not concurrently with queries whose plans should match).
    pub fn recalibrate_planner(&self) {
        *self.calibration.lock() = Some(self.planner_params());
    }

    /// The parameters one planning pass uses: the frozen calibration,
    /// overlaid with the key-universe store's *live* warm-concept
    /// cardinalities. The overlay is intentionally live where the
    /// calibration is frozen — which concepts are warm is exact knowledge
    /// (stored key counts), not a drifting rate estimate, and the whole
    /// point of planner-visible list caching is that a concept listed by
    /// an earlier query plans as free for the next one. With the store
    /// off this is exactly the frozen calibration.
    fn planning_params(&self) -> PlannerParams {
        let params = self.calibration();
        match &self.list_store {
            Some(store) => params.with_warm_lists(store.warm_map(&self.model_sig)),
            None => params,
        }
    }

    /// Parses one statement, mapping the SQL error into the session's.
    fn parse_statement(&self, sql: &str) -> Result<galois_sql::Statement> {
        galois_sql::parse(sql)
            .map_err(|e| GaloisError::from(galois_relational::EngineError::from(e)))
    }

    /// Plans an already-parsed SELECT through the session's [`Planner`]
    /// with one fixed calibration snapshot.
    fn plan_statement(
        &self,
        select: &galois_sql::SelectStatement,
        params: &PlannerParams,
    ) -> Result<PlannedQuery> {
        let plan = self.db.plan_statement(select).map_err(GaloisError::from)?;
        plan_query(
            &plan,
            self.db.catalog(),
            &self.options.compile,
            self.options.planner,
            params,
        )
    }

    /// Plans a query through the session's [`Planner`] without executing
    /// it, returning the compiled retrieval program plus its cost report.
    pub fn plan(&self, sql: &str) -> Result<PlannedQuery> {
        let stmt = self.parse_statement(sql)?;
        self.plan_statement(stmt.select(), &self.planning_params())
    }

    /// Renders the chosen plan with per-operator prompt/latency cost
    /// estimates (the text behind `EXPLAIN <query>`; Figure 3 shape).
    ///
    /// Accepts either a plain query or an `EXPLAIN`-prefixed one.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let stmt = self.parse_statement(sql)?;
        let params = self.planning_params();
        let planned = self.plan_statement(stmt.select(), &params)?;
        Ok(planned.render(self.db.catalog(), &params))
    }

    /// Executes a SQL query against the LLM (and DB for hybrid sources).
    ///
    /// An `EXPLAIN <query>` statement is not executed: it returns the
    /// chosen plan and its cost report as a one-column `QUERY PLAN`
    /// relation with zero prompt accounting.
    pub fn execute(&self, sql: &str) -> Result<GaloisResult> {
        match self.prepare(sql)? {
            Prepared::Explain(relation) => Ok(GaloisResult {
                relation,
                stats: QueryStats::default(),
            }),
            Prepared::Compiled(compiled) => self.execute_compiled(&compiled),
        }
    }

    /// The prologue of every statement: parse, then either render an
    /// `EXPLAIN`'s plan relation or compile the query through the
    /// session's [`Planner`].
    fn prepare(&self, sql: &str) -> Result<Prepared> {
        let stmt = self.parse_statement(sql)?;
        if stmt.is_explain() {
            let params = self.planning_params();
            let planned = self.plan_statement(stmt.select(), &params)?;
            let text = planned.render(self.db.catalog(), &params);
            return Ok(Prepared::Explain(
                galois_relational::cost::explain_relation(&text),
            ));
        }
        Ok(Prepared::Compiled(match self.options.planner {
            // Fast path, and the bit-exactness invariant made literal: the
            // default mode runs exactly the pre-planner pipeline, no cost
            // estimation on the hot path.
            Planner::Heuristic => {
                let plan = self
                    .db
                    .plan_statement(stmt.select())
                    .map_err(GaloisError::from)?;
                crate::compile::compile(&plan, self.db.catalog(), &self.options.compile)?
            }
            Planner::CostBased => {
                self.plan_statement(stmt.select(), &self.planning_params())?
                    .compiled
            }
        }))
    }

    /// Executes an already-compiled query.
    ///
    /// In the default wave dataflow, all distinct LLM scan steps are
    /// submitted to the scheduler as one wave; the query's virtual time is
    /// the lane-packed makespan of the step times (their sum at
    /// `Parallelism(1)`). With [`Pipeline::Streaming`] the steps share one
    /// event-driven simulation instead (see [`Pipeline`]).
    pub fn execute_compiled(&self, compiled: &CompiledQuery) -> Result<GaloisResult> {
        if self.options.pipeline.is_streaming() {
            return self.execute_compiled_streaming(compiled);
        }
        let started = Instant::now();
        let scheduler = Scheduler::new(self.options.parallelism);
        let lanes = self.options.parallelism.get();

        let step_units: Vec<_> = compiled
            .steps
            .iter()
            .map(|step| move || self.retrieve(step))
            .collect();
        let retrieved = scheduler.run_wave(step_units);

        let mut stats = QueryStats::default();
        let mut step_virtuals = Vec::with_capacity(compiled.steps.len());
        let mut step_rows = Vec::with_capacity(compiled.steps.len());
        for (rows, step_stats) in retrieved {
            fold_step_stats(&mut stats, &step_stats);
            step_virtuals.push(step_stats.virtual_ms);
            step_rows.push(rows);
        }
        stats.virtual_ms = lane_schedule(step_virtuals, lanes);

        let relation = self.materialise_and_execute(compiled, step_rows, &mut stats)?;
        stats.wall_ms = started.elapsed().as_millis() as u64;
        Ok(GaloisResult { relation, stats })
    }

    /// The hand-off to the relational engine, shared by both retrieval
    /// engines: overlays the stored catalog with one temporary table per
    /// step (`step_rows` runs parallel to `compiled.steps`), counts the
    /// rows that survive materialisation, and runs the residual plan. The
    /// overlay shares the stored tables' storage, so building and
    /// dropping it costs one pointer per table.
    fn materialise_and_execute(
        &self,
        compiled: &CompiledQuery,
        step_rows: impl IntoIterator<Item = Vec<Vec<Value>>>,
        stats: &mut QueryStats,
    ) -> Result<Relation> {
        let mut catalog = self.db.catalog().clone();
        for (step, rows) in compiled.steps.iter().zip(step_rows) {
            let table = materialise_step(step, rows);
            stats.rows_retrieved += table.len();
            catalog
                .add_table(table)
                .map_err(|e| GaloisError::Compile(format!("temp table: {e}")))?;
        }
        galois_relational::execute(&compiled.plan, &catalog).map_err(GaloisError::from)
    }

    /// Client-level stats accumulated over the session.
    pub fn session_stats(&self) -> ClientStats {
        self.client.stats()
    }

    // -----------------------------------------------------------------
    // Retrieval (workflow steps 2–3)
    // -----------------------------------------------------------------

    fn retrieve(&self, step: &LlmScanStep) -> (Vec<Vec<Value>>, StepStats) {
        let scheduler = Scheduler::new(self.options.parallelism);
        let mut acc = StepStats::default();
        let keys = self.scan_keys(step, &scheduler, &mut acc);
        let keys = self.apply_filters(step, keys, &scheduler, &mut acc);
        let rows = self.fetch_attributes(step, &keys, &scheduler, &mut acc);
        (rows, acc)
    }

    /// Key retrieval. Without a [`ListStore`], iterate the list prompt
    /// until the model stops producing new values (paper: "we iterate
    /// with a prompt until we stop getting new results") — bit-identical
    /// to the pre-store pipeline. With a store, a warm concept is served
    /// from its stored universe at zero prompt cost (a partial frontier
    /// resumes classic paging after it), and a cold concept is paged
    /// *speculatively*: page 1 is the classic first prompt, later pages
    /// are requested by offset in parallel waves across the lanes.
    fn scan_keys(
        &self,
        step: &LlmScanStep,
        scheduler: &Scheduler,
        acc: &mut StepStats,
    ) -> Vec<String> {
        let Some(store) = &self.list_store else {
            return self
                .scan_keys_classic(step, acc, Vec::new(), std::collections::HashSet::new(), 0)
                .keys;
        };
        if self.options.max_list_iterations == 0 {
            // Nothing may be listed: skip the store entirely (no warm
            // service, no empty publish), like the streaming path.
            return Vec::new();
        }
        let concept = step.concept_signature();
        let out = if let Some(stored) = store.read(&concept, &self.model_sig) {
            // Warm read: the stored frontier's iterations are counted as
            // cache hits — the same bill a re-listing run would have paid
            // in prompt-cache hits — at zero prompts and zero virtual
            // time.
            acc.cache_hits += stored.iterations;
            if stored.exhausted || stored.iterations >= self.options.max_list_iterations {
                return stored.keys.to_vec();
            }
            // Partial frontier (an earlier session hit its iteration cap):
            // resume classic exclusion paging after the stored keys and
            // extend the entry append-only.
            let seen = stored.keys.iter().map(|k| k.to_ascii_lowercase()).collect();
            self.scan_keys_classic(step, acc, stored.keys.to_vec(), seen, stored.iterations)
        } else {
            self.scan_keys_speculative(step, scheduler, acc)
        };
        store.publish(
            &concept,
            &self.model_sig,
            KeyUniverse {
                keys: out.keys.as_slice().into(),
                iterations: out.iterations,
                exhausted: out.exhausted,
            },
        );
        out.keys
    }

    /// Classic exclusion-list key paging, resumable from a stored
    /// frontier (`initial` keys / `seen` forms / `iterations` already
    /// paid; all empty/zero on a fresh scan).
    ///
    /// Iterations chain on the exclusion list, so this phase is inherently
    /// sequential; its batches add to the step's virtual time directly.
    /// The growing exclusion list rides behind an `Arc`, so rendering each
    /// iteration's prompt shares rather than re-clones every seen key.
    fn scan_keys_classic(
        &self,
        step: &LlmScanStep,
        acc: &mut StepStats,
        initial: Vec<String>,
        mut seen: std::collections::HashSet<String>,
        start_iterations: usize,
    ) -> ScanOutcome {
        let mut keys: Arc<Vec<String>> = Arc::new(initial);
        let mut iterations = start_iterations;
        let mut exhausted = false;
        while iterations < self.options.max_list_iterations {
            let prompt = {
                // Scoped so the intent's `Arc` clone dies before
                // `Arc::make_mut` below — keeping the push in-place.
                let intent = TaskIntent::ListKeys {
                    relation: step.table.clone(),
                    key_attr: step.key_attr.clone(),
                    condition: step.scan_condition.clone(),
                    exclude: Arc::clone(&keys),
                };
                self.prompt_builder.task(&intent)
            };
            let outcome = self.client.complete_outcome(&prompt);
            acc.list_prompts += 1;
            iterations += 1;
            acc.charge_wave(Phase::List, outcome.virtual_ms);
            acc.absorb(&outcome);
            if is_fault_text(&outcome.completions[0].text) {
                // A degraded list page: stop paging, but leave the
                // frontier resumable (`exhausted` stays false) — a
                // faulted page must never be recorded as the end of the
                // universe, so a later query resumes where this one died.
                acc.failed_cells += 1;
                break;
            }
            match parse_list_answer(&outcome.completions[0].text) {
                ListAnswer::Exhausted => {
                    exhausted = true;
                    break;
                }
                ListAnswer::Values(values) => {
                    let mut got_new = false;
                    let fresh = Arc::make_mut(&mut keys);
                    for v in values {
                        let cleaned = normalise_text(&v);
                        if cleaned.is_empty() {
                            continue;
                        }
                        if seen.insert(cleaned.to_ascii_lowercase()) {
                            fresh.push(cleaned);
                            got_new = true;
                        }
                    }
                    if !got_new {
                        exhausted = true;
                        break;
                    }
                }
            }
        }
        ScanOutcome {
            keys: Arc::try_unwrap(keys).unwrap_or_else(|shared| (*shared).clone()),
            iterations,
            exhausted,
        }
    }

    /// Speculative offset paging for a cold concept (store enabled).
    ///
    /// Page 1 is the classic first list prompt — identical string, so it
    /// shares the prompt cache with store-off runs. Its raw value count
    /// is the page-size estimate `P`; subsequent pages are requested as
    /// [`TaskIntent::ListKeysPage`] at offsets `P, 2P, …` in waves whose
    /// width doubles up to the lane count — the probe wave is one page
    /// wide (the estimate may be the whole universe), later waves fan
    /// out. Pages are applied in offset order; the first exhausted page,
    /// short page or page with nothing new ends the universe (pages
    /// already fired past it are counted waste — speculation buys
    /// latency with at most a ramp-width of extra prompts, never
    /// accuracy). Hitting the iteration cap leaves a partial frontier.
    fn scan_keys_speculative(
        &self,
        step: &LlmScanStep,
        scheduler: &Scheduler,
        acc: &mut StepStats,
    ) -> ScanOutcome {
        let cap = self.options.max_list_iterations;
        let mut out = ScanOutcome {
            keys: Vec::new(),
            iterations: 0,
            exhausted: false,
        };
        if cap == 0 {
            return out;
        }
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        let first = {
            let intent = TaskIntent::ListKeys {
                relation: step.table.clone(),
                key_attr: step.key_attr.clone(),
                condition: step.scan_condition.clone(),
                exclude: Arc::new(Vec::new()),
            };
            self.prompt_builder.task(&intent)
        };
        let outcome = self.client.complete_outcome(&first);
        acc.list_prompts += 1;
        out.iterations = 1;
        acc.charge_wave(Phase::List, outcome.virtual_ms);
        acc.absorb(&outcome);
        if is_fault_text(&outcome.completions[0].text) {
            // Degraded first page: give up paging with a resumable
            // (non-exhausted) empty frontier.
            acc.failed_cells += 1;
            return out;
        }
        let page_est = match parse_list_answer(&outcome.completions[0].text) {
            ListAnswer::Exhausted => {
                out.exhausted = true;
                return out;
            }
            ListAnswer::Values(values) => {
                let raw = values.len();
                if !absorb_page(values, &mut out.keys, &mut seen) {
                    out.exhausted = true;
                    return out;
                }
                raw
            }
        };

        let lanes = self.options.parallelism.get();
        let mut offset = page_est;
        let mut width = 1usize;
        let mut faulted = false;
        while !out.exhausted && !faulted && out.iterations < cap {
            let width_now = width.min(cap - out.iterations).max(1);
            let prompts: Vec<String> = (0..width_now)
                .map(|i| {
                    self.prompt_builder.task(&TaskIntent::ListKeysPage {
                        relation: step.table.clone(),
                        key_attr: step.key_attr.clone(),
                        condition: step.scan_condition.clone(),
                        offset: offset + i * page_est,
                    })
                })
                .collect();
            let units: Vec<_> = prompts
                .iter()
                .map(|prompt| move || self.client.complete_outcome(prompt))
                .collect();
            let outcomes = scheduler.run_wave(units);
            acc.list_prompts += width_now;
            out.iterations += width_now;
            acc.charge_wave(
                Phase::List,
                lane_schedule(outcomes.iter().map(|o| o.virtual_ms), lanes),
            );
            for outcome in &outcomes {
                acc.absorb(outcome);
            }
            // Apply in offset order; the first terminal page wins.
            for outcome in outcomes {
                if out.exhausted || faulted {
                    break;
                }
                if is_fault_text(&outcome.completions[0].text) {
                    // A degraded page ends the ramp resumably: pages
                    // fired past it are waste (as with any speculative
                    // overshoot) and the frontier stays non-exhausted.
                    acc.failed_cells += 1;
                    faulted = true;
                    break;
                }
                match parse_list_answer(&outcome.completions[0].text) {
                    ListAnswer::Exhausted => out.exhausted = true,
                    ListAnswer::Values(values) => {
                        let raw = values.len();
                        if !absorb_page(values, &mut out.keys, &mut seen) || raw < page_est {
                            out.exhausted = true;
                        }
                    }
                }
            }
            offset += width_now * page_est;
            width = (width * 2).min(lanes.max(1));
        }
        out
    }

    /// Selection via boolean prompts: one "is its <attr> <op> <value>?"
    /// question per key per condition.
    ///
    /// Conditions stay in conjunctive short-circuit order (a key is only
    /// asked about condition *n + 1* if it survived condition *n* — the
    /// prompt-pruning the paper's operator relies on); the chunks *within*
    /// one condition are independent and run as one scheduler wave.
    fn apply_filters(
        &self,
        step: &LlmScanStep,
        keys: Vec<String>,
        scheduler: &Scheduler,
        acc: &mut StepStats,
    ) -> Vec<String> {
        if self.options.prompt_batch.is_on() {
            return self.apply_filters_batched(step, keys, scheduler, acc);
        }
        let lanes = self.options.parallelism.get();
        let batch = self.options.batch_size.max(1);
        let mut keys = keys;
        for condition in &step.filter_conditions {
            // The question is constant except for the key: render it once
            // and splice each key in. Each unit renders its own chunk, so
            // a wave holds one chunk of prompts per lane, not the phase's.
            let template =
                &self
                    .prompt_builder
                    .filter_template(&step.table, &step.key_attr, condition);
            let units: Vec<_> = keys
                .chunks(batch)
                .map(|chunk| {
                    move || {
                        let prompts: Vec<String> =
                            chunk.iter().map(|key| template.render(key)).collect();
                        self.client.complete_batch_outcome(&prompts)
                    }
                })
                .collect();
            let outcomes = scheduler.run_wave(units);
            acc.filter_prompts += keys.len();
            acc.charge_wave(
                Phase::Filter,
                lane_schedule(outcomes.iter().map(|o| o.virtual_ms), lanes),
            );
            let mut verdicts = Vec::with_capacity(keys.len());
            for outcome in &outcomes {
                acc.absorb(outcome);
                for completion in &outcome.completions {
                    if is_fault_text(&completion.text) {
                        // A degraded verdict keeps the tuple out, like any
                        // unparseable one, but is counted as a failed cell.
                        acc.failed_cells += 1;
                        verdicts.push(false);
                        continue;
                    }
                    // An unparseable verdict keeps the tuple out: the
                    // predicate did not evaluate to TRUE.
                    verdicts.push(parse_boolean_answer(&completion.text).unwrap_or(false));
                }
            }
            keys = keys
                .into_iter()
                .zip(verdicts)
                .filter_map(|(k, keep)| keep.then_some(k))
                .collect();
        }
        keys
    }

    /// One materialising row per key, in key order ([`key_row`]).
    fn key_rows(&self, step: &LlmScanStep, keys: &[String]) -> Vec<Vec<Value>> {
        keys.iter()
            .map(|key| key_row(key, step.columns(), step.key_index, &self.options.cleaning))
            .collect()
    }

    /// Workflow step (3) for one fetched cell, shared by every fetch
    /// variant of both engines: the answer becomes the column's typed
    /// value ([`cell_value`]); a degraded fetch (fault text) annotates the
    /// cell as NULL and counts as a failed cell.
    fn fetched_cell(&self, answer: &str, column: &Column, failed_cells: &mut usize) -> Value {
        if is_fault_text(answer) {
            *failed_cells += 1;
            Value::Null
        } else {
            cell_value(answer, column.data_type, &self.options.cleaning)
        }
    }

    /// Attribute retrieval: one prompt per (key, attribute), batched.
    ///
    /// Every `(column, chunk)` cell is independent — the whole phase is a
    /// single scheduler wave.
    fn fetch_attributes(
        &self,
        step: &LlmScanStep,
        keys: &[String],
        scheduler: &Scheduler,
        acc: &mut StepStats,
    ) -> Vec<Vec<Value>> {
        if self.options.prompt_batch.is_grid() {
            return self.fetch_attributes_grid(step, keys, scheduler, acc);
        }
        if self.options.prompt_batch.is_on() {
            return self.fetch_attributes_batched(step, keys, scheduler, acc);
        }
        let lanes = self.options.parallelism.get();
        let batch = self.options.batch_size.max(1);
        let mut rows = self.key_rows(step, keys);

        // The per-cell prompt is constant except for the key: render the
        // template once per column and splice each key in, instead of
        // re-formatting the whole question per (key, column) — the same
        // hoist shape as the batched protocol's `cell_column`. Each
        // unit renders its own chunk, so a wave holds one chunk of prompts
        // per lane, not the phase's.
        let templates: Vec<_> = step
            .fetch
            .iter()
            .map(|&col_idx| {
                let column = &step.columns()[col_idx];
                self.prompt_builder
                    .fetch_template(&step.table, &step.key_attr, &column.name)
            })
            .collect();

        let mut unit_columns: Vec<usize> = Vec::new(); // unit → column ordinal
        let mut units = Vec::new();
        for (ord, template) in templates.iter().enumerate() {
            for chunk in keys.chunks(batch) {
                unit_columns.push(ord);
                units.push(move || {
                    let prompts: Vec<String> =
                        chunk.iter().map(|key| template.render(key)).collect();
                    self.client.complete_batch_outcome(&prompts)
                });
            }
        }
        let outcomes = scheduler.run_wave(units);
        acc.charge_wave(
            Phase::Fetch,
            lane_schedule(outcomes.iter().map(|o| o.virtual_ms), lanes),
        );

        let mut answers: Vec<Vec<_>> = vec![Vec::new(); templates.len()];
        for (&ord, outcome) in unit_columns.iter().zip(outcomes) {
            acc.absorb(&outcome);
            acc.fetch_prompts += outcome.completions.len();
            answers[ord].extend(outcome.completions);
        }

        for (col_idx, col_answers) in step.fetch.iter().zip(answers) {
            let column = &step.columns()[*col_idx];
            for (row, completion) in rows.iter_mut().zip(col_answers) {
                row[*col_idx] = self.fetched_cell(&completion.text, column, &mut acc.failed_cells);
            }
        }

        rows
    }

    // -----------------------------------------------------------------
    // Multi-key batched retrieval (`PromptBatch::Keys(B)`)
    // -----------------------------------------------------------------

    /// Selection with the multi-key protocol: conditions keep their
    /// conjunctive short-circuit order, but within one condition the
    /// surviving keys are fused into `ceil(keys / B)` prompts instead of
    /// `keys`. An unparseable per-key verdict falls back to the single-key
    /// prompt before deciding; a key whose *fallback* verdict still fails
    /// to parse is kept out, exactly like the single-key path.
    fn apply_filters_batched(
        &self,
        step: &LlmScanStep,
        keys: Vec<String>,
        scheduler: &Scheduler,
        acc: &mut StepStats,
    ) -> Vec<String> {
        let mut keys = keys;
        for condition in &step.filter_conditions {
            let mut cells = self.run_batched_cells(
                step,
                vec![(BatchCell::Filter(condition), keys.as_slice())],
                Phase::Filter,
                scheduler,
                acc,
            );
            let (answers, prompts) = cells.pop().expect("one cell per condition");
            acc.filter_prompts += prompts;
            keys = keys
                .into_iter()
                .zip(answers)
                .filter_map(|(k, answer)| {
                    if is_fault_text(&answer) {
                        acc.failed_cells += 1;
                        return None;
                    }
                    parse_boolean_answer(&answer).unwrap_or(false).then_some(k)
                })
                .collect();
        }
        keys
    }

    /// Attribute retrieval with the multi-key protocol: every fetched
    /// column is one cell whose pending keys are fused into `ceil(keys /
    /// B)` prompts; all columns' batched prompts form one scheduler wave
    /// (and all columns' fallback re-asks a second, chained wave), like
    /// the single-key fetch phase's `(column × chunk)` wave.
    fn fetch_attributes_batched(
        &self,
        step: &LlmScanStep,
        keys: &[String],
        scheduler: &Scheduler,
        acc: &mut StepStats,
    ) -> Vec<Vec<Value>> {
        let mut rows = self.key_rows(step, keys);

        let cells: Vec<(BatchCell, &[String])> = step
            .fetch
            .iter()
            .map(|&col_idx| (BatchCell::Fetch(&step.columns()[col_idx].name), keys))
            .collect();
        let results = self.run_batched_cells(step, cells, Phase::Fetch, scheduler, acc);

        for (&col_idx, (answers, prompts)) in step.fetch.iter().zip(results) {
            acc.fetch_prompts += prompts;
            let column = &step.columns()[col_idx];
            for (row, answer) in rows.iter_mut().zip(answers) {
                row[col_idx] = self.fetched_cell(&answer, column, &mut acc.failed_cells);
            }
        }

        rows
    }

    /// Attribute retrieval with the grid protocol (`PromptBatch::Grid`):
    /// the fetched columns are grouped into attr-groups of up to `A`, and
    /// each group's pending keys are fused into `ceil(keys / B)` prompts
    /// asking *all* of the group's attributes at once — `ceil(C / A) ×
    /// ceil(keys / B)` prompts instead of `C × ceil(keys / B)`. Four
    /// stages, extending [`Galois::run_batched_cells`]'s three with the
    /// fallback ladder's middle rung:
    ///
    /// 1. **sub-entry extraction** per `(key, attr)` cell, through the
    ///    *same* per-attribute signatures the key-batched and single
    ///    paths use — grid answers serve later single-attr or key-batched
    ///    asks and vice versa, for free;
    /// 2. **grid prompts** — one chunk stream per attr-group over the
    ///    keys still missing *any* of the group's cells, one wave;
    /// 3. **per-attribute key-batch fallback** — cells whose grid line
    ///    failed to parse re-ask as [`TaskIntent::FetchAttrBatch`]
    ///    chunks, a second chained wave;
    /// 4. **per-key single fallback** — still-missing cells re-ask as
    ///    [`TaskIntent::FetchAttr`] singles, a third chained wave.
    ///
    /// Grid fusion may cost extra prompts (rungs 3 and 4), never
    /// accuracy: every cell ends answered by the same single-prompt
    /// semantics the ladder bottoms out in.
    fn fetch_attributes_grid(
        &self,
        step: &LlmScanStep,
        keys: &[String],
        scheduler: &Scheduler,
        acc: &mut StepStats,
    ) -> Vec<Vec<Value>> {
        let lanes = self.options.parallelism.get();
        let batch = self.options.batch_size.max(1);
        let fuse = self.options.prompt_batch.keys_per_prompt();
        let attr_fuse = self.options.prompt_batch.attrs_per_prompt();

        let mut rows = self.key_rows(step, keys);

        let n_cols = step.fetch.len();
        // Per-column sub-entry columns — the same cells the key-batched
        // and single-key fallback prompts store under.
        let columns: Vec<SubColumn> = step
            .fetch
            .iter()
            .map(|&col| self.cell_column(step, &BatchCell::Fetch(&step.columns()[col].name)))
            .collect();

        // Stage 1: per-(key, attr) sub-entry extraction.
        let mut answers: Vec<Vec<Option<String>>> = vec![vec![None; keys.len()]; n_cols];
        let mut pending: Vec<Vec<bool>> = vec![vec![false; keys.len()]; n_cols];
        for ci in 0..n_cols {
            for (i, key) in keys.iter().enumerate() {
                match self.client.extract_in(&columns[ci], key, str::to_string) {
                    SubLookup::Hit(answer) => {
                        acc.cache_hits += 1;
                        answers[ci][i] = Some(answer);
                    }
                    SubLookup::InFlight => {
                        acc.cache_hits += 1;
                        pending[ci][i] = true;
                    }
                    SubLookup::Miss => pending[ci][i] = true,
                }
            }
        }

        // Stage 2: grid prompts — a chunk stream per attr-group (columns
        // `step.fetch[start..start + len]`), all groups in one wave. A
        // key joins a group's chunks when *any* of the group's cells is
        // still missing; already-cached cells of that key are simply
        // skipped at parse time (first answer wins).
        let groups: Vec<(usize, usize)> = (0..n_cols)
            .step_by(attr_fuse)
            .map(|start| (start, attr_fuse.min(n_cols - start)))
            .collect();
        let mut chunk_groups: Vec<usize> = Vec::new();
        let mut chunk_members: Vec<Vec<usize>> = Vec::new();
        let mut chunk_prompts: Vec<String> = Vec::new();
        for (gi, &(start, len)) in groups.iter().enumerate() {
            let members: Vec<usize> = (0..keys.len())
                .filter(|&i| {
                    (start..start + len).any(|ci| pending[ci][i] && answers[ci][i].is_none())
                })
                .collect();
            for chunk in members.chunks(fuse) {
                let chunk_keys: Vec<String> = chunk.iter().map(|&i| keys[i].clone()).collect();
                chunk_prompts.push(
                    self.prompt_builder
                        .task(&self.grid_intent(step, start, len, chunk_keys)),
                );
                chunk_groups.push(gi);
                chunk_members.push(chunk.to_vec());
            }
        }
        acc.fetch_prompts += chunk_prompts.len();
        let completions = self.run_cell_wave(
            &chunk_prompts,
            &chunk_groups,
            batch,
            lanes,
            Phase::Fetch,
            scheduler,
            acc,
        );
        for ((&gi, members), completion) in chunk_groups.iter().zip(&chunk_members).zip(completions)
        {
            let (start, len) = groups[gi];
            let pads = grid_pad_columns(step, start, len, attr_fuse);
            let pad_columns: Vec<SubColumn> = pads
                .iter()
                .map(|&c| self.cell_column(step, &BatchCell::Fetch(&step.columns()[c].name)))
                .collect();
            let chunk_keys: Vec<String> = members.iter().map(|&i| keys[i].clone()).collect();
            let attr_names: Vec<String> = (start..start + len)
                .map(|ci| step.columns()[step.fetch[ci]].name.clone())
                .chain(pads.iter().map(|&c| step.columns()[c].name.clone()))
                .collect();
            let mut cells = split_grid_answer(&completion.text, &chunk_keys, &attr_names);
            for (ki, &i) in members.iter().enumerate() {
                for (ord, ci) in (start..start + len).enumerate() {
                    if !pending[ci][i] || answers[ci][i].is_some() {
                        continue;
                    }
                    if let Some(answer) = cells[ki][ord].take() {
                        self.client.store_in(&columns[ci], &keys[i], &answer);
                        answers[ci][i] = Some(answer);
                    }
                }
                // Speculative pad cells only seed the sub-entry store —
                // they never feed rows and never enter the fallback
                // ladder (first stored write wins, so a pad can't flap an
                // already-extracted cell).
                for (pi, column) in pad_columns.iter().enumerate() {
                    if let Some(answer) = cells[ki][len + pi].take() {
                        self.client.store_in(column, &keys[i], &answer);
                    }
                }
            }
        }

        // Stage 3: per-attribute key-batch fallback, a chained wave.
        let mut fb_cols: Vec<usize> = Vec::new();
        let mut fb_members: Vec<Vec<usize>> = Vec::new();
        let mut fb_prompts: Vec<String> = Vec::new();
        for ci in 0..n_cols {
            let rem: Vec<usize> = (0..keys.len())
                .filter(|&i| pending[ci][i] && answers[ci][i].is_none())
                .collect();
            for chunk in rem.chunks(fuse) {
                let chunk_keys: Vec<String> = chunk.iter().map(|&i| keys[i].clone()).collect();
                let cell = BatchCell::Fetch(&step.columns()[step.fetch[ci]].name);
                fb_prompts.push(
                    self.prompt_builder
                        .task(&self.cell_batched_intent(step, &cell, chunk_keys)),
                );
                fb_cols.push(ci);
                fb_members.push(chunk.to_vec());
            }
        }
        acc.fetch_prompts += fb_prompts.len();
        let completions = self.run_cell_wave(
            &fb_prompts,
            &fb_cols,
            batch,
            lanes,
            Phase::Fetch,
            scheduler,
            acc,
        );
        for ((&ci, members), completion) in fb_cols.iter().zip(&fb_members).zip(completions) {
            let chunk_keys: Vec<String> = members.iter().map(|&i| keys[i].clone()).collect();
            for (&i, sub) in members
                .iter()
                .zip(split_batched_answer(&completion.text, &chunk_keys))
            {
                if let Some(answer) = sub {
                    self.client.store_in(&columns[ci], &keys[i], &answer);
                    answers[ci][i] = Some(answer);
                }
            }
        }

        // Stage 4: per-key single fallback, the ladder's bottom rung.
        let mut single_cols: Vec<usize> = Vec::new();
        let mut single_keys: Vec<usize> = Vec::new();
        let mut single_prompts: Vec<String> = Vec::new();
        for ci in 0..n_cols {
            for i in 0..keys.len() {
                if pending[ci][i] && answers[ci][i].is_none() {
                    let cell = BatchCell::Fetch(&step.columns()[step.fetch[ci]].name);
                    single_prompts.push(
                        self.prompt_builder
                            .task(&self.cell_single_intent(step, &cell, &keys[i])),
                    );
                    single_cols.push(ci);
                    single_keys.push(i);
                }
            }
        }
        acc.fetch_prompts += single_prompts.len();
        let completions = self.run_cell_wave(
            &single_prompts,
            &single_cols,
            batch,
            lanes,
            Phase::Fetch,
            scheduler,
            acc,
        );
        for ((&ci, &i), completion) in single_cols.iter().zip(&single_keys).zip(completions) {
            self.client
                .store_in(&columns[ci], &keys[i], &completion.text);
            answers[ci][i] = Some(completion.text);
        }

        for (ci, &col_idx) in step.fetch.iter().enumerate() {
            let column = &step.columns()[col_idx];
            for (i, row) in rows.iter_mut().enumerate() {
                let answer = answers[ci][i]
                    .take()
                    .expect("every grid cell answered by sub-entry, grid, batch or fallback");
                row[col_idx] = self.fetched_cell(&answer, column, &mut acc.failed_cells);
            }
        }

        rows
    }

    /// The grid intent for one chunk of keys × one contiguous attr-group
    /// of the step's fetched columns (`step.fetch[start..start + len]`),
    /// plus the group's speculative pad columns ([`grid_pad_columns`]).
    fn grid_intent(
        &self,
        step: &LlmScanStep,
        start: usize,
        len: usize,
        chunk_keys: Vec<String>,
    ) -> TaskIntent {
        let attr_fuse = self.options.prompt_batch.attrs_per_prompt();
        let pads = grid_pad_columns(step, start, len, attr_fuse);
        TaskIntent::FetchGridBatch {
            relation: step.table.clone(),
            key_attr: step.key_attr.clone(),
            keys: chunk_keys,
            attributes: step.fetch[start..start + len]
                .iter()
                .chain(pads.iter())
                .map(|&c| step.columns()[c].name.clone())
                .collect(),
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

    /// The single-key fallback intent for one of a cell's keys.
    fn cell_single_intent(&self, step: &LlmScanStep, cell: &BatchCell, key: &str) -> TaskIntent {
        match cell {
            BatchCell::Filter(c) => TaskIntent::CheckFilter {
                relation: step.table.clone(),
                key_attr: step.key_attr.clone(),
                key: key.to_string(),
                condition: (*c).clone(),
            },
            BatchCell::Fetch(attribute) => TaskIntent::FetchAttr {
                relation: step.table.clone(),
                key_attr: step.key_attr.clone(),
                key: key.to_string(),
                attribute: (*attribute).to_string(),
            },
        }
    }

    /// Answers every `(cell, key)` pair of one retrieval phase through the
    /// multi-key protocol. Three stages:
    ///
    /// 1. **sub-entry extraction** — keys already answered by an earlier
    ///    batched or single prompt are served from the client's per-key
    ///    cache (counted as cache hits, zero prompts, zero virtual time);
    /// 2. **batched prompts** — each cell's pending keys are fused into
    ///    `ceil(pending / B)` prompts, grouped per cell into client
    ///    batches of `batch_size`, all cells in one scheduler wave;
    /// 3. **fallback** — any key whose batched answer failed to parse is
    ///    re-asked with its single-key prompt in a second, chained wave
    ///    (batching may cost prompts, never accuracy).
    ///
    /// Returns, per cell, one answer string per key (aligned with the
    /// cell's key slice) and the number of prompts issued for it.
    fn run_batched_cells(
        &self,
        step: &LlmScanStep,
        cells: Vec<(BatchCell, &[String])>,
        phase: Phase,
        scheduler: &Scheduler,
        acc: &mut StepStats,
    ) -> Vec<(Vec<String>, usize)> {
        let lanes = self.options.parallelism.get();
        let batch = self.options.batch_size.max(1);
        let fuse = self.options.prompt_batch.keys_per_prompt();

        struct CellState {
            answers: Vec<Option<String>>,
            pending: Vec<usize>,
            prompts: usize,
        }

        // Each cell's column is resolved once; the per-key loops below
        // ask it by key alone.
        let columns: Vec<SubColumn> = cells
            .iter()
            .map(|(cell, _)| self.cell_column(step, cell))
            .collect();

        // Stage 1: per-key sub-entry extraction.
        let mut states: Vec<CellState> = cells
            .iter()
            .zip(&columns)
            .map(|((_, keys), column)| {
                let mut answers = vec![None; keys.len()];
                let mut pending = Vec::new();
                for (i, key) in keys.iter().enumerate() {
                    match self.client.extract_in(column, key, str::to_string) {
                        SubLookup::Hit(answer) => {
                            acc.cache_hits += 1;
                            answers[i] = Some(answer);
                        }
                        // In flight elsewhere: already billed as a hit by
                        // the client; re-ask rather than block so prompt
                        // counts stay a local decision (determinism note
                        // on [`LlmClient::extract_in`]).
                        SubLookup::InFlight => {
                            acc.cache_hits += 1;
                            pending.push(i);
                        }
                        SubLookup::Miss => pending.push(i),
                    }
                }
                CellState {
                    answers,
                    pending,
                    prompts: 0,
                }
            })
            .collect();

        // Stage 2: batched prompts, one wave across all cells.
        let mut chunk_cells: Vec<usize> = Vec::new();
        let mut chunk_members: Vec<Vec<usize>> = Vec::new();
        let mut chunk_prompts: Vec<String> = Vec::new();
        for (ci, (cell, keys)) in cells.iter().enumerate() {
            for chunk in states[ci].pending.chunks(fuse) {
                let chunk_keys: Vec<String> = chunk.iter().map(|&i| keys[i].clone()).collect();
                chunk_prompts.push(
                    self.prompt_builder
                        .task(&self.cell_batched_intent(step, cell, chunk_keys)),
                );
                chunk_cells.push(ci);
                chunk_members.push(chunk.to_vec());
            }
            states[ci].prompts += states[ci].pending.len().div_ceil(fuse);
        }
        let completions = self.run_cell_wave(
            &chunk_prompts,
            &chunk_cells,
            batch,
            lanes,
            phase,
            scheduler,
            acc,
        );
        for ((&ci, members), completion) in chunk_cells.iter().zip(&chunk_members).zip(completions)
        {
            let (_, keys) = &cells[ci];
            let chunk_keys: Vec<String> = members.iter().map(|&i| keys[i].clone()).collect();
            for (&i, sub) in members
                .iter()
                .zip(split_batched_answer(&completion.text, &chunk_keys))
            {
                if let Some(answer) = sub {
                    self.client.store_in(&columns[ci], &keys[i], &answer);
                    states[ci].answers[i] = Some(answer);
                }
            }
        }

        // Stage 3: per-key fallback re-asks, a second chained wave.
        let mut fb_cells: Vec<usize> = Vec::new();
        let mut fb_keys: Vec<usize> = Vec::new();
        let mut fb_prompts: Vec<String> = Vec::new();
        for (ci, (cell, keys)) in cells.iter().enumerate() {
            let before = fb_prompts.len();
            for &i in &states[ci].pending {
                if states[ci].answers[i].is_none() {
                    fb_prompts.push(
                        self.prompt_builder
                            .task(&self.cell_single_intent(step, cell, &keys[i])),
                    );
                    fb_cells.push(ci);
                    fb_keys.push(i);
                }
            }
            states[ci].prompts += fb_prompts.len() - before;
        }
        let completions =
            self.run_cell_wave(&fb_prompts, &fb_cells, batch, lanes, phase, scheduler, acc);
        for ((&ci, &i), completion) in fb_cells.iter().zip(&fb_keys).zip(completions) {
            let (_, keys) = &cells[ci];
            self.client
                .store_in(&columns[ci], &keys[i], &completion.text);
            states[ci].answers[i] = Some(completion.text);
        }

        states
            .into_iter()
            .map(|st| {
                let answers = st
                    .answers
                    .into_iter()
                    .map(|a| a.expect("every key answered by sub-entry, batch or fallback"))
                    .collect();
                (answers, st.prompts)
            })
            .collect()
    }

    /// Runs one wave of cell prompts: consecutive prompts of the same cell
    /// are grouped into client batches of up to `batch` members (client
    /// batches never span cells, mirroring the single-key phases), the
    /// wave's virtual makespan is added to the step clock, and the
    /// completions come back flattened in prompt order.
    #[allow(clippy::too_many_arguments)]
    fn run_cell_wave(
        &self,
        prompts: &[String],
        prompt_cells: &[usize],
        batch: usize,
        lanes: usize,
        phase: Phase,
        scheduler: &Scheduler,
        acc: &mut StepStats,
    ) -> Vec<galois_llm::Completion> {
        if prompts.is_empty() {
            return Vec::new();
        }
        let mut bounds: Vec<(usize, usize)> = Vec::new();
        let mut start = 0;
        while start < prompts.len() {
            let mut end = start + 1;
            while end < prompts.len()
                && prompt_cells[end] == prompt_cells[start]
                && end - start < batch
            {
                end += 1;
            }
            bounds.push((start, end));
            start = end;
        }
        let units: Vec<_> = bounds
            .iter()
            .map(|&(s, e)| {
                let slice = &prompts[s..e];
                move || self.client.complete_batch_outcome(slice)
            })
            .collect();
        let outcomes = scheduler.run_wave(units);
        acc.charge_wave(
            phase,
            lane_schedule(outcomes.iter().map(|o| o.virtual_ms), lanes),
        );
        let mut completions = Vec::with_capacity(prompts.len());
        for outcome in outcomes {
            // Multi-key-protocol prompts: key-level hits were already
            // billed by signature at sub-entry extraction.
            acc.absorb_keyed(&outcome);
            completions.extend(outcome.completions);
        }
        completions
    }
}

/// One retrieval cell of the batched protocol: a filter condition, or a
/// fetched attribute.
enum BatchCell<'a> {
    /// Boolean check of one condition over the cell's keys.
    Filter(&'a Condition),
    /// Fetch of one attribute over the cell's keys.
    Fetch(&'a str),
}

/// Folds one step's accounting into the query stats — everything except
/// the packed virtual clock, which each dataflow computes its own way
/// (wave: lane-packed step times; streaming: the event simulation's
/// makespan).
fn fold_step_stats(stats: &mut QueryStats, step: &StepStats) {
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

/// Result of a key-listing scan: the keys plus the store bookkeeping
/// ([`KeyUniverse`]) needed to publish them — how many list prompts the
/// universe cost and whether the model was paged to exhaustion (vs the
/// iteration cap cutting the frontier short).
struct ScanOutcome {
    keys: Vec<String>,
    iterations: usize,
    exhausted: bool,
}

/// Folds one list page's raw values into `keys`/`seen` (cleaning each
/// surface and deduplicating case-insensitively, exactly like classic
/// paging). Returns `false` when the page contributed nothing new — the
/// universe is exhausted.
fn absorb_page(
    values: Vec<String>,
    keys: &mut Vec<String>,
    seen: &mut std::collections::HashSet<String>,
) -> bool {
    let mut got_new = false;
    for v in values {
        let cleaned = normalise_text(&v);
        if cleaned.is_empty() {
            continue;
        }
        if seen.insert(cleaned.to_ascii_lowercase()) {
            keys.push(cleaned);
            got_new = true;
        }
    }
    got_new
}

/// Materialises retrieved rows as a step's temporary table under the
/// schema compiled with the step (stored column order, everything but the
/// key nullable). Rows whose key failed to clean are unusable and dropped;
/// duplicate keys (hallucinated repeats) are dropped silently, the first
/// occurrence winning — the key-identifies-tuple assumption is enforced
/// here.
fn materialise_step(step: &LlmScanStep, rows: Vec<Vec<Value>>) -> Table {
    let mut table = Table::with_capacity(
        step.temp_name.clone(),
        Arc::clone(&step.temp_schema),
        rows.len(),
    );
    for row in rows {
        if row[step.key_index].is_null() {
            continue;
        }
        let _ = table.insert(row);
    }
    table
}

// ---------------------------------------------------------------------
// Pipelined streaming retrieval (`Pipeline::Streaming`)
// ---------------------------------------------------------------------

impl Galois {
    /// Executes a compiled query with the streaming dataflow: all steps
    /// share one event-driven simulation ([`galois_llm::EventClock`])
    /// instead of barrier-separated waves. See [`Pipeline`] for the
    /// dataflow and its invariants.
    fn execute_compiled_streaming(&self, compiled: &CompiledQuery) -> Result<GaloisResult> {
        self.execute_compiled_streaming_traced(compiled)
            .map(|(result, _)| result)
    }

    /// [`Galois::execute_compiled_streaming`] plus the run's task trace —
    /// every scheduled task's `(release, duration, completion)` on the
    /// private clock, in fire order. The trace is what the cross-query
    /// replay ([`crate::multi`]) re-packs onto a shared lane pool.
    fn execute_compiled_streaming_traced(
        &self,
        compiled: &CompiledQuery,
    ) -> Result<(GaloisResult, Vec<TracedTask>)> {
        let started = Instant::now();
        let mut sim = StreamSim::new(self, compiled);
        sim.run();

        let mut stats = QueryStats::default();
        fold_step_stats(&mut stats, &sim.acc);
        stats.virtual_ms = sim.clock.makespan();
        let trace = sim.trace;
        // `sim.steps` was built from `compiled.steps`, in order.
        let step_rows = sim.steps.into_iter().map(|run| {
            run.slots
                .into_iter()
                .filter(|slot| slot.alive)
                .map(|slot| slot.row)
                .collect()
        });
        let relation = self.materialise_and_execute(compiled, step_rows, &mut stats)?;
        stats.wall_ms = started.elapsed().as_millis() as u64;
        Ok((GaloisResult { relation, stats }, trace))
    }

    /// Executes one query through the streaming engine, returning the
    /// result plus the run's task trace for cross-query replay. Mirrors
    /// [`Galois::execute`] exactly (same planner paths, same calibration
    /// freeze); `EXPLAIN` statements return their plan relation with an
    /// empty trace. Requires [`Pipeline::Streaming`].
    pub(crate) fn execute_traced(&self, sql: &str) -> Result<(GaloisResult, Vec<TracedTask>)> {
        if !self.options.pipeline.is_streaming() {
            return Err(GaloisError::Unsupported(
                "cross-query scheduling requires Pipeline::Streaming (the wave dataflow \
                 has no task trace to replay)"
                    .to_string(),
            ));
        }
        match self.prepare(sql)? {
            Prepared::Explain(relation) => Ok((
                GaloisResult {
                    relation,
                    stats: QueryStats::default(),
                },
                Vec::new(),
            )),
            Prepared::Compiled(compiled) => self.execute_compiled_streaming_traced(&compiled),
        }
    }
}

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

/// One retrieval cell of a streaming stage, by index into the step (the
/// borrowed [`BatchCell`] form is reconstructed on demand).
#[derive(Debug, Clone, Copy)]
enum StageCell {
    /// Index into `step.filter_conditions`.
    Filter(usize),
    /// `col` indexes `step.columns()`; the stage sits at position
    /// `n_filters + ord` in the stage list.
    Fetch { col: usize },
    /// One attr-group of the grid protocol: the columns
    /// `step.fetch[start..start + len]`, fused into one prompt stream.
    /// Survivors fan out to per-group micro-batches instead of
    /// per-column ones.
    Grid { start: usize, len: usize },
}

/// One micro-batch accumulator of the streaming dataflow: a filter
/// condition or a fetched column of one step.
#[derive(Debug)]
struct StageState {
    cell: StageCell,
    /// Sub-entry columns of the stage's cells (empty when the multi-key
    /// protocol is off — plain single-key prompts bypass the sub-entry
    /// store, exactly like the wave pipeline). Single-cell stages use
    /// `[0]`; a grid stage holds one per attr ordinal.
    sub_columns: Vec<SubColumn>,
    /// Key slots accumulated towards the next micro-batch (always fewer
    /// than the fuse factor — full batches fire immediately).
    pending: Vec<usize>,
    /// Micro-batches and fallback re-asks in flight.
    inflight: usize,
    /// `(slot, attr ordinal)` cells already consumed at a grid stage —
    /// grid chunks carry keys with *some* cells still cached or
    /// re-delivered, and an answered cell must neither re-consume nor
    /// re-enter the fallback ladder (mirrors the wave path's
    /// `pending && answers.is_none()` guard). Unused at single-cell
    /// stages.
    answered: AnsweredCells,
    /// True once the producing stage (list page stream, or the previous
    /// filter) can no longer deliver keys.
    upstream_drained: bool,
    /// True once this stage has seen its last key and answered it.
    drained: bool,
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
/// its materialising row.
#[derive(Debug)]
struct KeySlot {
    alive: bool,
    row: Vec<Value>,
}

impl KeySlot {
    /// The slot of a freshly listed (or stored) key of `step`: alive, its
    /// row blank but for the key cell ([`key_row`]).
    fn new(key: &str, step: &LlmScanStep, cleaning: &CleaningPolicy) -> Self {
        KeySlot {
            alive: true,
            row: key_row(key, step.columns(), step.key_index, cleaning),
        }
    }
}

/// Speculative list-paging state of one cold-concept step (store on):
/// offset pages in flight, their buffered answers, and the widening wave
/// ramp. See [`Galois::scan_keys_speculative`] for the protocol — the
/// stream version fires the same pages at the same iteration budget, with
/// a wave barrier (the next wave fires only when the current one has
/// fully landed) so stream and wave mode count iterations identically.
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
    buffered: std::collections::BTreeMap<usize, String>,
}

impl SpecState {
    fn new() -> Self {
        SpecState {
            page_est: 0,
            next_offset: 0,
            width: 1,
            inflight: 0,
            buffered: std::collections::BTreeMap::new(),
        }
    }
}

/// Per-step dataflow state of the streaming simulation.
struct StepRun<'a> {
    step: &'a LlmScanStep,
    /// A terminal stored universe, served as is: the store's own list,
    /// shared, which no page can follow — so nothing is cleaned,
    /// de-duplicated or copied out of it (the wave engine's warm read
    /// trusts it the same way). `None` when this run lists its keys.
    stored: Option<Arc<[String]>>,
    /// The keys this run listed, in discovery order — also the exclusion
    /// list rendered into each list iteration's prompt (shared behind an
    /// `Arc`, exactly like the wave scan). Empty under `stored`.
    exclude: Arc<Vec<String>>,
    /// Case-folded dedup of the listed keys.
    seen: std::collections::HashSet<String>,
    /// List iterations fired so far.
    iterations: usize,
    /// Key slots in discovery order — rows materialise in this order, so
    /// streaming reproduces the wave pipeline's row order exactly.
    slots: Vec<KeySlot>,
    /// Filter stages (in conjunction order) followed by fetch stages.
    stages: Vec<StageState>,
    n_filters: usize,
    /// Key-universe store concept to publish at list finish (`None` when
    /// the store is off, or when the universe was served warm and needs
    /// no re-publish).
    concept: Option<String>,
    /// Whether the key stream ended by exhaustion (terminal page) rather
    /// than the iteration cap — the stored universe's `exhausted` flag.
    list_exhausted: bool,
    /// Guards the one-shot list-finish bookkeeping (publish).
    list_done: bool,
    /// Speculative paging state (cold concept with the store on).
    spec: Option<SpecState>,
}

impl StepRun<'_> {
    /// The step's keys in discovery order: `keys()[slot]` is the key of
    /// `slots[slot]`.
    fn keys(&self) -> &[String] {
        self.stored.as_deref().unwrap_or(&self.exclude)
    }
}

/// What one key's answer decides at a single-cell stage.
enum Landed {
    /// A filter verdict: whether the key survives the condition.
    Verdict(bool),
    /// A fetched cell, typed.
    Value(Value),
}

impl Galois {
    /// Parses one key's answer at a single-cell streaming stage. An
    /// unparseable verdict keeps the tuple out, exactly like the wave
    /// pipeline; a degraded one (fault text) does too, and counts as a
    /// failed cell.
    fn parse_stage_answer(
        &self,
        step: &LlmScanStep,
        cell: StageCell,
        answer: &str,
        failed_cells: &mut usize,
    ) -> Landed {
        match cell {
            StageCell::Filter(_) if is_fault_text(answer) => {
                *failed_cells += 1;
                Landed::Verdict(false)
            }
            StageCell::Filter(_) => Landed::Verdict(parse_boolean_answer(answer).unwrap_or(false)),
            StageCell::Fetch { col } => {
                Landed::Value(self.fetched_cell(answer, &step.columns()[col], failed_cells))
            }
            StageCell::Grid { .. } => {
                unreachable!("grid cells consume through consume_fetch_value directly")
            }
        }
    }
}

/// What a fired task is: one list iteration, one speculative offset page,
/// one multi-key micro-batch, or one single-key prompt (a batched-mode
/// fallback re-ask, or the entire dataflow when batching is off).
#[derive(Debug)]
enum FireTarget {
    List,
    ListPage {
        offset: usize,
    },
    Chunk {
        stage: usize,
        members: Vec<usize>,
    },
    Single {
        stage: usize,
        member: usize,
    },
    /// Middle rung of the grid fallback ladder: the failed cells of one
    /// attr (ordinal `attr` of a grid stage) re-asked as a per-attribute
    /// key batch ([`TaskIntent::FetchAttrBatch`]).
    AttrChunk {
        stage: usize,
        attr: usize,
        members: Vec<usize>,
    },
    /// Bottom rung: one grid cell re-asked as a single-key prompt.
    GridSingle {
        stage: usize,
        attr: usize,
        member: usize,
    },
}

/// A task fired during event processing, executed and scheduled when the
/// event's processing completes.
struct Fire {
    step: usize,
    target: FireTarget,
}

/// A task-completion event of the simulation, ordered by `(time, seq)` so
/// simultaneous completions resolve in creation order — the simulation is
/// a pure function of the work, never of thread timing.
struct StreamEvent {
    time: u64,
    seq: u64,
    step: usize,
    target: FireTarget,
    completion: galois_llm::Completion,
}

impl PartialEq for StreamEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for StreamEvent {}
impl PartialOrd for StreamEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for StreamEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The event-driven simulation driving one streaming query: a min-heap of
/// completion events, an [`EventClock`] assigning fired tasks to virtual
/// lanes, and per-step dataflow state.
///
/// Prompts are *executed* (against the real client, inline or across the
/// session's [`Crew`]) at fire time, because a task's virtual
/// duration — cache hit or model latency — is only known once it has run;
/// its parsed effects are then applied at its simulated completion time,
/// which is what releases downstream work.
struct StreamSim<'a> {
    session: &'a Galois,
    clock: galois_llm::EventClock,
    events: std::collections::BinaryHeap<std::cmp::Reverse<StreamEvent>>,
    next_seq: u64,
    steps: Vec<StepRun<'a>>,
    acc: StepStats,
    /// Multi-key protocol on (mirrors `prompt_batch.is_on()`).
    batched: bool,
    /// Keys per micro-batch (`B`; 1 when batching is off).
    fuse: usize,
    /// LIMIT window size (`n + offset`) when early stop applies: the
    /// session enables [`EarlyStop::Limit`] *and* the residual plan is a
    /// plain window over this (single) step's scan
    /// ([`crate::compile::limit_hint`]). `None` runs to exhaustion.
    limit: Option<usize>,
    /// Per-slot "survived every filter verdict" flags of the sole step
    /// (only maintained when `limit` is set).
    confirmed: Vec<bool>,
    /// Count of `true` flags in `confirmed`.
    confirmed_total: usize,
    /// Every scheduled task's `(release, duration, completion)` in fire
    /// order — the replayable schedule cross-query mode re-packs onto a
    /// shared lane pool.
    trace: Vec<TracedTask>,
}

impl<'a> StreamSim<'a> {
    fn new(session: &'a Galois, compiled: &'a CompiledQuery) -> Self {
        let batched = session.options.prompt_batch.is_on();
        let grid = session.options.prompt_batch.is_grid();
        let attr_fuse = session.options.prompt_batch.attrs_per_prompt();
        let blank_stage = |cell| StageState {
            cell,
            sub_columns: Vec::new(),
            pending: Vec::new(),
            inflight: 0,
            answered: AnsweredCells::new(match cell {
                StageCell::Grid { len, .. } => len,
                StageCell::Filter(_) | StageCell::Fetch { .. } => 1,
            }),
            upstream_drained: false,
            drained: false,
        };
        let steps = compiled
            .steps
            .iter()
            .map(|step| {
                let mut stages: Vec<StageState> = Vec::new();
                for i in 0..step.filter_conditions.len() {
                    stages.push(blank_stage(StageCell::Filter(i)));
                }
                if grid {
                    let n_cols = step.fetch.len();
                    let mut start = 0;
                    while start < n_cols {
                        let len = attr_fuse.min(n_cols - start);
                        stages.push(blank_stage(StageCell::Grid { start, len }));
                        start += len;
                    }
                } else {
                    for &col in &step.fetch {
                        stages.push(blank_stage(StageCell::Fetch { col }));
                    }
                }
                if batched {
                    for stage in &mut stages {
                        let column = |cell: &BatchCell| session.cell_column(step, cell);
                        stage.sub_columns = match stage.cell {
                            // Group ordinals first, then the group's
                            // speculative pad columns — the same attr
                            // order the grid prompt renders.
                            StageCell::Grid { start, len } => step.fetch[start..start + len]
                                .iter()
                                .chain(grid_pad_columns(step, start, len, attr_fuse).iter())
                                .map(|&c| column(&BatchCell::Fetch(&step.columns()[c].name)))
                                .collect(),
                            cell => vec![column(&stage_cell(step, cell))],
                        };
                    }
                }
                StepRun {
                    step,
                    stored: None,
                    exclude: Arc::new(Vec::new()),
                    seen: std::collections::HashSet::new(),
                    iterations: 0,
                    slots: Vec::new(),
                    stages,
                    n_filters: step.filter_conditions.len(),
                    concept: None,
                    list_exhausted: false,
                    list_done: false,
                    spec: None,
                }
            })
            .collect();
        let limit = if session.options.early_stop.is_on() {
            crate::compile::limit_hint(compiled)
        } else {
            None
        };
        StreamSim {
            session,
            clock: galois_llm::EventClock::new(session.options.parallelism.get()),
            events: std::collections::BinaryHeap::new(),
            next_seq: 0,
            steps,
            acc: StepStats::default(),
            batched,
            fuse: session.options.prompt_batch.keys_per_prompt(),
            limit,
            confirmed: Vec::new(),
            confirmed_total: 0,
            trace: Vec::new(),
        }
    }

    // --- LIMIT-aware early termination -------------------------------

    /// True once the LIMIT window is covered by confirmed survivors —
    /// the signal that stops list paging. In-flight filter verdicts
    /// contribute nothing until they land, so coverage is never
    /// speculative.
    fn limit_covered(&self) -> bool {
        self.limit.is_some_and(|n| self.confirmed_total >= n)
    }

    /// True when at least `n` slots strictly before `slot` (discovery
    /// order) are confirmed survivors. Rows materialise in slot order, so
    /// `slot` can then never surface inside a window of `n`. The prefix is
    /// only counted once the total reaches `n` — until then the answer is
    /// no for every slot, which keeps a listing linear in its keys.
    fn prefix_covers(&self, slot: usize, n: usize) -> bool {
        self.confirmed_total >= n && self.confirmed.iter().take(slot).filter(|&&c| c).count() >= n
    }

    /// Marks one slot as having survived every filter verdict.
    fn confirm_survivor(&mut self, slot: usize) {
        if self.confirmed.len() <= slot {
            self.confirmed.resize(slot + 1, false);
        }
        if !self.confirmed[slot] {
            self.confirmed[slot] = true;
            self.confirmed_total += 1;
        }
    }

    /// Runs the simulation to quiescence: every step's key stream listed,
    /// filtered, fetched and drained.
    ///
    /// Each iteration resolves one virtual instant completely — every
    /// event carrying that timestamp is processed (in creation order)
    /// before anything fires, so simultaneous chunk completions pool
    /// their deliveries into the accumulators instead of fragmenting
    /// them. Only then does the idle-lane flush run: partial micro-batches
    /// held while lanes sit idle are pure latency, so idle capacity at the
    /// resolved instant releases them early.
    fn run(&mut self) {
        let mut fires = Vec::new();
        for s in 0..self.steps.len() {
            self.start_step(s, &mut fires);
        }
        self.execute_fires(0, fires);
        while let Some(std::cmp::Reverse(head)) = self.events.peek() {
            let t = head.time;
            let mut fires = Vec::new();
            while let Some(std::cmp::Reverse(head)) = self.events.peek() {
                if head.time != t {
                    break;
                }
                let std::cmp::Reverse(event) = self.events.pop().expect("peeked event");
                self.process(event, &mut fires);
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
        for s in 0..self.steps.len() {
            for g in 0..self.steps[s].stages.len() {
                if !self.steps[s].stages[g].pending.is_empty() {
                    let members = std::mem::take(&mut self.steps[s].stages[g].pending);
                    self.fire_chunk(s, g, members, &mut fires);
                }
            }
        }
        self.execute_fires(t, fires);
    }

    /// Starts one step's key stream at `t = 0`: classic list paging when
    /// the store is off; otherwise a warm universe is injected at zero
    /// prompt cost (its stored iterations billed as cache hits, exactly
    /// like the wave path), a partial frontier is injected and classic
    /// paging resumes after it, and a cold concept lists speculatively.
    fn start_step(&mut self, s: usize, fires: &mut Vec<Fire>) {
        let cap = self.session.options.max_list_iterations;
        if cap == 0 {
            self.finish_list(s, 0, fires);
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
                self.acc.cache_hits += stored.iterations;
                let cleaning = &self.session.options.cleaning;
                let run = &mut self.steps[s];
                run.slots = stored
                    .keys
                    .iter()
                    .map(|key| KeySlot::new(key, run.step, cleaning))
                    .collect();
                run.stored = Some(stored.keys);
                run.iterations = stored.iterations;
                run.list_exhausted = stored.exhausted;
                for slot in 0..self.steps[s].slots.len() {
                    self.enter_dataflow(s, slot, 0, fires);
                }
                // Warm service re-publishes nothing: `concept` stays
                // `None`, so `finish_list` skips the store.
                self.finish_list(s, 0, fires);
            }
            Some(stored) => {
                self.acc.cache_hits += stored.iterations;
                self.absorb_stream_page(s, &stored.keys, 0, fires);
                self.steps[s].iterations = stored.iterations;
                self.steps[s].concept = Some(concept);
                if self.limit_covered() {
                    self.finish_list(s, 0, fires);
                } else {
                    self.fire_list(s, fires);
                }
            }
            None => {
                self.steps[s].concept = Some(concept);
                self.steps[s].spec = Some(SpecState::new());
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
    /// by the remaining iteration budget). The probe wave is one page
    /// wide — the estimate may already be the whole universe.
    fn fire_spec_wave(&mut self, s: usize, fires: &mut Vec<Fire>) {
        let cap = self.session.options.max_list_iterations;
        let lanes = self.session.options.parallelism.get();
        let iterations = self.steps[s].iterations;
        let run = &mut self.steps[s];
        let spec = run.spec.as_mut().expect("spec wave outside spec mode");
        let width_now = spec.width.min(cap.saturating_sub(iterations)).max(1);
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

    fn fire_chunk(&mut self, s: usize, stage: usize, members: Vec<usize>, fires: &mut Vec<Fire>) {
        self.steps[s].stages[stage].inflight += 1;
        let target = if self.batched {
            FireTarget::Chunk { stage, members }
        } else {
            debug_assert_eq!(members.len(), 1, "unbatched micro-batches hold one key");
            FireTarget::Single {
                stage,
                member: members[0],
            }
        };
        fires.push(Fire { step: s, target });
    }

    /// Fires a single-key fallback re-ask for one key of a batched cell.
    fn fire_fallback(&mut self, s: usize, stage: usize, member: usize, fires: &mut Vec<Fire>) {
        self.steps[s].stages[stage].inflight += 1;
        fires.push(Fire {
            step: s,
            target: FireTarget::Single { stage, member },
        });
    }

    /// Renders the prompt of one fired task (list prompts read the
    /// exclusion list at render time, which is exactly the state the
    /// firing event left behind).
    fn render_fire(&self, fire: &Fire) -> String {
        let run = &self.steps[fire.step];
        let builder = &self.session.prompt_builder;
        match &fire.target {
            FireTarget::List => builder.task(&TaskIntent::ListKeys {
                relation: run.step.table.clone(),
                key_attr: run.step.key_attr.clone(),
                condition: run.step.scan_condition.clone(),
                exclude: Arc::clone(&run.exclude),
            }),
            FireTarget::ListPage { offset } => builder.task(&TaskIntent::ListKeysPage {
                relation: run.step.table.clone(),
                key_attr: run.step.key_attr.clone(),
                condition: run.step.scan_condition.clone(),
                offset: *offset,
            }),
            FireTarget::Chunk { stage, members } => {
                let chunk_keys: Vec<String> =
                    members.iter().map(|&i| run.keys()[i].clone()).collect();
                match run.stages[*stage].cell {
                    StageCell::Grid { start, len } => {
                        builder.task(&self.session.grid_intent(run.step, start, len, chunk_keys))
                    }
                    cell => {
                        let cell = stage_cell(run.step, cell);
                        builder.task(
                            &self
                                .session
                                .cell_batched_intent(run.step, &cell, chunk_keys),
                        )
                    }
                }
            }
            FireTarget::Single { stage, member } => {
                let cell = stage_cell(run.step, run.stages[*stage].cell);
                builder.task(&self.session.cell_single_intent(
                    run.step,
                    &cell,
                    &run.keys()[*member],
                ))
            }
            FireTarget::AttrChunk {
                stage,
                attr,
                members,
            } => {
                let chunk_keys: Vec<String> =
                    members.iter().map(|&i| run.keys()[i].clone()).collect();
                let cell = BatchCell::Fetch(grid_attr_name(run.step, &run.stages[*stage], *attr));
                builder.task(
                    &self
                        .session
                        .cell_batched_intent(run.step, &cell, chunk_keys),
                )
            }
            FireTarget::GridSingle {
                stage,
                attr,
                member,
            } => {
                let cell = BatchCell::Fetch(grid_attr_name(run.step, &run.stages[*stage], *attr));
                builder.task(&self.session.cell_single_intent(
                    run.step,
                    &cell,
                    &run.keys()[*member],
                ))
            }
        }
    }

    fn fire_phase(&self, fire: &Fire) -> Phase {
        match &fire.target {
            FireTarget::List | FireTarget::ListPage { .. } => Phase::List,
            FireTarget::Chunk { stage, .. } | FireTarget::Single { stage, .. } => {
                match self.steps[fire.step].stages[*stage].cell {
                    StageCell::Filter(_) => Phase::Filter,
                    StageCell::Fetch { .. } | StageCell::Grid { .. } => Phase::Fetch,
                }
            }
            FireTarget::AttrChunk { .. } | FireTarget::GridSingle { .. } => Phase::Fetch,
        }
    }

    /// Executes one event's fired tasks against the client (across the
    /// real worker pool when there are several, consuming results in
    /// completion order), then assigns each task to a virtual lane with
    /// release time `t` — in fire order, so lane assignment is
    /// deterministic — and pushes its completion event.
    fn execute_fires(&mut self, t: u64, fires: Vec<Fire>) {
        if fires.is_empty() {
            return;
        }
        let prompts: Vec<String> = fires.iter().map(|f| self.render_fire(f)).collect();
        let client = &self.session.client;
        let mut outcomes: Vec<Option<BatchOutcome>> = Vec::new();
        outcomes.resize_with(prompts.len(), || None);
        if prompts.len() == 1 {
            outcomes[0] = Some(client.complete_outcome(&prompts[0]));
        } else {
            let units: Vec<_> = prompts
                .into_iter()
                .map(|prompt| {
                    let client = Arc::clone(client);
                    move || client.complete_outcome(&prompt)
                })
                .collect();
            self.session
                .crew
                .run_wave_streaming(units, |i, outcome| outcomes[i] = Some(outcome));
        }
        for (fire, outcome) in fires.into_iter().zip(outcomes) {
            let outcome = outcome.expect("every fired task executed");
            let phase = self.fire_phase(&fire);
            match phase {
                Phase::List => self.acc.list_prompts += 1,
                Phase::Filter => self.acc.filter_prompts += 1,
                Phase::Fetch => self.acc.fetch_prompts += 1,
            }
            match &fire.target {
                // Multi-key-protocol prompts: key-level hits were
                // already billed by signature at sub-entry extraction
                // (see [`StepStats::absorb_keyed`]).
                FireTarget::Chunk { .. }
                | FireTarget::AttrChunk { .. }
                | FireTarget::GridSingle { .. } => self.acc.absorb_keyed(&outcome),
                FireTarget::Single { .. } if self.batched => self.acc.absorb_keyed(&outcome),
                _ => self.acc.absorb(&outcome),
            }
            self.acc.charge_phase(phase, outcome.virtual_ms);
            let done = self.clock.schedule(t, outcome.virtual_ms);
            self.trace.push(TracedTask {
                release: t,
                duration: outcome.virtual_ms,
                completion: done,
            });
            let completion = outcome
                .completions
                .into_iter()
                .next()
                .expect("one completion per prompt");
            let seq = self.next_seq;
            self.next_seq += 1;
            self.events.push(std::cmp::Reverse(StreamEvent {
                time: done,
                seq,
                step: fire.step,
                target: fire.target,
                completion,
            }));
        }
    }

    // --- event processing --------------------------------------------

    fn process(&mut self, event: StreamEvent, fires: &mut Vec<Fire>) {
        let t = event.time;
        let s = event.step;
        match event.target {
            FireTarget::List => self.process_list(s, &event.completion.text, t, fires),
            FireTarget::ListPage { offset } => {
                let spec = self.steps[s]
                    .spec
                    .as_mut()
                    .expect("page completion outside spec mode");
                spec.inflight -= 1;
                spec.buffered.insert(offset, event.completion.text);
                // Wave barrier: pages apply (in offset order) only once
                // the whole wave has landed, so iteration counts match
                // the wave pipeline exactly.
                if spec.inflight == 0 {
                    self.spec_apply(s, t, fires);
                }
            }
            FireTarget::Chunk { stage, members } => {
                self.steps[s].stages[stage].inflight -= 1;
                if let StageCell::Grid { start, len } = self.steps[s].stages[stage].cell {
                    self.process_grid_chunk(
                        s,
                        stage,
                        start,
                        len,
                        &members,
                        &event.completion.text,
                        fires,
                    );
                    self.maybe_drain(s, stage, t, fires);
                    return;
                }
                let chunk_keys: Vec<String> = members
                    .iter()
                    .map(|&i| self.steps[s].keys()[i].clone())
                    .collect();
                let subs = split_batched_answer(&event.completion.text, &chunk_keys);
                for (&slot, sub) in members.iter().zip(subs) {
                    match sub {
                        Some(answer) => {
                            self.store_cell(s, stage, 0, slot, &answer);
                            self.consume_answer(s, stage, slot, &answer, t, fires);
                        }
                        // The model dropped or mangled this key's line:
                        // re-ask with the single-key prompt, chained after
                        // this batch (batching may cost prompts, never
                        // accuracy).
                        None => self.fire_fallback(s, stage, slot, fires),
                    }
                }
                self.maybe_drain(s, stage, t, fires);
            }
            FireTarget::Single { stage, member } => {
                self.steps[s].stages[stage].inflight -= 1;
                if self.batched {
                    self.store_cell(s, stage, 0, member, &event.completion.text);
                }
                self.consume_answer(s, stage, member, &event.completion.text, t, fires);
                self.maybe_drain(s, stage, t, fires);
            }
            FireTarget::AttrChunk {
                stage,
                attr,
                members,
            } => {
                self.steps[s].stages[stage].inflight -= 1;
                let StageCell::Grid { start, .. } = self.steps[s].stages[stage].cell else {
                    unreachable!("AttrChunk fires only at grid stages")
                };
                let chunk_keys: Vec<String> = members
                    .iter()
                    .map(|&i| self.steps[s].keys()[i].clone())
                    .collect();
                let subs = split_batched_answer(&event.completion.text, &chunk_keys);
                for (&slot, sub) in members.iter().zip(subs) {
                    match sub {
                        Some(answer) => {
                            self.store_cell(s, stage, attr, slot, &answer);
                            self.steps[s].stages[stage].answered.insert(slot, attr);
                            let col = self.steps[s].step.fetch[start + attr];
                            self.consume_fetch_value(s, col, slot, &answer);
                        }
                        // Bottom rung: one single-key prompt per failed
                        // cell.
                        None => {
                            self.steps[s].stages[stage].inflight += 1;
                            fires.push(Fire {
                                step: s,
                                target: FireTarget::GridSingle {
                                    stage,
                                    attr,
                                    member: slot,
                                },
                            });
                        }
                    }
                }
                self.maybe_drain(s, stage, t, fires);
            }
            FireTarget::GridSingle {
                stage,
                attr,
                member,
            } => {
                self.steps[s].stages[stage].inflight -= 1;
                let StageCell::Grid { start, .. } = self.steps[s].stages[stage].cell else {
                    unreachable!("GridSingle fires only at grid stages")
                };
                self.store_cell(s, stage, attr, member, &event.completion.text);
                self.steps[s].stages[stage].answered.insert(member, attr);
                let col = self.steps[s].step.fetch[start + attr];
                self.consume_fetch_value(s, col, member, &event.completion.text);
                self.maybe_drain(s, stage, t, fires);
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

    /// Applies one grid chunk's answer: every unanswered `(slot, attr)`
    /// cell consumes its parsed line, and each attr's failed cells re-ask
    /// together down the ladder's middle rung
    /// ([`FireTarget::AttrChunk`]).
    #[allow(clippy::too_many_arguments)]
    fn process_grid_chunk(
        &mut self,
        s: usize,
        stage: usize,
        start: usize,
        len: usize,
        members: &[usize],
        text: &str,
        fires: &mut Vec<Fire>,
    ) {
        let attr_fuse = self.session.options.prompt_batch.attrs_per_prompt();
        let (chunk_keys, attr_names): (Vec<String>, Vec<String>) = {
            let run = &self.steps[s];
            let pads = grid_pad_columns(run.step, start, len, attr_fuse);
            (
                members.iter().map(|&i| run.keys()[i].clone()).collect(),
                (start..start + len)
                    .map(|ci| run.step.fetch[ci])
                    .chain(pads)
                    .map(|c| run.step.columns()[c].name.clone())
                    .collect(),
            )
        };
        let mut cells = split_grid_answer(text, &chunk_keys, &attr_names);
        let mut failed: Vec<Vec<usize>> = vec![Vec::new(); len];
        for (ki, &slot) in members.iter().enumerate() {
            for (ord, failed_ord) in failed.iter_mut().enumerate() {
                if self.steps[s].stages[stage].answered.contains(slot, ord) {
                    continue;
                }
                match cells[ki][ord].take() {
                    Some(answer) => {
                        self.store_cell(s, stage, ord, slot, &answer);
                        self.steps[s].stages[stage].answered.insert(slot, ord);
                        let col = self.steps[s].step.fetch[start + ord];
                        self.consume_fetch_value(s, col, slot, &answer);
                    }
                    None => failed_ord.push(slot),
                }
            }
            // Speculative pad cells (attr ordinals past the group's own
            // `len`) only seed the sub-entry store for later queries —
            // no row consumption, no fallback for a dropped pad line.
            for (ord, cell) in cells[ki].iter_mut().enumerate().skip(len) {
                if let Some(answer) = cell.take() {
                    self.store_cell(s, stage, ord, slot, &answer);
                }
            }
        }
        for (ord, slots) in failed.into_iter().enumerate() {
            if !slots.is_empty() {
                self.steps[s].stages[stage].inflight += 1;
                fires.push(Fire {
                    step: s,
                    target: FireTarget::AttrChunk {
                        stage,
                        attr: ord,
                        members: slots,
                    },
                });
            }
        }
    }

    /// Applies one list iteration's answer: new keys enter the dataflow at
    /// time `t`, and either the next iteration fires or the key stream is
    /// finished (exhausted page, no new keys, or the iteration cap).
    fn process_list(&mut self, s: usize, text: &str, t: u64, fires: &mut Vec<Fire>) {
        if is_fault_text(text) {
            // A degraded list page ends the key stream *resumably*:
            // `list_exhausted` stays false, so the published universe is a
            // partial frontier a later query resumes — never a poisoned
            // "complete" listing.
            self.acc.failed_cells += 1;
            self.finish_list(s, t, fires);
            return;
        }
        match parse_list_answer(text) {
            ListAnswer::Exhausted => {
                self.steps[s].list_exhausted = true;
                self.finish_list(s, t, fires);
            }
            ListAnswer::Values(values) => {
                let raw = values.len();
                let added = self.absorb_stream_page(s, &values, t, fires);
                if added == 0 {
                    self.steps[s].list_exhausted = true;
                    self.finish_list(s, t, fires);
                    return;
                }
                // LIMIT early stop: the window is covered by confirmed
                // survivors, so no further page can change the result.
                if self.limit_covered() {
                    self.finish_list(s, t, fires);
                    return;
                }
                // Speculative mode: page 1 just landed — its raw value
                // count is the page-size estimate, and offset probes
                // replace the exclusion-list chain.
                if let Some(spec) = self.steps[s].spec.as_mut() {
                    spec.page_est = raw;
                    spec.next_offset = raw;
                    if self.steps[s].iterations < self.session.options.max_list_iterations {
                        self.fire_spec_wave(s, fires);
                    } else {
                        self.finish_list(s, t, fires);
                    }
                    return;
                }
                if self.steps[s].iterations < self.session.options.max_list_iterations {
                    self.fire_list(s, fires);
                } else {
                    self.finish_list(s, t, fires);
                }
            }
        }
    }

    /// Folds one page of raw key surfaces into the step's stream (clean,
    /// case-folded dedup, key slot, dataflow entry at `t` — identical to
    /// classic page handling), returning how many new keys entered.
    fn absorb_stream_page(
        &mut self,
        s: usize,
        values: &[String],
        t: u64,
        fires: &mut Vec<Fire>,
    ) -> usize {
        let cleaning = &self.session.options.cleaning;
        let run = &mut self.steps[s];
        let first_new = run.slots.len();
        let fresh = Arc::make_mut(&mut run.exclude);
        for v in values {
            let cleaned = normalise_text(v);
            if cleaned.is_empty() {
                continue;
            }
            if run.seen.insert(cleaned.to_ascii_lowercase()) {
                run.slots.push(KeySlot::new(&cleaned, run.step, cleaning));
                fresh.push(cleaned);
            }
        }
        let end = run.slots.len();
        for slot in first_new..end {
            self.enter_dataflow(s, slot, t, fires);
        }
        end - first_new
    }

    /// Applies a fully-landed speculative wave in offset order: each page
    /// feeds the dataflow at `t`; the first exhausted page, short page or
    /// page with nothing new ends the universe (pages fired past it are
    /// waste — already billed as iterations, exactly like the wave
    /// pipeline). Otherwise the next wave fires, or the iteration cap
    /// leaves a partial frontier.
    fn spec_apply(&mut self, s: usize, t: u64, fires: &mut Vec<Fire>) {
        let pages: Vec<(usize, String)> = {
            let spec = self.steps[s].spec.as_mut().expect("spec wave landed");
            std::mem::take(&mut spec.buffered).into_iter().collect()
        };
        let mut terminal = false;
        let mut faulted = false;
        for (_, text) in pages {
            if terminal || faulted {
                break;
            }
            if is_fault_text(&text) {
                // A degraded page ends the ramp resumably (pages fired
                // past it are waste, like any speculative overshoot).
                self.acc.failed_cells += 1;
                faulted = true;
                continue;
            }
            match parse_list_answer(&text) {
                ListAnswer::Exhausted => terminal = true,
                ListAnswer::Values(values) => {
                    let raw = values.len();
                    let added = self.absorb_stream_page(s, &values, t, fires);
                    let page_est = self.steps[s].spec.as_ref().expect("spec mode").page_est;
                    if added == 0 || raw < page_est {
                        terminal = true;
                    }
                }
            }
        }
        if terminal {
            self.steps[s].list_exhausted = true;
            self.finish_list(s, t, fires);
        } else if faulted
            || self.steps[s].iterations >= self.session.options.max_list_iterations
            || self.limit_covered()
        {
            self.finish_list(s, t, fires);
        } else {
            self.fire_spec_wave(s, fires);
        }
    }

    /// Routes a freshly-listed key into the first stage of the step's
    /// dataflow (first filter condition; fetch stages when there is none).
    fn enter_dataflow(&mut self, s: usize, slot: usize, t: u64, fires: &mut Vec<Fire>) {
        if let Some(n) = self.limit {
            if self.prefix_covers(slot, n) {
                // The window is already covered by earlier confirmed
                // survivors, so this key can never surface — prune it
                // before any filter or fetch prompt is issued.
                self.steps[s].slots[slot].alive = false;
                return;
            }
        }
        if self.steps[s].n_filters > 0 {
            self.deliver(s, 0, slot, t, fires);
        } else {
            if self.limit.is_some() {
                self.confirm_survivor(slot);
            }
            for g in 0..self.steps[s].stages.len() {
                self.deliver(s, g, slot, t, fires);
            }
        }
    }

    /// Routes a key that survived filter stage `g` downstream: into the
    /// next condition, or — past the last condition — fanning out into
    /// every fetch stage.
    fn route_survivor(&mut self, s: usize, g: usize, slot: usize, t: u64, fires: &mut Vec<Fire>) {
        let n_filters = self.steps[s].n_filters;
        if g + 1 < n_filters {
            self.deliver(s, g + 1, slot, t, fires);
        } else {
            if let Some(n) = self.limit {
                self.confirm_survivor(slot);
                if self.prefix_covers(slot, n) {
                    // Beyond the window: every verdict landed (the key
                    // stays alive) but its row can never surface, so its
                    // fetch prompts are never issued.
                    return;
                }
            }
            for fg in n_filters..self.steps[s].stages.len() {
                self.deliver(s, fg, slot, t, fires);
            }
        }
    }

    /// A key arrives at a stage at time `t`: sub-entry extraction first
    /// (batched mode), otherwise into the accumulator — which fires the
    /// moment it holds a full micro-batch.
    fn deliver(&mut self, s: usize, g: usize, slot: usize, t: u64, fires: &mut Vec<Fire>) {
        if let StageCell::Grid { start, len } = self.steps[s].stages[g].cell {
            return self.deliver_grid(s, g, start, len, slot, fires);
        }
        if self.batched {
            // A stored answer is parsed where it lies, under the column's
            // lock; only what it decides leaves the store.
            let extracted = {
                let session = self.session;
                let failed_cells = &mut self.acc.failed_cells;
                let run = &self.steps[s];
                let stage = &run.stages[g];
                session
                    .client
                    .extract_in(&stage.sub_columns[0], &run.keys()[slot], |answer| {
                        session.parse_stage_answer(run.step, stage.cell, answer, failed_cells)
                    })
            };
            match extracted {
                SubLookup::Hit(landed) => {
                    self.acc.cache_hits += 1;
                    self.land(s, g, slot, landed, t, fires);
                    return;
                }
                // Counted as a hit, but re-asked locally — the sim loop
                // must never park a key waiting on another thread.
                SubLookup::InFlight => self.acc.cache_hits += 1,
                SubLookup::Miss => {}
            }
        }
        let fuse = self.fuse;
        let stage = &mut self.steps[s].stages[g];
        stage.pending.push(slot);
        if stage.pending.len() >= fuse {
            let members = std::mem::take(&mut stage.pending);
            self.fire_chunk(s, g, members, fires);
        }
    }

    /// A key arrives at a grid stage: every cell of the attr-group runs
    /// sub-entry extraction, and the key joins the group's accumulator
    /// when *any* cell is still missing (already-answered cells are
    /// skipped at parse time — grid prompts always ask the whole group,
    /// so their strings stay chunk-membership-deterministic).
    fn deliver_grid(
        &mut self,
        s: usize,
        g: usize,
        start: usize,
        len: usize,
        slot: usize,
        fires: &mut Vec<Fire>,
    ) {
        let mut missing = false;
        for ord in 0..len {
            if self.steps[s].stages[g].answered.contains(slot, ord) {
                continue;
            }
            let session = self.session;
            let failed_cells = &mut self.acc.failed_cells;
            let run = &mut self.steps[s];
            let col = run.step.fetch[start + ord];
            let column = &run.step.columns()[col];
            let extracted = session.client.extract_in(
                &run.stages[g].sub_columns[ord],
                &run.keys()[slot],
                |answer| session.fetched_cell(answer, column, failed_cells),
            );
            match extracted {
                SubLookup::Hit(value) => {
                    self.acc.cache_hits += 1;
                    run.stages[g].answered.insert(slot, ord);
                    run.slots[slot].row[col] = value;
                }
                SubLookup::InFlight => {
                    self.acc.cache_hits += 1;
                    missing = true;
                }
                SubLookup::Miss => missing = true,
            }
        }
        if !missing {
            return;
        }
        let fuse = self.fuse;
        let stage = &mut self.steps[s].stages[g];
        stage.pending.push(slot);
        if stage.pending.len() >= fuse {
            let members = std::mem::take(&mut stage.pending);
            self.fire_chunk(s, g, members, fires);
        }
    }

    /// Applies one key's answer at a single-cell stage
    /// ([`Galois::parse_stage_answer`], then [`StreamSim::land`]).
    fn consume_answer(
        &mut self,
        s: usize,
        g: usize,
        slot: usize,
        answer: &str,
        t: u64,
        fires: &mut Vec<Fire>,
    ) {
        let run = &self.steps[s];
        let landed = self.session.parse_stage_answer(
            run.step,
            run.stages[g].cell,
            answer,
            &mut self.acc.failed_cells,
        );
        self.land(s, g, slot, landed, t, fires);
    }

    /// Applies what one key's answer decided at a single-cell stage: a
    /// filter verdict routes the key onward or kills it; a fetched value
    /// lands in the key's row.
    fn land(
        &mut self,
        s: usize,
        g: usize,
        slot: usize,
        landed: Landed,
        t: u64,
        fires: &mut Vec<Fire>,
    ) {
        match landed {
            Landed::Verdict(true) => self.route_survivor(s, g, slot, t, fires),
            Landed::Verdict(false) => self.steps[s].slots[slot].alive = false,
            Landed::Value(value) => {
                let StageCell::Fetch { col } = self.steps[s].stages[g].cell else {
                    unreachable!("only fetch stages land values")
                };
                self.steps[s].slots[slot].row[col] = value;
            }
        }
    }

    /// Lands one fetch answer in a key's materialising row (shared by the
    /// per-column and grid stages).
    fn consume_fetch_value(&mut self, s: usize, col: usize, slot: usize, answer: &str) {
        let run = &mut self.steps[s];
        run.slots[slot].row[col] =
            self.session
                .fetched_cell(answer, &run.step.columns()[col], &mut self.acc.failed_cells);
    }

    // --- drain propagation -------------------------------------------

    /// The step's key stream is finished: no further list page can deliver
    /// keys, so the universe publishes to the key-universe store (when one
    /// is attached and the universe wasn't served warm), the first stages'
    /// accumulators flush and drain propagation begins.
    fn finish_list(&mut self, s: usize, t: u64, fires: &mut Vec<Fire>) {
        if !self.steps[s].list_done {
            self.steps[s].list_done = true;
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
        }
        if self.steps[s].n_filters > 0 {
            self.stage_upstream_drained(s, 0, t, fires);
        } else {
            for g in 0..self.steps[s].stages.len() {
                self.stage_upstream_drained(s, g, t, fires);
            }
        }
    }

    /// The stage's producer can deliver no further keys: flush the partial
    /// micro-batch (the "lane would idle forever" trigger) and drain if
    /// nothing is left in flight.
    fn stage_upstream_drained(&mut self, s: usize, g: usize, t: u64, fires: &mut Vec<Fire>) {
        self.steps[s].stages[g].upstream_drained = true;
        if !self.steps[s].stages[g].pending.is_empty() {
            let members = std::mem::take(&mut self.steps[s].stages[g].pending);
            self.fire_chunk(s, g, members, fires);
        }
        self.maybe_drain(s, g, t, fires);
    }

    /// Marks a stage drained once its upstream is finished and its own
    /// work has all landed, then propagates downstream.
    fn maybe_drain(&mut self, s: usize, g: usize, t: u64, fires: &mut Vec<Fire>) {
        {
            let stage = &self.steps[s].stages[g];
            if stage.drained
                || !stage.upstream_drained
                || stage.inflight > 0
                || !stage.pending.is_empty()
            {
                return;
            }
        }
        self.steps[s].stages[g].drained = true;
        let n_filters = self.steps[s].n_filters;
        if g + 1 < n_filters {
            self.stage_upstream_drained(s, g + 1, t, fires);
        } else if g < n_filters {
            for fg in n_filters..self.steps[s].stages.len() {
                self.stage_upstream_drained(s, fg, t, fires);
            }
        }
        // Fetch stages are the dataflow's sinks: nothing downstream.
    }
}

/// Reconstructs the borrowed cell form from a stage's indices.
fn stage_cell(step: &LlmScanStep, cell: StageCell) -> BatchCell<'_> {
    match cell {
        StageCell::Filter(i) => BatchCell::Filter(&step.filter_conditions[i]),
        StageCell::Fetch { col } => BatchCell::Fetch(&step.columns()[col].name),
        StageCell::Grid { .. } => {
            unreachable!("grid stages render through their grid-aware call sites")
        }
    }
}

/// The column name of one attr ordinal of a grid stage.
fn grid_attr_name<'a>(step: &'a LlmScanStep, stage: &StageState, attr: usize) -> &'a str {
    let StageCell::Grid { start, .. } = stage.cell else {
        unreachable!("attr ordinals exist only at grid stages")
    };
    &step.columns()[step.fetch[start + attr]].name
}

/// Speculative fill of a grid attr-group's spare width: when the group is
/// the step's *last* (the only one that can be narrower than `A`), the
/// remaining attribute slots are padded with the relation's other columns
/// — schema order, key and already-fetched columns excluded. The padded
/// cells ride along in the same prompt (the group count, and so the
/// prompt count, is untouched), are stored as per-(key, attr) sub-entries
/// for later queries to extract, and never feed rows or the fallback
/// ladder: a dropped pad line is simply not stored. This is the fetch
/// phase's analogue of the key-universe store's speculative paging — it
/// is what lets a suite of narrow queries amortise one table's attribute
/// surface across a handful of grid prompts instead of paying
/// `ceil(keys/B)` prompts per newly-touched column.
///
/// Returns column indices into `step.columns()`; empty for every non-last
/// or already-full group (so `A = 1` stays the exact key-batched base
/// case).
fn grid_pad_columns(step: &LlmScanStep, start: usize, len: usize, attr_fuse: usize) -> Vec<usize> {
    if start + len < step.fetch.len() || len >= attr_fuse {
        return Vec::new();
    }
    (0..step.columns().len())
        .filter(|&c| c != step.key_index && !step.fetch.contains(&c))
        .take(attr_fuse - len)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use galois_dataset::Scenario;
    use galois_llm::{ModelProfile, SimLlm};

    fn oracle_session() -> (Scenario, Galois) {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let g = Galois::new(model, s.database.clone());
        (s, g)
    }

    fn oracle_session_parallel(lanes: usize) -> (Scenario, Galois) {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let g = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                parallelism: Parallelism::new(lanes),
                ..Default::default()
            },
        );
        (s, g)
    }

    #[test]
    fn materialise_keeps_first_of_a_repeated_key_and_drops_null_keys() {
        let s = Scenario::generate(42);
        let plan = s
            .database
            .plan("SELECT name, population FROM city")
            .unwrap();
        let compiled =
            crate::compile::compile(&plan, s.database.catalog(), &CompileOptions::default())
                .unwrap();
        let step = &compiled.steps[0];
        let population = step.temp_schema.index_of("population").unwrap();
        let row = |key: Value, pop: Value| {
            let mut row = vec![Value::Null; step.columns().len()];
            row[step.key_index] = key;
            row[population] = pop;
            row
        };
        let table = materialise_step(
            step,
            vec![
                row("Rome".into(), Value::Int(1)),
                row(Value::Null, Value::Int(2)),
                row("Oslo".into(), Value::Null),
                row("Rome".into(), Value::Int(3)),
                row("rome".into(), Value::Int(4)),
            ],
        );
        let got: Vec<(String, Value)> = table
            .rows()
            .iter()
            .map(|r| (r[step.key_index].render(), r[population].clone()))
            .collect();
        assert_eq!(
            got,
            [
                ("Rome".to_string(), Value::Int(1)),
                ("Oslo".to_string(), Value::Null),
                ("rome".to_string(), Value::Int(4)),
            ]
        );
        assert_eq!(table.name, step.temp_name);
        assert!(Arc::ptr_eq(&table.schema, &step.temp_schema));
    }

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

    #[test]
    fn oracle_selection_matches_ground_truth() {
        let (s, g) = oracle_session();
        let sql = "SELECT name FROM city WHERE population > 1000000";
        let truth = s.database.execute(sql).unwrap();
        let got = g.execute(sql).unwrap();
        let mut a: Vec<String> = truth.rows.iter().map(|r| r[0].render()).collect();
        let mut b: Vec<String> = got.relation.rows.iter().map(|r| r[0].render()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(got.stats.total_prompts() > 0);
    }

    #[test]
    fn oracle_projection_values_match() {
        let (s, g) = oracle_session();
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let truth = s.database.execute(sql).unwrap();
        let got = g.execute(sql).unwrap();
        let key = |r: &Vec<Value>| (r[0].render(), r[1].render());
        let mut a: Vec<_> = truth.rows.iter().map(key).collect();
        let mut b: Vec<_> = got.relation.rows.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn oracle_aggregate_matches() {
        let (s, g) = oracle_session();
        let sql = "SELECT COUNT(*) FROM city";
        let truth = s.database.execute(sql).unwrap();
        let got = g.execute(sql).unwrap();
        assert_eq!(truth.rows, got.relation.rows);
    }

    #[test]
    fn oracle_group_by_matches() {
        let (s, g) = oracle_session();
        let sql = "SELECT continent, COUNT(*) FROM country GROUP BY continent ORDER BY continent";
        let truth = s.database.execute(sql).unwrap();
        let got = g.execute(sql).unwrap();
        assert_eq!(truth.rows, got.relation.rows);
    }

    #[test]
    fn oracle_join_matches() {
        let (s, g) = oracle_session();
        let sql = "SELECT p.name, r.electionYear FROM city p, cityMayor r WHERE p.mayor = r.name";
        let truth = s.database.execute(sql).unwrap();
        let got = g.execute(sql).unwrap();
        assert_eq!(truth.len(), got.relation.len());
    }

    #[test]
    fn hybrid_query_mixes_llm_and_db() {
        let (s, g) = oracle_session();
        // employees live only in the DB; country GDP comes from the LLM.
        let sql = "SELECT e.countryCode, AVG(e.salary), MAX(k.gdp) \
                   FROM DB.employees e, LLM.country k \
                   WHERE e.countryCode = k.code \
                   GROUP BY e.countryCode ORDER BY e.countryCode";
        let got = g.execute(sql).unwrap();
        assert!(!got.relation.is_empty());
        // Ground truth: the same query entirely inside the DB.
        let truth = s
            .database
            .execute(
                "SELECT e.countryCode, AVG(e.salary), MAX(k.gdp) \
                 FROM employees e, country k WHERE e.countryCode = k.code \
                 GROUP BY e.countryCode ORDER BY e.countryCode",
            )
            .unwrap();
        assert_eq!(truth.len(), got.relation.len());
    }

    #[test]
    fn noisy_model_misses_rows() {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::flan()));
        let g = Galois::new(model, s.database.clone());
        let sql = "SELECT name FROM city";
        let truth = s.database.execute(sql).unwrap();
        let got = g.execute(sql).unwrap();
        assert!(
            got.relation.len() < truth.len(),
            "flan returned {} of {}",
            got.relation.len(),
            truth.len()
        );
    }

    #[test]
    fn stats_count_prompt_kinds() {
        let (_, g) = oracle_session();
        let got = g
            .execute("SELECT name, population FROM city WHERE elevation < 100")
            .unwrap();
        assert!(got.stats.list_prompts >= 1);
        assert!(got.stats.filter_prompts > 0);
        assert!(got.stats.fetch_prompts > 0);
        assert!(got.stats.virtual_ms > 0);
    }

    #[test]
    fn sequential_serial_and_virtual_clocks_agree() {
        let (_, g) = oracle_session();
        let got = g
            .execute("SELECT name, population FROM city WHERE elevation < 100")
            .unwrap();
        assert_eq!(got.stats.virtual_ms, got.stats.serial_virtual_ms);
        assert!((got.stats.virtual_speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_run_matches_sequential_results_and_counts() {
        let sql = "SELECT p.name, r.electionYear FROM city p, cityMayor r WHERE p.mayor = r.name";
        let (_, seq) = oracle_session_parallel(1);
        let base = seq.execute(sql).unwrap();
        for lanes in [2, 8] {
            let (_, par) = oracle_session_parallel(lanes);
            let got = par.execute(sql).unwrap();
            assert_eq!(got.relation.rows, base.relation.rows, "lanes {lanes}");
            assert_eq!(
                got.stats.total_prompts(),
                base.stats.total_prompts(),
                "lanes {lanes}"
            );
            assert_eq!(got.stats.cache_hits, base.stats.cache_hits, "lanes {lanes}");
            assert_eq!(
                got.stats.serial_virtual_ms, base.stats.serial_virtual_ms,
                "lanes {lanes}"
            );
            // Lanes can only shorten the virtual clock.
            assert!(
                got.stats.virtual_ms <= base.stats.virtual_ms,
                "lanes {lanes}"
            );
        }
    }

    #[test]
    fn parallel_join_is_virtually_faster() {
        let sql = "SELECT p.name, r.electionYear FROM city p, cityMayor r WHERE p.mayor = r.name";
        let (_, seq) = oracle_session_parallel(1);
        let (_, par) = oracle_session_parallel(8);
        let a = seq.execute(sql).unwrap();
        let b = par.execute(sql).unwrap();
        assert!(
            b.stats.virtual_ms * 2 <= a.stats.virtual_ms,
            "expected ≥2× on a two-step join: {} vs {}",
            a.stats.virtual_ms,
            b.stats.virtual_ms
        );
        assert!(b.stats.virtual_speedup() >= 2.0);
        assert!(b.stats.lane_utilisation(8) <= 1.0 + 1e-12);
    }

    #[test]
    fn explain_shows_llm_steps() {
        let (_, g) = oracle_session();
        let text = g
            .explain("SELECT name FROM city WHERE population > 1000000")
            .unwrap();
        assert!(text.contains("[LLM step 1] scan city"));
        assert!(text.contains("planner: heuristic"));
        assert!(text.contains("cost: keys≈"));
        assert!(text.contains("[relational plan]"));
    }

    #[test]
    fn explain_reports_the_early_stop_window_for_limit_sessions() {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let sql = "SELECT name FROM city LIMIT 5 OFFSET 2";
        let (_, plain) = oracle_session();
        assert!(
            !plain.explain(sql).unwrap().contains("limit:"),
            "default sessions keep the pre-limit report"
        );
        let g = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                early_stop: EarlyStop::Limit,
                ..Default::default()
            },
        );
        assert!(g
            .explain(sql)
            .unwrap()
            .contains("limit: early-stop after ~7 keys"));
        // Ineligible plan shapes stay tag-free even on a limit session.
        assert!(!g
            .explain("SELECT name FROM city ORDER BY population LIMIT 5")
            .unwrap()
            .contains("limit:"));
    }

    /// The "live overlay" rule of [`Galois::planning_params`]: the warm
    /// map is a shared snapshot, and a universe published between two
    /// plans is visible to the second.
    #[test]
    fn a_publish_between_two_plans_is_visible_to_the_second() {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let store = Arc::new(KeyUniverseStore::new());
        let session = || {
            Galois::with_options(
                model.clone(),
                s.database.clone(),
                GaloisOptions {
                    list_store: ListStore::Shared(Arc::clone(&store)),
                    ..Default::default()
                },
            )
        };
        let sql = "SELECT name, population FROM city";
        let g = session();
        let cold = g.explain(sql).unwrap();
        assert!(cold.contains("    list: cold\n"), "{cold}");
        assert_eq!(g.explain(sql).unwrap(), cold);
        let listed = g.execute(sql).unwrap().relation.rows.len();
        let warm = g.explain(sql).unwrap();
        assert!(
            warm.contains(&format!("    list: warm ({listed} keys)\n")),
            "{warm}"
        );
        // A session that never held the cold snapshot renders the same.
        assert_eq!(session().explain(sql).unwrap(), warm);
    }

    #[test]
    fn explain_statement_returns_query_plan_relation() {
        let (_, g) = oracle_session();
        let got = g
            .execute("EXPLAIN SELECT name FROM city WHERE population > 1000000")
            .unwrap();
        assert_eq!(got.stats.total_prompts(), 0, "EXPLAIN must not prompt");
        assert_eq!(got.relation.schema.columns[0].name, "QUERY PLAN");
        let text: Vec<String> = got.relation.rows.iter().map(|r| r[0].render()).collect();
        assert!(text.iter().any(|l| l.contains("[LLM step 1] scan city")));
        assert!(text.iter().any(|l| l.contains("virtual≈")));
    }

    #[test]
    fn planner_calibration_is_frozen_until_recalibrated() {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let g = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                planner: Planner::CostBased,
                ..Default::default()
            },
        );
        let sql = "SELECT name FROM city WHERE population > 1000000";
        let before = g.explain(sql).unwrap();
        // Executing queries mutates the client stats, but the frozen
        // snapshot keeps the planner's choice (and report) stable.
        g.execute(sql).unwrap();
        assert_eq!(g.explain(sql).unwrap(), before);
        // The live reading has moved; re-freezing adopts it.
        assert_ne!(g.planner_params().prompt_latency_ms, {
            let d = crate::plan_choice::PlannerParams::default();
            d.prompt_latency_ms
        });
        g.recalibrate_planner();
        assert_ne!(g.explain(sql).unwrap(), before);
    }

    #[test]
    fn cost_based_planner_preserves_results_with_fewer_prompts() {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let heuristic = Galois::new(model.clone(), s.database.clone());
        let cost_based = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                planner: Planner::CostBased,
                ..Default::default()
            },
        );
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let a = heuristic.execute(sql).unwrap();
        cost_based.client().clear_cache();
        let b = cost_based.execute(sql).unwrap();
        let sort = |rel: &Relation| {
            let mut rows: Vec<Vec<String>> = rel
                .rows
                .iter()
                .map(|r| r.iter().map(Value::render).collect())
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(sort(&a.relation), sort(&b.relation));
        assert!(
            b.stats.total_prompts() < a.stats.total_prompts(),
            "cost-based {} vs heuristic {}",
            b.stats.total_prompts(),
            a.stats.total_prompts()
        );
        assert!(b.stats.virtual_ms < a.stats.virtual_ms);
    }

    fn oracle_session_batched(batch: PromptBatch) -> (Scenario, Galois) {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let g = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                prompt_batch: batch,
                ..Default::default()
            },
        );
        (s, g)
    }

    #[test]
    fn batched_mode_matches_off_relations_with_fewer_prompts() {
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let (_, off) = oracle_session_batched(PromptBatch::Off);
        let a = off.execute(sql).unwrap();
        let (_, batched) = oracle_session_batched(PromptBatch::Keys(10));
        let b = batched.execute(sql).unwrap();
        assert_eq!(a.relation.rows, b.relation.rows);
        assert!(
            b.stats.total_prompts() < a.stats.total_prompts(),
            "batched {} vs off {}",
            b.stats.total_prompts(),
            a.stats.total_prompts()
        );
        assert!(
            b.stats.virtual_ms < a.stats.virtual_ms,
            "batched {} vs off {} virtual ms",
            b.stats.virtual_ms,
            a.stats.virtual_ms
        );
        // No fallback on the oracle: ceil(keys / B) prompts per cell.
        assert!(b.stats.filter_prompts < a.stats.filter_prompts);
        assert!(b.stats.fetch_prompts < a.stats.fetch_prompts);
    }

    #[test]
    fn batched_joins_and_aggregates_match_off() {
        for sql in [
            "SELECT p.name, r.electionYear FROM city p, cityMayor r WHERE p.mayor = r.name",
            "SELECT continent, COUNT(*) FROM country GROUP BY continent ORDER BY continent",
        ] {
            let (_, off) = oracle_session_batched(PromptBatch::Off);
            let (_, batched) = oracle_session_batched(PromptBatch::Keys(5));
            let a = off.execute(sql).unwrap();
            let b = batched.execute(sql).unwrap();
            assert_eq!(a.relation.rows, b.relation.rows, "{sql}");
        }
    }

    #[test]
    fn batch_of_one_matches_off_relations() {
        // Keys(1): the multi-key protocol at its ablation base case — same
        // prompt *count* economics as Off, different prompt text.
        let sql = "SELECT name FROM city WHERE population > 1000000";
        let (_, off) = oracle_session_batched(PromptBatch::Off);
        let (_, one) = oracle_session_batched(PromptBatch::Keys(1));
        let a = off.execute(sql).unwrap();
        let b = one.execute(sql).unwrap();
        assert_eq!(a.relation.rows, b.relation.rows);
        assert_eq!(a.stats.total_prompts(), b.stats.total_prompts());
    }

    #[test]
    fn sub_entries_serve_repeat_queries_without_new_prompts() {
        let (_, g) = oracle_session_batched(PromptBatch::Keys(10));
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let first = g.execute(sql).unwrap();
        assert!(first.stats.filter_prompts > 0 && first.stats.fetch_prompts > 0);
        // A second run re-lists keys (raw prompt-cache hits), but every
        // filter/fetch key is served from per-key sub-entries: zero
        // batched prompts, zero fallbacks — chunk boundaries can no longer
        // even matter.
        let second = g.execute(sql).unwrap();
        assert_eq!(first.relation.rows, second.relation.rows);
        assert_eq!(second.stats.filter_prompts, 0);
        assert_eq!(second.stats.fetch_prompts, 0);
        assert!(second.stats.cache_hits > 0);
        assert!(second.stats.virtual_ms < first.stats.virtual_ms);
    }

    #[test]
    fn batched_mode_is_deterministic_across_lane_counts() {
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let base = {
            let s = Scenario::generate(42);
            let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
            Galois::with_options(
                model,
                s.database.clone(),
                GaloisOptions {
                    prompt_batch: PromptBatch::Keys(10),
                    ..Default::default()
                },
            )
            .execute(sql)
            .unwrap()
        };
        for lanes in [2usize, 8] {
            let s = Scenario::generate(42);
            let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
            let got = Galois::with_options(
                model,
                s.database.clone(),
                GaloisOptions {
                    prompt_batch: PromptBatch::Keys(10),
                    parallelism: Parallelism::new(lanes),
                    ..Default::default()
                },
            )
            .execute(sql)
            .unwrap();
            assert_eq!(got.relation.rows, base.relation.rows, "lanes {lanes}");
            assert_eq!(
                got.stats.total_prompts(),
                base.stats.total_prompts(),
                "lanes {lanes}"
            );
        }
    }

    #[test]
    fn grid_mode_matches_off_relations_with_fewer_fetch_prompts() {
        let sql = "SELECT name, population, country FROM city WHERE elevation < 100";
        let (_, off) = oracle_session_batched(PromptBatch::Off);
        let a = off.execute(sql).unwrap();
        let (_, keys) = oracle_session_batched(PromptBatch::Keys(10));
        let b = keys.execute(sql).unwrap();
        let (_, grid) = oracle_session_batched(PromptBatch::Grid { keys: 10, attrs: 4 });
        let c = grid.execute(sql).unwrap();
        assert_eq!(a.relation.rows, c.relation.rows);
        // No fallback on the oracle: the attr-groups fuse the fetch
        // streams, ⌈C/A⌉ × ⌈keys/B⌉ prompts instead of C × ⌈keys/B⌉.
        assert!(
            c.stats.fetch_prompts < b.stats.fetch_prompts,
            "grid {} vs keys-only {}",
            c.stats.fetch_prompts,
            b.stats.fetch_prompts
        );
        assert!(c.stats.total_prompts() < b.stats.total_prompts());
        // The filter phase is untouched by attr fusion.
        assert_eq!(c.stats.filter_prompts, b.stats.filter_prompts);
    }

    #[test]
    fn grid_of_one_attr_matches_keys_batched_counts() {
        // Grid{B, 1}: the grid protocol at its ablation base case — one
        // attribute per prompt, same prompt-count economics as Keys(B),
        // different prompt text.
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let (_, keys) = oracle_session_batched(PromptBatch::Keys(10));
        let a = keys.execute(sql).unwrap();
        let (_, grid) = oracle_session_batched(PromptBatch::Grid { keys: 10, attrs: 1 });
        let b = grid.execute(sql).unwrap();
        assert_eq!(a.relation.rows, b.relation.rows);
        assert_eq!(a.stats.total_prompts(), b.stats.total_prompts());
        assert_eq!(a.stats.fetch_prompts, b.stats.fetch_prompts);
    }

    #[test]
    fn grid_repeat_queries_are_served_from_sub_entries() {
        let (_, g) = oracle_session_batched(PromptBatch::Grid { keys: 10, attrs: 4 });
        let sql = "SELECT name, population, country FROM city WHERE elevation < 100";
        let first = g.execute(sql).unwrap();
        assert!(first.stats.fetch_prompts > 0);
        // Grid answers were stored per (key, attr): the repeat run's
        // fetch phase resolves entirely at sub-entry extraction.
        let second = g.execute(sql).unwrap();
        assert_eq!(first.relation.rows, second.relation.rows);
        assert_eq!(second.stats.filter_prompts, 0);
        assert_eq!(second.stats.fetch_prompts, 0);
        assert!(second.stats.cache_hits > 0);
    }

    #[test]
    fn grid_mode_is_deterministic_across_lane_counts() {
        let sql = "SELECT name, population, country FROM city WHERE elevation < 100";
        let run = |lanes: usize| {
            let s = Scenario::generate(42);
            let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
            Galois::with_options(
                model,
                s.database.clone(),
                GaloisOptions {
                    prompt_batch: PromptBatch::Grid { keys: 10, attrs: 2 },
                    parallelism: Parallelism::new(lanes),
                    ..Default::default()
                },
            )
            .execute(sql)
            .unwrap()
        };
        let base = run(1);
        for lanes in [2usize, 8] {
            let got = run(lanes);
            assert_eq!(got.relation.rows, base.relation.rows, "lanes {lanes}");
            assert_eq!(
                got.stats.total_prompts(),
                base.stats.total_prompts(),
                "lanes {lanes}"
            );
        }
    }

    fn oracle_session_pipelined(pipeline: Pipeline, lanes: usize) -> (Scenario, Galois) {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let g = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                pipeline,
                prompt_batch: PromptBatch::Keys(10),
                parallelism: Parallelism::new(lanes),
                ..Default::default()
            },
        );
        (s, g)
    }

    #[test]
    fn streaming_beats_the_wave_clock_with_lanes() {
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let (_, wave) = oracle_session_pipelined(Pipeline::Off, 8);
        let (_, stream) = oracle_session_pipelined(Pipeline::Streaming, 8);
        let a = wave.execute(sql).unwrap();
        let b = stream.execute(sql).unwrap();
        assert_eq!(a.relation.rows, b.relation.rows);
        assert_eq!(a.stats.total_prompts(), b.stats.total_prompts());
        assert_eq!(a.stats.cache_hits, b.stats.cache_hits);
        // The fetch micro-batches hide behind the exhausted-page check
        // instead of waiting at the phase barrier.
        assert!(
            b.stats.virtual_ms < a.stats.virtual_ms,
            "streaming {} vs wave {}",
            b.stats.virtual_ms,
            a.stats.virtual_ms
        );
    }

    #[test]
    fn streaming_single_lane_serialises_the_micro_batch_overheads() {
        // With one lane there is nothing to overlap: every micro-batch
        // pays its own request overhead back to back, while the wave
        // amortises overheads across up to `batch_size` prompts. The
        // documented trade-off — pipelining is a concurrency optimisation.
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let (_, wave) = oracle_session_pipelined(Pipeline::Off, 1);
        let (_, stream) = oracle_session_pipelined(Pipeline::Streaming, 1);
        let a = wave.execute(sql).unwrap();
        let b = stream.execute(sql).unwrap();
        assert_eq!(a.relation.rows, b.relation.rows);
        assert!(
            b.stats.virtual_ms >= a.stats.virtual_ms,
            "single-lane streaming {} must not beat the wave {}",
            b.stats.virtual_ms,
            a.stats.virtual_ms
        );
        // At one lane the event clock degenerates to a running sum.
        assert_eq!(b.stats.virtual_ms, b.stats.serial_virtual_ms);
    }

    #[test]
    fn streaming_grid_matches_wave_grid_prompts_and_relations() {
        let sql = "SELECT name, population, country FROM city WHERE elevation < 100";
        let session = |pipeline| {
            let s = Scenario::generate(42);
            let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
            Galois::with_options(
                model,
                s.database.clone(),
                GaloisOptions {
                    pipeline,
                    prompt_batch: PromptBatch::Grid { keys: 10, attrs: 4 },
                    parallelism: Parallelism::new(8),
                    ..Default::default()
                },
            )
        };
        let a = session(Pipeline::Off).execute(sql).unwrap();
        let b = session(Pipeline::Streaming).execute(sql).unwrap();
        assert_eq!(a.relation.rows, b.relation.rows);
        assert_eq!(a.stats.total_prompts(), b.stats.total_prompts());
        assert_eq!(a.stats.cache_hits, b.stats.cache_hits);
        assert!(
            b.stats.virtual_ms < a.stats.virtual_ms,
            "streaming grid {} vs wave grid {}",
            b.stats.virtual_ms,
            a.stats.virtual_ms
        );
    }

    #[test]
    fn phase_breakdown_locates_the_time() {
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let (_, wave) = oracle_session_pipelined(Pipeline::Off, 8);
        let (_, stream) = oracle_session_pipelined(Pipeline::Streaming, 8);
        let a = wave.execute(sql).unwrap();
        let b = stream.execute(sql).unwrap();
        // The list chain is identical in both dataflows (it is inherently
        // sequential); wave phases sum to the step clock pre-packing.
        assert_eq!(a.stats.list_virtual_ms, b.stats.list_virtual_ms);
        assert!(a.stats.list_virtual_ms > 0);
        assert!(a.stats.fetch_virtual_ms > 0);
        assert!(b.stats.fetch_virtual_ms > 0);
    }

    #[test]
    fn streaming_sessions_explain_the_pipeline() {
        let (_, g) = oracle_session_pipelined(Pipeline::Streaming, 8);
        let text = g
            .explain("SELECT name FROM city WHERE population > 1000000")
            .unwrap();
        assert!(text.contains("pipeline: streaming"));
        let (_, off) = oracle_session_pipelined(Pipeline::Off, 8);
        let text = off
            .explain("SELECT name FROM city WHERE population > 1000000")
            .unwrap();
        assert!(!text.contains("pipeline:"));
    }

    #[test]
    fn streaming_repeat_queries_are_served_from_sub_entries() {
        let (_, g) = oracle_session_pipelined(Pipeline::Streaming, 8);
        let sql = "SELECT name, population FROM city WHERE elevation < 100";
        let first = g.execute(sql).unwrap();
        let second = g.execute(sql).unwrap();
        assert_eq!(first.relation.rows, second.relation.rows);
        assert_eq!(second.stats.filter_prompts, 0);
        assert_eq!(second.stats.fetch_prompts, 0);
        assert!(second.stats.cache_hits > 0);
        assert!(second.stats.virtual_ms < first.stats.virtual_ms);
    }

    #[test]
    fn pushdown_reduces_prompts() {
        let s = Scenario::generate(42);
        let model = Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()));
        let plain = Galois::new(model.clone(), s.database.clone());
        let pushed = Galois::with_options(
            model,
            s.database.clone(),
            GaloisOptions {
                compile: CompileOptions {
                    pushdown: true,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let sql = "SELECT name FROM city WHERE population > 1000000";
        let a = plain.execute(sql).unwrap();
        let b = pushed.execute(sql).unwrap();
        assert!(
            b.stats.total_prompts() < a.stats.total_prompts(),
            "pushdown {} vs plain {}",
            b.stats.total_prompts(),
            a.stats.total_prompts()
        );
    }
}
