//! The session's tuning knobs: [`GaloisOptions`] and the option enums it
//! is made of. Every default is the paper-faithful behaviour.

use crate::clean::CleaningPolicy;
use crate::compile::CompileOptions;
use crate::plan_choice::Planner;
use galois_llm::{KeyUniverseStore, Parallelism, RetryPolicy};
use std::fmt;
use std::sync::Arc;

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

/// Execution dataflow of the retrieval phases: which driver runs the one
/// retrieval protocol, and so which virtual clock a query is billed on.
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
///   amortises the overhead across up to twenty prompts per request.
///   Pipelining is a concurrency optimisation: the overheads overlap
///   across lanes, and the phase barriers disappear.
///
/// [`Pipeline::StreamingLimit`] is the same driver with LIMIT-aware early
/// termination. The paper's protocol materialises a concept's full key
/// universe before the residual plan runs, so `SELECT … LIMIT 10` over a
/// 100-key concept pays the whole prompt bill and throws 90 rows away.
/// Under `StreamingLimit`, a query whose residual plan is a plain window
/// — `Limit` over row-wise projections of a single LLM scan (see
/// [`crate::compile::limit_hint`]) — stops retrieval as soon as the
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
/// On a noise-free model an early-stopped `LIMIT` query returns exactly
/// the full evaluation truncated to the window and never issues more
/// prompts than the unlimited query; on a query without a plain window
/// `StreamingLimit` is bit-identical to `Streaming`. Only the event
/// driver can stop early — waves have no per-key release points to
/// cancel — which is why the policy is a variant of this enum and not a
/// knob of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Pipeline {
    /// Barrier-separated retrieval waves — the paper-faithful dataflow,
    /// bit-identical to the pre-pipelining releases. The default.
    #[default]
    Off,
    /// Per-key dataflow under the event-driven virtual clock: list pages
    /// feed filter micro-batches, survivors stream into the next
    /// condition and then into per-column fetch micro-batches. Always
    /// materialises the full key universe.
    Streaming,
    /// [`Pipeline::Streaming`], stopping retrieval once a plain `LIMIT`
    /// window is covered by confirmed survivors.
    StreamingLimit,
}

impl Pipeline {
    /// True when the event driver runs the retrieval (either streaming
    /// variant).
    pub fn is_streaming(self) -> bool {
        !matches!(self, Pipeline::Off)
    }

    /// True when retrieval stops at a covered `LIMIT` window.
    pub fn stops_at_limit(self) -> bool {
        matches!(self, Pipeline::StreamingLimit)
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
/// keyed by the model's [`galois_llm::LanguageModel::signature`]. Every later query
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

/// How the multi-query runner admits queries and shares the lane pool —
/// the argument of [`crate::multi::run_multi_query`], never a session
/// option: a session executes a query the same way whatever pool its
/// trace is later replayed on.
///
/// Every `0` field means "unbounded / derive automatically", which is also
/// the default policy: pool sized to `sessions × K`, no in-flight cap, no
/// per-session task quota, deficit-weighted fairness. Those defaults make
/// a single-session multi-query run bit-exact with running the same
/// queries back-to-back through the private streaming engine.
///
/// Admission control never changes *what* a query answers — queries
/// always execute logically in workload order with identical prompts,
/// cache hits and result relations; the policy only governs when their
/// traced tasks run on the shared clock (see [`crate::multi`]). Its
/// `Display` form is the one-line description a caller prints beside the
/// run it applies the policy to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Lanes in the shared pool; `0` derives `sessions × K` (every
    /// session brings its configured parallelism to the pool, so the
    /// capacity matches `sessions` independent `K`-lane query streams —
    /// the apples-to-apples comparison against per-query packing).
    pub pool_lanes: usize,
    /// Maximum queries admitted (running) at once; `0` is unlimited.
    /// Arrivals beyond the cap wait in FIFO order, and their wait is
    /// tallied as [`super::QueryStats::queue_ms`].
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

impl fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bound = |n: usize, unit: &str| match n {
            0 => "unlimited".to_string(),
            n => format!("{n} {unit}"),
        };
        match self.pool_lanes {
            0 => write!(f, "shared pool (sessions × K lanes)")?,
            n => write!(f, "shared pool ({n} lanes)")?,
        }
        write!(
            f,
            ", in-flight cap {}, quota {}, share {}",
            bound(self.max_inflight, "queries"),
            bound(self.session_quota, "tasks/session"),
            self.share,
        )
    }
}

/// Tuning knobs of a session.
///
/// Two presets name the configurations everything else is measured
/// against: [`GaloisOptions::default`], the paper's pipeline, and
/// [`GaloisOptions::serving`], the stack the benchmark's serving
/// workloads run.
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
    /// phase barriers; [`Pipeline::StreamingLimit`] also stops listing
    /// and prunes unissued filter/fetch work once a plain `LIMIT` window
    /// is covered by confirmed survivors.
    pub pipeline: Pipeline,
    /// Cross-query key-universe store for the LIST phase.
    /// [`ListStore::Off`] (the default) re-lists every query bit for bit;
    /// `On`/`Shared` serve warm concepts at zero prompt cost and page
    /// cold ones speculatively (see [`ListStore`]).
    pub list_store: ListStore,
    /// Fault handling for model requests. [`Resilience::Off`] (the
    /// default) hands degraded completions straight to the parsers bit
    /// for bit; [`Resilience::On`] retries failed requests with backoff
    /// billed in virtual time (see [`Resilience`]).
    pub resilience: Resilience,
}

impl Default for GaloisOptions {
    /// The paper preset: one lane, one task per prompt, barrier-separated
    /// waves, fixed-rule planning, no cross-query state, no retries —
    /// bit-exact with the pipeline the paper describes.
    fn default() -> Self {
        GaloisOptions {
            compile: CompileOptions::default(),
            cleaning: CleaningPolicy::default(),
            max_list_iterations: 32,
            parallelism: Parallelism::default(),
            planner: Planner::default(),
            prompt_batch: PromptBatch::default(),
            pipeline: Pipeline::default(),
            list_store: ListStore::default(),
            resilience: Resilience::default(),
        }
    }
}

impl GaloisOptions {
    /// The serving preset: eight lanes, the cost-based planner, streaming
    /// retrieval, 10 keys × 6 attributes per grid prompt and a
    /// session-private key-universe store — the stack behind the
    /// `serving_*` and `frontend` benchmark workloads and the
    /// `galois_grid_fused` ledger row (`galois_bench::grid_stack_options(8,
    /// 10, 6)`).
    pub fn serving() -> Self {
        GaloisOptions {
            parallelism: Parallelism::new(8),
            planner: Planner::CostBased,
            prompt_batch: PromptBatch::Grid { keys: 10, attrs: 6 },
            pipeline: Pipeline::Streaming,
            list_store: ListStore::On,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_admission_policy_describes_itself_in_one_line() {
        assert_eq!(
            AdmissionPolicy {
                max_inflight: 4,
                ..Default::default()
            }
            .to_string(),
            "shared pool (sessions × K lanes), in-flight cap 4 queries, quota unlimited, \
             share deficit-ms"
        );
        assert_eq!(
            AdmissionPolicy {
                pool_lanes: 64,
                max_inflight: 0,
                session_quota: 2,
                share: galois_llm::FairShare::RoundRobin,
            }
            .to_string(),
            "shared pool (64 lanes), in-flight cap unlimited, quota 2 tasks/session, \
             share round-robin"
        );
    }

    #[test]
    fn the_presets_are_the_paper_pipeline_and_the_serving_stack() {
        let paper = GaloisOptions::default();
        assert_eq!(paper.parallelism.get(), 1);
        assert_eq!(paper.planner, Planner::Heuristic);
        assert_eq!(paper.prompt_batch, PromptBatch::Off);
        assert_eq!(paper.pipeline, Pipeline::Off);
        assert_eq!(paper.list_store, ListStore::Off);
        assert_eq!(paper.resilience, Resilience::Off);
        // Serving changes the five scheduling knobs and nothing else.
        let serving = GaloisOptions::serving();
        assert_eq!(serving.parallelism.get(), 8);
        assert_eq!(serving.planner, Planner::CostBased);
        assert_eq!(
            serving.prompt_batch,
            PromptBatch::Grid { keys: 10, attrs: 6 }
        );
        assert_eq!(serving.pipeline, Pipeline::Streaming);
        assert_eq!(serving.list_store, ListStore::On);
        assert_eq!(
            GaloisOptions {
                parallelism: paper.parallelism,
                planner: paper.planner,
                prompt_batch: paper.prompt_batch,
                pipeline: paper.pipeline,
                list_store: paper.list_store.clone(),
                ..serving
            },
            paper
        );
    }

    #[test]
    fn both_streaming_variants_run_the_event_driver() {
        assert!(!Pipeline::Off.is_streaming() && !Pipeline::Off.stops_at_limit());
        assert!(Pipeline::Streaming.is_streaming() && !Pipeline::Streaming.stops_at_limit());
        assert!(
            Pipeline::StreamingLimit.is_streaming() && Pipeline::StreamingLimit.stops_at_limit()
        );
    }
}
