//! The model client: caching, batching and virtual-clock accounting.
//!
//! The paper reports "∼110 batched prompts per query" and "∼20 seconds to
//! execute a query" on GPT-3 (§5), without controlling OpenAI's
//! infrastructure. The client reproduces that accounting with a virtual
//! clock: every completion carries a simulated latency, batches add one
//! request overhead, and a prompt cache models the obvious deduplication a
//! production system would deploy. No real time passes.
//!
//! The client is built to be shared across worker threads:
//!
//! * the prompt cache is striped over [`CACHE_SHARDS`] mutexes keyed by
//!   prompt hash, so concurrent lookups of different prompts do not
//!   serialise on one lock (and a hit costs a single lock acquisition);
//! * a prompt that is being completed on one thread parks concurrent
//!   requests for the *same* prompt until the first completion lands
//!   (in-flight deduplication) — the model is called exactly once per
//!   unique prompt, and the waiters count as cache hits, exactly as they
//!   would have in a sequential run;
//! * the stats mutex is taken once per batch, after all model calls, never
//!   across them.
//!
//! Virtual time honours the [`Parallelism`] knob: a batch of independent
//! prompts costs `overhead + max(lane sums)` across `K` simulated request
//! lanes ([`lane_schedule`]), with `K = 1` reproducing the original
//! sequential accounting bit-for-bit.

use crate::columns::{SubColumn, SubLookup, SubStore};
use crate::lanes::{lane_schedule, Parallelism};
use crate::model::{Completion, FaultKind, LanguageModel, Usage};
use crate::resilience::{CircuitBreaker, RetryPolicy};
use parking_lot::Mutex;
use std::collections::hash_map::{Entry as MapEntry, HashMap, RandomState};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};

/// Usage counters accumulated by a client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Prompts answered by the model (cache misses).
    pub prompts: usize,
    /// Prompts served from the cache (including in-flight waiters).
    pub cache_hits: usize,
    /// Batch requests issued.
    pub batches: usize,
    /// Total prompt tokens sent (cache misses only).
    pub prompt_tokens: usize,
    /// Total completion tokens received (cache misses only).
    pub completion_tokens: usize,
    /// Total virtual elapsed milliseconds under the client's lane count.
    pub virtual_ms: u64,
    /// Virtual milliseconds a single-lane client would have charged for the
    /// same batches (`virtual_ms == serial_ms` when `Parallelism` is 1).
    pub serial_ms: u64,
    /// Re-asks issued by the resilient retry loop (never counted in
    /// `prompts`, which stays net of retries).
    pub retries: usize,
    /// Attempts that exceeded their deadline (timeout faults, plus
    /// successful answers slower than the policy's `timeout_ms`).
    pub timeouts: usize,
    /// Attempts the model refused with a rate-limit signal.
    pub rate_limited: usize,
    /// Requests failed fast by the open circuit breaker (no model call).
    pub breaker_fastfails: usize,
    /// Faulted attempts observed, all kinds (with resilience off, each is
    /// a degraded completion handed downstream; with resilience on, most
    /// are absorbed by retries).
    pub faults: usize,
}

impl ClientStats {
    /// Virtual elapsed time in seconds.
    pub fn virtual_seconds(&self) -> f64 {
        self.virtual_ms as f64 / 1000.0
    }
}

/// Fixed virtual overhead per batch request (network + queueing).
pub const BATCH_OVERHEAD_MS: u64 = 250;

/// Number of mutex-striped shards in the prompt cache.
pub const CACHE_SHARDS: usize = 16;

/// Accounting for one batch request, returned alongside the completions so
/// callers (the session scheduler) can compose per-phase virtual time
/// without re-deriving it from global counter deltas.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One completion per prompt, in prompt order.
    pub completions: Vec<Completion>,
    /// Prompts served from the cache (or an in-flight duplicate).
    pub hits: usize,
    /// Prompts that reached the model.
    pub misses: usize,
    /// Prompt tokens sent (misses only).
    pub prompt_tokens: usize,
    /// Completion tokens received (misses only).
    pub completion_tokens: usize,
    /// Virtual cost of the batch: overhead + miss latencies packed onto the
    /// client's request lanes.
    pub virtual_ms: u64,
    /// Virtual cost the same batch would have had on one lane.
    pub serial_ms: u64,
    /// Re-asks the retry loop spent on this batch's misses.
    pub retries: usize,
    /// Timed-out attempts behind this batch's misses.
    pub timeouts: usize,
    /// Rate-limited attempts behind this batch's misses.
    pub rate_limited: usize,
    /// Requests failed fast by the open breaker.
    pub breaker_fastfails: usize,
    /// Faulted attempts observed behind this batch's misses.
    pub faults: usize,
}

/// Per-call resilience accounting, threaded from the model-call path up to
/// [`LlmClient::charge`] (internal carrier; surfaced flat on
/// [`BatchOutcome`] and [`ClientStats`]).
#[derive(Debug, Clone, Copy, Default)]
struct FaultCounters {
    retries: usize,
    timeouts: usize,
    rate_limited: usize,
    breaker_fastfails: usize,
    faults: usize,
}

impl FaultCounters {
    fn add(&mut self, other: FaultCounters) {
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.rate_limited += other.rate_limited;
        self.breaker_fastfails += other.breaker_fastfails;
        self.faults += other.faults;
    }

    fn count_kind(&mut self, kind: FaultKind) {
        self.faults += 1;
        match kind {
            FaultKind::Timeout => self.timeouts += 1,
            FaultKind::RateLimit => self.rate_limited += 1,
            FaultKind::Transient | FaultKind::Truncated => {}
        }
    }
}

/// A cache slot: a landed completion, or a marker that some thread is
/// already asking the model for this prompt.
enum Slot {
    Ready(Completion),
    InFlight(Arc<InFlight>),
}

/// Progress of one in-flight completion.
enum InFlightState {
    Pending,
    Ready(Completion),
    /// The owning thread unwound before fulfilling; waiters must retry.
    Abandoned,
}

/// Rendezvous for concurrent requests of one prompt. Uses `std::sync`
/// primitives directly because waiters need a [`Condvar`].
struct InFlight {
    state: StdMutex<InFlightState>,
    ready: Condvar,
}

impl Default for InFlight {
    fn default() -> Self {
        InFlight {
            state: StdMutex::new(InFlightState::Pending),
            ready: Condvar::new(),
        }
    }
}

impl InFlight {
    fn resolve(&self, state: InFlightState) {
        let mut slot = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *slot = state;
        drop(slot);
        self.ready.notify_all();
    }

    /// Blocks until the owner resolves; `None` means the completion was
    /// abandoned (the owner panicked) and the caller should retry.
    fn wait(&self) -> Option<Completion> {
        let mut slot = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match &*slot {
                InFlightState::Pending => {}
                InFlightState::Ready(c) => return Some(c.clone()),
                InFlightState::Abandoned => return None,
            }
            slot = self.ready.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Unwind guard for the thread that owns an [`InFlight`] marker: if the
/// model call panics, the marker is removed from the shard and waiters are
/// woken with `Abandoned` instead of blocking forever (the panic itself
/// still propagates when the scheduler scope joins).
struct FulfillGuard<'a> {
    shard: &'a Mutex<Table<Slot>>,
    probe: &'a Probe<'a>,
    pending: &'a Arc<InFlight>,
    armed: bool,
}

impl Drop for FulfillGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut table = self.shard.lock();
        if let Some(Slot::InFlight(current)) = table.get_mut(self.probe) {
            if Arc::ptr_eq(current, self.pending) {
                table.remove(self.probe);
            }
        }
        drop(table);
        self.pending.resolve(InFlightState::Abandoned);
    }
}

/// Result of a whole-signature sub-entry lookup
/// ([`LlmClient::extract_sub_entry`]): the stored answer, copied out.
pub type SubEntryLookup = SubLookup<String>;

/// A string-keyed map striped over [`CACHE_SHARDS`] mutexes, so concurrent
/// lookups of different keys do not serialise on one lock. Backs the
/// prompt cache (`Striped<Slot>`).
///
/// A lookup reads its key's bytes twice and no more. [`Striped::probe`]
/// hashes the text once, with a SipHash keyed at random per map — keys
/// hold model output, which is input from outside the program, so the
/// hash must stay one an adversary cannot aim. That one `u64` picks the
/// shard, indexes the shard's table through a pass-through [`Hasher`] and
/// is the table's stored key, so a growing table never reads key text.
/// The second read is the comparison: a hash only *locates* candidates,
/// and an entry answers for a text only if its full text is equal.
///
/// Stored text is front-coded against the first key the map ever saw, the
/// way B-tree pages and string dictionaries compress a sorted run: an
/// entry keeps how many leading bytes it shares with that reference and
/// its own tail. Operator prompts share a few-shot preamble of several
/// hundred bytes, which is stored once.
struct Striped<V> {
    shards: Vec<Mutex<Table<V>>>,
    keys: RandomState,
    /// The first key seen; every entry's `shared` counts bytes of it.
    /// Never replaced (entries would decode differently), so it outlives
    /// [`Striped::clear`].
    reference: OnceLock<Box<str>>,
    /// Test-only: hash every key to the same value, so that every lookup
    /// exercises the collision chain of one shard.
    #[cfg(test)]
    colliding: bool,
}

/// One lookup's view of its key: the text, its hash, and how many leading
/// bytes it has in common with the map's reference.
struct Probe<'a> {
    text: &'a str,
    hash: u64,
    common: usize,
}

/// One stored key, `reference[..shared] + tail`, and its value. `next`
/// chains the other keys with the same 64-bit hash, of which there are in
/// practice none.
struct Entry<V> {
    shared: u32,
    tail: Box<str>,
    value: V,
    next: Option<Box<Entry<V>>>,
}

impl<V> Entry<V> {
    fn holds(&self, probe: &Probe) -> bool {
        // `shared <= common` says the text starts with the same
        // `reference[..shared]` this entry does.
        let shared = self.shared as usize;
        shared <= probe.common && probe.text.as_bytes()[shared..] == *self.tail.as_bytes()
    }
}

/// Feeds a precomputed `u64` hash through to the table unchanged.
#[derive(Default)]
pub(crate) struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _: &[u8]) {
        unreachable!("tables are keyed by u64 hashes");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One shard: key hash → the entries with that hash.
struct Table<V>(HashMap<u64, Entry<V>, BuildHasherDefault<PassThrough>>);

impl<V> Table<V> {
    fn get_mut(&mut self, probe: &Probe) -> Option<&mut V> {
        let mut entry = self.0.get_mut(&probe.hash)?;
        loop {
            if entry.holds(probe) {
                return Some(&mut entry.value);
            }
            entry = entry.next.as_deref_mut()?;
        }
    }

    /// Stores a key that [`Table::get_mut`] has just reported absent.
    fn insert(&mut self, probe: &Probe, value: V) {
        // Back off to a character boundary so the tail is a `str`; `u32`
        // bounds what one entry can share, never what it can hold.
        let mut shared = probe.common.min(u32::MAX as usize);
        while !probe.text.is_char_boundary(shared) {
            shared -= 1;
        }
        let mut entry = Entry {
            shared: shared as u32,
            tail: probe.text[shared..].into(),
            value,
            next: None,
        };
        match self.0.entry(probe.hash) {
            MapEntry::Vacant(slot) => {
                slot.insert(entry);
            }
            MapEntry::Occupied(slot) => {
                let head = slot.into_mut();
                entry.next = head.next.take();
                head.next = Some(Box::new(entry));
            }
        }
    }

    fn remove(&mut self, probe: &Probe) {
        let MapEntry::Occupied(mut slot) = self.0.entry(probe.hash) else {
            return;
        };
        if slot.get().holds(probe) {
            match slot.get_mut().next.take() {
                Some(next) => *slot.get_mut() = *next,
                None => {
                    slot.remove();
                }
            }
            return;
        }
        Self::unlink(&mut slot.get_mut().next, probe);
    }

    /// Removes the probe's entry from the chain behind a table slot.
    fn unlink(link: &mut Option<Box<Entry<V>>>, probe: &Probe) {
        match link {
            Some(entry) if entry.holds(probe) => *link = entry.next.take(),
            Some(entry) => Self::unlink(&mut entry.next, probe),
            None => {}
        }
    }
}

impl<V> Striped<V> {
    fn new() -> Self {
        Striped {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(Table(HashMap::default())))
                .collect(),
            keys: RandomState::new(),
            reference: OnceLock::new(),
            #[cfg(test)]
            colliding: false,
        }
    }

    /// A map that hashes every key to the same value.
    #[cfg(test)]
    fn colliding() -> Self {
        Striped {
            colliding: true,
            ..Striped::new()
        }
    }

    /// Reads `text` for its hash and for its common prefix with the
    /// reference, which the first text probed becomes.
    fn probe<'a>(&self, text: &'a str) -> Probe<'a> {
        let hash = self.keys.hash_one(text);
        #[cfg(test)]
        let hash = if self.colliding { 0 } else { hash };
        let reference = self.reference.get_or_init(|| text.into());
        Probe {
            text,
            hash,
            common: common_prefix(text.as_bytes(), reference.as_bytes()),
        }
    }

    /// The shard a probe lives in. The table indexes itself by the hash's
    /// low bits and tags entries by its top seven; the shard comes from
    /// bits neither uses.
    fn shard(&self, probe: &Probe) -> &Mutex<Table<V>> {
        &self.shards[(probe.hash >> 32) as usize % CACHE_SHARDS]
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.lock().0.clear();
        }
    }
}

/// Length of the longest common prefix of two byte strings.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    const WORD: usize = 8;
    let words = a
        .chunks_exact(WORD)
        .zip(b.chunks_exact(WORD))
        .take_while(|(x, y)| x == y)
        .count();
    let rest = a[words * WORD..]
        .iter()
        .zip(&b[words * WORD..])
        .take_while(|(x, y)| x == y)
        .count();
    words * WORD + rest
}

/// A caching, stats-keeping, thread-safe client over any [`LanguageModel`].
pub struct LlmClient {
    model: Arc<dyn LanguageModel>,
    /// The prompt cache: full prompt text → completion (or in-flight
    /// marker).
    cache: Striped<Slot>,
    /// **Per-key sub-entries**: individual `key → answer` fragments
    /// extracted from batched multi-key answers (and from single-key
    /// answers while batching is on), keyed by a caller-chosen task
    /// signature.
    ///
    /// The prompt cache alone cannot serve these crossovers — a single-key
    /// prompt and a batched prompt containing the same key are different
    /// strings, and two batched prompts over overlapping key sets chunk
    /// differently across queries. The sub-entry store caches at the
    /// *task* granularity instead, so a key answered inside any earlier
    /// batch is a cache hit for every later prompt that would re-ask it,
    /// batched or not. One column per signature prefix
    /// ([`crate::columns`]).
    sub_entries: SubStore,
    /// Sub-entry hits, counted beside `stats` so that a hit takes no
    /// second lock; [`LlmClient::stats`] folds them into `cache_hits`.
    sub_hits: AtomicUsize,
    stats: Mutex<ClientStats>,
    cache_enabled: bool,
    parallelism: Parallelism,
    /// Retry/backoff/timeout policy; `None` forwards every fault's
    /// degraded completion downstream untouched (the PR-8 behaviour).
    resilience: Option<RetryPolicy>,
    /// Circuit breaker over the client's model (one model per client, so
    /// per-client is per-model-signature). Only consulted with resilience
    /// on.
    breaker: Mutex<CircuitBreaker>,
    /// How many times the sub-entry store has been cleared: a stored
    /// answer never changes within one generation.
    sub_generation: AtomicUsize,
}

impl LlmClient {
    /// Wraps a model with caching enabled and one request lane.
    pub fn new(model: Arc<dyn LanguageModel>) -> Self {
        Self::with_parallelism(model, Parallelism::default())
    }

    /// Wraps a model with caching enabled and `parallelism` request lanes.
    pub fn with_parallelism(model: Arc<dyn LanguageModel>, parallelism: Parallelism) -> Self {
        LlmClient {
            model,
            cache: Striped::new(),
            sub_entries: SubStore::new(),
            sub_hits: AtomicUsize::new(0),
            stats: Mutex::new(ClientStats::default()),
            cache_enabled: true,
            parallelism,
            resilience: None,
            breaker: Mutex::new(CircuitBreaker::default()),
            sub_generation: AtomicUsize::new(0),
        }
    }

    /// Enables the resilient retry loop: faulted requests are retried up
    /// to the policy's budget with exponential backoff + jitter billed in
    /// virtual time, slow answers past `timeout_ms` are re-asked, and the
    /// circuit breaker fails requests fast after a streak of exhaustions.
    pub fn with_resilience(mut self, policy: RetryPolicy) -> Self {
        self.resilience = Some(policy);
        self
    }

    /// The retry policy in effect, if resilience is on.
    pub fn resilience(&self) -> Option<RetryPolicy> {
        self.resilience
    }

    /// Wraps a model without the prompt cache (every call hits the model).
    pub fn without_cache(model: Arc<dyn LanguageModel>) -> Self {
        LlmClient {
            cache_enabled: false,
            ..Self::new(model)
        }
    }

    /// A client whose two stores hash every key to the same value: every
    /// prompt lands in one shard, every key of a column on one chain.
    #[cfg(test)]
    pub(crate) fn colliding(model: Arc<dyn LanguageModel>) -> Self {
        LlmClient {
            cache: Striped::colliding(),
            sub_entries: SubStore::colliding(),
            ..Self::new(model)
        }
    }

    /// The wrapped model's name.
    pub fn model_name(&self) -> String {
        self.model.name().to_string()
    }

    /// The request-lane count in use.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Completes one prompt (counts as a batch of one).
    pub fn complete(&self, prompt: &str) -> Completion {
        self.complete_one(prompt).0
    }

    /// Completes one prompt, returning full batch accounting.
    pub fn complete_outcome(&self, prompt: &str) -> BatchOutcome {
        let (completion, mut outcome) = self.complete_one(prompt);
        outcome.completions.push(completion);
        outcome
    }

    /// One prompt as a batch of one: its completion, and the charged
    /// outcome without it.
    fn complete_one(&self, prompt: &str) -> (Completion, BatchOutcome) {
        let (completion, hit, counters) = self.lookup_or_complete(prompt);
        let outcome = if hit {
            self.charge(Vec::new(), 1, &[], 0, 0, counters)
        } else {
            let latency = [completion.latency_ms];
            let p_tok = completion.usage.prompt_tokens;
            let c_tok = completion.usage.completion_tokens;
            self.charge(Vec::with_capacity(1), 0, &latency, p_tok, c_tok, counters)
        };
        (completion, outcome)
    }

    /// Completes a batch of prompts; one batch overhead is charged and the
    /// member latencies pack onto the client's request lanes (one lane:
    /// the provider decodes sequentially per request stream).
    pub fn complete_batch(&self, prompts: &[String]) -> Vec<Completion> {
        self.complete_batch_outcome(prompts).completions
    }

    /// Completes a batch of prompts, returning full accounting.
    pub fn complete_batch_outcome(&self, prompts: &[String]) -> BatchOutcome {
        let mut completions = Vec::with_capacity(prompts.len());
        let mut miss_latencies = Vec::new();
        let (mut hits, mut p_tok, mut c_tok) = (0usize, 0usize, 0usize);
        let mut counters = FaultCounters::default();
        for prompt in prompts {
            let (completion, hit, call_counters) = self.lookup_or_complete(prompt);
            counters.add(call_counters);
            if hit {
                hits += 1;
            } else {
                p_tok += completion.usage.prompt_tokens;
                c_tok += completion.usage.completion_tokens;
                miss_latencies.push(completion.latency_ms);
            }
            completions.push(completion);
        }
        self.charge(completions, hits, &miss_latencies, p_tok, c_tok, counters)
    }

    /// One cache round-trip for one prompt; returns `(completion, hit,
    /// resilience counters)`.
    ///
    /// The prompt is hashed once ([`Striped::probe`]), however many times
    /// the table is consulted. Hits take a single shard-lock acquisition.
    /// Misses insert an [`InFlight`] marker, release the lock, call the
    /// model (through the retry loop when resilience is on), then swap the
    /// marker for the landed completion — concurrent requests for the same
    /// prompt wait on the marker and count as hits; with none waiting, the
    /// completion is cloned once, for the cache. The marker also
    /// serialises the retry loop per prompt: a prompt's attempt sequence
    /// is walked by exactly one thread, so fault schedules stay
    /// deterministic under lanes.
    fn lookup_or_complete(&self, prompt: &str) -> (Completion, bool, FaultCounters) {
        if !self.cache_enabled {
            let (completion, counters) = self.call_model(prompt);
            return (completion, false, counters);
        }
        enum Found {
            Ready(Completion),
            Wait(Arc<InFlight>),
            Mine(Arc<InFlight>),
        }
        let probe = self.cache.probe(prompt);
        let shard = self.cache.shard(&probe);
        loop {
            let found = {
                let mut table = shard.lock();
                match table.get_mut(&probe) {
                    Some(Slot::Ready(c)) => Found::Ready(c.clone()),
                    Some(Slot::InFlight(pending)) => Found::Wait(Arc::clone(pending)),
                    None => {
                        let pending = Arc::new(InFlight::default());
                        table.insert(&probe, Slot::InFlight(Arc::clone(&pending)));
                        Found::Mine(pending)
                    }
                }
            };
            match found {
                Found::Ready(c) => return (c, true, FaultCounters::default()),
                Found::Wait(pending) => match pending.wait() {
                    Some(c) => return (c, true, FaultCounters::default()),
                    // The owner panicked before fulfilling: retry the
                    // lookup and complete the prompt ourselves.
                    None => continue,
                },
                Found::Mine(pending) => {
                    let mut guard = FulfillGuard {
                        shard,
                        probe: &probe,
                        pending: &pending,
                        armed: true,
                    };
                    let (completion, counters) = self.call_model(prompt);
                    guard.armed = false;
                    let stored = Slot::Ready(completion.clone());
                    {
                        let mut table = shard.lock();
                        match table.get_mut(&probe) {
                            // Normal path: replace our own marker in place.
                            Some(slot) => *slot = stored,
                            // The cache was cleared mid-flight; re-insert.
                            None => table.insert(&probe, stored),
                        }
                    }
                    // Waiters clone the marker under the shard lock, and
                    // the table no longer holds it: if ours is the only
                    // reference left, nobody waits and nobody will.
                    if Arc::strong_count(&pending) > 1 {
                        pending.resolve(InFlightState::Ready(completion.clone()));
                    }
                    return (completion, false, counters);
                }
            }
        }
    }

    /// One model request through the resilience layer.
    ///
    /// With resilience off this is a single `try_complete`: a fault's
    /// degraded completion is handed downstream as-is (only counted).
    /// With resilience on, faulted attempts — and successful answers
    /// slower than the policy deadline — are retried up to the budget,
    /// with each failed attempt's latency plus the exponential backoff
    /// (deterministically jittered per prompt/attempt) accrued into the
    /// returned completion's `latency_ms`, so retry time flows through
    /// lane packing and the event clock like any model latency. Token
    /// usage is *not* accrued across attempts: retry cost is modelled in
    /// virtual time only, which keeps token totals bit-exact with the
    /// fault-free run once retries succeed. On exhaustion the last fault's
    /// degraded completion (with the accrued wait) goes downstream and the
    /// breaker records the failure; while the breaker is open, requests
    /// fail fast with marker text and zero model calls.
    fn call_model(&self, prompt: &str) -> (Completion, FaultCounters) {
        let mut counters = FaultCounters::default();
        let Some(policy) = self.resilience else {
            return match self.model.try_complete(prompt) {
                Ok(completion) => (completion, counters),
                Err(fault) => {
                    counters.count_kind(fault.kind);
                    (fault.degraded, counters)
                }
            };
        };
        if !self.breaker.lock().admit(&policy) {
            counters.breaker_fastfails += 1;
            let text = crate::faults::fault_text(FaultKind::Transient);
            let completion = Completion {
                usage: Usage::default(),
                text,
                latency_ms: 0,
            };
            return (completion, counters);
        }
        let mut accrued_ms = 0u64;
        let mut retry = 0u32;
        loop {
            let outcome = self.model.try_complete(prompt);
            let budget_left = retry < policy.max_retries;
            match outcome {
                Ok(completion) if completion.latency_ms > policy.timeout_ms && budget_left => {
                    // Too slow: the caller gave up at the deadline. Bill
                    // the window waited plus the backoff, then re-ask.
                    counters.timeouts += 1;
                    counters.retries += 1;
                    accrued_ms += policy.timeout_ms + policy.backoff_ms(prompt, retry);
                    retry += 1;
                }
                Ok(mut completion) => {
                    completion.latency_ms += accrued_ms;
                    self.breaker.lock().record_success();
                    return (completion, counters);
                }
                Err(fault) if budget_left => {
                    counters.count_kind(fault.kind);
                    counters.retries += 1;
                    accrued_ms += fault.degraded.latency_ms + policy.backoff_ms(prompt, retry);
                    retry += 1;
                }
                Err(fault) => {
                    counters.count_kind(fault.kind);
                    self.breaker.lock().record_exhaustion(&policy);
                    let mut completion = fault.degraded;
                    completion.latency_ms += accrued_ms;
                    return (completion, counters);
                }
            }
        }
    }

    /// Folds one batch's accounting into the global stats (single stats
    /// lock acquisition, after all model calls) and builds the outcome.
    fn charge(
        &self,
        completions: Vec<Completion>,
        hits: usize,
        miss_latencies: &[u64],
        prompt_tokens: usize,
        completion_tokens: usize,
        counters: FaultCounters,
    ) -> BatchOutcome {
        let misses = miss_latencies.len();
        let virtual_ms = BATCH_OVERHEAD_MS
            + lane_schedule(miss_latencies.iter().copied(), self.parallelism.get());
        let serial_ms = BATCH_OVERHEAD_MS + miss_latencies.iter().sum::<u64>();
        {
            let mut stats = self.stats.lock();
            stats.batches += 1;
            stats.prompts += misses;
            stats.cache_hits += hits;
            stats.prompt_tokens += prompt_tokens;
            stats.completion_tokens += completion_tokens;
            stats.virtual_ms += virtual_ms;
            stats.serial_ms += serial_ms;
            stats.retries += counters.retries;
            stats.timeouts += counters.timeouts;
            stats.rate_limited += counters.rate_limited;
            stats.breaker_fastfails += counters.breaker_fastfails;
            stats.faults += counters.faults;
        }
        BatchOutcome {
            completions,
            hits,
            misses,
            prompt_tokens,
            completion_tokens,
            virtual_ms,
            serial_ms,
            retries: counters.retries,
            timeouts: counters.timeouts,
            rate_limited: counters.rate_limited,
            breaker_fastfails: counters.breaker_fastfails,
            faults: counters.faults,
        }
    }

    /// The column of the sub-entry store that holds the cells whose
    /// signature starts with `prefix` — everything of a cell signature but
    /// its key. A stage resolves its columns once per statement and then
    /// asks per key ([`LlmClient::extract_in`], [`LlmClient::store_in`]).
    pub fn sub_column(&self, prefix: &str) -> SubColumn {
        self.sub_entries.column(prefix)
    }

    /// Looks one key's sub-entry up in a column and, on a stored answer,
    /// hands it to `read` — in place, under the column's lock, so `read`
    /// must not call back into this client.
    ///
    /// A stored answer is served as [`SubLookup::Hit`] (a cache hit: the
    /// key's answer costs no prompt, so no batch is charged — unlike a
    /// prompt-cache hit, which still rides inside a batch request). A
    /// first ask returns [`SubLookup::Miss`] and leaves an in-flight
    /// marker; a concurrent lookup that finds the marker returns
    /// [`SubLookup::InFlight`], which *also* counts as a cache hit — hits
    /// are a function of how often each cell is asked, never of which
    /// thread's store landed first — but obliges the caller to produce the
    /// answer itself. Always misses when the cache is disabled.
    pub fn extract_in<R>(
        &self,
        column: &SubColumn,
        key: &str,
        read: impl FnOnce(&str) -> R,
    ) -> SubLookup<R> {
        if !self.cache_enabled {
            return SubLookup::Miss;
        }
        self.count_sub_hit(column.extract(key, read))
    }

    /// Stores one key's answer fragment in a column, making it extractable
    /// by later single-key or batched requests. First *stored* write wins:
    /// per-key answers are deterministic per session, so re-storing after
    /// a raw-prompt-cache hit must not flap the entry (an in-flight marker
    /// is always replaced — it holds no answer).
    ///
    /// Fault-marker text is never stored: a degraded answer must not
    /// poison the sub-entry store for later queries (the in-flight marker
    /// is left in place, so by-signature hit accounting is unaffected).
    pub fn store_in(&self, column: &SubColumn, key: &str, answer: &str) {
        if self.cache_enabled && !crate::faults::is_fault_text(answer) {
            column.store(key, answer);
        }
    }

    /// [`LlmClient::extract_in`] by whole signature: the column is the
    /// signature up to and including its last U+001F (the empty prefix
    /// when it has none), the key is the rest, and the answer is copied
    /// out. A cell is the pair `(prefix, key)`, not their concatenation.
    pub fn extract_sub_entry(&self, sig: &str) -> SubEntryLookup {
        if !self.cache_enabled {
            return SubLookup::Miss;
        }
        self.count_sub_hit(self.sub_entries.extract(sig, str::to_string))
    }

    /// [`LlmClient::store_in`] by whole signature, split as
    /// [`LlmClient::extract_sub_entry`] splits it.
    pub fn store_sub_entry(&self, sig: &str, answer: &str) {
        if self.cache_enabled && !crate::faults::is_fault_text(answer) {
            self.sub_entries.store(sig, answer);
        }
    }

    fn count_sub_hit<R>(&self, found: SubLookup<R>) -> SubLookup<R> {
        if !matches!(found, SubLookup::Miss) {
            self.bill_sub_hits(1);
        }
        found
    }

    /// Bills `n` sub-entry hits: what [`LlmClient::extract_in`] counts for
    /// `n` stored answers, for a caller that kept what it read from them
    /// and serves it again ([`LlmClient::sub_generation`] tells it until
    /// when).
    pub fn bill_sub_hits(&self, n: usize) {
        self.sub_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// The sub-entry store's generation, which [`LlmClient::clear_cache`]
    /// advances: whatever a reader derived from an answer stored under an
    /// earlier one is stale.
    pub fn sub_generation(&self) -> usize {
        self.sub_generation.load(Ordering::SeqCst)
    }

    /// Snapshot of the accumulated stats.
    pub fn stats(&self) -> ClientStats {
        let mut stats = *self.stats.lock();
        stats.cache_hits += self.sub_hits.load(Ordering::Relaxed);
        stats
    }

    /// Resets counters (the cache is kept).
    pub fn reset_stats(&self) {
        *self.stats.lock() = ClientStats::default();
        self.sub_hits.store(0, Ordering::Relaxed);
    }

    /// Clears the prompt cache and the per-key sub-entry store.
    pub fn clear_cache(&self) {
        self.cache.clear();
        self.sub_entries.clear();
        self.sub_generation.fetch_add(1, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------
// Key-universe store
// ---------------------------------------------------------------------

/// One concept's stored key universe: the keys its LIST phase produced, in
/// discovery order, plus how far the listing got.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyUniverse {
    /// Listed keys in discovery order (cleaned, de-duplicated — exactly
    /// what the listing session's scan produced). Shared: a read hands
    /// out the stored list itself, never a copy, so a reader's key
    /// positions index the one list every other reader sees.
    pub keys: Arc<[String]>,
    /// LIST prompts the stored frontier cost. A warm reader counts these
    /// as cache hits — the same bill a re-listing run would have paid in
    /// prompt-cache hits.
    pub iterations: usize,
    /// True when the model said "No more results" (or produced nothing
    /// new): the universe is complete and no later query needs to page
    /// further. False when listing stopped at an iteration cap — a later
    /// query with headroom resumes paging *after* the stored frontier.
    pub exhausted: bool,
}

/// A stored universe plus the model signature that produced it.
#[derive(Debug)]
struct UniverseEntry {
    model_sig: String,
    universe: KeyUniverse,
}

/// Concept-keyed store of listed key universes, shared across queries (and
/// across sessions, when handed the same `Arc`).
///
/// The first query on a concept pages keys out of the model and publishes
/// what it found; every later query on that concept reads the warm
/// universe at zero prompt cost, resuming paging only past a stored
/// partial frontier. Entries are keyed by the *concept signature* (table,
/// key attribute, rendered scan condition) and guarded by the producing
/// model's [`LanguageModel::signature`]: a read under a different model
/// signature drops the entry — a reconfigured model's beliefs may differ
/// arbitrarily, so stale universes are invalidated rather than served.
///
/// Publishing is monotone: an entry is only replaced by one that knows
/// strictly more (an exhausted universe over a partial one, or a longer
/// key frontier), so concurrent publishers — two threads racing the same
/// cold concept — converge on a single de-duplicated universe no matter
/// the arrival order.
#[derive(Debug, Default)]
pub struct KeyUniverseStore {
    inner: Mutex<Universes>,
}

/// The stored universes, and the planner's view of them.
#[derive(Debug, Default)]
struct Universes {
    entries: HashMap<String, UniverseEntry>,
    /// [`KeyUniverseStore::warm_map`] snapshots by model signature, built
    /// on demand and dropped whenever `entries` changes.
    warm: HashMap<String, Arc<WarmMap>>,
}

/// Exhausted concepts → stored key counts.
type WarmMap = std::collections::BTreeMap<String, usize>;

impl KeyUniverseStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the stored universe for a concept, if one exists and was
    /// produced by a model with the given signature. A signature mismatch
    /// *drops* the stale entry (invalidate-on-read) and reports a cold
    /// concept.
    pub fn read(&self, concept: &str, model_sig: &str) -> Option<KeyUniverse> {
        let mut inner = self.inner.lock();
        match inner.entries.get(concept) {
            Some(entry) if entry.model_sig == model_sig => Some(entry.universe.clone()),
            Some(_) => {
                inner.entries.remove(concept);
                inner.warm.clear();
                None
            }
            None => None,
        }
    }

    /// Publishes a listed universe for a concept. Monotone merge: an
    /// existing same-signature entry is kept unless the new one knows
    /// strictly more (exhausted beats partial; a longer frontier beats a
    /// shorter one). A different-signature entry is always replaced.
    pub fn publish(&self, concept: &str, model_sig: &str, universe: KeyUniverse) {
        let mut inner = self.inner.lock();
        match inner.entries.get_mut(concept) {
            Some(entry) if entry.model_sig == model_sig => {
                let old = &entry.universe;
                let extends =
                    (universe.exhausted && !old.exhausted) || universe.keys.len() > old.keys.len();
                if !extends {
                    return;
                }
                entry.universe = universe;
            }
            _ => {
                inner.entries.insert(
                    concept.to_string(),
                    UniverseEntry {
                        model_sig: model_sig.to_string(),
                        universe,
                    },
                );
            }
        }
        inner.warm.clear();
    }

    /// All *exhausted* universes stored under the given model signature,
    /// as `concept → key count` — the planner-visible warm-list
    /// cardinalities (partial frontiers still need paging, so they stay
    /// invisible to cost estimation). A shared snapshot: the map is built
    /// once per change of the store, not once per call.
    pub fn warm_map(&self, model_sig: &str) -> Arc<std::collections::BTreeMap<String, usize>> {
        let mut inner = self.inner.lock();
        if let Some(warm) = inner.warm.get(model_sig) {
            return Arc::clone(warm);
        }
        let warm: Arc<WarmMap> = Arc::new(
            inner
                .entries
                .iter()
                .filter(|(_, e)| e.model_sig == model_sig && e.universe.exhausted)
                .map(|(concept, e)| (concept.clone(), e.universe.keys.len()))
                .collect(),
        );
        inner.warm.insert(model_sig.to_string(), Arc::clone(&warm));
        warm
    }

    /// Number of stored concepts.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when no universe is stored.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().entries.is_empty()
    }

    /// Drops every stored universe.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.warm.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FixedResponder;

    fn client() -> LlmClient {
        LlmClient::new(Arc::new(FixedResponder {
            model_name: "fixed".into(),
            response: "ok".into(),
        }))
    }

    #[test]
    fn caching_dedupes() {
        let c = client();
        c.complete("hello");
        c.complete("hello");
        let s = c.stats();
        assert_eq!(s.prompts, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.batches, 2);
    }

    #[test]
    fn without_cache_every_call_counts() {
        let c = LlmClient::without_cache(Arc::new(FixedResponder {
            model_name: "fixed".into(),
            response: "ok".into(),
        }));
        c.complete("hello");
        c.complete("hello");
        assert_eq!(c.stats().prompts, 2);
        assert_eq!(c.stats().cache_hits, 0);
    }

    #[test]
    fn batch_charges_one_overhead() {
        let c = client();
        let prompts: Vec<String> = (0..10).map(|i| format!("p{i}")).collect();
        c.complete_batch(&prompts);
        let s = c.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.prompts, 10);
        // 1 overhead + 10 × 1ms model latency.
        assert_eq!(s.virtual_ms, BATCH_OVERHEAD_MS + 10);
        assert_eq!(s.serial_ms, s.virtual_ms);
    }

    #[test]
    fn lanes_shorten_batches_but_not_serial_accounting() {
        let c = LlmClient::with_parallelism(
            Arc::new(FixedResponder {
                model_name: "fixed".into(),
                response: "ok".into(),
            }),
            Parallelism::new(5),
        );
        let prompts: Vec<String> = (0..10).map(|i| format!("p{i}")).collect();
        let outcome = c.complete_batch_outcome(&prompts);
        // 10 × 1ms over 5 lanes: 2ms of decode instead of 10.
        assert_eq!(outcome.virtual_ms, BATCH_OVERHEAD_MS + 2);
        assert_eq!(outcome.serial_ms, BATCH_OVERHEAD_MS + 10);
        assert_eq!(outcome.misses, 10);
        let s = c.stats();
        assert_eq!(s.virtual_ms, BATCH_OVERHEAD_MS + 2);
        assert_eq!(s.serial_ms, BATCH_OVERHEAD_MS + 10);
    }

    #[test]
    fn outcome_reports_hits_and_tokens() {
        let c = client();
        c.complete("a");
        let outcome = c.complete_batch_outcome(&["a".to_string(), "b".to_string()]);
        assert_eq!(outcome.hits, 1);
        assert_eq!(outcome.misses, 1);
        assert!(outcome.prompt_tokens > 0);
        // Hit latency is never charged.
        assert_eq!(outcome.serial_ms, BATCH_OVERHEAD_MS + 1);
    }

    #[test]
    fn reset_keeps_cache() {
        let c = client();
        c.complete("a");
        c.reset_stats();
        assert_eq!(c.stats().prompts, 0);
        c.complete("a");
        assert_eq!(c.stats().cache_hits, 1);
        c.clear_cache();
        c.complete("a");
        assert_eq!(c.stats().prompts, 1);
    }

    #[test]
    fn sub_entries_hit_count_and_clear() {
        let c = client();
        assert_eq!(
            c.extract_sub_entry("fetch|city|name|population|Rome"),
            SubEntryLookup::Miss
        );
        c.store_sub_entry("fetch|city|name|population|Rome", "2800000");
        assert_eq!(
            c.extract_sub_entry("fetch|city|name|population|Rome"),
            SubEntryLookup::Hit("2800000".to_string())
        );
        // One hit counted for the successful extraction, none for misses,
        // and no batch/prompt charged.
        let s = c.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.prompts, 0);
        assert_eq!(s.batches, 0);
        assert_eq!(s.virtual_ms, 0);
        // First stored write wins.
        c.store_sub_entry("fetch|city|name|population|Rome", "other");
        assert_eq!(
            c.extract_sub_entry("fetch|city|name|population|Rome"),
            SubEntryLookup::Hit("2800000".to_string())
        );
        c.clear_cache();
        assert_eq!(
            c.extract_sub_entry("fetch|city|name|population|Rome"),
            SubEntryLookup::Miss
        );
    }

    /// The by-signature accounting rule: a lookup that lands between a
    /// first ask and its store finds the in-flight marker — counted as a
    /// hit (the signature was asked before), answered by the caller.
    #[test]
    fn sub_entry_inflight_marker_counts_as_hit() {
        let c = client();
        assert_eq!(c.extract_sub_entry("sig"), SubEntryLookup::Miss);
        // Second ask before the first asker stored: in flight, one hit.
        assert_eq!(c.extract_sub_entry("sig"), SubEntryLookup::InFlight);
        assert_eq!(c.stats().cache_hits, 1);
        // The eventual store replaces the marker; later asks hit normally.
        c.store_sub_entry("sig", "answer");
        assert_eq!(
            c.extract_sub_entry("sig"),
            SubEntryLookup::Hit("answer".to_string())
        );
        assert_eq!(c.stats().cache_hits, 2);
    }

    #[test]
    fn sub_entries_disabled_without_cache() {
        let c = LlmClient::without_cache(Arc::new(FixedResponder {
            model_name: "fixed".into(),
            response: "ok".into(),
        }));
        c.store_sub_entry("sig", "value");
        assert_eq!(c.extract_sub_entry("sig"), SubEntryLookup::Miss);
        let column = c.sub_column("fetch\u{1f}");
        c.store_in(&column, "Rome", "value");
        for _ in 0..2 {
            assert_eq!(c.extract_in(&column, "Rome", str::len), SubLookup::Miss);
        }
        assert_eq!(c.stats().cache_hits, 0);
    }

    #[test]
    fn key_universe_store_reads_publishes_and_invalidates() {
        let store = KeyUniverseStore::new();
        assert!(store.is_empty());
        assert_eq!(store.read("list|city|name|", "sig-a"), None);
        let partial = KeyUniverse {
            keys: ["Rome", "Milan"].map(String::from).into(),
            iterations: 1,
            exhausted: false,
        };
        store.publish("list|city|name|", "sig-a", partial.clone());
        let read = store.read("list|city|name|", "sig-a").expect("published");
        assert_eq!(read, partial);
        // A read shares the stored list; it does not copy it.
        assert!(Arc::ptr_eq(&read.keys, &partial.keys));
        assert_eq!(store.len(), 1);
        // Partial frontiers stay invisible to the planner's warm map.
        assert!(store.warm_map("sig-a").is_empty());

        // Monotone merge: a shorter or equal universe never regresses the
        // stored one; an exhausted or longer one replaces it.
        store.publish(
            "list|city|name|",
            "sig-a",
            KeyUniverse {
                keys: ["Rome"].map(String::from).into(),
                iterations: 1,
                exhausted: false,
            },
        );
        assert_eq!(store.read("list|city|name|", "sig-a"), Some(partial));
        let full = KeyUniverse {
            keys: ["Rome", "Milan", "Paris"].map(String::from).into(),
            iterations: 2,
            exhausted: true,
        };
        store.publish("list|city|name|", "sig-a", full.clone());
        assert_eq!(store.read("list|city|name|", "sig-a"), Some(full));
        assert_eq!(
            store.warm_map("sig-a").get("list|city|name|").copied(),
            Some(3)
        );

        // A read under a different model signature invalidates the entry.
        assert_eq!(store.read("list|city|name|", "sig-b"), None);
        assert!(store.is_empty());
    }

    /// The warm map is one shared snapshot per model signature, rebuilt
    /// only after the store changed.
    #[test]
    fn warm_map_snapshots_follow_every_change_of_the_store() {
        let store = KeyUniverseStore::new();
        let universe = |keys: &[&str], exhausted| KeyUniverse {
            keys: keys.iter().map(|k| k.to_string()).collect(),
            iterations: 1,
            exhausted,
        };
        store.publish("city", "sig-a", universe(&["Rome"], true));
        let first = store.warm_map("sig-a");
        assert!(Arc::ptr_eq(&first, &store.warm_map("sig-a")));
        assert!(store.warm_map("sig-b").is_empty());
        // A publish that changes nothing keeps the snapshot.
        store.publish("city", "sig-a", universe(&["Rome"], true));
        assert!(Arc::ptr_eq(&first, &store.warm_map("sig-a")));
        // One that adds a concept is visible to the next call; the
        // snapshot already handed out is not touched.
        store.publish("country", "sig-a", universe(&["Italy", "Norway"], true));
        let second = store.warm_map("sig-a");
        assert_eq!((first.len(), second.len()), (1, 2));
        assert_eq!(second.get("country").copied(), Some(2));
        // Invalidate-on-read and clear drop it too.
        assert_eq!(store.read("city", "sig-b"), None);
        assert_eq!(store.warm_map("sig-a").len(), 1);
        store.clear();
        assert!(store.warm_map("sig-a").is_empty());
    }

    #[test]
    fn virtual_seconds() {
        let s = ClientStats {
            virtual_ms: 1500,
            ..Default::default()
        };
        assert!((s.virtual_seconds() - 1.5).abs() < 1e-9);
    }

    /// A model that records how many times it was actually invoked.
    struct CountingModel {
        calls: std::sync::atomic::AtomicUsize,
    }

    impl LanguageModel for CountingModel {
        fn name(&self) -> &str {
            "counting"
        }
        fn context_window(&self) -> usize {
            4096
        }
        fn complete(&self, prompt: &str) -> Completion {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            // Give concurrent duplicates a window to pile up on the marker.
            std::thread::sleep(std::time::Duration::from_millis(2));
            Completion {
                text: format!("echo:{prompt}"),
                usage: crate::model::Usage {
                    prompt_tokens: 1,
                    completion_tokens: 1,
                },
                latency_ms: 1,
            }
        }
    }

    #[test]
    fn concurrent_duplicates_call_the_model_once() {
        let model = Arc::new(CountingModel {
            calls: std::sync::atomic::AtomicUsize::new(0),
        });
        let c = Arc::new(LlmClient::new(model.clone()));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || c.complete("same prompt"));
            }
        });
        assert_eq!(model.calls.load(std::sync::atomic::Ordering::SeqCst), 1);
        let stats = c.stats();
        assert_eq!(stats.prompts, 1);
        assert_eq!(stats.cache_hits, 7);
        // Totals match what a sequential run of 8 calls would report.
        assert_eq!(stats.batches, 8);
    }

    /// A model whose first completion panics; later calls succeed.
    struct FlakyModel {
        fail_first: std::sync::atomic::AtomicBool,
    }

    impl LanguageModel for FlakyModel {
        fn name(&self) -> &str {
            "flaky"
        }
        fn context_window(&self) -> usize {
            4096
        }
        fn complete(&self, _prompt: &str) -> Completion {
            if self
                .fail_first
                .swap(false, std::sync::atomic::Ordering::SeqCst)
            {
                panic!("model exploded");
            }
            Completion {
                text: "ok".into(),
                usage: crate::model::Usage {
                    prompt_tokens: 1,
                    completion_tokens: 1,
                },
                latency_ms: 1,
            }
        }
    }

    #[test]
    fn panicked_completion_does_not_poison_the_prompt() {
        let c = Arc::new(LlmClient::new(Arc::new(FlakyModel {
            fail_first: std::sync::atomic::AtomicBool::new(true),
        })));
        let worker = Arc::clone(&c);
        let outcome = std::thread::spawn(move || worker.complete("boom")).join();
        assert!(outcome.is_err(), "the model panic must propagate");
        // The in-flight marker must have been abandoned and removed — a
        // retry completes normally instead of parking forever behind the
        // dead owner's marker.
        assert_eq!(c.complete("boom").text, "ok");
        assert_eq!(c.stats().prompts, 1);
    }

    /// A model whose every request fails with a transient fault.
    struct AlwaysFaulty {
        calls: std::sync::atomic::AtomicUsize,
    }

    impl AlwaysFaulty {
        fn new() -> Self {
            AlwaysFaulty {
                calls: std::sync::atomic::AtomicUsize::new(0),
            }
        }
    }

    impl LanguageModel for AlwaysFaulty {
        fn name(&self) -> &str {
            "always-faulty"
        }
        fn context_window(&self) -> usize {
            4096
        }
        fn complete(&self, prompt: &str) -> Completion {
            self.try_complete(prompt)
                .unwrap_or_else(|fault| fault.degraded)
        }
        fn try_complete(&self, _prompt: &str) -> Result<Completion, crate::model::Fault> {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Err(crate::model::Fault {
                kind: FaultKind::Transient,
                degraded: Completion {
                    text: crate::faults::fault_text(FaultKind::Transient),
                    usage: Usage::default(),
                    latency_ms: 10,
                },
            })
        }
    }

    #[test]
    fn retries_recover_a_faulty_prompt_and_bill_the_wait() {
        let faulty = crate::faults::FaultyLlm::new(
            Arc::new(FixedResponder {
                model_name: "fixed".into(),
                response: "clean".into(),
            }),
            crate::faults::FaultProfile::with_rate(1.0),
        );
        let c = LlmClient::new(Arc::new(faulty)).with_resilience(RetryPolicy::default());
        let outcome = c.complete_outcome("prompt");
        assert_eq!(outcome.completions[0].text, "clean");
        let s = c.stats();
        // Net of retries: one prompt, clean tokens, but the retry loop ran.
        assert_eq!(s.prompts, 1);
        assert!(s.retries >= 1, "rate 1.0 must have retried");
        assert_eq!(s.faults, s.retries, "every retry was caused by a fault");
        // Failed-attempt latency + backoff accrued beyond the clean 1 ms.
        assert!(
            outcome.completions[0].latency_ms > 1,
            "retry wait must be billed: {}",
            outcome.completions[0].latency_ms
        );
    }

    #[test]
    fn exhaustion_returns_the_degraded_completion() {
        let c = LlmClient::new(Arc::new(AlwaysFaulty::new())).with_resilience(RetryPolicy {
            max_retries: 2,
            jitter_permille: 0,
            ..RetryPolicy::default()
        });
        let outcome = c.complete_outcome("prompt");
        assert!(crate::faults::is_fault_text(&outcome.completions[0].text));
        let s = c.stats();
        assert_eq!(s.retries, 2);
        assert_eq!(s.faults, 3, "three attempts, all faulted");
        // Two failed attempts' latency (10 each) + backoffs (50, 100)
        // accrued onto the final degraded completion's own 10 ms.
        assert_eq!(outcome.completions[0].latency_ms, 10 + 50 + 10 + 100 + 10);
    }

    #[test]
    fn breaker_fails_fast_after_an_exhaustion_streak() {
        let model = Arc::new(AlwaysFaulty::new());
        let c = LlmClient::new(Arc::clone(&model) as Arc<dyn LanguageModel>).with_resilience(
            RetryPolicy {
                max_retries: 1,
                breaker_threshold: 2,
                breaker_cooldown: 3,
                ..RetryPolicy::default()
            },
        );
        c.complete("p1");
        c.complete("p2");
        let calls_when_tripped = model.calls.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(calls_when_tripped, 4, "2 prompts × 2 attempts");
        // Breaker is now open: the next prompts fail fast, no model calls.
        c.complete("p3");
        c.complete("p4");
        assert_eq!(
            model.calls.load(std::sync::atomic::Ordering::SeqCst),
            calls_when_tripped
        );
        assert_eq!(c.stats().breaker_fastfails, 2);
        // Third fast-fail spends the cooldown; the prompt after that is
        // the half-open probe and reaches the model again.
        c.complete("p5");
        c.complete("p6");
        assert_eq!(c.stats().breaker_fastfails, 3);
        assert!(model.calls.load(std::sync::atomic::Ordering::SeqCst) > calls_when_tripped);
    }

    #[test]
    fn resilience_off_forwards_degraded_completions_and_counts() {
        let c = LlmClient::new(Arc::new(AlwaysFaulty::new()));
        let outcome = c.complete_outcome("prompt");
        assert!(crate::faults::is_fault_text(&outcome.completions[0].text));
        let s = c.stats();
        assert_eq!(s.retries, 0);
        assert_eq!(s.faults, 1);
        assert_eq!(s.prompts, 1);
    }

    #[test]
    fn clean_model_under_resilience_changes_nothing() {
        let run = |resilient: bool| {
            let mut c = client();
            if resilient {
                c = c.with_resilience(RetryPolicy::default());
            }
            c.complete("a");
            c.complete("a");
            c.complete_batch(&["a".to_string(), "b".to_string()]);
            c.stats()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn sub_entry_store_rejects_fault_marker_text() {
        let c = client();
        assert_eq!(c.extract_sub_entry("sig"), SubEntryLookup::Miss);
        c.store_sub_entry("sig", &crate::faults::fault_text(FaultKind::Timeout));
        // The degraded answer was not stored; the Asked marker remains.
        assert_eq!(c.extract_sub_entry("sig"), SubEntryLookup::InFlight);
        c.store_sub_entry("sig", "real answer");
        assert_eq!(
            c.extract_sub_entry("sig"),
            SubEntryLookup::Hit("real answer".to_string())
        );
    }

    /// A model that answers with its prompt, so a completion served for
    /// the wrong key shows.
    struct Echo;

    impl LanguageModel for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn context_window(&self) -> usize {
            4096
        }
        fn complete(&self, prompt: &str) -> Completion {
            Completion {
                text: format!("echo:{prompt}"),
                usage: Usage::default(),
                latency_ms: 1,
            }
        }
    }

    #[test]
    fn colliding_prompts_are_stored_and_served_apart() {
        let c = LlmClient::colliding(Arc::new(Echo));
        let prompts = ["preamble Q: a", "preamble Q: b", "other", ""];
        for prompt in prompts {
            assert_eq!(c.complete(prompt).text, format!("echo:{prompt}"));
        }
        assert_eq!(c.stats().prompts, 4, "a shared hash is not a hit");
        for prompt in prompts {
            assert_eq!(c.complete(prompt).text, format!("echo:{prompt}"));
        }
        assert_eq!(c.stats().prompts, 4);
        assert_eq!(c.stats().cache_hits, 4);
    }

    #[test]
    fn abandoned_marker_removes_only_itself_from_a_collision_chain() {
        /// Panics on prompts starting with `boom`, echoes the rest.
        struct Selective;
        impl LanguageModel for Selective {
            fn name(&self) -> &str {
                "selective"
            }
            fn context_window(&self) -> usize {
                4096
            }
            fn complete(&self, prompt: &str) -> Completion {
                assert!(!prompt.starts_with("boom"), "model exploded");
                Echo.complete(prompt)
            }
        }
        // Abandon the chain's only entry, its tail, and an entry in its
        // middle: `insert` puts a new key right behind the head.
        for doomed in 0..3 {
            let c = Arc::new(LlmClient::colliding(Arc::new(Selective)));
            let keep = ["keep 0", "keep 1"];
            let mut order = vec![keep[0], keep[1]];
            order.insert(doomed, "boom");
            for prompt in order {
                let worker = Arc::clone(&c);
                let joined = std::thread::spawn(move || worker.complete(prompt)).join();
                assert_eq!(joined.is_err(), prompt == "boom");
            }
            assert_eq!(c.stats().prompts, 2);
            for prompt in keep {
                assert_eq!(c.complete(prompt).text, format!("echo:{prompt}"));
            }
            assert_eq!(c.stats().cache_hits, 2, "the neighbours survived");
            // The abandoned prompt left no marker to park behind.
            let probe = c.cache.probe("boom");
            assert!(c.cache.shard(&probe).lock().get_mut(&probe).is_none());
        }
    }

    #[test]
    fn removal_unlinks_one_entry_wherever_it_sits_in_the_chain() {
        let map: Striped<usize> = Striped::colliding();
        let keys = ["head", "tail", "middle"]; // chained head → middle → tail
        for victim in keys {
            let mut table = Table(HashMap::default());
            for (i, key) in keys.iter().enumerate() {
                table.insert(&map.probe(key), i);
            }
            table.remove(&map.probe(victim));
            table.remove(&map.probe("never stored"));
            for (i, key) in keys.iter().enumerate() {
                let found = table.get_mut(&map.probe(key)).copied();
                assert_eq!(found, (*key != victim).then_some(i), "{victim} / {key}");
            }
        }
        // Removing the last entry of a hash removes the hash.
        let mut table = Table(HashMap::default());
        table.insert(&map.probe("only"), 0);
        table.remove(&map.probe("only"));
        assert!(table.0.is_empty());
    }

    #[test]
    fn sub_entry_transitions_ignore_a_colliding_neighbour() {
        let c = LlmClient::colliding(Arc::new(Echo));
        assert_eq!(
            c.extract_sub_entry("city|name|pop|Rome"),
            SubEntryLookup::Miss
        );
        assert_eq!(
            c.extract_sub_entry("city|name|pop|Oslo"),
            SubEntryLookup::Miss
        );
        c.store_sub_entry("city|name|pop|Oslo", "700000");
        // Rome is still only asked; Oslo's answer is Oslo's alone.
        assert_eq!(
            c.extract_sub_entry("city|name|pop|Rome"),
            SubEntryLookup::InFlight
        );
        c.store_sub_entry("city|name|pop|Rome", "2800000");
        c.store_sub_entry("city|name|pop|Rome", "first stored write wins");
        for (sig, answer) in [
            ("city|name|pop|Rome", "2800000"),
            ("city|name|pop|Oslo", "700000"),
        ] {
            assert_eq!(
                c.extract_sub_entry(sig),
                SubEntryLookup::Hit(answer.to_string())
            );
        }
    }

    /// Keys chosen against the reference (the first key): front coding
    /// must store and find each one as its full text, whether the hash
    /// tells them apart or not.
    #[test]
    fn front_coded_keys_round_trip_at_every_edge() {
        let cases: [(&str, &[&str]); 3] = [
            // An empty reference shares nothing with anyone.
            ("", &["a", "ab", "é"]),
            (
                "préambule Q: Rome",
                &[
                    // Strict prefixes of the reference, one ending where a
                    // character of the reference starts, and an extension.
                    "préambule Q: Rom",
                    "pr",
                    "p",
                    "",
                    "préambule Q: Rome!",
                    // Diverges inside the two-byte `é` (C3 A9 / C3 A8):
                    // the shared length backs off to before it.
                    "prèambule Q: Rome",
                    // One tail, two shared lengths.
                    "préambule Q: Oslo",
                    "préambule Oslo",
                    "Oslo",
                ],
            ),
            ("東京", &["東", "東亰", "京"]),
        ];
        for colliding in [false, true] {
            for (reference, others) in cases {
                let c = if colliding {
                    LlmClient::colliding(Arc::new(Echo))
                } else {
                    LlmClient::new(Arc::new(Echo))
                };
                let keys: Vec<&str> = std::iter::once(reference)
                    .chain(others.iter().copied())
                    .collect();
                for round in 0..2 {
                    for key in &keys {
                        assert_eq!(c.complete(key).text, format!("echo:{key}"));
                    }
                    assert_eq!(c.stats().prompts, keys.len(), "{reference:?}");
                    assert_eq!(c.stats().cache_hits, round * keys.len(), "{reference:?}");
                }
                // Clearing keeps the reference; the keys come back.
                c.clear_cache();
                for key in keys.iter().rev() {
                    assert_eq!(c.complete(key).text, format!("echo:{key}"));
                }
                assert_eq!(c.stats().prompts, 2 * keys.len(), "{reference:?}");
            }
        }
    }

    #[test]
    fn entries_store_only_what_the_reference_lacks() {
        let c = LlmClient::new(Arc::new(Echo));
        let preamble = "x".repeat(700);
        c.complete(&format!("{preamble}Q: Rome"));
        c.complete(&format!("{preamble}Q: Oslo é"));
        let oslo = format!("{preamble}Q: Oslo é");
        let probe = c.cache.probe(&oslo);
        assert_eq!(probe.common, 703);
        let table = c.cache.shard(&probe).lock();
        let entry = &table.0[&probe.hash];
        assert_eq!((entry.shared, &*entry.tail), (703, "Oslo é"));
    }

    #[test]
    fn common_prefix_counts_bytes() {
        let long = "0123456789abcdefXYZ";
        for (a, b, n) in [
            ("", "", 0),
            ("", "a", 0),
            ("abc", "abd", 2),
            ("abc", "abc", 3),
            (long, "0123456789abcdefXYz", 18),
            (long, "0123456789abcdef", 16),
            (long, "0123456_", 7),
            ("é", "è", 1),
        ] {
            assert_eq!(common_prefix(a.as_bytes(), b.as_bytes()), n, "{a} {b}");
            assert_eq!(common_prefix(b.as_bytes(), a.as_bytes()), n, "{b} {a}");
        }
    }

    #[test]
    fn concurrent_distinct_prompts_all_complete() {
        let c = Arc::new(client());
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..50 {
                        let got = c.complete(&format!("p{t}-{i}"));
                        assert_eq!(got.text, "ok");
                    }
                });
            }
        });
        assert_eq!(c.stats().prompts, 200);
        assert_eq!(c.stats().cache_hits, 0);
    }
}
