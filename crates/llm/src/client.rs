//! The model client: caching, batching and virtual-clock accounting.
//!
//! The paper reports "∼110 batched prompts per query" and "∼20 seconds to
//! execute a query" on GPT-3 (§5), without controlling OpenAI's
//! infrastructure. The client reproduces that accounting with a virtual
//! clock: every completion carries a simulated latency, batches add one
//! request overhead, and a prompt cache models the obvious deduplication a
//! production system would deploy. No real time passes.
//!
//! The client is built to be shared across threads (the query threads
//! of one session):
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

use crate::arena::{Arena, Span, NONE};
use crate::columns::{SubColumn, SubKey, SubLookup, SubStore};
use crate::lanes::{lane_schedule, Parallelism};
use crate::model::{Completion, FaultKind, LanguageModel, Usage};
use crate::resilience::{CircuitBreaker, RetryPolicy};
use parking_lot::Mutex;
use std::collections::hash_map::{HashMap, RandomState};
use std::hash::BuildHasher;
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
    /// successful answers slower than [`RetryPolicy::TIMEOUT_MS`]).
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

/// Fixed virtual overhead per batch request (network + queueing).
pub const BATCH_OVERHEAD_MS: u64 = 250;

/// Number of mutex-striped shards in the prompt cache.
pub(crate) const CACHE_SHARDS: usize = 16;

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

/// Progress of one in-flight completion.
enum InFlightState {
    Pending,
    Ready(Completion),
    /// The owning thread unwound before fulfilling; waiters must retry.
    Abandoned,
}

/// Rendezvous for concurrent requests of one prompt, made when a second
/// asker finds the prompt in flight. Uses `std::sync` primitives directly
/// because waiters need a [`Condvar`].
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

/// Unwind guard for the thread that asks the model for a prompt: if the
/// model call panics, the prompt's in-flight entry is taken out of the
/// shard and waiters are woken with `Abandoned` instead of blocking
/// forever (the panic itself unwinds on, out of the client call that
/// asked the model).
struct FulfillGuard<'a> {
    shard: &'a Mutex<Shard>,
    probe: &'a Probe<'a>,
    ticket: u32,
    armed: bool,
}

impl Drop for FulfillGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let waiting = self.shard.lock().abandon(self.probe, self.ticket);
        if let Some(pending) = waiting {
            pending.resolve(InFlightState::Abandoned);
        }
    }
}

/// Result of a whole-signature sub-entry lookup
/// ([`LlmClient::extract_sub_entry`]): the stored answer, copied out.
pub type SubEntryLookup = SubLookup<String>;

/// The prompt cache: full prompt text → completion, striped over
/// [`CACHE_SHARDS`] mutexes, so concurrent lookups of different prompts
/// do not serialise on one lock.
///
/// Stored text is front-coded against the first prompt the cache ever
/// saw, the way B-tree pages and string dictionaries compress a sorted
/// run: an entry keeps how many leading bytes it shares with that
/// reference and its own tail. Operator prompts share a few-shot preamble
/// of several hundred bytes, which is stored once.
///
/// Each shard is an [`Arena`]: the tails and the completions' text in its
/// chunked text arena, one fixed-size [`Prompt`] entry per prompt (shared
/// length, tail and answer spans, token counts, latency) beside its hash
/// bits and chain link, and `u32` buckets. A stored prompt costs its
/// tail, its answer and about 46 bytes, in no heap block of its own.
///
/// A lookup reads its prompt's bytes twice and no more. [`Striped::probe`]
/// compares the text with the reference to find the length `common` of
/// their shared prefix, then hashes `common` and the bytes past it (a
/// prompt's question, not its preamble) with a SipHash keyed at random
/// per cache: prompts hold model output, which is input from outside the
/// program, so the hash must stay one an adversary cannot aim. The
/// reference is fixed, so `(common, text[common..])` determines the text
/// and equal texts hash alike. That one `u64` picks the shard, and its
/// low 32 bits pick a bucket and are kept in the entry, so a growing
/// index never reads prompt text. The second read is the comparison: a
/// hash only *locates* candidates, and an entry answers for a text only
/// if its full text is equal.
struct Striped {
    shards: Vec<Mutex<Shard>>,
    keys: RandomState,
    /// The first prompt seen; every entry's `shared` counts bytes of it.
    /// Never replaced (entries would decode differently), so it outlives
    /// [`Striped::clear`].
    reference: OnceLock<Box<str>>,
    /// Test-only: hash every prompt to the same value, so that every
    /// lookup exercises the collision chain of one shard.
    #[cfg(test)]
    colliding: bool,
}

/// One lookup's view of its prompt: the text, its hash, and how many
/// leading bytes it has in common with the cache's reference.
struct Probe<'a> {
    text: &'a str,
    hash: u64,
    common: usize,
}

impl Probe<'_> {
    /// How many bytes of the reference an entry for this text shares: the
    /// common prefix, backed off to a character boundary so that the tail
    /// is a `str`. `u32` bounds what one entry can share, never what it
    /// can hold.
    fn shared(&self) -> usize {
        let mut shared = self.common.min(u32::MAX as usize);
        while !self.text.is_char_boundary(shared) {
            shared -= 1;
        }
        shared
    }
}

/// One stored prompt, `reference[..shared]` + `tail`, and its completion.
struct Prompt {
    shared: u32,
    tail: Span,
    /// The completion's text. While the prompt is in flight its start is
    /// [`NONE`] and its length is the asking thread's ticket.
    answer: Span,
    prompt_tokens: u32,
    completion_tokens: u32,
    latency_ms: u32,
}

impl Prompt {
    /// The asking thread's ticket, while the prompt is in flight.
    fn ticket(&self) -> Option<u32> {
        (self.answer.start == NONE).then_some(self.answer.len)
    }
}

/// A completion's token counts and latency as a [`Prompt`] holds them, or
/// `None` when one of them does not fit in `u32`: such a completion is
/// not stored.
fn figures(completion: &Completion) -> Option<[u32; 3]> {
    Some([
        u32::try_from(completion.usage.prompt_tokens).ok()?,
        u32::try_from(completion.usage.completion_tokens).ok()?,
        u32::try_from(completion.latency_ms).ok()?,
    ])
}

/// One shard of the prompt cache.
struct Shard {
    prompts: Arena<Prompt>,
    /// The rendezvous of each in-flight prompt that someone waits for, by
    /// ticket: empty unless two threads ask one prompt at once, so a miss
    /// allocates none.
    waiting: Vec<(u32, Arc<InFlight>)>,
    /// The next in-flight prompt's ticket. A ticket is never handed out
    /// twice, not even after a clear (an asker whose entry a clear took
    /// out still resolves its waiters by its ticket), so a shard that has
    /// handed out all of them stops storing.
    tickets: u32,
}

/// What one look at a shard found for a prompt.
enum Found {
    Ready(Completion),
    Wait(Arc<InFlight>),
    /// The prompt is the caller's to complete, in flight under this
    /// ticket; `None` when the shard is full and stores nothing more.
    Mine(Option<u32>),
}

impl Shard {
    fn new() -> Self {
        Shard {
            prompts: Arena::new(),
            waiting: Vec::new(),
            tickets: 0,
        }
    }

    /// The position of the probe's entry.
    fn find(&self, probe: &Probe) -> Option<usize> {
        let prompts = &self.prompts;
        prompts.find(probe.hash as u32, |prompt| {
            // `shared <= common` says the text starts with the same
            // `reference[..shared]` this entry does.
            let shared = prompt.shared as usize;
            shared <= probe.common && probe.text.as_bytes()[shared..] == *prompts.bytes(prompt.tail)
        })
    }

    /// A landed completion, the rendezvous of an in-flight one, or — for
    /// a prompt the shard lacks — the caller's ticket to ask the model.
    fn look(&mut self, probe: &Probe) -> Found {
        let Some(at) = self.find(probe) else {
            return Found::Mine(self.ask(probe).map(|(_, ticket)| ticket));
        };
        let prompt = self.prompts.get(at);
        match prompt.ticket() {
            Some(ticket) => Found::Wait(self.waiter(ticket)),
            None => Found::Ready(Completion {
                text: self.prompts.text(prompt.answer).to_string(),
                usage: Usage {
                    prompt_tokens: prompt.prompt_tokens as usize,
                    completion_tokens: prompt.completion_tokens as usize,
                },
                latency_ms: prompt.latency_ms.into(),
            }),
        }
    }

    /// Stores a prompt that [`Shard::find`] has just reported absent, in
    /// flight under a new ticket: its position and ticket, or `None` when
    /// the shard is full.
    fn ask(&mut self, probe: &Probe) -> Option<(usize, u32)> {
        let ticket = self.tickets;
        let shared = probe.shared();
        let tail = &probe.text[shared..];
        if ticket == NONE || !self.prompts.room(tail.len()) {
            return None;
        }
        self.tickets += 1;
        let tail = self.prompts.append(tail);
        let prompt = Prompt {
            shared: shared as u32,
            tail,
            answer: Span {
                start: NONE,
                len: ticket,
            },
            prompt_tokens: 0,
            completion_tokens: 0,
            latency_ms: 0,
        };
        Some((self.prompts.push(probe.hash as u32, prompt), ticket))
    }

    /// The rendezvous of the prompt in flight under `ticket`, made by its
    /// first waiter.
    fn waiter(&mut self, ticket: u32) -> Arc<InFlight> {
        if let Some((_, pending)) = self.waiting.iter().find(|(t, _)| *t == ticket) {
            return Arc::clone(pending);
        }
        let pending = Arc::new(InFlight::default());
        self.waiting.push((ticket, Arc::clone(&pending)));
        pending
    }

    /// Takes the rendezvous of `ticket` out, if anyone waits on it.
    fn stop_waiting(&mut self, ticket: u32) -> Option<Arc<InFlight>> {
        let at = self.waiting.iter().position(|(t, _)| *t == ticket)?;
        Some(self.waiting.swap_remove(at).1)
    }

    /// Lands the completion that the asker holding `ticket` got, and
    /// returns that asker's rendezvous if anyone waits on it. An entry in
    /// flight takes the completion (the asker's own, or — after a clear
    /// took that out — another asker's); a prompt a clear took out is
    /// stored again; a landed entry keeps its completion. One that is not
    /// kept (`keep` false: fault text) or cannot be (a figure past `u32`,
    /// a full shard) takes the asker's own entry out instead.
    fn land(
        &mut self,
        probe: &Probe,
        ticket: u32,
        completion: &Completion,
        keep: bool,
    ) -> Option<Arc<InFlight>> {
        let figures = figures(completion).filter(|_| keep);
        match (self.find(probe), figures) {
            (Some(at), Some(figures)) => self.fill(at, ticket, &completion.text, figures),
            (Some(at), None) => self.forget(at, ticket),
            (None, Some(figures)) => {
                if let Some((at, again)) = self.ask(probe) {
                    self.fill(at, again, &completion.text, figures);
                }
            }
            (None, None) => {}
        }
        self.stop_waiting(ticket)
    }

    /// Stores a completion in entry `at` if it is in flight, or forgets
    /// the entry if it is `ticket`'s and the text does not fit.
    fn fill(&mut self, at: usize, ticket: u32, text: &str, figures: [u32; 3]) {
        if self.prompts.get(at).ticket().is_none() {
            return;
        }
        if !self.prompts.room(text.len()) {
            return self.forget(at, ticket);
        }
        let answer = self.prompts.append(text);
        let prompt = self.prompts.get_mut(at);
        prompt.answer = answer;
        [
            prompt.prompt_tokens,
            prompt.completion_tokens,
            prompt.latency_ms,
        ] = figures;
    }

    /// Takes entry `at` out if it is in flight under `ticket`, and its
    /// tail with it when nothing was appended after it.
    fn forget(&mut self, at: usize, ticket: u32) {
        if self.prompts.get(at).ticket() == Some(ticket) {
            let prompt = self.prompts.remove(at);
            self.prompts.release(prompt.tail);
        }
    }

    /// The unwinding asker's side of [`Shard::land`]: its entry is taken
    /// out, and its rendezvous returned to be abandoned.
    fn abandon(&mut self, probe: &Probe, ticket: u32) -> Option<Arc<InFlight>> {
        if let Some(at) = self.find(probe) {
            self.forget(at, ticket);
        }
        self.stop_waiting(ticket)
    }
}

impl Striped {
    fn new() -> Self {
        Striped {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(Shard::new()))
                .collect(),
            keys: RandomState::new(),
            reference: OnceLock::new(),
            #[cfg(test)]
            colliding: false,
        }
    }

    /// A cache that hashes every prompt to the same value.
    #[cfg(test)]
    fn colliding() -> Self {
        Striped {
            colliding: true,
            ..Striped::new()
        }
    }

    /// Reads `text` for its common prefix with the reference, which the
    /// first text probed becomes, and hashes that length and the bytes
    /// past it.
    fn probe<'a>(&self, text: &'a str) -> Probe<'a> {
        let reference = self.reference.get_or_init(|| text.into());
        let common = common_prefix(text.as_bytes(), reference.as_bytes());
        let hash = self.keys.hash_one((common, &text.as_bytes()[common..]));
        #[cfg(test)]
        let hash = if self.colliding { 0 } else { hash };
        Probe { text, hash, common }
    }

    /// The shard a probe lives in. The shard's buckets and entries read
    /// the hash's low 32 bits; the shard comes from bits they do not use.
    fn shard(&self, probe: &Probe) -> &Mutex<Shard> {
        &self.shards[(probe.hash >> 32) as usize % CACHE_SHARDS]
    }

    /// Empties every shard. In-flight asks land as after any clear, and
    /// their waiters are still woken.
    fn clear(&self) {
        for shard in &self.shards {
            shard.lock().prompts.clear();
        }
    }
}

/// Length of the longest common prefix of two byte strings: whole 32-byte
/// chunks first, each compared as one array, then byte by byte from the
/// first chunk that differs.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    const CHUNK: usize = 32;
    let (xs, ys) = (a.as_chunks::<CHUNK>().0, b.as_chunks::<CHUNK>().0);
    let same = xs.iter().zip(ys).take_while(|(x, y)| x == y).count() * CHUNK;
    let rest = a[same..]
        .iter()
        .zip(&b[same..])
        .take_while(|(x, y)| x == y)
        .count();
    same + rest
}

/// A caching, stats-keeping, thread-safe client over any [`LanguageModel`].
pub struct LlmClient {
    model: Arc<dyn LanguageModel>,
    /// The prompt cache: full prompt text → completion (or in-flight
    /// marker).
    cache: Striped,
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
            parallelism,
            resilience: None,
            breaker: Mutex::new(CircuitBreaker::default()),
            sub_generation: AtomicUsize::new(0),
        }
    }

    /// Enables the resilient retry loop: faulted requests are retried up
    /// to the policy's budget with exponential backoff + jitter billed in
    /// virtual time, slow answers past [`RetryPolicy::TIMEOUT_MS`] are
    /// re-asked, and the circuit breaker fails requests fast after a
    /// streak of exhaustions.
    pub fn with_resilience(mut self, policy: RetryPolicy) -> Self {
        self.resilience = Some(policy);
        self
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

    /// Completes a batch of prompts, returning full accounting: one batch
    /// overhead is charged and the member latencies pack onto the client's
    /// request lanes (one lane: the provider decodes sequentially per
    /// request stream).
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
    /// its shard is consulted. Hits take a single shard-lock acquisition.
    /// Misses store the prompt in flight under a ticket, release the lock,
    /// call the model (through the retry loop when resilience is on), then
    /// copy the completion into the shard's arena — nothing is allocated
    /// per miss but the completion the model returns. Concurrent requests
    /// for the same prompt wait on an [`InFlight`] rendezvous, which the
    /// first of them makes, and count as hits; with none waiting, the
    /// completion is not cloned at all. A completion that is not the
    /// model's answer — a fault's degraded completion, a truncation
    /// included, or the breaker's fast failure — or that carries
    /// fault-marker text ([`crate::faults::is_fault_text`], as a
    /// [`crate::Replay`] miss does) goes to the caller and the waiters but
    /// is not stored: its entry is taken out, so a later ask of the prompt
    /// is a miss that reaches the model again. The in-flight
    /// entry also serialises the retry loop per prompt: a prompt's attempt
    /// sequence is walked by exactly one thread, so fault schedules stay
    /// deterministic under lanes.
    fn lookup_or_complete(&self, prompt: &str) -> (Completion, bool, FaultCounters) {
        let probe = self.cache.probe(prompt);
        let shard = self.cache.shard(&probe);
        loop {
            let found = shard.lock().look(&probe);
            let ticket = match found {
                Found::Ready(c) => return (c, true, FaultCounters::default()),
                Found::Wait(pending) => match pending.wait() {
                    Some(c) => return (c, true, FaultCounters::default()),
                    // The owner panicked before fulfilling: retry the
                    // lookup and complete the prompt ourselves.
                    None => continue,
                },
                Found::Mine(ticket) => ticket,
            };
            let Some(ticket) = ticket else {
                // A full shard stores nothing more: the model answers
                // uncached.
                let (completion, counters, _) = self.call_model(prompt);
                return (completion, false, counters);
            };
            let mut guard = FulfillGuard {
                shard,
                probe: &probe,
                ticket,
                armed: true,
            };
            let (completion, counters, answered) = self.call_model(prompt);
            guard.armed = false;
            // A fault answers this ask and its waiters only: it is not
            // kept, so the next ask of the prompt reaches the model again.
            let keep = answered && !crate::faults::is_fault_text(&completion.text);
            let waiting = shard.lock().land(&probe, ticket, &completion, keep);
            if let Some(pending) = waiting {
                pending.resolve(InFlightState::Ready(completion.clone()));
            }
            return (completion, false, counters);
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
    /// fail fast with marker text and zero model calls. The flag is true
    /// when the completion is the model's `Ok` answer.
    fn call_model(&self, prompt: &str) -> (Completion, FaultCounters, bool) {
        let mut counters = FaultCounters::default();
        let Some(policy) = self.resilience else {
            return match self.model.try_complete(prompt) {
                Ok(completion) => (completion, counters, true),
                Err(fault) => {
                    counters.count_kind(fault.kind);
                    (fault.degraded, counters, false)
                }
            };
        };
        if !self.breaker.lock().admit() {
            counters.breaker_fastfails += 1;
            let text = crate::faults::fault_text(FaultKind::Transient);
            let completion = Completion {
                usage: Usage::default(),
                text,
                latency_ms: 0,
            };
            return (completion, counters, false);
        }
        let mut accrued_ms = 0u64;
        let mut retry = 0u32;
        loop {
            let outcome = self.model.try_complete(prompt);
            let budget_left = retry < policy.max_retries;
            match outcome {
                Ok(completion)
                    if completion.latency_ms > RetryPolicy::TIMEOUT_MS && budget_left =>
                {
                    // Too slow: the caller gave up at the deadline. Bill
                    // the window waited plus the backoff, then re-ask.
                    counters.timeouts += 1;
                    counters.retries += 1;
                    accrued_ms += RetryPolicy::TIMEOUT_MS + RetryPolicy::backoff_ms(prompt, retry);
                    retry += 1;
                }
                Ok(mut completion) => {
                    completion.latency_ms += accrued_ms;
                    self.breaker.lock().record_success();
                    return (completion, counters, true);
                }
                Err(fault) if budget_left => {
                    counters.count_kind(fault.kind);
                    counters.retries += 1;
                    accrued_ms +=
                        fault.degraded.latency_ms + RetryPolicy::backoff_ms(prompt, retry);
                    retry += 1;
                }
                Err(fault) => {
                    counters.count_kind(fault.kind);
                    self.breaker.lock().record_exhaustion();
                    let mut completion = fault.degraded;
                    completion.latency_ms += accrued_ms;
                    return (completion, counters, false);
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

    /// `key` hashed for the sub-entry store, once for all its columns: a
    /// caller asking one key of several columns hands the result to each
    /// [`LlmClient::extract_in`] and [`LlmClient::store_in`] beside the
    /// key. It is valid for this client only.
    pub fn sub_key(&self, key: &str) -> SubKey {
        self.sub_entries.sub_key(key)
    }

    /// Looks one key's sub-entry up in a column and, on a stored answer,
    /// hands it to `read` — in place, under the column's lock, so `read`
    /// must not call back into this client. `sub` is the key's
    /// [`LlmClient::sub_key`].
    ///
    /// A stored answer is served as [`SubLookup::Hit`] (a cache hit: the
    /// key's answer costs no prompt, so no batch is charged — unlike a
    /// prompt-cache hit, which still rides inside a batch request). A
    /// first ask returns [`SubLookup::Miss`] and leaves an in-flight
    /// marker; a concurrent lookup that finds the marker returns
    /// [`SubLookup::InFlight`], which *also* counts as a cache hit — hits
    /// are a function of how often each cell is asked, never of which
    /// thread's store landed first — but obliges the caller to produce the
    /// answer itself.
    pub fn extract_in<R>(
        &self,
        column: &SubColumn,
        key: &str,
        sub: SubKey,
        read: impl FnOnce(&str) -> R,
    ) -> SubLookup<R> {
        self.count_sub_hit(column.extract(key, sub, read))
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
    pub fn store_in(&self, column: &SubColumn, key: &str, sub: SubKey, answer: &str) {
        if !crate::faults::is_fault_text(answer) {
            column.store(key, sub, answer);
        }
    }

    /// [`LlmClient::extract_in`] by whole signature: the column is the
    /// signature up to and including its last U+001F (the empty prefix
    /// when it has none), the key is the rest, and the answer is copied
    /// out. A cell is the pair `(prefix, key)`, not their concatenation.
    pub fn extract_sub_entry(&self, sig: &str) -> SubEntryLookup {
        self.count_sub_hit(self.sub_entries.extract(sig, str::to_string))
    }

    /// [`LlmClient::store_in`] by whole signature, split as
    /// [`LlmClient::extract_sub_entry`] splits it.
    pub fn store_sub_entry(&self, sig: &str, answer: &str) {
        if !crate::faults::is_fault_text(answer) {
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
    fn batch_charges_one_overhead() {
        let c = client();
        let prompts: Vec<String> = (0..10).map(|i| format!("p{i}")).collect();
        c.complete_batch_outcome(&prompts);
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
        // Invalidate-on-read drops it too.
        assert_eq!(store.read("city", "sig-b"), None);
        assert_eq!(store.warm_map("sig-a").len(), 1);
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
        let c = LlmClient::new(Arc::new(AlwaysFaulty::new()))
            .with_resilience(RetryPolicy { max_retries: 2 });
        let outcome = c.complete_outcome("prompt");
        assert!(crate::faults::is_fault_text(&outcome.completions[0].text));
        let s = c.stats();
        assert_eq!(s.retries, 2);
        assert_eq!(s.faults, 3, "three attempts, all faulted");
        // Two failed attempts' latency (10 each) + backoffs (50 and 100,
        // each with up to a fifth in jitter) accrued onto the final
        // degraded completion's own 10 ms.
        let backoffs = RetryPolicy::backoff_ms("prompt", 0) + RetryPolicy::backoff_ms("prompt", 1);
        assert!((150..=180).contains(&backoffs), "{backoffs}");
        assert_eq!(outcome.completions[0].latency_ms, 3 * 10 + backoffs);
    }

    #[test]
    fn breaker_fails_fast_after_an_exhaustion_streak() {
        let model = Arc::new(AlwaysFaulty::new());
        let c = LlmClient::new(Arc::clone(&model) as Arc<dyn LanguageModel>)
            .with_resilience(RetryPolicy { max_retries: 1 });
        let calls = || model.calls.load(std::sync::atomic::Ordering::SeqCst);
        let (threshold, cooldown) = (
            RetryPolicy::BREAKER_THRESHOLD,
            RetryPolicy::BREAKER_COOLDOWN,
        );
        let mut asked = 0;
        let mut ask = |n: u32| {
            for _ in 0..n {
                asked += 1;
                c.complete(&format!("p{asked}"));
            }
        };
        ask(threshold);
        let calls_when_tripped = calls();
        assert_eq!(
            calls_when_tripped,
            2 * threshold as usize,
            "2 attempts a prompt"
        );
        // Breaker is now open: the next prompts fail fast, no model calls.
        ask(cooldown - 1);
        assert_eq!(calls(), calls_when_tripped);
        assert_eq!(c.stats().breaker_fastfails, cooldown as usize - 1);
        // The last fast-fail spends the cooldown; the prompt after that is
        // the half-open probe and reaches the model again.
        ask(2);
        assert_eq!(c.stats().breaker_fastfails, cooldown as usize);
        assert!(calls() > calls_when_tripped);
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
    fn a_fault_is_not_cached_so_the_prompt_reaches_the_model_again() {
        let off = |model: Arc<AlwaysFaulty>| LlmClient::new(model as Arc<dyn LanguageModel>);
        let exhausted = |model: Arc<AlwaysFaulty>| {
            LlmClient::new(model as Arc<dyn LanguageModel>)
                .with_resilience(RetryPolicy { max_retries: 1 })
        };
        for (label, make, calls_per_ask) in [
            ("Resilience::Off", &off as &dyn Fn(_) -> LlmClient, 1),
            ("retries exhausted", &exhausted, 2),
        ] {
            let model = Arc::new(AlwaysFaulty::new());
            let c = make(Arc::clone(&model));
            for _ in 0..2 {
                let outcome = c.complete_outcome("prompt");
                assert!(crate::faults::is_fault_text(&outcome.completions[0].text));
                assert_eq!(
                    outcome.hits, 0,
                    "{label}: a fault was served from the cache"
                );
            }
            let calls = model.calls.load(std::sync::atomic::Ordering::SeqCst);
            assert_eq!(
                calls,
                2 * calls_per_ask,
                "{label}: both asks reach the model"
            );
            assert_eq!((c.stats().prompts, c.stats().cache_hits), (2, 0), "{label}");
        }
    }

    /// A model whose first request is cut short — a truncation, which no
    /// marker shows — and whose later requests answer in full.
    struct TruncatedOnce {
        calls: AtomicUsize,
    }

    impl LanguageModel for TruncatedOnce {
        fn name(&self) -> &str {
            "truncated-once"
        }
        fn context_window(&self) -> usize {
            4096
        }
        fn complete(&self, prompt: &str) -> Completion {
            self.try_complete(prompt)
                .unwrap_or_else(|fault| fault.degraded)
        }
        fn try_complete(&self, _prompt: &str) -> Result<Completion, crate::model::Fault> {
            let completion = |text: &str| Completion {
                text: text.into(),
                usage: Usage::default(),
                latency_ms: 1,
            };
            match self.calls.fetch_add(1, Ordering::SeqCst) {
                0 => Err(crate::model::Fault {
                    kind: FaultKind::Truncated,
                    degraded: completion("Rome ⌁ popul"),
                }),
                _ => Ok(completion("Rome ⌁ population: 2800000")),
            }
        }
    }

    #[test]
    fn a_truncated_answer_is_served_once_and_the_prompt_reaches_the_model_again() {
        let model = Arc::new(TruncatedOnce {
            calls: AtomicUsize::new(0),
        });
        let c = LlmClient::new(Arc::clone(&model) as Arc<dyn LanguageModel>);
        let first = c.complete_outcome("prompt");
        assert_eq!(first.completions[0].text, "Rome ⌁ popul");
        assert!(!crate::faults::is_fault_text(&first.completions[0].text));
        let second = c.complete_outcome("prompt");
        assert_eq!(second.completions[0].text, "Rome ⌁ population: 2800000");
        assert_eq!(
            (first.hits, second.hits),
            (0, 0),
            "the cut text was served again"
        );
        assert_eq!(model.calls.load(Ordering::SeqCst), 2);
        // The model's own answer is kept like any other.
        assert_eq!(c.complete_outcome("prompt").hits, 1);
        assert_eq!(model.calls.load(Ordering::SeqCst), 2);
        assert_eq!((c.stats().faults, c.stats().cache_hits), (1, 1));
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
            c.complete_batch_outcome(&["a".to_string(), "b".to_string()]);
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
            assert!(c.cache.shard(&probe).lock().find(&probe).is_none());
        }
    }

    /// A completion whose text and figures say which prompt it is for.
    fn answer(text: &str, n: usize) -> Completion {
        Completion {
            text: text.to_string(),
            usage: Usage {
                prompt_tokens: n,
                completion_tokens: n + 1,
            },
            latency_ms: n as u64 + 2,
        }
    }

    /// The completion a shard serves for a key, `None` for one in flight
    /// or absent.
    fn served(map: &Striped, key: &str) -> Option<Option<Completion>> {
        let probe = map.probe(key);
        let shard = map.shard(&probe).lock();
        let at = shard.find(&probe)?;
        let prompt = shard.prompts.get(at);
        Some(prompt.ticket().is_none().then(|| Completion {
            text: shard.prompts.text(prompt.answer).to_string(),
            usage: Usage {
                prompt_tokens: prompt.prompt_tokens as usize,
                completion_tokens: prompt.completion_tokens as usize,
            },
            latency_ms: prompt.latency_ms.into(),
        }))
    }

    #[test]
    fn removal_unlinks_one_entry_wherever_it_sits_in_the_chain() {
        let map = Striped::colliding();
        let keys = ["head", "tail", "middle"]; // chained middle → tail → head
        for victim in keys {
            let mut shard = Shard::new();
            let tickets: Vec<u32> = keys
                .iter()
                .map(|key| shard.ask(&map.probe(key)).unwrap().1)
                .collect();
            for (i, key) in keys.iter().enumerate() {
                let probe = map.probe(key);
                if *key == victim {
                    shard.abandon(&probe, tickets[i]);
                } else {
                    shard.land(&probe, tickets[i], &answer(key, i), true);
                }
            }
            shard.abandon(&map.probe("never stored"), 99);
            for key in keys {
                let probe = map.probe(key);
                let found = shard.find(&probe).map(|at| shard.prompts.get(at).answer);
                let text = found.map(|span| shard.prompts.text(span));
                assert_eq!(text, (key != victim).then_some(key), "{victim} / {key}");
            }
            assert_eq!(shard.prompts.len(), 2, "{victim}");
        }
        // Taking out the last entry gives back its text: nothing is left.
        let mut shard = Shard::new();
        let probe = map.probe("only");
        let (_, ticket) = shard.ask(&probe).unwrap();
        shard.abandon(&probe, ticket);
        assert_eq!(shard.prompts.len(), 0);
        assert_eq!(shard.prompts.footprint().0, 0);
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

    /// A shard out of tickets, or a completion whose latency is past
    /// `u32`, still answers every ask — from the model, each time.
    #[test]
    fn what_a_shard_cannot_hold_is_answered_uncached() {
        /// Echoes, taking longer than a `u32` of milliseconds.
        struct Slow;
        impl LanguageModel for Slow {
            fn name(&self) -> &str {
                "slow"
            }
            fn context_window(&self) -> usize {
                4096
            }
            fn complete(&self, prompt: &str) -> Completion {
                Completion {
                    latency_ms: u64::from(u32::MAX) + 1,
                    ..Echo.complete(prompt)
                }
            }
        }
        let full = LlmClient::colliding(Arc::new(Echo));
        full.complete("stored");
        full.cache.shards[0].lock().tickets = NONE;
        let slow = LlmClient::new(Arc::new(Slow));
        for (c, prompt) in [(&full, "a"), (&slow, "a")] {
            for _ in 0..2 {
                assert_eq!(c.complete(prompt).text, "echo:a");
            }
        }
        assert_eq!((full.stats().prompts, full.stats().cache_hits), (3, 0));
        assert_eq!((slow.stats().prompts, slow.stats().cache_hits), (2, 0));
        assert_eq!(
            slow.complete_outcome("a").serial_ms,
            BATCH_OVERHEAD_MS + (1 << 32)
        );
        // What the full shard stored before still answers.
        full.complete("stored");
        assert_eq!(full.stats().cache_hits, 1);
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
        let shard = c.cache.shard(&probe).lock();
        let prompt = shard.prompts.get(shard.find(&probe).unwrap());
        let tail = shard.prompts.text(prompt.tail);
        assert_eq!((prompt.shared, tail), (703, "Oslo é"));
        assert_eq!(shard.prompts.text(prompt.answer), format!("echo:{oslo}"));
    }

    /// What a stored prompt costs beyond its text: one fixed-size entry
    /// and at most two `u32` buckets (their count is a power of two, at
    /// least the entries'), while the text arena holds each tail and each
    /// answer once. A layout that grows an entry, or keeps a heap block
    /// per prompt again, fails here.
    #[test]
    fn a_stored_prompt_costs_its_text_and_at_most_48_bytes() {
        let c = LlmClient::new(Arc::new(Echo));
        let preamble = "Figure 4 preamble ".repeat(40);
        let prompts: Vec<String> = (0..5_000)
            .map(|i| format!("{preamble}Q: San Lorenzo {i:05}?"))
            .collect();
        for prompt in &prompts {
            c.complete(prompt);
        }
        let (mut text, mut index, mut entries) = (0, 0, 0);
        for shard in &c.cache.shards {
            let shard = shard.lock();
            let (t, i) = shard.prompts.footprint();
            (text, index, entries) = (text + t, index + i, entries + shard.prompts.len());
        }
        assert_eq!(entries, prompts.len());
        // Each prompt stores what it does not share with the first, and
        // each answer is `echo:` + its prompt.
        let reference = prompts[0].as_bytes();
        let tails: usize = prompts
            .iter()
            .map(|p| p.len() - common_prefix(p.as_bytes(), reference))
            .sum();
        let answers: usize = prompts.iter().map(|p| p.len() + 5).sum();
        assert_eq!(text, tails + answers);
        assert_eq!(std::mem::size_of::<Prompt>(), 32);
        assert!(index <= entries * 48, "{} bytes an entry", index / entries);
    }

    /// Fragments whose bytes overlap: `é` and `è` share their lead byte,
    /// `亰` and `京` their first two, the two emoji their first three, so a
    /// key built from them can leave the reference inside a character.
    const KEY_FRAGMENTS: &[&str] = &[
        "é", "è", "e", "東", "亰", "京", "😀", "😁", "Q: ", "\n", "a", "",
    ];

    fn fragments(picks: &[usize]) -> String {
        picks.iter().map(|&i| KEY_FRAGMENTS[i]).collect()
    }

    proptest::proptest! {
        /// A `Striped` cache answers every ask, landing, fault, abandon
        /// and clear as a `HashMap<String, _>` of in-flight tickets and
        /// landed values does. Each key is a prefix of the reference (the
        /// first key probed), cut at a character, plus fragments; each key
        /// keeps a queue of the askers holding a ticket for it, which land
        /// oldest first, so one lands into another's entry after a clear.
        #[test]
        fn striped_agrees_with_a_hash_map(
            reference in proptest::collection::vec(0..KEY_FRAGMENTS.len(), 0..8),
            keys in proptest::collection::vec(
                (0usize..9, proptest::collection::vec(0..KEY_FRAGMENTS.len(), 0..4)),
                1..8,
            ),
            ops in proptest::collection::vec((0usize..16, 0usize..8, 0usize..1000), 0..64),
            colliding in proptest::arbitrary::any::<bool>(),
        ) {
            #[derive(Debug, Clone, Copy, PartialEq)]
            enum State {
                InFlight(u32),
                Landed(usize),
            }
            let reference = fragments(&reference);
            let keys: Vec<String> = keys
                .iter()
                .map(|(cut, tail)| {
                    let head: String = reference.chars().take(*cut).collect();
                    head + &fragments(tail)
                })
                .collect();
            let map = if colliding { Striped::colliding() } else { Striped::new() };
            let mut oracle: HashMap<String, State> = HashMap::new();
            let mut askers: HashMap<String, std::collections::VecDeque<u32>> = HashMap::new();
            let agrees = |oracle: &HashMap<String, State>, key: &str| {
                let want = oracle.get(key).map(|state| match *state {
                    State::InFlight(_) => None,
                    State::Landed(v) => Some(answer(&v.to_string(), v)),
                });
                served(&map, key) == want
            };
            proptest::prop_assert!(agrees(&oracle, &reference));
            for (op, at, value) in ops {
                let key = &keys[at % keys.len()];
                let probe = map.probe(key);
                let state = oracle.get(key).copied();
                if op == 15 {
                    map.clear();
                    oracle.clear();
                } else if op < 5 {
                    match map.shard(&probe).lock().look(&probe) {
                        Found::Mine(Some(ticket)) => {
                            proptest::prop_assert_eq!(state, None);
                            oracle.insert(key.clone(), State::InFlight(ticket));
                            askers.entry(key.clone()).or_default().push_back(ticket);
                        }
                        Found::Mine(None) => proptest::prop_assert!(false, "a full shard"),
                        Found::Wait(_) => {
                            proptest::prop_assert!(matches!(state, Some(State::InFlight(_))));
                        }
                        Found::Ready(c) => {
                            let Some(State::Landed(v)) = state else {
                                return Err(proptest::test_runner::TestCaseError::fail("ready"));
                            };
                            proptest::prop_assert_eq!(c, answer(&v.to_string(), v));
                        }
                    }
                } else if let Some(ticket) = askers.get_mut(key).and_then(|q| q.pop_front()) {
                    let mut shard = map.shard(&probe).lock();
                    if op < 10 {
                        shard.land(&probe, ticket, &answer(&value.to_string(), value), true);
                        if !matches!(state, Some(State::Landed(_))) {
                            oracle.insert(key.clone(), State::Landed(value));
                        }
                    } else {
                        if op < 12 {
                            let fault = crate::faults::fault_text(FaultKind::Timeout);
                            shard.land(&probe, ticket, &answer(&fault, value), false);
                        } else {
                            shard.abandon(&probe, ticket);
                        }
                        if state == Some(State::InFlight(ticket)) {
                            oracle.remove(key);
                        }
                    }
                }
                proptest::prop_assert!(agrees(&oracle, key), "{:?} after op {}", key, op);
            }
            for key in keys.iter().chain([&reference]) {
                proptest::prop_assert!(agrees(&oracle, key), "{:?}", key);
            }
        }
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

    /// The chunked compare against a byte-by-byte one, on a reference the
    /// length of a paper-faithful fetch prompt: a divergence at every
    /// offset, every head of it and the reference with more after it.
    #[test]
    fn common_prefix_matches_a_byte_walk() {
        let byte_walk = |a: &[u8], b: &[u8]| a.iter().zip(b).take_while(|(x, y)| x == y).count();
        let reference: Vec<u8> = (0..758u32).map(|i| b' ' + (i * 7 % 95) as u8).collect();
        let mut texts = vec![Vec::new()];
        for at in 0..reference.len() {
            let mut diverged = reference.clone();
            diverged[at] ^= 0x80;
            texts.push(diverged);
            texts.push(reference[..at].to_vec());
        }
        for extra in [1, 31, 32, 33, 100] {
            let mut longer = reference.clone();
            longer.extend(std::iter::repeat_n(b'x', extra));
            texts.push(longer);
        }
        for text in &texts {
            let n = byte_walk(text, &reference);
            assert_eq!(common_prefix(text, &reference), n, "{}", text.len());
            assert_eq!(common_prefix(&reference, text), n, "{}", text.len());
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
