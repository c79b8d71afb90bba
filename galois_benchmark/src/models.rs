//! Benchmark-side model wrappers. The engine sees a `LanguageModel`
//! with the wrapped model's name, context window and signature, so
//! prompts, plans and store keys are those of the bare model.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use galois_llm::{Completion, LanguageModel};

use crate::trace::Tracer;

/// One recorded exchange: the exact prompt and what the model answered.
pub type Exchange = (String, Completion);

/// Times every call into the wrapped model, counts calls and prompt
/// bytes, optionally keeps the exchanges, and records one
/// `llm.simllm.complete` span per call while its tracer is enabled.
/// Calls arrive on the engine's worker threads, hence the atomics.
pub struct TimedModel {
    inner: Arc<dyn LanguageModel>,
    tracer: Arc<Tracer>,
    keep_text: AtomicBool,
    log: Mutex<Vec<Exchange>>,
    calls: AtomicU64,
    busy_ns: AtomicU64,
    prompt_bytes: AtomicU64,
    /// The span, pass and query the harness is currently inside; model
    /// spans hang off them.
    parent: AtomicU64,
    pass: AtomicU32,
    query: AtomicU32,
}

/// Calls, busy nanoseconds and prompt bytes seen so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelCounters {
    pub calls: u64,
    pub busy_ns: u64,
    pub prompt_bytes: u64,
}

impl TimedModel {
    pub fn new(inner: Arc<dyn LanguageModel>, tracer: Arc<Tracer>) -> Self {
        TimedModel {
            inner,
            tracer,
            keep_text: AtomicBool::new(false),
            log: Mutex::new(Vec::new()),
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            prompt_bytes: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            pass: AtomicU32::new(0),
            query: AtomicU32::new(0),
        }
    }

    pub fn keep_text(&self, on: bool) {
        self.keep_text.store(on, Ordering::Relaxed);
    }

    /// Takes the exchanges recorded so far, in call order.
    pub fn take_log(&self) -> Vec<Exchange> {
        std::mem::take(&mut *self.log.lock().unwrap_or_else(|e| e.into_inner()))
    }

    pub fn counters(&self) -> ModelCounters {
        ModelCounters {
            calls: self.calls.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            prompt_bytes: self.prompt_bytes.load(Ordering::Relaxed),
        }
    }

    /// Names the harness span that the next model calls belong to.
    pub fn enter(&self, parent: u64, pass: u32, query: u32) {
        self.parent.store(parent, Ordering::Relaxed);
        self.pass.store(pass, Ordering::Relaxed);
        self.query.store(query, Ordering::Relaxed);
    }
}

impl LanguageModel for TimedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn signature(&self) -> String {
        self.inner.signature()
    }

    fn complete(&self, prompt: &str) -> Completion {
        let start_ns = self.tracer.now_ns();
        let completion = self.inner.complete(prompt);
        let end_ns = self.tracer.now_ns();
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(end_ns - start_ns, Ordering::Relaxed);
        self.prompt_bytes
            .fetch_add(prompt.len() as u64, Ordering::Relaxed);
        self.tracer.record(
            "llm.simllm.complete",
            self.parent.load(Ordering::Relaxed),
            self.pass.load(Ordering::Relaxed),
            self.query.load(Ordering::Relaxed),
            start_ns,
            end_ns,
        );
        if self.keep_text.load(Ordering::Relaxed) {
            self.log
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((prompt.to_string(), completion.clone()));
        }
        completion
    }
}

/// Answers from a recording: exact prompt → the `Completion` the live
/// model gave during set-up (text, token usage and simulated latency),
/// so a cold engine pass costs no model time. A prompt that was never
/// recorded falls through to the live model and is counted — the
/// workload is built so that this never happens.
pub struct ReplayLlm {
    answers: HashMap<String, Completion>,
    fallback: Arc<dyn LanguageModel>,
    misses: AtomicU64,
}

impl ReplayLlm {
    pub fn new(recorded: Vec<Exchange>, fallback: Arc<dyn LanguageModel>) -> Self {
        ReplayLlm {
            answers: recorded.into_iter().collect(),
            fallback,
            misses: AtomicU64::new(0),
        }
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl LanguageModel for ReplayLlm {
    fn name(&self) -> &str {
        self.fallback.name()
    }

    fn context_window(&self) -> usize {
        self.fallback.context_window()
    }

    fn signature(&self) -> String {
        self.fallback.signature()
    }

    fn complete(&self, prompt: &str) -> Completion {
        match self.answers.get(prompt) {
            Some(completion) => completion.clone(),
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.fallback.complete(prompt)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galois_llm::FixedResponder;

    fn fixed(response: &str) -> Arc<dyn LanguageModel> {
        Arc::new(FixedResponder {
            model_name: "fixed".into(),
            response: response.into(),
        })
    }

    #[test]
    fn timed_model_is_transparent_and_counts() {
        let tracer = Arc::new(Tracer::new());
        let timed = TimedModel::new(fixed("Paris"), Arc::clone(&tracer));
        assert_eq!((timed.name(), timed.context_window()), ("fixed", 4096));
        assert_eq!(timed.signature(), "fixed");
        assert_eq!(timed.complete("capital of France?").text, "Paris");
        assert!(timed.take_log().is_empty(), "text is kept only on request");
        timed.keep_text(true);
        tracer.set_enabled(true);
        timed.enter(9, 2, 5);
        timed.complete("again?");
        let counters = timed.counters();
        assert_eq!((counters.calls, counters.prompt_bytes), (2, 18 + 6));
        assert_eq!(timed.take_log()[0].0, "again?");
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].parent, spans[0].pass, spans[0].query), (9, 2, 5));
    }

    #[test]
    fn replay_answers_recorded_prompts_and_counts_the_rest() {
        let live = fixed("live");
        let recorded = vec![(
            "known".to_string(),
            Completion {
                text: "taped".into(),
                ..live.complete("known")
            },
        )];
        let replay = ReplayLlm::new(recorded, live);
        assert_eq!(replay.complete("known").text, "taped");
        assert_eq!(replay.misses(), 0);
        assert_eq!(replay.complete("unknown").text, "live");
        assert_eq!(replay.misses(), 1);
        assert_eq!(replay.name(), "fixed");
    }
}
