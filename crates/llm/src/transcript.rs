//! Recorded model text: what a model was asked and what it answered, and
//! a model that answers from that record alone.
//!
//! The engine's whole contract with a model is text in, text out
//! ([`LanguageModel`]). A [`Transcript`] is that text for one run: each
//! prompt the model was sent with the [`Completion`] it returned, in call
//! order, beside the model's name, context window and signature.
//! [`Transcript::record`] wraps any model in a [`Recording`] that keeps
//! it; [`Transcript::replay`] turns it into a [`Replay`], a model that
//! answers each prompt it holds with the completion recorded for it —
//! text, token usage and latency — and reports the recorded name, window
//! and signature. A session over the replay therefore renders the same
//! prompts, keys its stores the same way and reads the same clocks as the
//! session that was recorded.
//!
//! A prompt the transcript lacks is a *miss*. Asking again cannot help
//! (the replay is a fixed function of the prompt text), so a miss is not
//! a retryable [`Fault`]: the replay answers fault-marker text
//! ([`crate::faults::is_fault_text`] holds), which the session counts in
//! `failed_cells` and never stores, and counts it ([`Replay::misses`]). It
//! never panics and never asks a live model.

use crate::faults::FAULT_MARKER;
use crate::model::{Completion, Fault, LanguageModel, Usage};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One model's side of a run: every prompt it was sent and what it
/// answered, in call order, and the identity a replay reports.
#[derive(Debug, Clone)]
pub struct Transcript {
    /// The recorded model's [`LanguageModel::name`].
    pub name: String,
    /// The recorded model's [`LanguageModel::context_window`].
    pub context_window: usize,
    /// The recorded model's [`LanguageModel::signature`].
    pub signature: String,
    /// Each prompt with the completion it got, in call order.
    pub calls: Vec<(String, Completion)>,
}

impl Transcript {
    /// Wraps `model`: every call goes through to it and is kept.
    pub fn record<M: LanguageModel>(model: M) -> Recording<M> {
        Recording {
            identity: Transcript {
                name: model.name().to_string(),
                context_window: model.context_window(),
                signature: model.signature(),
                calls: Vec::new(),
            },
            calls: Mutex::new(Vec::new()),
            model,
        }
    }

    /// A model answering from this transcript alone. A prompt recorded
    /// more than once is answered with its last completion.
    pub fn replay(self) -> Replay {
        Replay {
            answers: self.calls.into_iter().collect(),
            name: self.name,
            context_window: self.context_window,
            signature: self.signature,
            misses: AtomicUsize::new(0),
        }
    }
}

/// A model that passes every call through to the model it wraps and keeps
/// the prompt with the completion ([`Transcript::record`]). A request that
/// fails (`try_complete` returning a [`Fault`]) answered nothing and is
/// not kept.
#[derive(Debug)]
pub struct Recording<M> {
    model: M,
    identity: Transcript,
    calls: Mutex<Vec<(String, Completion)>>,
}

impl<M> Recording<M> {
    /// Everything recorded so far.
    pub fn transcript(&self) -> Transcript {
        Transcript {
            calls: self.calls.lock().clone(),
            ..self.identity.clone()
        }
    }

    fn keep(&self, prompt: &str, completion: Completion) -> Completion {
        self.calls
            .lock()
            .push((prompt.to_string(), completion.clone()));
        completion
    }
}

impl<M: LanguageModel> LanguageModel for Recording<M> {
    fn name(&self) -> &str {
        self.model.name()
    }

    fn context_window(&self) -> usize {
        self.model.context_window()
    }

    fn complete(&self, prompt: &str) -> Completion {
        self.keep(prompt, self.model.complete(prompt))
    }

    fn try_complete(&self, prompt: &str) -> Result<Completion, Fault> {
        let completion = self.model.try_complete(prompt)?;
        Ok(self.keep(prompt, completion))
    }

    fn signature(&self) -> String {
        self.model.signature()
    }
}

/// A model answering from a [`Transcript`] by equal full prompt text
/// ([`Transcript::replay`]): a hit costs one [`Completion`] clone, a miss
/// answers fault-marker text and is counted.
#[derive(Debug)]
pub struct Replay {
    name: String,
    context_window: usize,
    signature: String,
    answers: HashMap<String, Completion>,
    misses: AtomicUsize,
}

impl Replay {
    /// How many prompts the transcript lacked.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

impl LanguageModel for Replay {
    fn name(&self) -> &str {
        &self.name
    }

    fn context_window(&self) -> usize {
        self.context_window
    }

    fn complete(&self, prompt: &str) -> Completion {
        if let Some(completion) = self.answers.get(prompt) {
            return completion.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Completion {
            text: format!("{FAULT_MARKER}:unrecorded"),
            usage: Usage::default(),
            latency_ms: 0,
        }
    }

    fn signature(&self) -> String {
        self.signature.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::is_fault_text;
    use crate::model::FixedResponder;

    fn recorded() -> Transcript {
        let recording = Transcript::record(FixedResponder {
            model_name: "fixed".into(),
            response: "Paris".into(),
        });
        recording.complete("What is the capital of France?");
        recording.complete("What is the capital of Italy?");
        recording.transcript()
    }

    #[test]
    fn a_recording_keeps_calls_in_order_with_the_models_identity() {
        let transcript = recorded();
        assert_eq!(
            (transcript.name.as_str(), transcript.context_window),
            ("fixed", 4096)
        );
        assert_eq!(transcript.signature, "fixed");
        let prompts: Vec<&str> = transcript.calls.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            prompts,
            [
                "What is the capital of France?",
                "What is the capital of Italy?"
            ]
        );
        assert!(transcript.calls.iter().all(|(_, c)| c.text == "Paris"));
    }

    #[test]
    fn a_replay_answers_recorded_prompts_and_marks_a_miss() {
        let transcript = recorded();
        let (prompt, completion) = transcript.calls[0].clone();
        let replay = transcript.replay();
        assert_eq!((replay.name(), replay.context_window()), ("fixed", 4096));
        assert_eq!(replay.signature(), "fixed");
        assert_eq!(replay.complete(&prompt), completion);
        assert_eq!(replay.misses(), 0);
        let miss = replay.complete("What is the capital of Spain?");
        assert!(is_fault_text(&miss.text), "{}", miss.text);
        assert_eq!(replay.try_complete("Where?").map(|c| c.text), Ok(miss.text));
        assert_eq!(replay.misses(), 2);
    }
}
