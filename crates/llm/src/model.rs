//! The text-in/text-out language-model interface.
//!
//! This is the only surface Galois sees: it renders a prompt string, gets a
//! completion string back, and must parse whatever comes out. Keeping the
//! boundary purely textual is what makes the simulation exercise the same
//! code paths as a real LLM deployment (ARCHITECTURE.md, "Crate ↔ paper map").

use std::fmt;

/// Token usage of one completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Usage {
    /// Tokens in the prompt.
    pub prompt_tokens: usize,
    /// Tokens in the completion.
    pub completion_tokens: usize,
}

/// The result of one model call.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The completion text.
    pub text: String,
    /// Token accounting.
    pub usage: Usage,
    /// Simulated latency of this call in milliseconds (virtual clock; no
    /// real time passes).
    pub latency_ms: u64,
}

impl fmt::Display for Completion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.text)
    }
}

/// How one model request failed (the request-level signal a real API
/// surfaces through HTTP status codes and `finish_reason` fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A transient server-side error (5xx): nothing about the prompt was
    /// at fault and an immediate retry may succeed.
    Transient,
    /// The request exceeded its deadline; the fault's degraded completion
    /// carries the latency spike that was spent waiting.
    Timeout,
    /// The provider shed load (429): retry only after backing off.
    RateLimit,
    /// The completion came back truncated or garbled (`finish_reason:
    /// length`, a mangled stream): detectable at the request level, so a
    /// resilient client can re-ask, but the degraded completion still
    /// carries the corrupted text a non-resilient caller would have seen.
    Truncated,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Transient => write!(f, "transient"),
            FaultKind::Timeout => write!(f, "timeout"),
            FaultKind::RateLimit => write!(f, "rate-limit"),
            FaultKind::Truncated => write!(f, "truncated"),
        }
    }
}

/// A failed model request: the failure class plus the *degraded
/// completion* a caller without retries observes — fault-marker text (or
/// corrupted answer text for [`FaultKind::Truncated`]) whose latency is
/// still billed, because a failed request costs real wait time.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// Failure class.
    pub kind: FaultKind,
    /// What a caller that does not retry gets back.
    pub degraded: Completion,
}

/// A pre-trained language model: prompt text in, completion text out.
///
/// Implementations must be deterministic functions of the prompt (the
/// simulator derives its noise from a hash of the prompt and a model seed),
/// so that experiments are reproducible.
pub trait LanguageModel: Send + Sync {
    /// Model identifier, e.g. `"chatgpt"`.
    fn name(&self) -> &str;

    /// Maximum context size in tokens; prompts longer than this are
    /// truncated by the model (head-preserving), mirroring real APIs.
    fn context_window(&self) -> usize;

    /// Runs one completion.
    fn complete(&self, prompt: &str) -> Completion;

    /// Runs one completion, surfacing request-level failures. The default
    /// never fails — reliable models keep their `complete` behaviour
    /// bit for bit; fault-injecting wrappers ([`crate::FaultyLlm`])
    /// override this, and the resilient client retries on `Err`.
    fn try_complete(&self, prompt: &str) -> Result<Completion, Fault> {
        Ok(self.complete(prompt))
    }

    /// Fingerprint of the model's *answering behaviour*, used to key
    /// cross-query stores (the key-universe store keeps listed keys only
    /// as long as the model that produced them is answering). The default
    /// is the model name; implementations whose answers depend on further
    /// configuration (noise profiles, seeds, sampling knobs) must fold
    /// every answer-affecting field in, so a configuration change
    /// invalidates stored universes cleanly.
    fn signature(&self) -> String {
        self.name().to_string()
    }
}

/// A trivial model for tests: echoes a fixed response.
#[derive(Debug, Clone)]
pub struct FixedResponder {
    /// Name reported by the model.
    pub model_name: String,
    /// Response returned for every prompt.
    pub response: String,
}

impl LanguageModel for FixedResponder {
    fn name(&self) -> &str {
        &self.model_name
    }

    fn context_window(&self) -> usize {
        4096
    }

    fn complete(&self, prompt: &str) -> Completion {
        Completion {
            text: self.response.clone(),
            usage: Usage {
                prompt_tokens: crate::tokenizer::count_tokens(prompt),
                completion_tokens: crate::tokenizer::count_tokens(&self.response),
            },
            latency_ms: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_responder_echoes() {
        let m = FixedResponder {
            model_name: "fixed".into(),
            response: "Paris".into(),
        };
        let c = m.complete("What is the capital of France?");
        assert_eq!(c.text, "Paris");
        assert!(c.usage.prompt_tokens > 0);
    }
}
