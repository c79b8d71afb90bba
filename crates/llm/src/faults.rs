//! Deterministic fault injection: a model wrapper that fails requests on
//! a seeded schedule.
//!
//! Production LLM traffic fails constantly — transient 5xx errors,
//! latency spikes past the deadline, 429 load shedding, truncated or
//! garbled completions — and the surveys in PAPERS.md name unreliability,
//! not raw latency, as the dominant production failure mode. [`FaultyLlm`]
//! reproduces those failure modes *deterministically*: whether (and how
//! often, and in which way) a prompt's request fails is a pure function of
//! the [`FaultProfile`], the prompt text, and the attempt ordinal —
//! never of thread timing — so chaos tests are exactly reproducible.
//!
//! The schedule is leading-failure shaped: a prompt drawn as faulty fails
//! its first `f` attempts (with `f` capped at
//! [`FaultProfile::MAX_CONSECUTIVE`]) and then answers cleanly forever.
//! A retry budget of at least `MAX_CONSECUTIVE` therefore *guarantees*
//! every prompt eventually produces the wrapped model's exact completion —
//! which is what makes the resilience equivalence battery possible: same
//! answers, same prompt counts net of retries, same cache hits, only the
//! virtual clock differs by the billed retry/backoff time.

use crate::model::{Completion, Fault, FaultKind, LanguageModel, Usage};
use crate::noise::seeded;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Marker prefix of degraded fault-completion text. Kept deliberately
/// un-answer-like (no `key: value` shape, no yes/no prefix) so every
/// existing parser already rejects it; [`is_fault_text`] lets the session
/// recognise it outright and degrade gracefully instead of mis-reading it.
pub(crate) const FAULT_MARKER: &str = "\u{26a1}fault";

/// Renders the degraded completion text for a fault kind.
pub(crate) fn fault_text(kind: FaultKind) -> String {
    format!("{FAULT_MARKER}:{kind}")
}

/// True when a completion's text is a degraded fault marker (see
/// `FAULT_MARKER`). Truncated-answer faults carry corrupted *answer*
/// text instead and are not detectable this way — by design: a garbled
/// answer looks like a garbled answer, and must survive the parsing
/// gauntlet on its own.
pub fn is_fault_text(text: &str) -> bool {
    text.trim_start().starts_with(FAULT_MARKER)
}

/// Parameter vector of one fault-injection schedule (the resilience
/// analogue of [`crate::ModelProfile`]'s noise dials). The schedule's seed
/// and the weights of the three marker-detectable kinds are constants.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Probability that a prompt's request sequence starts with faults.
    pub fault_rate: f64,
    /// Relative weight of [`FaultKind::Truncated`] draws, beside
    /// [`FaultProfile::TRANSIENT_WEIGHT`],
    /// [`FaultProfile::TIMEOUT_WEIGHT`] and
    /// [`FaultProfile::RATE_LIMIT_WEIGHT`]; 0 keeps every fault
    /// marker-detectable.
    pub truncated_weight: u32,
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self::with_rate(0.2)
    }
}

impl FaultProfile {
    /// Upper bound on consecutive leading failures of one prompt. A retry
    /// budget of at least this many re-asks guarantees a clean answer.
    pub const MAX_CONSECUTIVE: u32 = 3;
    /// Latency billed by a timed-out attempt (the deadline spent waiting).
    pub(crate) const TIMEOUT_LATENCY_MS: u64 = 1_000;
    /// Latency billed by a transient / rate-limit / truncated attempt.
    pub(crate) const FAULT_LATENCY_MS: u64 = 30;
    /// Deterministic schedule seed; combined with prompt hashes.
    const SEED: u64 = 0xFA17;
    /// Relative weight of [`FaultKind::Transient`] draws.
    pub const TRANSIENT_WEIGHT: u32 = 4;
    /// Relative weight of [`FaultKind::Timeout`] draws.
    pub const TIMEOUT_WEIGHT: u32 = 2;
    /// Relative weight of [`FaultKind::RateLimit`] draws.
    pub const RATE_LIMIT_WEIGHT: u32 = 2;

    /// A schedule failing roughly `rate` of all prompts, with all four
    /// fault kinds in play and at most 3 consecutive failures per prompt.
    pub fn with_rate(rate: f64) -> Self {
        FaultProfile {
            fault_rate: rate.clamp(0.0, 1.0),
            truncated_weight: 2,
        }
    }

    /// Number of leading failed attempts for a prompt: 0 for most prompts,
    /// `1..=MAX_CONSECUTIVE` for the `fault_rate` share drawn as faulty.
    fn leading_faults(&self, prompt: &str) -> u32 {
        if self.fault_rate <= 0.0 {
            return 0;
        }
        let u = seeded(Self::SEED, &["fault?", prompt]) as f64 / u64::MAX as f64;
        if u >= self.fault_rate {
            return 0;
        }
        1 + (seeded(Self::SEED, &["depth", prompt]) % u64::from(Self::MAX_CONSECUTIVE)) as u32
    }

    /// The fault kind of one attempt, drawn from the kind weights.
    fn kind_for(&self, prompt: &str, attempt: u32) -> FaultKind {
        let kinds = [
            (FaultKind::Transient, Self::TRANSIENT_WEIGHT),
            (FaultKind::Timeout, Self::TIMEOUT_WEIGHT),
            (FaultKind::RateLimit, Self::RATE_LIMIT_WEIGHT),
            (FaultKind::Truncated, self.truncated_weight),
        ];
        let total: u64 = kinds.iter().map(|&(_, w)| u64::from(w)).sum();
        let attempt_label = attempt.to_string();
        let mut pick = seeded(Self::SEED, &["kind", prompt, &attempt_label]) % total;
        for (kind, weight) in kinds {
            let w = u64::from(weight);
            if pick < w {
                return kind;
            }
            pick -= w;
        }
        FaultKind::Transient
    }
}

/// A fault-injecting wrapper over any [`LanguageModel`].
///
/// [`LanguageModel::try_complete`] surfaces the scheduled faults as
/// `Err(Fault)`; [`LanguageModel::complete`] — the path a non-resilient
/// client takes — serves each fault's *degraded* completion instead:
/// fault-marker text (or a corrupted answer for
/// [`FaultKind::Truncated`]) with the failed attempt's latency billed.
/// Attempt ordinals are tracked per prompt, so retrying the same prompt
/// walks the schedule forward deterministically regardless of what other
/// prompts (or threads) are doing.
///
/// The wrapper signs itself into [`LanguageModel::signature`] (inner
/// signature + fault profile), so cross-query stores guarded by the model
/// signature invalidate cleanly when fault injection is toggled.
pub struct FaultyLlm {
    inner: Arc<dyn LanguageModel>,
    profile: FaultProfile,
    /// Attempts already made per prompt (the schedule cursor).
    attempts: Mutex<HashMap<String, u32>>,
}

impl FaultyLlm {
    /// Wraps a model with a fault schedule.
    pub fn new(inner: Arc<dyn LanguageModel>, profile: FaultProfile) -> Self {
        FaultyLlm {
            inner,
            profile,
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// Builds the degraded completion of one failed attempt.
    fn degraded(&self, prompt: &str, attempt: u32, kind: FaultKind) -> Completion {
        let latency_ms = match kind {
            FaultKind::Timeout => FaultProfile::TIMEOUT_LATENCY_MS,
            _ => FaultProfile::FAULT_LATENCY_MS,
        };
        let text = match kind {
            // A truncated/garbled answer: the inner model's clean text cut
            // at a schedule-drawn point, so it *looks* like a mangled
            // answer rather than an error page.
            FaultKind::Truncated => {
                let clean = self.inner.complete(prompt).text;
                let attempt_label = attempt.to_string();
                let keep = seeded(FaultProfile::SEED, &["cut", prompt, &attempt_label]) as usize
                    % (clean.len() + 1);
                let mut cut = keep;
                while cut > 0 && !clean.is_char_boundary(cut) {
                    cut -= 1;
                }
                clean[..cut].to_string()
            }
            kind => fault_text(kind),
        };
        Completion {
            usage: Usage {
                prompt_tokens: crate::tokenizer::count_tokens(prompt),
                completion_tokens: crate::tokenizer::count_tokens(&text),
            },
            text,
            latency_ms,
        }
    }
}

impl LanguageModel for FaultyLlm {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn complete(&self, prompt: &str) -> Completion {
        self.try_complete(prompt)
            .unwrap_or_else(|fault| fault.degraded)
    }

    fn try_complete(&self, prompt: &str) -> Result<Completion, Fault> {
        let attempt = {
            let mut attempts = self.attempts.lock();
            let slot = attempts.entry(prompt.to_string()).or_insert(0);
            let attempt = *slot;
            *slot += 1;
            attempt
        };
        if attempt < self.profile.leading_faults(prompt) {
            let kind = self.profile.kind_for(prompt, attempt);
            return Err(Fault {
                kind,
                degraded: self.degraded(prompt, attempt, kind),
            });
        }
        Ok(self.inner.complete(prompt))
    }

    fn signature(&self) -> String {
        format!("{}+faults:{:?}", self.inner.signature(), self.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FixedResponder;

    fn fixed() -> Arc<dyn LanguageModel> {
        Arc::new(FixedResponder {
            model_name: "fixed".into(),
            response: "the clean answer".into(),
        })
    }

    #[test]
    fn schedule_is_leading_failures_then_clean_forever() {
        let profile = FaultProfile::with_rate(1.0);
        let faulty = FaultyLlm::new(fixed(), profile.clone());
        let mut failures = 0;
        loop {
            match faulty.try_complete("prompt") {
                Err(_) => failures += 1,
                Ok(c) => {
                    assert_eq!(c.text, "the clean answer");
                    break;
                }
            }
            assert!(
                failures <= FaultProfile::MAX_CONSECUTIVE,
                "schedule must cap"
            );
        }
        assert!(failures >= 1, "rate 1.0 must fail the first attempt");
        // Once clean, clean forever.
        for _ in 0..3 {
            assert!(faulty.try_complete("prompt").is_ok());
        }
    }

    #[test]
    fn schedule_is_deterministic_across_instances() {
        let run = || {
            let faulty = FaultyLlm::new(fixed(), FaultProfile::with_rate(0.5));
            (0..40)
                .map(|i| {
                    let p = format!("p{i}");
                    (0..4)
                        .map(|_| match faulty.try_complete(&p) {
                            Ok(_) => 'o',
                            Err(f) => match f.kind {
                                FaultKind::Transient => 't',
                                FaultKind::Timeout => 'd',
                                FaultKind::RateLimit => 'r',
                                FaultKind::Truncated => 'x',
                            },
                        })
                        .collect::<String>()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let faulty = FaultyLlm::new(fixed(), FaultProfile::with_rate(0.0));
        for i in 0..50 {
            assert!(faulty.try_complete(&format!("p{i}")).is_ok());
        }
    }

    #[test]
    fn complete_serves_the_degraded_completion() {
        let faulty = FaultyLlm::new(fixed(), FaultProfile::with_rate(1.0));
        let first = faulty.complete("prompt");
        // First attempt of a rate-1.0 schedule always fails: marker text
        // or a strict prefix of the clean answer (truncation).
        assert!(
            is_fault_text(&first.text) || "the clean answer".starts_with(&first.text),
            "unexpected degraded text: {:?}",
            first.text
        );
    }

    #[test]
    fn timeout_bills_the_deadline() {
        let faulty = FaultyLlm::new(fixed(), FaultProfile::with_rate(1.0));
        let mut timeouts = 0;
        for i in 0..40 {
            let fault = faulty.try_complete(&format!("p{i}")).unwrap_err();
            let want = if fault.kind == FaultKind::Timeout {
                timeouts += 1;
                FaultProfile::TIMEOUT_LATENCY_MS
            } else {
                FaultProfile::FAULT_LATENCY_MS
            };
            assert_eq!(fault.degraded.latency_ms, want, "{}", fault.kind);
        }
        assert!(timeouts > 0, "a fifth of the draws are timeouts");
    }

    #[test]
    fn signature_folds_the_profile_in() {
        let a = FaultyLlm::new(fixed(), FaultProfile::with_rate(0.1));
        let b = FaultyLlm::new(fixed(), FaultProfile::with_rate(0.2));
        assert_ne!(a.signature(), b.signature());
        assert_ne!(a.signature(), fixed().signature());
    }

    fn fnv1a(hash: &mut u64, text: &str) {
        for byte in text.bytes().chain([b'\n']) {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The schedules the fault and retry constants draw, in one digest:
    /// over a fixed prompt list and the two profiles the benchmark crates
    /// build (`with_rate(0.2)` and the marker-detectable one), each
    /// prompt's leading faults with every failed attempt's kind, degraded
    /// text and latency, and the default policy's backoff before retries
    /// 0 to 6; then a resilient client's bill per prompt under retry
    /// budgets 0, 1 and 4, and over a rate-1.0 schedule whose exhaustion
    /// streaks open the breaker.
    #[test]
    fn fault_and_retry_schedules_are_pinned() {
        let inner: Arc<dyn LanguageModel> = Arc::new(FixedResponder {
            model_name: "fixed".into(),
            response: "Zürich, São Paulo, Kraków, Reykjavík, Lyon".into(),
        });
        let prompts: Vec<String> = (0..240)
            .map(|i| match i % 3 {
                0 => format!("List the names of every city, page {i}."),
                1 => format!("What is the population of city number {i}?"),
                _ => format!("Is country {i} in Europe? Answer yes or no."),
            })
            .collect();
        let detectable = FaultProfile {
            fault_rate: 0.2,
            truncated_weight: 0,
        };
        let mut digest = 0xcbf2_9ce4_8422_2325;
        for profile in [FaultProfile::with_rate(0.2), detectable.clone()] {
            let faulty = FaultyLlm::new(Arc::clone(&inner), profile.clone());
            for prompt in &prompts {
                let mut leading = 0;
                while let Err(fault) = faulty.try_complete(prompt) {
                    leading += 1;
                    let degraded = &fault.degraded;
                    let line =
                        format!("{} {} {:?}", fault.kind, degraded.latency_ms, degraded.text);
                    fnv1a(&mut digest, &line);
                    assert!(leading <= FaultProfile::MAX_CONSECUTIVE, "{prompt}");
                }
                fnv1a(&mut digest, &format!("{prompt} leads with {leading}"));
            }
        }
        for prompt in &prompts {
            let backoffs: Vec<u64> = (0..=6)
                .map(|r| crate::resilience::RetryPolicy::backoff_ms(prompt, r))
                .collect();
            fnv1a(&mut digest, &format!("{backoffs:?}"));
        }
        let runs = [
            (FaultProfile::with_rate(0.2), [0, 1, 4].as_slice()),
            (detectable, &[0, 1, 4]),
            (FaultProfile::with_rate(1.0), &[0, 1]),
        ];
        for (profile, budgets) in runs {
            for &max_retries in budgets {
                let faulty = FaultyLlm::new(Arc::clone(&inner), profile.clone());
                let policy = crate::resilience::RetryPolicy { max_retries };
                let client = crate::LlmClient::new(Arc::new(faulty)).with_resilience(policy);
                for prompt in &prompts {
                    let c = client.complete(prompt);
                    fnv1a(&mut digest, &format!("{} {:?}", c.latency_ms, c.text));
                }
                let s = client.stats();
                let line = format!(
                    "{} {} {} {} {} {} {}",
                    s.prompts,
                    s.virtual_ms,
                    s.retries,
                    s.timeouts,
                    s.rate_limited,
                    s.breaker_fastfails,
                    s.faults
                );
                fnv1a(&mut digest, &line);
            }
        }
        assert_eq!(
            digest, 0x59ec_33cb_e6f4_7fb2,
            "schedule digest {digest:#018x}"
        );
    }

    #[test]
    fn fault_text_round_trip() {
        assert!(is_fault_text(&fault_text(FaultKind::Transient)));
        assert!(is_fault_text("  \u{26a1}fault:rate-limit"));
        assert!(!is_fault_text("Rome, Paris, Milan"));
        assert!(!is_fault_text("No more results"));
    }
}
