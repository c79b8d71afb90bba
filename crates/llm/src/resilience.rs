//! Retry policy and circuit breaker for the resilient client.
//!
//! [`RetryPolicy`] is the payload of the `Resilience::On` knob: how many
//! re-asks a failed request gets. Its associated constants fix the rest —
//! how the exponential backoff between re-asks grows, how much
//! deterministic jitter decorrelates lanes, when a slow-but-successful
//! answer counts as a timeout, and when the per-client [`CircuitBreaker`]
//! stops asking altogether. All waiting is
//! billed in *virtual* milliseconds — it folds into the completion's
//! `latency_ms` and flows through the event clock like any model latency;
//! no real time passes.

use crate::noise::seeded;

/// Bounded-retry configuration (the payload of `Resilience::On`).
///
/// The defaults are deliberately conservative-for-equivalence: 4 retries
/// cover [`crate::FaultProfile::MAX_CONSECUTIVE`] (3) consecutive
/// failures, [`RetryPolicy::TIMEOUT_MS`] is far above any simulated clean
/// latency, and [`RetryPolicy::BREAKER_THRESHOLD`] is high enough that
/// the breaker never opens while retries are still winning — so a ≤ 20 %
/// fault rate under the default policy reproduces the fault-free run bit
/// for bit (only the virtual clock grows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-asks after the first failed attempt (total attempts = 1 + this).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 4 }
    }
}

impl RetryPolicy {
    /// Backoff before the first retry, in virtual milliseconds.
    pub const BASE_BACKOFF_MS: u64 = 50;
    /// Multiplier applied to the backoff per further retry.
    pub const BACKOFF_MULTIPLIER: u64 = 2;
    /// Backoff ceiling, in virtual milliseconds.
    pub const MAX_BACKOFF_MS: u64 = 2_000;
    /// An attempt slower than this many virtual milliseconds (even a
    /// successful one) counts as a timeout: its window is billed and the
    /// request is retried.
    pub const TIMEOUT_MS: u64 = 30_000;
    /// Deterministic jitter added to each backoff, as a permille fraction
    /// of the backoff (200 = up to +20 %), drawn from a hash of the prompt
    /// and the attempt ordinal so lanes decorrelate reproducibly.
    pub const JITTER_PERMILLE: u64 = 200;
    /// Consecutive retry-exhausted prompts that trip the breaker open.
    pub const BREAKER_THRESHOLD: u32 = 8;
    /// Requests failed fast while the breaker is open, before one
    /// half-open probe is let through.
    pub const BREAKER_COOLDOWN: u32 = 16;

    /// Virtual backoff before retry `retry` (0-based) of `prompt`:
    /// exponential with ceiling, plus deterministic jitter.
    pub(crate) fn backoff_ms(prompt: &str, retry: u32) -> u64 {
        let growth = Self::BACKOFF_MULTIPLIER.saturating_pow(retry);
        let base = Self::BASE_BACKOFF_MS
            .saturating_mul(growth)
            .min(Self::MAX_BACKOFF_MS);
        let retry_label = retry.to_string();
        let jitter = seeded(0x1177E2, &["jitter", prompt, &retry_label])
            % (base * Self::JITTER_PERMILLE / 1000 + 1);
        base + jitter
    }
}

/// Per-client circuit breaker, counted in *request outcomes* rather than
/// wall time (the simulation has none to spare):
/// [`RetryPolicy::BREAKER_THRESHOLD`] consecutive retry-exhausted prompts
/// open it; while open, the next [`RetryPolicy::BREAKER_COOLDOWN`]
/// requests fail fast without touching the model; the
/// request after that is the half-open probe — success closes the
/// breaker, another exhaustion re-opens it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CircuitBreaker {
    /// Normal operation, counting consecutive retry-exhausted prompts.
    Closed {
        /// Retry-exhausted prompts seen in a row.
        consecutive_failures: u32,
    },
    /// Tripped: the next `remaining` requests fail fast.
    Open {
        /// Fast-fails left before the half-open probe.
        remaining: u32,
    },
    /// One probe request is in flight to the model.
    HalfOpen,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker::Closed {
            consecutive_failures: 0,
        }
    }
}

impl CircuitBreaker {
    /// Admission check, advanced *before* a request runs. Returns `false`
    /// when the request must fail fast (breaker open, cooldown not yet
    /// spent).
    pub(crate) fn admit(&mut self) -> bool {
        match *self {
            CircuitBreaker::Closed { .. } | CircuitBreaker::HalfOpen => true,
            CircuitBreaker::Open { remaining } => {
                if remaining == 0 {
                    *self = CircuitBreaker::HalfOpen;
                    true
                } else {
                    *self = CircuitBreaker::Open {
                        remaining: remaining - 1,
                    };
                    false
                }
            }
        }
    }

    /// Records a request that produced a clean answer (possibly after
    /// retries): closes the breaker and resets the failure streak.
    pub(crate) fn record_success(&mut self) {
        *self = CircuitBreaker::default();
    }

    /// Records a retry-exhausted request: grows the failure streak and
    /// trips the breaker at the threshold; an exhausted half-open probe
    /// re-opens immediately.
    pub(crate) fn record_exhaustion(&mut self) {
        match *self {
            CircuitBreaker::Closed {
                consecutive_failures,
            } => {
                let streak = consecutive_failures + 1;
                if streak >= RetryPolicy::BREAKER_THRESHOLD {
                    *self = CircuitBreaker::Open {
                        remaining: RetryPolicy::BREAKER_COOLDOWN,
                    };
                } else {
                    *self = CircuitBreaker::Closed {
                        consecutive_failures: streak,
                    };
                }
            }
            CircuitBreaker::HalfOpen => {
                *self = CircuitBreaker::Open {
                    remaining: RetryPolicy::BREAKER_COOLDOWN,
                };
            }
            CircuitBreaker::Open { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_to_the_ceiling() {
        // Each backoff is its base plus at most a fifth of it in jitter.
        for (retry, base) in [(0, 50), (1, 100), (2, 200), (10, 2_000)] {
            let backoff = RetryPolicy::backoff_ms("p", retry);
            assert!(
                (base..=base + base / 5).contains(&backoff),
                "retry {retry}: {backoff}"
            );
        }
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let a = RetryPolicy::backoff_ms("prompt", 1);
        let b = RetryPolicy::backoff_ms("prompt", 1);
        assert_eq!(a, b);
        assert!((100..=120).contains(&a), "base 100 + ≤20%: got {a}");
    }

    /// `n` exhausted requests, each admitted first.
    fn exhaust(b: &mut CircuitBreaker, n: u32) {
        for _ in 0..n {
            assert!(b.admit());
            b.record_exhaustion();
        }
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let mut b = CircuitBreaker::default();
        exhaust(&mut b, RetryPolicy::BREAKER_THRESHOLD - 1);
        assert!(!matches!(b, CircuitBreaker::Open { .. }));
        exhaust(&mut b, 1);
        assert!(
            matches!(b, CircuitBreaker::Open { .. }),
            "threshold reached"
        );
        for _ in 0..RetryPolicy::BREAKER_COOLDOWN {
            assert!(!b.admit());
        }
        // Next request is the half-open probe.
        assert!(b.admit());
        assert_eq!(b, CircuitBreaker::HalfOpen);
        b.record_success();
        assert_eq!(b, CircuitBreaker::default());
    }

    #[test]
    fn failed_probe_reopens() {
        let mut b = CircuitBreaker::default();
        exhaust(&mut b, RetryPolicy::BREAKER_THRESHOLD);
        assert!(matches!(b, CircuitBreaker::Open { .. }));
        for _ in 0..RetryPolicy::BREAKER_COOLDOWN {
            assert!(!b.admit());
        }
        assert!(b.admit()); // probe
        b.record_exhaustion();
        assert_eq!(
            b,
            CircuitBreaker::Open {
                remaining: RetryPolicy::BREAKER_COOLDOWN
            },
            "failed probe re-opens"
        );
    }

    #[test]
    fn success_resets_the_streak() {
        let mut b = CircuitBreaker::default();
        exhaust(&mut b, RetryPolicy::BREAKER_THRESHOLD - 1);
        b.record_success();
        exhaust(&mut b, RetryPolicy::BREAKER_THRESHOLD - 1);
        assert!(
            !matches!(b, CircuitBreaker::Open { .. }),
            "streak was reset in between"
        );
    }
}
