//! Ablation **A9**: fault injection × retry policy — the resilience sweep.
//!
//! Runs the full 46-query oracle suite with the default (sequential)
//! engine configuration over a [`FaultyLlm`]-wrapped oracle, sweeping the
//! fault rate (`{0.1, 0.2, 0.5}`) against three retry policies: `off`
//! (`Resilience::Off` — graceful degradation is the only defence),
//! `retry 1` (a single re-ask, below the fault injector's consecutive-
//! failure cap, so some cells still exhaust), and `retry 4` (the default
//! [`RetryPolicy`], whose budget dominates the cap). Truncated faults are
//! excluded (`truncated_weight: 0`): they corrupt answers instead of
//! marking them, so rows under `off` would be silently wrong rather than
//! degraded — the marker-detectable kinds keep the sweep's row counts
//! meaningful across every policy.
//!
//! The table ties the fully-retried rows to the fault-free baseline and
//! separates the weaker policies on retries, breaker fast-fails, failed
//! cells, and the virtual clock (backoff is billed). The binary asserts
//! the headline equivalence in-line: under the default policy, **every**
//! fault rate must reproduce the clean run's row count, prompt bill (net
//! of retries) and cache hits exactly, with zero failed cells — this is
//! the same property CI checks on the `galois_faulty_retry` row of
//! `BENCH_e2e.json`.
//!
//! Usage: `ablation_faults [--seed 42]`.

use galois_bench::{detectable_fault_profile, Flags};
use galois_core::{Galois, GaloisOptions, Resilience, RetryPolicy};
use galois_dataset::Scenario;
use galois_eval::TextTable;
use galois_llm::{FaultyLlm, LanguageModel, ModelProfile, SimLlm};
use std::sync::Arc;

#[derive(Default)]
struct Measure {
    rows: usize,
    prompts: usize,
    cache_hits: usize,
    retries: usize,
    timeouts: usize,
    rate_limited: usize,
    breaker_fastfails: usize,
    failed_cells: usize,
    virtual_ms: u64,
}

/// One full suite pass on a fresh session over `model`, with the default
/// engine options plus the given resilience knob. Fresh sessions (and
/// fresh `FaultyLlm` wrappers at the call sites) keep every cell's fault
/// schedule starting from attempt zero, so rows are comparable.
fn measure(scenario: &Scenario, model: Arc<dyn LanguageModel>, resilience: Resilience) -> Measure {
    let session = Galois::with_options(
        model,
        scenario.database.clone(),
        GaloisOptions {
            resilience,
            ..Default::default()
        },
    );
    let mut m = Measure::default();
    for spec in &scenario.suite {
        let result = session
            .execute(&spec.to_sql())
            .expect("suite query executes");
        m.rows += result.relation.len();
        m.prompts += result.stats.total_prompts();
        m.cache_hits += result.stats.cache_hits;
        m.retries += result.stats.retries;
        m.timeouts += result.stats.timeouts;
        m.rate_limited += result.stats.rate_limited;
        m.breaker_fastfails += result.stats.breaker_fastfails;
        m.failed_cells += result.stats.failed_cells;
        m.virtual_ms += result.stats.virtual_ms;
    }
    m
}

fn main() {
    let seed = Flags::from_env(&["--seed"]).seed();
    let scenario = Scenario::generate(seed);
    let oracle = || {
        Arc::new(SimLlm::new(
            scenario.knowledge.clone(),
            ModelProfile::oracle(),
        ))
    };
    println!(
        "Ablation A9 — fault injection x retry policy (46-query oracle suite, seed {seed}, \
         sequential engine, marker-detectable faults only)\n"
    );

    let clean = measure(&scenario, oracle(), Resilience::Off);

    let policies: [(&str, Resilience); 3] = [
        ("off", Resilience::Off),
        (
            "retry 1",
            Resilience::On(RetryPolicy {
                max_retries: 1,
                ..RetryPolicy::default()
            }),
        ),
        ("retry 4", Resilience::On(RetryPolicy::default())),
    ];
    let rates = [0.1f64, 0.2, 0.5];

    let mut t = TextTable::new(&[
        "fault rate",
        "policy",
        "rows",
        "prompts",
        "cache hits",
        "retries",
        "timeouts",
        "rate-ltd",
        "fastfails",
        "failed cells",
        "virtual ms",
    ]);
    t.row(vec![
        "0.0".to_string(),
        "(clean)".to_string(),
        clean.rows.to_string(),
        clean.prompts.to_string(),
        clean.cache_hits.to_string(),
        "0".to_string(),
        "0".to_string(),
        "0".to_string(),
        "0".to_string(),
        "0".to_string(),
        clean.virtual_ms.to_string(),
    ]);
    for rate in rates {
        for (label, resilience) in policies {
            let model = Arc::new(FaultyLlm::new(oracle(), detectable_fault_profile(rate)));
            let m = measure(&scenario, model, resilience);
            if label == "retry 4" {
                // The headline property: a retry budget that dominates the
                // injector's consecutive-failure cap absorbs the entire
                // schedule — the suite is the fault-free suite, at any
                // fault rate, with only the virtual clock grown.
                assert_eq!(m.rows, clean.rows, "rows must tie clean at rate {rate}");
                assert_eq!(
                    m.prompts, clean.prompts,
                    "prompt bill net of retries must tie clean at rate {rate}"
                );
                assert_eq!(
                    m.cache_hits, clean.cache_hits,
                    "cache hits must tie clean at rate {rate}"
                );
                assert_eq!(m.failed_cells, 0, "no cell may exhaust at rate {rate}");
                assert!(m.virtual_ms > clean.virtual_ms, "backoff must be billed");
            }
            t.row(vec![
                format!("{rate}"),
                label.to_string(),
                m.rows.to_string(),
                m.prompts.to_string(),
                m.cache_hits.to_string(),
                m.retries.to_string(),
                m.timeouts.to_string(),
                m.rate_limited.to_string(),
                m.breaker_fastfails.to_string(),
                m.failed_cells.to_string(),
                m.virtual_ms.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "(expected: every `retry 4` row ties the clean row on rows/prompts/cache hits with zero \
         failed cells — asserted above; `off` rows lose cells outright, `retry 1` rows absorb \
         single faults but exhaust on longer streaks, and billed backoff grows the virtual clock \
         with the fault rate)"
    );
}
