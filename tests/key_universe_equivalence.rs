//! Key-universe store equivalence battery (PR 6):
//!
//! 1. **Off bit-exactness** — `ListStore::Off` (the default) must be
//!    bit-identical to a session that never heard of the store: every
//!    `QueryStats` field and every result row, across the whole suite.
//! 2. **Warm-pass equivalence** — a second suite pass on a store-enabled
//!    session must reproduce the cold pass's relations, Table-1/Table-2
//!    metrics and cache-hit totals exactly, while issuing *zero* list
//!    prompts (the whole point of the store) and no more prompts overall
//!    than a store-off session's second pass.
//! 3. **Exhausted concepts are never re-listed** — an auditing model
//!    wrapper checks, at prompt time, that no `ListKeys`/`ListKeysPage`
//!    prompt ever names a concept the shared store already holds as
//!    exhausted.
//! 4. **Invalidation** — a store warmed by one model signature must be
//!    invisible to a different signature: the second session re-lists
//!    from scratch and matches a fresh session bit-for-bit.
//! 5. **Partial frontiers** — a capped listing stores a partial universe;
//!    a later query appends past the frontier (append-only, no duplicate
//!    keys) and the final universe equals the uncapped listing.
//! 6. **Property form** — over random seeds, random query orderings,
//!    K ∈ {1,2,8}, B ∈ {1,10}, both pipelines: the store never changes
//!    `R_M`, the warm pass lists nothing, and cache-hit totals match the
//!    store-off session pass-for-pass.

mod common;

use common::{assert_stats_eq, options, oracle_session, permutation, small_config, sorted_rows};
use galois::core::{
    concept_signature_for, Galois, GaloisOptions, ListStore, Parallelism, Pipeline, PromptBatch,
};
use galois::dataset::Scenario;
use galois::eval::{run_galois_suite_on, GaloisRun};
use galois::llm::intent::{parse_task, TaskIntent};
use galois::llm::{Completion, KeyUniverseStore, LanguageModel, ModelProfile, SimLlm};
use galois::relational::Value;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// `ListStore::Off` is the default and must be bit-identical to the
/// pre-store engine: every observable counter and every row, for every
/// suite query, on both pipelines.
#[test]
fn store_off_is_bit_identical_to_default() {
    let s = Scenario::generate_with(42, small_config());
    assert_eq!(
        GaloisOptions::default().list_store,
        ListStore::Off,
        "Off must stay the default"
    );
    for pipeline in [Pipeline::Off, Pipeline::Streaming] {
        let default_session = oracle_session(
            &s,
            GaloisOptions {
                pipeline,
                prompt_batch: PromptBatch::Keys(10),
                parallelism: Parallelism::new(4),
                ..Default::default()
            },
        );
        let off_session = oracle_session(
            &s,
            options(ListStore::Off, pipeline, PromptBatch::Keys(10), 4),
        );
        for spec in &s.suite {
            let sql = spec.to_sql();
            let a = default_session.execute(&sql).unwrap();
            let b = off_session.execute(&sql).unwrap();
            assert_eq!(a.relation.rows, b.relation.rows, "q{}", spec.id);
            assert_stats_eq(&a.stats, &b.stats, &format!("q{} stats: {sql}", spec.id));
        }
    }
}

/// Asserts two suite runs agree on everything Table 1 and Table 2 are
/// computed from, per query.
fn assert_tables_equal(a: &GaloisRun, b: &GaloisRun, label: &str) {
    assert_eq!(a.outcomes.len(), b.outcomes.len(), "{label}: suite length");
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.truth_rows, y.truth_rows, "{label}: q{} |R_D|", x.id);
        assert_eq!(x.result_rows, y.result_rows, "{label}: q{} |R_M|", x.id);
        assert_eq!(
            x.cardinality_diff, y.cardinality_diff,
            "{label}: q{} Table-1 cell",
            x.id
        );
        assert_eq!(x.matching, y.matching, "{label}: q{} Table-2 cells", x.id);
    }
    assert_eq!(
        a.average_cardinality_diff(),
        b.average_cardinality_diff(),
        "{label}: Table 1"
    );
    assert_eq!(
        a.content_score(None),
        b.content_score(None),
        "{label}: Table 2"
    );
}

fn suite_hits(run: &GaloisRun) -> usize {
    run.outcomes.iter().map(|o| o.stats.cache_hits).sum()
}

fn suite_prompts(run: &GaloisRun) -> usize {
    run.outcomes.iter().map(|o| o.stats.total_prompts()).sum()
}

fn suite_list_prompts(run: &GaloisRun) -> usize {
    run.outcomes.iter().map(|o| o.stats.list_prompts).sum()
}

/// Cold pass, warm pass, and a store-off control session, on both
/// pipelines: the store must be invisible in every reported table and in
/// the cache-hit bill, and the warm pass must list nothing.
#[test]
fn warm_pass_matches_cold_pass_tables_and_hits() {
    let s = Scenario::generate_with(42, small_config());
    for pipeline in [Pipeline::Off, Pipeline::Streaming] {
        let off = oracle_session(
            &s,
            options(ListStore::Off, pipeline, PromptBatch::Keys(10), 8),
        );
        let on = oracle_session(
            &s,
            options(ListStore::On, pipeline, PromptBatch::Keys(10), 8),
        );
        let off1 = run_galois_suite_on(&s, &off, "oracle");
        let off2 = run_galois_suite_on(&s, &off, "oracle");
        let on1 = run_galois_suite_on(&s, &on, "oracle");
        let on2 = run_galois_suite_on(&s, &on, "oracle");

        assert_tables_equal(&off1, &on1, "cold pass vs store-off");
        assert_tables_equal(&off2, &on2, "warm pass vs store-off");
        assert_tables_equal(&off1, &on2, "warm pass vs cold pass");

        // The cold pass already shares universes *across* queries: its
        // prompt bill may only shrink, its cache-hit bill is unchanged
        // (a warm read bills the stored iterations — exactly what the
        // store-off session pays in raw prompt-cache hits to re-list).
        assert_eq!(
            suite_hits(&off1),
            suite_hits(&on1),
            "cold-pass cache hits ({pipeline:?})"
        );
        assert!(
            suite_prompts(&on1) <= suite_prompts(&off1),
            "cold pass must not spend extra prompts ({pipeline:?})"
        );
        // The warm pass never lists and never out-spends the store-off
        // session's cached second pass.
        assert_eq!(
            suite_list_prompts(&on2),
            0,
            "warm pass issued list prompts ({pipeline:?})"
        );
        assert_eq!(
            suite_hits(&off2),
            suite_hits(&on2),
            "warm-pass cache hits ({pipeline:?})"
        );
        assert!(
            suite_prompts(&on2) <= suite_prompts(&off2),
            "warm pass must not spend extra prompts ({pipeline:?})"
        );
    }
}

/// Wraps a model and flags any `ListKeys`/`ListKeysPage` prompt whose
/// concept the shared store already holds as exhausted — the one prompt
/// the store exists to make impossible.
struct ListAuditor {
    inner: SimLlm,
    store: Arc<KeyUniverseStore>,
    violations: AtomicUsize,
}

impl LanguageModel for ListAuditor {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn signature(&self) -> String {
        self.inner.signature()
    }
    fn context_window(&self) -> usize {
        self.inner.context_window()
    }
    fn complete(&self, prompt: &str) -> Completion {
        if let Some(
            TaskIntent::ListKeys {
                relation,
                key_attr,
                condition,
                ..
            }
            | TaskIntent::ListKeysPage {
                relation,
                key_attr,
                condition,
                ..
            },
        ) = parse_task(prompt)
        {
            let concept = concept_signature_for(
                &relation,
                &key_attr,
                &condition.as_ref().map(|c| c.render()).unwrap_or_default(),
            );
            if self
                .store
                .warm_map(&self.inner.signature())
                .contains_key(&concept)
            {
                self.violations.fetch_add(1, Ordering::SeqCst);
            }
        }
        self.inner.complete(prompt)
    }
}

/// A fresh session sharing a fully warmed store must never send a list
/// prompt for an exhausted concept to the model — checked at the model
/// boundary, not from the session's own accounting.
#[test]
fn exhausted_concepts_are_never_relisted() {
    let s = Scenario::generate_with(42, small_config());
    let store = Arc::new(KeyUniverseStore::default());
    let warmer = oracle_session(
        &s,
        options(
            ListStore::Shared(store.clone()),
            Pipeline::Off,
            PromptBatch::Keys(10),
            4,
        ),
    );
    for spec in &s.suite {
        warmer.execute(&spec.to_sql()).unwrap();
    }
    assert!(!store.is_empty(), "the cold pass must populate the store");

    let auditor = Arc::new(ListAuditor {
        inner: SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()),
        store: store.clone(),
        violations: AtomicUsize::new(0),
    });
    let audited = Galois::with_options(
        auditor.clone(),
        s.database.clone(),
        options(
            ListStore::Shared(store.clone()),
            Pipeline::Off,
            PromptBatch::Keys(10),
            4,
        ),
    );
    let control = oracle_session(
        &s,
        options(ListStore::Off, Pipeline::Off, PromptBatch::Keys(10), 4),
    );
    for spec in &s.suite {
        let sql = spec.to_sql();
        let got = audited.execute(&sql).unwrap();
        let want = control.execute(&sql).unwrap();
        assert_eq!(
            sorted_rows(&got.relation),
            sorted_rows(&want.relation),
            "q{} diverged on the warmed store: {sql}",
            spec.id
        );
    }
    assert_eq!(
        auditor.violations.load(Ordering::SeqCst),
        0,
        "a list prompt was issued for an already-exhausted concept"
    );
}

/// A store warmed under one model signature is dead weight for another:
/// the mismatched session must re-list from scratch and be bit-identical
/// to a session that never saw the store.
#[test]
fn signature_change_invalidates_and_matches_fresh_session() {
    let s = Scenario::generate_with(42, small_config());
    let store = Arc::new(KeyUniverseStore::default());
    let oracle_sig = SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()).signature();
    let chatgpt_sig = SimLlm::new(s.knowledge.clone(), ModelProfile::chatgpt()).signature();
    assert_ne!(oracle_sig, chatgpt_sig, "profiles must sign differently");

    let warmer = oracle_session(
        &s,
        options(
            ListStore::Shared(store.clone()),
            Pipeline::Off,
            PromptBatch::Keys(10),
            4,
        ),
    );
    for spec in &s.suite {
        warmer.execute(&spec.to_sql()).unwrap();
    }
    let warmed = store.warm_map(&oracle_sig).len();
    assert!(warmed > 0, "oracle pass must warm the store");

    let session = |store: ListStore| {
        Galois::with_options(
            Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::chatgpt())),
            s.database.clone(),
            options(store, Pipeline::Off, PromptBatch::Keys(10), 4),
        )
    };
    let stale = session(ListStore::Shared(store.clone()));
    let fresh = session(ListStore::On);
    for spec in &s.suite {
        let sql = spec.to_sql();
        let a = stale.execute(&sql).unwrap();
        let b = fresh.execute(&sql).unwrap();
        assert_eq!(a.relation.rows, b.relation.rows, "q{}: {sql}", spec.id);
        assert_stats_eq(&a.stats, &b.stats, &format!("q{} stats: {sql}", spec.id));
    }
    // Invalidate-on-read dropped every stale entry the chatgpt session
    // touched and republished under its own signature.
    assert!(
        store.warm_map(&oracle_sig).len() < warmed,
        "stale oracle universes must be evicted on read"
    );
    assert!(
        !store.warm_map(&chatgpt_sig).is_empty(),
        "the mismatched session must republish under its own signature"
    );
}

/// Partial universes resume append-only: a capped session stores a
/// frontier, a later uncapped query extends it without re-listing or
/// duplicating the stored prefix, and a third query reads the completed
/// universe warm.
#[test]
fn partial_universe_resumes_append_only() {
    let s = Scenario::generate_with(42, small_config());
    let paged = ModelProfile {
        list_page_size: 4,
        ..ModelProfile::oracle()
    };
    let session = |store: ListStore, cap: usize| {
        Galois::with_options(
            Arc::new(SimLlm::new(s.knowledge.clone(), paged.clone())),
            s.database.clone(),
            GaloisOptions {
                max_list_iterations: cap,
                list_store: store,
                ..Default::default()
            },
        )
    };
    let sql = "SELECT name FROM city";
    let full = session(ListStore::Off, 32).execute(sql).unwrap();
    let full_rows: Vec<_> = full.relation.rows.clone();
    assert!(full_rows.len() > 8, "need several pages for this test");
    {
        let mut unique: Vec<Vec<String>> = full_rows
            .iter()
            .map(|r| r.iter().map(Value::render).collect())
            .collect();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), full_rows.len(), "full listing has dupes");
    }

    let store = Arc::new(KeyUniverseStore::default());
    // Two pages of four keys, then the cap: a partial frontier of 8.
    let capped = session(ListStore::Shared(store.clone()), 2)
        .execute(sql)
        .unwrap();
    assert_eq!(
        capped.relation.rows,
        full_rows[..capped.relation.rows.len()],
        "the capped pass must be a prefix of the full listing"
    );
    assert!(
        capped.relation.rows.len() < full_rows.len(),
        "the cap must actually truncate the listing"
    );
    let sig = SimLlm::new(s.knowledge.clone(), paged.clone()).signature();
    assert!(
        store.warm_map(&sig).is_empty(),
        "a partial frontier must stay invisible to warm reads"
    );

    // An uncapped query on the shared store appends past the frontier.
    let resumed = session(ListStore::Shared(store.clone()), 32)
        .execute(sql)
        .unwrap();
    assert_eq!(
        resumed.relation.rows, full_rows,
        "resumed listing must equal the uncapped listing, in order"
    );
    let warm = store.warm_map(&sig);
    assert_eq!(warm.len(), 1, "exactly one exhausted concept expected");
    assert_eq!(
        warm.values().copied().sum::<usize>(),
        full_rows.len(),
        "stored universe must hold every key exactly once"
    );

    // A third query reads the completed universe at zero list cost.
    let warm_read = session(ListStore::Shared(store), 32).execute(sql).unwrap();
    assert_eq!(warm_read.relation.rows, full_rows);
    assert_eq!(warm_read.stats.list_prompts, 0, "warm read must not list");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property form over random worlds, random suite orderings and the
    /// ISSUE's K/B grid: the store never changes `R_M`; the warm pass
    /// lists nothing; pass-for-pass cache-hit totals equal the store-off
    /// session's.
    #[test]
    fn store_is_observationally_pure_for_any_ordering(
        seed in 0u64..10_000,
        perm in 0u64..1_000_000,
        lanes in prop::sample::select(vec![1usize, 2, 8]),
        b in prop::sample::select(vec![1usize, 10]),
        streaming in prop::sample::select(vec![false, true]),
    ) {
        let s = Scenario::generate_with(seed, small_config());
        let pipeline = if streaming { Pipeline::Streaming } else { Pipeline::Off };
        let order: Vec<usize> = permutation(s.suite.len(), perm)
            .into_iter()
            .take(10)
            .collect();
        let off = oracle_session(&s, options(ListStore::Off, pipeline, PromptBatch::Keys(b), lanes));
        let on = oracle_session(&s, options(ListStore::On, pipeline, PromptBatch::Keys(b), lanes));
        for pass in 0..2 {
            let mut off_hits = 0usize;
            let mut on_hits = 0usize;
            for &qi in &order {
                let spec = &s.suite[qi];
                let sql = spec.to_sql();
                let a = off.execute(&sql)
                    .map_err(|e| TestCaseError::fail(format!("q{}: {e}", spec.id)))?;
                let c = on.execute(&sql)
                    .map_err(|e| TestCaseError::fail(format!("q{}: {e}", spec.id)))?;
                prop_assert_eq!(
                    sorted_rows(&a.relation), sorted_rows(&c.relation),
                    "q{} R_M diverged (pass {}, B={}, K={}, {:?})",
                    spec.id, pass, b, lanes, pipeline
                );
                off_hits += a.stats.cache_hits;
                on_hits += c.stats.cache_hits;
                prop_assert!(
                    c.stats.total_prompts() <= a.stats.total_prompts(),
                    "q{} store-on out-spent store-off (pass {}, B={}, K={}, {:?})",
                    spec.id, pass, b, lanes, pipeline
                );
                if pass == 1 {
                    prop_assert_eq!(
                        c.stats.list_prompts, 0,
                        "q{} warm pass listed (B={}, K={}, {:?})",
                        spec.id, b, lanes, pipeline
                    );
                }
            }
            prop_assert_eq!(
                off_hits, on_hits,
                "cache-hit totals diverged (pass {}, B={}, K={}, {:?})",
                pass, b, lanes, pipeline
            );
        }
    }
}
