//! The key-universe store (PR 6): cells of the contract battery
//! (`tests/common/contract.rs`), and the store's own rules.
//!
//! 1. **The default** — `ListStore::Off` stays the default, whose
//!    readings are pinned.
//! 2. **Warm-pass equivalence** — a store-enabled session's cold and warm
//!    passes read the store-off session's rows (so Table 1 and Table 2
//!    with them) and cache hits, never spend more prompts, and the warm
//!    pass lists nothing.
//! 3. **Exhausted concepts are never re-listed** — an auditing model
//!    wrapper checks, at prompt time, that no `ListKeys`/`ListKeysPage`
//!    prompt names a concept the shared store holds as exhausted.
//! 4. **Invalidation** — a store warmed under one model signature is
//!    invisible to another: the second session re-lists from scratch and
//!    reads what a fresh session reads.
//! 5. **Partial frontiers** — a capped listing stores a partial universe;
//!    a later query appends past the frontier (append-only, no duplicate
//!    keys) and the final universe equals the uncapped listing.

mod common;

use common::contract::{drawn, knob_is_invariant, paged, Cell, Cmp, Contract, Knob, Model};
use common::{key_batch, options, pass, small_config, sorted_rows};
use galois::core::{concept_signature_for, Galois, GaloisOptions, ListStore, Pipeline};
use galois::dataset::Scenario;
use galois::llm::intent::{parse_task, TaskIntent};
use galois::llm::{Completion, KeyUniverseStore, LanguageModel, ModelProfile, SimLlm};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn keys10(store: ListStore, pipeline: Pipeline, lanes: usize) -> GaloisOptions {
    options(store, pipeline, key_batch(10), lanes)
}

/// The default session's readings are pinned by `tests/wave_golden.rs`.
#[test]
fn store_off_is_bit_identical_to_default() {
    let off = GaloisOptions::default().list_store;
    assert_eq!(off, ListStore::Off, "Off must stay the default");
}

#[test]
fn warm_pass_matches_cold_pass_tables_and_hits() {
    let s = Scenario::generate_with(42, small_config());
    let never_dearer = Contract {
        bill: Some(Cmp::Le),
        hits: true,
        ..Contract::R_M
    };
    for pipeline in [Pipeline::Off, Pipeline::Streaming] {
        let off = Cell::new(&s, keys10(ListStore::Off, pipeline, 8)).passes(2);
        let on = never_dearer.check(&off, &[off.with(keys10(ListStore::On, pipeline, 8))]);
        let (cold, warm) = (&on[0][..1], &on[0][1..]);
        Contract::R_M.compare(cold, warm, "warm pass against cold pass");
        for reading in &warm[0].0 {
            assert_eq!(
                reading.stats.list_prompts, 0,
                "warm pass listed: {}",
                reading.sql
            );
        }
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
            let condition = condition.as_ref().map(|c| c.render()).unwrap_or_default();
            let concept = concept_signature_for(&relation, &key_attr, &condition);
            let warm = self.store.warm_map(&self.inner.signature());
            if warm.contains_key(&concept) {
                self.violations.fetch_add(1, Ordering::SeqCst);
            }
        }
        self.inner.complete(prompt)
    }
}

/// The suite on a fresh oracle session sharing `store`.
fn warm(s: &Scenario, store: &Arc<KeyUniverseStore>) {
    Cell::new(
        s,
        keys10(ListStore::Shared(store.clone()), Pipeline::Off, 4),
    )
    .read();
}

/// A fresh session sharing a fully warmed store must never send a list
/// prompt for an exhausted concept to the model — checked at the model
/// boundary, not from the session's own accounting.
#[test]
fn exhausted_concepts_are_never_relisted() {
    let s = Scenario::generate_with(42, small_config());
    let store = Arc::new(KeyUniverseStore::default());
    warm(&s, &store);
    assert!(!store.is_empty(), "the cold pass must populate the store");

    let auditor = Arc::new(ListAuditor {
        inner: SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()),
        store: store.clone(),
        violations: AtomicUsize::new(0),
    });
    let shared = keys10(ListStore::Shared(store.clone()), Pipeline::Off, 4);
    let audited = Galois::with_options(auditor.clone(), s.database.clone(), shared);
    let control = Cell::new(&s, keys10(ListStore::Off, Pipeline::Off, 4));
    let got = [pass(&audited, &control.order)];
    Contract::R_M.compare(&control.read(), &got, "on the warmed store");
    let violations = auditor.violations.load(Ordering::SeqCst);
    assert_eq!(violations, 0, "a list prompt named an exhausted concept");
}

/// A store warmed under one model signature is dead weight for another:
/// the mismatched session must re-list from scratch and read exactly
/// what a session that never saw the store reads.
#[test]
fn signature_change_invalidates_and_matches_fresh_session() {
    let s = Scenario::generate_with(42, small_config());
    let store = Arc::new(KeyUniverseStore::default());
    let oracle_sig = SimLlm::new(s.knowledge.clone(), ModelProfile::oracle()).signature();
    let chatgpt_sig = SimLlm::new(s.knowledge.clone(), ModelProfile::chatgpt()).signature();
    assert_ne!(oracle_sig, chatgpt_sig, "profiles must sign differently");
    warm(&s, &store);
    let warmed = store.warm_map(&oracle_sig).len();
    assert!(warmed > 0, "oracle pass must warm the store");

    let fresh = Cell::new(&s, keys10(ListStore::On, Pipeline::Off, 4));
    let fresh = fresh.model(Model::Profile(ModelProfile::chatgpt()));
    let stale = fresh.with(keys10(ListStore::Shared(store.clone()), Pipeline::Off, 4));
    Contract::BIT_EXACT.check(&fresh, &[stale]);
    // Invalidate-on-read dropped every stale entry the chatgpt session
    // touched and republished under its own signature.
    let left = store.warm_map(&oracle_sig).len();
    assert!(
        left < warmed,
        "stale oracle universes must be evicted on read"
    );
    let republished = store.warm_map(&chatgpt_sig);
    assert!(
        !republished.is_empty(),
        "the mismatched session must republish"
    );
}

/// Partial universes resume append-only: a capped session stores a
/// frontier, a later uncapped query extends it without re-listing or
/// duplicating the stored prefix, and a third query reads the completed
/// universe warm.
#[test]
fn partial_universe_resumes_append_only() {
    let s = Scenario::generate_with(42, small_config());
    let session = |list_store: ListStore, max_list_iterations: usize| {
        let options = GaloisOptions {
            max_list_iterations,
            list_store,
            ..Default::default()
        };
        Cell::new(&s, options)
            .model(Model::Profile(paged(4)))
            .session()
    };
    let sql = "SELECT name FROM city";
    let full = session(ListStore::Off, 32).execute(sql).unwrap().relation;
    let mut unique = sorted_rows(&full);
    unique.dedup();
    assert_eq!(unique.len(), full.rows.len(), "full listing has dupes");
    let full = full.rows;
    assert!(full.len() > 8, "need several pages for this test");
    let run = |session: Galois| session.execute(sql).unwrap().relation.rows;

    let store = Arc::new(KeyUniverseStore::default());
    // Two pages of four keys, then the cap: a partial frontier of 8.
    let capped = run(session(ListStore::Shared(store.clone()), 2));
    assert!(
        capped.len() < full.len(),
        "the cap must truncate the listing"
    );
    assert_eq!(capped, full[..capped.len()], "the capped pass is a prefix");
    let sig = SimLlm::new(s.knowledge.clone(), paged(4)).signature();
    assert!(
        store.warm_map(&sig).is_empty(),
        "a partial frontier stays cold"
    );

    // An uncapped query on the shared store appends past the frontier.
    let resumed = run(session(ListStore::Shared(store.clone()), 32));
    assert_eq!(
        resumed, full,
        "resumed listing must equal the uncapped one, in order"
    );
    let warm = store.warm_map(&sig);
    assert_eq!(warm.len(), 1, "exactly one exhausted concept expected");
    let stored: usize = warm.values().copied().sum();
    assert_eq!(
        stored,
        full.len(),
        "the universe holds every key exactly once"
    );

    // A third query reads the completed universe at zero list cost.
    let warm_read = session(ListStore::Shared(store), 32).execute(sql).unwrap();
    assert_eq!(warm_read.relation.rows, full);
    assert_eq!(warm_read.stats.list_prompts, 0, "warm read must not list");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn store_is_observationally_pure_for_any_ordering(draw in drawn(true)) {
        knob_is_invariant(Knob::Store, &draw);
    }
}
