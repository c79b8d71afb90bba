//! How a list page ends the key stream, under both list protocols and
//! both drivers.
//!
//! The exclusion chain (store off, or a stored partial frontier being
//! resumed) and the offset ramp (store on, cold concept) share the rules:
//! fault text ends the stream resumably and counts one failed cell; "No
//! more results" or a page with no new key ends it exhausted; on the ramp
//! only, a short page ends it exhausted too. Each case lists
//! `Alpha, Beta, Gamma` as its first page and ends the page after it by
//! one rule.

use galois_core::{
    concept_signature_for, Galois, GaloisOptions, ListStore, Parallelism, Pipeline, QueryStats,
};
use galois_dataset::Scenario;
use galois_llm::faults::is_fault_text;
use galois_llm::intent::{parse_task, TaskIntent};
use galois_llm::{Completion, KeyUniverse, KeyUniverseStore, LanguageModel, Usage};
use std::sync::Arc;

const FAULT: &str = "\u{26a1}fault:transient";
const NO_MORE: &str = "No more results";
/// Nothing new, in other cases, and as long as the first page — so on
/// the ramp it is not also a short page.
const NOTHING_NEW: &str = "alpha, Beta, GAMMA";
/// One new key: shorter than the first page.
const SHORT: &str = "Delta";
const SQL: &str = "SELECT name FROM city";

/// Lists `Alpha, Beta, Gamma` first. The exclusion chain's page after
/// those three keys answers `chain`, the ramp's page at offset 3 answers
/// `ramp`, and a chain page after four keys answers "No more results".
#[derive(Debug)]
struct PagedLister {
    chain: &'static str,
    ramp: &'static str,
}

impl LanguageModel for PagedLister {
    fn name(&self) -> &str {
        "paged-lister"
    }

    fn context_window(&self) -> usize {
        4096
    }

    fn complete(&self, prompt: &str) -> Completion {
        let text = match parse_task(prompt) {
            Some(TaskIntent::ListKeys { exclude, .. }) => match exclude.len() {
                0 => "Alpha, Beta, Gamma",
                3 => self.chain,
                _ => NO_MORE,
            },
            Some(TaskIntent::ListKeysPage { offset: 3, .. }) => self.ramp,
            other => panic!("only the scripted list pages expected, got {other:?}"),
        };
        Completion {
            text: text.to_string(),
            usage: Usage::default(),
            latency_ms: 1,
        }
    }
}

/// What one statement read: its relation's keys, its accounting, and the
/// universe the store holds after it (`None` with the store off).
struct Read {
    keys: Vec<String>,
    stats: QueryStats,
    stored: Option<KeyUniverse>,
}

/// A session over `model` on one lane, with the store shared as `store`
/// (off when `None`): each call runs the statement on it once.
fn session(
    model: PagedLister,
    pipeline: Pipeline,
    store: Option<&Arc<KeyUniverseStore>>,
) -> impl Fn() -> Read + '_ {
    let scenario = Scenario::generate(42);
    let model = Arc::new(model);
    let sig = model.signature();
    let list_store = store.map_or(ListStore::Off, |s| ListStore::Shared(Arc::clone(s)));
    let session = Galois::with_options(
        model,
        scenario.database,
        GaloisOptions {
            pipeline,
            parallelism: Parallelism::new(1),
            list_store,
            ..Default::default()
        },
    );
    move || {
        let result = session.execute(SQL).unwrap();
        Read {
            keys: (result.relation.rows.iter())
                .map(|row| row[0].to_string())
                .collect(),
            stats: result.stats,
            stored: store.and_then(|s| s.read(&concept_signature_for("city", "name", ""), &sig)),
        }
    }
}

fn keys(n: usize) -> Vec<String> {
    ["Alpha", "Beta", "Gamma", "Delta"][..n]
        .iter()
        .map(|k| k.to_string())
        .collect()
}

/// Checks one statement's reading: the keys it returned (the first `n`
/// of `Alpha, Beta, Gamma, Delta`), its list prompts and failed cells,
/// and — where a store is attached — the universe's iterations and its
/// `exhausted` flag.
#[track_caller]
fn check(
    label: &str,
    got: &Read,
    n: usize,
    list: usize,
    failed: usize,
    stored: Option<(usize, bool)>,
) {
    assert_eq!(got.keys, keys(n), "{label}: keys");
    assert_eq!(got.stats.list_prompts, list, "{label}: list prompts");
    assert_eq!(got.stats.failed_cells, failed, "{label}: failed cells");
    let universe = got.stored.as_ref().map(|u| (u.iterations, u.exhausted));
    assert_eq!(universe, stored, "{label}: stored (iterations, exhausted)");
    if let Some(u) = &got.stored {
        assert_eq!(u.keys.to_vec(), got.keys, "{label}: stored keys");
    }
}

#[test]
fn the_scripted_fault_is_fault_text() {
    assert!(is_fault_text(FAULT));
    assert!(!is_fault_text(NOTHING_NEW) && !is_fault_text(SHORT));
}

/// Store off: the page after the first ends the chain by each rule but
/// the short page, which is no rule here — the chain asks once more.
#[test]
fn the_exclusion_chain_ends_on_fault_text_exhaustion_and_no_new_key() {
    for pipeline in [Pipeline::Off, Pipeline::Streaming] {
        for (rule, chain, n, list, failed) in [
            ("fault text", FAULT, 3, 2, 1),
            ("no more results", NO_MORE, 3, 2, 0),
            ("nothing new", NOTHING_NEW, 3, 2, 0),
            ("short page", SHORT, 4, 3, 0),
        ] {
            let model = PagedLister { chain, ramp: "" };
            let read = session(model, pipeline, None)();
            check(
                &format!("{pipeline:?}, {rule}"),
                &read,
                n,
                list,
                failed,
                None,
            );
        }
    }
}

/// A stored partial frontier resumes on the exclusion chain, and what the
/// chain's next page is decides the universe it publishes: fault text
/// leaves it a frontier, no new key makes it exhausted. ("No more
/// results" after a resumed frontier is `stored_universe.rs`'s
/// `a_partial_frontier_resumes_paging_and_dedupes_against_stored_keys`.)
#[test]
fn a_resumed_chain_publishes_how_its_page_ended() {
    for pipeline in [Pipeline::Off, Pipeline::Streaming] {
        for (rule, chain, n, list, failed, iterations, exhausted) in [
            // Nothing new to publish: the store keeps its frontier.
            ("fault text", FAULT, 3, 1, 1, 1, false),
            ("nothing new", NOTHING_NEW, 3, 1, 0, 2, true),
            ("short page", SHORT, 4, 2, 0, 3, true),
        ] {
            let store = Arc::new(KeyUniverseStore::new());
            let model = PagedLister { chain, ramp: "" };
            store.publish(
                &concept_signature_for("city", "name", ""),
                &model.signature(),
                KeyUniverse {
                    keys: keys(3).into(),
                    iterations: 1,
                    exhausted: false,
                },
            );
            let read = session(model, pipeline, Some(&store))();
            let label = format!("{pipeline:?}, {rule}");
            check(
                &label,
                &read,
                n,
                list,
                failed,
                Some((iterations, exhausted)),
            );
            assert_eq!(read.stats.cache_hits, 1, "{label}: the stored iteration");
        }
    }
}

/// Store on, cold concept: page 1's three keys set the offset stride, and
/// the page at offset 3 ends the ramp by each rule — a short page
/// included. A faulted ramp publishes a frontier, which the next
/// statement resumes on the exclusion chain and lists to exhaustion; an
/// exhausted one serves the next statement warm.
#[test]
fn the_offset_ramp_ends_on_every_rule_and_a_faulted_frontier_resumes() {
    for pipeline in [Pipeline::Off, Pipeline::Streaming] {
        for (rule, ramp, n, failed, exhausted) in [
            ("fault text", FAULT, 3, 1, false),
            ("no more results", NO_MORE, 3, 0, true),
            ("nothing new", NOTHING_NEW, 3, 0, true),
            ("short page", SHORT, 4, 0, true),
        ] {
            let store = Arc::new(KeyUniverseStore::new());
            // A resumed frontier's chain page lists Delta, then no more.
            let model = PagedLister { chain: SHORT, ramp };
            let read = session(model, pipeline, Some(&store));
            let label = format!("{pipeline:?}, {rule}");
            check(&label, &read(), n, 2, failed, Some((2, exhausted)));
            let next = read();
            if exhausted {
                check(&format!("{label}, warm"), &next, n, 0, 0, Some((2, true)));
            } else {
                check(
                    &format!("{label}, resumed"),
                    &next,
                    4,
                    2,
                    0,
                    Some((4, true)),
                );
            }
            assert_eq!(next.stats.cache_hits, 2, "{label}: the stored iterations");
        }
    }
}
