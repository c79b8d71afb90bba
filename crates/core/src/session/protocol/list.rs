//! A step's key stream: list entry (warm, partial or cold), the exclusion
//! chain, the speculative offset ramp, page ingest, key admission and the
//! publish of the listed universe to the key-universe store.

use super::{Fire, FireTarget, KeySlot, LimitWindow, Protocol};
use crate::clean::normalised;
use crate::parse::{parse_list_answer, ListAnswer};
use crate::session::typed::Publish;
use galois_llm::faults::is_fault_text;
use galois_llm::KeyUniverse;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Speculative list-paging state of one cold-concept step (store on):
/// page 1 is the classic first list prompt — identical string, so it
/// shares the prompt cache with store-off runs. Its raw value count is
/// the page-size estimate `P`; subsequent pages are requested as
/// [`galois_llm::intent::TaskIntent::ListKeysPage`] at offsets `P, 2P, …`
/// in waves whose width doubles up to the lane count — the probe wave is
/// one page wide (the estimate may be the whole universe), later waves
/// fan out. The next wave fires only when the current one has fully
/// landed, so both drivers count iterations identically. Pages are
/// applied in offset order; the first page that ends the key stream
/// ([`Protocol::ingest_page`]) ends the universe (pages already fired
/// past it are counted waste — speculation buys latency with at most a
/// ramp-width of extra prompts, never accuracy). Hitting the iteration
/// cap leaves a partial frontier.
#[derive(Debug, Default)]
pub(super) struct SpecState {
    /// Raw value count of page 1 — the offset stride.
    page_est: usize,
    /// First offset of the next wave.
    next_offset: usize,
    /// Pages in the next wave (1, then doubling up to the lane count).
    width: usize,
    /// Pages of the current wave still in flight.
    inflight: usize,
    /// Landed pages of the current wave, keyed by offset so they apply
    /// in universe order regardless of completion order.
    buffered: BTreeMap<usize, String>,
}

/// How one list page left the key stream.
#[derive(Debug)]
enum PageEnd {
    /// New keys entered and more may follow; `raw` values were listed.
    Open { raw: usize },
    /// Fault text: the stream ends *resumably* — it stays unexhausted, so
    /// the published universe is a partial frontier a later query
    /// resumes, never a poisoned "complete" listing.
    Faulted,
    /// "No more results", a page with no new key or, on the offset ramp,
    /// a short page: the stream ends exhausted.
    Exhausted,
}

impl Protocol<'_> {
    /// Starts one step's key stream: classic list paging when the store
    /// is off; otherwise a warm universe is injected at zero prompt cost
    /// (its stored iterations billed as cache hits — the bill a
    /// re-listing run would have paid in prompt-cache hits), a partial
    /// frontier is injected and classic paging resumes after it, and a
    /// cold concept lists speculatively ([`SpecState`]).
    ///
    /// A warm step with no filter stage and no `LIMIT` window whose
    /// fetched columns the universe's relation holds
    /// ([`crate::session::typed`]) injects nothing: it is handed the
    /// relation and billed the hits the dataflow would have counted — one
    /// per key and fetched column, to the step and to the client — and,
    /// like it, fires no prompt.
    pub(in crate::session) fn start_step(&mut self, s: usize, fires: &mut Vec<Fire>) {
        let cap = self.session.options.max_list_iterations;
        if cap == 0 {
            // Nothing may be listed: skip the store entirely (no warm
            // service, no empty publish).
            self.finish_list(s, fires);
            return;
        }
        let looked_up = self.session.list_store.as_ref().map(|store| {
            let concept = self.steps[s].step.concept_signature();
            let entry = store.read(&concept, &self.session.model_sig);
            (concept, entry)
        });
        let Some((concept, entry)) = looked_up else {
            self.fire_list(s, fires);
            return;
        };
        match entry {
            Some(stored) if stored.exhausted || stored.iterations >= cap => {
                let run = &mut self.steps[s];
                run.acc.cache_hits += stored.iterations;
                if run.plan.servable {
                    // Every key, in slot order, and nothing but fetched
                    // cells: the step's table is the universe's relation.
                    let generation = self.session.client.sub_generation();
                    let fetch = &run.step.fetch;
                    let typed = &self.session.typed;
                    run.served = typed.serve(generation, &concept, &stored.keys, fetch);
                    if run.served.is_some() {
                        let cells = stored.keys.len() * fetch.len();
                        run.acc.cache_hits += cells;
                        self.session.client.bill_sub_hits(cells);
                        return;
                    }
                    run.publish = Some(Publish {
                        generation,
                        concept,
                        keys: Arc::clone(&stored.keys),
                    });
                }
                let keys = 0..stored.keys.len();
                run.stored = Some(stored.keys);
                run.iterations = stored.iterations;
                run.list_exhausted = stored.exhausted;
                self.enter_keys(s, keys, fires);
                // Warm service re-publishes nothing: `concept` stays
                // `None`, so `finish_list` skips the store.
                self.finish_list(s, fires);
            }
            Some(stored) => {
                self.steps[s].acc.cache_hits += stored.iterations;
                self.enter_page(s, &stored.keys, fires);
                self.steps[s].iterations = stored.iterations;
                self.steps[s].concept = Some(concept);
                self.list_on(s, fires);
            }
            None => {
                self.steps[s].concept = Some(concept);
                let spec = SpecState {
                    width: 1,
                    ..SpecState::default()
                };
                self.steps[s].spec = Some(spec);
                self.fire_list(s, fires);
            }
        }
    }

    fn fire_list(&mut self, s: usize, fires: &mut Vec<Fire>) {
        self.steps[s].iterations += 1;
        fires.push(Fire {
            step: s,
            target: FireTarget::List,
        });
    }

    /// Fires the next speculative page wave: offsets stride by the page
    /// estimate, the width ramps 1 → 2 → … up to the lane count (clamped
    /// by the remaining iteration budget).
    fn fire_spec_wave(&mut self, s: usize, fires: &mut Vec<Fire>) {
        let cap = self.session.options.max_list_iterations;
        let lanes = self.session.options.parallelism.get();
        let run = &mut self.steps[s];
        // Only `list_on` calls this, on a `spec` step.
        let Some(spec) = run.spec.as_mut() else {
            unreachable!("spec wave outside spec mode");
        };
        let width_now = spec.width.min(cap.saturating_sub(run.iterations)).max(1);
        for i in 0..width_now {
            fires.push(Fire {
                step: s,
                target: FireTarget::ListPage {
                    offset: spec.next_offset + i * spec.page_est,
                },
            });
        }
        spec.inflight += width_now;
        spec.next_offset += width_now * spec.page_est;
        spec.width = (spec.width * 2).min(lanes.max(1));
        run.iterations += width_now;
    }

    /// Applies one list iteration's answer ([`Protocol::ingest_page`]);
    /// on a cold concept page 1's raw value count is the offset ramp's
    /// page-size estimate. The paper iterates "until we stop getting new
    /// results".
    pub(super) fn process_list(&mut self, s: usize, text: &str, fires: &mut Vec<Fire>) {
        let PageEnd::Open { raw } = self.ingest_page(s, text, None, fires) else {
            return self.finish_list(s, fires);
        };
        if let Some(spec) = self.steps[s].spec.as_mut() {
            spec.page_est = raw;
            spec.next_offset = raw;
        }
        self.list_on(s, fires);
    }

    /// Buffers one landed offset page. Wave barrier: the wave's pages
    /// apply, in offset order, only once all of them have landed; the
    /// first that ends the key stream finishes it (pages fired past it
    /// are waste — already billed as iterations).
    pub(super) fn process_page(
        &mut self,
        s: usize,
        offset: usize,
        text: &str,
        fires: &mut Vec<Fire>,
    ) {
        // A page was fired by `fire_spec_wave`, so `spec` is set.
        let Some(spec) = self.steps[s].spec.as_mut() else {
            unreachable!("page completion outside spec mode");
        };
        spec.inflight -= 1;
        spec.buffered.insert(offset, text.to_string());
        if spec.inflight > 0 {
            return;
        }
        let page_est = spec.page_est;
        for page in std::mem::take(&mut spec.buffered).into_values() {
            let PageEnd::Open { .. } = self.ingest_page(s, &page, Some(page_est), fires) else {
                return self.finish_list(s, fires);
            };
        }
        self.list_on(s, fires);
    }

    /// The key stream is still open: it finishes once the iteration cap
    /// is spent (a partial frontier) or a `LIMIT` window is covered by
    /// confirmed survivors (no further page can change the result);
    /// otherwise the next offset wave fires on a cold concept, the next
    /// exclusion-list iteration on any other.
    fn list_on(&mut self, s: usize, fires: &mut Vec<Fire>) {
        let run = &self.steps[s];
        let covered = self.window.as_ref().is_some_and(LimitWindow::covered);
        if run.iterations >= self.session.options.max_list_iterations || covered {
            self.finish_list(s, fires);
        } else if run.spec.is_some() {
            self.fire_spec_wave(s, fires);
        } else {
            self.fire_list(s, fires);
        }
    }

    /// Folds one list page into the step's key stream and says how it
    /// left it: fault text counts one failed cell and ends it resumably;
    /// "No more results", a page with no new key or — on the offset ramp,
    /// whose pages hold `page_est` values — a short page end it
    /// exhausted. The page's new keys enter the run either way.
    fn ingest_page(
        &mut self,
        s: usize,
        text: &str,
        page_est: Option<usize>,
        fires: &mut Vec<Fire>,
    ) -> PageEnd {
        if is_fault_text(text) {
            self.steps[s].acc.failed_cells += 1;
            return PageEnd::Faulted;
        }
        if let ListAnswer::Values(values) = parse_list_answer(text) {
            let raw = values.len();
            if self.enter_page(s, &values, fires) > 0 && page_est.is_none_or(|est| raw >= est) {
                return PageEnd::Open { raw };
            }
        }
        self.steps[s].list_exhausted = true;
        PageEnd::Exhausted
    }

    /// Folds one page of raw key surfaces into the step's listed keys —
    /// cleaned, case-folded dedup, only a new key copied — and lets the
    /// new ones enter the run, returning how many there were.
    fn enter_page(&mut self, s: usize, values: &[impl AsRef<str>], fires: &mut Vec<Fire>) -> usize {
        let run = &mut self.steps[s];
        let fresh = Arc::make_mut(&mut run.exclude);
        let first_new = fresh.len();
        fresh.reserve(values.len());
        run.seen.reserve(values.len());
        for v in values {
            let cleaned = normalised(v.as_ref());
            if !cleaned.is_empty() && run.seen.insert(fresh, &cleaned) {
                fresh.push(cleaned.into_owned());
            }
        }
        let new = first_new..fresh.len();
        self.enter_keys(s, new.clone(), fires);
        new.len()
    }

    /// Keys `new` of the run's key list enter the run: each gets its slot
    /// and — under the multi-key protocol — its sub-entry hash, then is
    /// routed into the dataflow, unless a covered `LIMIT` window already
    /// rules it out.
    fn enter_keys(&mut self, s: usize, new: Range<usize>, fires: &mut Vec<Fire>) {
        let run = &mut self.steps[s];
        debug_assert_eq!(run.slots.len(), new.start, "keys enter in slot order");
        run.slots.extend(new.clone().map(|_| KeySlot::default()));
        if self.batched {
            let client = &self.session.client;
            let keys = run.stored.as_deref().unwrap_or(&run.exclude);
            run.sub_keys
                .extend(keys[new.clone()].iter().map(|key| client.sub_key(key)));
        }
        for slot in new {
            if self.window.as_ref().is_some_and(|w| w.covers(slot)) {
                // The window is already covered by earlier confirmed
                // survivors, so this key can never surface — prune it
                // before any filter or fetch prompt is issued.
                self.steps[s].slots[slot].dropped = true;
            } else {
                self.route(s, None, slot, fires);
            }
        }
    }

    /// The step's key stream is finished: no further list page can deliver
    /// keys, so the universe publishes to the key-universe store (when one
    /// is attached and the universe wasn't served warm), and drain
    /// propagation begins at the stages after the list.
    fn finish_list(&mut self, s: usize, fires: &mut Vec<Fire>) {
        if let Some(concept) = self.steps[s].concept.take() {
            if let Some(store) = &self.session.list_store {
                // No page follows: the listed keys move, uncopied, into
                // the list the store keeps, and the run reads them there.
                let run = &mut self.steps[s];
                let keys: Arc<[String]> = std::mem::take(Arc::make_mut(&mut run.exclude)).into();
                run.stored = Some(Arc::clone(&keys));
                store.publish(
                    &concept,
                    &self.session.model_sig,
                    KeyUniverse {
                        keys,
                        iterations: run.iterations,
                        exhausted: run.list_exhausted,
                    },
                );
            }
        }
        self.drain_after(s, None, fires);
    }
}
