//! Typed cells: what the session has already read out of the sub-entry
//! store, kept typed.
//!
//! A step served from a terminal stored universe addresses its keys by
//! fixed slots, so each `(universe, sub-entry column)` pair gets a
//! slot-aligned array of set-once cells. The first time the store answers
//! a `(column, slot)` lookup with a hit, the parsed and cleaned payload is
//! written to `cells[slot]`; later reads index the array instead of
//! locking, hashing, probing, parsing and cleaning the same stored text.
//!
//! A cell holds only what the store said (first stored write wins, so a
//! stored answer never changes within a store generation), and three
//! things retire it: the client's cache being cleared (the generation),
//! the universe being replaced in the key-universe store (the entry holds
//! the `Arc` its slots index, so that address cannot be reused while the
//! entry lives), and the session being dropped.

use super::protocol::Landed;
use parking_lot::Mutex;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, OnceLock};

/// One column's cells over one universe, by key slot. Set-once, so reads
/// and the racing writes of two threads serving the same statement (equal
/// values, both read from the store) take no lock.
pub(super) type Cells = Arc<[OnceLock<Landed>]>;

/// The columns read over one stored universe.
pub(super) struct Universe {
    keys: Arc<[String]>,
    /// By [`galois_llm::SubColumn::id`]: `None` at a column's first warm
    /// read, its cells from the second — a session that never comes back
    /// to a column allocates nothing for it.
    columns: HashMap<usize, Option<Cells>>,
}

impl Universe {
    /// Records one warm read of `column` and hands out its cells once it
    /// has been read before.
    pub(super) fn admit(&mut self, column: usize) -> Option<Cells> {
        match self.columns.entry(column) {
            Entry::Vacant(first) => {
                first.insert(None);
                None
            }
            Entry::Occupied(again) => {
                Some(Arc::clone(again.into_mut().get_or_insert_with(|| {
                    self.keys.iter().map(|_| OnceLock::new()).collect()
                })))
            }
        }
    }
}

/// Every typed cell of one session.
#[derive(Default)]
pub(super) struct TypedCells {
    /// The client's sub-entry generation the cells were read under, and
    /// the universes by concept signature.
    universes: Mutex<(usize, HashMap<String, Universe>)>,
    /// Cell reads served from an array; each statement adds its own when
    /// it ends.
    pub(crate) hits: AtomicUsize,
}

impl TypedCells {
    /// Runs `f` on the cells aligned to `keys`, the terminal universe the
    /// store serves for `concept`, under the map's lock — once per step
    /// per statement. Cells read under another generation, or aligned to
    /// another list, are dropped first.
    pub(super) fn with_universe<R>(
        &self,
        generation: usize,
        concept: &str,
        keys: &Arc<[String]>,
        f: impl FnOnce(&mut Universe) -> R,
    ) -> R {
        let mut guard = self.universes.lock();
        let (held, universes) = &mut *guard;
        if *held != generation {
            universes.clear();
            *held = generation;
        }
        if !universes
            .get(concept)
            .is_some_and(|u| Arc::ptr_eq(&u.keys, keys))
        {
            let fresh = Universe {
                keys: Arc::clone(keys),
                columns: HashMap::new(),
            };
            universes.insert(concept.to_string(), fresh);
        }
        f(universes.get_mut(concept).expect("just ensured"))
    }

    /// How many cells are allocated, over every universe and column.
    #[cfg(test)]
    pub(crate) fn allocated(&self) -> usize {
        let guard = self.universes.lock();
        let columns = guard.1.values().flat_map(|u| u.columns.values());
        columns.flatten().map(|cells| cells.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Galois, GaloisOptions, ListStore, Pipeline, PromptBatch};
    use crate::plan_choice::Planner;
    use galois_dataset::Scenario;
    use galois_llm::{ModelProfile, Parallelism, SimLlm};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// Cells belong to `(universe, column)`, not to a statement: a fetch-set
    /// no statement has used, over columns two earlier statements fetched
    /// one each, reads every cell from the arrays — and a column costs
    /// nothing until its second warm read.
    #[test]
    fn a_new_statement_over_warm_columns_is_served_from_cells() {
        let s = Scenario::generate(42);
        let session = Galois::with_options(
            Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle())),
            s.database.clone(),
            GaloisOptions {
                list_store: ListStore::On,
                prompt_batch: PromptBatch::Grid { keys: 10, attrs: 6 },
                pipeline: Pipeline::Streaming,
                planner: Planner::CostBased,
                parallelism: Parallelism::new(8),
                ..Default::default()
            },
        );
        let pass = || {
            for sql in [
                "SELECT name, population FROM city",
                "SELECT name, country FROM city",
            ] {
                session.execute(sql).unwrap();
            }
        };
        let cities = s.world.cities.len();
        // Pass 1 lists (the second statement is `country`'s first warm
        // read), pass 2 is `population`'s first and `country`'s second.
        pass();
        assert_eq!(session.typed.allocated(), 0);
        pass();
        assert_eq!(session.typed.allocated(), cities);
        pass();
        assert_eq!(session.typed.allocated(), 2 * cities);
        pass();
        let hits = session.typed.hits.load(Ordering::Relaxed);

        let new = session
            .execute("SELECT name, country, population FROM city")
            .unwrap();
        assert_eq!(new.relation.len(), cities);
        assert_eq!(new.stats.total_prompts(), 0);
        assert_eq!(
            session.typed.hits.load(Ordering::Relaxed) - hits,
            2 * cities,
            "every fetched cell is read from its array"
        );
        assert_eq!(session.typed.allocated(), 2 * cities, "and allocates none");
    }
}
