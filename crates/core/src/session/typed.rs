//! Universe relations: what the session has already read out of the
//! sub-entry store, kept typed — as the whole table a warm step built
//! from it.
//!
//! A step served from a terminal stored universe addresses its keys by
//! fixed slots, and the table it materialises from the store's answers is
//! the same every time, so the universe keeps it — its **relation** — with
//! the columns filled in it. A later step with no filter stage and no
//! `LIMIT` window that fetches only filled columns is handed the
//! `Arc<Table>` and runs no dataflow ([`Universes::serve`]); any other runs
//! as ever, reading the sub-entry store cell by cell, and, if every cell
//! of it was a store hit, publishes its table ([`Universes::publish`]).
//! ARCHITECTURE.md, "Universe relations", has the whole account.
//!
//! A relation holds only what the store said (first stored write wins, so
//! a stored answer never changes within a store generation), and three
//! things retire it: the client's cache being cleared (the generation),
//! the universe being replaced in the key-universe store (the entry holds
//! the `Arc` its rows follow, so that address cannot be reused while the
//! entry lives), and the session being dropped. A statement holds the
//! `Arc<Table>` it was served while it runs, so a retirement never pulls a
//! table from under a plan.
//!
//! One full-width table is kept per concept signature, and a pushed
//! `WHERE` literal is part of the signature: `population > 570000` and
//! `population > 570001` each keep a table from their second execution.
//! [`RELATION_BYTES`] bounds what a session keeps until ROADMAP 4a's byte
//! budget covers it. Relations of a cleared generation are dropped at the
//! next warm step, not at `clear_cache`.

use galois_relational::Table;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The most bytes ([`Table::bytes`]) of relations one session keeps. A
/// publish that would pass it drops every relation first — the traffic has
/// moved on from some of them, and which is not recorded — and a table
/// larger than this alone is not kept.
const RELATION_BYTES: usize = 64 << 20;

/// The table a warm step built over a stored universe (its temporary
/// schema, rows in slot order less the NULL and repeated keys) and the
/// columns the store filled in it; the others hold NULL.
struct Relation {
    table: Arc<Table>,
    filled: Vec<usize>,
    bytes: usize,
}

/// What was read over one stored universe.
struct Universe {
    keys: Arc<[String]>,
    /// Kept from the first warm step the store answered whole: the table
    /// is built by then, and keeping it costs nothing more.
    relation: Option<Relation>,
}

/// The right of a step that reads a stored universe to publish the table
/// built from it: which universe, and what it was when the step began.
pub(super) struct Publish {
    pub(super) generation: usize,
    pub(super) concept: String,
    pub(super) keys: Arc<[String]>,
}

/// Every stored universe one session has read warm, and its relation.
pub(super) struct Universes {
    /// The client's sub-entry generation the relations were read under,
    /// and the universes by concept signature.
    universes: Mutex<(usize, HashMap<String, Universe>)>,
    /// See [`RELATION_BYTES`].
    budget: usize,
    /// Steps handed a relation or built from rows; each statement adds
    /// its own when it ends.
    pub(super) steps_served: AtomicUsize,
    pub(super) steps_built: AtomicUsize,
}

impl Default for Universes {
    fn default() -> Self {
        Universes {
            universes: Mutex::default(),
            budget: RELATION_BYTES,
            steps_served: AtomicUsize::new(0),
            steps_built: AtomicUsize::new(0),
        }
    }
}

/// What a session keeps of its warm reads, and how its steps were served
/// ([`super::Galois::typed_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TypedStats {
    /// Stored universes read warm, under the multi-key protocol, by a
    /// step with no filter stage and no `LIMIT` window.
    pub universes: usize,
    /// Universes holding a relation.
    pub relations: usize,
    /// Rows of those relations.
    pub relation_rows: usize,
    /// Their bytes ([`Table::bytes`]: cells, text, key-index slots).
    pub relation_bytes: usize,
    /// Steps handed a relation as it stood.
    pub steps_served: usize,
    /// Steps whose table was built from rows, listed or read.
    pub steps_built: usize,
}

impl Universes {
    /// The relation of `keys`, the terminal universe the store serves for
    /// `concept`, if it has every column of `fetch` filled — under the
    /// map's lock, once per step per statement. Entries read under
    /// another generation, or aligned to another list, are dropped first,
    /// and the universe is entered, so that the step may publish.
    pub(super) fn serve(
        &self,
        generation: usize,
        concept: &str,
        keys: &Arc<[String]>,
        fetch: &[usize],
    ) -> Option<Arc<Table>> {
        let mut guard = self.universes.lock();
        let (held, universes) = &mut *guard;
        if *held != generation {
            universes.clear();
            *held = generation;
        }
        let entry = universes
            .get(concept)
            .filter(|u| Arc::ptr_eq(&u.keys, keys));
        let Some(universe) = entry else {
            let fresh = Universe {
                keys: Arc::clone(keys),
                relation: None,
            };
            universes.insert(concept.to_string(), fresh);
            return None;
        };
        let relation = universe.relation.as_ref()?;
        let filled = fetch.iter().all(|c| relation.filled.contains(c));
        filled.then(|| Arc::clone(&relation.table))
    }

    /// Shares the table a step built. With the right to publish, and the
    /// universe still the one the step read (same generation, same list,
    /// checked under the lock), the table becomes its relation with
    /// `fetch` filled, after taking over, row for row, the columns the
    /// relation it replaces had filled besides — within the byte budget.
    pub(super) fn publish(
        &self,
        at: Option<Publish>,
        fetch: &[usize],
        mut table: Table,
    ) -> Arc<Table> {
        let Some(at) = at else {
            return Arc::new(table);
        };
        let mut guard = self.universes.lock();
        let (held, universes) = &mut *guard;
        let current = |u: &&mut Universe| *held == at.generation && Arc::ptr_eq(&u.keys, &at.keys);
        let Some(universe) = universes.get_mut(&at.concept).filter(current) else {
            return Arc::new(table);
        };
        let mut filled = fetch.to_vec();
        if let Some(old) = universe.relation.take() {
            let kept = old.filled.iter().copied().filter(|c| !fetch.contains(c));
            let kept: Vec<usize> = kept.collect();
            if table.merge_columns(&old.table, &kept) {
                filled.extend(kept);
            }
        }
        let bytes = table.bytes();
        let table = Arc::new(table);
        let relations = universes.values().filter_map(|u| u.relation.as_ref());
        if relations.map(|r| r.bytes).sum::<usize>() + bytes > self.budget {
            universes.values_mut().for_each(|u| u.relation = None);
        }
        if bytes <= self.budget {
            // Found above; the eviction cleared relations, not universes.
            let Some(universe) = universes.get_mut(&at.concept) else {
                unreachable!("universe {} removed under the lock", at.concept);
            };
            universe.relation = Some(Relation {
                table: Arc::clone(&table),
                filled,
                bytes,
            });
        }
        table
    }

    /// A snapshot of the counters and of what the universes hold.
    pub(super) fn stats(&self) -> TypedStats {
        let guard = self.universes.lock();
        let relations = || guard.1.values().filter_map(|u| u.relation.as_ref());
        TypedStats {
            universes: guard.1.len(),
            relations: relations().count(),
            relation_rows: relations().map(|r| r.table.len()).sum(),
            relation_bytes: relations().map(|r| r.bytes).sum(),
            steps_served: self.steps_served.load(Ordering::Relaxed),
            steps_built: self.steps_built.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Galois, GaloisOptions};
    use super::{Publish, Universes};
    use galois_dataset::Scenario;
    use galois_llm::{ModelProfile, SimLlm};
    use galois_relational::{Column, DataType, Table, TableSchema, Value};
    use std::sync::Arc;

    fn serving_session(s: &Scenario) -> Galois {
        Galois::with_options(
            Arc::new(SimLlm::new(s.knowledge.clone(), ModelProfile::oracle())),
            s.database.clone(),
            GaloisOptions::serving(),
        )
    }

    /// A relation belongs to a universe, not to a statement: a projection
    /// no statement has made, over columns two earlier statements filled
    /// one each, is handed the table — no store read, no prompt — and
    /// its rows are the stored relation's.
    #[test]
    fn a_new_statement_over_warm_columns_is_served_from_the_relation() {
        let s = Scenario::generate(42);
        let session = serving_session(&s);
        let pass = || {
            for sql in [
                "SELECT name, population FROM city",
                "SELECT name, country FROM city",
            ] {
                session.execute(sql).unwrap();
            }
        };
        let cities = s.world.cities.len();
        // Pass 1 lists, and its second statement — every `country` cell a
        // pad of the first's grid prompts — is the universe's first whole
        // warm read: it publishes. Pass 2 builds `population` from the
        // store, carries `country` over, and serves the second statement.
        pass();
        let first = session.typed_stats();
        assert_eq!((first.relations, first.relation_rows), (1, cities));
        assert_eq!((first.steps_served, first.steps_built), (0, 2));
        pass();
        let second = session.typed_stats();
        assert_eq!((second.steps_served, second.steps_built), (1, 3));
        assert!(second.relation_bytes >= first.relation_bytes);
        pass();
        let before = session.typed_stats();
        assert_eq!((before.steps_served, before.steps_built), (3, 3));
        assert_eq!(before.relation_bytes, second.relation_bytes);

        let sql = "SELECT name, country, population FROM city";
        let new = session.execute(sql).unwrap();
        let fresh = serving_session(&s).execute(sql).unwrap();
        assert_eq!(new.relation.rows, fresh.relation.rows);
        assert_eq!(new.stats.total_prompts(), 0);
        assert_eq!(new.stats.rows_retrieved, cities);
        let after = session.typed_stats();
        assert_eq!(after.steps_served, before.steps_served + 1);
        assert_eq!((after.universes, after.relations), (1, 1));
        assert_eq!(after.relation_bytes, before.relation_bytes);
    }

    /// The right to publish is re-checked under the lock: earned under
    /// another generation, over another list (equal content, another
    /// `Arc`), for a universe never read, or not at all, it shares
    /// nothing. And a kept relation goes with its universe.
    #[test]
    fn a_stale_right_to_publish_keeps_nothing() {
        let schema = TableSchema::new(
            vec![
                Column::new("name", DataType::Text),
                Column::nullable("population", DataType::Int),
            ],
            "name",
        )
        .unwrap();
        let table = || {
            let mut table = Table::new("__llm_city", schema.clone());
            table.insert(vec!["Rome".into(), Value::Int(1)]).unwrap();
            table
        };
        let keys: Arc<[String]> = vec!["Rome".to_string()].into();
        let twin: Arc<[String]> = keys.to_vec().into();
        let right = |generation, concept: &str, keys: &Arc<[String]>| {
            Some(Publish {
                generation,
                concept: concept.to_string(),
                keys: Arc::clone(keys),
            })
        };
        let typed = Universes::default();
        let served = |generation, keys: &Arc<[String]>, fetch: &[usize]| {
            typed.serve(generation, "city", keys, fetch)
        };
        assert!(served(0, &keys, &[]).is_none());
        for stale in [
            right(1, "city", &keys),
            right(0, "city", &twin),
            right(0, "town", &keys),
            None,
        ] {
            typed.publish(stale, &[1], table());
            assert_eq!(typed.stats().relations, 0);
        }
        let kept = typed.publish(right(0, "city", &keys), &[], table());
        assert!(Arc::ptr_eq(&kept, &served(0, &keys, &[]).unwrap()));
        assert!(served(0, &keys, &[1]).is_none(), "population is not filled");
        assert_eq!(typed.stats().relation_rows, 1);
        assert!(served(0, &twin, &[]).is_none(), "the list was replaced");
        typed.publish(right(0, "city", &twin), &[1], table());
        assert!(served(0, &twin, &[1]).is_some());
        assert!(served(1, &twin, &[]).is_none(), "the cache was cleared");
    }

    /// The byte budget bounds what is kept: a publish that would pass it
    /// drops every relation first, and a table larger than the whole
    /// budget is handed back unshared.
    #[test]
    fn relations_past_the_byte_budget_are_dropped() {
        let schema = TableSchema::new(vec![Column::new("name", DataType::Text)], "name").unwrap();
        let table = |rows: usize| {
            let mut table = Table::new("__llm_t", schema.clone());
            for row in 0..rows {
                table.insert(vec![format!("key {row}").into()]).unwrap();
            }
            table
        };
        let typed = Universes {
            budget: 2 * table(4).bytes() + 1,
            ..Universes::default()
        };
        let keys: Arc<[String]> = vec!["key 0".to_string()].into();
        let publish = |concept: &str, rows| {
            assert!(typed.serve(0, concept, &keys, &[]).is_none());
            let right = Publish {
                generation: 0,
                concept: concept.to_string(),
                keys: Arc::clone(&keys),
            };
            typed.publish(Some(right), &[], table(rows));
            typed.stats()
        };
        assert_eq!(publish("a", 4).relations, 1);
        let two = publish("b", 4);
        assert_eq!(
            (two.relations, two.relation_bytes),
            (2, 2 * table(4).bytes())
        );
        // Republishing a universe's own table replaces it within budget.
        assert!(typed.serve(0, "b", &keys, &[]).is_some());
        let right = Publish {
            generation: 0,
            concept: "b".to_string(),
            keys: Arc::clone(&keys),
        };
        typed.publish(Some(right), &[], table(4));
        assert_eq!(typed.stats(), two);
        let third = publish("c", 4);
        assert_eq!((third.universes, third.relations), (3, 1), "a and b went");
        assert!(typed.serve(0, "c", &keys, &[]).is_some());
        let huge = publish("d", 64);
        assert_eq!((huge.universes, huge.relations), (4, 0), "nothing fits");
    }
}
