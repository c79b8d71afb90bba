//! The simulated model's "parameters": a knowledge store of entities and
//! facts.
//!
//! The paper observes that LLMs "model existing relationships between
//! entities … or between entities and their properties" but have no notion
//! of schema or tuple (§3). The store mirrors that: it is a bag of
//! `(subject, predicate, object)` facts over typed, popularity-ranked
//! entities — not a relational database. Popularity drives recall ("the
//! default semantics for the LLM is to pick the most popular
//! interpretation"), and aliases model the surface-form variance that
//! breaks joins ("IT" vs "ITA", §5).
//!
//! Reads go through two indexes built once, on the first read after the
//! last [`KnowledgeStore::add_entity`] or [`KnowledgeStore::add_fact`]:
//! each type's entities in list order (popularity descending, then name,
//! then insertion), and for each `(type, canonical predicate)` the
//! entities holding a fact for it, in the same order. No read sorts or
//! scans a type.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Identifier of an entity inside a knowledge store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

/// A known entity.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Identifier.
    pub id: EntityId,
    /// Canonical surface form (e.g. `"Rome"`).
    pub name: String,
    /// Entity type, lowercase (e.g. `"city"`).
    pub entity_type: String,
    /// Popularity in `[0, 1]`; drives recall probability and list order.
    pub popularity: f64,
    /// Alternative surface forms (e.g. `["ITA", "Italian Republic"]`).
    pub aliases: Vec<String>,
}

/// The object of a fact.
#[derive(Debug, Clone, PartialEq)]
pub enum FactValue {
    /// Free text.
    Text(String),
    /// A number (integers are exact within f64 range at our data scales).
    Number(f64),
    /// A calendar date.
    Date {
        /// Year.
        year: i32,
        /// Month 1–12.
        month: u8,
        /// Day 1–31.
        day: u8,
    },
    /// Reference to another entity (joins traverse these).
    Entity(EntityId),
}

/// A knowledge store: entities plus `(subject, predicate) → object` facts.
#[derive(Debug, Default, Clone)]
pub struct KnowledgeStore {
    entities: Vec<Entity>,
    by_name: HashMap<(String, String), EntityId>,
    facts: HashMap<(EntityId, String), FactValue>,
    /// Predicate synonym lexicon: surface label → canonical predicate.
    lexicon: HashMap<String, String>,
    /// Built on the first read after the last `add_entity` / `add_fact`.
    index: OnceLock<Index>,
}

/// The store's read orders, derived from `entities` and `facts`.
#[derive(Debug, Clone)]
struct Index {
    /// Each type's ids, most popular first, then by name, then insertion.
    by_type: HashMap<String, Vec<EntityId>>,
    /// Type → canonical predicate → the ids holding a fact for it, in
    /// `by_type` order.
    holders: HashMap<String, HashMap<String, Vec<EntityId>>>,
    /// Each entity's position in its type's `by_type` list, by id.
    rank: Vec<u32>,
}

impl Index {
    fn build(kb: &KnowledgeStore) -> Index {
        let mut by_type: HashMap<String, Vec<EntityId>> = HashMap::new();
        for e in &kb.entities {
            by_type.entry(e.entity_type.clone()).or_default().push(e.id);
        }
        let mut rank = vec![0u32; kb.entities.len()];
        for ids in by_type.values_mut() {
            // Stable: equal popularity and name keep insertion order.
            ids.sort_by(|a, b| {
                let (a, b) = (kb.entity(*a), kb.entity(*b));
                b.popularity
                    .total_cmp(&a.popularity)
                    .then_with(|| a.name.cmp(&b.name))
            });
            for (at, id) in ids.iter().enumerate() {
                rank[id.0 as usize] = at as u32;
            }
        }
        let mut holders: HashMap<String, HashMap<String, Vec<EntityId>>> = HashMap::new();
        for (id, predicate) in kb.facts.keys() {
            holders
                .entry(kb.entity(*id).entity_type.clone())
                .or_default()
                .entry(predicate.clone())
                .or_default()
                .push(*id);
        }
        for ids in holders.values_mut().flat_map(HashMap::values_mut) {
            ids.sort_unstable_by_key(|id| rank[id.0 as usize]);
        }
        Index {
            by_type,
            holders,
            rank,
        }
    }
}

/// `s` lowercased, borrowed when it already is.
fn ascii_lower(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

impl KnowledgeStore {
    /// An empty store.
    pub fn new() -> Self {
        KnowledgeStore::default()
    }

    /// Adds an entity and returns its id. Popularity is clamped to [0, 1].
    pub fn add_entity(
        &mut self,
        name: impl Into<String>,
        entity_type: impl Into<String>,
        popularity: f64,
    ) -> EntityId {
        let id = EntityId(self.entities.len() as u32);
        let name = name.into();
        let entity_type = entity_type.into().to_ascii_lowercase();
        self.index.take();
        self.by_name
            .insert((entity_type.clone(), name.to_ascii_lowercase()), id);
        self.entities.push(Entity {
            id,
            name,
            entity_type,
            popularity: popularity.clamp(0.0, 1.0),
            aliases: Vec::new(),
        });
        id
    }

    /// Registers an alias surface form for an entity.
    pub fn add_alias(&mut self, id: EntityId, alias: impl Into<String>) {
        let alias = alias.into();
        let ty = self.entities[id.0 as usize].entity_type.clone();
        self.by_name.insert((ty, alias.to_ascii_lowercase()), id);
        self.entities[id.0 as usize].aliases.push(alias);
    }

    /// Records a fact `(subject, predicate) → object` (canonicalising the
    /// predicate through the lexicon).
    pub fn add_fact(&mut self, subject: EntityId, predicate: impl Into<String>, object: FactValue) {
        let p = self.canonical_predicate(&predicate.into());
        self.index.take();
        self.facts.insert((subject, p), object);
    }

    /// Registers a predicate synonym: prompts that say `label` mean
    /// `canonical`.
    pub fn add_synonym(&mut self, label: impl Into<String>, canonical: impl Into<String>) {
        self.lexicon.insert(
            label.into().to_ascii_lowercase(),
            canonical.into().to_ascii_lowercase(),
        );
    }

    /// Maps a surface attribute label to its canonical predicate.
    pub fn canonical_predicate(&self, label: &str) -> String {
        self.canonical(label).into_owned()
    }

    /// [`Self::canonical_predicate`], borrowed where it can be.
    fn canonical<'a>(&'a self, label: &'a str) -> Cow<'a, str> {
        let lower = ascii_lower(label);
        match self.lexicon.get(lower.as_ref()) {
            Some(canonical) => Cow::Borrowed(canonical),
            None => lower,
        }
    }

    /// The entity with this id.
    pub(crate) fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id.0 as usize]
    }

    fn index(&self) -> &Index {
        self.index.get_or_init(|| Index::build(self))
    }

    /// All entities of a type, most popular first (ties by name, then
    /// insertion).
    pub fn entities_of_type(&self, entity_type: &str) -> Vec<&Entity> {
        self.ids_of_type(entity_type)
            .iter()
            .map(|id| self.entity(*id))
            .collect()
    }

    /// The ids of [`Self::entities_of_type`], in its order, without a copy.
    pub(crate) fn ids_of_type(&self, entity_type: &str) -> &[EntityId] {
        self.index()
            .by_type
            .get(ascii_lower(entity_type).as_ref())
            .map_or(&[], Vec::as_slice)
    }

    /// The ids of a type's entities that hold a fact for `predicate` (a
    /// surface label, canonicalised), in [`Self::ids_of_type`] order.
    pub(crate) fn holders(&self, entity_type: &str, predicate: &str) -> &[EntityId] {
        self.index()
            .holders
            .get(ascii_lower(entity_type).as_ref())
            .and_then(|by_predicate| by_predicate.get(self.canonical(predicate).as_ref()))
            .map_or(&[], Vec::as_slice)
    }

    /// An entity's position in its type's [`Self::ids_of_type`] list.
    pub(crate) fn rank(&self, id: EntityId) -> usize {
        self.index().rank[id.0 as usize] as usize
    }

    /// Resolves a surface form (name or alias) of a given type.
    pub fn resolve(&self, entity_type: &str, surface: &str) -> Option<EntityId> {
        self.by_name
            .get(&(
                entity_type.to_ascii_lowercase(),
                surface.trim().to_ascii_lowercase(),
            ))
            .copied()
    }

    /// Looks up a fact by subject and (surface) predicate label.
    pub fn fact(&self, subject: EntityId, predicate: &str) -> Option<&FactValue> {
        self.facts
            .get(&(subject, self.canonical_predicate(predicate)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> KnowledgeStore {
        let mut kb = KnowledgeStore::new();
        let rome = kb.add_entity("Rome", "city", 0.95);
        let lyon = kb.add_entity("Lyon", "city", 0.4);
        let italy = kb.add_entity("Italy", "country", 0.9);
        kb.add_alias(italy, "IT");
        kb.add_fact(rome, "population", FactValue::Number(2_800_000.0));
        kb.add_fact(rome, "country", FactValue::Entity(italy));
        kb.add_fact(lyon, "population", FactValue::Number(500_000.0));
        kb.add_synonym("number of residents", "population");
        kb
    }

    #[test]
    fn entities_sorted_by_popularity() {
        let kb = store();
        let cities = kb.entities_of_type("city");
        assert_eq!(cities.len(), 2);
        assert_eq!(cities[0].name, "Rome");
        assert_eq!(cities[1].name, "Lyon");
    }

    #[test]
    fn resolve_by_name_and_alias_case_insensitive() {
        let kb = store();
        let italy = kb.resolve("country", "italy").unwrap();
        assert_eq!(kb.resolve("country", "it"), Some(italy));
        assert_eq!(kb.resolve("country", "IT "), Some(italy));
        assert!(kb.resolve("city", "Italy").is_none());
    }

    #[test]
    fn facts_and_synonyms() {
        let kb = store();
        let rome = kb.resolve("city", "Rome").unwrap();
        assert_eq!(
            kb.fact(rome, "population"),
            Some(&FactValue::Number(2_800_000.0))
        );
        assert_eq!(
            kb.fact(rome, "Number of Residents"),
            Some(&FactValue::Number(2_800_000.0))
        );
        assert!(kb.fact(rome, "elevation").is_none());
    }

    /// What `entities_of_type` computed on every call before the index:
    /// the type's ids in insertion order, stably sorted by popularity
    /// descending, then name.
    fn sorted_by_hand(kb: &KnowledgeStore, ty: &str) -> Vec<EntityId> {
        let mut v: Vec<&Entity> = (0..kb.entities.len())
            .map(|i| kb.entity(EntityId(i as u32)))
            .filter(|e| e.entity_type == ty)
            .collect();
        v.sort_by(|a, b| {
            b.popularity
                .total_cmp(&a.popularity)
                .then_with(|| a.name.cmp(&b.name))
        });
        v.iter().map(|e| e.id).collect()
    }

    /// Ties on popularity (broken by name) and on popularity and name
    /// (broken by insertion), facts under a synonym, a type without facts.
    fn tied_store() -> KnowledgeStore {
        let mut kb = store();
        kb.add_synonym("inhabitants", "population");
        for (name, pop) in [
            ("Turin", 0.4),
            ("Bari", 0.4),
            ("Lyon", 0.4),
            ("Nice", 0.7),
            ("Bari", 0.4),
        ] {
            let e = kb.add_entity(name, "city", pop);
            if name != "Nice" {
                kb.add_fact(e, "inhabitants", FactValue::Number(1.0));
            }
        }
        kb.add_entity("Etna", "volcano", 0.5);
        kb
    }

    #[test]
    fn type_index_reproduces_the_popularity_sort() {
        let kb = tied_store();
        for ty in ["city", "country", "volcano"] {
            assert_eq!(kb.ids_of_type(ty), sorted_by_hand(&kb, ty), "{ty}");
            for (at, id) in kb.ids_of_type(ty).iter().enumerate() {
                assert_eq!(kb.rank(*id), at);
            }
        }
        let names: Vec<&str> = kb
            .entities_of_type("CITY")
            .iter()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(
            names,
            ["Rome", "Nice", "Bari", "Bari", "Lyon", "Lyon", "Turin"]
        );
        let baris: Vec<EntityId> = kb
            .entities_of_type("city")
            .iter()
            .filter(|e| e.name == "Bari")
            .map(|e| e.id)
            .collect();
        assert!(baris[0] < baris[1], "equal keys keep insertion order");
        assert!(kb.ids_of_type("glacier").is_empty());
    }

    #[test]
    fn holders_index_equals_the_filter() {
        let kb = tied_store();
        for ty in ["city", "country", "volcano", "glacier"] {
            for label in ["population", "Inhabitants", "country", "elevation"] {
                let filtered: Vec<EntityId> = sorted_by_hand(&kb, ty)
                    .into_iter()
                    .filter(|id| kb.fact(*id, label).is_some())
                    .collect();
                assert_eq!(kb.holders(ty, label), filtered, "{ty} {label}");
            }
        }
        assert_eq!(kb.holders("city", "country").len(), 1);
    }

    #[test]
    fn adding_after_a_read_rebuilds_both_indexes() {
        let mut kb = tied_store();
        let before = kb.ids_of_type("city").to_vec();
        assert_eq!(kb.holders("city", "elevation"), []);
        let milan = kb.add_entity("Milan", "city", 0.99);
        assert_eq!(kb.ids_of_type("city")[0], milan);
        assert_eq!(kb.ids_of_type("city")[1..], before[..]);
        assert_eq!(
            kb.holders("city", "population"),
            sorted_by_hand(&kb, "city")
                .into_iter()
                .filter(|id| kb.fact(*id, "population").is_some())
                .collect::<Vec<_>>()
        );
        kb.add_fact(milan, "elevation", FactValue::Number(120.0));
        assert_eq!(kb.holders("city", "elevation"), [milan]);
        kb.add_fact(milan, "population", FactValue::Number(1.4e6));
        assert_eq!(kb.holders("city", "population")[0], milan);
        assert_eq!(kb.ids_of_type("volcano").len(), 1);
    }

    #[test]
    fn unknown_type_is_empty() {
        let kb = store();
        assert!(kb.entities_of_type("volcano").is_empty());
    }

    #[test]
    fn popularity_is_clamped() {
        let mut kb = KnowledgeStore::new();
        let e = kb.add_entity("X", "t", 7.0);
        assert_eq!(kb.entity(e).popularity, 1.0);
    }
}
