//! The columnar sub-entry store behind [`LlmClient`](crate::LlmClient)'s
//! per-key answer cache.
//!
//! A cell signature is a pair: the *prefix* names a column of cells
//! (`fetch␟relation␟key_attr␟attr␟`, `filter␟relation␟key_attr␟attr␟phrase␟`
//! — a few hundred a session) and the *key* names one cell of it. The
//! engine asks for the cells of one column, for consecutive keys, so the
//! store keeps each column's entries together and in the order they
//! arrived: one text arena, one array of fixed-size entries holding spans
//! into it, and a hash index over the keys.
//!
//! A column is found by its full prefix text and an entry by its full key
//! text. The 64-bit key hash — SipHash keyed at random per store, because
//! keys are model output — only locates candidates; entries with equal
//! hashes chain through `Entry::next`.

use crate::client::PassThrough;
use parking_lot::Mutex;
use std::collections::hash_map::{HashMap, RandomState};
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::Arc;

/// Result of a sub-entry lookup, with whatever the caller read out of a
/// stored answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubLookup<R> {
    /// A stored answer was served — a cache hit with zero prompt cost.
    Hit(R),
    /// Another request already asked this cell and its answer has not
    /// been stored yet. Counted as a cache hit (by-signature accounting:
    /// in a sequential run this lookup would have found the stored
    /// answer), but the caller must produce the answer itself — the store
    /// never blocks one query's dataflow on another's.
    InFlight,
    /// First ask of this cell; the caller owes a store once the answer
    /// lands.
    Miss,
}

/// "No entry": ends a hash chain, and stands in an entry's answer start
/// while the cell is asked but not yet answered. Text offsets and entry
/// positions stay strictly below it ([`Column::room`]).
const NONE: u32 = u32::MAX;

/// One cell: spans of the column's text arena, and the next entry whose
/// key has the same hash.
struct Entry {
    key_start: u32,
    key_len: u32,
    /// [`NONE`] while the answer is in flight.
    answer_start: u32,
    answer_len: u32,
    next: u32,
}

/// One column's cells in arrival order.
struct Column {
    /// Key and answer bytes, appended as they arrive and never moved.
    text: String,
    entries: Vec<Entry>,
    /// Key hash → position of the newest entry with that hash.
    index: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    keys: RandomState,
    /// Test-only: hash every key to the same value, so that every lookup
    /// walks one chain.
    #[cfg(test)]
    colliding: bool,
}

impl Column {
    fn key_bytes(&self, entry: &Entry) -> &[u8] {
        let start = entry.key_start as usize;
        &self.text.as_bytes()[start..start + entry.key_len as usize]
    }

    fn hash(&self, key: &str) -> u64 {
        #[cfg(test)]
        if self.colliding {
            return 0;
        }
        self.keys.hash_one(key)
    }

    /// The position of `key`'s entry, or the key's hash when it has none.
    fn position(&self, key: &str) -> Result<usize, u64> {
        let hash = self.hash(key);
        let mut at = self.index.get(&hash).copied().unwrap_or(NONE);
        while at != NONE {
            let entry = &self.entries[at as usize];
            if self.key_bytes(entry) == key.as_bytes() {
                return Ok(at as usize);
            }
            at = entry.next;
        }
        Err(hash)
    }

    /// Whether one more entry and `bytes` more text keep every position
    /// and offset below [`NONE`]. A column that is full stops storing; it
    /// never serves a wrong span.
    fn room(&self, bytes: usize) -> bool {
        let end = self.text.len().checked_add(bytes);
        self.entries.len() < NONE as usize && end.is_some_and(|end| end < NONE as usize)
    }

    /// Appends `s` to the arena; the caller has checked [`Column::room`].
    fn append(&mut self, s: &str) -> (u32, u32) {
        let start = self.text.len() as u32;
        self.text.push_str(s);
        (start, s.len() as u32)
    }

    /// Adds an entry for a key that [`Column::position`] has just reported
    /// absent. Stores nothing when the column is full.
    fn push(&mut self, hash: u64, key: &str, answer: Option<&str>) {
        if !self.room(key.len() + answer.map_or(0, str::len)) {
            return;
        }
        let (key_start, key_len) = self.append(key);
        let (answer_start, answer_len) = answer.map_or((NONE, 0), |a| self.append(a));
        let at = self.entries.len() as u32;
        let next = self.index.insert(hash, at).unwrap_or(NONE);
        self.entries.push(Entry {
            key_start,
            key_len,
            answer_start,
            answer_len,
            next,
        });
    }

    fn extract<R>(&mut self, key: &str, read: impl FnOnce(&str) -> R) -> SubLookup<R> {
        match self.position(key) {
            Ok(at) => {
                let entry = &self.entries[at];
                if entry.answer_start == NONE {
                    return SubLookup::InFlight;
                }
                let start = entry.answer_start as usize;
                SubLookup::Hit(read(&self.text[start..start + entry.answer_len as usize]))
            }
            Err(hash) => {
                self.push(hash, key, None);
                SubLookup::Miss
            }
        }
    }

    fn store(&mut self, key: &str, answer: &str) {
        match self.position(key) {
            Ok(at) if self.entries[at].answer_start == NONE => {
                if self.room(answer.len()) {
                    let (start, len) = self.append(answer);
                    let entry = &mut self.entries[at];
                    (entry.answer_start, entry.answer_len) = (start, len);
                }
            }
            // First stored write wins.
            Ok(_) => {}
            Err(hash) => self.push(hash, key, Some(answer)),
        }
    }

    fn clear(&mut self) {
        self.text.clear();
        self.entries.clear();
        self.index.clear();
    }
}

/// A handle to one column of the sub-entry store
/// ([`LlmClient::sub_column`](crate::LlmClient::sub_column)): cheap to
/// clone, valid for the client's lifetime — clearing the cache empties the
/// column it names, it does not detach it.
#[derive(Clone)]
pub struct SubColumn(Arc<Mutex<Column>>);

impl std::fmt::Debug for SubColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubColumn").finish_non_exhaustive()
    }
}

impl SubColumn {
    pub(crate) fn extract<R>(&self, key: &str, read: impl FnOnce(&str) -> R) -> SubLookup<R> {
        self.0.lock().extract(key, read)
    }

    pub(crate) fn store(&self, key: &str, answer: &str) {
        self.0.lock().store(key, answer);
    }
}

/// Every column of one client, by full prefix text.
pub(crate) struct SubStore {
    columns: Mutex<HashMap<Box<str>, SubColumn>>,
    keys: RandomState,
    #[cfg(test)]
    colliding: bool,
}

impl SubStore {
    pub(crate) fn new() -> Self {
        SubStore {
            columns: Mutex::new(HashMap::new()),
            keys: RandomState::new(),
            #[cfg(test)]
            colliding: false,
        }
    }

    /// A store whose columns hash every key to the same value.
    #[cfg(test)]
    pub(crate) fn colliding() -> Self {
        SubStore {
            colliding: true,
            ..SubStore::new()
        }
    }

    /// Runs `f` on the column named `prefix`, created empty on first use,
    /// under the column map's guard.
    fn with_column<R>(&self, prefix: &str, f: impl FnOnce(&SubColumn) -> R) -> R {
        let mut columns = self.columns.lock();
        if !columns.contains_key(prefix) {
            let column = Column {
                text: String::new(),
                entries: Vec::new(),
                index: HashMap::default(),
                keys: self.keys.clone(),
                #[cfg(test)]
                colliding: self.colliding,
            };
            columns.insert(prefix.into(), SubColumn(Arc::new(Mutex::new(column))));
        }
        f(&columns[prefix])
    }

    pub(crate) fn column(&self, prefix: &str) -> SubColumn {
        self.with_column(prefix, SubColumn::clone)
    }

    /// [`SubColumn::extract`] by whole signature.
    pub(crate) fn extract<R>(&self, sig: &str, read: impl FnOnce(&str) -> R) -> SubLookup<R> {
        let (prefix, key) = split_signature(sig);
        self.with_column(prefix, |column| column.extract(key, read))
    }

    /// [`SubColumn::store`] by whole signature.
    pub(crate) fn store(&self, sig: &str, answer: &str) {
        let (prefix, key) = split_signature(sig);
        self.with_column(prefix, |column| column.store(key, answer));
    }

    /// Empties every column in place, so handles already given out stay
    /// attached.
    pub(crate) fn clear(&self) {
        for column in self.columns.lock().values() {
            column.0.lock().clear();
        }
    }
}

/// Splits a whole cell signature into `(prefix, key)` after its last
/// U+001F; a signature without one is a key of the empty prefix.
fn split_signature(sig: &str) -> (&str, &str) {
    sig.split_at(sig.rfind('\u{1f}').map_or(0, |at| at + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{fault_text, is_fault_text};
    use crate::model::{FaultKind, FixedResponder};
    use crate::LlmClient;
    use proptest::prelude::*;
    use std::sync::Barrier;

    fn client(colliding: bool) -> LlmClient {
        let model = Arc::new(FixedResponder {
            model_name: "fixed".into(),
            response: "ok".into(),
        });
        if colliding {
            LlmClient::colliding(model)
        } else {
            LlmClient::new(model)
        }
    }

    #[test]
    fn signatures_split_after_the_last_separator() {
        for (sig, prefix, key) in [
            ("", "", ""),
            ("Rome", "", "Rome"),
            ("fetch\u{1f}city\u{1f}Rome", "fetch\u{1f}city\u{1f}", "Rome"),
            ("fetch\u{1f}", "fetch\u{1f}", ""),
            ("\u{1f}", "\u{1f}", ""),
            ("é\u{1f}東京", "é\u{1f}", "東京"),
        ] {
            assert_eq!(split_signature(sig), (prefix, key), "{sig:?}");
        }
    }

    const PREFIX: &str = "fetch\u{1f}city\u{1f}name\u{1f}population\u{1f}";

    /// Identity is the pair `(prefix, key)`: two cells whose
    /// concatenations coincide because a key holds U+001F are two cells.
    #[test]
    fn a_separator_inside_a_key_does_not_alias_another_column() {
        let c = client(false);
        let outer = c.sub_column("fetch\u{1f}");
        let inner = c.sub_column("fetch\u{1f}city\u{1f}");
        c.store_in(&outer, "city\u{1f}Rome", "outer");
        assert_eq!(
            c.extract_in(&inner, "Rome", str::to_string),
            SubLookup::Miss
        );
        c.store_in(&inner, "Rome", "inner");
        assert_eq!(
            c.extract_in(&outer, "city\u{1f}Rome", str::to_string),
            SubLookup::Hit("outer".into())
        );
        // The wrapper splits after the *last* separator.
        assert_eq!(
            c.extract_sub_entry("fetch\u{1f}city\u{1f}Rome"),
            SubLookup::Hit("inner".into())
        );
    }

    #[test]
    fn clearing_empties_columns_without_detaching_handles() {
        let c = client(false);
        let column = c.sub_column(PREFIX);
        c.store_in(&column, "Rome", "2800000");
        c.clear_cache();
        assert_eq!(
            c.extract_in(&column, "Rome", str::to_string),
            SubLookup::Miss
        );
        c.store_in(&column, "Rome", "2800001");
        // A handle taken after the clear names the same column.
        assert_eq!(
            c.extract_in(&c.sub_column(PREFIX), "Rome", str::to_string),
            SubLookup::Hit("2800001".into())
        );
    }

    /// By-signature accounting under threads: every ask of a cell after
    /// the first is a hit, whichever thread's store landed first.
    #[test]
    fn eight_threads_on_one_column_count_hits_by_signature() {
        const THREADS: usize = 8;
        const KEYS: usize = 200;
        for colliding in [false, true] {
            let c = client(colliding);
            let column = c.sub_column(PREFIX);
            let start = Barrier::new(THREADS);
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let (c, column, start) = (&c, &column, &start);
                    s.spawn(move || {
                        start.wait();
                        for i in 0..KEYS {
                            // Half the threads walk the keys backwards.
                            let i = if t % 2 == 0 { i } else { KEYS - 1 - i };
                            let key = format!("key {i}");
                            match c.extract_in(column, &key, str::to_string) {
                                SubLookup::Hit(answer) => assert_eq!(answer, key),
                                SubLookup::InFlight | SubLookup::Miss => {
                                    c.store_in(column, &key, &key)
                                }
                            }
                        }
                    });
                }
            });
            assert_eq!(c.stats().cache_hits, (THREADS - 1) * KEYS);
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        ExtractIn {
            column: usize,
            key: usize,
        },
        StoreIn {
            column: usize,
            key: usize,
            answer: usize,
        },
        ExtractSig {
            column: usize,
            key: usize,
        },
        StoreSig {
            column: usize,
            key: usize,
            answer: usize,
        },
        Clear,
    }

    const PREFIXES: [&str; 3] = ["", PREFIX, "filter\u{1f}city\u{1f}name\u{1f}é > 3\u{1f}"];

    fn keys() -> Vec<String> {
        vec![
            String::new(),
            "Rome".into(),
            "Oslo".into(),
            "é".into(),
            "東京".into(),
            "x".repeat(10_000),
            "city\u{1f}Rome".into(),
            "\u{1f}".into(),
        ]
    }

    fn answers() -> Vec<String> {
        vec![
            String::new(),
            "2800000".into(),
            "Yes".into(),
            "京".repeat(40),
            fault_text(FaultKind::Timeout),
        ]
    }

    fn op() -> BoxedStrategy<Op> {
        // One clear in seventeen operations, so columns grow between them.
        (0..17usize, 0..3usize, 0..8usize, 0..5usize)
            .prop_map(|(kind, column, key, answer)| match kind {
                0..=5 => Op::ExtractIn { column, key },
                6..=9 => Op::StoreIn {
                    column,
                    key,
                    answer,
                },
                10..=12 => Op::ExtractSig { column, key },
                13..=15 => Op::StoreSig {
                    column,
                    key,
                    answer,
                },
                _ => Op::Clear,
            })
            .boxed()
    }

    /// Runs `ops` against a client and against a map keyed by the
    /// `(prefix, key)` pair; every outcome and the hit total must agree.
    fn check_against_model(ops: &[Op], colliding: bool) {
        type Model = std::collections::HashMap<(String, String), Option<String>>;
        fn extract(model: &mut Model, cell: (&str, &str), hits: &mut usize) -> SubLookup<String> {
            match model.entry((cell.0.to_string(), cell.1.to_string())) {
                std::collections::hash_map::Entry::Occupied(slot) => {
                    *hits += 1;
                    slot.get()
                        .clone()
                        .map_or(SubLookup::InFlight, SubLookup::Hit)
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(None);
                    SubLookup::Miss
                }
            }
        }
        fn store(model: &mut Model, cell: (&str, &str), answer: &str) {
            if is_fault_text(answer) {
                return;
            }
            let slot = model
                .entry((cell.0.to_string(), cell.1.to_string()))
                .or_default();
            if slot.is_none() {
                *slot = Some(answer.to_string());
            }
        }

        let c = client(colliding);
        let columns: Vec<SubColumn> = PREFIXES.iter().map(|p| c.sub_column(p)).collect();
        let (keys, answers) = (keys(), answers());
        let mut model = Model::new();
        let mut hits = 0;
        for op in ops {
            match *op {
                Op::ExtractIn { column, key } => {
                    let got = c.extract_in(&columns[column], &keys[key], str::to_string);
                    let want = extract(&mut model, (PREFIXES[column], &keys[key]), &mut hits);
                    assert_eq!(got, want, "{op:?}");
                }
                Op::StoreIn {
                    column,
                    key,
                    answer,
                } => {
                    c.store_in(&columns[column], &keys[key], &answers[answer]);
                    store(&mut model, (PREFIXES[column], &keys[key]), &answers[answer]);
                }
                Op::ExtractSig { column, key } => {
                    let sig = format!("{}{}", PREFIXES[column], keys[key]);
                    let want = extract(&mut model, split_signature(&sig), &mut hits);
                    assert_eq!(c.extract_sub_entry(&sig), want, "{op:?}");
                }
                Op::StoreSig {
                    column,
                    key,
                    answer,
                } => {
                    let sig = format!("{}{}", PREFIXES[column], keys[key]);
                    c.store_sub_entry(&sig, &answers[answer]);
                    store(&mut model, split_signature(&sig), &answers[answer]);
                }
                Op::Clear => {
                    c.clear_cache();
                    model.clear();
                }
            }
            assert_eq!(c.stats().cache_hits, hits, "{op:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn interleaved_operations_match_a_map_of_pairs(
            ops in prop::collection::vec(op(), 0..120),
        ) {
            check_against_model(&ops, false);
            check_against_model(&ops, true);
        }
    }
}
