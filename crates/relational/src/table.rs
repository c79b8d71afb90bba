//! Stored tables and the catalog.

use crate::error::{EngineError, Result};
use crate::schema::{PlanColumn, PlanSchema, TableSchema};
use crate::value::Value;
use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

/// A row of values; arity always matches the owning schema.
pub type Row = Vec<Value>;

/// Marks a free slot of a [`KeyIndex`]; never a valid row position.
const EMPTY: u32 = u32::MAX;

/// Hash index from key value to row position: open addressing, linear
/// probing. It stores positions only — the keys stay in the rows — so an
/// indexed table costs 8–16 bytes a row and no second copy of any key
/// string. Keys arrive from outside the program (a model's answers), so
/// the hasher is the randomly keyed default.
#[derive(Debug, Clone)]
struct KeyIndex {
    hasher: RandomState,
    /// Row positions or [`EMPTY`]. The length is a power of two and more
    /// than twice the row count, so a probe always ends.
    slots: Vec<u32>,
}

impl KeyIndex {
    /// An index sized for `rows` rows: filling it to that many never
    /// grows it ([`KeyIndex::reserve_one`] keeps it under half full).
    fn with_capacity(rows: usize) -> Self {
        // No table holds more rows than there are positions.
        let rows = rows.min(EMPTY as usize);
        KeyIndex {
            hasher: RandomState::new(),
            slots: vec![EMPTY; (rows * 2 + 1).next_power_of_two().max(8)],
        }
    }

    fn first_slot(&self, key: &Value) -> usize {
        self.hasher.hash_one(key) as usize & (self.slots.len() - 1)
    }

    /// Probes for `key`: `Ok` with the position of the row that holds it,
    /// else `Err` with the free slot it would take. A key column holds one
    /// data type, within which [`Value`] equality agrees with its hash, so
    /// a match is the one a linear search finds. An index join probes with
    /// another relation's values, of any type: a number still finds the
    /// equal key of the other numeric type, because [`Value`] hashes
    /// numerics by value (`Int(1)` and `Float(1.0)` alike —
    /// `tests/keyed_table.rs` probes `Float(1.0)`), and another type finds
    /// nothing, as it equals nothing. The one probe that can equal several
    /// keys, a float of magnitude 2⁵³ or more against integers, finds one of
    /// them; the executor never asks with it.
    fn probe(
        &self,
        rows: &[Row],
        key_col: usize,
        key: &Value,
    ) -> std::result::Result<usize, usize> {
        let mut slot = self.first_slot(key);
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                pos if rows[pos as usize][key_col] == *key => return Ok(pos as usize),
                _ => slot = (slot + 1) & (self.slots.len() - 1),
            }
        }
    }

    /// Doubles the slot array, re-placing every row, when one row more
    /// than `rows` would leave it half full.
    fn reserve_one(&mut self, rows: &[Row], key_col: usize) {
        if (rows.len() + 1) * 2 < self.slots.len() {
            return;
        }
        self.slots = vec![EMPTY; self.slots.len() * 2];
        for (pos, row) in rows.iter().enumerate() {
            let mut slot = self.first_slot(&row[key_col]);
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & (self.slots.len() - 1);
            }
            self.slots[slot] = pos as u32;
        }
    }
}

/// An in-memory stored table with schema validation on insert and a hash
/// index on its key, so `insert` and `find_by_key` take constant time.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Schema, including the key attribute. Shared, so a table built from
    /// a schema its maker keeps (a compiled step's temporary table) copies
    /// no column.
    pub schema: Arc<TableSchema>,
    rows: Vec<Row>,
    index: KeyIndex,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: impl Into<Arc<TableSchema>>) -> Self {
        Table::with_capacity(name, schema, 0)
    }

    /// Creates an empty table sized for `rows` rows: inserting that many
    /// re-allocates neither the rows nor the key index (which otherwise
    /// re-hashes every row each time it doubles). Sizing only —
    /// [`Table::insert`] checks every row as it always does, and more
    /// rows than announced still fit.
    pub fn with_capacity(
        name: impl Into<String>,
        schema: impl Into<Arc<TableSchema>>,
        rows: usize,
    ) -> Self {
        Table {
            name: name.into(),
            schema: schema.into(),
            rows: Vec::with_capacity(rows),
            index: KeyIndex::with_capacity(rows),
        }
    }

    /// Inserts a row after validating arity, types, nullability and key
    /// uniqueness.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(EngineError::BadRow(format!(
                "table '{}' expects {} values, got {}",
                self.name,
                self.schema.arity(),
                row.len()
            )));
        }
        for (v, c) in row.iter().zip(&self.schema.columns) {
            match v.data_type() {
                None => {
                    if !c.nullable {
                        return Err(EngineError::BadRow(format!(
                            "NULL in non-nullable column '{}'",
                            c.name
                        )));
                    }
                }
                Some(t) if t == c.data_type => {}
                Some(t) => {
                    return Err(EngineError::BadRow(format!(
                        "column '{}' expects {}, got {t}",
                        c.name, c.data_type
                    )));
                }
            }
        }
        let key_col = self.schema.key;
        self.index.reserve_one(&self.rows, key_col);
        let slot = match self.index.probe(&self.rows, key_col, &row[key_col]) {
            Ok(_) => {
                return Err(EngineError::BadRow(format!(
                    "duplicate key {} in table '{}'",
                    row[key_col].render(),
                    self.name
                )))
            }
            Err(slot) => slot,
        };
        let Some(pos) = u32::try_from(self.rows.len())
            .ok()
            .filter(|pos| *pos != EMPTY)
        else {
            return Err(EngineError::BadRow(format!(
                "table '{}' is full",
                self.name
            )));
        };
        self.index.slots[slot] = pos;
        self.rows.push(row);
        Ok(())
    }

    /// All rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Looks up a row by its key value.
    pub fn find_by_key(&self, key: &Value) -> Option<&Row> {
        self.position_of(key).map(|pos| &self.rows[pos])
    }

    /// The position in [`Table::rows`] of the row whose key is `key` —
    /// what an index join probes.
    pub(crate) fn position_of(&self, key: &Value) -> Option<usize> {
        self.index.probe(&self.rows, self.schema.key, key).ok()
    }

    /// Copies `columns` of `other` into this table, row for row: what lets
    /// a rebuilt table keep the cells an earlier one of the same keys held.
    /// Carries nothing, and says so, unless the two have equal schemas,
    /// equal lengths and the same key in every row.
    pub fn merge_columns(&mut self, other: &Table, columns: &[usize]) -> bool {
        let key = self.schema.key;
        let aligned = self.schema == other.schema
            && self.rows.len() == other.rows.len()
            && columns.iter().all(|&c| c != key && c < self.schema.arity())
            && self
                .rows
                .iter()
                .zip(&other.rows)
                .all(|(a, b)| a[key] == b[key]);
        if aligned {
            for (row, from) in self.rows.iter_mut().zip(&other.rows) {
                for &c in columns {
                    row[c] = from[c].clone();
                }
            }
        }
        aligned
    }

    /// The bytes the table's rows hold: their cells, the text those own
    /// and the key index's slots.
    pub fn bytes(&self) -> usize {
        let text = self.rows.iter().flatten().filter_map(Value::as_text);
        self.rows.len() * self.schema.arity() * std::mem::size_of::<Value>()
            + text.map(str::len).sum::<usize>()
            + self.index.slots.len() * std::mem::size_of::<u32>()
    }

    /// The plan schema this table produces when scanned under `binding`.
    pub(crate) fn plan_schema(&self, binding: &Arc<str>) -> PlanSchema {
        PlanSchema::new(
            self.schema
                .columns
                .iter()
                .map(|c| PlanColumn::from_base(binding, c))
                .collect(),
        )
    }
}

/// Looks `name` up case-insensitively in a map keyed by lower-cased
/// names. A name without an uppercase ASCII letter is its own key, so only
/// a mixed-case one is lower-cased into a copy first.
pub(crate) fn get_ignore_case<'m, V>(map: &'m HashMap<String, V>, name: &str) -> Option<&'m V> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        map.get(&name.to_ascii_lowercase())
    } else {
        map.get(name)
    }
}

/// A named collection of tables.
///
/// Tables sit behind shared ownership: cloning a catalog copies one
/// pointer per table, not the rows, and [`Catalog::get_mut`] copies a
/// table only when another catalog still shares it. A query's overlay —
/// the stored tables plus its temporary ones — is such a clone.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a table under its own name; the name must be unused.
    pub fn add_table(&mut self, table: Table) -> Result<()> {
        let name = table.name.clone();
        self.add_shared(&name, Arc::new(table))
    }

    /// Registers a table someone else may hold too, under `name` (unused
    /// so far) — one table can stand in several catalogs, or twice in
    /// one, each time under the name given here.
    pub fn add_shared(&mut self, name: &str, table: Arc<Table>) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(EngineError::Catalog(format!(
                "table '{name}' already exists"
            )));
        }
        self.tables.insert(key, table);
        Ok(())
    }

    /// Case-insensitive lookup.
    pub fn get(&self, name: &str) -> Result<&Table> {
        get_ignore_case(&self.tables, name)
            .map(Arc::as_ref)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// Mutable case-insensitive lookup (copy-on-write: a table shared
    /// with a clone of this catalog is copied first).
    pub fn get_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .map(Arc::make_mut)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// Each table's own name ([`Table::name`] — a shared table is looked up
    /// by the name it was registered under, which this does not report),
    /// sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.values().map(|t| t.name.clone()).collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn city_table() -> Table {
        Table::new(
            "city",
            TableSchema::new(
                vec![
                    Column::new("name", DataType::Text),
                    Column::nullable("population", DataType::Int),
                ],
                "name",
            )
            .unwrap(),
        )
    }

    #[test]
    fn insert_valid_row() {
        let mut t = city_table();
        t.insert(vec!["Rome".into(), Value::Int(2_800_000)])
            .unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.find_by_key(&"Rome".into()).is_some());
    }

    #[test]
    fn insert_rejects_wrong_arity() {
        let mut t = city_table();
        assert!(matches!(
            t.insert(vec!["Rome".into()]),
            Err(EngineError::BadRow(_))
        ));
    }

    #[test]
    fn insert_rejects_wrong_type() {
        let mut t = city_table();
        assert!(t.insert(vec!["Rome".into(), "big".into()]).is_err());
    }

    #[test]
    fn insert_rejects_null_in_non_nullable() {
        let mut t = city_table();
        assert!(t.insert(vec![Value::Null, Value::Int(1)]).is_err());
    }

    #[test]
    fn insert_allows_null_in_nullable() {
        let mut t = city_table();
        t.insert(vec!["Rome".into(), Value::Null]).unwrap();
    }

    #[test]
    fn insert_rejects_duplicate_key() {
        let mut t = city_table();
        t.insert(vec!["Rome".into(), Value::Int(1)]).unwrap();
        assert!(t.insert(vec!["Rome".into(), Value::Int(2)]).is_err());
    }

    #[test]
    fn with_capacity_sizes_the_index_once_and_keeps_every_check() {
        let mut t = Table::with_capacity("city", city_table().schema, 1000);
        let slots = t.index.slots.len();
        assert!(slots > 2 * 1000);
        for i in 0..1000 {
            t.insert(vec![format!("key {i}").into(), Value::Int(i)])
                .unwrap();
        }
        assert_eq!(t.index.slots.len(), slots, "no doubling below the hint");
        assert!(t.insert(vec!["key 7".into(), Value::Int(0)]).is_err());
        assert!(t.insert(vec![Value::Null, Value::Int(0)]).is_err());
        assert!(t.insert(vec!["new".into()]).is_err());
        // The hint is not a limit.
        for i in 1000..3000 {
            t.insert(vec![format!("key {i}").into(), Value::Null])
                .unwrap();
        }
        assert_eq!(t.len(), 3000);
        assert_eq!(
            t.find_by_key(&"key 2999".into()),
            Some(&vec!["key 2999".into(), Value::Null])
        );
        // An empty hint is `Table::new`.
        assert_eq!(Table::new("t", city_table().schema).index.slots.len(), 8);
    }

    #[test]
    fn catalog_case_insensitive() {
        let mut c = Catalog::new();
        c.add_table(city_table()).unwrap();
        assert!(c.get("CITY").is_ok());
        assert!(c.get("town").is_err());
        assert!(c.add_table(city_table()).is_err());
        assert_eq!(c.table_names(), vec!["city".to_string()]);
    }

    #[test]
    fn a_shared_table_goes_by_the_name_it_was_registered_under() {
        let mut t = city_table();
        t.insert(vec!["Rome".into(), Value::Int(1)]).unwrap();
        let shared = Arc::new(t);
        let mut c = Catalog::new();
        c.add_shared("__llm_P", Arc::clone(&shared)).unwrap();
        c.add_shared("__llm_r", Arc::clone(&shared)).unwrap();
        assert!(std::ptr::eq(
            c.get("__LLM_p").unwrap(),
            c.get("__llm_r").unwrap()
        ));
        assert!(matches!(c.get("city"), Err(EngineError::UnknownTable(n)) if n == "city"));
        let taken = c.add_shared("__LLM_R", Arc::clone(&shared)).unwrap_err();
        assert!(taken.to_string().contains("'__LLM_R'"), "{taken}");
        // Writing through one name copies: the other keeps the shared rows.
        c.get_mut("__llm_r")
            .unwrap()
            .insert(vec!["Oslo".into(), Value::Null])
            .unwrap();
        assert_eq!((c.get("__llm_p").unwrap().len(), shared.len()), (1, 1));
    }

    #[test]
    fn merge_columns_carries_cells_between_tables_of_the_same_keys_only() {
        let filled = |rows: &[(&str, Value)]| {
            let mut t = city_table();
            for (key, population) in rows {
                t.insert(vec![(*key).into(), population.clone()]).unwrap();
            }
            t
        };
        let old = filled(&[("Rome", Value::Int(1)), ("Oslo", Value::Int(2))]);
        let mut new = filled(&[("Rome", Value::Null), ("Oslo", Value::Null)]);
        assert!(new.merge_columns(&old, &[1]));
        assert_eq!(new.rows(), old.rows());
        assert_eq!(new.find_by_key(&"Oslo".into()).unwrap()[1], Value::Int(2));
        // Another key order, another length, another schema, the key
        // column itself or a column out of range: nothing moves.
        let blank = || filled(&[("Rome", Value::Null), ("Oslo", Value::Null)]);
        let swapped = filled(&[("Oslo", Value::Int(2)), ("Rome", Value::Int(1))]);
        let longer = filled(&[
            ("Rome", Value::Int(1)),
            ("Oslo", Value::Int(2)),
            ("Bern", Value::Null),
        ]);
        let mut renamed = Table::new(
            "city",
            TableSchema::new(
                vec![
                    Column::new("name", DataType::Text),
                    Column::nullable("area", DataType::Int),
                ],
                "name",
            )
            .unwrap(),
        );
        for row in old.rows() {
            renamed.insert(row.clone()).unwrap();
        }
        for (other, columns) in [
            (&swapped, &[1][..]),
            (&longer, &[1]),
            (&renamed, &[1]),
            (&old, &[0]),
            (&old, &[2]),
        ] {
            let mut new = blank();
            assert!(!new.merge_columns(other, columns));
            assert_eq!(new.rows(), blank().rows());
        }
        assert!(
            blank().merge_columns(&old, &[]),
            "no column is every column"
        );
        let text = "Rome".len() + "Oslo".len();
        assert_eq!(
            old.bytes(),
            2 * 2 * std::mem::size_of::<Value>() + text + 8 * std::mem::size_of::<u32>()
        );
    }

    #[test]
    fn plan_schema_uses_binding() {
        let t = city_table();
        let ps = t.plan_schema(&"c".into());
        assert_eq!(ps.columns[0].binding.as_deref(), Some("c"));
        assert_eq!(ps.arity(), 2);
    }
}
