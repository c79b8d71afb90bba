//! The key index of `Table` against the linear scan it replaced, and the
//! shared-storage `Catalog`.

use galois_relational::{Catalog, Column, DataType, Row, Table, TableSchema, Value};
use proptest::prelude::*;

fn schema(key_type: DataType) -> TableSchema {
    TableSchema::new(
        vec![
            Column::new("k", key_type),
            Column::nullable("v", DataType::Int),
        ],
        "k",
    )
    .unwrap()
}

/// `Table::insert` as it was before the index: the same checks, with key
/// uniqueness by a scan over every stored row.
fn linear_insert(schema: &TableSchema, rows: &mut Vec<Row>, row: Row) -> bool {
    let well_formed = row.len() == schema.arity()
        && row
            .iter()
            .zip(&schema.columns)
            .all(|(v, c)| match v.data_type() {
                None => c.nullable,
                Some(t) => t == c.data_type,
            });
    if !well_formed || rows.iter().any(|r| r[schema.key] == row[schema.key]) {
        return false;
    }
    rows.push(row);
    true
}

fn linear_find<'a>(schema: &TableSchema, rows: &'a [Row], key: &Value) -> Option<&'a Row> {
    rows.iter().find(|r| &r[schema.key] == key)
}

/// Keys that look alike: numerics equal across `Int`/`Float`, the two
/// zeroes, NaN, case-distinct text, NULL.
fn key_domain() -> Vec<Value> {
    let mut keys = vec![Value::Null, Value::Bool(true)];
    keys.extend((-2..=2).map(Value::Int));
    keys.extend([-2.0, -0.0, 0.0, 1.0, 1.5, 2.0, f64::NAN].map(Value::Float));
    keys.extend(["Rome", "rome", "ROME", "Oslo", ""].map(Value::from));
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Over any sequence of candidate rows the indexed table accepts and
    /// rejects exactly what the linear scan did, stores the accepted rows
    /// in insertion order, and answers every lookup the same way.
    #[test]
    fn index_agrees_with_linear_scan(
        key_type in prop::sample::select(vec![DataType::Int, DataType::Float, DataType::Text]),
        candidates in prop::collection::vec(
            (prop::sample::select(key_domain()), 0usize..3), 0..40),
    ) {
        let schema = schema(key_type);
        let mut table = Table::new("t", schema.clone());
        let mut reference: Vec<Row> = Vec::new();
        for (i, (key, shape)) in candidates.into_iter().enumerate() {
            let row = match shape {
                0 => vec![key],
                1 => vec![key, Value::Null],
                _ => vec![key, Value::Int(i as i64)],
            };
            let accepted = linear_insert(&schema, &mut reference, row.clone());
            prop_assert_eq!(table.insert(row).is_ok(), accepted);
        }
        prop_assert_eq!(table.rows(), reference.as_slice());
        for probe in key_domain() {
            prop_assert_eq!(
                table.find_by_key(&probe),
                linear_find(&schema, &reference, &probe)
            );
        }
    }
}

#[test]
fn alike_keys_are_told_apart_as_the_scan_told_them() {
    // An INT key column refuses a FLOAT on type, yet a FLOAT probe finds
    // the equal INT key.
    let mut ints = Table::new("i", schema(DataType::Int));
    ints.insert(vec![Value::Int(1), Value::Int(10)]).unwrap();
    assert!(ints.insert(vec![Value::Float(1.0), Value::Null]).is_err());
    assert!(ints.insert(vec![Value::Int(1), Value::Null]).is_err());
    assert_eq!(
        ints.find_by_key(&Value::Float(1.0)).unwrap()[1],
        Value::Int(10)
    );
    // The two zeroes hash alike and compare apart: both are stored.
    let mut floats = Table::new("f", schema(DataType::Float));
    floats
        .insert(vec![Value::Float(0.0), Value::Int(1)])
        .unwrap();
    floats
        .insert(vec![Value::Float(-0.0), Value::Int(2)])
        .unwrap();
    assert!(floats
        .insert(vec![Value::Float(-0.0), Value::Null])
        .is_err());
    assert_eq!(
        floats.find_by_key(&Value::Float(-0.0)).unwrap()[1],
        Value::Int(2)
    );
    // Text keys are case-sensitive.
    let mut texts = Table::new("t", schema(DataType::Text));
    texts.insert(vec!["Rome".into(), Value::Null]).unwrap();
    texts.insert(vec!["rome".into(), Value::Null]).unwrap();
    assert!(texts.insert(vec!["Rome".into(), Value::Null]).is_err());
    assert_eq!(texts.len(), 2);
}

#[test]
fn rows_keep_insertion_order_while_the_index_grows() {
    let mut table = Table::new("t", schema(DataType::Int));
    // A permutation of 0..1000 (7 is coprime with 1000).
    let keys: Vec<i64> = (0..1000).map(|i| (i * 7) % 1000).collect();
    for (pos, k) in keys.iter().enumerate() {
        table
            .insert(vec![Value::Int(*k), Value::Int(pos as i64)])
            .unwrap();
    }
    let stored: Vec<i64> = table
        .rows()
        .iter()
        .map(|r| match r[0] {
            Value::Int(k) => k,
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(stored, keys);
    for (pos, k) in keys.iter().enumerate() {
        assert_eq!(
            table.find_by_key(&Value::Int(*k)).unwrap()[1],
            Value::Int(pos as i64)
        );
    }
    assert!(table.find_by_key(&Value::Int(1000)).is_none());
}

fn two_table_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    for name in ["a", "b"] {
        let mut t = Table::new(name, schema(DataType::Int));
        t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        catalog.add_table(t).unwrap();
    }
    catalog
}

#[test]
fn cloned_catalog_shares_row_storage() {
    let original = two_table_catalog();
    let clone = original.clone();
    for name in ["a", "b"] {
        assert!(std::ptr::eq(
            original.get(name).unwrap(),
            clone.get(name).unwrap()
        ));
    }
}

#[test]
fn get_mut_on_a_clone_copies_on_write() {
    let original = two_table_catalog();
    let mut overlay = original.clone();
    overlay
        .get_mut("a")
        .unwrap()
        .insert(vec![Value::Int(2), Value::Null])
        .unwrap();
    overlay
        .add_table(Table::new("temp", schema(DataType::Text)))
        .unwrap();
    assert_eq!(overlay.get("a").unwrap().len(), 2);
    assert_eq!(original.get("a").unwrap().len(), 1);
    assert!(original.get("temp").is_err());
    // The untouched table is still shared; the written one no longer is.
    assert!(std::ptr::eq(
        original.get("b").unwrap(),
        overlay.get("b").unwrap()
    ));
    assert!(!std::ptr::eq(
        original.get("a").unwrap(),
        overlay.get("a").unwrap()
    ));
    // Sole owner: mutation in place, no copy.
    let mut sole = two_table_catalog();
    let before: *const Table = sole.get("a").unwrap();
    sole.get_mut("a")
        .unwrap()
        .insert(vec![Value::Int(2), Value::Null])
        .unwrap();
    assert!(std::ptr::eq(before, sole.get("a").unwrap()));
}
