//! Microbenchmarks for the relational engine: planning, the physical
//! operators over the ground-truth corpus and over 10⁴-row tables (the
//! size of a serving statement's temporary tables), and the costs of
//! handing retrieved tuples over — keyed insert, the per-query catalog
//! overlay, and a warm step's whole hand-off built from rows against
//! served as the shared table it was last time.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use galois_dataset::Scenario;
use galois_relational::{Column, DataType, Database, Table, TableSchema, Value};

fn bench_planning(c: &mut Criterion) {
    let s = Scenario::generate(42);
    let sql = "SELECT c.name, k.gdp FROM city c, country k \
               WHERE c.country = k.name AND c.population > 500000 ORDER BY k.gdp DESC";
    c.bench_function("plan_join_query", |b| {
        b.iter(|| s.database.plan(black_box(sql)).unwrap())
    });
}

fn bench_execution(c: &mut Criterion) {
    let s = Scenario::generate(42);
    c.bench_function("exec_filter_scan", |b| {
        b.iter(|| {
            s.database
                .execute(black_box("SELECT name FROM city WHERE population > 500000"))
                .unwrap()
        })
    });
    c.bench_function("exec_hash_join", |b| {
        b.iter(|| {
            s.database
                .execute(black_box(
                    "SELECT c.name, k.gdp FROM city c, country k WHERE c.country = k.name",
                ))
                .unwrap()
        })
    });
    c.bench_function("exec_group_aggregate", |b| {
        b.iter(|| {
            s.database
                .execute(black_box(
                    "SELECT country, COUNT(*), AVG(population) FROM city GROUP BY country",
                ))
                .unwrap()
        })
    });
    c.bench_function("exec_sort_limit", |b| {
        b.iter(|| {
            s.database
                .execute(black_box(
                    "SELECT name FROM city ORDER BY population DESC LIMIT 5",
                ))
                .unwrap()
        })
    });
}

fn key_value_schema() -> TableSchema {
    TableSchema::new(
        vec![
            Column::new("name", DataType::Text),
            Column::nullable("population", DataType::Int),
        ],
        "name",
    )
    .expect("static schema")
}

/// Builds an n-row text-keyed table per iteration. Time ÷ n is the cost
/// of one insert, which the key index keeps flat from 10³ to 10⁵ rows.
fn bench_table_insert(c: &mut Criterion) {
    let schema = key_value_schema();
    for (label, n) in [("1e3", 1_000i64), ("1e4", 10_000), ("1e5", 100_000)] {
        c.bench_function(&format!("table_insert/{label}"), |b| {
            b.iter(|| {
                let mut table = Table::new("t", schema.clone());
                for i in 0..n {
                    table
                        .insert(vec![format!("key {i}").into(), Value::Int(i)])
                        .expect("distinct keys");
                }
                table
            })
        });
    }
}

/// The same 10⁴ rows into a table told its size up front: no index
/// doubling, so none of the ≈ 11 re-hashes of every stored row.
fn bench_table_with_capacity(c: &mut Criterion) {
    let schema = std::sync::Arc::new(key_value_schema());
    let n = 10_000i64;
    c.bench_function("table_with_capacity/1e4", |b| {
        b.iter(|| {
            let mut table = Table::with_capacity("t", schema.clone(), n as usize);
            for i in 0..n {
                table
                    .insert(vec![format!("key {i}").into(), Value::Int(i)])
                    .expect("distinct keys");
            }
            table
        })
    });
}

/// `item(name, grp, qty)` with 10⁴ rows over 100 groups, `grp(name,
/// weight)` and `stock(name, population)` with one row per item: what the
/// residual plan of a serving statement runs over — the join on `grp`
/// probes 100 keys, the one on `stock` 10⁴ distinct text keys, the
/// `city ⋈ cityMayor` shape (each joins on its right table's key, so the
/// executor probes that table's key index; the names say hash), the
/// `grp` join with `grp` named first in `FROM` (an index join on the left
/// table's key, since `item` is not keyed on `grp`), and `COUNT(*) FROM
/// city`'s shape, a global aggregate. The plan is built once; the
/// measured part is `execute` alone, whose scans borrow the tables' rows.
fn bench_execution_1e4(c: &mut Criterion) {
    let mut db = Database::new();
    let mut item = Table::new(
        "item",
        TableSchema::new(
            vec![
                Column::new("name", DataType::Text),
                Column::nullable("grp", DataType::Text),
                Column::nullable("qty", DataType::Int),
            ],
            "name",
        )
        .expect("static schema"),
    );
    for i in 0..10_000i64 {
        item.insert(vec![
            format!("item {i}").into(),
            format!("group {}", i % 100).into(),
            Value::Int(i),
        ])
        .expect("distinct keys");
    }
    let mut grp = Table::new("grp", key_value_schema());
    for g in 0..100i64 {
        grp.insert(vec![format!("group {g}").into(), Value::Int(g)])
            .expect("distinct keys");
    }
    let mut stock = Table::new("stock", key_value_schema());
    for i in 0..10_000i64 {
        stock
            .insert(vec![format!("item {i}").into(), Value::Int(i)])
            .expect("distinct keys");
    }
    db.add_table(item).expect("fresh name");
    db.add_table(grp).expect("fresh name");
    db.add_table(stock).expect("fresh name");
    let plans = [
        (
            "exec_scan_filter_project/1e4",
            "SELECT name, qty FROM item WHERE qty < 1000",
        ),
        (
            "exec_like_filter/1e4",
            "SELECT name FROM item WHERE grp LIKE 'group 1%'",
        ),
        (
            "exec_hash_join/1e4",
            "SELECT i.name, g.population FROM item i, grp g WHERE i.grp = g.name",
        ),
        (
            "exec_hash_join_text_keys/1e4",
            "SELECT i.name, s.population FROM item i, stock s WHERE i.name = s.name",
        ),
        (
            "exec_index_join_left/1e4",
            "SELECT i.name, g.population FROM grp g, item i WHERE g.name = i.grp",
        ),
        (
            "exec_group_by/1e4",
            "SELECT grp, COUNT(*), AVG(qty) FROM item GROUP BY grp",
        ),
        (
            "exec_global_aggregate/1e4",
            "SELECT COUNT(*), MAX(qty), AVG(qty) FROM item",
        ),
    ]
    .map(|(name, sql)| (name, db.plan(sql).expect("valid statement")));
    for (name, plan) in plans {
        c.bench_function(name, |b| {
            b.iter(|| db.execute_plan(black_box(&plan)).expect("executes"))
        });
    }
}

/// What every Galois statement pays before its residual plan runs: clone
/// the stored catalog (x40 world, ≈10⁴ rows), add one temporary table,
/// drop the overlay.
fn bench_catalog_overlay(c: &mut Criterion) {
    let s = Scenario::generate_scaled(42, 40);
    let schema = key_value_schema();
    c.bench_function("catalog_overlay/x40", |b| {
        b.iter(|| {
            let mut overlay = s.database.catalog().clone();
            overlay
                .add_table(Table::new("__llm_c", schema.clone()))
                .expect("fresh name");
            overlay
        })
    });
}

/// A warm step's hand-off over the x40 `city` universe with one fetched
/// column, two ways. *Built*: a row per key (the key and the fetched cell
/// cloned out of what the store holds, the other columns NULL), keyed
/// inserts into a table sized up front, the overlay, and the drop of all
/// of it — what every warm statement paid. *Served*: the overlay takes
/// the `Arc` of the table built last time under the step's name.
fn bench_warm_step(c: &mut Criterion) {
    let s = Scenario::generate_scaled(42, 40);
    let city = s.database.catalog().get("city").expect("generated table");
    // The step's temporary schema: the stored one, all but the key nullable.
    let mut schema = TableSchema::clone(&city.schema);
    for (i, column) in schema.columns.iter_mut().enumerate() {
        column.nullable = i != schema.key;
    }
    let schema = std::sync::Arc::new(schema);
    let (key, fetched) = (
        schema.key,
        schema.index_of("population").expect("a city column"),
    );
    let built = || {
        let mut table = Table::with_capacity("__llm_city", schema.clone(), city.len());
        for stored in city.rows() {
            let mut row = vec![Value::Null; schema.arity()];
            row[key] = stored[key].clone();
            row[fetched] = stored[fetched].clone();
            table.insert(row).expect("distinct keys");
        }
        table
    };
    c.bench_function("warm_step/built/x40", |b| {
        b.iter(|| {
            let mut overlay = s.database.catalog().clone();
            overlay.add_table(built()).expect("fresh name");
            overlay
        })
    });
    let relation = std::sync::Arc::new(built());
    c.bench_function("warm_step/served/x40", |b| {
        b.iter(|| {
            let mut overlay = s.database.catalog().clone();
            overlay
                .add_shared("__llm_city", relation.clone())
                .expect("fresh name");
            overlay
        })
    });
}

criterion_group!(
    benches,
    bench_planning,
    bench_execution,
    bench_execution_1e4,
    bench_table_insert,
    bench_table_with_capacity,
    bench_catalog_overlay,
    bench_warm_step
);
criterion_main!(benches);
