//! The binder's answers. Each statement it must reject maps to its exact
//! error text, so a change to how the builder resolves names, lowers
//! expressions or checks a clause keeps every message byte for byte. A
//! statement without FROM binds over the one-row dual scan like any
//! other: every clause applies to it, and it reads as the same statement
//! over a one-row table that it never names.

use galois_relational::{Column, DataType, Database, Table, TableSchema};
use proptest::prelude::*;

/// `city(name, country, population)` and `country(name, gdp)`, one row each.
fn database() -> Database {
    let mut db = Database::new();
    let mut city = Table::new(
        "city",
        TableSchema::new(
            vec![
                Column::new("name", DataType::Text),
                Column::new("country", DataType::Text),
                Column::new("population", DataType::Int),
            ],
            "name",
        )
        .unwrap(),
    );
    city.insert(vec!["Rome".into(), "Italy".into(), 2_800_000.into()])
        .unwrap();
    db.add_table(city).unwrap();
    let mut country = Table::new(
        "country",
        TableSchema::new(
            vec![
                Column::new("name", DataType::Text),
                Column::new("gdp", DataType::Float),
            ],
            "name",
        )
        .unwrap(),
    );
    country.insert(vec!["Italy".into(), 2.1.into()]).unwrap();
    db.add_table(country).unwrap();
    db
}

/// Every statement the binder rejects, with the error it names.
const REJECTED: &[(&str, &str)] = &[
    ("SELECT name FROM nowhere", "unknown table 'nowhere'"),
    ("SELECT missing FROM city", "unknown column 'missing'"),
    ("SELECT x.name FROM city", "unknown column 'x.name'"),
    ("SELECT name FROM city, country", "ambiguous column 'name'"),
    ("SELECT x.* FROM city", "unknown table 'x'"),
    (
        "SELECT name FROM city WHERE COUNT(*) > 1",
        "invalid query: aggregate COUNT not allowed here",
    ),
    (
        "SELECT COUNT(*) FROM city GROUP BY COUNT(*)",
        "invalid query: aggregate function in GROUP BY",
    ),
    (
        "SELECT c.name FROM city c JOIN country k ON COUNT(*) = 1",
        "invalid query: aggregate COUNT not allowed here",
    ),
    (
        "SELECT SUM(COUNT(*)) FROM city",
        "invalid query: nested aggregate functions",
    ),
    (
        "SELECT SUM(*) FROM city",
        "invalid query: SUM(*) is not valid",
    ),
    (
        "SELECT SUM(name) FROM city",
        "type mismatch: SUM expects a numeric argument, got TEXT",
    ),
    (
        "SELECT COUNT(name, country) FROM city",
        "invalid query: COUNT takes exactly one argument",
    ),
    (
        "SELECT UPPER(name) FROM city",
        "invalid query: unknown function UPPER",
    ),
    (
        "SELECT UPPER(country) FROM city GROUP BY country",
        "invalid query: unknown function UPPER",
    ),
    (
        "SELECT name, COUNT(*) FROM city GROUP BY country",
        "invalid query: column 'name' must appear in GROUP BY or inside an aggregate",
    ),
    (
        "SELECT country FROM city GROUP BY country HAVING population > 1",
        "invalid query: column 'population' must appear in GROUP BY or inside an aggregate",
    ),
    (
        "SELECT country FROM city GROUP BY country ORDER BY population",
        "invalid query: column 'population' must appear in GROUP BY or inside an aggregate",
    ),
    (
        "SELECT DISTINCT country FROM city ORDER BY population",
        "invalid query: for SELECT DISTINCT, ORDER BY expressions must appear in the select list",
    ),
    (
        "SELECT DISTINCT country FROM city GROUP BY country ORDER BY COUNT(*)",
        "invalid query: for SELECT DISTINCT, ORDER BY expressions must appear in the select list",
    ),
    (
        "SELECT * FROM city GROUP BY country",
        "invalid query: wildcard in aggregate query",
    ),
    ("SELECT *", "invalid query: wildcard without FROM clause"),
    ("SELECT 1, *", "invalid query: wildcard without FROM clause"),
    ("SELECT missing", "unknown column 'missing'"),
    (
        "SELECT 1 + 'a'",
        "type mismatch: operator + cannot combine INT and TEXT",
    ),
    (
        "SELECT name + 1 FROM city",
        "type mismatch: operator + cannot combine TEXT and INT",
    ),
    (
        "SELECT name FROM city WHERE population",
        "type mismatch: WHERE must be a boolean expression",
    ),
    (
        "SELECT country FROM city GROUP BY country HAVING COUNT(*)",
        "type mismatch: HAVING must be a boolean expression",
    ),
    (
        "SELECT c.name FROM city c JOIN country k ON k.gdp",
        "type mismatch: JOIN ON must be a boolean expression",
    ),
    (
        "SELECT name FROM city, city",
        "invalid query: duplicate table binding 'city'",
    ),
    (
        "SELECT c.name FROM city c JOIN country c ON c.name = c.name",
        "invalid query: duplicate table binding 'c'",
    ),
];

#[test]
fn every_rejected_statement_names_its_error() {
    let db = database();
    let mut wrong = Vec::new();
    for &(sql, expected) in REJECTED {
        let got = match db.plan(sql) {
            Ok(plan) => format!("planned:\n{}", plan.explain()),
            Err(e) => e.to_string(),
        };
        if got != expected {
            wrong.push(format!("    ({sql:?}, {got:?}),"));
        }
    }
    assert!(wrong.is_empty(), "\n{}", wrong.join("\n"));
}

/// A statement's rows, or its error text: what two statements are
/// compared by.
fn outcome(db: &Database, sql: &str) -> Result<String, String> {
    db.execute(sql)
        .map(|r| format!("{:?} {:?}", r.column_names(), r.rows))
        .map_err(|e| e.to_string())
}

fn rows(sql: &str) -> usize {
    database()
        .execute(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .len()
}

#[test]
fn a_select_without_from_applies_every_clause() {
    for (sql, expected) in [
        ("SELECT 1", 1),
        ("SELECT 1 WHERE 1 = 0", 0),
        ("SELECT 1 WHERE 1 = 1", 1),
        ("SELECT 1 LIMIT 0", 0),
        ("SELECT 1 LIMIT 1 OFFSET 1", 0),
        ("SELECT DISTINCT 1 AS a ORDER BY a", 1),
        ("SELECT COUNT(*) WHERE 1 = 0", 1),
        ("SELECT 1 GROUP BY 1", 1),
        ("SELECT 1 WHERE 1 = 0 GROUP BY 1", 0),
        ("SELECT SUM(2) HAVING SUM(2) > 5", 0),
    ] {
        assert_eq!(rows(sql), expected, "{sql}");
    }
    let db = database();
    assert_eq!(
        outcome(&db, "SELECT COUNT(*)"),
        Ok(r#"["COUNT(*)"] [[Int(1)]]"#.into())
    );
    assert_eq!(
        outcome(&db, "SELECT COUNT(*) AS n, MIN(3) WHERE 1 = 0"),
        Ok(r#"["n", "MIN(3)"] [[Int(0), Null]]"#.into())
    );
}

#[test]
fn a_having_makes_the_statement_grouped() {
    let db = database();
    assert_eq!(
        outcome(&db, "SELECT name FROM city HAVING 1 = 0"),
        Err("invalid query: column 'name' must appear in GROUP BY or inside an aggregate".into())
    );
    assert_eq!(rows("SELECT 1 HAVING 1 = 0"), 0);
    assert_eq!(rows("SELECT 1 HAVING 1 = 1"), 1);
    assert_eq!(rows("SELECT COUNT(*) FROM city HAVING 1 = 0"), 0);
}

#[test]
fn the_dual_scan_is_estimated_at_one_row() {
    let text = database().explain("SELECT 1 + 2 AS three").unwrap();
    assert!(
        text.lines().all(|line| line.ends_with("(rows≈1)")),
        "{text}"
    );
}

/// The case's private SplitMix64 stream.
struct Gen(u64);

impl Gen {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }
}

/// A SELECT over literals only, drawn from one `u64`, without its FROM
/// clause: the select list, then every clause after FROM.
fn literal_select(seed: u64) -> (String, String) {
    const ITEMS: &[&str] = &[
        "1",
        "2 + 3",
        "-4",
        "'a'",
        "NULL",
        "1 = 1",
        "COUNT(*)",
        "SUM(2)",
        "SUM(1 + 1)",
        "MIN(3)",
        "MIN(-1)",
    ];
    const PREDICATES: &[&str] = &[
        "1 = 1",
        "1 = 0",
        "2 > 1",
        "'ab' LIKE 'a%'",
        "NULL IS NULL",
        "3 BETWEEN 1 AND 2",
        "1 IN (1, 2)",
        "NOT 1 = 1",
    ];
    const HAVING: &[&str] = &[
        "COUNT(*) > 0",
        "COUNT(*) = 0",
        "1 = 0",
        "SUM(2) >= 2",
        "MIN(3) = 3",
    ];
    let mut g = Gen(seed);
    let mut select = String::from("SELECT ");
    if g.chance(25) {
        select.push_str("DISTINCT ");
    }
    let items = 1 + g.below(3);
    for i in 0..items {
        if i > 0 {
            select.push_str(", ");
        }
        select.push_str(g.pick(ITEMS));
        if g.chance(30) {
            select.push_str(&format!(" AS c{i}"));
        }
    }
    let mut clauses = String::new();
    if g.chance(50) {
        clauses.push_str(&format!(" WHERE {}", g.pick(PREDICATES)));
    }
    if g.chance(30) {
        clauses.push_str(&format!(" GROUP BY {}", g.pick(&["1", "'g'", "2 + 3"])));
    }
    if g.chance(30) {
        clauses.push_str(&format!(" HAVING {}", g.pick(HAVING)));
    }
    if g.chance(30) {
        let key = match g.below(3) {
            0 => format!("c{}", g.below(items)),
            1 => g.pick(ITEMS).to_string(),
            _ => "1".to_string(),
        };
        clauses.push_str(&format!(" ORDER BY {key} {}", g.pick(&["ASC", "DESC"])));
    }
    if g.chance(40) {
        clauses.push_str(&format!(" LIMIT {}", g.below(3)));
        if g.chance(50) {
            clauses.push_str(&format!(" OFFSET {}", g.below(2)));
        }
    }
    (select, clauses)
}

/// A one-row table whose one column no drawn statement names.
fn one_row() -> Database {
    let mut db = Database::new();
    let mut t = Table::new(
        "one",
        TableSchema::new(vec![Column::new("z", DataType::Int)], "z").unwrap(),
    );
    t.insert(vec![7.into()]).unwrap();
    db.add_table(t).unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A statement that reads no column returns the same rows, or fails
    /// with the same error, whether it has no FROM or reads a one-row
    /// table: a table-less SELECT binds over the one-row dual scan.
    #[test]
    fn a_select_without_from_reads_as_over_a_one_row_table(seed in any::<u64>()) {
        let db = one_row();
        let (select, clauses) = literal_select(seed);
        let bare = format!("{select}{clauses}");
        let over_one = format!("{select} FROM one{clauses}");
        prop_assert_eq!(outcome(&db, &bare), outcome(&db, &over_one), "{}", bare);
    }
}

/// The drawn statements are not vacuous: most return rows, some none,
/// and some are rejected.
#[test]
fn drawn_literal_selects_reach_rows_empty_results_and_errors() {
    let db = one_row();
    let (mut full, mut empty, mut failed) = (0, 0, 0);
    for seed in 0..400 {
        let (select, clauses) = literal_select(seed);
        match db.execute(&format!("{select} FROM one{clauses}")) {
            Ok(r) if r.is_empty() => empty += 1,
            Ok(_) => full += 1,
            Err(_) => failed += 1,
        }
    }
    assert!(
        full > 200 && empty > 40 && failed > 0,
        "{full} {empty} {failed}"
    );
}
