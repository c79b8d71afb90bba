//! Microbenchmarks for the statement front end: the SQL printer (parse →
//! print → parse), the lexer, and planning a statement on a warmed
//! serving session of the seed-42 world — `plan/{scan,join}` (parse,
//! bind, optimise, compile, cost-based plan choice) and `explain/join`
//! (the same plus the `EXPLAIN` report). Lexing and parsing the whole
//! suite are `galois_benchmark`'s `sql.tokenize_ns_per_query` and
//! `sql.parse_ns_per_query`; its `frontend` workload times `EXPLAIN`
//! end to end.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use galois_core::GaloisOptions;
use galois_dataset::Scenario;
use galois_llm::ModelProfile;
use galois_sql::{lexer::tokenize, parse};

const COMPLEX: &str = "SELECT c.name, k.gdp, COUNT(*), AVG(c.population) \
    FROM city c, country k \
    WHERE c.country = k.name AND c.population BETWEEN 100000 AND 5000000 \
    AND c.name LIKE 'S%' AND k.continent IN ('Euralia', 'Meridia') \
    GROUP BY c.name, k.gdp HAVING COUNT(*) > 1 \
    ORDER BY AVG(c.population) DESC, c.name LIMIT 10";

const SCAN: &str = "SELECT name, population FROM city WHERE population > 1000000";

const JOIN: &str = "SELECT p.name, r.birthDate FROM city p, cityMayor r WHERE p.mayor = r.name";

fn bench_printer(c: &mut Criterion) {
    c.bench_function("roundtrip_complex", |b| {
        let stmt = parse(COMPLEX).unwrap();
        b.iter(|| parse(&black_box(&stmt).to_string()).unwrap())
    });
    c.bench_function("lex_complex", |b| {
        b.iter(|| tokenize(black_box(COMPLEX)).unwrap())
    });
}

/// Planning on a serving session that has run the suite once, so the
/// planner reads the warm key universes the way a serving statement does.
fn bench_planning(c: &mut Criterion) {
    let scenario = Scenario::generate(42);
    let session =
        galois_bench::fresh_session(&scenario, &ModelProfile::oracle(), GaloisOptions::serving());
    for query in &scenario.suite {
        session.execute(&query.to_sql()).unwrap();
    }
    for (name, sql) in [("plan/scan", SCAN), ("plan/join", JOIN)] {
        c.bench_function(name, |b| b.iter(|| session.plan(black_box(sql)).unwrap()));
    }
    c.bench_function("explain/join", |b| {
        b.iter(|| session.explain(black_box(JOIN)).unwrap())
    });
}

criterion_group!(benches, bench_printer, bench_planning);
criterion_main!(benches);
