//! Microbenchmark for the SQL printer: parse → print → parse. Lexing and
//! parsing alone are `galois_benchmark`'s `sql.tokenize_ns_per_query` and
//! `sql.parse_ns_per_query`; nothing there prints a statement.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use galois_sql::parse;

const COMPLEX: &str = "SELECT c.name, k.gdp, COUNT(*), AVG(c.population) \
    FROM city c, country k \
    WHERE c.country = k.name AND c.population BETWEEN 100000 AND 5000000 \
    AND c.name LIKE 'S%' AND k.continent IN ('Euralia', 'Meridia') \
    GROUP BY c.name, k.gdp HAVING COUNT(*) > 1 \
    ORDER BY AVG(c.population) DESC, c.name LIMIT 10";

fn bench_printer(c: &mut Criterion) {
    c.bench_function("roundtrip_complex", |b| {
        let stmt = parse(COMPLEX).unwrap();
        b.iter(|| parse(&black_box(&stmt).to_string()).unwrap())
    });
}

criterion_group!(benches, bench_printer);
criterion_main!(benches);
