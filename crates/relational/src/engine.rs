//! End-to-end SQL execution: the `Database` façade.

use crate::builder::plan_select;
use crate::error::Result;
use crate::exec::{execute, Relation};
use crate::optimizer::optimize;
use crate::plan::LogicalPlan;
use crate::table::{Catalog, Table};
use galois_sql::parse;

/// An in-memory database: a catalog plus parse→plan→optimize→execute glue.
///
/// This is the component that produces the paper's ground-truth result
/// `R_D`, and whose planner Galois reuses for its chain-of-prompt
/// decomposition (the paper used DuckDB for the same purpose).
#[derive(Debug, Default, Clone)]
pub struct Database {
    catalog: Catalog,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Registers a table.
    pub fn add_table(&mut self, table: Table) -> Result<()> {
        self.catalog.add_table(table)
    }

    /// Shared catalog access.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Plans an already-parsed SELECT: name resolution plus the optimizer
    /// pass. The single entry every SQL-text path (here and in the Galois
    /// session) funnels through.
    pub fn plan_statement(&self, select: &galois_sql::SelectStatement) -> Result<LogicalPlan> {
        Ok(optimize(plan_select(select, &self.catalog)?))
    }

    /// Parses and plans a query without executing it. For an `EXPLAIN`
    /// statement this plans the explained query.
    pub fn plan(&self, sql: &str) -> Result<LogicalPlan> {
        self.plan_statement(parse(sql)?.select())
    }

    /// Plans without the optimizer pass (used by tests and by ablations).
    pub fn plan_unoptimized(&self, sql: &str) -> Result<LogicalPlan> {
        let stmt = parse(sql)?;
        plan_select(stmt.select(), &self.catalog)
    }

    /// Runs a query end to end. An `EXPLAIN <query>` statement is not
    /// executed; it returns the cost-annotated plan as a one-column
    /// `QUERY PLAN` relation, the way interactive databases do.
    pub fn execute(&self, sql: &str) -> Result<Relation> {
        let stmt = parse(sql)?;
        let plan = self.plan_statement(stmt.select())?;
        if stmt.is_explain() {
            return Ok(crate::cost::explain_relation(
                &crate::cost::explain_with_rows(&plan, &self.catalog),
            ));
        }
        execute(&plan, &self.catalog)
    }

    /// Runs an already-built plan.
    pub fn execute_plan(&self, plan: &LogicalPlan) -> Result<Relation> {
        execute(plan, &self.catalog)
    }

    /// Returns the optimized plan rendered as an indented tree, with a
    /// `(rows≈N)` cardinality estimate per operator (see [`crate::cost`]).
    pub fn explain(&self, sql: &str) -> Result<String> {
        let plan = self.plan(sql)?;
        Ok(crate::cost::explain_with_rows(&plan, &self.catalog))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::value::{DataType, Value};

    fn sample_db() -> Database {
        let mut db = Database::new();
        let mut city = Table::new(
            "city",
            TableSchema::new(
                vec![
                    Column::new("name", DataType::Text),
                    Column::new("country", DataType::Text),
                    Column::nullable("population", DataType::Int),
                ],
                "name",
            )
            .unwrap(),
        );
        for (n, c, p) in [
            ("Rome", "Italy", Some(2_800_000)),
            ("Milan", "Italy", Some(1_400_000)),
            ("Paris", "France", Some(2_100_000)),
            ("Lyon", "France", Some(500_000)),
            ("Berlin", "Germany", None),
        ] {
            city.insert(vec![
                n.into(),
                c.into(),
                p.map(Value::Int).unwrap_or(Value::Null),
            ])
            .unwrap();
        }
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
        for (n, g) in [("Italy", 2.1), ("France", 2.9), ("Spain", 1.4)] {
            country.insert(vec![n.into(), Value::Float(g)]).unwrap();
        }
        db.add_table(country).unwrap();
        db
    }

    #[test]
    fn select_filter_project() {
        let db = sample_db();
        let r = db
            .execute("SELECT name FROM city WHERE population > 1000000")
            .unwrap();
        let names: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
        assert_eq!(names, vec!["Rome", "Milan", "Paris"]);
    }

    #[test]
    fn limit_offset_windows_the_result() {
        let db = sample_db();
        let r = db
            .execute("SELECT name FROM city ORDER BY name LIMIT 2 OFFSET 1")
            .unwrap();
        let names: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
        assert_eq!(names, vec!["Lyon", "Milan"]);
        // An offset past the end yields nothing rather than erroring.
        let r = db
            .execute("SELECT name FROM city LIMIT 3 OFFSET 10")
            .unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn comma_join_becomes_hash_join() {
        let db = sample_db();
        let plan = db
            .plan("SELECT c.name FROM city c, country k WHERE c.country = k.name")
            .unwrap();
        let stats = crate::optimizer::plan_stats(&plan);
        assert_eq!(stats.cross_joins, 0, "plan: {}", plan.explain());
        assert_eq!(stats.joins, 1);
        let r = db
            .execute("SELECT c.name FROM city c, country k WHERE c.country = k.name")
            .unwrap();
        assert_eq!(r.len(), 4); // Berlin's Germany not in country table
    }

    #[test]
    fn filter_pushdown_below_join() {
        let db = sample_db();
        let plan = db
            .plan(
                "SELECT c.name FROM city c, country k \
                 WHERE c.country = k.name AND k.gdp > 2.5 AND c.population > 1000000",
            )
            .unwrap();
        // Both single-table conjuncts must sit below the join.
        let text = plan.explain();
        let join_pos = text.find("JOIN").unwrap();
        let gdp_pos = text.find("gdp").unwrap();
        let pop_pos = text.find("population").unwrap();
        assert!(gdp_pos > join_pos && pop_pos > join_pos, "{text}");
        let r = db
            .execute(
                "SELECT c.name FROM city c, country k \
                 WHERE c.country = k.name AND k.gdp > 2.5 AND c.population > 1000000",
            )
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0].render(), "Paris");
    }

    #[test]
    fn group_by_having_order() {
        let db = sample_db();
        let r = db
            .execute(
                "SELECT country, COUNT(*), AVG(population) FROM city \
                 GROUP BY country HAVING COUNT(*) >= 2 ORDER BY country",
            )
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][0].render(), "France");
        assert_eq!(r.rows[0][1], Value::Int(2));
        assert_eq!(r.rows[0][2], Value::Float(1_300_000.0));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let db = sample_db();
        let r = db
            .execute("SELECT COUNT(*), SUM(population) FROM city WHERE name = 'Nowhere'")
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert!(r.rows[0][1].is_null());
    }

    #[test]
    fn count_skips_nulls_count_star_does_not() {
        let db = sample_db();
        let r = db
            .execute("SELECT COUNT(*), COUNT(population) FROM city")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(5));
        assert_eq!(r.rows[0][1], Value::Int(4));
    }

    #[test]
    fn count_distinct() {
        let db = sample_db();
        let r = db
            .execute("SELECT COUNT(DISTINCT country) FROM city")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3));
    }

    #[test]
    fn order_by_hidden_column() {
        let db = sample_db();
        let r = db
            .execute("SELECT name FROM city WHERE population IS NOT NULL ORDER BY population DESC LIMIT 2")
            .unwrap();
        assert_eq!(r.schema.arity(), 1);
        let names: Vec<String> = r.rows.iter().map(|x| x[0].render()).collect();
        assert_eq!(names, vec!["Rome", "Paris"]);
    }

    #[test]
    fn order_by_alias() {
        let db = sample_db();
        let r = db
            .execute("SELECT name, population AS pop FROM city WHERE population IS NOT NULL ORDER BY pop")
            .unwrap();
        assert_eq!(r.rows[0][0].render(), "Lyon");
    }

    #[test]
    fn distinct_rows() {
        let db = sample_db();
        let r = db.execute("SELECT DISTINCT country FROM city").unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn distinct_with_hidden_sort_is_rejected() {
        let db = sample_db();
        assert!(db
            .execute("SELECT DISTINCT country FROM city ORDER BY population")
            .is_err());
    }

    #[test]
    fn explicit_join_syntax() {
        let db = sample_db();
        let r = db
            .execute(
                "SELECT c.name, k.gdp FROM city c JOIN country k ON c.country = k.name \
                 WHERE k.gdp > 2.0 ORDER BY c.name",
            )
            .unwrap();
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let db = sample_db();
        let r = db
            .execute("SELECT c.name, k.gdp FROM city c LEFT JOIN country k ON c.country = k.name")
            .unwrap();
        assert_eq!(r.len(), 5);
        let berlin = r
            .rows
            .iter()
            .find(|row| row[0].render() == "Berlin")
            .unwrap();
        assert!(berlin[1].is_null());
    }

    #[test]
    fn table_less_select() {
        let db = Database::new();
        let r = db.execute("SELECT 1 + 2 AS three, 'x'").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(3));
        assert_eq!(r.rows[0][1].render(), "x");
    }

    #[test]
    fn non_grouped_column_is_rejected() {
        let db = sample_db();
        let err = db
            .execute("SELECT name, COUNT(*) FROM city GROUP BY country")
            .unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn qualified_and_bare_group_key_unify() {
        let db = sample_db();
        let r = db
            .execute("SELECT c.country FROM city c GROUP BY country ORDER BY c.country")
            .unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn unknown_column_and_table_errors() {
        let db = sample_db();
        assert!(db.execute("SELECT missing FROM city").is_err());
        assert!(db.execute("SELECT name FROM nowhere").is_err());
        assert!(db.execute("SELECT x.name FROM city c").is_err());
    }

    #[test]
    fn duplicate_binding_rejected() {
        let db = sample_db();
        assert!(db.execute("SELECT c.name FROM city c, country c").is_err());
    }

    #[test]
    fn where_type_error() {
        let db = sample_db();
        assert!(db
            .execute("SELECT name FROM city WHERE population")
            .is_err());
        assert!(db
            .execute("SELECT name FROM city WHERE name > population")
            .is_err());
    }

    #[test]
    fn explain_has_scan_and_filter() {
        let db = sample_db();
        let text = db
            .explain("SELECT name FROM city WHERE population > 5")
            .unwrap();
        assert!(text.contains("Scan city"));
        assert!(text.contains("Filter"));
        assert!(text.contains("Project"));
        assert!(text.contains("rows≈"));
    }

    /// A statement without FROM reads the one-row "dual" scan, which the
    /// plan names rather than printing an empty table and binding.
    #[test]
    fn explain_names_the_dual_scan() {
        let db = sample_db();
        assert_eq!(
            db.explain("SELECT 1").unwrap(),
            "Project 1 AS 1  (rows≈1)\n  Dual  (rows≈1)\n"
        );
    }

    #[test]
    fn explain_statement_returns_plan_relation() {
        let db = sample_db();
        let r = db
            .execute("EXPLAIN SELECT name FROM city WHERE population > 5")
            .unwrap();
        assert_eq!(r.schema.arity(), 1);
        assert_eq!(&*r.schema.columns[0].name, "QUERY PLAN");
        let text: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
        assert!(text.iter().any(|l| l.contains("Scan city")));
        assert!(text.iter().any(|l| l.contains("rows≈")));
        // Same query without EXPLAIN executes normally.
        assert_eq!(
            db.execute("SELECT name FROM city WHERE population > 5")
                .unwrap()
                .len(),
            4
        );
    }

    #[test]
    fn limit_zero() {
        let db = sample_db();
        let r = db.execute("SELECT name FROM city LIMIT 0").unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn aggregate_in_where_rejected() {
        let db = sample_db();
        assert!(db
            .execute("SELECT name FROM city WHERE COUNT(*) > 1")
            .is_err());
    }

    #[test]
    fn unknown_function_beside_an_aggregate_is_an_error_not_a_panic() {
        let db = sample_db();
        for sql in [
            "SELECT UPPER(name), COUNT(*) FROM city GROUP BY name",
            "SELECT country FROM city GROUP BY country ORDER BY FOO(1)",
        ] {
            let err = db.execute(sql).unwrap_err();
            assert!(err.to_string().contains("unknown function"), "{sql}: {err}");
        }
    }

    #[test]
    fn in_and_like_and_between() {
        let db = sample_db();
        let r = db
            .execute(
                "SELECT name FROM city WHERE country IN ('Italy', 'France') \
                 AND name LIKE '%o%' AND population BETWEEN 400000 AND 3000000 ORDER BY name",
            )
            .unwrap();
        let names: Vec<String> = r.rows.iter().map(|x| x[0].render()).collect();
        assert_eq!(names, vec!["Lyon", "Rome"]);
    }

    #[test]
    fn arithmetic_in_projection() {
        let db = sample_db();
        let r = db
            .execute("SELECT name, population / 1000000 FROM city WHERE name = 'Rome'")
            .unwrap();
        assert_eq!(r.rows[0][1], Value::Float(2.8));
    }

    #[test]
    fn min_max_on_text_and_dates() {
        let db = sample_db();
        let r = db.execute("SELECT MIN(name), MAX(name) FROM city").unwrap();
        assert_eq!(r.rows[0][0].render(), "Berlin");
        assert_eq!(r.rows[0][1].render(), "Rome");
    }

    #[test]
    fn sum_avg_reject_text() {
        let db = sample_db();
        assert!(db.execute("SELECT SUM(name) FROM city").is_err());
        assert!(db.execute("SELECT AVG(name) FROM city").is_err());
    }

    #[test]
    fn order_by_aggregate_not_in_select() {
        let db = sample_db();
        let r = db
            .execute("SELECT country FROM city GROUP BY country ORDER BY COUNT(*) DESC, country")
            .unwrap();
        assert_eq!(r.schema.arity(), 1);
        assert_eq!(r.rows[0][0].render(), "France");
    }
}
