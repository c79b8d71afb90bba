//! Loading the world into its two consumers:
//!
//! * [`to_database`] — lossless relational tables (the paper's Spider
//!   database `D`, used to compute the ground truth `R_D`);
//! * [`to_knowledge`] — the simulated LLM's knowledge store, carrying the
//!   popularity and alias metadata that drive the noise channels.
//!
//! Invariant (tested): for every relation, the set of facts in the
//! knowledge store projects exactly onto the table rows — the *same
//! world*, viewed once as data and once as "memorised text".

use crate::world::World;
use galois_llm::{FactValue, KnowledgeStore};
use galois_relational::{Column, DataType, Database, Date, Table, TableSchema, Value};

/// Builds the ground-truth relational database.
pub fn to_database(world: &World) -> Database {
    let mut db = Database::new();
    add_table(
        &mut db,
        "country",
        &[
            ("name", DataType::Text),
            ("code", DataType::Text),
            ("continent", DataType::Text),
            ("population", DataType::Int),
            ("gdp", DataType::Float),
            ("independenceYear", DataType::Int),
            ("capital", DataType::Text),
        ],
        "name",
        world.countries.iter().map(|c| {
            Ok(vec![
                c.name.clone().into(),
                c.code3.clone().into(),
                c.continent.clone().into(),
                Value::Int(c.population),
                Value::Float(c.gdp),
                Value::Int(c.independence_year),
                world.cities[c.capital].name.clone().into(),
            ])
        }),
    );
    add_table(
        &mut db,
        "city",
        &[
            ("name", DataType::Text),
            ("country", DataType::Text),
            ("population", DataType::Int),
            ("elevation", DataType::Int),
            ("mayor", DataType::Text),
        ],
        "name",
        world.cities.iter().map(|c| {
            Ok(vec![
                c.name.clone().into(),
                world.countries[c.country].name.clone().into(),
                Value::Int(c.population),
                Value::Int(c.elevation),
                world.mayors[c.mayor].name.clone().into(),
            ])
        }),
    );
    add_table(
        &mut db,
        "cityMayor",
        &[
            ("name", DataType::Text),
            ("birthDate", DataType::Date),
            ("electionYear", DataType::Int),
            ("party", DataType::Text),
        ],
        "name",
        world.mayors.iter().map(|m| {
            Ok(vec![
                m.name.clone().into(),
                Value::Date(Date::new(m.birth.0, m.birth.1, m.birth.2)?),
                Value::Int(m.election_year),
                m.party.clone().into(),
            ])
        }),
    );
    add_table(
        &mut db,
        "airport",
        &[
            ("code", DataType::Text),
            ("name", DataType::Text),
            ("city", DataType::Text),
            ("country", DataType::Text),
            ("elevation", DataType::Int),
            ("yearlyPassengers", DataType::Int),
            ("runways", DataType::Int),
        ],
        "code",
        world.airports.iter().map(|a| {
            Ok(vec![
                a.code.clone().into(),
                a.name.clone().into(),
                world.cities[a.city].name.clone().into(),
                world.countries[a.country].name.clone().into(),
                Value::Int(a.elevation),
                Value::Int(a.yearly_passengers),
                Value::Int(a.runways),
            ])
        }),
    );
    add_table(
        &mut db,
        "singer",
        &[
            ("name", DataType::Text),
            ("countryCode", DataType::Text),
            ("birthYear", DataType::Int),
            ("genre", DataType::Text),
            ("netWorth", DataType::Float),
        ],
        "name",
        world.singers.iter().map(|s| {
            Ok(vec![
                s.name.clone().into(),
                world.countries[s.country].code3.clone().into(),
                Value::Int(s.birth_year),
                s.genre.clone().into(),
                Value::Float(s.net_worth),
            ])
        }),
    );
    add_table(
        &mut db,
        "concert",
        &[
            ("name", DataType::Text),
            ("singer", DataType::Text),
            ("year", DataType::Int),
            ("attendance", DataType::Int),
            ("city", DataType::Text),
        ],
        "name",
        world.concerts.iter().map(|c| {
            Ok(vec![
                c.name.clone().into(),
                world.singers[c.singer].name.clone().into(),
                Value::Int(c.year),
                Value::Int(c.attendance),
                world.cities[c.city].name.clone().into(),
            ])
        }),
    );
    add_table(
        &mut db,
        "employees",
        &[
            ("id", DataType::Int),
            ("name", DataType::Text),
            ("countryCode", DataType::Text),
            ("salary", DataType::Float),
        ],
        "id",
        world.employees.iter().map(|e| {
            Ok(vec![
                Value::Int(e.id),
                e.name.clone().into(),
                world.countries[e.country].code3.clone().into(),
                Value::Float(e.salary),
            ])
        }),
    );
    db
}

/// Adds the table `name` to `db`: `columns`, keyed by `key`, holding
/// `rows` in order.
///
/// Every table is a static schema over a generated world, so nothing here
/// can fail on correct code: the schema is well formed, each generated
/// row fits it under a key no other row has (dates included), and no name
/// is added twice. A failure is a bug in the generator.
fn add_table(
    db: &mut Database,
    name: &str,
    columns: &[(&str, DataType)],
    key: &str,
    rows: impl Iterator<Item = galois_relational::Result<Vec<Value>>>,
) {
    let columns = columns.iter().map(|&(c, t)| Column::new(c, t)).collect();
    let built = TableSchema::new(columns, key).and_then(|schema| {
        let mut table = Table::new(name, schema);
        for row in rows {
            table.insert(row?)?;
        }
        db.add_table(table)
    });
    if let Err(e) = built {
        unreachable!("generated table {name}: {e}");
    }
}

/// Builds the simulated LLM's knowledge store. Note what is *absent*: the
/// `employees` data never enters the store — it is enterprise data only
/// the DB knows (Figure 2).
pub fn to_knowledge(world: &World) -> KnowledgeStore {
    let mut kb = KnowledgeStore::new();

    let country_ids: Vec<_> = world
        .countries
        .iter()
        .map(|c| {
            let id = kb.add_entity(&c.name, "country", c.popularity);
            kb.add_alias(id, &c.code2);
            kb.add_alias(id, &c.code3);
            id
        })
        .collect();
    let mayor_ids: Vec<_> = world
        .mayors
        .iter()
        .map(|m| {
            let id = kb.add_entity(&m.name, "mayor", m.popularity);
            kb.add_alias(id, &m.short);
            id
        })
        .collect();
    let city_ids: Vec<_> = world
        .cities
        .iter()
        .map(|c| {
            let id = kb.add_entity(&c.name, "city", c.popularity);
            // City-name variants: "San Brookhaven" ↔ "S. Brookhaven",
            // single-word names gain an informal "<name> City" form. These
            // are the reference-surface variants that break string joins.
            let alias = match c.name.split_once(' ') {
                Some((first, rest)) => format!("{}. {rest}", &first[..1]),
                None => format!("{} City", c.name),
            };
            kb.add_alias(id, alias);
            id
        })
        .collect();
    let airport_ids: Vec<_> = world
        .airports
        .iter()
        .map(|a| kb.add_entity(&a.code, "airport", a.popularity))
        .collect();
    let singer_ids: Vec<_> = world
        .singers
        .iter()
        .map(|s| {
            let id = kb.add_entity(&s.name, "singer", s.popularity);
            kb.add_alias(id, &s.short);
            id
        })
        .collect();
    let concert_ids: Vec<_> = world
        .concerts
        .iter()
        .map(|c| kb.add_entity(&c.name, "concert", c.popularity))
        .collect();

    for (c, id) in world.countries.iter().zip(&country_ids) {
        // `code` is a self-reference: rendering picks a code convention.
        kb.add_fact(*id, "code", FactValue::Entity(*id));
        kb.add_fact(*id, "continent", FactValue::Text(c.continent.clone()));
        kb.add_fact(*id, "population", FactValue::Number(c.population as f64));
        kb.add_fact(*id, "gdp", FactValue::Number(c.gdp));
        kb.add_fact(
            *id,
            "independenceYear",
            FactValue::Number(c.independence_year as f64),
        );
        kb.add_fact(*id, "capital", FactValue::Entity(city_ids[c.capital]));
    }
    for (c, id) in world.cities.iter().zip(&city_ids) {
        kb.add_fact(*id, "country", FactValue::Entity(country_ids[c.country]));
        kb.add_fact(*id, "population", FactValue::Number(c.population as f64));
        kb.add_fact(*id, "elevation", FactValue::Number(c.elevation as f64));
        kb.add_fact(*id, "mayor", FactValue::Entity(mayor_ids[c.mayor]));
    }
    for (m, id) in world.mayors.iter().zip(&mayor_ids) {
        kb.add_fact(
            *id,
            "birthDate",
            FactValue::Date {
                year: m.birth.0,
                month: m.birth.1,
                day: m.birth.2,
            },
        );
        kb.add_fact(
            *id,
            "electionYear",
            FactValue::Number(m.election_year as f64),
        );
        kb.add_fact(*id, "party", FactValue::Text(m.party.clone()));
    }
    for (a, id) in world.airports.iter().zip(&airport_ids) {
        kb.add_fact(*id, "name", FactValue::Text(a.name.clone()));
        kb.add_fact(*id, "city", FactValue::Entity(city_ids[a.city]));
        kb.add_fact(*id, "country", FactValue::Entity(country_ids[a.country]));
        kb.add_fact(*id, "elevation", FactValue::Number(a.elevation as f64));
        kb.add_fact(
            *id,
            "yearlyPassengers",
            FactValue::Number(a.yearly_passengers as f64),
        );
        kb.add_fact(*id, "runways", FactValue::Number(a.runways as f64));
    }
    for (s, id) in world.singers.iter().zip(&singer_ids) {
        kb.add_fact(
            *id,
            "countryCode",
            FactValue::Entity(country_ids[s.country]),
        );
        kb.add_fact(*id, "country", FactValue::Entity(country_ids[s.country]));
        kb.add_fact(*id, "birthYear", FactValue::Number(s.birth_year as f64));
        kb.add_fact(*id, "genre", FactValue::Text(s.genre.clone()));
        kb.add_fact(*id, "netWorth", FactValue::Number(s.net_worth));
    }
    for (c, id) in world.concerts.iter().zip(&concert_ids) {
        kb.add_fact(*id, "singer", FactValue::Entity(singer_ids[c.singer]));
        kb.add_fact(*id, "year", FactValue::Number(c.year as f64));
        kb.add_fact(*id, "attendance", FactValue::Number(c.attendance as f64));
        kb.add_fact(*id, "city", FactValue::Entity(city_ids[c.city]));
    }

    // Relation-name and attribute-label lexicon (schema-ambiguity
    // handling, paper §3 issue 2).
    kb.add_synonym("cityMayor", "mayor");
    kb.add_synonym("mayors", "mayor");
    kb.add_synonym("cities", "city");
    kb.add_synonym("countries", "country");
    kb.add_synonym("airports", "airport");
    kb.add_synonym("singers", "singer");
    kb.add_synonym("concerts", "concert");
    kb.add_synonym("number of residents", "population");
    kb.add_synonym("inhabitants", "population");
    kb.add_synonym("altitude", "elevation");

    kb
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(42)
    }

    #[test]
    fn database_loads_all_tables() {
        let db = to_database(&world());
        assert_eq!(
            db.catalog().table_names(),
            vec![
                "airport",
                "city",
                "cityMayor",
                "concert",
                "country",
                "employees",
                "singer"
            ]
        );
        let w = world();
        assert_eq!(db.catalog().get("city").unwrap().len(), w.cities.len());
        assert_eq!(
            db.catalog().get("employees").unwrap().len(),
            w.employees.len()
        );
    }

    #[test]
    fn knowledge_mirrors_database_rows() {
        let w = world();
        let kb = to_knowledge(&w);
        assert_eq!(kb.entities_of_type("city").len(), w.cities.len());
        assert_eq!(kb.entities_of_type("country").len(), w.countries.len());
        assert_eq!(kb.entities_of_type("mayor").len(), w.mayors.len());
        // Spot-check fact/table agreement.
        let db = to_database(&w);
        let rome = &w.cities[0];
        let row = db
            .catalog()
            .get("city")
            .unwrap()
            .find_by_key(&rome.name.clone().into())
            .unwrap()
            .clone();
        let id = kb.resolve("city", &rome.name).unwrap();
        match kb.fact(id, "population").unwrap() {
            FactValue::Number(n) => assert_eq!(*n as i64, {
                match row[2] {
                    Value::Int(v) => v,
                    _ => panic!("population not int"),
                }
            }),
            other => panic!("unexpected fact {other:?}"),
        }
    }

    #[test]
    fn employees_stay_out_of_the_llm() {
        let kb = to_knowledge(&world());
        assert!(kb.entities_of_type("employee").is_empty());
        assert!(kb.entities_of_type("employees").is_empty());
    }

    #[test]
    fn queries_run_against_ground_truth() {
        let db = to_database(&world());
        let r = db
            .execute("SELECT name FROM city WHERE population > 1000000")
            .unwrap();
        assert!(!r.is_empty());
        let j = db
            .execute("SELECT c.name, m.birthDate FROM city c, cityMayor m WHERE c.mayor = m.name")
            .unwrap();
        assert_eq!(j.len(), db.catalog().get("city").unwrap().len());
    }

    #[test]
    fn relation_synonyms_resolve() {
        let kb = to_knowledge(&world());
        assert_eq!(kb.canonical_predicate("cityMayor"), "mayor");
        assert_eq!(kb.canonical_predicate("CITYMAYOR"), "mayor");
    }

    #[test]
    fn country_codes_are_aliases() {
        let w = world();
        let kb = to_knowledge(&w);
        let c = &w.countries[0];
        let id = kb.resolve("country", &c.name).unwrap();
        assert_eq!(kb.resolve("country", &c.code2), Some(id));
        assert_eq!(kb.resolve("country", &c.code3), Some(id));
    }
}
