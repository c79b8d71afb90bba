//! The 46-query evaluation suite (Spider substitute, paper §5 "Dataset").
//!
//! The paper selects 46 Spider queries "about generic topics, such as
//! world geography and airports", spanning selection-only, aggregate and
//! join queries, each paired with an NL paraphrase. Our suite mirrors that
//! mix — 20 selections, 18 aggregates, 8 joins — over the synthetic world.
//! Every query is generated from a [`QuerySpec`] that lowers to *both*
//! SQL text and the NL question, so the two stay semantically aligned by
//! construction (Spider guarantees the same via human annotation).
//!
//! Condition literals are drawn from quantiles of the generated data, so
//! every query has a non-empty ground-truth result (the paper averages
//! over queries with non-empty results).

use crate::world::World;
use galois_llm::intent::{CmpOp, Condition, PromptValue};
use galois_llm::nlq::{self, AggIntent, AggKind, JoinIntent, QueryIntent};

/// The paper's Table 2 query classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryCategory {
    /// Selection-only queries ("the easiest subclass").
    SelectionOnly,
    /// Aggregate queries (global or grouped).
    Aggregate,
    /// Join queries ("the most problematic").
    Join,
}

impl QueryCategory {
    /// Display label matching the paper's table headers.
    pub fn label(&self) -> &'static str {
        match self {
            QueryCategory::SelectionOnly => "Selections",
            QueryCategory::Aggregate => "Aggregates",
            QueryCategory::Join => "Joins only",
        }
    }
}

/// A one-hop join in a query spec.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSpec {
    /// Attribute on the primary relation referencing the related key.
    pub via_attribute: String,
    /// Related table name.
    pub related_relation: String,
    /// Key attribute of the related relation.
    pub related_key: String,
    /// Attribute of the related relation to output.
    pub related_attribute: String,
}

/// An aggregate in a query spec.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Aggregate kind.
    pub kind: AggKind,
    /// Aggregated attribute (`None` for `COUNT(*)`).
    pub attribute: Option<String>,
    /// Group-by attribute.
    pub group_by: Option<String>,
}

/// A declarative description of one evaluation query; lowers to SQL and to
/// the NL paraphrase.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// 1-based id (q1…q46).
    pub id: usize,
    /// Table-2 class.
    pub category: QueryCategory,
    /// Primary relation (table name).
    pub relation: String,
    /// Key attribute of the primary relation.
    pub key_attr: String,
    /// Output attributes of the primary relation.
    pub select: Vec<String>,
    /// Optional filter on the primary relation.
    pub condition: Option<Condition>,
    /// Optional join.
    pub join: Option<JoinSpec>,
    /// Optional aggregate.
    pub aggregate: Option<AggSpec>,
}

impl QuerySpec {
    /// Lowers to SQL in the Galois dialect.
    pub fn to_sql(&self) -> String {
        let mut sql = String::from("SELECT ");
        match (&self.aggregate, &self.join) {
            (Some(agg), _) => {
                let mut items = Vec::new();
                if let Some(g) = &agg.group_by {
                    items.push(g.clone());
                }
                let call = match (&agg.attribute, agg.kind) {
                    (None, _) => "COUNT(*)".to_string(),
                    (Some(a), k) => format!("{}({a})", agg_sql_name(k)),
                };
                items.push(call);
                sql.push_str(&items.join(", "));
                sql.push_str(&format!(" FROM {}", self.relation));
                if let Some(c) = &self.condition {
                    sql.push_str(&format!(" WHERE {}", condition_sql(c, None)));
                }
                if let Some(g) = &agg.group_by {
                    sql.push_str(&format!(" GROUP BY {g}"));
                }
            }
            (None, Some(join)) => {
                let items: Vec<String> = self
                    .select
                    .iter()
                    .map(|a| format!("p.{a}"))
                    .chain(std::iter::once(format!("r.{}", join.related_attribute)))
                    .collect();
                sql.push_str(&items.join(", "));
                sql.push_str(&format!(
                    " FROM {} p, {} r WHERE p.{} = r.{}",
                    self.relation, join.related_relation, join.via_attribute, join.related_key
                ));
                if let Some(c) = &self.condition {
                    sql.push_str(&format!(" AND {}", condition_sql(c, Some("p"))));
                }
            }
            (None, None) => {
                sql.push_str(&self.select.join(", "));
                sql.push_str(&format!(" FROM {}", self.relation));
                if let Some(c) = &self.condition {
                    sql.push_str(&format!(" WHERE {}", condition_sql(c, None)));
                }
            }
        }
        sql
    }

    /// Lowers to the NL-question intent.
    pub fn to_intent(&self) -> QueryIntent {
        QueryIntent {
            relation: self.relation.clone(),
            select: self.select.clone(),
            condition: self.condition.clone(),
            join: self.join.as_ref().map(|j| JoinIntent {
                via_attribute: j.via_attribute.clone(),
                related_attribute: j.related_attribute.clone(),
            }),
            aggregate: self.aggregate.as_ref().map(|a| AggIntent {
                kind: a.kind,
                attribute: a.attribute.clone(),
                group_by: a.group_by.clone(),
            }),
        }
    }

    /// The NL paraphrase `t` of this query.
    pub fn question(&self) -> String {
        nlq::render_question(&self.to_intent())
    }
}

fn agg_sql_name(k: AggKind) -> &'static str {
    match k {
        AggKind::Count => "COUNT",
        AggKind::Sum => "SUM",
        AggKind::Avg => "AVG",
        AggKind::Min => "MIN",
        AggKind::Max => "MAX",
    }
}

fn value_sql(v: &PromptValue) -> String {
    match v {
        PromptValue::Text(s) => format!("'{}'", s.replace('\'', "''")),
        PromptValue::Number(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
    }
}

/// Renders a protocol condition as a SQL predicate.
pub(crate) fn condition_sql(c: &Condition, alias: Option<&str>) -> String {
    let attr = match alias {
        Some(a) => format!("{a}.{}", c.attribute),
        None => c.attribute.clone(),
    };
    match c.op {
        CmpOp::Eq => format!("{attr} = {}", value_sql(&c.values[0])),
        CmpOp::NotEq => format!("{attr} <> {}", value_sql(&c.values[0])),
        CmpOp::Gt => format!("{attr} > {}", value_sql(&c.values[0])),
        CmpOp::GtEq => format!("{attr} >= {}", value_sql(&c.values[0])),
        CmpOp::Lt => format!("{attr} < {}", value_sql(&c.values[0])),
        CmpOp::LtEq => format!("{attr} <= {}", value_sql(&c.values[0])),
        CmpOp::Between => format!(
            "{attr} BETWEEN {} AND {}",
            value_sql(&c.values[0]),
            value_sql(&c.values[1])
        ),
        CmpOp::In => {
            let vs: Vec<String> = c.values.iter().map(value_sql).collect();
            format!("{attr} IN ({})", vs.join(", "))
        }
        CmpOp::Like => format!("{attr} LIKE {}", value_sql(&c.values[0])),
        CmpOp::IsNull => format!("{attr} IS NULL"),
        CmpOp::IsNotNull => format!("{attr} IS NOT NULL"),
    }
}

fn cond(attribute: &str, op: CmpOp, values: Vec<PromptValue>) -> Option<Condition> {
    Some(Condition {
        attribute: attribute.to_string(),
        op,
        values,
    })
}

fn num(n: f64) -> PromptValue {
    PromptValue::Number(n)
}

fn text(s: impl Into<String>) -> PromptValue {
    PromptValue::Text(s.into())
}

/// p-th percentile (0–100) of a value set, rounded to a friendly literal.
/// The result is clamped strictly inside the value range (between the 2nd
/// smallest and 2nd largest) so that comparisons against it always keep a
/// non-empty result — the paper only evaluates queries with non-empty
/// ground truth.
fn percentile(mut values: Vec<f64>, p: f64) -> f64 {
    assert!(!values.is_empty());
    values.sort_by(f64::total_cmp);
    let idx = ((values.len() - 1) as f64 * p / 100.0).round() as usize;
    let raw = values[idx];
    // Round to two significant-ish digits so prompts read naturally.
    let rounded = if raw.abs() >= 100.0 {
        let mag = 10f64.powf(raw.abs().log10().floor() - 1.0);
        (raw / mag).round() * mag
    } else {
        raw.round()
    };
    // Strictly inside (min, max): a `>` threshold keeps the max row, a
    // `<` threshold keeps the min row, even when extreme values repeat.
    let lo = values[0] + 1.0;
    let hi = values[values.len() - 1] - 1.0;
    if lo > hi {
        return (values[0] + values[values.len() - 1]) / 2.0;
    }
    rounded.clamp(lo, hi)
}

/// Builds the 46-query suite from world statistics.
pub fn build_suite(world: &World) -> Vec<QuerySpec> {
    let city_pop: Vec<f64> = world.cities.iter().map(|c| c.population as f64).collect();
    let city_elev: Vec<f64> = world.cities.iter().map(|c| c.elevation as f64).collect();
    let country_gdp: Vec<f64> = world.countries.iter().map(|c| c.gdp).collect();
    let country_pop: Vec<f64> = world
        .countries
        .iter()
        .map(|c| c.population as f64)
        .collect();
    let airport_elev: Vec<f64> = world.airports.iter().map(|a| a.elevation as f64).collect();
    let singer_birth: Vec<f64> = world.singers.iter().map(|s| s.birth_year as f64).collect();
    let singer_worth: Vec<f64> = world.singers.iter().map(|s| s.net_worth).collect();
    let concert_att: Vec<f64> = world.concerts.iter().map(|c| c.attendance as f64).collect();
    let indep_years: Vec<f64> = world
        .countries
        .iter()
        .map(|c| c.independence_year as f64)
        .collect();

    // A country that actually contains cities/airports, for Eq conditions.
    let busiest_country = |by: &dyn Fn(usize) -> usize| -> String {
        let counts: Vec<usize> = (0..world.countries.len()).map(by).collect();
        let best = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .unwrap_or(0);
        world.countries[best].name.clone()
    };
    let city_country = busiest_country(&|i| world.cities.iter().filter(|c| c.country == i).count());
    let airport_country =
        busiest_country(&|i| world.airports.iter().filter(|a| a.country == i).count());
    let concert_year = {
        let mut counts = std::collections::HashMap::new();
        for c in &world.concerts {
            *counts.entry(c.year).or_insert(0usize) += 1;
        }
        // Tie-break on the year itself: HashMap iteration order is not
        // deterministic, and `build_suite` must be.
        *counts
            .iter()
            .max_by_key(|(y, n)| (**n, **y))
            .map(|(y, _)| y)
            .unwrap_or(&2019)
    };
    // Modal categorical values, so equality conditions are never empty on
    // any seed.
    let modal = |values: Vec<String>| -> Vec<String> {
        let mut counts: std::collections::HashMap<String, usize> = Default::default();
        for v in values {
            *counts.entry(v).or_insert(0) += 1;
        }
        let mut pairs: Vec<(String, usize)> = counts.into_iter().collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        pairs.into_iter().map(|(v, _)| v).collect()
    };
    let continents = modal(
        world
            .countries
            .iter()
            .map(|c| c.continent.clone())
            .collect(),
    );
    let genres = modal(world.singers.iter().map(|s| s.genre.clone()).collect());
    let parties = modal(world.mayors.iter().map(|m| m.party.clone()).collect());
    let top_continent = continents[0].clone();
    let second_continent = continents
        .get(1)
        .cloned()
        .unwrap_or_else(|| top_continent.clone());
    let top_genre = genres[0].clone();
    let second_genre = genres.get(1).cloned().unwrap_or_else(|| top_genre.clone());
    let top_party = parties[0].clone();
    // Modal first letter of city names, so the LIKE query is non-empty.
    let city_initial = {
        let mut counts: std::collections::HashMap<char, usize> = Default::default();
        for c in &world.cities {
            if let Some(ch) = c.name.chars().next() {
                *counts.entry(ch).or_insert(0) += 1;
            }
        }
        let mut pairs: Vec<(char, usize)> = counts.into_iter().collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        pairs[0].0
    };

    let p = percentile;
    let mut q = Vec::with_capacity(46);
    let mut id = 0usize;
    let mut push = |q: &mut Vec<QuerySpec>,
                    category: QueryCategory,
                    relation: &str,
                    key_attr: &str,
                    select: Vec<&str>,
                    condition: Option<Condition>,
                    join: Option<JoinSpec>,
                    aggregate: Option<AggSpec>| {
        id += 1;
        q.push(QuerySpec {
            id,
            category,
            relation: relation.to_string(),
            key_attr: key_attr.to_string(),
            select: select.into_iter().map(str::to_string).collect(),
            condition,
            join,
            aggregate,
        });
    };

    use QueryCategory::*;

    // --- Selection-only (q1–q20) -------------------------------------
    push(
        &mut q,
        SelectionOnly,
        "city",
        "name",
        vec!["name"],
        cond(
            "population",
            CmpOp::Gt,
            vec![num(p(city_pop.clone(), 40.0))],
        ),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "city",
        "name",
        vec!["name", "population"],
        cond(
            "population",
            CmpOp::Between,
            vec![
                num(p(city_pop.clone(), 20.0)),
                num(p(city_pop.clone(), 70.0)),
            ],
        ),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "country",
        "name",
        vec!["name"],
        cond("gdp", CmpOp::Gt, vec![num(p(country_gdp.clone(), 50.0))]),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "country",
        "name",
        vec!["name", "capital"],
        cond("continent", CmpOp::Eq, vec![text(top_continent.clone())]),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "country",
        "name",
        vec!["name", "independenceYear"],
        cond(
            "independenceYear",
            CmpOp::Gt,
            vec![num(p(indep_years.clone(), 45.0))],
        ),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "airport",
        "code",
        vec!["code"],
        cond(
            "elevation",
            CmpOp::Gt,
            vec![num(p(airport_elev.clone(), 70.0))],
        ),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "airport",
        "code",
        vec!["code", "name"],
        cond("country", CmpOp::Eq, vec![text(airport_country.clone())]),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "singer",
        "name",
        vec!["name"],
        cond("genre", CmpOp::Eq, vec![text(top_genre.clone())]),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "singer",
        "name",
        vec!["name", "birthYear"],
        cond(
            "birthYear",
            CmpOp::Lt,
            vec![num(p(singer_birth.clone(), 40.0))],
        ),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "concert",
        "name",
        vec!["name"],
        cond("year", CmpOp::Eq, vec![num(concert_year as f64)]),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "city",
        "name",
        vec!["name"],
        cond("name", CmpOp::Like, vec![text(format!("{city_initial}%"))]),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "country",
        "name",
        vec!["name"],
        cond(
            "continent",
            CmpOp::In,
            vec![text(top_continent.clone()), text(second_continent.clone())],
        ),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "cityMayor",
        "name",
        vec!["name", "electionYear"],
        cond("electionYear", CmpOp::GtEq, vec![num(2019.0)]),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "cityMayor",
        "name",
        vec!["name"],
        cond("party", CmpOp::Eq, vec![text(top_party.clone())]),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "airport",
        "code",
        vec!["code"],
        cond("runways", CmpOp::GtEq, vec![num(3.0)]),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "concert",
        "name",
        vec!["name", "attendance"],
        cond(
            "attendance",
            CmpOp::Gt,
            vec![num(p(concert_att.clone(), 50.0))],
        ),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "singer",
        "name",
        vec!["name"],
        cond(
            "netWorth",
            CmpOp::LtEq,
            vec![num(p(singer_worth.clone(), 50.0))],
        ),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "city",
        "name",
        vec!["name"],
        cond(
            "elevation",
            CmpOp::Lt,
            vec![num(p(city_elev.clone(), 35.0))],
        ),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "country",
        "name",
        vec!["name", "population"],
        cond(
            "population",
            CmpOp::GtEq,
            vec![num(p(country_pop.clone(), 50.0))],
        ),
        None,
        None,
    );
    push(
        &mut q,
        SelectionOnly,
        "airport",
        "code",
        vec!["name"],
        cond("name", CmpOp::Like, vec![text("%International%")]),
        None,
        None,
    );

    // --- Aggregates (q21–q38) ----------------------------------------
    let agg = |kind, attribute: Option<&str>, group_by: Option<&str>| {
        Some(AggSpec {
            kind,
            attribute: attribute.map(str::to_string),
            group_by: group_by.map(str::to_string),
        })
    };
    push(
        &mut q,
        Aggregate,
        "city",
        "name",
        vec![],
        None,
        None,
        agg(AggKind::Count, None, None),
    );
    push(
        &mut q,
        Aggregate,
        "city",
        "name",
        vec![],
        cond(
            "population",
            CmpOp::Gt,
            vec![num(p(city_pop.clone(), 60.0))],
        ),
        None,
        agg(AggKind::Count, None, None),
    );
    push(
        &mut q,
        Aggregate,
        "city",
        "name",
        vec![],
        None,
        None,
        agg(AggKind::Avg, Some("population"), None),
    );
    push(
        &mut q,
        Aggregate,
        "city",
        "name",
        vec![],
        None,
        None,
        agg(AggKind::Max, Some("population"), None),
    );
    push(
        &mut q,
        Aggregate,
        "city",
        "name",
        vec![],
        cond("country", CmpOp::Eq, vec![text(city_country.clone())]),
        None,
        agg(AggKind::Sum, Some("population"), None),
    );
    push(
        &mut q,
        Aggregate,
        "airport",
        "code",
        vec![],
        None,
        None,
        agg(AggKind::Min, Some("yearlyPassengers"), None),
    );
    push(
        &mut q,
        Aggregate,
        "airport",
        "code",
        vec![],
        None,
        None,
        agg(AggKind::Count, None, Some("country")),
    );
    push(
        &mut q,
        Aggregate,
        "country",
        "name",
        vec![],
        None,
        None,
        agg(AggKind::Avg, Some("gdp"), Some("continent")),
    );
    push(
        &mut q,
        Aggregate,
        "singer",
        "name",
        vec![],
        cond("genre", CmpOp::Eq, vec![text(second_genre.clone())]),
        None,
        agg(AggKind::Count, None, None),
    );
    push(
        &mut q,
        Aggregate,
        "singer",
        "name",
        vec![],
        None,
        None,
        agg(AggKind::Max, Some("netWorth"), None),
    );
    push(
        &mut q,
        Aggregate,
        "singer",
        "name",
        vec![],
        None,
        None,
        agg(AggKind::Min, Some("birthYear"), None),
    );
    push(
        &mut q,
        Aggregate,
        "concert",
        "name",
        vec![],
        None,
        None,
        agg(AggKind::Count, None, Some("year")),
    );
    push(
        &mut q,
        Aggregate,
        "concert",
        "name",
        vec![],
        cond("year", CmpOp::Eq, vec![num(concert_year as f64)]),
        None,
        agg(AggKind::Sum, Some("attendance"), None),
    );
    push(
        &mut q,
        Aggregate,
        "country",
        "name",
        vec![],
        None,
        None,
        agg(AggKind::Min, Some("population"), None),
    );
    push(
        &mut q,
        Aggregate,
        "city",
        "name",
        vec![],
        None,
        None,
        agg(AggKind::Avg, Some("elevation"), Some("country")),
    );
    push(
        &mut q,
        Aggregate,
        "country",
        "name",
        vec![],
        cond("continent", CmpOp::Eq, vec![text(top_continent.clone())]),
        None,
        agg(AggKind::Count, None, None),
    );
    push(
        &mut q,
        Aggregate,
        "airport",
        "code",
        vec![],
        None,
        None,
        agg(AggKind::Max, Some("yearlyPassengers"), None),
    );
    push(
        &mut q,
        Aggregate,
        "concert",
        "name",
        vec![],
        None,
        None,
        agg(AggKind::Sum, Some("attendance"), None),
    );

    // --- Joins (q39–q46) ---------------------------------------------
    let join = |via: &str, rel: &str, rkey: &str, rattr: &str| {
        Some(JoinSpec {
            via_attribute: via.to_string(),
            related_relation: rel.to_string(),
            related_key: rkey.to_string(),
            related_attribute: rattr.to_string(),
        })
    };
    // The paper's motivating query: cities with their mayor's birth date.
    push(
        &mut q,
        Join,
        "city",
        "name",
        vec!["name"],
        None,
        join("mayor", "cityMayor", "name", "birthDate"),
        None,
    );
    // Code-keyed join — the "IT" vs "ITA" failure case.
    push(
        &mut q,
        Join,
        "singer",
        "name",
        vec!["name"],
        None,
        join("countryCode", "country", "code", "continent"),
        None,
    );
    push(
        &mut q,
        Join,
        "city",
        "name",
        vec!["name"],
        cond(
            "population",
            CmpOp::Gt,
            vec![num(p(city_pop.clone(), 50.0))],
        ),
        join("country", "country", "name", "gdp"),
        None,
    );
    push(
        &mut q,
        Join,
        "airport",
        "code",
        vec!["code"],
        None,
        join("city", "city", "name", "population"),
        None,
    );
    push(
        &mut q,
        Join,
        "concert",
        "name",
        vec!["name"],
        None,
        join("singer", "singer", "name", "genre"),
        None,
    );
    push(
        &mut q,
        Join,
        "city",
        "name",
        vec!["name"],
        cond("elevation", CmpOp::Lt, vec![num(p(city_elev, 60.0))]),
        join("mayor", "cityMayor", "name", "party"),
        None,
    );
    push(
        &mut q,
        Join,
        "airport",
        "code",
        vec!["code"],
        None,
        join("country", "country", "name", "code"),
        None,
    );
    push(
        &mut q,
        Join,
        "concert",
        "name",
        vec!["name"],
        None,
        join("city", "city", "name", "country"),
        None,
    );

    assert_eq!(q.len(), 46, "the paper evaluates exactly 46 queries");
    q
}

/// Operator families of the widened query surface (joins, grouped
/// aggregates, LIMIT windows), exercised by the oracle-backed operator
/// battery. These ride *alongside* the immutable 46-query paper suite —
/// [`build_suite`] keeps its exact 20/18/8 mix; the operator suite is a
/// separate workload with its own ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorFamily {
    /// Joins where both sides are LLM relations.
    JoinLlm,
    /// Joins of an LLM relation against a `DB.`-qualified stored table.
    JoinStored,
    /// Grouped aggregates (GROUP BY / HAVING), including over a join.
    GroupAgg,
    /// ORDER BY / LIMIT / OFFSET windows.
    Limit,
}

/// How an operator query's result is scored against ground truth.
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorCheck {
    /// The result must equal the ground-truth relation as a multiset of
    /// rendered rows (deterministic queries: joins, aggregates, and
    /// fully-ordered windows).
    Exact,
    /// An unordered window (`LIMIT` without a total order): the result
    /// must be one that evaluating the unlimited query fully and then
    /// truncating *admits* — every row appears in the unlimited ground
    /// truth, and the row count is exactly
    /// `min(n, max(|truth| - offset, 0))`.
    Window {
        /// The same query without its LIMIT/OFFSET clause.
        unlimited_sql: String,
        /// The window budget `n`.
        n: usize,
        /// Rows skipped before the budget.
        offset: usize,
    },
}

/// One query of the operator battery.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorQuery {
    /// 1-based id within the operator suite.
    pub id: usize,
    /// Operator family.
    pub family: OperatorFamily,
    /// SQL in the Galois dialect.
    pub sql: String,
    /// Scoring semantics.
    pub check: OperatorCheck,
}

/// Builds the operator-surface workload from world statistics. Condition
/// literals are drawn from quantiles (like [`build_suite`]) so every
/// query has a non-empty ground truth on any seed.
pub fn build_operator_suite(world: &World) -> Vec<OperatorQuery> {
    let city_pop: Vec<f64> = world.cities.iter().map(|c| c.population as f64).collect();
    let city_elev: Vec<f64> = world.cities.iter().map(|c| c.elevation as f64).collect();
    let p = percentile;

    let mut out = Vec::new();
    let push = |out: &mut Vec<OperatorQuery>,
                family: OperatorFamily,
                sql: String,
                check: OperatorCheck| {
        let id = out.len() + 1;
        out.push(OperatorQuery {
            id,
            family,
            sql,
            check,
        });
    };
    use OperatorFamily::*;

    // --- LLM ⋈ LLM ---------------------------------------------------
    push(
        &mut out,
        JoinLlm,
        format!(
            "SELECT c.name, k.gdp FROM city c, country k \
             WHERE c.country = k.name AND c.population > {}",
            p(city_pop.clone(), 40.0)
        ),
        OperatorCheck::Exact,
    );
    push(
        &mut out,
        JoinLlm,
        "SELECT s.name, k.continent FROM singer s, country k \
         WHERE s.countryCode = k.code"
            .to_string(),
        OperatorCheck::Exact,
    );
    push(
        &mut out,
        JoinLlm,
        "SELECT a.code, c.population FROM airport a, city c WHERE a.city = c.name".to_string(),
        OperatorCheck::Exact,
    );
    push(
        &mut out,
        JoinLlm,
        "SELECT co.name, s.genre FROM concert co, singer s WHERE co.singer = s.name".to_string(),
        OperatorCheck::Exact,
    );

    // --- LLM ⋈ stored -------------------------------------------------
    push(
        &mut out,
        JoinStored,
        "SELECT c.name, k.gdp FROM city c, DB.country k WHERE c.country = k.name".to_string(),
        OperatorCheck::Exact,
    );
    push(
        &mut out,
        JoinStored,
        format!(
            "SELECT c.name, m.party FROM city c, DB.cityMayor m \
             WHERE c.mayor = m.name AND c.elevation < {}",
            p(city_elev.clone(), 60.0)
        ),
        OperatorCheck::Exact,
    );
    push(
        &mut out,
        JoinStored,
        "SELECT a.code, k.continent FROM airport a, DB.country k WHERE a.country = k.name"
            .to_string(),
        OperatorCheck::Exact,
    );
    push(
        &mut out,
        JoinStored,
        "SELECT co.name, s.birthYear FROM concert co, DB.singer s WHERE co.singer = s.name"
            .to_string(),
        OperatorCheck::Exact,
    );

    // --- Grouped aggregates -------------------------------------------
    push(
        &mut out,
        GroupAgg,
        "SELECT country, COUNT(*) FROM city GROUP BY country".to_string(),
        OperatorCheck::Exact,
    );
    push(
        &mut out,
        GroupAgg,
        "SELECT continent, AVG(gdp) FROM country GROUP BY continent".to_string(),
        OperatorCheck::Exact,
    );
    push(
        &mut out,
        GroupAgg,
        "SELECT genre, MAX(netWorth) FROM singer GROUP BY genre HAVING COUNT(*) >= 1".to_string(),
        OperatorCheck::Exact,
    );
    push(
        &mut out,
        GroupAgg,
        "SELECT year, SUM(attendance) FROM concert GROUP BY year HAVING SUM(attendance) > 0"
            .to_string(),
        OperatorCheck::Exact,
    );
    push(
        &mut out,
        GroupAgg,
        "SELECT k.continent, COUNT(*) FROM city c, country k \
         WHERE c.country = k.name GROUP BY k.continent"
            .to_string(),
        OperatorCheck::Exact,
    );

    // --- LIMIT windows -------------------------------------------------
    push(
        &mut out,
        Limit,
        "SELECT name FROM city ORDER BY name LIMIT 5".to_string(),
        OperatorCheck::Exact,
    );
    push(
        &mut out,
        Limit,
        "SELECT name, population FROM city ORDER BY population DESC, name LIMIT 3 OFFSET 2"
            .to_string(),
        OperatorCheck::Exact,
    );
    {
        let unlimited = format!(
            "SELECT name FROM city WHERE population > {}",
            p(city_pop.clone(), 30.0)
        );
        push(
            &mut out,
            Limit,
            format!("{unlimited} LIMIT 4"),
            OperatorCheck::Window {
                unlimited_sql: unlimited,
                n: 4,
                offset: 0,
            },
        );
    }
    push(
        &mut out,
        Limit,
        "SELECT code FROM airport ORDER BY code LIMIT 4 OFFSET 1".to_string(),
        OperatorCheck::Exact,
    );
    {
        let unlimited = "SELECT name FROM city".to_string();
        push(
            &mut out,
            Limit,
            format!("{unlimited} LIMIT 6 OFFSET 2"),
            OperatorCheck::Window {
                unlimited_sql: unlimited,
                n: 6,
                offset: 2,
            },
        );
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::to_database;

    fn suite() -> (World, Vec<QuerySpec>) {
        let w = World::generate(42);
        let s = build_suite(&w);
        (w, s)
    }

    #[test]
    fn suite_has_paper_category_mix() {
        let (_, s) = suite();
        assert_eq!(s.len(), 46);
        let count = |c: QueryCategory| s.iter().filter(|q| q.category == c).count();
        assert_eq!(count(QueryCategory::SelectionOnly), 20);
        assert_eq!(count(QueryCategory::Aggregate), 18);
        assert_eq!(count(QueryCategory::Join), 8);
        // Ids are 1..=46 in order.
        for (i, q) in s.iter().enumerate() {
            assert_eq!(q.id, i + 1);
        }
    }

    #[test]
    fn all_sql_parses_and_plans() {
        let (w, s) = suite();
        let db = to_database(&w);
        for q in &s {
            let sql = q.to_sql();
            db.plan(&sql)
                .unwrap_or_else(|e| panic!("q{}: {sql}\n{e}", q.id));
        }
    }

    #[test]
    fn all_queries_have_non_empty_ground_truth() {
        let (w, s) = suite();
        let db = to_database(&w);
        for q in &s {
            let r = db
                .execute(&q.to_sql())
                .unwrap_or_else(|e| panic!("q{}: {e}", q.id));
            assert!(!r.is_empty(), "q{} returned empty: {}", q.id, q.to_sql());
        }
    }

    #[test]
    fn all_questions_parse_back_to_their_intent() {
        let (_, s) = suite();
        for q in &s {
            let question = q.question();
            let parsed = galois_llm::nlq::parse_question(&question)
                .unwrap_or_else(|| panic!("q{}: {question}", q.id));
            assert_eq!(parsed, q.to_intent(), "q{}", q.id);
        }
    }

    #[test]
    fn sql_examples_look_right() {
        let (_, s) = suite();
        let q39 = &s[38];
        assert_eq!(q39.category, QueryCategory::Join);
        let sql = q39.to_sql();
        assert!(
            sql.contains("FROM city p, cityMayor r WHERE p.mayor = r.name"),
            "{sql}"
        );
        let q21 = &s[20];
        assert_eq!(q21.to_sql(), "SELECT COUNT(*) FROM city");
    }

    #[test]
    fn condition_sql_forms() {
        let c = Condition {
            attribute: "population".into(),
            op: CmpOp::Between,
            values: vec![num(10.0), num(20.0)],
        };
        assert_eq!(condition_sql(&c, None), "population BETWEEN 10 AND 20");
        assert_eq!(
            condition_sql(&c, Some("p")),
            "p.population BETWEEN 10 AND 20"
        );
        let c2 = Condition {
            attribute: "name".into(),
            op: CmpOp::In,
            values: vec![text("A"), text("O'B")],
        };
        assert_eq!(condition_sql(&c2, None), "name IN ('A', 'O''B')");
    }

    #[test]
    fn suite_is_deterministic() {
        let (w, s1) = suite();
        let s2 = build_suite(&w);
        assert_eq!(s1, s2);
    }

    #[test]
    fn operator_suite_covers_every_family_and_is_deterministic() {
        let w = World::generate(42);
        let ops = build_operator_suite(&w);
        for fam in [
            OperatorFamily::JoinLlm,
            OperatorFamily::JoinStored,
            OperatorFamily::GroupAgg,
            OperatorFamily::Limit,
        ] {
            assert!(
                ops.iter().filter(|q| q.family == fam).count() >= 4,
                "family {fam:?} under-represented"
            );
        }
        for (i, q) in ops.iter().enumerate() {
            assert_eq!(q.id, i + 1);
        }
        assert_eq!(ops, build_operator_suite(&w));
    }

    #[test]
    fn operator_suite_plans_and_has_non_empty_ground_truth() {
        for seed in [42u64, 7, 99] {
            let w = World::generate(seed);
            let db = to_database(&w);
            for q in build_operator_suite(&w) {
                let r = db
                    .execute(&q.sql)
                    .unwrap_or_else(|e| panic!("op{} (seed {seed}): {}\n{e}", q.id, q.sql));
                assert!(
                    !r.is_empty(),
                    "op{} returned empty (seed {seed}): {}",
                    q.id,
                    q.sql
                );
                if let OperatorCheck::Window {
                    unlimited_sql,
                    n,
                    offset,
                } = &q.check
                {
                    let full = db
                        .execute(unlimited_sql)
                        .unwrap_or_else(|e| panic!("op{} unlimited: {e}", q.id));
                    let expect = (*n).min(full.rows.len().saturating_sub(*offset));
                    assert_eq!(r.rows.len(), expect, "op{} window size (seed {seed})", q.id);
                }
            }
        }
    }
}
