//! §6 "Portability" experiment: "As SQL queries are portable across DB
//! engines, the same SQL script executes on different LLMs. … However,
//! the same prompt does not give equivalent results across LLMs."
//!
//! Runs three representative queries on all four model profiles and
//! reports pairwise Jaccard similarity of the returned key sets — a
//! quantified version of the paper's observation.

use galois_bench::Flags;
use galois_core::Galois;
use galois_dataset::Scenario;
use galois_eval::{model_for, TextTable};
use galois_llm::ModelProfile;
use std::collections::HashSet;

fn key_set(scenario: &Scenario, profile: ModelProfile, sql: &str) -> HashSet<String> {
    let galois = Galois::new(model_for(scenario, profile), scenario.database.clone());
    galois
        .execute(sql)
        .map(|r| {
            r.relation
                .rows
                .iter()
                .map(|row| row[0].render().to_ascii_lowercase())
                .collect()
        })
        .unwrap_or_default()
}

fn jaccard(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
    let inter = a.intersection(b).count();
    let union = a.union(b).count();
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

fn main() {
    let seed = Flags::from_env(&["--seed"]).seed();
    let scenario = Scenario::generate(seed);
    println!("§6 Portability — same SQL, different LLMs (seed {seed})");
    println!("cell = Jaccard similarity of returned key sets (1.0 = identical)\n");

    for (label, sql) in [
        ("unfiltered scan", "SELECT name FROM city"),
        (
            "selection",
            "SELECT name FROM city WHERE population > 1000000",
        ),
        (
            "filtered countries",
            "SELECT name FROM country WHERE gdp > 2.0",
        ),
    ] {
        println!("== {label}: {sql}");
        let profiles = ModelProfile::all();
        let sets: Vec<(String, HashSet<String>)> = profiles
            .iter()
            .map(|p| (p.name.clone(), key_set(&scenario, p.clone(), sql)))
            .collect();
        let mut headers: Vec<&str> = vec!["model"];
        for (name, _) in &sets {
            headers.push(name);
        }
        let mut t = TextTable::new(&headers);
        for (name_a, set_a) in &sets {
            let mut row = vec![name_a.clone()];
            for (_, set_b) in &sets {
                row.push(format!("{:.2}", jaccard(set_a, set_b)));
            }
            t.row(row);
        }
        println!("{}", t.render());
    }
    println!("(expected: well off the diagonal from 1.0 — SQL is portable,");
    println!(" LLM answers are not)");
}
