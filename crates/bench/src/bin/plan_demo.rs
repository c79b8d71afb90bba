//! Reproduces **Figure 3**: the logical plan for the paper's query `q'`
//! with the injected LLM retrieval operators.
//!
//! The paper's q' filters politicians by age and joins them with cities;
//! in our schema the equivalent shape is mayors filtered by election year
//! joined with their cities.

use galois_bench::Flags;
use galois_core::Galois;
use galois_dataset::Scenario;
use galois_eval::model_for;
use galois_llm::ModelProfile;

fn main() {
    let seed = Flags::from_env(&["--seed"]).seed();
    let scenario = Scenario::generate(seed);
    let galois = Galois::new(
        model_for(&scenario, ModelProfile::chatgpt()),
        scenario.database.clone(),
    );

    let sql = "SELECT c.name, m.name FROM city c, cityMayor m \
               WHERE c.mayor = m.name AND m.electionYear >= 2019 \
               AND c.population > 1000000";
    println!("Figure 3 — compiled plan with LLM operators (seed {seed})\n");
    println!("SQL: {sql}\n");
    println!("{}", galois.explain(sql).expect("plan compiles"));

    println!("\nThe same query, relational-only view (DuckDB-equivalent logical plan):\n");
    println!("{}", scenario.database.explain(sql).expect("plan builds"));
}
