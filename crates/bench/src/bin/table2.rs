//! Reproduces **Table 2**: cell value matches (%) between the result
//! returned by a method and the same query executed on ground truth, for
//! the 46 queries, averaged on ChatGPT.
//!
//! Paper reference values:
//!
//! ```text
//!                         All  Selections  Aggregates  Joins only
//! R_M   (SQL queries)      50          80          29           0
//! T_M   (NL questions)     44          71          20           8
//! T_C_M (NL quest.+CoT)    41          71          13           0
//! ```

use galois_bench::Flags;
use galois_dataset::Scenario;
use galois_eval::table2;
use galois_llm::ModelProfile;

fn main() {
    let seed = Flags::from_env(&["--seed"]).seed();
    let scenario = Scenario::generate(seed);
    println!("Table 2 — cell value matches %, ChatGPT (seed {seed}, 46 queries)\n");
    let t = table2(&scenario, ModelProfile::chatgpt());
    println!("{}", t.render());
}
