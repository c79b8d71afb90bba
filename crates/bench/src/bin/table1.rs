//! Reproduces **Table 1**: average difference in the cardinality of
//! Galois's output relations (`R_M`) w.r.t. the ground-truth results
//! `|R_D|` for the 46 queries. Closer to 0 is better.
//!
//! Paper reference values: Flan −47.4, TK −43.7, GPT-3 +1.0,
//! ChatGPT −19.5.

use galois_bench::Flags;
use galois_dataset::Scenario;
use galois_eval::table1;
use galois_llm::ModelProfile;

fn main() {
    let seed = Flags::from_env(&["--seed"]).seed();
    let scenario = Scenario::generate(seed);
    println!("Table 1 — cardinality difference (seed {seed}, 46 queries)");
    println!("paper:   flan -47.4   tk -43.7   gpt3 +1.0   chatgpt -19.5\n");
    let (table, _) = table1(&scenario, &ModelProfile::all());
    println!("{}", table.render());
}
