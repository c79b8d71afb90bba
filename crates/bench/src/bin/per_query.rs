//! Per-query diagnostic breakdown: cardinality diff, content score and
//! prompt counts for every suite query under one model, for Galois and
//! both QA baselines. Useful when calibrating or debugging — the paper's
//! tables are averages of exactly these numbers.
//!
//! Usage: `per_query [--seed N] [--model flan|tk|gpt3|chatgpt|oracle]`

use galois_bench::Flags;
use galois_core::{BaselineKind, GaloisOptions};
use galois_dataset::Scenario;
use galois_eval::{run_baseline_suite, run_galois_suite, TextTable};

fn main() {
    let flags = Flags::from_env(&["--seed", "--model"]);
    let seed = flags.seed();
    let profile = flags.model("chatgpt");
    let model = profile.name.clone();

    let scenario = Scenario::generate(seed);
    let run = run_galois_suite(&scenario, profile.clone(), GaloisOptions::default());
    let qa = run_baseline_suite(&scenario, profile.clone(), BaselineKind::Plain);
    let cot = run_baseline_suite(&scenario, profile, BaselineKind::ChainOfThought);

    println!("Per-query breakdown — model {model}, seed {seed}\n");
    let mut t = TextTable::new(&[
        "q", "category", "|R_D|", "|R_M|", "card%", "R_M%", "T_M%", "T_C_M%", "prompts",
    ]);
    for ((g, b), c) in run.outcomes.iter().zip(&qa.outcomes).zip(&cot.outcomes) {
        t.row(vec![
            format!("q{}", g.id),
            g.category.label().to_string(),
            g.truth_rows.to_string(),
            g.result_rows.to_string(),
            format!("{:+.0}", g.cardinality_diff),
            format!("{:.0}", g.matching.score() * 100.0),
            format!("{:.0}", b.matching.score() * 100.0),
            format!("{:.0}", c.matching.score() * 100.0),
            g.stats.total_prompts().to_string(),
        ]);
    }
    println!("{}", t.render());
}
