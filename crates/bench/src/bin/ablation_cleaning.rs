//! Ablation **A2** (paper §4): "The enforcing of type and domain
//! constraints is a simple but crucial step to limit the incorrect output
//! due to model hallucinations."
//!
//! Runs the suite with the cleaning/normalisation stage enabled vs
//! disabled. Without normalisation, answers like "2.8 million" or
//! "May 8, 1961" fail to type and become NULLs.

use galois_bench::Flags;
use galois_core::{CleaningPolicy, GaloisOptions};
use galois_dataset::Scenario;
use galois_eval::{run_galois_suite, TextTable};
use galois_llm::ModelProfile;

fn main() {
    let seed = Flags::from_env(&["--seed"]).seed();
    let scenario = Scenario::generate(seed);
    println!("Ablation A2 — answer cleaning/normalisation (ChatGPT, seed {seed})\n");

    let mut t = TextTable::new(&[
        "variant",
        "content all %",
        "content sel %",
        "content agg %",
        "card diff %",
    ]);
    for (label, cleaning) in [
        (
            "cleaning on (normalise + domains)",
            CleaningPolicy::default(),
        ),
        (
            "cleaning off (strict formats only)",
            CleaningPolicy::disabled(),
        ),
    ] {
        let options = GaloisOptions {
            cleaning,
            ..Default::default()
        };
        let run = run_galois_suite(&scenario, ModelProfile::chatgpt(), options);
        t.row(vec![
            label.to_string(),
            format!("{:.0}", run.content_score(None) * 100.0),
            format!(
                "{:.0}",
                run.content_score(Some(galois_dataset::QueryCategory::SelectionOnly)) * 100.0
            ),
            format!(
                "{:.0}",
                run.content_score(Some(galois_dataset::QueryCategory::Aggregate)) * 100.0
            ),
            format!("{:+.1}", run.average_cardinality_diff()),
        ]);
    }
    println!("{}", t.render());
    println!("(expected: accuracy drops without normalisation)");
}
