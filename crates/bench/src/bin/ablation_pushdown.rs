//! Ablation **A1** (paper §6 "Query optimization"): pushing the selection
//! into the data-access prompt ("get names of cities with > 1M
//! population") removes the per-key filter prompts — but "combining too
//! many prompts leads to complex questions that have lower accuracy than
//! simple ones".
//!
//! This sweep runs the 46 queries with and without prompt pushdown and
//! reports prompt counts vs. content accuracy.

use galois_bench::Flags;
use galois_core::{CompileOptions, GaloisOptions};
use galois_dataset::Scenario;
use galois_eval::{run_galois_suite, timing_summary, TextTable};
use galois_llm::ModelProfile;

fn main() {
    let seed = Flags::from_env(&["--seed"]).seed();
    let scenario = Scenario::generate(seed);
    println!("Ablation A1 — prompt pushdown (ChatGPT, seed {seed})\n");

    let mut t = TextTable::new(&[
        "variant",
        "prompts/query",
        "virtual s/query",
        "content all %",
        "content sel %",
        "card diff %",
    ]);
    for (label, pushdown) in [
        ("per-key filter prompts", false),
        ("pushdown into scan", true),
    ] {
        let options = GaloisOptions {
            compile: CompileOptions { pushdown },
            ..Default::default()
        };
        let run = run_galois_suite(&scenario, ModelProfile::chatgpt(), options);
        let s = timing_summary(&run);
        t.row(vec![
            label.to_string(),
            format!("{:.0}", s.mean_prompts),
            format!("{:.1}", s.mean_seconds),
            format!("{:.0}", run.content_score(None) * 100.0),
            format!(
                "{:.0}",
                run.content_score(Some(galois_dataset::QueryCategory::SelectionOnly)) * 100.0
            ),
            format!("{:+.1}", run.average_cardinality_diff()),
        ]);
    }
    println!("{}", t.render());
    println!("(expected: fewer prompts, lower accuracy with pushdown)");
}
