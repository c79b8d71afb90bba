//! Reproduces the §5 timing/prompt-count claim: "On average, GPT-3 takes
//! ∼20 seconds to execute a query (∼110 batched prompts per query).
//! Distributions for these metrics are skewed as they depend on the result
//! sizes."
//!
//! Latency is a virtual clock (see `galois_llm::client`): the shapes and
//! counts are meaningful, wall-clock equivalence is not claimed.

use galois_bench::Flags;
use galois_core::GaloisOptions;
use galois_dataset::Scenario;
use galois_eval::{run_galois_suite, timing_summary, TextTable};
use galois_llm::ModelProfile;

fn main() {
    let seed = Flags::from_env(&["--seed"]).seed();
    let scenario = Scenario::generate(seed);
    println!("Prompt/latency statistics per query (seed {seed}, 46 queries)");
    println!("paper: ~110 batched prompts and ~20 s per query on GPT-3; skewed\n");

    let mut t = TextTable::new(&[
        "model",
        "prompts mean",
        "prompts p50",
        "prompts p90",
        "secs mean",
        "secs p50",
        "secs p90",
    ]);
    for profile in ModelProfile::all() {
        let name = profile.name.clone();
        let run = run_galois_suite(&scenario, profile, GaloisOptions::default());
        let s = timing_summary(&run);
        t.row(vec![
            name,
            format!("{:.0}", s.mean_prompts),
            format!("{:.0}", s.median_prompts),
            format!("{:.0}", s.p90_prompts),
            format!("{:.1}", s.mean_seconds),
            format!("{:.1}", s.median_seconds),
            format!("{:.1}", s.p90_seconds),
        ]);
    }
    println!("{}", t.render());
    println!("(mean > median confirms the paper's skew observation)");
}
