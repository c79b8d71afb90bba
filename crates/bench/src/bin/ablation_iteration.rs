//! Ablation **A3** (paper §4): the key-retrieval loop "iterate\[s\] with a
//! prompt until we stop getting new results. … The termination condition
//! could be replaced by a user-specified threshold."
//!
//! Sweeps the iteration cap and reports how cardinality recovery and
//! prompt cost trade off.

use galois_bench::Flags;
use galois_core::GaloisOptions;
use galois_dataset::Scenario;
use galois_eval::{run_galois_suite, timing_summary, TextTable};
use galois_llm::ModelProfile;

fn main() {
    let seed = Flags::from_env(&["--seed"]).seed();
    let scenario = Scenario::generate(seed);
    println!("Ablation A3 — \"Return more results\" iteration cap (ChatGPT, seed {seed})\n");

    let mut t = TextTable::new(&[
        "max iterations",
        "card diff %",
        "content all %",
        "prompts/query",
    ]);
    for cap in [1usize, 2, 3, 4, 8, 32] {
        let options = GaloisOptions {
            max_list_iterations: cap,
            ..Default::default()
        };
        let run = run_galois_suite(&scenario, ModelProfile::chatgpt(), options);
        let s = timing_summary(&run);
        t.row(vec![
            cap.to_string(),
            format!("{:+.1}", run.average_cardinality_diff()),
            format!("{:.0}", run.content_score(None) * 100.0),
            format!("{:.0}", s.mean_prompts),
        ]);
    }
    println!("{}", t.render());
    println!("(expected: low caps truncate results; the diff saturates once");
    println!(" the model has nothing new to say)");
}
