//! Ablation **A4** (paper §6 "Query optimization"): the cost-based,
//! prompt-aware planner vs. the fixed heuristic pipeline.
//!
//! Runs the 46-query suite under both [`Planner`] modes, sequentially and
//! at `--parallelism K`, and reports prompt volume, cache hits and the
//! virtual clocks. On the oracle profile the two modes return identical
//! relations (the planner only reshapes the prompt schedule), so every
//! accuracy column should tie while the cost columns separate — the
//! cost-based planner trades per-key filter prompts for pushed-down scan
//! conditions and orders retrieval steps longest-first.
//!
//! Usage: `ablation_planner [--seed 42] [--parallelism 8] [--model oracle]`.

use galois_bench::{cost_planned_options, Flags};
use galois_core::{GaloisOptions, Planner};
use galois_dataset::Scenario;
use galois_eval::{run_galois_suite, suite_totals, TextTable};

fn main() {
    let flags = Flags::from_env(&["--seed", "--parallelism", "--model"]);
    let seed = flags.seed();
    let lanes = flags.lanes();
    let profile = flags.model("oracle");
    let scenario = Scenario::generate(seed);
    println!(
        "Ablation A4 — cost-based planner ({}, seed {seed}, {lanes} lanes)\n",
        profile.name
    );

    let mut t = TextTable::new(&[
        "variant",
        "K",
        "prompts",
        "cache hits",
        "serial ms",
        "virtual ms",
        "content all %",
    ]);
    for (label, planner, k) in [
        ("heuristic", Planner::Heuristic, 1),
        ("cost-based", Planner::CostBased, 1),
        ("heuristic", Planner::Heuristic, lanes),
        ("cost-based", Planner::CostBased, lanes),
    ] {
        let options = GaloisOptions {
            planner,
            ..cost_planned_options(k)
        };
        let run = run_galois_suite(&scenario, profile.clone(), options);
        let totals = suite_totals(&run, k);
        t.row(vec![
            label.to_string(),
            k.to_string(),
            totals.prompts.to_string(),
            totals.cache_hits.to_string(),
            totals.serial_virtual_ms.to_string(),
            totals.virtual_ms.to_string(),
            format!("{:.0}", run.content_score(None) * 100.0),
        ]);
    }
    println!("{}", t.render());
    println!("(expected: same content scores, fewer prompts and lower virtual ms cost-based)");
}
