//! Ablation **A4** (paper §6 "Query optimization"): the cost-based,
//! prompt-aware planner vs. the fixed heuristic pipeline.
//!
//! Runs the 46-query suite under both [`Planner`] modes at `--parallelism
//! K` on the oracle, chatgpt and gpt3 profiles, and reports prompt volume,
//! cache hits, the virtual clocks (serial ms is the one-lane clock) and
//! content scores. On the oracle the two modes return identical relations (the
//! planner only reshapes the prompt schedule), so its accuracy columns tie
//! — the binary asserts it — while the cost columns separate: the
//! cost-based planner trades per-key filter prompts for pushed-down scan
//! conditions and orders retrieval steps longest-first. On the noisy
//! profiles a pushed condition is a harder question (paper §6: "combining
//! too many prompts leads to complex questions that have lower accuracy"),
//! and the closing line states what the saved prompts cost in selection
//! content.
//!
//! Usage: `ablation_planner [--seed 42] [--parallelism 8]`.

use galois_bench::{cost_planned_options, Flags};
use galois_core::{GaloisOptions, Planner};
use galois_dataset::{QueryCategory, Scenario};
use galois_eval::{run_galois_suite, suite_totals, TextTable};
use galois_llm::ModelProfile;

fn main() {
    let flags = Flags::from_env(&["--seed", "--parallelism"]);
    let seed = flags.seed();
    let lanes = flags.lanes();
    let scenario = Scenario::generate(seed);
    println!("Ablation A4 — cost-based planner (seed {seed}, {lanes} lanes)\n");

    let mut t = TextTable::new(&[
        "model",
        "variant",
        "prompts",
        "cache hits",
        "serial ms",
        "virtual ms",
        "content all %",
        "content sel %",
    ]);
    let mut prices = Vec::new();
    for profile in [
        ModelProfile::oracle(),
        ModelProfile::chatgpt(),
        ModelProfile::gpt3(),
    ] {
        // (prompts, content all %, content sel %): heuristic, cost-based.
        let [(p0, all0, sel0), (p1, all1, sel1)] = [
            ("heuristic", Planner::Heuristic),
            ("cost-based", Planner::CostBased),
        ]
        .map(|(label, planner)| {
            let options = GaloisOptions {
                planner,
                ..cost_planned_options(lanes)
            };
            let run = run_galois_suite(&scenario, profile.clone(), options);
            let totals = suite_totals(&run, lanes);
            let all = run.content_score(None) * 100.0;
            let sel = run.content_score(Some(QueryCategory::SelectionOnly)) * 100.0;
            t.row(vec![
                profile.name.clone(),
                label.to_string(),
                totals.prompts.to_string(),
                totals.cache_hits.to_string(),
                totals.serial_virtual_ms.to_string(),
                totals.virtual_ms.to_string(),
                format!("{all:.1}"),
                format!("{sel:.1}"),
            ]);
            (totals.prompts, all, sel)
        });
        if profile.name == "oracle" {
            assert!(
                (all0, sel0) == (all1, sel1),
                "content scores differ across planners on the oracle: \
                 {all0}/{sel0} vs {all1}/{sel1}"
            );
        } else {
            prices.push(format!(
                "{}: selections {sel0:.1} → {sel1:.1} %, all {all0:.1} → {all1:.1} %, \
                 for {p0} → {p1} prompts",
                profile.name
            ));
        }
    }
    println!("{}", t.render());
    println!(
        "(oracle: same content scores, fewer prompts and lower virtual ms cost-based; \
         what the saved prompts cost the noisy profiles, heuristic → cost-based — {})",
        prices.join("; ")
    );
}
