//! Ablation **A5**: the multi-key prompt batching factor.
//!
//! Runs the 46-query suite with `PromptBatch::Off` and with
//! `PromptBatch::Keys(B)` for `B ∈ {1, 2, 5, 10, 25}` (cost-based planner,
//! `--parallelism` lanes), reporting prompt volume, cache hits and the
//! virtual clocks. On the oracle profile every row returns identical
//! relations — batching only reshapes the prompt schedule — so the
//! accuracy column ties while the cost columns collapse roughly as
//! `ceil(keys / B)` per retrieval cell. `Keys(1)` isolates the multi-key
//! protocol's own overhead (same prompt *count* as Off, longer prompts);
//! large `B` exposes the diminishing returns once the per-prompt fixed
//! cost is amortised and answer volume dominates.
//!
//! Usage: `ablation_batch [--seed 42] [--parallelism 8] [--model oracle]`.

use galois_bench::{cost_planned_options, Flags};
use galois_core::{GaloisOptions, PromptBatch};
use galois_dataset::Scenario;
use galois_eval::{run_galois_suite, suite_totals, TextTable};

fn main() {
    let flags = Flags::from_env(&["--seed", "--parallelism", "--model"]);
    let seed = flags.seed();
    let lanes = flags.lanes();
    let profile = flags.model("oracle");
    let scenario = Scenario::generate(seed);
    println!(
        "Ablation A5 — multi-key prompt batching ({}, seed {seed}, {lanes} lanes, \
         cost-based planner)\n",
        profile.name
    );

    let mut t = TextTable::new(&[
        "batch",
        "prompts",
        "cache hits",
        "serial ms",
        "virtual ms",
        "content all %",
    ]);
    let variants = [
        ("off", PromptBatch::Off),
        ("B=1", PromptBatch::Keys(1)),
        ("B=2", PromptBatch::Keys(2)),
        ("B=5", PromptBatch::Keys(5)),
        ("B=10", PromptBatch::Keys(10)),
        ("B=25", PromptBatch::Keys(25)),
    ];
    for (label, prompt_batch) in variants {
        let options = GaloisOptions {
            prompt_batch,
            ..cost_planned_options(lanes)
        };
        let run = run_galois_suite(&scenario, profile.clone(), options);
        let totals = suite_totals(&run, lanes);
        t.row(vec![
            label.to_string(),
            totals.prompts.to_string(),
            totals.cache_hits.to_string(),
            totals.serial_virtual_ms.to_string(),
            totals.virtual_ms.to_string(),
            format!("{:.0}", run.content_score(None) * 100.0),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(expected: identical content scores; prompts collapse ~ceil(keys/B) per cell; \
         diminishing virtual-ms returns at large B)"
    );
}
