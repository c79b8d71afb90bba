//! Ablation **A7**: the grid fusion factors — keys × attributes per
//! prompt.
//!
//! Runs the 46-query suite on one cold key-universe-store session per
//! variant (cost-based planner, streaming pipeline, `--parallelism` lanes
//! — the `galois_grid_fused` BENCH configuration) with
//! `PromptBatch::Grid { keys: B, attrs: A }` for `B ∈ {1, 5, 10}` ×
//! `A ∈ {1, 2, 4, all}`, reporting prompt volume per phase, cache hits and
//! the virtual clocks. On the oracle profile every variant returns
//! identical relations — grid fusion only reshapes the fetch schedule — so
//! the accuracy column ties while the fetch prompts collapse along two
//! axes: `⌈C/A⌉ × ⌈keys/B⌉` prompts per step, and (the bigger lever on a
//! suite of narrow queries) speculative pad columns that seed the
//! sub-entry store so later queries on the same table fetch at zero
//! prompt cost. `A = 1` is the ablation base case (the key-batched
//! protocol in grid clothing, no spare width to speculate into); `A =
//! all` fuses a step's whole fetch set and pads to the table's full
//! non-key width.
//!
//! Usage: `ablation_grid [--seed 42] [--parallelism 8] [--model oracle]`.

use galois_bench::{fresh_session, grid_stack_options, Flags};
use galois_dataset::Scenario;
use galois_eval::{run_galois_suite_on, suite_totals, TextTable};

fn main() {
    let flags = Flags::from_env(&["--seed", "--parallelism", "--model"]);
    let seed = flags.seed();
    let lanes = flags.lanes();
    let profile = flags.model("oracle");
    let scenario = Scenario::generate(seed);
    println!(
        "Ablation A7 — grid-fused multi-attribute prompting ({}, seed {seed}, {lanes} lanes, \
         cost-based planner, streaming pipeline, cold key-universe store)\n",
        profile.name
    );

    let mut t = TextTable::new(&[
        "grid",
        "prompts",
        "list",
        "filter",
        "fetch",
        "cache hits",
        "virtual ms",
        "fetch ms",
        "content all %",
    ]);
    // `usize::MAX` exceeds every step's fetch width — the "all attributes
    // in one prompt" extreme.
    let attr_variants: [(&str, usize); 4] = [("1", 1), ("2", 2), ("4", 4), ("all", usize::MAX)];
    for keys in [1usize, 5, 10] {
        for (attr_label, attrs) in attr_variants {
            let session =
                fresh_session(&scenario, &profile, grid_stack_options(lanes, keys, attrs));
            let run = run_galois_suite_on(&scenario, &session, &profile.name);
            let totals = suite_totals(&run, lanes);
            let (list, filter, fetch) = run.outcomes.iter().fold((0, 0, 0), |(l, f, a), o| {
                (
                    l + o.stats.list_prompts,
                    f + o.stats.filter_prompts,
                    a + o.stats.fetch_prompts,
                )
            });
            t.row(vec![
                format!("B={keys} A={attr_label}"),
                totals.prompts.to_string(),
                list.to_string(),
                filter.to_string(),
                fetch.to_string(),
                totals.cache_hits.to_string(),
                totals.virtual_ms.to_string(),
                totals.fetch_virtual_ms.to_string(),
                format!("{:.0}", run.content_score(None) * 100.0),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "(expected: identical content scores; fetch prompts collapse as ceil(C/A) x ceil(keys/B) \
         per step plus cross-query cache hits from speculative pads; A=1 matches the key-batched \
         protocol's counts)"
    );
}
