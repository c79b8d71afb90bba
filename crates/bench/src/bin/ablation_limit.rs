//! Ablation **A8**: LIMIT-aware early termination — window size sweep.
//!
//! Runs `SELECT name FROM city LIMIT n` (and a filtered variant) on a wide
//! 120-city world with a paged oracle (`list_page_size: 10`, so listing
//! takes ~12 pages end to end) under the serving preset's grid batch, once
//! on `Pipeline::Streaming` ("off") and once on `Pipeline::StreamingLimit`
//! ("on"), for `n ∈ {3, 10, 25, 60}` plus the unlimited form. With early
//! stop on, the streaming pipeline cancels list paging — and the
//! filter/fetch micro-batches scheduled behind it — as soon as confirmed
//! survivors cover the window, so the prompt bill scales with `n` instead
//! of with the concept's cardinality. Both variants return the same admissible
//! window (the suite's equivalence battery pins this); the table ties on
//! row counts and separates on prompts and the virtual clock. The
//! unlimited row is the control: with no window to cover, early stop must
//! change nothing. The bin asserts all three: equal rows, never more
//! prompts with early stop on, and an unlimited row tied on prompts and
//! virtual ms.
//!
//! Usage: `ablation_limit [--seed 42] [--parallelism 8]`.

use galois_bench::{fresh_session, Flags};
use galois_core::{GaloisOptions, Parallelism, Pipeline};
use galois_dataset::{Scenario, WorldConfig};
use galois_eval::TextTable;
use galois_llm::ModelProfile;

struct Measure {
    rows: usize,
    prompts: usize,
    list: usize,
    filter: usize,
    fetch: usize,
    virtual_ms: u64,
}

fn measure(
    scenario: &Scenario,
    profile: &ModelProfile,
    lanes: usize,
    pipeline: Pipeline,
    sql: &str,
) -> Measure {
    let options = GaloisOptions {
        parallelism: Parallelism::new(lanes),
        pipeline,
        prompt_batch: GaloisOptions::serving().prompt_batch,
        ..Default::default()
    };
    let session = fresh_session(scenario, profile, options);
    let result = session.execute(sql).expect("ablation query executes");
    Measure {
        rows: result.relation.len(),
        prompts: result.stats.total_prompts(),
        list: result.stats.list_prompts,
        filter: result.stats.filter_prompts,
        fetch: result.stats.fetch_prompts,
        virtual_ms: result.stats.virtual_ms,
    }
}

fn main() {
    let flags = Flags::from_env(&["--seed", "--parallelism"]);
    let seed = flags.seed();
    let lanes = flags.lanes();
    let scenario = Scenario::generate_with(
        seed,
        WorldConfig {
            cities: 120,
            ..Default::default()
        },
    );
    let profile = ModelProfile {
        list_page_size: 10,
        ..ModelProfile::oracle()
    };
    println!(
        "Ablation A8 — LIMIT-aware early termination (paged oracle, {} keys/page, seed {seed}, \
         {lanes} lanes, streaming pipeline, grid fusion B=10 A=6)\n",
        profile.list_page_size
    );

    type SqlShape = fn(Option<usize>) -> String;
    let shapes: [(&str, SqlShape); 2] = [
        ("scan", |n| match n {
            Some(n) => format!("SELECT name FROM city LIMIT {n}"),
            None => "SELECT name FROM city".to_string(),
        }),
        ("filtered", |n| match n {
            Some(n) => {
                format!("SELECT name, population FROM city WHERE elevation < 3000 LIMIT {n}")
            }
            None => "SELECT name, population FROM city WHERE elevation < 3000".to_string(),
        }),
    ];
    let windows = [Some(3usize), Some(10), Some(25), Some(60), None];

    let mut t = TextTable::new(&[
        "query",
        "limit",
        "rows",
        "prompts off",
        "prompts on",
        "list off/on",
        "filter off/on",
        "fetch off/on",
        "virtual ms off/on",
    ]);
    for (label, sql_of) in shapes {
        for n in windows {
            let sql = sql_of(n);
            let off = measure(&scenario, &profile, lanes, Pipeline::Streaming, &sql);
            let on = measure(&scenario, &profile, lanes, Pipeline::StreamingLimit, &sql);
            assert_eq!(
                off.rows, on.rows,
                "early stop must not change the window size ({sql})"
            );
            assert!(
                on.prompts <= off.prompts,
                "early stop must never cost prompts ({sql}): {} > {}",
                on.prompts,
                off.prompts
            );
            if n.is_none() {
                // No window to cover: early stop must change nothing.
                assert_eq!(
                    (on.prompts, on.virtual_ms),
                    (off.prompts, off.virtual_ms),
                    "the unlimited row must tie on prompts and virtual ms ({sql})"
                );
            }
            t.row(vec![
                label.to_string(),
                n.map_or_else(|| "none".to_string(), |n| n.to_string()),
                on.rows.to_string(),
                off.prompts.to_string(),
                on.prompts.to_string(),
                format!("{}/{}", off.list, on.list),
                format!("{}/{}", off.filter, on.filter),
                format!("{}/{}", off.fetch, on.fetch),
                format!("{}/{}", off.virtual_ms, on.virtual_ms),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "(asserted: identical row counts, never more prompts with early stop on, and an \
         unlimited row that ties exactly on prompts and virtual ms; with early stop on, list \
         pages stop shortly after the window is covered, so prompts grow with n)"
    );
}
