//! Golden readings of `Pipeline::Off` (PR 19).
//!
//! `Pipeline::Off` used to be a second implementation of the retrieval
//! protocol, and the `*_equivalence` batteries cross-checked it against
//! its sibling. With one protocol there is no sibling: this file pins what
//! the barrier-separated pipeline *read* on the engine that still had the
//! wave functions, so a refactor of the shared protocol has something
//! fixed to answer to.
//!
//! `tests/fixtures/wave_golden.txt` holds one line per suite query of
//! `small_config()` seed 42, executed in suite order on one session and
//! one thread, for every cell of `PromptBatch::{Off, Keys(8), Grid{8,4}}`
//! × `ListStore::{Off, On}` × `K ∈ {1, 8}` on the oracle model (store-on
//! cells run the suite twice on the same session, so warm universes and
//! sub-entry reads are pinned too), plus two `LineDropper` cells (`Keys(8)`
//! and `Grid{8,4}`, `K = 1`) that walk the fallback ladder. A line is
//!
//! ```text
//! <cell> <pass> q<id> <stable> <full>
//! ```
//!
//! where `stable` is an FNV-1a digest of the sorted rows, the prompts per
//! kind, `cache_hits` and both token totals, and `full` a digest of the
//! sorted rows and *every* `QueryStats` field but `wall_ms`. Each pass
//! ends with a `total` line carrying the pass's prompts per kind and cache
//! hits in the clear.
//!
//! `full` is `-` where the pre-PR-19 engine did not reproduce it: at
//! `K = 8` it ran a statement's steps on concurrent threads, so a
//! statement whose steps shared prompts would have split the misses, and
//! with them the clocks, by thread timing. The writer runs every `K = 8`
//! cell five times and blanks what moved; the suite's joins are between
//! different tables, so nothing did (three whole-file generations on the
//! parent were byte-identical, `unstable=0` in the fixture's header) and
//! every line carries both digests.
//!
//! Every line is the parent's, generated in this file's first commit —
//! the `dropper-grid8x4` cell included, although below the grid rung the
//! ladder now re-asks a *chunk's* failed cells together where the wave
//! engine re-chunked a column's failed cells across the whole key list
//! (ARCHITECTURE.md "Fallback ladder"): on this world and chunk size the
//! two rules send the same prompts.
//!
//! Regenerate with
//! `cargo test --test wave_golden -- --ignored regenerate_wave_golden_fixture`.

mod common;

use common::{options, oracle_session, session_with_model, small_config, sorted_rows, LineDropper};
use galois::core::{Galois, GaloisOptions, ListStore, Pipeline, PromptBatch, QueryStats};
use galois::dataset::Scenario;
use std::fmt::Write as _;
use std::sync::Arc;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/wave_golden.txt"
);

/// Runs of a `K = 8` cell the writer compares before pinning `full`.
const REPRODUCTIONS: usize = 5;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One fixture cell: a label, whether the suite runs twice, its lanes and
/// how to open its session.
struct Cell {
    label: String,
    passes: usize,
    lanes: usize,
    open: Box<dyn Fn(&Scenario) -> Galois>,
}

fn cells() -> Vec<Cell> {
    let batches = [
        ("off", PromptBatch::Off),
        ("keys8", PromptBatch::Keys(8)),
        ("grid8x4", PromptBatch::Grid { keys: 8, attrs: 4 }),
    ];
    let wave = |batch, store: ListStore, lanes| -> GaloisOptions {
        options(store, Pipeline::Off, batch, lanes)
    };
    let mut out = Vec::new();
    for (batch_label, batch) in batches {
        for (store_label, store) in [("nostore", ListStore::Off), ("store", ListStore::On)] {
            for lanes in [1usize, 8] {
                let passes = if store.is_on() { 2 } else { 1 };
                let store = store.clone();
                out.push(Cell {
                    label: format!("{batch_label}-{store_label}-k{lanes}"),
                    passes,
                    lanes,
                    open: Box::new(move |s| oracle_session(s, wave(batch, store.clone(), lanes))),
                });
            }
        }
    }
    for (label, batch) in [
        ("dropper-keys8", PromptBatch::Keys(8)),
        ("dropper-grid8x4", PromptBatch::Grid { keys: 8, attrs: 4 }),
    ] {
        out.push(Cell {
            label: label.to_string(),
            passes: 1,
            lanes: 1,
            open: Box::new(move |s| {
                session_with_model(
                    Arc::new(LineDropper::oracle(s)),
                    s,
                    wave(batch, ListStore::Off, 1),
                )
            }),
        });
    }
    out
}

/// One cell's lines: `(key, stable digest, full digest)` per query, and a
/// `total` line per pass.
fn run_cell(s: &Scenario, cell: &Cell) -> Vec<(String, String, String)> {
    let session = (cell.open)(s);
    let mut lines = Vec::new();
    for pass in 0..cell.passes {
        let mut total = QueryStats::default();
        for spec in &s.suite {
            let got = session.execute(&spec.to_sql()).unwrap();
            let st = got.stats;
            let rows = format!("{:?}", sorted_rows(&got.relation));
            let stable = format!(
                "{rows}|{}|{}|{}|{}|{}|{}",
                st.list_prompts,
                st.filter_prompts,
                st.fetch_prompts,
                st.cache_hits,
                st.prompt_tokens,
                st.completion_tokens
            );
            let full = format!("{rows}|{:?}", QueryStats { wall_ms: 0, ..st });
            lines.push((
                format!("{} {pass} q{}", cell.label, spec.id),
                format!("{:016x}", fnv1a(&stable)),
                format!("{:016x}", fnv1a(&full)),
            ));
            total.list_prompts += st.list_prompts;
            total.filter_prompts += st.filter_prompts;
            total.fetch_prompts += st.fetch_prompts;
            total.cache_hits += st.cache_hits;
        }
        lines.push((
            format!("{} {pass} total", cell.label),
            format!(
                "list={},filter={},fetch={}",
                total.list_prompts, total.filter_prompts, total.fetch_prompts
            ),
            format!("cache_hits={}", total.cache_hits),
        ));
    }
    lines
}

#[test]
fn pipeline_off_reproduces_the_golden_readings() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("committed fixture");
    let pinned: std::collections::HashMap<&str, (&str, &str)> = fixture
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let mut fields = line.rsplitn(3, ' ');
            let (full, stable) = (fields.next().unwrap(), fields.next().unwrap());
            (fields.next().expect("key, stable, full"), (stable, full))
        })
        .collect();
    let s = Scenario::generate_with(42, small_config());
    let mut checked = 0;
    let mut moved = Vec::new();
    for cell in cells() {
        for (key, stable, full) in run_cell(&s, &cell) {
            let (pinned_stable, pinned_full) = pinned
                .get(key.as_str())
                .unwrap_or_else(|| panic!("{key}: not in the fixture"));
            checked += 1;
            if stable != *pinned_stable {
                moved.push(format!("{key}: stable {stable}, pinned {pinned_stable}"));
            } else if *pinned_full != "-" && full != *pinned_full {
                moved.push(format!("{key}: full {full}, pinned {pinned_full}"));
            }
        }
    }
    assert_eq!(checked, pinned.len(), "fixture lines no cell produced");
    assert!(
        moved.is_empty(),
        "{} of {checked} readings moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

/// Writes the fixture from the engine as built. Only for a change that is
/// *meant* to move a reading; say which and why in the header above.
#[test]
#[ignore = "rewrites tests/fixtures/wave_golden.txt"]
fn regenerate_wave_golden_fixture() {
    let s = Scenario::generate_with(42, small_config());
    let mut body = String::new();
    let mut unstable = 0;
    for cell in cells() {
        let mut lines = run_cell(&s, &cell);
        if cell.lanes > 1 {
            for _ in 1..REPRODUCTIONS {
                for (line, again) in lines.iter_mut().zip(run_cell(&s, &cell)) {
                    assert_eq!(line.0, again.0);
                    assert_eq!(line.1, again.1, "{}: stable fields moved", line.0);
                    if line.2 != again.2 && line.2 != "-" {
                        line.2 = "-".to_string();
                        unstable += 1;
                    }
                }
            }
        }
        for (key, stable, full) in lines {
            writeln!(body, "{key} {stable} {full}").unwrap();
        }
    }
    let header =
        format!("# Pipeline::Off golden readings; see tests/wave_golden.rs. unstable={unstable}\n");
    std::fs::write(FIXTURE, header + &body).unwrap();
}
