//! Golden `EXPLAIN` reports (PR 24).
//!
//! `plan_choice`'s unit tests check substrings of a report; nothing held
//! the whole text. This file does, so a change to how the planner's
//! parameters are built or read — which session option tags the header,
//! which estimate a step line carries — has something fixed to answer to.
//!
//! `tests/fixtures/explain_golden.txt` holds, for `small_config()` seed 42
//! on the oracle model, the full report of the evaluation suite's 46
//! statements followed by the operator suite's 18 under
//!
//! * `default` — `GaloisOptions::default()`;
//! * `serving-cold` — the serving stack (`GaloisOptions::serving()`)
//!   on a session that has executed nothing (`list: cold` on every step);
//! * `serving-warm` — the same session after one pass of the 64
//!   statements: the calibration is the one frozen cold, the live overlay
//!   shows the universes the pass stored (`list: warm (n keys)`);
//!
//! and one statement each under `Resilience::On(default)` (the
//! `resilience:` line), early stop on a plain `LIMIT` window over the
//! event driver (the `limit:` line), and key batching (`Grid { keys: 10,
//! attrs: 1 }`) on `Pipeline::Off` (the `batch:` tag without the
//! `pipeline:` one). A section is
//!
//! ```text
//! ## <cell> <n>: <sql>
//! <the report>
//! ```
//!
//! Every byte is the parent's, generated in this file's first commit
//! through the planner's parameter struct of that time, since removed:
//! planning reads the session's options, a two-number calibration and
//! the warm-list overlay directly (the early-stop
//! cell as `EarlyStop::Limit` over `Pipeline::Streaming`, which is
//! `Pipeline::StreamingLimit` now); no cell set an admission policy, so
//! the `admission:` line PR 24 took out of the report is in none of them.
//!
//! Since then only the `join order:` lines have moved, in a commit of
//! their own: they name the algorithm the executor joins with
//! (`galois_relational::join_algorithm` — an index join on one side's key,
//! a hash join building the right side, or a nested loop) and each side's
//! estimated rows, where they read `probe rows≈, build rows≈` before.
//! Then, again in a commit of their own, the joins the cost planner had
//! commuted to build on the smaller side went back to `FROM` order: their
//! `join order:` and `[relational plan]` lines moved (each an index join
//! on the same key either way, now always the right side's), and the
//! `Project` that restored the column order above each is gone.
//!
//! Regenerate with
//! `cargo test --test explain_golden -- --ignored regenerate_explain_golden_fixture`.

mod common;

use common::{key_batch, options, oracle_session, small_config, statements};
use galois::core::{GaloisOptions, ListStore, Pipeline, PromptBatch, Resilience, RetryPolicy};
use galois::dataset::Scenario;
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/explain_golden.txt"
);

const HEADER: &str = "# EXPLAIN golden reports; see tests/explain_golden.rs.\n";

/// One section per report: `cell`'s reports of `statements`, in order.
fn explain_all(out: &mut String, cell: &str, session: &galois::core::Galois, sqls: &[String]) {
    for (n, sql) in sqls.iter().enumerate() {
        let report = session
            .explain(sql)
            .unwrap_or_else(|e| panic!("{cell} {n}: {sql}: {e}"));
        writeln!(out, "## {cell} {n}: {sql}").unwrap();
        out.push_str(&report);
    }
}

/// The whole fixture, from the engine as built.
fn reports() -> String {
    let s = Scenario::generate_with(42, small_config());
    let sqls = statements(&s);
    assert_eq!(sqls.len(), 46 + 18);
    let mut out = HEADER.to_string();

    explain_all(
        &mut out,
        "default",
        &oracle_session(&s, GaloisOptions::default()),
        &sqls,
    );

    let serving = oracle_session(&s, GaloisOptions::serving());
    explain_all(&mut out, "serving-cold", &serving, &sqls);
    for sql in &sqls {
        serving
            .execute(sql)
            .unwrap_or_else(|e| panic!("warming pass: {sql}: {e}"));
    }
    explain_all(&mut out, "serving-warm", &serving, &sqls);

    let one = |out: &mut String, cell: &str, opts: GaloisOptions, sql: &str| {
        explain_all(out, cell, &oracle_session(&s, opts), &[sql.to_string()]);
    };
    one(
        &mut out,
        "resilience",
        GaloisOptions {
            resilience: Resilience::On(RetryPolicy::default()),
            ..Default::default()
        },
        "SELECT name FROM city WHERE population > 1000000",
    );
    one(
        &mut out,
        "early-stop",
        options(
            ListStore::Off,
            Pipeline::StreamingLimit,
            PromptBatch::Off,
            8,
        ),
        "SELECT name FROM city LIMIT 5 OFFSET 2",
    );
    one(
        &mut out,
        "keys10-wave",
        options(ListStore::Off, Pipeline::Off, key_batch(10), 1),
        "SELECT name, population FROM city WHERE elevation < 100",
    );
    out
}

#[test]
fn explain_reports_match_the_golden_fixture_byte_for_byte() {
    let pinned = std::fs::read_to_string(FIXTURE).expect("committed fixture");
    let fresh = reports();
    for (n, (ours, theirs)) in fresh.lines().zip(pinned.lines()).enumerate() {
        assert_eq!(ours, theirs, "explain_golden.txt line {}", n + 1);
    }
    assert_eq!(
        fresh.len(),
        pinned.len(),
        "one side has lines the other lacks"
    );
}

/// Writes the fixture from the engine as built. Only for a change that is
/// *meant* to move a report; say which lines and why in the header above.
#[test]
#[ignore = "rewrites tests/fixtures/explain_golden.txt"]
fn regenerate_explain_golden_fixture() {
    std::fs::write(FIXTURE, reports()).unwrap();
}
