//! Writes `BENCH_e2e.json`, the virtual-clock ledger of the 46-query
//! oracle suite: one row per engine configuration, from the paper-faithful
//! sequential pipeline to the grid-fused stack behind a shared lane pool,
//! plus the paper's two QA baselines. The rows, what each measures and the
//! claims they must keep against each other are `galois_bench::ledger`'s;
//! this binary builds them, writes the file and prints each row (with host
//! wall time, which the file does not carry).
//!
//! Usage: `perf_report [--seed 42] [--parallelism 8] [--batch 10]
//! [--grid-attrs 6] [--grid-keys <batch>] [--sessions 16] [--inflight 14]
//! [--out BENCH_e2e.json]`. Without flags it rewrites the committed file,
//! byte for byte unless a row moved.

use galois_bench::ledger::{Ledger, LedgerConfig};
use galois_bench::Flags;

fn main() {
    let flags = Flags::from_env(&[
        "--seed",
        "--parallelism",
        "--batch",
        "--grid-attrs",
        "--grid-keys",
        "--sessions",
        "--inflight",
        "--out",
    ]);
    let defaults = LedgerConfig::default();
    let batch = flags.get("--batch", defaults.batch).max(1);
    let config = LedgerConfig {
        seed: flags.seed(),
        lanes: flags.lanes(),
        batch,
        grid_keys: flags.get("--grid-keys", batch).max(1),
        grid_attrs: flags.get("--grid-attrs", defaults.grid_attrs).max(1),
        sessions: flags.get("--sessions", defaults.sessions).max(1),
        inflight: flags.get("--inflight", defaults.inflight),
    };
    let out = flags.get("--out", "BENCH_e2e.json".to_string());

    let ledger = Ledger::build(&config);
    std::fs::write(&out, ledger.to_json()).expect("write report");
    println!("wrote {out}");

    println!(
        "suite virtual time: {} ms sequential -> {} ms scheduled ({:.1}x, {} lanes)",
        ledger.row("galois_sequential").totals.virtual_ms,
        ledger.row("galois_scheduled").totals.virtual_ms,
        ledger.virtual_speedup(),
        config.lanes
    );
    for row in &ledger.rows {
        let t = &row.totals;
        println!(
            "  {:<22} prompts {:>5}  cache_hits {:>5}  virtual {:>7} ms  wall {:>5} ms  \
             (list {} / filter {} / fetch {})",
            row.name,
            t.prompts,
            t.cache_hits,
            t.virtual_ms,
            t.wall_ms,
            t.list_virtual_ms,
            t.filter_virtual_ms,
            t.fetch_virtual_ms,
        );
    }
    // The claims are stated for the committed configuration; another one
    // is an experiment and may legitimately break them.
    if config == defaults {
        ledger.assert_invariants();
    }
}
