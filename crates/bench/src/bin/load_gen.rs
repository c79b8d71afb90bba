//! Closed-loop multi-session load generator over the shared lane pool.
//!
//! Replays the 46-query oracle suite — and a scaled world's suite (see
//! [`Scenario::generate_scaled`]) — at `{2, 4, 8, 16, 32, 64}` concurrent
//! closed-loop sessions through the cross-query scheduler: queries are
//! dealt round-robin onto sessions, every session submits its next query
//! the instant the previous one finishes, and all sessions draw lanes
//! from one shared pool (`sessions × K` lanes) under fair admission.
//! Each sweep point reports the suite **makespan**, p50/p99 per-query
//! virtual latency, total admission-queue delay, prompts per query and
//! lane-pool utilisation.
//!
//! The generator is fully deterministic — the logical pass runs queries
//! in canonical suite order, so answers and prompt totals are identical
//! at every session count (the `prompts/query` column must not move down
//! a sweep); only the clocks change. The `--inflight` cap (0 = unlimited)
//! makes queueing visible: with it set below the session count, the
//! `queue ms` column grows while the makespan degrades gracefully.
//!
//! Usage: `load_gen [--seed 42] [--parallelism 8] [--scale 3]
//! [--inflight 0]`.

use galois_bench::Flags;
use galois_core::{AdmissionPolicy, GaloisOptions, Parallelism};
use galois_dataset::Scenario;
use galois_eval::{run_suite_concurrent, TextTable};
use galois_llm::ModelProfile;

fn sweep(
    t: &mut TextTable,
    world: &str,
    scenario: &Scenario,
    options: &GaloisOptions,
    policy: &AdmissionPolicy,
) {
    for sessions in [2usize, 4, 8, 16, 32, 64] {
        let run = run_suite_concurrent(
            scenario,
            ModelProfile::oracle(),
            options.clone(),
            sessions,
            policy,
        )
        .expect("the serving stack streams, so its traces replay");
        t.row(vec![
            world.to_string(),
            sessions.to_string(),
            run.pool_lanes.to_string(),
            run.makespan_ms.to_string(),
            run.p50_latency_ms.to_string(),
            run.p99_latency_ms.to_string(),
            run.total_queue_ms.to_string(),
            format!("{:.1}", run.prompts_per_query()),
            format!("{:.0}%", run.lane_utilisation * 100.0),
        ]);
    }
}

fn main() {
    let flags = Flags::from_env(&["--seed", "--parallelism", "--scale", "--inflight"]);
    let seed = flags.seed();
    let lanes = flags.lanes();
    let scale = flags.get("--scale", 3usize).max(1);
    let inflight = flags.get("--inflight", 0usize);
    let options = GaloisOptions {
        parallelism: Parallelism::new(lanes),
        ..GaloisOptions::serving()
    };
    let policy = AdmissionPolicy {
        max_inflight: inflight,
        ..Default::default()
    };
    println!(
        "Closed-loop load sweep — serving stack (seed {seed}, K={lanes} lanes/session)\n\
         admission: {policy}\n"
    );

    let oracle46 = Scenario::generate(seed);
    let scaled = Scenario::generate_scaled(seed, scale);
    let mut t = TextTable::new(&[
        "world",
        "sessions",
        "pool lanes",
        "makespan ms",
        "p50 ms",
        "p99 ms",
        "queue ms",
        "prompts/query",
        "pool util",
    ]);
    sweep(&mut t, "oracle-46", &oracle46, &options, &policy);
    sweep(
        &mut t,
        &format!("scaled-x{scale}"),
        &scaled,
        &options,
        &policy,
    );
    println!("{}", t.render());
    println!(
        "(expected: prompts/query constant down each world's sweep — concurrency never changes \
         the logical work — while the makespan falls with the session count until the longest \
         single session chain floors it, and queue ms stays zero unless --inflight binds)"
    );
}
