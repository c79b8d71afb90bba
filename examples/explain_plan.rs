//! `EXPLAIN` and the cost-based planner: inspect how Galois would execute
//! a query — which conditions become pushed-down scan prompts, which stay
//! per-key boolean prompts, what every step is expected to cost — without
//! issuing a single prompt, then execute under both planner modes (with
//! multi-key prompt batching and the streaming pipeline) and compare the
//! real accounting.
//!
//! Run with: `cargo run --release --example explain_plan`

use galois::core::{
    run_multi_query, AdmissionPolicy, Galois, GaloisOptions, Parallelism, Pipeline, Planner,
    PromptBatch, Resilience, RetryPolicy,
};
use galois::dataset::Scenario;
use galois::llm::{FaultProfile, FaultyLlm, ModelProfile, SimLlm};
use std::sync::Arc;

fn main() {
    let scenario = Scenario::generate(42);
    let sql = "SELECT name, population FROM city WHERE elevation < 100";

    for (label, planner, prompt_batch, pipeline, lanes) in [
        (
            "heuristic",
            Planner::Heuristic,
            PromptBatch::Off,
            Pipeline::Off,
            1,
        ),
        (
            "cost-based",
            Planner::CostBased,
            PromptBatch::Off,
            Pipeline::Off,
            1,
        ),
        (
            "cost-based + batch 10",
            Planner::CostBased,
            PromptBatch::Grid { keys: 10, attrs: 1 },
            Pipeline::Off,
            1,
        ),
        // The streaming pipeline needs lanes: the EXPLAIN header gains
        // `pipeline: streaming` and the latency estimate becomes the
        // dataflow's critical path instead of the phase-barrier sum.
        (
            "cost-based + batch 10 + streaming, 8 lanes",
            Planner::CostBased,
            PromptBatch::Grid { keys: 10, attrs: 1 },
            Pipeline::Streaming,
            8,
        ),
        // Grid fusion adds the attribute axis: the header's batch tag
        // becomes `batch: 10 keys × 4 attrs/prompt` and the fetch
        // estimate drops to `⌈C/A⌉` chunk streams.
        (
            "cost-based + grid 10×4 + streaming, 8 lanes",
            Planner::CostBased,
            PromptBatch::Grid { keys: 10, attrs: 4 },
            Pipeline::Streaming,
            8,
        ),
    ] {
        let model = Arc::new(SimLlm::new(
            scenario.knowledge.clone(),
            ModelProfile::oracle(),
        ));
        let galois = Galois::with_options(
            model,
            scenario.database.clone(),
            GaloisOptions {
                planner,
                prompt_batch,
                pipeline,
                parallelism: Parallelism::new(lanes),
                ..Default::default()
            },
        );

        // `EXPLAIN <query>` goes through the ordinary execute() channel and
        // returns the plan as a one-column QUERY PLAN relation, costing
        // zero prompts.
        let explained = galois.execute(&format!("EXPLAIN {sql}")).unwrap();
        println!("=== {label} ===");
        for row in &explained.relation.rows {
            println!("{}", row[0].render());
        }
        assert_eq!(explained.stats.total_prompts(), 0);

        // Now actually run it and compare the estimate with reality.
        let result = galois.execute(sql).unwrap();
        println!(
            "actual: {} rows, {} prompts ({} list + {} filter + {} fetch), {} virtual ms\n",
            result.relation.len(),
            result.stats.total_prompts(),
            result.stats.list_prompts,
            result.stats.filter_prompts,
            result.stats.fetch_prompts,
            result.stats.virtual_ms,
        );
    }

    // Resilience: the same query over a model that fails ~20 % of all
    // prompts (deterministically, via the seeded FaultyLlm wrapper).
    // EXPLAIN gains a `resilience:` line showing the armed policy, and
    // the actual run's retry counters surface in QueryStats — while the
    // relation and the prompt bill net of retries stay exactly the
    // fault-free run's.
    let model = Arc::new(FaultyLlm::new(
        Arc::new(SimLlm::new(
            scenario.knowledge.clone(),
            ModelProfile::oracle(),
        )),
        FaultProfile::with_rate(0.2),
    ));
    let galois = Galois::with_options(
        model,
        scenario.database.clone(),
        GaloisOptions {
            planner: Planner::CostBased,
            prompt_batch: PromptBatch::Grid { keys: 10, attrs: 1 },
            resilience: Resilience::On(RetryPolicy::default()),
            ..Default::default()
        },
    );
    let explained = galois.execute(&format!("EXPLAIN {sql}")).unwrap();
    println!("=== cost-based + batch 10 + resilience, 20 % faults ===");
    for row in &explained.relation.rows {
        println!("{}", row[0].render());
    }
    assert_eq!(explained.stats.total_prompts(), 0);
    let result = galois.execute(sql).unwrap();
    println!(
        "actual: {} rows, {} prompts net of retries, {} retries \
         ({} timeouts, {} rate-limited), {} failed cells, {} virtual ms",
        result.relation.len(),
        result.stats.total_prompts(),
        result.stats.retries,
        result.stats.timeouts,
        result.stats.rate_limited,
        result.stats.failed_cells,
        result.stats.virtual_ms,
    );
    assert_eq!(result.stats.failed_cells, 0, "retries absorb the schedule");

    // Admission control is not a session option: the policy is the
    // argument of `run_multi_query`, which replays the queries' task traces
    // on one shared lane pool. EXPLAIN therefore says nothing about it —
    // the plan and its estimates are what any replay of it starts from —
    // and the caller that applies a policy prints its one-line description
    // beside the clocks it measured: admission reshapes *when* traces
    // replay, never what a query asks.
    let galois = Galois::with_options(
        Arc::new(SimLlm::new(
            scenario.knowledge.clone(),
            ModelProfile::oracle(),
        )),
        scenario.database.clone(),
        GaloisOptions::serving(),
    );
    let explained = galois.explain(sql).unwrap();
    assert!(!explained.contains("admission:"));
    let sqls: Vec<String> = scenario.suite.iter().take(8).map(|q| q.to_sql()).collect();
    let queries: Vec<&str> = sqls.iter().map(String::as_str).collect();
    let session_of: Vec<usize> = (0..queries.len()).collect();
    let policy = AdmissionPolicy { max_inflight: 2 };
    let report = run_multi_query(&galois, &queries, &session_of, &policy).unwrap();
    println!("\n=== serving stack, 8 sessions on one shared pool ===");
    println!("admission: {policy}");
    println!(
        "actual: {} queries on {} lanes, makespan {} virtual ms, {} ms queued at the window",
        report.outcomes.len(),
        report.pool_lanes,
        report.makespan_ms,
        report.total_queue_ms,
    );
    assert_eq!(
        policy.to_string(),
        "shared pool (sessions × K lanes, least-served first), in-flight cap 2 queries"
    );
    assert_eq!(report.pool_lanes, 64);
    assert!(
        report.total_queue_ms > 0,
        "a 2-query window over 8 arrivals"
    );
}
