//! Emits `BENCH_e2e.json`: end-to-end prompt/latency accounting for the
//! 46-query oracle suite, before and after the concurrent prompt
//! scheduler.
//!
//! Methods reported:
//!
//! * `galois_sequential` — `Parallelism(1)`, one harness thread: the
//!   pre-scheduler numbers (`virtual_ms == serial_virtual_ms`);
//! * `galois_scheduled` — `Parallelism(K)` request lanes inside every
//!   query *and* `K` concurrent query streams across the suite, with the
//!   default heuristic planner;
//! * `galois_cost_planner` — same concurrency, but plans chosen by the
//!   cost-based prompt-aware planner (`Planner::CostBased`): identical
//!   relations, fewer prompts, lower virtual time;
//! * `galois_batched` — the cost-planner configuration plus multi-key
//!   prompt batching (`PromptBatch::Keys(B)`, default `B = 10`): each
//!   filter/fetch cell issues `ceil(keys / B)` fused prompts instead of
//!   `keys`, with identical relations on the oracle;
//! * `galois_pipelined` — the batched configuration plus
//!   `Pipeline::Streaming`: the same prompts, but keys flow through
//!   filter/fetch micro-batches under the event-driven clock instead of
//!   waiting at the phase barriers;
//! * `galois_listcached_cold` / `galois_listcached_warm` — the pipelined
//!   configuration plus the shared key-universe store
//!   (`ListStore::On`), run as **two suite passes on one session**: the
//!   cold pass pages every concept's key universe (speculatively, across
//!   the lanes) and stores it; the warm pass reads every universe back at
//!   zero list-prompt cost, collapsing the list-phase virtual floor. The
//!   cold pass runs on **one harness thread** so its row is exactly
//!   reproducible — with `K` query threads its prompt total wobbled a few
//!   prompts between runs (racing queries re-ask in-flight keys), which
//!   made the row disagree with the 1-thread `listcached_parity` object
//!   (e.g. 182 vs 174). The method row and the parity object are now the
//!   same measurement, and the method row is the authoritative one; the
//!   warm pass still runs across `K` streams (deterministic regardless —
//!   everything is cached);
//! * `galois_grid_fused` — the listcached-cold configuration with
//!   `PromptBatch::Grid { keys: B, attrs: A }` (default `A = 6`, wide
//!   enough to cover every table's non-key width; `--grid-keys` overrides
//!   `B`, defaulting to `--batch`): one prompt asks up to `A` attributes
//!   for up to `B` keys, cutting the fetch phase from `C × ⌈keys/B⌉` to
//!   `⌈C/A⌉ × ⌈keys/B⌉` prompts per step, and speculative pad columns
//!   seed the sub-entry store so later queries on the same table fetch
//!   at zero prompt cost. One harness thread keeps the row exactly
//!   reproducible;
//! * `galois_limit_streaming` / `galois_limit_unlimited` — the operator
//!   suite's LIMIT family over a widened world (a 120-key `city` concept,
//!   10-key list pages) through the streaming grid-fused stack. The
//!   `limit_streaming` row runs the LIMIT queries with
//!   `EarlyStop::Limit`: once confirmed survivors cover the window, list
//!   paging is cancelled and the remaining filter/fetch micro-batches are
//!   pruned. The `limit_unlimited` row runs the same queries' *unlimited*
//!   forms on the same stack — the prompt gap is what LIMIT-aware early
//!   termination buys. One harness thread keeps both rows exactly
//!   reproducible;
//! * `galois_faulty_retry` — the sequential configuration re-run over a
//!   [`FaultyLlm`]-wrapped oracle failing ~20 % of all prompts
//!   (deterministically; truncated faults excluded so every fault is
//!   marker-detectable), with `Resilience::On(RetryPolicy::default())`.
//!   The retry budget dominates the injector's consecutive-failure cap,
//!   so the row must tie `galois_sequential` **exactly** on prompts (net
//!   of retries) and cache hits — CI asserts this — while its virtual
//!   clock carries the billed retry/backoff overhead. One harness thread
//!   keeps the row exactly reproducible;
//! * `galois_multiquery` — the grid-fused stack replayed at `--sessions`
//!   (default 16) concurrent closed-loop sessions over one **shared lane
//!   pool** (`sessions × K` lanes) through the cross-query scheduler,
//!   with `max_inflight` admission (default 14, two below the session
//!   count) so queueing delay is exercised without serialising the
//!   suite. Queries execute logically in canonical suite order (answers
//!   and prompt accounting tie the serial stack bit for bit — the
//!   determinism battery pins this), then their task traces replay on
//!   the shared pool, overlapping one query's list-bound tail with
//!   another's filter/fetch work. The row's `virtual_ms` is the suite
//!   **makespan**, CI-asserted strictly below `galois_grid_fused`'s, and
//!   it alone carries `sessions` / `pool_lanes` / `p50_latency_ms` /
//!   `p99_latency_ms` / `lane_utilisation` fields;
//! * `qa_baseline` / `qa_cot_baseline` — the paper's `T_M` and `T_C_M`
//!   one-prompt-per-question methods, across `K` streams.
//!
//! Every Galois row also carries a per-phase virtual-time breakdown
//! (`list_virtual_ms` / `filter_virtual_ms` / `fetch_virtual_ms`) so the
//! remaining time can be located per protocol phase.
//!
//! Method rows share one uniform schema (see `crates/bench/README.md`):
//! `parallelism` is always the session's request-lane count `K` from the
//! row's `GaloisOptions`, `threads` is always the harness worker-thread
//! count the suite was driven with, and `queue_ms` (admission-queue
//! delay) is present on every row — zero everywhere except
//! `galois_multiquery`.
//!
//! The `pipeline_parity` object holds the batched-vs-pipelined
//! prompt/cache-hit comparison re-run on **one** harness thread. With `K`
//! real query threads, concurrently-running queries race on the shared
//! per-key sub-entry store: `cache_hits` are counted by signature (never
//! by arrival order) and so stay deterministic, but a racing query
//! re-asks in-flight keys, so the main rows' *prompt* totals can still
//! wobble by a few prompts between runs — the single-threaded pair is
//! exactly reproducible on every field, which is what CI asserts equality
//! on. The `listcached_parity` object plays the same role for the
//! `K`-thread listcached rows: the same cold/warm passes re-run on one
//! harness thread (a fresh store session).
//!
//! Usage: `perf_report [--seed 42] [--parallelism 8] [--batch 10]
//! [--grid-attrs 6] [--grid-keys 10] [--sessions 16] [--inflight 14]
//! [--out BENCH_e2e.json]`.

use galois_bench::{
    batched_options as batched_stack, cost_planned_options, detectable_fault_profile,
    grid_stack_options, lanes_from_args, parsed_flag, pipelined_options as pipelined_stack,
    seed_from_args, string_flag,
};
use galois_core::{
    Admission, AdmissionPolicy, BaselineKind, Galois, GaloisOptions, ListStore, Parallelism,
    Pipeline, PromptBatch, Resilience, RetryPolicy,
};
use galois_dataset::Scenario;
use galois_eval::{
    model_for, run_baseline_suite_parallel, run_galois_suite_on, run_galois_suite_parallel,
    run_suite_concurrent, suite_totals, BaselineRun, ConcurrentSuiteRun, SuiteTotals,
};
use galois_llm::{lane_schedule, FaultyLlm, ModelProfile};

/// One method's row in the JSON report. Every row carries the same flat
/// schema (documented in `crates/bench/README.md`); the multi-query row
/// appends its scheduling fields via `extra`.
struct MethodReport {
    name: &'static str,
    parallelism: usize,
    threads: usize,
    totals: SuiteTotals,
    extra: String,
}

impl MethodReport {
    /// A row whose `parallelism` is derived from the options the run
    /// actually used — the one place the metadata convention lives.
    fn of(
        name: &'static str,
        options: &GaloisOptions,
        threads: usize,
        totals: SuiteTotals,
    ) -> Self {
        MethodReport {
            name,
            parallelism: options.parallelism.get(),
            threads,
            totals,
            extra: String::new(),
        }
    }

    fn to_json(&self) -> String {
        // Phase keys stay flat (no nested object) so line-oriented drift
        // checks keep matching one brace pair per method row. The file is
        // the virtual-clock ledger: host wall time is printed, not written.
        format!(
            "    \"{}\": {{ \"parallelism\": {}, \"threads\": {}, \"virtual_ms\": {}, \
             \"serial_virtual_ms\": {}, \"prompts\": {}, \"cache_hits\": {}, \
             \"list_virtual_ms\": {}, \"filter_virtual_ms\": {}, \"fetch_virtual_ms\": {}, \
             \"queue_ms\": {}{} }}",
            self.name,
            self.parallelism,
            self.threads,
            self.totals.virtual_ms,
            self.totals.serial_virtual_ms,
            self.totals.prompts,
            self.totals.cache_hits,
            self.totals.list_virtual_ms,
            self.totals.filter_virtual_ms,
            self.totals.fetch_virtual_ms,
            self.totals.queue_ms,
            self.extra,
        )
    }
}

/// The multi-query row: the uniform schema plus the shared-pool fields.
fn multiquery_report(options: &GaloisOptions, concurrent: &ConcurrentSuiteRun) -> MethodReport {
    let mut row = MethodReport::of("galois_multiquery", options, 1, concurrent.totals());
    row.extra = format!(
        ", \"sessions\": {}, \"pool_lanes\": {}, \"p50_latency_ms\": {}, \
         \"p99_latency_ms\": {}, \"lane_utilisation\": {:.3}",
        concurrent.sessions,
        concurrent.pool_lanes,
        concurrent.p50_latency_ms,
        concurrent.p99_latency_ms,
        concurrent.lane_utilisation,
    );
    row
}

fn baseline_totals(run: &BaselineRun, lanes: usize) -> SuiteTotals {
    SuiteTotals {
        prompts: run.outcomes.len(),
        cache_hits: 0,
        serial_virtual_ms: run.outcomes.iter().map(|o| o.virtual_ms).sum(),
        virtual_ms: lane_schedule(run.outcomes.iter().map(|o| o.virtual_ms), lanes),
        // QA baselines answer each question with one prompt: there are no
        // retrieval phases to attribute, and nothing queues.
        list_virtual_ms: 0,
        filter_virtual_ms: 0,
        fetch_virtual_ms: 0,
        wall_ms: run.wall_ms,
        queue_ms: 0,
    }
}

fn main() {
    let seed = seed_from_args();
    let lanes = lanes_from_args();
    let out = string_flag("--out").unwrap_or_else(|| "BENCH_e2e.json".to_string());
    let scenario = Scenario::generate(seed);

    let sequential_options = GaloisOptions::default();
    let sequential = run_galois_suite_parallel(
        &scenario,
        ModelProfile::oracle(),
        sequential_options.clone(),
        1,
    );
    let scheduled_options = GaloisOptions {
        parallelism: Parallelism::new(lanes),
        ..Default::default()
    };
    let scheduled = run_galois_suite_parallel(
        &scenario,
        ModelProfile::oracle(),
        scheduled_options.clone(),
        lanes,
    );
    let cost_planner_options = cost_planned_options(lanes);
    let cost_planned = run_galois_suite_parallel(
        &scenario,
        ModelProfile::oracle(),
        cost_planner_options.clone(),
        lanes,
    );
    let batch = parsed_flag::<usize>("--batch").unwrap_or(10).max(1);
    let batched_options = batched_stack(lanes, batch);
    let pipelined_options = pipelined_stack(lanes, batch);
    let batched = run_galois_suite_parallel(
        &scenario,
        ModelProfile::oracle(),
        batched_options.clone(),
        lanes,
    );
    let pipelined = run_galois_suite_parallel(
        &scenario,
        ModelProfile::oracle(),
        pipelined_options.clone(),
        lanes,
    );
    // The parity pair re-runs both configurations on one harness thread:
    // exactly reproducible totals for CI's equality assertions (the
    // K-thread rows race on the shared sub-entry store across queries).
    let parity_batched = suite_totals(
        &run_galois_suite_parallel(
            &scenario,
            ModelProfile::oracle(),
            batched_options.clone(),
            1,
        ),
        lanes,
    );
    let parity_pipelined = suite_totals(
        &run_galois_suite_parallel(
            &scenario,
            ModelProfile::oracle(),
            pipelined_options.clone(),
            1,
        ),
        lanes,
    );
    // The listcached pair: one session with the key-universe store on,
    // the suite run twice, across the full K harness threads (store
    // totals are thread-count-deterministic since the shared-store PR;
    // the prompt totals can wobble like the other K-thread rows, which is
    // why CI asserts equality on the 1-thread parity pair below).
    let store_options = GaloisOptions {
        list_store: ListStore::On,
        ..pipelined_options.clone()
    };
    let store_profile = ModelProfile::oracle();
    let store_session = Galois::with_options(
        model_for(&scenario, store_profile.clone()),
        scenario.database.clone(),
        store_options.clone(),
    );
    // One harness thread for the cold pass: its row is authoritative and
    // must equal the listcached_parity object exactly (see the module
    // docs for the old K-thread wobble).
    let listcached_cold = run_galois_suite_on(&scenario, &store_session, &store_profile.name, 1);
    let listcached_warm =
        run_galois_suite_on(&scenario, &store_session, &store_profile.name, lanes);
    // The 1-thread listcached parity pair: a fresh store session, both
    // passes exactly reproducible on every field.
    let parity_store_session = Galois::with_options(
        model_for(&scenario, store_profile.clone()),
        scenario.database.clone(),
        store_options.clone(),
    );
    let parity_listcached_cold = suite_totals(
        &run_galois_suite_on(&scenario, &parity_store_session, &store_profile.name, 1),
        lanes,
    );
    let parity_listcached_warm = suite_totals(
        &run_galois_suite_on(&scenario, &parity_store_session, &store_profile.name, 1),
        lanes,
    );
    // The grid-fused row: the listcached-cold configuration with
    // multi-attribute grid prompting. One harness thread keeps it exactly
    // reproducible; the lanes still drive the per-query dataflow.
    let grid_attrs = parsed_flag::<usize>("--grid-attrs").unwrap_or(6).max(1);
    let grid_keys = parsed_flag::<usize>("--grid-keys").unwrap_or(batch).max(1);
    let grid_options = grid_stack_options(lanes, grid_keys, grid_attrs);
    let grid_session = Galois::with_options(
        model_for(&scenario, store_profile.clone()),
        scenario.database.clone(),
        grid_options.clone(),
    );
    let grid_fused = run_galois_suite_on(&scenario, &grid_session, &store_profile.name, 1);

    // The cross-query scheduling row: the grid-fused stack replayed at
    // `--sessions` concurrent closed-loop sessions over one shared
    // `sessions × K`-lane pool, with a finite admission window so
    // queueing delay is exercised. The logical pass runs the suite once
    // in canonical order (answers and prompt accounting tie the serial
    // grid stack), so the row is exactly reproducible.
    let sessions = parsed_flag::<usize>("--sessions").unwrap_or(16).max(1);
    let inflight = parsed_flag::<usize>("--inflight").unwrap_or(14);
    let multiquery_options = GaloisOptions {
        admission: Admission::Fair(AdmissionPolicy {
            max_inflight: inflight,
            ..Default::default()
        }),
        ..grid_stack_options(lanes, grid_keys, grid_attrs)
    };
    let multiquery = run_suite_concurrent(
        &scenario,
        ModelProfile::oracle(),
        multiquery_options.clone(),
        sessions,
    )
    .expect("the grid stack streams, so its traces replay");

    // The LIMIT-aware early-termination pair: the operator suite's LIMIT
    // family over a widened world whose `city` concept spans 120 keys,
    // with 10-key list pages so there is paging to cancel. Both rows run
    // the streaming grid-fused stack on one harness thread; only the
    // early-stop knob (and the LIMIT clause itself) differs.
    let wide = Scenario::generate_with(
        seed,
        galois_dataset::WorldConfig {
            cities: 120,
            ..Default::default()
        },
    );
    let paged_oracle = ModelProfile {
        list_page_size: 10,
        ..ModelProfile::oracle()
    };
    let limit_queries: Vec<galois_dataset::OperatorQuery> =
        galois_dataset::build_operator_suite(&wide.world)
            .into_iter()
            .filter(|q| matches!(q.family, galois_dataset::OperatorFamily::Limit))
            .collect();
    let limit_options = |early_stop| GaloisOptions {
        parallelism: Parallelism::new(lanes),
        pipeline: Pipeline::Streaming,
        prompt_batch: PromptBatch::Grid {
            keys: grid_keys,
            attrs: grid_attrs,
        },
        early_stop,
        ..Default::default()
    };
    let run_limit_family =
        |options: GaloisOptions, sql_of: &dyn Fn(&galois_dataset::OperatorQuery) -> String| {
            let session = Galois::with_options(
                std::sync::Arc::new(galois_llm::SimLlm::new(
                    wide.knowledge.clone(),
                    paged_oracle.clone(),
                )),
                wide.database.clone(),
                options,
            );
            let started = std::time::Instant::now();
            let stats: Vec<_> = limit_queries
                .iter()
                .map(|q| {
                    session
                        .execute(&sql_of(q))
                        .expect("limit bench query")
                        .stats
                })
                .collect();
            SuiteTotals {
                prompts: stats.iter().map(|s| s.total_prompts()).sum(),
                cache_hits: stats.iter().map(|s| s.cache_hits).sum(),
                serial_virtual_ms: stats.iter().map(|s| s.serial_virtual_ms).sum(),
                virtual_ms: lane_schedule(stats.iter().map(|s| s.virtual_ms), 1),
                list_virtual_ms: stats.iter().map(|s| s.list_virtual_ms).sum(),
                filter_virtual_ms: stats.iter().map(|s| s.filter_virtual_ms).sum(),
                fetch_virtual_ms: stats.iter().map(|s| s.fetch_virtual_ms).sum(),
                wall_ms: started.elapsed().as_millis() as u64,
                queue_ms: 0,
            }
        };
    let limit_streaming = run_limit_family(limit_options(galois_core::EarlyStop::Limit), &|q| {
        q.sql.clone()
    });
    let limit_unlimited = run_limit_family(
        limit_options(galois_core::EarlyStop::Off),
        &|q| match &q.check {
            galois_dataset::OperatorCheck::Window { unlimited_sql, .. } => unlimited_sql.clone(),
            galois_dataset::OperatorCheck::Exact => match q.sql.find(" LIMIT ") {
                Some(i) => q.sql[..i].to_string(),
                None => q.sql.clone(),
            },
        },
    );

    // The fault-injected resilience row: the sequential configuration
    // over a deterministically faulty oracle (20 % of prompts fail with
    // marker-detectable faults; truncated answers excluded so every fault
    // is caught by the retry loop rather than parsed), absorbed by the
    // default retry policy. One harness thread; the row must tie the
    // galois_sequential row exactly on prompts and cache hits.
    let faulty_options = GaloisOptions {
        resilience: Resilience::On(RetryPolicy::default()),
        ..Default::default()
    };
    let faulty_session = Galois::with_options(
        std::sync::Arc::new(FaultyLlm::new(
            model_for(&scenario, ModelProfile::oracle()),
            detectable_fault_profile(0.2),
        )),
        scenario.database.clone(),
        faulty_options.clone(),
    );
    let faulty_retry = run_galois_suite_on(&scenario, &faulty_session, &store_profile.name, 1);

    let qa = run_baseline_suite_parallel(
        &scenario,
        ModelProfile::oracle(),
        BaselineKind::Plain,
        lanes,
    );
    let cot = run_baseline_suite_parallel(
        &scenario,
        ModelProfile::oracle(),
        BaselineKind::ChainOfThought,
        lanes,
    );

    // Every Galois row derives its `parallelism` from the options the run
    // actually used and names the harness thread count explicitly — one
    // uniform metadata convention (see `crates/bench/README.md`).
    let limit_streaming_options = limit_options(galois_core::EarlyStop::Limit);
    let methods = [
        MethodReport::of(
            "galois_sequential",
            &sequential_options,
            1,
            suite_totals(&sequential, 1),
        ),
        MethodReport::of(
            "galois_scheduled",
            &scheduled_options,
            lanes,
            suite_totals(&scheduled, lanes),
        ),
        MethodReport::of(
            "galois_cost_planner",
            &cost_planner_options,
            lanes,
            suite_totals(&cost_planned, lanes),
        ),
        MethodReport::of(
            "galois_batched",
            &batched_options,
            lanes,
            suite_totals(&batched, lanes),
        ),
        MethodReport::of(
            "galois_pipelined",
            &pipelined_options,
            lanes,
            suite_totals(&pipelined, lanes),
        ),
        MethodReport::of(
            "galois_listcached_cold",
            &store_options,
            1,
            suite_totals(&listcached_cold, lanes),
        ),
        MethodReport::of(
            "galois_listcached_warm",
            &store_options,
            lanes,
            suite_totals(&listcached_warm, lanes),
        ),
        MethodReport::of(
            "galois_grid_fused",
            &grid_options,
            1,
            suite_totals(&grid_fused, lanes),
        ),
        MethodReport::of(
            "galois_limit_streaming",
            &limit_streaming_options,
            1,
            limit_streaming,
        ),
        MethodReport::of(
            "galois_limit_unlimited",
            &limit_streaming_options,
            1,
            limit_unlimited,
        ),
        MethodReport::of(
            "galois_faulty_retry",
            &faulty_options,
            1,
            suite_totals(&faulty_retry, 1),
        ),
        multiquery_report(&multiquery_options, &multiquery),
        MethodReport {
            name: "qa_baseline",
            parallelism: lanes,
            threads: lanes,
            totals: baseline_totals(&qa, lanes),
            extra: String::new(),
        },
        MethodReport {
            name: "qa_cot_baseline",
            parallelism: lanes,
            threads: lanes,
            totals: baseline_totals(&cot, lanes),
            extra: String::new(),
        },
    ];

    let before = methods[0].totals.virtual_ms;
    let after = methods[1].totals.virtual_ms.max(1);
    let speedup = before as f64 / after as f64;
    let planned = methods[2].totals.virtual_ms.max(1);
    let planner_speedup = after as f64 / planned as f64;
    let batched_ms = methods[3].totals.virtual_ms.max(1);
    let batch_speedup = planned as f64 / batched_ms as f64;
    let pipelined_ms = methods[4].totals.virtual_ms.max(1);
    let pipeline_speedup = batched_ms as f64 / pipelined_ms as f64;
    let cold_ms = methods[5].totals.virtual_ms.max(1);
    let warm_ms = methods[6].totals.virtual_ms.max(1);
    let warm_speedup = cold_ms as f64 / warm_ms as f64;
    let grid_ms = methods[7].totals.virtual_ms.max(1);

    let parity_row = |name: &str, t: &SuiteTotals| {
        format!(
            "    \"{name}\": {{ \"threads\": 1, \"prompts\": {}, \"cache_hits\": {}, \
             \"virtual_ms\": {} }}",
            t.prompts, t.cache_hits, t.virtual_ms,
        )
    };
    let rows: Vec<String> = methods.iter().map(MethodReport::to_json).collect();
    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"suite\": \"oracle-46\",\n  \"parallelism\": {lanes},\n  \
         \"methods\": {{\n{}\n  }},\n  \"pipeline_parity\": {{\n{},\n{}\n  }},\n  \
         \"listcached_parity\": {{\n{},\n{}\n  }},\n  \
         \"virtual_speedup\": {speedup:.2}\n}}\n",
        rows.join(",\n"),
        parity_row("galois_batched", &parity_batched),
        parity_row("galois_pipelined", &parity_pipelined),
        parity_row("galois_listcached_cold", &parity_listcached_cold),
        parity_row("galois_listcached_warm", &parity_listcached_warm),
    );
    std::fs::write(&out, &json).expect("write report");

    println!("wrote {out}");
    println!(
        "suite virtual time: {} ms sequential -> {} ms scheduled ({speedup:.1}x, {} lanes)",
        before, after, lanes
    );
    println!(
        "cost-based planner: {} ms scheduled-heuristic -> {} ms ({planner_speedup:.2}x)",
        after, planned
    );
    println!(
        "multi-key batching (B={batch}): {} ms cost-planner -> {} ms ({batch_speedup:.2}x)",
        planned, batched_ms
    );
    println!(
        "streaming pipeline: {} ms batched-waves -> {} ms ({pipeline_speedup:.2}x)",
        batched_ms, pipelined_ms
    );
    println!(
        "key-universe store: {} ms cold -> {} ms warm ({warm_speedup:.1}x, \
         list phase {} -> {} ms)",
        cold_ms, warm_ms, methods[5].totals.list_virtual_ms, methods[6].totals.list_virtual_ms
    );
    println!(
        "grid fusion (B={grid_keys} x A={grid_attrs}): {} prompts / {} ms cold -> {} prompts / \
         {grid_ms} ms (fetch phase {} -> {} ms)",
        methods[5].totals.prompts,
        cold_ms,
        methods[7].totals.prompts,
        methods[5].totals.fetch_virtual_ms,
        methods[7].totals.fetch_virtual_ms,
    );
    println!(
        "limit early stop (LIMIT family, 120-key concept): {} prompts unlimited -> {} prompts \
         with LIMIT windows ({} -> {} list prompts' worth of virtual list time)",
        methods[9].totals.prompts,
        methods[8].totals.prompts,
        methods[9].totals.list_virtual_ms,
        methods[8].totals.list_virtual_ms,
    );
    let faulty_retries: usize = faulty_retry.outcomes.iter().map(|o| o.stats.retries).sum();
    println!(
        "fault injection (rate 0.2, default retry policy): {} prompts / {} cache hits \
         (sequential row: {} / {}), {} retries absorbed, virtual time {} -> {} ms",
        methods[10].totals.prompts,
        methods[10].totals.cache_hits,
        methods[0].totals.prompts,
        methods[0].totals.cache_hits,
        faulty_retries,
        methods[0].totals.virtual_ms,
        methods[10].totals.virtual_ms,
    );
    println!(
        "cross-query scheduling ({} sessions, {} shared lanes, in-flight cap {inflight}): suite makespan \
         {} ms vs {grid_ms} ms serial grid suite ({:.1}x), per-query latency p50 {} / p99 {} ms, \
         queue delay {} ms total, pool utilisation {:.0}%",
        multiquery.sessions,
        multiquery.pool_lanes,
        multiquery.makespan_ms,
        grid_ms as f64 / multiquery.makespan_ms.max(1) as f64,
        multiquery.p50_latency_ms,
        multiquery.p99_latency_ms,
        multiquery.total_queue_ms,
        multiquery.lane_utilisation * 100.0,
    );
    for m in &methods {
        println!(
            "  {:<18} prompts {:>5}  cache_hits {:>5}  virtual {:>7} ms  wall {:>5} ms  \
             (list {} / filter {} / fetch {})",
            m.name,
            m.totals.prompts,
            m.totals.cache_hits,
            m.totals.virtual_ms,
            m.totals.wall_ms,
            m.totals.list_virtual_ms,
            m.totals.filter_virtual_ms,
            m.totals.fetch_virtual_ms,
        );
    }
}
