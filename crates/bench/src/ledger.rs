//! `BENCH_e2e.json`: the virtual-clock ledger of the oracle-46 suite.
//!
//! `row_table` names every method row — its engine options, how it is
//! driven, and how many modelled query streams its per-query clocks are
//! packed over — and [`Ledger::build`] drives them one after another on
//! the calling thread, so the file is a pure function of the
//! [`LedgerConfig`]: two runs, and a debug and a release build, write the
//! same bytes. The unit test below regenerates it and compares it with the
//! committed file, then holds the rows against each other
//! ([`Ledger::assert_invariants`]). The row schema is in
//! `crates/bench/README.md`.

use std::sync::Arc;

use galois_core::{
    AdmissionPolicy, BaselineKind, Galois, GaloisOptions, ListStore, Parallelism, Pipeline,
    Resilience, RetryPolicy,
};
use galois_dataset::{
    build_operator_suite, OperatorCheck, OperatorFamily, OperatorQuery, Scenario, WorldConfig,
};
use galois_eval::{
    model_for, run_baseline_suite, run_galois_suite_on, run_suite_concurrent, suite_totals,
    ConcurrentSuiteRun, SuiteTotals,
};
use galois_llm::{lane_schedule, FaultyLlm, ModelProfile};

use crate::{
    batched_options, cost_planned_options, detectable_fault_profile, fresh_session,
    grid_stack_options, pipelined_options,
};

/// What the ledger is a function of; the default is the committed file's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerConfig {
    /// World seed.
    pub seed: u64,
    /// Request lanes per session, `K`; also the modelled query streams.
    pub lanes: usize,
    /// Keys per batched prompt, `B`.
    pub batch: usize,
    /// Keys per grid prompt.
    pub grid_keys: usize,
    /// Attributes per grid prompt, `A`.
    pub grid_attrs: usize,
    /// Closed-loop sessions of the multi-query row.
    pub sessions: usize,
    /// Its admission window (0 = unlimited).
    pub inflight: usize,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        LedgerConfig {
            seed: 42,
            lanes: 8,
            batch: 10,
            grid_keys: 10,
            grid_attrs: 6,
            sessions: 16,
            inflight: 14,
        }
    }
}

/// How a row's numbers are produced.
#[derive(Clone, Copy)]
enum Drive {
    /// The 46 queries, in order, on a fresh session over the oracle.
    Suite,
    /// The 46 queries again on the previous row's session.
    SecondPass,
    /// [`Drive::Suite`] over an oracle failing 20 % of its prompts with
    /// marker-detectable faults.
    FaultySuite,
    /// The operator suite's LIMIT family over a 120-city world listed in
    /// 10-key pages: the queries as written, or with their windows
    /// removed.
    LimitFamily { windowed: bool },
    /// The 46 queries at [`LedgerConfig::sessions`] closed-loop sessions
    /// over one shared lane pool (logical pass in suite order, then the
    /// task traces replayed on the pool under this policy).
    SharedPool(AdmissionPolicy),
    /// One question, one prompt.
    Baseline(BaselineKind),
}

struct RowSpec {
    name: &'static str,
    options: GaloisOptions,
    /// Modelled query streams the per-query makespans are packed over.
    streams: usize,
    drive: Drive,
}

/// The ledger's rows, in file order.
fn row_table(config: &LedgerConfig) -> Vec<RowSpec> {
    let k = config.lanes;
    let row = |name, options, streams, drive| RowSpec {
        name,
        options,
        streams,
        drive,
    };
    let scheduled = GaloisOptions {
        parallelism: Parallelism::new(k),
        ..Default::default()
    };
    let pipelined = pipelined_options(k, config.batch);
    let listcached = GaloisOptions {
        list_store: ListStore::On,
        ..pipelined.clone()
    };
    let grid = grid_stack_options(k, config.grid_keys, config.grid_attrs);
    let limit = |pipeline| GaloisOptions {
        parallelism: Parallelism::new(k),
        pipeline,
        prompt_batch: grid.prompt_batch,
        ..Default::default()
    };
    vec![
        // The paper-faithful pipeline, then one knob at a time.
        row(
            "galois_sequential",
            GaloisOptions::default(),
            1,
            Drive::Suite,
        ),
        row("galois_scheduled", scheduled.clone(), k, Drive::Suite),
        row(
            "galois_cost_planner",
            cost_planned_options(k),
            k,
            Drive::Suite,
        ),
        row(
            "galois_batched",
            batched_options(k, config.batch),
            k,
            Drive::Suite,
        ),
        row("galois_pipelined", pipelined, k, Drive::Suite),
        // Key-universe store: the cold pass pages and stores every
        // concept's keys, the warm pass reads them back.
        row(
            "galois_listcached_cold",
            listcached.clone(),
            k,
            Drive::Suite,
        ),
        row("galois_listcached_warm", listcached, k, Drive::SecondPass),
        row("galois_grid_fused", grid.clone(), k, Drive::Suite),
        // Same stack and queries; the early stop and the LIMIT clause
        // differ.
        row(
            "galois_limit_streaming",
            limit(Pipeline::StreamingLimit),
            1,
            Drive::LimitFamily { windowed: true },
        ),
        row(
            "galois_limit_unlimited",
            limit(Pipeline::Streaming),
            1,
            Drive::LimitFamily { windowed: false },
        ),
        // The retry budget exceeds the injector's consecutive-failure cap,
        // so this row ties `galois_sequential` net of retries.
        row(
            "galois_faulty_retry",
            GaloisOptions {
                resilience: Resilience::On(RetryPolicy::default()),
                ..Default::default()
            },
            1,
            Drive::FaultySuite,
        ),
        row(
            "galois_multiquery",
            grid,
            1,
            Drive::SharedPool(AdmissionPolicy {
                max_inflight: config.inflight,
                ..Default::default()
            }),
        ),
        // The paper's `T_M` and `T_C_M`: no session, so `options` only
        // carries the row's `parallelism`.
        row(
            "qa_baseline",
            scheduled.clone(),
            k,
            Drive::Baseline(BaselineKind::Plain),
        ),
        row(
            "qa_cot_baseline",
            scheduled,
            k,
            Drive::Baseline(BaselineKind::ChainOfThought),
        ),
    ]
}

/// One method row.
#[derive(Debug, Clone)]
pub struct LedgerRow {
    /// Method name, the row's JSON key.
    pub name: &'static str,
    /// Request lanes of the row's `GaloisOptions`.
    pub parallelism: usize,
    /// The row's accounting.
    pub totals: SuiteTotals,
    /// The shared-pool replay, on `galois_multiquery` alone.
    pub pool: Option<ConcurrentSuiteRun>,
}

/// Every row of `BENCH_e2e.json`.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// What the rows were built from.
    pub config: LedgerConfig,
    /// The method rows, in file order.
    pub rows: Vec<LedgerRow>,
}

/// The LIMIT family's queries, with or without their windows.
fn limit_family(world: &Scenario, windowed: bool) -> Vec<String> {
    build_operator_suite(&world.world)
        .into_iter()
        .filter(|q| q.family == OperatorFamily::Limit)
        .map(|q: OperatorQuery| match q.check {
            _ if windowed => q.sql,
            OperatorCheck::Window { unlimited_sql, .. } => unlimited_sql,
            OperatorCheck::Exact => match q.sql.find(" LIMIT ") {
                Some(i) => q.sql[..i].to_string(),
                None => q.sql,
            },
        })
        .collect()
}

impl Ledger {
    /// Drives every row of the table, one after another.
    pub fn build(config: &LedgerConfig) -> Ledger {
        let scenario = Scenario::generate(config.seed);
        let oracle = ModelProfile::oracle();
        let suite_on = |session: &Galois, streams| {
            suite_totals(
                &run_galois_suite_on(&scenario, session, &oracle.name),
                streams,
            )
        };
        let wide = Scenario::generate_with(
            config.seed,
            WorldConfig {
                cities: 120,
                ..Default::default()
            },
        );
        let paged_oracle = ModelProfile {
            list_page_size: 10,
            ..oracle.clone()
        };
        let mut session = None;
        let rows = row_table(config)
            .into_iter()
            .map(|spec| {
                let mut pool = None;
                let totals = match spec.drive {
                    Drive::Suite => {
                        let fresh = fresh_session(&scenario, &oracle, spec.options.clone());
                        suite_on(session.insert(fresh), spec.streams)
                    }
                    Drive::SecondPass => suite_on(
                        session.as_ref().expect("a second pass follows a suite row"),
                        spec.streams,
                    ),
                    Drive::FaultySuite => {
                        let model = Arc::new(FaultyLlm::new(
                            model_for(&scenario, oracle.clone()),
                            detectable_fault_profile(0.2),
                        ));
                        let faulty = Galois::with_options(
                            model,
                            scenario.database.clone(),
                            spec.options.clone(),
                        );
                        suite_on(&faulty, spec.streams)
                    }
                    Drive::LimitFamily { windowed } => {
                        let session = fresh_session(&wide, &paged_oracle, spec.options.clone());
                        let started = std::time::Instant::now();
                        let stats: Vec<_> = limit_family(&wide, windowed)
                            .iter()
                            .map(|sql| session.execute(sql).expect("limit bench query").stats)
                            .collect();
                        let wall_ms = started.elapsed().as_millis() as u64;
                        SuiteTotals::from_stats(&stats, spec.streams, wall_ms)
                    }
                    Drive::SharedPool(policy) => {
                        let run = run_suite_concurrent(
                            &scenario,
                            oracle.clone(),
                            spec.options.clone(),
                            config.sessions,
                            &policy,
                        )
                        .expect("the grid stack streams, so its traces replay");
                        let totals = run.totals();
                        pool = Some(run);
                        totals
                    }
                    Drive::Baseline(kind) => {
                        let run = run_baseline_suite(&scenario, oracle.clone(), kind);
                        let clocks = || run.outcomes.iter().map(|o| o.virtual_ms);
                        // No cache, no retrieval phases, nothing queues.
                        SuiteTotals {
                            prompts: run.outcomes.len(),
                            serial_virtual_ms: clocks().sum(),
                            virtual_ms: lane_schedule(clocks(), spec.streams),
                            wall_ms: run.wall_ms,
                            ..Default::default()
                        }
                    }
                };
                LedgerRow {
                    name: spec.name,
                    parallelism: spec.options.parallelism.get(),
                    totals,
                    pool,
                }
            })
            .collect();
        Ledger {
            config: config.clone(),
            rows,
        }
    }

    /// The row named `name`.
    ///
    /// # Panics
    /// When the ledger has no such row.
    pub fn row(&self, name: &str) -> &LedgerRow {
        self.rows
            .iter()
            .find(|row| row.name == name)
            .unwrap_or_else(|| panic!("the ledger has no {name} row"))
    }

    fn totals(&self, name: &str) -> &SuiteTotals {
        &self.row(name).totals
    }

    /// `galois_sequential`'s virtual time over `galois_scheduled`'s.
    pub fn virtual_speedup(&self) -> f64 {
        let scheduled = self.totals("galois_scheduled").virtual_ms.max(1);
        self.totals("galois_sequential").virtual_ms as f64 / scheduled as f64
    }

    /// The file. One line and one brace pair per row; host wall time is
    /// not written (the wall-clock numbers of record are
    /// `galois_benchmark`'s).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let t = &row.totals;
                let pool = row.pool.as_ref().map_or(String::new(), |p| {
                    format!(
                        ", \"sessions\": {}, \"pool_lanes\": {}, \"p50_latency_ms\": {}, \
                         \"p99_latency_ms\": {}, \"lane_utilisation\": {:.3}",
                        p.sessions,
                        p.pool_lanes,
                        p.p50_latency_ms,
                        p.p99_latency_ms,
                        p.lane_utilisation,
                    )
                });
                format!(
                    "    \"{}\": {{ \"parallelism\": {}, \"virtual_ms\": {}, \
                     \"serial_virtual_ms\": {}, \"prompts\": {}, \"cache_hits\": {}, \
                     \"list_virtual_ms\": {}, \"filter_virtual_ms\": {}, \
                     \"fetch_virtual_ms\": {}, \"queue_ms\": {}{pool} }}",
                    row.name,
                    row.parallelism,
                    t.virtual_ms,
                    t.serial_virtual_ms,
                    t.prompts,
                    t.cache_hits,
                    t.list_virtual_ms,
                    t.filter_virtual_ms,
                    t.fetch_virtual_ms,
                    t.queue_ms,
                )
            })
            .collect();
        format!(
            "{{\n  \"seed\": {},\n  \"suite\": \"oracle-46\",\n  \"parallelism\": {},\n  \
             \"methods\": {{\n{}\n  }},\n  \"virtual_speedup\": {:.2}\n}}\n",
            self.config.seed,
            self.config.lanes,
            rows.join(",\n"),
            self.virtual_speedup(),
        )
    }

    /// What the rows must say about each other at the default
    /// configuration — each knob's claim, as an inequality over two rows.
    ///
    /// # Panics
    /// On the first claim that does not hold.
    pub fn assert_invariants(&self) {
        let t = |name: &str| self.totals(name);
        let (sequential, scheduled) = (t("galois_sequential"), t("galois_scheduled"));
        let (planner, batched) = (t("galois_cost_planner"), t("galois_batched"));
        let pipelined = t("galois_pipelined");
        let (cold, warm) = (t("galois_listcached_cold"), t("galois_listcached_warm"));
        let grid = t("galois_grid_fused");

        // Request lanes: at least 4× off the sequential clock.
        assert!(
            self.virtual_speedup() >= 4.0,
            "{sequential:?} {scheduled:?}"
        );
        // Cost-based planner: fewer prompts, no slower.
        assert!(planner.virtual_ms <= scheduled.virtual_ms);
        assert!(planner.prompts < scheduled.prompts);
        // Key batching: fewer and shorter prompts still, no slower.
        assert!(batched.prompts < planner.prompts);
        assert!(batched.virtual_ms <= planner.virtual_ms);
        assert!(batched.serial_virtual_ms < planner.serial_virtual_ms);
        // Streaming: the same prompts and hits, a strictly lower makespan.
        assert_eq!(pipelined.prompts, batched.prompts);
        assert_eq!(pipelined.cache_hits, batched.cache_hits);
        assert!(pipelined.virtual_ms < batched.virtual_ms);
        // Key-universe store: the cold pass already lists less than the
        // pipelined row; the warm pass has no list phase left.
        assert!(cold.prompts <= pipelined.prompts);
        assert!(cold.list_virtual_ms < pipelined.list_virtual_ms);
        assert!(warm.prompts <= pipelined.prompts);
        assert!(warm.list_virtual_ms < 500);
        assert!(warm.virtual_ms < 1000);
        // Grid fusion: under 100 prompts (174 before it), the fetch phase
        // more than halved, the speculative pads visible as extra hits.
        assert!(grid.prompts < cold.prompts);
        assert!(grid.prompts < 100);
        assert!(grid.fetch_virtual_ms * 2 < cold.fetch_virtual_ms);
        assert!(grid.cache_hits > cold.cache_hits);
        // LIMIT-aware early stop: fewer prompts and less list time than
        // the same queries without their windows.
        let (limited, unlimited) = (t("galois_limit_streaming"), t("galois_limit_unlimited"));
        assert!(limited.prompts < unlimited.prompts);
        assert!(limited.list_virtual_ms < unlimited.list_virtual_ms);
        // Retries: the fault-free bill, paid for in virtual time only.
        let faulty = t("galois_faulty_retry");
        assert_eq!(faulty.prompts, sequential.prompts);
        assert_eq!(faulty.cache_hits, sequential.cache_hits);
        assert!(faulty.virtual_ms > sequential.virtual_ms);
        // Shared pool: the grid suite's bill, a makespan strictly below
        // its serial clock, and the admission window's queueing measured.
        let multi = self.row("galois_multiquery");
        let pool = multi.pool.as_ref().expect("the shared-pool fields");
        assert!(multi.totals.virtual_ms < grid.virtual_ms);
        assert_eq!(multi.totals.prompts, grid.prompts);
        assert_eq!(multi.totals.cache_hits, grid.cache_hits);
        assert!(multi.totals.queue_ms > 0);
        assert!(pool.p50_latency_ms <= pool.p99_latency_ms);
        assert!(pool.p99_latency_ms <= multi.totals.virtual_ms);
        assert!(self
            .rows
            .iter()
            .all(|r| r.pool.is_some() == (r.name == multi.name)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The drift check: a change that moves a row must commit the file
    /// `perf_report` then writes, and say why.
    #[test]
    fn committed_ledger_is_what_the_rows_regenerate() {
        let ledger = Ledger::build(&LedgerConfig::default());
        let committed = include_str!("../../../BENCH_e2e.json");
        let fresh = ledger.to_json();
        for (line, (ours, theirs)) in fresh.lines().zip(committed.lines()).enumerate() {
            assert_eq!(ours, theirs, "BENCH_e2e.json line {}", line + 1);
        }
        assert_eq!(fresh, committed);
        ledger.assert_invariants();
    }
}
