//! Closed-loop concurrent suite harness over the cross-query scheduler.
//!
//! [`run_suite_concurrent`] replays the oracle-46 suite (or any
//! scenario's suite) at `N` concurrent closed-loop sessions over one
//! shared session — one `LlmClient`, sub-entry cache and key-universe
//! store — through [`galois_core::run_multi_query`]. Answers and prompt
//! accounting are those of a serial run by construction (the scheduler's
//! logical pass runs the queries in canonical suite order); the shared
//! lane pool decides only the clocks, which this harness summarises as
//! suite makespan, p50/p99 per-query virtual latency, queueing delay and
//! lane utilisation.

use std::time::Instant;

use galois_core::{run_multi_query, AdmissionPolicy, Galois, GaloisOptions};
use galois_dataset::Scenario;
use galois_llm::ModelProfile;

use crate::harness::{model_for, GaloisRun, QueryOutcome, SuiteTotals};
use crate::matching::{match_records, relation_to_records};

/// A concurrent suite replay: the per-query outcomes (matched to ground
/// truth, in suite order) plus the shared-pool clock summary.
#[derive(Debug, Clone)]
pub struct ConcurrentSuiteRun {
    /// The suite run — outcomes carry replay clocks in
    /// [`galois_core::QueryStats::virtual_ms`] /
    /// [`galois_core::QueryStats::queue_ms`].
    pub run: GaloisRun,
    /// Closed-loop sessions the suite was spread across.
    pub sessions: usize,
    /// Lanes in the shared pool.
    pub pool_lanes: usize,
    /// Virtual instant the last query finished — the suite makespan.
    pub makespan_ms: u64,
    /// Median per-query virtual latency (queueing + execution).
    pub p50_latency_ms: u64,
    /// 99th-percentile per-query virtual latency.
    pub p99_latency_ms: u64,
    /// Total admission-queue delay across the suite.
    pub total_queue_ms: u64,
    /// Fraction of the `pool_lanes × makespan` budget spent doing work.
    pub lane_utilisation: f64,
}

impl ConcurrentSuiteRun {
    /// Mean prompts per query over the suite.
    pub fn prompts_per_query(&self) -> f64 {
        if self.run.outcomes.is_empty() {
            return 0.0;
        }
        let prompts: usize = self
            .run
            .outcomes
            .iter()
            .map(|o| o.stats.total_prompts())
            .sum();
        prompts as f64 / self.run.outcomes.len() as f64
    }

    /// Folds the replay into [`SuiteTotals`], with the shared-pool
    /// makespan as the suite virtual time (the per-query clocks already
    /// embed the pool contention, so no further lane packing applies).
    pub fn totals(&self) -> SuiteTotals {
        SuiteTotals {
            virtual_ms: self.makespan_ms,
            queue_ms: self.total_queue_ms,
            ..SuiteTotals::from_stats(
                self.run.outcomes.iter().map(|o| &o.stats),
                1,
                self.run.wall_ms,
            )
        }
    }
}

/// Runs the scenario's suite at `sessions` concurrent closed-loop
/// sessions, admitted under `policy`, over a fresh shared session built
/// from `options`.
///
/// Queries are dealt round-robin (`query i` → `session i mod sessions`),
/// and the options must select a streaming
/// [`Pipeline`](galois_core::Pipeline) — the wave engine has no task
/// trace to replay.
pub fn run_suite_concurrent(
    scenario: &Scenario,
    profile: ModelProfile,
    options: GaloisOptions,
    sessions: usize,
    policy: &AdmissionPolicy,
) -> galois_core::Result<ConcurrentSuiteRun> {
    let model_name = profile.name.clone();
    let model = model_for(scenario, profile);
    let galois = Galois::with_options(model, scenario.database.clone(), options);
    run_suite_concurrent_on(scenario, &galois, &model_name, sessions, policy)
}

/// [`run_suite_concurrent`] over an *existing* shared session, so callers
/// can replay repeatedly against warm session state.
pub fn run_suite_concurrent_on(
    scenario: &Scenario,
    galois: &Galois,
    model_name: &str,
    sessions: usize,
    policy: &AdmissionPolicy,
) -> galois_core::Result<ConcurrentSuiteRun> {
    let started = Instant::now();
    let sessions = sessions.max(1);
    let sqls: Vec<String> = scenario.suite.iter().map(|spec| spec.to_sql()).collect();
    let queries: Vec<&str> = sqls.iter().map(String::as_str).collect();
    let session_of: Vec<usize> = (0..queries.len()).map(|i| i % sessions).collect();
    let report = run_multi_query(galois, &queries, &session_of, policy)?;

    let outcomes: Vec<QueryOutcome> = scenario
        .suite
        .iter()
        .zip(&report.outcomes)
        .map(|(spec, out)| {
            let truth = scenario
                .database
                .execute(&spec.to_sql())
                .expect("suite queries execute on ground truth");
            let relation = &out.result.relation;
            let matching = match_records(&truth, &relation_to_records(relation));
            QueryOutcome {
                id: spec.id,
                category: spec.category,
                truth_rows: truth.len(),
                result_rows: relation.len(),
                cardinality_diff: crate::cardinality::cardinality_diff_percent(
                    truth.len(),
                    relation.len(),
                ),
                matching,
                stats: out.result.stats,
            }
        })
        .collect();

    Ok(ConcurrentSuiteRun {
        run: GaloisRun {
            model: model_name.to_string(),
            outcomes,
            wall_ms: started.elapsed().as_millis() as u64,
        },
        sessions,
        pool_lanes: report.pool_lanes,
        makespan_ms: report.makespan_ms,
        p50_latency_ms: report.p50_latency_ms(),
        p99_latency_ms: report.p99_latency_ms(),
        total_queue_ms: report.total_queue_ms,
        lane_utilisation: report.lane_utilisation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_galois_suite, suite_totals};
    use galois_core::{Parallelism, Pipeline, PromptBatch};

    fn small_scenario() -> Scenario {
        Scenario::generate_with(
            42,
            galois_dataset::WorldConfig {
                countries: 8,
                cities: 20,
                airports: 10,
                singers: 10,
                concerts: 12,
                employees: 15,
            },
        )
    }

    fn streaming_options() -> GaloisOptions {
        GaloisOptions {
            pipeline: Pipeline::Streaming,
            prompt_batch: PromptBatch::Keys(10),
            parallelism: Parallelism::new(8),
            ..Default::default()
        }
    }

    #[test]
    fn concurrent_suite_matches_serial_answers_and_beats_its_clock() {
        let s = small_scenario();
        let serial = run_galois_suite(&s, ModelProfile::oracle(), streaming_options());
        let concurrent = run_suite_concurrent(
            &s,
            ModelProfile::oracle(),
            streaming_options(),
            8,
            &AdmissionPolicy::default(),
        )
        .unwrap();
        assert_eq!(concurrent.sessions, 8);
        assert_eq!(concurrent.pool_lanes, 64);
        assert_eq!(serial.outcomes.len(), concurrent.run.outcomes.len());
        for (a, b) in serial.outcomes.iter().zip(&concurrent.run.outcomes) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.result_rows, b.result_rows);
            assert_eq!(a.matching.score(), b.matching.score());
            assert_eq!(a.stats.total_prompts(), b.stats.total_prompts());
            assert_eq!(a.stats.cache_hits, b.stats.cache_hits);
        }
        let serial_sum: u64 = serial.outcomes.iter().map(|o| o.stats.virtual_ms).sum();
        assert!(
            concurrent.makespan_ms < serial_sum,
            "shared pool {} ms vs serial suite {} ms",
            concurrent.makespan_ms,
            serial_sum
        );
        assert!(concurrent.p50_latency_ms <= concurrent.p99_latency_ms);
        assert!(concurrent.p99_latency_ms <= concurrent.makespan_ms);
        assert!(concurrent.lane_utilisation > 0.0 && concurrent.lane_utilisation <= 1.0);
        // Default policy: unlimited admission, so nothing queues.
        assert_eq!(concurrent.total_queue_ms, 0);
        assert_eq!(concurrent.totals().queue_ms, 0);
    }

    #[test]
    fn inflight_cap_surfaces_queue_delay_in_totals() {
        let s = small_scenario();
        let capped = AdmissionPolicy {
            max_inflight: 2,
            ..Default::default()
        };
        let run = run_suite_concurrent(&s, ModelProfile::oracle(), streaming_options(), 8, &capped)
            .unwrap();
        assert!(run.total_queue_ms > 0);
        let totals = run.totals();
        assert_eq!(totals.queue_ms, run.total_queue_ms);
        assert!(run.prompts_per_query() > 0.0);
        // Serial-harness totals agree on the interleaving-independent
        // accounting (prompt volume, cache hits, serial clock).
        let serial = run_galois_suite(&s, ModelProfile::oracle(), streaming_options());
        let st = suite_totals(&serial, 1);
        assert_eq!(totals.prompts, st.prompts);
        assert_eq!(totals.cache_hits, st.cache_hits);
        assert_eq!(totals.serial_virtual_ms, st.serial_virtual_ms);
    }

    #[test]
    fn one_session_concurrent_run_is_the_serial_suite() {
        let s = small_scenario();
        let serial = run_galois_suite(&s, ModelProfile::oracle(), streaming_options());
        let one = run_suite_concurrent(
            &s,
            ModelProfile::oracle(),
            streaming_options(),
            1,
            &AdmissionPolicy::default(),
        )
        .unwrap();
        let serial_sum: u64 = serial.outcomes.iter().map(|o| o.stats.virtual_ms).sum();
        assert_eq!(one.makespan_ms, serial_sum);
        for (a, b) in serial.outcomes.iter().zip(&one.run.outcomes) {
            assert_eq!(a.stats.virtual_ms, b.stats.virtual_ms);
            assert_eq!(b.stats.queue_ms, 0);
        }
    }
}
